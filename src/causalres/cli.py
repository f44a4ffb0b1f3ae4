"""Command-line front end.

Subcommands take resources by built-in name, by file path, or from standard
input ("-"). Reports are line-delimited JSON with every rational rendered as
an exact fraction string and map keys emitted in sorted order, so identical
inputs produce byte-identical output. Hasse diagrams default to DOT.

Resource file format, one JSON object per line:

    {"name": "example", "domain": 2, "codomain": 2}
    {"map": [1, 0], "prob": "1/3"}
    {"map": [0, 0], "prob": "2/3"}

A header line opens a resource; the following entry lines list its support.
Probabilities must be strings (exactness does not survive JSON numbers).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .beta_spectrum import beta_vector, cumulative_monotones
from .bit2bit import monotone_triple
from .channel_game import (
    Prior,
    ace,
    ace_dist,
    guessing_probability,
    max_postselected_connection,
    min_beta_over_preimage,
    posterior_causal_connection,
)
from .core import FiniteFunction, FunctionDistribution, to_stochastic
from .errors import (
    DuplicateName,
    MalformedWeight,
    NonNormalized,
    ResourceBudgetExceeded,
    TableOutOfRange,
    ZeroMarginal,
)
from .library import BUILTIN
from .rtknowcaus import (
    DEFAULT_COMB_BUDGET,
    CombMixture,
    downward_closure_vertices,
    hasse,
    know_convertible,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3


def parse_resource_file(text: str) -> list[tuple[str, FunctionDistribution]]:
    """Parse the line-delimited resource format, reporting positions on error."""
    resources: list[tuple[str, FunctionDistribution]] = []
    names: set[str] = set()
    current: Optional[dict] = None

    def flush() -> None:
        nonlocal current
        if current is None:
            return
        try:
            dist = FunctionDistribution(
                current["domain"], current["codomain"], current["entries"]
            )
        except ValueError as exc:
            raise NonNormalized(f"resource {current['name']!r}: {exc}") from None
        resources.append((current["name"], dist))
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"line {lineno}: expected an object")
        if "name" in obj:
            flush()
            name = obj.get("name")
            domain = obj.get("domain")
            codomain = obj.get("codomain")
            if not isinstance(name, str) or not name:
                raise ValueError(f"line {lineno}: resource name must be a string")
            if name in names:
                raise DuplicateName(f"line {lineno}: duplicate resource {name!r}")
            names.add(name)
            for label, size in (("domain", domain), ("codomain", codomain)):
                if not isinstance(size, int) or isinstance(size, bool) or size < 1:
                    raise ValueError(
                        f"resource {name!r} line {lineno}: {label} must be a positive integer"
                    )
            current = {"name": name, "domain": domain, "codomain": codomain, "entries": []}
        elif "map" in obj:
            if current is None:
                raise ValueError(f"line {lineno}: support entry before any resource header")
            where = f"resource {current['name']!r} line {lineno}"
            table = obj.get("map")
            if (
                not isinstance(table, list)
                or len(table) != current["domain"]
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in table)
            ):
                raise TableOutOfRange(
                    f"{where}: map must list {current['domain']} integer outputs"
                )
            if not all(0 <= v < current["codomain"] for v in table):
                raise TableOutOfRange(
                    f"{where}: map entries must lie below the codomain size "
                    f"{current['codomain']}"
                )
            prob = obj.get("prob")
            if not isinstance(prob, str):
                raise MalformedWeight(f"{where}: prob must be a fraction string")
            try:
                weight = Fraction(prob)
            except (ValueError, ZeroDivisionError):
                raise MalformedWeight(f"{where}: cannot parse fraction {prob!r}") from None
            if weight < 0:
                raise MalformedWeight(f"{where}: negative probability {prob!r}")
            f = FiniteFunction(current["domain"], current["codomain"], tuple(table))
            current["entries"].append((f, weight))
        else:
            raise ValueError(f"line {lineno}: object is neither a header nor an entry")
    flush()
    return resources


def serialize_resources(resources: Sequence[tuple[str, FunctionDistribution]]) -> str:
    """Inverse of `parse_resource_file` on valid input."""
    lines = []
    for name, dist in resources:
        lines.append(
            json.dumps(
                {"name": name, "domain": dist.domain_size, "codomain": dist.codomain_size},
                sort_keys=True,
            )
        )
        for f, w in dist.items():
            lines.append(
                json.dumps({"map": list(f.outputs), "prob": str(w)}, sort_keys=True)
            )
    return "\n".join(lines) + "\n"


def _support_json(dist: FunctionDistribution) -> list[dict]:
    return [{"map": list(f.outputs), "prob": str(w)} for f, w in dist.items()]


def _mixture_json(mixture: CombMixture) -> list[dict]:
    return [
        {"pre": list(c.pre.outputs), "post": list(c.post.outputs), "weight": str(w)}
        for c, w in mixture.items()
    ]


def _resolve(tokens: Sequence[str]) -> list[tuple[str, FunctionDistribution]]:
    """Each token is a builtin name, a file path, or '-' for standard input."""
    out: list[tuple[str, FunctionDistribution]] = []
    for token in tokens:
        if token == "-":
            out.extend(parse_resource_file(sys.stdin.read()))
        elif token in BUILTIN:
            out.append((token, BUILTIN[token]))
        elif Path(token).exists():
            out.extend(parse_resource_file(Path(token).read_text(encoding="utf-8")))
        else:
            raise ValueError(f"{token!r} is neither a built-in resource nor a file")
    return out


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_monotones(args: argparse.Namespace) -> int:
    for name, dist in _resolve(args.resources):
        report: dict = {
            "name": name,
            "beta_spectrum": [str(w) for w in beta_vector(dist).weights],
            "cumulative": [str(m) for m in cumulative_monotones(dist)],
        }
        if (dist.domain_size, dist.codomain_size) == (2, 2):
            triple = monotone_triple(dist)
            report["m_beta"] = str(triple.m_beta)
            report["m_abs_alpha"] = (
                None if triple.m_abs_alpha is None else str(triple.m_abs_alpha)
            )
            report["m_gamma_beta"] = str(triple.m_gamma_beta)
        _emit(report)
    return EXIT_OK


def _cmd_convert(args: argparse.Namespace) -> int:
    resources = _resolve(args.resources)
    if len(resources) != 2:
        raise ValueError(f"convert needs exactly 2 resources, got {len(resources)}")
    (name_a, dist_a), (name_b, dist_b) = resources
    for src_name, src, dst_name, dst in (
        (name_a, dist_a, name_b, dist_b),
        (name_b, dist_b, name_a, dist_a),
    ):
        verdict = know_convertible(src, dst, budget=args.budget)
        report = {
            "source": src_name,
            "target": dst_name,
            "convertible": verdict.convertible,
            "certificate": (
                None if verdict.certificate is None else _mixture_json(verdict.certificate)
            ),
        }
        _emit(report)
    return EXIT_OK


def _cmd_closure(args: argparse.Namespace) -> int:
    for name, dist in _resolve(args.resources):
        vertices = downward_closure_vertices(dist, budget=args.budget)
        _emit(
            {
                "name": name,
                "vertex_count": len(vertices),
                "vertices": [_support_json(v) for v in vertices],
            }
        )
    return EXIT_OK


def _dot(graph) -> str:
    def node_id(members: tuple[str, ...]) -> str:
        return ", ".join(members).replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph hasse {"]
    for members in graph.classes:
        lines.append(f'  "{node_id(members)}";')
    for upper, lower in graph.edges:
        lines.append(
            f'  "{node_id(graph.classes[upper])}" -> "{node_id(graph.classes[lower])}";'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_hasse(args: argparse.Namespace) -> int:
    resources = _resolve(args.resources)
    graph = hasse(resources, budget=args.budget)
    if args.format == "report":
        _emit(
            {
                "classes": [list(members) for members in graph.classes],
                "edges": [list(edge) for edge in graph.edges],
            }
        )
    else:
        sys.stdout.write(_dot(graph))
    return EXIT_OK


def _parse_prior(text: str, size: int) -> Optional[Prior]:
    if text == "uniform":
        return None
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != size:
        raise ValueError(f"prior lists {len(parts)} weights for {size} inputs")
    try:
        weights = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse prior {text!r}") from None
    return Prior(weights=weights)


def _cmd_game(args: argparse.Namespace) -> int:
    for name, dist in _resolve(args.resources):
        prior = _parse_prior(args.prior, dist.domain_size)
        report: dict = {
            "name": name,
            "guessing_probability": str(guessing_probability(dist, prior)),
        }
        if (dist.domain_size, dist.codomain_size) == (2, 2):
            # Posteriors are uniform-prior quantities; --prior shifts only
            # the guessing probability.
            posteriors = {}
            for y in (0, 1):
                try:
                    posteriors[str(y)] = str(posterior_causal_connection(dist, y))
                except ZeroMarginal:
                    posteriors[str(y)] = None
            report["posterior_connection"] = posteriors
            report["max_postselected"] = str(max_postselected_connection(dist))
        _emit(report)
    return EXIT_OK


def _cmd_ace(args: argparse.Namespace) -> int:
    for name, dist in _resolve(args.resources):
        channel = to_stochastic(dist)
        bound, witness = min_beta_over_preimage(channel)
        _emit(
            {
                "name": name,
                "ace": str(ace(channel)),
                "ace_dist": str(ace_dist(dist)),
                "min_beta": str(bound),
                "min_beta_witness": _support_json(witness),
            }
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalres",
        description="Exact convertibility and monotone calculator for causal resources.",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_COMB_BUDGET,
        help="cap on enumerated extremal operation pairs (default 10^6)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, nargs: str = "+") -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "resources",
            nargs=nargs,
            help="built-in resource names, file paths, or - for stdin",
        )
        # SUPPRESS keeps a pre-subcommand --budget from being clobbered by
        # the subparser default.
        p.add_argument("--budget", type=int, default=argparse.SUPPRESS)
        return p

    add("monotones", "spectrum, tail sums and (for bits) the monotone triple")
    add("convert", "decide convertibility in both directions", nargs="+")
    add("closure", "vertices of the downward-closure polytope")
    hasse_p = add("hasse", "equivalence classes and cover edges")
    hasse_p.add_argument(
        "--format",
        choices=("dot", "report"),
        default="dot",
        help="DOT graph (default) or a JSON report",
    )
    game_p = add("game", "guessing probability and postselected posteriors")
    game_p.add_argument(
        "--prior",
        default="uniform",
        help='guessing prior: "uniform" or comma-separated fractions '
        "(posterior columns always use the uniform prior)",
    )
    add("ace", "average causal effect and the least-connection witness")
    return parser


_COMMANDS = {
    "monotones": _cmd_monotones,
    "convert": _cmd_convert,
    "closure": _cmd_closure,
    "hasse": _cmd_hasse,
    "game": _cmd_game,
    "ace": _cmd_ace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResourceBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
