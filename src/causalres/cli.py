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
Probabilities must be strings (exactness does not survive JSON numbers):
an integer, a/b or a decimal, with no exponent.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

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

Resources = list[tuple[str, FunctionDistribution]]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3


def _fraction(text: str) -> Fraction:
    """An integer, a/b or a decimal. An exponent is refused: `Fraction`
    expands "1e-10000000" into a ten-million-digit integer."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent in {text!r}")
    return Fraction(text)


def parse_resource_file(text: str) -> Resources:
    """Parse the line-delimited resource format, reporting positions on error."""
    resources: Resources = []
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
                weight = _fraction(prob)
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
        lines.extend(json.dumps(entry, sort_keys=True) for entry in _support_json(dist))
    return "\n".join(lines) + "\n"


def _support_json(dist: FunctionDistribution) -> list[dict]:
    return [{"map": list(f.outputs), "prob": str(w)} for f, w in dist.items()]


def _mixture_json(mixture: CombMixture) -> list[dict]:
    return [
        {"pre": list(c.pre.outputs), "post": list(c.post.outputs), "weight": str(w)}
        for c, w in mixture.items()
    ]


def _resolve(tokens: Sequence[str]) -> Resources:
    """Each token is a builtin name, a file path, or '-' for standard input."""
    out: Resources = []
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


def _cmd_monotones(args: argparse.Namespace, resources: Resources) -> None:
    for name, dist in resources:
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


def _cmd_convert(args: argparse.Namespace, resources: Resources) -> None:
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


def _cmd_closure(args: argparse.Namespace, resources: Resources) -> None:
    for name, dist in resources:
        vertices = downward_closure_vertices(dist, budget=args.budget)
        _emit(
            {
                "name": name,
                "vertex_count": len(vertices),
                "vertices": [_support_json(v) for v in vertices],
            }
        )


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


def _cmd_hasse(args: argparse.Namespace, resources: Resources) -> None:
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


def _parse_prior(text: str, size: int) -> Optional[Prior]:
    if text == "uniform":
        return None
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != size:
        raise ValueError(f"prior lists {len(parts)} weights for {size} inputs")
    try:
        weights = tuple(_fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse prior {text!r}") from None
    return Prior(weights=weights)


def _cmd_game(args: argparse.Namespace, resources: Resources) -> None:
    for name, dist in resources:
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


def _cmd_ace(args: argparse.Namespace, resources: Resources) -> None:
    for name, dist in resources:
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

    def add(name: str, help_text: str, run: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument(
            "resources",
            nargs="+",
            help="built-in resource names, file paths, or - for stdin",
        )
        # SUPPRESS keeps a pre-subcommand --budget from being clobbered by
        # the subparser default.
        p.add_argument("--budget", type=int, default=argparse.SUPPRESS)
        return p

    add(
        "monotones",
        "spectrum, tail sums and (for bits) the monotone triple",
        _cmd_monotones,
    )
    add("convert", "decide convertibility in both directions", _cmd_convert)
    add("closure", "vertices of the downward-closure polytope", _cmd_closure)
    hasse_p = add("hasse", "equivalence classes and cover edges", _cmd_hasse)
    hasse_p.add_argument(
        "--format",
        choices=("dot", "report"),
        default="dot",
        help="DOT graph (default) or a JSON report",
    )
    game_p = add("game", "guessing probability and postselected posteriors", _cmd_game)
    game_p.add_argument(
        "--prior",
        default="uniform",
        help='guessing prior: "uniform" or comma-separated fractions '
        "(posterior columns always use the uniform prior)",
    )
    add("ace", "average causal effect and the least-connection witness", _cmd_ace)
    return parser


PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # Every resource is resolved before a handler parses anything of its
        # own (such as --prior), so a bad resource is the error reported first.
        args.run(args, _resolve(args.resources))
    except ResourceBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
