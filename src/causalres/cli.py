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
Each line has exactly the keys of a header or of an entry.
Probabilities must be strings (exactness does not survive JSON numbers)
in the grammar of `core.exact`: an integer, a/b or a decimal in ASCII
digits after an optional sign, with no exponent, underscore or surrounding
space. `--prior` weights follow the same grammar. A `--budget` that is not
a nonnegative integer exits 2 on every subcommand, like any other usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
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
from .core import FiniteFunction, FunctionDistribution, alphabet_size, exact, to_stochastic
from .errors import (
    DuplicateName,
    MalformedWeight,
    NonNormalized,
    ResourceBudgetExceeded,
    TableOutOfRange,
    ZeroMarginal,
)
from .library import BUILTIN
# `downward_closure_vertices` is not called here, but perfbench/spans.py
# wraps it by this name (tests/test_perfbench_contract.py).
from .rtknowcaus import (
    DEFAULT_COMB_BUDGET,
    CombMixture,
    _check_budget,
    _vertex_keys,
    downward_closure_vertices,
    hasse,
    know_convertible,
)

Resources = list[tuple[str, FunctionDistribution]]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3


def parse_resource_file(text: str) -> Resources:
    """Parse the line-delimited resource format, reporting positions on error.

    `FiniteFunction` and `FunctionDistribution` enforce the table and weight
    rules; the parser adds the resource name and line number to what they
    refuse. Each distribution is built once the whole text is read.
    """
    # name -> (domain, codomain, entries), in header order
    opened: dict[str, tuple[int, int, list]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        # An integer past Python's digit limit is a plain ValueError, not a
        # JSONDecodeError.
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from None
        keys = sorted(obj) if isinstance(obj, dict) else "no object"
        if keys == ["codomain", "domain", "name"]:
            name = obj["name"]
            if not isinstance(name, str) or not name:
                raise ValueError(f"line {lineno}: resource name must be a string")
            if name in opened:
                raise DuplicateName(f"line {lineno}: duplicate resource {name!r}")
            sizes = (obj["domain"], obj["codomain"])
            for label, size in zip(("domain", "codomain"), sizes):
                alphabet_size(size, f"resource {name!r} line {lineno}: {label}")
            opened[name] = (*sizes, [])
        elif keys == ["map", "prob"]:
            if not opened:
                raise ValueError(f"line {lineno}: support entry before any resource header")
            name = next(reversed(opened))
            domain, codomain, entries = opened[name]
            where = f"resource {name!r} line {lineno}"
            try:
                # A `map` that is not iterable (a number, null) is a TypeError.
                f = FiniteFunction(domain, codomain, obj["map"])
            except (TypeError, ValueError) as exc:
                raise TableOutOfRange(f"{where}: {exc}") from None
            prob = obj["prob"]
            if not isinstance(prob, str):
                raise MalformedWeight(f"{where}: prob must be a fraction string")
            try:
                weight = exact(prob)
            except (ValueError, ZeroDivisionError):
                raise MalformedWeight(f"{where}: cannot parse fraction {prob!r}") from None
            if weight < 0:
                raise MalformedWeight(f"{where}: negative probability {prob!r}")
            entries.append((f, weight))
        else:
            raise ValueError(
                f"line {lineno}: expected the keys of a header (codomain, domain, name)"
                f" or of an entry (map, prob), found {keys}"
            )
    resources: Resources = []
    for name, (domain, codomain, entries) in opened.items():
        try:
            resources.append((name, FunctionDistribution(domain, codomain, entries)))
        except ValueError as exc:
            raise NonNormalized(f"resource {name!r}: {exc}") from None
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
            for key, value in asdict(monotone_triple(dist)).items():
                report[key] = None if value is None else str(value)
        _emit(report)


def _cmd_convert(args: argparse.Namespace, resources: Resources) -> None:
    if len(resources) != 2:
        raise ValueError(f"convert needs exactly 2 resources, got {len(resources)}")
    for (src_name, src), (dst_name, dst) in (resources, resources[::-1]):
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
    """One report per resource, streamed from the vertex keys.

    The bytes are those of `_emit` with each vertex as `_support_json`
    gives it, but no vertex is built as an object and no report is held
    whole: the report's JSON up to its empty vertex list is written first,
    then each vertex. Each distinct table's `{"map": ..., "prob": "`
    fragment and each distinct numerator's reduced fraction are formatted
    once per report.
    """
    write = sys.stdout.write
    for name, dist in resources:
        den, keys = _vertex_keys(dist, args.budget)
        head = json.dumps({"name": name, "vertex_count": len(keys), "vertices": []}, sort_keys=True)
        maps: dict[tuple, str] = {}
        probs: dict[int, str] = {}

        def entry(t: tuple, n: int) -> str:
            if t not in maps:
                maps[t] = f'{{"map": {json.dumps(list(t))}, "prob": "'
            if n not in probs:
                probs[n] = f'{Fraction(n, den)}"}}'
            return maps[t] + probs[n]

        write(head[: -len("]}")])
        for i, key in enumerate(keys):
            write(f"{', ' if i else ''}[{', '.join([entry(t, n) for t, n in key])}]")
        write("]}\n")


def _dot(graph) -> str:
    """DOT text of the graph; two classes may not share a node name."""
    names = [
        ", ".join(members).replace("\\", "\\\\").replace('"', '\\"')
        for members in graph.classes
    ]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DuplicateName(f"two classes of the Hasse diagram are both named {name!r}")
    lines = ["digraph hasse {"]
    lines.extend(f'  "{name}";' for name in names)
    for upper, lower in graph.edges:
        lines.append(f'  "{names[upper]}" -> "{names[lower]}";')
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


def _parse_prior(text: str) -> Optional[Prior]:
    if text == "uniform":
        return None
    try:
        weights = tuple(exact(p.strip()) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse prior {text!r}") from None
    return Prior(weights=weights)


def _cmd_game(args: argparse.Namespace, resources: Resources) -> None:
    # `guessing_probability` checks the prior's length against each resource.
    prior = _parse_prior(args.prior)
    for name, dist in resources:
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
        # ace_dist refuses a resource that is not 2->2 before the dense
        # channel is built.
        effect = ace_dist(dist)
        channel = to_stochastic(dist)
        bound, witness = min_beta_over_preimage(channel)
        _emit(
            {
                "name": name,
                "ace": str(ace(channel)),
                "ace_dist": str(effect),
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
        resources = _resolve(args.resources)
        _check_budget(args.budget)
        args.run(args, resources)
    except ResourceBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
