"""Spans around the package's public entry points, recorded from outside.

`Tracer.install` replaces module attributes of `causalres.cli` and
`causalres.rtknowcaus` with wrappers, so every call the CLI and the hull code
make through those names opens a span; `Tracer.uninstall` puts the originals
back. Nothing under `src/` changes. A span is (name, start, end, parent span,
question id), kept in flat arrays while the run lasts and written out when
it ends. Per-layer times and counts are read from the spans afterwards.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable

# (span name, modules whose attribute is replaced, attribute names)
WRAPPED = (
    ("cli.main", ("cli",), ("main",)),
    ("cli.parse", ("cli",), ("parse_resource_file",)),
    ("rtknowcaus.know_convertible", ("cli", "rtknowcaus"), ("know_convertible",)),
    ("rtknowcaus.closure", ("cli",), ("downward_closure_vertices",)),
    ("rtknowcaus.hasse", ("cli",), ("hasse",)),
    ("rtknowcaus.enumerate", ("rtknowcaus",), ("enumerate_extremal_combs",)),
    ("rtknowcaus.apply_extremal", ("rtknowcaus",), ("apply_extremal",)),
    ("rtknowcaus.apply_mixture", ("rtknowcaus",), ("apply_mixture",)),
    ("core.compose", ("rtknowcaus",), ("compose_functions",)),
    ("exactlp.convex_weights", ("rtknowcaus",), ("convex_weights",)),
    ("bit2bit", ("cli",), ("monotone_triple",)),
    ("beta_spectrum", ("cli",), ("beta_vector", "cumulative_monotones")),
    (
        "channel_game",
        ("cli",),
        (
            "guessing_probability",
            "posterior_causal_connection",
            "max_postselected_connection",
            "ace",
            "ace_dist",
            "min_beta_over_preimage",
        ),
    ),
)

# Per-layer metrics: name -> unit, in the order they are reported.
LAYER_METRICS = {
    "exactlp.solve_s": "s",
    "exactlp.calls": "count",
    "exactlp.columns": "count",
    "exactlp.rows": "count",
    "exactlp.max_columns": "count",
    "exactlp.infeasible": "count",
    "rtknowcaus.pushforward_s": "s",
    "rtknowcaus.pushforwards": "count",
    "core.compose_s": "s",
    "core.compose_calls": "count",
    "rtknowcaus.enumerate_s": "s",
    "rtknowcaus.combs": "count",
    "rtknowcaus.self_s": "s",
    "rtknowcaus.convert_s": "s",
    "rtknowcaus.closure_s": "s",
    "rtknowcaus.hasse_s": "s",
    "rtknowcaus.hasse_convert_calls": "count",
    "rtknowcaus.recheck_s": "s",
    "cli.self_s": "s",
    "cli.parse_s": "s",
    "cli.stdout_bytes": "bytes",
    "bit2bit.s": "s",
    "beta_spectrum.s": "s",
    "channel_game.s": "s",
    "trace.overhead_s": "s",
}

NAMES = [name for name, _, _ in WRAPPED]
NAME_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    def __init__(self) -> None:
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.question = array("l")
        self.current_question = -1
        self._question_first = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        # Counts taken at the LP and enumeration boundaries, per span id.
        self.lp: list[tuple[int, int, int, bool]] = []  # (span, columns, rows, infeasible)
        self.combs: list[tuple[int, int]] = []  # (span, combs)

    def _wrap(self, span: str, fn: Callable) -> Callable:
        nid = NAME_ID[span]
        name, start, end = self.name, self.start, self.end
        parent, question, stack = self.parent, self.question, self._stack
        clock = time.perf_counter_ns
        lp, combs = self.lp, self.combs
        tracer = self
        is_lp, is_enum = nid == LP_ID, nid == ENUM_ID

        def traced(*args, **kwargs):
            sid = len(name)
            name.append(nid)
            parent.append(stack[-1])
            question.append(tracer.current_question)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if is_lp:
                lp.append((sid, len(args[0]), len(args[1]) + 1, result is None))
            elif is_enum:
                combs.append((sid, len(result)))
            return result

        return traced

    def begin_question(self, qid: int) -> None:
        self.current_question = qid
        self._question_first = len(self.name)

    def drop_question(self) -> None:
        """Forget every span of the current question, after SIGALRM cut it off.

        The alarm can land inside a wrapper's own bookkeeping, which leaves
        the arrays out of step or a span on the stack. The question's spans
        are the last ones recorded, so cutting back to where it began puts
        the tracer in a consistent state again.
        """
        first = self._question_first
        for a in (self.name, self.start, self.end, self.parent, self.question):
            del a[first:]
        self.lp[:] = [row for row in self.lp if row[0] < first]
        self.combs[:] = [row for row in self.combs if row[0] < first]
        del self._stack[1:]

    def install(self, modules: dict[str, object]) -> None:
        for span, owners, attrs in WRAPPED:
            for attr in attrs:
                wrapper = None
                for owner in owners:
                    module = modules[owner]
                    original = getattr(module, attr)
                    if wrapper is None:
                        wrapper = self._wrap(span, original)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_times(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics over spans first..last-1 (one round of questions)."""
        name, start, end, parent = self.name, self.start, self.end, self.parent
        dur = [end[i] - start[i] for i in range(first, last)]
        child = [0] * (last - first)
        for i in range(first, last):
            p = parent[i]
            if p >= first:
                child[p - first] += dur[i - first]
        total = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        calls = [0] * len(NAMES)
        hasse_converts = 0
        for i in range(first, last):
            n = name[i]
            total[n] += dur[i - first]
            self_ns[n] += dur[i - first] - child[i - first]
            calls[n] += 1
            if n == KC_ID and parent[i] >= 0 and name[parent[i]] == HASSE_ID:
                hasse_converts += 1
        lp = [row for row in self.lp if first <= row[0] < last]
        s = {k: total[NAME_ID[k]] / 1e9 for k in NAMES}

        def own(*spans: str) -> float:
            return sum(self_ns[NAME_ID[k]] for k in spans) / 1e9

        return {
            "exactlp.solve_s": s["exactlp.convex_weights"],
            "exactlp.calls": calls[LP_ID],
            "exactlp.columns": sum(r[1] for r in lp),
            "exactlp.rows": sum(r[2] for r in lp),
            "exactlp.max_columns": max((r[1] for r in lp), default=0),
            "exactlp.infeasible": sum(1 for r in lp if r[3]),
            "rtknowcaus.pushforward_s": s["rtknowcaus.apply_extremal"],
            "rtknowcaus.pushforwards": calls[NAME_ID["rtknowcaus.apply_extremal"]],
            "core.compose_s": s["core.compose"],
            "core.compose_calls": calls[NAME_ID["core.compose"]],
            "rtknowcaus.enumerate_s": s["rtknowcaus.enumerate"],
            "rtknowcaus.combs": sum(c for sid, c in self.combs if first <= sid < last),
            "rtknowcaus.self_s": own(
                "rtknowcaus.know_convertible", "rtknowcaus.closure", "rtknowcaus.hasse"
            ),
            "rtknowcaus.convert_s": s["rtknowcaus.know_convertible"],
            "rtknowcaus.closure_s": s["rtknowcaus.closure"],
            "rtknowcaus.hasse_s": s["rtknowcaus.hasse"],
            "rtknowcaus.hasse_convert_calls": hasse_converts,
            "rtknowcaus.recheck_s": s["rtknowcaus.apply_mixture"],
            "cli.self_s": own("cli.main"),
            "cli.parse_s": s["cli.parse"],
            "bit2bit.s": s["bit2bit"],
            "beta_spectrum.s": s["beta_spectrum"],
            "channel_game.s": s["channel_game"],
        }

    def write(self, path: Path, summary: dict) -> None:
        """Spans as flat little-endian arrays after a one-line JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (
            ("name", self.name),
            ("start_ns", self.start),
            ("end_ns", self.end),
            ("parent", self.parent),
            ("question", self.question),
        )
        header = {
            "spans": len(self.name),
            "names": NAMES,
            "arrays": [[label, a.typecode, a.itemsize] for label, a in arrays],
            "summary": summary,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for _, a in arrays:
                a.tofile(fh)


LP_ID = NAME_ID["exactlp.convex_weights"]
ENUM_ID = NAME_ID["rtknowcaus.enumerate"]
KC_ID = NAME_ID["rtknowcaus.know_convertible"]
HASSE_ID = NAME_ID["rtknowcaus.hasse"]
