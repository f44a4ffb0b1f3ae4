"""Show that every check rejects a corrupted answer.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For a sample of each workload's questions at seed 1, the real CLI answer
must pass its check; then the answer is corrupted (a flipped verdict, a
perturbed certificate weight, a dropped closure vertex or Hasse edge, a
shifted monotone value) and the check must reject it. A question that exits
with an error, or times out without being expected to, must make its round
incorrect. Exits 1 if any corrupted answer passes, any real answer fails or
any such round passes.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
from fractions import Fraction

import run
from checks import CheckFailed

EPS = Fraction(1, 97)
SEED = 1


def rows(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()]


def dump(objs: list[dict]) -> str:
    return "".join(json.dumps(o, sort_keys=True) + "\n" for o in objs)


def flip_verdict(index: int):
    def corrupt(stdout: str) -> str:
        objs = rows(stdout)
        objs[index]["convertible"] = not objs[index]["convertible"]
        return dump(objs)

    return corrupt


def perturb_weight(stdout: str) -> str:
    """Move EPS of certificate weight between entries (or add it to a point)."""
    objs = rows(stdout)
    cert = next(o["certificate"] for o in objs if o["certificate"])
    cert[0]["weight"] = str(Fraction(cert[0]["weight"]) + EPS)
    if len(cert) > 1:
        cert[-1]["weight"] = str(Fraction(cert[-1]["weight"]) - EPS)
    return dump(objs)


def drop_vertex(index: int):
    def corrupt(stdout: str) -> str:
        objs = rows(stdout)
        objs[index]["vertices"].pop()
        objs[index]["vertex_count"] -= 1
        return dump(objs)

    return corrupt


def drop_edge(stdout: str) -> str:
    objs = rows(stdout)
    objs[0]["edges"].pop()
    return dump(objs)


def shift(key: str):
    def corrupt(stdout: str) -> str:
        objs = rows(stdout)
        objs[0][key] = str(Fraction(objs[0][key]) + EPS)
        return dump(objs)

    return corrupt


def main() -> int:
    if not (run.SRC / "causalres" / "cli.py").is_file():
        print(f"error: no causalres sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from causalres import cli

    from workloads import WORKLOADS

    signal.signal(signal.SIGALRM, run._on_alarm)
    bits = WORKLOADS["bits"](SEED)
    hull3 = WORKLOADS["hull3"](SEED)
    enum4 = WORKLOADS["enum4"](SEED)

    def first(questions, kind, predicate=lambda stdout: True):
        for q in questions:
            if q.kind == kind and not q.expect_timeout:
                rc, stdout, _ = run.ask(cli, q)
                if rc == 0 and predicate(stdout):
                    return q, stdout
        raise LookupError(f"no {kind} question fits")

    def mixed(stdout: str) -> bool:
        """A convert answer with one positive and one negative direction."""
        return sorted(o["convertible"] for o in rows(stdout)) == [False, True]

    cases = []
    for label, (q, out) in (
        ("bits convert", first(bits, "convert", mixed)),
        ("hull3 convert", first(hull3, "convert")),
        ("enum4 convert", first(enum4, "convert")),
    ):
        cases += [
            (label, q, out, "flipped verdict a->b", flip_verdict(0)),
            (label, q, out, "flipped verdict b->a", flip_verdict(1)),
            (label, q, out, "perturbed certificate weight", perturb_weight),
        ]
    q, out = first(bits, "closure", lambda s: rows(s)[0]["vertex_count"] > 2)
    cases.append(("bits closure", q, out, "dropped vertex", drop_vertex(0)))
    q, out = first(hull3, "closure")
    cases.append(("hull3 closure", q, out, "dropped vertex", drop_vertex(1)))
    q, out = first(bits, "hasse")
    cases.append(("bits hasse", q, out, "dropped edge", drop_edge))
    for kind, key in (("monotones", "m_beta"), ("game", "guessing_probability"), ("ace", "ace")):
        q, out = first(bits, kind)
        cases.append((f"bits {kind}", q, out, f"shifted {key}", shift(key)))

    failures = 0
    for label, q, out, what, corrupt in cases:
        try:
            q.check(out)
        except CheckFailed as exc:
            print(f"FAIL {label}: the real answer is rejected: {exc}")
            failures += 1
            continue
        try:
            q.check(corrupt(out))
        except CheckFailed as exc:
            print(f"ok   {label}, {what}: rejected ({exc})")
        else:
            print(f"FAIL {label}, {what}: accepted")
            failures += 1
    print(f"{len(cases) - failures} of {len(cases)} corruptions rejected")

    broken = (
        ("error exit", dataclasses.replace(bits[-1], argv=("ace", "no_such_resource"))),
        ("unexpected timeout", dataclasses.replace(first(hull3, "closure")[0], timeout_s=0.001)),
    )
    for what, q in broken:
        done = run.run_round(cli, [q])
        if done.wrong and not done.failed:
            print(f"ok   {what}: the round is incorrect ({done.wrong[0]})")
        else:
            print(f"FAIL {what}: the round is not marked incorrect")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
