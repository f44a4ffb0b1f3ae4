"""End-to-end and per-layer benchmark of the causalres CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bits --seed 1 --seconds 36 --trace 0

Every question is one call to `causalres.cli.main` in this process, with
stdin and stdout replaced by in-memory text; every answer is checked by
`checks.py`. The question list is answered whole, again and again, so each
run attempts whole rounds of the same questions. A round is not begun if
the last one says it would end after `--seconds`, unless an untraced run
holds fewer than forty question times so far. With `--trace 0` the last
stdout line reports the end-to-end metrics; with `--trace 1` every question
is asked untraced and then traced, and it reports per-layer metrics from
the traced answers. A question that exits with an error, or times out
without being marked as expected to, makes the run incorrect; only the
expected cut-off counts as failed. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CheckFailed
from spans import LAYER_METRICS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is sampled several times per run and reported as a median: one cold
# start of the interpreter varies by tens of percent.
COLD_STARTS = 7
GENERATIONS = 3
# An untraced run holds at least this many question times.
MIN_SAMPLES = 40


class QuestionTimeout(Exception):
    """Raised by SIGALRM inside a CLI call that ran past its time limit."""


def _on_alarm(signum, frame):
    raise QuestionTimeout


@dataclass
class Round:
    times: list[float] = field(default_factory=list)
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    stdout_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times)


def ask(cli, question) -> tuple[object, str, float]:
    """One timed `cli.main` call; the exit code is None when it timed out."""
    out = io.StringIO()
    sys.stdin = io.StringIO(question.stdin)
    rc = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, question.timeout_s)
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(question.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QuestionTimeout:
        rc = None
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin = sys.__stdin__
    return rc, out.getvalue(), elapsed


def answer(cli, qid: int, question, result: Round, tracer=None) -> None:
    """Ask one question, check the answer and record both in `result`."""
    if tracer is not None:
        tracer.begin_question(qid)
    rc, stdout, elapsed = ask(cli, question)
    result.times.append(elapsed)
    result.stdout_bytes += len(stdout.encode())
    if rc is None and tracer is not None:
        tracer.drop_question()
    if rc is None and question.expect_timeout:
        result.failed += 1
        return
    if rc != 0:
        reason = "timed out" if rc is None else f"exit {rc}"
        result.wrong.append(f"question {qid} {question.argv}: {reason}")
        return
    try:
        question.check(stdout)
    except CheckFailed as exc:
        result.wrong.append(f"question {qid} {question.argv}: {exc}")


def run_round(cli, questions) -> Round:
    result = Round()
    for qid, question in enumerate(questions):
        answer(cli, qid, question, result)
    return result


def run_pair(cli, modules: dict, questions, tracer: Tracer) -> tuple[Round, Round]:
    """An untraced and a traced round, interleaved question by question.

    The machine's speed drifts by tens of percent over seconds, far more
    than tracing costs, so each question is asked untraced and then traced
    at once, and trace.overhead_s compares times taken at the same speed.
    """
    plain, traced = Round(), Round()
    for qid, question in enumerate(questions):
        answer(cli, qid, question, plain)
        tracer.install(modules)
        try:
            answer(cli, qid, question, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def cold_start_s() -> float:
    """Fresh interpreter to a ready CLI: `python -m causalres --help`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "causalres", "--help"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "causalres" / "cli.py").is_file():
        print(f"error: no causalres sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Importing here also compiles the bytecode that the cold starts then use.
    from causalres import cli, rtknowcaus

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    colds = [cold_start_s() for _ in range(COLD_STARTS)]
    generations = []
    for _ in range(GENERATIONS):
        start = time.perf_counter()
        questions = WORKLOADS[args.workload](args.seed)
        generations.append(time.perf_counter() - start)
    setup_s = statistics.median(colds) + statistics.median(generations)

    signal.signal(signal.SIGALRM, _on_alarm)
    warm = run_round(cli, questions[:1])

    tracer = Tracer() if args.trace else None
    untraced: list[Round] = []
    traced: list[tuple[Round, dict]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is None:
            untraced.append(run_round(cli, questions))
        else:
            first = len(tracer.name)
            plain, done = run_pair(cli, {"cli": cli, "rtknowcaus": rtknowcaus}, questions, tracer)
            untraced.append(plain)
            traced.append((done, tracer.layer_times(first, len(tracer.name))))
        # Stop before a round that the last one says would end past
        # --seconds, once an untraced run has its samples for q_p50_s.
        now = time.perf_counter()
        sampled = tracer is not None or len(untraced) * len(questions) >= MIN_SAMPLES
        if sampled and now + (now - began) - start > args.seconds:
            break

    rounds = untraced + [r for r, _ in traced]
    wrong = warm.wrong + [w for r in rounds for w in r.wrong]
    for line in wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    attempted = len(questions) * len(rounds)
    failed = sum(r.failed for r in rounds)
    # The machine's speed drifts in stretches of seconds to minutes, so the
    # mean over a run's rounds tracks it more steadily than their median.
    untraced_wall = statistics.fmean(r.wall for r in untraced)
    # For the same reason q_p50_s ranks each question's mean time over the
    # rounds: a median of all times pooled moves with the share of the run
    # spent in slow stretches.
    per_question = [statistics.fmean(times) for times in zip(*(r.times for r in untraced))]

    if tracer is None:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(untraced_wall, "s"),
            "q_p50_s": metric(statistics.median(per_question), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layers = {
            key: statistics.median(layer[key] for _, layer in traced)
            for key in LAYER_METRICS
            if key not in ("cli.stdout_bytes", "trace.overhead_s")
        }
        layers["cli.stdout_bytes"] = statistics.median(r.stdout_bytes for r, _ in traced)
        layers["trace.overhead_s"] = statistics.fmean(r.wall for r, _ in traced) - untraced_wall
        metrics = {key: metric(layers[key], unit) for key, unit in LAYER_METRICS.items()}

    report = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            dict(report, rounds=len(rounds), questions=len(questions),
                 untraced_times=[r.times for r in untraced]),
        ) + "\n"
    )
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.bin", report)
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds = {len(rounds)}, questions per round = {len(questions)}")
    print(json.dumps(report))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
