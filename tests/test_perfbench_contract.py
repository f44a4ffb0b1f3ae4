"""The package names that the benchmark's tracer wraps, and its self-check.

`perfbench/spans.py` replaces attributes of `causalres.cli` and
`causalres.rtknowcaus` by name. A refactor that drops or reshapes one of
them would break only the traced benchmark run, and silently; these tests
make it break the suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from causalres import rtknowcaus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


WRAPPED_NAMES = sorted(
    {(owner, attr) for _, owners, attrs in load_wrapped() for owner in owners for attr in attrs}
)


@pytest.mark.parametrize("owner, attr", WRAPPED_NAMES, ids=lambda v: v)
def test_every_wrapped_name_is_a_callable_attribute(owner, attr):
    module = importlib.import_module(f"causalres.{owner}")
    assert callable(getattr(module, attr))


def test_wrapped_calls_keep_the_shapes_the_tracer_reads():
    # The tracer counts LP columns and rows from the first two positional
    # arguments of convex_weights, and combs from the length of the list
    # that enumerate_extremal_combs returns.
    params = list(inspect.signature(rtknowcaus.convex_weights).parameters)
    assert params[:2] == ["points", "target"]
    assert isinstance(rtknowcaus.enumerate_extremal_combs(2, 2, 2, 2), list)


def test_perfbench_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
