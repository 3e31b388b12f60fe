"""The benchmark's own smoke test, so that a change to a function it drives
(a renamed argument of ``encode``, a moved module) fails here instead of
only when the benchmark is next run."""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from entrex import autograd

ROOT = Path(__file__).resolve().parent.parent

# Ops the tracer may leave out: none, so every op must be traced.
UNTRACED_OPS = set()


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_lists_every_autograd_op():
    """An op the tracer does not wrap would be missing from
    ``autograd.ops_per_step``.  An op is a public function of
    ``entrex.autograd`` that records a tape node through ``_make``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    ops = {
        name
        for name, fn in inspect.getmembers(autograd, inspect.isfunction)
        if not name.startswith("_") and "_make" in fn.__code__.co_names
    }
    assert {"add", "matmul", "cross_entropy", "dropout"} <= ops
    assert ops - set(tracing.AUTOGRAD_OPS) <= UNTRACED_OPS
