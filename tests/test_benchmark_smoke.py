"""The benchmark's own smoke test, so that a change to a function it drives
(a renamed argument of ``encode``, a moved module) fails here instead of
only when the benchmark is next run."""

import importlib.util
import inspect
import json
import os
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


# Each workload's fingerprint of one full-size unit on seeds 1-3: the train
# unit's mean final-epoch pretraining and fine-tuning losses, and the sha256
# of predict_long's predicted PubTator.  A change that moves one by design
# edits it here.
PINNED_FINGERPRINTS = {
    "train": [
        [5.408296891621181, 3.1058340668678284],
        [5.460615941456386, 3.5565430149435997],
        [5.453555626528604, 3.46307494278465],
    ],
    "predict_long": [
        "3b12c253d4a9c6acfa5e504a4d695739d3394fd629414746589caf8d9afc8735",
        "b77a6efde72621a842f721bc2678cd52b92abfbdec6819b1dbb43a612052f1f2",
        "51239b58b7ad3cb0f4d452a45f28d061324fc8e2947d0dd7d505e03484cf6c62",
    ],
}

# Runs one unit of each workload per seed as perfbench/run.py does, and
# prints {workload: [[fingerprint, failed, checks], ...]} as JSON.
_PIN_SCRIPT = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads
from entrex import corpus

out = {}
for name, cls in workloads.WORKLOADS.items():
    out[name] = []
    for seed in (1, 2, 3):
        workload = cls(tiny=False)
        docs = workload.make_input(seed)
        text = corpus.write_pubtator(docs)
        state = workload.setup(text, seed)
        result = workload.unit(state)
        checks = workloads.run_checks(workload, text, docs, state, result)
        out[name].append([workload.fingerprint(result), result.failed, checks])
print(json.dumps(out))
"""


def test_benchmark_outputs_are_pinned():
    """One full-size unit of each workload on seeds 1-3, with one BLAS thread
    as the benchmark runs it, gives the pinned outputs and passes every check."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _PIN_SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    for name, pins in PINNED_FINGERPRINTS.items():
        for seed, pin, (fingerprint, failed, checks) in zip((1, 2, 3), pins, runs[name], strict=True):
            assert failed == 0 and all(checks.values()), (name, seed, checks)
            assert fingerprint == pin, (name, seed)


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
