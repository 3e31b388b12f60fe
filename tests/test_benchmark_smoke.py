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


# Every traced call count and counter of one seed-1 train unit, set-up
# included, as a traced round of perfbench/run.py takes them.  The counts do
# not depend on timing, and the unit runs on one thread: its forwards train,
# so none splits into row halves, and Adam steps on the calling thread.  A
# change that adds or removes a call by design edits it here.  predict_long
# is left out: half of each long forward runs on the worker thread, where the
# tracer counts without a lock.
PINNED_TRAIN_TRACE = {
    "autograd.add.calls": 2744,
    "autograd.mul.calls": 0,
    "autograd.scale.calls": 224,
    "autograd.matmul.calls": 2772,
    "autograd.embedding_lookup.calls": 420,
    "autograd.softmax.calls": 280,
    "autograd.layer_norm.calls": 700,
    "autograd.gelu.calls": 504,
    "autograd.mean.calls": 0,
    "autograd.dropout.calls": 560,
    "autograd.reshape.calls": 2044,
    "autograd.transpose.calls": 1260,
    "autograd.slice_rows.calls": 140,
    "autograd.cross_entropy.calls": 280,
    "autograd.add_n.calls": 0,
    "autograd.Tensor.backward.calls": 140,
    "optim.adam_step.calls": 140,
    "model.encode.calls": 0,
    "model.pretrain_loss.calls": 28,
    "model.finetune_forward.calls": 112,
    "model.finetune_loss.calls": 112,
    "model.load_state.calls": 3,
    "tokenizer.insert_pair_tags.calls": 112,
    "tokenizer.tokenize_document.calls": 140,
    "tokenizer.build_vocab.calls": 1,
    "masking.build_pretraining_instances.calls": 1,
    "corpus.parse_pubtator.calls": 1,
    "corpus.candidate_pairs.calls": 112,
    "corpus.write_pubtator.calls": 0,
    "evaluation.evaluate.calls": 0,
    "model.encode.tokens": 0,
    "tokenizer.insert_pair_tags.truncated": 0,
    "tokenizer.insert_pair_tags.untagged": 0,
    "tokenizer.build_vocab.tokens": 1063,
    "masking.build_pretraining_instances.instances": 28,
    "masking.build_pretraining_instances.targets": 114,
    "masking.build_pretraining_instances.skipped": 0,
    "corpus.parse_pubtator.docs": 112,
    "corpus.candidate_pairs.pairs": 6384,
    "autograd.ops_per_step": 85.2,
}

_TRACE_SCRIPT = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads
from tracing import Tracer
from entrex import corpus

workload = workloads.WORKLOADS["train"](tiny=False)
text = corpus.write_pubtator(workload.make_input(1))
tracer = Tracer()
tracer.install()
try:
    result = workload.unit(workload.setup(text, 1))
finally:
    tracer.uninstall()
print(json.dumps({k: v for k, v in tracer.metrics(result.model_ops).items() if not k.endswith(".s")}))
"""


def test_train_trace_counts_are_pinned():
    """A traced seed-1 train unit, in a fresh interpreter with one BLAS
    thread, makes the pinned number of calls to every span and counts the
    pinned figures."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == PINNED_TRAIN_TRACE


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
