"""The process's worker thread, shared by row halves and Adam, under concurrency, failure and fork.

Each case runs in a fresh interpreter with a timeout, so that a deadlock
fails the test instead of hanging the suite, and so that the thread count
it checks starts from a process with no worker.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# A default-size model and three long sequences; ``forward(ids)`` is its
# relation and novelty logits as bytes, ``serial`` their values with the
# halves run inline on this thread.  ``adam_bits()`` is two Adam steps
# over a copy of the model's parameters (eight tiles) with fixed
# gradients, as bytes, and ``adam_serial`` its value inline.
_PRELUDE = """
import os, sys, threading
sys.path.insert(0, "src")
import numpy as np
from entrex import autograd as ag, worker as worker_module
from entrex.model import EncoderConfig, RelationModel
from entrex.optim import _TILE, AdamState, adam_step
from entrex.tokenizer import Vocabulary, tag_tokens_for_types

vocab = Vocabulary(
    tokens=("[CLS]", "[SEP]", "[PAD]", "[UNK]", "[MASK]")
    + tuple(tag_tokens_for_types(["Chemical", "Gene"]))
    + tuple(f"w{i}" for i in range(12)),
    identifier_labels=("C1", "C2", "G1"),
    type_labels=("Chemical", "Gene"),
    relation_labels=("None", "Assoc", "Bind"),
)
mdl = RelationModel(EncoderConfig(dropout=0.0), vocab, np.random.default_rng(7))
seqs = [np.array([0, *(6 + np.random.default_rng(n).integers(0, 14, n - 2)), 1]) for n in (200, 301, 437)]


def forward(ids):
    return tuple(t.data.tobytes() for t in mdl.finetune_forward(ids))


def adam_bits():
    params = ag.flat_parameters({name: p.data.shape for name, p in mdl.params.items()}, np.float32)
    for name, p in params.items():
        p.data[...] = mdl.params[name].data
    assert sum(p.data.size for p in params.values()) >= 2 * _TILE
    state, rng = AdamState(lr=1e-3), np.random.default_rng(5)
    for _ in range(2):
        for p in params.values():
            p.grad = rng.standard_normal(p.data.shape, dtype=np.float32)
        adam_step(params, state)
    return b"".join(p.data.tobytes() for p in params.values())


class Inline:
    def run(self, top, bottom):
        return top(), bottom()


worker, worker_module._WORKER = worker_module._WORKER, Inline()
serial = [forward(ids) for ids in seqs]
adam_serial = adam_bits()
worker_module._WORKER = worker
threads = threading.active_count()
"""


def _run(body: str) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + body], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_concurrent_callers_get_the_serial_bits():
    """More callers than CPUs forwarding and stepping Adam at once, with the interpreter switching threads
    often: one at a time has the worker, the others run their halves inline, and all get the serial bits."""
    _run("""
results = {}

def call(k, j):
    return adam_bits() if j % 4 == k else forward(seqs[(k + j) % len(seqs)])

def caller(k):
    results[k] = [call(k, j) for j in range(20)]

switch = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=100)
finally:
    sys.setswitchinterval(switch)
assert not any(t.is_alive() for t in callers)
for k in range(4):
    assert results[k] == [adam_serial if j % 4 == k else serial[(k + j) % len(seqs)] for j in range(20)], k
""")


def test_an_exception_in_either_half_reaches_the_caller_once_both_have_finished():
    """n = 301 gives halves of 150 and 151 rows.  Each half's FFN gelu raises in turn while the
    other half is slowed down; the caller sees the exception after the other half has finished,
    and the worker serves the next forwards."""
    _run("""
import time

gelu, block_rows = ag.gelu, mdl._block_rows
finished = []


def recording_block_rows(x, *args):
    out = block_rows(x, *args)
    finished.append(x.data.shape[0])
    return out


mdl._block_rows = recording_block_rows
for rows, other in ((150, 151), (151, 150)):
    where = []

    def failing_gelu(x, rows=rows, other=other):
        if x.data.shape[0] == other:
            time.sleep(0.2)
        if x.data.shape[0] == rows:
            where.append(threading.current_thread() is threading.main_thread())
            raise FloatingPointError(f"half of {rows} rows")
        return gelu(x)

    ag.gelu = failing_gelu
    finished.clear()
    try:
        forward(seqs[1])
    except FloatingPointError as e:
        assert str(e) == f"half of {rows} rows"
        assert finished == [other], finished
    else:
        raise AssertionError("no exception")
    finally:
        ag.gelu = gelu
    if worker_module._cpu_count() > 1:
        assert where == [rows == 150], where  # the top half on the caller, the bottom on the worker
    assert [forward(ids) for ids in seqs] == serial
""")


def test_the_worker_runs_under_the_callers_error_state():
    _run("""
gelu = ag.gelu
states = []


def recording_gelu(x):
    states.append((threading.current_thread() is threading.main_thread(), np.geterr()))
    return gelu(x)


ag.gelu = recording_gelu
with np.errstate(over="raise", under="warn", invalid="ignore", divide="call"):
    caller = np.geterr()
    forward(seqs[0])
assert [state for _, state in states] == [caller] * 5, states  # two halves, the last block, two heads
if worker_module._cpu_count() > 1:  # the two halves reach gelu in either order
    assert sorted(main for main, _ in states[:2]) == [False, True] and all(main for main, _ in states[2:]), states
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_a_forked_child_starts_its_own_worker():
    _run("""
assert forward(seqs[0]) == serial[0]  # the parent's worker is running
pid = os.fork()
if pid == 0:
    ok = [forward(ids) for ids in seqs] == serial and adam_bits() == adam_serial
    ok &= threading.active_count() == 1 + (worker_module._cpu_count() > 1)  # this thread and a new worker
    os._exit(0 if ok else 1)
import signal, time

deadline = time.monotonic() + 60
while (reaped := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
    time.sleep(0.01)
if reaped[0] == 0:
    os.kill(pid, signal.SIGKILL)  # a hung child must not outlive the test
    os.waitpid(pid, 0)
    raise AssertionError("the forked child hung")
assert os.waitstatus_to_exitcode(reaped[1]) == 0
""")


def test_small_views_and_one_cpu_start_no_thread():
    """A tiny pipeline run, whose views are under two tiles and whose sequences are short, starts no
    thread.  A default-size Adam step starts the one worker with two CPUs and none with one, and a long
    forward likewise; the bits are the same either way."""
    _run("""
from entrex import pipeline, synthetic, tokenizer

train = synthetic.fixture_train_corpus()
pipeline.run(train, tokenizer.build_vocab(train), EncoderConfig(d_model=16, n_layers=1, n_heads=2, ffn_dim=32),
             1e-3, 1, 1, seed=1)
assert threading.active_count() == threads

cpu_count, worker_module._cpu_count = worker_module._cpu_count, lambda: 1
assert adam_bits() == adam_serial
assert [forward(ids) for ids in seqs] == serial
assert threading.active_count() == threads
worker_module._cpu_count = cpu_count
assert adam_bits() == adam_serial
assert threading.active_count() == threads + (worker_module._cpu_count() > 1)
assert [forward(ids) for ids in seqs] == serial
assert threading.active_count() == threads + (worker_module._cpu_count() > 1)
""")
