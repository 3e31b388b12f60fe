#!/usr/bin/env python3
"""entrex benchmark: one command, two workloads, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: fresh
set-ups before every unit, units repeated until the time is up.
``--trace 1`` runs rounds of one setup plus one unit, alternately untraced
and traced, and reports per-layer self time and counts from the traced
rounds plus the tracing overhead.  ``--heldout-seed N`` also runs two
untimed units on inputs from seed N and adds their correctness checks, so
that a claim can be re-checked on a seed not used while it was made.
``--tiny`` shrinks every workload for the smoke test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is a JSON record of the environment, the input statistics, each
workload's own named metrics and every check.  The program is imported
from ``src/`` of the checkout this file sits in, and nowhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_UNITS = 2
# Set-ups are short; several per unit give setup_s dozens of samples.
SETUPS_PER_UNIT = 5

# One BLAS thread: the model runs one sequence at a time through small
# matrices, and on a small shared machine a second BLAS thread made
# per-pair times vary run to run far more than it sped them up.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _import_program() -> None:
    if not (SRC / "entrex" / "__init__.py").is_file():
        sys.exit(f"perfbench: the entrex sources are missing: no {SRC / 'entrex'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import entrex

    if Path(entrex.__file__).resolve().parent != SRC / "entrex":
        sys.exit(f"perfbench: imported entrex from {entrex.__file__}, not from {SRC}")


def _blas_threads(numpy_dir: Path) -> int | None:
    libs = numpy_dir.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import numpy as np

    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(Path(np.__file__).parent),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Run:
    """Counts the operations and checks of one benchmark run."""

    def __init__(self, workload, seed: int):
        from entrex import corpus

        self.workload = workload
        self.seed = seed
        self.docs = workload.make_input(seed)
        self.text = corpus.write_pubtator(self.docs)
        self.checks: dict[str, bool] = {}
        self.ops = 0
        self.failed_ops = 0
        # Only the first unit's outputs are kept, for the checks; later
        # units leave just their fingerprint, so memory does not grow.
        self.first = None
        self.fingerprints: set = set()

    def setup(self):
        return self.workload.setup(self.text, self.seed)

    def unit(self, state):
        result = self.workload.unit(state)
        self.ops += result.ops
        self.failed_ops += result.failed
        self.fingerprints.add(self.workload.fingerprint(result))
        if self.first is None:
            self.first = result
        return result

    def check(self, state, prefix: str = "") -> None:
        from workloads import run_checks

        checks = run_checks(self.workload, self.text, self.docs, state, self.first)
        checks["units_deterministic"] = len(self.fingerprints) == 1
        for name, ok in checks.items():
            self.add_check(prefix + name, ok)

    def add_check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        if not ok:
            print(f"perfbench: check {name} failed", file=sys.stderr)

    def result(self, metrics: dict, info: dict) -> dict:
        """The result line; adds the failure ratio and the checks to ``info``."""
        attempted = self.ops + len(self.checks)
        failed = self.failed_ops + sum(not ok for ok in self.checks.values())
        info["failed_ratio"] = failed / attempted
        info["checks"] = self.checks
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    # The host's speed drifts in phases of a few seconds, and a slow phase
    # only ever adds time.  So each figure is the fast end of many samples
    # spread over the run: set-up time is the fastest set-up, throughput
    # comes from the fastest unit, and an operation's time is its fastest
    # over the units (a unit repeats the same operations in the same
    # order) before the percentiles are taken.
    setup_seconds, unit_seconds, op_seconds, infos = [], [], [], []
    start = perf_counter()
    while len(infos) < MIN_UNITS or perf_counter() - start < seconds:
        for _ in range(SETUPS_PER_UNIT):
            gc.collect()  # garbage of the previous set-up or unit
            t0 = perf_counter()
            state = run.setup()
            setup_seconds.append(perf_counter() - t0)
        gc.collect()
        t0 = perf_counter()
        result = run.unit(state)
        unit_seconds.append(perf_counter() - t0)
        op_seconds.append(result.op_seconds)
        infos.append(result.info)
    run.check(state)

    fastest = [min(times) for times in zip(*op_seconds)]
    values = {
        "setup_s": min(setup_seconds),
        "ops_per_s": result.ops / min(unit_seconds),
        "op_ms_p50": 1e3 * statistics.median(fastest),
        "op_ms_p90": 1e3 * statistics.quantiles(fastest, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "end_to_end": {
            k: {"value": v, "unit": END_TO_END[k][0], "better": END_TO_END[k][1]} for k, v in values.items()
        },
        "units": len(infos),
        "setups": len(setup_seconds),
        "op_samples": len(fastest),
        "workload_metrics": {k: statistics.median(i[k] for i in infos) for k in infos[0]},
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}, info


def run_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    from tracing import Tracer, per_layer_names

    # A round is one setup plus one unit, so that parsing and vocabulary
    # building are traced too.  Untraced and traced rounds alternate; the
    # ratio of their medians is the tracing overhead.
    plain_seconds, traced_seconds, layers = [], [], []
    start = perf_counter()
    while len(layers) < MIN_UNITS or perf_counter() - start < seconds:
        t0 = perf_counter()
        state = run.setup()
        run.unit(state)
        plain_seconds.append(perf_counter() - t0)

        tracer = Tracer()
        tracer.install()
        try:
            t0 = perf_counter()
            model_ops = run.unit(run.setup()).model_ops
            traced_seconds.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics(model_ops))
    run.check(state)

    counts = [{k: v for k, v in m.items() if not k.endswith(".s")} for m in layers]
    run.add_check("trace_counts_repeat", all(c == counts[0] for c in counts))
    # counts repeat exactly, so the first round's stand for all of them
    values = {
        k: statistics.median(m[k] for m in layers) if k.endswith(".s") else layers[0][k]
        for k in per_layer_names()
    }
    run.add_check("trace_expected_zeros", _expected_zeros(run.workload.name, values))

    losses = run.first.info
    values["model.pretrain_loss.last"] = losses.get("pretrain_loss_last", 0.0)
    values["model.finetune_loss.last"] = losses.get("finetune_loss_last", 0.0)
    values["trace.overhead_ratio"] = statistics.median(traced_seconds) / statistics.median(plain_seconds) - 1.0
    info = {"rounds": len(layers), "plain_round_s": plain_seconds, "traced_round_s": traced_seconds}
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}, info


def _expected_zeros(workload: str, layer: dict) -> bool:
    if workload != "predict_long":
        return True
    zero = ["autograd.Tensor.backward.calls", "optim.adam_step.calls"]
    nonzero = [k for k in zero if layer[k] != 0]
    if nonzero:
        print(f"perfbench: expected no calls on {workload}: {nonzero}", file=sys.stderr)
    return not nonzero


def _layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(".last"):
        return "nats"
    if name in ("trace.overhead_ratio", "autograd.ops_per_step"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.heldout_seed is not None and args.heldout_seed < 0):
        parser.error("seeds must be non-negative")

    for name in BLAS_THREAD_VARIABLES:  # read once, when numpy is first imported
        os.environ[name] = "1"
    _import_program()
    from workloads import WORKLOADS, input_stats

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](tiny=args.tiny)

    run = Run(workload, args.seed)
    measure = run_traced if args.trace else run_end_to_end
    metrics, info = measure(run, args.seconds)
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        environment=_environment(),
        input=input_stats(run.docs),
    )
    if args.heldout_seed is not None:
        heldout = Run(workload, args.heldout_seed)
        state = heldout.setup()
        for _ in range(MIN_UNITS):
            heldout.unit(state)
        heldout.check(state, prefix="heldout.")
        run.ops += heldout.ops
        run.failed_ops += heldout.failed_ops
        run.checks.update(heldout.checks)
        info["heldout"] = {"seed": args.heldout_seed, "input": input_stats(heldout.docs)}
    result = run.result(metrics, info)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
