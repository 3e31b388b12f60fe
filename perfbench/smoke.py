#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` untraced and traced, and
checks that each run exits 0, that its last line has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, that it is
correct, and that it reports exactly the metrics ``BENCHMARK.json`` names
with their units.  It also checks that two ``train`` runs with the same
seed give bit-identical losses, that traced counts repeat across runs,
and that the benchmark fails without printing a result in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 180
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT, extra=()) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _result(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    *_, info_line, last_line = proc.stdout.strip().splitlines()
    result = json.loads(last_line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: last line has keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{what}: not correct: {result['attempted']} attempted, "
                             f"{result['failed']} failed\n{info_line}\n{proc.stderr}")
    return result, json.loads(info_line)


def _check_metrics(result: dict, kind: str, what: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing, extra = sorted(expected.keys() - got.keys()), sorted(got.keys() - expected.keys())
        raise AssertionError(f"{what}: metrics differ from BENCHMARK.json {kind}: "
                             f"missing {missing}, extra {extra}, or units differ")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {name} is not a number")


def main() -> int:
    for workload in WORKLOADS:
        result, _ = _result(_run(workload, 0, extra=("--heldout-seed", "4")), f"{workload} untraced")
        _check_metrics(result, "end_to_end", f"{workload} untraced")
        if any(m["value"] <= 0 for m in result["metrics"].values()):
            raise AssertionError(f"{workload}: an end-to-end metric is not positive")
        traced, _ = _result(_run(workload, 1), f"{workload} traced")
        _check_metrics(traced, "per_layer", f"{workload} traced")
        again, _ = _result(_run(workload, 1), f"{workload} traced again")
        counts = {k: m["value"] for k, m in traced["metrics"].items() if m["unit"] == "count"}
        if counts != {k: m["value"] for k, m in again["metrics"].items() if m["unit"] == "count"}:
            raise AssertionError(f"{workload}: traced counts differ between runs with the same seed")
        print(f"ok {workload}")

    first, second = (
        {k: v for k, v in _result(_run("train", 0), "train")[1]["workload_metrics"].items() if "loss" in k}
        for _ in range(2)
    )
    if first != second:
        raise AssertionError(f"train losses differ between runs with the same seed: {first} {second}")
    print("ok train losses repeat")

    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("without the program the benchmark must fail and print no result")
    print("ok fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
