"""The paired-comparison rule: is a candidate better than a baseline over seeds?

A comparison runs the baseline and the candidate once per seed, back to
back, and reads one value from each run.  :func:`compare` takes those
values, keyed by seed, and the direction in which a value is better.  It
returns the medians and quartiles of each side, the candidate's wins
(pairs it is strictly better in; a tie counts for neither side), the
per-seed ratios candidate / baseline with their median and IQR, and the
verdict.  The verdict holds when the median gap, in the better direction,
is above the baseline's IQR and the candidate wins at least
:data:`MIN_WINS` pairs, the benchmark's 9 of 10.

Quartiles are ``statistics.quantiles(values, n=4)`` with the exclusive
method, not numpy's default linear interpolation; the IQR is the third
quartile minus the first.  Everything is exact; a record rounds what it
prints.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

MIN_WINS = 9  # of 10 pairs: the benchmark's rule for a claimed gain


def _quartiles(values: Sequence[float]) -> tuple[float, float]:
    """The first and third quartiles, exclusive method."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, q3


@dataclass(frozen=True)
class Comparison:
    """One metric of a paired comparison; see the module docstring."""

    better: str
    baseline_median: float
    candidate_median: float
    baseline_quartiles: tuple[float, float]
    candidate_quartiles: tuple[float, float]
    wins: int
    ratios: tuple[float, ...]  # candidate / baseline, in seed order
    ratio_median: float
    ratio_quartiles: tuple[float, float]

    @property
    def pairs(self) -> int:
        return len(self.ratios)

    @property
    def baseline_iqr(self) -> float:
        q1, q3 = self.baseline_quartiles
        return q3 - q1

    @property
    def ratio_iqr(self) -> float:
        q1, q3 = self.ratio_quartiles
        return q3 - q1

    @property
    def gap(self) -> float:
        """The median gap in the better direction: positive when the candidate is better."""
        gap = self.baseline_median - self.candidate_median
        return gap if self.better == "lower" else -gap

    @property
    def met(self) -> bool:
        """The verdict: the gap is above the baseline's IQR, with enough wins."""
        return self.gap > self.baseline_iqr and self.wins >= MIN_WINS


def compare(baseline: Mapping[int, float], candidate: Mapping[int, float], better: str) -> Comparison:
    """Compare per-seed values of a candidate against a baseline's.

    Both sides must hold the same seeds: a seed run on one side only is
    an incomplete pair, and raises :class:`ValueError`.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if baseline.keys() != candidate.keys():
        unpaired = sorted(baseline.keys() ^ candidate.keys())
        raise ValueError(f"seeds {unpaired} have a run on one side only")
    seeds = sorted(baseline)
    base = [baseline[s] for s in seeds]
    cand = [candidate[s] for s in seeds]
    lower = better == "lower"
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, cand))
    ratios = tuple(c / b for b, c in zip(base, cand))
    return Comparison(
        better=better,
        baseline_median=statistics.median(base),
        candidate_median=statistics.median(cand),
        baseline_quartiles=_quartiles(base),
        candidate_quartiles=_quartiles(cand),
        wins=wins,
        ratios=ratios,
        ratio_median=statistics.median(ratios),
        ratio_quartiles=_quartiles(ratios),
    )
