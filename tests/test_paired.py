"""The paired-comparison rule, checked against committed benchmark records."""

import json
from pathlib import Path

import pytest

from entrex.paired import MIN_WINS, compare

ROOT = Path(__file__).resolve().parent.parent
BOUNDS = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
# The records round every figure to 4 decimals.  BENCH_29 and BENCH_30 were
# written before entrex.paired and round their IQRs two ways (BENCH_29 the
# exact IQR, BENCH_30 the difference of its rounded quartiles), so theirs may
# differ from the rounded exact IQR by one unit in the last place.  A record
# written with entrex.paired rounds the exact IQR, and must match it.
LAST_PLACE = 1e-4 + 1e-12
IQR_SLACK = {"BENCH_29.json": LAST_PLACE, "BENCH_30.json": LAST_PLACE, "BENCH_31.json": 0.0}


def _load(name):
    return json.loads((ROOT / name).read_text())


def _values(record, workload, metric, side):
    return {
        r["seed"]: r["lines"][-1]["metrics"][metric]["value"]
        for r in record["runs"]
        if r["workload"] == workload and r["side"] == side
    }


def _comparison(record, workload, metric, better):
    return compare(_values(record, workload, metric, "parent"), _values(record, workload, metric, "change"), better)


def _pct(c):
    """The candidate's median against the baseline's, in percent, as the records print it."""
    return round(100 * (c.candidate_median / c.baseline_median - 1), 1)


def _iqr_matches(recorded, exact, name):
    return abs(recorded - round(exact, 4)) <= IQR_SLACK[name]


@pytest.mark.parametrize("name", ["BENCH_31.json", "BENCH_30.json", "BENCH_29.json"])
def test_summary_blocks_are_recomputed_from_their_runs(name):
    record = _load(name)
    checked = 0
    for workload, block in record["summary"].items():
        runs = [r for r in record["runs"] if r["workload"] == workload]
        for side in ("parent", "change"):
            last = [r["lines"][-1] for r in runs if r["side"] == side]
            assert block["failed"][side] == sum(line["failed"] for line in last)
            assert block["attempted"][side] == sum(line["attempted"] for line in last)
        assert block["correct"] == all(r["lines"][-1]["correct"] for r in runs)
        for metric, fig in block.items():
            if not isinstance(fig, dict) or "better" not in fig:
                continue
            c = _comparison(record, workload, metric, fig["better"])
            assert block["pairs"] == c.pairs
            assert fig["parent_median"] == round(c.baseline_median, 4)
            assert fig["change_median"] == round(c.candidate_median, 4)
            assert fig["change_vs_parent_pct"] == _pct(c)
            assert fig["change_wins"] == f"{c.wins}/{c.pairs}"
            assert fig["parent_quartiles"] == [round(q, 4) for q in c.baseline_quartiles]
            assert fig["change_quartiles"] == [round(q, 4) for q in c.candidate_quartiles]
            assert _iqr_matches(fig["parent_iqr"], c.baseline_iqr, name)
            ratio = fig["paired_ratio"]
            assert ratio["per_seed"] == [round(r, 4) for r in c.ratios]
            assert ratio["median"] == round(c.ratio_median, 4)
            assert _iqr_matches(ratio["iqr"], c.ratio_iqr, name)
            worse = c.candidate_median / c.baseline_median - 1
            assert fig["within_bound"] == ((worse if c.better == "lower" else -worse) <= BOUNDS[metric])
            checked += 1
    assert checked == 10  # five metrics on each of two workloads


@pytest.mark.parametrize("name", ["BENCH_31.json", "BENCH_30.json"])
def test_a_met_claim_is_recomputed(name):
    record = _load(name)
    claim = record["claim"]
    workload, metric = claim["metric"].split()
    c = _comparison(record, workload, metric, record["summary"][workload][metric]["better"])
    assert claim["parent_median"] == round(c.baseline_median, 4)
    assert claim["change_median"] == round(c.candidate_median, 4)
    assert claim["change_wins"] == f"{c.wins}/{c.pairs}"
    assert _iqr_matches(claim["parent_iqr"], c.baseline_iqr, name)
    assert claim["median_gap"] == round(c.gap, 4)
    assert claim["paired_ratio_median"] == round(c.ratio_median, 4)
    assert _iqr_matches(claim["paired_ratio_iqr"], c.ratio_iqr, name)
    if "min_wins" in claim:  # printed from BENCH_31 on
        assert claim["min_wins"] == MIN_WINS
        assert claim["change_vs_parent_pct"] == _pct(c)
    failed, attempted = record["summary"][workload]["failed"], record["summary"][workload]["attempted"]
    assert claim["failed_not_more"] == (failed["change"] / attempted["change"] <= failed["parent"] / attempted["parent"])
    assert claim["met"] is c.met is True


def test_a_record_without_a_claim_would_not_meet_one():
    """BENCH_29 claimed nothing; its closest figure, predict_long op_ms_p50,
    would not have met the rule either."""
    record = _load("BENCH_29.json")
    assert record["claim"] is None
    for workload, block in record["summary"].items():
        for metric, fig in block.items():
            if isinstance(fig, dict) and "better" in fig:
                assert not _comparison(record, workload, metric, fig["better"]).met


BASE = {seed: 10.0 + seed % 3 for seed in range(1, 11)}


def test_ties_count_for_neither_side():
    tied = {s: v if s <= 2 else v - 3 for s, v in BASE.items()}
    c = compare(BASE, tied, "lower")
    assert c.wins == 8 and c.pairs == 10
    assert compare(tied, BASE, "higher").wins == 8


def test_eight_wins_do_not_meet_the_rule():
    """A gap far above the baseline IQR (2) still needs nine wins of ten."""
    eight = {s: v - 3 if s > 2 else v + 0.5 for s, v in BASE.items()}
    nine = {s: v - 3 if s > 1 else v + 0.5 for s, v in BASE.items()}
    assert compare(BASE, eight, "lower").wins == 8 and not compare(BASE, eight, "lower").met
    assert compare(BASE, nine, "lower").wins == 9 and compare(BASE, nine, "lower").met


def test_the_gap_must_exceed_the_baseline_iqr():
    base = {s: float(s) for s in range(1, 11)}  # quartiles 2.75 and 8.25
    c = compare(base, {s: v - 0.5 for s, v in base.items()}, "lower")
    assert c.baseline_quartiles == (2.75, 8.25) and c.baseline_iqr == 5.5
    assert c.wins == 10 and c.gap == 0.5 and not c.met
    assert compare(base, {s: v - 6 for s, v in base.items()}, "lower").met


def test_direction_decides_wins_and_gap():
    higher = {s: v * 1.3 for s, v in BASE.items()}
    up = compare(BASE, higher, "higher")
    assert up.wins == 10 and up.gap > 0 and up.met
    down = compare(BASE, higher, "lower")
    assert down.wins == 0 and down.gap < 0 and not down.met
    assert down.ratios == pytest.approx((1.3,) * 10)


def test_a_missing_seed_is_refused():
    with pytest.raises(ValueError, match=r"seeds \[4\] have a run on one side only"):
        compare(BASE, {s: v for s, v in BASE.items() if s != 4}, "lower")


def test_an_unknown_direction_is_refused():
    with pytest.raises(ValueError, match="better must be 'lower' or 'higher'"):
        compare(BASE, BASE, "smaller")
