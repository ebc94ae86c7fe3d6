"""``benchmarks/record.py``'s pair verdicts, on made-up runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "record", Path(__file__).resolve().parent.parent / "benchmarks" / "record.py"
)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

END_TO_END = [
    {"name": "peak_rss_mb", "better": "lower"},
    {"name": "rows_per_s", "better": "higher"},
]


def runs(peak_rss_mb, rows_per_s):
    return [{"peak_rss_mb": m, "rows_per_s": r} for m, r in zip(peak_rss_mb, rows_per_s, strict=True)]


def test_a_clear_gain_meets_the_gate():
    baseline = runs([60, 61, 59, 60, 62, 60, 58, 60, 61, 60], [1000] * 10)
    checkout = runs([44, 45, 44, 43, 44, 44, 45, 44, 44, 61], [1100] * 9 + [1000])
    verdicts = record.pair_verdicts(END_TO_END, baseline, checkout)
    assert verdicts["peak_rss_mb"] == {
        "wins": 9,
        "losses": 1,
        "ties": 0,
        "baseline_median": 60,
        "median": 44,
        "baseline_iqr": 0.75,
        "gate": True,
    }
    # Higher is better here; a tie counts for neither side.
    rows = verdicts["rows_per_s"]
    assert (rows["wins"], rows["losses"], rows["ties"], rows["gate"]) == (9, 0, 1, True)


@pytest.mark.parametrize(
    "checkout, why",
    [
        ([59.5] * 10, "a median gap of 0.5 MB is within the baseline's IQR of 0.75 MB"),
        ([44] * 8 + [61] * 2, "8 wins out of 10 pairs"),
        ([44] * 9 + [60], "9 wins and a tie out of 10 pairs still meets it"),
    ],
)
def test_the_gate_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr(checkout, why):
    baseline = runs([60, 61, 59, 60, 62, 60, 58, 60, 61, 60], [1000] * 10)
    verdict = record.pair_verdicts(END_TO_END, baseline, runs(checkout, [1000] * 10))["peak_rss_mb"]
    assert verdict["gate"] == why.endswith("meets it"), why


def test_pairs_must_match_up():
    with pytest.raises(ValueError):
        record.pair_verdicts(END_TO_END, runs([1, 2], [1, 2]), runs([1], [1]))
