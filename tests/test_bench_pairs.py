from __future__ import annotations

import pytest

import bench_pairs


def _runs(workload: str, name: str, parent: list[float], change: list[float]) -> list[dict]:
    runs = []
    for pair, (before, after) in enumerate(zip(parent, change)):
        for side, value in (("parent", before), ("change", after)):
            runs.append({"workload": workload, "pair": pair, "side": side,
                         "metrics": {name: {"value": value, "unit": "s"}}})
    return runs


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("change, met", [
    ([value - 0.2 for value in PARENT], True),  # 10/10 pairs, gap 0.2 > IQR
    ([value - 0.2 for value in PARENT[:9]] + [1.5], True),  # 9/10 pairs
    ([value - 0.2 for value in PARENT[:8]] + [1.5, 1.5], False),  # 8/10 pairs
    ([value - 0.01 for value in PARENT], False),  # 10/10 pairs, gap within the IQR
    (PARENT, False),  # ties count for neither side
], ids=["all-pairs", "nine-pairs", "eight-pairs", "gap-within-iqr", "ties"])
def test_claim_rule_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_iqr(change, met):
    row = bench_pairs.summarize(_runs("w", "run_s", PARENT, change))["w"]["run_s"]
    assert row["claim_rule_met"] is met
    assert row["pairs"] == 10


def test_claim_rule_follows_the_better_direction_of_the_metric():
    higher = [value + 0.2 for value in PARENT]
    row = bench_pairs.summarize(_runs("w", "node_recall_pct", PARENT, higher))["w"][
        "node_recall_pct"]
    assert row["change_higher_in_pairs"] == 10 and row["claim_rule_met"] is True
    row = bench_pairs.summarize(_runs("w", "run_s", PARENT, higher))["w"]["run_s"]
    assert row["change_lower_in_pairs"] == 0 and row["claim_rule_met"] is False


def test_every_end_to_end_metric_gets_a_claim_rule_and_a_missing_one_gets_no_row():
    names = [spec["name"] for spec in bench_pairs.SPEC["end_to_end"]]
    runs = [{"workload": "w", "pair": pair, "side": side,
             "metrics": {name: {"value": 1.0 + pair, "unit": ""} for name in names}}
            for pair in range(3) for side in ("parent", "change")]
    rows = bench_pairs.summarize(runs)["w"]
    assert list(rows) == names
    assert all(isinstance(row["claim_rule_met"], bool) for row in rows.values())
    del runs[-1]["metrics"][names[0]]
    assert list(bench_pairs.summarize(runs)["w"]) == names[1:]
