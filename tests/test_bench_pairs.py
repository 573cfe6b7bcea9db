"""The claim block and the end-to-end median check of
``scripts/bench_pairs.py``."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _result(wall_s=1.0, setup_s=0.2, peak_rss_mb=100.0, ok_ratio=1.0):
    values = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "ok_ratio": ok_ratio}
    return {"correct": True, "attempted": 8, "failed": 0,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


def _check(parent, change):
    return bench_pairs._median_check(
        {"parent": [_result(**kw) for kw in parent],
         "change": [_result(**kw) for kw in change]}, END_TO_END)


def test_medians_recorded_for_every_metric():
    medians, reasons = _check([{"wall_s": 1.0}, {"wall_s": 3.0}, {"wall_s": 2.0}],
                              [{"wall_s": 0.5}, {"wall_s": 0.1}, {"wall_s": 0.3}])
    assert reasons == []
    assert set(medians) == {spec["name"] for spec in END_TO_END}
    assert medians["wall_s"] == {"parent": 2.0, "change": 0.3}
    assert medians["ok_ratio"] == {"parent": 1.0, "change": 1.0}


@pytest.mark.parametrize("metric, parent, within, beyond", [
    ("peak_rss_mb", 100.0, 109.0, 111.0),   # lower is better, bound 0.1
    ("setup_s", 0.2, 0.24, 0.26),           # lower is better, bound 0.25
    ("ok_ratio", 1.0, 0.995, 0.98),         # higher is better, bound 0.01
])
def test_worse_beyond_bound_is_not_met(metric, parent, within, beyond):
    _, reasons = _check([{metric: parent}] * 2, [{metric: within}] * 2)
    assert reasons == []
    _, reasons = _check([{metric: parent}] * 2, [{metric: beyond}] * 2)
    assert len(reasons) == 1 and reasons[0].startswith(f"{metric}:")


def test_better_in_either_direction_is_met():
    _, reasons = _check([{"peak_rss_mb": 400.0, "ok_ratio": 0.5}] * 2,
                        [{"peak_rss_mb": 40.0, "ok_ratio": 1.0}] * 2)
    assert reasons == []


SPECS = {spec["name"]: spec for spec in END_TO_END}


def _pairs(*values):
    return [{"seed": i, "parent": p, "change": c}
            for i, (p, c) in enumerate(values)]


def test_lower_is_better_metric_wins_when_smaller():
    claim = bench_pairs._claim(_pairs((95.0, 75.0), (96.0, 97.0), (94.0, 74.0)),
                               SPECS["peak_rss_mb"])
    assert claim["metric"] == "peak_rss_mb" and claim["unit"] == "MB"
    assert claim["change_wins"] == "2 of 3"
    assert claim["median_gain"] == pytest.approx(1 - 75.0 / 95.0)
    assert claim["parent_iqr"] == pytest.approx(1.0)


def test_higher_is_better_metric_wins_when_larger():
    spec = SPECS["ok_ratio"]
    assert spec["better"] == "higher"
    claim = bench_pairs._claim(_pairs((0.8, 0.9), (0.8, 1.0), (0.9, 0.85)),
                               spec)
    assert claim["metric"] == "ok_ratio" and claim["better"] == "higher"
    assert claim["change_wins"] == "2 of 3"
    assert claim["median_gain"] == pytest.approx(0.9 / 0.8 - 1)


def test_equal_values_are_not_a_win():
    for name in ("wall_s", "ok_ratio"):
        claim = bench_pairs._claim(_pairs((1.0, 1.0), (2.0, 2.0)), SPECS[name])
        assert claim["change_wins"] == "0 of 2"
        assert claim["median_gain"] == 0


def test_metric_option_takes_end_to_end_names_only():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--name", "x", "--change", "x",
                          "--workload", "compile", "--seeds", "1-2",
                          "--metric", "encoding.ops"])


def test_one_seed_is_its_own_quartiles():
    claim = bench_pairs._claim(_pairs((95.0, 75.0)), SPECS["peak_rss_mb"])
    assert claim["parent"] == {"median": 95.0, "q1": 95.0, "q3": 95.0,
                               "runs": [95.0]}
    assert claim["change"]["median"] == 75.0
    assert claim["change_wins"] == "1 of 1"
    assert claim["parent_iqr"] == 0
