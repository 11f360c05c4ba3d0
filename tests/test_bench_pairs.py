"""The pair summary of tools/bench_pairs.py, on made-up runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "verify_s", "unit": "s", "better": "lower"},
    {"name": "checks", "unit": "count", "better": "higher"},
]


def _run(verify_s, checks=4, failed=0, digest=None, unsampled=0, wall=0.06, factor=1.2):
    return {
        "correct": failed == 0,
        "failed": failed,
        "attempted": 10 * checks,
        "metrics": {
            "verify_s": {"value": verify_s, "unit": "s"},
            "checks": {"value": checks, "unit": "count"},
        },
        "rounds": 10,
        "unsampled_rounds": unsampled,
        "median_wall_s": wall,
        "median_sampled_factor": factor,
        "digest": digest,
    }


def _pairs(parent, change):
    pairs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        seed = 100 + i
        for run in (p, c):  # each seed sets up its own workload and digest
            run["digest"] = run["digest"] or f"seed {seed}"
        first = "parent" if i % 2 == 0 else "change"
        pairs.append({"seed": seed, "first": first, "parent": p, "change": c})
    return pairs


def test_summary_counts_wins_and_spreads_each_side():
    parent = [_run(v) for v in (0.10, 0.12, 0.11, 0.13, 0.09)]
    change = [
        _run(v, unsampled=u) for v, u in zip((0.08, 0.07, 0.12, 0.06, 0.05), (10, 3, 0, 10, 1))
    ]
    out = bench_pairs.summarize(_pairs(parent, change), END_TO_END)
    assert out["pairs"] == 5 and out["seeds"] == [100, 101, 102, 103, 104]
    assert out["first"] == ["parent", "change", "parent", "change", "parent"]
    assert out["correct_failed_attempted"]["change"][0] == [True, 0, 40]
    assert out["rounds"] == {"parent": [10] * 5, "change": [10] * 5}
    assert out["unsampled_rounds"] == {"parent": [0] * 5, "change": [10, 3, 0, 10, 1]}
    assert out["digests_equal"]
    assert out["median_wall_s"]["parent"] == {"median": 0.06, "runs": [0.06] * 5}
    assert out["median_sampled_factor"]["change"] == [1.2] * 5
    verify_s = out["metrics"]["verify_s"]
    assert verify_s["unit"] == "s"
    assert verify_s["change_wins"] == 4  # all but the third pair
    assert verify_s["parent"]["median"] == pytest.approx(0.11)
    assert verify_s["change"]["median"] == pytest.approx(0.07)
    # statistics.quantiles, exclusive method, over 5 runs
    assert verify_s["parent"]["q1"] == pytest.approx(0.095)
    assert verify_s["parent"]["q3"] == pytest.approx(0.125)
    assert verify_s["parent_iqr"] == pytest.approx(0.03)
    assert verify_s["median_change_pct"] == pytest.approx(-400 / 11)
    assert verify_s["parent_runs"] == [0.10, 0.12, 0.11, 0.13, 0.09]


def test_higher_is_better_and_ties_are_not_wins():
    parent = [_run(0.1, checks=4), _run(0.1, checks=4)]
    change = [_run(0.1, checks=5), _run(0.1, checks=4)]
    out = bench_pairs.summarize(_pairs(parent, change), END_TO_END)
    assert out["metrics"]["checks"]["change_wins"] == 1
    assert out["metrics"]["verify_s"]["change_wins"] == 0
    assert out["metrics"]["verify_s"]["median_change_pct"] == 0.0


def test_failures_and_differing_digests_are_reported():
    parent = [_run(0.1)]
    change = [_run(0.1, failed=2, digest="other")]
    out = bench_pairs.summarize(_pairs(parent, change), END_TO_END)
    assert out["correct_failed_attempted"]["change"] == [[False, 2, 40]]
    assert not out["digests_equal"]
    # one run per side: its value is the median and both quartiles
    assert out["metrics"]["verify_s"]["parent"] == {"median": 0.1, "q1": 0.1, "q3": 0.1}


def test_seed_range():
    assert bench_pairs.seed_range("1301-1304") == [1301, 1302, 1303, 1304]
    assert bench_pairs.seed_range("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.seed_range("5-4")


def test_workloads_and_run_length_come_from_the_benchmark():
    # argparse rejects these before any perfbench run starts
    with pytest.raises(SystemExit):
        bench_pairs.main(["bench_pairs.py", "a", "b", "--workload", "nope", "--seeds", "1"])
    with pytest.raises(SystemExit):
        bench_pairs.main(
            ["bench_pairs.py", "a", "b", "--workload", "desk", "--seeds", "1", "--seconds", "8"]
        )


def test_unsampled_rounds_are_read_off_the_run_record(tmp_path, monkeypatch):
    """A round with no speed sample has factor exactly 1.0 in the record."""
    result = {"correct": True, "attempted": 12, "failed": 0, "metrics": {}}
    record = {
        "digest": "d",
        "rounds": [
            {"wall_s": w, "factor": f}
            for w, f in ((0.04, 1.0), (0.07, 1.3), (0.045, 1.0), (0.06, 0.9), (0.08, 1.5))
        ],
    }
    (tmp_path / ".perfbench_results").mkdir()
    (tmp_path / ".perfbench_results" / "desk-seed5-trace0.json").write_text(json.dumps(record))

    def fake_run(cmd, cwd, **kwargs):
        assert cwd == tmp_path and cmd[-6:] == ["--seed", "5", "--seconds", "8", "--trace", "0"]
        return subprocess.CompletedProcess(cmd, 0, stdout=f"round: ...\n{json.dumps(result)}\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run = bench_pairs.run_perfbench(tmp_path, "desk", 5, 8)
    assert run == {
        **result,
        "rounds": 5,
        "unsampled_rounds": 2,
        "median_wall_s": 0.06,
        "median_sampled_factor": 1.3,
        "digest": "d",
    }


def test_median_walls_show_each_side_against_the_sampling_period():
    """Each side's median of its runs' median round walls, and the run
    with no sampled round reads None for its factor."""
    parent = [_run(0.04, wall=w) for w in (0.055, 0.052, 0.06)]
    change = [_run(0.03, wall=w, factor=None) for w in (0.045, 0.041, 0.048)]
    out = bench_pairs.summarize(_pairs(parent, change), END_TO_END)
    assert out["median_wall_s"] == {
        "parent": {"median": 0.055, "runs": [0.055, 0.052, 0.06]},
        "change": {"median": 0.045, "runs": [0.045, 0.041, 0.048]},
    }
    assert out["median_sampled_factor"] == {"parent": [1.2] * 3, "change": [None] * 3}
