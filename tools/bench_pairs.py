"""Run perfbench on two checkouts in alternating pairs and summarize them.

For each seed of the range, one pair: ``perfbench/run.py --trace 0`` on
PARENT and on CHANGE with that seed, for every workload in the order given.
The side that runs first alternates from pair to pair, starting with the
parent.  The summary has, per workload and end-to-end metric, each side's
median and quartiles over its runs, the runs themselves, and ``change_wins``,
the pairs where the change reads better (lower, or higher for a metric whose
``better`` in ``BENCHMARK.json`` is ``higher``); per run, ``correct``,
``failed`` and ``attempted``, the rounds that fit, the rounds with no
speed sample (``unsampled_rounds``: a speed factor of exactly 1.0, so a
round shorter than the sampling period of ``perfbench/pace.py`` reads raw
wall time), and whether both sides of every pair produced the same report
digest.

Each run lasts ``run_seconds`` of ``BENCHMARK.json``, and the workloads are
the ones it lists.

Usage: python tools/bench_pairs.py PARENT CHANGE --workload W [--workload W ...]
       --seeds A-B [--out FILE]
(the summary goes to FILE, or to standard output)
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def seed_range(text: str) -> list:
    """``"A-B"`` as the seeds A..B inclusive; ``"A"`` as the one seed A."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def _spread(runs: list) -> dict:
    if len(runs) < 2:
        return {"median": runs[0], "q1": runs[0], "q3": runs[0]}
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3}


def summarize(pairs: list, end_to_end: list) -> dict:
    """One workload's pairs as a ``BENCH_*.json`` entry.

    ``pairs`` holds one dict per pair: ``seed``, ``first`` (the side that
    ran first) and, per side, the run: ``correct``, ``failed``,
    ``attempted``, ``metrics`` (name -> {"value", "unit"}), ``rounds``,
    ``unsampled_rounds`` and ``digest``.  ``end_to_end`` is the
    ``BENCHMARK.json`` list of metrics with their ``name`` and ``better``.
    """
    runs = {side: [p[side] for p in pairs] for side in SIDES}
    out = {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "correct_failed_attempted": {
            side: [[r["correct"], r["failed"], r["attempted"]] for r in runs[side]]
            for side in SIDES
        },
        "rounds": {side: [r["rounds"] for r in runs[side]] for side in SIDES},
        "unsampled_rounds": {
            side: [r["unsampled_rounds"] for r in runs[side]] for side in SIDES
        },
        "digests_equal": all(p["parent"]["digest"] == p["change"]["digest"] for p in pairs),
        "metrics": {},
    }
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = -1 if spec["better"] == "higher" else 1
        parent, change = _spread(values["parent"]), _spread(values["change"])
        out["metrics"][name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "parent": parent,
            "change": change,
            "parent_runs": values["parent"],
            "change_runs": values["change"],
            "change_wins": sum(
                sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])
            ),
            "median_change_pct": (
                100 * (change["median"] - parent["median"]) / parent["median"]
                if parent["median"]
                else 0.0
            ),
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return out


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run: its result line plus, from its run
    record, the rounds, the rounds with no speed sample and the digest."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads(
        (checkout / ".perfbench_results" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        **result,
        "rounds": len(record["rounds"]),
        "unsampled_rounds": sum(r["factor"] == 1.0 for r in record["rounds"]),
        "digest": record["digest"],
    }


def main(argv: list) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    seconds = benchmark["run_seconds"]
    parser = argparse.ArgumentParser(prog="bench_pairs.py")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv[1:])
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = {w: [] for w in args.workload}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in args.workload:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_perfbench(checkouts[side], w, seed, seconds)
                verify_s = pair[side]["metrics"]["verify_s"]["value"]
                print(f"seed {seed} {w} {side}: verify_s {verify_s:.4f}", file=sys.stderr)
            pairs[w].append(pair)
    summary = {
        "seeds": args.seeds,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "end_to_end": {
            w: summarize(p, benchmark["end_to_end"]) for w, p in pairs.items()
        },
    }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
