"""Benchmark of repcur's exact checks, end to end and per layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/repcur``.  The workload
(``desk``, ``commutant`` or ``closure``, see ``workloads.py``) is set up
once from the seed and then run in rounds, one thread and one caller,
while there is time for another round within ``--seconds``; at least one
round always runs.  Times are in reference seconds: wall time corrected
for the machine speed sampled during it (see ``pace.py``).

``--trace 0`` reports the end-to-end metrics: medians over rounds of the
round's time (``verify_s``), process plus child CPU time (``cpu_s``) and
longest single check (``slowest_check_s``); the peak resident memory; the
checks per round; and ``setup_s``, the median over fresh interpreters of
the time to import repcur and set the workload up.

``--trace 1`` runs one round untraced and one traced, and reports per-layer
counts and self times (see ``spans.py``), seconds per criterion from the
untraced round, and the tracing overhead: traced minus untraced time.

Every verdict and dimension is checked against a value the benchmark
computes itself; ``failed`` counts the checks that did not match, and a
run whose rounds disagree on any report is not ``correct``.  The last line
of standard output is the result as JSON.  A record of the run, with the
environment, raw wall times and a digest of the deterministic report
content, goes to ``.perfbench_results/`` at the checkout root, with the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_results"
SETUP_PROBES = 15


@dataclass
class Round:
    """One round: raw wall and CPU seconds, the speed factor over it (see
    pace), and each check's reference seconds, corrected by the factor over
    that check or, for a check too short to be sampled, over the round."""

    wall: float
    cpu: float
    factor: float
    verdicts: list
    check_s: list

    @property
    def verify_s(self) -> float:
        return self.wall / self.factor

    @property
    def digest(self) -> str:
        blob = json.dumps([v.content for v in self.verdicts], sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_round(workload, state, sampler) -> Round:
    gc.collect()
    with sampler:
        c0, t0 = _cpu(), time.perf_counter()
        verdicts = workload.run_round(state)
        t1, c1 = time.perf_counter(), _cpu()
    factor = sampler.factor(t0, t1)
    check_s = [(v.end - v.start) / sampler.factor(v.start, v.end, factor) for v in verdicts]
    return Round(t1 - t0, c1 - c0, factor, verdicts, check_s)


def setup_seconds(name: str, seed: int) -> float:
    """Median reference seconds for a fresh interpreter to import repcur and set up."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def environment() -> dict:
    from repcur.rational import Q

    return {
        "rational_backend": f"{Q.__module__}.{Q.__name__}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def end_to_end(name: str, seed: int, rounds: list) -> dict:
    def metric(value, unit):
        return {"value": value, "unit": unit}

    slowest = [max(r.check_s) for r in rounds]
    return {
        "verify_s": metric(statistics.median(r.verify_s for r in rounds), "s"),
        "cpu_s": metric(statistics.median(r.cpu / r.factor for r in rounds), "s"),
        "setup_s": metric(setup_seconds(name, seed), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "slowest_check_s": metric(statistics.median(slowest), "s"),
        "checks": metric(len(rounds[0].verdicts), "count"),
    }


def per_layer(tracer, untraced: Round, traced: Round) -> dict:
    import spans
    import workloads

    calls, self_s = tracer.layer_stats()
    out = {}
    for layer in spans.span_names():
        out[f"{layer}.calls"] = {"value": calls[layer], "unit": "count"}
        out[f"{layer}.self_s"] = {"value": self_s[layer] / traced.factor, "unit": "s"}
    ratios = {
        "currents.basis_action.distinct_ratio": (
            tracer.basis_distinct, calls["currents.basis_action"]),
        "linalg.span_add.kept_ratio": (tracer.span_kept, calls["linalg.span_add"]),
    }
    for key, (num, den) in ratios.items():
        out[key] = {"value": num / den if den else 0.0, "unit": "ratio"}
    out["linalg.rref.max_cells"] = {"value": tracer.rref_max_cells, "unit": "count"}
    for c in workloads.CRITERIA:
        s = sum(t for v, t in zip(untraced.verdicts, untraced.check_s) if v.criterion == c)
        out[f"verify.{c}.s"] = {"value": s, "unit": "s"}
    out["trace_overhead_s"] = {"value": traced.verify_s - untraced.verify_s, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["desk", "commutant", "closure"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repcur" / "__init__.py").is_file():
        print(f"perfbench: no repcur package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    sampler = pace.Pace()
    if args.trace:
        tracer = spans.Tracer()
        with tracer:
            state = workload.setup(args.seed)
        untraced = run_round(workload, state, sampler)
        with tracer:
            traced = run_round(workload, state, sampler)
        rounds = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced)
    else:
        state = workload.setup(args.seed)
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + rounds[-1].wall <= args.seconds:
            rounds.append(run_round(workload, state, sampler))
        metrics = end_to_end(args.workload, args.seed, rounds)

    digests = {r.digest for r in rounds}
    failed = sum(not v.ok for r in rounds for v in r.verdicts)
    attempted = sum(len(r.verdicts) for r in rounds)
    record.update(
        digest=rounds[0].digest,
        rounds=[
            {"wall_s": r.wall, "cpu_s": r.cpu, "factor": r.factor, "digest": r.digest}
            for r in rounds
        ],
        failures=[v.content for r in rounds for v in r.verdicts if not v.ok],
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(OUT / f"{stem}-spans.csv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"report digest: {record['digest']}")
    for r in rounds:
        print(f"round: wall {r.wall:.3f} s, factor {r.factor:.3f}, {r.verify_s:.3f} reference s")
    for v in (v for r in rounds for v in r.verdicts if not v.ok):
        print(f"WRONG: {json.dumps(v.content, default=str)}")
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
