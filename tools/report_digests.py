"""Print order-sensitive digests of the acceptance sweep's reports.

For each seed and profile, the sha256 of ``json.dumps`` of the
``run_acceptance_suite`` reports as dicts, in sweep order and with their
parameter keys in report order, with ``runtime_ms`` dropped.  Unlike the
sorted-key digests frozen in ``tests/test_acceptance.py``, these change
when a report or a parameter moves, so two checkouts that print the same
lines produce the same reports in the same order.

Usage: python tools/report_digests.py [CHECKOUT] [--profile P ...]
(default: the current directory, profiles quick and desk; seeds 0 and 3)
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path


def digest(reports) -> str:
    """sha256 of the reports in order, without their ``runtime_ms``."""
    out = []
    for r in reports:
        d = dataclasses.asdict(r)
        d.pop("runtime_ms")
        out.append(d)
    return hashlib.sha256(json.dumps(out, default=str).encode()).hexdigest()


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="report_digests.py")
    parser.add_argument("checkout", nargs="?", default=".")
    parser.add_argument("--profile", choices=["quick", "desk"], action="append")
    args = parser.parse_args(argv[1:])
    sys.path.insert(0, str(Path(args.checkout) / "src"))
    from repcur.verify import run_acceptance_suite

    for seed in (0, 3):
        for profile in args.profile or ["quick", "desk"]:
            reports = run_acceptance_suite(seed=seed, profile=profile)
            print(f"{seed} {profile} {digest(reports)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
