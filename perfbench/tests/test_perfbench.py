"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/tests

The repeatability test runs every workload twice in traced mode, four to
six minutes on a 2-CPU machine with the Fraction backend.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import run  # noqa: E402


def _partitions(d, max_rows, largest=None):
    largest = d if largest is None else largest
    if d == 0:
        yield ()
        return
    if max_rows == 0:
        return
    for first in range(min(d, largest), 0, -1):
        for rest in _partitions(d - first, max_rows - 1, first):
            yield (first,) + rest


@pytest.mark.parametrize("n,d", [(1, 3), (2, 3), (2, 4), (3, 3), (3, 5), (4, 4)])
def test_gl_paths_count_standard_tableaux(n, d):
    want = {lam: oracle.hook_length(lam) for lam in _partitions(d, n)}
    assert dict(oracle.multiplicities(oracle.GL, n, d)) == want


def test_commutant_dimensions():
    assert oracle.commutant_dim(oracle.GL, 3, 3) == 6
    assert oracle.commutant_dim(oracle.GL, 2, 4) == 14
    assert oracle.commutant_dim(oracle.GL, 2, 3) == 5
    assert oracle.commutant_dim(oracle.SP, 1, 2) == 2
    assert oracle.commutant_dim(oracle.SO, 3, 2) == 3
    assert oracle.closure_dims(oracle.SP, 1, 3) == {(3,): 1, (1,): 4}
    assert oracle.closure_dims(oracle.GL, 2, 2, (2,)) == {(4, 0): 1, (3, 1): 4, (2, 2): 1}


def _traced(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"{name}-seed3-trace1.json").read_text())
    return result, record


@pytest.mark.parametrize("name", ["desk", "commutant", "closure"])
def test_same_seed_repeats(name, capsys):
    first, first_record = _traced(name, capsys)
    second, second_record = _traced(name, capsys)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = lambda r: {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "ratio")}
    assert counts(first) and counts(first) == counts(second)
    assert first_record["digest"] == second_record["digest"]
