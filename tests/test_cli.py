"""Command-line interface: exit codes, JSON output, input validation."""

import json
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from repcur import verify
from repcur.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def test_help(runner):
    assert invoke(runner, ["--help"]).exit_code == 0
    assert invoke(runner, ["verify", "--help"]).exit_code == 0


def test_json_schema(runner):
    res = invoke(runner, ["verify", "casimir", "-o", "-"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["version"] == 1
    assert payload["config"]["command"] == "casimir"
    for check in payload["checks"]:
        assert set(check) == {
            "check_name",
            "parameters",
            "status",
            "expected",
            "actual",
            "runtime_ms",
        }
        assert check["status"] == "pass"


def test_output_file(runner, tmp_path):
    out = tmp_path / "report.json"
    res = invoke(runner, ["verify", "span", "-o", str(out)])
    assert res.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["checks"][0]["check_name"] == "span_surjectivity"


def test_ad_invariance_command(runner):
    res = invoke(runner, ["verify", "ad-invariance", "--family", "sp", "-n", "1",
                          "-k", "2", "-o", "-"])
    assert res.exit_code == 0


def test_ad_invariance_command_emits_the_family_check(runner):
    # the Casimir and one family check, not one report per FFT tensor
    res = invoke(runner, ["verify", "ad-invariance", "--family", "sp", "-n", "1",
                          "-k", "3", "-o", "-"])
    assert res.exit_code == 0
    checks = json.loads(res.output)["checks"]
    assert [c["check_name"] for c in checks] == ["ad_invariance", "ad_invariance_family"]
    assert checks[1]["parameters"]["tensors"] == 384


def test_schur_weyl_command(runner):
    res = invoke(runner, ["verify", "schur-weyl", "-n", "2", "-k", "2",
                          "--points", "0,1/2", "--tau", "(1 2)", "-o", "-"])
    assert res.exit_code == 0


def test_cycle_generation_command(runner):
    res = invoke(runner, ["verify", "cycle-generation", "-o", "-"])
    assert res.exit_code == 0


def test_irreducibility_with_expect_fail(runner):
    args = ["verify", "irreducibility", "--points", "0,0,0", "-o", "-"]
    assert invoke(runner, args).exit_code == 1
    assert invoke(runner, args + ["--expect-fail"]).exit_code == 0


def test_irreducibility_command_emits_both_checks(runner):
    res = invoke(runner, ["verify", "irreducibility", "-o", "-"])
    assert res.exit_code == 0
    checks = json.loads(res.output)["checks"]
    assert [c["check_name"] for c in checks] == [
        "evaluation_irreducibility",
        "isotypic_irreducibility",
    ]
    assert invoke(runner, ["verify", "irreducibility", "--no-isotypic"]).exit_code == 2


@pytest.mark.parametrize(
    "command", ["casimir", "span", "commutant", "irreducibility", "ad-invariance"]
)
def test_so_commands_default_to_so3(runner, command):
    res = invoke(runner, ["verify", command, "--family", "so", "-o", "-"])
    assert res.exit_code == 0
    assert json.loads(res.output)["config"]["n"] == 3


def test_usage_errors_exit_2(runner):
    cases = [
        ["verify", "casimir", "--weights", "0,2"],  # not dominant
        ["verify", "casimir", "--points", "1,1"],  # repeated points
        ["verify", "casimir", "--points", "1,x"],  # malformed rational
        ["verify", "span", "--degree-cap", "frogs"],
        ["verify", "schur-weyl", "--tau", "5,9"],
        ["verify", "casimir", "--family", "so", "-n", "2"],  # so(2) is abelian
        ["verify", "commutant", "--polys", "0,x"],  # malformed coefficient
        ["verify", "casimir", "--polys", "0,1;"],  # empty coefficient
        ["verify", "span", "-n", "0"],  # no gl(0)
        ["verify", "span", "--family", "so", "-n", "2"],  # so(2) is abelian
        ["verify", "ad-invariance", "-k", "0"],  # no degree-0 tensor
        ["verify", "ad-invariance", "-k", "-1"],
    ]
    for args in cases:
        res = invoke(runner, args)
        assert res.exit_code == 2, args


def _documented_commands():
    """The `repcur verify` lines of the "Command line" block in README.md
    and PAPER.md, without `verify all`: the sweep tests cover that."""
    root = Path(__file__).resolve().parents[1]
    found = set()
    for name in ("README.md", "PAPER.md"):
        block = (root / name).read_text().split("## Command line", 1)[1]
        for line in block.split("```sh", 1)[1].split("```", 1)[0].splitlines():
            args = shlex.split(line, comments=True)
            if args[:2] == ["repcur", "verify"] and args[2] != "all":
                found.add(tuple(args[1:]))
    return sorted(found)


@pytest.mark.parametrize("args", _documented_commands(), ids=" ".join)
def test_documented_command_passes(runner, args):
    # the --expect-fail control exits 0 as well
    assert invoke(runner, list(args)).exit_code == 0


def test_library_fault_is_not_a_usage_error(runner, monkeypatch):
    def fault(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(verify, "check_span_surjectivity", fault)
    res = runner.invoke(main, ["verify", "span"])
    assert res.exit_code == 1
    assert isinstance(res.exception, RuntimeError)


def test_dimension_cap(runner, monkeypatch):
    monkeypatch.setenv("REPCUR_MAX_DIM", "5")
    for args in (["verify", "irreducibility"], ["verify", "schur-weyl"]):
        res = invoke(runner, args)
        assert res.exit_code == 2, args
        assert "REPCUR_MAX_DIM" in res.output, args


def test_quick_sweep(runner):
    res = invoke(runner, ["verify", "all", "--profile", "quick", "-o", "-"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    criteria = {c["parameters"]["criterion"] for c in payload["checks"]}
    assert {
        "ad_invariance",
        "commutant",
        "casimir_formula",
        "schur_weyl",
        "span_surjectivity",
        "isotypic_irreducibility",
        "cycle_generation",
        "evaluation_irreducibility",
    } <= criteria


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "casimir", "-n", "1"],
        ["verify", "irreducibility", "-n", "1", "--points", "0,1", "--weights", "2;1"],
    ],
    ids=["casimir", "irreducibility"],
)
def test_gl1_commands_pass(runner, args):
    # gl(1) has no raising operator: every weight vector is highest
    res = invoke(runner, args + ["-o", "-"])
    assert res.exit_code == 0
    assert all(c["status"] == "pass" for c in json.loads(res.output)["checks"])


def test_schur_weyl_composition_needs_two_factors(runner):
    res = invoke(runner, ["verify", "schur-weyl", "-k", "1"])
    assert res.exit_code == 2
    assert "at least two tensor factors" in res.output


def test_schur_weyl_points_must_match_k(runner):
    res = invoke(runner, ["verify", "schur-weyl", "-k", "3", "--points", "0,1"])
    assert res.exit_code == 2
    assert "factors: 3, points: 2" in res.output
