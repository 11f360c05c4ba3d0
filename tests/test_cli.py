"""Command-line interface: exit codes, JSON output, input validation."""

import hashlib
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


# Each payload's sha256 (first 16 hex digits), re-serialised with every
# runtime_ms set to 0, and the exit code.  The digest covers the config's
# key order and every byte of the reports.
_GOLDEN = [
    ("ad-invariance", 0, "34174e84bde77a77"),
    ("commutant", 0, "bdf131d2919f4846"),
    ("casimir", 0, "0d59c28af91377a8"),
    ("span", 0, "f95f270b7904346d"),
    ("irreducibility", 0, "4d8ccf520e2271fd"),
    ("schur-weyl", 0, "86e0ff54eafe028b"),
    ("cycle-generation", 0, "82b683ce2b4d5dc8"),
    ("all", 0, "c263238329e7b1c5"),
    ("ad-invariance --family so", 0, "4159f5f4c0938f3a"),
    ("commutant --family so", 0, "6dfe9c225da0240a"),
    ("casimir --family so", 0, "b74f1a6ab6b1493d"),
    ("span --family so", 0, "ae77f2d4e72046e3"),
    ("irreducibility --family so", 0, "5a051464b5a42bcc"),
    ("ad-invariance -n 3 --family gl", 0, "ac1654bade7d1fd8"),
    ("commutant -n 3 --family gl", 0, "824096d7ec0cded1"),
    ("casimir -n 3 --family gl", 0, "a9a4be3a81b19bd8"),
    ("span -n 3 --family gl", 0, "f235c4936f4bd496"),
    ("irreducibility -n 3 --family gl", 0, "90947eb11a40842c"),
    ("ad-invariance --family so -n 3", 0, "4159f5f4c0938f3a"),
    ("commutant --family so -n 3", 0, "6dfe9c225da0240a"),
    ("casimir --family so -n 3", 0, "b74f1a6ab6b1493d"),
    ("span --family so -n 3", 0, "ae77f2d4e72046e3"),
    ("irreducibility --family so -n 3", 0, "5a051464b5a42bcc"),
    ("span --points 0,1,2 --degree-cap 0", 1, "e05b6f1161afea7b"),
    ("irreducibility --points 0,0,0 --expect-fail", 0, "c2ed1ae5508a273a"),
    ("irreducibility -n 1 --points 0,1 --weights '2;1'", 0, "1798b01f2203dbe1"),
    ("casimir --weights '2,0;1,0'", 0, "61aabf56b6d86f85"),
    ("casimir --family so -n 4 --weights '1,-1;1,0'", 0, "ed65b5df742b2f70"),
    ("schur-weyl -k 3 --points 0,1/2,7/3 --tau '(1 3)'", 0, "b5a4a5fe1b520f10"),
    ("cycle-generation --points 0,1,2 --degree-cap 1", 0, "0b357cdd3f358e94"),
    ("all --profile quick", 0, "bb91b4c745ca2265"),
]


@pytest.mark.parametrize("args,code,digest", _GOLDEN, ids=[a for a, _, _ in _GOLDEN])
def test_golden_payload(runner, args, code, digest):
    res = invoke(runner, ["verify", *shlex.split(args)])
    assert res.exit_code == code
    payload = json.loads(res.output)
    for check in payload["checks"]:
        check["runtime_ms"] = 0
    text = json.dumps(payload, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_output_file(runner, tmp_path):
    out = tmp_path / "report.json"
    res = invoke(runner, ["verify", "span", "-o", str(out)])
    assert res.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["checks"][0]["check_name"] == "span_surjectivity"


def test_unwritable_output_is_a_usage_error_before_any_check(runner, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "check_commutant", lambda *args: ran.append(args))
    out = tmp_path / "missing" / "out.json"
    res = invoke(runner, ["verify", "commutant", "--output", str(out)])
    assert res.exit_code == 2
    assert "--output" in res.output
    assert ran == [] and not out.parent.exists()


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
    assert checks[1]["parameters"]["tensors"] == 1


def test_ad_invariance_command_reaches_degree_five(runner):
    # one tensor per sp cover: 22 in degree 5
    res = invoke(runner, ["verify", "ad-invariance", "--family", "sp", "-n", "1",
                          "-k", "5", "-o", "-"])
    assert res.exit_code == 0
    checks = json.loads(res.output)["checks"]
    assert checks[1]["status"] == "pass"
    assert checks[1]["parameters"]["tensors"] == 22


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


@pytest.mark.parametrize(
    "args,d",
    [
        (["span", "--points", "0,1,2"], 3),
        (["irreducibility", "--points", "0,1"], 2),
        (["cycle-generation", "--points", "0,1,2"], 3),
    ],
    ids=["span", "irreducibility", "cycle-generation"],
)
def test_auto_degree_cap_is_d_minus_1(runner, args, d):
    res = invoke(runner, ["verify", *args, "--degree-cap", "auto", "-o", "-"])
    assert res.exit_code == 0
    assert json.loads(res.output)["config"]["degree_cap"] == d - 1


def test_a_huge_degree_cap_gives_the_auto_result(runner):
    """Caps past d − 1 give the slot basis of d − 1, so a cap of 10**6
    costs no more than auto; the config keeps the cap asked for."""
    args = ["verify", "span", "--points", "0,1,7/3", "-o", "-"]
    auto = json.loads(invoke(runner, args).output)
    res = invoke(runner, args + ["--degree-cap", str(10**6)])
    assert res.exit_code == 0
    huge = json.loads(res.output)
    assert huge["config"]["degree_cap"] == 10**6
    assert [c["actual"] for c in huge["checks"]] == [c["actual"] for c in auto["checks"]]


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
        ["verify", "span", "--points", "0,,1"],  # empty point
        ["verify", "span", "--points", "0,1,"],
        ["verify", "schur-weyl", "--points", ""],
        ["verify", "casimir", "--weights", "1,0;;1,0"],  # empty weight
        ["verify", "casimir", "--weights", "1,0;1,"],  # empty coordinate
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
