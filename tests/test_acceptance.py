"""Acceptance gate: one test per verified claim, all equalities exact.

The desk-profile sweep is run once per session and each criterion asserts
on its slice of the reports, with key dimension counts and eigenvalues
frozen inline so regressions surface as explicit value diffs.
"""

import dataclasses
import hashlib
import json

import pytest

from repcur.currents import EvaluationModule
from repcur.liealg import GL, SP, build_lie_algebra
from repcur.modules import build_irrep, standard_module
from repcur.rational import Q
from repcur.verify import check_span_surjectivity, run_acceptance_suite

from reference import casimir_eigenvalue


@pytest.fixture(scope="session")
def sweep():
    return run_acceptance_suite(seed=0, profile="desk")


def by_criterion(sweep, name):
    reports = [r for r in sweep if r.parameters["criterion"] == name]
    assert reports, f"no reports for criterion {name}"
    return reports


def test_criterion_1_ad_invariance(sweep):
    """Every FFT tensor (gl n<=3 k<=3, sp n=1 k<=2, so n<=4 k<=2) and the
    Casimir are ad-invariant; a non-invariant probe is rejected."""
    reports = by_criterion(sweep, "ad_invariance")
    assert all(r.passed for r in reports), [r.actual for r in reports if not r.passed]
    controls = [r for r in reports if r.check_name.endswith("_control")]
    assert len(controls) == 1 and controls[0].passed


def test_criterion_2_commutant(sweep):
    """Current operators of invariant tensors commute with the g-action."""
    reports = by_criterion(sweep, "commutant")
    assert all(r.passed for r in reports), [r.parameters for r in reports if not r.passed]


def test_criterion_3_casimir_formula(sweep):
    """Two-point Casimir currents act by the predicted exact scalars."""
    reports = by_criterion(sweep, "casimir_formula")
    assert all(r.passed for r in reports)
    # frozen spot values, independently recomputed
    gl2 = build_lie_algebra(GL, 2)
    assert casimir_eigenvalue(gl2, standard_module(gl2)) == Q(2)
    assert casimir_eigenvalue(gl2, build_irrep(gl2, (2, 0), 2)) == Q(6)
    sp2 = build_lie_algebra(SP, 1)
    assert casimir_eigenvalue(sp2, standard_module(sp2)) == Q(3, 2)
    assert casimir_eigenvalue(sp2, build_irrep(sp2, (2,), 2)) == Q(4)


def test_criterion_4_schur_weyl(sweep):
    """Transposition preimages equal place permutations, compose correctly,
    and work over rational (not just integer) evaluation points."""
    reports = by_criterion(sweep, "schur_weyl")
    assert all(r.passed for r in reports)
    assert any("7/3" in str(r.parameters.get("points")) for r in reports)
    assert any(r.check_name == "schur_weyl_composition" for r in reports)


def test_criterion_5_span_surjectivity(sweep):
    """FFT current images span the full commutant of the g-action."""
    reports = by_criterion(sweep, "span_surjectivity")
    assert all(r.passed for r in reports), [
        (r.parameters, r.expected, r.actual) for r in reports if not r.passed
    ]
    dims = {
        (r.parameters["family"], r.parameters["n"], r.parameters["d"]): int(r.actual)
        for r in reports
    }
    assert dims[(GL, 2, 2)] == 2
    assert dims[(GL, 2, 3)] == 5
    assert dims[(GL, 3, 3)] == 6
    assert dims[("sp", 1, 2)] == 2
    assert dims[("so", 3, 2)] == 3


def test_criterion_5_span_with_explicit_cap():
    """The auto degree cap d-1 is already enough (interpolation loses nothing):
    raising the cap does not enlarge the span."""
    gl2 = build_lie_algebra(GL, 2)
    v = standard_module(gl2)
    em = EvaluationModule([v, v], [Q(0), Q(1)])
    capped = check_span_surjectivity(em, degree_cap=1)
    raised = check_span_surjectivity(em, degree_cap=3)
    assert capped.passed and raised.passed
    assert capped.actual == raised.actual == "2"


def test_criterion_6_isotypic_irreducibility(sweep):
    """Restricted current images fill each multiplicity-space matrix algebra
    when points are distinct, and fail to at coincident points."""
    reports = by_criterion(sweep, "isotypic_irreducibility")
    assert all(r.passed for r in reports)
    controls = [r for r in reports if r.check_name.endswith("_control")]
    assert len(controls) == 1 and controls[0].passed
    cube = next(
        r for r in reports
        if r.parameters.get("family") == GL and "mu=(2, 1): 4" in r.actual
    )
    assert "mu=(3, 0): 1" in cube.actual


def test_criterion_7_cycle_generation(sweep):
    """Cycle currents alone generate the commutant algebra."""
    reports = by_criterion(sweep, "cycle_generation")
    assert all(r.passed for r in reports)
    three = next(r for r in reports if r.parameters["d"] == 3)
    assert three.actual == "5"


def test_criterion_8_evaluation_irreducibility(sweep):
    """Distinct points give an irreducible module over the current algebra;
    the coincident-point control is reducible."""
    reports = by_criterion(sweep, "evaluation_irreducibility")
    assert all(r.passed for r in reports)
    controls = [r for r in reports if r.check_name.endswith("_control")]
    assert len(controls) == 1 and controls[0].passed
    positives = [r for r in reports if not r.check_name.endswith("_control")]
    assert all(r.actual == "1" for r in positives)


def _stable(reports):
    out = []
    for r in reports:
        d = dataclasses.asdict(r)
        d.pop("runtime_ms")
        out.append(d)
    return json.dumps(out, default=str, sort_keys=True)


# sha256 of _stable(run_acceptance_suite(0, "quick")): whether an entry is
# held as an int or as a rational must not change any report
QUICK_DIGEST = "f31952657ee26d2181d8e9ff016e888eb527f7d727e1d676e1bf7b6a02e813de"


# sha256 of _stable(run_acceptance_suite(0, "desk")): unlike quick, desk
# covers gl(3), so(4) and the d = 3 spans
DESK_DIGEST = "8efed15aeb1de7fa86d770417cb2eba60b016a603aa5203af9a01cdcc8c4444b"


@pytest.fixture(scope="session")
def quick():
    return run_acceptance_suite(seed=0, profile="quick")


def test_criterion_9_determinism(quick):
    """Two runs with the same seed produce identical reports (runtime aside)."""
    b = run_acceptance_suite(seed=0, profile="quick")
    assert _stable(quick) == _stable(b)


def test_quick_sweep_matches_frozen_digest(quick):
    assert hashlib.sha256(_stable(quick).encode()).hexdigest() == QUICK_DIGEST


def test_desk_sweep_matches_frozen_digest(sweep):
    assert hashlib.sha256(_stable(sweep).encode()).hexdigest() == DESK_DIGEST


def test_full_sweep_is_all_green(sweep):
    failed = [r for r in sweep if not r.passed]
    assert not failed, [(r.check_name, r.parameters) for r in failed]
