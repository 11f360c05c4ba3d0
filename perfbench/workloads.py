"""The benchmark's workloads: seeded inputs, one round of checks, and the gate.

A workload is built once by ``setup(seed)`` (the Lie algebras and standard
modules it uses) and then run by ``run_round(state)`` any number of times.
Each round builds its evaluation modules afresh, so no round reuses the
image caches of an earlier one, and checks run one after another, each
starting when the previous verdict has returned: a closed loop with one
caller, as ``repcur verify all`` runs them.

Every result is compared with a value computed here (see ``oracle``),
never with one taken from the library under test.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass

# traced functions are called through their module, where spans.Tracer patches them
from repcur import liealg, modules, verify
from repcur.currents import EvaluationModule
from repcur.liealg import GL, SO, SP
from repcur.modules import standard_module
from repcur.rational import Q

import oracle

CRITERIA = (
    "ad_invariance",
    "commutant",
    "casimir_formula",
    "schur_weyl",
    "span_surjectivity",
    "isotypic_irreducibility",
    "cycle_generation",
    "evaluation_irreducibility",
)


@dataclass
class Verdict:
    """One check's deterministic content, when it ran and whether it was right."""

    criterion: str
    content: dict
    start: float  # time.perf_counter() at the call
    end: float  # and at its verdict
    ok: bool


def report_content(report) -> dict:
    """Every CheckReport field except runtime_ms."""
    return {
        "check_name": report.check_name,
        "parameters": report.parameters,
        "status": report.status,
        "expected": report.expected,
        "actual": report.actual,
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, t0, time.perf_counter()


def _closure_dims(text: str) -> dict:
    """Parse 'mu=(2, 1): 4; mu=(3, 0): 1' into {(2, 1): 4, (3, 0): 1}."""
    return {
        tuple(int(c) for c in mu.replace(" ", "").split(",") if c): int(dim)
        for mu, dim in re.findall(r"mu=\(([^)]*)\): (\d+)", text)
    }


def _points(rng: random.Random, d: int) -> list:
    """1..d in a seeded order.  The seed moves each point to another tensor
    factor but keeps the numbers, and so the cost: seeded signs, or points
    drawn from a pool, moved the cost of a round by up to 15% between seeds."""
    return [Q(m) for m in rng.sample(range(1, d + 1), d)]


# -- desk: the full `repcur verify all` sweep --------------------------------


def _desk_setup(seed: int) -> dict:
    specs = [
        liealg.build_lie_algebra(GL, 2),
        liealg.build_lie_algebra(SP, 1),
        liealg.build_lie_algebra(SO, 3),
        liealg.build_lie_algebra(GL, 3),
        liealg.build_lie_algebra(SO, 4),
    ]
    return {"seed": seed, "modules": [standard_module(s) for s in specs]}


# Isotypic reports of the desk sweep, keyed by (family, n, points) and then
# by their order of appearance: the tensor factors and the start shape.
_DESK_ISOTYPIC = {
    (GL, 2, ("0", "1", "2")): [(GL, 2, 3, ()), (GL, 2, 2, (2,))],
    (SP, 1, ("0", "1")): [(SP, 1, 2, ())],
}


def _desk_gate(reports) -> list:
    """Every report passes, and every seed-independent dimension matches."""
    seen: dict = {}
    oks = []
    for r in reports:
        p = r.parameters
        ok = r.passed
        if r.check_name in ("span_surjectivity", "cycle_generation"):
            want = str(oracle.commutant_dim(p.get("family", GL), p["n"], p["d"]))
            ok = ok and r.expected == want and r.actual == want
        elif r.check_name == "evaluation_irreducibility":
            ok = ok and r.actual == "1"
        elif r.check_name == "isotypic_irreducibility":
            key = (p["family"], p["n"], tuple(p["points"]))
            i = seen[key] = seen.get(key, -1) + 1
            cases = _DESK_ISOTYPIC.get(key, [])
            if i < len(cases):
                fam, n, steps, start = cases[i]
                ok = ok and _closure_dims(r.actual) == oracle.closure_dims(
                    fam, n, steps, start
                )
        oks.append(ok)
    return oks


def _clear_casimir_cache():
    """Empty casimir_scalar's process-wide cache, if it has one, so that
    every sweep starts cold as `repcur verify all` does."""
    for default in getattr(getattr(verify, "casimir_scalar", None), "__defaults__", None) or ():
        if isinstance(default, dict):
            default.clear()


def _desk_round(state: dict) -> list:
    _clear_casimir_cache()
    t = time.perf_counter()
    reports = verify.run_acceptance_suite(state["seed"], "desk")
    out = []
    # the sweep runs its checks back to back, so each one's interval is
    # placed after the previous one's; the code between checks is not timed
    for r, ok in zip(reports, _desk_gate(reports)):
        end = t + r.runtime_ms / 1000
        out.append(Verdict(r.parameters["criterion"], report_content(r), t, end, ok))
        t = end
    return out


# -- commutant: evaluation irreducibility and commutant dimensions -----------


def _commutant_setup(seed: int) -> dict:
    rng = random.Random(f"commutant/{seed}")
    gl2, gl3 = liealg.build_lie_algebra(GL, 2), liealg.build_lie_algebra(GL, 3)
    so3, sp2 = liealg.build_lie_algebra(SO, 3), liealg.build_lie_algebra(SP, 2)
    V = {s: standard_module(s) for s in (gl2, gl3, so3, sp2)}
    return {
        "irreducible": [
            (V[gl3], 3, _points(rng, 3)),
            (V[so3], 2, _points(rng, 2)),
            (V[gl2], 4, _points(rng, 4)),
            (V[sp2], 2, _points(rng, 2)),
        ],
        "coincident": (V[gl2], 3, _points(rng, 1) * 3),
        "dimension": [(V[gl3], 3), (V[gl2], 4)],
    }


def _check(fn, em, status: str, actual) -> Verdict:
    """Run one check; right when its status and actual value are as predicted."""
    r, t0, t1 = _timed(fn, em)
    return Verdict(r.check_name, report_content(r), t0, t1, r.status == status and actual(r.actual))


def _commutant_round(state: dict) -> list:
    out = [
        _check(verify.check_evaluation_irreducibility, EvaluationModule([V] * d, pts),
               "pass", lambda a: a == "1")
        for V, d, pts in state["irreducible"]
    ]
    V, d, pts = state["coincident"]
    # at one point g[t] acts through g, so the commutant is the g-commutant
    want = str(oracle.commutant_dim(V.spec.family, V.spec.n, d))
    out.append(_check(verify.check_evaluation_irreducibility, EvaluationModule([V] * d, pts),
                      "fail", lambda a: a == want))
    for V, d in state["dimension"]:
        got, t0, t1 = _timed(modules.commutant_dimension, modules.tensor_module([V] * d))
        content = {"check_name": "commutant_dimension", "family": V.spec.family,
                   "n": V.spec.n, "d": d, "actual": got}
        want = oracle.commutant_dim(V.spec.family, V.spec.n, d)
        out.append(Verdict("commutant_dimension", content, t0, t1, got == want))
    return out


# -- closure: matrix-algebra closure under the Burnside and cycle checks -----


def _closure_setup(seed: int) -> dict:
    rng = random.Random(f"closure/{seed}")
    V2 = standard_module(liealg.build_lie_algebra(GL, 2))
    V1 = standard_module(liealg.build_lie_algebra(SP, 1))
    return {
        "cycle": (V2, 4, _points(rng, 4)),
        "isotypic": [(V2, 3, _points(rng, 3)), (V1, 3, _points(rng, 3))],
        "coincident": (V2, 3, _points(rng, 1) * 3),
    }


def _closure_round(state: dict) -> list:
    V, d, pts = state["cycle"]
    want = str(oracle.commutant_dim(GL, V.spec.n, d))
    out = [
        _check(verify.check_cycle_generation, EvaluationModule([V] * d, pts),
               "pass", lambda a: a == want)
    ]
    for V, d, pts in state["isotypic"]:
        dims = oracle.closure_dims(V.spec.family, V.spec.n, d)
        out.append(_check(verify.check_isotypic_irreducibility, EvaluationModule([V] * d, pts),
                          "pass", lambda a: _closure_dims(a) == dims))
    V, d, pts = state["coincident"]
    # at one point every current acts through U(g): a scalar on each multiplicity space
    ones = {mu: 1 for mu in oracle.closure_dims(V.spec.family, V.spec.n, d)}
    out.append(_check(verify.check_isotypic_irreducibility, EvaluationModule([V] * d, pts),
                      "fail", lambda a: _closure_dims(a) == ones))
    return out


@dataclass(frozen=True)
class Workload:
    setup: object
    run_round: object


WORKLOADS = {
    "desk": Workload(_desk_setup, _desk_round),
    "commutant": Workload(_commutant_setup, _commutant_round),
    "closure": Workload(_closure_setup, _closure_round),
}
