"""Command-line front end: run any verification check and emit JSON.

Exit status is 0 when every requested check passes, 1 when any fails, and
2 when the input is rejected.  An --output path that cannot be opened
for writing is rejected before any check runs.  The parsers here only
split the option strings; the library validates the input once, and
every ValueError raised while a command runs (a malformed number,
repeated points, wrong point, weight or polynomial counts, weights that
are not dominant, a carrier over the REPCUR_MAX_DIM cap) becomes a usage
error.  A library fault is a RuntimeError and keeps its traceback.
--expect-fail inverts the 0/1 outcome for negative controls.  All numeric
output is exact; rationals are rendered as "a/b" strings.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from . import verify
from .currents import EvaluationModule
from .invariants import casimir_tensor
from .liealg import FAMILIES, GL, SO, build_lie_algebra
from .modules import build_irrep, standard_module
from .poly import Poly
from .rational import parse_rat


def parse_points(text: str):
    """Comma-separated rationals, e.g. "0,1,3/2"."""
    return [parse_rat(tok) for tok in text.split(",") if tok.strip()]


def parse_polys(text: str):
    """Coefficient lists (ascending), one per slot, ';'-separated: "0,1;1,1"."""
    return [Poly(parse_rat(tok) for tok in chunk.split(",")) for chunk in text.split(";")]


def parse_weights(text: str):
    """Semicolon-separated weights, each a comma list: "2,0;1,0"."""
    return [
        tuple(int(tok) for tok in chunk.split(","))
        for chunk in text.split(";")
        if chunk.strip()
    ]


def parse_transposition(text: str):
    """Either "r,s" or cycle notation "(r s)", as a sorted tuple."""
    return tuple(sorted(int(tok) for tok in text.strip("() ").replace(",", " ").split()))


def _cap(degree_cap: str):
    """--degree-cap as the checks take it: None for "auto", which they
    resolve to their default (``verify._default_cap``)."""
    return None if degree_cap == "auto" else int(degree_cap)


def _build_module(family: str, n: int, points, weights=None) -> EvaluationModule:
    """The evaluation module at the points; its factors are the irreps of the
    ';'-separated weights, or the standard module at every point."""
    std = standard_module(build_lie_algebra(family, n))
    lams = [std.highest_weight] * len(points) if weights is None else parse_weights(weights)
    factors = [
        std if lam == std.highest_weight else build_irrep(std.spec, lam, sum(map(abs, lam)))
        for lam in lams
    ]
    return EvaluationModule(factors, points)


def _emit(reports, config, output, expect_fail: bool):
    """Write the JSON report and exit 0 if every check passed, 1 otherwise
    (the other way round with --expect-fail)."""
    payload = {
        "version": 1,
        "config": config,
        "checks": [dataclasses.asdict(r) for r in reports],
    }
    click.echo(json.dumps(payload, indent=2, default=str), file=output)
    sys.exit(0 if all(r.passed for r in reports) != expect_fail else 1)


def _family_options(f):
    """--family, and -n, which ``_rank`` resolves when it is not given."""
    f = click.option(
        "-n", "n", type=int, default=None,
        help="The n of gl(n), sp(2n) or so(n).  [default: 3 for so, else 2]",
    )(f)
    return click.option(
        "--family",
        type=click.Choice(FAMILIES),
        default=GL,
        show_default=True,
        help="Lie algebra family.",
    )(f)


def _rank(family: str, n):
    """-n as given, else the smallest n the family's checks accept: 3 for so,
    whose so(2) is abelian, and 2 otherwise."""
    if n is not None:
        return n
    return 3 if family == SO else 2


_common = [
    # opened while the options are parsed: a path that cannot be written is
    # a usage error before any check runs
    click.option("--output", "-o", type=click.File("w", lazy=False), default="-",
                 help="Write JSON here ('-' = stdout)."),
    click.option(
        "--expect-fail",
        is_flag=True,
        help="Invert the exit status (for negative controls).",
    ),
]


def _with_common(f):
    for opt in _common:
        f = opt(f)
    return f


class _VerifyGroup(click.Group):
    """Check commands: a ValueError from the library is a usage error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group()
def main():
    """Exact verification of current-algebra evaluation modules."""


@main.group("verify", cls=_VerifyGroup)
def verify_group():
    """Run a verification check."""


@verify_group.command("ad-invariance")
@_family_options
@click.option("--degree", "-k", type=int, default=2, show_default=True)
@_with_common
def ad_invariance_cmd(family, n, degree, output, expect_fail):
    """Adjoint invariance of the Casimir tensor and of every FFT tensor of
    the given degree (one family check)."""
    n = _rank(family, n)
    spec = build_lie_algebra(family, n)
    reports = [
        verify.check_ad_invariance(casimir_tensor(spec), spec),
        verify.check_ad_invariance_family(spec, degree),
    ]
    _emit(reports, {"command": "ad-invariance", "family": family, "n": n,
                    "degree": degree}, output, expect_fail)


@verify_group.command("commutant")
@_family_options
@click.option("--points", default="0,1", show_default=True)
@click.option("--polys", default="0,1;1,1", show_default=True,
              help="Coefficient lists (ascending), ';'-separated per slot.")
@_with_common
def commutant_cmd(family, n, points, polys, output, expect_fail):
    """The Casimir current commutes with the algebra action."""
    n = _rank(family, n)
    em = _build_module(family, n, parse_points(points))
    reports = [verify.check_commutant(casimir_tensor(em.spec), parse_polys(polys), em)]
    _emit(reports, {"command": "commutant", "family": family, "n": n,
                    "points": points, "polys": polys}, output, expect_fail)


@verify_group.command("casimir")
@_family_options
@click.option("--weights", default=None, help='E.g. "2,0;1,0"; default: standard twice.')
@click.option("--points", default="0,1", show_default=True)
@click.option("--polys", default="0,1;1,1", show_default=True)
@_with_common
def casimir_cmd(family, n, weights, points, polys, output, expect_fail):
    """Two-point Casimir eigenvalues on each isotypic component."""
    n = _rank(family, n)
    em = _build_module(family, n, parse_points(points), weights)
    ps = parse_polys(polys)
    if len(ps) != 2:
        raise ValueError(f"the casimir check takes exactly two polynomials, got {len(ps)}")
    reports = [verify.check_casimir_formula(em, *ps)]
    _emit(reports, {"command": "casimir", "family": family, "n": n, "weights": weights,
                    "points": points, "polys": polys}, output, expect_fail)


@verify_group.command("schur-weyl")
@click.option("-n", "n", type=int, default=2, show_default=True)
@click.option("-k", "k", type=int, default=3, show_default=True)
@click.option("--points", default=None, help="Defaults to 0,1,...,k-1.")
@click.option("--tau", default=None, help='Transposition "r,s" or "(r s)"; default: all.')
@_with_common
def schur_weyl_cmd(n, k, points, tau, output, expect_fail):
    """Transposition preimages act as place permutations (gl only)."""
    pts = parse_points(points) if points else list(range(k))
    em = EvaluationModule([standard_module(build_lie_algebra(GL, n))] * k, pts)
    if tau is not None:
        reports = [verify.check_schur_weyl(parse_transposition(tau), em)]
    else:
        reports = [
            verify.check_schur_weyl((r, s), em)
            for r in range(1, k + 1)
            for s in range(r + 1, k + 1)
        ]
        reports.append(verify.check_schur_weyl_composition(em))
    _emit(reports, {"command": "schur-weyl", "n": n, "k": k,
                    "points": points, "tau": tau}, output, expect_fail)


@verify_group.command("span")
@_family_options
@click.option("--points", default="0,1", show_default=True)
@click.option("--degree-cap", default="auto", show_default=True)
@_with_common
def span_cmd(family, n, points, degree_cap, output, expect_fail):
    """Current images generate the commutant of the algebra action."""
    n = _rank(family, n)
    em = _build_module(family, n, parse_points(points))
    reports = [verify.check_span_surjectivity(em, degree_cap=_cap(degree_cap))]
    _emit(reports, {"command": "span", "family": family, "n": n, "points": points,
                    "degree_cap": reports[0].parameters["degree_cap"]}, output, expect_fail)


@verify_group.command("irreducibility")
@_family_options
@click.option("--points", default="0,1,2", show_default=True)
@click.option("--weights", default=None, help="Defaults to the standard module per point.")
@click.option("--degree-cap", default="auto", show_default=True)
@_with_common
def irreducibility_cmd(family, n, points, weights, degree_cap, output, expect_fail):
    """Evaluation-module irreducibility over the current algebra, and the
    per-component Burnside check."""
    n = _rank(family, n)
    em = _build_module(family, n, parse_points(points), weights)
    cap = _cap(degree_cap)
    reports = [
        verify.check_evaluation_irreducibility(em, degree_cap=cap),
        verify.check_isotypic_irreducibility(em, degree_cap=cap),
    ]
    _emit(reports, {"command": "irreducibility", "family": family, "n": n,
                    "points": points, "weights": weights,
                    "degree_cap": reports[1].parameters["degree_cap"]}, output, expect_fail)


@verify_group.command("cycle-generation")
@click.option("-n", "n", type=int, default=2, show_default=True)
@click.option("--points", default="0,1", show_default=True)
@click.option("--degree-cap", default="auto", show_default=True)
@_with_common
def cycle_generation_cmd(n, points, degree_cap, output, expect_fail):
    """Cycle currents alone generate the commutant algebra (gl only)."""
    em = _build_module(GL, n, parse_points(points))
    reports = [verify.check_cycle_generation(em, degree_cap=_cap(degree_cap))]
    _emit(reports, {"command": "cycle-generation", "n": n, "points": points,
                    "degree_cap": reports[0].parameters["degree_cap"]}, output, expect_fail)


@verify_group.command("all")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--profile", type=click.Choice(["desk", "quick"]), default="desk",
              show_default=True)
@_with_common
def all_cmd(seed, profile, output, expect_fail):
    """The full acceptance sweep across families, sizes and controls."""
    reports = verify.run_acceptance_suite(seed=seed, profile=profile)
    _emit(reports, {"command": "all", "seed": seed, "profile": profile}, output, expect_fail)


if __name__ == "__main__":
    main()
