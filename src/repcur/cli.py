"""Command-line front end: run any verification check and emit JSON.

Exit status is 0 when every requested check passes, 1 when any fails, and
2 when the input is rejected.  An --output path that cannot be opened
for writing is rejected before any check runs.  The parsers here only
split the option strings; the library validates the input once, and
every ValueError raised while a command parses its options or runs (a
malformed or empty number, repeated points, wrong point, weight or
polynomial counts, weights that are not dominant, a carrier over the
REPCUR_MAX_DIM cap) becomes a usage error.  A library fault is a
RuntimeError and keeps its traceback.  --expect-fail inverts the 0/1
outcome for negative controls.  All numeric output is exact; rationals
are rendered as "a/b" strings.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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
    return [parse_rat(tok) for tok in text.split(",")]


def parse_polys(text: str):
    """Coefficient lists (ascending), one per slot, ';'-separated: "0,1;1,1"."""
    return [Poly(parse_rat(tok) for tok in chunk.split(",")) for chunk in text.split(";")]


def parse_weights(text: str):
    """Semicolon-separated weights, each a comma list: "2,0;1,0"."""
    return [tuple(int(tok) for tok in chunk.split(",")) for chunk in text.split(";")]


def parse_transposition(text: str):
    """Either "r,s" or cycle notation "(r s)", as a sorted tuple."""
    return tuple(sorted(int(tok) for tok in text.strip("() ").replace(",", " ").split()))


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


def _rank(ctx, param, n):
    """-n as given, else the smallest n the family's checks accept: 3 for so,
    whose so(2) is abelian, and 2 otherwise.  --family is declared first, so
    it is parsed before a defaulted -n."""
    if n is not None:
        return n
    return 3 if ctx.params["family"] == SO else 2


def _family_options(f):
    """--family, and -n, which ``_rank`` resolves when it is not given."""
    f = click.option(
        "-n", "n", type=int, default=None, callback=_rank,
        help="The n of gl(n), sp(2n) or so(n).  [default: 3 for so, else 2]",
    )(f)
    return click.option(
        "--family",
        type=click.Choice(FAMILIES),
        default=GL,
        show_default=True,
        help="Lie algebra family.",
    )(f)


# "auto" is None to the checks, which resolve it to their default
# (``verify._default_cap``) and report the cap they used
_degree_cap = click.option(
    "--degree-cap", default="auto", show_default=True,
    callback=lambda ctx, param, cap: None if cap == "auto" else int(cap),
)


def _reports(body):
    """Turn a check body, which takes its own options and returns its
    CheckReports, into a command that writes them as JSON to --output and
    exits 0 if every check passed, 1 otherwise (the other way round with
    --expect-fail).  The config is the command's name and its options in
    declaration order, with the degree cap the checks report."""

    @click.option("--expect-fail", is_flag=True,
                  help="Invert the exit status (for negative controls).")
    # opened while the options are parsed: a path that cannot be written is
    # a usage error before any check runs
    @click.option("--output", "-o", type=click.File("w", lazy=False), default="-",
                  help="Write JSON here ('-' = stdout).")
    @click.pass_context
    @functools.wraps(body)
    def command(ctx, output, expect_fail, **options):
        reports = body(**options)
        config = {"command": ctx.command.name}
        config.update((p.name, options[p.name]) for p in ctx.command.params if p.name in options)
        if "degree_cap" in config:
            config["degree_cap"] = reports[-1].parameters["degree_cap"]
        payload = {
            "version": 1,
            "config": config,
            "checks": [dataclasses.asdict(r) for r in reports],
        }
        click.echo(json.dumps(payload, indent=2, default=str), file=output)
        sys.exit(0 if all(r.passed for r in reports) != expect_fail else 1)

    return command


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
@_reports
def ad_invariance_cmd(family, n, degree):
    """Adjoint invariance of the Casimir tensor and of every FFT tensor of
    the given degree (one family check)."""
    spec = build_lie_algebra(family, n)
    return [
        verify.check_ad_invariance(casimir_tensor(spec), spec),
        verify.check_ad_invariance_family(spec, degree),
    ]


@verify_group.command("commutant")
@_family_options
@click.option("--points", default="0,1", show_default=True)
@click.option("--polys", default="0,1;1,1", show_default=True,
              help="Coefficient lists (ascending), ';'-separated per slot.")
@_reports
def commutant_cmd(family, n, points, polys):
    """The Casimir current commutes with the algebra action."""
    em = _build_module(family, n, parse_points(points))
    return [verify.check_commutant(casimir_tensor(em.spec), parse_polys(polys), em)]


@verify_group.command("casimir")
@_family_options
@click.option("--weights", default=None, help='E.g. "2,0;1,0"; default: standard twice.')
@click.option("--points", default="0,1", show_default=True)
@click.option("--polys", default="0,1;1,1", show_default=True)
@_reports
def casimir_cmd(family, n, weights, points, polys):
    """Two-point Casimir eigenvalues on each isotypic component."""
    em = _build_module(family, n, parse_points(points), weights)
    ps = parse_polys(polys)
    if len(ps) != 2:
        raise ValueError(f"the casimir check takes exactly two polynomials, got {len(ps)}")
    return [verify.check_casimir_formula(em, *ps)]


@verify_group.command("schur-weyl")
@click.option("-n", "n", type=int, default=2, show_default=True)
@click.option("-k", "k", type=int, default=3, show_default=True)
@click.option("--points", default=None, help="Defaults to 0,1,...,k-1.")
@click.option("--tau", default=None, help='Transposition "r,s" or "(r s)"; default: all.')
@_reports
def schur_weyl_cmd(n, k, points, tau):
    """Transposition preimages act as place permutations (gl only)."""
    pts = list(range(k)) if points is None else parse_points(points)
    em = EvaluationModule([standard_module(build_lie_algebra(GL, n))] * k, pts)
    if tau is not None:
        return [verify.check_schur_weyl(parse_transposition(tau), em)]
    pairs = itertools.combinations(range(1, k + 1), 2)
    return [verify.check_schur_weyl(tau, em) for tau in pairs] + [
        verify.check_schur_weyl_composition(em)
    ]


@verify_group.command("span")
@_family_options
@click.option("--points", default="0,1", show_default=True)
@_degree_cap
@_reports
def span_cmd(family, n, points, degree_cap):
    """Current images generate the commutant of the algebra action."""
    em = _build_module(family, n, parse_points(points))
    return [verify.check_span_surjectivity(em, degree_cap=degree_cap)]


@verify_group.command("irreducibility")
@_family_options
@click.option("--points", default="0,1,2", show_default=True)
@click.option("--weights", default=None, help="Defaults to the standard module per point.")
@_degree_cap
@_reports
def irreducibility_cmd(family, n, points, weights, degree_cap):
    """Evaluation-module irreducibility over the current algebra, and the
    per-component Burnside check."""
    em = _build_module(family, n, parse_points(points), weights)
    return [
        verify.check_evaluation_irreducibility(em, degree_cap=degree_cap),
        verify.check_isotypic_irreducibility(em, degree_cap=degree_cap),
    ]


@verify_group.command("cycle-generation")
@click.option("-n", "n", type=int, default=2, show_default=True)
@click.option("--points", default="0,1", show_default=True)
@_degree_cap
@_reports
def cycle_generation_cmd(n, points, degree_cap):
    """Cycle currents alone generate the commutant algebra (gl only)."""
    em = _build_module(GL, n, parse_points(points))
    return [verify.check_cycle_generation(em, degree_cap=degree_cap)]


@verify_group.command("all")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--profile", type=click.Choice(["desk", "quick"]), default="desk",
              show_default=True)
@_reports
def all_cmd(seed, profile):
    """The full acceptance sweep across families, sizes and controls."""
    return verify.run_acceptance_suite(seed=seed, profile=profile)


if __name__ == "__main__":
    main()
