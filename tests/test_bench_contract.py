"""The benchmark's tracer (perfbench/spans.py) patches repcur functions and
methods by name, and its observers read their arguments.  A rename or a
changed argument in the library must fail here, not only in the
benchmark."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import repcur  # noqa: F401  (loads every repcur module the tracer patches)
from repcur import liealg, modules, verify

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a repcur module, keyed by (module, name)."""
    return {
        (name, k): v
        for name, m in list(sys.modules.items())
        if name == "repcur" or name.startswith("repcur.")
        for k, v in vars(m).items()
    }


def test_traced_names_resolve_and_are_restored():
    spans = _load_spans()
    functions = {
        (modname, attr): getattr(importlib.import_module(modname), attr, None)
        for modname, attrs in spans.FUNCTIONS.items()
        for attr in attrs
    }
    missing = [f"{m}.{a}" for (m, a), fn in functions.items() if not callable(fn)]
    missing += [f"{cls.__name__}.{attr}" for cls, attr, _ in spans.METHODS if attr not in vars(cls)]
    assert not missing, missing
    methods = {(cls, attr): vars(cls)[attr] for cls, attr, _ in spans.METHODS}
    before = _bindings()

    with spans.Tracer():
        for (modname, attr), fn in functions.items():
            assert getattr(sys.modules[modname], attr) is not fn, f"{modname}.{attr} not traced"
        for (cls, attr), fn in methods.items():
            assert vars(cls)[attr] is not fn, f"{cls.__name__}.{attr} not traced"

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, v in before.items() if after[key] is not v] == []
    assert [key for key, fn in methods.items() if vars(key[0])[key[1]] is not fn] == []


def _traced_run():
    """The quick sweep's reports, without ``runtime_ms``, and one irrep.
    Library functions are called through their modules, where the tracer
    replaces them."""
    reports = [dataclasses.asdict(r) for r in verify.run_acceptance_suite(0, "quick")]
    for r in reports:
        r.pop("runtime_ms")
    irrep = modules.build_irrep(liealg.build_lie_algebra(liealg.GL, 2), (2, 1), 3)
    return reports, (irrep.dim, irrep.actions)


def test_traced_run_matches_untraced_and_calls_every_layer():
    spans = _load_spans()
    untraced = _traced_run()
    with spans.Tracer() as tracer:
        traced = _traced_run()
    assert traced == untraced
    calls, _ = tracer.layer_stats()
    assert [name for name in spans.span_names() if not calls[name]] == []
    assert tracer.rref_max_cells > 0 and tracer.span_kept > 0 and tracer.basis_distinct > 0
