"""The benchmark's tracer (perfbench/spans.py) patches repcur functions and
methods by name.  A rename in the library must fail here, not only in the
benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

import repcur  # noqa: F401  (loads every repcur module the tracer patches)

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
