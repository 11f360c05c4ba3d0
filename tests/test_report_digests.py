"""The order-sensitive sweep digests printed by tools/report_digests.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", _PATH)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def _printed_digests(capsys, profile):
    """The digests printed for seeds 0 and 3 under one profile.  The tests
    freeze them: they change with any report, its parameter order or the
    sweep order."""
    argv = ["report_digests.py", str(_PATH.parents[1]), "--profile", profile]
    assert report_digests.main(argv) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(seed, p) for seed, p, _ in lines] == [("0", profile), ("3", profile)]
    return [digest for _, _, digest in lines]


def test_prints_the_quick_digests(capsys):
    seed0, seed3 = _printed_digests(capsys, "quick")
    assert seed0.startswith("2bec28644d48aa57")
    assert seed3.startswith("0d792d8cb43f4b5a")


def test_prints_the_desk_digests(capsys):
    seed0, seed3 = _printed_digests(capsys, "desk")
    assert seed0.startswith("32872c1029777e4e")
    assert seed3.startswith("894f96c537d91d98")
