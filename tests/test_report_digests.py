"""The order-sensitive sweep digests printed by tools/report_digests.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", _PATH)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def test_prints_the_quick_digests(capsys):
    argv = ["report_digests.py", str(_PATH.parents[1]), "--profile", "quick"]
    assert report_digests.main(argv) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(seed, profile) for seed, profile, _ in lines] == [("0", "quick"), ("3", "quick")]
    # frozen: every report, its parameter order and the sweep order
    assert lines[0][2].startswith("2bec28644d48aa57")
    assert lines[1][2].startswith("0d792d8cb43f4b5a")
