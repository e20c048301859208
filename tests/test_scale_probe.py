"""``tools/scale_probe.py`` runs end to end at a small scale.

Nothing else runs the probe, so without this a rename under it (the L2
tier losing ``clear()``) breaks every run and nobody sees it until the
next paper-scale measurement.
"""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "scale_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("scale_probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_prints_every_section(capsys):
    probe = load_probe()
    status = probe.main(
        ["--sensors", "3000", "--shards", "2", "--viewports", "20", "--trace"]
    )
    assert status == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sensors 3000  shards 2  viewports 20"
    assert re.fullmatch(r"build \d+\.\d s  serve \d+\.\d s", lines[1])
    assert lines[2].startswith("peak RSS ")
    assert lines[3] == "traced growth by file (MB):"
    grown = [line for line in lines[4:] if line.startswith("  ")]
    assert grown and all(re.fullmatch(r"\s+[+-]\d+\.\d  \S.*", g) for g in grown)
    tiles, plans = lines[4 + len(grown) :]
    assert re.fullmatch(r"L2 tiles [1-9]\d* \([\d,]+ B each\)", tiles), tiles
    assert re.fullmatch(r"plans [1-9]\d* \([\d,]+ B each\)", plans), plans
