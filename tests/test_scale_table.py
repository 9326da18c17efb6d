"""tools/scale_table.py runs each named algebra in its own process and
prints one table row per algebra; its exit status carries the validation."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_table.py"


def run(*names):
    return subprocess.run([sys.executable, str(TOOL), *names], capture_output=True, text=True)


def test_scale_table_prints_one_valid_row_per_algebra():
    proc = run("string-sl:2", "endo-id:1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    header = [c.strip() for c in lines[0].strip("|").split(" | ")]
    assert header == ["algebra", "size", "Der size", "build s", "inn0 s", "adbar s",
                      "validate Der s", "validate hom s", "ok", "peak RSS MB"]
    rows = [[c.strip() for c in line.strip("|").split(" | ")] for line in lines[2:]]
    # Der(string-sl2) is 6|3; Der(endo-id1) is 1|1
    assert [(r[0], r[1], r[2], r[8]) for r in rows] == [
        ("string-sl:2", "3\\|1", "6\\|3", "True"), ("endo-id:1", "1\\|1", "1\\|1", "True")]
    assert all(float(c) >= 0 for r in rows for c in r[3:8] + r[9:])


def test_scale_table_refuses_a_bad_name():
    for args in (("string-sl:1",), ("endo-id:0",), ("sl:3",), ()):
        proc = run(*args)
        assert proc.returncode == 2 and not proc.stdout, args
