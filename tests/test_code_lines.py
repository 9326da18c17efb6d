"""tools/code_lines.py counts the lines that hold code: docstrings,
comments and blank lines are left out, and every line of a multi-line
expression counts."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    total = (x +
             math.pi)
    return [total,
            "a string that is not a docstring"]
'''


def test_code_lines_counts_a_sample(tmp_path):
    f = tmp_path / "sample.py"
    f.write_text(SAMPLE)
    proc = subprocess.run([sys.executable, str(TOOL), str(f)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # import, def, the two lines of `total` and the two of the return
    assert proc.stdout.split() == ["6", str(f), "6", "total"]


def test_code_lines_refuses_a_missing_path(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "none.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and not proc.stdout
