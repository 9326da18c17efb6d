"""tools/ab_pass.py times this checkout against another tree in one
process; run here against itself, and against a copy whose reports differ."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_pass.py"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_ab_pass_of_this_tree_against_itself_prints_both_medians_and_the_ratio():
    proc = run(str(ROOT / "src"), "--small", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload derive  seed 7  rounds 2  ops per round 7"
    assert re.fullmatch(r"this   median [0-9.]+ ms per round", lines[1])
    assert re.fullmatch(r"other  median [0-9.]+ ms per round", lines[2])
    assert re.fullmatch(r"ratio this/other  median [0-9.]+  quartiles [0-9.]+ [0-9.]+", lines[3])
    # then one line per (fixture, suite) kind of op, which together hold every op
    kinds = [re.fullmatch(r"kind (\S+) (\S+)  ops ([0-9]+)  ratio median [0-9]+\.[0-9]{3}", line)
             for line in lines[4:]]
    assert kinds and all(kinds), lines[4:]
    assert {m[2] for m in kinds} == {"derive"} and "string-sl2" in {m[1] for m in kinds}
    assert len({m[1] for m in kinds}) == len(kinds) and sum(int(m[3]) for m in kinds) == 7


def test_ab_pass_exits_1_when_the_outputs_of_the_trees_differ(tmp_path):
    shutil.copytree(ROOT / "src" / "lie2alg", tmp_path / "lie2alg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "lie2alg" / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8").replace('"RESULT "', '"RESULT: "'), encoding="utf-8")
    proc = run(str(tmp_path), "--workload", "verify-exact", "--rounds", "2")
    assert proc.returncode == 1 and not proc.stdout
    assert "error: the two trees differ on" in proc.stderr


def test_ab_pass_refuses_a_directory_without_the_package_and_a_single_round(tmp_path):
    proc = run(str(tmp_path))
    assert proc.returncode == 2 and "no lie2alg package under" in proc.stderr
    proc = run(str(ROOT / "src"), "--rounds", "1")
    assert proc.returncode == 2 and "--rounds must be at least 2" in proc.stderr
