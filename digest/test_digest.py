"""Tests of the equivalence digest itself, at smoke size: python3 -m pytest digest"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST = re.compile(r"[0-9a-f]{64}$")


def digest(*args):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_smoke_digest_is_repeatable_and_well_formed(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for out in (first, second):
        done = digest("--smoke", "--out", str(out))
        assert done.returncode == 0, done.stderr
    assert first.read_bytes() == second.read_bytes()
    entries = json.loads(first.read_text())
    assert list(entries) == sorted(entries)
    for command in ("run", "fifo", "snapshot", "restore"):
        assert entries[f"cli/circular/{command}/exit"] == 0
        assert DIGEST.match(entries[f"cli/circular/{command}/stdout"])
    assert DIGEST.match(entries["cli/circular/restore/records.csv"])
    assert DIGEST.match(entries["cli/circular/snapshot/snapshot_day0020.json"])
    assert DIGEST.match(entries["sde/circular/states"])
    assert DIGEST.match(entries["sde/circular/log_weight"])
    assert 0.0 <= entries["fp_residual/circular/t=0.13"] < 1e-3


def test_refuses_a_tree_without_the_program(tmp_path):
    done = digest("--tree", str(tmp_path), "--out", str(tmp_path / "d.json"))
    assert done.returncode == 2
    assert not (tmp_path / "d.json").exists()
