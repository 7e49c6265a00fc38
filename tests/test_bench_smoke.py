"""The benchmark's driver ends with a well-formed result line on every workload.

``perfbench/`` is copied into a temporary directory next to a symlink to this
checkout's ``src``, so the run's input cache and results land there and the
checkout is left untouched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.mark.parametrize("workload", ["ref", "dense", "bursts"])
def test_run_prints_a_correct_result_line(tmp_path, workload):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stderr
    assert sorted(result["metrics"]) == sorted(END_TO_END)
