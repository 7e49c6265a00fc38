import dataclasses
import os
import subprocess
import sys

from workloads import WORKLOADS, write_inputs

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], sequences=2, frames=3)


def read(directory):
    out = {}
    for name in ("detections.jsonl", "labels.txt"):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in WORKLOADS:
        _, _, n1 = write_inputs(tiny(name), 7, str(tmp_path / f"{name}-a"))
        _, _, n2 = write_inputs(tiny(name), 7, str(tmp_path / f"{name}-b"))
        write_inputs(tiny(name), 8, str(tmp_path / f"{name}-c"))
        assert n1 == n2 > 0
        assert read(tmp_path / f"{name}-a") == read(tmp_path / f"{name}-b")
        assert read(tmp_path / f"{name}-a") != read(tmp_path / f"{name}-c")


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ref",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_cache").exists()
