"""The benchmark's own test: every workload once at the smoke size, every
output check on. Run with ``python3 -m pytest perfbench -q`` from the
checkout root (about a minute on 4 CPUs)."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_every_workload_passes_its_checks():
    p = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                       capture_output=True, text=True, timeout=900)
    rows = [json.loads(line) for line in p.stdout.splitlines() if line.startswith("{")]
    assert [r["workload"] for r in rows] == ["frontier", "image_crawl",
                                             "warc_convert", "near_dup"], p.stderr[-4000:]
    for r in rows:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, r
    assert p.returncode == 0, p.stderr[-4000:]


def test_refuses_without_the_engine(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (bench / name).write_bytes(
                open(os.path.join(ROOT, "perfbench", name), "rb").read())
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "frontier",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
