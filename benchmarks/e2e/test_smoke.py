"""``PYTHONPATH=src pytest benchmarks/e2e`` — the benchmark checks itself.

Outside tier-1's ``testpaths`` on purpose: it spawns workers and a server.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402 - after the path set-up above

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUERIES = {f"Q{i}": f"SELECT {i} FROM t" for i in range(13)}


def test_smoke_runs_every_workload_and_matches_the_spec(tmp_path):
    out = tmp_path / "smoke.jsonl"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    documents = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(d["workload"], d["trace"]) for d in documents] == [
        (w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)]
    for document in documents:
        kind = "per_layer" if document["trace"] else "end_to_end"
        assert document["correct"] and not document["leaks"], document
        assert document["failed"] == 0 and document["attempted"] >= 1
        assert ({n: m["unit"] for n, m in document["metrics"].items()}
                == {m["name"]: m["unit"] for m in SPEC[kind]})
        if not document["trace"]:
            assert all(m["value"] > 0 for m in document["metrics"].values())
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert not list((HERE / "out").glob("*.npz"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "scan_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0 and not done.stdout.strip()


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    streams = {
        "flights": lambda seed: W.flight_orders(seed, list(QUERIES)),
        "mutations": lambda seed: W.mutation_schedule(seed, list(QUERIES)),
        "sql": lambda seed: W.adhoc_stream(seed, 0, QUERIES),
    }
    for name, make in streams.items():
        assert W.digest(make(7)) == W.digest(make(7)), name
        assert W.digest(make(7)) != W.digest(make(8)), name
    assert (W.digest(W.adhoc_stream(7, 0, QUERIES))
            != W.digest(W.adhoc_stream(7, 1, QUERIES)))


def test_adhoc_stream_mixes_repeats_and_fresh_literals():
    stream = W.adhoc_stream(3, 0, QUERIES)
    sample = [next(stream) for _ in range(2000)]
    repeats = sum(sql in QUERIES.values() for sql in sample)
    assert 0.25 < repeats / len(sample) < 0.35
    assert len(set(sample)) > 0.5 * len(sample)
