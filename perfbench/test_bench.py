"""Self-tests of the benchmark harness, on tiny inputs.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
from detcodes.secure import build_layout  # noqa: E402
from detcodes.shards import Shard, read_shard, write_shard  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> run.Workload:
    """The workload with a 4 KiB file and the small probe audits."""
    w = run.WORKLOADS[name]
    return replace(w, file=replace(w.file, size=4096),
                   traffic=run.PROBE_TRAFFIC, contents=run.PROBE_CONTENTS)


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace):
    outcome = run.benchmark(name, tiny(name), seed=7, seconds=0, trace=trace)
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(outcome["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = outcome["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)), m["name"]
    metrics = {k: v["value"] for k, v in outcome["metrics"].items()}
    if not trace:
        assert metrics["ops_ok_frac"] == 1.0
        assert all(metrics[m["name"]] > 0 for m in expected)
        return
    assert metrics["cli.self.s"] >= 0
    file_workload = name.startswith("file")
    assert (metrics["gfmatrix.echelon_pivots.calls"] == 0) == file_workload
    assert (metrics["shards.stripes"] > 0) == file_workload
    keyed = name == "file-type2"
    assert (metrics["secure.KeyStream.draw.s"] > 0) == keyed
    assert (metrics["secure.keys_drawn"] > 0) == keyed


def test_gate_fails_a_silently_wrong_recover(tmp_path):
    job = tiny("file-type2").file
    data = random.Random(1).randbytes(job.size)
    source = tmp_path / "input.bin"
    source.write_bytes(data)
    shard_dir = tmp_path / "shards"
    assert run.encode(job, source, shard_dir, seed=5, trace=False).ok
    shards = [run.shard_path(shard_dir, i) for i in range(1, job.code.d + 1)]
    assert run.recover(job, data, shards, tmp_path / "clean.bin", trace=False).ok

    # Flip one symbol of a secret column of stripe 0 in a copy of shard 1.
    shard = read_shard(shards[0])
    sparams = shard.header.secure_params()
    _, cell = build_layout(sparams).secret_cells[0]
    col = sparams.base.columns.rank(cell)
    symbols = shard.symbols.copy()
    symbols[col] = (symbols[col] + 1) % sparams.base.q
    corrupt = tmp_path / "corrupt.detc"
    write_shard(corrupt, Shard(shard.header, symbols))

    op = run.recover(job, data, [corrupt, *shards[1:]], tmp_path / "wrong.bin", trace=False)
    assert op.report["exit"] == 0  # the program itself does not notice
    assert not op.ok and "differ" in op.error


def test_gate_fails_audit_rows_that_differ_from_the_reference(tmp_path, monkeypatch):
    job = run.PROBE_TRAFFIC
    rows = job.reference.read_text().splitlines()
    rows[1] = rows[1].replace(",0,", ",1,", 1)
    monkeypatch.setattr(run, "REFERENCE", tmp_path)
    job.reference.write_text("\n".join(rows) + "\n")
    op = run.audit(job, "audit_traffic", trace=False)
    assert op.report["exit"] == 0
    assert not op.ok and "differs" in op.error


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
