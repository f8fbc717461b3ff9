"""detcodes benchmark: the CLI timed from outside, one fresh process per op.

Usage, from the repository root:

    python3 perfbench/run.py --workload file-type2 --seed 1 --seconds 40 --trace 0

Every op is one ``detcodes.cli.main([...])`` call in a new child process
(perfbench/child.py), run one after another.  Every output is checked:
recovered bytes against the input, each repaired shard against the shard
encode wrote for that node, and audit CSV rows against the reference in
perfbench/reference/.  The last line of stdout is one JSON object with
the end-to-end metrics of BENCHMARK.json (``--trace 0``) or the per-layer
metrics (``--trace 1``).  perfbench/NOTES.md explains every number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference"
OUT = BENCH_DIR / "out"
MiB = 1 << 20
CHILD_TIMEOUT_S = 120

# Children run one at a time with single-threaded numeric libraries, and
# import detcodes from this checkout only.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Code:
    n: int
    d: int
    m: int
    scheme: str
    ell: int
    q: int

    def flags(self) -> list[str]:
        return ["--n", str(self.n), "--d", str(self.d), "--m", str(self.m),
                "--scheme", self.scheme, "--ell", str(self.ell), "--q", str(self.q)]


@dataclass(frozen=True)
class FileJob:
    """encode -> recover -> repair of one file of `size` bytes."""

    code: Code
    size: int


@dataclass(frozen=True)
class AuditJob:
    """One `detcodes audit` sweep; Type-II audits repair traffic, Type-I contents."""

    code: Code

    @property
    def reference(self) -> Path:
        c = self.code
        return REFERENCE / f"audit-{c.scheme}-n{c.n}-d{c.d}-m{c.m}-ell{c.ell}-q{c.q}.csv"


@dataclass(frozen=True)
class Workload:
    file: FileJob
    traffic: AuditJob
    contents: AuditJob
    # The jobs the workload is about.  The other jobs are small probes that
    # only make every end-to-end metric present; the traced run skips them.
    main: tuple[str, ...]


PROBE_FILE = FileJob(Code(8, 6, 2, "plain", 0, 65521), 256 * 1024)
PROBE_TRAFFIC = AuditJob(Code(8, 6, 2, "type2", 2, 11))
PROBE_CONTENTS = AuditJob(Code(8, 6, 2, "type1", 2, 11))

WORKLOADS = {
    # Strongest secure layout, slowest and most memory-hungry user path:
    # key stream, 3-bit packing, small-alpha algebra, 32x storage.
    "file-type2": Workload(
        FileJob(Code(8, 6, 2, "type2", 2, 11), MiB),
        PROBE_TRAFFIC, PROBE_CONTENTS, ("file",)),
    # No key stream at all; 15-bit packing, alpha=495 products, Xi^f repair
    # product and per-op codec tables.  Key-stream changes must not move it.
    "file-plain-wide": Workload(
        FileJob(Code(14, 12, 4, "plain", 0, 65521), 4 * MiB),
        PROBE_TRAFFIC, PROBE_CONTENTS, ("file",)),
    # Exact secrecy audits: Type-II is almost all GF(q) elimination on tall
    # views, Type-I spends about a fifth building contents views.
    "audit": Workload(
        PROBE_FILE,
        AuditJob(Code(10, 8, 3, "type2", 2, 11)),
        AuditJob(Code(10, 8, 3, "type1", 3, 11)),
        # Contents audits take a quarter as long; run two per traffic audit
        # so both metrics get comparable sample counts.
        ("traffic", "contents", "contents")),
}

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "encode_MiBps": "MiB/s",
    "recover_MiBps": "MiB/s",
    "repair_MiBps": "MiB/s",
    "encode_rss_MiB": "MiB",
    "recover_rss_MiB": "MiB",
    "repair_rss_MiB": "MiB",
    "storage_overhead": "count",
    "repair_read_amplification": "count",
    "audit_traffic_ms_per_set": "ms",
    "audit_contents_ms_per_set": "ms",
    "setup_s": "s",
    "ops_ok_frac": "ratio",
}

# Layers whose self time is reported as "<span>.s".
TIMED_LAYERS = [
    "shards.pack_bytes", "shards.unpack_bytes", "shards.assemble_batch",
    "shards.encode_batch", "shards.recover_batch", "shards.repair_shard",
    "code.repair_encoder", "shards.codec_init", "shards.read_shard",
    "shards.write_shard", "secure.KeyStream.draw", "gfmatrix.echelon_pivots",
    "gfmatrix.inv", "leakage.observe_node_contents", "leakage.observation_ranks",
    "leakage.cell_maps",
]
PER_LAYER = {
    **{f"{layer}.s": "s" for layer in TIMED_LAYERS},
    "code.repair_encoder.calls": "count",
    "shards.bytes_read": "bytes",
    "shards.bytes_written": "bytes",
    "shards.stripes": "count",
    "secure.keystreams": "count",
    "secure.keys_drawn": "count",
    "gfmatrix.echelon_pivots.calls": "count",
    "gfmatrix.elim_cells": "count",
    "gfmatrix.pivot_yield": "ratio",
    "leakage.view_build.s": "s",
    "leakage.view_rows": "rows",
    "cli.self.s": "s",
    "trace.overhead_frac": "ratio",
}


# -- one op: a child process plus the correctness gate ----------------------------


@dataclass
class Op:
    kind: str
    report: dict[str, Any]  # what the child measured (child.py)
    error: str = ""  # why the gate failed the op; empty when it passed
    values: dict[str, float] = field(default_factory=dict)
    traced: bool = False
    cycle: int = 0

    @property
    def ok(self) -> bool:
        return not self.error


def run_child(kind: str, argv: list[str], trace: bool) -> Op:
    spec = json.dumps({"argv": argv, "src": str(SRC), "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), spec], cwd=ROOT, env=CHILD_ENV,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Op(kind, {}, f"no result within {CHILD_TIMEOUT_S} s", traced=trace)
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {}
    if proc.returncode != 0 or not report:
        detail = report.get("error") or proc.stderr.strip() or "no report"
        return Op(kind, report, f"exit {proc.returncode}: {detail[-400:]}", traced=trace)
    return Op(kind, report, traced=trace)


def shard_path(directory: Path, node: int) -> Path:
    return directory / f"shard_{node:03d}.detc"


def traffic_bytes(job: FileJob) -> int:
    """The paper's repair traffic: d helpers x beta 2-byte symbols per stripe."""
    from detcodes.secure import Scheme, secret_capacity

    c = job.code
    symbols = -(-8 * job.size // (c.q.bit_length() - 1))
    stripes = max(1, -(-symbols // secret_capacity(c.d, c.ell, c.m, Scheme(c.scheme))))
    return 2 * stripes * c.d * math.comb(c.d - 1, c.m - 1)


def _throughput(op: Op, job: FileJob) -> Op:
    if op.ok:
        op.values["MiBps"] = job.size / MiB / op.report["wall_s"]
    return op


def encode(job: FileJob, source: Path, out: Path, seed: int, trace: bool) -> Op:
    argv = ["encode", str(source), *job.code.flags(), "--seed", str(seed), "--out", str(out)]
    op = run_child("encode", argv, trace)
    if op.ok:
        shards = [shard_path(out, i) for i in range(1, job.code.n + 1)]
        missing = [p.name for p in shards if not p.is_file()]
        if missing:
            op.error = f"encode wrote no {', '.join(missing)}"
        else:
            op.values["storage_overhead"] = sum(p.stat().st_size for p in shards) / job.size
    return _throughput(op, job)


def recover(job: FileJob, data: bytes, shards: list[Path], out: Path, trace: bool) -> Op:
    op = run_child("recover", ["recover", *map(str, shards), "--out", str(out)], trace)
    if op.ok and not (out.is_file() and out.read_bytes() == data):
        op.error = "recovered bytes differ from the input"
    out.unlink(missing_ok=True)
    return _throughput(op, job)


def repair(job: FileJob, shard_dir: Path, failed: int, helpers: list[int], out: Path,
           trace: bool) -> Op:
    argv = ["repair", *(str(shard_path(shard_dir, h)) for h in helpers),
            "--failed", str(failed), "--out", str(out)]
    op = run_child("repair", argv, trace)
    if op.ok:
        if not (out.is_file() and out.read_bytes() == shard_path(shard_dir, failed).read_bytes()):
            op.error = f"repaired shard {failed} differs from the one encode wrote"
        else:
            op.values["repair_read_amplification"] = op.report["rchar"] / traffic_bytes(job)
    out.unlink(missing_ok=True)
    return _throughput(op, job)


def audit(job: AuditJob, kind: str, trace: bool) -> Op:
    op = run_child(kind, ["audit", *job.code.flags()], trace)
    if op.ok:
        expected = job.reference.read_text().splitlines()
        lines = op.report["stdout"].splitlines()
        start = lines.index(expected[0]) if expected[0] in lines else len(lines)
        end = next((i for i in range(start, len(lines)) if lines[i].startswith("audited ")),
                   len(lines))
        if lines[start:end] != expected:
            op.error = f"audit CSV differs from {job.reference.name}"
        else:
            op.values["sets"] = len(expected) - 1
    return op


# -- one run: ops one after another -----------------------------------------------

# Each encoded object is recovered and repaired this many times (with other
# shards and another failed node each time): stored data is read and
# repaired more often than it is written.
ROUNDS = 2
# Probe jobs run after a main op once this long has passed since they last
# ran, so short probes sample the whole run rather than a few moments of it.
PROBE_INTERVAL_S = 3.0


@dataclass
class Run:
    """The ops of one benchmark run.  With `trace`, every op runs twice in a
    row with the same arguments: untraced, then traced."""

    trace: bool
    cycle: int = 0
    ops: list[Op] = field(default_factory=list)

    def do(self, step: Callable[[bool], Op]) -> bool:
        done = [step(traced) for traced in ((False, True) if self.trace else (False,))]
        for op in done:
            op.cycle = self.cycle
        self.ops += done
        return all(op.ok for op in done)

    def skip(self, kinds: list[str], reason: str) -> None:
        self.ops += [Op(kind, {}, reason, cycle=self.cycle) for kind in kinds]


def file_job(r: Run, job: FileJob, data: bytes, work: Path, rng: random.Random,
             between: Callable[[], None]) -> None:
    """encode, then ROUNDS x (recover from d random shards, repair a random node)."""
    nodes = list(range(1, job.code.n + 1))
    seed = rng.getrandbits(63)
    rounds = []
    for _ in range(ROUNDS):
        failed = rng.choice(nodes)
        rounds.append((rng.sample(nodes, job.code.d), failed,
                       rng.sample([i for i in nodes if i != failed], job.code.d)))
    source, shard_dir = work / "input.bin", work / "shards"
    if not source.is_file():
        source.write_bytes(data)
    try:
        if not r.do(lambda traced: encode(job, source, shard_dir, seed, traced)):
            r.skip(["recover", "repair"] * ROUNDS, "not run: encode failed")
            return
        between()
        for chosen, failed, helpers in rounds:
            shards = [shard_path(shard_dir, i) for i in chosen]
            r.do(lambda traced: recover(job, data, shards, work / "recovered.bin", traced))
            between()
            r.do(lambda traced: repair(job, shard_dir, failed, helpers, work / "repaired.detc",
                                       traced))
            between()
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> list[Op]:
    """Run cycles of the main jobs, with the probe jobs spread in between,
    while a further cycle would end less than half a cycle after `seconds`
    (at least one cycle).

    The traced run skips the probes.  Inputs come from `seed` alone: the
    probes draw from their own generator, since how often they run depends
    on timing.
    """
    rng, probe_rng = random.Random(seed), random.Random(f"{seed}-probes")
    data = rng.randbytes(w.file.size)
    probes = () if trace else tuple(j for j in ("file", "traffic", "contents")
                                    if j not in w.main)
    r = Run(trace)
    last_probe = -math.inf
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))

    def run_job(name: str, gen: random.Random, between: Callable[[], None]) -> None:
        if name == "file":
            file_job(r, w.file, data, work, gen, between)
        else:
            r.do(lambda traced: audit(getattr(w, name), f"audit_{name}", traced))
            between()

    def probe() -> None:
        nonlocal last_probe
        if probes and time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            for name in probes:
                run_job(name, probe_rng, lambda: None)
            last_probe = time.perf_counter()

    start = time.perf_counter()
    try:
        while True:
            for name in w.main:
                run_job(name, rng, probe)
            r.cycle += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / r.cycle / 2 > seconds:
                return r.ops
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- metrics ------------------------------------------------------------------------


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(ops: list[Op]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric."""
    passed = [op for op in ops if op.ok]

    def of(kind: str) -> list[Op]:
        return [op for op in passed if op.kind == kind]

    samples: dict[str, list[float]] = {}
    for kind in ("encode", "recover", "repair"):
        samples[f"{kind}_MiBps"] = [op.values["MiBps"] for op in of(kind)]
        samples[f"{kind}_rss_MiB"] = [op.report["rss_kib"] / 1024 for op in of(kind)]
    samples["storage_overhead"] = [op.values["storage_overhead"] for op in of("encode")]
    samples["repair_read_amplification"] = [
        op.values["repair_read_amplification"] for op in of("repair")]
    for job in ("traffic", "contents"):
        samples[f"audit_{job}_ms_per_set"] = [
            1000 * op.report["wall_s"] / op.values["sets"] for op in of(f"audit_{job}")]
    samples["setup_s"] = [op.report["setup_s"] for op in passed]
    samples["ops_ok_frac"] = [len(passed) / len(ops)]
    return samples


def layer_values(traced: list[Op], untraced: list[Op]) -> dict[str, float]:
    """Per-layer metrics of one cycle from its traced ops."""
    self_s: Counter[str] = Counter()
    total_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    for op in traced:
        t = op.report["trace"]
        self_s.update(t["self_s"])
        total_s.update(t["total_s"])
        calls.update(t["calls"])
        counts.update(t["counts"])
    values = {f"{layer}.s": self_s[layer] for layer in TIMED_LAYERS}
    values.update({
        "code.repair_encoder.calls": calls["code.repair_encoder"],
        "shards.bytes_read": counts["shards.bytes_read"],
        "shards.bytes_written": counts["shards.bytes_written"],
        "shards.stripes": counts["shards.stripes"],
        "secure.keystreams": counts["secure.keystreams"],
        "secure.keys_drawn": counts["secure.keys_drawn"],
        "gfmatrix.echelon_pivots.calls": calls["gfmatrix.echelon_pivots"],
        "gfmatrix.elim_cells": counts["gfmatrix.elim_cells"],
        "gfmatrix.pivot_yield": counts["gfmatrix.pivots"] / max(1, counts["gfmatrix.elim_rows"]),
        "leakage.view_build.s": total_s["leakage.audit_sweep"]
        - total_s["leakage.observation_ranks"] - total_s["leakage.cell_maps"],
        "leakage.view_rows": counts["leakage.view_rows"] / max(1, counts["leakage.views"]),
        "cli.self.s": self_s["cli.main"],
        "trace.overhead_frac": sum(op.report["wall_s"] for op in traced)
        / sum(op.report["wall_s"] for op in untraced) - 1,
    })
    return values


def per_layer(ops: list[Op]) -> dict[str, list[float]]:
    """Samples of every per-layer metric: one per cycle whose ops all passed."""
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for cycle in sorted({op.cycle for op in ops}):
        group = [op for op in ops if op.cycle == cycle]
        if all(op.ok for op in group):
            traced = [op for op in group if op.traced]
            untraced = [op for op in group if not op.traced]
            for name, value in layer_values(traced, untraced).items():
                samples[name].append(value)
    return samples


def write_spans(path: Path, ops: list[Op]) -> None:
    records = [{"op": i, "kind": op.kind, "cycle": op.cycle, "spans": op.report["trace"]["spans"]}
               for i, op in enumerate(ops) if "trace" in op.report]
    path.write_text(json.dumps(
        {"fields": ["name", "start_s", "end_s", "parent", "calls", "busy_s"], "ops": records}))


def result(ops: list[Op], samples: dict[str, list[float]], units: dict[str, str]) -> dict[str, Any]:
    failed = sum(not op.ok for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": median(samples[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def print_summary(name: str, ops: list[Op], samples: dict[str, list[float]],
                  units: dict[str, str], w: Workload) -> None:
    cycles = max(op.cycle for op in ops) + 1
    print(f"workload {name}: {cycles} cycles, {len(ops)} ops, each in a fresh process")
    for op in ops:
        if not op.ok:
            print(f"  FAILED {op.kind}: {op.error}")
    for metric, unit in units.items():
        values = samples[metric]
        if values:
            print(f"  {metric:34s} {statistics.median(values):14.6g} {unit:6s}"
                  f" median of {len(values)} [{min(values):.6g} .. {max(values):.6g}]")
        else:
            print(f"  {metric:34s} {'-':>14s} {unit:6s} no sample")
    amplification = samples.get("repair_read_amplification")
    if amplification:
        traffic = traffic_bytes(w.file)
        print(f"  repair read {statistics.median(amplification) * traffic:.0f} bytes vs "
              f"paper repair traffic 2*stripes*d*beta = {traffic} bytes")


def benchmark(name: str, w: Workload, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Measure one workload, print a readable summary, return the result object."""
    ops = measure(w, seed, seconds, trace)
    if trace:
        samples, units = per_layer(ops), PER_LAYER
        spans = OUT / f"trace-{name}-seed{seed}.json"
        write_spans(spans, ops)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        samples, units = end_to_end(ops), END_TO_END
    print_summary(name, ops, samples, units, w)
    return result(ops, samples, units)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "detcodes" / "cli.py").is_file():
        print(f"error: no detcodes source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    outcome = benchmark(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
