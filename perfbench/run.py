"""Layered benchmark of the multicomplex library.

    python3 perfbench/run.py --workload ring_dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from a source checkout: the library is imported from src/ and the CLI
runs as `python -m multicomplex.cli`.  One run repeats the workload's fixed
op list (one pass) until the passes have taken --seconds, checks every
output after each pass, outside the timers, and prints the metrics named in
BENCHMARK.json.  With --trace 0 those are the end-to-end metrics; with
--trace 1 the run alternates plain and traced passes and reports the
per-layer metrics and the tracing overhead.  A full record with provenance
goes to perfbench/out/, and the last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
WORKLOADS = ["ring_dense", "census", "counts", "cli"]

# fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 5
# fresh interpreters per traced run for the cli.interpreter_s / cli.import_s probes
IMPORT_PROBES = 5
# an in-process op that runs longer than this counts as failed
OP_TIMEOUT_S = 90


class OpTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"op ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# passes


class Tally:
    """Ops attempted and failed over a run, with the first few reasons."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.reasons: list[str] = []

    def fail(self, key, message: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.reasons) < 8:
            self.reasons.append(f"{key!r}: {message}")


def run_pass(workload, tally: Tally, tracer=None, inprocess: bool = False):
    """Run the op list once; return (wall seconds, {op key: latency}, outputs).

    Ops run back to back; their outputs are checked after the pass, outside
    every timer.  An op that raises, exits non-zero or times out counts as
    failed and the pass goes on.
    """
    clock = time.perf_counter
    latencies, results = {}, {}
    start = clock()
    workload.begin_pass()
    for op_id in workload.pass_order():
        op = workload.ops[op_id]
        fn = op.inprocess if inprocess and op.inprocess else op.run
        span = -1
        if tracer is not None:
            tracer.op_id = op_id
            span = tracer.open("op")
        t0 = clock()
        try:
            with deadline(OP_TIMEOUT_S):
                out = fn()
        except Exception as exc:  # a failed op is counted, never fatal
            tally.fail(op.key, f"{type(exc).__name__}: {exc}")
        else:
            latencies[op.key] = clock() - t0
            results[op.key] = out
        finally:
            if tracer is not None:
                tracer.close(span)
    wall = clock() - start
    if tracer is not None:
        tracer.op_id = -1
    tally.attempted += len(workload.ops)
    return wall, latencies, results


def check_pass(workload, tally: Tally, results: dict) -> None:
    wrong = {}
    for op in workload.ops:
        if op.key in results:
            try:
                message = op.check(results[op.key])
            except Exception as exc:  # output the check cannot even read
                message = f"unreadable output: {type(exc).__name__}: {exc}"
            if message:
                wrong[op.key] = message
    for key, message in workload.check_pass(results):
        wrong.setdefault(key, message)
    for key, message in wrong.items():
        tally.fail(key, message, wrong=True)


# ---------------------------------------------------------------------------
# probes in fresh processes


def setup_probe(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the moment it has
    imported the library, built the seeded inputs and warmed up."""
    from workloads import clock
    start = clock()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def interpreter_probes(env: dict) -> dict[str, float]:
    """Median start-up costs of a bare interpreter and of `import multicomplex`,
    and numpy's share of that import as -X importtime reports it."""
    def wall(args):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=60, check=True)
        return time.perf_counter() - t0, proc.stderr

    bare = statistics.median(wall(["-c", "pass"])[0] for _ in range(IMPORT_PROBES))
    full = statistics.median(wall(["-c", "import multicomplex"])[0]
                             for _ in range(IMPORT_PROBES))
    numpy_us = []
    for _ in range(3):
        report = wall(["-X", "importtime", "-c", "import multicomplex"])[1]
        hit = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*numpy$", report, re.M)
        numpy_us.append(int(hit.group(1)) if hit else 0)
    return {"cli.interpreter_s": bare, "cli.import_s": full - bare,
            "cli.import_numpy_s": statistics.median(numpy_us) / 1e6}


# ---------------------------------------------------------------------------
# runs


def provenance(seed: int) -> dict:
    import mpmath
    import numpy
    from workloads import SRC

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "multicomplex").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git (the
    benchmark's checkout is usually not a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metric_specs(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def untraced(workload, tally: Tally, seconds: float) -> tuple[dict, dict]:
    walls, per_op = [], {}
    while not walls or sum(walls) < seconds:
        wall, latencies, results = run_pass(workload, tally)
        check_pass(workload, tally, results)
        walls.append(wall)
        for key, t in latencies.items():
            per_op.setdefault(key, []).append(t)
    # one sample per op: its median over the passes, which damps the jitter
    # of the many sub-millisecond ops without hiding a slow op
    latencies = [statistics.median(ts) for ts in per_op.values()]
    if workload.children is not None:
        rss_kb, rss_samples = workload.children.max_rss_kb, workload.children.count
    else:
        rss_kb, rss_samples = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 1
    from stats import percentile, tail_percentile
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": percentile(latencies, 0.5) * 1e3,
        "op_p90_ms": tail_percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    samples = {"wall_s": len(walls), "op_p50_ms": len(latencies),
               "op_p90_ms": len(latencies), "peak_rss_mb": rss_samples,
               "pass_walls": walls}
    return values, samples


def traced(workload, tally: Tally, seconds: float, out_stem: Path) -> tuple[dict, dict, dict]:
    """Alternate plain and traced passes, both in-process; return the
    per-layer values, their sample counts and the coverage table."""
    from tracing import Tracer, layer_metrics
    from workloads import child_env

    tracer = Tracer()
    kinds = {op.key: op.kind for op in workload.ops}
    plain, spanned, by_kind, stdout_bytes = [], [], {}, []
    while not spanned or sum(plain) + sum(spanned) < seconds:
        wall, latencies, results = run_pass(workload, tally, inprocess=True)
        check_pass(workload, tally, results)
        plain.append(wall)
        for key, t in latencies.items():
            by_kind.setdefault(kinds[key], []).append(t)
        stdout_bytes.append(sum(len(v.encode()) for v in results.values() if isinstance(v, str)))
        with tracer.installed():
            wall, _, results = run_pass(workload, tally, tracer=tracer, inprocess=True)
        check_pass(workload, tally, results)
        spanned.append(wall)
    tracer.save(out_stem.with_suffix(".spans.npz"))

    names = list(metric_specs("per_layer"))
    values = layer_metrics(tracer, names, len(spanned))
    values.update(interpreter_probes(child_env()))
    is_cli = workload.name == "cli"
    for name in names:
        if name.startswith("cli.run_s."):
            times = by_kind.get(name.rsplit(".", 1)[1], []) if is_cli else []
            values[name] = statistics.median(times) if times else 0.0
    values["cli.stdout_bytes"] = statistics.median(stdout_bytes) if is_cli else 0
    values["trace.overhead_ratio"] = statistics.median(spanned) / statistics.median(plain)

    observed = layer_metrics(tracer, list(workload.coverage), len(spanned))
    coverage = {name: {"expected": expected, "observed": observed[name]}
                for name, expected in workload.coverage.items()}
    samples = {"traced_passes": len(spanned), "plain_passes": len(plain),
               "spans": len(tracer.start), "import_probes": IMPORT_PROBES}
    return values, samples, coverage


def run_one(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    import workloads

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "provenance": provenance(seed)}
    setups = [] if trace else [setup_probe(name, seed) for _ in range(probes)]
    workload = workloads.build(name, seed, tiny)
    tally = Tally()
    workloads.OUT.mkdir(exist_ok=True)
    stem = workloads.OUT / f"{name}-seed{seed}-trace{int(trace)}"
    try:
        if trace:
            values, samples, coverage = traced(workload, tally, seconds, stem)
            record["coverage"] = coverage
            covered = all(c["expected"] == c["observed"] for c in coverage.values())
        else:
            values, samples = untraced(workload, tally, seconds)
            values["setup_s"] = statistics.median(setups)
            samples["setup_s"] = len(setups)
            covered = True
    finally:
        workload.close()

    units = metric_specs("per_layer" if trace else "end_to_end")
    record.update({
        "input_digest": workload.digest,
        "ops_per_pass": len(workload.ops),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "samples": samples,
        "result": {
            "correct": tally.wrong == 0 and covered,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
        },
    })
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    return record


def report(record: dict) -> None:
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"ops/pass {record['ops_per_pass']}  inputs {record['input_digest'][:12]}")
    samples = record["samples"]
    for name, m in result["metrics"].items():
        note = f"({samples[name]} samples)" if name in samples else ""
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']:<6} {note}")
    print(f"  {'error_rate':<56} {record['error_rate']:>14.6g} ratio  "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    for reason in record["failures"][:3]:
        print(f"    failed {reason[:160]}")
    for name, c in record.get("coverage", {}).items():
        mark = "ok" if c["expected"] == c["observed"] else "MISMATCH"
        print(f"  coverage {name} = {c['observed']:g} (expected {c['expected']}) {mark}")


def run_all(args) -> int:
    """Every workload in its own process, then one table of the results."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
        stem = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}"
        if proc.returncode != 0:
            return proc.returncode
        rows.append(json.loads(stem.with_suffix(".json").read_text()))
    print("\nsummary")
    for record in rows:
        report(record)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"] if SPEC else 15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if SPEC is None or not (ROOT / "src" / "multicomplex" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} is not a source checkout with BENCHMARK.json and "
              "src/multicomplex", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads
        workload = workloads.build(args.workload, args.seed)
        print(workloads.clock())
        workload.close()
        return 0
    if args.workload == "all":
        return run_all(args)
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
