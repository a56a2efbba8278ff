"""concord benchmark: one run of one workload.

    python3 perfbench/run.py --workload {signatures,reports,algebra}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  With --trace 0 the run measures set-up (the median CPU time of
several fresh interpreters loading what the first operation needs, made
half before and half after the timed pass), runs whole rounds of the
workload in a fresh worker process until the operations' wall time adds
up to S seconds, then checks every output.  Times are CPU times (user +
system) of the process doing the work: on a shared virtual machine wall
time also counts the spells in which the host runs something else, and
those come and go from run to run.  With --trace 1 it makes the same
untraced pass and then a traced pass over the same rounds in another
fresh process, and reports per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("signatures", "reports", "algebra")
SETUP_PROBES = 6


class RunFailed(Exception):
    pass


def _worker(*args):
    return [sys.executable, str(HERE / "worker.py"), *args]


def measure_setup(workload, probes):
    """(CPU, wall) seconds of `probes` fresh interpreters, each loading what
    the workload's first operation needs."""
    from worker import children_cpu

    cpus, walls = [], []
    for _ in range(probes):
        c0, t0 = children_cpu(), perf_counter()
        proc = subprocess.run(_worker("--probe", workload), capture_output=True,
                              text=True, check=False)
        walls.append(perf_counter() - t0)
        cpus.append(children_cpu() - c0)
        if proc.returncode != 0:
            raise RunFailed(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return cpus, walls


def timed_pass(work, workload, seed, *, seconds=None, rounds=None, trace_dir=None):
    """Run the worker once; returns its output document."""
    out = work / "pass.json"
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    args += ["--rounds", str(rounds)] if rounds is not None else ["--seconds", str(seconds)]
    if trace_dir is not None:
        args += ["--trace-dir", str(trace_dir)]
    proc = subprocess.run(_worker(*args), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RunFailed(f"worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def check_pass(doc):
    """(attempted, failed, problems) of one pass."""
    import checks

    problems = []
    failed = 0
    for i, rec in enumerate(doc["records"]):
        if not rec["ok"]:
            failed += 1
            continue
        for p in checks.check_record(rec):
            problems.append(f"op {i} ({rec['op']['kind']}): {p}")
    return len(doc["records"]), failed, problems


def slot_median(records, key):
    """Median over a round's operations of each one's mean time across the
    run's rounds.  On a shared virtual machine the CPU's speed can switch
    between a fast and a slow state every few seconds; the median of
    single timings follows whichever state held most of the run, the mean
    over rounds of one operation mixes them in proportion."""
    slots = {}
    for r in records:
        slots.setdefault(r["op"]["slot"], []).append(r[key])
    return statistics.median(statistics.fmean(v) for v in slots.values())


def source_id():
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text(encoding="utf-8").strip() if target.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run(args):
    if not (ROOT / "src" / "concord" / "__init__.py").is_file():
        raise RunFailed(f"no concord sources under {ROOT / 'src'}")
    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commit, digest = source_id()
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "source_sha256": digest,
            "python": platform.python_version()}

    if not args.trace:
        # the set-up probes are split around the timed pass, so that their
        # median does not hang on one stretch of the CPU's speed
        t0 = perf_counter()
        cpus, walls = measure_setup(args.workload, SETUP_PROBES - SETUP_PROBES // 2)
        t1 = perf_counter()
        doc = timed_pass(work, args.workload, args.seed, seconds=args.seconds)
        t2 = perf_counter()
        more_cpus, more_walls = measure_setup(args.workload, SETUP_PROBES // 2)
        t3 = perf_counter()
        setup, setup_wall = statistics.median(cpus + more_cpus), statistics.median(walls + more_walls)
        attempted, failed, problems = check_pass(doc)
        meta["phase_wall_s"] = {"setup": t1 - t0 + t3 - t2, "pass": t2 - t1,
                                "checks": perf_counter() - t3}
        ok = attempted - failed
        metrics = {
            "setup_s": (setup, "s"),
            "ops_per_s": (ok / doc["timed_s"], "ops/s"),
            "op_p50_ms": (slot_median(doc["records"], "cpu_s") * 1000, "ms"),
            "peak_rss_mib": (doc["peak_rss_kib"] / 1024, "MiB"),
        }
        meta["rounds"] = doc["rounds"]
        # the same figures in wall time, for information: not gated
        meta["wall"] = {"setup_s": setup_wall,
                        "ops_per_s": ok / doc["timed_wall_s"],
                        "op_p50_ms": slot_median(doc["records"], "wall_s") * 1000}
    else:
        import tracing

        plain = timed_pass(work, args.workload, args.seed, seconds=args.seconds)
        trace_dir = work / "spans"
        trace_dir.mkdir()
        traced = timed_pass(work, args.workload, args.seed, rounds=plain["rounds"],
                            trace_dir=trace_dir)
        a1, f1, p1 = check_pass(plain)
        a2, f2, p2 = check_pass(traced)
        attempted, failed, problems = a1 + a2, f1 + f2, p1 + p2
        op_walls = {}
        if args.workload == "reports":
            op_walls = {i: r["wall_s"] for i, r in enumerate(traced["records"])}
        metrics = tracing.layer_metrics(sorted(trace_dir.glob("*.jsonl")), op_walls)
        metrics["trace.overhead_s"] = (traced["timed_s"] - plain["timed_s"], "s")
        meta["rounds"] = plain["rounds"]
        meta["spans"] = str(trace_dir.relative_to(ROOT))

    for name in ("doc", "assume", "out", "err"):
        for path in work.glob(f"{name}*"):
            path.unlink()
    meta["problems"] = problems[:20]
    print(json.dumps(meta))
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
