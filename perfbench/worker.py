"""Timed phase of one benchmark run, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --out FILE
        [--seconds S | --rounds R] [--trace-dir DIR]
    python3 perfbench/worker.py --probe W

The caller is a closed loop: one operation at a time, the next sent only
after the previous one returned.  Rounds are generated between
operations and results are serialised after each operation; neither is
timed.  Each operation is timed twice: in wall time, and in CPU time
(user + system) of the process doing the work, which is this one for
library calls and the report's own process for reports.  Without
--rounds the worker runs whole rounds until the operations' wall time
adds up to S seconds, so that a run's length does not grow when the
host takes the CPU away.  --probe only loads what the workload's
first operation needs and exits (the set-up measurement).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# a run that is still going after this many seconds stops after its
# current round, so that it ends within the benchmark's time limit
HARD_STOP_S = 120.0


def load(workload):
    """Import what the workload's first operation needs: concord, its CLI,
    and sympy where the first call of laurent.factor would import it."""
    import concord.cli  # noqa: F401
    if workload != "signatures":
        import sympy  # noqa: F401


def _fractions(xs):
    return [str(x) for x in xs]


def run_inprocess(op):
    """Run one library operation; returns a function that serialises its
    result, to be called once the timer has stopped."""
    from concord import alexander, metabolizers, seifert
    from fractions import Fraction

    v = seifert.SeifertMatrix.from_rows(op["matrix"])
    kind = op["kind"]
    if kind in ("torus", "random", "twist", "twist_sum"):
        r = seifert.rho0(v, Fraction(op["radius"]))
        return lambda: {"lo": str(r.lo), "hi": str(r.hi)}
    if kind == "lagrangians":
        mod = alexander.present(v)
        lags = alexander.lagrangians(mod)
        return lambda: {"dim": mod.dim, "lagrangians": [
            {"order": _fractions(l.order_ideal.to_dense()[0]),
             "basis": [_fractions(row) for row in l.basis]} for l in lags]}
    if kind == "higher_genus":
        s = metabolizers.higher_genus_metabolizers(v, 3)
        return lambda: {"complete": s.complete,
                        "bases": [[list(b) for b in m.basis] for m in s]}
    if kind == "genus1":
        ms = metabolizers.genus1_metabolizers(v)
        return lambda: {"bases": [[list(b) for b in m.basis] for m in ms]}
    raise ValueError(f"unknown operation kind {kind!r}")


class ReportRunner:
    """Runs each report as its own `concord` process."""

    def __init__(self, work, trace_dir):
        self.work = work
        self.trace_dir = trace_dir

    def prepare(self, op, index):
        doc = self.work / f"doc{index}.json"
        doc.write_text(json.dumps(op["doc"]), encoding="utf-8")
        argv = [sys.executable, str(HERE / "child.py")]
        if self.trace_dir is not None:
            argv += ["--trace-out", str(self.trace_dir / f"spans{index}.jsonl"),
                     "--op", str(index)]
        argv += ["--", "--format", "json"]
        if "assume" in op:
            asm = self.work / f"assume{index}.json"
            asm.write_text(json.dumps(op["assume"]), encoding="utf-8")
            argv += ["--assume", str(asm)]
        return argv + ["report", str(doc)]

    def run(self, argv, index):
        """Returns (exit code, CPU seconds of the report process, stdout
        file, stderr file)."""
        out_path = self.work / f"out{index}.json"
        err_path = self.work / f"err{index}.txt"
        before = children_cpu()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.run(argv, stdout=out, stderr=err, check=False)
        return proc.returncode, children_cpu() - before, out_path, err_path


def children_cpu():
    """CPU seconds of every child process waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--trace-dir")
    args = ap.parse_args(argv)
    if args.probe:
        load(args.probe)
        return 0

    import corpus

    start = perf_counter()
    if args.workload != "reports":
        load(args.workload)
    out_path = Path(args.out)
    work = out_path.parent
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    tracer = None
    if trace_dir is not None and args.workload != "reports":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    runner = ReportRunner(work, trace_dir) if args.workload == "reports" else None

    gen = corpus.Corpus(args.workload, args.seed)
    records = []
    timed = timed_wall = 0.0
    rounds = 0
    while True:
        for op in gen.round(rounds):
            index = len(records)
            rec = {"round": rounds, "op": op}
            if runner is not None:
                argv_ = runner.prepare(op, index)
                t0 = perf_counter()
                rc, cpu, out_file, err_file = runner.run(argv_, index)
                t1 = perf_counter()
                rec["ok"] = rc == 0
                rec["returncode"] = rc
                if rc == 0:
                    rec["result"] = json.loads(out_file.read_text(encoding="utf-8"))
                else:
                    rec["error"] = err_file.read_text(encoding="utf-8")[-400:]
            else:
                if tracer is not None:
                    tracer.op = index
                t0, c0 = perf_counter(), process_time()
                try:
                    result = run_inprocess(op)
                    t1, cpu = perf_counter(), process_time() - c0
                    rec["ok"] = True
                    rec["result"] = result()
                except Exception:  # a failed operation is counted, not fatal
                    t1, cpu = perf_counter(), process_time() - c0
                    rec["ok"] = False
                    rec["error"] = traceback.format_exc()[-400:]
            rec["wall_s"] = t1 - t0
            rec["cpu_s"] = cpu
            timed += cpu
            timed_wall += t1 - t0
            records.append(rec)
        rounds += 1
        if args.rounds is not None:
            if rounds >= args.rounds:
                break
        elif timed_wall >= args.seconds or perf_counter() - start > HARD_STOP_S:
            break

    who = resource.RUSAGE_CHILDREN if runner is not None else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    if tracer is not None:
        tracer.dump(trace_dir / "spans.jsonl")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "timed_s": timed, "timed_wall_s": timed_wall,
                   "peak_rss_kib": peak_kib,
                   "records": records}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
