#!/usr/bin/env python3
"""Seeded closed-loop benchmark for tropharm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: the library is imported from ./src and
nowhere else.  The workloads (cli-tropical and degenerate, which
BENCHMARK.json lists, and kirchhoff-session, run by hand) are described in
perfbench/NOTES.md.  One client runs one job at a time: a fixed number of
jobs, about --seconds' worth, so that a seed always gives the same jobs.
Outputs are checked after each job, outside the timed region.  Peak memory
is that of forked children that each run one job, and two more cold
set-ups are timed in fresh processes after the timed loop.

Human-readable report lines go to stdout first; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-module ones
from a traced run (spans are also written to .perfbench/).
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: on two vCPUs a second one made kirchhoff-session jobs
# 10-20% slower, and it doubles the exposure to other load on the machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# The warm-up job is instance WARMUP_INDEX, which no timed loop reaches, of
# seed 0 for every seed, so that the set-up time does not vary with the
# seed's draw of it.
WARMUP_INDEX = 1_000_000
SETUP_REPS = 3  # cold set-ups per run: this process's own, then fresh processes
# No job starts after this many seconds of a run, so that a run ends well
# inside 180 s even if the program gets much slower; its job count then
# falls short of job_count().
DEADLINE_S = 120.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds as the last line and exit")
    return p.parse_args(argv)


def fresh_setup_s(args) -> float:
    """Set-up time of a fresh process running this benchmark with --setup-only."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.splitlines()[-1])


def job_count(wl, seconds: float) -> int:
    """Jobs in a run: ``seconds`` at the workload's nominal rate, rounded to
    whole cycles of its input mix.  The count does not depend on how fast
    the jobs run, so a seed always gives the same jobs and the same failures."""
    return wl.cycle * max(1, round(seconds * wl.nominal_rate / wl.cycle))


def run_loop(wl, prepared, indices, *, fork=False, tracer=None, layer=None):
    """Run the jobs ``indices`` in order, each in a forked child when ``fork``;
    returns [(index, seconds, Outcome, peak RSS MB or None)].  No job starts
    once the run is DEADLINE_S old."""
    records = []
    for index in indices:
        if time.perf_counter() - _T0 > DEADLINE_S:
            print(f"perfbench: deadline of {DEADLINE_S} s reached after {len(records)} "
                  f"of {len(indices)} jobs", file=sys.stderr)
            break
        if index not in prepared:
            prepared[index] = wl.prepare(index)
        inst = prepared[index]
        if tracer:
            tracer.start_job(index)
        if fork:
            dt, got, rss = run_forked(wl, inst)
        else:
            (dt, got), rss = wl.run(inst, tracer), None
        outcome = wl.check(inst, got)
        if layer is not None:
            layer.after_job(tracer)
        records.append((index, dt, outcome, rss))
    return records


def run_forked(wl, inst):
    """One job in a forked copy of this process: (seconds, outputs, peak RSS
    in MB).  The copy starts with what this process holds, so the peak is
    that plus the job's own memory."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as fh:
                pickle.dump(wl.run(inst), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
    finally:
        _, status, usage = os.wait4(pid, 0)
    if status:
        raise RuntimeError(f"forked job exited with status {status}")
    dt, got = pickle.loads(data)
    return dt, got, usage.ru_maxrss / 1024.0


def job_summary(records):
    import stats

    secs = [dt for _, dt, _, _ in records]
    failed = [o.failed for _, _, o, _ in records]
    pct = stats.tail_percentile(len(secs))
    pen = stats.penalised(secs, failed)
    extras = [o.extra for _, _, o, _ in records if o.extra]
    out = {
        "jobs": len(secs),
        "failed": sum(failed),
        "known": all(o.known for _, _, o, _ in records),
        "timed_s": sum(secs),
        "tail_pct": pct,
        "job_p50_s": stats.percentile(secs, 50),
        "job_tail_s": stats.percentile(secs, pct),
        "jobs_per_s": (len(secs) - sum(failed)) / sum(secs),
        "fail_frac": sum(failed) / len(secs),
        "job_p50_penalised_s": stats.percentile(pen, 50),
        "job_tail_penalised_s": stats.percentile(pen, pct),
    }
    if extras and "hausdorff_tmax" in extras[0]:
        out["hausdorff_tmax"] = statistics.fmean(e["hausdorff_tmax"] for e in extras)
        out["nonconverged_frac"] = sum(e["nonconverged"] for e in extras) / len(extras)
        out["tripod_empty_ratio"] = (sum(e["tripods_empty"] for e in extras)
                                     / max(1, sum(e["tripods"] for e in extras)))
    return out


def report(workload, seed, summary, records):
    print(f"perfbench workload={workload} seed={seed} jobs={summary['jobs']} "
          f"failed={summary['failed']} timed={summary['timed_s']:.3f}s "
          f"tail=p{summary['tail_pct']}")
    for key in ("job_p50_s", "job_tail_s", "jobs_per_s", "fail_frac",
                "job_p50_penalised_s", "job_tail_penalised_s", "hausdorff_tmax", "nonconverged_frac"):
        if key in summary:
            print(f"  {key} = {summary[key]:.6g}")
    kinds = {}
    for _, _, o, _ in records:
        for f in o.failures:
            label = ("known: " if o.known else "UNEXPECTED: ") + f[:120]
            kinds[label] = kinds.get(label, 0) + 1
    for label, n in sorted(kinds.items()):
        print(f"  {n} x {label}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tropharm", "__init__.py")):
        print("perfbench: no src/tropharm under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import tropharm
    import workloads

    if not os.path.abspath(tropharm.__file__).startswith(src + os.sep):
        print(f"perfbench: tropharm imported from {tropharm.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".perfbench")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    try:
        # set-up: the first job's inputs and files, then one warm-up job
        os.makedirs(work)
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        prepared = {0: wl.prepare(0)}
        wl.run(workloads.WORKLOADS[args.workload](0, work).prepare(WARMUP_INDEX))
        # A full collection scans every live object.  Freezing what set-up left
        # (imported modules, prepared inputs) keeps one during a job as cheap as
        # in a fresh tropharm process, instead of scanning the benchmark's heap.
        gc.collect()
        gc.freeze()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(setup_s)
            return 0

        jobs = list(range(job_count(wl, args.seconds)))
        if args.trace:
            import layers
            import spans

            records = run_loop(wl, prepared, jobs[:len(jobs) // 2])
            plain = job_summary(records)
            tracer = spans.Tracer()
            layer = layers.LayerMetrics()
            tracer.install(layers.library_modules(), layers.targets(tracer))
            try:
                traced_records = run_loop(wl, prepared, [r[0] for r in records],
                                          tracer=tracer, layer=layer)
            finally:
                tracer.uninstall()
            traced = job_summary(traced_records)
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
            report(args.workload, args.seed, plain, records)
            print(f"  trace.overhead_s = {traced['job_p50_s'] - plain['job_p50_s']:.6g} "
                  f"(traced p50 {traced['job_p50_s']:.6g} over the same {len(records)} jobs)")
            metrics = layer.metrics(tracer, plain, traced)
        else:
            records = run_loop(wl, prepared, jobs, fork=wl.fork_jobs)
            plain = job_summary(records)
            report(args.workload, args.seed, plain, records)
            if wl.fork_jobs:
                rss = [r[3] for r in records]
            else:
                # after the timed loop, so that the probes do not touch the job times
                for i in range(wl.memory_jobs):
                    if i not in prepared:
                        prepared[i] = wl.prepare(i)
                rss = [run_forked(wl, prepared[i])[2] for i in range(wl.memory_jobs)]
            setups = [setup_s] + [fresh_setup_s(args) for _ in range(SETUP_REPS - 1)]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "job_p50_s": (plain["job_p50_s"], "s"),
                "job_tail_s": (plain["job_tail_s"], "s"),
                "jobs_per_s": (plain["jobs_per_s"], "1/s"),
                "peak_rss_mb": (statistics.fmean(rss), "MB"),
            }
            print(f"  setup_s = {metrics['setup_s'][0]:.6g} (median of {[round(x, 4) for x in setups]})")
            print(f"  peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} (mean over {len(rss)} jobs, "
                  f"{min(rss):.4g}-{max(rss):.4g} MB)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": plain["known"] and (not args.trace or traced["known"]),
        "attempted": plain["jobs"],
        "failed": plain["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
