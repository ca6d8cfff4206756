#!/usr/bin/env python3
"""perfbench: the iotax benchmark, one command for every workload.

    python3 perfbench/run.py --workload ingest_stats --seed 302 --seconds 30 --trace 0

Builds the CLI binaries from the checkout, builds the workload's input traces
from the seed (timed as set-up), runs passes of the workload's command over
them as child processes until the measuring window ends, checks every run's
output, and prints one JSON line with the end-to-end metrics (--trace 0) or
the per-layer metrics of a traced replay (--trace 1). See README.md here.
"""

import argparse
import collections
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

FAULT_SEED = 20220914
# Seeds from HELD_OUT_BASE up are kept for rechecking a claim; nobody tunes
# against them.
HELD_OUT_BASE = 1 << 40
# Each invocation builds a workload's `traces` traces from its seed,
# TRACE_SEED_STRIDE apart, and one pass runs the command once on each, so
# one trace's cost does not decide the result. Set-up builds each trace
# once and times REBUILDS rebuilds of each, so setup_s is a median over
# several set-ups.
TRACE_SEED_STRIDE = 1_000_003
REBUILDS = 2

# wall_s takes each trace's fastest run, so every trace needs at least two.
MIN_PASSES = 2

Spec = collections.namedtuple("Spec", "jobs seed smoke_jobs traces fault_rate")
WORKLOADS = {
    "ingest_stats": Spec(jobs=20000, seed=302, smoke_jobs=1000, traces=2, fault_rate=0.20),
    "ingest_lowfault": Spec(jobs=20000, seed=303, smoke_jobs=1000, traces=2, fault_rate=0.02),
}
# The model side of every traced run uses the ROADMAP headline trace's size
# (2 000 jobs; 400 at the smoke size).
HEADLINE_JOBS = 2000
HEADLINE_SMOKE_JOBS = 400

END_TO_END = {
    "wall_s": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# Per-layer values the traced replay (perfbench-trace) reports itself.
TRACED = {
    "sim.generate.s": "s",
    "sim.generate.jobs_per_s": "jobs/s",
    "darshan.write_log.mib_per_s": "MiB/s",
    "darshan.parse_log.mib_per_s": "MiB/s",
    "darshan.parse_log_lenient.mib_per_s": "MiB/s",
    "darshan.extract_features.logs_per_s": "logs/s",
    "darshan.logs_parsed": "count",
    "darshan.logs_salvage_attempted": "count",
    "darshan.records_salvaged": "count",
    "cli.export_trace.s": "s",
    "cli.inject_faults.s": "s",
    "cli.ingest_trace.s": "s",
    "cli.ingest_trace.files_per_s": "files/s",
    "cli.ingest_trace.quarantined_frac": "fraction",
    "cli.trace_duplicate_sets.s": "s",
    "cli.trace_to_dataset.s": "s",
    "core.baseline.s": "s",
    "core.app_litmus.s": "s",
    "core.system_litmus.s": "s",
    "core.ood.s": "s",
    "core.noise_floor.s": "s",
    "core.system_litmus.trees_fit": "count",
    "core.app_modeling_bound.s": "s",
    "core.concurrent_noise_floor.s": "s",
    "ml.prepared_fit.s": "s",
    "ml.trainer_fit.trees_per_s": "trees/s",
    "ml.grid_search.s": "s",
    "uq.ensemble_fit.s": "s",
    "uq.member_fit.s": "s",
    "uq.predict_uq_batch.s": "s",
    "uq.mlp.gflop_per_s": "GFLOP/s",
    "obs.session_finish.s": "s",
    "obs.store.appends": "count",
}
# Per-stage heap peaks, read from the traced replay's run.json.
HEAP_STAGES = [
    "core.baseline",
    "core.app_litmus",
    "core.grid_search",
    "core.golden.system_litmus",
    "core.ood",
    "core.noise_floor",
]
PER_LAYER = {
    **TRACED,
    **{f"heap.peak_bytes.{stage}": "bytes" for stage in HEAP_STAGES},
    "proc.cpu_s": "s",
    "proc.wait_s": "s",
    "trace.attribution_gap_pct": "%",
}
# Per-layer counts that are exact at a seed: every replay on a trace must
# repeat the first replay's.
EXACT_COUNTS = [
    "darshan.logs_parsed",
    "darshan.logs_salvage_attempted",
    "darshan.records_salvaged",
    "cli.ingest_trace.quarantined_frac",
    "core.system_litmus.trees_fit",
    "obs.store.appends",
]

class Child:
    """One finished child process: exit code, wall seconds, rusage."""

    def __init__(self, code, wall, usage, stdout):
        self.code = code
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.stdout = stdout


def run_child(cmd, log, stdout_path=None):
    """Runs `cmd` from the checkout root and waits for it. stderr goes to
    `log`; stdout is discarded unless `stdout_path` is given."""
    with open(log, "wb") as err:
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        try:
            start = time.perf_counter()
            proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            if stdout_path:
                out.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = Path(stdout_path).read_text() if stdout_path else ""
    return Child(proc.returncode, wall, usage, text)


_LIBC = ctypes.CDLL(None, use_errno=True)


def settle(path):
    """Writes back the dirty pages of the filesystem holding `path`, so
    writeback from earlier work does not land inside a timed run."""
    fd = os.open(path, os.O_RDONLY)
    try:
        _LIBC.syncfs(fd)
    finally:
        os.close(fd)


def remove(path):
    shutil.rmtree(path, ignore_errors=True)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def trace_digests(trace):
    return {name: digest(trace / name) for name in ("manifest.csv", "faults.json")}


def load_faults(trace):
    faults = json.loads((trace / "faults.json").read_text())["faults"]
    return {
        "faulted": {f["job_id"] for f in faults},
        "destroyed": {f["job_id"] for f in faults if f["header_destroyed"]},
        "transient": {f["job_id"] for f in faults if f["kind"] == "TransientUnreadable"},
    }


def check_ingest_report(path, faults, jobs):
    """Scores an ingest report the way tests/chaos.rs does. Returns the
    quarantined job ids, or an error string."""
    try:
        records = [json.loads(line) for line in Path(path).read_text().splitlines()]
        summary = records[0]
        quarantined = {r["job_id"] for r in records if r["record"] == "quarantined"}
        salvaged = sum(1 for r in records if r["record"] == "salvaged")
        if summary["record"] != "summary":
            return "ingest report does not start with a summary"
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable ingest report: {e!r}"
    if summary.get("total_files") != jobs:
        return f"ingest saw {summary.get('total_files')} files, trace has {jobs}"
    if summary.get("parsed_clean", 0) + salvaged + len(quarantined) != jobs:
        return "ingest report does not account for every file"
    if summary.get("salvaged") != salvaged:
        return "ingest summary and salvage records disagree"
    if not quarantined <= faults["faulted"]:
        return f"quarantined without a fault: {sorted(quarantined - faults['faulted'])[:5]}"
    if not faults["destroyed"] <= quarantined:
        return f"header destroyed but not quarantined: {sorted(faults['destroyed'] - quarantined)[:5]}"
    if quarantined & faults["transient"]:
        return "a transient fault was quarantined"
    return quarantined


class Trace:
    """One generated input trace and what every run on it must reproduce."""

    def __init__(self, path, seed):
        self.path = path
        self.seed = seed
        self.digests = None
        self.faults = None
        self.quarantined = None
        # Stage metrics of the first traced replay on this trace.
        self.stage_metrics = None
        # EXACT_COUNTS of the first traced replay on this trace.
        self.exact_counts = None
        # manifest/faults digests of the headline-size trace at this seed.
        self.model_digests = None


class Workload:
    """A workload: its input traces, its command, and its output check.

    Both workloads run the read path at scale, `iotax-analyze --stats-only`
    (lenient ingest plus the log-only litmus tests), on traces that differ
    in their share of damaged logs."""

    def __init__(self, name, jobs, seed, traces, fault_rate, bins, work):
        self.name = name
        self.jobs = jobs
        self.fault_rate = fault_rate
        self.bins = bins
        self.work = work
        self.traces = [Trace(work / f"trace{i}", seed + i * TRACE_SEED_STRIDE)
                       for i in range(traces)]

    def gen_cmd(self, out, seed, jobs=None):
        return [
            self.bins / "iotax-gen", "--system", "theta", "--jobs", jobs or self.jobs,
            "--seed", seed, "--fault-rate", self.fault_rate, "--fault-seed", FAULT_SEED,
            "--out", out,
        ]

    def build(self, trace):
        child = run_child(self.gen_cmd(trace.path, trace.seed), self.work / "setup.err")
        if child.code != 0:
            raise SystemExit(f"{self.name}: iotax-gen failed during set-up ({child.code})")
        return child

    def setup(self):
        """Builds every input trace; returns the seconds of each timed
        build. Then scores a reference ingest of each, untimed.

        iotax-gen first runs once per trace, untimed, to create the files.
        Then, REBUILDS times, the files are emptied and iotax-gen, timed,
        rebuilds the trace into them and must reproduce it byte for byte.
        The time left out is the kernel's creating one inode per log, which
        on a shared 2-vCPU VM with ext4 on a virtio disk swings twentyfold
        from one minute to the next (0.03 to 0.6 ms per file) and was most
        of a first build's time. A rebuild still pays for everything else
        iotax-gen does: simulation, encoding, fault injection and writing
        every byte into an empty file."""
        times = []
        for trace in self.traces:
            settle(self.work)
            self.build(trace)
            trace.digests = trace_digests(trace.path)
            for _ in range(REBUILDS):
                for path in trace.path.rglob("*"):
                    if path.is_file():
                        os.truncate(path, 0)
                settle(self.work)
                child = self.build(trace)
                if trace_digests(trace.path) != trace.digests:
                    raise SystemExit(f"{self.name}: iotax-gen rebuilt a different trace")
                times.append(child.wall)
                print(f"{self.name}: set-up {len(times)}: {child.wall:.4f} s "
                      f"({child.cpu:.4f} s CPU)", file=sys.stderr)
            trace.faults = load_faults(trace.path)
            report = self.work / "setup-ingest.jsonl"
            cmd = [self.bins / "iotax-analyze", trace.path, "--stats-only",
                   "--ingest-report", report]
            child = run_child(cmd, self.work / "setup.err")
            found = check_ingest_report(report, trace.faults, self.jobs)
            if child.code != 0 or isinstance(found, str):
                raise SystemExit(f"{self.name}: set-up trace fails the ingest check: {found}")
            trace.quarantined = found
        settle(self.work)
        return times

    def prepare(self):
        """Untimed clean-up before a run."""
        (self.work / "report.jsonl").unlink(missing_ok=True)

    def command(self, trace):
        return [
            self.bins / "iotax-analyze", trace.path, "--stats-only",
            "--ingest-report", self.work / "report.jsonl",
        ]

    def check(self, child, trace):
        """Returns None when the run's output is correct, else why not."""
        if child.code != 0:
            return f"exit {child.code}"
        found = check_ingest_report(self.work / "report.jsonl", trace.faults, self.jobs)
        if isinstance(found, str):
            return found
        if found != trace.quarantined:
            return "quarantine set differs from the set-up ingest"
        return None


def measure(wl, seconds, min_passes):
    """Runs passes of the workload's command over every trace until
    `seconds` have passed and at least `min_passes` have run. Returns the
    passes, each a list of (child, error or None)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        runs = []
        for trace in wl.traces:
            wl.prepare()
            child = run_child(wl.command(trace), wl.work / "child.err")
            error = wl.check(child, trace)
            verdict = f"failed: {error}" if error else "ok"
            print(f"{wl.name}: pass {len(passes) + 1} {trace.path.name}: {child.wall:.4f} s, "
                  f"{verdict}", file=sys.stderr)
            runs.append((child, error))
        passes.append(runs)
    return passes


def passed(passes):
    """The passes in which every run passed its check."""
    return [[c for c, _ in runs] for runs in passes if all(e is None for _, e in runs)]


def counts(passes):
    """(runs attempted, runs failed) over all passes."""
    runs = [e for p in passes for _, e in p]
    return len(runs), sum(1 for e in runs if e)


def median(values):
    return statistics.median(values) if values else None


def end_to_end(wl, setup_times, passes):
    """wall_s is the time of one command: each trace's fastest run over the
    passes, mean over the traces.

    The shared host flips between a fast and a slow speed (about 1.3-1.7x)
    many times a minute, and the share of time spent slow drifts over
    minutes. A median of runs as short as an ingest follows that share; the
    fastest of many runs reads the fast speed as long as any fast second
    falls in the window."""
    ok = passed(passes)
    metrics = {"setup_s": median(setup_times)}
    if ok:
        wall = statistics.fmean(min(p[i].wall for p in ok) for i in range(len(wl.traces)))
        metrics.update(
            wall_s=wall,
            jobs_per_s=wl.jobs / wall,
            peak_rss_mib=median([max(c.rss_mib for c in p) for p in ok]),
        )
    return metrics


def traced_rep(wl, trace, model_jobs):
    """One traced replay on `trace`. Returns (values, error or None)."""
    out = wl.work / "traced"
    remove(out)
    out.mkdir()
    settle(wl.work)
    cmd = [
        wl.bins / "perfbench-trace", "--trace", trace.path, "--seed", trace.seed,
        "--model-jobs", model_jobs, "--work", out,
    ]
    child = run_child(cmd, wl.work / "traced.err", wl.work / "traced.out")
    if child.code != 0:
        return None, f"perfbench-trace exit {child.code}"
    try:
        result = json.loads(child.stdout.strip().splitlines()[-1])
        record = json.loads((out / "run" / "run.json").read_text())
        sections = dict((name, body) for name, body in record["sections"])
        gauges = {g["name"]: g["value"] for g in record["gauges"]}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return None, f"unreadable traced output: {e!r}"
    if trace_digests(out / "model") != trace.model_digests:
        return None, "traced write side differs from iotax-gen's trace"
    found = check_ingest_report(out / "ingest.jsonl", trace.faults, wl.jobs)
    if isinstance(found, str) or found != trace.quarantined:
        return None, f"traced ingest differs from the CLI's: {found if isinstance(found, str) else ''}"
    # The model side must repeat the first replay's stage metrics.
    if trace.stage_metrics is None:
        trace.stage_metrics = sections.get("stage_metrics")
    elif sections.get("stage_metrics") != trace.stage_metrics:
        return None, "traced stage metrics differ from the first replay's"
    values = dict(result["values"])
    values["cli.ingest_trace.quarantined_frac"] = len(found) / wl.jobs
    exact = {name: values.get(name) for name in EXACT_COUNTS}
    if trace.exact_counts is None:
        trace.exact_counts = exact
    elif exact != trace.exact_counts:
        changed = [n for n in EXACT_COUNTS if exact[n] != trace.exact_counts[n]]
        return None, f"exact counts differ from the first replay's: {changed}"
    for stage in HEAP_STAGES:
        values[f"heap.peak_bytes.{stage}"] = gauges.get(f"heap.peak_bytes.{stage}")
    values["chain_s"] = result["stats_chain_s"]
    values["program_stage_us"] = result["program_stage_us"]
    return values, None


def per_layer(wl, seconds, model_jobs):
    """The traced run: untraced runs of the workload's command for the
    process metrics and the base of the attribution gap, then traced
    replays until the window ends. Returns (metrics, attempted, failed)."""
    for trace in wl.traces:
        ref = wl.work / "model-ref"
        if run_child(wl.gen_cmd(ref, trace.seed, model_jobs), wl.work / "setup.err").code != 0:
            raise SystemExit(f"{wl.name}: iotax-gen failed building the headline-size trace")
        trace.model_digests = trace_digests(ref)
        remove(ref)
    refs = measure(wl, 0, 1)
    attempted, failed = counts(refs)
    traced = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        reps = []
        for trace in wl.traces:
            values, error = traced_rep(wl, trace, model_jobs)
            attempted += 1
            if error:
                print(f"{wl.name}: traced run failed: {error}", file=sys.stderr)
                failed += 1
            reps.append(values)
        traced.append(reps)
    ok = [c for p in passed(refs) for c in p]
    reps = [r for p in traced for r in p if r is not None]
    metrics = {}
    if ok:
        metrics["proc.cpu_s"] = median([c.cpu for c in ok])
        metrics["proc.wait_s"] = median([c.wall - c.cpu for c in ok])
    for name in list(TRACED) + [f"heap.peak_bytes.{s}" for s in HEAP_STAGES]:
        present = [r[name] for r in reps if r.get(name) is not None]
        if present:
            metrics[name] = median(present)
    # How far the spans of the workload's command fall short of, or exceed,
    # its untraced wall. Both sides are per-command means over a pass.
    chains = [sum(r["chain_s"] for r in p) / len(p) for p in traced if None not in p]
    if ok and chains:
        untraced = median([sum(c.wall for c in p) / len(p) for p in passed(refs)])
        chain = median(chains)
        metrics["trace.attribution_gap_pct"] = abs(chain - untraced) / untraced * 100.0
        print(f"{wl.name}: untraced wall {untraced:.4f} s, traced chain {chain:.4f} s",
              file=sys.stderr)
        program = reps[-1]["program_stage_us"]
        for stage in ("core.baseline", "core.app_litmus", "core.system_litmus", "core.ood",
                      "core.noise_floor"):
            print(f"  {stage:<20} bench span {reps[-1][stage + '.s']:.4f} s, "
                  f"program span {program.get(stage, 0) / 1e6:.4f} s", file=sys.stderr)
    return metrics, attempted, failed


def build():
    """Builds the CLI binaries and the traced replay; returns the bin dir."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for extra in (["-p", "iotax-cli"],
                  ["--manifest-path", str(HERE / "Cargo.toml")]):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", *extra],
            cwd=ROOT, env=env, stdout=sys.stderr,
        )
        if done.returncode != 0:
            raise SystemExit(f"perfbench: cargo build failed ({done.returncode})")
    return ROOT / env["CARGO_TARGET_DIR"] / "release"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, help="trace seed (default: the workload's pinned seed)")
    p.add_argument("--seconds", type=float, default=30.0, help="length of the measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer metrics of a traced replay")
    p.add_argument("--held-out", action="store_true",
                   help=f"draw the trace from the held-out seed range (seed + {HELD_OUT_BASE})")
    p.add_argument("--smoke", action="store_true", help="tiny traces, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        print(f"perfbench: {ROOT} is not an iotax checkout", file=sys.stderr)
        return 2
    bins = build()
    spec = WORKLOADS[args.workload]
    jobs = spec.smoke_jobs if args.smoke else spec.jobs
    model_jobs = HEADLINE_SMOKE_JOBS if args.smoke else HEADLINE_JOBS
    seed = spec.seed if args.seed is None else args.seed
    if args.held_out:
        seed += HELD_OUT_BASE

    work = WORK / args.workload
    remove(work)
    work.mkdir(parents=True)
    wl = Workload(args.workload, jobs, seed, spec.traces, spec.fault_rate, bins, work)
    try:
        setup_times = wl.setup()
        if args.trace:
            metrics, attempted, failed = per_layer(wl, args.seconds, model_jobs)
            units = PER_LAYER
        else:
            passes = measure(wl, args.seconds, MIN_PASSES)
            metrics = end_to_end(wl, setup_times, passes)
            attempted, failed = counts(passes)
            units = END_TO_END
    finally:
        remove(work)
    print(json.dumps({
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
