#!/usr/bin/env python3
"""The repo benchmark: replay one workload, check every digest, report metrics.

    python3 perfbench/run.py --workload year|paper_grid|resilience \
        --seed N --seconds S --trace 0|1

Builds the simulator's libraries with the repository's own CMake files and
the replay runner from perfbench/CMakeLists.txt (into .bench_build/), runs
the untraced runner for S seconds and prints the end-to-end metrics. With
--trace 1 it runs the untraced runner for S/2 seconds and the traced runner
(the same program with link-time span wrappers) for S/2 seconds and prints
the per-layer metrics instead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --repin WORKLOAD --seeds 0-31

replays WORKLOAD once per seed and rewrites its rows of perfbench/pins.tsv.
See perfbench/README.md for the metrics and the workloads.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PINS = HERE / "pins.tsv"
WORKLOADS = ("year", "paper_grid", "resilience")
# Replays must finish this long after the build, or they are killed.
RUN_DEADLINE_S = 170


def log(msg=""):
    print(msg, flush=True)


def sh(cmd, logfile):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(logfile).read_text().splitlines()[-30:]
        sys.stderr.write("\n".join(tail) + "\n")
        sys.stderr.write(f"perfbench: build step failed: {' '.join(map(str, cmd))}\n")
        sys.exit(2)


def build(traced):
    """Build the libraries, then the runner(s); incremental after the first run."""
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir = BUILD / "iosched"
    if not (lib_dir / "CMakeCache.txt").exists():
        sh(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release",
            "-DIOSCHED_BUILD_TESTS=OFF", "-DIOSCHED_BUILD_BENCH=OFF",
            "-DIOSCHED_BUILD_EXAMPLES=OFF"], logfile)
    sh(["cmake", "--build", lib_dir, "--target", "iosched_driver", "-j", jobs],
       logfile)
    bench_dir = BUILD / "perfbench"
    if not (bench_dir / "CMakeCache.txt").exists():
        sh(["cmake", "-S", HERE, "-B", bench_dir, "-DCMAKE_BUILD_TYPE=Release",
            f"-DIOSCHED_ROOT={ROOT}", f"-DIOSCHED_BUILD={lib_dir}"], logfile)
    targets = ["perfbench_replay"] + (["perfbench_replay_traced"] if traced else [])
    sh(["cmake", "--build", bench_dir, "--target", *targets, "-j", jobs], logfile)
    return {t: bench_dir / t for t in targets}


def run_replay(binary, workload, seed, seconds, deadline, chrome_trace=None):
    """Run one replay process; return its exit code and its @pb records."""
    scratch = BUILD / f"scratch-{os.getpid()}-{binary.name}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--scratch", str(scratch)]
    if chrome_trace:
        cmd += ["--chrome-trace", str(chrome_trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired as e:  # the child is killed and reaped
        code, out = -1, e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        sys.stderr.write(f"perfbench: {binary.name} timed out\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    records = [json.loads(line[4:]) for line in out.splitlines()
               if line.startswith("@pb ")]
    return code, records


def load_pins():
    pins = {}
    if PINS.exists():
        for line in PINS.read_text().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            workload, seed, month, policy, jobs, digest = line.split()
            pins[(workload, int(seed), month, policy)] = (int(jobs), digest)
    return pins


class Check:
    """Counts replays attempted and failed, with the reason for each failure."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.pins = load_pins()
        self.pinned = any(k[:2] == (workload, seed) for k in self.pins)
        self.seen = {}
        self.attempted = self.failed = 0
        self.problems = []

    def fail(self, why):
        self.failed += 1
        self.problems.append(why)

    def replay(self, r, tag):
        self.attempted += 1
        cell = f"{r['month']}/{r['policy']}"
        if "error" in r:
            return self.fail(f"{tag} {cell} pass {r['pass']}: threw: {r['error']}")
        if r["jobs"] != r["generated_jobs"]:
            return self.fail(f"{tag} {cell}: {r['jobs']} records for "
                             f"{r['generated_jobs']} jobs")
        pin = self.pins.get((self.workload, self.seed, r["month"], r["policy"]))
        if self.pinned and pin is None:
            return self.fail(f"{tag} {cell}: no pin for a pinned seed")
        if pin and (r["jobs"], r["digest"]) != pin:
            return self.fail(f"{tag} {cell}: digest {r['digest']} jobs {r['jobs']}, "
                             f"pinned {pin[1]} jobs {pin[0]}")
        first = self.seen.setdefault(cell, r["digest"])
        if r["digest"] != first:
            return self.fail(f"{tag} {cell} pass {r['pass']}: digest {r['digest']} "
                             f"differs from {first} of an earlier replay")

    def resume(self, r, tag):
        self.attempted += 1
        cell = f"{r['month']}/{r['policy']}"
        if not r.get("ok"):
            return self.fail(f"{tag} resume {cell}: " + r.get(
                "error", f"digest {r.get('digest')} differs from the "
                "uninterrupted run"))
        pin = self.pins.get((self.workload, self.seed, r["month"], r["policy"]))
        if pin and r["digest"] != pin[1]:
            self.fail(f"{tag} resume {cell}: digest {r['digest']}, pinned {pin[1]}")

    def run(self, code, records, tag):
        for r in records:
            if r["kind"] == "replay":
                self.replay(r, tag)
            elif r["kind"] == "resume":
                self.resume(r, tag)
        if code != 0 or not any(r["kind"] == "end" for r in records):
            self.attempted += 1
            self.fail(f"{tag} runner exited with code {code} before finishing")


def kinds(records, kind):
    return [r for r in records if r["kind"] == kind]


def first_pass(records):
    return [r for r in kinds(records, "replay") if r["pass"] == 0 and "error" not in r]


# Host time is reported at the reference speed of the probe in replay.cc:
# each timed replay or set-up is multiplied by PROBE_REF_S over the mean of
# the probes taken just before and just after it. See README.md.
PROBE_REF_S = 0.001


def scaled(items, after):
    """Sum of item["s"] scaled by the probes around each item."""
    total = 0.0
    for i, item in enumerate(items):
        nxt = items[i + 1]["probe_s"] if i + 1 < len(items) else after
        total += item["s"] * PROBE_REF_S / ((item["probe_s"] + nxt) / 2)
    return total


def pass_seconds(records):
    """Probe-scaled replay seconds of every pass."""
    out = []
    for p in kinds(records, "pass"):
        cells = [r for r in kinds(records, "replay")
                 if r["pass"] == p["pass"] and "error" not in r]
        out.append(scaled(cells, p["probe_s"]))
    return out


def setup_seconds(records):
    """Probe-scaled seconds of every set-up."""
    setups = kinds(records, "setup")
    after = kinds(records, "probe")[0]["probe_s"]
    return [scaled(setups[i:i + 1], setups[i + 1]["probe_s"]
                   if i + 1 < len(setups) else after)
            for i in range(len(setups))]


def median_pass_s(records):
    return statistics.median(pass_seconds(records))


def fingerprint(records):
    build_rec = (kinds(records, "build") or [{}])[0]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    try:
        git = ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"]
        out = subprocess.run(git, capture_output=True, text=True).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except OSError:
        pass
    log(f"host: cpu={cpu!r} nproc={os.cpu_count()} os={platform.system()} "
        f"{platform.release()}")
    log(f"build: compiler={build_rec.get('compiler')!r} "
        f"build_type={build_rec.get('build_type')} "
        f"commit={commit or 'unknown (not a git checkout)'}")


def quantile_line(name, values, unit):
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        spread = f"q1={q[0]:.4f} q3={q[2]:.4f}"
    else:
        spread = "single sample"
    log(f"  {name}: median={statistics.median(values):.4f} {unit} over "
        f"{len(values)} samples ({spread})")


def end_to_end(records):
    passes = kinds(records, "pass")
    replays = first_pass(records)
    replay_s = median_pass_s(records)
    setup_s = statistics.median(setup_seconds(records))
    completed = sum(r["completed_jobs"] for r in replays)
    wait = sum(r["avg_wait_s"] * r["completed_jobs"] for r in replays) / completed
    probes = [r["probe_s"] for r in records if "probe_s" in r]
    log("end to end (untraced):")
    quantile_line("replay_s (probe-scaled)", pass_seconds(records), "s")
    quantile_line("replay_s (raw)", [p["replay_s"] for p in passes], "s")
    quantile_line("setup_s (probe-scaled)", setup_seconds(records), "s")
    quantile_line("setup_s (raw)", [s["s"] for s in kinds(records, "setup")], "s")
    quantile_line(f"probe (reference {PROBE_REF_S} s)", probes, "s")
    return {
        "replay_s": (replay_s, "s"),
        "jobs_per_s": (passes[0]["jobs"] / replay_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (kinds(records, "end")[0]["peak_rss_mb"], "MB"),
        "sim_wait_min": (wait / 60.0, "min"),
        "sim_util": (statistics.mean(r["util"] for r in replays), "ratio"),
    }


def quantile_from_hist(bounds, counts, q):
    total = sum(counts)
    running = 0
    for i, c in enumerate(counts):
        running += c
        if total and running >= q * total:
            return bounds[i] if i < len(bounds) else bounds[-1] + 1
    return 0.0


SPAN_METRICS = [
    ("sim.push", ("calls", "s")), ("sim.pop", ("calls", "s")),
    ("sim.cancel", ("calls", "s")),
    ("sched.schedule", ("calls", "self_s")), ("sched.submit", ("s",)),
    ("sched.job_end", ("s",)), ("sched.job_failed", ("calls",)),
    ("machine.allocate", ("calls", "s")), ("machine.release", ("calls", "s")),
    ("core.submit_request", ("calls", "self_s")),
    ("core.abort_request", ("calls",)), ("core.job_register", ("s",)),
    ("core.knapsack", ("calls", "s")), ("core.slowdown", ("calls", "s")),
    ("storage.advance", ("calls", "s")), ("storage.set_rate", ("calls", "s")),
    ("storage.next_completion", ("s",)), ("storage.validate", ("s",)),
    ("storage.bb", ("s",)), ("faults", ("s",)),
    ("metrics.record", ("s",)), ("metrics.summarize", ("s",)),
    ("metrics.digest", ("s",)),
    ("ckpt.write", ("calls", "s")), ("ckpt.save", ("s",)),
    ("ckpt.restore", ("s",)),
]


def per_layer(untraced, traced):
    passes = kinds(traced, "pass")
    resumes = kinds(traced, "resume")
    metrics = {}
    for name, fields in SPAN_METRICS:
        # Restores happen only in the resume check, which runs before the
        # passes and has span totals of its own.
        sources = resumes if name == "ckpt.restore" else passes
        for field in fields:
            values = []
            for p in sources or [{"spans": []}]:
                row = next((s for s in p["spans"] if s["name"] == name), None)
                values.append(row[field] if row else 0)
            unit = "count" if field == "calls" else "s"
            value = values[0] if field == "calls" else statistics.median(values)
            metrics[f"{name}.{field}"] = (value, unit)

    events = sum(r["events"] for r in first_pass(untraced))
    metrics["sim.host_ns_per_event"] = (median_pass_s(untraced) * 1e9 / events, "ns")
    metrics["engine.residual_s"] = (
        statistics.median(p["replay_s"] - p["top_level_s"] for p in passes), "s")
    metrics["trace.overhead_frac"] = (
        median_pass_s(traced) / median_pass_s(untraced) - 1.0, "ratio")

    replays = first_pass(traced)
    total = {}
    for r in replays:
        for key, value in r.items():
            if isinstance(value, int) and "." in key:
                total[key] = total.get(key, 0) + value
    hist = [0] * len(replays[0]["queue_depth_counts"])
    for r in replays:
        hist = [a + b for a, b in zip(hist, r["queue_depth_counts"])]
    bounds = replays[0]["queue_depth_bounds"]
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics["ckpt.bytes"] = (sum(r.get("snapshot_bytes", 0) for r in replays), "bytes")
    for key in ("sim.events", "sched.passes", "sched.backfill_starts",
                "core.io_cycles", "core.io_requests", "core.throttled_grants",
                "core.knapsack_invocations", "storage.waterfill_iterations",
                "core.flush_deferrals", "sched.jobs_requeued",
                "sched.jobs_fault_killed", "ckpt.written"):
        metrics[key] = (total[key], "count")
    metrics["sched.backfill_ratio"] = (
        ratio(total["sched.backfill_starts"], total["sched.jobs_started"]), "ratio")
    metrics["sched.queue_depth_p50"] = (quantile_from_hist(bounds, hist, 0.50), "jobs")
    metrics["sched.queue_depth_p99"] = (quantile_from_hist(bounds, hist, 0.99), "jobs")
    metrics["core.cycles_per_job"] = (
        ratio(total["core.io_cycles"], sum(r["jobs"] for r in replays)), "ratio")
    metrics["core.congested_frac"] = (
        ratio(total["core.congested_cycles"], total["core.io_cycles"]), "ratio")
    absorbed = total["storage.bb_absorbed_requests"]
    metrics["storage.bb_absorb_ratio"] = (
        ratio(absorbed, absorbed + total["storage.bb_spilled_requests"]), "ratio")
    resumes = [r for r in resumes if "error" not in r]
    metrics["ckpt.resume_counter_mismatch"] = (
        sum(abs(v) for r in resumes for k, v in r.items() if k.endswith("_delta")),
        "count")

    log("per-layer self time (traced run, median pass):")
    spans = {}
    for p in passes:
        for s in p["spans"]:
            spans.setdefault(s["name"], []).append(s)
    traced_s = statistics.median(p["replay_s"] for p in passes)
    rows = sorted(spans.items(), key=lambda kv: -statistics.median(s["self_s"] for s in kv[1]))
    log(f"  {'span':26s} {'calls':>12s} {'total s':>9s} {'self s':>9s} {'self %':>7s}")
    for name, samples in rows:
        self_s = statistics.median(s["self_s"] for s in samples)
        log(f"  {name:26s} {samples[0]['calls']:12d} "
            f"{statistics.median(s['s'] for s in samples):9.3f} {self_s:9.3f} "
            f"{100 * self_s / traced_s:6.1f}%")
    residual = metrics["engine.residual_s"][0]
    log(f"  {'engine.residual_s':26s} {'':12s} {'':9s} {residual:9.3f} "
        f"{100 * residual / traced_s:6.1f}%   (dispatch, grant cycles, policy)")
    log(f"  traced replay {traced_s:.3f} s raw, {median_pass_s(traced):.3f} s "
        f"probe-scaled; untraced {median_pass_s(untraced):.3f} s probe-scaled")
    return metrics


def report_resumes(records):
    for r in kinds(records, "resume"):
        deltas = ", ".join(f"{k[:-6]} {v:+d}" for k, v in r.items() if k.endswith("_delta"))
        log(f"resume check {r['month']}/{r['policy']} from snapshot "
            f"{r.get('snapshot')}: digest {'matches' if r.get('ok') else 'DIFFERS'}; "
            f"counter deltas vs uninterrupted: {deltas or r.get('error')}")


def report_accuracy(records):
    """Informational: policy deltas vs BASE_LINE next to the paper's figures."""
    paper = kinds(records, "paper")
    if not paper:
        return
    paper = paper[0]
    replays = first_pass(records)
    log("accuracy vs paper (informational, not gated): change vs BASE_LINE, "
        "measured / paper")
    log(f"  {'month':5s} {'policy':13s} {'wait':>17s} {'response':>17s} "
        f"{'utilization':>17s}")
    errors = []
    for r in replays:
        base = next(b for b in replays if b["month"] == r["month"]
                    and b["policy"] == "BASE_LINE")
        i = int(r["month"][2:]) - 1
        cells = []
        for key, paper_key in (("avg_wait_s", "wait_min"),
                               ("avg_response_s", "response_min"),
                               ("util", "util_rel")):
            measured = r[key] / base[key] - 1.0
            series = paper[paper_key][r["policy"]]
            reference = series[i] / paper[paper_key]["BASE_LINE"][i] - 1.0
            errors.append(abs(measured - reference))
            cells.append(f"{100 * measured:+7.1f}% / {100 * reference:+5.1f}%")
        log(f"  {r['month']:5s} {r['policy']:13s} " + " ".join(cells))
    log(f"  mean absolute error of the deltas: {100 * statistics.mean(errors):.1f} "
        "percentage points")


def repin(workload, seeds):
    binary = build(traced=False)["perfbench_replay"]
    pins = load_pins()
    for key in [k for k in pins if k[0] == workload]:
        del pins[key]
    for seed in seeds:
        code, records = run_replay(binary, workload, seed, 0,
                                   time.monotonic() + RUN_DEADLINE_S)
        replays = first_pass(records)
        if (code != 0 or len(replays) != len(kinds(records, "replay"))
                or not all(r.get("ok") for r in kinds(records, "resume"))):
            sys.exit(f"perfbench: seed {seed} failed; not pinning")
        for r in replays:
            pins[(workload, seed, r["month"], r["policy"])] = (r["jobs"], r["digest"])
        log(f"pinned {workload} seed {seed}: {len(replays)} replays")
    lines = ["# workload seed month policy jobs digest  (python3 perfbench/run.py --repin)"]
    for key in sorted(pins, key=lambda k: (WORKLOADS.index(k[0]), k[1], k[2])):
        jobs, digest = pins[key]
        lines.append(" ".join(map(str, (*key, jobs, digest))))
    PINS.write_text("\n".join(lines) + "\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", choices=WORKLOADS)
    ap.add_argument("--seeds", default="0")
    args = ap.parse_args()
    if args.repin:
        return repin(args.repin, parse_seeds(args.seeds))
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binaries = build(traced=bool(args.trace))
    deadline = time.monotonic() + RUN_DEADLINE_S
    check = Check(args.workload, args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    code, untraced = run_replay(binaries["perfbench_replay"], args.workload,
                                args.seed, seconds, deadline)
    check.run(code, untraced, "untraced")
    traced = []
    if args.trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(exist_ok=True)
        chrome = trace_dir / f"{args.workload}-seed{args.seed}.json"
        code, traced = run_replay(binaries["perfbench_replay_traced"],
                                  args.workload, args.seed, seconds, deadline,
                                  chrome)
        check.run(code, traced, "traced")
        for r in kinds(traced, "chrome_trace"):
            log(f"chrome trace: {r['path']} ({r['spans']} spans kept, "
                f"{r['dropped']} counted but not kept)")

    log(f"== perfbench {args.workload} seed {args.seed} "
        f"({'traced + untraced' if args.trace else 'untraced'}) ==")
    fingerprint(untraced)
    passes = kinds(untraced, "pass")
    log(f"{len(passes)} untraced pass(es) of {len(first_pass(untraced))} replays, "
        "one process, one thread")
    metrics = {}
    try:
        metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    except (ValueError, KeyError, IndexError, StopIteration, ZeroDivisionError) as e:
        check.attempted += 1
        check.fail(f"metrics could not be computed: {e!r}")
    report_resumes(untraced)
    report_accuracy(untraced)
    log(f"pins: {'checked against perfbench/pins.tsv' if check.pinned else 'none for this seed; digests checked for repeatability only'}")
    log(f"failed_frac: {check.failed}/{check.attempted}")
    for problem in check.problems:
        log(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
