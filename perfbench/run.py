#!/usr/bin/env python3
"""Campaign-shaped benchmark: the paper's differential-testing loop end to
end, through the shipped CLIs (gpudiff-campaign, gpudiff-serve,
gpudiff-reduce), built in Release from this checkout.

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 20 --trace 0

Workloads (see README.md): table4, wide_nway, multicore.  A run repeats
whole rounds of its workload until --seconds of rounds have been measured,
checks every output, and prints as its last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
(medians over rounds) with --trace 0, the per-layer metrics of one traced
round with --trace 1.  Build and progress logs go to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

START = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
PB_BUILD = os.path.join(BUILD, "perfbench")
CAMPAIGN = os.path.join(REPO_BUILD, "tools", "gpudiff-campaign")
SERVE = os.path.join(REPO_BUILD, "tools", "gpudiff-serve")
REDUCE = os.path.join(REPO_BUILD, "tools", "gpudiff-reduce")
PB_TRACE = os.path.join(PB_BUILD, "pb-trace")
PB_ORACLE = os.path.join(PB_BUILD, "pb-oracle")

sys.path.insert(0, HERE)
import check  # noqa: E402

NPROC = os.cpu_count() or 1
FLEET = max(1, NPROC - 1)
LEVELS = 5
WIDE_PLATFORMS = "nvcc,hipcc,hipcc-ftz,nvcc-fastmath"
MINIMALITY_SAMPLE = 3  # bundles per report checked for 1-minimality


class Campaign:
    """One gpudiff-campaign definition of a workload."""

    def __init__(self, name, args, programs, inputs, platforms):
        self.name, self.args = name, args
        self.programs, self.inputs, self.platforms = programs, inputs, platforms

    @property
    def comparisons(self):
        return self.programs * self.inputs * LEVELS

    def command(self, seed, programs=None):
        n = self.programs if programs is None else programs
        return [CAMPAIGN, *self.args, "-p", str(n), "-i", str(self.inputs),
                "-S", str(seed)]


WORKLOADS = {
    # Paper Table IV at its defaults: 7 inputs, all levels, nvcc,hipcc.
    "table4": [
        Campaign("fp64", ["-P", "fp64"], 3540, 7, 2),
        Campaign("hipify", ["-P", "fp64", "--hipify"], 3540, 7, 2),
        Campaign("fp32", ["-P", "fp32"], 2840, 7, 2),
    ],
    # Every built-in platform and 32 inputs: lane groups fill several times
    # per call, and the FP32 report holds ~26k records.
    "wide_nway": [
        Campaign("fp64", ["-P", "fp64", "-F", WIDE_PLATFORMS], 1120, 32, 4),
        Campaign("fp32", ["-P", "fp32", "-F", WIDE_PLATFORMS], 1120, 32, 4),
    ],
    # One paper FP64 campaign, three ways on nproc - 1 cores.
    "multicore": [Campaign("fp64", ["-P", "fp64"], 3540, 7, 2)],
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def build():
    """Release build of the repository's CLIs, then of the benchmark's own
    programs against that library.  Output goes to stderr."""
    def sh(*cmd):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)

    if not os.path.exists(os.path.join(REPO_BUILD, "CMakeCache.txt")):
        sh("cmake", "-S", ROOT, "-B", REPO_BUILD, "-DCMAKE_BUILD_TYPE=Release",
           "-DBUILD_TESTING=OFF")
    sh("cmake", "--build", REPO_BUILD, "-j", str(NPROC), "--target",
       "gpudiff", "gpudiff-campaign", "gpudiff-serve", "gpudiff-reduce")
    if not os.path.exists(os.path.join(PB_BUILD, "CMakeCache.txt")):
        sh("cmake", "-S", HERE, "-B", PB_BUILD, "-DCMAKE_BUILD_TYPE=Release",
           f"-DGPUDIFF_BUILD_DIR={REPO_BUILD}")
    sh("cmake", "--build", PB_BUILD, "-j", str(NPROC))


def log_environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = subprocess.run([CAMPAIGN, "-p", "0"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
    engine = probe.stderr.strip().splitlines()[0] if probe.stderr else "?"
    log(f"cpu: {model}; nproc {NPROC}; {engine}")


# --------------------------------------------------------------------------
# Processes


class Proc:
    """One finished child: exit code, timing and its own rusage."""

    def __init__(self, cmd, rc, start, end, exit_wall, ru, out):
        self.cmd, self.rc, self.start, self.end = cmd, rc, start, end
        self.exit_wall = exit_wall  # time.time() at exit, for mtime math
        self.cpu = ru.ru_utime + ru.ru_stime
        self.sys = ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.out = out


class Round:
    """The processes of one round of a workload, in launch order."""

    def __init__(self, workdir):
        self.dir = workdir
        self.procs = []
        self.serial = 0

    def run(self, *cmds):
        """Launch `cmds` together and wait for all of them."""
        started = []
        try:
            for cmd in cmds:
                self.serial += 1
                out_path = os.path.join(self.dir, f"proc-{self.serial}.log")
                with open(out_path, "wb") as out:
                    t = time.monotonic()
                    p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
                started.append((p, cmd, t, out_path))
            done = []
            for p, cmd, t, out_path in started:
                _, status, ru = os.wait4(p.pid, 0)
                end, exit_wall = time.monotonic(), time.time()
                p.returncode = os.waitstatus_to_exitcode(status)
                with open(out_path, errors="replace") as f:
                    text = f.read()
                done.append(Proc(cmd, p.returncode, t, end, exit_wall, ru, text))
        except BaseException:
            for p, *_ in started:
                if p.returncode is None:
                    p.kill()
                    p.wait()
            raise
        self.procs += done
        for proc in done:
            if proc.rc != 0:
                log(f"exit {proc.rc}: {' '.join(proc.cmd)}\n{proc.out[-2000:]}")
        return done

    @property
    def peak_rss_mb(self):
        return max(p.rss_mb for p in self.procs)


def ok(procs):
    return all(p.rc == 0 for p in procs)


# --------------------------------------------------------------------------
# Rounds


class Output:
    """A report one way of running a campaign wrote, and whether its
    commands all succeeded."""

    def __init__(self, campaign, path, procs):
        self.campaign, self.path, self.ok = campaign, path, ok(procs)


def run_single(rnd, campaigns, seed, programs=None):
    """Each campaign in its own process on one thread."""
    outputs = []
    for c in campaigns:
        path = os.path.join(rnd.dir, f"{c.name}.json")
        procs = rnd.run(c.command(seed, programs) +
                        ["-t", "1", "--report-v2", "--report", path])
        outputs.append(Output(c, path, procs))
    return outputs


def run_three_ways(rnd, c, seed, programs=None):
    """One campaign as in-process threads, a --worker lease fleet and a
    fixed --shard carve, on FLEET cores each; returns (outputs, carve facts)."""
    base = c.command(seed, programs)
    facts = {}
    procs = []

    def timed(key, *cmds):
        t = time.monotonic()
        done = rnd.run(*cmds)
        facts[key] = facts.get(key, 0.0) + time.monotonic() - t
        procs.extend(done)
        return done

    threads = os.path.join(rnd.dir, "threads.json")
    done = timed("threads_s", base + ["-t", str(FLEET), "--report-v2", "--report", threads])
    outputs = [Output(c, threads, done)]

    leases = os.path.join(rnd.dir, "leases")
    workers = timed("lease_s", *[base + ["-t", "1", "--worker", leases,
                                         "--worker-id", f"w{i}"] for i in range(FLEET)])
    fleet = os.path.join(rnd.dir, "fleet.json")
    merge = timed("merge_s", [CAMPAIGN, "--merge", "--checkpoint-dir", leases,
                              "--report-v2", "--report", fleet])
    outputs.append(Output(c, fleet, workers + merge))

    shards = os.path.join(rnd.dir, "shards")
    carve = timed("shard_s", *[base + ["-t", "1", "--shard", f"{i}/{FLEET}",
                                       "--checkpoint-dir", shards] for i in range(FLEET)])
    carved = os.path.join(rnd.dir, "shards.json")
    merge = timed("merge_s", [CAMPAIGN, "--merge", "--checkpoint-dir", shards,
                              "--report-v2", "--report", carved])
    outputs.append(Output(c, carved, carve + merge))

    done_files = [os.path.join(leases, f) for f in os.listdir(leases)
                  if f.endswith(".done.json")] if os.path.isdir(leases) else []
    newest = max((os.stat(f).st_mtime for f in done_files), default=None)
    last_exit = max(p.exit_wall for p in workers)
    facts["idle_tail_s"] = last_exit - newest if newest is not None else 0.0
    facts["leases"] = len(done_files)
    facts["done_bytes"] = sum(os.path.getsize(f) for f in done_files)
    facts["leases_stolen"] = sum(_stolen(p.out) for p in workers)
    facts["checkpoint_bytes"] = sum(
        os.path.getsize(os.path.join(shards, f)) for f in os.listdir(shards)
    ) if os.path.isdir(shards) else 0
    facts["sys_cpu_s"] = sum(p.sys for p in procs)
    return outputs, facts


def _stolen(text):
    for line in text.splitlines():
        if line.startswith("worker finished:"):
            return int(line.split(",")[-1].split()[0])
    return 0


def triage(rnd, outputs):
    """gpudiff-serve --ingest, then gpudiff-reduce --from-report, per report;
    returns {report path: bundle dir}."""
    store = os.path.join(rnd.dir, "store")
    bundles = {}
    for o in outputs:
        label = os.path.splitext(os.path.basename(o.path))[0]
        out = os.path.join(rnd.dir, "bundles", label)
        rnd.run([SERVE, "--store", store, "--ingest", o.path, "--commit", label])
        rnd.run([REDUCE, "--from-report", o.path, "--store", store,
                 "--commit", label, "--out", out])
        bundles[o.path] = out
    return bundles


def run_round(workload, rnd, seed, programs=None):
    """One round; returns (all outputs, the triaged ones, bundle dirs,
    campaign seconds, triage seconds, carve facts)."""
    campaigns = WORKLOADS[workload]
    t = time.monotonic()
    facts = None
    if workload == "multicore":
        outputs, facts = run_three_ways(rnd, campaigns[0], seed, programs)
        triaged = outputs[:1]
    else:
        outputs = run_single(rnd, campaigns, seed, programs)
        triaged = outputs
    campaign_s = time.monotonic() - t
    t = time.monotonic()
    bundles = triage(rnd, triaged)
    triage_s = time.monotonic() - t
    return outputs, triaged, bundles, campaign_s, triage_s, facts


# --------------------------------------------------------------------------
# Checking


def digest(paths):
    """Content digest of files and directories (a missing one included)."""
    h = hashlib.sha256()
    for path in paths:
        if not os.path.exists(path):
            h.update(b"missing:" + path.encode())
            continue
        names = sorted(os.listdir(path)) if os.path.isdir(path) else [""]
        for name in names:
            full = os.path.join(path, name) if name else path
            h.update(name.encode())
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def check_round(outputs, triaged, bundles, seed, workdir):
    """Full check of one round.  Returns (problems, attempted, failed).

    Outputs of the same campaign (the multicore ways) must be byte-identical
    to the first of them, which is checked in full."""
    problems = []
    attempted = failed = 0
    reports = {}
    for i, o in enumerate(outputs):
        attempted += o.campaign.comparisons
        twin = next((p for p in outputs[:i] if p.campaign is o.campaign), None)
        bad = []
        if not o.ok or not os.path.exists(o.path):
            bad.append(f"{o.path}: a command failed or wrote no report")
        elif twin is not None:
            if digest([o.path]) != digest([twin.path]):
                bad.append(f"{o.path} differs from {twin.path}")
        else:
            with open(o.path) as f:
                reports[o.path] = json.load(f)
            c = o.campaign
            bad += check.check_report(reports[o.path], c.programs, c.inputs,
                                      c.platforms)
            bad += check.check_oracle(
                PB_ORACLE, o.path, reports[o.path],
                check.new_rng(seed, o.path), os.path.join(workdir, "oracle.json"))
        if bad:
            failed += o.campaign.comparisons
            problems += bad
    for o in triaged:
        report = reports.get(o.path)
        if report is None:
            continue
        bad, n_keys, missing = check.check_bundles(
            PB_ORACLE, report, bundles[o.path], MINIMALITY_SAMPLE,
            check.new_rng(seed, bundles[o.path]),
            os.path.join(workdir, "oracle.json"))
        attempted += n_keys
        failed += missing
        problems += bad
    return problems, attempted, failed


# --------------------------------------------------------------------------
# Per-layer numbers from the traced run


def self_times(spans):
    """Self time per span name: a span's duration minus the part of its
    interval its children cover.  `spans` holds (id, parent, name, start,
    end) tuples; returns {name: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    totals = {}
    for sid, _, name, start, end in spans:
        covered = 0
        cursor = start
        for a, b in sorted(children.get(sid, [])):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        totals[name] = totals.get(name, 0.0) + (end - start - covered) * 1e-9
    return totals


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(start), int(end)))
    return spans


# (metric, unit, source): source is a span name (self seconds) or a count.
LAYER_TIMES = [
    ("gen.generate_s", "gen.generate"), ("gen.inputs_s", "gen.inputs"),
    ("opt.compile_s", "opt.compile"), ("opt.lower_s", "opt.lower"),
    ("vgpu.exec_s", "vgpu.exec"), ("diff.classify_s", "diff.classify"),
    ("diff.record_s", "diff.record"), ("campaign.report_s", "campaign.report"),
    ("store.ingest_s", "store.ingest"),
]
COUNTS = [
    ("gen.programs", "count"), ("gen.ir_nodes", "count"),
    ("opt.compiles", "count"), ("opt.ir_nodes_out", "count"),
    ("opt.bytecode_insns", "count"), ("vgpu.runs", "count"),
    ("vgpu.ops", "count"), ("vgpu.cycles", "count"),
    ("vgpu.lane_programs", "count"), ("vgpu.lane_group_inputs", "count"),
    ("vgpu.scalar_inputs", "count"), ("diff.comparisons", "count"),
    ("diff.discrepancies", "count"), ("diff.records", "count"),
    ("campaign.report_bytes", "bytes"), ("store.bytes", "bytes"),
    ("reduce.records", "count"), ("reduce.record_s_median", "s"),
    ("reduce.record_s_max", "s"), ("reduce.checks", "count"),
    ("reduce.stmts_in", "count"), ("reduce.stmts_out", "count"),
    ("reduce.bundle_bytes", "bytes"),
]
CARVE = [
    ("campaign.threads_s", "threads_s", "s"), ("campaign.lease_s", "lease_s", "s"),
    ("campaign.shard_s", "shard_s", "s"), ("campaign.merge_s", "merge_s", "s"),
    ("campaign.idle_tail_s", "idle_tail_s", "s"), ("campaign.leases", "leases", "count"),
    ("campaign.leases_stolen", "leases_stolen", "count"),
    ("campaign.done_bytes", "done_bytes", "bytes"),
    ("campaign.checkpoint_bytes", "checkpoint_bytes", "bytes"),
    ("campaign.sys_cpu_s", "sys_cpu_s", "s"),
]


def traced(workload, workdir, seed, outputs, campaign_s, facts):
    """The traced run after one untraced round (its outputs, campaign time
    and carve facts): pb-trace over the round's reports.  Returns
    (problems, metrics)."""
    problems = []
    campaigns = WORKLOADS[workload]
    os.makedirs(workdir)
    if workload == "multicore":
        # Untraced one-thread reference for the overhead, same campaign.
        rnd = Round(workdir)
        single = run_single(rnd, campaigns, seed)
        untraced_s = rnd.procs[-1].end - rnd.procs[-1].start
        reports = [outputs[0].path]
        if digest([single[0].path]) != digest([outputs[0].path]):
            problems.append("one-thread report differs from the threads report")
    else:
        untraced_s = campaign_s
        reports = [o.path for o in outputs]
        # The campaign layer carries no load in a one-thread workload; carve
        # its first campaign the multicore way so every layer is measured.
        carve_dir = os.path.join(workdir, "carve")
        os.makedirs(carve_dir)
        carve_outputs, facts = run_three_ways(Round(carve_dir), campaigns[0], seed)
        for o in carve_outputs:
            if not o.ok or digest([o.path]) != digest([outputs[0].path]):
                problems.append(f"{o.path}: carve failed or differs from {outputs[0].path}")
    trace_dir = os.path.join(workdir, "trace")
    proc = subprocess.run([PB_TRACE, "--out", trace_dir, *reports],
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        return problems + [f"pb-trace exited {proc.returncode} (1: not reconciled)"], {}
    for path in reports:
        if digest([path]) != digest([os.path.join(trace_dir, os.path.basename(path))]):
            problems.append(f"traced report differs from {path}")
    with open(os.path.join(trace_dir, "counts.json")) as f:
        counts = json.load(f)
    spans = read_spans(os.path.join(trace_dir, "spans.tsv"))
    selfs = self_times(spans)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, span in LAYER_TIMES:
        put(name, selfs.get(span, 0.0), "s")
    for name, unit in COUNTS:
        put(name, counts[name], unit)
    put("vgpu.ns_per_op", selfs["vgpu.exec"] * 1e9 / max(1, counts["vgpu.ops"]), "ns")
    reduce_s = selfs.get("reduce.record", 0.0)
    put("reduce.check_s", reduce_s / max(1, counts["reduce.checks"]), "s")
    for name, key, unit in CARVE:
        put(name, facts[key], unit)
    loop_s = sum((s[4] - s[3]) * 1e-9 for s in spans
                 if s[2] in ("campaign", "campaign.report"))
    put("trace.loop_s", loop_s, "s")
    put("trace.untraced_s", untraced_s, "s")
    put("trace.overhead", loop_s / untraced_s - 1.0, "ratio")
    put("trace.other_s", sum(selfs.get(k, 0.0) for k in ("campaign", "program", "level")), "s")
    return problems, metrics


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    startup_s = time.monotonic() - START
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    log_environment()

    workdir = os.path.join(BUILD, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return measure(args, workdir, startup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir, startup_s):
    workload, seed = args.workload, args.seed
    # Set-up: this script's own start, then the workload's commands over an
    # empty campaign (--programs 0), once per run, before anything else.
    setup = Round(os.path.join(workdir, "setup"))
    os.makedirs(setup.dir)
    t = time.monotonic()
    run_round(workload, setup, seed, programs=0)
    setup_s = startup_s + time.monotonic() - t
    problems = [f"set-up: exit {p.rc}: {' '.join(p.cmd)}" for p in setup.procs if p.rc]

    attempted = failed = 0
    samples = []
    first = None
    measured = 0.0
    while True:
        rnd = Round(os.path.join(workdir, f"round-{len(samples) + 1}"))
        os.makedirs(rnd.dir)
        outputs, triaged, bundles, campaign_s, triage_s, facts = \
            run_round(workload, rnd, seed)
        measured += campaign_s + triage_s
        campaign_procs = len(rnd.procs) - 2 * len(triaged)
        runs = sum(o.campaign.comparisons * o.campaign.platforms for o in outputs)
        samples.append({"runs_per_s": runs / campaign_s,
                        "cpu_s": sum(p.cpu for p in rnd.procs[:campaign_procs]),
                        "peak_rss_mb": rnd.peak_rss_mb})
        files = [o.path for o in outputs] + sorted(bundles.values())
        if first is None:
            # Round 1 is checked in full; every later round must reproduce
            # its outputs byte for byte.
            bad, att, fail = check_round(outputs, triaged, bundles, seed, rnd.dir)
            first = (digest(files), att, fail)
            problems += bad
        else:
            att, fail = first[1], first[2]
            if digest(files) != first[0]:
                problems.append(f"round {len(samples)}: outputs differ from round 1")
                fail = att
        attempted += att
        failed += fail
        if args.trace:
            bad, metrics = traced(workload, os.path.join(workdir, "traced"), seed,
                                  outputs, campaign_s, facts)
            problems += bad
            break
        shutil.rmtree(rnd.dir)
        if measured >= args.seconds:
            break

    if not args.trace:
        def med(key):
            return statistics.median(s[key] for s in samples)

        metrics = {
            "runs_per_s": {"value": med("runs_per_s"), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }
        log(f"{workload}: {len(samples)} rounds; " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in metrics.items()))
        for s in samples:
            log("  round: " + ", ".join(f"{k} {v:.4g}" for k, v in s.items()))
    for p in problems:
        log(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
