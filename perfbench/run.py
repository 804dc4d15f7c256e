#!/usr/bin/env python3
"""End-to-end benchmark of the jsontool CLI, with a traced per-layer run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The benchmark builds jsontool and the in-process layer tracer from source
(dune, release profile, into perfbench/_work/build), generates the
workload's corpus from the seed, and computes the expected output of every
command once with the specification path (the tree engine, plus the
interpreted validator for validation). It then runs the real jsontool
binary as a closed loop: one client, one job at a time. Every invocation's
exit code and standard output are compared byte for byte with the
expected ones.

--trace 0 reports the job-level metrics of BENCHMARK.json's end_to_end
list, with times scaled by runs of perfbench/reference bracketing each
invocation (see end_to_end and README.md); --trace 1 runs
perfbench/tracer, which calls each layer's public
functions on the same bytes, and reports the per_layer list. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the machine,
the corpus and the invocation counts. failed / attempted is the share of
invocations whose output differed from the reference (failed_frac).

--self-check runs every workload on tiny corpora and checks that every
metric of BENCHMARK.json is reported with its unit, that a corrupted
output is counted as failed, and that a seed gives byte-identical corpora.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
BUILD = os.path.join(WORK, "build")
PROFILE = "release"
JSONTOOL = os.path.join(BUILD, "default", "bin", "jsontool.exe")
TRACER = os.path.join(BUILD, "default", "perfbench", "tracer", "tracer.exe")
REFERENCE = os.path.join(BUILD, "default", "perfbench", "reference", "reference.exe")
# the reference program's duration on a 2-core x86-64 VM when the host
# is not contended
REFERENCE_NOMINAL_S = 0.125
ORDERS_SCHEMA = os.path.join(HERE, "orders_schema.json")

# documents per corpus: full size, and the tiny size of the self-check
SIZES = {
    "infer-tweets": (100000, 2000),
    "validate-orders": (100000, 2000),
    "check-sparse-j2": (50000, 2000),
}
WORKLOADS = list(SIZES)
JOBS = {"infer-tweets": 1, "validate-orders": 1, "check-sparse-j2": 2}
SETUP_RUNS_PER_JOB = 3  # one-document invocations after each timed one

# The layers whose self time adds up to the pipeline entry point, per
# workload (read happens before the pipeline; lex and rawscan are floors).
COMPONENTS = {
    "infer-tweets": ["shard", "type", "merge", "render"],
    "validate-orders": ["shard", "compile", "validate", "render"],
    "check-sparse-j2": ["shard", "type", "merge", "journal", "contain", "render"],
}
TIMED_LAYERS = ["read", "shard", "lex", "rawscan", "type", "merge", "render",
                "compile", "validate", "contain", "journal"]
# the tracer's counts (first traced pass) and their units
COUNTS = {"shard.count": "count", "lex.tokens": "count",
          "type.alloc_mwords": "Mwords", "type.distinct_ratio": "ratio",
          "merge.alloc_mwords": "Mwords", "merge.hit_ratio": "ratio",
          "kernel.nodes": "count", "compile.plan_nodes": "count",
          "validate.alloc_mwords": "Mwords", "validate.failures": "count",
          "validate.skipped_share": "ratio", "journal.bytes": "bytes",
          "ingest.quarantined": "count", "supervisor.attempts_per_shard": "ratio"}


class Failure(Exception):
    """The benchmark cannot run here; exit without a result."""


def log(msg):
    print(msg, flush=True)


# --- build ------------------------------------------------------------------

def build():
    for need in ("dune-project", os.path.join("bin", "jsontool.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise Failure("no %s at the repository root: nothing to build" % need)
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, XDG_CACHE_HOME=os.path.join(WORK, "cache"))
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--profile", PROFILE, "-j", "2", "--cache", "disabled",
           "bin/jsontool.exe", "perfbench/tracer/tracer.exe",
           "perfbench/reference/reference.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT)
    except OSError as e:
        raise Failure("cannot run dune: %s" % e)
    if p.returncode != 0 or not os.path.exists(JSONTOOL):
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        raise Failure("build failed")


def machine_record():
    def out(cmd):
        try:
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL)
            return p.stdout.decode().strip() if p.returncode == 0 else None
        except OSError:
            return None
    commit = out(["git", "rev-parse", "HEAD"])
    if commit is None:
        # an exported checkout has no history: fingerprint the sources
        h = hashlib.sha256()
        for top in ("bin", "lib", "perfbench"):
            for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
                dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
                for f in sorted(files):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
        commit = "source-sha256:" + h.hexdigest()[:16]
    return {"nproc": len(os.sched_getaffinity(0)),
            "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
            "dune_profile": PROFILE, "commit": commit}


# --- inputs -------------------------------------------------------------------

def make_inputs(workload, seed, work, tiny=False):
    """Generate the workload's files in `work` from `seed` (see
    corpora.py). This runs in a child process so the corpora never enter
    this one: a child started from here carries this process's resident
    set until it execs, and wait4 would report it as the job's peak RSS."""
    n = SIZES[workload][1 if tiny else 0]
    p = subprocess.run([sys.executable, os.path.join(HERE, "corpora.py"), workload,
                        str(seed), str(n), work, JSONTOOL, ORDERS_SCHEMA],
                       stdout=subprocess.PIPE)
    if p.returncode != 0:
        raise Failure("generating the %s corpus failed" % workload)
    return json.loads(p.stdout)


def command(workload, inp, doc_file, checkpoint, spec=False):
    """The job's command line; `spec` selects the specification path."""
    if workload == "infer-tweets":
        cmd = [JSONTOOL, "infer", "-o", "jsonschema"]
    elif workload == "validate-orders":
        cmd = [JSONTOOL, "validate", "-s", inp["schema"]]
        if spec:
            cmd += ["--compiled", "off"]
    else:
        cmd = [JSONTOOL, "check", "--retries", "1", "--checkpoint", checkpoint,
               "--stats-json", "-s", inp["schema"]]
    if spec:
        cmd += ["--engine", "tree"]
    return cmd + ["--jobs", str(JOBS[workload]), doc_file]


# --- running jobs ---------------------------------------------------------------

def reference_s(copies):
    """Wall clock of `copies` simultaneous runs of the fixed reference
    program, one per domain the job uses, from the first spawn to the
    last exit."""
    t0 = time.perf_counter()
    procs = [subprocess.Popen([REFERENCE]) for _ in range(copies)]
    try:
        codes = [p.wait() for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(codes):
        raise Failure("the reference program failed")
    return time.perf_counter() - t0


class Job:
    """One jsontool invocation: wall clock from spawn to exit, CPU and peak
    RSS from wait4, standard output to a file."""

    def __init__(self, cmd, work, checkpoint):
        self.cmd, self.work, self.checkpoint = cmd, work, checkpoint
        self.out = os.path.join(work, "stdout")

    def run(self):
        if os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)  # a fresh journal for every run
        with open(self.out, "wb") as out, \
                open(os.path.join(self.work, "stderr"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.cmd, stdout=out, stderr=err)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        with open(self.out, "rb") as f:
            stdout = f.read()
        return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                "rss_kb": ru.ru_maxrss, "rc": proc.returncode, "stdout": stdout}


class Oracle:
    """Expected (exit code, stdout) per input file, from the spec path;
    counts every compared invocation and every mismatch."""

    def __init__(self):
        self.expected = {}
        self.attempted = 0
        self.failed = 0

    def learn(self, key, job):
        r = job.run()
        self.expected[key] = (r["rc"], r["stdout"])

    def check(self, key, rc, stdout):
        self.attempted += 1
        if self.expected[key] != (rc, stdout):
            self.failed += 1


def fresh_workdir(workload, seed, trace):
    work = os.path.join(WORK, "runs", "%s-%d-%d-%d" % (workload, seed, trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def prepare(workload, seed, work, tiny):
    inp = make_inputs(workload, seed, work, tiny)
    ck = os.path.join(work, "checkpoint.ndjson")
    jobs = {k: Job(command(workload, inp, inp[k], ck), work, ck) for k in ("input", "one")}
    oracle = Oracle()
    for k in ("input", "one"):
        oracle.learn(k, Job(command(workload, inp, inp[k], ck, spec=True), work, ck))
    log("corpus: workload=%s seed=%d bytes=%d docs=%d seeded_faults=%d"
        % (workload, seed, inp["bytes"], inp["docs"], inp["faults"]))
    return inp, jobs, oracle


def corpus_record(inp):
    return {k: inp[k] for k in ("bytes", "docs", "faults")}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, tiny=False, corrupt=False):
    """The closed loop: a run of the reference program, a timed invocation
    on the corpus, one-document invocations, repeated, and a last
    reference run. The invocations between two reference runs have their
    times scaled by REFERENCE_NOMINAL_S / (the mean of the two), i.e.
    they are reported at the machine speed where the reference takes its
    nominal time; the unscaled medians go to the record."""
    work = fresh_workdir(workload, seed, 0)
    try:
        inp, jobs, oracle = prepare(workload, seed, work, tiny)
        main, setup = [], []

        def timed(key, flip=False):
            r = jobs[key].run()
            stdout = r["stdout"]
            if flip:  # the self-check's deliberately corrupted output
                stdout = bytes([stdout[0] ^ 1]) + stdout[1:]
            oracle.check(key, r["rc"], stdout)
            return r

        copies = JOBS[workload]
        refs = [reference_s(copies)]
        deadline = time.perf_counter() + seconds
        while len(main) < 3 or time.perf_counter() < deadline:
            m = timed("input", flip=corrupt)
            ones = [timed("one") for _ in range(SETUP_RUNS_PER_JOB)]
            refs.append(reference_s(copies))
            scale = REFERENCE_NOMINAL_S / ((refs[-2] + refs[-1]) / 2.0)
            for r in [m] + ones:
                r["scale"] = scale
            main.append(m)
            setup.extend(ones)
        wall = median([r["wall"] * r["scale"] for r in main])
        raw = {"wall_s": median([r["wall"] for r in main]),
               "cpu_s": median([r["cpu"] for r in main]),
               "setup_s": median([r["wall"] for r in setup]),
               "reference_s": median(refs)}
        log("invocations: timed=%d setup=%d attempted=%d failed=%d failed_frac=%.4f"
            % (len(main), len(setup), oracle.attempted, oracle.failed,
               oracle.failed / oracle.attempted))
        log("unscaled medians: " + json.dumps(raw, sort_keys=True))
        metrics = {
            "wall_s": metric(wall, "s"),
            "mb_per_s": metric(inp["bytes"] / 1e6 / wall, "MB/s"),
            "cpu_s": metric(median([r["cpu"] * r["scale"] for r in main]), "s"),
            "peak_rss_mb": metric(max(r["rss_kb"] for r in main) / 1024.0, "MB"),
            "setup_s": metric(median([r["wall"] * r["scale"] for r in setup]), "s"),
        }
        return oracle, metrics, {"unscaled": raw, "corpus": corpus_record(inp),
                                 "invocations": {"timed": len(main), "setup": len(setup)}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_times(spans):
    """Per traced pass, the self time (ms) of each named layer: its spans'
    durations minus what their child spans cover, summed by name."""
    dur = {s["id"]: (s["end"] - s["start"]) * 1000.0 for s in spans}
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + dur[s["id"]]
    passes = {}
    for s in spans:
        layers = passes.setdefault(s["pass"], {})
        layers[s["name"]] = layers.get(s["name"], 0.0) + dur[s["id"]] - child.get(s["id"], 0.0)
    return passes


def traced(workload, seed, seconds, tiny=False):
    work = fresh_workdir(workload, seed, 1)
    try:
        inp, jobs, oracle = prepare(workload, seed, work, tiny)
        walls = []
        for _ in range(3):
            r = jobs["input"].run()
            oracle.check("input", r["rc"], r["stdout"])
            walls.append(r["wall"] * 1000.0)
        spans_path = os.path.join(work, "spans.json")
        render_path = os.path.join(work, "render.txt")
        cmd = [TRACER, "--workload", workload, "--input", inp["input"],
               "--work", work, "--seconds", str(max(1.0, seconds / 2.0)),
               "--spans", spans_path, "--render", render_path]
        if inp["schema"]:
            cmd += ["--schema", inp["schema"]]
        p = subprocess.run(cmd, stdout=subprocess.PIPE)
        if p.returncode != 0:
            raise Failure("tracer failed on %s" % workload)
        report = json.loads(p.stdout.decode().strip().splitlines()[-1])
        counts = report["counts"]
        # the in-process layers must reproduce the job's output exactly
        with open(render_path, "rb") as f:
            oracle.check("input", oracle.expected["input"][0], f.read())
        # and the seeded faults must be found, no more and no fewer
        seeded = {"validate-orders": "validate.failures",
                  "check-sparse-j2": "ingest.quarantined"}.get(workload)
        if seeded:
            oracle.attempted += 1
            if counts[seeded] != inp["faults"]:
                oracle.failed += 1
        with open(spans_path) as f:
            spans = json.load(f)
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        shutil.copy(spans_path, os.path.join(WORK, "traces", "%s-%d.json" % (workload, seed)))
        passes = list(self_times(spans).values())
        ms = {name: median([p.get(name, 0.0) for p in passes])
              for name in TIMED_LAYERS + ["pass", "pipeline", "pipeline.alt",
                                          "pipeline.telemetry"]}
        jobs_one, jobs_two = ((ms["pipeline"], ms["pipeline.alt"])
                              if workload != "check-sparse-j2"
                              else (ms["pipeline.alt"], ms["pipeline"]))
        log("layer self time (median of %d traced passes):" % len(passes))
        for name, v in sorted(ms.items(), key=lambda kv: -kv[1]):
            if v > 0:
                log("  %-20s %10.2f ms" % (name, v))
        traced_pass = median([(s["end"] - s["start"]) * 1000.0
                              for s in spans if s["parent"] is None])
        metrics = {name + ".ms": metric(ms[name], "ms") for name in TIMED_LAYERS}
        for name, unit in COUNTS.items():
            metrics[name] = metric(counts.get(name, 0.0), unit)
        metrics["lex.mb_per_s"] = metric(
            inp["bytes"] / 1e6 / (ms["lex"] / 1000.0) if ms["lex"] > 0 else 0.0, "MB/s")
        metrics["pipeline.ms"] = metric(ms["pipeline"], "ms")
        metrics["pipeline.j2_speedup"] = metric(jobs_one / jobs_two, "ratio")
        metrics["process.overhead_ms"] = metric(
            median(walls) - ms["read"] - ms["pipeline"], "ms")
        metrics["telemetry.overhead_ratio"] = metric(
            ms["pipeline.telemetry"] / ms["pipeline"], "ratio")
        metrics["trace.coverage"] = metric(
            sum(ms[k] for k in COMPONENTS[workload]) / ms["pipeline"], "ratio")
        metrics["trace.overhead"] = metric(
            traced_pass / median(report["untraced_ms"]), "ratio")
        log("trace: traced_passes=%d untraced_passes=%d type.distinct_ratio=%.4f"
            % (report["traced_passes"], len(report["untraced_ms"]),
               counts.get("type.distinct_ratio", 0.0)))
        return oracle, metrics, {"corpus": corpus_record(inp), "layer_ms": ms,
                                 "jsontool_wall_ms": walls}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_line(oracle, metrics):
    return json.dumps({"correct": oracle.failed == 0, "attempted": oracle.attempted,
                       "failed": oracle.failed, "metrics": metrics})


def run(args):
    build()
    machine = machine_record()
    log("machine: " + json.dumps(machine, sort_keys=True))
    measure = traced if args.trace else end_to_end
    oracle, metrics, record = measure(args.workload, args.seed, args.seconds)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"machine": machine, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "attempted": oracle.attempted, "failed": oracle.failed,
                   "metrics": metrics, **record}, f, indent=1)
    log(result_line(oracle, metrics))


# --- self-check ---------------------------------------------------------------

def self_check():
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            oracle, metrics, _ = (traced if trace else end_to_end)(w, 1, 1, tiny=True)
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in metrics.items()}
            if want != got:
                problems.append("%s trace %d: metrics %s, declared %s" % (w, trace, got, want))
            if oracle.failed:
                problems.append("%s trace %d: %d of %d outputs differ from the reference"
                                % (w, trace, oracle.failed, oracle.attempted))
        oracle, _, _ = end_to_end(w, 1, 0, tiny=True, corrupt=True)
        if oracle.failed != 3:  # three timed invocations, all corrupted
            problems.append("%s: corrupted outputs counted as %d failures, not 3"
                            % (w, oracle.failed))
        digests = []
        for seed in (5, 5, 6):
            work = fresh_workdir(w, seed, 2)
            inp = make_inputs(w, seed, work, tiny=True)
            h = hashlib.sha256()
            for k in ("input", "schema"):
                if inp[k]:
                    with open(inp[k], "rb") as f:
                        h.update(f.read())
            digests.append(h.hexdigest())
            shutil.rmtree(work)
        if digests[0] != digests[1] or digests[0] == digests[2]:
            problems.append("%s: corpora are not a function of the seed" % w)
    for p in problems:
        log("self-check: FAIL " + p)
    log("self-check: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            ap.error("--workload is required")
        run(args)
        return 0
    except Failure as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
