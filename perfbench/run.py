#!/usr/bin/env python3
"""The eproc benchmark: four workloads run with the `eproc` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
    python3 perfbench/run.py --smoke [--out DIR]
    python3 perfbench/run.py --describe

Run from the root of a checkout. The harness builds `eproc` and the layer
probes (`perfbench/layers`) from source into `$CARGO_TARGET_DIR`
(default `.bench_build`), then:

* `--trace 0` runs the workload as a user would, tracing off, one job at a
  time on 2 threads, repeating it for `--seconds`; checks every output
  (the correctness gates below) and prints the end-to-end metrics;
* `--trace 1` runs it once untraced and once with `--telemetry`, drives
  the executor through the probes' recording sink, times each layer's
  public calls, and prints the per-layer metrics;
* `--smoke` runs every workload at a tiny size through its gates.

Every `eproc` invocation is one attempted operation. It fails when its
exit status is not 0, when its artifact differs from the reference run
(repeats, the `--threads 1` run, resumed and merged outputs, and the
traced run all must be byte-identical), or, on `sweep-even`, when the
E-process `steps` series does not prefer a linear law (`c*m`, or `a+b*m`
when the intercept earns its parameter) over `c*n*ln(n)`. `failed /
attempted` is the error rate. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREADS = 2
# A child that outlives this is killed and counted as failed.
CHILD_TIMEOUT_S = 150
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

SMALL_METRICS_GRID = [
    "--graph", "torus:32,32", "--graph", "hypercube:10", "--graph", "regular:1024,4",
    "--process", "eprocess,srw",
    "--metrics", "cover,blanket:0.5,phases,bluecensus,hitting",
]


def cubic(trials):
    return ["run", "cubicensemble", "--scale", "quick", "--trials", str(trials)]


# name -> eproc arguments and tiny smoke-mode arguments. A `persist`
# workload writes a checkpoint and 2 shards once per run, then times the
# read path as wall_s: `--resume` from the final checkpoint plus `eproc
# merge` of the shards. The `--checkpoint` run itself (750 synced writes)
# is gated but not timed there: back to back its wall moved by 27% between
# quartiles, against 10-12% for the reads; `persist.checkpoint_s` and the
# `checkpoint.*` layer metrics measure it in the traced run.
WORKLOADS = {
    "sweep-even": {
        "argv": ["scale", "scaling-even", "--scale", "paper", "--trials", "12"],
        "smoke": ["scale", "scaling-even", "--scale", "quick"],
        "verdict": True,
    },
    "shared-comparison": {
        "argv": ["run", "comparison", "--scale", "paper"],
        "smoke": ["run", "comparison", "--scale", "quick", "--trials", "2"],
    },
    "small-metrics": {
        "argv": ["compare", *SMALL_METRICS_GRID, "--trials", "256"],
        "smoke": ["compare", *SMALL_METRICS_GRID, "--trials", "4"],
    },
    "persist-roundtrip": {
        "argv": cubic(500),
        "smoke": cubic(24),
        "persist": True,
    },
}
# Which end-to-end metric, on which workload, each layer metric should move.
# None: no end-to-end metric times it (the checkpoint write path, and the
# artifact cache, which no workload uses).
LAYER_MAP = {
    "graphs.regular4_ns_per_vertex.n16k": ("wall_s", "sweep-even"),
    "graphs.regular4_ns_per_vertex.n256k": ("wall_s", "sweep-even"),
    "graphs.geometric_ns_per_vertex.n20k": ("setup_s", "shared-comparison"),
    "graphs.attempts_per_graph": ("wall_s", "sweep-even"),
    "core.eprocess_ns_per_step.n4k": ("wall_s", "small-metrics"),
    "core.eprocess_ns_per_step.n64k": ("steps_per_s", "sweep-even"),
    "core.eprocess_ns_per_step.n256k": ("steps_per_s", "sweep-even"),
    "core.eprocess_ns_per_step.n1m": ("steps_per_s", "sweep-even"),
    "core.srw_ns_per_step.n4k": ("wall_s", "shared-comparison"),
    "core.srw_ns_per_step.n256k": ("wall_s", "shared-comparison"),
    "core.interleave_w4_ns_per_step.n1m": ("steps_per_s", "sweep-even"),
    "core.trial_setup_ns": ("wall_s", "small-metrics"),
    "observe.cover_ns_per_step": ("wall_s", "small-metrics"),
    "observe.blanket_ns_per_step": ("wall_s", "small-metrics"),
    "observe.phases_ns_per_step": ("wall_s", "small-metrics"),
    "observe.bluecensus_ns_per_step": ("wall_s", "small-metrics"),
    "observe.hitting_ns_per_step": ("wall_s", "small-metrics"),
    "stats.sketch_push_ns": ("wall_s", "small-metrics"),
    "stats.sketch_merge_us": ("wall_s", "persist-roundtrip"),
    "executor.utilization": ("wall_s", "shared-comparison"),
    "executor.idle_s": ("wall_s", "shared-comparison"),
    "executor.straggler_share": ("wall_s", "shared-comparison"),
    "executor.gen_share": ("wall_s", "sweep-even"),
    "executor.agg_ms": ("wall_s", "small-metrics"),
    "executor.parallel_efficiency": ("wall_s", "shared-comparison"),
    "shard.save_mb_s": ("wall_s", "persist-roundtrip"),
    "shard.load_mb_s": ("wall_s", "persist-roundtrip"),
    "shard.load_mb_s.x2": ("wall_s", "persist-roundtrip"),
    "shard.merge_ms": ("wall_s", "persist-roundtrip"),
    "checkpoint.writes": (None, "persist-roundtrip"),
    "checkpoint.bytes_written": (None, "persist-roundtrip"),
    "checkpoint.write_ms": (None, "persist-roundtrip"),
    "checkpoint.load_mb_s": ("wall_s", "persist-roundtrip"),
    "cache.store_ms": (None, None),
    "cache.hit_us": (None, None),
    "digest.spec_us": (None, None),
    "persist.checkpoint_s": (None, "persist-roundtrip"),
    "persist.resume_s": ("wall_s", "persist-roundtrip"),
    "persist.merge_s": ("wall_s", "persist-roundtrip"),
    "report.to_json_ms": ("wall_s", "all"),
    "trace.overhead_s": ("wall_s", "all"),
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class HarnessError(Exception):
    """The harness itself cannot go on (build failed, probe crashed)."""


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds `eproc` and the layer probes; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(ROOT / "Cargo.toml"), "-p", "eproc-engine", "--bin", "eproc"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH_DIR / "layers" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise HarnessError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "eproc", release / "perfbench-layers"


def spawn(cmd):
    """Runs `cmd` to completion: (exit code, wall seconds, peak RSS MB)."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        # Drain stderr in a thread so a chatty child cannot block on a
        # full pipe while os.wait4 (which, unlike Popen.wait, reports the
        # child's resource usage) waits for it.
        errs = []
        reader = threading.Thread(target=lambda: errs.append(proc.stderr.read()))
        reader.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        reader.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"exit {proc.returncode}: {' '.join(map(str, cmd))}\n{errs[0].decode(errors='replace')}")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Ops:
    """Attempted and failed operations; every gate verdict lands here."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok


def read_bytes(path):
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


# The growth laws that mean "cover time is linear in m". `a+b*m` counts:
# the selector prefers it whenever its intercept earns its extra parameter
# (e.g. intercept -148 steps on a 512k-step series, slope 1.0000), which
# is the same Θ(m) law the paper claims; `c*n*ln(n)` is the failure.
LINEAR_LAWS = ("c*m", "a+b*m")


def prefers_linear(artifact):
    """The `sweep-even` verdict: the E-process `steps` series prefers a linear law."""
    try:
        laws = json.loads(artifact)["growth_laws"]
    except (ValueError, KeyError, TypeError):
        return False
    verdicts = [
        law.get("preferred")
        for law in laws
        if law.get("series") == "steps" and str(law.get("process", "")).startswith("e-process")
    ]
    return bool(verdicts) and all(v in LINEAR_LAWS for v in verdicts)


def telemetry_events(path):
    events = []
    with open(path) as f:
        for line in f:
            if line.strip():
                events.append(json.loads(line))
    return events


def total_steps(events):
    return sum(e["total_steps"] for e in events if e["event"] == "run_finished")


def executor_metrics(events):
    """Scheduler metrics from `block_claimed` / `block_completed` events.

    A block is busy from its claim to its completion (in shared mode one
    block completes once per process, so its last completion closes it).
    utilization = sum(busy) / (workers * wall); idle = workers * wall -
    sum(busy); straggler share = longest block / wall.
    """
    started = next(e for e in events if e["event"] == "run_started")
    finished = next(e for e in events if e["event"] == "run_finished")
    workers = started["workers"]
    wall = finished["wall_ns"]
    claimed, done = {}, {}
    gen = walk = 0
    for e in events:
        if e["event"] == "block_claimed":
            claimed[e["block"]] = e["t_ns"]
        elif e["event"] == "block_completed":
            done[e["block"]] = max(done.get(e["block"], 0), e["t_ns"])
            gen += e["gen_ns"]
            walk += e["walk_ns"]
        elif e["event"] == "graph_built":
            gen += e["gen_ns"]
    busy = [done[b] - claimed[b] for b in done]
    agg = sum(e["agg_ns"] for e in events if e["event"] == "aggregation_merged")
    return {
        "executor.utilization": sum(busy) / (workers * wall),
        "executor.idle_s": (workers * wall - sum(busy)) / 1e9,
        "executor.straggler_share": max(busy) / wall,
        "executor.gen_share": gen / (gen + walk) if gen + walk else 0.0,
        "executor.agg_ms": agg / 1e6,
    }


class Runner:
    """Runs one workload's `eproc` jobs in `out` and gates their outputs."""

    def __init__(self, eproc, out, seed, ops):
        self.eproc = eproc
        self.out = out
        self.seed = seed
        self.ops = ops
        self.count = 0

    def path(self, stem):
        self.count += 1
        return self.out / f"{self.count:04d}-{stem}"

    def run(self, argv, *extra, threads=THREADS, stem="run"):
        """Runs a job; returns (artifact bytes or None, wall s, peak RSS MB)."""
        artifact = self.path(f"{stem}.json")
        cmd = [str(self.eproc), *argv, *extra, "--threads", str(threads),
               "--seed", str(self.seed), "--quiet", "--json", str(artifact)]
        code, wall, rss = spawn(cmd)
        data = read_bytes(artifact) if code == 0 else None
        return data, wall, rss

    def gate(self, data, reference, what, verdict=False):
        ok = data is not None and data == reference
        if ok and verdict:
            ok = prefers_linear(data)
            what += " (linear-law verdict)"
        return self.ops.record(ok, what)

    def reference(self, argv, verdict=False):
        """The plain `--threads 1` run, traced for its step total."""
        events = self.path("reference.jsonl")
        data, _, _ = self.run(argv, "--telemetry", str(events), threads=1, stem="reference")
        ok = self.ops.record(data is not None and (not verdict or prefers_linear(data)),
                             "reference run at --threads 1")
        steps = total_steps(telemetry_events(events)) if ok else 0
        return data, steps

    def shards(self, argv):
        """Saves `argv` as two shards; returns their paths."""
        paths = []
        for i in range(2):
            shard = self.path(f"shard{i}.json")
            code, _, _ = spawn([str(self.eproc), *argv, "--shard", f"{i}/2", "--threads", str(THREADS),
                                "--seed", str(self.seed), "--quiet", "--json", str(shard)])
            self.ops.record(code == 0, f"shard {i}/2")
            paths.append(shard)
        return paths

    def merge(self, shards, reference):
        """Merges `shards`; returns (wall s, peak RSS MB)."""
        merged = self.path("merged.json")
        code, wall, rss = spawn([str(self.eproc), "merge", *map(str, shards), "--quiet", "--json", str(merged)])
        data = read_bytes(merged) if code == 0 else None
        self.gate(data, reference, "merged output equals the plain run")
        return wall, rss

    def resume(self, argv, checkpoint, reference):
        """Resumes `argv` from `checkpoint`; returns (wall s, peak RSS MB)."""
        data, wall, rss = self.run(argv, "--resume", str(checkpoint), stem="resumed")
        self.gate(data, reference, "resumed output equals the plain run")
        return wall, rss

    def checkpointed(self, argv, reference):
        checkpoint = self.path("ckpt.json")
        data, wall, rss = self.run(argv, "--checkpoint", str(checkpoint), stem="checkpointed")
        self.gate(data, reference, "checkpointed output equals the plain run")
        return checkpoint, wall, rss


def window(seconds, min_reps, step):
    """Calls `step()` until `seconds` have passed and `min_reps` calls ran."""
    start = time.perf_counter()
    reps = 0
    while reps < min_reps or time.perf_counter() - start < seconds:
        step()
        reps += 1


def measure_e2e(binaries, workload, seed, seconds, out, smoke=False):
    """The untraced run: (ops, end-to-end metrics)."""
    spec = WORKLOADS[workload]
    eproc, probes = binaries
    ops = Ops()
    runner = Runner(eproc, out, seed, ops)
    argv = spec["smoke" if smoke else "argv"]
    verdict = spec.get("verdict", False)

    setup = run_probe(probes, "setup", seed, out, ["--min-seconds", "0.2" if smoke else "1.0", "--", *argv])
    metrics = {"setup_s": setup["setup_s"]}
    walls, rss = [], []

    reference, steps = runner.reference(argv, verdict)
    if spec.get("persist"):
        shards = runner.shards(argv)
        checkpoint, _, _ = runner.checkpointed(argv, reference)

        def rep():
            resume, resume_rss = runner.resume(argv, checkpoint, reference)
            merge, merge_rss = runner.merge(shards, reference)
            walls.append(resume + merge)
            rss.append(max(resume_rss, merge_rss))
    else:
        def rep():
            data, wall, peak = runner.run(argv)
            runner.gate(data, reference, "repeat equals the --threads 1 run", verdict)
            walls.append(wall)
            rss.append(peak)

    window(seconds, 2, rep)
    wall = statistics.median(walls)
    metrics.update({
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "peak_rss_mb": statistics.median(rss),
    })
    log(f"{workload}: {len(walls)} timed runs, walls {[round(w, 3) for w in walls]}")
    return ops, metrics


def run_probe(probes, command, seed, out, extra):
    """Runs a layer probe; returns its last stdout line as a dict."""
    cmd = [str(probes), command, "--seed", str(seed), "--out", str(out), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"probe failed: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_layers(binaries, workload, seed, out):
    """The traced run: (ops, per-layer metrics)."""
    spec = WORKLOADS[workload]
    eproc, probes = binaries
    ops = Ops()
    runner = Runner(eproc, out, seed, ops)
    argv = spec["argv"]
    plain, untraced, _ = runner.run(argv)
    ops.record(plain is not None and (not spec.get("verdict") or prefers_linear(plain)), "untraced run")
    events = out / "cli-events.jsonl"
    traced, traced_wall, _ = runner.run(argv, "--telemetry", str(events), stem="traced")
    runner.gate(traced, plain, "traced output equals the untraced run")
    metrics = {"trace.overhead_s": traced_wall - untraced}

    persist = WORKLOADS["persist-roundtrip"]["argv"]
    persist_reference, _ = runner.reference(persist)
    checkpoint, metrics["persist.checkpoint_s"], _ = runner.checkpointed(persist, persist_reference)
    metrics["persist.resume_s"], _ = runner.resume(persist, checkpoint, persist_reference)
    metrics["persist.merge_s"], _ = runner.merge(runner.shards(persist), persist_reference)

    probe_events = out / "executor-events.jsonl"
    two = run_probe(probes, "executor", seed, out,
                    ["--threads", str(THREADS), "--events", str(probe_events), "--", *argv])
    one = run_probe(probes, "executor", seed, out, ["--threads", "1", "--", *argv])
    metrics.update(executor_metrics(telemetry_events(probe_events)))
    metrics["executor.parallel_efficiency"] = one["wall_s"] / (THREADS * two["wall_s"])
    metrics["report.to_json_ms"] = two["report.to_json_ms"]
    metrics.update(run_probe(probes, "layers", seed, out, []))
    return ops, metrics


def provenance():
    """Build and machine facts, plus computed working-set bytes per n tier."""

    def command(*cmd):
        # git must not look above the checkout for a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env).stdout
        except OSError:
            out = ""
        return out.strip() or "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass

    def cache_bytes(name):
        value = command("getconf", name)
        return int(value) if value.isdigit() else None

    tiers = {}
    for label, n in (("n4k", 4_000), ("n64k", 64_000), ("n256k", 256_000), ("n1m", 1_000_000)):
        m = 2 * n  # random 4-regular
        # offsets (usize) + arc targets and arc edge ids (u32 per arc) +
        # edge endpoints and edge arcs (2 x u32 per edge).
        csr = 8 * (n + 1) + 2 * 4 * (2 * m) + 2 * 8 * m
        # E-process visited-edge bitset + cover observer vertex bitset.
        bitsets = (m + 7) // 8 + (n + 7) // 8
        tiers[label] = {"n": n, "m": m, "csr_bytes_computed": csr, "bitset_bytes_computed": bitsets}
    return {
        "git_rev": command("git", "rev-parse", "HEAD"),
        "rustc": command("rustc", "-V"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "l2_bytes_per_core": cache_bytes("LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache_bytes("LEVEL3_CACHE_SIZE"),
        "tiers": tiers,
    }


def result_line(ops, metrics, declared):
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise HarnessError(f"metrics not measured: {missing}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def smoke(out):
    """Every workload at a tiny size through its gates; True if all pass."""
    binaries = build()
    ok = True
    for name in WORKLOADS:
        ops, _ = measure_e2e(binaries, name, 1, 0, fresh_dir(out / name), smoke=True)
        log(f"smoke {name}: {ops.attempted - ops.failed}/{ops.attempted} operations passed")
        ok &= ops.failed == 0 and ops.attempted > 0
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out", help="directory for artifacts (default .bench_out)")
    parser.add_argument("--smoke", action="store_true", help="run every workload at a tiny size through its gates")
    parser.add_argument("--describe", action="store_true", help="print the layer-to-workload map")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    try:
        bench = load_benchmark()
        if args.describe:
            for name, (e2e, workload) in LAYER_MAP.items():
                print(f"{name:40s} -> {e2e or 'no end-to-end metric'} on {workload or 'no workload'}")
            return 0
        if args.smoke:
            return 0 if smoke(out / "smoke") else 1
        if args.workload is None:
            parser.error("--workload is required")
        binaries = build()
        run_dir = fresh_dir(out / args.workload / f"seed{args.seed}-trace{args.trace}")
        info = provenance()
        (run_dir / "provenance.json").write_text(json.dumps(info, indent=2) + "\n")
        print("provenance: " + json.dumps(info))
        if args.trace:
            ops, metrics = measure_layers(binaries, args.workload, args.seed, run_dir)
            line = result_line(ops, metrics, bench["per_layer"])
        else:
            ops, metrics = measure_e2e(binaries, args.workload, args.seed, args.seconds, run_dir)
            line = result_line(ops, metrics, bench["end_to_end"])
    except (HarnessError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
