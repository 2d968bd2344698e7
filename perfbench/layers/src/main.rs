//! Layer probes for the eproc benchmark.
//!
//! Every probe calls public functions of one workspace layer from outside
//! and times them with `std::time::Instant`; no tracing is added inside
//! the program. Three subcommands, each printing one JSON object on its
//! last stdout line:
//!
//! * `setup` — times spec resolution, canonicalization, validation and
//!   (for shared-graph specs) `executor::build_graphs`, repeated, and
//!   reports the median;
//! * `executor` — runs a workload's spec through
//!   `executor::run_with_sink` with a recording `TelemetrySink` and writes
//!   the events as JSONL (the harness turns them into scheduler metrics);
//! * `layers` — graph generation, walk kernels, observers, sketches and
//!   the persist/cache/report codecs.
//!
//! A workload's spec is given as the `eproc` arguments that run it
//! (`run <builtin> …`, `scale <builtin> …` or `compare --graph … …`),
//! after `--`. Inputs derive from `--seed`; every file goes under `--out`.

use eproc_core::cover::CoverTarget;
use eproc_core::interleave::{run_observed_interleaved, Lane};
use eproc_core::observe::{
    run_observed, BlanketObserver, BlueCensusObserver, CoverObserver, HitTarget, HittingObserver,
    Observer, ObserverSet, PhaseObserver, StopWhen,
};
use eproc_core::rule::UniformRule;
use eproc_core::srw::SimpleRandomWalk;
use eproc_core::{EProcess, WalkProcess};
use eproc_engine::cache::CacheStore;
use eproc_engine::checkpoint::RunCheckpoint;
use eproc_engine::digest::{spec_digest, ArtifactKind};
use eproc_engine::executor::{build_graphs, run_with_sink, RunOptions};
use eproc_engine::recovery::{
    run_recoverable_with_sink, CheckpointPlan, RecoveryOptions, RunOutcome,
};
use eproc_engine::report::{self, DEFAULT_QUANTILES};
use eproc_engine::shard::{merge_shards, run_shard, ShardReport, ShardSpec};
use eproc_engine::spec::{ExperimentSpec, GraphSpec, ProcessSpec, Scale};
use eproc_engine::{builtin, ExperimentReport};
use eproc_graphs::Graph;
use eproc_stats::QuantileSketch;
use eproc_telemetry::{Event, EventKind, TelemetrySink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Mutex;
use std::time::Instant;

/// Trials of the persist probe's `cubicensemble --scale quick` run.
const PERSIST_TRIALS: usize = 500;

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-layers: {msg}");
    exit(2);
}

/// Command-line options shared by the subcommands.
struct Args {
    command: String,
    seed: u64,
    out: PathBuf,
    threads: usize,
    events: Option<PathBuf>,
    min_seconds: f64,
    /// The `eproc` arguments naming the workload's spec (after `--`).
    eproc: Vec<String>,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let command = it
        .next()
        .unwrap_or_else(|| fail("usage: setup|executor|layers ..."));
    let mut args = Args {
        command,
        seed: 1,
        out: PathBuf::from(".bench_out"),
        threads: 2,
        events: None,
        min_seconds: 0.5,
        eproc: Vec::new(),
    };
    while let Some(flag) = it.next() {
        if flag == "--" {
            args.eproc = it.by_ref().collect();
            break;
        }
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("{flag}: not a number: {v}")))
        };
        match flag.as_str() {
            "--seed" => args.seed = number(&value),
            "--out" => args.out = PathBuf::from(value),
            "--threads" => args.threads = number(&value) as usize,
            "--events" => args.events = Some(PathBuf::from(value)),
            "--min-seconds" => {
                args.min_seconds = value
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--min-seconds: not a number: {value}")))
            }
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// Resolves `eproc` arguments to the spec the CLI would run, the way the
/// CLI does: a builtin with its `--trials` override, or the `compare`
/// grid flags parsed through the canonical spec grammar.
fn resolve(eproc: &[String]) -> Result<ExperimentSpec, String> {
    let mut scale = Scale::Quick;
    let mut trials = None;
    let mut grid = Vec::new();
    let (sub, rest) = eproc.split_first().ok_or("no eproc arguments")?;
    let mut name = None;
    let mut it = rest.iter();
    while let Some(tok) = it.next() {
        if !tok.starts_with("--") {
            name = Some(tok.clone());
            continue;
        }
        let value = it.next().ok_or(format!("{tok} needs a value"))?;
        match tok.as_str() {
            "--scale" => scale = Scale::parse(value).map_err(|e| e.to_string())?,
            "--trials" => trials = Some(value.parse::<usize>().map_err(|e| e.to_string())?),
            _ => {
                grid.push(tok.clone());
                grid.push(value.clone());
            }
        }
    }
    let mut spec = match sub.as_str() {
        "run" | "scale" => {
            let name = name.ok_or("run/scale needs a builtin name")?;
            builtin::spec(&name, scale).ok_or(format!("unknown builtin {name}"))?
        }
        "compare" => {
            let mut spec = ExperimentSpec::parse_cli(&grid.join(" ")).map_err(|e| e.to_string())?;
            spec.name = "compare".into();
            spec.description = "ad-hoc comparison built from CLI flags".into();
            spec
        }
        other => return Err(format!("unsupported eproc subcommand {other}")),
    };
    if let Some(t) = trials {
        spec.trials = t;
    }
    Ok(spec)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Seconds taken by `f`.
fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median seconds of `f` over `reps` calls.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median((0..reps).map(|_| secs(|| black_box(f())).0).collect())
}

/// The JSON object the harness reads: one line of `"name": value` pairs.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn print(&self) {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| {
                if !v.is_finite() {
                    fail(&format!("metric {k} is not finite: {v}"));
                }
                format!("\"{k}\": {v}")
            })
            .collect();
        println!("{{{}}}", body.join(", "));
    }
}

/// Records every event; shared by the pool's workers.
#[derive(Default)]
struct Recorder(Mutex<Vec<Event>>);

impl TelemetrySink for Recorder {
    fn emit(&self, event: &Event) {
        self.0
            .lock()
            .expect("recorder lock poisoned by a panicking worker")
            .push(event.clone());
    }
}

impl Recorder {
    fn take(self) -> Vec<Event> {
        self.0
            .into_inner()
            .expect("recorder lock poisoned by a panicking worker")
    }
}

fn cmd_setup(args: &Args) {
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 5 || started.elapsed().as_secs_f64() < args.min_seconds {
        let (t, graphs) = secs(|| {
            let spec = resolve(&args.eproc).unwrap_or_else(|e| fail(&e));
            let canonical = spec.canonicalize();
            canonical
                .validate()
                .unwrap_or_else(|e| fail(&e.to_string()));
            if spec.resample.is_none() {
                build_graphs(&spec, args.seed)
                    .unwrap_or_else(|e| fail(&e.to_string()))
                    .len()
            } else {
                0
            }
        });
        black_box(graphs);
        times.push(t);
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(times));
    m.print();
}

fn cmd_executor(args: &Args) {
    let spec = resolve(&args.eproc).unwrap_or_else(|e| fail(&e));
    let opts = RunOptions {
        threads: args.threads,
        base_seed: args.seed,
    };
    let recorder = Recorder::default();
    let (wall, report) = secs(|| run_with_sink(&spec, &opts, &recorder));
    let report = report.unwrap_or_else(|e| fail(&e.to_string()));
    let lines: Vec<String> = recorder.take().iter().map(Event::to_jsonl).collect();
    if let Some(path) = &args.events {
        std::fs::write(path, lines.join("\n") + "\n")
            .unwrap_or_else(|e| fail(&format!("writing {}: {e}", path.display())));
    }
    let mut m = Metrics::default();
    m.put("wall_s", wall);
    m.put(
        "report.to_json_ms",
        1e3 * median_secs(5, || report::to_json(&report)),
    );
    m.print();
}

fn regular4(n: usize, seed: u64) -> Graph {
    GraphSpec::Regular { n, d: 4 }
        .build(seed)
        .unwrap_or_else(|e| fail(&format!("regular:{n},4: {e}")))
}

/// Generation cost per vertex of `spec`, median over `reps` seeds.
fn gen_ns_per_vertex(spec: GraphSpec, seed: u64, reps: u64) -> f64 {
    let n = spec.vertex_count().unwrap_or_else(|e| fail(&e.to_string()));
    let times = (0..reps)
        .map(|r| secs(|| black_box(spec.build_counted(seed + r))).0)
        .collect();
    1e9 * median(times) / n as f64
}

fn probe_graphs(m: &mut Metrics, seed: u64) {
    m.put(
        "graphs.regular4_ns_per_vertex.n16k",
        gen_ns_per_vertex(GraphSpec::Regular { n: 16_000, d: 4 }, seed, 9),
    );
    m.put(
        "graphs.regular4_ns_per_vertex.n256k",
        gen_ns_per_vertex(GraphSpec::Regular { n: 256_000, d: 4 }, seed, 3),
    );
    let geometric = GraphSpec::Geometric {
        n: 20_000,
        radius_factor: 1.5,
    };
    m.put(
        "graphs.geometric_ns_per_vertex.n20k",
        gen_ns_per_vertex(geometric, seed, 5),
    );
    let graphs = 16u64;
    let attempts: usize = (0..graphs)
        .map(|r| {
            GraphSpec::Regular { n: 4_000, d: 4 }
                .build_counted(seed + r)
                .unwrap_or_else(|e| fail(&e.to_string()))
                .1
        })
        .sum();
    m.put("graphs.attempts_per_graph", attempts as f64 / graphs as f64);
}

/// ns per step of `walk`-built trials run to vertex cover, repeated until
/// `min_steps` steps have been taken.
fn cover_ns_per_step<'g, W: WalkProcess + 'g>(
    g: &'g Graph,
    seed: u64,
    min_steps: u64,
    cap: u64,
    build: impl Fn(&'g Graph) -> W,
) -> f64 {
    let mut steps = 0u64;
    let mut elapsed = 0.0;
    let mut trial = 0u64;
    while steps < min_steps {
        let mut walk = build(g);
        let mut obs = (CoverObserver::new(CoverTarget::Vertices),);
        let mut rng = SmallRng::seed_from_u64(seed ^ trial.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (t, run) =
            secs(|| run_observed(&mut walk, &mut obs, StopWhen::AllSatisfied, cap, &mut rng));
        steps += run.steps;
        elapsed += t;
        trial += 1;
    }
    1e9 * elapsed / steps as f64
}

fn eprocess(g: &Graph) -> EProcess<'_, UniformRule> {
    EProcess::new(g, 0, UniformRule::new())
}

fn probe_core(m: &mut Metrics, seed: u64) {
    for (label, n) in [("n4k", 4_000), ("n64k", 64_000), ("n256k", 256_000)] {
        let g = regular4(n, seed);
        m.put(
            &format!("core.eprocess_ns_per_step.{label}"),
            cover_ns_per_step(&g, seed, 4_000_000, u64::MAX, eprocess),
        );
        if label != "n64k" {
            m.put(
                &format!("core.srw_ns_per_step.{label}"),
                cover_ns_per_step(&g, seed, 3_000_000, 3_000_000, |g| {
                    SimpleRandomWalk::new(g, 0)
                }),
            );
        }
    }
    let g = regular4(1_000_000, seed);
    m.put(
        "core.eprocess_ns_per_step.n1m",
        cover_ns_per_step(&g, seed, 1, u64::MAX, eprocess),
    );
    let mut banks: Vec<_> = (0..4)
        .map(|_| (CoverObserver::new(CoverTarget::Vertices),))
        .collect();
    let mut lanes: Vec<_> = banks
        .iter_mut()
        .enumerate()
        .map(|(i, bank)| Lane::new(eprocess(&g), bank, SmallRng::seed_from_u64(seed + i as u64)))
        .collect();
    let (t, runs) = secs(|| run_observed_interleaved(&mut lanes, StopWhen::AllSatisfied, u64::MAX));
    let steps: u64 = runs.iter().map(|r| r.steps).sum();
    m.put("core.interleave_w4_ns_per_step.n1m", 1e9 * t / steps as f64);
}

/// The `small-metrics` observer set on `g`: cover, blanket(0.5), phases,
/// blue census and hitting — the metrics that workload attaches.
fn metric_observers(
    g: &Graph,
) -> (
    CoverObserver,
    BlanketObserver,
    PhaseObserver,
    BlueCensusObserver<'_>,
    HittingObserver,
) {
    (
        CoverObserver::new(CoverTarget::Both),
        BlanketObserver::new(0.5).expect("0.5 is a valid blanket delta"),
        PhaseObserver::new(),
        BlueCensusObserver::new(g),
        HittingObserver::new(HitTarget::LastVertex),
    )
}

/// Median ns per step over 7 repetitions of 64 E-process trials of
/// exactly 16384 steps each, feeding `obs`.
fn observed_ns_per_step<O: ObserverSet>(g: &Graph, seed: u64, obs: &mut O) -> f64 {
    const TRIALS: u64 = 64;
    const STEPS: u64 = 16_384;
    let times = (0..7)
        .map(|_| {
            secs(|| {
                for trial in 0..TRIALS {
                    let mut walk = eprocess(g);
                    let mut rng = SmallRng::seed_from_u64(seed + trial);
                    black_box(run_observed(&mut walk, obs, StopWhen::Cap, STEPS, &mut rng));
                }
            })
            .0
        })
        .collect();
    1e9 * median(times) / (TRIALS * STEPS) as f64
}

fn probe_observe(m: &mut Metrics, seed: u64) {
    let g = GraphSpec::Torus { w: 32, h: 32 }
        .build(seed)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let target = || CoverObserver::new(CoverTarget::Vertices);
    let bare = observed_ns_per_step(&g, seed, &mut (target(),));
    let (cover, blanket, phases, census, hitting) = metric_observers(&g);
    let extra = [
        (
            "cover",
            observed_ns_per_step(&g, seed, &mut (target(), cover)),
        ),
        (
            "blanket",
            observed_ns_per_step(&g, seed, &mut (target(), blanket)),
        ),
        (
            "phases",
            observed_ns_per_step(&g, seed, &mut (target(), phases)),
        ),
        (
            "bluecensus",
            observed_ns_per_step(&g, seed, &mut (target(), census)),
        ),
        (
            "hitting",
            observed_ns_per_step(&g, seed, &mut (target(), hitting)),
        ),
    ];
    for (name, ns) in extra {
        m.put(&format!("observe.{name}_ns_per_step"), ns - bare);
    }
    // Per-trial set-up as the executor pays it: build the kernel, re-arm
    // the target and every metric observer.
    let process = ProcessSpec::parse("eprocess").expect("eprocess parses");
    let mut target = target();
    let mut observers = metric_observers(&g);
    const SETUPS: u32 = 2_000;
    let t = median_secs(5, || {
        for _ in 0..SETUPS {
            let kernel = process.build_kernel(&g, 0);
            target.begin(&g, 0);
            observers.0.begin(&g, 0);
            observers.1.begin(&g, 0);
            observers.2.begin(&g, 0);
            observers.3.begin(&g, 0);
            observers.4.begin(&g, 0);
            black_box(kernel);
        }
    });
    m.put("core.trial_setup_ns", 1e9 * t / SETUPS as f64);
}

fn probe_stats(m: &mut Metrics, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let values: Vec<f64> = (0..1_000_000).map(|_| rng.gen_range(1.0..1e6)).collect();
    let t = median_secs(5, || {
        let mut sketch = QuantileSketch::new(seed);
        for &x in &values {
            sketch.push(x);
        }
        sketch
    });
    m.put("stats.sketch_push_ns", 1e9 * t / values.len() as f64);
    let fill = |salt: u64, from: &[f64]| {
        let mut s = QuantileSketch::new(seed ^ salt);
        for &x in from {
            s.push(x);
        }
        s
    };
    let a = fill(1, &values[..100_000]);
    let b = fill(2, &values[100_000..200_000]);
    const MERGES: usize = 64;
    let mut targets: Vec<QuantileSketch> = (0..MERGES).map(|_| a.clone()).collect();
    let (t, ()) = secs(|| {
        for s in &mut targets {
            s.merge(&b);
        }
    });
    black_box(&targets);
    m.put("stats.sketch_merge_us", 1e6 * t / MERGES as f64);
}

fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
        .len() as f64
        / 1e6
}

/// Saves `shard` to `path` and reads it back: (save MB/s, load MB/s).
fn shard_round_trip(shard: &ShardReport, path: &Path) -> (f64, f64) {
    let save = median_secs(3, || {
        shard
            .save(path)
            .unwrap_or_else(|e| fail(&format!("saving {}: {e}", path.display())))
    });
    let mb = file_mb(path);
    let load = median_secs(3, || {
        ShardReport::load(path).unwrap_or_else(|e| fail(&e.to_string()))
    });
    (mb / save, mb / load)
}

fn probe_persist(m: &mut Metrics, seed: u64, out: &Path) {
    let mut spec = builtin::spec("cubicensemble", Scale::Quick).expect("builtin exists");
    spec.trials = PERSIST_TRIALS;
    let opts = RunOptions {
        threads: 2,
        base_seed: seed,
    };
    let run_shard_or_fail = |index, count| {
        run_shard(&spec, &opts, ShardSpec { index, count }).unwrap_or_else(|e| fail(&e.to_string()))
    };
    let halves = [run_shard_or_fail(0, 2), run_shard_or_fail(1, 2)];
    let whole = run_shard_or_fail(0, 1);
    let (save, load) = shard_round_trip(&halves[0], &out.join("shard-0of2.json"));
    let (_, load_x2) = shard_round_trip(&whole, &out.join("shard-0of1.json"));
    m.put("shard.save_mb_s", save);
    m.put("shard.load_mb_s", load);
    m.put("shard.load_mb_s.x2", load_x2);
    let merged: ExperimentReport = merge_shards(&halves).unwrap_or_else(|e| fail(&e.to_string()));
    m.put(
        "shard.merge_ms",
        1e3 * median_secs(3, || {
            merge_shards(&halves).unwrap_or_else(|e| fail(&e.to_string()))
        }),
    );

    let ckpt = out.join("probe.ckpt.json");
    let recorder = Recorder::default();
    let rec = RecoveryOptions {
        checkpoint: Some(CheckpointPlan {
            path: ckpt.clone(),
            every: 1,
        }),
        ..RecoveryOptions::none()
    };
    match run_recoverable_with_sink(&spec, &opts, &rec, &recorder) {
        Ok(RunOutcome::Completed(report))
            if report::to_json(&report) == report::to_json(&merged) => {}
        Ok(RunOutcome::Completed(_)) => fail("checkpointed run and merged shards disagree"),
        Ok(RunOutcome::Interrupted { reason, .. }) => {
            fail(&format!("checkpointed run interrupted: {reason}"))
        }
        Err(e) => fail(&e.to_string()),
    }
    let (mut writes, mut bytes, mut write_ns) = (0u64, 0u64, 0u64);
    for event in recorder.take() {
        if let EventKind::CheckpointWritten {
            bytes: b,
            checkpoint_ns,
            ..
        } = event.kind
        {
            writes += 1;
            bytes += b;
            write_ns += checkpoint_ns;
        }
    }
    m.put("checkpoint.writes", writes as f64);
    m.put("checkpoint.bytes_written", bytes as f64);
    m.put("checkpoint.write_ms", write_ns as f64 / 1e6);
    let load = median_secs(3, || {
        RunCheckpoint::load(&ckpt).unwrap_or_else(|e| fail(&e.to_string()))
    });
    m.put("checkpoint.load_mb_s", file_mb(&ckpt) / load);

    let canonical = spec.canonicalize();
    const DIGESTS: u32 = 200;
    let t = median_secs(5, || {
        for _ in 0..DIGESTS {
            black_box(spec_digest(
                &canonical,
                seed,
                &DEFAULT_QUANTILES,
                ArtifactKind::Ensemble,
            ));
        }
    });
    m.put("digest.spec_us", 1e6 * t / DIGESTS as f64);
    let digest = spec_digest(&canonical, seed, &DEFAULT_QUANTILES, ArtifactKind::Ensemble);
    let artifact = report::to_json(&merged);
    let store = CacheStore::open(out.join("cache"));
    let sidecar = canonical.to_cli();
    m.put(
        "cache.store_ms",
        1e3 * median_secs(5, || {
            store
                .store(&digest, &artifact, &sidecar)
                .unwrap_or_else(|e| fail(&format!("cache store: {e}")))
        }),
    );
    let hit_us = 1e6
        * median_secs(9, || {
            let hit = store
                .load(&digest)
                .unwrap_or_else(|e| fail(&format!("cache load: {e}")));
            if hit.as_deref() != Some(artifact.as_str()) {
                fail("cache hit returned different bytes");
            }
        });
    m.put("cache.hit_us", hit_us);
}

fn cmd_layers(args: &Args) {
    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| fail(&format!("creating {}: {e}", args.out.display())));
    let mut m = Metrics::default();
    probe_graphs(&mut m, args.seed);
    probe_core(&mut m, args.seed);
    probe_observe(&mut m, args.seed);
    probe_stats(&mut m, args.seed);
    probe_persist(&mut m, args.seed, &args.out);
    m.print();
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "setup" => cmd_setup(&args),
        "executor" => cmd_executor(&args),
        "layers" => cmd_layers(&args),
        other => fail(&format!(
            "unknown command {other}: expected setup|executor|layers"
        )),
    }
}
