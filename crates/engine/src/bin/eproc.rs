//! The unified `eproc` CLI: run, list, compare and cache ensemble
//! experiments.
//!
//! ```text
//! eproc run <spec> [--scale quick|paper] [--seed N] [--threads N]
//!                  [--trials N] [--metrics M[,M...]] [--resample [W]]
//!                  [--shard I/K] [--json PATH] [--csv PATH]
//!                  [--quantiles Q[,Q...]] [--cache DIR]
//!                  [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]
//!                  [--max-wall SECS] [--retry-blocks N] [--inject-faults SPEC]
//! eproc merge <shard.json> [<shard.json> ...] [--json PATH] [--csv PATH]
//! eproc list [--canonical]
//! eproc compare --graph G [--graph G ...] --process P[,P...]
//!               [--trials N] [--target T] [--metrics M[,M...]]
//!               [--start V] [--cap C] [--resample [W]]
//!               [--seed N] [--threads N] [--json PATH] [--cache DIR]
//! eproc cache ls|gc|path [<digest-prefix>] [--cache DIR] [--max-bytes N]
//! ```
//!
//! Every subcommand parses its arguments against one declarative flag
//! table ([`eproc_engine::cli`]): each flag is declared once, each
//! subcommand names the subset it honours, and any other known flag is
//! rejected by name ("flag `--shard` does not apply to `merge`").
//! Usage and flag errors exit 2 (`EX_USAGE`), runtime errors exit 1,
//! and a gracefully interrupted resumable run exits 75 (`EX_TEMPFAIL`).
//!
//! `--metrics` attaches extra observers (`cover`, `blanket:<delta>`,
//! `phases`, `bluecensus`, `hitting[:v]`) to the same walk as the
//! target: each trial still walks the graph exactly once.
//!
//! `--quantiles Q[,Q...]` picks the quantile columns/keys rendered from
//! the streamed sketches (default `p50,p90,p99`; accepts `0.9` or `p90`
//! forms). The quantiles are estimates from mergeable KLL-style
//! sketches, deterministic for a given `(spec, seed)` at any thread
//! count, shard split, or resume point.
//!
//! `--resample [W]` — or a `~` marker in a `--graph` argument
//! (`regular:~1000,4`) — turns on per-trial graph resampling: each group
//! of `W` consecutive trials (default 1) gets its own freshly sampled
//! graph, and the report splits variance into pooled, across-graph and
//! within-graph components.
//!
//! `--shard I/K` (resampled runs only) executes just the resample blocks
//! with canonical index `≡ I (mod K)` and writes a shard artifact;
//! `eproc merge` recombines a complete set of K shard artifacts into the
//! report the unsharded run would have produced, byte-identical at any
//! thread count.
//!
//! Caching: `--cache DIR` (or the `EPROC_CACHE` environment variable)
//! consults a content-addressed artifact store before executing. The
//! spec is canonicalized ([`ExperimentSpec::canonicalize`]) and keyed
//! by its [`SpecDigest`] — canonical spec line + seed + quantiles +
//! artifact kind + format version — so every spelling of the same
//! experiment shares one entry. A hit serves the stored artifact
//! byte-identical to the run that populated it; a miss runs the
//! canonical spec and stores the artifact atomically. `eproc list
//! --canonical` prints each builtin's canonical line and digest;
//! `eproc cache ls|gc|path` inspects and prunes the store.
//!
//! Observability: `--progress` renders a live status line to stderr,
//! `--telemetry PATH` writes a JSONL event log, and either flag also
//! writes a `<artifact>.telemetry.json` sidecar with the wall-time
//! breakdown. `--quiet` silences informational stderr chatter (errors
//! always print). None of these affect the computed artifacts.
//!
//! Crash safety (resampled runs): `--checkpoint PATH` persists completed
//! blocks atomically every `--checkpoint-every N` completions;
//! SIGINT/SIGTERM or `--max-wall SECS` interrupt gracefully (exit code
//! 75, resumable); `--resume PATH` recomputes only the missing blocks
//! and produces the byte-identical artifact; `--retry-blocks N` re-runs
//! failed blocks deterministically; `--inject-faults SPEC` (or
//! `EPROC_FAULTS`) arms the deterministic fault harness for testing.

use eproc_engine::builtin;
use eproc_engine::cache::{CacheStore, Lookup, CACHE_ENV};
use eproc_engine::checkpoint::RunCheckpoint;
use eproc_engine::cli::{
    expect_count, expect_positive_f64, expect_u64, parse_args, Arity, FlagDef, Parsed, UsageError,
};
use eproc_engine::digest::{spec_digest, ArtifactKind, SpecDigest};
use eproc_engine::executor::{run_with_sink, RunOptions};
use eproc_engine::fault::FaultPlan;
use eproc_engine::recovery::{
    run_recoverable_with_sink, CheckpointPlan, RecoveryOptions, RunOutcome,
};
use eproc_engine::report::{scaling_table, to_json_with, to_text_table_with, DEFAULT_QUANTILES};
use eproc_engine::scaling::analyze;
use eproc_engine::shard::{merge_shards_with_sink, run_shard_with_sink, ShardReport, ShardSpec};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, Scale, SweepRange,
    Target,
};
use eproc_telemetry::{JsonlSink, ProgressSink, SummarySink, Tee, TelemetrySink};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Exit code for usage and flag errors (BSD `EX_USAGE`). Every parse
/// failure lands here — never 1, which is reserved for runtime errors.
const EXIT_USAGE: i32 = 2;

/// Exit code for a gracefully interrupted, resumable run (BSD
/// `EX_TEMPFAIL`): distinct from 1 (error) so scripts can tell "resume
/// me" apart from "something broke".
const EXIT_INTERRUPTED: i32 = 75;

/// Set once by `--quiet` before any experiment runs: suppresses the
/// CLI's informational stderr lines. Errors always print.
static QUIET: AtomicBool = AtomicBool::new(false);

/// Prints an informational line to stderr unless `--quiet` is in effect.
/// This is the CLI's one logging gate — everything that is not an error
/// or a primary artifact (tables and paths go to stdout) flows through
/// here.
macro_rules! info {
    ($($arg:tt)*) => {
        if !QUIET.load(Ordering::Relaxed) {
            eprintln!($($arg)*);
        }
    };
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "eproc — parallel ensemble-simulation engine for walk processes\n\
         \n\
         usage:\n\
         \x20 eproc run <spec> [--scale quick|paper] [--seed N] [--threads N]\n\
         \x20                  [--trials N] [--metrics M[,M...]] [--resample [W]]\n\
         \x20                  [--shard I/K] [--json PATH] [--csv PATH] [--progress]\n\
         \x20                  [--telemetry PATH] [--quiet] [--quantiles Q[,Q...]]\n\
         \x20                  [--cache DIR]\n\
         \x20                  [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]\n\
         \x20                  [--max-wall SECS] [--retry-blocks N] [--inject-faults SPEC]\n\
         \x20 eproc merge <shard.json> [<shard.json> ...] [--json PATH] [--csv PATH]\n\
         \x20               [--telemetry PATH] [--quiet] [--quantiles Q[,Q...]]\n\
         \x20 eproc list [--canonical] [--scale quick|paper] [--seed N]\n\
         \x20               [--quantiles Q[,Q...]]\n\
         \x20 eproc compare --graph G [--graph G ...] --process P[,P...]\n\
         \x20               [--trials N] [--target T] [--metrics M[,M...]]\n\
         \x20               [--start V] [--cap C] [--resample [W]]\n\
         \x20               [--seed N] [--threads N] [--json PATH] [--cache DIR]\n\
         \x20 eproc scale <spec> | --graph G --process P[,P...] [--sweep n=RANGE]\n\
         \x20               [--trials N] [--target T] [--metrics M[,M...]]\n\
         \x20               [--start V] [--cap C] [--resample [W]]\n\
         \x20               [--scale quick|paper] [--seed N] [--threads N] [--json PATH]\n\
         \x20               [--cache DIR]\n\
         \x20 eproc cache ls|gc|path [<digest-prefix>] [--cache DIR] [--max-bytes N]\n\
         \n\
         graph syntax   regular:<n>,<d> | lps:<p>,<q> | geometric:<n>[,factor] |\n\
         \x20              hypercube:<dim> | torus:<w>,<h> | cycle:<n> | complete:<n> |\n\
         \x20              lollipop:<clique>,<path> | petersen | figure8:<len>\n\
         \x20              (a ~ before the arguments, e.g. regular:~1000,4, marks\n\
         \x20               the run for per-trial graph resampling; under `scale`\n\
         \x20               a size may be a sweep range: regular:~{{1k..256k,x2}},4)\n\
         process syntax eprocess[:rule] | srw | lazy | weighted | rotor | rwc:<d> |\n\
         \x20              oldest | leastused | vprocess\n\
         target syntax  vertex | edge | both | blanket:<delta>\n\
         metric syntax  cover | blanket[:delta] | phases | bluecensus | hitting[:v]\n\
         \x20              (all measured from the same walk: one pass per trial)\n\
         cap syntax     --cap auto | nlogn:<factor> | abs:<steps> (--cap-nlogn F is\n\
         \x20              shorthand for --cap nlogn:F)\n\
         quantiles      --quantiles Q[,Q...]: quantile columns/keys rendered from\n\
         \x20              the streamed sketches (default p50,p90,p99; accepts 0.9\n\
         \x20              or p90 forms; applies to run, compare, scale and merge)\n\
         sweep syntax   [n=]<start>..<end>[,x<factor>|,+<stride>] (default x2);\n\
         \x20              sizes accept k/m suffixes: --sweep n=1k..256k,x2\n\
         resampling     --resample [W]: every W consecutive trials (default 1)\n\
         \x20              share one freshly sampled graph; reports pooled,\n\
         \x20              across-graph and within-graph variance components\n\
         sharding       --shard I/K (resampled runs only): execute only the\n\
         \x20              (family, group) blocks with index = I (mod K) and write a\n\
         \x20              shard artifact instead of a report; `eproc merge` then\n\
         \x20              recombines the K artifacts into a report byte-identical\n\
         \x20              to the unsharded run's, at any thread count\n\
         caching        --cache DIR (or EPROC_CACHE): content-addressed artifact\n\
         \x20              cache keyed by the canonical spec digest (spec + seed +\n\
         \x20              quantiles + artifact kind). The run executes the\n\
         \x20              canonical form of the spec; a hit serves the stored\n\
         \x20              artifact byte-identical and skips execution. `eproc list\n\
         \x20              --canonical` shows what keys the cache; `eproc cache\n\
         \x20              ls|gc|path` inspects and prunes the store\n\
         crash safety   (resampled runs) --checkpoint PATH: atomically persist\n\
         \x20              completed blocks every --checkpoint-every N completions\n\
         \x20              (default 1); SIGINT/SIGTERM or --max-wall SECS interrupt\n\
         \x20              gracefully and exit 75 (resumable); --resume PATH runs\n\
         \x20              only the missing blocks and yields the byte-identical\n\
         \x20              artifact at any thread count; --retry-blocks N re-runs a\n\
         \x20              failed block deterministically (same seeds, same bits);\n\
         \x20              --inject-faults kind@family.group.attempt[,...] (or the\n\
         \x20              EPROC_FAULTS env var) injects panic/graphfail faults for\n\
         \x20              testing the above\n\
         telemetry      --progress: live status line on stderr (blocks, trial and\n\
         \x20              step throughput, ETA); --telemetry PATH: structured JSONL\n\
         \x20              event log; either flag also writes a\n\
         \x20              <artifact>.telemetry.json wall-time/utilization sidecar.\n\
         \x20              --quiet: suppress informational stderr (errors still\n\
         \x20              print). All three apply to run, compare and scale and\n\
         \x20              never change the computed artifacts.\n\
         \n\
         `scale` runs a size sweep and fits each (process x metric) series\n\
         against c*m, a+b*m and c*n*ln(n), selecting the growth model by\n\
         residual score — the paper's linear-vs-n-log-n dichotomy, end to end.\n\
         \n\
         built-in specs: {}\n\
         scaling sweeps: {}",
        builtin::names().join(", "),
        builtin::scaling_names().join(", ")
    );
    exit(if err.is_empty() { 0 } else { EXIT_USAGE });
}

/// Every flag the CLI knows, declared exactly once. Subcommands pick
/// their subset via the `*_ACCEPTS` lists below; anything else in this
/// table is rejected by name ("flag `--x` does not apply to `cmd`").
const FLAGS: &[FlagDef] = &[
    FlagDef {
        name: "--scale",
        aliases: &[],
        arity: Arity::Value("quick|paper"),
    },
    FlagDef {
        name: "--seed",
        aliases: &[],
        arity: Arity::Value("an unsigned integer"),
    },
    FlagDef {
        name: "--threads",
        aliases: &[],
        arity: Arity::Value("an integer of at least 1"),
    },
    FlagDef {
        name: "--trials",
        aliases: &[],
        arity: Arity::Value("an integer of at least 1"),
    },
    FlagDef {
        name: "--metrics",
        aliases: &[],
        arity: Arity::Value("a metric list"),
    },
    FlagDef {
        name: "--resample",
        aliases: &[],
        arity: Arity::OptionalInt,
    },
    FlagDef {
        name: "--shard",
        aliases: &[],
        arity: Arity::Value("<i>/<k>, e.g. 0/4"),
    },
    FlagDef {
        name: "--json",
        aliases: &[],
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--csv",
        aliases: &[],
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--progress",
        aliases: &[],
        arity: Arity::Switch,
    },
    FlagDef {
        name: "--telemetry",
        aliases: &[],
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--checkpoint",
        aliases: &[],
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--checkpoint-every",
        aliases: &[],
        arity: Arity::Value("an integer of at least 1"),
    },
    FlagDef {
        name: "--resume",
        aliases: &[],
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--max-wall",
        aliases: &[],
        arity: Arity::Value("a positive number of seconds"),
    },
    FlagDef {
        name: "--retry-blocks",
        aliases: &[],
        arity: Arity::Value("an unsigned integer"),
    },
    FlagDef {
        name: "--inject-faults",
        aliases: &[],
        arity: Arity::Value("a fault spec (kind@family.group.attempt[,...])"),
    },
    FlagDef {
        name: "--quantiles",
        aliases: &[],
        arity: Arity::Value("a quantile list, e.g. 0.5,0.9,0.99 or p50,p90,p99"),
    },
    FlagDef {
        name: "--quiet",
        aliases: &[],
        arity: Arity::Switch,
    },
    FlagDef {
        name: "--graph",
        aliases: &[],
        arity: Arity::Value("a graph spec"),
    },
    FlagDef {
        name: "--process",
        aliases: &["--processes"],
        arity: Arity::Value("a process list"),
    },
    FlagDef {
        name: "--sweep",
        aliases: &[],
        arity: Arity::Value("a range, e.g. n=1k..256k,x2"),
    },
    FlagDef {
        name: "--target",
        aliases: &[],
        arity: Arity::Value("a target"),
    },
    FlagDef {
        name: "--start",
        aliases: &[],
        arity: Arity::Value("a vertex index"),
    },
    FlagDef {
        name: "--cap",
        aliases: &[],
        arity: Arity::Value("auto|nlogn:<factor>|abs:<steps>"),
    },
    FlagDef {
        name: "--cap-nlogn",
        aliases: &[],
        arity: Arity::Value("a positive factor"),
    },
    FlagDef {
        name: "--cache",
        aliases: &[],
        arity: Arity::Value("a directory"),
    },
    FlagDef {
        name: "--canonical",
        aliases: &[],
        arity: Arity::Switch,
    },
    FlagDef {
        name: "--max-bytes",
        aliases: &[],
        arity: Arity::Value("a byte budget"),
    },
];

/// Flags shared by every executing subcommand (`run`/`compare`/`scale`).
const EXEC_ACCEPTS: &[&str] = &[
    "--seed",
    "--threads",
    "--trials",
    "--metrics",
    "--resample",
    "--shard",
    "--json",
    "--csv",
    "--progress",
    "--telemetry",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
    "--max-wall",
    "--retry-blocks",
    "--inject-faults",
    "--quantiles",
    "--quiet",
    "--cache",
];

const RUN_EXTRA: &[&str] = &["--scale"];
const COMPARE_EXTRA: &[&str] = &[
    "--graph",
    "--process",
    "--target",
    "--start",
    "--cap",
    "--cap-nlogn",
];
const SCALE_EXTRA: &[&str] = &[
    "--scale",
    "--graph",
    "--process",
    "--sweep",
    "--target",
    "--start",
    "--cap",
    "--cap-nlogn",
];
const MERGE_ACCEPTS: &[&str] = &["--json", "--csv", "--telemetry", "--quiet", "--quantiles"];
const LIST_ACCEPTS: &[&str] = &["--canonical", "--scale", "--seed", "--quantiles", "--quiet"];
const CACHE_ACCEPTS: &[&str] = &["--cache", "--max-bytes", "--quiet"];

/// Parses `args` for `cmd` against the shared table, accepting
/// `extra` on top of `base`. `--help` anywhere prints usage (exit 0);
/// any [`UsageError`] exits 2.
fn parse_or_usage(
    cmd: &str,
    base: &[&str],
    extra: &[&str],
    args: impl Iterator<Item = String>,
) -> Parsed {
    let accepts: Vec<&str> = base.iter().chain(extra).copied().collect();
    match parse_args(cmd, FLAGS, &accepts, args) {
        Ok(parsed) => {
            if parsed.help {
                usage("");
            }
            parsed
        }
        Err(e) => usage(&e.to_string()),
    }
}

fn ok_or_usage<T>(r: Result<T, UsageError>) -> T {
    r.unwrap_or_else(|e| usage(&e.to_string()))
}

#[derive(Debug, Default)]
struct CommonFlags {
    scale: Option<Scale>,
    seed: Option<u64>,
    threads: Option<usize>,
    trials: Option<usize>,
    metrics: Option<Vec<MetricSpec>>,
    resample: Option<ResamplePlan>,
    shard: Option<ShardSpec>,
    json: Option<PathBuf>,
    csv: Option<PathBuf>,
    progress: bool,
    telemetry: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    resume: Option<PathBuf>,
    max_wall: Option<f64>,
    retry_blocks: Option<usize>,
    inject_faults: Option<String>,
    quantiles: Option<Vec<f64>>,
    cache: Option<PathBuf>,
}

impl CommonFlags {
    /// Interprets every common flag occurrence in `parsed`, in
    /// command-line order (later occurrences win). Subcommand-specific
    /// flags (`--graph`, `--sweep`, …) are left for [`AdhocSpec`].
    fn from_parsed(parsed: &Parsed) -> CommonFlags {
        let mut flags = CommonFlags::default();
        for (name, value) in &parsed.flags {
            let v = || value.as_deref().expect("value-arity flag has a value");
            match *name {
                "--scale" => {
                    flags.scale = Some(Scale::parse(v()).unwrap_or_else(|e| usage(&e.to_string())));
                }
                "--seed" => flags.seed = Some(ok_or_usage(expect_u64("--seed", v()))),
                "--threads" => {
                    flags.threads = Some(ok_or_usage(expect_count("--threads", v())));
                }
                "--trials" => flags.trials = Some(ok_or_usage(expect_count("--trials", v()))),
                "--metrics" => {
                    let parsed: Vec<MetricSpec> = v()
                        .split(',')
                        .map(|part| {
                            MetricSpec::parse(part).unwrap_or_else(|e| usage(&e.to_string()))
                        })
                        .collect();
                    flags.metrics = Some(parsed);
                }
                "--resample" => {
                    let walks = match value.as_deref() {
                        Some(raw) => ok_or_usage(expect_count("--resample", raw)),
                        None => 1,
                    };
                    flags.resample = Some(ResamplePlan {
                        walks_per_graph: walks,
                    });
                }
                "--shard" => {
                    flags.shard =
                        Some(ShardSpec::parse(v()).unwrap_or_else(|e| usage(&e.to_string())));
                }
                "--json" => flags.json = Some(PathBuf::from(v())),
                "--csv" => flags.csv = Some(PathBuf::from(v())),
                "--progress" => flags.progress = true,
                "--telemetry" => flags.telemetry = Some(PathBuf::from(v())),
                "--checkpoint" => flags.checkpoint = Some(PathBuf::from(v())),
                "--checkpoint-every" => {
                    flags.checkpoint_every =
                        Some(ok_or_usage(expect_count("--checkpoint-every", v())));
                }
                "--resume" => flags.resume = Some(PathBuf::from(v())),
                "--max-wall" => {
                    flags.max_wall = Some(ok_or_usage(expect_positive_f64("--max-wall", v())));
                }
                "--retry-blocks" => {
                    flags.retry_blocks =
                        Some(ok_or_usage(expect_u64("--retry-blocks", v())) as usize);
                }
                "--inject-faults" => flags.inject_faults = Some(v().to_string()),
                "--quantiles" => flags.quantiles = Some(parse_quantiles(v())),
                "--quiet" => QUIET.store(true, Ordering::Relaxed),
                "--cache" => flags.cache = Some(PathBuf::from(v())),
                _ => {}
            }
        }
        flags
    }

    /// Whether any crash-safety flag routes this run through
    /// [`run_recoverable_with_sink`] instead of the plain executor. The
    /// `EPROC_FAULTS` environment variable counts: it arms the fault
    /// harness without touching the command line.
    fn wants_recovery(&self) -> bool {
        self.checkpoint.is_some()
            || self.resume.is_some()
            || self.max_wall.is_some()
            || self.retry_blocks.is_some()
            || self.inject_faults.is_some()
            || std::env::var_os("EPROC_FAULTS").is_some()
    }

    /// The quantile columns/keys to render: `--quantiles` if given,
    /// otherwise p50/p90/p99.
    fn report_quantiles(&self) -> &[f64] {
        self.quantiles.as_deref().unwrap_or(&DEFAULT_QUANTILES)
    }
}

fn parse_quantiles(raw: &str) -> Vec<f64> {
    raw.split(',')
        .map(|part| {
            let part = part.trim();
            let q = match part.strip_prefix('p') {
                Some(pct) => pct.parse::<f64>().map(|p| p / 100.0),
                None => part.parse::<f64>(),
            };
            match q {
                Ok(q) if (0.0..=1.0).contains(&q) => q,
                _ => usage(&format!(
                    "flag `--quantiles` expects quantiles in [0,1] (use 0.9 or p90), got {part:?}"
                )),
            }
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage("missing command"));
    match command.as_str() {
        "run" => cmd_run(args),
        "list" => cmd_list(args),
        "compare" => cmd_compare(args),
        "scale" => cmd_scale(args),
        "merge" => cmd_merge(args),
        "cache" => cmd_cache(args),
        "--help" | "-h" | "help" => usage(""),
        other => usage(&format!("unknown command {other:?}")),
    }
}

fn cmd_list(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("list", LIST_ACCEPTS, &[], args);
    let flags = CommonFlags::from_parsed(&parsed);
    if let Some(tok) = parsed.positionals.first() {
        usage(&format!("list takes no positional arguments, got {tok:?}"));
    }
    if parsed.has("--canonical") {
        // The exact normal form + digest that key the artifact cache,
        // one per builtin, under the flags that shape the digest.
        let scale = flags.scale.unwrap_or(Scale::Quick);
        let seed = flags.seed.unwrap_or_else(|| RunOptions::auto().base_seed);
        for name in builtin::names() {
            let spec = builtin::spec(name, scale).expect("listed specs exist");
            let canonical = spec.canonicalize();
            let digest = spec_digest(
                &canonical,
                seed,
                flags.report_quantiles(),
                ArtifactKind::Ensemble,
            );
            println!("{name}");
            println!("  digest: {digest}");
            println!("  spec:   {}", canonical.to_cli());
        }
        info!(
            "digests key the artifact cache for `run`/`compare` at seed {seed} with the \
             selected quantiles (scale runs key separately: kind=scaling)"
        );
        return;
    }
    let mut table = eproc_stats::TextTable::new(vec![
        "spec",
        "graphs",
        "processes",
        "trials",
        "target",
        "description",
    ]);
    for name in builtin::names() {
        let s = builtin::spec(name, Scale::Quick).expect("listed specs exist");
        table.push_row(vec![
            name.to_string(),
            s.graphs.len().to_string(),
            s.processes.len().to_string(),
            s.trials.to_string(),
            s.target.label(),
            s.description.clone(),
        ]);
    }
    println!("{table}");
    println!("run one with: eproc run <spec> [--scale quick|paper] [--threads N]");
}

/// The artifact cache a run should consult, if any: `--cache DIR`
/// explicitly, else the `EPROC_CACHE` environment variable. The bool is
/// `true` for the explicit flag — conflicts (e.g. `--shard`) are hard
/// usage errors there but silently disable an env-var cache, so setting
/// `EPROC_CACHE` globally never breaks sharded workflows.
fn cache_store(flags: &CommonFlags) -> Option<(CacheStore, bool)> {
    match &flags.cache {
        Some(dir) => Some((CacheStore::open(dir.clone()), true)),
        None => {
            std::env::var_os(CACHE_ENV).map(|dir| (CacheStore::open(PathBuf::from(dir)), false))
        }
    }
}

fn execute(spec: ExperimentSpec, flags: &CommonFlags) {
    execute_inner(spec, flags, false);
}

/// Runs `spec` and emits the standard artifacts. With `fit_growth_laws`
/// (the `scale` subcommand) the run is followed by growth-model fitting:
/// a degenerate sweep surfaces as a CLI error, the growth-law table is
/// printed under the ensemble table, and the JSON artifact carries a
/// `growth_laws` section.
///
/// With a cache configured (`--cache`/`EPROC_CACHE`) the spec is
/// canonicalized first — the digest names the canonical grid order, and
/// seeds derive from grid positions, so only the canonical form's bytes
/// match the digest's promise. A hit writes the stored artifact to the
/// `--json` destination and skips execution entirely; a miss runs and
/// stores the artifact on success.
fn execute_inner(mut spec: ExperimentSpec, flags: &CommonFlags, fit_growth_laws: bool) {
    if let Some(trials) = flags.trials {
        spec.trials = trials;
    }
    if let Some(metrics) = &flags.metrics {
        spec.metrics = metrics.clone();
    }
    if let Some(plan) = flags.resample {
        spec.resample = Some(plan);
    }
    if flags.shard.is_some() {
        if fit_growth_laws {
            usage("--shard does not apply to scale: growth-law fits need every sweep cell");
        }
        if flags.csv.is_some() {
            usage("--shard writes a shard artifact, not a report: merge the shards, then --csv");
        }
        if flags.wants_recovery() {
            usage(
                "--shard is already restartable per shard: re-run the missing shard instead \
                 (--checkpoint/--resume/--max-wall/--retry-blocks/--inject-faults apply to \
                 unsharded runs)",
            );
        }
    }
    let mut opts = RunOptions::auto();
    if let Some(threads) = flags.threads {
        opts.threads = threads;
    }
    if let Some(seed) = flags.seed {
        opts.base_seed = seed;
    }
    // Cache: canonicalize, key, and try to serve before running.
    let mut cache_armed: Option<(CacheStore, SpecDigest)> = None;
    if let Some((store, explicit)) = cache_store(flags) {
        let conflict = if flags.shard.is_some() {
            Some("--shard writes a shard artifact, which is not what the cache stores")
        } else if flags.csv.is_some() {
            Some("--csv renders from a live run, which a cache hit skips")
        } else {
            None
        };
        match conflict {
            Some(why) if explicit => usage(&format!("--cache does not combine here: {why}")),
            Some(why) => info!("cache: disabled ({why})"),
            None => {
                spec = spec.canonicalize();
                let kind = if fit_growth_laws {
                    ArtifactKind::Scaling
                } else {
                    ArtifactKind::Ensemble
                };
                let digest = spec_digest(&spec, opts.base_seed, flags.report_quantiles(), kind);
                match store.lookup(&digest) {
                    Ok(Lookup::Hit(artifact)) => {
                        let path = flags
                            .json
                            .clone()
                            .unwrap_or_else(|| default_artifact_path(&spec.name));
                        if let Err(e) = eproc_telemetry::write_atomic(&path, &artifact) {
                            eprintln!("error writing json artifact {}: {e}", path.display());
                            exit(1);
                        }
                        println!("cache: hit {}", digest.short());
                        println!("json: {}", path.display());
                        return;
                    }
                    Ok(miss) => {
                        if let Lookup::Evicted { reason } = miss {
                            eprintln!(
                                "warning: cache: evicted corrupted entry {} ({reason})",
                                digest.short()
                            );
                        }
                        info!("cache: miss {} (will store on success)", digest.short());
                        cache_armed = Some((store, digest));
                    }
                    Err(e) => {
                        eprintln!("error reading cache at {}: {e}", store.root().display());
                        exit(1);
                    }
                }
            }
        }
    }
    info!(
        "running {:?}: {} jobs ({} graphs x {} processes x {} trials) on {} threads, seed {}",
        spec.name,
        spec.total_jobs(),
        spec.graphs.len(),
        spec.processes.len(),
        spec.trials,
        opts.threads,
        opts.base_seed
    );
    if let Some(plan) = spec.resample {
        info!(
            "resampling graphs per trial group: {} graph sample(s) per family, {} walk(s) each",
            plan.groups(spec.trials),
            plan.walks_per_graph
        );
    }
    // Telemetry sinks: a live progress line, a JSONL event log, and — as
    // soon as either is requested — a summary collector for the sidecar.
    // All of them observe the run from outside the deterministic path;
    // with none requested the tee is disabled and the executor takes its
    // zero-cost NullSink path.
    let progress = flags.progress.then(ProgressSink::new);
    let jsonl = flags.telemetry.as_deref().map(|path| {
        JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create telemetry log {}: {e}", path.display());
            exit(1);
        })
    });
    let summary = (progress.is_some() || jsonl.is_some()).then(SummarySink::new);
    let mut sinks: Vec<&dyn TelemetrySink> = Vec::new();
    if let Some(s) = &progress {
        sinks.push(s);
    }
    if let Some(s) = &jsonl {
        sinks.push(s);
    }
    if let Some(s) = &summary {
        sinks.push(s);
    }
    let tee = Tee::new(sinks);
    let started = Instant::now();
    if let Some(shard) = flags.shard {
        info!(
            "shard {shard}: executing only the resample blocks with index = {} (mod {})",
            shard.index, shard.count
        );
        let report = match run_shard_with_sink(&spec, &opts, shard, &tee) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                exit(1);
            }
        };
        let path = flags
            .json
            .clone()
            .unwrap_or_else(|| default_shard_path(&report));
        if let Err(e) = report.save(&path) {
            eprintln!("error writing shard artifact {}: {e}", path.display());
            exit(1);
        }
        println!("shard artifact: {}", path.display());
        write_telemetry_artifacts(jsonl.as_ref(), summary.as_ref(), &path);
        info!("wall time: {:.2}s", started.elapsed().as_secs_f64());
        return;
    }
    let report = if flags.wants_recovery() {
        run_crash_safe(&spec, &opts, flags, &tee, jsonl.as_ref(), summary.as_ref())
    } else {
        match run_with_sink(&spec, &opts, &tee) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                exit(1);
            }
        }
    };
    let elapsed = started.elapsed();
    // A degenerate sweep must not discard the (possibly expensive)
    // ensemble it just measured: on a fit error the table is still
    // printed and the artifact still written — without the growth_laws
    // section — and the CLI exits nonzero at the end.
    let scaling = fit_growth_laws.then(|| analyze(&report));
    println!(
        "{}: {} ({})\n",
        report.name,
        report.description,
        report.target.label()
    );
    let table = to_text_table_with(&report, flags.report_quantiles());
    println!("{table}");
    match &scaling {
        Some(Ok(scaling)) => {
            println!("growth laws (lowest residual score wins):\n");
            println!("{}", scaling_table(scaling));
            for series in &scaling.series {
                let fit = series.selection.preferred_fit();
                println!(
                    "{} / {} / {}: prefers {} (R^2 = {:.5})",
                    series.family,
                    series.process,
                    series.series,
                    series.selection.preferred.label(),
                    fit.fit.r_squared
                );
            }
            println!();
        }
        Some(Err(e)) => {
            eprintln!("error: {e}");
            eprintln!("(the ensemble report is kept: saving the artifact without growth_laws)");
        }
        None => {}
    }
    // Render the artifact once: the same bytes go to the --json
    // destination and (on a clean run) into the cache, so a later hit
    // is cmp-identical by construction.
    let artifact_text = match &scaling {
        Some(Ok(s)) => to_json_with(&report, Some(s), flags.report_quantiles()),
        _ => to_json_with(&report, None, flags.report_quantiles()),
    };
    let artifact = flags
        .json
        .clone()
        .unwrap_or_else(|| default_artifact_path(&report.name));
    if let Err(e) = eproc_telemetry::write_atomic(&artifact, &artifact_text) {
        eprintln!("error writing json artifact: {e}");
        exit(1);
    }
    println!("json: {}", artifact.display());
    if let Some(csv) = &flags.csv {
        match eproc_telemetry::write_atomic(csv, &table.to_csv()) {
            Ok(()) => println!("csv: {}", csv.display()),
            Err(e) => {
                eprintln!("error writing csv artifact: {e}");
                exit(1);
            }
        }
    }
    if let Some((store, digest)) = &cache_armed {
        if matches!(scaling, Some(Err(_))) {
            // A degenerate fit exits 1 below; serving its artifact from
            // cache later would silently mask that failure.
            info!("cache: not storing (growth-law fit failed)");
        } else {
            let sidecar = format!(
                "{}\nname={}\nseed={}\nkind={}\nquantiles={}\n",
                spec.to_cli(),
                spec.name,
                opts.base_seed,
                if fit_growth_laws {
                    "scaling"
                } else {
                    "ensemble"
                },
                flags
                    .report_quantiles()
                    .iter()
                    .map(|q| q.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            match store.store(digest, &artifact_text, &sidecar) {
                Ok(_) => println!("cache: stored {}", digest.short()),
                // The run itself succeeded and its artifact is on disk;
                // a cache store failure is a warning, not a run failure.
                Err(e) => eprintln!(
                    "warning: could not store cache entry in {}: {e}",
                    store.root().display()
                ),
            }
        }
    }
    write_telemetry_artifacts(jsonl.as_ref(), summary.as_ref(), &artifact);
    info!("wall time: {:.2}s", elapsed.as_secs_f64());
    if matches!(scaling, Some(Err(_))) {
        exit(1);
    }
}

/// The crash-safe execution path: engaged whenever any of
/// `--checkpoint`, `--resume`, `--max-wall`, `--retry-blocks` or
/// `--inject-faults` (or the `EPROC_FAULTS` environment variable) is
/// present. Installs the SIGINT/SIGTERM latch when interruption can be
/// made graceful (a checkpoint or wall budget is configured), runs
/// through [`run_recoverable_with_sink`], and on interruption writes the
/// telemetry artifacts and exits with code 75 (`EX_TEMPFAIL`) so callers
/// can distinguish "resume me" from failure.
fn run_crash_safe(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    flags: &CommonFlags,
    tee: &dyn TelemetrySink,
    jsonl: Option<&JsonlSink>,
    summary: Option<&SummarySink>,
) -> eproc_engine::ExperimentReport {
    // The command-line fault spec wins over the environment variable.
    let faults = match &flags.inject_faults {
        Some(spec) => FaultPlan::parse(spec),
        None => FaultPlan::from_env(),
    }
    .unwrap_or_else(|e| usage(&e.to_string()));
    let resume = flags.resume.as_deref().map(|path| {
        let ckpt = RunCheckpoint::load(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1);
        });
        info!(
            "resuming from {}: {}/{} blocks already complete",
            path.display(),
            ckpt.completed_blocks(),
            ckpt.total_blocks()
        );
        ckpt
    });
    let checkpoint = flags.checkpoint.as_ref().map(|path| CheckpointPlan {
        path: path.clone(),
        every: flags.checkpoint_every.unwrap_or(1),
    });
    // Graceful Ctrl-C only makes sense when there is somewhere to drain
    // to: a checkpoint to persist, or a wall budget already promising a
    // clean stop. Otherwise leave the default (abrupt) signal behavior.
    let cancel = (checkpoint.is_some() || flags.max_wall.is_some()).then(eproc_signal::install);
    let rec = RecoveryOptions {
        checkpoint,
        resume,
        max_wall: flags.max_wall.map(Duration::from_secs_f64),
        retry_blocks: flags.retry_blocks.unwrap_or(0),
        faults,
        cancel,
    };
    match run_recoverable_with_sink(spec, opts, &rec, tee) {
        Ok(RunOutcome::Completed(report)) => report,
        Ok(RunOutcome::Interrupted {
            reason,
            completed,
            total,
            checkpoint,
        }) => {
            match &checkpoint {
                Some(path) => info!(
                    "interrupted ({reason}): {completed}/{total} blocks complete; \
                     resume with --resume {}",
                    path.display()
                ),
                None => info!(
                    "interrupted ({reason}): {completed}/{total} blocks complete \
                     (no --checkpoint configured, progress not persisted)"
                ),
            }
            // The sidecar still lands next to where the artifact would
            // have gone, so an interrupted run's wall-time breakdown is
            // not lost with it.
            let anchor = flags
                .json
                .clone()
                .unwrap_or_else(|| default_artifact_path(&spec.name));
            write_telemetry_artifacts(jsonl, summary, &anchor);
            exit(EXIT_INTERRUPTED);
        }
        Err(e) => {
            eprintln!("error: {e}");
            if let Some(path) = &flags.checkpoint {
                info!(
                    "completed blocks were checkpointed to {}; fix the cause and --resume",
                    path.display()
                );
            }
            exit(1);
        }
    }
}

/// Where `save_json` would put the artifact for `name` — used as the
/// telemetry sidecar anchor when an interrupted run never writes one.
fn default_artifact_path(name: &str) -> PathBuf {
    eproc_engine::report::default_artifact_dir().join(format!("eproc_{name}.json"))
}

/// The `<artifact>.telemetry.json` sidecar path. A plain
/// `Path::with_extension("telemetry.json")` clobbers everything after
/// the last dot of the file name — `run-2.5x` would become
/// `run-2.telemetry.json` — so instead strip one trailing `.json` (when
/// present) and append the sidecar suffix to the whole remaining name.
fn telemetry_sidecar_path(artifact: &Path) -> PathBuf {
    let name = artifact
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    let stem = name.strip_suffix(".json").unwrap_or(name);
    artifact.with_file_name(format!("{stem}.telemetry.json"))
}

/// Flushes the JSONL event log (surfacing any write error the sink
/// swallowed mid-run: a truncated log must not pass silently as a
/// complete one) and writes the summary sidecar next to `artifact`.
/// Exits nonzero on either failure.
fn write_telemetry_artifacts(
    jsonl: Option<&JsonlSink>,
    summary: Option<&SummarySink>,
    artifact: &Path,
) {
    if let Some(jsonl) = jsonl {
        match jsonl.finish() {
            Ok(()) => println!("telemetry: {}", jsonl.path().display()),
            Err(e) => {
                eprintln!(
                    "error writing telemetry log {}: {e}",
                    jsonl.path().display()
                );
                exit(1);
            }
        }
    }
    if let Some(summary) = summary {
        let sidecar = telemetry_sidecar_path(artifact);
        match summary.summary().save(&sidecar) {
            Ok(()) => println!("telemetry sidecar: {}", sidecar.display()),
            Err(e) => {
                eprintln!("error writing telemetry sidecar {}: {e}", sidecar.display());
                exit(1);
            }
        }
    }
}

/// Default artifact path for a shard run, parallel to `save_json`'s
/// `target/experiments/eproc_<name>.json` convention.
fn default_shard_path(report: &ShardReport) -> PathBuf {
    PathBuf::from(format!(
        "target/experiments/eproc_{}.shard{}of{}.json",
        report.name, report.shard.index, report.shard.count
    ))
}

fn cmd_run(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("run", EXEC_ACCEPTS, RUN_EXTRA, args);
    let flags = CommonFlags::from_parsed(&parsed);
    let name = match parsed.positionals.as_slice() {
        [] => usage("run needs a spec name"),
        [name] => name.clone(),
        _ => usage("run takes exactly one spec name"),
    };
    let scale = flags.scale.unwrap_or(Scale::Quick);
    let spec = builtin::spec(&name, scale).unwrap_or_else(|| {
        usage(&format!(
            "unknown spec {name:?}; available: {}",
            builtin::names().join(", ")
        ))
    });
    execute(spec, &flags);
}

/// The ad-hoc-spec flags `compare` and `scale` share. `target`, `cap`
/// and `start` stay `None` until explicitly set, so `scale <name>` can
/// reject flags that would otherwise be silently ignored.
#[derive(Default)]
struct AdhocSpec {
    graphs: Vec<GraphSpec>,
    processes: Vec<ProcessSpec>,
    target: Option<Target>,
    cap: Option<CapSpec>,
    start: Option<usize>,
    marked_resample: bool,
    /// `--sweep` range (accepted by `scale` only).
    sweep: Option<SweepRange>,
    saw_inline_sweep: bool,
}

impl AdhocSpec {
    /// Interprets the grid-shaped flags of `compare`/`scale` from the
    /// lexed arguments. With `sweeps` (the `scale` shape) a `--graph`
    /// value may carry an inline `{range}`; without it (`compare`) the
    /// plain resample-marker grammar applies.
    fn from_parsed(parsed: &Parsed, sweeps: bool) -> AdhocSpec {
        let mut spec = AdhocSpec::default();
        for (name, value) in &parsed.flags {
            let v = || value.as_deref().expect("value-arity flag has a value");
            match *name {
                "--graph" => {
                    for part in v().split(';') {
                        if sweeps {
                            let (expanded, marked, range) = GraphSpec::parse_with_sweep(part)
                                .unwrap_or_else(|e| usage(&e.to_string()));
                            spec.marked_resample |= marked;
                            spec.saw_inline_sweep |= range.is_some();
                            spec.graphs.extend(expanded);
                        } else {
                            let (graph, marked) = GraphSpec::parse_with_resample(part)
                                .unwrap_or_else(|e| usage(&e.to_string()));
                            spec.marked_resample |= marked;
                            spec.graphs.push(graph);
                        }
                    }
                }
                "--process" => {
                    for part in v().split(',') {
                        spec.processes.push(
                            ProcessSpec::parse(part).unwrap_or_else(|e| usage(&e.to_string())),
                        );
                    }
                }
                "--sweep" => {
                    spec.sweep = Some(
                        SweepRange::parse(v())
                            .and_then(|r| r.normalize())
                            .unwrap_or_else(|e| usage(&e.to_string())),
                    );
                }
                "--target" => {
                    spec.target =
                        Some(Target::parse(v()).unwrap_or_else(|e| usage(&e.to_string())));
                }
                "--start" => {
                    spec.start = Some(ok_or_usage(expect_u64("--start", v())) as usize);
                }
                "--cap" => {
                    spec.cap = Some(CapSpec::parse(v()).unwrap_or_else(|e| usage(&e.to_string())));
                }
                "--cap-nlogn" => {
                    spec.cap = Some(CapSpec::NLogN(ok_or_usage(expect_positive_f64(
                        "--cap-nlogn",
                        v(),
                    ))));
                }
                _ => {}
            }
        }
        spec
    }

    /// `scale <name>` must reject grid flags that would silently be
    /// ignored (a named spec fixes its grid).
    fn names_grid_flags(&self) -> bool {
        !self.processes.is_empty()
            || self.target.is_some()
            || self.start.is_some()
            || self.cap.is_some()
    }
}

fn cmd_compare(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("compare", EXEC_ACCEPTS, COMPARE_EXTRA, args);
    let flags = CommonFlags::from_parsed(&parsed);
    let adhoc = AdhocSpec::from_parsed(&parsed, false);
    if let Some(tok) = parsed.positionals.first() {
        usage(&format!(
            "compare takes no positional arguments, got {tok:?} (use --graph/--process)"
        ));
    }
    if adhoc.graphs.is_empty() {
        usage("compare needs at least one --graph");
    }
    if adhoc.processes.is_empty() {
        usage("compare needs at least one --process");
    }
    let spec = ExperimentSpec {
        name: "compare".into(),
        description: "ad-hoc comparison built from CLI flags".into(),
        graphs: adhoc.graphs,
        processes: adhoc.processes,
        trials: flags.trials.unwrap_or(5),
        target: adhoc.target.unwrap_or(Target::VertexCover),
        metrics: flags.metrics.clone().unwrap_or_default(),
        start: adhoc.start.unwrap_or(0),
        cap: adhoc.cap.unwrap_or(CapSpec::Auto),
        // `--resample [W]` wins; a bare `~` graph marker means per-trial.
        resample: flags
            .resample
            .or(adhoc.marked_resample.then(ResamplePlan::per_trial)),
    };
    execute(spec, &flags);
}

fn cmd_scale(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("scale", EXEC_ACCEPTS, SCALE_EXTRA, args);
    let flags = CommonFlags::from_parsed(&parsed);
    let mut adhoc = AdhocSpec::from_parsed(&parsed, true);
    let name = match parsed.positionals.as_slice() {
        [] => None,
        [name] => Some(name.clone()),
        _ => usage("scale takes at most one spec name"),
    };
    if let Some(name) = name {
        if !adhoc.graphs.is_empty() || adhoc.sweep.is_some() {
            usage("scale takes either a spec name or --graph/--sweep flags, not both");
        }
        // A named spec already fixes its grid; honouring only some of
        // these flags would silently run a different experiment than the
        // one asked for, so reject them outright (--trials, --metrics
        // and --resample are honoured as overrides, like `run`).
        if adhoc.names_grid_flags() {
            usage(
                "scale <name> runs the named spec as-is: --process/--target/--start/--cap \
                 only apply to --graph sweeps (--trials/--metrics/--resample do override)",
            );
        }
        let scale = flags.scale.unwrap_or(Scale::Quick);
        let spec = builtin::spec(&name, scale).unwrap_or_else(|| {
            usage(&format!(
                "unknown spec {name:?}; scaling sweeps: {} (any built-in spec with >= 3 sizes works)",
                builtin::scaling_names().join(", ")
            ))
        });
        execute_inner(spec, &flags, true);
        return;
    }
    if adhoc.graphs.is_empty() {
        usage("scale needs a spec name or at least one --graph");
    }
    if adhoc.processes.is_empty() {
        usage("scale needs at least one --process");
    }
    let mut graphs = adhoc.graphs;
    if let Some(range) = adhoc.sweep {
        if adhoc.saw_inline_sweep {
            usage("use either an inline {range} in --graph or --sweep, not both");
        }
        // Each --graph becomes a size template: re-instantiate it at
        // every sweep point.
        let templates = std::mem::take(&mut graphs);
        let points = range.points().unwrap_or_else(|e| usage(&e.to_string()));
        for template in &templates {
            for &n in &points {
                graphs.push(
                    template
                        .with_primary_size(n)
                        .unwrap_or_else(|e| usage(&e.to_string())),
                );
            }
        }
        adhoc.sweep = None;
    }
    // `--resample [W]` wins; otherwise randomized sweeps default to a
    // fresh graph per trial so each size estimates the ensemble law, and
    // purely deterministic sweeps stay in shared mode.
    let any_randomized = graphs.iter().any(GraphSpec::is_randomized);
    let resample = flags
        .resample
        .or((adhoc.marked_resample || any_randomized).then(ResamplePlan::per_trial));
    let spec = ExperimentSpec {
        name: "scale".into(),
        description: "ad-hoc size sweep built from CLI flags".into(),
        graphs,
        processes: adhoc.processes,
        trials: flags.trials.unwrap_or(4),
        target: adhoc.target.unwrap_or(Target::VertexCover),
        metrics: flags.metrics.clone().unwrap_or_default(),
        start: adhoc.start.unwrap_or(0),
        cap: adhoc.cap.unwrap_or(CapSpec::Auto),
        resample,
    };
    execute_inner(spec, &flags, true);
}

/// `eproc merge <shard.json> ...` — recombine a complete shard set into
/// the unsharded run's report, byte-identical to running unsharded.
/// Run-shaped flags are foreign here and rejected by the flag table
/// (run parameters are fixed by the shards themselves).
fn cmd_merge(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("merge", MERGE_ACCEPTS, &[], args);
    let flags = CommonFlags::from_parsed(&parsed);
    let paths: Vec<PathBuf> = parsed.positionals.iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        usage("merge needs at least one shard artifact path");
    }
    let shards: Vec<ShardReport> = paths
        .iter()
        .map(|p| {
            ShardReport::load(p).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1);
            })
        })
        .collect();
    let jsonl = flags.telemetry.as_deref().map(|path| {
        JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create telemetry log {}: {e}", path.display());
            exit(1);
        })
    });
    let summary = jsonl.is_some().then(SummarySink::new);
    let mut sinks: Vec<&dyn TelemetrySink> = Vec::new();
    if let Some(s) = &jsonl {
        sinks.push(s);
    }
    if let Some(s) = &summary {
        sinks.push(s);
    }
    let tee = Tee::new(sinks);
    info!("merging {} shard artifact(s)", shards.len());
    let report = match merge_shards_with_sink(&shards, &tee) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    println!(
        "{}: {} ({})\n",
        report.name,
        report.description,
        report.target.label()
    );
    let table = to_text_table_with(&report, flags.report_quantiles());
    println!("{table}");
    let artifact = flags
        .json
        .clone()
        .unwrap_or_else(|| default_artifact_path(&report.name));
    if let Err(e) = eproc_telemetry::write_atomic(
        &artifact,
        &to_json_with(&report, None, flags.report_quantiles()),
    ) {
        eprintln!("error writing json artifact: {e}");
        exit(1);
    }
    println!("json: {}", artifact.display());
    if let Some(csv) = &flags.csv {
        match eproc_telemetry::write_atomic(csv, &table.to_csv()) {
            Ok(()) => println!("csv: {}", csv.display()),
            Err(e) => {
                eprintln!("error writing csv artifact: {e}");
                exit(1);
            }
        }
    }
    write_telemetry_artifacts(jsonl.as_ref(), summary.as_ref(), &artifact);
}

/// `eproc cache ls|gc|path` — inspect and prune the artifact store.
fn cmd_cache(args: impl Iterator<Item = String>) {
    let parsed = parse_or_usage("cache", CACHE_ACCEPTS, &[], args);
    let flags = CommonFlags::from_parsed(&parsed);
    let (action, rest) = match parsed.positionals.as_slice() {
        [] => usage("cache needs an action: ls, gc or path"),
        [action, rest @ ..] => (action.as_str(), rest),
    };
    let Some((store, _)) = cache_store(&flags) else {
        usage("cache needs --cache DIR or the EPROC_CACHE environment variable");
    };
    match action {
        "ls" => {
            if let Some(tok) = rest.first() {
                usage(&format!("cache ls takes no further arguments, got {tok:?}"));
            }
            let entries = store.entries().unwrap_or_else(|e| {
                eprintln!("error reading cache at {}: {e}", store.root().display());
                exit(1);
            });
            let mut table = eproc_stats::TextTable::new(vec!["digest", "bytes", "spec"]);
            let mut total = 0u64;
            for entry in &entries {
                total += entry.bytes;
                table.push_row(vec![
                    entry.digest[..12].to_string(),
                    entry.bytes.to_string(),
                    entry.spec_line.clone(),
                ]);
            }
            println!("{table}");
            println!(
                "{} entr{} ({} bytes) in {}",
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" },
                total,
                store.root().display()
            );
        }
        "gc" => {
            if let Some(tok) = rest.first() {
                usage(&format!("cache gc takes no further arguments, got {tok:?}"));
            }
            let max_bytes = match parsed.value_of("--max-bytes") {
                Some(raw) => ok_or_usage(expect_u64("--max-bytes", raw)),
                None => 0,
            };
            let stats = store.gc(max_bytes).unwrap_or_else(|e| {
                eprintln!("error pruning cache at {}: {e}", store.root().display());
                exit(1);
            });
            println!(
                "removed {} entr{} ({} bytes), kept {}",
                stats.removed,
                if stats.removed == 1 { "y" } else { "ies" },
                stats.freed_bytes,
                stats.kept
            );
        }
        "path" => match rest {
            [] => println!("{}", store.root().display()),
            [prefix] => {
                let matches = store.resolve_prefix(prefix).unwrap_or_else(|e| {
                    eprintln!("error reading cache at {}: {e}", store.root().display());
                    exit(1);
                });
                match matches.as_slice() {
                    [] => {
                        eprintln!("error: no cache entry matches {prefix:?}");
                        exit(1);
                    }
                    [path] => println!("{}", path.display()),
                    many => {
                        eprintln!(
                            "error: {prefix:?} is ambiguous ({} entries match)",
                            many.len()
                        );
                        exit(1);
                    }
                }
            }
            [_, tok, ..] => usage(&format!(
                "cache path takes at most one digest prefix, got {tok:?}"
            )),
        },
        other => usage(&format!("unknown cache action {other:?} (ls|gc|path)")),
    }
}

#[cfg(test)]
mod tests {
    use super::telemetry_sidecar_path;
    use std::path::Path;

    #[test]
    fn sidecar_path_replaces_a_json_suffix() {
        assert_eq!(
            telemetry_sidecar_path(Path::new("target/experiments/eproc_comparison.json")),
            Path::new("target/experiments/eproc_comparison.telemetry.json")
        );
    }

    #[test]
    fn sidecar_path_keeps_dotted_names_without_a_json_suffix() {
        // `with_extension` would truncate this to `run-2.telemetry.json`.
        assert_eq!(
            telemetry_sidecar_path(Path::new("out/run-2.5x")),
            Path::new("out/run-2.5x.telemetry.json")
        );
    }

    #[test]
    fn sidecar_path_strips_only_one_json_suffix() {
        assert_eq!(
            telemetry_sidecar_path(Path::new("a.json.json")),
            Path::new("a.json.telemetry.json")
        );
    }
}
