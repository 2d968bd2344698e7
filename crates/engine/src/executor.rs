//! Work-stealing parallel execution of [`ExperimentSpec`]s.
//!
//! Jobs — one per (graph, process, trial) — are pulled from a shared
//! atomic index by scoped worker threads, so load-balancing needs no
//! queues and no extra dependencies. Every trial derives its own RNG
//! stream from [`SeedSequence`] keyed by the trial's grid coordinates, and
//! aggregation folds trials in coordinate order, which makes the
//! aggregate report **bit-identical for any thread count**.
//!
//! Each trial walks the graph **once**: the spec's target and every
//! requested [`MetricSpec`] attach [`Observer`]s to the same
//! [`eproc_core::observe::run_observed`] trajectory, which runs until all
//! of them resolve (or the cap). The trial is dispatched through the
//! (process × metric-set) enum pair [`crate::spec::WalkKernel`] ×
//! [`AnyObserver`], so the per-step loop is monomorphized — no boxed
//! walk, no dyn-observer fan-out. Workers keep their observer set
//! between consecutive trials on the same graph, so the word-packed
//! [`eproc_core::bitset::BitSet`] scratch bitmaps are re-armed (`m / 64`
//! word writes) rather than reallocated.
//!
//! The work unit is a block of one trial group (see `BlockShape`). Under
//! a [`ResamplePlan`] a group is `walks_per_graph` consecutive trials,
//! a block is one *(family, group)* pair spanning every process, and the
//! worker claiming it samples the group's graph from its
//! [`resample_graph_seed`] — blocks partition the samples, so graph
//! generation parallelises across the pool exactly like the walks. In
//! shared-graph mode a group is a `SHARED_BLOCK_WALKS`-trial chunk of
//! the family's prebuilt graph and a block is one *(family, group,
//! process)* triple, so the processes of one family spread over the
//! pool. Both modes run the **same** block runner and the same
//! aggregation tail — there is exactly one aggregation path and no
//! per-trial vector anywhere.
//!
//! A process that never draws from its RNG (rotor-router, Oldest-First,
//! Least-Used-First) walks the same path in every trial, so a block walks
//! it once and folds that outcome once per trial: the aggregates are the
//! ones per-trial walking would produce, at one walk's cost.
//!
//! Aggregation is **streamed twice over**. Inside a block the claiming
//! worker folds each trial straight into per-(block, process)
//! [`OnlineStats`] + [`QuantileSketch`] accumulators and drops the
//! trial, so a block contributes `O(processes × columns)` memory no
//! matter how many trials it runs or how large its graph is. Completed
//! blocks stream back to the main thread over a channel and fold into
//! the per-cell `CellFolder` in canonical block order —
//! workers are back-pressured a bounded window ahead of the fold — so
//! the run's aggregation state is `O(cells × columns)` independent of
//! the trial count: the property that unlocks billion-trial runs. The
//! per-block accumulators double as the groups of the pooled /
//! across-graph / within-graph [`VarianceSplit`]s, and every sketch's
//! compaction coins derive from [`SeedSequence`] streams keyed by grid
//! coordinates — all of it bit-identical for any thread count.

use crate::spec::{AnyObserver, ExperimentSpec, MetricSpec, ResamplePlan, SpecError, Target};
use crate::{with_kernel, with_kernel_lanes};
use eproc_core::interleave::{run_observed_interleaved, Lane};
use eproc_core::observe::{run_observed, Metrics, Observer, StopWhen};
use eproc_graphs::Graph;
use eproc_stats::{OnlineStats, QuantileSketch, SeedSequence};
use eproc_telemetry::{Event, EventKind, NullSink, Stopwatch, TelemetrySink};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// Seed-stream tag for graph construction.
const GRAPH_STREAM: u64 = 0;
/// Seed-stream tag for trial RNGs.
const TRIAL_STREAM: u64 = 1;
/// Seed-stream tag for resampled per-group graphs.
const RESAMPLE_STREAM: u64 = 2;
/// Seed-stream tag for per-block quantile-sketch compaction coins.
const SKETCH_STREAM: u64 = 3;
/// Seed-stream tag for per-cell quantile-sketch compaction coins (the
/// accumulators block sketches merge into).
const CELL_SKETCH_STREAM: u64 = 4;

/// Trials per *(family, group)* block in shared-graph mode. Shared runs
/// have no resample plan to set a group width, so the executor chunks
/// each family's trials into blocks of this many — large enough that
/// per-block costs (observer banks, channel sends) amortise away, small
/// enough that huge-trial runs still stream block by block.
pub(crate) const SHARED_BLOCK_WALKS: usize = 64;

/// Execution options independent of the experiment itself.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads (`0` is rejected; see [`RunOptions::auto`]).
    pub threads: usize,
    /// Base seed: all graph and trial seeds derive from it.
    pub base_seed: u64,
}

impl RunOptions {
    /// Default options: all available cores, base seed `12345`.
    pub fn auto() -> RunOptions {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        RunOptions {
            threads,
            base_seed: 12345,
        }
    }
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions::auto()
    }
}

/// Execution failure.
#[derive(Debug)]
pub enum EngineError {
    /// The spec failed validation.
    Spec(SpecError),
    /// A graph family could not be constructed (shared-graph mode builds
    /// every family up front, before the worker pool starts).
    Graph {
        /// Label of the failing family.
        graph: String,
        /// Underlying generator error.
        source: eproc_graphs::GraphError,
    },
    /// A *(family, group)* block failed inside the worker pool: the
    /// worker that claimed the block could not generate the group's
    /// graph sample (resample mode), or its trial loop panicked (caught
    /// at the block isolation boundary, leaving the pool unpoisoned).
    /// Carries the full block context so a failure deep in a long sweep
    /// names exactly which work unit died and where.
    Block {
        /// Label of the failing family.
        graph: String,
        /// Resample group whose block failed.
        group: usize,
        /// Index of the worker that claimed the block.
        worker: usize,
        /// What killed the block.
        source: BlockError,
    },
}

/// What killed a single block: the group's graph sample could not be
/// generated (resample mode), or the block's trial loop panicked. Panics are
/// caught per block (`catch_unwind` in the worker loop), so one bad
/// block surfaces as an error value instead of tearing down the pool —
/// and `--retry-blocks` can deterministically re-run it.
#[derive(Debug)]
pub enum BlockError {
    /// Graph generation for the block's group failed.
    Graph(eproc_graphs::GraphError),
    /// The block panicked; carries the panic payload rendered as text.
    Panic(String),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::Graph(e) => write!(f, "{e}"),
            BlockError::Panic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for BlockError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlockError::Graph(e) => Some(e),
            BlockError::Panic(_) => None,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Spec(e) => write!(f, "invalid spec: {e}"),
            EngineError::Graph { graph, source } => {
                write!(f, "building graph {graph}: {source}")
            }
            EngineError::Block {
                graph,
                group,
                worker,
                source,
            } => {
                write!(
                    f,
                    "block (family {graph}, resample group {group}) failed on worker {worker}: \
                     {source}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Spec(e) => Some(e),
            EngineError::Graph { source, .. } => Some(source),
            EngineError::Block { source, .. } => Some(source),
        }
    }
}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> EngineError {
        EngineError::Spec(e)
    }
}

/// Everything measured in one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Steps to reach the target, if reached within the cap.
    pub steps_to_target: Option<u64>,
    /// Steps actually taken (may exceed the target step when extra
    /// metrics keep the walk going).
    pub steps: u64,
    /// Blue (unvisited-edge-preferring) transitions; `0` for blanket runs,
    /// whose target observer does not classify steps.
    pub blue_steps: u64,
    /// Red transitions; `0` for blanket runs.
    pub red_steps: u64,
    /// One scalar per metric column (spec order; `None` = unresolved
    /// within the cap).
    pub metric_values: Vec<Option<f64>>,
}

/// Across/within decomposition of one column's trial values under graph
/// resampling — the one-way random-effects layout with graph samples as
/// groups. `pooled` lives on the owning summary; this struct carries the
/// two components it splits into.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceSplit {
    /// Graph samples that contributed at least one resolved value.
    pub graph_samples: usize,
    /// Statistics over per-graph means — their variance is the
    /// across-graph component the whp-over-the-graph theorems speak to.
    pub across: OnlineStats,
    /// Pooled within-graph sample variance — walk-to-walk noise on a
    /// fixed graph. `None` when no graph sample had two resolved values
    /// (e.g. `walks_per_graph = 1`).
    pub within_variance: Option<f64>,
}

/// Streaming builder of a [`VarianceSplit`]: feeds per-group statistics
/// one group at a time (canonical group order), so the split needs no
/// retained group list. The floating-point operation order is exactly
/// the old collect-then-fold order — `across` pushes and the within-SS
/// additions happen once per group, in group order.
#[derive(Debug, Clone, Default)]
struct SplitAcc {
    graph_samples: usize,
    across: OnlineStats,
    within_ss: f64,
    within_dof: u64,
}

impl SplitAcc {
    /// Folds one group's statistics (skipping empty groups).
    fn feed(&mut self, g: &OnlineStats) {
        if g.count() == 0 {
            return;
        }
        self.graph_samples += 1;
        self.across.push(g.mean());
        if g.count() >= 2 {
            self.within_ss += g.variance() * (g.count() - 1) as f64;
            self.within_dof += g.count() - 1;
        }
    }

    fn finish(self) -> VarianceSplit {
        VarianceSplit {
            graph_samples: self.graph_samples,
            across: self.across,
            within_variance: (self.within_dof > 0).then(|| self.within_ss / self.within_dof as f64),
        }
    }
}

/// Aggregate of one metric column over a cell's trials.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Column name (see [`MetricSpec::columns`]).
    pub name: String,
    /// Streaming statistics over trials whose value resolved.
    pub stats: OnlineStats,
    /// Mergeable quantile sketch over the same resolved values.
    pub sketch: QuantileSketch,
    /// Variance decomposition under resampling (`None` in shared-graph
    /// mode).
    pub split: Option<VarianceSplit>,
}

/// Aggregated statistics for one (graph, process) cell.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Graph family label.
    pub graph: String,
    /// Size-free family key (see [`crate::spec::GraphSpec::family_label`])
    /// — what the scaling subsystem groups sweep series by. Not
    /// serialised into artifacts.
    pub family: String,
    /// Vertex count of the built graph.
    pub n: usize,
    /// Edge count of the built graph.
    pub m: usize,
    /// Process label.
    pub process: String,
    /// Trials attempted.
    pub trials: usize,
    /// Trials that reached the target within the cap.
    pub completed: usize,
    /// Streaming statistics over steps-to-target of completed trials.
    pub steps: OnlineStats,
    /// Mergeable quantile sketch over the same steps-to-target values —
    /// what the report's `p50`/`p90`/`p99` columns read.
    pub steps_sketch: QuantileSketch,
    /// Streaming statistics over the per-trial blue-step fraction
    /// (`blue / (blue + red)`); empty for blanket targets.
    pub blue_fraction: OnlineStats,
    /// Variance decomposition of steps-to-target under resampling
    /// (`None` in shared-graph mode).
    pub steps_split: Option<VarianceSplit>,
    /// One aggregate per metric column, in spec order.
    pub metrics: Vec<MetricSummary>,
}

/// The full result of running one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Spec name.
    pub name: String,
    /// Spec description.
    pub description: String,
    /// Target measured.
    pub target: Target,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed used.
    pub base_seed: u64,
    /// The resample plan the trials ran under (`None` = shared graphs).
    pub resample: Option<ResamplePlan>,
    /// One summary per (graph, process) pair, in grid order. Under
    /// resampling, `n`/`m` describe the family's **group-0 sample** as a
    /// representative (the per-trial samples of a geometric family vary
    /// in `m`; `n` is identical across samples).
    pub cells: Vec<CellSummary>,
}

/// The seed a graph at grid index `gi` is built from. Exposed so thin
/// wrappers (e.g. `table_theorem1`) can rebuild the *identical* graph for
/// per-graph enrichment columns.
pub fn graph_seed(base_seed: u64, graph_index: usize) -> u64 {
    SeedSequence::new(base_seed).derive(&[GRAPH_STREAM, graph_index as u64])
}

/// The seed for trial `t` of cell `(gi, pi)`.
pub fn trial_seed(base_seed: u64, graph_index: usize, process_index: usize, trial: usize) -> u64 {
    SeedSequence::new(base_seed).derive(&[
        TRIAL_STREAM,
        graph_index as u64,
        process_index as u64,
        trial as u64,
    ])
}

/// The seed the `group`-th resampled graph of family `gi` is built from
/// (see [`ResamplePlan`]). Deliberately **not** keyed by process index:
/// every process in a cell walks the same ensemble member, so process
/// comparisons stay paired sample by sample.
pub fn resample_graph_seed(base_seed: u64, graph_index: usize, group: usize) -> u64 {
    SeedSequence::new(base_seed).derive(&[RESAMPLE_STREAM, graph_index as u64, group as u64])
}

/// The coin-stream seed for the block-level [`QuantileSketch`] of column
/// `col` (0 = steps-to-target, `i + 1` = metric column `i`) in block
/// *(family `gi`, group, process `pi`)*. Keyed by the full grid
/// coordinate — never wall clock or thread schedule — so every block
/// sketch is a pure function of `(base_seed, block)` and artifacts stay
/// byte-identical across thread counts, shards and resume.
pub(crate) fn block_sketch_seed(
    base_seed: u64,
    gi: usize,
    group: usize,
    pi: usize,
    col: usize,
) -> u64 {
    SeedSequence::new(base_seed).derive(&[
        SKETCH_STREAM,
        gi as u64,
        group as u64,
        pi as u64,
        col as u64,
    ])
}

/// The coin-stream seed for the *cell-level* sketch accumulator of
/// column `col` in cell `(gi, pi)` — the sketch block sketches merge
/// into, in canonical group order. A separate stream from
/// [`block_sketch_seed`] so the accumulator never collides with the
/// group-0 block sketch it first absorbs.
pub(crate) fn cell_sketch_seed(base_seed: u64, gi: usize, pi: usize, col: usize) -> u64 {
    SeedSequence::new(base_seed).derive(&[CELL_SKETCH_STREAM, gi as u64, pi as u64, col as u64])
}

/// Trials per *(family, group)* block: the plan's `walks_per_graph`
/// under resampling, [`SHARED_BLOCK_WALKS`] on a shared graph.
pub(crate) fn block_width(spec: &ExperimentSpec) -> usize {
    match spec.resample {
        Some(plan) => plan.walks_per_graph.max(1),
        None => SHARED_BLOCK_WALKS,
    }
}

/// Trial groups per family — `ceil(trials / block_width)` in both modes
/// (and exactly [`ResamplePlan::groups`] under resampling).
pub(crate) fn block_group_count(spec: &ExperimentSpec) -> usize {
    spec.trials.div_ceil(block_width(spec))
}

/// How canonical block indices tile the *(family, group, process)* grid.
/// A resampled block owns a freshly generated graph, so it is one
/// *(family, group)* pair spanning every process; splitting it would
/// regenerate the graph once per process. A shared-mode block walks a
/// prebuilt graph, so it is one *(family, group, process)* triple. Either
/// way each cell meets its blocks in group order, so cells fold the same
/// accumulators in the same order under both tilings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockShape {
    /// Trial groups per family (see [`block_group_count`]).
    pub(crate) groups: usize,
    /// Processes in the grid.
    pub(crate) processes: usize,
    /// Whether each block holds one process (shared mode) or all of them.
    pub(crate) per_process: bool,
}

/// Where one canonical block sits in the grid (see [`BlockShape::locate`]).
#[derive(Debug, Clone)]
pub(crate) struct BlockCoord {
    /// Family index.
    pub(crate) gi: usize,
    /// Trial group within the family.
    pub(crate) group: usize,
    /// The processes the block runs, in grid order.
    pub(crate) procs: std::ops::Range<usize>,
}

impl BlockShape {
    /// The tiling `spec`'s run uses.
    pub(crate) fn of(spec: &ExperimentSpec) -> BlockShape {
        BlockShape {
            groups: block_group_count(spec),
            processes: spec.processes.len(),
            per_process: spec.resample.is_none(),
        }
    }

    /// Canonical blocks over `families` graph families.
    pub(crate) fn total(&self, families: usize) -> usize {
        let per_group = if self.per_process { self.processes } else { 1 };
        families * self.groups * per_group
    }

    /// Maps canonical index `block` to its grid coordinate: `family *
    /// groups + group` under resampling, `(family * groups + group) *
    /// processes + process` in shared mode.
    pub(crate) fn locate(&self, block: usize) -> BlockCoord {
        let (unit, procs) = if self.per_process {
            let pi = block % self.processes;
            (block / self.processes, pi..pi + 1)
        } else {
            (block, 0..self.processes)
        };
        BlockCoord {
            gi: unit / self.groups,
            group: unit % self.groups,
            procs,
        }
    }
}

/// Builds every graph in the spec deterministically from `base_seed`.
pub fn build_graphs(spec: &ExperimentSpec, base_seed: u64) -> Result<Vec<Graph>, EngineError> {
    build_graphs_observed(spec, base_seed, &Telemetry::new(&NullSink))
}

/// The executor's telemetry context: the sink, the run clock every event
/// is stamped with, and the `enabled()` answer latched once — workers
/// test one boolean and skip event construction (and all clock reads)
/// entirely when nobody is listening, so an uninstrumented run pays
/// nothing on the hot path.
pub(crate) struct Telemetry<'a> {
    pub(crate) sink: &'a dyn TelemetrySink,
    pub(crate) clock: Stopwatch,
    pub(crate) live: bool,
}

impl<'a> Telemetry<'a> {
    pub(crate) fn new(sink: &'a dyn TelemetrySink) -> Telemetry<'a> {
        Telemetry {
            sink,
            clock: Stopwatch::start(),
            live: sink.enabled(),
        }
    }

    /// Stamps `kind` with the run clock and emits it. Callers guard with
    /// `self.live` so disabled runs never construct an [`EventKind`].
    pub(crate) fn emit(&self, kind: EventKind) {
        self.sink.emit(&Event {
            t_ns: self.clock.elapsed_ns(),
            kind,
        });
    }
}

/// [`build_graphs`] with telemetry: emits one `graph_built` event per
/// family when the sink is live. The builds (and their RNG draws) are
/// identical either way.
fn build_graphs_observed(
    spec: &ExperimentSpec,
    base_seed: u64,
    tel: &Telemetry<'_>,
) -> Result<Vec<Graph>, EngineError> {
    spec.graphs
        .iter()
        .enumerate()
        .map(|(gi, gs)| {
            let gen = tel.live.then(Stopwatch::start);
            let (g, attempts) = gs
                .build_counted(graph_seed(base_seed, gi))
                .map_err(|source| EngineError::Graph {
                    graph: gs.label(),
                    source,
                })?;
            if let Some(gen) = gen {
                tel.emit(EventKind::GraphBuilt {
                    graph: gs.label(),
                    n: g.n(),
                    m: g.m(),
                    gen_ns: gen.elapsed_ns(),
                    gen_attempts: attempts as u64,
                });
            }
            Ok(g)
        })
        .collect()
}

/// Streamed aggregates of one process's trials within one *(family,
/// group)* block — the executor's unit of aggregation in **both**
/// modes. Folding happens inside the worker that ran the block, so no
/// per-trial vector outlives the block. `pub(crate)` because shard
/// artifacts ([`crate::shard`]) and checkpoints persist these
/// accumulators (moments *and* sketches) verbatim.
#[derive(Debug, Clone)]
pub(crate) struct ProcAgg {
    /// Trials that reached the target within the cap.
    pub(crate) completed: usize,
    /// Steps-to-target of completed trials.
    pub(crate) steps: OnlineStats,
    /// Quantile sketch over the same steps-to-target values.
    pub(crate) steps_sketch: QuantileSketch,
    /// Per-trial blue fraction (trials with classified steps). No
    /// sketch: the fraction is a bounded diagnostic, not a tail
    /// statistic the report quantiles.
    pub(crate) blue_fraction: OnlineStats,
    /// One accumulator per metric column (resolved values only).
    pub(crate) metrics: Vec<OnlineStats>,
    /// One quantile sketch per metric column, same resolved values.
    pub(crate) metric_sketches: Vec<QuantileSketch>,
}

impl ProcAgg {
    /// An empty aggregate for block *(family `gi`, `group`, process
    /// `pi`)*, its sketches seeded from the block's grid coordinate (see
    /// [`block_sketch_seed`]).
    pub(crate) fn seeded(
        base_seed: u64,
        gi: usize,
        group: usize,
        pi: usize,
        metric_columns: usize,
    ) -> ProcAgg {
        ProcAgg {
            completed: 0,
            steps: OnlineStats::new(),
            steps_sketch: QuantileSketch::new(block_sketch_seed(base_seed, gi, group, pi, 0)),
            blue_fraction: OnlineStats::new(),
            metrics: vec![OnlineStats::new(); metric_columns],
            metric_sketches: (0..metric_columns)
                .map(|ci| QuantileSketch::new(block_sketch_seed(base_seed, gi, group, pi, ci + 1)))
                .collect(),
        }
    }

    /// Folds one trial, consuming it — the streaming step.
    fn fold(&mut self, outcome: TrialOutcome) {
        if let Some(s) = outcome.steps_to_target {
            self.steps.push(s as f64);
            self.steps_sketch.push(s as f64);
            self.completed += 1;
        }
        let classified = outcome.blue_steps + outcome.red_steps;
        if classified > 0 {
            self.blue_fraction
                .push(outcome.blue_steps as f64 / classified as f64);
        }
        for (acc, value) in self.metrics.iter_mut().zip(&outcome.metric_values) {
            if let Some(v) = value {
                acc.push(*v);
            }
        }
        for (sk, value) in self.metric_sketches.iter_mut().zip(&outcome.metric_values) {
            if let Some(v) = value {
                sk.push(*v);
            }
        }
    }
}

/// Streamed aggregates of one block (see [`BlockShape`]).
#[derive(Debug, Clone)]
pub(crate) struct BlockAgg {
    /// Canonical block index (see [`BlockShape::locate`]).
    pub(crate) block: usize,
    /// One aggregate per process the block runs, in grid order: every
    /// process under resampling, the block's one process in shared mode.
    pub(crate) procs: Vec<ProcAgg>,
}

/// A worker's reusable observer set for one graph: slot 0 is the target
/// observer, slots 1.. are the metric observers, all stored as
/// [`AnyObserver`] enum variants (static dispatch, no boxing). Re-armed
/// (`begin`) for every trial; rebuilt only when the worker moves to a
/// different graph.
struct ObserverBank<'g> {
    /// `[target, metric_0, metric_1, …]` — a homogeneous `Vec` so the
    /// whole bank feeds `run_observed` through the slice `ObserverSet`.
    observers: Vec<AnyObserver<'g>>,
}

impl<'g> ObserverBank<'g> {
    fn new(spec: &ExperimentSpec, g: &'g Graph) -> ObserverBank<'g> {
        let mut observers = Vec::with_capacity(1 + spec.metrics.len());
        observers.push(spec.target.build_observer(g));
        observers.extend(spec.metrics.iter().map(|m| m.build_observer(g)));
        ObserverBank { observers }
    }
}

/// Runs one trial: **one** walk feeding the target observer and every
/// metric observer, until all of them resolve or the cap.
///
/// This is the engine's (process × metric-set) monomorphization point:
/// the [`with_kernel!`] match binds the concrete process type once per
/// trial, so each arm instantiates [`run_observed`] with a concrete walk
/// and the enum-dispatched observer bank — no per-step virtual calls.
/// Trial outcomes (and hence all aggregates and JSON artifacts) are
/// bit-identical to the old boxed path: both draw the same RNG sequence.
fn run_trial(
    spec: &ExperimentSpec,
    g: &Graph,
    process_index: usize,
    seed: u64,
    bank: &mut ObserverBank<'_>,
) -> TrialOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let kernel = spec.processes[process_index].build_kernel(g, spec.start);
    let cap = spec.cap.resolve(g);
    let run = with_kernel!(kernel, walk => run_observed(
        &mut walk,
        &mut bank.observers,
        StopWhen::AllSatisfied,
        cap,
        &mut rng,
    ));
    extract_outcome(spec, run.steps, bank)
}

/// Harvests one trial's [`TrialOutcome`] from its finished observer bank —
/// the target-extraction half of a trial, shared verbatim by the
/// sequential ([`run_trial`]) and interleaved ([`run_trials_interleaved`])
/// paths so both produce identical outcomes from identical walks.
fn extract_outcome(spec: &ExperimentSpec, steps: u64, bank: &mut ObserverBank<'_>) -> TrialOutcome {
    let (steps_to_target, blue_steps, red_steps) = match (spec.target, bank.observers[0].finish()) {
        (Target::Blanket { .. }, Metrics::Blanket(b)) => (b.steps_to_blanket, 0, 0),
        (target, Metrics::Cover(c)) => {
            let steps_to_target = match target {
                Target::VertexCover => c.steps_to_vertex_cover,
                Target::EdgeCover => c.steps_to_edge_cover,
                Target::BothCover => c
                    .steps_to_vertex_cover
                    .and(c.steps_to_edge_cover)
                    .map(|_| c.steps_to_vertex_cover.max(c.steps_to_edge_cover).unwrap()),
                Target::Blanket { .. } => unreachable!(),
            };
            (steps_to_target, c.blue_steps, c.red_steps)
        }
        (target, metrics) => panic!("target {target:?} produced mismatched {metrics:?}"),
    };
    let mut metric_values = Vec::new();
    for (ms, obs) in spec.metrics.iter().zip(&mut bank.observers[1..]) {
        metric_values.extend(ms.values(&obs.finish()));
    }
    TrialOutcome {
        steps_to_target,
        steps,
        blue_steps,
        red_steps,
        metric_values,
    }
}

/// Most trials one interleaved lane set runs: beyond ~8 independent
/// pointer-chases the memory system's miss-handling capacity is saturated
/// and extra lanes only grow the working set.
pub const MAX_INTERLEAVE: usize = 8;

/// Which step-loop the executor dispatches a group of same-cell trials
/// through (see [`select_kernel_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// One trial at a time through [`eproc_core::observe::run_observed`].
    Sequential,
    /// `width` trials per lockstep lane set through
    /// [`eproc_core::interleave::run_observed_interleaved`].
    Interleaved {
        /// Concurrent lanes per set (`2..=MAX_INTERLEAVE`).
        width: usize,
    },
}

/// Picks the kernel path for a group of `group_trials` independent trials
/// sharing one graph. Pure cell-shape policy: two or more trials engage
/// the interleaved kernel (lane width capped at [`MAX_INTERLEAVE`]);
/// single-trial groups keep the sequential loop. Because the interleaved
/// per-trial streams are bit-identical to the sequential kernel's, the
/// choice is free — it never perturbs artifacts.
pub fn select_kernel_path(group_trials: usize) -> KernelPath {
    if group_trials >= 2 {
        KernelPath::Interleaved {
            width: group_trials.min(MAX_INTERLEAVE),
        }
    } else {
        KernelPath::Sequential
    }
}

/// Runs `seeds.len()` same-cell trials as one interleaved lane set (one
/// lane per seed, one observer bank per lane) and returns their outcomes
/// in seed order.
///
/// The [`with_kernel_lanes!`] dispatch binds the concrete process type
/// once for the whole set, so the lockstep loop is exactly as
/// monomorphized as the sequential kernel. Per-trial RNG streams, step
/// sequences and observer outputs are bit-identical to calling
/// [`run_trial`] per seed — pinned by `interleaved_trials_match_sequential`
/// below and the core `interleave_equivalence` proptests.
fn run_trials_interleaved(
    spec: &ExperimentSpec,
    g: &Graph,
    process_index: usize,
    seeds: &[u64],
    banks: &mut [ObserverBank<'_>],
) -> Vec<TrialOutcome> {
    assert!(seeds.len() <= banks.len(), "one bank per lane");
    let cap = spec.cap.resolve(g);
    let rngs: Vec<SmallRng> = seeds
        .iter()
        .map(|&seed| SmallRng::seed_from_u64(seed))
        .collect();
    let kernels: Vec<_> = seeds
        .iter()
        .map(|_| spec.processes[process_index].build_kernel(g, spec.start))
        .collect();
    let runs = with_kernel_lanes!(kernels, walks => {
        let mut lanes: Vec<Lane<'_, _, _, SmallRng>> = walks
            .into_iter()
            .zip(banks.iter_mut())
            .zip(rngs)
            .map(|((walk, bank), rng)| Lane::new(walk, &mut bank.observers, rng))
            .collect();
        run_observed_interleaved(&mut lanes, StopWhen::AllSatisfied, cap)
    });
    runs.iter()
        .zip(banks.iter_mut())
        .map(|(run, bank)| extract_outcome(spec, run.steps, bank))
        .collect()
}

/// Runs the experiment on `opts.threads` worker threads.
///
/// # Determinism
///
/// The report is a pure function of `(spec, opts.base_seed)`: graphs are
/// built from per-graph derived seeds, each trial owns an RNG derived from
/// its grid coordinates, and aggregation folds outcomes in coordinate
/// order. Thread count affects wall-clock time only.
///
/// # Errors
///
/// Returns [`EngineError`] if the spec is invalid or a graph cannot be
/// built.
///
/// # Panics
///
/// Panics if `opts.threads == 0` or a worker thread panics.
pub fn run(spec: &ExperimentSpec, opts: &RunOptions) -> Result<ExperimentReport, EngineError> {
    run_with_sink(spec, opts, &NullSink)
}

/// [`run`] with telemetry: emits structured [`Event`]s to `sink` as the
/// run progresses — `run_started`, per-family `graph_built` (shared
/// mode), per-block `block_claimed` / `block_completed`,
/// `aggregation_merged` and `run_finished`.
///
/// # Determinism
///
/// The report is **byte-identical** to [`run`]'s for the same `(spec,
/// opts.base_seed)` whatever the sink does: events carry labels and
/// integers measured *around* the deterministic work, never feed back
/// into it, and no RNG draw depends on the sink. A disabled sink (one
/// whose [`TelemetrySink::enabled`] is `false`, like [`NullSink`]) skips
/// event construction and clock reads entirely.
///
/// # Errors
///
/// As [`run`]; a graph failing *inside* the resample pool additionally
/// carries its block context as [`EngineError::Block`].
///
/// # Panics
///
/// As [`run`].
pub fn run_with_sink(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    sink: &dyn TelemetrySink,
) -> Result<ExperimentReport, EngineError> {
    // Validate before building: an infeasible family is a spec error the
    // caller should see immediately, not a generator failure. (`execute`
    // revalidates for direct `run_on_graphs` callers; the checks are
    // cheap and side-effect free.)
    spec.validate()?;
    let tel = Telemetry::new(sink);
    emit_run_started(spec, opts, &tel);
    if spec.resample.is_some() {
        // Resampled runs never touch a shared graph: every sample —
        // including the group-0 representative the report describes — is
        // generated inside the worker pool.
        execute(spec, opts, None, &tel)
    } else {
        let graphs = build_graphs_observed(spec, opts.base_seed, &tel)?;
        execute(spec, opts, Some(&graphs), &tel)
    }
}

/// Like [`run`], but on graphs already built with [`build_graphs`] for the
/// same `(spec, opts.base_seed)` — for wrappers that also need the graphs
/// themselves (e.g. per-graph enrichment columns) without building every
/// family twice.
///
/// # Errors
///
/// Returns [`EngineError`] if the spec is invalid, including any spec
/// with a [`ResamplePlan`]: resampled trials generate their own samples
/// in the worker pool, so prebuilt graphs cannot be honoured.
///
/// # Panics
///
/// Panics if `opts.threads == 0`, `graphs.len() != spec.graphs.len()`, or
/// a worker thread panics.
pub fn run_on_graphs(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    graphs: &[Graph],
) -> Result<ExperimentReport, EngineError> {
    run_on_graphs_with_sink(spec, opts, graphs, &NullSink)
}

/// [`run_on_graphs`] with telemetry — see [`run_with_sink`] for the event
/// contract. No `graph_built` events are emitted: the caller built the
/// graphs.
///
/// # Errors
///
/// As [`run_on_graphs`].
///
/// # Panics
///
/// As [`run_on_graphs`].
pub fn run_on_graphs_with_sink(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    graphs: &[Graph],
    sink: &dyn TelemetrySink,
) -> Result<ExperimentReport, EngineError> {
    assert_eq!(
        graphs.len(),
        spec.graphs.len(),
        "graphs do not match the spec grid"
    );
    // A resample spec would not walk the supplied graphs at all — the
    // workers generate their own samples — so per-graph enrichment
    // columns computed from `graphs` would describe graphs the report
    // never touched. Refuse rather than mislead; resampled runs go
    // through [`run`].
    if spec.resample.is_some() {
        return Err(EngineError::Spec(SpecError::new(
            "run_on_graphs cannot honour prebuilt graphs under resampling; use run()",
        )));
    }
    spec.validate()?;
    let tel = Telemetry::new(sink);
    emit_run_started(spec, opts, &tel);
    execute(spec, opts, Some(graphs), &tel)
}

/// Announces the full shape of the work ahead. Emitted by the public
/// entry points *before* any graph is built, so `run_started` is always
/// the stream's first event (the shape is a pure function of the
/// validated spec and options — nothing here runs).
fn emit_run_started(spec: &ExperimentSpec, opts: &RunOptions, tel: &Telemetry<'_>) {
    if !tel.live {
        return;
    }
    let total = spec.total_jobs();
    let total_blocks = BlockShape::of(spec).total(spec.graphs.len());
    tel.emit(EventKind::RunStarted {
        name: spec.name.clone(),
        graphs: spec.graphs.len(),
        processes: spec.processes.len(),
        trials: spec.trials,
        blocks: total_blocks,
        total_trials: total as u64,
        workers: opts.threads.min(total_blocks.max(1)),
        resampled: spec.resample.is_some(),
        shard: None,
    });
}

/// Range checks every start and hitting vertex against every family —
/// shared by [`execute`] and the sharded runner ([`crate::shard`]), so a
/// bad spec fails identically whether or not the run is partitioned.
/// `prebuilt` supplies exact vertex counts in shared-graph mode; under
/// resampling every sample of a family has the same count, so the checks
/// need no generated graph.
pub(crate) fn validate_vertices(
    spec: &ExperimentSpec,
    prebuilt: Option<&[Graph]>,
) -> Result<(), EngineError> {
    for (gi, gs) in spec.graphs.iter().enumerate() {
        let n = match prebuilt {
            Some(graphs) => graphs[gi].n(),
            None => gs.vertex_count().map_err(EngineError::Spec)?,
        };
        if spec.start >= n {
            return Err(EngineError::Spec(SpecError::new(format!(
                "start vertex {} out of range for {} (n = {})",
                spec.start,
                gs.label(),
                n
            ))));
        }
        for metric in &spec.metrics {
            if let MetricSpec::Hitting { vertex: Some(v) } = metric {
                if *v >= n {
                    return Err(EngineError::Spec(SpecError::new(format!(
                        "hitting vertex {} out of range for {} (n = {})",
                        v,
                        gs.label(),
                        n
                    ))));
                }
            }
        }
    }
    Ok(())
}

/// Everything one block produced.
pub(crate) struct BlockResult {
    /// The block's streamed per-process aggregates.
    pub(crate) agg: BlockAgg,
    /// `(family, n, m)` when this was the family's group-0 block — the
    /// representative dimensions the report describes the family with.
    pub(crate) rep: Option<(usize, usize, usize)>,
    /// Trials the block folded.
    pub(crate) trials: u64,
    /// Walk steps the block actually simulated.
    pub(crate) steps: u64,
}

/// Runs one block (see [`BlockShape`]): obtains the block's graph — the
/// family's prebuilt graph in shared mode, a freshly sampled group graph
/// under resampling — runs the block's trials of each of its processes
/// on it and streams every trial into per-process [`ProcAgg`]s. A
/// process that draws randomness dispatches its trials through
/// [`select_kernel_path`] (the interleaved lane set when the group has
/// two or more trials). One that does not
/// ([`crate::spec::ProcessSpec::draws_randomness`]) walks the identical
/// path in every trial, so it walks **once**, with trial `lo`'s seed,
/// and that outcome is folded once per trial — the same Welford and
/// sketch pushes in the same order. Emits `block_claimed` /
/// `block_completed` when `tel` is live; the completion counts every
/// folded trial but only the steps actually walked.
/// Deterministic: the result is a pure function of `(spec, base_seed,
/// block)` — worker id and telemetry only label events — which is what
/// lets sharded runs farm blocks out by residue class and still merge
/// byte-identically.
pub(crate) fn run_block(
    spec: &ExperimentSpec,
    base_seed: u64,
    block: usize,
    worker: usize,
    n_cols: usize,
    prebuilt: Option<&Graph>,
    tel: &Telemetry<'_>,
) -> Result<BlockResult, EngineError> {
    let w = block_width(spec);
    let trials = spec.trials;
    let shape = BlockShape::of(spec);
    let BlockCoord {
        gi,
        group,
        procs: proc_range,
    } = shape.locate(block);
    let live = tel.live;
    // Shared blocks hold one process and name it; resampled ones span all.
    let process = (live && shape.per_process).then(|| spec.processes[proc_range.start].label());
    if live {
        tel.emit(EventKind::BlockClaimed {
            block,
            family: spec.graphs[gi].label(),
            group,
            process: process.clone(),
            worker,
        });
    }
    let mut owned: Option<Graph> = None;
    let (g, attempts, gen_ns): (&Graph, u64, u64) = match prebuilt {
        Some(g) => (g, 0, 0),
        None => {
            let seed = resample_graph_seed(base_seed, gi, group);
            let gen = live.then(Stopwatch::start);
            let (g, attempts) =
                spec.graphs[gi]
                    .build_counted(seed)
                    .map_err(|source| EngineError::Block {
                        graph: spec.graphs[gi].label(),
                        group,
                        worker,
                        source: BlockError::Graph(source),
                    })?;
            let gen_ns = gen.map_or(0, |gen| gen.elapsed_ns());
            (owned.insert(g), attempts as u64, gen_ns)
        }
    };
    let rep = (prebuilt.is_none() && group == 0).then(|| (gi, g.n(), g.m()));
    let lo = group * w;
    let hi = ((group + 1) * w).min(trials);
    let path = select_kernel_path(hi - lo);
    // One observer bank per lane, built once per block and re-armed
    // across processes and chunks (`begin` re-arms completely — pinned by
    // `observer_bank_reuse_matches_fresh_observers`). A block of RNG-free
    // processes walks one trial at a time, so one bank serves it.
    let lanes = match path {
        KernelPath::Interleaved { width }
            if proc_range
                .clone()
                .any(|pi| spec.processes[pi].draws_randomness()) =>
        {
            width
        }
        _ => 1,
    };
    let mut banks: Vec<ObserverBank<'_>> = (0..lanes).map(|_| ObserverBank::new(spec, g)).collect();
    let mut procs: Vec<ProcAgg> = proc_range
        .clone()
        .map(|pi| ProcAgg::seeded(base_seed, gi, group, pi, n_cols))
        .collect();
    let walk = live.then(Stopwatch::start);
    let mut block_trials = 0u64;
    let mut block_steps = 0u64;
    for (pi, agg) in proc_range.zip(procs.iter_mut()) {
        if !spec.processes[pi].draws_randomness() {
            let seed = trial_seed(base_seed, gi, pi, lo);
            let outcome = run_trial(spec, g, pi, seed, &mut banks[0]);
            block_trials += (hi - lo) as u64;
            block_steps += outcome.steps;
            for _ in lo..hi {
                agg.fold(outcome.clone());
            }
            continue;
        }
        match path {
            KernelPath::Sequential => {
                for t in lo..hi {
                    let seed = trial_seed(base_seed, gi, pi, t);
                    let outcome = run_trial(spec, g, pi, seed, &mut banks[0]);
                    block_trials += 1;
                    block_steps += outcome.steps;
                    agg.fold(outcome);
                }
            }
            KernelPath::Interleaved { width } => {
                // Outcomes fold in trial-index order — chunk by chunk,
                // lane order within a chunk — the exact order the
                // sequential loop folds them.
                let mut t = lo;
                while t < hi {
                    let chunk = (hi - t).min(width);
                    let seeds: Vec<u64> = (t..t + chunk)
                        .map(|t| trial_seed(base_seed, gi, pi, t))
                        .collect();
                    for outcome in run_trials_interleaved(spec, g, pi, &seeds, &mut banks[..chunk])
                    {
                        block_trials += 1;
                        block_steps += outcome.steps;
                        agg.fold(outcome);
                    }
                    t += chunk;
                }
            }
        }
    }
    if let Some(walk) = walk {
        tel.emit(EventKind::BlockCompleted {
            block,
            family: spec.graphs[gi].label(),
            group,
            process,
            worker,
            trials: block_trials,
            steps: block_steps,
            gen_ns,
            gen_attempts: attempts,
            walk_ns: walk.elapsed_ns(),
        });
    }
    Ok(BlockResult {
        agg: BlockAgg { block, procs },
        rep,
        trials: block_trials,
        steps: block_steps,
    })
}

/// Renders a caught panic payload as text: `&str` and `String` payloads
/// (everything `panic!` produces) verbatim, anything else a placeholder.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`run_block`] behind a per-block `catch_unwind` isolation boundary:
/// a panic anywhere in the block — graph sampling, the walk kernel, an
/// observer — is caught and surfaced as [`EngineError::Block`] with a
/// [`BlockError::Panic`] source, instead of unwinding through the
/// worker and poisoning the pool. Every in-pool block runner (plain
/// runs, sharded runs, recoverable runs) goes through this wrapper, so
/// one bad block is always a reportable, retryable error value.
pub(crate) fn run_block_isolated(
    spec: &ExperimentSpec,
    base_seed: u64,
    block: usize,
    worker: usize,
    n_cols: usize,
    prebuilt: Option<&Graph>,
    tel: &Telemetry<'_>,
) -> Result<BlockResult, EngineError> {
    // AssertUnwindSafe: on Err every captured reference is dropped
    // without further use — the worker reports the error and stops — so
    // no closure state is observed in a broken intermediate state.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_block(spec, base_seed, block, worker, n_cols, prebuilt, tel)
    }))
    .unwrap_or_else(|payload| {
        let at = BlockShape::of(spec).locate(block);
        Err(EngineError::Block {
            graph: spec.graphs[at.gi].label(),
            group: at.group,
            worker,
            source: BlockError::Panic(panic_message(payload)),
        })
    })
}

/// The spec-shaped context cell aggregation needs — split from
/// [`ExperimentSpec`] so `eproc merge` can aggregate from shard headers
/// alone, through the **same** code path (and hence the same
/// floating-point operation order) as an unsharded run.
pub(crate) struct CellInputs<'a> {
    /// `(label, family_label)` per graph family, in grid order.
    pub(crate) graphs: &'a [(String, String)],
    /// Process labels, in grid order.
    pub(crate) processes: &'a [String],
    /// Flattened metric column names.
    pub(crate) metric_columns: &'a [String],
    /// Trials per cell.
    pub(crate) trials: usize,
    /// Trial groups per family (see [`block_group_count`]).
    pub(crate) group_count: usize,
    /// The run's base seed — cell sketch accumulators derive their coin
    /// streams from it (see [`cell_sketch_seed`]).
    pub(crate) base_seed: u64,
    /// Whether the blocks are resampled graph groups. Drives the
    /// variance splits: shared-mode chunks all walk one graph, so an
    /// across/within decomposition over them would be meaningless. Also
    /// picks the block tiling (see [`BlockShape`]).
    pub(crate) resampled: bool,
}

impl CellInputs<'_> {
    /// The block tiling these inputs were produced under.
    fn shape(&self) -> BlockShape {
        BlockShape {
            groups: self.group_count,
            processes: self.processes.len(),
            per_process: !self.resampled,
        }
    }
}

/// One cell's streaming accumulators inside a [`CellFolder`].
struct CellAcc {
    completed: usize,
    steps: OnlineStats,
    steps_sketch: QuantileSketch,
    steps_split: SplitAcc,
    blue_fraction: OnlineStats,
    metrics: Vec<OnlineStats>,
    metric_sketches: Vec<QuantileSketch>,
    metric_splits: Vec<SplitAcc>,
}

/// The engine's **single** aggregation tail: folds streamed block
/// aggregates into grid-ordered cell accumulators, one block at a time,
/// strictly in canonical block order. Both execution modes,
/// `eproc merge` and `--resume` all feed it the same way, so every
/// recombination performs the identical Welford merges, sketch merges
/// and split feeds in the identical order — the whole byte-identity
/// story reduces to this one type. Memory is `O(cells × columns)`,
/// independent of both the trial count and the block count.
pub(crate) struct CellFolder<'a> {
    inputs: &'a CellInputs<'a>,
    cells: Vec<CellAcc>,
    fed: usize,
}

impl<'a> CellFolder<'a> {
    /// Empty accumulators for every `(family, process)` cell, sketch
    /// coin streams seeded from the cell's grid coordinate.
    pub(crate) fn new(inputs: &'a CellInputs<'a>) -> CellFolder<'a> {
        let n_cols = inputs.metric_columns.len();
        let mut cells = Vec::with_capacity(inputs.graphs.len() * inputs.processes.len());
        for gi in 0..inputs.graphs.len() {
            for pi in 0..inputs.processes.len() {
                cells.push(CellAcc {
                    completed: 0,
                    steps: OnlineStats::new(),
                    steps_sketch: QuantileSketch::new(cell_sketch_seed(
                        inputs.base_seed,
                        gi,
                        pi,
                        0,
                    )),
                    steps_split: SplitAcc::default(),
                    blue_fraction: OnlineStats::new(),
                    metrics: vec![OnlineStats::new(); n_cols],
                    metric_sketches: (0..n_cols)
                        .map(|ci| {
                            QuantileSketch::new(cell_sketch_seed(inputs.base_seed, gi, pi, ci + 1))
                        })
                        .collect(),
                    metric_splits: vec![SplitAcc::default(); n_cols],
                });
            }
        }
        CellFolder {
            inputs,
            cells,
            fed: 0,
        }
    }

    /// The next canonical block index this folder expects.
    pub(crate) fn fed(&self) -> usize {
        self.fed
    }

    /// Folds the next block. The per-block accumulators double as the
    /// groups of the variance splits: one Welford merge and one split
    /// feed per (block, process, column), no per-trial state.
    ///
    /// # Panics
    ///
    /// Panics if `agg` is not the block the canonical order expects —
    /// out-of-order folding would silently change sketch coin streams
    /// and Welford float bits.
    pub(crate) fn feed(&mut self, agg: &BlockAgg) {
        assert_eq!(agg.block, self.fed, "blocks must fold in canonical order");
        let BlockCoord { gi, procs, .. } = self.inputs.shape().locate(agg.block);
        assert_eq!(
            agg.procs.len(),
            procs.len(),
            "one aggregate per block process"
        );
        let n_proc = self.inputs.processes.len();
        for (pi, proc_agg) in procs.zip(&agg.procs) {
            let cell = &mut self.cells[gi * n_proc + pi];
            cell.completed += proc_agg.completed;
            cell.steps.merge(&proc_agg.steps);
            cell.steps_sketch.merge(&proc_agg.steps_sketch);
            cell.blue_fraction.merge(&proc_agg.blue_fraction);
            for (acc, part) in cell.metrics.iter_mut().zip(&proc_agg.metrics) {
                acc.merge(part);
            }
            for (sk, part) in cell
                .metric_sketches
                .iter_mut()
                .zip(&proc_agg.metric_sketches)
            {
                sk.merge(part);
            }
            if self.inputs.resampled {
                cell.steps_split.feed(&proc_agg.steps);
                for (split, part) in cell.metric_splits.iter_mut().zip(&proc_agg.metrics) {
                    split.feed(part);
                }
            }
        }
        self.fed += 1;
    }

    /// Renders the folded accumulators as grid-ordered [`CellSummary`]s.
    /// `dims` holds each family's representative `(n, m)`.
    pub(crate) fn finish(self, dims: &[(usize, usize)]) -> Vec<CellSummary> {
        let inputs = self.inputs;
        let mut out = Vec::with_capacity(self.cells.len());
        let mut accs = self.cells.into_iter();
        for (gi, (label, family)) in inputs.graphs.iter().enumerate() {
            let (rep_n, rep_m) = dims[gi];
            for process in inputs.processes {
                let acc = accs.next().expect("one accumulator per cell");
                let metrics = inputs
                    .metric_columns
                    .iter()
                    .zip(acc.metrics)
                    .zip(acc.metric_sketches)
                    .zip(acc.metric_splits)
                    .map(|(((name, stats), sketch), split)| MetricSummary {
                        name: name.clone(),
                        stats,
                        sketch,
                        split: inputs.resampled.then(|| split.finish()),
                    })
                    .collect();
                out.push(CellSummary {
                    graph: label.clone(),
                    family: family.clone(),
                    n: rep_n,
                    m: rep_m,
                    process: process.clone(),
                    trials: inputs.trials,
                    completed: acc.completed,
                    steps: acc.steps,
                    steps_sketch: acc.steps_sketch,
                    blue_fraction: acc.blue_fraction,
                    steps_split: inputs.resampled.then(|| acc.steps_split.finish()),
                    metrics,
                });
            }
        }
        out
    }
}

/// Folds a complete, canonically ordered block slice into grid-ordered
/// [`CellSummary`]s — the batch convenience over [`CellFolder`] used by
/// `eproc merge` and the recoverable runner, which retain their blocks
/// anyway (shard artifacts and checkpoints persist them). `blocks` is
/// indexed by canonical block index (see [`BlockShape::locate`]).
pub(crate) fn aggregate_cells(
    inputs: &CellInputs<'_>,
    dims: &[(usize, usize)],
    blocks: &[BlockAgg],
) -> Vec<CellSummary> {
    let mut folder = CellFolder::new(inputs);
    for block in blocks {
        folder.feed(block);
    }
    folder.finish(dims)
}

/// Shared core of [`run`] and [`run_on_graphs`]: validates, runs every
/// trial on the worker pool and aggregates. `prebuilt` is `Some` in
/// shared-graph mode; `None` means resample mode, where the reported
/// `n`/`m` are harvested from each family's group-0 sample. `tel` is the
/// run's telemetry context; all instrumentation is keyed off `tel.live`
/// so a [`NullSink`] run takes the exact uninstrumented path.
fn execute(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    prebuilt: Option<&[Graph]>,
    tel: &Telemetry<'_>,
) -> Result<ExperimentReport, EngineError> {
    assert!(opts.threads > 0, "need at least one worker thread");
    assert!(
        prebuilt.is_some() || spec.resample.is_some(),
        "shared-graph execution needs prebuilt graphs"
    );
    spec.validate()?;
    validate_vertices(spec, prebuilt)?;

    let trials = spec.trials;
    let metric_columns = spec.metric_columns();
    let n_cols = metric_columns.len();
    let group_count = block_group_count(spec);
    let shape = BlockShape::of(spec);
    let total_blocks = shape.total(spec.graphs.len());
    let workers = opts.threads.min(total_blocks.max(1));
    // Per-family representative dimensions `(n, m)` for the report: the
    // prebuilt graphs in shared mode, harvested from each family's
    // group-0 sample in resample mode.
    let mut dims: Vec<Option<(usize, usize)>> = match prebuilt {
        Some(graphs) => graphs.iter().map(|g| Some((g.n(), g.m()))).collect(),
        None => vec![None; spec.graphs.len()],
    };

    let graph_meta: Vec<(String, String)> = spec
        .graphs
        .iter()
        .map(|gs| (gs.label(), gs.family_label()))
        .collect();
    let proc_labels: Vec<String> = spec.processes.iter().map(|ps| ps.label()).collect();
    let inputs = CellInputs {
        graphs: &graph_meta,
        processes: &proc_labels,
        metric_columns: &metric_columns,
        trials,
        group_count,
        base_seed: opts.base_seed,
        resampled: spec.resample.is_some(),
    };
    let mut folder = CellFolder::new(&inputs);
    // Workers claim canonical block indices from the shared atomic and
    // stream each completed block straight back over a channel; the main
    // thread folds arrivals into `folder` the moment the canonical order
    // allows. A bounded claim window back-pressures the pool so the
    // out-of-order `pending` buffer (and hence total aggregation state)
    // stays `O(workers)` blocks — never `O(blocks)`, never `O(trials)`.
    enum WorkerMsg {
        Done(Box<BlockResult>),
        Failed(Box<EngineError>),
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let fed_floor = Mutex::new(0usize);
    let may_run = Condvar::new();
    let window = (workers * 2).max(8);
    let (send, recv) = mpsc::channel::<WorkerMsg>();

    let mut pending: BTreeMap<usize, BlockAgg> = BTreeMap::new();
    let mut first_error: Option<EngineError> = None;
    let mut total_trials_run = 0u64;
    let mut total_steps_run = 0u64;
    let mut agg_ns = 0u64;

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let send = send.clone();
            let next = &next;
            let stop = &stop;
            let fed_floor = &fed_floor;
            let may_run = &may_run;
            scope.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let block = next.fetch_add(1, Ordering::Relaxed);
                if block >= total_blocks {
                    break;
                }
                // Back-pressure: claims are handed out in canonical
                // order, so waiting until the fold floor is within
                // `window` of this claim cannot deadlock — the floor
                // block's owner always holds an earlier (unwaited or
                // already-satisfied) claim.
                {
                    let mut fed = fed_floor.lock().expect("fold floor lock");
                    while block >= *fed + window && !stop.load(Ordering::Relaxed) {
                        fed = may_run.wait(fed).expect("fold floor lock");
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let graph = prebuilt.map(|graphs| &graphs[shape.locate(block).gi]);
                let msg = match run_block_isolated(
                    spec,
                    opts.base_seed,
                    block,
                    worker,
                    n_cols,
                    graph,
                    tel,
                ) {
                    Ok(result) => WorkerMsg::Done(Box::new(result)),
                    Err(e) => WorkerMsg::Failed(Box::new(e)),
                };
                let failed = matches!(msg, WorkerMsg::Failed(_));
                if send.send(msg).is_err() || failed {
                    break;
                }
            });
        }
        drop(send);
        for msg in recv {
            match msg {
                WorkerMsg::Done(result) => {
                    total_trials_run += result.trials;
                    total_steps_run += result.steps;
                    if let Some((gi, n, m)) = result.rep {
                        dims[gi] = Some((n, m));
                    }
                    pending.insert(result.agg.block, result.agg);
                    let mut advanced = false;
                    while let Some(agg) = pending.remove(&folder.fed()) {
                        let fold = tel.live.then(Stopwatch::start);
                        folder.feed(&agg);
                        if let Some(fold) = fold {
                            agg_ns += fold.elapsed_ns();
                        }
                        advanced = true;
                    }
                    if advanced {
                        *fed_floor.lock().expect("fold floor lock") = folder.fed();
                        may_run.notify_all();
                    }
                }
                WorkerMsg::Failed(e) => {
                    // First failure wins; wake waiting workers so the
                    // pool drains instead of parking on the window.
                    if first_error.is_none() {
                        first_error = Some(*e);
                    }
                    stop.store(true, Ordering::Relaxed);
                    may_run.notify_all();
                }
            }
        }
    });
    if let Some(e) = first_error {
        return Err(e);
    }
    assert_eq!(folder.fed(), total_blocks, "every block was folded");

    let rep_dims: Vec<(usize, usize)> = dims
        .iter()
        .map(|dim| dim.expect("every family ran its group-0 block"))
        .collect();
    let cells = folder.finish(&rep_dims);
    if tel.live {
        tel.emit(EventKind::AggregationMerged {
            blocks: total_blocks,
            cells: cells.len(),
            agg_ns,
        });
        tel.emit(EventKind::RunFinished {
            wall_ns: tel.clock.elapsed_ns(),
            total_trials: total_trials_run,
            total_steps: total_steps_run,
        });
    }
    Ok(ExperimentReport {
        name: spec.name.clone(),
        description: spec.description.clone(),
        target: spec.target,
        trials,
        base_seed: opts.base_seed,
        resample: spec.resample,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CapSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec};

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "tiny".into(),
            description: "unit-test spec".into(),
            graphs: vec![GraphSpec::Cycle { n: 24 }, GraphSpec::Torus { w: 5, h: 5 }],
            processes: vec![
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
                ProcessSpec::Srw,
            ],
            trials: 3,
            target: Target::VertexCover,
            metrics: vec![],
            start: 0,
            cap: CapSpec::Auto,
            resample: None,
        }
    }

    #[test]
    fn run_produces_grid_ordered_cells() {
        let report = run(
            &tiny_spec(),
            &RunOptions {
                threads: 2,
                base_seed: 1,
            },
        )
        .unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cells[0].graph, "cycle n=24");
        assert_eq!(report.cells[0].process, "e-process(uniform)");
        assert_eq!(report.cells[1].process, "srw");
        assert_eq!(report.cells[2].graph, "torus 5x5");
        for cell in &report.cells {
            assert_eq!(cell.trials, 3);
            assert_eq!(
                cell.completed, 3,
                "{}/{} failed to cover",
                cell.graph, cell.process
            );
            assert!(cell.steps.mean() >= (cell.n - 1) as f64);
        }
    }

    #[test]
    fn eprocess_on_cycle_covers_in_exactly_n_minus_1() {
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Cycle { n: 24 }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 5,
            },
        )
        .unwrap();
        let cell = &report.cells[0];
        assert_eq!(cell.steps.mean(), 23.0);
        assert_eq!(cell.steps.min(), Some(23.0));
        assert_eq!(cell.steps.max(), Some(23.0));
        assert_eq!(cell.steps_sketch.count(), 3);
        assert_eq!(cell.steps_sketch.quantile(0.5), Ok(23.0));
        // The blue walk never takes a red step before covering a cycle.
        assert_eq!(cell.blue_fraction.mean(), 1.0);
    }

    #[test]
    fn capped_runs_report_incomplete() {
        let spec = ExperimentSpec {
            cap: CapSpec::Absolute(3),
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 2,
                base_seed: 2,
            },
        )
        .unwrap();
        for cell in &report.cells {
            assert_eq!(cell.completed, 0);
            assert_eq!(cell.steps.count(), 0);
        }
    }

    #[test]
    fn blanket_target_runs() {
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Complete { n: 8 }],
            processes: vec![ProcessSpec::Srw],
            target: Target::Blanket { delta: 0.3 },
            cap: CapSpec::Absolute(1_000_000),
            trials: 2,
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 2,
                base_seed: 3,
            },
        )
        .unwrap();
        assert_eq!(report.cells[0].completed, 2);
        // Blanket runs do not classify steps.
        assert_eq!(report.cells[0].blue_fraction.count(), 0);
    }

    #[test]
    fn seeds_differ_across_grid_coordinates() {
        let a = trial_seed(1, 0, 0, 0);
        let b = trial_seed(1, 0, 0, 1);
        let c = trial_seed(1, 0, 1, 0);
        let d = trial_seed(1, 1, 0, 0);
        let e = graph_seed(1, 0);
        let all = [a, b, c, d, e];
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "seed collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut spec = tiny_spec();
        spec.processes.clear();
        assert!(matches!(
            run(
                &spec,
                &RunOptions {
                    threads: 1,
                    base_seed: 1
                }
            ),
            Err(EngineError::Spec(_))
        ));
    }

    #[test]
    fn multi_metric_trial_walks_the_graph_exactly_once() {
        // On a cycle the E-process is deterministic: it walks straight
        // around, so vertex cover lands at n-1 and edge cover at n. A
        // trial measuring the target plus cover AND phase metrics must
        // take exactly n steps total — not a multiple of it, which is
        // what re-walking per metric would produce.
        let n = 16usize;
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Cycle { n }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            metrics: vec![MetricSpec::Cover, MetricSpec::Phases],
            trials: 1,
            ..tiny_spec()
        };
        let g = spec.graphs[0].build(1).unwrap();
        let mut bank = ObserverBank::new(&spec, &g);
        let outcome = run_trial(&spec, &g, 0, 42, &mut bank);
        assert_eq!(outcome.steps_to_target, Some((n - 1) as u64));
        assert_eq!(
            outcome.steps, n as u64,
            "one walk must feed every observer: {} steps taken for target + 2 metrics",
            outcome.steps
        );
        // Metric columns resolved from the same single pass.
        assert_eq!(
            outcome.metric_values,
            vec![
                Some((n - 1) as f64), // cover.c_v
                Some(n as f64),       // cover.c_e
                Some(n as f64),       // phases.first_blue
                Some(1.0),            // phases.blue_count
                Some(n as f64),       // phases.total_blue
                Some(1.0),            // phases.closed
            ]
        );
    }

    #[test]
    fn observer_bank_reuse_matches_fresh_observers() {
        // Consecutive trials through one reused bank must equal trials
        // through fresh banks: begin() re-arms completely.
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Torus { w: 5, h: 5 }],
            processes: vec![ProcessSpec::Srw],
            metrics: vec![
                MetricSpec::Cover,
                MetricSpec::Blanket { delta: 0.3 },
                MetricSpec::Hitting { vertex: None },
            ],
            ..tiny_spec()
        };
        let g = spec.graphs[0].build(2).unwrap();
        let mut reused = ObserverBank::new(&spec, &g);
        for seed in [7u64, 8, 9] {
            let a = run_trial(&spec, &g, 0, seed, &mut reused);
            let mut fresh = ObserverBank::new(&spec, &g);
            let b = run_trial(&spec, &g, 0, seed, &mut fresh);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn metrics_aggregate_into_cells() {
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Cycle { n: 12 }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            metrics: vec![MetricSpec::Cover, MetricSpec::Hitting { vertex: Some(6) }],
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 2,
                base_seed: 3,
            },
        )
        .unwrap();
        let cell = &report.cells[0];
        assert_eq!(cell.metrics.len(), 3);
        assert_eq!(cell.metrics[0].name, "cover.c_v");
        assert_eq!(cell.metrics[0].stats.mean(), 11.0);
        assert_eq!(cell.metrics[1].name, "cover.c_e");
        assert_eq!(cell.metrics[1].stats.mean(), 12.0);
        assert_eq!(cell.metrics[2].name, "hitting(6)");
        // Deterministic blue sweep reaches the antipode in 6 steps.
        assert_eq!(cell.metrics[2].stats.mean(), 6.0);
    }

    #[test]
    fn bad_start_and_hitting_vertices_are_rejected() {
        let mut spec = tiny_spec();
        spec.start = 1_000;
        assert!(matches!(
            run(
                &spec,
                &RunOptions {
                    threads: 1,
                    base_seed: 1
                }
            ),
            Err(EngineError::Spec(_))
        ));
        let mut spec = tiny_spec();
        spec.metrics = vec![MetricSpec::Hitting {
            vertex: Some(10_000),
        }];
        assert!(matches!(
            run(
                &spec,
                &RunOptions {
                    threads: 1,
                    base_seed: 1
                }
            ),
            Err(EngineError::Spec(_))
        ));
    }

    #[test]
    fn nonzero_start_runs() {
        let spec = ExperimentSpec {
            start: 5,
            graphs: vec![GraphSpec::Cycle { n: 10 }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 4,
            },
        )
        .unwrap();
        assert_eq!(report.cells[0].steps.mean(), 9.0);
    }

    #[test]
    fn kernel_path_selection_by_cell_shape() {
        assert_eq!(select_kernel_path(0), KernelPath::Sequential);
        assert_eq!(select_kernel_path(1), KernelPath::Sequential);
        assert_eq!(select_kernel_path(2), KernelPath::Interleaved { width: 2 });
        assert_eq!(select_kernel_path(8), KernelPath::Interleaved { width: 8 });
        assert_eq!(
            select_kernel_path(100),
            KernelPath::Interleaved {
                width: MAX_INTERLEAVE
            }
        );
    }

    #[test]
    fn interleaved_trials_match_sequential() {
        // The executor-level pin: run_trials_interleaved over a full
        // observer bank (target + metrics) must reproduce run_trial's
        // outcomes exactly, per seed, for every width the selector picks.
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Regular { n: 60, d: 4 }],
            processes: vec![
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
                ProcessSpec::Srw,
                ProcessSpec::RotorRouter,
            ],
            metrics: vec![MetricSpec::Cover, MetricSpec::Hitting { vertex: None }],
            trials: 8,
            ..tiny_spec()
        };
        let g = spec.graphs[0].build(11).unwrap();
        for pi in 0..spec.processes.len() {
            for width in [2usize, 3, 8] {
                let seeds: Vec<u64> = (0..width).map(|t| trial_seed(99, 0, pi, t)).collect();
                let expected: Vec<TrialOutcome> = seeds
                    .iter()
                    .map(|&seed| {
                        let mut bank = ObserverBank::new(&spec, &g);
                        run_trial(&spec, &g, pi, seed, &mut bank)
                    })
                    .collect();
                let mut banks: Vec<ObserverBank<'_>> =
                    (0..width).map(|_| ObserverBank::new(&spec, &g)).collect();
                let got = run_trials_interleaved(&spec, &g, pi, &seeds, &mut banks);
                assert_eq!(got, expected, "process {pi} width {width}");
            }
        }
    }

    #[test]
    fn block_shapes_tile_the_grid_in_canonical_order() {
        let shared = BlockShape {
            groups: 3,
            processes: 4,
            per_process: true,
        };
        let resampled = BlockShape {
            per_process: false,
            ..shared
        };
        let mut expected_shared = Vec::new();
        let mut expected_resampled = Vec::new();
        for gi in 0..2 {
            for group in 0..3 {
                expected_resampled.push((gi, group, 0..4));
                for pi in 0..4 {
                    expected_shared.push((gi, group, pi..pi + 1));
                }
            }
        }
        for (shape, expected) in [(shared, expected_shared), (resampled, expected_resampled)] {
            let got: Vec<_> = (0..shape.total(2))
                .map(|b| shape.locate(b))
                .map(|at| (at.gi, at.group, at.procs))
                .collect();
            assert_eq!(got, expected, "{shape:?}");
        }
    }

    /// A [`ProcAgg`]'s full state, sketches as their raw bits.
    fn agg_state(
        agg: &ProcAgg,
    ) -> (
        usize,
        OnlineStats,
        eproc_stats::SketchRaw,
        OnlineStats,
        Vec<OnlineStats>,
        Vec<eproc_stats::SketchRaw>,
    ) {
        (
            agg.completed,
            agg.steps,
            agg.steps_sketch.to_raw(),
            agg.blue_fraction,
            agg.metrics.clone(),
            agg.metric_sketches.iter().map(|s| s.to_raw()).collect(),
        )
    }

    #[test]
    fn run_block_matches_folding_every_trial_when_rng_free_cells_walk_once() {
        // RNG-free processes (rotor-router, Oldest-First, Least-Used-First)
        // walk once per block; the block must still equal folding a
        // fresh `run_trial` per trial, in both tilings.
        let base = ExperimentSpec {
            graphs: vec![
                GraphSpec::Regular { n: 40, d: 4 },
                GraphSpec::Torus { w: 5, h: 5 },
            ],
            processes: vec![
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
                ProcessSpec::RotorRouter,
                ProcessSpec::Srw,
                ProcessSpec::OldestFirst,
                ProcessSpec::LeastUsedFirst,
            ],
            metrics: vec![MetricSpec::Cover, MetricSpec::Hitting { vertex: None }],
            // Shared mode: one full SHARED_BLOCK_WALKS group plus a short one.
            trials: SHARED_BLOCK_WALKS + 6,
            ..tiny_spec()
        };
        let seed = 7;
        for resample in [None, Some(ResamplePlan { walks_per_graph: 5 })] {
            let spec = ExperimentSpec {
                resample,
                ..base.clone()
            };
            let n_cols = spec.metric_columns().len();
            let shape = BlockShape::of(&spec);
            let shared = build_graphs(&spec, seed).unwrap();
            for block in 0..shape.total(spec.graphs.len()) {
                let at = shape.locate(block);
                let sampled;
                let (prebuilt, g) = match resample {
                    None => (Some(&shared[at.gi]), &shared[at.gi]),
                    Some(_) => {
                        let graph_seed = resample_graph_seed(seed, at.gi, at.group);
                        sampled = spec.graphs[at.gi].build(graph_seed).unwrap();
                        (None, &sampled)
                    }
                };
                let got = run_block(
                    &spec,
                    seed,
                    block,
                    0,
                    n_cols,
                    prebuilt,
                    &Telemetry::new(&NullSink),
                )
                .unwrap();
                let w = block_width(&spec);
                let trials = (at.group * w..((at.group + 1) * w).min(spec.trials)).len();
                let first = at.group * w;
                let mut walked = 0u64;
                let expected: Vec<ProcAgg> = at
                    .procs
                    .clone()
                    .map(|pi| {
                        let mut agg = ProcAgg::seeded(seed, at.gi, at.group, pi, n_cols);
                        for t in first..first + trials {
                            let mut bank = ObserverBank::new(&spec, g);
                            let ts = trial_seed(seed, at.gi, pi, t);
                            let outcome = run_trial(&spec, g, pi, ts, &mut bank);
                            if spec.processes[pi].draws_randomness() || t == first {
                                walked += outcome.steps;
                            }
                            agg.fold(outcome);
                        }
                        assert!(agg.completed > 0, "process {pi} never covered");
                        agg
                    })
                    .collect();
                assert_eq!(got.agg.procs.len(), expected.len());
                for (a, b) in got.agg.procs.iter().zip(&expected) {
                    assert_eq!(agg_state(a), agg_state(b), "block {block} ({resample:?})");
                }
                assert_eq!(got.trials, (trials * at.procs.len()) as u64);
                assert_eq!(got.steps, walked, "only walked steps count");
            }
        }
    }

    #[test]
    fn resampled_report_is_identical_across_thread_counts() {
        // The interleaved path engages inside resample blocks; the
        // report must stay a pure function of (spec, base_seed).
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Regular { n: 24, d: 3 }],
            processes: vec![
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
                ProcessSpec::Srw,
            ],
            trials: 6,
            resample: Some(ResamplePlan { walks_per_graph: 4 }),
            ..tiny_spec()
        };
        let run_with = |threads: usize| {
            run(
                &spec,
                &RunOptions {
                    threads,
                    base_seed: 21,
                },
            )
            .unwrap()
        };
        let a = run_with(1);
        let b = run_with(4);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.completed, cb.completed);
            assert_eq!(ca.steps, cb.steps);
            assert_eq!(ca.blue_fraction, cb.blue_fraction);
            assert_eq!(ca.steps_split, cb.steps_split);
            // The sketches' full state — retained items, levels and coin
            // stream — is thread-count invariant, not just the answers.
            assert_eq!(ca.steps_sketch.to_raw(), cb.steps_sketch.to_raw());
        }
    }

    #[test]
    fn oversubscribed_threads_are_fine() {
        let spec = ExperimentSpec {
            trials: 2,
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 64,
                base_seed: 4,
            },
        )
        .unwrap();
        assert_eq!(report.cells.len(), 4);
        assert!(report.cells.iter().all(|c| c.completed == 2));
    }
}
