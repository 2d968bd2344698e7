//! Crash-safe execution: checkpointing, graceful interruption, and
//! deterministic block retry — the `--checkpoint` / `--resume` /
//! `--max-wall` / `--retry-blocks` engine entry point.
//!
//! # The cancellation path
//!
//! [`run_recoverable`] runs a resampled spec on the same work-stealing
//! pool as [`crate::executor::run`] — scoped worker threads claiming
//! *(family, group)* blocks off a shared atomic index — with one
//! addition: before claiming each block, a worker polls a stop latch.
//! The latch trips when (a) an armed cancellation flag (SIGINT/SIGTERM
//! via `eproc-signal`, or any caller-owned [`AtomicBool`]) is set,
//! (b) the `max_wall` deadline passes, or (c) another worker's block
//! failed permanently. Tripping is *graceful*: claimed blocks drain to
//! completion (a block is all-or-nothing — partial blocks are never
//! persisted), workers then exit, the main thread writes a final
//! checkpoint, and the caller gets [`RunOutcome::Interrupted`] naming
//! what stopped the run and how much of it completed.
//!
//! Completed blocks stream back to the main thread over a channel, so
//! periodic checkpoints ([`CheckpointPlan::every`]) are written off the
//! workers' critical path, atomically ([`RunCheckpoint::save`]). A
//! resumed run seeds its block table from the checkpoint, schedules only
//! the remainder, and aggregates through the executor's own
//! `aggregate_cells` — identical floating-point operations and sketch
//! compactions in identical order — so the final report is **byte-identical to an
//! uninterrupted run at any thread count** (pinned by the `recovery`
//! proptests and the CI `cmp` smoke).
//!
//! Block failures are isolated by `catch_unwind` (see
//! [`crate::executor::BlockError`]) and retried deterministically:
//! attempt `k` re-runs the same [`eproc_stats::SeedSequence`]-derived
//! seeds, so a retry that succeeds contributes bit-identical
//! accumulators. The [`FaultPlan`] harness injects panics and
//! graph-generation failures at exact *(family, group, attempt)*
//! coordinates to prove all of the above under test.

use crate::checkpoint::{CheckpointError, RunCheckpoint};
use crate::executor::validate_vertices;
use crate::executor::{
    aggregate_cells, panic_message, run_block, run_block_isolated, BlockAgg, BlockError,
    BlockResult, CellInputs, EngineError, ExperimentReport, RunOptions, Telemetry,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::persist::RunHeader;
use crate::spec::{ExperimentSpec, SpecError};
use eproc_graphs::GraphError;
use eproc_telemetry::{EventKind, NullSink, Stopwatch, TelemetrySink};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Where and how often to checkpoint a run.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Checkpoint file path (written atomically on every update).
    pub path: PathBuf,
    /// Write a checkpoint after every `every` newly completed blocks
    /// (clamped to at least 1). A final checkpoint is always written on
    /// interruption or failure regardless of the cadence.
    pub every: usize,
}

/// Crash-safety options for [`run_recoverable`]. The default
/// ([`RecoveryOptions::none`]) disables every feature, making
/// `run_recoverable` equivalent to [`crate::executor::run`].
#[derive(Default)]
pub struct RecoveryOptions<'a> {
    /// Periodic checkpointing, if any.
    pub checkpoint: Option<CheckpointPlan>,
    /// A previously written checkpoint to resume from: its blocks are
    /// loaded, validated against the spec, and not re-run.
    pub resume: Option<RunCheckpoint>,
    /// Wall-clock budget: the run interrupts itself gracefully once this
    /// much time has passed (checked between blocks).
    pub max_wall: Option<Duration>,
    /// How many times a failed block is deterministically re-run before
    /// its error becomes the run's error. `0` = fail on first error.
    pub retry_blocks: usize,
    /// Deterministic fault injection (testing); empty = disabled.
    pub faults: FaultPlan,
    /// External cancellation flag, polled between blocks — wire
    /// `eproc_signal::install()` here for SIGINT/SIGTERM handling.
    pub cancel: Option<&'a AtomicBool>,
}

impl RecoveryOptions<'_> {
    /// All features off.
    pub fn none() -> RecoveryOptions<'static> {
        RecoveryOptions::default()
    }
}

/// How a recoverable run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Every block ran; the report is byte-identical to
    /// [`crate::executor::run`]'s for the same `(spec, base_seed)`.
    Completed(ExperimentReport),
    /// The run was interrupted (signal, cancellation flag, or deadline)
    /// before every block completed, and drained gracefully.
    Interrupted {
        /// What stopped the run: `"signal"` (cancellation flag) or
        /// `"deadline"` (`max_wall`).
        reason: String,
        /// Blocks completed across this run *and* any resumed prefix.
        completed: usize,
        /// Total blocks in the run.
        total: usize,
        /// Where the final checkpoint was written, when checkpointing
        /// was configured — resume from here.
        checkpoint: Option<PathBuf>,
    },
}

/// A recoverable-run failure.
#[derive(Debug)]
pub enum RecoveryError {
    /// The underlying engine failed: bad spec, or a block error that
    /// survived every retry.
    Engine(EngineError),
    /// The resume checkpoint was rejected (wrong run, malformed).
    Checkpoint(CheckpointError),
    /// A checkpoint could not be written. The run stops: silently
    /// dropping durability the user asked for would defeat the point.
    Io(std::io::Error),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Engine(e) => write!(f, "{e}"),
            RecoveryError::Checkpoint(e) => write!(f, "{e}"),
            RecoveryError::Io(e) => write!(f, "writing checkpoint: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Engine(e) => Some(e),
            RecoveryError::Checkpoint(e) => Some(e),
            RecoveryError::Io(e) => Some(e),
        }
    }
}

impl From<EngineError> for RecoveryError {
    fn from(e: EngineError) -> RecoveryError {
        RecoveryError::Engine(e)
    }
}

impl From<SpecError> for RecoveryError {
    fn from(e: SpecError) -> RecoveryError {
        RecoveryError::Engine(EngineError::Spec(e))
    }
}

impl From<CheckpointError> for RecoveryError {
    fn from(e: CheckpointError) -> RecoveryError {
        RecoveryError::Checkpoint(e)
    }
}

/// [`run_recoverable_with_sink`] without telemetry.
///
/// # Errors
///
/// As [`run_recoverable_with_sink`].
pub fn run_recoverable(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    rec: &RecoveryOptions<'_>,
) -> Result<RunOutcome, RecoveryError> {
    run_recoverable_with_sink(spec, opts, rec, &NullSink)
}

/// Executes a resampled spec crash-safely: periodic atomic checkpoints,
/// graceful interruption on a cancellation flag or deadline, per-block
/// panic isolation with deterministic retries, and resumption from a
/// prior checkpoint. See the module docs for the full semantics.
///
/// # Errors
///
/// [`RecoveryError::Engine`] for invalid specs — including any spec
/// **without** a resample plan: checkpointing is implemented for
/// resampled runs only (the same restriction as `--shard`) — and for
/// block failures that survive `retry_blocks` retries.
/// [`RecoveryError::Checkpoint`] when the resume checkpoint does not
/// match the spec. [`RecoveryError::Io`] when a checkpoint cannot be
/// written. On block failure, a final checkpoint of the completed
/// blocks is still written before the error returns.
///
/// # Panics
///
/// Panics if `opts.threads == 0`.
pub fn run_recoverable_with_sink(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    rec: &RecoveryOptions<'_>,
    sink: &dyn TelemetrySink,
) -> Result<RunOutcome, RecoveryError> {
    assert!(opts.threads > 0, "need at least one worker thread");
    spec.validate().map_err(EngineError::Spec)?;
    let Some(plan) = spec.resample else {
        return Err(RecoveryError::Engine(EngineError::Spec(SpecError::new(
            "crash-safe execution (--checkpoint / --resume / --max-wall / --retry-blocks) \
             is implemented for resampled runs only (--resample / a `~` family marker); \
             this is a shared-graph run",
        ))));
    };
    validate_vertices(spec, None)?;
    let tel = Telemetry::new(sink);
    let header = RunHeader::from_spec(spec, opts.base_seed, plan);
    let total_blocks = header.total_blocks();
    let group_count = header.group_count;
    let n_proc = spec.processes.len();
    let metric_columns = spec.metric_columns();
    let n_cols = metric_columns.len();
    let trials = spec.trials;
    let w = plan.walks_per_graph;

    // Seed the block table from the resume checkpoint, if any.
    let mut blocks: Vec<Option<BlockAgg>> = vec![None; total_blocks];
    let mut dims: Vec<Option<(usize, usize)>> = vec![None; spec.graphs.len()];
    if let Some(resume) = &rec.resume {
        resume.validate_against(&header)?;
        for b in &resume.blocks {
            blocks[b.block] = Some(b.clone());
        }
        for &(gi, n, m) in &resume.rep_dims {
            if gi >= dims.len() {
                return Err(CheckpointError::new(format!(
                    "checkpoint reports dimensions for family {gi}, outside the grid"
                ))
                .into());
            }
            dims[gi] = Some((n, m));
        }
    }
    let remaining: Vec<usize> = (0..total_blocks).filter(|&b| blocks[b].is_none()).collect();
    let mut completed = total_blocks - remaining.len();

    if tel.live {
        let remaining_trials: u64 = remaining
            .iter()
            .map(|b| {
                let group = b % group_count;
                let chunk = ((group + 1) * w).min(trials) - group * w;
                (chunk * n_proc) as u64
            })
            .sum();
        tel.emit(EventKind::RunStarted {
            name: spec.name.clone(),
            graphs: spec.graphs.len(),
            processes: n_proc,
            trials,
            blocks: remaining.len(),
            total_trials: remaining_trials,
            workers: opts.threads.min(remaining.len().max(1)),
            resampled: true,
            shard: None,
        });
    }

    let deadline = rec.max_wall.map(|d| Instant::now() + d);
    let stop = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let workers = opts.threads.min(remaining.len().max(1));
    let checkpoint_every = rec.checkpoint.as_ref().map(|c| c.every.max(1));

    enum WorkerMsg {
        Done(BlockResult),
        Failed(EngineError),
    }
    let (send, recv) = mpsc::channel::<WorkerMsg>();

    let mut block_error: Option<EngineError> = None;
    let mut io_error: Option<std::io::Error> = None;
    let mut trials_run = 0u64;
    let mut steps_run = 0u64;
    let mut since_checkpoint = 0usize;

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let send = send.clone();
            let stop = &stop;
            let next = &next;
            let remaining = &remaining;
            let tel = &tel;
            let faults = &rec.faults;
            let retry_blocks = rec.retry_blocks;
            scope.spawn(move || {
                loop {
                    // The graceful-interruption poll point: claimed
                    // blocks always drain, unclaimed work stays undone.
                    if stop.load(Ordering::Relaxed)
                        || rec.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
                        || deadline.is_some_and(|d| Instant::now() >= d)
                    {
                        break;
                    }
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= remaining.len() {
                        break;
                    }
                    let block = remaining[idx];
                    match run_block_with_retries(
                        spec,
                        opts.base_seed,
                        block,
                        worker,
                        n_cols,
                        tel,
                        faults,
                        retry_blocks,
                    ) {
                        Ok(result) => {
                            // Send failure = the receiver is gone, which
                            // only happens when the run is being torn
                            // down; just stop.
                            if send.send(WorkerMsg::Done(result)).is_err() {
                                break;
                            }
                        }
                        Err(e) => {
                            // Permanent block failure: trip the latch so
                            // peers drain, and report the error. The pool
                            // itself stays healthy — no unwinding.
                            stop.store(true, Ordering::Relaxed);
                            let _ = send.send(WorkerMsg::Failed(e));
                            break;
                        }
                    }
                }
            });
        }
        // The workers hold the only remaining senders: the receive loop
        // below ends exactly when the last worker exits.
        drop(send);

        for msg in recv.iter() {
            match msg {
                WorkerMsg::Done(result) => {
                    trials_run += result.trials;
                    steps_run += result.steps;
                    if let Some((gi, n, m)) = result.rep {
                        dims[gi] = Some((n, m));
                    }
                    let slot = result.agg.block;
                    blocks[slot] = Some(result.agg);
                    completed += 1;
                    since_checkpoint += 1;
                    if let (Some(every), Some(cp)) = (checkpoint_every, rec.checkpoint.as_ref()) {
                        if since_checkpoint >= every && io_error.is_none() {
                            since_checkpoint = 0;
                            match write_checkpoint(&header, &dims, &blocks, cp, completed, &tel) {
                                Ok(()) => {}
                                Err(e) => {
                                    // Durability is gone; stop the run
                                    // rather than pretend it is not.
                                    io_error = Some(e);
                                    stop.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
                WorkerMsg::Failed(e) => {
                    if block_error.is_none() {
                        block_error = Some(e);
                    }
                }
            }
        }
    });

    // Final checkpoint: on interruption or failure the completed prefix
    // must be on disk; on completion the report itself is the artifact.
    let all_done = completed == total_blocks;
    if !all_done {
        if let Some(cp) = rec.checkpoint.as_ref() {
            if io_error.is_none() {
                if let Err(e) = write_checkpoint(&header, &dims, &blocks, cp, completed, &tel) {
                    io_error = Some(e);
                }
            }
        }
    }

    if let Some(e) = io_error {
        return Err(RecoveryError::Io(e));
    }
    if let Some(e) = block_error {
        return Err(RecoveryError::Engine(e));
    }

    if !all_done {
        let reason = if rec.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            "signal"
        } else {
            "deadline"
        };
        if tel.live {
            tel.emit(EventKind::RunInterrupted {
                reason: reason.to_string(),
                completed,
                total: total_blocks,
            });
            tel.emit(EventKind::RunFinished {
                wall_ns: tel.clock.elapsed_ns(),
                total_trials: trials_run,
                total_steps: steps_run,
            });
        }
        return Ok(RunOutcome::Interrupted {
            reason: reason.to_string(),
            completed,
            total: total_blocks,
            checkpoint: rec.checkpoint.as_ref().map(|c| c.path.clone()),
        });
    }

    let agg = tel.live.then(Stopwatch::start);
    let rep_dims: Vec<(usize, usize)> = dims
        .iter()
        .map(|dim| dim.expect("every family ran its group-0 block"))
        .collect();
    let block_aggs: Vec<BlockAgg> = blocks
        .into_iter()
        .map(|b| b.expect("every block completed"))
        .collect();
    let cells = aggregate_cells(
        &CellInputs {
            graphs: &header.graphs,
            processes: &header.processes,
            metric_columns: &metric_columns,
            trials,
            group_count,
            base_seed: opts.base_seed,
            resampled: true,
        },
        &rep_dims,
        &block_aggs,
    );
    if let Some(agg) = agg {
        tel.emit(EventKind::AggregationMerged {
            blocks: total_blocks,
            cells: cells.len(),
            agg_ns: agg.elapsed_ns(),
        });
        tel.emit(EventKind::RunFinished {
            wall_ns: tel.clock.elapsed_ns(),
            total_trials: trials_run,
            total_steps: steps_run,
        });
    }
    Ok(RunOutcome::Completed(ExperimentReport {
        name: spec.name.clone(),
        description: spec.description.clone(),
        target: spec.target,
        trials,
        base_seed: opts.base_seed,
        resample: spec.resample,
        cells,
    }))
}

/// Assembles and atomically writes a checkpoint of the completed blocks,
/// emitting one `checkpoint_written` event when telemetry is live.
fn write_checkpoint(
    header: &RunHeader,
    dims: &[Option<(usize, usize)>],
    blocks: &[Option<BlockAgg>],
    cp: &CheckpointPlan,
    completed: usize,
    tel: &Telemetry<'_>,
) -> std::io::Result<()> {
    let clock = tel.live.then(Stopwatch::start);
    let checkpoint = RunCheckpoint {
        header: header.clone(),
        rep_dims: dims
            .iter()
            .enumerate()
            .filter_map(|(gi, d)| d.map(|(n, m)| (gi, n, m)))
            .collect(),
        // `blocks` is indexed canonically, so the filtered list is
        // already in canonical order.
        blocks: blocks.iter().flatten().cloned().collect(),
    };
    let bytes = checkpoint.save(&cp.path)?;
    if let Some(clock) = clock {
        tel.emit(EventKind::CheckpointWritten {
            blocks: completed,
            total: header.total_blocks(),
            bytes,
            checkpoint_ns: clock.elapsed_ns(),
        });
    }
    Ok(())
}

/// Runs one block with fault injection and deterministic retries:
/// attempt `k` derives the exact same seeds as attempt 0, so a
/// successful retry contributes bit-identical accumulators. Emits one
/// `block_retried` event per failed attempt that will be retried.
#[allow(clippy::too_many_arguments)]
fn run_block_with_retries(
    spec: &ExperimentSpec,
    base_seed: u64,
    block: usize,
    worker: usize,
    n_cols: usize,
    tel: &Telemetry<'_>,
    faults: &FaultPlan,
    retry_blocks: usize,
) -> Result<BlockResult, EngineError> {
    let mut attempt = 0;
    loop {
        let result =
            run_block_attempt(spec, base_seed, block, worker, n_cols, tel, faults, attempt);
        match result {
            Ok(r) => return Ok(r),
            Err(e) if attempt < retry_blocks => {
                if tel.live {
                    let plan = spec.resample.expect("resample block requires a plan");
                    let groups = plan.groups(spec.trials);
                    tel.emit(EventKind::BlockRetried {
                        block,
                        family: spec.graphs[block / groups].label(),
                        group: block % groups,
                        worker,
                        attempt,
                        error: e.to_string(),
                    });
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One block attempt: the plain isolated runner when no faults are
/// armed (the zero-cost default), otherwise the same run wrapped so the
/// scheduled fault fires inside the `catch_unwind` boundary — injected
/// panics exercise the exact isolation path real panics take.
#[allow(clippy::too_many_arguments)]
fn run_block_attempt(
    spec: &ExperimentSpec,
    base_seed: u64,
    block: usize,
    worker: usize,
    n_cols: usize,
    tel: &Telemetry<'_>,
    faults: &FaultPlan,
    attempt: usize,
) -> Result<BlockResult, EngineError> {
    if faults.is_empty() {
        return run_block_isolated(spec, base_seed, block, worker, n_cols, None, tel);
    }
    let plan = spec.resample.expect("resample block requires a plan");
    let groups = plan.groups(spec.trials);
    let gi = block / groups;
    let group = block % groups;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match faults.at(gi, group, attempt) {
            Some(FaultKind::Panic) => {
                panic!("injected fault: panic at (family {gi}, group {group}, attempt {attempt})")
            }
            Some(FaultKind::GraphFail) => Err(EngineError::Block {
                graph: spec.graphs[gi].label(),
                group,
                worker,
                source: BlockError::Graph(GraphError::RetriesExhausted {
                    generator: "fault-injection",
                    attempts: 1,
                    what: format!(
                        "an injected failure at (family {gi}, group {group}, attempt {attempt})"
                    ),
                }),
            }),
            None => run_block(spec, base_seed, block, worker, n_cols, None, tel),
        }
    }))
    .unwrap_or_else(|payload| {
        Err(EngineError::Block {
            graph: spec.graphs[gi].label(),
            group,
            worker,
            source: BlockError::Panic(panic_message(payload)),
        })
    })
}
