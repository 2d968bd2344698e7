//! Run checkpoints: the crash-safe persistence behind `--checkpoint` /
//! `--resume` (checkpoint format `eproc-checkpoint`, version 2 — the
//! version bump added per-block quantile sketches to the codec).
//!
//! A checkpoint is a prefix of a run: the canonical run header
//! identifying the `(spec, base_seed)` run plus every *completed*
//! *(family, group)* block's streamed accumulators, persisted bit-exactly
//! through the same `persist` codec shard artifacts use. Because
//! each block is a pure function of `(spec, base_seed, block)`, a resumed
//! run recomputes exactly the missing blocks and recombines through the
//! executor's own aggregation — so the final artifact is **byte-identical
//! to an uninterrupted run**, at any thread count, no matter where the
//! original run died.
//!
//! Checkpoints are written atomically ([`eproc_telemetry::write_atomic`]):
//! a crash mid-checkpoint leaves the previous complete checkpoint in
//! place, never a truncated document.

use crate::executor::BlockAgg;
use crate::persist::{
    json, parse_blocks, parse_rep_dims, write_blocks, write_rep_dims, PersistError, RunHeader,
};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// A checkpoint failure: an unreadable or malformed checkpoint file, or
/// a resume attempt against a spec that does not match the checkpoint's
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    message: String,
}

impl CheckpointError {
    pub(crate) fn new(message: impl Into<String>) -> CheckpointError {
        CheckpointError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CheckpointError {}

impl From<PersistError> for CheckpointError {
    fn from(e: PersistError) -> CheckpointError {
        CheckpointError::new(e.to_string())
    }
}

/// A persisted prefix of a resampled run: the run's identity plus every
/// completed block, bit-exact. Produced periodically by
/// [`crate::recovery::run_recoverable`] and consumed by `--resume`.
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// The run this checkpoint belongs to.
    pub(crate) header: RunHeader,
    /// `(family, n, m)` of the group-0 samples completed so far.
    pub(crate) rep_dims: Vec<(usize, usize, usize)>,
    /// Completed blocks' aggregates, sorted by canonical block index.
    pub(crate) blocks: Vec<BlockAgg>,
}

impl RunCheckpoint {
    /// How many blocks the checkpoint holds.
    pub fn completed_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total canonical block count of the checkpointed run.
    pub fn total_blocks(&self) -> usize {
        self.header.total_blocks()
    }

    /// Checks that this checkpoint belongs to the run described by
    /// `expected` (the spec + base seed about to be resumed), naming the
    /// first disagreeing field otherwise.
    pub(crate) fn validate_against(&self, expected: &RunHeader) -> Result<(), CheckpointError> {
        if let Some(field) = self.header.first_mismatch(expected) {
            return Err(CheckpointError::new(format!(
                "checkpoint does not match the spec being resumed: {field} differs \
                 (the checkpoint comes from a different run)"
            )));
        }
        Ok(())
    }

    /// Serialises the checkpoint as deterministic strict JSON, floats as
    /// IEEE-754 bit patterns — `from_json(to_json())` is the identity
    /// down to the last bit.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"format\": \"eproc-checkpoint\",");
        let _ = writeln!(out, "  \"version\": 2,");
        self.header.write_fields(&mut out);
        write_rep_dims(&mut out, &self.rep_dims);
        write_blocks(&mut out, &self.blocks);
        out
    }

    /// Writes the checkpoint to `path` atomically (temp sibling +
    /// rename), creating parent directories; returns the byte size
    /// written (reported in `checkpoint_written` telemetry).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on failure `path` still holds the
    /// previous complete checkpoint, if any.
    pub fn save(&self, path: &Path) -> std::io::Result<u64> {
        let text = self.to_json();
        eproc_telemetry::write_atomic(path, &text)?;
        Ok(text.len() as u64)
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] for unreadable files or malformed checkpoints.
    pub fn load(path: &Path) -> Result<RunCheckpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::new(format!("reading {}: {e}", path.display())))?;
        RunCheckpoint::from_json(&text)
            .map_err(|e| CheckpointError::new(format!("{}: {e}", path.display())))
    }

    /// Parses a [`RunCheckpoint::to_json`] document, bit-exactly.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] describing the first structural problem.
    pub fn from_json(text: &str) -> Result<RunCheckpoint, CheckpointError> {
        let value = json::parse(text)?;
        let root = value.as_obj("checkpoint")?;
        let format = root.str_field("format")?;
        if format != "eproc-checkpoint" {
            return Err(CheckpointError::new(format!(
                "not a run checkpoint (format {format:?})"
            )));
        }
        let version = root.u64_field("version")?;
        if version != 2 {
            return Err(CheckpointError::new(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let header = RunHeader::parse(&root)?;
        let rep_dims = parse_rep_dims(&root)?;
        let mut blocks = parse_blocks(&root)?;
        header.check_blocks(&blocks)?;
        blocks.sort_by_key(|b| b.block);
        let duplicate = blocks.windows(2).find(|w| w[0].block == w[1].block);
        if let Some(w) = duplicate {
            return Err(CheckpointError::new(format!(
                "block {} appears more than once",
                w[0].block
            )));
        }
        Ok(RunCheckpoint {
            header,
            rep_dims,
            blocks,
        })
    }
}
