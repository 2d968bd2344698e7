//! The structured run events and their JSONL serialisation.

use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as a strict-JSON number, degrading non-finite values
/// (which JSON cannot represent) to `null`.
pub(crate) fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Which shard of a deterministically partitioned run a stream of events
/// belongs to: shard `index` of `count` owns the blocks congruent to
/// `index` mod `count`. Stamped onto [`EventKind::RunStarted`] by sharded
/// executors (`--shard i/k`); absent for ordinary runs, whose event
/// streams are byte-identical to pre-shard ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardId {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total shards the run is partitioned into.
    pub count: usize,
}

/// One telemetry event, stamped with the monotonic time since the run
/// started (`t_ns`, from the emitter's [`crate::Stopwatch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the run's telemetry clock started.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary. Fields are plain labels and integers so every
/// event serialises to one strict-JSON line with no knowledge of the
/// producer's types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A run began: the full shape of the work ahead.
    RunStarted {
        /// Experiment name.
        name: String,
        /// Graph families in the grid.
        graphs: usize,
        /// Processes in the grid.
        processes: usize,
        /// Trials per cell.
        trials: usize,
        /// Work units the pool will claim (see [`EventKind::BlockCompleted`]).
        blocks: usize,
        /// Total trials across the whole grid.
        total_trials: u64,
        /// Worker threads.
        workers: usize,
        /// Whether graphs are resampled per trial group.
        resampled: bool,
        /// Which shard of a partitioned run this is (`None` for
        /// unsharded runs; the field is then omitted from the JSONL form,
        /// keeping pre-shard streams byte-identical).
        shard: Option<ShardId>,
    },
    /// A shared-mode graph was built up front (before the pool starts).
    GraphBuilt {
        /// Family label of the built graph.
        graph: String,
        /// Vertex count.
        n: usize,
        /// Edge count.
        m: usize,
        /// Wall time spent generating, in nanoseconds.
        gen_ns: u64,
        /// Generator attempts consumed (restarts + 1; `1` for
        /// deterministic constructions).
        gen_attempts: u64,
    },
    /// A worker claimed a block and is about to generate/walk it.
    BlockClaimed {
        /// Canonical block index.
        block: usize,
        /// Graph family label.
        family: String,
        /// Trial group within the family.
        group: usize,
        /// The block's process in shared-graph mode; `None` for resample
        /// blocks, which span every process.
        process: Option<String>,
        /// Claiming worker id.
        worker: usize,
    },
    /// A worker finished a block: the per-unit-of-work record. Under
    /// resampling one block is one *(family, group)* unit (all processes
    /// × the group's trials on one freshly generated graph); in
    /// shared-graph mode one block is one *(family, group, process)*
    /// unit on the family's prebuilt graph and `process` names it.
    BlockCompleted {
        /// Canonical block index.
        block: usize,
        /// Graph family label.
        family: String,
        /// Trial group within the family.
        group: usize,
        /// The block's process in shared-graph mode; `None` for resample
        /// blocks, which span every process.
        process: Option<String>,
        /// Completing worker id.
        worker: usize,
        /// Trials this block contributed to the aggregates (summed over
        /// blocks this is the run's total trial count).
        trials: u64,
        /// Walk steps actually simulated in this block. A process that
        /// draws no randomness walks once per block and its outcome is
        /// reused for every trial, so its steps count once.
        steps: u64,
        /// Nanoseconds spent generating the block's graph (`0` in shared
        /// mode, where graphs are prebuilt).
        gen_ns: u64,
        /// Generator attempts consumed (`0` in shared mode).
        gen_attempts: u64,
        /// Nanoseconds spent walking (all the block's trials).
        walk_ns: u64,
    },
    /// The main thread merged every block into the report cells.
    AggregationMerged {
        /// Work units merged.
        blocks: usize,
        /// Report cells produced.
        cells: usize,
        /// Nanoseconds the merge took.
        agg_ns: u64,
    },
    /// The run completed.
    RunFinished {
        /// Total wall time, in nanoseconds.
        wall_ns: u64,
        /// Total trials executed (the sum of the blocks' `trials`).
        total_trials: u64,
        /// Total walk steps simulated (the sum of the blocks' `steps`).
        total_steps: u64,
    },
    /// Shard artifacts were combined into one report (`eproc merge`) —
    /// the merge stage of a sharded run.
    MergeCompleted {
        /// Shard artifacts merged.
        shards: usize,
        /// Blocks reassembled across all shards.
        blocks: usize,
        /// Report cells produced.
        cells: usize,
        /// Nanoseconds the merge took.
        merge_ns: u64,
    },
    /// A run checkpoint was persisted (`--checkpoint`): every block
    /// completed so far is now durable.
    CheckpointWritten {
        /// Blocks the checkpoint holds.
        blocks: usize,
        /// Total blocks the run schedules.
        total: usize,
        /// Bytes the checkpoint artifact serialised to.
        bytes: u64,
        /// Nanoseconds spent serialising and writing.
        checkpoint_ns: u64,
    },
    /// A block attempt failed (panic or graph-generation error) and the
    /// executor is deterministically re-running it (`--retry-blocks`).
    BlockRetried {
        /// Canonical block index.
        block: usize,
        /// Graph family label.
        family: String,
        /// Resample group within the family.
        group: usize,
        /// Worker id re-running the block.
        worker: usize,
        /// The attempt that failed (0-based; the retry is `attempt + 1`).
        attempt: usize,
        /// Human-readable description of the failure.
        error: String,
    },
    /// The run stopped early at a block boundary — SIGINT/SIGTERM or the
    /// `--max-wall` deadline — after draining in-flight blocks and
    /// writing a final checkpoint. The run is resumable.
    RunInterrupted {
        /// Why the run stopped (`"signal"` or `"deadline"`).
        reason: String,
        /// Blocks completed (and checkpointed) before the stop.
        completed: usize,
        /// Total blocks the run schedules.
        total: usize,
    },
}

impl EventKind {
    /// The event's schema tag — the `"event"` field of its JSONL form.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::RunStarted { .. } => "run_started",
            EventKind::GraphBuilt { .. } => "graph_built",
            EventKind::BlockClaimed { .. } => "block_claimed",
            EventKind::BlockCompleted { .. } => "block_completed",
            EventKind::AggregationMerged { .. } => "aggregation_merged",
            EventKind::RunFinished { .. } => "run_finished",
            EventKind::MergeCompleted { .. } => "merge_completed",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::BlockRetried { .. } => "block_retried",
            EventKind::RunInterrupted { .. } => "run_interrupted",
        }
    }
}

impl Event {
    /// Serialises the event as one strict RFC-8259 JSON object (no
    /// trailing newline). Every value is a string, an integer or a
    /// boolean — non-finite floats cannot occur by construction.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"event\": \"{}\", \"t_ns\": {}",
            self.kind.label(),
            self.t_ns
        );
        match &self.kind {
            EventKind::RunStarted {
                name,
                graphs,
                processes,
                trials,
                blocks,
                total_trials,
                workers,
                resampled,
                shard,
            } => {
                let _ = write!(
                    out,
                    ", \"name\": \"{}\", \"graphs\": {graphs}, \"processes\": {processes}, \
                     \"trials\": {trials}, \"blocks\": {blocks}, \"total_trials\": {total_trials}, \
                     \"workers\": {workers}, \"resampled\": {resampled}",
                    json_escape(name)
                );
                if let Some(shard) = shard {
                    let _ = write!(
                        out,
                        ", \"shard_index\": {}, \"shard_count\": {}",
                        shard.index, shard.count
                    );
                }
            }
            EventKind::GraphBuilt {
                graph,
                n,
                m,
                gen_ns,
                gen_attempts,
            } => {
                let _ = write!(
                    out,
                    ", \"graph\": \"{}\", \"n\": {n}, \"m\": {m}, \"gen_ns\": {gen_ns}, \
                     \"gen_attempts\": {gen_attempts}",
                    json_escape(graph)
                );
            }
            EventKind::BlockClaimed {
                block,
                family,
                group,
                process,
                worker,
            } => {
                let _ = write!(
                    out,
                    ", \"block\": {block}, \"family\": \"{}\", \"group\": {group}",
                    json_escape(family)
                );
                if let Some(p) = process {
                    let _ = write!(out, ", \"process\": \"{}\"", json_escape(p));
                }
                let _ = write!(out, ", \"worker\": {worker}");
            }
            EventKind::BlockCompleted {
                block,
                family,
                group,
                process,
                worker,
                trials,
                steps,
                gen_ns,
                gen_attempts,
                walk_ns,
            } => {
                let _ = write!(
                    out,
                    ", \"block\": {block}, \"family\": \"{}\", \"group\": {group}",
                    json_escape(family)
                );
                if let Some(p) = process {
                    let _ = write!(out, ", \"process\": \"{}\"", json_escape(p));
                }
                let _ = write!(
                    out,
                    ", \"worker\": {worker}, \"trials\": {trials}, \"steps\": {steps}, \
                     \"gen_ns\": {gen_ns}, \"gen_attempts\": {gen_attempts}, \"walk_ns\": {walk_ns}"
                );
            }
            EventKind::AggregationMerged {
                blocks,
                cells,
                agg_ns,
            } => {
                let _ = write!(
                    out,
                    ", \"blocks\": {blocks}, \"cells\": {cells}, \"agg_ns\": {agg_ns}"
                );
            }
            EventKind::RunFinished {
                wall_ns,
                total_trials,
                total_steps,
            } => {
                let _ = write!(
                    out,
                    ", \"wall_ns\": {wall_ns}, \"total_trials\": {total_trials}, \
                     \"total_steps\": {total_steps}"
                );
            }
            EventKind::MergeCompleted {
                shards,
                blocks,
                cells,
                merge_ns,
            } => {
                let _ = write!(
                    out,
                    ", \"shards\": {shards}, \"blocks\": {blocks}, \"cells\": {cells}, \
                     \"merge_ns\": {merge_ns}"
                );
            }
            EventKind::CheckpointWritten {
                blocks,
                total,
                bytes,
                checkpoint_ns,
            } => {
                let _ = write!(
                    out,
                    ", \"blocks\": {blocks}, \"total\": {total}, \"bytes\": {bytes}, \
                     \"checkpoint_ns\": {checkpoint_ns}"
                );
            }
            EventKind::BlockRetried {
                block,
                family,
                group,
                worker,
                attempt,
                error,
            } => {
                let _ = write!(
                    out,
                    ", \"block\": {block}, \"family\": \"{}\", \"group\": {group}, \
                     \"worker\": {worker}, \"attempt\": {attempt}, \"error\": \"{}\"",
                    json_escape(family),
                    json_escape(error)
                );
            }
            EventKind::RunInterrupted {
                reason,
                completed,
                total,
            } => {
                let _ = write!(
                    out,
                    ", \"reason\": \"{}\", \"completed\": {completed}, \"total\": {total}",
                    json_escape(reason)
                );
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_have_the_schema_tag_first() {
        let e = Event {
            t_ns: 42,
            kind: EventKind::RunFinished {
                wall_ns: 100,
                total_trials: 7,
                total_steps: 900,
            },
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"event\": \"run_finished\", \"t_ns\": 42, \"wall_ns\": 100, \
             \"total_trials\": 7, \"total_steps\": 900}"
        );
    }

    #[test]
    fn labels_are_escaped() {
        let e = Event {
            t_ns: 0,
            kind: EventKind::BlockClaimed {
                block: 0,
                family: "weird \"family\"\n".into(),
                group: 1,
                process: Some("tab\there".into()),
                worker: 2,
            },
        };
        let line = e.to_jsonl();
        assert!(line.contains("weird \\\"family\\\"\\n"), "{line}");
        assert!(line.contains("\"process\": \"tab\\there\""), "{line}");
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
    }

    #[test]
    fn optional_process_field_is_omitted_when_absent() {
        let kind = EventKind::BlockCompleted {
            block: 3,
            family: "cycle n=8".into(),
            group: 0,
            process: None,
            worker: 1,
            trials: 4,
            steps: 32,
            gen_ns: 5,
            gen_attempts: 1,
            walk_ns: 6,
        };
        let line = Event { t_ns: 1, kind }.to_jsonl();
        assert!(!line.contains("\"process\""), "{line}");
        assert!(line.contains("\"gen_attempts\": 1"), "{line}");
    }

    #[test]
    fn shard_id_is_omitted_for_unsharded_runs() {
        let kind = |shard| EventKind::RunStarted {
            name: "sweep".into(),
            graphs: 1,
            processes: 2,
            trials: 6,
            blocks: 6,
            total_trials: 12,
            workers: 3,
            resampled: true,
            shard,
        };
        let plain = Event {
            t_ns: 0,
            kind: kind(None),
        }
        .to_jsonl();
        assert!(!plain.contains("shard"), "{plain}");
        let sharded = Event {
            t_ns: 0,
            kind: kind(Some(ShardId { index: 1, count: 4 })),
        }
        .to_jsonl();
        assert!(
            sharded.contains("\"shard_index\": 1, \"shard_count\": 4"),
            "{sharded}"
        );
    }

    #[test]
    fn merge_completed_serialises() {
        let e = Event {
            t_ns: 9,
            kind: EventKind::MergeCompleted {
                shards: 2,
                blocks: 12,
                cells: 4,
                merge_ns: 777,
            },
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"event\": \"merge_completed\", \"t_ns\": 9, \"shards\": 2, \"blocks\": 12, \
             \"cells\": 4, \"merge_ns\": 777}"
        );
    }

    #[test]
    fn recovery_events_serialise() {
        let cp = Event {
            t_ns: 3,
            kind: EventKind::CheckpointWritten {
                blocks: 4,
                total: 12,
                bytes: 2048,
                checkpoint_ns: 555,
            },
        };
        assert_eq!(
            cp.to_jsonl(),
            "{\"event\": \"checkpoint_written\", \"t_ns\": 3, \"blocks\": 4, \"total\": 12, \
             \"bytes\": 2048, \"checkpoint_ns\": 555}"
        );
        let retry = Event {
            t_ns: 5,
            kind: EventKind::BlockRetried {
                block: 7,
                family: "regular n=24 d=3".into(),
                group: 1,
                worker: 2,
                attempt: 0,
                error: "injected \"panic\"".into(),
            },
        };
        let line = retry.to_jsonl();
        assert!(
            line.starts_with("{\"event\": \"block_retried\", \"t_ns\": 5"),
            "{line}"
        );
        assert!(line.contains("\"attempt\": 0"), "{line}");
        assert!(line.contains("injected \\\"panic\\\""), "{line}");
        let int = Event {
            t_ns: 9,
            kind: EventKind::RunInterrupted {
                reason: "signal".into(),
                completed: 3,
                total: 12,
            },
        };
        assert_eq!(
            int.to_jsonl(),
            "{\"event\": \"run_interrupted\", \"t_ns\": 9, \"reason\": \"signal\", \
             \"completed\": 3, \"total\": 12}"
        );
    }

    #[test]
    fn json_num_degrades_non_finite_to_null() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }
}
