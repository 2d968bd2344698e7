//! Telemetry must be a pure observer: artifacts byte-identical with the
//! sink on or off at any thread count, event streams structurally sound
//! (strict JSONL, schema-complete, conserved counts), and the summary
//! roll-up consistent with the report the run actually produced.

mod common;
use common::json;

use eproc_engine::executor::{run, run_with_sink, RunOptions};
use eproc_engine::report::to_json;
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, ProcessSpec, ResamplePlan, RuleSpec, Target,
};
use eproc_telemetry::{Event, EventKind, JsonlSink, SummarySink, Tee, TelemetrySink};
use std::sync::Mutex;

/// An in-memory sink recording every event, for structural assertions.
#[derive(Default)]
struct Collector {
    events: Mutex<Vec<Event>>,
}

impl Collector {
    fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

impl TelemetrySink for Collector {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

fn spec(resample: Option<ResamplePlan>) -> ExperimentSpec {
    ExperimentSpec {
        name: "telemetry-test".into(),
        description: "instrumented run".into(),
        graphs: vec![
            GraphSpec::Regular { n: 48, d: 3 },
            GraphSpec::Cycle { n: 32 },
        ],
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 6,
        target: Target::VertexCover,
        // No extra metrics: the walk stops exactly at vertex cover, so
        // every trial's walked-step count equals its cover time and the
        // event totals can be cross-checked against the report cells.
        metrics: vec![],
        start: 0,
        cap: CapSpec::Auto,
        resample,
    }
}

#[test]
fn artifacts_are_byte_identical_with_telemetry_on_or_off() {
    for resample in [None, Some(ResamplePlan { walks_per_graph: 2 })] {
        let spec = spec(resample);
        let mut baseline = None;
        for threads in [1, 4] {
            let opts = RunOptions {
                threads,
                base_seed: 4242,
            };
            let silent = to_json(&run(&spec, &opts).unwrap());
            let collector = Collector::default();
            let summary = SummarySink::new();
            let sinks: Vec<&dyn TelemetrySink> = vec![&collector, &summary];
            let observed = to_json(&run_with_sink(&spec, &opts, &Tee::new(sinks)).unwrap());
            assert_eq!(
                silent, observed,
                "telemetry perturbed the artifact (threads = {threads}, resample = {resample:?})"
            );
            match &baseline {
                None => baseline = Some(silent),
                Some(b) => assert_eq!(
                    b, &silent,
                    "thread-count invariance broke (resample = {resample:?})"
                ),
            }
            assert!(
                !collector.take().is_empty(),
                "enabled sink received no events"
            );
        }
    }
}

#[test]
fn event_stream_is_schema_complete_and_counts_conserve() {
    for (resample, threads) in [
        (None, 1),
        (None, 3),
        (Some(ResamplePlan { walks_per_graph: 2 }), 1),
        (Some(ResamplePlan { walks_per_graph: 3 }), 4),
    ] {
        let spec = spec(resample);
        let collector = Collector::default();
        let report = run_with_sink(
            &spec,
            &RunOptions {
                threads,
                base_seed: 7,
            },
            &collector,
        )
        .unwrap();
        let events = collector.take();

        // Bookends: exactly one run_started first, one run_finished last.
        assert_eq!(events.first().unwrap().kind.label(), "run_started");
        assert_eq!(events.last().unwrap().kind.label(), "run_finished");
        let count = |label: &str| events.iter().filter(|e| e.kind.label() == label).count();
        assert_eq!(count("run_started"), 1);
        assert_eq!(count("run_finished"), 1);
        assert_eq!(count("aggregation_merged"), 1);

        // Timestamps are monotone per producer; the bookends (both from
        // the main thread) bound the whole stream.
        let t_first = events.first().unwrap().t_ns;
        let t_last = events.last().unwrap().t_ns;
        assert!(events.iter().all(|e| e.t_ns >= t_first && e.t_ns <= t_last));

        // The announced block count matches what actually completed, and
        // the per-block trial/step tallies sum to the run totals.
        let EventKind::RunStarted {
            blocks,
            total_trials,
            resampled,
            ..
        } = &events[0].kind
        else {
            panic!("first event must be run_started");
        };
        assert_eq!(*resampled, resample.is_some());
        let per_family = match resample {
            Some(plan) => plan.groups(spec.trials),
            None => spec.processes.len(),
        };
        assert_eq!(*blocks, spec.graphs.len() * per_family);
        assert_eq!(count("block_completed"), *blocks);
        let (mut trials_sum, mut steps_sum) = (0u64, 0u64);
        for e in &events {
            if let EventKind::BlockCompleted {
                trials,
                steps,
                process,
                gen_ns,
                gen_attempts,
                ..
            } = &e.kind
            {
                trials_sum += trials;
                steps_sum += steps;
                if resample.is_some() {
                    // Resample blocks span every process and generate
                    // their own graph.
                    assert!(process.is_none());
                    assert!(*gen_attempts >= 1);
                } else {
                    // Shared-mode blocks are one (family, group, process)
                    // each, on a prebuilt graph: this spec's trial count
                    // fits one group, so each block is one process's
                    // trials and names it.
                    let label = process
                        .as_deref()
                        .expect("shared blocks name their process");
                    assert!(spec.processes.iter().any(|p| p.label() == label));
                    assert_eq!(*trials, spec.trials as u64);
                    assert_eq!(*gen_ns, 0);
                    assert_eq!(*gen_attempts, 0);
                }
            }
        }
        assert_eq!(trials_sum, *total_trials);
        let EventKind::RunFinished {
            total_trials: finished_trials,
            total_steps,
            ..
        } = &events.last().unwrap().kind
        else {
            panic!("last event must be run_finished");
        };
        assert_eq!(trials_sum, *finished_trials);
        assert_eq!(steps_sum, *total_steps);

        // Both modes announce every block claim through the one streamed
        // path; shared mode still builds its graphs up front, resample
        // mode builds them inside blocks.
        assert_eq!(count("block_claimed"), *blocks);
        if resample.is_some() {
            assert_eq!(count("graph_built"), 0);
        } else {
            assert_eq!(count("graph_built"), spec.graphs.len());
        }

        // With Target::VertexCover every trial's step count is its
        // cover time, so the event totals must equal the report's own
        // per-cell summaries.
        let report_trials: u64 = report.cells.iter().map(|c| c.completed as u64).sum();
        let report_steps: f64 = report
            .cells
            .iter()
            .map(|c| c.steps.mean() * c.steps.count() as f64)
            .sum();
        assert_eq!(trials_sum, report_trials);
        assert!(
            (steps_sum as f64 - report_steps).abs() <= 1e-6 * report_steps.max(1.0),
            "event step total {steps_sum} != report step total {report_steps}"
        );
    }
}

#[test]
fn rng_free_blocks_count_every_trial_but_only_walked_steps() {
    // The rotor-router never draws randomness, so its block walks once and
    // folds that walk per trial: `trials` counts all of them, `steps` the
    // one walk, so ns/step roll-ups divide by work actually done.
    let spec = ExperimentSpec {
        processes: vec![ProcessSpec::RotorRouter, ProcessSpec::Srw],
        ..spec(None)
    };
    let collector = Collector::default();
    let report = run_with_sink(
        &spec,
        &RunOptions {
            threads: 2,
            base_seed: 3,
        },
        &collector,
    )
    .unwrap();
    let mut rotor_blocks = 0;
    for e in collector.take() {
        if let EventKind::BlockCompleted {
            family,
            process: Some(process),
            trials,
            steps,
            ..
        } = &e.kind
        {
            if process != "rotor-router" {
                continue;
            }
            let cell = report
                .cells
                .iter()
                .find(|c| &c.graph == family && &c.process == process)
                .unwrap();
            assert_eq!(*trials, spec.trials as u64);
            assert_eq!(cell.steps.count(), spec.trials as u64);
            assert_eq!(cell.steps.min(), cell.steps.max(), "one walk, folded");
            assert_eq!(Some(*steps as f64), cell.steps.min());
            rotor_blocks += 1;
        }
    }
    assert_eq!(rotor_blocks, spec.graphs.len());
}

#[test]
fn jsonl_log_is_strict_json_line_by_line() {
    let dir = std::env::temp_dir().join("eproc_engine_telemetry_test");
    let path = dir.join("events.jsonl");
    let jsonl = JsonlSink::create(&path).unwrap();
    run_with_sink(
        &spec(Some(ResamplePlan { walks_per_graph: 2 })),
        &RunOptions {
            threads: 2,
            base_seed: 11,
        },
        &jsonl,
    )
    .unwrap();
    jsonl.finish().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "expected a full event stream");
    for (i, line) in lines.iter().enumerate() {
        json::validate(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        assert!(
            line.starts_with("{\"event\": \""),
            "schema tag must lead each line: {line}"
        );
    }
    assert!(lines[0].contains("\"event\": \"run_started\""));
    assert!(lines
        .last()
        .unwrap()
        .contains("\"event\": \"run_finished\""));
    assert!(text.contains("\"event\": \"block_completed\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn summary_sidecar_is_strict_json_and_matches_the_report() {
    let spec = spec(Some(ResamplePlan { walks_per_graph: 2 }));
    let summary = SummarySink::new();
    let report = run_with_sink(
        &spec,
        &RunOptions {
            threads: 4,
            base_seed: 23,
        },
        &summary,
    )
    .unwrap();
    let s = summary.summary();
    assert_eq!(s.run, spec.name);
    assert_eq!(s.workers, 4);
    assert!(s.resampled);
    assert_eq!(s.blocks_completed as usize, s.blocks_total);
    assert_eq!(s.cells, report.cells.len());
    assert_eq!(
        s.total_trials,
        report.cells.iter().map(|c| c.completed as u64).sum::<u64>()
    );
    assert!(s.wall_ns > 0);
    // Every block generated at least one graph attempt.
    assert!(s.gen_attempts >= s.blocks_completed);
    // Worker tallies partition the block/trial/step totals.
    assert_eq!(
        s.per_worker.iter().map(|w| w.blocks).sum::<u64>(),
        s.blocks_completed
    );
    assert_eq!(
        s.per_worker.iter().map(|w| w.trials).sum::<u64>(),
        s.total_trials
    );
    assert_eq!(
        s.per_worker.iter().map(|w| w.steps).sum::<u64>(),
        s.total_steps
    );

    let json_text = s.to_json();
    json::validate(&json_text).unwrap_or_else(|e| panic!("{e}:\n{json_text}"));
    assert!(!json_text.contains("inf") && !json_text.contains("NaN"));

    // The sidecar round-trips through save().
    let dir = std::env::temp_dir().join("eproc_engine_sidecar_test");
    let path = dir.join("report.telemetry.json");
    s.save(&path).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), json_text);
    let _ = std::fs::remove_dir_all(&dir);
}
