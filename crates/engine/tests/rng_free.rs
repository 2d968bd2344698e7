//! `ProcessSpec::draws_randomness` is a promise the executor relies on: a
//! process flagged `false` has every trial of a cell walked once and that
//! outcome folded per trial. These tests check the promise directly. Each
//! flagged process walks every `GraphSpec` family and a pairing-model
//! multigraph through an RNG that counts what it hands out: it must never
//! be asked for a word, and two different seeds must give the identical
//! step stream.

use eproc_core::process::Step;
use eproc_core::WalkProcess;
use eproc_engine::spec::{GraphSpec, ProcessSpec, RuleSpec};
use eproc_engine::with_kernel;
use eproc_graphs::{generators, Graph};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Steps walked per (process, graph, seed).
const STEPS: usize = 10_000;

/// Every [`ProcessSpec`] variant (every E-process rule).
fn every_process() -> Vec<ProcessSpec> {
    let mut all: Vec<ProcessSpec> = RuleSpec::all()
        .into_iter()
        .map(|rule| ProcessSpec::EProcess { rule })
        .collect();
    all.extend([
        ProcessSpec::Srw,
        ProcessSpec::LazySrw,
        ProcessSpec::WeightedSrw,
        ProcessSpec::RotorRouter,
        ProcessSpec::Rwc { d: 2 },
        ProcessSpec::OldestFirst,
        ProcessSpec::LeastUsedFirst,
        ProcessSpec::VProcess,
    ]);
    all
}

/// One small instance of every [`GraphSpec`] family, plus a pairing-model
/// multigraph with parallel edges.
fn every_family() -> Vec<(String, Graph)> {
    let specs = [
        GraphSpec::Regular { n: 60, d: 4 },
        GraphSpec::Lps { p: 5, q: 13 },
        GraphSpec::Geometric {
            n: 80,
            radius_factor: 1.5,
        },
        GraphSpec::Hypercube { dim: 5 },
        GraphSpec::Torus { w: 6, h: 7 },
        GraphSpec::Cycle { n: 31 },
        GraphSpec::Complete { n: 9 },
        GraphSpec::Lollipop { clique: 6, path: 9 },
        GraphSpec::Petersen,
        GraphSpec::FigureEight { len: 7 },
    ];
    let mut graphs: Vec<(String, Graph)> = specs
        .iter()
        .map(|spec| (spec.label(), spec.build(3).expect("feasible family")))
        .collect();
    let multigraph = (0..64u64)
        .find_map(|seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            generators::pairing_model_multigraph(12, 4, &mut rng)
                .ok()
                .filter(|g| g.has_parallel_edges())
        })
        .expect("a pairing with parallel edges");
    graphs.push(("pairing multigraph n=12 r=4".into(), multigraph));
    graphs
}

/// An RNG that counts every word it hands out.
struct CountingRng {
    inner: SmallRng,
    words: u64,
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest);
    }
}

/// Walks `process` on `g` from vertex 0 for [`STEPS`] steps through the
/// executor's monomorphized dispatch; returns the steps and the words drawn.
fn walk(process: &ProcessSpec, g: &Graph, seed: u64) -> (Vec<Step>, u64) {
    let mut rng = CountingRng {
        inner: SmallRng::seed_from_u64(seed),
        words: 0,
    };
    let kernel = process.build_kernel(g, 0);
    let steps = with_kernel!(kernel, w => (0..STEPS).map(|_| w.advance_rng(&mut rng)).collect());
    (steps, rng.words)
}

#[test]
fn rng_free_processes_draw_nothing_and_ignore_the_seed() {
    let rng_free: Vec<ProcessSpec> = every_process()
        .into_iter()
        .filter(|p| !p.draws_randomness())
        .collect();
    assert_eq!(
        rng_free,
        [
            ProcessSpec::RotorRouter,
            ProcessSpec::OldestFirst,
            ProcessSpec::LeastUsedFirst
        ]
    );
    for (label, g) in every_family() {
        for process in &rng_free {
            let (a, words_a) = walk(process, &g, 1);
            let (b, words_b) = walk(process, &g, 0xdead_beef);
            assert_eq!(
                (words_a, words_b),
                (0, 0),
                "{} drew randomness on {label}",
                process.label()
            );
            assert!(a == b, "{} depends on its seed on {label}", process.label());
        }
    }
}

#[test]
fn the_counter_sees_the_draws_of_random_processes() {
    // Without this the zero counts above could come from a blind counter.
    for (label, g) in every_family() {
        for process in every_process().iter().filter(|p| p.draws_randomness()) {
            let (_, words) = walk(process, &g, 5);
            assert!(words > 0, "{} drew nothing on {label}", process.label());
        }
    }
}
