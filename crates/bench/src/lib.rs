//! Shared harness for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the
//! reproduction (see DESIGN.md §4 for the index). They share:
//!
//! * [`Config`] — `--scale quick|paper`, `--seed N` parsing;
//! * [`save_table`] — writes the CSV next to the printed table under
//!   `target/experiments/`;
//! * [`NaiveEProcess`] — a deliberately naive E-process implementation
//!   (per-step port rescan instead of the engine's O(1) live-prefix
//!   bookkeeping) used by the `bookkeeping` ablation bench;
//! * small measurement helpers used across tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eproc_core::cover::{run_cover, CoverRun, CoverTarget};
use eproc_core::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{Graph, Vertex};
use eproc_stats::TextTable;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::{Path, PathBuf};

/// Experiment scale: `quick` finishes in seconds-to-minutes and already
/// shows the paper's qualitative shape; `paper` pushes `n` toward the
/// paper's 5·10⁵.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-quick sweep.
    Quick,
    /// Paper-scale sweep (minutes).
    Paper,
}

/// Parsed command-line configuration shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sweep scale.
    pub scale: Scale,
    /// Base seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Worker threads for engine-backed tables (`None` = all cores).
    /// Results are bit-identical for any value — this flag exists to
    /// demonstrate exactly that.
    pub threads: Option<usize>,
}

impl Config {
    /// Parses `--scale quick|paper`, `--seed N` and `--threads N` from
    /// `std::env::args`. Unknown arguments abort with a usage message.
    pub fn from_args() -> Config {
        let mut scale = Scale::Quick;
        let mut seed = 12345u64;
        let mut threads = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = args.next().unwrap_or_default();
                    scale = match v.as_str() {
                        "quick" => Scale::Quick,
                        "paper" => Scale::Paper,
                        other => usage(&format!("unknown scale {other:?}")),
                    };
                }
                "--seed" => {
                    let v = args.next().unwrap_or_default();
                    seed = v
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed {v:?}")));
                }
                "--threads" => {
                    let v = args.next().unwrap_or_default();
                    let t: usize = v
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad thread count {v:?}")));
                    if t == 0 {
                        usage("--threads must be at least 1");
                    }
                    threads = Some(t);
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument {other:?}")),
            }
        }
        Config {
            scale,
            seed,
            threads,
        }
    }

    /// Engine [`RunOptions`](eproc_engine::RunOptions) for this config:
    /// the configured seed and thread count (all cores when unset).
    pub fn engine_opts(&self) -> eproc_engine::RunOptions {
        let mut opts = eproc_engine::RunOptions {
            base_seed: self.seed,
            ..eproc_engine::RunOptions::auto()
        };
        if let Some(t) = self.threads {
            opts.threads = t;
        }
        opts
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <binary> [--scale quick|paper] [--seed N] [--threads N]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Directory where experiment CSVs and bench snapshots are written:
/// `<workspace>/target/experiments/`.
///
/// `<workspace>` is resolved at run time: the nearest directory at or
/// above the current one whose `Cargo.toml` declares `[workspace]` (cargo
/// runs tests and benches from the package directory, binaries from
/// wherever they are invoked). Outside any workspace it is the current
/// directory. A binary built in one checkout and run in another therefore
/// writes into the checkout it runs in.
pub fn output_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    experiments_dir_from(&cwd)
}

fn experiments_dir_from(dir: &Path) -> PathBuf {
    let root = dir
        .ancestors()
        .find(|d| is_workspace_root(d))
        .unwrap_or(dir);
    root.join("target").join("experiments")
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

/// Writes `table` as `<name>.csv` under [`output_dir`], creating it if
/// needed. Returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_table(name: &str, table: &TextTable) -> std::io::Result<PathBuf> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Mean steps to vertex cover of `runs` fresh processes built by
/// `make_walk(rep)`, with cap `max_steps`; also returns how many runs
/// finished.
pub fn mean_vertex_cover_steps<'g, W, F>(
    mut make_walk: F,
    runs: usize,
    max_steps: u64,
    rng: &mut dyn RngCore,
) -> (f64, usize)
where
    W: WalkProcess + 'g,
    F: FnMut(usize) -> W,
{
    let mut total = 0u64;
    let mut finished = 0usize;
    for rep in 0..runs {
        let mut walk = make_walk(rep);
        let run = run_cover(&mut walk, CoverTarget::Vertices, max_steps, rng);
        if let Some(steps) = run.steps_to_vertex_cover {
            total += steps;
            finished += 1;
        }
    }
    if finished == 0 {
        (f64::NAN, 0)
    } else {
        (total as f64 / finished as f64, finished)
    }
}

/// Like [`mean_vertex_cover_steps`] but for edge cover, returning the full
/// [`CoverRun`]s.
pub fn edge_cover_runs<'g, W, F>(
    mut make_walk: F,
    runs: usize,
    max_steps: u64,
    rng: &mut dyn RngCore,
) -> Vec<CoverRun>
where
    W: WalkProcess + 'g,
    F: FnMut(usize) -> W,
{
    (0..runs)
        .map(|rep| {
            let mut walk = make_walk(rep);
            run_cover(&mut walk, CoverTarget::Edges, max_steps, rng)
        })
        .collect()
}

/// A deliberately naive E-process used by the `bookkeeping` ablation: at
/// every step it rescans all ports of the current vertex to collect the
/// unvisited ones (`O(Δ)` always, with no cross-vertex unlinking), instead
/// of the engine's `O(1)` live-prefix scheme. Semantics are identical to
/// [`eproc_core::EProcess`] with [`eproc_core::rule::UniformRule`].
#[derive(Debug, Clone)]
pub struct NaiveEProcess<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
    visited: Vec<bool>,
    scratch: Vec<usize>,
}

impl<'g> NaiveEProcess<'g> {
    /// Creates the naive E-process at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn new(g: &'g Graph, start: Vertex) -> NaiveEProcess<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        NaiveEProcess {
            g,
            current: start,
            steps: 0,
            visited: vec![false; g.m()],
            scratch: Vec::new(),
        }
    }
}

impl<'g> WalkProcess for NaiveEProcess<'g> {
    fn graph(&self) -> &Graph {
        self.g
    }

    fn current(&self) -> Vertex {
        self.current
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn advance(&mut self, rng: &mut dyn RngCore) -> Step {
        let v = self.current;
        let d = self.g.degree(v);
        assert!(d > 0, "walk stuck at isolated vertex {v}");
        self.scratch.clear();
        for a in self.g.arc_range(v) {
            if !self.visited[self.g.arc_edge(a)] {
                self.scratch.push(a);
            }
        }
        let (arc, kind) = if self.scratch.is_empty() {
            (
                self.g.arc_range(v).start + rng.gen_range(0..d),
                StepKind::Red,
            )
        } else {
            (
                self.scratch[rng.gen_range(0..self.scratch.len())],
                StepKind::Blue,
            )
        };
        let e = self.g.arc_edge(arc);
        let to = self.g.arc_target(arc);
        if kind == StepKind::Blue {
            self.visited[e] = true;
        }
        self.current = to;
        self.steps += 1;
        Step {
            from: v,
            to,
            edge: Some(e),
            kind,
        }
    }
}

/// Verbatim copy of the pre-kernel `rand` sampler: rejection sampling
/// with two 64-bit divisions per draw (no power-of-two strength
/// reduction), fed through `&mut dyn RngCore`. Draw-for-draw equivalent
/// to the current sampler — only slower — so [`LegacyEProcess`] walks the
/// exact trajectory of today's kernel while paying yesterday's cost.
fn legacy_uniform(span: u64, rng: &mut dyn RngCore) -> u64 {
    let zone = u64::MAX - u64::MAX % span;
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

/// The pre-kernel E-process hot path, reproduced verbatim as the measured
/// baseline of the `walk_kernel` bench: the same `O(1)` live-prefix
/// bookkeeping as [`eproc_core::EProcess`] with the uniform rule, but
/// stepped exclusively through the object-safe
/// [`WalkProcess::advance`]`(&mut dyn RngCore)` (it deliberately does
/// **not** override `advance_rng`), sampling with the modulo-based
/// `legacy_uniform` sampler and marking edges in a `Vec<bool>` — exactly what
/// every engine trial paid per step before the monomorphized kernel.
/// Trajectories are identical to `EProcess` with `UniformRule` for the
/// same seed (asserted by the bench before timing).
#[derive(Debug, Clone)]
pub struct LegacyEProcess<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
    visited_edge: Vec<bool>,
    slots: Vec<usize>,
    pos: Vec<u32>,
    live: Vec<u32>,
}

impl<'g> LegacyEProcess<'g> {
    /// Creates the baseline walk at `start` with all edges unvisited.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn new(g: &'g Graph, start: Vertex) -> LegacyEProcess<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        LegacyEProcess {
            g,
            current: start,
            steps: 0,
            visited_edge: vec![false; g.m()],
            slots: (0..2 * g.m()).collect(),
            pos: (0..2 * g.m() as u32).collect(),
            live: g.vertices().map(|v| g.degree(v) as u32).collect(),
        }
    }

    fn unlink(&mut self, arc: usize, src: Vertex) {
        let p = self.pos[arc] as usize;
        let live = self.live[src] as usize;
        let base = self.g.arc_range(src).start;
        let last = base + live - 1;
        let moved = self.slots[last];
        self.slots[p] = moved;
        self.slots[last] = arc;
        self.pos[moved] = p as u32;
        self.pos[arc] = last as u32;
        self.live[src] -= 1;
    }
}

impl<'g> WalkProcess for LegacyEProcess<'g> {
    fn graph(&self) -> &Graph {
        self.g
    }

    fn current(&self) -> Vertex {
        self.current
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn advance(&mut self, rng: &mut dyn RngCore) -> Step {
        let v = self.current;
        let degree = self.g.degree(v);
        assert!(degree > 0, "E-process stuck at isolated vertex {v}");
        let live = self.live[v] as usize;
        let base = self.g.arc_range(v).start;
        let (arc, kind) = if live > 0 {
            let idx = legacy_uniform(live as u64, rng) as usize;
            (self.slots[base + idx], StepKind::Blue)
        } else {
            let idx = legacy_uniform(degree as u64, rng) as usize;
            (self.slots[base + idx], StepKind::Red)
        };
        let e = self.g.arc_edge(arc);
        let to = self.g.arc_target(arc);
        if kind == StepKind::Blue {
            self.visited_edge[e] = true;
            let (a0, a1) = self.g.edge_arcs(e);
            let (x, y) = self.g.endpoints(e);
            self.unlink(a0, x);
            self.unlink(a1, y);
        }
        self.current = to;
        self.steps += 1;
        Step {
            from: v,
            to,
            edge: Some(e),
            kind,
        }
    }
}

/// Builds a fresh deterministic RNG for a derived seed.
pub fn rng_for(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Maps this crate's [`Scale`] onto the engine's.
pub fn engine_scale(scale: Scale) -> eproc_engine::Scale {
    match scale {
        Scale::Quick => eproc_engine::Scale::Quick,
        Scale::Paper => eproc_engine::Scale::Paper,
    }
}

/// Runs the named built-in engine spec, returning the resolved spec, the
/// graphs it was run on (for per-graph enrichment columns) and the
/// report. The shared entry point of the ported `table_*` wrappers that
/// need custom presentation on top of the engine ensemble.
///
/// For resampled builtins (`cubicensemble`, `odddegree`) there is no
/// shared graph to enrich — every trial group samples its own — so the
/// returned graph list is empty and the run goes through
/// [`eproc_engine::executor::run`].
///
/// # Panics
///
/// Panics if the spec name is unknown or execution fails.
pub fn run_engine_spec(
    name: &str,
    config: &Config,
) -> (
    eproc_engine::ExperimentSpec,
    Vec<Graph>,
    eproc_engine::ExperimentReport,
) {
    let spec = eproc_engine::builtin::spec(name, engine_scale(config.scale))
        .unwrap_or_else(|| panic!("unknown builtin spec {name:?}"));
    let opts = config.engine_opts();
    if spec.resample.is_some() {
        let report = eproc_engine::executor::run(&spec, &opts)
            .unwrap_or_else(|e| panic!("engine run {name:?} failed: {e}"));
        return (spec, Vec::new(), report);
    }
    let graphs = eproc_engine::executor::build_graphs(&spec, opts.base_seed)
        .unwrap_or_else(|e| panic!("building graphs for {name:?}: {e}"));
    let report = eproc_engine::executor::run_on_graphs(&spec, &opts, &graphs)
        .unwrap_or_else(|e| panic!("engine run {name:?} failed: {e}"));
    (spec, graphs, report)
}

/// Mean of a named metric column in an engine cell.
///
/// # Panics
///
/// Panics if the cell has no such metric or no trial resolved it.
pub fn metric_mean(cell: &eproc_engine::executor::CellSummary, name: &str) -> f64 {
    let metric = cell
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| {
            panic!(
                "cell {}/{} has no metric {name:?}",
                cell.graph, cell.process
            )
        });
    assert!(
        metric.stats.count() > 0,
        "metric {name:?} never resolved for {}/{}",
        cell.graph,
        cell.process
    );
    metric.stats.mean()
}

/// Runs the named built-in engine spec and emits the standard artifacts:
/// prints the aggregate table, writes `<csv_name>.csv` next to the other
/// experiment tables, and writes the engine's JSON artifact.
///
/// This is the whole body of the `table_*` binaries that were ported onto
/// the engine — their trial loops, seeding and aggregation all live in
/// `eproc-engine` now.
///
/// # Panics
///
/// Panics if the spec name is unknown, execution fails, or any trial
/// capped out before covering (the reproduction tables claim every run
/// finishes, so an incomplete cell is a regression, not data).
pub fn run_engine_table(name: &str, config: &Config, csv_name: &str) {
    let spec = eproc_engine::builtin::spec(name, engine_scale(config.scale))
        .unwrap_or_else(|| panic!("unknown builtin spec {name:?}"));
    let opts = config.engine_opts();
    let report = eproc_engine::run(&spec, &opts)
        .unwrap_or_else(|e| panic!("engine run {name:?} failed: {e}"));
    for cell in &report.cells {
        assert_eq!(
            cell.completed, cell.trials,
            "{}/{}: only {}/{} runs covered within the cap",
            cell.graph, cell.process, cell.completed, cell.trials
        );
    }
    let table = eproc_engine::report::to_text_table(&report);
    println!("{table}");
    let p = save_table(csv_name, &table).expect("write csv");
    println!("csv: {}", p.display());
    let j = eproc_engine::report::save_json(&report, None).expect("write json");
    println!("json: {}", j.display());
}

/// Applies `f` to every item on `threads` OS threads, preserving order.
/// Determinism is the caller's job: derive a seed per item, not per
/// thread. Used by the paper-scale sweeps where each cell is an
/// independent (graph, walk) simulation.
///
/// # Panics
///
/// Panics if `threads == 0` or if `f` panics on any item.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let n = items.len();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let work: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let queue = std::sync::Mutex::new(work);
    let results = std::sync::Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                let item = queue.lock().expect("queue poisoned").pop();
                match item {
                    Some((idx, t)) => {
                        let r = f(t);
                        results.lock().expect("results poisoned")[idx] = Some(r);
                    }
                    None => break,
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eproc_core::rule::UniformRule;
    use eproc_core::EProcess;
    use eproc_graphs::generators;
    use eproc_stats::SeedSequence;

    #[test]
    fn naive_matches_engine_statistics() {
        // Same process semantics ⇒ similar mean cover time on a fixed
        // graph (they cannot be trajectory-identical: RNG consumption
        // differs).
        let mut seed_rng = rng_for(1);
        let g = generators::connected_random_regular(200, 4, &mut seed_rng).unwrap();
        let seeds = SeedSequence::new(9);
        let mut rng_a = rng_for(seeds.derive(&[0]));
        let mut rng_b = rng_for(seeds.derive(&[1]));
        let (mean_fast, k1) = mean_vertex_cover_steps(
            |_| EProcess::new(&g, 0, UniformRule::new()),
            20,
            10_000_000,
            &mut rng_a,
        );
        let (mean_naive, k2) =
            mean_vertex_cover_steps(|_| NaiveEProcess::new(&g, 0), 20, 10_000_000, &mut rng_b);
        assert_eq!(k1, 20);
        assert_eq!(k2, 20);
        let ratio = mean_fast / mean_naive;
        assert!(
            (0.7..1.4).contains(&ratio),
            "means diverge: {mean_fast} vs {mean_naive}"
        );
    }

    #[test]
    fn legacy_eprocess_matches_kernel_trajectory() {
        // The walk_kernel bench baseline must walk the exact trajectory of
        // the monomorphized kernel — it is the same process, only paying
        // the pre-kernel per-step costs.
        let mut seed_rng = rng_for(1);
        let g = generators::connected_random_regular(120, 4, &mut seed_rng).unwrap();
        let mut rng_a = rng_for(5);
        let mut rng_b = rng_for(5);
        let mut legacy = LegacyEProcess::new(&g, 0);
        let mut kernel = EProcess::new(&g, 0, UniformRule::new());
        for _ in 0..2_000 {
            assert_eq!(legacy.advance(&mut rng_a), kernel.advance_rng(&mut rng_b));
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn naive_blue_steps_bounded_by_m() {
        let g = generators::torus2d(5, 5);
        let mut rng = rng_for(3);
        let mut w = NaiveEProcess::new(&g, 0);
        let run = run_cover(&mut w, CoverTarget::Edges, 1_000_000, &mut rng);
        assert_eq!(run.edges_visited, g.m());
        assert!(run.blue_steps <= g.m() as u64);
    }

    #[test]
    fn output_dir_is_under_target() {
        let dir = output_dir();
        assert!(dir.ends_with("target/experiments"));
        // ...of the workspace this test runs in, found from the current
        // directory rather than baked in at compile time.
        let root = dir.parent().and_then(Path::parent).unwrap();
        assert!(is_workspace_root(root), "{}", root.display());
        assert!(std::env::current_dir().unwrap().starts_with(root));
    }

    #[test]
    fn output_dir_follows_the_checkout_it_runs_in() {
        let copy = std::env::temp_dir().join(format!("eproc_outdir_{}", std::process::id()));
        let package = copy.join("crates").join("bench");
        std::fs::create_dir_all(&package).unwrap();
        std::fs::write(copy.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        std::fs::write(package.join("Cargo.toml"), "[package]\nname = \"x\"\n").unwrap();
        assert_eq!(
            experiments_dir_from(&package),
            copy.join("target").join("experiments")
        );
        std::fs::remove_dir_all(&copy).unwrap();
        // Outside any workspace: the directory itself.
        assert_eq!(
            experiments_dir_from(&package),
            package.join("target").join("experiments")
        );
    }

    #[test]
    fn save_table_roundtrip() {
        let mut t = TextTable::new(vec!["a"]);
        t.push_row(vec!["1".into()]);
        let path = save_table("unit_test_table", &t).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a\n1\n");
    }

    #[test]
    fn edge_cover_runs_complete() {
        let g = generators::cycle(12);
        let mut rng = rng_for(4);
        let runs = edge_cover_runs(|_| NaiveEProcess::new(&g, 0), 3, 100_000, &mut rng);
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.steps_to_edge_cover == Some(12)));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, 4, |x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn parallel_map_single_thread_and_empty() {
        assert_eq!(parallel_map(vec![3, 1, 4], 1, |x| x + 1), vec![4, 2, 5]);
        assert_eq!(parallel_map(Vec::<u64>::new(), 8, |x| x), Vec::<u64>::new());
    }

    #[test]
    fn parallel_map_is_deterministic_with_derived_seeds() {
        let seeds = SeedSequence::new(3);
        let run = || {
            parallel_map((0..8u64).collect(), 4, |i| {
                let mut rng = rng_for(seeds.derive(&[i]));
                let g = generators::steger_wormald(50, 4, &mut rng).unwrap();
                g.edge_list()
            })
        };
        assert_eq!(run(), run());
    }
}
