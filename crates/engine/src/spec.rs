//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] is a full description of an ensemble experiment:
//! a grid of graph families, a grid of walk processes, a trial count and a
//! stopping target. Specs are plain data — they can be built in code (see
//! [`crate::builtin`]) or parsed from the compact CLI syntax accepted by
//! [`GraphSpec::parse`] and [`ProcessSpec::parse`].

use eproc_core::choice::RandomWalkWithChoice;
use eproc_core::cover::CoverTarget;
use eproc_core::fair::{LeastUsedFirst, OldestFirst};
use eproc_core::observe::{
    BlanketObserver, BlueCensusObserver, CoverObserver, HitTarget, HittingObserver, Metrics,
    Observer, PhaseObserver,
};
use eproc_core::rotor::RotorRouter;
use eproc_core::rule::{
    AdversarialRule, FirstPortRule, GreedyAdversary, LastPortRule, RoundRobinRule, RuleContext,
    UniformRule,
};
use eproc_core::srw::{LazyRandomWalk, SimpleRandomWalk, WeightedRandomWalk};
use eproc_core::vprocess::VProcess;
use eproc_core::{EProcess, Step, WalkProcess};
use eproc_graphs::{generators, Graph, GraphError, Vertex};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;

/// Sweep scale used by the built-in specs: `quick` finishes in seconds,
/// `paper` pushes sizes toward the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-quick sweep.
    Quick,
    /// Paper-scale sweep.
    Paper,
}

impl Scale {
    /// Parses `quick` / `paper`.
    pub fn parse(s: &str) -> Result<Scale, SpecError> {
        match s {
            "quick" => Ok(Scale::Quick),
            "paper" => Ok(Scale::Paper),
            other => Err(SpecError::new(format!(
                "unknown scale {other:?} (quick|paper)"
            ))),
        }
    }
}

/// Error constructing or parsing a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// Hard cap on the number of sizes a single [`SweepRange`] may expand to.
/// Each size becomes one graph family in the grid, so an unbounded stride
/// range (`1..1000000,+1`) would silently explode the experiment; reject
/// it at parse time instead.
pub const MAX_SWEEP_POINTS: usize = 64;

/// How a [`SweepRange`] advances from one size to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepStep {
    /// Multiply by an integer factor (`x2`): geometric sweeps across
    /// decades, the shape growth-law fits need.
    Factor(usize),
    /// Add a fixed stride (`+500`): arithmetic sweeps.
    Stride(usize),
}

/// A size sweep: `start..end` advanced by [`SweepStep`] — the sweep
/// dimension of the `eproc scale` subsystem. Appears inline in the graph
/// grammar (`regular:~{1k..256k,x2},4`) or as the CLI flag
/// `--sweep n=1000..256000,x2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRange {
    /// First size (inclusive).
    pub start: usize,
    /// Upper bound (inclusive; the last point is the largest reachable
    /// size `<= end`).
    pub end: usize,
    /// Step rule.
    pub step: SweepStep,
}

/// Parses a sweep size token: a plain integer with an optional `k`
/// (×1 000) or `m` (×1 000 000) suffix, e.g. `500`, `1k`, `256k`, `2m`.
fn parse_sweep_size(tok: &str) -> Result<usize, SpecError> {
    let bad = || SpecError::new(format!("sweep range: bad size {tok:?}"));
    let (digits, mult) = if let Some(d) = tok.strip_suffix(['k', 'K']) {
        (d, 1_000usize)
    } else if let Some(d) = tok.strip_suffix(['m', 'M']) {
        (d, 1_000_000usize)
    } else {
        (tok, 1usize)
    };
    let base: usize = digits.parse().map_err(|_| bad())?;
    base.checked_mul(mult)
        .ok_or_else(|| SpecError::new(format!("sweep range: size {tok:?} overflows")))
}

impl SweepRange {
    /// Parses `[n=]<start>..<end>[,x<factor>|,+<stride>]`; the step
    /// defaults to `x2`. Sizes accept `k`/`m` suffixes (`1k..256k,x2`).
    /// Empty, descending, overflowing and over-long ranges are rejected
    /// here, so a bad sweep spec fails before anything runs.
    pub fn parse(s: &str) -> Result<SweepRange, SpecError> {
        let body = s.strip_prefix("n=").unwrap_or(s);
        if body.is_empty() {
            return Err(SpecError::new("sweep range: empty"));
        }
        let (range, step_tok) = match body.split_once(',') {
            Some((r, st)) => (r, Some(st)),
            None => (body, None),
        };
        let (a, b) = range.split_once("..").ok_or_else(|| {
            SpecError::new(format!(
                "sweep range {s:?}: expected <start>..<end>[,x<f>|,+<s>]"
            ))
        })?;
        let start = parse_sweep_size(a)?;
        let end = parse_sweep_size(b)?;
        let step = match step_tok {
            None => SweepStep::Factor(2),
            Some(st) => {
                if let Some(f) = st.strip_prefix('x') {
                    SweepStep::Factor(parse_sweep_size(f)?)
                } else if let Some(d) = st.strip_prefix('+') {
                    SweepStep::Stride(parse_sweep_size(d)?)
                } else {
                    return Err(SpecError::new(format!(
                        "sweep range {s:?}: bad step {st:?} (x<factor> or +<stride>)"
                    )));
                }
            }
        };
        let sweep = SweepRange { start, end, step };
        sweep.points()?; // reject degenerate ranges at parse time
        Ok(sweep)
    }

    /// Compact CLI syntax (inverse of [`SweepRange::parse`]; sizes are
    /// rendered as plain digits, which `parse` also accepts).
    pub fn to_cli(&self) -> String {
        let step = match self.step {
            SweepStep::Factor(f) => format!("x{f}"),
            SweepStep::Stride(d) => format!("+{d}"),
        };
        format!("{}..{},{step}", self.start, self.end)
    }

    /// Expands the sweep into its concrete sizes, in ascending order.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for a zero start, descending range, non-advancing
    /// step (`x1`, `x0`, `+0`), or more than [`MAX_SWEEP_POINTS`] sizes.
    pub fn points(&self) -> Result<Vec<usize>, SpecError> {
        let fail = |reason: &str| {
            Err(SpecError::new(format!(
                "sweep range \"{}\": {reason}",
                self.to_cli()
            )))
        };
        if self.start == 0 {
            return fail("sizes start at 1");
        }
        if self.start > self.end {
            return fail("descending (start > end)");
        }
        match self.step {
            SweepStep::Factor(f) if f < 2 => return fail("factor must be at least 2"),
            SweepStep::Stride(0) => return fail("stride must be at least 1"),
            _ => {}
        }
        let mut points = Vec::new();
        let mut cur = self.start;
        loop {
            points.push(cur);
            if points.len() > MAX_SWEEP_POINTS {
                return fail(&format!("expands to more than {MAX_SWEEP_POINTS} sizes"));
            }
            let next = match self.step {
                SweepStep::Factor(f) => cur.checked_mul(f),
                SweepStep::Stride(d) => cur.checked_add(d),
            };
            match next {
                Some(nx) if nx <= self.end => cur = nx,
                _ => break,
            }
        }
        Ok(points)
    }

    /// The normal form of this range: the same points with `end`
    /// clamped to the last reachable size, so ranges that expand
    /// identically render identically (`10..70,x2` and `10..40,x2`
    /// both normalize to `10..40,x2`). Part of the spec
    /// canonicalization contract: sweeps expand to concrete sizes
    /// before an [`ExperimentSpec`] exists, and this is the unique
    /// spelling of the range that produced them.
    ///
    /// # Errors
    ///
    /// [`SpecError`] whenever [`SweepRange::points`] fails.
    pub fn normalize(&self) -> Result<SweepRange, SpecError> {
        let points = self.points()?;
        Ok(SweepRange {
            start: self.start,
            end: *points.last().expect("points() yields at least `start`"),
            step: self.step,
        })
    }
}

/// One graph family in the experiment grid. Randomized families are built
/// deterministically from the seed the executor derives for them.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// Connected random `d`-regular graph on `n` vertices (Steger–Wormald).
    Regular {
        /// Vertex count.
        n: usize,
        /// Degree.
        d: usize,
    },
    /// Lubotzky–Phillips–Sarnak Ramanujan graph — the paper's canonical
    /// high-girth even-degree expander.
    Lps {
        /// Prime `p` (degree is `p + 1`).
        p: u64,
        /// Prime modulus `q`.
        q: u64,
    },
    /// Connected random geometric graph on `n` vertices with radius
    /// `radius_factor` times the connectivity threshold
    /// `sqrt(2 ln n / (π n))`.
    Geometric {
        /// Vertex count.
        n: usize,
        /// Multiple of the connectivity-threshold radius.
        radius_factor: f64,
    },
    /// The `dim`-dimensional hypercube on `2^dim` vertices.
    Hypercube {
        /// Dimension.
        dim: usize,
    },
    /// The `w × h` toroidal grid (4-regular for `w, h >= 3`).
    Torus {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
    },
    /// The cycle `C_n`.
    Cycle {
        /// Vertex count.
        n: usize,
    },
    /// The complete graph `K_n`.
    Complete {
        /// Vertex count.
        n: usize,
    },
    /// The lollipop: a `K_clique` with a path of `path` extra vertices.
    Lollipop {
        /// Clique size.
        clique: usize,
        /// Path length (extra vertices).
        path: usize,
    },
    /// The Petersen graph (3-regular, girth 5, `n = 10`).
    Petersen,
    /// Two cycles of length `len` sharing one vertex (even-degree,
    /// non-regular).
    FigureEight {
        /// Cycle length.
        len: usize,
    },
}

impl GraphSpec {
    /// Human-readable family label used in tables and JSON.
    pub fn label(&self) -> String {
        match self {
            GraphSpec::Regular { n, d } => format!("random {d}-regular n={n}"),
            GraphSpec::Lps { p, q } => format!("LPS({p},{q})"),
            GraphSpec::Geometric { n, .. } => format!("geometric n={n}"),
            GraphSpec::Hypercube { dim } => format!("hypercube H{dim}"),
            GraphSpec::Torus { w, h } => format!("torus {w}x{h}"),
            GraphSpec::Cycle { n } => format!("cycle n={n}"),
            GraphSpec::Complete { n } => format!("complete n={n}"),
            GraphSpec::Lollipop { clique, path } => format!("lollipop({clique},{path})"),
            GraphSpec::Petersen => "petersen".into(),
            GraphSpec::FigureEight { len } => format!("figure-eight({len})"),
        }
    }

    /// Size-free family label: identical for every size of a swept
    /// family, distinct across families that cannot be conflated. The
    /// scaling subsystem groups sweep cells into growth-law series by
    /// `(family_label, process)`, so a multi-family sweep fits one law
    /// per family instead of silently mixing curves.
    pub fn family_label(&self) -> String {
        match self {
            GraphSpec::Regular { d, .. } => format!("random {d}-regular"),
            GraphSpec::Lps { p, .. } => format!("LPS(p={p})"),
            GraphSpec::Geometric { radius_factor, .. } => format!("geometric r={radius_factor}"),
            GraphSpec::Hypercube { .. } => "hypercube".into(),
            GraphSpec::Torus { .. } => "torus".into(),
            GraphSpec::Cycle { .. } => "cycle".into(),
            GraphSpec::Complete { .. } => "complete".into(),
            GraphSpec::Lollipop { .. } => "lollipop".into(),
            GraphSpec::Petersen => "petersen".into(),
            GraphSpec::FigureEight { .. } => "figure-eight".into(),
        }
    }

    /// Compact CLI syntax for this spec (inverse of [`GraphSpec::parse`]).
    pub fn to_cli(&self) -> String {
        match self {
            GraphSpec::Regular { n, d } => format!("regular:{n},{d}"),
            GraphSpec::Lps { p, q } => format!("lps:{p},{q}"),
            GraphSpec::Geometric { n, radius_factor } => format!("geometric:{n},{radius_factor}"),
            GraphSpec::Hypercube { dim } => format!("hypercube:{dim}"),
            GraphSpec::Torus { w, h } => format!("torus:{w},{h}"),
            GraphSpec::Cycle { n } => format!("cycle:{n}"),
            GraphSpec::Complete { n } => format!("complete:{n}"),
            GraphSpec::Lollipop { clique, path } => format!("lollipop:{clique},{path}"),
            GraphSpec::Petersen => "petersen".into(),
            GraphSpec::FigureEight { len } => format!("figure8:{len}"),
        }
    }

    /// Parses the compact CLI syntax, e.g. `regular:4096,4`, `lps:5,13`,
    /// `geometric:2000`, `hypercube:10`, `torus:32,32`, `cycle:100`,
    /// `complete:50`.
    ///
    /// Parsing is strict: every argument must be well-formed and trailing
    /// arguments are rejected, naming the offending token
    /// (`regular:100,3,junk` is an error, not silently `regular:100,3`).
    /// A `~` resample marker (see [`GraphSpec::parse_with_resample`]) is
    /// rejected here — plain `parse` sites have no resample dimension to
    /// attach it to.
    pub fn parse(s: &str) -> Result<GraphSpec, SpecError> {
        let (spec, resample) = GraphSpec::parse_with_resample(s)?;
        if resample {
            return Err(SpecError::new(format!(
                "graph spec {s:?}: resample marker `~` is not accepted here"
            )));
        }
        Ok(spec)
    }

    /// Like [`GraphSpec::parse`], but also accepts a `~` immediately after
    /// the colon (`regular:~1000,4`) marking the family for per-trial
    /// graph resampling; returns whether the marker was present. The
    /// marker only changes anything for randomized families — resampling
    /// a deterministic family regenerates the identical graph.
    pub fn parse_with_resample(s: &str) -> Result<(GraphSpec, bool), SpecError> {
        let (kind, args) = match s.split_once(':') {
            Some((k, a)) => (k, a),
            None => (s, ""),
        };
        let (resample, args) = match args.strip_prefix('~') {
            Some(rest) => (true, rest),
            None => (false, args),
        };
        let nums: Vec<&str> = if args.is_empty() {
            vec![]
        } else {
            args.split(',').collect()
        };
        fn int_arg<T: std::str::FromStr>(s: &str, nums: &[&str], i: usize) -> Result<T, SpecError> {
            let tok = nums
                .get(i)
                .ok_or_else(|| SpecError::new(format!("graph spec {s:?}: missing argument {i}")))?;
            tok.parse()
                .map_err(|_| SpecError::new(format!("graph spec {s:?}: bad integer {tok:?}")))
        }
        let usize_arg = |i: usize| int_arg::<usize>(s, &nums, i);
        let u64_arg = |i: usize| int_arg::<u64>(s, &nums, i);
        // Rejects anything beyond the family's arity, naming the first
        // offending token.
        let at_most = |expected: usize| -> Result<(), SpecError> {
            match nums.get(expected) {
                Some(tok) => Err(SpecError::new(format!(
                    "graph spec {s:?}: unexpected trailing argument {tok:?}"
                ))),
                None => Ok(()),
            }
        };
        let spec = match kind {
            "regular" => {
                at_most(2)?;
                GraphSpec::Regular { n: usize_arg(0)?, d: usize_arg(1)? }
            }
            "lps" => {
                at_most(2)?;
                GraphSpec::Lps { p: u64_arg(0)?, q: u64_arg(1)? }
            }
            "geometric" => {
                at_most(2)?;
                let n = usize_arg(0)?;
                let radius_factor = match nums.get(1) {
                    Some(tok) => tok.parse().map_err(|_| {
                        SpecError::new(format!("graph spec {s:?}: bad factor {tok:?}"))
                    })?,
                    None => 1.5,
                };
                GraphSpec::Geometric { n, radius_factor }
            }
            "hypercube" => {
                at_most(1)?;
                GraphSpec::Hypercube { dim: usize_arg(0)? }
            }
            "torus" => {
                at_most(2)?;
                GraphSpec::Torus { w: usize_arg(0)?, h: usize_arg(1)? }
            }
            "cycle" => {
                at_most(1)?;
                GraphSpec::Cycle { n: usize_arg(0)? }
            }
            "complete" => {
                at_most(1)?;
                GraphSpec::Complete { n: usize_arg(0)? }
            }
            "lollipop" => {
                at_most(2)?;
                GraphSpec::Lollipop {
                    clique: usize_arg(0)?,
                    path: usize_arg(1)?,
                }
            }
            "petersen" => {
                at_most(0)?;
                GraphSpec::Petersen
            }
            "figure8" | "figure-eight" => {
                at_most(1)?;
                GraphSpec::FigureEight { len: usize_arg(0)? }
            }
            other => {
                return Err(SpecError::new(format!(
                    "unknown graph family {other:?} (regular|lps|geometric|hypercube|torus|cycle|complete|lollipop|petersen|figure8)"
                )))
            }
        };
        Ok((spec, resample))
    }

    /// Like [`GraphSpec::parse_with_resample`], but the first argument may
    /// be an inline `{range}` sweep (see [`SweepRange::parse`]):
    /// `regular:~{1k..256k,x2},4` expands to one family per size, all
    /// sharing the remaining arguments and the resample marker. Returns
    /// the expanded grid, whether the `~` marker was present, and the
    /// sweep range (`None` when the spec had no `{range}`).
    pub fn parse_with_sweep(
        s: &str,
    ) -> Result<(Vec<GraphSpec>, bool, Option<SweepRange>), SpecError> {
        let Some(open) = s.find('{') else {
            let (spec, resample) = GraphSpec::parse_with_resample(s)?;
            return Ok((vec![spec], resample, None));
        };
        let close = s
            .find('}')
            .ok_or_else(|| SpecError::new(format!("graph spec {s:?}: unclosed sweep range")))?;
        if close < open || s[open + 1..].contains('{') || s[close + 1..].contains('}') {
            return Err(SpecError::new(format!(
                "graph spec {s:?}: exactly one {{start..end[,step]}} sweep range is allowed"
            )));
        }
        let range = SweepRange::parse(&s[open + 1..close])?;
        let mut specs = Vec::new();
        let mut resample = false;
        for n in range.points()? {
            let instantiated = format!("{}{}{}", &s[..open], n, &s[close + 1..]);
            let (spec, marked) = GraphSpec::parse_with_resample(&instantiated)?;
            resample = marked;
            specs.push(spec);
        }
        Ok((specs, resample, Some(range)))
    }

    /// Re-instantiates the family at vertex count `n` — how the CLI's
    /// `--sweep n=<range>` flag turns one `--graph` template into a sweep
    /// grid. Only families whose leading parameter is a vertex count can
    /// be swept this way.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for families without a primary size (hypercube,
    /// torus, LPS, lollipop, petersen, figure-eight).
    pub fn with_primary_size(&self, n: usize) -> Result<GraphSpec, SpecError> {
        match *self {
            GraphSpec::Regular { d, .. } => Ok(GraphSpec::Regular { n, d }),
            GraphSpec::Geometric { radius_factor, .. } => {
                Ok(GraphSpec::Geometric { n, radius_factor })
            }
            GraphSpec::Cycle { .. } => Ok(GraphSpec::Cycle { n }),
            GraphSpec::Complete { .. } => Ok(GraphSpec::Complete { n }),
            _ => Err(SpecError::new(format!(
                "graph spec \"{}\": family has no primary vertex count to sweep \
                 (sweepable: regular, geometric, cycle, complete)",
                self.to_cli()
            ))),
        }
    }

    /// `true` for families whose samples genuinely depend on the seed —
    /// the families for which per-trial resampling changes the ensemble.
    pub fn is_randomized(&self) -> bool {
        matches!(
            self,
            GraphSpec::Regular { .. } | GraphSpec::Geometric { .. }
        )
    }

    /// Exact vertex count of the family, without generating a sample —
    /// identical for **every** sample, so the resampling executor can
    /// validate start and hitting vertices before any graph exists.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for LPS parameters outside the construction's domain
    /// (the count comes from the group order, which needs valid `p, q`).
    pub fn vertex_count(&self) -> Result<usize, SpecError> {
        match *self {
            GraphSpec::Regular { n, .. } => Ok(n),
            GraphSpec::Lps { p, q } => generators::LpsParams::new(p, q)
                .map(|params| params.vertex_count())
                .map_err(|e| SpecError::new(format!("graph spec \"{}\": {e}", self.to_cli()))),
            GraphSpec::Geometric { n, .. } => Ok(n),
            GraphSpec::Hypercube { dim } => Ok(1usize << dim),
            GraphSpec::Torus { w, h } => Ok(w * h),
            GraphSpec::Cycle { n } => Ok(n),
            GraphSpec::Complete { n } => Ok(n),
            GraphSpec::Lollipop { clique, path } => Ok(clique + path),
            GraphSpec::Petersen => Ok(10),
            // Saturating: `len = 0` is invalid (caught by `validate`),
            // but this method must not underflow when probed directly.
            GraphSpec::FigureEight { len } => Ok((2 * len).saturating_sub(1)),
        }
    }

    /// Checks family feasibility without generating anything, so an
    /// impossible spec (`regular:0,4`, `regular:10,0`, a non-positive
    /// geometric radius factor, …) fails **once at validation time** with
    /// a [`SpecError`] naming the family, instead of surfacing as a
    /// per-trial generator failure — or a panic — deep inside the
    /// executor.
    pub fn validate(&self) -> Result<(), SpecError> {
        let fail = |reason: String| -> Result<(), SpecError> {
            Err(SpecError::new(format!(
                "graph spec \"{}\": {reason}",
                self.to_cli()
            )))
        };
        match *self {
            GraphSpec::Regular { n, d } => {
                if n == 0 {
                    return fail("no vertices".into());
                }
                if !(d >= 3 || (d == 2 && n >= 3)) {
                    return fail(format!(
                        "connected regular graphs need degree >= 3 (or degree 2 with n >= 3), got degree {d}"
                    ));
                }
                if d >= n {
                    return fail(format!("degree {d} >= n = {n}: simple graph impossible"));
                }
                if (n * d) % 2 != 0 {
                    return fail(format!("n * d = {} is odd: no such graph", n * d));
                }
            }
            GraphSpec::Geometric { n, radius_factor } => {
                if n < 2 {
                    return fail(format!("need n >= 2 vertices, got {n}"));
                }
                if !(radius_factor.is_finite() && radius_factor > 0.0) {
                    return fail(format!(
                        "radius factor must be finite and positive, got {radius_factor}"
                    ));
                }
            }
            GraphSpec::Hypercube { dim } => {
                if dim == 0 || dim >= usize::BITS as usize {
                    return fail(format!("dimension {dim} outside [1, {})", usize::BITS));
                }
            }
            GraphSpec::Torus { w, h } => {
                if w < 2 || h < 2 {
                    return fail(format!("torus needs w, h >= 2, got {w}x{h}"));
                }
            }
            GraphSpec::Cycle { n } => {
                if n < 3 {
                    return fail(format!("cycle needs n >= 3, got {n}"));
                }
            }
            GraphSpec::Complete { n } => {
                if n < 2 {
                    return fail(format!("complete graph needs n >= 2, got {n}"));
                }
            }
            GraphSpec::Lollipop { clique, .. } => {
                if clique == 0 {
                    return fail("lollipop needs a nonempty clique".into());
                }
            }
            GraphSpec::FigureEight { len } => {
                if len < 3 {
                    return fail(format!("figure-eight needs cycle length >= 3, got {len}"));
                }
            }
            // LPS parameter arithmetic (primality, quadratic residues) is
            // checked by the generator itself; repeating it here would
            // duplicate nontrivial number theory.
            GraphSpec::Lps { .. } | GraphSpec::Petersen => {}
        }
        Ok(())
    }

    /// Builds the graph deterministically from `seed`. Randomized families
    /// retry until connected (advancing the seeded RNG) within the
    /// generators' bounded restart budget, so the result is a pure
    /// function of `(self, seed)` and a family that cannot produce a
    /// connected sample (e.g. a tiny geometric radius factor) fails fast
    /// with [`GraphError::RetriesExhausted`] instead of looping forever.
    pub fn build(&self, seed: u64) -> Result<Graph, GraphError> {
        self.build_counted(seed).map(|(g, _)| g)
    }

    /// [`GraphSpec::build`], additionally reporting how many generator
    /// attempts the build consumed — `1` for deterministic families and
    /// for randomized draws whose first sample was accepted. The RNG
    /// sequence and the built graph are identical to [`GraphSpec::build`];
    /// the count feeds generation telemetry.
    ///
    /// # Errors
    ///
    /// As [`GraphSpec::build`].
    pub fn build_counted(&self, seed: u64) -> Result<(Graph, usize), GraphError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match *self {
            GraphSpec::Regular { n, d } => {
                generators::connected_random_regular_counted(n, d, &mut rng)
            }
            GraphSpec::Lps { p, q } => generators::lps_ramanujan(p, q).map(|g| (g, 1)),
            GraphSpec::Geometric { n, radius_factor } => {
                let threshold = (2.0 * (n as f64).ln() / (std::f64::consts::PI * n as f64)).sqrt();
                let radius = radius_factor * threshold;
                generators::connected_random_geometric_counted(n, radius, &mut rng)
                    .map(|(gg, attempts)| (gg.graph, attempts))
            }
            GraphSpec::Hypercube { dim } => Ok((generators::hypercube(dim), 1)),
            GraphSpec::Torus { w, h } => Ok((generators::torus2d(w, h), 1)),
            GraphSpec::Cycle { n } => Ok((generators::cycle(n), 1)),
            GraphSpec::Complete { n } => Ok((generators::complete(n), 1)),
            GraphSpec::Lollipop { clique, path } => Ok((generators::lollipop(clique, path), 1)),
            GraphSpec::Petersen => Ok((generators::petersen(), 1)),
            GraphSpec::FigureEight { len } => Ok((generators::figure_eight(len), 1)),
        }
    }
}

/// Rule `A` selection for [`ProcessSpec::EProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleSpec {
    /// Uniform among unvisited edges (greedy random walk).
    Uniform,
    /// Deterministic lowest-port-first.
    FirstPort,
    /// Deterministic highest-port-first.
    LastPort,
    /// Per-vertex round robin over unvisited ports.
    RoundRobin,
    /// Adversary steering toward high-degree neighbours.
    GreedyAdversary,
    /// Adversary always picking the live arc with the largest id.
    Spiteful,
}

impl RuleSpec {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            RuleSpec::Uniform => "uniform",
            RuleSpec::FirstPort => "first-port",
            RuleSpec::LastPort => "last-port",
            RuleSpec::RoundRobin => "round-robin",
            RuleSpec::GreedyAdversary => "greedy-adversary",
            RuleSpec::Spiteful => "spiteful-adversary",
        }
    }

    /// Parses a rule name (the labels above, hyphens optional).
    pub fn parse(s: &str) -> Result<RuleSpec, SpecError> {
        match s.replace('-', "").as_str() {
            "uniform" => Ok(RuleSpec::Uniform),
            "firstport" => Ok(RuleSpec::FirstPort),
            "lastport" => Ok(RuleSpec::LastPort),
            "roundrobin" => Ok(RuleSpec::RoundRobin),
            "greedyadversary" | "greedy" => Ok(RuleSpec::GreedyAdversary),
            "spitefuladversary" | "spiteful" => Ok(RuleSpec::Spiteful),
            other => Err(SpecError::new(format!("unknown rule {other:?}"))),
        }
    }

    /// All rules, for grid construction.
    pub fn all() -> [RuleSpec; 6] {
        [
            RuleSpec::Uniform,
            RuleSpec::FirstPort,
            RuleSpec::LastPort,
            RuleSpec::RoundRobin,
            RuleSpec::GreedyAdversary,
            RuleSpec::Spiteful,
        ]
    }
}

fn spiteful_choice(ctx: &RuleContext<'_>) -> usize {
    ctx.live_ports
        .iter()
        .enumerate()
        .max_by_key(|&(_, &p)| p)
        .map(|(i, _)| i)
        .expect("live_ports is nonempty")
}

/// One walk process in the experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessSpec {
    /// The E-process with the given rule `A`.
    EProcess {
        /// Rule choosing among unvisited edges.
        rule: RuleSpec,
    },
    /// Simple random walk.
    Srw,
    /// Lazy random walk (holds with probability 1/2).
    LazySrw,
    /// Weighted random walk with deterministic pseudo-random edge weights
    /// in `[0.1, 10)` — the process class of Theorem 5's lower bound.
    WeightedSrw,
    /// Rotor-router (Propp machine).
    RotorRouter,
    /// Random walk with choice, RWC(d) of Avin–Krishnamachari.
    Rwc {
        /// Number of sampled neighbours per step.
        d: usize,
    },
    /// Oldest-first locally fair exploration.
    OldestFirst,
    /// Least-used-first locally fair exploration.
    LeastUsedFirst,
    /// The vertex-process (V-process) baseline.
    VProcess,
}

impl ProcessSpec {
    /// Table label.
    pub fn label(&self) -> String {
        match self {
            ProcessSpec::EProcess { rule } => format!("e-process({})", rule.label()),
            ProcessSpec::Srw => "srw".into(),
            ProcessSpec::LazySrw => "lazy-srw".into(),
            ProcessSpec::WeightedSrw => "weighted-srw".into(),
            ProcessSpec::RotorRouter => "rotor-router".into(),
            ProcessSpec::Rwc { d } => format!("rwc({d})"),
            ProcessSpec::OldestFirst => "oldest-first".into(),
            ProcessSpec::LeastUsedFirst => "least-used-first".into(),
            ProcessSpec::VProcess => "v-process".into(),
        }
    }

    /// Whether a walk of this process ever draws from its RNG. `false`
    /// means every trial on a given graph and start walks the identical
    /// path whatever its seed — observers get no RNG either — so the
    /// executor walks such a cell once and folds that outcome per trial.
    /// Exhaustive on purpose: a new variant has to decide.
    pub fn draws_randomness(&self) -> bool {
        match self {
            ProcessSpec::EProcess { .. }
            | ProcessSpec::Srw
            | ProcessSpec::LazySrw
            | ProcessSpec::WeightedSrw
            | ProcessSpec::Rwc { .. }
            | ProcessSpec::VProcess => true,
            ProcessSpec::RotorRouter | ProcessSpec::OldestFirst | ProcessSpec::LeastUsedFirst => {
                false
            }
        }
    }

    /// Compact CLI syntax for this spec (inverse of [`ProcessSpec::parse`]).
    pub fn to_cli(&self) -> String {
        match self {
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            } => "eprocess".into(),
            ProcessSpec::EProcess { rule } => format!("eprocess:{}", rule.label()),
            ProcessSpec::Srw => "srw".into(),
            ProcessSpec::LazySrw => "lazy".into(),
            ProcessSpec::WeightedSrw => "weighted".into(),
            ProcessSpec::RotorRouter => "rotor".into(),
            ProcessSpec::Rwc { d } => format!("rwc:{d}"),
            ProcessSpec::OldestFirst => "oldest".into(),
            ProcessSpec::LeastUsedFirst => "leastused".into(),
            ProcessSpec::VProcess => "vprocess".into(),
        }
    }

    /// Parses the compact CLI syntax, e.g. `eprocess`, `eprocess:firstport`,
    /// `srw`, `lazy`, `weighted`, `rotor`, `rwc:2`, `oldest`, `leastused`,
    /// `vprocess`.
    pub fn parse(s: &str) -> Result<ProcessSpec, SpecError> {
        let (kind, args) = match s.split_once(':') {
            Some((k, a)) => (k, a),
            None => (s, ""),
        };
        // Everything except `eprocess:<rule>` and `rwc:<d>` is argument-free;
        // stray arguments are rejected rather than silently dropped.
        let no_args = |spec: ProcessSpec| -> Result<ProcessSpec, SpecError> {
            if args.is_empty() {
                Ok(spec)
            } else {
                Err(SpecError::new(format!(
                    "process spec {s:?}: unexpected argument {args:?}"
                )))
            }
        };
        match kind {
            "eprocess" | "e-process" => {
                let rule =
                    if args.is_empty() { RuleSpec::Uniform } else { RuleSpec::parse(args)? };
                Ok(ProcessSpec::EProcess { rule })
            }
            "srw" => no_args(ProcessSpec::Srw),
            "lazy" | "lazy-srw" => no_args(ProcessSpec::LazySrw),
            "weighted" | "weighted-srw" => no_args(ProcessSpec::WeightedSrw),
            "rotor" | "rotor-router" => no_args(ProcessSpec::RotorRouter),
            "rwc" => {
                let d: usize = if args.is_empty() {
                    2
                } else {
                    args.parse()
                        .map_err(|_| SpecError::new(format!("process spec {s:?}: bad d")))?
                };
                Ok(ProcessSpec::Rwc { d })
            }
            "oldest" | "oldest-first" => no_args(ProcessSpec::OldestFirst),
            "leastused" | "least-used-first" => no_args(ProcessSpec::LeastUsedFirst),
            "vprocess" | "v-process" => no_args(ProcessSpec::VProcess),
            other => Err(SpecError::new(format!(
                "unknown process {other:?} (eprocess[:rule]|srw|lazy|weighted|rotor|rwc:d|oldest|leastused|vprocess)"
            ))),
        }
    }

    /// Instantiates the process on `g` at `start` behind a trait object
    /// (dyn-dispatched stepping — the compatibility shape). The executor's
    /// hot path uses [`ProcessSpec::build_kernel`] instead.
    pub fn build<'g>(&self, g: &'g Graph, start: Vertex) -> Box<dyn WalkProcess + 'g> {
        Box::new(self.build_kernel(g, start))
    }

    /// Instantiates the process on `g` at `start` as a [`WalkKernel`]
    /// variant, so callers can dispatch **once per trial** to a fully
    /// monomorphized step loop (see [`with_kernel!`](crate::with_kernel)).
    ///
    /// Construction is deterministic: [`ProcessSpec::WeightedSrw`] draws
    /// its edge weights from an RNG seeded purely by the graph shape, so
    /// every trial on a given graph sees the same weights regardless of
    /// scheduling.
    pub fn build_kernel<'g>(&self, g: &'g Graph, start: Vertex) -> WalkKernel<'g> {
        match *self {
            ProcessSpec::EProcess { rule } => match rule {
                RuleSpec::Uniform => {
                    WalkKernel::EProcessUniform(EProcess::new(g, start, UniformRule::new()))
                }
                RuleSpec::FirstPort => {
                    WalkKernel::EProcessFirstPort(EProcess::new(g, start, FirstPortRule))
                }
                RuleSpec::LastPort => {
                    WalkKernel::EProcessLastPort(EProcess::new(g, start, LastPortRule))
                }
                RuleSpec::RoundRobin => WalkKernel::EProcessRoundRobin(EProcess::new(
                    g,
                    start,
                    RoundRobinRule::new(g.n()),
                )),
                RuleSpec::GreedyAdversary => {
                    WalkKernel::EProcessGreedyAdversary(EProcess::new(g, start, GreedyAdversary))
                }
                RuleSpec::Spiteful => {
                    let rule: AdversarialRule<fn(&RuleContext<'_>) -> usize> =
                        AdversarialRule::new(spiteful_choice);
                    WalkKernel::EProcessSpiteful(EProcess::new(g, start, rule))
                }
            },
            ProcessSpec::Srw => WalkKernel::Srw(SimpleRandomWalk::new(g, start)),
            ProcessSpec::LazySrw => WalkKernel::LazySrw(LazyRandomWalk::new(g, start)),
            ProcessSpec::WeightedSrw => {
                let mut wrng =
                    SmallRng::seed_from_u64(0x0057_eed5 ^ (g.m() as u64).rotate_left(17));
                let weights: Vec<f64> = (0..g.m()).map(|_| wrng.gen_range(0.1..10.0)).collect();
                WalkKernel::WeightedSrw(WeightedRandomWalk::new(g, start, &weights))
            }
            ProcessSpec::RotorRouter => WalkKernel::RotorRouter(RotorRouter::new(g, start)),
            ProcessSpec::Rwc { d } => WalkKernel::Rwc(RandomWalkWithChoice::new(g, start, d)),
            ProcessSpec::OldestFirst => WalkKernel::OldestFirst(OldestFirst::new(g, start)),
            ProcessSpec::LeastUsedFirst => {
                WalkKernel::LeastUsedFirst(LeastUsedFirst::new(g, start))
            }
            ProcessSpec::VProcess => WalkKernel::VProcess(VProcess::new(g, start)),
        }
    }
}

/// The function-pointer adversary used by [`RuleSpec::Spiteful`].
pub type SpitefulRule = AdversarialRule<fn(&RuleContext<'_>) -> usize>;

/// One concrete walk process per built-in [`ProcessSpec`] variant.
///
/// This is the "process half" of the executor's (process × metric-set)
/// dispatch: a trial matches on the kernel **once**, and each arm runs
/// [`eproc_core::observe::run_observed`] with the concrete process type,
/// so the per-step loop is fully monomorphized — no `Box<dyn WalkProcess>`
/// and no per-step virtual `advance`. The enum also implements
/// [`WalkProcess`] itself (one predictable match per call) for callers
/// that don't need the flat loop.
#[derive(Debug)]
pub enum WalkKernel<'g> {
    /// E-process, uniform rule.
    EProcessUniform(EProcess<'g, UniformRule>),
    /// E-process, first-port rule.
    EProcessFirstPort(EProcess<'g, FirstPortRule>),
    /// E-process, last-port rule.
    EProcessLastPort(EProcess<'g, LastPortRule>),
    /// E-process, round-robin rule.
    EProcessRoundRobin(EProcess<'g, RoundRobinRule>),
    /// E-process, greedy adversary.
    EProcessGreedyAdversary(EProcess<'g, GreedyAdversary>),
    /// E-process, spiteful adversary.
    EProcessSpiteful(EProcess<'g, SpitefulRule>),
    /// Simple random walk.
    Srw(SimpleRandomWalk<'g>),
    /// Lazy random walk.
    LazySrw(LazyRandomWalk<'g>),
    /// Weighted random walk.
    WeightedSrw(WeightedRandomWalk<'g>),
    /// Rotor-router.
    RotorRouter(RotorRouter<'g>),
    /// Random walk with choice.
    Rwc(RandomWalkWithChoice<'g>),
    /// Oldest-first locally fair explorer.
    OldestFirst(OldestFirst<'g>),
    /// Least-used-first locally fair explorer.
    LeastUsedFirst(LeastUsedFirst<'g>),
    /// V-process.
    VProcess(VProcess<'g>),
}

/// Matches a [`WalkKernel`] once and runs `$body` with `$walk` bound to
/// the **concrete** process inside — the per-trial monomorphization point
/// of the executor: every expansion of `$body` compiles against a
/// concrete walk type, so a `run_observed` call inside it becomes a flat
/// inlined loop.
#[macro_export]
macro_rules! with_kernel {
    ($kernel:expr, $walk:ident => $body:expr) => {
        match $kernel {
            $crate::spec::WalkKernel::EProcessUniform(mut $walk) => $body,
            $crate::spec::WalkKernel::EProcessFirstPort(mut $walk) => $body,
            $crate::spec::WalkKernel::EProcessLastPort(mut $walk) => $body,
            $crate::spec::WalkKernel::EProcessRoundRobin(mut $walk) => $body,
            $crate::spec::WalkKernel::EProcessGreedyAdversary(mut $walk) => $body,
            $crate::spec::WalkKernel::EProcessSpiteful(mut $walk) => $body,
            $crate::spec::WalkKernel::Srw(mut $walk) => $body,
            $crate::spec::WalkKernel::LazySrw(mut $walk) => $body,
            $crate::spec::WalkKernel::WeightedSrw(mut $walk) => $body,
            $crate::spec::WalkKernel::RotorRouter(mut $walk) => $body,
            $crate::spec::WalkKernel::Rwc(mut $walk) => $body,
            $crate::spec::WalkKernel::OldestFirst(mut $walk) => $body,
            $crate::spec::WalkKernel::LeastUsedFirst(mut $walk) => $body,
            $crate::spec::WalkKernel::VProcess(mut $walk) => $body,
        }
    };
}

/// Matches a `Vec<WalkKernel>` of **identical variant** once and runs
/// `$body` with `$walks` bound to a `Vec` of the concrete process type —
/// the interleaved counterpart of [`with_kernel!`]: one group's lanes all
/// come from the same [`crate::spec::ProcessSpec`], so a single dispatch
/// on the first kernel monomorphizes the whole lockstep loop
/// ([`eproc_core::interleave::run_observed_interleaved`]) against the
/// concrete walk type, exactly like the sequential kernel.
///
/// # Panics
///
/// Panics if the set is empty or mixes kernel variants (the executor
/// builds every lane of a group from one `ProcessSpec`, so either is a
/// caller bug).
#[macro_export]
macro_rules! with_kernel_lanes {
    (@arm $kernels:ident, $variant:ident, $walks:ident => $body:expr) => {{
        let $walks: ::std::vec::Vec<_> = $kernels
            .into_iter()
            .map(|k| match k {
                $crate::spec::WalkKernel::$variant(w) => w,
                _ => unreachable!("mixed kernel variants in one lane set"),
            })
            .collect();
        $body
    }};
    ($kernels:expr, $walks:ident => $body:expr) => {{
        let kernels: ::std::vec::Vec<$crate::spec::WalkKernel<'_>> = $kernels;
        match kernels.first() {
            None => panic!("with_kernel_lanes! needs at least one kernel"),
            Some($crate::spec::WalkKernel::EProcessUniform(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, EProcessUniform, $walks => $body)
            }
            Some($crate::spec::WalkKernel::EProcessFirstPort(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, EProcessFirstPort, $walks => $body)
            }
            Some($crate::spec::WalkKernel::EProcessLastPort(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, EProcessLastPort, $walks => $body)
            }
            Some($crate::spec::WalkKernel::EProcessRoundRobin(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, EProcessRoundRobin, $walks => $body)
            }
            Some($crate::spec::WalkKernel::EProcessGreedyAdversary(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, EProcessGreedyAdversary, $walks => $body)
            }
            Some($crate::spec::WalkKernel::EProcessSpiteful(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, EProcessSpiteful, $walks => $body)
            }
            Some($crate::spec::WalkKernel::Srw(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, Srw, $walks => $body)
            }
            Some($crate::spec::WalkKernel::LazySrw(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, LazySrw, $walks => $body)
            }
            Some($crate::spec::WalkKernel::WeightedSrw(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, WeightedSrw, $walks => $body)
            }
            Some($crate::spec::WalkKernel::RotorRouter(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, RotorRouter, $walks => $body)
            }
            Some($crate::spec::WalkKernel::Rwc(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, Rwc, $walks => $body)
            }
            Some($crate::spec::WalkKernel::OldestFirst(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, OldestFirst, $walks => $body)
            }
            Some($crate::spec::WalkKernel::LeastUsedFirst(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, LeastUsedFirst, $walks => $body)
            }
            Some($crate::spec::WalkKernel::VProcess(_)) => {
                $crate::with_kernel_lanes!(@arm kernels, VProcess, $walks => $body)
            }
        }
    }};
}

macro_rules! kernel_delegate {
    ($self:expr, $walk:ident => $body:expr) => {
        match $self {
            WalkKernel::EProcessUniform($walk) => $body,
            WalkKernel::EProcessFirstPort($walk) => $body,
            WalkKernel::EProcessLastPort($walk) => $body,
            WalkKernel::EProcessRoundRobin($walk) => $body,
            WalkKernel::EProcessGreedyAdversary($walk) => $body,
            WalkKernel::EProcessSpiteful($walk) => $body,
            WalkKernel::Srw($walk) => $body,
            WalkKernel::LazySrw($walk) => $body,
            WalkKernel::WeightedSrw($walk) => $body,
            WalkKernel::RotorRouter($walk) => $body,
            WalkKernel::Rwc($walk) => $body,
            WalkKernel::OldestFirst($walk) => $body,
            WalkKernel::LeastUsedFirst($walk) => $body,
            WalkKernel::VProcess($walk) => $body,
        }
    };
}

impl WalkProcess for WalkKernel<'_> {
    fn graph(&self) -> &Graph {
        kernel_delegate!(self, w => w.graph())
    }

    fn current(&self) -> Vertex {
        kernel_delegate!(self, w => w.current())
    }

    fn steps(&self) -> u64 {
        kernel_delegate!(self, w => w.steps())
    }

    fn advance(&mut self, mut rng: &mut dyn RngCore) -> Step {
        self.advance_rng(&mut rng)
    }

    fn advance_rng<R: RngCore>(&mut self, rng: &mut R) -> Step {
        kernel_delegate!(self, w => w.advance_rng(rng))
    }

    fn prefetch(&self) {
        kernel_delegate!(self, w => w.prefetch())
    }
}

/// What each trial waits for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// Steps until every vertex has been visited.
    VertexCover,
    /// Steps until every edge has been traversed.
    EdgeCover,
    /// Steps until both vertices and edges are covered.
    BothCover,
    /// Ding–Lee–Peres blanket time with parameter `delta`.
    Blanket {
        /// Required visit fraction `δ ∈ (0, 1)`.
        delta: f64,
    },
}

impl Target {
    /// Stable name used in tables and JSON.
    pub fn label(&self) -> String {
        match self {
            Target::VertexCover => "vertex-cover".into(),
            Target::EdgeCover => "edge-cover".into(),
            Target::BothCover => "both-cover".into(),
            Target::Blanket { delta } => format!("blanket({delta})"),
        }
    }

    /// Compact CLI syntax (inverse of [`Target::parse`]): `vertex`,
    /// `edge`, `both`, `blanket:<delta>`. The blanket delta renders via
    /// `f64`'s shortest-round-trip formatting, so `parse(to_cli())`
    /// reproduces the value bit for bit — the property shard headers
    /// rely on.
    pub fn to_cli(&self) -> String {
        match self {
            Target::VertexCover => "vertex".into(),
            Target::EdgeCover => "edge".into(),
            Target::BothCover => "both".into(),
            Target::Blanket { delta } => format!("blanket:{delta}"),
        }
    }

    /// Parses `vertex`, `edge`, `both` or `blanket:<delta>`.
    pub fn parse(s: &str) -> Result<Target, SpecError> {
        match s.split_once(':') {
            None => match s {
                "vertex" | "vertex-cover" => Ok(Target::VertexCover),
                "edge" | "edge-cover" => Ok(Target::EdgeCover),
                "both" | "both-cover" => Ok(Target::BothCover),
                "blanket" => Ok(Target::Blanket { delta: 0.4 }),
                other => Err(SpecError::new(format!(
                    "unknown target {other:?} (vertex|edge|both|blanket:<delta>)"
                ))),
            },
            Some(("blanket", d)) => {
                let delta: f64 = d
                    .parse()
                    .map_err(|_| SpecError::new(format!("target {s:?}: bad delta")))?;
                if !(0.0..1.0).contains(&delta) || delta == 0.0 {
                    return Err(SpecError::new(format!(
                        "target {s:?}: delta must be in (0,1)"
                    )));
                }
                Ok(Target::Blanket { delta })
            }
            Some(_) => Err(SpecError::new(format!("unknown target {s:?}"))),
        }
    }

    /// The underlying cover target, if this is a cover measurement.
    pub fn cover_target(&self) -> Option<CoverTarget> {
        match self {
            Target::VertexCover => Some(CoverTarget::Vertices),
            Target::EdgeCover => Some(CoverTarget::Edges),
            Target::BothCover => Some(CoverTarget::Both),
            Target::Blanket { .. } => None,
        }
    }

    /// Builds the observer that measures (and stops) this target.
    pub(crate) fn build_observer<'g>(&self, _g: &'g Graph) -> AnyObserver<'g> {
        match *self {
            Target::Blanket { delta } => {
                AnyObserver::Blanket(BlanketObserver::new(delta).expect("spec validated delta"))
            }
            _ => AnyObserver::Cover(CoverObserver::new(
                self.cover_target().expect("non-blanket is a cover target"),
            )),
        }
    }
}

/// One concrete observer per metric kind — the "metric-set half" of the
/// executor's (process × metric-set) dispatch. An observer bank is a
/// `Vec<AnyObserver>`, which feeds [`eproc_core::observe::run_observed`]
/// through the homogeneous-slice [`ObserverSet`](eproc_core::observe::ObserverSet)
/// implementation: per step, each observer costs one predictable `match`
/// with the measurement body inlined, instead of a virtual call through
/// `Box<dyn Observer>`.
#[derive(Debug)]
pub enum AnyObserver<'g> {
    /// Vertex/edge cover observer.
    Cover(CoverObserver),
    /// Blanket-time observer.
    Blanket(BlanketObserver),
    /// Phase-structure observer.
    Phases(PhaseObserver),
    /// Blue star census observer (borrows the graph).
    BlueCensus(BlueCensusObserver<'g>),
    /// Hitting-time observer.
    Hitting(HittingObserver),
}

macro_rules! any_observer_delegate {
    ($self:expr, $obs:ident => $body:expr) => {
        match $self {
            AnyObserver::Cover($obs) => $body,
            AnyObserver::Blanket($obs) => $body,
            AnyObserver::Phases($obs) => $body,
            AnyObserver::BlueCensus($obs) => $body,
            AnyObserver::Hitting($obs) => $body,
        }
    };
}

impl Observer for AnyObserver<'_> {
    fn begin(&mut self, g: &Graph, start: Vertex) {
        any_observer_delegate!(self, o => o.begin(g, start))
    }

    #[inline]
    fn on_step(&mut self, t: u64, step: &Step) {
        any_observer_delegate!(self, o => o.on_step(t, step))
    }

    #[inline]
    fn satisfied(&self) -> bool {
        any_observer_delegate!(self, o => o.satisfied())
    }

    fn finish(&mut self) -> Metrics {
        any_observer_delegate!(self, o => o.finish())
    }
}

/// One additional per-trial metric, measured by an observer attached to
/// the **same** walk as the target — a multi-metric trial still walks the
/// graph exactly once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricSpec {
    /// Vertex and edge cover times (`C_V`, `C_E`). Resolves when both are
    /// covered.
    Cover,
    /// Ding–Lee–Peres blanket time `τ_bl(delta)`.
    Blanket {
        /// Required visit fraction `δ ∈ (0, 1)`.
        delta: f64,
    },
    /// Blue/red phase structure: first blue phase length, blue phase
    /// count, total blue steps, and the Observation-10 closure flag.
    /// Resolves at edge cover.
    Phases,
    /// §5 isolated blue star census (count of vertices ever stranded as
    /// star centers). Resolves at vertex cover.
    BlueCensus,
    /// First-visit (hitting) time of one vertex; `None` means the
    /// canonical last vertex `n - 1`.
    Hitting {
        /// Target vertex (`None` = `n - 1`).
        vertex: Option<usize>,
    },
}

impl MetricSpec {
    /// Stable name used in tables, JSON keys and the CLI.
    pub fn label(&self) -> String {
        match self {
            MetricSpec::Cover => "cover".into(),
            MetricSpec::Blanket { delta } => format!("blanket({delta})"),
            MetricSpec::Phases => "phases".into(),
            MetricSpec::BlueCensus => "blue-census".into(),
            MetricSpec::Hitting { vertex: None } => "hitting(last)".into(),
            MetricSpec::Hitting { vertex: Some(v) } => format!("hitting({v})"),
        }
    }

    /// Compact CLI syntax (inverse of [`MetricSpec::parse`]).
    pub fn to_cli(&self) -> String {
        match self {
            MetricSpec::Cover => "cover".into(),
            MetricSpec::Blanket { delta } => format!("blanket:{delta}"),
            MetricSpec::Phases => "phases".into(),
            MetricSpec::BlueCensus => "bluecensus".into(),
            MetricSpec::Hitting { vertex: None } => "hitting".into(),
            MetricSpec::Hitting { vertex: Some(v) } => format!("hitting:{v}"),
        }
    }

    /// Parses `cover`, `blanket[:delta]` (default `0.4`), `phases`,
    /// `bluecensus` (aka `stars`), `hitting[:v]`.
    pub fn parse(s: &str) -> Result<MetricSpec, SpecError> {
        let (kind, args) = match s.split_once(':') {
            Some((k, a)) => (k, a),
            None => (s, ""),
        };
        let no_args = |spec: MetricSpec| -> Result<MetricSpec, SpecError> {
            if args.is_empty() {
                Ok(spec)
            } else {
                Err(SpecError::new(format!(
                    "metric {s:?}: unexpected argument {args:?}"
                )))
            }
        };
        match kind {
            "cover" => no_args(MetricSpec::Cover),
            "blanket" => {
                let delta: f64 = if args.is_empty() {
                    0.4
                } else {
                    args.parse()
                        .map_err(|_| SpecError::new(format!("metric {s:?}: bad delta")))?
                };
                if !(delta > 0.0 && delta < 1.0) {
                    return Err(SpecError::new(format!(
                        "metric {s:?}: delta must be in (0,1)"
                    )));
                }
                Ok(MetricSpec::Blanket { delta })
            }
            "phases" => no_args(MetricSpec::Phases),
            "bluecensus" | "blue-census" | "stars" => no_args(MetricSpec::BlueCensus),
            "hitting" => {
                let vertex = if args.is_empty() {
                    None
                } else {
                    Some(
                        args.parse()
                            .map_err(|_| SpecError::new(format!("metric {s:?}: bad vertex")))?,
                    )
                };
                Ok(MetricSpec::Hitting { vertex })
            }
            other => Err(SpecError::new(format!(
                "unknown metric {other:?} (cover|blanket:<delta>|phases|bluecensus|hitting[:v])"
            ))),
        }
    }

    /// Names of the per-trial scalar columns this metric contributes, in
    /// the order the executor extracts their values.
    pub fn columns(&self) -> Vec<String> {
        match self {
            MetricSpec::Cover => vec!["cover.c_v".into(), "cover.c_e".into()],
            MetricSpec::Blanket { .. } => vec![self.label()],
            MetricSpec::Phases => vec![
                "phases.first_blue".into(),
                "phases.blue_count".into(),
                "phases.total_blue".into(),
                "phases.closed".into(),
            ],
            MetricSpec::BlueCensus => vec!["stars".into()],
            MetricSpec::Hitting { .. } => vec![self.label()],
        }
    }

    /// Builds the observer measuring this metric on `g`.
    pub(crate) fn build_observer<'g>(&self, g: &'g Graph) -> AnyObserver<'g> {
        match *self {
            MetricSpec::Cover => AnyObserver::Cover(CoverObserver::new(CoverTarget::Both)),
            MetricSpec::Blanket { delta } => {
                AnyObserver::Blanket(BlanketObserver::new(delta).expect("spec validated delta"))
            }
            MetricSpec::Phases => AnyObserver::Phases(PhaseObserver::new()),
            MetricSpec::BlueCensus => AnyObserver::BlueCensus(BlueCensusObserver::new(g)),
            MetricSpec::Hitting { vertex } => {
                AnyObserver::Hitting(HittingObserver::new(match vertex {
                    Some(v) => HitTarget::Vertex(v),
                    None => HitTarget::LastVertex,
                }))
            }
        }
    }

    /// Extracts this metric's per-trial scalars (aligned with
    /// [`MetricSpec::columns`]; `None` = unresolved within the cap).
    ///
    /// # Panics
    ///
    /// Panics if `metrics` came from a different observer kind.
    pub(crate) fn values(&self, metrics: &Metrics) -> Vec<Option<f64>> {
        match (self, metrics) {
            (MetricSpec::Cover, Metrics::Cover(c)) => vec![
                c.steps_to_vertex_cover.map(|s| s as f64),
                c.steps_to_edge_cover.map(|s| s as f64),
            ],
            (MetricSpec::Blanket { .. }, Metrics::Blanket(b)) => {
                vec![b.steps_to_blanket.map(|s| s as f64)]
            }
            (MetricSpec::Phases, Metrics::Phases(trace)) => vec![
                Some(trace.first_blue_length() as f64),
                Some(trace.blue_phase_count() as f64),
                Some(trace.total_blue() as f64),
                Some(if trace.blue_phases_closed() { 1.0 } else { 0.0 }),
            ],
            (MetricSpec::BlueCensus, Metrics::BlueCensus(c)) => {
                vec![Some(c.ever_star_centers.len() as f64)]
            }
            (MetricSpec::Hitting { .. }, Metrics::Hitting(h)) => {
                vec![h.steps_to_hit.map(|s| s as f64)]
            }
            (spec, got) => panic!("metric {spec:?} received mismatched metrics {got:?}"),
        }
    }
}

/// Per-trial step cap policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapSpec {
    /// `factor · n ln n` steps — the convention of the `table_*` binaries.
    NLogN(f64),
    /// A fixed step count.
    Absolute(u64),
    /// [`eproc_core::cover::default_step_cap`]: `4n³ + 10⁶`, far above any
    /// connected graph's expected cover time.
    Auto,
}

impl CapSpec {
    /// Compact CLI syntax (inverse of [`CapSpec::parse`]): `auto`,
    /// `nlogn:<factor>` or `abs:<steps>`. The factor renders via
    /// `f64`'s shortest-round-trip formatting, so `parse(to_cli())`
    /// reproduces the value bit for bit.
    pub fn to_cli(&self) -> String {
        match *self {
            CapSpec::NLogN(factor) => format!("nlogn:{factor}"),
            CapSpec::Absolute(cap) => format!("abs:{cap}"),
            CapSpec::Auto => "auto".into(),
        }
    }

    /// Parses `auto`, `nlogn:<factor>` or `abs:<steps>`.
    pub fn parse(s: &str) -> Result<CapSpec, SpecError> {
        match s.split_once(':') {
            None if s == "auto" => Ok(CapSpec::Auto),
            Some(("nlogn", f)) => match f.parse::<f64>() {
                Ok(factor) if factor.is_finite() && factor > 0.0 => Ok(CapSpec::NLogN(factor)),
                _ => Err(SpecError::new(format!(
                    "cap {s:?}: factor must be a positive number"
                ))),
            },
            Some(("abs", n)) => n.parse().map(CapSpec::Absolute).map_err(|_| {
                SpecError::new(format!("cap {s:?}: step count must be an unsigned integer"))
            }),
            _ => Err(SpecError::new(format!(
                "unknown cap {s:?} (auto|nlogn:<factor>|abs:<steps>)"
            ))),
        }
    }

    /// Resolves the cap for a concrete graph.
    pub fn resolve(&self, g: &Graph) -> u64 {
        match *self {
            CapSpec::NLogN(factor) => {
                let n = g.n().max(2) as f64;
                (factor * n * n.ln()).ceil() as u64
            }
            CapSpec::Absolute(cap) => cap,
            CapSpec::Auto => eproc_core::cover::default_step_cap(g),
        }
    }
}

/// Per-trial graph resampling for randomized families.
///
/// Without a plan the executor builds **one** graph per family and runs
/// every trial on it, so cell statistics mix within-graph walk variance
/// with nothing — the graph is a constant. The paper's Theorem 1 and the
/// related ensemble results (Cooper–Frieze–Johansson's random cubic cover
/// time, Johansson's odd-degree random regular graphs) are statements
/// **whp over the random graph**, so replicating them faithfully needs a
/// fresh sample per trial. With a plan, each group of `walks_per_graph`
/// consecutive trials of a cell shares one freshly sampled graph (keyed
/// by `(family, group)` [`eproc_stats::SeedSequence`] coordinates, shared
/// across the cell's processes so process comparisons stay paired), and
/// the report splits every column's variance into pooled, across-graph
/// and within-graph components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResamplePlan {
    /// Consecutive trials sharing one sampled graph (`>= 1`). `1` gives
    /// every trial its own graph (pure resampling; the within-graph
    /// component is then inestimable and reported as `null`); `>= 2`
    /// estimates both variance components.
    pub walks_per_graph: usize,
}

impl ResamplePlan {
    /// The default plan: one fresh graph per trial.
    pub fn per_trial() -> ResamplePlan {
        ResamplePlan { walks_per_graph: 1 }
    }

    /// Number of graph samples needed for `trials` trials per cell.
    pub fn groups(&self, trials: usize) -> usize {
        trials.div_ceil(self.walks_per_graph.max(1))
    }
}

/// A complete declarative experiment: run `trials` independent walks for
/// every (graph, process) pair and aggregate steps-to-target statistics
/// plus any extra [`MetricSpec`] columns — all measured from **one** walk
/// per trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Short identifier (used for artifact file names).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Graph grid.
    pub graphs: Vec<GraphSpec>,
    /// Process grid.
    pub processes: Vec<ProcessSpec>,
    /// Independent trials per (graph, process) cell.
    pub trials: usize,
    /// Stopping target measured per trial.
    pub target: Target,
    /// Extra metrics measured per trial by observers on the same walk.
    /// The trial runs until the target **and** every metric resolve (or
    /// the cap).
    pub metrics: Vec<MetricSpec>,
    /// Start vertex of every trial (must exist in every graph).
    pub start: Vertex,
    /// Per-trial step cap.
    pub cap: CapSpec,
    /// Per-trial graph resampling (`None` = share one graph per family,
    /// the legacy mode; artifacts are unchanged byte for byte).
    pub resample: Option<ResamplePlan>,
}

impl ExperimentSpec {
    /// Total number of trials the executor will run.
    pub fn total_jobs(&self) -> usize {
        self.graphs.len() * self.processes.len() * self.trials
    }

    /// Flattened names of all metric columns, in grid order.
    pub fn metric_columns(&self) -> Vec<String> {
        self.metrics.iter().flat_map(|m| m.columns()).collect()
    }

    /// Validates the spec before execution. Infeasible graph families
    /// (see [`GraphSpec::validate`]) fail here, before anything is built
    /// or any worker starts.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.graphs.is_empty() {
            return Err(SpecError::new("spec has no graphs"));
        }
        if self.processes.is_empty() {
            return Err(SpecError::new("spec has no processes"));
        }
        if self.trials == 0 {
            return Err(SpecError::new("spec has zero trials"));
        }
        for gs in &self.graphs {
            gs.validate()?;
        }
        if let Some(plan) = self.resample {
            if plan.walks_per_graph == 0 {
                return Err(SpecError::new(
                    "resample walks_per_graph must be at least 1",
                ));
            }
            // Resampling a purely deterministic grid regenerates identical
            // graphs and dresses walk noise up as across-graph spread —
            // reject it. Mixed grids are allowed: the randomized families
            // genuinely resample, and a deterministic cell's across-graph
            // component honestly reads ~0.
            if !self.graphs.iter().any(GraphSpec::is_randomized) {
                return Err(SpecError::new(
                    "resampling needs at least one randomized graph family \
                     (regular or geometric): deterministic families regenerate \
                     the identical graph every group",
                ));
            }
        }
        if let Target::Blanket { delta } = self.target {
            if !(delta > 0.0 && delta < 1.0) {
                return Err(SpecError::new(format!(
                    "blanket delta {delta} outside (0,1)"
                )));
            }
        }
        for (i, metric) in self.metrics.iter().enumerate() {
            if let MetricSpec::Blanket { delta } = metric {
                if !(*delta > 0.0 && *delta < 1.0) {
                    return Err(SpecError::new(format!(
                        "metric blanket delta {delta} outside (0,1)"
                    )));
                }
            }
            if self.metrics[..i].contains(metric) {
                return Err(SpecError::new(format!(
                    "duplicate metric {:?} (columns would collide)",
                    metric.label()
                )));
            }
        }
        Ok(())
    }

    /// Renders the spec's structure as one CLI-flag line (inverse of
    /// [`ExperimentSpec::parse_cli`]): one `--graph`/`--process`/
    /// `--metrics` token per grid entry **in the receiver's order**,
    /// followed by `--trials`, `--target`, `--start`, `--cap` and (when
    /// resampling) `--resample <W>`, all explicit. `name` and
    /// `description` are not rendered — in the normal form they are
    /// derived from this line, not inputs to it.
    ///
    /// The *canonical* line of an experiment is
    /// `self.canonicalize().to_cli()`; on a canonical spec this method
    /// is the fixed-point side of `parse(to_cli(canonicalize(s)))`.
    pub fn to_cli(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for g in &self.graphs {
            parts.push(format!("--graph {}", g.to_cli()));
        }
        for p in &self.processes {
            parts.push(format!("--process {}", p.to_cli()));
        }
        parts.push(format!("--trials {}", self.trials));
        parts.push(format!("--target {}", self.target.to_cli()));
        for m in &self.metrics {
            parts.push(format!("--metrics {}", m.to_cli()));
        }
        parts.push(format!("--start {}", self.start));
        parts.push(format!("--cap {}", self.cap.to_cli()));
        if let Some(plan) = self.resample {
            parts.push(format!("--resample {}", plan.walks_per_graph));
        }
        parts.join(" ")
    }

    /// Parses a whitespace-separated spec line of [`ExperimentSpec::to_cli`]
    /// flags and returns the **canonical** spec it denotes (grids
    /// sorted, defaults materialized, `name`/`description` derived from
    /// content — see [`ExperimentSpec::canonicalize`]).
    ///
    /// Accepted flags: `--graph` (repeatable; `;`-packed), `--process`/
    /// `--processes` (repeatable; `,`-packed), `--metrics` (repeatable;
    /// `,`-packed), `--trials`, `--target`, `--start`, `--cap`,
    /// `--resample <W>`. Omitted fields take the `compare` defaults
    /// (5 trials, `vertex` target, start 0, `auto` cap, no resampling).
    /// Resample `~` markers and sweep ranges are rejected: a canonical
    /// line carries explicit `--resample` and concrete sizes.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on unknown flags, missing or malformed values,
    /// positional tokens, or an empty graph/process grid.
    pub fn parse_cli(line: &str) -> Result<ExperimentSpec, SpecError> {
        use crate::cli::{parse_args, Arity, FlagDef};
        const TABLE: &[FlagDef] = &[
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
                name: "--trials",
                aliases: &[],
                arity: Arity::Value("a trial count"),
            },
            FlagDef {
                name: "--target",
                aliases: &[],
                arity: Arity::Value("a target"),
            },
            FlagDef {
                name: "--metrics",
                aliases: &[],
                arity: Arity::Value("a metric list"),
            },
            FlagDef {
                name: "--start",
                aliases: &[],
                arity: Arity::Value("a start vertex"),
            },
            FlagDef {
                name: "--cap",
                aliases: &[],
                arity: Arity::Value("auto|nlogn:<factor>|abs:<steps>"),
            },
            FlagDef {
                name: "--resample",
                aliases: &[],
                arity: Arity::Value("a walks-per-graph count"),
            },
        ];
        const ACCEPTS: &[&str] = &[
            "--graph",
            "--process",
            "--trials",
            "--target",
            "--metrics",
            "--start",
            "--cap",
            "--resample",
        ];
        let parsed = parse_args(
            "spec",
            TABLE,
            ACCEPTS,
            line.split_whitespace().map(String::from),
        )
        .map_err(|e| SpecError::new(e.to_string()))?;
        if let Some(tok) = parsed.positionals.first() {
            return Err(SpecError::new(format!(
                "spec line: unexpected token {tok:?} (flags only)"
            )));
        }
        let mut spec = ExperimentSpec {
            name: String::new(),
            description: String::new(),
            graphs: Vec::new(),
            processes: Vec::new(),
            trials: 5,
            target: Target::VertexCover,
            metrics: Vec::new(),
            start: 0,
            cap: CapSpec::Auto,
            resample: None,
        };
        let expects = |flag: &str, what: &str, got: &str| {
            SpecError::new(format!("flag `{flag}` expects {what}, got {got:?}"))
        };
        for (flag, value) in &parsed.flags {
            let v = value
                .as_deref()
                .expect("every spec-line flag takes a value");
            match *flag {
                "--graph" => {
                    for part in v.split(';') {
                        spec.graphs.push(GraphSpec::parse(part)?);
                    }
                }
                "--process" => {
                    for part in v.split(',') {
                        spec.processes.push(ProcessSpec::parse(part)?);
                    }
                }
                "--metrics" => {
                    for part in v.split(',') {
                        spec.metrics.push(MetricSpec::parse(part)?);
                    }
                }
                "--trials" => {
                    spec.trials = match v.parse() {
                        Ok(t) if t >= 1 => t,
                        _ => return Err(expects("--trials", "an integer of at least 1", v)),
                    };
                }
                "--target" => spec.target = Target::parse(v)?,
                "--start" => {
                    spec.start = v
                        .parse()
                        .map_err(|_| expects("--start", "a vertex index", v))?;
                }
                "--cap" => spec.cap = CapSpec::parse(v)?,
                "--resample" => {
                    let walks = match v.parse() {
                        Ok(w) if w >= 1 => w,
                        _ => return Err(expects("--resample", "an integer of at least 1", v)),
                    };
                    spec.resample = Some(ResamplePlan {
                        walks_per_graph: walks,
                    });
                }
                other => unreachable!("unaccepted flag {other} passed the table"),
            }
        }
        if spec.graphs.is_empty() {
            return Err(SpecError::new("spec line has no --graph"));
        }
        if spec.processes.is_empty() {
            return Err(SpecError::new("spec line has no --process"));
        }
        Ok(spec.canonicalize())
    }

    /// The unique normal form of this experiment, the fixed point of
    /// `parse_cli ∘ to_cli`:
    ///
    /// - **graphs** sorted by `(family label, vertex count, spelling)`
    ///   — spelling-independent, and sweeps stay in ascending size
    ///   order within a family;
    /// - **processes** and **metrics** sorted by their `to_cli`
    ///   spelling;
    /// - **`name`** derived from the content
    ///   ([`crate::digest::content_name`]: `spec-<12 hex of the
    ///   canonical line's SHA-256>`), and **`description`** set to the
    ///   canonical line itself, so two spellings of the same experiment
    ///   are `==` after canonicalization and artifacts are
    ///   self-describing.
    ///
    /// Duplicates are **not** removed: grid entries are seeded by
    /// position, so a repeated family is a genuine second sample, not
    /// a redundant one.
    ///
    /// Canonicalization changes grid *order*, and the executor derives
    /// every seed from grid indices — so the canonical spec generally
    /// computes different bytes than a differently-ordered spelling.
    /// Callers that key artifacts by [`crate::digest::SpecDigest`]
    /// (the `--cache` path) must therefore execute the canonical form,
    /// which is exactly what the CLI does.
    pub fn canonicalize(&self) -> ExperimentSpec {
        let mut c = self.clone();
        c.graphs.sort_by_key(|g| {
            (
                g.family_label(),
                g.vertex_count().unwrap_or(usize::MAX),
                g.to_cli(),
            )
        });
        c.processes.sort_by_key(ProcessSpec::to_cli);
        c.metrics.sort_by_key(MetricSpec::to_cli);
        let line = c.to_cli();
        c.name = crate::digest::content_name(&line);
        c.description = line;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eproc_graphs::properties::connectivity;

    #[test]
    fn graph_spec_parse_round_trips() {
        for s in [
            "regular:128,4",
            "lps:5,13",
            "geometric:500,1.5",
            "hypercube:6",
            "torus:8,8",
            "cycle:32",
            "complete:9",
            "lollipop:16,8",
            "petersen",
            "figure8:7",
        ] {
            let spec = GraphSpec::parse(s).unwrap();
            assert_eq!(
                GraphSpec::parse(&spec.to_cli()).unwrap(),
                spec,
                "round trip {s}"
            );
        }
    }

    #[test]
    fn graph_spec_rejects_junk() {
        assert!(GraphSpec::parse("regular").is_err());
        assert!(GraphSpec::parse("regular:10").is_err());
        assert!(GraphSpec::parse("blorp:3").is_err());
        assert!(GraphSpec::parse("torus:4,x").is_err());
    }

    #[test]
    fn graph_spec_rejects_trailing_arguments() {
        // Trailing junk used to parse fine — every extra token must now be
        // rejected, and the error must name the offending token.
        let err = GraphSpec::parse("regular:100,3,junk").unwrap_err();
        assert!(err.to_string().contains("\"junk\""), "{err}");
        assert!(GraphSpec::parse("petersen:5").is_err());
        assert!(GraphSpec::parse("cycle:10,11").is_err());
        assert!(GraphSpec::parse("hypercube:6,7").is_err());
        assert!(GraphSpec::parse("geometric:100,1.5,x").is_err());
        assert!(GraphSpec::parse("lps:5,13,17").is_err());
        let err = GraphSpec::parse("torus:4,x").unwrap_err();
        assert!(err.to_string().contains("\"x\""), "{err}");
    }

    #[test]
    fn lps_params_parse_as_genuine_u64() {
        // Values above u32 must survive; parsing must not round-trip
        // through a narrower type.
        let spec = GraphSpec::parse("lps:4294967311,13").unwrap();
        assert_eq!(
            spec,
            GraphSpec::Lps {
                p: 4_294_967_311,
                q: 13
            }
        );
        let err = GraphSpec::parse("lps:-5,13").unwrap_err();
        assert!(err.to_string().contains("\"-5\""), "{err}");
    }

    #[test]
    fn resample_marker_parses_only_where_accepted() {
        let (spec, resample) = GraphSpec::parse_with_resample("regular:~1000,4").unwrap();
        assert_eq!(spec, GraphSpec::Regular { n: 1000, d: 4 });
        assert!(resample);
        let (spec, resample) = GraphSpec::parse_with_resample("regular:1000,4").unwrap();
        assert_eq!(spec, GraphSpec::Regular { n: 1000, d: 4 });
        assert!(!resample);
        // Plain parse sites have no resample dimension: reject the marker.
        assert!(GraphSpec::parse("regular:~1000,4").is_err());
    }

    #[test]
    fn process_and_metric_specs_reject_stray_arguments() {
        assert!(ProcessSpec::parse("srw:junk").is_err());
        assert!(ProcessSpec::parse("rotor:1").is_err());
        assert!(ProcessSpec::parse("vprocess:x").is_err());
        assert!(MetricSpec::parse("cover:junk").is_err());
        assert!(MetricSpec::parse("phases:2").is_err());
        assert!(MetricSpec::parse("bluecensus:0").is_err());
    }

    #[test]
    fn graph_spec_validation_catches_infeasible_families() {
        assert!(GraphSpec::Regular { n: 100, d: 4 }.validate().is_ok());
        assert!(GraphSpec::Regular { n: 3, d: 2 }.validate().is_ok());
        // d = 0 / n = 0: no spinning through generator restarts, a
        // first-class SpecError instead.
        assert!(GraphSpec::Regular { n: 0, d: 4 }.validate().is_err());
        assert!(GraphSpec::Regular { n: 10, d: 0 }.validate().is_err());
        assert!(GraphSpec::Regular { n: 10, d: 1 }.validate().is_err());
        assert!(GraphSpec::Regular { n: 4, d: 4 }.validate().is_err());
        assert!(
            GraphSpec::Regular { n: 5, d: 3 }.validate().is_err(),
            "odd n*d"
        );
        assert!(GraphSpec::Geometric {
            n: 100,
            radius_factor: 1.5
        }
        .validate()
        .is_ok());
        assert!(GraphSpec::Geometric {
            n: 0,
            radius_factor: 1.5
        }
        .validate()
        .is_err());
        assert!(GraphSpec::Geometric {
            n: 100,
            radius_factor: 0.0
        }
        .validate()
        .is_err());
        assert!(GraphSpec::Geometric {
            n: 100,
            radius_factor: f64::NAN
        }
        .validate()
        .is_err());
        assert!(GraphSpec::Cycle { n: 2 }.validate().is_err());
        assert!(GraphSpec::Torus { w: 1, h: 5 }.validate().is_err());
        assert!(GraphSpec::Hypercube { dim: 0 }.validate().is_err());
        assert!(GraphSpec::Petersen.validate().is_ok());
    }

    #[test]
    fn vertex_count_matches_built_graphs() {
        for s in [
            "regular:64,4",
            "lps:5,13",
            "geometric:80,1.5",
            "hypercube:5",
            "torus:4,6",
            "cycle:9",
            "complete:7",
            "lollipop:5,4",
            "petersen",
            "figure8:6",
        ] {
            let spec = GraphSpec::parse(s).unwrap();
            assert_eq!(
                spec.build(3).unwrap().n(),
                spec.vertex_count().unwrap(),
                "{s}"
            );
        }
        assert!(GraphSpec::Lps { p: 6, q: 13 }.vertex_count().is_err());
        // Invalid-but-parseable degenerate sizes must not underflow.
        assert_eq!(GraphSpec::FigureEight { len: 0 }.vertex_count().unwrap(), 0);
    }

    #[test]
    fn randomized_families_are_flagged() {
        assert!(GraphSpec::Regular { n: 10, d: 4 }.is_randomized());
        assert!(GraphSpec::Geometric {
            n: 10,
            radius_factor: 1.5
        }
        .is_randomized());
        assert!(!GraphSpec::Petersen.is_randomized());
        assert!(!GraphSpec::Hypercube { dim: 4 }.is_randomized());
    }

    #[test]
    fn process_spec_parse_round_trips() {
        for s in [
            "eprocess",
            "eprocess:first-port",
            "eprocess:spiteful",
            "srw",
            "lazy",
            "weighted",
            "rotor",
            "rwc:3",
            "oldest",
            "leastused",
            "vprocess",
        ] {
            let spec = ProcessSpec::parse(s).unwrap();
            assert_eq!(
                ProcessSpec::parse(&spec.to_cli()).unwrap(),
                spec,
                "round trip {s}"
            );
        }
        assert!(ProcessSpec::parse("quantum-walk").is_err());
    }

    #[test]
    fn target_parse() {
        assert_eq!(Target::parse("vertex").unwrap(), Target::VertexCover);
        assert_eq!(Target::parse("edge").unwrap(), Target::EdgeCover);
        assert_eq!(Target::parse("both").unwrap(), Target::BothCover);
        assert_eq!(
            Target::parse("blanket:0.3").unwrap(),
            Target::Blanket { delta: 0.3 }
        );
        assert!(Target::parse("blanket:1.5").is_err());
        assert!(Target::parse("nope").is_err());
    }

    #[test]
    fn target_to_cli_round_trips_exactly() {
        for t in [
            Target::VertexCover,
            Target::EdgeCover,
            Target::BothCover,
            Target::Blanket { delta: 0.4 },
            Target::Blanket {
                delta: 0.123456789012345,
            },
        ] {
            assert_eq!(Target::parse(&t.to_cli()).unwrap(), t, "{}", t.to_cli());
        }
    }

    #[test]
    fn deterministic_graph_build() {
        let spec = GraphSpec::Regular { n: 64, d: 4 };
        let a = spec.build(7).unwrap();
        let b = spec.build(7).unwrap();
        assert_eq!(a.edge_list(), b.edge_list());
        let c = spec.build(8).unwrap();
        assert_ne!(a.edge_list(), c.edge_list());
    }

    #[test]
    fn geometric_build_is_connected_and_deterministic() {
        let spec = GraphSpec::Geometric {
            n: 80,
            radius_factor: 1.5,
        };
        let a = spec.build(3).unwrap();
        let b = spec.build(3).unwrap();
        assert_eq!(a.edge_list(), b.edge_list());
        assert!(connectivity::is_connected(&a));
    }

    #[test]
    fn every_process_spec_builds_and_steps() {
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        let specs = [
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::EProcess {
                rule: RuleSpec::FirstPort,
            },
            ProcessSpec::EProcess {
                rule: RuleSpec::LastPort,
            },
            ProcessSpec::EProcess {
                rule: RuleSpec::RoundRobin,
            },
            ProcessSpec::EProcess {
                rule: RuleSpec::GreedyAdversary,
            },
            ProcessSpec::EProcess {
                rule: RuleSpec::Spiteful,
            },
            ProcessSpec::Srw,
            ProcessSpec::LazySrw,
            ProcessSpec::WeightedSrw,
            ProcessSpec::RotorRouter,
            ProcessSpec::Rwc { d: 2 },
            ProcessSpec::OldestFirst,
            ProcessSpec::LeastUsedFirst,
            ProcessSpec::VProcess,
        ];
        for spec in &specs {
            let mut walk = spec.build(&g, 0);
            for _ in 0..50 {
                let step = walk.advance(&mut rng);
                assert!(step.to < g.n(), "{} stepped out of range", spec.label());
            }
            assert_eq!(walk.steps(), 50);
        }
    }

    #[test]
    fn cap_resolution() {
        let g = generators::cycle(100);
        let cap = CapSpec::NLogN(2.0).resolve(&g);
        assert_eq!(cap, (2.0 * 100.0 * 100.0f64.ln()).ceil() as u64);
        assert_eq!(CapSpec::Absolute(42).resolve(&g), 42);
        assert!(CapSpec::Auto.resolve(&g) >= 4 * 100 * 100 * 100);
    }

    #[test]
    fn spec_validation() {
        let mut spec = ExperimentSpec {
            name: "t".into(),
            description: String::new(),
            graphs: vec![GraphSpec::Cycle { n: 8 }],
            processes: vec![ProcessSpec::Srw],
            trials: 2,
            target: Target::VertexCover,
            metrics: vec![],
            start: 0,
            cap: CapSpec::Auto,
            resample: None,
        };
        assert!(spec.validate().is_ok());
        assert_eq!(spec.total_jobs(), 2);
        spec.trials = 0;
        assert!(spec.validate().is_err());
        spec.trials = 2;
        spec.metrics = vec![MetricSpec::Phases, MetricSpec::Phases];
        assert!(
            spec.validate().is_err(),
            "duplicate metrics must be rejected"
        );
        spec.metrics = vec![MetricSpec::Blanket { delta: 1.5 }];
        assert!(
            spec.validate().is_err(),
            "bad metric delta must be rejected"
        );
        spec.metrics = vec![];
        spec.graphs = vec![GraphSpec::Regular { n: 10, d: 0 }];
        assert!(
            spec.validate().is_err(),
            "infeasible graph family must fail at validation time"
        );
        spec.graphs = vec![GraphSpec::Regular { n: 16, d: 4 }];
        spec.resample = Some(ResamplePlan { walks_per_graph: 0 });
        assert!(spec.validate().is_err(), "zero walks per graph is invalid");
        spec.resample = Some(ResamplePlan::per_trial());
        assert!(spec.validate().is_ok());
        spec.graphs = vec![GraphSpec::Cycle { n: 8 }];
        assert!(
            spec.validate().is_err(),
            "resampling a purely deterministic grid must be rejected"
        );
        spec.graphs = vec![
            GraphSpec::Cycle { n: 8 },
            GraphSpec::Regular { n: 16, d: 4 },
        ];
        assert!(spec.validate().is_ok(), "mixed grids may resample");
    }

    #[test]
    fn resample_plan_group_arithmetic() {
        let plan = ResamplePlan::per_trial();
        assert_eq!(plan.groups(5), 5);
        let plan = ResamplePlan { walks_per_graph: 2 };
        assert_eq!(plan.groups(6), 3);
        assert_eq!(plan.groups(5), 3, "last group may be smaller");
        assert_eq!(plan.groups(0), 0);
    }

    #[test]
    fn metric_spec_parse_round_trips() {
        for s in [
            "cover",
            "blanket:0.5",
            "phases",
            "bluecensus",
            "hitting",
            "hitting:7",
        ] {
            let m = MetricSpec::parse(s).unwrap();
            assert_eq!(MetricSpec::parse(&m.to_cli()).unwrap(), m, "round trip {s}");
            assert!(!m.columns().is_empty());
            assert!(!m.label().is_empty());
        }
        assert_eq!(
            MetricSpec::parse("blanket").unwrap(),
            MetricSpec::Blanket { delta: 0.4 }
        );
        assert_eq!(MetricSpec::parse("stars").unwrap(), MetricSpec::BlueCensus);
        assert!(MetricSpec::parse("blanket:2.0").is_err());
        assert!(MetricSpec::parse("hitting:x").is_err());
        assert!(MetricSpec::parse("entropy").is_err());
    }

    #[test]
    fn metric_columns_flatten_in_order() {
        let spec = ExperimentSpec {
            name: "m".into(),
            description: String::new(),
            graphs: vec![GraphSpec::Cycle { n: 8 }],
            processes: vec![ProcessSpec::Srw],
            trials: 1,
            target: Target::VertexCover,
            metrics: vec![
                MetricSpec::Cover,
                MetricSpec::Blanket { delta: 0.4 },
                MetricSpec::Hitting { vertex: None },
            ],
            start: 0,
            cap: CapSpec::Auto,
            resample: None,
        };
        assert_eq!(
            spec.metric_columns(),
            vec!["cover.c_v", "cover.c_e", "blanket(0.4)", "hitting(last)"]
        );
    }

    #[test]
    fn sweep_range_parses_and_expands() {
        let r = SweepRange::parse("1k..256k,x2").unwrap();
        assert_eq!(
            r,
            SweepRange {
                start: 1_000,
                end: 256_000,
                step: SweepStep::Factor(2)
            }
        );
        assert_eq!(r.points().unwrap().len(), 9); // 1k, 2k, …, 256k
        assert_eq!(r.points().unwrap()[8], 256_000);
        // `n=` prefix (the --sweep flag form) and suffix-free sizes.
        assert_eq!(SweepRange::parse("n=1000..256000,x2").unwrap(), r);
        // Default step is x2.
        assert_eq!(
            SweepRange::parse("100..400").unwrap().points().unwrap(),
            vec![100, 200, 400]
        );
        // Stride sweeps.
        assert_eq!(
            SweepRange::parse("100..350,+100")
                .unwrap()
                .points()
                .unwrap(),
            vec![100, 200, 300]
        );
        // The end is an inclusive bound, not necessarily a point.
        assert_eq!(
            SweepRange::parse("10..70,x2").unwrap().points().unwrap(),
            vec![10, 20, 40]
        );
        // m suffix.
        assert_eq!(SweepRange::parse("1m..2m,x2").unwrap().start, 1_000_000);
    }

    #[test]
    fn sweep_range_round_trips_through_cli_syntax() {
        for s in ["1k..256k,x2", "100..350,+100", "7..7,x3", "2..64,x4"] {
            let r = SweepRange::parse(s).unwrap();
            assert_eq!(SweepRange::parse(&r.to_cli()).unwrap(), r, "round trip {s}");
        }
    }

    #[test]
    fn sweep_range_rejects_degenerate_input() {
        for bad in [
            "",                               // empty
            "n=",                             // empty after prefix
            "100",                            // no `..`
            "200..100",                       // descending
            "0..100",                         // zero start
            "10..100,x1",                     // non-advancing factor
            "10..100,x0",                     // zero factor
            "10..100,+0",                     // zero stride
            "10..100,y3",                     // unknown step kind
            "a..100",                         // junk size
            "1..1000000,+1",                  // > MAX_SWEEP_POINTS sizes
            "99999999999999999999999999..1k", // overflowing literal
            "10m..20m,x2k",                   // ok factor? 2k=2000 factor fine — see below
        ] {
            // `10m..20m,x2k` actually parses (factor 2000, one point);
            // treat it as the one allowed entry and skip it.
            if bad == "10m..20m,x2k" {
                assert!(SweepRange::parse(bad).is_ok());
                continue;
            }
            assert!(SweepRange::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn graph_spec_sweep_expansion() {
        let (specs, resample, range) =
            GraphSpec::parse_with_sweep("regular:~{500..4k,x2},4").unwrap();
        assert!(resample);
        assert_eq!(
            range.unwrap().points().unwrap(),
            vec![500, 1000, 2000, 4000]
        );
        assert_eq!(
            specs,
            vec![
                GraphSpec::Regular { n: 500, d: 4 },
                GraphSpec::Regular { n: 1000, d: 4 },
                GraphSpec::Regular { n: 2000, d: 4 },
                GraphSpec::Regular { n: 4000, d: 4 },
            ]
        );
        // Sweep-free specs pass through unchanged.
        let (specs, resample, range) = GraphSpec::parse_with_sweep("torus:8,8").unwrap();
        assert_eq!(specs, vec![GraphSpec::Torus { w: 8, h: 8 }]);
        assert!(!resample);
        assert!(range.is_none());
        // Sweeping a non-size argument still parses per instantiation
        // (hypercube dim sweep) — the grammar is positional.
        let (specs, _, _) = GraphSpec::parse_with_sweep("hypercube:{3..5,+1}").unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[2], GraphSpec::Hypercube { dim: 5 });
    }

    #[test]
    fn graph_spec_sweep_rejects_malformed_ranges() {
        assert!(GraphSpec::parse_with_sweep("regular:{500..100,x2},4").is_err());
        assert!(GraphSpec::parse_with_sweep("regular:{500..1k,x2,4").is_err()); // unclosed
        assert!(GraphSpec::parse_with_sweep("regular:{1..2},{3..4}").is_err()); // two ranges
        assert!(GraphSpec::parse_with_sweep("regular:{},4").is_err()); // empty
        assert!(GraphSpec::parse_with_sweep("regular:{1k..2k,x2}").is_err()); // missing d
    }

    #[test]
    fn with_primary_size_resizes_sweepable_families() {
        assert_eq!(
            GraphSpec::Regular { n: 10, d: 4 }
                .with_primary_size(64)
                .unwrap(),
            GraphSpec::Regular { n: 64, d: 4 }
        );
        assert_eq!(
            GraphSpec::Geometric {
                n: 10,
                radius_factor: 1.5
            }
            .with_primary_size(64)
            .unwrap(),
            GraphSpec::Geometric {
                n: 64,
                radius_factor: 1.5
            }
        );
        assert_eq!(
            GraphSpec::Cycle { n: 3 }.with_primary_size(9).unwrap(),
            GraphSpec::Cycle { n: 9 }
        );
        assert!(GraphSpec::Petersen.with_primary_size(10).is_err());
        assert!(GraphSpec::Torus { w: 3, h: 3 }
            .with_primary_size(10)
            .is_err());
    }
}
