//! The E-process (edge-process) engine.
//!
//! §1 of the paper: *"Initially all edges of `G` are marked as unvisited. At
//! each step the edge-process makes a transition to a neighbour of the
//! currently occupied vertex as follows: If there are unvisited edges
//! incident with the current vertex pick one, make a transition along this
//! edge and mark the edge as visited. If there are no unvisited edges
//! incident with the current vertex, move to a u.a.r. neighbour using a
//! simple random walk. We assume there is a rule `A`, which tells the walk
//! how to choose among unvisited edges."*
//!
//! # Walk-native state: a `u16` live prefix per vertex
//!
//! The engine keeps, per vertex `v` of degree `d`, one state row of `2d`
//! `u16` words laid out next to `v`'s CSR position (word `2·arc_range(v).start`):
//!
//! ```text
//! [ perm[0] … perm[d-1] | pos[0] … pos[d-1] ]
//!   └ live prefix ┘
//! ```
//!
//! `perm` is a permutation of `v`'s local ports (see
//! [`eproc_graphs::csr`]) whose first `live[v]` entries are the unvisited
//! (blue) ports, and `pos[p]` is the slot of local port `p` in `perm`; a
//! separate `u16` array holds `live[v]`, the blue degree. Marking an edge
//! visited swaps its port out of the live prefix at *both* endpoints in
//! `O(1)`, and choosing among unvisited edges indexes the prefix
//! directly, so each step is `O(1)` plus whatever the rule costs. Keeping
//! `perm` and `pos` as the two halves of one row (rather than interleaved
//! pairs) costs the same bytes and cache lines, and lets rule `A` see the
//! live prefix as a plain `&[u16]` ([`RuleContext::live_ports`]).
//!
//! A step reads `live[v]`, the chosen `perm` slot, and the arc's
//! [`Port`](eproc_graphs::Port) record `{ target, edge, twin }`. The
//! record's `twin` — the reverse arc's local port at the target — locates
//! the edge in the target's row, so unlinking touches only `v`'s row and
//! the target's row, which the next step reads anyway; nothing is looked
//! up through edge-indexed or arc-indexed tables at random addresses.
//! Before unlinking, the step requests the target's port row, so the
//! next step's record fetch overlaps this step's wait on the target's
//! state row instead of following it.
//!
//! Per vertex of a `d`-regular graph one walk's state costs `4d + 2`
//! bytes of rows and live counts plus `d/16` bytes of visited-edge bitmap:
//! 18.25 bytes for `d = 4` (4.7 MB at `n = 256k`), against 52.25 for the
//! former `usize` slot / `u32` position / `u32` live arrays indexed by
//! global arc id. Local ports are `u16`, so [`EProcess::new`] rejects
//! graphs with a vertex of degree above `u16::MAX`.

pub mod rule;

use crate::bitset::BitSet;
use crate::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{EdgeId, Graph, Vertex};
use rand::{Rng, RngCore};
use rule::{EdgeRule, RuleContext, UniformRule};

/// The E-process: a walk preferring unvisited edges, with pluggable rule
/// `A` for choosing among them.
///
/// See the [module documentation](self) for the definition. With
/// [`UniformRule`] this is exactly the *greedy random walk* of
/// Orenshtein–Shinkar (reference \[13\] of the paper) — the alias
/// [`GreedyRandomWalk`] is provided for that reading.
#[derive(Debug, Clone)]
pub struct EProcess<'g, A> {
    g: &'g Graph,
    rule: A,
    current: Vertex,
    start: Vertex,
    steps: u64,
    blue_steps: u64,
    red_steps: u64,
    visited_edge: BitSet,
    unvisited_edges: usize,
    /// Per-vertex `[perm | pos]` rows of local ports (see the [module
    /// documentation](self)); `v`'s row starts at word `2 * arc_range(v).start`.
    rows: Vec<u16>,
    /// Number of unvisited ports at each vertex (= blue degree).
    live: Vec<u16>,
}

/// The greedy random walk of Orenshtein–Shinkar: the E-process whose rule
/// `A` picks an unvisited edge uniformly at random.
pub type GreedyRandomWalk<'g> = EProcess<'g, UniformRule>;

impl<'g, A: EdgeRule> EProcess<'g, A> {
    /// Creates an E-process at `start` with all edges unvisited.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`, or if some vertex has degree above
    /// `u16::MAX` (local ports are stored as `u16`).
    pub fn new(g: &'g Graph, start: Vertex, rule: A) -> EProcess<'g, A> {
        assert!(start < g.n(), "start vertex {start} out of range");
        let mut rows = vec![0u16; 4 * g.m()];
        let mut live = vec![0u16; g.n()];
        fill_fresh(g, &mut rows, &mut live);
        EProcess {
            g,
            rule,
            current: start,
            start,
            steps: 0,
            blue_steps: 0,
            red_steps: 0,
            visited_edge: BitSet::with_len(g.m()),
            unvisited_edges: g.m(),
            rows,
            live,
        }
    }

    /// The start vertex.
    pub fn start(&self) -> Vertex {
        self.start
    }

    /// Number of blue (unvisited-edge) transitions so far — `t_B` in
    /// Observation 12, which guarantees `t_B <= m`.
    pub fn blue_steps(&self) -> u64 {
        self.blue_steps
    }

    /// Number of red (random-walk) transitions so far — `t_R`.
    pub fn red_steps(&self) -> u64 {
        self.red_steps
    }

    /// `true` if edge `e` has been traversed.
    ///
    /// # Panics
    ///
    /// Panics if `e >= g.m()`.
    pub fn edge_visited(&self, e: EdgeId) -> bool {
        self.visited_edge.get(e)
    }

    /// The per-edge visited bitmap (red edges are `true`), word-packed so
    /// that per-trial resets touch `m / 64` words. The [`crate::blue`]
    /// analytics consume it directly.
    pub fn visited_edges(&self) -> &BitSet {
        &self.visited_edge
    }

    /// Number of still-unvisited (blue) edges.
    pub fn unvisited_edge_count(&self) -> usize {
        self.unvisited_edges
    }

    /// Blue degree of `v`: the number of unvisited edges incident with it.
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    pub fn blue_degree(&self, v: Vertex) -> usize {
        self.live[v] as usize
    }

    /// `true` if the next transition will be blue (the current vertex has
    /// unvisited incident edges).
    pub fn in_blue_phase(&self) -> bool {
        self.live[self.current] > 0
    }

    /// The unvisited local ports at the current vertex (what rule `A`
    /// sees as [`RuleContext::live_ports`]).
    pub fn live_ports(&self) -> &[u16] {
        let row = 2 * self.g.arc_range(self.current).start;
        &self.rows[row..row + self.live[self.current] as usize]
    }

    /// Access to the rule, e.g. to inspect adversary state.
    pub fn rule(&self) -> &A {
        &self.rule
    }

    /// Resets the process to a fresh state at `start` — all edges
    /// unvisited, counters zeroed, rule state re-armed via
    /// [`EdgeRule::reset`] — reusing the existing allocations. The edge
    /// bitmap is word-packed, so the per-reset cost is `m / 64` word
    /// writes plus the `O(m)` rebuild of the `u16` rows.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn reset(&mut self, start: Vertex) {
        assert!(start < self.g.n(), "start vertex {start} out of range");
        self.current = start;
        self.start = start;
        self.steps = 0;
        self.blue_steps = 0;
        self.red_steps = 0;
        self.visited_edge.clear();
        self.unvisited_edges = self.g.m();
        self.rule.reset();
        fill_fresh(self.g, &mut self.rows, &mut self.live);
    }

    /// Swaps the port in `slot` of `v`'s row (`row` = word offset, `degree`
    /// = row width) to the end of the live prefix and shrinks the prefix.
    #[inline]
    fn unlink(&mut self, v: Vertex, row: usize, degree: usize, slot: usize) {
        let last = usize::from(self.live[v]) - 1;
        debug_assert!(
            slot <= last,
            "slot {slot} not in the live prefix of vertex {v}"
        );
        let (perm, pos) = self.rows[row..row + 2 * degree].split_at_mut(degree);
        let port = perm[slot];
        let moved = perm[last];
        perm[slot] = moved;
        perm[last] = port;
        pos[usize::from(moved)] = slot as u16;
        pos[usize::from(port)] = last as u16;
        self.live[v] -= 1;
    }
}

/// Writes the all-unvisited state: identity `perm` and `pos` in every row,
/// `live[v] = degree(v)`.
///
/// # Panics
///
/// Panics if a degree exceeds `u16::MAX`.
fn fill_fresh(g: &Graph, rows: &mut [u16], live: &mut [u16]) {
    let mut rest = rows;
    for (v, l) in live.iter_mut().enumerate() {
        let d = g.degree(v);
        assert!(
            d <= usize::from(u16::MAX),
            "E-process needs every degree <= {}, but vertex {v} has degree {d}",
            u16::MAX
        );
        let (perm, tail) = std::mem::take(&mut rest).split_at_mut(d);
        let (pos, tail) = tail.split_at_mut(d);
        rest = tail;
        for (i, (a, b)) in perm.iter_mut().zip(pos).enumerate() {
            *a = i as u16;
            *b = i as u16;
        }
        *l = d as u16;
    }
}

impl<'g, A: EdgeRule> WalkProcess for EProcess<'g, A> {
    fn graph(&self) -> &Graph {
        self.g
    }

    fn current(&self) -> Vertex {
        self.current
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn advance(&mut self, mut rng: &mut dyn RngCore) -> Step {
        self.advance_rng(&mut rng)
    }

    fn prefetch(&self) {
        let v = self.current;
        self.g.prefetch_ports(v);
        let row = 2 * self.g.arc_range(v).start;
        if let Some(&w) = self.rows.get(row) {
            std::hint::black_box(w);
        }
        std::hint::black_box(self.live[v]);
    }

    fn advance_rng<R: RngCore>(&mut self, rng: &mut R) -> Step {
        let v = self.current;
        // One offsets fetch serves both the degree and the arc base.
        let range = self.g.arc_range(v);
        let (base, degree) = (range.start, range.len());
        assert!(degree > 0, "E-process stuck at isolated vertex {v}");
        let row = 2 * base;
        let live = usize::from(self.live[v]);
        let (slot, kind) = if live > 0 {
            let ctx = RuleContext {
                graph: self.g,
                vertex: v,
                first_arc: base,
                live_ports: &self.rows[row..row + live],
                step: self.steps,
            };
            let idx = self.rule.choose_rng(&ctx, rng);
            assert!(
                idx < live,
                "rule chose index {idx} among {live} unvisited edges"
            );
            (idx, StepKind::Blue)
        } else {
            (rng.gen_range(0..degree), StepKind::Red)
        };
        let port = self.g.port(base + usize::from(self.rows[row + slot]));
        let (to, e) = (port.target as Vertex, port.edge as EdgeId);
        // The next step reads `to`'s port row; request it now so its fetch
        // overlaps the unlink below, which waits on `to`'s state row.
        self.g.prefetch_ports(to);
        if kind == StepKind::Blue {
            debug_assert!(!self.visited_edge.get(e));
            self.visited_edge.set(e);
            self.unvisited_edges -= 1;
            self.unlink(v, row, degree, slot);
            let target = self.g.arc_range(to);
            let (trow, tdeg) = (2 * target.start, target.len());
            let tslot = usize::from(self.rows[trow + tdeg + port.twin as usize]);
            self.unlink(to, trow, tdeg, tslot);
            self.blue_steps += 1;
        } else {
            self.red_steps += 1;
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

#[cfg(test)]
mod tests {
    use super::rule::{AdversarialRule, FirstPortRule, RoundRobinRule, UniformRule};
    use super::*;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_steps<A: EdgeRule>(
        walk: &mut EProcess<'_, A>,
        k: usize,
        rng: &mut SmallRng,
    ) -> Vec<Step> {
        (0..k).map(|_| walk.advance(rng)).collect()
    }

    #[test]
    fn initial_state() {
        let g = generators::cycle(5);
        let walk = EProcess::new(&g, 2, UniformRule::new());
        assert_eq!(walk.current(), 2);
        assert_eq!(walk.start(), 2);
        assert_eq!(walk.steps(), 0);
        assert_eq!(walk.unvisited_edge_count(), 5);
        assert_eq!(walk.blue_degree(2), 2);
        assert!(walk.in_blue_phase());
        assert_eq!(walk.live_ports(), &[0, 1]);
    }

    #[test]
    fn first_steps_are_blue_until_exhaustion() {
        let g = generators::cycle(6);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        // On a cycle the blue walk traverses the whole cycle: 6 blue steps.
        let steps = run_steps(&mut walk, 6, &mut rng);
        assert!(steps.iter().all(|s| s.kind == StepKind::Blue));
        assert_eq!(walk.unvisited_edge_count(), 0);
        assert_eq!(
            walk.current(),
            0,
            "Observation 10: blue phase returns to start"
        );
        // Everything after is red.
        let steps = run_steps(&mut walk, 10, &mut rng);
        assert!(steps.iter().all(|s| s.kind == StepKind::Red));
        assert_eq!(walk.blue_steps(), 6);
        assert_eq!(walk.red_steps(), 10);
    }

    #[test]
    fn marking_is_consistent_at_both_endpoints() {
        let g = generators::figure_eight(4);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        for _ in 0..g.m() {
            let s = walk.advance(&mut rng);
            let e = s.edge.unwrap();
            assert!(walk.edge_visited(e));
            // Blue degrees always equal the count of unvisited incident edges.
            for v in g.vertices() {
                let expect = g
                    .ports(v)
                    .filter(|&(_, _, e)| !walk.edge_visited(e))
                    .count();
                assert_eq!(walk.blue_degree(v), expect, "vertex {v} after step {:?}", s);
            }
        }
        assert_eq!(walk.unvisited_edge_count(), 0);
    }

    #[test]
    fn blue_steps_bounded_by_m() {
        // Observation 12: t_B <= m, always.
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut walk = EProcess::new(&g, 3, UniformRule::new());
        for _ in 0..10_000 {
            walk.advance(&mut rng);
        }
        assert!(walk.blue_steps() <= g.m() as u64);
        assert_eq!(walk.blue_steps() + walk.red_steps(), walk.steps());
    }

    #[test]
    fn first_port_rule_is_deterministic() {
        let g = generators::torus2d(3, 3);
        let mut rng1 = SmallRng::seed_from_u64(3);
        let mut rng2 = SmallRng::seed_from_u64(4); // different RNG!
        let mut w1 = EProcess::new(&g, 0, FirstPortRule);
        let mut w2 = EProcess::new(&g, 0, FirstPortRule);
        // Blue phases use no randomness under FirstPortRule: identical
        // trajectories until the first red step.
        for _ in 0..g.m() {
            if !w1.in_blue_phase() || !w2.in_blue_phase() {
                break;
            }
            let s1 = w1.advance(&mut rng1);
            let s2 = w2.advance(&mut rng2);
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn adversarial_rule_sees_true_state() {
        let g = generators::complete(5);
        let mut rng = SmallRng::seed_from_u64(5);
        // Adversary always picks the last live arc.
        let rule = AdversarialRule::new(|ctx: &RuleContext<'_>| ctx.live_ports.len() - 1);
        let mut walk = EProcess::new(&g, 0, rule);
        for _ in 0..g.m() {
            assert!(
                walk.in_blue_phase(),
                "K5 is Eulerian: one blue phase covers all edges"
            );
            walk.advance(&mut rng);
        }
        assert_eq!(walk.unvisited_edge_count(), 0);
        assert_eq!(walk.current(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_start_panics() {
        let g = generators::cycle(4);
        let _ = EProcess::new(&g, 9, UniformRule::new());
    }

    #[test]
    #[should_panic(
        expected = "E-process needs every degree <= 65535, but vertex 0 has degree 65536"
    )]
    fn degree_above_u16_max_panics() {
        let g = generators::star(65_537);
        let _ = EProcess::new(&g, 1, UniformRule::new());
    }

    #[test]
    fn degree_u16_max_is_accepted() {
        let g = generators::star(65_536);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        assert_eq!(walk.blue_degree(0), 65_535);
        let s = walk.advance(&mut rng);
        assert_eq!(walk.blue_degree(0), 65_534);
        assert_eq!(walk.blue_degree(s.to), 0);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut walk = EProcess::new(&g, 3, UniformRule::new());
        for _ in 0..100 {
            walk.advance(&mut rng);
        }
        walk.reset(7);
        assert_eq!(walk.current(), 7);
        assert_eq!(walk.start(), 7);
        assert_eq!(walk.steps(), 0);
        assert_eq!(walk.unvisited_edge_count(), g.m());
        for v in g.vertices() {
            assert_eq!(walk.blue_degree(v), g.degree(v));
        }
        // A reset walk with the same RNG stream behaves like a fresh one.
        let mut fresh = EProcess::new(&g, 7, UniformRule::new());
        let mut rng_a = SmallRng::seed_from_u64(17);
        let mut rng_b = SmallRng::seed_from_u64(17);
        for _ in 0..200 {
            assert_eq!(walk.advance(&mut rng_a), fresh.advance(&mut rng_b));
        }
    }

    #[test]
    fn reset_rearms_rule_state() {
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(11);
        // Round-robin carries per-vertex counters: a reset walk must
        // replay the exact trajectory of a freshly built process.
        let mut walk = EProcess::new(&g, 0, RoundRobinRule::new(g.n()));
        for _ in 0..50 {
            walk.advance(&mut rng);
        }
        walk.reset(0);
        let mut fresh = EProcess::new(&g, 0, RoundRobinRule::new(g.n()));
        let mut rng_a = SmallRng::seed_from_u64(21);
        let mut rng_b = SmallRng::seed_from_u64(21);
        for _ in 0..100 {
            assert_eq!(walk.advance(&mut rng_a), fresh.advance(&mut rng_b));
        }
        // Adversarial rule: the decision counter re-zeroes on reset.
        let mut adv = EProcess::new(&g, 0, AdversarialRule::new(|_: &RuleContext<'_>| 0));
        for _ in 0..10 {
            adv.advance(&mut rng);
        }
        assert!(adv.rule().decisions() > 0);
        adv.reset(0);
        assert_eq!(adv.rule().decisions(), 0);
    }

    #[test]
    fn odd_degree_graph_still_runs() {
        // The E-process is defined on any graph; only the theorems need
        // even degree. On Petersen the blue phase may strand edges.
        let g = generators::petersen();
        let mut rng = SmallRng::seed_from_u64(6);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        for _ in 0..5000 {
            walk.advance(&mut rng);
        }
        assert_eq!(
            walk.unvisited_edge_count(),
            0,
            "SRW fallback eventually finds all edges"
        );
    }
}
