//! Rule `A`: how the E-process chooses among unvisited edges.
//!
//! §1 of the paper: *"In the simplest case, `A` chooses u.a.r. among
//! unvisited edges incident with the current vertex … However we do not
//! exclude arbitrary choices of rule `A`. For example, the rule could be
//! deterministic, or decided on-line by an adversary, or could vary from
//! vertex to vertex."* Theorem 1 is independent of the rule; the
//! `table_rules` experiment exercises every implementation here to verify
//! that.

use eproc_graphs::{ArcId, Graph, Vertex};
use rand::{Rng, RngCore};

/// What a rule sees when invoked: the current vertex, the unvisited local
/// ports at it, the graph, and the global step count.
///
/// Local port `p` of `vertex` is arc `first_arc + p`, so local port order
/// is arc-id order: ranking live ports ranks their arcs.
#[derive(Debug)]
pub struct RuleContext<'a> {
    /// The graph being explored.
    pub graph: &'a Graph,
    /// The currently occupied vertex.
    pub vertex: Vertex,
    /// Arc id of local port 0 of `vertex` (`graph.arc_range(vertex).start`).
    pub first_arc: ArcId,
    /// The unvisited (blue) local ports at `vertex`; always nonempty when
    /// the rule is consulted. Order is an implementation detail (the engine
    /// compacts in place) — rules needing stability should rank by port.
    pub live_ports: &'a [u16],
    /// Steps taken by the process so far.
    pub step: u64,
}

impl RuleContext<'_> {
    /// Arc id of the `i`-th live port.
    ///
    /// # Panics
    ///
    /// Panics if `i >= live_ports.len()`.
    #[inline]
    pub fn live_arc(&self, i: usize) -> ArcId {
        self.first_arc + usize::from(self.live_ports[i])
    }
}

/// A rule for choosing among unvisited edges (rule `A` of the paper).
///
/// Implementations return an **index** into `ctx.live_ports`. The engine
/// panics if the index is out of range — a rule bug, not a recoverable
/// condition.
pub trait EdgeRule {
    /// Chooses the index of the arc to traverse.
    fn choose(&mut self, ctx: &RuleContext<'_>, rng: &mut dyn RngCore) -> usize;

    /// Monomorphized variant of [`choose`](EdgeRule::choose): identical
    /// decision and identical RNG draw sequence, but statically dispatched
    /// on the RNG type so randomized rules inline into the
    /// [`advance_rng`](crate::process::WalkProcess::advance_rng) kernel.
    ///
    /// The default forwards to the dyn method (correct for any rule);
    /// the randomized in-crate rules override it.
    fn choose_rng<R: RngCore>(&mut self, ctx: &RuleContext<'_>, rng: &mut R) -> usize
    where
        Self: Sized,
    {
        self.choose(ctx, rng)
    }

    /// Resets per-run rule state (decision counters, rotor positions, …)
    /// so a process [`reset`](crate::EProcess::reset) behaves like a
    /// freshly constructed one. Default: no-op, for stateless rules.
    fn reset(&mut self) {}

    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Chooses uniformly at random — the paper's "simplest case", and exactly
/// the greedy random walk of Orenshtein–Shinkar when plugged into the
/// E-process.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformRule;

impl UniformRule {
    /// Creates the uniform rule.
    pub fn new() -> UniformRule {
        UniformRule
    }
}

impl EdgeRule for UniformRule {
    fn choose(&mut self, ctx: &RuleContext<'_>, mut rng: &mut dyn RngCore) -> usize {
        self.choose_rng(ctx, &mut rng)
    }

    #[inline]
    fn choose_rng<R: RngCore>(&mut self, ctx: &RuleContext<'_>, rng: &mut R) -> usize {
        rng.gen_range(0..ctx.live_ports.len())
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Deterministically chooses the unvisited arc with the smallest arc id
/// (i.e. the lowest-numbered port of the current vertex).
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstPortRule;

impl EdgeRule for FirstPortRule {
    fn choose(&mut self, ctx: &RuleContext<'_>, _rng: &mut dyn RngCore) -> usize {
        ctx.live_ports
            .iter()
            .enumerate()
            .min_by_key(|&(_, &p)| p)
            .map(|(i, _)| i)
            .expect("live_ports is nonempty")
    }

    fn name(&self) -> &'static str {
        "first-port"
    }
}

/// Deterministically chooses the unvisited arc with the largest arc id.
#[derive(Debug, Clone, Copy, Default)]
pub struct LastPortRule;

impl EdgeRule for LastPortRule {
    fn choose(&mut self, ctx: &RuleContext<'_>, _rng: &mut dyn RngCore) -> usize {
        ctx.live_ports
            .iter()
            .enumerate()
            .max_by_key(|&(_, &p)| p)
            .map(|(i, _)| i)
            .expect("live_ports is nonempty")
    }

    fn name(&self) -> &'static str {
        "last-port"
    }
}

/// A rotor-flavoured deterministic rule: each vertex cycles through its
/// unvisited edges in increasing port order, remembering where it left
/// off ("could vary from vertex to vertex").
#[derive(Debug, Clone)]
pub struct RoundRobinRule {
    next: Vec<u64>,
}

impl RoundRobinRule {
    /// Creates the rule for a graph with `n` vertices.
    pub fn new(n: usize) -> RoundRobinRule {
        RoundRobinRule { next: vec![0; n] }
    }
}

impl EdgeRule for RoundRobinRule {
    fn reset(&mut self) {
        self.next.iter_mut().for_each(|c| *c = 0);
    }

    fn choose(&mut self, ctx: &RuleContext<'_>, _rng: &mut dyn RngCore) -> usize {
        let counter = &mut self.next[ctx.vertex];
        let k = (*counter as usize) % ctx.live_ports.len();
        *counter += 1;
        // Stabilise against the engine's in-place compaction by ranking
        // live ports (= arc-id order).
        let mut order: Vec<usize> = (0..ctx.live_ports.len()).collect();
        order.sort_by_key(|&i| ctx.live_ports[i]);
        order[k]
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// An adversarial rule: an arbitrary on-line callback chooses the index.
/// Theorem 1's bound must hold for *any* such adversary on even-degree
/// `ℓ`-good graphs.
pub struct AdversarialRule<F> {
    strategy: F,
    decisions: u64,
}

impl<F> std::fmt::Debug for AdversarialRule<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AdversarialRule {{ decisions: {} }}", self.decisions)
    }
}

impl<F: FnMut(&RuleContext<'_>) -> usize> AdversarialRule<F> {
    /// Wraps an adversary callback.
    pub fn new(strategy: F) -> AdversarialRule<F> {
        AdversarialRule {
            strategy,
            decisions: 0,
        }
    }

    /// Number of blue choices the adversary has made.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
}

impl<F: FnMut(&RuleContext<'_>) -> usize> EdgeRule for AdversarialRule<F> {
    fn reset(&mut self) {
        self.decisions = 0;
    }

    fn choose(&mut self, ctx: &RuleContext<'_>, _rng: &mut dyn RngCore) -> usize {
        self.decisions += 1;
        (self.strategy)(ctx)
    }

    fn name(&self) -> &'static str {
        "adversarial"
    }
}

/// An adversary that always steers toward the neighbour of **highest
/// remaining blue degree** — a natural attempt to keep the walk inside
/// already-explored territory and delay discovery. Used by `table_rules`
/// as a concrete malicious strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyAdversary;

impl EdgeRule for GreedyAdversary {
    fn choose(&mut self, ctx: &RuleContext<'_>, _rng: &mut dyn RngCore) -> usize {
        // The blue degree of the target is not directly visible, so use the
        // next best thing the adversary can compute on-line: prefer the
        // target with the largest port count minus distance-1 heuristic,
        // i.e. highest degree (static proxy), tie-broken by arc id.
        (0..ctx.live_ports.len())
            .max_by_key(|&i| {
                (
                    ctx.graph.degree(ctx.graph.arc_target(ctx.live_arc(i))),
                    std::cmp::Reverse(ctx.live_ports[i]),
                )
            })
            .expect("live_ports is nonempty")
    }

    fn name(&self) -> &'static str {
        "greedy-adversary"
    }
}

/// A randomized rule with per-edge weights: among the unvisited arcs it
/// picks edge `e` with probability proportional to `weights[e]` ("could
/// vary from vertex to vertex" — here, from edge to edge).
#[derive(Debug, Clone)]
pub struct WeightedPortRule {
    weights: Vec<f64>,
}

impl WeightedPortRule {
    /// Creates the rule from per-edge weights (`weights.len() == m`, all
    /// positive and finite).
    ///
    /// # Panics
    ///
    /// Panics if any weight is not finite and positive.
    pub fn new(weights: Vec<f64>) -> WeightedPortRule {
        assert!(
            weights.iter().all(|&w| w.is_finite() && w > 0.0),
            "edge weights must be positive and finite"
        );
        WeightedPortRule { weights }
    }
}

impl EdgeRule for WeightedPortRule {
    fn choose(&mut self, ctx: &RuleContext<'_>, mut rng: &mut dyn RngCore) -> usize {
        self.choose_rng(ctx, &mut rng)
    }

    fn choose_rng<R: RngCore>(&mut self, ctx: &RuleContext<'_>, rng: &mut R) -> usize {
        let weight = |i: usize| self.weights[ctx.graph.arc_edge(ctx.live_arc(i))];
        let live = ctx.live_ports.len();
        let total: f64 = (0..live).map(weight).sum();
        let mut target = rng.gen_range(0.0..total);
        for i in 0..live {
            target -= weight(i);
            if target <= 0.0 {
                return i;
            }
        }
        live - 1 // numerical slack: last index
    }

    fn name(&self) -> &'static str {
        "weighted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ctx_on<'a>(g: &'a Graph, v: Vertex, live: &'a [u16]) -> RuleContext<'a> {
        RuleContext {
            graph: g,
            vertex: v,
            first_arc: g.arc_range(v).start,
            live_ports: live,
            step: 0,
        }
    }

    fn all_ports(g: &Graph, v: Vertex) -> Vec<u16> {
        (0..g.degree(v) as u16).collect()
    }

    #[test]
    fn uniform_rule_in_range_and_varies() {
        let g = generators::complete(6);
        let live = all_ports(&g, 0);
        let mut rule = UniformRule::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let i = rule.choose(&ctx_on(&g, 0, &live), &mut rng);
            assert!(i < live.len());
            seen.insert(i);
        }
        assert_eq!(
            seen.len(),
            live.len(),
            "uniform rule should hit every index"
        );
    }

    #[test]
    fn first_and_last_port_rules() {
        let g = generators::complete(8);
        let live = [7u16, 2, 5];
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(FirstPortRule.choose(&ctx_on(&g, 0, &live), &mut rng), 1);
        assert_eq!(LastPortRule.choose(&ctx_on(&g, 0, &live), &mut rng), 0);
    }

    #[test]
    fn round_robin_cycles_in_port_order() {
        let g = generators::complete(11);
        let live = [9u16, 3, 6];
        let mut rule = RoundRobinRule::new(g.n());
        let mut rng = SmallRng::seed_from_u64(3);
        // Port order is 3 < 6 < 9 → indices 1, 2, 0, then wraps.
        assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 1);
        assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 2);
        assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 0);
        assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 1);
        // Independent counter per vertex.
        assert_eq!(rule.choose(&ctx_on(&g, 2, &live), &mut rng), 1);
    }

    #[test]
    fn adversarial_counts_decisions() {
        let g = generators::complete(4);
        let live = [0u16, 1];
        let mut rule = AdversarialRule::new(|_ctx: &RuleContext<'_>| 0);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..5 {
            assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 0);
        }
        assert_eq!(rule.decisions(), 5);
        assert!(format!("{rule:?}").contains("decisions: 5"));
    }

    #[test]
    fn greedy_adversary_prefers_high_degree_target() {
        // Star + pendant: center has degree 4; from a leaf the adversary
        // must pick the arc toward the center.
        let g = eproc_graphs::Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]).unwrap();
        let live = all_ports(&g, 3); // vertex 3: edges to 0 and 4
        let mut rng = SmallRng::seed_from_u64(5);
        let ctx = ctx_on(&g, 3, &live);
        let i = GreedyAdversary.choose(&ctx, &mut rng);
        assert_eq!(g.arc_target(ctx.live_arc(i)), 0);
    }

    #[test]
    fn rule_names() {
        assert_eq!(UniformRule::new().name(), "uniform");
        assert_eq!(FirstPortRule.name(), "first-port");
        assert_eq!(LastPortRule.name(), "last-port");
        assert_eq!(RoundRobinRule::new(1).name(), "round-robin");
        assert_eq!(GreedyAdversary.name(), "greedy-adversary");
        assert_eq!(
            AdversarialRule::new(|_: &RuleContext<'_>| 0).name(),
            "adversarial"
        );
        assert_eq!(WeightedPortRule::new(vec![1.0]).name(), "weighted");
    }

    #[test]
    fn weighted_rule_biases_choice() {
        // Star center with one heavy edge: the heavy edge is picked with
        // probability 9/12 among three live edges of weight 9, 2, 1.
        let g = generators::star(4);
        let live = all_ports(&g, 0);
        let ctx = ctx_on(&g, 0, &live);
        let mut rule = WeightedPortRule::new(vec![9.0, 2.0, 1.0]);
        let mut rng = SmallRng::seed_from_u64(6);
        let trials = 20_000;
        let mut heavy = 0u64;
        for _ in 0..trials {
            let i = rule.choose(&ctx, &mut rng);
            assert!(i < live.len());
            if g.arc_edge(ctx.live_arc(i)) == 0 {
                heavy += 1;
            }
        }
        let f = heavy as f64 / trials as f64;
        assert!((f - 0.75).abs() < 0.02, "heavy edge frequency {f}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_rule_rejects_bad_weights() {
        let _ = WeightedPortRule::new(vec![1.0, -2.0]);
    }
}
