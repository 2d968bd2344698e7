//! Compressed-sparse-row representation of an undirected multigraph.
//!
//! Terminology used throughout the workspace:
//!
//! * A **vertex** is a `usize` in `0..n`.
//! * An **edge** is an undirected pair `{u, v}`, `u != v`, identified by a
//!   stable [`EdgeId`] in `0..m`. Parallel edges are allowed (the
//!   configuration model produces them) and get distinct ids; self-loops are
//!   rejected at construction.
//! * An **arc** is one of the two directed copies of an edge, identified by
//!   an [`ArcId`] in `0..2m`. Arcs are grouped contiguously by source vertex
//!   (CSR layout), so "the ports of `v`" are the slice
//!   `arc_range(v)`. The E-process, rotor-router and the locally fair
//!   explorers all operate on ports/arcs while marking *edges*.
//! * A **local port** is an arc's index inside its source's row:
//!   arc `a` of `v` is local port `a - arc_range(v).start`. Local port order
//!   is arc-id order.
//!
//! # Layout: one record per arc
//!
//! Every arc is one 12-byte [`Port`] record `{ target, edge, twin }`, stored
//! in CSR order, where `twin` is the local port of the reverse arc at
//! `target`. A walk step reads the record and learns everything it needs —
//! where it goes, which edge it marks, and which slot of the target's row
//! holds the same edge — from one cache line, with no second lookup through
//! edge-indexed tables. `offsets` is a `u32` array (`4(n+1)` bytes), so a
//! `d`-regular graph's hot adjacency costs `4 + 12d` bytes per vertex
//! (52 bytes for `d = 4`: a 48-byte row spans at most two cache lines). The
//! edge-indexed tables — [`Graph::endpoints`] (8 bytes per edge) and one
//! arc per edge (4 bytes; [`Graph::edge_arcs`] finds the other through its
//! `twin`) — serve the analytics and are never touched by a step.

use crate::error::GraphError;
use std::fmt;
use std::ops::Range;

/// Index of a vertex, `0..n`.
pub type Vertex = usize;
/// Index of an undirected edge, `0..m`.
pub type EdgeId = usize;
/// Index of a directed arc (half-edge), `0..2m`; arcs are grouped by source.
pub type ArcId = usize;

/// One arc's record in the CSR port array (see the [module
/// documentation](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    /// Target vertex of the arc.
    pub target: u32,
    /// Edge id of the arc.
    pub edge: u32,
    /// Local port of the reverse arc at `target`: the reverse arc is
    /// `arc_range(target).start + twin`.
    pub twin: u32,
}

/// A finite undirected multigraph in CSR form with stable edge and arc ids.
///
/// Construction is via [`Graph::from_edges`], [`crate::GraphBuilder`], or one
/// of the [`crate::generators`]. The representation is immutable after
/// construction: walk processes keep their own mutable bookkeeping (visited
/// bitmaps, rotor positions, ...) *outside* the graph, so a single graph can
/// back many concurrent simulations.
///
/// # Example
///
/// ```
/// use eproc_graphs::Graph;
///
/// // A triangle with a pendant vertex.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(2), 3);
/// assert_eq!(g.neighbors(3).collect::<Vec<_>>(), vec![2]);
/// # Ok::<(), eproc_graphs::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets: arcs of vertex `v` are `ports[offsets[v]..offsets[v+1]]`.
    offsets: Vec<u32>,
    /// One record per arc, grouped by source vertex.
    ports: Vec<Port>,
    /// Endpoints `(u, v)` of each edge, in the order supplied at construction.
    edge_endpoints: Vec<(u32, u32)>,
    /// The arc of each edge that leaves `endpoints.0`; its `twin` gives
    /// the other.
    edge_arcs: Vec<u32>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// Edge ids are assigned in list order. Parallel edges are allowed and
    /// kept (multigraph semantics).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] if `u == v` for some edge.
    ///
    /// # Panics
    ///
    /// Panics if `2m` or `n` does not fit in a `u32` (arc and vertex ids
    /// are stored as `u32`).
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Result<Graph, GraphError> {
        let m = edges.len();
        assert!(
            u32::try_from(2 * m).is_ok() && u32::try_from(n).is_ok(),
            "graph with n = {n}, m = {m} exceeds the u32 vertex/arc id range"
        );
        // One pass validates (reporting the first bad edge in list order)
        // and counts degrees.
        let mut degree = vec![0u32; n];
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, n });
            }
            if v >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        debug_assert_eq!(acc as usize, 2 * m);
        // Next free local port of each vertex.
        let mut cursor = vec![0u32; n];
        let empty = Port {
            target: 0,
            edge: 0,
            twin: 0,
        };
        let mut ports = vec![empty; 2 * m];
        let mut edge_arcs = vec![0u32; m];
        let mut edge_endpoints = Vec::with_capacity(m);
        for (e, &(u, v)) in edges.iter().enumerate() {
            let (pu, pv) = (cursor[u], cursor[v]);
            cursor[u] += 1;
            cursor[v] += 1;
            let (au, av) = (offsets[u] + pu, offsets[v] + pv);
            let e32 = e as u32;
            ports[au as usize] = Port {
                target: v as u32,
                edge: e32,
                twin: pv,
            };
            ports[av as usize] = Port {
                target: u as u32,
                edge: e32,
                twin: pu,
            };
            edge_arcs[e] = au;
            edge_endpoints.push((u as u32, v as u32));
        }
        Ok(Graph {
            offsets,
            ports,
            edge_endpoints,
            edge_arcs,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (counting parallel edges separately).
    #[inline]
    pub fn m(&self) -> usize {
        self.edge_endpoints.len()
    }

    /// Degree of `v` (parallel edges counted with multiplicity).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The contiguous range of arc ids leaving `v` (its *ports*).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn arc_range(&self, v: Vertex) -> Range<ArcId> {
        self.offsets[v] as ArcId..self.offsets[v + 1] as ArcId
    }

    /// The port records of `v`, indexed by local port (arc
    /// `arc_range(v).start + p` is `port_row(v)[p]`).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn port_row(&self, v: Vertex) -> &[Port] {
        &self.ports[self.arc_range(v)]
    }

    /// The port record of arc `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= 2m`.
    #[inline]
    pub fn port(&self, a: ArcId) -> Port {
        self.ports[a]
    }

    /// Target vertex of arc `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= 2m`.
    #[inline]
    pub fn arc_target(&self, a: ArcId) -> Vertex {
        self.ports[a].target as Vertex
    }

    /// Edge id of arc `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= 2m`.
    #[inline]
    pub fn arc_edge(&self, a: ArcId) -> EdgeId {
        self.ports[a].edge as EdgeId
    }

    /// The two arc ids of edge `e`: the first leaves `endpoints(e).0`, the
    /// second leaves `endpoints(e).1`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn edge_arcs(&self, e: EdgeId) -> (ArcId, ArcId) {
        let a = self.edge_arcs[e] as ArcId;
        let p = self.ports[a];
        (
            a,
            self.offsets[p.target as usize] as ArcId + p.twin as ArcId,
        )
    }

    /// Endpoints `(u, v)` of edge `e` in construction order.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (Vertex, Vertex) {
        let (u, v) = self.edge_endpoints[e];
        (u as Vertex, v as Vertex)
    }

    /// The endpoint of `e` that is not `v`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m` or `v` is not an endpoint of `e` (debug builds).
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: Vertex) -> Vertex {
        let (a, b) = self.endpoints(e);
        debug_assert!(
            v == a || v == b,
            "vertex {v} is not an endpoint of edge {e}"
        );
        if v == a {
            b
        } else {
            a
        }
    }

    /// Iterator over the neighbors of `v`, with multiplicity for parallel
    /// edges, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.port_row(v).iter().map(|p| p.target as Vertex)
    }

    /// Issues an early load of `v`'s CSR port row — the offset word and
    /// the first [`Port`] record — discarding the values through
    /// [`std::hint::black_box`].
    ///
    /// This is the crate's safe-code stand-in for a prefetch hint
    /// (`#![forbid(unsafe_code)]` rules out the intrinsic): the loads
    /// cannot be optimised away, so the row's cache lines are requested
    /// *now* and their memory latency overlaps whatever the caller does
    /// next. The interleaved multi-trial driver calls this for the lane it
    /// will advance next while the current lane's step executes.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn prefetch_ports(&self, v: Vertex) {
        if let Some(&p) = self.ports.get(self.offsets[v] as usize) {
            std::hint::black_box(p);
        }
    }

    /// Iterator over `(arc, target, edge)` triples of the ports of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn ports(&self, v: Vertex) -> impl Iterator<Item = (ArcId, Vertex, EdgeId)> + '_ {
        let base = self.arc_range(v).start;
        self.port_row(v)
            .iter()
            .enumerate()
            .map(move |(p, r)| (base + p, r.target as Vertex, r.edge as EdgeId))
    }

    /// Iterator over all edges as `(edge, u, v)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Vertex, Vertex)> + '_ {
        self.edge_endpoints
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e, u as Vertex, v as Vertex))
    }

    /// Iterator over all vertices, `0..n`.
    pub fn vertices(&self) -> Range<Vertex> {
        0..self.n()
    }

    /// Sum of all degrees, `2m`.
    #[inline]
    pub fn total_degree(&self) -> usize {
        2 * self.m()
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree, or 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// `true` if some edge `{u, v}` exists (linear in `min(deg u, deg v)`).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        let (small, other) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(small).any(|w| w == other)
    }

    /// Number of parallel edges between `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn edge_multiplicity(&self, u: Vertex, v: Vertex) -> usize {
        let (small, other) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(small).filter(|&w| w == other).count()
    }

    /// `true` if the graph contains at least one pair of parallel edges.
    pub fn has_parallel_edges(&self) -> bool {
        let mut seen: Vec<(u32, u32)> = self
            .edge_endpoints
            .iter()
            .map(|&(u, v)| if u <= v { (u, v) } else { (v, u) })
            .collect();
        seen.sort_unstable();
        seen.windows(2).any(|w| w[0] == w[1])
    }

    /// The edge list `(u, v)` in edge-id order; useful for round-tripping,
    /// serialization, and building modified copies.
    pub fn edge_list(&self) -> Vec<(Vertex, Vertex)> {
        self.edge_endpoints
            .iter()
            .map(|&(u, v)| (u as Vertex, v as Vertex))
            .collect()
    }

    /// Returns a copy of the graph with an extra vertex-disjoint validation
    /// pass; used by property tests.
    ///
    /// # Errors
    ///
    /// Propagates any [`GraphError`] from reconstruction (none are expected
    /// for a well-formed graph).
    pub fn rebuilt(&self) -> Result<Graph, GraphError> {
        Graph::from_edges(self.n(), &self.edge_list())
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph {{ n: {}, m: {} }}", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.total_degree(), 8);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        let mut n2: Vec<_> = g.neighbors(2).collect();
        n2.sort_unstable();
        assert_eq!(n2, vec![0, 1, 3]);
    }

    #[test]
    fn arcs_and_edges_are_consistent() {
        let g = triangle_plus_pendant();
        for e in 0..g.m() {
            let (u, v) = g.endpoints(e);
            let (au, av) = g.edge_arcs(e);
            assert_eq!(g.arc_edge(au), e);
            assert_eq!(g.arc_edge(av), e);
            assert_eq!(g.arc_target(au), v);
            assert_eq!(g.arc_target(av), u);
            assert!(g.arc_range(u).contains(&au));
            assert!(g.arc_range(v).contains(&av));
        }
    }

    #[test]
    fn ports_cover_all_arcs_exactly_once() {
        let g = triangle_plus_pendant();
        let mut seen = vec![false; 2 * g.m()];
        for v in g.vertices() {
            for (a, target, e) in g.ports(v) {
                assert!(!seen[a], "arc {a} appears twice");
                seen[a] = true;
                assert_eq!(g.arc_target(a), target);
                assert_eq!(g.arc_edge(a), e);
                assert_eq!(g.other_endpoint(e, v), target);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(3, &[(0, 0)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 0 });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(3, &[(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 3, n: 3 });
    }

    #[test]
    fn parallel_edges_are_kept() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edge_multiplicity(0, 1), 2);
        assert!(g.has_parallel_edges());
    }

    #[test]
    fn simple_graph_has_no_parallel_edges() {
        assert!(!triangle_plus_pendant().has_parallel_edges());
    }

    #[test]
    fn has_edge_works_both_directions() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        let g = Graph::from_edges(5, &[]).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn edge_list_round_trips() {
        let g = triangle_plus_pendant();
        let h = g.rebuilt().unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = triangle_plus_pendant();
        assert_eq!(format!("{g:?}"), "Graph { n: 4, m: 4 }");
    }

    #[test]
    fn graph_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
    }
}
