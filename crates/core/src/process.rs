//! The common interface implemented by every walk process.

use eproc_graphs::{EdgeId, Graph, Vertex};
use rand::RngCore;

/// How a step chose its edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// The process traversed an edge it preferred as *unvisited* — a
    /// **blue** transition in the paper's re-colouring picture. Only
    /// processes that prefer unvisited edges emit this.
    Blue,
    /// Any other transition (the embedded random walk of the E-process,
    /// every SRW step, rotor steps, lazy holds, …) — **red**.
    Red,
}

/// One transition of a walk process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Vertex the walk left.
    pub from: Vertex,
    /// Vertex the walk arrived at (equals `from` for a lazy hold).
    pub to: Vertex,
    /// The edge traversed; `None` only for lazy holds.
    pub edge: Option<EdgeId>,
    /// Blue/red classification (see [`StepKind`]).
    pub kind: StepKind,
}

/// A vertex-to-vertex exploration process on a fixed graph.
///
/// All processes in this crate (E-process, SRW, rotor-router, RWC(d),
/// locally fair explorers) implement this trait, so the cover-time harness
/// in [`crate::cover`] and the experiment drivers are generic.
///
/// Implementations borrow the graph; all mutable exploration state lives in
/// the process value, so many processes can run on one graph concurrently.
///
/// # The two step entry points
///
/// [`advance`](WalkProcess::advance) is the object-safe method (`&mut dyn
/// RngCore`), usable through `Box<dyn WalkProcess>`.
/// [`advance_rng`](WalkProcess::advance_rng) is the monomorphized fast
/// path: generic over the RNG, so a kernel holding a concrete process and
/// a concrete RNG compiles to one flat, fully inlined loop with no
/// per-step virtual dispatch. The default implementation forwards to
/// `advance`, so third-party processes keep working unchanged; every
/// process in this crate overrides it with the real step body (and
/// implements `advance` as the thin dyn adapter). Both entry points draw
/// the **identical RNG sequence** — the sampling helpers in `rand` are
/// shared generic code — so seeded trajectories are the same whichever
/// path ran them.
pub trait WalkProcess {
    /// The graph being explored.
    fn graph(&self) -> &Graph;

    /// The currently occupied vertex.
    fn current(&self) -> Vertex;

    /// Number of steps taken so far.
    fn steps(&self) -> u64;

    /// Performs one transition. Deterministic processes ignore `rng`.
    ///
    /// # Panics
    ///
    /// Implementations panic if the current vertex has degree 0 (the walk
    /// is stuck; the paper's graphs are connected so this cannot occur).
    fn advance(&mut self, rng: &mut dyn RngCore) -> Step;

    /// Monomorphized variant of [`advance`](WalkProcess::advance): same
    /// transition, same RNG draw sequence, but statically dispatched on
    /// the RNG type so the whole step inlines into the caller's loop.
    ///
    /// The default forwards to the dyn method (correct for any
    /// implementation, at dyn cost); in-crate processes override it.
    ///
    /// # Panics
    ///
    /// As [`advance`](WalkProcess::advance).
    fn advance_rng<R: RngCore>(&mut self, rng: &mut R) -> Step
    where
        Self: Sized,
    {
        self.advance(rng)
    }

    /// Issues early loads of the memory the next step will read, so their
    /// latency overlaps other work (the interleaved driver calls this for
    /// the lane it will advance next). A pure hint: it changes no state
    /// and draws no randomness.
    ///
    /// The default touches the current vertex's CSR port row
    /// ([`Graph::prefetch_ports`]); processes with per-vertex state of
    /// their own override it to touch that too.
    fn prefetch(&self) {
        self.graph().prefetch_ports(self.current());
    }
}

impl<W: WalkProcess + ?Sized> WalkProcess for &mut W {
    fn graph(&self) -> &Graph {
        (**self).graph()
    }

    fn current(&self) -> Vertex {
        (**self).current()
    }

    fn steps(&self) -> u64 {
        (**self).steps()
    }

    fn advance(&mut self, rng: &mut dyn RngCore) -> Step {
        (**self).advance(rng)
    }

    fn prefetch(&self) {
        (**self).prefetch()
    }
}

impl<W: WalkProcess + ?Sized> WalkProcess for Box<W> {
    fn graph(&self) -> &Graph {
        (**self).graph()
    }

    fn current(&self) -> Vertex {
        (**self).current()
    }

    fn steps(&self) -> u64 {
        (**self).steps()
    }

    fn advance(&mut self, rng: &mut dyn RngCore) -> Step {
        (**self).advance(rng)
    }

    fn prefetch(&self) {
        (**self).prefetch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_kind_is_copy_and_eq() {
        let k = StepKind::Blue;
        let l = k;
        assert_eq!(k, l);
        assert_ne!(StepKind::Blue, StepKind::Red);
    }

    #[test]
    fn step_debug_nonempty() {
        let s = Step {
            from: 0,
            to: 1,
            edge: Some(2),
            kind: StepKind::Red,
        };
        assert!(format!("{s:?}").contains("from"));
    }
}
