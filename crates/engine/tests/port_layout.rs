//! The walk-native port layout and the E-process built on it.
//!
//! * Every arc's `twin` names the reverse arc: `ports[offsets[t] + twin]`
//!   leads back to the source with the same edge id — on every
//!   [`GraphSpec`] family and on pairing-model multigraphs, whose parallel
//!   edges are exactly where a target-only check would be fooled.
//! * Closed forms on the cycle `C_n`: from any start, under **every** rule,
//!   the first step picks a direction and each later vertex has exactly one
//!   unvisited edge, so the E-process covers the vertices in exactly
//!   `n - 1` steps and the edges in exactly `n`.

use eproc_core::cover::{run_to_edge_cover, run_to_vertex_cover};
use eproc_core::rule::WeightedPortRule;
use eproc_core::{EProcess, WalkProcess};
use eproc_engine::spec::{GraphSpec, ProcessSpec, RuleSpec};
use eproc_graphs::{generators, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Checks the twin invariant and that ports agree with the edge tables.
fn check_ports(g: &Graph) -> Result<(), TestCaseError> {
    let mut arcs_seen = 0;
    for v in g.vertices() {
        let base = g.arc_range(v).start;
        prop_assert_eq!(g.port_row(v).len(), g.degree(v));
        for (p, port) in g.port_row(v).iter().enumerate() {
            let (t, e) = (port.target as usize, port.edge as usize);
            let back = g.port_row(t)[port.twin as usize];
            prop_assert!(
                (back.target as usize, back.edge as usize, back.twin as usize) == (v, e, p),
                "port {p} of vertex {v}: {port:?}, reverse {back:?}"
            );
            let (au, av) = g.edge_arcs(e);
            let reverse = g.arc_range(t).start + port.twin as usize;
            prop_assert!((au, av) == (base + p, reverse) || (au, av) == (reverse, base + p));
            prop_assert_eq!(g.other_endpoint(e, v), t);
            arcs_seen += 1;
        }
    }
    prop_assert_eq!(arcs_seen, 2 * g.m());
    Ok(())
}

/// Small instances of every [`GraphSpec`] family.
fn arb_small_graph_spec() -> impl Strategy<Value = GraphSpec> {
    (0usize..10, 3usize..200, 1usize..9).prop_map(|(variant, n, small)| match variant {
        0 => GraphSpec::Regular {
            n: n.max(small + 2),
            d: small,
        },
        1 => {
            let (p, q) = [(5, 13), (5, 17), (13, 5)][n % 3];
            GraphSpec::Lps { p, q }
        }
        2 => GraphSpec::Geometric {
            n,
            radius_factor: 1.0 + small as f64 / 4.0,
        },
        3 => GraphSpec::Hypercube { dim: small },
        4 => GraphSpec::Torus {
            w: small + 2,
            h: n % 20 + 3,
        },
        5 => GraphSpec::Cycle { n },
        6 => GraphSpec::Complete { n: small + 1 },
        7 => GraphSpec::Lollipop {
            clique: small + 2,
            path: n % 30,
        },
        8 => GraphSpec::Petersen,
        _ => GraphSpec::FigureEight { len: small + 2 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn twin_points_back_on_every_family(spec in arb_small_graph_spec(), seed in 0u64..1_000) {
        // Infeasible parameter draws (odd n*d, ...) are not the subject here.
        let built = spec.build(seed);
        prop_assume!(built.is_ok());
        check_ports(&built.unwrap())?;
    }

    #[test]
    fn twin_points_back_on_pairing_multigraphs(n in 2usize..12, r in 2usize..7, seed in 0u64..1_000) {
        prop_assume!((n * r) % 2 == 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let built = generators::pairing_model_multigraph(n, r, &mut rng);
        prop_assume!(built.is_ok());
        check_ports(&built.unwrap())?;
    }
}

#[test]
fn pairing_multigraphs_do_exercise_parallel_edges() {
    // The multigraph property above only means something if its inputs
    // contain parallel edges; small dense pairings nearly always do.
    let with_parallel = (0..32u64)
        .filter(|&seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            generators::pairing_model_multigraph(4, 6, &mut rng)
                .is_ok_and(|g| g.has_parallel_edges())
        })
        .count();
    assert!(with_parallel > 0);
    let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
    check_ports(&g).unwrap();
}

/// One fresh E-process per rule at `start`: every [`RuleSpec`] plus the
/// weighted rule, which no spec exposes.
fn every_rule<'g>(g: &'g Graph, start: usize) -> Vec<(String, Box<dyn WalkProcess + 'g>)> {
    let mut walks: Vec<(String, Box<dyn WalkProcess + 'g>)> = RuleSpec::all()
        .into_iter()
        .map(|rule| {
            let p = ProcessSpec::EProcess { rule };
            (p.label(), p.build(g, start))
        })
        .collect();
    let weights = (0..g.m()).map(|e| 1.0 + e as f64).collect();
    let weighted = EProcess::new(g, start, WeightedPortRule::new(weights));
    walks.push(("weighted".into(), Box::new(weighted)));
    walks
}

#[test]
fn every_rule_covers_a_cycle_in_closed_form() {
    for n in [3usize, 4, 7, 32, 101] {
        let g = generators::cycle(n);
        for start in [0, n / 2, n - 1] {
            for seed in 0..3u64 {
                for (name, mut walk) in every_rule(&g, start) {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let cover = run_to_vertex_cover(&mut walk, &g, &mut rng)
                        .expect("the cycle is connected");
                    assert_eq!(cover.steps, n as u64 - 1, "{name}: C_{n} vertex cover");
                }
                for (name, mut walk) in every_rule(&g, start) {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let steps =
                        run_to_edge_cover(&mut walk, &g, &mut rng).expect("the cycle is connected");
                    assert_eq!(steps, n as u64, "{name}: C_{n} edge cover");
                }
            }
        }
    }
}
