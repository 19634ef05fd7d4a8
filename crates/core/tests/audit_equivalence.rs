//! The audit runs its recount, connectivity flood, hole flood and boundary
//! walk on one dense byte grid. Its report must equal, field for field and
//! violation for violation in order, the report built the way the audit
//! used to build it: from `recount`, `is_connected` and
//! `boundary_walk_length` — kept as the O(n) oracles — plus the hash-set
//! hole flood, kept here verbatim.
//!
//! Occupancy desyncs (either raster plane, or the map, against the table)
//! need private hooks and are covered by `Configuration`'s unit tests;
//! every state here has a consistent index and table, and the reference
//! asserts so.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sops_chains::MarkovChain;
use sops_core::{
    construct, enumerate, AuditReport, AuditViolation, Bias, Color, Configuration, SeparationChain,
};
use sops_lattice::region::Region;
use sops_lattice::{Node, NodeSet};

/// The hole count as a `NodeSet` flood from the bounding box's margin,
/// verbatim but for probing the node index through `index_at`.
fn hole_count_reference(config: &Configuration) -> usize {
    let occupied = |n: Node| config.index_at(n).is_some();
    let (min_x, max_x, min_y, max_y) = config.bounding_box();
    // Expand by one so the outside margin forms a connected ring.
    let (lo_x, hi_x) = (min_x - 1, max_x + 1);
    let (lo_y, hi_y) = (min_y - 1, max_y + 1);

    let in_box = |n: Node| n.x >= lo_x && n.x <= hi_x && n.y >= lo_y && n.y <= hi_y;

    // Flood the exterior starting from the whole margin ring.
    let mut outside = NodeSet::new();
    let mut stack = Vec::new();
    for x in lo_x..=hi_x {
        for y in [lo_y, hi_y] {
            let n = Node::new(x, y);
            if !occupied(n) && outside.insert(n) {
                stack.push(n);
            }
        }
    }
    for y in lo_y..=hi_y {
        for x in [lo_x, hi_x] {
            let n = Node::new(x, y);
            if !occupied(n) && outside.insert(n) {
                stack.push(n);
            }
        }
    }
    while let Some(n) = stack.pop() {
        for m in n.neighbors() {
            if in_box(m) && !occupied(m) && outside.insert(m) {
                stack.push(m);
            }
        }
    }

    // Remaining unoccupied in-box nodes are hole nodes; count components.
    let mut hole_seen = NodeSet::new();
    let mut holes = 0;
    for x in lo_x..=hi_x {
        for y in lo_y..=hi_y {
            let n = Node::new(x, y);
            if occupied(n) || outside.contains(n) || hole_seen.contains(n) {
                continue;
            }
            holes += 1;
            hole_seen.insert(n);
            let mut stack = vec![n];
            while let Some(u) = stack.pop() {
                for m in u.neighbors() {
                    if in_box(m) && !occupied(m) && !outside.contains(m) && hole_seen.insert(m) {
                        stack.push(m);
                    }
                }
            }
        }
    }
    holes
}

/// The audit's report assembled from the oracles, in the audit's order.
fn audit_reference(config: &Configuration) -> AuditReport {
    let n = config.len();
    for i in 0..n {
        assert_eq!(
            config.index_at(config.position_of(i)),
            Some(i),
            "map desync"
        );
        assert_eq!(
            config.color_at(config.position_of(i)),
            Some(config.color_of(i))
        );
    }
    let mut violations = Vec::new();
    let (edges, hetero) = config.recount();
    if edges != config.edge_count() {
        violations.push(AuditViolation::EdgeCountDrift {
            tracked: config.edge_count(),
            recomputed: edges,
        });
    }
    let underflows = config
        .edge_count()
        .checked_add(3)
        .is_none_or(|held| held > 3 * n as u64);
    if underflows {
        violations.push(AuditViolation::PerimeterUnderflow {
            particles: n,
            tracked_edges: config.edge_count(),
        });
    }
    if hetero != config.hetero_edge_count() {
        violations.push(AuditViolation::HeteroCountDrift {
            tracked: config.hetero_edge_count(),
            recomputed: hetero,
        });
    }
    let connected = config.is_connected();
    if !connected {
        violations.push(AuditViolation::Disconnected);
    }
    let holes = hole_count_reference(config);
    if connected && holes == 0 && n > 1 {
        let identity = (3 * n as u64).saturating_sub(edges + 3);
        let walk = config.boundary_walk_length();
        if identity != walk {
            violations.push(AuditViolation::PerimeterMismatch { identity, walk });
        }
    }
    AuditReport {
        particles: n,
        edges,
        hetero_edges: hetero,
        connected,
        holes,
        violations,
    }
}

/// Asserts the audit equals the reference, and returns the hole count.
fn check(config: &Configuration, what: &str) -> usize {
    let report = config.audit();
    assert_eq!(report, audit_reference(config), "{what}");
    assert_eq!(config.hole_count(), report.holes, "{what}");
    assert_eq!(config.has_holes(), report.holes > 0, "{what}");
    report.holes
}

#[test]
fn every_shape_up_to_seven_under_every_bicoloring() {
    let (mut checked, mut holey) = (0u64, 0u64);
    for n in 1..=7 {
        for shape in enumerate::shapes(n) {
            // On a consistent state only `h(σ)` depends on the coloring, so
            // the reference runs once per shape and the recount per coloring.
            let mono = Configuration::new(shape.iter().map(|&m| (m, Color::C1))).unwrap();
            if check(&mono, &format!("{shape:?}")) > 0 {
                holey += 1;
            }
            let mut expected = mono.audit();
            for n1 in 0..=n {
                for coloring in enumerate::bicolorings(&shape, n1) {
                    let config = Configuration::new(coloring).unwrap();
                    expected.hetero_edges = config.recount().1;
                    assert_eq!(config.audit(), expected, "{shape:?}, {n1} of c1");
                    checked += 1;
                }
            }
        }
    }
    // Fixed polyhexes weighted by 2ⁿ colorings: 2 + 12 + 88 + 704 + …
    assert!(checked > 500_000, "enumeration looks truncated: {checked}");
    assert!(holey > 0, "no shape with a hole was enumerated");
}

#[test]
fn random_blobs_before_and_after_chain_runs() {
    let mut holey = 0;
    for n in [20usize, 100, 1000] {
        for (swaps, seed) in [(true, 1u64), (false, 2)] {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + n as u64);
            let nodes = construct::random_blob(n, &mut rng);
            let mut config =
                Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap();
            let bias = Bias::new(4.0, 4.0).unwrap();
            let chain = if swaps {
                SeparationChain::new(bias)
            } else {
                SeparationChain::without_swaps(bias)
            };
            let mut done = 0;
            for at in [0, 10_000, 1_000_000] {
                chain.run(&mut config, at - done, &mut rng);
                done = at;
                if check(&config, &format!("n={n} swaps={swaps} at step {at}")) > 0 {
                    holey += 1;
                }
            }
        }
    }
    assert!(holey > 0, "no blob had a hole");
}

#[test]
fn hand_built_disconnected_holey_and_diagonal_states() {
    let c = |nodes: Vec<Node>| {
        let n = nodes.len();
        Configuration::new(
            nodes
                .into_iter()
                .enumerate()
                .map(|(i, node)| (node, Color::new((i % 3) as u8))),
        )
        .unwrap_or_else(|e| panic!("{n} nodes: {e}"))
    };
    let ring = |r: u32, center: Node| -> Vec<Node> {
        Region::hexagon(r + 1)
            .iter()
            .filter(|&m| !Region::hexagon(r).contains(m))
            .map(|m| m + center)
            .collect()
    };
    let mut cases: Vec<(&str, Vec<Node>)> = vec![
        ("single particle", vec![Node::ORIGIN]),
        ("far pair", vec![Node::new(0, 0), Node::new(40, -25)]),
        (
            "NW diagonal line",
            (0..200).map(|i| Node::new(-i, i)).collect(),
        ),
        (
            "SE diagonal line",
            (0..200).map(|i| Node::new(i, -i)).collect(),
        ),
        ("NE column", (0..200).map(|i| Node::new(0, i)).collect()),
        ("E row", (0..200).map(|i| Node::new(i, 0)).collect()),
        ("6-ring", ring(0, Node::ORIGIN)),
        ("ring of radius 3", ring(2, Node::new(7, -3))),
    ];
    // Two disjoint rings: two holes, disconnected.
    let mut two_rings = ring(0, Node::ORIGIN);
    two_rings.extend(ring(1, Node::new(10, 0)));
    cases.push(("two rings", two_rings));
    // Two 6-rings sharing a node: two holes, connected.
    let mut twin = ring(0, Node::ORIGIN);
    twin.extend(
        ring(0, Node::new(2, 0))
            .into_iter()
            .filter(|&m| m != Node::new(1, 0)),
    );
    cases.push(("twin rings", twin));
    // A ring with one particle inside its hole: the hole is not a
    // component of the complement any more, and the system disconnects.
    let mut nested = ring(1, Node::ORIGIN);
    nested.push(Node::ORIGIN);
    cases.push(("particle inside a ring", nested));
    // A hexagon with a ring-shaped hole.
    let hollow: Vec<Node> = Region::hexagon(4)
        .iter()
        .filter(|&m| !ring(1, Node::ORIGIN).contains(&m))
        .collect();
    cases.push(("hexagon with an annular hole", hollow));

    let mut holes = 0;
    for (what, nodes) in cases {
        holes += check(&c(nodes), what);
    }
    assert!(holes >= 6, "hand-built holes went missing: {holes}");
}

#[test]
fn counter_faults_are_reported_in_order() {
    let states = [
        construct::hexagonal_bicolored(30, 15).unwrap(),
        Configuration::new(
            Region::hexagon(3)
                .iter()
                .filter(|&m| m != Node::ORIGIN)
                .map(|m| (m, Color::C2)),
        )
        .unwrap(),
        Configuration::new([(Node::new(0, 0), Color::C1), (Node::new(9, 9), Color::C2)]).unwrap(),
    ];
    for state in states {
        let (e, h) = (state.edge_count(), state.hetero_edge_count());
        let n = state.len() as u64;
        for (edges, hetero) in [
            (e + 1, h + 2),
            (e.saturating_sub(1), h),
            (e, h + 1),
            (u64::MAX, 0),
            (3 * n - 2, h),
            (3 * n - 3, h),
        ] {
            let mut config = state.clone();
            config.inject_counter_fault(edges, hetero);
            check(&config, &format!("fault ({edges}, {hetero}) on n={n}"));
        }
    }
}
