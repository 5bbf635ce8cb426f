//! Fig. 8: the shortest-path-tree programs (Example 3) vs. the procedural
//! flood baseline — total messages and convergence time vs. network size.
//!
//! Three contenders:
//! * `logicH` — the paper's Example 3 program, verbatim;
//! * `logicJ` — the improved program the paper references in Secs. V/VI:
//!   the per-edge argument of `h` is dropped (`j(y, d)` = "y is at depth
//!   d"), shrinking both the derived tables and the derivation sets;
//! * `flood` — the hand-written BFS beacon protocol (the Kairos-style
//!   procedural comparator).

use crate::table::Table;
use sensorlog_core::deploy::{DeployConfig, Deployment};
use sensorlog_core::workload::graph_edges;
use sensorlog_core::{Provenance, RtConfig, Strategy};
use sensorlog_eval::Database;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{Symbol, Term, Tuple};
use sensorlog_netsim::NodeId;
use sensorlog_netsim::{SimConfig, Topology};
use sensorlog_netstack::flood::run_flood;
use std::collections::BTreeSet;

pub const LOGIC_H: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"#;

pub const LOGIC_J: &str = r#"
    .output j.
    j(0, 0).
    j(X, 1) :- g(0, X).
    jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
    j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
"#;

/// `src` (logicH or logicJ) under PA on `topo`: the deployment every
/// shortest-path-tree bench builds. The caller schedules the `g` edges.
pub(crate) fn pa_deployment(
    src: &str,
    topo: &Topology,
    sim: SimConfig,
    provenance: Provenance,
) -> Deployment {
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim,
        provenance,
        ..DeployConfig::default()
    };
    Deployment::new(src, BuiltinRegistry::standard(), topo.clone(), cfg)
        .expect("bench program compiles")
}

/// Every directed link of `topo` as a `g(a, b)` tuple.
pub(crate) fn edge_tuples(topo: &Topology) -> Vec<Tuple> {
    topo.nodes()
        .flat_map(|a| {
            topo.neighbors(a)
                .iter()
                .map(move |&b| Tuple::new(vec![Term::Int(a.0 as i64), Term::Int(b.0 as i64)]))
        })
        .collect()
}

/// [`edge_tuples`] as a centralized EDB for the `Engine`.
pub(crate) fn edge_edb(topo: &Topology) -> Database {
    let mut edb = Database::new();
    let g = Symbol::intern("g");
    for t in edge_tuples(topo) {
        edb.insert(g, t);
    }
    edb
}

/// Whether every node of the grid `topo` appears in `results` exactly at
/// its BFS depth from corner 0 (x + y), reading the node and depth from
/// columns `pos`.
pub(crate) fn depths_correct(
    topo: &Topology,
    results: &BTreeSet<Tuple>,
    pos: (usize, usize),
) -> bool {
    topo.nodes().all(|node| {
        let (x, y) = topo.grid_coords(node).expect("grid topology");
        let want = (x + y) as i64;
        let mut depths = results
            .iter()
            .filter(|t| t.get(pos.0) == Term::Int(node.0 as i64))
            .map(|t| t.get(pos.1).as_i64().expect("integer depth"))
            .peekable();
        depths.peek().is_some() && depths.all(|d| d == want)
    })
}

/// Run one deductive tree construction; returns (messages, converged-at ms,
/// depths correct?).
fn run_deductive(src: &str, out_pred: &str, m: u32) -> (u64, u64, bool) {
    let topo = Topology::square_grid(m);
    let mut d = pa_deployment(src, &topo, SimConfig::default(), Provenance::disabled());
    d.schedule_all(graph_edges(&topo, 100, 200));
    let converged = d.run(200_000_000);
    let results = d.results(Symbol::intern(out_pred));
    let depth_pos = if out_pred == "h" { (1, 2) } else { (0, 1) };
    let ok = depths_correct(&topo, &results, depth_pos);
    (d.metrics().total_tx(), converged, ok)
}

/// Fig. 8: messages and convergence time for logicH / logicJ / flood.
pub fn fig8() -> Table {
    let mut t = Table::new(
        "fig8",
        "shortest-path tree: messages (and convergence s) vs grid size",
        &[
            "m",
            "logicH msgs",
            "logicH s",
            "logicJ msgs",
            "logicJ s",
            "flood msgs",
            "flood s",
        ],
    );
    for m in [3u32, 4, 5] {
        let (h_msgs, h_t, h_ok) = run_deductive(LOGIC_H, "h", m);
        let (j_msgs, j_t, j_ok) = run_deductive(LOGIC_J, "j", m);
        assert!(h_ok, "logicH wrong tree at m={m}");
        assert!(j_ok, "logicJ wrong tree at m={m}");
        let flood = run_flood(&Topology::square_grid(m), NodeId(0), SimConfig::default());
        t.row(vec![
            m.to_string(),
            h_msgs.to_string(),
            format!("{:.1}", h_t as f64 / 1000.0),
            j_msgs.to_string(),
            format!("{:.1}", j_t as f64 / 1000.0),
            flood.total_messages.to_string(),
            format!("{:.1}", flood.converged_at as f64 / 1000.0),
        ]);
    }
    t
}
