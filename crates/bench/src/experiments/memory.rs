//! Table 1: per-node memory — peak stored replicas and derivations for the
//! three example programs (Sec. V "Memory Requirements": "the total number
//! of tuples stored at any node is at most 2 to 3 times its degree" for the
//! shortest-path program).

use crate::common::{run_case, sym};
use crate::experiments::sptree::LOGIC_J;
use crate::table::Table;
use sensorlog_core::deploy::{DeployConfig, Deployment};
use sensorlog_core::workload::{graph_edges, UniformStreams};
use sensorlog_core::{PassMode, RtConfig, Strategy};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_netsim::{SimConfig, Topology};

/// Table 1 rows: program, grid, peak replicas (max node), peak derivations
/// (max node), peak total items.
pub fn table1() -> Table {
    let mut t = Table::new(
        "table1",
        "per-node memory: peak stored items under PA",
        &[
            "program",
            "grid",
            "peak replicas",
            "peak derivs",
            "peak total",
            "static bound",
        ],
    );
    let fmt_bound = |b: Option<u64>| b.map_or_else(|| "unbounded".into(), |v| v.to_string());

    // Two-stream join on 8x8.
    {
        let topo = Topology::square_grid(8);
        let events = UniformStreams {
            preds: vec![sym("r1"), sym("r2")],
            interval: 8_000,
            duration: 16_000,
            delete_fraction: 0.0,
            delete_lag: 0,
            groups: 32,
            seed: 9,
        }
        .events(&topo);
        let p = run_case(
            ".output q.\nq(X, Y) :- r1(N1, X, K), r2(N2, Y, K).\n",
            topo,
            Strategy::Perpendicular { band_width: 1.0 },
            PassMode::OnePass,
            SimConfig::default(),
            None,
            events,
            sym("q"),
            30_000_000,
        );
        assert_dominates(&p, "join2");
        t.row(vec![
            "join2".into(),
            "8x8".into(),
            p.peak_replicas.to_string(),
            p.peak_derivations.to_string(),
            p.peak_node_memory.to_string(),
            fmt_bound(p.static_bound_total),
        ]);
    }

    // Negation query on 8x8 (reuse fig10 at frac 0 shape via a quick run).
    {
        let topo = Topology::square_grid(8);
        let events = UniformStreams {
            preds: vec![sym("sight"), sym("supp")],
            interval: 10_000,
            duration: 20_000,
            delete_fraction: 0.25,
            delete_lag: 30_000,
            groups: 16,
            seed: 10,
        }
        .events(&topo);
        let p = run_case(
            r#"
            .output alert.
            cov(V, K) :- sight(N, V, K), supp(N, S, K).
            alert(V, K) :- not cov(V, K), sight(N, V, K).
            "#,
            topo,
            Strategy::Perpendicular { band_width: 1.0 },
            PassMode::OnePass,
            SimConfig::default(),
            None,
            events,
            sym("alert"),
            60_000_000,
        );
        assert_dominates(&p, "uncov");
        t.row(vec![
            "uncov".into(),
            "8x8".into(),
            p.peak_replicas.to_string(),
            p.peak_derivations.to_string(),
            p.peak_node_memory.to_string(),
            fmt_bound(p.static_bound_total),
        ]);
    }

    // Shortest-path tree (logicJ) on 4x4 with detailed per-node split.
    {
        let topo = Topology::square_grid(4);
        let cfg = DeployConfig {
            rt: RtConfig {
                strategy: Strategy::Perpendicular { band_width: 1.0 },
                ..RtConfig::default()
            },
            ..DeployConfig::default()
        };
        let mut d =
            Deployment::new(LOGIC_J, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
        d.schedule_all(graph_edges(&topo, 100, 200));
        d.run(200_000_000);
        let stats = d.node_stats();
        let max_rep = stats.iter().map(|s| s.peak_replicas).max().unwrap_or(0);
        let max_der = stats.iter().map(|s| s.peak_derivations).max().unwrap_or(0);
        let report = sensorlog_core::invariants::check_static_bounds(&d);
        assert!(report.ok(), "logicJ: static bounds violated: {report}");
        let bound = crate::common::static_bound_total(&d);
        if let Some(bound) = bound {
            assert!(
                d.peak_node_memory() as u64 <= bound,
                "logicJ: peak {} exceeds static bound {bound}",
                d.peak_node_memory()
            );
        }
        t.row(vec![
            "logicJ".into(),
            "4x4".into(),
            max_rep.to_string(),
            max_der.to_string(),
            d.peak_node_memory().to_string(),
            fmt_bound(bound),
        ]);
    }
    t
}

/// The observed per-node peak must sit under the static ceiling whenever
/// the analyzer derives a finite one — the bench's runtime half of the
/// `sensorlog check` memory-bound cross-validation.
fn assert_dominates(p: &crate::common::RunPoint, label: &str) {
    if let Some(bound) = p.static_bound_total {
        assert!(
            p.peak_node_memory as u64 <= bound,
            "{label}: observed peak {} exceeds static bound {bound}",
            p.peak_node_memory
        );
    }
}
