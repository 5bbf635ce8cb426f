//! `bench diag`: static-bound tightness sweep.
//!
//! Compares the legacy `S·Σ` memory bounds (`diag::memory_bounds`) against
//! the frontier-width abstract interpreter (`absint::frontier`) on the two
//! reference XY programs (logicH / logicJ) over small grids, with a real
//! loss-free deployment per case supplying the observed side:
//!
//! * **distinct live tuples** per predicate at convergence (the quantity
//!   both bounds promise to dominate network-wide);
//! * **max per-node peak** stored tuples (what `check_static_bounds`
//!   validates against);
//! * **tightness** — bound ÷ distinct live tuples, the sweep's headline.
//!
//! The suite fails unless, for every finite predicate: the
//! frontier bound is sound (≥ live, ≥ per-node peak), no looser than the
//! legacy bound, and within 10× of the observed live count — the paper's
//! Sec. V bounds made actionable. A windowed non-XY recursion (the mirror
//! example) must flip from legacy-Unbounded to a finite frontier bound.
//! `--quick` runs the 5×5 grid only; the committed artifact also covers
//! 8×8.

use super::Report;
use crate::experiments::sptree::{pa_deployment, LOGIC_H, LOGIC_J};
use crate::json::{obj, Json};
use sensorlog_core::workload::graph_edges;
use sensorlog_core::Provenance;
use sensorlog_logic::absint::frontier;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::diag::{memory_bounds, BoundParams};
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SimConfig, Topology};

/// Windowed non-XY recursion: finite only under the frontier pass's
/// windowed Herbrand domains (legacy reports Unbounded).
const MIRROR: &str = r#"
    .base s.
    .window s 60000.
    .output m.
    m(pair(A, B)) :- s(A, B).
    m(pair(B, A)) :- m(pair(A, B)).
"#;

struct PredRow {
    pred: String,
    legacy: Option<u64>,
    frontier: Option<u64>,
    live: u64,
    peak_node: u64,
}

struct Case {
    label: String,
    nodes: u64,
    rows: Vec<PredRow>,
}

fn run_grid_case(label: &str, src: &str, m: u32) -> Case {
    let topo = Topology::square_grid(m);
    let sim = SimConfig {
        seed: 17,
        ..SimConfig::default()
    };
    let mut d = pa_deployment(src, &topo, sim, Provenance::disabled());
    d.schedule_all(graph_edges(&topo, 100, 200));
    d.run(4_000_000);

    let params = BoundParams {
        nodes: d.sim.topology().len() as u64,
        default_events: 0,
        events: d.injected_events().clone(),
    };
    let legacy = memory_bounds(&d.prog.analysis);
    let fr = frontier(&d.prog.analysis);
    let edb = d.prog.analysis.program.edb_preds();

    let mut rows = Vec::new();
    let mut preds: Vec<Symbol> = legacy.keys().copied().collect();
    preds.sort_by_key(|p| p.as_str());
    for p in preds {
        let live = if edb.contains(&p) {
            d.injected_events().get(&p).copied().unwrap_or(0)
        } else {
            d.results(p).len() as u64
        };
        let peak_node = d
            .sim
            .topology()
            .nodes()
            .filter_map(|id| d.sim.node(id).peak_pred_stored.get(&p).copied())
            .max()
            .unwrap_or(0) as u64;
        rows.push(PredRow {
            pred: p.to_string(),
            legacy: legacy.get(&p).and_then(|b| b.eval(&params)),
            frontier: fr.bounds.get(&p).and_then(|b| b.eval(&params)),
            live,
            peak_node,
        });
    }
    Case {
        label: format!("{label}-{m}x{m}"),
        nodes: (m * m) as u64,
        rows,
    }
}

/// The gate every finite predicate must pass; one message per breach.
fn gate_failures(cases: &[Case]) -> Vec<String> {
    let mut failures = Vec::new();
    for c in cases {
        for r in &c.rows {
            let Some(f) = r.frontier else {
                failures.push(format!(
                    "{} `{}` has no finite frontier bound",
                    c.label, r.pred
                ));
                continue;
            };
            if let Some(l) = r.legacy {
                if f > l {
                    failures.push(format!(
                        "{} `{}` frontier {f} looser than legacy {l}",
                        c.label, r.pred
                    ));
                }
            }
            if r.live > 0 && f < r.live {
                failures.push(format!(
                    "{} `{}` frontier {f} below {} live tuples — unsound",
                    c.label, r.pred, r.live
                ));
            }
            if f < r.peak_node {
                failures.push(format!(
                    "{} `{}` frontier {f} below per-node peak {} — unsound",
                    c.label, r.pred, r.peak_node
                ));
            }
            // The acceptance target: on these grid examples, the bound is
            // within 10× of what the network actually derived.
            if r.live > 0 && f > 10 * r.live {
                failures.push(format!(
                    "{} `{}` frontier {f} over 10x the {} live tuples",
                    c.label, r.pred, r.live
                ));
            }
        }
    }
    failures
}

/// `bound ÷ live` as an integer ratio, `None` when nothing is live.
fn tightness(bound: Option<u64>, live: u64) -> Option<u64> {
    bound.filter(|_| live > 0).map(|b| b / live)
}

pub fn run(quick: bool) -> Result<Report, String> {
    let grids: &[u32] = if quick { &[5] } else { &[5, 8] };
    let mut cases = Vec::new();
    for &m in grids {
        cases.push(run_grid_case("logicH", LOGIC_H, m));
        cases.push(run_grid_case("logicJ", LOGIC_J, m));
    }
    let mut failures = gate_failures(&cases);

    // Windowed non-XY recursion: must flip Unbounded → finite.
    let mirror_prog = sensorlog_logic::parser::parse_program(MIRROR).expect("mirror parses");
    let mirror_an = sensorlog_logic::analyze::analyze(&mirror_prog, &BuiltinRegistry::standard())
        .expect("mirror analyzes");
    let mirror_params = BoundParams {
        nodes: 16,
        default_events: 20,
        events: Default::default(),
    };
    let m_sym = Symbol::intern("m");
    let mirror_legacy = memory_bounds(&mirror_an)
        .get(&m_sym)
        .and_then(|b| b.eval(&mirror_params));
    let mirror_frontier = frontier(&mirror_an)
        .bounds
        .get(&m_sym)
        .and_then(|b| b.eval(&mirror_params));
    if mirror_legacy.is_some() {
        failures.push("mirror `m` unexpectedly finite under the legacy pass".into());
    }
    let Some(mf) = mirror_frontier else {
        failures.push("mirror `m` not finite under the frontier pass".into());
        return Err(failures.join("\n"));
    };
    if !failures.is_empty() {
        failures.push("tightness/soundness gate failed".into());
        return Err(failures.join("\n"));
    }

    let bound = |v: Option<u64>| v.map_or_else(|| Json::from("unbounded"), Json::from);
    let case_rows: Vec<Json> = cases
        .iter()
        .map(|c| {
            let preds: Vec<Json> = c
                .rows
                .iter()
                .map(|r| {
                    obj! {
                        "pred" => r.pred.as_str(),
                        "legacy" => bound(r.legacy),
                        "frontier" => bound(r.frontier),
                        "live" => r.live,
                        "peak_node" => r.peak_node,
                        "tightness" => tightness(r.frontier, r.live),
                        "tightness_legacy" => tightness(r.legacy, r.live),
                    }
                })
                .collect();
            obj! { "case" => c.label.as_str(), "nodes" => c.nodes, "preds" => preds }
        })
        .collect();
    let doc = obj! {
        "bench" => "diag",
        "quick" => quick,
        "cases" => case_rows,
        "mirror" => obj! { "legacy" => "unbounded", "frontier" => mf },
    };

    let mut summary = String::new();
    for c in &cases {
        let worst = c
            .rows
            .iter()
            .filter_map(|r| tightness(r.frontier, r.live))
            .max()
            .unwrap_or(0);
        summary += &format!("diag {}: worst tightness {worst}x\n", c.label);
    }
    summary += &format!("diag OK: mirror m bound {mf} (legacy unbounded)");
    Ok(Report {
        artifact: doc.render(),
        summary,
    })
}
