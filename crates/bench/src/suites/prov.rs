//! `bench prov`: provenance-plane overhead sweep.
//!
//! One loss-free logicH deployment (the Example 3 shortest-path tree) run
//! twice — provenance disabled, then enabled — on the same seed. The two
//! journals must be byte-identical (the pure-observer contract of
//! `tests/trace_stability.rs`, enforced here as a suite failure), so
//! the delta between the runs is exactly what the recording plane costs:
//!
//! * **wall overhead** — enabled wall time over disabled wall time;
//! * **record volume** — raw records captured, JSONL bytes, and both
//!   normalized per derived result tuple;
//! * **query cost** — materializing the [`ProvDag`] and answering one
//!   `why` over the largest run, timed separately (paid only on query,
//!   never during the run).
//!
//! The enabled run must also *prove* a sampled derived tuple end-to-end
//! (DAG build → `why` → non-empty critical path), so the smoke doubles as
//! an explain regression. `--quick` shrinks the grid to 50 nodes for CI;
//! the committed `BENCH_prov.json` comes from the full 200-node run.

use super::Report;
use crate::experiments::sptree::{pa_deployment, LOGIC_H};
use crate::json::{obj, Json};
use sensorlog_core::prov::{to_jsonl, Provenance};
use sensorlog_core::workload::graph_edges;
use sensorlog_core::ProvRecord;
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SimConfig, Topology};
use sensorlog_provenance::{critical_path, ProofNode, ProvDag};
use std::time::Instant;

struct Run {
    wall_s: f64,
    hash: u64,
    journal_records: usize,
    results: usize,
    prov_bytes: usize,
    records_log: Vec<ProvRecord>,
}

fn run_case(cols: u32, rows: u32, horizon: u64, enabled: bool) -> Run {
    let topo = Topology::grid(cols, rows);
    let provenance = if enabled {
        Provenance::enabled()
    } else {
        Provenance::disabled()
    };
    // Loss-free: a lossy tree only partially converges, which would make
    // the per-result normalization meaningless. The pure-observer journal
    // identity below holds at any loss rate regardless.
    let sim = SimConfig {
        seed: 17,
        ..SimConfig::default()
    };
    let mut d = pa_deployment(LOGIC_H, &topo, sim, provenance);
    let journal = d.attach_journal();
    d.schedule_all(graph_edges(&topo, 100, 200));
    let t0 = Instant::now();
    d.run(horizon);
    let wall_s = t0.elapsed().as_secs_f64();
    let j = journal.take();
    let results = d.results(Symbol::intern("h")).len();
    let records_log = d.provenance_records();
    let prov_bytes = if records_log.is_empty() {
        0
    } else {
        to_jsonl(&records_log).len()
    };
    Run {
        wall_s,
        hash: j.content_hash(),
        journal_records: j.records.len(),
        results,
        prov_bytes,
        records_log,
    }
}

pub fn run(quick: bool) -> Result<Report, String> {
    // 50 nodes quick (the CI smoke), 98 nodes full (the committed
    // artifact). Loss-free logicH convergence cost grows superlinearly
    // with grid depth (hp churn at every tree level), so the full grid
    // stays modest to keep the artifact reproducible in minutes.
    let (cols, rows): (u32, u32) = if quick { (10, 5) } else { (14, 7) };
    let horizon = 2_000_000u64;

    let off = run_case(cols, rows, horizon, false);
    eprintln!(
        "prov off: wall {:.2}s, {} journal records, {} results",
        off.wall_s, off.journal_records, off.results
    );
    let on = run_case(cols, rows, horizon, true);
    eprintln!(
        "prov on:  wall {:.2}s, {} prov records ({} bytes)",
        on.wall_s,
        on.records_log.len(),
        on.prov_bytes
    );

    if on.hash != off.hash || on.journal_records != off.journal_records {
        return Err(format!(
            "enabled run perturbed the journal \
             ({} records, hash {:016x} vs {} / {:016x}) — the plane is \
             supposed to be a pure observer",
            on.journal_records, on.hash, off.journal_records, off.hash
        ));
    }
    if !off.records_log.is_empty() {
        return Err(format!(
            "disabled plane captured {} records",
            off.records_log.len()
        ));
    }
    if on.records_log.is_empty() || on.results == 0 {
        return Err("enabled run captured nothing to measure".into());
    }

    // Query cost + explain regression: build the DAG, prove one derived
    // tuple, and require a causally ordered critical path.
    let t0 = Instant::now();
    let dag = ProvDag::build(&on.records_log);
    let build_s = t0.elapsed().as_secs_f64();
    let h = Symbol::intern("h");
    let sample = dag
        .live_tuples(h)
        .last()
        .map(|t| (*t).clone())
        .ok_or("no live h tuple in the DAG")?;
    let t0 = Instant::now();
    let proof = dag
        .why(h, &sample)
        .ok_or_else(|| format!("live tuple h{sample} has no proof"))?;
    let why_s = t0.elapsed().as_secs_f64();
    let path = critical_path(&proof);
    if path.is_empty() || path.windows(2).any(|w| w[0].finish_at > w[1].finish_at) {
        return Err(format!(
            "critical path of h{sample} is not causally ordered"
        ));
    }

    let overhead = if off.wall_s > 0.0 {
        on.wall_s / off.wall_s
    } else {
        1.0
    };
    let per_result = on.records_log.len() as f64 / on.results as f64;
    let bytes_per_result = on.prov_bytes as f64 / on.results as f64;

    let doc = obj! {
        "bench" => "prov",
        "quick" => quick,
        "nodes" => cols as u64 * rows as u64,
        "grid" => vec![cols, rows],
        "horizon_ms" => horizon,
        "journal" => obj! {
            "records" => off.journal_records,
            "hash" => format!("{:016x}", off.hash),
            "identical_off_vs_on" => true,
        },
        "off" => obj! { "wall_s" => Json::fixed(off.wall_s, 3) },
        "on" => obj! {
            "wall_s" => Json::fixed(on.wall_s, 3),
            "prov_records" => on.records_log.len(),
            "prov_jsonl_bytes" => on.prov_bytes,
        },
        "results" => on.results,
        "records_per_result" => Json::fixed(per_result, 1),
        "bytes_per_result" => Json::fixed(bytes_per_result, 1),
        "wall_overhead" => Json::fixed(overhead, 3),
        "dag_build_s" => Json::fixed(build_s, 3),
        "why_s" => Json::fixed(why_s, 4),
        "sampled_proof" => obj! {
            "tuple" => format!("h{sample}"),
            "depth" => proof_depth(&proof),
            "critical_steps" => path.len(),
        },
    };
    Ok(Report {
        artifact: doc.render(),
        summary: format!(
            "prov OK: {} records ({per_result:.1}/result, {bytes_per_result:.0} B/result), \
             wall x{overhead:.2}, proof depth {}",
            on.records_log.len(),
            proof_depth(&proof)
        ),
    })
}

fn proof_depth(p: &ProofNode) -> usize {
    1 + p
        .premises
        .iter()
        .map(|e| proof_depth(&e.premise))
        .max()
        .unwrap_or(0)
}
