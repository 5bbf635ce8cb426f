//! `bench smoke`: one small, fast deployment with telemetry enabled,
//! exported as JSONL snapshot records, plus a golden check that the
//! snapshot schema hasn't drifted.
//!
//! It proves the telemetry pipeline end-to-end (deploy → instrument →
//! snapshot → JSONL) in a few hundred milliseconds, and fails if either
//! the emitted record schema diverges from
//! `crates/bench/golden/snapshot_schema.txt` or the run produced an
//! implausibly empty snapshot.

use super::Report;
use crate::common::run_case;
use crate::experiments::joins::JOIN2;
use sensorlog_core::workload::UniformStreams;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SimConfig, Topology};
use sensorlog_telemetry::Snapshot;

const GOLDEN_SCHEMA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/snapshot_schema.txt");

pub fn run(quick: bool) -> Result<Report, String> {
    // Golden check first: schema drift should fail even if the run would.
    let want = std::fs::read_to_string(GOLDEN_SCHEMA)
        .map_err(|e| format!("cannot read golden schema {GOLDEN_SCHEMA}: {e}"))?;
    let got = Snapshot::schema_fingerprint();
    if got != want {
        return Err(format!(
            "snapshot schema drifted from golden file.\n\
             If the change is intentional, update {GOLDEN_SCHEMA}.\n\
             --- golden ---\n{want}--- current ---\n{got}"
        ));
    }

    let m: u32 = if quick { 4 } else { 8 };
    let topo = Topology::square_grid(m);
    let events = UniformStreams {
        preds: vec![Symbol::intern("r1"), Symbol::intern("r2")],
        interval: 8_000,
        duration: 16_000,
        delete_fraction: 0.0,
        delete_lag: 0,
        groups: m * m * 2,
        seed: 41 + m as u64,
    }
    .events(&topo);
    let point = run_case(
        JOIN2,
        topo,
        Strategy::Perpendicular { band_width: 1.0 },
        PassMode::OnePass,
        SimConfig::default(),
        None,
        events,
        Symbol::intern("q"),
        30_000_000,
    );

    let snap = &point.snapshot;
    let plausible = point.total_tx > 0
        && !snap.pred_scopes().is_empty()
        && snap.phase("sim.deliver").is_some()
        && snap.merged_hist("tx_bytes").is_some();
    if !plausible {
        return Err(format!(
            "snapshot implausibly empty (tx={}, preds={:?})",
            point.total_tx,
            snap.pred_scopes()
        ));
    }
    Ok(Report {
        artifact: snap.to_jsonl(),
        summary: format!(
            "smoke OK: m={m} tx={} counters={} hists={} phases={}",
            point.total_tx,
            snap.counters.len(),
            snap.hists.len(),
            snap.phases.len()
        ),
    })
}
