//! `bench chaos`: fault-plane cost and convergence.
//!
//! Two experiments:
//!
//! 1. **Fault-rate sweep** — seeded random schedules with 0..=3 crash–
//!    restart pairs (plus matching link flaps) on a 4×4 grid. For each
//!    fault rate: transmissions relative to the fault-free baseline (the
//!    price of heartbeats, refresh rounds, and re-driven walks), drop
//!    counts by reason, convergence-to-oracle violations (must be 0), and
//!    recovery latency (sim-time from the last fault healing to network
//!    quiescence).
//!
//! 2. **Backend determinism** — one scripted crash/partition scenario run
//!    under Heap, Wheel, and Shard{2}; the event-trace journals must be
//!    byte-identical, and the shared hash is emitted as `"hash": ...`.
//!    The scenario is identical in both modes and its hash is pinned
//!    by `tests/chaos.rs`.

use super::Report;
use crate::common::sym;
use crate::experiments::joins::JOIN2;
use crate::json::{obj, Json};
use sensorlog_core::deploy::{DeployConfig, Deployment};
use sensorlog_core::invariants;
use sensorlog_core::runtime::{FaultPlaneCfg, RtConfig};
use sensorlog_core::workload::UniformStreams;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_netsim::{FaultSchedule, NodeId, RandomFaults, Sched, SimConfig, Topology};

const HEAL_BY: u64 = 14_000;
const ACTIVE_UNTIL: u64 = 26_000;

fn deployment(seed: u64, sched: Sched) -> Deployment {
    let cfg = DeployConfig {
        rt: RtConfig {
            faults: Some(FaultPlaneCfg {
                active_until: ACTIVE_UNTIL,
                ..FaultPlaneCfg::default()
            }),
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed,
            sched,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    Deployment::new(
        JOIN2,
        BuiltinRegistry::standard(),
        Topology::square_grid(4),
        cfg,
    )
    .unwrap()
}

fn churn(topo: &Topology, seed: u64) -> Vec<sensorlog_core::deploy::WorkloadEvent> {
    UniformStreams {
        preds: vec![sym("r1"), sym("r2")],
        interval: 4_000,
        duration: 12_000,
        delete_fraction: 0.3,
        delete_lag: 5_000,
        groups: 6,
        seed,
    }
    .events(topo)
}

/// One seeded chaos run; `crashes == 0` is the fault-plane-on baseline
/// (heartbeats and refresh still run — the overhead ratio isolates what the
/// *faults* cost on top of the plane itself). Returns the sweep row and
/// the run's transmissions.
fn sweep_run(
    seed: u64,
    crashes: usize,
    flaps: usize,
    baseline_tx: Option<u64>,
) -> Result<(Json, u64), String> {
    let topo = Topology::square_grid(4);
    let mut d = deployment(seed, Sched::Heap);
    if crashes + flaps > 0 {
        d.set_fault_schedule(FaultSchedule::random(
            seed,
            &topo,
            RandomFaults {
                crashes,
                link_flaps: flaps,
                start: 1_000,
                heal_by: HEAL_BY,
            },
        ));
    }
    d.schedule_all(churn(&topo, seed));
    d.run(240_000);
    assert!(d.sim.is_quiescent(), "chaos sweep run must quiesce");
    let conv = invariants::check_convergence(&d, &[sym("q")]);
    if !conv.violations.is_empty() {
        return Err("convergence violations survived healing".into());
    }
    let tx = d.metrics().total_tx();
    // Recovery latency: healing completes at HEAL_BY; the plane idles once
    // the last refresh round past `active_until` drains. Everything after
    // the heal is repair + residual protocol traffic.
    let recovery_ms = if crashes + flaps > 0 {
        d.sim.now().saturating_sub(HEAL_BY)
    } else {
        0
    };
    let tx_ratio = baseline_tx.map_or(1.0, |b| tx as f64 / b as f64);
    let drops = d.metrics().lost_by_reason();
    let row = obj! {
        "crashes" => crashes,
        "link_flaps" => flaps,
        "tx" => tx,
        "tx_ratio" => Json::fixed(tx_ratio, 2),
        "drops_loss" => drops[0],
        "drops_dead_node" => drops[1],
        "drops_retries" => drops[2],
        "drops_partition" => drops[3],
        "convergence_violations" => conv.violations.len(),
        "recovery_ms" => recovery_ms,
    };
    Ok((row, tx))
}

/// The scripted cross-backend scenario: crash + restart of one node and one
/// link flap, timestamps chosen off the shard lookahead grid.
fn backend_run(sched: Sched) -> (u64, usize, usize) {
    let topo = Topology::square_grid(4);
    let mut d = deployment(42, sched);
    let journal = d.attach_journal();
    d.set_fault_schedule(
        FaultSchedule::new()
            .crash(1_337, NodeId(5))
            .restart(2_911, NodeId(5))
            .link_down(703, NodeId(1), NodeId(2))
            .link_up(4_441, NodeId(1), NodeId(2)),
    );
    d.schedule_all(churn(&topo, 42));
    d.run(240_000);
    assert!(d.sim.is_quiescent(), "backend scenario must quiesce");
    let conv = invariants::check_convergence(&d, &[sym("q")]);
    let j = journal.take();
    (j.content_hash(), j.records.len(), conv.violations.len())
}

pub fn run(quick: bool) -> Result<Report, String> {
    // Experiment 1: fault-rate sweep.
    let rates: &[(usize, usize)] = if quick {
        &[(0, 0), (2, 2)]
    } else {
        &[(0, 0), (1, 1), (2, 2), (3, 2)]
    };
    let mut sweep = Vec::new();
    let mut baseline_tx = None;
    for &(crashes, flaps) in rates {
        let (row, tx) = sweep_run(101, crashes, flaps, baseline_tx)?;
        if crashes + flaps == 0 {
            baseline_tx = Some(tx);
        }
        sweep.push(row);
    }

    // Experiment 2: backend determinism (same scenario in quick and full
    // mode — the pinned hash anchors both).
    let (heap_hash, heap_records, heap_viol) = backend_run(Sched::Heap);
    let (wheel_hash, _, _) = backend_run(Sched::Wheel);
    let (shard_hash, _, _) = backend_run(Sched::Shard { workers: 2 });
    if heap_hash != wheel_hash || heap_hash != shard_hash {
        return Err(format!(
            "backend journals diverge (heap {heap_hash:016x}, wheel {wheel_hash:016x}, \
             shard {shard_hash:016x})"
        ));
    }
    if heap_viol > 0 {
        return Err("convergence violations survived healing".into());
    }
    let summary = format!(
        "chaos OK: {} sweep rows, backend hash {heap_hash:016x}",
        sweep.len()
    );
    let doc = obj! {
        "bench" => "chaos",
        "quick" => quick,
        "grid" => 16u32,
        "heal_by_ms" => HEAL_BY,
        "active_until_ms" => ACTIVE_UNTIL,
        "fault_sweep" => sweep,
        "backend_determinism" => obj! {
            "hash" => format!("{heap_hash:016x}"),
            "records" => heap_records,
            "backends" => vec!["heap", "wheel", "shard2"],
        },
    };
    Ok(Report {
        artifact: doc.render(),
        summary,
    })
}
