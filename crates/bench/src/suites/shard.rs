//! `bench shard`: region-sharded scheduler scaling curve.
//!
//! One deployment — logicH (the Example 3 shortest-path tree) on a
//! 100k-node grid with the network's own links as the `g` workload — run
//! under the single-wheel oracle and under `Sched::Shard` at 1/2/4/8
//! workers. For every configuration the journal hash must match the
//! oracle byte-for-byte (the determinism contract of
//! `tests/trace_stability.rs`, enforced here too), so the curve compares
//! *execution strategies*, never models.
//!
//! All edges inject simultaneously (spacing 0) so every region has work
//! in every window — id-sequential injection would walk a wavefront
//! through one region at a time and serialize the partition.
//!
//! Two speedup figures, both reported:
//!
//! * **model** — `shard_work_ns / shard_crit_ns`: summed per-region busy
//!   time over the summed per-window critical path (the max busy region
//!   of each window). This is what the 4 workers actually buy — the
//!   parallel speedup a host with ≥ workers cores reaches — measured
//!   from the real windowed execution with worker threads off so
//!   thread-spawn noise never pollutes the busy-time clocks (on a
//!   1-core CI host that is also the only honest configuration). The
//!   acceptance gate (`speedup_at_4_workers ≥ 2`) reads this figure.
//! * **wall** — measured wall-clock against the single-wheel oracle,
//!   per run. The sharded backend wins even single-threaded (k small
//!   wheels with shallow spill tiers beat one wheel holding the whole
//!   network's pending set); on a multi-core host the model factor
//!   stacks on top of it.
//!
//! `--quick` shrinks the grid so CI proves the harness end-to-end (runs,
//! journals match, JSON parses) in seconds; the committed
//! `BENCH_shard.json` comes from a full run.

use super::Report;
use crate::experiments::sptree::{pa_deployment, LOGIC_H};
use crate::json::{obj, Json};
use sensorlog_core::workload::graph_edges;
use sensorlog_core::Provenance;
use sensorlog_netsim::{Sched, SchedStats, SimConfig, Topology};
use std::time::Instant;

struct Run {
    workers: usize,
    wall_s: f64,
    hash: u64,
    records: usize,
    stats: SchedStats,
}

impl Run {
    fn model_speedup(&self) -> f64 {
        if self.stats.shard_crit_ns == 0 {
            1.0
        } else {
            self.stats.shard_work_ns as f64 / self.stats.shard_crit_ns as f64
        }
    }
}

/// One full deployment under `sched`; threading off so the per-region
/// busy-time clocks measure region work, not spawn overhead.
fn run_case(cols: u32, rows: u32, horizon: u64, sched: Sched, label: &str) -> Run {
    let topo = Topology::grid(cols, rows);
    let sim = SimConfig {
        loss_prob: 0.05,
        seed: 17,
        sched,
        ..SimConfig::default()
    };
    let mut d = pa_deployment(LOGIC_H, &topo, sim, Provenance::disabled());
    d.set_shard_threading(false);
    let journal = d.attach_journal();
    d.schedule_all(graph_edges(&topo, 100, 0));
    let t0 = Instant::now();
    d.run(horizon);
    let wall_s = t0.elapsed().as_secs_f64();
    let j = journal.take();
    let run = Run {
        workers: match sched {
            Sched::Shard { workers } => workers,
            _ => 0,
        },
        wall_s,
        hash: j.content_hash(),
        records: j.records.len(),
        stats: d.sched_stats(),
    };
    eprintln!(
        "{label}: wall {wall_s:.2}s, {} records, {} windows, model {:.2}x",
        run.records,
        run.stats.shard_windows,
        run.model_speedup()
    );
    run
}

pub fn run(quick: bool) -> Result<Report, String> {
    // 100_000 nodes full; a 30×20 grid quick. The horizon covers tree
    // convergence after the simultaneous edge injection at t=100.
    let (cols, rows, horizon): (u32, u32, u64) = if quick {
        (30, 20, 400_000)
    } else {
        (400, 250, 4_000_000)
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let baseline = run_case(cols, rows, horizon, Sched::Wheel, "wheel");
    let mut runs: Vec<Run> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let label = format!("shard{workers}");
        let r = run_case(cols, rows, horizon, Sched::Shard { workers }, &label);
        if r.hash != baseline.hash || r.records != baseline.records {
            return Err(format!(
                "{label} journal diverged from the wheel oracle \
                 ({} records, hash {:016x} vs {} / {:016x})",
                r.records, r.hash, baseline.records, baseline.hash
            ));
        }
        runs.push(r);
    }

    let at4 = runs
        .iter()
        .find(|r| r.workers == 4)
        .expect("4-worker run present");
    let speedup_at_4 = at4.model_speedup();
    let wall_at_4 = baseline.wall_s / at4.wall_s;
    if speedup_at_4 < 2.0 && !quick {
        return Err("model speedup at 4 workers below the 2x acceptance gate".into());
    }

    let run_rows: Vec<Json> = runs
        .iter()
        .map(|r| {
            obj! {
                "workers" => r.workers,
                "regions" => r.stats.shard_regions,
                "wall_s" => Json::fixed(r.wall_s, 3),
                "wall_speedup_vs_wheel" => Json::fixed(baseline.wall_s / r.wall_s, 2),
                "model_speedup" => Json::fixed(r.model_speedup(), 2),
                "windows" => r.stats.shard_windows,
                "cross_msgs" => r.stats.shard_cross_msgs,
                "serial_events" => r.stats.shard_serial_events,
                "work_ms" => Json::fixed(r.stats.shard_work_ns as f64 / 1e6, 1),
                "crit_ms" => Json::fixed(r.stats.shard_crit_ns as f64 / 1e6, 1),
                "journal_matches_oracle" => true,
            }
        })
        .collect();
    let doc = obj! {
        "bench" => "shard",
        "quick" => quick,
        "nodes" => cols as u64 * rows as u64,
        "grid" => vec![cols, rows],
        "horizon_ms" => horizon,
        "host_cores" => host_cores,
        "oracle" => obj! {
            "backend" => "wheel",
            "wall_s" => Json::fixed(baseline.wall_s, 3),
            "records" => baseline.records,
            "hash" => format!("{:016x}", baseline.hash),
        },
        "runs" => run_rows,
        "speedup_at_4_workers" => Json::fixed(speedup_at_4, 2),
        "wall_speedup_at_4_workers" => Json::fixed(wall_at_4, 2),
    };
    Ok(Report {
        artifact: doc.render(),
        summary: format!(
            "shard OK: {} runs, model speedup at 4 workers {speedup_at_4:.2}x (wall {wall_at_4:.2}x)",
            runs.len()
        ),
    })
}
