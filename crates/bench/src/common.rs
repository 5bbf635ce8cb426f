//! Shared experiment machinery: one deployment run summarized into the
//! numbers the tables report.

use sensorlog_core::deploy::{DeployConfig, Deployment, WorkloadEvent};
use sensorlog_core::oracle;
use sensorlog_core::{PassMode, RtConfig, Strategy};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SharedSummary, SimConfig, SimTime, Topology, TraceSummary};
use sensorlog_telemetry::{Snapshot, Telemetry};

/// Shorthand for [`Symbol::intern`].
pub(crate) fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

/// Summary of one deployment run.
#[derive(Clone, Debug)]
pub struct RunPoint {
    pub total_tx: u64,
    pub total_bytes: u64,
    pub max_node_load: u64,
    pub imbalance: f64,
    pub energy_uj: f64,
    pub completeness: f64,
    pub soundness: f64,
    pub expected: usize,
    pub peak_node_memory: usize,
    pub peak_replicas: usize,
    pub peak_derivations: usize,
    pub tx_store: u64,
    pub tx_probe: u64,
    pub tx_result: u64,
    pub delivery_ratio: f64,
    pub final_time: SimTime,
    /// Streaming event-trace counters for the run (messages by kind,
    /// drops by reason, timer volume) — see `sensorlog_netsim::trace`.
    pub trace: TraceSummary,
    /// High-water mark of the simulator's pending event queue.
    pub max_queue_depth: usize,
    /// Per-node storage ceiling from the static analyzer (`sensorlog
    /// check`): sum over predicates of twice the derived tuple bound,
    /// evaluated at this run's observed event counts. `None` when any
    /// predicate's bound is unbounded.
    pub static_bound_total: Option<u64>,
    /// Full telemetry export of the run: per-predicate message counters,
    /// per-phase timings (count / wall-ns / sim-ms), and network-wide
    /// histogram rollups. `run_case` always runs with telemetry enabled,
    /// so every experiment point carries its own breakdown.
    pub snapshot: Snapshot,
}

/// The static analyzer's per-node storage ceiling for a finished run:
/// Σ over predicates of 2·T(p), with T(p) the `sensorlog check` tuple
/// bound evaluated at the run's observed per-predicate event counts.
/// `None` if any predicate is statically unbounded.
pub fn static_bound_total(d: &Deployment) -> Option<u64> {
    let params = sensorlog_logic::diag::BoundParams {
        nodes: d.sim.topology().len() as u64,
        default_events: 0,
        events: d.injected_events().clone(),
    };
    sensorlog_logic::absint::frontier(&d.prog.analysis)
        .bounds
        .values()
        .map(|b| b.eval(&params).map(|t| t.saturating_mul(2)))
        .try_fold(0u64, |acc, t| t.map(|t| acc.saturating_add(t)))
}

/// Run `src` on `topo` with the given strategy/config and workload; check
/// against the oracle on `output`.
#[allow(clippy::too_many_arguments)]
pub fn run_case(
    src: &str,
    topo: Topology,
    strategy: Strategy,
    pass_mode: PassMode,
    sim: SimConfig,
    spatial_radius: Option<f64>,
    events: Vec<WorkloadEvent>,
    output: Symbol,
    horizon: SimTime,
) -> RunPoint {
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy,
            pass_mode,
            spatial_radius,
            ..RtConfig::default()
        },
        sim,
        telemetry: Telemetry::enabled(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, cfg)
        .expect("experiment program compiles");
    // Constant-memory trace summary: counters only, no record storage.
    let trace = SharedSummary::new();
    d.sim.set_trace(Box::new(trace.clone()));
    d.schedule_all(events.clone());
    let final_time = d.run(horizon);
    let report = oracle::check(&d, &events, output);
    // Every benchmark run must stay inside the static analyzer's memory
    // and communication envelopes — the bench doubles as a continuous
    // cross-validation of `sensorlog check` (paper Sec. V).
    let bounds = sensorlog_core::invariants::check_static_bounds(&d);
    assert!(bounds.ok(), "static bounds violated in bench run: {bounds}");
    let snapshot = d.telemetry_snapshot();
    // Slack soundness: `diag.bound.slack` is the enforced per-node
    // ceiling 2·T(p) ÷ observed peak per predicate — a value of 0 means
    // some node stored more than the frontier pass promised, i.e. the
    // bound is unsound.
    for g in &snapshot.gauges {
        if g.name == "diag.bound.slack" {
            assert!(
                g.value >= 1,
                "{}: bound slack {} < 1 — static bound unsound",
                g.scope,
                g.value
            );
        }
    }
    let m = d.metrics();
    RunPoint {
        total_tx: m.total_tx(),
        total_bytes: m.total_tx_bytes(),
        max_node_load: m.max_node_load(),
        imbalance: m.imbalance(),
        energy_uj: m.total_energy_uj(),
        completeness: report.completeness(),
        soundness: report.soundness(),
        expected: report.expected,
        peak_node_memory: d.peak_node_memory(),
        peak_replicas: d
            .node_stats()
            .iter()
            .map(|s| s.peak_replicas)
            .max()
            .unwrap_or(0),
        peak_derivations: d
            .node_stats()
            .iter()
            .map(|s| s.peak_derivations)
            .max()
            .unwrap_or(0),
        tx_store: m.tx_of("store"),
        tx_probe: m.tx_of("probe"),
        tx_result: m.tx_of("result"),
        delivery_ratio: m.delivery_ratio(),
        final_time,
        trace: trace.snapshot(),
        max_queue_depth: d.sim.max_queue_depth(),
        static_bound_total: static_bound_total(&d),
        snapshot,
    }
}

/// The strategies compared throughout the join experiments.
pub fn join_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Perpendicular { band_width: 1.0 },
        Strategy::Centroid,
        Strategy::NaiveBroadcast,
        Strategy::LocalStorage,
    ]
}

/// A fully-specified deployment run — everything [`run_case`] needs, owned,
/// so a sweep can be described up front and executed on any worker thread.
#[derive(Clone)]
pub struct CaseSpec {
    pub src: String,
    pub topo: Topology,
    pub strategy: Strategy,
    pub pass_mode: PassMode,
    pub sim: SimConfig,
    pub spatial_radius: Option<f64>,
    pub events: Vec<WorkloadEvent>,
    pub output: Symbol,
    pub horizon: SimTime,
}

impl CaseSpec {
    pub fn run(&self) -> RunPoint {
        run_case(
            &self.src,
            self.topo.clone(),
            self.strategy,
            self.pass_mode,
            self.sim.clone(),
            self.spatial_radius,
            self.events.clone(),
            self.output,
            self.horizon,
        )
    }
}

/// Worker threads for [`run_cases`]: `SENSORLOG_BENCH_THREADS` if set and
/// nonzero, else the machine's available parallelism.
pub fn bench_threads() -> usize {
    match std::env::var("SENSORLOG_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Run every case, fanning out across [`bench_threads`] worker threads.
/// Each case is an independent, deterministic, single-threaded simulation;
/// results come back in spec order, so tables built from them are
/// byte-identical to a serial run (see `tests/parallel_driver.rs`).
pub fn run_cases(specs: &[CaseSpec]) -> Vec<RunPoint> {
    run_cases_with(specs, bench_threads())
}

/// [`run_cases`] with an explicit worker count (1 = serial reference).
pub fn run_cases_with(specs: &[CaseSpec], threads: usize) -> Vec<RunPoint> {
    let threads = threads.clamp(1, specs.len().max(1));
    if threads == 1 {
        return specs.iter().map(CaseSpec::run).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<RunPoint>> = (0..specs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= specs.len() {
                            break done;
                        }
                        done.push((i, specs[i].run()));
                    }
                })
            })
            .collect();
        for w in workers {
            for (i, p) in w.join().expect("bench worker panicked") {
                slots[i] = Some(p);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every case ran"))
        .collect()
}
