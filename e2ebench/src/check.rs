//! Deterministic work counters and output checks. Both run outside the
//! timed region.

use crate::workloads::{Check, Workload};
use sensorlog_core::deploy::Deployment;
use sensorlog_core::msg::Payload;
use sensorlog_core::runtime::SensorlogNode;
use sensorlog_core::{invariants, oracle};
use sensorlog_eval::IndexStatsSnapshot;
use sensorlog_logic::intern::{resolve_counts, ResolveCounts};
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::{App, Simulator};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Counts that must repeat exactly between runs of one seed. The traced
/// run must reproduce the untraced run's counters; an observer-plane run
/// must reproduce them too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    pub tx_msgs: u64,
    pub tx_bytes: u64,
    pub max_node_msgs: u64,
    pub peak_node_state: u64,
    pub peak_replicas: u64,
    pub peak_derivations: u64,
    pub max_queue_depth: u64,
    pub sched_pushes: u64,
    pub spill_pushes: u64,
    pub probes_processed: u64,
    pub results_emitted: u64,
    pub index_hits: u64,
    pub index_scans: u64,
    pub outputs: usize,
    /// Hash of the sorted output set.
    pub outputs_hash: u64,
    /// Per-kind transmissions (store/probe/result/centroid/hb/live).
    pub tx_by_kind: Vec<(&'static str, u64)>,
}

/// Interned-constant resolves made during one run (process-wide
/// counters, so they are read as a delta around the run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Resolves {
    pub boundary: u64,
    pub hot: u64,
}

impl Resolves {
    pub fn since(before: ResolveCounts) -> Resolves {
        let now = resolve_counts();
        Resolves {
            boundary: now.boundary - before.boundary,
            hot: now.hot - before.hot,
        }
    }
}

/// The live tuples of `pred` gathered the way `Deployment::results` does,
/// for any app that wraps a [`SensorlogNode`].
pub fn results<A: App<Msg = Payload>>(
    sim: &Simulator<A>,
    node: impl Fn(&A) -> &SensorlogNode,
    pred: Symbol,
) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    for id in sim.topology().nodes() {
        if sim.is_failed(id) {
            continue;
        }
        let n = node(sim.node(id));
        if let Some(engine) = &n.center_engine {
            out.extend(engine.db.sorted(pred));
        }
        out.extend(n.owned_live(pred));
    }
    out
}

pub fn counters<A: App<Msg = Payload>>(
    sim: &Simulator<A>,
    node: impl Fn(&A) -> &SensorlogNode,
    pred: Symbol,
) -> Counters {
    let m = &sim.metrics;
    let sched = sim.sched_stats();
    let mut idx = IndexStatsSnapshot::default();
    let (mut reps, mut derivs, mut state) = (0, 0, 0);
    let (mut probes, mut emitted) = (0, 0);
    for a in sim.nodes() {
        let n = node(a);
        idx.merge(n.index_stats());
        reps = reps.max(n.stats.peak_replicas);
        derivs = derivs.max(n.stats.peak_derivations);
        state = state.max(n.stats.peak_replicas + n.stats.peak_derivations);
        // A Centroid center keeps everything in its engine and tracks no
        // peak there: its tuple count at the end of the run stands in.
        if let Some(engine) = &n.center_engine {
            state = state.max(engine.db.total_tuples());
        }
        probes += n.stats.probes_processed;
        emitted += n.stats.results_emitted;
    }
    let out = results(sim, &node, pred);
    let mut h = DefaultHasher::new();
    out.hash(&mut h);
    Counters {
        events: sim.events_processed(),
        tx_msgs: m.total_tx(),
        tx_bytes: m.total_tx_bytes(),
        max_node_msgs: m.max_node_load(),
        peak_node_state: state as u64,
        peak_replicas: reps as u64,
        peak_derivations: derivs as u64,
        max_queue_depth: sim.max_queue_depth() as u64,
        sched_pushes: sched.pushes,
        spill_pushes: sched.spill_pushes,
        probes_processed: probes,
        results_emitted: emitted,
        index_hits: idx.hits,
        index_scans: idx.scans,
        outputs: out.len(),
        outputs_hash: h.finish(),
        tx_by_kind: m.tx_by_kind().into_iter().collect(),
    }
}

/// Outcome of the output checks on finished deployments.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Output tuples judged: |expected ∪ found|.
    pub judged: u64,
    pub missing: u64,
    pub spurious: u64,
    /// Output errors that fail the run: all of them, except on a
    /// workload whose output errors are recorded but not gated (see
    /// [`Workload::gate_outputs`]).
    pub gated: u64,
    pub violations: Vec<String>,
}

impl Verdict {
    /// Failed output tuples, invariant violations included.
    pub fn failed(&self) -> u64 {
        (self.missing + self.spurious + self.violations.len() as u64).min(self.attempted())
    }

    pub fn attempted(&self) -> u64 {
        self.judged.max(1)
    }

    /// 1 − failed ÷ attempted.
    pub fn accuracy(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted() as f64
    }

    /// No invariant violation and no gated output error.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.gated == 0
    }

    pub fn merge(&mut self, other: Verdict) {
        self.judged += other.judged;
        self.missing += other.missing;
        self.spurious += other.spurious;
        self.gated += other.gated;
        self.violations.extend(other.violations);
    }
}

pub fn verify(w: &Workload, d: &Deployment) -> Verdict {
    let mut v = Verdict::default();
    let mut inv = invariants::check_structural(d);
    inv.merge(invariants::check_static_bounds(d));
    inv.merge(invariants::check_message_conservation(d));
    if !d.sim.is_quiescent() {
        v.violations
            .push("run did not quiesce before the horizon".into());
    }
    match w.check {
        Check::Oracle => {
            let r = oracle::check(d, &w.events, w.output);
            v.judged = (r.found + r.missing.len()) as u64;
            v.missing = r.missing.len() as u64;
            v.spurious = r.spurious.len() as u64;
        }
        Check::Convergence => {
            let conv = invariants::check_convergence(d, &[w.output]);
            let found = d.results(w.output).len() as u64;
            for x in &conv.violations {
                match x.invariant {
                    "convergence-complete" => v.missing += 1,
                    _ => v.spurious += 1,
                }
            }
            v.judged = found + v.missing;
        }
    }
    if w.gate_outputs {
        v.gated = v.missing + v.spurious;
    }
    v.violations
        .extend(inv.violations.iter().map(|x| x.to_string()));
    v
}
