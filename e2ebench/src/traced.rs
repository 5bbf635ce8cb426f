//! The traced deployment: built from outside with public APIs the way
//! `Deployment::new` builds it, but each node is wrapped in [`Timed`], an
//! `App` that times every callback into the runtime and files it under one
//! layer. No span code runs inside the program.

use crate::workloads::Workload;
use sensorlog_core::deploy::WorkloadEvent;
use sensorlog_core::durable::DurableStore;
use sensorlog_core::msg::Payload;
use sensorlog_core::partial::RuleShape;
use sensorlog_core::{compile_source, NetInfo, Provenance, SensorlogNode, Strategy};
use sensorlog_eval::UpdateKind;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_netsim::{App, Ctx, MsgMeta, NodeId, SimTime, Simulator};
use sensorlog_netstack::ght;
use sensorlog_telemetry::Telemetry;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a callback's time is filed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `generate` / `retract` of a workload event.
    Inject,
    /// Storage walk: a replica (or tombstone) stored at this node.
    Store,
    /// The probe step (`core::partial`) at a walk member.
    Probe,
    /// Derivation deltas at the owner: counts, holddowns, outputs.
    Result,
    /// Timer fires (join start, holddown, expiry, fault-plane ticks) and
    /// the boot callback that arms the first timers.
    Timer,
    /// Fault plane: heartbeats and liveness flooding.
    Faults,
    /// Crash recovery: durable replay on restart.
    Restart,
    /// A Centroid upload applied by the center's incremental engine.
    Center,
    /// A relay hop: a routed envelope or probe passing through.
    Forward,
}

/// Number of layers: one past the last variant.
const LAYERS: usize = Layer::Forward as usize + 1;

/// Busy time and call count per layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Clock {
    pub ns: [u64; LAYERS],
    pub calls: [u64; LAYERS],
}

impl Clock {
    pub fn secs(&self, l: Layer) -> f64 {
        self.ns[l as usize] as f64 / 1e9
    }

    pub fn calls(&self, l: Layer) -> u64 {
        self.calls[l as usize]
    }

    pub fn add(&mut self, other: &Clock) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    pub fn total_secs(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }
}

pub struct Timed {
    pub node: SensorlogNode,
    clock: Arc<Mutex<Clock>>,
}

impl Timed {
    fn timed<R>(&mut self, l: Layer, f: impl FnOnce(&mut SensorlogNode) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.node);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut c = self.clock.lock().expect("clock lock is never poisoned");
        c.ns[l as usize] += ns;
        c.calls[l as usize] += 1;
        r
    }

    fn classify(&self, msg: &Payload) -> Layer {
        match msg {
            Payload::Routed { dest, .. } if *dest != self.node.id => Layer::Forward,
            Payload::Routed { inner, .. } => self.classify(inner),
            Payload::Probe(p) if p.walk[p.pos] != self.node.id => Layer::Forward,
            Payload::ToCenter { .. } if self.node.center_engine.is_none() => Layer::Forward,
            _ => match msg.kind() {
                "store" => Layer::Store,
                "probe" => Layer::Probe,
                "result" => Layer::Result,
                "centroid" => Layer::Center,
                _ => Layer::Faults,
            },
        }
    }
}

impl App for Timed {
    type Msg = Payload;

    fn on_start(&mut self, ctx: &mut Ctx<Payload>) {
        self.timed(Layer::Timer, |n| n.on_start(ctx));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<Payload>) {
        self.timed(Layer::Restart, |n| n.on_restart(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<Payload>, from: NodeId, msg: Payload) {
        let l = self.classify(&msg);
        self.timed(l, |n| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Payload>, tag: u64) {
        self.timed(Layer::Timer, |n| n.on_timer(ctx, tag));
    }
}

pub struct TracedDeployment {
    pub sim: Simulator<Timed>,
    clock: Arc<Mutex<Clock>>,
}

impl TracedDeployment {
    /// Mirror of `Deployment::new` plus the workload's fault schedule.
    pub fn new(w: &Workload) -> TracedDeployment {
        let mut rt = w.cfg.rt.clone();
        rt.tau_c = rt.tau_c.max(w.cfg.sim.clock_skew_max);
        let prog = Arc::new(
            compile_source(w.src, BuiltinRegistry::standard(), w.cfg.plan)
                .expect("benchmark program compiles"),
        );
        let net = Arc::new(NetInfo::new(w.topo.clone()));
        let shapes = Arc::new(
            prog.analysis
                .program
                .rules
                .iter()
                .map(RuleShape::of)
                .collect::<Vec<_>>(),
        );
        let durables: Vec<Arc<Mutex<DurableStore>>> = match &rt.faults {
            Some(f) => (0..w.topo.len())
                .map(|_| Arc::new(Mutex::new(DurableStore::new(f.checkpoint_every))))
                .collect(),
            None => Vec::new(),
        };
        let cfg = Arc::new(rt);
        let clock = Arc::new(Mutex::new(Clock::default()));
        let (prog2, clock2) = (Arc::clone(&prog), Arc::clone(&clock));
        let mut sim = Simulator::new(w.topo.clone(), w.cfg.sim.clone(), move |id, _| {
            let node = SensorlogNode::new(
                id,
                Arc::clone(&prog2),
                Arc::clone(&cfg),
                Arc::clone(&net),
                Arc::clone(&shapes),
                Telemetry::disabled(),
            )
            .with_provenance(Provenance::disabled());
            let node = match durables.get(id.index()) {
                Some(d) => node.with_durable(Arc::clone(d)),
                None => node,
            };
            Timed {
                node,
                clock: Arc::clone(&clock2),
            }
        });
        for (pred, tuple) in prog.static_facts.clone() {
            let owner = match w.cfg.rt.strategy {
                Strategy::Centroid => Strategy::center(sim.topology()),
                _ => ght::owner_of(sim.topology(), pred, &tuple),
            };
            sim.invoke(owner, |t, ctx| {
                t.node.inject_static(ctx, pred, tuple.clone())
            });
        }
        if let Some(f) = &w.faults {
            sim.set_fault_schedule(f.clone());
        }
        TracedDeployment { sim, clock }
    }

    /// Mirror of `Deployment::run`: interleave the workload events, then
    /// run to quiescence.
    pub fn run(&mut self, events: &[WorkloadEvent], horizon: SimTime) {
        let mut evs = events.to_vec();
        evs.sort_by_key(|e| e.at);
        for ev in evs.into_iter().filter(|e| e.at <= horizon) {
            self.sim.run_until(ev.at);
            if self.sim.is_failed(ev.node) {
                continue;
            }
            self.sim.invoke(ev.node, |t, ctx| {
                t.timed(Layer::Inject, |n| match ev.kind {
                    UpdateKind::Insert => n.generate(ctx, ev.pred, ev.tuple.clone()),
                    UpdateKind::Delete => n.retract(ctx, ev.pred, ev.tuple.clone()),
                })
            });
        }
        self.sim.run_to_quiescence(horizon);
    }

    pub fn clock(&self) -> Clock {
        *self.clock.lock().expect("clock lock is never poisoned")
    }
}
