//! The fault plane: heartbeats and leases, a liveness CRDT driving
//! Theorem 3's retraction path from failure detection, source-driven
//! refresh, route detours and durable crash recovery. A node holds it as
//! one `Option<FaultPlane>`, built only when `RtConfig::faults` is set, so
//! with the plane off no fault state exists and the Fig. 3 path in the
//! parent module is inert by type.

use super::{SensorlogNode, TimerAction};
use crate::durable::DurableStore;
use crate::msg::Payload;
use crate::plan::DistProgram;
use crate::tupleid::{DerivationKey, FactRecord, TupleId};
use sensorlog_logic::{Literal, Symbol, Tuple};
use sensorlog_netsim::{Ctx, NodeId, SimTime};
use sensorlog_netstack::router::next_hop_avoiding;
use sensorlog_telemetry::Scope;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// Fault-plane parameters (heartbeats, leases, refresh, checkpointing).
#[derive(Clone, Debug)]
pub struct FaultPlaneCfg {
    /// 1-hop aliveness beacon period (ms).
    pub heartbeat_ms: SimTime,
    /// A neighbor silent for longer than this is declared dead and its
    /// death flooded (lease expiry, Theorem 3's failure-detection input).
    pub lease_ms: SimTime,
    /// Source-driven refresh period: live base facts are re-announced (with
    /// their original ids, so re-announcement is idempotent) and recent
    /// tombstones re-sent, healing state lost to crashes and partitions.
    pub refresh_ms: SimTime,
    /// Fold the durable journal tail into its checkpoint every N ops.
    pub checkpoint_every: usize,
    /// Stop re-arming periodic fault-plane timers once local time passes
    /// this bound, so a healed network can quiesce for oracle comparison.
    pub active_until: SimTime,
}

impl Default for FaultPlaneCfg {
    fn default() -> Self {
        FaultPlaneCfg {
            heartbeat_ms: 200,
            lease_ms: 700,
            refresh_ms: 2_000,
            checkpoint_every: 8,
            active_until: 60_000,
        }
    }
}

/// What this node currently believes about one peer's liveness. Merged
/// CRDT-style: higher `version` wins, on a tie dead beats alive, and a
/// larger `boot_ts` (a newer incarnation) is always news.
#[derive(Clone, Copy, Debug)]
struct LiveEntry {
    version: SimTime,
    alive: bool,
    boot_ts: SimTime,
}

impl LiveEntry {
    /// Alive at `version` in the incarnation booted at `boot_ts`.
    fn alive(version: SimTime, boot_ts: SimTime) -> LiveEntry {
        LiveEntry {
            version,
            alive: true,
            boot_ts,
        }
    }
}

/// Is a single derivation still supported, given what we believe about the
/// liveness of its inputs' origin nodes?
///
/// A derivation dies when any input's origin is believed dead, or when a
/// *derived* (IDB) input predates its origin's current incarnation — the
/// owner lost that entry in the crash, so the old id will never be
/// retracted through the normal delete path. Base-fact inputs are exempt
/// from the incarnation check: recovery re-announces them with their
/// original (pre-crash) ids.
fn key_live(
    liveness: &HashMap<NodeId, LiveEntry>,
    rule_body_preds: &HashMap<usize, Vec<Option<Symbol>>>,
    idb: &HashSet<Symbol>,
    key: &DerivationKey,
) -> bool {
    if key.rule_id == usize::MAX {
        return true; // static fact: no network inputs
    }
    key.inputs.iter().all(|(lit, id)| {
        let Some(e) = liveness.get(&id.node) else {
            return true; // never heard anything: presumed alive
        };
        if !e.alive {
            return false;
        }
        if e.boot_ts > id.ts {
            let is_idb = rule_body_preds
                .get(&key.rule_id)
                .and_then(|preds| preds.get(*lit as usize))
                .and_then(|p| *p)
                .is_some_and(|p| idb.contains(&p));
            if is_idb {
                return false;
            }
        }
        true
    })
}

/// A periodic fault-plane timer.
#[derive(Clone, Copy)]
pub(super) enum Tick {
    /// 1-hop aliveness beacon.
    Heartbeat,
    /// Declare silent neighbors dead and flood their death.
    Lease,
    /// Source-driven refresh plus liveness anti-entropy.
    Refresh,
}

/// One node's fault-plane state.
pub(super) struct FaultPlane {
    cfg: FaultPlaneCfg,
    /// What we believe about each peer.
    liveness: HashMap<NodeId, LiveEntry>,
    /// Local time we last heard a heartbeat from each neighbor.
    last_hb: HashMap<NodeId, SimTime>,
    /// Local boot time of this incarnation (0 until `on_start`).
    boot_ts: SimTime,
    /// Flash log for this node's own facts. Shared with the deployment
    /// harness so it survives the app being rebuilt on restart — that is
    /// the whole point of a durable store.
    durable: Option<Arc<Mutex<DurableStore>>>,
    /// Derived (IDB) predicates: heads of some rule. A derived input minted
    /// before its owner's current incarnation booted is stale — the owner
    /// lost that entry in the crash.
    idb: HashSet<Symbol>,
    /// Rule id → body-literal predicates (`None` for non-relational
    /// literals), for the IDB-staleness filter.
    rule_body_preds: HashMap<usize, Vec<Option<Symbol>>>,
}

impl FaultPlane {
    pub(super) fn new(cfg: FaultPlaneCfg, prog: &DistProgram) -> FaultPlane {
        let mut idb = HashSet::new();
        let mut rule_body_preds = HashMap::new();
        for rule in &prog.analysis.program.rules {
            idb.insert(rule.head.pred);
            let preds = rule
                .body
                .iter()
                .map(|lit| match lit {
                    Literal::Pos(a) | Literal::Neg(a) => Some(a.pred),
                    _ => None,
                })
                .collect();
            rule_body_preds.insert(rule.id, preds);
        }
        FaultPlane {
            cfg,
            liveness: HashMap::new(),
            last_hb: HashMap::new(),
            boot_ts: 0,
            durable: None,
            idb,
            rule_body_preds,
        }
    }

    /// Does the current liveness view still support this derivation?
    pub(super) fn key_live(&self, key: &DerivationKey) -> bool {
        key_live(&self.liveness, &self.rule_body_preds, &self.idb, key)
    }

    /// The adaptive holddown's upper clamp tightens from τj to τj/4: chaos
    /// churn inflates the observed lag tail, and a holddown that stretches
    /// toward τj would hold retractions hostage for the whole join bound
    /// after every crash.
    pub(super) fn holddown_cap(&self, tau_j: SimTime) -> SimTime {
        tau_j / 4
    }

    fn believes_dead(&self, n: NodeId) -> bool {
        self.liveness.get(&n).is_some_and(|e| !e.alive)
    }
}

impl SensorlogNode {
    /// Attach the node's durable store. The harness keeps the other
    /// reference so the log outlives app restarts. Ignored with the fault
    /// plane off, which keeps no durable state.
    pub fn with_durable(mut self, store: Arc<Mutex<DurableStore>>) -> SensorlogNode {
        if let Some(f) = self.faults.as_mut() {
            f.durable = Some(store);
        }
        self
    }

    /// The durable store, locked; `None` with the plane off or no store
    /// attached.
    pub(super) fn durable(&self) -> Option<MutexGuard<'_, DurableStore>> {
        Some(self.faults.as_ref()?.durable.as_ref()?.lock().unwrap())
    }

    /// Route repair: detour around a next hop we believe dead, as long as
    /// some live neighbor is strictly closer to the destination (no loops).
    /// Falls back to the primary hop — the drop is then recovered by
    /// refresh once liveness heals.
    pub(super) fn detour(&self, dest: NodeId, hop: NodeId) -> NodeId {
        let Some(f) = self
            .faults
            .as_ref()
            .filter(|f| hop != dest && f.believes_dead(hop))
        else {
            return hop;
        };
        match next_hop_avoiding(&self.net.topo, self.id, dest, &|n| f.believes_dead(n)) {
            Some(detour) => {
                self.tele.bump(Scope::Layer("core.faults"), "route_detours");
                detour
            }
            None => hop,
        }
    }

    /// Boot-time setup, shared by first start and restart: stamp the
    /// incarnation, baseline neighbor leases, announce ourselves, and arm
    /// the periodic timers.
    pub(super) fn boot(&mut self, ctx: &mut Ctx<Payload>) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        f.boot_ts = ctx.local_time;
        for &nb in ctx.neighbors() {
            // Grace period: a neighbor gets a full lease from our boot
            // before we may declare it dead.
            f.last_hb.insert(nb, ctx.local_time);
        }
        self.heartbeat(ctx);
        for tick in [Tick::Heartbeat, Tick::Lease, Tick::Refresh] {
            self.rearm(ctx, tick);
        }
    }

    /// Crash recovery: replay the durable store — restore the sequence
    /// high-water mark, re-announce surviving base facts with their
    /// ORIGINAL ids, and re-send the recent-tombstone window. Runs after
    /// [`Self::boot`] on restart.
    pub(super) fn recover(&mut self, ctx: &mut Ctx<Payload>) {
        let Some(r) = self.durable().map(|mut d| d.recover()) else {
            return;
        };
        self.seq = self.seq.max(r.next_seq);
        self.tele.add(
            Scope::Layer("core.faults"),
            "recovery_replays",
            (r.facts.len() + r.recent_deletes.len()) as u64,
        );
        for (pred, tuple, id) in r.facts {
            self.my_facts.insert((pred, tuple.clone()), id);
            self.replay(ctx, pred, tuple, id);
        }
        for del in r.recent_deletes {
            self.initiate_update(ctx, del);
        }
    }

    /// Re-announce one of our base facts under its original id (idempotent
    /// at replicas and owners) but probing at *current* time: an
    /// original-tau replay would re-derive historical joins with partners
    /// deleted since (their tombstones legitimately satisfy `del_ts ≥ tau`
    /// for the old tau), resurrecting retracted results.
    fn replay(&mut self, ctx: &mut Ctx<Payload>, pred: Symbol, tuple: Tuple, id: TupleId) {
        let mut rec = FactRecord::insert(pred, tuple, id);
        rec.tau = ctx.local_time;
        self.initiate_update(ctx, rec);
    }

    /// A periodic timer fired: run it, then re-arm it.
    pub(super) fn fault_tick(&mut self, ctx: &mut Ctx<Payload>, tick: Tick) {
        match tick {
            Tick::Heartbeat => self.heartbeat(ctx),
            Tick::Lease => self.lease_check(ctx),
            Tick::Refresh => self.refresh(ctx),
        }
        self.rearm(ctx, tick);
    }

    /// Re-arm a periodic timer unless local time has passed
    /// `active_until`.
    fn rearm(&mut self, ctx: &mut Ctx<Payload>, tick: Tick) {
        let now = ctx.local_time;
        let Some(f) = self.faults.as_ref().filter(|f| now < f.cfg.active_until) else {
            return;
        };
        let period = match tick {
            Tick::Heartbeat => f.cfg.heartbeat_ms,
            Tick::Lease => f.cfg.lease_ms,
            Tick::Refresh => f.cfg.refresh_ms,
        };
        let tag = self.arm_timer(TimerAction::Fault(tick));
        ctx.set_timer(period, tag);
    }

    /// Fault-plane traffic: heartbeats (`from` is the radio sender, `None`
    /// when unwrapped from a `Routed` envelope) and liveness gossip.
    pub(super) fn fault_msg(&mut self, ctx: &mut Ctx<Payload>, from: Option<NodeId>, msg: Payload) {
        match (msg, from) {
            (Payload::Heartbeat { version, boot_ts }, Some(from)) => {
                if let Some(f) = self.faults.as_mut() {
                    f.last_hb.insert(from, ctx.local_time);
                }
                self.apply_liveness(ctx, from, version, true, boot_ts);
            }
            // Heartbeats are 1-hop and identified by their radio sender;
            // one arriving inside a Routed envelope is a protocol violation
            // we simply drop.
            (Payload::Heartbeat { .. }, None) => self.stats.routing_drops += 1,
            (
                Payload::Liveness {
                    subject,
                    version,
                    alive,
                    boot_ts,
                },
                _,
            ) => self.apply_liveness(ctx, subject, version, alive, boot_ts),
            (Payload::LivenessDigest { entries }, _) => {
                for (subject, version, alive, boot_ts) in entries {
                    self.apply_liveness(ctx, subject, version, alive, boot_ts);
                }
            }
            _ => unreachable!("handle_payload passes only fault-plane messages"),
        }
    }

    /// Keep our own version current (so death rumors can be compared) and
    /// beacon it to our neighbors.
    fn heartbeat(&mut self, ctx: &mut Ctx<Payload>) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let (version, boot_ts) = (ctx.local_time, f.boot_ts);
        f.liveness
            .insert(self.id, LiveEntry::alive(version, boot_ts));
        ctx.broadcast(Payload::Heartbeat { version, boot_ts });
    }

    /// Merge one liveness observation; flood it onward and rescan owned
    /// entries iff it changed something a peer could not already know
    /// (the alive flag or the incarnation — version-only advances stay
    /// local, else every heartbeat would flood the network).
    fn apply_liveness(
        &mut self,
        ctx: &mut Ctx<Payload>,
        subject: NodeId,
        version: SimTime,
        alive: bool,
        boot_ts: SimTime,
    ) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        if subject == self.id {
            if !alive {
                // Rumors of our death: out-version them.
                let v = ctx.local_time.max(version + 1);
                f.liveness.insert(self.id, LiveEntry::alive(v, f.boot_ts));
                self.tele
                    .bump(Scope::Layer("core.faults"), "death_rebuttals");
                ctx.broadcast(Payload::Liveness {
                    subject: self.id,
                    version: v,
                    alive: true,
                    boot_ts: f.boot_ts,
                });
            }
            return;
        }
        // Never heard anything: presumed alive.
        let e = f.liveness.entry(subject).or_insert(LiveEntry::alive(0, 0));
        let supersedes = version > e.version || (version == e.version && e.alive && !alive);
        let boot_news = boot_ts > e.boot_ts;
        if !supersedes && !boot_news {
            return;
        }
        let flag_changed = (supersedes && e.alive != alive) || boot_news;
        if supersedes {
            e.version = version;
            e.alive = alive;
        }
        if boot_news {
            e.boot_ts = boot_ts;
        }
        if flag_changed {
            let (version, alive, boot_ts) = (e.version, e.alive, e.boot_ts);
            ctx.broadcast(Payload::Liveness {
                subject,
                version,
                alive,
                boot_ts,
            });
            self.rescan_owned(ctx);
        }
    }

    /// Liveness changed: arm holddowns for owned entries whose filtered
    /// liveness no longer matches what the network believes. This is the
    /// retraction path of Theorem 3 driven by failure detection instead of
    /// an explicit delete.
    fn rescan_owned(&mut self, ctx: &mut Ctx<Payload>) {
        let faults = self.faults.as_ref();
        let mut arm: Vec<(Symbol, Tuple)> = self
            .owned
            .iter()
            .filter(|(_, o)| !o.holddown_armed && o.live(faults) != o.propagated_live)
            .map(|((p, t), _)| (*p, t.clone()))
            .collect();
        arm.sort();
        for (pred, tuple) in arm {
            if let Some(o) = self.owned.get_mut(&(pred, tuple.clone())) {
                o.holddown_armed = true;
            }
            self.arm_holddown(ctx, pred, tuple);
        }
    }

    /// Lease check: any neighbor we believe alive but have not heard from
    /// for longer than a lease is declared dead and the death flooded.
    fn lease_check(&mut self, ctx: &mut Ctx<Payload>) {
        let Some(f) = &self.faults else {
            return;
        };
        let now = ctx.local_time;
        let suspects: Vec<(NodeId, SimTime)> = ctx
            .neighbors()
            .iter()
            .filter(|&&nb| {
                let heard = f.last_hb.get(&nb).copied().unwrap_or(0);
                !f.believes_dead(nb) && now.saturating_sub(heard) > f.cfg.lease_ms
            })
            .map(|&nb| (nb, f.liveness.get(&nb).map_or(0, |e| e.boot_ts)))
            .collect();
        for (nb, boot) in suspects {
            self.tele.bump(Scope::Layer("core.faults"), "suspicions");
            self.apply_liveness(ctx, nb, now, false, boot);
        }
    }

    /// Source-driven refresh: re-announce our live base facts (original
    /// ids — idempotent at replicas and owners thanks to generation dedup
    /// and clamped counts), re-send recent tombstones whose walks a crash
    /// or partition may have cut short, and exchange a 1-hop liveness
    /// digest so healed partitions relearn deaths and reboots they missed.
    fn refresh(&mut self, ctx: &mut Ctx<Payload>) {
        let Some(f) = &self.faults else {
            return;
        };
        self.tele
            .bump(Scope::Layer("core.faults"), "refresh_rounds");
        let mut entries: Vec<(NodeId, SimTime, bool, SimTime)> = f
            .liveness
            .iter()
            .filter(|&(&n, e)| n != self.id && (!e.alive || e.boot_ts > 0))
            .map(|(&n, e)| (n, e.version, e.alive, e.boot_ts))
            .collect();
        entries.sort();
        if !entries.is_empty() {
            ctx.broadcast(Payload::LivenessDigest { entries });
        }
        for (pred, tuple, id) in self.my_fact_records() {
            self.replay(ctx, pred, tuple, id);
        }
        let deletes: Vec<FactRecord> = self
            .durable()
            .map_or_else(Vec::new, |d| d.recent_deletes().to_vec());
        for del in deletes {
            self.initiate_update(ctx, del);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{NetInfo, RtConfig};
    use sensorlog_netsim::Topology;
    use sensorlog_telemetry::Telemetry;

    fn test_node(cfg: RtConfig) -> SensorlogNode {
        let prog = Arc::new(
            crate::plan::compile_source(
                ".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).",
                sensorlog_logic::builtin::BuiltinRegistry::standard(),
                crate::plan::PlanTiming::default(),
            )
            .unwrap(),
        );
        let shapes = Arc::new(
            prog.analysis
                .program
                .rules
                .iter()
                .map(crate::partial::RuleShape::of)
                .collect::<Vec<_>>(),
        );
        let net = Arc::new(NetInfo::new(Topology::square_grid(4)));
        SensorlogNode::new(
            NodeId(0),
            prog,
            Arc::new(cfg),
            net,
            shapes,
            Telemetry::disabled(),
        )
    }

    /// Satellite: with the fault plane active the adaptive holddown's
    /// upper clamp tightens from τj to (τj/4).max(10) — chaos churn must
    /// not let one inflated lag observation hold retractions for seconds.
    #[test]
    fn holddown_clamp_tightens_under_fault_plane() {
        let mut plain = test_node(RtConfig::default());
        let mut faulty = test_node(RtConfig {
            faults: Some(FaultPlaneCfg::default()),
            ..RtConfig::default()
        });
        // Before any lag observation both use the 100 ms fallback (already
        // under the 750 ms chaos cap for the default τj = 3000).
        assert_eq!(plain.default_holddown(), 100);
        assert_eq!(faulty.default_holddown(), 100);
        // A pathological lag tail (p95 ≈ 4 s/hop on a 6-hop-deep grid)
        // saturates both clamps.
        for n in [&mut plain, &mut faulty] {
            for _ in 0..50 {
                n.hop_lag.observe(4_000);
            }
        }
        assert_eq!(plain.default_holddown(), 3_000, "fault-free clamp is τj");
        assert_eq!(
            faulty.default_holddown(),
            750,
            "fault-plane clamp is (τj/4).max(10)"
        );
    }

    /// The liveness filter: a derivation dies with its input's origin, a
    /// derived input predates its owner's reboot, and base-fact inputs
    /// survive reboots (recovery re-announces them with original ids).
    #[test]
    fn key_live_filters_dead_and_stale_inputs() {
        let node = test_node(RtConfig {
            faults: Some(FaultPlaneCfg::default()),
            ..RtConfig::default()
        });
        let plane = node.faults.as_ref().expect("fault plane configured");
        let rule_id = node.prog.analysis.program.rules[0].id;
        let mk = |n: u32, ts: SimTime| TupleId {
            node: NodeId(n),
            ts,
            seq: 0,
        };
        // Inputs at body literals 0 (r1) and 1 (r2) — both base predicates.
        let key = DerivationKey::new(rule_id, vec![(0, mk(3, 100)), (1, mk(7, 200))]);
        let mut liveness: HashMap<NodeId, LiveEntry> = HashMap::new();
        let live = |lv: &HashMap<NodeId, LiveEntry>, k| {
            key_live(lv, &plane.rule_body_preds, &plane.idb, k)
        };
        assert!(live(&liveness, &key), "no knowledge: presumed alive");
        liveness.insert(
            NodeId(3),
            LiveEntry {
                version: 500,
                alive: false,
                boot_ts: 0,
            },
        );
        assert!(!live(&liveness, &key), "dead input origin kills the key");
        liveness.insert(
            NodeId(3),
            LiveEntry {
                version: 900,
                alive: true,
                boot_ts: 800, // rebooted after minting ts=100
            },
        );
        assert!(
            live(&liveness, &key),
            "base-fact inputs survive reboots (recovery replays them)"
        );
        // A derived (IDB) input minted before its owner's reboot is stale.
        let idb_key = DerivationKey::new(usize::MAX - 1, vec![(0, mk(3, 100))]);
        let mut body = HashMap::new();
        body.insert(usize::MAX - 1, vec![Some(Symbol::intern("q"))]);
        assert!(
            !key_live(&liveness, &body, &plane.idb, &idb_key),
            "stale IDB input (minted before owner reboot) kills the key"
        );
        // Static facts are immune.
        let static_key = DerivationKey::new(usize::MAX, Vec::new());
        assert!(live(&liveness, &static_key));
    }
}
