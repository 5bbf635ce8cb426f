//! The per-node runtime: the compiled program's node state machine
//! (Sec. V, Fig. 3 — "the join component at a sensor node").
//!
//! Each node holds replicated fragments of the streams whose storage
//! regions cross it, runs the storage and join-computation phases of the
//! Generalized Perpendicular Approach, and — for derived tuples it owns
//! under the geographic hash — maintains the set of derivations with
//! multiplicity counts and propagates liveness transitions as new stream
//! updates (Secs. III-B, IV).
//!
//! The opt-in fault plane lives in the `faults` submodule; this module
//! reaches it only through `Option<&FaultPlane>`.

mod faults;

pub use faults::FaultPlaneCfg;

use crate::msg::{Payload, ProbeMsg, RuleWork};
use crate::partial::{process_partials, seed_partial, LocalCtx, Partial, RuleShape};
use crate::plan::DistProgram;
use crate::prov::{ProvRecord, Provenance};
use crate::strategy::{PassMode, Strategy};
use crate::tupleid::{DerivationKey, FactRecord, TupleId};
use faults::{FaultPlane, Tick};
use sensorlog_eval::eval_body::instantiate_head;
use sensorlog_eval::relation::{Database, TupleMeta};
use sensorlog_eval::{IncrementalEngine, Update, UpdateKind};
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::{App, Ctx, MsgMeta, NodeId, SimTime, Topology, TopologyKind};
use sensorlog_netstack::ght;
use sensorlog_telemetry::{Histogram, Scope, Telemetry, SIM_MS_BUCKETS};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Shared routing context: the topology plus (off-grid) precomputed BFS
/// next-hop tables.
#[derive(Debug)]
pub struct NetInfo {
    pub topo: Topology,
    next_hop_tbl: Option<Vec<Vec<u32>>>,
    /// Network depth in hops: the longest route a message can take
    /// (grid diameter, or BFS eccentricity of node 0 off-grid). Scales
    /// per-hop latency estimates up to end-to-end bounds; always ≥ 1.
    depth: SimTime,
}

impl NetInfo {
    pub fn new(topo: Topology) -> NetInfo {
        let (next_hop_tbl, depth) = match topo.kind {
            TopologyKind::Grid { cols, rows } => (None, (cols + rows).saturating_sub(2) as SimTime),
            _ => (
                Some(build_next_hop(&topo)),
                bfs_eccentricity(&topo, NodeId(0)),
            ),
        };
        NetInfo {
            topo,
            next_hop_tbl,
            depth: depth.max(1),
        }
    }

    /// Network depth in hops (≥ 1).
    pub fn depth(&self) -> SimTime {
        self.depth
    }

    /// Next hop from `from` toward `dest` (`from != dest`). `None` when
    /// `dest` is unreachable from `from` (disconnected topology) — callers
    /// on the message path must treat that as a routed drop, not a panic.
    pub fn next_hop(&self, from: NodeId, dest: NodeId) -> Option<NodeId> {
        debug_assert_ne!(from, dest);
        if let (Some((fx, fy)), Some((dx, dy))) =
            (self.topo.grid_coords(from), self.topo.grid_coords(dest))
        {
            let (nx, ny) = if fx != dx {
                (if dx > fx { fx + 1 } else { fx - 1 }, fy)
            } else {
                (fx, if dy > fy { fy + 1 } else { fy - 1 })
            };
            return self.topo.node_at(nx, ny);
        }
        let tbl = self.next_hop_tbl.as_ref()?;
        match tbl[dest.index()][from.index()] {
            u32::MAX => None, // BFS never reached `from` from `dest`
            hop => Some(NodeId(hop)),
        }
    }
}

fn build_next_hop(topo: &Topology) -> Vec<Vec<u32>> {
    let n = topo.len();
    let mut out = vec![vec![u32::MAX; n]; n];
    for dest in topo.nodes() {
        let tbl = &mut out[dest.index()];
        let mut seen = vec![false; n];
        seen[dest.index()] = true;
        let mut q = std::collections::VecDeque::from([dest]);
        while let Some(v) = q.pop_front() {
            for &w in topo.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    tbl[w.index()] = v.0;
                    q.push_back(w);
                }
            }
        }
    }
    out
}

/// Max BFS hop distance from `root` to any reachable node.
fn bfs_eccentricity(topo: &Topology, root: NodeId) -> SimTime {
    let mut dist = vec![u64::MAX; topo.len()];
    dist[root.index()] = 0;
    let mut ecc = 0;
    let mut q = std::collections::VecDeque::from([root]);
    while let Some(v) = q.pop_front() {
        for &w in topo.neighbors(v) {
            if dist[w.index()] == u64::MAX {
                dist[w.index()] = dist[v.index()] + 1;
                ecc = ecc.max(dist[w.index()]);
                q.push_back(w);
            }
        }
    }
    ecc
}

/// Runtime timing/strategy configuration, shared by all nodes.
#[derive(Clone, Debug)]
pub struct RtConfig {
    pub strategy: Strategy,
    pub pass_mode: PassMode,
    /// Upper bound on storage-phase completion (τs, ms).
    pub tau_s: SimTime,
    /// Max clock skew (τc, ms) — must match the simulator's.
    pub tau_c: SimTime,
    /// Upper bound on join-phase completion (τj, ms) — used in retention.
    pub tau_j: SimTime,
    /// Spatial-constraint radius truncating regions (Fig. 7 experiments).
    pub spatial_radius: Option<f64>,
    /// Fault plane: heartbeat/lease liveness tracking, liveness-filtered
    /// ownership, and crash recovery. `None` (the default) disables all of
    /// it — no timers armed, no messages sent, the fault-free trace is
    /// byte-identical to a build without the plane.
    pub faults: Option<FaultPlaneCfg>,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            tau_s: 1_500,
            tau_c: 0,
            tau_j: 3_000,
            spatial_radius: None,
            faults: None,
        }
    }
}

/// Owner-side state of a derived tuple.
#[derive(Debug, Default)]
struct Owned {
    id: Option<TupleId>,
    counts: HashMap<DerivationKey, i64>,
    /// The liveness last propagated into the network.
    propagated_live: bool,
    holddown_armed: bool,
}

impl Owned {
    /// At least one positively counted derivation — under the fault plane,
    /// one whose inputs all survive its liveness view.
    fn live(&self, faults: Option<&FaultPlane>) -> bool {
        self.counts
            .iter()
            .any(|(k, &c)| c > 0 && faults.is_none_or(|f| f.key_live(k)))
    }
}

/// Per-node resource/activity counters (Sec. V memory accounting, Table 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    pub peak_replicas: usize,
    pub peak_derivations: usize,
    pub probes_processed: u64,
    pub results_emitted: u64,
    /// Messages dropped at this node because their destination was
    /// unreachable or their payload could not be applied (e.g. a
    /// `ToCenter` arriving at a non-center node). Kept separate from radio
    /// losses: these drops are routing/protocol-level.
    pub routing_drops: u64,
}

enum TimerAction {
    StartJoin(FactRecord),
    Holddown(Symbol, Tuple),
    /// Drop a replicated fragment whose retention elapsed (Sec. IV-B
    /// "Tuple Expiry": (τs + τc) + τj + (τw + τc) after generation).
    ExpireReplica(Symbol, Tuple),
    /// Silently expire an owned derived tuple (window-based, no join
    /// phase — "independently expiring a tuple after sufficient time").
    ExpireOwned(Symbol, Tuple),
    /// A periodic fault-plane timer.
    Fault(Tick),
}

/// The sensorlog node application.
pub struct SensorlogNode {
    pub id: NodeId,
    prog: Arc<DistProgram>,
    cfg: Arc<RtConfig>,
    net: Arc<NetInfo>,
    shapes: Arc<Vec<RuleShape>>,
    /// Replicated stream fragments (with gen/del timestamps).
    frags: Database,
    frag_ids: HashMap<(Symbol, Tuple), TupleId>,
    /// Derived tuples this node owns under the geographic hash.
    owned: HashMap<(Symbol, Tuple), Owned>,
    /// Tuples this node generated (for delete-by-value at the source).
    my_facts: HashMap<(Symbol, Tuple), TupleId>,
    /// Flood dedup (NaiveBroadcast storage).
    flood_seen: HashSet<(TupleId, UpdateKind)>,
    timers: HashMap<u64, TimerAction>,
    next_tag: u64,
    seq: u32,
    /// Centroid baseline: the central server's engine (center node only).
    pub center_engine: Option<IncrementalEngine>,
    /// Provenance-plane bindings at a Centroid center: ground atom →
    /// tuple id (fed EDB facts keep their source id; derived heads get a
    /// center-minted id). Empty unless this node is the center and the
    /// provenance plane is enabled.
    center_ids: HashMap<(Symbol, Tuple), TupleId>,
    /// Drain position in the center engine's lineage log.
    center_lineage_cursor: usize,
    /// Sequence counter for center-minted provenance ids. Deliberately
    /// separate from `seq` (and offset into the top half of the range):
    /// provenance is a pure observer, so minting ids for the DAG must not
    /// advance — or collide with — the runtime's real tuple-id stream.
    center_seq: u32,
    pub stats: NodeStats,
    /// Peak stored items per predicate (fragment replicas + owned derived
    /// entries), cross-validated against the static memory bounds of
    /// `logic::diag` by `crate::invariants::check_static_bounds`.
    pub peak_pred_stored: BTreeMap<Symbol, usize>,
    /// Live owned-entry count per predicate (`owned` is keyed by
    /// (pred, tuple); this avoids a full scan on every delta).
    owned_per_pred: HashMap<Symbol, usize>,
    /// Output-predicate transitions observed at this owner.
    pub output_log: Vec<(Symbol, Tuple, UpdateKind, SimTime)>,
    /// Telemetry handle shared across the deployment (disabled by default;
    /// a pure observer — it never touches timers, messages, or the RNG).
    tele: Telemetry,
    /// Always-on per-hop result-lag histogram feeding the adaptive holddown
    /// default. Deliberately NOT behind the telemetry handle: its samples
    /// are pure simulated-time values (deterministic for a fixed seed), and
    /// the derived holddown affects the schedule — keeping it always-on
    /// preserves the "telemetry never perturbs the trace" invariant.
    hop_lag: Histogram,
    /// Provenance recording handle shared across the deployment (disabled
    /// by default; a pure observer like telemetry — recording never touches
    /// timers, messages, or the RNG, so the netsim journal is byte-identical
    /// with the plane on or off).
    prov: Provenance,
    /// The fault plane; `None` unless `RtConfig::faults` is set.
    faults: Option<FaultPlane>,
}

impl SensorlogNode {
    pub fn new(
        id: NodeId,
        prog: Arc<DistProgram>,
        cfg: Arc<RtConfig>,
        net: Arc<NetInfo>,
        shapes: Arc<Vec<RuleShape>>,
        tele: Telemetry,
    ) -> SensorlogNode {
        let center_engine =
            if cfg.strategy == Strategy::Centroid && Strategy::center(&net.topo) == id {
                let mut engine = IncrementalEngine::new(prog.analysis.clone(), prog.reg.clone())
                    .expect("centroid engine");
                engine.profiler = tele.profiler();
                Some(engine)
            } else {
                None
            };
        let faults = cfg.faults.clone().map(|f| FaultPlane::new(f, &prog));
        SensorlogNode {
            id,
            prog,
            cfg,
            net,
            shapes,
            frags: Database::new(),
            frag_ids: HashMap::new(),
            owned: HashMap::new(),
            my_facts: HashMap::new(),
            flood_seen: HashSet::new(),
            timers: HashMap::new(),
            next_tag: 0,
            seq: 0,
            center_engine,
            center_ids: HashMap::new(),
            center_lineage_cursor: 0,
            center_seq: 0x8000_0000,
            stats: NodeStats::default(),
            peak_pred_stored: BTreeMap::new(),
            owned_per_pred: HashMap::new(),
            output_log: Vec::new(),
            tele,
            hop_lag: Histogram::new(SIM_MS_BUCKETS),
            prov: Provenance::disabled(),
            faults,
        }
    }

    /// Attach the deployment-wide provenance recording handle. On a
    /// Centroid center this also switches on the engine's per-firing
    /// lineage capture, which `feed_center` drains into `Deriv`/`Mint`
    /// records so centrally-derived tuples get proofs like GPA-derived
    /// ones do.
    pub fn with_provenance(mut self, prov: Provenance) -> SensorlogNode {
        if prov.is_enabled() {
            if let Some(engine) = self.center_engine.as_mut() {
                engine.set_record_lineage(true);
            }
        }
        self.prov = prov;
        self
    }

    /// Record the current stored-item count for `pred` into its peak.
    fn note_pred_stored(&mut self, pred: Symbol) {
        let cur = self.frags.len_of(pred) + self.owned_per_pred.get(&pred).copied().unwrap_or(0);
        let peak = self.peak_pred_stored.entry(pred).or_insert(0);
        *peak = (*peak).max(cur);
    }

    // ------------------------------------------------------------------
    // Public entry points (driven by the deployment harness)
    // ------------------------------------------------------------------

    /// A sensor reading was generated at this node: create the fact and
    /// run the update pipeline.
    pub fn generate(&mut self, ctx: &mut Ctx<Payload>, pred: Symbol, tuple: Tuple) {
        self.tele.bump(Scope::Pred(pred.as_str()), "generated");
        let id = self.fresh_id(ctx);
        self.my_facts.insert((pred, tuple.clone()), id);
        if let Some(mut d) = self.durable() {
            d.log_insert(pred, tuple.clone(), id);
        }
        let fact = FactRecord::insert(pred, tuple, id);
        self.record_edb(&fact);
        self.initiate_update(ctx, fact);
    }

    /// A previously generated reading was retracted at this node.
    pub fn retract(&mut self, ctx: &mut Ctx<Payload>, pred: Symbol, tuple: Tuple) {
        let Some(&id) = self.my_facts.get(&(pred, tuple.clone())) else {
            return; // unknown tuple: nothing to delete
        };
        self.tele.bump(Scope::Pred(pred.as_str()), "retracted");
        self.my_facts.remove(&(pred, tuple.clone()));
        if let Some(mut d) = self.durable() {
            d.log_delete(pred, tuple.clone(), id, ctx.local_time);
        }
        let fact = FactRecord::delete(pred, tuple, id, ctx.local_time);
        self.record_edb(&fact);
        self.initiate_update(ctx, fact);
    }

    /// Inject a derived fact directly at its owner (static facts from
    /// empty-body rules, t = 0).
    pub fn inject_static(&mut self, ctx: &mut Ctx<Payload>, pred: Symbol, tuple: Tuple) {
        let id = self.fresh_id(ctx);
        if !self.owned.contains_key(&(pred, tuple.clone())) {
            *self.owned_per_pred.entry(pred).or_insert(0) += 1;
        }
        let entry = self.owned.entry((pred, tuple.clone())).or_default();
        entry.id = Some(id);
        entry
            .counts
            .insert(DerivationKey::new(usize::MAX, Vec::new()), 1);
        entry.propagated_live = true;
        self.note_pred_stored(pred);
        self.log_output(pred, &tuple, UpdateKind::Insert, ctx.local_time);
        let fact = FactRecord::insert(pred, tuple, id);
        // Static facts are proof leaves like base EDB facts — recorded as
        // `Edb` at their owner.
        self.record_edb(&fact);
        self.initiate_update(ctx, fact);
    }

    /// Record a proof leaf (a generated, retracted or static fact).
    fn record_edb(&self, fact: &FactRecord) {
        self.prov.record_with(|| ProvRecord::Edb {
            node: self.id,
            pred: fact.pred,
            tuple: fact.tuple.clone(),
            id: fact.id,
            kind: fact.kind,
            tau: fact.tau,
        });
    }

    /// Live result tuples of `pred` owned by this node.
    pub fn owned_live(&self, pred: Symbol) -> Vec<Tuple> {
        self.owned
            .iter()
            .filter(|((p, _), o)| *p == pred && o.live(self.faults.as_ref()))
            .map(|((_, t), _)| t.clone())
            .collect()
    }

    /// Current replica count (fragment tuples stored here).
    pub fn replica_count(&self) -> usize {
        self.frags.total_tuples()
    }

    /// Join-index activity on this node: fragment-store probes plus, on a
    /// Centroid center, the incremental engine's database.
    pub fn index_stats(&self) -> sensorlog_eval::IndexStatsSnapshot {
        let mut s = self.frags.index_stats();
        if let Some(engine) = &self.center_engine {
            s.merge(engine.db.index_stats());
        }
        s
    }

    // ------------------------------------------------------------------
    // Invariant-checker views (read-only; see `crate::invariants`)
    // ------------------------------------------------------------------

    /// Every per-derivation-key count with its owning (pred, tuple) —
    /// at quiescence all of these must be non-negative.
    pub fn derivation_count_entries(&self) -> Vec<(Symbol, Tuple, i64)> {
        let mut out: Vec<(Symbol, Tuple, i64)> = self
            .owned
            .iter()
            .flat_map(|((p, t), o)| o.counts.values().map(move |&c| (*p, t.clone(), c)))
            .collect();
        out.sort();
        out
    }

    /// Every `TupleId → (pred, tuple)` binding this node holds: facts it
    /// generated, fragment replicas, and owned derived tuples. A given id
    /// must denote the same fact wherever it appears in the network.
    pub fn id_bindings(&self) -> Vec<(TupleId, Symbol, Tuple)> {
        let mut out: Vec<(TupleId, Symbol, Tuple)> = Vec::new();
        out.extend(
            self.my_facts
                .iter()
                .map(|((p, t), &id)| (id, *p, t.clone())),
        );
        out.extend(
            self.frag_ids
                .iter()
                .map(|((p, t), &id)| (id, *p, t.clone())),
        );
        out.extend(
            self.owned
                .iter()
                .filter_map(|((p, t), o)| o.id.map(|id| (id, *p, t.clone()))),
        );
        out.sort();
        out
    }

    /// Owner entries that have not settled: a holddown still armed, or a
    /// liveness state differing from what was last propagated. Must be
    /// empty once the network quiesces.
    pub fn unsettled_owned(&self) -> Vec<(Symbol, Tuple)> {
        let mut out: Vec<(Symbol, Tuple)> = self
            .owned
            .iter()
            .filter(|(_, o)| o.holddown_armed || o.live(self.faults.as_ref()) != o.propagated_live)
            .map(|((p, t), _)| (*p, t.clone()))
            .collect();
        out.sort();
        out
    }

    /// Current stored derivation count.
    pub fn derivation_count(&self) -> usize {
        self.owned.values().map(|o| o.counts.len()).sum()
    }

    /// The facts this node generated and still holds, with their ids
    /// (sorted). A node restarted from its durable store must end a run
    /// byte-identical here to the same run without the crash.
    pub fn my_fact_records(&self) -> Vec<(Symbol, Tuple, TupleId)> {
        let mut out: Vec<(Symbol, Tuple, TupleId)> = self
            .my_facts
            .iter()
            .map(|(&(p, ref t), &id)| (p, t.clone(), id))
            .collect();
        out.sort();
        out
    }

    // ------------------------------------------------------------------
    // Update pipeline
    // ------------------------------------------------------------------

    fn fresh_id(&mut self, ctx: &Ctx<Payload>) -> TupleId {
        let id = TupleId {
            node: self.id,
            ts: ctx.local_time,
            seq: self.seq,
        };
        self.seq += 1;
        if let Some(mut d) = self.durable() {
            // Persist the high-water mark so a restarted incarnation never
            // re-mints an id this one used.
            d.note_seq(id.seq);
        }
        id
    }

    /// Start the storage phase for `fact` and schedule its join phase.
    fn initiate_update(&mut self, ctx: &mut Ctx<Payload>, fact: FactRecord) {
        let _span = self.tele.span("core.update.initiate");
        // A stream no rule consumes needs neither replication nor a probe:
        // derived results "will anyway be hashed appropriately for further
        // use of the join-query result" (Sec. III-A) — and sink predicates
        // have no further use beyond their owner.
        if !self.prog.occurrences.contains_key(&fact.pred)
            && self.cfg.strategy != Strategy::Centroid
        {
            return;
        }
        if self.cfg.strategy == Strategy::Centroid {
            let center = Strategy::center(&self.net.topo);
            if center == self.id {
                self.feed_center(ctx.local_time, &fact);
            } else {
                self.route(ctx, center, Payload::ToCenter { fact });
            }
            return;
        }

        // Storage phase.
        match self.cfg.strategy {
            Strategy::NaiveBroadcast => {
                self.store_replica(ctx, &fact);
                self.flood_seen.insert((fact.id, fact.kind));
                self.tele
                    .bump(Scope::Pred(fact.pred.as_str()), "flood_broadcasts");
                ctx.broadcast(Payload::FloodStore { fact: fact.clone() });
            }
            _ => {
                let region = self
                    .cfg
                    .strategy
                    .storage_region(&self.net.topo, self.id, self.cfg.spatial_radius)
                    .expect("non-centroid strategy has regions");
                self.store_replica(ctx, &fact);
                let my_pos = region.iter().position(|&n| n == self.id);
                let walk: Vec<NodeId> = match my_pos {
                    Some(i) => {
                        // Walk right then wrap to the left part: two walks.
                        let right: Vec<NodeId> = region[i + 1..].to_vec();
                        let left: Vec<NodeId> = region[..i].iter().rev().copied().collect();
                        if !right.is_empty() {
                            self.send_store_walk(ctx, &fact, right);
                        }
                        left
                    }
                    None => region,
                };
                if !walk.is_empty() {
                    self.send_store_walk(ctx, &fact, walk);
                }
            }
        }

        // Join phase after τs + τc (Sec. IV-A).
        let delay = self.cfg.tau_s + self.cfg.tau_c;
        let tag = self.arm_timer(TimerAction::StartJoin(fact));
        ctx.set_timer(delay, tag);
    }

    fn send_store_walk(&mut self, ctx: &mut Ctx<Payload>, fact: &FactRecord, walk: Vec<NodeId>) {
        let first = walk[0];
        let msg = Payload::StoreWalk {
            fact: fact.clone(),
            walk: Arc::new(walk),
            pos: 0,
        };
        self.route(ctx, first, msg);
    }

    fn store_replica(&mut self, ctx: &mut Ctx<Payload>, fact: &FactRecord) {
        // Generation-aware replica storage: insert and delete walks may
        // arrive in either order (independent multi-hop routes), so the
        // replica tracks the newest tuple *generation* (by ID, Definition 2)
        // and a tombstone never gets clobbered by its own generation's
        // late-arriving insert.
        self.tele
            .bump(Scope::Pred(fact.pred.as_str()), "replicas_stored");
        let key = (fact.pred, fact.tuple.clone());
        let stored = self.frag_ids.get(&key).copied();
        match fact.kind {
            UpdateKind::Insert => match stored {
                // Same generation already here (possibly tombstoned by an
                // overtaking delete), or a newer one: nothing to do.
                Some(old) if old >= fact.id => {}
                _ => {
                    let rel = self.frags.relation_mut(fact.pred);
                    rel.remove(&fact.tuple); // reset meta of any older gen
                    rel.insert(fact.tuple.clone(), TupleMeta::at(fact.tau));
                    self.frag_ids.insert(key, fact.id);
                }
            },
            UpdateKind::Delete => match stored {
                // Tombstone the matching generation (Sec. IV-B: replicas
                // stay for concurrent probes and expire later).
                Some(old) if old == fact.id => {
                    self.frags
                        .relation_mut(fact.pred)
                        .mark_deleted(&fact.tuple, fact.tau);
                }
                // A newer generation is stored: this delete is stale.
                Some(old) if old > fact.id => {}
                // Delete overtook (or outlived) the insert walk: store a
                // tombstoned replica so probes between gen and del still
                // see it, and later probes don't.
                _ => {
                    let rel = self.frags.relation_mut(fact.pred);
                    rel.remove(&fact.tuple);
                    rel.insert(
                        fact.tuple.clone(),
                        TupleMeta {
                            gen_ts: fact.id.ts,
                            del_ts: Some(fact.tau),
                        },
                    );
                    self.frag_ids.insert(key, fact.id);
                }
            },
        }
        self.stats.peak_replicas = self.stats.peak_replicas.max(self.frags.total_tuples());
        self.note_pred_stored(fact.pred);
        // Retention timer for windowed streams (Sec. IV-B): the replica
        // must outlive every probe that may legally join with it —
        // (τs + τc) + τj + (τw + τc) past its generation timestamp.
        if fact.kind == UpdateKind::Insert {
            if let Some(&w) = self.prog.windows.get(&fact.pred) {
                let retention =
                    (self.cfg.tau_s + self.cfg.tau_c) + self.cfg.tau_j + (w + self.cfg.tau_c);
                let expire_at = fact.tau.saturating_add(retention);
                let delay = expire_at.saturating_sub(ctx.local_time).max(1);
                let tag = self.arm_timer(TimerAction::ExpireReplica(fact.pred, fact.tuple.clone()));
                ctx.set_timer(delay, tag);
            }
        }
    }

    /// Build and launch the join probe for `fact`.
    fn start_join(&mut self, ctx: &mut Ctx<Payload>, fact: FactRecord) {
        let _span = self.tele.span("core.join.start");
        let occs = match self.prog.occurrences.get(&fact.pred) {
            Some(o) => o.clone(),
            None => return, // pred not consumed by any rule
        };
        let mut work = Vec::new();
        let mut max_passes: u8 = 1;
        for occ in &occs {
            let rule = &self.prog.analysis.program.rules[occ.rule_idx];
            if let Some(p) = seed_partial(
                &self.prog,
                rule,
                occ.lit_idx,
                occ.negated,
                &fact.tuple,
                fact.id,
            ) {
                if self.cfg.pass_mode == PassMode::MultiPass {
                    let shape = &self.shapes[occ.rule_idx];
                    let remaining = shape
                        .positives
                        .iter()
                        .filter(|&&i| i != occ.lit_idx)
                        .count() as u8;
                    max_passes = max_passes.max(remaining.max(1));
                }
                work.push(RuleWork {
                    rule_idx: occ.rule_idx as u16,
                    occ: occ.lit_idx as u16,
                    negated: occ.negated,
                    partials: vec![p],
                });
            }
        }
        if work.is_empty() {
            return;
        }
        let region = self
            .cfg
            .strategy
            .join_region(&self.net.topo, self.id, self.cfg.spatial_radius)
            .expect("non-centroid strategy has regions");
        let probe = ProbeMsg {
            update: fact,
            walk: Arc::new(region),
            pos: 0,
            pass: 0,
            total_passes: max_passes,
            work,
        };
        self.deliver_probe(ctx, probe);
    }

    /// Route the probe to its current walk target (possibly ourselves).
    fn deliver_probe(&mut self, ctx: &mut Ctx<Payload>, probe: ProbeMsg) {
        let target = probe.walk[probe.pos];
        if target == self.id {
            self.process_probe(ctx, probe);
        } else {
            self.route(ctx, target, Payload::Probe(probe));
        }
    }

    /// Run the join-computation step at this node (Fig. 1) and forward.
    fn process_probe(&mut self, ctx: &mut Ctx<Payload>, mut probe: ProbeMsg) {
        let _span = self.tele.span("core.join.probe");
        self.stats.probes_processed += 1;
        let tau = probe.update.tau;
        let sign_base = probe.update.kind;
        // Sim-time age of the update at the moment its probe reaches us —
        // the in-network join latency the paper bounds with τs + τc.
        self.tele
            .record_sim("core.join.probe", ctx.local_time.saturating_sub(tau));
        self.tele
            .bump(Scope::Pred(probe.update.pred.as_str()), "probes_processed");

        let mut emissions: Vec<(Symbol, Tuple, DerivationKey, i8)> = Vec::new();
        {
            let frag_ids = &self.frag_ids;
            let id_of = move |p: Symbol, t: &Tuple| frag_ids.get(&(p, t.clone())).copied();
            let lctx = LocalCtx {
                prog: self.prog.as_ref(),
                db: &self.frags,
                id_of: &id_of,
                tau,
                update_id: probe.update.id,
                // Fault-plane delete probes match generously so re-driven
                // tombstones retract derivations made from stale replicas
                // (see `LocalCtx::generous`).
                generous: self.faults.is_some() && sign_base == UpdateKind::Delete,
            };
            let last_node = probe.pos + 1 == probe.walk.len();
            let last_pass = probe.pass + 1 >= probe.total_passes;
            let end_of_walk = last_node && last_pass;

            for workitem in &mut probe.work {
                let rule = &self.prog.analysis.program.rules[workitem.rule_idx as usize];
                let shape = &self.shapes[workitem.rule_idx as usize];
                let pinned = Some(workitem.occ as usize);
                // Multiple-pass restriction: pass k extends only the k-th
                // unbound positive literal (ascending, skipping the pin).
                let restrict = if probe.total_passes > 1 {
                    // Rules with fewer remaining streams than total passes
                    // are done extending: restrict to an impossible index.
                    Some(
                        shape
                            .positives
                            .iter()
                            .filter(|&&i| i != workitem.occ as usize)
                            .nth(probe.pass as usize)
                            .copied()
                            .unwrap_or(usize::MAX),
                    )
                } else {
                    None
                };
                let incoming = std::mem::take(&mut workitem.partials);
                let processed = process_partials(&lctx, rule, shape, incoming, pinned, restrict);
                let needs_full_walk = shape.has_negation_other_than(pinned);
                let sign = match (sign_base, workitem.negated) {
                    (UpdateKind::Insert, false) | (UpdateKind::Delete, true) => 1i8,
                    _ => -1i8,
                };
                let mut keep: Vec<Partial> = Vec::new();
                for p in processed {
                    if p.is_complete(shape) {
                        if needs_full_walk && !end_of_walk {
                            keep.push(p); // keep checking negations
                        } else {
                            let key = DerivationKey::new(rule.id, p.inputs.clone());
                            // A head that fails to evaluate is dropped.
                            if let Ok(tuple) = instantiate_head(rule, &p.bindings, &self.prog.reg) {
                                emissions.push((rule.head.pred, tuple, key, sign));
                            }
                        }
                    } else if !end_of_walk {
                        keep.push(p);
                    }
                }
                workitem.partials = keep;
            }
        }

        let origin = probe.update.id;
        for (pred, tuple, key, sign) in emissions {
            self.stats.results_emitted += 1;
            self.tele
                .bump(Scope::Pred(pred.as_str()), "results_emitted");
            self.emit_deriv_delta(ctx, pred, tuple, key, sign, tau, origin);
        }

        // Forward.
        if probe.pos + 1 < probe.walk.len() {
            probe.pos += 1;
            self.deliver_probe(ctx, probe);
        } else if probe.pass + 1 < probe.total_passes {
            // Multiple-pass: U-turn.
            let mut walk = probe.walk.as_ref().clone();
            walk.reverse();
            probe.walk = Arc::new(walk);
            probe.pos = 0;
            probe.pass += 1;
            // Already at the first node of the reversed walk (ourselves).
            self.process_probe(ctx, probe);
        }
        // else: traversal done; undischarged partials discarded
        // ("the partial results generated at the last node are discarded").
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_deriv_delta(
        &mut self,
        ctx: &mut Ctx<Payload>,
        pred: Symbol,
        tuple: Tuple,
        key: DerivationKey,
        sign: i8,
        tau: SimTime,
        origin: TupleId,
    ) {
        let owner = ght::owner_of(&self.net.topo, pred, &tuple);
        if owner == self.id {
            self.handle_deriv_delta(ctx, pred, tuple, key, sign, tau, origin);
        } else {
            let payload = Payload::DerivDelta {
                pred,
                tuple,
                key,
                sign,
                tau,
                origin,
            };
            self.route(ctx, owner, payload);
        }
    }

    /// Owner-side derivation bookkeeping + holddown arming.
    #[allow(clippy::too_many_arguments)]
    fn handle_deriv_delta(
        &mut self,
        ctx: &mut Ctx<Payload>,
        pred: Symbol,
        tuple: Tuple,
        key: DerivationKey,
        sign: i8,
        tau: SimTime,
        origin: TupleId,
    ) {
        let _span = self.tele.span("core.result.apply");
        self.tele.bump(Scope::Pred(pred.as_str()), "deriv_deltas");
        self.prov.record_with(|| ProvRecord::Deriv {
            owner: self.id,
            pred,
            tuple: tuple.clone(),
            key: key.clone(),
            sign,
            tau,
            origin,
            at: ctx.local_time,
        });
        // Sim-time lag between the originating update and its derivation
        // delta landing at the owner (storage + join + result routing).
        let lag = ctx.local_time.saturating_sub(tau);
        self.tele.record_sim("core.result.apply", lag);
        // Per-hop estimate: the end-to-end lag spread over the network
        // depth. Feeds the adaptive holddown default for predicates with
        // no declared `.holddown`.
        self.hop_lag.observe(lag / self.net.depth());
        if !self.owned.contains_key(&(pred, tuple.clone())) {
            *self.owned_per_pred.entry(pred).or_insert(0) += 1;
        }
        let needs_holddown = {
            let entry = self.owned.entry((pred, tuple.clone())).or_default();
            // Counts are clamped to [-1, 1] per derivation key: a source-
            // driven refresh re-announces live facts with their original
            // ids, so the same derivation (same key — keys embed input ids)
            // can legitimately arrive more than once, and repeated
            // tombstone replays can over-deliver the matching delete. The
            // clamp makes both idempotent while still letting a delete
            // overtake its insert (transient -1) and letting the structural
            // checker catch genuine underflow on fault-free runs.
            let c = entry.counts.entry(key).or_insert(0);
            *c = if sign > 0 {
                (*c + 1).min(1)
            } else {
                (*c - 1).max(-1)
            };
            entry.counts.retain(|_, &mut c| c != 0);
            let live = entry.live(self.faults.as_ref());
            let needed = !entry.holddown_armed && live != entry.propagated_live;
            if needed {
                entry.holddown_armed = true;
            }
            needed
        };
        // Windowed derived streams: owned state expires with the window
        // (silent, Sec. II-B). Re-armed on each delta so the entry outlives
        // its last activity by one window.
        if let Some(&w) = self.prog.windows.get(&pred).copied().as_ref() {
            let tag = self.arm_timer(TimerAction::ExpireOwned(pred, tuple.clone()));
            ctx.set_timer(w + self.cfg.tau_c + 1, tag);
        }
        if needs_holddown {
            self.arm_holddown(ctx, pred, tuple);
        }
        self.stats.peak_derivations = self.stats.peak_derivations.max(self.derivation_count());
        self.note_pred_stored(pred);
    }

    /// Holddown for predicates with no declared `.holddown`: p95 observed
    /// per-hop result lag Ã network depth (the ROADMAP adaptive-holddown
    /// item, minimal version) â long enough for a canceling delta to cross
    /// the network, short enough to track the deployment's real latency
    /// instead of a hard-coded constant. Clamped to `[10, Ïj]`; 100 until
    /// the first observation. Declared `.holddown` values stay
    /// authoritative (checked before this is consulted).
    fn default_holddown(&self) -> SimTime {
        let tau_j = self.cfg.tau_j;
        let cap = self
            .faults
            .as_ref()
            .map_or(tau_j, |f| f.holddown_cap(tau_j))
            .max(10);
        match self.hop_lag.quantile_upper(0.95) {
            Some(per_hop) => per_hop.saturating_mul(self.net.depth()).clamp(10, cap),
            None => 100.min(cap),
        }
    }

    /// Arm the finalize holddown for an owned entry: the declared
    /// `.holddown`, else the adaptive default.
    fn arm_holddown(&mut self, ctx: &mut Ctx<Payload>, pred: Symbol, tuple: Tuple) {
        let holddown = self
            .prog
            .holddown
            .get(&pred)
            .copied()
            .unwrap_or_else(|| self.default_holddown());
        let tag = self.arm_timer(TimerAction::Holddown(pred, tuple));
        ctx.set_timer(holddown, tag);
    }

    /// Holddown expired: propagate the tuple's liveness if it still differs
    /// from what the network believes (Sec. IV-C's "wait … before actually
    /// finalizing a derived fact").
    fn fire_holddown(&mut self, ctx: &mut Ctx<Payload>, pred: Symbol, tuple: Tuple) {
        let now = ctx.local_time;
        let Some(entry) = self.owned.get_mut(&(pred, tuple.clone())) else {
            return;
        };
        entry.holddown_armed = false;
        let live = entry.live(self.faults.as_ref());
        if live == entry.propagated_live {
            return; // transition debounced away
        }
        entry.propagated_live = live;
        let propagated_id = entry.id;
        self.tele.bump(Scope::Pred(pred.as_str()), "holddown_fired");
        let fact = if live {
            let id = self.fresh_id(ctx);
            if let Some(entry) = self.owned.get_mut(&(pred, tuple.clone())) {
                entry.id = Some(id);
            }
            FactRecord::insert(pred, tuple.clone(), id)
        } else {
            let Some(id) = propagated_id else {
                // Died before its insert was ever propagated (the holddown
                // debounced the whole lifetime away at arming time but the
                // flag raced): nothing in the network to retract.
                self.stats.routing_drops += 1;
                return;
            };
            FactRecord::delete(pred, tuple.clone(), id, now)
        };
        self.prov.record_with(|| ProvRecord::Mint {
            owner: self.id,
            pred,
            tuple: fact.tuple.clone(),
            id: fact.id,
            kind: fact.kind,
            at: now,
        });
        self.log_output(pred, &tuple, fact.kind, now);
        self.initiate_update(ctx, fact);
    }

    fn log_output(&mut self, pred: Symbol, tuple: &Tuple, kind: UpdateKind, ts: SimTime) {
        if self.prog.outputs.contains(&pred) {
            self.output_log.push((pred, tuple.clone(), kind, ts));
        }
    }

    fn feed_center(&mut self, now: SimTime, fact: &FactRecord) {
        let Some(engine) = self.center_engine.as_mut() else {
            // A ToCenter payload landed at a non-center node (misrouted
            // under churn): drop it rather than crash the node.
            self.stats.routing_drops += 1;
            return;
        };
        let upd = Update {
            pred: fact.pred,
            tuple: fact.tuple.clone(),
            kind: fact.kind,
            ts: fact.tau,
        };
        let _ = engine.apply(upd);
        if self.prov.is_enabled() {
            // The fed fact keeps its source-minted id (the source already
            // emitted the `Edb` record); deletes reuse the generation id,
            // so only inserts refresh the binding.
            if fact.kind == UpdateKind::Insert {
                self.center_ids
                    .insert((fact.pred, fact.tuple.clone()), fact.id);
            }
            self.drain_center_lineage(now, fact.id);
        }
    }

    /// Translate the center engine's per-firing lineage records (appended
    /// since the last drain) into the cross-node provenance dialect: each
    /// firing becomes a `Deriv` whose key maps premise atoms to their
    /// bound tuple ids, and a newly-live head gets a center-minted `Mint`.
    /// Cascade order guarantees a derived premise's own `+1` record (and
    /// hence its mint) precedes any firing that consumes it.
    fn drain_center_lineage(&mut self, now: SimTime, trigger: TupleId) {
        use sensorlog_eval::EDB_RULE;
        // (rule_id, sign, head atom, premise atoms, tau) per fresh firing.
        type Firing = (usize, i8, (Symbol, Tuple), Vec<(Symbol, Tuple)>, u64);
        let Some(log) = self.center_engine.as_ref().and_then(|e| e.lineage()) else {
            return;
        };
        let fresh: Vec<Firing> = log.records[self.center_lineage_cursor..]
            .iter()
            .filter(|r| r.rule_id != EDB_RULE)
            .map(|r| {
                let head = log.resolve(r.head).expect("interned head").clone();
                let prems = r
                    .premises
                    .iter()
                    .map(|&a| log.resolve(a).expect("interned premise").clone())
                    .collect();
                (r.rule_id, r.sign, head, prems, r.tau)
            })
            .collect();
        self.center_lineage_cursor = log.len();
        for (rule_id, sign, (pred, tuple), prems, tau) in fresh {
            let inputs: Option<Vec<(u16, TupleId)>> = prems
                .iter()
                .enumerate()
                .map(|(i, atom)| self.center_ids.get(atom).map(|&id| (i as u16, id)))
                .collect();
            let Some(inputs) = inputs else {
                // A premise with no binding means its own lineage was lost
                // (engine predates the plane being enabled): skip rather
                // than fabricate an unprovable key.
                continue;
            };
            self.prov.record_with(|| ProvRecord::Deriv {
                owner: self.id,
                pred,
                tuple: tuple.clone(),
                key: DerivationKey::new(rule_id, inputs.clone()),
                sign,
                tau,
                origin: trigger,
                at: now,
            });
            if sign > 0 && !self.center_ids.contains_key(&(pred, tuple.clone())) {
                let id = TupleId {
                    node: self.id,
                    ts: now,
                    seq: self.center_seq,
                };
                self.center_seq += 1;
                self.center_ids.insert((pred, tuple.clone()), id);
                self.prov.record_with(|| ProvRecord::Mint {
                    owner: self.id,
                    pred,
                    tuple: tuple.clone(),
                    id,
                    kind: UpdateKind::Insert,
                    at: now,
                });
            }
        }
    }

    fn arm_timer(&mut self, action: TimerAction) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.timers.insert(tag, action);
        tag
    }

    fn route(&mut self, ctx: &mut Ctx<Payload>, dest: NodeId, payload: Payload) {
        debug_assert_ne!(dest, self.id);
        if self.tele.is_enabled() {
            // Per-predicate traffic accounting, one bump per hop (the same
            // currency as the simulator's per-kind tx counters).
            self.tele.bump(
                Scope::Pred(payload.pred().as_str()),
                sent_counter(payload.kind()),
            );
        }
        let Some(hop) = self.net.next_hop(self.id, dest) else {
            // Unreachable destination (partitioned topology): a logged
            // drop, indistinguishable from loss to the protocol above.
            self.stats.routing_drops += 1;
            self.tele
                .bump(Scope::Pred(payload.pred().as_str()), "routing_drops");
            return;
        };
        let hop = self.detour(dest, hop);
        if self.prov.is_enabled() {
            if let Some(origin) = payload.origin_id() {
                let (kind, at) = (payload.kind(), ctx.local_time);
                self.prov.record_with(|| ProvRecord::Hop {
                    from: self.id,
                    to: hop,
                    dest,
                    kind,
                    origin,
                    at,
                });
            }
        }
        if hop == dest {
            ctx.send(dest, payload);
        } else {
            ctx.send(
                hop,
                Payload::Routed {
                    dest,
                    inner: Box::new(payload),
                },
            );
        }
    }

    /// Dispatch one payload; `from` is its radio sender, `None` once
    /// unwrapped from a `Routed` envelope.
    fn handle_payload(&mut self, ctx: &mut Ctx<Payload>, from: Option<NodeId>, payload: Payload) {
        match payload {
            Payload::Routed { dest, inner } => {
                if dest == self.id {
                    self.handle_payload(ctx, None, *inner);
                } else {
                    self.route(ctx, dest, *inner);
                }
            }
            Payload::StoreWalk { fact, walk, pos } => {
                self.store_replica(ctx, &fact);
                if pos + 1 < walk.len() {
                    let next = walk[pos + 1];
                    self.route(
                        ctx,
                        next,
                        Payload::StoreWalk {
                            fact,
                            walk,
                            pos: pos + 1,
                        },
                    );
                }
            }
            Payload::FloodStore { fact } => {
                if self.flood_seen.insert((fact.id, fact.kind)) {
                    self.store_replica(ctx, &fact);
                    self.tele
                        .bump(Scope::Pred(fact.pred.as_str()), "flood_broadcasts");
                    ctx.broadcast(Payload::FloodStore { fact });
                }
            }
            Payload::Probe(probe) => {
                if probe.walk[probe.pos] == self.id {
                    self.process_probe(ctx, probe);
                } else {
                    // Mid-route to its walk target.
                    self.deliver_probe(ctx, probe);
                }
            }
            Payload::DerivDelta {
                pred,
                tuple,
                key,
                sign,
                tau,
                origin,
            } => self.handle_deriv_delta(ctx, pred, tuple, key, sign, tau, origin),
            Payload::ToCenter { fact } => self.feed_center(ctx.local_time, &fact),
            fault @ (Payload::Heartbeat { .. }
            | Payload::Liveness { .. }
            | Payload::LivenessDigest { .. }) => self.fault_msg(ctx, from, fault),
        }
    }
}

/// Telemetry counter name for a routed payload of the given message kind
/// (`&'static` so counter keys never allocate on the hot path).
fn sent_counter(kind: &'static str) -> &'static str {
    match kind {
        "store" => "sent_store",
        "probe" => "sent_probe",
        "result" => "sent_result",
        "centroid" => "sent_centroid",
        _ => "sent_other",
    }
}

impl App for SensorlogNode {
    type Msg = Payload;

    fn on_start(&mut self, ctx: &mut Ctx<Payload>) {
        self.boot(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<Payload>) {
        self.boot(ctx);
        self.recover(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Payload>, from: NodeId, msg: Payload) {
        self.handle_payload(ctx, Some(from), msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Payload>, tag: u64) {
        match self.timers.remove(&tag) {
            Some(TimerAction::StartJoin(fact)) => self.start_join(ctx, fact),
            Some(TimerAction::Holddown(pred, tuple)) => self.fire_holddown(ctx, pred, tuple),
            Some(TimerAction::Fault(tick)) => self.fault_tick(ctx, tick),
            Some(TimerAction::ExpireReplica(pred, tuple)) => {
                self.frags.remove(pred, &tuple);
                self.frag_ids.remove(&(pred, tuple));
            }
            Some(TimerAction::ExpireOwned(pred, tuple)) => {
                // Only expire if genuinely past the window (a later delta
                // re-armed a fresher timer otherwise).
                if let (Some(&w), Some(entry)) = (
                    self.prog.windows.get(&pred),
                    self.owned.get(&(pred, tuple.clone())),
                ) {
                    let stale = entry
                        .id
                        .is_none_or(|id| id.ts.saturating_add(w) < ctx.local_time);
                    if stale && !entry.holddown_armed && self.owned.remove(&(pred, tuple)).is_some()
                    {
                        if let Some(c) = self.owned_per_pred.get_mut(&pred) {
                            *c = c.saturating_sub(1);
                        }
                    }
                }
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netinfo_grid_routes_without_tables() {
        let net = NetInfo::new(Topology::square_grid(4));
        // x first, then y.
        let from = NodeId(0); // (0,0)
        let dest = NodeId(15); // (3,3)
        let hop = net.next_hop(from, dest);
        assert_eq!(hop, Some(NodeId(1))); // (1,0)
        let hop2 = net.next_hop(NodeId(3), dest); // (3,0) -> up
        assert_eq!(hop2, Some(NodeId(7))); // (3,1)
    }

    #[test]
    fn netinfo_geometric_uses_bfs_tables() {
        let topo = Topology::random_geometric(20, 4.0, 1.7, 5).unwrap();
        let net = NetInfo::new(topo.clone());
        // Hop chains always terminate at the destination.
        for (a, b) in [(0u32, 19u32), (5, 12)] {
            let (mut cur, dest) = (NodeId(a), NodeId(b));
            let mut hops = 0;
            while cur != dest {
                let nxt = net.next_hop(cur, dest).expect("connected topology");
                assert!(topo.are_neighbors(cur, nxt), "{cur}->{nxt} not a link");
                cur = nxt;
                hops += 1;
                assert!(hops <= topo.len(), "routing loop");
            }
        }
    }

    #[test]
    fn netinfo_disconnected_returns_none_not_panic() {
        // Two 2-node islands far apart: cross-island routes must be None.
        let topo = Topology::from_positions(
            vec![(0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (101.0, 0.0)],
            1.5,
        );
        assert!(!topo.is_connected());
        let net = NetInfo::new(topo);
        assert_eq!(net.next_hop(NodeId(0), NodeId(1)), Some(NodeId(1)));
        assert_eq!(net.next_hop(NodeId(0), NodeId(2)), None);
        assert_eq!(net.next_hop(NodeId(3), NodeId(1)), None);
        assert_eq!(net.next_hop(NodeId(2), NodeId(3)), Some(NodeId(3)));
    }

    #[test]
    fn rtconfig_defaults_are_sane() {
        let c = RtConfig::default();
        assert!(c.tau_s > 0 && c.tau_j > 0);
        assert_eq!(c.pass_mode, crate::strategy::PassMode::OnePass);
        assert!(matches!(c.strategy, Strategy::Perpendicular { .. }));
        assert!(c.faults.is_none(), "fault plane must be opt-in");
    }
}
