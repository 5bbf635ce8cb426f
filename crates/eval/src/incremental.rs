//! Incremental maintenance with the **set-of-derivations** approach
//! (Sec. IV-A/IV-B).
//!
//! The engine maintains every derived relation under insertions and
//! deletions to the base streams. For each derived tuple it keeps its set of
//! derivations (Definition 2) — here with *signed multiplicity counts*,
//! because two different blockers of the same negated subgoal must commute
//! (see DESIGN.md "Derivation multiplicity"): a tuple is live iff some
//! derivation has a positive count.
//!
//! Per update `t` on stream `R` with timestamp τ (processed in timestamp
//! order, mirroring Theorem 3's virtual serialization):
//!
//! * for every rule and every occurrence of `R` (positive *or* negated),
//!   compute `T_r` by pinning that occurrence to `t` — the paper's
//!   `T_s1 :- R1, …, t_s1, NOT S2, …` construction — under the *staircase*
//!   convention for self-joins (occurrences before the updated one see the
//!   new state, occurrences after it the old state);
//! * the sign is `+` for inserts at positive occurrences and deletes at
//!   negated occurrences, `−` otherwise;
//! * count transitions 0→live emit a derived insertion, live→0 a derived
//!   deletion, which cascade through higher rules exactly like base updates
//!   (the derived-stream view of Sec. III-B).

use crate::aggregate::aggregate_rule;
use crate::error::EvalError;
use crate::eval_body::{instantiate_head, BodyEval, TupleFilter};
use crate::lineage::LineageLog;
use crate::relation::{Database, TupleMeta};
use crate::seminaive::effective_windows;
use sensorlog_logic::analyze::Analysis;
use sensorlog_logic::ast::{Literal, Rule};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::FlatSubst;
use sensorlog_logic::intern;
use sensorlog_logic::unify::{match_term, Subst};
use sensorlog_logic::{Symbol, Term, Tuple};
use sensorlog_telemetry::Profiler;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Insert or delete.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum UpdateKind {
    Insert,
    Delete,
}

/// A stream update (base or derived).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Update {
    pub pred: Symbol,
    pub tuple: Tuple,
    pub kind: UpdateKind,
    /// Local timestamp of the update event (Definition 2).
    pub ts: u64,
}

impl Update {
    pub fn insert(pred: Symbol, tuple: Tuple, ts: u64) -> Update {
        Update {
            pred,
            tuple,
            kind: UpdateKind::Insert,
            ts,
        }
    }

    pub fn delete(pred: Symbol, tuple: Tuple, ts: u64) -> Update {
        Update {
            pred,
            tuple,
            kind: UpdateKind::Delete,
            ts,
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.kind {
            UpdateKind::Insert => '+',
            UpdateKind::Delete => '-',
        };
        write!(f, "{}{}{} @{}", op, self.pred, self.tuple, self.ts)
    }
}

/// One derivation of a derived tuple: the rule used plus the positive
/// subgoal matches, keyed by literal position (Definition 2 extended with
/// the rule ID, as the paper specifies).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Derivation {
    pub rule_id: usize,
    pub inputs: Vec<(usize, Symbol, Tuple)>,
}

/// Counters exposed for the experiments (state size = the paper's "space
/// overhead of storing the derivations").
#[derive(Clone, Copy, Debug, Default)]
pub struct IncStats {
    pub updates_processed: u64,
    pub derived_emitted: u64,
    pub body_evals: u64,
}

/// Incremental engine with set-of-derivations maintenance.
pub struct IncrementalEngine {
    pub analysis: Analysis,
    pub reg: BuiltinRegistry,
    pub db: Database,
    windows: BTreeMap<Symbol, u64>,
    derivs: HashMap<(Symbol, Tuple), HashMap<Derivation, i64>>,
    /// Current head tuple per (agg rule id, group key).
    agg_groups: HashMap<(usize, Vec<Term>), Tuple>,
    /// rule index: pred → [(rule index in program, literal idx, negated)]
    occurrences: HashMap<Symbol, Vec<(usize, usize, bool)>>,
    /// Derived predicates (for stale-update suppression).
    idb: BTreeSet<Symbol>,
    /// Predicates defined by aggregate rules (liveness via `agg_groups`).
    agg_heads: BTreeSet<Symbol>,
    pub stats: IncStats,
    /// Phase profiler (disabled by default): times update application and
    /// aggregate-group recomputation.
    pub profiler: Profiler,
    /// Cascade guard.
    pub max_cascade: usize,
    /// Runtime check for the *locally non-recursive* property (Sec. IV-C):
    /// when enabled, every new derivation is checked for a cycle in the
    /// tuple dependency graph and evaluation fails with
    /// [`EvalError::DerivationCycle`] instead of silently keeping zombie
    /// support. Off by default (costs a DFS per derivation).
    pub check_local_recursion: bool,
    /// Probe via relation indexes (planner-registered, maintained through
    /// insert/delete). Disable for the scan A/B baseline.
    pub use_index: bool,
    /// Opt-in per-firing lineage capture (the continuous-engine analogue of
    /// [`crate::EvalConfig::record_lineage`]). `None` = disabled: one
    /// branch per derivation transition, no allocation.
    lineage: Option<LineageLog>,
}

impl IncrementalEngine {
    pub fn new(analysis: Analysis, reg: BuiltinRegistry) -> Result<IncrementalEngine, EvalError> {
        // Validate: a predicate defined by an aggregate rule must not also
        // have non-aggregate rules (liveness would mix two mechanisms).
        let mut agg_heads: BTreeSet<Symbol> = BTreeSet::new();
        let mut plain_heads: BTreeSet<Symbol> = BTreeSet::new();
        for r in &analysis.program.rules {
            if r.agg.is_some() {
                agg_heads.insert(r.head.pred);
            } else {
                plain_heads.insert(r.head.pred);
            }
        }
        if let Some(p) = agg_heads.intersection(&plain_heads).next() {
            return Err(EvalError::Internal(format!(
                "predicate {p} mixes aggregate and plain rules; unsupported incrementally"
            )));
        }

        let mut occurrences: HashMap<Symbol, Vec<(usize, usize, bool)>> = HashMap::new();
        for (ri, r) in analysis.program.rules.iter().enumerate() {
            for (li, lit) in r.body.iter().enumerate() {
                match lit {
                    Literal::Pos(a) => occurrences.entry(a.pred).or_default().push((ri, li, false)),
                    Literal::Neg(a) => occurrences.entry(a.pred).or_default().push((ri, li, true)),
                    _ => {}
                }
            }
        }
        let windows = effective_windows(&analysis);
        let idb = analysis.program.idb_preds();
        let mut db = Database::new();
        crate::planner::register_program_indexes(&mut db, &analysis.program.rules);
        Ok(IncrementalEngine {
            analysis,
            reg,
            db,
            windows,
            derivs: HashMap::new(),
            agg_groups: HashMap::new(),
            occurrences,
            idb,
            agg_heads,
            stats: IncStats::default(),
            profiler: Profiler::disabled(),
            max_cascade: 1_000_000,
            check_local_recursion: false,
            use_index: true,
            lineage: None,
        })
    }

    /// Enable/disable per-firing lineage capture. Enabling starts a fresh
    /// log; every subsequent derivation-count transition (0 → live,
    /// live → 0) and base-stream update is recorded with its rule id,
    /// substitution witness, and premise atoms.
    pub fn set_record_lineage(&mut self, on: bool) {
        self.lineage = if on { Some(LineageLog::new()) } else { None };
    }

    pub fn lineage(&self) -> Option<&LineageLog> {
        self.lineage.as_ref()
    }

    pub fn take_lineage(&mut self) -> Option<LineageLog> {
        self.lineage.take()
    }

    pub fn from_source(src: &str, reg: BuiltinRegistry) -> Result<IncrementalEngine, EvalError> {
        let prog =
            sensorlog_logic::parse_program(src).map_err(|e| EvalError::Internal(e.to_string()))?;
        let analysis = sensorlog_logic::analyze(&prog, &reg)?;
        IncrementalEngine::new(analysis, reg)
    }

    /// Number of stored derivation entries (the space-overhead metric).
    pub fn derivation_count(&self) -> usize {
        self.derivs.values().map(HashMap::len).sum()
    }

    /// Apply one base-stream update and cascade to quiescence. Returns every
    /// derived-stream update emitted (in emission order).
    pub fn apply(&mut self, update: Update) -> Result<Vec<Update>, EvalError> {
        let _span = self.profiler.span("inc.apply");
        let mut queue: VecDeque<Update> = VecDeque::new();
        let mut emitted: Vec<Update> = Vec::new();
        queue.push_back(update);
        let mut steps = 0usize;
        while let Some(u) = queue.pop_front() {
            steps += 1;
            if steps > self.max_cascade {
                return Err(EvalError::LimitExceeded {
                    what: "update cascade",
                    limit: self.max_cascade,
                });
            }
            let produced = self.process_one(&u)?;
            self.stats.updates_processed += 1;
            for d in produced {
                self.stats.derived_emitted += 1;
                emitted.push(d.clone());
                queue.push_back(d);
            }
        }
        Ok(emitted)
    }

    /// Convenience: apply a batch in timestamp order.
    pub fn apply_all(&mut self, mut updates: Vec<Update>) -> Result<Vec<Update>, EvalError> {
        updates.sort_by_key(|u| u.ts);
        let mut out = Vec::new();
        for u in updates {
            out.extend(self.apply(u)?);
        }
        Ok(out)
    }

    /// Expire tuples past their stream's sliding window ("independently
    /// expiring a tuple after sufficient time" — silent, no join phase).
    /// Derivation entries of expired derived tuples are garbage-collected.
    pub fn advance_time(&mut self, now: u64) {
        let preds: Vec<(Symbol, u64)> = self.windows.iter().map(|(&p, &w)| (p, w)).collect();
        for (p, w) in preds {
            let expired = self.db.relation_mut(p).expire(w, now);
            for t in expired {
                self.derivs.remove(&(p, t));
            }
        }
    }

    /// Is this derived tuple currently live per the derivation ledger?
    fn is_live(&self, pred: Symbol, tuple: &Tuple) -> bool {
        self.derivs
            .get(&(pred, tuple.clone()))
            .is_some_and(|m| m.values().any(|&c| c > 0))
    }

    /// Process one update: physical application, delta computation for every
    /// occurrence, derivation bookkeeping, aggregate group recomputation.
    fn process_one(&mut self, u: &Update) -> Result<Vec<Update>, EvalError> {
        // Stale-update suppression: a queued derived insert whose tuple has
        // already been re-retracted in the ledger (or a delete that was
        // re-asserted) is dropped. This is what keeps XY-style
        // insert/retract races from climbing stages forever — a dead insert
        // must not propagate (its queued counterpart drops symmetrically).
        if self.idb.contains(&u.pred) && !self.agg_heads.contains(&u.pred) {
            let live = self.is_live(u.pred, &u.tuple);
            match u.kind {
                UpdateKind::Insert if !live => return Ok(Vec::new()),
                UpdateKind::Delete if live => return Ok(Vec::new()),
                _ => {}
            }
        }
        // Physical application with duplicate suppression.
        match u.kind {
            UpdateKind::Insert => {
                if !self
                    .db
                    .relation_mut(u.pred)
                    .insert(u.tuple.clone(), TupleMeta::at(u.ts))
                {
                    return Ok(Vec::new()); // duplicate: not a generation
                }
            }
            UpdateKind::Delete => {
                if !self.db.contains(u.pred, &u.tuple) {
                    return Ok(Vec::new());
                }
            }
        }

        // Base-stream updates are the lineage leaves (derived updates get
        // their own firing records at the transitions below).
        if !self.idb.contains(&u.pred) {
            if let Some(log) = self.lineage.as_mut() {
                let sign = if u.kind == UpdateKind::Insert { 1 } else { -1 };
                log.record_edb(u.pred, &u.tuple, sign, u.ts);
            }
        }

        // Delta computation per occurrence.
        let occs = self.occurrences.get(&u.pred).cloned().unwrap_or_default();
        let mut deltas: Vec<(Symbol, Tuple, Derivation, i64, Option<FlatSubst>)> = Vec::new();
        let mut agg_dirty: Vec<(usize, Vec<Term>)> = Vec::new();
        for (ri, li, negated) in occs {
            let rule = &self.analysis.program.rules[ri];
            // Staircase filter over same-pred occurrences (see module doc).
            let mut excluded: Vec<usize> = Vec::new();
            for (rj, lj, _) in self.occurrences.get(&u.pred).into_iter().flatten() {
                if *rj != ri {
                    continue;
                }
                let exclude = match u.kind {
                    UpdateKind::Insert => *lj > li, // later occurrences: old state
                    UpdateKind::Delete => *lj < li, // earlier occurrences: new state
                };
                if exclude {
                    excluded.push(*lj);
                }
            }
            let filter = TupleFilter {
                pred: u.pred,
                tuple: u.tuple.clone(),
                literal_indexes: excluded,
            };
            let ev = BodyEval {
                db: &self.db,
                reg: &self.reg,
                filter: Some(&filter),
                vis: None,
                use_index: self.use_index,
            };
            self.stats.body_evals += 1;
            let sols = ev.solutions(&rule.body, FlatSubst::new(), Some((li, &u.tuple)))?;
            if rule.agg.is_some() {
                // Record affected groups; recomputed below against the
                // post-update state.
                for sol in &sols {
                    let key = self.group_key(rule, &sol.subst)?;
                    if !agg_dirty.contains(&(ri, key.clone())) {
                        agg_dirty.push((ri, key));
                    }
                }
                continue;
            }
            let sign = match (u.kind, negated) {
                (UpdateKind::Insert, false) | (UpdateKind::Delete, true) => 1,
                (UpdateKind::Insert, true) | (UpdateKind::Delete, false) => -1,
            };
            for sol in &sols {
                let head = instantiate_head(rule, &sol.subst, &self.reg)?;
                // Drop directly self-supporting derivations (head among its
                // own inputs): sound, and it keeps 1-cycles out of the
                // tuple dependency graph. Longer cycles are outside the
                // supported class — the paper's *locally non-recursive*
                // restriction (Sec. IV-C); use the rederivation engine for
                // general recursive programs with deletions.
                if sol
                    .inputs
                    .iter()
                    .any(|(_, p, t)| *p == rule.head.pred && *t == head)
                {
                    continue;
                }
                let d = Derivation {
                    rule_id: rule.id,
                    inputs: sol.inputs.clone(),
                };
                let witness = self.lineage.is_some().then(|| sol.subst.clone());
                deltas.push((rule.head.pred, head, d, sign, witness));
            }
        }

        // Physical removal for deletes happens *after* the delta pass (the
        // old state must be joinable), before aggregate recomputation.
        // NOTE: the derivation map of a deleted tuple is *not* dropped here:
        // negative counts (derivations blocked before their positive part
        // appeared, or blocked more than once) must survive so later
        // blocker deletions balance the ledger. GC happens at window expiry.
        if u.kind == UpdateKind::Delete {
            self.db.remove(u.pred, &u.tuple);
        }

        let mut out: Vec<Update> = Vec::new();

        // Optional locally-non-recursive runtime check (Sec. IV-C): the
        // dependency graph over derived tuples must stay acyclic.
        if self.check_local_recursion {
            for (pred, tuple, d, sign, _) in &deltas {
                if *sign > 0 && self.derivation_closes_cycle(*pred, tuple, d) {
                    return Err(EvalError::DerivationCycle { pred: *pred });
                }
            }
        }

        // Derivation bookkeeping with liveness transitions.
        for (pred, tuple, d, sign, witness) in deltas {
            let key = (pred, tuple.clone());
            let map = self.derivs.entry(key).or_default();
            let was_live = map.values().any(|&c| c > 0);
            let d_count = map.get(&d).copied().unwrap_or(0);
            let lin_d = self.lineage.is_some().then(|| d.clone());
            *map.entry(d).or_insert(0) += sign;
            map.retain(|_, &mut c| c != 0);
            let now_live = map.values().any(|&c| c > 0);
            // Lineage: per-derivation liveness transitions, not per-atom —
            // a second derivation of an already-live atom is still a new
            // proof alternative.
            if let Some(dd) = lin_d {
                let d_now = d_count + sign > 0;
                if (d_count > 0) != d_now {
                    if let Some(log) = self.lineage.as_mut() {
                        let boxed = witness.as_ref().map(|w| intern::boundary(|| w.to_subst()));
                        log.record_firing(
                            dd.rule_id,
                            if d_now { 1 } else { -1 },
                            pred,
                            &tuple,
                            &dd.inputs,
                            boxed.as_ref(),
                            u.ts,
                        );
                    }
                }
            }
            if !was_live && now_live {
                out.push(Update::insert(pred, tuple, u.ts));
            } else if was_live && !now_live {
                out.push(Update::delete(pred, tuple, u.ts));
            }
        }

        // Aggregate groups: recompute against the post-update state.
        for (ri, key) in agg_dirty {
            let rule = &self.analysis.program.rules[ri];
            out.extend(self.recompute_agg_group(rule.clone(), key, u.ts)?);
        }
        Ok(out)
    }

    /// Would adding derivation `d` for `(pred, tuple)` close a cycle in the
    /// tuple dependency graph? DFS through the *live* derivations of the
    /// inputs.
    fn derivation_closes_cycle(&self, pred: Symbol, tuple: &Tuple, d: &Derivation) -> bool {
        let target = (pred, tuple.clone());
        let mut stack: Vec<(Symbol, Tuple)> =
            d.inputs.iter().map(|(_, p, t)| (*p, t.clone())).collect();
        let mut seen: std::collections::HashSet<(Symbol, Tuple)> = stack.iter().cloned().collect();
        while let Some(key) = stack.pop() {
            if key == target {
                return true;
            }
            if let Some(map) = self.derivs.get(&key) {
                for (dd, &c) in map {
                    if c <= 0 {
                        continue;
                    }
                    for (_, p, t) in &dd.inputs {
                        let k = (*p, t.clone());
                        if seen.insert(k.clone()) {
                            stack.push(k);
                        }
                    }
                }
            }
        }
        false
    }

    fn group_key(&self, rule: &Rule, subst: &FlatSubst) -> Result<Vec<Term>, EvalError> {
        // Group keys are boxed terms (aggregate machinery is off the hot
        // path); resolve the flat bindings once.
        let subst = intern::boundary(|| subst.to_subst());
        rule.head
            .args
            .iter()
            .map(|a| {
                let g = subst.apply(a);
                if g.is_ground() {
                    self.reg.eval_term(&g).map_err(EvalError::from)
                } else {
                    Err(EvalError::Internal(format!(
                        "group key `{a}` unbound in rule #{}",
                        rule.id
                    )))
                }
            })
            .collect()
    }

    /// Re-evaluate one aggregate group from scratch and diff against the
    /// stored result.
    fn recompute_agg_group(
        &mut self,
        rule: Rule,
        key: Vec<Term>,
        ts: u64,
    ) -> Result<Vec<Update>, EvalError> {
        let _span = self.profiler.span("inc.agg_group");
        // Seed the body with the group key by matching head args.
        let mut boxed_seed = Subst::new();
        for (pat, val) in rule.head.args.iter().zip(key.iter()) {
            if !match_term(pat, val, &mut boxed_seed) {
                return Ok(Vec::new()); // key shape impossible (stale)
            }
        }
        let seed = FlatSubst::from_subst(&boxed_seed).expect("group-key bindings are ground");
        let mut ev = BodyEval::new(&self.db, &self.reg);
        ev.use_index = self.use_index;
        self.stats.body_evals += 1;
        let sols = ev.solutions(&rule.body, seed, None)?;
        // Keep only solutions matching this exact group key (head args may
        // not functionally pin every solution).
        let mut matching = Vec::new();
        for s in sols {
            if self.group_key(&rule, &s.subst)? == key {
                matching.push(s);
            }
        }
        let new_tuple = if matching.is_empty() {
            None
        } else {
            aggregate_rule(&rule, &matching, &self.reg)?
                .into_iter()
                .next()
        };
        let slot = (rule.id, key);
        let old = self.agg_groups.get(&slot).cloned();
        let mut out = Vec::new();
        match (old, new_tuple) {
            (Some(o), Some(n)) if o == n => {}
            (Some(o), Some(n)) => {
                self.agg_groups.insert(slot, n.clone());
                out.push(Update::delete(rule.head.pred, o, ts));
                out.push(Update::insert(rule.head.pred, n, ts));
            }
            (None, Some(n)) => {
                self.agg_groups.insert(slot, n.clone());
                out.push(Update::insert(rule.head.pred, n, ts));
            }
            (Some(o), None) => {
                self.agg_groups.remove(&slot);
                out.push(Update::delete(rule.head.pred, o, ts));
            }
            (None, None) => {}
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seminaive::Engine;
    use sensorlog_logic::parser::parse_fact;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tup(src: &str) -> Tuple {
        let (_, args) = parse_fact(&format!("x({src})")).unwrap();
        Tuple::new(args)
    }

    fn upd(kind: UpdateKind, fact: &str, ts: u64) -> Update {
        let (p, args) = parse_fact(fact).unwrap();
        Update {
            pred: p,
            tuple: Tuple::new(args),
            kind,
            ts,
        }
    }

    fn ins(fact: &str, ts: u64) -> Update {
        upd(UpdateKind::Insert, fact, ts)
    }

    fn del(fact: &str, ts: u64) -> Update {
        upd(UpdateKind::Delete, fact, ts)
    }

    const UNCOV: &str = r#"
        cov(L, T) :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 5.
        uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
    "#;

    fn engine(src: &str) -> IncrementalEngine {
        IncrementalEngine::from_source(src, BuiltinRegistry::standard()).unwrap()
    }

    /// Check the incremental state equals the batch oracle on the same EDB.
    fn assert_matches_oracle(inc: &IncrementalEngine, src: &str) {
        let oracle = Engine::from_source(src, BuiltinRegistry::standard()).unwrap();
        // Build the EDB snapshot from the incremental engine's database.
        let edb_preds = inc.analysis.program.edb_preds();
        let mut edb = Database::new();
        for p in &edb_preds {
            for t in inc.db.sorted(*p) {
                edb.insert(*p, t);
            }
        }
        let expect = oracle.run(&edb).unwrap();
        for p in inc.analysis.program.idb_preds() {
            assert_eq!(
                inc.db.sorted(p),
                expect.sorted(p),
                "divergence on predicate {p}"
            );
        }
    }

    #[test]
    fn insert_then_delete_roundtrip() {
        let mut e = engine(UNCOV);
        let out = e.apply(ins(r#"veh("enemy", 10, 1)"#, 1)).unwrap();
        // Uncovered right away.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, UpdateKind::Insert);
        assert_eq!(out[0].pred, sym("uncov"));
        assert!(e.db.contains(sym("uncov"), &tup("10, 1")));

        // A friendly nearby covers it: cov appears, uncov retracts.
        let out = e.apply(ins(r#"veh("friendly", 12, 1)"#, 2)).unwrap();
        assert!(out
            .iter()
            .any(|u| u.pred == sym("cov") && u.kind == UpdateKind::Insert));
        assert!(out
            .iter()
            .any(|u| u.pred == sym("uncov") && u.kind == UpdateKind::Delete));
        assert!(!e.db.contains(sym("uncov"), &tup("10, 1")));

        // Friendly leaves: uncovered again.
        let out = e.apply(del(r#"veh("friendly", 12, 1)"#, 3)).unwrap();
        assert!(out
            .iter()
            .any(|u| u.pred == sym("uncov") && u.kind == UpdateKind::Insert));
        assert_matches_oracle(&e, UNCOV);
    }

    #[test]
    fn duplicate_inserts_suppressed() {
        let mut e = engine(UNCOV);
        e.apply(ins(r#"veh("enemy", 10, 1)"#, 1)).unwrap();
        let out = e.apply(ins(r#"veh("enemy", 10, 1)"#, 2)).unwrap();
        assert!(out.is_empty());
        // A single delete fully retracts.
        e.apply(del(r#"veh("enemy", 10, 1)"#, 3)).unwrap();
        assert!(!e.db.contains(sym("uncov"), &tup("10, 1")));
    }

    #[test]
    fn delete_of_absent_is_noop() {
        let mut e = engine(UNCOV);
        let out = e.apply(del(r#"veh("enemy", 99, 9)"#, 1)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn two_blockers_commute() {
        // The multiplicity-count rationale: two friendlies cover the same
        // enemy; removing them in either order must re-raise the alert only
        // after both are gone.
        let src = UNCOV;
        for order in [[1, 2], [2, 1]] {
            let mut e = engine(src);
            e.apply(ins(r#"veh("enemy", 10, 1)"#, 1)).unwrap();
            e.apply(ins(r#"veh("friendly", 11, 1)"#, 2)).unwrap();
            e.apply(ins(r#"veh("friendly", 12, 1)"#, 3)).unwrap();
            assert!(!e.db.contains(sym("uncov"), &tup("10, 1")));
            let f = |i: i64| format!(r#"veh("friendly", 1{i}, 1)"#);
            e.apply(del(&f(order[0] as i64), 4)).unwrap();
            assert!(
                !e.db.contains(sym("uncov"), &tup("10, 1")),
                "still covered by the other friendly"
            );
            e.apply(del(&f(order[1] as i64), 5)).unwrap();
            assert!(e.db.contains(sym("uncov"), &tup("10, 1")));
            assert_matches_oracle(&e, src);
        }
    }

    #[test]
    fn self_join_staircase_exact() {
        // q(X, Z) :- e(X, Y), e(Y, Z): inserting e(1,1) must create exactly
        // one derivation of q(1,1), and deleting it exactly remove it.
        let src = "q(X, Z) :- e(X, Y), e(Y, Z).";
        let mut e = engine(src);
        e.apply(ins("e(1, 1)", 1)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1, 1")));
        assert_eq!(e.derivation_count(), 1);
        e.apply(del("e(1, 1)", 2)).unwrap();
        assert!(!e.db.contains(sym("q"), &tup("1, 1")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn self_join_chain() {
        let src = "q(X, Z) :- e(X, Y), e(Y, Z).";
        let mut e = engine(src);
        e.apply(ins("e(1, 2)", 1)).unwrap();
        e.apply(ins("e(2, 3)", 2)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1, 3")));
        e.apply(del("e(1, 2)", 3)).unwrap();
        assert!(!e.db.contains(sym("q"), &tup("1, 3")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn multiple_derivations_protect_tuple() {
        // Two paths derive the same tuple; deleting one keeps it alive.
        let src = r#"
            q(Z) :- a(Z).
            q(Z) :- b(Z).
        "#;
        let mut e = engine(src);
        e.apply(ins("a(7)", 1)).unwrap();
        e.apply(ins("b(7)", 2)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("7")));
        e.apply(del("a(7)", 3)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("7")), "b-derivation remains");
        e.apply(del("b(7)", 4)).unwrap();
        assert!(!e.db.contains(sym("q"), &tup("7")));
    }

    #[test]
    fn cascading_through_strata() {
        let src = r#"
            a(X) :- base(X).
            b(X) :- a(X), not blocked(X).
            c(X) :- b(X).
        "#;
        let mut e = engine(src);
        let out = e.apply(ins("base(1)", 1)).unwrap();
        assert_eq!(out.len(), 3); // a, b, c inserts
        assert!(e.db.contains(sym("c"), &tup("1")));
        let out = e.apply(ins("blocked(1)", 2)).unwrap();
        assert!(out
            .iter()
            .any(|u| u.pred == sym("c") && u.kind == UpdateKind::Delete));
        assert!(!e.db.contains(sym("c"), &tup("1")));
        e.apply(del("blocked(1)", 3)).unwrap();
        assert!(e.db.contains(sym("c"), &tup("1")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn recursive_transitive_closure_incremental() {
        let src = r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
        "#;
        let mut e = engine(src);
        for (i, edge) in [(1, 2), (2, 3), (3, 4)].iter().enumerate() {
            e.apply(ins(&format!("e({}, {})", edge.0, edge.1), i as u64))
                .unwrap();
        }
        assert!(e.db.contains(sym("t"), &tup("1, 4")));
        assert_matches_oracle(&e, src);
        // Delete the middle edge: everything through it disappears.
        e.apply(del("e(2, 3)", 10)).unwrap();
        assert!(!e.db.contains(sym("t"), &tup("1, 3")));
        assert!(!e.db.contains(sym("t"), &tup("1, 4")));
        assert!(e.db.contains(sym("t"), &tup("1, 2")));
        assert!(e.db.contains(sym("t"), &tup("3, 4")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn xy_program_incremental_logich() {
        let src = r#"
            h(0, 0, 0).
            h(0, X, 1) :- g(0, X).
            hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
            h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
        "#;
        let mut e = engine(src);
        // The base fact rule has an empty body; seed it manually via a
        // surrogate: empty-body rules don't react to updates, so bootstrap
        // by inserting the root fact as if derived.
        // Instead: drive g edges; h(0,0,0) must come from the fact rule —
        // emulate with an explicit root update on a base-less variant:
        let mut ts = 1;
        let mut drive = |e: &mut IncrementalEngine, a: i64, b: i64| {
            e.apply(ins(&format!("g({a}, {b})"), ts)).unwrap();
            e.apply(ins(&format!("g({b}, {a})"), ts + 1)).unwrap();
            ts += 2;
        };
        // Without h(0,0,0) the import fact is missing; insert it directly
        // as a derived seed through the db (fact rules are static):
        e.db.insert(sym("h"), tup("0, 0, 0"));
        drive(&mut e, 0, 1);
        drive(&mut e, 1, 2);
        assert!(e.db.contains(sym("h"), &tup("0, 1, 1")));
        assert!(e.db.contains(sym("h"), &tup("1, 2, 2")));
        // Add shortcut 0-2: h(0,2,1) appears and hp(2,2) retracts h(1,2,2).
        drive(&mut e, 0, 2);
        assert!(e.db.contains(sym("h"), &tup("0, 2, 1")));
        assert!(!e.db.contains(sym("h"), &tup("1, 2, 2")));
    }

    #[test]
    fn aggregate_maintenance() {
        let src = "best(G, min<V>) :- m(G, V).";
        let mut e = engine(src);
        e.apply(ins("m(1, 5)", 1)).unwrap();
        assert!(e.db.contains(sym("best"), &tup("1, 5")));
        e.apply(ins("m(1, 3)", 2)).unwrap();
        assert!(e.db.contains(sym("best"), &tup("1, 3")));
        assert!(!e.db.contains(sym("best"), &tup("1, 5")));
        e.apply(del("m(1, 3)", 3)).unwrap();
        assert!(e.db.contains(sym("best"), &tup("1, 5")));
        e.apply(del("m(1, 5)", 4)).unwrap();
        assert_eq!(e.db.len_of(sym("best")), 0);
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn aggregate_count_updates() {
        let src = "deg(X, count<Y>) :- e(X, Y).";
        let mut e = engine(src);
        e.apply(ins("e(1, 2)", 1)).unwrap();
        e.apply(ins("e(1, 3)", 2)).unwrap();
        assert!(e.db.contains(sym("deg"), &tup("1, 2")));
        e.apply(del("e(1, 2)", 3)).unwrap();
        assert!(e.db.contains(sym("deg"), &tup("1, 1")));
    }

    #[test]
    fn window_expiry_is_silent() {
        let src = r#"
            .window s 100.
            q(X) :- s(X).
        "#;
        let mut e = engine(src);
        e.apply(ins("s(1)", 10)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1")));
        e.advance_time(200);
        // Base tuple expired; derived q expired too (inherited window);
        // no deletion events were cascaded (expiry is silent).
        assert!(!e.db.contains(sym("s"), &tup("1")));
        assert!(!e.db.contains(sym("q"), &tup("1")));
        assert_eq!(e.derivation_count(), 0);
    }

    #[test]
    fn local_recursion_check_catches_cycles() {
        // A 2-cycle (1->2, 2->1) creates mutually supporting t tuples —
        // outside the locally non-recursive class; strict mode must say so.
        let src = r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
        "#;
        let mut e = engine(src);
        e.check_local_recursion = true;
        e.apply(ins("e(1, 2)", 1)).unwrap();
        let err = e.apply(ins("e(2, 1)", 2)).unwrap_err();
        assert!(matches!(
            err,
            crate::error::EvalError::DerivationCycle { .. }
        ));
        // DAGs sail through.
        let mut e = engine(src);
        e.check_local_recursion = true;
        for (i, edge) in ["e(1, 2)", "e(2, 3)", "e(1, 3)"].iter().enumerate() {
            e.apply(ins(edge, i as u64)).unwrap();
        }
        assert!(e.db.contains(sym("t"), &tup("1, 3")));
    }

    #[test]
    fn stats_track_work() {
        let mut e = engine(UNCOV);
        e.apply(ins(r#"veh("enemy", 10, 1)"#, 1)).unwrap();
        assert!(e.stats.updates_processed >= 1);
        assert!(e.stats.body_evals >= 1);
        assert!(e.stats.derived_emitted >= 1);
    }

    #[test]
    fn lineage_tracks_derivation_transitions() {
        use crate::lineage::EDB_RULE;
        let src = r#"
            q(X, Y) :- r1(X, K), r2(Y, K).
        "#;
        let mut e = engine(src);
        e.set_record_lineage(true);
        e.apply(ins("r1(1, 7)", 10)).unwrap();
        e.apply(ins("r2(2, 7)", 20)).unwrap();
        let log = e.lineage().unwrap();
        // Two EDB leaves + one firing for q(1,2), with premises + witness.
        assert_eq!(
            log.records.iter().filter(|r| r.rule_id == EDB_RULE).count(),
            2
        );
        let firing = log
            .records
            .iter()
            .find(|r| r.rule_id != EDB_RULE)
            .expect("join firing recorded");
        assert_eq!(firing.sign, 1);
        assert_eq!(firing.premises.len(), 2);
        assert_eq!(firing.tau, 20);
        assert!(!firing.subst.is_empty());
        // Deleting a premise records the retraction of both the EDB leaf
        // and the derivation.
        e.apply(del("r1(1, 7)", 30)).unwrap();
        let log = e.lineage().unwrap();
        assert_eq!(log.records.iter().filter(|r| r.sign < 0).count(), 2);
        assert!(log
            .live_derivations()
            .values()
            .all(|ds| ds.iter().all(|(r, _)| *r == EDB_RULE || ds.is_empty())));
        // Disabled engines record nothing.
        let mut quiet = engine(src);
        quiet.apply(ins("r1(1, 7)", 10)).unwrap();
        assert!(quiet.lineage().is_none());
    }
}
