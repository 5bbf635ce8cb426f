//! Partial results and per-node join processing (Fig. 1).
//!
//! A probe traversing its join-computation region carries a set of
//! [`Partial`]s per rule. At each node, every partial is extended with the
//! locally stored (replicated) tuples of still-unbound subgoals — producing
//! new partials *without discarding the originals*, exactly the one-pass
//! scheme of Fig. 1: "the computed partial results along with the incoming
//! partial results are all forwarded to the next node". Comparisons and
//! builtins evaluate as soon as their variables bind; bound negated
//! subgoals are checked against each node's fragments and kill the result
//! on a match ("delete partial or complete results that match with a tuple
//! in some S_j", Sec. IV-B).
//!
//! The kernel runs in id space on the same primitives as the centralized
//! body evaluator (`FlatSubst`, `flat_match`, `flat_compare`, `flat_eval`):
//! a candidate fragment is accepted by comparing interned ids on the
//! literal's bound columns, and only the procedural-builtin call resolves
//! ids back to boxed terms (see DESIGN.md, "Distributed evaluation").

use crate::plan::DistProgram;
use crate::tupleid::TupleId;
use sensorlog_eval::relation::{Database, TupleMeta};
use sensorlog_logic::ast::{Literal, Rule};
use sensorlog_logic::builtin::{BuiltinError, BuiltinRegistry};
use sensorlog_logic::flat::{
    flat_compare, flat_eval, flat_is_ground, flat_match, flat_match_args, FlatSubst,
};
use sensorlog_logic::intern::{self, ConstId};
use sensorlog_logic::{Symbol, Term, Tuple};
use sensorlog_netsim::SimTime;

/// A partial result: bindings accumulated so far plus the derivation
/// inputs. `bound` has one flag per body literal (true for the pinned
/// occurrence and every joined positive subgoal; checks flip their flag
/// when they evaluate).
#[derive(Clone, PartialEq, Debug)]
pub struct Partial {
    pub bindings: FlatSubst,
    pub bound: Vec<bool>,
    pub inputs: Vec<(u16, TupleId)>,
}

impl Partial {
    /// All positive subgoals joined and all checks passed?
    pub fn is_complete(&self, shape: &RuleShape) -> bool {
        shape
            .positives
            .iter()
            .chain(shape.checks.iter())
            .all(|&i| self.bound[i])
    }

    /// Approximate wire size: variable names plus the serialized size of
    /// each bound value (the pool's cached [`Term::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.bindings
            .iter()
            .map(|(v, id)| v.as_str().len() + intern::entry(id).byte_size as usize)
            .sum::<usize>()
            + self.inputs.len() * 18
            + self.bound.len() / 8
            + 4
    }
}

/// Precomputed literal classification for a rule.
#[derive(Clone, Debug)]
pub struct RuleShape {
    /// Indexes of positive relational subgoals.
    pub positives: Vec<usize>,
    /// Indexes of negated subgoals.
    pub negations: Vec<usize>,
    /// Indexes of comparisons and builtin predicates.
    pub checks: Vec<usize>,
}

impl RuleShape {
    pub fn of(rule: &Rule) -> RuleShape {
        let mut shape = RuleShape {
            positives: Vec::new(),
            negations: Vec::new(),
            checks: Vec::new(),
        };
        for (i, lit) in rule.body.iter().enumerate() {
            match lit {
                Literal::Pos(_) => shape.positives.push(i),
                Literal::Neg(_) => shape.negations.push(i),
                Literal::Cmp(..) | Literal::Builtin(_) => shape.checks.push(i),
            }
        }
        shape
    }

    pub fn has_negation_other_than(&self, pinned: Option<usize>) -> bool {
        self.negations.iter().any(|&i| Some(i) != pinned)
    }
}

/// Seed a partial by pinning body literal `occ` (positive or negated) to
/// the update's tuple. Returns `None` when the tuple doesn't match the
/// pattern. The pinned input is recorded only for positive occurrences
/// (derivations list the non-negated subgoals, Definition 2).
pub fn seed_partial(
    prog: &DistProgram,
    rule: &Rule,
    occ: usize,
    negated: bool,
    tuple: &Tuple,
    id: TupleId,
) -> Option<Partial> {
    let atom = rule.body[occ].atom().expect("relational occurrence");
    let mut bindings = FlatSubst::new();
    if !flat_match_args(&prog.reg, &atom.args, tuple.ids(), &mut bindings) {
        return None;
    }
    let mut bound = vec![false; rule.body.len()];
    bound[occ] = true;
    let inputs = if negated {
        Vec::new()
    } else {
        vec![(occ as u16, id)]
    };
    Some(Partial {
        bindings,
        bound,
        inputs,
    })
}

/// Local fragment lookup context at a node.
pub struct LocalCtx<'a> {
    pub prog: &'a DistProgram,
    pub db: &'a Database,
    /// IDs of locally stored tuples, for derivation inputs.
    pub id_of: &'a dyn Fn(Symbol, &Tuple) -> Option<TupleId>,
    /// Probe event timestamp (Theorem 3 visibility).
    pub tau: SimTime,
    /// The probe's update tuple ID: ties in local timestamps serialize by
    /// tuple ID (Definition 2), so a replica generated at exactly `tau`
    /// participates only when its ID is ≤ the update's — each same-instant
    /// pair is then derived by exactly one of the two probes.
    pub update_id: TupleId,
    /// Generous positive matching for fault-plane delete probes. Under
    /// crash/partition delays a tombstone can reach a replica node *after*
    /// a newer insert's probe joined with the stale replica, so the
    /// timestamp discipline alone under-retracts: the delete probe excludes
    /// exactly the newer generations whose spurious derivations it must
    /// kill. A generous delete probe extends through every stored fragment
    /// regardless of visibility; over-emission is safe because deltas are
    /// keyed by exact input ids (any key containing the deleted id must die,
    /// and a `-1` for a never-derived key is absorbed by the owner's
    /// clamped counts). Negation kills stay strict.
    pub generous: bool,
}

impl LocalCtx<'_> {
    /// Does the replica `tuple` of `pred`, stored with metadata `m`,
    /// participate in the probe (window, tombstone, and timestamp-tie
    /// discipline)?
    fn participates(&self, pred: Symbol, tuple: &Tuple, m: &TupleMeta) -> bool {
        if m.gen_ts == self.tau
            && !matches!((self.id_of)(pred, tuple), Some(id) if id <= self.update_id)
        {
            return false;
        }
        m.visible_at(self.tau, self.prog.windows.get(&pred).copied())
    }

    /// Does a participating local replica equal the ground tuple `ids`?
    fn holds(&self, pred: Symbol, ids: Vec<ConstId>) -> bool {
        let t = Tuple::from_ids(ids);
        self.db
            .relation(pred)
            .and_then(|r| r.meta(&t))
            .is_some_and(|m| self.participates(pred, &t, m))
    }
}

/// Process one rule's partial set at one node: evaluate newly-bound checks,
/// apply local negation kills, extend with local fragments (all subsets,
/// ascending literal index within the node). Returns the surviving set —
/// originals plus extensions.
///
/// `pinned` is the probe's pinned literal (its negation check is skipped
/// per the `T_s1` construction); `restrict` limits extension to a single
/// literal (multiple-pass mode).
pub fn process_partials(
    ctx: &LocalCtx<'_>,
    rule: &Rule,
    shape: &RuleShape,
    partials: Vec<Partial>,
    pinned: Option<usize>,
    restrict: Option<usize>,
) -> Vec<Partial> {
    let mut g = Grow {
        ctx,
        rule,
        shape,
        pinned,
        restrict,
        out: Vec::new(),
    };
    for mut p in partials {
        g.grow(&mut p, 0);
    }
    g.out
}

/// One rule's probe step at one node. `grow` works on a single partial in
/// place: extensions push their binding, flag and input, recurse, and pop
/// them again, so a partial is copied only when it is emitted.
struct Grow<'c, 'a> {
    ctx: &'c LocalCtx<'a>,
    rule: &'c Rule,
    shape: &'c RuleShape,
    pinned: Option<usize>,
    restrict: Option<usize>,
    out: Vec<Partial>,
}

impl Grow<'_, '_> {
    fn grow(&mut self, p: &mut Partial, min_lit: usize) {
        let mut flipped: Vec<usize> = Vec::new();
        if self.settle(p, &mut flipped) {
            self.out.push(p.clone());
            self.extend(p, min_lit);
        }
        for i in flipped {
            p.bound[i] = false;
        }
    }

    /// Evaluate the newly evaluable checks (recording the flags flipped in
    /// `flipped`) and the local negation kills. `false` when the partial
    /// dies: a check fails or errors, a negated subgoal matches a visible
    /// local fragment, or a ground argument of either fails to evaluate.
    fn settle(&self, p: &mut Partial, flipped: &mut Vec<usize>) -> bool {
        let reg = &self.ctx.prog.reg;
        for &i in &self.shape.checks {
            if p.bound[i] {
                continue;
            }
            let holds = match &self.rule.body[i] {
                Literal::Cmp(op, l, r) => {
                    if !(flat_is_ground(l, &p.bindings) && flat_is_ground(r, &p.bindings)) {
                        continue; // not yet evaluable
                    }
                    flat_compare(reg, *op, l, r, &p.bindings)
                }
                Literal::Builtin(atom) => match ground_args(reg, &atom.args, &p.bindings) {
                    None => continue,
                    Some(Err(_)) => return false,
                    Some(Ok(ids)) => {
                        let args: Vec<Term> = intern::boundary(|| intern::resolve_slice(&ids));
                        reg.call_pred(atom.pred, &args)
                    }
                },
                _ => unreachable!("checks contains only Cmp/Builtin"),
            };
            if !matches!(holds, Ok(true)) {
                return false;
            }
            p.bound[i] = true;
            flipped.push(i);
        }
        for &i in &self.shape.negations {
            if Some(i) == self.pinned {
                continue;
            }
            let Literal::Neg(atom) = &self.rule.body[i] else {
                unreachable!("negations contains only Neg");
            };
            let killed = match ground_args(reg, &atom.args, &p.bindings) {
                None => false, // not yet evaluable
                Some(Err(_)) => true,
                Some(Ok(ids)) => self.ctx.holds(atom.pred, ids),
            };
            if killed {
                return false;
            }
        }
        true
    }

    /// Extend `p` with the local fragments of each unbound positive literal
    /// from `min_lit` on (ascending literal order within this node avoids
    /// generating the same combination twice).
    fn extend(&mut self, p: &mut Partial, min_lit: usize) {
        let (ctx, rule, shape) = (self.ctx, self.rule, self.shape);
        let reg = &ctx.prog.reg;
        'lits: for &i in &shape.positives {
            if i < min_lit || p.bound[i] || self.restrict.is_some_and(|r| r != i) {
                continue;
            }
            let Literal::Pos(atom) = &rule.body[i] else {
                unreachable!("positives contains only Pos");
            };
            let Some(rel) = ctx.db.relation(atom.pred) else {
                continue;
            };
            // Bound columns are evaluated once; a candidate must carry the
            // same ids there. A bound column that fails to evaluate matches
            // no fragment.
            let mut key: Vec<(usize, ConstId)> = Vec::new();
            let mut free: Vec<usize> = Vec::new();
            for (c, a) in atom.args.iter().enumerate() {
                if !flat_is_ground(a, &p.bindings) {
                    free.push(c);
                } else if let Ok(id) = flat_eval(reg, a, &p.bindings) {
                    key.push((c, id));
                } else {
                    continue 'lits;
                }
            }
            for (t, m) in rel.iter() {
                let ids = t.ids();
                if ids.len() != atom.args.len() || key.iter().any(|&(c, k)| ids[c] != k) {
                    continue;
                }
                if !ctx.generous && !ctx.participates(atom.pred, t, m) {
                    continue;
                }
                let mark = p.bindings.len();
                if free
                    .iter()
                    .all(|&c| flat_match(reg, &atom.args[c], ids[c], &mut p.bindings))
                {
                    // A visible fragment without an id means its id record
                    // raced an expiry: skip the match rather than panic.
                    if let Some(id) = (ctx.id_of)(atom.pred, t) {
                        p.bound[i] = true;
                        p.inputs.push((i as u16, id));
                        self.grow(p, i + 1);
                        p.inputs.pop();
                        p.bound[i] = false;
                    }
                }
                p.bindings.truncate(mark);
            }
        }
    }
}

/// The evaluated arguments of a check or negated subgoal: `None` while any
/// argument is unbound, else each argument's id or the first evaluation
/// error.
fn ground_args(
    reg: &BuiltinRegistry,
    args: &[Term],
    s: &FlatSubst,
) -> Option<Result<Vec<ConstId>, BuiltinError>> {
    if !args.iter().all(|a| flat_is_ground(a, s)) {
        return None;
    }
    Some(args.iter().map(|a| flat_eval(reg, a, s)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_source, PlanTiming};
    use sensorlog_logic::parse_fact;
    use sensorlog_netsim::NodeId;

    fn tid(n: u32, ts: u64) -> TupleId {
        TupleId {
            node: NodeId(n),
            ts,
            seq: 0,
        }
    }

    fn fact(src: &str) -> (Symbol, Tuple) {
        let (p, args) = parse_fact(src).unwrap();
        (p, Tuple::new(args))
    }

    fn prog() -> DistProgram {
        compile_source(
            r#"
            .output q.
            q(X, Z) :- e(X, Y), f(Y, Z), Z > 0, not bad(Z).
            "#,
            BuiltinRegistry::standard(),
            PlanTiming::default(),
        )
        .unwrap()
    }

    fn ctx<'a>(
        prog: &'a DistProgram,
        db: &'a Database,
        ids: &'a dyn Fn(Symbol, &Tuple) -> Option<TupleId>,
        tau: SimTime,
    ) -> LocalCtx<'a> {
        LocalCtx {
            prog,
            db,
            id_of: ids,
            tau,
            // Tests probe with the largest possible ID so equal-timestamp
            // replicas always participate.
            update_id: TupleId {
                node: NodeId(u32::MAX),
                ts: u64::MAX,
                seq: u32::MAX,
            },
            generous: false,
        }
    }

    #[test]
    fn seed_and_extend_to_complete() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (ep, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        assert!(!seed.is_complete(&shape));

        // A node holding f(2, 9) extends the partial to completion.
        let mut db = Database::new();
        let (fp, ft) = fact("f(2, 9)");
        db.relation_mut(fp).insert(ft.clone(), TupleMeta::at(3));
        let ids = move |p: Symbol, t: &Tuple| {
            if p == fp && *t == ft {
                Some(tid(4, 3))
            } else {
                None
            }
        };
        let c = ctx(&prog, &db, &ids, 10);
        let out = process_partials(&c, rule, &shape, vec![seed.clone()], None, None);
        // The original plus the completed extension.
        assert_eq!(out.len(), 2);
        let complete: Vec<_> = out.iter().filter(|p| p.is_complete(&shape)).collect();
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].inputs.len(), 2);
        let _ = ep;
    }

    #[test]
    fn check_kills_partial() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        // f(2, -3) binds Z = -3, failing Z > 0: the extension dies, the
        // original survives.
        let mut db = Database::new();
        let (fp, ft) = fact("f(2, -3)");
        db.relation_mut(fp).insert(ft.clone(), TupleMeta::at(3));
        let ids = move |p: Symbol, t: &Tuple| (p == fp && *t == ft).then(|| tid(4, 3));
        let c = ctx(&prog, &db, &ids, 10);
        let out = process_partials(&c, rule, &shape, vec![seed], None, None);
        assert_eq!(out.len(), 1);
        assert!(!out[0].is_complete(&shape));
    }

    #[test]
    fn negation_kills_at_any_node() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        let mut db = Database::new();
        let (fp, ft) = fact("f(2, 9)");
        let (bp, bt) = fact("bad(9)");
        db.relation_mut(fp).insert(ft.clone(), TupleMeta::at(3));
        db.relation_mut(bp).insert(bt, TupleMeta::at(2));
        let ids = move |p: Symbol, t: &Tuple| (p == fp && *t == ft).then(|| tid(4, 3));
        let c = ctx(&prog, &db, &ids, 10);
        let out = process_partials(&c, rule, &shape, vec![seed], None, None);
        // The completed extension (Z = 9) is killed by bad(9); only the
        // incomplete original survives.
        assert_eq!(out.len(), 1);
        assert!(!out[0].is_complete(&shape));
    }

    #[test]
    fn visibility_respected() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        // Fragment generated *after* the probe's tau is invisible.
        let mut db = Database::new();
        let (fp, ft) = fact("f(2, 9)");
        db.relation_mut(fp).insert(ft.clone(), TupleMeta::at(50));
        let ids = move |p: Symbol, t: &Tuple| (p == fp && *t == ft).then(|| tid(4, 50));
        let c = ctx(&prog, &db, &ids, 10);
        let out = process_partials(&c, rule, &shape, vec![seed], None, None);
        assert_eq!(out.len(), 1); // no extension
    }

    #[test]
    fn pinned_negation_seeds_without_input() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let (_, bt) = fact("bad(9)");
        let seed = seed_partial(&prog, rule, 3, true, &bt, tid(7, 8)).unwrap();
        assert!(seed.inputs.is_empty());
        assert!(seed.bound[3]);
        // Z is bound to 9 by the pin.
        assert_eq!(
            seed.bindings.get(Symbol::intern("Z")),
            Some(intern::intern_int(9))
        );
    }

    #[test]
    fn restrict_limits_extension() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        let mut db = Database::new();
        let (fp, ft) = fact("f(2, 9)");
        db.relation_mut(fp).insert(ft.clone(), TupleMeta::at(3));
        let ids = move |p: Symbol, t: &Tuple| (p == fp && *t == ft).then(|| tid(4, 3));
        let c = ctx(&prog, &db, &ids, 10);
        // Restricting to literal 0 (already bound) blocks the f-extension.
        let out = process_partials(&c, rule, &shape, vec![seed], None, Some(0));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn self_join_subsets_within_node() {
        // r(X, Z) :- e(X, Y), e(Y, Z): one node holding e(2,3) and e(3,4)
        // must produce all subset partials from a pin on e(1,2).
        let prog = compile_source(
            "r(X, Z) :- s(X, Y), t(Y, Z).",
            BuiltinRegistry::standard(),
            PlanTiming::default(),
        )
        .unwrap();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, st) = fact("s(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &st, tid(0, 5)).unwrap();
        let mut db = Database::new();
        let (tp, t1) = fact("t(2, 7)");
        let (_, t2) = fact("t(2, 8)");
        db.relation_mut(tp).insert(t1, TupleMeta::at(1));
        db.relation_mut(tp).insert(t2, TupleMeta::at(1));
        let ids = move |_p: Symbol, _t: &Tuple| Some(tid(9, 1));
        let c = ctx(&prog, &db, &ids, 10);
        let out = process_partials(&c, rule, &shape, vec![seed], None, None);
        // original + two completions
        assert_eq!(out.len(), 3);
        assert_eq!(out.iter().filter(|p| p.is_complete(&shape)).count(), 2);
    }
}
