//! The distributed probe step (`sensorlog::core::partial`) against a boxed
//! reference kernel.
//!
//! The reference below is the scan kernel the runtime used before the probe
//! step moved to id space: it clones every visible fragment, resolves it to
//! boxed terms and unifies with `sem_match_args` over a boxed `Subst`. It
//! carries one fix the production kernel also has — a ground argument of a
//! negated subgoal or builtin that fails to evaluate kills the partial —
//! and is otherwise unchanged. Random fragment relations (tombstones,
//! windows, equal-timestamp ties broken by tuple id, `D + 1` stage
//! patterns, negations, comparisons, `restrict` and `generous`) must give
//! both kernels the same partials in the same order.

use proptest::prelude::*;
use sensorlog::core::partial::{process_partials, seed_partial, LocalCtx, Partial, RuleShape};
use sensorlog::core::plan::{compile_source, DistProgram, PlanTiming};
use sensorlog::core::tupleid::TupleId;
use sensorlog::core::{DeployConfig, Deployment, WorkloadEvent};
use sensorlog::eval::eval_body::sem_match_args;
use sensorlog::eval::relation::{Database, TupleMeta};
use sensorlog::eval::UpdateKind;
use sensorlog::logic::ast::{Literal, Rule};
use sensorlog::logic::builtin::BuiltinRegistry;
use sensorlog::logic::intern;
use sensorlog::logic::unify::Subst;
use sensorlog::logic::{Symbol, Term, Tuple};
use sensorlog::netsim::{NodeId, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// The boxed reference kernel.
mod reference {
    use super::*;

    #[derive(Clone, Debug)]
    pub struct RefPartial {
        pub bindings: Vec<(Symbol, Term)>,
        pub bound: Vec<bool>,
        pub inputs: Vec<(u16, TupleId)>,
    }

    impl RefPartial {
        fn subst(&self) -> Subst {
            let mut s = Subst::new();
            for (v, t) in &self.bindings {
                s.bind(*v, t.clone());
            }
            s
        }

        fn absorb(&mut self, s: &Subst) {
            let mut all: Vec<(Symbol, Term)> = s.iter().map(|(v, t)| (*v, t.clone())).collect();
            all.sort_by_key(|(v, _)| *v);
            self.bindings = all;
        }

        pub fn byte_size(&self) -> usize {
            self.bindings
                .iter()
                .map(|(v, t)| v.as_str().len() + t.byte_size())
                .sum::<usize>()
                + self.inputs.len() * 18
                + self.bound.len() / 8
                + 4
        }
    }

    fn terms(t: &Tuple) -> Vec<Term> {
        intern::boundary(|| t.terms())
    }

    pub fn seed(
        prog: &DistProgram,
        rule: &Rule,
        occ: usize,
        negated: bool,
        tuple: &Tuple,
        id: TupleId,
    ) -> Option<RefPartial> {
        let atom = rule.body[occ].atom().expect("relational occurrence");
        let mut s = Subst::new();
        if !sem_match_args(&prog.reg, &atom.args, &terms(tuple), &mut s) {
            return None;
        }
        let mut p = RefPartial {
            bindings: Vec::new(),
            bound: vec![false; rule.body.len()],
            inputs: Vec::new(),
        };
        p.bound[occ] = true;
        if !negated {
            p.inputs.push((occ as u16, id));
        }
        p.absorb(&s);
        Some(p)
    }

    fn participates(ctx: &LocalCtx<'_>, pred: Symbol, tuple: &Tuple) -> bool {
        let Some(m) = ctx.db.relation(pred).and_then(|r| r.meta(tuple)) else {
            return false;
        };
        if m.gen_ts > ctx.tau {
            return false;
        }
        if m.gen_ts == ctx.tau {
            match (ctx.id_of)(pred, tuple) {
                Some(id) if id <= ctx.update_id => {}
                _ => return false,
            }
        }
        if let Some(w) = ctx.prog.windows.get(&pred).copied() {
            if m.gen_ts + w <= ctx.tau {
                return false;
            }
        }
        match m.del_ts {
            Some(d) => d >= ctx.tau,
            None => true,
        }
    }

    fn visible_tuples(ctx: &LocalCtx<'_>, pred: Symbol) -> Vec<Tuple> {
        match ctx.db.relation(pred) {
            Some(r) => r
                .tuples()
                .filter(|t| ctx.generous || participates(ctx, pred, t))
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// `None` while an argument is unbound, `Some(None)` when a ground
    /// argument fails to evaluate (the fix: such a partial dies).
    fn ground_args(ctx: &LocalCtx<'_>, subst: &Subst, args: &[Term]) -> Option<Option<Vec<Term>>> {
        let gs: Vec<Term> = args.iter().map(|a| subst.apply(a)).collect();
        if !gs.iter().all(Term::is_ground) {
            return None;
        }
        Some(gs.iter().map(|g| ctx.prog.reg.eval_term(g).ok()).collect())
    }

    pub fn process(
        ctx: &LocalCtx<'_>,
        rule: &Rule,
        shape: &RuleShape,
        partials: Vec<RefPartial>,
        pinned: Option<usize>,
        restrict: Option<usize>,
    ) -> Vec<RefPartial> {
        let mut out = Vec::new();
        for p in partials {
            grow(ctx, rule, shape, p, pinned, restrict, 0, &mut out);
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn grow(
        ctx: &LocalCtx<'_>,
        rule: &Rule,
        shape: &RuleShape,
        mut p: RefPartial,
        pinned: Option<usize>,
        restrict: Option<usize>,
        min_lit: usize,
        out: &mut Vec<RefPartial>,
    ) {
        let subst = p.subst();
        for &i in &shape.checks {
            if p.bound[i] {
                continue;
            }
            match &rule.body[i] {
                Literal::Cmp(op, l, r) => {
                    let lg = subst.apply(l);
                    let rg = subst.apply(r);
                    if lg.is_ground() && rg.is_ground() {
                        match ctx.prog.reg.compare(*op, &lg, &rg) {
                            Ok(true) => p.bound[i] = true,
                            _ => return,
                        }
                    }
                }
                Literal::Builtin(atom) => match ground_args(ctx, &subst, &atom.args) {
                    None => {}
                    Some(None) => return,
                    Some(Some(args)) => match ctx.prog.reg.call_pred(atom.pred, &args) {
                        Ok(true) => p.bound[i] = true,
                        _ => return,
                    },
                },
                _ => unreachable!("checks contains only Cmp/Builtin"),
            }
        }
        for &i in &shape.negations {
            if Some(i) == pinned {
                continue;
            }
            if let Literal::Neg(atom) = &rule.body[i] {
                let killed = match ground_args(ctx, &subst, &atom.args) {
                    None => false,
                    Some(None) => true,
                    Some(Some(args)) => participates(ctx, atom.pred, &Tuple::new(args)),
                };
                if killed {
                    return;
                }
            }
        }

        out.push(p.clone());

        for &i in &shape.positives {
            if i < min_lit || p.bound[i] {
                continue;
            }
            if let Some(r) = restrict {
                if i != r {
                    continue;
                }
            }
            if let Literal::Pos(atom) = &rule.body[i] {
                for t in visible_tuples(ctx, atom.pred) {
                    let mut s = p.subst();
                    if sem_match_args(&ctx.prog.reg, &atom.args, &terms(&t), &mut s) {
                        let Some(id) = (ctx.id_of)(atom.pred, &t) else {
                            continue;
                        };
                        let mut q = p.clone();
                        q.bound[i] = true;
                        q.inputs.push((i as u16, id));
                        q.absorb(&s);
                        grow(ctx, rule, shape, q, pinned, restrict, i + 1, out);
                    }
                }
            }
        }
    }
}

use reference::RefPartial;

/// A partial in comparable form: bindings sorted by variable as boxed
/// terms, plus flags, inputs and wire size.
type Norm = (Vec<(Symbol, Term)>, Vec<bool>, Vec<(u16, TupleId)>, usize);

fn norm(p: &Partial) -> Norm {
    let mut b: Vec<(Symbol, Term)> = intern::boundary(|| {
        p.bindings
            .iter()
            .map(|(v, id)| (v, intern::resolve(id)))
            .collect()
    });
    b.sort_by_key(|(v, _)| *v);
    (b, p.bound.clone(), p.inputs.clone(), p.byte_size())
}

fn norm_ref(p: &RefPartial) -> Norm {
    (
        p.bindings.clone(),
        p.bound.clone(),
        p.inputs.clone(),
        p.byte_size(),
    )
}

fn registry() -> BuiltinRegistry {
    let mut reg = BuiltinRegistry::standard();
    reg.register_pred(
        "even",
        Arc::new(|args: &[Term]| Ok(matches!(args, [Term::Int(i)] if i % 2 == 0))),
    );
    reg
}

/// Programs the generator draws from. Every body predicate is an EDB
/// stream with the arity listed in [`arities`].
const PROGRAMS: &[&str] = &[
    // Fig. 1 shape: join, comparison, negation; `f` is windowed.
    r#"
    .window f 4.
    q(X, Z) :- e(X, Y), f(Y, Z), Z > 0, not bad(Z).
    "#,
    // logicH (Example 3): `D + 1` stage patterns in a negation and a head.
    r#"
    .output h.
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#,
    // Erroring arguments: division by a zero bound in a negation and in a
    // builtin, arithmetic in a comparison.
    r#"
    q(X) :- e(X, Y), f(Y, W), not bad(X / Y).
    r(X, W) :- e(X, Y), f(Y, W), even(X / W + 1), X + W <= 5.
    "#,
    // Self-joins and repeated variables.
    r#"
    .window e 6.
    s(X, Z) :- e(X, Y), e(Y, Z), X != Z.
    t(X) :- e(X, X), f(X, W), not bad(W).
    "#,
];

fn arities(pred: &str) -> usize {
    match pred {
        "e" | "f" | "g" | "hp" => 2,
        "h" => 3,
        "bad" => 1,
        other => panic!("no arity for {other}"),
    }
}

#[derive(Clone, Debug)]
struct Frag {
    pred: usize,
    vals: Vec<i64>,
    gen_ts: u64,
    del_after: Option<u64>,
    id_node: u32,
    id_seq: u32,
    has_id: bool,
}

#[derive(Clone, Debug)]
struct Case {
    program: usize,
    rule: usize,
    occ: usize,
    seed_vals: Vec<i64>,
    nodes: Vec<Vec<Frag>>,
    tau: u64,
    update_node: u32,
    update_seq: u32,
    generous: bool,
    restrict: u8,
}

fn frag() -> impl Strategy<Value = Frag> {
    (
        0usize..8,
        prop::collection::vec(0i64..3, 3..4),
        0u64..8,
        (0u8..3, 0u64..6),
        (0u32..3, 0u32..2),
        0u8..12,
    )
        .prop_map(
            |(pred, vals, gen_ts, (del, after), (id_node, id_seq), id)| Frag {
                pred,
                vals,
                gen_ts,
                del_after: (del == 0).then_some(after),
                id_node,
                id_seq,
                has_id: id != 0,
            },
        )
}

fn case() -> impl Strategy<Value = Case> {
    (
        (0usize..PROGRAMS.len(), 0usize..4, 0usize..4),
        prop::collection::vec(0i64..3, 3..4),
        prop::collection::vec(prop::collection::vec(frag(), 0..12), 1..4),
        (0u64..8, 0u32..3, 0u32..2),
        (0u8..4, 0u8..6),
    )
        .prop_map(
            |((program, rule, occ), seed_vals, nodes, (tau, un, us), (gen, restrict))| Case {
                program,
                rule,
                occ,
                seed_vals,
                nodes,
                tau,
                update_node: un,
                update_seq: us,
                generous: gen == 0,
                restrict,
            },
        )
}

fn tid(node: u32, ts: u64, seq: u32) -> TupleId {
    TupleId {
        node: NodeId(node),
        ts,
        seq,
    }
}

fn ints(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|&v| Term::Int(v)).collect())
}

fn relational(lit: &Literal) -> bool {
    matches!(lit, Literal::Pos(_) | Literal::Neg(_))
}

/// What one case exercised, for the coverage check.
#[derive(Default)]
struct Seen {
    /// `(program, rule)` of the case.
    rule: (usize, usize),
    seeded: bool,
    extended: bool,
    completed: bool,
    killed: bool,
}

/// Run one case through both kernels, node by node, and compare.
fn check_case(c: &Case) -> Seen {
    let mut seen = Seen::default();
    let prog = compile_source(PROGRAMS[c.program], registry(), PlanTiming::default()).unwrap();
    let rules: Vec<&Rule> = prog
        .analysis
        .program
        .rules
        .iter()
        .filter(|r| r.body.iter().any(relational))
        .collect();
    seen.rule = (c.program, c.rule % rules.len());
    let rule = rules[seen.rule.1];
    let shape = RuleShape::of(rule);
    let occs: Vec<usize> = (0..rule.body.len())
        .filter(|&i| relational(&rule.body[i]))
        .collect();
    let occ = occs[c.occ % occs.len()];
    let negated = matches!(rule.body[occ], Literal::Neg(_));
    let pinned_pred = rule.body[occ].atom().unwrap().pred;
    let seed_tuple = ints(&c.seed_vals[..arities(pinned_pred.as_str())]);
    let update_id = tid(c.update_node, c.tau, c.update_seq);

    let flat = seed_partial(&prog, rule, occ, negated, &seed_tuple, update_id);
    let boxed = reference::seed(&prog, rule, occ, negated, &seed_tuple, update_id);
    assert_eq!(
        flat.as_ref().map(norm),
        boxed.as_ref().map(norm_ref),
        "seed of {rule} at literal {occ} with {seed_tuple}"
    );
    let (Some(flat), Some(boxed)) = (flat, boxed) else {
        return seen;
    };
    seen.seeded = true;

    // Body predicates of the rule (fragments draw from these).
    let preds: Vec<Symbol> = rule
        .body
        .iter()
        .filter(|l| relational(l))
        .map(|l| l.atom().unwrap().pred)
        .collect();
    let restrict = match c.restrict {
        0 => Some(shape.positives[c.occ % shape.positives.len()]),
        1 => Some(usize::MAX),
        _ => None,
    };
    let mut flat_set = vec![flat];
    let mut boxed_set = vec![boxed];
    for (n, frags) in c.nodes.iter().enumerate() {
        let mut db = Database::new();
        let mut ids: HashMap<(Symbol, Tuple), TupleId> = HashMap::new();
        for f in frags {
            let pred = preds[f.pred % preds.len()];
            let t = ints(&f.vals[..arities(pred.as_str())]);
            let meta = TupleMeta {
                gen_ts: f.gen_ts,
                del_ts: f.del_after.map(|d| f.gen_ts + d),
            };
            if db.relation_mut(pred).insert(t.clone(), meta) && f.has_id {
                ids.insert((pred, t), tid(f.id_node, f.gen_ts, f.id_seq));
            }
        }
        let id_of = |p: Symbol, t: &Tuple| ids.get(&(p, t.clone())).copied();
        let ctx = LocalCtx {
            prog: &prog,
            db: &db,
            id_of: &id_of,
            tau: c.tau,
            update_id,
            generous: c.generous,
        };
        let pinned = Some(occ);
        let incoming: Vec<Vec<(u16, TupleId)>> =
            flat_set.iter().map(|p| p.inputs.clone()).collect();
        flat_set = process_partials(&ctx, rule, &shape, flat_set, pinned, restrict);
        boxed_set = reference::process(&ctx, rule, &shape, boxed_set, pinned, restrict);
        let flat_norm: Vec<Norm> = flat_set.iter().map(norm).collect();
        let boxed_norm: Vec<Norm> = boxed_set.iter().map(norm_ref).collect();
        assert_eq!(flat_norm, boxed_norm, "partials diverge at node {n}");
        // Extensions add an input, so an output with an incoming partial's
        // exact inputs is that partial, surviving.
        let survivors = flat_set
            .iter()
            .filter(|p| incoming.contains(&p.inputs))
            .count();
        seen.killed |= survivors < incoming.len();
        seen.extended |= flat_set.len() > survivors;
        seen.completed |= flat_set.iter().any(|p| p.is_complete(&shape));
        if flat_set.len() > 512 {
            break;
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn flat_kernel_matches_boxed_reference(c in case()) {
        check_case(&c);
    }
}

/// The generator is not vacuous: over a fixed sample of its cases, seeds
/// match, partials extend and complete, checks or negations kill, and
/// every rule of every program extends at least once.
#[test]
fn generated_cases_seed_extend_complete_and_kill() {
    use proptest::SeedableRng;
    let mut rng = proptest::TestRng::seed_from_u64(7);
    let strategy = case();
    let (mut seeded, mut extended, mut completed, mut killed) = (0, 0, 0, 0);
    let mut rules_extended = std::collections::BTreeSet::new();
    for _ in 0..400 {
        let seen = check_case(&strategy.generate(&mut rng));
        seeded += seen.seeded as u32;
        extended += seen.extended as u32;
        completed += seen.completed as u32;
        killed += seen.killed as u32;
        if seen.extended {
            rules_extended.insert(seen.rule);
        }
    }
    eprintln!("seeded {seeded} extended {extended} completed {completed} killed {killed}");
    assert!(seeded >= 100 && extended >= 40 && completed >= 20 && killed >= 10);
    // Program 0 holds one rule, the others two each.
    assert_eq!(rules_extended.len(), 7, "{rules_extended:?}");
}

const DIV_BY_ZERO_NEGATION: &str = r#"
    .output q.
    q(X) :- e(X, Y), f(Y), not bad(X / Y).
"#;

/// Regression: a negated subgoal whose ground argument fails to evaluate
/// (`1 / 0`) must kill the partial, as a failing comparison does — the
/// probe step used to treat the error as "not yet evaluable", skip the
/// negation and derive `q(1)`, where the centralized evaluator reports
/// `div(1, 0) failed`.
#[test]
fn erroring_negation_argument_kills_partial() {
    let prog = compile_source(
        DIV_BY_ZERO_NEGATION,
        BuiltinRegistry::standard(),
        PlanTiming::default(),
    )
    .unwrap();
    let rule = &prog.analysis.program.rules[0];
    let shape = RuleShape::of(rule);
    let seed = seed_partial(&prog, rule, 0, false, &ints(&[1, 0]), tid(0, 5, 0)).unwrap();
    let mut db = Database::new();
    let f0 = ints(&[0]);
    db.relation_mut(Symbol::intern("f"))
        .insert(f0.clone(), TupleMeta::at(3));
    let id_of = |_: Symbol, t: &Tuple| (*t == f0).then(|| tid(1, 3, 0));
    let ctx = LocalCtx {
        prog: &prog,
        db: &db,
        id_of: &id_of,
        tau: 10,
        update_id: tid(0, 10, 0),
        generous: false,
    };
    // `e(1, 0)` grounds `X / Y` already: the seed dies before it can
    // extend through `f(0)` to a complete partial.
    let out = process_partials(&ctx, rule, &shape, vec![seed], Some(0), None);
    assert!(out.is_empty(), "{out:?}");

    // The centralized evaluator rejects the same input.
    let engine =
        sensorlog::eval::Engine::from_source(DIV_BY_ZERO_NEGATION, BuiltinRegistry::standard())
            .unwrap();
    let mut edb = Database::new();
    edb.load_facts("e(1, 0). f(0).").unwrap();
    let err = engine.run(&edb).unwrap_err().to_string();
    assert!(err.contains("div(1, 0) failed"), "{err}");
}

/// The same regression end to end: a deployment must not derive `q(1)`
/// from `e(1, 0)` and `f(0)`, while `q(2)` from `e(2, 1)`, `f(1)` still
/// derives.
#[test]
fn erroring_negation_argument_derives_nothing_in_network() {
    let mut d = Deployment::new(
        DIV_BY_ZERO_NEGATION,
        BuiltinRegistry::standard(),
        Topology::square_grid(4),
        DeployConfig::default(),
    )
    .unwrap();
    let ev = |at, node, pred: &str, vals: &[i64]| WorkloadEvent {
        at,
        node: NodeId(node),
        pred: Symbol::intern(pred),
        tuple: ints(vals),
        kind: UpdateKind::Insert,
    };
    d.schedule_all([
        ev(1_000, 0, "e", &[1, 0]),
        ev(2_000, 5, "f", &[0]),
        ev(3_000, 10, "e", &[2, 1]),
        ev(4_000, 15, "f", &[1]),
    ]);
    d.run(10_000_000);
    let q: Vec<Tuple> = d.results(Symbol::intern("q")).into_iter().collect();
    assert_eq!(q, vec![ints(&[2])]);
}

/// A builtin whose ground argument fails to evaluate kills the partial at
/// once instead of riding along to the end of the walk.
#[test]
fn erroring_builtin_argument_kills_partial() {
    let prog = compile_source(
        "r(X) :- e(X, Y), f(Y), even(X / Y).",
        registry(),
        PlanTiming::default(),
    )
    .unwrap();
    let rule = &prog.analysis.program.rules[0];
    let shape = RuleShape::of(rule);
    let seed = seed_partial(&prog, rule, 0, false, &ints(&[4, 0]), tid(0, 5, 0)).unwrap();
    let mut db = Database::new();
    db.relation_mut(Symbol::intern("f"))
        .insert(ints(&[0]), TupleMeta::at(3));
    let id_of = |_: Symbol, _: &Tuple| Some(tid(1, 3, 0));
    let ctx = LocalCtx {
        prog: &prog,
        db: &db,
        id_of: &id_of,
        tau: 10,
        update_id: tid(0, 10, 0),
        generous: false,
    };
    let out = process_partials(&ctx, rule, &shape, vec![seed], Some(0), None);
    assert!(out.is_empty(), "{out:?}");
}
