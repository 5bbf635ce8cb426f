//! `bench sched`: scheduler + join microbenchmarks.
//!
//! Two comparisons, matching the hot paths the timer-wheel/index work
//! optimized:
//!
//! * **queue** — the event queue under the simulator's hold model (pop the
//!   head, push a successor at `head + delay` with delay drawn from the
//!   bounded per-hop window), `BinaryHeap` vs `TimerWheel`, at pending
//!   populations of 100 / 1k / 10k / 100k events ("nodes": steady state is
//!   roughly one in-flight event per node). Also pure enqueue (fill from
//!   empty) and pure dequeue (drain) ops/sec.
//! * **probe** — `Relation::select` through a maintained hash index vs the
//!   filtered-scan baseline, ops/sec at growing relation sizes.
//! * **join** — end-to-end semi-naive evaluation of the logicH / logicJ
//!   shortest-path-tree programs on a grid EDB, `EvalConfig::use_index`
//!   on vs off, wall-clock speedup.
//!
//! `--quick` shrinks every dimension so CI can prove the harness end-to-end
//! (runs, exits 0, JSON parses) in well under a second; the committed
//! `BENCH_sched.json` comes from a full run.

use super::Report;
use crate::experiments::sptree::{edge_edb, LOGIC_H, LOGIC_J};
use crate::json::{obj, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_eval::relation::{Relation, TupleMeta};
use sensorlog_eval::{Engine, EvalConfig};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::intern;
use sensorlog_logic::{Symbol, Term, Tuple};
use sensorlog_netsim::{SimTime, TimerWheel, Topology};
use std::collections::BinaryHeap;
use std::time::Instant;

/// The bounded per-hop delay window the simulator draws from
/// (`SimConfig::hop_delay` default), which is what makes the calendar-queue
/// layout effective: successors land within a few ring slots of the head.
const DELAY: (u64, u64) = (10, 40);

/// One event-queue backend under test.
trait Queue {
    fn push(&mut self, at: SimTime, seq: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

struct Heap(BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>);

impl Queue for Heap {
    fn push(&mut self, at: SimTime, seq: u64) {
        self.0.push(std::cmp::Reverse((at, seq)));
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.0.pop().map(|std::cmp::Reverse(x)| x)
    }
}

struct Wheel(TimerWheel<()>);

impl Queue for Wheel {
    fn push(&mut self, at: SimTime, seq: u64) {
        self.0.push(at, seq, ());
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.0.pop().map(|(at, seq, ())| (at, seq))
    }
}

/// Hold model: pop the earliest event, schedule its successor a bounded
/// delay later. `ops` pops+pushes at a steady pending population of `n`.
fn bench_queue<Q: Queue>(mut mk: impl FnMut() -> Q, n: usize, ops: usize) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(0xBE0C + n as u64);
    let init: Vec<(SimTime, u64)> = (0..n)
        .map(|i| (rng.gen_range(1_000..1_000 + DELAY.1), i as u64))
        .collect();

    // Steady-state hold model.
    let mut q = mk();
    for &(at, seq) in &init {
        q.push(at, seq);
    }
    let mut seq = n as u64;
    let t0 = Instant::now();
    for _ in 0..ops {
        let (at, _) = q.pop().expect("hold model never drains");
        seq += 1;
        q.push(at + rng.gen_range(DELAY.0..=DELAY.1), seq);
    }
    let hold = ops as f64 / t0.elapsed().as_secs_f64();

    // Pure enqueue (fill from empty) and pure dequeue (drain), repeated so
    // small populations still accumulate measurable work.
    let rounds = (200_000 / n).max(1);
    let mut enq_s = 0.0;
    let mut deq_s = 0.0;
    for _ in 0..rounds {
        let mut q = mk();
        let t0 = Instant::now();
        for &(at, seq) in &init {
            q.push(at, seq);
        }
        enq_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        while q.pop().is_some() {}
        deq_s += t0.elapsed().as_secs_f64();
    }
    let total = (rounds * n) as f64;
    (hold, total / enq_s, total / deq_s)
}

/// `Relation::select` through a maintained index vs a filtered scan.
fn bench_probe(tuples: usize, probes: usize) -> Json {
    let mut indexed = Relation::new();
    indexed.register_index(&[0]);
    let mut scan = Relation::new();
    let keys = (tuples / 4).max(1) as i64;
    for i in 0..tuples {
        let t = Tuple::new(vec![Term::Int(i as i64 % keys), Term::Int(i as i64)]);
        indexed.insert(t.clone(), TupleMeta::default());
        scan.insert(t, TupleMeta::default());
    }
    let mut rng = StdRng::seed_from_u64(0x9806E);
    let mut out = Vec::new();
    // Warm: build the maintained index before timing.
    indexed.select(&[0], &[intern::intern_int(0)], &mut out);

    let t0 = Instant::now();
    for _ in 0..probes {
        out.clear();
        indexed.select(
            &[0],
            &[intern::intern_int(rng.gen_range(0..keys))],
            &mut out,
        );
    }
    let idx_ops = probes as f64 / t0.elapsed().as_secs_f64();

    // Scan baseline: fewer probes (each is O(tuples)), same key stream.
    let mut rng = StdRng::seed_from_u64(0x9806E);
    let scan_probes = (probes / 50).max(10);
    let t0 = Instant::now();
    for _ in 0..scan_probes {
        out.clear();
        let key = intern::intern_int(rng.gen_range(0..keys));
        out.extend(scan.tuples().filter(|t| t.id(0) == key).cloned());
    }
    let scan_ops = scan_probes as f64 / t0.elapsed().as_secs_f64();
    obj! {
        "tuples" => tuples,
        "indexed_ops_per_sec" => Json::fixed(idx_ops, 0),
        "scan_ops_per_sec" => Json::fixed(scan_ops, 0),
    }
}

/// Semi-naive logicH/logicJ on an m×m grid EDB, indexed vs forced-scan.
fn bench_join(program: &str, src: &str, out_pred: &str, m: u32) -> Json {
    let edb = edge_edb(&Topology::square_grid(m));
    let run = |use_index: bool| {
        let mut engine =
            Engine::from_source(src, BuiltinRegistry::standard()).expect("bench program compiles");
        engine.config = EvalConfig {
            use_index,
            ..EvalConfig::default()
        };
        let t0 = Instant::now();
        let out = engine.run(&edb).expect("bench program evaluates");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            out.len_of(Symbol::intern(out_pred)) > 0,
            "join bench produced no output"
        );
        (ms, out.index_stats())
    };
    let (indexed_ms, stats) = run(true);
    let (scan_ms, _) = run(false);
    let speedup = scan_ms / indexed_ms;
    eprintln!(
        "join {program} grid={m}: indexed {indexed_ms:.1} ms vs scan {scan_ms:.1} ms ({speedup:.2}x)"
    );
    obj! {
        "program" => program,
        "grid" => m,
        "indexed_ms" => Json::fixed(indexed_ms, 2),
        "scan_ms" => Json::fixed(scan_ms, 2),
        "speedup" => Json::fixed(speedup, 2),
        "index_hits" => stats.hits,
        "index_builds" => stats.builds,
    }
}

pub fn run(quick: bool) -> Result<Report, String> {
    let (sizes, hold_ops): (&[usize], usize) = if quick {
        (&[100, 1_000], 20_000)
    } else {
        (&[100, 1_000, 10_000, 100_000], 2_000_000)
    };

    let mut queue = Vec::new();
    let mut dequeue_speedup = Vec::new();
    for &n in sizes {
        let heap = bench_queue(|| Heap(BinaryHeap::new()), n, hold_ops);
        let wheel = bench_queue(|| Wheel(TimerWheel::new()), n, hold_ops);
        for (backend, (hold, enq, deq)) in [("heap", heap), ("wheel", wheel)] {
            queue.push(obj! {
                "nodes" => n,
                "backend" => backend,
                "hold_ops_per_sec" => Json::fixed(hold, 0),
                "enqueue_ops_per_sec" => Json::fixed(enq, 0),
                "dequeue_ops_per_sec" => Json::fixed(deq, 0),
            });
        }
        eprintln!(
            "queue n={n}: hold {:.2}x enq {:.2}x deq {:.2}x (wheel/heap)",
            wheel.0 / heap.0,
            wheel.1 / heap.1,
            wheel.2 / heap.2
        );
        dequeue_speedup.push((n.to_string(), Json::fixed(wheel.2 / heap.2, 2)));
    }

    let probe_sizes: &[usize] = if quick {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let probe: Vec<Json> = probe_sizes
        .iter()
        .map(|&t| bench_probe(t, if quick { 20_000 } else { 500_000 }))
        .collect();

    let join_grid = if quick { 6 } else { 14 };
    let join = vec![
        bench_join("logicH", LOGIC_H, "h", join_grid),
        bench_join("logicJ", LOGIC_J, "j", join_grid),
    ];

    let summary = format!(
        "sched OK: {} queue rows, {} probe rows, {} join rows",
        queue.len(),
        probe.len(),
        join.len()
    );
    let doc = obj! {
        "bench" => "sched",
        "quick" => quick,
        "delay_model_ms" => vec![DELAY.0, DELAY.1],
        "queue" => queue,
        "queue_dequeue_speedup" => Json::Obj(dequeue_speedup),
        "probe" => probe,
        "join" => join,
    };
    Ok(Report {
        artifact: doc.render(),
        summary,
    })
}
