//! Pinned trace-hash regression: a lossy 200-node logicH run whose event
//! journal must stay byte-identical across observability changes, and must
//! be unaffected by enabling telemetry (the observer may never touch the
//! RNG, the event queue, or timers).
//!
//! The pinned values come from `examples/trace_hash.rs` run at the
//! origin-keyed-tie baseline. If a change legitimately alters simulator
//! behavior (new message kind, different timer schedule), re-run the
//! example and update the constants — but an unexplained diff here means
//! determinism broke.
//!
//! The same pin also gates the scheduler backends: the retained binary
//! heap, the hierarchical timer wheel, and the region-sharded lockstep
//! scheduler must all produce this exact journal — the shard backend's
//! window barriers and mailbox flushes are required to be observationally
//! invisible.

use proptest::prelude::*;
use sensorlog::core::deploy::{DeployConfig, Deployment};
use sensorlog::core::strategy::Strategy;
use sensorlog::core::workload::graph_edges;
use sensorlog::prelude::*;

const LOGIC_H: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"#;

const PINNED_HASH: u64 = 0xf223a9e4a847cca2;
const PINNED_RECORDS: usize = 29219;
const PINNED_TX: u64 = 14138;

/// A seed-17 logicH-under-PA run: grid, loss rate, `graph_edges` spacing
/// (the lag between successive edge injections) and horizon.
struct Scenario {
    grid: (u32, u32),
    loss: f64,
    lag: u64,
    horizon: u64,
}

/// The lossy 200-node run the constants above pin.
const LOSSY_200: Scenario = Scenario {
    grid: (20, 10),
    loss: 0.1,
    lag: 200,
    horizon: 2_000_000,
};

fn run_probe(telemetry: Telemetry) -> (usize, u64, u64) {
    run_probe_sched(telemetry, Sched::Wheel)
}

fn run_probe_sched(telemetry: Telemetry, sched: Sched) -> (usize, u64, u64) {
    run_probe_full(telemetry, sched, Provenance::disabled(), &LOSSY_200).0
}

/// Returns the journal fingerprint triple plus the number of provenance
/// records the run captured.
fn run_probe_full(
    telemetry: Telemetry,
    sched: Sched,
    provenance: Provenance,
    scenario: &Scenario,
) -> ((usize, u64, u64), usize) {
    let topo = Topology::grid(scenario.grid.0, scenario.grid.1);
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim: SimConfig {
            loss_prob: scenario.loss,
            seed: 17,
            sched,
            ..SimConfig::default()
        },
        telemetry,
        provenance: provenance.clone(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(LOGIC_H, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    // Force the shard backend into real lockstep windows: at 200 nodes its
    // pending queue would often sit below the serial-fallback threshold,
    // and this pin is meant to exercise barriers + mailbox flushes, not
    // the fallback path. No effect on the other backends.
    d.set_shard_threshold(0);
    let journal = d.attach_journal();
    d.schedule_all(graph_edges(&topo, 100, scenario.lag));
    d.run(scenario.horizon);
    let j = journal.take();
    (
        (j.records.len(), j.content_hash(), d.metrics().total_tx()),
        provenance.len(),
    )
}

#[test]
fn lossy_logic_h_trace_is_pinned() {
    let (records, hash, tx) = run_probe(Telemetry::disabled());
    assert_eq!(records, PINNED_RECORDS, "journal record count drifted");
    assert_eq!(tx, PINNED_TX, "transmission count drifted");
    assert_eq!(hash, PINNED_HASH, "journal content hash drifted");
}

#[test]
fn heap_backend_matches_the_same_pin() {
    // The scheduler backend is observationally pure: the retained binary
    // heap must hit the exact constants pinned for the timer wheel.
    let (records, hash, tx) = run_probe_sched(Telemetry::disabled(), Sched::Heap);
    assert_eq!(records, PINNED_RECORDS, "heap backend record count drifted");
    assert_eq!(tx, PINNED_TX, "heap backend transmission count drifted");
    assert_eq!(
        hash, PINNED_HASH,
        "heap and wheel schedulers produced different journals"
    );
}

#[test]
fn shard_backend_matches_the_same_pin() {
    // The region-sharded lockstep scheduler — per-region wheels advanced
    // in lookahead-bounded windows, cross-region mailboxes flushed at the
    // barrier, trace merged by (at, key) — must hit the exact constants
    // pinned for the single wheel. Byte-identity, not statistical
    // similarity: conservative PDES is an execution strategy, not a model
    // change.
    let (records, hash, tx) = run_probe_sched(Telemetry::disabled(), Sched::Shard { workers: 2 });
    assert_eq!(
        records, PINNED_RECORDS,
        "shard backend record count drifted"
    );
    assert_eq!(tx, PINNED_TX, "shard backend transmission count drifted");
    assert_eq!(
        hash, PINNED_HASH,
        "sharded and single-wheel schedulers produced different journals"
    );
}

#[test]
fn telemetry_does_not_perturb_the_trace() {
    let (records, hash, tx) = run_probe(Telemetry::enabled());
    assert_eq!(records, PINNED_RECORDS);
    assert_eq!(tx, PINNED_TX);
    assert_eq!(
        hash, PINNED_HASH,
        "an enabled telemetry handle changed simulator behavior"
    );
}

#[test]
fn provenance_does_not_perturb_the_trace() {
    // The provenance plane is a pure observer, exactly like telemetry:
    // with recording enabled the journal must stay byte-identical to the
    // pin, while actually capturing a non-trivial record log. Disabled,
    // it must capture nothing at all.
    let ((records, hash, tx), n_prov) = run_probe_full(
        Telemetry::disabled(),
        Sched::Wheel,
        Provenance::enabled(),
        &LOSSY_200,
    );
    assert_eq!(records, PINNED_RECORDS);
    assert_eq!(tx, PINNED_TX);
    assert_eq!(
        hash, PINNED_HASH,
        "an enabled provenance handle changed simulator behavior"
    );
    assert!(
        n_prov > 1_000,
        "a 200-node logicH run should capture thousands of provenance records, got {n_prov}"
    );

    let (_, n_disabled) = run_probe_full(
        Telemetry::disabled(),
        Sched::Wheel,
        Provenance::disabled(),
        &LOSSY_200,
    );
    assert_eq!(n_disabled, 0, "disabled plane must record nothing");
}

#[test]
fn provenance_pin_holds_on_the_shard_backend_too() {
    // Under the region-sharded scheduler nodes run on worker threads, so
    // provenance recording goes through the shared mutex concurrently —
    // the journal must still match the pin byte-for-byte.
    let ((records, hash, tx), n_prov) = run_probe_full(
        Telemetry::disabled(),
        Sched::Shard { workers: 2 },
        Provenance::enabled(),
        &LOSSY_200,
    );
    assert_eq!(records, PINNED_RECORDS);
    assert_eq!(tx, PINNED_TX);
    assert_eq!(
        hash, PINNED_HASH,
        "provenance under the shard backend changed the journal"
    );
    assert!(n_prov > 1_000);
}

#[test]
fn loss_free_50_node_trace_is_pinned() {
    // The `bench prov` / `bench intern` scenario: loss-free, so the tree
    // fully converges, on a 10×5 grid.
    let scenario = Scenario {
        grid: (10, 5),
        loss: 0.0,
        lag: 200,
        horizon: 2_000_000,
    };
    let ((records, hash, _), _) = run_probe_full(
        Telemetry::disabled(),
        Sched::Wheel,
        Provenance::disabled(),
        &scenario,
    );
    assert_eq!(records, 35_342, "journal record count drifted");
    assert_eq!(hash, 0x3c1ec08c6289dba4, "journal content hash drifted");
}

#[test]
fn simultaneous_injection_600_node_trace_is_pinned() {
    // The `bench shard --quick` oracle: a 30×20 grid whose edges all
    // inject at once (lag 0), under 5% loss.
    let scenario = Scenario {
        grid: (30, 20),
        loss: 0.05,
        lag: 0,
        horizon: 400_000,
    };
    let ((records, hash, _), _) = run_probe_full(
        Telemetry::disabled(),
        Sched::Wheel,
        Provenance::disabled(),
        &scenario,
    );
    assert_eq!(records, 161_107, "journal record count drifted");
    assert_eq!(hash, 0x454242ed8c28a208, "journal content hash drifted");
}

/// Shard-vs-wheel journals for a small lossy logicH run under arbitrary
/// worker counts and seeds. Returns the two record vectors.
fn shard_oracle_pair(
    cols: usize,
    rows: usize,
    seed: u64,
    loss: f64,
    workers: usize,
) -> (
    Vec<sensorlog::netsim::TraceRecord>,
    Vec<sensorlog::netsim::TraceRecord>,
) {
    let mut out = Vec::new();
    for sched in [Sched::Wheel, Sched::Shard { workers }] {
        let topo = Topology::grid(cols as u32, rows as u32);
        let cfg = DeployConfig {
            rt: RtConfig {
                strategy: Strategy::Perpendicular { band_width: 1.0 },
                ..RtConfig::default()
            },
            sim: SimConfig {
                loss_prob: loss,
                seed,
                sched,
                ..SimConfig::default()
            },
            ..DeployConfig::default()
        };
        let mut d =
            Deployment::new(LOGIC_H, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
        d.set_shard_threshold(0);
        let journal = d.attach_journal();
        d.schedule_all(graph_edges(&topo, 40, 120));
        d.run(400_000);
        out.push(journal.take().records);
    }
    let shard = out.pop().unwrap();
    let wheel = out.pop().unwrap();
    (wheel, shard)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Window-barrier flushing never reorders deliveries: for random grid
    /// shapes, seeds, loss rates, and worker counts, the sharded journal is
    /// record-for-record identical to the single-wheel oracle, and its
    /// timestamps are nondecreasing — same-tick records keep the oracle's
    /// (at, seq) order across every barrier.
    #[test]
    fn window_barriers_never_reorder_same_tick_deliveries(
        cols in 3usize..7,
        rows in 2usize..5,
        seed in 0u64..1_000,
        loss in prop_oneof![Just(0.0), Just(0.15)],
        workers in 1usize..5,
    ) {
        let (wheel, shard) = shard_oracle_pair(cols, rows, seed, loss, workers);
        prop_assert_eq!(wheel.len(), shard.len());
        for (w, s) in wheel.iter().zip(shard.iter()) {
            prop_assert_eq!(w, s);
        }
        for pair in shard.windows(2) {
            prop_assert!(
                pair[0].at <= pair[1].at,
                "merged journal time went backwards: {} then {}",
                pair[0].at,
                pair[1].at
            );
            prop_assert!(pair[0].seq < pair[1].seq, "seq not strictly increasing");
        }
    }
}
