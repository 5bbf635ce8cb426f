//! The parallel bench driver must be observationally identical to the
//! serial one: each case is an independent deterministic single-threaded
//! simulation, and `run_cases_with` merges results in spec order — so a
//! table built from a 4-thread run renders byte-identical to the 1-thread
//! reference.

use sensorlog_bench::common::{run_cases_with, CaseSpec};
use sensorlog_bench::experiments::joins::JOIN2;
use sensorlog_bench::Table;
use sensorlog_core::workload::UniformStreams;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SimConfig, Topology};

fn small_sweep() -> Vec<CaseSpec> {
    let mut specs = Vec::new();
    for (i, &(m, loss)) in [(4u32, 0.0f64), (4, 0.1), (5, 0.0), (5, 0.1)]
        .iter()
        .enumerate()
    {
        let topo = Topology::square_grid(m);
        let events = UniformStreams {
            preds: vec![Symbol::intern("r1"), Symbol::intern("r2")],
            interval: 8_000,
            duration: 16_000,
            delete_fraction: 0.0,
            delete_lag: 0,
            groups: 16,
            seed: 5 + i as u64,
        }
        .events(&topo);
        specs.push(CaseSpec {
            src: JOIN2.to_string(),
            topo,
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            sim: SimConfig {
                loss_prob: loss,
                seed: 17,
                ..SimConfig::default()
            },
            spatial_radius: None,
            events,
            output: Symbol::intern("q"),
            horizon: 30_000_000,
        });
    }
    specs
}

fn render(points: &[sensorlog_bench::common::RunPoint]) -> String {
    let mut t = Table::new(
        "par",
        "parallel-driver equivalence probe",
        &["tx", "bytes", "maxload", "compl", "events", "depth"],
    );
    for p in points {
        t.row(vec![
            p.total_tx.to_string(),
            p.total_bytes.to_string(),
            p.max_node_load.to_string(),
            format!("{:.4}", p.completeness),
            p.trace.delivers.to_string(),
            p.max_queue_depth.to_string(),
        ]);
    }
    t.to_string()
}

#[test]
fn parallel_table_is_byte_identical_to_serial() {
    let specs = small_sweep();
    let serial = render(&run_cases_with(&specs, 1));
    let parallel = render(&run_cases_with(&specs, 4));
    assert_eq!(
        serial, parallel,
        "worker-thread scheduling leaked into experiment results"
    );
}

#[test]
fn single_spec_roundtrip() {
    let specs = small_sweep();
    let one = run_cases_with(&specs[..1], 8);
    assert_eq!(one.len(), 1);
    assert_eq!(one[0].total_tx, specs[0].run().total_tx);
}
