//! The three benchmark workloads. Every input (simulator seed, stream
//! generator seed, fault schedule seed) is derived from the `--seed`
//! argument; the deployment only ever sees the generated events.

use sensorlog_core::deploy::{DeployConfig, Deployment, WorkloadEvent};
use sensorlog_core::runtime::{FaultPlaneCfg, RtConfig};
use sensorlog_core::workload::{graph_edges, UniformStreams};
use sensorlog_core::Strategy;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::Symbol;
use sensorlog_netsim::{FaultSchedule, RandomFaults, SimConfig, SimTime, Topology};

const SPTREE: &str = include_str!("../../examples/programs/sptree.dl");
const JOIN: &str = include_str!("../../examples/programs/join.dl");
/// Window-free two-stream equi-join (the chaos bench's program).
const JOIN2: &str = "
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
";

pub const NAMES: [&str; 3] = ["sptree", "churn", "centroid"];

/// Deployments per run: each workload runs once under each of this many
/// seeds derived from `--seed`, and an end-to-end figure is the median
/// over them, so one unlucky seed cannot move it far. Sized so that one
/// pass over the batch takes about 20 s on a 2.1 GHz core.
fn batch_size(name: &str) -> u64 {
    match name {
        "sptree" => 12,
        _ => 8,
    }
}

/// How a workload's output is judged at quiescence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// `oracle::check` against the centralized engine on the net EDB.
    Oracle,
    /// `invariants::check_convergence` against the surviving EDB.
    Convergence,
}

pub struct Workload {
    pub name: &'static str,
    pub src: &'static str,
    pub topo: Topology,
    pub cfg: DeployConfig,
    pub faults: Option<FaultSchedule>,
    pub events: Vec<WorkloadEvent>,
    pub horizon: SimTime,
    pub output: Symbol,
    pub check: Check,
    /// Whether a wrong output tuple fails the run. Always counted in
    /// `failed` and `result_accuracy`; not gated only on sptree, whose
    /// errors are a recorded defect (see README.md).
    pub gate_outputs: bool,
}

/// SplitMix64 finalizer: independent sub-seeds from one argument.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sim(seed: u64) -> SimConfig {
    SimConfig {
        seed: sub_seed(seed, 1),
        ..SimConfig::default()
    }
}

/// The instances of workload `name` for benchmark seed `seed`.
pub fn batch(name: &str, seed: u64) -> Option<Vec<Workload>> {
    (0..batch_size(name))
        .map(|k| build(name, sub_seed(seed, 100 + k)))
        .collect()
}

fn build(name: &str, seed: u64) -> Option<Workload> {
    let sym = Symbol::intern;
    let w = match name {
        // logicH under the Perpendicular Approach: recursion + negation,
        // insert-only. The probe step dominates.
        "sptree" => {
            let topo = Topology::square_grid(8);
            Workload {
                name: "sptree",
                src: SPTREE,
                events: graph_edges(&topo, 100, 200),
                topo,
                cfg: DeployConfig {
                    sim: sim(seed),
                    ..DeployConfig::default()
                },
                faults: None,
                horizon: 2_000_000,
                output: sym("h"),
                check: Check::Oracle,
                gate_outputs: false,
            }
        }
        // Inserts and deletes on a two-stream join with the fault plane
        // on and a seeded crash/restart + link-flap schedule.
        "churn" => {
            let topo = Topology::square_grid(12);
            let events = UniformStreams {
                preds: vec![sym("r1"), sym("r2")],
                interval: 4_000,
                duration: 12_000,
                delete_fraction: 0.3,
                delete_lag: 5_000,
                groups: 256,
                seed: sub_seed(seed, 2),
            }
            .events(&topo);
            let faults = FaultSchedule::random(
                sub_seed(seed, 3),
                &topo,
                RandomFaults {
                    crashes: 2,
                    link_flaps: 2,
                    start: 1_000,
                    heal_by: 14_000,
                },
            );
            Workload {
                name: "churn",
                src: JOIN2,
                events,
                topo,
                cfg: DeployConfig {
                    rt: RtConfig {
                        faults: Some(FaultPlaneCfg {
                            active_until: 26_000,
                            ..FaultPlaneCfg::default()
                        }),
                        ..RtConfig::default()
                    },
                    sim: sim(seed),
                    ..DeployConfig::default()
                },
                faults: Some(faults),
                horizon: 240_000,
                output: sym("q"),
                check: Check::Convergence,
                gate_outputs: true,
            }
        }
        // The windowed temp/humid join at a central server: bypasses the
        // distributed probe step, exercises the center's incremental engine.
        "centroid" => {
            let topo = Topology::square_grid(16);
            let events = UniformStreams {
                preds: vec![sym("temp"), sym("humid")],
                interval: 5_000,
                duration: 60_000,
                delete_fraction: 0.3,
                delete_lag: 7_000,
                groups: 64,
                seed: sub_seed(seed, 2),
            }
            .events(&topo);
            Workload {
                name: "centroid",
                src: JOIN,
                events,
                topo,
                cfg: DeployConfig {
                    rt: RtConfig {
                        strategy: Strategy::Centroid,
                        ..RtConfig::default()
                    },
                    sim: sim(seed),
                    ..DeployConfig::default()
                },
                faults: None,
                horizon: 120_000,
                output: sym("pair"),
                check: Check::Oracle,
                gate_outputs: true,
            }
        }
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// `Deployment::new` with this workload's program, topology and
    /// config, plus its fault schedule. This is the timed set-up.
    pub fn deploy(&self, cfg: DeployConfig) -> Deployment {
        let mut d = Deployment::new(
            self.src,
            BuiltinRegistry::standard(),
            self.topo.clone(),
            cfg,
        )
        .expect("benchmark program compiles");
        if let Some(f) = &self.faults {
            d.set_fault_schedule(f.clone());
        }
        d
    }
}
