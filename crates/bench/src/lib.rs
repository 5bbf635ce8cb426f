//! # sensorlog-bench
//!
//! Experiment harness for the reproduction: one function per paper figure
//! or table (reconstructed Section VI — see DESIGN.md), the feature suites
//! that write the `BENCH_<suite>.json` artifacts, shared run machinery,
//! and text-table and JSON output. The one `bench` binary drives it all:
//!
//! ```text
//! cargo run --release -p sensorlog-bench -- figures all
//! cargo run --release -p sensorlog-bench -- figures fig4 fig8
//! cargo run --release -p sensorlog-bench -- chaos --quick --out /tmp/chaos.json
//! ```

pub mod common;
pub mod experiments;
mod json;
pub mod suites;
pub mod table;

pub use table::Table;

/// All experiment ids, in report order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "table1", "table2", "table3", "table4", "table5",
];

/// The table of one experiment id, `None` for an id not in
/// [`ALL_EXPERIMENTS`].
pub fn run(id: &str) -> Option<Table> {
    use experiments::*;
    Some(match id {
        "fig4" => joins::fig4_fig5().0,
        "fig5" => joins::fig4_fig5().1,
        "fig6" => joins::fig6(),
        "fig7" => joins::fig7(),
        "fig8" => sptree::fig8(),
        "fig9" => robustness::fig9(),
        "fig10" => negation::fig10(),
        "fig11" => ablation::fig11(),
        "fig12" => ablation::fig12(),
        "fig13" => failures::fig13(),
        "fig14" => aggregates::fig14(),
        "fig15" => holddown::fig15(),
        "fig16" => geometric::fig16(),
        "table1" => memory::table1(),
        "table2" => robustness::table2(),
        "table3" => tracesum::table3(),
        "table4" => telemetry::table4_table5().0,
        "table5" => telemetry::table4_table5().1,
        _ => return None,
    })
}
