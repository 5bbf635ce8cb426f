//! The JSON-artifact suites behind `bench <suite>`. Each one runs its
//! workload, checks its own gates, and hands the driver either a report
//! or the reason it failed; the driver writes the artifact.

mod chaos;
mod diag;
mod intern;
mod prov;
mod sched;
mod shard;
mod smoke;

/// What a suite hands back on success.
pub struct Report {
    /// The artifact the driver writes to `--out`.
    pub artifact: String,
    /// The line(s) printed once the artifact is written.
    pub summary: String,
}

/// A suite: `quick` selects the small CI-sized budget.
pub type Suite = fn(quick: bool) -> Result<Report, String>;

/// Every suite by name; each writes `BENCH_<name>.json` by default.
pub const SUITES: &[(&str, Suite)] = &[
    ("smoke", smoke::run),
    ("sched", sched::run),
    ("shard", shard::run),
    ("chaos", chaos::run),
    ("prov", prov::run),
    ("intern", intern::run),
    ("diag", diag::run),
];
