//! `bench`: the one driver for the paper's figures and the feature suites.
//!
//! ```text
//! bench figures [all | ID...]        # paper tables to stdout, report order
//! bench figures --list               # available ids
//! bench <suite> [--quick] [--out PATH]
//! ```
//!
//! A suite writes its artifact to `--out` (default `BENCH_<suite>.json`).
//! Exit codes: 0 on success, 1 when a suite gate fails or the artifact
//! cannot be written, 2 on a usage error.

use sensorlog_bench::suites::{Suite, SUITES};
use sensorlog_bench::{run, ALL_EXPERIMENTS};
use std::process::ExitCode;
use std::time::Instant;

enum Cmd {
    List,
    Figures(Vec<&'static str>),
    Suite {
        name: &'static str,
        run: Suite,
        quick: bool,
        out: String,
    },
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let (suite, rest) = args.split_first().ok_or("missing suite")?;
    if suite == "figures" {
        if rest.iter().any(|a| a == "--list") {
            return Ok(Cmd::List);
        }
        let mut ids = Vec::new();
        for a in rest.iter().filter(|a| *a != "all") {
            let id = ALL_EXPERIMENTS
                .iter()
                .find(|&&id| id == a)
                .ok_or_else(|| format!("unknown figure id `{a}`"))?;
            ids.push(*id);
        }
        if ids.is_empty() || rest.iter().any(|a| a == "all") {
            ids = ALL_EXPERIMENTS.to_vec();
        }
        return Ok(Cmd::Figures(ids));
    }
    let &(name, run) = SUITES
        .iter()
        .find(|(name, _)| name == suite)
        .ok_or_else(|| format!("unknown suite `{suite}`"))?;
    let (mut quick, mut out) = (false, None);
    let mut rest = rest.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match rest.next() {
                Some(path) if !path.starts_with("--") => out = Some(path.clone()),
                _ => return Err("--out needs a path".into()),
            },
            other => return Err(format!("unknown argument `{other}` for {name}")),
        }
    }
    Ok(Cmd::Suite {
        name,
        run,
        quick,
        out: out.unwrap_or_else(|| format!("BENCH_{name}.json")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            let suites: Vec<&str> = SUITES.iter().map(|&(name, _)| name).collect();
            eprintln!(
                "bench: {e}\nusage: bench figures [all | ID...] [--list]\n       \
                 bench <{}> [--quick] [--out PATH]",
                suites.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match cmd {
        Cmd::List => ALL_EXPERIMENTS.iter().for_each(|id| println!("{id}")),
        Cmd::Figures(ids) => {
            for id in ids {
                let t0 = Instant::now();
                println!("{}", run(id).expect("ids are validated"));
                eprintln!("[{id} took {:.1}s]", t0.elapsed().as_secs_f64());
            }
        }
        Cmd::Suite {
            name,
            run,
            quick,
            out,
        } => {
            let report = match run(quick) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&out, &report.artifact) {
                eprintln!("{name}: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("{} -> {out}", report.summary);
        }
    }
    ExitCode::SUCCESS
}
