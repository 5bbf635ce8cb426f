//! End-to-end benchmark of sensorlog deployments.
//!
//! ```text
//! e2ebench --workload <sptree|churn|centroid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run deploys the workload once under each of a batch of seeds derived
//! from `--seed`. `--trace 0` then runs the deployments again in turn
//! while another run fits in `--seconds`, through the public `Deployment`
//! API with every observer off, and prints the end-to-end metrics: medians
//! over the timed runs or the batch, with times scaled to the host's usual
//! speed (see [`host`]). `--trace 1` repeats passes over the batch instead.
//! In each, it runs every deployment untraced, then traced (see [`traced`]),
//! and the first few also with the telemetry and provenance planes on, and
//! prints the per-layer metrics. Both modes check the outputs outside the
//! timed region and print one JSON object as the last line of standard
//! output. See README.md beside this crate for the workloads and the
//! metric map.

mod check;
mod host;
mod traced;
mod workloads;

use check::{counters, verify, Counters, Resolves, Verdict};
use host::Gauges;
use sensorlog_core::prov::Provenance;
use sensorlog_core::Deployment;
use sensorlog_core::{compile_source, DeployConfig};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::intern::resolve_counts;
use sensorlog_telemetry::Telemetry;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use traced::{Clock, Layer, TracedDeployment};
use workloads::Workload;

/// Set-up samples taken after each deployment's first run.
const SETUP_SAMPLES: usize = 40;
const COMPILE_SAMPLES: usize = 40;
/// Deployments of the batch also run with each observer plane on.
const OBSERVED: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|e| format!("bad {name}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Index of the median element (lower median for even counts).
fn median_index(xs: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx[(xs.len() - 1) / 2]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Reset the process high-water RSS to the current RSS, so that the next
/// [`peak_rss_mb`] reads the peak of what runs in between. Best effort:
/// where the kernel refuses, the reading stays the process peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hand memory the allocator holds but no longer uses back to the kernel,
/// so that the checks of one deployment and the host gauge do not raise
/// the resident set the next deployment starts from.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
        // free heap pages to the kernel; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// High-water resident set size (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What must repeat exactly between runs of one seed.
type Work = (Counters, Resolves);

/// One untraced run of one deployment.
struct Run {
    wall_s: f64,
    /// Peak RSS while this deployment was built and run.
    rss_mb: f64,
    work: Work,
}

/// Build and run one deployment; return it for the checks, which the
/// caller makes after the timed region.
fn run_untraced(w: &Workload, cfg: DeployConfig) -> (Run, Deployment) {
    release_free_memory();
    reset_peak_rss();
    let mut d = w.deploy(cfg);
    d.schedule_all(w.events.iter().cloned());
    let before = resolve_counts();
    let t0 = Instant::now();
    d.run(w.horizon);
    let wall_s = t0.elapsed().as_secs_f64();
    let resolves = Resolves::since(before);
    let rss_mb = peak_rss_mb();
    let run = Run {
        wall_s,
        rss_mb,
        work: (counters(&d.sim, |n| n, w.output), resolves),
    };
    (run, d)
}

fn run_traced(w: &Workload) -> (f64, Clock, Work) {
    let mut td = TracedDeployment::new(w);
    let before = resolve_counts();
    let t0 = Instant::now();
    td.run(&w.events, w.horizon);
    let wall_s = t0.elapsed().as_secs_f64();
    let resolves = Resolves::since(before);
    let work = (counters(&td.sim, |t| &t.node, w.output), resolves);
    (wall_s, td.clock(), work)
}

/// Repeat `pass` at least once, and again while another pass of the same
/// length still fits in `seconds`.
fn passes(seconds: f64, mut pass: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let t0 = Instant::now();
        pass(n);
        n += 1;
        let left = seconds - start.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() > left {
            return n;
        }
    }
}

/// Mean of a counter over the batch.
fn mean(work: &[Work], f: impl Fn(&Counters) -> u64) -> f64 {
    work.iter().map(|(c, _)| f(c) as f64).sum::<f64>() / work.len() as f64
}

/// A metric line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    verdict: Verdict,
    /// Reasons the run is not correct beyond the verdict.
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

/// Compare a run's work with the first run of the same deployment.
fn repeat_check(errors: &mut Vec<String>, what: &str, first: &Work, again: &Work) {
    if first != again {
        errors.push(format!("{what} diverged: {again:?} vs {first:?}"));
    }
}

fn end_to_end(ws: &[Workload], seconds: f64) -> Outcome {
    for w in ws {
        drop(w.deploy(w.cfg.clone())); // warm the intern pool and allocator
    }
    // Host-gauge readings; every timed stretch lies between two of them
    // and is scaled by the factor they give (see [`host`]).
    let mut gauges = Gauges::start();
    // Set-up samples are spread over the run, a burst after each
    // deployment's checks.
    let mut setup = Vec::new();
    let mut verdict = Verdict::default();
    let mut errors = Vec::new();
    let mut work: Vec<Work> = Vec::new();
    // Per deployment: accuracy and peak RSS (first run), and every timed
    // run's scaled wall time and event rate.
    let (mut accuracy, mut rss) = (Vec::new(), Vec::new());
    let (mut walls, mut raw, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed = |r: &Run, scale: f64| {
        walls.push(r.wall_s * scale);
        raw.push(r.wall_s);
        rates.push(r.work.0.events as f64 / (r.wall_s * scale));
        median(&raw)
    };
    let start = Instant::now();
    // First every deployment once, checked right after its run.
    for w in ws {
        let (r, d) = run_untraced(w, w.cfg.clone());
        timed(&r, gauges.next());
        rss.push(r.rss_mb);
        let v = verify(w, &d);
        accuracy.push(v.accuracy());
        verdict.merge(v);
        work.push(r.work);
        drop(d);
        let burst: Vec<f64> = (0..SETUP_SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                let d = w.deploy(w.cfg.clone());
                let s = t0.elapsed().as_secs_f64();
                drop(d);
                s
            })
            .collect();
        let scale = gauges.next();
        setup.extend(burst.iter().map(|s| s * scale));
    }
    // Then the deployments again in turn, at least one, while another
    // run still fits in `seconds`. Each must repeat its first run's work.
    let mut typical = f64::INFINITY;
    for i in (0..ws.len()).cycle() {
        if typical.is_finite() && typical > seconds - start.elapsed().as_secs_f64() {
            break;
        }
        let (r, _) = run_untraced(&ws[i], ws[i].cfg.clone());
        typical = timed(&r, gauges.next());
        repeat_check(&mut errors, "repeated run", &work[i], &r.work);
    }
    eprintln!(
        "{}: {} runs of {} deployments; wall median {:.4}s scaled, {:.4}s raw \
         (raw min {:.4}, max {:.4}); gauge median {:.4}s (min {:.4}, max {:.4}); \
         setup median {:.6}s scaled over {} samples",
        ws[0].name,
        raw.len(),
        ws.len(),
        median(&walls),
        median(&raw),
        raw.iter().cloned().fold(f64::INFINITY, f64::min),
        raw.iter().cloned().fold(0.0, f64::max),
        median(&gauges.0),
        gauges.0.iter().cloned().fold(f64::INFINITY, f64::min),
        gauges.0.iter().cloned().fold(0.0, f64::max),
        median(&setup),
        setup.len()
    );
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("  raw walls: {}\n  gauges: {}", list(&raw), list(&gauges.0));
    for (c, r) in &work {
        eprintln!("  {c:?} {r:?}");
    }
    let per = |f: fn(&Counters) -> u64| {
        median(&work.iter().map(|(c, _)| f(c) as f64).collect::<Vec<_>>())
    };
    Outcome {
        metrics: vec![
            ("setup_s", median(&setup), "s"),
            ("wall_s", median(&walls), "s"),
            ("events_per_s", median(&rates), "1/s"),
            ("peak_rss_mb", median(&rss), "MB"),
            ("tx_msgs", per(|c| c.tx_msgs), "msgs"),
            ("tx_bytes", per(|c| c.tx_bytes), "B"),
            ("max_node_msgs", per(|c| c.max_node_msgs), "msgs"),
            ("peak_node_state", per(|c| c.peak_node_state), "items"),
            ("result_accuracy", median(&accuracy), "ratio"),
        ],
        verdict,
        errors,
    }
}

/// One traced pass over the batch.
struct TracedPass {
    /// Summed traced wall time.
    wall_s: f64,
    /// Summed untraced wall time.
    untraced_s: f64,
    clock: Clock,
    /// Median host-gauge scale over the pass (see [`host`]).
    scale: f64,
}

fn per_layer(ws: &[Workload], seconds: f64) -> Outcome {
    let n = ws.len() as f64;
    let mut gauges = Gauges::start();
    let compile: Vec<f64> = (0..COMPILE_SAMPLES)
        .map(|i| {
            let w = &ws[i % ws.len()];
            let t0 = Instant::now();
            let p = compile_source(w.src, BuiltinRegistry::standard(), w.cfg.plan);
            let s = t0.elapsed().as_secs_f64();
            drop(p.expect("benchmark program compiles"));
            s
        })
        .collect();
    let compile_scale = gauges.next();
    let mut verdict = Verdict::default();
    let mut errors = Vec::new();
    let mut work: Vec<Work> = Vec::new();
    let mut traced_passes: Vec<TracedPass> = Vec::new();
    // Summed walls of the observed deployments: untraced, telemetry on,
    // provenance on.
    let mut observed = [0.0f64; 3];
    passes(seconds, |pass| {
        let mut tp = TracedPass {
            wall_s: 0.0,
            untraced_s: 0.0,
            clock: Clock::default(),
            scale: 0.0,
        };
        let mut scales = Vec::new();
        for (i, w) in ws.iter().enumerate() {
            let (u, d) = run_untraced(w, w.cfg.clone());
            if pass == 0 {
                verdict.merge(verify(w, &d));
                work.push(u.work.clone());
            } else {
                repeat_check(&mut errors, "repeated run", &work[i], &u.work);
            }
            drop(d);
            let (wall, clock, traced) = run_traced(w);
            repeat_check(&mut errors, "traced run", &u.work, &traced);
            if clock.total_secs() > wall {
                errors.push(format!(
                    "callback time {}s exceeds traced wall {wall}s",
                    clock.total_secs()
                ));
            }
            tp.wall_s += wall;
            tp.untraced_s += u.wall_s;
            tp.clock.add(&clock);
            if i < OBSERVED {
                observed[0] += u.wall_s;
                for (k, plane, tele, prov) in [
                    (1, "telemetry", Telemetry::enabled(), Provenance::disabled()),
                    (
                        2,
                        "provenance",
                        Telemetry::disabled(),
                        Provenance::enabled(),
                    ),
                ] {
                    let cfg = DeployConfig {
                        telemetry: tele,
                        provenance: prov,
                        ..w.cfg.clone()
                    };
                    let (o, _) = run_untraced(w, cfg);
                    // An observer may resolve interned constants to record
                    // them; the protocol counters must not move.
                    if o.work.0 != u.work.0 {
                        errors.push(format!(
                            "{plane} plane changed the counters: {:?} vs {:?}",
                            o.work.0, u.work.0
                        ));
                    }
                    observed[k] += o.wall_s;
                }
            }
            scales.push(gauges.next());
        }
        tp.scale = median(&scales);
        traced_passes.push(tp);
    });
    let walls: Vec<f64> = traced_passes.iter().map(|t| t.wall_s).collect();
    let t = &traced_passes[median_index(&walls)];
    let clk = &t.clock;
    let netsim_self = t.wall_s - clk.total_secs();
    eprintln!(
        "{}: {} traced passes over {} deployments, traced wall {:.4}s, untraced {:.4}s",
        ws[0].name,
        traced_passes.len(),
        ws.len(),
        t.wall_s,
        t.untraced_s
    );
    let c = |f: fn(&Counters) -> u64| mean(&work, f);
    let res = |f: fn(&Resolves) -> u64| work.iter().map(|(_, r)| f(r) as f64).sum::<f64>() / n;
    let secs = |l: Layer| clk.secs(l) * t.scale / n;
    let calls = |l: Layer| clk.calls(l) as f64 / n;
    let ns_per = |l: Layer| ratio(clk.ns[l as usize] as f64 * t.scale, clk.calls(l) as f64);
    let share = |l: Layer| clk.secs(l) / t.wall_s;
    let metrics = vec![
        ("logic.compile_s", median(&compile) * compile_scale, "s"),
        ("netsim.self_s", netsim_self * t.scale / n, "s"),
        ("netsim.share", netsim_self / t.wall_s, "ratio"),
        ("netsim.events", c(|c| c.events), "count"),
        ("netsim.max_queue_depth", c(|c| c.max_queue_depth), "count"),
        ("netsim.sched_pushes", c(|c| c.sched_pushes), "count"),
        ("netsim.spill_pushes", c(|c| c.spill_pushes), "count"),
        ("core.inject_s", secs(Layer::Inject), "s"),
        ("core.inject.calls", calls(Layer::Inject), "count"),
        ("core.store_s", secs(Layer::Store), "s"),
        ("core.store.msgs", calls(Layer::Store), "count"),
        ("core.probe_s", secs(Layer::Probe), "s"),
        ("core.probe.msgs", calls(Layer::Probe), "count"),
        ("core.probe.ns_per_msg", ns_per(Layer::Probe), "ns"),
        ("core.probe.share", share(Layer::Probe), "ratio"),
        ("core.probe.processed", c(|c| c.probes_processed), "count"),
        (
            "core.probe.yield",
            ratio(c(|c| c.results_emitted), c(|c| c.probes_processed)),
            "ratio",
        ),
        ("core.results_emitted", c(|c| c.results_emitted), "count"),
        ("intern.boundary_resolves", res(|r| r.boundary), "count"),
        ("intern.hot_resolves", res(|r| r.hot), "count"),
        ("eval.index.hits", c(|c| c.index_hits), "count"),
        ("eval.index.scans", c(|c| c.index_scans), "count"),
        ("core.result_s", secs(Layer::Result), "s"),
        ("core.result.msgs", calls(Layer::Result), "count"),
        ("core.timer_s", secs(Layer::Timer), "s"),
        ("core.timer.fires", calls(Layer::Timer), "count"),
        ("core.faults_s", secs(Layer::Faults), "s"),
        ("core.faults.msgs", calls(Layer::Faults), "count"),
        ("core.restart_s", secs(Layer::Restart), "s"),
        ("eval.center_s", secs(Layer::Center), "s"),
        ("eval.center.updates", calls(Layer::Center), "count"),
        ("eval.center.ns_per_update", ns_per(Layer::Center), "ns"),
        ("eval.center.share", share(Layer::Center), "ratio"),
        ("core.forward_s", secs(Layer::Forward), "s"),
        ("core.forward.msgs", calls(Layer::Forward), "count"),
        ("core.peak_replicas", c(|c| c.peak_replicas), "items"),
        ("core.peak_derivations", c(|c| c.peak_derivations), "items"),
        ("trace.overhead", t.wall_s / t.untraced_s, "ratio"),
        ("telemetry.on_ratio", observed[1] / observed[0], "ratio"),
        ("provenance.on_ratio", observed[2] / observed[0], "ratio"),
        ("host.gauge_s", median(&gauges.0), "s"),
    ];
    for (name, v, unit) in &metrics {
        eprintln!("  {name:<28} {v:>16.6} {unit}");
    }
    Outcome {
        verdict,
        errors,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(ws) = workloads::batch(&args.workload, args.seed) else {
        eprintln!(
            "e2ebench: unknown workload `{}` (one of {:?})",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let out = if args.trace {
        per_layer(&ws, args.seconds)
    } else {
        end_to_end(&ws, args.seconds)
    };
    let v = &out.verdict;
    eprintln!(
        "{}: judged {} missing {} spurious {} (gated {}) violations {}",
        args.workload,
        v.judged,
        v.missing,
        v.spurious,
        v.gated,
        v.violations.len()
    );
    for e in v.violations.iter().chain(&out.errors).take(20) {
        eprintln!("  {e}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        v.ok() && out.errors.is_empty(),
        v.attempted(),
        v.failed()
    );
    ExitCode::SUCCESS
}
