//! Host-speed gauge. The host is a share of a large machine, and its
//! speed drifts by up to 1.6× over minutes as other tenants load the
//! shared cache. The drift moves a whole run, so medians inside a run
//! cannot remove it. The gauge is a fixed kernel that lives in this crate,
//! not in the program: hash-table inserts and probes over a 32 MiB table
//! and a sort, which run from the shared cache as the program does. It is
//! read before and after each timed stretch, and the stretch is scaled by
//! `(NOMINAL_S / gauge)^ELASTICITY`, so that it reads as the time the run
//! would take on the same host in its usual state.

use std::hint::black_box;
use std::time::Instant;

/// The gauge's median time on the reference host, a 2-core 2.1 GHz
/// x86-64 VM with 4 MiB L2 per core and a shared L3: the median of 420
/// readings taken over 15 benchmark runs.
pub const NOMINAL_S: f64 = 0.108;

/// How far the program's run time moves with the gauge's: the slope of
/// log run time on log gauge time, fitted by least squares within each
/// workload over 50 benchmark runs of the three workloads (0.68; per
/// workload 0.55 for centroid to 0.99 for churn). Scaling one for one
/// over-corrects centroid, whose spread then exceeds its raw spread.
pub const ELASTICITY: f64 = 0.7;

const TABLE: usize = 1 << 22;
const KEYS: u64 = 300_000;
const ROUNDS: usize = 5;

/// Time one run of the gauge kernel, in seconds. Its buffers are
/// allocated and touched before the clock starts, and freed after.
pub fn gauge() -> f64 {
    let mut table = vec![1u64; TABLE];
    let mut sorted = vec![1u64; KEYS as usize];
    let mask = TABLE - 1;
    let mut acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        table.fill(0);
        // Open addressing with linear probing; keys are odd, so 0 is free.
        for i in 1..=KEYS {
            let k = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut h = (k >> 40) as usize & mask;
            while table[h] != 0 {
                h = (h + 1) & mask;
            }
            table[h] = k;
        }
        for i in 1..=2 * KEYS {
            let k = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut h = (k >> 40) as usize & mask;
            while table[h] != 0 && table[h] != k {
                h = (h + 1) & mask;
            }
            acc = acc.wrapping_add(table[h]);
        }
        for (i, e) in sorted.iter_mut().enumerate() {
            *e = (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ acc;
        }
        sorted.sort_unstable();
        acc ^= sorted[sorted.len() / 2];
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(acc);
    secs
}

/// The gauge readings of one run. Each timed stretch lies between two
/// readings and is scaled by the factor [`Gauges::next`] returns.
pub struct Gauges(pub Vec<f64>);

impl Gauges {
    pub fn start() -> Gauges {
        Gauges(vec![gauge()])
    }

    /// Read the gauge again. Returns the factor that scales the stretch
    /// since the previous reading to the host's usual speed: `NOMINAL_S`
    /// over the mean of the two readings, to the power `ELASTICITY`.
    pub fn next(&mut self) -> f64 {
        let a = *self.0.last().expect("started with a reading");
        let b = gauge();
        self.0.push(b);
        (NOMINAL_S / ((a + b) / 2.0)).powf(ELASTICITY)
    }
}
