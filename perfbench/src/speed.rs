//! The machine's speed during a run, from a fixed calibration pass.
//!
//! The reference box is a shared two-vCPU virtual machine whose speed
//! drifts with its neighbours' load: over minutes, identical work ran 15–25%
//! slower or faster, sustained across whole 30-second runs (the pure-compute
//! `setup_s` of ten consecutive runs spread as much as the rates did). No
//! statistic taken inside one run can remove that, so every timed window is
//! preceded by one pass of a fixed kernel that shares no code with the
//! repository (about 16 ms), and each run expresses its times in
//! reference-box seconds: measured time divided by how much slower than the
//! reference the kernel ran, in the median over the run's passes. A change
//! to the program leaves the kernel's time alone, so it shows in full; a
//! slower neighbourhood slows both, and cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Seconds one calibration pass takes on the reference box, in the median,
/// when its neighbours are quiet. Only a scale: it makes the reported rates
/// read close to raw wall-clock rates on that box.
const REFERENCE_PASS_S: f64 = 0.016;

/// One pass: ordered-map inserts, iteration and a sort over pseudo-random
/// keys, the allocation- and cache-bound mix the solvers' routers, stores
/// and session tables exercise.
fn pass() -> u64 {
    let mut key = 0x5eed_ca1b_u64;
    let mut map = BTreeMap::new();
    for i in 0..80_000u64 {
        key ^= key << 13;
        key ^= key >> 7;
        key ^= key << 17;
        map.insert(key, i);
    }
    let mut keys: Vec<u64> = map.keys().map(|k| k.rotate_left(17)).collect();
    keys.sort_unstable();
    map.values().sum::<u64>() ^ keys[keys.len() / 2]
}

/// Calibration passes of one run.
#[derive(Debug, Default)]
pub struct Speed {
    passes_s: Vec<f64>,
}

impl Speed {
    /// Times one calibration pass; call right before each timed window.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(pass());
        self.passes_s.push(t.elapsed().as_secs_f64());
    }

    /// How many times slower than the reference box this run's machine
    /// was: its median pass time over the reference pass time.
    pub fn slowdown(&self) -> f64 {
        median(&self.passes_s) / REFERENCE_PASS_S
    }
}
