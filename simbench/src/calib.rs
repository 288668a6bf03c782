//! Host-speed calibration for the end-to-end times.
//!
//! The reference host is shared: its speed drifts between states that
//! differ by up to 1.9× and last from seconds to minutes (no CPU steal is
//! recorded meanwhile), so raw host seconds of the same work spread by
//! 12–38% (interquartile range over median) across ten runs. A fixed
//! kernel, timed right before and after every measured stretch, tracks that
//! drift: over 300 alternations on the chain, the ratio of run time to
//! kernel time spread 2–4× less than the run time alone. End-to-end times
//! are therefore reported in reference-host seconds: raw seconds times
//! [`REFERENCE_KERNEL_S`] over the kernel time measured around them. The
//! kernel calls no simulator code, so a change to the simulator moves the
//! reported time exactly as it moves the raw one.

use std::collections::BTreeMap;

use harness::WallClock;

/// Seconds one kernel run takes on the reference host (2 cores, Intel Xeon
/// Processor, release build): the speed calibrated times are expressed in.
pub const REFERENCE_KERNEL_S: f64 = 0.05;

/// Steps of one kernel run.
const KERNEL_STEPS: u64 = 240_000;
/// Key space of the kernel's map (its working set is a few MB).
const KERNEL_KEYS: u64 = 50_000;

/// Times one run of the kernel: a fixed xorshift stream driving inserts,
/// range lookups and removals on a `BTreeMap` — integer work, branches and
/// pointer chasing over a cache-sized working set, like the simulator's.
pub fn kernel_s() -> f64 {
    let clock = WallClock::start();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0_u64);
    for i in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % KERNEL_KEYS, i);
        if i % 3 == 0 {
            if let Some((&k, _)) = map.range(x % KERNEL_KEYS..).next() {
                map.remove(&k);
                acc = acc.wrapping_add(k);
            }
        }
    }
    std::hint::black_box(acc);
    clock.elapsed_secs()
}

/// Kernel timings bracketing consecutive measured stretches.
#[derive(Debug)]
pub struct Speed {
    last_s: f64,
}

impl Speed {
    /// Calibrates now, opening the first stretch.
    pub fn start() -> Self {
        Speed { last_s: kernel_s() }
    }

    /// Closes the stretch since the previous calibration: calibrates again
    /// and returns the factor that turns the stretch's raw host seconds
    /// into reference-host seconds.
    pub fn factor(&mut self) -> f64 {
        let now_s = kernel_s();
        let factor = REFERENCE_KERNEL_S / ((self.last_s + now_s) / 2.0);
        self.last_s = now_s;
        factor
    }
}
