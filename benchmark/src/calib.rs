//! Host-speed calibration: a fixed reference workload, owned by the
//! benchmark, timed next to every pass so that host time can be reported at
//! a reference host speed.
//!
//! The measuring host is shared. Other tenants slow the whole memory system
//! for tens of seconds at a time, which no statistic over one run removes
//! when a run sits inside one slow period. The reference work is ordered-map
//! churn with the program's access pattern (random keys, heap nodes freed and
//! allocated, successor lookups), so it slows down with the program. Its code
//! never changes with the program's, so a faster program still reads faster.

use crate::alloc;
use crate::probe::now;
use crate::workload::splitmix64;
use std::collections::BTreeMap;

/// Key space of the reference map; about half of it is occupied.
const KEYS: u64 = 1 << 19;

/// Map operations per sample: about 0.2 s on the 2-vCPU measuring VM.
const OPS: u64 = 400_000;

/// Samples run before the first timed one, to fill the map.
const WARM_SAMPLES: usize = 4;

/// The reference speed: host time is reported as if one sample took this
/// long, about what it takes on the measuring VM when the host is quiet.
pub const REFERENCE_S: f64 = 0.2;

/// The reference workload and its state. Its heap is kept out of the
/// benchmark's heap accounting, which measures the program alone.
pub struct Calibrator {
    map: BTreeMap<u64, u64>,
    step: u64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            map: BTreeMap::new(),
            step: 0,
        };
        for _ in 0..WARM_SAMPLES {
            c.sample();
        }
        c
    }

    /// Host seconds of one sample of the reference work.
    pub fn sample(&mut self) -> f64 {
        alloc::untracked(|| {
            let start = now();
            let mut acc = 0u64;
            for _ in 0..OPS {
                self.step += 1;
                let k = splitmix64(self.step) % KEYS;
                if self.map.remove(&k).is_none() {
                    self.map.insert(k, self.step);
                }
                if let Some((&n, &v)) = self.map.range(k..).next() {
                    acc = acc.wrapping_add(n ^ v);
                }
            }
            std::hint::black_box(acc);
            start.elapsed().as_secs_f64()
        })
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        let map = std::mem::take(&mut self.map);
        alloc::untracked(|| drop(map));
    }
}
