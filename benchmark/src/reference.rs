//! The host-speed reference: a fixed kernel of the benchmark's own, timed
//! in the idle gaps of a run on the CPU the server runs on.
//!
//! The reference box is a guest on a shared host, and how fast it runs
//! memory-bound code changes by 1.4 to 1.5 times from one stretch of seconds
//! or minutes to the next (a pure-register loop does not move). Every time a
//! run reports is therefore scaled by `NOMINAL_MS / reference`, the
//! reference being what the kernel read just before and just after that
//! time was taken: it reads as the time the box would have taken at its
//! nominal speed. The kernel touches no product code, so a change to the
//! product moves a scaled time exactly as much as it moves the raw one. Both
//! are printed; the raw one is what a user of this box waited.

use std::time::Instant;

/// Rows of the reference table: 4.5 MB, more than a core's private cache,
/// as the tables the server scans are.
const ROWS: usize = 1 << 19;

/// What one pass takes on the reference box in its fast state, between
/// requests of a pinned run. The scale's unit, nothing more.
pub const NOMINAL_MS: f64 = 1.0;

/// A column of group keys and a column of values, filled once.
pub struct Reference {
    keys: Vec<u8>,
    values: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut rng = crate::workload::Rng::new(0x5EED_5CA1E);
        let keys = (0..ROWS).map(|_| rng.below(56) as u8).collect();
        let values = (0..ROWS).map(|_| rng.below(1_000) as f64).collect();
        Self { keys, values }
    }

    /// One filtered group-by pass over the table, the shape of the server's
    /// fused scan.
    fn pass(&self) {
        let mut sums = [0.0f64; 64];
        for (key, value) in self.keys.iter().zip(&self.values) {
            if *value >= 100.0 {
                sums[usize::from(*key) & 63] += value;
            }
        }
        std::hint::black_box(sums);
    }

    /// Milliseconds one pass takes, timed right after an untimed one so
    /// that it finds the caches the same whatever ran before.
    pub fn pass_ms(&self) -> f64 {
        self.pass();
        let began = Instant::now();
        self.pass();
        began.elapsed().as_secs_f64() * 1e3
    }
}

/// One reading of the reference: when it was taken, in seconds on the load
/// generator's clock, and the milliseconds a pass took.
pub type Reading = (f64, f64);

/// The factor that takes a time measured at `at` to the box's nominal
/// speed, from the readings (in time order) just before and just after it;
/// 1 without readings. The host changes speed from one second to the next,
/// so a time is scaled by what the reference read then, not by what it read
/// over the run.
pub fn scale_at(readings: &[Reading], at: f64) -> f64 {
    let after = readings.partition_point(|r| r.0 < at);
    let near: Vec<f64> = [after.checked_sub(1), Some(after)]
        .into_iter()
        .flatten()
        .filter_map(|i| readings.get(i))
        .map(|r| r.1)
        .collect();
    match near.len() {
        0 => 1.0,
        n => NOMINAL_MS * n as f64 / near.iter().sum::<f64>(),
    }
}

/// The factor for a total accumulated evenly over the time the readings
/// span (CPU seconds of a phase): from their mean.
pub fn scale_over(readings: &[Reading]) -> f64 {
    match readings.len() {
        0 => 1.0,
        n => NOMINAL_MS * n as f64 / readings.iter().map(|r| r.1).sum::<f64>(),
    }
}
