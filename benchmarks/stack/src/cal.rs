//! Reference-speed time.
//!
//! The container's two vCPUs are shared: the same pure ALU loop takes
//! 0.093–0.148 s from one iteration to the next, so raw wall time of a
//! CPU-bound pass spreads over ~24 % between identical runs. The harness
//! therefore interleaves a fixed calibration kernel, [`cal`], with the work
//! it times and reports every interval multiplied by
//! `CAL_REF_S / mean(bracketing cal() durations)`: the time the interval
//! would have taken at the speed at which `cal()` takes [`CAL_REF_S`].

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// `cal()`'s minimum over 1 000 calls on the reference container
/// (`stackbench --calibrate`). Changing it rescales every reference-speed
/// metric, so it changes only in a `benchmark` PR (README, "Frozen").
pub const CAL_REF_S: f64 = 0.001_000;

/// Op time after which the kernel runs again.
const RECAL_AFTER_S: f64 = 0.020;
/// Ops after which the kernel runs again, however short they were.
const RECAL_AFTER_OPS: usize = 2_000;

const XORSHIFT_STEPS: u32 = 300_000;
const CHASE_STEPS: u32 = 200_000;
/// 32 Ki `u32` = 128 KiB: L2-resident, so the kernel does not evict the
/// workload's own working set.
const CHASE_SLOTS: usize = 32 * 1024;

/// One cycle through all slots (Sattolo's algorithm, fixed seed), so the
/// chase cannot fall into a short loop the prefetcher learns.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE_SLOTS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            table.swap(i, (state % i as u64) as usize);
        }
        table
    })
}

/// The calibration kernel: a dependent ALU chain plus a dependent load
/// chain, ≈1 ms. Returns its own duration in seconds.
pub fn cal() -> f64 {
    let table = chase_table();
    // Untimed: pull the table back into cache. A workload that has just
    // swept hundreds of megabytes would otherwise be charged the table's
    // 2 048 cold lines (a fifth of the kernel) as if the CPU were slower.
    black_box(table.iter().step_by(16).fold(0u32, |acc, &slot| acc ^ slot));
    let start = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..XORSHIFT_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let mut at = (black_box(x) % CHASE_SLOTS as u64) as u32;
    for _ in 0..CHASE_STEPS {
        at = table[at as usize];
    }
    black_box(at);
    start.elapsed().as_secs_f64()
}

/// Converts raw durations to reference speed given the `cal()` durations
/// that bracket them.
pub fn factor(cal_before: f64, cal_after: f64) -> f64 {
    CAL_REF_S / ((cal_before + cal_after) / 2.0)
}

/// Times one long interval (a set-up, a build) bracketed by `cal()` on
/// both sides. Returns the closure's value, the raw seconds and the
/// reference-speed seconds.
pub fn time_bracketed<T>(f: impl FnOnce() -> T) -> (T, Scaled) {
    let before = cal();
    let start = Instant::now();
    let value = f();
    let raw = start.elapsed().as_secs_f64();
    let after = cal();
    let factor = factor(before, after);
    (value, Scaled { raw, reference: raw * factor, factor })
}

/// One interval in both clocks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scaled {
    pub raw: f64,
    pub reference: f64,
    pub factor: f64,
}

/// Collects the op durations of one pass and rescales them segment by
/// segment: `cal()` runs when the pass begins, again whenever
/// [`RECAL_AFTER_S`] of op time or [`RECAL_AFTER_OPS`] ops have accumulated
/// (so an op longer than the threshold is bracketed on both sides), and
/// when the pass ends.
pub struct PassClock {
    run_cal: fn() -> f64,
    /// `cals[s]` opens segment `s`, `cals[s + 1]` closes it.
    cals: Vec<f64>,
    /// `(segment, raw seconds)` per op, in op order.
    ops: Vec<(usize, f64)>,
    pending_s: f64,
    pending_ops: usize,
}

impl PassClock {
    pub fn begin() -> Self {
        Self::begin_with(cal)
    }

    /// A clock over a caller-supplied kernel (the unit tests feed a
    /// synthetic `cal()` series through this).
    pub fn begin_with(run_cal: fn() -> f64) -> Self {
        Self { run_cal, cals: vec![run_cal()], ops: Vec::new(), pending_s: 0.0, pending_ops: 0 }
    }

    /// Records one op's raw duration.
    pub fn record(&mut self, raw_s: f64) {
        self.ops.push((self.cals.len() - 1, raw_s));
        self.pending_s += raw_s;
        self.pending_ops += 1;
        if self.pending_s >= RECAL_AFTER_S || self.pending_ops >= RECAL_AFTER_OPS {
            self.close_segment();
        }
    }

    fn close_segment(&mut self) {
        self.cals.push((self.run_cal)());
        self.pending_s = 0.0;
        self.pending_ops = 0;
    }

    /// Ends the pass. Op `i` of the result is op `i` as recorded; the
    /// second value is the time the pass spent inside the kernel itself.
    pub fn finish(mut self) -> (Vec<Scaled>, f64) {
        if self.pending_ops > 0 || self.cals.len() == 1 {
            self.close_segment();
        }
        let ops = self
            .ops
            .iter()
            .map(|&(seg, raw)| {
                let factor = factor(self.cals[seg], self.cals[seg + 1]);
                Scaled { raw, reference: raw * factor, factor }
            })
            .collect();
        (ops, self.cals.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static SERIES: Cell<usize> = const { Cell::new(0) };
    }

    /// A machine that runs at reference speed for the first two kernels and
    /// at half speed from the third on.
    fn synthetic_cal() -> f64 {
        let n = SERIES.with(|s| s.replace(s.get() + 1));
        if n < 2 {
            CAL_REF_S
        } else {
            2.0 * CAL_REF_S
        }
    }

    #[test]
    fn reference_speed_scaling_follows_the_bracketing_kernels() {
        SERIES.with(|s| s.set(0));
        let mut clock = PassClock::begin_with(synthetic_cal);
        // Segment 0 (cal 0 and 1, both at reference speed): one long op.
        clock.record(0.030);
        // Segment 1 (cal 1 at 1x, cal 2 at 2x -> mean 1.5x): two short ops
        // then a long one that closes it.
        clock.record(0.001);
        clock.record(0.002);
        clock.record(0.025);
        // Segment 2 (cal 2 and 3, both at 2x): left open, closed by finish.
        clock.record(0.004);
        let (ops, cal_s) = clock.finish();
        assert_eq!(ops.len(), 5);
        assert!((cal_s - 6.0 * CAL_REF_S).abs() < 1e-12, "kernels at 1x, 1x, 2x, 2x");
        assert!((ops[0].reference - 0.030).abs() < 1e-12);
        assert!((ops[1].reference - 0.001 / 1.5).abs() < 1e-12);
        assert!((ops[2].factor - 1.0 / 1.5).abs() < 1e-12);
        assert!((ops[3].reference - 0.025 / 1.5).abs() < 1e-12);
        assert!((ops[4].reference - 0.002).abs() < 1e-12, "half speed halves the time");
        assert_eq!(ops[4].raw, 0.004, "the raw clock is kept");
    }

    #[test]
    fn many_short_ops_recalibrate_by_count() {
        SERIES.with(|s| s.set(0));
        let mut clock = PassClock::begin_with(synthetic_cal);
        for _ in 0..RECAL_AFTER_OPS + 1 {
            clock.record(1e-7);
        }
        let (ops, _) = clock.finish();
        assert_eq!(ops[0].factor, 1.0, "first segment: both kernels at reference speed");
        assert!(
            ops[RECAL_AFTER_OPS].factor < 1.0,
            "the op after the count threshold is in a new one"
        );
    }

    #[test]
    fn the_kernel_takes_about_a_millisecond() {
        let best = (0..20).map(|_| cal()).fold(f64::INFINITY, f64::min);
        assert!(best > 1e-4 && best < 2e-2, "cal() took {best} s");
    }

    #[test]
    fn the_chase_table_is_one_cycle() {
        let table = chase_table();
        let mut at = 0u32;
        for step in 1..=CHASE_SLOTS {
            at = table[at as usize];
            assert_eq!(at == 0, step == CHASE_SLOTS, "returned to the start after {step} steps");
        }
    }
}
