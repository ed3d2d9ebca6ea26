//! Virtual time and execution fuel.
//!
//! Every interpreter step advances the virtual clock by a fixed
//! per-step cost, multiplied by the number of active CPU hogs (the
//! `$HOG` fault model injects hog threads that starve the program, as
//! in the paper's §V-C campaign). The sandbox sets a virtual deadline;
//! exceeding it — or exhausting the step budget — is reported as the
//! *timeout* failure mode.

use std::cell::Cell;
use std::rc::Rc;

/// Seconds of virtual time consumed by one interpreter step with no
/// hogs active.
pub const STEP_COST_SECS: f64 = 2e-6;

/// A shareable virtual clock.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    now: Rc<Cell<f64>>,
}

impl VirtualClock {
    /// Creates a clock at t=0.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now.get()
    }

    /// Advances the clock.
    pub fn advance(&self, secs: f64) {
        self.now.set(self.now.get() + secs.max(0.0));
    }

    /// Advances by `steps` increments of `secs` each, accumulating
    /// exactly like `steps` sequential [`VirtualClock::advance`] calls
    /// — timestamps must not depend on how tick batches were sliced,
    /// and a single `steps * secs` multiply would round differently.
    ///
    /// Settled in closed form: inside one binade every addition moves
    /// `now` by the same whole number of ulps (`secs` rounded to the
    /// ulp), so a run of them is one integer add on the significand.
    /// A binade crossing, an exact rounding tie (whose direction
    /// depends on the significand's parity) and a `now` that is not a
    /// positive normal at least `secs` take one real `+=` instead.
    pub fn advance_steps(&self, steps: u64, secs: f64) {
        self.now.set(advance_exact(self.now.get(), steps, secs.max(0.0)));
    }

    /// Sets the clock to an absolute time (used when resuming a target
    /// across workload rounds).
    pub fn set(&self, secs: f64) {
        self.now.set(secs);
    }
}

/// `now` plus `steps` sequential additions of `secs` (≥ 0), bit for
/// bit, in O(binades crossed) instead of O(steps).
fn advance_exact(mut now: f64, mut steps: u64, secs: f64) -> f64 {
    while steps > 0 {
        if let Some((delta, room)) = binade_run(now, secs) {
            if delta == 0 {
                // Every addition rounds back to `now`.
                break;
            }
            if room > 0 {
                let run = room.min(steps);
                now = f64::from_bits(now.to_bits() + run * delta);
                steps -= run;
                continue;
            }
        }
        let next = now + secs;
        if next.to_bits() == now.to_bits() {
            // A fixed point (infinity, NaN): every later addition too.
            break;
        }
        now = next;
        steps -= 1;
    }
    now
}

/// For a positive normal `now` ≥ `secs`: the ulps one addition of
/// `secs` moves `now` by, and how many such additions stay inside
/// `now`'s binade. `None` for any other `now`, and on an exact
/// rounding tie, whose direction depends on the significand's parity.
fn binade_run(now: f64, secs: f64) -> Option<(u64, u64)> {
    const MANTISSA_BITS: u64 = 52;
    const HIDDEN_BIT: u64 = 1 << MANTISSA_BITS;
    if !(now.is_normal() && now > 0.0 && now >= secs) {
        return None;
    }
    let bits = now.to_bits();
    let exponent = bits >> MANTISSA_BITS;
    let significand = (bits & (HIDDEN_BIT - 1)) | HIDDEN_BIT;
    // The ulp, 2^(exponent − 1075), is a power of two and `secs <= now`,
    // so `secs / ulp` is exact and below 2^53, where `fract` is exact.
    let ulp = if exponent > MANTISSA_BITS {
        f64::from_bits((exponent - MANTISSA_BITS) << MANTISSA_BITS)
    } else {
        f64::from_bits(1 << (exponent - 1))
    };
    let in_ulps = secs / ulp;
    if in_ulps.fract() == 0.5 {
        return None;
    }
    let delta = in_ulps.round() as u64;
    let room = (2 * HIDDEN_BIT - 1 - significand).checked_div(delta);
    Some((delta, room.unwrap_or(0)))
}

/// Step budget and hog accounting.
#[derive(Clone, Debug)]
pub struct Fuel {
    remaining: Rc<Cell<u64>>,
    hogs: Rc<Cell<u32>>,
}

impl Default for Fuel {
    fn default() -> Self {
        Fuel::new(u64::MAX)
    }
}

impl Fuel {
    /// Creates a budget of `steps` interpreter steps.
    pub fn new(steps: u64) -> Fuel {
        Fuel {
            remaining: Rc::new(Cell::new(steps)),
            hogs: Rc::new(Cell::new(0)),
        }
    }

    /// Remaining steps.
    pub fn remaining(&self) -> u64 {
        self.remaining.get()
    }

    /// Resets the budget.
    pub fn refill(&self, steps: u64) {
        self.remaining.set(steps);
    }

    /// Consumes one step; returns `false` when exhausted.
    /// Active hogs consume extra budget per step (starvation), capped
    /// so that even heavily-hogged runs terminate by deadline rather
    /// than by instant fuel exhaustion.
    #[must_use]
    pub fn tick(&self) -> bool {
        self.consume(1)
    }

    /// Consumes `steps` steps at once; returns `false` (and zeroes the
    /// budget) when the batch contains the exhausting step. Equivalent
    /// to `steps` sequential [`Fuel::tick`] calls: the n-th tick fails
    /// iff `remaining < n * cost`.
    #[must_use]
    pub fn consume(&self, steps: u64) -> bool {
        let total = steps.saturating_mul(self.step_cost());
        let r = self.remaining.get();
        if r < total {
            self.remaining.set(0);
            false
        } else {
            self.remaining.set(r - total);
            true
        }
    }

    /// Budget cost of one step under the current hog load.
    pub fn step_cost(&self) -> u64 {
        1 + 4 * self.hogs.get().min(8) as u64
    }

    /// The 1-based index of the step at which the budget would exhaust
    /// if ticking continued from here (the first step where
    /// `remaining < cost`). Saturates instead of overflowing for the
    /// unlimited default budget.
    pub fn steps_until_exhaustion(&self) -> u64 {
        (self.remaining.get() / self.step_cost()).saturating_add(1)
    }

    /// Number of active CPU hogs.
    pub fn hogs(&self) -> u32 {
        self.hogs.get()
    }

    /// Registers a CPU hog thread (never unregisters — the paper's
    /// stale threads persist until the container is torn down).
    pub fn add_hog(&self) {
        self.hogs.set(self.hogs.get().saturating_add(1));
    }

    /// Clears hogs (container teardown).
    pub fn clear_hogs(&self) {
        self.hogs.set(0);
    }

    /// Virtual-time cost of one step with the current hog load
    /// (capped like [`Fuel::tick`]).
    pub fn step_cost_secs(&self) -> f64 {
        STEP_COST_SECS * (1.0 + 4.0 * self.hogs.get().min(8) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let c = VirtualClock::new();
        c.advance(1.5);
        c.advance(-3.0); // negative advances are clamped
        assert_eq!(c.now(), 1.5);
    }

    fn sequential(mut now: f64, steps: u64, secs: f64) -> f64 {
        for _ in 0..steps {
            now += secs;
        }
        now
    }

    fn assert_closed_form(now: f64, steps: u64, secs: f64) {
        let c = VirtualClock::new();
        c.set(now);
        c.advance_steps(steps, secs);
        let want = sequential(now, steps, secs);
        assert_eq!(
            c.now().to_bits(),
            want.to_bits(),
            "now={now:e} ({:#x}) steps={steps} secs={secs:e}: {} vs {want}",
            now.to_bits(),
            c.now()
        );
    }

    #[test]
    fn advance_steps_matches_the_sequential_loop_bit_for_bit() {
        let hog_costs: Vec<f64> = (0..=8u32)
            .map(|h| STEP_COST_SECS * (1.0 + 4.0 * h as f64))
            .collect();
        let mut starts = vec![
            0.0,
            5e-324,
            1e-300,
            1e-9,
            STEP_COST_SECS,
            0.1,
            1.0,
            3.0,
            1e6,
            1e15,
            1e300,
        ];
        // Binade edges: the edge itself, just above, and just below.
        for k in [-20i32, -8, -1, 0, 1, 3, 10] {
            let edge = 2f64.powi(k).to_bits();
            starts.extend([edge, edge + 1, edge - 1, edge - 1000].map(f64::from_bits));
        }
        // splitmix64: random starts spread over many binades.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..64 {
            let mantissa = next() >> 12;
            let exponent = 1003 + next() % 40; // ≈ 2^-20 … 2^19
            starts.push(f64::from_bits((exponent << 52) | mantissa));
        }
        for &secs in &hog_costs {
            for &now in &starts {
                for steps in [0u64, 1, 2, 63, 64, 1000, 65_537] {
                    assert_closed_form(now, steps, secs);
                }
            }
        }
        // A whole round's fuel, across several binade crossings.
        for &secs in &[hog_costs[0], hog_costs[8]] {
            for now in [0.0, 0.75, 1.999_999] {
                assert_closed_form(now, 10_000_000, secs);
            }
        }
    }

    #[test]
    fn advance_steps_takes_the_real_addition_on_a_tie() {
        let ulp_of_one = f64::EPSILON;
        // Half an ulp: every addition ties and rounds back to even.
        assert_closed_form(1.0, 1000, ulp_of_one / 2.0);
        assert_closed_form(f64::from_bits(1.0f64.to_bits() + 1), 1000, ulp_of_one / 2.0);
        // One and a half ulps: ties that alternate with the parity.
        assert_closed_form(1.0, 1000, 1.5 * ulp_of_one);
        assert_closed_form(f64::from_bits(1.0f64.to_bits() + 1), 1001, 1.5 * ulp_of_one);
        // Non-finite and zero-cost clocks stay where they are.
        assert_closed_form(f64::INFINITY, 1000, STEP_COST_SECS);
        assert_closed_form(1.0, 1000, 0.0);
        assert_closed_form(-1e-5, 1000, STEP_COST_SECS);
    }

    #[test]
    fn fuel_exhausts() {
        let f = Fuel::new(2);
        assert!(f.tick());
        assert!(f.tick());
        assert!(!f.tick());
        assert_eq!(f.remaining(), 0);
    }

    #[test]
    fn hogs_multiply_step_cost() {
        let f = Fuel::new(100);
        let base = f.step_cost_secs();
        f.add_hog();
        assert!(f.step_cost_secs() > 4.0 * base);
        assert!(f.tick());
        assert_eq!(f.remaining(), 95); // 1 + 4*1 consumed
    }

    #[test]
    fn clones_share_state() {
        let f = Fuel::new(10);
        let g = f.clone();
        assert!(f.tick());
        assert_eq!(g.remaining(), 9);
    }

    #[test]
    fn batched_consume_matches_sequential_ticks() {
        // The n-th tick fails iff remaining < n * cost; consume(n) must
        // agree exactly, including zeroing the budget on failure.
        for budget in [0u64, 1, 4, 5, 9, 10, 11] {
            for n in 1u64..=12 {
                let seq = Fuel::new(budget);
                let mut seq_ok = true;
                for _ in 0..n {
                    if !seq.tick() {
                        seq_ok = false;
                        break;
                    }
                }
                let batch = Fuel::new(budget);
                assert_eq!(batch.consume(n), seq_ok, "budget={budget} n={n}");
                assert_eq!(batch.remaining(), seq.remaining(), "budget={budget} n={n}");
            }
        }
    }

    #[test]
    fn exhaustion_step_prediction() {
        let f = Fuel::new(10);
        assert_eq!(f.steps_until_exhaustion(), 11);
        assert!(f.consume(10));
        assert_eq!(f.steps_until_exhaustion(), 1);
        assert!(!f.consume(1));

        let hogged = Fuel::new(10);
        hogged.add_hog(); // cost 5 per step
        assert_eq!(hogged.steps_until_exhaustion(), 3);
        assert!(hogged.consume(2));
        assert!(!hogged.consume(1));

        // Unlimited budget must not overflow.
        assert_eq!(Fuel::default().steps_until_exhaustion(), u64::MAX);
    }
}
