//! Geometric random variables for lazy propagation sampling.
//!
//! Lemma 6 of the paper establishes that Bernoulli probing an edge with
//! probability `p` across θ iterations is statistically identical to
//! skipping ahead by i.i.d. geometric gaps: the edge fires at trial numbers
//! `X₁, X₁+X₂, …` with `Xᵢ ~ Geometric(p)` (support `1, 2, …`). Sampling a
//! gap is one `ln` instead of up to `1/p` coin flips — the entire point of
//! §5.1.

use rand::Rng;

/// A geometric gap sentinel meaning "never fires" (`p = 0`).
pub const NEVER: u64 = u64::MAX;

/// `ln(1−p)`, the denominator of the inversion formula. It depends on the
/// edge and the tag set only, so the lazy sampler computes it once per edge
/// and draws every gap of that edge with [`gap`].
///
/// Returns `0.0` for `p ≤ 0` **and** for a positive `p` so small (below
/// about 2⁻⁵⁴) that `1 − p` rounds to 1: in `f64` such an edge cannot be
/// told from a dead one. Returns `−∞` for `p ≥ 1`.
#[inline]
pub fn ln_survival(p: f64) -> f64 {
    if p <= 0.0 {
        0.0
    } else if p >= 1.0 {
        f64::NEG_INFINITY
    } else {
        (1.0 - p).ln()
    }
}

/// Draws `X ~ Geometric(p)` with support `{1, 2, …}` via inversion:
/// `X = ⌈ln(1−U)/ln(1−p)⌉`, `U ~ U[0,1)`, given `ln_q =`
/// [`ln_survival`]`(p)`.
///
/// Returns [`NEVER`] for `ln_q = 0` and 1 for `ln_q = −∞`, in both cases
/// without drawing: dividing by a zero `ln_q` would give `−∞`/`NaN`, which
/// `as u64` turns into a gap of 1 — an impossible edge firing every time.
#[inline]
pub fn gap<R: Rng + ?Sized>(ln_q: f64, rng: &mut R) -> u64 {
    if ln_q == 0.0 {
        return NEVER;
    }
    if ln_q == f64::NEG_INFINITY {
        return 1;
    }
    let u: f64 = rng.gen(); // [0, 1)

    // ln(1-u) ≤ 0 and ln_q < 0; the ratio is ≥ 0 (at most 37 / 1.1e-16, far
    // inside u64). Floor+1 implements the ceiling on the open interval while
    // mapping u = 0 to X = 1; on a non-negative ratio `as u64`'s truncation
    // is the floor, without the call.
    let x = ((1.0 - u).ln() / ln_q) as u64 + 1;
    x.max(1)
}

/// [`gap`] of [`ln_survival`]`(p)`: one draw of `Geometric(p)`.
///
/// Returns [`NEVER`] for `p ≤ 0` (and for `p` too small to fire, see
/// [`ln_survival`]) and 1 for `p ≥ 1`.
#[inline]
pub fn geometric<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    gap(ln_survival(p), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degenerate_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(geometric(0.0, &mut rng), NEVER);
        assert_eq!(geometric(-0.5, &mut rng), NEVER);
        assert_eq!(geometric(1.0, &mut rng), 1);
        assert_eq!(geometric(1.5, &mut rng), 1);
    }

    /// Where `1 − p` rounds to 1, `ln(1−p)` is `0.0`; the quotient used to
    /// be `−∞`/`NaN` and the gap 1, so the edge fired on every activation.
    #[test]
    fn probabilities_below_f64_resolution_never_fire() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut untouched = StdRng::seed_from_u64(5);
        for p in [1e-17, 1e-300, f64::MIN_POSITIVE] {
            assert_eq!(ln_survival(p), 0.0);
            assert_eq!(geometric(p, &mut rng), NEVER, "p = {p}");
        }
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>(), "NEVER draws nothing");
        // The smallest p that f64 can subtract from 1 still fires, rarely.
        let p = f64::EPSILON / 2.0;
        assert!(ln_survival(p) < 0.0);
        assert!(geometric(p, &mut rng) > 1_000_000);
    }

    #[test]
    fn gap_of_cached_ln_survival_is_the_same_draw() {
        let mut a = StdRng::seed_from_u64(6);
        let mut b = StdRng::seed_from_u64(6);
        for &p in &[0.0, 1e-9, 0.01, 0.3f32 as f64, 0.999, 1.0] {
            let ln_q = ln_survival(p);
            for _ in 0..1_000 {
                assert_eq!(gap(ln_q, &mut a), geometric(p, &mut b));
            }
        }
    }

    #[test]
    fn support_starts_at_one() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(geometric(0.9, &mut rng) >= 1);
        }
    }

    #[test]
    fn mean_matches_one_over_p() {
        let mut rng = StdRng::seed_from_u64(3);
        for &p in &[0.1f64, 0.25, 0.5, 0.8] {
            let n = 200_000u64;
            let sum: u64 = (0..n).map(|_| geometric(p, &mut rng)).sum();
            let mean = sum as f64 / n as f64;
            let expected = 1.0 / p;
            assert!((mean - expected).abs() < 0.03 * expected, "p={p}: mean {mean} vs {expected}");
        }
    }

    /// Lemma 6: the number of "heads" in θ Bernoulli(p) trials equals (in
    /// distribution) the largest Y with X₁+…+X_Y ≤ θ for geometric gaps Xᵢ.
    /// We compare empirical means and variances of the two processes.
    #[test]
    fn lemma6_equivalence_moments() {
        let theta = 200u64;
        let p = 0.3f64;
        let reps = 20_000;

        let mut rng = StdRng::seed_from_u64(4);
        let mut bern_mean = 0.0f64;
        let mut bern_sq = 0.0f64;
        for _ in 0..reps {
            let mut heads = 0u64;
            for _ in 0..theta {
                if rng.gen_bool(p) {
                    heads += 1;
                }
            }
            bern_mean += heads as f64;
            bern_sq += (heads * heads) as f64;
        }
        bern_mean /= reps as f64;
        bern_sq /= reps as f64;

        let mut geo_mean = 0.0f64;
        let mut geo_sq = 0.0f64;
        for _ in 0..reps {
            let mut pos = 0u64;
            let mut fires = 0u64;
            loop {
                pos += geometric(p, &mut rng);
                if pos > theta {
                    break;
                }
                fires += 1;
            }
            geo_mean += fires as f64;
            geo_sq += (fires * fires) as f64;
        }
        geo_mean /= reps as f64;
        geo_sq /= reps as f64;

        let expected_mean = theta as f64 * p;
        let expected_var = theta as f64 * p * (1.0 - p);
        for (mean, sq, label) in
            [(bern_mean, bern_sq, "bernoulli"), (geo_mean, geo_sq, "geometric")]
        {
            let var = sq - mean * mean;
            assert!(
                (mean - expected_mean).abs() < 0.02 * expected_mean,
                "{label} mean {mean} vs {expected_mean}"
            );
            assert!(
                (var - expected_var).abs() < 0.08 * expected_var,
                "{label} var {var} vs {expected_var}"
            );
        }
        assert!((bern_mean - geo_mean).abs() < 0.02 * expected_mean);
    }
}
