//! Shared deterministic PRNG primitives.
//!
//! Every source of pseudo-randomness in the simulator — link-fault
//! schedules, fuzz inputs — goes through this one
//! audited implementation so that a seed fully determines behaviour on
//! every engine, and so checkpoint/restore can freeze and resume a
//! stream mid-sequence by persisting a single `u64` of state.
//!
//! Two classic mixers:
//!
//! * [`splitmix64`] — a stateless finalizer used to derive well-mixed,
//!   independent per-entity seeds from a base seed plus an identity
//!   (e.g. one stream per *(channel, src, dst)* link);
//! * xorshift64\* ([`xorshift64star_step`] / [`xorshift64star_unit`]) —
//!   the per-stream generator. State must be non-zero; seeding forces
//!   the low bit on.

/// The golden-ratio increment used by splitmix64-style sequence seeding.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: bijective avalanche mix of `z`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advance a (non-zero) xorshift64\* state in place and return the mixed
/// output word.
#[inline]
pub fn xorshift64star_step(state: &mut u64) -> u64 {
    debug_assert_ne!(*state, 0, "xorshift64* state must be non-zero");
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Advance the state and return a uniform draw in `[0, 1)` with 53 bits
/// of precision.
#[inline]
pub fn xorshift64star_unit(state: &mut u64) -> f64 {
    (xorshift64star_step(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A self-contained seeded xorshift64\* stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Seeded stream; the low bit is forced on so a zero seed is valid.
    pub fn new(seed: u64) -> Self {
        XorShift64Star { state: seed | 1 }
    }

    /// Next mixed 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        xorshift64star_step(&mut self.state)
    }

    /// Next draw in `0..bound` (rejection-free modulo; fine for fuzzing,
    /// not for cryptography). Only tests call it, to draw the shard codec's
    /// and the checkpoint container's fuzz cases.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_draws_are_in_range_and_deterministic() {
        let (mut a, mut b) = (43u64, 43u64);
        for _ in 0..1000 {
            let u = xorshift64star_unit(&mut a);
            assert!((0.0..1.0).contains(&u));
            assert_eq!(u, xorshift64star_unit(&mut b));
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64Star::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value from the canonical splitmix64 sequence: state 0
        // advanced by one GOLDEN_GAMMA then finalized.
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn streams_with_different_seeds_diverge() {
        let mut a = XorShift64Star::new(splitmix64(GOLDEN_GAMMA));
        let mut b = XorShift64Star::new(splitmix64(GOLDEN_GAMMA.wrapping_mul(2)));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
