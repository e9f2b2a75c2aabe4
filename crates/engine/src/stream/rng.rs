//! The per-group counter-based generator of the streaming subsystem.
//!
//! Every live personal group draws from its **own** RNG stream, derived
//! deterministically from the stream seed and the group key. Two
//! properties make this the right shape for a durable stream:
//!
//! * **Interleaving-independence** — a group's draws depend only on how
//!   many events *that group* has processed, never on how inserts to
//!   different groups interleave. Replaying a WAL therefore reproduces
//!   every group's stream exactly even though wall-clock arrival order
//!   at the server may differ from the log order of unrelated groups.
//! * **O(1) snapshot/restore** — the generator is counter-based
//!   (SplitMix64): its *entire* state is one `u64`, which a snapshot
//!   artifact records as the group's RNG cursor
//!   ([`crate::publication::GroupState::rng_state`]) and restore
//!   reloads verbatim. No replaying of draws, no opaque state blobs.
//!
//! The generator implements the vendored `rand::RngCore`, so the
//! existing `rp-core` primitives (`perturb_code`, `LiveGroup::republish`,
//! `sample_binomial`, ...) consume it unchanged.

use rand::RngCore;

/// SplitMix64's additive constant (the golden-ratio increment).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalizes one SplitMix64 output from a state word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the key codes — a stable, platform-independent key hash
/// (unlike `DefaultHasher`, whose algorithm std does not pin down).
fn key_hash(key: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &code in key {
        for byte in code.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// A counter-based SplitMix64 generator owned by one live group.
///
/// The full state is a single `u64` ([`GroupRng::state`]): each draw
/// advances it by the golden-ratio increment and finalizes the output
/// with the SplitMix64 mixer. Seeded from `(stream seed, group key)`, so
/// distinct groups get distinct, reproducible streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRng {
    state: u64,
}

impl GroupRng {
    /// Derives the group's generator from the stream seed and its key.
    /// Pure: the same `(seed, key)` always yields the same stream.
    pub fn for_group(seed: u64, key: &[u32]) -> Self {
        Self {
            state: mix(mix(seed) ^ key_hash(key)),
        }
    }

    /// The full generator state — the RNG cursor a snapshot records.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds the generator from a snapshot's cursor.
    pub fn from_state(state: u64) -> Self {
        Self { state }
    }
}

impl RngCore for GroupRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_and_key_reproduce_the_stream() {
        let mut a = GroupRng::for_group(7, &[1, 2, 3]);
        let mut b = GroupRng::for_group(7, &[1, 2, 3]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_keys_and_seeds_diverge() {
        let mut a = GroupRng::for_group(7, &[1, 2, 3]);
        let mut b = GroupRng::for_group(7, &[1, 2, 4]);
        let mut c = GroupRng::for_group(8, &[1, 2, 3]);
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn state_round_trip_resumes_mid_stream() {
        let mut a = GroupRng::for_group(42, &[9]);
        for _ in 0..17 {
            let _ = a.next_u64();
        }
        let mut b = GroupRng::from_state(a.state());
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_doubles_cover_the_unit_interval() {
        // Smoke-check the statistical shape the perturbation code relies
        // on: `gen::<f64>()` lands in [0, 1) with a sane mean.
        let mut rng = GroupRng::for_group(1, &[0]);
        let mut sum = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn empty_and_singleton_keys_hash_apart() {
        let mut a = GroupRng::for_group(3, &[]);
        let mut b = GroupRng::for_group(3, &[0]);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
