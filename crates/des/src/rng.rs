//! Reproducible randomness.
//!
//! Every stochastic component of the simulator (workload generators, device
//! perturbations, trace synthesis) draws from its own RNG stream derived
//! from a single experiment seed. Streams are independent of each other and
//! of the order components are created in, so adding a new component never
//! perturbs existing results.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 step, used to whiten seed material.
///
/// This is the standard finalizer from Steele et al., "Fast Splittable
/// Pseudorandom Number Generators" — good enough to decorrelate adjacent
/// stream indices.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a 64-bit sub-seed for (`seed`, `stream`).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ splitmix64(stream.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// Creates an RNG for the given experiment seed and named stream index.
///
/// ```
/// use ibridge_des::rng::stream_rng;
/// use rand::Rng;
///
/// let mut a = stream_rng(42, 0);
/// let mut b = stream_rng(42, 0);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, stream))
}

/// Well-known stream indices, so components across crates never collide.
pub mod streams {
    /// Workload generator request sizes/offsets.
    pub const WORKLOAD: u64 = 1;
    /// Trace synthesis.
    pub const TRACE: u64 = 2;
    /// Disk model perturbation (rotational phase).
    pub const DISK: u64 = 3;
    /// SSD model perturbation.
    pub const SSD: u64 = 4;
    /// Network jitter.
    pub const NET: u64 = 5;
    /// Client think-time / arrival jitter.
    pub const CLIENT: u64 = 6;
    /// Local file system allocation decisions.
    pub const LOCALFS: u64 = 7;
    /// Fault-injection draws (network impairment outcomes).
    pub const FAULTS: u64 = 8;
    /// Per-node network-impairment deciders: each simulated node draws
    /// its outcomes from `stream_rng(derive_seed(seed, FAULTS_NET),
    /// node)`, so the draw sequence is a function of (seed, node)
    /// alone — independent of how other nodes' messages interleave
    /// with it.
    pub const FAULTS_NET: u64 = 9;
    /// Replicated-MDS election timeouts: each replica draws from
    /// `stream_rng(derive_seed(seed, MDS), replica)`, so election
    /// outcomes are a function of (seed, replica) alone — byte-identical
    /// at any `--jobs` level.
    pub const MDS: u64 = 10;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let mut a = stream_rng(7, 3);
        let mut b = stream_rng(7, 3);
        let va: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = stream_rng(7, 1);
        let mut b = stream_rng(7, 2);
        let va: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = stream_rng(1, 1);
        let mut b = stream_rng(2, 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn derive_seed_spreads_adjacent_inputs() {
        // Adjacent stream ids must not give adjacent seeds.
        let d = derive_seed(0, 0) ^ derive_seed(0, 1);
        assert!(d.count_ones() > 8, "poor diffusion: {d:#x}");
    }
}
