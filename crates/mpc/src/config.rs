//! Configuration of the low-space MPC model (paper Sections 1 and 2.4.2).
//!
//! The model has `M = poly(n)` machines, each with `S = Θ(n^φ)` words of
//! local space for a constant `φ ∈ (0, 1)`. All messages sent and received
//! by a machine in one round, as well as its stored state, must fit in `S`.

/// Rounds between recovery checkpoints: under a restart
/// [`crate::RecoveryPolicy`] a crash replays at most this many rounds (all
/// charged to the ledger), on both execution layers.
pub const CHECKPOINT_INTERVAL: usize = 4;

/// Parameters of a low-space MPC deployment. Local space is
/// `S = max(⌈n^φ⌉, min_space)`: the `Θ(·)` constant is 1.
///
/// # Examples
///
/// ```
/// use csmpc_mpc::MpcConfig;
/// let cfg = MpcConfig::with_phi(0.5);
/// // S = ceil(10_000^0.5) = 100 words per machine
/// assert_eq!(cfg.local_space(10_000), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// The space exponent `φ ∈ (0, 1)`: each machine holds `Θ(n^φ)` words.
    pub phi: f64,
    /// Floor on machine space so that asymptotic statements survive tiny
    /// test inputs (the model is asymptotic; a 20-node graph with `φ = 0.5`
    /// would otherwise give 5-word machines).
    pub min_space: usize,
    /// How the simulators execute internally parallelizable sweeps (machine
    /// steps within an exact-engine round, per-vertex sweeps in the
    /// accounted primitives). Both modes are bit-identical in every
    /// observable — outputs, [`crate::Stats`], provenance, event log —
    /// for the same seed; the mode only affects wall-clock time.
    pub parallelism: csmpc_parallel::ParallelismMode,
}

impl MpcConfig {
    /// A configuration with the given `φ` and default constants.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < φ < 1`.
    #[must_use]
    pub fn with_phi(phi: f64) -> Self {
        assert!(phi > 0.0 && phi < 1.0, "phi must lie in (0,1), got {phi}");
        MpcConfig {
            phi,
            min_space: 32,
            parallelism: csmpc_parallel::ParallelismMode::default(),
        }
    }

    /// Local space `S` (in words) for an `n`-node input.
    #[must_use]
    pub fn local_space(&self, n: usize) -> usize {
        let s = (n as f64).powf(self.phi).ceil() as usize;
        s.max(self.min_space)
    }

    /// Number of machines needed to hold `total_words` of input with local
    /// space `S`, with constant-factor headroom for intermediate data.
    #[must_use]
    pub fn machines_for(&self, n: usize, total_words: usize) -> usize {
        let s = self.local_space(n);
        (4 * total_words).div_ceil(s).max(2)
    }

    /// The fan-in of aggregation/broadcast trees: a machine can merge up to
    /// `S` children's summaries per round, so trees have branching factor
    /// `S` and depth `⌈log_S M⌉ = O(1/φ)`.
    #[must_use]
    pub fn tree_fan_in(&self, n: usize) -> usize {
        self.local_space(n).max(2)
    }

    /// Depth of an `S`-ary tree over `m` leaves — the round cost of one
    /// aggregation or broadcast.
    ///
    /// Computed with an integer loop (`⌈log_b leaves⌉` as the least `d`
    /// with `b^d ≥ leaves`): the floating `ln`-ratio form can be off by one
    /// at exact powers of the fan-in, where `ln(b^k)/ln(b)` lands a hair
    /// above `k` and ceils to `k + 1`.
    #[must_use]
    pub fn tree_depth(&self, n: usize, leaves: usize) -> usize {
        if leaves <= 1 {
            return 1;
        }
        let b = self.tree_fan_in(n);
        let mut depth = 0usize;
        let mut cover = 1usize;
        while cover < leaves {
            cover = cover.saturating_mul(b);
            depth += 1;
        }
        depth
    }
}

impl Default for MpcConfig {
    /// `φ = 0.5`, the canonical strongly sublinear regime.
    fn default() -> Self {
        MpcConfig::with_phi(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_scales_with_phi() {
        let c = MpcConfig::with_phi(0.5);
        assert_eq!(c.local_space(10_000), 100);
        let c2 = MpcConfig::with_phi(0.25);
        assert_eq!(c2.local_space(65_536), 32); // floor dominates 65536^0.25 = 16
    }

    #[test]
    fn min_space_floor_applies() {
        let c = MpcConfig::with_phi(0.5);
        assert_eq!(c.local_space(4), 32);
    }

    #[test]
    #[should_panic(expected = "phi must lie in (0,1)")]
    fn rejects_bad_phi() {
        let _ = MpcConfig::with_phi(1.5);
    }

    #[test]
    fn machines_cover_input() {
        let c = MpcConfig::with_phi(0.5);
        let m = c.machines_for(10_000, 50_000);
        assert!(m * c.local_space(10_000) >= 50_000);
    }

    #[test]
    fn tree_depth_small_for_large_fanin() {
        let c = MpcConfig::with_phi(0.5);
        // S = 100, 10_000 leaves -> depth 2.
        assert_eq!(c.tree_depth(10_000, 10_000), 2);
        assert_eq!(c.tree_depth(10_000, 1), 1);
    }

    #[test]
    fn tree_depth_exact_at_fan_in_boundaries() {
        // S = 100 for n = 10_000; the boundaries leaves = S, S², S² + 1
        // are where the old ln-ratio formula risked an off-by-one.
        let c = MpcConfig::with_phi(0.5);
        let s = c.tree_fan_in(10_000);
        assert_eq!(s, 100);
        assert_eq!(c.tree_depth(10_000, s), 1, "leaves = S is one level");
        assert_eq!(c.tree_depth(10_000, s * s), 2, "leaves = S^2 is two");
        assert_eq!(
            c.tree_depth(10_000, s * s + 1),
            3,
            "one leaf past S^2 forces a third level"
        );
        assert_eq!(c.tree_depth(10_000, s + 1), 2);
    }

    #[test]
    fn tree_depth_monotone_in_leaves() {
        let c = MpcConfig::with_phi(0.5);
        let mut last = 0;
        for leaves in [1, 2, 99, 100, 101, 9_999, 10_000, 10_001, 1_000_000] {
            let d = c.tree_depth(10_000, leaves);
            assert!(d >= last, "depth must not decrease as leaves grow");
            last = d;
        }
    }
}
