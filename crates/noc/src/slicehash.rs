//! Address-to-slice hashing for the sliced LLC.
//!
//! Commercial processors distribute physical line addresses over LLC slices
//! with an undocumented "complex addressing" hash (reverse-engineered by
//! Maurice et al. \[41\] for Intel parts; the paper's baseline cites the
//! Kayaalp et al. \[33\] construction). Two properties matter for this study:
//!
//! 1. **Uniformity** — consecutive and strided lines spread evenly over
//!    slices, so no slice is hot merely because of the hash.
//! 2. **Scattering** — the set of lines touched by *one PC* lands on many
//!    slices, which is exactly what makes a per-slice reuse predictor myopic
//!    (paper Observation I, Fig 2).
//!
//! [`XorFoldHash`] reproduces both. [`ModuloHash`] (low-order bits) is kept
//! as a contrast/test hash, and [`SliceHasher`] is the trait the LLC
//! container consumes.

/// Maps a cache-line address to an LLC slice index.
///
/// Implementations must be pure functions of `(line_addr, n_slices)`.
pub trait SliceHasher: std::fmt::Debug + Send + Sync {
    /// Slice index in `0..n_slices` for the given *line* address (byte
    /// address >> 6).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `n_slices == 0`.
    fn slice_of(&self, line_addr: u64, n_slices: usize) -> usize;
}

/// XOR-fold complex-addressing hash.
///
/// For a power-of-two slice count `2^k`, slice bit `i` is the XOR of line
/// address bits `i, i+k, i+2k, …` — the classic structure recovered from
/// Intel complex addressing. For non-power-of-two counts (multi-chip
/// systems where `chips × slices_per_chip` need not be a power of two) the
/// hash is a *balanced rotation*: each aligned block of `n` consecutive
/// line addresses is rotated by a per-block pseudo-random offset, so every
/// block covers every slice exactly once. That makes the distribution
/// exactly uniform over any aligned window (±1 at the ragged edges) while
/// the per-block mix still scatters strided streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XorFoldHash;

impl XorFoldHash {
    /// Create the hash function.
    pub fn new() -> Self {
        XorFoldHash
    }
}

/// 64-bit finalizer (splitmix64) used for the non-power-of-two fallback.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SliceHasher for XorFoldHash {
    fn slice_of(&self, line_addr: u64, n_slices: usize) -> usize {
        assert!(n_slices > 0, "n_slices must be nonzero");
        if n_slices == 1 {
            return 0;
        }
        if n_slices.is_power_of_two() {
            let k = n_slices.trailing_zeros();
            // When the chunk width divides 64 and is itself a power of two
            // (k ∈ {1, 2, 4, 8, 16, 32}), the xor of all k-bit chunks can
            // be computed by folding halves — six shifts instead of a
            // data-dependent loop. Identical result to the chunk loop
            // below; this is the hot path (4-, 16-, 256-slice meshes).
            if 64 % k == 0 && k.is_power_of_two() {
                let mut a = line_addr;
                let mut w = 32;
                while w >= k {
                    a ^= a >> w;
                    w >>= 1;
                }
                (a & (n_slices as u64 - 1)) as usize
            } else {
                let mut folded = 0u64;
                let mut a = line_addr;
                while a != 0 {
                    folded ^= a & (n_slices as u64 - 1);
                    a >>= k;
                }
                folded as usize
            }
        } else {
            // Balanced rotation: address `q·n + r` maps to slice
            // `(r + mix64(q)) mod n`. Within each aligned block of `n`
            // consecutive lines the offset is constant and `r` covers
            // `0..n`, so the block covers every slice exactly once —
            // ±1-uniformity over any window by construction — while the
            // per-block splitmix offset scatters PCs and strides.
            let n = n_slices as u64;
            (((line_addr % n) + (mix64(line_addr / n) % n)) % n) as usize
        }
    }
}

/// Trivial low-order-bits slice selection (`line_addr % n_slices`).
///
/// Used as a test contrast: it keeps strided streams on one slice, which is
/// precisely what real parts avoid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuloHash;

impl ModuloHash {
    /// Create the hash function.
    pub fn new() -> Self {
        ModuloHash
    }
}

impl SliceHasher for ModuloHash {
    fn slice_of(&self, line_addr: u64, n_slices: usize) -> usize {
        assert!(n_slices > 0, "n_slices must be nonzero");
        (line_addr % n_slices as u64) as usize
    }
}

/// An inner slice hash with its outputs relabeled by a fixed permutation.
///
/// Used by the conformance harness's slice-permutation metamorphic
/// relation: renaming slices is behaviour-preserving for any policy whose
/// decisions do not depend on the slice *index* itself, so aggregate
/// hit/miss counts must be invariant under this wrapper.
#[derive(Debug)]
pub struct PermutedHash<H: SliceHasher> {
    inner: H,
    perm: Vec<usize>,
}

impl<H: SliceHasher> PermutedHash<H> {
    /// Wrap `inner`, relabeling its output `s` to `perm[s]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    pub fn new(inner: H, perm: Vec<usize>) -> Self {
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(p < perm.len() && !seen[p], "not a permutation: {perm:?}");
            seen[p] = true;
        }
        PermutedHash { inner, perm }
    }
}

impl<H: SliceHasher> SliceHasher for PermutedHash<H> {
    fn slice_of(&self, line_addr: u64, n_slices: usize) -> usize {
        assert_eq!(
            n_slices,
            self.perm.len(),
            "permutation sized for {} slices, asked for {n_slices}",
            self.perm.len()
        );
        self.perm[self.inner.slice_of(line_addr, n_slices)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slice_always_zero() {
        let h = XorFoldHash::new();
        for a in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(h.slice_of(a, 1), 0);
        }
    }

    #[test]
    fn in_range_for_all_counts() {
        let h = XorFoldHash::new();
        for n in 1..=40usize {
            for a in 0..4096u64 {
                assert!(h.slice_of(a * 97 + 13, n) < n);
            }
        }
    }

    #[test]
    fn sequential_lines_spread_uniformly_16_slices() {
        let h = XorFoldHash::new();
        let n = 16usize;
        let mut counts = vec![0u64; n];
        for a in 0..160_000u64 {
            counts[h.slice_of(a, n)] += 1;
        }
        let expect = 160_000 / n as u64;
        for &c in &counts {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.02, "slice imbalance {dev} on counts {counts:?}");
        }
    }

    #[test]
    fn strided_lines_spread_over_slices() {
        // Page-strided accesses (same set bits) must still scatter: this is
        // what defeats a modulo hash and motivates complex addressing.
        let h = XorFoldHash::new();
        let n = 16usize;
        let mut touched = std::collections::HashSet::new();
        for i in 0..64u64 {
            touched.insert(h.slice_of(i * 1024, n));
        }
        assert!(touched.len() >= n / 2, "stride collapsed to {touched:?}");
    }

    #[test]
    fn modulo_hash_keeps_stride_on_one_slice() {
        let h = ModuloHash::new();
        let n = 16usize;
        let mut touched = std::collections::HashSet::new();
        for i in 0..64u64 {
            touched.insert(h.slice_of(i * 16, n));
        }
        assert_eq!(touched.len(), 1);
    }

    #[test]
    fn deterministic() {
        let h = XorFoldHash::new();
        assert_eq!(h.slice_of(0xabcdef, 32), h.slice_of(0xabcdef, 32));
    }

    #[test]
    fn exhaustive_distribution_within_one_of_uniform() {
        // Over ALL 2^16 line addresses every slice must land within ±1 of
        // the uniform share — for *arbitrary* counts, not just powers of
        // two. Power-of-two counts use the XOR fold (a surjective
        // GF(2)-linear map, exactly even); every other count uses the
        // balanced rotation, which covers each slice once per aligned
        // block of n addresses. The counts below include the multi-chip
        // shapes (chips × slices-per-chip, e.g. 3×8, 2×6, 4×6, 2×24).
        let h = XorFoldHash::new();
        for n in [2usize, 3, 4, 5, 6, 7, 8, 12, 16, 24, 48, 96] {
            let mut counts = vec![0i64; n];
            for a in 0..(1u64 << 16) {
                counts[h.slice_of(a, n)] += 1;
            }
            let share = (1i64 << 16) / n as i64;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    (c - share).abs() <= 1,
                    "slice {s}/{n} got {c} of 2^16 addresses (uniform share {share})"
                );
            }
        }
    }

    #[test]
    fn pinned_hash_values_for_known_addresses() {
        // Exact regression pins: slice steering is part of every result in
        // the repo, so a refactor that changes any of these values changes
        // which slice serves which line and silently invalidates goldens.
        let h = XorFoldHash::new();
        let pins: [(u64, usize, usize, usize); 8] = [
            (0x0, 0, 0, 1),
            (0x1, 1, 1, 2),
            (0xdead_beef, 6, 0, 5),
            (0x1234_5678_9abc_def0, 5, 0, 4),
            (0xffff_ffff_ffff_ffff, 6, 0, 3),
            (0x0004_0000, 1, 4, 4),
            (0xcafe_babe, 0, 3, 2),
            (0x0fed_cba9_8765_4321, 0, 0, 2),
        ];
        for &(addr, s8, s16, s6) in &pins {
            assert_eq!(h.slice_of(addr, 8), s8, "addr {addr:#x} @ 8 slices");
            assert_eq!(h.slice_of(addr, 16), s16, "addr {addr:#x} @ 16 slices");
            assert_eq!(h.slice_of(addr, 6), s6, "addr {addr:#x} @ 6 slices");
        }
    }

    #[test]
    fn permuted_hash_relabels_bijectively() {
        let perm = vec![3usize, 0, 1, 2];
        let h = PermutedHash::new(XorFoldHash::new(), perm.clone());
        let base = XorFoldHash::new();
        let mut seen = std::collections::HashSet::new();
        for a in 0..4096u64 {
            let s = h.slice_of(a, 4);
            assert_eq!(s, perm[base.slice_of(a, 4)]);
            seen.insert(s);
        }
        assert_eq!(seen.len(), 4, "permutation must stay surjective");
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permuted_hash_rejects_non_permutations() {
        let _ = PermutedHash::new(XorFoldHash::new(), vec![0, 0, 1]);
    }

    #[test]
    fn fold_by_halves_matches_chunk_loop() {
        // The fast path (k | 64, k a power of two) must agree with the
        // reference chunk-at-a-time fold for every slice count.
        let h = XorFoldHash::new();
        let chunk_loop = |line: u64, n: usize| -> usize {
            let k = n.trailing_zeros();
            let mut folded = 0u64;
            let mut a = line;
            while a != 0 {
                folded ^= a & (n as u64 - 1);
                a >>= k;
            }
            folded as usize
        };
        let mut x = 0x1234_5678_9abc_def0u64;
        for n in [2usize, 4, 8, 16, 64, 256] {
            for i in 0..2000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                assert_eq!(h.slice_of(x, n), chunk_loop(x, n), "n={n} line={x:#x}");
            }
        }
    }

    #[test]
    fn non_power_of_two_uniformity() {
        // The balanced rotation is *exactly* uniform over the aligned
        // 120_000 = 10_000 × 12 window, not merely statistically close.
        let h = XorFoldHash::new();
        let n = 12usize;
        let mut counts = vec![0u64; n];
        for a in 0..120_000u64 {
            counts[h.slice_of(a, n)] += 1;
        }
        let expect = 120_000 / n as u64;
        for &c in &counts {
            assert_eq!(c, expect, "counts {counts:?}");
        }
    }

    #[test]
    fn non_power_of_two_strides_still_scatter() {
        // The rotation offset changes every block, so page-strided streams
        // (the access pattern a plain modulo collapses) spread over slices
        // even at non-power-of-two counts.
        let h = XorFoldHash::new();
        let n = 12usize;
        let mut touched = std::collections::HashSet::new();
        for i in 0..64u64 {
            touched.insert(h.slice_of(i * 1024, n));
        }
        assert!(touched.len() >= n / 2, "stride collapsed to {touched:?}");
    }
}
