//! Private set-associative caches (L1D and L2).
//!
//! These levels only need to *filter* the stream that reaches the shared
//! LLC, so they use simple stack policies: true LRU at L1D and SRRIP at L2
//! (paper Table 4). The LLC itself lives in [`crate::llc`] with pluggable
//! policies.

use crate::bits::{bit_assign, bit_get, bit_set, range_mask};
use crate::LineAddr;

/// Replacement policy for a private cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True least-recently-used.
    Lru,
    /// Static re-reference interval prediction (2-bit RRPV, insert at 2,
    /// promote to 0 on hit) — the paper's L2 policy.
    Srrip,
}

/// Geometry and policy of a [`PrivateCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub replacement: ReplacementKind,
    /// Access latency in cycles (hit latency).
    pub latency: u64,
    /// Miss-status-holding registers: outstanding misses this level supports.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Paper Table 4 L1D: 32 KB, 8-way, 4 cycles, 8 MSHRs, LRU.
    pub fn l1d() -> Self {
        CacheConfig {
            sets: 64,
            ways: 8,
            replacement: ReplacementKind::Lru,
            latency: 4,
            mshrs: 8,
        }
    }

    /// Paper Table 4 L2: 512 KB, 8-way, 15 cycles, 32 MSHRs, SRRIP.
    pub fn l2() -> Self {
        CacheConfig {
            sets: 1024,
            ways: 8,
            replacement: ReplacementKind::Srrip,
            latency: 15,
            mshrs: 32,
        }
    }

    /// An L2 of `kib` kibibytes (8-way), for the paper's Fig 21 L2-size
    /// sensitivity sweep (256 KB … 2 MB).
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is not a power of two or is zero.
    pub fn l2_with_kib(kib: usize) -> Self {
        let sets = kib * 1024 / 64 / 8;
        assert!(
            sets.is_power_of_two() && sets > 0,
            "invalid L2 size {kib} KiB"
        );
        CacheConfig {
            sets,
            ..CacheConfig::l2()
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * crate::LINE_BYTES as usize
    }
}

/// Hit/miss and write-back statistics for one private cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup count.
    pub accesses: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Dirty victims produced by fills.
    pub writebacks: u64,
    /// Fills performed.
    pub fills: u64,
}

drishti_noc::impl_persist_fields!(CacheStats {
    accesses,
    hits,
    misses,
    writebacks,
    fills
});

impl CacheStats {
    /// Miss ratio in `[0, 1]` (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A victim line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The victim's line address.
    pub line: LineAddr,
    /// Whether it must be written back to the next level.
    pub dirty: bool,
}

/// A private (per-core) set-associative cache.
///
/// The functional contract is split in two so the caller controls timing:
/// [`PrivateCache::access`] probes (and on a hit updates recency/dirty
/// state); on a miss the caller fetches the line from the next level and
/// then calls [`PrivateCache::fill`], which may hand back a dirty victim to
/// write back.
///
/// Line metadata lives in a struct-of-arrays layout (DESIGN.md §15): the
/// probe scan walks a packed tag array guided by a valid bitset, and the
/// dirty/meta planes are touched only on hit or victim selection.
#[derive(Debug, Clone)]
pub struct PrivateCache {
    cfg: CacheConfig,
    /// Tag per line, indexed `set * ways + way`.
    tags: Vec<u64>,
    /// Valid bits, 64 lines per word.
    valid: Vec<u64>,
    /// Dirty bits, 64 lines per word.
    dirty: Vec<u64>,
    /// LRU timestamp or RRPV per line, depending on the policy.
    meta: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

const SRRIP_MAX: u64 = 3;
const SRRIP_INSERT: u64 = 2;

impl PrivateCache {
    /// Create an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.ways > 0, "ways must be nonzero");
        let total = cfg.sets * cfg.ways;
        let words = total.div_ceil(64);
        PrivateCache {
            cfg,
            tags: vec![0; total],
            valid: vec![0; words],
            dirty: vec![0; words],
            meta: vec![0; total],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn index(&self, line: LineAddr) -> (usize, u64) {
        let set = (line as usize) & (self.cfg.sets - 1);
        let tag = line >> self.cfg.sets.trailing_zeros();
        (set, tag)
    }

    /// Way index of `tag` in the set starting at line index `base`, if
    /// resident: a bit scan of the valid mask plus tag compares.
    #[inline]
    fn probe(&self, base: usize, tag: u64) -> Option<usize> {
        let ways = self.cfg.ways;
        if ways <= 64 {
            let mut m = range_mask(&self.valid, base, ways);
            while m != 0 {
                let w = m.trailing_zeros() as usize;
                if self.tags[base + w] == tag {
                    return Some(w);
                }
                m &= m - 1;
            }
            None
        } else {
            (0..ways).find(|&w| bit_get(&self.valid, base + w) && self.tags[base + w] == tag)
        }
    }

    /// Probe for `line`. On a hit, recency state is updated and the line is
    /// marked dirty if `is_store`. Returns `true` on hit.
    pub fn access(&mut self, line: LineAddr, is_store: bool) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.index(line);
        let base = set * self.cfg.ways;
        if let Some(way) = self.probe(base, tag) {
            let g = base + way;
            self.stats.hits += 1;
            if is_store {
                bit_set(&mut self.dirty, g);
            }
            self.meta[g] = match self.cfg.replacement {
                ReplacementKind::Lru => self.clock,
                ReplacementKind::Srrip => 0,
            };
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Probe without updating any state (for instrumentation).
    pub fn peek(&self, line: LineAddr) -> bool {
        let (set, tag) = self.index(line);
        self.probe(set * self.cfg.ways, tag).is_some()
    }

    /// Install `line` (after a miss was serviced). Returns a dirty victim if
    /// one must be written back. Filling a line that is already present just
    /// refreshes it.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        self.clock += 1;
        self.stats.fills += 1;
        let (set, tag) = self.index(line);
        let sets_bits = self.cfg.sets.trailing_zeros();
        let base = set * self.cfg.ways;

        // Already present (e.g. a racing prefetch): refresh in place.
        if let Some(way) = self.probe(base, tag) {
            let g = base + way;
            if dirty {
                bit_set(&mut self.dirty, g);
            }
            self.meta[g] = match self.cfg.replacement {
                ReplacementKind::Lru => self.clock,
                ReplacementKind::Srrip => 0,
            };
            return None;
        }

        let victim_way = self.choose_victim(base);
        let g = base + victim_way;
        let evicted = if bit_get(&self.valid, g) && bit_get(&self.dirty, g) {
            Some(Evicted {
                line: (self.tags[g] << sets_bits) | set as u64,
                dirty: true,
            })
        } else {
            None
        };
        if evicted.is_some() {
            self.stats.writebacks += 1;
        }
        self.tags[g] = tag;
        bit_set(&mut self.valid, g);
        bit_assign(&mut self.dirty, g, dirty);
        self.meta[g] = match self.cfg.replacement {
            ReplacementKind::Lru => self.clock,
            ReplacementKind::Srrip => SRRIP_INSERT,
        };
        evicted
    }

    fn choose_victim(&mut self, base: usize) -> usize {
        let ways = self.cfg.ways;
        // Prefer an invalid way.
        if ways <= 64 {
            let full = if ways == 64 {
                u64::MAX
            } else {
                (1u64 << ways) - 1
            };
            let free = !range_mask(&self.valid, base, ways) & full;
            if free != 0 {
                return free.trailing_zeros() as usize;
            }
        } else if let Some(w) = (0..ways).find(|&w| !bit_get(&self.valid, base + w)) {
            return w;
        }
        match self.cfg.replacement {
            // First minimal timestamp, matching `Iterator::min_by_key` on
            // the per-line layout.
            ReplacementKind::Lru => {
                let mut best = 0;
                let mut best_meta = self.meta[base];
                for w in 1..ways {
                    if self.meta[base + w] < best_meta {
                        best = w;
                        best_meta = self.meta[base + w];
                    }
                }
                best
            }
            ReplacementKind::Srrip => loop {
                if let Some(w) = (0..ways).find(|&w| self.meta[base + w] >= SRRIP_MAX) {
                    return w;
                }
                for w in 0..ways {
                    self.meta[base + w] += 1;
                }
            },
        }
    }

    /// Invalidate `line` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (set, tag) = self.index(line);
        let base = set * self.cfg.ways;
        if let Some(way) = self.probe(base, tag) {
            let g = base + way;
            bit_assign(&mut self.valid, g, false);
            return Some(bit_get(&self.dirty, g));
        }
        None
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of valid lines currently resident (for tests).
    pub fn resident_lines(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }
}

// The cache's mutable run-state: line planes, replacement clock, stats.
// Geometry comes from config on restore, not from the snapshot.
drishti_noc::impl_persist_fields!(PrivateCache {
    tags,
    valid,
    dirty,
    meta,
    clock,
    stats
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1d_capacity_is_32_kib() {
        assert_eq!(CacheConfig::l1d().capacity_bytes(), 32 * 1024);
    }

    #[test]
    fn l2_capacity_is_512_kib() {
        assert_eq!(CacheConfig::l2().capacity_bytes(), 512 * 1024);
    }

    #[test]
    fn l2_size_sweep_configs() {
        assert_eq!(CacheConfig::l2_with_kib(256).capacity_bytes(), 256 * 1024);
        assert_eq!(CacheConfig::l2_with_kib(1024).capacity_bytes(), 1024 * 1024);
        assert_eq!(CacheConfig::l2_with_kib(2048).capacity_bytes(), 2048 * 1024);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = PrivateCache::new(CacheConfig::l1d());
        assert!(!c.access(100, false));
        c.fill(100, false);
        assert!(c.access(100, false));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 2,
            replacement: ReplacementKind::Lru,
            latency: 1,
            mshrs: 8,
        };
        let mut c = PrivateCache::new(cfg);
        c.fill(1, false);
        c.fill(2, false);
        c.access(1, false); // 1 is now MRU
        c.fill(3, false); // evicts 2
        assert!(c.peek(1));
        assert!(!c.peek(2));
        assert!(c.peek(3));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 1,
            replacement: ReplacementKind::Lru,
            latency: 1,
            mshrs: 8,
        };
        let mut c = PrivateCache::new(cfg);
        c.fill(5, true);
        let ev = c.fill(9, false).expect("dirty victim");
        assert_eq!(ev.line, 5);
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 1,
            replacement: ReplacementKind::Lru,
            latency: 1,
            mshrs: 8,
        };
        let mut c = PrivateCache::new(cfg);
        c.fill(5, false);
        assert!(c.fill(9, false).is_none());
    }

    #[test]
    fn store_hit_marks_dirty_and_later_writes_back() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 1,
            replacement: ReplacementKind::Lru,
            latency: 1,
            mshrs: 8,
        };
        let mut c = PrivateCache::new(cfg);
        c.fill(5, false);
        assert!(c.access(5, true)); // store hit marks dirty
        let ev = c.fill(9, false).expect("dirty victim");
        assert!(ev.dirty);
    }

    #[test]
    fn victim_line_address_reconstruction() {
        let cfg = CacheConfig {
            sets: 4,
            ways: 1,
            replacement: ReplacementKind::Lru,
            latency: 1,
            mshrs: 8,
        };
        let mut c = PrivateCache::new(cfg);
        let addr = 0b10_1101; // set 1, tag 0b1011
        c.fill(addr, true);
        let ev = c.fill(addr + 4 * 7, false).expect("same set, dirty victim");
        assert_eq!(ev.line, addr);
    }

    #[test]
    fn srrip_promotes_on_hit() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 2,
            replacement: ReplacementKind::Srrip,
            latency: 1,
            mshrs: 8,
        };
        let mut c = PrivateCache::new(cfg);
        c.fill(1, false);
        c.fill(2, false);
        c.access(1, false); // rrpv(1) = 0
        c.fill(3, false); // must evict 2 (rrpv 2) not 1 (rrpv 0)
        assert!(c.peek(1));
        assert!(!c.peek(2));
    }

    #[test]
    fn fill_present_line_does_not_duplicate() {
        let mut c = PrivateCache::new(CacheConfig::l1d());
        c.fill(7, false);
        c.fill(7, true);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = PrivateCache::new(CacheConfig::l1d());
        c.fill(7, true);
        assert_eq!(c.invalidate(7), Some(true));
        assert!(!c.peek(7));
        assert_eq!(c.invalidate(7), None);
    }

    #[test]
    fn resident_never_exceeds_capacity() {
        let cfg = CacheConfig {
            sets: 4,
            ways: 2,
            replacement: ReplacementKind::Lru,
            latency: 1,
            mshrs: 8,
        };
        let mut c = PrivateCache::new(cfg);
        for a in 0..1000u64 {
            if !c.access(a % 37, a % 3 == 0) {
                c.fill(a % 37, false);
            }
            assert!(c.resident_lines() <= 8);
        }
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = PrivateCache::new(CacheConfig::l1d());
        c.access(1, false);
        c.fill(1, false);
        c.access(1, false);
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-9);
    }
}
