//! Set-associative cache hierarchy.
//!
//! The paper attributes part of the Baseline's CPI to "irregular memory
//! access patterns that are difficult for hardware prefetchers to predict
//! (e.g., to follow pointers connecting entries that hash to the same
//! bucket)". The hash-table model emits the synthetic addresses of bucket
//! heads and chain nodes; this module replays them through an
//! inclusive-enough three-level LRU hierarchy to charge realistic stall
//! cycles for pointer chasing.

use serde::{Deserialize, Serialize};

/// One set-associative, write-allocate, LRU cache level.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`, `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache of `capacity_bytes` with `ways` ways and
    /// `line_bytes`-byte lines.
    ///
    /// # Panics
    /// Panics unless the geometry divides evenly and `line_bytes` is a power
    /// of two (ZSim imposes the same power-of-two constraint, which is why
    /// the paper's Baseline L3 is 16MB instead of the native 20MB).
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(ways >= 1);
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "capacity must hold a whole number of sets"
        );
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be 2^k");
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; lines],
            stamps: vec![0; lines],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate the line,
    /// evicting the set's LRU way.
    ///
    /// Tag match and LRU-victim selection are fused into a single pass
    /// over the set, with an MRU way-0 fast path: a hit in way 0 returns
    /// after one tag compare without reading any stamps. Ties on the
    /// victim stamp resolve to the lowest way.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        // MRU way-0 fast path: skip the victim scan entirely.
        if self.tags[base] == line {
            self.stamps[base] = self.clock;
            return true;
        }
        // Branch-free scan of the remaining ways: the tag match and the
        // LRU victim fold into conditional-move chains with a fixed trip
        // count, replacing a data-dependent early exit that mispredicts
        // once per non-MRU hit.
        let mut hit_slot = usize::MAX;
        let mut victim = base;
        let mut victim_stamp = self.stamps[base];
        for slot in base + 1..base + self.ways {
            if self.tags[slot] == line {
                hit_slot = slot;
            }
            let stamp = self.stamps[slot];
            if stamp < victim_stamp {
                victim = slot;
                victim_stamp = stamp;
            }
        }
        if hit_slot != usize::MAX {
            self.stamps[hit_slot] = self.clock;
            return true;
        }
        self.misses += 1;
        // Evict LRU (or fill an invalid way, which has stamp 0).
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }

    /// Installs `addr`'s line without touching demand statistics
    /// (prefetch fill). Evicts the set's LRU way when absent. Uses the
    /// same fused single-pass scan as [`Self::access`].
    pub fn fill(&mut self, addr: u64) {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        if self.tags[base] == line {
            self.stamps[base] = self.clock;
            return;
        }
        let mut victim = base;
        let mut victim_stamp = self.stamps[base];
        for slot in base + 1..base + self.ways {
            if self.tags[slot] == line {
                self.stamps[slot] = self.clock;
                return;
            }
            let stamp = self.stamps[slot];
            if stamp < victim_stamp {
                victim = slot;
                victim_stamp = stamp;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0,1]`; 0 before any access.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * (1usize << self.line_shift)
    }
}

/// Latency (cycles) to resolve a load at each level.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheLatencies {
    /// L1 hit latency.
    pub l1: f64,
    /// L2 hit latency.
    pub l2: f64,
    /// L3 hit latency.
    pub l3: f64,
    /// Main-memory latency.
    pub mem: f64,
}

/// Where a memory access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the (share of the) L3.
    L3,
    /// Served by DRAM.
    Memory,
}

/// A private L1+L2 backed by an L3 slice, as seen by one simulated core.
///
/// The real machine shares its L3; the model gives each core an equal slice
/// (capacity / cores), which matches ZSim's behaviour for the throughput
/// workloads here where every core streams a disjoint vertex range.
///
/// An optional next-line stream prefetcher can be enabled: every demand
/// miss also fills the following line. This is the mechanism the paper
/// says collision chains defeat ("irregular memory access patterns that
/// are difficult for hardware prefetchers to predict"); the ablation bench
/// quantifies exactly that by toggling it per device.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    prefetch_next_line: bool,
    prefetches_issued: u64,
}

impl CacheHierarchy {
    /// Builds a hierarchy from per-level `(capacity, ways)` and a common
    /// line size, without prefetching.
    pub fn new(
        l1: (usize, usize),
        l2: (usize, usize),
        l3: (usize, usize),
        line_bytes: usize,
    ) -> Self {
        Self {
            l1: SetAssocCache::new(l1.0, l1.1, line_bytes),
            l2: SetAssocCache::new(l2.0, l2.1, line_bytes),
            l3: SetAssocCache::new(l3.0, l3.1, line_bytes),
            prefetch_next_line: false,
            prefetches_issued: 0,
        }
    }

    /// Enables or disables the next-line prefetcher.
    pub fn set_prefetch(&mut self, enabled: bool) {
        self.prefetch_next_line = enabled;
    }

    /// Prefetches issued so far.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// Accesses `addr`, filling lines downward on miss; returns the level
    /// that served it.
    pub fn access(&mut self, addr: u64) -> HitLevel {
        let level = self.demand_access(addr);
        if self.prefetch_next_line && level != HitLevel::L1 {
            // Fill the next line quietly: no demand counters are touched.
            let line_bytes = 1u64 << self.l1.line_shift;
            self.prefetches_issued += 1;
            let next = addr.wrapping_add(line_bytes);
            self.l1.fill(next);
            self.l2.fill(next);
        }
        level
    }

    fn demand_access(&mut self, addr: u64) -> HitLevel {
        if self.l1.access(addr) {
            HitLevel::L1
        } else if self.l2.access(addr) {
            HitLevel::L2
        } else if self.l3.access(addr) {
            HitLevel::L3
        } else {
            HitLevel::Memory
        }
    }

    /// Load-to-use latency for a hit at `level`.
    pub fn latency(&self, level: HitLevel, lat: &CacheLatencies) -> f64 {
        match level {
            HitLevel::L1 => lat.l1,
            HitLevel::L2 => lat.l2,
            HitLevel::L3 => lat.l3,
            HitLevel::Memory => lat.mem,
        }
    }

    /// Per-level statistics `(accesses, misses)` for L1, L2, L3.
    pub fn stats(&self) -> [(u64, u64); 3] {
        [
            (self.l1.accesses(), self.l1.misses()),
            (self.l2.accesses(), self.l2.misses()),
            (self.l3.accesses(), self.l3.misses()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(1024, 2, 64);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1010)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, 2 sets of 64B lines => capacity 256B.
        let mut c = SetAssocCache::new(256, 2, 64);
        // Three lines mapping to set 0: line numbers 0, 2, 4 (even lines).
        assert!(!c.access(0));
        assert!(!c.access(2 * 64));
        assert!(c.access(0)); // touch line 0: now line 2 is LRU
        assert!(!c.access(4 * 64)); // evicts 2
        assert!(c.access(0)); // still resident
        assert!(!c.access(2 * 64)); // was evicted
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = SetAssocCache::new(4096, 4, 64); // 64 lines
        for round in 0..4 {
            for i in 0..128u64 {
                let hit = c.access(i * 64);
                if round == 0 {
                    assert!(!hit);
                }
            }
        }
        // Sequential sweep over 2x capacity with LRU: every access misses.
        assert_eq!(c.miss_rate(), 1.0);
    }

    #[test]
    fn small_working_set_all_hits_after_warmup() {
        let mut c = SetAssocCache::new(4096, 4, 64);
        for _ in 0..10 {
            for i in 0..32u64 {
                c.access(i * 64);
            }
        }
        assert!(c.miss_rate() < 0.15);
    }

    #[test]
    fn hierarchy_fills_downward() {
        let mut h = CacheHierarchy::new((1024, 2), (4096, 4), (16384, 8), 64);
        assert_eq!(h.access(0x8000), HitLevel::Memory);
        assert_eq!(h.access(0x8000), HitLevel::L1);
        // Push L1 out with set-conflicting lines (stride 512B maps to L1 set 0
        // every time but alternates L2 sets, so L2 keeps the original line).
        for i in 1..5u64 {
            h.access(0x8000 + i * 512);
        }
        let lvl = h.access(0x8000);
        assert!(lvl == HitLevel::L2 || lvl == HitLevel::L3, "got {lvl:?}");
    }

    #[test]
    fn prefetcher_helps_streams_not_chases() {
        let mut seq = CacheHierarchy::new((1024, 2), (4096, 4), (16384, 8), 64);
        seq.set_prefetch(true);
        let mut chase = CacheHierarchy::new((1024, 2), (4096, 4), (16384, 8), 64);
        chase.set_prefetch(true);

        // Sequential stream: after each miss the prefetcher fills line+1,
        // so roughly every other line hits.
        let mut seq_misses = 0;
        for i in 0..256u64 {
            if seq.access(0x10_0000 + i * 64) != HitLevel::L1 {
                seq_misses += 1;
            }
        }
        // Pointer chase: strided pseudo-random lines never match line+1.
        let mut chase_misses = 0;
        let mut addr = 0x20_0000u64;
        for _ in 0..256 {
            if chase.access(addr) != HitLevel::L1 {
                chase_misses += 1;
            }
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(64) | 0x100_0000;
        }
        assert!(
            seq_misses * 2 <= chase_misses,
            "prefetcher should halve stream misses: seq {seq_misses}, chase {chase_misses}"
        );
        assert!(seq.prefetches_issued() > 0);
    }

    #[test]
    fn fill_does_not_count_as_demand() {
        let mut c = SetAssocCache::new(1024, 2, 64);
        c.fill(0x40);
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.misses(), 0);
        assert!(c.access(0x40), "filled line must hit");
    }

    #[test]
    fn capacity_reported() {
        let c = SetAssocCache::new(32 * 1024, 8, 64);
        assert_eq!(c.capacity_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "set count must be 2^k")]
    fn geometry_validated() {
        SetAssocCache::new(3 * 1024, 2, 64);
    }
}
