//! Method cache: whole functions are cached at call and return.
//!
//! "For instruction caching a method cache is used where full
//! functions/methods are loaded at call or return. This cache organization
//! simplifies the pipeline and the WCET analysis as instruction cache
//! misses can only happen at call or return instructions" (paper,
//! Section 3.3, following Schoeberl's JTRES 2004 design).
//!
//! The cache is organised as `blocks` blocks of `block_words` words; a
//! function occupies `ceil(size / block_words)` blocks. On a miss, whole
//! resident functions are evicted (FIFO or LRU over functions) until the
//! new function fits, then the function is transferred from main memory.

use std::collections::VecDeque;

use crate::set_assoc::ReplacementPolicy;
use crate::stats::CacheStats;

/// Geometry and policy of a [`MethodCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodCacheConfig {
    /// Number of blocks.
    pub blocks: u32,
    /// Words per block.
    pub block_words: u32,
    /// Function replacement order.
    pub policy: ReplacementPolicy,
}

impl MethodCacheConfig {
    /// A configuration with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` or `block_words` is zero.
    pub fn new(blocks: u32, block_words: u32, policy: ReplacementPolicy) -> MethodCacheConfig {
        assert!(blocks > 0, "blocks must be positive");
        assert!(block_words > 0, "block_words must be positive");
        MethodCacheConfig {
            blocks,
            block_words,
            policy,
        }
    }

    /// Total capacity in words.
    pub fn capacity_words(&self) -> u32 {
        self.blocks * self.block_words
    }

    /// Blocks needed by a function of `size_words` words (at least one).
    pub fn blocks_for(&self, size_words: u32) -> u32 {
        size_words.max(1).div_ceil(self.block_words)
    }
}

impl Default for MethodCacheConfig {
    /// Sixteen blocks of 64 words (4 KiB), FIFO — the shape used by the
    /// JOP/Patmos line of work.
    fn default() -> MethodCacheConfig {
        MethodCacheConfig {
            blocks: 16,
            block_words: 64,
            policy: ReplacementPolicy::Fifo,
        }
    }
}

/// The outcome of a method-cache lookup at a call or return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodCacheAccess {
    /// Whether the target function was already resident.
    pub hit: bool,
    /// Words transferred from main memory (the whole function on a miss).
    pub transfer_words: u32,
    /// Number of functions evicted to make room.
    pub evicted: u32,
}

#[derive(Debug, Clone, Copy)]
struct Resident {
    func_addr: u32,
    blocks: u32,
    stamp: u64,
}

/// The method cache itself.
///
/// Functions are identified by their start (word) address. A function
/// larger than the whole cache is never resident: every call to it
/// flushes the cache and streams the function — the documented degenerate
/// mode; the compiler's function splitter is expected to avoid it.
///
/// # Example
///
/// ```
/// use patmos_mem::{MethodCache, MethodCacheConfig};
/// let mut mc = MethodCache::new(MethodCacheConfig::default());
/// let first = mc.access(0x100, 32);
/// assert!(!first.hit);
/// assert_eq!(first.transfer_words, 32);
/// assert!(mc.access(0x100, 32).hit);
/// ```
#[derive(Debug, Clone)]
pub struct MethodCache {
    config: MethodCacheConfig,
    resident: VecDeque<Resident>,
    used_blocks: u32,
    clock: u64,
    stats: CacheStats,
}

impl MethodCache {
    /// An empty method cache.
    pub fn new(config: MethodCacheConfig) -> MethodCache {
        MethodCache {
            config,
            resident: VecDeque::new(),
            used_blocks: 0,
            clock: 0,
            stats: CacheStats::new(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> MethodCacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and clears statistics.
    pub fn reset(&mut self) {
        self.resident.clear();
        self.used_blocks = 0;
        self.clock = 0;
        self.stats = CacheStats::new();
    }

    /// Whether the function starting at `func_addr` is resident.
    pub fn contains(&self, func_addr: u32) -> bool {
        self.resident.iter().any(|r| r.func_addr == func_addr)
    }

    /// Number of blocks currently occupied.
    pub fn used_blocks(&self) -> u32 {
        self.used_blocks
    }

    /// Looks up the function entered by a call or return and loads it on
    /// a miss.
    ///
    /// `size_words` is the function's size from the function table; it
    /// must be consistent across calls for the same address.
    pub fn access(&mut self, func_addr: u32, size_words: u32) -> MethodCacheAccess {
        self.clock += 1;
        if let Some(pos) = self.resident.iter().position(|r| r.func_addr == func_addr) {
            if self.config.policy == ReplacementPolicy::Lru {
                self.resident[pos].stamp = self.clock;
            }
            self.stats.record(true, 0);
            return MethodCacheAccess {
                hit: true,
                transfer_words: 0,
                evicted: 0,
            };
        }

        let needed = self.config.blocks_for(size_words);
        let mut evicted = 0;
        if needed > self.config.blocks {
            // Degenerate: stream the oversized function, keep nothing.
            evicted = self.resident.len() as u32;
            self.resident.clear();
            self.used_blocks = 0;
            self.stats.record(false, size_words as u64);
            return MethodCacheAccess {
                hit: false,
                transfer_words: size_words,
                evicted,
            };
        }

        while self.config.blocks - self.used_blocks < needed {
            let victim_pos = match self.config.policy {
                ReplacementPolicy::Fifo => 0,
                ReplacementPolicy::Lru => self
                    .resident
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.stamp)
                    .map(|(i, _)| i)
                    .expect("cache is over-occupied, so not empty"),
            };
            let victim = self.resident.remove(victim_pos).expect("position is valid");
            self.used_blocks -= victim.blocks;
            evicted += 1;
        }

        self.resident.push_back(Resident {
            func_addr,
            blocks: needed,
            stamp: self.clock,
        });
        self.used_blocks += needed;
        self.stats.record(false, size_words as u64);
        MethodCacheAccess {
            hit: false,
            transfer_words: size_words,
            evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(blocks: u32, block_words: u32, policy: ReplacementPolicy) -> MethodCache {
        MethodCache::new(MethodCacheConfig::new(blocks, block_words, policy))
    }

    #[test]
    fn miss_then_hit() {
        let mut mc = cache(4, 16, ReplacementPolicy::Fifo);
        assert!(!mc.access(0, 16).hit);
        assert!(mc.access(0, 16).hit);
        assert_eq!(mc.stats().hits, 1);
        assert_eq!(mc.stats().misses, 1);
    }

    #[test]
    fn fifo_eviction_order() {
        // 4 blocks of 16 words; each function takes 2 blocks.
        let mut mc = cache(4, 16, ReplacementPolicy::Fifo);
        mc.access(0x0, 32);
        mc.access(0x100, 32);
        assert_eq!(mc.used_blocks(), 4);
        // Touching 0x0 again must NOT save it under FIFO.
        mc.access(0x0, 32);
        let res = mc.access(0x200, 32);
        assert_eq!(res.evicted, 1);
        assert!(!mc.contains(0x0), "oldest fill evicted");
        assert!(mc.contains(0x100));
        assert!(mc.contains(0x200));
    }

    #[test]
    fn lru_eviction_order() {
        let mut mc = cache(4, 16, ReplacementPolicy::Lru);
        mc.access(0x0, 32);
        mc.access(0x100, 32);
        mc.access(0x0, 32); // refresh
        mc.access(0x200, 32);
        assert!(mc.contains(0x0));
        assert!(!mc.contains(0x100), "least recently used evicted");
    }

    #[test]
    fn function_spanning_multiple_blocks() {
        let mut mc = cache(4, 16, ReplacementPolicy::Fifo);
        let res = mc.access(0x0, 33); // needs 3 blocks
        assert_eq!(res.transfer_words, 33);
        assert_eq!(mc.used_blocks(), 3);
        // A 2-block function now evicts the 3-block one.
        let res2 = mc.access(0x100, 32);
        assert_eq!(res2.evicted, 1);
        assert_eq!(mc.used_blocks(), 2);
    }

    #[test]
    fn oversized_function_streams() {
        let mut mc = cache(2, 16, ReplacementPolicy::Fifo);
        mc.access(0x100, 16);
        let res = mc.access(0x0, 100);
        assert!(!res.hit);
        assert_eq!(res.transfer_words, 100);
        assert!(!mc.contains(0x0), "oversized function is never resident");
        assert!(!mc.contains(0x100), "cache flushed by streaming");
        // Second call misses again.
        assert!(!mc.access(0x0, 100).hit);
    }

    #[test]
    fn eviction_addresses_are_reported() {
        // Victims leave oldest fill first, only as many as the new
        // function needs.
        let mut mc = cache(4, 16, ReplacementPolicy::Fifo);
        mc.access(0x0, 16);
        mc.access(0x100, 16);
        mc.access(0x200, 32);
        assert_eq!(mc.access(0x300, 16).evicted, 1);
        assert!(!mc.contains(0x0), "the oldest fill goes first");
        assert!(mc.contains(0x100) && mc.contains(0x200) && mc.contains(0x300));
        assert_eq!(mc.access(0x400, 32).evicted, 2);
        assert!(
            !mc.contains(0x100) && !mc.contains(0x200),
            "then the next oldest"
        );
        assert!(mc.contains(0x300) && mc.contains(0x400));
        // Streaming an oversized function flushes every resident, and
        // the streamed function itself never becomes resident.
        assert_eq!(mc.access(0x500, 1000).evicted, 2);
        assert_eq!(mc.used_blocks(), 0);
        assert!(!mc.contains(0x300) && !mc.contains(0x400) && !mc.contains(0x500));
        assert_eq!(
            mc.access(0x600, 16).evicted,
            0,
            "nothing resident after streaming"
        );
    }

    #[test]
    fn zero_sized_function_takes_one_block() {
        let cfg = MethodCacheConfig::new(4, 16, ReplacementPolicy::Fifo);
        assert_eq!(cfg.blocks_for(0), 1);
        assert_eq!(cfg.blocks_for(16), 1);
        assert_eq!(cfg.blocks_for(17), 2);
    }
}
