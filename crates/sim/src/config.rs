//! Simulator configuration.

use patmos_mem::{MemConfig, MethodCacheConfig, ReplacementPolicy, TdmaArbiter};

use crate::error::SimError;
use crate::faults::FaultPlan;

/// Geometry of a set-associative cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in words (power of two).
    pub line_words: u32,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheParams {
    /// Convenience constructor.
    pub fn new(sets: u32, ways: u32, line_words: u32, policy: ReplacementPolicy) -> CacheParams {
        CacheParams {
            sets,
            ways,
            line_words,
            policy,
        }
    }

    /// Capacity in words.
    pub fn capacity_words(&self) -> u32 {
        self.sets * self.ways * self.line_words
    }
}

/// Full configuration of one Patmos core.
///
/// Two configs are equal when every field is. A fault campaign compares
/// the machine a golden run recorded with the machine an injection asks
/// for, leaving out [`SimConfig::faults`] and [`SimConfig::max_cycles`],
/// which every injected run sets for itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Issue both slots (`true`, the paper's design) or force
    /// single-issue (the E2 ablation baseline).
    pub dual_issue: bool,
    /// Report visible-delay violations as errors instead of delivering
    /// stale values.
    pub strict: bool,
    /// Method-cache geometry.
    pub method_cache: MethodCacheConfig,
    /// Stack-cache capacity in words.
    pub stack_cache_words: u32,
    /// Heap data cache (the paper's "highly associative" D$).
    pub data_cache: CacheParams,
    /// Static-data/constant cache (set-associative C$).
    pub static_cache: CacheParams,
    /// Scratchpad size in bytes (power of two).
    pub spm_bytes: usize,
    /// Main-memory timing.
    pub mem: MemConfig,
    /// TDMA arbitration for the CMP configuration: `(arbiter, core id)`.
    /// `None` for a single core with a dedicated memory port. A schedule
    /// that cannot serve the core is a [`SimError`] from the first step
    /// (or from [`crate::Simulator::try_new`]).
    pub tdma: Option<(TdmaArbiter, u32)>,
    /// Abort after this many cycles (guards against runaway programs).
    pub max_cycles: u64,
    /// Let untraced runs retire stall-free basic-block stretches in
    /// bursts, and let fault campaigns answer injections from the golden
    /// run's recording (guest-cycle and outcome identical; purely a
    /// host-speed switch). `false` never bursts: every bundle takes the
    /// general step, the oracle the engine differential and the
    /// host-throughput experiment compare the burst against. It is also
    /// the campaign's oracle: [`crate::faults::golden_run`] records
    /// nothing, and every [`crate::faults::run_injection`] simulates
    /// from reset. Traced runs never burst, whatever this flag says.
    pub fast_path: bool,
    /// An armed fault-injection plan. `Some`, even empty, keeps the run
    /// on the general step so every bundle passes the injection hooks.
    /// `None` — the default — leaves the hooks dormant and bursting
    /// untouched.
    pub faults: Option<FaultPlan>,
}

impl SimConfig {
    /// Checks that the TDMA schedule, when one is configured, can serve
    /// this core: its index lies inside the schedule, and a cache line
    /// fill fits in one slot (longer transfers are split per slot).
    pub(crate) fn check_tdma(&self) -> Result<(), SimError> {
        let Some((arb, core)) = self.tdma else {
            return Ok(());
        };
        if core >= arb.cores() {
            return Err(SimError::TdmaCoreOutOfRange {
                core,
                cores: arb.cores(),
            });
        }
        let line_words = self
            .data_cache
            .line_words
            .max(self.static_cache.line_words)
            .max(1);
        let burst_cycles = self.mem.burst_cycles(line_words);
        if !arb.fits(burst_cycles) {
            return Err(SimError::TdmaSlotTooShort {
                burst_cycles,
                slot_cycles: arb.slot_cycles(),
            });
        }
        Ok(())
    }
}

impl Default for SimConfig {
    /// The paper-shaped default: dual issue, strict checks, 4 KiB method
    /// cache (16 × 64 words, FIFO), 256-word stack cache, 32-way fully
    /// associative 1 KiB heap cache (LRU), 2-way 2 KiB static cache
    /// (LRU), 4 KiB scratchpad.
    fn default() -> SimConfig {
        SimConfig {
            dual_issue: true,
            strict: true,
            method_cache: MethodCacheConfig::default(),
            stack_cache_words: 256,
            data_cache: CacheParams::new(1, 32, 8, ReplacementPolicy::Lru),
            static_cache: CacheParams::new(32, 2, 8, ReplacementPolicy::Lru),
            spm_bytes: 4096,
            mem: MemConfig::default(),
            tdma: None,
            max_cycles: 200_000_000,
            fast_path: true,
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_dual_issue_and_strict() {
        let cfg = SimConfig::default();
        assert!(cfg.dual_issue);
        assert!(cfg.strict);
        assert!(cfg.tdma.is_none());
        assert!(cfg.fast_path);
        assert!(cfg.faults.is_none());
    }

    #[test]
    fn cache_params_capacity() {
        let p = CacheParams::new(32, 2, 8, ReplacementPolicy::Lru);
        assert_eq!(p.capacity_words(), 512);
    }
}
