//! The baseline machine: Patmos semantics, conventional timing.

use patmos_asm::ObjectImage;
use patmos_isa::{MemArea, Op, Reg};
use patmos_mem::{CacheStats, ReplacementPolicy, SetAssocCache};
use patmos_sim::{SimConfig, SimError, Simulator};
use patmos_trace::{TraceEvent, TraceSink};

use crate::predictor::BranchPredictor;

/// Byte address of the code image.
const CODE_BASE: u32 = 0;
/// Where the baseline maps the scratchpad area (it has no scratchpad, so
/// SPM-typed accesses become ordinary cached memory in a reserved range).
const SPM_ALIAS_BASE: u32 = 0x0900_0000;

/// Configuration of the conventional machine.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Instruction-cache geometry `(sets, ways, line_words)`.
    pub icache: (u32, u32, u32),
    /// Unified data-cache geometry `(sets, ways, line_words)`.
    pub dcache: (u32, u32, u32),
    /// Replacement policy of both caches.
    pub policy: ReplacementPolicy,
    /// Main-memory timing.
    pub mem: patmos_mem::MemConfig,
    /// Entries in the bimodal predictor.
    pub predictor_entries: usize,
    /// Penalty cycles for a mispredicted conditional branch.
    pub mispredict_penalty: u32,
    /// Penalty cycles for indirect calls and returns (no BTB).
    pub indirect_penalty: u32,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for BaselineConfig {
    /// 4 KiB I$ (32 sets × 4 ways × 8 words), 4 KiB unified D$, LRU,
    /// 256-entry predictor, 3-cycle misprediction penalty — a small
    /// conventional embedded core.
    fn default() -> BaselineConfig {
        BaselineConfig {
            icache: (32, 4, 8),
            dcache: (32, 4, 8),
            policy: ReplacementPolicy::Lru,
            mem: patmos_mem::MemConfig::default(),
            predictor_entries: 256,
            mispredict_penalty: 3,
            indirect_penalty: 2,
            max_cycles: 200_000_000,
        }
    }
}

/// Counters of a baseline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineStats {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions executed (guard-true, non-nop).
    pub insts_executed: u64,
    /// Bundles processed.
    pub bundles: u64,
    /// Conditional control transfers seen by the predictor.
    pub predicted_branches: u64,
    /// Mispredictions among them.
    pub mispredicts: u64,
    /// Cycles lost to instruction-cache misses.
    pub stall_icache: u64,
    /// Cycles lost to data-cache misses (all areas, unified).
    pub stall_dcache: u64,
    /// Cycles lost to branch mispredictions and indirect penalties.
    pub stall_branch: u64,
    /// Instruction-cache counters.
    pub icache: CacheStats,
    /// Unified data-cache counters.
    pub dcache: CacheStats,
}

/// Result of a completed baseline run.
#[derive(Debug, Clone, Copy)]
pub struct BaselineResult {
    /// Execution counters.
    pub stats: BaselineStats,
}

/// What the timing model needs of one bundle, decoded once.
#[derive(Debug, Clone, Copy, Default)]
struct Fetch {
    /// Words fetched through the I$.
    words: u32,
    /// Issue cycles: one per occupied slot.
    slots: u64,
    /// A guarded control transfer other than `halt`: the predictor
    /// sees it, and the retiring bundle's `taken_branch` is its guard.
    predicted: bool,
    /// `callr` or `ret`: no BTB, so taking it pays the indirect penalty.
    indirect: bool,
}

/// The conventional timing model: a trace sink that prices the Patmos
/// core's `Retire` and `DataAccess` events.
#[derive(Debug, Clone)]
struct ConventionalTiming {
    config: BaselineConfig,
    /// Indexed by word address; only bundle starts retire.
    fetch: Vec<Fetch>,
    icache: SetAssocCache,
    dcache: SetAssocCache,
    predictor: BranchPredictor,
    /// Counters so far; `cycles` is the clock.
    stats: BaselineStats,
}

impl ConventionalTiming {
    fn new(image: &ObjectImage, config: BaselineConfig) -> ConventionalTiming {
        let mut fetch = vec![Fetch::default(); image.code().len()];
        // An image that does not decode leaves the table empty: the core
        // reports it at its first step.
        for (addr, bundle) in image.decode().into_iter().flatten() {
            let flow = bundle.flow_inst();
            fetch[addr as usize] = Fetch {
                words: bundle.width_words(),
                slots: bundle.slots().count() as u64,
                predicted: flow.is_some_and(|i| !matches!(i.op, Op::Halt) && !i.guard.is_always()),
                indirect: flow.is_some_and(|i| matches!(i.op, Op::CallR { .. } | Op::Ret)),
            };
        }
        let cache = |(sets, ways, line)| SetAssocCache::new(sets, ways, line, config.policy);
        ConventionalTiming {
            fetch,
            icache: cache(config.icache),
            dcache: cache(config.dcache),
            predictor: BranchPredictor::new(config.predictor_entries),
            stats: BaselineStats::default(),
            config,
        }
    }

    /// Cycles of a `words`-word line fill, added to the clock.
    fn fill(&mut self, words: u32) -> u64 {
        let stall = self.config.mem.burst_cycles(words) as u64;
        self.stats.cycles += stall;
        stall
    }

    /// A branch penalty of `cycles` cycles.
    fn penalty(&mut self, cycles: u32) {
        self.stats.stall_branch += cycles as u64;
        self.stats.cycles += cycles as u64;
    }

    /// One bundle at `pc` retired: fetch, single issue, prediction.
    fn retire(&mut self, pc: u32, executed: u8, taken: bool) {
        let bundle = self.fetch[pc as usize];
        // Instruction fetch: every word through the I$.
        for w in 0..bundle.words {
            let res = self.icache.access(CODE_BASE + (pc + w) * 4, false);
            if !res.hit {
                self.stats.stall_icache += self.fill(res.transfer_words);
            }
        }
        self.stats.cycles += bundle.slots;
        self.stats.bundles += 1;
        self.stats.insts_executed += executed as u64;
        // Conditional control transfers exercise the predictor whether
        // taken or not.
        if bundle.predicted {
            self.stats.predicted_branches += 1;
            if self.predictor.predict(pc) != taken {
                self.stats.mispredicts += 1;
                self.penalty(self.config.mispredict_penalty);
            }
            self.predictor.update(pc, taken);
        }
        if taken && bundle.indirect {
            self.penalty(self.config.indirect_penalty);
        }
    }

    /// One load or store through the unified D$. Loads block on a miss
    /// (`ldm` included, so the split `wres` is free); stores never stall.
    fn data(&mut self, addr: u32, area: MemArea, store: bool) {
        let addr = match area {
            MemArea::Spm => SPM_ALIAS_BASE.wrapping_add(addr),
            _ => addr,
        };
        let res = self.dcache.access(addr, store);
        if !res.hit && !store {
            self.stats.stall_dcache += self.fill(res.transfer_words);
        }
    }
}

impl TraceSink for ConventionalTiming {
    fn event(&mut self, e: TraceEvent) {
        match e {
            TraceEvent::Retire {
                pc,
                executed,
                taken_branch,
                ..
            } => self.retire(pc, executed, taken_branch),
            TraceEvent::DataAccess {
                addr, area, store, ..
            } => self.data(addr, area, store),
            _ => {}
        }
    }
}

/// The conventional machine executing a Patmos binary: the Patmos core
/// computes every result, the conventional timing model prices it.
#[derive(Debug, Clone)]
pub struct BaselineSim {
    core: Simulator,
    timing: ConventionalTiming,
}

impl BaselineSim {
    /// Loads an image into a fresh baseline core. A code section that
    /// does not decode is reported by [`BaselineSim::run`].
    pub fn new(image: &ObjectImage, config: BaselineConfig) -> BaselineSim {
        // Non-strict: the conventional machine interlocks instead of
        // exposing delays, and its own cycle budget is the only one.
        let core = SimConfig {
            strict: false,
            max_cycles: u64::MAX,
            ..SimConfig::default()
        };
        BaselineSim {
            core: Simulator::new(image, core),
            timing: ConventionalTiming::new(image, config),
        }
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.core.reg(reg)
    }

    /// Counters so far.
    pub fn stats(&self) -> BaselineStats {
        let timing = &self.timing;
        BaselineStats {
            icache: timing.icache.stats(),
            dcache: timing.dcache.stats(),
            ..timing.stats
        }
    }

    /// Runs to `halt`.
    ///
    /// # Errors
    ///
    /// The Patmos core's [`SimError`], or [`SimError::MaxCyclesExceeded`]
    /// once the comparator's own cycle budget is spent.
    pub fn run(&mut self) -> Result<BaselineResult, SimError> {
        let limit = self.timing.config.max_cycles;
        while !self.core.is_halted() {
            if self.timing.stats.cycles >= limit {
                return Err(SimError::MaxCyclesExceeded { limit });
            }
            self.core.step_traced(&mut self.timing)?;
        }
        Ok(BaselineResult {
            stats: self.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::assemble;

    fn run_src(src: &str) -> (BaselineSim, BaselineResult) {
        let image = assemble(src).expect("assembles");
        let mut sim = BaselineSim::new(&image, BaselineConfig::default());
        let result = sim.run().expect("runs");
        (sim, result)
    }

    const SUM_LOOP: &str = "        .func main\n        li r1 = 0\n        li r2 = 5\nloop:\n        add r1 = r1, r2\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n";

    #[test]
    fn same_results_as_patmos_semantics() {
        let (sim, _) = run_src(SUM_LOOP);
        assert_eq!(sim.reg(Reg::R1), 15);
    }

    #[test]
    fn predictor_learns_the_loop() {
        let (_, result) = run_src(SUM_LOOP);
        assert!(result.stats.predicted_branches >= 5);
        assert!(
            result.stats.mispredicts < result.stats.predicted_branches,
            "a trained bimodal predictor beats always-mispredict"
        );
    }

    #[test]
    fn icache_misses_can_happen_anywhere() {
        let (_, result) = run_src(SUM_LOOP);
        // First pass misses, later iterations hit.
        assert!(result.stats.icache.misses >= 1);
        assert!(result.stats.icache.hits > result.stats.icache.misses);
    }

    #[test]
    fn unified_cache_mixes_stack_and_heap() {
        let (sim, result) = run_src(
            "        .func main\n        sres 2\n        li r1 = 7\n        sws [r0 + 0] = r1\n        lil r2 = 0x10000\n        swd [r2 + 0] = r1\n        lws r3 = [r0 + 0]\n        sfree 2\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R3), 7);
        // All three data accesses went through the one unified cache.
        assert_eq!(result.stats.dcache.accesses, 3);
    }

    #[test]
    fn blocking_main_load_stalls() {
        let (sim, result) = run_src(
            "        .func main\n        lil r2 = 0x20000\n        li r3 = 9\n        stm [r2 + 0] = r3\n        ldm [r2 + 0]\n        wres r1\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 9);
        assert!(result.stats.stall_dcache > 0, "ldm blocks on the miss");
    }

    #[test]
    fn malformed_image_is_an_error_not_a_panic() {
        // A lone word with the size bit set claims a second word that is
        // not there: guaranteed undecodable.
        let image = ObjectImage::from_raw(
            vec![0x8000_0000],
            vec![patmos_asm::FuncInfo {
                name: "main".into(),
                start_word: 0,
                size_words: 1,
            }],
            0,
        );
        let mut sim = BaselineSim::new(&image, BaselineConfig::default());
        assert!(matches!(sim.run(), Err(SimError::MalformedImage { .. })));
    }

    #[test]
    fn call_and_return_work_without_method_cache() {
        let (sim, _) = run_src(
            "        .func callee\n        li r5 = 31\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        call callee\n        nop\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R5), 31);
    }
}
