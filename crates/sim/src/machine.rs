//! The timed interpreter: one Patmos core, cycle-exact under the
//! visible-delay model.

use std::sync::Arc;

use patmos_asm::{FuncInfo, ObjectImage};
use patmos_isa::{
    timing, AccessSize, Bundle, FlowKind, Inst, MemArea, Op, Pred, Reg, SpecialReg, LINK_REG,
    NUM_PREDS, NUM_REGS,
};
use patmos_mem::{
    MainMemory, MethodCache, Scratchpad, SetAssocCache, StackCache, SHADOW_STACK_TOP, STACK_TOP,
};
use patmos_trace::{CacheKind, FaultKind, NullSink, StallCause, TraceEvent, TraceSink};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::{
    CacheSel, ControlFlowMap, FaultPlan, FaultState, FaultTarget, FaultTrigger, FlowCheckState,
    SpecialTarget,
};
use crate::stats::Stats;

/// Byte address where the loader places the code image (method-cache
/// fills read from here).
pub const CODE_BASE: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    ready_at: u64,
    value: u32,
}

/// Where a control transfer goes once its delay slots have retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlowTarget {
    Jump(u32),
    Call(u32),
    Ret(u32),
}

/// One control transfer a logging core retired (see
/// [`Simulator::log_transfers`]): the control-flow checker's input at
/// that point, and what a run the checker stopped there would report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoggedTransfer {
    /// The cycle it retired at.
    pub(crate) cycle: u64,
    pub(crate) target: FlowTarget,
    /// The pc it leaves, past its delay slots: what an installed
    /// checker reports.
    pub(crate) pc: u32,
    /// Whether an armed injection had fired before it.
    pub(crate) landed: bool,
}

#[derive(Debug, Clone, Copy)]
struct PendingFlow {
    target: FlowTarget,
    slots_left: u32,
}

/// The ten counters a retiring bundle can move: exactly the ones its
/// [`TraceEvent::Retire`] reports. The step fills one record per
/// bundle and the burst one per burst; [`Simulator::flush`] adds it
/// into [`Stats`] on every exit, error paths included.
#[derive(Debug, Clone, Copy, Default)]
struct RetireCounts {
    bundles: u64,
    issue_cycles: u64,
    nops: u64,
    insts_executed: u64,
    insts_annulled: u64,
    second_slots_used: u64,
    nop_bundles: u64,
    taken_branches: u64,
    untaken_branches: u64,
    stack_ops: u64,
}

impl RetireCounts {
    /// Issue accounting for a bundle whose slots passed prep. Returns
    /// its issue cycles.
    #[inline(always)]
    fn issue(&mut self, pb: &PreBundle, second: Option<&Prepared>, dual_issue: bool) -> u64 {
        let cycles = if dual_issue || second.is_none() { 1 } else { 2 };
        self.bundles += 1;
        self.issue_cycles += cycles;
        // The second slot counts as used only when it actually executes:
        // an annulled (false-guard) operation occupies the slot but does
        // no work, exactly like an encoded `nop`.
        if second.is_some_and(|s| s.guard_true && !matches!(s.inst.op, Op::Nop)) {
            self.second_slots_used += 1;
        }
        // A bundle of encoded `nop`s is scheduler filler; tracking it
        // separately lets utilisation ratios exclude it.
        if pb.all_nop {
            self.nop_bundles += 1;
        }
        cycles
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Execution counters.
    pub stats: Stats,
    /// The word address of the `halt` bundle.
    pub halt_pc: u32,
}

/// Host-side execution counters of a bursting run: how many bundles
/// and guest cycles the burst retired, and how many the general step
/// retired between bursts.
///
/// These are *not* part of [`Stats`] — they describe how fast the host
/// simulated, never what the guest did, and must stay invisible to the
/// bit-identity contract between bursting and non-bursting runs. A run
/// bursts unless it is traced, [`SimConfig::fast_path`] is `false`, a
/// flow checker is installed or a [`FaultTrigger::RetiredPc`] injection
/// is pending; an armed fault plan's cycle triggers only cut bursts
/// short. A run that never bursts leaves them all zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Bundles retired inside bursts.
    pub fast_bundles: u64,
    /// Guest cycles that elapsed inside bursts.
    pub fast_cycles: u64,
    /// Bundles a bursting run retired through the general step, between
    /// bursts: memory operations, calls, returns, halt.
    pub pre_bundles: u64,
    /// Guest cycles that elapsed in those steps.
    pub pre_cycles: u64,
}

impl HostStats {
    /// Fraction of all guest cycles retired inside bursts (`0.0` when
    /// nothing ran).
    pub fn fast_coverage(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.fast_cycles as f64 / total_cycles as f64
        }
    }

    /// Fraction of all guest cycles a bursting run accounted for: its
    /// bursts plus the steps between them (`0.0` when nothing ran or the
    /// run never burst).
    pub fn predecoded_coverage(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            (self.fast_cycles + self.pre_cycles) as f64 / total_cycles as f64
        }
    }
}

/// One instruction slot with its decode-time-constant facts precomputed:
/// the registers it reads, whether it is a `nop`, and whether it reads
/// `sl`/`sh` (the multiply-gap check). Computing these once, when the
/// image loads, keeps them off the per-bundle path.
#[derive(Debug, Clone, Copy)]
struct PreSlot {
    inst: Inst,
    uses: [Option<Reg>; 2],
    is_nop: bool,
    mfs_mul: bool,
}

impl PreSlot {
    fn new(inst: Inst) -> PreSlot {
        PreSlot {
            inst,
            uses: inst.op.uses(),
            is_nop: matches!(inst.op, Op::Nop),
            mfs_mul: matches!(
                inst.op,
                Op::Mfs {
                    ss: SpecialReg::Sl | SpecialReg::Sh,
                    ..
                }
            ),
        }
    }
}

/// A predecoded bundle: both slots as [`PreSlot`]s plus the bundle-level
/// facts (width, all-nop filler, fast-class membership).
#[derive(Debug, Clone, Copy)]
struct PreBundle {
    first: PreSlot,
    second: Option<PreSlot>,
    width: u32,
    all_nop: bool,
    /// Whether every slot is in the fast class: operations that never
    /// touch a cache, the write buffer, the split-load port, or the
    /// method cache — so retiring them can never stall or trace.
    fast: bool,
}

impl PreBundle {
    fn new(bundle: Bundle) -> PreBundle {
        let mut slots = bundle.slots();
        let first = PreSlot::new(*slots.next().expect("a bundle has a first slot"));
        let second = slots.next().map(|i| PreSlot::new(*i));
        PreBundle {
            width: bundle.width_words(),
            all_nop: first.is_nop && second.as_ref().is_none_or(|s| s.is_nop),
            fast: op_is_fast(&first.inst.op)
                && second.as_ref().is_none_or(|s| op_is_fast(&s.inst.op)),
            first,
            second,
        }
    }
}

/// One slot after prep: its instruction, guard outcome and operand
/// values, all read from the bundle's pre-state.
#[derive(Debug, Clone, Copy)]
struct Prepared {
    inst: Inst,
    guard_true: bool,
    vals: [u32; 2],
}

/// The fast class: operations that can never stall and never trace —
/// register-file ops, plain branches, and stack-cache-window or
/// scratchpad accesses (both are on-chip single-cycle memories with no
/// trace events). Everything that can reach the data/static caches, the
/// write buffer, the split-load port, or the method cache (call/return)
/// is excluded, as is `halt`.
fn op_is_fast(op: &Op) -> bool {
    matches!(
        op,
        Op::Nop
            | Op::AluR { .. }
            | Op::AluI { .. }
            | Op::Mul { .. }
            | Op::LoadImmLow { .. }
            | Op::LoadImmHigh { .. }
            | Op::LoadImm32 { .. }
            | Op::Cmp { .. }
            | Op::CmpI { .. }
            | Op::PredSet { .. }
            | Op::Mts { .. }
            | Op::Mfs { .. }
            | Op::Br { .. }
            | Op::Load {
                area: MemArea::Stack | MemArea::Spm,
                ..
            }
            | Op::Store {
                area: MemArea::Stack | MemArea::Spm,
                ..
            }
    )
}

/// Delay-slot bookkeeping at the end of a retiring bundle: a flow the
/// bundle opened becomes the pending one, otherwise the pending flow
/// has one delay slot fewer left. Returns the target once the last
/// delay slot has retired.
#[inline(always)]
fn retire_flow(
    pending: &mut Option<PendingFlow>,
    new_flow: Option<PendingFlow>,
) -> Option<FlowTarget> {
    let fresh = new_flow.is_some();
    let mut flow = new_flow.or(pending.take())?;
    if !fresh {
        flow.slots_left = flow.slots_left.saturating_sub(1);
    }
    if flow.slots_left == 0 {
        Some(flow.target)
    } else {
        *pending = Some(flow);
        None
    }
}

/// One Patmos core executing an [`ObjectImage`].
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
    /// The image's bundles, predecoded once at construction and indexed
    /// by word address. Continuation words are `None`, so a PC that is
    /// not a bundle start faults as [`SimError::BadPc`]. Execution reads
    /// code only from here, never from main memory. Immutable, so clones
    /// share it.
    code: Arc<[Option<PreBundle>]>,
    functions: Arc<[FuncInfo]>,
    mem: MainMemory,
    spm: Scratchpad,
    mcache: MethodCache,
    dcache: SetAssocCache,
    ccache: SetAssocCache,
    scache: StackCache,
    regs: [u32; NUM_REGS],
    preds: [bool; NUM_PREDS],
    sl: u32,
    sh: u32,
    sm: u32,
    pc: u32,
    now: u64,
    bundle_index: u64,
    reg_ready: [u64; NUM_REGS],
    mul_ready: u64,
    pending_load: Option<PendingLoad>,
    wb_drains_at: u64,
    pending_flow: Option<PendingFlow>,
    stats: Stats,
    halted: bool,
    started: bool,
    host: HostStats,
    /// A malformed image or a TDMA schedule that cannot serve this core,
    /// surfaced as an error at the first step instead of a panic.
    setup_error: Option<SimError>,
    /// Live fault-injection state when [`SimConfig::faults`] is armed.
    faults: Option<Box<FaultState>>,
    /// The control-flow checker, when installed.
    flow_check: Option<Box<FlowCheckState>>,
    /// Every retired control transfer, when logging.
    transfer_log: Option<Vec<LoggedTransfer>>,
}

impl Simulator {
    /// Loads an image into a fresh core.
    ///
    /// A malformed code image or a TDMA schedule that cannot serve the
    /// core does not panic here: the error is stored and returned by the
    /// first step. Use [`Simulator::try_new`] to surface it at
    /// construction.
    pub fn new(image: &ObjectImage, config: SimConfig) -> Simulator {
        let mut code = vec![None; image.code().len()];
        let setup_error = match image.decode() {
            Ok(bundles) => {
                for (addr, bundle) in bundles {
                    code[addr as usize] = Some(PreBundle::new(bundle));
                }
                config.check_tdma().err()
            }
            Err(e) => Some(SimError::MalformedImage {
                reason: e.to_string(),
            }),
        };
        let mut mem = MainMemory::new(config.mem);
        mem.load_words(CODE_BASE, image.code());
        for seg in image.data() {
            mem.load_bytes(seg.addr, &seg.bytes);
        }
        let mut regs = [0u32; NUM_REGS];
        regs[patmos_isa::SHADOW_SP.index() as usize] = SHADOW_STACK_TOP;
        let mut preds = [false; NUM_PREDS];
        preds[0] = true;

        Simulator {
            code: code.into(),
            functions: image.functions().into(),
            spm: Scratchpad::new(config.spm_bytes),
            mcache: MethodCache::new(config.method_cache),
            dcache: SetAssocCache::new(
                config.data_cache.sets,
                config.data_cache.ways,
                config.data_cache.line_words,
                config.data_cache.policy,
            ),
            ccache: SetAssocCache::new(
                config.static_cache.sets,
                config.static_cache.ways,
                config.static_cache.line_words,
                config.static_cache.policy,
            ),
            scache: StackCache::new(config.stack_cache_words, STACK_TOP),
            mem,
            regs,
            preds,
            sl: 0,
            sh: 0,
            sm: 0,
            pc: image.entry_word(),
            now: 0,
            bundle_index: 0,
            reg_ready: [0; NUM_REGS],
            mul_ready: 0,
            pending_load: None,
            wb_drains_at: 0,
            pending_flow: None,
            stats: Stats::default(),
            halted: false,
            started: false,
            host: HostStats::default(),
            setup_error,
            faults: config.faults.as_ref().map(|p| Box::new(FaultState::new(p))),
            flow_check: None,
            transfer_log: None,
            config,
        }
    }

    /// Loads an image into a fresh core, rejecting one that cannot run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedImage`] if the image's code section
    /// does not decode into bundles, and [`SimError::TdmaSlotTooShort`]
    /// or [`SimError::TdmaCoreOutOfRange`] if the configured TDMA
    /// schedule cannot serve this core.
    pub fn try_new(image: &ObjectImage, config: SimConfig) -> Result<Simulator, SimError> {
        let sim = Simulator::new(image, config);
        match &sim.setup_error {
            Some(e) => Err(e.clone()),
            None => Ok(sim),
        }
    }

    /// Reads a general-purpose register (for inspecting results).
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.index() as usize]
    }

    /// Writes a general-purpose register (for test setup).
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        if !reg.is_zero() {
            self.regs[reg.index() as usize] = value;
        }
    }

    /// Reads a predicate register.
    pub fn pred(&self, pred: Pred) -> bool {
        self.preds[pred.index() as usize]
    }

    /// The main memory (for inspecting results).
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable main memory (for preparing inputs).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// The scratchpad.
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.spm
    }

    /// Execution counters so far.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.cycles = self.now;
        s.method_cache = self.mcache.stats();
        s.data_cache = self.dcache.stats();
        s.static_cache = self.ccache.stats();
        s.stack_cache = self.scache.stats();
        s
    }

    /// Host-side counters of the burst (how the run was simulated, not
    /// what the guest did).
    pub fn host_stats(&self) -> HostStats {
        self.host
    }

    /// Whether the core reached `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// The current program counter (word address).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Runs until `halt` or an error.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for contract violations (strict mode), bad
    /// control flow, or an exceeded cycle budget.
    pub fn run(&mut self) -> Result<RunResult, SimError> {
        self.run_traced(&mut NullSink)
    }

    /// Runs until `halt` or an error, streaming [`TraceEvent`]s into the
    /// sink. With [`NullSink`] this is exactly [`Simulator::run`]: the
    /// `if S::ENABLED` guards compile every event construction away, so
    /// a traced run is cycle-bit-identical to an untraced one.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`].
    pub fn run_traced<S: TraceSink>(&mut self, sink: &mut S) -> Result<RunResult, SimError> {
        // Bursts emit no trace events, run no flow check and count no
        // retirements of a pc, so a traced run, an installed flow
        // checker, a pending retired-pc trigger or `fast_path: false`
        // steps every bundle. An armed plan's cycle triggers stop each
        // burst before their cycle, and the burst logs its jumps, so
        // armed and logging cores burst. The engine differential sweep
        // proves the choice invisible to the guest.
        if S::ENABLED
            || !self.config.fast_path
            || self.flow_check.is_some()
            || self.retire_trigger_pending()
        {
            while !self.halted {
                self.step_traced(sink)?;
            }
        } else {
            // Non-generic on purpose: every crate that instantiates
            // `run_traced::<NullSink>` links the one copy of the burst
            // instead of re-optimizing the hot loop locally.
            self.run_bursts()?;
        }
        Ok(RunResult {
            stats: self.stats(),
            halt_pc: self.pc,
        })
    }

    /// The bursting engine: bursts of fast-class bundles, with one
    /// general step for each bundle a burst stops at.
    fn run_bursts(&mut self) -> Result<(), SimError> {
        while !self.halted {
            self.burst()?;
            let before = self.now;
            self.step_traced(&mut NullSink)?;
            self.host.pre_bundles += 1;
            self.host.pre_cycles += self.now - before;
        }
        Ok(())
    }

    /// A main-memory transfer of `words` words: orders it after the
    /// posted-write buffer, waits for TDMA grants, advances time, and
    /// attributes the whole stall to `cause` at word address `pc`. Under
    /// TDMA, transfers that exceed one slot are split into per-slot
    /// chunks (each paying the burst setup again), as a real slotted
    /// memory controller would.
    fn transact_words<S: TraceSink>(
        &mut self,
        words: u32,
        cause: StallCause,
        pc: u32,
        sink: &mut S,
    ) {
        if words == 0 {
            return;
        }
        let begin = self.now;
        match self.config.tdma {
            None => {
                let start = self.now.max(self.wb_drains_at);
                self.now = start + self.mem.burst_cycles(words) as u64;
            }
            Some((arb, core)) => {
                // `SimConfig::check_tdma` admitted the schedule, so even
                // a one-word chunk fits in a slot.
                let cfg = self.mem.config();
                let chunk = ((arb.slot_cycles().saturating_sub(cfg.latency))
                    / cfg.cycles_per_word.max(1))
                .max(1);
                let mut remaining = words;
                while remaining > 0 {
                    let w = remaining.min(chunk);
                    let burst = self.mem.burst_cycles(w);
                    let start = self.now.max(self.wb_drains_at);
                    let granted = arb.grant(core, start, burst);
                    self.stats.stalls.tdma_wait += granted - start;
                    if S::ENABLED && granted > start {
                        sink.event(TraceEvent::TdmaWait {
                            pc,
                            cycle: granted,
                            cycles: granted - start,
                        });
                    }
                    self.now = granted + burst as u64;
                    remaining -= w;
                }
            }
        }
        let stall = self.now - begin;
        match cause {
            StallCause::MethodCache => self.stats.stalls.method_cache += stall,
            StallCause::DataCache => self.stats.stalls.data_cache += stall,
            StallCause::StaticCache => self.stats.stalls.static_cache += stall,
            StallCause::StackCache => self.stats.stalls.stack_cache += stall,
            StallCause::SplitLoad => self.stats.stalls.split_load += stall,
            StallCause::WriteBuffer => self.stats.stalls.write_buffer += stall,
        }
        if S::ENABLED && stall > 0 {
            sink.event(TraceEvent::Stall {
                pc,
                cycle: self.now,
                cycles: stall,
                cause,
            });
        }
    }

    /// Posts a one-word write: stalls only if the buffer is full; the
    /// drain itself happens in the background.
    fn post_write<S: TraceSink>(&mut self, pc: u32, sink: &mut S) {
        if self.wb_drains_at > self.now {
            let wait = self.wb_drains_at - self.now;
            self.stats.stalls.write_buffer += wait;
            self.now = self.wb_drains_at;
            if S::ENABLED {
                sink.event(TraceEvent::Stall {
                    pc,
                    cycle: self.now,
                    cycles: wait,
                    cause: StallCause::WriteBuffer,
                });
            }
        }
        let burst = self.mem.burst_cycles(1);
        let granted = match &self.config.tdma {
            Some((arb, core)) => arb.grant(*core, self.now, burst),
            None => self.now,
        };
        self.wb_drains_at = granted + burst as u64;
    }

    fn function_starting_at(&self, word: u32) -> Option<&FuncInfo> {
        self.functions.iter().find(|f| f.start_word == word)
    }

    fn function_at(&self, word: u32) -> Option<&FuncInfo> {
        self.functions
            .iter()
            .find(|f| word >= f.start_word && word < f.start_word + f.size_words)
    }

    /// Charges a method-cache lookup for the function at `start`/`size`.
    /// The stall (and the lookup event) attribute to the entered
    /// function's first word.
    fn method_fill<S: TraceSink>(&mut self, start: u32, size: u32, sink: &mut S) {
        let access = self.mcache.access(start, size);
        if S::ENABLED {
            sink.event(TraceEvent::CacheAccess {
                pc: start,
                cycle: self.now,
                cache: CacheKind::Method,
                hit: access.hit,
                transfer_words: access.transfer_words,
            });
        }
        if !access.hit {
            self.transact_words(access.transfer_words, StallCause::MethodCache, start, sink);
        }
    }

    /// In strict mode, rejects a read of `reg` by the bundle at `pc`
    /// with index `bundle_index` before the value's visible delay
    /// elapsed.
    #[inline(always)]
    fn check_reg_ready(&self, reg: Reg, pc: u32, bundle_index: u64) -> Result<(), SimError> {
        if !self.config.strict {
            return Ok(());
        }
        let ready = self.reg_ready[reg.index() as usize];
        if ready > bundle_index {
            return Err(SimError::DelayViolation {
                pc,
                reg,
                bundles_short: (ready - bundle_index) as u32,
            });
        }
        Ok(())
    }

    fn effective_address(&self, area: MemArea, ra: Reg, offset: i16, size: AccessSize) -> u32 {
        let scaled = (offset as i32).wrapping_mul(size.bytes() as i32) as u32;
        let raw = self.regs[ra.index() as usize].wrapping_add(scaled);
        match area {
            MemArea::Stack => self.scache.stack_top().wrapping_add(raw),
            _ => raw,
        }
    }

    fn mem_read(&self, addr: u32, size: AccessSize, spm: bool) -> u32 {
        if spm {
            match size {
                AccessSize::Byte => self.spm.read_byte(addr) as u32,
                AccessSize::Half => self.spm.read_half(addr) as u32,
                AccessSize::Word => self.spm.read_word(addr),
            }
        } else {
            match size {
                AccessSize::Byte => self.mem.read_byte(addr) as u32,
                AccessSize::Half => self.mem.read_half(addr) as u32,
                AccessSize::Word => self.mem.read_word(addr),
            }
        }
    }

    fn mem_write(&mut self, addr: u32, size: AccessSize, value: u32, spm: bool) {
        if spm {
            match size {
                AccessSize::Byte => self.spm.write_byte(addr, value as u8),
                AccessSize::Half => self.spm.write_half(addr, value as u16),
                AccessSize::Word => self.spm.write_word(addr, value),
            }
        } else {
            match size {
                AccessSize::Byte => self.mem.write_byte(addr, value as u8),
                AccessSize::Half => self.mem.write_half(addr, value as u16),
                AccessSize::Word => self.mem.write_word(addr, value),
            }
        }
    }

    /// Reports an executed load or store at `ea` by the bundle at `pc`.
    #[inline(always)]
    fn data_access<S: TraceSink>(
        &self,
        pc: u32,
        ea: u32,
        area: MemArea,
        store: bool,
        sink: &mut S,
    ) {
        if S::ENABLED {
            sink.event(TraceEvent::DataAccess {
                pc,
                cycle: self.now,
                addr: ea,
                area,
                store,
            });
        }
    }

    /// In strict mode, rejects a stack-cache access at `ea` by the
    /// bundle at `pc` outside the cached window.
    #[inline(always)]
    fn check_stack_window(&self, ea: u32, pc: u32) -> Result<(), SimError> {
        if !self.config.strict {
            return Ok(());
        }
        let st = self.scache.stack_top();
        let offset_words = ea.wrapping_sub(st) / 4;
        if ea < st || !self.scache.covers(offset_words) {
            return Err(SimError::StackWindowViolation { pc, offset_words });
        }
        Ok(())
    }

    /// Executes one bundle.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_traced(&mut NullSink)
    }

    /// Executes one bundle, streaming its [`TraceEvent`]s into the sink.
    ///
    /// This is the one general step. A run that does not burst takes it
    /// for every bundle; a bursting run takes it for each bundle a burst
    /// stops at.
    ///
    /// # Errors
    ///
    /// As [`Simulator::step`].
    pub fn step_traced<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        if let Some(e) = &self.setup_error {
            return Err(e.clone());
        }
        if !self.started {
            self.started = true;
            // Cold start: the entry function streams into the method cache.
            if let Some(f) = self.function_at(self.pc).cloned() {
                self.method_fill(f.start_word, f.size_words, sink);
            }
        }
        if self.now >= self.config.max_cycles {
            return Err(SimError::MaxCyclesExceeded {
                limit: self.config.max_cycles,
            });
        }
        if self.fault_pending() {
            self.service_cycle_faults(sink);
        }

        let this_pc = self.pc;
        let pb = self
            .code
            .get(this_pc as usize)
            .copied()
            .flatten()
            .ok_or(SimError::BadPc { pc: this_pc })?;

        // --- Prep: both slots read the pre-state; a violation leaves
        // the bundle unissued ---
        let first = self.prep_slot(&pb.first, this_pc, self.bundle_index)?;
        let second = match &pb.second {
            Some(s) => Some(self.prep_slot(s, this_pc, self.bundle_index)?),
            None => None,
        };

        // --- Issue ---
        let in_delay_slot = self.pending_flow.is_some();
        let mut c = RetireCounts::default();
        self.now += c.issue(&pb, second.as_ref(), self.config.dual_issue);
        self.bundle_index += 1;
        let issue_end = self.now;

        // --- Effects: a fault in the second slot leaves the first
        // slot's effects standing; the counters are flushed either way ---
        let bi = self.bundle_index;
        let mut new_flow = None;
        let mut effects = self.exec_slot(
            first,
            this_pc,
            bi,
            in_delay_slot,
            &mut new_flow,
            &mut c,
            sink,
        );
        if let (Ok(()), Some(s)) = (&effects, second) {
            effects = self.exec_slot(s, this_pc, bi, in_delay_slot, &mut new_flow, &mut c, sink);
        }
        self.flush(c);
        effects?;

        // Every bundle retires exactly one event, the halt bundle
        // included — the event stream reconciles with the counters.
        if S::ENABLED {
            sink.event(TraceEvent::Retire {
                pc: this_pc,
                cycle: issue_end,
                issue_cycles: c.issue_cycles,
                executed: c.insts_executed as u8,
                annulled: c.insts_annulled as u8,
                nops: c.nops as u8,
                second_slot_used: c.second_slots_used > 0,
                nop_bundle: c.nop_bundles > 0,
                stack_ops: c.stack_ops as u8,
                taken_branch: c.taken_branches > 0,
                untaken_branches: c.untaken_branches as u8,
            });
        }

        // --- Retire: advance the PC, count down delay slots, redirect ---
        if !self.halted {
            self.pc = this_pc.wrapping_add(pb.width);
            if let Some(target) = retire_flow(&mut self.pending_flow, new_flow) {
                self.redirect(target, sink)?;
            }
        }
        if self.fault_pending() {
            self.service_retire_faults(this_pc, sink);
        }
        Ok(())
    }

    /// Installs the control-flow checker: every retired call and return
    /// (and loop-header entry) is validated against `map`. It keeps the
    /// run on the general step, which is where the check lives.
    pub fn install_flow_checker(&mut self, map: ControlFlowMap) {
        self.flow_check = Some(Box::new(FlowCheckState::new(map)));
    }

    /// Logs every control transfer this core retires from here on into
    /// `log`, emptied first. Each entry is pushed before the checker
    /// sees the transfer and before any error the transfer raises, so a
    /// checker folded over the log afterwards sees what an installed one
    /// would have seen. A logging core still bursts: the burst logs the
    /// jumps it retires through the same [`Simulator::log_transfer`] as
    /// the step.
    pub(crate) fn log_transfers(&mut self, mut log: Vec<LoggedTransfer>) {
        log.clear();
        self.transfer_log = Some(log);
    }

    /// The transfer log, taken off the core (empty when none was kept).
    pub(crate) fn take_transfer_log(&mut self) -> Vec<LoggedTransfer> {
        self.transfer_log.take().unwrap_or_default()
    }

    /// Arms `plan` on this core mid-run, with the watchdog at
    /// `max_cycles`: what [`SimConfig::faults`] and
    /// [`SimConfig::max_cycles`] set at construction, applied to a clone
    /// of a golden run's checkpoint. The plan's triggers must still lie
    /// ahead of the core.
    pub(crate) fn arm(&mut self, plan: &FaultPlan, max_cycles: u64) {
        self.faults = Some(Box::new(FaultState::new(plan)));
        self.config.faults = Some(plan.clone());
        self.config.max_cycles = max_cycles;
    }

    /// The predecoded bundles with their word addresses, in address
    /// order: the first slot and, in a dual-issue bundle, the second.
    pub(crate) fn bundles(&self) -> impl Iterator<Item = (u32, Inst, Option<Inst>)> + '_ {
        self.code.iter().enumerate().filter_map(|(addr, pb)| {
            pb.map(|pb| (addr as u32, pb.first.inst, pb.second.map(|s| s.inst)))
        })
    }

    /// Cycle of the first fired injection, if any fired yet.
    pub fn fault_injected_at(&self) -> Option<u64> {
        self.faults.as_ref().and_then(|f| f.injected_at)
    }

    /// How many of the armed plan's injections have fired.
    pub fn faults_injected(&self) -> u32 {
        self.faults.as_ref().map_or(0, |f| f.injected)
    }

    /// Whether any armed injection is still waiting to fire. Gates the
    /// per-cycle/per-retirement service calls so an exhausted (or empty)
    /// plan costs one length test per site, not a trigger scan.
    #[inline]
    fn fault_pending(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| !f.pending.is_empty())
    }

    /// Whether a retired-pc-triggered injection is still waiting to fire.
    /// Only the step counts retirements, so such a plan keeps the run off
    /// the burst.
    fn retire_trigger_pending(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            f.pending
                .iter()
                .any(|(inj, _)| matches!(inj.trigger, FaultTrigger::RetiredPc { .. }))
        })
    }

    /// The earliest cycle a pending cycle-triggered injection fires at
    /// (`u64::MAX` when none is pending). A burst issues no bundle from
    /// there on, so the step's fault check fires it.
    fn next_cycle_trigger(&self) -> u64 {
        self.faults
            .as_ref()
            .and_then(|f| {
                f.pending
                    .iter()
                    .filter_map(|(inj, _)| match inj.trigger {
                        FaultTrigger::Cycle(c) => Some(c),
                        FaultTrigger::RetiredPc { .. } => None,
                    })
                    .min()
            })
            .unwrap_or(u64::MAX)
    }

    /// Fires pending cycle-triggered injections whose trigger has
    /// arrived.
    fn service_cycle_faults<S: TraceSink>(&mut self, sink: &mut S) {
        let mut state = self.faults.take().expect("checked by caller");
        let now = self.now;
        let mut fired = Vec::new();
        state.pending.retain(|(inj, _)| {
            if let FaultTrigger::Cycle(c) = inj.trigger {
                if now >= c {
                    fired.push(inj.target);
                    return false;
                }
            }
            true
        });
        if !fired.is_empty() {
            state.injected_at.get_or_insert(now);
            state.injected += fired.len() as u32;
        }
        self.faults = Some(state);
        for target in fired {
            self.apply_fault(target, sink);
        }
    }

    /// Fires pending retired-pc-triggered injections for the bundle that
    /// just retired at `this_pc`.
    fn service_retire_faults<S: TraceSink>(&mut self, this_pc: u32, sink: &mut S) {
        let mut state = self.faults.take().expect("checked by caller");
        let mut fired = Vec::new();
        state.pending.retain_mut(|(inj, countdown)| {
            if let FaultTrigger::RetiredPc { pc, .. } = inj.trigger {
                if pc == this_pc {
                    *countdown = countdown.saturating_sub(1);
                    if *countdown == 0 {
                        fired.push(inj.target);
                        return false;
                    }
                }
            }
            true
        });
        if !fired.is_empty() {
            state.injected_at.get_or_insert(self.now);
            state.injected += fired.len() as u32;
        }
        self.faults = Some(state);
        for target in fired {
            self.apply_fault(target, sink);
        }
    }

    /// Flips the targeted state. r0 and p0 stay hardwired; a flip aimed
    /// at them is masked by construction, exactly like the hardware.
    fn apply_fault<S: TraceSink>(&mut self, target: FaultTarget, sink: &mut S) {
        match target {
            FaultTarget::Register { reg, bit } => {
                let idx = (reg as usize) % NUM_REGS;
                if idx != 0 {
                    self.regs[idx] ^= 1 << (bit % 32);
                }
            }
            FaultTarget::Predicate { pred } => {
                let idx = (pred as usize) % NUM_PREDS;
                if idx != 0 {
                    self.preds[idx] = !self.preds[idx];
                }
            }
            FaultTarget::Special { reg, bit } => {
                let mask = 1u32 << (bit % 32);
                match reg {
                    SpecialTarget::Sl => self.sl ^= mask,
                    SpecialTarget::Sh => self.sh ^= mask,
                    SpecialTarget::Sm => self.sm ^= mask,
                }
            }
            FaultTarget::Memory { addr, bit } => {
                let a = addr & !3;
                let w = self.mem.read_word(a) ^ (1 << (bit % 32));
                self.mem.write_word(a, w);
            }
            FaultTarget::CacheTags { cache } => match cache {
                CacheSel::Data => self.dcache.invalidate_all(),
                CacheSel::Static => self.ccache.invalidate_all(),
            },
        }
        if S::ENABLED {
            sink.event(TraceEvent::FaultInjected {
                pc: self.pc,
                cycle: self.now,
                kind: fault_kind(target),
            });
        }
    }

    /// Executes one prepared slot of the bundle at `this_pc`, whose
    /// index after issue is `bi`: the counter updates (into `c`), the
    /// architectural state change, and any stall it triggers. The step
    /// and the burst both call it, so the instruction semantics exist
    /// exactly once.
    ///
    /// `in_delay_slot` says a flow was pending when the bundle issued;
    /// `new_flow` collects the flow the bundle opens.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn exec_slot<S: TraceSink>(
        &mut self,
        slot: Prepared,
        this_pc: u32,
        bi: u64,
        in_delay_slot: bool,
        new_flow: &mut Option<PendingFlow>,
        c: &mut RetireCounts,
        sink: &mut S,
    ) -> Result<(), SimError> {
        let Prepared {
            inst,
            guard_true,
            vals,
        } = slot;
        if matches!(inst.op, Op::Nop) {
            c.nops += 1;
            return Ok(());
        }
        if !guard_true {
            c.insts_annulled += 1;
            if inst.op.is_flow() && !matches!(inst.op, Op::Halt) {
                c.untaken_branches += 1;
            }
            return Ok(());
        }
        c.insts_executed += 1;
        match inst.op {
            Op::Nop => unreachable!("handled above"),
            Op::AluR { op, rd, .. } => {
                self.write_reg(rd, op.apply(vals[0], vals[1]), bi);
            }
            Op::AluI { op, rd, imm, .. } => {
                self.write_reg(rd, op.apply(vals[0], imm as i32 as u32), bi);
            }
            Op::Mul { .. } => {
                let prod = (vals[0] as i32 as i64).wrapping_mul(vals[1] as i32 as i64);
                self.sl = prod as u32;
                self.sh = (prod >> 32) as u32;
                self.mul_ready = bi + timing::MUL_GAP as u64;
            }
            Op::LoadImmLow { rd, imm } => {
                self.write_reg(rd, imm as i16 as i32 as u32, bi);
            }
            Op::LoadImmHigh { rd, imm } => {
                let low = self.regs[rd.index() as usize] & 0xffff;
                self.write_reg(rd, ((imm as u32) << 16) | low, bi);
            }
            Op::LoadImm32 { rd, imm } => {
                self.write_reg(rd, imm, bi);
            }
            Op::Cmp { op, pd, .. } => {
                self.write_pred(pd, op.apply(vals[0], vals[1]));
            }
            Op::CmpI { op, pd, imm, .. } => {
                self.write_pred(pd, op.apply(vals[0], imm as i32 as u32));
            }
            Op::PredSet { op, pd, p1, p2 } => {
                let a = self.preds[p1.pred.index() as usize] ^ p1.negate;
                let b = self.preds[p2.pred.index() as usize] ^ p2.negate;
                self.write_pred(pd, op.apply(a, b));
            }
            Op::Load {
                area,
                size,
                rd,
                ra,
                offset,
            } => {
                let ea = self.effective_address(area, ra, offset, size);
                let value = match area {
                    MemArea::Stack => {
                        self.check_stack_window(ea, this_pc)?;
                        c.stack_ops += 1;
                        self.mem_read(ea, size, false)
                    }
                    MemArea::Spm => self.mem_read(ea, size, true),
                    MemArea::Static | MemArea::Data => {
                        let (result, kind, cause) = if area == MemArea::Static {
                            (
                                self.ccache.access(ea, false),
                                CacheKind::Static,
                                StallCause::StaticCache,
                            )
                        } else {
                            (
                                self.dcache.access(ea, false),
                                CacheKind::Data,
                                StallCause::DataCache,
                            )
                        };
                        if S::ENABLED {
                            sink.event(TraceEvent::CacheAccess {
                                pc: this_pc,
                                cycle: self.now,
                                cache: kind,
                                hit: result.hit,
                                transfer_words: result.transfer_words,
                            });
                        }
                        if !result.hit {
                            self.transact_words(result.transfer_words, cause, this_pc, sink);
                        }
                        self.mem_read(ea, size, false)
                    }
                    MemArea::Main => return Err(SimError::IllegalMainAccess { pc: this_pc }),
                };
                self.data_access(this_pc, ea, area, false, sink);
                self.write_reg(rd, value, bi + timing::LOAD_USE_GAP as u64);
            }
            Op::Store {
                area,
                size,
                ra,
                offset,
                rs: _,
            } => {
                let ea = self.effective_address(area, ra, offset, size);
                let value = vals[1];
                match area {
                    MemArea::Stack => {
                        self.check_stack_window(ea, this_pc)?;
                        c.stack_ops += 1;
                        self.mem_write(ea, size, value, false);
                    }
                    MemArea::Spm => self.mem_write(ea, size, value, true),
                    MemArea::Static | MemArea::Data => {
                        let (result, kind) = if area == MemArea::Static {
                            (self.ccache.access(ea, true), CacheKind::Static)
                        } else {
                            (self.dcache.access(ea, true), CacheKind::Data)
                        };
                        if S::ENABLED {
                            sink.event(TraceEvent::CacheAccess {
                                pc: this_pc,
                                cycle: self.now,
                                cache: kind,
                                hit: result.hit,
                                transfer_words: result.transfer_words,
                            });
                        }
                        self.mem_write(ea, size, value, false);
                        self.post_write(this_pc, sink);
                    }
                    MemArea::Main => return Err(SimError::IllegalMainAccess { pc: this_pc }),
                }
                self.data_access(this_pc, ea, area, true, sink);
            }
            Op::MainLoad { offset, .. } => {
                if self.pending_load.is_some() {
                    return Err(SimError::LoadStillPending { pc: this_pc });
                }
                let ea = vals[0].wrapping_add((offset as i32 as u32).wrapping_mul(4));
                let value = self.mem.read_word(ea);
                let burst = self.mem.burst_cycles(1);
                let start = self.now.max(self.wb_drains_at);
                let granted = match &self.config.tdma {
                    Some((arb, core)) => arb.grant(*core, start, burst),
                    None => start,
                };
                self.pending_load = Some(PendingLoad {
                    ready_at: granted + burst as u64,
                    value,
                });
                self.data_access(this_pc, ea, MemArea::Main, false, sink);
            }
            Op::MainWait { rd } => match self.pending_load.take() {
                Some(p) => {
                    if p.ready_at > self.now {
                        let wait = p.ready_at - self.now;
                        self.stats.stalls.split_load += wait;
                        self.now = p.ready_at;
                        if S::ENABLED {
                            sink.event(TraceEvent::Stall {
                                pc: this_pc,
                                cycle: self.now,
                                cycles: wait,
                                cause: StallCause::SplitLoad,
                            });
                        }
                    }
                    self.sm = p.value;
                    self.write_reg(rd, p.value, bi);
                }
                None => {
                    if self.config.strict {
                        return Err(SimError::NoPendingLoad { pc: this_pc });
                    }
                    let sm = self.sm;
                    self.write_reg(rd, sm, bi);
                }
            },
            Op::MainStore { offset, .. } => {
                let ea = vals[0].wrapping_add((offset as i32 as u32).wrapping_mul(4));
                self.mem_write(ea, AccessSize::Word, vals[1], false);
                self.post_write(this_pc, sink);
                self.data_access(this_pc, ea, MemArea::Main, true, sink);
            }
            Op::Sres { words } => {
                let effect = self.scache.reserve(words);
                if S::ENABLED {
                    sink.event(TraceEvent::CacheAccess {
                        pc: this_pc,
                        cycle: self.now,
                        cache: CacheKind::Stack,
                        hit: effect.spill_words == 0,
                        transfer_words: effect.spill_words,
                    });
                }
                if effect.spill_words > 0 {
                    self.transact_words(effect.spill_words, StallCause::StackCache, this_pc, sink);
                }
            }
            Op::Sens { words } => {
                // A frame larger than the cache can never be resident.
                if words > self.scache.size_words() {
                    return Err(SimError::StackWindowViolation {
                        pc: this_pc,
                        offset_words: words - 1,
                    });
                }
                let effect = self.scache.ensure(words);
                if S::ENABLED {
                    sink.event(TraceEvent::CacheAccess {
                        pc: this_pc,
                        cycle: self.now,
                        cache: CacheKind::Stack,
                        hit: effect.fill_words == 0,
                        transfer_words: effect.fill_words,
                    });
                }
                if effect.fill_words > 0 {
                    self.transact_words(effect.fill_words, StallCause::StackCache, this_pc, sink);
                }
            }
            Op::Sfree { words } => {
                self.scache.free(words);
                if S::ENABLED {
                    sink.event(TraceEvent::CacheAccess {
                        pc: this_pc,
                        cycle: self.now,
                        cache: CacheKind::Stack,
                        hit: true,
                        transfer_words: 0,
                    });
                }
            }
            Op::Mts { sd, .. } => match sd {
                SpecialReg::Sl => self.sl = vals[0],
                SpecialReg::Sh => self.sh = vals[0],
                SpecialReg::Sm => self.sm = vals[0],
                SpecialReg::St => self.scache.set_stack_top(vals[0] & !3),
                SpecialReg::Ss => self.scache.set_spill_pointer(vals[0] & !3),
            },
            Op::Mfs { rd, ss } => {
                let value = match ss {
                    SpecialReg::Sl => self.sl,
                    SpecialReg::Sh => self.sh,
                    SpecialReg::Sm => self.sm,
                    SpecialReg::St => self.scache.stack_top(),
                    SpecialReg::Ss => self.scache.spill_pointer(),
                };
                self.write_reg(rd, value, bi);
            }
            Op::Br { .. } | Op::Call { .. } | Op::CallR { .. } | Op::Ret | Op::Halt => {
                if matches!(inst.op, Op::Halt) {
                    self.halted = true;
                    return Ok(());
                }
                if in_delay_slot || new_flow.is_some() {
                    return Err(SimError::FlowInDelaySlot { pc: this_pc });
                }
                c.taken_branches += 1;
                let target = match inst.op.flow_kind() {
                    FlowKind::Branch(off) => FlowTarget::Jump(this_pc.wrapping_add(off as u32)),
                    FlowKind::CallDirect(off) => FlowTarget::Call(this_pc.wrapping_add(off as u32)),
                    FlowKind::CallIndirect(_) => FlowTarget::Call(vals[0]),
                    FlowKind::Return => FlowTarget::Ret(vals[0]),
                    FlowKind::None | FlowKind::Halt => unreachable!("flow ops only"),
                };
                *new_flow = Some(PendingFlow {
                    target,
                    slots_left: inst.delay_slots(),
                });
            }
        }
        Ok(())
    }

    /// Prepares one slot of the bundle at `pc` with index
    /// `bundle_index`: contract checks, guard evaluation, operand reads.
    #[inline(always)]
    fn prep_slot(&self, slot: &PreSlot, pc: u32, bundle_index: u64) -> Result<Prepared, SimError> {
        for reg in slot.uses.into_iter().flatten() {
            self.check_reg_ready(reg, pc, bundle_index)?;
        }
        if self.config.strict && slot.mfs_mul && self.mul_ready > bundle_index {
            return Err(SimError::MulGapViolation { pc });
        }
        Ok(Prepared {
            inst: slot.inst,
            guard_true: slot.inst.guard.eval(&self.preds),
            vals: slot
                .uses
                .map(|r| r.map_or(0, |r| self.regs[r.index() as usize])),
        })
    }

    /// Adds a retire-counter record into [`Stats`].
    #[inline(always)]
    fn flush(&mut self, c: RetireCounts) {
        let s = &mut self.stats;
        s.bundles += c.bundles;
        s.issue_cycles += c.issue_cycles;
        s.nops += c.nops;
        s.insts_executed += c.insts_executed;
        s.insts_annulled += c.insts_annulled;
        s.second_slots_used += c.second_slots_used;
        s.nop_bundles += c.nop_bundles;
        s.taken_branches += c.taken_branches;
        s.untaken_branches += c.untaken_branches;
        s.stack_ops += c.stack_ops;
    }

    /// One burst: retires consecutive fast-class bundles with the cycle
    /// counter, bundle index, PC, pending branch and retire counters in
    /// locals, written back once on every exit — error paths included,
    /// so the state at a fault is exactly the step's. Each bundle runs
    /// the step's phases in the step's order through the same
    /// `prep_slot`, issue accounting and `exec_slot`.
    ///
    /// The burst stops at the first bundle outside the fast class or the
    /// table, and before the first bundle that would issue at or past a
    /// pending cycle trigger, which the step then fires exactly where a
    /// stepped run fires it. It does not start before the first step or
    /// while a call or return is pending (those fill the method cache).
    /// It logs every jump it retires when the core keeps a transfer log.
    /// What it leaves out — trace events, the flow check, retired-pc
    /// triggers, stalls, calls and returns — cannot arise for a
    /// fast-class bundle on a run that bursts; for the same reason
    /// `exec_slot` never reads the fields the locals stand in for.
    fn burst(&mut self) -> Result<(), SimError> {
        let call_or_ret_pending = matches!(
            self.pending_flow,
            Some(PendingFlow {
                target: FlowTarget::Call(_) | FlowTarget::Ret(_),
                ..
            })
        );
        if !self.started || call_or_ret_pending {
            return Ok(());
        }
        let dual_issue = self.config.dual_issue;
        let max_cycles = self.config.max_cycles;
        // One compare per bundle covers both stops: the budget and the
        // next cycle trigger.
        let stop = max_cycles.min(self.next_cycle_trigger());
        let entry_now = self.now;
        let mut now = self.now;
        let mut bi = self.bundle_index;
        let mut pc = self.pc;
        let mut pend = self.pending_flow.take();
        let mut c = RetireCounts::default();
        let outcome = (|| -> Result<(), SimError> {
            loop {
                if now >= stop {
                    // The step checks the budget before it fires a fault.
                    return if now >= max_cycles {
                        Err(SimError::MaxCyclesExceeded { limit: max_cycles })
                    } else {
                        Ok(())
                    };
                }
                let pb = match self.code.get(pc as usize) {
                    Some(Some(pb)) if pb.fast => *pb,
                    _ => return Ok(()),
                };
                let first = self.prep_slot(&pb.first, pc, bi)?;
                let second = match &pb.second {
                    Some(s) => Some(self.prep_slot(s, pc, bi)?),
                    None => None,
                };
                let in_delay_slot = pend.is_some();
                now += c.issue(&pb, second.as_ref(), dual_issue);
                bi += 1;
                let mut new_flow = None;
                let sink = &mut NullSink;
                self.exec_slot(first, pc, bi, in_delay_slot, &mut new_flow, &mut c, sink)?;
                if let Some(s) = second {
                    self.exec_slot(s, pc, bi, in_delay_slot, &mut new_flow, &mut c, sink)?;
                }
                pc = pc.wrapping_add(pb.width);
                match retire_flow(&mut pend, new_flow) {
                    Some(target @ FlowTarget::Jump(t)) => {
                        self.log_transfer(now, target, pc);
                        pc = t;
                    }
                    Some(FlowTarget::Call(_) | FlowTarget::Ret(_)) => {
                        unreachable!("the fast class opens only branch flows")
                    }
                    None => {}
                }
            }
        })();
        self.now = now;
        self.bundle_index = bi;
        self.pc = pc;
        self.pending_flow = pend;
        self.flush(c);
        self.host.fast_bundles += c.bundles;
        self.host.fast_cycles += now - entry_now;
        outcome
    }

    /// Pushes a transfer to `target`, retired at `cycle` and leaving
    /// from `pc`, onto the transfer log when the core keeps one. The step
    /// (through [`Simulator::redirect`]) and the burst both log here.
    #[inline(always)]
    fn log_transfer(&mut self, cycle: u64, target: FlowTarget, pc: u32) {
        if let Some(log) = &mut self.transfer_log {
            log.push(LoggedTransfer {
                cycle,
                target,
                pc,
                landed: self
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.injected_at.is_some()),
            });
        }
    }

    fn redirect<S: TraceSink>(&mut self, target: FlowTarget, sink: &mut S) -> Result<(), SimError> {
        self.log_transfer(self.now, target, self.pc);
        if let Some(check) = &mut self.flow_check {
            check.check(target, self.pc)?;
        }
        match target {
            FlowTarget::Jump(t) => {
                if S::ENABLED {
                    sink.event(TraceEvent::Branch {
                        pc: t,
                        cycle: self.now,
                    });
                }
                self.pc = t;
            }
            FlowTarget::Call(t) => {
                let f = self
                    .function_starting_at(t)
                    .cloned()
                    .ok_or(SimError::NotAFunction { target: t })?;
                let link = self.pc;
                self.write_reg(LINK_REG, link, self.bundle_index);
                self.method_fill(f.start_word, f.size_words, sink);
                self.stats.calls += 1;
                if S::ENABLED {
                    sink.event(TraceEvent::Call {
                        pc: t,
                        cycle: self.now,
                    });
                }
                self.pc = t;
            }
            FlowTarget::Ret(t) => {
                let f = self
                    .function_at(t)
                    .cloned()
                    .ok_or(SimError::BadPc { pc: t })?;
                self.method_fill(f.start_word, f.size_words, sink);
                self.stats.returns += 1;
                if S::ENABLED {
                    sink.event(TraceEvent::Return {
                        pc: t,
                        cycle: self.now,
                    });
                }
                self.pc = t;
            }
        }
        Ok(())
    }

    /// Writes `rd`, whose new value becomes readable from bundle index
    /// `ready` on.
    #[inline(always)]
    fn write_reg(&mut self, rd: Reg, value: u32, ready: u64) {
        if rd.is_zero() {
            return;
        }
        self.regs[rd.index() as usize] = value;
        self.reg_ready[rd.index() as usize] = ready;
    }

    fn write_pred(&mut self, pd: Pred, value: bool) {
        if pd.is_always_true() {
            return;
        }
        self.preds[pd.index() as usize] = value;
    }
}

/// The trace-event category of a fault target.
fn fault_kind(target: FaultTarget) -> FaultKind {
    match target {
        FaultTarget::Register { .. } => FaultKind::Register,
        FaultTarget::Predicate { .. } => FaultKind::Predicate,
        FaultTarget::Special { .. } => FaultKind::Special,
        FaultTarget::Memory { .. } => FaultKind::Memory,
        FaultTarget::CacheTags { .. } => FaultKind::CacheTags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::assemble;

    fn run_src(src: &str) -> (Simulator, RunResult) {
        let image = assemble(src).expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        let result = match sim.run() {
            Ok(r) => r,
            Err(e) => panic!("simulation failed: {e}\nsource:\n{src}"),
        };
        (sim, result)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (sim, result) = run_src(
            "        .func main\n        li r1 = 6\n        li r2 = 7\n        add r3 = r1, r2\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R3), 13);
        assert!(result.stats.cycles >= 4);
    }

    #[test]
    fn dual_issue_bundle_executes_both_slots_from_pre_state() {
        // Swap without a temp: both slots read the old values.
        let (sim, _) = run_src(
            "        .func main\n        li r1 = 1\n        li r2 = 2\n        { add r3 = r1, r0 ; add r4 = r2, r0 }\n        { add r1 = r4, r0 ; add r2 = r3, r0 }\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 2);
        assert_eq!(sim.reg(Reg::R2), 1);
    }

    #[test]
    fn guarded_instructions_annul() {
        let (sim, _) = run_src(
            "        .func main\n        li r1 = 5\n        cmpieq p1 = r1, 5\n        (p1) li r2 = 10\n        (!p1) li r3 = 20\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R2), 10);
        assert_eq!(sim.reg(Reg::R3), 0, "annulled");
    }

    #[test]
    fn loop_with_conditional_branch() {
        // Sum 1..=5 with a guarded backwards branch (2 delay slots).
        let (sim, _) = run_src(
            "        .func main\n        li r1 = 0\n        li r2 = 5\nloop:\n        add r1 = r1, r2\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 15);
    }

    #[test]
    fn uncond_branch_has_one_delay_slot() {
        // The single delay slot executes; the skipped instruction does not.
        let (sim, _) = run_src(
            "        .func main\n        br over\n        li r1 = 1\n        li r2 = 2\nover:\n        li r3 = 3\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 1, "delay slot executed");
        assert_eq!(sim.reg(Reg::R2), 0, "skipped");
        assert_eq!(sim.reg(Reg::R3), 3);
    }

    #[test]
    fn cond_branch_has_two_delay_slots() {
        let (sim, _) = run_src(
            "        .func main\n        cmpieq p1 = r0, 0\n        (p1) br over\n        li r1 = 1\n        li r2 = 2\n        li r3 = 3\nover:\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 1, "first delay slot");
        assert_eq!(sim.reg(Reg::R2), 2, "second delay slot");
        assert_eq!(sim.reg(Reg::R3), 0, "beyond delay slots");
    }

    #[test]
    fn call_and_return() {
        let (sim, result) = run_src(
            "        .func double\n        add r1 = r3, r3\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        li r3 = 21\n        lil r10 = double\n        callr r10\n        nop\n        nop\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 42);
        assert_eq!(result.stats.calls, 1);
        assert_eq!(result.stats.returns, 1);
        // Two method-cache fills: entry (cold) + callee; return hits.
        assert_eq!(result.stats.method_cache.misses, 2);
        assert_eq!(result.stats.method_cache.hits, 1);
        assert!(result.stats.stalls.method_cache > 0);
    }

    #[test]
    fn direct_call_links_and_returns() {
        let (sim, _) = run_src(
            "        .func callee\n        li r5 = 99\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        call callee\n        nop\n        li r6 = 1\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R5), 99);
        assert_eq!(sim.reg(Reg::R6), 1, "delay slot of call executed");
    }

    #[test]
    fn load_use_gap_enforced() {
        let image = assemble(
            "        .func main\n        li r2 = 64\n        lwd r1 = [r2 + 0]\n        add r3 = r1, r1\n        halt\n",
        )
        .expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        match sim.run() {
            Err(SimError::DelayViolation { reg, .. }) => assert_eq!(reg, Reg::R1),
            other => panic!("expected delay violation, got {other:?}"),
        }
    }

    #[test]
    fn load_with_gap_ok_and_charges_miss_once() {
        let (sim, result) = run_src(
            "        .func main\n        lil r2 = 0x10000\n        swc [r2 + 0] = r0\n        lwc r1 = [r2 + 0]\n        nop\n        add r3 = r1, r1\n        lwc r4 = [r2 + 0]\n        nop\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R3), 0);
        assert_eq!(sim.reg(Reg::R4), 0);
        assert_eq!(
            result.stats.static_cache.misses, 2,
            "write miss + first read miss"
        );
        assert_eq!(result.stats.static_cache.hits, 1, "second read hits");
    }

    #[test]
    fn mul_gap_enforced() {
        let image = assemble(
            "        .func main\n        li r1 = 3\n        mul r1, r1\n        mfs r2 = sl\n        halt\n",
        )
        .expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        assert!(matches!(sim.run(), Err(SimError::MulGapViolation { .. })));
    }

    #[test]
    fn mul_with_gap_produces_product() {
        let (sim, _) = run_src(
            "        .func main\n        li r1 = 1000\n        li r2 = 1000\n        mul r1, r2\n        nop\n        mfs r3 = sl\n        mfs r4 = sh\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R3), 1_000_000);
        assert_eq!(sim.reg(Reg::R4), 0);
    }

    #[test]
    fn split_load_hides_latency() {
        let (sim, result) = run_src(
            "        .func main\n        lil r2 = 0x20000\n        li r3 = 77\n        stm [r2 + 0] = r3\n        ldm [r2 + 0]\n        li r4 = 1\n        li r5 = 2\n        li r6 = 3\n        li r7 = 4\n        li r8 = 5\n        wres r1\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R1), 77);
        // Five useful bundles between ldm and wres cover most of the
        // 8-cycle burst that was ordered behind the posted store.
        assert!(
            result.stats.stalls.split_load < 12,
            "{}",
            result.stats.stalls.split_load
        );
    }

    #[test]
    fn split_load_wait_without_work_stalls_longer() {
        let (_, eager) = run_src(
            "        .func main\n        lil r2 = 0x20000\n        ldm [r2 + 0]\n        wres r1\n        halt\n",
        );
        let (_, overlapped) = run_src(
            "        .func main\n        lil r2 = 0x20000\n        ldm [r2 + 0]\n        li r4 = 1\n        li r5 = 2\n        li r6 = 3\n        li r7 = 4\n        wres r1\n        halt\n",
        );
        assert!(
            overlapped.stats.stalls.split_load < eager.stats.stalls.split_load,
            "scheduling should hide latency: {} vs {}",
            overlapped.stats.stalls.split_load,
            eager.stats.stalls.split_load
        );
    }

    #[test]
    fn stack_cache_round_trip() {
        let (sim, result) = run_src(
            "        .func main\n        sres 4\n        li r1 = 11\n        sws [r0 + 2] = r1\n        lws r2 = [r0 + 2]\n        nop\n        sfree 4\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R2), 11);
        assert_eq!(result.stats.stalls.stack_cache, 0, "fits in the cache");
    }

    #[test]
    fn stack_window_violation_detected() {
        let image = assemble(
            "        .func main\n        sres 2\n        lws r1 = [r0 + 5]\n        nop\n        halt\n",
        )
        .expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        assert!(matches!(
            sim.run(),
            Err(SimError::StackWindowViolation { .. })
        ));
    }

    #[test]
    fn scratchpad_is_separate_and_fast() {
        let (sim, result) = run_src(
            "        .func main\n        li r2 = 16\n        li r1 = 5\n        swl [r2 + 0] = r1\n        lwl r3 = [r2 + 0]\n        nop\n        halt\n",
        );
        assert_eq!(sim.reg(Reg::R3), 5);
        // Only the cold-start method-cache fill stalls; the SPM never does.
        assert_eq!(
            result.stats.stalls.total(),
            result.stats.stalls.method_cache
        );
        // SPM and main memory are distinct address spaces: the value sits
        // at SPM address 16, while main-memory address 16 holds code.
        assert_eq!(sim.scratchpad().read_word(16), 5);
        assert_ne!(sim.memory().read_word(16), 5);
    }

    #[test]
    fn single_issue_mode_costs_extra_cycles() {
        let src = "        .func main\n        li r1 = 1\n        { add r2 = r1, r1 ; addi r3 = r1, 1 }\n        { add r4 = r1, r1 ; addi r5 = r1, 1 }\n        halt\n";
        let image = assemble(src).expect("assembles");
        let mut dual = Simulator::new(&image, SimConfig::default());
        let dual_cycles = dual.run().expect("runs").stats.cycles;
        let single_cfg = SimConfig {
            dual_issue: false,
            ..SimConfig::default()
        };
        let mut single = Simulator::new(&image, single_cfg);
        let single_cycles = single.run().expect("runs").stats.cycles;
        assert_eq!(single_cycles, dual_cycles + 2, "two pair bundles");
        assert_eq!(single.reg(Reg::R5), 2);
    }

    #[test]
    fn runaway_program_hits_cycle_budget() {
        let image =
            assemble("        .func main\nspin:\n        br spin\n        nop\n        halt\n")
                .expect("assembles");
        let cfg = SimConfig {
            max_cycles: 1000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&image, cfg);
        assert!(matches!(sim.run(), Err(SimError::MaxCyclesExceeded { .. })));
    }

    #[test]
    fn method_cache_hit_on_repeated_calls() {
        let (_, result) = run_src(
            "        .func callee\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        lil r10 = callee\n        callr r10\n        nop\n        nop\n        callr r10\n        nop\n        nop\n        halt\n",
        );
        // Fills: entry (cold) + callee once; second call and both
        // returns hit.
        assert_eq!(result.stats.method_cache.misses, 2);
        assert_eq!(result.stats.method_cache.hits, 3);
    }

    #[test]
    fn counters_are_pinned_on_a_predicated_dual_issue_program() {
        // p1 is true, p2 is false: one second slot executes, one is
        // annulled, one guarded store is annulled. Every counter value
        // below is architectural, not incidental — annulled slots must
        // not count as used second slots, executed instructions, or
        // stack operations.
        let (sim, result) = run_src(
            "        .func main
        li r1 = 5
        cmpieq p1 = r1, 5
        cmpieq p2 = r1, 4
        { (p1) addi r2 = r1, 1 ; (p2) addi r3 = r1, 2 }
        { (p2) addi r4 = r1, 3 ; (p1) addi r5 = r1, 4 }
        sres 2
        sws [r0 + 0] = r2
        (p2) sws [r0 + 1] = r3
        lws r6 = [r0 + 0]
        nop
        sfree 2
        halt
",
        );
        assert_eq!(sim.reg(Reg::R2), 6);
        assert_eq!(sim.reg(Reg::R3), 0, "annulled second slot");
        assert_eq!(sim.reg(Reg::R4), 0, "annulled first slot");
        assert_eq!(sim.reg(Reg::R5), 9, "executed second slot");
        assert_eq!(sim.reg(Reg::R6), 6);
        let s = result.stats;
        assert_eq!(s.bundles, 12);
        assert_eq!(
            s.second_slots_used, 1,
            "only the guard-true second slot counts"
        );
        assert_eq!(
            s.insts_executed, 10,
            "li, 2 cmp, 2 adds, sres, sws, lws, sfree, halt"
        );
        assert_eq!(
            s.insts_annulled, 3,
            "two bundle slots and the guarded store"
        );
        assert_eq!(s.stack_ops, 2, "the annulled store moves no data");
        assert_eq!(s.nops, 1);
        assert_eq!(s.nop_bundles, 1, "the lone nop bundle is filler");
        assert_eq!(s.active_bundles(), 11);
        // Raw utilisation divides by all 12 bundles, the active ratio
        // only by the 11 that issued real work — both are pinned so
        // the denominators cannot silently drift again.
        assert!((s.slot2_utilisation() - 1.0 / 12.0).abs() < 1e-12);
        assert!((s.slot2_utilisation_active() - 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn pure_nop_bundles_are_counted_separately() {
        // Three filler bundles: two explicit nops plus the branch's
        // unfilled delay slot; the paired and single real bundles are
        // active. An annulled-but-real slot is not filler.
        let (_, result) = run_src(
            "        .func main
        li r1 = 1
        cmpieq p1 = r1, 2
        { nop ; nop }
        nop
        { addi r2 = r1, 1 ; (p1) addi r3 = r1, 2 }
        br end
        nop
end:
        halt
",
        );
        let s = result.stats;
        assert_eq!(s.bundles, 8);
        assert_eq!(s.nop_bundles, 3);
        assert_eq!(s.active_bundles(), 5);
        assert_eq!(
            s.second_slots_used, 0,
            "an annulled second slot is not used"
        );
    }

    #[test]
    fn traced_run_is_bit_identical_and_reconciles() {
        use patmos_trace::{EventTotals, VecSink};
        // Exercises every event source: a call/return (method-cache
        // fills), static-cache and heap loads and stores (write buffer),
        // stack cache (sres/sws/lws/sfree), scratchpad accesses, and a
        // split main-memory load and store.
        let src = "        .func callee\n        li r5 = 9\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        sres 2\n        lil r2 = 0x10000\n        swc [r2 + 0] = r0\n        lwc r1 = [r2 + 0]\n        nop\n        sws [r0 + 0] = r1\n        lws r6 = [r0 + 0]\n        nop\n        lil r3 = 0x20000\n        ldm [r3 + 0]\n        call callee\n        nop\n        wres r4\n        swd [r3 + 1] = r5\n        lwd r7 = [r3 + 1]\n        nop\n        swl [r0 + 0] = r7\n        lwl r8 = [r0 + 0]\n        nop\n        stm [r3 + 2] = r8\n        sfree 2\n        halt\n";
        let image = assemble(src).expect("assembles");

        let mut plain = Simulator::new(&image, SimConfig::default());
        let plain_result = plain.run().expect("runs");

        let mut traced = Simulator::new(&image, SimConfig::default());
        let mut sink = VecSink::new();
        let traced_result = traced.run_traced(&mut sink).expect("runs");

        // Tracing must not perturb the simulation at all.
        assert_eq!(plain_result.stats, traced_result.stats);
        assert_eq!(plain_result.halt_pc, traced_result.halt_pc);

        // The "no hidden state" invariant: every cycle is issue or an
        // attributed stall.
        let s = traced_result.stats;
        assert_eq!(s.cycles, s.issue_cycles + s.stalls.total());

        // The event stream reproduces every counter exactly.
        let t = EventTotals::from_events(&sink.events);
        assert_eq!(t.cycles, s.cycles);
        assert_eq!(t.issue_cycles, s.issue_cycles);
        assert_eq!(t.bundles, s.bundles);
        assert_eq!(t.insts_executed, s.insts_executed);
        assert_eq!(t.insts_annulled, s.insts_annulled);
        assert_eq!(t.nops, s.nops);
        assert_eq!(t.second_slots_used, s.second_slots_used);
        assert_eq!(t.nop_bundles, s.nop_bundles);
        assert_eq!(t.taken_branches, s.taken_branches);
        assert_eq!(t.untaken_branches, s.untaken_branches);
        assert_eq!(t.calls, s.calls);
        assert_eq!(t.returns, s.returns);
        assert_eq!(t.stack_ops, s.stack_ops);
        assert_eq!(t.stall_method_cache, s.stalls.method_cache);
        assert_eq!(t.stall_data_cache, s.stalls.data_cache);
        assert_eq!(t.stall_static_cache, s.stalls.static_cache);
        assert_eq!(t.stall_stack_cache, s.stalls.stack_cache);
        assert_eq!(t.stall_split_load, s.stalls.split_load);
        assert_eq!(t.stall_write_buffer, s.stalls.write_buffer);
        assert_eq!(t.tdma_wait, s.stalls.tdma_wait);
        assert_eq!(t.method_accesses, s.method_cache.accesses);
        assert_eq!(t.method_hits, s.method_cache.hits);
        assert_eq!(t.method_misses, s.method_cache.misses);
        assert_eq!(t.method_transferred_words, s.method_cache.transferred_words);
        assert_eq!(t.data_accesses, s.data_cache.accesses);
        assert_eq!(t.static_accesses, s.static_cache.accesses);
        assert_eq!(t.static_hits, s.static_cache.hits);
        assert_eq!(t.static_misses, s.static_cache.misses);
        assert_eq!(t.static_transferred_words, s.static_cache.transferred_words);
        assert_eq!(t.stack_accesses, s.stack_cache.accesses);
        assert_eq!(t.stack_hits, s.stack_cache.hits);
        assert_eq!(t.stack_misses, s.stack_cache.misses);
        assert_eq!(t.stack_transferred_words, s.stack_cache.transferred_words);

        // Every executed load and store is one `DataAccess`, `ldm` and
        // `stm` as main-memory accesses.
        let accesses = |area: MemArea| {
            let of_area =
                |e: &&TraceEvent| matches!(e, TraceEvent::DataAccess { area: a, .. } if *a == area);
            sink.events.iter().filter(of_area).count() as u64
        };
        assert_eq!(accesses(MemArea::Stack), s.stack_ops);
        assert_eq!(accesses(MemArea::Data), s.data_cache.accesses);
        assert_eq!(accesses(MemArea::Static), s.static_cache.accesses);
        assert_eq!(accesses(MemArea::Spm), 2);
        assert_eq!(accesses(MemArea::Main), 2);

        // Some of everything actually happened.
        assert!(t.stall_method_cache > 0);
        assert!(t.stall_static_cache > 0);
        assert!(t.calls == 1 && t.returns == 1);
        assert!(s.stack_ops == 2 && s.data_cache.accesses == 2 && s.static_cache.accesses == 2);
        assert_eq!(
            traced.reg(Reg::R8),
            9,
            "the stored value survives every area"
        );
    }

    #[test]
    fn tdma_wait_events_reconcile_under_cmp() {
        use patmos_trace::{EventTotals, VecSink};
        let image = assemble(
            "        .func main\n        lil r2 = 0x20000\n        ldm [r2 + 0]\n        wres r1\n        halt\n",
        )
        .expect("assembles");
        let cfg = SimConfig {
            tdma: Some((patmos_mem::TdmaArbiter::new(4, 64), 3)),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&image, cfg);
        let mut sink = VecSink::new();
        let result = sim.run_traced(&mut sink).expect("runs");
        let s = result.stats;
        assert!(s.stalls.tdma_wait > 0, "core 3 waits for its slot");
        assert_eq!(s.cycles, s.issue_cycles + s.stalls.total());
        let t = EventTotals::from_events(&sink.events);
        assert_eq!(t.tdma_wait, s.stalls.tdma_wait);
        assert_eq!(t.cycles, s.cycles);
    }

    #[test]
    fn flow_in_delay_slot_rejected() {
        let image = assemble("        .func main\n        br a\n        br a\na:\n        halt\n")
            .expect("assembles");
        let mut sim = Simulator::new(&image, SimConfig::default());
        assert!(matches!(sim.run(), Err(SimError::FlowInDelaySlot { .. })));
    }

    #[test]
    fn fast_engine_is_bit_identical_to_reference() {
        // The reconciliation program exercises every fast-path exit:
        // calls and returns (method-cache fills), every cache, the write
        // buffer, and a split main-memory load.
        let src = "        .func callee\n        li r5 = 9\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        sres 2\n        lil r2 = 0x10000\n        swc [r2 + 0] = r0\n        lwc r1 = [r2 + 0]\n        nop\n        sws [r0 + 0] = r1\n        lws r6 = [r0 + 0]\n        nop\n        lil r3 = 0x20000\n        ldm [r3 + 0]\n        call callee\n        nop\n        wres r4\n        sfree 2\n        halt\n";
        let image = assemble(src).expect("assembles");

        let mut fast = Simulator::new(&image, SimConfig::default());
        let fast_result = fast.run().expect("runs");
        let mut slow = Simulator::new(
            &image,
            SimConfig {
                fast_path: false,
                ..SimConfig::default()
            },
        );
        let slow_result = slow.run().expect("runs");

        assert_eq!(fast_result.stats, slow_result.stats);
        assert_eq!(fast_result.halt_pc, slow_result.halt_pc);
        assert_eq!(fast.regs, slow.regs);
        assert_eq!(fast.preds, slow.preds);

        // The bursts actually engaged; the step-only run left the host
        // counters untouched.
        let h = fast.host_stats();
        assert!(h.fast_bundles > 0, "fast path covered some bundles");
        assert!(h.pre_bundles > 0, "memory bundles took the general tier");
        assert_eq!(slow.host_stats(), HostStats::default());
        assert!(h.fast_coverage(fast_result.stats.cycles) > 0.0);
        assert!(h.predecoded_coverage(fast_result.stats.cycles) <= 1.0);
    }

    #[test]
    fn fast_engine_reports_identical_errors() {
        // A contract violation inside the fast class itself.
        let image = assemble(
            "        .func main\n        li r1 = 3\n        mul r1, r1\n        mfs r2 = sl\n        halt\n",
        )
        .expect("assembles");
        let mut fast = Simulator::new(&image, SimConfig::default());
        let fast_err = fast.run().expect_err("violates the mul gap");
        let mut slow = Simulator::new(
            &image,
            SimConfig {
                fast_path: false,
                ..SimConfig::default()
            },
        );
        assert_eq!(fast_err, slow.run().expect_err("violates the mul gap"));

        // A cycle budget exhausted inside the tight loop.
        let spin =
            assemble("        .func main\nspin:\n        br spin\n        nop\n        halt\n")
                .expect("assembles");
        let cfg = SimConfig {
            max_cycles: 1000,
            ..SimConfig::default()
        };
        let mut fast = Simulator::new(&spin, cfg.clone());
        let fast_err = fast.run().expect_err("exceeds the budget");
        let mut slow = Simulator::new(
            &spin,
            SimConfig {
                fast_path: false,
                ..cfg
            },
        );
        assert_eq!(fast_err, slow.run().expect_err("exceeds the budget"));
        assert_eq!(fast.stats(), slow.stats(), "identical up to the error");
    }

    #[test]
    fn fast_engine_survives_method_cache_evictions() {
        use patmos_mem::{MethodCacheConfig, ReplacementPolicy};
        // A method cache so small that every call and return evicts the
        // previous function: fills and their stalls come constantly,
        // while both engines keep executing from the one table decoded
        // at construction, which no eviction touches.
        let src = "        .func one\n        addi r1 = r1, 1\n        ret\n        nop\n        nop\n        .func two\n        addi r2 = r2, 1\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        li r3 = 4\nloop:\n        call one\n        nop\n        call two\n        nop\n        subi r3 = r3, 1\n        cmpineq p1 = r3, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n";
        let image = assemble(src).expect("assembles");
        let cfg = SimConfig {
            method_cache: MethodCacheConfig::new(2, 8, ReplacementPolicy::Fifo),
            ..SimConfig::default()
        };
        let mut fast = Simulator::new(&image, cfg.clone());
        let fast_result = fast.run().expect("runs");
        let mut slow = Simulator::new(
            &image,
            SimConfig {
                fast_path: false,
                ..cfg
            },
        );
        let slow_result = slow.run().expect("runs");
        assert_eq!(fast.reg(Reg::R1), 4);
        assert_eq!(fast.reg(Reg::R2), 4);
        assert_eq!(fast_result.stats, slow_result.stats);
        assert!(
            fast_result.stats.method_cache.misses > 4,
            "the tiny cache actually thrashed"
        );
    }

    #[test]
    fn unusable_tdma_schedule_is_an_error_not_a_panic() {
        let image = assemble("        .func main\n        halt\n").expect("assembles");
        let with_tdma = |slot_cycles, core| SimConfig {
            tdma: Some((patmos_mem::TdmaArbiter::new(2, slot_cycles), core)),
            ..SimConfig::default()
        };
        // A 4-cycle slot cannot take the default 22-cycle line fill, and
        // core 5 has no slot in a 2-core schedule.
        let short = SimError::TdmaSlotTooShort {
            burst_cycles: 22,
            slot_cycles: 4,
        };
        let outside = SimError::TdmaCoreOutOfRange { core: 5, cores: 2 };
        for (config, expected) in [(with_tdma(4, 0), short), (with_tdma(64, 5), outside)] {
            assert_eq!(
                Simulator::try_new(&image, config.clone()).unwrap_err(),
                expected
            );
            // The infallible constructor defers the error to the first
            // step instead of panicking mid-run.
            let mut sim = Simulator::new(&image, config);
            assert_eq!(sim.run().unwrap_err(), expected);
        }
        assert!(Simulator::try_new(&image, with_tdma(64, 1)).is_ok());
    }

    #[test]
    fn oversized_sens_is_an_error_not_a_panic() {
        let image =
            assemble("        .func main\n        sens 300\n        halt\n").expect("assembles");
        for strict in [true, false] {
            let mut sim = Simulator::new(
                &image,
                SimConfig {
                    strict,
                    ..SimConfig::default()
                },
            );
            assert_eq!(
                sim.run().map(|_| ()),
                Err(SimError::StackWindowViolation {
                    pc: 0,
                    offset_words: 299
                })
            );
        }
    }

    #[test]
    fn malformed_image_is_an_error_not_a_panic() {
        // A lone word with the size bit set claims a second word that is
        // not there: guaranteed undecodable.
        let image = ObjectImage::from_raw(
            vec![0x8000_0000],
            vec![FuncInfo {
                name: "main".into(),
                start_word: 0,
                size_words: 1,
            }],
            0,
        );
        assert!(matches!(
            Simulator::try_new(&image, SimConfig::default()),
            Err(SimError::MalformedImage { .. })
        ));
        // The infallible constructor defers the same error to the first
        // step — on both engines.
        for fast_path in [true, false] {
            let mut sim = Simulator::new(
                &image,
                SimConfig {
                    fast_path,
                    ..SimConfig::default()
                },
            );
            assert!(matches!(sim.run(), Err(SimError::MalformedImage { .. })));
        }
    }
}
