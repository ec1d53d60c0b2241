//! Deterministic single-event-upset (SEU) fault injection and outcome
//! classification.
//!
//! The paper's safety-critical story bounds *when* a program finishes;
//! this module asks what happens when a bit flips mid-run. A
//! [`FaultPlan`] describes seeded injections — bit flips in the register
//! file, predicate or special registers, main memory, or cache state —
//! fired at a chosen cycle or at the n-th retirement of a chosen PC.
//! Everything is derived from a [`FaultRng`] (splitmix64, no wall
//! clock), so a campaign is a pure function of its seed.
//!
//! The injection hooks live on the general step. An armed plan's cycle
//! triggers stop each burst before the first bundle at or past their
//! cycle, so the step fires them where a stepped run does, and the
//! burst runs the step's own op semantics between them; a pending
//! [`FaultTrigger::RetiredPc`] injection keeps the whole run on the
//! step, which counts retirements. The engine differential sweep
//! proves the bursting and stepped runs bit-identical.
//!
//! # Three ways to answer an injection
//!
//! Up to its trigger, an injected run steps through exactly the golden
//! run, and most flips hit state the golden run never reads again. So
//! [`golden_run`], under [`SimConfig::fast_path`], steps the golden run
//! once into a recorder and keeps three things:
//!
//! * an access index: per step (bundle retired), the cycle its fault
//!   check saw and one bit per register, predicate and `sl`/`sh`/`sm`
//!   for what it reads and what it fully overwrites, with the union of
//!   every 64 steps' bits so a scan skips the stretches that never touch
//!   a location; per main-memory load or store, its step and byte
//!   range;
//! * the retired control transfers (the `Branch`, `Call` and `Return`
//!   trace events), which are the control-flow checker's whole input;
//! * at most eight [`Simulator`] checkpoints, evenly spaced: every 128
//!   steps, halving them and doubling the spacing whenever they are
//!   full, so their number does not grow with the run.
//!
//! On the suite's kernels the index and the transfers take about 28
//! bytes per golden step. [`run_injection`] then answers each injection
//! one of three ways ([`RunPath`]):
//!
//! * **Pruned.** A [`FaultTrigger::Cycle`] flip lands before the first
//!   step whose fault check sees its cycle. If the golden run never
//!   reads the flipped location from that step on before overwriting
//!   it whole, the injected run *is* the golden run until its first
//!   read of it, which never comes. So the outcome is known without
//!   simulating: [`FaultOutcome::Masked`] with the golden `cycles` and
//!   no latency, `injected` false only when the trigger lies past the
//!   last bundle. The one exception is a data-segment byte the run
//!   never touches again: it is a [`FaultOutcome::SilentDataCorruption`],
//!   because the globals compared at halt include it. Every slot reads
//!   its operand registers and predicates, its guard (whether it held
//!   or not), `mfs`'s special register, and `sm` for `wres`. Only
//!   unguarded slots kill what they define (the register, the
//!   predicate, `sl`/`sh` for `mul`, the `mts` target), because a
//!   guarded one may not write at all; the link register dies at the
//!   `Call` event after the call's delay slots, not at the `call`; a
//!   store kills the bytes it writes, nothing more. Within one step a
//!   read wins over a kill, since every read sees the step's
//!   pre-state, and r1 counts as read at halt. With the checker armed,
//!   a flip is pruned only if the golden run's whole transfer stream
//!   passes it.
//! * **Forked.** Every other cycle-triggered injection clones the last
//!   checkpoint at or before its trigger step, arms the clone and runs it
//!   unchecked and bursting, logging every control transfer it retires.
//!   That checkpoint is the state a run from reset reaches at the same
//!   step, since both follow the golden run until the trigger. One such run
//!   answers both detector arms: the recording keeps the last one, keyed
//!   by its injection, and every caller asks the two arms of an
//!   injection back to back. The strict arm's answer is the run's
//!   outcome. The checker's only state is its own loop-cap counters, so a
//!   checked run is the unchecked run cut off at its first failing check,
//!   and the checker may be run after the fact: the checker arm folds the
//!   golden run's transfers before the checkpoint, then the run's log,
//!   through the checker's own check, and answers
//!   [`DetectorKind::ControlFlow`] at the first transfer it rejects, or
//!   the strict outcome if it rejects none. A golden run the checker
//!   stops before the checkpoint is left to the run from reset.
//! * **From reset.** The oracle: a fresh [`Simulator`] steps from reset.
//!   It answers [`FaultTrigger::RetiredPc`] injections, a [`GoldenRun`]
//!   used with another image (code, data, functions or entry) or another
//!   machine (a [`SimConfig`] that differs in more than its fault plan
//!   and cycle budget), golden runs too long to record, and every
//!   injection under `fast_path: false`, which also leaves the golden
//!   run unrecorded.
//!
//! Outcomes are classified against a golden (uninjected) run into the
//! four-way [`FaultOutcome`] taxonomy. Three detector layers feed
//! [`FaultOutcome::Detected`]:
//!
//! * the strict-mode ISA contract checks ([`DetectorKind::Contract`]);
//! * the [`MaxCyclesExceeded`](crate::SimError::MaxCyclesExceeded)
//!   watchdog, whose verdict is [`FaultOutcome::Hang`]
//!   ([`DetectorKind::Watchdog`]);
//! * a control-flow checker ([`DetectorKind::ControlFlow`]) that
//!   validates every retired call and return against a statically
//!   derived [`ControlFlowMap`] and caps loop-header entries at their
//!   `.loopbound` flow facts — catching wild branches that land on
//!   decodable-but-wrong bundles, and runaway loops long before the
//!   watchdog fires.
//!
//! The map itself is built by `patmos-wcet` (`flow_map`) from the same
//! CFG the IPET analysis uses; this crate only defines the data model,
//! keeping the dependency arrow pointing wcet → sim.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use patmos_asm::{DataSegment, FuncInfo, ObjectImage};
use patmos_isa::{Inst, MemArea, Op, Pred, Reg, SpecialReg, LINK_REG, NUM_PREDS, NUM_REGS};
use patmos_trace::{TraceEvent, TraceSink};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::machine::{FlowTarget, LoggedTransfer, Simulator};

/// A splitmix64 pseudo-random generator: tiny, seedable, and fully
/// deterministic — fault campaigns must not consult the wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A generator seeded directly.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng { state: seed }
    }

    /// A per-kernel generator: the campaign seed mixed (FNV-1a) with the
    /// kernel name, so every kernel's injection stream is independent of
    /// suite order and thread scheduling.
    pub fn for_kernel(seed: u64, name: &str) -> FaultRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        FaultRng::new(seed ^ h)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Which special register a [`FaultTarget::Special`] flip hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialTarget {
    /// Multiply result low word.
    Sl,
    /// Multiply result high word.
    Sh,
    /// The predicate bank viewed as a word (`smask`).
    Sm,
}

/// Which cache a [`FaultTarget::CacheTags`] upset hits.
///
/// The caches are timing models (tags only, no data), so a tag upset is
/// modelled as the architecturally safe consequence of a parity-checked
/// tag array: the affected lines are invalidated. The run's values are
/// untouched; only its timing shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSel {
    /// The heap data cache.
    Data,
    /// The static-data/constant cache.
    Static,
}

/// The architectural state a single upset flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Flip `bit` of general-purpose register `reg` (r0 stays hardwired
    /// to zero: a flip aimed at it is masked by construction).
    Register {
        /// Register index, taken modulo the register-file size.
        reg: u8,
        /// Bit position, taken modulo 32.
        bit: u8,
    },
    /// Invert predicate register `pred` (p0 stays hardwired true).
    Predicate {
        /// Predicate index, taken modulo the predicate-bank size.
        pred: u8,
    },
    /// Flip `bit` of a special register.
    Special {
        /// Which special register.
        reg: SpecialTarget,
        /// Bit position, taken modulo 32.
        bit: u8,
    },
    /// Flip `bit` of the main-memory word containing `addr`.
    Memory {
        /// Byte address (word-aligned internally).
        addr: u32,
        /// Bit position within the word, taken modulo 32.
        bit: u8,
    },
    /// Upset a cache's tag state: all lines invalidate (see
    /// [`CacheSel`]).
    CacheTags {
        /// Which cache.
        cache: CacheSel,
    },
}

/// When an injection fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Before issuing the first bundle whose start cycle is `>= cycle`.
    Cycle(u64),
    /// After the `occurrence`-th retirement of the bundle at `pc`
    /// (1-based).
    RetiredPc {
        /// Word address of the trigger bundle.
        pc: u32,
        /// Which retirement fires the fault (1 = the first).
        occurrence: u32,
    },
}

/// One injection: a trigger and the state it flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// When to fire.
    pub trigger: FaultTrigger,
    /// What to flip.
    pub target: FaultTarget,
}

/// The state space a seeded plan draws targets from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpace {
    /// Trigger cycles are drawn from `0..max_cycle` (use the golden
    /// run's cycle count so every draw can land mid-run).
    pub max_cycle: u64,
    /// Byte ranges of main memory eligible for memory flips — normally
    /// the image's data segments ([`FaultSpace::for_image`]).
    pub mem_ranges: Vec<(u32, u32)>,
}

impl FaultSpace {
    /// The space for `image`: memory flips target its data segments.
    pub fn for_image(image: &ObjectImage, max_cycle: u64) -> FaultSpace {
        FaultSpace {
            max_cycle,
            mem_ranges: image
                .data()
                .iter()
                .filter(|seg| !seg.bytes.is_empty())
                .map(|seg| (seg.addr, seg.addr + seg.bytes.len() as u32))
                .collect(),
        }
    }
}

/// A deterministic set of injections for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injections, fired independently as their triggers arrive.
    pub injections: Vec<Injection>,
}

impl FaultPlan {
    /// A plan with one injection.
    pub fn single(injection: Injection) -> FaultPlan {
        FaultPlan {
            injections: vec![injection],
        }
    }

    /// Whether the plan injects anything.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Draws one injection from `rng` over `space`.
    ///
    /// The target mix is fixed (deterministic given the rng state):
    /// mostly register-file flips, with predicate, special-register,
    /// data-memory and cache-tag upsets mixed in, plus a slice of
    /// low-bit flips aimed at the link register — the draw most likely
    /// to produce a *wild but decodable* return that only the
    /// control-flow checker can catch.
    pub fn draw(rng: &mut FaultRng, space: &FaultSpace) -> Injection {
        let cycle = rng.below(space.max_cycle.max(1));
        let target = match rng.below(16) {
            0..=6 => FaultTarget::Register {
                reg: 1 + (rng.below((NUM_REGS - 1) as u64) as u8),
                bit: rng.below(32) as u8,
            },
            7..=8 => FaultTarget::Predicate {
                pred: 1 + (rng.below((NUM_PREDS - 1) as u64) as u8),
            },
            9 => FaultTarget::Special {
                reg: match rng.below(3) {
                    0 => SpecialTarget::Sl,
                    1 => SpecialTarget::Sh,
                    _ => SpecialTarget::Sm,
                },
                bit: rng.below(32) as u8,
            },
            10..=12 if !space.mem_ranges.is_empty() => {
                let (lo, hi) = space.mem_ranges[rng.below(space.mem_ranges.len() as u64) as usize];
                FaultTarget::Memory {
                    addr: lo + (rng.below((hi - lo).max(1) as u64) as u32),
                    bit: rng.below(32) as u8,
                }
            }
            13 => FaultTarget::CacheTags {
                cache: if rng.below(2) == 0 {
                    CacheSel::Data
                } else {
                    CacheSel::Static
                },
            },
            // Directed wild-branch attempt: a low bit of the link
            // register, flipped mid-run — the wild-but-decodable return
            // only the control-flow checker catches.
            14 => FaultTarget::Register {
                reg: LINK_REG.index(),
                bit: rng.below(4) as u8,
            },
            // Directed far-branch attempt: a high link-register bit —
            // the return leaves the code region entirely, which strict
            // mode catches as a bad pc.
            15 => FaultTarget::Register {
                reg: LINK_REG.index(),
                bit: 16 + (rng.below(8) as u8),
            },
            // Memory draws fall back here when the image has no data.
            _ => FaultTarget::Register {
                reg: 1 + (rng.below((NUM_REGS - 1) as u64) as u8),
                bit: rng.below(32) as u8,
            },
        };
        Injection {
            trigger: FaultTrigger::Cycle(cycle),
            target,
        }
    }

    /// A seeded plan of `count` injections over `space`.
    pub fn seeded(seed: u64, count: u32, space: &FaultSpace) -> FaultPlan {
        let mut rng = FaultRng::new(seed);
        FaultPlan {
            injections: (0..count)
                .map(|_| FaultPlan::draw(&mut rng, space))
                .collect(),
        }
    }
}

/// A per-loop flow cap: the `.loopbound`-derived limit on how often the
/// header at `header` may be entered per visit to the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopCap {
    /// Word address of the loop-header block.
    pub header: u32,
    /// Word address of the last bundle of the back-edge source block —
    /// the loop body spans `[header, span_end]`.
    pub span_end: u32,
    /// Maximum header entries per visit (`.loopbound` max).
    pub max: u32,
}

/// The statically legal control-flow facts the runtime checker enforces:
/// legal call entries, legal return sites, and per-loop flow caps.
///
/// Built by `patmos-wcet`'s `flow_map` from the same CFG that feeds the
/// IPET analysis — the checker and the WCET bound share one notion of
/// "the program's possible paths".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlFlowMap {
    call_targets: BTreeSet<u32>,
    return_sites: BTreeSet<u32>,
    loop_caps: Vec<LoopCap>,
}

impl ControlFlowMap {
    /// An empty map (every call/return is illegal; add facts first).
    pub fn new() -> ControlFlowMap {
        ControlFlowMap::default()
    }

    /// Records `target` as a legal call entry.
    pub fn add_call_target(&mut self, target: u32) {
        self.call_targets.insert(target);
    }

    /// Records `pc` as a legal return site.
    pub fn add_return_site(&mut self, pc: u32) {
        self.return_sites.insert(pc);
    }

    /// Records a loop flow cap.
    pub fn add_loop_cap(&mut self, cap: LoopCap) {
        self.loop_caps.push(cap);
    }

    /// Whether `target` is a legal call entry.
    pub fn is_legal_call(&self, target: u32) -> bool {
        self.call_targets.contains(&target)
    }

    /// Whether `pc` is a legal return site.
    pub fn is_legal_return(&self, pc: u32) -> bool {
        self.return_sites.contains(&pc)
    }

    /// The flow caps.
    pub fn loop_caps(&self) -> &[LoopCap] {
        &self.loop_caps
    }
}

/// The checker's running state: per-cap header entries since the last
/// transfer out of each cap's span. It checks against a map it does not
/// own, so a fold over a recording borrows the map.
#[derive(Debug, Clone)]
struct LoopCounts(Vec<u32>);

impl LoopCounts {
    fn new(map: &ControlFlowMap) -> LoopCounts {
        LoopCounts(vec![0; map.loop_caps.len()])
    }

    /// Checks one retired transfer to `target`, leaving from `pc`,
    /// against `map`: the loop caps first, since they see every
    /// transfer, then the edge sets for calls and returns. Those are the
    /// only transfers a corrupted register can steer, since branch
    /// targets are immediate.
    ///
    /// A transfer to a header counts an entry; a transfer out of a cap's
    /// span resets its counter (so the cap is per visit, never across
    /// re-entries). The reset-on-exit rule means the check can only
    /// under-count — it never fires on a legal run. It changes nothing but
    /// these counters, which is why a fork may fold it over its transfer
    /// log after the run.
    fn check(&mut self, map: &ControlFlowMap, target: FlowTarget, pc: u32) -> Result<(), SimError> {
        let (FlowTarget::Jump(t) | FlowTarget::Call(t) | FlowTarget::Ret(t)) = target;
        for (cap, count) in map.loop_caps.iter().zip(&mut self.0) {
            if t == cap.header {
                *count += 1;
                if *count > cap.max {
                    return Err(SimError::LoopBoundExceeded {
                        header: cap.header,
                        bound: cap.max,
                    });
                }
            } else if t < cap.header || t > cap.span_end {
                *count = 0;
            }
        }
        let legal = match target {
            FlowTarget::Jump(_) => true,
            FlowTarget::Call(t) => map.is_legal_call(t),
            FlowTarget::Ret(t) => map.is_legal_return(t),
        };
        if legal {
            Ok(())
        } else {
            Err(SimError::IllegalControlFlow { pc, target: t })
        }
    }
}

/// An installed checker: its own copy of the map, and its counters.
#[derive(Debug, Clone)]
pub(crate) struct FlowCheckState {
    map: ControlFlowMap,
    counts: LoopCounts,
}

impl FlowCheckState {
    pub(crate) fn new(map: ControlFlowMap) -> FlowCheckState {
        let counts = LoopCounts::new(&map);
        FlowCheckState { map, counts }
    }

    /// [`LoopCounts::check`] against the installed map.
    pub(crate) fn check(&mut self, target: FlowTarget, pc: u32) -> Result<(), SimError> {
        self.counts.check(&self.map, target, pc)
    }
}

/// Live injection state for one armed run.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Injections not yet fired, with retire-trigger countdowns.
    pub(crate) pending: Vec<(Injection, u32)>,
    /// Cycle of the first fired injection.
    pub(crate) injected_at: Option<u64>,
    /// How many injections have fired.
    pub(crate) injected: u32,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan) -> FaultState {
        let pending = plan
            .injections
            .iter()
            .map(|inj| {
                let countdown = match inj.trigger {
                    FaultTrigger::Cycle(_) => 0,
                    FaultTrigger::RetiredPc { occurrence, .. } => occurrence.max(1),
                };
                (*inj, countdown)
            })
            .collect();
        FaultState {
            pending,
            injected_at: None,
            injected: 0,
        }
    }
}

/// Which detector layer flagged an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    /// A strict-mode ISA contract check (delay violations, stack-window
    /// violations, bad PCs, calls to non-functions, …).
    Contract,
    /// The CFG-derived control-flow checker (illegal call/return edges,
    /// `.loopbound` flow caps).
    ControlFlow,
    /// The cycle-budget watchdog; its verdict is [`FaultOutcome::Hang`].
    Watchdog,
}

/// What one injection did to the run, judged against the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The run completed with the golden result, globals, and halt PC.
    Masked,
    /// The run completed but its result, globals, or halt PC differ.
    SilentDataCorruption,
    /// A detector stopped the run.
    Detected(DetectorKind),
    /// The watchdog expired: the run never reached `halt`.
    Hang,
}

impl FaultOutcome {
    /// A stable short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::SilentDataCorruption => "sdc",
            FaultOutcome::Detected(DetectorKind::Contract) => "detected-contract",
            FaultOutcome::Detected(DetectorKind::ControlFlow) => "detected-control-flow",
            FaultOutcome::Detected(DetectorKind::Watchdog) | FaultOutcome::Hang => "hang",
        }
    }
}

/// The golden (uninjected) run's observable outcome: the comparison
/// basis for classifying injected runs.
///
/// Under [`SimConfig::fast_path`] it also carries the golden run's
/// recording (see the [module docs](self)), which
/// [`run_injection`] answers injections from. The recording is a
/// host-side cache, like [`crate::HostStats`]: equality compares the
/// outcome fields alone.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The result register (r1) at halt.
    pub result_r1: u32,
    /// The halt PC.
    pub halt_pc: u32,
    /// Total cycles.
    pub cycles: u64,
    /// The data segments read back from memory after the run, in image
    /// order — the program's global state.
    pub globals: Vec<u8>,
    replay: Option<Arc<Replay>>,
}

impl PartialEq for GoldenRun {
    fn eq(&self, other: &GoldenRun) -> bool {
        self.result_r1 == other.result_r1
            && self.halt_pc == other.halt_pc
            && self.cycles == other.cycles
            && self.globals == other.globals
    }
}

impl Eq for GoldenRun {}

/// Reads the image's data segments back out of a finished simulator.
fn read_globals(image: &ObjectImage, sim: &Simulator) -> Vec<u8> {
    let mut out = Vec::new();
    for seg in image.data() {
        for i in 0..seg.bytes.len() as u32 {
            out.push(sim.memory().read_byte(seg.addr + i));
        }
    }
    out
}

/// Runs `image` uninjected and captures the golden outcome.
///
/// Under [`SimConfig::fast_path`] with no fault plan armed, the run is
/// stepped into a recorder that keeps the access index, the transfers
/// and the checkpoints [`run_injection`] answers from. With
/// `fast_path: false` it is a plain run, the oracle's.
///
/// # Errors
///
/// Returns the run's [`SimError`] — a program that cannot complete
/// cleanly has no golden reference to classify against.
pub fn golden_run(image: &ObjectImage, config: &SimConfig) -> Result<GoldenRun, SimError> {
    let mut sim = Simulator::try_new(image, config.clone())?;
    let replay = if config.fast_path && config.faults.is_none() {
        Replay::record(image, config, &mut sim)?.map(Arc::new)
    } else {
        None
    };
    sim.run()?;
    Ok(GoldenRun {
        result_r1: sim.reg(Reg::R1),
        halt_pc: sim.pc(),
        cycles: sim.cycle(),
        globals: read_globals(image, &sim),
        replay,
    })
}

/// One injected run's classified outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionOutcome {
    /// The four-way classification.
    pub outcome: FaultOutcome,
    /// Whether the injection actually fired (a trigger past the halt
    /// cycle never lands; such runs are trivially masked).
    pub injected: bool,
    /// Cycles from the (first) injection to detection, when a detector
    /// (including the watchdog) stopped the run.
    pub detection_latency: Option<u64>,
    /// Cycles the injected run executed.
    pub cycles: u64,
}

/// How [`run_injection_with_path`] answered an injection. Like
/// [`crate::HostStats`], it says how the host got the answer, never
/// what the guest did, so it stays out of [`InjectionOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPath {
    /// Answered from the golden run's access index, without simulating.
    Pruned,
    /// Simulated from the last golden checkpoint at or before the
    /// trigger.
    Forked,
    /// Simulated from reset: the oracle path.
    FromReset,
}

/// Runs `image` with `injection` armed and classifies the outcome
/// against `golden`.
///
/// The watchdog is tightened to a small multiple of the golden cycle
/// count (`4x + 4096`), so a hang is declared within a bounded budget
/// instead of the configured production limit. Passing a `flow` map arms
/// the control-flow checker.
pub fn run_injection(
    image: &ObjectImage,
    config: &SimConfig,
    injection: Injection,
    flow: Option<&ControlFlowMap>,
    golden: &GoldenRun,
) -> InjectionOutcome {
    run_injection_with_path(image, config, injection, flow, golden).0
}

/// [`run_injection`], also saying which of the three paths answered.
///
/// The golden run's recording answers a [`FaultTrigger::Cycle`]
/// injection when `config` has [`SimConfig::fast_path`] set and equals
/// the golden run's config (its fault plan and cycle budget aside), and
/// `image` loads the same code, data and functions. Everything else
/// runs from reset.
pub fn run_injection_with_path(
    image: &ObjectImage,
    config: &SimConfig,
    injection: Injection,
    flow: Option<&ControlFlowMap>,
    golden: &GoldenRun,
) -> (InjectionOutcome, RunPath) {
    let replay = golden
        .replay
        .as_deref()
        .filter(|r| config.fast_path && r.matches(image, config));
    if let (Some(replay), FaultTrigger::Cycle(cycle)) = (replay, injection.trigger) {
        if let Some(answer) = replay.answer(image, cycle, injection, flow, golden) {
            return answer;
        }
    }
    let mut cfg = config.clone();
    cfg.faults = Some(FaultPlan::single(injection));
    cfg.max_cycles = watchdog(golden);
    let mut sim = match Simulator::try_new(image, cfg) {
        Ok(sim) => sim,
        Err(_) => {
            // The golden run decoded; a failure here cannot be
            // fault-induced, but classify it defensively.
            let outcome = InjectionOutcome {
                outcome: FaultOutcome::Detected(DetectorKind::Contract),
                injected: false,
                detection_latency: None,
                cycles: 0,
            };
            return (outcome, RunPath::FromReset);
        }
    };
    if let Some(map) = flow {
        sim.install_flow_checker(map.clone());
    }
    (classify(image, &mut sim, golden), RunPath::FromReset)
}

/// The injected run's cycle budget.
fn watchdog(golden: &GoldenRun) -> u64 {
    golden.cycles.saturating_mul(4).saturating_add(4096)
}

/// Runs an armed core to its end and classifies the outcome.
fn classify(image: &ObjectImage, sim: &mut Simulator, golden: &GoldenRun) -> InjectionOutcome {
    let run = sim.run();
    let injected_at = sim.fault_injected_at();
    let cycles = sim.cycle();
    let latency = injected_at.map(|at| cycles.saturating_sub(at));
    match run {
        Ok(result) => {
            let clean = sim.reg(Reg::R1) == golden.result_r1
                && result.halt_pc == golden.halt_pc
                && read_globals(image, sim) == golden.globals;
            InjectionOutcome {
                outcome: if clean {
                    FaultOutcome::Masked
                } else {
                    FaultOutcome::SilentDataCorruption
                },
                injected: injected_at.is_some(),
                detection_latency: None,
                cycles,
            }
        }
        Err(e) => {
            let outcome = match e {
                SimError::MaxCyclesExceeded { .. } => FaultOutcome::Hang,
                SimError::IllegalControlFlow { .. } | SimError::LoopBoundExceeded { .. } => {
                    FaultOutcome::Detected(DetectorKind::ControlFlow)
                }
                _ => FaultOutcome::Detected(DetectorKind::Contract),
            };
            InjectionOutcome {
                outcome,
                injected: injected_at.is_some(),
                detection_latency: latency,
                cycles,
            }
        }
    }
}

/// Checkpoints a recording keeps at most.
const CHECKPOINTS: usize = 8;

/// Steps between checkpoints until the first thinning.
const FIRST_INTERVAL: usize = 128;

/// Steps a recording makes room for up front. Growing the index from
/// empty would copy it about a dozen times over a run of a few thousand
/// steps, which measured as costly as the recorder's own work.
const RESERVED_STEPS: usize = 4096;

/// Golden steps per entry of [`Replay::chunks`].
const CHUNK_STEPS: usize = 64;

/// Longest golden run, in steps, that is recorded. A longer one
/// finishes unrecorded and its injections run from reset, so the
/// recording stays within a few tens of MiB.
const MAX_RECORDED_STEPS: usize = 1 << 20;

/// Bit positions of the access index's locations: r0–r31, then p0–p7,
/// then `sl`, `sh` and `sm`.
const PRED_BIT: u32 = NUM_REGS as u32;
const SL_BIT: u32 = PRED_BIT + NUM_PREDS as u32;
const SH_BIT: u32 = SL_BIT + 1;
const SM_BIT: u32 = SL_BIT + 2;

/// The register, predicate and `sl`/`sh`/`sm` locations a slot, a bundle
/// or a golden step reads and fully overwrites, one bit per location.
#[derive(Debug, Clone, Copy, Default)]
struct Access {
    reads: u64,
    kills: u64,
}

/// One golden step: the cycle its fault check saw, and its accesses.
#[derive(Debug, Clone, Copy)]
struct Step {
    start: u64,
    access: Access,
}

impl Access {
    /// The accesses of one slot. Every slot reads its operands and its
    /// guard, whether the guard holds or not. Only an unguarded slot
    /// kills what it defines: a guarded one may not write at all. A call
    /// writes the link register only when its delay slots have retired,
    /// so its kill belongs to the `Call` event, not to this slot.
    fn of_slot(inst: &Inst) -> Access {
        let special = |reg: SpecialReg| match reg {
            SpecialReg::Sl => 1u64 << SL_BIT,
            SpecialReg::Sh => 1 << SH_BIT,
            SpecialReg::Sm => 1 << SM_BIT,
            SpecialReg::St | SpecialReg::Ss => 0,
        };
        let reg = |r: Reg| 1u64 << r.index();
        let pred = |p: Pred| 1u64 << (PRED_BIT + p.index() as u32);
        let op = inst.op;
        let mut reads = pred(inst.guard.pred);
        for r in op.uses().into_iter().flatten() {
            reads |= reg(r);
        }
        for p in op.pred_uses().into_iter().flatten() {
            reads |= pred(p);
        }
        reads |= match op {
            Op::Mfs { ss, .. } => special(ss),
            Op::MainWait { .. } => 1 << SM_BIT,
            _ => 0,
        };
        let mut kills = 0;
        if inst.guard.is_always() {
            if !matches!(op, Op::Call { .. } | Op::CallR { .. }) {
                kills |= op.def().map_or(0, reg);
            }
            kills |= op.pred_def().map_or(0, pred);
            kills |= match op {
                Op::Mul { .. } => (1 << SL_BIT) | (1 << SH_BIT),
                Op::Mts { sd, .. } => special(sd),
                _ => 0,
            };
        }
        Access { reads, kills }
    }
}

/// What the recorder needs to know of one bundle, by word address.
#[derive(Debug, Clone, Copy, Default)]
struct BundleFacts {
    access: Access,
    /// Bytes its main-memory access moves (slot one holds the only
    /// memory operation a bundle may have).
    mem_bytes: u32,
}

/// One main-memory load or store of the golden run.
#[derive(Debug, Clone, Copy)]
struct MemAccess {
    step: u32,
    addr: u32,
    len: u32,
    store: bool,
}

/// One retired control transfer of the golden run: the control-flow
/// checker's input at step `step`.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    step: u32,
    target: FlowTarget,
}

/// What the simulation reads of an image: an injection may use the
/// recording only with an image that loads the same program.
#[derive(Debug)]
struct Program {
    code: Vec<u32>,
    functions: Vec<FuncInfo>,
    data: Vec<DataSegment>,
    entry: u32,
}

impl Program {
    fn of(image: &ObjectImage) -> Program {
        Program {
            code: image.code().to_vec(),
            functions: image.functions().to_vec(),
            data: image.data().to_vec(),
            entry: image.entry_word(),
        }
    }

    fn loads(&self, image: &ObjectImage) -> bool {
        self.entry == image.entry_word()
            && self.code == image.code()
            && self.functions == image.functions()
            && self.data == image.data()
    }
}

/// The trace sink a golden run is stepped into. Step `i` is the `i`-th
/// bundle retired; a bundle's loads and stores arrive before its
/// `Retire`, its transfer after.
struct Recorder {
    facts: Vec<BundleFacts>,
    steps: Vec<Step>,
    mem: Vec<MemAccess>,
    transfers: Vec<Transfer>,
}

impl Recorder {
    fn transfer(&mut self, target: FlowTarget) {
        self.transfers.push(Transfer {
            step: self.steps.len() as u32 - 1,
            target,
        });
    }
}

impl TraceSink for Recorder {
    fn event(&mut self, e: TraceEvent) {
        match e {
            TraceEvent::DataAccess {
                pc,
                addr,
                area,
                store,
                ..
            } if area != MemArea::Spm => self.mem.push(MemAccess {
                step: self.steps.len() as u32,
                addr,
                len: self.facts[pc as usize].mem_bytes,
                store,
            }),
            TraceEvent::Retire {
                pc,
                cycle,
                issue_cycles,
                ..
            } => {
                // Nothing moves the clock between a step's fault check
                // and its issue, so this is the cycle a trigger is
                // compared against.
                self.steps.push(Step {
                    start: cycle - issue_cycles,
                    access: self.facts[pc as usize].access,
                });
            }
            TraceEvent::Branch { pc, .. } => self.transfer(FlowTarget::Jump(pc)),
            TraceEvent::Call { pc, .. } => {
                self.transfer(FlowTarget::Call(pc));
                if let Some(last) = self.steps.last_mut() {
                    last.access.kills |= 1 << LINK_REG.index();
                }
            }
            TraceEvent::Return { pc, .. } => self.transfer(FlowTarget::Ret(pc)),
            _ => {}
        }
    }
}

/// The golden run's recording: the access index, the transfers, a few
/// checkpoints and the last forked run.
struct Replay {
    /// The golden run's machine, with no fault plan.
    config: SimConfig,
    program: Program,
    steps: Vec<Step>,
    /// Per [`CHUNK_STEPS`] steps, the union of their read and kill
    /// masks, so a scan for a location's next access skips every chunk
    /// that never touches it.
    chunks: Vec<u64>,
    mem: Vec<MemAccess>,
    transfers: Vec<Transfer>,
    /// Clones of the golden core before the step they are keyed by,
    /// evenly spaced, the first at step 0.
    checkpoints: Vec<(u32, Simulator)>,
    /// The last forked run, which answers the other detector arm of its
    /// injection. Its transfer log's buffer serves the next fork.
    last_fork: Mutex<Option<Fork>>,
    /// The folds asked of the last map, since a campaign asks the same
    /// few folds of one map for every injection.
    folds: Mutex<Option<Folds>>,
}

/// [`Replay::fold`]'s answers for one map, by the step they fold up to.
struct Folds {
    map: ControlFlowMap,
    upto: Vec<(u32, Option<LoopCounts>)>,
}

/// One forked injection, run once and unchecked. Its outcome is the
/// strict arm's answer, and its transfer log, folded through the
/// checker, the checker arm's ([`Fork::checked`]).
struct Fork {
    injection: Injection,
    outcome: InjectionOutcome,
    /// The cycle the flip landed at, if it did.
    injected_at: Option<u64>,
    transfers: Vec<LoggedTransfer>,
}

impl Fork {
    /// Runs `injection` unchecked from `checkpoint`, logging its
    /// transfers into `log`'s buffer.
    fn run(
        image: &ObjectImage,
        checkpoint: &Simulator,
        injection: Injection,
        golden: &GoldenRun,
        log: Vec<LoggedTransfer>,
    ) -> Fork {
        let mut sim = checkpoint.clone();
        sim.arm(&FaultPlan::single(injection), watchdog(golden));
        sim.log_transfers(log);
        let outcome = classify(image, &mut sim, golden);
        Fork {
            injection,
            outcome,
            injected_at: sim.fault_injected_at(),
            transfers: sim.take_transfer_log(),
        }
    }

    /// The checker arm's answer, the checker resumed from `counts`: the
    /// run cut off at the first transfer the checker rejects, or the
    /// run's own outcome when it rejects none.
    fn checked(&self, map: &ControlFlowMap, mut counts: LoopCounts) -> InjectionOutcome {
        let Some(stop) = self
            .transfers
            .iter()
            .find(|t| counts.check(map, t.target, t.pc).is_err())
        else {
            return self.outcome;
        };
        let injected_at = self.injected_at.filter(|_| stop.landed);
        InjectionOutcome {
            outcome: FaultOutcome::Detected(DetectorKind::ControlFlow),
            injected: stop.landed,
            detection_latency: injected_at.map(|at| stop.cycle.saturating_sub(at)),
            cycles: stop.cycle,
        }
    }
}

impl std::fmt::Debug for Replay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("steps", &self.steps.len())
            .field("mem_accesses", &self.mem.len())
            .field("transfers", &self.transfers.len())
            .field("checkpoints", &self.checkpoints.len())
            .finish_non_exhaustive()
    }
}

/// A flipped location, as the access index sees it.
enum Location {
    /// State the flip cannot change (r0, p0).
    Inert,
    /// A bit of [`Access`].
    Bit(u32),
    /// A main-memory byte.
    Byte(u32),
    /// Cache tags: values stay, timing moves, so every flip needs a run.
    Timing,
}

impl Location {
    fn of(target: FaultTarget) -> Location {
        match target {
            FaultTarget::Register { reg, .. } => match reg as usize % NUM_REGS {
                0 => Location::Inert,
                r => Location::Bit(r as u32),
            },
            FaultTarget::Predicate { pred } => match pred as usize % NUM_PREDS {
                0 => Location::Inert,
                p => Location::Bit(PRED_BIT + p as u32),
            },
            FaultTarget::Special { reg, .. } => Location::Bit(match reg {
                SpecialTarget::Sl => SL_BIT,
                SpecialTarget::Sh => SH_BIT,
                SpecialTarget::Sm => SM_BIT,
            }),
            FaultTarget::Memory { addr, bit } => {
                Location::Byte((addr & !3) + (bit as u32 % 32) / 8)
            }
            FaultTarget::CacheTags { .. } => Location::Timing,
        }
    }
}

impl Replay {
    /// Steps `sim`, fresh from `image`, to its halt while recording.
    /// Returns `None`, leaving the run unfinished, when it outgrows
    /// [`MAX_RECORDED_STEPS`].
    fn record(
        image: &ObjectImage,
        config: &SimConfig,
        sim: &mut Simulator,
    ) -> Result<Option<Replay>, SimError> {
        let mut facts = vec![BundleFacts::default(); image.code().len()];
        for (pc, first, second) in sim.bundles() {
            let mut access = Access::of_slot(&first);
            if let Some(second) = second {
                let s = Access::of_slot(&second);
                access.reads |= s.reads;
                access.kills |= s.kills;
            }
            let mem_bytes = match first.op {
                Op::Load { size, .. } | Op::Store { size, .. } => size.bytes(),
                Op::MainLoad { .. } | Op::MainStore { .. } => 4,
                _ => 0,
            };
            facts[pc as usize] = BundleFacts { access, mem_bytes };
        }
        let mut rec = Recorder {
            facts,
            steps: Vec::with_capacity(RESERVED_STEPS),
            mem: Vec::new(),
            transfers: Vec::new(),
        };
        let mut checkpoints = Vec::with_capacity(CHECKPOINTS);
        let mut interval = FIRST_INTERVAL;
        while !sim.is_halted() {
            let step = rec.steps.len();
            if step == MAX_RECORDED_STEPS {
                return Ok(None);
            }
            if step % interval == 0 {
                // Full: keep every other checkpoint and double the
                // spacing, so they stay few and even in one pass.
                if checkpoints.len() == CHECKPOINTS {
                    interval *= 2;
                    checkpoints.retain(|(s, _)| *s as usize % interval == 0);
                }
                if step % interval == 0 {
                    checkpoints.push((step as u32, sim.clone()));
                }
            }
            sim.step_traced(&mut rec)?;
        }
        // The result register is read at halt.
        if let Some(last) = rec.steps.last_mut() {
            last.access.reads |= 1 << Reg::R1.index();
        }
        rec.steps.shrink_to_fit();
        let chunks = rec
            .steps
            .chunks(CHUNK_STEPS)
            .map(|chunk| {
                chunk
                    .iter()
                    .fold(0, |mask, s| mask | s.access.reads | s.access.kills)
            })
            .collect();
        Ok(Some(Replay {
            config: SimConfig {
                max_cycles: 0,
                ..config.clone()
            },
            program: Program::of(image),
            steps: rec.steps,
            chunks,
            mem: rec.mem,
            transfers: rec.transfers,
            checkpoints,
            last_fork: Mutex::new(None),
            folds: Mutex::new(None),
        }))
    }

    /// Whether an injection into `image` under `config` may use this
    /// recording.
    fn matches(&self, image: &ObjectImage, config: &SimConfig) -> bool {
        let machine = SimConfig {
            faults: None,
            max_cycles: 0,
            ..config.clone()
        };
        self.config == machine && self.program.loads(image)
    }

    /// Answers `injection`, triggered at `cycle`: pruned when the golden run
    /// never observes it, else from its fork, which is run here unless it
    /// is the last fork kept. `None` when the checker would stop the
    /// golden run before the fork's checkpoint, which only a run from
    /// reset reproduces.
    fn answer(
        &self,
        image: &ObjectImage,
        cycle: u64,
        injection: Injection,
        flow: Option<&ControlFlowMap>,
        golden: &GoldenRun,
    ) -> Option<(InjectionOutcome, RunPath)> {
        // The flip lands before step `k`, the first whose fault check
        // sees `cycle`; past the last step it never lands.
        let k = self.steps.partition_point(|s| s.start < cycle);
        let fired = k < self.steps.len();
        let unobserved = if fired {
            self.unobserved(image, k, injection.target)
        } else {
            Some(FaultOutcome::Masked)
        };
        if let Some(outcome) = unobserved {
            // The run is the golden run, so the checker must pass all of
            // it, not just the stretch before the flip.
            if flow.is_none_or(|map| self.folded(map, u32::MAX).is_some()) {
                let outcome = InjectionOutcome {
                    outcome,
                    injected: fired,
                    detection_latency: None,
                    cycles: golden.cycles,
                };
                return Some((outcome, RunPath::Pruned));
            }
        }
        let (step, checkpoint) = self
            .checkpoints
            .iter()
            .rev()
            .find(|(s, _)| *s as usize <= k)?;
        // The checker resumes where the golden run left it.
        let checker = match flow {
            Some(map) => Some((map, self.folded(map, *step)?)),
            None => None,
        };
        let mut last = lock(&self.last_fork);
        if last.as_ref().is_none_or(|fork| fork.injection != injection) {
            let log = last.take().map(|fork| fork.transfers).unwrap_or_default();
            // Simulate unlocked: threads sharing this golden run wait for
            // the slot, never for a run.
            drop(last);
            let fork = Fork::run(image, checkpoint, injection, golden, log);
            last = lock(&self.last_fork);
            *last = Some(fork);
        }
        let fork = last.as_ref().expect("filled above");
        let outcome = match checker {
            Some((map, counts)) => fork.checked(map, counts),
            None => fork.outcome,
        };
        Some((outcome, RunPath::Forked))
    }

    /// The outcome of flipping `target` before step `k` when the golden
    /// run never reads it again before overwriting it whole: until that
    /// read the injected run *is* the golden run. `None` when it does.
    fn unobserved(
        &self,
        image: &ObjectImage,
        k: usize,
        target: FaultTarget,
    ) -> Option<FaultOutcome> {
        match Location::of(target) {
            Location::Inert => Some(FaultOutcome::Masked),
            Location::Bit(b) => {
                let bit = 1u64 << b;
                // Within a step, a read wins over a kill: reads see the
                // step's pre-state.
                match self.next_access(k, bit) {
                    Some(a) if a.reads & bit != 0 => None,
                    _ => Some(FaultOutcome::Masked),
                }
            }
            Location::Byte(addr) => {
                let from = self.mem.partition_point(|a| (a.step as usize) < k);
                match self.mem[from..]
                    .iter()
                    .find(|a| addr.wrapping_sub(a.addr) < a.len)
                {
                    Some(a) if a.store => Some(FaultOutcome::Masked),
                    Some(_) => None,
                    // Never touched again: `read_globals` compares it
                    // when it is global state.
                    None if image
                        .data()
                        .iter()
                        .any(|seg| addr.wrapping_sub(seg.addr) < seg.bytes.len() as u32) =>
                    {
                        Some(FaultOutcome::SilentDataCorruption)
                    }
                    None => Some(FaultOutcome::Masked),
                }
            }
            Location::Timing => None,
        }
    }

    /// The accesses of the first step from `k` on that reads or kills a
    /// location in `bit`, scanning only the chunks that touch one.
    fn next_access(&self, k: usize, bit: u64) -> Option<Access> {
        let mut from = k;
        while from < self.steps.len() {
            let chunk = from / CHUNK_STEPS;
            let end = self.steps.len().min((chunk + 1) * CHUNK_STEPS);
            if self.chunks[chunk] & bit != 0 {
                let step = self.steps[from..end]
                    .iter()
                    .find(|s| (s.access.reads | s.access.kills) & bit != 0);
                if let Some(step) = step {
                    return Some(step.access);
                }
            }
            from = end;
        }
        None
    }

    /// [`Replay::fold`], memoized for the last map asked about: a new
    /// map, compared by value, replaces the memo.
    fn folded(&self, map: &ControlFlowMap, upto: u32) -> Option<LoopCounts> {
        let mut memo = lock(&self.folds);
        if memo.as_ref().is_none_or(|m| m.map != *map) {
            *memo = Some(Folds {
                map: map.clone(),
                upto: Vec::new(),
            });
        }
        let memo = memo.as_mut().expect("filled above");
        if let Some((_, counts)) = memo.upto.iter().find(|(u, _)| *u == upto) {
            return counts.clone();
        }
        let counts = self.fold(map, upto);
        memo.upto.push((upto, counts.clone()));
        counts
    }

    /// The checker's counters after the golden run's transfers before
    /// step `upto`, through the checker's own [`LoopCounts::check`];
    /// `None` if the check stops the golden run first.
    fn fold(&self, map: &ControlFlowMap, upto: u32) -> Option<LoopCounts> {
        let mut counts = LoopCounts::new(map);
        for t in self.transfers.iter().take_while(|t| t.step < upto) {
            // Only whether the check passes matters here, not the pc a
            // violation would report.
            counts.check(map, t.target, 0).ok()?;
        }
        Some(counts)
    }
}

/// Locks one of a recording's memo slots. A panic mid-update leaves a
/// slot empty or whole, never torn, so a poisoned lock is still sound.
fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostStats, RunResult};
    use patmos_asm::assemble;
    use patmos_trace::VecSink;

    fn loop_image() -> ObjectImage {
        assemble(
            "        .func main\n        li r2 = 5\n        li r1 = 0\nloop:\n        .loopbound 5 5\n        addi r1 = r1, 3\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n",
        )
        .expect("assembles")
    }

    /// A call whose delay slot reads the link register, then a guarded
    /// def whose guard is false: `r1 = 100 + 7`.
    fn call_image() -> ObjectImage {
        assemble(
            "        .func callee\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        li r31 = 100\n        li r3 = 7\n        cmpieq p1 = r3, 8\n        call callee\n        add r1 = r31, r0\n        (p1) li r3 = 9\n        add r1 = r1, r3\n        halt\n",
        )
        .expect("assembles")
    }

    /// A byte store into a global word that a word load then reads back
    /// whole, and a multiply read through `sl`.
    fn mem_image() -> ObjectImage {
        assemble(
            "        .data d 0x10000\n        .word 0x01020304\n        .func main\n        lil r2 = 0x10000\n        li r3 = 9\n        mul r3, r3\n        sbc [r2 + 0] = r3\n        lwc r1 = [r2 + 0]\n        mfs r4 = sl\n        add r1 = r1, r4\n        halt\n",
        )
        .expect("assembles")
    }

    /// The configuration every oracle run uses.
    fn oracle() -> SimConfig {
        SimConfig {
            fast_path: false,
            ..SimConfig::default()
        }
    }

    /// A map that accepts every transfer the golden run makes, with
    /// `caps` added.
    fn permissive_map(image: &ObjectImage, caps: &[LoopCap]) -> ControlFlowMap {
        let mut sim = Simulator::new(image, SimConfig::default());
        let mut sink = VecSink::new();
        sim.run_traced(&mut sink).expect("runs");
        let mut map = ControlFlowMap::new();
        for e in &sink.events {
            match *e {
                TraceEvent::Call { pc, .. } => map.add_call_target(pc),
                TraceEvent::Return { pc, .. } => map.add_return_site(pc),
                _ => {}
            }
        }
        for cap in caps {
            map.add_loop_cap(*cap);
        }
        map
    }

    #[test]
    fn every_flip_of_small_programs_matches_the_oracle() {
        // Every location flipped before every step (and past the end),
        // under no checker, a checker the golden run passes, and one it
        // trips, on three machines.
        let loop_cap = |max| LoopCap {
            header: 2,
            span_end: 7,
            max,
        };
        let cases = [
            (
                loop_image(),
                vec![permissive_map(&loop_image(), &[loop_cap(5)]), {
                    let mut map = ControlFlowMap::new();
                    map.add_loop_cap(loop_cap(3));
                    map
                }],
            ),
            (
                call_image(),
                vec![permissive_map(&call_image(), &[]), ControlFlowMap::new()],
            ),
            (mem_image(), vec![permissive_map(&mem_image(), &[])]),
        ];
        let mut targets: Vec<FaultTarget> = (1..NUM_REGS as u8)
            .map(|reg| FaultTarget::Register { reg, bit: 0 })
            .collect();
        targets.extend((1..NUM_PREDS as u8).map(|pred| FaultTarget::Predicate { pred }));
        for reg in [SpecialTarget::Sl, SpecialTarget::Sh, SpecialTarget::Sm] {
            targets.push(FaultTarget::Special { reg, bit: 0 });
        }
        for bit in [0, 8, 16, 24, 32 + 9] {
            targets.push(FaultTarget::Memory { addr: 0x10000, bit });
        }
        targets.push(FaultTarget::Memory {
            addr: 0x10004,
            bit: 1,
        });
        for cache in [CacheSel::Data, CacheSel::Static] {
            targets.push(FaultTarget::CacheTags { cache });
        }
        let machines = [
            SimConfig::default(),
            SimConfig {
                dual_issue: false,
                ..SimConfig::default()
            },
            SimConfig {
                strict: false,
                ..SimConfig::default()
            },
        ];
        // A forked injection is simulated once for all its arms, so each
        // injection's arms are asked in order, in reverse, and once more
        // with an unrelated forked injection answered before each arm.
        let mut paths = [0u32; 3];
        for ((image, maps), machine) in cases
            .iter()
            .flat_map(|c| machines.iter().map(move |m| (c, m)))
        {
            let oracle = SimConfig {
                fast_path: false,
                ..machine.clone()
            };
            let golden = golden_run(image, machine).expect("golden");
            let reference = golden_run(image, &oracle).expect("oracle golden");
            assert_eq!(golden, reference);
            let arms: Vec<_> = std::iter::once(None).chain(maps.iter().map(Some)).collect();
            let unrelated = [CacheSel::Data, CacheSel::Static].map(|cache| {
                let injection = Injection {
                    trigger: FaultTrigger::Cycle(0),
                    target: FaultTarget::CacheTags { cache },
                };
                let want = run_injection(image, &oracle, injection, None, &reference);
                (injection, want)
            });
            for cycle in 0..=golden.cycles + 1 {
                for &target in &targets {
                    let injection = Injection {
                        trigger: FaultTrigger::Cycle(cycle),
                        target,
                    };
                    let want: Vec<_> = arms
                        .iter()
                        .map(|&flow| run_injection(image, &oracle, injection, flow, &reference))
                        .collect();
                    let (other, other_want) = unrelated
                        .into_iter()
                        .find(|(u, _)| *u != injection)
                        .expect("two distinct tag upsets");
                    let in_order = (0..arms.len()).map(|i| (i, false));
                    let reversed = (0..arms.len()).rev().map(|i| (i, false));
                    let interleaved = (0..arms.len()).map(|i| (i, true));
                    for (order, (i, miss)) in
                        in_order.chain(reversed).chain(interleaved).enumerate()
                    {
                        if miss {
                            let got = run_injection(image, machine, other, None, &golden);
                            assert_eq!(got, other_want, "{other:?}, {machine:?}");
                        }
                        let flow = arms[i];
                        let (got, path) =
                            run_injection_with_path(image, machine, injection, flow, &golden);
                        assert_eq!(
                            got,
                            want[i],
                            "{injection:?}, {machine:?}, checker {}, answered {path:?} \
                             (ask {order})",
                            flow.is_some()
                        );
                        paths[path as usize] += 1;
                    }
                }
            }
        }
        let [pruned, forked, from_reset] = paths;
        assert!(pruned > 0 && forked > 0, "{paths:?}");
        assert_eq!(from_reset, 0, "every cycle trigger has a checkpoint");
    }

    #[test]
    fn retired_pc_triggers_run_from_reset() {
        let image = loop_image();
        let golden = golden_run(&image, &SimConfig::default()).expect("golden");
        let injection = Injection {
            trigger: FaultTrigger::RetiredPc {
                pc: 2,
                occurrence: 2,
            },
            target: FaultTarget::Register { reg: 20, bit: 0 },
        };
        let (outcome, path) =
            run_injection_with_path(&image, &SimConfig::default(), injection, None, &golden);
        assert_eq!(path, RunPath::FromReset);
        assert_eq!(outcome.outcome, FaultOutcome::Masked);
    }

    #[test]
    fn a_golden_run_answers_only_for_its_own_image_and_machine() {
        let image = loop_image();
        let golden = golden_run(&image, &SimConfig::default()).expect("golden");
        let injection = Injection {
            trigger: FaultTrigger::Cycle(golden.cycles / 2),
            target: FaultTarget::Register { reg: 20, bit: 0 },
        };
        let (_, path) =
            run_injection_with_path(&image, &SimConfig::default(), injection, None, &golden);
        assert_eq!(path, RunPath::Pruned);
        // A budget or a plan of its own changes nothing: the injected
        // run sets both.
        let budget = SimConfig {
            max_cycles: 77,
            faults: Some(FaultPlan::default()),
            ..SimConfig::default()
        };
        let (_, path) = run_injection_with_path(&image, &budget, injection, None, &golden);
        assert_eq!(path, RunPath::Pruned);

        let other = assemble(
            "        .func main\n        li r2 = 4\n        li r1 = 0\nloop:\n        .loopbound 4 4\n        addi r1 = r1, 3\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n",
        )
        .expect("assembles");
        let single = SimConfig {
            dual_issue: false,
            ..SimConfig::default()
        };
        for (image, config) in [(&other, SimConfig::default()), (&image, single)] {
            let (outcome, path) = run_injection_with_path(image, &config, injection, None, &golden);
            assert_eq!(path, RunPath::FromReset);
            let oracle = SimConfig {
                fast_path: false,
                ..config
            };
            assert_eq!(
                outcome,
                run_injection(image, &oracle, injection, None, &golden)
            );
        }
    }

    #[test]
    fn a_golden_run_too_long_to_record_answers_from_reset() {
        // Six bundles an iteration: past MAX_RECORDED_STEPS.
        let image = assemble(
            "        .func main\n        lil r2 = 200000\n        li r1 = 0\nloop:\n        addi r1 = r1, 3\n        subi r2 = r2, 1\n        cmpineq p1 = r2, 0\n        (p1) br loop\n        nop\n        nop\n        halt\n",
        )
        .expect("assembles");
        let golden = golden_run(&image, &SimConfig::default()).expect("golden");
        assert_eq!(golden.result_r1, 600_000);
        assert_eq!(
            golden,
            golden_run(&image, &oracle()).expect("oracle golden")
        );
        let injection = Injection {
            trigger: FaultTrigger::Cycle(golden.cycles - 2),
            target: FaultTarget::Register { reg: 1, bit: 0 },
        };
        let (outcome, path) =
            run_injection_with_path(&image, &SimConfig::default(), injection, None, &golden);
        assert_eq!(path, RunPath::FromReset);
        assert_eq!(outcome.outcome, FaultOutcome::SilentDataCorruption);
    }

    #[test]
    fn the_checker_arm_never_prunes_a_golden_run_the_checker_stops() {
        let image = loop_image();
        let golden = golden_run(&image, &SimConfig::default()).expect("golden");
        let reference = golden_run(&image, &oracle()).expect("oracle golden");
        let mut map = ControlFlowMap::new();
        map.add_loop_cap(LoopCap {
            header: 2,
            span_end: 7,
            max: 3,
        });
        // r20 is dead, so without the checker the flip is pruned...
        let injection = Injection {
            trigger: FaultTrigger::Cycle(1),
            target: FaultTarget::Register { reg: 20, bit: 0 },
        };
        let (_, path) =
            run_injection_with_path(&image, &SimConfig::default(), injection, None, &golden);
        assert_eq!(path, RunPath::Pruned);
        // ...but the golden run itself exceeds the cap.
        let (outcome, path) = run_injection_with_path(
            &image,
            &SimConfig::default(),
            injection,
            Some(&map),
            &golden,
        );
        assert_ne!(path, RunPath::Pruned);
        assert_eq!(
            outcome.outcome,
            FaultOutcome::Detected(DetectorKind::ControlFlow)
        );
        assert_eq!(
            outcome,
            run_injection(&image, &oracle(), injection, Some(&map), &reference)
        );
    }

    #[test]
    fn a_clone_taken_mid_run_finishes_like_the_original() {
        let image = loop_image();
        let mut original = Simulator::new(&image, SimConfig::default());
        for _ in 0..6 {
            original.step().expect("steps");
        }
        let mut clone = original.clone();
        // The original finishes first: nothing it does may reach the
        // clone.
        let mut original_sink = VecSink::new();
        let a = original.run_traced(&mut original_sink).expect("runs");
        let mut clone_sink = VecSink::new();
        let b = clone.run_traced(&mut clone_sink).expect("runs");
        assert_eq!((a.stats, a.halt_pc), (b.stats, b.halt_pc));
        assert_eq!(original_sink.events, clone_sink.events);
        for r in 0..NUM_REGS as u8 {
            let reg = Reg::from_index(r);
            assert_eq!(original.reg(reg), clone.reg(reg));
        }
        for addr in 0..image.code().len() as u32 * 4 {
            assert_eq!(
                original.memory().read_byte(addr),
                clone.memory().read_byte(addr)
            );
        }
    }

    #[test]
    fn rng_is_deterministic_and_name_mixed() {
        let mut a = FaultRng::for_kernel(7, "crc");
        let mut b = FaultRng::for_kernel(7, "crc");
        let mut c = FaultRng::for_kernel(7, "fir");
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z, "kernel names must decorrelate streams");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let space = FaultSpace {
            max_cycle: 1000,
            mem_ranges: vec![(0x1000, 0x1100)],
        };
        assert_eq!(
            FaultPlan::seeded(42, 8, &space),
            FaultPlan::seeded(42, 8, &space)
        );
        assert_ne!(
            FaultPlan::seeded(42, 8, &space),
            FaultPlan::seeded(43, 8, &space)
        );
    }

    #[test]
    fn empty_plan_is_bit_identical_to_uninjected_run() {
        let image = loop_image();
        // Both runs are traced, so neither bursts: the events compare
        // bundle for bundle.
        let mut plain = Simulator::new(
            &image,
            SimConfig {
                fast_path: false,
                ..SimConfig::default()
            },
        );
        let mut plain_sink = VecSink::new();
        let plain_result = plain.run_traced(&mut plain_sink).expect("runs");

        let mut armed = Simulator::new(
            &image,
            SimConfig {
                faults: Some(FaultPlan::default()),
                ..SimConfig::default()
            },
        );
        let mut armed_sink = VecSink::new();
        let armed_result = armed.run_traced(&mut armed_sink).expect("runs");

        assert_eq!(plain_result.stats, armed_result.stats);
        assert_eq!(plain_result.halt_pc, armed_result.halt_pc);
        assert_eq!(plain.reg(Reg::R1), armed.reg(Reg::R1));
        assert_eq!(plain_sink.events, armed_sink.events);
    }

    /// A core on `image` with `plan` armed and the watchdog at
    /// `max_cycles`, run to its end.
    fn armed_run(
        image: &ObjectImage,
        plan: FaultPlan,
        fast_path: bool,
        max_cycles: u64,
    ) -> (Simulator, Result<RunResult, SimError>) {
        let config = SimConfig {
            fast_path,
            max_cycles,
            faults: Some(plan),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(image, config);
        let run = sim.run();
        (sim, run)
    }

    #[test]
    fn armed_cycle_plans_burst_and_land_where_the_step_lands() {
        let targets = [
            FaultTarget::Register { reg: 2, bit: 0 },
            FaultTarget::Register { reg: 1, bit: 4 },
            FaultTarget::CacheTags {
                cache: CacheSel::Static,
            },
        ];
        for image in [loop_image(), call_image(), mem_image()] {
            let golden = golden_run(&image, &SimConfig::default()).expect("golden");
            let budget = watchdog(&golden);
            for trigger in 0..=golden.cycles + 1 {
                for target in targets {
                    let plan = FaultPlan::single(Injection {
                        trigger: FaultTrigger::Cycle(trigger),
                        target,
                    });
                    let (fast, fast_run) = armed_run(&image, plan.clone(), true, budget);
                    let (slow, slow_run) = armed_run(&image, plan, false, budget);
                    let label = format!("{target:?} at cycle {trigger}");
                    assert_eq!(
                        fast_run.map(|r| (r.stats, r.halt_pc)),
                        slow_run.map(|r| (r.stats, r.halt_pc)),
                        "{label}"
                    );
                    assert_eq!(
                        fast.fault_injected_at(),
                        slow.fault_injected_at(),
                        "{label}"
                    );
                    assert_eq!(fast.reg(Reg::R1), slow.reg(Reg::R1), "{label}");
                    assert_eq!(slow.host_stats(), HostStats::default(), "{label}");
                }
            }
        }
        // Mid-run, the burst retires bundles both before the trigger and
        // after it: a budget that ends at the trigger keeps the first
        // stretch alone.
        let image = loop_image();
        let golden = golden_run(&image, &SimConfig::default()).expect("golden");
        let trigger = golden.cycles / 2;
        let plan = FaultPlan::single(Injection {
            trigger: FaultTrigger::Cycle(trigger),
            target: FaultTarget::Register { reg: 2, bit: 0 },
        });
        let (whole, _) = armed_run(&image, plan.clone(), true, watchdog(&golden));
        let (cut, cut_run) = armed_run(&image, plan, true, trigger);
        assert!(matches!(cut_run, Err(SimError::MaxCyclesExceeded { .. })));
        assert_eq!(cut.fault_injected_at(), None);
        let before = cut.host_stats().fast_bundles;
        let after = whole.host_stats().fast_bundles - before;
        assert!(before > 0 && after > 0, "{before} before, {after} after");
    }

    #[test]
    fn retired_pc_triggers_and_flow_checkers_keep_every_bundle_on_the_step() {
        let image = loop_image();
        let golden = golden_run(&image, &SimConfig::default()).expect("golden");
        let retired = Injection {
            trigger: FaultTrigger::RetiredPc {
                pc: 2,
                occurrence: 3,
            },
            target: FaultTarget::Register { reg: 2, bit: 1 },
        };
        let cycle = Injection {
            trigger: FaultTrigger::Cycle(1),
            target: FaultTarget::Register { reg: 20, bit: 0 },
        };
        for plan in [
            FaultPlan::single(retired),
            FaultPlan {
                injections: vec![cycle, retired],
            },
        ] {
            let (fast, fast_run) = armed_run(&image, plan.clone(), true, watchdog(&golden));
            let (slow, slow_run) = armed_run(&image, plan, false, watchdog(&golden));
            assert_eq!(fast.host_stats(), HostStats::default());
            assert!(fast.fault_injected_at().is_some());
            assert_eq!(fast.fault_injected_at(), slow.fault_injected_at());
            assert_eq!(
                fast_run.map(|r| (r.stats, r.halt_pc)),
                slow_run.map(|r| (r.stats, r.halt_pc))
            );
        }
        let mut checked = Simulator::new(&image, SimConfig::default());
        checked.install_flow_checker(permissive_map(&image, &[]));
        checked.run().expect("runs");
        assert_eq!(checked.host_stats(), HostStats::default());
    }

    #[test]
    fn a_logging_core_bursts_and_logs_what_the_step_logs() {
        let mut logs = Vec::new();
        for image in [loop_image(), call_image()] {
            let logged = |fast_path, plan: Option<FaultPlan>| {
                let config = SimConfig {
                    fast_path,
                    faults: plan,
                    ..SimConfig::default()
                };
                let mut sim = Simulator::new(&image, config);
                sim.log_transfers(Vec::new());
                sim.run().expect("runs");
                (sim.host_stats(), sim.take_transfer_log())
            };
            // The flip lands at the cycle the first transfer retires at,
            // so that transfer comes before it.
            let (_, unarmed) = logged(false, None);
            let plan = FaultPlan::single(Injection {
                trigger: FaultTrigger::Cycle(unarmed[0].cycle),
                target: FaultTarget::Register { reg: 20, bit: 0 },
            });
            let (fast_host, fast_log) = logged(true, Some(plan.clone()));
            let (_, slow_log) = logged(false, Some(plan));
            assert!(fast_host.fast_bundles > 0);
            assert_eq!(fast_log, slow_log);
            logs.extend(fast_log);
        }
        // Jumps, calls and returns, before the flip landed and after.
        for kind in [
            |t: FlowTarget| matches!(t, FlowTarget::Jump(_)),
            |t: FlowTarget| matches!(t, FlowTarget::Call(_)),
            |t: FlowTarget| matches!(t, FlowTarget::Ret(_)),
        ] {
            assert!(logs.iter().any(|t| kind(t.target)), "{logs:?}");
        }
        assert!(
            logs.iter().any(|t| t.landed) && logs.iter().any(|t| !t.landed),
            "{logs:?}"
        );
    }

    #[test]
    fn register_flip_at_cycle_corrupts_result() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        assert_eq!(golden.result_r1, 15);
        // Flip bit 4 of r1 after the loop has accumulated something.
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::Cycle(golden.cycles - 2),
                target: FaultTarget::Register { reg: 1, bit: 4 },
            },
            None,
            &golden,
        );
        assert!(outcome.injected);
        assert_eq!(outcome.outcome, FaultOutcome::SilentDataCorruption);
    }

    #[test]
    fn flip_of_dead_register_is_masked() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::Cycle(1),
                target: FaultTarget::Register { reg: 20, bit: 7 },
            },
            None,
            &golden,
        );
        assert!(outcome.injected);
        assert_eq!(outcome.outcome, FaultOutcome::Masked);
    }

    #[test]
    fn trigger_past_halt_never_fires() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::Cycle(golden.cycles + 100),
                target: FaultTarget::Register { reg: 1, bit: 0 },
            },
            None,
            &golden,
        );
        assert!(!outcome.injected);
        assert_eq!(outcome.outcome, FaultOutcome::Masked);
    }

    #[test]
    fn counter_flip_hangs_or_is_caught_by_loop_cap() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        // Flip a high bit of the loop counter (r2) mid-loop: the loop
        // now runs ~2^28 extra iterations. Without a flow map this is a
        // watchdog hang...
        let inj = Injection {
            trigger: FaultTrigger::Cycle(golden.cycles / 2),
            target: FaultTarget::Register { reg: 2, bit: 28 },
        };
        let plain = run_injection(&image, &cfg, inj, None, &golden);
        assert_eq!(plain.outcome, FaultOutcome::Hang);

        // ...and with the cap armed it is flagged within ~bound
        // iterations of the flip.
        let mut map = ControlFlowMap::new();
        // The loop header and back edge of loop_image(): measured from
        // the CFG by eye — header is the 3rd bundle (word 2), branch at
        // word 5 with 2 delay slots ending at word 7.
        map.add_loop_cap(LoopCap {
            header: 2,
            span_end: 7,
            max: 5,
        });
        let capped = run_injection(&image, &cfg, inj, Some(&map), &golden);
        assert_eq!(
            capped.outcome,
            FaultOutcome::Detected(DetectorKind::ControlFlow)
        );
        assert!(
            capped.detection_latency.expect("latency") < plain.cycles,
            "the cap must fire before the watchdog budget"
        );
    }

    #[test]
    fn retired_pc_trigger_fires_on_nth_retirement() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        // Kill the loop counter on the 4th retirement of the header:
        // one early exit's worth of iterations go missing.
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::RetiredPc {
                    pc: 2,
                    occurrence: 4,
                },
                target: FaultTarget::Register { reg: 2, bit: 0 },
            },
            None,
            &golden,
        );
        assert!(outcome.injected);
        assert_ne!(outcome.outcome, FaultOutcome::Masked);
    }

    #[test]
    fn cache_tag_upset_is_architecturally_masked() {
        let image = loop_image();
        let cfg = SimConfig::default();
        let golden = golden_run(&image, &cfg).expect("golden");
        let outcome = run_injection(
            &image,
            &cfg,
            Injection {
                trigger: FaultTrigger::Cycle(2),
                target: FaultTarget::CacheTags {
                    cache: CacheSel::Data,
                },
            },
            None,
            &golden,
        );
        assert!(outcome.injected);
        assert_eq!(
            outcome.outcome,
            FaultOutcome::Masked,
            "tag-only caches cannot corrupt values"
        );
    }
}
