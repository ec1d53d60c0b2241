//! Simulation errors.

use std::fmt;

use patmos_isa::Reg;

/// Why a simulated program could not continue.
///
/// In strict mode most of these report violations of the ISA's visible
/// timing contract — the compiler bugs Patmos makes detectable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The PC does not point at the start of a decoded bundle.
    BadPc {
        /// The offending word address.
        pc: u32,
    },
    /// A register was read before its producer's visible delay elapsed.
    DelayViolation {
        /// Word address of the consuming bundle.
        pc: u32,
        /// The register read too early.
        reg: Reg,
        /// Bundles still missing before the value is architecturally
        /// visible.
        bundles_short: u32,
    },
    /// `mfs sl/sh` before the multiply gap elapsed.
    MulGapViolation {
        /// Word address of the offending bundle.
        pc: u32,
    },
    /// A control-flow instruction inside another one's delay slots.
    FlowInDelaySlot {
        /// Word address of the offending bundle.
        pc: u32,
    },
    /// A stack-cache access outside the cached window (missing `sens`),
    /// or a `sens` of a frame larger than the stack cache.
    StackWindowViolation {
        /// Word address of the offending bundle.
        pc: u32,
        /// The accessed offset in words above the stack top.
        offset_words: u32,
    },
    /// `wres` with no outstanding split load.
    NoPendingLoad {
        /// Word address of the offending bundle.
        pc: u32,
    },
    /// A second `ldm` while one is still outstanding.
    LoadStillPending {
        /// Word address of the offending bundle.
        pc: u32,
    },
    /// A call to an address that is not a function entry.
    NotAFunction {
        /// The target word address.
        target: u32,
    },
    /// A typed access named the `main` area (only split accesses may).
    IllegalMainAccess {
        /// Word address of the offending bundle.
        pc: u32,
    },
    /// The cycle budget was exhausted without reaching `halt`.
    MaxCyclesExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The loaded image does not decode into bundles (a corrupt or
    /// hand-forged code section — assembler output always decodes).
    MalformedImage {
        /// The decoder's description of the first undecodable word.
        reason: String,
    },
    /// The control-flow checker saw a resolved call or return leave the
    /// statically legal edge set — a wild branch that lands on valid
    /// code, which the plain contract checks cannot see.
    IllegalControlFlow {
        /// PC at the time of the transfer.
        pc: u32,
        /// The illegal target word address.
        target: u32,
    },
    /// The control-flow checker counted more entries of a loop header
    /// than its `.loopbound` flow cap allows — a runaway loop flagged
    /// before the cycle-budget watchdog expires.
    LoopBoundExceeded {
        /// The loop header's word address.
        header: u32,
        /// The violated bound.
        bound: u32,
    },
    /// A cache line fill does not fit in one slot of the configured TDMA
    /// schedule, so a memory transfer could never be granted.
    TdmaSlotTooShort {
        /// Cycles of a line-fill burst.
        burst_cycles: u32,
        /// Cycles of one TDMA slot.
        slot_cycles: u32,
    },
    /// The configured core index lies outside the TDMA schedule, so the
    /// core owns no slot.
    TdmaCoreOutOfRange {
        /// The configured core index.
        core: u32,
        /// Cores in the schedule.
        cores: u32,
    },
    /// A CMP core's host worker thread panicked; the panic is contained
    /// and reported for the lowest affected core instead of aborting the
    /// whole process.
    CoreWorkerPanicked {
        /// The core whose worker died.
        core: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadPc { pc } => write!(f, "pc {pc:#x} is not a bundle start"),
            SimError::DelayViolation { pc, reg, bundles_short } => write!(
                f,
                "bundle at {pc:#x} reads {reg} {bundles_short} bundle(s) before its visible delay elapsed"
            ),
            SimError::MulGapViolation { pc } => {
                write!(f, "bundle at {pc:#x} reads sl/sh inside the multiply gap")
            }
            SimError::FlowInDelaySlot { pc } => {
                write!(f, "control flow in a delay slot at {pc:#x}")
            }
            SimError::StackWindowViolation { pc, offset_words } => write!(
                f,
                "stack access at {pc:#x} to word offset {offset_words} outside the cached window"
            ),
            SimError::NoPendingLoad { pc } => {
                write!(f, "wres at {pc:#x} with no outstanding split load")
            }
            SimError::LoadStillPending { pc } => {
                write!(f, "ldm at {pc:#x} while a split load is outstanding")
            }
            SimError::NotAFunction { target } => {
                write!(f, "call target {target:#x} is not a function entry")
            }
            SimError::IllegalMainAccess { pc } => {
                write!(f, "typed access to the main area at {pc:#x}; use ldm/stm")
            }
            SimError::MaxCyclesExceeded { limit } => {
                write!(f, "exceeded the cycle budget of {limit}")
            }
            SimError::MalformedImage { reason } => {
                write!(f, "image does not decode: {reason}")
            }
            SimError::IllegalControlFlow { pc, target } => {
                write!(
                    f,
                    "control transfer at {pc:#x} to {target:#x} leaves the legal edge set"
                )
            }
            SimError::LoopBoundExceeded { header, bound } => {
                write!(
                    f,
                    "loop header {header:#x} entered more than its flow cap of {bound}"
                )
            }
            SimError::TdmaSlotTooShort {
                burst_cycles,
                slot_cycles,
            } => write!(
                f,
                "a {burst_cycles}-cycle line fill does not fit in a {slot_cycles}-cycle TDMA slot"
            ),
            SimError::TdmaCoreOutOfRange { core, cores } => {
                write!(f, "core {core} is outside the {cores}-core TDMA schedule")
            }
            SimError::CoreWorkerPanicked { core } => {
                write!(f, "core {core}'s worker thread panicked")
            }
        }
    }
}

impl std::error::Error for SimError {}
