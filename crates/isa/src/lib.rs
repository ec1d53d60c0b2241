//! Instruction-set architecture of the Patmos time-predictable processor.
//!
//! Patmos (Schoeberl et al., *Towards a Time-predictable Dual-Issue
//! Microprocessor: The Patmos Approach*, PPES 2011) is a 32-bit, statically
//! scheduled, dual-issue RISC processor whose instruction delays are fully
//! visible at the ISA level. This crate defines that ISA:
//!
//! * [`Reg`], [`Pred`] and [`SpecialReg`] — the register files;
//! * [`Op`], [`Inst`] and [`Bundle`] — operations, guarded instructions and
//!   the one- or two-slot VLIW issue bundles;
//! * [`encode`](encode()) / [`decode`](decode()) — the 32/64-bit binary
//!   bundle format (the first word of a bundle carries its length bit);
//! * [`MemArea`] — the typed memory areas selected by typed load/store
//!   instructions (stack cache, static-data cache, heap data cache,
//!   scratchpad, and main memory via split loads);
//! * [`timing`] — the architecturally visible delays (branch delay slots,
//!   load-use gaps, multiply gap) that the compiler must respect and that
//!   the WCET analysis relies on.
//!
//! # Example
//!
//! Build, encode and decode a two-slot bundle:
//!
//! ```
//! use patmos_isa::{AluOp, Bundle, Inst, Op, Reg};
//!
//! # fn main() -> Result<(), patmos_isa::DecodeError> {
//! let bundle = Bundle::pair(
//!     Inst::always(Op::AluR { op: AluOp::Add, rd: Reg::R1, rs1: Reg::R2, rs2: Reg::R3 }),
//!     Inst::always(Op::AluI { op: AluOp::Sub, rd: Reg::R4, rs1: Reg::R4, imm: 1 }),
//! );
//! let words = patmos_isa::encode(&bundle);
//! let (decoded, len) = patmos_isa::decode(&words)?;
//! assert_eq!(decoded, bundle);
//! assert_eq!(len, 2);
//! # Ok(())
//! # }
//! ```

pub mod encoding;
pub mod inst;
pub mod mem;
pub mod reg;
pub mod timing;

pub use encoding::{decode, decode_all, encode, DecodeError};
pub use inst::{AluOp, Bundle, BundleError, CmpOp, FlowKind, Guard, Inst, Op, PredOp, PredSrc};
pub use mem::{AccessSize, MemArea};
pub use reg::{Pred, Reg, SpecialReg};

/// Number of general-purpose registers (`r0` is hard-wired to zero).
pub const NUM_REGS: usize = 32;
/// Number of predicate registers (`p0` is hard-wired to true).
pub const NUM_PREDS: usize = 8;
/// Register that receives the return address on `call`.
pub const LINK_REG: Reg = Reg::R31;
/// Shadow-stack pointer register by ABI convention (for address-taken
/// locals that cannot live in the stack cache).
pub const SHADOW_SP: Reg = Reg::R29;

// The compiler's register conventions. The allocator, the modulo
// scheduler's renamer and code generation all read them from here.

/// Registers the allocator hands out, by index: `r7`–`r28`. Every one
/// of them is caller-saved.
pub const ALLOC_POOL: std::ops::RangeInclusive<u8> = 7..=28;
/// Spill scratch, `r2` and `r30`: a spilled operand is reloaded into
/// the first, a second spilled operand of the same instruction into
/// the second, and a spilled definition is written to the first.
pub const SPILL_SCRATCH: [Reg; 2] = [Reg::R2, Reg::R30];
/// Argument registers in parameter order, `r3`–`r6`; a call passes at
/// most this many arguments, and the result returns in `r1`.
pub const ARG_REGS: [Reg; 4] = [Reg::R3, Reg::R4, Reg::R5, Reg::R6];
/// Predicate scratch for branch conditions and loop exits: `p6`.
pub const EXIT_PRED: Pred = Pred::P6;
/// Predicate scratch for materialised booleans and the single-path
/// loop condition: `p7`.
pub const BOOL_PRED: Pred = Pred::P7;
