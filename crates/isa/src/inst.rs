//! Operations, guarded instructions, and VLIW bundles.

use std::fmt;

use crate::mem::{AccessSize, MemArea};
use crate::reg::{Pred, Reg, SpecialReg};
use crate::LINK_REG;

/// A two-operand ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Xor,
    Or,
    And,
    Nor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
}

impl AluOp {
    /// All ALU operations in encoding order.
    pub const ALL: [AluOp; 9] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::Or,
        AluOp::And,
        AluOp::Nor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sra,
    ];

    /// The 4-bit function code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes an operation from its function code.
    pub fn from_code(code: u8) -> Option<AluOp> {
        AluOp::ALL.get(code as usize).copied()
    }

    /// Applies the operation to two 32-bit values.
    ///
    /// Shifts use only the low 5 bits of the second operand; `add`/`sub`
    /// wrap, as on the hardware.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Xor => a ^ b,
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Nor => !(a | b),
            AluOp::Shl => a.wrapping_shl(b & 31),
            AluOp::Shr => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
        }
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Xor => "xor",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Nor => "nor",
            // `sl`/`sr` rather than `shl`/`shr`: the latter collide with
            // the store-half mnemonics (e.g. store-half-local `shl`).
            AluOp::Shl => "sl",
            AluOp::Shr => "sr",
            AluOp::Sra => "sra",
        }
    }
}

/// A compare operation producing a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Neq,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
}

impl CmpOp {
    /// All compare operations in encoding order.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Ult,
        CmpOp::Ule,
    ];

    /// The 3-bit function code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a compare operation from its function code.
    pub fn from_code(code: u8) -> Option<CmpOp> {
        CmpOp::ALL.get(code as usize).copied()
    }

    /// Evaluates the comparison.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Neq => a != b,
            CmpOp::Lt => (a as i32) < (b as i32),
            CmpOp::Le => (a as i32) <= (b as i32),
            CmpOp::Ult => a < b,
            CmpOp::Ule => a <= b,
        }
    }

    /// The assembly mnemonic (used as `cmp<op>` / `cmpi<op>`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Neq => "neq",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Ult => "ult",
            CmpOp::Ule => "ule",
        }
    }
}

/// A logical combination of two predicate operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum PredOp {
    Or,
    And,
    Xor,
}

impl PredOp {
    /// All predicate operations in encoding order.
    pub const ALL: [PredOp; 3] = [PredOp::Or, PredOp::And, PredOp::Xor];

    /// The 2-bit function code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a predicate operation from its function code.
    pub fn from_code(code: u8) -> Option<PredOp> {
        PredOp::ALL.get(code as usize).copied()
    }

    /// Evaluates the combination.
    #[inline]
    pub fn apply(self, a: bool, b: bool) -> bool {
        match self {
            PredOp::Or => a | b,
            PredOp::And => a & b,
            PredOp::Xor => a ^ b,
        }
    }

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            PredOp::Or => "por",
            PredOp::And => "pand",
            PredOp::Xor => "pxor",
        }
    }
}

/// A possibly negated predicate operand, as used by [`Op::PredSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredSrc {
    /// The predicate register read.
    pub pred: Pred,
    /// Whether the read value is inverted.
    pub negate: bool,
}

impl PredSrc {
    /// A non-negated predicate operand.
    pub fn plain(pred: Pred) -> PredSrc {
        PredSrc {
            pred,
            negate: false,
        }
    }

    /// A negated predicate operand.
    pub fn negated(pred: Pred) -> PredSrc {
        PredSrc { pred, negate: true }
    }
}

impl fmt::Display for PredSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negate {
            write!(f, "!{}", self.pred)
        } else {
            write!(f, "{}", self.pred)
        }
    }
}

/// The guard of an instruction: a possibly negated predicate register.
///
/// Every Patmos instruction is fully predicated (paper, Section 3.1).
/// The guard [`Guard::ALWAYS`] (non-negated `p0`) makes the instruction
/// unconditional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// The guarding predicate register.
    pub pred: Pred,
    /// Whether the guard is the negation of the predicate.
    pub negate: bool,
}

impl Guard {
    /// The unconditional guard: non-negated `p0`.
    pub const ALWAYS: Guard = Guard {
        pred: Pred::P0,
        negate: false,
    };

    /// A guard that is true when `pred` is true.
    pub fn when(pred: Pred) -> Guard {
        Guard {
            pred,
            negate: false,
        }
    }

    /// A guard that is true when `pred` is false.
    pub fn unless(pred: Pred) -> Guard {
        Guard { pred, negate: true }
    }

    /// Whether this guard is statically always true.
    #[inline]
    pub fn is_always(self) -> bool {
        self.pred.is_always_true() && !self.negate
    }

    /// Evaluates the guard against a predicate-file snapshot (`preds[i]`
    /// is the value of `p<i>`; `preds[0]` must be `true`).
    #[inline]
    pub fn eval(self, preds: &[bool; crate::NUM_PREDS]) -> bool {
        preds[self.pred.index() as usize] ^ self.negate
    }
}

impl Default for Guard {
    fn default() -> Self {
        Guard::ALWAYS
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negate {
            write!(f, "(!{})", self.pred)
        } else {
            write!(f, "({})", self.pred)
        }
    }
}

/// A Patmos operation (the part of an instruction below the guard).
///
/// Offsets of typed loads and stores are in units of the access size;
/// branch and call offsets are in words, relative to the address of the
/// first word of the bundle containing the control-transfer instruction.
///
/// The register type `R` is the physical [`Reg`] by default; a compiler
/// spells the same operations over its virtual registers before
/// allocation and maps them over with [`Op::map_regs`]. The queries on
/// every `Op<R>` read the operand fields alone; what the hardware adds
/// (a call writes and `ret` reads the link register, a write to `r0` is
/// discarded) is known on `Op<Reg>` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op<R = Reg> {
    /// No operation.
    Nop,
    /// Register-register ALU operation: `rd = rs1 <op> rs2`.
    AluR {
        /// The function.
        op: AluOp,
        /// Destination register.
        rd: R,
        /// First source register.
        rs1: R,
        /// Second source register.
        rs2: R,
    },
    /// Register-immediate ALU operation: `rd = rs1 <op> imm` with a
    /// sign-extended 12-bit immediate.
    AluI {
        /// The function.
        op: AluOp,
        /// Destination register.
        rd: R,
        /// Source register.
        rs1: R,
        /// Sign-extended 12-bit immediate (must fit in `-2048..=2047`).
        imm: i16,
    },
    /// Multiply `rs1 * rs2`, writing the 64-bit product to `sl`/`sh` with a
    /// visible one-bundle gap before `mfs` may read it.
    Mul {
        /// First source register.
        rs1: R,
        /// Second source register.
        rs2: R,
    },
    /// Load a 16-bit immediate into the lower half (sign-extending) of `rd`.
    LoadImmLow {
        /// Destination register.
        rd: R,
        /// The immediate.
        imm: u16,
    },
    /// Load a 16-bit immediate into the upper half of `rd`, keeping the
    /// lower half.
    LoadImmHigh {
        /// Destination register.
        rd: R,
        /// The immediate.
        imm: u16,
    },
    /// Load a full 32-bit immediate, using the second issue slot for the
    /// constant (paper, Section 3.1). Occupies the whole bundle.
    LoadImm32 {
        /// Destination register.
        rd: R,
        /// The immediate.
        imm: u32,
    },
    /// Compare two registers into a predicate: `pd = rs1 <op> rs2`.
    Cmp {
        /// The comparison.
        op: CmpOp,
        /// Destination predicate.
        pd: Pred,
        /// First source register.
        rs1: R,
        /// Second source register.
        rs2: R,
    },
    /// Compare a register against a sign-extended 11-bit immediate.
    CmpI {
        /// The comparison.
        op: CmpOp,
        /// Destination predicate.
        pd: Pred,
        /// Source register.
        rs1: R,
        /// Sign-extended 11-bit immediate (must fit in `-1024..=1023`).
        imm: i16,
    },
    /// Combine two predicates: `pd = p1 <op> p2`.
    PredSet {
        /// The combination.
        op: PredOp,
        /// Destination predicate.
        pd: Pred,
        /// First operand.
        p1: PredSrc,
        /// Second operand.
        p2: PredSrc,
    },
    /// Typed load: `rd = area[ra + offset]`, `offset` scaled by the access
    /// size, 7-bit signed. Sub-word loads zero-extend.
    Load {
        /// The memory area (selects the cache).
        area: MemArea,
        /// Access width.
        size: AccessSize,
        /// Destination register.
        rd: R,
        /// Base address register.
        ra: R,
        /// Signed offset in units of the access size (`-64..=63`).
        offset: i16,
    },
    /// Typed store: `area[ra + offset] = rs`.
    Store {
        /// The memory area (selects the cache).
        area: MemArea,
        /// Access width.
        size: AccessSize,
        /// Base address register.
        ra: R,
        /// Signed offset in units of the access size (`-64..=63`).
        offset: i16,
        /// Source register.
        rs: R,
    },
    /// Start a split main-memory load of the word at `ra + offset*4`
    /// (paper, Section 3.3). The result lands in `sm`; [`Op::MainWait`]
    /// retrieves it, stalling only if it has not yet arrived.
    MainLoad {
        /// Base address register.
        ra: R,
        /// Signed word offset (`-2048..=2047`).
        offset: i16,
    },
    /// Explicitly wait for the outstanding split load and move its result
    /// to `rd`. This is the only data instruction that may stall.
    MainWait {
        /// Destination register.
        rd: R,
    },
    /// Posted store of `rs` to main memory at `ra + offset*4`. Retires
    /// through a one-entry write buffer; a subsequent main-memory access
    /// waits for it to drain.
    MainStore {
        /// Base address register.
        ra: R,
        /// Signed word offset (`-2048..=2047`).
        offset: i16,
        /// Source register.
        rs: R,
    },
    /// Relative branch within the current function, 22-bit word offset.
    Br {
        /// Signed word offset relative to this bundle's address.
        offset: i32,
    },
    /// Direct call: branch to a function start and link (return address to
    /// `r31`). Checks the method cache.
    Call {
        /// Signed word offset relative to this bundle's address.
        offset: i32,
    },
    /// Register-indirect call to a 32-bit address, linking to `r31`
    /// (paper, Section 3.1). Checks the method cache.
    CallR {
        /// Register holding the target word address.
        rs: R,
    },
    /// Return to the address in `r31`. Checks the method cache.
    Ret,
    /// Reserve `words` words on the stack cache, spilling to main memory
    /// if the cache overflows.
    Sres {
        /// Number of words to reserve.
        words: u32,
    },
    /// Ensure `words` words of the current frame are in the stack cache,
    /// filling from main memory if needed (used after calls).
    Sens {
        /// Number of words that must be resident.
        words: u32,
    },
    /// Free `words` words from the stack cache (no memory traffic).
    Sfree {
        /// Number of words to free.
        words: u32,
    },
    /// Move a register to a special register.
    Mts {
        /// Destination special register.
        sd: SpecialReg,
        /// Source register.
        rs: R,
    },
    /// Move a special register to a register.
    Mfs {
        /// Destination register.
        rd: R,
        /// Source special register.
        ss: SpecialReg,
    },
    /// Stop the simulated processor (simulation artifact; a real Patmos
    /// would idle).
    Halt,
}

/// The control-flow effect of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// Falls through.
    None,
    /// Intra-function branch by a word offset.
    Branch(i32),
    /// Direct call by a word offset.
    CallDirect(i32),
    /// Indirect call through a register.
    CallIndirect(Reg),
    /// Return through the link register.
    Return,
    /// Simulation halt.
    Halt,
}

impl<R: Copy> Op<R> {
    /// The register field the operation writes, if any. A field naming
    /// `r0` is reported too; [`Op::def`] is the physical definition.
    pub fn dest(&self) -> Option<R> {
        let mut op = *self;
        op.dest_mut().copied()
    }

    /// The field [`Op::dest`] reports, for rewriting it in place.
    pub fn dest_mut(&mut self) -> Option<&mut R> {
        match self {
            Op::AluR { rd, .. }
            | Op::AluI { rd, .. }
            | Op::LoadImmLow { rd, .. }
            | Op::LoadImmHigh { rd, .. }
            | Op::LoadImm32 { rd, .. }
            | Op::Load { rd, .. }
            | Op::MainWait { rd }
            | Op::Mfs { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// The register fields the operation reads (at most two,
    /// `None`-padded), in the order [`Op::map_uses`] visits them. `ret`
    /// reads the link register through no field; [`Op::uses`] adds it.
    #[inline]
    pub fn sources(&self) -> [Option<R>; 2] {
        match *self {
            Op::AluR { rs1, rs2, .. } | Op::Mul { rs1, rs2 } | Op::Cmp { rs1, rs2, .. } => {
                [Some(rs1), Some(rs2)]
            }
            Op::AluI { rs1, .. } | Op::CmpI { rs1, .. } => [Some(rs1), None],
            Op::LoadImmHigh { rd, .. } => [Some(rd), None],
            Op::Load { ra, .. } | Op::MainLoad { ra, .. } => [Some(ra), None],
            Op::Store { ra, rs, .. } | Op::MainStore { ra, rs, .. } => [Some(ra), Some(rs)],
            Op::CallR { rs } | Op::Mts { rs, .. } => [Some(rs), None],
            _ => [None, None],
        }
    }

    /// Rewrites every register [`Op::sources`] reports through `f`, in
    /// the same order.
    pub fn map_uses(&mut self, mut f: impl FnMut(R) -> R) {
        match self {
            Op::AluR { rs1, rs2, .. } | Op::Mul { rs1, rs2 } | Op::Cmp { rs1, rs2, .. } => {
                *rs1 = f(*rs1);
                *rs2 = f(*rs2);
            }
            Op::AluI { rs1, .. } | Op::CmpI { rs1, .. } => *rs1 = f(*rs1),
            Op::LoadImmHigh { rd, .. } => *rd = f(*rd),
            Op::Load { ra, .. } | Op::MainLoad { ra, .. } => *ra = f(*ra),
            Op::Store { ra, rs, .. } | Op::MainStore { ra, rs, .. } => {
                *ra = f(*ra);
                *rs = f(*rs);
            }
            Op::CallR { rs } | Op::Mts { rs, .. } => *rs = f(*rs),
            _ => {}
        }
    }

    /// The same operation over the registers `f` maps every register
    /// field to; every other field is kept.
    pub fn map_regs<S>(self, mut f: impl FnMut(R) -> S) -> Op<S> {
        match self {
            Op::Nop => Op::Nop,
            Op::AluR { op, rd, rs1, rs2 } => Op::AluR {
                op,
                rd: f(rd),
                rs1: f(rs1),
                rs2: f(rs2),
            },
            Op::AluI { op, rd, rs1, imm } => Op::AluI {
                op,
                rd: f(rd),
                rs1: f(rs1),
                imm,
            },
            Op::Mul { rs1, rs2 } => Op::Mul {
                rs1: f(rs1),
                rs2: f(rs2),
            },
            Op::LoadImmLow { rd, imm } => Op::LoadImmLow { rd: f(rd), imm },
            Op::LoadImmHigh { rd, imm } => Op::LoadImmHigh { rd: f(rd), imm },
            Op::LoadImm32 { rd, imm } => Op::LoadImm32 { rd: f(rd), imm },
            Op::Cmp { op, pd, rs1, rs2 } => Op::Cmp {
                op,
                pd,
                rs1: f(rs1),
                rs2: f(rs2),
            },
            Op::CmpI { op, pd, rs1, imm } => Op::CmpI {
                op,
                pd,
                rs1: f(rs1),
                imm,
            },
            Op::PredSet { op, pd, p1, p2 } => Op::PredSet { op, pd, p1, p2 },
            Op::Load {
                area,
                size,
                rd,
                ra,
                offset,
            } => Op::Load {
                area,
                size,
                rd: f(rd),
                ra: f(ra),
                offset,
            },
            Op::Store {
                area,
                size,
                ra,
                offset,
                rs,
            } => Op::Store {
                area,
                size,
                ra: f(ra),
                offset,
                rs: f(rs),
            },
            Op::MainLoad { ra, offset } => Op::MainLoad { ra: f(ra), offset },
            Op::MainWait { rd } => Op::MainWait { rd: f(rd) },
            Op::MainStore { ra, offset, rs } => Op::MainStore {
                ra: f(ra),
                offset,
                rs: f(rs),
            },
            Op::Br { offset } => Op::Br { offset },
            Op::Call { offset } => Op::Call { offset },
            Op::CallR { rs } => Op::CallR { rs: f(rs) },
            Op::Ret => Op::Ret,
            Op::Sres { words } => Op::Sres { words },
            Op::Sens { words } => Op::Sens { words },
            Op::Sfree { words } => Op::Sfree { words },
            Op::Mts { sd, rs } => Op::Mts { sd, rs: f(rs) },
            Op::Mfs { rd, ss } => Op::Mfs { rd: f(rd), ss },
            Op::Halt => Op::Halt,
        }
    }

    /// The predicate register written, if any.
    pub fn pred_def(&self) -> Option<Pred> {
        match *self {
            Op::Cmp { pd, .. } | Op::CmpI { pd, .. } | Op::PredSet { pd, .. } => Some(pd),
            _ => None,
        }
    }

    /// The predicate registers read by the operation body (the guard is
    /// accounted for separately on [`Inst`]).
    pub fn pred_uses(&self) -> [Option<Pred>; 2] {
        match *self {
            Op::PredSet { p1, p2, .. } => [Some(p1.pred), Some(p2.pred)],
            _ => [None, None],
        }
    }

    /// Whether this operation writes the `sl`/`sh` special registers.
    pub fn writes_mul_result(&self) -> bool {
        matches!(self, Op::Mul { .. })
    }

    /// Whether this operation is a memory access (typed or main).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Op::Load { .. }
                | Op::Store { .. }
                | Op::MainLoad { .. }
                | Op::MainWait { .. }
                | Op::MainStore { .. }
        )
    }

    /// Whether this operation manipulates the stack cache.
    pub fn is_stack_control(&self) -> bool {
        matches!(self, Op::Sres { .. } | Op::Sens { .. } | Op::Sfree { .. })
    }

    /// Whether this operation may be placed in the second issue slot.
    ///
    /// Per the paper (Section 3.1), branches and memory accesses are
    /// restricted to the first pipeline; this implementation also keeps
    /// the multiplier, special-register moves, stack control and `halt`
    /// in slot one.
    pub fn allowed_in_second_slot(&self) -> bool {
        matches!(
            self,
            Op::Nop
                | Op::AluR { .. }
                | Op::AluI { .. }
                | Op::LoadImmLow { .. }
                | Op::LoadImmHigh { .. }
                | Op::Cmp { .. }
                | Op::CmpI { .. }
                | Op::PredSet { .. }
        )
    }

    /// Whether this operation fills its bundle: a [`Op::LoadImm32`]
    /// carries its constant in the second slot's word (paper, Section
    /// 3.1), so it pairs with nothing and its bundle takes two words.
    #[inline]
    pub fn fills_bundle(&self) -> bool {
        matches!(self, Op::LoadImm32 { .. })
    }
}

impl Op {
    /// The control-flow effect of this operation.
    #[inline]
    pub fn flow_kind(&self) -> FlowKind {
        match *self {
            Op::Br { offset } => FlowKind::Branch(offset),
            Op::Call { offset } => FlowKind::CallDirect(offset),
            Op::CallR { rs } => FlowKind::CallIndirect(rs),
            Op::Ret => FlowKind::Return,
            Op::Halt => FlowKind::Halt,
            _ => FlowKind::None,
        }
    }

    /// Whether this operation transfers control.
    #[inline]
    pub fn is_flow(&self) -> bool {
        !matches!(self.flow_kind(), FlowKind::None)
    }

    /// The general-purpose register written, if any: [`Op::dest`] unless
    /// it is `r0`, and the link register for a call.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Op::Call { .. } | Op::CallR { .. } => Some(LINK_REG),
            _ => self.dest().filter(|rd| !rd.is_zero()),
        }
    }

    /// The general-purpose registers read (at most two, `None`-padded):
    /// [`Op::sources`], and the link register for `ret`.
    #[inline]
    pub fn uses(&self) -> [Option<Reg>; 2] {
        match self {
            Op::Ret => [Some(LINK_REG), None],
            _ => self.sources(),
        }
    }

    /// Redirects the register [`Op::def`] reports to `new`. Returns
    /// `false`, leaving the operation alone, when it defines no register
    /// (a write to `r0` included) or only the link register a call
    /// writes implicitly.
    pub fn set_def(&mut self, new: Reg) -> bool {
        match self.dest_mut() {
            Some(rd) if !rd.is_zero() => {
                *rd = new;
                true
            }
            _ => false,
        }
    }
}

impl<R: fmt::Display> fmt::Display for Op<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Nop => write!(f, "nop"),
            Op::AluR { op, rd, rs1, rs2 } => {
                write!(f, "{} {} = {}, {}", op.mnemonic(), rd, rs1, rs2)
            }
            Op::AluI { op, rd, rs1, imm } => {
                write!(f, "{}i {} = {}, {}", op.mnemonic(), rd, rs1, imm)
            }
            Op::Mul { rs1, rs2 } => write!(f, "mul {}, {}", rs1, rs2),
            Op::LoadImmLow { rd, imm } => write!(f, "li {} = {}", rd, *imm as i16),
            Op::LoadImmHigh { rd, imm } => write!(f, "liu {} = {}", rd, imm),
            Op::LoadImm32 { rd, imm } => write!(f, "lil {} = {}", rd, imm),
            Op::Cmp { op, pd, rs1, rs2 } => {
                write!(f, "cmp{} {} = {}, {}", op.mnemonic(), pd, rs1, rs2)
            }
            Op::CmpI { op, pd, rs1, imm } => {
                write!(f, "cmpi{} {} = {}, {}", op.mnemonic(), pd, rs1, imm)
            }
            Op::PredSet { op, pd, p1, p2 } => {
                write!(f, "{} {} = {}, {}", op.mnemonic(), pd, p1, p2)
            }
            Op::Load {
                area,
                size,
                rd,
                ra,
                offset,
            } => {
                write!(
                    f,
                    "l{}{} {} = [{} + {}]",
                    size,
                    area.suffix(),
                    rd,
                    ra,
                    offset
                )
            }
            Op::Store {
                area,
                size,
                ra,
                offset,
                rs,
            } => {
                write!(
                    f,
                    "s{}{} [{} + {}] = {}",
                    size,
                    area.suffix(),
                    ra,
                    offset,
                    rs
                )
            }
            Op::MainLoad { ra, offset } => write!(f, "ldm [{} + {}]", ra, offset),
            Op::MainWait { rd } => write!(f, "wres {}", rd),
            Op::MainStore { ra, offset, rs } => write!(f, "stm [{} + {}] = {}", ra, offset, rs),
            Op::Br { offset } => write!(f, "br {}", offset),
            Op::Call { offset } => write!(f, "call {}", offset),
            Op::CallR { rs } => write!(f, "callr {}", rs),
            Op::Ret => write!(f, "ret"),
            Op::Sres { words } => write!(f, "sres {}", words),
            Op::Sens { words } => write!(f, "sens {}", words),
            Op::Sfree { words } => write!(f, "sfree {}", words),
            Op::Mts { sd, rs } => write!(f, "mts {} = {}", sd, rs),
            Op::Mfs { rd, ss } => write!(f, "mfs {} = {}", rd, ss),
            Op::Halt => write!(f, "halt"),
        }
    }
}

/// A guarded instruction: a [`Guard`] plus an [`Op`].
///
/// # Example
///
/// ```
/// use patmos_isa::{AluOp, Inst, Op, Pred, Reg};
///
/// let unconditional = Inst::always(Op::Nop);
/// assert_eq!(unconditional.to_string(), "nop");
///
/// let guarded = Inst::when(
///     Pred::P1,
///     Op::AluI { op: AluOp::Add, rd: Reg::R1, rs1: Reg::R1, imm: 1 },
/// );
/// assert_eq!(guarded.to_string(), "(p1) addi r1 = r1, 1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The guard predicate.
    pub guard: Guard,
    /// The operation.
    pub op: Op,
}

impl Inst {
    /// An instruction with an explicit guard.
    pub fn new(guard: Guard, op: Op) -> Inst {
        Inst { guard, op }
    }

    /// An unconditional instruction (guarded by `p0`).
    pub fn always(op: Op) -> Inst {
        Inst {
            guard: Guard::ALWAYS,
            op,
        }
    }

    /// An instruction executed when `pred` is true.
    pub fn when(pred: Pred, op: Op) -> Inst {
        Inst {
            guard: Guard::when(pred),
            op,
        }
    }

    /// An instruction executed when `pred` is false.
    pub fn unless(pred: Pred, op: Op) -> Inst {
        Inst {
            guard: Guard::unless(pred),
            op,
        }
    }

    /// A `nop`.
    pub fn nop() -> Inst {
        Inst::always(Op::Nop)
    }

    /// The number of architecturally exposed delay slots that follow this
    /// instruction if it transfers control.
    ///
    /// Unconditional direct branches and calls are detected in the decode
    /// stage (paper, Section 3.2: the branch offset feeds the PC
    /// multiplexer from `IR`), costing one delay bundle. Guarded branches,
    /// indirect calls and returns resolve in the execute stage, costing
    /// two. Non-flow instructions report zero.
    #[inline]
    pub fn delay_slots(&self) -> u32 {
        match self.op.flow_kind() {
            FlowKind::Branch(_) | FlowKind::CallDirect(_) => {
                if self.guard.is_always() {
                    crate::timing::BRANCH_DELAY_UNCOND
                } else {
                    crate::timing::BRANCH_DELAY_COND
                }
            }
            FlowKind::CallIndirect(_) | FlowKind::Return => crate::timing::BRANCH_DELAY_COND,
            FlowKind::Halt | FlowKind::None => 0,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.guard.is_always() {
            write!(f, "{} ", self.guard)?;
        }
        write!(f, "{}", self.op)
    }
}

/// The reason a bundle is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleError {
    /// The second slot holds an operation restricted to the first pipeline.
    IllegalSecondSlot,
    /// A `lil` (32-bit immediate load) must occupy a bundle alone.
    LongImmediateNotAlone,
    /// Both slots write the same register in the same cycle.
    ConflictingWrites,
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::IllegalSecondSlot => {
                f.write_str("operation is not allowed in the second issue slot")
            }
            BundleError::LongImmediateNotAlone => {
                f.write_str("32-bit immediate load must be the only operation in its bundle")
            }
            BundleError::ConflictingWrites => f.write_str("both slots write the same register"),
        }
    }
}

impl std::error::Error for BundleError {}

/// A VLIW issue bundle: one or two guarded instructions issued together.
///
/// The first word of a bundle carries its length bit (paper, Section 3.1).
/// A bundle with a second slot, or whose single instruction is a
/// [`Op::LoadImm32`], occupies two words.
///
/// # Example
///
/// ```
/// use patmos_isa::{Bundle, Inst, Op};
/// let b = Bundle::single(Inst::always(Op::Halt));
/// assert_eq!(b.width_words(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bundle {
    first: Inst,
    second: Option<Inst>,
}

impl Bundle {
    /// A single-slot bundle.
    pub fn single(first: Inst) -> Bundle {
        Bundle {
            first,
            second: None,
        }
    }

    /// A two-slot bundle.
    ///
    /// # Panics
    ///
    /// Panics if the pair violates the slot rules; use [`Bundle::try_pair`]
    /// for a fallible constructor.
    pub fn pair(first: Inst, second: Inst) -> Bundle {
        Bundle::try_pair(first, second).expect("illegal bundle")
    }

    /// A two-slot bundle, checking the slot rules.
    ///
    /// # Errors
    ///
    /// Returns a [`BundleError`] if the second operation is not allowed in
    /// slot two, either operation is a long immediate load, or both slots
    /// write the same register.
    pub fn try_pair(first: Inst, second: Inst) -> Result<Bundle, BundleError> {
        if first.op.fills_bundle() || second.op.fills_bundle() {
            return Err(BundleError::LongImmediateNotAlone);
        }
        if !second.op.allowed_in_second_slot() {
            return Err(BundleError::IllegalSecondSlot);
        }
        if let (Some(a), Some(b)) = (first.op.def(), second.op.def()) {
            if a == b {
                return Err(BundleError::ConflictingWrites);
            }
        }
        if let (Some(a), Some(b)) = (first.op.pred_def(), second.op.pred_def()) {
            if a == b {
                return Err(BundleError::ConflictingWrites);
            }
        }
        Ok(Bundle {
            first,
            second: Some(second),
        })
    }

    /// The instruction in the first issue slot.
    pub fn first(&self) -> &Inst {
        &self.first
    }

    /// The instruction in the second issue slot, if present.
    #[inline]
    pub fn second(&self) -> Option<&Inst> {
        self.second.as_ref()
    }

    /// Iterates over the occupied slots.
    #[inline]
    pub fn slots(&self) -> impl Iterator<Item = &Inst> {
        std::iter::once(&self.first).chain(self.second.as_ref())
    }

    /// The number of 32-bit words this bundle occupies in memory (1 or 2).
    #[inline]
    pub fn width_words(&self) -> u32 {
        if self.second.is_some() || self.first.op.fills_bundle() {
            2
        } else {
            1
        }
    }

    /// The control-flow instruction of this bundle, if any (only slot one
    /// may hold one).
    #[inline]
    pub fn flow_inst(&self) -> Option<&Inst> {
        self.first.op.is_flow().then_some(&self.first)
    }

    /// The delay slots exposed after this bundle (zero if it does not
    /// transfer control).
    #[inline]
    pub fn delay_slots(&self) -> u32 {
        self.flow_inst().map_or(0, Inst::delay_slots)
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.second {
            None => write!(f, "{}", self.first),
            Some(second) => write!(f, "{{ {} ; {} }}", self.first, second),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst::always(Op::AluR {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        })
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u32::MAX);
        assert_eq!(AluOp::Sra.apply(0x8000_0000, 31), u32::MAX);
        assert_eq!(AluOp::Shr.apply(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Nor.apply(0, 0), u32::MAX);
        assert_eq!(AluOp::Shl.apply(1, 33), 2, "shift amount uses low 5 bits");
    }

    #[test]
    fn cmp_semantics() {
        assert!(CmpOp::Lt.apply(u32::MAX, 0), "-1 < 0 signed");
        assert!(!CmpOp::Ult.apply(u32::MAX, 0));
        assert!(CmpOp::Le.apply(5, 5));
        assert!(CmpOp::Neq.apply(1, 2));
    }

    #[test]
    fn guard_eval() {
        let mut preds = [false; crate::NUM_PREDS];
        preds[0] = true;
        preds[2] = true;
        assert!(Guard::ALWAYS.eval(&preds));
        assert!(Guard::when(Pred::P2).eval(&preds));
        assert!(!Guard::when(Pred::P3).eval(&preds));
        assert!(Guard::unless(Pred::P3).eval(&preds));
    }

    #[test]
    fn defs_and_uses() {
        let st = Op::Store {
            area: MemArea::Data,
            size: AccessSize::Word,
            ra: Reg::R2,
            offset: 0,
            rs: Reg::R3,
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), [Some(Reg::R2), Some(Reg::R3)]);

        let call = Op::Call { offset: 4 };
        assert_eq!(call.def(), Some(LINK_REG));

        // Writes to r0 are discarded and must not count as definitions.
        let to_zero = Op::AluI {
            op: AluOp::Add,
            rd: Reg::R0,
            rs1: Reg::R1,
            imm: 1,
        };
        assert_eq!(to_zero.def(), None);
    }

    #[test]
    fn bundle_slot_rules() {
        let ld = Inst::always(Op::Load {
            area: MemArea::Stack,
            size: AccessSize::Word,
            rd: Reg::R1,
            ra: Reg::R2,
            offset: 0,
        });
        let a = add(Reg::R3, Reg::R4, Reg::R5);
        assert!(
            Bundle::try_pair(ld, a).is_ok(),
            "load in slot 1, ALU in slot 2"
        );
        assert_eq!(
            Bundle::try_pair(a, ld).unwrap_err(),
            BundleError::IllegalSecondSlot
        );
    }

    #[test]
    fn bundle_conflicting_writes() {
        let a = add(Reg::R3, Reg::R4, Reg::R5);
        let b = add(Reg::R3, Reg::R6, Reg::R7);
        assert_eq!(
            Bundle::try_pair(a, b).unwrap_err(),
            BundleError::ConflictingWrites
        );
    }

    #[test]
    fn long_immediate_occupies_bundle() {
        let lil = Inst::always(Op::LoadImm32 {
            rd: Reg::R1,
            imm: 0xdead_beef,
        });
        assert_eq!(Bundle::single(lil).width_words(), 2);
        let a = add(Reg::R3, Reg::R4, Reg::R5);
        assert_eq!(
            Bundle::try_pair(lil, a).unwrap_err(),
            BundleError::LongImmediateNotAlone
        );
    }

    #[test]
    fn delay_slots_by_guard() {
        let uncond = Inst::always(Op::Br { offset: 8 });
        let cond = Inst::when(Pred::P1, Op::Br { offset: 8 });
        assert_eq!(uncond.delay_slots(), crate::timing::BRANCH_DELAY_UNCOND);
        assert_eq!(cond.delay_slots(), crate::timing::BRANCH_DELAY_COND);
        assert_eq!(
            Inst::always(Op::Ret).delay_slots(),
            crate::timing::BRANCH_DELAY_COND
        );
        assert_eq!(Inst::always(Op::Halt).delay_slots(), 0);
    }

    #[test]
    fn display_round_readable() {
        let b = Bundle::pair(
            add(Reg::R1, Reg::R2, Reg::R3),
            Inst::when(
                Pred::P1,
                Op::CmpI {
                    op: CmpOp::Lt,
                    pd: Pred::P2,
                    rs1: Reg::R1,
                    imm: 10,
                },
            ),
        );
        assert_eq!(
            b.to_string(),
            "{ add r1 = r2, r3 ; (p1) cmpilt p2 = r1, 10 }"
        );
    }
}
