//! Virtual-register LIR: the compiler's code-generation output.
//!
//! Code generation produces instructions over an unbounded supply of
//! [`VReg`] virtual registers; the allocator (`patmos-regalloc`) maps
//! them onto the physical Patmos register file. A machine operation is
//! the ISA's own [`Op`] over [`VReg`] ([`VOp::Machine`]): its operand
//! queries and its printer are the ISA's, and the allocator maps it with
//! [`Op::map_regs`]. The other operations are the ones the ISA cannot
//! spell before allocation: a `lil`, `call` or `br` naming a symbol, and
//! the calling convention's two copies ([`VOp::CopyToPhys`],
//! [`VOp::CopyFromPhys`]), so the allocator never has to reason about
//! general pre-colored operands: physical registers appear only as the
//! source or destination of a copy.
//!
//! Stack-control instructions (`sres`/`sens`/`sfree`), the link-register
//! save, and all spill traffic are *absent* at this level — the
//! allocator inserts them, because only it knows the final frame size.

use std::fmt;

use patmos_isa::{Guard, Op, Reg};

use crate::Function;

/// A virtual register. `VReg::ZERO` (id 0) is special: it always maps to
/// the hard-wired zero register `r0` and is never allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(u32);

impl VReg {
    /// The virtual alias of the hard-wired zero register.
    pub const ZERO: VReg = VReg(0);

    /// Creates a virtual register with the given id (0 is [`VReg::ZERO`]).
    pub fn new(id: u32) -> VReg {
        VReg(id)
    }

    /// The numeric id.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Whether this is the zero alias.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            f.write_str("vz")
        } else {
            write!(f, "v{}", self.0)
        }
    }
}

/// An operation over virtual registers: one the ISA spells, or one it
/// cannot spell before allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VOp {
    /// An ISA operation over virtual registers. Code generation emits
    /// ALU, multiply, immediate-load, compare, predicate, typed memory,
    /// `mfs`, `ret` and `halt` operations; the allocator maps their
    /// registers, and adds the link restore and `sfree` before a `ret`
    /// and the `sfree` before a `halt`.
    Machine(Op<VReg>),
    /// `lil rd = symbol`.
    LilSym {
        /// Destination.
        rd: VReg,
        /// Data symbol name.
        sym: String,
    },
    /// ABI copy into a physical register (argument marshalling, return
    /// value placement). Lowered to `add dst = src, r0`.
    CopyToPhys {
        /// Physical destination (`r1`, `r3`–`r6`).
        dst: Reg,
        /// Virtual source.
        src: VReg,
    },
    /// ABI copy out of a physical register (parameter homing, call
    /// result capture). Lowered to `add dst = src, r0`.
    CopyFromPhys {
        /// Virtual destination.
        dst: VReg,
        /// Physical source (`r1`, `r3`–`r6`).
        src: Reg,
    },
    /// Direct call by name. Clobbers every allocatable register; the
    /// allocator saves live values around it.
    CallFunc(String),
    /// Branch to a label in the same function.
    BrLabel(String),
}

impl From<Op<VReg>> for VOp {
    fn from(op: Op<VReg>) -> VOp {
        VOp::Machine(op)
    }
}

impl VOp {
    /// The virtual register defined, if any (writes to the zero alias
    /// are discarded, mirroring `r0`).
    pub fn def(&self) -> Option<VReg> {
        let rd = match *self {
            VOp::Machine(op) => op.dest(),
            VOp::LilSym { rd, .. } | VOp::CopyFromPhys { dst: rd, .. } => Some(rd),
            _ => None,
        };
        rd.filter(|v| !v.is_zero())
    }

    /// The virtual registers read (at most two; the zero alias is
    /// filtered out).
    pub fn uses(&self) -> [Option<VReg>; 2] {
        let raw = match *self {
            VOp::Machine(op) => op.sources(),
            VOp::CopyToPhys { src, .. } => [Some(src), None],
            _ => [None, None],
        };
        raw.map(|r| r.filter(|v| !v.is_zero()))
    }

    /// Whether this operation ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, VOp::BrLabel(_) | VOp::Machine(Op::Ret | Op::Halt))
    }

    /// Rewrites every virtual-register operand through `f` (defs are
    /// untouched; the zero alias passes through `f` like any other).
    pub fn map_uses(&mut self, mut f: impl FnMut(VReg) -> VReg) {
        match self {
            VOp::Machine(op) => op.map_uses(f),
            VOp::CopyToPhys { src, .. } => *src = f(*src),
            _ => {}
        }
    }

    /// Redirects the defined register to `new`, the zero alias included.
    /// Returns `false` (and leaves the operation alone) when it defines
    /// nothing.
    pub fn set_def(&mut self, new: VReg) -> bool {
        let rd = match self {
            VOp::Machine(op) => op.dest_mut(),
            VOp::LilSym { rd, .. } | VOp::CopyFromPhys { dst: rd, .. } => Some(rd),
            _ => None,
        };
        rd.map(|rd| *rd = new).is_some()
    }

    /// Whether the operation has no effect beyond its register def: it
    /// can be deleted once that def is dead. Loads count as pure — the
    /// PatC areas cannot fault, so a dead load only warms a cache.
    /// `Mul` is *not* pure (it defines the `sl`/`sh` pair), and neither
    /// are compares or predicate ops (predicates are not tracked here).
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            VOp::Machine(
                Op::AluR { .. }
                    | Op::AluI { .. }
                    | Op::Mfs { .. }
                    | Op::LoadImmLow { .. }
                    | Op::LoadImmHigh { .. }
                    | Op::LoadImm32 { .. }
                    | Op::Load { .. }
            ) | VOp::LilSym { .. }
                | VOp::CopyFromPhys { .. }
        )
    }
}

impl fmt::Display for VOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VOp::Machine(op) => write!(f, "{op}"),
            VOp::LilSym { rd, sym } => write!(f, "lil {rd} = {sym}"),
            VOp::CopyToPhys { dst, src } => write!(f, "mov {dst} = {src}"),
            VOp::CopyFromPhys { dst, src } => write!(f, "mov {dst} = {src}"),
            VOp::CallFunc(name) => write!(f, "call {name}"),
            VOp::BrLabel(label) => write!(f, "br {label}"),
        }
    }
}

/// A guarded virtual instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VInst {
    /// The guard.
    pub guard: Guard,
    /// The operation.
    pub op: VOp,
}

impl VInst {
    /// An unconditional instruction.
    pub fn always(op: impl Into<VOp>) -> VInst {
        VInst::new(Guard::ALWAYS, op)
    }

    /// A guarded instruction.
    pub fn new(guard: Guard, op: impl Into<VOp>) -> VInst {
        VInst {
            guard,
            op: op.into(),
        }
    }
}

impl fmt::Display for VInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.guard.is_always() {
            write!(f, "{} ", self.guard)?;
        }
        write!(f, "{}", self.op)
    }
}

/// One item of a function's virtual code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VItem {
    /// A label.
    Label(String),
    /// A `.loopbound` annotation for the label that follows.
    LoopBound {
        /// Minimum header executions.
        min: u32,
        /// Maximum header executions.
        max: u32,
    },
    /// An instruction.
    Inst(VInst),
}

/// A compiled module over virtual registers.
#[derive(Debug, Clone, Default)]
pub struct VModule {
    /// The functions, in layout order.
    pub funcs: Vec<Function<VItem>>,
    /// Name of the entry function.
    pub entry: String,
}

impl VModule {
    /// Renders the virtual code for human inspection (`--dump-lir`).
    pub fn render(&self) -> String {
        self.funcs.iter().map(Function::render).collect()
    }
}

impl Function<VItem> {
    /// Renders the function's virtual code, `.func` line first.
    pub fn render(&self) -> String {
        let mut out = format!(".func {}\n", self.name);
        for item in &self.items {
            match item {
                VItem::Label(name) => out.push_str(&format!("{name}:\n")),
                VItem::LoopBound { min, max } => {
                    out.push_str(&format!("        .loopbound {min} {max}\n"))
                }
                VItem::Inst(inst) => out.push_str(&format!("        {inst}\n")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::AluOp;

    #[test]
    fn zero_alias_is_never_a_def_or_use() {
        let op = VOp::Machine(Op::AluR {
            op: AluOp::Add,
            rd: VReg::ZERO,
            rs1: VReg::new(1),
            rs2: VReg::ZERO,
        });
        assert_eq!(op.def(), None);
        assert_eq!(op.uses(), [Some(VReg::new(1)), None]);
    }

    #[test]
    fn copies_expose_their_virtual_side() {
        let to = VOp::CopyToPhys {
            dst: Reg::R3,
            src: VReg::new(7),
        };
        assert_eq!(to.def(), None);
        assert_eq!(to.uses(), [Some(VReg::new(7)), None]);
        let from = VOp::CopyFromPhys {
            dst: VReg::new(9),
            src: Reg::R1,
        };
        assert_eq!(from.def(), Some(VReg::new(9)));
        assert_eq!(from.uses(), [None, None]);
    }

    #[test]
    fn render_is_stable() {
        let inst = VInst::always(Op::AluI {
            op: AluOp::Add,
            rd: VReg::new(3),
            rs1: VReg::new(2),
            imm: 4,
        });
        assert_eq!(inst.to_string(), "addi v3 = v2, 4");
    }
}
