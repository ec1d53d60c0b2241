//! Tree-walking code generation: AST → virtual-register LIR.
//!
//! Code generation targets an unbounded supply of virtual registers
//! ([`patmos_lir::vlir`]); the register allocator downstream maps
//! them onto the physical file and inserts whatever spill code is
//! actually needed. Conventions:
//!
//! * scalar locals and parameters live in virtual registers (the
//!   allocator decides which end up in `r7`–`r28` and which spill to
//!   stack-cache slots); arrays stay in their memory areas;
//! * `r1` carries return values and `r3`–`r6` ([`ARG_REGS`]) the (up to
//!   four) arguments — expressed with explicit ABI copy pseudo-ops so
//!   the allocator never sees a bare physical operand elsewhere;
//! * predicates `p1`–`p5` form the if-conversion allocation stack, `p6`
//!   and `p7` are scratch ([`EXIT_PRED`] for branch conditions and loop
//!   exits, [`BOOL_PRED`] for boolean materialisation);
//! * the stack-cache frame protocol (`sres`/`sens`/`sfree`, link-register
//!   save) is emitted by the allocator, which knows the final frame
//!   size — code generation emits none of it.
//!
//! Code generation ignores instruction timing entirely: the scheduler
//! ([`crate::sched`]) legalises visible delays and packs bundles.

use std::collections::HashMap;
use std::fmt;

use patmos_asm::{Operand, MAX_SEGMENT_BYTES};
use patmos_isa::{
    AluOp, CmpOp, Guard, MemArea, Op, Pred, PredOp, PredSrc, Reg, ARG_REGS, BOOL_PRED, EXIT_PRED,
};
use patmos_lir::vlir::{VInst, VItem, VModule, VOp, VReg};
use patmos_lir::Function;

use crate::ast::*;
use crate::srcmap::{LoopSpan, SourceMap};
use crate::CompileOptions;

/// Base byte address of static-area globals.
pub const STATIC_BASE: u32 = 0x0001_0000;
/// Base byte address of heap-area globals.
pub const HEAP_BASE: u32 = 0x0010_0000;

/// Most statements an `if`/`else` arm may hold and still be
/// if-converted (outside single-path mode, which converts every arm).
const IF_CONVERT_MAX_STMTS: usize = 4;

/// Semantic / code-generation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// Reference to an undeclared variable.
    UnknownVariable(String),
    /// Call to an undefined function.
    UnknownFunction(String),
    /// Two definitions of the same name.
    Duplicate(String),
    /// `/` or `%` by something other than a positive power of two.
    DivisorNotPowerOfTwo,
    /// More than four call arguments.
    TooManyArgs(String),
    /// If-conversion nesting exceeded the predicate registers.
    PredicateDepthExceeded,
    /// A call inside a predicated region (cannot be annulled).
    CallInPredicatedCode,
    /// A `return` inside a predicated region.
    ReturnInPredicatedCode,
    /// A loop inside a predicated region outside single-path mode.
    LoopInPredicatedCode,
    /// `spm` globals cannot carry initialisers (the loader only fills
    /// main memory).
    SpmInitialiser(String),
    /// A global larger than one data segment may be
    /// ([`patmos_asm::MAX_SEGMENT_BYTES`]).
    GlobalTooLarge {
        /// The global.
        name: String,
        /// Its size in bytes.
        bytes: u64,
    },
    /// A global that ends past its data area: a static global running
    /// into the heap at `0x100000`, or any global past the 32-bit
    /// address space.
    AreaOverflow {
        /// The area (`static`, `heap` or `spm`).
        area: &'static str,
        /// The global.
        name: String,
        /// One past its last byte.
        end: u64,
        /// The highest end the area allows.
        limit: u64,
    },
    /// No `main` function.
    MissingMain,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::UnknownVariable(n) => write!(f, "unknown variable `{n}`"),
            CodegenError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            CodegenError::Duplicate(n) => write!(f, "duplicate definition of `{n}`"),
            CodegenError::DivisorNotPowerOfTwo => {
                f.write_str("`/` and `%` require a positive power-of-two constant")
            }
            CodegenError::TooManyArgs(n) => write!(f, "call to `{n}` passes more than 4 arguments"),
            CodegenError::PredicateDepthExceeded => {
                f.write_str("if-conversion nesting exceeds predicate registers")
            }
            CodegenError::CallInPredicatedCode => {
                f.write_str("calls are not allowed in predicated regions")
            }
            CodegenError::ReturnInPredicatedCode => {
                f.write_str("return is not allowed in predicated regions")
            }
            CodegenError::LoopInPredicatedCode => {
                f.write_str("loops in predicated regions require single-path mode")
            }
            CodegenError::SpmInitialiser(n) => {
                write!(f, "spm global `{n}` cannot have initialisers")
            }
            CodegenError::GlobalTooLarge { name, bytes } => write!(
                f,
                "global `{name}` needs {bytes} bytes, over the {MAX_SEGMENT_BYTES}-byte segment \
                 limit"
            ),
            CodegenError::AreaOverflow {
                area,
                name,
                end,
                limit,
            } => write!(
                f,
                "{area} global `{name}` ends at {end:#x}, past the end of its area at {limit:#x}"
            ),
            CodegenError::MissingMain => f.write_str("no `main` function"),
        }
    }
}

impl std::error::Error for CodegenError {}

#[derive(Clone, Copy)]
struct GlobalRef {
    qualifier: MemQualifier,
}

fn area_of(q: MemQualifier) -> MemArea {
    match q {
        MemQualifier::Static => MemArea::Static,
        MemQualifier::Heap => MemArea::Data,
        MemQualifier::Spm => MemArea::Spm,
    }
}

/// Lowers a parsed program to virtual-register LIR, alongside the
/// source map relating generated labels back to PatC source lines and
/// the data layout as assembler statements (`.data`, `.word`, `.space`,
/// `.equ`).
///
/// # Errors
///
/// See [`CodegenError`].
pub fn lower(
    program: &Program,
    options: &CompileOptions,
) -> Result<(VModule, SourceMap, Vec<patmos_asm::Stmt>), CodegenError> {
    let mut module = VModule::default();
    let mut srcmap = SourceMap::default();
    let mut data = Vec::new();
    let mut globals: HashMap<String, GlobalRef> = HashMap::new();

    // Data layout, in 64-bit arithmetic so no size can wrap. Per area:
    // its name, the next free address and the highest end it allows.
    // The static area ends where the heap begins; every area ends
    // inside the 32-bit address space.
    let top = u64::from(u32::MAX);
    let mut static_area = ("static", u64::from(STATIC_BASE), u64::from(HEAP_BASE));
    let mut heap_area = ("heap", u64::from(HEAP_BASE), top);
    let mut spm_area = ("spm", 0, top);
    for g in &program.globals {
        if globals
            .insert(
                g.name.clone(),
                GlobalRef {
                    qualifier: g.qualifier,
                },
            )
            .is_some()
        {
            return Err(CodegenError::Duplicate(g.name.clone()));
        }
        if g.qualifier == MemQualifier::Spm && !g.init.is_empty() {
            return Err(CodegenError::SpmInitialiser(g.name.clone()));
        }
        let bytes = 4 * u64::from(g.len);
        if bytes > u64::from(MAX_SEGMENT_BYTES) {
            return Err(CodegenError::GlobalTooLarge {
                name: g.name.clone(),
                bytes,
            });
        }
        let area = match g.qualifier {
            MemQualifier::Static => &mut static_area,
            MemQualifier::Heap => &mut heap_area,
            MemQualifier::Spm => &mut spm_area,
        };
        let (kind, addr, limit) = *area;
        let end = addr + bytes;
        if end > limit {
            return Err(CodegenError::AreaOverflow {
                area: kind,
                name: g.name.clone(),
                end,
                limit,
            });
        }
        area.1 = end;
        let name = g.name.clone();
        // Every area ends inside the 32-bit address space (checked
        // above), so its addresses fit a `u32`.
        if g.qualifier == MemQualifier::Spm {
            data.push(patmos_asm::Stmt::Equ {
                name,
                value: addr as i64,
            });
            continue;
        }
        data.push(patmos_asm::Stmt::Data {
            name,
            addr: addr as u32,
        });
        if !g.init.is_empty() {
            let words = g.init.iter().map(|&v| Operand::Val(v)).collect();
            data.push(patmos_asm::Stmt::Words(words));
        }
        // At most `MAX_SEGMENT_BYTES` (checked above).
        let rest = u64::from(g.len) - g.init.len() as u64;
        if rest > 0 {
            data.push(patmos_asm::Stmt::Space(4 * rest as u32));
        }
    }

    let func_names: HashMap<String, usize> = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i))
        .collect();
    if func_names.len() != program.functions.len() {
        return Err(CodegenError::Duplicate("function".into()));
    }
    if !func_names.contains_key("main") {
        return Err(CodegenError::MissingMain);
    }

    for func in &program.functions {
        srcmap.funcs.push((func.name.clone(), func.line));
        let mut ctx = FnCtx {
            globals: &globals,
            func_names: &func_names,
            options,
            items: Vec::new(),
            locals: HashMap::new(),
            next_vreg: 1,
            label_counter: 0,
            func: func.name.clone(),
            guard: Guard::ALWAYS,
            pred_depth: 0,
            is_main: func.name == "main",
            loops: Vec::new(),
        };
        // Home the parameters into their virtual registers.
        for (i, p) in func.params.iter().enumerate() {
            let v = ctx.alloc_local(p)?;
            ctx.push_op(VOp::CopyFromPhys {
                dst: v,
                src: ARG_REGS[i],
            });
        }

        for stmt in &func.body {
            ctx.stmt(stmt)?;
        }
        // Implicit `return 0`.
        ctx.push_op(VOp::CopyToPhys {
            dst: Reg::R1,
            src: VReg::ZERO,
        });
        ctx.epilogue();
        srcmap.loops.append(&mut ctx.loops);
        module
            .funcs
            .push(Function::new(func.name.clone(), ctx.items));
    }

    module.entry = "main".into();
    Ok((module, srcmap, data))
}

struct FnCtx<'a> {
    globals: &'a HashMap<String, GlobalRef>,
    func_names: &'a HashMap<String, usize>,
    options: &'a CompileOptions,
    items: Vec<VItem>,
    locals: HashMap<String, VReg>,
    next_vreg: u32,
    label_counter: u32,
    func: String,
    guard: Guard,
    pred_depth: u32,
    is_main: bool,
    /// Loop spans for the source map, in generation order.
    loops: Vec<LoopSpan>,
}

impl FnCtx<'_> {
    fn fresh(&mut self) -> VReg {
        let v = VReg::new(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    fn push_op(&mut self, op: impl Into<VOp>) {
        self.items.push(VItem::Inst(VInst::always(op)));
    }

    fn push_guarded(&mut self, op: impl Into<VOp>) {
        self.items.push(VItem::Inst(VInst::new(self.guard, op)));
    }

    fn push(&mut self, inst: VInst) {
        self.items.push(VItem::Inst(inst));
    }

    fn label(&mut self, hint: &str) -> String {
        self.label_counter += 1;
        format!("{}_{}{}", self.func, hint, self.label_counter)
    }

    fn alloc_local(&mut self, name: &str) -> Result<VReg, CodegenError> {
        if self.locals.contains_key(name) {
            return Err(CodegenError::Duplicate(name.to_string()));
        }
        let v = self.fresh();
        self.locals.insert(name.to_string(), v);
        Ok(v)
    }

    /// Pushes the next predicate of the if-conversion stack, `p1` up to
    /// the one below the scratch pair.
    fn alloc_pred(&mut self) -> Result<Pred, CodegenError> {
        if self.pred_depth + 1 >= u32::from(EXIT_PRED.index()) {
            return Err(CodegenError::PredicateDepthExceeded);
        }
        self.pred_depth += 1;
        Ok(Pred::from_index(self.pred_depth as u8))
    }

    fn guard_src(&self) -> PredSrc {
        PredSrc {
            pred: self.guard.pred,
            negate: self.guard.negate,
        }
    }

    /// Emits a copy `dst = src` under the current guard.
    fn copy_guarded(&mut self, dst: VReg, src: VReg) {
        self.push_guarded(Op::AluR {
            op: AluOp::Add,
            rd: dst,
            rs1: src,
            rs2: VReg::ZERO,
        });
    }

    // ---- expressions ----

    fn expr(&mut self, e: &Expr) -> Result<VReg, CodegenError> {
        match e {
            Expr::Lit(v) => {
                let t = self.fresh();
                self.load_const(t, *v);
                Ok(t)
            }
            Expr::Var(name) => {
                if let Some(&v) = self.locals.get(name) {
                    // Locals are registers: no load, no copy.
                    Ok(v)
                } else if let Some(g) = self.globals.get(name).copied() {
                    let addr = self.fresh();
                    let value = self.fresh();
                    self.push_op(VOp::LilSym {
                        rd: addr,
                        sym: name.clone(),
                    });
                    self.push_op(Op::Load {
                        area: area_of(g.qualifier),
                        size: patmos_isa::AccessSize::Word,
                        rd: value,
                        ra: addr,
                        offset: 0,
                    });
                    Ok(value)
                } else {
                    Err(CodegenError::UnknownVariable(name.clone()))
                }
            }
            Expr::Index(name, idx) => {
                let g = *self
                    .globals
                    .get(name)
                    .ok_or_else(|| CodegenError::UnknownVariable(name.clone()))?;
                let ti = self.expr(idx)?;
                let base = self.fresh();
                let scaled = self.fresh();
                let addr = self.fresh();
                let value = self.fresh();
                self.push_op(VOp::LilSym {
                    rd: base,
                    sym: name.clone(),
                });
                self.push_op(Op::AluI {
                    op: AluOp::Shl,
                    rd: scaled,
                    rs1: ti,
                    imm: 2,
                });
                self.push_op(Op::AluR {
                    op: AluOp::Add,
                    rd: addr,
                    rs1: base,
                    rs2: scaled,
                });
                self.push_op(Op::Load {
                    area: area_of(g.qualifier),
                    size: patmos_isa::AccessSize::Word,
                    rd: value,
                    ra: addr,
                    offset: 0,
                });
                Ok(value)
            }
            Expr::Un(op, inner) => {
                let t = self.expr(inner)?;
                match op {
                    UnOp::Neg => {
                        let d = self.fresh();
                        self.push_op(Op::AluR {
                            op: AluOp::Sub,
                            rd: d,
                            rs1: VReg::ZERO,
                            rs2: t,
                        });
                        Ok(d)
                    }
                    UnOp::BitNot => {
                        let d = self.fresh();
                        self.push_op(Op::AluR {
                            op: AluOp::Nor,
                            rd: d,
                            rs1: t,
                            rs2: VReg::ZERO,
                        });
                        Ok(d)
                    }
                    UnOp::Not => {
                        self.push_op(Op::CmpI {
                            op: CmpOp::Eq,
                            pd: BOOL_PRED,
                            rs1: t,
                            imm: 0,
                        });
                        Ok(self.materialize_bool())
                    }
                }
            }
            Expr::Bin(op, lhs, rhs) => self.bin(*op, lhs, rhs),
            Expr::Call(name, args) => self.call(name, args),
        }
    }

    fn load_const(&mut self, dst: VReg, v: i64) {
        if (-32768..=32767).contains(&v) {
            self.push_op(Op::LoadImmLow {
                rd: dst,
                imm: v as i16 as u16,
            });
        } else {
            self.push_op(Op::LoadImm32 {
                rd: dst,
                imm: v as u32,
            });
        }
    }

    /// Turns the scratch predicate into a fresh 0/1 register.
    ///
    /// The unconditional zero write comes first so the guarded write is
    /// the only guarded definition — liveness then starts the value at
    /// the zero write rather than conservatively at function entry.
    fn materialize_bool(&mut self) -> VReg {
        let d = self.fresh();
        self.push_op(Op::LoadImmLow { rd: d, imm: 0 });
        self.push(VInst::new(
            Guard::when(BOOL_PRED),
            Op::LoadImmLow { rd: d, imm: 1 },
        ));
        d
    }

    fn bin(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<VReg, CodegenError> {
        // Power-of-two division/remainder as shifts/masks.
        if matches!(op, BinOp::Div | BinOp::Rem) {
            let Expr::Lit(d) = rhs else {
                return Err(CodegenError::DivisorNotPowerOfTwo);
            };
            if *d <= 0 || (*d & (*d - 1)) != 0 {
                return Err(CodegenError::DivisorNotPowerOfTwo);
            }
            let t = self.expr(lhs)?;
            let out = self.fresh();
            if op == BinOp::Div {
                let shift = d.trailing_zeros() as i16;
                self.push_op(Op::AluI {
                    op: AluOp::Sra,
                    rd: out,
                    rs1: t,
                    imm: shift,
                });
            } else {
                let mask = *d - 1;
                if mask <= 2047 {
                    self.push_op(Op::AluI {
                        op: AluOp::And,
                        rd: out,
                        rs1: t,
                        imm: mask as i16,
                    });
                } else {
                    let m = self.fresh();
                    self.load_const(m, mask);
                    self.push_op(Op::AluR {
                        op: AluOp::And,
                        rd: out,
                        rs1: t,
                        rs2: m,
                    });
                }
            }
            return Ok(out);
        }

        if op.is_comparison() {
            self.compare_into(op, lhs, rhs, BOOL_PRED)?;
            return Ok(self.materialize_bool());
        }

        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            let tl = self.expr(lhs)?;
            let bl = self.bool_of(tl);
            let tr = self.expr(rhs)?;
            let br = self.bool_of(tr);
            let out = self.fresh();
            let alu = if op == BinOp::LogAnd {
                AluOp::And
            } else {
                AluOp::Or
            };
            self.push_op(Op::AluR {
                op: alu,
                rd: out,
                rs1: bl,
                rs2: br,
            });
            return Ok(out);
        }

        // Plain ALU ops; fold small literal right operands into AluI.
        let alu = match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => {
                let tl = self.expr(lhs)?;
                let tr = self.expr(rhs)?;
                let out = self.fresh();
                self.push_op(Op::Mul { rs1: tl, rs2: tr });
                self.push_op(Op::Mfs {
                    rd: out,
                    ss: patmos_isa::SpecialReg::Sl,
                });
                return Ok(out);
            }
            BinOp::And => AluOp::And,
            BinOp::Or => AluOp::Or,
            BinOp::Xor => AluOp::Xor,
            BinOp::Shl => AluOp::Shl,
            BinOp::Shr => AluOp::Sra,
            _ => unreachable!("handled above"),
        };
        let tl = self.expr(lhs)?;
        if let Expr::Lit(v) = rhs {
            if (-2048..=2047).contains(v) {
                let out = self.fresh();
                self.push_op(Op::AluI {
                    op: alu,
                    rd: out,
                    rs1: tl,
                    imm: *v as i16,
                });
                return Ok(out);
            }
        }
        let tr = self.expr(rhs)?;
        let out = self.fresh();
        self.push_op(Op::AluR {
            op: alu,
            rd: out,
            rs1: tl,
            rs2: tr,
        });
        Ok(out)
    }

    /// Normalises `v` to a fresh 0/1 register.
    fn bool_of(&mut self, v: VReg) -> VReg {
        self.push_op(Op::CmpI {
            op: CmpOp::Neq,
            pd: BOOL_PRED,
            rs1: v,
            imm: 0,
        });
        self.materialize_bool()
    }

    /// Evaluates `lhs <op> rhs` into predicate `pd`.
    fn compare_into(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        pd: Pred,
    ) -> Result<(), CodegenError> {
        let (cmp, swap) = match op {
            BinOp::Eq => (CmpOp::Eq, false),
            BinOp::Ne => (CmpOp::Neq, false),
            BinOp::Lt => (CmpOp::Lt, false),
            BinOp::Le => (CmpOp::Le, false),
            BinOp::Gt => (CmpOp::Lt, true),
            BinOp::Ge => (CmpOp::Le, true),
            _ => unreachable!("comparison operators only"),
        };
        let tl = self.expr(lhs)?;
        // Immediate compare when possible (and no operand swap needed).
        if !swap {
            if let Expr::Lit(v) = rhs {
                if (-1024..=1023).contains(v) {
                    self.push_op(Op::CmpI {
                        op: cmp,
                        pd,
                        rs1: tl,
                        imm: *v as i16,
                    });
                    return Ok(());
                }
            }
        }
        // A swapped comparison against literal zero (`a > 0`, `a >= 0`)
        // reads the zero register directly instead of materialising 0.
        // This stays local to comparisons so code shape elsewhere does
        // not depend on a literal's value (single-path invariance).
        let tr = if swap && matches!(rhs, Expr::Lit(0)) {
            VReg::ZERO
        } else {
            self.expr(rhs)?
        };
        let (mut rl, mut rr) = (tl, tr);
        if swap {
            std::mem::swap(&mut rl, &mut rr);
        }
        self.push_op(Op::Cmp {
            op: cmp,
            pd,
            rs1: rl,
            rs2: rr,
        });
        Ok(())
    }

    /// Evaluates a condition expression into predicate `pd`.
    fn cond(&mut self, e: &Expr, pd: Pred) -> Result<(), CodegenError> {
        match e {
            Expr::Bin(op, lhs, rhs) if op.is_comparison() => {
                self.compare_into(*op, lhs, rhs, pd)?;
            }
            _ => {
                let t = self.expr(e)?;
                self.push_op(Op::CmpI {
                    op: CmpOp::Neq,
                    pd,
                    rs1: t,
                    imm: 0,
                });
            }
        }
        Ok(())
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<VReg, CodegenError> {
        if !self.guard.is_always() {
            return Err(CodegenError::CallInPredicatedCode);
        }
        if !self.func_names.contains_key(name) {
            return Err(CodegenError::UnknownFunction(name.to_string()));
        }
        if args.len() > ARG_REGS.len() {
            return Err(CodegenError::TooManyArgs(name.to_string()));
        }
        let mut arg_regs = Vec::with_capacity(args.len());
        for arg in args {
            arg_regs.push(self.expr(arg)?);
        }
        // Marshal into r3..r6. The sources are virtual registers, so no
        // ordering hazards exist; values live across the call are saved
        // by the allocator, driven by liveness.
        for (i, &src) in arg_regs.iter().enumerate() {
            self.push_op(VOp::CopyToPhys {
                dst: ARG_REGS[i],
                src,
            });
        }
        self.push_op(VOp::CallFunc(name.to_string()));
        let result = self.fresh();
        self.push_op(VOp::CopyFromPhys {
            dst: result,
            src: Reg::R1,
        });
        Ok(result)
    }

    // ---- statements ----

    fn stmt(&mut self, s: &Stmt) -> Result<(), CodegenError> {
        match s {
            Stmt::Decl(name, init) => {
                let v = self.alloc_local(name)?;
                // Zero-initialise unconditionally, mirroring the zeroed
                // stack-cache slot a local used to occupy: reads before
                // the first (possibly guarded) write see 0.
                self.push_op(Op::LoadImmLow { rd: v, imm: 0 });
                if let Some(e) = init {
                    let t = self.expr(e)?;
                    self.copy_guarded(v, t);
                }
                Ok(())
            }
            Stmt::Assign(name, e) => {
                if let Some(&v) = self.locals.get(name) {
                    let t = self.expr(e)?;
                    self.copy_guarded(v, t);
                    Ok(())
                } else if let Some(g) = self.globals.get(name).copied() {
                    let t = self.expr(e)?;
                    let addr = self.fresh();
                    self.push_op(VOp::LilSym {
                        rd: addr,
                        sym: name.clone(),
                    });
                    self.push_guarded(Op::Store {
                        area: area_of(g.qualifier),
                        size: patmos_isa::AccessSize::Word,
                        ra: addr,
                        offset: 0,
                        rs: t,
                    });
                    Ok(())
                } else {
                    Err(CodegenError::UnknownVariable(name.clone()))
                }
            }
            Stmt::AssignIndex(name, idx, e) => {
                let g = *self
                    .globals
                    .get(name)
                    .ok_or_else(|| CodegenError::UnknownVariable(name.clone()))?;
                let ti = self.expr(idx)?;
                let tv = self.expr(e)?;
                let base = self.fresh();
                let scaled = self.fresh();
                let addr = self.fresh();
                self.push_op(VOp::LilSym {
                    rd: base,
                    sym: name.clone(),
                });
                self.push_op(Op::AluI {
                    op: AluOp::Shl,
                    rd: scaled,
                    rs1: ti,
                    imm: 2,
                });
                self.push_op(Op::AluR {
                    op: AluOp::Add,
                    rd: addr,
                    rs1: base,
                    rs2: scaled,
                });
                self.push_guarded(Op::Store {
                    area: area_of(g.qualifier),
                    size: patmos_isa::AccessSize::Word,
                    ra: addr,
                    offset: 0,
                    rs: tv,
                });
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                self.expr(e)?;
                Ok(())
            }
            Stmt::Return(e) => {
                if !self.guard.is_always() {
                    return Err(CodegenError::ReturnInPredicatedCode);
                }
                let t = self.expr(e)?;
                self.push_op(VOp::CopyToPhys {
                    dst: Reg::R1,
                    src: t,
                });
                self.epilogue();
                Ok(())
            }
            Stmt::If(cond_e, then_body, else_body) => self.if_stmt(cond_e, then_body, else_body),
            Stmt::While(cond_e, bound, body, line) => self.while_stmt(cond_e, *bound, body, *line),
        }
    }

    fn epilogue(&mut self) {
        // The allocator expands this into link restore + `sfree` +
        // return once the frame size is known.
        if self.is_main {
            self.push_op(Op::Halt);
        } else {
            self.push_op(Op::Ret);
        }
    }

    /// Whether the arm is simple enough to predicate.
    fn convertible(&self, body: &[Stmt]) -> bool {
        let limit = if self.options.single_path {
            usize::MAX
        } else {
            IF_CONVERT_MAX_STMTS
        };
        if body.len() > limit {
            return false;
        }
        body.iter().all(|s| match s {
            Stmt::Decl(_, _) | Stmt::Assign(..) | Stmt::AssignIndex(..) => true,
            Stmt::If(_, t, e) => {
                self.options.single_path && self.convertible(t) && self.convertible(e)
            }
            Stmt::While(..) => self.options.single_path,
            Stmt::Return(_) | Stmt::ExprStmt(_) => false,
        })
    }

    fn if_stmt(
        &mut self,
        cond_e: &Expr,
        then_body: &[Stmt],
        else_body: &[Stmt],
    ) -> Result<(), CodegenError> {
        // A statically known condition (notably the `for` desugaring's
        // `if (1)`) selects its arm at compile time — no predicates, no
        // branches.
        if let Expr::Lit(v) = cond_e {
            let arm = if *v != 0 { then_body } else { else_body };
            for s in arm {
                self.stmt(s)?;
            }
            return Ok(());
        }
        let want_convert =
            self.options.single_path || (self.options.if_convert && self.guard.is_always());
        let can_convert = self.convertible(then_body) && self.convertible(else_body);

        if want_convert && can_convert {
            // Predicated (if-converted) emission.
            let saved_guard = self.guard;
            let saved_depth = self.pred_depth;
            let pc = self.alloc_pred()?;
            self.cond(cond_e, pc)?;
            let pt = self.alloc_pred()?;
            let gsrc = self.guard_src();
            self.push_op(Op::PredSet {
                op: PredOp::And,
                pd: pt,
                p1: PredSrc::plain(pc),
                p2: gsrc,
            });
            self.guard = Guard::when(pt);
            for s in then_body {
                self.stmt(s)?;
            }
            if !else_body.is_empty() {
                self.guard = saved_guard;
                let pe = self.alloc_pred()?;
                self.push_op(Op::PredSet {
                    op: PredOp::And,
                    pd: pe,
                    p1: PredSrc::negated(pc),
                    p2: gsrc,
                });
                self.guard = Guard::when(pe);
                for s in else_body {
                    self.stmt(s)?;
                }
            }
            self.guard = saved_guard;
            self.pred_depth = saved_depth;
            return Ok(());
        }

        if self.options.single_path {
            // Emitting a branch would break the single-path guarantee;
            // name the construct that prevented conversion.
            fn blames_return(body: &[Stmt]) -> bool {
                body.iter().any(|s| match s {
                    Stmt::Return(_) => true,
                    Stmt::If(_, t, e) => blames_return(t) || blames_return(e),
                    Stmt::While(_, _, b, _) => blames_return(b),
                    _ => false,
                })
            }
            if blames_return(then_body) || blames_return(else_body) {
                return Err(CodegenError::ReturnInPredicatedCode);
            }
            return Err(CodegenError::CallInPredicatedCode);
        }
        if !self.guard.is_always() {
            // A branch under a guard would escape the predicated region.
            return Err(CodegenError::LoopInPredicatedCode);
        }

        // Branching emission.
        let else_label = self.label("else");
        let join_label = self.label("join");
        self.cond(cond_e, EXIT_PRED)?;
        self.push(VInst::new(
            Guard::unless(EXIT_PRED),
            VOp::BrLabel(else_label.clone()),
        ));
        for s in then_body {
            self.stmt(s)?;
        }
        if else_body.is_empty() {
            self.items.push(VItem::Label(else_label));
        } else {
            self.push(VInst::always(VOp::BrLabel(join_label.clone())));
            self.items.push(VItem::Label(else_label));
            for s in else_body {
                self.stmt(s)?;
            }
            self.items.push(VItem::Label(join_label));
        }
        Ok(())
    }

    fn while_stmt(
        &mut self,
        cond_e: &Expr,
        bound: u32,
        body: &[Stmt],
        line: u32,
    ) -> Result<(), CodegenError> {
        if self.options.single_path {
            // Single-path loop: run exactly `bound` iterations; the body
            // is guarded by the accumulated "still live" predicate.
            if bound == 0 {
                return Ok(());
            }
            let saved_guard = self.guard;
            let saved_depth = self.pred_depth;
            let live = self.alloc_pred()?;
            let gsrc = self.guard_src();
            self.push_op(Op::PredSet {
                op: PredOp::Or,
                pd: live,
                p1: gsrc,
                p2: gsrc,
            });
            let counter = self.fresh();
            self.load_const(counter, bound as i64);
            let head = self.label("sphead");
            self.items.push(VItem::LoopBound {
                min: bound,
                max: bound,
            });
            self.items.push(VItem::Label(head.clone()));
            // Deactivate once the source condition fails.
            self.cond(cond_e, BOOL_PRED)?;
            self.push_op(Op::PredSet {
                op: PredOp::And,
                pd: live,
                p1: PredSrc::plain(live),
                p2: PredSrc::plain(BOOL_PRED),
            });
            self.guard = Guard::when(live);
            for s in body {
                self.stmt(s)?;
            }
            self.guard = saved_guard;
            // Counter update and back edge (always runs `bound` times).
            self.push_op(Op::AluI {
                op: AluOp::Sub,
                rd: counter,
                rs1: counter,
                imm: 1,
            });
            self.push_op(Op::CmpI {
                op: CmpOp::Neq,
                pd: EXIT_PRED,
                rs1: counter,
                imm: 0,
            });
            self.push(VInst::new(Guard::when(EXIT_PRED), VOp::BrLabel(head)));
            self.pred_depth = saved_depth;
            return Ok(());
        }

        if !self.guard.is_always() {
            return Err(CodegenError::LoopInPredicatedCode);
        }

        let head = self.label("head");
        let exit = self.label("exit");
        // Single-path loops have no exit label to delimit a span, so
        // only branching loops enter the source map.
        self.loops.push(LoopSpan {
            func: self.func.clone(),
            line,
            head: head.clone(),
            exit: exit.clone(),
        });
        // The header executes at most bound+1 times per loop entry.
        self.items.push(VItem::LoopBound {
            min: 1,
            max: bound + 1,
        });
        self.items.push(VItem::Label(head.clone()));
        self.cond(cond_e, EXIT_PRED)?;
        self.push(VInst::new(
            Guard::unless(EXIT_PRED),
            VOp::BrLabel(exit.clone()),
        ));
        for s in body {
            self.stmt(s)?;
        }
        self.push(VInst::always(VOp::BrLabel(head)));
        self.items.push(VItem::Label(exit));
        Ok(())
    }
}
