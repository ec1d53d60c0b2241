//! The statement layer between assembly text and the linker: an
//! [`AsmModule`] is what [`crate::parse`] reads from text, what a
//! compiler builds directly, and what [`crate::link`] lays out and
//! encodes. Its [`Display`](fmt::Display) is the assembly text.

use std::fmt;

use patmos_isa::{Guard, Inst, Op, Reg};

use crate::object::PipeLoop;

/// An operand that may still be a symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A symbol, resolved at link time.
    Sym(String),
    /// A literal. Text spells a `u32` literal with an optional minus,
    /// so [`crate::link`] rejects values outside `±u32::MAX`.
    Val(i64),
}

/// An instruction, possibly awaiting symbol resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmInst {
    /// A resolved instruction. `br` and `call` are never ready: text
    /// reads their numeric operand as an absolute word, so they are
    /// [`AsmInst::Flow`] and [`crate::link`] rejects them here.
    Ready(Inst),
    /// `br`/`call` to a label, or to an absolute word address.
    Flow {
        /// The guard.
        guard: Guard,
        /// `call` rather than `br`.
        call: bool,
        /// The target.
        target: Operand,
    },
    /// `lil rd = value`.
    LongImm {
        /// The guard.
        guard: Guard,
        /// The destination register.
        rd: Reg,
        /// The 32-bit value.
        value: Operand,
    },
}

impl AsmInst {
    /// The ISA instruction this one encodes to, with its `br`/`call`
    /// target or `lil` value read as 0: a `br` or `call` becomes
    /// [`Op::Br`] or [`Op::Call`], a `lil` becomes [`Op::LoadImm32`]. A
    /// symbol only ever fills an offset or an immediate, so what the
    /// instruction reads, writes and delays, and which issue slots it may
    /// take, are the shape's.
    pub fn shape(&self) -> Inst {
        match self {
            AsmInst::Ready(inst) => *inst,
            AsmInst::Flow { guard, call, .. } => {
                let op = if *call {
                    Op::Call { offset: 0 }
                } else {
                    Op::Br { offset: 0 }
                };
                Inst::new(*guard, op)
            }
            AsmInst::LongImm { guard, rd, .. } => {
                Inst::new(*guard, Op::LoadImm32 { rd: *rd, imm: 0 })
            }
        }
    }

    /// Rewrites the registers the shape reads through `f`, as
    /// [`Op::map_uses`] does.
    pub fn map_uses(&mut self, f: impl FnMut(Reg) -> Reg) {
        if let AsmInst::Ready(inst) = self {
            inst.op.map_uses(f);
        }
    }

    /// Redirects the register the shape writes to `new`, as
    /// [`Op::set_def`] does: `false` when there is none, or only the link
    /// register a call writes implicitly.
    pub fn set_def(&mut self, new: Reg) -> bool {
        match self {
            AsmInst::Ready(inst) => inst.op.set_def(new),
            AsmInst::LongImm { rd, .. } if !rd.is_zero() => {
                *rd = new;
                true
            }
            _ => false,
        }
    }
}

/// One assembler statement: a label, a directive or a bundle.
///
/// Names are rendered verbatim, so a module whose names are not
/// assembler identifiers renders text that does not parse back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `name:`
    Label(String),
    /// `.func name`
    Func(String),
    /// `.entry name`
    Entry(String),
    /// `.data name addr`: opens a data segment at a byte address.
    Data {
        /// The segment's symbol.
        name: String,
        /// Byte address of its first byte.
        addr: u32,
    },
    /// `.word v, ...`
    Words(Vec<Operand>),
    /// `.byte v, ...`: each value truncated to its low byte.
    Bytes(Vec<i64>),
    /// `.space bytes`
    Space(u32),
    /// `.equ name value`
    Equ {
        /// The symbol.
        name: String,
        /// Its value.
        value: i64,
    },
    /// `.loopbound min max`, for the bundle that follows.
    LoopBound {
        /// Minimum iteration count.
        min: u32,
        /// Maximum iteration count.
        max: u32,
    },
    /// `.srcfunc name line`
    SrcFunc {
        /// The function.
        name: String,
        /// 1-based source line of its definition.
        line: u32,
    },
    /// `.srcloop line start end`
    SrcLoop {
        /// 1-based source line of the loop statement.
        line: u32,
        /// Label of the region's first word.
        start: String,
        /// Label one past the region's last word.
        end: String,
    },
    /// `.pipeloop guard kernel fallback ii stages prologue epilogue
    /// threshold min_trips`, its blocks named by labels.
    PipeLoop(PipeLoop<String>),
    /// One instruction, or a dual-issue pair.
    Bundle(Vec<AsmInst>),
}

/// A statement and the 1-based line it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The line [`crate::link`] names in its errors.
    pub number: usize,
    /// The statement.
    pub stmt: Stmt,
}

/// An assembly program as statements: parsed from text by
/// [`crate::parse`] or built directly, laid out and encoded by
/// [`crate::link`]. Its `Display` is the assembly text, one statement
/// per line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsmModule {
    /// The statements, in layout order.
    pub lines: Vec<Line>,
}

impl AsmModule {
    /// Appends a statement numbered by its line in the module's text:
    /// in a module built only by `push`, a link error names the line of
    /// `module.to_string()` that holds the statement.
    pub fn push(&mut self, stmt: Stmt) {
        let number = self.lines.len() + 1;
        self.lines.push(Line { number, stmt });
    }
}

impl FromIterator<Stmt> for AsmModule {
    fn from_iter<I: IntoIterator<Item = Stmt>>(stmts: I) -> AsmModule {
        let mut module = AsmModule::default();
        for stmt in stmts {
            module.push(stmt);
        }
        module
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Sym(name) => f.write_str(name),
            Operand::Val(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for AsmInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The guard prefix as `Inst`'s own `Display` writes it.
        let guarded = |f: &mut fmt::Formatter<'_>, guard: &Guard| {
            if guard.is_always() {
                Ok(())
            } else {
                write!(f, "{guard} ")
            }
        };
        match self {
            AsmInst::Ready(inst) => write!(f, "{inst}"),
            AsmInst::Flow {
                guard,
                call,
                target,
            } => {
                guarded(f, guard)?;
                write!(f, "{} {target}", if *call { "call" } else { "br" })
            }
            AsmInst::LongImm { guard, rd, value } => {
                guarded(f, guard)?;
                write!(f, "lil {rd} = {value}")
            }
        }
    }
}

/// Writes `items` separated by `sep`.
fn list<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T], sep: &str) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const INDENT: &str = "        ";
        match self {
            Stmt::Label(name) => write!(f, "{name}:"),
            Stmt::Func(name) => write!(f, "{INDENT}.func {name}"),
            Stmt::Entry(name) => write!(f, "{INDENT}.entry {name}"),
            Stmt::Data { name, addr } => write!(f, "{INDENT}.data {name} {addr}"),
            Stmt::Words(words) => {
                write!(f, "{INDENT}.word ")?;
                list(f, words, ", ")
            }
            Stmt::Bytes(bytes) => {
                write!(f, "{INDENT}.byte ")?;
                list(f, bytes, ", ")
            }
            Stmt::Space(bytes) => write!(f, "{INDENT}.space {bytes}"),
            Stmt::Equ { name, value } => write!(f, "{INDENT}.equ {name} {value}"),
            Stmt::LoopBound { min, max } => write!(f, "{INDENT}.loopbound {min} {max}"),
            Stmt::SrcFunc { name, line } => write!(f, "{INDENT}.srcfunc {name} {line}"),
            Stmt::SrcLoop { line, start, end } => {
                write!(f, "{INDENT}.srcloop {line} {start} {end}")
            }
            Stmt::PipeLoop(record) => write!(f, "{INDENT}.pipeloop {record}"),
            Stmt::Bundle(insts) => match insts.as_slice() {
                [only] => write!(f, "{INDENT}{only}"),
                _ => {
                    write!(f, "{INDENT}{{ ")?;
                    list(f, insts, " ; ")?;
                    f.write_str(" }")
                }
            },
        }
    }
}

impl fmt::Display for AsmModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.lines {
            writeln!(f, "{}", line.stmt)?;
        }
        Ok(())
    }
}
