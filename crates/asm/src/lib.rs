//! Assembler, disassembler and object images for the Patmos ISA.
//!
//! The paper's toolchain plan (Section 5) includes a port of the GNU
//! Binutils; this crate plays that role. It provides:
//!
//! * [`AsmModule`] — a program as assembler statements ([`Stmt`]: labels,
//!   directives and bundles of [`AsmInst`]s whose [`Operand`]s may still
//!   be symbols), each with the line it came from. Its `Display` is the
//!   assembly text below;
//! * [`parse`] — text to an [`AsmModule`];
//! * [`link`] — the two passes that lay a module out, resolve its
//!   symbols and encode it into an [`ObjectImage`], with every check
//!   on its statements. A compiler builds an [`AsmModule`] directly and
//!   links it, with no text in between;
//! * [`assemble`] — `link(&parse(text)?)`, for `.pasm` sources;
//! * [`disassemble`] — the inverse, for debugging and for the WCET
//!   analysis' CFG reconstruction;
//! * [`ObjectImage`] — code, the function table the method cache needs,
//!   data segments, symbols, and loop-bound annotations for the WCET
//!   analysis.
//!
//! # Assembly syntax
//!
//! One instruction per line, or a dual-issue bundle in braces:
//!
//! ```text
//! # comments run to end of line
//!         .func   main          # begin function `main`
//!         .entry  main
//!         li      r1 = 0
//!         li      r2 = 10
//! loop:                          # labels end with `:`
//!         .loopbound 10 10       # annotation for the WCET analysis
//!         { add r1 = r1, r2 ; subi r2 = r2, 1 }
//!         cmpineq p1 = r2, 0
//!         (p1) br loop           # guarded branch, 2 delay slots
//!         nop
//!         nop
//!         halt
//! ```
//!
//! Directives: `.func name`, `.entry name`, `.data name addr`, `.word v,
//! ...`, `.byte v, ...`, `.space bytes`, `.equ name value`, `.loopbound
//! min max`, `.pipeloop guard kernel fallback ii stages prologue
//! epilogue threshold min_trips` (a software-pipelined loop's shape for
//! the WCET analysis), plus the source-map side table the compiler
//! emits for the profiler: `.srcfunc name line` (definition line of a
//! function) and `.srcloop line start end` (a source loop's code region
//! between two labels).
//!
//! # Example
//!
//! ```
//! use patmos_asm::{link, parse, AsmInst, AsmModule, Stmt};
//! use patmos_isa::{Inst, Op, Reg};
//!
//! # fn main() -> Result<(), patmos_asm::AsmError> {
//! let text = "        .func start\n        .entry start\n        li r1 = 7\n        halt\n";
//! let image = patmos_asm::assemble(text)?;
//! assert_eq!(image.functions().len(), 1);
//!
//! // The same program built as statements: its text is its `Display`.
//! let module: AsmModule = [
//!     Stmt::Func("start".into()),
//!     Stmt::Entry("start".into()),
//!     Stmt::Bundle(vec![AsmInst::Ready(Inst::always(Op::LoadImmLow {
//!         rd: Reg::R1,
//!         imm: 7,
//!     }))]),
//!     Stmt::Bundle(vec![AsmInst::Ready(Inst::always(Op::Halt))]),
//! ]
//! .into_iter()
//! .collect();
//! assert_eq!(module.to_string(), text);
//! assert_eq!(link(&module)?, image);
//! assert_eq!(parse(text)?, module);
//! # Ok(())
//! # }
//! ```

mod assembler;
mod disasm;
mod lexer;
mod module;
mod object;

pub use assembler::{assemble, link, parse, AsmError, MAX_SEGMENT_BYTES};
pub use disasm::disassemble;
pub use module::{AsmInst, AsmModule, Line, Operand, Stmt};
pub use object::{
    DataSegment, FuncInfo, LoopBound, ObjectImage, PipeLoop, SourceFunc, SourceInfo, SourceLoop,
};
