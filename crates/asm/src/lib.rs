//! Assembler, disassembler and object images for the Patmos ISA.
//!
//! The paper's toolchain plan (Section 5) includes a port of the GNU
//! Binutils; this crate plays that role. It provides:
//!
//! * [`assemble`] — a two-pass assembler from textual Patmos assembly to
//!   an [`ObjectImage`];
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
//! ...`, `.space bytes`, `.equ name value`, `.loopbound min max`, plus
//! the source-map side table the compiler emits for the profiler:
//! `.srcfunc name line` (definition line of a function) and `.srcloop
//! line start end` (a source loop's code region between two labels).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), patmos_asm::AsmError> {
//! let image = patmos_asm::assemble(
//!     "        .func start\n        .entry start\n        li r1 = 7\n        halt\n",
//! )?;
//! assert_eq!(image.functions().len(), 1);
//! # Ok(())
//! # }
//! ```

mod assembler;
mod disasm;
mod lexer;
mod object;

pub use assembler::{assemble, AsmError, MAX_SEGMENT_BYTES};
pub use disasm::disassemble;
pub use object::{
    DataSegment, FuncInfo, LoopBound, ObjectImage, PipeLoop, SourceFunc, SourceInfo, SourceLoop,
};
