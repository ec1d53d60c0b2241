//! A WCET-aware compiler for **PatC**, a C subset, targeting Patmos.
//!
//! The paper (Sections 4 and 5) assigns the compiler a central role: it
//! fills the dual-issue bundles, manages the stack cache, performs
//! if-conversion and the single-path transformation, and preserves
//! loop-bound annotations for the WCET analysis. This crate implements
//! that toolchain for a small but real language:
//!
//! ```text
//! int acc;
//! int table[8];
//!
//! int sum(int n) {
//!     int i;
//!     int s = 0;
//!     for (i = 0; i < n; i = i + 1) bound(8) {
//!         s = s + table[i];
//!     }
//!     return s;
//! }
//!
//! int main() {
//!     acc = sum(8);
//!     return acc;
//! }
//! ```
//!
//! Language: `int` scalars and one-dimensional global arrays (placed in
//! the static area by default, or `heap`/`spm` qualified), functions with
//! up to four `int` parameters, `if`/`else`, `while`/`for` with mandatory
//! `bound(n)` annotations, arithmetic/bitwise/comparison/logical
//! operators (`/` and `%` only by powers of two), and `return`.
//!
//! Pipeline: parse → tree-walking code generation into LIR over
//! unbounded *virtual* registers (scalar locals live in registers, not
//! stack slots) → mid-end optimization ([`patmos_opt`]: constant
//! folding and propagation, strength reduction, common-subexpression
//! elimination, copy propagation, dead-code elimination, controlled by
//! [`CompileOptions::opt_level`]) → liveness-driven linear-scan register allocation
//! ([`patmos_regalloc`]: physical register assignment, minimal spill
//! code, the `sres`/`sens`/`sfree` frame protocol sized to the slots
//! actually used) → optional if-conversion or full single-path
//! conversion → VLIW scheduling ([`patmos_sched`]: per-block
//! dependence DAGs, critical-path list scheduling, dual-issue packing,
//! delay-slot filling, and — at level 2 — iterative modulo scheduling
//! of innermost counted loops, controlled by
//! [`CompileOptions::sched_level`]), which emits each function's
//! assembler statements → a [`patmos_asm::AsmModule`] with the data
//! layout, the `.func`/`.entry` directives and the source map →
//! [`patmos_asm::link`]. No text is rendered or
//! lexed on the way to the image: the module's `Display` is the
//! assembly text [`compile_to_asm`] returns, and assembling that text
//! gives the same image.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use patmos_compiler::{compile, CompileOptions};
//!
//! let image = compile("int main() { return 6 * 7; }", &CompileOptions::default())?;
//! let mut sim = patmos_sim::Simulator::new(&image, patmos_sim::SimConfig::default());
//! sim.run()?;
//! assert_eq!(sim.reg(patmos_isa::Reg::R1), 42);
//! # Ok(())
//! # }
//! ```

mod ast;
mod codegen;
mod lexer;
mod parser;
mod sched;
mod srcmap;

pub use ast::{BinOp, Expr, Function, Global, MemQualifier, Program, Stmt, UnOp};
pub use codegen::CodegenError;
pub use parser::{parse, ParseError};
pub use patmos_regalloc::{AllocError, AllocReport, Policy};
pub use srcmap::{LoopSpan, SourceMap};

use patmos_asm::{AsmModule, ObjectImage};

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Pair independent operations into dual-issue bundles.
    pub dual_issue: bool,
    /// Convert small `if`/`else` statements (at most four statements
    /// per arm) into predicated code.
    pub if_convert: bool,
    /// Full single-path conversion: predicate *all* conditionals and pad
    /// every loop to its bound, so execution time is input-independent.
    pub single_path: bool,
    /// Mid-end optimization level: `0` lowers the AST straight to the
    /// allocator, `1` runs the
    /// [`patmos_opt`] pass pipeline (const-prop, strength reduction,
    /// CSE, copy-prop, DCE to a fixed point) between code generation
    /// and register allocation, `2` adds the loop-aware passes
    /// (size-budgeted inlining of non-recursive calls, loop-invariant
    /// code motion into preheaders, full unrolling of small
    /// constant-trip-count loops), `3` adds partial unrolling: an
    /// over-budget constant-trip loop replicates its body by the
    /// largest divisor of the trip count that fits the budget, and a
    /// runtime-trip straight-line loop becomes a factor-4/2 main loop
    /// plus a scalar remainder loop. Higher levels are rejected with
    /// [`CompileError::InvalidOptions`]. In single-path mode levels
    /// 2–3 keep only the shape-stable subset (inlining and LICM —
    /// never unrolling, whose decisions read literal trip counts).
    pub opt_level: u8,
    /// Scheduler level: `1` runs the [`patmos_sched`] dependence-DAG
    /// scheduler (critical-path list scheduling, dual-issue packing,
    /// branch delay-slot filling), `2` additionally software-pipelines
    /// innermost counted loops by iterative modulo scheduling
    /// (prologue/kernel/epilogue with a trip-count guard and a plain
    /// fallback loop). Level 1 is shape-stable: scheduling decisions
    /// never depend on operand values, so single-path timing stays
    /// input-independent. The pipeliner reads the loop's literal bound
    /// and step, so in single-path mode level 2 falls back to the
    /// level-1 behaviour. Any other level is rejected with
    /// [`CompileError::InvalidOptions`]: level 0, the historical run
    /// scheduler, is gone, and the cycle counts it produced are frozen
    /// data in the bench baselines (`sched_cycles.json`,
    /// `opt_cycles.json`).
    pub sched_level: u8,
    /// Register-allocation policy: [`Policy::Linear`] (the default)
    /// reproduces the historical linear scan bit for bit at every
    /// opt/sched level; [`Policy::Loop`] allocates loop-aware —
    /// round-robin assignment inside hot loops (shrinking the modulo
    /// scheduler's renaming), caller-saves and invariant reloads
    /// hoisted to preheaders — and switches the unroller to the
    /// liveness-based pressure estimate.
    pub reg_policy: Policy,
}

impl Default for CompileOptions {
    /// Dual issue on, if-conversion on, single-path off,
    /// full mid-end on (`opt_level` 3), software pipelining on
    /// (`sched_level` 2). The pipelined loop shape is WCET-analysable
    /// through its `.pipeloop` records, so the most aggressive levels
    /// are the default; historical baselines pin their levels
    /// explicitly.
    fn default() -> CompileOptions {
        CompileOptions {
            dual_issue: true,
            if_convert: true,
            single_path: false,
            opt_level: 3,
            sched_level: 2,
            reg_policy: Policy::default(),
        }
    }
}

impl CompileOptions {
    /// The allocation policy, [`CompileOptions::reg_policy`]. The host
    /// benchmark's stage-by-stage compile replay still calls this; the
    /// compiler reads the field.
    pub fn constraints(&self) -> Policy {
        self.reg_policy
    }
}

/// Errors from any stage of compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Semantic or code-generation failure.
    Codegen(CodegenError),
    /// Register allocation failed (frame overflow).
    RegAlloc(AllocError),
    /// The lowered module failed to link (a compiler bug): the link
    /// error, then the module's assembly text.
    Assemble(String),
    /// The options select a pipeline level that does not exist.
    InvalidOptions(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Codegen(e) => write!(f, "codegen error: {e}"),
            CompileError::RegAlloc(e) => write!(f, "register allocation error: {e}"),
            CompileError::Assemble(e) => write!(f, "internal assembly error: {e}"),
            CompileError::InvalidOptions(e) => write!(f, "invalid options: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> CompileError {
        CompileError::Parse(e)
    }
}

impl From<CodegenError> for CompileError {
    fn from(e: CodegenError) -> CompileError {
        CompileError::Codegen(e)
    }
}

impl From<AllocError> for CompileError {
    fn from(e: AllocError) -> CompileError {
        CompileError::RegAlloc(e)
    }
}

/// Rejects the levels no pipeline implements.
fn check_levels(options: &CompileOptions) -> Result<(), CompileError> {
    let problem = match (options.opt_level, options.sched_level) {
        (_, 0) => "sched_level 0 (the historical run scheduler) was removed; its cycle counts \
                   are frozen in crates/bench/baselines/sched_cycles.json (sched0_cycles) and \
                   opt_cycles.json"
            .to_string(),
        (_, level) if level > 2 => format!("sched_level {level} does not exist (use 1 or 2)"),
        (level, _) if level > 3 => format!("opt_level {level} does not exist (use 0 to 3)"),
        _ => return Ok(()),
    };
    Err(CompileError::InvalidOptions(problem))
}

/// Everything one run of the pipeline produces.
struct Build {
    vmodule: patmos_lir::VModule,
    opt: Option<patmos_opt::OptReport>,
    allocation: AllocReport,
    sched: patmos_sched::SchedReport,
    srcmap: SourceMap,
    scheduled: patmos_sched::ScheduledModule,
    /// The data layout as assembler statements.
    data: Vec<patmos_asm::Stmt>,
}

/// The compile driver behind every entry point: options check, parse,
/// code generation, the mid-end (per-pass dumps only when `trace`),
/// register allocation and scheduling.
fn drive(source: &str, options: &CompileOptions, trace: bool) -> Result<Build, CompileError> {
    check_levels(options)?;
    let program = parse(source)?;
    let (mut vmodule, mut srcmap, data) = codegen::lower(&program, options)?;
    // Single-path compilations restrict the mid-end to shape-stable
    // rewrites, so code shape (and so execution time) cannot depend on
    // literal values.
    let opt_config = patmos_opt::OptConfig {
        shape_stable: options.single_path,
        trace,
        level: options.opt_level,
        pressure: options.reg_policy.pressure_estimate(),
        // The modulo scheduler downstream takes straight-line memory
        // loops further than replication can, and its `.pipeloop`
        // records keep the shape WCET-analysable; the unroller leaves
        // those loops to it. Single-path mode never pipelines, so it
        // never defers either.
        defer_pipelineable: options.sched_level >= 2 && !options.single_path,
    };
    let opt = (options.opt_level >= 1).then(|| patmos_opt::optimize_with(&mut vmodule, opt_config));
    if let Some(report) = &opt {
        srcmap.apply_inlines(&report.inlines);
    }
    let (lir, allocation) = patmos_regalloc::regalloc(&options.reg_policy, &vmodule)?;
    let sched_options = patmos_sched::SchedOptions {
        dual_issue: options.dual_issue,
        // The modulo scheduler's decisions read the loop's literal
        // bound and step — not shape-stable, so single-path mode
        // keeps the plain DAG scheduler.
        pipeline: options.sched_level >= 2 && !options.single_path,
        // Under the loop-aware policy the allocator's assignments
        // already separate iteration-local values, so the renamer
        // trusts them and renames only genuinely reused registers.
        reuse_renaming: options.reg_policy == Policy::Loop,
    };
    let (scheduled, sched) = patmos_sched::schedule_with_report(lir, &sched_options);
    Ok(Build {
        vmodule,
        opt,
        allocation,
        sched,
        srcmap,
        scheduled,
        data,
    })
}

/// Compiles to the assembler's statements: the driver, then lowering.
fn lower(source: &str, options: &CompileOptions) -> Result<AsmModule, CompileError> {
    let build = drive(source, options, false)?;
    Ok(sched::lower(build.scheduled, build.data, &build.srcmap))
}

/// Compiles PatC source to Patmos assembly text: the `Display` of the
/// statements [`compile`] links.
///
/// # Errors
///
/// Returns a [`CompileError`] for levels that do not exist, syntax
/// errors, unknown identifiers, unsupported constructs (recursion is
/// allowed here but rejected later by the WCET analysis), or missing
/// loop bounds.
pub fn compile_to_asm(source: &str, options: &CompileOptions) -> Result<String, CompileError> {
    Ok(lower(source, options)?.to_string())
}

/// Intermediate artefacts of one compilation, for inspection tools
/// (`patmos-cli compile --dump-lir`/`--dump-opt`/`--dump-cfg`).
#[derive(Debug, Clone)]
pub struct CompileArtifacts {
    /// The virtual-register LIR handed to the allocator (post-mid-end
    /// when `opt_level` ≥ 1), for CFG dumps and further inspection
    /// ([`patmos_lir::VModule::render`] gives its text).
    pub vmodule: patmos_lir::VModule,
    /// The mid-end's per-pass trace (`None` at `opt_level` 0).
    pub opt: Option<patmos_opt::OptReport>,
    /// The register allocator's per-function report.
    pub allocation: AllocReport,
    /// The scheduler's per-block report, with every software-pipelined
    /// loop.
    pub sched: patmos_sched::SchedReport,
    /// The source map after inline bookkeeping — what became the
    /// `.srcfunc`/`.srcloop` directives in `asm`.
    pub srcmap: SourceMap,
    /// The lowered assembler statements [`compile`] links; their
    /// `Display` is the text [`compile_to_asm`] returns.
    pub asm: AsmModule,
}

/// Compiles PatC source, returning the intermediate artefacts alongside
/// the assembly.
///
/// # Errors
///
/// See [`compile_to_asm`].
pub fn compile_with_artifacts(
    source: &str,
    options: &CompileOptions,
) -> Result<CompileArtifacts, CompileError> {
    let build = drive(source, options, true)?;
    let asm = sched::lower(build.scheduled, build.data, &build.srcmap);
    Ok(CompileArtifacts {
        vmodule: build.vmodule,
        opt: build.opt,
        allocation: build.allocation,
        sched: build.sched,
        srcmap: build.srcmap,
        asm,
    })
}

/// Compiles PatC source all the way to a loadable [`ObjectImage`],
/// linking the lowered statements directly. The image equals
/// `patmos_asm::assemble(&compile_to_asm(source, options)?)`.
///
/// # Errors
///
/// See [`compile_to_asm`].
pub fn compile(source: &str, options: &CompileOptions) -> Result<ObjectImage, CompileError> {
    let module = lower(source, options)?;
    patmos_asm::link(&module).map_err(|e| CompileError::Assemble(format!("{e}\n{module}")))
}

/// Static scheduling statistics of a compilation: `(bundles, bundles
/// whose second issue slot is filled)` — the compiler-side numbers of
/// the scheduler experiment (E10).
///
/// # Errors
///
/// See [`compile_to_asm`].
pub fn compile_stats(
    source: &str,
    options: &CompileOptions,
) -> Result<(usize, usize), CompileError> {
    Ok(drive(source, options, false)?.scheduled.bundle_stats())
}
