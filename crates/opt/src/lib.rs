//! Mid-end optimizer for the PatC toolchain.
//!
//! Runs classical scalar optimizations over the shared virtual-register
//! LIR ([`patmos_lir`]), between code generation and register
//! allocation:
//!
//! ```text
//! codegen ──VModule──▶ patmos_opt::optimize ──VModule──▶ regalloc
//! ```
//!
//! The level-1 pipeline iterates five passes to a fixed point:
//!
//! 1. **constant folding & propagation** — immediate loads flow into
//!    ALU/compare operations; known results fold to immediate loads;
//! 2. **strength reduction** — `mul`/`mfs sl` pairs by powers of two
//!    become single shifts;
//! 3. **common-subexpression elimination** — repeated pure computations
//!    (notably the address arithmetic of array subscripts) and
//!    redundant loads collapse to copies, with word-sized
//!    store-to-load forwarding;
//! 4. **copy propagation** — coalesces the generator's
//!    temporary-then-assign pattern and forwards copy sources;
//! 5. **dead-code elimination** — liveness-driven removal of pure
//!    instructions whose results are never read.
//!
//! The module owns its functions ([`patmos_lir::Function`]), and every
//! fixpoint pass rewrites one function's items at a time: the driver
//! applies each pass to every function in turn.
//!
//! The passes share one lazily built analysis cache per function: its
//! instruction positions, its CFG with predecessor lists, its dominator
//! tree and loop forest, and its liveness solve, each built on first use
//! and kept across passes, fixpoint rounds and unroll reruns. No pass
//! builds an analysis of its own. The pass table states once what each
//! pass may edit: when an *operand-only* pass (const-prop, CSE,
//! copy-prop-global) changes a function, the pass manager drops only that
//! function's liveness; when an *instruction-only* pass (strength
//! reduction, LICM, copy-prop, DCE: they insert, remove or move
//! non-control instructions, never a label, branch, `ret`/`halt` or
//! call) does, it also renumbers the positions and block extents in
//! place and keeps the block graph, the dominator tree and the loop
//! forest, unless the edit emptied a block or filled an empty gap
//! between two labels or terminators; only the inliner and the unroller
//! drop the whole cache. In debug builds the pass manager
//! checks after every pass application that each cached analysis
//! equals a fresh build. A function whose branch names an undefined
//! label has no CFG: the pipeline leaves it untouched, and the register
//! allocator reports it. The passes' own tables are reused across
//! applications. [`OptReport::passes`] counts every pass's
//! applications, changes and host time, and [`OptReport::builds`] the
//! analyses the caches built and kept (`patmos-cli compile
//! --time-passes` prints both).
//!
//! Level 2 ([`OptConfig::level`]) makes the pipeline *loop-aware*, over
//! the dominator-tree and natural-loop-forest analyses of
//! [`patmos_lir`]:
//!
//! * a size-budgeted **function inliner** runs first, on raw generator
//!   output (the `inline` module documents the call-protocol pattern
//!   it splices);
//! * **loop-invariant code motion** joins the fixpoint, hoisting pure
//!   computations (symbol loads, constants, invariant address
//!   arithmetic, loads from unwritten areas) into loop preheaders;
//! * small **constant-trip-count loops unroll fully** between fixpoint
//!   reruns, handing the scalar passes straight-line code in which the
//!   induction variable folds to per-iteration constants.
//!
//! Level 3 extends the unroll step with **partial unrolling** for the
//! loops the full scheme cannot touch: an over-budget constant-trip
//! loop replicates its body by the largest *paying* divisor of the
//! trip count (the header test stays exact, the `.loopbound`
//! tightens), and a runtime-trip straight-line loop splits into a
//! factor-4/2 main loop guarded by `K − (U−1)·S` plus a scalar
//! remainder loop. A cost model gates both schemes on what
//! replication actually buys against the cold method-cache fill of
//! the added code (see the `unroll` module).
//!
//! Every pass is *guard-aware*: definitions under a non-always
//! predicate merge with the old value and therefore block propagation,
//! while their operands may still be rewritten. Single-path code stays
//! single-path — no pass introduces or removes control flow, and the
//! shape-stable pipeline used by single-path mode excludes unrolling
//! (trip counts are literal values) while keeping inlining and LICM,
//! whose decisions read only code shape.
//!
//! # Example
//!
//! ```
//! use patmos_isa::Op;
//! use patmos_lir::{Function, VInst, VItem, VModule, VOp, VReg};
//!
//! let v = VReg::new;
//! let items = vec![
//!     VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 6 })),
//!     VItem::Inst(VInst::always(Op::AluI {
//!         op: patmos_isa::AluOp::Shl,
//!         rd: v(2),
//!         rs1: v(1),
//!         imm: 3,
//!     })),
//!     VItem::Inst(VInst::always(VOp::CopyToPhys {
//!         dst: patmos_isa::Reg::R1,
//!         src: v(2),
//!     })),
//!     VItem::Inst(VInst::always(Op::Halt)),
//! ];
//! let mut module = VModule {
//!     entry: "main".into(),
//!     funcs: vec![Function::new("main", items)],
//! };
//! let report = patmos_opt::optimize(&mut module);
//! // `6 << 3` folds to one immediate load of 48.
//! assert_eq!(report.insts_after, 3);
//! ```
//!
//! # Example: the loop-aware level
//!
//! A counted loop summing `0..5` flattens completely at level 2 — the
//! unroller copies the body, constant propagation rewrites the
//! induction variable per copy, and the whole computation folds:
//!
//! ```
//! use patmos_isa::{AluOp, CmpOp, Guard, Op, Pred};
//! use patmos_lir::{Function, VInst, VItem, VModule, VOp, VReg};
//!
//! let v = VReg::new;
//! let items = vec![
//!     VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 0 })),
//!     VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(2), imm: 0 })),
//!     VItem::LoopBound { min: 1, max: 6 },
//!     VItem::Label("main_head1".into()),
//!     VItem::Inst(VInst::always(Op::CmpI {
//!         op: CmpOp::Lt,
//!         pd: Pred::P6,
//!         rs1: v(1),
//!         imm: 5,
//!     })),
//!     VItem::Inst(VInst::new(
//!         Guard::unless(Pred::P6),
//!         VOp::BrLabel("main_exit2".into()),
//!     )),
//!     VItem::Inst(VInst::always(Op::AluR {
//!         op: AluOp::Add,
//!         rd: v(2),
//!         rs1: v(2),
//!         rs2: v(1),
//!     })),
//!     VItem::Inst(VInst::always(Op::AluI {
//!         op: AluOp::Add,
//!         rd: v(1),
//!         rs1: v(1),
//!         imm: 1,
//!     })),
//!     VItem::Inst(VInst::always(VOp::BrLabel("main_head1".into()))),
//!     VItem::Label("main_exit2".into()),
//!     VItem::Inst(VInst::always(VOp::CopyToPhys {
//!         dst: patmos_isa::Reg::R1,
//!         src: v(2),
//!     })),
//!     VItem::Inst(VInst::always(Op::Halt)),
//! ];
//! let mut module = VModule {
//!     entry: "main".into(),
//!     funcs: vec![Function::new("main", items)],
//! };
//! let config = patmos_opt::OptConfig {
//!     level: 2,
//!     ..patmos_opt::OptConfig::default()
//! };
//! patmos_opt::optimize_with(&mut module, config);
//! // No control flow left: `0+1+2+3+4` became `li 10` + the ABI copy.
//! assert!(!module.funcs[0].items.iter().any(|i| matches!(
//!     i,
//!     VItem::Label(_)
//!         | VItem::LoopBound { .. }
//!         | VItem::Inst(VInst { op: VOp::BrLabel(_), .. })
//! )));
//! ```

mod cache;
mod constprop;
mod copyprop;
mod cse;
mod dce;
mod inline;
mod licm;
mod strength;
mod unroll;
mod util;

use std::time::Instant;

use cache::{Analyses, Edits};
use patmos_lir::{Function, Remark, VItem, VModule};
use util::Scratch;

pub use cache::AnalysisBuilds;

/// Upper bound on fixpoint rounds; real modules converge in two or
/// three, so hitting this means a pass pair is oscillating.
const MAX_ROUNDS: u32 = 10;

/// One pass application that changed the module, captured for
/// `--dump-opt`.
#[derive(Debug, Clone)]
pub struct PassDump {
    /// 1-based fixpoint round.
    pub round: u32,
    /// Pass name.
    pub pass: &'static str,
    /// Rendered LIR before the pass.
    pub before: String,
    /// Rendered LIR after the pass.
    pub after: String,
}

/// How the unroller rewrote one loop (for `--dump-pipeline`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnrollKind {
    /// The loop was replaced by straight-line body copies.
    Full,
    /// The body was replicated by a factor dividing the constant trip
    /// count; the loop survives with a tightened bound.
    Divisor,
    /// A runtime-trip loop was split into a factor-wide main loop and
    /// a scalar remainder loop.
    Remainder,
}

impl std::fmt::Display for UnrollKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UnrollKind::Full => "full",
            UnrollKind::Divisor => "divisor",
            UnrollKind::Remainder => "remainder",
        })
    }
}

/// One loop rewritten by the unroller.
#[derive(Debug, Clone)]
pub struct LoopUnroll {
    /// The loop's header label.
    pub label: String,
    /// The scheme applied.
    pub kind: UnrollKind,
    /// Body copies per iteration of the surviving loop (equal to the
    /// trip count for [`UnrollKind::Full`]).
    pub factor: u32,
    /// The constant trip count, when known.
    pub trips: Option<u32>,
}

/// One call site the inliner spliced (levels 2+). The profiler's
/// source map uses these records to follow a callee's loop labels into
/// the caller, where they now carry the `il{serial}_` prefix.
#[derive(Debug, Clone)]
pub struct InlineSplice {
    /// The splice serial: the callee's labels were renamed to
    /// `il{serial}_{label}`.
    pub serial: usize,
    /// The function whose body was duplicated.
    pub callee: String,
    /// The function the body landed in.
    pub caller: String,
}

/// The work of one pass over a pipeline run (`patmos-cli compile
/// --time-passes`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name.
    pub pass: &'static str,
    /// Applications: a scalar pass counts once per function it runs
    /// on, the inliner and the unroller once per module.
    pub applications: u32,
    /// Applications that changed the code.
    pub changes: u32,
    /// Host time spent in the pass, analyses it had built included
    /// (and, in debug builds, the cache oracle's checks after it).
    pub nanos: u64,
}

/// Outcome of one optimization run.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// Fixpoint rounds executed (including the final no-change round).
    pub rounds: u32,
    /// Instruction count before optimization.
    pub insts_before: usize,
    /// Instruction count after optimization.
    pub insts_after: usize,
    /// Per-pass before/after snapshots (empty unless tracing).
    pub dumps: Vec<PassDump>,
    /// Loops the unroller rewrote (levels 2+), in application order.
    pub unrolls: Vec<LoopUnroll>,
    /// Call sites the inliner spliced (levels 2+), in splice order.
    pub inlines: Vec<InlineSplice>,
    /// Structured decisions (applied and refused) from the inliner,
    /// LICM and the unroller, for `--remarks`.
    pub remarks: Vec<Remark>,
    /// Per-pass work, in the order the passes first ran.
    pub passes: Vec<PassStats>,
    /// The analyses the per-function caches built.
    pub builds: AnalysisBuilds,
}

impl OptReport {
    /// Records `remark` unless an identical one is already present —
    /// the unroll/fixpoint loop revisits refused loops every round, and
    /// a refusal repeated verbatim carries no new information.
    fn push_remark(&mut self, remark: Remark) {
        if !self.remarks.contains(&remark) {
            self.remarks.push(remark);
        }
    }

    /// Adds `applications` applications of `pass`, `changes` of which
    /// changed the code, taking the time since `started`.
    fn record(&mut self, pass: &'static str, applications: u32, changes: u32, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        match self.passes.iter_mut().find(|s| s.pass == pass) {
            Some(stats) => {
                stats.applications += applications;
                stats.changes += changes;
                stats.nanos += nanos;
            }
            None => self.passes.push(PassStats {
                pass,
                applications,
                changes,
                nanos,
            }),
        }
    }
}

fn count_insts(module: &VModule) -> usize {
    (module.funcs.iter().flat_map(|f| &f.items))
        .filter(|i| matches!(i, VItem::Inst(_)))
        .count()
}

/// A fixpoint pass entry point: rewrites one function, reading its
/// analyses from the function's cache and filling the run's scratch
/// tables, and reports whether it changed. A pass that reports no change
/// leaves the items untouched. The report is for remark emission; the
/// scalar passes ignore it.
type Pass = fn(&mut Function<VItem>, &mut Analyses, &mut Scratch, &mut OptReport) -> bool;

/// One entry of a pass table: the pass, and what it may edit when it
/// reports a change — which decides the analyses the pass manager
/// drops.
struct PassEntry {
    name: &'static str,
    run: Pass,
    edits: Edits,
}

const fn pass(name: &'static str, run: Pass, edits: Edits) -> PassEntry {
    PassEntry { name, run, edits }
}

// Every pass, with the edit class it declares. Const-prop, both CSE
// variants and copy-prop-global rewrite instructions in place and never
// touch labels, branches, `ret`/`halt` or calls; strength reduction,
// copy-prop and DCE delete non-control instructions and LICM moves them.
// The scalar passes make no remark-worthy decisions and take no report.
const CONST_PROP: PassEntry = pass(
    "const-prop",
    |f, c, s, _| constprop::run(f, c, s),
    Edits::Operands,
);
const STRENGTH: PassEntry = pass(
    "strength-reduce",
    |f, c, s, _| strength::run(f, c, s),
    Edits::Instructions,
);
const CSE: PassEntry = pass("cse", |f, c, s, _| cse::run(f, c, s), Edits::Operands);
const CSE_SHAPE_STABLE: PassEntry = pass(
    "cse",
    |f, c, s, _| cse::run_shape_stable(f, c, s),
    Edits::Operands,
);
const LICM: PassEntry = pass("licm", licm::run, Edits::Instructions);
const COPY_PROP: PassEntry = pass(
    "copy-prop",
    |f, c, s, _| copyprop::run(f, c, s),
    Edits::Instructions,
);
const COPY_PROP_GLOBAL: PassEntry = pass(
    "copy-prop-global",
    |f, _, s, _| copyprop::run_global(f, s),
    Edits::Operands,
);
const DCE: PassEntry = pass("dce", |f, c, s, _| dce::run(f, c, s), Edits::Instructions);

/// How to run the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct OptConfig {
    /// Restrict the pipeline to *shape-stable* rewrites: passes whose
    /// effect cannot depend on the value of any literal, so two
    /// compilations differing only in a constant emit identically
    /// shaped code. Required by single-path mode, whose contract is
    /// that execution time does not depend on input values — including
    /// values baked in as literals. Drops constant folding, strength
    /// reduction, immediate-keyed CSE and loop unrolling (a trip count
    /// *is* a literal); keeps structural CSE, copy propagation, DCE,
    /// and — at level 2 — inlining and loop-invariant code motion,
    /// whose decisions read only code shape.
    pub shape_stable: bool,
    /// Capture a per-pass before/after snapshot for every pass that
    /// changed the module.
    pub trace: bool,
    /// Pipeline level. `1` runs the scalar fixpoint; `2` additionally
    /// inlines small non-recursive calls first, hoists loop-invariant
    /// code inside the fixpoint, and fully unrolls small
    /// constant-trip-count loops between fixpoint reruns. `3` extends
    /// the unroll step with *partial* unrolling: over-budget
    /// constant-trip loops replicate their body by the largest divisor
    /// of the trip count that fits the budget, and runtime-trip
    /// straight-line loops get a factor-4/2 main loop plus a scalar
    /// remainder loop. Levels beyond 3 behave like 3.
    pub level: u8,
    /// The register-pressure estimate the unroller checks before
    /// replicating a loop body: the one the register-allocation policy
    /// implies, [`patmos_regalloc::Policy::pressure_estimate`]. The
    /// default is the linear-scan distinct-register proxy.
    pub pressure: patmos_regalloc::PressureEstimate,
    /// A software pipeliner runs after this pipeline (`sched_level` 2):
    /// the partial-unroll schemes leave modulo-schedulable loops —
    /// straight-line memory loops with enough trips to fill a pipeline
    /// — alone, because replication turns them into shapes the
    /// pipeliner can no longer overlap (a replicated body's serial
    /// memory chain pushes `II` up to the plain iteration cost), and a
    /// pipelined kernel both runs faster and gives the WCET analysis a
    /// structured `.pipeloop` shape to charge exactly.
    pub defer_pipelineable: bool,
}

impl Default for OptConfig {
    /// Level 1, value-dependent rewrites allowed, no tracing.
    fn default() -> OptConfig {
        OptConfig {
            shape_stable: false,
            trace: false,
            level: 1,
            pressure: patmos_regalloc::PressureEstimate::default(),
            defer_pipelineable: false,
        }
    }
}

/// Upper bound on unroll→fixpoint reruns: each round can only unroll
/// what the previous round's folding turned into an innermost counted
/// loop, and nests in practice flatten within two.
const MAX_UNROLL_ROUNDS: u32 = 3;

/// The state one pipeline run threads through its passes.
struct Run<'m> {
    module: &'m mut VModule,
    /// One analysis cache per entry of `module.funcs` (empty until the
    /// inliner, which adds and drops functions, has run); `None` for a
    /// function with no CFG, which every pass leaves untouched.
    caches: Vec<Option<Analyses>>,
    /// The passes' tables, reused across applications.
    scratch: Scratch,
    report: OptReport,
    /// When tracing, the module as the last change left it: the
    /// `before` of the next dump, since a pass that reports no change
    /// leaves the module as it was.
    rendered: Option<String>,
}

impl Run<'_> {
    /// Captures the dump of a module-changing application of `pass`.
    fn dump(&mut self, round: u32, pass: &'static str) {
        if let Some(before) = self.rendered.take() {
            let after = self.module.render();
            self.rendered = Some(after.clone());
            self.report.dumps.push(PassDump {
                round,
                pass,
                before,
                after,
            });
        }
    }

    /// The debug oracle: every analysis still cached must equal a fresh
    /// build after `pass`.
    #[cfg(debug_assertions)]
    fn assert_caches_fresh(&self, pass: &str) {
        for (func, cache) in self.module.funcs.iter().zip(&self.caches) {
            if let Some(cache) = cache {
                cache.assert_fresh(func, pass);
            }
        }
    }

    /// The scalar (and, at level 2, LICM) fixpoint.
    fn fixpoint(&mut self, passes: &[&PassEntry]) {
        // Round numbering continues across the level-2 unroll reruns, so
        // `OptReport::rounds` counts the whole pipeline and a traced
        // dump's round is globally unique.
        let base = self.report.rounds;
        for round in base + 1..=base + MAX_ROUNDS {
            self.report.rounds = round;
            let mut changed = false;
            for entry in passes {
                let started = Instant::now();
                let (mut applications, mut changes) = (0, 0);
                let funcs = self.module.funcs.iter_mut().zip(&mut self.caches);
                for (func, cache) in funcs {
                    let Some(cache) = cache else { continue };
                    applications += 1;
                    if (entry.run)(func, cache, &mut self.scratch, &mut self.report) {
                        changes += 1;
                        cache.invalidate(func, entry.edits);
                    }
                    #[cfg(debug_assertions)]
                    cache.assert_fresh(func, entry.name);
                }
                self.report
                    .record(entry.name, applications, changes, started);
                if changes > 0 {
                    changed = true;
                    self.dump(round, entry.name);
                }
            }
            if !changed {
                break;
            }
        }
    }
}

fn run_pipeline(module: &mut VModule, config: OptConfig) -> OptReport {
    let full: &[&PassEntry] = &[&CONST_PROP, &STRENGTH, &CSE, &COPY_PROP, &DCE];
    let full_loop: &[&PassEntry] = &[
        &CONST_PROP,
        &STRENGTH,
        &CSE,
        &LICM,
        &COPY_PROP,
        &COPY_PROP_GLOBAL,
        &DCE,
    ];
    let shape_stable: &[&PassEntry] = &[&CSE_SHAPE_STABLE, &COPY_PROP, &DCE];
    let shape_stable_loop: &[&PassEntry] = &[
        &CSE_SHAPE_STABLE,
        &LICM,
        &COPY_PROP,
        &COPY_PROP_GLOBAL,
        &DCE,
    ];
    let loop_aware = config.level >= 2;
    let passes = match (config.shape_stable, loop_aware) {
        (false, false) => full,
        (false, true) => full_loop,
        (true, false) => shape_stable,
        (true, true) => shape_stable_loop,
    };
    let mut run = Run {
        report: OptReport {
            insts_before: count_insts(module),
            ..OptReport::default()
        },
        rendered: config.trace.then(|| module.render()),
        module,
        caches: Vec::new(),
        scratch: Scratch::default(),
    };

    if loop_aware {
        let started = Instant::now();
        let changed = inline::run(run.module, &mut run.report);
        run.report.record("inline", 1, changed.into(), started);
        if changed {
            run.dump(0, "inline");
        }
    }
    run.caches = run.module.funcs.iter().map(Analyses::of).collect();
    let regs = util::max_vreg(run.module.funcs.iter().flat_map(|f| &f.items)) as usize + 1;
    run.scratch = Scratch::with_regs(regs);

    run.fixpoint(passes);

    if loop_aware && !config.shape_stable {
        let partial = config.level >= 3;
        for _ in 0..MAX_UNROLL_ROUNDS {
            let started = Instant::now();
            let changed = unroll::run(
                run.module,
                &mut run.caches,
                partial,
                config.defer_pipelineable,
                config.pressure,
                &mut run.report,
            );
            run.report.record("unroll", 1, changed.into(), started);
            #[cfg(debug_assertions)]
            run.assert_caches_fresh("unroll");
            if !changed {
                break;
            }
            // The unroll application is a round of its own; the next
            // fixpoint continues counting from it.
            run.report.rounds += 1;
            let round = run.report.rounds;
            run.dump(round, "unroll");
            run.fixpoint(passes);
        }
    }

    let mut report = run.report;
    for cache in run.caches.iter().flatten() {
        report.builds += cache.builds;
    }
    report.insts_after = count_insts(run.module);
    report
}

/// Runs the pipeline of `config.level` to a fixed point under `config`.
pub fn optimize_with(module: &mut VModule, config: OptConfig) -> OptReport {
    run_pipeline(module, config)
}

/// Runs the full level-1 pipeline to a fixed point.
pub fn optimize(module: &mut VModule) -> OptReport {
    run_pipeline(module, OptConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{AluOp, Op, Reg, SpecialReg};
    use patmos_lir::{VInst, VOp, VReg};

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    /// The code shape the generator emits for `return (a[1] + a[1]) * 4`
    /// with `a[1]` spelled twice: two full address computations, a
    /// multiply by a constant, and a chain of single-use temporaries.
    fn redundant_module() -> VModule {
        let mut items = Vec::new();
        for (base, scaled, addr, val) in [(1u32, 2, 3, 4), (5, 6, 7, 8)] {
            items.push(VItem::Inst(VInst::always(VOp::LilSym {
                rd: v(base),
                sym: "a".into(),
            })));
            items.push(VItem::Inst(VInst::always(Op::LoadImmLow {
                rd: v(20 + base),
                imm: 1,
            })));
            items.push(VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Shl,
                rd: v(scaled),
                rs1: v(20 + base),
                imm: 2,
            })));
            items.push(VItem::Inst(VInst::always(Op::AluR {
                op: AluOp::Add,
                rd: v(addr),
                rs1: v(base),
                rs2: v(scaled),
            })));
            items.push(VItem::Inst(VInst::always(Op::Load {
                area: patmos_isa::MemArea::Static,
                size: patmos_isa::AccessSize::Word,
                rd: v(val),
                ra: v(addr),
                offset: 0,
            })));
        }
        items.push(VItem::Inst(VInst::always(Op::AluR {
            op: AluOp::Add,
            rd: v(9),
            rs1: v(4),
            rs2: v(8),
        })));
        items.push(VItem::Inst(VInst::always(Op::LoadImmLow {
            rd: v(10),
            imm: 4,
        })));
        items.push(VItem::Inst(VInst::always(Op::Mul {
            rs1: v(9),
            rs2: v(10),
        })));
        items.push(VItem::Inst(VInst::always(Op::Mfs {
            rd: v(11),
            ss: SpecialReg::Sl,
        })));
        items.push(VItem::Inst(VInst::always(VOp::CopyToPhys {
            dst: Reg::R1,
            src: v(11),
        })));
        items.push(VItem::Inst(VInst::always(Op::Halt)));
        VModule {
            funcs: vec![Function::new("main", items)],
            entry: "main".into(),
        }
    }

    #[test]
    fn pipeline_reaches_a_fixed_point_and_shrinks_redundancy() {
        let mut m = redundant_module();
        let report = optimize(&mut m);
        assert!(report.rounds < MAX_ROUNDS, "must converge");
        // 16 instructions down to: lil, li 1, shl, add, load (one address
        // computation + one load survive), add of the two loaded values
        // (now the same register), shl by 2, mov, halt.
        assert!(
            report.insts_after <= 9,
            "expected ≤ 9 instructions, got {}:\n{}",
            report.insts_after,
            m.render()
        );
        // The multiply is strength-reduced away.
        assert!(
            !m.funcs[0].items.iter().any(|i| matches!(
                i,
                VItem::Inst(VInst {
                    op: VOp::Machine(Op::Mul { .. }),
                    ..
                })
            )),
            "{}",
            m.render()
        );
        // The second load collapsed onto the first.
        let loads = m.funcs[0]
            .items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::Machine(Op::Load { .. }),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(loads, 1, "{}", m.render());
    }

    #[test]
    fn duplicate_constants_converge_instead_of_oscillating() {
        // CSE rewrites the duplicate `li` into a copy; const-prop must
        // NOT fold that copy back into a `li`, or the pair ping-pongs
        // until the round cap. Two live uses keep both values alive.
        let mut m = VModule {
            entry: "main".into(),
            funcs: vec![Function::new(
                "main",
                vec![
                    VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 0 })),
                    VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(2), imm: 0 })),
                    VItem::Inst(VInst::always(VOp::CopyToPhys {
                        dst: Reg::R1,
                        src: v(1),
                    })),
                    VItem::Inst(VInst::always(VOp::CopyToPhys {
                        dst: Reg::R3,
                        src: v(2),
                    })),
                    VItem::Inst(VInst::always(Op::Halt)),
                ],
            )],
        };
        let report = optimize(&mut m);
        assert!(
            report.rounds < MAX_ROUNDS,
            "pipeline oscillated:\n{}",
            m.render()
        );
    }

    #[test]
    fn a_function_with_an_undefined_label_is_left_to_the_allocator() {
        // `main` branches to a label it never defines, so it has no CFG:
        // every pipeline leaves it as it is, the foldable `li`/`shl`
        // pair included, and the register allocator reports the label.
        let module = || VModule {
            entry: "main".into(),
            funcs: vec![Function::new(
                "main",
                vec![
                    VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 6 })),
                    VItem::Inst(VInst::always(Op::AluI {
                        op: AluOp::Shl,
                        rd: v(2),
                        rs1: v(1),
                        imm: 3,
                    })),
                    VItem::Inst(VInst::always(VOp::CopyToPhys {
                        dst: Reg::R1,
                        src: v(2),
                    })),
                    VItem::Inst(VInst::always(VOp::BrLabel("nowhere".into()))),
                    VItem::Inst(VInst::always(Op::Halt)),
                ],
            )],
        };
        for level in 1..=3 {
            for shape_stable in [false, true] {
                let mut m = module();
                let config = OptConfig {
                    level,
                    shape_stable,
                    ..OptConfig::default()
                };
                let report = optimize_with(&mut m, config);
                assert_eq!(m.render(), module().render(), "level {level}");
                assert_eq!(report.insts_after, report.insts_before);
                let err = patmos_regalloc::regalloc(&patmos_regalloc::Policy::default(), &m)
                    .expect_err("the branch has no target");
                assert_eq!(
                    err,
                    patmos_regalloc::AllocError::UndefinedLabel {
                        func: "main".into(),
                        label: "nowhere".into(),
                    }
                );
            }
        }
    }

    #[test]
    fn trace_captures_only_changing_passes() {
        let traced = || OptConfig {
            trace: true,
            ..OptConfig::default()
        };
        let mut m = redundant_module();
        let report = optimize_with(&mut m, traced());
        assert!(!report.dumps.is_empty());
        for dump in &report.dumps {
            assert_ne!(dump.before, dump.after, "{} captured a no-op", dump.pass);
        }
        // A second run is a no-op and captures nothing.
        let report2 = optimize_with(&mut m, traced());
        assert!(report2.dumps.is_empty());
        assert_eq!(report2.rounds, 1);
    }
}
