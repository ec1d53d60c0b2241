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
//! use patmos_lir::{VInst, VItem, VModule, VOp, VReg};
//!
//! let v = VReg::new;
//! let mut module = VModule {
//!     data_lines: Vec::new(),
//!     entry: "main".into(),
//!     items: vec![
//!         VItem::FuncStart("main".into()),
//!         VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(1), imm: 6 })),
//!         VItem::Inst(VInst::always(VOp::AluI {
//!             op: patmos_isa::AluOp::Shl,
//!             rd: v(2),
//!             rs1: v(1),
//!             imm: 3,
//!         })),
//!         VItem::Inst(VInst::always(VOp::CopyToPhys {
//!             dst: patmos_isa::Reg::R1,
//!             src: v(2),
//!         })),
//!         VItem::Inst(VInst::always(VOp::Halt)),
//!     ],
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
//! use patmos_isa::{AluOp, CmpOp, Guard, Pred};
//! use patmos_lir::{VInst, VItem, VModule, VOp, VReg};
//!
//! let v = VReg::new;
//! let mut module = VModule {
//!     data_lines: Vec::new(),
//!     entry: "main".into(),
//!     items: vec![
//!         VItem::FuncStart("main".into()),
//!         VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(1), imm: 0 })),
//!         VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(2), imm: 0 })),
//!         VItem::LoopBound { min: 1, max: 6 },
//!         VItem::Label("main_head1".into()),
//!         VItem::Inst(VInst::always(VOp::CmpI {
//!             op: CmpOp::Lt,
//!             pd: Pred::P6,
//!             rs1: v(1),
//!             imm: 5,
//!         })),
//!         VItem::Inst(VInst::new(
//!             Guard::unless(Pred::P6),
//!             VOp::BrLabel("main_exit2".into()),
//!         )),
//!         VItem::Inst(VInst::always(VOp::AluR {
//!             op: AluOp::Add,
//!             rd: v(2),
//!             rs1: v(2),
//!             rs2: v(1),
//!         })),
//!         VItem::Inst(VInst::always(VOp::AluI {
//!             op: AluOp::Add,
//!             rd: v(1),
//!             rs1: v(1),
//!             imm: 1,
//!         })),
//!         VItem::Inst(VInst::always(VOp::BrLabel("main_head1".into()))),
//!         VItem::Label("main_exit2".into()),
//!         VItem::Inst(VInst::always(VOp::CopyToPhys {
//!             dst: patmos_isa::Reg::R1,
//!             src: v(2),
//!         })),
//!         VItem::Inst(VInst::always(VOp::Halt)),
//!     ],
//! };
//! let config = patmos_opt::OptConfig {
//!     level: 2,
//!     ..patmos_opt::OptConfig::default()
//! };
//! patmos_opt::optimize_with(&mut module, config);
//! // No control flow left: `0+1+2+3+4` became `li 10` + the ABI copy.
//! assert!(!module.items.iter().any(|i| matches!(
//!     i,
//!     VItem::Label(_)
//!         | VItem::LoopBound { .. }
//!         | VItem::Inst(VInst { op: VOp::BrLabel(_), .. })
//! )));
//! ```

mod constprop;
mod copyprop;
mod cse;
mod dce;
mod inline;
mod licm;
mod strength;
mod unroll;
mod util;

use patmos_lir::{Remark, VItem, VModule};

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
}

fn count_insts(module: &VModule) -> usize {
    module
        .items
        .iter()
        .filter(|i| matches!(i, VItem::Inst(_)))
        .count()
}

/// A pass entry point: rewrites the module, reports whether it changed.
/// The report is for remark emission; the scalar passes ignore it.
type Pass = fn(&mut VModule, &mut OptReport) -> bool;

// The scalar passes make no remark-worthy decisions; adapt their plain
// signatures to the table type.
fn constprop_pass(m: &mut VModule, _: &mut OptReport) -> bool {
    constprop::run(m)
}
fn strength_pass(m: &mut VModule, _: &mut OptReport) -> bool {
    strength::run(m)
}
fn cse_pass(m: &mut VModule, _: &mut OptReport) -> bool {
    cse::run(m)
}
fn cse_shape_stable_pass(m: &mut VModule, _: &mut OptReport) -> bool {
    cse::run_shape_stable(m)
}
fn copyprop_pass(m: &mut VModule, _: &mut OptReport) -> bool {
    copyprop::run(m)
}
fn copyprop_global_pass(m: &mut VModule, _: &mut OptReport) -> bool {
    copyprop::run_global(m)
}
fn dce_pass(m: &mut VModule, _: &mut OptReport) -> bool {
    dce::run(m)
}

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

/// The scalar (and, at level 2, LICM) fixpoint.
fn run_fixpoint(
    module: &mut VModule,
    config: OptConfig,
    report: &mut OptReport,
    passes: &[(&'static str, Pass)],
) {
    // Round numbering continues across the level-2 unroll reruns, so
    // `OptReport::rounds` counts the whole pipeline and a traced dump's
    // round is globally unique.
    let base = report.rounds;
    for round in base + 1..=base + MAX_ROUNDS {
        report.rounds = round;
        let mut changed = false;
        for &(name, pass) in passes {
            let before = config.trace.then(|| module.render());
            if pass(module, report) {
                changed = true;
                if let Some(before) = before {
                    report.dumps.push(PassDump {
                        round,
                        pass: name,
                        before,
                        after: module.render(),
                    });
                }
            }
        }
        if !changed {
            break;
        }
    }
}

fn run_pipeline(module: &mut VModule, config: OptConfig) -> OptReport {
    let full: &[(&'static str, Pass)] = &[
        ("const-prop", constprop_pass),
        ("strength-reduce", strength_pass),
        ("cse", cse_pass),
        ("copy-prop", copyprop_pass),
        ("dce", dce_pass),
    ];
    let full_loop: &[(&'static str, Pass)] = &[
        ("const-prop", constprop_pass),
        ("strength-reduce", strength_pass),
        ("cse", cse_pass),
        ("licm", licm::run),
        ("copy-prop", copyprop_pass),
        ("copy-prop-global", copyprop_global_pass),
        ("dce", dce_pass),
    ];
    let shape_stable: &[(&'static str, Pass)] = &[
        ("cse", cse_shape_stable_pass),
        ("copy-prop", copyprop_pass),
        ("dce", dce_pass),
    ];
    let shape_stable_loop: &[(&'static str, Pass)] = &[
        ("cse", cse_shape_stable_pass),
        ("licm", licm::run),
        ("copy-prop", copyprop_pass),
        ("copy-prop-global", copyprop_global_pass),
        ("dce", dce_pass),
    ];
    let loop_aware = config.level >= 2;
    let passes = match (config.shape_stable, loop_aware) {
        (false, false) => full,
        (false, true) => full_loop,
        (true, false) => shape_stable,
        (true, true) => shape_stable_loop,
    };
    let mut report = OptReport {
        insts_before: count_insts(module),
        ..OptReport::default()
    };

    if loop_aware {
        let before = config.trace.then(|| module.render());
        if inline::run(module, &mut report) {
            if let Some(before) = before {
                report.dumps.push(PassDump {
                    round: 0,
                    pass: "inline",
                    before,
                    after: module.render(),
                });
            }
        }
    }

    run_fixpoint(module, config, &mut report, passes);

    if loop_aware && !config.shape_stable {
        let partial = config.level >= 3;
        for _ in 0..MAX_UNROLL_ROUNDS {
            let before = config.trace.then(|| module.render());
            if !unroll::run(
                module,
                partial,
                config.defer_pipelineable,
                config.pressure,
                &mut report,
            ) {
                break;
            }
            // The unroll application is a round of its own; the next
            // fixpoint continues counting from it.
            report.rounds += 1;
            if let Some(before) = before {
                report.dumps.push(PassDump {
                    round: report.rounds,
                    pass: "unroll",
                    before,
                    after: module.render(),
                });
            }
            run_fixpoint(module, config, &mut report, passes);
        }
    }

    report.insts_after = count_insts(module);
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

/// Like [`optimize`], additionally capturing a per-pass before/after
/// snapshot for every pass that changed the module (`--dump-opt`).
pub fn optimize_traced(module: &mut VModule) -> OptReport {
    run_pipeline(
        module,
        OptConfig {
            trace: true,
            ..OptConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{AluOp, Reg, SpecialReg};
    use patmos_lir::{VInst, VOp, VReg};

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    /// The code shape the generator emits for `return (a[1] + a[1]) * 4`
    /// with `a[1]` spelled twice: two full address computations, a
    /// multiply by a constant, and a chain of single-use temporaries.
    fn redundant_module() -> VModule {
        let mut items = vec![VItem::FuncStart("main".into())];
        for (base, scaled, addr, val) in [(1u32, 2, 3, 4), (5, 6, 7, 8)] {
            items.push(VItem::Inst(VInst::always(VOp::LilSym {
                rd: v(base),
                sym: "a".into(),
            })));
            items.push(VItem::Inst(VInst::always(VOp::LoadImmLow {
                rd: v(20 + base),
                imm: 1,
            })));
            items.push(VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Shl,
                rd: v(scaled),
                rs1: v(20 + base),
                imm: 2,
            })));
            items.push(VItem::Inst(VInst::always(VOp::AluR {
                op: AluOp::Add,
                rd: v(addr),
                rs1: v(base),
                rs2: v(scaled),
            })));
            items.push(VItem::Inst(VInst::always(VOp::Load {
                area: patmos_isa::MemArea::Static,
                size: patmos_isa::AccessSize::Word,
                rd: v(val),
                ra: v(addr),
                offset: 0,
            })));
        }
        items.push(VItem::Inst(VInst::always(VOp::AluR {
            op: AluOp::Add,
            rd: v(9),
            rs1: v(4),
            rs2: v(8),
        })));
        items.push(VItem::Inst(VInst::always(VOp::LoadImmLow {
            rd: v(10),
            imm: 4,
        })));
        items.push(VItem::Inst(VInst::always(VOp::Mul {
            rs1: v(9),
            rs2: v(10),
        })));
        items.push(VItem::Inst(VInst::always(VOp::Mfs {
            rd: v(11),
            ss: SpecialReg::Sl,
        })));
        items.push(VItem::Inst(VInst::always(VOp::CopyToPhys {
            dst: Reg::R1,
            src: v(11),
        })));
        items.push(VItem::Inst(VInst::always(VOp::Halt)));
        VModule {
            data_lines: Vec::new(),
            items,
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
            !m.items.iter().any(|i| matches!(
                i,
                VItem::Inst(VInst {
                    op: VOp::Mul { .. },
                    ..
                })
            )),
            "{}",
            m.render()
        );
        // The second load collapsed onto the first.
        let loads = m
            .items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::Load { .. },
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
            data_lines: Vec::new(),
            entry: "main".into(),
            items: vec![
                VItem::FuncStart("main".into()),
                VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(1), imm: 0 })),
                VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(2), imm: 0 })),
                VItem::Inst(VInst::always(VOp::CopyToPhys {
                    dst: Reg::R1,
                    src: v(1),
                })),
                VItem::Inst(VInst::always(VOp::CopyToPhys {
                    dst: Reg::R3,
                    src: v(2),
                })),
                VItem::Inst(VInst::always(VOp::Halt)),
            ],
        };
        let report = optimize(&mut m);
        assert!(
            report.rounds < MAX_ROUNDS,
            "pipeline oscillated:\n{}",
            m.render()
        );
    }

    #[test]
    fn trace_captures_only_changing_passes() {
        let mut m = redundant_module();
        let report = optimize_traced(&mut m);
        assert!(!report.dumps.is_empty());
        for dump in &report.dumps {
            assert_ne!(dump.before, dump.after, "{} captured a no-op", dump.pass);
        }
        // A second run is a no-op and captures nothing.
        let report2 = optimize_traced(&mut m);
        assert!(report2.dumps.is_empty());
        assert_eq!(report2.rounds, 1);
    }
}
