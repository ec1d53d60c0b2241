//! Dependence-DAG VLIW scheduler for the Patmos backend.
//!
//! The compiler's historical scheduler legalised straight-line *runs*:
//! it paired textually adjacent independent operations and filled every
//! branch and load shadow with `nop`s. This crate replaces it with a
//! real backend stage over the physical LIR ([`patmos_lir::plir`]):
//!
//! 1. **Block splitting** — each function's linear item stream, as the
//!    allocator emitted it, is cut into basic blocks
//!    ([`dag::split_blocks`]).
//! 2. **Dependence DAGs** — per block, every pair of operations gets
//!    its minimum issue-bundle gap from [`dag::dependence_gap`]: true,
//!    anti and output dependences over registers and predicates
//!    (guards included), conservative program order between memory and
//!    stack-control operations, call barriers, and the multiplier's
//!    `mul`→`mfs` latency. The relation reads one bit-mask
//!    [`dag::DepSummary`] per op, built once per block or loop, so a
//!    pair costs a few mask tests.
//! 3. **Critical-path list scheduling** — operations issue in
//!    longest-path-first order, packing a legal second slot per bundle
//!    when dual issue is on ([`list::schedule_block`]); placing an op
//!    releases its successors, so the cycle loop costs about one step
//!    per dependence edge.
//! 4. **Delay-slot filling** — a label branch is pulled forward so the
//!    trailing bundles of its own block execute in its shadow, and
//!    remaining empty shadow bundles are filled from a successor when
//!    provably safe ([`list::hoist_into_shadow`]): from the unique
//!    successor of an unconditional branch, or *speculatively* from
//!    the anonymous fall-through path of a conditional branch when the
//!    hoisted op is pure and its targets are dead on the taken path
//!    (shown by the [`dag::live_in_sets`] dataflow).
//!
//! [`SchedReport`] counts the work: the DAGs built, their ops and
//! edges, the modulo scheduler's IIs and placement steps, and the host
//! time of each scheduler (`patmos-cli compile --time-passes`).
//!
//! The scheduler is **shape-stable** by construction: every decision
//! is a function of the dependence structure (opcodes, register
//! numbers, ordering classes), never of immediate operand values, so
//! single-path code keeps its data-independent shape and timing.
//!
//! The output is the assembler's statements ([`patmos_asm::Stmt`]):
//! each function's labels, `.loopbound` and `.pipeloop` records and
//! bundles of [`patmos_asm::AsmInst`]s, the type the allocator emits,
//! so no instruction is converted on the way. The compiler
//! (`patmos_compiler`) adds the data layout, the `.func`/`.entry`
//! directives and the source map.

pub mod dag;
pub mod list;
pub mod modulo;

use std::time::Instant;

use patmos_asm::{AsmInst, Stmt};
use patmos_isa::Op;
use patmos_lir::plir::Module;
use patmos_lir::Function;

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedOptions {
    /// Pair independent operations into dual-issue bundles.
    pub dual_issue: bool,
    /// Software-pipeline innermost counted loops by iterative modulo
    /// scheduling (`sched_level` 2). Off by default; the compiler also
    /// keeps it off in single-path mode, because the pipeliner's
    /// decisions read the loop's literal bound and step.
    pub pipeline: bool,
    /// Let the modulo renamer consult the allocator's actual
    /// assignments: only registers genuinely reused for unrelated
    /// values within one iteration are renamed. Off by default (the
    /// historical worst-case renaming, as the linear-scan policy
    /// requires for bit-identical schedules); the compiler turns it on
    /// under the loop-aware allocation policy.
    pub reuse_renaming: bool,
}

impl Default for SchedOptions {
    fn default() -> SchedOptions {
        SchedOptions {
            dual_issue: true,
            pipeline: false,
            reuse_renaming: false,
        }
    }
}

/// A scheduled module: each function's labels, `.loopbound` and
/// `.pipeloop` records and bundles, as the assembler's statements.
#[derive(Debug, Clone)]
pub struct ScheduledModule {
    /// The scheduled functions, in layout order.
    pub funcs: Vec<Function<Stmt>>,
    /// Entry function name.
    pub entry: String,
}

impl ScheduledModule {
    /// Counts bundles and filled second slots (for the scheduler
    /// experiments).
    pub fn bundle_stats(&self) -> (usize, usize) {
        let mut bundles = 0;
        let mut filled = 0;
        for item in self.funcs.iter().flat_map(|f| &f.items) {
            if let Stmt::Bundle(insts) = item {
                bundles += 1;
                filled += (insts.len() == 2) as usize;
            }
        }
        (bundles, filled)
    }
}

/// The statement of one scheduled bundle: slot one, then slot two when
/// paired.
pub(crate) fn bundle((first, second): (AsmInst, Option<AsmInst>)) -> Stmt {
    Stmt::Bundle(std::iter::once(first).chain(second).collect())
}

/// Per-block line of the scheduling report.
#[derive(Debug, Clone)]
pub struct BlockReport {
    /// The block's first label, or `None` for anonymous blocks.
    pub label: Option<String>,
    /// Operations scheduled (terminator included).
    pub ops: usize,
    /// Bundles issued for the block.
    pub bundles: usize,
    /// Longest dependence chain through the body, in bundles.
    pub critical_path: u32,
    /// Bundles with a filled second slot.
    pub paired: usize,
    /// Architectural delay slots of the terminator.
    pub delay_slots: u32,
    /// Shadow bundles holding real work (shifted or hoisted).
    pub shadow_filled: u32,
    /// Operations hoisted in from a successor block.
    pub hoisted: u32,
}

/// One software-pipelined loop (`sched_level` 2), for the
/// `--dump-pipeline` report.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// The loop's header label.
    pub label: String,
    /// Operations per iteration (lookahead compare included).
    pub ops: usize,
    /// The lower bound on the initiation interval (resource,
    /// recurrence and structural).
    pub mii: u32,
    /// The achieved initiation interval.
    pub ii: u32,
    /// Overlapped stages in the kernel.
    pub stages: u32,
    /// Prologue bundles (fill).
    pub prologue: usize,
    /// Kernel bundles (exactly `ii`).
    pub kernel: usize,
    /// Epilogue bundles (drain, padding included).
    pub epilogue: usize,
    /// Definitions renamed to a fresh register to break
    /// allocator-induced false anti-dependences. Under the loop-aware
    /// allocation policy (which already separates iteration-local
    /// temporaries) this drops to ~zero.
    pub renamed: usize,
}

/// Per-function scheduling report.
#[derive(Debug, Clone)]
pub struct FuncReport {
    /// Function name.
    pub name: String,
    /// One entry per basic block, in layout order.
    pub blocks: Vec<BlockReport>,
    /// One entry per software-pipelined loop, in layout order.
    pub loops: Vec<LoopReport>,
}

/// The whole-module report behind `patmos-cli compile --dump-sched`.
#[derive(Debug, Clone, Default)]
pub struct SchedReport {
    /// One entry per function.
    pub funcs: Vec<FuncReport>,
    /// Structured modulo-scheduling decisions — pipelined loops with
    /// their MII/II, and refusals with the cost-model estimate that
    /// turned them down — for `patmos-cli --remarks`.
    pub remarks: Vec<patmos_lir::Remark>,
    /// Initiation intervals the modulo scheduler tried, summed over
    /// loops.
    pub ii_tried: u64,
    /// Rounds of the modulo scheduler's budgeted placement loop (each
    /// places one op, or runs out of budget), summed over loops, IIs and
    /// placement orders.
    pub placements: u64,
    /// Dependence DAGs the list scheduler built: one per
    /// [`list::schedule_block`] call, the modulo scheduler's baseline
    /// schedules of a loop's header and body included (a pipelined
    /// loop's fallback reuses them).
    pub dags: u64,
    /// Operations in those DAGs (a terminator is not a DAG node).
    pub dag_ops: u64,
    /// Dependence edges in those DAGs.
    pub dag_edges: u64,
    /// Host nanoseconds spent list scheduling: building and scheduling
    /// those DAGs, and filling branch shadows from successors.
    pub list_nanos: u64,
    /// Host nanoseconds spent in the modulo scheduler, its list
    /// schedules excluded.
    pub modulo_nanos: u64,
}

impl SchedReport {
    /// Total operations hoisted across all shadows.
    pub fn total_hoisted(&self) -> u32 {
        self.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.hoisted)
            .sum()
    }

    /// Total shadow bundles carrying real work.
    pub fn total_shadow_filled(&self) -> u32 {
        self.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.shadow_filled)
            .sum()
    }

    /// All software-pipelined loops, across functions.
    pub fn pipelined_loops(&self) -> impl Iterator<Item = &LoopReport> {
        self.funcs.iter().flat_map(|f| &f.loops)
    }

    /// Loops the modulo scheduler tried: each gets exactly one remark,
    /// pipelined or refused.
    pub fn loops_tried(&self) -> usize {
        self.remarks.len()
    }

    /// Total cross-iteration renames the modulo scheduler performed.
    /// Drops to (near) zero when the loop-aware allocation policy has
    /// already kept iteration-local values in distinct registers.
    pub fn total_modulo_renames(&self) -> usize {
        self.pipelined_loops().map(|l| l.renamed).sum()
    }
}

impl std::fmt::Display for SchedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for func in &self.funcs {
            writeln!(f, "function {}:", func.name)?;
            writeln!(
                f,
                "  {:<14} {:>4} {:>8} {:>5} {:>7} {:>6} {:>7} {:>7}",
                "block", "ops", "bundles", "crit", "paired", "delay", "filled", "hoisted"
            )?;
            for b in &func.blocks {
                writeln!(
                    f,
                    "  {:<14} {:>4} {:>8} {:>5} {:>7} {:>6} {:>7} {:>7}",
                    b.label.as_deref().unwrap_or("(anon)"),
                    b.ops,
                    b.bundles,
                    b.critical_path,
                    b.paired,
                    b.delay_slots,
                    b.shadow_filled,
                    b.hoisted
                )?;
            }
            if !func.loops.is_empty() {
                writeln!(
                    f,
                    "  {:<14} {:>4} {:>5} {:>4} {:>7} {:>9} {:>7} {:>9}",
                    "pipelined", "ops", "MII", "II", "stages", "prologue", "kernel", "epilogue"
                )?;
                for l in &func.loops {
                    writeln!(
                        f,
                        "  {:<14} {:>4} {:>5} {:>4} {:>7} {:>9} {:>7} {:>9}",
                        l.label, l.ops, l.mii, l.ii, l.stages, l.prologue, l.kernel, l.epilogue
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// Schedules a module: DAG construction, list scheduling, dual-issue
/// packing and delay-slot filling per basic block.
pub fn schedule(module: Module, options: &SchedOptions) -> ScheduledModule {
    schedule_with_report(module, options).0
}

/// Host nanoseconds since `start`.
fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// [`list::schedule_block`] in the module's `buffers`, with its DAG and
/// host time booked in `report`.
pub(crate) fn list_schedule(
    report: &mut SchedReport,
    buffers: &mut list::Buffers,
    insts: &[AsmInst],
    term: Option<&AsmInst>,
    dual_issue: bool,
) -> list::BlockSchedule {
    let start = Instant::now();
    let sched = list::schedule_block_in(buffers, insts, term, dual_issue);
    report.list_nanos += nanos_since(start);
    report.dags += 1;
    report.dag_ops += insts.len() as u64;
    report.dag_edges += sched.edges as u64;
    sched
}

/// Schedules a module and returns the per-block report alongside it.
pub fn schedule_with_report(
    module: Module,
    options: &SchedOptions,
) -> (ScheduledModule, SchedReport) {
    let mut funcs: Vec<Function<Stmt>> = Vec::with_capacity(module.funcs.len());
    let mut report = SchedReport::default();
    let mut buffers = list::Buffers::default();

    for lir_func in module.funcs {
        let func = &mut dag::split_blocks(lir_func);
        let mut items: Vec<Stmt> = Vec::new();
        // Live-ins are computed once per function. Hoisting only moves
        // an operation across the single boundary between a branch and
        // its unique (or anonymous fall-through) successor, so the
        // sets at every other block boundary stay exact.
        let live_in = dag::live_in_sets(func);
        let mut func_report = FuncReport {
            name: func.name.clone(),
            blocks: Vec::new(),
            loops: Vec::new(),
        };

        let mut skip_body = false;
        for bi in 0..func.blocks.len() {
            if skip_body {
                skip_body = false;
                continue;
            }
            // Software pipelining first: an innermost counted loop
            // (header block `bi`, body block `bi + 1`) that schedules
            // at a winning II replaces both blocks with its
            // guard/prologue/kernel/epilogue/fallback stream.
            if options.pipeline {
                let (start, list_before) = (Instant::now(), report.list_nanos);
                let pipelined = modulo::try_pipeline(
                    func,
                    bi,
                    options.dual_issue,
                    options.reuse_renaming,
                    &live_in,
                    &mut report,
                    &mut buffers,
                );
                let nested = report.list_nanos - list_before;
                report.modulo_nanos += nanos_since(start).saturating_sub(nested);
                if let Some(p) = pipelined {
                    report.remarks.push(patmos_lir::Remark {
                        pass: "modulo-sched",
                        function: func.name.clone(),
                        site: Some(p.report.label.clone()),
                        applied: true,
                        message: format!(
                            "software-pipelined at II {} (MII {}, {} stage(s), {} op(s)/iteration)",
                            p.report.ii, p.report.mii, p.report.stages, p.report.ops
                        ),
                    });
                    let ops = func.blocks[bi].insts.len() + func.blocks[bi + 1].insts.len() + 2;
                    func_report.blocks.push(BlockReport {
                        label: func.blocks[bi].labels().next().map(str::to_string),
                        ops,
                        bundles: p.bundles,
                        critical_path: 0,
                        paired: p.paired,
                        delay_slots: 0,
                        shadow_filled: 0,
                        hoisted: 0,
                    });
                    func_report.loops.push(p.report);
                    items.extend(p.items);
                    skip_body = true;
                    continue;
                }
            }
            let insts = std::mem::take(&mut func.blocks[bi].insts);
            let term = func.blocks[bi].term.clone();
            let mut sched = list_schedule(
                &mut report,
                &mut buffers,
                &insts,
                term.as_ref(),
                options.dual_issue,
            );

            // Try to fill leftover shadow bundles from a successor.
            let mut hoisted = 0u32;
            if sched.shadow_fillable {
                if let (Some(term_at), Some(term)) = (sched.term_at, &term) {
                    let uncond = term.shape().guard.is_always();
                    if let Some(target) = dag::branch_label(term) {
                        if let Some(donor) = donor_index(func, bi, target, uncond) {
                            let speculative = if uncond {
                                None
                            } else {
                                // The op will also run on the taken
                                // path; its targets must be dead there.
                                func.block_of_label(target).map(|ti| live_in[ti])
                            };
                            let run = uncond || speculative.is_some();
                            if run {
                                let start = Instant::now();
                                let mut donor_insts = std::mem::take(&mut func.blocks[donor].insts);
                                hoisted = list::hoist_into_shadow(
                                    &mut sched.bundles,
                                    term_at,
                                    sched.delay_slots,
                                    &mut donor_insts,
                                    speculative,
                                );
                                func.blocks[donor].insts = donor_insts;
                                report.list_nanos += nanos_since(start);
                            }
                        }
                    }
                }
            }

            let shadow_filled = match sched.term_at {
                Some(t) => sched.bundles[t + 1..]
                    .iter()
                    .take(sched.delay_slots as usize)
                    .filter(|b| b.0.shape().op != Op::Nop || b.1.is_some())
                    .count() as u32,
                None => 0,
            };
            func_report.blocks.push(BlockReport {
                label: func.blocks[bi].labels().next().map(str::to_string),
                ops: insts.len() + term.is_some() as usize,
                bundles: sched.bundles.len(),
                critical_path: sched.critical_path,
                paired: sched.paired,
                delay_slots: sched.delay_slots,
                shadow_filled,
                hoisted,
            });

            items.extend(func.blocks[bi].head.iter().cloned());
            items.extend(sched.bundles.into_iter().map(bundle));
        }
        report.funcs.push(func_report);
        funcs.push(Function::new(std::mem::take(&mut func.name), items));
    }

    (
        ScheduledModule {
            funcs,
            entry: module.entry,
        },
        report,
    )
}

/// The index of the block a branch's shadow may be filled from, if the
/// move is structurally safe.
///
/// * Unconditional branch: its target — but only if the branch is the
///   *sole* way in (exactly one reference to the target's labels, no
///   fall-through from the preceding block, not the function entry, no
///   loop bound) and the target has not been scheduled yet.
/// * Conditional branch: the anonymous fall-through block right after
///   it; having no label, it cannot be entered any other way. The
///   hoist is then speculative (the caller checks liveness on the
///   taken path).
fn donor_index(func: &dag::Func, bi: usize, target: &str, uncond: bool) -> Option<usize> {
    if uncond {
        let ti = func.block_of_label(target)?;
        let refs: usize = func.blocks[ti].labels().map(|l| func.label_refs(l)).sum();
        let fall_through_entry = ti > 0 && func.blocks[ti - 1].falls_through();
        if ti > bi && refs == 1 && !fall_through_entry && !func.blocks[ti].has_loop_bound {
            Some(ti)
        } else {
            None
        }
    } else {
        let di = bi + 1;
        if di < func.blocks.len()
            && func.blocks[di].labels().next().is_none()
            && !func.blocks[di].has_loop_bound
        {
            Some(di)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::Operand;
    use patmos_isa::{AluOp, Guard, Inst, Pred, Reg};
    use patmos_lir::plir::Item;

    fn alu(rd: u8, rs1: u8, rs2: u8) -> AsmInst {
        AsmInst::Ready(Inst::always(Op::AluR {
            op: AluOp::Add,
            rd: Reg::from_index(rd),
            rs1: Reg::from_index(rs1),
            rs2: Reg::from_index(rs2),
        }))
    }

    fn bundles(module: &ScheduledModule) -> Vec<&[AsmInst]> {
        (module.funcs.iter().flat_map(|f| &f.items))
            .filter_map(|i| match i {
                Stmt::Bundle(b) => Some(b.as_slice()),
                _ => None,
            })
            .collect()
    }

    fn br(guard: Guard, label: &str) -> AsmInst {
        AsmInst::Flow {
            guard,
            call: false,
            target: Operand::Sym(label.into()),
        }
    }

    /// A loop in the shape the compiler emits: head with a guarded
    /// exit branch, anonymous body falling back via an unconditional
    /// branch, labelled exit computing the result.
    fn loop_module() -> Module {
        Module {
            entry: "main".into(),
            funcs: vec![Function::new(
                "main",
                vec![
                    Item::Inst(alu(7, 0, 0)),
                    Item::Inst(alu(8, 0, 0)),
                    Item::Inst(alu(9, 0, 0)),
                    Item::LoopBound { min: 1, max: 31 },
                    Item::Label("head".into()),
                    Item::Inst(AsmInst::Ready(Inst::always(Op::CmpI {
                        op: patmos_isa::CmpOp::Lt,
                        pd: Pred::P6,
                        rs1: Reg::from_index(7),
                        imm: 30,
                    }))),
                    Item::Inst(br(Guard::unless(Pred::P6), "exit")),
                    Item::Inst(alu(10, 8, 9)),
                    Item::Inst(alu(8, 9, 0)),
                    Item::Inst(alu(9, 10, 0)),
                    Item::Inst(AsmInst::Ready(Inst::always(Op::AluI {
                        op: AluOp::Add,
                        rd: Reg::from_index(7),
                        rs1: Reg::from_index(7),
                        imm: 1,
                    }))),
                    Item::Inst(br(Guard::ALWAYS, "head")),
                    Item::Label("exit".into()),
                    Item::Inst(alu(1, 8, 0)),
                    Item::Inst(AsmInst::Ready(Inst::always(Op::Halt))),
                ],
            )],
        }
    }

    #[test]
    fn loop_shadows_get_filled() {
        let (module, report) = schedule_with_report(loop_module(), &SchedOptions::default());
        // The conditional exit branch's two-bundle shadow picks up
        // speculative body work (r10/r7 defs are dead at `exit`), and
        // the back edge's single slot takes trailing body work too.
        assert!(
            report.total_hoisted() >= 1,
            "expected speculative hoisting:\n{report}"
        );
        assert!(
            report.total_shadow_filled() >= 2,
            "expected filled shadows:\n{report}"
        );
        // No flow instruction may ever sit in a shadow: the simulator
        // rejects flow-in-delay-slot outright.
        let bs = bundles(&module);
        let mut shadow_left = 0u32;
        for b in &bs {
            let (first, rest) = (b[0].shape(), &b[1..]);
            if shadow_left > 0 {
                assert!(!first.op.is_flow(), "flow op in a delay slot");
                assert!(rest.iter().all(|s| !s.shape().op.is_flow()));
                shadow_left -= 1;
            }
            if first.op.is_flow() {
                shadow_left = first.delay_slots();
            }
        }
    }

    #[test]
    fn single_issue_never_pairs() {
        let options = SchedOptions {
            dual_issue: false,
            ..SchedOptions::default()
        };
        let (module, _) = schedule_with_report(loop_module(), &options);
        assert!(bundles(&module).iter().all(|b| b.len() == 1));
    }

    #[test]
    fn markers_survive_in_order() {
        let (module, _) = schedule_with_report(loop_module(), &SchedOptions::default());
        let mut markers: Vec<String> = Vec::new();
        for f in &module.funcs {
            markers.push(format!("func:{}", f.name));
            markers.extend(f.items.iter().filter_map(|i| match i {
                Stmt::Label(n) => Some(format!("label:{n}")),
                Stmt::LoopBound { max, .. } => Some(format!("bound:{max}")),
                _ => None,
            }));
        }
        assert_eq!(
            markers,
            vec!["func:main", "bound:31", "label:head", "label:exit"]
        );
    }

    #[test]
    fn scheduling_is_deterministic() {
        let a = schedule(loop_module(), &SchedOptions::default());
        let b = schedule(loop_module(), &SchedOptions::default());
        let render = |m: &ScheduledModule| -> Vec<String> {
            (m.funcs.iter().flat_map(|f| &f.items))
                .map(|s| s.to_string())
                .collect()
        };
        assert_eq!(render(&a), render(&b));
    }
}
