//! Bounded full unrolling of constant-trip-count loops (an
//! `opt_level` 2 pass) and **partial unrolling** of loops the full
//! scheme cannot touch (`opt_level` 3).
//!
//! A counted `while` loop in the generator's shape —
//!
//! ```text
//!         li  vi = C0          ← induction start, found in the
//!         .loopbound min max     fall-through predecessor
//! head:
//!         cmpilt p6 = vi, K    ← header: compare + exit branch only
//!         (!p6) br exit          (K may also be a register)
//!         …body…               ← may contain internal control flow
//!         addi vi = vi, S      ← the only def of vi, in the latch
//!         br head
//! exit:
//! ```
//!
//! — runs exactly `T = ⌈(K−C0)/S⌉` (or `+1` for `<=`) iterations when
//! `C0`, `K` and `S` are all compile-time constants. Three schemes
//! apply, tried in this order per loop:
//!
//! 1. **Full unrolling** (level 2): when `T·|body|` fits the size
//!    budget the loop is replaced by `T` verbatim copies of the body;
//!    compare, branches, labels and the `.loopbound` disappear, and the
//!    scalar fixpoint folds the induction variable to per-copy
//!    constants.
//! 2. **Divisor partial unrolling** (level 3): a constant-trip loop
//!    over budget keeps its compare and branches but its body is
//!    replicated `U` times, for the largest `U ≥ 2` dividing `T` with
//!    `U·|body|` within budget. Every copy keeps the induction update,
//!    so after `U` copies the header test is exact again — `U | T`
//!    means the loop can never exit mid-group. The `.loopbound`
//!    tightens to `T/U + 1` header executions.
//! 3. **Remainder partial unrolling** (level 3): a *runtime*-trip loop
//!    (register bound, or an unknown induction start) with a
//!    straight-line body is split into a main loop running groups of
//!    `U ∈ {4, 2}` iterations while at least `U` remain — the guard
//!    compares against `K − (U−1)·S`, computed into a fresh register in
//!    the preheader when `K` is a register — and a scalar remainder
//!    loop (the original, relabelled) that finishes the last `< U`
//!    iterations. Works for any runtime trip count, including zero.
//!
//! Eligibility, beyond the shape above:
//!
//! * the body leaves the loop only through the header's exit branch —
//!   no `ret`, no branch to an outside label (so every iteration runs
//!   the latch, and the group structure is exact);
//! * if the body touches the scratch exit predicate `p6`, its first
//!   touch must be an unconditional definition ahead of all internal
//!   control flow — a body that *read* the header compare's value
//!   would see a stale predicate once the compare is gone (full
//!   unrolling) or a differently-biased one (partial);
//! * full unrolling additionally requires the loop to be innermost and
//!   either nested or memory-free (a duplicated top-level body mostly
//!   buys a longer cold method-cache fill); the partial schemes keep
//!   the loop and amortise its control overhead instead, so they run
//!   on top-level memory loops — `dotprod`, `cnt` — too.
//!
//! Only innermost loops rewrite in one call; the driver re-runs the
//! fixpoint in between, so a nest unrolls inside-out while each step
//! re-checks the budget against the already-flattened body. All three
//! schemes read the literal values `C0`, `K` and `S`, so they are
//! **not** shape-stable and never run in single-path mode.

use patmos_isa::{AluOp, CmpOp, Op, Pred, EXIT_PRED};
use patmos_lir::{FuncCode, Function, VCfg, VInst, VItem, VModule, VOp, VReg, VRegSet};
use patmos_regalloc::{PressureEstimate, PressureModel};

use crate::cache::{Analyses, Edits};
use crate::util::max_vreg;
use crate::{LoopUnroll, UnrollKind};

/// Largest number of instructions a fully unrolled loop (or one
/// replicated partial-unroll body group) may occupy.
const UNROLL_BUDGET: usize = 256;
/// Largest trip count considered for full unrolling.
const MAX_TRIP: i64 = 64;
/// The `cmpi` immediate is 11-bit signed; adjusted bounds must fit.
const CMPI_IMM_RANGE: std::ops::RangeInclusive<i64> = -1024..=1023;

/// How the compare bounds the induction variable.
#[derive(Clone, Copy)]
enum BoundSrc {
    /// `cmpi<op> pd = vi, K` — a literal bound.
    Imm(i16),
    /// `cmp<op> pd = vi, vK` — a register bound (runtime trip count).
    Reg(VReg),
}

/// One recognised counted loop, in its function's item-index space,
/// with the facts the three unrolling schemes decide on.
struct Plan {
    /// First item of the loop's leading `.loopbound`/label run.
    start: usize,
    /// The `exit:` label item (inclusive end of the replaced span).
    end: usize,
    /// Body item range: everything after the header's exit branch up to
    /// (excluding) the back branch — instructions *and* internal labels.
    body: std::ops::Range<usize>,
    /// The header's own label.
    head_label: String,
    /// The exit label.
    exit_label: String,
    /// The header compare (`Lt` or `Le`).
    cmp_op: CmpOp,
    /// The exit predicate the header compare defines.
    pd: Pred,
    /// The induction variable.
    vi: VReg,
    /// The loop bound operand.
    bound: BoundSrc,
    /// The induction step (positive).
    step: i64,
    /// Instructions in the body (labels excluded).
    body_insts: usize,
    /// Whether the body touches memory or calls.
    has_memory: bool,
    /// Memory operations in the body (they serialise on the single
    /// memory port, capping how much replication can pack).
    mem_ops: usize,
    /// Whether a multiply reads a value carried around the back edge
    /// (an `a = a * k + …` recurrence): its copies chain through the
    /// multiplier and replication packs nothing.
    carried_mul: bool,
    /// Distinct virtual registers the body references — the register
    /// pressure proxy the linear-scan policy's estimate compares
    /// against its cap: replicating a wide body invites the
    /// post-unroll CSE to stretch live ranges until the allocator
    /// spills in the hot loop.
    distinct_vregs: usize,
    /// Maximum simultaneously live values across the body — the
    /// measure the loop-aware policy's estimate uses: it assigns by
    /// liveness, so only genuine overlap costs registers.
    max_live: usize,
    /// Whether the body is straight-line (no internal labels or
    /// branches) — required by the remainder scheme.
    single_block: bool,
    /// Exact trip count, when start value and bound are constants.
    trips: Option<i64>,
    /// Nesting depth (1 = outermost).
    depth: u32,
    /// The loop's `.loopbound` annotation, when present.
    bound_ann: Option<(u32, u32)>,
}

/// Matches `inst` as the unconditional branch `br <label>`.
fn as_back_branch(inst: &VInst) -> Option<&str> {
    match &inst.op {
        VOp::BrLabel(l) if inst.guard.is_always() => Some(l),
        _ => None,
    }
}

/// Whether `op` writes predicate `p`.
fn defines_pred(op: &VOp, p: Pred) -> bool {
    matches!(op, VOp::Machine(op) if op.pred_def() == Some(p))
}

/// Whether `inst` reads predicate `p` (as a guard or combination input).
fn uses_pred(inst: &VInst, p: Pred) -> bool {
    (!inst.guard.is_always() && inst.guard.pred == p)
        || matches!(&inst.op, VOp::Machine(op) if op.pred_uses().contains(&Some(p)))
}

/// The constant reaching definition of `vi` at the loop entry: the last
/// def of `vi` among the instructions that fall through into the
/// header, which must be an unconditional immediate load or the
/// canonical zero copy. Gives up at the first label (another block) or
/// non-instruction item.
fn entry_constant(items: &[VItem], loop_start: usize, vi: VReg) -> Option<i64> {
    for item in items[..loop_start].iter().rev() {
        let VItem::Inst(inst) = item else { return None };
        if inst.op.def() == Some(vi) {
            if !inst.guard.is_always() {
                return None;
            }
            return match inst.op {
                VOp::Machine(Op::LoadImmLow { imm, .. }) => Some(imm as i16 as i64),
                VOp::Machine(Op::LoadImm32 { imm, .. }) => Some(imm as i32 as i64),
                // The canonical zero copy `add vi = vz, vz` — what the
                // scalar passes leave behind for `i = 0`.
                _ => match crate::util::as_copy(&inst.op) {
                    Some((_, src)) if src.is_zero() => Some(0),
                    _ => None,
                },
            };
        }
    }
    None
}

/// Trip count of `for (vi = c0; vi <op> k; vi += s)`, when every
/// intermediate value stays within `i32` (the compare is signed).
fn trip_count(c0: i64, k: i64, op: CmpOp, s: i64) -> Option<i64> {
    if s <= 0 {
        return None;
    }
    let trips = match op {
        CmpOp::Lt if c0 < k => (k - c0 + s - 1) / s,
        CmpOp::Le if c0 <= k => (k - c0) / s + 1,
        _ => return None,
    };
    let last = c0 + trips * s;
    if i32::try_from(last).is_err() {
        return None;
    }
    Some(trips)
}

fn plan_loop(func: &FuncCode<'_>, cfg: &VCfg, lp: &patmos_lir::NaturalLoop) -> Option<Plan> {
    let items = func.items;
    // Shape: contiguous blocks, the single latch laid out last.
    let h = lp.header;
    let latch = *lp.latches.first()?;
    if lp.latches.len() != 1 || latch < h {
        return None;
    }
    let span: Vec<usize> = (h..=latch).collect();
    if lp.blocks != span {
        return None;
    }
    let hb = &cfg.blocks[h];
    let lb = &cfg.blocks[latch];

    // Header: `cmp(i)<lt|le> p6 = vi, K` then `(!p6) br exit`.
    if hb.end - hb.first != 2 {
        return None;
    }
    let cmp = func.inst(hb.first);
    let br = func.inst(hb.first + 1);
    let (cmp_op, pd, vi, bound) = match cmp.op {
        VOp::Machine(Op::CmpI {
            op: op @ (CmpOp::Lt | CmpOp::Le),
            pd,
            rs1,
            imm,
        }) => (op, pd, rs1, BoundSrc::Imm(imm)),
        VOp::Machine(Op::Cmp {
            op: op @ (CmpOp::Lt | CmpOp::Le),
            pd,
            rs1,
            rs2,
        }) if rs2 != rs1 => (op, pd, rs1, BoundSrc::Reg(rs2)),
        _ => return None,
    };
    if !cmp.guard.is_always() || pd != EXIT_PRED {
        return None;
    }
    let VOp::BrLabel(exit_label) = &br.op else {
        return None;
    };
    if !(br.guard.negate && br.guard.pred == pd) {
        return None;
    }

    // Latch ends with the unconditional back branch; the exit label
    // follows immediately.
    let head_label = as_back_branch(func.inst(lb.end - 1))?;
    let back_item = func.insts[lb.end - 1];
    let end = back_item + 1;
    if !matches!(items.get(end), Some(VItem::Label(l)) if l == exit_label) {
        return None;
    }

    // Both loop labels must be private: the back branch is the only way
    // to the header, the exit branch the only way to the exit.
    for (pos, (_, inst)) in func.iter().enumerate() {
        if let VOp::BrLabel(l) = &inst.op {
            if l == head_label && pos != lb.end - 1 {
                return None;
            }
            if l == exit_label && pos != hb.first + 1 {
                return None;
            }
        }
    }

    // The body: item span between the exit branch and the back branch.
    let body_start = func.insts[hb.first + 1] + 1;
    let body = body_start..back_item;
    let internal_labels: Vec<&str> = items[body.clone()]
        .iter()
        .filter_map(|i| match i {
            VItem::Label(l) => Some(l.as_str()),
            _ => None,
        })
        .collect();

    // Walk the body: exits, the induction variable, the scratch
    // predicate discipline, memory traffic, bound invariance.
    let mut step: Option<i64> = None;
    let mut body_insts = 0usize;
    let mut mem_ops = 0usize;
    let mut carried_mul = false;
    let mut vregs = VRegSet::default();
    let mut distinct_vregs = 0usize;
    let mut defined = VRegSet::default();
    let mut flow_seen = false; // a label or branch so far
    let mut p6_defined = false;
    for item in &items[body.clone()] {
        match item {
            VItem::LoopBound { .. } => return None, // never: innermost
            VItem::Label(_) => flow_seen = true,
            VItem::Inst(inst) => {
                body_insts += 1;
                match &inst.op {
                    VOp::Machine(Op::Ret | Op::Halt) => return None,
                    VOp::BrLabel(l) => {
                        if !internal_labels.contains(&l.as_str()) {
                            return None;
                        }
                        flow_seen = true;
                    }
                    VOp::CallFunc(_) => mem_ops += 1,
                    VOp::Machine(Op::Mul { rs1, rs2 }) => {
                        // An operand read before any body definition is
                        // carried around the back edge.
                        for r in [rs1, rs2] {
                            if !r.is_zero() && !defined.contains(*r) {
                                carried_mul = true;
                            }
                        }
                    }
                    VOp::Machine(op) => mem_ops += usize::from(op.is_memory()),
                    _ => {}
                }
                for r in inst.op.uses().into_iter().flatten().chain(inst.op.def()) {
                    distinct_vregs += usize::from(vregs.insert(r));
                }
                if let Some(d) = inst.op.def() {
                    defined.insert(d);
                }
                if uses_pred(inst, pd) && !p6_defined {
                    return None;
                }
                if defines_pred(&inst.op, pd) && !flow_seen {
                    p6_defined = true;
                }
                // A register bound must be loop-invariant.
                if let BoundSrc::Reg(k) = bound {
                    if inst.op.def() == Some(k) {
                        return None;
                    }
                }
                if inst.op.def() == Some(vi) {
                    // Exactly one def, the canonical increment, in the
                    // latch block (runs once per completed iteration).
                    match inst.op {
                        VOp::Machine(Op::AluI {
                            op: AluOp::Add,
                            rs1,
                            imm,
                            ..
                        }) if rs1 == vi && inst.guard.is_always() && step.is_none() && imm > 0 => {
                            step = Some(imm as i64);
                        }
                        _ => return None,
                    }
                }
            }
        }
    }
    // Maximum simultaneous liveness across the body: a backward scan
    // seeded with the values carried around the back edge (the
    // induction variable and a register bound). Treating a multi-block
    // body as straight-line over-approximates liveness across its
    // internal joins — the safe direction for a pressure measure.
    let mut live = VRegSet::default();
    let mut live_count = usize::from(live.insert(vi));
    if let BoundSrc::Reg(k) = bound {
        live_count += usize::from(live.insert(k));
    }
    let mut max_live = live_count;
    for item in items[body.clone()].iter().rev() {
        if let VItem::Inst(inst) = item {
            if let Some(d) = inst.op.def() {
                live_count -= usize::from(live.remove(d));
            }
            for u in inst.op.uses().into_iter().flatten() {
                if !u.is_zero() {
                    live_count += usize::from(live.insert(u));
                }
            }
            max_live = max_live.max(live_count);
        }
    }

    // The increment must sit in the latch block: its instructions are
    // the ones between the items of the block's first and last
    // positions.
    let latch_items = func.insts[lb.first]..=func.insts[lb.end - 1];
    let inc_in_latch = items[body.clone()].iter().enumerate().any(|(off, item)| {
        matches!(item, VItem::Inst(inst) if inst.op.def() == Some(vi))
            && latch_items.contains(&(body.start + off))
    });
    if !inc_in_latch {
        return None;
    }

    // Span bookkeeping via the shared header-lead walk: the replaced
    // span starts at the header's own label and its `.loopbound` — and
    // nothing more. A *second* label in the run (the join label of a
    // branching `if` right before the loop) is a live branch target
    // that must survive the splice; it also marks a side entry, so the
    // constant scan below (which starts at `start` and stops at any
    // label) never looks past it either.
    let lead = patmos_lir::header_lead(items, func.insts[hb.first]);
    let start = lead.start;
    let bound_ann = lead.bound;

    let step = step?;
    let c0 = entry_constant(items, start, vi);
    let trips = match (bound, c0) {
        (BoundSrc::Imm(k), Some(c0)) => trip_count(c0, k as i64, cmp_op, step),
        _ => None,
    };
    if body_insts == 0 {
        return None;
    }
    Some(Plan {
        start,
        end,
        body,
        head_label: head_label.to_string(),
        exit_label: exit_label.clone(),
        cmp_op,
        pd,
        vi,
        bound,
        step,
        body_insts,
        has_memory: mem_ops > 0,
        mem_ops,
        carried_mul,
        distinct_vregs,
        max_live,
        single_block: internal_labels.is_empty() && !flow_seen,
        trips,
        depth: lp.depth,
        bound_ann,
    })
}

/// The rewrite chosen for one planned loop.
enum Scheme {
    /// Replace the loop by `trips` straight-line body copies.
    Full { trips: i64 },
    /// Keep the loop; replicate the body `factor` times (`factor`
    /// divides the trip count).
    Divisor { factor: i64, trips: i64 },
    /// Main loop of `factor`-iteration groups plus a scalar remainder
    /// loop.
    Remainder { factor: i64 },
}

/// Replicating a body that exceeds the allocation policy's pressure
/// cap invites spills inside the hot loop — a catastrophic trade. The
/// estimate comes from [`patmos_regalloc::Policy::pressure_estimate`]:
/// the linear-scan policy counts distinct body registers (eager reuse
/// makes every named temporary a potential extra live value), the
/// loop-aware policy counts maximum simultaneous liveness.
fn pressure_refusal(plan: &Plan, pressure: PressureEstimate) -> Option<String> {
    if pressure.body_fits(plan.distinct_vregs, plan.max_live) {
        return None;
    }
    Some(match pressure.model {
        PressureModel::DistinctVregs => format!(
            "body references {} distinct registers (cap {}): replication would invite spills",
            plan.distinct_vregs, pressure.cap
        ),
        PressureModel::MaxLive => format!(
            "body keeps {} values live at once (cap {}): replication would invite spills",
            plan.max_live, pressure.cap
        ),
    })
}

/// Whether replicating `plan`'s body `factor`-fold pays: the cycles
/// saved on loop overhead and dual-issue packing across `trips`
/// iterations must beat the cost of the added code (a longer cold
/// method-cache fill; amortised when the loop is nested and its
/// function stays resident).
fn replication_pays(plan: &Plan, factor: i64, trips: i64, added_insts: i64) -> bool {
    // Per skipped header: the compare, the exit branch and the mostly
    // empty branch shadows (~3 cycles); straight-line bodies
    // additionally let copies pack into the second issue slot, capped
    // by the single memory port — unless a multiply recurrence chains
    // the copies through the multiplier, in which case replication
    // packs nothing.
    let packing = if plan.single_block && !plan.carried_mul {
        (plan.body_insts / 2).saturating_sub(plan.mem_ops).min(3) as i64
    } else {
        0
    };
    let per_iter = 3 + packing;
    let savings = trips * (factor - 1) / factor * per_iter;
    let growth = if plan.depth >= 2 {
        added_insts / 2
    } else {
        added_insts * 3 / 2
    };
    // A third of margin: these are estimates, and a marginal
    // replication is not worth the code.
    savings * 3 > growth * 4
}

/// Whether `plan` is a loop the `sched_level` 2 modulo scheduler can
/// take further than replication can: one straight-line block (the
/// pipeliner's shape requirement), memory traffic to hide (a pure-ALU
/// body gains more from replication's dual-issue packing than from
/// overlap), no multiply recurrence (it fixes the recurrence `MII` at
/// the full chain latency), and enough worst-case trips to fill and
/// pay for a multi-stage pipeline.
fn pipeliner_can_take(plan: &Plan) -> bool {
    const MIN_PIPELINE_TRIPS: i64 = 8;
    let expected_trips = plan
        .trips
        .or_else(|| plan.bound_ann.map(|(_, max)| max.saturating_sub(1) as i64));
    plan.single_block
        && plan.has_memory
        && !plan.carried_mul
        && expected_trips.is_some_and(|t| t >= MIN_PIPELINE_TRIPS)
}

/// Picks the scheme for `plan`. `Err(Some(message))` is a refusal
/// worth a `--remarks` line (a canonical loop the cost model or a
/// budget turned down); `Err(None)` leaves the loop alone silently
/// (partial unrolling is off, or the loop is one this pass created).
fn choose_scheme(
    plan: &Plan,
    partial: bool,
    defer_pipelineable: bool,
    pressure: PressureEstimate,
) -> Result<Scheme, Option<String>> {
    // Full unrolling: small constant trip within budget; top-level
    // loops only when memory-free (duplicating a once-run memory body
    // mostly lengthens the cold method-cache fill).
    if let Some(trips) = plan.trips {
        if trips > 0
            && trips <= MAX_TRIP
            && trips as usize * plan.body_insts <= UNROLL_BUDGET
            && (plan.depth >= 2 || !plan.has_memory)
        {
            return Ok(Scheme::Full { trips });
        }
        if !partial {
            return Err(Some(format!(
                "constant trip {trips} not fully unrolled ({} body instructions, budget \
                 {UNROLL_BUDGET}{}); partial unrolling needs opt_level 3",
                plan.body_insts,
                if plan.depth < 2 && plan.has_memory {
                    ", memory ops at top level"
                } else {
                    ""
                },
            )));
        }
        if defer_pipelineable && pipeliner_can_take(plan) {
            return Err(Some(format!(
                "constant trip {trips} left for the software pipeliner (replication would \
                 serialise its memory chain)"
            )));
        }
        if let Some(message) = pressure_refusal(plan, pressure) {
            return Err(Some(message));
        }
        // Divisor partial unrolling: the largest *proper* factor
        // dividing the trip count that stays within budget and pays
        // for its code growth — a factor equal to the trip count would
        // be a full unroll wearing a loop costume, dodging the gate
        // above.
        if trips >= 4 {
            let max_u = (UNROLL_BUDGET / plan.body_insts) as i64;
            let factor = (2..=max_u.min(trips - 1))
                .rev()
                .filter(|u| trips % u == 0)
                .find(|&u| replication_pays(plan, u, trips, (u - 1) * plan.body_insts as i64));
            return match factor {
                Some(factor) => Ok(Scheme::Divisor { factor, trips }),
                None => Err(Some(format!(
                    "no paying divisor of trip count {trips} ({} body instructions, budget \
                     {UNROLL_BUDGET})",
                    plan.body_insts
                ))),
            };
        }
        return Err(Some(format!(
            "constant trip {trips} below the divisor-unroll threshold 4"
        )));
    }
    if !partial {
        return Err(None);
    }
    if !plan.single_block {
        return Err(Some(
            "runtime-trip loop has internal control flow; remainder unrolling needs a \
             straight-line body"
                .into(),
        ));
    }
    if defer_pipelineable && pipeliner_can_take(plan) {
        return Err(Some(
            "runtime-trip loop left for the software pipeliner (replication would serialise \
             its memory chain)"
                .into(),
        ));
    }
    if let Some(message) = pressure_refusal(plan, pressure) {
        return Err(Some(message));
    }
    // Remainder partial unrolling for runtime trip counts. Never
    // re-unroll a main or remainder loop this pass created.
    if plan.head_label.ends_with("_pu") || plan.head_label.ends_with("_rem") {
        return Err(None);
    }
    let Some(expected_trips) = plan.bound_ann.map(|(_, max)| max.saturating_sub(1)) else {
        return Err(Some(
            "runtime-trip loop has no .loopbound annotation to size the main loop against".into(),
        ));
    };
    for factor in [4i64, 2] {
        if factor as usize * plan.body_insts > UNROLL_BUDGET {
            continue;
        }
        // The main loop should run at least a couple of groups at the
        // annotated worst case, or the guard never pays for itself.
        if (expected_trips as i64) < 2 * factor {
            continue;
        }
        // The adjusted bound must still encode: folded into the
        // `cmpi` immediate for a literal bound, or as the preheader
        // `addi`'s 12-bit immediate for a register bound.
        match plan.bound {
            BoundSrc::Imm(k) => {
                let adjusted = k as i64 - (factor - 1) * plan.step;
                if !CMPI_IMM_RANGE.contains(&adjusted) {
                    continue;
                }
            }
            BoundSrc::Reg(_) => {
                if (factor - 1) * plan.step > 2047 {
                    continue;
                }
            }
        }
        // Main copies plus the relabelled remainder loop.
        let added = factor * plan.body_insts as i64 + 4;
        if !replication_pays(plan, factor, expected_trips as i64, added) {
            continue;
        }
        return Ok(Scheme::Remainder { factor });
    }
    Err(Some(format!(
        "no remainder-unroll factor pays: expected trips {expected_trips}, {} body \
         instructions (budget {UNROLL_BUDGET})",
        plan.body_insts
    )))
}

/// Replicates `body` `copies` times, uniquifying internal labels (and
/// the branches to them) with `prefix{copy}_`.
fn replicate(body: &[VItem], copies: i64, prefix: &str) -> Vec<VItem> {
    let mut out = Vec::with_capacity(body.len() * copies as usize);
    for copy in 0..copies {
        for item in body {
            out.push(match item {
                VItem::Label(l) => VItem::Label(format!("{prefix}{copy}_{l}")),
                VItem::Inst(VInst {
                    guard,
                    op: VOp::BrLabel(l),
                }) => VItem::Inst(VInst::new(
                    *guard,
                    VOp::BrLabel(format!("{prefix}{copy}_{l}")),
                )),
                other => other.clone(),
            });
        }
    }
    out
}

/// Unrolls every eligible *innermost* loop once; returns whether the
/// module changed. The driver re-runs the scalar fixpoint before
/// calling again, so outer loops are reconsidered against their
/// flattened bodies. With `partial`, loops the full scheme cannot
/// handle get the divisor or remainder treatment (`opt_level` 3).
/// Every rewrite is recorded in `report.unrolls`, and both rewrites and
/// cost-model refusals become remarks. The loops come from each
/// function's cache (`caches` runs parallel to `module.funcs`); the
/// caches of the functions whose items are spliced are dropped.
/// Tightening a `.loopbound` in place feeds no analysis and keeps them.
pub(crate) fn run(
    module: &mut VModule,
    caches: &mut [Option<Analyses>],
    partial: bool,
    defer_pipelineable: bool,
    pressure: PressureEstimate,
    report: &mut crate::OptReport,
) -> bool {
    // Plans and bound tightenings by function index.
    let mut plans: Vec<(usize, Plan, Scheme)> = Vec::new();
    // Loops with a proven constant trip count that stay loops still
    // get their `.loopbound` *min* raised to the exact header-execution
    // count: `min` never shapes code, but it rides through to the WCET
    // analysis, where it proves a software-pipelined loop's short-trip
    // fallback dead (the guard provably passes).
    let mut tightens: Vec<(usize, String, usize, u32)> = Vec::new();
    for (fi, (func, cache)) in module.funcs.iter().zip(caches.iter_mut()).enumerate() {
        let Some(cache) = cache else { continue };
        let cached = cache.with_loops(func);
        let (code, cfg, forest) = (
            FuncCode::new(func, cached.positions()),
            cached.cfg(),
            cached.forest(),
        );
        for (li, lp) in forest.loops.iter().enumerate() {
            if forest.has_children(li) {
                continue;
            }
            if let Some(plan) = plan_loop(&code, cfg, lp) {
                match choose_scheme(&plan, partial, defer_pipelineable, pressure) {
                    Ok(scheme) => plans.push((fi, plan, scheme)),
                    refused => {
                        if let Err(Some(message)) = refused {
                            report.push_remark(patmos_lir::Remark {
                                pass: "unroll",
                                function: func.name.clone(),
                                site: Some(plan.head_label.clone()),
                                applied: false,
                                message,
                            });
                        }
                        if let (Some(trips), Some((min, max))) = (plan.trips, plan.bound_ann) {
                            let exact = trips as u32 + 1;
                            if min < exact && exact <= max {
                                tightens.push((fi, plan.head_label.clone(), plan.start, exact));
                            }
                        }
                    }
                }
            }
        }
    }
    if plans.is_empty() && tightens.is_empty() {
        return false;
    }

    // In-place single-item rewrites first: they shift no indices, so
    // the spliced plans below stay valid.
    for (fi, site, at, exact) in tightens {
        let func = &mut module.funcs[fi];
        let VItem::LoopBound { max, .. } = func.items[at] else {
            unreachable!("plan.start points at the recorded .loopbound");
        };
        func.items[at] = VItem::LoopBound { min: exact, max };
        report.push_remark(patmos_lir::Remark {
            pass: "unroll",
            function: func.name.clone(),
            site: Some(site),
            applied: true,
            message: format!(
                "constant trip count {}: .loopbound min tightened to {exact} header executions",
                exact - 1
            ),
        });
    }

    let mut next_vreg = max_vreg(module.funcs.iter().flat_map(|f| &f.items)) + 1;

    // Rewrite back to front, last function first, so earlier spans stay
    // valid and fresh registers keep their layout-order numbering.
    plans.sort_by_key(|(fi, p, _)| std::cmp::Reverse((*fi, p.start)));
    for (fi, plan, scheme) in plans {
        if let Some(cache) = &mut caches[fi] {
            cache.invalidate(&module.funcs[fi], Edits::Layout);
        }
        let Function { name, items } = &mut module.funcs[fi];
        let (kind, factor, trips) = match &scheme {
            Scheme::Full { trips } => (UnrollKind::Full, *trips, Some(*trips)),
            Scheme::Divisor { factor, trips } => (UnrollKind::Divisor, *factor, Some(*trips)),
            Scheme::Remainder { factor } => (UnrollKind::Remainder, *factor, None),
        };
        report.push_remark(patmos_lir::Remark {
            pass: "unroll",
            function: name.clone(),
            site: Some(plan.head_label.clone()),
            applied: true,
            message: match trips {
                Some(trips) => format!(
                    "{kind} unroll by {factor} (trip count {trips}, {} body instructions, \
                     budget {UNROLL_BUDGET})",
                    plan.body_insts
                ),
                None => format!(
                    "{kind} unroll by {factor} ({} body instructions, budget {UNROLL_BUDGET})",
                    plan.body_insts
                ),
            },
        });
        let body: Vec<VItem> = items[plan.body.clone()].to_vec();
        match scheme {
            Scheme::Full { trips } => {
                report.unrolls.push(LoopUnroll {
                    label: plan.head_label.clone(),
                    kind: UnrollKind::Full,
                    factor: trips as u32,
                    trips: Some(trips as u32),
                });
                let unrolled = replicate(&body, trips, "u");
                items.splice(plan.start..=plan.end, unrolled);
            }
            Scheme::Divisor { factor, trips } => {
                report.unrolls.push(LoopUnroll {
                    label: plan.head_label.clone(),
                    kind: UnrollKind::Divisor,
                    factor: factor as u32,
                    trips: Some(trips as u32),
                });
                // Keep the original header and branches; replace the
                // body with `factor` copies and tighten the bound —
                // exactly, on both sides: the trip count is a proven
                // constant and the factor divides it.
                let new_max = (trips / factor + 1) as u32;
                let mut out: Vec<VItem> = vec![VItem::LoopBound {
                    min: new_max,
                    max: new_max,
                }];
                // Header label + compare + exit branch, verbatim.
                out.push(VItem::Label(plan.head_label.clone()));
                let hdr_at = items[plan.start..]
                    .iter()
                    .position(|i| matches!(i, VItem::Inst(_)))
                    .expect("header compare exists")
                    + plan.start;
                out.push(items[hdr_at].clone());
                out.push(items[hdr_at + 1].clone());
                out.extend(replicate(&body, factor, "pu"));
                out.push(VItem::Inst(VInst::always(VOp::BrLabel(
                    plan.head_label.clone(),
                ))));
                out.push(VItem::Label(plan.exit_label.clone()));
                items.splice(plan.start..=plan.end, out);
            }
            Scheme::Remainder { factor } => {
                report.unrolls.push(LoopUnroll {
                    label: plan.head_label.clone(),
                    kind: UnrollKind::Remainder,
                    factor: factor as u32,
                    trips: None,
                });
                let (_, max_ann) = plan.bound_ann.expect("remainder scheme requires a bound");
                let main_label = format!("{}_pu", plan.head_label);
                let rem_label = format!("{}_rem", plan.head_label);
                let adjust = (factor - 1) * plan.step;
                let mut out: Vec<VItem> = Vec::new();
                // Guard bound: `K − (U−1)·S`, folded into the immediate
                // or computed once into a fresh register.
                let main_cmp = match plan.bound {
                    BoundSrc::Imm(k) => VOp::Machine(Op::CmpI {
                        op: plan.cmp_op,
                        pd: plan.pd,
                        rs1: plan.vi,
                        imm: (k as i64 - adjust) as i16,
                    }),
                    BoundSrc::Reg(k) => {
                        let kp = VReg::new(next_vreg);
                        next_vreg += 1;
                        out.push(VItem::Inst(VInst::always(Op::AluI {
                            op: AluOp::Add,
                            rd: kp,
                            rs1: k,
                            imm: (-adjust) as i16,
                        })));
                        VOp::Machine(Op::Cmp {
                            op: plan.cmp_op,
                            pd: plan.pd,
                            rs1: plan.vi,
                            rs2: kp,
                        })
                    }
                };
                let exit_guard = patmos_isa::Guard::unless(plan.pd);
                // Main loop: groups of `factor` iterations.
                out.push(VItem::LoopBound {
                    min: 1,
                    max: max_ann.saturating_sub(1) / factor as u32 + 1,
                });
                out.push(VItem::Label(main_label.clone()));
                out.push(VItem::Inst(VInst::always(main_cmp)));
                out.push(VItem::Inst(VInst::new(
                    exit_guard,
                    VOp::BrLabel(rem_label.clone()),
                )));
                out.extend(replicate(&body, factor, "pu"));
                out.push(VItem::Inst(VInst::always(VOp::BrLabel(main_label))));
                // Remainder loop: the original loop, relabelled.
                out.push(VItem::LoopBound {
                    min: 1,
                    max: (factor as u32).min(max_ann),
                });
                out.push(VItem::Label(rem_label.clone()));
                let hdr_at = items[plan.start..]
                    .iter()
                    .position(|i| matches!(i, VItem::Inst(_)))
                    .expect("header compare exists")
                    + plan.start;
                out.push(items[hdr_at].clone());
                out.push(items[hdr_at + 1].clone());
                out.extend(body.iter().cloned());
                out.push(VItem::Inst(VInst::always(VOp::BrLabel(rem_label))));
                out.push(VItem::Label(plan.exit_label.clone()));
                items.splice(plan.start..=plan.end, out);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{Guard, Reg};

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn inst(op: impl Into<VOp>) -> VItem {
        VItem::Inst(VInst::always(op))
    }

    fn run_with(m: &mut VModule, partial: bool, defer: bool) -> (bool, Vec<LoopUnroll>) {
        let mut caches: Vec<Option<Analyses>> =
            m.funcs.iter().map(|_| Some(Analyses::default())).collect();
        let mut report = crate::OptReport::default();
        let changed = run(
            m,
            &mut caches,
            partial,
            defer,
            PressureEstimate::default(),
            &mut report,
        );
        (changed, report.unrolls)
    }

    fn run_full(m: &mut VModule) -> bool {
        run_with(m, false, false).0
    }

    fn run_partial(m: &mut VModule) -> (bool, Vec<LoopUnroll>) {
        run_with(m, true, false)
    }

    fn run_partial_deferring(m: &mut VModule) -> (bool, Vec<LoopUnroll>) {
        run_with(m, true, true)
    }

    /// An inner counted loop `for (i = 0; i < 5; i++) { s = s + i; }`
    /// nested in an outer counted loop, in the generator's shape.
    fn nested_counted_loop() -> VModule {
        VModule {
            entry: "main".into(),
            funcs: vec![Function::new(
                "main",
                vec![
                    inst(Op::LoadImmLow { rd: v(8), imm: 0 }), // outer i
                    inst(Op::LoadImmLow { rd: v(2), imm: 0 }), // s
                    VItem::LoopBound { min: 1, max: 3 },
                    VItem::Label("main_head9".into()),
                    inst(Op::CmpI {
                        op: CmpOp::Lt,
                        pd: Pred::P6,
                        rs1: v(8),
                        imm: 2,
                    }),
                    VItem::Inst(VInst::new(
                        Guard::unless(Pred::P6),
                        VOp::BrLabel("main_exit9".into()),
                    )),
                    inst(Op::LoadImmLow { rd: v(1), imm: 0 }), // inner i
                    VItem::LoopBound { min: 1, max: 6 },
                    VItem::Label("main_head1".into()),
                    inst(Op::CmpI {
                        op: CmpOp::Lt,
                        pd: Pred::P6,
                        rs1: v(1),
                        imm: 5,
                    }),
                    VItem::Inst(VInst::new(
                        Guard::unless(Pred::P6),
                        VOp::BrLabel("main_exit2".into()),
                    )),
                    inst(Op::AluR {
                        op: AluOp::Add,
                        rd: v(2),
                        rs1: v(2),
                        rs2: v(1),
                    }),
                    inst(Op::AluI {
                        op: AluOp::Add,
                        rd: v(1),
                        rs1: v(1),
                        imm: 1,
                    }),
                    inst(VOp::BrLabel("main_head1".into())),
                    VItem::Label("main_exit2".into()),
                    inst(Op::AluI {
                        op: AluOp::Add,
                        rd: v(8),
                        rs1: v(8),
                        imm: 1,
                    }),
                    inst(VOp::BrLabel("main_head9".into())),
                    VItem::Label("main_exit9".into()),
                    inst(VOp::CopyToPhys {
                        dst: Reg::R1,
                        src: v(2),
                    }),
                    inst(Op::Halt),
                ],
            )],
        }
    }

    #[test]
    fn inner_counted_loop_fully_unrolls() {
        let mut m = nested_counted_loop();
        assert!(run_full(&mut m));
        // The inner loop's branches are gone; the outer loop's remain.
        let branches = m.funcs[0]
            .items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::BrLabel(_),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(branches, 2, "{}", m.render());
        // Five copies of the accumulate, inside the outer loop.
        let adds = m.funcs[0]
            .items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::Machine(Op::AluR { op: AluOp::Add, .. }),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(adds, 5, "{}", m.render());
        // The outer loop is now innermost and straight-line: a second
        // round flattens the whole nest (2 × 5 accumulates).
        assert!(run_full(&mut m), "outer loop unrolls next");
        let adds = m.funcs[0]
            .items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::Machine(Op::AluR { op: AluOp::Add, .. }),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(adds, 10, "{}", m.render());
    }

    /// A top-level pure-compute loop: allowed to unroll (it folds).
    fn pure_toplevel_loop() -> VModule {
        let mut m = nested_counted_loop();
        // Strip the outer loop items, keep the inner one at top level.
        m.funcs[0].items = vec![
            inst(Op::LoadImmLow { rd: v(1), imm: 0 }),
            inst(Op::LoadImmLow { rd: v(2), imm: 0 }),
            VItem::LoopBound { min: 1, max: 6 },
            VItem::Label("main_head1".into()),
            inst(Op::CmpI {
                op: CmpOp::Lt,
                pd: Pred::P6,
                rs1: v(1),
                imm: 5,
            }),
            VItem::Inst(VInst::new(
                Guard::unless(Pred::P6),
                VOp::BrLabel("main_exit2".into()),
            )),
            inst(Op::AluR {
                op: AluOp::Add,
                rd: v(2),
                rs1: v(2),
                rs2: v(1),
            }),
            inst(Op::AluI {
                op: AluOp::Add,
                rd: v(1),
                rs1: v(1),
                imm: 1,
            }),
            inst(VOp::BrLabel("main_head1".into())),
            VItem::Label("main_exit2".into()),
            inst(VOp::CopyToPhys {
                dst: Reg::R1,
                src: v(2),
            }),
            inst(Op::Halt),
        ];
        m
    }

    #[test]
    fn toplevel_pure_loop_unrolls_but_memory_loop_does_not() {
        let mut pure = pure_toplevel_loop();
        assert!(run_full(&mut pure), "pure compute folds away, worth it");

        let mut mem = pure_toplevel_loop();
        // Same loop, but the body loads: top level + memory = keep.
        mem.funcs[0].items[6] = inst(Op::Load {
            area: patmos_isa::MemArea::Static,
            size: patmos_isa::AccessSize::Word,
            rd: v(2),
            ra: v(1),
            offset: 0,
        });
        // The loop survives, but its proven constant trip count still
        // tightens the `.loopbound` min to the exact header count.
        assert!(run_full(&mut mem));
        assert!(
            mem.funcs[0]
                .items
                .iter()
                .any(|i| matches!(i, VItem::LoopBound { min: 6, max: 6 })),
            "{}",
            mem.render()
        );
        assert!(!run_full(&mut mem), "bound tightening is idempotent");
    }

    #[test]
    fn branching_if_in_body_unrolls_with_renamed_labels() {
        let mut m = pure_toplevel_loop();
        // Body: `cmpilt p6 = v2, 9; (!p6) br skip; add; skip:` — a
        // branching if that redefines the scratch predicate first.
        m.funcs[0].items.splice(
            6..6,
            vec![
                inst(Op::CmpI {
                    op: CmpOp::Lt,
                    pd: Pred::P6,
                    rs1: v(2),
                    imm: 9,
                }),
                VItem::Inst(VInst::new(
                    Guard::unless(Pred::P6),
                    VOp::BrLabel("main_skip4".into()),
                )),
            ],
        );
        m.funcs[0]
            .items
            .insert(9, VItem::Label("main_skip4".into()));
        assert!(run_full(&mut m));
        // Five distinct copies of the internal label, each referenced
        // by exactly one branch.
        let labels: Vec<&str> = m.funcs[0]
            .items
            .iter()
            .filter_map(|i| match i {
                VItem::Label(l) => Some(l.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(labels.len(), 5, "{}", m.render());
        let unique: std::collections::HashSet<&str> = labels.iter().copied().collect();
        assert_eq!(unique.len(), 5, "labels must be uniquified per copy");
    }

    #[test]
    fn body_reading_stale_exit_predicate_blocks_unrolling() {
        let mut m = pure_toplevel_loop();
        // Body guards an op with p6 *before* any body-local p6 write:
        // it would read the header compare we delete.
        m.funcs[0].items[6] = VItem::Inst(VInst::new(
            Guard::when(Pred::P6),
            Op::AluR {
                op: AluOp::Add,
                rd: v(2),
                rs1: v(2),
                rs2: v(1),
            },
        ));
        assert!(!run_full(&mut m));
    }

    #[test]
    fn side_entry_label_before_the_loop_blocks_unrolling() {
        // A branching if's join label directly before the loop is a
        // live branch target: the splice must not swallow it, and the
        // induction start cannot be trusted (the side entry bypasses
        // the init — the if may reassign `i`). The safe answer is to
        // leave the loop alone.
        let mut m = pure_toplevel_loop();
        m.funcs[0].items.splice(
            1..1,
            vec![
                inst(Op::CmpI {
                    op: CmpOp::Eq,
                    pd: Pred::P6,
                    rs1: v(9),
                    imm: 1,
                }),
                VItem::Inst(VInst::new(
                    Guard::unless(Pred::P6),
                    VOp::BrLabel("main_join9".into()),
                )),
                inst(Op::AluI {
                    op: AluOp::Add,
                    rd: v(1),
                    rs1: v(1),
                    imm: 5,
                }),
                VItem::Label("main_join9".into()),
            ],
        );
        assert!(!run_full(&mut m));
        assert!(
            m.funcs[0]
                .items
                .iter()
                .any(|i| matches!(i, VItem::Label(l) if l == "main_join9")),
            "the side-entry label must survive:\n{}",
            m.render()
        );
    }

    #[test]
    fn unknown_start_value_blocks_full_unrolling() {
        let mut m = pure_toplevel_loop();
        // Replace `li i = 0` with a copy from another register.
        m.funcs[0].items[0] = inst(Op::AluR {
            op: AluOp::Add,
            rd: v(1),
            rs1: v(9),
            rs2: VReg::ZERO,
        });
        assert!(!run_full(&mut m));
    }

    #[test]
    fn oversized_trip_count_blocks_full_unrolling() {
        let mut m = pure_toplevel_loop();
        m.funcs[0].items[4] = inst(Op::CmpI {
            op: CmpOp::Lt,
            pd: Pred::P6,
            rs1: v(1),
            imm: 999,
        });
        assert!(!run_full(&mut m));
    }

    #[test]
    fn guarded_body_writes_survive_unrolling_verbatim() {
        let mut m = pure_toplevel_loop();
        // A p1-guarded add (what if-conversion produces).
        m.funcs[0].items.insert(
            6,
            VItem::Inst(VInst::new(
                Guard::when(Pred::P1),
                Op::AluI {
                    op: AluOp::Add,
                    rd: v(2),
                    rs1: v(2),
                    imm: 3,
                },
            )),
        );
        assert!(run_full(&mut m));
        let guarded = m.funcs[0]
            .items
            .iter()
            .filter(|i| matches!(i, VItem::Inst(inst) if !inst.guard.is_always()))
            .count();
        assert_eq!(guarded, 5, "one guarded copy per trip: {}", m.render());
    }

    /// A 64-trip constant loop whose full unroll blows the budget with
    /// a padded body; bumped past the per-loop limit by `pad` filler
    /// adds.
    fn overbudget_constant_loop(trip: i16, pad: usize) -> VModule {
        let mut m = pure_toplevel_loop();
        m.funcs[0].items[4] = inst(Op::CmpI {
            op: CmpOp::Lt,
            pd: Pred::P6,
            rs1: v(1),
            imm: trip,
        });
        m.funcs[0].items[2] = VItem::LoopBound {
            min: 1,
            max: trip as u32 + 1,
        };
        let filler: Vec<VItem> = (0..pad)
            .map(|i| {
                inst(Op::AluI {
                    op: AluOp::Add,
                    rd: v(20 + i as u32),
                    rs1: v(2),
                    imm: 1,
                })
            })
            .collect();
        m.funcs[0].items.splice(6..6, filler);
        m
    }

    #[test]
    fn overbudget_constant_loop_partially_unrolls_by_a_divisor() {
        // 64 trips × 7-inst body = 448 > 256: full unrolling refuses,
        // the divisor scheme unrolls by the largest divisor that both
        // fits the budget and pays for its code growth (16 here — 32
        // would fit the budget but its growth outweighs the removed
        // loop overhead).
        let mut m = overbudget_constant_loop(64, 4);
        // Without partial unrolling the loop stays, but the constant
        // trip count still tightens the `.loopbound` min.
        let mut full_only = m.clone();
        assert!(run_full(&mut full_only));
        assert!(
            full_only.funcs[0]
                .items
                .iter()
                .any(|i| matches!(i, VItem::LoopBound { min: 65, max: 65 })),
            "{}",
            full_only.render()
        );
        assert!(!run_full(&mut full_only), "bound tightening is idempotent");
        let (changed, log) = run_partial(&mut m);
        assert!(changed);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, UnrollKind::Divisor);
        assert_eq!(log[0].factor, 16, "largest paying divisor");
        // The loop survives: one back branch, one exit branch, and the
        // bound tightens to 64/16 + 1 = 5 header executions.
        let branches = m.funcs[0]
            .items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::BrLabel(_),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(branches, 2, "{}", m.render());
        assert!(
            m.funcs[0]
                .items
                .iter()
                .any(|i| matches!(i, VItem::LoopBound { min: 5, max: 5 })),
            "{}",
            m.render()
        );
        // 16 induction updates in the replicated body.
        let incs = m.funcs[0]
            .items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::Machine(Op::AluI {
                            op: AluOp::Add,
                            rd,
                            ..
                        }),
                        ..
                    }) if *rd == v(1)
                )
            })
            .count();
        assert_eq!(incs, 16, "{}", m.render());
        // A second application finds nothing left to do.
        assert!(!run_partial(&mut m).0, "divisor unrolling is idempotent");
    }

    /// A runtime-trip loop: bound in a register, straight-line body.
    fn runtime_trip_loop() -> VModule {
        let mut m = pure_toplevel_loop();
        m.funcs[0].items[4] = inst(Op::Cmp {
            op: CmpOp::Lt,
            pd: Pred::P6,
            rs1: v(1),
            rs2: v(9),
        });
        m.funcs[0].items[2] = VItem::LoopBound { min: 1, max: 65 };
        m
    }

    #[test]
    fn runtime_trip_loop_gets_a_main_and_remainder_loop() {
        let mut m = runtime_trip_loop();
        assert!(!run_full(&mut m.clone()), "full unrolling cannot touch it");
        let (changed, log) = run_partial(&mut m);
        assert!(changed, "{}", m.render());
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, UnrollKind::Remainder);
        assert_eq!(log[0].factor, 4);
        let rendered = m.render();
        // The guard bound is computed once into a fresh register.
        assert!(
            m.funcs[0].items.iter().any(|i| matches!(
                i,
                VItem::Inst(VInst {
                    op: VOp::Machine(Op::AluI {
                        op: AluOp::Add,
                        imm: -3,
                        ..
                    }),
                    ..
                })
            )),
            "preheader computes K - 3*step:\n{rendered}"
        );
        // Two loops: main (4 copies) + remainder (1 copy).
        let labels: Vec<&str> = m.funcs[0]
            .items
            .iter()
            .filter_map(|i| match i {
                VItem::Label(l) => Some(l.as_str()),
                _ => None,
            })
            .collect();
        assert!(labels.contains(&"main_head1_pu"), "{rendered}");
        assert!(labels.contains(&"main_head1_rem"), "{rendered}");
        let incs = m.funcs[0]
            .items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::Machine(Op::AluI {
                            op: AluOp::Add,
                            rd,
                            ..
                        }),
                        ..
                    }) if *rd == v(1)
                )
            })
            .count();
        assert_eq!(incs, 5, "4 main copies + 1 remainder: {rendered}");
        // Both loops carry bounds: 64/4 + 1 = 17 and the factor 4.
        assert!(
            m.funcs[0]
                .items
                .iter()
                .any(|i| matches!(i, VItem::LoopBound { min: 1, max: 17 })),
            "{rendered}"
        );
        assert!(
            m.funcs[0]
                .items
                .iter()
                .any(|i| matches!(i, VItem::LoopBound { min: 1, max: 4 })),
            "{rendered}"
        );
        // A second application leaves the created loops alone.
        assert!(!run_partial(&mut m).0, "remainder unrolling is idempotent");
    }

    #[test]
    fn runtime_trip_loop_with_branching_body_is_left_alone() {
        let mut m = runtime_trip_loop();
        m.funcs[0].items.splice(
            6..6,
            vec![
                inst(Op::CmpI {
                    op: CmpOp::Lt,
                    pd: Pred::P6,
                    rs1: v(2),
                    imm: 9,
                }),
                VItem::Inst(VInst::new(
                    Guard::unless(Pred::P6),
                    VOp::BrLabel("main_skip4".into()),
                )),
            ],
        );
        m.funcs[0]
            .items
            .insert(9, VItem::Label("main_skip4".into()));
        assert!(!run_partial(&mut m).0, "remainder needs a single block");
    }

    #[test]
    fn oversized_step_adjustment_falls_back_to_factor_two() {
        // With step 700, the factor-4 adjustment (3·700 = 2100) does
        // not fit the `addi` immediate; factor 2 (700) does. Emitting
        // the unencodable constant used to abort compilation later.
        let mut m = runtime_trip_loop();
        m.funcs[0].items[7] = inst(Op::AluI {
            op: AluOp::Add,
            rd: v(1),
            rs1: v(1),
            imm: 700,
        });
        let (changed, log) = run_partial(&mut m);
        assert!(changed, "{}", m.render());
        assert_eq!(log[0].factor, 2, "factor 4's adjustment cannot encode");
        assert!(
            m.funcs[0].items.iter().any(|i| matches!(
                i,
                VItem::Inst(VInst {
                    op: VOp::Machine(Op::AluI {
                        op: AluOp::Add,
                        imm: -700,
                        ..
                    }),
                    ..
                })
            )),
            "preheader computes K - step:\n{}",
            m.render()
        );
    }

    #[test]
    fn memory_loops_are_left_for_the_pipeliner_when_deferring() {
        // A runtime-trip memory loop: remainder unrolling would take
        // it, but with a software pipeliner downstream it stays a
        // plain loop for the modulo scheduler to overlap.
        let mut m = runtime_trip_loop();
        m.funcs[0].items[6] = inst(Op::Load {
            area: patmos_isa::MemArea::Static,
            size: patmos_isa::AccessSize::Word,
            rd: v(2),
            ra: v(1),
            offset: 0,
        });
        assert!(run_partial(&mut m.clone()).0, "unrolls when not deferring");
        assert!(!run_partial_deferring(&mut m).0, "{}", m.render());

        // An over-budget constant-trip memory loop defers too — but
        // its proven trip count still tightens the `.loopbound` min,
        // which is what proves the pipelined fallback dead later.
        let mut m = overbudget_constant_loop(64, 4);
        m.funcs[0].items[6] = inst(Op::Load {
            area: patmos_isa::MemArea::Static,
            size: patmos_isa::AccessSize::Word,
            rd: v(20),
            ra: v(1),
            offset: 0,
        });
        let (changed, log) = run_partial_deferring(&mut m);
        assert!(changed, "the min-tightening still applies");
        assert!(log.is_empty(), "no unroll: {}", m.render());
        assert!(
            m.funcs[0]
                .items
                .iter()
                .any(|i| matches!(i, VItem::LoopBound { min: 65, max: 65 })),
            "{}",
            m.render()
        );

        // A pure-ALU loop gains more from replication's dual-issue
        // packing than from overlap: it still unrolls under deferral.
        let mut pure = runtime_trip_loop();
        let (changed, log) = run_partial_deferring(&mut pure);
        assert!(changed);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, UnrollKind::Remainder);
    }

    #[test]
    fn small_annotated_bound_blocks_remainder_unrolling() {
        let mut m = runtime_trip_loop();
        // At most 3 trips: a factor-2 group loop would barely run.
        m.funcs[0].items[2] = VItem::LoopBound { min: 1, max: 4 };
        assert!(!run_partial(&mut m).0);
    }
}
