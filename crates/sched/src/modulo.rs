//! Iterative modulo scheduling of innermost counted loops — software
//! pipelining for `sched_level` 2.
//!
//! For a loop in the canonical shape the compiler emits (header
//! `cmpi<lt|le> pd = vi, K` + `(!pd) br exit`, one straight-line body
//! block ending in the back branch — recognised by
//! [`patmos_lir::plir::CountedLoop`]), the pipeliner overlaps
//! successive iterations at a fixed **initiation interval** `II`:
//!
//! 1. **Bounds.** The *resource* bound counts issue slots (two per
//!    bundle under dual issue, slot-two legality respected, one row
//!    reserved for the loop-back branch); the *recurrence* bound reads
//!    the dependence relation of [`crate::dag`] extended with
//!    **loop-carried edges**: for every ordered op pair `(a, b)`,
//!    `dependence_gap(a, b)` also constrains `a` of iteration `k`
//!    against `b` of iteration `k+1` at distance one. `MII` is the max
//!    of the two (plus the structural floor the branch placement
//!    needs).
//! 2. **Iterative scheduling.** At each candidate `II` (from `MII` up
//!    to the last `II` that can still pass the benefit test), ops are
//!    placed in critical-path priority order into a modulo reservation
//!    table; every placement respects both the same-iteration and the
//!    distance-one constraints against all already-placed ops. A failed
//!    placement bumps `II` and retries.
//! 3. **Lifetimes instead of renaming.** Patmos has no rotating
//!    registers, and after allocation no scratch registers either.
//!    Because *anti* and *output* dependences participate in the
//!    distance-one edges, every value's lifetime is provably bounded
//!    by `II` — iteration `k+1`'s redefinition cannot overtake
//!    iteration `k`'s last use — so the kernel needs no modulo
//!    variable expansion and no register renaming at all. (The cost:
//!    a long-lived value raises `II` rather than the register count —
//!    the right trade on a machine without rotating files.)
//! 4. **Code shape.** The loop becomes:
//!
//!    ```text
//!    .pipeloop head kernel fallback …         ; structured shape record
//!           cmpi<lt> pd = vi, K-(S-1)*step   ; guard: at least S trips?
//!           (!pd) br fallback                 ; else: run the plain loop
//!           …prologue…                        ; stages 0..S-2 fill
//!    .loopbound 1 max-S
//!    kernel:
//!           …II bundles…                      ; steady state, S stages deep
//!           (pd)  br kernel                   ; at row II-3: its two delay
//!                                             ; slots are the last rows
//!           …epilogue…                        ; stages 1..S-1 drain
//!           br exit
//!    .loopbound 1 max
//!    fallback:                                ; the original loop, list-
//!           …                                 ; scheduled (also runs the
//!    ```                                      ; guard-rejected cases)
//!
//!    The kernel's compare tests `vi < K - step` — one iteration of
//!    lookahead — so the back branch decides whether a *new* iteration
//!    may start while `S-1` older ones are still in flight; the guard
//!    proves the prologue's unconditional iteration starts exist. The
//!    fallback loop keeps the exact original semantics for short trip
//!    counts, including zero.
//!
//! Everything here reads the dependence *structure* plus the loop's
//! literal bound and step; reading literals is not shape-stable, so
//! single-path compilations never enable the pipeliner
//! ([`crate::SchedOptions::pipeline`] stays off).

use patmos_isa::{AluOp, Guard, Op, Reg, ALLOC_POOL};
use patmos_lir::plir::{CountedLoop, Item, LirInst, LirOp, LoopBoundSrc};

use crate::dag::{dependence_gap, out_gap, Func, LiveSet};
use crate::list;
use crate::{LoopReport, SchedBundle, SchedItem, SchedReport};

/// Candidate initiation intervals are searched up to this bound; a
/// partially unrolled body's memory chain alone can push `II` past 30.
const MAX_II: u32 = 48;
/// Deepest overlap considered. More stages buy little once the kernel
/// is saturated and cost prologue/epilogue code size linearly.
const MAX_STAGES: u32 = 4;
/// The `cmpi` immediate is 11-bit signed; adjusted bounds must fit.
const CMPI_IMM_RANGE: std::ops::RangeInclusive<i64> = -1024..=1023;

/// A pipelined loop, ready for emission.
pub(crate) struct Pipelined {
    /// The full item stream replacing the header and body blocks.
    pub(crate) items: Vec<SchedItem>,
    /// The per-loop report line.
    pub(crate) report: LoopReport,
    /// Bundles emitted (for the block report).
    pub(crate) bundles: usize,
    /// Bundles with a filled second slot.
    pub(crate) paired: usize,
}

/// One scheduled op: its absolute schedule time within an iteration
/// and the issue slot it reserves.
#[derive(Clone, Copy)]
struct Placed {
    t: u32,
    slot: usize,
}

/// Breaks allocator-induced false dependences inside the loop: every
/// unconditional definition of a register that is provably *loop
/// local* — dead at the loop's entry, body entry and exit, so its
/// whole live range sits inside one iteration — gets a fresh register
/// from `pool` (the allocator's unused registers), and the uses it
/// reaches follow. Without this, the linear-scan allocator's
/// aggressive reuse chains unrelated values through one register and
/// the resulting anti dependences force `II` up to the full iteration
/// span (no overlap). Runs out of fresh registers gracefully: later
/// definitions simply keep their current name, constraining `II`
/// instead of blocking pipelining.
///
/// With `reuse_aware` set, the pass trusts the allocator's actual
/// assignments instead of assuming worst-case reuse: only registers
/// opening *two or more* live ranges in the iteration (genuine reuse
/// chaining unrelated values) are renamed; a register carrying a
/// single range already is a dedicated name, renaming it would only
/// relabel the same dependence structure. Under the loop-aware
/// allocation policy, which round-robins iteration-local temporaries
/// over distinct registers, this shrinks the pass to (near) nothing.
///
/// Returns the number of definitions renamed to a fresh register.
fn rename_loop_temporaries(
    ops: &mut [LirInst],
    boundary_live: LiveSet,
    mut pool: Vec<Reg>,
    reuse_aware: bool,
) -> usize {
    // A register is renameable when its every definition here is
    // unconditional and it is dead at every loop boundary.
    let mut renameable = [false; 32];
    for r in ALLOC_POOL {
        renameable[r as usize] = !boundary_live.has_reg(Reg::from_index(r));
    }
    for op in ops.iter() {
        if let Some(d) = op.op.def() {
            if !op.guard.is_always() {
                renameable[d.index() as usize] = false;
            }
        }
    }

    // Range-opening definitions per register: a def that does not read
    // its own register starts a new value; two or more openings mean
    // the allocator reused the register for unrelated values.
    if reuse_aware {
        let mut openings = [0u32; 32];
        for inst in ops.iter() {
            if let Some(d) = inst.op.def() {
                if !inst.op.uses().into_iter().flatten().any(|u| u == d) {
                    openings[d.index() as usize] += 1;
                }
            }
        }
        for r in ALLOC_POOL {
            if openings[r as usize] < 2 {
                renameable[r as usize] = false;
            }
        }
    }

    let mut renamed = 0usize;
    let mut map: [Reg; 32] = std::array::from_fn(|i| Reg::from_index(i as u8));
    for inst in ops.iter_mut() {
        // Original def name and whether the op also reads it (an
        // update like `lih rd = …` or `add r = r, c` continues its
        // range rather than opening a new one).
        let orig_def = inst.op.def();
        let reads_own_def =
            orig_def.is_some_and(|d| inst.op.uses().into_iter().flatten().any(|u| u == d));
        inst.op.map_uses(|r| map[r.index() as usize]);
        let Some(orig) = orig_def else { continue };
        if !renameable[orig.index() as usize] {
            continue;
        }
        if !reads_own_def {
            if let Some(fresh) = pool.pop() {
                map[orig.index() as usize] = fresh;
                renamed += 1;
            }
            // Pool exhausted: the def keeps its current mapping.
        }
        inst.op.set_def(map[orig.index() as usize]);
    }
    renamed
}

/// The `.loopbound` annotation among a block's head items.
fn head_bound(head: &[Item]) -> Option<(u32, u32)> {
    head.iter().find_map(|item| match item {
        Item::LoopBound { min, max } => Some((*min, *max)),
        _ => None,
    })
}

fn nop() -> LirInst {
    LirInst::always(LirOp::Real(Op::Nop))
}

/// Tries to software-pipeline the loop whose header is block `h` (body
/// block `h + 1`). Returns `None` when the shape does not match, no
/// feasible `II` exists, or pipelining would not beat the plain
/// list-scheduled loop. Once the loop is recognised as counted, every
/// `None` comes with exactly one missed remark in `report`, which also
/// accumulates the search effort.
pub(crate) fn try_pipeline(
    func: &Func,
    h: usize,
    dual_issue: bool,
    reuse_renaming: bool,
    live_in: &[LiveSet],
    report: &mut SchedReport,
) -> Option<Pipelined> {
    // ---- shape ----
    if h == 0 || h + 1 >= func.blocks.len() {
        return None;
    }
    let hb = &func.blocks[h];
    let bb = &func.blocks[h + 1];
    if hb.labels.len() != 1 || !hb.has_loop_bound {
        return None;
    }
    let label = hb.labels[0].clone();
    let refuse = |report: &mut SchedReport, message: String| {
        report.remarks.push(patmos_lir::Remark {
            pass: "modulo-sched",
            function: func.name.clone(),
            site: Some(label.clone()),
            applied: false,
            message,
        });
    };
    let (min_ann, max_ann) = head_bound(&hb.head)?;
    let hterm = hb.term.as_ref()?;
    let bterm = bb.term.as_ref()?;
    let LirOp::BrLabel(exit_label) = &hterm.op else {
        return None;
    };
    let LirOp::BrLabel(back_label) = &bterm.op else {
        return None;
    };
    if back_label != &label || !bb.labels.is_empty() || bb.has_loop_bound {
        return None;
    }
    if func.label_refs(&label) != 1 || func.block_of_label(exit_label).is_none() {
        return None;
    }
    let cl = match CountedLoop::recognize(&hb.insts, hterm, &bb.insts, bterm) {
        Some(cl) => cl,
        None => {
            refuse(report, "not a recognisable counted loop".into());
            return None;
        }
    };

    // Registers live at any loop boundary must keep their names; the
    // rest are iteration-local temporaries the renamer may spread over
    // the allocator's unused registers.
    let exit_block = func.block_of_label(exit_label).expect("checked above");
    let mut boundary_live = live_in[h];
    boundary_live.regs |= live_in[h + 1].regs | live_in[exit_block].regs;
    boundary_live.preds |= live_in[h + 1].preds | live_in[exit_block].preds;
    let mut used = [false; 32];
    for inst in hb.insts.iter().chain(bb.insts.iter()) {
        for r in inst.op.uses().into_iter().flatten().chain(inst.op.def()) {
            used[r.index() as usize] = true;
        }
    }
    let mut pool: Vec<Reg> = ALLOC_POOL
        .filter(|&r| !used[r as usize] && !boundary_live.has_reg(Reg::from_index(r)))
        .map(Reg::from_index)
        .collect();

    // ---- one iteration's ops ----
    // The kernel compare is the header compare with one iteration of
    // lookahead folded in: `vi < K - step` now means "the *next*
    // iteration exists". It reads pre-increment `vi`, so it keeps the
    // header's program-order position: first. A literal bound adjusts
    // in the immediate; a register bound reads a spare register the
    // guard block computes once (`kb2 = K - step`, and `kb1 =
    // K - (S-1)*step` for the guard test itself).
    let bound_regs = match cl.bound {
        LoopBoundSrc::Imm(k) => {
            let lookahead = k as i64 - cl.step as i64;
            if !CMPI_IMM_RANGE.contains(&lookahead) {
                refuse(
                    report,
                    format!("lookahead bound {lookahead} does not fit the cmpi immediate"),
                );
                return None;
            }
            None
        }
        LoopBoundSrc::Reg(k) => {
            if pool.len() < 2 || cl.step > 2047 {
                refuse(
                    report,
                    format!("no spare bound registers (pool {})", pool.len()),
                );
                return None;
            }
            let kb2 = pool.remove(0);
            let kb1 = pool.remove(0);
            Some((k, kb1, kb2))
        }
    };
    let kern_cmp = match (cl.bound, bound_regs) {
        (LoopBoundSrc::Imm(k), _) => Op::CmpI {
            op: cl.cmp_op,
            pd: cl.pd,
            rs1: cl.vi,
            imm: (k as i64 - cl.step as i64) as i16,
        },
        (LoopBoundSrc::Reg(_), Some((_, _, kb2))) => Op::Cmp {
            op: cl.cmp_op,
            pd: cl.pd,
            rs1: cl.vi,
            rs2: kb2,
        },
        (LoopBoundSrc::Reg(_), None) => unreachable!("reserved above"),
    };
    let mut ops: Vec<LirInst> = Vec::with_capacity(bb.insts.len() + 1);
    ops.push(LirInst::always(LirOp::Real(kern_cmp)));
    ops.extend(bb.insts.iter().cloned());
    let n = ops.len();
    let cmp_idx = 0usize;
    let slots = if dual_issue { 2usize } else { 1 };
    let slot1_only = |op: &LirInst| !op.op.allowed_in_second_slot() || op.op.is_long();

    // ---- resource MII: the cheapest refusal, before any O(n²) work ----
    let n_slot1: u32 = ops.iter().filter(|o| slot1_only(o)).count() as u32;
    let width: u32 = ops.iter().map(|o| if o.op.is_long() { 2 } else { 1 }).sum();
    let res_mii = (n_slot1 + 1).max(width.div_ceil(slots as u32) + 1);
    if res_mii > MAX_II {
        refuse(
            report,
            format!("resource MII {res_mii} exceeds the largest II searched ({MAX_II})"),
        );
        return None;
    }

    let renamed = rename_loop_temporaries(&mut ops, boundary_live, pool, reuse_renaming);

    // ---- dependence relations ----
    // gap(i, j) (i < j): minimum gap within one iteration.
    // gap(i, j) (any i, j): minimum gap from op i of iteration k to op
    // j of iteration k+1 — every dependence class becomes a
    // loop-carried edge, which is what bounds lifetimes to II.
    let gaps = Gaps::new(&ops);
    let gap = |a: usize, b: usize| gaps.get(a, b);

    // ---- MII ----
    let mut rec_mii = 0u32;
    for i in 0..n {
        if let Some(g) = gap(i, i) {
            rec_mii = rec_mii.max(g);
        }
        for j in i + 1..n {
            if let (Some(g0), Some(g1)) = (gap(i, j), gap(j, i)) {
                rec_mii = rec_mii.max(g0 + g1);
            }
        }
    }
    // Structural floor: the back branch sits at row II-3 (its two
    // delay slots are the last rows) and the compare needs an earlier
    // row of stage 0.
    let mii = res_mii.max(rec_mii).max(4);

    // ---- the last paying II ----
    // The plain per-iteration cost the pipeline has to beat, at the
    // annotated worst-case trip count. No II above the last one whose
    // one-stage estimate passes can pay, so the search stops there.
    let baseline = list::schedule_block(&hb.insts, Some(hterm), dual_issue)
        .bundles
        .len()
        + list::schedule_block(&bb.insts, Some(bterm), dual_issue)
            .bundles
            .len();
    let (trips, baseline) = (max_ann.saturating_sub(1) as i64, baseline as i64);
    let last = last_paying_ii(trips, baseline);
    let hi = last.min(MAX_II);
    if mii > hi {
        let message = if mii > last {
            let (pipelined, plain) = benefit_estimate(trips, baseline, mii, 1);
            let last = match last {
                0 => "no II pays".to_string(),
                ii => format!("the last paying II is {ii}"),
            };
            format!(
                "MII {mii}, but {last}: one stage at II {mii} is estimated at {pipelined} \
                 cycles pipelined, not below 90% of {plain} plain over {trips} worst-case trips"
            )
        } else {
            format!("MII {mii} (recurrence {rec_mii}) exceeds the largest II searched ({MAX_II})")
        };
        refuse(report, message);
        return None;
    }

    // Critical-path priority over the same-iteration DAG.
    let mut height: Vec<u32> = ops.iter().map(|o| out_gap(o).max(1)).collect();
    for i in (0..n).rev() {
        for j in i + 1..n {
            if let Some(g) = gap(i, j) {
                height[i] = height[i].max(g + height[j]);
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(height[i]), i));

    // ---- iterative scheduling (Rau's IMS) ----
    // At each candidate II, ops are placed at their earliest legal
    // time; a placement that conflicts — on a reservation slot or on a
    // dependence window — evicts the offender back into the worklist,
    // and re-placing an op at or before its previous time bumps it one
    // later (Rau's progress rule). A fixed budget of placements bounds
    // the backtracking. Critical-path priority fills resources best,
    // but it is blind to loop-carried recurrences; program order
    // follows them naturally — try both before bumping II.
    let program_order: Vec<usize> = (0..n).collect();
    'next_ii: for ii in mii..=hi {
        report.ii_tried += 1;
        let steps = &mut report.placements;
        let times = match [&order, &program_order]
            .into_iter()
            .find_map(|ord| place_all(&ops, &gaps, ord, ii, slots, cmp_idx, steps))
        {
            Some(times) => times,
            None => continue 'next_ii,
        };
        let span = times.iter().map(|p| p.t).max().unwrap_or(0);
        // A single stage is the degenerate-but-useful case: header and
        // body merge into one rotated block, the back branch's delay
        // slots carry iteration work, and the guard reduces to the
        // original entry test.
        let stages = span / ii + 1;
        if stages > MAX_STAGES {
            continue 'next_ii;
        }
        let adjust = (stages as i64 - 1) * cl.step as i64;
        match cl.bound {
            LoopBoundSrc::Imm(k) => {
                if !CMPI_IMM_RANGE.contains(&(k as i64 - adjust)) {
                    continue 'next_ii;
                }
            }
            // The guard's `addi` must encode the adjustment.
            LoopBoundSrc::Reg(_) => {
                if adjust > 2047 {
                    continue 'next_ii;
                }
            }
        }

        // ---- benefit ----
        if trips < stages as i64 + 1 {
            refuse(
                report,
                format!("worst-case trip count {trips} cannot fill {stages} stage(s)"),
            );
            return None;
        }
        let (pipelined, plain) = benefit_estimate(trips, baseline, ii, stages);
        if !pays((pipelined, plain)) {
            refuse(
                report,
                format!(
                    "no benefit at II {ii}: {stages} stage(s), estimated {pipelined} cycles \
                     pipelined vs {plain} plain over {trips} worst-case trips"
                ),
            );
            return None;
        }

        let mut p = emit(
            func, h, &cl, bound_regs, &label, exit_label, &ops, &times, ii, stages, mii, min_ann,
            max_ann, dual_issue,
        );
        p.report.renamed = renamed;
        return Some(p);
    }
    refuse(report, format!("no feasible schedule at II {mii}..={hi}"));
    None
}

/// The benefit estimate at the annotated worst-case trip count:
/// `(pipelined, plain)` cycles for a kernel of `stages` stages at `ii`
/// against a plain loop of `baseline` bundles per iteration. The kernel
/// must win back the guard, the fill/drain ramps, the exit detour, *and*
/// the cold method-cache fill of the grown code (prologue, epilogue and
/// the fallback copy).
fn benefit_estimate(trips: i64, baseline: i64, ii: u32, stages: u32) -> (i64, i64) {
    let (ii, s) = (ii as i64, stages as i64);
    let ramp = 2 * (s - 1) * ii;
    let code_growth = (ramp + baseline + 12) * 3 / 2;
    let pipelined = 4 + ramp + (trips - s + 1) * ii + 6 + code_growth;
    let plain = trips * baseline + 3;
    (pipelined, plain)
}

/// Whether an estimate passes the benefit test: a 10% margin, because
/// everything here is an estimate and a marginal pipeline is not worth
/// the code.
fn pays((pipelined, plain): (i64, i64)) -> bool {
    pipelined * 10 < plain * 9
}

/// The largest II whose one-stage estimate still passes the benefit
/// test, or 0 when none does. With `s` stages the estimate is exactly
/// `4·(s−1)·II` above the one-stage value, and the one-stage value grows
/// by `trips` per unit of II, so no schedule at a larger II can pay.
fn last_paying_ii(trips: i64, baseline: i64) -> u32 {
    // pays(ii) ⟺ 10·(at_zero + trips·ii) < 9·plain ⟺ 10·trips·ii < slack.
    // With no trips, plain is 3 cycles and the slack is negative.
    let (at_zero, plain) = benefit_estimate(trips, baseline, 0, 1);
    let slack = 9 * plain - 10 * at_zero;
    if slack <= 0 {
        return 0;
    }
    u32::try_from((slack - 1) / (10 * trips)).unwrap_or(u32::MAX)
}

/// `dependence_gap` between every ordered pair of one iteration's ops,
/// computed once per loop and shared by the MII, the priorities, every
/// II and placement order, and the re-verification.
struct Gaps {
    n: usize,
    gap: Vec<Option<u32>>,
}

impl Gaps {
    fn new(ops: &[LirInst]) -> Gaps {
        let n = ops.len();
        let gap = (ops.iter())
            .flat_map(|a| ops.iter().map(move |b| dependence_gap(a, b)))
            .collect();
        Gaps { n, gap }
    }

    fn get(&self, a: usize, b: usize) -> Option<u32> {
        self.gap[a * self.n + b]
    }
}

/// Places every op at a legal `(time, slot)` for the given `II` and
/// placement order, or gives up within a bounded number of evictions.
/// The returned schedule satisfies every same-iteration and
/// distance-one constraint (re-verified exhaustively before
/// returning).
fn place_all(
    ops: &[LirInst],
    gaps: &Gaps,
    order: &[usize],
    ii: u32,
    slots: usize,
    cmp_idx: usize,
    steps: &mut u64,
) -> Option<Vec<Placed>> {
    let n = ops.len();
    let gap = |a: usize, b: usize| gaps.get(a, b);
    let slot1_only = |op: &LirInst| !op.op.allowed_in_second_slot() || op.op.is_long();
    let br_row = ii - 1 - patmos_isa::timing::BRANCH_DELAY_COND;
    let horizon = (MAX_STAGES * ii - 1) as i64;

    let mut table: Vec<Vec<Option<usize>>> = vec![vec![None; slots]; ii as usize];
    let mut placed: Vec<Option<Placed>> = vec![None; n];
    let mut prev_time: Vec<Option<i64>> = vec![None; n];
    let mut budget = 16 * n as i64;

    let clear = |table: &mut Vec<Vec<Option<usize>>>, idx: usize| {
        for row in table.iter_mut() {
            for s in row.iter_mut() {
                if *s == Some(idx) {
                    *s = None;
                }
            }
        }
    };

    // Highest-priority unplaced op each round.
    while let Some(&idx) = order.iter().find(|&&i| placed[i].is_none()) {
        *steps += 1;
        budget -= 1;
        if budget < 0 {
            return None;
        }
        // Earliest start from every placed op, in both dependence
        // classes (lower bounds only; upper bounds are enforced by
        // eviction after the fact).
        let mut lo: i64 = 0;
        for (x, px) in placed.iter().enumerate() {
            let Some(px) = px else { continue };
            let (tx, t) = (px.t as i64, ii as i64);
            if x < idx {
                if let Some(g) = gap(x, idx) {
                    lo = lo.max(tx + g as i64);
                }
            }
            if let Some(g) = gap(x, idx) {
                lo = lo.max(tx + g as i64 - t);
            }
        }
        if let Some(pt) = prev_time[idx] {
            if lo <= pt {
                lo = pt + 1;
            }
        }
        let hard_hi: i64 = if idx == cmp_idx {
            // Stage 0, strictly before the branch row, with room for
            // the predicate RAW gap into the branch.
            (br_row - 1) as i64
        } else {
            horizon
        };
        if lo > hard_hi {
            return None;
        }
        let long = ops[idx].op.is_long();
        let needs_slot1 = slot1_only(&ops[idx]);
        // First choice: a resource-free row within one II of the
        // earliest start.
        let mut chosen: Option<Placed> = None;
        't: for t in lo..=(lo + ii as i64 - 1).min(hard_hi) {
            let row = (t % ii as i64) as usize;
            if row as u32 == br_row {
                continue;
            }
            if table[row][0].is_none() {
                if long && !table[row].iter().all(Option::is_none) {
                    continue;
                }
                chosen = Some(Placed {
                    t: t as u32,
                    slot: 0,
                });
                break 't;
            }
            if !long
                && !needs_slot1
                && slots == 2
                && table[row][1].is_none()
                && !ops[table[row][0].expect("occupied")].op.is_long()
            {
                chosen = Some(Placed {
                    t: t as u32,
                    slot: 1,
                });
                break 't;
            }
        }
        // Forced placement at the earliest start: evict whatever holds
        // the slot.
        let p = chosen.unwrap_or_else(|| {
            let mut t = lo;
            if (t % ii as i64) as u32 == br_row {
                t += 1;
            }
            Placed {
                t: t as u32,
                slot: 0,
            }
        });
        if p.t as i64 > hard_hi {
            return None;
        }
        let row = (p.t % ii) as usize;
        // Evict resource conflicts.
        let occupants: Vec<usize> = table[row].iter().flatten().copied().collect();
        for x in occupants {
            let conflict = if long {
                true
            } else {
                table[row][p.slot] == Some(x) || ops[x].op.is_long()
            };
            if conflict {
                clear(&mut table, x);
                placed[x] = None;
            }
        }
        table[row][p.slot] = Some(idx);
        if long {
            for s in table[row].iter_mut().skip(1) {
                *s = Some(idx);
            }
        }
        placed[idx] = Some(p);
        prev_time[idx] = Some(p.t as i64);
        // Evict dependence-window violations against the new
        // placement, in both classes and directions.
        let ti = p.t as i64;
        let mut dep_evict: Vec<usize> = Vec::new();
        for (x, px) in placed.iter().enumerate() {
            if x == idx {
                continue;
            }
            let Some(px) = px else { continue };
            let (tx, t) = (px.t as i64, ii as i64);
            let mut bad = false;
            if x < idx {
                if let Some(g) = gap(x, idx) {
                    bad |= ti - tx < g as i64;
                }
            } else if let Some(g) = gap(idx, x) {
                bad |= tx - ti < g as i64;
            }
            if let Some(g) = gap(x, idx) {
                bad |= ti + t - tx < g as i64;
            }
            if let Some(g) = gap(idx, x) {
                bad |= tx + t - ti < g as i64;
            }
            if bad {
                dep_evict.push(x);
            }
        }
        for x in dep_evict {
            clear(&mut table, x);
            placed[x] = None;
        }
    }

    // All placed: re-verify every constraint exhaustively (belt and
    // braces — placement already enforced them pairwise).
    let times: Vec<Placed> = placed.iter().map(|&p| p.expect("all placed")).collect();
    for i in 0..n {
        for j in 0..n {
            let (ti, tj) = (times[i].t as i64, times[j].t as i64);
            if i < j {
                if let Some(g) = gap(i, j) {
                    if tj - ti < g as i64 {
                        return None;
                    }
                }
            }
            if let Some(g) = gap(i, j) {
                if tj + ii as i64 - ti < g as i64 {
                    return None;
                }
            }
        }
    }
    Some(times)
}

/// Builds the replacement item stream for a scheduled loop.
#[allow(clippy::too_many_arguments)]
fn emit(
    func: &Func,
    h: usize,
    cl: &CountedLoop,
    bound_regs: Option<(Reg, Reg, Reg)>,
    label: &str,
    exit_label: &str,
    ops: &[LirInst],
    times: &[Placed],
    ii: u32,
    stages: u32,
    mii: u32,
    min_ann: u32,
    max_ann: u32,
    dual_issue: bool,
) -> Pipelined {
    let hb = &func.blocks[h];
    let bb = &func.blocks[h + 1];
    let kern_label = format!("{label}_mk");
    let fb_label = format!("{label}_mf");
    let br_row = ii - 1 - patmos_isa::timing::BRANCH_DELAY_COND;
    let n = ops.len();
    let row_of = |i: usize| times[i].t % ii;
    let stage_of = |i: usize| times[i].t / ii;

    let mut items: Vec<SchedItem> = Vec::new();
    let mut bundles = 0usize;
    let mut paired = 0usize;
    let mut push_bundle = |items: &mut Vec<SchedItem>, first: LirInst, second: Option<LirInst>| {
        bundles += 1;
        if second.is_some() {
            paired += 1;
        }
        items.push(SchedItem::Bundle(SchedBundle { first, second }));
    };

    // Original head markers minus the `.loopbound` (fresh bounds are
    // attached to the kernel and fallback loops below).
    for item in &hb.head {
        if let Item::Label(l) = item {
            items.push(SchedItem::Label(l.clone()));
        }
    }
    // The `.pipeloop` record lands here, once the prologue/epilogue
    // bundle counts are known.
    let pipeinfo_at = items.len();

    // Guard: enough trips for the prologue's unconditional starts?
    let guard_cmp = match (cl.bound, bound_regs) {
        (LoopBoundSrc::Imm(k), _) => Op::CmpI {
            op: cl.cmp_op,
            pd: cl.pd,
            rs1: cl.vi,
            imm: (k as i64 - (stages as i64 - 1) * cl.step as i64) as i16,
        },
        (LoopBoundSrc::Reg(_), Some((k, kb1, kb2))) => {
            // The adjusted bounds are computed once, into spare
            // registers: `kb2` feeds the kernel's lookahead compare,
            // `kb1` the guard (when any prologue exists).
            push_bundle(
                &mut items,
                LirInst::always(LirOp::Real(Op::AluI {
                    op: AluOp::Add,
                    rd: kb2,
                    rs1: k,
                    imm: (-(cl.step as i64)) as i16,
                })),
                None,
            );
            let guard_src = if stages > 1 {
                push_bundle(
                    &mut items,
                    LirInst::always(LirOp::Real(Op::AluI {
                        op: AluOp::Add,
                        rd: kb1,
                        rs1: k,
                        imm: (-((stages as i64 - 1) * cl.step as i64)) as i16,
                    })),
                    None,
                );
                kb1
            } else {
                k
            };
            Op::Cmp {
                op: cl.cmp_op,
                pd: cl.pd,
                rs1: cl.vi,
                rs2: guard_src,
            }
        }
        (LoopBoundSrc::Reg(_), None) => unreachable!("reserved by the caller"),
    };
    push_bundle(&mut items, LirInst::always(LirOp::Real(guard_cmp)), None);
    push_bundle(
        &mut items,
        LirInst::new(Guard::unless(cl.pd), LirOp::BrLabel(fb_label.clone())),
        None,
    );
    for _ in 0..patmos_isa::timing::BRANCH_DELAY_COND {
        push_bundle(&mut items, nop(), None);
    }

    // One emitted row: the ops reserved at `row` whose stage passes
    // `keep`, in slot order.
    let row_bundle = |row: u32, keep: &dyn Fn(u32) -> bool| -> (LirInst, Option<LirInst>) {
        let mut first: Option<LirInst> = None;
        let mut second: Option<LirInst> = None;
        for (i, op) in ops.iter().enumerate().take(n) {
            if row_of(i) != row || !keep(stage_of(i)) {
                continue;
            }
            if times[i].slot == 0 {
                first = Some(op.clone());
            } else {
                second = Some(op.clone());
            }
        }
        match (first, second) {
            (Some(f), s) => (f, s),
            (None, Some(s)) => (s, None),
            (None, None) => (nop(), None),
        }
    };

    // Prologue: absolute cycles 0 .. (S-1)*II — round p runs the ops
    // whose stage has already started (stage ≤ p).
    let prologue_len = ((stages - 1) * ii) as usize;
    for c in 0..prologue_len as u32 {
        let (round, row) = (c / ii, c % ii);
        let (f, s) = row_bundle(row, &|stage| stage <= round);
        push_bundle(&mut items, f, s);
    }

    // Kernel: II rows, every stage live, the back branch at its fixed
    // row with the last two rows as its delay slots.
    items.push(SchedItem::LoopBound {
        min: 1,
        max: max_ann.saturating_sub(stages).max(1),
    });
    items.push(SchedItem::Label(kern_label.clone()));
    for row in 0..ii {
        if row == br_row {
            push_bundle(
                &mut items,
                LirInst::new(Guard::when(cl.pd), LirOp::BrLabel(kern_label.clone())),
                None,
            );
        } else {
            let (f, s) = row_bundle(row, &|_| true);
            push_bundle(&mut items, f, s);
        }
    }
    let kernel_len = ii as usize;

    // Epilogue: rounds 1..S-1 drain the stages still in flight, then
    // padding lets every trailing visible delay elapse before the exit
    // branch.
    let mut epilogue_len = 0usize;
    for e in 1..stages {
        for row in 0..ii {
            let (f, s) = row_bundle(row, &|stage| stage >= e);
            push_bundle(&mut items, f, s);
            epilogue_len += 1;
        }
    }
    let needed = (0..n)
        .filter(|&i| stage_of(i) >= 1)
        .map(|i| ((stage_of(i) - 1) * ii + row_of(i) + out_gap(&ops[i])) as usize)
        .max()
        .unwrap_or(0);
    while epilogue_len < needed {
        push_bundle(&mut items, nop(), None);
        epilogue_len += 1;
    }
    push_bundle(
        &mut items,
        LirInst::always(LirOp::BrLabel(exit_label.to_string())),
        None,
    );
    for _ in 0..patmos_isa::timing::BRANCH_DELAY_UNCOND {
        push_bundle(&mut items, nop(), None);
    }

    // Fallback: the original loop, relabelled and list-scheduled — it
    // runs the short-trip cases the guard rejects.
    items.push(SchedItem::LoopBound {
        min: 1,
        max: max_ann,
    });
    items.push(SchedItem::Label(fb_label.clone()));
    let head_sched = list::schedule_block(&hb.insts, Some(hterm_for(func, h)), dual_issue);
    for (f, s) in head_sched.bundles {
        push_bundle(&mut items, f, s);
    }
    let fb_back = LirInst::always(LirOp::BrLabel(fb_label));
    let body_sched = list::schedule_block(&bb.insts, Some(&fb_back), dual_issue);
    for (f, s) in body_sched.bundles {
        push_bundle(&mut items, f, s);
    }

    // The structured record the WCET analysis resolves: the guard
    // passes exactly when the loop runs at least `stages` trips, so
    // the fallback never executes its header more than `stages` times
    // per entry — and never at all when the `.loopbound` min already
    // proves that many trips.
    items.insert(
        pipeinfo_at,
        SchedItem::PipeLoop {
            guard: label.to_string(),
            kernel: kern_label.clone(),
            fallback: format!("{label}_mf"),
            ii,
            stages,
            prologue: prologue_len as u32,
            epilogue: epilogue_len as u32,
            threshold: stages,
            min_trips: min_ann.saturating_sub(1),
        },
    );

    let report = LoopReport {
        label: label.to_string(),
        ops: n,
        mii,
        ii,
        stages,
        prologue: prologue_len,
        kernel: kernel_len,
        epilogue: epilogue_len,
        renamed: 0, // filled in by the caller, which ran the renamer
    };
    Pipelined {
        items,
        report,
        bundles,
        paired,
    }
}

fn hterm_for(func: &Func, h: usize) -> &LirInst {
    func.blocks[h]
        .term
        .as_ref()
        .expect("header has a terminator")
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{AccessSize, AluOp, CmpOp, MemArea, Pred, Reg};
    use patmos_lir::plir::Module;

    fn alu(rd: u8, rs1: u8, rs2: u8) -> LirInst {
        LirInst::always(LirOp::Real(Op::AluR {
            op: AluOp::Add,
            rd: Reg::from_index(rd),
            rs1: Reg::from_index(rs1),
            rs2: Reg::from_index(rs2),
        }))
    }

    fn load(rd: u8, ra: u8) -> LirInst {
        LirInst::always(LirOp::Real(Op::Load {
            area: MemArea::Static,
            size: AccessSize::Word,
            rd: Reg::from_index(rd),
            ra: Reg::from_index(ra),
            offset: 0,
        }))
    }

    fn addi(rd: u8, rs1: u8, imm: i16) -> LirInst {
        LirInst::always(LirOp::Real(Op::AluI {
            op: AluOp::Add,
            rd: Reg::from_index(rd),
            rs1: Reg::from_index(rs1),
            imm,
        }))
    }

    /// A dot-product-shaped counted loop over physical LIR:
    /// `for (r7 = 0; r7 < 60; r7++) { r9 = mem[r8]; r10 += r9; r8 += 4 }`.
    fn counted_module(bound_max: u32) -> Module {
        Module {
            data_lines: Vec::new(),
            entry: "main".into(),
            items: vec![
                Item::FuncStart("main".into()),
                Item::Inst(alu(7, 0, 0)),
                Item::Inst(alu(8, 0, 0)),
                Item::Inst(alu(10, 0, 0)),
                Item::LoopBound {
                    min: 1,
                    max: bound_max,
                },
                Item::Label("main_head1".into()),
                Item::Inst(LirInst::always(LirOp::Real(Op::CmpI {
                    op: CmpOp::Lt,
                    pd: Pred::P6,
                    rs1: Reg::from_index(7),
                    imm: 60,
                }))),
                Item::Inst(LirInst::new(
                    Guard::unless(Pred::P6),
                    LirOp::BrLabel("main_exit2".into()),
                )),
                Item::Inst(load(9, 8)),
                Item::Inst(alu(10, 10, 9)),
                Item::Inst(addi(8, 8, 4)),
                Item::Inst(addi(7, 7, 1)),
                Item::Inst(LirInst::always(LirOp::BrLabel("main_head1".into()))),
                Item::Label("main_exit2".into()),
                Item::Inst(alu(1, 10, 0)),
                Item::Inst(LirInst::always(LirOp::Real(Op::Halt))),
            ],
        }
    }

    fn pipeline(module: &Module) -> Option<Pipelined> {
        let split = crate::dag::split_blocks(module);
        let func = &split.funcs[0];
        let live = crate::dag::live_in_sets(func);
        try_pipeline(func, 1, true, false, &live, &mut SchedReport::default())
    }

    #[test]
    fn counted_loop_pipelines_with_a_small_ii() {
        let p = pipeline(&counted_module(61)).expect("loop pipelines");
        assert!(p.report.ii >= p.report.mii);
        assert!(p.report.stages >= 1);
        // The kernel is exactly II bundles and beats the plain
        // per-iteration cost by construction of the benefit check.
        assert_eq!(p.report.kernel as u32, p.report.ii);
        // Exactly one conditional kernel branch, at row II-3.
        let kernel_at = p
            .items
            .iter()
            .position(|i| matches!(i, SchedItem::Label(l) if l == "main_head1_mk"))
            .expect("kernel label");
        let mut row = 0u32;
        for item in &p.items[kernel_at + 1..] {
            let SchedItem::Bundle(b) = item else { break };
            if matches!(&b.first.op, LirOp::BrLabel(l) if l == "main_head1_mk") {
                assert_eq!(row, p.report.ii - 3, "branch two rows before the end");
                assert!(!b.first.guard.is_always() && !b.first.guard.negate);
            }
            row += 1;
            if row == p.report.ii {
                break;
            }
        }
    }

    #[test]
    fn every_schedule_respects_loop_carried_gaps() {
        let p = pipeline(&counted_module(61)).expect("loop pipelines");
        // Walk the emitted bundle stream of the whole pipelined region
        // (guard + prologue + one kernel round + epilogue): between
        // any two bundles, the dependence gap of their ops must hold.
        let mut linear: Vec<(usize, LirInst)> = Vec::new();
        let mut pos = 0usize;
        let mut kernel_start: Option<usize> = None;
        for item in &p.items {
            match item {
                SchedItem::Label(l) if l.ends_with("_mk") => kernel_start = Some(pos),
                SchedItem::Label(l) if l.ends_with("_mf") => break,
                SchedItem::Bundle(b) => {
                    for op in [Some(&b.first), b.second.as_ref()].into_iter().flatten() {
                        if !matches!(op.op, LirOp::Real(Op::Nop)) && !op.op.is_flow() {
                            linear.push((pos, op.clone()));
                        }
                    }
                    pos += 1;
                }
                _ => {}
            }
        }
        for (ai, (pa, a)) in linear.iter().enumerate() {
            for (pb, b) in linear.iter().skip(ai + 1) {
                if pa == pb {
                    continue; // same bundle: reads see pre-state
                }
                if let Some(g) = dependence_gap(a, b) {
                    assert!(
                        pb - pa >= g as usize,
                        "gap {g} violated between {} @{pa} and {} @{pb}",
                        a.render(),
                        b.render()
                    );
                }
            }
        }
        // The kernel wraps: every op of round r+1 (the same bundles,
        // II later) must respect the gap from every op of round r.
        let ks = kernel_start.expect("kernel label present");
        let ii = p.report.ii as usize;
        let kernel: Vec<(usize, &LirInst)> = linear
            .iter()
            .filter(|(q, _)| *q >= ks && *q < ks + ii)
            .map(|(q, op)| (*q, op))
            .collect();
        for &(pa, a) in &kernel {
            for &(pb, b) in &kernel {
                if let Some(g) = dependence_gap(a, b) {
                    assert!(
                        pb + ii - pa >= g as usize,
                        "loop-carried gap {g} violated between {} @{pa} and {} @+{pb}",
                        a.render(),
                        b.render()
                    );
                }
            }
        }
    }

    #[test]
    fn short_annotated_trip_count_rejects_pipelining() {
        // One worst-case trip: the guard and exit detour can never pay
        // for themselves.
        assert!(pipeline(&counted_module(2)).is_none());
    }

    #[test]
    fn too_wide_a_body_is_refused_on_its_resource_mii() {
        // A hundred extra ALU ops: 105 ops per iteration need
        // ceil(105 / 2) + 1 = 54 rows, more than any II searched.
        let mut m = counted_module(61);
        let extra = (0..100).map(|k| Item::Inst(alu(11 + k % 10, 0, 0)));
        m.items.splice(11..11, extra);
        let split = crate::dag::split_blocks(&m);
        let func = &split.funcs[0];
        let live = crate::dag::live_in_sets(func);
        let mut report = SchedReport::default();
        assert!(try_pipeline(func, 1, true, false, &live, &mut report).is_none());
        assert_eq!(report.remarks.len(), 1, "{:?}", report.remarks);
        let remark = &report.remarks[0];
        assert!(!remark.applied);
        assert!(
            remark.message.contains("resource MII 54"),
            "{}",
            remark.message
        );
        assert_eq!(report.ii_tried, 0, "refused before any II is tried");
    }

    #[test]
    fn the_last_paying_ii_bounds_every_schedule_exactly() {
        for trips in 0..=128 {
            for baseline in 1..=96 {
                let one = |ii| benefit_estimate(trips, baseline, ii, 1);
                for ii in 1..=MAX_II {
                    // More stages never estimate below one stage...
                    for stages in 1..=MAX_STAGES {
                        let (pipelined, plain) = benefit_estimate(trips, baseline, ii, stages);
                        assert!(pipelined >= one(ii).0 && plain == one(ii).1);
                    }
                    // ...and one stage never gets cheaper as II grows.
                    assert!(one(ii + 1).0 >= one(ii).0);
                }
                let last = (1..=MAX_II).filter(|&ii| pays(one(ii))).max();
                assert_eq!(
                    last_paying_ii(trips, baseline).min(MAX_II),
                    last.unwrap_or(0),
                    "{trips} trips, baseline {baseline}"
                );
            }
        }
    }

    #[test]
    fn body_touching_the_exit_predicate_rejects_pipelining() {
        let mut m = counted_module(61);
        // Guard a body op with p6.
        m.items[8] = Item::Inst(LirInst::new(
            Guard::when(Pred::P6),
            LirOp::Real(Op::AluR {
                op: AluOp::Add,
                rd: Reg::from_index(9),
                rs1: Reg::from_index(9),
                rs2: Reg::from_index(9),
            }),
        ));
        assert!(pipeline(&m).is_none());
    }

    #[test]
    fn register_bound_pipelines_via_spare_bound_registers() {
        let mut m = counted_module(61);
        // Swap the header compare for a register bound held in r11,
        // initialised before the loop.
        m.items[6] = Item::Inst(LirInst::always(LirOp::Real(Op::Cmp {
            op: CmpOp::Lt,
            pd: Pred::P6,
            rs1: Reg::from_index(7),
            rs2: Reg::from_index(11),
        })));
        m.items.insert(
            4,
            Item::Inst(LirInst::always(LirOp::Real(Op::LoadImmLow {
                rd: Reg::from_index(11),
                imm: 60,
            }))),
        );
        let p = pipeline(&m).expect("register-bound loop pipelines");
        // The guard block computes the adjusted bounds once: at least
        // the kernel's lookahead bound `K - step`.
        let adjusts = p
            .items
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    SchedItem::Bundle(b) if matches!(
                        b.first.op,
                        LirOp::Real(Op::AluI { op: AluOp::Add, imm, .. }) if imm < 0
                    )
                )
            })
            .count();
        assert!(adjusts >= 1, "guard computes K - step into a spare reg");
        // The kernel compare reads a register bound.
        assert!(p.items.iter().any(|i| matches!(
            i,
            SchedItem::Bundle(b) if matches!(b.first.op, LirOp::Real(Op::Cmp { .. }))
                || b.second.as_ref().is_some_and(
                    |s| matches!(s.op, LirOp::Real(Op::Cmp { .. })))
        )));
    }
}
