//! Latency-weighted critical-path list scheduling over one basic
//! block, dual-issue packing, and delay-slot filling.
//!
//! A block's dependence DAG is built once, from one [`DepSummary`] per
//! op, into flat successor arrays. Scheduling then costs about one
//! step per edge: each op keeps a count of its unplaced predecessors
//! and the earliest bundle their gaps allow, and placing an op releases
//! its successors into the candidate set (Gibbons & Muchnick's list
//! scheduler). Slot one's op is released before the second slot is
//! chosen, so a successor behind a zero-gap edge (a WAR) may share its
//! bundle.
//!
//! The terminator of a block is handled in one of three ways:
//!
//! * **no terminator** (fall-through into the next label): the body is
//!   scheduled and the block is padded so any trailing visible-delay
//!   residue (load results, `mul` results) elapses before the next
//!   block's first bundle;
//! * **barrier flow** (`call`, `ret`, `halt`, indirect transfers):
//!   every body operation issues strictly before the terminator, whose
//!   delay slots are emitted as `nop`s — nothing may move across a
//!   call boundary;
//! * **branch** (`br label`, conditional or not): the branch is pulled
//!   *forward* so that up to `D` already-scheduled trailing bundles of
//!   the body land in its `D`-bundle shadow. Those operations sat
//!   before the branch in program order, so they execute on both the
//!   taken and the fall-through path either way — only their issue
//!   time changes. The branch is never paired, and a placement is
//!   legal only if every operation's visible-delay residue still
//!   completes by the end of the block, on both paths.
//!
//! Shadow bundles that remain empty after the shift are recorded so
//! the driver can try to hoist operations from a safe successor into
//! them (see [`hoist_into_shadow`]).

use patmos_asm::AsmInst;
use patmos_isa::{Inst, Op};

use crate::dag::{branch_label, dependence_gap, out_gap, DepSummary, LiveSet};

/// A scheduled block: final bundles plus the facts the driver and the
/// report need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSchedule {
    /// The issue sequence; `(nop, None)` bundles are real issued nops.
    pub bundles: Vec<(AsmInst, Option<AsmInst>)>,
    /// Bundle index of the terminator, if the block has one.
    pub term_at: Option<usize>,
    /// Architectural delay slots of the terminator.
    pub delay_slots: u32,
    /// Length of the longest dependence chain through the body,
    /// in bundles (the list scheduler's lower bound).
    pub critical_path: u32,
    /// Bundles whose second slot is filled.
    pub paired: usize,
    /// Whether the terminator's shadow may legally be filled by
    /// hoisting from a successor block.
    pub shadow_fillable: bool,
    /// Edges of the body's dependence DAG (ordered op pairs with a
    /// gap).
    pub edges: usize,
}

fn nop() -> AsmInst {
    AsmInst::Ready(Inst::nop())
}

fn is_nop_bundle(b: &(AsmInst, Option<AsmInst>)) -> bool {
    b.0.shape().op == Op::Nop && b.1.is_none()
}

/// Whether the terminator's delay slots may hold real work moved from
/// before it. Only direct label branches qualify: calls and returns
/// are barriers (the callee/caller may touch anything), and `halt`
/// has no shadow.
fn fillable(term: &AsmInst) -> bool {
    branch_label(term).is_some()
}

/// A block's dependence DAG in flat arrays: the successors of op `i`,
/// each with its minimum bundle gap, are `succ[first[i]..first[i + 1]]`
/// in program order, and `preds[i]` counts op `i`'s predecessors.
#[derive(Default)]
struct Dag {
    first: Vec<u32>,
    succ: Vec<(u32, u32)>,
    preds: Vec<u32>,
}

impl Dag {
    /// Relates every ordered pair of the block's ops once, replacing
    /// the previous block's DAG.
    fn build(&mut self, deps: &[DepSummary]) {
        let n = deps.len();
        self.first.clear();
        self.succ.clear();
        self.preds.clear();
        self.preds.resize(n, 0);
        for (i, a) in deps.iter().enumerate() {
            self.first.push(self.succ.len() as u32);
            for (j, b) in deps.iter().enumerate().skip(i + 1) {
                if let Some(gap) = dependence_gap(a, b) {
                    self.succ.push((j as u32, gap));
                    self.preds[j] += 1;
                }
            }
        }
        self.first.push(self.succ.len() as u32);
    }

    fn succs(&self, i: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        (self.succ[self.first[i] as usize..self.first[i + 1] as usize].iter())
            .map(|&(j, gap)| (j as usize, gap))
    }
}

/// The list scheduler's candidates: the unplaced ops whose
/// predecessors are all placed, each ready from the latest of their
/// gaps. Placing an op releases its successors.
#[derive(Default)]
struct Readiness {
    /// Per op, the predecessors not yet placed.
    unplaced_preds: Vec<u32>,
    /// Per op, the first bundle its placed predecessors allow.
    ready_at: Vec<u32>,
    /// The candidates, in no particular order.
    avail: Vec<usize>,
}

impl Readiness {
    /// Starts over on `dag`, with every source op a candidate.
    fn reset(&mut self, dag: &Dag) {
        let n = dag.preds.len();
        self.unplaced_preds.clear();
        self.unplaced_preds.extend_from_slice(&dag.preds);
        self.ready_at.clear();
        self.ready_at.resize(n, 0);
        self.avail.clear();
        self.avail.extend((0..n).filter(|&i| dag.preds[i] == 0));
    }

    /// Removes and returns the candidate ready by `cycle` that `fits`
    /// and `beats` every other such candidate.
    fn take_best(
        &mut self,
        cycle: u32,
        beats: impl Fn(usize, usize) -> bool,
        fits: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (k, &i) in self.avail.iter().enumerate() {
            if self.ready_at[i] <= cycle && fits(i) && best.is_none_or(|b| beats(i, self.avail[b]))
            {
                best = Some(k);
            }
        }
        best.map(|k| self.avail.swap_remove(k))
    }

    /// The first bundle at which some candidate is ready.
    fn next_ready(&self) -> u32 {
        (self.avail.iter().map(|&i| self.ready_at[i]))
            .min()
            .expect("an acyclic DAG always has a candidate")
    }

    /// Records op `i` placed at `cycle`.
    fn release(&mut self, dag: &Dag, i: usize, cycle: u32) {
        for (j, gap) in dag.succs(i) {
            self.ready_at[j] = self.ready_at[j].max(cycle + gap);
            self.unplaced_preds[j] -= 1;
            if self.unplaced_preds[j] == 0 {
                self.avail.push(j);
            }
        }
    }
}

/// The list scheduler's working storage for one block — dependence
/// summaries, the DAG, critical-path heights, the candidates and the
/// cycle-by-cycle placement — kept across the blocks of a module, so
/// each block clears it instead of allocating its own.
#[derive(Default)]
pub struct Buffers {
    deps: Vec<DepSummary>,
    dag: Dag,
    height: Vec<u32>,
    ready: Readiness,
    /// Per op, its bundle.
    sched: Vec<Option<u32>>,
    /// Per bundle, the ops of its two slots.
    cycles: Vec<(Option<usize>, Option<usize>)>,
}

/// Schedules one block's body plus terminator.
pub fn schedule_block(
    insts: &[AsmInst],
    term: Option<&AsmInst>,
    dual_issue: bool,
) -> BlockSchedule {
    schedule_block_in(&mut Buffers::default(), insts, term, dual_issue)
}

/// [`schedule_block`] in `buffers`, which it clears first: a module's
/// blocks share one set.
pub fn schedule_block_in(
    buffers: &mut Buffers,
    insts: &[AsmInst],
    term: Option<&AsmInst>,
    dual_issue: bool,
) -> BlockSchedule {
    let Buffers {
        deps,
        dag,
        height,
        ready,
        sched,
        cycles,
    } = buffers;
    let n = insts.len();
    deps.clear();
    deps.extend(insts.iter().map(DepSummary::of));
    dag.build(deps);

    // Critical-path heights: longest latency-weighted path to any sink,
    // including the residue each op owes past its own issue bundle.
    height.clear();
    height.extend(insts.iter().map(|inst| out_gap(inst).max(1)));
    for i in (0..n).rev() {
        for (j, gap) in dag.succs(i) {
            height[i] = height[i].max(gap + height[j]);
        }
    }
    let critical_path = height.iter().copied().max().unwrap_or(0);
    // Highest critical-path height wins; program order breaks ties
    // (deterministic, and shape-stable: priorities depend only on the
    // dependence structure, never on operand values).
    let height = &*height;
    let beats = |i: usize, f: usize| height[i] > height[f] || (height[i] == height[f] && i < f);
    let beats = &beats;

    // Cycle-by-cycle list scheduling of the body.
    ready.reset(dag);
    sched.clear();
    sched.resize(n, None);
    cycles.clear();
    let mut remaining = n;
    let mut paired = 0usize;
    while remaining > 0 {
        let cycle = cycles.len() as u32;
        let Some(fi) = ready.take_best(cycle, beats, |_| true) else {
            // Nothing ready: let delays elapse until the first op is.
            cycles.resize(ready.next_ready() as usize, (None, None));
            continue;
        };
        // Slot one's successors are released before the second-slot
        // scan: a zero-gap WAR edge lets one share the bundle.
        sched[fi] = Some(cycle);
        ready.release(dag, fi, cycle);
        remaining -= 1;

        let mut second: Option<usize> = None;
        let first = insts[fi].shape().op;
        if dual_issue && !first.fills_bundle() {
            let (def, pred_def) = (first.def(), first.pred_def());
            let fits = |j: usize| {
                let op = insts[j].shape().op;
                op.allowed_in_second_slot()
                    && !op.fills_bundle()
                    // No conflicting writes within the bundle.
                    && def.is_none_or(|d| op.def() != Some(d))
                    && pred_def.is_none_or(|p| op.pred_def() != Some(p))
            };
            second = ready.take_best(cycle, beats, fits);
        }
        if let Some(sj) = second {
            sched[sj] = Some(cycle);
            ready.release(dag, sj, cycle);
            remaining -= 1;
            paired += 1;
        }
        cycles.push((Some(fi), second));
    }
    let body_len = cycles.len() as u32;

    let materialize = |slot: Option<usize>| slot.map(|i| insts[i].clone());
    let bundle_at = |c: &(Option<usize>, Option<usize>)| -> (AsmInst, Option<AsmInst>) {
        (materialize(c.0).unwrap_or_else(nop), materialize(c.1))
    };

    let edges = dag.succ.len();
    let residue_end = (0..n)
        .map(|i| sched[i].expect("all scheduled") + out_gap(&insts[i]))
        .max()
        .unwrap_or(0);

    let Some(term) = term else {
        // Fall-through: pad the edge so trailing loads/muls are visible
        // before the next block's first bundle.
        let total = residue_end.max(body_len) as usize;
        let mut bundles = Vec::with_capacity(total);
        bundles.extend(cycles.iter().map(bundle_at));
        bundles.resize_with(total, || (nop(), None));
        return BlockSchedule {
            bundles,
            term_at: None,
            delay_slots: 0,
            critical_path,
            paired,
            shadow_fillable: false,
            edges,
        };
    };

    let delay = term.shape().delay_slots();
    let term_deps = DepSummary::of(term);
    if !fillable(term) {
        // Barrier: everything issues before the terminator.
        let beta = (0..n)
            .map(|i| {
                let gap = dependence_gap(&deps[i], &term_deps).unwrap_or(0).max(1);
                sched[i].expect("all scheduled") + gap
            })
            .max()
            .unwrap_or(0)
            .max(body_len);
        // Residue past the delay slots (parity with the fall-through
        // rule; only reachable when the terminator can fall through).
        let total = (beta + 1 + delay).max(residue_end) as usize;
        let mut bundles = Vec::with_capacity(total);
        bundles.extend(cycles.iter().map(bundle_at));
        bundles.resize_with(beta as usize, || (nop(), None));
        let term_at = bundles.len();
        bundles.push((term.clone(), None));
        bundles.resize_with(total, || (nop(), None));
        return BlockSchedule {
            bundles,
            term_at: Some(term_at),
            delay_slots: delay,
            critical_path,
            paired,
            shadow_fillable: false,
            edges,
        };
    }

    // Branch: choose the earliest issue bundle `beta` such that the
    // branch's own dependences are met and every body op — including
    // the trailing bundles shifted into the shadow — still completes
    // its visible-delay residue by the end of the block.
    let beta_min = (0..n)
        .map(|i| match dependence_gap(&deps[i], &term_deps) {
            Some(gap) => sched[i].expect("all scheduled") + gap,
            None => 0,
        })
        .max()
        .unwrap_or(0);
    let mut beta = beta_min.max(body_len.saturating_sub(delay));
    loop {
        let total = (body_len + 1).max(beta + 1 + delay);
        let fits = (0..n).all(|i| {
            let at = sched[i].expect("all scheduled");
            let final_at = if at >= beta { at + 1 } else { at };
            final_at + out_gap(&insts[i]) <= total
        });
        if fits || beta >= body_len {
            break;
        }
        beta += 1;
    }

    let total = (body_len + 1).max(beta + 1 + delay) as usize;
    let mut bundles = Vec::with_capacity(total);
    bundles.extend(cycles.iter().take(beta as usize).map(bundle_at));
    bundles.resize_with(beta as usize, || (nop(), None));
    let term_at = bundles.len();
    bundles.push((term.clone(), None));
    bundles.extend(cycles.iter().skip(beta as usize).map(bundle_at));
    bundles.resize_with(total, || (nop(), None));

    BlockSchedule {
        bundles,
        term_at: Some(term_at),
        delay_slots: delay,
        critical_path,
        paired,
        shadow_fillable: true,
        edges,
    }
}

/// Whether an operation may execute *speculatively* — on a path that
/// did not contain it — provided its results are dead there: pure
/// register/predicate arithmetic only. Memory and stack-control ops
/// can fault or move machine state, `mul` clobbers `sl`/`sh` (not
/// tracked by liveness), and special-register moves touch the stack
/// frame; none of those may be speculated.
fn speculation_safe(inst: &AsmInst) -> bool {
    matches!(
        inst.shape().op,
        Op::AluR { .. }
            | Op::AluI { .. }
            | Op::LoadImmLow { .. }
            | Op::LoadImmHigh { .. }
            | Op::LoadImm32 { .. }
            | Op::Cmp { .. }
            | Op::CmpI { .. }
            | Op::PredSet { .. }
    )
}

/// Whether an operation may be hoisted along its *only* path (an
/// unconditional branch to a block with no other predecessor): any
/// non-flow operation except special-register moves, whose ordering
/// against stack-control ops the dependence relation does not model.
fn unique_path_safe(inst: &AsmInst) -> bool {
    let op = inst.shape().op;
    !op.is_flow() && !matches!(op, Op::Mts { .. } | Op::Mfs { .. })
}

/// Tries to move operations from the *front* of `donor` (a successor
/// block's body) into the empty bundles of a scheduled branch shadow.
///
/// `speculative` carries the live-in set of the branch's *other*
/// successor when the donor is only executed on one of the two paths
/// (the conditional-branch case): a hoisted op then executes on both
/// paths, which is sound only if it is side-effect-free and every
/// register/predicate it writes is dead where the other path lands.
/// `None` means the donor is the unique successor of an unconditional
/// branch — the hoist merely moves the op earlier on its only path.
///
/// Donor operations are scanned in program order. An op that cannot
/// move joins the *skipped* set; later candidates may only jump over
/// skipped ops they are fully independent of. Every placement must
/// respect the dependence gaps against all operations already in the
/// block (at their final bundle positions, slots and shadow included)
/// and leave the op's visible-delay residue inside the block.
///
/// Returns the number of operations hoisted; they are removed from
/// `donor`.
pub fn hoist_into_shadow(
    bundles: &mut [(AsmInst, Option<AsmInst>)],
    term_at: usize,
    delay_slots: u32,
    donor: &mut Vec<AsmInst>,
    speculative: Option<LiveSet>,
) -> u32 {
    let total = bundles.len() as u32;
    let shadow_end = (term_at + 1 + delay_slots as usize).min(bundles.len());
    let empty_slots: Vec<usize> = (term_at + 1..shadow_end)
        .filter(|&p| is_nop_bundle(&bundles[p]))
        .collect();
    if empty_slots.is_empty() {
        return 0;
    }

    let mut open = empty_slots;
    let mut skipped: Vec<DepSummary> = Vec::new();
    let mut taken: Vec<usize> = Vec::new();
    // Every op already in the block, summarised once, per bundle.
    let mut placed: Vec<(DepSummary, Option<DepSummary>)> = (bundles.iter())
        .map(|(first, second)| (DepSummary::of(first), second.as_ref().map(DepSummary::of)))
        .collect();

    'candidates: for (di, cand) in donor.iter().enumerate() {
        if open.is_empty() {
            break;
        }
        let safe = match speculative {
            Some(live) => {
                let op = cand.shape().op;
                speculation_safe(cand)
                    && op.def().is_none_or(|r| !live.has_reg(r))
                    && op.pred_def().is_none_or(|p| !live.has_pred(p))
            }
            None => unique_path_safe(cand),
        };
        let deps = DepSummary::of(cand);
        let independent_of_skipped = skipped.iter().all(|s| dependence_gap(s, &deps).is_none());
        if !safe || !independent_of_skipped {
            skipped.push(deps);
            continue;
        }
        for (oi, &b) in open.iter().enumerate() {
            if (b as u32) + out_gap(cand) > total {
                continue;
            }
            let deps_met = placed.iter().enumerate().all(|(p, bundle)| {
                [Some(&bundle.0), bundle.1.as_ref()]
                    .into_iter()
                    .flatten()
                    .all(|op| match dependence_gap(op, &deps) {
                        Some(gap) => p as u32 + gap <= b as u32,
                        None => true,
                    })
            });
            if deps_met {
                bundles[b].0 = cand.clone();
                placed[b].0 = deps;
                taken.push(di);
                open.remove(oi);
                continue 'candidates;
            }
        }
        skipped.push(deps);
    }

    for &di in taken.iter().rev() {
        donor.remove(di);
    }
    taken.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_asm::Operand;
    use patmos_isa::{AccessSize, AluOp, Guard, MemArea, Pred, Reg};

    fn alu(rd: u8, rs1: u8, rs2: u8) -> AsmInst {
        AsmInst::Ready(Inst::always(Op::AluR {
            op: AluOp::Add,
            rd: Reg::from_index(rd),
            rs1: Reg::from_index(rs1),
            rs2: Reg::from_index(rs2),
        }))
    }

    fn load(rd: u8, slot: i16) -> AsmInst {
        AsmInst::Ready(Inst::always(Op::Load {
            area: MemArea::Stack,
            size: AccessSize::Word,
            rd: Reg::from_index(rd),
            ra: Reg::R0,
            offset: slot,
        }))
    }

    fn flow(guard: Guard, call: bool, label: &str) -> AsmInst {
        AsmInst::Flow {
            guard,
            call,
            target: Operand::Sym(label.into()),
        }
    }

    fn br(label: &str) -> AsmInst {
        flow(Guard::ALWAYS, false, label)
    }

    fn cond_br(label: &str) -> AsmInst {
        flow(Guard::unless(Pred::P6), false, label)
    }

    #[test]
    fn independent_ops_pair_and_dependent_ops_split() {
        let s = schedule_block(&[alu(3, 4, 5), alu(6, 7, 8)], None, true);
        assert_eq!(s.bundles.len(), 1);
        assert_eq!(s.paired, 1);
        let s = schedule_block(&[alu(3, 4, 5), alu(6, 3, 3)], None, true);
        assert_eq!(s.bundles.len(), 2);
    }

    #[test]
    fn branch_shadow_takes_trailing_work() {
        // Four independent ALUs + unconditional branch: with dual
        // issue the body needs two bundles; the second moves into the
        // branch's single delay slot.
        let body = [alu(3, 0, 0), alu(4, 0, 0), alu(5, 0, 0), alu(6, 0, 0)];
        let s = schedule_block(&body, Some(&br("x")), true);
        // {alu;alu}, br, {alu;alu} — three bundles, no nops.
        assert_eq!(s.bundles.len(), 3);
        assert!(!s.bundles.iter().any(is_nop_bundle));
        assert_eq!(s.term_at, Some(1));
    }

    #[test]
    fn conditional_branch_waits_for_its_guard() {
        let cmp = AsmInst::Ready(Inst::always(Op::CmpI {
            op: patmos_isa::CmpOp::Lt,
            pd: Pred::P6,
            rs1: Reg::from_index(7),
            imm: 30,
        }));
        let s = schedule_block(&[cmp], Some(&cond_br("head")), true);
        // cmp @0, branch no earlier than @1, two delay slots.
        assert_eq!(s.term_at, Some(1));
        assert_eq!(s.bundles.len(), 4);
    }

    #[test]
    fn load_never_lands_in_the_last_shadow_bundle() {
        // A load right before an unconditional branch must not slide
        // into the single delay slot: its value would not be visible
        // at the branch target's first bundle.
        let body = [alu(3, 0, 0), load(4, 0)];
        let s = schedule_block(&body, Some(&br("x")), true);
        let last = s.bundles.last().expect("non-empty");
        assert!(
            !matches!(last.0.shape().op, Op::Load { .. }),
            "load in last bundle of {:?}",
            s.bundles
        );
        // The residue rule instead leaves the shadow empty or holds
        // the ALU there.
        let total = s.bundles.len() as u32;
        for (p, b) in s.bundles.iter().enumerate() {
            if !is_nop_bundle(b) && !b.0.shape().op.is_flow() {
                assert!(p as u32 + out_gap(&b.0) <= total);
            }
        }
    }

    #[test]
    fn barrier_terminators_keep_everything_in_front() {
        let body = [alu(3, 0, 0), alu(4, 0, 0), alu(5, 0, 0)];
        let call = flow(Guard::ALWAYS, true, "f");
        let s = schedule_block(&body, Some(&call), true);
        let term_at = s.term_at.expect("has terminator");
        assert!(
            s.bundles[term_at + 1..].iter().all(is_nop_bundle),
            "call shadow stays architectural nops"
        );
        assert!(!s.shadow_fillable);
    }

    #[test]
    fn hoist_fills_unconditional_shadow_from_unique_successor() {
        let s = &mut schedule_block(&[], Some(&br("t")), true);
        assert_eq!(s.bundles.len(), 2, "br + empty shadow");
        let mut donor = vec![alu(9, 0, 0), alu(1, 9, 9)];
        let n = hoist_into_shadow(&mut s.bundles, 0, 1, &mut donor, None);
        assert_eq!(n, 1, "only the first donor op fits the one slot");
        assert_eq!(donor.len(), 1);
        assert!(matches!(s.bundles[1].0.shape().op, Op::AluR { .. }));
    }

    #[test]
    fn speculative_hoist_requires_dead_targets() {
        let mut live = LiveSet::default();
        // r9 live on the taken path: the first donor op must stay; the
        // second (writing dead r10, not reading anything r9-dependent)
        // may jump over it.
        live.regs |= 1 << 9;
        let s = &mut schedule_block(
            &[AsmInst::Ready(Inst::always(Op::CmpI {
                op: patmos_isa::CmpOp::Lt,
                pd: Pred::P6,
                rs1: Reg::from_index(7),
                imm: 30,
            }))],
            Some(&cond_br("exit")),
            true,
        );
        let mut donor = vec![alu(9, 3, 3), alu(10, 4, 4)];
        let n = hoist_into_shadow(
            &mut s.bundles,
            s.term_at.expect("term"),
            s.delay_slots,
            &mut donor,
            Some(live),
        );
        assert_eq!(n, 1);
        assert_eq!(donor.len(), 1);
        assert!(
            matches!(donor[0].shape().op, Op::AluR { rd, .. } if rd == Reg::from_index(9)),
            "the live-def op stays in the donor"
        );
    }

    #[test]
    fn speculative_hoist_rejects_memory_ops() {
        let s = &mut schedule_block(&[alu(7, 0, 0)], Some(&cond_br("exit")), true);
        let mut donor = vec![load(9, 0)];
        let n = hoist_into_shadow(
            &mut s.bundles,
            s.term_at.expect("term"),
            s.delay_slots,
            &mut donor,
            Some(LiveSet::default()),
        );
        assert_eq!(n, 0);
        assert_eq!(donor.len(), 1);
    }

    #[test]
    fn hoist_respects_dependences_on_shadow_occupants() {
        // Shadow already holds a def of r9 (shifted there); a donor op
        // reading r9 must respect the one-bundle gap — with a
        // two-slot shadow it can take the second slot.
        let body = [alu(3, 0, 0), alu(9, 0, 0)];
        let s = &mut schedule_block(&body, Some(&cond_br("exit")), true);
        // cmp-less: branch ready at 0, but body fills first... just
        // verify invariant on whatever landed in the shadow.
        let term_at = s.term_at.expect("term");
        let mut donor = vec![alu(10, 9, 9)];
        let before = s.bundles.clone();
        let _ = hoist_into_shadow(&mut s.bundles, term_at, s.delay_slots, &mut donor, None);
        // Wherever the donor op landed, every dependence gap holds.
        for (p, b) in s.bundles.iter().enumerate() {
            for (q, c) in s.bundles.iter().enumerate() {
                if q <= p {
                    continue;
                }
                for a in [Some(&b.0), b.1.as_ref()].into_iter().flatten() {
                    for z in [Some(&c.0), c.1.as_ref()].into_iter().flatten() {
                        if let Some(gap) = dependence_gap(&DepSummary::of(a), &DepSummary::of(z)) {
                            assert!(
                                p as u32 + gap <= q as u32,
                                "gap violated {p}->{q}: before={before:?} after={:?}",
                                s.bundles
                            );
                        }
                    }
                }
            }
        }
    }
}
