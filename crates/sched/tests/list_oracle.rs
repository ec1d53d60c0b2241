//! A seeded oracle for the dependence relation and
//! `list::schedule_block`.
//!
//! The reference below states both in their plainest form: the
//! pairwise relation read straight from the ISA's queries on both ops'
//! `AsmInst::shape`, and a list scheduler that relates every pair and
//! rescans every unplaced op's predecessors each cycle. The library
//! builds per-op dependence summaries and releases successors as ops
//! are placed; it must agree with the reference on every ordered pair
//! of a wide op pool, and on every generated block (1-150 operations
//! over a handful of registers, every terminator kind, dual and single
//! issue) in every field of the `BlockSchedule`, whether scheduled in
//! fresh buffers or in one set of `list::Buffers` reused across a
//! test's blocks, as the driver reuses it across a module's. Whatever
//! the schedule, each op is placed exactly once, every reference
//! dependence gap holds between final bundle positions, and every
//! visible-delay residue completes by the end of the block.

use patmos_asm::{AsmInst, Operand};
use patmos_isa::{AccessSize, AluOp, CmpOp, Guard, Inst, MemArea, Op, Pred, PredOp, PredSrc};
use patmos_isa::{Reg, SpecialReg};
use patmos_sched::dag::{dependence_gap, DepSummary};
use patmos_sched::list::{schedule_block, schedule_block_in, BlockSchedule, Buffers};

/// splitmix64: enough randomness for a reproducible sweep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn reg(&mut self) -> Reg {
        Reg::from_index(1 + self.below(5) as u8)
    }

    fn pred(&mut self) -> Pred {
        [Pred::P1, Pred::P2, Pred::P3][self.below(3) as usize]
    }

    fn imm(&mut self) -> i16 {
        self.below(64) as i16
    }
}

/// One body op: ALU, immediate, load/store, `mul`/`mfs`, compare or
/// predicate logic, occasionally guarded.
fn body_op(rng: &mut Rng) -> AsmInst {
    let area = [MemArea::Stack, MemArea::Static][rng.below(2) as usize];
    let op = match rng.below(11) {
        0 => Op::AluR {
            op: AluOp::Add,
            rd: rng.reg(),
            rs1: rng.reg(),
            rs2: rng.reg(),
        },
        1 => Op::AluI {
            op: AluOp::Sub,
            rd: rng.reg(),
            rs1: rng.reg(),
            imm: rng.imm(),
        },
        2 => Op::LoadImmLow {
            rd: rng.reg(),
            imm: rng.imm() as u16,
        },
        3 => Op::LoadImm32 {
            rd: rng.reg(),
            imm: rng.next() as u32,
        },
        4 => Op::Load {
            area,
            size: AccessSize::Word,
            rd: rng.reg(),
            ra: rng.reg(),
            offset: rng.imm(),
        },
        5 => Op::Store {
            area,
            size: AccessSize::Word,
            ra: rng.reg(),
            offset: rng.imm(),
            rs: rng.reg(),
        },
        6 => Op::Mul {
            rs1: rng.reg(),
            rs2: rng.reg(),
        },
        7 => Op::Mfs {
            rd: rng.reg(),
            ss: SpecialReg::Sl,
        },
        8 => Op::Cmp {
            op: CmpOp::Lt,
            pd: rng.pred(),
            rs1: rng.reg(),
            rs2: rng.reg(),
        },
        9 => Op::CmpI {
            op: CmpOp::Eq,
            pd: rng.pred(),
            rs1: rng.reg(),
            imm: rng.imm(),
        },
        _ => Op::PredSet {
            op: PredOp::And,
            pd: rng.pred(),
            p1: PredSrc::plain(rng.pred()),
            p2: PredSrc::plain(rng.pred()),
        },
    };
    let guard = match rng.below(6) {
        0 => Guard::when(rng.pred()),
        1 => Guard::unless(rng.pred()),
        _ => Guard::ALWAYS,
    };
    AsmInst::Ready(Inst::new(guard, op))
}

/// A `br` (or, with `call`, a `call`) of `name` under `guard`.
fn flow(guard: Guard, call: bool, name: &str) -> AsmInst {
    AsmInst::Flow {
        guard,
        call,
        target: Operand::Sym(name.into()),
    }
}

/// Every terminator kind: fall-through, unconditional and conditional
/// label branches, and the barriers (call, return, halt).
fn terminator(kind: u64, rng: &mut Rng) -> Option<AsmInst> {
    match kind {
        0 => None,
        1 => Some(flow(Guard::ALWAYS, false, "next")),
        2 => Some(flow(Guard::unless(rng.pred()), false, "next")),
        3 => Some(flow(Guard::ALWAYS, true, "callee")),
        4 => Some(AsmInst::Ready(Inst::always(Op::Ret))),
        _ => Some(AsmInst::Ready(Inst::always(Op::Halt))),
    }
}

/// An op the block generator above never draws: a `lil` of a symbol
/// (to `r0` too), a long immediate, `mts`/`mfs` of the multiplier's
/// `sl`/`sh` and of `sm`, stack control, or an ALU op whose predicate
/// logic or guard names `p0` (`!p0` included).
fn rare_op(rng: &mut Rng) -> AsmInst {
    let special = [SpecialReg::Sl, SpecialReg::Sh, SpecialReg::Sm][rng.below(3) as usize];
    let ready = |op| AsmInst::Ready(Inst::always(op));
    let inst = match rng.below(8) {
        0 => AsmInst::LongImm {
            guard: Guard::ALWAYS,
            rd: [rng.reg(), Reg::R0][rng.below(2) as usize],
            value: Operand::Sym("sym".into()),
        },
        1 => ready(Op::LoadImm32 {
            rd: rng.reg(),
            imm: rng.next() as u32,
        }),
        2 => ready(Op::Mts {
            sd: special,
            rs: rng.reg(),
        }),
        3 => ready(Op::Mfs {
            rd: rng.reg(),
            ss: special,
        }),
        4 => ready(Op::Sres { words: 4 }),
        5 => ready(Op::PredSet {
            op: PredOp::Or,
            pd: rng.pred(),
            p1: PredSrc::plain(Pred::P0),
            p2: PredSrc::plain(rng.pred()),
        }),
        6 => ready(Op::Cmp {
            op: CmpOp::Eq,
            pd: rng.pred(),
            rs1: rng.reg(),
            rs2: Reg::R0,
        }),
        _ => ready(Op::AluI {
            op: AluOp::Add,
            rd: rng.reg(),
            rs1: Reg::R0,
            imm: rng.imm(),
        }),
    };
    let guard = match rng.below(4) {
        0 => Guard::unless(Pred::P0),
        1 => Guard::when(rng.pred()),
        _ => Guard::ALWAYS,
    };
    // The guard is drawn after the operands; it replaces `always`.
    match inst {
        AsmInst::Ready(inst) => AsmInst::Ready(Inst::new(guard, inst.op)),
        AsmInst::LongImm { rd, value, .. } => AsmInst::LongImm { guard, rd, value },
        AsmInst::Flow { .. } => unreachable!("no rare op transfers control"),
    }
}

/// Mostly generated body ops, with one in eight a [`rare_op`].
fn wide_op(rng: &mut Rng) -> AsmInst {
    if rng.below(8) == 0 {
        rare_op(rng)
    } else {
        body_op(rng)
    }
}

fn is_nop(inst: &AsmInst) -> bool {
    matches!(inst, AsmInst::Ready(i) if i.op == Op::Nop)
}

// ---- the reference ----

/// Whether `inst` is a `call` of a function by name.
fn is_named_call(inst: &AsmInst) -> bool {
    matches!(
        inst,
        AsmInst::Flow {
            call: true,
            target: Operand::Sym(_),
            ..
        }
    )
}

/// Whether `op` occupies a whole bundle.
fn is_long(op: &Op) -> bool {
    matches!(op, Op::LoadImm32 { .. })
}

/// Whether `op` writes the multiplier's `sl`/`sh`.
fn writes_mul(op: &Op) -> bool {
    matches!(op, Op::Mul { .. })
}

/// Whether `op` reads the multiplier's `sl`/`sh`.
fn reads_mul(op: &Op) -> bool {
    matches!(
        op,
        Op::Mfs {
            ss: SpecialReg::Sl | SpecialReg::Sh,
            ..
        }
    )
}

/// The gap a reader of `op`'s register result must keep.
fn def_gap(op: &Op) -> u32 {
    if matches!(op, Op::Load { .. }) {
        1 + patmos_isa::timing::LOAD_USE_GAP
    } else {
        1
    }
}

/// The minimum bundle gap from `a` to `b`, read from the ISA's queries
/// on both ops' shapes.
fn ref_gap(a: &AsmInst, b: &AsmInst) -> Option<u32> {
    let (sa, sb) = (a.shape(), b.shape());
    let (ao, bo) = (&sa.op, &sb.op);
    let mut gap: Option<u32> = None;
    let mut need = |g: u32| gap = Some(gap.map_or(g, |old: u32| old.max(g)));

    // Memory/stack-control order is preserved.
    let ordered = |op: &Op| op.is_memory() || op.is_stack_control();
    if ordered(ao) && ordered(bo) {
        need(1);
    }
    // Calls are barriers: nothing moves across them.
    if is_named_call(a) || is_named_call(b) {
        need(1);
    }

    // Register RAW/WAW/WAR.
    if let Some(d) = ao.def() {
        if bo.uses().into_iter().flatten().any(|u| u == d) {
            need(def_gap(ao));
        }
        if bo.def() == Some(d) {
            need(1);
        }
    }
    if let Some(d) = bo.def() {
        if ao.uses().into_iter().flatten().any(|u| u == d) {
            need(0); // same bundle is fine: reads see pre-state
        }
    }

    // Predicate RAW/WAW/WAR, including guards.
    let b_pred_reads = || {
        bo.pred_uses()
            .into_iter()
            .flatten()
            .chain((!sb.guard.is_always()).then_some(sb.guard.pred))
    };
    if let Some(d) = ao.pred_def() {
        if b_pred_reads().any(|p| p == d) {
            need(1);
        }
        if bo.pred_def() == Some(d) {
            need(1);
        }
    }
    if let Some(d) = bo.pred_def() {
        let a_reads = ao
            .pred_uses()
            .into_iter()
            .flatten()
            .chain((!sa.guard.is_always()).then_some(sa.guard.pred));
        for p in a_reads {
            if p == d {
                need(0);
            }
        }
    }

    // Multiplier unit.
    if writes_mul(ao) && reads_mul(bo) {
        need(1 + patmos_isa::timing::MUL_GAP);
    }
    if writes_mul(ao) && writes_mul(bo) {
        need(1);
    }
    if reads_mul(ao) && writes_mul(bo) {
        need(0);
    }

    gap
}

fn nop() -> AsmInst {
    AsmInst::Ready(Inst::nop())
}

fn fillable(term: &AsmInst) -> bool {
    matches!(
        term,
        AsmInst::Flow {
            call: false,
            target: Operand::Sym(_),
            ..
        }
    )
}

/// The visible-delay residue an op owes past its issue bundle.
fn ref_out_gap(inst: &AsmInst) -> u32 {
    let op = inst.shape().op;
    if writes_mul(&op) {
        1 + patmos_isa::timing::MUL_GAP
    } else if op.def().is_some() {
        def_gap(&op)
    } else {
        0
    }
}

/// Schedules one block, relating every pair of ops and re-reading every
/// unplaced op's predecessors each cycle.
fn ref_schedule_block(
    insts: &[AsmInst],
    term: Option<&AsmInst>,
    dual_issue: bool,
) -> BlockSchedule {
    let n = insts.len();

    // Dependence DAG: (pred, succ, min bundle gap), pred < succ.
    let mut edges: Vec<(usize, usize, u32)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(gap) = ref_gap(&insts[i], &insts[j]) {
                edges.push((i, j, gap));
            }
        }
    }

    // Critical-path heights: longest latency-weighted path to any sink,
    // including the residue each op owes past its own issue bundle.
    let mut height: Vec<u32> = (0..n).map(|i| ref_out_gap(&insts[i]).max(1)).collect();
    for &(i, j, gap) in edges.iter().rev() {
        height[i] = height[i].max(gap + height[j]);
    }
    let critical_path = height.iter().copied().max().unwrap_or(0);

    // Cycle-by-cycle list scheduling of the body. An op is ready once
    // every predecessor is placed, at the latest of their gaps.
    let mut preds: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for &(p, s, gap) in &edges {
        preds[s].push((p, gap));
    }
    let mut sched: Vec<Option<u32>> = vec![None; n];
    let earliest = |i: usize, sched: &[Option<u32>]| -> Option<u32> {
        (preds[i].iter()).try_fold(0u32, |at, &(p, gap)| Some(at.max(sched[p]? + gap)))
    };

    let mut cycles: Vec<(Option<usize>, Option<usize>)> = Vec::new();
    let mut remaining = n;
    let mut paired = 0usize;
    while remaining > 0 {
        let cycle = cycles.len() as u32;
        // Highest critical-path height wins; program order breaks ties
        // (deterministic, and shape-stable: priorities depend only on
        // the dependence structure, never on operand values).
        let mut first: Option<usize> = None;
        for i in 0..n {
            if sched[i].is_some() {
                continue;
            }
            if matches!(earliest(i, &sched), Some(r) if r <= cycle)
                && first.is_none_or(|f| height[i] > height[f])
            {
                first = Some(i);
            }
        }
        let Some(fi) = first else {
            cycles.push((None, None)); // nothing ready: let delays elapse
            continue;
        };
        sched[fi] = Some(cycle);
        remaining -= 1;

        let mut second: Option<usize> = None;
        let first = insts[fi].shape().op;
        if dual_issue && !is_long(&first) {
            for j in 0..n {
                let op = insts[j].shape().op;
                if sched[j].is_some() || !op.allowed_in_second_slot() || is_long(&op) {
                    continue;
                }
                // Ready even against the op just placed in slot one
                // (a zero-gap WAR edge permits sharing the bundle).
                if !matches!(earliest(j, &sched), Some(r) if r <= cycle) {
                    continue;
                }
                // No conflicting writes within the bundle.
                if first.def().is_some() && first.def() == op.def() {
                    continue;
                }
                if first.pred_def().is_some() && first.pred_def() == op.pred_def() {
                    continue;
                }
                if second.is_none_or(|s| height[j] > height[s]) {
                    second = Some(j);
                }
            }
        }
        if let Some(sj) = second {
            sched[sj] = Some(cycle);
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

    let mut bundles: Vec<(AsmInst, Option<AsmInst>)> = Vec::new();
    let residue_end = (0..n)
        .map(|i| sched[i].expect("all scheduled") + ref_out_gap(&insts[i]))
        .max()
        .unwrap_or(0);

    let Some(term) = term else {
        // Fall-through: pad the edge so trailing loads/muls are visible
        // before the next block's first bundle.
        bundles.extend(cycles.iter().map(bundle_at));
        while (bundles.len() as u32) < residue_end.max(body_len) {
            bundles.push((nop(), None));
        }
        return BlockSchedule {
            bundles,
            term_at: None,
            delay_slots: 0,
            critical_path,
            paired,
            shadow_fillable: false,
            edges: edges.len(),
        };
    };

    let delay = term.shape().delay_slots();
    if !fillable(term) {
        // Barrier: everything issues before the terminator.
        let beta = (0..n)
            .map(|i| {
                let gap = ref_gap(&insts[i], term).unwrap_or(0).max(1);
                sched[i].expect("all scheduled") + gap
            })
            .max()
            .unwrap_or(0)
            .max(body_len);
        bundles.extend(cycles.iter().map(bundle_at));
        while (bundles.len() as u32) < beta {
            bundles.push((nop(), None));
        }
        let term_at = bundles.len();
        bundles.push((term.clone(), None));
        for _ in 0..delay {
            bundles.push((nop(), None));
        }
        // Residue past the delay slots (parity with the fall-through
        // rule; only reachable when the terminator can fall through).
        while (bundles.len() as u32) < residue_end {
            bundles.push((nop(), None));
        }
        return BlockSchedule {
            bundles,
            term_at: Some(term_at),
            delay_slots: delay,
            critical_path,
            paired,
            shadow_fillable: false,
            edges: edges.len(),
        };
    }

    // Branch: choose the earliest issue bundle `beta` such that the
    // branch's own dependences are met and every body op — including
    // the trailing bundles shifted into the shadow — still completes
    // its visible-delay residue by the end of the block.
    let beta_min = (0..n)
        .map(|i| match ref_gap(&insts[i], term) {
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
            final_at + ref_out_gap(&insts[i]) <= total
        });
        if fits || beta >= body_len {
            break;
        }
        beta += 1;
    }

    for cycle in cycles.iter().take(beta.min(body_len) as usize) {
        bundles.push(bundle_at(cycle));
    }
    while (bundles.len() as u32) < beta {
        bundles.push((nop(), None));
    }
    let term_at = bundles.len();
    bundles.push((term.clone(), None));
    for cycle in cycles.iter().skip(beta as usize) {
        bundles.push(bundle_at(cycle));
    }
    while (bundles.len() as u32) < beta + 1 + delay {
        bundles.push((nop(), None));
    }

    BlockSchedule {
        bundles,
        term_at: Some(term_at),
        delay_slots: delay,
        critical_path,
        paired,
        shadow_fillable: true,
        edges: edges.len(),
    }
}

// ---- the checks ----

/// Schedules one generated block with the library, in fresh buffers and
/// in the reused `buffers`, and checks it against the reference: equal
/// in every field, and legal under the reference relation.
fn check_block(
    buffers: &mut Buffers,
    what: &str,
    body: &[AsmInst],
    term: Option<&AsmInst>,
    dual: bool,
) {
    let s = schedule_block(body, term, dual);
    assert_eq!(
        s,
        ref_schedule_block(body, term, dual),
        "{what}: differs from the reference"
    );
    assert_eq!(
        schedule_block_in(buffers, body, term, dual),
        s,
        "{what}: reused buffers differ from fresh ones"
    );
    let n = body.len();

    // Program order: the body, then the terminator.
    let program: Vec<&AsmInst> = body.iter().chain(term).collect();
    let mut placed: Vec<(usize, &AsmInst)> = Vec::new();
    for (p, (first, second)) in s.bundles.iter().enumerate() {
        assert!(dual || second.is_none(), "{what}: paired at {p}");
        if let Some(second) = second {
            let (first, second) = (first.shape().op, second.shape().op);
            assert!(
                second.allowed_in_second_slot() && !is_long(&second) && !is_long(&first),
                "{what}: illegal pair at {p}"
            );
        }
        placed.extend(
            [Some(first), second.as_ref()]
                .into_iter()
                .flatten()
                .map(|i| (p, i)),
        );
    }
    placed.retain(|(_, i)| !is_nop(i));

    // Each op exactly once. Identical ops are interchangeable, so
    // the k-th copy in program order takes the k-th copy's bundle.
    assert_eq!(placed.len(), program.len(), "{what}: op count");
    let mut at = vec![usize::MAX; program.len()];
    for (i, op) in program.iter().enumerate() {
        let copy = program[..i].iter().filter(|o| o == &op).count();
        let mut copies = placed.iter().filter(|(_, o)| o == op);
        let (p, _) = copies
            .nth(copy)
            .unwrap_or_else(|| panic!("{what}: op {i} `{op}` missing"));
        at[i] = *p;
    }
    if term.is_some() {
        assert_eq!(s.term_at, Some(at[n]), "{what}: terminator position");
    }

    // Every dependence gap, between final positions.
    for i in 0..program.len() {
        for j in i + 1..program.len() {
            if let Some(gap) = ref_gap(program[i], program[j]) {
                assert!(
                    at[j] >= at[i] + gap as usize,
                    "{what}: `{}` @{} -> `{}` @{} needs gap {gap}",
                    program[i],
                    at[i],
                    program[j],
                    at[j]
                );
            }
        }
    }

    // Every visible-delay residue completes inside the block.
    for (i, op) in body.iter().enumerate() {
        assert!(
            at[i] + ref_out_gap(op) as usize <= s.bundles.len(),
            "{what}: `{op}` @{} owes {} past {} bundles",
            at[i],
            ref_out_gap(op),
            s.bundles.len()
        );
    }
}

const KINDS: u64 = 6;

#[test]
fn generated_blocks_schedule_legally() {
    let mut rng = Rng(0x5eed_0f11_57a7);
    let buffers = &mut Buffers::default();
    for case in 0..480u64 {
        let n = 1 + rng.below(60) as usize;
        let body: Vec<AsmInst> = (0..n).map(|_| body_op(&mut rng)).collect();
        let term = terminator(case % KINDS, &mut rng);
        let dual = (case / KINDS) % 2 == 0;
        let what = format!("case {case}: {n} ops, terminator {term:?}, dual {dual}");
        check_block(buffers, &what, &body, term.as_ref(), dual);
    }
}

/// Blocks as large as the suite's largest (fir's 144 ops) and past it,
/// with the rare ops mixed in.
#[test]
fn large_generated_blocks_match_the_reference() {
    let mut rng = Rng(0x1a46_e0b1_0c75);
    let buffers = &mut Buffers::default();
    for case in 0..48u64 {
        let n = 61 + rng.below(90) as usize;
        let body: Vec<AsmInst> = (0..n).map(|_| wide_op(&mut rng)).collect();
        let term = terminator(case % KINDS, &mut rng);
        let dual = (case / KINDS) % 2 == 0;
        let what = format!("large case {case}: {n} ops, terminator {term:?}, dual {dual}");
        check_block(buffers, &what, &body, term.as_ref(), dual);
    }
}

/// The summarised relation equals the reference on every ordered pair
/// (self-pairs included) of a pool of generated body ops, every
/// terminator kind and the rare ops.
#[test]
fn the_relation_matches_the_reference_on_every_pair() {
    let mut rng = Rng(0xdeb5_0a11_9a1e);
    let mut pool: Vec<AsmInst> = (0..160).map(|_| body_op(&mut rng)).collect();
    pool.extend((0..64).map(|_| rare_op(&mut rng)));
    for kind in 1..KINDS {
        for _ in 0..4 {
            pool.extend(terminator(kind, &mut rng));
        }
    }
    for guard in [Guard::unless(Pred::P0), Guard::when(Pred::P2)] {
        pool.push(flow(guard, false, "next"));
        pool.push(flow(guard, true, "callee"));
    }
    let deps: Vec<DepSummary> = pool.iter().map(DepSummary::of).collect();
    let mut related = 0;
    for (a, da) in pool.iter().zip(&deps) {
        for (b, db) in pool.iter().zip(&deps) {
            let want = ref_gap(a, b);
            assert_eq!(dependence_gap(da, db), want, "`{a}` -> `{b}`");
            related += want.is_some() as usize;
        }
    }
    // The pool exercises both answers.
    assert!(related > 0 && related < pool.len() * pool.len());
}
