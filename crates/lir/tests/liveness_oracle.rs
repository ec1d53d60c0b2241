//! A seeded differential oracle for the liveness solve: generated
//! functions of 1–80 instructions with labels, guarded and unguarded
//! branches, guarded defs, calls and `ret`/`halt`. A naive reference
//! (per-instruction `BTreeSet` fixpoint over successors derived from
//! the items, independent of `build_vcfg`) must reproduce every block's
//! live-in and live-out set, every live interval and every
//! live-across-call set.

use std::collections::{BTreeMap, BTreeSet};

use patmos_isa::{AccessSize, AluOp, CmpOp, Guard, MemArea, Op, Pred, Reg};
use patmos_lir::{
    analyze, build_vcfg, inst_positions, BlockLiveness, FuncCode, Function, Interval, VInst,
};
use patmos_lir::{VItem, VOp, VReg};

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

    /// Mostly a dozen small ids so values meet; sometimes the zero
    /// alias, sometimes an id on or past a 64-bit word boundary.
    fn vreg(&mut self) -> VReg {
        match self.below(8) {
            0 => VReg::ZERO,
            1 => VReg::new([63, 64, 65, 127, 128, 200][self.below(6) as usize]),
            _ => VReg::new(1 + self.below(12) as u32),
        }
    }

    fn guard(&mut self) -> Guard {
        match self.below(4) {
            0 => Guard::when(Pred::P1),
            1 => Guard::unless(Pred::P2),
            _ => Guard::ALWAYS,
        }
    }
}

/// One instruction. Value-producing ops are guarded a quarter of the
/// time; branches half the time; calls, `ret` and `halt` never.
fn gen_inst(rng: &mut Rng, labels: usize) -> VInst {
    let area = [MemArea::Stack, MemArea::Static][rng.below(2) as usize];
    let op = match rng.below(14) {
        0 | 1 => VOp::Machine(Op::AluR {
            op: AluOp::Add,
            rd: rng.vreg(),
            rs1: rng.vreg(),
            rs2: rng.vreg(),
        }),
        2 => VOp::Machine(Op::AluI {
            op: AluOp::Sub,
            rd: rng.vreg(),
            rs1: rng.vreg(),
            imm: 1,
        }),
        3 => VOp::Machine(Op::LoadImmLow {
            rd: rng.vreg(),
            imm: 7,
        }),
        4 => VOp::CopyFromPhys {
            dst: rng.vreg(),
            src: Reg::R1,
        },
        5 => VOp::Machine(Op::Load {
            area,
            size: AccessSize::Word,
            rd: rng.vreg(),
            ra: rng.vreg(),
            offset: 0,
        }),
        6 => VOp::Machine(Op::Store {
            area,
            size: AccessSize::Word,
            ra: rng.vreg(),
            offset: 0,
            rs: rng.vreg(),
        }),
        7 => VOp::CopyToPhys {
            dst: Reg::R3,
            src: rng.vreg(),
        },
        8 => VOp::Machine(Op::Mul {
            rs1: rng.vreg(),
            rs2: rng.vreg(),
        }),
        9 => VOp::Machine(Op::CmpI {
            op: CmpOp::Lt,
            pd: Pred::P1,
            rs1: rng.vreg(),
            imm: 3,
        }),
        10 => return VInst::always(VOp::CallFunc("g".into())),
        11 | 12 if labels > 0 => {
            let target = VOp::BrLabel(format!("L{}", rng.below(labels as u64)));
            let guard = if rng.below(2) == 0 {
                Guard::ALWAYS
            } else {
                Guard::when(Pred::P1)
            };
            return VInst::new(guard, target);
        }
        13 => {
            return VInst::always(if rng.below(2) == 0 {
                VOp::Machine(Op::Ret)
            } else {
                VOp::Machine(Op::Halt)
            })
        }
        _ => VOp::Machine(Op::LoadImmLow {
            rd: rng.vreg(),
            imm: 1,
        }),
    };
    VInst::new(rng.guard(), op)
}

/// A function of 1–80 instructions with up to five labels, each
/// before some instruction or at the very end.
fn gen_function(rng: &mut Rng) -> Vec<VItem> {
    let n = 1 + rng.below(80) as usize;
    let labels = rng.below(6) as usize;
    let label_pos: Vec<usize> = (0..labels)
        .map(|_| rng.below(n as u64 + 1) as usize)
        .collect();
    let mut items = Vec::new();
    for pos in 0..=n {
        for (l, &at) in label_pos.iter().enumerate() {
            if at == pos {
                items.push(VItem::Label(format!("L{l}")));
            }
        }
        if pos < n {
            items.push(VItem::Inst(gen_inst(rng, labels)));
        }
    }
    items
}

/// The registers an instruction reads, a guarded def included: the
/// annulled write lets the old value through.
fn reads(inst: &VInst) -> BTreeSet<VReg> {
    let mut r: BTreeSet<VReg> = inst.op.uses().into_iter().flatten().collect();
    if !inst.guard.is_always() {
        r.extend(inst.op.def());
    }
    r
}

/// Per-instruction live-in and live-out sets by a naive fixpoint.
struct Reference {
    live_in: Vec<BTreeSet<VReg>>,
    live_out: Vec<BTreeSet<VReg>>,
}

fn reference(items: &[VItem]) -> (Vec<VInst>, Reference) {
    let mut insts: Vec<VInst> = Vec::new();
    let mut label_pos: BTreeMap<&str, usize> = BTreeMap::new();
    for item in items {
        match item {
            VItem::Inst(inst) => insts.push(inst.clone()),
            VItem::Label(l) => {
                label_pos.insert(l, insts.len());
            }
            _ => {}
        }
    }
    let n = insts.len();
    let succs: Vec<Vec<usize>> = (0..n)
        .map(|p| {
            let next = (p + 1 < n).then_some(p + 1);
            match &insts[p].op {
                VOp::Machine(Op::Ret | Op::Halt) => Vec::new(),
                VOp::BrLabel(l) => {
                    let target = Some(label_pos[l.as_str()]).filter(|&t| t < n);
                    let fall = next.filter(|_| !insts[p].guard.is_always());
                    target.into_iter().chain(fall).collect()
                }
                _ => next.into_iter().collect(),
            }
        })
        .collect();
    let mut live_in = vec![BTreeSet::new(); n];
    let mut live_out = vec![BTreeSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for p in (0..n).rev() {
            let out: BTreeSet<VReg> = succs[p]
                .iter()
                .flat_map(|&s| live_in[s].iter().copied())
                .collect();
            let mut inn = out.clone();
            if let Some(d) = insts[p].op.def().filter(|_| insts[p].guard.is_always()) {
                inn.remove(&d);
            }
            inn.extend(reads(&insts[p]));
            if out != live_out[p] || inn != live_in[p] {
                changed = true;
                live_out[p] = out;
                live_in[p] = inn;
            }
        }
    }
    (insts, Reference { live_in, live_out })
}

/// Each register's interval: the span of every position where it is
/// read, written, live in or live out; sorted by `(start, id)`.
fn reference_intervals(insts: &[VInst], r: &Reference) -> Vec<Interval> {
    let mut span: BTreeMap<VReg, (usize, usize)> = BTreeMap::new();
    for (p, inst) in insts.iter().enumerate() {
        let touched = r.live_in[p]
            .iter()
            .chain(&r.live_out[p])
            .copied()
            .chain(reads(inst))
            .chain(inst.op.def());
        for v in touched {
            let s = span.entry(v).or_insert((p, p));
            *s = (s.0.min(p), s.1.max(p));
        }
    }
    let mut intervals: Vec<Interval> = span
        .into_iter()
        .map(|(vreg, (start, end))| Interval { vreg, start, end })
        .collect();
    intervals.sort_by_key(|iv| (iv.start, iv.vreg.id()));
    intervals
}

#[test]
fn bitset_liveness_matches_the_naive_reference() {
    let mut rng = Rng(0x11fe_0b1e);
    for case in 0..2000 {
        let items = gen_function(&mut rng);
        let (insts, want) = reference(&items);
        let function = Function::new("f", items);
        let positions = inst_positions(&function.items);
        let func = &FuncCode::new(&function, &positions);
        let items = &function.items;
        let cfg = build_vcfg(func).expect("generated labels resolve");
        let ctx = || {
            let text: Vec<String> = items
                .iter()
                .map(|i| match i {
                    VItem::Inst(inst) => format!("  {inst}"),
                    other => format!("{other:?}"),
                })
                .collect();
            format!("case {case}:\n{}", text.join("\n"))
        };

        for p in 0..insts.len() {
            let linear = cfg.blocks.iter().position(|b| b.first <= p && p < b.end);
            assert_eq!(Some(cfg.block_of(p)), linear, "block_of({p}), {}", ctx());
        }

        let blocks = BlockLiveness::solve(func, &cfg);
        for (bi, b) in cfg.blocks.iter().enumerate() {
            let got_in: BTreeSet<VReg> = blocks.live_in(bi).iter().collect();
            let got_out: BTreeSet<VReg> = blocks.live_out(bi).iter().collect();
            assert_eq!(
                got_in,
                want.live_in[b.first],
                "live-in of block {bi}, {}",
                ctx()
            );
            assert_eq!(
                got_out,
                want.live_out[b.end - 1],
                "live-out of block {bi}, {}",
                ctx()
            );
            assert!(got_in.iter().all(|&v| blocks.live_in(bi).contains(v)));
        }

        let live = analyze(func, &cfg);
        assert_eq!(
            live.intervals,
            reference_intervals(&insts, &want),
            "{}",
            ctx()
        );
        let want_calls: Vec<Vec<VReg>> = (0..insts.len())
            .filter(|&p| matches!(insts[p].op, VOp::CallFunc(_)))
            .map(|p| want.live_out[p].iter().copied().collect())
            .collect();
        assert_eq!(live.live_across_calls, want_calls, "{}", ctx());
    }
}
