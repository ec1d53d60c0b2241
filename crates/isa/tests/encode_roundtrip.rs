//! Property tests: every constructible bundle survives an encode/decode
//! round trip, arbitrary words never panic the decoder, the operand
//! rewriters agree with the def/use table, and `map_regs` and the
//! printer agree with them over any register type.

use std::cell::Cell;
use std::fmt;

use proptest::prelude::*;

use patmos_isa::{
    decode, encode, AccessSize, AluOp, Bundle, CmpOp, Guard, Inst, MemArea, Op, Pred, PredOp,
    PredSrc, Reg, SpecialReg,
};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::from_index)
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    (0u8..8).prop_map(Pred::from_index)
}

fn arb_guard() -> impl Strategy<Value = Guard> {
    (arb_pred(), any::<bool>()).prop_map(|(pred, negate)| Guard { pred, negate })
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop::sample::select(AluOp::ALL.to_vec())
}

fn arb_cmp_op() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(CmpOp::ALL.to_vec())
}

fn arb_area() -> impl Strategy<Value = MemArea> {
    prop::sample::select(MemArea::ALL.to_vec())
}

fn arb_size() -> impl Strategy<Value = AccessSize> {
    prop::sample::select(AccessSize::ALL.to_vec())
}

fn arb_pred_src() -> impl Strategy<Value = PredSrc> {
    (arb_pred(), any::<bool>()).prop_map(|(pred, negate)| PredSrc { pred, negate })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Nop),
        Just(Op::Halt),
        Just(Op::Ret),
        (arb_alu_op(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| Op::AluR {
            op,
            rd,
            rs1,
            rs2
        }),
        (arb_alu_op(), arb_reg(), arb_reg(), -2048i16..=2047)
            .prop_map(|(op, rd, rs1, imm)| Op::AluI { op, rd, rs1, imm }),
        (arb_reg(), arb_reg()).prop_map(|(rs1, rs2)| Op::Mul { rs1, rs2 }),
        (arb_reg(), any::<u16>()).prop_map(|(rd, imm)| Op::LoadImmLow { rd, imm }),
        (arb_reg(), any::<u16>()).prop_map(|(rd, imm)| Op::LoadImmHigh { rd, imm }),
        (arb_reg(), any::<u32>()).prop_map(|(rd, imm)| Op::LoadImm32 { rd, imm }),
        (arb_cmp_op(), arb_pred(), arb_reg(), arb_reg()).prop_map(|(op, pd, rs1, rs2)| Op::Cmp {
            op,
            pd,
            rs1,
            rs2
        }),
        (arb_cmp_op(), arb_pred(), arb_reg(), -1024i16..=1023)
            .prop_map(|(op, pd, rs1, imm)| Op::CmpI { op, pd, rs1, imm }),
        (
            prop::sample::select(PredOp::ALL.to_vec()),
            arb_pred(),
            arb_pred_src(),
            arb_pred_src()
        )
            .prop_map(|(op, pd, p1, p2)| Op::PredSet { op, pd, p1, p2 }),
        (arb_area(), arb_size(), arb_reg(), arb_reg(), -64i16..=63).prop_map(
            |(area, size, rd, ra, offset)| Op::Load {
                area,
                size,
                rd,
                ra,
                offset
            }
        ),
        (arb_area(), arb_size(), arb_reg(), -64i16..=63, arb_reg()).prop_map(
            |(area, size, ra, offset, rs)| Op::Store {
                area,
                size,
                ra,
                offset,
                rs
            }
        ),
        (arb_reg(), -2048i16..=2047).prop_map(|(ra, offset)| Op::MainLoad { ra, offset }),
        arb_reg().prop_map(|rd| Op::MainWait { rd }),
        (arb_reg(), -2048i16..=2047, arb_reg()).prop_map(|(ra, offset, rs)| Op::MainStore {
            ra,
            offset,
            rs
        }),
        (-(1i32 << 21)..(1 << 21)).prop_map(|offset| Op::Br { offset }),
        (-(1i32 << 21)..(1 << 21)).prop_map(|offset| Op::Call { offset }),
        arb_reg().prop_map(|rs| Op::CallR { rs }),
        (0u32..(1 << 22)).prop_map(|words| Op::Sres { words }),
        (0u32..(1 << 22)).prop_map(|words| Op::Sens { words }),
        (0u32..(1 << 22)).prop_map(|words| Op::Sfree { words }),
        (prop::sample::select(SpecialReg::ALL.to_vec()), arb_reg())
            .prop_map(|(sd, rs)| Op::Mts { sd, rs }),
        (arb_reg(), prop::sample::select(SpecialReg::ALL.to_vec()))
            .prop_map(|(rd, ss)| Op::Mfs { rd, ss }),
    ]
}

/// A register that prints as `Reg` does, counting its prints.
#[derive(Clone, Copy)]
struct Shown<'a>(Reg, &'a Cell<usize>);

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.1.set(self.1.get() + 1);
        self.0.fmt(f)
    }
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    (arb_guard(), arb_op()).prop_map(|(guard, op)| Inst { guard, op })
}

proptest! {
    #[test]
    fn single_bundle_round_trips(inst in arb_inst()) {
        let bundle = Bundle::single(inst);
        let words = encode(&bundle);
        let (decoded, used) = decode(&words).expect("decodes");
        prop_assert_eq!(decoded, bundle);
        prop_assert_eq!(used, words.len());
    }

    #[test]
    fn pair_bundle_round_trips(first in arb_inst(), second in arb_inst()) {
        if let Ok(bundle) = Bundle::try_pair(first, second) {
            let words = encode(&bundle);
            let (decoded, used) = decode(&words).expect("decodes");
            prop_assert_eq!(decoded, bundle);
            prop_assert_eq!(used, 2);
        }
    }

    #[test]
    fn decoder_never_panics(words in prop::collection::vec(any::<u32>(), 1..4)) {
        let _ = decode(&words);
    }

    #[test]
    fn decode_is_idempotent(words in prop::collection::vec(any::<u32>(), 2)) {
        // Whatever decodes must re-encode to words that decode to the same
        // bundle (don't-care bits are canonicalised to zero on re-encode).
        if let Ok((bundle, _)) = decode(&words) {
            let back = encode(&bundle);
            let (again, _) = decode(&back).expect("re-encoded bundle decodes");
            prop_assert_eq!(again, bundle);
        }
    }
}

proptest! {
    // An op writes `r0` in about one case in 100; enough cases that the
    // zero-destination rule is exercised on every run.
    #![proptest_config(ProptestConfig::with_cases(2048))]
    #[test]
    fn map_uses_rewrites_exactly_the_reported_uses(op in arb_op()) {
        // `ret` reads the link register implicitly, through no field.
        let explicit: Vec<Reg> = match op {
            Op::Ret => Vec::new(),
            _ => op.uses().into_iter().flatten().collect(),
        };
        let mut seen = Vec::new();
        let mut same = op;
        same.map_uses(|r| {
            seen.push(r);
            r
        });
        prop_assert_eq!(same, op);
        prop_assert_eq!(seen, explicit);
        // A register bijection moves the reported uses, and its inverse
        // restores the op: no other field was touched.
        let shift = |r: Reg| Reg::from_index((r.index() + 1) % 32);
        let mut moved = op;
        moved.map_uses(shift);
        if op != Op::Ret {
            prop_assert_eq!(moved.uses(), op.uses().map(|u| u.map(shift)));
        }
        moved.map_uses(|r| Reg::from_index((r.index() + 31) % 32));
        prop_assert_eq!(moved, op);
    }

    #[test]
    fn map_regs_is_the_one_register_map_and_the_printer_reads_it(op in arb_op()) {
        // An injective map onto another register type and back restores
        // the op: every register field is mapped, and nothing else.
        let up = |r: Reg| u32::from(r.index()) + 100;
        let wide: Op<u32> = op.map_regs(up);
        prop_assert_eq!(wide.map_regs(|w| Reg::from_index((w - 100) as u8)), op);
        // The field queries commute with the map.
        prop_assert_eq!(wide.dest(), op.dest().map(up));
        prop_assert_eq!(wide.sources(), op.sources().map(|s| s.map(up)));
        // Over a register type that prints like `Reg`, the op prints as
        // itself, printing each register field exactly once.
        let mut fields = 0;
        let _ = op.map_regs(|r| {
            fields += 1;
            r
        });
        let printed = Cell::new(0);
        let shown = op.map_regs(|r| Shown(r, &printed));
        prop_assert_eq!(shown.to_string(), op.to_string());
        prop_assert_eq!(printed.get(), fields);
        prop_assert_eq!(Inst::always(op).to_string(), op.to_string());
    }

    #[test]
    fn set_def_rewrites_exactly_the_reported_def(
        op in arb_op(),
        new in (1u8..32).prop_map(Reg::from_index),
    ) {
        // Calls write the link register implicitly, through no field.
        let implicit = matches!(op, Op::Call { .. } | Op::CallR { .. });
        let mut moved = op;
        let wrote = moved.set_def(new);
        match op.def() {
            Some(old) if !implicit => {
                prop_assert!(wrote);
                prop_assert_eq!(moved.def(), Some(new));
                // Setting the old register back restores the op: only
                // the def moved.
                prop_assert!(moved.set_def(old));
                prop_assert_eq!(moved, op);
            }
            _ => {
                prop_assert!(!wrote);
                prop_assert_eq!(moved, op);
            }
        }
    }
}
