//! Binary encoding of Patmos bundles.
//!
//! Instructions are 32-bit words. The most significant bit of the *first*
//! word of a bundle is the length bit: when set, the bundle is 64 bits
//! wide and a second word follows (paper, Section 3.1). Register fields
//! sit at fixed positions so the register file can be read in parallel
//! with decoding.
//!
//! Word layout (first and second slot alike):
//!
//! ```text
//!  31   30..28  27     26..22   21..0
//!  SIZE PRED    NEGATE OPCODE   operands
//! ```
//!
//! A bundle whose first slot is `lil` (32-bit immediate load) uses the
//! entire second word as the immediate.

use std::fmt;

use crate::inst::{AluOp, Bundle, CmpOp, Guard, Inst, Op, PredOp, PredSrc};
use crate::mem::{AccessSize, MemArea};
use crate::reg::{Pred, Reg, SpecialReg};

const SIZE_BIT: u32 = 1 << 31;

mod opcode {
    pub const NOP_HALT: u32 = 0;
    pub const ALU_R: u32 = 1;
    pub const ALU_I_BASE: u32 = 2; // 2..=10, one per AluOp
    pub const MUL: u32 = 11;
    pub const LI_LOW: u32 = 12;
    pub const LI_HIGH: u32 = 13;
    pub const LI_LONG: u32 = 14;
    pub const CMP: u32 = 15;
    pub const CMP_I: u32 = 16;
    pub const PRED_SET: u32 = 17;
    pub const LOAD: u32 = 18;
    pub const STORE: u32 = 19;
    pub const MAIN_LOAD: u32 = 20;
    pub const MAIN_WAIT: u32 = 21;
    pub const MAIN_STORE: u32 = 22;
    pub const BR: u32 = 23;
    pub const CALL: u32 = 24;
    pub const CALL_R: u32 = 25;
    pub const RET: u32 = 26;
    pub const SRES: u32 = 27;
    pub const SENS: u32 = 28;
    pub const SFREE: u32 = 29;
    pub const MTS: u32 = 30;
    pub const MFS: u32 = 31;
}

/// The reason a word sequence failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input slice was empty, or the bundle's length bit asked for a
    /// second word that is not there.
    Truncated,
    /// An opcode or sub-field does not correspond to any instruction.
    InvalidEncoding {
        /// The offending word.
        word: u32,
    },
    /// The decoded pair of slots violates the bundle rules (e.g. a
    /// memory operation in the second slot).
    IllegalBundle {
        /// The offending second word.
        word: u32,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("bundle truncated"),
            DecodeError::InvalidEncoding { word } => {
                write!(f, "invalid instruction encoding {word:#010x}")
            }
            DecodeError::IllegalBundle { word } => {
                write!(f, "illegal second-slot instruction {word:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The reason an operation cannot be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldRangeError {
    /// Description of the offending field.
    pub field: &'static str,
    /// The value that does not fit.
    pub value: i64,
}

impl fmt::Display for FieldRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {} does not fit in field {}",
            self.value, self.field
        )
    }
}

impl std::error::Error for FieldRangeError {}

fn check_signed(field: &'static str, value: i64, bits: u32) -> Result<(), FieldRangeError> {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if value < min || value > max {
        return Err(FieldRangeError { field, value });
    }
    Ok(())
}

fn check_unsigned(field: &'static str, value: u64, bits: u32) -> Result<(), FieldRangeError> {
    if value >= (1u64 << bits) {
        return Err(FieldRangeError {
            field,
            value: value as i64,
        });
    }
    Ok(())
}

/// Checks that every immediate and offset of `op` fits its encoding field.
///
/// # Errors
///
/// Returns the first field whose value is out of range.
///
/// # Example
///
/// ```
/// use patmos_isa::{AluOp, Op, Reg};
/// use patmos_isa::encoding::validate_op;
///
/// let ok = Op::AluI { op: AluOp::Add, rd: Reg::R1, rs1: Reg::R1, imm: 2047 };
/// assert!(validate_op(&ok).is_ok());
/// let bad = Op::AluI { op: AluOp::Add, rd: Reg::R1, rs1: Reg::R1, imm: 2048 };
/// assert!(validate_op(&bad).is_err());
/// ```
pub fn validate_op(op: &Op) -> Result<(), FieldRangeError> {
    match *op {
        Op::AluI { imm, .. } => check_signed("aluI immediate (12 bits)", imm as i64, 12),
        Op::CmpI { imm, .. } => check_signed("cmpI immediate (11 bits)", imm as i64, 11),
        Op::Load { offset, .. } | Op::Store { offset, .. } => {
            check_signed("typed access offset (7 bits)", offset as i64, 7)
        }
        Op::MainLoad { offset, .. } | Op::MainStore { offset, .. } => {
            check_signed("main-memory offset (12 bits)", offset as i64, 12)
        }
        Op::Br { offset } | Op::Call { offset } => {
            check_signed("branch offset (22 bits)", offset as i64, 22)
        }
        Op::Sres { words } | Op::Sens { words } | Op::Sfree { words } => {
            check_unsigned("stack-cache size (22 bits)", words as u64, 22)
        }
        _ => Ok(()),
    }
}

fn guard_bits(g: Guard) -> u32 {
    ((g.pred.index() as u32) << 28) | ((g.negate as u32) << 27)
}

fn op_bits(op: &Op) -> u32 {
    let oc = |c: u32| c << 22;
    let r = |r: Reg, pos: u32| (r.index() as u32) << pos;
    let p = |p: Pred, pos: u32| (p.index() as u32) << pos;
    match *op {
        Op::Nop => oc(opcode::NOP_HALT),
        Op::Halt => oc(opcode::NOP_HALT) | 1,
        Op::AluR { op, rd, rs1, rs2 } => {
            oc(opcode::ALU_R) | r(rd, 17) | r(rs1, 12) | r(rs2, 7) | op.code() as u32
        }
        Op::AluI { op, rd, rs1, imm } => {
            oc(opcode::ALU_I_BASE + op.code() as u32)
                | r(rd, 17)
                | r(rs1, 12)
                | ((imm as u32) & 0xfff)
        }
        Op::Mul { rs1, rs2 } => oc(opcode::MUL) | r(rs1, 12) | r(rs2, 7),
        Op::LoadImmLow { rd, imm } => oc(opcode::LI_LOW) | r(rd, 17) | imm as u32,
        Op::LoadImmHigh { rd, imm } => oc(opcode::LI_HIGH) | r(rd, 17) | imm as u32,
        Op::LoadImm32 { rd, .. } => oc(opcode::LI_LONG) | r(rd, 17),
        Op::Cmp { op, pd, rs1, rs2 } => {
            oc(opcode::CMP) | ((op.code() as u32) << 19) | p(pd, 16) | r(rs1, 11) | r(rs2, 6)
        }
        Op::CmpI { op, pd, rs1, imm } => {
            oc(opcode::CMP_I)
                | ((op.code() as u32) << 19)
                | p(pd, 16)
                | r(rs1, 11)
                | ((imm as u32) & 0x7ff)
        }
        Op::PredSet { op, pd, p1, p2 } => {
            oc(opcode::PRED_SET)
                | ((op.code() as u32) << 20)
                | p(pd, 16)
                | ((p1.negate as u32) << 15)
                | p(p1.pred, 12)
                | ((p2.negate as u32) << 11)
                | p(p2.pred, 8)
        }
        Op::Load {
            area,
            size,
            rd,
            ra,
            offset,
        } => {
            oc(opcode::LOAD)
                | ((area.code() as u32) << 19)
                | ((size.code() as u32) << 17)
                | r(rd, 12)
                | r(ra, 7)
                | ((offset as u32) & 0x7f)
        }
        Op::Store {
            area,
            size,
            ra,
            offset,
            rs,
        } => {
            oc(opcode::STORE)
                | ((area.code() as u32) << 19)
                | ((size.code() as u32) << 17)
                | r(rs, 12)
                | r(ra, 7)
                | ((offset as u32) & 0x7f)
        }
        Op::MainLoad { ra, offset } => {
            oc(opcode::MAIN_LOAD) | r(ra, 17) | ((offset as u32) & 0xfff)
        }
        Op::MainWait { rd } => oc(opcode::MAIN_WAIT) | r(rd, 17),
        Op::MainStore { ra, offset, rs } => {
            oc(opcode::MAIN_STORE) | r(rs, 17) | r(ra, 12) | ((offset as u32) & 0xfff)
        }
        Op::Br { offset } => oc(opcode::BR) | ((offset as u32) & 0x3f_ffff),
        Op::Call { offset } => oc(opcode::CALL) | ((offset as u32) & 0x3f_ffff),
        Op::CallR { rs } => oc(opcode::CALL_R) | r(rs, 17),
        Op::Ret => oc(opcode::RET),
        Op::Sres { words } => oc(opcode::SRES) | (words & 0x3f_ffff),
        Op::Sens { words } => oc(opcode::SENS) | (words & 0x3f_ffff),
        Op::Sfree { words } => oc(opcode::SFREE) | (words & 0x3f_ffff),
        Op::Mts { sd, rs } => oc(opcode::MTS) | ((sd.code() as u32) << 18) | r(rs, 13),
        Op::Mfs { rd, ss } => oc(opcode::MFS) | r(rd, 17) | ((ss.code() as u32) << 13),
    }
}

fn encode_inst(inst: &Inst) -> u32 {
    guard_bits(inst.guard) | op_bits(&inst.op)
}

/// The one or two 32-bit words a bundle encodes to, held inline: a
/// slice of them by [`Deref`](std::ops::Deref), or the words in order by
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BundleWords {
    words: [u32; 2],
    len: usize,
}

impl std::ops::Deref for BundleWords {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.words[..self.len]
    }
}

impl IntoIterator for BundleWords {
    type Item = u32;
    type IntoIter = std::iter::Take<std::array::IntoIter<u32, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.words.into_iter().take(self.len)
    }
}

/// Encodes a bundle into one or two 32-bit words.
///
/// # Panics
///
/// Panics if an immediate or offset is out of range for its field; call
/// [`validate_op`] first when handling untrusted input.
///
/// # Example
///
/// ```
/// use patmos_isa::{encode, Bundle, Inst, Op};
/// let words = encode(&Bundle::single(Inst::always(Op::Ret)));
/// assert_eq!(words.len(), 1);
/// ```
pub fn encode(bundle: &Bundle) -> BundleWords {
    for inst in bundle.slots() {
        if let Err(e) = validate_op(&inst.op) {
            panic!("cannot encode `{inst}`: {e}");
        }
    }
    let (words, len) = match (bundle.first(), bundle.second()) {
        (first, None) => {
            if let Op::LoadImm32 { imm, .. } = first.op {
                ([encode_inst(first) | SIZE_BIT, imm], 2)
            } else {
                ([encode_inst(first), 0], 1)
            }
        }
        (first, Some(second)) => ([encode_inst(first) | SIZE_BIT, encode_inst(second)], 2),
    };
    BundleWords { words, len }
}

fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn decode_reg(word: u32, pos: u32) -> Reg {
    Reg::from_index(((word >> pos) & 0x1f) as u8)
}

fn decode_pred(word: u32, pos: u32) -> Pred {
    Pred::from_index(((word >> pos) & 0x7) as u8)
}

fn decode_op(word: u32) -> Result<Op, DecodeError> {
    let invalid = || DecodeError::InvalidEncoding { word };
    let oc = (word >> 22) & 0x1f;
    Ok(match oc {
        opcode::NOP_HALT => {
            if word & 1 == 0 {
                Op::Nop
            } else {
                Op::Halt
            }
        }
        opcode::ALU_R => Op::AluR {
            op: AluOp::from_code((word & 0xf) as u8).ok_or_else(invalid)?,
            rd: decode_reg(word, 17),
            rs1: decode_reg(word, 12),
            rs2: decode_reg(word, 7),
        },
        c if (opcode::ALU_I_BASE..opcode::ALU_I_BASE + 9).contains(&c) => Op::AluI {
            op: AluOp::from_code((c - opcode::ALU_I_BASE) as u8).ok_or_else(invalid)?,
            rd: decode_reg(word, 17),
            rs1: decode_reg(word, 12),
            imm: sign_extend(word & 0xfff, 12) as i16,
        },
        opcode::MUL => Op::Mul {
            rs1: decode_reg(word, 12),
            rs2: decode_reg(word, 7),
        },
        opcode::LI_LOW => Op::LoadImmLow {
            rd: decode_reg(word, 17),
            imm: (word & 0xffff) as u16,
        },
        opcode::LI_HIGH => Op::LoadImmHigh {
            rd: decode_reg(word, 17),
            imm: (word & 0xffff) as u16,
        },
        opcode::LI_LONG => Op::LoadImm32 {
            rd: decode_reg(word, 17),
            imm: 0,
        },
        opcode::CMP => Op::Cmp {
            op: CmpOp::from_code(((word >> 19) & 0x7) as u8).ok_or_else(invalid)?,
            pd: decode_pred(word, 16),
            rs1: decode_reg(word, 11),
            rs2: decode_reg(word, 6),
        },
        opcode::CMP_I => Op::CmpI {
            op: CmpOp::from_code(((word >> 19) & 0x7) as u8).ok_or_else(invalid)?,
            pd: decode_pred(word, 16),
            rs1: decode_reg(word, 11),
            imm: sign_extend(word & 0x7ff, 11) as i16,
        },
        opcode::PRED_SET => Op::PredSet {
            op: PredOp::from_code(((word >> 20) & 0x3) as u8).ok_or_else(invalid)?,
            pd: decode_pred(word, 16),
            p1: PredSrc {
                pred: decode_pred(word, 12),
                negate: (word >> 15) & 1 == 1,
            },
            p2: PredSrc {
                pred: decode_pred(word, 8),
                negate: (word >> 11) & 1 == 1,
            },
        },
        opcode::LOAD => Op::Load {
            area: MemArea::from_code(((word >> 19) & 0x7) as u8).ok_or_else(invalid)?,
            size: AccessSize::from_code(((word >> 17) & 0x3) as u8).ok_or_else(invalid)?,
            rd: decode_reg(word, 12),
            ra: decode_reg(word, 7),
            offset: sign_extend(word & 0x7f, 7) as i16,
        },
        opcode::STORE => Op::Store {
            area: MemArea::from_code(((word >> 19) & 0x7) as u8).ok_or_else(invalid)?,
            size: AccessSize::from_code(((word >> 17) & 0x3) as u8).ok_or_else(invalid)?,
            rs: decode_reg(word, 12),
            ra: decode_reg(word, 7),
            offset: sign_extend(word & 0x7f, 7) as i16,
        },
        opcode::MAIN_LOAD => Op::MainLoad {
            ra: decode_reg(word, 17),
            offset: sign_extend(word & 0xfff, 12) as i16,
        },
        opcode::MAIN_WAIT => Op::MainWait {
            rd: decode_reg(word, 17),
        },
        opcode::MAIN_STORE => Op::MainStore {
            rs: decode_reg(word, 17),
            ra: decode_reg(word, 12),
            offset: sign_extend(word & 0xfff, 12) as i16,
        },
        opcode::BR => Op::Br {
            offset: sign_extend(word & 0x3f_ffff, 22),
        },
        opcode::CALL => Op::Call {
            offset: sign_extend(word & 0x3f_ffff, 22),
        },
        opcode::CALL_R => Op::CallR {
            rs: decode_reg(word, 17),
        },
        opcode::RET => Op::Ret,
        opcode::SRES => Op::Sres {
            words: word & 0x3f_ffff,
        },
        opcode::SENS => Op::Sens {
            words: word & 0x3f_ffff,
        },
        opcode::SFREE => Op::Sfree {
            words: word & 0x3f_ffff,
        },
        opcode::MTS => Op::Mts {
            sd: SpecialReg::from_code(((word >> 18) & 0xf) as u8).ok_or_else(invalid)?,
            rs: decode_reg(word, 13),
        },
        opcode::MFS => Op::Mfs {
            rd: decode_reg(word, 17),
            ss: SpecialReg::from_code(((word >> 13) & 0xf) as u8).ok_or_else(invalid)?,
        },
        _ => return Err(invalid()),
    })
}

fn decode_inst(word: u32) -> Result<Inst, DecodeError> {
    let guard = Guard {
        pred: Pred::from_index(((word >> 28) & 0x7) as u8),
        negate: (word >> 27) & 1 == 1,
    };
    Ok(Inst {
        guard,
        op: decode_op(word)?,
    })
}

/// Decodes one bundle from the start of `words`.
///
/// Returns the bundle and the number of words consumed (1 or 2); the
/// length is taken from the first word's size bit.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] when `words` does not hold the whole
/// bundle, [`DecodeError::InvalidEncoding`] for an unknown opcode or
/// sub-field, and [`DecodeError::IllegalBundle`] when the second slot
/// holds a first-slot-only operation.
///
/// # Example
///
/// ```
/// use patmos_isa::{decode, encode, Bundle, Inst, Op, Reg};
///
/// # fn main() -> Result<(), patmos_isa::DecodeError> {
/// let bundle = Bundle::single(Inst::always(Op::LoadImm32 { rd: Reg::R1, imm: 99 }));
/// let words = encode(&bundle);
/// let (back, consumed) = decode(&words)?;
/// assert_eq!(back, bundle);
/// assert_eq!(consumed, 2);
/// # Ok(())
/// # }
/// ```
pub fn decode(words: &[u32]) -> Result<(Bundle, usize), DecodeError> {
    let &first_word = words.first().ok_or(DecodeError::Truncated)?;
    let first = decode_inst(first_word)?;
    if first_word & SIZE_BIT == 0 {
        if matches!(first.op, Op::LoadImm32 { .. }) {
            // A long immediate must have its size bit set.
            return Err(DecodeError::InvalidEncoding { word: first_word });
        }
        return Ok((Bundle::single(first), 1));
    }
    let &second_word = words.get(1).ok_or(DecodeError::Truncated)?;
    if let Op::LoadImm32 { rd, .. } = first.op {
        let inst = Inst::new(
            first.guard,
            Op::LoadImm32 {
                rd,
                imm: second_word,
            },
        );
        return Ok((Bundle::single(inst), 2));
    }
    let second = decode_inst(second_word)?;
    let bundle = Bundle::try_pair(first, second)
        .map_err(|_| DecodeError::IllegalBundle { word: second_word })?;
    Ok((bundle, 2))
}

/// Decodes a whole image of words into bundles with their word addresses.
///
/// # Errors
///
/// Propagates the first [`DecodeError`] encountered.
pub fn decode_all(words: &[u32]) -> Result<Vec<(u32, Bundle)>, DecodeError> {
    let mut out = Vec::new();
    let mut addr = 0usize;
    while addr < words.len() {
        let (bundle, used) = decode(&words[addr..])?;
        out.push((addr as u32, bundle));
        addr += used;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Bundle, CmpOp, Guard, Inst, Op, PredOp, PredSrc};

    fn round_trip(bundle: Bundle) {
        let words = encode(&bundle);
        let (decoded, used) = decode(&words).expect("decodes");
        assert_eq!(decoded, bundle, "words: {words:08x?}");
        assert_eq!(used, words.len());
    }

    #[test]
    fn round_trip_every_op_shape() {
        let ops = [
            Op::Nop,
            Op::Halt,
            Op::AluR {
                op: AluOp::Nor,
                rd: Reg::R5,
                rs1: Reg::R6,
                rs2: Reg::R7,
            },
            Op::AluI {
                op: AluOp::Sra,
                rd: Reg::R1,
                rs1: Reg::R2,
                imm: -2048,
            },
            Op::AluI {
                op: AluOp::Add,
                rd: Reg::R1,
                rs1: Reg::R2,
                imm: 2047,
            },
            Op::Mul {
                rs1: Reg::R3,
                rs2: Reg::R4,
            },
            Op::LoadImmLow {
                rd: Reg::R9,
                imm: 0xffff,
            },
            Op::LoadImmHigh {
                rd: Reg::R9,
                imm: 0x8000,
            },
            Op::Cmp {
                op: CmpOp::Ule,
                pd: Pred::P7,
                rs1: Reg::R31,
                rs2: Reg::R1,
            },
            Op::CmpI {
                op: CmpOp::Lt,
                pd: Pred::P3,
                rs1: Reg::R2,
                imm: -1024,
            },
            Op::PredSet {
                op: PredOp::Xor,
                pd: Pred::P1,
                p1: PredSrc::negated(Pred::P2),
                p2: PredSrc::plain(Pred::P3),
            },
            Op::Load {
                area: MemArea::Spm,
                size: AccessSize::Half,
                rd: Reg::R8,
                ra: Reg::R9,
                offset: -64,
            },
            Op::Store {
                area: MemArea::Data,
                size: AccessSize::Byte,
                ra: Reg::R10,
                offset: 63,
                rs: Reg::R11,
            },
            Op::MainLoad {
                ra: Reg::R1,
                offset: -2048,
            },
            Op::MainWait { rd: Reg::R2 },
            Op::MainStore {
                ra: Reg::R1,
                offset: 2047,
                rs: Reg::R3,
            },
            Op::Br { offset: -(1 << 21) },
            Op::Call {
                offset: (1 << 21) - 1,
            },
            Op::CallR { rs: Reg::R12 },
            Op::Ret,
            Op::Sres { words: 0x3f_ffff },
            Op::Sens { words: 1 },
            Op::Sfree { words: 0 },
            Op::Mts {
                sd: SpecialReg::Ss,
                rs: Reg::R4,
            },
            Op::Mfs {
                rd: Reg::R5,
                ss: SpecialReg::Sh,
            },
        ];
        for op in ops {
            round_trip(Bundle::single(Inst::always(op)));
            round_trip(Bundle::single(Inst::new(
                Guard {
                    pred: Pred::P5,
                    negate: true,
                },
                op,
            )));
        }
    }

    #[test]
    fn round_trip_long_immediate() {
        for imm in [0, 1, 0xdead_beef, u32::MAX] {
            round_trip(Bundle::single(Inst::always(Op::LoadImm32 {
                rd: Reg::R7,
                imm,
            })));
        }
    }

    #[test]
    fn round_trip_pair() {
        round_trip(Bundle::pair(
            Inst::always(Op::Load {
                area: MemArea::Stack,
                size: AccessSize::Word,
                rd: Reg::R1,
                ra: Reg::R2,
                offset: 3,
            }),
            Inst::when(
                Pred::P2,
                Op::AluR {
                    op: AluOp::Sub,
                    rd: Reg::R4,
                    rs1: Reg::R5,
                    rs2: Reg::R6,
                },
            ),
        ));
    }

    #[test]
    fn truncated_input() {
        assert_eq!(decode(&[]).unwrap_err(), DecodeError::Truncated);
        let words = encode(&Bundle::pair(Inst::always(Op::Nop), Inst::always(Op::Nop)));
        assert_eq!(decode(&words[..1]).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn illegal_second_slot_rejected() {
        // Hand-craft a 64-bit bundle whose second word is a `ret`.
        let first = encode(&Bundle::single(Inst::always(Op::Nop)))[0] | SIZE_BIT;
        let second = encode(&Bundle::single(Inst::always(Op::Ret)))[0];
        match decode(&[first, second]) {
            Err(DecodeError::IllegalBundle { .. }) => {}
            other => panic!("expected IllegalBundle, got {other:?}"),
        }
    }

    #[test]
    fn validate_op_catches_ranges() {
        assert!(validate_op(&Op::Br { offset: 1 << 21 }).is_err());
        assert!(validate_op(&Op::Br {
            offset: (1 << 21) - 1
        })
        .is_ok());
        assert!(validate_op(&Op::Load {
            area: MemArea::Stack,
            size: AccessSize::Word,
            rd: Reg::R1,
            ra: Reg::R2,
            offset: 64,
        })
        .is_err());
    }

    #[test]
    fn decode_all_walks_image() {
        let mut words = Vec::new();
        words.extend(encode(&Bundle::single(Inst::always(Op::Nop))));
        words.extend(encode(&Bundle::single(Inst::always(Op::LoadImm32 {
            rd: Reg::R1,
            imm: 7,
        }))));
        words.extend(encode(&Bundle::single(Inst::always(Op::Halt))));
        let bundles = decode_all(&words).expect("decodes");
        assert_eq!(bundles.len(), 3);
        assert_eq!(bundles[0].0, 0);
        assert_eq!(bundles[1].0, 1);
        assert_eq!(bundles[2].0, 3);
    }
}
