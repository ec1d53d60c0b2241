//! The assembler: text to an [`AsmModule`] ([`parse`]), and the two
//! passes that lay a module out and encode it ([`link`]).

use std::collections::HashMap;
use std::fmt;

use patmos_isa::{
    encode, encoding::validate_op, AccessSize, AluOp, Bundle, CmpOp, Guard, Inst, MemArea, Op,
    Pred, PredOp, PredSrc, Reg, SpecialReg,
};

use crate::lexer::{tokenize_line, Token};
use crate::module::{AsmInst, AsmModule, Line, Operand, Stmt};
use crate::object::{
    DataSegment, FuncInfo, LoopBound, ObjectImage, PipeLoop, SourceFunc, SourceInfo, SourceLoop,
};

/// An assembly error with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// Assembles a complete program into an [`ObjectImage`]: [`link`] of
/// [`parse`].
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for lexical errors,
/// unknown mnemonics, malformed operands, out-of-range immediates,
/// undefined or duplicate symbols, calls to non-function labels, and
/// branches that leave their function.
pub fn assemble(source: &str) -> Result<ObjectImage, AsmError> {
    link(&parse(source)?)
}

/// Parses assembly text into an [`AsmModule`], each statement numbered
/// by its source line.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for lexical errors,
/// unknown mnemonics or directives, and malformed or out-of-range
/// operands. Everything that needs the whole program is left to
/// [`link`].
pub fn parse(source: &str) -> Result<AsmModule, AsmError> {
    let mut lines = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let number = idx + 1;
        let tokens = tokenize_line(raw).map_err(|message| AsmError {
            line: number,
            message,
        })?;
        if tokens.is_empty() {
            continue;
        }
        for stmt in parse_statements(&tokens).map_err(|message| AsmError {
            line: number,
            message,
        })? {
            lines.push(Line { number, stmt });
        }
    }
    Ok(AsmModule { lines })
}

/// Lays out and encodes a module: the assembler's two passes. Every
/// check on a statement lives here, so a module built without
/// [`parse`] is held to the same rules as text.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the statement's line for undefined or
/// duplicate symbols, data directives outside a segment and
/// instructions outside a function, segments past the address space or
/// the segment limit, a `.loopbound` whose min exceeds its max, a
/// `.pipeloop` with a zero II or stage count, bundles of other than one
/// or two instructions, literals text cannot spell, operations that do
/// not encode or pair, `br`/`call` without a target operand, calls to
/// non-function labels, and branches that leave their function.
pub fn link(module: &AsmModule) -> Result<ObjectImage, AsmError> {
    let lines = &module.lines;

    // Pass 1: addresses, symbols, functions, annotations.
    let mut symbols: HashMap<String, u32> = HashMap::new();
    let mut functions: Vec<FuncInfo> = Vec::new();
    let mut loop_bounds: Vec<LoopBound> = Vec::new();
    let mut src_funcs: Vec<(String, u32, usize)> = Vec::new();
    let mut src_loops: Vec<(u32, String, String, usize)> = Vec::new();
    let mut raw_pipe_loops: Vec<(&PipeLoop<String>, usize)> = Vec::new();
    let mut entry_name: Option<(String, usize)> = None;
    let mut addr: u32 = 0;
    // The data segment being laid out; `None` in code.
    let mut segment: Option<OpenSegment> = None;

    let define = |symbols: &mut HashMap<String, u32>, name: &str, value: u32, line: usize| {
        if symbols.insert(name.to_string(), value).is_some() {
            return Err(AsmError {
                line,
                message: format!("duplicate symbol `{name}`"),
            });
        }
        Ok(())
    };

    for line in lines {
        match &line.stmt {
            Stmt::Label(name) => {
                let value = segment.as_ref().map_or(addr, |seg| seg.end);
                define(&mut symbols, name, value, line.number)?;
            }
            Stmt::Func(name) => {
                segment = None;
                if let Some(prev) = functions.last_mut() {
                    prev.size_words = addr - prev.start_word;
                }
                define(&mut symbols, name, addr, line.number)?;
                functions.push(FuncInfo {
                    name: name.clone(),
                    start_word: addr,
                    size_words: 0,
                });
            }
            Stmt::Entry(name) => entry_name = Some((name.clone(), line.number)),
            Stmt::Data { name, addr: a } => {
                segment = Some(OpenSegment {
                    name,
                    start: *a,
                    end: *a,
                });
                define(&mut symbols, name, *a, line.number)?;
            }
            Stmt::Words(ws) => {
                let Some(seg) = segment.as_mut() else {
                    return Err(AsmError {
                        line: line.number,
                        message: ".word outside a .data segment".into(),
                    });
                };
                non_empty(ws, ".word", line.number)?;
                seg.grow(ws.len(), 4, line.number)?;
            }
            Stmt::Bytes(bs) => {
                let Some(seg) = segment.as_mut() else {
                    return Err(AsmError {
                        line: line.number,
                        message: ".byte outside a .data segment".into(),
                    });
                };
                non_empty(bs, ".byte", line.number)?;
                seg.grow(bs.len(), 1, line.number)?;
            }
            Stmt::Space(n) => {
                let Some(seg) = segment.as_mut() else {
                    return Err(AsmError {
                        line: line.number,
                        message: ".space outside a .data segment".into(),
                    });
                };
                seg.grow(*n as usize, 1, line.number)?;
            }
            Stmt::Equ { name, value } => {
                let value = literal(*value, line.number)?;
                define(&mut symbols, name, value as u32, line.number)?;
            }
            Stmt::LoopBound { min, max } => {
                if min > max {
                    return Err(AsmError {
                        line: line.number,
                        message: "loop bound min exceeds max".into(),
                    });
                }
                loop_bounds.push(LoopBound {
                    addr,
                    min: *min,
                    max: *max,
                });
            }
            Stmt::SrcFunc { name, line: l } => {
                src_funcs.push((name.clone(), *l, line.number));
            }
            Stmt::SrcLoop {
                line: l,
                start,
                end,
            } => {
                src_loops.push((*l, start.clone(), end.clone(), line.number));
            }
            Stmt::PipeLoop(record) => {
                if record.ii == 0 || record.stages == 0 {
                    return Err(AsmError {
                        line: line.number,
                        message: "pipeloop II and stage count must be positive".into(),
                    });
                }
                raw_pipe_loops.push((record, line.number));
            }
            Stmt::Bundle(insts) => {
                if segment.is_some() {
                    return Err(AsmError {
                        line: line.number,
                        message: "instruction inside a .data segment".into(),
                    });
                }
                if functions.is_empty() {
                    return Err(AsmError {
                        line: line.number,
                        message: "instruction before the first .func".into(),
                    });
                }
                let width = match insts.as_slice() {
                    [only] if only.shape().op.fills_bundle() => 2,
                    [_] => 1,
                    [_, _] => 2,
                    _ => {
                        return Err(AsmError {
                            line: line.number,
                            message: format!(
                                "a bundle holds 1 or 2 instructions, not {}",
                                insts.len()
                            ),
                        })
                    }
                };
                addr += width;
            }
        }
    }
    if let Some(prev) = functions.last_mut() {
        prev.size_words = addr - prev.start_word;
    }
    let code_words = addr as usize;

    // Source map: resolvable only now that every label has an address.
    let mut source = SourceInfo::default();
    for (name, src_line, line) in src_funcs {
        if !functions.iter().any(|f| f.name == name) {
            return Err(AsmError {
                line,
                message: format!(".srcfunc names unknown function `{name}`"),
            });
        }
        source.funcs.push(SourceFunc {
            name,
            line: src_line,
        });
    }
    for (src_line, start, end, line) in src_loops {
        let lookup = |name: &str| {
            symbols.get(name).copied().ok_or_else(|| AsmError {
                line,
                message: format!(".srcloop references undefined label `{name}`"),
            })
        };
        let start_word = lookup(&start)?;
        let end_word = lookup(&end)?;
        if end_word < start_word {
            return Err(AsmError {
                line,
                message: format!(".srcloop region `{start}`..`{end}` is reversed"),
            });
        }
        source.loops.push(SourceLoop {
            line: src_line,
            start_word,
            end_word,
        });
    }
    let mut pipe_loops: Vec<PipeLoop> = Vec::new();
    for (record, line) in raw_pipe_loops {
        pipe_loops.push(record.try_map(|name| {
            symbols.get(name).copied().ok_or_else(|| AsmError {
                line,
                message: format!(".pipeloop references undefined label `{name}`"),
            })
        })?);
    }

    // Pass 2: encode.
    let resolve = |operand: &Operand, line: usize| -> Result<i64, AsmError> {
        match operand {
            Operand::Val(v) => literal(*v, line),
            Operand::Sym(name) => symbols
                .get(name)
                .map(|&v| v as i64)
                .ok_or_else(|| AsmError {
                    line,
                    message: format!("undefined symbol `{name}`"),
                }),
        }
    };

    let mut code: Vec<u32> = Vec::with_capacity(code_words);
    let mut data: Vec<DataSegment> = Vec::new();
    let mut addr: u32 = 0;
    // Pass 1 rejected data directives outside a segment; re-check here
    // rather than coupling this pass to that invariant with a panic.
    let open_segment = |data: &mut Vec<DataSegment>, number: usize| -> Result<usize, AsmError> {
        match data.len().checked_sub(1) {
            Some(i) => Ok(i),
            None => Err(AsmError {
                line: number,
                message: "data directive outside a .data segment".into(),
            }),
        }
    };
    for line in lines {
        match &line.stmt {
            Stmt::Data { name, addr: a } => {
                data.push(DataSegment {
                    name: name.clone(),
                    addr: *a,
                    bytes: Vec::new(),
                });
            }
            Stmt::Words(ws) => {
                let seg = open_segment(&mut data, line.number)?;
                for w in ws {
                    let v = resolve(w, line.number)? as u32;
                    data[seg].bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
            Stmt::Bytes(bs) => {
                let seg = open_segment(&mut data, line.number)?;
                for b in bs {
                    data[seg].bytes.push(literal(*b, line.number)? as u8);
                }
            }
            Stmt::Space(n) => {
                let seg = open_segment(&mut data, line.number)?;
                data[seg]
                    .bytes
                    .extend(std::iter::repeat_n(0u8, *n as usize));
            }
            Stmt::Bundle(insts) => {
                // Pass 1 admitted one or two instructions: resolve them
                // into a fixed pair of slots.
                let mut resolved: [Option<Inst>; 2] = [None; 2];
                for (slot, p) in insts.iter().enumerate() {
                    let inst = match p {
                        AsmInst::Ready(i) if matches!(i.op, Op::Br { .. } | Op::Call { .. }) => {
                            return Err(AsmError {
                                line: line.number,
                                message: "a `br` or `call` needs a target operand, not a \
                                          resolved offset"
                                    .into(),
                            })
                        }
                        AsmInst::Ready(i) => *i,
                        AsmInst::Flow {
                            guard,
                            call,
                            target,
                        } => {
                            let target_word = resolve(target, line.number)? as u32;
                            let offset = target_word as i64 - addr as i64;
                            if *call {
                                if !functions.iter().any(|f| f.start_word == target_word) {
                                    return Err(AsmError {
                                        line: line.number,
                                        message: "call target is not a function entry".into(),
                                    });
                                }
                                Inst::new(
                                    *guard,
                                    Op::Call {
                                        offset: offset as i32,
                                    },
                                )
                            } else {
                                // Branches must stay inside their function
                                // (method-cache contract).
                                let here = functions.iter().find(|f| {
                                    addr >= f.start_word && addr < f.start_word + f.size_words
                                });
                                if let Some(func) = here {
                                    if target_word < func.start_word
                                        || target_word >= func.start_word + func.size_words
                                    {
                                        return Err(AsmError {
                                            line: line.number,
                                            message: format!(
                                                "branch leaves function `{}`; use call",
                                                func.name
                                            ),
                                        });
                                    }
                                }
                                Inst::new(
                                    *guard,
                                    Op::Br {
                                        offset: offset as i32,
                                    },
                                )
                            }
                        }
                        AsmInst::LongImm { guard, rd, value } => {
                            let v = resolve(value, line.number)? as u32;
                            Inst::new(*guard, Op::LoadImm32 { rd: *rd, imm: v })
                        }
                    };
                    validate_op(&inst.op).map_err(|e| AsmError {
                        line: line.number,
                        message: e.to_string(),
                    })?;
                    if let Some(cell) = resolved.get_mut(slot) {
                        *cell = Some(inst);
                    }
                }
                let bundle = match (insts.len(), resolved) {
                    (1, [Some(only), None]) => Bundle::single(only),
                    (2, [Some(first), Some(second)]) => {
                        Bundle::try_pair(first, second).map_err(|e| AsmError {
                            line: line.number,
                            message: e.to_string(),
                        })?
                    }
                    (n, _) => {
                        return Err(AsmError {
                            line: line.number,
                            message: format!("a bundle holds 1 or 2 instructions, not {n}"),
                        })
                    }
                };
                let words = encode(&bundle);
                addr += words.len() as u32;
                code.extend_from_slice(&words);
            }
            _ => {}
        }
    }

    let entry_word = match entry_name {
        Some((name, line)) => *symbols.get(&name).ok_or_else(|| AsmError {
            line,
            message: format!("undefined entry `{name}`"),
        })?,
        None => functions.first().map(|f| f.start_word).unwrap_or(0),
    };

    Ok(ObjectImage {
        code,
        functions,
        data,
        symbols,
        loop_bounds,
        pipe_loops,
        source,
        entry_word,
    })
}

// ---------------------------------------------------------------------
// Statement and instruction parsing
// ---------------------------------------------------------------------

/// A cursor over one line's tokens.
struct Cursor<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(tokens: &'a [Token]) -> Cursor<'a> {
        Cursor { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Token) -> Result<(), String> {
        match self.next() {
            Some(t) if *t == tok => Ok(()),
            Some(t) => Err(format!("expected `{tok}`, found `{t}`")),
            None => Err(format!("expected `{tok}` at end of line")),
        }
    }

    fn ident(&mut self) -> Result<&'a str, String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(format!("expected identifier, found `{t}`")),
            None => Err("expected identifier at end of line".into()),
        }
    }

    fn int(&mut self) -> Result<i64, String> {
        let neg = self.eat(&Token::Minus);
        match self.next() {
            Some(Token::Int(v)) => Ok(if neg { -v } else { *v }),
            Some(t) => Err(format!("expected integer, found `{t}`")),
            None => Err("expected integer at end of line".into()),
        }
    }

    /// An integer operand of `directive` that must fit a `u32`.
    fn u32_operand(&mut self, directive: &str) -> Result<u32, String> {
        let v = self.int()?;
        u32::try_from(v)
            .map_err(|_| format!("`{directive}` operand {v} is outside 0..={}", u32::MAX))
    }

    fn sym_or_int(&mut self) -> Result<Operand, String> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Operand::Sym(s))
            }
            _ => Ok(Operand::Val(self.int()?)),
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.tokens.len()
    }
}

fn parse_reg(name: &str) -> Option<Reg> {
    let rest = name.strip_prefix('r')?;
    let idx: u8 = rest.parse().ok()?;
    Reg::new(idx)
}

fn parse_pred(name: &str) -> Option<Pred> {
    let rest = name.strip_prefix('p')?;
    let idx: u8 = rest.parse().ok()?;
    Pred::new(idx)
}

fn parse_special(name: &str) -> Option<SpecialReg> {
    match name {
        "sl" => Some(SpecialReg::Sl),
        "sh" => Some(SpecialReg::Sh),
        "sm" => Some(SpecialReg::Sm),
        "st" => Some(SpecialReg::St),
        "ss" => Some(SpecialReg::Ss),
        _ => None,
    }
}

fn reg_operand(cur: &mut Cursor) -> Result<Reg, String> {
    let name = cur.ident()?;
    parse_reg(name).ok_or_else(|| format!("expected register, found `{name}`"))
}

fn pred_operand(cur: &mut Cursor) -> Result<Pred, String> {
    let name = cur.ident()?;
    parse_pred(name).ok_or_else(|| format!("expected predicate, found `{name}`"))
}

fn pred_src(cur: &mut Cursor) -> Result<PredSrc, String> {
    let negate = cur.eat(&Token::Bang);
    Ok(PredSrc {
        pred: pred_operand(cur)?,
        negate,
    })
}

/// Parses `[ra]`, `[ra + off]` or `[ra - off]`.
fn mem_operand(cur: &mut Cursor) -> Result<(Reg, i64), String> {
    cur.expect(Token::LBracket)?;
    let ra = reg_operand(cur)?;
    let offset = if cur.eat(&Token::Plus) {
        cur.int()?
    } else if cur.eat(&Token::Minus) {
        -cur.int()?
    } else {
        0
    };
    cur.expect(Token::RBracket)?;
    Ok((ra, offset))
}

fn parse_statements(tokens: &[Token]) -> Result<Vec<Stmt>, String> {
    let mut cur = Cursor::new(tokens);
    let mut stmts = Vec::new();

    // Leading labels: `name:`.
    while let (Some(Token::Ident(name)), Some(Token::Colon)) =
        (cur.tokens.get(cur.pos), cur.tokens.get(cur.pos + 1))
    {
        if name.starts_with('.') {
            break;
        }
        stmts.push(Stmt::Label(name.clone()));
        cur.pos += 2;
    }
    if cur.done() {
        return Ok(stmts);
    }

    if let Some(Token::Ident(word)) = cur.peek() {
        if word.starts_with('.') {
            let directive = word.clone();
            cur.pos += 1;
            let stmt = match directive.as_str() {
                ".func" => Stmt::Func(cur.ident()?.to_string()),
                ".entry" => Stmt::Entry(cur.ident()?.to_string()),
                ".data" => {
                    let name = cur.ident()?.to_string();
                    let addr = cur.u32_operand(&directive)?;
                    Stmt::Data { name, addr }
                }
                ".word" => {
                    let mut ws = vec![cur.sym_or_int()?];
                    while cur.eat(&Token::Comma) {
                        ws.push(cur.sym_or_int()?);
                    }
                    Stmt::Words(ws)
                }
                ".byte" => {
                    let mut bs = vec![cur.int()?];
                    while cur.eat(&Token::Comma) {
                        bs.push(cur.int()?);
                    }
                    Stmt::Bytes(bs)
                }
                ".space" => Stmt::Space(cur.u32_operand(&directive)?),
                ".equ" => {
                    let name = cur.ident()?.to_string();
                    let value = cur.int()?;
                    Stmt::Equ { name, value }
                }
                ".loopbound" => {
                    let min = cur.u32_operand(&directive)?;
                    let max = cur.u32_operand(&directive)?;
                    Stmt::LoopBound { min, max }
                }
                ".srcfunc" => {
                    let name = cur.ident()?.to_string();
                    let line = cur.u32_operand(&directive)?;
                    Stmt::SrcFunc { name, line }
                }
                ".srcloop" => {
                    let line = cur.u32_operand(&directive)?;
                    let start = cur.ident()?.to_string();
                    let end = cur.ident()?.to_string();
                    Stmt::SrcLoop { line, start, end }
                }
                ".pipeloop" => Stmt::PipeLoop(PipeLoop {
                    guard: cur.ident()?.to_string(),
                    kernel: cur.ident()?.to_string(),
                    fallback: cur.ident()?.to_string(),
                    ii: cur.u32_operand(&directive)?,
                    stages: cur.u32_operand(&directive)?,
                    prologue: cur.u32_operand(&directive)?,
                    epilogue: cur.u32_operand(&directive)?,
                    threshold: cur.u32_operand(&directive)?,
                    min_trips: cur.u32_operand(&directive)?,
                }),
                other => return Err(format!("unknown directive `{other}`")),
            };
            if !cur.done() {
                return Err(format!("trailing tokens after `{directive}`"));
            }
            stmts.push(stmt);
            return Ok(stmts);
        }
    }

    // An instruction line: `{ i ; i }` or a single instruction.
    let insts = if cur.eat(&Token::LBrace) {
        let first = parse_inst(&mut cur)?;
        cur.expect(Token::Semi)?;
        let second = parse_inst(&mut cur)?;
        cur.expect(Token::RBrace)?;
        vec![first, second]
    } else {
        vec![parse_inst(&mut cur)?]
    };
    if !cur.done() {
        return Err(format!(
            "trailing tokens after instruction: `{}`",
            cur.peek().expect("non-empty")
        ));
    }
    stmts.push(Stmt::Bundle(insts));
    Ok(stmts)
}

fn parse_inst(cur: &mut Cursor) -> Result<AsmInst, String> {
    // Optional guard `(pN)` / `(!pN)`.
    let guard = if cur.eat(&Token::LParen) {
        let negate = cur.eat(&Token::Bang);
        let pred = pred_operand(cur)?;
        cur.expect(Token::RParen)?;
        Guard { pred, negate }
    } else {
        Guard::ALWAYS
    };

    let mnemonic = cur.ident()?.to_string();
    let op = parse_op(&mnemonic, cur)?;
    match op {
        ParsedOp::Op(op) => Ok(AsmInst::Ready(Inst::new(guard, op))),
        ParsedOp::Flow { call, target } => Ok(AsmInst::Flow {
            guard,
            call,
            target,
        }),
        ParsedOp::LongImm { rd, value } => Ok(AsmInst::LongImm { guard, rd, value }),
    }
}

enum ParsedOp {
    Op(Op),
    Flow { call: bool, target: Operand },
    LongImm { rd: Reg, value: Operand },
}

fn alu_from_mnemonic(m: &str) -> Option<(AluOp, bool)> {
    let table: [(&str, AluOp); 9] = [
        ("add", AluOp::Add),
        ("sub", AluOp::Sub),
        ("xor", AluOp::Xor),
        ("or", AluOp::Or),
        ("and", AluOp::And),
        ("nor", AluOp::Nor),
        ("sl", AluOp::Shl),
        ("sr", AluOp::Shr),
        ("sra", AluOp::Sra),
    ];
    for (name, op) in table {
        if m == name {
            return Some((op, false));
        }
        if let Some(stripped) = m.strip_suffix('i') {
            if stripped == name {
                return Some((op, true));
            }
        }
    }
    None
}

fn cmp_from_mnemonic(m: &str) -> Option<(CmpOp, bool)> {
    let (body, imm) = if let Some(rest) = m.strip_prefix("cmpi") {
        (rest, true)
    } else if let Some(rest) = m.strip_prefix("cmp") {
        (rest, false)
    } else {
        return None;
    };
    let op = match body {
        "eq" => CmpOp::Eq,
        "neq" => CmpOp::Neq,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "ult" => CmpOp::Ult,
        "ule" => CmpOp::Ule,
        _ => return None,
    };
    Some((op, imm))
}

/// A literal as text can spell it: a `u32` literal with an optional
/// minus.
fn literal(value: i64, line: usize) -> Result<i64, AsmError> {
    if value.unsigned_abs() <= u64::from(u32::MAX) {
        Ok(value)
    } else {
        Err(AsmError {
            line,
            message: format!("literal {value} is outside ±{}", u32::MAX),
        })
    }
}

/// A `.word` or `.byte` list holds at least one value, as in text.
fn non_empty<T>(values: &[T], directive: &str, line: usize) -> Result<(), AsmError> {
    if values.is_empty() {
        return Err(AsmError {
            line,
            message: format!("`{directive}` needs at least one value"),
        });
    }
    Ok(())
}

/// Largest data segment the assembler lays out: 16 MiB, far above the
/// kernel suite's largest segment (2 KiB) and far below what a hostile
/// `.space` could otherwise make the encoding pass allocate.
pub const MAX_SEGMENT_BYTES: u32 = 1 << 24;

/// The data segment pass 1 is laying out.
struct OpenSegment<'a> {
    name: &'a str,
    start: u32,
    /// One past the last byte so far.
    end: u32,
}

impl OpenSegment<'_> {
    /// Appends `count` items of `size` bytes. A segment must end inside
    /// the 32-bit address space — its end address, one past its last
    /// byte, has to fit a `u32` — and hold at most
    /// [`MAX_SEGMENT_BYTES`].
    fn grow(&mut self, count: usize, size: u32, line: usize) -> Result<(), AsmError> {
        let name = self.name;
        let end = u32::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(size))
            .and_then(|bytes| self.end.checked_add(bytes))
            .ok_or_else(|| AsmError {
                line,
                message: format!("data segment `{name}` runs past the top of the address space"),
            })?;
        if end - self.start > MAX_SEGMENT_BYTES {
            return Err(AsmError {
                line,
                message: format!(
                    "data segment `{name}` exceeds the {MAX_SEGMENT_BYTES}-byte segment limit"
                ),
            });
        }
        self.end = end;
        Ok(())
    }
}

/// Decodes `l`/`s` + size letter + area suffix (e.g. `lws`, `sbc`).
fn mem_mnemonic(m: &str) -> Option<(bool, AccessSize, MemArea)> {
    let mut chars = m.chars();
    let load = match chars.next()? {
        'l' => true,
        's' => false,
        _ => return None,
    };
    let size = match chars.next()? {
        'w' => AccessSize::Word,
        'h' => AccessSize::Half,
        'b' => AccessSize::Byte,
        _ => return None,
    };
    let area = match chars.next()? {
        's' => MemArea::Stack,
        'c' => MemArea::Static,
        'd' => MemArea::Data,
        'l' => MemArea::Spm,
        _ => return None,
    };
    if chars.next().is_some() {
        return None;
    }
    Some((load, size, area))
}

fn parse_op(mnemonic: &str, cur: &mut Cursor) -> Result<ParsedOp, String> {
    // Fixed-form mnemonics first.
    match mnemonic {
        "nop" => return Ok(ParsedOp::Op(Op::Nop)),
        "halt" => return Ok(ParsedOp::Op(Op::Halt)),
        "ret" => return Ok(ParsedOp::Op(Op::Ret)),
        "mul" => {
            let rs1 = reg_operand(cur)?;
            cur.expect(Token::Comma)?;
            let rs2 = reg_operand(cur)?;
            return Ok(ParsedOp::Op(Op::Mul { rs1, rs2 }));
        }
        "mov" => {
            let rd = reg_operand(cur)?;
            cur.expect(Token::Equals)?;
            let rs = reg_operand(cur)?;
            return Ok(ParsedOp::Op(Op::AluR {
                op: AluOp::Add,
                rd,
                rs1: rs,
                rs2: Reg::R0,
            }));
        }
        "li" => {
            let rd = reg_operand(cur)?;
            cur.expect(Token::Equals)?;
            let v = cur.int()?;
            if !(-32768..=32767).contains(&v) {
                return Err(format!("`li` immediate {v} out of 16-bit range; use `lil`"));
            }
            return Ok(ParsedOp::Op(Op::LoadImmLow {
                rd,
                imm: v as i16 as u16,
            }));
        }
        "liu" => {
            let rd = reg_operand(cur)?;
            cur.expect(Token::Equals)?;
            let v = cur.int()?;
            if !(0..=0xffff).contains(&v) {
                return Err(format!("`liu` immediate {v} out of range"));
            }
            return Ok(ParsedOp::Op(Op::LoadImmHigh { rd, imm: v as u16 }));
        }
        "lil" => {
            let rd = reg_operand(cur)?;
            cur.expect(Token::Equals)?;
            let value = cur.sym_or_int()?;
            return Ok(ParsedOp::LongImm { rd, value });
        }
        "por" | "pand" | "pxor" => {
            let op = match mnemonic {
                "por" => PredOp::Or,
                "pand" => PredOp::And,
                _ => PredOp::Xor,
            };
            let pd = pred_operand(cur)?;
            cur.expect(Token::Equals)?;
            let p1 = pred_src(cur)?;
            cur.expect(Token::Comma)?;
            let p2 = pred_src(cur)?;
            return Ok(ParsedOp::Op(Op::PredSet { op, pd, p1, p2 }));
        }
        "pmov" => {
            let pd = pred_operand(cur)?;
            cur.expect(Token::Equals)?;
            let p1 = pred_src(cur)?;
            return Ok(ParsedOp::Op(Op::PredSet {
                op: PredOp::Or,
                pd,
                p1,
                p2: p1,
            }));
        }
        "pnot" => {
            let pd = pred_operand(cur)?;
            cur.expect(Token::Equals)?;
            let mut p1 = pred_src(cur)?;
            p1.negate = !p1.negate;
            return Ok(ParsedOp::Op(Op::PredSet {
                op: PredOp::Or,
                pd,
                p1,
                p2: p1,
            }));
        }
        "ldm" => {
            let (ra, offset) = mem_operand(cur)?;
            return Ok(ParsedOp::Op(Op::MainLoad {
                ra,
                offset: offset as i16,
            }));
        }
        "wres" => {
            let rd = reg_operand(cur)?;
            return Ok(ParsedOp::Op(Op::MainWait { rd }));
        }
        "stm" => {
            let (ra, offset) = mem_operand(cur)?;
            cur.expect(Token::Equals)?;
            let rs = reg_operand(cur)?;
            return Ok(ParsedOp::Op(Op::MainStore {
                ra,
                offset: offset as i16,
                rs,
            }));
        }
        "br" | "call" => {
            let target = cur.sym_or_int()?;
            return Ok(ParsedOp::Flow {
                call: mnemonic == "call",
                target,
            });
        }
        "callr" => {
            let rs = reg_operand(cur)?;
            return Ok(ParsedOp::Op(Op::CallR { rs }));
        }
        "sres" | "sens" | "sfree" => {
            let words = cur.int()? as u32;
            let op = match mnemonic {
                "sres" => Op::Sres { words },
                "sens" => Op::Sens { words },
                _ => Op::Sfree { words },
            };
            return Ok(ParsedOp::Op(op));
        }
        "mts" => {
            let name = cur.ident()?;
            let sd =
                parse_special(name).ok_or_else(|| format!("unknown special register `{name}`"))?;
            cur.expect(Token::Equals)?;
            let rs = reg_operand(cur)?;
            return Ok(ParsedOp::Op(Op::Mts { sd, rs }));
        }
        "mfs" => {
            let rd = reg_operand(cur)?;
            cur.expect(Token::Equals)?;
            let name = cur.ident()?;
            let ss =
                parse_special(name).ok_or_else(|| format!("unknown special register `{name}`"))?;
            return Ok(ParsedOp::Op(Op::Mfs { rd, ss }));
        }
        _ => {}
    }

    if let Some((op, _, _)) = mem_mnemonic(mnemonic).map(|t| (t, 0, 0)) {
        let (load, size, area) = op;
        if load {
            let rd = reg_operand(cur)?;
            cur.expect(Token::Equals)?;
            let (ra, offset) = mem_operand(cur)?;
            return Ok(ParsedOp::Op(Op::Load {
                area,
                size,
                rd,
                ra,
                offset: offset as i16,
            }));
        } else {
            let (ra, offset) = mem_operand(cur)?;
            cur.expect(Token::Equals)?;
            let rs = reg_operand(cur)?;
            return Ok(ParsedOp::Op(Op::Store {
                area,
                size,
                ra,
                offset: offset as i16,
                rs,
            }));
        }
    }

    if let Some((op, is_cmp_imm)) = cmp_from_mnemonic(mnemonic) {
        let pd = pred_operand(cur)?;
        cur.expect(Token::Equals)?;
        let rs1 = reg_operand(cur)?;
        cur.expect(Token::Comma)?;
        if is_cmp_imm {
            let imm = cur.int()?;
            return Ok(ParsedOp::Op(Op::CmpI {
                op,
                pd,
                rs1,
                imm: imm as i16,
            }));
        }
        let rs2 = reg_operand(cur)?;
        return Ok(ParsedOp::Op(Op::Cmp { op, pd, rs1, rs2 }));
    }

    if let Some((op, explicit_imm)) = alu_from_mnemonic(mnemonic) {
        let rd = reg_operand(cur)?;
        cur.expect(Token::Equals)?;
        let rs1 = reg_operand(cur)?;
        cur.expect(Token::Comma)?;
        // Register or immediate second operand.
        if !explicit_imm {
            if let Some(Token::Ident(name)) = cur.peek() {
                if let Some(rs2) = parse_reg(name) {
                    cur.pos += 1;
                    return Ok(ParsedOp::Op(Op::AluR { op, rd, rs1, rs2 }));
                }
                return Err(format!("expected register or immediate, found `{name}`"));
            }
        }
        let imm = cur.int()?;
        Ok(ParsedOp::Op(Op::AluI {
            op,
            rd,
            rs1,
            imm: imm as i16,
        }))
    } else {
        Err(format!("unknown mnemonic `{mnemonic}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::FlowKind;

    fn ok(src: &str) -> ObjectImage {
        match assemble(src) {
            Ok(img) => img,
            Err(e) => panic!("assembly failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn data_past_the_top_of_the_address_space_is_an_error() {
        for (addr, directives, line) in [
            ("0xFFFFFFFC", "        .word 7\n", 2),
            (
                "0xFFFFFFF0",
                "        .word 1, 2\n        .word 3, 4, 5\n",
                3,
            ),
            ("0xFFFFFFF8", "        .space 16\n", 2),
        ] {
            let src =
                format!("        .data top {addr}\n{directives}        .func main\n        halt\n");
            let err = assemble(&src).expect_err("the segment ends past 2^32");
            assert_eq!(err.line, line, "{src}");
            assert!(err.message.contains("`top`"), "{err}");
        }
        // The last word below the top is still addressable.
        ok("        .data top 0xFFFFFFF8\n        .word 1\n        .func main\n        halt\n");
    }

    #[test]
    fn directive_operands_outside_u32_are_errors() {
        // Each was read with `as u32`: `.space -16` asked pass 2 for
        // 4294967280 bytes, `.loopbound 0 -1` became a bound of 2^32 - 1.
        for (directive, line) in [
            (".data", "        .data d -1\n"),
            (".space", "        .data d 0\n        .space -16\n"),
            (
                ".loopbound",
                "        .func main\n        .loopbound 0 -1\n",
            ),
            (".srcfunc", "        .func main\n        .srcfunc main -3\n"),
            (
                ".srcloop",
                "        .func main\nl:\n        .srcloop -3 l l\n",
            ),
            (
                ".pipeloop",
                "        .func main\nl:\n        .pipeloop l l l 1 1 -1 0 0 0\n",
            ),
        ] {
            let src = format!("{line}        halt\n");
            let err = assemble(&src).expect_err(&src);
            assert!(
                err.message.contains(&format!("`{directive}` operand -")),
                "{src}: {err}"
            );
        }
    }

    #[test]
    fn data_segments_are_capped() {
        let err = assemble(
            "        .data d 0\n        .space 0xFFFFFFF0\n        .func main\n        halt\n",
        )
        .expect_err("a 4 GiB segment");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("`d` exceeds"), "{err}");
        // The limit itself is reachable; one byte more is not.
        let at_limit = format!("        .data d 0x100\n        .space {MAX_SEGMENT_BYTES}\n");
        let err = assemble(&format!(
            "{at_limit}        .byte 1\n        .func main\n        halt\n"
        ))
        .expect_err("one byte past the limit");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("segment limit"), "{err}");
    }

    #[test]
    fn literals_above_u32_max_are_lexical_errors() {
        // They used to be clamped to 0xFFFFFFFF.
        for literal in ["0x100000000", "4294967296", "99999999999999999999"] {
            let src = format!(
                "        .data d 0\n        .word {literal}\n        .func main\n        halt\n"
            );
            let err = assemble(&src).expect_err(literal);
            assert_eq!(err.line, 2);
            assert!(
                err.message
                    .contains("literal at column 15 exceeds 4294967295"),
                "{err}"
            );
        }
        let img = ok(
            "        .data d 0\n        .word 0xFFFFFFFF, 4294967295\n        .func main\n        halt\n",
        );
        assert_eq!(img.data()[0].bytes, [0xFF; 8]);
    }

    /// A module built directly: one statement per line, as its text.
    fn module(stmts: Vec<Stmt>) -> AsmModule {
        stmts.into_iter().collect()
    }

    fn ready(op: Op) -> AsmInst {
        AsmInst::Ready(Inst::always(op))
    }

    /// A `.pipeloop` whose guard and fallback are `l`.
    fn pipeloop(kernel: &str, ii: u32, stages: u32) -> Stmt {
        Stmt::PipeLoop(PipeLoop {
            guard: "l".into(),
            kernel: kernel.into(),
            fallback: "l".into(),
            ii,
            stages,
            prologue: 0,
            epilogue: 0,
            threshold: 1,
            min_trips: 0,
        })
    }

    #[test]
    fn link_checks_statements_that_skip_the_parser() {
        // Each bad statement sits on line 3 of `.func main`, `l:`, it,
        // `halt`; text either cannot spell it or only `link` rejects it.
        let long = |value| AsmInst::LongImm {
            guard: Guard::ALWAYS,
            rd: Reg::R1,
            value: Operand::Val(value),
        };
        for (stmt, message) in [
            (Stmt::LoopBound { min: 4, max: 3 }, "min exceeds max"),
            (pipeloop("l", 0, 2), "II and stage count must be positive"),
            (pipeloop("l", 2, 0), "II and stage count must be positive"),
            (pipeloop("m", 2, 1), "references undefined label `m`"),
            (Stmt::Bundle(Vec::new()), "1 or 2 instructions, not 0"),
            (
                Stmt::Bundle(vec![ready(Op::Nop), ready(Op::Nop), ready(Op::Nop)]),
                "1 or 2 instructions, not 3",
            ),
            (
                Stmt::Bundle(vec![ready(Op::Br { offset: 0 })]),
                "needs a target operand",
            ),
            (
                Stmt::Bundle(vec![ready(Op::Call { offset: 0 })]),
                "needs a target operand",
            ),
            (Stmt::Bundle(vec![long(1 << 32)]), "literal 4294967296"),
            (
                Stmt::Equ {
                    name: "n".into(),
                    value: -(1 << 32),
                },
                "literal -4294967296",
            ),
        ] {
            let m = module(vec![
                Stmt::Func("main".into()),
                Stmt::Label("l".into()),
                stmt,
                Stmt::Bundle(vec![ready(Op::Halt)]),
            ]);
            let err = link(&m).expect_err(&m.to_string());
            assert_eq!(err.line, 3, "{m}{err}");
            assert!(err.message.contains(message), "{m}{err}");
        }
        // Data statements sit on line 2, inside a segment.
        for (stmt, message) in [
            (Stmt::Words(Vec::new()), "`.word` needs at least one value"),
            (Stmt::Bytes(Vec::new()), "`.byte` needs at least one value"),
            (Stmt::Words(vec![Operand::Val(i64::MIN)]), "outside"),
            (Stmt::Bytes(vec![1 << 40]), "outside"),
        ] {
            let m = module(vec![
                Stmt::Data {
                    name: "d".into(),
                    addr: 0,
                },
                stmt,
                Stmt::Func("main".into()),
                Stmt::Bundle(vec![ready(Op::Halt)]),
            ]);
            let err = link(&m).expect_err(&m.to_string());
            assert_eq!(err.line, 2, "{m}{err}");
            assert!(err.message.contains(message), "{m}{err}");
        }
    }

    #[test]
    fn text_errors_on_moved_checks_keep_their_lines() {
        for (src, message) in [
            (
                "        .func main\n        nop\n        .loopbound 3 2\nl:\n        halt\n",
                "min exceeds max",
            ),
            (
                "        .func main\nl:\n        .pipeloop l l l 0 1 0 0 0 0\n        halt\n",
                "must be positive",
            ),
            (
                "        .func main\nl:\n        .pipeloop l m l 2 1 0 0 1 0\n        halt\n",
                "references undefined label `m`",
            ),
        ] {
            let err = assemble(src).expect_err(src);
            assert_eq!(err.line, 3, "{src}");
            assert!(err.message.contains(message), "{err}");
        }
    }

    #[test]
    fn text_is_the_display_of_its_parse() {
        let src = "        .data t 65536\n        .word 1, -2, t\n        .space 8\n        \
                   .equ n 4\n        .entry main\n        .func main\nl:\n        \
                   .loopbound 1 4\n        { (p1) lil r1 = t ; nop }\n        (!p6) br l\n        \
                   call main\n        halt\n        .srcfunc main 1\n        .srcloop 2 l l\n";
        let parsed = parse(src).expect("parses");
        assert_eq!(parsed.to_string(), src);
        // A bundle holding a long immediate does not pair, as in text.
        let err = link(&parsed).expect_err("lil does not pair");
        assert_eq!(err.line, 9);
    }

    #[test]
    fn minimal_program() {
        let img = ok("        .func main\n        li r1 = 5\n        halt\n");
        assert_eq!(img.code().len(), 2);
        assert_eq!(img.functions().len(), 1);
        assert_eq!(img.functions()[0].size_words, 2);
        assert_eq!(img.entry_word(), 0);
    }

    #[test]
    fn branch_offsets_resolve() {
        let img = ok(
            "        .func main\nstart:\n        nop\n        br start\n        nop\n        halt\n",
        );
        let bundles = img.decode().expect("decodes");
        // Bundle at word 1 is the branch; target word 0 => offset -1.
        let (addr, b) = &bundles[1];
        assert_eq!(*addr, 1);
        match b.first().op.flow_kind() {
            FlowKind::Branch(offset) => assert_eq!(offset, -1),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn call_targets_must_be_functions() {
        let err = assemble(
            "        .func main\n        nop\nlocal:\n        nop\n        call local\n        halt\n",
        )
        .unwrap_err();
        assert!(err.message.contains("not a function"), "{err}");
    }

    #[test]
    fn branches_may_not_leave_function() {
        let err = assemble(
            "        .func a\ntop:\n        nop\n        .func b\n        br top\n        halt\n",
        )
        .unwrap_err();
        assert!(err.message.contains("leaves function"), "{err}");
    }

    #[test]
    fn bundles_and_guards() {
        let img = ok(
            "        .func main\n        { lws r1 = [r2 + 1] ; (p1) add r3 = r4, r5 }\n        halt\n",
        );
        let bundles = img.decode().expect("decodes");
        assert_eq!(bundles[0].1.width_words(), 2);
        let second = bundles[0].1.second().expect("has second slot");
        assert_eq!(second.guard, Guard::when(Pred::P1));
    }

    #[test]
    fn data_segments_and_symbols() {
        let img = ok(
            "        .data table 0x10000\n        .word 1, 2, 3\n        .space 4\n        .byte 7\n        .func main\n        lil r1 = table\n        halt\n",
        );
        assert_eq!(img.symbol("table"), Some(0x10000));
        let seg = &img.data()[0];
        assert_eq!(seg.bytes.len(), 12 + 4 + 1);
        assert_eq!(&seg.bytes[0..4], &[1, 0, 0, 0]);
        // `lil r1 = table` resolves to the byte address.
        let bundles = img.decode().expect("decodes");
        assert!(matches!(
            bundles[0].1.first().op,
            Op::LoadImm32 { imm: 0x10000, .. }
        ));
    }

    #[test]
    fn loop_bounds_attach_to_next_bundle() {
        let img = ok(
            "        .func main\n        nop\n        .loopbound 3 10\nloop:\n        nop\n        br loop\n        nop\n        halt\n",
        );
        assert_eq!(img.loop_bounds().len(), 1);
        assert_eq!(img.loop_bounds()[0].addr, 1);
        assert_eq!(img.loop_bounds()[0].max, 10);
    }

    #[test]
    fn equ_and_entry() {
        let img = ok(
            "        .equ N 16\n        .func helper\n        ret\n        nop\n        nop\n        .func main\n        .entry main\n        li r1 = 0\n        halt\n",
        );
        assert_eq!(img.symbol("N"), Some(16));
        assert_eq!(img.entry_word(), 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble(".func main\nnop\nbogus r1 = r2\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn out_of_range_immediate_rejected() {
        let err = assemble(".func main\naddi r1 = r1, 5000\n").unwrap_err();
        assert!(err.message.contains("does not fit"), "{err}");
    }

    #[test]
    fn pseudo_ops_expand() {
        let img = ok(".func main\nmov r1 = r2\npmov p1 = p2\npnot p3 = p4\nhalt\n");
        let bundles = img.decode().expect("decodes");
        assert!(matches!(
            bundles[0].1.first().op,
            Op::AluR {
                op: AluOp::Add,
                rs2: Reg::R0,
                ..
            }
        ));
        assert!(matches!(bundles[1].1.first().op, Op::PredSet { .. }));
    }

    #[test]
    fn shift_and_store_half_disambiguate() {
        let img = ok(".func main\nsl r1 = r2, 3\nshl [r2 + 0] = r1\nhalt\n");
        let bundles = img.decode().expect("decodes");
        assert!(matches!(
            bundles[0].1.first().op,
            Op::AluI { op: AluOp::Shl, .. }
        ));
        assert!(matches!(
            bundles[1].1.first().op,
            Op::Store {
                area: MemArea::Spm,
                size: AccessSize::Half,
                ..
            }
        ));
    }
}
