//! Recursive-descent parser for PatC.

use std::fmt;

use crate::ast::*;
use crate::lexer::{lex, SpannedTok, Tok};

/// A parse error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest a function body may nest. A function's statements sit
/// at level 1; an `if` or `while` body's statements, a statement's
/// expressions, an operator's operands, call arguments and array
/// indices sit one level below their parent, and an expression in
/// parentheses one level below the parentheses. Parsing, code
/// generation and dropping the syntax tree each recurse once per level,
/// so a deeper program is refused here rather than overflowing the
/// stack later.
const MAX_NESTING: u32 = 64;

struct Parser<'a> {
    toks: Vec<SpannedTok<'a>>,
    pos: usize,
    /// The level of the construct being parsed.
    depth: u32,
    /// The deepest level reached by the expression being folded in
    /// [`Parser::binary`].
    deepest: u32,
}

impl<'a> Parser<'a> {
    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    /// Fails when `level` is deeper than [`MAX_NESTING`]; otherwise
    /// records it as reached.
    fn reach(&mut self, level: u32) -> Result<(), ParseError> {
        if level > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.deepest = self.deepest.max(level);
        Ok(())
    }

    /// Runs `parse` one level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.reach(self.depth + 1)?;
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.get(self.pos).map(|t| t.tok);
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok<'_>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok<'_>) -> Result<(), ParseError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.describe_next())))
        }
    }

    fn describe_next(&self) -> String {
        self.peek()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "end of input".into())
    }

    /// The next token's identifier, still borrowed from the source: the
    /// AST node that keeps it allocates it.
    fn ident(&mut self) -> Result<&'a str, ParseError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(ParseError {
                line,
                message: format!(
                    "expected identifier, found `{}`",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of input".into())
                ),
            }),
        }
    }

    /// A signed literal that fits one 32-bit word, read as either
    /// `int` or `unsigned`: −2³¹ through 2³² − 1.
    fn int_lit(&mut self) -> Result<i64, ParseError> {
        let line = self.line();
        let neg = self.eat(&Tok::Minus);
        match self.next() {
            Some(Tok::Int(v)) if neg && -v < i64::from(i32::MIN) => Err(ParseError {
                line,
                message: format!("integer literal -{v} is below {}", i32::MIN),
            }),
            Some(Tok::Int(v)) => Ok(if neg { -v } else { v }),
            _ => Err(ParseError {
                line,
                message: "expected integer literal".into(),
            }),
        }
    }

    // ---- declarations ----

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::default();
        while self.peek().is_some() {
            let qualifier = if self.eat(&Tok::KwHeap) {
                Some(MemQualifier::Heap)
            } else if self.eat(&Tok::KwSpm) {
                Some(MemQualifier::Spm)
            } else {
                None
            };
            self.expect(Tok::KwInt)?;
            let name = self.ident()?.to_string();
            if qualifier.is_none() && self.peek() == Some(&Tok::LParen) {
                program.functions.push(self.function(name)?);
            } else {
                program
                    .globals
                    .push(self.global(name, qualifier.unwrap_or_default())?);
            }
        }
        Ok(program)
    }

    fn global(&mut self, name: String, qualifier: MemQualifier) -> Result<Global, ParseError> {
        let mut len = 1u32;
        if self.eat(&Tok::LBracket) {
            let n = self.int_lit()?;
            if n <= 0 {
                return Err(self.err("array length must be positive"));
            }
            len = n as u32;
            self.expect(Tok::RBracket)?;
        }
        let mut init = Vec::new();
        if self.eat(&Tok::Assign) {
            if self.eat(&Tok::LBrace) {
                loop {
                    init.push(self.int_lit()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
            } else {
                init.push(self.int_lit()?);
            }
            if init.len() as u32 > len {
                return Err(self.err("more initialisers than elements"));
            }
        }
        self.expect(Tok::Semi)?;
        Ok(Global {
            name,
            len,
            init,
            qualifier,
        })
    }

    fn function(&mut self, name: String) -> Result<Function, ParseError> {
        let line = self.line() as u32;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                self.expect(Tok::KwInt)?;
                params.push(self.ident()?.to_string());
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        if params.len() > patmos_isa::ARG_REGS.len() {
            return Err(self.err("at most four parameters are supported"));
        }
        let body = self.block()?;
        Ok(Function {
            name,
            params,
            body,
            line,
        })
    }

    // ---- statements ----

    /// A `{ ... }` block, whose statements sit one level below the
    /// current one.
    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(Tok::LBrace)?;
        self.nested(|p| {
            let mut stmts = Vec::new();
            while !p.eat(&Tok::RBrace) {
                if p.peek().is_none() {
                    return Err(p.err("unterminated block"));
                }
                stmts.push(p.stmt()?);
            }
            Ok(stmts)
        })
    }

    fn bound(&mut self) -> Result<u32, ParseError> {
        self.expect(Tok::KwBound)?;
        self.expect(Tok::LParen)?;
        let n = self.int_lit()?;
        self.expect(Tok::RParen)?;
        if n < 0 {
            return Err(self.err("loop bound must be non-negative"));
        }
        Ok(n as u32)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Tok::KwInt) => {
                self.next();
                let name = self.ident()?;
                let init = if self.eat(&Tok::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Decl(name.to_string(), init))
            }
            Some(Tok::KwReturn) => {
                self.next();
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return(e))
            }
            Some(Tok::KwIf) => {
                self.next();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_body = self.block()?;
                let else_body = if self.eat(&Tok::KwElse) {
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then_body, else_body))
            }
            Some(Tok::KwWhile) => {
                let line = self.line() as u32;
                self.next();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let bound = self.bound()?;
                let body = self.block()?;
                Ok(Stmt::While(cond, bound, body, line))
            }
            Some(Tok::KwFor) => {
                let line = self.line() as u32;
                self.next();
                // Desugared to `if (1) { init; while (cond) bound(n)
                // { body; step; } }` (PatC scopes are function-wide), so
                // its parts sit at the level of the `while`, and the
                // step, which ends the body, one level below.
                self.nested(|p| {
                    p.expect(Tok::LParen)?;
                    let init = p.simple_stmt()?;
                    p.expect(Tok::Semi)?;
                    let cond = p.expr()?;
                    p.expect(Tok::Semi)?;
                    let step = p.nested(Self::simple_stmt)?;
                    p.expect(Tok::RParen)?;
                    let bound = p.bound()?;
                    let mut body = p.block()?;
                    body.push(step);
                    Ok(Stmt::If(
                        Expr::Lit(1),
                        vec![init, Stmt::While(cond, bound, body, line)],
                        vec![],
                    ))
                })
            }
            Some(_) => {
                let s = self.simple_stmt()?;
                self.expect(Tok::Semi)?;
                Ok(s)
            }
            None => Err(self.err("expected statement")),
        }
    }

    /// Assignment or expression statement (no trailing `;`).
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        if let (Some(Tok::Ident(_)), Some(next)) = (self.peek(), self.peek2()) {
            match next {
                Tok::Assign => {
                    let name = self.ident()?;
                    self.next(); // `=`
                    let e = self.expr()?;
                    return Ok(Stmt::Assign(name.to_string(), e));
                }
                Tok::LBracket => {
                    // Could be `a[i] = e` or an expression; try assignment.
                    let save = self.pos;
                    let name = self.ident()?;
                    self.next(); // `[`
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    if self.eat(&Tok::Assign) {
                        let e = self.expr()?;
                        return Ok(Stmt::AssignIndex(name.to_string(), idx, e));
                    }
                    self.pos = save;
                }
                _ => {}
            }
        }
        Ok(Stmt::ExprStmt(self.expr()?))
    }

    // ---- expressions (precedence climbing) ----

    /// An expression, one level below the current one.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| p.binary(0))
    }

    /// A left-associative chain of operands joined by binary operators
    /// of `min`'s level or tighter; each right operand binds one level
    /// tighter than its operator.
    fn binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let mut lhs = self.unary()?;
        while let Some((op, level)) = self.peek().and_then(binary_op) {
            if level < min {
                break;
            }
            self.next();
            // The new node takes the place of `lhs`, which moves one
            // level down: a long chain nests as deep as it is long.
            self.reach(self.deepest + 1)?;
            let rhs = self.nested(|p| p.binary(level + 1))?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        self.deepest = self.deepest.max(outer);
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Some(Tok::Minus) => UnOp::Neg,
            Some(Tok::Bang) => UnOp::Not,
            Some(Tok::Tilde) => UnOp::BitNot,
            _ => return self.primary(),
        };
        self.next();
        Ok(Expr::Un(op, Box::new(self.nested(Self::unary)?)))
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::Lit(v)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    Ok(Expr::Call(name.to_string(), args))
                } else if self.eat(&Tok::LBracket) {
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    Ok(Expr::Index(name.to_string(), Box::new(idx)))
                } else {
                    Ok(Expr::Var(name.to_string()))
                }
            }
            other => Err(ParseError {
                line,
                message: format!(
                    "expected expression, found `{}`",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of input".into())
                ),
            }),
        }
    }
}

/// The binary operator a token spells and its level, loosest first, as
/// in C: `||`, `&&`, `|`, `^`, `&`, equality, relational, shift,
/// additive, multiplicative.
fn binary_op(tok: &Tok<'_>) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::OrOr => (BinOp::LogOr, 0),
        Tok::AndAnd => (BinOp::LogAnd, 1),
        Tok::Pipe => (BinOp::Or, 2),
        Tok::Caret => (BinOp::Xor, 3),
        Tok::Amp => (BinOp::And, 4),
        Tok::EqEq => (BinOp::Eq, 5),
        Tok::NotEq => (BinOp::Ne, 5),
        Tok::Lt => (BinOp::Lt, 6),
        Tok::Le => (BinOp::Le, 6),
        Tok::Gt => (BinOp::Gt, 6),
        Tok::Ge => (BinOp::Ge, 6),
        Tok::Shl => (BinOp::Shl, 7),
        Tok::Shr => (BinOp::Shr, 7),
        Tok::Plus => (BinOp::Add, 8),
        Tok::Minus => (BinOp::Sub, 8),
        Tok::Star => (BinOp::Mul, 9),
        Tok::Slash => (BinOp::Div, 9),
        Tok::Percent => (BinOp::Rem, 9),
        _ => return None,
    })
}

/// Parses a PatC translation unit.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line.
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let toks = lex(source).map_err(|(line, message)| ParseError { line, message })?;
    let mut parser = Parser {
        toks,
        pos: 0,
        depth: 0,
        deepest: 0,
    };
    parser.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_globals_and_function() {
        let p = parse("int g; int tab[4] = {1, 2, 3, 4}; heap int h[8]; int main() { return g; }")
            .expect("parses");
        assert_eq!(p.globals.len(), 3);
        assert_eq!(p.globals[1].init, vec![1, 2, 3, 4]);
        assert_eq!(p.globals[2].qualifier, MemQualifier::Heap);
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn parses_control_flow() {
        let p = parse(
            "int main() { int i; int s = 0; for (i = 0; i < 8; i = i + 1) bound(8) { s = s + i; } while (s > 0) bound(100) { s = s - 1; } if (s == 0) { s = 1; } else { s = 2; } return s; }",
        )
        .expect("parses");
        assert_eq!(p.functions[0].body.len(), 6);
    }

    #[test]
    fn loop_without_bound_rejected() {
        let e = parse("int main() { while (1) { } return 0; }").unwrap_err();
        assert!(e.message.contains("bound"), "{e}");
    }

    #[test]
    fn precedence_is_c_like() {
        let p = parse("int main() { return 1 + 2 * 3 == 7 && 4 < 5; }").expect("parses");
        let Stmt::Return(e) = &p.functions[0].body[0] else {
            panic!("return")
        };
        // Top-level operator is &&.
        assert!(matches!(e, Expr::Bin(BinOp::LogAnd, _, _)));

        // All ten levels, each operator once looser and once tighter
        // than its neighbours, and left-associative within a level.
        fn paren(e: &Expr) -> String {
            match e {
                Expr::Lit(v) => v.to_string(),
                Expr::Bin(op, l, r) => format!("({} {op:?} {})", paren(l), paren(r)),
                _ => panic!("unexpected {e:?}"),
            }
        }
        let src = "int main() { return 1 || 2 && 3 | 4 ^ 5 & 6 == 7 < 8 << 9 + 10 * 11 \
                   % 12 - 13 >> 14 >= 15 != 16 & 17 ^ 18 | 19 && 20 || 21; }";
        let p = parse(src).expect("parses");
        let Stmt::Return(e) = &p.functions[0].body[0] else {
            panic!("return")
        };
        assert_eq!(
            paren(e),
            "((1 LogOr ((2 LogAnd ((3 Or ((4 Xor ((5 And ((6 Eq ((7 Lt ((8 Shl ((9 Add \
             ((10 Mul 11) Rem 12)) Sub 13)) Shr 14)) Ge 15)) Ne 16)) And 17)) Xor 18)) \
             Or 19)) LogAnd 20)) LogOr 21)"
        );
    }

    #[test]
    fn array_assignment_vs_expression() {
        let p = parse("int a[4]; int main() { a[1] = 2; return a[1]; }").expect("parses");
        assert!(matches!(p.functions[0].body[0], Stmt::AssignIndex(..)));
    }

    #[test]
    fn errors_carry_lines() {
        let e = parse("int main() {\n  return 1 +;\n}").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
