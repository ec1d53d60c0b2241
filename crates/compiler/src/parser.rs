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

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
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

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
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

    fn ident(&mut self) -> Result<String, ParseError> {
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

    fn int_lit(&mut self) -> Result<i64, ParseError> {
        let line = self.line();
        let neg = self.eat(&Tok::Minus);
        match self.next() {
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
            let name = self.ident()?;
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
                params.push(self.ident()?);
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

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
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
                Ok(Stmt::Decl(name, init))
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
                self.expect(Tok::LParen)?;
                let init = self.simple_stmt()?;
                self.expect(Tok::Semi)?;
                let cond = self.expr()?;
                self.expect(Tok::Semi)?;
                let step = self.simple_stmt()?;
                self.expect(Tok::RParen)?;
                let bound = self.bound()?;
                let mut body = self.block()?;
                body.push(step);
                // Desugar: { init; while (cond) bound { body; step; } }
                // wrapped as an If(1, ..) so declarations stay scoped? PatC
                // has function-level scope, so a plain sequence is fine —
                // but Stmt is a single node, so emit a While preceded by
                // init through a synthetic block: we return a two-element
                // sequence via If(true).
                Ok(Stmt::If(
                    Expr::Lit(1),
                    vec![init, Stmt::While(cond, bound, body, line)],
                    vec![],
                ))
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
                    return Ok(Stmt::Assign(name, e));
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
                        return Ok(Stmt::AssignIndex(name, idx, e));
                    }
                    self.pos = save;
                }
                _ => {}
            }
        }
        Ok(Stmt::ExprStmt(self.expr()?))
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.logical_or()
    }

    fn logical_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.logical_and()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.logical_and()?;
            lhs = Expr::Bin(BinOp::LogOr, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn logical_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.bit_or()?;
        while self.eat(&Tok::AndAnd) {
            let rhs = self.bit_or()?;
            lhs = Expr::Bin(BinOp::LogAnd, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.bit_xor()?;
        while self.eat(&Tok::Pipe) {
            let rhs = self.bit_xor()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_xor(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.bit_and()?;
        while self.eat(&Tok::Caret) {
            let rhs = self.bit_and()?;
            lhs = Expr::Bin(BinOp::Xor, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.equality()?;
        while self.eat(&Tok::Amp) {
            let rhs = self.equality()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.relational()?;
        loop {
            let op = match self.peek() {
                Some(Tok::EqEq) => BinOp::Eq,
                Some(Tok::NotEq) => BinOp::Ne,
                _ => break,
            };
            self.next();
            let rhs = self.relational()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn relational(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.shift()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Lt) => BinOp::Lt,
                Some(Tok::Le) => BinOp::Le,
                Some(Tok::Gt) => BinOp::Gt,
                Some(Tok::Ge) => BinOp::Ge,
                _ => break,
            };
            self.next();
            let rhs = self.shift()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn shift(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Shl) => BinOp::Shl,
                Some(Tok::Shr) => BinOp::Shr,
                _ => break,
            };
            self.next();
            let rhs = self.additive()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.multiplicative()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Rem,
                _ => break,
            };
            self.next();
            let rhs = self.unary()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.next();
                Ok(Expr::Un(UnOp::Neg, Box::new(self.unary()?)))
            }
            Some(Tok::Bang) => {
                self.next();
                Ok(Expr::Un(UnOp::Not, Box::new(self.unary()?)))
            }
            Some(Tok::Tilde) => {
                self.next();
                Ok(Expr::Un(UnOp::BitNot, Box::new(self.unary()?)))
            }
            _ => self.primary(),
        }
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
                    Ok(Expr::Call(name, args))
                } else if self.eat(&Tok::LBracket) {
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    Ok(Expr::Index(name, Box::new(idx)))
                } else {
                    Ok(Expr::Var(name))
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

/// Parses a PatC translation unit.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line.
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let toks = lex(source).map_err(|(line, message)| ParseError { line, message })?;
    let mut parser = Parser { toks, pos: 0 };
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
