//! PatC tokenizer.

use std::fmt;

/// A PatC token; an identifier borrows its name from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    // Keywords.
    KwInt,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwBound,
    KwHeap,
    KwSpm,
    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tok::Ident(s) => return write!(f, "{s}"),
            Tok::Int(v) => return write!(f, "{v}"),
            Tok::KwInt => "int",
            Tok::KwIf => "if",
            Tok::KwElse => "else",
            Tok::KwWhile => "while",
            Tok::KwFor => "for",
            Tok::KwReturn => "return",
            Tok::KwBound => "bound",
            Tok::KwHeap => "heap",
            Tok::KwSpm => "spm",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Semi => ";",
            Tok::Comma => ",",
            Tok::Assign => "=",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::Amp => "&",
            Tok::Pipe => "|",
            Tok::Caret => "^",
            Tok::Tilde => "~",
            Tok::Bang => "!",
            Tok::Shl => "<<",
            Tok::Shr => ">>",
            Tok::EqEq => "==",
            Tok::NotEq => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
        };
        f.write_str(s)
    }
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpannedTok<'a> {
    pub tok: Tok<'a>,
    pub line: usize,
}

/// Lexes a whole source file.
///
/// Returns `Err((line, message))` on an unexpected character.
pub fn lex(source: &str) -> Result<Vec<SpannedTok<'_>>, (usize, String)> {
    let mut out = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        // Byte-wise lookahead: the source need not be ASCII (garbage
        // input included), so never slice the `str` at raw offsets.
        let two: &[u8] = if i + 1 < bytes.len() {
            &bytes[i..i + 2]
        } else {
            b""
        };
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if two == b"//" => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if two == b"/*" => {
                i += 2;
                while i + 1 < bytes.len() && &bytes[i..i + 2] != b"*/" {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            '0'..='9' => {
                let start = i;
                let (digits, radix) = if c == '0' && matches!(bytes.get(i + 1), Some(b'x' | b'X')) {
                    i += 2;
                    let hs = i;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_hexdigit() {
                        i += 1;
                    }
                    if i == hs {
                        return Err((line, "bad hex literal".to_string()));
                    }
                    (&source[hs..i], 16)
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    (&source[start..i], 10)
                };
                // A literal is one 32-bit word, as in the assembler.
                let value = u32::from_str_radix(digits, radix).map_err(|_| {
                    let text = &source[start..i];
                    (line, format!("integer literal {text} exceeds {}", u32::MAX))
                })?;
                out.push(SpannedTok {
                    tok: Tok::Int(value.into()),
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &source[start..i];
                let tok = match word {
                    "int" => Tok::KwInt,
                    "if" => Tok::KwIf,
                    "else" => Tok::KwElse,
                    "while" => Tok::KwWhile,
                    "for" => Tok::KwFor,
                    "return" => Tok::KwReturn,
                    "bound" => Tok::KwBound,
                    "heap" => Tok::KwHeap,
                    "spm" => Tok::KwSpm,
                    _ => Tok::Ident(word),
                };
                out.push(SpannedTok { tok, line });
            }
            _ => {
                let (tok, len) = match two {
                    b"<<" => (Tok::Shl, 2),
                    b">>" => (Tok::Shr, 2),
                    b"==" => (Tok::EqEq, 2),
                    b"!=" => (Tok::NotEq, 2),
                    b"<=" => (Tok::Le, 2),
                    b">=" => (Tok::Ge, 2),
                    b"&&" => (Tok::AndAnd, 2),
                    b"||" => (Tok::OrOr, 2),
                    _ => {
                        let t = match c {
                            '(' => Tok::LParen,
                            ')' => Tok::RParen,
                            '{' => Tok::LBrace,
                            '}' => Tok::RBrace,
                            '[' => Tok::LBracket,
                            ']' => Tok::RBracket,
                            ';' => Tok::Semi,
                            ',' => Tok::Comma,
                            '=' => Tok::Assign,
                            '+' => Tok::Plus,
                            '-' => Tok::Minus,
                            '*' => Tok::Star,
                            '/' => Tok::Slash,
                            '%' => Tok::Percent,
                            '&' => Tok::Amp,
                            '|' => Tok::Pipe,
                            '^' => Tok::Caret,
                            '~' => Tok::Tilde,
                            '!' => Tok::Bang,
                            '<' => Tok::Lt,
                            '>' => Tok::Gt,
                            _ if !c.is_ascii() => {
                                return Err((
                                    line,
                                    format!("unexpected non-ascii byte {:#04x}", bytes[i]),
                                ))
                            }
                            other => return Err((line, format!("unexpected character `{other}`"))),
                        };
                        (t, 1)
                    }
                };
                out.push(SpannedTok { tok, line });
                i += len;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src)
            .expect("lexes")
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("int x; if while bound"),
            vec![
                Tok::KwInt,
                Tok::Ident("x"),
                Tok::Semi,
                Tok::KwIf,
                Tok::KwWhile,
                Tok::KwBound
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            toks("a <= b == c >> 2 && d"),
            vec![
                Tok::Ident("a"),
                Tok::Le,
                Tok::Ident("b"),
                Tok::EqEq,
                Tok::Ident("c"),
                Tok::Shr,
                Tok::Int(2),
                Tok::AndAnd,
                Tok::Ident("d"),
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let spanned = lex("x // one\n/* two\nlines */ y").expect("lexes");
        assert_eq!(spanned.len(), 2);
        assert_eq!(spanned[0].line, 1);
        assert_eq!(spanned[1].line, 3);
    }

    #[test]
    fn hex_literals() {
        assert_eq!(toks("0xFF"), vec![Tok::Int(255)]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("int @").is_err());
    }
}
