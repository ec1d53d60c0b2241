//! Line-oriented tokenizer for Patmos assembly.

use std::fmt;

/// A token of the assembly language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier, mnemonic, register name, or directive (with dot).
    Ident(String),
    /// An integer literal (decimal or `0x` hex; sign handled by parser).
    Int(i64),
    /// Punctuation characters that carry structure.
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Semi,
    Comma,
    Equals,
    Plus,
    Minus,
    Bang,
    Colon,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::LBrace => f.write_str("{"),
            Token::RBrace => f.write_str("}"),
            Token::LBracket => f.write_str("["),
            Token::RBracket => f.write_str("]"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Semi => f.write_str(";"),
            Token::Comma => f.write_str(","),
            Token::Equals => f.write_str("="),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Bang => f.write_str("!"),
            Token::Colon => f.write_str(":"),
        }
    }
}

/// Tokenizes one source line. Comments (`#` or `//`) run to end of line.
///
/// Returns an error message naming the column of an unexpected
/// character or of an integer literal above `u32::MAX`.
pub fn tokenize_line(line: &str) -> Result<Vec<Token>, String> {
    let mut tokens = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '#' => break,
            '/' if bytes.get(i + 1) == Some(&b'/') => break,
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            '[' => {
                tokens.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                tokens.push(Token::RBracket);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semi);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Equals);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '!' => {
                tokens.push(Token::Bang);
                i += 1;
            }
            ':' => {
                tokens.push(Token::Colon);
                i += 1;
            }
            '0'..='9' => {
                let start = i;
                let value = if c == '0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X')) {
                    i += 2;
                    let hex_start = i;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_hexdigit() {
                        i += 1;
                    }
                    if i == hex_start {
                        return Err(unexpected(start));
                    }
                    u32::from_str_radix(&line[hex_start..i], 16)
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    line[start..i].parse()
                };
                let value = value.map_err(|_| {
                    format!(
                        "integer literal at column {} exceeds {}",
                        start + 1,
                        u32::MAX
                    )
                })?;
                tokens.push(Token::Int(i64::from(value)));
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '.' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(line[start..i].to_string()));
            }
            _ => return Err(unexpected(i)),
        }
    }
    Ok(tokens)
}

fn unexpected(index: usize) -> String {
    format!("unexpected character at column {}", index + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_instruction_line() {
        let toks = tokenize_line("(p1) add r1 = r2, r3 # comment").expect("lexes");
        assert_eq!(
            toks,
            vec![
                Token::LParen,
                Token::Ident("p1".into()),
                Token::RParen,
                Token::Ident("add".into()),
                Token::Ident("r1".into()),
                Token::Equals,
                Token::Ident("r2".into()),
                Token::Comma,
                Token::Ident("r3".into()),
            ]
        );
    }

    #[test]
    fn tokenizes_numbers() {
        let toks = tokenize_line("li r1 = -42").expect("lexes");
        assert!(toks.contains(&Token::Minus));
        assert!(toks.contains(&Token::Int(42)));
        let toks = tokenize_line(".word 0xFF").expect("lexes");
        assert!(toks.contains(&Token::Int(255)));
    }

    #[test]
    fn tokenizes_bundle_and_memory() {
        let toks = tokenize_line("{ lws r1 = [r2 + 1] ; nop }").expect("lexes");
        assert_eq!(toks.first(), Some(&Token::LBrace));
        assert_eq!(toks.last(), Some(&Token::RBrace));
        assert!(toks.contains(&Token::Semi));
        assert!(toks.contains(&Token::LBracket));
    }

    #[test]
    fn double_slash_comment() {
        let toks = tokenize_line("nop // trailing").expect("lexes");
        assert_eq!(toks, vec![Token::Ident("nop".into())]);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            tokenize_line("nop @"),
            Err("unexpected character at column 5".into())
        );
    }

    #[test]
    fn directive_keeps_dot() {
        let toks = tokenize_line(".func main").expect("lexes");
        assert_eq!(toks[0], Token::Ident(".func".into()));
    }
}
