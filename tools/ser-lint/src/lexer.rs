//! A lossless Rust lexer — just enough of the language to make the
//! rule engine sound.
//!
//! The rules in this tool are all token-shaped ("an identifier named
//! `HashMap`", "a crate root without `#![forbid(unsafe_code)]`"), so a
//! full parser would be wasted weight — but a naive
//! `line.contains("HashMap")` scan would be *wrong*: the workspace is
//! full of doc comments discussing `HashMap`, strings quoting
//! attributes, and raw-string fixtures that quote the very patterns
//! the rules forbid. The lexer's job is to classify every byte of a
//! source file into exactly one token so the rule engine can tell
//! *code* from *prose*:
//!
//! - line comments (`//`, and the doc forms `///`, `//!`);
//! - block comments with **nesting** (`/* /* */ */` is one comment);
//! - string literals, including escapes (`"\""`), byte strings
//!   (`b"..."`), and raw strings with arbitrary hash fences
//!   (`r#"..."#`, `br##"..."##`);
//! - char literals vs lifetimes (`'x'` and `'\n'` are chars; `'a` in
//!   `&'a str` is a lifetime — disambiguated by the byte *after* the
//!   would-be char);
//! - identifiers/keywords, numbers, and single-byte punctuation.
//!
//! Tokens carry their source text and line span, so diagnostics point
//! at real `file:line` locations and multi-line tokens (block
//! comments, raw strings) can be attributed to every line they cover.

/// What a token is. Comments are *kept* (hence "lossless") — the
/// `ser-lint: allow` convention lives in them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `HashMap`, `fn`, …).
    Ident,
    /// `// …` comment; `doc` marks `///` and `//!` forms.
    LineComment,
    /// `/* … */` comment, nesting already resolved.
    BlockComment,
    /// Any string literal: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, …
    Str,
    /// A char or byte literal: `'x'`, `'\u{1F980}'`, `b'\n'`.
    Char,
    /// A lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// A numeric literal (integers and floats, suffixes included).
    Number,
    /// One byte of punctuation (`{`, `(`, `#`, `.`, …).
    Punct,
}

/// One token: kind, verbatim text, and the 1-based lines it spans.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The token's exact source text.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// 1-based line the token ends on (== `line` unless multi-line).
    pub end_line: u32,
}

impl Token {
    /// Whether this token is a comment (line or block).
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// Whether this token is a doc comment (`///`, `//!`, `/**`,
    /// `/*!`). Plain `////…` dividers are *not* docs (rustdoc agrees).
    #[must_use]
    pub fn is_doc_comment(&self) -> bool {
        match self.kind {
            TokenKind::LineComment => {
                (self.text.starts_with("///") && !self.text.starts_with("////"))
                    || self.text.starts_with("//!")
            }
            TokenKind::BlockComment => {
                (self.text.starts_with("/**") && !self.text.starts_with("/***"))
                    || self.text.starts_with("/*!")
            }
            _ => false,
        }
    }
}

/// Lexes `src` into a token stream. Never fails: unterminated
/// constructs (a file ending mid-string) lex as a final token running
/// to end of input — the rule engine diagnoses files, it does not
/// reject them.
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, keeping the line counter honest.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let start = self.pos;
            let start_line = self.line;
            let kind = self.next_kind(c);
            let Some(kind) = kind else { continue };
            let text: String = self.chars[start..self.pos].iter().collect();
            self.tokens.push(Token {
                kind,
                text,
                line: start_line,
                end_line: self.line,
            });
        }
        self.tokens
    }

    /// Dispatches on the first char; returns `None` for whitespace
    /// (consumed, no token).
    fn next_kind(&mut self, c: char) -> Option<TokenKind> {
        match c {
            _ if c.is_whitespace() => {
                self.bump();
                None
            }
            '/' if self.peek(1) == Some('/') => {
                while let Some(c) = self.peek(0) {
                    if c == '\n' {
                        break;
                    }
                    self.bump();
                }
                Some(TokenKind::LineComment)
            }
            '/' if self.peek(1) == Some('*') => {
                self.bump();
                self.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (self.peek(0), self.peek(1)) {
                        (Some('/'), Some('*')) => {
                            self.bump();
                            self.bump();
                            depth += 1;
                        }
                        (Some('*'), Some('/')) => {
                            self.bump();
                            self.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            self.bump();
                        }
                        (None, _) => break,
                    }
                }
                Some(TokenKind::BlockComment)
            }
            '"' => {
                self.string();
                Some(TokenKind::Str)
            }
            '\'' => self.quote(),
            _ if c.is_alphabetic() || c == '_' => self.word(),
            _ if c.is_ascii_digit() => {
                self.number();
                Some(TokenKind::Number)
            }
            _ => {
                self.bump();
                Some(TokenKind::Punct)
            }
        }
    }

    /// A `"…"` body, opening quote included; handles `\"` and `\\`.
    fn string(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// `'` starts either a lifetime or a char literal. The grammar's
    /// actual disambiguation: `'x` is a lifetime unless the char after
    /// the identifier-ish run is another `'` — so `'a'` is a char,
    /// `'a,` a lifetime, `'static` a lifetime, `'\n'` a char (the
    /// backslash can never start a lifetime).
    fn quote(&mut self) -> Option<TokenKind> {
        let next = self.peek(1);
        let is_lifetime = match next {
            Some(c) if c.is_alphabetic() || c == '_' => self.peek(2) != Some('\''),
            _ => false,
        };
        self.bump(); // the quote
        if is_lifetime {
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
            return Some(TokenKind::Lifetime);
        }
        // Char literal: consume to the closing quote, escapes skipped.
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        Some(TokenKind::Char)
    }

    /// An identifier-ish run. Resolves the raw-string prefixes (`r`,
    /// `b`, `br`, `rb`) by looking at what follows the word, and the
    /// raw-identifier form `r#ident`.
    fn word(&mut self) -> Option<TokenKind> {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        let word: String = self.chars[start..self.pos].iter().collect();
        match word.as_str() {
            // `b'x'` — byte char.
            "b" if self.peek(0) == Some('\'') => {
                self.bump();
                while let Some(c) = self.bump() {
                    match c {
                        '\\' => {
                            self.bump();
                        }
                        '\'' => break,
                        _ => {}
                    }
                }
                return Some(TokenKind::Char);
            }
            // `b"…"` — byte string with ordinary escape rules.
            "b" if self.peek(0) == Some('"') => {
                self.string();
                return Some(TokenKind::Str);
            }
            // Raw (byte) strings: `r"…"`, `r#"…"#`, `br##"…"##`.
            "r" | "br" | "rb" => {
                let mut hashes = 0usize;
                while self.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some('"') {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    self.raw_string_body(hashes);
                    return Some(TokenKind::Str);
                }
                // `r#ident` — a raw identifier: fold the `#` and the
                // word into one Ident token.
                if word == "r" && hashes == 1 {
                    self.bump(); // '#'
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                return Some(TokenKind::Ident);
            }
            _ => {}
        }
        Some(TokenKind::Ident)
    }

    /// The body of a raw string already opened with `hashes` fences:
    /// runs to `"` followed by that many `#`s — no escapes exist.
    fn raw_string_body(&mut self, hashes: usize) {
        while let Some(c) = self.bump() {
            if c == '"' && (0..hashes).all(|i| self.peek(i) == Some('#')) {
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
    }

    /// A numeric literal: digits, `_` separators, type suffixes, hex
    /// letters, and a fractional part when the dot is followed by a
    /// digit (so `0..10` stays three tokens and `1.5e-3` is one).
    fn number(&mut self) {
        while let Some(c) = self.peek(0) {
            let continues = c.is_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()))
                || ((c == '+' || c == '-')
                    && matches!(self.chars.get(self.pos.wrapping_sub(1)), Some('e' | 'E')));
            if !continues {
                break;
            }
            self.bump();
        }
    }
}
