//! A small Rust lexer: just enough syntax awareness to lint safely.
//!
//! The lints in this crate match token *sequences* (`let _ =`,
//! `. ok ( ) ;`, `ident . iter (`), so the one thing the lexer must get
//! right is never mistaking comment or string-literal content for code — a
//! doc comment mentioning `.ok();` must not trip `swallowed-result`. It
//! therefore handles the full literal surface of the language (line and
//! nested block comments, plain/raw/byte strings with arbitrary `#`
//! fences, char literals vs. lifetimes, numeric literals with radix
//! prefixes and type suffixes) while treating everything else as opaque
//! identifier or punctuation tokens.
//!
//! The lexer is total: any byte sequence (decoded lossily to UTF-8)
//! produces a token stream without panicking — unterminated literals
//! simply extend to end of input. A proptest in `tests/prop.rs` holds it
//! to that.

/// What a token is, at the granularity the lints need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// audit:allow(dead-public-api) -- return type of FileCx::kind; FileCx is the lexer seam tests/prop.rs drives
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `as`, `fn`, `HashMap`).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Integer literal, including radix prefix and suffix (`0xFF`, `2u8`).
    Int,
    /// Float literal (`1.5`, `1e9`).
    Float,
    /// String-ish literal: `"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// `// …` including doc comments.
    LineComment,
    /// `/* … */`, nested, possibly unterminated.
    BlockComment,
    /// Any other single non-whitespace character.
    Punct,
}

/// One token with its source span.
#[derive(Debug, Clone, Copy)]
// audit:allow(dead-public-api) -- element type of FileCx's public `code` field, which tests/prop.rs inspects
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub lo: usize,
    /// Byte offset one past the last byte.
    pub hi: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in characters) of the first byte.
    pub col: u32,
}

impl Tok {
    /// The token's text within `src`.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.lo..self.hi).unwrap_or("")
    }
}

/// Character stream with panic-free lookahead.
struct Cursor {
    chars: Vec<(usize, char)>,
    /// Index into `chars`.
    at: usize,
    /// Total byte length of the source.
    len: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Self { chars: src.char_indices().collect(), at: 0, len: src.len(), line: 1, col: 1 }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.at + ahead).map(|&(_, c)| c)
    }

    fn pos(&self) -> usize {
        self.chars.get(self.at).map_or(self.len, |&(off, _)| off)
    }

    fn bump(&mut self) -> Option<char> {
        let &(_, c) = self.chars.get(self.at)?;
        self.at += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consume while `pred` holds.
    fn eat_while(&mut self, pred: impl Fn(char) -> bool) {
        while self.peek(0).is_some_and(&pred) {
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Tokenize Rust source. Total: never fails, never panics; malformed
/// input degrades to `Punct` tokens or literals running to end of input.
pub(crate) fn lex(src: &str) -> Vec<Tok> {
    let mut cur = Cursor::new(src);
    let mut toks = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (lo, line, col) = (cur.pos(), cur.line, cur.col);
        let kind = scan_one(&mut cur, c);
        // `scan_one` always consumes at least one char, so this loop makes
        // progress; the debug_assert documents that invariant.
        debug_assert!(cur.pos() > lo || cur.peek(0).is_none());
        if let Some(kind) = kind {
            toks.push(Tok { kind, lo, hi: cur.pos(), line, col });
        }
    }
    toks
}

/// Scan one token starting at `c`; returns `None` for whitespace.
fn scan_one(cur: &mut Cursor, c: char) -> Option<TokKind> {
    if c.is_whitespace() {
        cur.bump();
        return None;
    }
    // Comments.
    if c == '/' {
        match cur.peek(1) {
            Some('/') => {
                cur.eat_while(|c| c != '\n');
                return Some(TokKind::LineComment);
            }
            Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('/'), Some('*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some('*'), Some('/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break, // unterminated: comment to EOF
                    }
                }
                return Some(TokKind::BlockComment);
            }
            _ => {
                cur.bump();
                return Some(TokKind::Punct);
            }
        }
    }
    // Raw / byte / C strings: r"…", r#"…"#, br"…", b"…", c"…".
    if matches!(c, 'r' | 'b' | 'c') {
        if let Some(kind) = try_string_prefix(cur, c) {
            return Some(kind);
        }
    }
    if c == '"' {
        cur.bump();
        scan_plain_string(cur);
        return Some(TokKind::Str);
    }
    if c == '\'' {
        return Some(scan_char_or_lifetime(cur));
    }
    if c.is_ascii_digit() {
        return Some(scan_number(cur));
    }
    if is_ident_start(c) {
        cur.eat_while(is_ident_continue);
        return Some(TokKind::Ident);
    }
    // Glue the multi-char operators lints match as single units (`::` in
    // paths, `->`/`=>` so `>` never miscounts as a generic close).
    if let Some(n) = cur.peek(1) {
        if matches!((c, n), (':', ':') | ('-', '>') | ('=', '>')) {
            cur.bump();
            cur.bump();
            return Some(TokKind::Punct);
        }
    }
    cur.bump();
    Some(TokKind::Punct)
}

/// If the cursor sits on a string-literal prefix (`r`, `b`, `br`, `c`…),
/// consume the whole literal and return its kind; otherwise consume
/// nothing and return `None` (the caller lexes an identifier).
fn try_string_prefix(cur: &mut Cursor, first: char) -> Option<TokKind> {
    // How many prefix chars before the quote / hash fence?
    let second = cur.peek(1);
    let (skip, raw) = match (first, second) {
        ('r', Some('"' | '#')) => (1, true),
        ('b' | 'c', Some('"')) => (1, false),
        ('b', Some('r')) if matches!(cur.peek(2), Some('"' | '#')) => (2, true),
        ('b', Some('\'')) => {
            // Byte char literal b'x'.
            cur.bump();
            cur.bump();
            scan_char_body(cur);
            return Some(TokKind::Char);
        }
        _ => return None,
    };
    if raw {
        // Count the `#` fence after the prefix.
        let mut hashes = 0usize;
        while cur.peek(skip + hashes) == Some('#') {
            hashes += 1;
        }
        if cur.peek(skip + hashes) != Some('"') {
            return None; // `r#foo` raw identifier, not a string
        }
        for _ in 0..=(skip + hashes) {
            cur.bump();
        }
        // Scan to `"` followed by `hashes` hashes (or EOF).
        loop {
            match cur.bump() {
                None => break,
                Some('"') => {
                    let mut seen = 0usize;
                    while seen < hashes && cur.peek(0) == Some('#') {
                        cur.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
    } else {
        cur.bump(); // prefix
        cur.bump(); // opening quote
        scan_plain_string(cur);
    }
    Some(TokKind::Str)
}

/// Scan a `"…"` body after the opening quote, honoring `\` escapes.
/// Unterminated strings run to end of input.
fn scan_plain_string(cur: &mut Cursor) {
    loop {
        match cur.bump() {
            None | Some('"') => break,
            Some('\\') => {
                cur.bump();
            }
            Some(_) => {}
        }
    }
}

/// After a `'`: either a lifetime (`'a`) or a char literal (`'a'`).
fn scan_char_or_lifetime(cur: &mut Cursor) -> TokKind {
    cur.bump(); // the quote
    match cur.peek(0) {
        Some(c) if is_ident_start(c) && cur.peek(1) != Some('\'') => {
            // `'ident` not followed by a closing quote → lifetime. (A
            // multi-char run ending in `'` like `'abc'` is invalid Rust;
            // calling it a lifetime plus junk is fine for linting.)
            cur.eat_while(is_ident_continue);
            if cur.peek(0) == Some('\'') && !cur.peek(1).is_some_and(is_ident_continue) {
                // `'x'` where x was a single ident char: it was a char.
                cur.bump();
                return TokKind::Char;
            }
            TokKind::Lifetime
        }
        _ => {
            scan_char_body(cur);
            TokKind::Char
        }
    }
}

/// Scan a char-literal body up to and including the closing quote.
fn scan_char_body(cur: &mut Cursor) {
    match cur.bump() {
        Some('\\') => {
            // Escape: consume the escape char, then anything up to the
            // closing quote (covers \u{…}).
            cur.bump();
            cur.eat_while(|c| c != '\'' && c != '\n');
            cur.bump();
        }
        Some('\'') | None => {} // empty '' or EOF
        Some(_) => {
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
        }
    }
}

/// Scan a numeric literal: radix prefixes, `_`, exponents, suffixes.
fn scan_number(cur: &mut Cursor) -> TokKind {
    let mut float = false;
    // Leading digits (covers 0x…, 0b…: letters are eaten as digits-or-
    // suffix below, which is fine at lint granularity).
    let start = cur.at;
    cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
    // A decimal run with `e<digit>` inside is an exponent form (`1e9`);
    // radix-prefixed runs (0x…) keep their letters as digits.
    let run: &[(usize, char)] = &cur.chars[start..cur.at];
    let has_radix =
        run.len() >= 2 && run[0].1 == '0' && matches!(run[1].1, 'x' | 'X' | 'b' | 'B' | 'o' | 'O');
    if !has_radix {
        if let Some(e) = run.iter().position(|&(_, c)| c == 'e' || c == 'E') {
            if run.get(e + 1).is_some_and(|&(_, c)| c.is_ascii_digit()) {
                float = true;
            }
        }
    }
    // One fractional part, only if followed by a digit (so `0..10` and
    // `1.max(2)` lex as Int, Punct, … not a float).
    if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        float = true;
        cur.bump();
        cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
    }
    // Exponent sign: `1e-9` — the `e` was consumed above, a `+`/`-` digit
    // pair may follow.
    if matches!(cur.peek(0), Some('+' | '-')) && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        // Only if the previous char really was an exponent marker.
        let prev = cur.at.checked_sub(1).and_then(|i| cur.chars.get(i)).map(|&(_, c)| c);
        if matches!(prev, Some('e' | 'E')) {
            float = true;
            cur.bump();
            cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
        }
    }
    if float {
        TokKind::Float
    } else {
        TokKind::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).iter().map(|t| (t.kind, t.text(src).to_owned())).collect()
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let src = r##"
            // a comment mentioning unwrap()
            /* block /* nested */ with panic! */
            let s = "unwrap() inside a string";
            let r = r#"raw with " quote"#;
        "##;
        let toks = lex(src);
        let idents: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text(src)).collect();
        assert!(!idents.contains(&"unwrap"), "{idents:?}");
        assert!(!idents.contains(&"panic"), "{idents:?}");
        assert!(idents.contains(&"let"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = ks.iter().filter(|(k, _)| *k == TokKind::Lifetime).collect();
        let chars: Vec<_> = ks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{ks:?}");
        assert_eq!(chars.len(), 2, "{ks:?}");
    }

    #[test]
    fn numbers_lex_as_ints_and_floats() {
        let src = "0xFF 0b1010 255 1_000 2u8 1.5 1e9 0..10";
        let toks = lex(src);
        let ints: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Int).map(|t| t.text(src)).collect();
        assert_eq!(ints, ["0xFF", "0b1010", "255", "1_000", "2u8", "0", "10"]);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Float).count(), 2);
    }

    #[test]
    fn raw_string_fences() {
        let src = r###"let x = r##"contains "# inside"## + 1;"###;
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        let plus = toks.iter().find(|t| t.text(src) == "+");
        assert!(plus.is_some(), "code after the raw string still lexes");
    }

    #[test]
    fn unterminated_literals_do_not_loop_or_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'", "b'", "'\\", "r#"] {
            let toks = lex(src);
            assert!(!toks.is_empty(), "{src:?}");
        }
    }

    #[test]
    fn line_and_column_tracking() {
        let src = "a\n  bb\ncc";
        let toks = lex(src);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!((toks[2].line, toks[2].col), (3, 1));
    }
}
