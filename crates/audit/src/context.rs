//! Per-file analysis context: the code and comment token streams of one
//! `lex` call, plus the structural facts every lint needs — which tokens
//! sit inside `#[cfg(test)]` items and which suppression comments the
//! file carries. Which item a token belongs to is the item parser's
//! answer (`items::FileItems::path_at`).

use crate::lexer::{lex, Tok, TokKind};

/// A parsed `// audit:allow(lint, …) -- reason` comment.
#[derive(Debug, Clone)]
// audit:allow(dead-public-api) -- element type of FileCx's public `suppressions` field; FileCx is the lexer seam tests/prop.rs drives
pub struct Suppression {
    /// Lint names listed in the comment.
    pub lints: Vec<String>,
    /// The mandatory justification after `--`. `None` means the author
    /// omitted it — itself reported as a `bad-suppression` finding.
    pub reason: Option<String>,
    /// Line the comment sits on.
    pub comment_line: u32,
    /// Line whose findings it suppresses (same line for trailing
    /// comments, the next code line for standalone ones). `None` for
    /// file-level suppressions, which cover the whole file.
    pub target_line: Option<u32>,
}

/// Analysis context for one source file.
// audit:allow(dead-public-api) -- the per-file lexer seam tests/prop.rs drives
pub struct FileCx<'a> {
    /// The raw source.
    pub src: &'a str,
    /// Code tokens only — the lints never see comments.
    pub code: Vec<Tok>,
    /// Comment tokens, in file order: the source of `suppressions` and of
    /// the doc-comment words that keep a public API alive.
    pub(crate) comments: Vec<Tok>,
    /// For `code[i]`, true when the token is inside a `#[cfg(test)]` item.
    in_test: Vec<bool>,
    /// Suppression comments, in file order.
    pub suppressions: Vec<Suppression>,
}

impl<'a> FileCx<'a> {
    /// Lex and analyze one file.
    pub fn new(src: &'a str) -> Self {
        let (comments, code): (Vec<Tok>, Vec<Tok>) = lex(src)
            .into_iter()
            .partition(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment));
        let in_test = mark_test_regions(src, &code);
        let suppressions = parse_suppressions(src, &comments, &code);
        Self { src, code, comments, in_test, suppressions }
    }

    /// Is code token `i` inside a `#[cfg(test)]` item?
    pub(crate) fn is_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// The bodies of the doc comments (`///`, `//!`, `/**`, `/*!`).
    pub(crate) fn doc_comments(&self) -> impl Iterator<Item = &str> {
        self.comments.iter().map(|t| t.text(self.src)).filter(|body| is_doc(body))
    }

    /// Text of code token `i`.
    pub fn text(&self, i: usize) -> &str {
        self.code.get(i).map_or("", |t| t.text(self.src))
    }

    /// Kind of code token `i` (Punct for out-of-range, which never
    /// matches anything).
    pub fn kind(&self, i: usize) -> TokKind {
        self.code.get(i).map_or(TokKind::Punct, |t| t.kind)
    }

    /// Does the code token at `i` equal `text` (and is an identifier)?
    pub(crate) fn ident_at(&self, i: usize, text: &str) -> bool {
        self.kind(i) == TokKind::Ident && self.text(i) == text
    }

    /// Does the code token at `i` equal the punctuation `ch`?
    pub(crate) fn punct_at(&self, i: usize, ch: &str) -> bool {
        self.kind(i) == TokKind::Punct && self.text(i) == ch
    }
}

/// Mark code tokens covered by a `#[cfg(test)]` attribute's item (or by a
/// bare `#[test]` function).
fn mark_test_regions(src: &str, code: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        let is_cfg_test = seq_texts(src, code, i, &["#", "[", "cfg", "(", "test", ")", "]"]);
        let is_bare_test = seq_texts(src, code, i, &["#", "[", "test", "]"]);
        if is_cfg_test || is_bare_test {
            let attr_len = if is_cfg_test { 7 } else { 4 };
            let end = item_end(src, code, i + attr_len);
            for slot in in_test.iter_mut().take(end).skip(i) {
                *slot = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    in_test
}

/// One past the last token of the item starting at `from` (skipping
/// further attributes): either the matching `}` of its first `{`, or its
/// terminating `;`, whichever comes first structurally.
fn item_end(src: &str, code: &[Tok], from: usize) -> usize {
    let text = |i: usize| code.get(i).map_or("", |t| t.text(src));
    let mut i = from;
    // Skip stacked attributes `#[…]`.
    while text(i) == "#" {
        let mut depth = 0i32;
        i += 1;
        while i < code.len() {
            match text(i) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Scan to the item's body `{ … }` or to a `;` at bracket depth 0.
    let mut paren = 0i32;
    while i < code.len() {
        match text(i) {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" if paren <= 0 => return i + 1,
            "{" => {
                // Brace-match to the end of the body.
                let mut depth = 0i32;
                while i < code.len() {
                    match text(i) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return code.len();
            }
            _ => {}
        }
        i += 1;
    }
    code.len()
}

/// Is this comment body a doc comment?
fn is_doc(body: &str) -> bool {
    ["///", "//!", "/**", "/*!"].iter().any(|p| body.starts_with(p))
}

/// Pull `audit:allow(...)` suppressions out of comment tokens.
fn parse_suppressions(src: &str, comments: &[Tok], code: &[Tok]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in comments {
        let body = t.text(src);
        // Doc comments document the syntax; only plain comments suppress.
        if is_doc(body) {
            continue;
        }
        let Some(at) = body.find("audit:allow") else { continue };
        let rest = &body[at + "audit:allow".len()..];
        let (file_level, rest) = match rest.strip_prefix("-file") {
            Some(r) => (true, r),
            None => (false, rest),
        };
        let Some(open) = rest.find('(') else { continue };
        let Some(close) = rest[open..].find(')') else { continue };
        let lints: Vec<String> = rest[open + 1..open + close]
            .split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect();
        if lints.is_empty() {
            continue;
        }
        let reason = rest[open + close + 1..]
            .split_once("--")
            .map(|(_, r)| r.trim().to_owned())
            .filter(|r| !r.is_empty());
        let target_line = if file_level {
            None
        } else if code.iter().any(|c| c.line == t.line && c.lo < t.lo) {
            // Trailing comment: code precedes it on the same line.
            Some(t.line)
        } else {
            // Standalone comment: covers the next line holding code.
            Some(code.iter().find(|c| c.line > t.line).map_or(t.line + 1, |c| c.line))
        };
        out.push(Suppression { lints, reason, comment_line: t.line, target_line });
    }
    out
}

/// Do the code tokens starting at `i` match `texts` exactly?
fn seq_texts(src: &str, code: &[Tok], i: usize, texts: &[&str]) -> bool {
    texts.iter().enumerate().all(|(k, t)| code.get(i + k).is_some_and(|c| c.text(src) == *t))
}
