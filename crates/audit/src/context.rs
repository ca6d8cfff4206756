//! Per-file analysis context: the code token stream plus the structural
//! facts every lint needs — which tokens sit inside `#[cfg(test)]` items,
//! what item (module/function) a token belongs to, and which suppression
//! comments the file carries.

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
    /// Code tokens only — comments stripped (they live in `suppressions`
    /// and are otherwise irrelevant to lints).
    pub code: Vec<Tok>,
    /// For `code[i]`, true when the token is inside a `#[cfg(test)]` item.
    in_test: Vec<bool>,
    /// For `code[i]`, the innermost named item path (`mod_a::fn_b`).
    item_of: Vec<u32>,
    /// Interned item paths; `item_of` indexes this.
    items: Vec<String>,
    /// Suppression comments, in file order.
    pub suppressions: Vec<Suppression>,
}

impl<'a> FileCx<'a> {
    /// Lex and analyze one file.
    pub fn new(src: &'a str) -> Self {
        let all = lex(src);
        let code: Vec<Tok> = all
            .iter()
            .copied()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let in_test = mark_test_regions(src, &code);
        let (items, item_of) = track_items(src, &code);
        let suppressions = parse_suppressions(src, &all, &code);
        Self { src, code, in_test, item_of, items, suppressions }
    }

    /// Is code token `i` inside a `#[cfg(test)]` item?
    pub(crate) fn is_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// Item path (`mod::fn`) containing code token `i`; empty at top level.
    pub fn item(&self, i: usize) -> &str {
        self.item_of.get(i).and_then(|&id| self.items.get(id as usize)).map_or("", String::as_str)
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

    /// Match a sequence of token texts starting at `i` (idents and puncts
    /// both compared by text).
    pub(crate) fn seq_at(&self, i: usize, texts: &[&str]) -> bool {
        texts.iter().enumerate().all(|(k, t)| self.text(i + k) == *t)
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

/// Per-token innermost item path. A simple brace-depth walk: `mod X {`,
/// `fn X …{`, `impl X … {`, `trait X {` push their name at the brace they
/// open; the matching close pops it.
fn track_items(src: &str, code: &[Tok]) -> (Vec<String>, Vec<u32>) {
    let mut items: Vec<String> = vec![String::new()];
    let mut item_of = vec![0u32; code.len()];
    // Stack of (brace_depth_at_open, item_id).
    let mut stack: Vec<(i32, u32)> = Vec::new();
    let mut depth = 0i32;
    // Name captured from the most recent item keyword, waiting for its `{`.
    let mut pending: Option<String> = None;
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i].text(src);
        match t {
            "mod" | "fn" | "trait" | "struct" | "enum" if code[i].kind == TokKind::Ident => {
                if let Some(name) = code.get(i + 1).map(|n| n.text(src)) {
                    if code.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                        pending = Some(name.to_owned());
                    }
                }
            }
            "impl" if code[i].kind == TokKind::Ident => {
                // `impl Foo {` / `impl Trait for Foo {`: use the last
                // ident before the opening brace as the name.
                let mut j = i + 1;
                let mut last = String::new();
                let mut angle = 0i32;
                while j < code.len() {
                    let tj = code[j].text(src);
                    match tj {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "{" if angle <= 0 => break,
                        ";" => break,
                        _ => {
                            if code[j].kind == TokKind::Ident && tj != "for" && tj != "where" {
                                last = tj.to_owned();
                            }
                        }
                    }
                    j += 1;
                }
                if !last.is_empty() {
                    pending = Some(last);
                }
            }
            "{" => {
                depth += 1;
                if let Some(name) = pending.take() {
                    let parent = stack.last().map_or(0, |&(_, id)| id);
                    let path = if items[parent as usize].is_empty() {
                        name
                    } else {
                        format!("{}::{}", items[parent as usize], name)
                    };
                    let id = items.len() as u32;
                    items.push(path);
                    stack.push((depth, id));
                }
            }
            "}" => {
                if stack.last().is_some_and(|&(d, _)| d == depth) {
                    stack.pop();
                }
                depth -= 1;
            }
            ";" => {
                // `fn f();` in a trait, `struct X;` — the pending name
                // never opens a brace.
                pending = None;
            }
            _ => {}
        }
        item_of[i] = stack.last().map_or(0, |&(_, id)| id);
        i += 1;
    }
    (items, item_of)
}

/// Pull `audit:allow(...)` suppressions out of comment tokens.
fn parse_suppressions(src: &str, all: &[Tok], code: &[Tok]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in all {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let body = t.text(src);
        // Doc comments document the syntax; only plain comments suppress.
        if ["///", "//!", "/**", "/*!"].iter().any(|p| body.starts_with(p)) {
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
