//! A lightweight item parser on top of the lexer: the brace tree.
//!
//! The flow and dataflow analyses (seed provenance, dead public API, the
//! taint and lock passes) need more structure than a token stream — which
//! function a token is in, what its parameters are, which items a file
//! declares `pub` — but far less than a real Rust parser. This module
//! walks the code tokens of one [`FileCx`] and produces a flat, preorder
//! list of [`Item`]s.
//!
//! Design constraints, inherited from the lexer:
//!
//! 1. **Total.** Any token soup produces an item list without panicking;
//!    malformed headers degrade to skipped tokens, never errors (held to
//!    by a proptest over arbitrary and magic-prefixed bytes).
//! 2. **Bounded.** Recursion depth is capped at [`MAX_DEPTH`]; deeper
//!    brace nests are skipped with an iterative matcher, so pathological
//!    input cannot overflow the stack (also proptested).
//! 3. **Approximate on purpose.** Macros, cfg-gated duplicates, and
//!    exotic syntax degrade to "no item here". The analyses built on top
//!    are written to be conservative under missing structure.

use crate::context::FileCx;
use crate::lexer::TokKind;

/// Maximum brace-tree depth the parser recurses into. Beyond this the
/// subtree is skipped with an iterative brace matcher — no stack growth.
// audit:allow(dead-public-api) -- depth cap of parse_items, which tests/prop.rs asserts against
pub const MAX_DEPTH: u32 = 128;

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// audit:allow(dead-public-api) -- type of Item's public `kind` field; parse_items, the seam tests/prop.rs drives, returns Items
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`.
    Mod,
    /// `fn name(…) { … }` (free, impl, or trait method).
    Fn,
    /// `struct Name { … }` / tuple / unit struct.
    Struct,
    /// `enum Name { … }`.
    Enum,
    /// `trait Name { … }`.
    Trait,
    /// `impl [Trait for] Type { … }` — `name` is the self type.
    Impl,
    /// `const NAME: T = …;`.
    Const,
    /// `static NAME: T = …;`.
    Static,
    /// `type Name = …;`.
    TypeAlias,
    /// `macro_rules! name { … }`.
    Macro,
}

/// Item visibility, at the granularity the analyses need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// audit:allow(dead-public-api) -- type of Item's public `vis` field; parse_items, the seam tests/prop.rs drives, returns Items
pub enum Vis {
    /// `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`.
    Scoped,
    /// No visibility keyword.
    Private,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Kind of item.
    pub kind: ItemKind,
    /// Name (for [`ItemKind::Impl`], the self type's last identifier).
    pub name: String,
    /// Full path within the file (`mod_a::fn_b`); a finding inside the
    /// item's body names it (`FileItems::path_at`).
    pub path: String,
    /// Visibility.
    pub vis: Vis,
    /// 1-based source line of the name token.
    pub line: u32,
    /// 1-based source column of the name token.
    pub col: u32,
    /// Code-token index of the name token (for span attribution).
    pub tok: usize,
    /// Code-token range of the `{ … }` body (a struct's fields, an
    /// enum's variants), exclusive of both braces; a body that never
    /// closes runs to the end of input. `None` for `;`-terminated and
    /// tuple items.
    pub body: Option<(usize, usize)>,
    /// Parameter names of a fn (`self` included verbatim).
    pub params: Vec<String>,
    /// For [`ItemKind::Impl`]: this is a `impl Trait for Type` block.
    /// For [`ItemKind::Fn`]: the fn is defined inside such a block.
    pub trait_impl: bool,
    /// Index of the enclosing item in the flat list, if any.
    pub parent: Option<usize>,
}

/// Parse result for one file.
#[derive(Debug, Clone, Default)]
// audit:allow(dead-public-api) -- return type of parse_items, the seam tests/prop.rs drives
pub struct FileItems {
    /// Flat preorder item list.
    pub items: Vec<Item>,
    /// Deepest brace nesting the parser recursed into (capped at
    /// [`MAX_DEPTH`]).
    pub max_depth: u32,
}

impl FileItems {
    /// Index of the innermost item that `keep` accepts and whose body
    /// holds code token `tok`. In the preorder list a nested body starts
    /// after the bodies around it, so the innermost has the largest start.
    fn innermost(&self, tok: usize, keep: impl Fn(&Item) -> bool) -> Option<usize> {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, item)| keep(item))
            .filter_map(|(i, item)| item.body.map(|(lo, hi)| (i, lo, hi)))
            .filter(|&(_, lo, hi)| lo <= tok && tok < hi)
            .max_by_key(|&(_, lo, _)| lo)
            .map(|(i, _, _)| i)
    }

    /// Index of the innermost `Fn` item whose body contains code token
    /// `tok`, if any.
    pub(crate) fn enclosing_fn(&self, tok: usize) -> Option<usize> {
        self.innermost(tok, |item| item.kind == ItemKind::Fn)
    }

    /// Path of the innermost item whose body holds code token `tok` — the
    /// `item` a finding there names; empty outside every body.
    pub(crate) fn path_at(&self, tok: usize) -> &str {
        self.innermost(tok, |_| true).map_or("", |i| self.items[i].path.as_str())
    }
}

struct Parser<'a, 'b> {
    cx: &'b FileCx<'a>,
    items: Vec<Item>,
    max_depth: u32,
}

/// Parse the items of one file. Total on any token stream.
// audit:allow(dead-public-api) -- the item-parser seam tests/prop.rs drives
pub fn parse_items(cx: &FileCx<'_>) -> FileItems {
    let mut p = Parser { cx, items: Vec::new(), max_depth: 0 };
    let mut i = 0usize;
    p.block(&mut i, cx.code.len(), 0, None, false);
    FileItems { items: p.items, max_depth: p.max_depth }
}

impl<'a, 'b> Parser<'a, 'b> {
    fn text(&self, i: usize) -> &str {
        self.cx.text(i)
    }

    fn kind(&self, i: usize) -> TokKind {
        self.cx.kind(i)
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.cx.ident_at(i, s)
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.cx.punct_at(i, s)
    }

    /// Parse the region `[*i, end)` as a block body at `depth`.
    /// Consumes the matching `}` when one closes this block, and says
    /// whether one did.
    fn block(
        &mut self,
        i: &mut usize,
        end: usize,
        depth: u32,
        parent: Option<usize>,
        in_trait_impl: bool,
    ) -> bool {
        self.max_depth = self.max_depth.max(depth);
        while *i < end {
            let t = self.text(*i);
            match (self.kind(*i), t) {
                (TokKind::Punct, "#") if self.is_punct(*i + 1, "[") => self.skip_attribute(i),
                (TokKind::Punct, "{") => {
                    // Anonymous block (fn body statement, match arm, …).
                    *i += 1;
                    self.enter(i, end, depth, parent, in_trait_impl);
                }
                (TokKind::Punct, "}") => {
                    *i += 1;
                    return true;
                }
                (
                    TokKind::Ident,
                    "pub" | "mod" | "fn" | "struct" | "enum" | "trait" | "impl" | "use" | "const"
                    | "static" | "type" | "macro_rules" | "unsafe" | "async" | "extern",
                ) => self.item(i, end, depth, parent, in_trait_impl),
                _ => *i += 1,
            }
        }
        false
    }

    /// Enter a nested block: recurse when under the depth cap, otherwise
    /// skip it iteratively so the call stack stays bounded. Says whether
    /// a `}` closed it.
    fn enter(
        &mut self,
        i: &mut usize,
        end: usize,
        depth: u32,
        parent: Option<usize>,
        in_trait_impl: bool,
    ) -> bool {
        if depth < MAX_DEPTH {
            self.block(i, end, depth + 1, parent, in_trait_impl)
        } else {
            self.max_depth = MAX_DEPTH;
            self.skip_balanced(i, end)
        }
    }

    /// With `*i` just past an opening `{`, advance past its matching `}`
    /// without recursion, and say whether there was one.
    fn skip_balanced(&mut self, i: &mut usize, end: usize) -> bool {
        let mut depth = 1i64;
        while *i < end {
            if self.is_punct(*i, "{") {
                depth += 1;
            } else if self.is_punct(*i, "}") {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    return true;
                }
            }
            *i += 1;
        }
        false
    }

    /// With `*i` on a `{`, skip past its matching `}` without recursion
    /// and return the body's range; `None` when no `{` is there.
    fn skip_body(&mut self, i: &mut usize, end: usize) -> Option<(usize, usize)> {
        if !self.is_punct(*i, "{") {
            return None;
        }
        *i += 1;
        let body_lo = *i;
        let closed = self.skip_balanced(i, end);
        Some(body_range(body_lo, *i, closed))
    }

    /// Skip one `#[…]` attribute starting at `*i` (on the `#`).
    fn skip_attribute(&mut self, i: &mut usize) {
        // Skip to the closing `]` at bracket depth 0.
        let mut depth = 0i64;
        *i += 1; // on `[`
        while *i < self.cx.code.len() {
            if self.is_punct(*i, "[") {
                depth += 1;
            } else if self.is_punct(*i, "]") {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    return;
                }
            }
            *i += 1;
        }
    }

    /// Parse one item header starting at `*i` (on `pub` or the keyword).
    fn item(
        &mut self,
        i: &mut usize,
        end: usize,
        depth: u32,
        parent: Option<usize>,
        in_trait_impl: bool,
    ) {
        let start = *i;
        let vis = self.visibility(i);
        // Qualifier soup before the keyword: `unsafe`, `async`, `extern "C"`,
        // `const fn` (but a bare `const NAME` is the item itself).
        while matches!(self.text(*i), "unsafe" | "async" | "extern")
            || (self.is_ident(*i, "const") && self.is_ident(*i + 1, "fn"))
        {
            if self.kind(*i + 1) == TokKind::Str {
                *i += 1; // the ABI string of `extern "C"`
            }
            *i += 1;
        }
        let kw = self.text(*i).to_owned();
        match kw.as_str() {
            "mod" | "struct" | "enum" | "trait" => {
                let kind = match kw.as_str() {
                    "mod" => ItemKind::Mod,
                    "struct" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    _ => ItemKind::Trait,
                };
                let id = self.finish_named(i, end, parent, kind, vis);
                self.item_body(i, end, depth, id, in_trait_impl);
            }
            // `fn(…)` with no name is a fn-pointer type (a field's, a
            // variant's), not an item.
            "fn" if !self.is_punct(*i + 1, "(") => {
                let id = self.finish_fn(i, end, parent, vis, in_trait_impl);
                self.item_body(i, end, depth, id, in_trait_impl);
            }
            "impl" => self.finish_impl(i, end, depth, parent),
            "use" => self.skip_to_semicolon(i, end),
            "const" | "static" | "type" => {
                let kind = match kw.as_str() {
                    "const" => ItemKind::Const,
                    "static" => ItemKind::Static,
                    _ => ItemKind::TypeAlias,
                };
                *i += 1;
                if self.is_ident(*i, "mut") {
                    *i += 1;
                }
                let (name, line, col, tok) = self.name_at(*i);
                *i += usize::from(!name.is_empty());
                let id = self.push(Item {
                    kind,
                    name,
                    path: String::new(),
                    vis,
                    line,
                    col,
                    tok,
                    body: None,
                    params: Vec::new(),
                    trait_impl: false,
                    parent,
                });
                self.initializer(i, end, depth, id, in_trait_impl);
            }
            "macro_rules" => {
                // `macro_rules ! name { … }`
                *i += 1;
                if self.is_punct(*i, "!") {
                    *i += 1;
                }
                let (name, line, col, tok) = self.name_at(*i);
                *i += usize::from(!name.is_empty());
                while *i < end && !self.is_punct(*i, "{") && !self.is_punct(*i, ";") {
                    *i += 1;
                }
                let body = self.skip_body(i, end);
                self.push(Item {
                    kind: ItemKind::Macro,
                    name,
                    path: String::new(),
                    vis,
                    line,
                    col,
                    tok,
                    body,
                    params: Vec::new(),
                    trait_impl: false,
                    parent,
                });
            }
            _ => {
                // `pub` (or a qualifier) followed by nothing we model —
                // advance past whatever we consumed so the walk progresses.
                if *i == start {
                    *i += 1;
                }
            }
        }
    }

    /// Parse `pub`/`pub(crate)`/… at `*i`, consuming it. Returns the Vis.
    fn visibility(&mut self, i: &mut usize) -> Vis {
        if !self.is_ident(*i, "pub") {
            return Vis::Private;
        }
        *i += 1;
        if self.is_punct(*i, "(") {
            let mut depth = 0i64;
            while *i < self.cx.code.len() {
                if self.is_punct(*i, "(") {
                    depth += 1;
                } else if self.is_punct(*i, ")") {
                    depth -= 1;
                    if depth == 0 {
                        *i += 1;
                        break;
                    }
                }
                *i += 1;
            }
            return Vis::Scoped;
        }
        Vis::Pub
    }

    fn name_at(&self, i: usize) -> (String, u32, u32, usize) {
        match self.cx.code.get(i) {
            Some(t) if t.kind == TokKind::Ident => {
                (t.text(self.cx.src).to_owned(), t.line, t.col, i)
            }
            Some(t) => (String::new(), t.line, t.col, i),
            None => (String::new(), 0, 0, i),
        }
    }

    /// Walk to the `;` that ends a `const`, `static` or `type` item,
    /// parsing each `{ … }` of its type or initializer as a block of item
    /// `id`'s children, so a fn declared there is an item too. A `;`
    /// inside `[…]` or `(…)` (`const X: [u8; 2] = …`) does not end it.
    fn initializer(
        &mut self,
        i: &mut usize,
        end: usize,
        depth: u32,
        id: usize,
        in_trait_impl: bool,
    ) {
        let mut nest = 0i64;
        while *i < end {
            match self.text(*i) {
                "{" => {
                    *i += 1;
                    self.enter(i, end, depth, Some(id), in_trait_impl);
                    continue;
                }
                "}" => return, // stray close: let the caller see it
                "[" | "(" => nest += 1,
                "]" | ")" => nest -= 1,
                ";" if nest <= 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
            *i += 1;
        }
    }

    fn skip_to_semicolon(&mut self, i: &mut usize, end: usize) {
        // A `use` tree may contain braces (`use a::{b, c};`); only a `;`
        // at brace depth 0 terminates the item.
        let mut depth = 0i64;
        while *i < end {
            match self.text(*i) {
                "{" => depth += 1,
                "}" => {
                    if depth == 0 {
                        return; // stray close: let the caller see it
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
            *i += 1;
        }
    }

    /// Skip a `<…>` generics list if one starts at `*i`.
    fn skip_generics(&mut self, i: &mut usize, end: usize) {
        if !self.is_punct(*i, "<") {
            return;
        }
        let mut depth = 0i64;
        while *i < end {
            match self.text(*i) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        *i += 1;
                        return;
                    }
                }
                // A `;`, `{` or `(` at angle depth means the `<` was a
                // comparison, not generics — bail out.
                ";" | "{" => return,
                _ => {}
            }
            *i += 1;
        }
    }

    fn parent_path(&self, parent: Option<usize>) -> String {
        parent.map(|p| self.items[p].path.clone()).unwrap_or_default()
    }

    fn push(&mut self, mut item: Item) -> usize {
        let prefix = self.parent_path(item.parent);
        item.path = if prefix.is_empty() || item.name.is_empty() {
            if item.name.is_empty() {
                prefix
            } else {
                item.name.clone()
            }
        } else {
            format!("{prefix}::{}", item.name)
        };
        self.items.push(item);
        self.items.len() - 1
    }

    /// `mod`/`struct`/`enum`/`trait`: `kw name` up to its `{ body }` or
    /// `;`, which [`Parser::item_body`] consumes. Returns the pushed item.
    fn finish_named(
        &mut self,
        i: &mut usize,
        end: usize,
        parent: Option<usize>,
        kind: ItemKind,
        vis: Vis,
    ) -> usize {
        *i += 1; // keyword
        let (name, line, col, tok) = self.name_at(*i);
        if !name.is_empty() {
            *i += 1;
        }
        self.skip_generics(i, end);
        // Scan to `{` or `;` (supertraits, where clauses), past a tuple
        // struct's `( … )`, whose array types hold `;`.
        while *i < end
            && !self.is_punct(*i, "{")
            && !self.is_punct(*i, ";")
            && !self.is_punct(*i, "}")
        {
            if self.is_punct(*i, "(") {
                let mut depth = 0i64;
                while *i < end {
                    if self.is_punct(*i, "(") {
                        depth += 1;
                    } else if self.is_punct(*i, ")") {
                        depth -= 1;
                        if depth == 0 {
                            *i += 1;
                            break;
                        }
                    }
                    *i += 1;
                }
                continue;
            }
            *i += 1;
        }
        self.push(Item {
            kind,
            name,
            path: String::new(),
            vis,
            line,
            col,
            tok,
            body: None,
            params: Vec::new(),
            trait_impl: false,
            parent,
        })
    }

    /// The `{ body }` (parsed as item `id`'s children) or the `;` that
    /// ends a `mod`, `struct`, `enum`, `trait` or `fn` item.
    fn item_body(&mut self, i: &mut usize, end: usize, depth: u32, id: usize, in_trait_impl: bool) {
        if self.is_punct(*i, "{") {
            *i += 1;
            let body_lo = *i;
            let closed = self.enter(i, end, depth, Some(id), in_trait_impl);
            self.items[id].body = Some(body_range(body_lo, *i, closed));
        } else if self.is_punct(*i, ";") {
            *i += 1;
        }
    }

    /// `fn name<…>(params) -> ret` up to its `{ body }` or `;`, which
    /// [`Parser::item_body`] consumes. Returns the pushed item.
    fn finish_fn(
        &mut self,
        i: &mut usize,
        end: usize,
        parent: Option<usize>,
        vis: Vis,
        in_trait_impl: bool,
    ) -> usize {
        *i += 1; // `fn`
        let (name, line, col, tok) = self.name_at(*i);
        if !name.is_empty() {
            *i += 1;
        }
        self.skip_generics(i, end);
        // Parameter list.
        let mut params = Vec::new();
        if self.is_punct(*i, "(") {
            let mut pdepth = 0i64;
            let mut adepth = 0i64; // angle depth, to skip closure params in types
            loop {
                if *i >= end {
                    break;
                }
                match self.text(*i) {
                    "(" | "[" => pdepth += 1,
                    ")" | "]" => {
                        pdepth -= 1;
                        if pdepth == 0 {
                            *i += 1;
                            break;
                        }
                    }
                    "<" => adepth += 1,
                    ">" => adepth = (adepth - 1).max(0),
                    "self" if pdepth == 1 && adepth == 0 => params.push("self".to_owned()),
                    _ => {
                        // `name :` at paren depth 1, preceded by `(`, `,`
                        // or `mut` — a parameter pattern.
                        if pdepth == 1
                            && adepth == 0
                            && self.kind(*i) == TokKind::Ident
                            && self.is_punct(*i + 1, ":")
                        {
                            let prev = if *i == 0 { "" } else { self.text(*i - 1) };
                            if matches!(prev, "(" | "," | "mut") {
                                params.push(self.text(*i).to_owned());
                            }
                        }
                    }
                }
                *i += 1;
            }
        }
        // Return type / where clause up to the body or `;`.
        while *i < end
            && !self.is_punct(*i, "{")
            && !self.is_punct(*i, ";")
            && !self.is_punct(*i, "}")
        {
            *i += 1;
        }
        self.push(Item {
            kind: ItemKind::Fn,
            name,
            path: String::new(),
            vis,
            line,
            col,
            tok,
            body: None,
            params,
            trait_impl: in_trait_impl,
            parent,
        })
    }

    /// `impl [Trait for] Type { body }`.
    fn finish_impl(&mut self, i: &mut usize, end: usize, depth: u32, parent: Option<usize>) {
        let impl_tok = *i;
        *i += 1; // `impl`
        self.skip_generics(i, end);
        // Walk to the body, remembering the last type ident and whether a
        // top-level `for` appeared (trait impl).
        let mut last = String::new();
        let mut line = self.cx.code.get(impl_tok).map_or(0, |t| t.line);
        let mut col = self.cx.code.get(impl_tok).map_or(0, |t| t.col);
        let mut tok = impl_tok;
        let mut is_trait_impl = false;
        let mut angle = 0i64;
        while *i < end && !self.is_punct(*i, "{") && !self.is_punct(*i, ";") {
            match self.text(*i) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "for" if angle <= 0 => is_trait_impl = true,
                "where" if angle <= 0 => break,
                t if self.kind(*i) == TokKind::Ident => {
                    last = t.to_owned();
                    let t = self.cx.code[*i];
                    line = t.line;
                    col = t.col;
                    tok = *i;
                }
                _ => {}
            }
            *i += 1;
        }
        while *i < end && !self.is_punct(*i, "{") && !self.is_punct(*i, ";") {
            *i += 1;
        }
        let id = self.push(Item {
            kind: ItemKind::Impl,
            name: last,
            path: String::new(),
            vis: Vis::Private,
            line,
            col,
            tok,
            body: None,
            params: Vec::new(),
            trait_impl: is_trait_impl,
            parent,
        });
        if self.is_punct(*i, "{") {
            *i += 1;
            let body_lo = *i;
            let closed = self.enter(i, end, depth, Some(id), is_trait_impl);
            self.items[id].body = Some(body_range(body_lo, *i, closed));
        } else if self.is_punct(*i, ";") {
            *i += 1;
        }
    }
}

/// The range of a body that opened at `lo`, with the parser now at `i`
/// past it: up to its closing `}`, or to the end of input when the body
/// never closed, so `lo <= hi` either way.
fn body_range(lo: usize, i: usize, closed: bool) -> (usize, usize) {
    (lo, i - usize::from(closed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCx;

    fn parse(src: &str) -> FileItems {
        parse_items(&FileCx::new(src))
    }

    #[test]
    fn fn_params_and_nesting() {
        let src = r#"
            mod outer {
                pub fn f(seed: u64, mut n: usize, s: &str) -> u64 {
                    fn inner(x: u32) -> u32 { x }
                    inner(3) as u64
                }
            }
        "#;
        let fi = parse(src);
        let f = fi.items.iter().find(|x| x.name == "f").expect("f");
        assert_eq!(f.params, vec!["seed", "n", "s"]);
        assert_eq!(f.path, "outer::f");
        let inner = fi.items.iter().find(|x| x.name == "inner").expect("inner");
        assert_eq!(inner.path, "outer::f::inner");
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_blocks_and_trait_impls() {
        let src = r#"
            impl Plan {
                pub fn fault_for(&self, job_id: u64) -> Option<Kind> { None }
            }
            impl Display for Plan {
                fn fmt(&self, f: &mut Formatter<'_>) -> Result { Ok(()) }
            }
        "#;
        let fi = parse(src);
        let impls: Vec<&Item> = fi.items.iter().filter(|x| x.kind == ItemKind::Impl).collect();
        assert_eq!(impls.len(), 2);
        assert_eq!(impls[0].name, "Plan");
        assert!(!impls[0].trait_impl);
        assert!(impls[1].trait_impl);
        let fault_for = fi.items.iter().find(|x| x.name == "fault_for").expect("method");
        assert!(!fault_for.trait_impl);
        assert_eq!(fault_for.params, vec!["self", "job_id"]);
        let fmt = fi.items.iter().find(|x| x.name == "fmt").expect("trait method");
        assert!(fmt.trait_impl);
    }

    #[test]
    fn fields_variants_and_use_trees_declare_no_items() {
        let src = r#"
            use a::{b, c::{d, e as f}};
            pub struct S { pub x: Vec<u8>, y: [u8; { 2 }] }
            pub enum E { A { x: u8 }, B(u8), C = 3 }
            pub fn after() {}
        "#;
        let fi = parse(src);
        let kinds: Vec<(ItemKind, &str)> =
            fi.items.iter().map(|x| (x.kind, x.name.as_str())).collect();
        let want = vec![(ItemKind::Struct, "S"), (ItemKind::Enum, "E"), (ItemKind::Fn, "after")];
        assert_eq!(kinds, want);
        assert!(fi.items[0].body.is_some() && fi.items[1].body.is_some(), "bodies recorded");
        let cx = FileCx::new(src);
        let two = (0..cx.code.len()).find(|&j| cx.text(j) == "2").expect("array length");
        assert_eq!(fi.path_at(two), "S", "a token in a struct body is named by the struct");
    }

    #[test]
    fn fns_in_initializers_and_fields_are_items() {
        let src = r#"
            const _: () = { fn in_const() {} };
            static S: u8 = { fn in_static() {} 1 };
            type T = [u8; { fn in_alias() {} 1 }];
            struct R { f: fn(u8) -> u8, a: [u8; { fn in_field() {} 1 }], b: u8 }
            enum E { P(unsafe fn()), A = { fn in_variant() {} 1 } }
        "#;
        let fi = parse(src);
        let paths: Vec<&str> =
            fi.items.iter().filter(|x| x.kind == ItemKind::Fn).map(|x| x.path.as_str()).collect();
        assert_eq!(
            paths,
            ["_::in_const", "S::in_static", "T::in_alias", "R::in_field", "E::in_variant"]
        );
        assert!(
            fi.items.iter().any(|x| x.kind == ItemKind::Enum),
            "parser recovers after each item"
        );
    }

    #[test]
    fn enclosing_fn_resolves_innermost() {
        let src = "fn outer() { fn inner() { target(); } }";
        let cx = FileCx::new(src);
        let fi = parse_items(&cx);
        let target_tok =
            (0..cx.code.len()).find(|&j| cx.ident_at(j, "target")).expect("target token");
        let encl = fi.enclosing_fn(target_tok).expect("enclosing fn");
        assert_eq!(fi.items[encl].name, "inner");
        assert_eq!(fi.path_at(target_tok), "outer::inner");
        assert_eq!(fi.path_at(0), "", "the `fn` keyword sits outside every body");
    }

    #[test]
    fn consts_statics_aliases_and_macros() {
        let src = r#"
            pub const MAX: usize = 128;
            static mut COUNTER: u64 = 0;
            pub type Result<T> = std::result::Result<T, Error>;
            macro_rules! span { () => {} }
            pub fn after() {}
        "#;
        let fi = parse(src);
        let kinds: Vec<(ItemKind, &str)> =
            fi.items.iter().map(|x| (x.kind, x.name.as_str())).collect();
        assert!(kinds.contains(&(ItemKind::Const, "MAX")));
        assert!(kinds.contains(&(ItemKind::Static, "COUNTER")));
        assert!(kinds.contains(&(ItemKind::TypeAlias, "Result")));
        assert!(kinds.contains(&(ItemKind::Macro, "span")));
        assert!(kinds.contains(&(ItemKind::Fn, "after")), "parser recovers after macro body");
    }

    #[test]
    fn macro_bodies_are_recorded() {
        // The body range feeds `macro_mentions`: identifiers a macro
        // expands at its call sites must count as references.
        let src = r#"
            macro_rules! open {
                ($n:expr) => { $crate::Guard::enter_under($n, None) };
            }
        "#;
        let fi = parse(src);
        let m = fi.items.iter().find(|x| x.kind == ItemKind::Macro).expect("macro parsed");
        let (lo, hi) = m.body.expect("macro body range recorded");
        assert!(lo < hi);
    }

    #[test]
    fn unclosed_bodies_run_to_the_end_of_input() {
        for src in ["fn f() {", "impl X {", "struct S {", "fn f() { g(); {"] {
            let cx = FileCx::new(src);
            let body = parse_items(&cx).items[0].body;
            assert_eq!(body.map(|(_, hi)| hi), Some(cx.code.len()), "{src}");
            assert!(body.is_some_and(|(lo, hi)| lo <= hi), "{src}: {body:?}");
        }
    }

    #[test]
    fn pathological_nesting_is_bounded() {
        let mut src = String::new();
        for _ in 0..5_000 {
            src.push('{');
        }
        src.push_str("fn x() {}");
        for _ in 0..5_000 {
            src.push('}');
        }
        let fi = parse(&src);
        assert!(fi.max_depth <= MAX_DEPTH);
    }
}
