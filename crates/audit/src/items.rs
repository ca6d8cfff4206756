//! A lightweight item parser on top of the lexer: the brace tree.
//!
//! The flow analyses (seed provenance, schema drift, dead public API,
//! error-context loss) need more structure than a token stream — which
//! function a token is in, what fields a `#[derive(Serialize)]` struct
//! carries, what `use` edges a file imports — but far less than a real
//! Rust parser. This module walks the code tokens of one [`FileCx`] and
//! produces a flat, preorder list of [`Item`]s plus the file's
//! [`UseEdge`]s.
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

/// One named field of a struct (or one variant of an enum).
#[derive(Debug, Clone)]
// audit:allow(dead-public-api) -- element type of Item's public `fields` field; parse_items, the seam tests/prop.rs drives, returns Items
pub struct Field {
    /// Declared name.
    pub name: String,
    /// Name on the wire after `#[serde(rename = "…")]`; equals `name`
    /// when there is no rename.
    pub wire_name: String,
    /// `#[serde(skip)]` — omitted from serialization.
    pub skipped: bool,
    /// 1-based line of the field name.
    pub line: u32,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Kind of item.
    pub kind: ItemKind,
    /// Name (for [`ItemKind::Impl`], the self type's last identifier).
    pub name: String,
    /// Full path within the file (`mod_a::fn_b`), matching the
    /// [`FileCx::item`] convention.
    pub path: String,
    /// Visibility.
    pub vis: Vis,
    /// 1-based source line of the name token.
    pub line: u32,
    /// 1-based source column of the name token.
    pub col: u32,
    /// Code-token index of the name token (for span attribution).
    pub tok: usize,
    /// Code-token range of the `{ … }` body, exclusive of both braces.
    /// `None` for `;`-terminated items.
    pub body: Option<(usize, usize)>,
    /// Traits named in `#[derive(…)]` attributes on this item.
    pub derives: Vec<String>,
    /// Named fields (structs) or variants (enums).
    pub fields: Vec<Field>,
    /// Parameter names of a fn (`self` included verbatim).
    pub params: Vec<String>,
    /// For [`ItemKind::Impl`]: this is a `impl Trait for Type` block.
    /// For [`ItemKind::Fn`]: the fn is defined inside such a block.
    pub trait_impl: bool,
    /// Index of the enclosing item in the flat list, if any.
    pub parent: Option<usize>,
}

/// One leaf of a `use` declaration: `use a::b::{c, d as e};` yields two
/// edges, for `c` and `d`.
#[derive(Debug, Clone)]
// audit:allow(dead-public-api) -- element type of FileItems' public `uses` field; parse_items, the seam tests/prop.rs drives, returns FileItems
pub struct UseEdge {
    /// First path segment (`iotax_darshan`, `crate`, `std`, …).
    pub root: String,
    /// The imported leaf name (`parse_log`, `*` for glob imports).
    pub leaf: String,
    /// Local alias from `as`, when present.
    pub alias: Option<String>,
    /// 1-based line of the `use` keyword.
    pub line: u32,
}

impl UseEdge {
    /// The name this import binds locally.
    pub(crate) fn local_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.leaf)
    }
}

/// Parse result for one file.
#[derive(Debug, Clone, Default)]
// audit:allow(dead-public-api) -- return type of parse_items, the seam tests/prop.rs drives
pub struct FileItems {
    /// Flat preorder item list.
    pub items: Vec<Item>,
    /// All `use` edges in the file.
    pub uses: Vec<UseEdge>,
    /// Deepest brace nesting the parser recursed into (capped at
    /// [`MAX_DEPTH`]).
    pub max_depth: u32,
}

impl FileItems {
    /// Index of the innermost `Fn` item whose body contains code token
    /// `tok`, if any.
    pub(crate) fn enclosing_fn(&self, tok: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, item) in self.items.iter().enumerate() {
            if item.kind != ItemKind::Fn {
                continue;
            }
            if let Some((lo, hi)) = item.body {
                if lo <= tok && tok < hi {
                    // Innermost wins: a later preorder item with a
                    // containing body is nested deeper.
                    let better = match best {
                        None => true,
                        Some(b) => {
                            let (blo, _) = self.items[b].body.unwrap_or((0, usize::MAX));
                            lo >= blo
                        }
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }
}

/// Attributes collected ahead of an item header.
#[derive(Debug, Clone, Default)]
struct PendingAttrs {
    derives: Vec<String>,
    serde_skip: bool,
    serde_rename: Option<String>,
    is_test: bool,
}

struct Parser<'a, 'b> {
    cx: &'b FileCx<'a>,
    items: Vec<Item>,
    uses: Vec<UseEdge>,
    max_depth: u32,
}

/// Parse the items of one file. Total on any token stream.
// audit:allow(dead-public-api) -- the item-parser seam tests/prop.rs drives
pub fn parse_items(cx: &FileCx<'_>) -> FileItems {
    let mut p = Parser { cx, items: Vec::new(), uses: Vec::new(), max_depth: 0 };
    let mut i = 0usize;
    p.block(&mut i, cx.code.len(), 0, None, false);
    FileItems { items: p.items, uses: p.uses, max_depth: p.max_depth }
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
    /// Consumes the matching `}` when one closes this block.
    fn block(
        &mut self,
        i: &mut usize,
        end: usize,
        depth: u32,
        parent: Option<usize>,
        in_trait_impl: bool,
    ) {
        self.max_depth = self.max_depth.max(depth);
        let mut attrs = PendingAttrs::default();
        while *i < end {
            let t = self.text(*i);
            match (self.kind(*i), t) {
                (TokKind::Punct, "#") if self.is_punct(*i + 1, "[") => {
                    self.attribute(i, &mut attrs);
                }
                (TokKind::Punct, "{") => {
                    // Anonymous block (fn body statement, match arm, …).
                    *i += 1;
                    self.enter(i, end, depth, parent, in_trait_impl);
                    attrs = PendingAttrs::default();
                }
                (TokKind::Punct, "}") => {
                    *i += 1;
                    return;
                }
                (
                    TokKind::Ident,
                    "pub" | "mod" | "fn" | "struct" | "enum" | "trait" | "impl" | "use" | "const"
                    | "static" | "type" | "macro_rules" | "unsafe" | "async" | "extern",
                ) => {
                    let taken = std::mem::take(&mut attrs);
                    self.item(i, end, depth, parent, in_trait_impl, taken);
                }
                _ => {
                    *i += 1;
                    attrs = PendingAttrs::default();
                }
            }
        }
    }

    /// Enter a nested block: recurse when under the depth cap, otherwise
    /// skip it iteratively so the call stack stays bounded.
    fn enter(
        &mut self,
        i: &mut usize,
        end: usize,
        depth: u32,
        parent: Option<usize>,
        in_trait_impl: bool,
    ) {
        if depth < MAX_DEPTH {
            self.block(i, end, depth + 1, parent, in_trait_impl);
        } else {
            self.max_depth = MAX_DEPTH;
            self.skip_balanced(i, end);
        }
    }

    /// With `*i` just past an opening `{`, advance past its matching `}`
    /// without recursion.
    fn skip_balanced(&mut self, i: &mut usize, end: usize) {
        let mut depth = 1i64;
        while *i < end {
            if self.is_punct(*i, "{") {
                depth += 1;
            } else if self.is_punct(*i, "}") {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    return;
                }
            }
            *i += 1;
        }
    }

    /// Parse one `#[…]` attribute starting at `*i` (on the `#`).
    fn attribute(&mut self, i: &mut usize, attrs: &mut PendingAttrs) {
        let start = *i;
        *i += 2; // consume `#` `[`
        let head = self.text(*i).to_owned();
        if head == "derive" && self.is_punct(*i + 1, "(") {
            let mut j = *i + 2;
            while j < self.cx.code.len() && !self.is_punct(j, ")") && !self.is_punct(j, "]") {
                if self.kind(j) == TokKind::Ident {
                    attrs.derives.push(self.text(j).to_owned());
                }
                j += 1;
            }
        } else if head == "serde" && self.is_punct(*i + 1, "(") {
            let mut j = *i + 2;
            while j < self.cx.code.len() && !self.is_punct(j, ")") && !self.is_punct(j, "]") {
                if self.is_ident(j, "skip") || self.is_ident(j, "skip_serializing") {
                    attrs.serde_skip = true;
                }
                if self.is_ident(j, "rename")
                    && self.is_punct(j + 1, "=")
                    && self.kind(j + 2) == TokKind::Str
                {
                    attrs.serde_rename = Some(strip_quotes(self.text(j + 2)));
                }
                j += 1;
            }
        } else if head == "test"
            || (head == "cfg" && self.is_punct(*i + 1, "(") && self.is_ident(*i + 2, "test"))
        {
            attrs.is_test = true;
        }
        // Skip to the closing `]` at bracket depth 0.
        let mut depth = 0i64;
        *i = start + 1; // back on `[`
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
    #[allow(clippy::too_many_lines)]
    fn item(
        &mut self,
        i: &mut usize,
        end: usize,
        depth: u32,
        parent: Option<usize>,
        in_trait_impl: bool,
        attrs: PendingAttrs,
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
            "mod" => {
                let id = self.finish_named(i, end, parent, ItemKind::Mod, vis, attrs);
                self.item_body(i, end, depth, id, in_trait_impl);
            }
            "fn" => {
                let id = self.finish_fn(i, end, parent, vis, attrs, in_trait_impl);
                self.item_body(i, end, depth, id, in_trait_impl);
            }
            "struct" => self.finish_struct(i, end, parent, ItemKind::Struct, vis, attrs),
            "enum" => self.finish_struct(i, end, parent, ItemKind::Enum, vis, attrs),
            "trait" => {
                let id = self.finish_named(i, end, parent, ItemKind::Trait, vis, attrs);
                self.item_body(i, end, depth, id, in_trait_impl);
            }
            "impl" => self.finish_impl(i, end, depth, parent, attrs),
            "use" => self.finish_use(i, end),
            "const" | "static" => {
                let kind = if kw == "const" { ItemKind::Const } else { ItemKind::Static };
                *i += 1;
                if self.is_ident(*i, "mut") {
                    *i += 1;
                }
                let (name, line, col, tok) = self.name_at(*i);
                *i += usize::from(!name.is_empty());
                self.skip_to_semicolon(i, end);
                self.push(Item {
                    kind,
                    name,
                    path: String::new(),
                    vis,
                    line,
                    col,
                    tok,
                    body: None,
                    derives: attrs.derives,
                    fields: Vec::new(),
                    params: Vec::new(),
                    trait_impl: false,
                    parent,
                });
            }
            "type" => {
                *i += 1;
                let (name, line, col, tok) = self.name_at(*i);
                *i += usize::from(!name.is_empty());
                self.skip_to_semicolon(i, end);
                self.push(Item {
                    kind: ItemKind::TypeAlias,
                    name,
                    path: String::new(),
                    vis,
                    line,
                    col,
                    tok,
                    body: None,
                    derives: attrs.derives,
                    fields: Vec::new(),
                    params: Vec::new(),
                    trait_impl: false,
                    parent,
                });
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
                let mut body = None;
                if self.is_punct(*i, "{") {
                    *i += 1;
                    let body_lo = *i;
                    self.skip_balanced(i, end);
                    body = Some((body_lo, i.saturating_sub(1)));
                }
                self.push(Item {
                    kind: ItemKind::Macro,
                    name,
                    path: String::new(),
                    vis,
                    line,
                    col,
                    tok,
                    body,
                    derives: attrs.derives,
                    fields: Vec::new(),
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

    fn skip_to_semicolon(&mut self, i: &mut usize, end: usize) {
        // The initializer may contain braces (`const X: [u8; 2] = { … }`);
        // only a `;` at brace depth 0 terminates the item.
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

    /// `mod`/`trait`: `kw name` up to its `{ body }` or `;`, which
    /// [`Parser::item_body`] consumes. Returns the pushed item.
    fn finish_named(
        &mut self,
        i: &mut usize,
        end: usize,
        parent: Option<usize>,
        kind: ItemKind,
        vis: Vis,
        attrs: PendingAttrs,
    ) -> usize {
        *i += 1; // keyword
        let (name, line, col, tok) = self.name_at(*i);
        if !name.is_empty() {
            *i += 1;
        }
        self.skip_generics(i, end);
        // Scan to `{` or `;` (supertraits, where clauses).
        while *i < end
            && !self.is_punct(*i, "{")
            && !self.is_punct(*i, ";")
            && !self.is_punct(*i, "}")
        {
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
            derives: attrs.derives,
            fields: Vec::new(),
            params: Vec::new(),
            trait_impl: false,
            parent,
        })
    }

    /// The `{ body }` (parsed as item `id`'s children) or the `;` that
    /// ends a `mod`, `trait` or `fn` item.
    fn item_body(&mut self, i: &mut usize, end: usize, depth: u32, id: usize, in_trait_impl: bool) {
        if self.is_punct(*i, "{") {
            *i += 1;
            let body_lo = *i;
            self.enter(i, end, depth, Some(id), in_trait_impl);
            self.items[id].body = Some((body_lo, i.saturating_sub(1)));
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
        attrs: PendingAttrs,
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
            derives: attrs.derives,
            fields: Vec::new(),
            params,
            trait_impl: in_trait_impl,
            parent,
        })
    }

    /// `struct Name { fields }` / `enum Name { variants }` and the tuple /
    /// unit forms.
    fn finish_struct(
        &mut self,
        i: &mut usize,
        end: usize,
        parent: Option<usize>,
        kind: ItemKind,
        vis: Vis,
        attrs: PendingAttrs,
    ) {
        *i += 1; // keyword
        let (name, line, col, tok) = self.name_at(*i);
        if !name.is_empty() {
            *i += 1;
        }
        self.skip_generics(i, end);
        // Tuple struct: `( … ) ;`. Unit struct: `;`. Where clause may
        // precede the `{`.
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
        let mut fields = Vec::new();
        if self.is_punct(*i, "{") {
            *i += 1;
            fields = if kind == ItemKind::Struct {
                self.named_fields(i, end)
            } else {
                self.enum_variants(i, end)
            };
        } else if self.is_punct(*i, ";") {
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
            derives: attrs.derives,
            fields,
            params: Vec::new(),
            trait_impl: false,
            parent,
        });
    }

    /// Parse `name: Type, …` fields with per-field attributes; consumes
    /// the closing `}`.
    fn named_fields(&mut self, i: &mut usize, end: usize) -> Vec<Field> {
        let mut fields = Vec::new();
        let mut attrs = PendingAttrs::default();
        while *i < end {
            if self.is_punct(*i, "}") {
                *i += 1;
                break;
            }
            if self.is_punct(*i, "#") && self.is_punct(*i + 1, "[") {
                self.attribute(i, &mut attrs);
                continue;
            }
            if self.is_ident(*i, "pub") {
                self.visibility(i);
                continue;
            }
            if self.kind(*i) == TokKind::Ident && self.is_punct(*i + 1, ":") {
                let (name, line, _, _) = self.name_at(*i);
                let taken = std::mem::take(&mut attrs);
                fields.push(Field {
                    wire_name: taken.serde_rename.unwrap_or_else(|| name.clone()),
                    name,
                    skipped: taken.serde_skip,
                    line,
                });
                *i += 2;
                // Skip the type to the `,` at depth 0 (or the close).
                let mut depth = 0i64;
                while *i < end {
                    match self.text(*i) {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        "," if depth <= 0 => {
                            *i += 1;
                            break;
                        }
                        _ => {}
                    }
                    *i += 1;
                }
                continue;
            }
            *i += 1;
            attrs = PendingAttrs::default();
        }
        fields
    }

    /// Parse enum variants; consumes the closing `}`. Variant payloads are
    /// skipped, names recorded (the wire name honors serde renames).
    fn enum_variants(&mut self, i: &mut usize, end: usize) -> Vec<Field> {
        let mut fields = Vec::new();
        let mut attrs = PendingAttrs::default();
        let mut depth = 0i64;
        while *i < end {
            match self.text(*i) {
                "}" => {
                    if depth == 0 {
                        *i += 1;
                        break;
                    }
                    depth -= 1;
                }
                "{" | "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "#" if depth == 0 && self.is_punct(*i + 1, "[") => {
                    self.attribute(i, &mut attrs);
                    continue;
                }
                _ => {
                    if depth == 0
                        && self.kind(*i) == TokKind::Ident
                        && (self.is_punct(*i + 1, ",")
                            || self.is_punct(*i + 1, "(")
                            || self.is_punct(*i + 1, "{")
                            || self.is_punct(*i + 1, "=")
                            || self.is_punct(*i + 1, "}"))
                    {
                        let (name, line, _, _) = self.name_at(*i);
                        let taken = std::mem::take(&mut attrs);
                        fields.push(Field {
                            wire_name: taken.serde_rename.unwrap_or_else(|| name.clone()),
                            name,
                            skipped: taken.serde_skip,
                            line,
                        });
                    }
                }
            }
            *i += 1;
        }
        fields
    }

    /// `impl [Trait for] Type { body }`.
    fn finish_impl(
        &mut self,
        i: &mut usize,
        end: usize,
        depth: u32,
        parent: Option<usize>,
        attrs: PendingAttrs,
    ) {
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
            derives: attrs.derives,
            fields: Vec::new(),
            params: Vec::new(),
            trait_impl: is_trait_impl,
            parent,
        });
        if self.is_punct(*i, "{") {
            *i += 1;
            let body_lo = *i;
            self.enter(i, end, depth, Some(id), is_trait_impl);
            self.items[id].body = Some((body_lo, i.saturating_sub(1)));
        } else if self.is_punct(*i, ";") {
            *i += 1;
        }
    }

    /// `use a::b::{c, d as e};` — one edge per leaf.
    fn finish_use(&mut self, i: &mut usize, end: usize) {
        let line = self.cx.code.get(*i).map_or(0, |t| t.line);
        *i += 1; // `use`
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(i, end, &mut prefix, line);
        if self.is_punct(*i, ";") {
            *i += 1;
        }
    }

    /// Parse one use-tree level. `prefix` holds the segments above.
    fn use_tree(&mut self, i: &mut usize, end: usize, prefix: &mut Vec<String>, line: u32) {
        let depth_at_entry = prefix.len();
        let mut current: Option<String> = None;
        while *i < end {
            match self.text(*i) {
                ";" => break,
                "::" => {
                    if let Some(seg) = current.take() {
                        prefix.push(seg);
                    }
                    *i += 1;
                }
                "{" => {
                    *i += 1;
                    // Group: recurse per comma-separated branch.
                    loop {
                        if *i >= end || self.is_punct(*i, "}") {
                            *i += 1;
                            break;
                        }
                        self.use_tree(i, end, prefix, line);
                        if self.is_punct(*i, ",") {
                            *i += 1;
                            continue;
                        }
                        if self.is_punct(*i, "}") {
                            *i += 1;
                            break;
                        }
                        if *i >= end || self.is_punct(*i, ";") {
                            break;
                        }
                    }
                    current = None;
                    break;
                }
                "," | "}" => break,
                "as" => {
                    *i += 1;
                    let alias = if self.kind(*i) == TokKind::Ident {
                        Some(self.text(*i).to_owned())
                    } else {
                        None
                    };
                    if alias.is_some() {
                        *i += 1;
                    }
                    if let Some(leaf) = current.take() {
                        self.emit_use(prefix, leaf, alias, line);
                    }
                    break;
                }
                "*" => {
                    *i += 1;
                    current = Some("*".to_owned());
                }
                t if self.kind(*i) == TokKind::Ident => {
                    current = Some(t.to_owned());
                    *i += 1;
                }
                _ => {
                    *i += 1;
                }
            }
        }
        if let Some(leaf) = current {
            self.emit_use(prefix, leaf, None, line);
        }
        prefix.truncate(depth_at_entry);
    }

    fn emit_use(&mut self, prefix: &[String], leaf: String, alias: Option<String>, line: u32) {
        let root = prefix.first().cloned().unwrap_or_else(|| leaf.clone());
        self.uses.push(UseEdge { root, leaf, alias, line });
    }
}

fn strip_quotes(s: &str) -> String {
    s.trim_matches('"').to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCx;

    fn parse(src: &str) -> FileItems {
        parse_items(&FileCx::new(src))
    }

    #[test]
    fn structs_with_serde_attrs() {
        let src = r#"
            #[derive(Debug, Serialize, Deserialize)]
            pub struct Report {
                pub total: u64,
                #[serde(skip)]
                cache: Vec<u8>,
                #[serde(rename = "recordCount")]
                records: u64,
            }
        "#;
        let fi = parse(src);
        let s = fi.items.iter().find(|x| x.kind == ItemKind::Struct).expect("struct");
        assert_eq!(s.name, "Report");
        assert_eq!(s.vis, Vis::Pub);
        assert_eq!(s.derives, vec!["Debug", "Serialize", "Deserialize"]);
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["total", "cache", "records"]);
        assert!(s.fields[1].skipped);
        assert_eq!(s.fields[2].wire_name, "recordCount");
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
    fn use_edges_with_groups_and_aliases() {
        let src = r#"
            use iotax_darshan::format::{parse_log, write_log as emit};
            use iotax_stats::rng::substream;
            use std::collections::BTreeMap;
            pub use crate::baseline::Baseline;
        "#;
        let fi = parse(src);
        let names: Vec<(String, String, Option<String>)> =
            fi.uses.iter().map(|u| (u.root.clone(), u.leaf.clone(), u.alias.clone())).collect();
        assert!(names.contains(&("iotax_darshan".into(), "parse_log".into(), None)));
        assert!(names.contains(&("iotax_darshan".into(), "write_log".into(), Some("emit".into()))));
        assert!(names.contains(&("iotax_stats".into(), "substream".into(), None)));
        assert!(names.contains(&("std".into(), "BTreeMap".into(), None)));
        assert!(names.contains(&("crate".into(), "Baseline".into(), None)));
        let emit = fi.uses.iter().find(|u| u.leaf == "write_log").expect("aliased");
        assert_eq!(emit.local_name(), "emit");
    }

    #[test]
    fn enum_variants_are_recorded() {
        let src = r#"
            #[derive(Serialize)]
            pub enum FaultKind { Truncate, BitFlip, ZeroBlock(u8), Weird { x: u8 } }
        "#;
        let fi = parse(src);
        let e = fi.items.iter().find(|x| x.kind == ItemKind::Enum).expect("enum");
        let names: Vec<&str> = e.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["Truncate", "BitFlip", "ZeroBlock", "Weird"]);
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
