//! Phase 1 of the v2 engine: the lightweight item model.
//!
//! Built on the token stream from [`crate::lexer`], this module parses
//! each workspace file into a [`FileModel`]: functions (free, inherent,
//! and trait methods), struct field types, `use` aliases, and — inside
//! every function body — the *sites* the cross-file lints care about:
//!
//! * **call sites** (free calls, `Type::method` path calls, `.method()`
//!   receiver calls with a receiver hint, macro invocations),
//! * **panic sites** (`.unwrap()` / `.expect()` / panicking macros /
//!   slice indexing),
//! * **alloc sites** (`Vec::new`, `vec!`, `format!`, `.to_vec()`,
//!   `.push()`, …) split into *hard* (always heap-allocate) and
//!   *amortized* (allocate only on capacity growth),
//! * **blocking sites** (`.wait()`, `.join()`, `sleep`, blocking file
//!   I/O, …), and
//! * **lock sites** (`.lock()` by default) with *hold tracking*: a
//!   `let`-bound guard is held to the end of its block, a temporary to
//!   the end of its statement, and an explicit `drop(guard)` releases
//!   it early. Every later call or lock site records the set of locks
//!   held at that point — the raw material for the lock-order graph.
//!
//! The model is deliberately *syntactic*: no type inference, no macro
//! expansion. Where types are unknowable the model records a
//! [`Receiver`] hint (self / field name / bare ident / opaque
//! expression) and phase 2 resolves it against struct fields, fn
//! params, and impl blocks. Soundness caveats live in DESIGN.md §4j.

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::lints::test_ranges;

/// What a call expression's receiver looked like, used by phase 2 to
/// narrow method resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.method(..)` — resolve within the enclosing impl type.
    SelfDot,
    /// `…field.method(..)` — the last ident of the chain was reached
    /// through a `.`, so it names a struct field.
    Field(String),
    /// `ident.method(..)` — a bare local/param name.
    Ident(String),
    /// `(expr).method(..)`, `f(x).method(..)`, chained temporaries —
    /// no usable hint.
    Expr,
}

/// What a call site invokes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(..)` or `a::b::foo(..)` — path segments, last = fn name.
    Free(Vec<String>),
    /// `.name(..)` with its receiver hint.
    Method { name: String, recv: Receiver },
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// 1-based source line.
    pub line: usize,
    /// Number of top-level argument expressions, or `None` when the
    /// argument list contains `|` (a closure makes comma counting
    /// unreliable, so arity matching goes lenient).
    pub args: Option<usize>,
    /// Indices (into [`FnModel::locks`]) of locks held at this call.
    pub held_locks: Vec<usize>,
}

/// Classification of a non-call site of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `panic! / unreachable! / todo! / unimplemented!`.
    PanicMacro,
    /// `assert! / assert_eq! / assert_ne!`.
    AssertMacro,
    /// `x[..]` slice indexing.
    Index,
    /// Always heap-allocates (`Box::new`, `vec!`, `format!`,
    /// `.to_vec()`, `.collect()`, `Vec::with_capacity`, …).
    AllocHard,
    /// Allocates only on capacity growth (`.push()`, `.extend()`,
    /// `.resize()`, `.reserve()`, …).
    AllocAmortized,
    /// May block the calling thread (`.wait()`, `.join()`, `sleep`,
    /// blocking `recv`, file reads, …).
    Blocking,
}

impl SiteKind {
    /// The policy-facing spelling of the kind.
    pub fn name(self) -> &'static str {
        match self {
            SiteKind::Unwrap => "unwrap",
            SiteKind::Expect => "expect",
            SiteKind::PanicMacro => "panic-macro",
            SiteKind::AssertMacro => "assert-macro",
            SiteKind::Index => "index",
            SiteKind::AllocHard => "alloc-hard",
            SiteKind::AllocAmortized => "alloc-amortized",
            SiteKind::Blocking => "blocking",
        }
    }
}

/// One panic/alloc/blocking site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// What kind of site.
    pub kind: SiteKind,
    /// The spelling that triggered it (`unwrap`, `format`, `wait`, …).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Receiver hint for naming the lock (phase 2 resolves it to a
    /// `Type.field` identity where possible).
    pub recv: Receiver,
    /// The acquiring method (`lock` by default).
    pub method: String,
    /// 1-based source line.
    pub line: usize,
    /// Indices of locks already held when this one is acquired —
    /// direct intra-function lock-order edges.
    pub held_locks: Vec<usize>,
}

/// A function (or method) in the model.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// Bare fn name.
    pub name: String,
    /// Enclosing inherent/trait-impl type (`impl Foo` / `impl T for Foo`).
    pub self_ty: Option<String>,
    /// Trait being implemented (`impl T for Foo`) or defined (`trait T`).
    pub trait_name: Option<String>,
    /// Declared `pub`.
    pub is_pub: bool,
    /// Inside a `#[test]` / `#[cfg(test)]` range.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Parameter `(name, type-segments)` pairs, `self` excluded.
    pub params: Vec<(String, Vec<String>)>,
    /// `let`-bound locals whose type is visible syntactically: either
    /// an explicit `let x: T = …` annotation or a constructor-path RHS
    /// (`let x = Type::new(…)` / `let x = Type { … }`).
    pub locals: Vec<(String, Vec<String>)>,
    /// `(binding, field)` pairs bound by a struct-pattern `let`
    /// (`let Type { a, b: c, .. } = …`): each binding has its field's
    /// declared type, which phase 2 looks up like a `…field` receiver.
    pub destructured: Vec<(String, String)>,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Panic/alloc/blocking sites in body order.
    pub sites: Vec<Site>,
    /// Lock acquisitions in body order.
    pub locks: Vec<LockSite>,
}

impl FnModel {
    /// Number of non-self parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }
}

/// A struct definition: field name → type segments (all path idents
/// appearing in the field's type, generics included, lifetimes
/// excluded). `Arc<StageQueue<Delivered>>` yields
/// `["Arc", "StageQueue", "Delivered"]`.
#[derive(Debug, Clone)]
pub struct StructModel {
    /// Struct name.
    pub name: String,
    /// Named fields (tuple structs contribute positional `0`, `1`, …).
    pub fields: Vec<(String, Vec<String>)>,
}

/// Everything phase 2 needs from one source file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// Repo-relative `/`-separated path.
    pub path: String,
    /// `use` aliases: last-segment (or `as` alias) → full path segments.
    pub uses: Vec<(String, Vec<String>)>,
    /// Struct definitions.
    pub structs: Vec<StructModel>,
    /// Functions, methods, and trait default methods.
    pub fns: Vec<FnModel>,
    /// Comments (the waiver scanner runs over these).
    pub comments: Vec<Comment>,
}

/// Keywords that can precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "in", "as", "fn", "let", "else", "move",
    "mut", "ref", "break", "continue", "where", "impl", "dyn", "pub", "use", "mod", "crate",
    "Some", "Ok", "Err", "None",
];

/// Macros that panic at runtime.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Assertion macros (their own [`SiteKind`] so policies can include or
/// exclude them from reachability independently).
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];
/// Macros that always heap-allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Method names that always heap-allocate a fresh buffer.
const ALLOC_HARD_METHODS: &[&str] =
    &["to_vec", "to_string", "to_owned", "collect", "into_bytes", "into_owned", "clone_into"];
/// `Type::fn` path calls that always heap-allocate. (`Vec::new` itself
/// allocates nothing, but the paper's hot-path discipline is that a
/// fresh buffer must come from the pool, so it counts.)
const ALLOC_HARD_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("BTreeMap", "new"),
    ("HashMap", "new"),
    ("VecDeque", "new"),
];
/// Method names that allocate on capacity growth.
const ALLOC_AMORTIZED_METHODS: &[&str] = &[
    "push", "extend", "extend_from_slice", "resize", "reserve", "reserve_exact", "insert",
    "append", "push_back", "push_front", "push_str",
];
/// Method names that can block the calling thread.
const BLOCKING_METHODS: &[&str] =
    &["wait", "join", "sleep", "recv", "park", "read_to_end", "read_to_string", "wait_timeout"];
/// Path calls that block (`thread::sleep`, `fs::read`, `File::open`…).
const BLOCKING_PATH_HEADS: &[&str] = &["fs", "File"];
const BLOCKING_PATH_FNS: &[&str] = &["sleep", "park"];

/// Builds the [`FileModel`] for one source file.
pub fn parse_file(rel_path: &str, src: &str) -> FileModel {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let tests = test_ranges(toks);
    let in_test = |idx: usize| tests.iter().any(|&(a, b)| idx >= a && idx < b);

    let mut model = FileModel {
        path: rel_path.to_string(),
        comments: lexed.comments.clone(),
        ..Default::default()
    };

    let mut i = 0usize;
    // Stack of (brace-depth-at-entry, impl context) so nested items in
    // `mod` blocks keep working; impl blocks record their self type.
    let mut depth = 0usize;
    let mut impl_stack: Vec<(usize, Option<String>, Option<String>)> = Vec::new();

    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                while matches!(impl_stack.last(), Some(&(d, _, _)) if d > depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            TokKind::Ident(kw) if kw == "use" => {
                i = parse_use(toks, i + 1, &mut model.uses);
            }
            TokKind::Ident(kw) if kw == "struct" => {
                i = parse_struct(toks, i + 1, &mut model.structs);
            }
            TokKind::Ident(kw) if kw == "impl" => {
                let (ty, trait_name, next) = parse_impl_header(toks, i + 1);
                // `impl Trait for Type { … }`: methods belong to Type.
                if matches!(toks.get(next), Some(t) if t.kind == TokKind::Punct('{')) {
                    impl_stack.push((depth + 1, ty, trait_name));
                }
                i = next;
            }
            TokKind::Ident(kw) if kw == "trait" => {
                // Default trait-method bodies model under the trait's
                // name, so `dyn Trait` calls can resolve to them.
                let name = match toks.get(i + 1).map(|t| &t.kind) {
                    Some(TokKind::Ident(n)) => Some(n.clone()),
                    _ => None,
                };
                let mut j = i + 1;
                while j < toks.len() && toks[j].kind != TokKind::Punct('{') && toks[j].kind != TokKind::Punct(';') {
                    j += 1;
                }
                if matches!(toks.get(j), Some(t) if t.kind == TokKind::Punct('{')) {
                    impl_stack.push((depth + 1, None, name));
                }
                i = j;
            }
            TokKind::Ident(kw) if kw == "fn" => {
                let is_pub = is_pub_before(toks, i);
                let (self_ty, trait_name) = match impl_stack.last() {
                    Some((_, ty, tr)) => (ty.clone(), tr.clone()),
                    None => (None, None),
                };
                let (f, next) = parse_fn(toks, i, is_pub, self_ty, trait_name, in_test(i));
                if let Some(f) = f {
                    model.fns.push(f);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    model
}

/// True when `pub` (possibly `pub(crate)` etc.) appears just before the
/// item keyword at `i`.
fn is_pub_before(toks: &[Tok], i: usize) -> bool {
    // Walk back over `const`, `unsafe`, `extern`, `async`, and a
    /* possible */ // `pub(...)` restriction.
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            TokKind::Ident(s) if s == "const" || s == "unsafe" || s == "extern" || s == "async" => {}
            TokKind::Str => {} // extern "C"
            TokKind::Punct(')') => {
                // pub(crate): skip to matching (.
                let mut d = 1;
                while j > 0 && d > 0 {
                    j -= 1;
                    match toks[j].kind {
                        TokKind::Punct(')') => d += 1,
                        TokKind::Punct('(') => d -= 1,
                        _ => {}
                    }
                }
            }
            TokKind::Ident(s) if s == "pub" => return true,
            _ => return false,
        }
    }
    false
}

/// Parses `use a::b::{c, d as e};` starting after the `use` keyword.
/// Returns the index past the trailing `;`.
fn parse_use(toks: &[Tok], mut i: usize, uses: &mut Vec<(String, Vec<String>)>) -> usize {
    let mut prefix: Vec<String> = Vec::new();
    let mut group_stack: Vec<usize> = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;

    let flush = |prefix: &[String], cur: &mut Vec<String>, alias: &mut Option<String>, uses: &mut Vec<(String, Vec<String>)>| {
        if cur.is_empty() {
            return;
        }
        let mut full = prefix.to_vec();
        full.append(cur);
        let key = alias.take().unwrap_or_else(|| full.last().cloned().unwrap_or_default());
        if key != "*" && !key.is_empty() {
            uses.push((key, full));
        }
    };

    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct(';') => {
                flush(&prefix, &mut cur, &mut alias, uses);
                return i + 1;
            }
            TokKind::Punct('{') => {
                prefix.append(&mut cur);
                group_stack.push(prefix.len());
                i += 1;
            }
            TokKind::Punct('}') => {
                flush(&prefix, &mut cur, &mut alias, uses);
                if let Some(len) = group_stack.pop() {
                    prefix.truncate(len.saturating_sub(prefix.len() - prefix.len()));
                    prefix.truncate(len);
                    // Restore prefix to the state before this group: we
                    // cannot know how many segments the group head had,
                    // so truncate conservatively to the recorded length.
                }
                i += 1;
            }
            TokKind::Punct(',') => {
                flush(&prefix, &mut cur, &mut alias, uses);
                // Within a group the shared prefix stays; outside it
                // (top-level `use a, b;` is not valid Rust) nothing to do.
                if let Some(&len) = group_stack.last() {
                    prefix.truncate(len);
                }
                i += 1;
            }
            TokKind::Ident(s) if s == "as" => {
                if let Some(TokKind::Ident(a)) = toks.get(i + 1).map(|t| &t.kind) {
                    alias = Some(a.clone());
                }
                i += 2;
            }
            TokKind::Ident(s) => {
                cur.push(s.clone());
                i += 1;
            }
            TokKind::Punct('*') => {
                cur.push("*".to_string());
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Parses `struct Name<...> { field: Type, … }` (or tuple/unit forms)
/// starting after the `struct` keyword. Returns the index past the body.
fn parse_struct(toks: &[Tok], mut i: usize, out: &mut Vec<StructModel>) -> usize {
    let Some(TokKind::Ident(name)) = toks.get(i).map(|t| &t.kind) else { return i };
    let name = name.clone();
    i += 1;
    // Skip generics.
    i = skip_angle_generics(toks, i);
    // Unit struct `struct S;` / tuple struct `struct S(A, B);`.
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(';')) => {
            out.push(StructModel { name, fields: Vec::new() });
            return i + 1;
        }
        Some(TokKind::Punct('(')) => {
            let (fields, next) = parse_tuple_fields(toks, i);
            out.push(StructModel { name, fields });
            return next;
        }
        Some(TokKind::Punct('{')) => {}
        // `struct S where …;` and exotic forms: find `{` or `;`.
        _ => {
            while i < toks.len()
                && toks[i].kind != TokKind::Punct('{')
                && toks[i].kind != TokKind::Punct(';')
            {
                i += 1;
            }
            if toks.get(i).map(|t| &t.kind) != Some(&TokKind::Punct('{')) {
                out.push(StructModel { name, fields: Vec::new() });
                return i + 1;
            }
        }
    }
    // Named fields: `ident : Type ,` at brace depth 1.
    let mut fields = Vec::new();
    let mut depth = 1usize;
    i += 1;
    while i < toks.len() && depth > 0 {
        match &toks[i].kind {
            TokKind::Punct('{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                i += 1;
            }
            TokKind::Ident(f)
                if depth == 1
                    && toks.get(i + 1).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                    && toks.get(i + 2).map(|t| &t.kind) != Some(&TokKind::Punct(':')) =>
            {
                let fname = f.clone();
                let (ty, next) = collect_type_segments(toks, i + 2);
                fields.push((fname, ty));
                i = next;
            }
            _ => i += 1,
        }
    }
    out.push(StructModel { name, fields });
    i
}

/// Collects type path idents from a field/param type, stopping at a
/// `,`, `)`, `}`, or `;` at the starting bracket depth. Returns the
/// segments and the index of the stopping token.
fn collect_type_segments(toks: &[Tok], mut i: usize) -> (Vec<String>, usize) {
    let mut segs = Vec::new();
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut square = 0i32;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => {
                if angle == 0 {
                    break; // `fn f() -> T` arrow tail handled by caller
                }
                angle -= 1;
            }
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => {
                if paren == 0 {
                    break;
                }
                paren -= 1;
            }
            TokKind::Punct('[') => square += 1,
            TokKind::Punct(']') => {
                if square == 0 {
                    break;
                }
                square -= 1;
            }
            TokKind::Punct(',') if angle == 0 && paren == 0 && square == 0 => break,
            TokKind::Punct('{') | TokKind::Punct('}') | TokKind::Punct(';') => break,
            TokKind::Punct('=') => break, // default / where bound tail
            TokKind::Ident(s)
                if s != "dyn" && s != "impl" && s != "mut" && s != "const" && s != "as" =>
            {
                segs.push(s.clone());
            }
            _ => {}
        }
        i += 1;
    }
    (segs, i)
}

/// Parses tuple-struct fields `(A, pub B, …)` at `i` (the `(`).
fn parse_tuple_fields(toks: &[Tok], mut i: usize) -> (Vec<(String, Vec<String>)>, usize) {
    let mut fields = Vec::new();
    let mut idx = 0usize;
    i += 1;
    loop {
        match toks.get(i).map(|t| &t.kind) {
            None | Some(TokKind::Punct(')')) => {
                i += 1;
                break;
            }
            Some(TokKind::Punct(',')) => {
                i += 1;
            }
            _ => {
                let (ty, next) = collect_type_segments(toks, i);
                if !ty.is_empty() || next > i {
                    fields.push((idx.to_string(), ty));
                    idx += 1;
                }
                i = next.max(i + 1);
            }
        }
    }
    // Consume the trailing `;` if present.
    if matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(';')) {
        i += 1;
    }
    (fields, i)
}

/// Skips `<…>` generics at `i` if present.
fn skip_angle_generics(toks: &[Tok], mut i: usize) -> usize {
    if toks.get(i).map(|t| &t.kind) != Some(&TokKind::Punct('<')) {
        return i;
    }
    let mut depth = 0i32;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses `impl<…> [Trait for] Type<…>` starting after `impl`.
/// Returns `(self_ty, trait_name, index-of-{-or-;)`.
fn parse_impl_header(toks: &[Tok], mut i: usize) -> (Option<String>, Option<String>, usize) {
    i = skip_angle_generics(toks, i);
    // Collect idents until `{`, tracking the one before `for`.
    let mut last: Option<String> = None;
    let mut trait_name: Option<String> = None;
    let mut angle = 0i32;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') | TokKind::Punct(';') if angle == 0 => break,
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Ident(s) if s == "for" && angle == 0 => {
                trait_name = last.take();
            }
            TokKind::Ident(s) if s == "where" && angle == 0 => {
                // Bounds tail: the self type is already in `last`.
                while i < toks.len() && toks[i].kind != TokKind::Punct('{') {
                    i += 1;
                }
                break;
            }
            TokKind::Ident(s) if angle == 0 && s != "dyn" && s != "impl" => {
                last = Some(s.clone());
            }
            _ => {}
        }
        i += 1;
    }
    (last, trait_name, i)
}

/// Parses one `fn` item starting at the `fn` keyword index. Returns
/// the model (None for body-less declarations) and the index past it.
fn parse_fn(
    toks: &[Tok],
    fn_idx: usize,
    is_pub: bool,
    self_ty: Option<String>,
    trait_name: Option<String>,
    is_test: bool,
) -> (Option<FnModel>, usize) {
    let mut i = fn_idx + 1;
    let Some(TokKind::Ident(name)) = toks.get(i).map(|t| &t.kind) else {
        return (None, i);
    };
    let name = name.clone();
    let line = toks[fn_idx].line;
    i += 1;
    i = skip_angle_generics(toks, i);
    if toks.get(i).map(|t| &t.kind) != Some(&TokKind::Punct('(')) {
        return (None, i);
    }
    let (has_self, params, mut i) = parse_params(toks, i);
    // Find the body `{`, skipping `-> Type` and `where` clauses; a `;`
    // first means declaration-only (trait method without default). The
    // `;` of an array type (`-> [u64; 4]`) sits inside brackets.
    let mut angle = 0i32;
    let mut bracket = 0i32;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle = (angle - 1).max(0), // `->` also hits this
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket = (bracket - 1).max(0),
            TokKind::Punct(';') if angle == 0 && bracket == 0 => return (None, i + 1),
            TokKind::Punct('{') if angle == 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= toks.len() {
        return (None, i);
    }
    let body_start = i;
    let body_end = match_brace(toks, body_start);
    let mut f = FnModel {
        name,
        self_ty,
        trait_name,
        is_pub,
        is_test,
        line,
        has_self,
        params,
        locals: Vec::new(),
        destructured: Vec::new(),
        calls: Vec::new(),
        sites: Vec::new(),
        locks: Vec::new(),
    };
    scan_body(toks, body_start, body_end, &mut f);
    (Some(f), body_end)
}

/// Index just past the `}` matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Parses a parameter list at `i` (the `(`). Returns
/// `(has_self, params, index-past-`)`)`.
fn parse_params(toks: &[Tok], open: usize) -> (bool, Vec<(String, Vec<String>)>, usize) {
    let mut has_self = false;
    let mut params = Vec::new();
    let mut i = open + 1;
    let mut depth = 1usize;
    while i < toks.len() && depth > 0 {
        match &toks[i].kind {
            TokKind::Punct('(') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct(')') => {
                depth -= 1;
                i += 1;
            }
            TokKind::Ident(s) if depth == 1 && s == "self" => {
                has_self = true;
                i += 1;
            }
            TokKind::Ident(s)
                if depth == 1
                    && toks.get(i + 1).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                    && toks.get(i + 2).map(|t| &t.kind) != Some(&TokKind::Punct(':')) =>
            {
                let pname = s.clone();
                let (ty, next) = collect_type_segments(toks, i + 2);
                params.push((pname, ty));
                i = next.max(i + 1);
            }
            _ => i += 1,
        }
    }
    (has_self, params, i)
}

/// An active lock hold during the body scan.
struct Hold {
    lock_idx: usize,
    /// Brace depth whose close releases a `let`-bound guard; `None`
    /// for temporaries released at the next `;` at `stmt_depth`.
    block_depth: Option<usize>,
    stmt_depth: usize,
    /// Binding name for `drop(name)` release, when `let`-bound.
    binding: Option<String>,
}

/// Scans a fn body (tokens in `[open, end)`) for calls, sites, and
/// locks with hold tracking.
fn scan_body(toks: &[Tok], open: usize, end: usize, f: &mut FnModel) {
    let mut holds: Vec<Hold> = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct('{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct('}') => {
                holds.retain(|h| h.block_depth.map(|d| d < depth).unwrap_or(true));
                depth = depth.saturating_sub(1);
                i += 1;
            }
            TokKind::Punct(';') => {
                holds.retain(|h| h.block_depth.is_some() || h.stmt_depth != depth);
                i += 1;
            }
            TokKind::Ident(name) => {
                if name == "let" {
                    record_let(toks, i, end, f);
                }
                let next = toks.get(i + 1).map(|t| &t.kind);
                // Macro invocation.
                if next == Some(&TokKind::Punct('!'))
                    && matches!(
                        toks.get(i + 2).map(|t| &t.kind),
                        Some(TokKind::Punct('(')) | Some(TokKind::Punct('[')) | Some(TokKind::Punct('{'))
                    )
                {
                    let n = name.as_str();
                    if PANIC_MACROS.contains(&n) {
                        f.sites.push(Site { kind: SiteKind::PanicMacro, what: name.clone(), line: toks[i].line });
                    } else if ASSERT_MACROS.contains(&n) {
                        f.sites.push(Site { kind: SiteKind::AssertMacro, what: name.clone(), line: toks[i].line });
                    } else if ALLOC_MACROS.contains(&n) {
                        f.sites.push(Site { kind: SiteKind::AllocHard, what: format!("{name}!"), line: toks[i].line });
                    }
                    i += 2;
                    continue;
                }
                // Call expression `name(`.
                if next == Some(&TokKind::Punct('(')) && !NON_CALL_KEYWORDS.contains(&name.as_str())
                {
                    let after_dot = i > open && toks[i - 1].kind == TokKind::Punct('.');
                    let is_path = i >= 2
                        && toks[i - 1].kind == TokKind::Punct(':')
                        && toks[i - 2].kind == TokKind::Punct(':');
                    let is_def = i > 0 && toks[i - 1].kind == TokKind::Ident("fn".into());
                    if is_def {
                        i += 1;
                        continue;
                    }
                    let args = count_args(toks, i + 1, end);
                    let line = toks[i].line;
                    if after_dot {
                        record_method_call(toks, open, i, name, args, line, &mut holds, f);
                    } else if is_path {
                        let segs = path_segments_back(toks, open, i);
                        record_path_call(segs, name, args, line, &holds, f);
                    } else {
                        // drop(guard) releases a held lock early.
                        if name == "drop" {
                            if let Some(TokKind::Ident(arg)) = toks.get(i + 2).map(|t| &t.kind) {
                                if toks.get(i + 3).map(|t| &t.kind) == Some(&TokKind::Punct(')')) {
                                    holds.retain(|h| h.binding.as_deref() != Some(arg.as_str()));
                                }
                            }
                        }
                        f.calls.push(CallSite {
                            callee: Callee::Free(vec![name.clone()]),
                            line,
                            args,
                            held_locks: held(&holds),
                        });
                    }
                    i += 1;
                    continue;
                }
                i += 1;
            }
            TokKind::Punct('[') if i > open => {
                // Indexing heuristic shared with RPR001.
                let indexes = match &toks[i - 1].kind {
                    TokKind::Ident(s) => !crate::lints::NON_INDEX_KEYWORDS.contains(&s.as_str()),
                    TokKind::Punct(')') | TokKind::Punct(']') => true,
                    _ => false,
                };
                if indexes {
                    f.sites.push(Site {
                        kind: SiteKind::Index,
                        what: "[..]".to_string(),
                        line: toks[i].line,
                    });
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

fn held(holds: &[Hold]) -> Vec<usize> {
    holds.iter().map(|h| h.lock_idx).collect()
}

/// Records a typed local from the `let` statement starting at `let_idx`
/// when the type is syntactically visible: an explicit `let x: T = …`
/// annotation, or a constructor path / struct literal on the RHS
/// (`let x = Type::new(…)`, `let x = Type { … }`). A struct pattern
/// (`let Type { a, b: c, .. } = …`) records its bindings in
/// [`FnModel::destructured`]; other pattern bindings (`let (a, b) = …`,
/// `let Some(x) = …`) record nothing.
fn record_let(toks: &[Tok], let_idx: usize, end: usize, f: &mut FnModel) {
    let mut j = let_idx + 1;
    let mut binding: Option<String> = None;
    while j < end {
        match &toks[j].kind {
            TokKind::Ident(s) if s == "mut" || s == "ref" => j += 1,
            TokKind::Ident(s) => {
                // An UPPERCASE first ident is an enum/struct pattern
                // (`let Some(x) = …`), not a binding.
                if s.chars().next().map(char::is_uppercase).unwrap_or(false) {
                    record_destructure(toks, j, end, f);
                    return;
                }
                binding = Some(s.clone());
                j += 1;
                break;
            }
            _ => return,
        }
    }
    let Some(binding) = binding else { return };
    match toks.get(j).map(|t| &t.kind) {
        // `let x: T = …` — but not a stray `::`.
        Some(TokKind::Punct(':'))
            if toks.get(j + 1).map(|t| &t.kind) != Some(&TokKind::Punct(':')) =>
        {
            let (ty, _) = collect_type_segments(toks, j + 1);
            if !ty.is_empty() {
                f.locals.push((binding, ty));
            }
        }
        Some(TokKind::Punct('='))
            if toks.get(j + 1).map(|t| &t.kind) != Some(&TokKind::Punct('=')) =>
        {
            // Constructor-path RHS: `Type::new(…)`, `a::Type { … }`.
            let mut k = j + 1;
            let mut segs: Vec<String> = Vec::new();
            while let Some(TokKind::Ident(s)) = toks.get(k).map(|t| &t.kind) {
                segs.push(s.clone());
                k += 1;
                if toks.get(k).map(|t| &t.kind) != Some(&TokKind::Punct(':'))
                    || toks.get(k + 1).map(|t| &t.kind) != Some(&TokKind::Punct(':'))
                {
                    break;
                }
                k += 2;
                // Skip a turbofish `::<T>`.
                if toks.get(k).map(|t| &t.kind) == Some(&TokKind::Punct('<')) {
                    k = skip_angle_generics(toks, k);
                    if toks.get(k).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                        && toks.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                    {
                        k += 2;
                    } else {
                        break;
                    }
                }
            }
            // The path must start with a type-like (uppercase) segment
            // somewhere; `let x = other_fn()` records nothing.
            if !segs.iter().any(|s| s.chars().next().map(char::is_uppercase).unwrap_or(false)) {
                return;
            }
            // `Type::new` → the constructor fn segment is not a type.
            if segs.len() > 1
                && segs.last().map(|s| s.chars().next().map(char::is_lowercase).unwrap_or(false))
                    == Some(true)
            {
                segs.pop();
            }
            // A struct literal (`= Type { … }`) or call (`= Type::new(…)`)
            // follows; a bare ident RHS (`= other`) is a move, skip it.
            match toks.get(k).map(|t| &t.kind) {
                Some(TokKind::Punct('(')) | Some(TokKind::Punct('{'))
                | Some(TokKind::Punct('<')) => {
                    f.locals.push((binding, segs));
                }
                _ => {}
            }
        }
        _ => {}
    }
}

/// Records the `(binding, field)` pairs of the struct pattern whose
/// type path starts at `j` (`Type { a, mut b, c: d, .. }`). A field
/// bound to a nested pattern records nothing, and so does a
/// tuple-struct or enum pattern (`Some(x)`).
fn record_destructure(toks: &[Tok], mut j: usize, end: usize, f: &mut FnModel) {
    let kind = |k: usize| toks.get(k).map(|t| &t.kind);
    while let Some(TokKind::Ident(_)) = kind(j) {
        j += 1;
        if kind(j) != Some(&TokKind::Punct(':')) || kind(j + 1) != Some(&TokKind::Punct(':')) {
            break;
        }
        j += 2;
    }
    if kind(j) != Some(&TokKind::Punct('{')) {
        return;
    }
    // One field pattern per depth-0 comma-separated segment.
    let mut segment: Vec<&TokKind> = Vec::new();
    let mut depth = 0usize;
    for k in toks.get(j + 1..end).unwrap_or(&[]).iter().map(|t| &t.kind) {
        match k {
            TokKind::Punct('{' | '(' | '[') => depth += 1,
            TokKind::Punct('}') if depth == 0 => {
                record_field_pattern(&segment, f);
                return;
            }
            TokKind::Punct('}' | ')' | ']') => depth = depth.saturating_sub(1),
            TokKind::Punct(',') if depth == 0 => {
                record_field_pattern(&segment, f);
                segment.clear();
                continue;
            }
            _ => {}
        }
        segment.push(k);
    }
}

/// One field of a struct pattern: `field`, `mut field`, `field: b` and
/// `field: mut b` bind a plain ident; anything else binds nothing.
fn record_field_pattern(segment: &[&TokKind], f: &mut FnModel) {
    let (field, binding) = match segment.iter().position(|k| **k == TokKind::Punct(':')) {
        None => (sole_ident(segment), sole_ident(segment)),
        Some(c) => (sole_ident(&segment[..c]), sole_ident(&segment[c + 1..])),
    };
    let is_binding = |s: &String| s.starts_with(|c: char| c.is_lowercase() || c == '_');
    if let (Some(field), Some(binding)) = (field, binding) {
        if is_binding(&field) && is_binding(&binding) {
            f.destructured.push((binding, field));
        }
    }
}

/// The one identifier left in `toks` after leading `ref`/`mut`, or
/// `None` when anything else is there.
fn sole_ident(toks: &[&TokKind]) -> Option<String> {
    let mut rest =
        toks.iter().skip_while(|k| matches!(k, TokKind::Ident(s) if s == "ref" || s == "mut"));
    match (rest.next(), rest.next()) {
        (Some(TokKind::Ident(s)), None) => Some(s.clone()),
        _ => None,
    }
}

/// Records a `.name(args)` method call at token `i`, classifying
/// panic/alloc/blocking/lock sites as a side effect.
#[allow(clippy::too_many_arguments)]
fn record_method_call(
    toks: &[Tok],
    open: usize,
    i: usize,
    name: &str,
    args: Option<usize>,
    line: usize,
    holds: &mut Vec<Hold>,
    f: &mut FnModel,
) {
    // Site classification first (these also stay in `calls` so the
    // graph can resolve them to workspace impls when one exists).
    match name {
        "unwrap" => f.sites.push(Site { kind: SiteKind::Unwrap, what: name.into(), line }),
        "expect" => f.sites.push(Site { kind: SiteKind::Expect, what: name.into(), line }),
        n if ALLOC_HARD_METHODS.contains(&n) => {
            f.sites.push(Site { kind: SiteKind::AllocHard, what: name.into(), line });
        }
        n if ALLOC_AMORTIZED_METHODS.contains(&n) => {
            f.sites.push(Site { kind: SiteKind::AllocAmortized, what: name.into(), line });
        }
        n if BLOCKING_METHODS.contains(&n) => {
            f.sites.push(Site { kind: SiteKind::Blocking, what: name.into(), line });
        }
        _ => {}
    }
    let recv = receiver_back(toks, open, i - 1);
    if name == "lock" {
        let lock_idx = f.locks.len();
        f.locks.push(LockSite {
            recv: recv.clone(),
            method: name.to_string(),
            line,
            held_locks: held(holds),
        });
        // Hold scope: `let g = x.lock()` lives to block end; a
        // temporary `x.lock().y` to the end of the statement.
        let (bound, binding) = let_binding_back(toks, open, i);
        let depth = brace_depth(toks, open, i);
        holds.push(Hold {
            lock_idx,
            block_depth: if bound { Some(depth) } else { None },
            stmt_depth: depth,
            binding,
        });
    }
    f.calls.push(CallSite {
        callee: Callee::Method { name: name.to_string(), recv },
        line,
        args,
        held_locks: held(holds),
    });
}

/// Records a `a::b::name(args)` path call.
fn record_path_call(
    mut segs: Vec<String>,
    name: &str,
    args: Option<usize>,
    line: usize,
    holds: &[Hold],
    f: &mut FnModel,
) {
    segs.push(name.to_string());
    // Site classification for known allocating/blocking paths.
    if segs.len() >= 2 {
        let ty = &segs[segs.len() - 2];
        let last = name;
        if ALLOC_HARD_PATHS.iter().any(|(t, m)| t == ty && *m == last) {
            f.sites.push(Site {
                kind: SiteKind::AllocHard,
                what: format!("{ty}::{last}"),
                line,
            });
        }
        if (BLOCKING_PATH_HEADS.contains(&ty.as_str()) && last != "metadata")
            || BLOCKING_PATH_FNS.contains(&last)
        {
            f.sites.push(Site {
                kind: SiteKind::Blocking,
                what: format!("{ty}::{last}"),
                line,
            });
        }
    }
    f.calls.push(CallSite { callee: Callee::Free(segs), line, args, held_locks: held(holds) });
}

/// Counts top-level argument expressions in the paren group opening at
/// `open_paren`. Returns `None` when a `|` appears at depth 1 (closure
/// params defeat comma counting).
fn count_args(toks: &[Tok], open_paren: usize, end: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut any = false;
    let mut has_pipe = false;
    let mut i = open_paren;
    while i < end {
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            TokKind::Punct(',') if depth == 1 => commas += 1,
            TokKind::Punct('|') if depth == 1 => has_pipe = true,
            _ => {
                if depth == 1 {
                    any = true;
                }
            }
        }
        i += 1;
    }
    if has_pipe {
        return None;
    }
    Some(if any || commas > 0 { commas + 1 } else { 0 })
}

/// Walks back from the `.` before a method name to produce a
/// [`Receiver`] hint. `tok_before` is the index of the method-name
/// token's preceding `.`.
fn receiver_back(toks: &[Tok], open: usize, dot: usize) -> Receiver {
    if dot <= open {
        return Receiver::Expr;
    }
    let mut j = dot - 1; // token before the `.`
    // Skip a balanced `[...]` index: `self.shards[idx].lock()`.
    while j > open && toks[j].kind == TokKind::Punct(']') {
        let mut d = 1usize;
        while j > open && d > 0 {
            j -= 1;
            match toks[j].kind {
                TokKind::Punct(']') => d += 1,
                TokKind::Punct('[') => d -= 1,
                _ => {}
            }
        }
        if j == open {
            return Receiver::Expr;
        }
        j -= 1;
    }
    match &toks[j].kind {
        TokKind::Ident(s) if s == "self" => Receiver::SelfDot,
        TokKind::Ident(s) => {
            // Was this ident itself reached through a `.`? Then it is
            // a field; otherwise a bare local/param.
            if j > open && toks[j - 1].kind == TokKind::Punct('.') {
                Receiver::Field(s.clone())
            } else if j >= open + 2
                && toks[j - 1].kind == TokKind::Punct(':')
                && toks[j - 2].kind == TokKind::Punct(':')
            {
                // `Type::CONST.method()` — give the ident as a hint.
                Receiver::Ident(s.clone())
            } else {
                Receiver::Ident(s.clone())
            }
        }
        _ => Receiver::Expr,
    }
}

/// Collects `a::b::` path segments walking back from the fn-name token
/// at `i` (which is preceded by `::`).
fn path_segments_back(toks: &[Tok], open: usize, i: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut j = i;
    while j >= open + 3
        && toks[j - 1].kind == TokKind::Punct(':')
        && toks[j - 2].kind == TokKind::Punct(':')
    {
        // Skip turbofish `::<T>::` segments.
        let mut k = j - 3;
        if toks[k].kind == TokKind::Punct('>') {
            let mut d = 1i32;
            while k > open && d > 0 {
                k -= 1;
                match toks[k].kind {
                    TokKind::Punct('>') => d += 1,
                    TokKind::Punct('<') => d -= 1,
                    _ => {}
                }
            }
            if k == open {
                break;
            }
            k -= 1;
        }
        match &toks[k].kind {
            TokKind::Ident(s) => {
                segs.push(s.clone());
                j = k;
            }
            _ => break,
        }
    }
    segs.reverse();
    segs
}

/// True (with the binding name) when the expression containing token
/// `i` is `let <name> = …`: walk back to the statement head.
fn let_binding_back(toks: &[Tok], open: usize, i: usize) -> (bool, Option<String>) {
    let mut j = i;
    let mut eq = None;
    while j > open {
        j -= 1;
        match &toks[j].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
            TokKind::Punct('=')
                if j > open
                    && toks[j - 1].kind != TokKind::Punct('=')
                    && toks[j - 1].kind != TokKind::Punct('!')
                    && toks[j - 1].kind != TokKind::Punct('<')
                    && toks[j - 1].kind != TokKind::Punct('>')
                    && toks.get(j + 1).map(|t| &t.kind) != Some(&TokKind::Punct('=')) =>
            {
                eq = Some(j);
            }
            _ => {}
        }
    }
    let Some(eq) = eq else { return (false, None) };
    // Statement head must start with `let`; binding is the ident right
    // before `=` (or before `:` for `let g: T = …`).
    let mut head = eq;
    while head > open {
        head -= 1;
        match &toks[head].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => {
                head += 1;
                break;
            }
            _ => {}
        }
    }
    if !matches!(&toks.get(head).map(|t| &t.kind), Some(TokKind::Ident(s)) if *s == "let") {
        return (false, None);
    }
    let mut binding = None;
    let mut k = head + 1;
    while k < eq {
        if let TokKind::Ident(s) = &toks[k].kind {
            if s != "mut" {
                binding = Some(s.clone());
            }
        }
        if toks[k].kind == TokKind::Punct(':') {
            break;
        }
        k += 1;
    }
    (true, binding)
}

/// Brace depth of token `i` relative to the body opening at `open`.
fn brace_depth(toks: &[Tok], open: usize, i: usize) -> usize {
    let mut d = 0usize;
    for t in &toks[open..i] {
        match t.kind {
            TokKind::Punct('{') => d += 1,
            TokKind::Punct('}') => d = d.saturating_sub(1),
            _ => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        parse_file("x.rs", src)
    }

    fn find_fn<'a>(m: &'a FileModel, name: &str) -> &'a FnModel {
        m.fns.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("fn {name} missing"))
    }

    #[test]
    fn fns_impls_and_traits_are_modelled() {
        let src = r#"
            pub fn free(a: u32, b: &str) -> u32 { helper(a) }
            fn helper(a: u32) -> u32 { a }
            struct S { q: Arc<StageQueue<Delivered>>, n: usize }
            impl S {
                pub fn m(&self) { self.q.try_push(1); }
            }
            trait T { fn d(&self) { self.m2(); } fn decl(&self); }
            impl T for S { fn decl(&self) {} }
        "#;
        let m = model(src);
        let names: Vec<_> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "helper", "m", "d", "decl"]);
        let free = find_fn(&m, "free");
        assert!(free.is_pub && !free.has_self);
        assert_eq!(free.arity(), 2);
        let mfn = find_fn(&m, "m");
        assert_eq!(mfn.self_ty.as_deref(), Some("S"));
        assert!(mfn.has_self);
        let d = find_fn(&m, "d");
        assert_eq!(d.trait_name.as_deref(), Some("T"));
        let decl = find_fn(&m, "decl");
        assert_eq!((decl.self_ty.as_deref(), decl.trait_name.as_deref()), (Some("S"), Some("T")));
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].fields[0].0, "q");
        assert_eq!(m.structs[0].fields[0].1, vec!["Arc", "StageQueue", "Delivered"]);
    }

    #[test]
    fn array_return_types_do_not_read_as_declarations() {
        let src = r#"
            pub fn counts(row: &[u8]) -> [u64; 4] { let v = Vec::new(); tally(row) }
            fn pair() -> ([u8; 2], u8) { ([0; 2], 1) }
            trait T { fn decl(&self) -> [u8; 3]; fn after(&self) {} }
        "#;
        let m = model(src);
        let names: Vec<_> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["counts", "pair", "after"]);
        assert!(find_fn(&m, "counts").sites.iter().any(|s| s.what.contains("Vec::new")));
    }

    #[test]
    fn call_sites_carry_receiver_hints_and_arity() {
        let src = r#"
            fn f(q: Queue) {
                helper(1, 2);
                q.pop();
                self_less.other.push(3);
                Type::build(4);
                a::b::c(5, 6);
                items.iter().map(|x, y| x).count();
            }
        "#;
        let m = model(src);
        let f = find_fn(&m, "f");
        let calls: Vec<String> = f
            .calls
            .iter()
            .map(|c| match &c.callee {
                Callee::Free(p) => format!("free:{}({:?})", p.join("::"), c.args),
                Callee::Method { name, recv } => format!("method:{name}/{recv:?}({:?})", c.args),
            })
            .collect();
        assert!(calls[0].starts_with("free:helper(Some(2)"), "{calls:?}");
        assert!(calls[1].contains("method:pop/Ident(\"q\")(Some(0)"), "{calls:?}");
        assert!(calls[2].contains("method:push/Field(\"other\")"), "{calls:?}");
        assert!(calls[3].starts_with("free:Type::build"), "{calls:?}");
        assert!(calls[4].starts_with("free:a::b::c(Some(2)"), "{calls:?}");
        // The closure's comma defeats arity counting for `map`.
        assert!(calls.iter().any(|c| c.contains("method:map") && c.contains("None")), "{calls:?}");
    }

    #[test]
    fn sites_classify_panics_allocs_and_blocking() {
        let src = r#"
            fn f(v: Vec<u8>) {
                v.first().unwrap();
                x.expect("boom");
                panic!("no");
                assert_eq!(1, 1);
                let a = Vec::new();
                let b = vec![1];
                let c = format!("x");
                out.extend_from_slice(&v);
                h.join();
                std::thread::sleep(d);
            }
        "#;
        let f = model(src);
        let f = find_fn(&f, "f");
        let kinds: Vec<(SiteKind, &str)> =
            f.sites.iter().map(|s| (s.kind, s.what.as_str())).collect();
        assert!(kinds.contains(&(SiteKind::Unwrap, "unwrap")));
        assert!(kinds.contains(&(SiteKind::Expect, "expect")));
        assert!(kinds.contains(&(SiteKind::PanicMacro, "panic")));
        assert!(kinds.contains(&(SiteKind::AssertMacro, "assert_eq")));
        assert!(kinds.contains(&(SiteKind::AllocHard, "Vec::new")));
        assert!(kinds.contains(&(SiteKind::AllocHard, "vec!")));
        assert!(kinds.contains(&(SiteKind::AllocHard, "format!")));
        assert!(kinds.contains(&(SiteKind::AllocAmortized, "extend_from_slice")));
        assert!(kinds.contains(&(SiteKind::Blocking, "join")));
        assert!(kinds.contains(&(SiteKind::Blocking, "thread::sleep")));
    }

    #[test]
    fn lock_holds_nest_for_bound_guards_and_clear_on_statement_end() {
        let src = r#"
            fn f(&self) {
                let a = self.first.lock();
                self.second.lock().touch();
                other();
            }
        "#;
        let m = model(src);
        let f = find_fn(&m, "f");
        assert_eq!(f.locks.len(), 2);
        // Second lock acquired while `a` held.
        assert_eq!(f.locks[1].held_locks, vec![0]);
        // The temporary guard is gone by the time `other()` runs; `a`
        // is still held (block-scoped).
        let other = f.calls.iter().find(|c| matches!(&c.callee, Callee::Free(p) if p == &vec!["other".to_string()])).unwrap();
        assert_eq!(other.held_locks, vec![0]);
    }

    #[test]
    fn scoped_and_dropped_guards_release() {
        let src = r#"
            fn f(&self) {
                {
                    let g = self.a.lock();
                    inner();
                }
                after_scope();
                let h = self.b.lock();
                drop(h);
                after_drop();
            }
        "#;
        let m = model(src);
        let f = find_fn(&m, "f");
        let call = |name: &str| {
            f.calls
                .iter()
                .find(|c| matches!(&c.callee, Callee::Free(p) if p.last().map(String::as_str) == Some(name)))
                .unwrap()
        };
        assert_eq!(call("inner").held_locks, vec![0]);
        assert!(call("after_scope").held_locks.is_empty());
        assert!(call("after_drop").held_locks.is_empty());
    }

    #[test]
    fn indexed_receiver_resolves_to_field() {
        let src = "impl H { fn f(&self, i: usize) { self.shards[i].lock().record(1); } }";
        let m = model(src);
        let f = find_fn(&m, "f");
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].recv, Receiver::Field("shards".to_string()));
    }

    #[test]
    fn use_aliases_resolve_groups_and_renames() {
        let src = "use a::b::{c, d as e};\nuse x::y;\nfn f() {}";
        let m = model(src);
        let get = |k: &str| m.uses.iter().find(|(n, _)| n == k).map(|(_, p)| p.clone());
        assert_eq!(get("c"), Some(vec!["a".into(), "b".into(), "c".into()]));
        assert_eq!(get("e"), Some(vec!["a".into(), "b".into(), "d".into()]));
        assert_eq!(get("y"), Some(vec!["x".into(), "y".into()]));
    }

    #[test]
    fn typed_locals_are_recorded() {
        let src = r#"
            fn f() {
                let a: StageQueue<u8> = make();
                let mut b = Vec::new();
                let c = BufferPool::with_capacity(4);
                let d = Config { x: 1 };
                let e = untyped_helper();
                let (g, h) = pair();
                let Some(i) = opt else { return };
            }
        "#;
        let m = model(src);
        let f = find_fn(&m, "f");
        let get = |k: &str| f.locals.iter().find(|(n, _)| n == k).map(|(_, t)| t.clone());
        assert_eq!(get("a"), Some(vec!["StageQueue".into(), "u8".into()]));
        assert_eq!(get("b"), Some(vec!["Vec".into()]));
        assert_eq!(get("c"), Some(vec!["BufferPool".into()]));
        assert_eq!(get("d"), Some(vec!["Config".into()]));
        assert_eq!(get("e"), None);
        assert_eq!(get("g"), None);
        assert_eq!(get("i"), None);
    }

    #[test]
    fn struct_pattern_bindings_are_recorded_with_their_fields() {
        let src = r#"
            fn f(&mut self) {
                let Enc { width, mut pool, counts: rows, inner: Inner { x }, ref spans, .. } = self;
                let Some(y) = opt else { return };
            }
        "#;
        let m = model(src);
        let f = find_fn(&m, "f");
        let pairs: Vec<(&str, &str)> =
            f.destructured.iter().map(|(b, fld)| (b.as_str(), fld.as_str())).collect();
        assert_eq!(
            pairs,
            vec![("width", "width"), ("pool", "pool"), ("rows", "counts"), ("spans", "spans")]
        );
    }

    #[test]
    fn test_items_are_flagged() {
        let src = "#[cfg(test)]\nmod tests { fn helper() { v.unwrap(); } }\nfn prod() {}";
        let m = model(src);
        assert!(find_fn(&m, "helper").is_test);
        assert!(!find_fn(&m, "prod").is_test);
    }
}
