//! Phase 2, part 1: the workspace call graph.
//!
//! [`Workspace::parse`] runs the phase-1 parser over every file;
//! [`Graph::build`] resolves each [`CallSite`] to workspace functions
//! and materialises the edge list the reachability lints traverse.
//!
//! ## Resolution rules (soundness caveats in DESIGN.md §4j)
//!
//! A method call `.name(args)` resolves against every workspace fn
//! with a `self` receiver, matching name and arity (arity matching is
//! lenient when the argument list contains a closure). The candidate
//! set is then narrowed by the receiver's *type evidence*:
//!
//! * `self.name(..)` → the enclosing impl type,
//! * `…field.name(..)` → the union of declared types of any struct
//!   field with that name (caller's file first, then workspace-wide),
//! * `ident.name(..)` → the fn param or typed local of that name, or,
//!   for a binding of a struct pattern (`let Type { field, .. } = …`),
//!   that field's declared types as for `…field.name(..)`,
//! * `Type::name(..)` paths → that type's impls (aliases from `use`
//!   rename resolution applied first).
//!
//! Matching accepts both inherent impls (`self_ty` ∈ evidence) and
//! trait impls/defaults (`trait_name` ∈ evidence), so `dyn Trait` /
//! `impl Trait` receivers resolve to every implementor — an
//! over-approximation, which is the safe direction for reachability.
//!
//! When there is **no** type evidence (an opaque expression receiver
//! or an untyped local), the call resolves only within the caller's
//! own file. This is the engine's one deliberate soundness hole:
//! unhinted cross-file method edges are dropped rather than
//! over-approximated, because name+arity fallback across the whole
//! workspace links every `push`/`get`/`write` to every implementor
//! and drowns real findings. Receivers on lint-critical paths get
//! explicit type annotations in the analyzed code instead.

use crate::lints::{self, Waiver};
use crate::policy::Policy;
use crate::syntax::{parse_file, Callee, FileModel, FnModel, Receiver};
use crate::walk;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// All parsed files of one analysis run.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parsed per-file models.
    pub files: Vec<FileModel>,
}

impl Workspace {
    /// Parses in-memory `(rel_path, source)` pairs (fixtures, tests).
    pub fn parse(files: &[(String, String)]) -> Workspace {
        Workspace { files: files.iter().map(|(p, s)| parse_file(p, s)).collect() }
    }

    /// Walks the workspace under `root` (honouring the policy's
    /// exclude list) and parses every Rust file.
    ///
    /// # Errors
    ///
    /// Returns the first I/O failure while walking or reading.
    pub fn load(root: &Path, policy: &Policy) -> std::io::Result<Workspace> {
        let rels = walk::collect_rust_files(root, policy)?;
        let mut files = Vec::with_capacity(rels.len());
        for rel in &rels {
            let src = std::fs::read_to_string(root.join(rel))?;
            files.push(parse_file(rel, &src));
        }
        Ok(Workspace { files })
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Target fn id.
    pub to: usize,
    /// Call line in the caller's file (per-edge waivers match here).
    pub line: usize,
    /// Index of the originating [`crate::syntax::CallSite`] in the
    /// caller's `calls` — the lock-order lint reads its held-lock set.
    pub call: usize,
}

/// The workspace call graph: a flat fn table plus resolved edges.
pub struct Graph<'w> {
    /// The parsed workspace.
    pub ws: &'w Workspace,
    /// Flat fn table: `(file index, fn index within file)`.
    pub fns: Vec<(usize, usize)>,
    /// Outgoing edges, parallel to `fns`.
    pub edges: Vec<Vec<Edge>>,
    /// Parsed waiver comments, per file (RPR000 findings discarded —
    /// the token-lint pass owns waiver-syntax enforcement).
    pub(crate) waivers: Vec<Vec<Waiver>>,
}

impl<'w> Graph<'w> {
    /// Resolves every call site in `ws` into the edge list.
    pub fn build(ws: &'w Workspace) -> Graph<'w> {
        let mut fns = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (xi, _) in file.fns.iter().enumerate() {
                fns.push((fi, xi));
            }
        }
        let idx = Indexes::build(ws, &fns);
        let mut edges = Vec::with_capacity(fns.len());
        for (id, &(fi, xi)) in fns.iter().enumerate() {
            let _ = id;
            let f = &ws.files[fi].fns[xi];
            let mut out: Vec<Edge> = Vec::new();
            for (ci, call) in f.calls.iter().enumerate() {
                let mut targets = resolve_call(ws, &idx, fi, f, call.args, &call.callee);
                targets.sort_unstable();
                targets.dedup();
                for t in targets {
                    out.push(Edge { to: t, line: call.line, call: ci });
                }
            }
            edges.push(out);
        }
        let mut waivers = Vec::with_capacity(ws.files.len());
        for file in &ws.files {
            let mut sink = Vec::new();
            waivers.push(lints::collect_waivers(&file.comments, &file.path, &mut sink));
        }
        Graph { ws, fns, edges, waivers }
    }

    /// The [`FnModel`] behind fn id `id`.
    pub fn model(&self, id: usize) -> &FnModel {
        let (fi, xi) = self.fns[id];
        &self.ws.files[fi].fns[xi]
    }

    /// File index of fn id `id`.
    pub fn file_of(&self, id: usize) -> usize {
        self.fns[id].0
    }

    /// Repo-relative path of the file defining fn id `id`.
    pub fn path_of(&self, id: usize) -> &str {
        &self.ws.files[self.fns[id].0].path
    }

    /// Repo-relative paths of every parsed file.
    pub fn file_paths(&self) -> Vec<&str> {
        self.ws.files.iter().map(|f| f.path.as_str()).collect()
    }

    /// Human-readable qualified name: `file.rs::Type::fn`.
    pub fn display(&self, id: usize) -> String {
        let f = self.model(id);
        match &f.self_ty {
            Some(t) => format!("{}::{}::{}", self.path_of(id), t, f.name),
            None => format!("{}::{}", self.path_of(id), f.name),
        }
    }

    /// True when `lint_names` has a waiver covering `line` of the file
    /// at index `fi`. Returns the justification of the first match.
    pub fn waived(&self, fi: usize, line: usize, lint_names: &[&str]) -> Option<&str> {
        self.waivers[fi]
            .iter()
            .find(|w| lint_names.contains(&w.lint.as_str()) && w.lines.contains(&line))
            .map(|w| w.reason.as_str())
    }

    /// Resolves an entry spec `path/file.rs::Type::fn` or
    /// `path/file.rs::fn` to fn ids (several for duplicate names).
    pub fn resolve_entry(&self, spec: &str) -> Vec<usize> {
        let Some(pos) = spec.find(".rs::") else { return Vec::new() };
        let file = &spec[..pos + 3];
        let rest: Vec<&str> = spec[pos + 5..].split("::").collect();
        let (ty, name) = match rest.as_slice() {
            [name] => (None, *name),
            [ty, name] => (Some(*ty), *name),
            _ => return Vec::new(),
        };
        (0..self.fns.len())
            .filter(|&id| {
                let f = self.model(id);
                self.path_of(id) == file
                    && f.name == name
                    && match ty {
                        Some(t) => f.self_ty.as_deref() == Some(t),
                        None => true,
                    }
            })
            .collect()
    }

    /// Entry points for a scope list: every `pub`, non-test fn defined
    /// in a file matching the include list.
    pub fn entries_in_scope(&self, include: &[String]) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&id| {
                let f = self.model(id);
                f.is_pub && !f.is_test && lints::in_set(self.path_of(id), include)
            })
            .collect()
    }
}

/// Lookup tables for resolution.
struct Indexes {
    /// Methods (`has_self`) by name.
    methods: BTreeMap<String, Vec<usize>>,
    /// Free fns / assoc fns (no self) by name.
    free: BTreeMap<String, Vec<usize>>,
    /// `(self_ty, name)` → fn ids (both methods and assoc fns).
    impls: BTreeMap<(String, String), Vec<usize>>,
    /// `(trait_name, name)` → fn ids.
    traits: BTreeMap<(String, String), Vec<usize>>,
    /// Field name → declared type segments, workspace-wide union.
    fields: BTreeMap<String, Vec<String>>,
}

impl Indexes {
    fn build(ws: &Workspace, fns: &[(usize, usize)]) -> Indexes {
        let mut idx = Indexes {
            methods: BTreeMap::new(),
            free: BTreeMap::new(),
            impls: BTreeMap::new(),
            traits: BTreeMap::new(),
            fields: BTreeMap::new(),
        };
        for (id, &(fi, xi)) in fns.iter().enumerate() {
            let f = &ws.files[fi].fns[xi];
            if f.has_self {
                idx.methods.entry(f.name.clone()).or_default().push(id);
            } else {
                idx.free.entry(f.name.clone()).or_default().push(id);
            }
            if let Some(t) = &f.self_ty {
                idx.impls.entry((t.clone(), f.name.clone())).or_default().push(id);
            }
            if let Some(t) = &f.trait_name {
                idx.traits.entry((t.clone(), f.name.clone())).or_default().push(id);
            }
        }
        for file in &ws.files {
            for s in &file.structs {
                for (fname, segs) in &s.fields {
                    idx.fields.entry(fname.clone()).or_default().extend(segs.iter().cloned());
                }
            }
        }
        idx
    }
}

/// Lenient arity check: `None` call args (closure in the list) match
/// anything; otherwise the counts must agree.
fn arity_ok(f: &FnModel, args: Option<usize>) -> bool {
    match args {
        None => true,
        Some(n) => f.arity() == n,
    }
}

/// Type evidence for a method receiver: the set of type/trait names it
/// may be. `None` = no evidence (resolve file-locally only).
fn receiver_evidence(
    ws: &Workspace,
    idx: &Indexes,
    fi: usize,
    caller: &FnModel,
    recv: &Receiver,
) -> Option<BTreeSet<String>> {
    match recv {
        Receiver::SelfDot => caller.self_ty.clone().map(|t| BTreeSet::from([t])),
        Receiver::Field(f) => {
            // Caller's file first — its structs are the likely owners.
            let mut set = BTreeSet::new();
            for s in &ws.files[fi].structs {
                for (fname, segs) in &s.fields {
                    if fname == f {
                        set.extend(segs.iter().cloned());
                    }
                }
            }
            if set.is_empty() {
                if let Some(segs) = idx.fields.get(f) {
                    set.extend(segs.iter().cloned());
                }
            }
            if set.is_empty() {
                None
            } else {
                Some(set)
            }
        }
        Receiver::Ident(x) => {
            if let Some((_, segs)) = caller.params.iter().find(|(n, _)| n == x) {
                return Some(segs.iter().cloned().collect());
            }
            if let Some((_, segs)) = caller.locals.iter().find(|(n, _)| n == x) {
                return Some(segs.iter().cloned().collect());
            }
            if let Some((_, field)) = caller.destructured.iter().find(|(n, _)| n == x) {
                return receiver_evidence(ws, idx, fi, caller, &Receiver::Field(field.clone()));
            }
            if x.chars().next().map(char::is_uppercase).unwrap_or(false) {
                return Some(BTreeSet::from([x.clone()]));
            }
            None
        }
        Receiver::Expr => None,
    }
}

/// Resolves one call site to workspace fn ids.
fn resolve_call(
    ws: &Workspace,
    idx: &Indexes,
    fi: usize,
    caller: &FnModel,
    args: Option<usize>,
    callee: &Callee,
) -> Vec<usize> {
    match callee {
        Callee::Method { name, recv } => {
            let Some(pool) = idx.methods.get(name) else { return Vec::new() };
            let evidence = receiver_evidence(ws, idx, fi, caller, recv);
            pool.iter()
                .copied()
                .filter(|&id| {
                    let (tfi, txi) = fn_loc(ws, id);
                    let f = &ws.files[tfi].fns[txi];
                    if !arity_ok(f, args) {
                        return false;
                    }
                    match &evidence {
                        Some(types) => {
                            f.self_ty.as_ref().map(|t| types.contains(t)).unwrap_or(false)
                                || f.trait_name
                                    .as_ref()
                                    .map(|t| types.contains(t))
                                    .unwrap_or(false)
                        }
                        // No evidence: same-file candidates only.
                        None => tfi == fi,
                    }
                })
                .collect()
        }
        Callee::Free(segs) => match segs.as_slice() {
            [] => Vec::new(),
            [name] => {
                // A closure variable called as `f(x)` is not a free fn.
                if caller.params.iter().any(|(n, _)| n == name)
                    || caller.locals.iter().any(|(n, _)| n == name)
                {
                    return Vec::new();
                }
                let Some(pool) = idx.free.get(name) else { return Vec::new() };
                let same_file: Vec<usize> = pool
                    .iter()
                    .copied()
                    .filter(|&id| fn_loc(ws, id).0 == fi && arity_ok(model_of(ws, id), args))
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                pool.iter().copied().filter(|&id| arity_ok(model_of(ws, id), args)).collect()
            }
            path => {
                let name = path[path.len() - 1].clone();
                let mut qual = path[path.len() - 2].clone();
                if qual == "Self" {
                    if let Some(t) = &caller.self_ty {
                        qual = t.clone();
                    }
                }
                // Resolve `use … as alias` renames on the qualifier.
                if let Some((_, full)) = ws.files[fi].uses.iter().find(|(k, _)| *k == qual) {
                    if let Some(real) = full.last() {
                        qual = real.clone();
                    }
                }
                // Primitive qualifiers (`u64::from`, `f32::max`) are
                // type paths, not modules — nothing in the workspace
                // implements on primitives, so they are external.
                const PRIMITIVES: &[&str] = &[
                    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
                    "i128", "isize", "f32", "f64", "bool", "char", "str",
                ];
                if PRIMITIVES.contains(&qual.as_str()) {
                    return Vec::new();
                }
                if qual.chars().next().map(char::is_uppercase).unwrap_or(false) {
                    let mut out: Vec<usize> = Vec::new();
                    for key in [&idx.impls, &idx.traits] {
                        if let Some(ids) = key.get(&(qual.clone(), name.clone())) {
                            out.extend(
                                ids.iter().copied().filter(|&id| arity_ok(model_of(ws, id), args)),
                            );
                        }
                    }
                    out
                } else {
                    // `module::fn`: prefer fns in files under that
                    // module. Crate-qualified calls follow the
                    // workspace convention `rpr_xyz` → `crates/xyz/`.
                    let Some(pool) = idx.free.get(&name) else { return Vec::new() };
                    let crate_dir = qual.strip_prefix("rpr_").map(|c| format!("crates/{c}/"));
                    let scoped: Vec<usize> = pool
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let p = &ws.files[fn_loc(ws, id).0].path;
                            (p.contains(&format!("/{qual}/"))
                                || p.ends_with(&format!("/{qual}.rs"))
                                || *p == format!("{qual}.rs")
                                || p.starts_with(&format!("{qual}/"))
                                || crate_dir.as_deref().map(|d| p.starts_with(d)).unwrap_or(false))
                                && arity_ok(model_of(ws, id), args)
                        })
                        .collect();
                    // No matching workspace module → std / external
                    // (`mem::swap`, `thread::sleep`): no edge, rather
                    // than a false link to every same-named free fn.
                    scoped
                }
            }
        },
    }
}

fn fn_loc(ws: &Workspace, id: usize) -> (usize, usize) {
    // Recompute the flat index lazily: ids are assigned in file order.
    let mut id = id;
    for (fi, file) in ws.files.iter().enumerate() {
        if id < file.fns.len() {
            return (fi, id);
        }
        id -= file.fns.len();
    }
    panic!("fn id out of range");
}

fn model_of(ws: &Workspace, id: usize) -> &FnModel {
    let (fi, xi) = fn_loc(ws, id);
    &ws.files[fi].fns[xi]
}

/// Convenience for lints: run a full load+build and discard the
/// intermediate workspace lifetime by returning findings directly.
pub fn with_graph<T>(
    root: &Path,
    policy: &Policy,
    f: impl FnOnce(&Graph<'_>) -> T,
) -> std::io::Result<T> {
    let ws = Workspace::load(root, policy)?;
    let g = Graph::build(&ws);
    Ok(f(&g))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::parse(
            &files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect::<Vec<_>>(),
        )
    }

    fn edge_names(g: &Graph<'_>, from: &str) -> Vec<String> {
        let id = (0..g.fns.len()).find(|&i| g.model(i).name == from).unwrap();
        let mut v: Vec<String> =
            g.edges[id].iter().map(|e| g.model(e.to).name.clone()).collect();
        v.sort();
        v
    }

    #[test]
    fn free_and_path_calls_resolve_across_files() {
        let w = ws(&[
            ("a.rs", "pub fn entry() { helper(); other::deep(1); Pool::make(); }"),
            ("other.rs", "pub fn deep(x: u32) {}"),
            ("pool.rs", "pub struct Pool; impl Pool { pub fn make() -> Pool { Pool } }"),
            ("unrelated.rs", "pub fn deep(x: u32, y: u32) {}"),
        ]);
        let g = Graph::build(&w);
        // Arity separates the two `deep`s; `Pool::make` is an impl
        // hit; `helper` has no definition anywhere → no edge.
        assert_eq!(edge_names(&g, "entry"), vec!["deep", "make"]);
        let deep_id = g.edges[0].iter().find(|e| g.model(e.to).name == "deep").unwrap().to;
        assert_eq!(g.path_of(deep_id), "other.rs");
    }

    #[test]
    fn method_calls_follow_field_and_param_evidence() {
        let w = ws(&[
            (
                "serve.rs",
                "pub struct Entry { queue: Arc<StageQueue<u8>> }\n\
                 impl Server { fn go(&self, e: Entry) { e.queue.push(1); } }\n\
                 impl Server { fn direct(&self, q: StageQueue<u8>) { q.pop(); } }",
            ),
            (
                "queue.rs",
                "pub struct StageQueue<T> { x: T }\n\
                 impl<T> StageQueue<T> { pub fn push(&self, v: T) {} pub fn pop(&self) {} }",
            ),
            ("vecish.rs", "pub struct Other; impl Other { pub fn push(&self, v: u8) {} }"),
        ]);
        let g = Graph::build(&w);
        // Field evidence names StageQueue, not Other.
        let go_edges = edge_names(&g, "go");
        assert_eq!(go_edges, vec!["push"]);
        let push_id = {
            let id = (0..g.fns.len()).find(|&i| g.model(i).name == "go").unwrap();
            g.edges[id][0].to
        };
        assert_eq!(g.path_of(push_id), "queue.rs");
        assert_eq!(edge_names(&g, "direct"), vec!["pop"]);
    }

    #[test]
    fn self_calls_resolve_to_own_impl_and_unhinted_stay_file_local() {
        let w = ws(&[
            (
                "a.rs",
                "impl S { fn outer(&self) { self.inner(); mystery().work(); } \
                          fn inner(&self) {} fn work(&self) {} }",
            ),
            ("b.rs", "impl T { pub fn work(&self) {} pub fn inner(&self) {} }"),
        ]);
        let g = Graph::build(&w);
        let outer = edge_names(&g, "outer");
        // `self.inner()` → S::inner only; `mystery().work()` has no
        // evidence → file-local candidates only (S::work).
        assert_eq!(outer, vec!["inner", "work"]);
        let id = (0..g.fns.len()).find(|&i| g.model(i).name == "outer").unwrap();
        for e in &g.edges[id] {
            assert_eq!(g.path_of(e.to), "a.rs");
        }
    }

    #[test]
    fn typed_locals_give_cross_file_evidence() {
        let w = ws(&[
            ("a.rs", "fn f() { let q = StageQueue::new(); q.push(1); }"),
            (
                "q.rs",
                "pub struct StageQueue; impl StageQueue { pub fn new() -> Self { StageQueue } \
                 pub fn push(&self, v: u8) {} }",
            ),
        ]);
        let g = Graph::build(&w);
        assert_eq!(edge_names(&g, "f"), vec!["new", "push"]);
    }

    #[test]
    fn struct_pattern_bindings_take_their_field_types() {
        // Without field evidence `counts.push` would fall back to the
        // same-file `Streaming::push`, and `buffers.get` would find no
        // cross-file edge at all.
        let w = ws(&[
            (
                "enc.rs",
                "pub struct Enc { counts: Vec<u32>, pool: Pool }\n\
                 impl Enc { pub fn encode(&mut self) { \
                 let Enc { counts, pool: buffers } = self; counts.push(1); buffers.get(); } }\n\
                 pub struct Streaming; impl Streaming { pub fn push(&mut self, v: u8) {} }",
            ),
            ("pool.rs", "pub struct Pool; impl Pool { pub fn get(&self) {} }"),
        ]);
        let g = Graph::build(&w);
        assert_eq!(edge_names(&g, "encode"), vec!["get"]);
        let id = (0..g.fns.len()).find(|&i| g.model(i).name == "encode").unwrap();
        assert_eq!(g.path_of(g.edges[id][0].to), "pool.rs");
    }

    #[test]
    fn trait_impls_resolve_for_dyn_receivers() {
        let w = ws(&[
            (
                "a.rs",
                "pub struct Holder { sink: Box<dyn Sink> }\n\
                 impl Holder { fn f(&self) { self.sink.emit(1); } }",
            ),
            ("t.rs", "pub trait Sink { fn emit(&self, v: u8); }"),
            ("i1.rs", "impl Sink for FileSink { fn emit(&self, v: u8) { blocking_write(); } }"),
            ("i2.rs", "impl Sink for NullSink { fn emit(&self, v: u8) {} }"),
        ]);
        let g = Graph::build(&w);
        // Over-approximation: both implementors are edges.
        let id = (0..g.fns.len()).find(|&i| g.model(i).name == "f").unwrap();
        let mut files: Vec<&str> = g.edges[id].iter().map(|e| g.path_of(e.to)).collect();
        files.sort();
        assert_eq!(files, vec!["i1.rs", "i2.rs"]);
    }

    /// Documented resolution limit (DESIGN.md §4j): a closure passed
    /// as a parameter is opaque — `f()` on a closure param produces no
    /// edge (the closure's own body is analyzed at its definition
    /// site, inside the defining fn, so its sites are still seen).
    #[test]
    fn closure_params_are_opaque_but_their_bodies_are_not() {
        let w = ws(&[
            (
                "a.rs",
                "pub fn driver() { each(|x| helper(x)); }\n\
                 pub fn each(f: impl FnMut(u8)) { f(1); }\n\
                 pub fn helper(x: u8) {}",
            ),
        ]);
        let g = Graph::build(&w);
        // `f(1)` inside `each` resolves to nothing: `f` is a param.
        assert_eq!(edge_names(&g, "each"), Vec::<String>::new());
        // The closure body's `helper(x)` call is attributed to the
        // defining fn, so driver still links to helper (and to each).
        assert_eq!(edge_names(&g, "driver"), vec!["each", "helper"]);
    }

    /// Documented resolution limit (DESIGN.md §4j): generic
    /// trait-bound receivers carry no type evidence the model tracks
    /// (`impl Trait` params record the trait name), so the call fans
    /// out to every implementor — over-approximation, never a drop.
    #[test]
    fn generic_trait_bound_receivers_fan_out_to_every_impl() {
        let w = ws(&[
            ("a.rs", "pub fn run(s: &mut impl Sink) { s.emit(1); }"),
            ("t.rs", "pub trait Sink { fn emit(&self, v: u8); }"),
            ("i1.rs", "impl Sink for FileSink { fn emit(&self, v: u8) {} }"),
            ("i2.rs", "impl Sink for NullSink { fn emit(&self, v: u8) {} }"),
        ]);
        let g = Graph::build(&w);
        let id = (0..g.fns.len()).find(|&i| g.model(i).name == "run").unwrap();
        let mut files: Vec<&str> = g.edges[id].iter().map(|e| g.path_of(e.to)).collect();
        files.sort();
        assert_eq!(files, vec!["i1.rs", "i2.rs"]);
    }

    #[test]
    fn entry_specs_resolve_typed_and_free() {
        let w = ws(&[(
            "crates/serve/src/server.rs",
            "impl Server { pub fn step(&self) {} } pub fn boot() {}",
        )]);
        let g = Graph::build(&w);
        assert_eq!(g.resolve_entry("crates/serve/src/server.rs::Server::step").len(), 1);
        assert_eq!(g.resolve_entry("crates/serve/src/server.rs::boot").len(), 1);
        assert_eq!(g.resolve_entry("crates/serve/src/server.rs::Server::missing").len(), 0);
        assert_eq!(g.resolve_entry("nonsense").len(), 0);
    }

    #[test]
    fn use_aliases_requalify_path_calls() {
        let w = ws(&[
            ("a.rs", "use q::StageQueue as SQ;\nfn f() { SQ::new(); }"),
            ("q.rs", "pub struct StageQueue; impl StageQueue { pub fn new() -> Self { StageQueue } }"),
        ]);
        let g = Graph::build(&w);
        assert_eq!(edge_names(&g, "f"), vec!["new"]);
    }
}
