//! The project-specific lints.
//!
//! Each lint carries a machine-readable ID (`RPR001`…), a kebab-case
//! name (the spelling waivers use), and a fix-it hint. Findings on a
//! line covered by a waiver comment —
//!
//! ```text
//! // rpr-check: allow(<lint-name>): <justification>
//! ```
//!
//! — are reported as waived and do not fail the gate. A waiver must
//! carry a non-empty justification; a bare `allow(...)` is itself a
//! finding. Standalone waiver comments cover the following line;
//! trailing ones cover their own line.
//!
//! Code inside `#[test]` / `#[cfg(test)]` items is exempt from every
//! lint: panicking asserts are the point of tests, and test clocks are
//! harmless. The detection is token-level (an attribute containing the
//! ident `test` and not `not`, followed by one item).

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::policy::Policy;
use serde::Serialize;

/// One lint's identity and documentation.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable machine-readable ID.
    pub id: &'static str,
    /// Kebab-case name, used in waivers and policy tables.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Fix-it hint attached to every finding.
    pub hint: &'static str,
}

/// Every lint rpr-check enforces.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "RPR001",
        name: "panic-surface",
        description: "no unwrap/expect/panicking macros/indexing in parse & decode surfaces",
        hint: "return a typed WireError/CoreError (or use .get()/try_into); \
               if the panic is provably unreachable, waive with justification",
    },
    LintInfo {
        id: "RPR002",
        name: "truncating-cast",
        description: "no unguarded truncating `as` casts in bitstream/offset arithmetic",
        hint: "use try_from with a typed error for the overflow edge; \
               widening or bounds-checked casts may be waived with justification",
    },
    LintInfo {
        id: "RPR003",
        name: "raw-clock",
        description: "no raw Instant::now/SystemTime reads outside clock/bench modules",
        hint: "route time through the owning module's clock (rpr-trace epoch, \
               stage timers) so simulated time stays injectable",
    },
    LintInfo {
        id: "RPR004",
        name: "unsafe-block",
        description: "no `unsafe` outside the policy allowlist",
        hint: "this workspace is 100% safe Rust; add the file to the policy \
               allowlist only with a Miri-covered justification",
    },
    LintInfo {
        id: "RPR005",
        name: "atomic-ordering",
        description: "atomic Ordering usage pinned to the documented policy (no stray SeqCst)",
        hint: "the trace gate is Relaxed-load/Release-store by design (DESIGN.md 4e); \
               stronger orderings need a policy pin or a waiver",
    },
    // Graph lints (DESIGN.md §4j): cross-file, run over the workspace
    // call graph rather than per-file token streams.
    LintInfo {
        id: "RPR006",
        name: "panic-reach",
        description: "entry points in the panic surface must be transitively panic-free",
        hint: "make the reachable callee fallible (typed error) or break the edge: \
               waive the call line or the panic site with a justification",
    },
    LintInfo {
        id: "RPR007",
        name: "lock-order",
        description: "lock acquisitions across serve/stream/trace must form no ordering cycle",
        hint: "acquire locks in one global order (or drop the first guard before \
               taking the second); waive an acquisition only with a proof it cannot deadlock",
    },
    LintInfo {
        id: "RPR008",
        name: "hot-path-alloc",
        description: "no allocating call reachable from chunked kernels / BufferPool steady state",
        hint: "take buffers from the BufferPool (DESIGN.md 4g) instead of allocating; \
               cold-path or capacity-amortized allocations may be waived with justification",
    },
    LintInfo {
        id: "RPR009",
        name: "event-loop-blocking",
        description: "no blocking call reachable from the Server's non-blocking event loop",
        hint: "use the try_/poll_ variant (try_push, try_pop, non-blocking I/O); \
               a bounded, measured wait may be waived with justification",
    },
];

/// Looks up a lint by kebab-case name.
pub fn lint_by_name(name: &str) -> Option<&'static LintInfo> {
    LINTS.iter().find(|l| l.name == name)
}

/// One reported violation.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Machine-readable lint ID (`RPR001`…).
    pub id: &'static str,
    /// Kebab-case lint name.
    pub lint: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
    /// True when a waiver comment covers the line.
    pub waived: bool,
    /// The waiver's justification, when waived.
    pub waiver_reason: Option<String>,
}

/// True when `path` (repo-relative, `/`-separated) matches a policy
/// entry: entries ending in `/` are directory prefixes (matched at the
/// path start or any segment boundary), others are exact files.
pub fn path_matches(path: &str, entry: &str) -> bool {
    if entry.ends_with('/') {
        path.starts_with(entry) || path.contains(&format!("/{entry}"))
    } else {
        path == entry || path.ends_with(&format!("/{entry}"))
    }
}

/// True when `path` matches any entry.
pub(crate) fn in_set(path: &str, entries: &[String]) -> bool {
    entries.iter().any(|e| path_matches(path, e))
}

/// One finding for each entry of the scope list `key` that matches
/// none of `paths`: a misspelled or moved scope would otherwise cover
/// nothing while the gate stays green.
pub(crate) fn unmatched_scope_entries(
    lint: &'static LintInfo,
    key: &str,
    policy: &Policy,
    paths: &[&str],
) -> Vec<Finding> {
    policy
        .str_array(key)
        .iter()
        .filter(|e| !paths.iter().any(|p| path_matches(p, e)))
        .map(|e| {
            finding(
                lint,
                e,
                1,
                format!(
                    "`{key}` entry `{e}` matches no workspace file — fix its spelling, \
                     or follow the file's rename or move"
                ),
            )
        })
        .collect()
}

/// A waiver parsed from a comment.
#[derive(Debug, Clone)]
pub(crate) struct Waiver {
    pub(crate) lint: String,
    pub(crate) reason: String,
    /// Lines this waiver covers.
    pub(crate) lines: Vec<usize>,
}

/// Extracts waivers (and malformed-waiver findings) from comments.
pub(crate) fn collect_waivers(
    comments: &[Comment],
    file: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/** */`, `/*! */`) describe the
        // waiver syntax; only plain comments can *be* waivers.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(rest) = c.text.split("rpr-check:").nth(1) else { continue };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            findings.push(Finding {
                id: "RPR000",
                lint: "waiver-syntax",
                file: file.to_string(),
                line: c.line,
                message: format!("malformed rpr-check directive: `{}`", c.text.trim()),
                hint: "write `rpr-check: allow(<lint-name>): <justification>`",
                waived: false,
                waiver_reason: None,
            });
            continue;
        };
        let Some((name, tail)) = rest.split_once(')') else {
            findings.push(malformed(file, c.line, "missing closing `)` in allow(...)"));
            continue;
        };
        let name = name.trim().to_string();
        if lint_by_name(&name).is_none() {
            findings.push(malformed(file, c.line, &format!("unknown lint `{name}` in waiver")));
            continue;
        }
        let reason = tail.trim_start().trim_start_matches(':').trim().to_string();
        if reason.is_empty() {
            findings.push(malformed(
                file,
                c.line,
                &format!("waiver for `{name}` carries no justification"),
            ));
            continue;
        }
        let mut lines = vec![c.line];
        if c.standalone {
            lines.push(c.line + 1);
        }
        waivers.push(Waiver { lint: name, reason, lines });
    }
    waivers
}

fn malformed(file: &str, line: usize, msg: &str) -> Finding {
    Finding {
        id: "RPR000",
        lint: "waiver-syntax",
        file: file.to_string(),
        line,
        message: msg.to_string(),
        hint: "write `rpr-check: allow(<lint-name>): <justification>`",
        waived: false,
        waiver_reason: None,
    }
}

/// Computes half-open token-index ranges covered by test items
/// (`#[test]` / `#[cfg(test)]` attributes and the item that follows).
pub(crate) fn test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct('#') && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('[')) {
            // Collect the attribute body.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut has_test = false;
            let mut has_not = false;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident(s) if s == "test" => has_test = true,
                    TokKind::Ident(s) if s == "not" => has_not = true,
                    _ => {}
                }
                j += 1;
            }
            if has_test && !has_not {
                // Skip any further attributes, then the item itself.
                let start = i;
                let mut k = j + 1;
                while k < toks.len()
                    && toks[k].kind == TokKind::Punct('#')
                    && matches!(toks.get(k + 1), Some(t) if t.kind == TokKind::Punct('['))
                {
                    let mut d = 0usize;
                    k += 1;
                    while k < toks.len() {
                        match toks[k].kind {
                            TokKind::Punct('[') => d += 1,
                            TokKind::Punct(']') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // The item ends at the matching `}` of its first brace
                // block, or at a top-level `;`.
                let mut braces = 0usize;
                let mut seen_brace = false;
                while k < toks.len() {
                    match toks[k].kind {
                        TokKind::Punct('{') => {
                            braces += 1;
                            seen_brace = true;
                        }
                        TokKind::Punct('}') => {
                            braces = braces.saturating_sub(1);
                            if seen_brace && braces == 0 {
                                k += 1;
                                break;
                            }
                        }
                        TokKind::Punct(';') if !seen_brace => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                ranges.push((start, k));
                i = k;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Keywords that may legitimately precede `[` without forming an index
/// expression (`for [a, b] in …`, `impl Trait for [u8]`).
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static",
    "struct", "trait", "type", "unsafe", "use", "where", "while", "yield", "await",
];

/// Macros whose invocation panics at runtime.
const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Integer types a cast can truncate into. `usize` is included: the
/// wire format's lengths are `u64`, and `u64 as usize` truncates on
/// 32-bit targets.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize"];

/// Atomic `Ordering` variants (to tell them apart from `cmp::Ordering`).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Runs every applicable lint over one file.
///
/// `rel_path` must be repo-relative with `/` separators; scoping and
/// allowlists match against it.
pub fn check_file(rel_path: &str, src: &str, policy: &Policy) -> Vec<Finding> {
    let lexed = lex(src);
    let mut findings = Vec::new();
    let waivers = collect_waivers(&lexed.comments, rel_path, &mut findings);
    let skip = test_ranges(&lexed.toks);
    let skipped = |idx: usize| skip.iter().any(|&(a, b)| idx >= a && idx < b);
    let toks = &lexed.toks;

    let mut raw: Vec<Finding> = Vec::new();

    // RPR001 panic-surface (scoped by include list).
    if in_set(rel_path, &policy.str_array("lints.panic_surface.include")) {
        let lint = &LINTS[0];
        for i in 0..toks.len() {
            if skipped(i) {
                continue;
            }
            match &toks[i].kind {
                TokKind::Ident(s) if (s == "unwrap" || s == "expect") => {
                    let after_dot =
                        i > 0 && toks[i - 1].kind == TokKind::Punct('.') && !skipped(i - 1);
                    let called =
                        matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('('));
                    if after_dot && called {
                        raw.push(finding(lint, rel_path, toks[i].line, format!(".{s}() may panic")));
                    }
                }
                TokKind::Ident(s) if PANIC_MACROS.contains(&s.as_str()) => {
                    if matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('!')) {
                        raw.push(finding(
                            lint,
                            rel_path,
                            toks[i].line,
                            format!("{s}! panics at runtime"),
                        ));
                    }
                }
                TokKind::Punct('[') if i > 0 && !skipped(i - 1) => {
                    let indexes = match &toks[i - 1].kind {
                        TokKind::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        _ => false,
                    };
                    if indexes {
                        raw.push(finding(
                            lint,
                            rel_path,
                            toks[i].line,
                            "slice indexing/slicing may panic out of bounds".to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
    }

    // RPR002 truncating-cast (scoped by include list).
    if in_set(rel_path, &policy.str_array("lints.truncating_cast.include")) {
        let lint = &LINTS[1];
        for i in 0..toks.len().saturating_sub(1) {
            if skipped(i) {
                continue;
            }
            if toks[i].kind == TokKind::Ident("as".into()) {
                if let TokKind::Ident(ty) = &toks[i + 1].kind {
                    if NARROW_INTS.contains(&ty.as_str()) {
                        raw.push(finding(
                            lint,
                            rel_path,
                            toks[i].line,
                            format!("`as {ty}` silently truncates out-of-range values"),
                        ));
                    }
                }
            }
        }
    }

    // RPR003 raw-clock (global minus allowlist).
    if !in_set(rel_path, &policy.str_array("lints.raw_clock.allow")) {
        let lint = &LINTS[2];
        for i in 0..toks.len() {
            if skipped(i) {
                continue;
            }
            let TokKind::Ident(s) = &toks[i].kind else { continue };
            if s != "Instant" && s != "SystemTime" {
                continue;
            }
            let now = toks.get(i + 1).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                && toks.get(i + 2).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                && matches!(toks.get(i + 3), Some(t) if t.kind == TokKind::Ident("now".into()));
            if now {
                raw.push(finding(
                    lint,
                    rel_path,
                    toks[i].line,
                    format!("raw {s}::now() outside a clock/bench module"),
                ));
            }
        }
    }

    // RPR004 unsafe-block (global minus allowlist).
    if !in_set(rel_path, &policy.str_array("lints.unsafe_block.allow")) {
        let lint = &LINTS[3];
        for (i, t) in toks.iter().enumerate() {
            if skipped(i) {
                continue;
            }
            if t.kind == TokKind::Ident("unsafe".into()) {
                raw.push(finding(lint, rel_path, t.line, "`unsafe` outside the allowlist".into()));
            }
        }
    }

    // RPR005 atomic-ordering: SeqCst banned everywhere; files with a
    // pinned set may only use the orderings that set lists.
    {
        let lint = &LINTS[4];
        let pinned = policy.str_array(&format!("lints.atomic_ordering.pinned.{rel_path}.allowed"));
        for i in 0..toks.len() {
            if skipped(i) {
                continue;
            }
            let TokKind::Ident(s) = &toks[i].kind else { continue };
            if s != "Ordering" {
                continue;
            }
            let variant = if toks.get(i + 1).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                && toks.get(i + 2).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
            {
                match toks.get(i + 3).map(|t| &t.kind) {
                    Some(TokKind::Ident(v)) if ATOMIC_ORDERINGS.contains(&v.as_str()) => {
                        Some(v.clone())
                    }
                    _ => None,
                }
            } else {
                None
            };
            let Some(variant) = variant else { continue };
            if variant == "SeqCst" {
                raw.push(finding(
                    lint,
                    rel_path,
                    toks[i].line,
                    "Ordering::SeqCst is banned by the atomics policy".into(),
                ));
            } else if !pinned.is_empty() && !pinned.contains(&variant) {
                raw.push(finding(
                    lint,
                    rel_path,
                    toks[i].line,
                    format!(
                        "Ordering::{variant} is outside this file's pinned set ({})",
                        pinned.join(", ")
                    ),
                ));
            }
        }
    }

    // Apply waivers.
    for mut f in raw {
        if let Some(w) = waivers
            .iter()
            .find(|w| w.lint == f.lint && w.lines.contains(&f.line))
        {
            f.waived = true;
            f.waiver_reason = Some(w.reason.clone());
        }
        findings.push(f);
    }
    findings.sort_by(|a, b| (a.line, a.id).cmp(&(b.line, b.id)));
    findings
}

pub(crate) fn finding(lint: &LintInfo, file: &str, line: usize, message: String) -> Finding {
    Finding {
        id: lint.id,
        lint: lint.name,
        file: file.to_string(),
        line,
        message,
        hint: lint.hint,
        waived: false,
        waiver_reason: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy_scoping(file: &str) -> Policy {
        Policy::parse(&format!(
            "[lints.panic_surface]\ninclude = [\"{file}\"]\n\
             [lints.truncating_cast]\ninclude = [\"{file}\"]\n"
        ))
        .unwrap()
    }

    fn unwaived(findings: &[Finding]) -> Vec<&Finding> {
        findings.iter().filter(|f| !f.waived).collect()
    }

    #[test]
    fn unwrap_and_indexing_fire_in_scope_only() {
        let src = "fn f(v: &[u8]) -> u8 { v.first().unwrap(); v[0] }";
        let p = policy_scoping("a.rs");
        let hits = check_file("a.rs", src, &p);
        assert_eq!(hits.iter().filter(|f| f.id == "RPR001").count(), 2);
        let out_of_scope = check_file("b.rs", src, &p);
        assert!(out_of_scope.iter().all(|f| f.id != "RPR001"));
    }

    #[test]
    fn doc_comments_describing_waiver_syntax_are_not_waivers() {
        let src = "//! Waive with `// rpr-check: allow(<lint-name>): <why>`.\n\
                   /// Same syntax: rpr-check: allow(panic-surface): docs\n\
                   fn f(v: &[u8]) -> u8 { v[0] }";
        let hits = check_file("a.rs", src, &policy_scoping("a.rs"));
        assert!(hits.iter().all(|f| f.id != "RPR000"), "{hits:?}");
        assert_eq!(unwaived(&hits).len(), 1, "doc comment must not waive the index");
    }

    #[test]
    fn test_items_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn g(v: &[u8]) { v[0]; panic!(); }\n}\n\
                   fn h(v: &[u8]) { v.len(); }";
        let hits = check_file("a.rs", src, &policy_scoping("a.rs"));
        assert!(unwaived(&hits).is_empty(), "{hits:?}");
    }

    #[test]
    fn waiver_with_justification_downgrades() {
        let src = "fn f(v: &[u8]) -> u8 {\n\
                   // rpr-check: allow(panic-surface): length checked above\n\
                   v[0]\n}";
        let hits = check_file("a.rs", src, &policy_scoping("a.rs"));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].waived);
        assert_eq!(hits[0].waiver_reason.as_deref(), Some("length checked above"));
    }

    #[test]
    fn waiver_without_justification_is_a_finding() {
        let src = "// rpr-check: allow(panic-surface)\nfn f() {}";
        let hits = check_file("a.rs", src, &Policy::default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "RPR000");
    }

    #[test]
    fn truncating_casts_fire_and_u64_is_exempt() {
        let src = "fn f(x: u64) -> (u32, u64) { (x as u32, x as u64) }";
        let hits = check_file("a.rs", src, &policy_scoping("a.rs"));
        let rpr002: Vec<_> = hits.iter().filter(|f| f.id == "RPR002").collect();
        assert_eq!(rpr002.len(), 1);
        assert!(rpr002[0].message.contains("as u32"));
    }

    #[test]
    fn seqcst_is_banned_and_pins_are_enforced() {
        let p = Policy::parse(
            "[lints.atomic_ordering.pinned.\"gate.rs\"]\nallowed = [\"Relaxed\", \"Release\"]\n",
        )
        .unwrap();
        let src = "fn f() { a.load(Ordering::SeqCst); b.load(Ordering::Acquire); }";
        let hits = check_file("gate.rs", src, &p);
        assert_eq!(hits.iter().filter(|f| f.id == "RPR005").count(), 2);
        // Acquire is fine in an unpinned file; SeqCst never is.
        let hits = check_file("other.rs", src, &p);
        assert_eq!(hits.iter().filter(|f| f.id == "RPR005").count(), 1);
    }

    #[test]
    fn cmp_ordering_is_not_confused_with_atomics() {
        let src = "fn f() { match c { Ordering::Less => {} Ordering::Greater => {} } }";
        let hits = check_file("a.rs", src, &Policy::default());
        assert!(hits.is_empty());
    }

    #[test]
    fn raw_clock_and_unsafe_respect_allowlists() {
        let p = Policy::parse(
            "[lints.raw_clock]\nallow = [\"clock.rs\"]\n[lints.unsafe_block]\nallow = [\"ffi.rs\"]\n",
        )
        .unwrap();
        let src = "fn f() { let t = Instant::now(); unsafe { } }";
        assert_eq!(check_file("x.rs", src, &p).len(), 2);
        assert_eq!(check_file("clock.rs", src, &p).len(), 1);
        assert_eq!(check_file("ffi.rs", src, &p).len(), 1);
    }

    #[test]
    fn attribute_brackets_and_array_types_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\n\
                   fn f() -> Vec<u8> { vec![1, 2] }\nimpl S for [u8] {}";
        let hits = check_file("a.rs", src, &policy_scoping("a.rs"));
        assert!(unwaived(&hits).iter().all(|f| f.id != "RPR001"), "{hits:?}");
    }

    #[test]
    fn path_matching_semantics() {
        assert!(path_matches("crates/wire/src/frame.rs", "crates/wire/src/"));
        assert!(path_matches("crates/wire/src/frame.rs", "crates/wire/src/frame.rs"));
        assert!(!path_matches("crates/wire/src/frame.rs", "crates/core/src/"));
        assert!(!path_matches("crates/wire/srcx/f.rs", "crates/wire/src/"));
    }
}
