//! # rpr-check — the workspace static-analysis gate
//!
//! Project-specific invariant lints the stock toolchain cannot
//! express, run as `cargo run -p rpr-check -- --workspace` and as a
//! blocking CI job:
//!
//! | ID     | name            | invariant                                              |
//! |--------|-----------------|--------------------------------------------------------|
//! | RPR001 | panic-surface   | no unwrap/expect/panicking macros/indexing in the parse & decode surfaces |
//! | RPR002 | truncating-cast | no unguarded narrowing `as` casts in bitstream/offset arithmetic |
//! | RPR003 | raw-clock       | no raw `Instant::now`/`SystemTime::now` outside clock/bench modules |
//! | RPR004 | unsafe-block    | no `unsafe` outside the policy allowlist               |
//! | RPR005 | atomic-ordering | orderings pinned to the documented policy, no stray SeqCst |
//! | RPR006 | panic-reach     | policy entry points transitively panic-free across the call graph |
//! | RPR007 | lock-order      | the workspace lock-acquisition graph stays acyclic     |
//! | RPR008 | hot-path-alloc  | nothing reachable from kernels / pool recycle allocates |
//! | RPR009 | event-loop-blocking | nothing reachable from the server event loop blocks |
//!
//! RPR001–RPR005 are single-file token lints; RPR006–RPR009 are
//! *graph lints*: [`syntax`] parses every file into an item model,
//! [`callgraph`] links call sites into a workspace call graph, and
//! [`reach`] / [`lock_order`] walk it. Construction and soundness
//! caveats live in DESIGN.md §4j.
//!
//! The lint scopes, allowlists, and dynamic-analysis coverage pins
//! live in `ci/check_policy.toml` ([`policy`]). Violations that are
//! correct by construction carry inline waivers:
//!
//! ```text
//! // rpr-check: allow(<lint-name>): <justification>
//! ```
//!
//! The workspace vendors dependencies offline (no `syn`), so the
//! analysis walks a token stream from the self-contained [`lexer`]
//! rather than an AST; every lint is pinned live by the known-bad /
//! known-good fixture pairs under `fixtures/` ([`selftest`]).

pub mod callgraph;
pub mod event_loop;
pub mod hot_alloc;
pub mod lexer;
pub mod lints;
pub mod lock_order;
pub mod panic_reach;
pub mod policy;
pub mod reach;
pub mod report;
pub mod selftest;
pub mod syntax;
pub mod walk;

pub use lints::{check_file, lint_by_name, Finding, LintInfo, LINTS};
pub use policy::{Policy, PolicyError, Value};
pub use report::{render_json, render_lints, render_sarif, render_text, summarize};

use callgraph::{Graph, Workspace};
use std::path::Path;

/// The graph lints (RPR006–RPR009), in ID order.
pub const GRAPH_LINT_IDS: &[&str] = &["RPR006", "RPR007", "RPR008", "RPR009"];

/// Runs the selected graph lints (`ids` ⊆ [`GRAPH_LINT_IDS`]) over the
/// workspace under `root`. Returns all findings (waived included) plus
/// the scanned-file count.
///
/// # Errors
///
/// Returns the first I/O failure while walking or reading sources.
pub fn check_graph(
    root: &Path,
    policy: &Policy,
    ids: &[&str],
) -> std::io::Result<(Vec<Finding>, usize)> {
    let ws = Workspace::load(root, policy)?;
    let scanned = ws.files.len();
    let graph = Graph::build(&ws);
    Ok((run_graph_lints(&graph, policy, ids), scanned))
}

/// Runs the selected graph lints over an already-built graph (used by
/// [`selftest`] fixtures and unit tests).
pub fn run_graph_lints(graph: &Graph<'_>, policy: &Policy, ids: &[&str]) -> Vec<Finding> {
    let mut findings = Vec::new();
    if ids.contains(&"RPR006") {
        findings.extend(panic_reach::run(graph, policy));
    }
    if ids.contains(&"RPR007") {
        findings.extend(lock_order::run(graph, policy));
    }
    if ids.contains(&"RPR008") {
        findings.extend(hot_alloc::run(graph, policy));
    }
    if ids.contains(&"RPR009") {
        findings.extend(event_loop::run(graph, policy));
    }
    findings
}

/// Runs the full workspace scan: loads files, applies every lint,
/// returns all findings (waived included) plus the scanned-file count.
///
/// # Errors
///
/// Returns the first I/O failure while walking or reading sources.
pub fn check_workspace(root: &Path, policy: &Policy) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = walk::collect_rust_files(root, policy)?;
    let paths: Vec<&str> = files.iter().map(String::as_str).collect();
    let mut findings = token_scope_findings(&paths, policy);
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        findings.extend(check_file(rel, &src, policy));
    }
    Ok((findings, files.len()))
}

/// The token lints' scope check: an `include` entry of RPR001 or
/// RPR002 that matches none of the scanned `paths` is a finding.
pub(crate) fn token_scope_findings(paths: &[&str], policy: &Policy) -> Vec<Finding> {
    [
        (&LINTS[0], "lints.panic_surface.include"),
        (&LINTS[1], "lints.truncating_cast.include"),
    ]
    .into_iter()
    .flat_map(|(lint, key)| lints::unmatched_scope_entries(lint, key, policy, paths))
    .collect()
}

/// Renders the pinned dynamic-analysis coverage for `tool`
/// (`dynamic.<tool>` in the policy) as `cargo test` argument lines,
/// one per required invocation. `tests` entries are `crate/target`
/// pairs refining the `crates` list; `extra_tests` name workspace-root
/// integration-test targets. Returns `None` when the policy pins
/// nothing for `tool` — CI treats that as a configuration error, so a
/// tool cannot silently drop out of the matrix.
pub fn dynamic_plan(policy: &Policy, tool: &str) -> Option<String> {
    let crates = policy.str_array(&format!("dynamic.{tool}.crates"));
    let tests = policy.str_array(&format!("dynamic.{tool}.tests"));
    let extra = policy.str_array(&format!("dynamic.{tool}.extra_tests"));
    if crates.is_empty() && tests.is_empty() && extra.is_empty() {
        return None;
    }
    let mut lines = Vec::new();
    if tests.is_empty() {
        for c in &crates {
            lines.push(format!("-p {c}"));
        }
    } else {
        for t in &tests {
            match t.split_once('/') {
                Some((krate, target)) => lines.push(format!("-p {krate} --test {target}")),
                None => lines.push(format!("--test {t}")),
            }
        }
    }
    for t in &extra {
        lines.push(format!("--test {t}"));
    }
    Some(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace itself must pass its own gate: this makes plain
    /// `cargo test -q` catch a violation even before the CI lint job
    /// runs the binary.
    #[test]
    fn workspace_is_clean_under_the_committed_policy() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/check sits two levels below the repo root");
        let policy_text = std::fs::read_to_string(root.join("ci/check_policy.toml"))
            .expect("ci/check_policy.toml exists");
        let policy = Policy::parse(&policy_text).expect("committed policy parses");
        let (findings, scanned) = check_workspace(root, &policy).expect("workspace scan");
        assert!(scanned > 50, "scan must cover the workspace, saw {scanned} files");
        let blocking: Vec<_> = findings.iter().filter(|f| !f.waived).collect();
        assert!(
            blocking.is_empty(),
            "workspace has unwaived findings:\n{}",
            render_text(&findings, scanned)
        );
    }

    /// The call-graph lints over the workspace, as CI's
    /// `--lint RPR006,RPR007,RPR008,RPR009` runs them — so a policy
    /// entry that stopped resolving (a renamed kernel) fails
    /// `cargo test` too.
    #[test]
    fn graph_lints_are_clean_under_the_committed_policy() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/check sits two levels below the repo root");
        let (findings, scanned) =
            check_graph(root, &committed_policy(), GRAPH_LINT_IDS).expect("graph scan");
        let blocking: Vec<_> = findings.iter().filter(|f| !f.waived).collect();
        assert!(
            blocking.is_empty(),
            "workspace has unwaived graph-lint findings:\n{}",
            render_text(&findings, scanned)
        );
    }

    fn committed_policy() -> Policy {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/check sits two levels below the repo root");
        let text = std::fs::read_to_string(root.join("ci/check_policy.toml"))
            .expect("ci/check_policy.toml exists");
        Policy::parse(&text).expect("committed policy parses")
    }

    /// The coverage floor: every entry the committed policy must keep.
    /// Widening a list is fine; removing any pinned crate, test, or
    /// lint scope shows up in [`ratchet_violations`].
    const RATCHET_FLOOR: &[(&str, &[&str])] = &[
        ("lints.panic_surface.include", &[
            "crates/wire/src/",
            "crates/core/src/decoder.rs",
            "crates/core/src/kernels.rs",
            "crates/core/src/pool.rs",
            "crates/testkit/src/wirefault.rs",
            "crates/testkit/src/fault.rs",
            "crates/testkit/src/servefault.rs",
            "crates/serve/src/protocol.rs",
            "crates/serve/src/session.rs",
            "crates/core/src/encoded.rs",
            "crates/core/src/metadata.rs",
        ]),
        ("lints.truncating_cast.include", &[
            "crates/wire/src/",
            "crates/core/src/decoder.rs",
            "crates/core/src/kernels.rs",
            "crates/core/src/pool.rs",
            "crates/serve/src/protocol.rs",
            "crates/core/src/encoded.rs",
            "crates/core/src/metadata.rs",
        ]),
        ("lints.panic_reach.include", &[
            "crates/wire/src/",
            "crates/core/src/decoder.rs",
            "crates/core/src/kernels.rs",
            "crates/core/src/pool.rs",
            "crates/serve/src/protocol.rs",
            "crates/serve/src/session.rs",
            "crates/predict/src/",
        ]),
        ("lints.lock_order.include", &[
            "crates/serve/src/",
            "crates/stream/src/",
            "crates/trace/src/",
            "crates/core/src/pool.rs",
        ]),
        ("lints.hot_path_alloc.entries", &[
            "crates/core/src/kernels.rs::pack_priority_row",
            "crates/core/src/kernels.rs::pack_priority_row_scalar",
            "crates/core/src/kernels.rs::count_priorities",
            "crates/core/src/kernels.rs::count_priorities_scalar",
            "crates/core/src/pool.rs::BufferPool::put_vec",
            "crates/core/src/pool.rs::BufferPool::put_shared",
            "crates/core/src/pool.rs::BufferPool::put_words",
            "crates/core/src/kernels.rs::count_regional",
            "crates/core/src/encoded.rs::frame_digest",
            "crates/core/src/encoded.rs::EncodedFrame::compute_integrity",
            "crates/core/src/metadata.rs::FrameMetadata::is_consistent",
            "crates/core/src/kernels.rs::write_span_mask",
            "crates/core/src/kernels.rs::write_span_mask_scalar",
            "crates/core/src/kernels.rs::gather_strided",
            "crates/core/src/kernels.rs::gather_strided_scalar",
            "crates/core/src/kernels.rs::entry_word",
            "crates/vision/src/blob.rs::detect_blobs_into",
            "crates/core/src/encoder.rs::RhythmicEncoder::encode",
            "crates/core/src/decoder.rs::SoftwareDecoder::decode_owned",
        ]),
        ("lints.event_loop_blocking.entries", &[
            "crates/serve/src/server.rs::Server::step",
            "crates/serve/src/server.rs::Server::pump_until_idle",
        ]),
        ("dynamic.miri.crates", &["rpr-wire", "rpr-core"]),
        ("dynamic.miri.extra_tests", &["panic_freedom"]),
        ("dynamic.asan.crates", &["rpr-wire", "rpr-core", "rpr-serve"]),
        ("dynamic.lsan.crates", &["rpr-wire", "rpr-core", "rpr-serve"]),
        ("dynamic.tsan.crates", &["rpr-stream", "rpr-trace", "rpr-serve"]),
        ("dynamic.loom.crates", &["rpr-stream", "rpr-trace"]),
        ("dynamic.loom.tests", &["rpr-stream/loom_queue", "rpr-trace/loom_gate"]),
    ];

    /// Every floor entry missing from `policy`, as human-readable
    /// descriptions. Empty = the ratchet holds.
    fn ratchet_violations(policy: &Policy) -> Vec<String> {
        let mut out = Vec::new();
        for (path, required) in RATCHET_FLOOR {
            let got = policy.str_array(path);
            for r in *required {
                if !got.iter().any(|g| g == r) {
                    out.push(format!("`{path}` lost pinned entry `{r}` (has {got:?})"));
                }
            }
        }
        // The unsafe allowlist ratchets the other way: it must stay
        // empty until someone adds Miri coverage for the new block.
        if !policy.str_array("lints.unsafe_block.allow").is_empty()
            && policy.str_array("dynamic.miri.crates").is_empty()
        {
            out.push("unsafe allowlist entries require Miri coverage".to_string());
        }
        out
    }

    /// Coverage may only be ratcheted UP: the committed policy must
    /// contain every floor entry, so shrinking any scope fails plain
    /// `cargo test -q` and CI.
    #[test]
    fn policy_ratchet_coverage_never_shrinks() {
        let violations = ratchet_violations(&committed_policy());
        assert!(violations.is_empty(), "policy ratchet: {violations:?}");
    }

    /// The ratchet's own teeth: a policy with a scope entry deleted
    /// must produce a violation, proving the check cannot silently
    /// pass a shrunk list.
    #[test]
    fn policy_ratchet_rejects_a_shrunk_scope() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/check sits two levels below the repo root");
        let text = std::fs::read_to_string(root.join("ci/check_policy.toml"))
            .expect("ci/check_policy.toml exists");
        let shrunk = text.replace("\"crates/predict/src/\",", "");
        assert_ne!(shrunk, text, "expected the predict scope entry to be present");
        let policy = Policy::parse(&shrunk).expect("shrunk policy still parses");
        let violations = ratchet_violations(&policy);
        assert!(
            violations.iter().any(|v| v.contains("crates/predict/src/")),
            "shrunk policy must violate the ratchet, got {violations:?}"
        );
    }

    /// Every tool in the nightly matrix must resolve to a non-empty
    /// plan, and the plan lines must be well-formed cargo-test args.
    #[test]
    fn dynamic_plans_resolve_for_every_pinned_tool() {
        let policy = committed_policy();
        for tool in ["miri", "asan", "lsan", "tsan", "loom"] {
            let plan = dynamic_plan(&policy, tool)
                .unwrap_or_else(|| panic!("no dynamic coverage pinned for `{tool}`"));
            for line in plan.lines() {
                assert!(
                    line.starts_with("-p ") || line.starts_with("--test "),
                    "malformed plan line for {tool}: `{line}`"
                );
            }
        }
        assert_eq!(dynamic_plan(&committed_policy(), "no-such-tool"), None);
    }
}
