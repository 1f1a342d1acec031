//! Lint self-test: every lint must fire on its known-bad fixture and
//! stay quiet on its known-good twin.
//!
//! A lint that silently stops firing is worse than no lint — the gate
//! keeps reporting green while the invariant rots. The fixtures under
//! `crates/check/fixtures/` pin each lint's behaviour. Token lints
//! (RPR001–RPR005) use single files: `<lint>_bad.rs` must produce at
//! least one *unwaived* finding with the right ID, and
//! `<lint>_good.rs` must produce none (it exercises the same
//! constructs guarded, allowed, or waived — so the waiver machinery is
//! covered too). Graph lints (RPR006–RPR009) are cross-file by
//! definition, so their fixtures are *directories*
//! (`fixtures/graph/<lint>/{bad,good}/*.rs`) parsed as miniature
//! workspaces and run through the full phase-1/phase-2 engine. A
//! `misspelled/` fixture directory, whose `policy.toml` names an entry
//! that resolves to no fn, runs wherever one exists and must fire; every
//! lint whose fixture policy gives it `lints.<lint>.entries` must have
//! one, so an entry-list lint cannot leave its own typos unchecked.
//! `rpr-check --self-test` runs both corpora in CI next to the
//! workspace scan; the fixtures directory is in `[global].exclude` so
//! the deliberately-deadlocking fixture code never trips the real gate.

use crate::callgraph::{Graph, Workspace};
use crate::lints::{check_file, LINTS};
use crate::policy::Policy;
use crate::{run_graph_lints, GRAPH_LINT_IDS};
use std::path::Path;

/// The policy the fixtures are checked under: every scoped lint is
/// scoped to the fixture directory, and the atomic-ordering fixtures
/// are pinned to the documented gate set.
fn fixture_policy() -> Policy {
    Policy::parse(
        r#"
        [lints.panic_surface]
        include = ["fixtures/"]
        [lints.truncating_cast]
        include = ["fixtures/"]
        [lints.raw_clock]
        allow = []
        [lints.unsafe_block]
        allow = []
        [lints.atomic_ordering.pinned."fixtures/atomic_ordering_bad.rs"]
        allowed = ["Relaxed", "Release"]
        [lints.atomic_ordering.pinned."fixtures/atomic_ordering_good.rs"]
        allowed = ["Relaxed", "Release"]
        "#,
    )
    .expect("fixture policy is statically valid")
}

/// The default policy of the graph fixture directory `rel_dir`: each
/// lint's scope points at the directory's `entry.rs` (or the whole
/// directory for lock-order, whose entries are implicit in the lock
/// sites).
fn default_graph_fixture_policy(rel_dir: &str) -> String {
    format!(
        r#"
        [lints.panic_reach]
        include = ["{rel_dir}/entry.rs"]
        [lints.lock_order]
        include = ["{rel_dir}/"]
        [lints.hot_path_alloc]
        entries = ["{rel_dir}/entry.rs::kernel"]
        [lints.event_loop_blocking]
        entries = ["{rel_dir}/entry.rs::Server::step"]
        "#
    )
}

/// The policy a graph fixture directory runs under: its own
/// `policy.toml` when it holds one (the misspelled-entry fixtures do,
/// since their point is a policy entry that names no fn), else the
/// default.
fn graph_fixture_policy(dir: &Path, rel_dir: &str) -> std::io::Result<Policy> {
    let text = match std::fs::read_to_string(dir.join("policy.toml")) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            default_graph_fixture_policy(rel_dir)
        }
        Err(e) => return Err(e),
    };
    Policy::parse(&text).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{rel_dir}/policy.toml: {e}"))
    })
}

/// Runs the self-test against `fixtures_dir`. Returns the list of
/// failures (empty = all lints verified live).
///
/// # Errors
///
/// Returns an I/O error when a fixture file is missing or unreadable —
/// a missing fixture is itself a self-test failure mode that must not
/// pass silently.
pub fn run(fixtures_dir: &Path) -> std::io::Result<Vec<String>> {
    let policy = fixture_policy();
    let mut failures = Vec::new();
    for lint in LINTS.iter().filter(|l| !GRAPH_LINT_IDS.contains(&l.id)) {
        let snake = lint.name.replace('-', "_");
        for (suffix, expect_fire) in [("bad", true), ("good", false)] {
            let file = format!("{snake}_{suffix}.rs");
            let path = fixtures_dir.join(&file);
            let src = std::fs::read_to_string(&path).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("fixture {} unreadable: {e}", path.display()),
                )
            })?;
            let rel = format!("fixtures/{file}");
            let findings = check_file(&rel, &src, &policy);
            let unwaived_hits =
                findings.iter().filter(|f| !f.waived && f.id == lint.id).count();
            let unwaived_any = findings.iter().filter(|f| !f.waived).count();
            if expect_fire && unwaived_hits == 0 {
                failures.push(format!(
                    "{} ({}) did not fire on {rel} — the lint has gone dead",
                    lint.id, lint.name
                ));
            }
            if !expect_fire && unwaived_any != 0 {
                let ids: Vec<_> =
                    findings.iter().filter(|f| !f.waived).map(|f| f.id).collect();
                failures.push(format!(
                    "known-good fixture {rel} produced blocking findings: {ids:?}"
                ));
            }
        }
    }

    // Graph lints: directory fixtures parsed as miniature workspaces.
    for lint in LINTS.iter().filter(|l| GRAPH_LINT_IDS.contains(&l.id)) {
        let snake = lint.name.replace('-', "_");
        let mut cases = vec![("bad", true), ("good", false)];
        if fixtures_dir.join("graph").join(&snake).join("misspelled").is_dir() {
            cases.push(("misspelled", true));
        } else if reads_entries(&snake) {
            failures.push(format!(
                "{} ({}) reads `lints.{snake}.entries` but has no \
                 fixtures/graph/{snake}/misspelled/ fixture",
                lint.id, lint.name
            ));
        }
        for (suffix, expect_fire) in cases {
            let dir = fixtures_dir.join("graph").join(&snake).join(suffix);
            let rel_dir = format!("fixtures/graph/{snake}/{suffix}");
            let mut files = Vec::new();
            let entries = std::fs::read_dir(&dir).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("graph fixture dir {} unreadable: {e}", dir.display()),
                )
            })?;
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if !name.ends_with(".rs") {
                    continue;
                }
                let src = std::fs::read_to_string(entry.path())?;
                files.push((format!("{rel_dir}/{name}"), src));
            }
            files.sort();
            if files.is_empty() {
                failures.push(format!("graph fixture dir {rel_dir} holds no .rs files"));
                continue;
            }
            let ws = Workspace::parse(&files);
            let graph = Graph::build(&ws);
            let policy = graph_fixture_policy(&dir, &rel_dir)?;
            let findings = run_graph_lints(&graph, &policy, &[lint.id]);
            let unwaived_hits =
                findings.iter().filter(|f| !f.waived && f.id == lint.id).count();
            let unwaived_any = findings.iter().filter(|f| !f.waived).count();
            if expect_fire && unwaived_hits == 0 {
                failures.push(format!(
                    "{} ({}) did not fire on {rel_dir}/ — the lint has gone dead",
                    lint.id, lint.name
                ));
            }
            if !expect_fire && unwaived_any != 0 {
                let msgs: Vec<_> = findings
                    .iter()
                    .filter(|f| !f.waived)
                    .map(|f| format!("{}:{} {}", f.file, f.line, f.message))
                    .collect();
                failures.push(format!(
                    "known-good graph fixture {rel_dir}/ produced blocking findings: {msgs:#?}"
                ));
            }
        }
    }
    Ok(failures)
}

/// Whether the graph lint `snake` takes its entry points from
/// `lints.<snake>.entries`: its bad fixture only fires when the default
/// fixture policy gives it that list.
fn reads_entries(snake: &str) -> bool {
    Policy::parse(&default_graph_fixture_policy("fixtures"))
        .is_ok_and(|p| !p.str_array(&format!("lints.{snake}.entries")).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixtures_pass_the_self_test() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let failures = run(&dir).expect("fixtures readable");
        assert!(failures.is_empty(), "{failures:#?}");
    }
}
