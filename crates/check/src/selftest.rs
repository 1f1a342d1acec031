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
//! that resolves to no fn or a scope that matches no file, runs
//! wherever one exists and must fire; every graph lint whose fixture
//! policy gives it `lints.<lint>.entries` or `.include` must have one,
//! and every scoped token lint a `<lint>_misspelled.toml` policy, so a
//! policy list cannot leave its own typos unchecked.
//! `rpr-check --self-test` runs both corpora in CI next to the
//! workspace scan; the fixtures directory is in `[global].exclude` so
//! the deliberately-deadlocking fixture code never trips the real gate.

use crate::callgraph::{Graph, Workspace};
use crate::lints::{check_file, LINTS};
use crate::policy::Policy;
use crate::{run_graph_lints, token_scope_findings, GRAPH_LINT_IDS};
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

/// The token fixtures' paths as the fixture policy scopes them.
fn token_fixture_paths() -> Vec<String> {
    LINTS
        .iter()
        .filter(|l| !GRAPH_LINT_IDS.contains(&l.id))
        .flat_map(|l| {
            let snake = l.name.replace('-', "_");
            ["bad", "good"].map(|suffix| format!("fixtures/{snake}_{suffix}.rs"))
        })
        .collect()
}

/// Whether `policy` scopes the lint `snake` by an `include` list.
fn reads_include(policy: &Policy, snake: &str) -> bool {
    !policy
        .str_array(&format!("lints.{snake}.include"))
        .is_empty()
}

/// The token lints' scope check over the fixture corpus: quiet under
/// the fixture policy, and firing for each scoped lint under its
/// `<lint>_misspelled.toml`, whose `include` names no fixture file.
fn token_scope_failures(fixtures_dir: &Path, policy: &Policy) -> std::io::Result<Vec<String>> {
    let owned = token_fixture_paths();
    let paths: Vec<&str> = owned.iter().map(String::as_str).collect();
    let mut failures: Vec<String> = token_scope_findings(&paths, policy)
        .iter()
        .map(|f| format!("fixture policy scope produced a finding: {}", f.message))
        .collect();
    for lint in LINTS.iter().filter(|l| !GRAPH_LINT_IDS.contains(&l.id)) {
        let snake = lint.name.replace('-', "_");
        if !reads_include(policy, &snake) {
            continue;
        }
        let file = format!("{snake}_misspelled.toml");
        let text = match std::fs::read_to_string(fixtures_dir.join(&file)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                failures.push(format!(
                    "{} ({}) reads `lints.{snake}.include` but has no fixtures/{file}",
                    lint.id, lint.name
                ));
                continue;
            }
            Err(e) => return Err(e),
        };
        let misspelled = Policy::parse(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("fixtures/{file}: {e}"),
            )
        })?;
        if !token_scope_findings(&paths, &misspelled)
            .iter()
            .any(|f| f.id == lint.id && !f.waived)
        {
            failures.push(format!(
                "{} ({}) accepted the unmatched scope entry of fixtures/{file}",
                lint.id, lint.name
            ));
        }
    }
    Ok(failures)
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

    failures.extend(token_scope_failures(fixtures_dir, &policy)?);

    // Graph lints: directory fixtures parsed as miniature workspaces.
    for lint in LINTS.iter().filter(|l| GRAPH_LINT_IDS.contains(&l.id)) {
        let snake = lint.name.replace('-', "_");
        let mut cases = vec![("bad", true), ("good", false)];
        if fixtures_dir.join("graph").join(&snake).join("misspelled").is_dir() {
            cases.push(("misspelled", true));
        } else if let Some(list) = policy_list(&snake) {
            failures.push(format!(
                "{} ({}) reads `lints.{snake}.{list}` but has no \
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

/// The policy list the graph lint `snake` reads its entry points or
/// scope from (`entries` or `include`), if the default fixture policy
/// gives it one: its bad fixture only fires when that list is set.
fn policy_list(snake: &str) -> Option<&'static str> {
    let policy = Policy::parse(&default_graph_fixture_policy("fixtures")).ok()?;
    if !policy
        .str_array(&format!("lints.{snake}.entries"))
        .is_empty()
    {
        Some("entries")
    } else if reads_include(&policy, snake) {
        Some("include")
    } else {
        None
    }
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
