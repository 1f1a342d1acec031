//! RPR006 panic-reach: transitive panic freedom for the panic surface.
//!
//! The token-level RPR001 guarantees the *files* in
//! `lints.panic_surface.include` contain no panic sites — but a clean
//! parse fn calling a panicking helper in another crate still panics
//! on malformed input. This lint closes that gap: every `pub`
//! non-test fn defined in `lints.panic_reach.include` is an entry
//! point, and no panic site of the denied kinds may be reachable
//! through the call graph.
//!
//! Denied kinds default to `unwrap`, `expect`, and `panic-macro`.
//! Indexing and `assert*` are *not* denied by default — across a
//! whole-workspace transitive closure they are overwhelmingly
//! bounds-checked-by-construction loops and debug invariants, and
//! flagging them would bury the findings that matter. A policy can
//! opt in via `lints.panic_reach.deny`. (RPR001 still flags indexing
//! *within* the surface files themselves, where the bar is stricter.)
//!
//! Waivers: `allow(panic-reach)` on a call line cuts that edge; on a
//! panic line it exempts the site. Sites already justified for RPR001
//! (`allow(panic-surface)`) are reported as waived, not re-litigated.

use crate::callgraph::Graph;
use crate::lints::{unmatched_scope_entries, Finding, LINTS};
use crate::policy::Policy;
use crate::reach::run_site_lint;

/// The policy key naming the scope; an entry that matches no file is
/// itself a finding.
const SCOPE: &str = "lints.panic_reach.include";

/// Default denied site kinds.
pub const DEFAULT_DENY: &[&str] = &["unwrap", "expect", "panic-macro"];

/// Runs RPR006 over a built graph.
pub fn run(graph: &Graph<'_>, policy: &Policy) -> Vec<Finding> {
    let lint = &LINTS[5];
    debug_assert_eq!(lint.id, "RPR006");
    let include = policy.str_array(SCOPE);
    if include.is_empty() {
        return Vec::new();
    }
    let mut findings = unmatched_scope_entries(lint, SCOPE, policy, &graph.file_paths());
    let entries = graph.entries_in_scope(&include);
    let mut deny = policy.str_array("lints.panic_reach.deny");
    if deny.is_empty() {
        deny = DEFAULT_DENY.iter().map(|s| s.to_string()).collect();
    }
    let sites = run_site_lint(graph, lint, &entries, &deny, &["panic-surface"]);
    findings.extend(sites);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;
    use crate::callgraph::Graph;

    #[test]
    fn scope_drives_entries_and_default_kinds_exclude_indexing() {
        let files = vec![
            (
                "crates/w/src/lib.rs".to_string(),
                "pub fn parse(d: &[u8]) { helper(d); }\nfn internal() { x.unwrap(); }"
                    .to_string(),
            ),
            (
                "crates/other/src/lib.rs".to_string(),
                "pub fn helper(d: &[u8]) { let a = d[0]; deep(); }\n\
                 pub fn deep() { v.expect(\"x\"); }"
                    .to_string(),
            ),
        ];
        let ws = Workspace::parse(&files);
        let g = Graph::build(&ws);
        let policy = crate::policy::Policy::parse(
            "[lints.panic_reach]\ninclude = [\"crates/w/src/\"]\n",
        )
        .unwrap();
        let f = run(&g, &policy);
        // `deep`'s expect is reachable from the pub entry; `internal`
        // is not pub (not an entry) and unreachable from `parse`;
        // the indexing in `helper` is not in the default deny set.
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("expect"));
        assert!(f[0].message.contains("parse"));
    }
}
