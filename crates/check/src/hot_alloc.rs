//! RPR008 hot-path-alloc: the static twin of the `alloc_discipline`
//! runtime test.
//!
//! The chunked kernels and the `BufferPool` steady-state paths must
//! stay allocation-free per frame (DESIGN.md §4g): every buffer comes
//! from the pool, every growth is amortized into pooled capacity.
//! The runtime test asserts this for the workloads it runs; this lint
//! asserts it for every path the call graph can reach from the
//! policy's `lints.hot_path_alloc.entries` (specs like
//! `crates/core/src/kernels.rs::pack_priority_row` or
//! `crates/core/src/pool.rs::BufferPool::get_vec`).
//!
//! Two site classes are denied by default:
//!
//! * `alloc-hard` — always allocates (`Vec::new`, `Box::new`, `vec!`,
//!   `format!`, `.to_vec()`, `.collect()`, …),
//! * `alloc-amortized` — allocates on capacity growth (`.push()`,
//!   `.extend_from_slice()`, `.resize()`, …).
//!
//! Legitimate cold paths (pool miss building a fresh buffer) and
//! growths provably amortized into pooled capacity carry
//! `allow(hot-path-alloc)` waivers with the justification inline.

use crate::callgraph::Graph;
use crate::lints::{Finding, LINTS};
use crate::policy::Policy;
use crate::reach::{resolve_entries, run_site_lint};

/// The policy key naming the entry points; an entry that resolves to
/// no fn is itself a finding.
const ENTRIES: &str = "lints.hot_path_alloc.entries";

/// Default denied site kinds.
pub const DEFAULT_DENY: &[&str] = &["alloc-hard", "alloc-amortized"];

/// Runs RPR008 over a built graph.
pub fn run(graph: &Graph<'_>, policy: &Policy) -> Vec<Finding> {
    let lint = &LINTS[7];
    debug_assert_eq!(lint.id, "RPR008");
    let specs = policy.str_array(ENTRIES);
    if specs.is_empty() {
        return Vec::new();
    }
    let (entries, mut findings) = resolve_entries(graph, lint, ENTRIES, &specs);
    let mut deny = policy.str_array("lints.hot_path_alloc.deny");
    if deny.is_empty() {
        deny = DEFAULT_DENY.iter().map(|s| s.to_string()).collect();
    }
    findings.extend(run_site_lint(graph, lint, &entries, &deny, &[]));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{Graph, Workspace};

    #[test]
    fn allocs_reachable_from_entries_fire_and_waivers_downgrade() {
        let files = vec![
            (
                "crates/core/src/kernels.rs".to_string(),
                "pub fn pack_row(out: &mut Vec<u8>) { helper(out); }".to_string(),
            ),
            (
                "crates/core/src/util.rs".to_string(),
                "pub fn helper(out: &mut Vec<u8>) {\n\
                 let scratch = Vec::new();\n\
                 // rpr-check: allow(hot-path-alloc): amortized into pooled capacity\n\
                 out.push(1);\n}"
                    .to_string(),
            ),
        ];
        let ws = Workspace::parse(&files);
        let g = Graph::build(&ws);
        let policy = crate::policy::Policy::parse(
            "[lints.hot_path_alloc]\nentries = [\"crates/core/src/kernels.rs::pack_row\"]\n",
        )
        .unwrap();
        let f = run(&g, &policy);
        let blocking: Vec<_> = f.iter().filter(|x| !x.waived).collect();
        let waived: Vec<_> = f.iter().filter(|x| x.waived).collect();
        assert_eq!(blocking.len(), 1, "{f:?}");
        assert!(blocking[0].message.contains("Vec::new"));
        assert_eq!(waived.len(), 1, "{f:?}");
        assert!(waived[0].message.contains("push"));
    }
}
