//! RPR009 event-loop-blocking: the Server's event loop must not block.
//!
//! `rpr-serve` multiplexes every camera session on one non-blocking
//! event loop (`Server::step` — the design the paper's serving tier
//! rests on: a stalled loop stalls *every* tenant, which is exactly
//! the head-of-line blocking the per-tenant QoS machinery exists to
//! prevent). A single `JoinHandle::join`, unbounded `recv`, `sleep`,
//! condvar `wait`, or blocking file read anywhere in the loop's call
//! graph reintroduces it.
//!
//! Entry specs come from `lints.event_loop_blocking.entries` (e.g.
//! `crates/serve/src/server.rs::Server::step`). Denied kind:
//! `blocking`. A bounded, measured wait that is acceptable by design
//! carries `allow(event-loop-blocking)` with its justification.

use crate::callgraph::Graph;
use crate::lints::{Finding, LINTS};
use crate::policy::Policy;
use crate::reach::{resolve_entries, run_site_lint};

/// The policy key naming the entry points; an entry that resolves to
/// no fn is itself a finding.
const ENTRIES: &str = "lints.event_loop_blocking.entries";

/// Default denied site kinds.
pub const DEFAULT_DENY: &[&str] = &["blocking"];

/// Runs RPR009 over a built graph.
pub fn run(graph: &Graph<'_>, policy: &Policy) -> Vec<Finding> {
    let lint = &LINTS[8];
    debug_assert_eq!(lint.id, "RPR009");
    let specs = policy.str_array(ENTRIES);
    if specs.is_empty() {
        return Vec::new();
    }
    let (entries, mut findings) = resolve_entries(graph, lint, ENTRIES, &specs);
    let mut deny = policy.str_array("lints.event_loop_blocking.deny");
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
    fn blocking_calls_reachable_from_the_loop_fire() {
        let files = vec![
            (
                "crates/serve/src/server.rs".to_string(),
                "pub struct Server { queue: StageQueue }\n\
                 impl Server { pub fn step(&self) { self.queue.push(1); } }"
                    .to_string(),
            ),
            (
                "crates/stream/src/queue.rs".to_string(),
                "pub struct StageQueue { x: u8 }\n\
                 impl StageQueue {\n\
                 pub fn push(&self, v: u8) { self.not_full.wait(st); }\n\
                 pub fn try_push(&self, v: u8) {}\n}"
                    .to_string(),
            ),
        ];
        let ws = Workspace::parse(&files);
        let g = Graph::build(&ws);
        let policy = crate::policy::Policy::parse(
            "[lints.event_loop_blocking]\n\
             entries = [\"crates/serve/src/server.rs::Server::step\"]\n",
        )
        .unwrap();
        let f = run(&g, &policy);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("wait"));
        assert!(f[0].message.contains("Server::step"));
    }

    #[test]
    fn nonblocking_variant_is_clean() {
        let files = vec![
            (
                "crates/serve/src/server.rs".to_string(),
                "pub struct Server { queue: StageQueue }\n\
                 impl Server { pub fn step(&self) { self.queue.try_push(1); } }"
                    .to_string(),
            ),
            (
                "crates/stream/src/queue.rs".to_string(),
                "pub struct StageQueue { x: u8 }\n\
                 impl StageQueue {\n\
                 pub fn push(&self, v: u8) { self.not_full.wait(st); }\n\
                 pub fn try_push(&self, v: u8) {}\n}"
                    .to_string(),
            ),
        ];
        let ws = Workspace::parse(&files);
        let g = Graph::build(&ws);
        let policy = crate::policy::Policy::parse(
            "[lints.event_loop_blocking]\n\
             entries = [\"crates/serve/src/server.rs::Server::step\"]\n",
        )
        .unwrap();
        assert!(run(&g, &policy).is_empty());
    }
}
