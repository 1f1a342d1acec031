//! Phase 2, part 2: reachability over the call graph.
//!
//! Three of the graph lints share one shape: a set of *entry points*
//! must not transitively reach any *bad site* (panic, allocation,
//! blocking call). [`run_site_lint`] implements that shape once:
//!
//! 1. BFS from every entry over the waiver-filtered edge list — an
//!    edge whose call line carries `allow(<lint-name>)` in the
//!    caller's file is cut, which is the "per-edge waiver" the
//!    tentpole asks for;
//! 2. every reachable fn contributes its sites of the denied kinds;
//! 3. a site whose own line is waived (for this lint, or for any of
//!    the lint's `site_waiver_names` — RPR006 honours `panic-surface`
//!    waivers so an RPR001-justified site is not re-litigated) is
//!    reported `waived`; everything else is a blocking finding with
//!    one example call path from the nearest entry.
//!
//! Findings anchor at the **site** (that is the line to fix); the
//! message carries the entry and the path.

use crate::callgraph::Graph;
use crate::lints::{finding, Finding, LintInfo};
use crate::syntax::Site;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Per-fn BFS predecessor: `(previous fn id, call line in its file)`.
/// Entries carry `None`.
type Preds = BTreeMap<usize, Option<(usize, usize)>>;

/// BFS over edges not cut by `edge_waiver_names` waivers. Returns the
/// predecessor map of every reachable fn (entries included).
pub fn reachable(graph: &Graph<'_>, entries: &[usize], edge_waiver_names: &[&str]) -> Preds {
    let mut preds: Preds = BTreeMap::new();
    let mut q: VecDeque<usize> = VecDeque::new();
    for &e in entries {
        if preds.insert(e, None).is_none() {
            q.push_back(e);
        }
    }
    while let Some(id) = q.pop_front() {
        let fi = graph.file_of(id);
        for edge in &graph.edges[id] {
            if graph.waived(fi, edge.line, edge_waiver_names).is_some() {
                continue;
            }
            // Test fns never appear on production paths.
            if graph.model(edge.to).is_test {
                continue;
            }
            if let std::collections::btree_map::Entry::Vacant(v) = preds.entry(edge.to) {
                v.insert(Some((id, edge.line)));
                q.push_back(edge.to);
            }
        }
    }
    preds
}

/// The entry-to-`id` call path as ` → `-joined qualified names.
pub fn path_string(graph: &Graph<'_>, preds: &Preds, id: usize) -> String {
    let mut chain = vec![graph.display(id)];
    let mut cur = id;
    while let Some(Some((prev, _line))) = preds.get(&cur) {
        chain.push(graph.display(*prev));
        cur = *prev;
    }
    chain.reverse();
    chain.join(" → ")
}

/// Resolves a site lint's policy entry specs
/// (`path/file.rs::Type::fn` or `path/file.rs::fn`) to fn ids.
///
/// A spec that names no fn is returned as a blocking finding, anchored
/// at the file the spec names: a misspelled entry, or one whose fn was
/// renamed or moved, would otherwise drop its whole call tree from the
/// lint while the gate kept passing.
pub fn resolve_entries(
    graph: &Graph<'_>,
    lint: &'static LintInfo,
    policy_key: &str,
    specs: &[String],
) -> (Vec<usize>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut unresolved = Vec::new();
    for spec in specs {
        let ids = graph.resolve_entry(spec);
        if ids.is_empty() {
            let file = spec.find(".rs::").map_or(spec.as_str(), |pos| &spec[..pos + 3]);
            unresolved.push(finding(
                lint,
                file,
                1,
                format!(
                    "`{policy_key}` entry `{spec}` resolves to no fn — fix its spelling, \
                     or follow the fn's rename or move"
                ),
            ));
        }
        entries.extend(ids);
    }
    (entries, unresolved)
}

/// Runs one reachability site lint.
///
/// * `entries` — fn ids the policy names as the protected surface.
/// * `deny_kinds` — [`crate::syntax::SiteKind::name`] spellings to flag.
/// * `site_waiver_names` — waiver lint names that exempt a *site* line
///   (always includes the lint's own name).
///
/// Edge waivers use the lint's own name only.
pub fn run_site_lint(
    graph: &Graph<'_>,
    lint: &'static LintInfo,
    entries: &[usize],
    deny_kinds: &[String],
    site_waiver_names: &[&str],
) -> Vec<Finding> {
    let own: &[&str] = &[lint.name];
    let preds = reachable(graph, entries, own);
    let mut names: Vec<&str> = vec![lint.name];
    names.extend(site_waiver_names.iter().copied().filter(|n| *n != lint.name));

    // One finding per (file, line, what); BFS preds give a shortest
    // path from whichever entry reached the site's fn first.
    let mut seen: BTreeMap<(usize, usize, String), ()> = BTreeMap::new();
    let mut out = Vec::new();
    for &id in preds.keys() {
        let f = graph.model(id);
        let fi = graph.file_of(id);
        for site in &f.sites {
            if !deny_kinds.iter().any(|k| k == site.kind.name()) {
                continue;
            }
            if seen.insert((fi, site.line, site.what.clone()), ()).is_some() {
                continue;
            }
            let path = path_string(graph, &preds, id);
            let mut fnd = site_finding(graph, lint, id, site, &path);
            if let Some(reason) = graph.waived(fi, site.line, &names) {
                fnd.waived = true;
                fnd.waiver_reason = Some(reason.to_string());
            }
            out.push(fnd);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    out
}

fn site_finding(
    graph: &Graph<'_>,
    lint: &'static LintInfo,
    id: usize,
    site: &Site,
    path: &str,
) -> Finding {
    finding(
        lint,
        graph.path_of(id),
        site.line,
        format!("{} site `{}` reachable via {}", site.kind.name(), site.what, path),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::Workspace;
    use crate::lints::LINTS;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::parse(
            &files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect::<Vec<_>>(),
        )
    }

    fn lint() -> &'static LintInfo {
        &LINTS[5] // RPR006 panic-reach
    }

    #[test]
    fn transitive_panic_is_found_with_path() {
        let w = ws(&[
            ("entry.rs", "pub fn parse() { mid(); }"),
            ("mid.rs", "pub fn mid() { deep(); }"),
            ("deep.rs", "pub fn deep() { opt.unwrap(); }"),
        ]);
        let g = Graph::build(&w);
        let entries = g.resolve_entry("entry.rs::parse");
        let f = run_site_lint(&g, lint(), &entries, &["unwrap".to_string()], &[]);
        assert_eq!(f.len(), 1);
        assert!(!f[0].waived);
        assert_eq!(f[0].file, "deep.rs");
        assert!(f[0].message.contains("entry.rs::parse → mid.rs::mid → deep.rs::deep"), "{}", f[0].message);
    }

    #[test]
    fn edge_waiver_breaks_the_path() {
        let w = ws(&[
            (
                "entry.rs",
                "pub fn parse() {\n\
                 // rpr-check: allow(panic-reach): mid is fuzz-covered panic-free\n\
                 mid();\n}",
            ),
            ("mid.rs", "pub fn mid() { x.unwrap(); }"),
        ]);
        let g = Graph::build(&w);
        let entries = g.resolve_entry("entry.rs::parse");
        let f = run_site_lint(&g, lint(), &entries, &["unwrap".to_string()], &[]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn site_waiver_downgrades_to_waived() {
        let w = ws(&[(
            "entry.rs",
            "pub fn parse() {\n\
             // rpr-check: allow(panic-surface): checked non-empty above\n\
             x.unwrap();\n}",
        )]);
        let g = Graph::build(&w);
        let entries = g.resolve_entry("entry.rs::parse");
        let f =
            run_site_lint(&g, lint(), &entries, &["unwrap".to_string()], &["panic-surface"]);
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
    }

    #[test]
    fn unresolved_entries_are_findings() {
        let w = ws(&[("crates/core/src/kernels.rs", "pub fn pack_row() {}")]);
        let g = Graph::build(&w);
        let specs = vec![
            "crates/core/src/kernels.rs::pack_row".to_string(),
            "crates/core/src/kernels.rs::pakc_row".to_string(),
            "crates/core/src/gone.rs::pack_row".to_string(),
            "nonsense".to_string(),
        ];
        let (entries, unresolved) = resolve_entries(&g, &LINTS[7], "lints.x.entries", &specs);
        assert_eq!(entries.len(), 1);
        assert_eq!(unresolved.len(), 3, "{unresolved:?}");
        assert!(unresolved.iter().all(|f| !f.waived && f.id == "RPR008"));
        assert!(unresolved[0].message.contains("pakc_row"));
        assert_eq!(unresolved[1].file, "crates/core/src/gone.rs");
        assert_eq!(unresolved[2].file, "nonsense");
    }

    #[test]
    fn test_fns_are_not_on_paths() {
        let w = ws(&[
            ("entry.rs", "pub fn parse() { helper(); }"),
            (
                "h.rs",
                "#[cfg(test)]\nmod t { pub fn helper() { x.unwrap(); } }\n\
                 pub fn helper() {}",
            ),
        ]);
        let g = Graph::build(&w);
        let entries = g.resolve_entry("entry.rs::parse");
        let f = run_site_lint(&g, lint(), &entries, &["unwrap".to_string()], &[]);
        assert!(f.is_empty(), "{f:?}");
    }
}
