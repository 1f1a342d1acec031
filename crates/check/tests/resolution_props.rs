//! Property tests for call-graph resolution (DESIGN.md §4j).
//!
//! The resolver is allowed to *over*-approximate (extra candidate
//! edges make the graph lints conservative) but must never *drop* an
//! edge when the call site carries type evidence — a dropped edge is
//! a hole the reachability lints silently fall through. These tests
//! generate miniature workspaces where every method shares the same
//! name across types (the worst case for evidence-based narrowing)
//! and assert the ground-truth edge is always present.

use proptest::prelude::*;
use rpr_check::callgraph::{Graph, Workspace};

/// How one generated caller proves its receiver type to the resolver.
#[derive(Debug, Clone, Copy)]
enum Evidence {
    /// `fn c(v: &T) { v.act(); }`
    Param,
    /// `let v: T = …; v.act();`
    TypedLocal,
    /// `let v = T::make(); v.act();` — constructor RHS inference.
    CtorLocal,
    /// `struct H { f: T } … self.f.act();`
    Field,
    /// `T::make();` — associated-fn path call.
    AssocPath,
}

fn evidence() -> impl Strategy<Value = Evidence> {
    (0usize..5).prop_map(|i| match i {
        0 => Evidence::Param,
        1 => Evidence::TypedLocal,
        2 => Evidence::CtorLocal,
        3 => Evidence::Field,
        _ => Evidence::AssocPath,
    })
}

/// Source files as (path, contents).
type Files = Vec<(String, String)>;
/// Ground-truth call edges as (caller fn, target file, target fn).
type Edges = Vec<(String, String, String)>;

/// Builds the workspace sources: one file per type (every type gets
/// the same-named `act` / `make` members), one caller file, and the
/// ground-truth list of (caller fn, target file, target fn) edges.
fn build_sources(calls: &[(usize, Evidence)], ntypes: usize) -> (Files, Edges) {
    let mut files: Files = (0..ntypes)
        .map(|i| {
            (
                format!("t{i}.rs"),
                format!(
                    "pub struct T{i};\n\
                     impl T{i} {{\n\
                         pub fn act(&self) {{}}\n\
                         pub fn make() -> T{i} {{ T{i} }}\n\
                     }}\n"
                ),
            )
        })
        .collect();

    let mut caller = String::new();
    let mut truth = Vec::new();
    for (j, (ty, ev)) in calls.iter().enumerate() {
        let t = format!("T{ty}");
        let tfile = format!("t{ty}.rs");
        match ev {
            Evidence::Param => {
                caller.push_str(&format!("pub fn via_param{j}(v: &{t}) {{ v.act(); }}\n"));
                truth.push((format!("via_param{j}"), tfile, "act".to_string()));
            }
            Evidence::TypedLocal => {
                caller.push_str(&format!(
                    "pub fn via_local{j}(src: &Source) {{ let v: {t} = src.next(); v.act(); }}\n"
                ));
                truth.push((format!("via_local{j}"), tfile, "act".to_string()));
            }
            Evidence::CtorLocal => {
                caller.push_str(&format!(
                    "pub fn via_ctor{j}() {{ let v = {t}::make(); v.act(); }}\n"
                ));
                truth.push((format!("via_ctor{j}"), tfile.clone(), "act".to_string()));
                truth.push((format!("via_ctor{j}"), tfile, "make".to_string()));
            }
            Evidence::Field => {
                caller.push_str(&format!(
                    "pub struct H{j} {{ f{j}: {t} }}\n\
                     impl H{j} {{ pub fn via_field{j}(&self) {{ self.f{j}.act(); }} }}\n"
                ));
                truth.push((format!("via_field{j}"), tfile, "act".to_string()));
            }
            Evidence::AssocPath => {
                caller.push_str(&format!("pub fn via_path{j}() {{ {t}::make(); }}\n"));
                truth.push((format!("via_path{j}"), tfile, "make".to_string()));
            }
        }
    }
    files.push(("caller.rs".to_string(), caller));
    (files, truth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every evidence-carrying call site resolves to (at least) its
    /// ground-truth target, no matter how many same-named decoys the
    /// workspace holds.
    #[test]
    fn typed_call_sites_never_drop_their_edge(
        ntypes in 2usize..6,
        shapes in proptest::collection::vec(evidence(), 1..12),
        seed in 0usize..1000,
    ) {
        let calls: Vec<(usize, Evidence)> = shapes
            .iter()
            .enumerate()
            .map(|(i, &ev)| ((seed + i * 7) % ntypes, ev))
            .collect();
        let (files, truth) = build_sources(&calls, ntypes);
        let ws = Workspace::parse(&files);
        let g = Graph::build(&ws);

        for (caller, tfile, target) in &truth {
            let id = (0..g.fns.len())
                .find(|&i| g.model(i).name == *caller)
                .expect("generated caller fn is in the graph");
            let hit = g.edges[id].iter().any(|e| {
                g.model(e.to).name == *target && g.path_of(e.to) == tfile
            });
            prop_assert!(
                hit,
                "edge {caller} → {tfile}::{target} dropped; edges: {:?}",
                g.edges[id]
                    .iter()
                    .map(|e| g.display(e.to))
                    .collect::<Vec<_>>()
            );
        }
    }
}
