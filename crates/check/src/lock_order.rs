//! RPR007 lock-order: no ordering cycles between the locks of the
//! serving tier.
//!
//! The serve/stream/trace crates hand frames between threads through
//! mutex-protected queues, counters, and flight recorders. A deadlock
//! needs two locks taken in opposite orders on two threads — which is
//! invisible to per-file lints and to any single test that doesn't
//! hit the exact interleaving. This lint extracts the *lock
//! acquisition graph* statically: an edge `A → B` means some path
//! acquires `B` (directly or through callees) while holding `A`. A
//! cycle in that graph is a potential deadlock and fails the gate.
//!
//! ## Lock identity is class-level
//!
//! Locks are named by *where they live in a type* (`BufferPool.inner`,
//! `StageQueue.state`), not per-instance — instances are
//! indistinguishable statically. Two consequences, both documented
//! caveats (DESIGN.md §4j): acquiring the same class twice (two
//! different `StageQueue`s) looks like a self-edge, so self-edges are
//! **excluded** from cycle detection (class-level analysis cannot tell
//! a real re-entry from two instances); and a cycle between classes
//! may be a false positive if the instances can never interleave —
//! that is what `allow(lock-order)` waivers on an acquisition line
//! are for (the waiver removes the acquisition from the graph).
//!
//! Hold tracking is phase 1's: `let`-bound guards to end of block,
//! temporaries to end of statement, `drop(guard)` releases early.
//! Holds propagate through calls: if `f` calls `g` while holding `A`,
//! every lock in `g`'s transitive acquisition set is acquired-under-`A`.

use crate::callgraph::Graph;
use crate::lints::{finding, in_set, unmatched_scope_entries, Finding, LINTS};
use crate::policy::Policy;
use crate::syntax::Receiver;
use std::collections::{BTreeMap, BTreeSet};

/// The policy key naming the scope; an entry that matches no file is
/// itself a finding.
const SCOPE: &str = "lints.lock_order.include";

/// Wrapper types that are not the lock-owning type itself.
const WRAPPERS: &[&str] =
    &["Arc", "Rc", "Box", "Mutex", "RwLock", "RefCell", "Option", "Vec", "CachePadded"];

/// Runs RPR007 over a built graph.
pub fn run(graph: &Graph<'_>, policy: &Policy) -> Vec<Finding> {
    let lint = &LINTS[6];
    debug_assert_eq!(lint.id, "RPR007");
    let include = policy.str_array(SCOPE);
    if include.is_empty() {
        return Vec::new();
    }
    let unmatched = unmatched_scope_entries(lint, SCOPE, policy, &graph.file_paths());

    // 1. Name every in-scope, non-waived lock acquisition.
    //    lock_keys[fn_id][lock_idx] = Some(class key) | None (waived /
    //    out of scope).
    let n = graph.fns.len();
    let mut lock_keys: Vec<Vec<Option<String>>> = Vec::with_capacity(n);
    let mut examples: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for id in 0..n {
        let f = graph.model(id);
        let fi = graph.file_of(id);
        let path = graph.path_of(id);
        let in_scope = !f.is_test && in_set(path, &include);
        let mut keys = Vec::with_capacity(f.locks.len());
        for site in &f.locks {
            if !in_scope || graph.waived(fi, site.line, &[lint.name]).is_some() {
                keys.push(None);
                continue;
            }
            let key = lock_key(graph, id, &site.recv, site.line);
            examples.entry(key.clone()).or_insert_with(|| (path.to_string(), site.line));
            keys.push(Some(key));
        }
        lock_keys.push(keys);
    }

    // 2. Transitive acquisition sets Acq(f), fixpoint over the call
    //    graph (edge waivers cut propagation; test fns contribute
    //    nothing).
    let mut acq: Vec<BTreeSet<String>> = (0..n)
        .map(|id| lock_keys[id].iter().flatten().cloned().collect())
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let fi = graph.file_of(id);
            let mut add: BTreeSet<String> = BTreeSet::new();
            for e in &graph.edges[id] {
                if graph.model(e.to).is_test
                    || graph.waived(fi, e.line, &[lint.name]).is_some()
                {
                    continue;
                }
                for k in &acq[e.to] {
                    if !acq[id].contains(k) {
                        add.insert(k.clone());
                    }
                }
            }
            if !add.is_empty() {
                acq[id].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 3. Lock-order edges `held → acquired` with one example site per
    //    ordered pair.
    let mut order: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut edge_examples: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut add_edge = |a: &str, b: &str, file: &str, line: usize| {
        if a == b {
            return; // class-level self-edges excluded (see module docs)
        }
        order.entry(a.to_string()).or_default().insert(b.to_string());
        edge_examples
            .entry((a.to_string(), b.to_string()))
            .or_insert_with(|| (file.to_string(), line));
    };
    for (id, keys) in lock_keys.iter().enumerate() {
        let f = graph.model(id);
        let fi = graph.file_of(id);
        let path = graph.path_of(id).to_string();
        // Intra-fn: a lock acquired while earlier locks are held.
        for (li, site) in f.locks.iter().enumerate() {
            let Some(Some(b)) = keys.get(li).cloned() else { continue };
            for &h in &site.held_locks {
                if let Some(Some(a)) = keys.get(h).cloned() {
                    add_edge(&a, &b, &path, site.line);
                }
            }
        }
        // Inter-fn: calls made while holding flow into the callee's
        // transitive acquisition set.
        for e in &graph.edges[id] {
            if graph.model(e.to).is_test || graph.waived(fi, e.line, &[lint.name]).is_some() {
                continue;
            }
            let held = &f.calls[e.call].held_locks;
            if held.is_empty() {
                continue;
            }
            for &h in held {
                let Some(Some(a)) = keys.get(h).cloned() else { continue };
                for b in &acq[e.to] {
                    add_edge(&a, b, &path, e.line);
                }
            }
        }
    }

    // 4. Cycle detection: any strongly-connected component with ≥2
    //    locks contains an ordering cycle.
    let mut findings = unmatched;
    for scc in sccs(&order) {
        if scc.len() < 2 {
            continue;
        }
        let cycle = one_cycle(&order, &scc);
        let mut legs = Vec::new();
        for w in cycle.windows(2) {
            let (file, line) = edge_examples
                .get(&(w[0].clone(), w[1].clone()))
                .cloned()
                .unwrap_or_default();
            legs.push(format!("`{}` taken while holding `{}` at {file}:{line}", w[1], w[0]));
        }
        let (anchor_file, anchor_line) =
            examples.get(&cycle[0]).cloned().unwrap_or_default();
        findings.push(finding(
            lint,
            &anchor_file,
            anchor_line,
            format!("lock-order cycle {}: {}", cycle.join(" → "), legs.join("; ")),
        ));
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings
}

/// Class-level identity for one acquisition.
fn lock_key(graph: &Graph<'_>, id: usize, recv: &Receiver, line: usize) -> String {
    let f = graph.model(id);
    let fi = graph.file_of(id);
    match recv {
        Receiver::SelfDot => match &f.self_ty {
            Some(t) => t.clone(),
            None => format!("{}::{}::self", graph.path_of(id), f.name),
        },
        Receiver::Field(field) => {
            if let Some(t) = &f.self_ty {
                // The common case: `self.field.lock()` in an impl.
                if graph.ws.files[fi]
                    .structs
                    .iter()
                    .any(|s| &s.name == t && s.fields.iter().any(|(n, _)| n == field))
                {
                    return format!("{t}.{field}");
                }
            }
            // Otherwise: any struct declaring the field (caller's file
            // first, then workspace-wide).
            for file in std::iter::once(&graph.ws.files[fi]).chain(&graph.ws.files) {
                for s in &file.structs {
                    if s.fields.iter().any(|(n, _)| n == field) {
                        return format!("{}.{field}", s.name);
                    }
                }
            }
            match &f.self_ty {
                Some(t) => format!("{t}.{field}"),
                None => format!("{}::{}.{field}", graph.path_of(id), f.name),
            }
        }
        Receiver::Ident(x) => {
            let typed = f
                .params
                .iter()
                .chain(&f.locals)
                .find(|(n, _)| n == x)
                .map(|(_, segs)| segs.clone());
            if let Some(segs) = typed {
                if let Some(t) = segs.iter().find(|s| !WRAPPERS.contains(&s.as_str())) {
                    return t.clone();
                }
            }
            format!("{}::{}::{x}", graph.path_of(id), f.name)
        }
        Receiver::Expr => format!("{}::{}::<expr>@{line}", graph.path_of(id), f.name),
    }
}

/// Tarjan SCC over the order graph.
fn sccs(adj: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    let nodes: Vec<String> = adj
        .iter()
        .flat_map(|(k, vs)| std::iter::once(k.clone()).chain(vs.iter().cloned()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index_of: BTreeMap<&str, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
    let n = nodes.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, bs) in adj {
        let ai = index_of[a.as_str()];
        for b in bs {
            succ[ai].push(index_of[b.as_str()]);
        }
    }

    // Iterative Tarjan.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<String>> = Vec::new();
    // DFS frames: (node, child cursor).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while !frames.is_empty() {
            let (v, cursor) = *frames.last().expect("non-empty");
            if cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if cursor < succ[v].len() {
                let w = succ[v][cursor];
                frames.last_mut().expect("non-empty").1 = cursor + 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(nodes[w].clone());
                        if w == v {
                            break;
                        }
                    }
                    comp.reverse();
                    out.push(comp);
                }
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    out
}

/// Extracts one concrete cycle within an SCC: walk in-SCC successors
/// from the lexicographically first node until a repeat, then close
/// the loop. Returned as `[a, …, a]` (first == last).
fn one_cycle(adj: &BTreeMap<String, BTreeSet<String>>, scc: &[String]) -> Vec<String> {
    let set: BTreeSet<&str> = scc.iter().map(String::as_str).collect();
    let start = scc.iter().min().cloned().unwrap_or_default();
    let mut path = vec![start.clone()];
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    seen.insert(start.clone(), 0);
    let mut cur = start;
    loop {
        let next = adj
            .get(&cur)
            .and_then(|vs| vs.iter().find(|v| set.contains(v.as_str())))
            .cloned();
        let Some(next) = next else { return path };
        if let Some(&pos) = seen.get(&next) {
            let mut cycle = path[pos..].to_vec();
            cycle.push(next);
            return cycle;
        }
        seen.insert(next.clone(), path.len());
        path.push(next.clone());
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{Graph, Workspace};
    use crate::policy::Policy;

    fn check(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::parse(
            &files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect::<Vec<_>>(),
        );
        let g = Graph::build(&ws);
        let policy =
            Policy::parse("[lints.lock_order]\ninclude = [\"crates/serve/src/\"]\n").unwrap();
        run(&g, &policy)
    }

    const STRUCTS: &str = "pub struct S { a: Mutex<Inner>, b: Mutex<Inner> }\n";

    #[test]
    fn opposite_orders_in_two_fns_cycle() {
        let f = check(&[(
            "crates/serve/src/x.rs",
            &format!(
                "{STRUCTS}impl S {{\n\
                 fn one(&self) {{ let g = self.a.lock(); let h = self.b.lock(); }}\n\
                 fn two(&self) {{ let g = self.b.lock(); let h = self.a.lock(); }}\n}}"
            ),
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("S.a") && f[0].message.contains("S.b"), "{}", f[0].message);
    }

    #[test]
    fn consistent_order_is_clean() {
        let f = check(&[(
            "crates/serve/src/x.rs",
            &format!(
                "{STRUCTS}impl S {{\n\
                 fn one(&self) {{ let g = self.a.lock(); let h = self.b.lock(); }}\n\
                 fn two(&self) {{ let g = self.a.lock(); let h = self.b.lock(); }}\n}}"
            ),
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cross_fn_holds_propagate_through_calls() {
        let f = check(&[(
            "crates/serve/src/x.rs",
            &format!(
                "{STRUCTS}impl S {{\n\
                 fn one(&self) {{ let g = self.a.lock(); self.takes_b(); }}\n\
                 fn takes_b(&self) {{ let h = self.b.lock(); }}\n\
                 fn two(&self) {{ let g = self.b.lock(); self.takes_a(); }}\n\
                 fn takes_a(&self) {{ let h = self.a.lock(); }}\n}}"
            ),
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn statement_scoped_temporaries_do_not_hold() {
        // `self.a.lock().x()` releases at end of statement, so the
        // later `b` acquisition is not under `a`.
        let f = check(&[(
            "crates/serve/src/x.rs",
            &format!(
                "{STRUCTS}impl S {{\n\
                 fn one(&self) {{ self.a.lock().touch(); let h = self.b.lock(); }}\n\
                 fn two(&self) {{ self.b.lock().touch(); let h = self.a.lock(); }}\n}}"
            ),
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn waiver_on_acquisition_removes_it_from_the_graph() {
        let f = check(&[(
            "crates/serve/src/x.rs",
            &format!(
                "{STRUCTS}impl S {{\n\
                 fn one(&self) {{ let g = self.a.lock(); let h = self.b.lock(); }}\n\
                 fn two(&self) {{ let g = self.b.lock();\n\
                 // rpr-check: allow(lock-order): `two` only runs at shutdown after all `one` callers quiesce\n\
                 let h = self.a.lock(); }}\n}}"
            ),
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn same_class_twice_is_not_a_self_cycle() {
        let f = check(&[(
            "crates/serve/src/x.rs",
            "pub struct Shard { m: Mutex<u8> }\npub struct H { shards: Vec<Shard> }\n\
             impl H { fn f(&self, i: usize, j: usize) {\n\
             let a = self.shards[i].lock(); let b = self.shards[j].lock(); } }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_scope_locks_are_ignored() {
        let f = check(&[
            (
                "crates/other/src/x.rs",
                "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\nimpl S {\n\
                 fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                 fn two(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n}",
            ),
            // The scope must match a file, or it is a finding itself.
            ("crates/serve/src/lib.rs", "pub fn idle() {}"),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a_scope_that_matches_no_file_is_a_finding() {
        let f = check(&[("crates/other/src/x.rs", "pub fn idle() {}")]);
        assert_eq!(f.len(), 1, "{f:?}");
        let unmatched = "`crates/serve/src/` matches no workspace file";
        assert!(f[0].message.contains(unmatched), "{f:?}");
        assert!(!f[0].waived);
    }
}
