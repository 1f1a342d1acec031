//! Finding output: human text for terminals, JSON for CI tooling,
//! SARIF 2.1.0 for PR annotation.

use crate::lints::{Finding, LINTS};
use serde::{Serialize, Value};
use serde_json::json;

/// The machine-readable report envelope (`--json`). Owns its findings
/// — the vendored serde_derive subset does not handle borrowed
/// structs, and report rendering is far off any hot path.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Report schema version.
    pub version: u32,
    /// Files scanned.
    pub files_scanned: usize,
    /// Every finding, waived ones included.
    pub findings: Vec<Finding>,
    /// Roll-up counters.
    pub summary: Summary,
}

/// Counters for the gate decision.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Summary {
    /// Total findings, including waived.
    pub total: usize,
    /// Findings covered by a justified waiver.
    pub waived: usize,
    /// Findings that fail the gate.
    pub unwaived: usize,
}

/// Computes the summary counters.
pub fn summarize(findings: &[Finding]) -> Summary {
    let waived = findings.iter().filter(|f| f.waived).count();
    Summary { total: findings.len(), waived, unwaived: findings.len() - waived }
}

/// Renders the human-readable report.
pub fn render_text(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let status = if f.waived { "waived" } else { "FAIL" };
        out.push_str(&format!(
            "{status:>6} {} [{} {}] {}:{}: {}\n",
            if f.waived { " " } else { "✗" },
            f.id,
            f.lint,
            f.file,
            f.line,
            f.message
        ));
        if let Some(reason) = &f.waiver_reason {
            out.push_str(&format!("        waiver: {reason}\n"));
        } else {
            out.push_str(&format!("        hint: {}\n", f.hint));
        }
    }
    let s = summarize(findings);
    out.push_str(&format!(
        "rpr-check: {} files scanned, {} findings ({} waived, {} blocking)\n",
        files_scanned, s.total, s.waived, s.unwaived
    ));
    if s.unwaived == 0 {
        out.push_str("rpr-check: gate PASSED\n");
    } else {
        out.push_str("rpr-check: gate FAILED — fix the findings above or add a justified waiver\n");
    }
    out
}

/// Renders the `--json` report.
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let report = Report {
        version: 1,
        files_scanned,
        findings: findings.to_vec(),
        summary: summarize(findings),
    };
    serde_json::to_string_pretty(&report).unwrap_or_else(|e| {
        format!("{{\"error\": \"report serialization failed: {e}\"}}")
    })
}

/// Renders findings as a SARIF 2.1.0 log (`--format sarif`) so CI can
/// annotate pull requests. Waived findings are emitted at level
/// `note` with an `inSource` suppression carrying the justification;
/// blocking findings are level `error`. Every lint is listed as a
/// rule whether or not it fired, so rule metadata stays stable across
/// runs (golden-tested in `tests/data/sarif_golden.json`).
pub fn render_sarif(findings: &[Finding], files_scanned: usize) -> String {
    let rules: Vec<Value> = LINTS
        .iter()
        .map(|l| {
            json!({
                "id": l.id,
                "name": l.name,
                "shortDescription": json!({ "text": l.description }),
                "help": json!({ "text": l.hint }),
            })
        })
        .collect();
    let results: Vec<Value> = findings
        .iter()
        .map(|f| {
            let location = json!({
                "physicalLocation": json!({
                    "artifactLocation": json!({ "uri": f.file.clone() }),
                    "region": json!({ "startLine": f.line as u64 }),
                }),
            });
            let mut entries = vec![
                ("ruleId".to_string(), json!(f.id)),
                ("level".to_string(), json!(if f.waived { "note" } else { "error" })),
                ("message".to_string(), json!({ "text": f.message.clone() })),
                ("locations".to_string(), json!(vec![location])),
            ];
            if f.waived {
                let justification =
                    f.waiver_reason.clone().unwrap_or_else(|| "waived".to_string());
                entries.push((
                    "suppressions".to_string(),
                    json!(vec![json!({
                        "kind": "inSource",
                        "justification": justification,
                    })]),
                ));
            }
            Value::Map(entries)
        })
        .collect();
    let s = summarize(findings);
    let run = json!({
        "tool": json!({
            "driver": json!({
                "name": "rpr-check",
                "informationUri": "https://example.invalid/rpr-check",
                "rules": rules,
            }),
        }),
        "results": results,
        "properties": json!({
            "filesScanned": files_scanned as u64,
            "waived": s.waived as u64,
            "blocking": s.unwaived as u64,
        }),
    });
    let log = json!({
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": vec![run],
    });
    serde_json::to_string_pretty(&log)
        .unwrap_or_else(|e| format!("{{\"error\": \"sarif serialization failed: {e}\"}}"))
}

/// Renders the lint catalog (`--list`).
pub fn render_lints() -> String {
    let mut out = String::from("rpr-check lints:\n");
    for l in LINTS {
        out.push_str(&format!("  {}  {:<16} {}\n", l.id, l.name, l.description));
    }
    out.push_str("\nwaiver syntax: // rpr-check: allow(<lint-name>): <justification>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::lint_by_name;

    fn sample_findings() -> Vec<Finding> {
        let panic_surface = lint_by_name("panic-surface").expect("known lint");
        let panic_reach = lint_by_name("panic-reach").expect("known lint");
        vec![
            Finding {
                id: panic_surface.id,
                lint: panic_surface.name,
                file: "crates/wire/src/frame.rs".to_string(),
                line: 41,
                message: "`unwrap` on untrusted input".to_string(),
                hint: panic_surface.hint,
                waived: false,
                waiver_reason: None,
            },
            Finding {
                id: panic_reach.id,
                lint: panic_reach.name,
                file: "crates/core/src/pool.rs".to_string(),
                line: 155,
                message: "expect site `expect` reachable via a.rs::entry → b.rs::deep"
                    .to_string(),
                hint: panic_reach.hint,
                waived: true,
                waiver_reason: Some("constructor guarantees non-empty".to_string()),
            },
        ]
    }

    /// The SARIF envelope is pinned byte-for-byte: vendored serde_json
    /// preserves map insertion order, so any drift in structure, rule
    /// metadata, or suppression shape shows up as a golden diff.
    /// Regenerate by running this test and copying the printed actual
    /// output into `tests/data/sarif_golden.json`.
    #[test]
    fn sarif_envelope_matches_the_golden_file() {
        let rendered = render_sarif(&sample_findings(), 42);
        let golden = include_str!("../tests/data/sarif_golden.json");
        assert!(
            rendered.trim() == golden.trim(),
            "SARIF output drifted from golden file; actual:\n{rendered}"
        );
    }

    #[test]
    fn sarif_marks_waived_findings_as_suppressed_notes() {
        let rendered = render_sarif(&sample_findings(), 42);
        assert!(rendered.contains("\"level\": \"note\""));
        assert!(rendered.contains("\"kind\": \"inSource\""));
        assert!(rendered.contains("constructor guarantees non-empty"));
        assert!(rendered.contains("\"level\": \"error\""));
    }
}
