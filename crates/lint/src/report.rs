//! The machine-readable lint report (`lint-report.json`).
//!
//! Uploaded as a CI artifact, so the lint trajectory —
//! violations, per-crate P001 debt, and every accepted escape hatch — is
//! inspectable PR-over-PR without rerunning the tool.

use crate::baseline::{Baseline, RatchetDelta};
use crate::diagnostics::{Diagnostic, ALL_RULES};
use crate::engine::AllowRecord;
use serde_json::Value;
use std::collections::BTreeMap;

/// Everything `check` learned about the workspace.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Surviving findings across all files (reporting order).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by allow directives.
    pub suppressed: Vec<Diagnostic>,
    /// Every allow directive with its usage outcome.
    pub allows: Vec<AllowRecord>,
    /// Surviving P001 findings per crate.
    pub p001_by_crate: BTreeMap<String, usize>,
    /// Per-crate comparison against the committed baseline.
    pub deltas: Vec<RatchetDelta>,
}

impl CheckOutcome {
    /// Whether the gate passes: no surviving non-P001 finding, no malformed
    /// directive, and no crate above its P001 ceiling.
    pub fn passes(&self) -> bool {
        let hard_failures = self
            .diagnostics
            .iter()
            .any(|d| d.rule != crate::diagnostics::RuleId::P001);
        let ratchet_failures = self.deltas.iter().any(RatchetDelta::regressed);
        !hard_failures && !ratchet_failures
    }

    /// Builds the JSON report artifact.
    pub fn to_value(&self, baseline: &Baseline) -> Value {
        let mut rules = BTreeMap::new();
        for rule in ALL_RULES {
            let surviving = self.diagnostics.iter().filter(|d| d.rule == rule).count();
            let allowed = self.suppressed.iter().filter(|d| d.rule == rule).count();
            let mut entry = BTreeMap::new();
            entry.insert("violations".to_string(), Value::Number(surviving as f64));
            entry.insert("allowed".to_string(), Value::Number(allowed as f64));
            rules.insert(rule.as_str().to_string(), Value::Object(entry));
        }

        let p001: BTreeMap<String, Value> = self
            .p001_by_crate
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Number(v as f64)))
            .collect();

        let allows: Vec<Value> = self
            .allows
            .iter()
            .map(|a| {
                let mut m = BTreeMap::new();
                m.insert("file".to_string(), Value::String(a.file.clone()));
                m.insert("line".to_string(), Value::Number(f64::from(a.line)));
                m.insert(
                    "rule".to_string(),
                    Value::String(a.rule.as_str().to_string()),
                );
                m.insert("reason".to_string(), Value::String(a.reason.clone()));
                m.insert("used".to_string(), Value::Bool(a.used));
                Value::Object(m)
            })
            .collect();

        let diagnostics: Vec<Value> = self
            .diagnostics
            .iter()
            .map(|d| {
                let mut m = BTreeMap::new();
                m.insert(
                    "rule".to_string(),
                    Value::String(d.rule.as_str().to_string()),
                );
                m.insert("file".to_string(), Value::String(d.file.clone()));
                m.insert("line".to_string(), Value::Number(f64::from(d.line)));
                m.insert("col".to_string(), Value::Number(f64::from(d.col)));
                m.insert("message".to_string(), Value::String(d.message.clone()));
                Value::Object(m)
            })
            .collect();

        let mut top = BTreeMap::new();
        top.insert("format".to_string(), Value::Number(1.0));
        top.insert(
            "files_scanned".to_string(),
            Value::Number(self.files_scanned as f64),
        );
        top.insert("passes".to_string(), Value::Bool(self.passes()));
        top.insert("rules".to_string(), Value::Object(rules));
        top.insert("p001_by_crate".to_string(), Value::Object(p001));
        top.insert("baseline".to_string(), baseline.to_value());
        top.insert("allows".to_string(), Value::Array(allows));
        top.insert("diagnostics".to_string(), Value::Array(diagnostics));
        Value::Object(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::RuleId;

    #[test]
    fn report_counts_allows_and_violations() {
        let outcome = CheckOutcome {
            files_scanned: 3,
            diagnostics: vec![Diagnostic {
                rule: RuleId::D001,
                file: "a.rs".into(),
                line: 1,
                col: 1,
                message: "m".into(),
                suggestion: "s".into(),
            }],
            suppressed: vec![Diagnostic {
                rule: RuleId::P001,
                file: "b.rs".into(),
                line: 2,
                col: 5,
                message: "m".into(),
                suggestion: "s".into(),
            }],
            allows: vec![AllowRecord {
                rule: RuleId::P001,
                file: "b.rs".into(),
                line: 2,
                reason: "r".into(),
                used: true,
            }],
            ..CheckOutcome::default()
        };
        let v = outcome.to_value(&Baseline::default());
        let d001 = v.get("rules").and_then(|r| r.get("D001")).expect("D001");
        assert_eq!(d001.get("violations").and_then(Value::as_f64), Some(1.0));
        let p001 = v.get("rules").and_then(|r| r.get("P001")).expect("P001");
        assert_eq!(p001.get("allowed").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("passes").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("allows").and_then(Value::as_array).map(|a| a.len()),
            Some(1)
        );
    }
}
