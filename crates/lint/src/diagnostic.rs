//! Diagnostics and reports: the typed output of every lint rule.
//!
//! This is the one severity model and the one report formatter in the
//! workspace: the `chopin-lint` rule families (R1xx–R7xx), the
//! `chopin-analyzer` plan/provenance analyses (R8xx) and the harness's
//! `artifact lint`/`artifact analyze` subcommands all emit
//! [`Diagnostic`]s and render them through [`LintReport`].

use chopin_obs::json::json_string;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The configuration is wrong and experiments built on it are invalid;
    /// `artifact lint` exits non-zero.
    Error,
    /// Suspicious but not fatal; reported without failing the gate.
    Warn,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding from one rule at one location.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `R203`.
    pub rule: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Where the problem is, e.g. `profile:lusearch` or `sweep:preset:lbo`.
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when a concrete fix is known.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Construct an [`Severity::Error`] diagnostic.
    pub fn error(
        rule: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Construct a [`Severity::Warn`] diagnostic.
    pub fn warn(
        rule: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warn,
            location: location.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Attach a fix hint.
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.rule, self.location, self.message
        )?;
        if let Some(hint) = &self.hint {
            write!(f, " (hint: {hint})")?;
        }
        Ok(())
    }
}

/// The aggregate result of a lint run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// Every finding, in rule order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wrap a list of diagnostics.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        LintReport { diagnostics }
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warn-severity findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// The process exit code the gate commands (`artifact lint`,
    /// `artifact analyze --check`) share: 1 when any finding is an
    /// error, 0 otherwise. Warnings never fail the gate.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.has_errors())
    }

    /// Merge another report's findings into this one.
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Render as a human-readable table, one row per finding, plus a
    /// summary line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.diagnostics.is_empty() {
            out.push_str("lint: no findings\n");
            return out;
        }
        let loc_width = self
            .diagnostics
            .iter()
            .map(|d| d.location.len())
            .max()
            .unwrap_or(0)
            .max("location".len());
        out.push_str(&format!(
            "{:<5} {:<5} {:<loc_width$} message\n",
            "sev", "rule", "location"
        ));
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{:<5} {:<5} {:<loc_width$} {}",
                d.severity.label(),
                d.rule,
                d.location,
                d.message
            ));
            if let Some(hint) = &d.hint {
                out.push_str(&format!(" (hint: {hint})"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} error(s), {} warning(s)\n",
            self.error_count(),
            self.warn_count()
        ));
        out
    }

    /// Render as machine-readable JSON.
    ///
    /// Emitted by hand; the shape is
    /// `{"errors": N, "warnings": N, "diagnostics": [{...}]}`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"errors\": {}, \"warnings\": {}, \"diagnostics\": [",
            self.error_count(),
            self.warn_count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"rule\": {}, \"severity\": {}, \"location\": {}, \"message\": {}, \"hint\": {}}}",
                json_string(d.rule),
                json_string(d.severity.label()),
                json_string(&d.location),
                json_string(&d.message),
                match &d.hint {
                    Some(h) => json_string(h),
                    None => "null".to_string(),
                }
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_flags() {
        let report = LintReport::new(vec![
            Diagnostic::error("R999", "here", "broken"),
            Diagnostic::warn("R998", "there", "odd"),
        ]);
        assert!(report.has_errors());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warn_count(), 1);
        let table = report.render_table();
        assert!(table.contains("R999"));
        assert!(table.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn empty_report_is_clean() {
        let report = LintReport::default();
        assert!(!report.has_errors());
        assert_eq!(report.render_table(), "lint: no findings\n");
        assert_eq!(
            report.render_json(),
            "{\"errors\": 0, \"warnings\": 0, \"diagnostics\": []}"
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let report = LintReport::new(vec![Diagnostic::error(
            "R999",
            "a\"b",
            "line\nbreak\tand \\ slash",
        )]);
        let json = report.render_json();
        assert!(json.contains("a\\\"b"));
        assert!(json.contains("line\\nbreak\\tand \\\\ slash"));
        assert!(json.contains("\"hint\": null"));
    }
}
