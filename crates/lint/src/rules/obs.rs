//! R6xx: observability configuration validity — export paths.
//!
//! A bad export path fails *after* the simulation has run. R601 rejects
//! it before a single slice executes.

use crate::diagnostic::Diagnostic;
use chopin_obs::ObsConfig;

/// R601: an export path must be writable-shaped — non-empty, not a
/// directory-like path (no trailing separator), and not pointing into a
/// parent that is obviously not a directory name (empty component).
fn lint_output_path(name: &str, flag: &str, path: &str) -> Vec<Diagnostic> {
    let loc = format!("obs:{name}:{flag}");
    let mut out = Vec::new();
    if path.trim().is_empty() {
        out.push(
            Diagnostic::error("R601", loc, format!("{flag} path is empty"))
                .with_hint("pass a file path, e.g. out/trace.json"),
        );
        return out;
    }
    if path.ends_with('/') || path.ends_with('\\') {
        out.push(
            Diagnostic::error(
                "R601",
                loc.clone(),
                format!("{flag} path `{path}` names a directory, not a file"),
            )
            .with_hint("append a file name, e.g. trace.json"),
        );
    }
    if path.contains("//") {
        // `a//b` style paths hide typos; absolute paths legitimately start
        // with a single separator and trailing ones are caught above.
        out.push(
            Diagnostic::error(
                "R601",
                loc,
                format!("{flag} path `{path}` contains an empty component"),
            )
            .with_hint("remove the doubled separator"),
        );
    }
    out
}

/// Lint one observability configuration: R601 (export paths are
/// writable-shaped).
///
/// # Examples
///
/// ```
/// use chopin_obs::ObsConfig;
///
/// assert!(chopin_lint::lint_obs_config("default", &ObsConfig::default()).is_empty());
/// let bad = ObsConfig { trace_out: Some("out/".to_string()), ..ObsConfig::default() };
/// assert!(!chopin_lint::lint_obs_config("bad", &bad).is_empty());
/// ```
pub fn lint_obs_config(name: &str, config: &ObsConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Some(path) = &config.events_out {
        out.extend(lint_output_path(name, "--events-out", path));
    }
    if let Some(path) = &config.trace_out {
        out.extend(lint_output_path(name, "--trace-out", path));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_clean() {
        assert!(lint_obs_config("default", &ObsConfig::default()).is_empty());
    }

    #[test]
    fn good_paths_are_clean() {
        let cfg = ObsConfig {
            events_out: Some("out/events.jsonl".to_string()),
            trace_out: Some("/tmp/trace.json".to_string()),
        };
        assert!(lint_obs_config("ok", &cfg).is_empty());
    }

    #[test]
    fn r601_rejects_directory_and_empty_paths() {
        for bad in ["", "   ", "out/", "out//trace.json"] {
            let cfg = ObsConfig {
                trace_out: Some(bad.to_string()),
                ..ObsConfig::default()
            };
            let diags = lint_obs_config("bad", &cfg);
            assert!(
                diags.iter().any(|d| d.rule == "R601"),
                "path {bad:?} should fire R601"
            );
        }
    }
}
