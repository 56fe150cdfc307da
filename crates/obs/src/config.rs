//! Observability configuration, shared by the harness CLI and the lint
//! rule that validates it.

/// Where a run's observability output goes.
///
/// Built from the harness's `--events-out` / `--trace-out` flags; the
/// defaults disable both exports. `chopin-lint`'s R601 validates an
/// instance before a run starts, so a misconfigured path fails fast
/// instead of after an hour of simulation.
///
/// # Examples
///
/// ```
/// use chopin_obs::ObsConfig;
///
/// let cfg = ObsConfig::default();
/// assert!(!cfg.enabled());
/// let cfg = ObsConfig {
///     trace_out: Some("out/trace.json".to_string()),
///     ..ObsConfig::default()
/// };
/// assert!(cfg.enabled());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// JSONL event-stream output path (`--events-out`), if any.
    pub events_out: Option<String>,
    /// Chrome-trace JSON output path (`--trace-out`), if any.
    pub trace_out: Option<String>,
}

impl ObsConfig {
    /// Whether any export is requested.
    pub fn enabled(&self) -> bool {
        self.events_out.is_some() || self.trace_out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_but_well_formed() {
        let cfg = ObsConfig::default();
        assert!(!cfg.enabled());
        assert_eq!((cfg.events_out, cfg.trace_out), (None, None));
    }
}
