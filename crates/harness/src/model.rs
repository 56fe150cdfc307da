//! The `artifact model` subcommand: drive the `chopin-model` bounded
//! exhaustive checker over the fleet lease protocol.
//!
//! ```text
//! artifact model [--check] [--bounds W,C,K[,N]] [--trace] [--out FILE]
//! artifact model --demo lost-lease [--trace]
//! artifact model --demo split-brain [--trace]
//! artifact model --rules
//! ```
//!
//! The default (and `--check`, accepted for symmetry with the other CI
//! gates) explores the shipped protocol under the given bounds — `N` is
//! the network-fault budget, and the default bounds register a standby
//! coordinator and token-gate the fleet — and exits non-zero iff a rule
//! in the R1301–R1305 or R1401–R1403 families is violated. On violation
//! the minimal message-by-message counterexample is always written to
//! `--out` (default `results/model-counterexample.txt`) so CI can
//! upload it; `--trace` additionally prints it to stdout.
//!
//! `--demo lost-lease` checks the deliberately broken resume path
//! instead (persist-to-base skipped before the respawned workers
//! truncate their shards) and exits `1` with the R1303 counterexample —
//! the seeded-bug walkthrough in EXPERIMENTS.md, and the proof the
//! checker can actually see through the journal lifecycle. `--demo
//! split-brain` does the same for the takeover path: the successor is
//! handed its predecessor's nonce (the raw-XOR mint), the shipped fence
//! lets the dead incarnation's frames through, and the checker returns
//! the R1402 counterexample.
//!
//! Exit codes follow the workspace contract: `0` clean, `1` violation
//! found, `2` usage errors or an exploration that could not finish
//! (invalid bounds, state fuse).

use crate::cli::Args;
use crate::output::ResultsDir;
use chopin_model::{
    demo_lost_lease, demo_split_brain, explore, Bounds, ExploreReport, SeededBug, Violation,
};

/// Default artifact path for the counterexample trace CI uploads.
pub const DEFAULT_COUNTEREXAMPLE_OUT: &str = "results/model-counterexample.txt";

/// Render a violation as the human-readable counterexample document:
/// the violated rule, the bounds, the numbered message-by-message trace
/// and the canonical dump of the violating state.
#[must_use]
pub fn render_counterexample(bounds: &Bounds, violation: &Violation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "rule      {}", violation.rule);
    let _ = writeln!(out, "violation {}", violation.summary);
    let _ = writeln!(
        out,
        "bounds    workers={} cells={} crashes={} net={} standby={} token={} \
         failing={} retries={} deadline={}ms",
        bounds.workers,
        bounds.cells,
        bounds.crashes,
        bounds.net,
        bounds.standby,
        bounds.token,
        bounds.failing_cells,
        bounds.max_retries,
        bounds.deadline_ms
    );
    let _ = writeln!(out);
    if violation.trace.is_empty() {
        let _ = writeln!(out, "trace: the initial state itself violates the rule");
    } else {
        let _ = writeln!(
            out,
            "minimal counterexample ({} step(s)):",
            violation.trace.len()
        );
        for (i, step) in violation.trace.iter().enumerate() {
            let _ = writeln!(out, "  {:>2}. {step}", i + 1);
        }
    }
    if !violation.state.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "violating state:");
        for line in violation.state.lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

fn print_report(bounds: &Bounds, report: &ExploreReport) {
    println!(
        "model: explored {} state(s), {} transition(s), depth {}, {} terminal(s) \
         under bounds {},{},{},{}",
        report.states,
        report.transitions,
        report.max_depth,
        report.terminals,
        bounds.workers,
        bounds.cells,
        bounds.crashes,
        bounds.net,
    );
}

fn emit_violation(bounds: &Bounds, violation: &Violation, args: &Args) -> i32 {
    let document = render_counterexample(bounds, violation);
    eprintln!(
        "check FAILED: {} violated: {}",
        violation.rule, violation.summary
    );
    if args.has("trace") {
        print!("{document}");
    }
    let out = args.value("out").unwrap_or(DEFAULT_COUNTEREXAMPLE_OUT);
    let (dir, name) = match out.rsplit_once('/') {
        Some((dir, name)) => (dir.to_string(), name.to_string()),
        None => (".".to_string(), out.to_string()),
    };
    match ResultsDir::create(&dir).and_then(|d| d.write(&name, &document)) {
        Ok(path) => eprintln!("counterexample written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write the counterexample: {e}"),
    }
    1
}

/// Entry point for `artifact model`. See the module docs for the flag
/// surface and exit codes.
pub fn run_model(args: &Args) -> i32 {
    if args.has("rules") {
        print!("{}", chopin_lint::render_catalogue());
        return 0;
    }
    if let Some(demo) = args.value("demo") {
        let (bounds, outcome) = match demo {
            "lost-lease" => {
                eprintln!(
                    "artifact model: exploring the seeded lost-lease resume bug \
                     (persist-to-base skipped)"
                );
                let bounds = Bounds {
                    workers: 1,
                    cells: 1,
                    crashes: 2,
                    net: 0,
                    standby: false,
                    token: false,
                    failing_cells: 0,
                    ..Bounds::default()
                };
                (bounds, demo_lost_lease())
            }
            "split-brain" => {
                eprintln!(
                    "artifact model: exploring the seeded split-brain takeover bug \
                     (successor handed its predecessor's nonce)"
                );
                let bounds = Bounds {
                    workers: 1,
                    cells: 1,
                    crashes: 1,
                    net: 0,
                    token: false,
                    failing_cells: 0,
                    ..Bounds::default()
                };
                (bounds, demo_split_brain())
            }
            _ => {
                eprintln!("error: unknown demo `{demo}` (available: lost-lease, split-brain)");
                return 2;
            }
        };
        return match outcome {
            Ok(report) => {
                print_report(&bounds, &report);
                match &report.violation {
                    Some(violation) => emit_violation(&bounds, violation, args),
                    None => {
                        eprintln!("error: the seeded bug was not caught — the checker is blind");
                        2
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        };
    }
    let bounds = match args.value("bounds") {
        Some(spec) => match Bounds::parse(spec) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        },
        None => Bounds::default(),
    };
    eprintln!(
        "artifact model: exhaustively exploring the fleet lease protocol \
         (workers={}, cells={}, crash budget={}, net budget={}, standby={}, token={})",
        bounds.workers, bounds.cells, bounds.crashes, bounds.net, bounds.standby, bounds.token
    );
    match explore(&bounds, SeededBug::None) {
        Ok(report) => {
            print_report(&bounds, &report);
            match &report.violation {
                Some(violation) => emit_violation(&bounds, violation, args),
                None => {
                    println!(
                        "check OK: R1301-R1305 and R1401-R1403 hold across every \
                         reachable state under these bounds"
                    );
                    0
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_counterexample_document_numbers_every_step() {
        let bounds = Bounds::default();
        let violation = Violation {
            rule: "R1303",
            summary: "cell 0 lost".to_string(),
            trace: vec!["grant".to_string(), "crash".to_string()],
            state: "done=false\n".to_string(),
        };
        let doc = render_counterexample(&bounds, &violation);
        assert!(doc.contains("rule      R1303"), "{doc}");
        assert!(doc.contains("   1. grant"), "{doc}");
        assert!(doc.contains("   2. crash"), "{doc}");
        assert!(doc.contains("violating state:"), "{doc}");
        assert!(doc.contains("minimal counterexample (2 step(s))"), "{doc}");
    }

    #[test]
    fn demo_mode_rejects_unknown_demos() {
        let args = Args::parse(["model", "--demo", "lost-sock"]);
        assert_eq!(run_model(&args), 2);
    }

    #[test]
    fn bad_bounds_are_a_usage_error() {
        let args = Args::parse(["model", "--bounds", "0,1,1"]);
        assert_eq!(run_model(&args), 2);
        let args = Args::parse(["model", "--bounds", "nope"]);
        assert_eq!(run_model(&args), 2);
    }
}
