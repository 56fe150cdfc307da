//! Re-measure the G/P-family nominal statistics on the simulated runtime
//! and compare them — values and Spearman rank agreement — with the
//! paper's published dataset (the reproduction's analog of the suite's
//! bundled characterisation instrumentation, §5.1).
//!
//! ```text
//! characterize                 # whole suite
//! characterize -b fop,jython   # selected benchmarks
//! characterize --minheap       # also bisect empirical minimum heaps
//! ```

use chopin_core::characterize::{characterize, rank_agreement, CharacterizeConfig, MeasuredStats};
use chopin_core::nominal::row;
use chopin_core::Suite;
use chopin_harness::cli::{check_flags, Args};
use chopin_harness::plot::render_table;

fn main() {
    let args = Args::from_env();
    if let Err(e) = check_flags("characterize", &args, &[&["b", "minheap", "iterations"]]) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let mut benchmarks = args.list("b");
    if benchmarks.is_empty() {
        benchmarks = Suite::chopin()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    let config = CharacterizeConfig {
        with_min_heap: args.has("minheap"),
        iterations: args.count_or("iterations", 5).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    };

    let suite = Suite::chopin();
    let mut measured: Vec<MeasuredStats> = Vec::new();
    for name in &benchmarks {
        let Some(bench) = suite.benchmark(name) else {
            eprintln!("error: unknown benchmark `{name}`");
            std::process::exit(1);
        };
        eprintln!("characterizing {name}...");
        match characterize(bench.profile(), &config) {
            Ok(stats) => measured.push(stats),
            Err(e) => {
                eprintln!("error: {name}: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut rows = Vec::new();
    for m in &measured {
        let published = row(&m.benchmark).expect("suite benchmark");
        let p = |code: &str| {
            published
                .value(code)
                .map(|v| format!("{v}"))
                .unwrap_or_else(|| "-".into())
        };
        rows.push(vec![
            m.benchmark.clone(),
            format!("{} / {}", m.gc_count_2x, p("GCC")),
            format!("{:.1} / {}", m.gc_pause_pct_2x, p("GCP")),
            format!(
                "{} / {}",
                m.avg_post_gc_pct
                    .map(|v| format!("{v:.0}"))
                    .unwrap_or_else(|| "-".into()),
                p("GCA")
            ),
            format!("{:.0} / {}", m.heap_sensitivity_pct, p("GSS")),
            format!("{:.1} / {}", m.freq_speedup_pct, p("PFS")),
            format!("{:.1} / {}", m.slow_memory_slowdown_pct, p("PMS")),
            format!("{:.1} / {}", m.reduced_llc_slowdown_pct, p("PLS")),
            m.leakage_pct
                .map(|l| format!("{l:.0} / {}", p("GLK")))
                .unwrap_or_else(|| "-".into()),
            format!("{:.0} / {}", m.forced_c2_slowdown_pct, p("PCC")),
            format!("{:.0} / {}", m.interpreter_slowdown_pct, p("PIN")),
            format!("{} / {}", m.warmup_iterations, p("PWU")),
            m.min_heap_bytes
                .map(|b| format!("{:.0} / {}", b as f64 / (1 << 20) as f64, p("GMD")))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "GCC m/p",
                "GCP m/p",
                "GCA m/p",
                "GSS m/p",
                "PFS m/p",
                "PMS m/p",
                "PLS m/p",
                "GLK m/p",
                "PCC m/p",
                "PIN m/p",
                "PWU m/p",
                "GMD m/p",
            ],
            &rows,
        )
    );

    if measured.len() >= 5 {
        println!(
            "\nSpearman rank agreement (measured vs published), n={}:",
            measured.len()
        );
        let pairs: Vec<(&str, Vec<f64>, Vec<f64>)> = vec![
            (
                "GCC",
                measured.iter().map(|m| m.gc_count_2x as f64).collect(),
                measured
                    .iter()
                    .map(|m| row(&m.benchmark).unwrap().value("GCC").unwrap_or(0.0))
                    .collect(),
            ),
            (
                "GSS",
                measured.iter().map(|m| m.heap_sensitivity_pct).collect(),
                measured
                    .iter()
                    .map(|m| row(&m.benchmark).unwrap().value("GSS").unwrap_or(0.0))
                    .collect(),
            ),
            (
                "GCP",
                measured.iter().map(|m| m.gc_pause_pct_2x).collect(),
                measured
                    .iter()
                    .map(|m| row(&m.benchmark).unwrap().value("GCP").unwrap_or(0.0))
                    .collect(),
            ),
            (
                "PFS",
                measured.iter().map(|m| m.freq_speedup_pct).collect(),
                measured
                    .iter()
                    .map(|m| row(&m.benchmark).unwrap().value("PFS").unwrap_or(0.0))
                    .collect(),
            ),
            (
                "PCC",
                measured.iter().map(|m| m.forced_c2_slowdown_pct).collect(),
                measured
                    .iter()
                    .map(|m| row(&m.benchmark).unwrap().value("PCC").unwrap_or(0.0))
                    .collect(),
            ),
            (
                "PIN",
                measured
                    .iter()
                    .map(|m| m.interpreter_slowdown_pct)
                    .collect(),
                measured
                    .iter()
                    .map(|m| row(&m.benchmark).unwrap().value("PIN").unwrap_or(0.0))
                    .collect(),
            ),
        ];
        for (code, m, p) in pairs {
            match rank_agreement(&p, &m) {
                Some(rho) => println!("  {code}: rho = {rho:.3}"),
                None => println!("  {code}: undefined"),
            }
        }
    }
}
