//! Print an OpenJDK-style GC log for one benchmark run — the diagnostic
//! §6.3 reaches for when explaining Shenandoah's behaviour on h2.
//!
//! ```text
//! gclog -b h2 --collector shenandoah --heap-factor 2
//! ```

use chopin_core::Suite;
use chopin_harness::cli::{check_flags, Args};
use chopin_runtime::collector::CollectorKind;
use chopin_runtime::gclog::render_gc_log;

fn main() {
    let args = Args::from_env();
    if let Err(e) = check_flags("gclog", &args, &[&["b", "collector", "heap-factor"]]) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let benchmarks = args.list("b");
    let Some(bench_name) = benchmarks.first() else {
        eprintln!("usage: gclog -b <benchmark> [--collector g1] [--heap-factor 2.0]");
        std::process::exit(2);
    };
    let collector: CollectorKind = match args.value("collector").unwrap_or("g1").parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let factor = args.get_or("heap-factor", 2.0).unwrap_or(2.0);

    let suite = Suite::chopin();
    let Some(bench) = suite.benchmark(bench_name) else {
        eprintln!("error: unknown benchmark `{bench_name}`");
        std::process::exit(1);
    };
    match bench
        .runner()
        .collector(collector)
        .heap_factor(factor)
        .iterations(2)
        .run()
    {
        Ok(set) => print!("{}", render_gc_log(set.timed())),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
