//! Print nominal statistics: Table 1 (--describe), Table 2 (--table2), or
//! a per-benchmark appendix table (`-b <name>`, the suite's `-p` flag), plus
//! the paper's methodological recommendations (--recommendations).

use chopin_core::methodology::RECOMMENDATIONS;
use chopin_harness::cli::{check_flags, Args};

fn main() {
    let args = Args::from_env();
    if let Err(e) = check_flags(
        "nominal",
        &args,
        &[&["b", "describe", "recommendations", "table2"]],
    ) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if args.has("describe") {
        println!("{}", chopin_harness::table1());
        return;
    }
    if args.has("table2") {
        println!("{}", chopin_harness::table2());
        return;
    }
    if args.has("recommendations") {
        for r in RECOMMENDATIONS {
            println!("Recommendation {} ({}): {}\n", r.id, r.area, r.text);
        }
        return;
    }
    let benchmarks = args.list("b");
    if benchmarks.is_empty() {
        eprintln!("usage: nominal --describe | --table2 | --recommendations | -b <benchmark>[,..]");
        std::process::exit(2);
    }
    for b in benchmarks {
        match chopin_harness::nominal_table(&b) {
            Ok(t) => println!("{t}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}
