//! Regenerate the appendix post-GC heap-size graphs (e.g. Figure 8): heap
//! occupancy after every collection at 2.0x heap with G1.

use chopin_harness::cli::{check_flags, Args};

fn main() {
    let args = Args::from_env();
    if let Err(e) = check_flags("heaptrace", &args, &[&["b"]]) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let benchmarks = args.list("b");
    if benchmarks.is_empty() {
        eprintln!("usage: heaptrace -b <benchmark>[,..]");
        std::process::exit(2);
    }
    for b in benchmarks {
        match chopin_harness::heap_trace(&b) {
            Ok(t) => println!("{t}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}
