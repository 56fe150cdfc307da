//! Entry point of the sweep benchmark; see the crate docs for the flags.

fn main() {
    // Must run first: the sandbox probe re-spawns this executable as a
    // no-op worker.
    chopin_sweepbench::layers::worker_main();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(chopin_sweepbench::main_with(&argv));
}
