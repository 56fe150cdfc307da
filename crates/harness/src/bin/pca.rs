//! Regenerate Figure 4: the principal components analysis of the 22
//! workloads over the complete nominal statistics.

use chopin_harness::cli::{check_flags, Args};

fn main() {
    if let Err(e) = check_flags("pca", &Args::from_env(), &[]) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    match chopin_harness::pca_figure() {
        Ok(fig) => println!("{fig}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
