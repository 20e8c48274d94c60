//! Repository automation, invoked as `cargo xtask <subcommand>` (the alias
//! lives in `.cargo/config.toml`).
//!
//! * `lint` — the source-level determinism lint: scans every module tagged
//!   `gp-lint: deterministic` for nondeterminism hazards (`HashMap`/
//!   `HashSet` iteration, wall-clock reads, thread-identity leaks) that
//!   could corrupt plan fingerprints or artifact bytes, honoring the
//!   justified exceptions in `lint-allowlist.txt`. CI runs this in the
//!   `lint` job. See DESIGN.md §"Determinism lint".

mod lint;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::run(),
        other => {
            eprintln!(
                "usage: cargo xtask lint{}",
                other.map_or(String::new(), |o| format!(" (got `{o}`)"))
            );
            ExitCode::FAILURE
        }
    }
}

/// The repository root (the workspace the xtask binary was built from).
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/xtask sits two levels under the repo root")
        .to_path_buf()
}
