//! Repository automation, invoked as `cargo xtask <subcommand>` (the alias
//! lives in `.cargo/config.toml`).
//!
//! * `lint` — the source-level determinism lint: scans every module tagged
//!   `gp-lint: deterministic` for nondeterminism hazards (`HashMap`/
//!   `HashSet` iteration, wall-clock reads, thread-identity leaks) that
//!   could corrupt plan fingerprints or artifact bytes, honoring the
//!   justified exceptions in `lint-allowlist.txt`. CI runs this as the
//!   `verify-lint` gate. See DESIGN.md §"Determinism lint".
//! * `verify-goldens [--bless]` — decodes every committed golden plan
//!   artifact under `tests/goldens/`, runs the full `gp-verify` static
//!   analysis on it, re-plans the same problem fresh, and checks the bytes
//!   and the plan agree; `--bless` regenerates the files (with the
//!   wall-clock stat zeroed so the bytes are reproducible).
//! * `fleet-smoke` — boots a loopback TCP planner worker and a two-shard
//!   store-backed `gp-fleet` service in a temp directory, round-trips
//!   three zoo models, and asserts the served artifacts are byte-identical
//!   to in-process plans and that a warm restart replays the store with
//!   zero planner runs. CI runs this after the examples.
//! * `trace-check <file.json>...` — validates Chrome/Perfetto
//!   `trace_event` JSON (as exported by `gp-obs` and the `--trace` flags):
//!   well-formed, non-negative durations, properly paired `B`/`E` events
//!   per lane. CI runs it against a freshly exported session trace.

mod fleet_smoke;
mod goldens;
mod lint;
mod trace;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::run(),
        Some("verify-goldens") => goldens::run(args.iter().any(|a| a == "--bless")),
        Some("trace-check") => trace::run(&args[1..]),
        Some("fleet-smoke") => fleet_smoke::run(),
        other => {
            eprintln!(
                "usage: cargo xtask <lint | verify-goldens [--bless] | trace-check <file>... | fleet-smoke>{}",
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
