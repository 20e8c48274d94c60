//! The determinism lint: `cargo xtask lint`.
//!
//! Plan fingerprints (`gp-serve`), artifact bytes, and golden tables are
//! all *byte*-deterministic promises. This lint statically scans the
//! modules behind those promises — every file whose module doc (a `//!`
//! line) carries the `gp-lint: deterministic` tag — for source patterns
//! that historically break such promises:
//!
//! * `HashMap` / `HashSet` — iteration order varies run to run;
//! * `.values()` / `.keys()` — map iteration even through an alias;
//! * `SystemTime` / `Instant::now` — wall-clock values leaking into data;
//! * `thread::current` / `ThreadId` — thread identity leaking into data.
//!
//! Legitimate uses (lookup-only maps, wall-clock search *statistics* that
//! are excluded from fingerprints) are declared in `lint-allowlist.txt`
//! with a justification; an allowlist entry that no longer matches
//! anything is itself an error, so the file cannot rot. The lint is
//! text-based on purpose: no parser dependency, and the hazard tokens are
//! distinctive enough that comments (skipped) and strings are not a
//! problem in practice.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The module-doc tag that opts a file into the lint.
pub const TAG: &str = "gp-lint: deterministic";

/// Whether a module doc (`//!` line) carries the tag; a `//` comment or a
/// string literal that spells it does not opt the file in.
fn is_tagged(text: &str) -> bool {
    text.lines()
        .any(|l| l.trim_start().starts_with("//!") && l.contains(TAG))
}

/// The allowlist file, relative to the repo root.
pub const ALLOWLIST: &str = "lint-allowlist.txt";

/// Files that MUST carry the tag: the fingerprint pipeline, the artifact
/// codec, every producer of the data they hash, and the stage-list checks
/// that decide which stage graphs exist and name the codec's stage errors.
/// Dropping the tag from one of these is a lint error, so the protection
/// cannot silently erode.
const REQUIRED_TAGGED: &[&str] = &[
    "crates/serve/src/fingerprint.rs",
    "crates/serve/src/artifact.rs",
    "crates/serve/src/json.rs",
    "crates/fleet/src/store.rs",
    "crates/sim/src/engine.rs",
    "crates/sim/src/report.rs",
    "crates/sched/src/report.rs",
    "crates/sched/src/stage.rs",
    "crates/sched/src/tasks.rs",
    "crates/sched/src/inflight.rs",
    "crates/partition/src/plan.rs",
    "crates/partition/src/dp.rs",
    "crates/baselines/src/lib.rs",
    "crates/baselines/src/pipedream.rs",
    "crates/baselines/src/piper.rs",
    "crates/ir/src/graph.rs",
    "crates/ir/src/sp.rs",
    "crates/ir/src/dag.rs",
    "crates/ir/src/identity.rs",
];

/// Hazard token and why it endangers determinism.
const HAZARDS: &[(&str, &str)] = &[
    ("HashMap", "iteration order varies run to run"),
    ("HashSet", "iteration order varies run to run"),
    (".values()", "map iteration, even through an alias"),
    (".keys()", "map iteration, even through an alias"),
    ("SystemTime", "wall-clock value can leak into hashed data"),
    ("Instant::now", "wall-clock value can leak into hashed data"),
    (
        "thread::current",
        "thread identity can leak into hashed data",
    ),
    ("ThreadId", "thread identity can leak into hashed data"),
];

struct Finding {
    file: String,
    line: usize,
    pattern: &'static str,
    why: &'static str,
    text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: `{}` ({}): {}",
            self.file,
            self.line,
            self.pattern,
            self.why,
            self.text.trim()
        )
    }
}

struct AllowEntry {
    file: String,
    pattern: String,
    line_no: usize,
    used: bool,
}

fn parse_allowlist(root: &Path) -> Result<Vec<AllowEntry>, String> {
    let path = root.join(ALLOWLIST);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(3, '|').map(str::trim).collect();
        if parts.len() != 3 || parts[2].is_empty() {
            return Err(format!(
                "{ALLOWLIST}:{}: expected `path | pattern | justification`",
                i + 1
            ));
        }
        entries.push(AllowEntry {
            file: parts[0].to_string(),
            pattern: parts[1].to_string(),
            line_no: i + 1,
            used: false,
        });
    }
    Ok(entries)
}

/// All `.rs` files under the workspace's first-party source trees
/// (`crates/*/src`), sorted for stable output.
fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = Vec::new();
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for c in crates.flatten() {
            // The lint's own source spells the tag and every hazard token;
            // the tooling crate is not a determinism-sensitive module.
            if c.file_name() == "xtask" {
                continue;
            }
            stack.push(c.path().join("src"));
        }
    }
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Scans one tagged file, appending hazards that no allowlist entry covers.
fn scan(rel: &str, text: &str, allow: &mut [AllowEntry], findings: &mut Vec<Finding>) {
    for (i, line) in text.lines().enumerate() {
        // Test modules sit at the end of each file by repository
        // convention; their scaffolding may use whatever it likes.
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        for &(pattern, why) in HAZARDS {
            if !line.contains(pattern) {
                continue;
            }
            let mut allowed = false;
            for entry in allow.iter_mut() {
                if entry.file == rel && entry.pattern == pattern {
                    entry.used = true;
                    allowed = true;
                }
            }
            if !allowed {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: i + 1,
                    pattern,
                    why,
                    text: line.to_string(),
                });
            }
        }
    }
}

pub fn run() -> ExitCode {
    let root = crate::repo_root();
    let mut allow = match parse_allowlist(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut findings = Vec::new();
    let mut errors = Vec::new();
    let mut tagged = 0usize;
    let mut tagged_files = Vec::new();
    for path in source_files(&root) {
        let rel = path
            .strip_prefix(&root)
            .expect("source files live under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(&path) else {
            errors.push(format!("cannot read {rel}"));
            continue;
        };
        if !is_tagged(&text) {
            continue;
        }
        tagged += 1;
        tagged_files.push(rel.clone());
        scan(&rel, &text, &mut allow, &mut findings);
    }
    for required in REQUIRED_TAGGED {
        if !tagged_files.iter().any(|f| f == required) {
            errors.push(format!(
                "{required} must carry the `{TAG}` tag (it feeds fingerprints or the codec)"
            ));
        }
    }
    for entry in &allow {
        if !entry.used {
            errors.push(format!(
                "{ALLOWLIST}:{}: unused entry `{} | {}` — the hazard it excused is gone; delete it",
                entry.line_no, entry.file, entry.pattern
            ));
        }
    }
    for f in &findings {
        eprintln!("lint: {f}");
    }
    for e in &errors {
        eprintln!("lint: {e}");
    }
    if findings.is_empty() && errors.is_empty() {
        println!(
            "lint: clean — {tagged} tagged modules, {} allowlisted exceptions",
            allow.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lint: {} hazard(s), {} error(s); justify real exceptions in {ALLOWLIST}",
            findings.len(),
            errors.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_module_docs_carry_the_tag() {
        assert!(is_tagged(
            "//! Docs.\n//!\n//! gp-lint: deterministic — why.\n"
        ));
        assert!(!is_tagged("// gp-lint: deterministic\nfn f() {}\n"));
        assert!(!is_tagged("const T: &str = \"gp-lint: deterministic\";\n"));
        assert!(!is_tagged("/// gp-lint: deterministic\nfn f() {}\n"));
    }
}
