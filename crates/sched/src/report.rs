//! Violation vocabulary — the check catalog, locations, and the report —
//! and [`verify_stages`], the stage-list checks (§3's C1–C3) every
//! `StageGraph` constructor runs.
//!
//! Every invariant the static verifier (`gp-verify`) enforces is a
//! [`Check`] variant with a stable kebab-case [`Check::name`]. The names
//! are the contract shared with DESIGN.md §"Invariant catalog" (each
//! variant's doc comment cites its catalog entry), with the artifact
//! codec's error messages, and with the mutation test suite — renaming
//! one is a breaking change.
//!
//! gp-lint: deterministic — this module decides which stage graphs can
//! exist and names every codec stage error; `cargo xtask lint` scans it
//! for nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::stage::{Stage, StageId};
use gp_cluster::{Cluster, DeviceId};
use gp_cost::Pass;
use gp_ir::{Graph, OpId};
use std::fmt;

/// One invariant in the catalog.
///
/// The variants follow the order of DESIGN.md §"Invariant catalog":
/// strategy-structure checks first, then placement, schedule, memory, and
/// fingerprint-stability checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    /// `mini-batch-positive` — the strategy processes a positive
    /// mini-batch (DESIGN.md §"Invariant catalog").
    MiniBatchPositive,
    /// `stage-ids-dense` — stage ids are `0..n` in storage order
    /// (DESIGN.md §"Invariant catalog").
    StageIdsDense,
    /// `stage-nonempty` — every stage holds at least one operator and has
    /// `kfkb >= 1` (DESIGN.md §"Invariant catalog").
    StageNonEmpty,
    /// `micro-batch-divides` — every stage's micro-batch size is positive
    /// and divides the mini-batch size (DESIGN.md §"Invariant catalog").
    MicroBatchDivides,
    /// `op-cover-exact` — the stages' operator sets cover the model graph
    /// exactly once: condition C1's partition half (DESIGN.md §"Invariant
    /// catalog").
    OpCoverExact,
    /// `op-convex` — every stage's operator set is a convex subgraph:
    /// condition C1's convexity half (DESIGN.md §"Invariant catalog").
    OpConvex,
    /// `device-bounds` — every assigned device exists in the cluster
    /// (DESIGN.md §"Invariant catalog").
    DeviceBounds,
    /// `device-overlap` — no two stages share a device: condition C3's
    /// disjointness half (DESIGN.md §"Invariant catalog").
    DeviceOverlap,
    /// `device-coverage` — stage device ranges cover the cluster exactly:
    /// condition C3's coverage half (DESIGN.md §"Invariant catalog").
    DeviceCoverage,
    /// `stage-acyclic` — the data-derived stage DAG, with any imposed
    /// sequential chain, admits a topological order (DESIGN.md
    /// §"Invariant catalog").
    StageAcyclic,
    /// `edge-derivation` — the recorded stage edges contain every
    /// data-derived edge (condition C2) and any extra edge is an imposed
    /// sequential-chain edge (DESIGN.md §"Invariant catalog").
    EdgeDerivation,
    /// `in-flight-consistent` — the recorded in-flight table equals the
    /// `ComputeInFlight` recomputation over the stage graph (DESIGN.md
    /// §"Invariant catalog").
    InFlightConsistent,
    /// `schedule-coverage` — the schedule provides exactly one task order
    /// per stage, in stage-id order (DESIGN.md §"Invariant catalog").
    ScheduleCoverage,
    /// `task-multiset` — each stage's order runs every micro-batch's
    /// forward and backward exactly once (DESIGN.md §"Invariant catalog").
    TaskMultiset,
    /// `forward-order` — forward passes run in micro-batch order:
    /// condition C4 (DESIGN.md §"Invariant catalog").
    ForwardOrder,
    /// `backward-order` — backward passes run in micro-batch order:
    /// condition C4 (DESIGN.md §"Invariant catalog").
    BackwardOrder,
    /// `backward-after-forward` — no backward precedes its own forward:
    /// condition C4 (DESIGN.md §"Invariant catalog").
    BackwardAfterForward,
    /// `warmup-consistent` — a stage's recorded warm-up length equals its
    /// leading forward run (DESIGN.md §"Invariant catalog").
    WarmupConsistent,
    /// `stash-bound` — a stage's realized peak in-flight samples never
    /// exceed what its in-flight table entry budgets (DESIGN.md
    /// §"Invariant catalog").
    StashBound,
    /// `deadlock-free` — the cross-stage task dependency graph admits a
    /// topological certificate, so the schedule cannot deadlock (DESIGN.md
    /// §"Invariant catalog").
    DeadlockFree,
    /// `memory-budget` — every stage fits the per-device memory budget,
    /// Equation 2 (DESIGN.md §"Invariant catalog").
    MemoryBudget,
    /// `estimate-consistent` — the recorded bottleneck TPS and peak memory
    /// equal their cost-model recomputation bit-exactly; both feed the
    /// plan fingerprint (DESIGN.md §"Invariant catalog").
    EstimateConsistent,
    /// `estimate-finite` — the fingerprinted float estimates are finite
    /// and non-negative, so fingerprint equality keeps implying value
    /// equality (DESIGN.md §"Invariant catalog").
    EstimateFinite,
    /// `plan-path-consistent` — the plan's recorded `PlanPath` equals the
    /// model's (DESIGN.md §"Invariant catalog").
    PlanPathConsistent,
}

impl Check {
    /// The stable kebab-case name, as listed in DESIGN.md §"Invariant
    /// catalog".
    pub fn name(self) -> &'static str {
        match self {
            Check::MiniBatchPositive => "mini-batch-positive",
            Check::StageIdsDense => "stage-ids-dense",
            Check::StageNonEmpty => "stage-nonempty",
            Check::MicroBatchDivides => "micro-batch-divides",
            Check::OpCoverExact => "op-cover-exact",
            Check::OpConvex => "op-convex",
            Check::DeviceBounds => "device-bounds",
            Check::DeviceOverlap => "device-overlap",
            Check::DeviceCoverage => "device-coverage",
            Check::StageAcyclic => "stage-acyclic",
            Check::EdgeDerivation => "edge-derivation",
            Check::InFlightConsistent => "in-flight-consistent",
            Check::ScheduleCoverage => "schedule-coverage",
            Check::TaskMultiset => "task-multiset",
            Check::ForwardOrder => "forward-order",
            Check::BackwardOrder => "backward-order",
            Check::BackwardAfterForward => "backward-after-forward",
            Check::WarmupConsistent => "warmup-consistent",
            Check::StashBound => "stash-bound",
            Check::DeadlockFree => "deadlock-free",
            Check::MemoryBudget => "memory-budget",
            Check::EstimateConsistent => "estimate-consistent",
            Check::EstimateFinite => "estimate-finite",
            Check::PlanPathConsistent => "plan-path-consistent",
        }
    }

    /// Every check in the catalog, in DESIGN.md order. The doc-sync test
    /// and the CI smoke iterate this to keep code and catalog aligned.
    pub fn all() -> &'static [Check] {
        &[
            Check::MiniBatchPositive,
            Check::StageIdsDense,
            Check::StageNonEmpty,
            Check::MicroBatchDivides,
            Check::OpCoverExact,
            Check::OpConvex,
            Check::DeviceBounds,
            Check::DeviceOverlap,
            Check::DeviceCoverage,
            Check::StageAcyclic,
            Check::EdgeDerivation,
            Check::InFlightConsistent,
            Check::ScheduleCoverage,
            Check::TaskMultiset,
            Check::ForwardOrder,
            Check::BackwardOrder,
            Check::BackwardAfterForward,
            Check::WarmupConsistent,
            Check::StashBound,
            Check::DeadlockFree,
            Check::MemoryBudget,
            Check::EstimateConsistent,
            Check::EstimateFinite,
            Check::PlanPathConsistent,
        ]
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a violation was found: any combination of stage, device,
/// operator, and task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Location {
    /// The offending stage, if the violation is stage-scoped.
    pub stage: Option<StageId>,
    /// The offending device, if the violation is device-scoped.
    pub device: Option<DeviceId>,
    /// The offending operator, if the violation is operator-scoped.
    pub op: Option<OpId>,
    /// The offending task instance `(micro-batch, pass)`, if any.
    pub task: Option<(u32, Pass)>,
}

impl Location {
    /// An empty (strategy-global) location.
    pub fn global() -> Location {
        Location::default()
    }

    /// A stage-scoped location.
    pub fn stage(stage: StageId) -> Location {
        Location {
            stage: Some(stage),
            ..Location::default()
        }
    }

    /// Adds a device to the location, builder style.
    pub fn on_device(mut self, device: DeviceId) -> Location {
        self.device = Some(device);
        self
    }

    /// Adds an operator to the location, builder style.
    pub fn at_op(mut self, op: OpId) -> Location {
        self.op = Some(op);
        self
    }

    /// Adds a task instance to the location, builder style.
    pub fn at_task(mut self, mb: u32, pass: Pass) -> Location {
        self.task = Some((mb, pass));
        self
    }
}

impl fmt::Display for Location {
    /// Prints `stage S2, device gpu5, op o7, F(3)` with only the present
    /// parts, or `strategy` when the location is global.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        let sep = |f: &mut fmt::Formatter<'_>, wrote: &mut bool| -> fmt::Result {
            if *wrote {
                write!(f, ", ")?;
            }
            *wrote = true;
            Ok(())
        };
        if let Some(s) = self.stage {
            sep(f, &mut wrote)?;
            write!(f, "stage {s}")?;
        }
        if let Some(d) = self.device {
            sep(f, &mut wrote)?;
            write!(f, "device {d}")?;
        }
        if let Some(o) = self.op {
            sep(f, &mut wrote)?;
            write!(f, "op {o}")?;
        }
        if let Some((mb, pass)) = self.task {
            sep(f, &mut wrote)?;
            let dir = match pass {
                Pass::Forward => 'F',
                Pass::Backward => 'B',
            };
            write!(f, "{dir}({mb})")?;
        }
        if !wrote {
            write!(f, "strategy")?;
        }
        Ok(())
    }
}

/// One named invariant violation with its location and a human-readable
/// detail.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated catalog entry.
    pub check: Check,
    /// Where the violation sits.
    pub location: Location,
    /// What exactly went wrong (values, expectations).
    pub detail: String,
}

impl Violation {
    /// Builds a violation.
    pub fn new(check: Check, location: Location, detail: impl Into<String>) -> Violation {
        Violation {
            check,
            location,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated at {}: {}",
            self.check, self.location, self.detail
        )
    }
}

/// The outcome of a verification pass: every violation found, in check
/// order (the pass itself is deterministic, so so is the report).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    violations: Vec<Violation>,
}

impl VerifyReport {
    /// An empty (clean) report.
    pub fn new() -> VerifyReport {
        VerifyReport::default()
    }

    /// Records a violation.
    pub fn push(&mut self, violation: Violation) {
        self.violations.push(violation);
    }

    /// Records a violation from its parts.
    pub fn fail(&mut self, check: Check, location: Location, detail: impl Into<String>) {
        self.push(Violation::new(check, location, detail));
    }

    /// Whether no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations found, in discovery order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The first violation, if any — the one error paths name.
    pub fn first(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Whether the report contains a violation of `check`.
    pub fn violates(&self, check: Check) -> bool {
        self.violations.iter().any(|v| v.check == check)
    }

    /// Merges another report's violations into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.violations.extend(other.violations);
    }

    /// Converts the report into a `Result`: `Ok(())` when clean,
    /// [`VerifyError`] carrying the full report otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when at least one invariant is violated.
    pub fn into_result(self) -> Result<(), VerifyError> {
        if self.is_clean() {
            Ok(())
        } else {
            Err(VerifyError { report: self })
        }
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "all invariants hold");
        }
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// A failed verification, carrying the full [`VerifyReport`].
///
/// `Display` leads with the first violation (the one a user should read
/// first) and counts the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    report: VerifyReport,
}

impl VerifyError {
    /// The full report behind this error.
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// The first violation — every `VerifyError` has at least one.
    pub fn violation(&self) -> &Violation {
        self.report
            .first()
            .expect("VerifyError is only built from non-clean reports")
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rest = self.report.violations().len() - 1;
        write!(f, "{}", self.violation())?;
        if rest > 0 {
            write!(f, " (+{rest} more)")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a raw stage list against the model graph and cluster:
/// `mini-batch-positive`, `stage-ids-dense`, `stage-nonempty`,
/// `micro-batch-divides`, `op-cover-exact`, `op-convex`, `device-bounds`,
/// `device-overlap`, `device-coverage`, and `stage-acyclic` over the
/// data-derived stage DAG (DESIGN.md §"Invariant catalog").
///
/// [`StageGraph::new`](crate::StageGraph::new) and
/// [`StageGraph::new_sequential`](crate::StageGraph::new_sequential) run
/// this before building anything, so every stage graph satisfies these
/// checks and a rejected stage list is named by invariant.
pub fn verify_stages(
    graph: &Graph,
    cluster: &Cluster,
    stages: &[Stage],
    mini_batch: u64,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    if mini_batch == 0 {
        report.fail(
            Check::MiniBatchPositive,
            Location::global(),
            "mini-batch size is 0",
        );
    }
    if stages.is_empty() {
        report.fail(Check::OpCoverExact, Location::global(), "no stages");
        return report;
    }
    let mut ids_dense = true;
    for (i, s) in stages.iter().enumerate() {
        if s.id.index() != i {
            ids_dense = false;
            report.fail(
                Check::StageIdsDense,
                Location::stage(s.id),
                format!("stage at position {i} has id {}", s.id),
            );
        }
        if s.ops.is_empty() {
            report.fail(
                Check::StageNonEmpty,
                Location::stage(s.id),
                "stage holds no operators",
            );
        }
        if s.kfkb == 0 {
            report.fail(
                Check::StageNonEmpty,
                Location::stage(s.id),
                "kFkB parameter is 0",
            );
        }
        if s.micro_batch == 0 {
            report.fail(
                Check::MicroBatchDivides,
                Location::stage(s.id),
                "micro-batch size is 0",
            );
        } else if mini_batch > 0 && !mini_batch.is_multiple_of(s.micro_batch) {
            report.fail(
                Check::MicroBatchDivides,
                Location::stage(s.id),
                format!(
                    "micro-batch size {} does not divide mini-batch size {mini_batch}",
                    s.micro_batch
                ),
            );
        }
    }
    // C1, partition half: every operator covered exactly once, every
    // referenced operator in range.
    let mut ops_in_bounds = true;
    let mut cover_exact = true;
    let mut stage_of = vec![u32::MAX; graph.len()];
    for s in stages {
        for &op in &s.ops {
            if op.index() >= graph.len() {
                ops_in_bounds = false;
                cover_exact = false;
                report.fail(
                    Check::OpCoverExact,
                    Location::stage(s.id).at_op(op),
                    format!("references operator outside the {}-op graph", graph.len()),
                );
            } else if stage_of[op.index()] != u32::MAX {
                cover_exact = false;
                report.fail(
                    Check::OpCoverExact,
                    Location::stage(s.id).at_op(op),
                    format!(
                        "operator already assigned to stage S{}",
                        stage_of[op.index()]
                    ),
                );
            } else {
                stage_of[op.index()] = s.id.0;
            }
        }
    }
    for (i, &owner) in stage_of.iter().enumerate() {
        if owner == u32::MAX {
            cover_exact = false;
            report.fail(
                Check::OpCoverExact,
                Location::global().at_op(OpId(i as u32)),
                "operator is not assigned to any stage",
            );
        }
    }
    // C1, convexity half (needs in-bounds ops).
    if ops_in_bounds {
        for s in stages {
            if !graph.is_convex(&s.ops) {
                report.fail(
                    Check::OpConvex,
                    Location::stage(s.id),
                    "operator set is not a convex subgraph: a path leaves and re-enters it",
                );
            }
        }
    }
    // C3: device bounds, disjointness, exact coverage.
    for s in stages {
        if s.devices.last().index() >= cluster.device_count() {
            report.fail(
                Check::DeviceBounds,
                Location::stage(s.id).on_device(s.devices.last()),
                format!(
                    "device outside the {}-device cluster",
                    cluster.device_count()
                ),
            );
        }
    }
    for (i, a) in stages.iter().enumerate() {
        for b in &stages[i + 1..] {
            if a.devices.overlaps(&b.devices) {
                report.fail(
                    Check::DeviceOverlap,
                    Location::stage(a.id).on_device(b.devices.first().max(a.devices.first())),
                    format!("device ranges of {} and {} overlap", a.id, b.id),
                );
            }
        }
    }
    let assigned: usize = stages.iter().map(|s| s.devices.len()).sum();
    if assigned != cluster.device_count() {
        report.fail(
            Check::DeviceCoverage,
            Location::global(),
            format!(
                "stages assign {assigned} devices but the cluster has {}",
                cluster.device_count()
            ),
        );
    }
    // Acyclicity of the data-derived stage DAG. Needs dense ids and an
    // exact cover for a trustworthy `stage_of` table.
    if ids_dense && cover_exact {
        let n = stages.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (u, v) in graph.edges() {
            let (su, sv) = (stage_of[u.index()], stage_of[v.index()]);
            if su != sv && !succs[su as usize].contains(&sv) {
                succs[su as usize].push(sv);
                indeg[sv as usize] += 1;
            }
        }
        let mut stack: Vec<u32> = (0..n as u32).filter(|&s| indeg[s as usize] == 0).collect();
        let mut seen = 0usize;
        while let Some(s) = stack.pop() {
            seen += 1;
            for &t in &succs[s as usize] {
                indeg[t as usize] -= 1;
                if indeg[t as usize] == 0 {
                    stack.push(t);
                }
            }
        }
        if seen != n {
            let cyclic = indeg
                .iter()
                .position(|&d| d > 0)
                .map(|i| StageId(i as u32))
                .expect("an unprocessed stage retains in-degree");
            report.fail(
                Check::StageAcyclic,
                Location::stage(cyclic),
                format!("the data-derived stage DAG is cyclic ({seen}/{n} stages sort)"),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_names_are_unique_and_kebab_case() {
        let mut seen = std::collections::BTreeSet::new();
        for &c in Check::all() {
            assert!(seen.insert(c.name()), "duplicate check name {}", c.name());
            assert!(
                c.name()
                    .chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch == '-'),
                "{} is not kebab-case",
                c.name()
            );
            assert_eq!(c.to_string(), c.name());
        }
    }

    /// Doc-sync, both ways: every check name appears (backticked) in
    /// DESIGN.md §"Invariant catalog", in `Check::all()` order, and every
    /// name on a catalog bullet (a line `` * `name` — ``, or two names
    /// joined by ` / `) is a check, so neither side can keep an entry the
    /// other lost.
    #[test]
    fn every_check_is_cataloged_in_design_md() {
        let design = include_str!("../../../DESIGN.md");
        let catalog = &design[design
            .find("## Invariant catalog")
            .expect("DESIGN.md must keep an \"Invariant catalog\" section")..];
        let catalog = &catalog[..catalog.find("\n## ").unwrap_or(catalog.len())];
        let mut cursor = 0;
        for &c in Check::all() {
            let needle = format!("`{}`", c.name());
            let at = catalog[cursor..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{needle} missing or out of order in the catalog"));
            cursor += at + needle.len();
        }
        let bulleted: Vec<&str> = catalog
            .lines()
            .filter_map(|line| line.strip_prefix("* `")?.split_once(" — "))
            .flat_map(|(names, _)| names.split(" / "))
            .map(|name| name.trim_matches('`'))
            .collect();
        for name in &bulleted {
            assert!(
                Check::all().iter().any(|c| c.name() == *name),
                "the catalog lists `{name}`, which is not a check"
            );
        }
        assert_eq!(bulleted.len(), Check::all().len(), "{bulleted:?}");
    }

    #[test]
    fn locations_render_compactly() {
        assert_eq!(Location::global().to_string(), "strategy");
        let loc = Location::stage(StageId(2))
            .on_device(DeviceId(5))
            .at_task(3, Pass::Backward);
        assert_eq!(loc.to_string(), "stage S2, device gpu5, B(3)");
    }

    #[test]
    fn report_collects_and_errors() {
        let mut r = VerifyReport::new();
        assert!(r.is_clean());
        assert!(r.clone().into_result().is_ok());
        r.fail(Check::MemoryBudget, Location::stage(StageId(0)), "over");
        r.fail(Check::EstimateFinite, Location::global(), "NaN");
        assert!(!r.is_clean());
        assert!(r.violates(Check::MemoryBudget));
        assert!(!r.violates(Check::DeadlockFree));
        let err = r.into_result().unwrap_err();
        assert_eq!(err.violation().check, Check::MemoryBudget);
        let text = err.to_string();
        assert!(text.contains("memory-budget"), "{text}");
        assert!(text.contains("+1 more"), "{text}");
    }
}
