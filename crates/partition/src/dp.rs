//! The GraphPipe pipeline-stage partitioner (Algorithm 1 of the paper).
//!
//! The planner binary-searches the bottleneck Time-Per-Sample and, for each
//! target `t_max`, runs a dynamic program over the model's series-parallel
//! tree that decides — jointly — the stage partition, per-stage device
//! counts, micro-batch sizes, and schedule parameters, while the in-flight
//! accounting of `gp-sched` flows backwards from sinks to sources.
//!
//! DP subproblems follow §5:
//!
//! * **base case** — treat the whole subgraph as a single stage with
//!   `d`-way data parallelism;
//! * **series decomposition** — split a chain, solve the suffix first (its
//!   entry stages' schedule configurations become the head's boundary
//!   configuration `c_m`), then the head;
//! * **parallel decomposition** — split the branch set, solve both sides
//!   against the same boundary, and take the larger in-flight requirement
//!   at the shared boundary;
//! * **join absorption** — a `Branches` element followed by small join
//!   operators (e.g. `Concat`) may fold the joins into the final stage of
//!   its last branch, reproducing the §7.5 case-study partition where "one
//!   stage necessarily contains the concatenation operator".
//!
//! The feasibility-style DP is what makes GraphPipe's search fast (§7.2):
//! a fragment whose *total* work already exceeds `d * t_max` cannot be
//! partitioned into stages meeting the target, so whole subtrees — and most
//! of the device-split range at each chain cut — are pruned by a
//! work-conservation bound. The sequential baselines optimize min-max
//! directly and get no such pruning.
//!
//! # Arena / slab memo layout
//!
//! The DP state is arena-indexed, `Send`, and allocation-light:
//!
//! * the SP tree lives in a flat [`Arena`] (`NodeIdx = u32`), built once
//!   per search by [`SearchCtx::new`] with every absorbed chain variant
//!   interned up front, so a `NodeIdx` names the same node in every run;
//!   each chain node's micro-batch-independent aggregates
//!   ([`ChainStatic`]) are built beside it, and every run borrows both;
//! * solved fragments live in a slab (`FragId = u32`). A [`Frag`] is
//!   either a single proto-stage or the O(1) concatenation of two earlier
//!   fragments, so combining candidates never copies stage vectors — the
//!   winning fragment is flattened into a [`Solution`] once per DP run;
//! * downstream boundary configurations ([`Down`]) are interned into a
//!   flat `Vec` and addressed by `DownId = u32`;
//! * the memo is a dense table, not a hash map: every `(node, interval)`
//!   subproblem owns a precomputed *slot* (leaves: one; chains: one per
//!   suffix; branches: one per `[from, to)` range), and each slot holds
//!   dense `[d - 1] -> FragId` columns per interned `DownId`. Lookups are
//!   pure indexing; `reset` between binary-search probes is dropping the
//!   state wholesale;
//! * a run's one prefix-time cache is a flat array indexed by `NodeIdx`
//!   (× micro-batch candidate), serving chain splits and branch splits
//!   alike, and op-membership tests use a stamped scratch array instead
//!   of per-call hash sets;
//! * every per-op time those caches sum comes from the search's
//!   [`OpTable`], built once by [`SearchCtx::new`] and keyed by `OpId`, and
//!   every per-op byte count from the graph, which computed them when it
//!   was built: a run computes no `op_time` of its own;
//! * every candidate stage is priced by one evaluator,
//!   [`Dp::eval_candidates`], over a window of `(devices, boundary)`
//!   pairs, through gp-cost's [`CostModel::candidate_tps`] and
//!   [`CostModel::stage_memory`], the functions the baselines price with.
//!
//! # Determinism, the lazy probe & the fan-out
//!
//! A single DP run is a pure function of `(graph, cost, SP tree, t_max,
//! micro-batch candidates, eval budget)`: candidate enumeration order,
//! tie-breaking, and `Down` interning order are all fixed, and the run
//! reads no state of other runs, only the search's immutable arena and
//! op-time table. The binary search's probe *sequence* is
//! in turn a deterministic function of per-probe feasibility, so a probe
//! is **lazy**: its answer is the first micro-batch configuration, in
//! [`SearchCtx::run_specs`] order, whose DP run is feasible, and it
//! consumes no run past that one. PickBetter's pick across
//! configurations is kept only at the final target, so once the bisection
//! closes, the **completion pass** runs that target's unconsumed
//! configurations and picks among them in configuration order, starting
//! from the probe's answer: the pick a probe that ran every configuration
//! would make, so plans do not depend on the laziness.
//!
//! A pass's runs are independent, so it may **fan them out** onto helper
//! threads drawn from the process-wide [`CoreBudget`]: the calling thread
//! takes runs from the front of a shared range and its helpers from the
//! back. A run that ends the pass (the first feasible one of a probe, or
//! one that ran out of budget) lowers the pass's [`Cut`] to its index:
//! nothing past it is claimed, and runs past it stop at their next poll
//! as [`Outcome::Cancelled`] and are never read. [`consume`] merges the
//! runs up to the cut in configuration order, so the returned [`Plan`] —
//! strategy *and* deterministic counters — does not depend on the thread
//! count or the interleaving; only `stats.wall` does.
//!
//! The eval budget has one rule: every charge is a whole batch, and a run
//! halts at the first batch past its budget. Until it halts, a run's
//! count does not depend on its budget, so a helper's run, which executes
//! under the pass's whole remaining budget, passes the sequential
//! remainder exactly when the sequential search would run out of budget
//! in it. [`consume`] reports any such run as
//! [`PlanError::SearchExplosion`] with `eval_budget + 1` evals, the
//! baselines' rule, whatever the helper count.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::cores::CoreBudget;
use crate::plan::{Plan, PlanError, PlanOptions, Planner, SearchStats};
use gp_cluster::{Cluster, DeviceRange};
use gp_cost::{CostModel, OpTable};
use gp_ir::{Graph, OpId, SpBlock, SpModel};
use gp_obs::{ClockHandle, Telemetry};
use gp_sched::{compute_in_flight, Stage, StageGraph, StageId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------- arena --

type NodeIdx = u32;

#[derive(Debug, Clone)]
enum ANode {
    Leaf(OpId),
    Chain(Vec<NodeIdx>),
    Branches(Vec<NodeIdx>),
}

/// Flat storage for the SP tree and every absorbed chain variant, built
/// once per search.
struct Arena {
    nodes: Vec<ANode>,
    /// Full operator list per node, in forward topological order.
    ops: Vec<Vec<OpId>>,
    root: NodeIdx,
    /// `(chain, s, e)` → the chain of the last branch of `chain`'s
    /// `Branches` element `s`, followed by its join elements `[s + 1, e)`.
    variants: FastMap<(NodeIdx, u16, u16), NodeIdx>,
    /// First memo slot of each node, then the total slot count.
    slot_base: Vec<u32>,
}

impl Arena {
    /// The SP tree under `block`, then its absorbed variants: a worklist
    /// over every chain node, variants included, because a variant's
    /// elements can hold a `[Branches, join...]` run of their own.
    fn build(block: &SpBlock) -> Arena {
        let mut arena = Arena {
            nodes: Vec::new(),
            ops: Vec::new(),
            root: 0,
            variants: FastMap::default(),
            slot_base: Vec::new(),
        };
        arena.root = arena.add(block);
        let mut chain = 0;
        while (chain as usize) < arena.nodes.len() {
            let elems = match arena.node(chain) {
                ANode::Chain(elems) => elems.clone(),
                _ => Vec::new(),
            };
            for (s, &branches) in elems.iter().enumerate() {
                if !arena.is_branches(branches) {
                    continue;
                }
                let last = *arena
                    .children(branches)
                    .last()
                    .expect("Branches nodes are non-empty");
                let mut variant = match arena.node(last) {
                    ANode::Chain(cs) => cs.clone(),
                    _ => vec![last],
                };
                for (e, &join) in elems.iter().enumerate().skip(s + 1) {
                    if !arena.is_leaf(join) {
                        break;
                    }
                    variant.push(join);
                    let idx = arena.push(ANode::Chain(variant.clone()));
                    arena.variants.insert((chain, s as u16, e as u16 + 1), idx);
                }
            }
            chain += 1;
        }
        let mut next = 0;
        for node in &arena.nodes {
            arena.slot_base.push(next);
            next += node_slot_count(node);
        }
        arena.slot_base.push(next);
        arena
    }

    fn add(&mut self, block: &SpBlock) -> NodeIdx {
        let node = match block {
            SpBlock::Leaf(op) => ANode::Leaf(*op),
            SpBlock::Chain(items) => ANode::Chain(items.iter().map(|b| self.add(b)).collect()),
            SpBlock::Branches(items) => {
                ANode::Branches(items.iter().map(|b| self.add(b)).collect())
            }
        };
        self.push(node)
    }

    fn push(&mut self, node: ANode) -> NodeIdx {
        let ops = match &node {
            ANode::Leaf(op) => vec![*op],
            ANode::Chain(cs) | ANode::Branches(cs) => cs
                .iter()
                .flat_map(|&c| self.ops[c as usize].iter().copied())
                .collect(),
        };
        let idx = self.nodes.len() as NodeIdx;
        self.nodes.push(node);
        self.ops.push(ops);
        idx
    }

    fn node(&self, idx: NodeIdx) -> &ANode {
        &self.nodes[idx as usize]
    }

    fn node_ops(&self, idx: NodeIdx) -> &[OpId] {
        &self.ops[idx as usize]
    }

    fn children(&self, idx: NodeIdx) -> &[NodeIdx] {
        match self.node(idx) {
            ANode::Chain(cs) | ANode::Branches(cs) => cs,
            ANode::Leaf(_) => &[],
        }
    }

    fn is_branches(&self, idx: NodeIdx) -> bool {
        matches!(self.node(idx), ANode::Branches(_))
    }

    fn is_leaf(&self, idx: NodeIdx) -> bool {
        matches!(self.node(idx), ANode::Leaf(_))
    }

    /// The variant that absorbs `chain`'s elements `[s, e)`, a `Branches`
    /// element and the joins after it (see [`Dp::absorbable`]).
    fn variant(&self, chain: NodeIdx, s: u16, e: u16) -> NodeIdx {
        self.variants[&(chain, s, e)]
    }

    /// Memo slots of every node.
    fn slots(&self) -> usize {
        *self
            .slot_base
            .last()
            .expect("built arenas have a slot total") as usize
    }
}

// ------------------------------------------------- boundary configuration --

/// The downstream boundary configuration of a DP subproblem: the schedule
/// configurations `(k, b, in_flight_samples)` of the entry stages that will
/// consume this fragment's output. Empty means the fragment ends at the
/// global sink. Interned to a `DownId` for cheap memo keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
struct Down(Vec<(u64, u64, u64)>);

type DownId = u32;

impl Down {
    fn single(entry: (u64, u64, u64)) -> Down {
        Down(vec![entry])
    }

    fn from_entries(mut entries: Vec<(u64, u64, u64)>) -> Down {
        // Canonical form: per (k, b) only the maximal i binds (ComputeInFlight
        // is `i + f(k, b, ...)`), then sorted for hashing.
        entries.sort_unstable();
        let mut out: Vec<(u64, u64, u64)> = Vec::with_capacity(entries.len());
        for e in entries {
            match out.last_mut() {
                Some(last) if last.0 == e.0 && last.1 == e.1 => last.2 = last.2.max(e.2),
                _ => out.push(e),
            }
        }
        Down(out)
    }

    fn union(&self, other: &Down) -> Down {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        Down::from_entries(v)
    }

    /// Largest in-flight requirement among the entries.
    fn max_entry(&self) -> u64 {
        self.0.iter().map(|e| e.2).max().unwrap_or(0)
    }

    /// Minimal in-flight samples for a stage with schedule `(k, b)` feeding
    /// these boundaries (the sink keeps `k*b` samples resident).
    fn entry_in_flight(&self, k: u64, b: u64) -> u64 {
        let base = k * b;
        self.0
            .iter()
            .map(|&(ky, by, iy)| compute_in_flight(k, b, ky, by, iy))
            .max()
            .unwrap_or(base)
            .max(base)
    }
}

// ------------------------------------------------------------- fragments --

/// Sentinel meaning "the whole node" for non-chain intervals.
const WHOLE: (u16, u16) = (0, u16::MAX);

/// A stage in the making: an op interval of an arena node plus a device
/// count; placed (and its ops resolved) once the search settles.
#[derive(Debug, Clone, Copy)]
struct ProtoStage {
    node: NodeIdx,
    s: u16,
    e: u16,
    d: u32,
    b: u64,
    k: u64,
}

/// DP comparison key: source in-flight pressure, then memory, then stage
/// count (§5: "the number of in-flight micro-batches for the source stage
/// is minimized").
type Score = (u64, u64, usize);

type FragId = u32;

/// Fragment structure: a leaf stage, or the concatenation of two earlier
/// fragments (both series and parallel composition append stage lists, so
/// one node kind covers both).
#[derive(Debug, Clone, Copy)]
enum FragRepr {
    Single(ProtoStage),
    Cat(FragId, FragId),
}

/// A solved DP subproblem in the fragment slab: stages are reachable
/// through `repr` (flattened only for the winning fragment), with the
/// boundary bookkeeping and score components cached inline.
#[derive(Debug, Clone, Copy)]
struct Frag {
    repr: FragRepr,
    /// Number of stages in the fragment.
    len: u32,
    /// Interned `(k, b, i)` set of the fragment's entry stages (what
    /// upstream sees).
    entries_id: DownId,
    /// Largest entry in-flight requirement (first score component).
    max_entry: u64,
    /// `(k, b, i)` of the stage containing the fragment's last chain
    /// element (what side branches feeding an absorbed join see).
    exit: (u64, u64, u64),
    /// Peak per-device memory across stages, bytes.
    peak_mem: u64,
}

impl Frag {
    fn score(&self) -> Score {
        (self.max_entry, self.peak_mem, self.len as usize)
    }
}

// ------------------------------------------------------------ dense memo --

/// Encoded memo cell: not yet computed.
const MEMO_EMPTY: u32 = u32::MAX;
/// Encoded memo cell: computed, no feasible fragment.
const MEMO_NONE: u32 = u32::MAX - 1;

/// Dense memoization table: `rows[slot][down]` is a lazily allocated
/// `[d - 1] -> encoded FragId` column of length `d_max`. Slots are
/// precomputed per `(node, interval)` (see [`Arena::slot_base`]); lookups
/// and inserts are pure indexing.
struct MemoTable {
    rows: Vec<Vec<Option<Box<[u32]>>>>,
    d_max: usize,
    /// Cells moved off `MEMO_EMPTY` — the distinct-state count.
    filled: u64,
}

impl MemoTable {
    fn new(d_max: usize, slots: usize) -> MemoTable {
        MemoTable {
            rows: vec![Vec::new(); slots],
            d_max,
            filled: 0,
        }
    }

    fn get(&self, slot: u32, down: DownId, d: u32) -> u32 {
        match self.rows[slot as usize]
            .get(down as usize)
            .and_then(|c| c.as_deref())
        {
            Some(col) => col[(d - 1) as usize],
            None => MEMO_EMPTY,
        }
    }

    fn set(&mut self, slot: u32, down: DownId, d: u32, value: u32) {
        debug_assert_ne!(value, MEMO_EMPTY);
        let row = &mut self.rows[slot as usize];
        if row.len() <= down as usize {
            row.resize(down as usize + 1, None);
        }
        let col = row[down as usize]
            .get_or_insert_with(|| vec![MEMO_EMPTY; self.d_max].into_boxed_slice());
        let cell = &mut col[(d - 1) as usize];
        if *cell == MEMO_EMPTY {
            self.filled += 1;
        }
        *cell = value;
    }
}

/// Memo slots owned by one arena node: a leaf owns one, its single-stage
/// subproblem; a chain with `n` elements owns `n` suffix slots; a branches
/// node with `m` children owns `m*(m+1)/2` interval slots (the whole-node
/// subproblem is the `[0, m)` slot).
fn node_slot_count(node: &ANode) -> u32 {
    match node {
        ANode::Leaf(_) => 1,
        ANode::Chain(cs) => cs.len() as u32,
        ANode::Branches(cs) => {
            let m = cs.len() as u32;
            m * (m + 1) / 2
        }
    }
}

/// Local slot of the branch interval `[from, to)` within a branches node
/// of `m` children (row-major over `from`, triangular).
fn range_slot(m: u16, from: u16, to: u16) -> u32 {
    debug_assert!(from < to && to <= m);
    let (m, from, to) = (m as u32, from as u32, to as u32);
    from * (2 * m - from + 1) / 2 + (to - from - 1)
}

// ---------------------------------------------------------------- engine --

/// Per-chain, micro-batch-independent prefix aggregates over elements.
struct ChainStatic {
    /// Prefix parameter bytes.
    params: Vec<u64>,
    /// Prefix stashed activation bytes per sample.
    act: Vec<u64>,
    /// Prefix of per-element outside-chain communication bytes per sample.
    ext: Vec<u64>,
    /// `adj[j]`: bytes crossing the boundary between elements `j-1` and `j`.
    adj: Vec<u64>,
    /// Whether all intra-chain edges connect adjacent elements (fast path).
    simple: bool,
}

impl ChainStatic {
    /// The aggregates of every chain node of `arena`, indexed by
    /// `NodeIdx` (`None` for the other nodes).
    fn all(arena: &Arena, graph: &Graph) -> Vec<Option<ChainStatic>> {
        // Beside each op, the chain that last marked it and its element
        // there: every chain is marked once, so no reset is needed.
        let mut owner = vec![NodeIdx::MAX; graph.len()];
        let mut elem = vec![0u32; graph.len()];
        let mut statics = Vec::with_capacity(arena.nodes.len());
        for chain in 0..arena.nodes.len() as NodeIdx {
            let ANode::Chain(elems) = arena.node(chain) else {
                statics.push(None);
                continue;
            };
            for (i, &c) in elems.iter().enumerate() {
                for &op in arena.node_ops(c) {
                    owner[op.index()] = chain;
                    elem[op.index()] = i as u32;
                }
            }
            let elem_of =
                |op: OpId| (owner[op.index()] == chain).then(|| elem[op.index()] as usize);
            let n = elems.len();
            let mut params = vec![0u64; n + 1];
            let mut act = vec![0u64; n + 1];
            let mut ext = vec![0u64; n + 1];
            let mut adj = vec![0u64; n + 1];
            let mut simple = true;
            for (i, &c) in elems.iter().enumerate() {
                let mut p = 0u64;
                let mut a = 0u64;
                let mut x = 0u64;
                for &op in arena.node_ops(c) {
                    p += graph.param_bytes(op);
                    a += graph.stashed_bytes(op);
                    let bytes = graph.output_bytes(op);
                    for &succ in graph.succs(op) {
                        match elem_of(succ) {
                            Some(j) if j == i => {}
                            Some(j) if j == i + 1 => adj[i + 1] += bytes,
                            Some(_) => simple = false,
                            None => x += bytes,
                        }
                    }
                    for &pred in graph.preds(op) {
                        if elem_of(pred).is_none() {
                            x += graph.output_bytes(pred);
                        }
                    }
                }
                params[i + 1] = params[i] + p;
                act[i + 1] = act[i] + a;
                ext[i + 1] = ext[i] + x;
            }
            statics.push(Some(ChainStatic {
                params,
                act,
                ext,
                adj,
                simple,
            }));
        }
        statics
    }
}

/// A single-stage candidate found for a segment.
#[derive(Debug, Clone, Copy)]
struct StageCand {
    b: u64,
    k: u64,
    in_flight: u64,
    mem: u64,
}

/// A segment whose per-micro-batch costs are needed: a simple-chain
/// interval served by prefix arrays, or a generic op-set interval.
#[derive(Debug, Clone, Copy)]
enum Seg {
    SimpleChain { chain: NodeIdx, s: u16, e: u16 },
    Generic { node: NodeIdx, s: u16, e: u16 },
}

impl Seg {
    /// Packed `(node, s, e)` cache key. A node is served by exactly one of
    /// the two variants, so the variant tag carries no information.
    fn key(self) -> u64 {
        let (node, s, e) = match self {
            Seg::SimpleChain { chain, s, e } => (chain, s, e),
            Seg::Generic { node, s, e } => (node, s, e),
        };
        (node as u64) << 32 | (s as u64) << 16 | e as u64
    }
}

/// Deterministic multiply-mix hasher for the planner's internal maps.
///
/// `std`'s default SipHash shows up in 64-GPU profiles on the hot
/// `seg_cache`/`tps_cache` lookups. The keys are packed `u64`s or short
/// in-memory tuples — never attacker-controlled — so a fast fixed-seed
/// mix (FxHash-style: fold each word through the Fibonacci multiplier)
/// is the right trade. None of these maps are iterated, so bucket order
/// cannot leak into any output.
#[derive(Default)]
struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

/// Per-segment cost aggregates at one micro-batch size:
/// `(fwd+bwd time, param bytes, activation bytes/sample, boundary bytes/sample)`.
type SegmentCosts = (f64, u64, u64, u64);

/// Memoized [`Dp::generic_aggregates`] result for one `(node, s, e)`
/// segment: the per-micro-batch times (NaN until computed) plus the
/// micro-batch-independent byte aggregates. The op walk behind these is
/// the planner's most expensive leaf — each cell is pure in
/// `(node, s, e, b)`, so caching it cannot change any output.
struct SegEntry {
    times: Box<[f64]>,
    params: u64,
    act: u64,
    comm: u64,
}

/// Reusable window buffers for the column passes of the chain split loop
/// (`solve_chain` option D). Pooled because the fill pass recurses into
/// `solve_chain`, which needs its own set.
#[derive(Default)]
struct SplitScratch {
    /// Resolved suffix column: encoded `FragId` or `MEMO_NONE` per window
    /// index.
    col: Vec<u32>,
    /// The live window, in window order: `(head devices, the suffix's
    /// entry down-set)` per resolved suffix.
    heads: Vec<(u32, DownId)>,
    /// The resolved suffix of each live pair.
    suffixes: Vec<FragId>,
    /// The best head candidate of each live pair.
    best: Vec<Option<StageCand>>,
}

struct Dp<'a> {
    graph: &'a Graph,
    cost: &'a CostModel,
    /// The search's per-op times.
    table: &'a OpTable,
    /// The search's arena and chain statics, shared by every run.
    arena: &'a Arena,
    statics: &'a [Option<ChainStatic>],
    mini_batch: u64,
    t_max: f64,
    mem_budget: u64,
    b_cands: Vec<u64>,
    /// `b_cols[bi]`: the table column of `b_cands[bi]`.
    b_cols: Vec<usize>,
    k_cands: Vec<u64>,
    /// Largest micro-batch candidate: at it, per-sample compute time is
    /// minimal, making work-conservation bounds sound for every candidate.
    bound_b: u64,
    /// Index of `bound_b` in `b_cands`.
    bound_bi: usize,
    downs: Vec<Down>,
    down_ids: FastMap<Down, DownId>,
    frags: Vec<Frag>,
    memo: MemoTable,
    /// Per-(node, b-candidate) prefix of child fwd+bwd times for one
    /// micro-batch, at `node * b_cands.len() + b_index`: a chain's
    /// elements or a branches node's branches.
    prefix_time: Vec<Option<Box<[f64]>>>,
    /// Stamped op-membership scratch (replaces per-call bitmaps).
    member_stamp: Vec<u64>,
    cur_stamp: u64,
    /// Generic-segment aggregate memo, keyed by packed `(node, s, e)`.
    seg_cache: FastMap<u64, SegEntry>,
    /// Head-stage TPS memo: packed `(node, s, e)` → `[bi][d_head]` row
    /// (NaN until computed). A head candidate's TPS depends only on the
    /// segment, the micro-batch size and the head device count — not on
    /// the down-set or the remaining device budget — so each value is
    /// computed once per run instead of once per DP state.
    tps_cache: FastMap<u64, Box<[f64]>>,
    /// Total devices in this run (the `d_head` stride of `tps_cache` rows).
    devices: u32,
    evals: u64,
    budget: u64,
    exploded: bool,
    /// The cut of the pass this run belongs to, and the run's index in it.
    cut: &'a Cut,
    index: usize,
    /// The cut passed this run: it stops like an exploded one.
    cancelled: bool,
    memo_hits: u64,
    memo_misses: u64,
    work_bound_prunes: u64,
    memory_prunes: u64,
    /// Beam width for device-split windows (`None` = exhaustive).
    beam_width: Option<u32>,
    beam_prunes: u64,
    eval_batches: u64,
    /// Pool of window buffers for the chain split loop's column passes.
    scratch_pool: Vec<SplitScratch>,
    /// Reusable buffers for `eval_candidates` (taken with `mem::take`
    /// around use; `eval_candidates` never recurses): segment costs per
    /// micro-batch size, and TPS per `(size, window pair)`.
    cand_costs: Vec<SegmentCosts>,
    cand_tps: Vec<f64>,
}

impl<'a> Dp<'a> {
    fn new(
        ctx: &'a SearchCtx<'a>,
        t_max: f64,
        b_cands: Vec<u64>,
        budget: u64,
        cut: &'a Cut,
        index: usize,
    ) -> Dp<'a> {
        let bound_b = b_cands.iter().copied().max().unwrap_or(1);
        let bound_bi = b_cands.iter().position(|&b| b == bound_b).unwrap_or(0);
        let b_cols = b_cands.iter().map(|&b| ctx.table.column(b)).collect();
        let b_count = b_cands.len().max(1);
        let mut dp = Dp {
            graph: ctx.graph,
            cost: &ctx.cost,
            table: &ctx.table,
            arena: &ctx.arena,
            statics: &ctx.statics,
            mini_batch: ctx.mini_batch,
            t_max,
            mem_budget: ctx.cost.memory_budget(),
            b_cands,
            b_cols,
            k_cands: ctx.options.kfkb_candidates.clone(),
            bound_b,
            bound_bi,
            downs: Vec::new(),
            down_ids: FastMap::default(),
            frags: Vec::new(),
            memo: MemoTable::new(ctx.devices as usize, ctx.arena.slots()),
            prefix_time: vec![None; ctx.arena.nodes.len() * b_count],
            member_stamp: vec![0; ctx.graph.len()],
            cur_stamp: 0,
            seg_cache: FastMap::default(),
            tps_cache: FastMap::default(),
            devices: ctx.devices,
            evals: 0,
            budget,
            exploded: false,
            cut,
            index,
            cancelled: false,
            memo_hits: 0,
            memo_misses: 0,
            work_bound_prunes: 0,
            memory_prunes: 0,
            beam_width: ctx.options.beam_width,
            beam_prunes: 0,
            eval_batches: 0,
            scratch_pool: Vec::new(),
            cand_costs: Vec::new(),
            cand_tps: Vec::new(),
        };
        dp.intern(Down::default()); // id 0 = the global sink
        dp
    }

    fn intern(&mut self, down: Down) -> DownId {
        if let Some(&id) = self.down_ids.get(&down) {
            return id;
        }
        let id = self.downs.len() as DownId;
        self.downs.push(down.clone());
        self.down_ids.insert(down, id);
        id
    }

    fn push_frag(&mut self, frag: Frag) -> FragId {
        let id = self.frags.len() as FragId;
        self.frags.push(frag);
        id
    }

    fn frag(&self, id: FragId) -> &Frag {
        &self.frags[id as usize]
    }

    /// Charges a batch of `units` evals; true once the run must stop. A
    /// halted run charges nothing more, so a run stops at the first batch
    /// past its budget, whatever unwinds after it.
    fn charge(&mut self, units: u64) -> bool {
        if !self.halted() {
            self.evals += units;
            self.exploded = self.evals > self.budget;
        }
        self.halted()
    }

    /// Whether the run must stop: it ran out of budget or was cancelled.
    fn halted(&self) -> bool {
        self.exploded || self.cancelled
    }

    /// Polls the pass's cut where a subproblem's work starts, on a memo
    /// miss: a cancelled run stops at its next fresh subproblem, and memo
    /// hits, most lookups, pay nothing.
    fn cut_passed(&mut self) -> bool {
        self.cancelled = self.cut.passed(self.index);
        self.cancelled
    }

    // ----------------------------------------------------- memo plumbing --

    /// Global memo slot of a chain suffix `[start..n)`.
    fn chain_slot(&self, chain: NodeIdx, start: u16) -> u32 {
        self.arena.slot_base[chain as usize] + start as u32
    }

    /// Global memo slot of a branch interval `[from..to)`.
    fn branch_slot(&self, branches: NodeIdx, from: u16, to: u16) -> u32 {
        let m = self.arena.children(branches).len() as u16;
        self.arena.slot_base[branches as usize] + range_slot(m, from, to)
    }

    fn memo_get(&mut self, slot: u32, down: DownId, d: u32) -> Option<Option<FragId>> {
        match self.memo.get(slot, down, d) {
            MEMO_EMPTY => {
                self.memo_misses += 1;
                None
            }
            MEMO_NONE => {
                self.memo_hits += 1;
                Some(None)
            }
            id => {
                self.memo_hits += 1;
                Some(Some(id))
            }
        }
    }

    fn memo_set(&mut self, slot: u32, down: DownId, d: u32, value: Option<FragId>) {
        self.memo.set(slot, down, d, value.unwrap_or(MEMO_NONE));
    }

    // -------------------------------------------------- segment metrics --

    /// Fills the prefix of child fwd+bwd times for `node` (a chain's
    /// elements or a branches node's branches) at micro-batch candidate
    /// `bi`.
    fn ensure_prefix_time(&mut self, node: NodeIdx, bi: usize) {
        let idx = node as usize * self.b_cands.len().max(1) + bi;
        if self.prefix_time[idx].is_some() {
            return;
        }
        let col = self.b_cols[bi];
        let children = self.arena.children(node);
        let mut prefix = Vec::with_capacity(children.len() + 1);
        prefix.push(0.0);
        for (i, &c) in children.iter().enumerate() {
            let mut t = 0.0;
            for &op in self.arena.node_ops(c) {
                t += self.table.time(op, col);
            }
            prefix.push(prefix[i] + t);
        }
        self.prefix_time[idx] = Some(prefix.into_boxed_slice());
    }

    /// Prefix time value for `node` at micro-batch candidate `bi`
    /// (`ensure_prefix_time` must have run).
    fn prefix_time_at(&self, node: NodeIdx, bi: usize, i: usize) -> f64 {
        self.prefix_time[node as usize * self.b_cands.len().max(1) + bi]
            .as_ref()
            .expect("prefix_time filled")[i]
    }

    /// Cost aggregates of a segment at micro-batch candidate `bi`.
    fn segment_costs(&mut self, seg: Seg, bi: usize) -> SegmentCosts {
        match seg {
            Seg::SimpleChain { chain, s, e } => {
                self.ensure_prefix_time(chain, bi);
                let stat = self.statics[chain as usize]
                    .as_ref()
                    .expect("chain nodes have statics");
                let (s, e) = (s as usize, e as usize);
                let comm =
                    stat.adj[s] + stat.adj[e.min(stat.adj.len() - 1)] + (stat.ext[e] - stat.ext[s]);
                (
                    self.prefix_time_at(chain, bi, e) - self.prefix_time_at(chain, bi, s),
                    stat.params[e] - stat.params[s],
                    stat.act[e] - stat.act[s],
                    comm,
                )
            }
            Seg::Generic { node, s, e } => self.generic_aggregates(node, s, e, bi),
        }
    }

    /// Generic per-op-set aggregates, for non-chain intervals (merged
    /// branch groups, whole composite nodes, non-simple chains). Uses the
    /// stamped membership scratch: no per-call allocation.
    fn generic_aggregates(&mut self, node: NodeIdx, s: u16, e: u16, bi: usize) -> SegmentCosts {
        // Memo first: the same segment is re-aggregated for every
        // `(devices, down-set)` DP state that considers it, and the op walk
        // below dominates the planner's wall clock when it isn't cached.
        let key = Seg::Generic { node, s, e }.key();
        if let Some(entry) = self.seg_cache.get(&key) {
            let time = entry.times[bi];
            if !time.is_nan() {
                return (time, entry.params, entry.act, entry.comm);
            }
        }
        // The segment's members: the whole node, or its children `[s, e)`.
        let arena = self.arena;
        let members = if (s, e) == WHOLE {
            std::slice::from_ref(&node)
        } else {
            &arena.children(node)[s as usize..e as usize]
        };
        self.cur_stamp += 1;
        let stamp = self.cur_stamp;
        // Pass 1: mark members.
        for &m in members {
            for &op in arena.node_ops(m) {
                self.member_stamp[op.index()] = stamp;
            }
        }
        // Pass 2: aggregate.
        let (graph, table, col) = (self.graph, self.table, self.b_cols[bi]);
        let outside = |op: OpId| self.member_stamp[op.index()] != stamp;
        let mut time = 0.0;
        let (mut params, mut act, mut comm) = (0u64, 0u64, 0u64);
        for &m in members {
            for &op in arena.node_ops(m) {
                time += table.time(op, col);
                params += graph.param_bytes(op);
                act += graph.stashed_bytes(op);
                let bytes = graph.output_bytes(op);
                for &succ in graph.succs(op) {
                    if outside(succ) {
                        comm += bytes;
                    }
                }
                for &pred in graph.preds(op) {
                    if outside(pred) {
                        comm += graph.output_bytes(pred);
                    }
                }
            }
        }
        let n_b = self.b_cands.len().max(1);
        let entry = self.seg_cache.entry(key).or_insert_with(|| SegEntry {
            times: vec![f64::NAN; n_b].into_boxed_slice(),
            params,
            act,
            comm,
        });
        entry.times[bi] = time;
        (time, params, act, comm)
    }

    /// The base case of Algorithm 1: one segment as a single stage, at
    /// every `(devices, down-set)` pair of `window`. Writes each pair's
    /// best `(b, k)` candidate by (in-flight, memory) into `best`, the
    /// window's length, and returns false when the budget or the cut
    /// stopped the sweep, leaving no answer.
    ///
    /// Runs as one batched pass, micro-batch sizes outer, the window next,
    /// `k` inner: the eval budget is charged for the whole batch (live
    /// pairs × sizes) up front, then segment costs are gathered per size
    /// and TPS comes through the `(segment, b, d)` memo.
    fn eval_candidates(
        &mut self,
        seg: Seg,
        window: &[(u32, DownId)],
        best: &mut [Option<StageCand>],
    ) -> bool {
        debug_assert_eq!(window.len(), best.len());
        self.eval_batches += 1;
        let n = self.b_cands.len();
        let w = window.len();
        if self.charge(w as u64 * n as u64) {
            return false;
        }
        let mut costs = std::mem::take(&mut self.cand_costs);
        costs.clear();
        for bi in 0..n {
            let c = self.segment_costs(seg, bi);
            costs.push(c);
        }
        let mut tps = std::mem::take(&mut self.cand_tps);
        tps.clear();
        {
            // The TPS of a candidate depends only on the segment, the
            // micro-batch size and the device count — not on the down-set
            // — so repeat states are pure reads of the segment's
            // `[bi][d]` row.
            let cost = self.cost;
            let mini_batch = self.mini_batch;
            let row_stride = self.devices as usize + 1;
            let row = self
                .tps_cache
                .entry(seg.key())
                .or_insert_with(|| vec![f64::NAN; n * row_stride].into_boxed_slice());
            for (bi, &(time, params, _act, comm)) in costs.iter().enumerate() {
                let b = self.b_cands[bi];
                for &(d, _) in window {
                    let cell = &mut row[bi * row_stride + d as usize];
                    if cell.is_nan() {
                        *cell = cost.candidate_tps(time, comm, params, b, d, mini_batch);
                    }
                    tps.push(*cell);
                }
            }
        }
        best.fill(None);
        for bi in 0..n {
            let b = self.b_cands[bi];
            let (_time, params, act, _comm) = costs[bi];
            for (j, &(d, down_id)) in window.iter().enumerate() {
                if tps[bi * w + j] > self.t_max {
                    continue;
                }
                for ki in 0..self.k_cands.len() {
                    let k = self.k_cands[ki];
                    let in_flight = self.downs[down_id as usize].entry_in_flight(k, b);
                    let mem = CostModel::stage_memory(params, act, in_flight, b, d as usize);
                    if mem > self.mem_budget {
                        self.memory_prunes += 1;
                        continue;
                    }
                    let better = match &best[j] {
                        None => true,
                        Some(cur) => (in_flight, mem) < (cur.in_flight, cur.mem),
                    };
                    if better {
                        best[j] = Some(StageCand {
                            b,
                            k,
                            in_flight,
                            mem,
                        });
                    }
                }
            }
        }
        self.cand_costs = costs;
        self.cand_tps = tps;
        true
    }

    /// [`Dp::eval_candidates`] at one `(d, down_id)` pair.
    fn eval_candidate(&mut self, seg: Seg, d: u32, down_id: DownId) -> Option<StageCand> {
        let mut best = [None];
        if self.eval_candidates(seg, &[(d, down_id)], &mut best) {
            best[0]
        } else {
            None
        }
    }

    /// The segment of chain elements `[s, e)`: prefix-served when the
    /// chain is simple.
    fn chain_seg(&self, chain: NodeIdx, s: u16, e: u16) -> Seg {
        let simple = self.statics[chain as usize]
            .as_ref()
            .expect("chain nodes have statics")
            .simple;
        if simple {
            Seg::SimpleChain { chain, s, e }
        } else {
            Seg::Generic { node: chain, s, e }
        }
    }

    /// Builds a one-stage fragment from a candidate.
    fn single_frag(&mut self, node: NodeIdx, s: u16, e: u16, d: u32, cand: StageCand) -> FragId {
        let entry = (cand.k, cand.b, cand.in_flight);
        let entries_id = self.intern(Down::single(entry));
        self.push_frag(Frag {
            repr: FragRepr::Single(ProtoStage {
                node,
                s,
                e,
                d,
                b: cand.b,
                k: cand.k,
            }),
            len: 1,
            entries_id,
            max_entry: cand.in_flight,
            exit: entry,
            peak_mem: cand.mem,
        })
    }

    fn concat(&mut self, head: FragId, tail: FragId) -> FragId {
        let (h, t) = (*self.frag(head), *self.frag(tail));
        self.push_frag(Frag {
            repr: FragRepr::Cat(head, tail),
            len: h.len + t.len,
            entries_id: h.entries_id,
            max_entry: h.max_entry,
            exit: t.exit,
            peak_mem: h.peak_mem.max(t.peak_mem),
        })
    }

    fn merge_parallel(&mut self, a: FragId, b: FragId) -> FragId {
        let (fa, fb) = (*self.frag(a), *self.frag(b));
        let union = self.downs[fa.entries_id as usize].union(&self.downs[fb.entries_id as usize]);
        let max_entry = union.max_entry();
        let entries_id = self.intern(union);
        self.push_frag(Frag {
            repr: FragRepr::Cat(a, b),
            len: fa.len + fb.len,
            entries_id,
            max_entry,
            exit: fb.exit,
            peak_mem: fa.peak_mem.max(fb.peak_mem),
        })
    }

    /// Work-conservation lower bound on the bottleneck TPS of a fragment
    /// with total micro-batch time `time` (at `bound_b`) on `d` devices.
    fn work_bound_ok(&self, time: f64, d: u32) -> bool {
        time / (self.bound_b as f64 * d as f64) <= self.t_max
    }

    /// Minimal devices for which the work bound passes.
    fn min_devices(&self, time: f64) -> u32 {
        let d = (time / (self.bound_b as f64 * self.t_max)).ceil();
        if d.is_finite() {
            (d as u32).max(1)
        } else {
            u32::MAX
        }
    }

    /// Truncates an inclusive device window `[lo, hi]` to the configured
    /// beam: the `beam_width` values nearest `pivot` (the
    /// work-proportional split), kept as one contiguous subrange. The
    /// total order is deterministic — distance from the pivot, ties
    /// toward fewer devices — and enumeration order inside the surviving
    /// window is unchanged, so tie-breaking among survivors matches the
    /// exhaustive search exactly. `None` (the default) admits everything.
    fn beam_window(&mut self, lo: u32, hi: u32, pivot: u32) -> (u32, u32) {
        let Some(w) = self.beam_width else {
            return (lo, hi);
        };
        let width = hi - lo + 1;
        if width <= w {
            return (lo, hi);
        }
        self.beam_prunes += (width - w) as u64;
        let start = pivot.saturating_sub(w / 2).clamp(lo, hi - w + 1);
        (start, start + w - 1)
    }

    /// The device window of side `a` when `d` devices are split between
    /// two sides taking `a_time` and `b_time` at the bound micro-batch:
    /// `[a_min, d - b_min]` by the work bound, narrowed by the beam around
    /// the work-proportional pivot. `None`, counted in
    /// `work_bound_prunes`, when no split passes the bound.
    fn split_window(&mut self, a_time: f64, b_time: f64, d: u32) -> Option<(u32, u32)> {
        let a_min = self.min_devices(a_time);
        let b_min = self.min_devices(b_time);
        if a_min == u32::MAX || b_min == u32::MAX || a_min + b_min > d {
            self.work_bound_prunes += 1;
            return None;
        }
        let total = a_time + b_time;
        let pivot = if total > 0.0 {
            (d as f64 * (a_time / total)).round() as u32
        } else {
            a_min
        };
        Some(self.beam_window(a_min, d - b_min, pivot))
    }

    fn take_scratch(&mut self) -> SplitScratch {
        self.scratch_pool.pop().unwrap_or_default()
    }

    fn put_scratch(&mut self, mut scratch: SplitScratch) {
        scratch.col.clear();
        scratch.heads.clear();
        scratch.suffixes.clear();
        scratch.best.clear();
        self.scratch_pool.push(scratch);
    }

    fn consider(&self, cand: FragId, best: &mut Option<FragId>, best_score: &mut Score) {
        let s = self.frag(cand).score();
        if s < *best_score {
            *best_score = s;
            *best = Some(cand);
        }
    }

    // ----------------------------------------------------------- solving --

    fn solve(&mut self, node: NodeIdx, d: u32, down_id: DownId) -> Option<FragId> {
        if self.halted() {
            return None;
        }
        match self.arena.node(node) {
            ANode::Leaf(_) => {
                let slot = self.arena.slot_base[node as usize];
                if let Some(cached) = self.memo_get(slot, down_id, d) {
                    return cached;
                }
                if self.cut_passed() {
                    return None;
                }
                let seg = Seg::Generic {
                    node,
                    s: WHOLE.0,
                    e: WHOLE.1,
                };
                let best = self
                    .eval_candidate(seg, d, down_id)
                    .map(|cand| self.single_frag(node, WHOLE.0, WHOLE.1, d, cand));
                // A candidate sweep cut short by the budget is no answer.
                if !self.halted() {
                    self.memo_set(slot, down_id, d, best);
                }
                best
            }
            ANode::Chain(_) => self.solve_chain(node, 0, d, down_id),
            ANode::Branches(_) => {
                let m = self.arena.children(node).len() as u16;
                let slot = self.branch_slot(node, 0, m);
                if let Some(cached) = self.memo_get(slot, down_id, d) {
                    return cached;
                }
                let best = self.solve_branch_range(node, 0, m, d, down_id);
                self.memo_set(slot, down_id, d, best);
                best
            }
        }
    }

    /// Series decomposition over a chain suffix `[start..n)`.
    fn solve_chain(
        &mut self,
        chain: NodeIdx,
        start: u16,
        d: u32,
        down_id: DownId,
    ) -> Option<FragId> {
        if self.halted() {
            return None;
        }
        let slot = self.chain_slot(chain, start);
        if let Some(cached) = self.memo_get(slot, down_id, d) {
            return cached;
        }
        if self.cut_passed() {
            return None;
        }
        let n = self.arena.children(chain).len() as u16;
        debug_assert!(start < n);
        let bi = self.bound_bi;
        self.ensure_prefix_time(chain, bi);
        // Work bound: the whole suffix must fit d devices at the target.
        let suffix_time = self.prefix_time_at(chain, bi, n as usize)
            - self.prefix_time_at(chain, bi, start as usize);
        if !self.work_bound_ok(suffix_time, d) {
            self.work_bound_prunes += 1;
            self.memo_set(slot, down_id, d, None);
            return None;
        }
        let mut best: Option<FragId> = None;
        let mut best_score: Score = (u64::MAX, u64::MAX, usize::MAX);
        // Option A: the whole suffix as one stage.
        let seg = self.chain_seg(chain, start, n);
        if let Some(cand) = self.eval_candidate(seg, d, down_id) {
            let frag = self.single_frag(chain, start, n, d, cand);
            self.consider(frag, &mut best, &mut best_score);
        }
        // Option B: the suffix is a single composite element — delegate.
        if n - start == 1 {
            let child = self.arena.children(chain)[start as usize];
            if !self.arena.is_leaf(child) {
                if let Some(f) = self.solve(child, d, down_id) {
                    self.consider(f, &mut best, &mut best_score);
                }
            }
            self.memo_set(slot, down_id, d, best);
            return best;
        }
        // Option C: the whole suffix is [Branches, joins...] — absorb.
        if self.absorbable(chain, start, n) {
            if let Some(f) = self.solve_absorbed(chain, start, n, d, down_id) {
                self.consider(f, &mut best, &mut best_score);
            }
        }
        // Option D: split at `mid`; solve the downstream part first. The
        // work bound confines the device split to a (usually tiny) window,
        // and the beam (when bounded) narrows it further around the
        // work-proportional pivot. The window runs as column passes over
        // the dense `[down][d]` memo layout: resolve the suffix column
        // slice-at-a-time, price the head against every resolved suffix
        // in one batched evaluation, then combine in window order so
        // tie-breaking matches the per-split loop it replaces (DESIGN.md
        // §"Planner search").
        for mid in start + 1..n {
            let head_time = self.prefix_time_at(chain, bi, mid as usize)
                - self.prefix_time_at(chain, bi, start as usize);
            let suf_time = self.prefix_time_at(chain, bi, n as usize)
                - self.prefix_time_at(chain, bi, mid as usize);
            let Some((w_lo, w_hi)) = self.split_window(suf_time, head_time, d) else {
                continue;
            };
            let width = (w_hi - w_lo + 1) as usize;
            let suf_slot = self.chain_slot(chain, mid);
            let mut scr = self.take_scratch();
            // Pass 1 — resolve the suffix column. Memoized cells come
            // straight off the dense column slice (each counted as the
            // hit its lookup is); empty cells recurse, and the
            // recursion's own memo lookup records the miss. No deeper
            // call can touch this column's cells (chain recursion only
            // moves to strictly later suffixes), so the slice snapshot
            // stays valid across the loop.
            match self.memo.rows[suf_slot as usize]
                .get(down_id as usize)
                .and_then(|c| c.as_deref())
            {
                Some(col) => scr
                    .col
                    .extend_from_slice(&col[(w_lo - 1) as usize..w_hi as usize]),
                None => scr.col.resize(width, MEMO_EMPTY),
            }
            // The fill pass is one batch: one eval per window index.
            if self.charge(width as u64) {
                return None;
            }
            for i in 0..width {
                if scr.col[i] == MEMO_EMPTY {
                    let r = self.solve_chain(chain, mid, w_lo + i as u32, down_id);
                    scr.col[i] = r.unwrap_or(MEMO_NONE);
                } else {
                    self.memo_hits += 1;
                }
            }
            // The live window: each resolved suffix, with the devices it
            // leaves the head and the boundary it gives it.
            for (i, &suffix) in scr.col.iter().enumerate() {
                if suffix != MEMO_NONE {
                    let d_head = d - (w_lo + i as u32);
                    scr.heads.push((d_head, self.frag(suffix).entries_id));
                    scr.suffixes.push(suffix);
                }
            }
            if scr.heads.is_empty() {
                self.put_scratch(scr);
                continue;
            }
            // Pass 2 — head candidates (D1): the head segment as a single
            // stage at every live pair.
            let seg = self.chain_seg(chain, start, mid);
            scr.best.resize(scr.heads.len(), None);
            if !self.eval_candidates(seg, &scr.heads, &mut scr.best) {
                return None;
            }
            // Pass 3 — combine, in window order (ascending d_suf), so the
            // evolving best-score tie-breaking matches the exhaustive
            // per-split loop.
            let d2_child = if mid == start + 1 {
                let child = self.arena.children(chain)[start as usize];
                self.arena.is_branches(child).then_some(child)
            } else {
                None
            };
            let d3 = mid > start + 1 && self.absorbable(chain, start, mid);
            for j in 0..scr.heads.len() {
                let (d_head, suf_entries) = scr.heads[j];
                let suffix = scr.suffixes[j];
                let (suf_peak, suf_len) = {
                    let f = self.frag(suffix);
                    (f.peak_mem, f.len as usize)
                };
                // D1: head segment as a single stage (score-first).
                if let Some(cand) = scr.best[j] {
                    let score = (cand.in_flight, cand.mem.max(suf_peak), 1 + suf_len);
                    if score < best_score {
                        let head = self.single_frag(chain, start, mid, d_head, cand);
                        let combined = self.concat(head, suffix);
                        self.consider(combined, &mut best, &mut best_score);
                    }
                }
                // D2: head is one Branches element — parallel decomposition.
                if let Some(child) = d2_child {
                    if let Some(head) = self.solve(child, d_head, suf_entries) {
                        let hf = *self.frag(head);
                        let score = (
                            hf.max_entry,
                            hf.peak_mem.max(suf_peak),
                            hf.len as usize + suf_len,
                        );
                        if score < best_score {
                            let combined = self.concat(head, suffix);
                            self.consider(combined, &mut best, &mut best_score);
                        }
                    }
                }
                // D3: head is [Branches, joins...] — absorbed decomposition.
                if d3 {
                    if let Some(head) = self.solve_absorbed(chain, start, mid, d_head, suf_entries)
                    {
                        let hf = *self.frag(head);
                        let score = (
                            hf.max_entry,
                            hf.peak_mem.max(suf_peak),
                            hf.len as usize + suf_len,
                        );
                        if score < best_score {
                            let combined = self.concat(head, suffix);
                            self.consider(combined, &mut best, &mut best_score);
                        }
                    }
                }
            }
            self.put_scratch(scr);
        }
        self.memo_set(slot, down_id, d, best);
        best
    }

    /// Whether chain elements `[s..e)` are a `Branches` element followed by
    /// one or more leaf (join) operators.
    fn absorbable(&self, chain: NodeIdx, s: u16, e: u16) -> bool {
        if e <= s + 1 {
            return false;
        }
        let children = self.arena.children(chain);
        self.arena.is_branches(children[s as usize])
            && children[s as usize + 1..e as usize]
                .iter()
                .all(|&c| self.arena.is_leaf(c))
    }

    /// Parallel decomposition with the trailing join operators folded into
    /// the last branch (§7.5 case study). The join stage's schedule
    /// configuration becomes the boundary for the remaining branches.
    fn solve_absorbed(
        &mut self,
        chain: NodeIdx,
        s: u16,
        e: u16,
        d: u32,
        down_id: DownId,
    ) -> Option<FragId> {
        if d < 2 {
            return None;
        }
        let branches = self.arena.children(chain)[s as usize];
        let m = self.arena.children(branches).len() as u16;
        let absorbed = self.arena.variant(chain, s, e);
        let bi = self.bound_bi;
        self.ensure_prefix_time(absorbed, bi);
        let last_len = self.arena.children(absorbed).len();
        let last_time = self.prefix_time_at(absorbed, bi, last_len);
        self.ensure_prefix_time(branches, bi);
        let others_time = self.prefix_time_at(branches, bi, (m - 1) as usize);
        let (w_lo, w_hi) = self.split_window(last_time, others_time, d)?;
        let mut best: Option<FragId> = None;
        let mut best_score: Score = (u64::MAX, u64::MAX, usize::MAX);
        for d_last in w_lo..=w_hi {
            if self.charge(1) {
                return None;
            }
            let Some(last) = self.solve(absorbed, d_last, down_id) else {
                continue;
            };
            let lf = *self.frag(last);
            let others_down = self.intern(Down::single(lf.exit));
            let Some(others) = self.solve_branch_range(branches, 0, m - 1, d - d_last, others_down)
            else {
                continue;
            };
            let of = *self.frag(others);
            let score = (
                of.max_entry.max(lf.max_entry),
                of.peak_mem.max(lf.peak_mem),
                (of.len + lf.len) as usize,
            );
            if score < best_score {
                let merged = self.merge_parallel(others, last);
                best_score = self.frag(merged).score();
                best = Some(merged);
            }
        }
        best
    }

    /// Parallel decomposition over branches `[from..to)`: single stage for
    /// the whole (contiguous) group, or a binary split with a device-window
    /// bound on each side.
    fn solve_branch_range(
        &mut self,
        branches: NodeIdx,
        from: u16,
        to: u16,
        d: u32,
        down_id: DownId,
    ) -> Option<FragId> {
        if self.halted() || to == from {
            return None;
        }
        if to - from == 1 {
            let child = self.arena.children(branches)[from as usize];
            return self.solve(child, d, down_id);
        }
        let slot = self.branch_slot(branches, from, to);
        if let Some(cached) = self.memo_get(slot, down_id, d) {
            return cached;
        }
        if self.cut_passed() {
            return None;
        }
        let mut best: Option<FragId> = None;
        let mut best_score: Score = (u64::MAX, u64::MAX, usize::MAX);
        // The whole group as one (data-parallel) stage.
        let seg = Seg::Generic {
            node: branches,
            s: from,
            e: to,
        };
        if let Some(cand) = self.eval_candidate(seg, d, down_id) {
            let frag = self.single_frag(branches, from, to, d, cand);
            best_score = self.frag(frag).score();
            best = Some(frag);
        }
        // Binary splits with work-bound device windows.
        let bi = self.bound_bi;
        self.ensure_prefix_time(branches, bi);
        for split in from + 1..to {
            let left_time = self.prefix_time_at(branches, bi, split as usize)
                - self.prefix_time_at(branches, bi, from as usize);
            let right_time = self.prefix_time_at(branches, bi, to as usize)
                - self.prefix_time_at(branches, bi, split as usize);
            let Some((w_lo, w_hi)) = self.split_window(left_time, right_time, d) else {
                continue;
            };
            for d1 in w_lo..=w_hi {
                if self.charge(1) {
                    return None;
                }
                let Some(a) = self.solve_branch_range(branches, from, split, d1, down_id) else {
                    continue;
                };
                let Some(b) = self.solve_branch_range(branches, split, to, d - d1, down_id) else {
                    continue;
                };
                let (fa, fb) = (*self.frag(a), *self.frag(b));
                let score = (
                    fa.max_entry.max(fb.max_entry),
                    fa.peak_mem.max(fb.peak_mem),
                    (fa.len + fb.len) as usize,
                );
                if score < best_score {
                    let merged = self.merge_parallel(a, b);
                    best_score = self.frag(merged).score();
                    best = Some(merged);
                }
            }
        }
        self.memo_set(slot, down_id, d, best);
        best
    }

    // -------------------------------------------------------- extraction --

    /// Resolves a proto-stage's op interval into concrete operator ids.
    fn resolve_ops(&self, node: NodeIdx, s: u16, e: u16) -> Vec<OpId> {
        if (s, e) == WHOLE {
            return self.arena.node_ops(node).to_vec();
        }
        self.arena.children(node)[s as usize..e as usize]
            .iter()
            .flat_map(|&c| self.arena.node_ops(c).iter().copied())
            .collect()
    }

    fn collect_stages(&self, id: FragId, out: &mut Vec<SolvedStage>) {
        match self.frag(id).repr {
            FragRepr::Single(ps) => out.push(SolvedStage {
                ops: self.resolve_ops(ps.node, ps.s, ps.e),
                d: ps.d,
                b: ps.b,
                k: ps.k,
            }),
            FragRepr::Cat(a, b) => {
                self.collect_stages(a, out);
                self.collect_stages(b, out);
            }
        }
    }

    /// Flattens the winning fragment into an owned, `Send` solution.
    fn extract(&self, id: FragId) -> Solution {
        let f = self.frag(id);
        let mut stages = Vec::with_capacity(f.len as usize);
        self.collect_stages(id, &mut stages);
        Solution {
            stages,
            peak_mem: f.peak_mem,
            max_entry: f.max_entry,
        }
    }
}

// ----------------------------------------------------- search primitives --

/// A solved stage of a finished DP run, with ops resolved.
#[derive(Debug, Clone)]
struct SolvedStage {
    ops: Vec<OpId>,
    d: u32,
    b: u64,
    k: u64,
}

/// The owned, thread-transferable result of one successful DP run.
#[derive(Debug, Clone)]
struct Solution {
    stages: Vec<SolvedStage>,
    peak_mem: u64,
    max_entry: u64,
}

impl Solution {
    /// PickBetter key of Algorithm 1: less memory wins across
    /// configurations; ties broken by in-flight pressure.
    fn pick_key(&self) -> (u64, Score) {
        (
            self.peak_mem,
            (self.max_entry, self.peak_mem, self.stages.len()),
        )
    }
}

/// How a DP run ended.
#[derive(Debug, Clone)]
enum Outcome {
    /// The run finished: its best solution, or `None` when no partition
    /// meets the target.
    Done(Option<Solution>),
    /// The run charged more evals than its budget.
    Exploded,
    /// Its pass's cut dropped below the run before it finished: an earlier
    /// configuration ended the pass, so nothing reads this run.
    Cancelled,
}

/// One DP run (one micro-batch configuration at one target): its outcome
/// and counters.
#[derive(Debug, Clone)]
struct RunResult {
    outcome: Outcome,
    evals: u64,
    distinct_states: u64,
    memo_hits: u64,
    memo_misses: u64,
    work_bound_prunes: u64,
    memory_prunes: u64,
    beam_prunes: u64,
    eval_batches: u64,
}

impl RunResult {
    /// Whether no configuration past this one is consumed: the run ran
    /// out of budget (so it does under any smaller budget too), or it is
    /// feasible and its pass is a lazy probe.
    fn ends_pass(&self, lazy: bool) -> bool {
        match &self.outcome {
            Outcome::Done(solution) => lazy && solution.is_some(),
            Outcome::Exploded => true,
            Outcome::Cancelled => false,
        }
    }
}

/// The index of the earliest run known to end a pass (`usize::MAX` until
/// one does). No run past it is consumed, so none is claimed, and the
/// runs past it that are under way stop at their next poll.
struct Cut(AtomicUsize);

impl Cut {
    fn new() -> Cut {
        Cut(AtomicUsize::new(usize::MAX))
    }

    /// Whether run `index` lies past the cut.
    fn passed(&self, index: usize) -> bool {
        self.0.load(Ordering::Relaxed) < index
    }

    fn lower(&self, index: usize) {
        self.0.fetch_min(index, Ordering::Relaxed);
    }
}

/// Everything a DP run needs, shared (immutably) across worker threads.
struct SearchCtx<'a> {
    graph: &'a Graph,
    cost: CostModel,
    /// The SP tree with every absorbed variant, and each chain node's
    /// statics (see [`ChainStatic::all`]).
    arena: Arena,
    statics: Vec<Option<ChainStatic>>,
    devices: u32,
    mini_batch: u64,
    /// Per-op times at every micro-batch size the search tries.
    table: OpTable,
    /// Whole-model fwd+bwd time per table column, summed in
    /// `graph.nodes()` order.
    totals: Vec<f64>,
    options: &'a PlanOptions,
    /// Work-conservation lower bound on the achievable TPS.
    t_base: f64,
    /// Loosest target worth probing (`cost.max_tps` of the whole model).
    t_hi0: f64,
}

impl<'a> SearchCtx<'a> {
    fn new(
        model: &'a SpModel,
        cluster: &Cluster,
        mini_batch: u64,
        options: &'a PlanOptions,
    ) -> Result<SearchCtx<'a>, PlanError> {
        let b_all = options.micro_batch_sizes(mini_batch)?;
        // Below one ulp of relative gap the bisection could never close.
        if !(options.epsilon.is_finite() && options.epsilon >= f64::EPSILON) {
            return Err(PlanError::Infeasible(format!(
                "epsilon must be finite and at least f64::EPSILON, got {}",
                options.epsilon
            )));
        }
        if options.kfkb_candidates.is_empty() || options.kfkb_candidates.contains(&0) {
            return Err(PlanError::Infeasible(
                "kfkb_candidates must be non-empty and every k at least 1".to_string(),
            ));
        }
        // A larger k schedules like k = mini-batch, but `k * b` in the
        // in-flight formula wraps and lets an oversized stage fit.
        if let Some(k) = options.kfkb_candidates.iter().find(|&&k| k > mini_batch) {
            return Err(PlanError::Infeasible(format!(
                "kfkb_candidates must not exceed the mini-batch {mini_batch}, got {k}"
            )));
        }
        let graph = model.graph();
        let cost = CostModel::new(cluster);
        let devices = cluster.device_count() as u32;
        let t_hi0 = cost.max_tps(graph);
        // A device without compute throughput or memory bandwidth makes
        // the bound infinite (a tiny one puts it near f64::MAX), a NaN
        // kernel overhead makes it NaN, and the bracket ladder up to
        // `4 * t_hi0` then never ends. The error names the profile fields
        // `op_time` reads that are at fault: any that is not finite, and a
        // divisor that is not positive.
        if !(4.0 * t_hi0).is_finite() {
            let p = cluster.profile();
            let faults: Vec<String> = [
                ("peak_flops", p.peak_flops, true),
                ("mem_bandwidth", p.mem_bandwidth, true),
                ("kernel_overhead", p.kernel_overhead, false),
                ("efficiency_half_sat", p.efficiency_half_sat, false),
            ]
            .into_iter()
            .filter(|&(_, v, divisor)| !v.is_finite() || (divisor && v <= 0.0))
            .map(|(field, v, _)| format!("{field} is {v}"))
            .collect();
            let why = if faults.is_empty() {
                "the device profile prices the model past f64::MAX / 4".to_string()
            } else {
                format!("device profile {}", faults.join(", "))
            };
            return Err(PlanError::Infeasible(format!("max_tps is {t_hi0}: {why}")));
        }
        let table = OpTable::new(&cost, graph, &b_all);
        let totals = (0..b_all.len())
            .map(|col| graph.nodes().map(|n| table.time(n.id, col)).sum())
            .collect();
        let arena = Arena::build(model.root());
        let statics = ChainStatic::all(&arena, graph);
        let mut ctx = SearchCtx {
            graph,
            cost,
            arena,
            statics,
            devices,
            mini_batch,
            table,
            totals,
            options,
            t_base: 0.0,
            t_hi0,
        };
        // The optimum can never beat the work-conservation bound
        // min_b total(b) / (b * |V_D|).
        ctx.t_base = (0..b_all.len())
            .map(|col| ctx.work_bound(col))
            .fold(f64::INFINITY, f64::min)
            .max(1e-12);
        Ok(ctx)
    }

    /// The whole model's time per sample at the table's size `col`,
    /// spread over every device: no partition at that size beats it.
    fn work_bound(&self, col: usize) -> f64 {
        self.totals[col] / (self.table.sizes()[col] as f64 * self.devices as f64)
    }

    /// The geometric bracket ladder: `2 * t_base * 2^j` while within the
    /// loosest worthwhile target.
    fn ladder(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = 2.0 * self.t_base;
        while t <= 4.0 * self.t_hi0 {
            out.push(t);
            t *= 2.0;
        }
        out
    }

    /// The micro-batch candidate lists of a probe at target `t` (one DP
    /// run each), plus how many sizes the work-conservation pre-filter
    /// discarded. Skipping sizes whose bound already exceeds the target is
    /// sound: the whole model's work must fit `d * t_max`.
    fn run_specs(&self, t: f64) -> (Vec<Vec<u64>>, u64) {
        let sizes = self.table.sizes();
        let feasible: Vec<u64> = (0..sizes.len())
            .filter(|&col| self.work_bound(col) <= t)
            .map(|col| sizes[col])
            .collect();
        let filtered = (sizes.len() - feasible.len()) as u64;
        let specs = if self.options.per_stage_micro_batch {
            if feasible.is_empty() {
                Vec::new()
            } else {
                vec![feasible]
            }
        } else {
            feasible.into_iter().map(|b| vec![b]).collect()
        };
        (specs, filtered)
    }
}

/// Runs one DP to completion: one `(t_max, micro-batch candidates)`
/// configuration under `budget` evals, as run `index` of the pass that
/// `cut` belongs to.
fn run_dp(
    ctx: &SearchCtx<'_>,
    t_max: f64,
    b_cands: Vec<u64>,
    budget: u64,
    cut: &Cut,
    index: usize,
) -> RunResult {
    let mut dp = Dp::new(ctx, t_max, b_cands, budget, cut, index);
    let sol = dp.solve(ctx.arena.root, ctx.devices, 0);
    let outcome = if dp.cancelled {
        Outcome::Cancelled
    } else if dp.exploded {
        Outcome::Exploded
    } else {
        Outcome::Done(sol.map(|id| dp.extract(id)))
    };
    RunResult {
        outcome,
        evals: dp.evals,
        distinct_states: dp.memo.filled,
        memo_hits: dp.memo_hits,
        memo_misses: dp.memo_misses,
        work_bound_prunes: dp.work_bound_prunes,
        memory_prunes: dp.memory_prunes,
        beam_prunes: dp.beam_prunes,
        eval_batches: dp.eval_batches,
    }
}

// ----------------------------------------------------------- the driver --

/// Evals a search charges before its passes may spawn helpers. A spawn
/// and join costs 130–190 µs on a 2-core host, several thousand evals'
/// worth, so a search must first show it is big enough to repay one;
/// the tiny zoo models at 2 devices and mini-batch 8 charge 38–130 evals
/// in all, lazy probes or not, and never spawn.
const FANOUT_MIN_EVALS: u64 = 50_000;

/// Where a search's helper threads come from: `cores`, tapped only once
/// the search has charged `gate` evals.
#[derive(Clone, Copy)]
struct Fanout<'b> {
    cores: &'b CoreBudget,
    gate: u64,
}

impl Fanout<'static> {
    /// The process-wide core budget behind [`FANOUT_MIN_EVALS`].
    fn host() -> Self {
        Fanout {
            cores: CoreBudget::global(),
            gate: FANOUT_MIN_EVALS,
        }
    }
}

/// The pass executor: runs the DP of each micro-batch configuration in
/// `specs` at target `t` and returns, in spec order, every run up to the
/// first that ends the pass ([`RunResult::ends_pass`]) for [`consume`].
/// A lazy probe ends at its first feasible run; any pass ends at a run
/// that exhausted the budget.
///
/// The calling thread claims runs from the front, in spec order, under
/// the exact sequential budget trajectory: run `i` gets what remains
/// after the `charged` evals and runs `0..i`. Once the search has charged
/// `fanout.gate` evals, counting this pass's finished runs, it leases
/// helpers for all but one of the unclaimed runs. Helpers claim from the
/// back, the largest micro-batch first, because the work-conservation
/// bound prunes large micro-batches least, so the last runs usually cost
/// the most. A helper's run gets the pass's whole remaining budget, which
/// [`consume`] judges against the sequential remainder. A run that ends the
/// pass lowers the [`Cut`] to its index: no run past it is claimed, and
/// the runs past it that are under way end as [`Outcome::Cancelled`].
fn run_pass(
    ctx: &SearchCtx<'_>,
    t: f64,
    specs: &[Vec<u64>],
    lazy: bool,
    charged: u64,
    fanout: Fanout<'_>,
    telemetry: &Telemetry,
) -> Vec<RunResult> {
    let remaining = ctx.options.eval_budget.saturating_sub(charged);
    let unclaimed = Mutex::new(0..specs.len());
    let claim = |from_back: bool| {
        let mut runs = unclaimed.lock().expect("no thread panics claiming a run");
        if from_back {
            runs.next_back()
        } else {
            runs.next()
        }
    };
    let cut = Cut::new();
    let slots: Vec<OnceLock<RunResult>> = specs.iter().map(|_| OnceLock::new()).collect();
    let finish = |i: usize, run: RunResult| {
        if run.ends_pass(lazy) {
            cut.lower(i);
            let mut runs = unclaimed.lock().expect("no thread panics claiming a run");
            runs.end = runs.end.min(i).max(runs.start);
        }
        assert!(slots[i].set(run).is_ok(), "run {i} executed twice");
    };
    let helper = || {
        while let Some(i) = claim(true) {
            finish(i, run_dp(ctx, t, specs[i].clone(), remaining, &cut, i));
        }
    };
    let mut helpers = None;
    std::thread::scope(|s| {
        let mut used = 0u64;
        loop {
            if helpers.is_none() && charged + used >= fanout.gate {
                let left = unclaimed
                    .lock()
                    .expect("no thread panics claiming a run")
                    .len();
                let lease = fanout.cores.helpers(left.saturating_sub(1));
                if lease.granted() > 0 {
                    telemetry.counter_add("planner.fanout_probes", 1);
                    telemetry.counter_add("planner.fanout_helpers", lease.granted() as u64);
                    for _ in 0..lease.granted() {
                        s.spawn(helper);
                    }
                    helpers = Some(lease);
                }
            }
            let Some(i) = claim(false) else { break };
            let run = run_dp(
                ctx,
                t,
                specs[i].clone(),
                remaining.saturating_sub(used),
                &cut,
                i,
            );
            used += run.evals;
            finish(i, run);
        }
    });
    drop(helpers);
    // Every run up to the cut finished: none was past it when polled.
    let consumed = cut.0.into_inner().saturating_add(1);
    slots
        .into_iter()
        .take(consumed)
        .map(|slot| slot.into_inner().expect("runs up to the cut finish"))
        .collect()
}

/// The answer of a feasible probe: its first feasible configuration.
struct Answer {
    /// The probe's target.
    t: f64,
    /// The configuration's index in [`SearchCtx::run_specs`] order.
    index: usize,
    solution: Solution,
}

/// One binary-search probe at target `t`: runs its configurations lazily,
/// then consumes its runs into the search's stats and budget trajectory.
fn probe(
    ctx: &SearchCtx<'_>,
    t: f64,
    fanout: Fanout<'_>,
    stats: &mut SearchStats,
    evals_used: &mut u64,
    telemetry: &Telemetry,
) -> Result<Option<Answer>, PlanError> {
    let _probe = telemetry.span_with("search.probe", stats.binary_iters as u64 + 1);
    stats.binary_iters += 1;
    let (specs, filtered) = ctx.run_specs(t);
    stats.work_bound_prunes += filtered;
    let runs = run_pass(ctx, t, &specs, true, *evals_used, fanout, telemetry);
    for (index, run) in runs.into_iter().enumerate() {
        if let Some(solution) = consume(ctx, run, stats, evals_used, telemetry)? {
            return Ok(Some(Answer { t, index, solution }));
        }
    }
    Ok(None)
}

/// The completion pass at the final target: runs the configurations
/// after the answer's, then picks by `pick_key` in configuration order,
/// starting from the answer. That is the pick of a probe that ran every
/// configuration.
fn complete(
    ctx: &SearchCtx<'_>,
    answer: Answer,
    fanout: Fanout<'_>,
    stats: &mut SearchStats,
    evals_used: &mut u64,
    telemetry: &Telemetry,
) -> Result<Solution, PlanError> {
    let (mut specs, _) = ctx.run_specs(answer.t);
    let rest = specs.split_off(answer.index + 1);
    let _complete = telemetry.span_with("search.complete", rest.len() as u64);
    let runs = run_pass(ctx, answer.t, &rest, false, *evals_used, fanout, telemetry);
    let mut best = answer.solution;
    for run in runs {
        if let Some(sol) = consume(ctx, run, stats, evals_used, telemetry)? {
            if sol.pick_key() < best.pick_key() {
                best = sol;
            }
        }
    }
    Ok(best)
}

/// Consumes one run, in configuration order, into the search's stats and
/// budget trajectory, and returns its solution. A run whose count passes
/// the sequential remaining budget is where the sequential search runs
/// out of it (see the module doc), whatever budget the run had: the
/// search explodes at its first eval past `eval_budget`.
fn consume(
    ctx: &SearchCtx<'_>,
    run: RunResult,
    stats: &mut SearchStats,
    evals_used: &mut u64,
    telemetry: &Telemetry,
) -> Result<Option<Solution>, PlanError> {
    let remaining = ctx.options.eval_budget - *evals_used;
    // Histogram of work per DP invocation: data-valued (eval counts,
    // not times), so its contents are themselves deterministic. A run
    // that explodes records the eval past the budget the search reports.
    let solution = match run.outcome {
        Outcome::Done(solution) if run.evals <= remaining => solution,
        Outcome::Cancelled => {
            return Err(PlanError::Internal(
                "a cancelled DP run was consumed".to_string(),
            ))
        }
        Outcome::Done(_) | Outcome::Exploded => {
            telemetry.record("planner.dp_evals_per_run", remaining + 1);
            return Err(PlanError::SearchExplosion {
                evals: ctx.options.eval_budget + 1,
            });
        }
    };
    telemetry.record("planner.dp_evals_per_run", run.evals);
    stats.configs_tried += 1;
    *evals_used += run.evals;
    stats.dp_evals += run.evals;
    stats.dp_states = stats.dp_states.max(run.distinct_states);
    stats.memo_hits += run.memo_hits;
    stats.memo_misses += run.memo_misses;
    stats.work_bound_prunes += run.work_bound_prunes;
    stats.memory_prunes += run.memory_prunes;
    stats.beam_prunes += run.beam_prunes;
    stats.eval_batches += run.eval_batches;
    Ok(solution)
}

/// Algorithm 1 lines 2–11: geometric bracketing from the
/// work-conservation bound, then bisection to `epsilon`, then the
/// completion pass at the final target. Probes run one at a time in this
/// sequence; only a pass's own runs fan out (see [`run_pass`]).
fn drive_search(
    ctx: &SearchCtx<'_>,
    fanout: Fanout<'_>,
    telemetry: &Telemetry,
) -> Result<(Solution, SearchStats), PlanError> {
    // This thread's core, held for the whole search.
    let _own_core = fanout.cores.enter();
    let mut stats = SearchStats::default();
    let mut evals_used = 0u64;
    let epsilon = ctx.options.epsilon;
    let mut answer: Option<Answer> = None;
    let mut t_lo = ctx.t_base;
    let mut t_hi = 2.0 * ctx.t_base;
    {
        let _bracket = telemetry.span("search.bracket");
        for t in ctx.ladder() {
            t_hi = t;
            answer = probe(ctx, t, fanout, &mut stats, &mut evals_used, telemetry)?;
            if answer.is_some() {
                break;
            }
            // Infeasible: every lower target is infeasible too
            // (feasibility is monotone in the target).
            t_lo = t;
        }
    }
    let Some(mut answer) = answer else {
        return Err(PlanError::Infeasible(format!(
            "no partition fits the {} MiB device memory budget",
            ctx.cost.memory_budget() >> 20
        )));
    };
    let _bisect = telemetry.span("search.bisect");
    // Refine within the bracket [t_lo, t_hi].
    while t_hi - t_lo > epsilon * t_hi {
        let t_m = 0.5 * (t_lo + t_hi);
        match probe(ctx, t_m, fanout, &mut stats, &mut evals_used, telemetry)? {
            Some(found) => {
                answer = found;
                t_hi = t_m;
            }
            None => t_lo = t_m,
        }
    }
    let solution = complete(ctx, answer, fanout, &mut stats, &mut evals_used, telemetry)?;
    Ok((solution, stats))
}

// --------------------------------------------------------------- planner --

/// The GraphPipe planner: topology-aware stage partitioning with the §6
/// micro-batch scheduler in the loop.
///
/// Large searches fan each probe's micro-batch runs out onto cores that
/// no other search holds; the produced plan does not depend on how many
/// cores it got.
///
/// # Examples
///
/// ```
/// use gp_cluster::Cluster;
/// use gp_ir::zoo::{self, CandleUnoConfig};
/// use gp_partition::{GraphPipePlanner, Planner};
///
/// let model = zoo::candle_uno(&CandleUnoConfig::default());
/// let cluster = Cluster::summit_like(8);
/// let plan = GraphPipePlanner::new().plan(&model, &cluster, 8192)?;
/// // Parallel branches keep the pipeline shallow: depth < stage count.
/// assert!(plan.pipeline_depth() <= plan.stage_graph.len());
/// # Ok::<(), gp_partition::PlanError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphPipePlanner {
    options: PlanOptions,
    /// Telemetry handle (inert by default): search spans and counters.
    /// Write-only — never read back into the plan.
    telemetry: Telemetry,
}

impl GraphPipePlanner {
    /// Planner with default options (uniform micro-batch, 1F1B).
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with explicit options.
    pub fn with_options(options: PlanOptions) -> Self {
        GraphPipePlanner {
            options,
            ..Self::default()
        }
    }

    /// Attach a telemetry handle; search phases emit spans under it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The options in effect.
    pub fn options(&self) -> &PlanOptions {
        &self.options
    }

    /// The search with helper threads drawn from `fanout`.
    fn plan_with(
        &self,
        model: &SpModel,
        cluster: &Cluster,
        mini_batch: u64,
        fanout: Fanout<'_>,
    ) -> Result<Plan, PlanError> {
        let _search_span = self.telemetry.span("planner.search");
        let clock = ClockHandle::default();
        let start = clock.now_nanos();
        let ctx = SearchCtx::new(model, cluster, mini_batch, &self.options)?;
        let (solution, stats) = drive_search(&ctx, fanout, &self.telemetry)?;
        let _finalize_span = self.telemetry.span("planner.finalize");
        let mut plan =
            Self::solution_to_plan(&solution, model, cluster, &ctx.cost, mini_batch, stats)?;
        plan.stats.wall = clock.since(start);
        Ok(plan)
    }

    fn solution_to_plan(
        solution: &Solution,
        model: &SpModel,
        cluster: &Cluster,
        cost: &CostModel,
        mini_batch: u64,
        stats: SearchStats,
    ) -> Result<Plan, PlanError> {
        // Place wide (data-parallel) stages first so their replicas stay
        // within a node: a 4-way stage allreduces over NVLink instead of
        // straddling the node boundary onto InfiniBand.
        let mut order: Vec<usize> = (0..solution.stages.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(solution.stages[i].d));
        let mut ranges: Vec<Option<DeviceRange>> = vec![None; solution.stages.len()];
        let mut cursor = 0u32;
        for &i in &order {
            ranges[i] = Some(DeviceRange::new(cursor, solution.stages[i].d));
            cursor += solution.stages[i].d;
        }
        let stages: Vec<Stage> = solution
            .stages
            .iter()
            .enumerate()
            .map(|(i, ps)| Stage {
                id: StageId(i as u32),
                ops: ps.ops.clone(),
                devices: ranges[i].expect("every stage placed"),
                micro_batch: ps.b,
                kfkb: ps.k,
            })
            .collect();
        let stage_graph = StageGraph::new(model.graph(), cluster, stages, mini_batch)
            .map_err(|e| PlanError::Internal(e.to_string()))?;
        Ok(Plan::from_stage_graph(stage_graph, model, cost, stats))
    }
}

impl Planner for GraphPipePlanner {
    fn name(&self) -> &str {
        "graphpipe"
    }

    fn plan(&self, model: &SpModel, cluster: &Cluster, mini_batch: u64) -> Result<Plan, PlanError> {
        self.plan_with(model, cluster, mini_batch, Fanout::host())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, CandleUnoConfig, DlrmConfig, MmtConfig, MoeConfig};

    fn plan_for(model: &SpModel, devices: usize, mini_batch: u64) -> Result<Plan, PlanError> {
        GraphPipePlanner::new().plan(model, &Cluster::summit_like(devices), mini_batch)
    }

    #[test]
    fn down_canonicalization_keeps_binding_entry() {
        let d = Down::from_entries(vec![(1, 4, 8), (1, 4, 16), (2, 2, 4)]);
        assert_eq!(d.0, vec![(1, 4, 16), (2, 2, 4)]);
    }

    #[test]
    fn down_entry_in_flight_sink() {
        assert_eq!(Down::default().entry_in_flight(1, 4), 4);
        assert_eq!(Down::default().entry_in_flight(2, 4), 8);
    }

    #[test]
    fn down_entry_in_flight_max_over_entries() {
        let d = Down::from_entries(vec![(1, 4, 4), (1, 4, 12)]);
        // CIF(1,4,1,4,12) = 16 dominates CIF(1,4,1,4,4) = 8.
        assert_eq!(d.entry_in_flight(1, 4), 16);
    }

    #[test]
    fn dp_state_is_send() {
        // The whole point of the arena refactor: a DP run can live on a
        // worker thread. (Compile-time check.)
        fn assert_send<T: Send>() {}
        assert_send::<Dp<'static>>();
        assert_send::<RunResult>();
        assert_send::<Solution>();
    }

    #[test]
    fn branch_range_slots_are_triangular_and_unique() {
        for m in 1u16..8 {
            let mut seen = vec![false; (m as usize) * (m as usize + 1) / 2];
            for from in 0..m {
                for to in from + 1..=m {
                    let slot = range_slot(m, from, to) as usize;
                    assert!(!seen[slot], "m={m} ({from},{to}) collides");
                    seen[slot] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "m={m} leaves holes");
        }
    }

    #[test]
    fn memo_table_counts_distinct_cells_once() {
        let mut memo = MemoTable::new(4, 2);
        assert_eq!(memo.get(0, 0, 1), MEMO_EMPTY);
        memo.set(0, 0, 1, 7);
        memo.set(0, 0, 1, 9); // overwrite: not a new state
        memo.set(0, 3, 4, MEMO_NONE);
        memo.set(1, 0, 2, 0);
        assert_eq!(memo.filled, 3);
        assert_eq!(memo.get(0, 0, 1), 9);
        assert_eq!(memo.get(0, 3, 4), MEMO_NONE);
        assert_eq!(memo.get(1, 0, 2), 0);
        assert_eq!(memo.get(1, 1, 1), MEMO_EMPTY);
    }

    #[test]
    fn op_table_matches_op_time_bit_for_bit() {
        // The plan-cold models at their 32-GPU operating points (moe at
        // 128 too), and their tiny variants as train-tiny plans them.
        use gp_ir::zoo::{GnnPipeConfig, Gpt2Config};
        let cells: Vec<(SpModel, usize, u64)> = vec![
            (zoo::mmt(&MmtConfig::default()), 32, 512),
            (zoo::dlrm(&DlrmConfig::default()), 32, 2048),
            (zoo::candle_uno(&CandleUnoConfig::default()), 32, 32768),
            (zoo::candle_uno(&CandleUnoConfig::full()), 32, 32768),
            (zoo::moe(&MoeConfig::default()), 32, 1024),
            (zoo::moe(&MoeConfig::default()), 128, 4096),
            (zoo::gpt2(&Gpt2Config::default()), 32, 256),
            (zoo::gnn_pipe(&GnnPipeConfig::default()), 32, 512),
            (zoo::mmt(&MmtConfig::tiny()), 2, 8),
            (zoo::dlrm(&DlrmConfig::tiny()), 2, 8),
            (zoo::candle_uno(&CandleUnoConfig::tiny()), 2, 8),
            (zoo::moe(&MoeConfig::tiny()), 2, 8),
            (zoo::gpt2(&Gpt2Config::tiny()), 2, 8),
            (zoo::gnn_pipe(&GnnPipeConfig::tiny()), 2, 8),
        ];
        let options = PlanOptions::default().with_max_micro_batches(128);
        for (model, devices, mini_batch) in cells {
            let label = format!("{}@{devices}", model.name());
            let cluster = Cluster::summit_like(devices);
            let ctx = SearchCtx::new(&model, &cluster, mini_batch, &options).unwrap();
            let (graph, cost, table) = (model.graph(), &ctx.cost, &ctx.table);
            assert!(!table.sizes().is_empty(), "{label}");
            for (col, &b) in table.sizes().iter().enumerate() {
                // The in-order sum every DP run used to recompute.
                let total: f64 = graph
                    .nodes()
                    .map(|n| {
                        let fwd = cost.op_time(graph, n.id, b, gp_cost::Pass::Forward);
                        let bwd = cost.op_time(graph, n.id, b, gp_cost::Pass::Backward);
                        assert_eq!(table.fwd(n.id, col).to_bits(), fwd.to_bits(), "{label}");
                        assert_eq!(table.bwd(n.id, col).to_bits(), bwd.to_bits(), "{label}");
                        let t = fwd + bwd;
                        let got = table.time(n.id, col);
                        assert_eq!(got.to_bits(), t.to_bits(), "{label} b={b} {}", n.name);
                        t
                    })
                    .sum();
                assert_eq!(ctx.totals[col].to_bits(), total.to_bits(), "{label} b={b}");
            }
        }
    }

    #[test]
    fn plans_sequential_chain() {
        let model = zoo::mlp_chain(8, 512);
        let plan = plan_for(&model, 4, 32).unwrap();
        assert_eq!(plan.stage_graph.mini_batch(), 32);
        let total: usize = plan.stage_graph.stages().map(|s| s.dp_degree()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn multi_branch_model_gets_shallow_pipeline() {
        let model = zoo::candle_uno(&CandleUnoConfig::default());
        let plan = plan_for(&model, 8, 1024).unwrap();
        assert!(
            plan.pipeline_depth() < plan.stage_graph.len() || plan.stage_graph.len() <= 2,
            "depth {} vs {} stages",
            plan.pipeline_depth(),
            plan.stage_graph.len()
        );
    }

    #[test]
    fn case_study_produces_depth_below_stage_count() {
        let model = zoo::case_study(&zoo::MmtConfig::default());
        let plan = plan_for(&model, 8, 64).unwrap();
        assert!(plan.stage_graph.len() >= 2);
        assert!(plan.pipeline_depth() <= plan.stage_graph.len());
    }

    #[test]
    fn dp_in_flight_matches_scheduler() {
        // The DP's bottom-up in-flight accounting must agree with the
        // authoritative assign_in_flight over the final stage graph.
        let model = zoo::mmt(&MmtConfig::two_branch());
        let plan = plan_for(&model, 4, 64).unwrap();
        let table = gp_sched::assign_in_flight(&plan.stage_graph);
        for s in plan.stage_graph.stages() {
            assert_eq!(plan.in_flight.samples(s.id), table.samples(s.id));
        }
    }

    #[test]
    fn memory_constraint_is_respected() {
        let model = zoo::mmt(&MmtConfig::two_branch());
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 64).unwrap();
        assert!(plan.peak_memory_bytes <= cluster.profile().mem_capacity);
    }

    #[test]
    fn infeasible_memory_is_reported() {
        let model = zoo::mmt(&MmtConfig::default());
        let cluster = Cluster::summit_like(4).with_memory_capacity(1 << 20);
        let err = GraphPipePlanner::new()
            .plan(&model, &cluster, 64)
            .unwrap_err();
        assert!(matches!(err, PlanError::Infeasible(_)), "{err:?}");
    }

    /// Plans a two-layer chain on its own thread (see [`plan_model_guarded`]).
    fn plan_guarded(
        label: &str,
        options: PlanOptions,
        cluster: Cluster,
        mini_batch: u64,
    ) -> Result<Plan, PlanError> {
        plan_model_guarded(label, zoo::mlp_chain(2, 512), options, cluster, mini_batch)
    }

    /// Plans `model` on its own thread, so a search that never ends fails
    /// the calling test after 5 s instead of stalling it, and one that
    /// panics fails it with "no answer".
    fn plan_model_guarded(
        label: &str,
        model: SpModel,
        options: PlanOptions,
        cluster: Cluster,
        mini_batch: u64,
    ) -> Result<Plan, PlanError> {
        let (done, reply) = std::sync::mpsc::channel();
        let planner = std::thread::spawn(move || {
            let planner = GraphPipePlanner::with_options(options);
            let _ = done.send(planner.plan(&model, &cluster, mini_batch));
        });
        let result = reply
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{label}: no answer ({e})"));
        planner.join().expect("the planner thread has answered");
        result
    }

    #[test]
    fn hostile_search_options_are_rejected_before_any_probe() {
        // An epsilon under one ulp of relative gap never closes the
        // bisection, k = 0 panics the in-flight formula, no k at all used
        // to be blamed on the memory budget, and a k whose product with the
        // micro-batch wraps used to fit any stage and then hang the
        // schedule builder.
        let cases: [(&str, f64, &[u64]); 11] = [
            ("epsilon", 0.0, &[1]),
            ("epsilon", -1.0, &[1]),
            ("epsilon", 1e-16, &[1]),
            ("epsilon", 1e-300, &[1]),
            ("epsilon", f64::NAN, &[1]),
            ("epsilon", f64::INFINITY, &[1]),
            ("kfkb_candidates", 0.01, &[0]),
            ("kfkb_candidates", 0.01, &[1, 0]),
            ("kfkb_candidates", 0.01, &[]),
            ("kfkb_candidates", 0.01, &[1, 1 << 62]),
            ("kfkb_candidates", 0.01, &[u64::MAX]),
        ];
        for (option, epsilon, kfkb) in cases {
            let label = format!("epsilon {epsilon:?}, kfkb_candidates {kfkb:?}");
            let options = PlanOptions::default()
                .with_epsilon(epsilon)
                .with_kfkb_candidates(kfkb.to_vec());
            match plan_guarded(&label, options, Cluster::summit_like(4), 32) {
                Err(PlanError::Infeasible(msg)) if msg.starts_with(option) => {}
                Err(e) => panic!("{label}: expected an `{option}` error, got {e:?}"),
                Ok(_) => panic!("{label}: planned instead of rejecting"),
            }
        }
        // The smallest epsilon the search accepts still terminates.
        let tight = PlanOptions::default().with_epsilon(f64::EPSILON);
        if let Err(e) = plan_guarded("epsilon f64::EPSILON", tight, Cluster::summit_like(4), 32) {
            panic!("epsilon f64::EPSILON: {e}");
        }
    }

    #[test]
    fn mini_batches_past_u32_are_rejected_before_any_probe() {
        // Past u32::MAX, `k <= mini_batch` no longer bounds `k * b`: these
        // inputs overflowed the FLOP product, the stage memory and the
        // in-flight formula, panicking a debug build and returning a plan
        // with a wrapped in-flight count from a release one.
        let cases: [(u64, u64); 3] = [(1 << 62, 1), (1 << 33, 1 << 31), (1 << 40, 1 << 40)];
        for (mini_batch, k) in cases {
            let label = format!("mini_batch {mini_batch}, kfkb_candidates [{k}]");
            let options = PlanOptions::default().with_kfkb_candidates(vec![k]);
            match plan_guarded(&label, options, Cluster::summit_like(4), mini_batch) {
                Err(PlanError::Infeasible(msg)) if msg.starts_with("mini_batch") => {}
                other => panic!("{label}: expected a mini_batch error, got {other:?}"),
            }
        }
    }

    #[test]
    fn stage_memory_past_u64_is_over_budget() {
        // Inside the u32 bound, k = 2^31 in-flight micro-batches of up to
        // 2^31 samples times a stage's activation bytes still pass
        // u64::MAX: the product panicked a debug build, and a release build
        // wrapped it, fitting a one-stage plan into 8.4 MB.
        let label = "mini_batch 2^31, kfkb_candidates [2^31]";
        let options = PlanOptions::default().with_kfkb_candidates(vec![1 << 31]);
        match plan_guarded(label, options, Cluster::summit_like(4), 1 << 31) {
            Err(PlanError::Infeasible(_)) => {}
            other => panic!("{label}: expected an over-budget error, got {other:?}"),
        }
    }

    /// `input -> fc -> head -> loss`, the head one element wide. At k = 1
    /// the suffix `[loss]` stashes 4 bytes per sample and fits, so the
    /// chain solver's split loop prices heads against it.
    fn narrow_head_chain(hidden: usize) -> SpModel {
        let mut b = gp_ir::GraphBuilder::new();
        let input = b.input("input", gp_ir::Shape::vector(hidden));
        let fc = b.linear("fc", input, hidden, true).unwrap();
        let head = b.linear("head", fc, 1, true).unwrap();
        let loss = b.loss("loss", &[head]);
        let root = SpBlock::Chain([input, fc, head, loss].map(SpBlock::Leaf).to_vec());
        SpModel::new("narrow-head", b.finish().unwrap(), root).unwrap()
    }

    #[test]
    fn split_head_memory_past_u64_is_over_budget() {
        // The split loop's head pricing has its own copy of the stage
        // memory product: with the suffix `[loss]` at k = 1, a head at
        // k = 2^31 takes it past u64::MAX.
        let label = "narrow-head chain, mini_batch 2^31, kfkb_candidates [1, 2^31]";
        let options = PlanOptions::default().with_kfkb_candidates(vec![1, 1 << 31]);
        let model = narrow_head_chain(512);
        match plan_model_guarded(label, model, options, Cluster::summit_like(4), 1 << 31) {
            Err(PlanError::Infeasible(_)) => {}
            other => panic!("{label}: expected an over-budget error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_cost_bounds_are_rejected_before_any_probe() {
        // Without compute throughput every op takes forever: `max_tps` is
        // infinite, and the bracket ladder up to `4 * max_tps` used to grow
        // unbounded. A tiny throughput that lands `max_tps` in
        // (f64::MAX / 4, f64::MAX] overflows the same bound.
        // A NaN kernel overhead makes it NaN, and the error must blame the
        // overhead, not the throughput.
        let v100 = gp_cluster::DeviceProfile::v100();
        let cluster = |peak_flops: f64, kernel_overhead: f64| {
            let mut profile = gp_cluster::DeviceProfile::v100();
            profile.peak_flops = peak_flops;
            profile.kernel_overhead = kernel_overhead;
            let link = gp_cluster::LinkProfile::nvlink();
            Cluster::new(profile, 4, 4, link, link)
        };
        // `max_tps` scales as 1 / peak_flops once compute dominates.
        let max_tps = |c: &Cluster| CostModel::new(c).max_tps(zoo::mlp_chain(2, 512).graph());
        let tiny = max_tps(&cluster(1.0, v100.kernel_overhead)) / (f64::MAX / 2.0);
        let huge = max_tps(&cluster(tiny, v100.kernel_overhead));
        assert!(huge.is_finite() && huge > f64::MAX / 4.0, "{huge}");
        // Each profile and the one field its error names (none for the
        // tiny throughput: every field is finite and positive there).
        let cases = [
            (0.0, v100.kernel_overhead, Some("peak_flops")),
            (tiny, v100.kernel_overhead, None),
            (v100.peak_flops, f64::NAN, Some("kernel_overhead")),
        ];
        let fields = [
            "peak_flops",
            "mem_bandwidth",
            "kernel_overhead",
            "efficiency_half_sat",
        ];
        for (peak_flops, kernel_overhead, blamed) in cases {
            let label = format!("peak_flops {peak_flops:e}, kernel_overhead {kernel_overhead:e}");
            let c = cluster(peak_flops, kernel_overhead);
            match plan_guarded(&label, PlanOptions::default(), c, 32) {
                Err(PlanError::Infeasible(msg)) if msg.starts_with("max_tps") => {
                    for field in fields {
                        let named = msg.contains(field);
                        assert_eq!(named, blamed == Some(field), "{label}: {msg}");
                    }
                }
                other => panic!("{label}: expected a max_tps error, got {other:?}"),
            }
        }
    }

    #[test]
    fn forced_micro_batch_is_used() {
        let model = zoo::candle_uno(&CandleUnoConfig::default());
        let opts = PlanOptions::default().with_forced_micro_batch(16);
        let plan = GraphPipePlanner::with_options(opts)
            .plan(&model, &Cluster::summit_like(4), 1024)
            .unwrap();
        assert!(plan.stage_graph.stages().all(|s| s.micro_batch == 16));
    }

    #[test]
    fn dlrm_plans_within_budget() {
        let model = zoo::dlrm(&DlrmConfig::default());
        let plan = plan_for(&model, 8, 512).unwrap();
        assert!(plan.stats.dp_evals > 0);
        assert!(plan.stats.binary_iters > 0);
    }

    #[test]
    fn search_counters_are_populated() {
        let model = zoo::dlrm(&DlrmConfig::default());
        let plan = plan_for(&model, 8, 512).unwrap();
        assert!(plan.stats.memo_hits > 0);
        assert!(plan.stats.work_bound_prunes > 0);
        assert!(plan.stats.dp_states > 0);
        // dp_states is a per-run peak now: it cannot exceed total evals.
        assert!(plan.stats.dp_states <= plan.stats.dp_evals);
        let rate = plan.stats.memo_hit_rate();
        assert!(rate > 0.0 && rate < 1.0, "{rate}");
    }

    #[test]
    fn search_explosion_budget_is_enforced() {
        // The search stops at its first eval past the budget.
        let model = zoo::candle_uno(&CandleUnoConfig::default());
        let opts = PlanOptions {
            eval_budget: 1,
            ..PlanOptions::default()
        };
        let err = GraphPipePlanner::with_options(opts)
            .plan(&model, &Cluster::summit_like(8), 1024)
            .unwrap_err();
        assert_eq!(err, PlanError::SearchExplosion { evals: 2 });
    }

    #[test]
    fn beam_window_is_contiguous_and_deterministic() {
        let model = zoo::mlp_chain(2, 16);
        let cluster = Cluster::summit_like(2);
        let opts = PlanOptions::default().with_beam_width(4);
        let ctx = SearchCtx::new(&model, &cluster, 16, &opts).unwrap();
        let cut = Cut::new();
        let mut dp = Dp::new(&ctx, 1.0, vec![1], 1000, &cut, 0);
        // Unbounded: identity.
        dp.beam_width = None;
        assert_eq!(dp.beam_window(1, 63, 10), (1, 63));
        assert_eq!(dp.beam_prunes, 0);
        // Bounded: width-4 window around the pivot, ties toward fewer
        // devices; clamped at the edges.
        dp.beam_width = Some(4);
        assert_eq!(dp.beam_window(1, 63, 10), (8, 11));
        assert_eq!(dp.beam_window(1, 63, 1), (1, 4));
        assert_eq!(dp.beam_window(1, 63, 63), (60, 63));
        assert_eq!(dp.beam_window(1, 63, 200), (60, 63));
        assert_eq!(dp.beam_prunes, 59 * 4);
        // Windows narrower than the beam pass through unpruned.
        assert_eq!(dp.beam_window(5, 7, 6), (5, 7));
        assert_eq!(dp.beam_prunes, 59 * 4);
    }

    #[test]
    fn more_devices_do_not_hurt_estimated_tps() {
        let model = zoo::candle_uno(&CandleUnoConfig::default());
        let p4 = plan_for(&model, 4, 1024).unwrap();
        let p8 = plan_for(&model, 8, 1024).unwrap();
        assert!(p8.bottleneck_tps <= p4.bottleneck_tps * 1.05);
    }

    /// Plans with exactly `helpers` helper threads on every probe that has
    /// more than one run: a private budget with a core for each plus the
    /// search's own, and no spawn gate. Zero helpers is the sequential
    /// reference. Returns the wall-free result, the probes that fanned
    /// out, and the `planner.dp_evals_per_run` histogram.
    fn plan_fanned(
        planner: &GraphPipePlanner,
        model: &SpModel,
        cluster: &Cluster,
        mini_batch: u64,
        helpers: usize,
    ) -> (Result<Plan, PlanError>, u64, gp_obs::HistogramSnapshot) {
        let cores = CoreBudget::new(helpers + 1);
        let telemetry = Telemetry::enabled();
        let planner = planner.clone().with_telemetry(telemetry.clone());
        let fanout = Fanout {
            cores: &cores,
            gate: 0,
        };
        let result = planner
            .plan_with(model, cluster, mini_batch, fanout)
            .map(|mut plan| {
                plan.stats.zero_walls();
                plan
            });
        let registry = telemetry.registry().expect("enabled");
        let evals_per_run = registry.histogram("planner.dp_evals_per_run").snapshot();
        (result, fanout_probes(&telemetry), evals_per_run)
    }

    fn fanout_probes(telemetry: &Telemetry) -> u64 {
        let counters = telemetry.registry().expect("enabled").counters();
        counters
            .iter()
            .find(|(name, _)| name == "planner.fanout_probes")
            .map_or(0, |&(_, n)| n)
    }

    /// The sequential result, after checking that 1 and 3 helpers fan out
    /// and reproduce it exactly: the plan with its search counters, or the
    /// same error, and the same per-run eval histogram.
    fn assert_fanout_parity(
        planner: &GraphPipePlanner,
        model: &SpModel,
        cluster: &Cluster,
        mini_batch: u64,
        label: &str,
    ) -> Result<Plan, PlanError> {
        let (reference, none, per_run) = plan_fanned(planner, model, cluster, mini_batch, 0);
        assert_eq!(none, 0, "{label}: the reference fanned out");
        for helpers in [1, 3] {
            let (fanned, probes, fanned_per_run) =
                plan_fanned(planner, model, cluster, mini_batch, helpers);
            assert!(probes > 0, "{label}: no probe fanned out");
            assert_eq!(fanned, reference, "{label}: helpers={helpers}");
            assert_eq!(fanned_per_run, per_run, "{label}: helpers={helpers}");
        }
        reference
    }

    /// Checks fan-out parity on every `(model, devices, mini_batch)` cell.
    fn assert_cells_fanout_parity(options: PlanOptions, cells: &[(&SpModel, usize, u64)]) {
        let planner = GraphPipePlanner::with_options(options);
        for &(model, devices, mini_batch) in cells {
            let label = format!("{}@{devices}", model.name());
            let cluster = Cluster::summit_like(devices);
            assert_fanout_parity(&planner, model, &cluster, mini_batch, &label)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn fanned_out_plans_match_sequential_plans() {
        let mmt = zoo::mmt(&MmtConfig::default());
        let dlrm = zoo::dlrm(&DlrmConfig::default());
        let uno = zoo::candle_uno(&CandleUnoConfig::default());
        let moe_tiny = zoo::moe(&MoeConfig::tiny());
        assert_cells_fanout_parity(
            PlanOptions::default(),
            &[
                (&mmt, 8, 128),
                (&dlrm, 8, 512),
                (&uno, 8, 1024),
                (&moe_tiny, 4, 64),
            ],
        );
    }

    #[test]
    fn fanned_out_plans_match_golden_table_at_small_scale() {
        // The golden planner table's 8/16-GPU cells and options.
        let mmt = zoo::mmt(&MmtConfig::default());
        let dlrm = zoo::dlrm(&DlrmConfig::default());
        let uno = zoo::candle_uno(&CandleUnoConfig::default());
        let uno_full = zoo::candle_uno(&CandleUnoConfig::full());
        let moe = zoo::moe(&MoeConfig::default());
        let golden = PlanOptions {
            max_micro_batches: 128,
            ..PlanOptions::default()
        };
        assert_cells_fanout_parity(
            golden,
            &[
                (&mmt, 8, 128),
                (&mmt, 16, 256),
                (&dlrm, 8, 512),
                (&dlrm, 16, 1024),
                (&uno, 8, 8192),
                (&uno, 16, 16384),
                (&uno_full, 8, 8192),
                (&uno_full, 16, 16384),
                (&moe, 8, 256),
                (&moe, 16, 512),
            ],
        );
    }

    /// The first probe's runs at their sequential budgets: each run's
    /// evals, and whether it is feasible.
    fn first_probe(
        model: &SpModel,
        devices: usize,
        mini_batch: u64,
        options: &PlanOptions,
    ) -> Vec<(u64, bool)> {
        let cluster = Cluster::summit_like(devices);
        let ctx = SearchCtx::new(model, &cluster, mini_batch, options).unwrap();
        let t = ctx.ladder()[0];
        let (specs, _) = ctx.run_specs(t);
        specs
            .into_iter()
            .map(|b_cands| {
                let run = run_dp(&ctx, t, b_cands, u64::MAX, &Cut::new(), 0);
                (run.evals, matches!(run.outcome, Outcome::Done(Some(_))))
            })
            .collect()
    }

    /// The unbounded search's eval count, and how many configurations its
    /// completion pass ran (the `search.complete` span's detail).
    fn evals_and_completion(model: &SpModel, devices: usize, mini_batch: u64) -> (u64, u64) {
        let telemetry = Telemetry::enabled();
        let plan = GraphPipePlanner::new()
            .with_telemetry(telemetry.clone())
            .plan(model, &Cluster::summit_like(devices), mini_batch)
            .expect("the unbounded search plans");
        let completed = telemetry
            .spans()
            .iter()
            .find(|s| s.name == "search.complete")
            .and_then(|s| s.detail)
            .expect("the search ran its completion pass");
        (plan.stats.dp_evals, completed)
    }

    /// mmt@8 at mini-batch 128 with its candidates ordered so that the
    /// first probe's only feasible configuration (b = 4) comes last,
    /// behind the costliest infeasible one (b = 128, over the memory
    /// budget). The calling thread spends its run on b = 128 while a
    /// helper, claiming from the back, answers the probe and sets the cut.
    fn last_feasible_options() -> PlanOptions {
        PlanOptions::default().with_micro_batch_candidates(vec![128, 2, 4])
    }

    #[test]
    fn a_helper_answering_the_probe_matches_sequential() {
        let mmt = zoo::mmt(&MmtConfig::default());
        let options = last_feasible_options();
        let runs = first_probe(&mmt, 8, 128, &options);
        let feasible: Vec<bool> = runs.iter().map(|r| r.1).collect();
        assert_eq!(feasible, [false, false, true], "{runs:?}");
        assert!(
            runs[0].0 > runs[1].0 + runs[2].0,
            "the calling thread's run is not the longest: {runs:?}"
        );
        assert_cells_fanout_parity(options, &[(&mmt, 8, 128)]);
    }

    #[test]
    fn fanned_out_explosion_matches_sequential() {
        // Budget accounting must be bit-identical on the error path too,
        // and every explosion stops at the first eval past the budget.
        // Every budget comes from the search's own eval counts and trips
        // in a known place.
        let explode = |model: &SpModel, options: PlanOptions, devices, mini_batch, label: &str| {
            let evals = options.eval_budget + 1;
            let planner = GraphPipePlanner::with_options(options);
            let cluster = Cluster::summit_like(devices);
            let err = assert_fanout_parity(&planner, model, &cluster, mini_batch, label)
                .expect_err("the budget is exceeded");
            assert_eq!(err, PlanError::SearchExplosion { evals }, "{label}");
        };
        let uno = zoo::candle_uno(&CandleUnoConfig::default());
        let defaults = PlanOptions::default();
        let first = first_probe(&uno, 8, 1024, &defaults);
        // The first run: the calling thread's run under the exact budget.
        assert!(first[0].0 > 100, "{first:?}");
        for budget in [1, 100] {
            let options = defaults.clone().with_eval_budget(budget);
            explode(&uno, options, 8, 1024, &format!("uno budget={budget}"));
        }
        // The first probe answers at its first configuration, so one eval
        // past that run trips in the second probe.
        assert!(first[0].1, "{first:?}");
        let options = defaults.clone().with_eval_budget(first[0].0 + 1);
        explode(&uno, options, 8, 1024, "uno: the second probe");
        // One eval short of the whole search trips in its last consumed
        // run. candle-uno's completion pass is empty, so that is the final
        // probe's answer, here its last configuration behind infeasible
        // ones: a helper claims it first.
        let (total, completed) = evals_and_completion(&uno, 8, 1024);
        assert_eq!(completed, 0);
        let options = defaults.clone().with_eval_budget(total - 1);
        explode(&uno, options, 8, 1024, "uno: the final probe's last run");
        // A helper's run behind infeasible configurations: it runs under
        // the whole budget, so its count must be judged against what the
        // calling thread's runs left.
        let mmt = zoo::mmt(&MmtConfig::default());
        let options = last_feasible_options();
        let runs = first_probe(&mmt, 8, 128, &options);
        let before_last: u64 = runs[..2].iter().map(|r| r.0).sum();
        let options = options.with_eval_budget(before_last + 1);
        explode(&mmt, options, 8, 128, "mmt: a helper's run");
        // The completion pass: mmt@8's final target has a configuration
        // after its answer, so one eval short trips in that pass.
        let (total, completed) = evals_and_completion(&mmt, 8, 128);
        assert!(completed > 0, "the completion pass is empty");
        let options = defaults.with_eval_budget(total - 1);
        explode(&mmt, options, 8, 128, "mmt: the completion pass");
    }

    #[test]
    fn fanout_parity_under_beam() {
        let mmt = zoo::mmt(&MmtConfig::default());
        let dlrm = zoo::dlrm(&DlrmConfig::default());
        let uno = zoo::candle_uno(&CandleUnoConfig::default());
        let uno_full = zoo::candle_uno(&CandleUnoConfig::full());
        let moe = zoo::moe(&MoeConfig::default());
        let beam = PlanOptions {
            max_micro_batches: 128,
            ..PlanOptions::default()
        }
        .with_beam_width(4);
        assert_cells_fanout_parity(
            beam,
            &[
                (&mmt, 16, 256),
                (&dlrm, 16, 1024),
                (&uno, 16, 16384),
                (&uno_full, 16, 16384),
                (&moe, 16, 512),
            ],
        );
    }

    /// A multi-branch MLP: `branches` parallel chains of `layers` dense
    /// layers of width `width`, merged by a concat and a small head.
    fn random_model(branches: usize, layers: usize, width: usize) -> SpModel {
        let mut b = gp_ir::GraphBuilder::new();
        let mut branch_blocks = Vec::new();
        let mut outs = Vec::new();
        for br in 0..branches {
            let mut blocks = Vec::new();
            let input = b.input(format!("in{br}"), gp_ir::Shape::vector(width));
            blocks.push(SpBlock::Leaf(input));
            let mut cur = input;
            for l in 0..layers {
                let fc = b.linear(format!("b{br}l{l}"), cur, width, true).unwrap();
                blocks.push(SpBlock::Leaf(fc));
                cur = fc;
            }
            outs.push(cur);
            branch_blocks.push(SpBlock::Chain(blocks));
        }
        let cat = b.op("cat", gp_ir::OpKind::Concat, &outs).unwrap();
        let head = b.linear("head", cat, 1, true).unwrap();
        let loss = b.loss("loss", &[head]);
        let root = SpBlock::Chain(vec![
            SpBlock::Branches(branch_blocks),
            SpBlock::Leaf(cat),
            SpBlock::Leaf(head),
            SpBlock::Leaf(loss),
        ]);
        SpModel::new("random", b.finish().unwrap(), root).unwrap()
    }

    /// Two branches joined by `cat`, the last of which ends in a
    /// `[Branches, join]` run of its own (`x -> {b1, b2} -> cat2`).
    /// Absorbing the outer joins into that branch gives a chain whose own
    /// `[Branches, join...]` run absorbs too: a variant of a variant.
    fn nested_join_model(width: usize) -> SpModel {
        let mut b = gp_ir::GraphBuilder::new();
        let in0 = b.input("in0", gp_ir::Shape::vector(width));
        let a1 = b.linear("a1", in0, width, true).unwrap();
        let a2 = b.linear("a2", a1, width, true).unwrap();
        let in1 = b.input("in1", gp_ir::Shape::vector(width));
        let x = b.linear("x", in1, width, true).unwrap();
        let b1 = b.linear("b1", x, width, true).unwrap();
        let b2 = b.linear("b2", x, width, true).unwrap();
        let cat2 = b.op("cat2", gp_ir::OpKind::Concat, &[b1, b2]).unwrap();
        let cat = b.op("cat", gp_ir::OpKind::Concat, &[a2, cat2]).unwrap();
        let head = b.linear("head", cat, 1, true).unwrap();
        let loss = b.loss("loss", &[head]);
        let leaf = SpBlock::Leaf;
        let root = SpBlock::Chain(vec![
            SpBlock::Branches(vec![
                SpBlock::Chain(vec![leaf(in0), leaf(a1), leaf(a2)]),
                SpBlock::Chain(vec![
                    leaf(in1),
                    leaf(x),
                    SpBlock::Branches(vec![leaf(b1), leaf(b2)]),
                    leaf(cat2),
                ]),
            ]),
            leaf(cat),
            leaf(head),
            leaf(loss),
        ]);
        SpModel::new("nested-join", b.finish().unwrap(), root).unwrap()
    }

    /// One line per plan: each stage's op names, first device and device
    /// count, micro-batch size and k, then the search counters.
    fn plan_line(model: &SpModel, plan: &Plan) -> String {
        use std::fmt::Write as _;
        let graph = model.graph();
        let mut line = String::new();
        for s in plan.stage_graph.stages() {
            let ops: Vec<&str> = s
                .ops
                .iter()
                .map(|&op| graph.node(op).name.as_str())
                .collect();
            let (first, len) = (s.devices.first().0, s.devices.len());
            let (b, k) = (s.micro_batch, s.kfkb);
            write!(line, "[{}] {first}+{len} b{b} k{k}; ", ops.join(" ")).unwrap();
        }
        let st = &plan.stats;
        write!(
            line,
            "evals={} states={} hits={} misses={} bound={} memory={} beam={} batches={} \
             iters={} configs={}",
            st.dp_evals,
            st.dp_states,
            st.memo_hits,
            st.memo_misses,
            st.work_bound_prunes,
            st.memory_prunes,
            st.beam_prunes,
            st.eval_batches,
            st.binary_iters,
            st.configs_tried
        )
        .unwrap();
        line
    }

    #[test]
    fn a_variant_of_a_variant_plans_as_pinned() {
        // Pinned on the lazily grown arena, which built variants of
        // variants on this model. At 4 GPUs the plan's last stage is one:
        // `b2` with `cat2` and the outer joins absorbed.
        let model = nested_join_model(4096);
        let planner = GraphPipePlanner::new();
        let cells = [
            (
                4,
                64,
                "[in0 a1 a2] 0+1 b64 k1; [in1 x] 1+1 b64 k1; [b1] 2+1 b64 k1; \
                 [b2 cat2 cat head loss] 3+1 b64 k1; evals=421 states=24 hits=18 misses=206 \
                 bound=416 memory=0 beam=0 batches=274 iters=8 configs=14",
            ),
            (
                8,
                128,
                "[in0 a1] 3+1 b128 k1; [a2] 4+1 b128 k1; [in1 x] 5+1 b128 k1; [b1] 6+1 b128 k1; \
                 [b2] 7+1 b128 k1; [cat2 cat head loss] 0+3 b128 k1; evals=18868 states=265 \
                 hits=6687 misses=3762 bound=1906 memory=0 beam=0 batches=7042 iters=9 \
                 configs=25",
            ),
        ];
        for (devices, mini_batch, pinned) in cells {
            let label = format!("nested-join@{devices}");
            let cluster = Cluster::summit_like(devices);
            let plan = assert_fanout_parity(&planner, &model, &cluster, mini_batch, &label)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(plan_line(&model, &plan), pinned, "{label}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Any random SP model, GPU count, mini-batch and helper count
        /// plans exactly as the sequential search does.
        #[test]
        fn fanout_matches_sequential_on_random_sp_models(
            branches in 1usize..5,
            layers in 1usize..5,
            width in proptest::prelude::prop::sample::select(vec![64usize, 128, 256]),
            devices in 2usize..7,
            log_b in 2u32..6,
            helpers in 1usize..5,
        ) {
            let model = random_model(branches, layers, width);
            let cluster = Cluster::summit_like(devices);
            let mini_batch = 1u64 << log_b;
            let planner = GraphPipePlanner::new();
            let (reference, ..) = plan_fanned(&planner, &model, &cluster, mini_batch, 0);
            let (fanned, ..) = plan_fanned(&planner, &model, &cluster, mini_batch, helpers);
            proptest::prop_assert_eq!(fanned, reference);
        }
    }

    #[test]
    fn a_search_denied_its_own_core_still_plans_sequentially() {
        let model = zoo::mmt(&MmtConfig::default());
        let cluster = Cluster::summit_like(8);
        let planner = GraphPipePlanner::new();
        let (reference, ..) = plan_fanned(&planner, &model, &cluster, 128, 0);
        let cores = CoreBudget::new(2);
        let others = cores.helpers(2);
        assert_eq!(others.granted(), 2, "other searches fill the host");
        let telemetry = Telemetry::enabled();
        let fanout = Fanout {
            cores: &cores,
            gate: 0,
        };
        let mut plan = planner
            .clone()
            .with_telemetry(telemetry.clone())
            .plan_with(&model, &cluster, 128, fanout)
            .expect("plans without a core of its own");
        plan.stats.zero_walls();
        assert_eq!(Ok(plan), reference);
        assert_eq!(fanout_probes(&telemetry), 0, "it fanned out");
    }
}
