//! Canonical model identity: the structural hashes that name a model.
//!
//! Two hashes identify an [`SpModel`], and both are memoized on it
//! ([`SpModel::fingerprint`], [`SpModel::numbering_signature`]) because a
//! model never changes after construction:
//!
//! * the **canonical fingerprint** hashes the model graph structurally —
//!   per-node labels are refined Weisfeiler–Leman style from operator
//!   kinds, output shapes and neighbourhoods, so the hash is invariant
//!   under node-*insertion order* (renumbering the same model yields the
//!   same fingerprint) while different topologies or operator
//!   configurations diverge — together with the series-parallel
//!   decomposition (planners consume the SP tree, not the raw DAG) and the
//!   [`PlanPath`] that produced it. Operator and model *names* are
//!   deliberately excluded: renaming layers does not change the plan;
//! * the **numbering signature** is its order-sensitive counterpart, equal
//!   only for identical labelled graphs.
//!
//! Only this module computes them, so only the code that defines a model's
//! identity can fill the memo. [`Digest`] is public so that request
//! fingerprints (`gp-serve`) extend a model's identity with the same hash.
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::graph::Graph;
use crate::sp::{PlanPath, SpBlock, SpModel};

/// One 64-bit lane of the fingerprint: FNV-1a over words, with a
/// splitmix64 finalizer applied to every absorbed word so that small input
/// deltas diffuse across the state.
#[derive(Clone, Copy)]
struct Lane {
    state: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Lane {
    fn new(seed: u64) -> Lane {
        Lane {
            state: 0xcbf2_9ce4_8422_2325 ^ splitmix64(seed),
        }
    }

    fn word(&mut self, w: u64) {
        self.state = (self.state ^ splitmix64(w)).wrapping_mul(FNV_PRIME);
    }

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    fn finish(self) -> u64 {
        splitmix64(self.state)
    }
}

/// A pair of independent lanes forming the 128-bit digest.
pub struct Digest {
    lo: Lane,
    hi: Lane,
}

impl Digest {
    /// A fresh digest; `domain` separates hashes of different things.
    pub fn new(domain: u64) -> Digest {
        Digest {
            lo: Lane::new(domain),
            hi: Lane::new(domain ^ 0x5851_f42d_4c95_7f2d),
        }
    }

    /// Absorbs one word.
    pub fn word(&mut self, w: u64) {
        self.lo.word(w);
        self.hi.word(w ^ 0xa5a5_a5a5_a5a5_a5a5);
    }

    /// Absorbs a length-prefixed word sequence.
    pub fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    /// Absorbs a float by its bit pattern.
    pub fn f64_bits(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    /// The 128-bit hash of everything absorbed.
    pub fn finish(self) -> u128 {
        ((self.hi.finish() as u128) << 64) | self.lo.finish() as u128
    }
}

/// Combines already-final 64-bit labels without order sensitivity.
fn sorted_fold(labels: &mut [u64]) -> Vec<u64> {
    labels.sort_unstable();
    labels.to_vec()
}

/// Per-node canonical labels of a graph: Weisfeiler–Leman refinement
/// seeded from each operator's structural words and output shape, then
/// iterated so every label absorbs its predecessors **in input order**
/// (input position is semantically meaningful and independent of insertion
/// order) and its successors **as a sorted multiset** (successor order is
/// an insertion-order artifact).
///
/// The number of rounds equals the graph's longest path length, so every
/// label sees the whole of its past and future light-cone.
fn canonical_labels(graph: &Graph) -> Vec<u64> {
    let n = graph.len();
    let mut labels: Vec<u64> = graph
        .nodes()
        .map(|node| {
            let mut lane = Lane::new(0x6e6f_6465);
            lane.words(&node.kind.structural_words());
            lane.words(
                &node
                    .out_shape
                    .dims()
                    .iter()
                    .map(|&d| d as u64)
                    .collect::<Vec<u64>>(),
            );
            lane.finish()
        })
        .collect();
    // Longest path length bounds how far structural information must
    // travel; one extra round as a safety margin.
    let order = graph.topo_order();
    let mut depth = vec![0usize; n];
    let mut rounds = 1usize;
    for &id in &order {
        for &s in graph.succs(id) {
            depth[s.index()] = depth[s.index()].max(depth[id.index()] + 1);
            rounds = rounds.max(depth[s.index()] + 1);
        }
    }
    let mut next = vec![0u64; n];
    for _ in 0..rounds {
        for node in graph.nodes() {
            let i = node.id.index();
            let mut lane = Lane::new(0x0072_6f75_6e64);
            lane.word(labels[i]);
            lane.word(graph.preds(node.id).len() as u64);
            for &p in graph.preds(node.id) {
                lane.word(labels[p.index()]);
            }
            let mut succs: Vec<u64> = graph
                .succs(node.id)
                .iter()
                .map(|&s| labels[s.index()])
                .collect();
            lane.words(&sorted_fold(&mut succs));
            next[i] = lane.finish();
        }
        std::mem::swap(&mut labels, &mut next);
    }
    labels
}

/// Folds the SP tree into the digest using canonical node labels for
/// leaves. `Chain` children are position-sensitive (series order matters);
/// `Branches` children are folded as a sorted multiset (branch listing
/// order is an insertion artifact — planners treat branches as an
/// unordered set of independent subgraphs).
fn sp_hash(block: &SpBlock, labels: &[u64]) -> u64 {
    match block {
        SpBlock::Leaf(op) => {
            let mut lane = Lane::new(0x6c65_6166);
            lane.word(labels[op.index()]);
            lane.finish()
        }
        SpBlock::Chain(items) => {
            let mut lane = Lane::new(0x6368_6169);
            for item in items {
                lane.word(sp_hash(item, labels));
            }
            lane.finish()
        }
        SpBlock::Branches(items) => {
            let mut hashes: Vec<u64> = items.iter().map(|b| sp_hash(b, labels)).collect();
            let mut lane = Lane::new(0x6272_6368);
            lane.words(&sorted_fold(&mut hashes));
            lane.finish()
        }
    }
}

/// An *order-sensitive* signature of a graph's concrete numbering: a hash
/// over `(kind, shape, predecessor ids)` in id order. Two graphs with
/// equal signatures are identical labelled graphs (same operators with the
/// same ids and the same wiring), so a plan computed for one indexes
/// exactly the same operators in the other.
///
/// This is the counterpart of the canonical [`model_digest`]: the
/// fingerprint is deliberately invariant under renumbering (the cache
/// key), while this signature is deliberately *not* (the safety check
/// before serving a cached plan, whose stage op lists are raw ids).
pub(crate) fn numbering_signature(graph: &Graph) -> u64 {
    let mut lane = Lane::new(0x006e_756d_6265_7231);
    lane.word(graph.len() as u64);
    for node in graph.nodes() {
        lane.words(&node.kind.structural_words());
        lane.words(
            &node
                .out_shape
                .dims()
                .iter()
                .map(|&d| d as u64)
                .collect::<Vec<u64>>(),
        );
        lane.words(
            &graph
                .preds(node.id)
                .iter()
                .map(|p| p.0 as u64)
                .collect::<Vec<u64>>(),
        );
    }
    lane.finish()
}

/// The canonical fingerprint of a model (graph + SP decomposition),
/// independent of node-insertion order and operator names.
pub(crate) fn model_digest(model: &SpModel) -> u128 {
    let graph = model.graph();
    let labels = canonical_labels(graph);
    let mut digest = Digest::new(0x006d_6f64_656c);
    digest.word(graph.len() as u64);
    digest.word(graph.edge_count() as u64);
    let mut all = labels.clone();
    digest.words(&sorted_fold(&mut all));
    digest.word(sp_hash(model.root(), &labels));
    // The path the DAG ladder took is part of the model's identity: an
    // SP-ized or clustered tree must never collide with a hand-authored
    // exact one. `ExactSp` absorbs nothing so every pre-DAG fingerprint
    // stays byte-stable.
    match model.path() {
        PlanPath::ExactSp => {}
        PlanPath::SpIzed { distortion } => {
            digest.word(0x7370_697a_6564); // "spized"
            digest.word(distortion);
        }
        PlanPath::Clustered { units } => {
            digest.word(0x636c_7573_7465_7264); // "clusterd"
            digest.word(u64::from(units));
        }
    }
    digest.finish()
}
