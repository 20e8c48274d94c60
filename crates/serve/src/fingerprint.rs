//! Canonical structural fingerprints for planning requests.
//!
//! Plan caches and stores (`gp-fleet`'s `FleetService`) are keyed by a 128-bit
//! [`Fingerprint`] over everything that determines a planner's output:
//!
//! * the **model's identity** ([`SpModel::fingerprint`], which `gp-ir`
//!   computes once per model instance and memoizes): the model graph,
//!   hashed structurally — per-node labels are refined Weisfeiler–Leman
//!   style from operator kinds, output shapes and neighbourhoods, so the
//!   hash is invariant under node-*insertion order* (renumbering the same
//!   model yields the same fingerprint) while different topologies or
//!   operator configurations diverge — and its series-parallel
//!   decomposition, since planners consume the SP tree, not the raw DAG
//!   (two trees over the same graph can plan differently);
//! * the **cluster specification** (device profile, topology, links);
//! * the **planner choice and options** and the **mini-batch size**.
//!
//! Operator and model *names* are deliberately excluded: renaming layers
//! does not change the plan.
//!
//! # Examples
//!
//! ```
//! use gp_ir::zoo::{self, MmtConfig};
//! use gp_cluster::Cluster;
//! use gp_partition::PlanOptions;
//! use gp_serve::fingerprint::request_fingerprint;
//!
//! let model = zoo::mmt(&MmtConfig::tiny());
//! let cluster = Cluster::summit_like(4);
//! let opts = PlanOptions::default();
//! let a = request_fingerprint(&model, &cluster, 64, &opts, 0);
//! let b = request_fingerprint(&model, &cluster, 64, &opts, 0);
//! assert_eq!(a, b);
//! assert_ne!(a, request_fingerprint(&model, &cluster, 128, &opts, 0));
//! ```
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use gp_cluster::{Cluster, DeviceId};
use gp_ir::{Digest, SpModel};
use gp_partition::PlanOptions;
use std::fmt;

/// A 128-bit structural hash identifying a planning request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the 32-hex-digit form produced by `Display` (artifact
    /// headers).
    pub fn parse(text: &str) -> Option<Fingerprint> {
        if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(Fingerprint)
    }
}

/// The canonical fingerprint of a model (graph + SP decomposition),
/// independent of node-insertion order and operator names.
///
/// Reads [`SpModel::fingerprint`], which hashes the model once and
/// memoizes the value on it, so requests sharing one model instance pay
/// for the Weisfeiler–Leman refinement once.
pub fn model_fingerprint(model: &SpModel) -> Fingerprint {
    Fingerprint(model.fingerprint())
}

fn absorb_cluster(digest: &mut Digest, cluster: &Cluster) {
    digest.word(cluster.device_count() as u64);
    digest.word(cluster.gpus_per_node() as u64);
    let p = cluster.profile();
    digest.words(&p.name.bytes().map(u64::from).collect::<Vec<u64>>());
    digest.f64_bits(p.peak_flops);
    digest.f64_bits(p.mem_bandwidth);
    digest.word(p.mem_capacity);
    digest.f64_bits(p.kernel_overhead);
    digest.f64_bits(p.efficiency_half_sat);
    for link in [cluster.intra_link(), cluster.inter_link()] {
        digest.f64_bits(link.bandwidth);
        digest.f64_bits(link.latency);
    }
    // Belt and braces: the node assignment derives from gpus_per_node
    // today, but hash it anyway so future irregular topologies can't alias.
    for d in 0..cluster.device_count() as u32 {
        digest.word(cluster.node_of(DeviceId(d)) as u64);
    }
}

fn absorb_options(digest: &mut Digest, options: &PlanOptions) {
    digest.f64_bits(options.epsilon);
    match &options.micro_batch_candidates {
        None => digest.word(0),
        Some(list) => {
            digest.word(1);
            digest.words(list);
        }
    }
    digest.word(options.max_micro_batches);
    digest.words(&options.kfkb_candidates);
    digest.word(options.per_stage_micro_batch as u64);
    digest.word(options.eval_budget);
    // `None` hashes as 0: `with_beam_width` clamps to >= 1, so no bounded
    // beam can alias the unbounded default.
    digest.word(options.beam_width.map(u64::from).unwrap_or(0));
}

/// A canonical fingerprint of a *produced plan*: the strategy itself —
/// stage graph, device placement, in-flight table, schedule, and planner
/// estimates — hashed through the artifact codec's canonical *strategy*
/// encoding.
///
/// The artifact's format/version header and its [`SearchStats`] block are
/// excluded on purpose: codec schema bumps and accounting changes (new
/// counters, re-defined `dp_states`) must not read as plan drift, while
/// any change to the strategy a planner returns must. The golden tables in
/// `tests/golden_planner.rs` pin these fingerprints.
///
/// [`SearchStats`]: gp_partition::SearchStats
pub fn plan_fingerprint(plan: &gp_partition::Plan) -> Fingerprint {
    let text = crate::json::Json::Obj(crate::artifact::strategy_members(plan)).to_string();
    let mut digest = Digest::new(0x0070_6c61_6e00_6670);
    let bytes = text.as_bytes();
    digest.word(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        digest.word(u64::from_le_bytes(word));
    }
    Fingerprint(digest.finish())
}

/// The *graph part* of a request fingerprint: everything that identifies
/// which planner runs over which model, independent of the cluster,
/// mini-batch, or search options.
fn request_graph_fingerprint(model: &SpModel, planner_tag: u64) -> Fingerprint {
    let mut digest = Digest::new(0x0072_6571_6772_6168);
    let model_fp = model_fingerprint(model).0;
    digest.word(model_fp as u64);
    digest.word((model_fp >> 64) as u64);
    digest.word(planner_tag);
    Fingerprint(digest.finish())
}

/// The *config part* of a request fingerprint: cluster, mini-batch and
/// planner options.
fn request_config_fingerprint(
    cluster: &Cluster,
    mini_batch: u64,
    options: &PlanOptions,
) -> Fingerprint {
    let mut digest = Digest::new(0x0072_6571_636f_6e66);
    absorb_cluster(&mut digest, cluster);
    digest.word(mini_batch);
    absorb_options(&mut digest, options);
    Fingerprint(digest.finish())
}

/// The full cache key of a planning request: the combination of a graph
/// part (model and planner) and a config part (cluster, mini-batch and
/// options).
///
/// `planner_tag` distinguishes planners that share everything else (the
/// [`crate::ServePlanner`] discriminant).
pub fn request_fingerprint(
    model: &SpModel,
    cluster: &Cluster,
    mini_batch: u64,
    options: &PlanOptions,
    planner_tag: u64,
) -> Fingerprint {
    let graph = request_graph_fingerprint(model, planner_tag).0;
    let config = request_config_fingerprint(cluster, mini_batch, options).0;
    let mut digest = Digest::new(0x0072_6571_7565_7374);
    digest.word(graph as u64);
    digest.word((graph >> 64) as u64);
    digest.word(config as u64);
    digest.word((config >> 64) as u64);
    Fingerprint(digest.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_ir::zoo::{self, CandleUnoConfig, MmtConfig, MoeConfig};
    use gp_ir::{GraphBuilder, OpKind, Shape, SpBlock};

    /// The diamond graph built in two different insertion orders: ids
    /// permute, structure and input order do not. The two arms are
    /// *asymmetric* (bias on vs off) so a hash that leaked numeric ids or
    /// pred/succ construction order would diverge.
    fn diamond(swap: bool) -> SpModel {
        let mut b = GraphBuilder::new();
        let x = b.input("x", Shape::vector(8));
        let (a, c) = if swap {
            let c = b.linear("b", x, 8, false).unwrap();
            let a = b.linear("a", x, 8, true).unwrap();
            (a, c)
        } else {
            let a = b.linear("a", x, 8, true).unwrap();
            let c = b.linear("b", x, 8, false).unwrap();
            (a, c)
        };
        let cat = b.op("cat", OpKind::Concat, &[a, c]).unwrap();
        let loss = b.loss("loss", &[cat]);
        let root = SpBlock::Chain(vec![
            SpBlock::Leaf(x),
            SpBlock::Branches(vec![SpBlock::Leaf(a), SpBlock::Leaf(c)]),
            SpBlock::Leaf(cat),
            SpBlock::Leaf(loss),
        ]);
        SpModel::new("diamond", b.finish().unwrap(), root).unwrap()
    }

    #[test]
    fn insertion_order_does_not_change_fingerprint() {
        assert_eq!(
            model_fingerprint(&diamond(false)),
            model_fingerprint(&diamond(true))
        );
    }

    #[test]
    fn numbering_signature_distinguishes_renumberings() {
        // Same fingerprint, different concrete numbering: the signature
        // must tell them apart (it guards cached-plan reuse) while staying
        // stable for the identical construction.
        let (a, b) = (diamond(false), diamond(true));
        assert_eq!(
            a.numbering_signature(),
            diamond(false).numbering_signature()
        );
        assert_ne!(a.numbering_signature(), b.numbering_signature());
    }

    #[test]
    fn operator_names_do_not_change_fingerprint() {
        let mut b = GraphBuilder::new();
        let x = b.input("renamed_input", Shape::vector(8));
        let h = b.linear("other_name", x, 8, false).unwrap();
        let l = b.loss("l", &[h]);
        let m1 = SpModel::new(
            "m1",
            b.finish().unwrap(),
            SpBlock::Chain(vec![SpBlock::Leaf(x), SpBlock::Leaf(h), SpBlock::Leaf(l)]),
        )
        .unwrap();
        let mut b = GraphBuilder::new();
        let x = b.input("x", Shape::vector(8));
        let h = b.linear("fc", x, 8, false).unwrap();
        let l = b.loss("loss", &[h]);
        let m2 = SpModel::new(
            "m2",
            b.finish().unwrap(),
            SpBlock::Chain(vec![SpBlock::Leaf(x), SpBlock::Leaf(h), SpBlock::Leaf(l)]),
        )
        .unwrap();
        assert_eq!(model_fingerprint(&m1), model_fingerprint(&m2));
    }

    #[test]
    fn distinct_models_have_distinct_fingerprints() {
        let models = [
            model_fingerprint(&zoo::mmt(&MmtConfig::tiny())),
            model_fingerprint(&zoo::mmt(&MmtConfig::two_branch())),
            model_fingerprint(&zoo::candle_uno(&CandleUnoConfig::tiny())),
            model_fingerprint(&zoo::candle_uno(&CandleUnoConfig::default())),
            model_fingerprint(&zoo::candle_uno(&CandleUnoConfig::full())),
            model_fingerprint(&zoo::moe(&MoeConfig::tiny())),
            model_fingerprint(&zoo::moe(&MoeConfig::default())),
            model_fingerprint(&zoo::mlp_chain(4, 32)),
            model_fingerprint(&zoo::mlp_chain(5, 32)),
            model_fingerprint(&zoo::mlp_chain(4, 33)),
        ];
        for (i, a) in models.iter().enumerate() {
            for b in &models[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn every_request_component_is_load_bearing() {
        let model = zoo::mmt(&MmtConfig::tiny());
        let cluster = Cluster::summit_like(4);
        let opts = PlanOptions::default();
        let base = request_fingerprint(&model, &cluster, 64, &opts, 0);
        assert_ne!(
            base,
            request_fingerprint(&model, &Cluster::summit_like(8), 64, &opts, 0)
        );
        assert_ne!(
            base,
            request_fingerprint(
                &model,
                &Cluster::summit_like(4).with_memory_capacity(1 << 30),
                64,
                &opts,
                0
            )
        );
        assert_ne!(base, request_fingerprint(&model, &cluster, 32, &opts, 0));
        let tweaked = PlanOptions {
            max_micro_batches: 128,
            ..PlanOptions::default()
        };
        assert_ne!(base, request_fingerprint(&model, &cluster, 64, &tweaked, 0));
        assert_ne!(base, request_fingerprint(&model, &cluster, 64, &opts, 1));
        let beamed = PlanOptions::default().with_beam_width(8);
        assert_ne!(base, request_fingerprint(&model, &cluster, 64, &beamed, 0));
        assert_ne!(
            request_fingerprint(&model, &cluster, 64, &beamed, 0),
            request_fingerprint(
                &model,
                &cluster,
                64,
                &PlanOptions::default().with_beam_width(16),
                0
            )
        );
    }

    #[test]
    fn fingerprint_factors_into_graph_and_config_parts() {
        let model = zoo::mmt(&MmtConfig::tiny());
        let cluster = Cluster::summit_like(4);
        let opts = PlanOptions::default();
        // The graph part ignores cluster/mini-batch/options...
        let g = request_graph_fingerprint(&model, 0);
        assert_eq!(g, request_graph_fingerprint(&model, 0));
        assert_ne!(g, request_graph_fingerprint(&model, 1));
        assert_ne!(
            g,
            request_graph_fingerprint(&zoo::moe(&MoeConfig::tiny()), 0)
        );
        // ...and the config part ignores the model: the same graph on a
        // different cluster or mini-batch differs only in config.
        let c = request_config_fingerprint(&cluster, 64, &opts);
        assert_eq!(c, request_config_fingerprint(&cluster, 64, &opts));
        assert_ne!(
            c,
            request_config_fingerprint(&Cluster::summit_like(8), 64, &opts)
        );
        assert_ne!(c, request_config_fingerprint(&cluster, 32, &opts));
        assert_ne!(
            c,
            request_config_fingerprint(&cluster, 64, &opts.clone().with_beam_width(4))
        );
        // The full key is a pure function of the two parts: recombining
        // equal parts yields equal keys.
        assert_eq!(
            request_fingerprint(&model, &cluster, 64, &opts, 0),
            request_fingerprint(&model, &cluster, 64, &opts, 0)
        );
    }

    #[test]
    fn plan_fingerprint_tracks_strategy_not_stats() {
        use gp_partition::{GraphPipePlanner, Planner, SearchStats};
        let model = zoo::mmt(&MmtConfig::tiny());
        let cluster = Cluster::summit_like(4);
        let plan = GraphPipePlanner::new().plan(&model, &cluster, 64).unwrap();
        let fp = plan_fingerprint(&plan);
        // Accounting changes must not read as drift...
        let mut renumbered = plan.clone();
        renumbered.stats = SearchStats {
            dp_evals: 123,
            ..SearchStats::default()
        };
        assert_eq!(fp, plan_fingerprint(&renumbered));
        // ...while strategy changes must.
        let mut moved = plan.clone();
        moved.bottleneck_tps *= 2.0;
        assert_ne!(fp, plan_fingerprint(&moved));
    }

    #[test]
    fn fingerprint_text_round_trips() {
        let fp = model_fingerprint(&zoo::mlp_chain(2, 8));
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
        assert_eq!(Fingerprint::parse(""), None);
    }
}
