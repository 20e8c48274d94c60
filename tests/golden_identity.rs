//! Golden table pinning every zoo model's identity: the canonical model
//! fingerprint (`model_fingerprint`, the renumbering-invariant half of
//! every request fingerprint and so of every cache and store key) and the
//! order-sensitive numbering signature that guards cached-plan reuse.
//!
//! Each builder appears at its tiny and default configuration; the two
//! DAG-ladder models (`gpt2`, `gnn_pipe`) go through `plan_dag`, and
//! `gnn_pipe` once more with a zero distortion budget, so all three
//! `PlanPath` rungs are pinned. The values were produced before the
//! hashing moved into `gp-ir` and was memoized on `SpModel`; a diff means
//! every committed artifact and fleet store would be orphaned — re-pin
//! only after reviewing why.

use gp_ir::zoo::{
    self, CandleUnoConfig, DlrmConfig, GnnPipeConfig, Gpt2Config, MmtConfig, MoeConfig,
};
use gp_ir::{plan_dag, DagOptions, SpModel};
use gp_serve::fingerprint::model_fingerprint;
use std::fmt::Write as _;

fn models() -> Vec<(&'static str, SpModel)> {
    vec![
        ("mmt/tiny", zoo::mmt(&MmtConfig::tiny())),
        ("mmt/default", zoo::mmt(&MmtConfig::default())),
        ("mmt/two-branch", zoo::mmt(&MmtConfig::two_branch())),
        ("dlrm/tiny", zoo::dlrm(&DlrmConfig::tiny())),
        ("dlrm/default", zoo::dlrm(&DlrmConfig::default())),
        ("candle-uno/tiny", zoo::candle_uno(&CandleUnoConfig::tiny())),
        (
            "candle-uno/default",
            zoo::candle_uno(&CandleUnoConfig::default()),
        ),
        ("candle-uno/full", zoo::candle_uno(&CandleUnoConfig::full())),
        ("moe/tiny", zoo::moe(&MoeConfig::tiny())),
        ("moe/default", zoo::moe(&MoeConfig::default())),
        ("gpt2/tiny", zoo::gpt2(&Gpt2Config::tiny())),
        ("gpt2/default", zoo::gpt2(&Gpt2Config::default())),
        ("gnn-pipe/tiny", zoo::gnn_pipe(&GnnPipeConfig::tiny())),
        ("gnn-pipe/default", zoo::gnn_pipe(&GnnPipeConfig::default())),
        (
            "gnn-pipe/clustered",
            plan_dag(
                "gnn-pipe",
                zoo::gnn_pipe_graph(&GnnPipeConfig::default()),
                &DagOptions::default().with_distortion_budget(0),
            )
            .expect("zoo graph is valid"),
        ),
        (
            "seq-transformer/tiny",
            zoo::sequential_transformer(4, &MmtConfig::tiny()),
        ),
        (
            "seq-transformer/default",
            zoo::sequential_transformer(8, &MmtConfig::default()),
        ),
        ("case-study/tiny", zoo::case_study(&MmtConfig::tiny())),
        ("case-study/default", zoo::case_study(&MmtConfig::default())),
        ("mlp-chain/4x32", zoo::mlp_chain(4, 32)),
    ]
}

fn actual_table() -> String {
    let mut out = String::new();
    for (label, model) in models() {
        let _ = writeln!(
            out,
            "{label} path={} fp={} numbering={:016x}",
            model.path(),
            model_fingerprint(&model),
            model.numbering_signature(),
        );
    }
    out
}

const EXPECTED: &str = "\
mmt/tiny path=exact-sp fp=f85e0783351231341bcb1032785b5070 numbering=952bf43ca55cba57
mmt/default path=exact-sp fp=58eb1ceb3e404fda3949ef4f360b76aa numbering=11321921efec8bca
mmt/two-branch path=exact-sp fp=74801fe07b1124e95023e7ac26f7cbb2 numbering=40c2e065d849e6f1
dlrm/tiny path=exact-sp fp=cc73e887af0a0c30aa243f8f21af0052 numbering=c3f9eaf071d4771f
dlrm/default path=exact-sp fp=281b38973f123ea592ab974f09b369ac numbering=4d8f5e19869b5ae1
candle-uno/tiny path=exact-sp fp=3a3f502547520ce005b1bf78817dcc2b numbering=ba27d047d7fa9184
candle-uno/default path=exact-sp fp=aca35369b410ec78d00a55497bd9eba2 numbering=b7751922de93438c
candle-uno/full path=exact-sp fp=9332ea7d26d14247b495a2596692115f numbering=0f959cfc8d4bd7b8
moe/tiny path=exact-sp fp=aaf3eb1fbb3dbeebc5bdc25eb75fd94b numbering=29126ab8c1a837fe
moe/default path=exact-sp fp=337cd878e33cba54b1fffe32412dcd28 numbering=f2dd42bb317649a3
gpt2/tiny path=exact-sp fp=8f3ccbb162a5a0c1a3cd5e7aab6237f5 numbering=33cc3f9514f9aaf7
gpt2/default path=exact-sp fp=2a6ba8fd8c13490a57830a406003e9c4 numbering=6e80f6e5f1318737
gnn-pipe/tiny path=sp-ized (distortion 1024 bytes) fp=3cbbfc361a718c1c16f257a545ec18a2 numbering=83735e72880be5dd
gnn-pipe/default path=sp-ized (distortion 98304 bytes) fp=e0f5827b5869871d52f5435d7ab5c74e numbering=25ee60a55d22e852
gnn-pipe/clustered path=clustered (16 units) fp=3376784add903cce2ee9146fcf0f3c4c numbering=25ee60a55d22e852
seq-transformer/tiny path=exact-sp fp=241e022ab10ff28d69fe99f6bf8a2a0d numbering=fcdf3f633839bb66
seq-transformer/default path=exact-sp fp=a9258ed4647b38ce732131a38feb3e50 numbering=bbd92629da37ee96
case-study/tiny path=exact-sp fp=b6b46d8095e55fbfef19b69814f0f515 numbering=9db31d890af333e4
case-study/default path=exact-sp fp=2943dab8e29be8a57adf288226dda148 numbering=50553131b118d60d
mlp-chain/4x32 path=exact-sp fp=0e6f84f510ff35e88c777d65c3f2473b numbering=e3f5fa0d9c075b67
";

#[test]
fn zoo_identities_match_golden_table() {
    let actual = actual_table();
    assert_eq!(
        actual.trim(),
        EXPECTED.trim(),
        "\n--- actual table (paste over EXPECTED if the change is intended) ---\n{actual}"
    );
}
