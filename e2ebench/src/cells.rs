//! The zoo models every workload draws from, and their operating points.

use graphpipe::ir::{plan_dag, DagOptions, Graph, SpModel};
use graphpipe::prelude::zoo;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Mmt,
    Dlrm,
    CandleUno,
    CandleUnoFull,
    Moe,
    Gpt2,
    GnnPipe,
}

/// A freshly built model: hand-authored SP models come out of their zoo
/// builder as [`SpModel`]s; the two raw-graph models come out as a
/// [`Graph`] for the DAG ladder ([`plan_dag`]).
pub enum Built {
    Sp(SpModel),
    Dag(Graph),
}

impl Built {
    /// The plannable model, running the DAG ladder for raw graphs under
    /// the name `Session::builder().model_dag(..)` gives them.
    pub fn into_model(self) -> SpModel {
        match self {
            Built::Sp(model) => model,
            Built::Dag(graph) => {
                plan_dag("dag", graph, &DagOptions::default()).expect("zoo graphs are valid")
            }
        }
    }
}

impl Model {
    pub const ALL: [Model; 7] = [
        Model::Mmt,
        Model::Dlrm,
        Model::CandleUno,
        Model::CandleUnoFull,
        Model::Moe,
        Model::Gpt2,
        Model::GnnPipe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Model::Mmt => "mmt",
            Model::Dlrm => "dlrm",
            Model::CandleUno => "candle-uno",
            Model::CandleUnoFull => "candle-uno-full",
            Model::Moe => "moe",
            Model::Gpt2 => "gpt2",
            Model::GnnPipe => "gnn-pipe",
        }
    }

    /// Runs the model's zoo builder at its full (paper) configuration.
    pub fn build(self) -> Built {
        match self {
            Model::Mmt => Built::Sp(zoo::mmt(&zoo::MmtConfig::default())),
            Model::Dlrm => Built::Sp(zoo::dlrm(&zoo::DlrmConfig::default())),
            Model::CandleUno => Built::Sp(zoo::candle_uno(&zoo::CandleUnoConfig::default())),
            Model::CandleUnoFull => Built::Sp(zoo::candle_uno(&zoo::CandleUnoConfig::full())),
            Model::Moe => Built::Sp(zoo::moe(&zoo::MoeConfig::default())),
            Model::Gpt2 => Built::Dag(zoo::gpt2_graph(&zoo::Gpt2Config::default())),
            Model::GnnPipe => Built::Dag(zoo::gnn_pipe_graph(&zoo::GnnPipeConfig::default())),
        }
    }

    /// The model's tiny configuration, sized for real CPU training.
    /// `candle-uno-full` has no tiny variant of its own.
    pub fn tiny(self) -> SpModel {
        match self {
            Model::Mmt => zoo::mmt(&zoo::MmtConfig::tiny()),
            Model::Dlrm => zoo::dlrm(&zoo::DlrmConfig::tiny()),
            Model::CandleUno | Model::CandleUnoFull => {
                zoo::candle_uno(&zoo::CandleUnoConfig::tiny())
            }
            Model::Moe => zoo::moe(&zoo::MoeConfig::tiny()),
            Model::Gpt2 => zoo::gpt2(&zoo::Gpt2Config::tiny()),
            Model::GnnPipe => zoo::gnn_pipe(&zoo::GnnPipeConfig::tiny()),
        }
    }

    /// The mini-batch at `gpus` devices: the paper's Appendix A.2 sizes
    /// (doubling with the device count) for the four paper models, and
    /// the golden-table operating points for gpt2 and gnn-pipe.
    pub fn mini_batch(self, gpus: usize) -> u64 {
        let at_8 = match self {
            Model::Mmt => 128,
            Model::Dlrm => 512,
            Model::CandleUno | Model::CandleUnoFull => 8192,
            Model::Moe => 256,
            Model::Gpt2 => 64,
            Model::GnnPipe => 128,
        };
        assert!(
            gpus >= 8 && gpus.is_power_of_two(),
            "no operating point at {gpus} GPUs"
        );
        at_8 * (gpus as u64 / 8)
    }
}
