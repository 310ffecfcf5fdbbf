//! # astra-models — the paper's evaluation model zoo
//!
//! Graph builders for the five models of the Astra paper's §6 evaluation:
//!
//! | Model | Dataset | cuDNN coverage |
//! |---|---|---|
//! | [`Model::Scrnn`] | Penn Tree Bank | none (long tail) |
//! | [`Model::MiLstm`] | Hutter challenge | none (long tail) |
//! | [`Model::SubLstm`] | Penn Tree Bank | none (long tail) |
//! | [`Model::StackedLstm`] | PTB "large" (hidden 1500) | full |
//! | [`Model::Gnmt`] | translation | all but attention |
//!
//! Models are written as a researcher would write them — one GEMM per gate,
//! explicit element-wise arithmetic — so that fusion is something Astra must
//! *discover*, not something baked in. Every builder supports the Table 9
//! "embedding removed" variant and forward-only graphs, and [`bucket_for`] /
//! [`LengthSampler`] provide the dynamic-graph workload of §6.5.
//!
//! ## Example
//!
//! ```
//! use astra_models::{Model, ModelConfig};
//!
//! let cfg = ModelConfig { seq_len: 2, hidden: 32, input: 32, vocab: 64, ..ModelConfig::ptb(8) };
//! let built = Model::Scrnn.build(&cfg);
//! assert!(built.graph.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod cnn;
mod config;
mod dynamic;
mod gnmt;
mod milstm;
mod rhn;
mod scrnn;
mod stacked_lstm;
mod sublstm;

pub use cells::{
    initial_state, lstm_cell, milstm_cell, sublstm_cell, LstmParams, LstmState, MiLstmParams,
};
pub use cnn::build_small_cnn;
pub use config::{BuiltModel, ModelConfig};
pub use dynamic::{bucket_for, LengthSampler, PTB_BUCKETS};


/// The five evaluation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Structurally constrained RNN (Mikolov et al.).
    Scrnn,
    /// Multiplicative-integration LSTM (Wu et al.).
    MiLstm,
    /// Subtractive-gating LSTM (Costa et al.).
    SubLstm,
    /// Standard stacked LSTM (PTB large).
    StackedLstm,
    /// Deep encoder/decoder translator with attention.
    Gnmt,
    /// Recurrent highway network (Zilly et al.) — named in the paper's
    /// introduction as a long-tail structure no accelerator covers.
    Rhn,
}

impl Model {
    /// All models: the paper's five evaluation models plus RHN (named in
    /// its introduction), in table order.
    pub fn all() -> [Model; 6] {
        [
            Model::Scrnn,
            Model::MiLstm,
            Model::SubLstm,
            Model::StackedLstm,
            Model::Gnmt,
            Model::Rhn,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Scrnn => "PTB SCRNN",
            Model::MiLstm => "MI-LSTM",
            Model::SubLstm => "PTB SubLSTM",
            Model::StackedLstm => "PTB Stacked LSTM",
            Model::Gnmt => "GNMT",
            Model::Rhn => "PTB RHN",
        }
    }

    /// The paper's default configuration for this model at a batch size.
    pub fn default_config(&self, batch: u64) -> ModelConfig {
        match self {
            Model::Scrnn => ModelConfig::ptb(batch),
            Model::MiLstm => ModelConfig::hutter(batch),
            Model::SubLstm => ModelConfig::ptb(batch),
            Model::StackedLstm => ModelConfig::ptb_large(batch),
            Model::Gnmt => ModelConfig::gnmt(batch),
            Model::Rhn => ModelConfig::ptb(batch),
        }
    }

    /// Builds the training graph under `cfg`.
    pub fn build(&self, cfg: &ModelConfig) -> BuiltModel {
        match self {
            Model::Scrnn => scrnn::build(cfg),
            Model::MiLstm => milstm::build(cfg),
            Model::SubLstm => sublstm::build(cfg),
            Model::StackedLstm => stacked_lstm::build(cfg),
            Model::Gnmt => gnmt::build(cfg),
            Model::Rhn => rhn::build(cfg),
        }
    }

    /// Whether a cuDNN-style compound accelerator fully covers the model's
    /// recurrent layers (paper §6.3: only the standard LSTM structure is).
    pub fn cudnn_covered(&self) -> bool {
        matches!(self, Model::StackedLstm | Model::Gnmt)
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(m: Model) -> ModelConfig {
        let mut c = m.default_config(4);
        c.hidden = 32;
        c.input = 32;
        c.vocab = 64;
        c.seq_len = 2;
        c.layers = c.layers.min(2);
        c
    }

    #[test]
    fn all_models_build_and_validate() {
        for m in Model::all() {
            let built = m.build(&tiny(m));
            assert!(built.graph.validate().is_ok(), "{m} graph invalid");
            assert!(built.backward.is_some(), "{m} has a backward pass");
        }
    }

    #[test]
    fn all_models_evaluate_numerically() {
        // Every model graph, including its generated backward pass, must be
        // executable by the reference interpreter: bind all inputs/params,
        // evaluate, and get a finite loss.
        use astra_ir::{evaluate, Env, TensorId, TensorKind};
        for m in Model::all() {
            let built = m.build(&tiny(m));
            let mut env = Env::new();
            for t in 0..built.graph.num_tensors() as u32 {
                let id = TensorId(t);
                let info = built.graph.tensor(id);
                match info.kind {
                    TensorKind::Input | TensorKind::Param => {
                        // Token index inputs must be valid rows; 0.5-ish
                        // dense values elsewhere. Use small indices.
                        let fill = if info.name.as_deref().is_some_and(|n| n.contains("tok")) {
                            1.0
                        } else {
                            0.01
                        };
                        env.bind_fill(&built.graph, id, fill);
                    }
                    _ => {}
                }
            }
            if let Some(back) = &built.backward {
                env.bind(back.seed, vec![1.0]);
            }
            evaluate(&built.graph, &mut env).unwrap_or_else(|e| panic!("{m}: {e}"));
            let loss = env.value(built.loss).unwrap()[0];
            assert!(loss.is_finite(), "{m} loss not finite");
        }
    }

    #[test]
    fn cudnn_coverage_matches_paper() {
        assert!(!Model::Scrnn.cudnn_covered());
        assert!(!Model::MiLstm.cudnn_covered());
        assert!(!Model::SubLstm.cudnn_covered());
        assert!(Model::StackedLstm.cudnn_covered());
        assert!(Model::Gnmt.cudnn_covered());
    }

    #[test]
    fn names_match_tables() {
        assert_eq!(Model::Gnmt.to_string(), "GNMT");
        assert_eq!(Model::StackedLstm.name(), "PTB Stacked LSTM");
    }
}
