//! Workload models for the NOVA evaluation.
//!
//! Two families:
//!
//! - [`bert`]: the five attention benchmarks of Fig 8 (MobileBERT-base,
//!   MobileBERT-tiny, RoBERTa, BERT-tiny, BERT-mini). Each config expands
//!   into a per-layer **operation census**: the matrix-multiply dimensions
//!   the systolic array executes and the non-linear operator counts
//!   (softmax elements/rows, GELU elements, LayerNorm rows) that become
//!   approximator queries.
//! - [`models`] + [`synthetic`]: the Table I accuracy benchmarks. The
//!   paper measures six real models on MNIST/CIFAR-10/SQuAD/SST-2; those
//!   datasets and checkpoints are not reproducible here, so each model is
//!   substituted by a synthetic classification task whose logits flow
//!   through the *identical* exact-vs-approximated softmax code path
//!   (DESIGN.md documents the substitution).
//! - [`traffic`]: seeded query streams (`f64` values or fixed-point
//!   words) that drive the serving engine with concrete inputs.
//!
//! # Example
//!
//! ```
//! use nova_workloads::bert::{BertConfig, census};
//!
//! let cfg = BertConfig::bert_tiny();
//! let ops = census(&cfg, 128);
//! assert!(ops.softmax_elements > 0);
//! assert!(ops.total_matmul_macs() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod bert;
pub mod cnn;
pub mod models;
pub mod synthetic;
pub mod traffic;
