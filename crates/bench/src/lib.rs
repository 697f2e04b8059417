//! Shared helpers for the per-table/figure reproduction binaries.
//!
//! Each paper table/figure has a binary in `src/bin/` that prints the same
//! rows/series the paper reports, side by side with the paper's published
//! value where one exists:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — post-approximation accuracy |
//! | `table2` | Table II — accelerator parameters |
//! | `table3` | Table III — hardware overhead vs LUT approximators |
//! | `table4` | Table IV — NOVA vs NACU / I-BERT unit comparison |
//! | `fig6` | Fig 6 — router area vs neurons/router |
//! | `fig7` | Fig 7 — router power vs neurons/router |
//! | `fig8` | Fig 8 — energy/inference for the BERT benchmarks |
//! | `scalability` | §V.A — single-cycle reach vs frequency/pitch |
//! | `sweep` | sweeps beyond the paper's points: sequence length, breakpoint budget, schedule |
//! | `ablation` | ablations: broadcast width, fitting strategy, word format, DVFS, switch cost |
//! | `timeline` | §I — per-layer timeline and the non-linear share of runtime |

pub mod table;
