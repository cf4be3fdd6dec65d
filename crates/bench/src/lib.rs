//! # whyq-bench — the evaluation harness
//!
//! One module per figure/table family of the thesis evaluation; the
//! `repro` binary dispatches experiment ids (see ARCHITECTURE.md
//! § Reproduction for the index). Each experiment prints the same series
//! the paper plots and optionally writes TSV files for external plotting.

// The whole workspace is unsafe-free (audited 2026-08): lock it in.
#![forbid(unsafe_code)]

pub mod appendix;
pub mod compare;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
mod smoke;
pub mod tables;
pub mod util;
