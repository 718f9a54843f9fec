//! ZSim-lite: a lightweight micro-architecture timing model.
//!
//! The paper evaluates ASA inside [ZSim], a Pin-based simulator, reporting
//! instruction counts, branch mispredictions, CPI, and kernel runtimes
//! (Tables II–V, Figures 6–11). This crate is the reproduction's substitute
//! (DESIGN.md, substitution 2): instrumented components — the software hash
//! table in `asa-hashsim` and the CAM accelerator in `asa-accel` — emit
//! abstract micro-events through the [`EventSink`] trait, and a
//! [`CoreModel`] replays them through a branch predictor, a three-level
//! set-associative cache hierarchy, and a latency table to produce the same
//! aggregate counters the paper reports.
//!
//! The model makes no claim of absolute-cycle fidelity. What it captures
//! faithfully is *where the Baseline's cycles go*: collision-chain compare
//! branches feed a real (gshare) predictor, pointer-chase node loads feed a
//! real cache model, and the ASA path replaces both with single accumulate
//! instructions plus an explicit overflow-merge cost — exactly the
//! mechanisms the paper credits for its speedups.
//!
//! [ZSim]: https://doi.org/10.1145/2485922.2485963

pub mod accum;
pub mod branch;
pub mod cache;
pub mod config;
pub mod core;
pub mod events;
pub mod machine;
pub mod report;

pub use accum::FlowAccumulator;
pub use branch::{BranchPredictor, PredictorKind};
pub use cache::{CacheHierarchy, SetAssocCache};
pub use config::MachineConfig;
pub use core::CoreModel;
pub use events::{EventSink, InstrClass, NullSink};
pub use machine::MachineModel;
pub use report::KernelReport;
