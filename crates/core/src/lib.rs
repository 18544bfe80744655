//! # sdiq-core — experiment layer of the SDIQ reproduction
//!
//! This crate ties the substrates together into the paper's evaluation
//! methodology:
//!
//! * [`Technique`] — the configurations compared in the paper's figures:
//!   the unmanaged baseline, Folegnani-style `nonEmpty` wakeup gating, the
//!   paper's NOOP / Extension / Improved software techniques, and the
//!   Abella & González adaptive-hardware comparator,
//! * [`Experiment`] — runs a (benchmark, technique) pair end to end:
//!   compiler pass → functional execution → cycle-level simulation → power
//!   model,
//! * [`Matrix`] / [`engine`] — the job engine: a worker pool sized to the
//!   machine pulls (workload, technique, configuration) cells from a
//!   shared queue, with a third sweep axis over [`ConfigVariant`]s
//!   (issue-queue geometry, workload scale) for Figure-10-style
//!   sensitivity studies; parallel runs are bit-identical to serial ones,
//! * [`ArtifactCache`] — content-addressed sharing of built programs,
//!   compiler-pass outputs, execution plans and cycle replays across cells
//!   (`Arc`-handled, built exactly once per key),
//! * [`Backend`] — where a matrix runs: the in-process pool, a
//!   coordinator spawning one worker subprocess per [`shard_of`]-assigned
//!   shard, or a coordinator streaming cells to networked worker daemons
//!   (`sdiq-remote`) — all merged bit-identically to a serial run,
//! * [`persist`] — save/load of matrix cells as JSON keyed by cell cache
//!   keys, so a reload re-runs only missing cells; plus the append-style
//!   [`CheckpointWriter`] that makes runs crash-resumable (each completed
//!   cell is flushed to disk the moment it exists),
//! * [`experiments`] — turns a matrix of runs ([`Suite`]) into the data
//!   behind every table and figure of §5 (per-experiment index in
//!   `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use sdiq_core::{Experiment, Technique};
//! use sdiq_workloads::Benchmark;
//!
//! let experiment = Experiment::quick();
//! let baseline = experiment.run(Benchmark::Gzip, Technique::Baseline);
//! let noop = experiment.run(Benchmark::Gzip, Technique::Noop);
//! let comparison = noop.compared_to(&baseline);
//! assert!(comparison.savings.iq_dynamic_pct > 0.0);
//! ```

// The workspace denies `unwrap()`/`expect()` in shipped code: every
// recoverable failure must be handled or panic with a diagnosable message.
// Tests are exempt — terse assertions are the point there.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod engine;
pub mod experiments;
pub mod persist;
pub mod persist_bin;
pub mod runner;
pub mod technique;
pub mod trace;

pub use cache::{
    ArtifactCache, CompileKey, CompiledArtifact, PlanKey, PlanSource, ProgramKey, ReplayKey,
    ResultStore, Stored,
};
pub use engine::{
    cell_key, matrix_fingerprint, shard_of, Backend, BackendError, CellSink, ConfigVariant, Matrix,
    MatrixSpec, ObserveSpec, Registration, RemoteLaunch, RemoteSpec, SubprocessSpec, Sweep,
};
pub use experiments::{
    figure10, figure11, figure12, figure6, figure7, figure8, figure9, overall_processor_savings,
    render_sweep_sensitivity, summarise, sweep_sensitivity, table1, FigureSeries, PowerFigure,
    SweepRow, TechniqueSummary,
};
pub use persist::CheckpointWriter;
pub use runner::{Comparison, Experiment, RunReport, SimBackend, Suite};
pub use technique::{RegistryError, Technique, TechniqueRegistry, TechniqueSpec};
