//! The experiment job engine: a fixed worker pool over a shared queue of
//! (workload, technique, configuration) cells.
//!
//! The previous matrix runner spawned one thread per benchmark, which is
//! unbalanced (a `gcc`-analogue column takes far longer than a `gzip` one)
//! and caps parallelism at the benchmark count regardless of the machine.
//! The engine instead flattens the whole
//! (benchmark × technique × [`ConfigVariant`]) cross product into a cell
//! list, sizes a worker pool to `std::thread::available_parallelism`, and
//! lets idle workers pull the next unclaimed cell from a shared atomic
//! cursor — so an 11 × 6 × K sweep saturates every core no matter how the
//! axes are shaped, and a long cell never strands the rest of its row.
//!
//! Expensive per-cell work that is shared between cells (program
//! generation, compiler passes, plan lowering, cycle replay) goes through
//! the [`ArtifactCache`], so a cell itself mostly prices a shared replay,
//! and every cell's result is a pure function of its cell key, which
//! yields the engine's hard guarantee: **the assembled [`Sweep`] is
//! bit-identical for any worker count**, `jobs = 1` included. The
//! integration suite asserts this.
//!
//! # Scaling beyond one process
//!
//! The same cell space shards across processes: [`shard_of`] assigns every
//! cell key to one of `N` shards by a stable fingerprint, [`Matrix::shard`]
//! restricts a matrix to exactly its shard's cells, and [`Backend`] chooses
//! between the in-process pool, a coordinator that spawns one worker
//! subprocess per shard, and a coordinator that distributes cells over
//! networked worker daemons ([`Backend::Remote`]; the TCP transport and
//! fault-tolerant scheduler live in the `sdiq-remote` crate, wired in via
//! [`RemoteSpec::launch`] so this crate stays transport-free) — all with
//! the same hard guarantee: the merged sweep is bit-identical to a serial
//! run. Completed cells can additionally stream into a [`CellSink`] (the
//! engine's crash-resume hook: [`crate::persist::CheckpointWriter`] appends
//! each one to disk the moment it exists). A [`MatrixSpec`] is the portable
//! matrix description distribution backends ship to processes that never
//! saw the coordinator's command line.

use crate::cache::{ArtifactCache, CompileKey, PlanKey, PlanSource, ProgramKey, ReplayKey};
use crate::runner::{Experiment, RunReport, SimBackend, Suite};
use crate::technique::Technique;
use sdiq_sim::SimConfig;
use sdiq_workloads::Benchmark;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One point on the configuration sweep axis: a simulator configuration
/// plus the workload scale to run it at.
///
/// The paper's Figure-10-style sensitivity studies vary the machine under
/// a fixed workload set; a sweep here is a list of variants, each labelled
/// for reporting and keyed (together with the experiment's energy model
/// and instruction budget) into every cell's cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigVariant {
    /// Label used in reports and cell keys (e.g. `base`, `iq64`).
    pub label: String,
    /// The simulator configuration for this variant.
    pub sim_config: SimConfig,
    /// Workload scale factor for this variant.
    pub scale: f64,
}

impl ConfigVariant {
    /// The experiment's own configuration, labelled `base`.
    pub fn base(experiment: &Experiment) -> Self {
        ConfigVariant {
            label: "base".to_string(),
            sim_config: experiment.sim_config,
            scale: experiment.scale,
        }
    }

    /// A variant of the experiment's machine with a different issue-queue
    /// capacity (both the queue geometry and the machine width the
    /// compiler pass targets follow).
    ///
    /// # Panics
    ///
    /// If `entries` is zero — a zero-capacity queue can never dispatch,
    /// and catching it at construction beats a panic inside a worker
    /// thread.
    pub fn with_iq_entries(experiment: &Experiment, entries: usize) -> Self {
        assert!(entries >= 1, "issue-queue capacity must be at least 1");
        let mut sim_config = experiment.sim_config;
        sim_config.iq.entries = entries;
        sim_config.widths.iq_capacity = entries;
        ConfigVariant {
            label: format!("iq{entries}"),
            sim_config,
            scale: experiment.scale,
        }
    }

    /// A variant of the experiment's machine with a different issue-queue
    /// bank size (same capacity, different gating granularity).
    ///
    /// # Panics
    ///
    /// If `bank_size` is zero (the bank count would divide by it).
    pub fn with_iq_bank_size(experiment: &Experiment, bank_size: usize) -> Self {
        assert!(bank_size >= 1, "issue-queue bank size must be at least 1");
        let mut sim_config = experiment.sim_config;
        sim_config.iq.bank_size = bank_size;
        ConfigVariant {
            label: format!("bank{bank_size}"),
            sim_config,
            scale: experiment.scale,
        }
    }

    /// A variant running the experiment's machine at a different workload
    /// scale.
    ///
    /// # Panics
    ///
    /// If `scale` is not a positive finite number.
    pub fn with_scale(experiment: &Experiment, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "workload scale must be positive and finite"
        );
        ConfigVariant {
            label: format!("scale{scale}"),
            sim_config: experiment.sim_config,
            scale,
        }
    }
}

/// Results of a configuration sweep: one [`Suite`] per [`ConfigVariant`],
/// in the order the variants were declared.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    points: Vec<(ConfigVariant, Suite)>,
}

impl Sweep {
    /// The sweep points in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &(ConfigVariant, Suite)> {
        self.points.iter()
    }

    /// The suite of the `index`-th variant.
    pub fn suite(&self, index: usize) -> &Suite {
        &self.points[index].1
    }

    /// The variant of the `index`-th point.
    pub fn variant(&self, index: usize) -> &ConfigVariant {
        &self.points[index].0
    }

    /// The suite for the variant with the given label, if present.
    pub fn suite_for(&self, label: &str) -> Option<&Suite> {
        self.points
            .iter()
            .find(|(v, _)| v.label == label)
            .map(|(_, s)| s)
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the sweep holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Collapses a single-point sweep (the common non-sweeping case) into
    /// its one suite.
    pub fn into_suite(mut self) -> Suite {
        assert!(
            self.points.len() == 1,
            "into_suite on a {}-point sweep; pick a variant instead",
            self.points.len()
        );
        match self.points.pop() {
            Some((_, suite)) => suite,
            None => unreachable!("asserted exactly one point above"),
        }
    }
}

/// A self-contained, serialisable description of a matrix: everything a
/// process that did **not** parse this run's command line needs to rebuild
/// the identical cell space (experiment scale, sweep axes, benchmark and
/// technique names).
///
/// This is the portable twin of [`SubprocessSpec::worker_args`]: the
/// subprocess backend re-ships the coordinator's CLI flags, while the
/// remote backend ships a `MatrixSpec` inside its `RunCells` frame (see
/// `sdiq-remote`) so a worker daemon on another machine rebuilds the same
/// matrix. Both the coordinator and the worker derive their [`Matrix`]
/// from the same spec via [`MatrixSpec::matrix`], so they cannot drift.
///
/// The parts of an [`Experiment`] that are not spelled out here (energy
/// model, instruction budget) are pinned to [`Experiment::paper`]; the
/// per-cell key fingerprint covers them, so any future divergence shows up
/// as a key mismatch, never as a silently different result.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Workload scale ([`Experiment::scale`]).
    pub scale: f64,
    /// Sweep axes in declaration order: `(axis, values)` with axis one of
    /// `iq`, `bank`, `scale` (the `repro --sweep` grammar).
    pub sweeps: Vec<(String, Vec<f64>)>,
    /// Benchmark names ([`Benchmark::name`]) of the benchmark axis.
    pub benchmarks: Vec<String>,
    /// Technique names ([`Technique::name`]) of the technique axis.
    pub techniques: Vec<String>,
}

impl MatrixSpec {
    /// The experiment this spec describes: the paper's machine at the
    /// spec's workload scale.
    pub fn experiment(&self) -> Experiment {
        Experiment {
            scale: self.scale,
            ..Experiment::paper()
        }
    }

    /// Builds the matrix this spec describes over `experiment` (which must
    /// come from [`MatrixSpec::experiment`] — split only because [`Matrix`]
    /// borrows it). Returns an error for unknown benchmark, technique or
    /// axis names and for out-of-range sweep values: a spec arriving over
    /// the wire is input, not an invariant, so nothing here panics.
    pub fn matrix<'a>(&self, experiment: &'a Experiment) -> Result<Matrix<'a>, String> {
        let benchmarks = self
            .benchmarks
            .iter()
            .map(|name| {
                Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let techniques = self
            .techniques
            .iter()
            .map(|name| {
                Technique::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown technique `{name}` (registered: {})",
                        crate::TechniqueRegistry::names().join(", ")
                    )
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut matrix = Matrix::new(experiment)
            .benchmarks(&benchmarks)
            .techniques(&techniques);
        for (axis, values) in &self.sweeps {
            matrix = match axis.as_str() {
                "iq" | "bank" => {
                    // Machine geometry: zero would panic in `banks()`,
                    // fractions would silently truncate, huge values OOM
                    // the simulator (the CLI enforces the same bound).
                    const MAX_GEOMETRY: f64 = 65536.0;
                    let entries = values
                        .iter()
                        .map(|&v| {
                            if v >= 1.0 && v.fract() == 0.0 && v <= MAX_GEOMETRY {
                                Ok(v as usize)
                            } else {
                                Err(format!(
                                    "sweep axis `{axis}` wants integers in 1..={MAX_GEOMETRY}, got `{v}`"
                                ))
                            }
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    if axis == "iq" {
                        matrix.sweep_iq_entries(&entries)
                    } else {
                        matrix.sweep_iq_bank_sizes(&entries)
                    }
                }
                "scale" => {
                    for &v in values {
                        if !(v > 0.0 && v.is_finite()) {
                            return Err(format!(
                                "sweep axis `scale` wants positive values, got `{v}`"
                            ));
                        }
                    }
                    matrix.sweep_scales(values)
                }
                other => return Err(format!("unknown sweep axis `{other}` (iq, bank, scale)")),
            };
        }
        Ok(matrix)
    }
}

/// A stable fingerprint of a matrix's whole cell-key space (order
/// independent). The remote coordinator sends it with every `RunCells`
/// frame and the worker daemon recomputes it from the shipped
/// [`MatrixSpec`]: a mismatch means the two processes disagree about what
/// the matrix *is* (version skew, a hand-edited spec) and is rejected
/// before any cell runs.
pub fn matrix_fingerprint(keys: &[String]) -> u64 {
    let mut sorted: Vec<&String> = keys.iter().collect();
    sorted.sort();
    let mut hasher = Fnv1a::default();
    for key in sorted {
        hasher.write(key.as_bytes());
        hasher.write_u8(0); // unambiguous key boundary
    }
    hasher.finish()
}

/// One cell of the flattened cross product (see [`Matrix`]).
#[derive(Debug, Clone, Copy)]
struct Cell {
    variant: usize,
    benchmark: Benchmark,
    technique: Technique,
}

/// `true` if a seeded report genuinely describes the cell it is keyed as
/// (guards suite assembly against corrupted or hand-edited save files).
fn seed_matches(report: &RunReport, benchmark: Benchmark, technique: Technique) -> bool {
    report.technique == technique && report.workload == benchmark.name()
}

/// Builder for a full (benchmark × technique × configuration) sweep run on
/// the job engine.
///
/// ```
/// use sdiq_core::{Experiment, Matrix, Technique};
/// use sdiq_workloads::Benchmark;
///
/// let experiment = Experiment { scale: 0.05, ..Experiment::paper() };
/// let sweep = Matrix::new(&experiment)
///     .benchmarks(&[Benchmark::Gzip])
///     .techniques(&[Technique::Baseline, Technique::Noop])
///     .jobs(2)
///     .run();
/// assert_eq!(sweep.len(), 1); // no sweep axis declared → just `base`
/// assert_eq!(sweep.suite(0).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Matrix<'a> {
    experiment: &'a Experiment,
    benchmarks: Vec<Benchmark>,
    techniques: Vec<Technique>,
    variants: Vec<ConfigVariant>,
    jobs: usize,
    /// `(index, count)`: restrict to the cells [`shard_of`] assigns to
    /// `index` (zero-based) out of `count` shards. `None` = every cell.
    shard: Option<(usize, usize)>,
}

impl<'a> Matrix<'a> {
    /// A matrix over every benchmark and technique of `experiment`'s base
    /// configuration, auto-sized worker pool.
    pub fn new(experiment: &'a Experiment) -> Self {
        Matrix {
            experiment,
            benchmarks: Benchmark::ALL.to_vec(),
            techniques: Technique::all(),
            variants: Vec::new(),
            jobs: 0,
            shard: None,
        }
    }

    /// Restricts the benchmark axis.
    pub fn benchmarks(mut self, benchmarks: &[Benchmark]) -> Self {
        self.benchmarks = benchmarks.to_vec();
        self
    }

    /// Restricts the technique axis.
    pub fn techniques(mut self, techniques: &[Technique]) -> Self {
        self.techniques = techniques.to_vec();
        self
    }

    /// Replaces the configuration axis with an explicit variant list.
    pub fn variants(mut self, variants: Vec<ConfigVariant>) -> Self {
        self.variants = variants;
        self
    }

    /// Appends issue-queue-capacity variants to the configuration axis
    /// (the base configuration is kept as the first point).
    pub fn sweep_iq_entries(mut self, entries: &[usize]) -> Self {
        self.ensure_base();
        self.variants.extend(
            entries
                .iter()
                .map(|&e| ConfigVariant::with_iq_entries(self.experiment, e)),
        );
        self
    }

    /// Appends issue-queue bank-size variants to the configuration axis.
    pub fn sweep_iq_bank_sizes(mut self, bank_sizes: &[usize]) -> Self {
        self.ensure_base();
        self.variants.extend(
            bank_sizes
                .iter()
                .map(|&b| ConfigVariant::with_iq_bank_size(self.experiment, b)),
        );
        self
    }

    /// Appends workload-scale variants to the configuration axis.
    pub fn sweep_scales(mut self, scales: &[f64]) -> Self {
        self.ensure_base();
        self.variants.extend(
            scales
                .iter()
                .map(|&s| ConfigVariant::with_scale(self.experiment, s)),
        );
        self
    }

    /// Fixes the worker-pool size (`0` = auto:
    /// `std::thread::available_parallelism`).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Restricts the matrix to shard `index` (zero-based) of `count`:
    /// exactly the cells whose key [`shard_of`] assigns to that shard, and
    /// nothing else — key generation, execution, persistence and seed
    /// accounting all see only the owned cells. The partition is a pure
    /// function of the cell keys, so every process of a sharded run
    /// computes the same assignment without coordination.
    ///
    /// # Panics
    ///
    /// If `count` is zero or `index >= count`.
    pub fn shard(mut self, index: usize, count: usize) -> Self {
        assert!(count >= 1, "shard count must be at least 1");
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards"
        );
        self.shard = Some((index, count));
        self
    }

    fn ensure_base(&mut self) {
        if self.variants.is_empty() {
            self.variants.push(ConfigVariant::base(self.experiment));
        }
    }

    /// The configuration-axis points this matrix sweeps (`base` alone if
    /// no axis was declared) — the same list the cell space is built
    /// from, so external checkers (`repro lint`) cover exactly the
    /// variants a run would execute.
    pub fn config_variants(&self) -> Vec<ConfigVariant> {
        self.effective_variants()
    }

    /// The effective variant list (`base` alone if no axis was declared).
    fn effective_variants(&self) -> Vec<ConfigVariant> {
        if self.variants.is_empty() {
            vec![ConfigVariant::base(self.experiment)]
        } else {
            self.variants.clone()
        }
    }

    /// Total number of cells this matrix owns: the full cross product, or
    /// only this shard's share of it when [`Matrix::shard`] is set.
    pub fn cell_count(&self) -> usize {
        match self.shard {
            None => self.effective_variants().len() * self.benchmarks.len() * self.techniques.len(),
            Some(_) => self.cells(&self.effective_variants()).len(),
        }
    }

    /// The full cross-product size, ignoring any shard restriction.
    pub fn unsharded_cell_count(&self) -> usize {
        self.effective_variants().len() * self.benchmarks.len() * self.techniques.len()
    }

    /// The flattened (variant × technique × benchmark) cell list — the
    /// single definition of cell order: key generation, execution,
    /// reassembly and seed accounting all iterate this, so they cannot
    /// drift apart. Benchmark is the *innermost* axis so that the first
    /// `jobs` cells a cold worker pool claims span `jobs` distinct
    /// benchmarks: their program builds overlap instead of piling up on
    /// one `OnceLock` (suite assembly keys by cell, so the order is free
    /// to serve the cache).
    fn cells(&self, variants: &[ConfigVariant]) -> Vec<Cell> {
        let mut cells =
            Vec::with_capacity(variants.len() * self.benchmarks.len() * self.techniques.len());
        for (variant, _) in variants.iter().enumerate() {
            for &technique in &self.techniques {
                for &benchmark in &self.benchmarks {
                    cells.push(Cell {
                        variant,
                        benchmark,
                        technique,
                    });
                }
            }
        }
        // Shard restriction: keep only the cells whose key this shard owns.
        // Filtering the canonical list (instead of building a different
        // one) preserves the relative cell order, so a sharded save file
        // merges back into exactly the serial key space.
        if let Some((index, count)) = self.shard {
            cells.retain(|cell| {
                let key = cell_key(
                    self.experiment,
                    &variants[cell.variant],
                    cell.benchmark,
                    cell.technique,
                );
                shard_of(&key, count) == index
            });
        }
        cells
    }

    /// The cache key of every cell, in deterministic cell order. This is
    /// the key space `--save`/`--load` persistence is indexed by.
    pub fn cell_keys(&self) -> Vec<String> {
        let variants = self.effective_variants();
        self.cells(&variants)
            .iter()
            .map(|cell| {
                cell_key(
                    self.experiment,
                    &variants[cell.variant],
                    cell.benchmark,
                    cell.technique,
                )
            })
            .collect()
    }

    /// Number of cells [`Matrix::run_with`] would actually compute given
    /// `seed`: cells whose key is absent *plus* cells whose seeded report
    /// fails the integrity check (wrong technique/workload under the key)
    /// and is therefore recomputed.
    pub fn missing_cells(&self, seed: &HashMap<String, RunReport>) -> usize {
        self.missing_cell_keys(seed).len()
    }

    /// The keys of exactly the cells [`Matrix::run_with`] would compute
    /// given `seed`, in canonical cell order (the same predicate as
    /// [`Matrix::missing_cells`]). This is the work list a distribution
    /// backend schedules: seeded cells are already durable and never leave
    /// the coordinator.
    pub fn missing_cell_keys(&self, seed: &HashMap<String, RunReport>) -> Vec<String> {
        let variants = self.effective_variants();
        self.cells(&variants)
            .iter()
            .filter_map(|cell| {
                let key = cell_key(
                    self.experiment,
                    &variants[cell.variant],
                    cell.benchmark,
                    cell.technique,
                );
                let seeded = seed
                    .get(&key)
                    .is_some_and(|report| seed_matches(report, cell.benchmark, cell.technique));
                (!seeded).then_some(key)
            })
            .collect()
    }

    /// Runs exactly the cells named by `requested` (a subset of this
    /// matrix's key space) on the worker pool, streaming each computed
    /// report into `sink` as it lands, and returns the key-addressed
    /// results. A requested key this matrix does not own is an error —
    /// it means the requester built a different matrix (the remote worker
    /// daemon's defence against version skew, mirroring the subprocess
    /// coordinator's foreign-key check from the other side).
    pub fn run_cells_by_key(
        &self,
        cache: &ArtifactCache,
        requested: &std::collections::HashSet<String>,
        sink: Option<&dyn CellSink>,
    ) -> Result<HashMap<String, RunReport>, String> {
        let variants = self.effective_variants();
        let keyed: Vec<(String, Cell)> = self
            .cells(&variants)
            .into_iter()
            .map(|cell| {
                (
                    cell_key(
                        self.experiment,
                        &variants[cell.variant],
                        cell.benchmark,
                        cell.technique,
                    ),
                    cell,
                )
            })
            .collect();
        {
            let own: std::collections::HashSet<&str> =
                keyed.iter().map(|(key, _)| key.as_str()).collect();
            let mut foreign: Vec<&str> = requested
                .iter()
                .map(String::as_str)
                .filter(|key| !own.contains(key))
                .collect();
            if !foreign.is_empty() {
                foreign.sort();
                return Err(format!(
                    "{} requested cell key(s) not in this matrix (configurations \
                     disagree), first: `{}`",
                    foreign.len(),
                    foreign[0]
                ));
            }
        }
        let todo: Vec<&(String, Cell)> = keyed
            .iter()
            .filter(|(key, _)| requested.contains(key))
            .collect();

        let results: Vec<OnceLock<RunReport>> = todo.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let jobs = self.effective_jobs(todo.len());
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some((key, cell)) = todo.get(index).map(|entry| (&entry.0, &entry.1))
                        else {
                            break;
                        };
                        let report = observed_cell(
                            self.experiment,
                            cache,
                            &variants[cell.variant],
                            key,
                            cell.benchmark,
                            cell.technique,
                        );
                        if let Some(sink) = sink {
                            let _span = sdiq_obs::span("persist-cell", "persist");
                            sink.cell_complete(key, &report);
                        }
                        results[index].set(report).unwrap_or_else(|_| {
                            unreachable!("each cell is claimed by exactly one worker")
                        });
                    }
                    // Last act, not left to TLS teardown: the scope owner
                    // unblocks the moment this closure returns and may
                    // drain immediately.
                    sdiq_obs::flush();
                });
            }
        });
        Ok(todo
            .into_iter()
            .zip(results)
            .map(|((key, _), slot)| {
                (
                    key.clone(),
                    slot.into_inner()
                        .unwrap_or_else(|| unreachable!("worker pool filled every requested cell")),
                )
            })
            .collect())
    }

    /// Runs the matrix on a private artifact cache with no seeded cells.
    pub fn run(&self) -> Sweep {
        self.run_with(&ArtifactCache::new(), &HashMap::new())
    }

    /// Runs the matrix: cells whose key appears in `seed` are taken from
    /// it verbatim (the `--load` path re-runs only missing cells), the
    /// rest are computed on the worker pool through `cache`.
    pub fn run_with(&self, cache: &ArtifactCache, seed: &HashMap<String, RunReport>) -> Sweep {
        self.run_with_sink(cache, seed, None)
    }

    /// [`Matrix::run_with`], additionally streaming every **computed**
    /// cell (not the seeded ones — they are already durable wherever the
    /// seed came from) into `sink` the moment its report exists. This is
    /// the crash-resume hook: with a
    /// [`crate::persist::CheckpointWriter`] as the sink, a killed run
    /// loses at most the cells that were still in flight.
    pub fn run_with_sink(
        &self,
        cache: &ArtifactCache,
        seed: &HashMap<String, RunReport>,
        sink: Option<&dyn CellSink>,
    ) -> Sweep {
        let variants = self.effective_variants();
        let cells = self.cells(&variants);

        let results: Vec<OnceLock<RunReport>> = cells.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let jobs = self.effective_jobs(cells.len());
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(index) else {
                            break;
                        };
                        let variant = &variants[cell.variant];
                        let key =
                            cell_key(self.experiment, variant, cell.benchmark, cell.technique);
                        // A seeded report must actually describe this cell —
                        // `Suite::insert` slots by the report's own technique,
                        // so a corrupted save file could otherwise mis-file a
                        // cell and silently leave another empty. Mismatched
                        // seeds are treated as missing and recomputed
                        // (`missing_cells` applies the same predicate).
                        let seeded = seed
                            .get(&key)
                            .filter(|report| seed_matches(report, cell.benchmark, cell.technique));
                        let report = match seeded {
                            Some(seeded) => seeded.clone(),
                            None => {
                                let report = observed_cell(
                                    self.experiment,
                                    cache,
                                    variant,
                                    &key,
                                    cell.benchmark,
                                    cell.technique,
                                );
                                if let Some(sink) = sink {
                                    let _span = sdiq_obs::span("persist-cell", "persist");
                                    sink.cell_complete(&key, &report);
                                }
                                report
                            }
                        };
                        results[index].set(report).unwrap_or_else(|_| {
                            unreachable!("each cell is claimed by exactly one worker")
                        });
                    }
                    // See run_cells_by_key: flush before the scope owner
                    // can observe this thread as finished.
                    sdiq_obs::flush();
                });
            }
        });

        // Reassembly is keyed by each result's own cell, not by position,
        // so it is independent of whatever order `cells()` chooses.
        let mut suites: Vec<Suite> = variants.iter().map(|_| Suite::default()).collect();
        for (cell, slot) in cells.iter().zip(results) {
            let report = slot
                .into_inner()
                .unwrap_or_else(|| unreachable!("worker pool filled every cell before exiting"));
            suites[cell.variant].insert(cell.benchmark, report);
        }
        Sweep {
            points: variants.into_iter().zip(suites).collect(),
        }
    }

    /// Flattens a sweep produced by this matrix back into its
    /// key-addressed cells (the `--save` path).
    pub fn collect_cells(&self, sweep: &Sweep) -> std::collections::BTreeMap<String, RunReport> {
        let variants = self.effective_variants();
        let mut cells = std::collections::BTreeMap::new();
        for cell in self.cells(&variants) {
            if let Some(report) = sweep
                .suite(cell.variant)
                .get(cell.benchmark, cell.technique)
            {
                cells.insert(
                    cell_key(
                        self.experiment,
                        &variants[cell.variant],
                        cell.benchmark,
                        cell.technique,
                    ),
                    report.clone(),
                );
            }
        }
        cells
    }

    fn effective_jobs(&self, cells: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let jobs = if self.jobs == 0 { auto() } else { self.jobs };
        jobs.clamp(1, cells.max(1))
    }

    /// Runs the matrix on the chosen [`Backend`].
    ///
    /// * [`Backend::InProcess`] is [`Matrix::run_with_sink`] with a fresh
    ///   cache and the given seed — infallible, same-process.
    /// * [`Backend::Subprocess`] turns this process into a coordinator: it
    ///   spawns one worker per shard (the worker protocol is documented on
    ///   [`SubprocessSpec`]), waits for all of them, loads their partial
    ///   cell maps and assembles the merged sweep, which is bit-identical
    ///   to a serial run because every cell is a pure function of its key.
    /// * [`Backend::Remote`] distributes the missing cells over networked
    ///   worker daemons through the [`RemoteSpec::launch`] hook (the TCP
    ///   transport and scheduler live in the `sdiq-remote` crate; the
    ///   engine stays transport-free). Same hard guarantee: the assembled
    ///   sweep is bit-identical to a serial run.
    ///
    /// Either way, `sink` observes every cell that was not already in
    /// `seed`: computed locally for the in-process backend, returned by a
    /// worker for the distributed ones (delivered as each shard lands /
    /// each remote cell streams in, so a killed coordinator keeps what
    /// finished).
    pub fn run_on(
        &self,
        backend: &Backend,
        seed: &HashMap<String, RunReport>,
        sink: Option<&dyn CellSink>,
    ) -> Result<Sweep, BackendError> {
        match backend {
            Backend::InProcess { jobs } => {
                let mut matrix = self.clone();
                matrix.jobs = *jobs;
                Ok(matrix.run_with_sink(&ArtifactCache::new(), seed, sink))
            }
            Backend::Subprocess(spec) => self.run_subprocess(spec, seed, sink),
            Backend::Remote(spec) => (spec.launch)(self, spec, seed, sink),
        }
    }

    fn run_subprocess(
        &self,
        spec: &SubprocessSpec,
        seed: &HashMap<String, RunReport>,
        sink: Option<&dyn CellSink>,
    ) -> Result<Sweep, BackendError> {
        assert!(
            self.shard.is_none(),
            "the subprocess coordinator owns the whole matrix; shard() is for workers"
        );
        assert!(spec.shards >= 1, "need at least one shard");
        std::fs::create_dir_all(&spec.scratch_dir).map_err(|e| {
            BackendError::new(format!(
                "creating scratch dir {}: {e}",
                spec.scratch_dir.display()
            ))
        })?;

        // The coordinator's whole seed (loaded save files, its checkpoint)
        // travels to the workers as one extra `--load` file, so cells that
        // are already durable are never recomputed — including across a
        // serial-checkpoint → sharded mode switch.
        let seed_path = (!seed.is_empty()).then(|| {
            let path = spec.scratch_dir.join("seed.json");
            let cells: std::collections::BTreeMap<String, RunReport> =
                seed.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            std::fs::write(&path, crate::persist::save_cells(&cells)).map(|()| path)
        });
        let seed_path = match seed_path {
            None => None,
            Some(Ok(path)) => Some(path),
            Some(Err(e)) => {
                return Err(BackendError::new(format!("writing worker seed file: {e}")))
            }
        };

        // Spawn every worker first, then wait: shards run concurrently.
        let mut children = Vec::with_capacity(spec.shards);
        for shard in 0..spec.shards {
            let save_path =
                spec.scratch_dir
                    .join(format!("shard-{}-of-{}.json", shard + 1, spec.shards));
            let mut command = std::process::Command::new(&spec.worker_exe);
            command.args(&spec.worker_args);
            if let Some(seed_path) = &seed_path {
                command.arg("--load").arg(seed_path);
            }
            command
                .arg("--shard")
                .arg(format!("{}/{}", shard + 1, spec.shards))
                .arg("--save")
                .arg(&save_path);
            if let Some(stem) = &spec.worker_checkpoint_stem {
                // Per-shard crash durability: each worker appends its
                // completed cells to its own *stable* checkpoint path (not
                // in the scratch dir) and seeds itself from it when the
                // coordinator is re-run after a kill.
                command.arg("--checkpoint").arg(format!(
                    "{}.shard-{}-of-{}",
                    stem.display(),
                    shard + 1,
                    spec.shards
                ));
            }
            let child = command
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    BackendError::new(format!(
                        "spawning worker {} ({}): {e}",
                        shard + 1,
                        spec.worker_exe.display()
                    ))
                });
            match child {
                Ok(child) => children.push((shard, save_path, child)),
                Err(error) => {
                    // Don't strand the workers that did spawn.
                    reap(children);
                    return Err(error);
                }
            }
        }

        // Wait for every worker. After the first failure the remaining
        // children are killed and reaped instead of being dropped — a
        // dropped `Child` keeps running (and burning CPU on its whole
        // shard) with nobody left to collect it.
        let expected: std::collections::HashSet<String> = self.cell_keys().into_iter().collect();
        let mut merged: HashMap<String, RunReport> = seed.clone();
        let mut failure: Option<BackendError> = None;
        for (shard, save_path, mut child) in children {
            if failure.is_some() {
                reap(vec![(shard, save_path, child)]);
                continue;
            }
            let cells = wait_for_worker(shard, spec.shards, &save_path, &mut child);
            let cells = match cells {
                Ok(cells) => cells,
                Err(error) => {
                    failure = Some(error);
                    continue;
                }
            };
            for (key, report) in cells {
                // A well-behaved worker only writes keys from this matrix's
                // key space; anything else means the worker ran a different
                // configuration than the coordinator.
                if !expected.contains(&key) {
                    failure = Some(BackendError::new(format!(
                        "worker {} produced foreign cell key `{key}` — \
                         worker and coordinator configurations disagree",
                        shard + 1
                    )));
                    break;
                }
                // Cells the seed already held were durable before this run;
                // everything a worker newly delivered streams to the sink
                // (the coordinator's own checkpoint) as its shard lands.
                if let Some(sink) = sink {
                    if !seed.contains_key(&key) {
                        sink.cell_complete(&key, &report);
                    }
                }
                merged.insert(key, report);
            }
        }
        if let Some(failure) = failure {
            return Err(failure);
        }

        let missing = self.missing_cells(&merged);
        if missing > 0 {
            return Err(BackendError::new(format!(
                "merged worker outputs still miss {missing} cells — \
                 a worker under-covered its shard"
            )));
        }
        // Assembly only: every cell is seeded, so nothing is recomputed and
        // the merged sweep is bit-identical to a serial run.
        Ok(self.run_with(&ArtifactCache::new(), &merged))
    }
}

/// Kills and reaps worker children that are no longer wanted (spawn
/// failure or an earlier worker's error). Best-effort: a child that
/// already exited makes `kill` a no-op and `wait` collects it.
fn reap(children: Vec<(usize, PathBuf, std::process::Child)>) {
    for (_, _, mut child) in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Waits for one worker and loads its delivered cell map.
fn wait_for_worker(
    shard: usize,
    shards: usize,
    save_path: &std::path::Path,
    child: &mut std::process::Child,
) -> Result<HashMap<String, RunReport>, BackendError> {
    let status = child
        .wait()
        .map_err(|e| BackendError::new(format!("waiting for worker {}: {e}", shard + 1)))?;
    if !status.success() {
        return Err(BackendError::new(format!(
            "worker {}/{shards} exited with {status}",
            shard + 1
        )));
    }
    let text = std::fs::read_to_string(save_path).map_err(|e| {
        BackendError::new(format!(
            "reading worker {} output {}: {e}",
            shard + 1,
            save_path.display()
        ))
    })?;
    crate::persist::load_cells_any(&text)
        .map_err(|e| BackendError::new(format!("worker {} output: {e}", shard + 1)))
}

/// Observer of completed cells (see [`Matrix::run_with_sink`]). Called from
/// worker threads, hence `Sync`; implementations serialise internally.
pub trait CellSink: Sync {
    /// One computed cell's report, delivered as soon as it exists.
    fn cell_complete(&self, key: &str, report: &RunReport);
}

/// Where a matrix run executes.
#[derive(Debug, Clone)]
pub enum Backend {
    /// The in-process worker pool (`jobs = 0` → one worker per hardware
    /// thread) — the default, and the execution layer every other backend
    /// bottoms out in.
    InProcess {
        /// Worker-pool size (`0` = auto).
        jobs: usize,
    },
    /// A coordinator spawning one worker subprocess per shard and merging
    /// their partial suites.
    Subprocess(SubprocessSpec),
    /// A coordinator distributing cells over networked worker daemons
    /// (`repro serve` instances) and streaming their results back — the
    /// scheduler and TCP transport live in the `sdiq-remote` crate.
    Remote(RemoteSpec),
}

/// The remote backend's launch hook: given the coordinator's matrix, the
/// spec, the seed and the streaming sink, distribute the missing cells and
/// assemble the sweep. `sdiq-remote` provides the implementation
/// (`sdiq_remote::backend` fills this in); keeping it a plain function
/// pointer keeps `sdiq-core` free of any transport code while letting
/// [`Matrix::run_on`] treat all backends uniformly.
pub type RemoteLaunch = fn(
    &Matrix<'_>,
    &RemoteSpec,
    &HashMap<String, RunReport>,
    Option<&dyn CellSink>,
) -> Result<Sweep, BackendError>;

/// The remote backend: which worker daemons to dial and how to describe
/// this matrix to them (see `sdiq-remote` for the wire protocol and the
/// fault-tolerant scheduler behind [`RemoteSpec::launch`]).
#[derive(Debug, Clone)]
pub struct RemoteSpec {
    /// Worker daemon addresses (`host:port`), one entry per worker.
    pub workers: Vec<String>,
    /// When set, the coordinator additionally listens for worker daemons
    /// that dial *it* (`repro serve --register`) and waits for this many
    /// registrations before scheduling — the NAT'd-fleet rendezvous.
    pub registration: Option<Registration>,
    /// The portable matrix description shipped to every worker, so a
    /// daemon that never saw this run's command line rebuilds the
    /// identical cell space. Must describe the same matrix `run_on` is
    /// called on — deriving both from one [`MatrixSpec`] guarantees it.
    pub spec: MatrixSpec,
    /// How many times a single cell may be re-queued after worker
    /// failures before the whole run aborts (guards against a cell that
    /// kills every worker it lands on).
    pub retry_budget: usize,
    /// How long one dial attempt may take before the worker counts as
    /// unreachable. Without this a single blackholed address stalls
    /// coordinator startup for the OS connect default (minutes).
    pub connect_timeout: Duration,
    /// Declare a worker dead after this much silence on its socket.
    /// Healthy daemons heartbeat every few seconds even mid-cell, so any
    /// silence past this deadline means the worker is hung (frozen OS,
    /// blackholed network) and its in-flight cells must re-queue.
    /// `Duration::ZERO` disables the deadline (reads block forever — the
    /// pre-liveness behaviour; only sensible for debugging).
    pub heartbeat_deadline: Duration,
    /// When the shared queue drains but cells are still in flight, let
    /// idle drivers speculatively re-issue straggler cells to their
    /// workers. First result wins; duplicates are benign because cell
    /// results are deterministic (MapReduce-style backup tasks).
    pub speculate: bool,
    /// Offer workers the compact binary frame codec at `Hello` time
    /// (workers that don't advertise it keep speaking JSON — the two
    /// codecs interoperate per connection). Off forces JSON everywhere,
    /// for debugging and for pricing the codecs against each other.
    pub binary_wire: bool,
    /// Per-worker pipelining window: how many cells the scheduler keeps
    /// outstanding on one connection so the worker never idles between
    /// batches. `0` means the default, 2× the worker's advertised
    /// capacity.
    pub pipeline_window: usize,
    /// Shared secret for the HMAC handshake. When set, every connection
    /// (dialed and registered) must prove knowledge of the key before
    /// any protocol frame; when unset, connections are unauthenticated
    /// (trusted networks only). Both sides must agree.
    pub auth_key: Option<String>,
    /// What observability the coordinator asks of the fleet (metrics
    /// piggybacked on heartbeats, span recording shipped back before
    /// `Done`). Strictly out-of-band: results are bit-identical whatever
    /// this says, and workers that predate the `obs1` capability simply
    /// never see the request.
    pub observe: ObserveSpec,
    /// The scheduler implementation (see [`RemoteLaunch`]).
    pub launch: RemoteLaunch,
}

/// What a run observes about itself (see `sdiq-obs`): live fleet metrics,
/// span tracing, or neither. Never affects results — only what gets
/// reported on stderr and what `--trace` writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObserveSpec {
    /// Workers report a compact metrics delta with every heartbeat and
    /// the coordinator aggregates per-worker rates.
    pub metrics: bool,
    /// Workers record spans and ship them back before `Done`, for the
    /// coordinator's Chrome-trace export.
    pub trace: bool,
}

/// Rendezvous configuration for worker self-registration: instead of the
/// coordinator dialing `host:port` workers, daemons behind NAT dial the
/// coordinator and announce themselves with a `Register` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// Address the coordinator binds for incoming registrations
    /// (`host:port`; port `0` picks a free one).
    pub listen: String,
    /// How many worker registrations to wait for before scheduling.
    pub expect: usize,
}

/// The subprocess backend's worker protocol.
///
/// For shard `k` of `n` (1-based), the coordinator invokes
///
/// ```text
/// <worker_exe> <worker_args...> --shard k/n --save <scratch_dir>/shard-k-of-n.json
///              [--checkpoint <stem>.shard-k-of-n]
/// ```
///
/// and expects the worker to (1) construct the *same* matrix the
/// coordinator holds from `worker_args` alone, (2) compute exactly the
/// cells [`shard_of`] assigns to shard `k−1`, (3) write them as a
/// cell-keyed save file (or checkpoint file) at the given path, and
/// (4) exit 0. `repro` implements this protocol; the coordinator verifies
/// it (exit status, key-space membership, full coverage of the merged
/// map) rather than trusting it.
#[derive(Debug, Clone)]
pub struct SubprocessSpec {
    /// The worker binary (normally `std::env::current_exe()`).
    pub worker_exe: PathBuf,
    /// Arguments that reproduce this matrix in the worker, *excluding* the
    /// `--shard`/`--save` pair the coordinator appends.
    pub worker_args: Vec<String>,
    /// Number of worker processes (= shards).
    pub shards: usize,
    /// Directory for the per-shard save files.
    pub scratch_dir: PathBuf,
    /// When set, each worker additionally gets
    /// `--checkpoint <stem>.shard-<k>-of-<n>` so its completed cells are
    /// crash-durable per cell (and the worker seeds itself from that file
    /// when the coordinator is re-run). `None` = workers don't checkpoint.
    pub worker_checkpoint_stem: Option<PathBuf>,
}

/// A failure of a distribution backend (worker spawn/dial, worker exit or
/// death, unreadable or protocol-violating worker output, a drained pool).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    message: String,
}

impl BackendError {
    /// Wraps a backend failure message (public so out-of-crate backends —
    /// the `sdiq-remote` scheduler — report through the same type).
    pub fn new(message: impl Into<String>) -> Self {
        BackendError {
            message: message.into(),
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix backend: {}", self.message)
    }
}

impl std::error::Error for BackendError {}

/// The shard a cell key belongs to, out of `count` shards: a stable
/// FNV-1a fingerprint of the key text, reduced mod `count`. Pure function
/// of `(key, count)` — every process computes the same partition, so a
/// worker needs no coordination to know which cells are its own.
///
/// # Panics
///
/// If `count` is zero.
pub fn shard_of(key: &str, count: usize) -> usize {
    assert!(count >= 1, "shard count must be at least 1");
    let mut hasher = Fnv1a::default();
    hasher.write(key.as_bytes());
    (hasher.finish() % count as u64) as usize
}

/// [`run_cell`] wrapped in the observability instrumentation shared by
/// both engine loops: the in-flight gauge, a traced `cell` span carrying
/// the cell key, and the per-cell counters/histogram (`sdiq-obs` metrics
/// are always on; the span is a no-op unless tracing was enabled).
/// Strictly out-of-band — the report is returned untouched, so results
/// are bit-identical with observability on or off.
fn observed_cell(
    experiment: &Experiment,
    cache: &ArtifactCache,
    variant: &ConfigVariant,
    key: &str,
    benchmark: Benchmark,
    technique: Technique,
) -> RunReport {
    let metrics = sdiq_obs::metrics();
    metrics.cells_in_flight.add(1);
    let started = std::time::Instant::now();
    let span = sdiq_obs::span("cell", "cell").map(|s| s.arg("key", key));
    let report = run_cell(experiment, cache, variant, benchmark, technique);
    drop(span);
    metrics.cells_in_flight.sub(1);
    metrics.cells_done.inc();
    metrics.sim_instructions.add(report.stats.committed);
    metrics
        .cell_wall_nanos
        .observe(started.elapsed().as_nanos() as u64);
    report
}

/// Runs one cell through the artifact cache: software techniques reuse the
/// cached compiler-pass output, hardware techniques run the shared built
/// program directly — no per-cell `Program` clone in either path. Under
/// the compiled backend (the default) the plan and the replay are cached
/// too: the trace and lowering happen once per (source, SimConfig) shape,
/// the cycle replay once per (plan, resize policy), and the cell itself
/// only prices the shared result under its technique.
///
/// A compile that [only annotates](crate::CompiledArtifact::annotates_only)
/// its input, run under a policy that ignores hints, replays exactly like
/// the source program. Its cell prices the source program's plan and
/// replay, with `committed_low_energy` — the one counter the marks change —
/// recounted for its own program by [`sdiq_sim::ExecPlan::low_energy_commits`].
fn run_cell(
    experiment: &Experiment,
    cache: &ArtifactCache,
    variant: &ConfigVariant,
    benchmark: Benchmark,
    technique: Technique,
) -> RunReport {
    let program_key = ProgramKey::new(benchmark, variant.scale);
    let source_and_compile =
        match technique.pass_config_for(variant.sim_config.widths, variant.sim_config.fu_counts) {
            Some(pass) => {
                let compile_key = CompileKey {
                    program: program_key,
                    pass,
                };
                let artifact = cache.compiled(compile_key);
                (PlanSource::Compiled(compile_key), Some(artifact))
            }
            None => (PlanSource::Program(program_key), None),
        };
    match experiment.backend {
        SimBackend::Compiled => {
            let (source, artifact) = source_and_compile;
            let policy = technique.resize_policy();
            let shares_source = !policy.uses_hints()
                && artifact
                    .as_ref()
                    .is_some_and(|artifact| artifact.annotates_only);
            let (plan, result) = cache.replayed(ReplayKey {
                plan: PlanKey {
                    source: if shares_source {
                        PlanSource::Program(program_key)
                    } else {
                        source
                    },
                    sim_config: variant.sim_config,
                    max_dynamic_instructions: experiment.max_dynamic_instructions,
                },
                policy,
            });
            let result = match &artifact {
                Some(artifact) if shares_source => {
                    let mut recounted = (*result).clone();
                    recounted.stats.committed_low_energy =
                        plan.low_energy_commits(&artifact.program);
                    Arc::new(recounted)
                }
                _ => result,
            };
            let (compile, hint_noops) = match artifact {
                Some(artifact) => (Some(artifact.stats.clone()), artifact.hint_noops_inserted),
                None => (None, 0),
            };
            experiment.price(benchmark.name(), technique, &result, compile, hint_noops)
        }
        SimBackend::Interpreted => match source_and_compile {
            (_, Some(artifact)) => experiment.run_prepared(
                &artifact.program,
                technique,
                variant.sim_config,
                Some(artifact.stats.clone()),
                artifact.hint_noops_inserted,
            ),
            (_, None) => {
                let program = cache.program(program_key);
                experiment.run_prepared(&program, technique, variant.sim_config, None, 0)
            }
        },
    }
}

/// The cache key of one cell: human-readable axes plus a fingerprint of
/// everything else the result depends on (simulator configuration, scale,
/// energy model, instruction budget). Loading a save file produced under a
/// different configuration therefore never aliases into the wrong cell.
pub fn cell_key(
    experiment: &Experiment,
    variant: &ConfigVariant,
    benchmark: Benchmark,
    technique: Technique,
) -> String {
    let mut hasher = Fnv1a::default();
    variant.sim_config.hash(&mut hasher);
    hasher.write_u64(variant.scale.to_bits());
    hasher.write_u64(experiment.max_dynamic_instructions);
    let energy = &experiment.energy_model;
    for field in [
        energy.iq_wakeup_comparison,
        energy.iq_write,
        energy.iq_read,
        energy.iq_selection_per_cycle,
        energy.iq_bank_leakage_per_cycle,
        energy.rf_access,
        energy.rf_bank_leakage_per_cycle,
    ] {
        hasher.write_u64(field.to_bits());
    }
    format!(
        "{}|{}|{}|{:016x}",
        benchmark.name(),
        technique.name(),
        variant.label,
        hasher.finish()
    )
}

/// FNV-1a, used for cell-key fingerprints because (unlike the std hasher)
/// its output is stable across processes — save files written by one run
/// must be readable by the next. The integer methods are overridden to
/// canonical little-endian 64-bit writes: the defaults use native byte
/// order and pointer width, which would make fingerprints differ across
/// architectures (derived `Hash` impls funnel `usize` fields and enum
/// discriminants through them).
#[derive(Debug)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u64(i as u8 as u64);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u64(i as u16 as u64);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u64(i as u32 as u64);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment() -> Experiment {
        Experiment {
            scale: 0.05,
            ..Experiment::paper()
        }
    }

    #[test]
    fn matrix_fills_every_cell_of_every_variant() {
        let exp = tiny_experiment();
        let sweep = Matrix::new(&exp)
            .benchmarks(&[Benchmark::Gzip, Benchmark::Mcf])
            .techniques(&[Technique::Baseline, Technique::Noop])
            .sweep_iq_entries(&[48])
            .jobs(2)
            .run();
        assert_eq!(sweep.len(), 2, "base + iq48");
        assert_eq!(sweep.variant(0).label, "base");
        assert_eq!(sweep.variant(1).label, "iq48");
        assert_eq!(sweep.variant(1).sim_config.iq.entries, 48);
        for (_, suite) in sweep.iter() {
            assert_eq!(suite.len(), 4);
        }
        assert!(sweep.suite_for("iq48").is_some());
        assert!(sweep.suite_for("iq64").is_none());
    }

    #[test]
    fn shrinking_the_queue_cannot_increase_committed_work() {
        let exp = tiny_experiment();
        let sweep = Matrix::new(&exp)
            .benchmarks(&[Benchmark::Gzip])
            .techniques(&[Technique::Baseline])
            .sweep_iq_entries(&[32])
            .run();
        let base = sweep.suite(0).get(Benchmark::Gzip, Technique::Baseline);
        let small = sweep.suite(1).get(Benchmark::Gzip, Technique::Baseline);
        let (base, small) = (base.unwrap(), small.unwrap());
        // Same program, same committed work; the smaller queue can only
        // cost cycles.
        assert_eq!(base.stats.committed, small.stats.committed);
        assert!(small.stats.cycles >= base.stats.cycles);
        assert_eq!(small.stats.iq_total_entries, 32);
    }

    #[test]
    fn cell_keys_distinguish_configuration_content_not_just_labels() {
        let exp = tiny_experiment();
        let mut renamed = ConfigVariant::with_iq_entries(&exp, 48);
        renamed.label = "base".to_string(); // masquerade as the base label
        let base = ConfigVariant::base(&exp);
        let a = cell_key(&exp, &base, Benchmark::Gzip, Technique::Noop);
        let b = cell_key(&exp, &renamed, Benchmark::Gzip, Technique::Noop);
        assert_ne!(a, b, "fingerprint catches the different machine");
        // And the key is stable across calls (it seeds save files).
        assert_eq!(a, cell_key(&exp, &base, Benchmark::Gzip, Technique::Noop));
    }

    #[test]
    fn seeded_cells_are_returned_verbatim_without_recomputation() {
        let exp = tiny_experiment();
        let matrix = Matrix::new(&exp)
            .benchmarks(&[Benchmark::Gzip])
            .techniques(&[Technique::Baseline, Technique::NonEmpty]);
        let sweep = matrix.run();
        let cells = matrix.collect_cells(&sweep);
        assert_eq!(cells.len(), 2);
        let cache = ArtifactCache::new();
        let seeded: HashMap<String, RunReport> = cells.into_iter().collect();
        let again = matrix.run_with(&cache, &seeded);
        assert_eq!(sweep, again, "seeded run reproduces the original");
        assert_eq!(cache.program_builds(), 0, "nothing was rebuilt");
    }

    /// A loop whose preheader is a lone jump: the preheader gets both a
    /// block-entry and a loop-preheader hint, so tagging must move one of
    /// them onto a fallback hint NOOP. Named after the benchmark row it
    /// stands in for, so its reports label like that row's.
    fn jump_only_preheader_program(name: &str) -> sdiq_isa::Program {
        use sdiq_isa::builder::ProgramBuilder;
        use sdiq_isa::reg::int_reg;
        let mut b = ProgramBuilder::new();
        b.name(name);
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let pre = p.block();
            let body = p.block();
            let exit = p.block();
            p.with_block(pre, |bb| {
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                bb.addi(int_reg(2), int_reg(2), 3);
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), 50, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(pre);
        }
        b.finish(main).expect("hand-built loop program is valid")
    }

    /// Sharing the source program's replay is decided by the compile's
    /// content, not by its emission kind: a fixed-policy tagging
    /// technique whose output gained a fallback hint NOOP gets its own
    /// plan and replay, while the same technique over a program it only
    /// annotates shares the source's. Both cells equal their one-shot run.
    #[test]
    fn a_tagging_compile_that_inserts_a_noop_gets_its_own_replay() {
        use crate::technique::{TechniqueRegistry, TechniqueSpec};
        use sdiq_compiler::PassConfig;
        let toy = TechniqueRegistry::register(TechniqueSpec {
            name: "test-toy-fixed-tagging",
            pass_config: Some(PassConfig::low_energy_encoding()),
            ..Technique::LowenIsa.spec()
        })
        .expect("unique name registers");
        assert!(!toy.resize_policy().uses_hints());
        let exp = tiny_experiment();
        let key = ProgramKey::new(Benchmark::Gzip, exp.scale);
        let compile_key = CompileKey {
            program: key,
            pass: toy
                .pass_config_for(exp.sim_config.widths, exp.sim_config.fu_counts)
                .expect("toy technique declares a pass"),
        };
        let matrix = Matrix::new(&exp)
            .benchmarks(&[Benchmark::Gzip])
            .techniques(&[Technique::Baseline, toy]);
        let zeroed = |mut report: RunReport| {
            if let Some(compile) = &mut report.compile {
                compile.total_duration = Duration::ZERO;
                for procedure in &mut compile.per_procedure {
                    procedure.duration = Duration::ZERO;
                }
            }
            report
        };

        let program = jump_only_preheader_program(Benchmark::Gzip.name());
        let cache = ArtifactCache::new();
        cache.seed_program(key, program.clone());
        let suite = matrix.run_with(&cache, &HashMap::new()).into_suite();
        let artifact = cache.compiled(compile_key);
        assert!(artifact.hint_noops_inserted > 0, "the fallback NOOP fired");
        assert!(!artifact.annotates_only);
        assert_eq!(cache.plan_builds(), 2, "its own plan");
        assert_eq!(cache.replay_runs(), 2, "its own replay");
        let report = suite.get(Benchmark::Gzip, toy).expect("toy cell ran");
        assert!(report.stats.committed_hints > 0);
        assert!(report.stats.committed_low_energy > 0);
        assert_eq!(report, &zeroed(exp.run_program(&program, toy)));

        let program = Benchmark::Gzip.build_scaled(exp.scale);
        let cache = ArtifactCache::new();
        let suite = matrix.run_with(&cache, &HashMap::new()).into_suite();
        assert!(cache.compiled(compile_key).annotates_only);
        assert_eq!(cache.plan_builds(), 1, "the source program's plan");
        assert_eq!(cache.replay_runs(), 1, "the source program's replay");
        let report = suite.get(Benchmark::Gzip, toy).expect("toy cell ran");
        assert!(report.stats.committed_low_energy > 0);
        assert_eq!(report, &zeroed(exp.run_program(&program, toy)));
    }
}
