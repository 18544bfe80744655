//! Content-addressed artifact cache shared by every cell of an experiment
//! matrix.
//!
//! A (benchmark × technique × configuration) sweep re-uses four expensive,
//! fully deterministic artifacts across many cells, each keyed by exactly
//! its true inputs:
//!
//! * the **built program** ([`ProgramKey`]) — a function of
//!   `(benchmark, scale)` only: every technique and every `SimConfig`
//!   variant at the same scale starts from the same synthetic program,
//! * the **compiler-pass output** ([`CompileKey`]) — a function of
//!   `(program, PassConfig)` only: the software techniques differ per pass
//!   configuration, not per simulator configuration (unless the sweep
//!   changes the machine widths the pass targets, which changes the
//!   `PassConfig` and therefore the key),
//! * the **execution plan** ([`PlanKey`]) — the program (raw or compiled)
//!   traced and lowered under one `SimConfig`, and
//! * the **replay** ([`ReplayKey`]) — the [`SimResult`] of one plan under
//!   one [`ResizePolicy`]. Techniques that differ only in how activity is
//!   priced (`baseline`, `nonEmpty` and `way-memo` all run the fixed
//!   policy over the source program) share one replay, so a cell reduces
//!   to pricing once its replay exists.
//!
//! A compile that only annotates its input — hint tags and low-energy
//! marks, nothing else ([`CompiledArtifact::annotates_only`]) — has the
//! source program's timing under any policy that ignores hints, so the
//! engine prices such a cell (`lowen-isa`) from the source program's plan
//! and replay.
//!
//! The cache hands out `Arc`-shared handles, so the default 11 × 8 suite
//! builds each program once, runs each compiler pass once, lowers 44 plans
//! and replays 55 (plan, policy) pairs for its 88 cells; an 11 × 8 × K
//! sweep repeats that per configuration variant.
//!
//! # Determinism
//!
//! Cached content is a *pure function of its key*. Wall-clock compile
//! durations are not content, so they are zeroed in the cached
//! [`CompileStats`]; this is what makes a parallel matrix run bit-identical
//! to a serial one (the engine's hard guarantee). Timing measurement
//! belongs to [`crate::Experiment::compile_times`], which deliberately
//! bypasses the cache.
//!
//! # Concurrency
//!
//! Each key maps to a [`OnceLock`] slot: the first worker to reach a key
//! runs the build, any concurrent worker blocks on the same slot and
//! receives the same `Arc` — an artifact is never computed twice, which
//! the instrumented [`ArtifactCache::program_builds`] /
//! [`ArtifactCache::compile_runs`] / [`ArtifactCache::plan_builds`] /
//! [`ArtifactCache::replay_runs`] counters let tests assert exactly. Every
//! lookup counts as exactly one `cache_*_hits` or `cache_*_misses` in the
//! `sdiq-obs` registry (a worker that waited on a slot another worker was
//! filling counts a hit), so the counts are the same for any worker count.

use sdiq_compiler::{CompileStats, CompilerPass, PassConfig};
use sdiq_isa::{Executor, Program};
use sdiq_obs::{Counter, Histogram};
use sdiq_sim::{ExecPlan, PlanSimulator, ResizePolicy, SimConfig, SimResult};
use sdiq_verify::{has_errors, lint_plan, verify_compiled, Severity, StandardVerifier};
use sdiq_workloads::Benchmark;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Content address of one built benchmark program: the benchmark plus the
/// exact bit pattern of the scale factor (quantising would alias distinct
/// workload lengths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    /// The benchmark whose synthetic analogue is built.
    pub benchmark: Benchmark,
    scale_bits: u64,
}

impl ProgramKey {
    /// Key for `benchmark` built at `scale`.
    pub fn new(benchmark: Benchmark, scale: f64) -> Self {
        ProgramKey {
            benchmark,
            scale_bits: scale.to_bits(),
        }
    }

    /// The scale factor this key addresses.
    pub fn scale(&self) -> f64 {
        f64::from_bits(self.scale_bits)
    }
}

/// Content address of one compiler-pass output: the program it ran over
/// plus the full pass configuration (machine widths, functional units,
/// emission kind, inter-procedural flag, advertised floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileKey {
    /// The input program.
    pub program: ProgramKey,
    /// The pass configuration.
    pub pass: PassConfig,
}

/// A cached compiler-pass output: the annotated program plus the
/// deterministic parts of the compile statistics.
#[derive(Debug)]
pub struct CompiledArtifact {
    /// The annotated program, shared across every cell with this key.
    pub program: Arc<Program>,
    /// Compile statistics with wall-clock durations zeroed (see the module
    /// docs: cached content is a pure function of the key).
    pub stats: CompileStats,
    /// Special NOOPs present in the annotated program.
    pub hint_noops_inserted: usize,
    /// `true` if the pass only annotated its input: the output equals the
    /// input once `iq_hint` tags and `low_energy` marks are ignored
    /// ([`Program::differs_only_in_annotations`]). Checked once, by
    /// content, when the artifact is built — a tagging pass can still
    /// insert fallback hint NOOPs, so the emission kind alone never
    /// decides it.
    pub annotates_only: bool,
}

/// The program an execution plan is lowered from: either the raw built
/// benchmark (hardware techniques) or a compiler-pass output (software
/// techniques). Both are themselves cache keys, so a plan key is a pure
/// content address all the way down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanSource {
    /// The built benchmark program, unannotated.
    Program(ProgramKey),
    /// The output of a compiler pass over the built program.
    Compiled(CompileKey),
}

/// Content address of one lowered [`ExecPlan`]: the exact program it
/// replays, the full simulator configuration it was lowered under (plan
/// contents bake in cache geometry, predictor behaviour and decode
/// timing), and the instruction budget bounding its trace.
///
/// The resize policy is deliberately **absent**: nothing in a plan depends
/// on it, so one plan serves every policy replayed over that program and
/// machine (each (plan, policy) pair is then a [`ReplayKey`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The program the plan replays.
    pub source: PlanSource,
    /// The machine configuration the plan was lowered for.
    pub sim_config: SimConfig,
    /// The dynamic-instruction cap used when tracing the program.
    pub max_dynamic_instructions: u64,
}

/// Content address of one cycle replay: a plan and the resize policy it is
/// replayed under. These are a replay's only inputs — the technique's
/// wakeup scheme, bank gating and energy models act later, when the
/// [`SimResult`] is priced — so techniques sharing a plan and a policy
/// share one replay. The policy compares and hashes exactly (adaptive
/// parameters by `f64` bit pattern), so distinct configurations never
/// alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplayKey {
    /// The plan replayed.
    pub plan: PlanKey,
    /// The resize policy the replay runs with.
    pub policy: ResizePolicy,
}

/// The shared artifact cache. One instance serves a whole sweep; creating
/// it is free, so ad-hoc callers can also pass a fresh one per run.
///
/// # Verification
///
/// When [`ArtifactCache::set_verify`] is on (the default in debug builds
/// and under `cargo test`; release matrix runs leave it off unless
/// `--verify` is passed), every cached artifact is statically verified
/// **once**, at the moment it is first built: compiles run through the
/// pass manager with the inter-pass [`StandardVerifier`] plus the full
/// `sdiq_verify::verify_compiled` suite, and lowered plans are
/// cross-checked against their source program and trace with
/// `sdiq_verify::lint_plan`. Replays are not verified: they are the
/// simulator's output, checked against the interpreted oracle by the
/// differential tests instead. A failed check is a logic error in this
/// repository, not a user error, so it panics with the full diagnostic
/// listing. Because verification happens inside the [`OnceLock`]
/// initialiser, a sweep touching the same key a thousand times pays for
/// the check exactly once.
#[derive(Debug)]
pub struct ArtifactCache {
    programs: Mutex<HashMap<ProgramKey, Arc<OnceLock<Arc<Program>>>>>,
    compiles: Mutex<HashMap<CompileKey, Arc<OnceLock<Arc<CompiledArtifact>>>>>,
    plans: Mutex<HashMap<PlanKey, Arc<OnceLock<Arc<ExecPlan>>>>>,
    replays: Mutex<HashMap<ReplayKey, Arc<OnceLock<Arc<SimResult>>>>>,
    program_builds: AtomicU64,
    compile_runs: AtomicU64,
    plan_builds: AtomicU64,
    replay_runs: AtomicU64,
    verify: AtomicBool,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache {
            programs: Mutex::default(),
            compiles: Mutex::default(),
            plans: Mutex::default(),
            replays: Mutex::default(),
            program_builds: AtomicU64::new(0),
            compile_runs: AtomicU64::new(0),
            plan_builds: AtomicU64::new(0),
            replay_runs: AtomicU64::new(0),
            verify: AtomicBool::new(cfg!(debug_assertions)),
        }
    }
}

/// The artifact for `key`, running `build` exactly once per key and
/// counting this lookup as one hit or one miss: a miss if this call ran
/// `build` (counted before it starts), a hit otherwise — also when the
/// call waited on a slot another worker was filling, so the counts do not
/// depend on the worker count. The map lock is held only for the slot
/// lookup, never across a build. A poisoned map lock is recovered: the
/// critical section is a pure `HashMap` entry lookup, which cannot leave
/// the map inconsistent.
fn fetch<K: Eq + Hash + Copy, V: Clone>(
    map: &Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    key: K,
    hits: &Counter,
    misses: &Counter,
    build: impl FnOnce() -> V,
) -> V {
    let slot = map
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(key)
        .or_default()
        .clone();
    let mut built = false;
    let value = slot
        .get_or_init(|| {
            built = true;
            misses.inc();
            build()
        })
        .clone();
    if !built {
        hits.inc();
    }
    value
}

/// Runs one stage of an artifact build under its own span (nested in the
/// span of the cell or cache miss that needed it) and records its wall
/// time in `histogram`.
fn stage<T>(name: &'static str, histogram: &Histogram, work: impl FnOnce() -> T) -> T {
    let _span = sdiq_obs::span(name, "cache");
    let start = Instant::now();
    let out = work();
    histogram.observe(start.elapsed().as_nanos() as u64);
    out
}

impl ArtifactCache {
    /// Creates an empty cache. Verification defaults to on in debug builds
    /// (and therefore under `cargo test`) and off in release builds.
    pub fn new() -> Self {
        ArtifactCache::default()
    }

    /// Turns per-artifact static verification on or off (see the type-level
    /// docs). Takes effect for artifacts not yet built; already-cached
    /// artifacts are not re-checked.
    pub fn set_verify(&self, on: bool) {
        self.verify.store(on, Ordering::Relaxed);
    }

    /// Whether artifacts built by this cache are statically verified.
    pub fn verify_enabled(&self) -> bool {
        self.verify.load(Ordering::Relaxed)
    }

    /// The program for `key`, building it exactly once per key.
    pub fn program(&self, key: ProgramKey) -> Arc<Program> {
        let metrics = sdiq_obs::metrics();
        fetch(
            &self.programs,
            key,
            &metrics.cache_program_hits,
            &metrics.cache_program_misses,
            || {
                let _span = sdiq_obs::span("build-program", "cache");
                self.program_builds.fetch_add(1, Ordering::Relaxed);
                key.benchmark.build_scaled_shared(key.scale())
            },
        )
    }

    /// Stores `program` as the built program for `key`, so a hand-built
    /// program the workload generator never produces can stand in for a
    /// benchmark row of a matrix. Must precede any lookup of `key`.
    #[cfg(test)]
    pub(crate) fn seed_program(&self, key: ProgramKey, program: Program) {
        let slot = OnceLock::new();
        let _ = slot.set(Arc::new(program));
        let previous = self
            .programs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, Arc::new(slot));
        assert!(previous.is_none(), "program for {key:?} already cached");
    }

    /// The compiler-pass output for `key`, running the pass exactly once
    /// per key (building the input program through the cache if needed).
    pub fn compiled(&self, key: CompileKey) -> Arc<CompiledArtifact> {
        let input = self.program(key.program);
        let metrics = sdiq_obs::metrics();
        fetch(
            &self.compiles,
            key,
            &metrics.cache_compile_hits,
            &metrics.cache_compile_misses,
            || {
                let _span = sdiq_obs::span("compile", "cache");
                self.compile_runs.fetch_add(1, Ordering::Relaxed);
                let compiled = if self.verify_enabled() {
                    let compiled = match CompilerPass::new(key.pass)
                        .run_verified(&input, Box::new(StandardVerifier))
                    {
                        Ok(compiled) => compiled,
                        Err(err) => panic!(
                            "compile of `{}` failed inter-pass verification: {err}",
                            key.program.benchmark.name()
                        ),
                    };
                    let errors: Vec<String> = verify_compiled(&compiled)
                        .into_iter()
                        .filter(|d| d.severity == Severity::Error)
                        .map(|d| d.to_string())
                        .collect();
                    if !errors.is_empty() {
                        panic!(
                            "compiled artifact for `{}` failed verification:\n  {}",
                            key.program.benchmark.name(),
                            errors.join("\n  ")
                        );
                    }
                    compiled
                } else {
                    CompilerPass::new(key.pass).run(&input)
                };
                let mut stats = compiled.stats;
                stats.total_duration = Duration::ZERO;
                for proc_stats in &mut stats.per_procedure {
                    proc_stats.duration = Duration::ZERO;
                }
                let hint_noops_inserted = stats.hint_noops_inserted;
                let annotates_only = input.differs_only_in_annotations(&compiled.program);
                Arc::new(CompiledArtifact {
                    program: Arc::new(compiled.program),
                    stats,
                    hint_noops_inserted,
                    annotates_only,
                })
            },
        )
    }

    /// The execution plan for `key`, lowering it exactly once per key
    /// (building the source program — and running its compiler pass, for
    /// [`PlanSource::Compiled`] — through the cache if needed). The
    /// functional execution producing the trace happens here too: the
    /// trace is consumed by the lowering and never stored.
    pub fn planned(&self, key: PlanKey) -> Arc<ExecPlan> {
        let program = match key.source {
            PlanSource::Program(program) => self.program(program),
            PlanSource::Compiled(compile) => self.compiled(compile).program.clone(),
        };
        let metrics = sdiq_obs::metrics();
        fetch(
            &self.plans,
            key,
            &metrics.cache_plan_hits,
            &metrics.cache_plan_misses,
            || {
                let _span = sdiq_obs::span("lower-plan", "cache");
                self.plan_builds.fetch_add(1, Ordering::Relaxed);
                let trace = stage("execute", &metrics.plan_execute_nanos, || {
                    Executor::new(&program).run(key.max_dynamic_instructions)
                });
                let trace = match trace {
                    Ok(trace) => trace,
                    Err(fault) => panic!("workload must execute cleanly, faulted with {fault:?}"),
                };
                let plan = stage("lower", &metrics.plan_lower_nanos, || {
                    ExecPlan::build(key.sim_config, &program, &trace)
                });
                if self.verify_enabled() {
                    let diags = stage("lint-plan", &metrics.plan_lint_nanos, || {
                        lint_plan(&plan, &program, &trace)
                    });
                    if has_errors(&diags) {
                        let listing: Vec<String> = diags.iter().map(ToString::to_string).collect();
                        panic!("execution plan failed lint:\n  {}", listing.join("\n  "));
                    }
                }
                Arc::new(plan)
            },
        )
    }

    /// The cycle replay for `key`, running it exactly once per key
    /// (lowering the plan through the cache if needed), with the plan it
    /// replayed. Each technique's cell then only prices the shared
    /// [`SimResult`].
    pub fn replayed(&self, key: ReplayKey) -> (Arc<ExecPlan>, Arc<SimResult>) {
        let plan = self.planned(key.plan);
        let metrics = sdiq_obs::metrics();
        let result = fetch(
            &self.replays,
            key,
            &metrics.cache_replay_hits,
            &metrics.cache_replay_misses,
            || {
                self.replay_runs.fetch_add(1, Ordering::Relaxed);
                let result = stage("replay", &metrics.replay_nanos, || {
                    PlanSimulator::new(&plan, key.policy).run()
                });
                match result {
                    Ok(result) => Arc::new(result),
                    Err(err) => {
                        panic!("simulation must complete over a committed trace: {err:?}")
                    }
                }
            },
        );
        (plan, result)
    }

    /// Number of programs actually built (one per unique [`ProgramKey`]
    /// requested, regardless of concurrency).
    pub fn program_builds(&self) -> u64 {
        self.program_builds.load(Ordering::Relaxed)
    }

    /// Number of compiler-pass executions (one per unique [`CompileKey`]
    /// requested, regardless of concurrency).
    pub fn compile_runs(&self) -> u64 {
        self.compile_runs.load(Ordering::Relaxed)
    }

    /// Number of execution plans lowered (one per unique [`PlanKey`]
    /// requested, regardless of concurrency).
    pub fn plan_builds(&self) -> u64 {
        self.plan_builds.load(Ordering::Relaxed)
    }

    /// Number of cycle replays run (one per unique [`ReplayKey`]
    /// requested, regardless of concurrency).
    pub fn replay_runs(&self) -> u64 {
        self.replay_runs.load(Ordering::Relaxed)
    }
}

/// Verdict of [`ResultStore::insert`]: what a delivered cell report turned
/// out to be relative to what the store already holds for its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stored {
    /// First report for this key — stored.
    New,
    /// A byte-identical copy of the report already held for this key
    /// (speculative double-issue, a retried cell, overlapping clients) —
    /// recognised by fingerprint in O(1) and not stored again.
    DuplicateIdentical,
    /// A *different* report for an already-completed key — the
    /// determinism contract is broken and the caller must treat the run
    /// as poisoned.
    DuplicateDivergent,
}

/// Content-addressed store of completed cell reports.
///
/// The remote scheduler can legitimately receive the same cell more than
/// once (speculation issues straggler cells twice, a re-queued batch can
/// race its original, overlapping clients can submit the same spec), and
/// distinct cells routinely produce byte-identical reports (every
/// benchmark's `baseline` vs `nonEmpty` at the same config, for one).
/// This store keys reports two ways:
///
/// * **by cell key** — the result map callers ultimately want, and
/// * **by content fingerprint** ([`crate::persist_bin::report_fingerprint`],
///   FNV-1a over the canonical binary encoding) — so a duplicate delivery
///   is judged identical-or-divergent by a single `u64` compare instead
///   of a deep structural walk, and byte-identical reports are stored
///   once and `Arc`-shared across all their keys.
#[derive(Debug, Default)]
pub struct ResultStore {
    by_key: HashMap<String, (u64, Arc<crate::runner::RunReport>)>,
    by_fingerprint: HashMap<u64, Arc<crate::runner::RunReport>>,
}

impl ResultStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ResultStore::default()
    }

    /// Records `report` for `key`, deduplicating by content fingerprint.
    /// See [`Stored`] for the three outcomes; only [`Stored::New`] stores
    /// anything (and even then the bytes are shared if some other key
    /// already holds an identical report).
    pub fn insert(&mut self, key: &str, report: &crate::runner::RunReport) -> Stored {
        let fingerprint = crate::persist_bin::report_fingerprint(report);
        if let Some((existing, held)) = self.by_key.get(key) {
            return if *existing == fingerprint {
                debug_assert_eq!(
                    **held, *report,
                    "fingerprint collision between distinct reports for key `{key}`"
                );
                Stored::DuplicateIdentical
            } else {
                Stored::DuplicateDivergent
            };
        }
        let shared = self
            .by_fingerprint
            .entry(fingerprint)
            .or_insert_with(|| Arc::new(report.clone()))
            .clone();
        debug_assert_eq!(
            *shared, *report,
            "fingerprint collision between distinct reports"
        );
        self.by_key.insert(key.to_string(), (fingerprint, shared));
        Stored::New
    }

    /// `true` if a report has been recorded for `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.by_key.contains_key(key)
    }

    /// The report recorded for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&crate::runner::RunReport> {
        self.by_key.get(key).map(|(_, report)| &**report)
    }

    /// Number of keys with a recorded report.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// `true` if no report has been recorded.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Number of *distinct* report payloads held (≤ [`ResultStore::len`];
    /// the gap is what deduplication saved).
    pub fn unique_reports(&self) -> usize {
        self.by_fingerprint.len()
    }

    /// Consumes the store into the plain `key → report` map the engine
    /// merges with its seed (shared payloads are unshared here, at the
    /// one point a private copy per key is actually required).
    pub fn into_cells(self) -> HashMap<String, crate::runner::RunReport> {
        self.by_key
            .into_iter()
            .map(|(key, (_, report))| {
                let report = Arc::try_unwrap(report).unwrap_or_else(|shared| (*shared).clone());
                (key, report)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_is_built_once_per_key_and_shared() {
        let cache = ArtifactCache::new();
        let key = ProgramKey::new(Benchmark::Gzip, 0.05);
        let a = cache.program(key);
        let b = cache.program(key);
        assert!(Arc::ptr_eq(&a, &b), "same handle");
        assert_eq!(cache.program_builds(), 1);
        // A different scale is a different artifact.
        let c = cache.program(ProgramKey::new(Benchmark::Gzip, 0.1));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.program_builds(), 2);
    }

    #[test]
    fn compile_is_run_once_per_pass_config() {
        use crate::technique::Technique;
        let cache = ArtifactCache::new();
        let program = ProgramKey::new(Benchmark::Mcf, 0.05);
        let noop = Technique::Noop.pass_config().unwrap();
        let tagging = Technique::Extension.pass_config().unwrap();
        let a = cache.compiled(CompileKey {
            program,
            pass: noop,
        });
        let b = cache.compiled(CompileKey {
            program,
            pass: noop,
        });
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.compiled(CompileKey {
            program,
            pass: tagging,
        });
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.compile_runs(), 2);
        // The input program was built once, through the cache.
        assert_eq!(cache.program_builds(), 1);
        assert!(a.hint_noops_inserted > 0, "noop pass inserts hints");
        assert_eq!(c.hint_noops_inserted, 0, "tagging pass does not");
        // Inserted NOOPs change the program; tags alone only annotate it.
        assert!(!a.annotates_only);
        assert!(c.annotates_only);
    }

    #[test]
    fn cached_compile_stats_are_deterministic_content() {
        use crate::technique::Technique;
        let key = CompileKey {
            program: ProgramKey::new(Benchmark::Gzip, 0.05),
            pass: Technique::Noop.pass_config().unwrap(),
        };
        let a = ArtifactCache::new().compiled(key);
        let b = ArtifactCache::new().compiled(key);
        assert_eq!(a.stats, b.stats, "durations zeroed → stats bit-identical");
        assert_eq!(a.program, b.program);
        assert_eq!(a.stats.total_duration, Duration::ZERO);
    }

    #[test]
    fn plan_is_lowered_once_per_key_and_shared() {
        let cache = ArtifactCache::new();
        let key = PlanKey {
            source: PlanSource::Program(ProgramKey::new(Benchmark::Gzip, 0.05)),
            sim_config: SimConfig::hpca2005(),
            max_dynamic_instructions: 2_000_000,
        };
        let a = cache.planned(key);
        let b = cache.planned(key);
        assert!(Arc::ptr_eq(&a, &b), "same handle");
        assert_eq!(cache.plan_builds(), 1);
        assert_eq!(cache.program_builds(), 1, "program built through the cache");
        // A different machine configuration is a different plan over the
        // same built program.
        let c = cache.planned(PlanKey {
            sim_config: SimConfig::small_for_tests(),
            ..key
        });
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.plan_builds(), 2);
        assert_eq!(cache.program_builds(), 1);
    }

    fn gzip_plan() -> PlanKey {
        PlanKey {
            source: PlanSource::Program(ProgramKey::new(Benchmark::Gzip, 0.05)),
            sim_config: SimConfig::hpca2005(),
            max_dynamic_instructions: 2_000_000,
        }
    }

    #[test]
    fn replay_is_run_once_per_key_and_shared() {
        let cache = ArtifactCache::new();
        let key = ReplayKey {
            plan: gzip_plan(),
            policy: ResizePolicy::Fixed,
        };
        let (_, a) = cache.replayed(key);
        let (_, b) = cache.replayed(key);
        assert!(Arc::ptr_eq(&a, &b), "same handle");
        assert_eq!(cache.replay_runs(), 1);
        assert_eq!(cache.plan_builds(), 1, "plan lowered through the cache");
        // Another policy over the same plan is another replay, not another
        // plan.
        let (_, hinted) = cache.replayed(ReplayKey {
            policy: ResizePolicy::SoftwareHint,
            ..key
        });
        assert!(!Arc::ptr_eq(&a, &hinted));
        assert_eq!(cache.replay_runs(), 2);
        assert_eq!(cache.plan_builds(), 1);
    }

    /// The policy is keyed exactly: two adaptive configurations that
    /// differ in one float field get their own slots and their own
    /// results.
    #[test]
    fn adaptive_configs_differing_only_in_threshold_do_not_alias() {
        use sdiq_sim::AdaptiveConfig;
        let cache = ArtifactCache::new();
        // Short intervals, so the small workload crosses many boundaries.
        let replay = |threshold: f64| {
            cache
                .replayed(ReplayKey {
                    plan: gzip_plan(),
                    policy: ResizePolicy::Adaptive(AdaptiveConfig {
                        interval_cycles: 100,
                        youngest_contribution_threshold: threshold,
                        ..AdaptiveConfig::iqrob64()
                    }),
                })
                .1
        };
        let paper = replay(0.05);
        let eager = replay(0.5);
        assert_eq!(cache.replay_runs(), 2, "distinct slots");
        assert_ne!(*paper, *eager, "distinct results");
        assert!(Arc::ptr_eq(&paper, &replay(0.05)));
        assert_eq!(cache.replay_runs(), 2);
    }

    #[test]
    fn compiled_source_plans_lower_the_annotated_program() {
        use crate::technique::Technique;
        let cache = ArtifactCache::new();
        let program = ProgramKey::new(Benchmark::Gzip, 0.05);
        let compile = CompileKey {
            program,
            pass: Technique::Noop.pass_config().unwrap(),
        };
        let annotated = cache.planned(PlanKey {
            source: PlanSource::Compiled(compile),
            sim_config: SimConfig::hpca2005(),
            max_dynamic_instructions: 2_000_000,
        });
        let raw = cache.planned(PlanKey {
            source: PlanSource::Program(program),
            sim_config: SimConfig::hpca2005(),
            max_dynamic_instructions: 2_000_000,
        });
        assert_eq!(cache.compile_runs(), 1);
        assert_eq!(cache.plan_builds(), 2);
        // The annotated program carries the inserted hint NOOPs; the raw
        // one does not — the two sources must not alias.
        assert!(annotated.len() > raw.len());
    }

    #[test]
    fn concurrent_requests_build_exactly_once() {
        let cache = ArtifactCache::new();
        let key = ProgramKey::new(Benchmark::Vortex, 0.05);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| cache.program(key));
            }
        });
        assert_eq!(cache.program_builds(), 1);
    }

    #[test]
    fn result_store_dedups_identical_reports_and_flags_divergence() {
        use crate::runner::Experiment;
        use crate::technique::Technique;
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        let baseline = exp.run(Benchmark::Gzip, Technique::Baseline);
        let noop = exp.run(Benchmark::Gzip, Technique::Noop);
        assert_ne!(baseline, noop);

        let mut store = ResultStore::new();
        assert_eq!(store.insert("k1", &baseline), Stored::New);
        // Same key, same bytes: recognised, not re-stored.
        assert_eq!(store.insert("k1", &baseline), Stored::DuplicateIdentical);
        // Same key, different bytes: determinism violation.
        assert_eq!(store.insert("k1", &noop), Stored::DuplicateDivergent);
        // Different key, identical bytes: stored once, shared.
        assert_eq!(store.insert("k2", &baseline), Stored::New);
        assert_eq!(store.insert("k3", &noop), Stored::New);
        assert_eq!(store.len(), 3);
        assert_eq!(store.unique_reports(), 2);
        assert!(store.contains("k2"));
        assert_eq!(store.get("k1"), Some(&baseline));

        let cells = store.into_cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells["k1"], baseline);
        assert_eq!(cells["k2"], baseline);
        assert_eq!(cells["k3"], noop);
    }
}
