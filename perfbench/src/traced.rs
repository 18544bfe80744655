//! The traced run: the same cells as the engine run, with the benchmark
//! itself calling each layer's public functions and wrapping one
//! `sdiq-obs` span around every call, nested under a `cell` span that
//! carries the cell key.
//!
//! Reuse mirrors the engine's artifact cache: a program is built once per
//! (benchmark, scale), a compiler pass runs once per (program, pass
//! configuration), and a trace is executed and lowered once per (source
//! program, machine configuration); every cell of that shape replays the
//! shared plan. Per-layer times are span self times.
//!
//! Work the engine does not do on a workload is priced after the traced
//! window closes, so it never inflates the traced wall: the interpreted
//! oracle (one run per plan, which doubles as a differential check of the
//! replay), verification outside `sweep`, and the wire codecs outside
//! `fleet`.

use crate::host;
use crate::spans;
use crate::workload::{Kind, Workload};
use sdiq_compiler::{CompileStats, CompiledProgram, CompilerPass};
use sdiq_core::persist::Json;
use sdiq_core::{
    cell_key, persist, CompileKey, ConfigVariant, Experiment, PlanKey, PlanSource, ProgramKey,
    RunReport, Technique,
};
use sdiq_isa::{Executor, Program, Trace};
use sdiq_obs::{span, TraceEvent};
use sdiq_power::PowerBreakdown;
use sdiq_remote::binary;
use sdiq_remote::protocol::Message;
use sdiq_sim::{ExecPlan, PlanSimulator, ResizePolicy, Simulator};
use sdiq_verify::{has_errors, lint_plan, verify_compiled, StandardVerifier};
use sdiq_workloads::Benchmark;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Build-once slots keyed by content, counting requests and builds.
struct Slots<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    requests: AtomicU64,
    builds: AtomicU64,
}

impl<K: Eq + Hash + Copy, V: Clone> Slots<K, V> {
    fn new() -> Self {
        Slots {
            map: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    fn get(&self, key: K, build: impl FnOnce() -> V) -> V {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let slot = self
            .map
            .lock()
            .expect("slot lookups never panic while locked")
            .entry(key)
            .or_default()
            .clone();
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            build()
        })
        .clone()
    }

    fn hit_rate(&self) -> f64 {
        let requests = self.requests.load(Ordering::Relaxed);
        let builds = self.builds.load(Ordering::Relaxed);
        (requests - builds) as f64 / requests.max(1) as f64
    }

    /// The built value for `key`, without counting a request.
    fn peek(&self, key: K) -> Option<V> {
        let map = self
            .map
            .lock()
            .expect("slot lookups never panic while locked");
        map.get(&key).and_then(|slot| slot.get().cloned())
    }

    fn keys(&self) -> Vec<K> {
        self.map
            .lock()
            .expect("slot lookups never panic while locked")
            .keys()
            .copied()
            .collect()
    }
}

/// A compiler-pass output with its wall-clock durations zeroed, as the
/// engine caches it.
struct Compiled {
    output: CompiledProgram,
    stats: CompileStats,
}

/// One cell of the matrix, in the engine's canonical order.
struct Cell {
    key: String,
    variant: usize,
    benchmark: Benchmark,
    technique: Technique,
}

/// The layer runner: the artifact slots plus the counts spans cannot
/// carry.
struct LayerRunner<'a> {
    experiment: &'a Experiment,
    verify: bool,
    programs: Slots<ProgramKey, Arc<Program>>,
    compiles: Slots<CompileKey, Arc<Compiled>>,
    plans: Slots<PlanKey, Arc<ExecPlan>>,
    executed_insts: AtomicU64,
    traces: Mutex<HashSet<(PlanSource, u64)>>,
    failures: AtomicU64,
}

fn zeroed(mut stats: CompileStats) -> CompileStats {
    stats.total_duration = Duration::ZERO;
    for proc_stats in &mut stats.per_procedure {
        proc_stats.duration = Duration::ZERO;
    }
    stats
}

fn policy_lane(policy: ResizePolicy) -> &'static str {
    match policy {
        ResizePolicy::Fixed => "fixed",
        ResizePolicy::SoftwareHint => "software_hint",
        ResizePolicy::Adaptive(_) => "adaptive",
    }
}

impl LayerRunner<'_> {
    fn fail(&self, what: &str) {
        eprintln!("perfbench traced: {what}");
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    fn program(&self, key: ProgramKey) -> Arc<Program> {
        self.programs.get(key, || {
            let _span = span("workloads.build", "workloads");
            Arc::new(key.benchmark.build_scaled(key.scale()))
        })
    }

    fn compiled(&self, key: CompileKey) -> Arc<Compiled> {
        let input = self.program(key.program);
        self.compiles.get(key, || {
            let output = {
                let _span = span("compiler.compile", "compiler");
                if self.verify {
                    CompilerPass::new(key.pass).run_verified(&input, Box::new(StandardVerifier))
                } else {
                    Ok(CompilerPass::new(key.pass).run(&input))
                }
            };
            let output = output.unwrap_or_else(|e| panic!("inter-pass verification: {e}"));
            if self.verify {
                self.verify_compiled(&output);
            }
            let stats = zeroed(output.stats.clone());
            Arc::new(Compiled { output, stats })
        })
    }

    fn verify_compiled(&self, output: &CompiledProgram) {
        let diags = {
            let _span = span("verify.compiled", "verify");
            verify_compiled(output)
        };
        if has_errors(&diags) {
            self.fail("a compiled artifact failed verification");
        }
    }

    fn lint(&self, plan: &ExecPlan, program: &Program, trace: &Trace) {
        let diags = {
            let _span = span("verify.plan_lint", "verify");
            lint_plan(plan, program, trace)
        };
        if has_errors(&diags) {
            self.fail("an execution plan failed lint");
        }
    }

    fn execute(&self, program: &Program) -> Trace {
        Executor::new(program)
            .run(self.experiment.max_dynamic_instructions)
            .unwrap_or_else(|fault| panic!("workload must execute cleanly, faulted with {fault:?}"))
    }

    fn planned(&self, key: PlanKey, program: &Program) -> Arc<ExecPlan> {
        self.plans.get(key, || {
            let trace = {
                let _span = span("isa.execute", "isa");
                self.execute(program)
            };
            self.executed_insts
                .fetch_add(trace.len() as u64, Ordering::Relaxed);
            self.traces
                .lock()
                .expect("never panics while locked")
                .insert((key.source, key.max_dynamic_instructions));
            let plan = {
                let _span = span("sim.lower", "sim");
                ExecPlan::build(key.sim_config, program, &trace)
            };
            if self.verify {
                self.lint(&plan, program, &trace);
            }
            Arc::new(plan)
        })
    }

    /// One cell, layer by layer, the way the engine's compiled backend
    /// runs it; returns the plan it replayed with the report.
    fn run_cell(&self, variant: &ConfigVariant, cell: &Cell) -> (PlanKey, RunReport) {
        let program_key = ProgramKey::new(cell.benchmark, variant.scale);
        let pass = cell
            .technique
            .pass_config_for(variant.sim_config.widths, variant.sim_config.fu_counts);
        let (source, compiled) = match pass {
            Some(pass) => {
                let key = CompileKey {
                    program: program_key,
                    pass,
                };
                (PlanSource::Compiled(key), Some(self.compiled(key)))
            }
            None => (PlanSource::Program(program_key), None),
        };
        let raw;
        let program = match &compiled {
            Some(compiled) => &compiled.output.program,
            None => {
                raw = self.program(program_key);
                &*raw
            }
        };
        let key = PlanKey {
            source,
            sim_config: variant.sim_config,
            max_dynamic_instructions: self.experiment.max_dynamic_instructions,
        };
        let plan = self.planned(key, program);
        let policy = cell.technique.resize_policy();
        let result = {
            let _span = span("sim.replay", policy_lane(policy));
            PlanSimulator::new(&plan, policy).run()
        }
        .unwrap_or_else(|e| panic!("simulation must complete over a committed trace: {e:?}"));
        let power = {
            let _span = span("power.price", "power");
            PowerBreakdown::from_stats(
                &result.stats,
                &self.experiment.energy_model,
                cell.technique.wakeup_scheme(),
                cell.technique.bank_gating(),
            )
        };
        let report = RunReport {
            workload: plan.workload().to_string(),
            technique: cell.technique,
            stats: result.stats,
            power,
            compile: compiled.as_ref().map(|c| c.stats.clone()),
            adaptive_resizes: result.adaptive_resizes,
            hint_noops_inserted: compiled.as_ref().map_or(0, |c| c.stats.hint_noops_inserted),
        };
        (key, report)
    }

    /// Round-trips one result through both wire codecs, as a fleet ships
    /// it, returning the encoded sizes `(bin1, json)`.
    fn wire(&self, key: &str, report: &RunReport) -> (u64, u64) {
        let message = Message::CellDone {
            key: key.to_string(),
            report: Box::new(report.clone()),
        };
        let bytes = {
            let _span = span("remote.bin1.encode", "remote");
            binary::encode_message(&message)
        };
        let decoded = {
            let _span = span("remote.bin1.decode", "remote");
            binary::decode_message(&bytes)
        };
        let text = {
            let _span = span("remote.json.encode", "remote");
            message.render()
        };
        let parsed = {
            let _span = span("remote.json.decode", "remote");
            Message::parse(&text)
        };
        if decoded.as_ref() != Ok(&message) || parsed.as_ref() != Ok(&message) {
            self.fail("a result did not survive a wire codec round trip");
        }
        (bytes.len() as u64, text.len() as u64)
    }

    /// Runs the interpreted oracle over `key`'s trace for the cell whose
    /// replay gave `report`, and checks the two agree.
    fn oracle(&self, key: PlanKey, report: &RunReport) -> u64 {
        let built = "every artifact of the traced window was built";
        let (raw, compiled);
        let program = match key.source {
            PlanSource::Program(program) => {
                raw = self.programs.peek(program).expect(built);
                &*raw
            }
            PlanSource::Compiled(compile) => {
                compiled = self.compiles.peek(compile).expect(built);
                &compiled.output.program
            }
        };
        let trace = self.execute(program);
        let policy = report.technique.resize_policy();
        let result = {
            let _span = span("sim.oracle", "sim");
            Simulator::new(key.sim_config, program, &trace, policy).run()
        }
        .unwrap_or_else(|e| panic!("simulation must complete over a committed trace: {e:?}"));
        if result.stats != report.stats {
            self.fail("the interpreted oracle disagrees with the plan replay");
        }
        if !self.verify {
            let plan = self.plans.peek(key).expect(built);
            self.lint(&plan, program, &trace);
        }
        result.stats.cycles
    }
}

/// Runs `work` over `items` on `jobs` threads pulling from a shared
/// cursor, as the engine's pool does; results keep the items' order.
fn pool<T: Sync, R: Send + Sync>(
    jobs: usize,
    items: &[T],
    work: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, items.len().max(1)) {
            scope.spawn(|| {
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else {
                        break;
                    };
                    let _ = slots[index].set(work(item));
                }
                // Deliver this thread's spans before the scope returns.
                sdiq_obs::flush();
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("the pool filled every slot"))
        .collect()
}

/// Span totals by name: `(calls, summed self nanoseconds)`.
fn totals(events: &[TraceEvent], self_times: &[u64]) -> HashMap<(String, String), (u64, u64)> {
    let mut totals: HashMap<(String, String), (u64, u64)> = HashMap::new();
    for (event, &own) in events.iter().zip(self_times) {
        let entry = totals
            .entry((event.name.clone(), event.cat.clone()))
            .or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    totals
}

/// Runs the traced pass of `workload`, writes its Chrome trace to
/// `trace_path`, and prints a summary line followed by the save text.
pub fn run(workload: &Workload, trace_path: &str) -> Result<(), String> {
    let experiment = workload.experiment();
    let matrix = workload.matrix(&experiment);
    let variants = matrix.config_variants();
    let mut cells = Vec::new();
    for (index, variant) in variants.iter().enumerate() {
        for technique in Technique::all() {
            for benchmark in Benchmark::ALL {
                cells.push(Cell {
                    key: cell_key(&experiment, variant, benchmark, technique),
                    variant: index,
                    benchmark,
                    technique,
                });
            }
        }
    }
    let runner = LayerRunner {
        experiment: &experiment,
        verify: workload.verify(),
        programs: Slots::new(),
        compiles: Slots::new(),
        plans: Slots::new(),
        executed_insts: AtomicU64::new(0),
        traces: Mutex::new(HashSet::new()),
        failures: AtomicU64::new(0),
    };
    let jobs = host::nproc();
    let on_wire = workload.kind == Kind::Fleet;

    sdiq_obs::set_tracing(true);
    let start = Instant::now();
    let results = pool(jobs, &cells, |cell| {
        let _span = span("cell", "cell").map(|s| s.arg("key", &cell.key));
        let (plan, report) = runner.run_cell(&variants[cell.variant], cell);
        let wire = on_wire.then(|| runner.wire(&cell.key, &report));
        (plan, report, wire)
    });
    let saved: BTreeMap<String, RunReport> = cells
        .iter()
        .zip(&results)
        .map(|(cell, (_, report, _))| (cell.key.clone(), report.clone()))
        .collect();
    let save = {
        let _span = span("core.persist.save", "persist");
        persist::save_cells(&saved)
    };
    let wall = start.elapsed().as_secs_f64();
    let loaded = {
        let _span = span("core.persist.load", "persist");
        persist::load_cells(&save)
    };
    if loaded.map(|l| l.into_iter().collect::<BTreeMap<_, _>>()) != Ok(saved.clone()) {
        runner.fail("the save file did not load back to the same cells");
    }

    // Off the traced window: work the engine does not do here.
    // The oracle re-runs each plan for the first cell that replayed it.
    let mut seen = HashSet::new();
    let first_replays: Vec<(PlanKey, &RunReport)> = results
        .iter()
        .filter(|(plan, _, _)| seen.insert(*plan))
        .map(|(plan, report, _)| (*plan, report))
        .collect();
    let oracle_cycles: u64 = pool(jobs, &first_replays, |&(key, report)| {
        runner.oracle(key, report)
    })
    .into_iter()
    .sum();
    if !runner.verify {
        let compile_keys = runner.compiles.keys();
        pool(jobs, &compile_keys, |&key| {
            let compiled = runner
                .compiles
                .peek(key)
                .expect("built in the traced window");
            runner.verify_compiled(&compiled.output);
        });
    }
    let wire: Vec<(u64, u64)> = if on_wire {
        results.iter().filter_map(|(_, _, wire)| *wire).collect()
    } else {
        pool(jobs, &cells, |cell| {
            runner.wire(&cell.key, &saved[&cell.key])
        })
    };
    sdiq_obs::set_tracing(false);

    let events = sdiq_obs::drain();
    let text = sdiq_core::trace::render_chrome_trace(&events);
    if let Some(dir) = std::path::Path::new(trace_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(trace_path, &text).map_err(|e| format!("writing {trace_path}: {e}"))?;
    if let Err(e) = spans::check_balanced(&text) {
        runner.fail(&format!("the Chrome trace is unbalanced: {e}"));
    }

    let self_times = spans::self_times(&events);
    let totals = totals(&events, &self_times);
    let by_name = |name: &str| -> (u64, u64) {
        totals
            .iter()
            .filter(|((n, _), _)| n == name)
            .fold((0, 0), |acc, (_, &(c, ns))| (acc.0 + c, acc.1 + ns))
    };
    let ms = |name: &str| by_name(name).1 as f64 / 1e6;
    let mean_us = |name: &str| {
        let (calls, ns) = by_name(name);
        ns as f64 / 1e3 / calls.max(1) as f64
    };
    let calls = |name: &str| by_name(name).0 as f64;
    let per = |ns: u64, count: u64| ns as f64 / count.max(1) as f64;

    let committed: u64 = saved.values().map(|r| r.stats.committed).sum();
    let mut cycles_by_policy: HashMap<&str, u64> = HashMap::new();
    for report in saved.values() {
        *cycles_by_policy
            .entry(policy_lane(report.technique.resize_policy()))
            .or_default() += report.stats.cycles;
    }
    let replay_ns = |lane: &str| totals.get(&("sim.replay".to_string(), lane.to_string()));
    let executions = by_name("isa.execute").0;
    let unique_traces = runner
        .traces
        .lock()
        .expect("never panics while locked")
        .len();
    let (bin1_bytes, json_bytes) = wire
        .iter()
        .fold((0, 0), |acc, (b, j)| (acc.0 + b, acc.1 + j));
    let cell_count = cells.len() as u64;

    let mut layers: Vec<(String, f64)> = vec![
        ("workloads.build.calls".into(), calls("workloads.build")),
        ("workloads.build.ms".into(), ms("workloads.build")),
        ("compiler.compile.calls".into(), calls("compiler.compile")),
        ("compiler.compile.ms".into(), ms("compiler.compile")),
        ("isa.execute.calls".into(), executions as f64),
        ("isa.execute.ms".into(), ms("isa.execute")),
        (
            "isa.execute.ns_per_inst".into(),
            per(
                by_name("isa.execute").1,
                runner.executed_insts.load(Ordering::Relaxed),
            ),
        ),
        (
            "isa.execute.unique_ratio".into(),
            unique_traces as f64 / executions.max(1) as f64,
        ),
        ("sim.lower.calls".into(), calls("sim.lower")),
        ("sim.lower.ms".into(), ms("sim.lower")),
        (
            "sim.cells_per_plan".into(),
            cell_count as f64 / calls("sim.lower").max(1.0),
        ),
        ("sim.replay.ms".into(), ms("sim.replay")),
        (
            "sim.replay.ns_per_inst".into(),
            per(by_name("sim.replay").1, committed),
        ),
    ];
    for lane in ["fixed", "software_hint", "adaptive"] {
        let ns = replay_ns(lane).map_or(0, |&(_, ns)| ns);
        let cycles = cycles_by_policy.get(lane).copied().unwrap_or(0);
        layers.push((format!("sim.replay.ns_per_cycle.{lane}"), per(ns, cycles)));
    }
    layers.extend([
        ("power.price.us".into(), mean_us("power.price")),
        (
            "sim.oracle.ns_per_cycle".into(),
            per(by_name("sim.oracle").1, oracle_cycles),
        ),
        (
            "verify.calls".into(),
            calls("verify.compiled") + calls("verify.plan_lint"),
        ),
        ("verify.compiled_ms".into(), ms("verify.compiled")),
        ("verify.plan_lint_ms".into(), ms("verify.plan_lint")),
        (
            "core.cache.program_hit_rate".into(),
            runner.programs.hit_rate(),
        ),
        (
            "core.cache.compile_hit_rate".into(),
            runner.compiles.hit_rate(),
        ),
        ("core.cache.plan_hit_rate".into(), runner.plans.hit_rate()),
        ("core.persist.save_ms".into(), ms("core.persist.save")),
        ("core.persist.load_ms".into(), ms("core.persist.load")),
        (
            "core.persist.bytes_per_cell".into(),
            save.len() as f64 / cell_count as f64,
        ),
        (
            "remote.bin1.bytes_per_cell".into(),
            per(bin1_bytes, wire.len() as u64),
        ),
        (
            "remote.bin1.encode_us".into(),
            mean_us("remote.bin1.encode"),
        ),
        (
            "remote.bin1.decode_us".into(),
            mean_us("remote.bin1.decode"),
        ),
        (
            "remote.json.bytes_per_cell".into(),
            per(json_bytes, wire.len() as u64),
        ),
        (
            "remote.json.encode_us".into(),
            mean_us("remote.json.encode"),
        ),
        (
            "remote.json.decode_us".into(),
            mean_us("remote.json.decode"),
        ),
    ]);

    let cell_ms = events
        .iter()
        .filter(|event| event.name == "cell")
        .map(|event| Json::of_f64(event.dur_nanos.unwrap_or(0) as f64 / 1e6))
        .collect();
    let summary = Json::Obj(vec![
        ("wall_s".to_string(), Json::of_f64(wall)),
        (
            "failures".to_string(),
            Json::of_u64(runner.failures.load(Ordering::Relaxed)),
        ),
        ("cell_ms".to_string(), Json::Arr(cell_ms)),
        (
            "layers".to_string(),
            Json::Obj(
                layers
                    .into_iter()
                    .map(|(name, value)| (name, Json::of_f64(value)))
                    .collect(),
            ),
        ),
    ]);
    let mut line = String::new();
    summary.render(&mut line);
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}")
        .and_then(|()| stdout.write_all(save.as_bytes()))
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("writing the traced summary: {e}"))
}
