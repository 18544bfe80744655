//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload suite|sweep|fleet --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! The harness computes the reference result once (a serial run of the
//! interpreted backend), then repeats the workload in fresh child
//! processes until `--seconds` have passed, checking every repetition's
//! cells and save bytes against the reference. With `--trace 0` it
//! reports the end-to-end metrics as medians over the repetitions, with
//! host times put at nominal host speed by a probe timed between
//! repetitions (see `calib.rs`); with `--trace 1` it also runs the traced
//! pass (see `traced.rs`) and reports the per-layer metrics. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod calib;
mod gate;
mod host;
mod metrics;
mod rep;
mod spans;
mod stats;
mod traced;
mod workload;

use calib::{Probe, Reading};
use gate::{Outcome, Reference};
use metrics::Metric;
use sdiq_core::persist::{parse, Json};
use sdiq_core::RunReport;
use sdiq_workloads::Benchmark;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Kind, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Timed repetitions a run makes even when `--seconds` is shorter.
const MIN_REPETITIONS: usize = 3;

/// Where traced runs write their Chrome traces, relative to the
/// working directory.
const TRACE_DIR: &str = ".bench_out";

const USAGE: &str = "perfbench --workload suite|sweep|fleet --seed <n> --seconds <s> --trace 0|1";

/// Parsed command line of the harness and its child modes.
struct Args {
    workload: Workload,
    seconds: u64,
    trace: bool,
    layers: bool,
    out: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut layers = false;
    let mut out = None;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                kind =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--layers" => layers = true,
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::new(kind, seed),
        seconds,
        trace,
        layers,
        out,
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mode = match args.peek().map(String::as_str) {
        Some(mode @ ("serve" | "rep" | "traced")) => {
            let mode = mode.to_string();
            args.next();
            mode
        }
        _ => "run".to_string(),
    };
    if mode == "serve" {
        rep::serve();
    }
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode.as_str() {
        "rep" => rep::run(&args.workload, args.layers),
        "traced" => match &args.out {
            Some(out) => traced::run(&args.workload, out),
            None => Err("traced needs --out <trace path>".to_string()),
        },
        _ => harness(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A child process of this binary in mode `mode`, its stdout piped.
fn child(mode: &str, workload: &Workload, extra: &[&str]) -> Result<std::process::Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    Command::new(exe)
        .arg(mode)
        .args(["--workload", workload.kind.name()])
        .args(["--seed", &workload.seed.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning `{mode}`: {e}"))
}

/// Reads a child's JSON summary line and the save text after it, then
/// reaps it.
fn finish(
    mut child: std::process::Child,
    mut out: BufReader<std::process::ChildStdout>,
) -> Result<(Json, String), String> {
    let mut summary = String::new();
    let mut save = String::new();
    let read = out
        .read_line(&mut summary)
        .and_then(|_| out.read_to_string(&mut save));
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a child: {e}"))?;
    read.map_err(|e| format!("reading a child's output: {e}"))?;
    if !status.success() {
        return Err(format!("a child run exited with {status}"));
    }
    let summary = parse(&summary).map_err(|e| format!("child summary: {e}"))?;
    Ok((summary, save))
}

fn number(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::f64)
        .map_err(|e| format!("child summary `{key}`: {e}"))
}

fn layer_figures(json: &Json) -> Result<Vec<(String, f64)>, String> {
    let Ok(Some(layers)) = json.opt("layers") else {
        return Ok(Vec::new());
    };
    let fields = layers.obj().map_err(|e| e.to_string())?;
    fields
        .iter()
        .map(|(name, value)| Ok((name.clone(), value.f64().map_err(|e| e.to_string())?)))
        .collect()
}

/// One timed engine repetition, as the harness saw it.
struct Repetition {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
    committed: f64,
    save: String,
    layers: Vec<(String, f64)>,
    /// The host-speed probe around the repetition (the mean of the
    /// readings just before and just after it).
    probe: Reading,
}

/// Runs one repetition in a fresh child process. Set-up time runs from
/// the spawn to the child's announcement of its first issued cell; CPU
/// time is the child's and its daemons', read once the child is reaped.
/// `last_probe` holds the probe reading taken just before; the probe is
/// read again just after, the repetition carries the mean of the two, and
/// the new reading replaces `last_probe` to serve the next repetition.
fn repetition(
    workload: &Workload,
    layers: bool,
    probe: &Probe,
    last_probe: &mut Reading,
) -> Result<Repetition, String> {
    let cpu_before = host::children_cpu();
    let spawned = Instant::now();
    let mut child = child("rep", workload, if layers { &["--layers"] } else { &[] })?;
    let mut out = BufReader::new(child.stdout.take().ok_or("child stdout not piped")?);
    let mut line = String::new();
    let announced = out.read_line(&mut line);
    let setup_s = spawned.elapsed().as_secs_f64();
    if announced.is_err() || line.trim() != rep::ISSUED {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("repetition announced `{}`", line.trim()));
    }
    let (summary, save) = finish(child, out)?;
    let cpu_s = (host::children_cpu() - cpu_before).as_secs_f64();
    let after = probe.measure();
    let around = last_probe.mean(after);
    *last_probe = after;
    Ok(Repetition {
        setup_s,
        wall_s: number(&summary, "wall_s")?,
        cpu_s,
        peak_rss_mib: number(&summary, "peak_rss_mib")?,
        committed: number(&summary, "committed")?,
        save,
        layers: layer_figures(&summary)?,
        probe: around,
    })
}

/// The traced pass, as the harness saw it.
struct TracedRun {
    wall_s: f64,
    failures: u64,
    cell_ms: Vec<f64>,
    save: String,
    layers: Vec<(String, f64)>,
    path: String,
}

fn traced_run(workload: &Workload) -> Result<TracedRun, String> {
    let path = format!(
        "{TRACE_DIR}/trace-{}-seed{}.json",
        workload.kind.name(),
        workload.seed
    );
    let mut child = child("traced", workload, &["--out", &path])?;
    let out = BufReader::new(child.stdout.take().ok_or("child stdout not piped")?);
    let (summary, save) = finish(child, out)?;
    let cell_ms = summary
        .get("cell_ms")
        .and_then(Json::arr)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|v| v.f64().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(TracedRun {
        wall_s: number(&summary, "wall_s")?,
        failures: number(&summary, "failures")? as u64,
        cell_ms,
        save,
        layers: layer_figures(&summary)?,
        path,
    })
}

/// One figure read off a technique-vs-baseline comparison.
type ComparisonFigure = fn(&sdiq_core::Comparison) -> f64;

/// Exact simulated counts and per-technique model figures from the
/// reference cells (base machine, averaged over benchmarks).
fn model_figures(cells: &BTreeMap<String, RunReport>) -> Vec<(String, f64)> {
    let sum = |f: fn(&RunReport) -> u64| cells.values().map(f).sum::<u64>() as f64;
    let mut figures = vec![
        ("model.cycles".to_string(), sum(|r| r.stats.cycles)),
        (
            "model.committed_inst".to_string(),
            sum(|r| r.stats.committed),
        ),
        (
            "model.adaptive_resizes".to_string(),
            sum(|r| r.adaptive_resizes),
        ),
        (
            "model.hint_noops".to_string(),
            sum(|r| r.hint_noops_inserted as u64),
        ),
    ];
    // Cell keys read `benchmark|technique|variant|fingerprint`.
    let mut base: HashMap<(&str, &str), &RunReport> = HashMap::new();
    for (key, report) in cells {
        let parts: Vec<&str> = key.split('|').collect();
        if let [benchmark, technique, "base", _] = parts[..] {
            base.insert((benchmark, technique), report);
        }
    }
    let baseline = sdiq_core::Technique::Baseline.name();
    let families: [(&str, ComparisonFigure); 4] = [
        ("ipc_loss_pct", |c| c.ipc_loss_percent),
        ("iq_occupancy_cut_pct", |c| c.iq_occupancy_reduction_percent),
        ("iq_banks_off_pct", |c| c.iq_banks_off_percent),
        ("iq_dyn_saving_pct", |c| c.savings.iq_dynamic_pct),
    ];
    for (family, figure) in families {
        for technique in metrics::compared_techniques() {
            // A fixed summation order keeps the figures bit-identical.
            let values: Vec<f64> = Benchmark::ALL
                .iter()
                .filter_map(|b| {
                    let run = base.get(&(b.name(), technique.name()))?;
                    Some(figure(&run.compared_to(base.get(&(b.name(), baseline))?)))
                })
                .collect();
            let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
            figures.push((format!("model.{family}.{}", technique.name()), mean));
        }
    }
    figures
}

/// The harness: reference, repetitions, optional traced pass, report.
fn harness(args: &Args) -> Result<(), String> {
    let workload = &args.workload;
    println!("{}", host::record());
    println!("workload {}", workload.describe());
    println!(
        "seeds: default {DEFAULT_SEED}, held out {HELD_OUT_SEED}; this run {}",
        workload.seed
    );
    let began = Instant::now();
    let reference = Reference::compute(workload);
    println!(
        "reference: {} cells on the serial interpreted backend in {:.2} s",
        reference.cells.len(),
        began.elapsed().as_secs_f64()
    );

    let mut outcome = Outcome {
        bytes_equal: true,
        ..Outcome::default()
    };
    let mut run_ok = true;
    let mut repetitions: Vec<Repetition> = Vec::new();
    // One untimed repetition first: the binary and its libraries come
    // into the page cache, as they are for a user's repeated runs.
    let budget = Duration::from_secs(args.seconds);
    let probe = Probe::new(host::nproc());
    let mut last_probe = probe.measure();
    let mut timed = None;
    while timed.is_none_or(|start: Instant| {
        repetitions.len() < MIN_REPETITIONS || start.elapsed() < budget
    }) {
        match repetition(workload, args.trace, &probe, &mut last_probe) {
            Ok(rep) => {
                outcome.absorb(reference.check_save(&rep.save));
                match timed {
                    None => timed = Some(Instant::now()),
                    Some(_) => repetitions.push(rep),
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                outcome.absorb(reference.all_failed());
                run_ok = false;
                break;
            }
        }
    }
    println!(
        "repetitions: {} timed after 1 warm-up, closed batch of {} cells each, {} worker threads",
        repetitions.len(),
        reference.cells.len(),
        host::nproc()
    );

    let column = |f: fn(&Repetition) -> f64| repetitions.iter().map(f).collect::<Vec<f64>>();
    // As measured, for the report.
    println!(
        "{}",
        stats::describe("measured wall_s", "s", &column(|r| r.wall_s))
    );
    println!(
        "{}",
        stats::describe("measured cpu_s", "s", &column(|r| r.cpu_s))
    );
    println!(
        "{}",
        stats::describe("measured setup_s", "s", &column(|r| r.setup_s))
    );
    println!(
        "{}",
        stats::describe("probe wall", "s", &column(|r| r.probe.wall_s))
    );
    println!(
        "{}",
        stats::describe("probe cpu", "s", &column(|r| r.probe.cpu_s))
    );
    // Reported: at the probe's nominal host speed (see `calib.rs`).
    let wall = column(|r| r.wall_s / r.probe.wall_slowdown());
    let e2e: Vec<(Metric, Vec<f64>)> = metrics::end_to_end()
        .into_iter()
        .map(|m| {
            let samples = match m.name.as_str() {
                "wall_s" => wall.clone(),
                "sim_minst_per_s" => {
                    column(|r| r.committed * r.probe.wall_slowdown() / r.wall_s / 1e6)
                }
                "cpu_s" => column(|r| r.cpu_s / r.probe.cpu_slowdown()),
                "peak_rss_mb" => column(|r| r.peak_rss_mib),
                "setup_s" => column(|r| r.setup_s / r.probe.wall_slowdown()),
                other => unreachable!("no sampler for end-to-end metric {other}"),
            };
            (m, samples)
        })
        .collect();
    for (m, samples) in &e2e {
        println!("{}", stats::describe(&m.name, m.unit, samples));
    }

    let values: Vec<(Metric, f64)> = if args.trace && run_ok {
        let traced = traced_run(workload);
        let traced_slowdown = last_probe.mean(probe.measure()).wall_slowdown();
        let traced = match traced {
            Ok(traced) => traced,
            Err(e) => {
                eprintln!("perfbench: traced run: {e}");
                outcome.absorb(reference.all_failed());
                return finish_report(false, outcome, &[]);
            }
        };
        let mut check = reference.check_save(&traced.save);
        check.failed = (check.failed + traced.failures).min(check.attempted);
        outcome.absorb(check);
        println!(
            "traced run: {:.3} s, trace written to {} ({} failures)",
            traced.wall_s, traced.path, traced.failures
        );
        println!(
            "{}",
            stats::describe("traced cell time", "ms", &traced.cell_ms)
        );

        let mut figures: HashMap<String, f64> = traced.layers.into_iter().collect();
        // Engine-side figures come from the timed repetitions; on `fleet`
        // the artifact caches live in the daemons, so its hit rates stay
        // those of the traced pass, which reuses artifacts the same way.
        let mut engine: HashMap<&str, Vec<f64>> = HashMap::new();
        for (name, value) in repetitions.iter().flat_map(|r| &r.layers) {
            engine.entry(name).or_default().push(*value);
        }
        for (name, values) in engine {
            figures.insert(name.to_string(), stats::median(&values).unwrap_or(0.0));
        }
        figures.insert(
            "obs.trace_overhead_ratio".to_string(),
            traced.wall_s
                / traced_slowdown
                / stats::median(&wall).unwrap_or(traced.wall_s / traced_slowdown),
        );
        figures.extend(model_figures(&reference.cells));
        metrics::per_layer()
            .into_iter()
            .map(|m| {
                let value = *figures
                    .get(&m.name)
                    .unwrap_or_else(|| unreachable!("no figure for per-layer metric {}", m.name));
                println!("{} = {value} {}", m.name, m.unit);
                (m, value)
            })
            .collect()
    } else {
        e2e.into_iter()
            .map(|(m, samples)| {
                let value = stats::median(&samples).unwrap_or(0.0);
                (m, value)
            })
            .collect()
    };
    finish_report(run_ok, outcome, &values)
}

/// Prints the failure share and the result line; a run with any failed
/// cell is an error.
fn finish_report(run_ok: bool, outcome: Outcome, values: &[(Metric, f64)]) -> Result<(), String> {
    let correct = run_ok && outcome.correct();
    println!(
        "cells_failed_frac: {} ({} of {} cells attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted.max(1), outcome.failed, values)
    );
    if correct {
        Ok(())
    } else {
        Err("the run failed its correctness gate".to_string())
    }
}
