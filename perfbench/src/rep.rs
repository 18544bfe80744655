//! One engine repetition, run as a child process of the harness so that
//! every repetition starts cold, exactly like a `repro` invocation.
//!
//! The child prints [`ISSUED`] on its own stdout line the moment it is
//! about to issue the first cell (the harness timestamps that line to get
//! `setup_s`), then, when the save bytes are encoded, one JSON summary line
//! followed by the save text itself.

use crate::host;
use crate::workload::{Kind, Workload};
use sdiq_core::persist::Json;
use sdiq_core::{matrix_fingerprint, persist, ArtifactCache, Backend, CellSink, RunReport};
use sdiq_remote::scheduler::{self, WorkerSource};
use sdiq_remote::{client, RemoteOptions};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// The line a repetition prints when it issues its first cell.
pub const ISSUED: &str = "ISSUED";

/// Worker daemons in the `fleet` workload.
const FLEET_DAEMONS: usize = 2;

/// The worker daemon a `fleet` repetition spawns: `repro serve --jobs 1`
/// on a free localhost port, with every other setting at its default.
pub fn serve() -> ! {
    let options = sdiq_remote::server::ServeOptions {
        listen: "127.0.0.1:0".to_string(),
        register: None,
        jobs: 1,
        fail_after: None,
        stall_after: None,
        heartbeat_deadline: sdiq_remote::DEFAULT_HEARTBEAT_DEADLINE,
        auth_key: None,
        advertise_binary: true,
    };
    let error = match sdiq_remote::server::serve(&options) {
        Ok(()) => unreachable!("the daemon serves until killed"),
        Err(error) => error,
    };
    eprintln!("perfbench serve: {error}");
    std::process::exit(1);
}

/// Fresh worker daemons for one `fleet` repetition, killed and reaped on
/// drop.
struct Fleet {
    daemons: Vec<Child>,
    addrs: Vec<String>,
}

impl Fleet {
    fn start(count: usize) -> Result<Fleet, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let mut fleet = Fleet {
            daemons: Vec::new(),
            addrs: Vec::new(),
        };
        for _ in 0..count {
            let child = Command::new(&exe)
                .arg("serve")
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning a worker daemon: {e}"))?;
            fleet.daemons.push(child);
        }
        for daemon in &mut fleet.daemons {
            let stdout = daemon.stdout.take().ok_or("daemon stdout not piped")?;
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("reading a daemon's address: {e}"))?;
            let addr = line
                .strip_prefix("LISTENING ")
                .ok_or_else(|| format!("daemon greeted with `{}`", line.trim()))?;
            fleet.addrs.push(addr.trim().to_string());
        }
        Ok(fleet)
    }

    /// Sum of the daemons' peak resident sets, MiB.
    fn peak_rss_mib(&self) -> f64 {
        self.daemons
            .iter()
            .filter_map(|d| host::peak_rss_mib_of(d.id()))
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for daemon in &mut self.daemons {
            let _ = daemon.kill();
            let _ = daemon.wait();
        }
    }
}

/// Records when each worker lane (thread) delivered its last cell: a
/// worker of the engine pulls cells back to back, so it is busy from the
/// first issue until its last delivery.
#[derive(Default)]
struct LaneClock {
    last: Mutex<HashMap<ThreadId, Instant>>,
}

impl CellSink for LaneClock {
    fn cell_complete(&self, _key: &str, _report: &RunReport) {
        let now = Instant::now();
        self.last
            .lock()
            .expect("the lane clock never panics while locked")
            .insert(std::thread::current().id(), now);
    }
}

impl LaneClock {
    /// `(worker_util, tail_idle_ms)` for a run issued at `start` and
    /// returned at `end` on `lanes` workers.
    fn figures(&self, start: Instant, end: Instant, lanes: usize) -> (f64, f64) {
        let last = self.last.lock().expect("no run is in flight");
        let busy: f64 = last.values().map(|t| (*t - start).as_secs_f64()).sum();
        let wall = (end - start).as_secs_f64();
        let first_idle = last.values().min().copied().unwrap_or(start);
        let last_done = last.values().max().copied().unwrap_or(start);
        (
            busy / (lanes as f64 * wall),
            (last_done - first_idle).as_secs_f64() * 1e3,
        )
    }
}

/// The scheduler and cache counters a repetition reports with `--layers`.
#[derive(Clone, Copy)]
struct Counters {
    hits: [u64; 3],
    batches: u64,
    requeues: u64,
    speculated: u64,
}

impl Counters {
    fn capture() -> Counters {
        let m = sdiq_obs::metrics();
        Counters {
            hits: [
                m.cache_program_hits.get(),
                m.cache_compile_hits.get(),
                m.cache_plan_hits.get(),
            ],
            batches: m.batches_issued.get(),
            requeues: m.requeues.get(),
            speculated: m.speculation_issued.get(),
        }
    }
}

fn announce_issue() -> Result<Instant, String> {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{ISSUED}")
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("announcing the first issue: {e}"))?;
    Ok(Instant::now())
}

/// Runs one repetition of `workload` and prints its summary and save
/// bytes. With `layers`, the summary also carries the engine-side
/// per-layer figures (cache hit rates, worker utilisation, scheduler
/// counters).
pub fn run(workload: &Workload, layers: bool) -> Result<(), String> {
    let experiment = workload.experiment();
    let matrix = workload.matrix(&experiment).jobs(host::nproc());
    let clock = LaneClock::default();
    let sink = layers.then_some(&clock as &dyn CellSink);
    let before = Counters::capture();
    let no_seed = HashMap::new();
    let mut figures: Vec<(&str, f64)> = Vec::new();

    let (start, returned, cells, save, lanes, fleet) = match workload.kind {
        Kind::Suite | Kind::Sweep => {
            let cache = ArtifactCache::new();
            cache.set_verify(workload.verify());
            let start = announce_issue()?;
            let sweep = matrix.run_with_sink(&cache, &no_seed, sink);
            let returned = Instant::now();
            let cells = matrix.collect_cells(&sweep);
            let save = persist::save_cells(&cells);
            let after = Counters::capture();
            let builds = [
                cache.program_builds(),
                cache.compile_runs(),
                cache.plan_builds(),
            ];
            for (i, name) in [
                "core.cache.program_hit_rate",
                "core.cache.compile_hit_rate",
                "core.cache.plan_hit_rate",
            ]
            .into_iter()
            .enumerate()
            {
                let hits = (after.hits[i] - before.hits[i]) as f64;
                figures.push((name, hits / (hits + builds[i] as f64).max(1.0)));
            }
            (start, returned, cells, save, host::nproc(), None)
        }
        Kind::Fleet => {
            let fleet = Fleet::start(FLEET_DAEMONS)?;
            let options = RemoteOptions {
                workers: fleet.addrs.clone(),
                ..RemoteOptions::default()
            };
            let Backend::Remote(remote) = sdiq_remote::backend(workload.spec.clone(), options)
            else {
                unreachable!("sdiq_remote::backend builds the remote backend")
            };
            // Dial and handshake belong to set-up: the links are handed
            // to the scheduler already greeted, as registered workers are.
            let fingerprint = matrix_fingerprint(&matrix.cell_keys());
            let sources = fleet
                .addrs
                .iter()
                .map(|addr| {
                    client::dial(addr, &remote, fingerprint)
                        .map(|link| WorkerSource::Ready {
                            addr: addr.clone(),
                            link,
                        })
                        .map_err(|e| format!("dialing {addr}: {e}"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            sdiq_remote::fleet::reset();
            let start = announce_issue()?;
            let sweep = scheduler::run_with_sources(
                &matrix,
                &remote,
                &no_seed,
                sink,
                client::dial,
                sources,
            )
            .map_err(|e| e.to_string())?;
            let returned = Instant::now();
            let cells = matrix.collect_cells(&sweep);
            let save = persist::save_cells(&cells);
            (start, returned, cells, save, FLEET_DAEMONS, Some(fleet))
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mib() + fleet.as_ref().map_or(0.0, Fleet::peak_rss_mib);
    drop(fleet);

    let after = Counters::capture();
    let (util, tail_idle) = clock.figures(start, returned, lanes);
    figures.extend([
        ("core.engine.worker_util", util),
        ("core.engine.tail_idle_ms", tail_idle),
        ("remote.batches", (after.batches - before.batches) as f64),
        ("remote.requeues", (after.requeues - before.requeues) as f64),
        (
            "remote.spec_dup_ratio",
            (after.speculated - before.speculated) as f64 / cells.len().max(1) as f64,
        ),
    ]);
    let committed: u64 = cells.values().map(|r| r.stats.committed).sum();
    let mut summary = vec![
        ("wall_s".to_string(), Json::of_f64(wall)),
        ("committed".to_string(), Json::of_u64(committed)),
        ("peak_rss_mib".to_string(), Json::of_f64(peak_rss)),
    ];
    if layers {
        summary.push((
            "layers".to_string(),
            Json::Obj(
                figures
                    .into_iter()
                    .map(|(name, value)| (name.to_string(), Json::of_f64(value)))
                    .collect(),
            ),
        ));
    }
    let mut line = String::new();
    Json::Obj(summary).render(&mut line);
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}")
        .and_then(|()| stdout.write_all(save.as_bytes()))
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("writing the repetition summary: {e}"))
}
