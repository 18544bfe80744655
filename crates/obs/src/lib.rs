//! # sdiq-obs — observability for the reproduction pipeline
//!
//! The reproduction now spans compiled plans, a work-queue engine,
//! subprocess shards and a TCP fleet, but until this crate the only
//! timing signal was ad-hoc `eprintln!` lines and whatever a profiler
//! could be talked into. This crate is the shared substrate the engine,
//! the artifact cache, the checkpoint writer and the remote scheduler
//! all record into:
//!
//! * **Tracing spans** ([`span`], [`instant`]) — RAII guards over a
//!   monotonic [`Instant`] clock, buffered per thread and drained to a
//!   global collector ([`drain`]). Off by default: when tracing is
//!   disabled ([`set_tracing`]), `span()` is one relaxed atomic load
//!   and returns `None` — no allocation, no lock, no clock read. The
//!   drained [`TraceEvent`]s are exported as Chrome trace-event JSON by
//!   `sdiq_core::trace` (kept there because the JSON builder lives in
//!   `sdiq-core`; this crate stays dependency-free either way).
//! * **Metrics** ([`metrics`]) — an always-on registry of atomic
//!   counters, gauges and log2-bucketed histograms. "Always-on" is
//!   affordable because every operation is one relaxed atomic RMW per
//!   *cell-grained* event (cells run for milliseconds; nothing in the
//!   per-cycle simulator loop touches this crate). [`MetricsDelta`] is
//!   the compact wire snapshot `repro serve` daemons piggyback on their
//!   heartbeat frames so a coordinator can aggregate per-worker cache
//!   hit rates and simulated-instruction throughput live.
//! * **Progress** ([`Progress`]) — a rate-limited cells-done/total/ETA
//!   line for `--progress`, written by callers to **stderr only** so
//!   piped stdout (figures, `--sweep-summary`) stays machine-parseable.
//!
//! The hard contract, enforced by the integration suite and a
//! `sim_throughput` overhead row: observability is strictly
//! *out-of-band*. Cell keys, persisted bytes and `ActivityStats` are
//! bit-identical with tracing on or off, because nothing here feeds back
//! into the simulation — this crate only ever observes.
//!
//! Std-only, no dependencies (the workspace builds fully offline).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clock and the tracing switch
// ---------------------------------------------------------------------------

/// Global tracing enable. Relaxed ordering is deliberate: the flag only
/// gates *whether* events are recorded, never any data another thread
/// must observe consistently.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns span/instant recording on or off process-wide. Metrics are
/// unaffected (they are always on).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// `true` if spans are currently being recorded.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The process's trace epoch: every timestamp is nanoseconds since the
/// first call to this function. Monotonic ([`Instant`]), so spans can
/// never go backwards even if the wall clock steps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (also the daemon-lifetime wall used
/// by [`MetricsDelta::capture`]).
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// One recorded trace event: a duration span (`dur_nanos = Some`) or an
/// instant marker (`dur_nanos = None`), in Chrome trace-event terms a
/// B/E pair or an `i` event. `pid` is a process lane: `0` is the local
/// process; a remote coordinator re-lanes worker events to
/// `worker index + 1` before injecting them, so Perfetto shows one
/// process track per fleet member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span or marker name (e.g. `cell`, `compile`, `run-batch`).
    pub name: String,
    /// Category lane (e.g. `cache`, `cell`, `sched`, `server`,
    /// `persist`).
    pub cat: String,
    /// Process lane (see type docs).
    pub pid: u64,
    /// Thread lane, assigned per recording thread in first-use order.
    pub tid: u64,
    /// Start time, nanoseconds since the recording process's epoch.
    pub start_nanos: u64,
    /// Span duration; `None` marks an instant event.
    pub dur_nanos: Option<u64>,
    /// Free-form `key=value` annotations (cell keys, batch sizes, ...).
    pub args: Vec<(String, String)>,
}

/// Global collector cap: a runaway tracer degrades to dropping events
/// (counted in [`Metrics::trace_events_dropped`]) instead of eating the
/// heap. 2^20 events ≈ a few hundred MB worst case, far above any real
/// matrix run.
const MAX_GLOBAL_EVENTS: usize = 1 << 20;

/// Thread buffers flush to the global collector at this size so the
/// global lock is touched once per ~kilobatch, not per span.
const FLUSH_THRESHOLD: usize = 1024;

fn global() -> &'static Mutex<Vec<TraceEvent>> {
    static GLOBAL: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
    &GLOBAL
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Locks recovering from poisoning: collectors hold no invariants a
/// panicking recorder could have broken mid-update (the vectors are
/// append-only), so surviving threads keep tracing.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct LocalBuffer {
    tid: u64,
    events: Vec<TraceEvent>,
}

impl LocalBuffer {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut global = lock_or_recover(global());
        let room = MAX_GLOBAL_EVENTS.saturating_sub(global.len());
        if self.events.len() > room {
            metrics()
                .trace_events_dropped
                .add((self.events.len() - room) as u64);
            self.events.truncate(room);
        }
        global.append(&mut self.events);
    }
}

impl Drop for LocalBuffer {
    // Thread exit flushes whatever the thread still holds — a backstop
    // only: `std::thread::scope` unblocks its owner when the spawned
    // closure returns, and TLS destructors run *after* that during
    // thread teardown, so a drain racing the teardown would miss these
    // events. Worker closures therefore call [`flush`] explicitly as
    // their last act.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuffer> = const {
        RefCell::new(LocalBuffer { tid: 0, events: Vec::new() })
    };
}

fn record(mut event: TraceEvent) {
    LOCAL.with(|buffer| {
        let mut buffer = buffer.borrow_mut();
        if buffer.tid == 0 {
            buffer.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        event.tid = buffer.tid;
        buffer.events.push(event);
        if buffer.events.len() >= FLUSH_THRESHOLD {
            buffer.flush();
        }
    });
}

/// An open duration span: created by [`span`], recorded when dropped.
/// Annotate with [`Span::arg`]. The guard is cheap — one clock read at
/// open, one at drop, a thread-local push in between.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    start_nanos: u64,
    args: Vec<(String, String)>,
}

impl Span {
    /// Attaches a `key=value` annotation (allocates — only reachable
    /// when tracing is on).
    pub fn arg(mut self, key: &str, value: &str) -> Span {
        self.args.push((key.to_string(), value.to_string()));
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = now_nanos();
        record(TraceEvent {
            name: self.name.to_string(),
            cat: self.cat.to_string(),
            pid: 0,
            tid: 0, // assigned by `record`
            start_nanos: self.start_nanos,
            dur_nanos: Some(end.saturating_sub(self.start_nanos)),
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Opens a duration span, or returns `None` (one relaxed load, nothing
/// else) when tracing is off. Typical use:
/// `let _span = sdiq_obs::span("compile", "cache");`
pub fn span(name: &'static str, cat: &'static str) -> Option<Span> {
    if !tracing() {
        return None;
    }
    Some(Span {
        name,
        cat,
        start_nanos: now_nanos(),
        args: Vec::new(),
    })
}

/// Records an instant event (a zero-duration marker) when tracing is on.
pub fn instant(name: &'static str, cat: &'static str, args: &[(&str, &str)]) {
    if !tracing() {
        return;
    }
    record(TraceEvent {
        name: name.to_string(),
        cat: cat.to_string(),
        pid: 0,
        tid: 0,
        start_nanos: now_nanos(),
        dur_nanos: None,
        args: args
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    });
}

/// Flushes the calling thread's buffer and takes every collected event.
///
/// Only the calling thread's buffer can be flushed from here; other
/// threads deliver their events when they exit (scoped pools join
/// before their spawner continues, so by the time a run returns and the
/// runner drains, every worker's events are in). A long-lived thread
/// recording concurrently with `drain` keeps its unflushed tail for the
/// next drain — nothing is lost, only deferred.
pub fn drain() -> Vec<TraceEvent> {
    flush();
    std::mem::take(&mut *lock_or_recover(global()))
}

/// Flushes the calling thread's buffer to the global collector.
///
/// Pool and driver threads must call this as the last statement of
/// their spawned closure: `std::thread::scope` unblocks the spawner the
/// moment the closure returns, while the TLS-destructor flush only
/// happens later during thread teardown — an unsynchronised window in
/// which a [`drain`] would miss the thread's events entirely.
pub fn flush() {
    LOCAL.with(|buffer| buffer.borrow_mut().flush());
}

/// Injects externally produced events (a remote worker's drained trace,
/// re-laned to that worker's pid) into the collector.
pub fn inject(events: Vec<TraceEvent>) {
    let mut global = lock_or_recover(global());
    let room = MAX_GLOBAL_EVENTS.saturating_sub(global.len());
    if events.len() > room {
        metrics()
            .trace_events_dropped
            .add((events.len() - room) as u64);
    }
    global.extend(events.into_iter().take(room));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (e.g. cells currently in flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under racy over-subtraction —
    /// a gauge briefly reading low beats wrapping to 2^64).
    pub fn sub(&self, n: u64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count of [`Histogram`]: one per log2 magnitude of a `u64`
/// (bucket 0 holds exactly the value 0; bucket `k ≥ 1` holds values in
/// `[2^(k−1), 2^k)`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed log2-bucketed histogram (count, sum, 65 magnitude buckets).
/// Fixed buckets mean `observe` is a branch and three relaxed RMWs —
/// cheap enough to leave on for every cell.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The log2 bucket index a value lands in.
pub fn histogram_bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[histogram_bucket(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(index, bucket)| {
                    let count = bucket.load(Ordering::Relaxed);
                    (count > 0).then_some((index as u32, count))
                })
                .collect(),
        }
    }
}

/// A copied-out histogram: total count, total sum, and the non-empty
/// log2 buckets as `(bucket index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending by index (see [`histogram_bucket`]).
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The process-wide metrics registry: every field is one always-on
/// atomic instrument. Names are the wire/report names (see the
/// EXPERIMENTS.md span-and-metric taxonomy).
#[derive(Debug, Default)]
pub struct Metrics {
    /// `ArtifactCache` program slots served from cache.
    pub cache_program_hits: Counter,
    /// `ArtifactCache` program slots built (initializer ran).
    pub cache_program_misses: Counter,
    /// `ArtifactCache` compile slots served from cache.
    pub cache_compile_hits: Counter,
    /// `ArtifactCache` compile slots built.
    pub cache_compile_misses: Counter,
    /// `ArtifactCache` plan slots served from cache.
    pub cache_plan_hits: Counter,
    /// `ArtifactCache` plan slots built.
    pub cache_plan_misses: Counter,
    /// `ArtifactCache` replay slots served from cache.
    pub cache_replay_hits: Counter,
    /// `ArtifactCache` replay slots computed (the cycle replay ran).
    pub cache_replay_misses: Counter,
    /// Cells computed to completion by the engine (seeded cells do not
    /// count — they were never run).
    pub cells_done: Counter,
    /// Cells currently being simulated by this process.
    pub cells_in_flight: Gauge,
    /// Simulated (committed) instructions across all completed cells.
    pub sim_instructions: Counter,
    /// Per-cell wall time, nanoseconds.
    pub cell_wall_nanos: Histogram,
    /// Functional execution per `ArtifactCache` plan miss, nanoseconds.
    pub plan_execute_nanos: Histogram,
    /// Plan lowering per `ArtifactCache` plan miss, nanoseconds.
    pub plan_lower_nanos: Histogram,
    /// Plan lint per `ArtifactCache` plan miss with verification on,
    /// nanoseconds.
    pub plan_lint_nanos: Histogram,
    /// Cycle replay per `ArtifactCache` replay miss, nanoseconds.
    pub replay_nanos: Histogram,
    /// Cells appended to a checkpoint file.
    pub checkpoint_appends: Counter,
    /// Batches submitted to remote workers by the scheduler.
    pub batches_issued: Counter,
    /// Cells speculatively re-issued to an idle worker.
    pub speculation_issued: Counter,
    /// Speculation races decided: the duplicate arrived after a result
    /// was already accepted (the extra work lost).
    pub speculation_duplicates: Counter,
    /// Cells re-queued after a worker failure.
    pub requeues: Counter,
    /// Workers declared dead by the heartbeat deadline.
    pub deadline_verdicts: Counter,
    /// Trace events discarded because the collector was full.
    pub trace_events_dropped: Counter,
}

/// One metric rendered out of [`Metrics::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (stable; the report/wire vocabulary).
    pub name: &'static str,
    /// Unit, for display (`cells`, `events`, `ns`, ...).
    pub unit: &'static str,
    /// The value at snapshot time.
    pub value: SampleValue,
}

/// The value of one [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A monotonic counter's value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram's state.
    Histogram(HistogramSnapshot),
}

impl Metrics {
    /// A point-in-time copy of every instrument, in declaration order.
    pub fn snapshot(&self) -> Vec<Sample> {
        fn counter(name: &'static str, unit: &'static str, c: &Counter) -> Sample {
            Sample {
                name,
                unit,
                value: SampleValue::Counter(c.get()),
            }
        }
        fn nanos(name: &'static str, h: &Histogram) -> Sample {
            Sample {
                name,
                unit: "ns",
                value: SampleValue::Histogram(h.snapshot()),
            }
        }
        vec![
            counter("cache_program_hits", "programs", &self.cache_program_hits),
            counter(
                "cache_program_misses",
                "programs",
                &self.cache_program_misses,
            ),
            counter("cache_compile_hits", "compiles", &self.cache_compile_hits),
            counter(
                "cache_compile_misses",
                "compiles",
                &self.cache_compile_misses,
            ),
            counter("cache_plan_hits", "plans", &self.cache_plan_hits),
            counter("cache_plan_misses", "plans", &self.cache_plan_misses),
            counter("cache_replay_hits", "replays", &self.cache_replay_hits),
            counter("cache_replay_misses", "replays", &self.cache_replay_misses),
            counter("cells_done", "cells", &self.cells_done),
            Sample {
                name: "cells_in_flight",
                unit: "cells",
                value: SampleValue::Gauge(self.cells_in_flight.get()),
            },
            counter("sim_instructions", "instructions", &self.sim_instructions),
            nanos("cell_wall_nanos", &self.cell_wall_nanos),
            nanos("plan_execute_nanos", &self.plan_execute_nanos),
            nanos("plan_lower_nanos", &self.plan_lower_nanos),
            nanos("plan_lint_nanos", &self.plan_lint_nanos),
            nanos("replay_nanos", &self.replay_nanos),
            counter("checkpoint_appends", "cells", &self.checkpoint_appends),
            counter("batches_issued", "batches", &self.batches_issued),
            counter("speculation_issued", "cells", &self.speculation_issued),
            counter(
                "speculation_duplicates",
                "cells",
                &self.speculation_duplicates,
            ),
            counter("requeues", "cells", &self.requeues),
            counter("deadline_verdicts", "workers", &self.deadline_verdicts),
            counter("trace_events_dropped", "events", &self.trace_events_dropped),
        ]
    }

    /// Total cache hits across the four artifact kinds.
    pub fn cache_hits(&self) -> u64 {
        self.cache_program_hits.get()
            + self.cache_compile_hits.get()
            + self.cache_plan_hits.get()
            + self.cache_replay_hits.get()
    }

    /// Total cache misses across the four artifact kinds.
    pub fn cache_misses(&self) -> u64 {
        self.cache_program_misses.get()
            + self.cache_compile_misses.get()
            + self.cache_plan_misses.get()
            + self.cache_replay_misses.get()
    }
}

/// The process-wide metrics registry.
pub fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(Metrics::default)
}

// ---------------------------------------------------------------------------
// The wire snapshot
// ---------------------------------------------------------------------------

/// The compact per-worker metrics snapshot a `repro serve` daemon
/// piggybacks on its heartbeat frames. Every field is a **cumulative
/// total since the daemon's epoch** (not an increment): snapshots are
/// idempotent, so a lost or reordered heartbeat never corrupts the
/// coordinator's aggregate — the next one simply supersedes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsDelta {
    /// Cells computed to completion.
    pub cells_done: u64,
    /// Cells in flight at snapshot time (the one gauge).
    pub cells_in_flight: u64,
    /// Committed instructions simulated.
    pub sim_instructions: u64,
    /// Artifact-cache hits (programs + compiles + plans + replays).
    pub cache_hits: u64,
    /// Artifact-cache misses.
    pub cache_misses: u64,
    /// Nanoseconds since the daemon's trace epoch, for rate math.
    pub wall_nanos: u64,
}

impl MetricsDelta {
    /// Snapshots the process registry.
    pub fn capture() -> MetricsDelta {
        let m = metrics();
        MetricsDelta {
            cells_done: m.cells_done.get(),
            cells_in_flight: m.cells_in_flight.get(),
            sim_instructions: m.sim_instructions.get(),
            cache_hits: m.cache_hits(),
            cache_misses: m.cache_misses(),
            wall_nanos: now_nanos(),
        }
    }

    /// Cache hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Lifetime average simulated instructions per second.
    pub fn instructions_per_second(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.sim_instructions as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

/// Rate-limited progress reporting for long matrix runs: one
/// `cells done/total (%) · rate · ETA` line at most once a second (plus
/// one final line at completion). The caller prints the returned line —
/// to **stderr** — so this type stays I/O-free and testable.
#[derive(Debug)]
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    started: Instant,
    last_emit: Mutex<Option<Instant>>,
}

impl Progress {
    /// A tracker over `total` expected completions.
    pub fn new(total: usize) -> Progress {
        Progress {
            total,
            done: AtomicUsize::new(0),
            started: Instant::now(),
            last_emit: Mutex::new(None),
        }
    }

    /// Records one completion. Returns a line to print when at least a
    /// second has passed since the last emitted line — or always for
    /// the final completion, so short runs still report once.
    pub fn record(&self) -> Option<String> {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let mut last = lock_or_recover(&self.last_emit);
        let now = Instant::now();
        let due = done >= self.total
            || match *last {
                None => true,
                Some(at) => now.duration_since(at).as_secs_f64() >= 1.0,
            };
        if !due {
            return None;
        }
        *last = Some(now);
        Some(self.line_at(done))
    }

    /// The current progress line (without recording anything).
    pub fn line(&self) -> String {
        self.line_at(self.done.load(Ordering::Relaxed))
    }

    fn line_at(&self, done: usize) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let percent = if self.total == 0 {
            100.0
        } else {
            done as f64 * 100.0 / self.total as f64
        };
        let eta = if rate > 0.0 && done < self.total {
            format!(", ETA {:.0}s", (self.total - done) as f64 / rate)
        } else {
            String::new()
        };
        format!(
            "progress: {done}/{} cells ({percent:.1}%), {rate:.1} cells/s{eta}",
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; tests that toggle it serialise
    /// here so cargo's parallel test threads don't interleave.
    fn tracing_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn spans_record_nested_durations_and_drain() {
        let _guard = tracing_lock();
        let _ = drain(); // discard anything a prior test left behind
        set_tracing(true);
        {
            let _outer = span("outer", "test").map(|s| s.arg("key", "value"));
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner", "test");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            instant("marker", "test", &[("n", "1")]);
        }
        set_tracing(false);
        let events = drain();
        assert_eq!(events.len(), 3);
        // Drop order: inner span, then the instant, then the outer span.
        let inner = &events[0];
        let marker = &events[1];
        let outer = &events[2];
        assert_eq!(inner.name, "inner");
        assert_eq!(marker.name, "marker");
        assert_eq!(marker.dur_nanos, None);
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.args, vec![("key".to_string(), "value".to_string())]);
        let (inner_dur, outer_dur) = (inner.dur_nanos.unwrap(), outer.dur_nanos.unwrap());
        assert!(
            outer_dur > inner_dur,
            "outer {outer_dur} > inner {inner_dur}"
        );
        // Proper nesting: inner starts after outer, ends before it.
        assert!(inner.start_nanos >= outer.start_nanos);
        assert!(
            inner.start_nanos + inner_dur <= outer.start_nanos + outer_dur,
            "inner span must close inside the outer one"
        );
        // Same thread, same lane.
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = tracing_lock();
        set_tracing(false);
        let _ = drain();
        assert!(span("x", "test").is_none());
        instant("y", "test", &[]);
        assert!(drain().is_empty());
    }

    #[test]
    fn injected_events_come_back_out_of_drain() {
        let _guard = tracing_lock();
        let _ = drain();
        let event = TraceEvent {
            name: "remote".to_string(),
            cat: "cell".to_string(),
            pid: 3,
            tid: 1,
            start_nanos: 10,
            dur_nanos: Some(5),
            args: Vec::new(),
        };
        inject(vec![event.clone()]);
        assert_eq!(drain(), vec![event]);
    }

    #[test]
    fn histogram_buckets_are_log2_magnitudes() {
        assert_eq!(histogram_bucket(0), 0);
        assert_eq!(histogram_bucket(1), 1);
        assert_eq!(histogram_bucket(2), 2);
        assert_eq!(histogram_bucket(3), 2);
        assert_eq!(histogram_bucket(4), 3);
        assert_eq!(histogram_bucket(1023), 10);
        assert_eq!(histogram_bucket(1024), 11);
        assert_eq!(histogram_bucket(u64::MAX), 64);

        let h = Histogram::default();
        h.observe(0);
        h.observe(3);
        h.observe(3);
        h.observe(1024);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1030);
        assert_eq!(snap.buckets, vec![(0, 1), (2, 2), (11, 1)]);
        assert!((snap.mean() - 257.5).abs() < 1e-9);
    }

    #[test]
    fn gauge_saturates_instead_of_wrapping() {
        let g = Gauge::default();
        g.add(2);
        g.sub(5);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn metrics_delta_capture_is_monotonic_against_the_registry() {
        let before = MetricsDelta::capture();
        metrics().cells_done.inc();
        metrics().sim_instructions.add(100);
        let after = MetricsDelta::capture();
        assert!(after.cells_done > before.cells_done);
        assert!(after.sim_instructions >= before.sim_instructions + 100);
        assert!(after.wall_nanos >= before.wall_nanos);
    }

    #[test]
    fn progress_reports_first_and_final_completions() {
        let p = Progress::new(3);
        let first = p.record().expect("first completion always reports");
        assert!(first.starts_with("progress: 1/3 cells (33.3%)"), "{first}");
        // Second lands within the rate limit window.
        assert!(p.record().is_none());
        let last = p.record().expect("final completion always reports");
        assert!(last.starts_with("progress: 3/3 cells (100.0%)"), "{last}");
        assert!(!last.contains("ETA"), "complete runs have no ETA: {last}");
    }

    #[test]
    fn snapshot_names_are_unique_and_stable() {
        let samples = metrics().snapshot();
        let names: std::collections::HashSet<&str> =
            samples.iter().map(|sample| sample.name).collect();
        assert_eq!(names.len(), samples.len(), "duplicate metric name");
        assert!(names.contains("cells_done"));
        assert!(names.contains("cell_wall_nanos"));
        assert!(names.contains("cache_program_hits"));
    }
}
