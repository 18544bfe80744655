//! End-to-end tests of the observability flags: the serve-mode
//! refusals, the Chrome trace file a `--trace` run writes, the
//! `--stats` view, progress going to stderr only — and the central
//! out-of-band guarantee, a traced run's `--save` being byte-identical
//! to an untraced one's.

use std::process::Command;

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn repro(args: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    Run {
        code: output.status.code().expect("repro exited without a code"),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sdiq-obs-cli-{}-{name}", std::process::id()))
}

const SMALL: &[&str] = &[
    "--scale",
    "0.02",
    "--benchmarks",
    "gzip",
    "--techniques",
    "baseline,noop",
    "--summary",
];

#[test]
fn serve_refuses_trace_and_progress() {
    for flag in [
        &["serve", "--trace", "/tmp/x.json"][..],
        &["serve", "--progress"][..],
    ] {
        let run = repro(flag);
        assert_eq!(run.code, 2, "{flag:?} must exit 2, stderr:\n{}", run.stderr);
        assert!(
            run.stderr.contains("coordinator flag"),
            "{flag:?} stderr:\n{}",
            run.stderr
        );
    }
}

#[test]
fn traced_run_writes_a_wellformed_nonempty_chrome_trace() {
    let trace = temp_path("trace.json");
    let mut args: Vec<&str> = SMALL.to_vec();
    let trace_str = trace.to_str().expect("temp path is utf-8");
    args.extend(["--trace", trace_str]);
    let run = repro(&args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc = sdiq_core::persist::parse(text.trim_end()).expect("trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .arr()
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "trace has events");
    // Spans from the engine's hot seams must be present, balanced.
    let phase =
        |record: &sdiq_core::persist::Json| record.get("ph").unwrap().str().unwrap().to_string();
    let begins = events.iter().filter(|e| phase(e) == "B").count();
    let ends = events.iter().filter(|e| phase(e) == "E").count();
    assert!(begins > 0, "no spans recorded");
    assert_eq!(begins, ends, "unbalanced B/E pairs");
    let named: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").ok().and_then(|n| n.str().ok()))
        .collect();
    assert!(named.contains(&"cell"), "cell spans missing: {named:?}");
    let _ = std::fs::remove_file(&trace);
}

/// The span names a `--trace` run with `extra` flags records.
fn traced_span_names(name: &str, extra: &[&str]) -> Vec<String> {
    let trace = temp_path(name);
    let mut args: Vec<&str> = SMALL.to_vec();
    args.extend(extra);
    args.extend(["--trace", trace.to_str().expect("temp path is utf-8")]);
    let run = repro(&args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_file(&trace);
    let doc = sdiq_core::persist::parse(text.trim_end()).expect("trace parses as JSON");
    doc.get("traceEvents")
        .expect("traceEvents key")
        .arr()
        .expect("traceEvents is an array")
        .iter()
        .filter_map(|e| e.get("name").ok().and_then(|n| n.str().ok()))
        .map(str::to_string)
        .collect()
}

#[test]
fn plan_misses_trace_execute_lower_and_lint_stages() {
    let verified = traced_span_names("verified-trace.json", &["--verify"]);
    for stage in ["lower-plan", "execute", "lower", "lint-plan"] {
        assert!(
            verified.iter().any(|n| n == stage),
            "{stage} spans missing: {verified:?}"
        );
    }
    // The lint stage exists only when verification runs.
    let unverified = traced_span_names("unverified-trace.json", &["--no-verify"]);
    assert!(unverified.iter().any(|n| n == "execute"));
    assert!(
        !unverified.iter().any(|n| n == "lint-plan"),
        "lint-plan span without verification: {unverified:?}"
    );
}

#[test]
fn cells_trace_a_price_span_each_and_replay_spans_on_misses() {
    let names = traced_span_names("stage-trace.json", &[]);
    let count = |stage: &str| names.iter().filter(|n| *n == stage).count();
    let cells = count("cell");
    assert!(cells > 0, "cell spans missing: {names:?}");
    assert_eq!(count("price"), cells, "one price span per cell: {names:?}");
    let replays = count("replay");
    assert!(
        replays > 0 && replays <= cells,
        "{replays} replay spans for {cells} cells: {names:?}"
    );
}

#[test]
fn traced_save_is_byte_identical_to_untraced() {
    let traced_save = temp_path("traced-save.json");
    let plain_save = temp_path("plain-save.json");
    let trace = temp_path("identity-trace.json");

    let mut traced_args: Vec<&str> = SMALL.to_vec();
    let traced_save_str = traced_save.to_str().expect("utf-8");
    let trace_str = trace.to_str().expect("utf-8");
    traced_args.extend([
        "--save",
        traced_save_str,
        "--trace",
        trace_str,
        "--progress",
    ]);
    let run = repro(&traced_args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);

    let mut plain_args: Vec<&str> = SMALL.to_vec();
    let plain_save_str = plain_save.to_str().expect("utf-8");
    plain_args.extend(["--save", plain_save_str]);
    let run = repro(&plain_args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);

    let traced_bytes = std::fs::read(&traced_save).expect("traced save written");
    let plain_bytes = std::fs::read(&plain_save).expect("plain save written");
    assert_eq!(
        traced_bytes, plain_bytes,
        "tracing must be out-of-band: saves diverged"
    );
    for path in [&traced_save, &plain_save, &trace] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn progress_writes_to_stderr_never_stdout() {
    let mut args: Vec<&str> = SMALL.to_vec();
    args.push("--progress");
    let run = repro(&args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    assert!(
        run.stderr.contains("progress:"),
        "no progress line on stderr:\n{}",
        run.stderr
    );
    assert!(
        !run.stdout.contains("progress:"),
        "progress leaked to stdout:\n{}",
        run.stdout
    );
}

#[test]
fn stats_view_prints_the_metrics_registry_only_when_asked() {
    let mut args: Vec<&str> = SMALL.to_vec();
    args.push("--stats");
    let run = repro(&args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    assert!(
        run.stdout.contains("== Metrics snapshot"),
        "stdout:\n{}",
        run.stdout
    );
    assert!(run.stdout.contains("cells_done"), "stdout:\n{}", run.stdout);
    for stage in [
        "plan_execute_nanos",
        "plan_lower_nanos",
        "plan_lint_nanos",
        "cache_replay_hits",
        "cache_replay_misses",
        "replay_nanos",
    ] {
        assert!(run.stdout.contains(stage), "stdout:\n{}", run.stdout);
    }
    assert!(
        run.stdout.contains("cache_hit_rate"),
        "stdout:\n{}",
        run.stdout
    );

    // --all alone must not grow a stats section: the snapshot is
    // run-shaped (timings), which would make --all output unstable.
    let run = repro(SMALL);
    assert!(
        !run.stdout.contains("== Metrics snapshot"),
        "stats leaked into a non-stats run:\n{}",
        run.stdout
    );
}
