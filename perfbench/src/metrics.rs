//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! End-to-end metrics are what a user of `repro` sees; per-layer metrics
//! come from the traced run. Both lists are mirrored in the repository's
//! `BENCHMARK.json` (a test keeps them in step).

use sdiq_core::persist::Json;
use sdiq_core::Technique;

/// One metric: its name, unit, and which direction is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`, at most 64 characters).
    pub name: String,
    /// Unit (`[A-Za-z0-9_/%.-]`, at most 16 characters).
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, reported on every workload with `--trace 0`.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("wall_s", "s", "lower"),
        metric("sim_minst_per_s", "Minst/s", "higher"),
        metric("cpu_s", "s", "lower"),
        metric("peak_rss_mb", "MiB", "lower"),
        metric("setup_s", "s", "lower"),
    ]
}

/// Techniques whose model figures are reported relative to the baseline.
pub fn compared_techniques() -> Vec<Technique> {
    Technique::all()
        .into_iter()
        .filter(|&t| t != Technique::Baseline)
        .collect()
}

/// The per-layer metrics, reported on every workload with `--trace 1`.
pub fn per_layer() -> Vec<Metric> {
    let mut metrics = vec![
        metric("workloads.build.calls", "count", "lower"),
        metric("workloads.build.ms", "ms", "lower"),
        metric("compiler.compile.calls", "count", "lower"),
        metric("compiler.compile.ms", "ms", "lower"),
        metric("isa.execute.calls", "count", "lower"),
        metric("isa.execute.ms", "ms", "lower"),
        metric("isa.execute.ns_per_inst", "ns", "lower"),
        metric("isa.execute.unique_ratio", "ratio", "higher"),
        metric("sim.lower.calls", "count", "lower"),
        metric("sim.lower.ms", "ms", "lower"),
        metric("sim.cells_per_plan", "ratio", "higher"),
        metric("sim.replay.ms", "ms", "lower"),
        metric("sim.replay.ns_per_inst", "ns", "lower"),
        metric("sim.replay.ns_per_cycle.fixed", "ns", "lower"),
        metric("sim.replay.ns_per_cycle.software_hint", "ns", "lower"),
        metric("sim.replay.ns_per_cycle.adaptive", "ns", "lower"),
        metric("power.price.us", "us", "lower"),
        metric("sim.oracle.ns_per_cycle", "ns", "lower"),
        metric("verify.calls", "count", "lower"),
        metric("verify.compiled_ms", "ms", "lower"),
        metric("verify.plan_lint_ms", "ms", "lower"),
        metric("core.cache.program_hit_rate", "ratio", "higher"),
        metric("core.cache.compile_hit_rate", "ratio", "higher"),
        metric("core.cache.plan_hit_rate", "ratio", "higher"),
        metric("core.engine.worker_util", "ratio", "higher"),
        metric("core.engine.tail_idle_ms", "ms", "lower"),
        metric("core.persist.save_ms", "ms", "lower"),
        metric("core.persist.load_ms", "ms", "lower"),
        metric("core.persist.bytes_per_cell", "bytes", "lower"),
    ];
    for codec in ["bin1", "json"] {
        metrics.push(metric(
            format!("remote.{codec}.bytes_per_cell"),
            "bytes",
            "lower",
        ));
        metrics.push(metric(format!("remote.{codec}.encode_us"), "us", "lower"));
        metrics.push(metric(format!("remote.{codec}.decode_us"), "us", "lower"));
    }
    metrics.extend([
        metric("remote.batches", "count", "lower"),
        metric("remote.requeues", "count", "lower"),
        metric("remote.spec_dup_ratio", "ratio", "lower"),
        metric("obs.trace_overhead_ratio", "ratio", "lower"),
        metric("model.cycles", "cycles", "lower"),
        metric("model.committed_inst", "count", "higher"),
        metric("model.adaptive_resizes", "count", "lower"),
        metric("model.hint_noops", "count", "lower"),
    ]);
    for (family, better) in [
        ("ipc_loss_pct", "lower"),
        ("iq_occupancy_cut_pct", "higher"),
        ("iq_banks_off_pct", "higher"),
        ("iq_dyn_saving_pct", "higher"),
    ] {
        for technique in compared_techniques() {
            metrics.push(metric(
                format!("model.{family}.{}", technique.name()),
                "%",
                better,
            ));
        }
    }
    metrics
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": …, "unit": …}` in catalogue order.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(Metric, f64)]) -> String {
    let metrics = values
        .iter()
        .map(|(metric, value)| {
            (
                metric.name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::of_f64(*value)),
                    ("unit".to_string(), Json::Str(metric.unit.to_string())),
                ]),
            )
        })
        .collect();
    let mut line = String::new();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::of_u64(attempted)),
        ("failed".to_string(), Json::of_u64(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .render(&mut line);
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdiq_core::persist::parse;
    use std::collections::HashSet;

    /// `true` for a valid metric name: starts with a letter or digit, at most
    /// 64 characters of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `true` for a valid unit: 1 to 16 characters of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_unique_and_within_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!(!e2e.is_empty() && e2e.len() <= 16);
        assert!(!layers.is_empty() && layers.len() <= 128);
        let mut seen = HashSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn name_rule_rejects_what_it_should() {
        assert!(valid_name("sim.replay.ns_per_cycle.adaptive"));
        assert!(valid_name("model.ipc_loss_pct.lowen-isa"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("Minst/s") && valid_unit("%") && !valid_unit("per cell"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[(metric("wall_s", "s", "lower"), 1.25)]);
        let json = parse(&line).unwrap();
        let keys: Vec<&str> = json
            .obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = json.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().f64().unwrap(), 1.25);
        assert_eq!(wall.get("unit").unwrap().str().unwrap(), "s");
    }

    /// The catalogue and the repository's `BENCHMARK.json` name the same
    /// metrics with the same units and directions.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = parse(&text).unwrap();
        let listed = |key: &str| -> Vec<Metric> {
            json.get(key)
                .unwrap()
                .arr()
                .unwrap()
                .iter()
                .map(|m| Metric {
                    name: m.get("name").unwrap().str().unwrap().to_string(),
                    unit: Box::leak(m.get("unit").unwrap().str().unwrap().to_string().into()),
                    better: Box::leak(m.get("better").unwrap().str().unwrap().to_string().into()),
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), end_to_end());
        assert_eq!(listed("per_layer"), per_layer());
    }
}
