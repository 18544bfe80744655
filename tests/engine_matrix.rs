//! Integration tests for the experiment job engine, the shared artifact
//! cache and suite persistence — the hard guarantees of the engine layer:
//!
//! 1. a parallel matrix run is **bit-identical** to a serial one,
//! 2. each (benchmark, scale) program is built **exactly once** per sweep,
//!    each (program, pass-config) compiled exactly once, and each
//!    (plan, resize policy) replayed exactly once,
//! 3. a saved suite reloads bit-identically and seeds a later run so only
//!    missing cells are recomputed,
//! 4. the D-cache activity counters are wired to the cache hierarchy (the
//!    memory-bound `mcf` analogue must show real traffic).

use sdiq::core::{
    persist, shard_of, ArtifactCache, CellSink, Experiment, Matrix, Sweep, Technique,
};
use sdiq::workloads::Benchmark;
use std::collections::HashMap;
use std::time::Duration;

fn tiny_experiment() -> Experiment {
    Experiment {
        scale: 0.05,
        ..Experiment::paper()
    }
}

const BENCHMARKS: [Benchmark; 3] = [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Vortex];
const TECHNIQUES: [Technique; 4] = [
    Technique::Baseline,
    Technique::Noop,
    Technique::Extension,
    Technique::Abella,
];

fn swept_matrix(experiment: &Experiment) -> Matrix<'_> {
    Matrix::new(experiment)
        .benchmarks(&BENCHMARKS)
        .techniques(&TECHNIQUES)
        .sweep_iq_entries(&[48])
}

#[test]
fn parallel_engine_is_bit_identical_to_a_serial_run() {
    let experiment = tiny_experiment();
    let serial = swept_matrix(&experiment).jobs(1).run();
    let parallel = swept_matrix(&experiment).jobs(4).run();

    // Full structural equality first: every cell of every sweep point.
    assert_eq!(serial, parallel, "parallel sweep must be bit-identical");

    // And spell the core of the guarantee out per cell, so a future
    // violation names the counter that diverged.
    for (point, (variant, suite)) in serial.iter().enumerate() {
        let other = parallel.suite(point);
        for benchmark in BENCHMARKS {
            for technique in TECHNIQUES {
                let a = suite.get(benchmark, technique).expect("serial cell");
                let b = other.get(benchmark, technique).expect("parallel cell");
                assert_eq!(
                    a.stats, b.stats,
                    "{}/{benchmark}/{technique}: ActivityStats must be bit-identical",
                    variant.label
                );
                assert_eq!(a.power, b.power);
                assert_eq!(a.compile, b.compile);
                assert_eq!(a.adaptive_resizes, b.adaptive_resizes);
            }
        }
    }
}

#[test]
fn artifacts_are_built_exactly_once_per_unique_key() {
    let experiment = tiny_experiment();
    let cache = ArtifactCache::new();
    let matrix = swept_matrix(&experiment).jobs(3);
    let sweep = matrix.run_with(&cache, &HashMap::new());
    assert_eq!(sweep.len(), 2, "base + iq48");

    // Both variants run at the same scale, so one program per benchmark
    // serves all 2 × 4 cells of its row.
    assert_eq!(
        cache.program_builds(),
        BENCHMARKS.len() as u64,
        "one build per (benchmark, scale)"
    );
    // Software techniques: Noop and Extension have distinct pass configs,
    // and the iq48 variant retargets the machine widths, which is a new
    // pass config — 2 passes × 2 variants × 3 benchmarks.
    assert_eq!(
        cache.compile_runs(),
        (2 * 2 * BENCHMARKS.len()) as u64,
        "one compile per (program, pass-config)"
    );

    // Re-running the same matrix against the same cache computes nothing.
    let again = matrix.run_with(&cache, &HashMap::new());
    assert_eq!(cache.program_builds(), BENCHMARKS.len() as u64);
    assert_eq!(cache.compile_runs(), (2 * 2 * BENCHMARKS.len()) as u64);
    assert_eq!(sweep, again, "cache reuse does not change results");
}

/// The eight registered built-ins, named explicitly: tests in this binary
/// register toy techniques at run time, so `Technique::all()` may be longer.
const BUILTINS: [Technique; 8] = [
    Technique::Baseline,
    Technique::NonEmpty,
    Technique::Noop,
    Technique::Extension,
    Technique::Improved,
    Technique::Abella,
    Technique::WayMemo,
    Technique::LowenIsa,
];

/// Per benchmark the eight techniques need six replays: `baseline`,
/// `nonEmpty` and `way-memo` share the fixed-policy replay of the source
/// program; `noop`, `extension`, `improved` and `lowen-isa` each replay
/// their own compiled program; `abella` replays the source program under
/// its adaptive policy. Sharing must not change a single byte: every cell
/// equals the one-shot `Experiment::run_program` result, once that
/// report's wall-clock compile durations are zeroed as the artifact cache
/// zeroes them.
#[test]
fn each_plan_and_policy_is_replayed_exactly_once() {
    let experiment = Experiment {
        scale: 0.02,
        ..Experiment::paper()
    };
    let replays_per_variant = 6 * Benchmark::ALL.len() as u64;
    let matrix = Matrix::new(&experiment)
        .benchmarks(&Benchmark::ALL)
        .techniques(&BUILTINS);
    let mut suites = Vec::new();
    for jobs in [1, 4] {
        let cache = ArtifactCache::new();
        let sweep = matrix.clone().jobs(jobs).run_with(&cache, &HashMap::new());
        assert_eq!(sweep.suite(0).len(), 88);
        assert_eq!(cache.replay_runs(), replays_per_variant, "jobs({jobs})");
        suites.push(sweep.into_suite());
    }
    assert_eq!(suites[0], suites[1], "replay sharing is worker-count free");

    let cache = ArtifactCache::new();
    let swept = matrix
        .clone()
        .sweep_iq_entries(&[48])
        .jobs(4)
        .run_with(&cache, &HashMap::new());
    assert_eq!(cache.replay_runs(), 2 * replays_per_variant);
    assert_eq!(swept.suite(0), &suites[0]);

    for benchmark in Benchmark::ALL {
        let program = benchmark.build_scaled(experiment.scale);
        for technique in BUILTINS {
            let mut one_shot = experiment.run_program(&program, technique);
            if let Some(compile) = &mut one_shot.compile {
                compile.total_duration = Duration::ZERO;
                for procedure in &mut compile.per_procedure {
                    procedure.duration = Duration::ZERO;
                }
            }
            assert_eq!(
                suites[0].get(benchmark, technique),
                Some(&one_shot),
                "{benchmark}/{technique}: the cached replay must price to the one-shot report"
            );
        }
    }
}

/// Sharing a replay shares timing, never pricing: `baseline` and
/// `nonEmpty` get one replay and identical stats, but each is priced
/// under its own wakeup scheme.
#[test]
fn techniques_sharing_a_replay_are_priced_per_technique() {
    let experiment = tiny_experiment();
    let cache = ArtifactCache::new();
    let suite = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip])
        .techniques(&[Technique::Baseline, Technique::NonEmpty])
        .run_with(&cache, &HashMap::new())
        .into_suite();
    assert_eq!(cache.replay_runs(), 1);
    let baseline = suite.get(Benchmark::Gzip, Technique::Baseline).unwrap();
    let nonempty = suite.get(Benchmark::Gzip, Technique::NonEmpty).unwrap();
    assert_eq!(baseline.stats, nonempty.stats);
    assert_ne!(baseline.power, nonempty.power);
}

/// A registered technique with its own adaptive parameters gets its own
/// replay: it must never be served `abella`'s cached result.
#[test]
fn a_toy_adaptive_technique_never_aliases_abella() {
    use sdiq::core::{TechniqueRegistry, TechniqueSpec};
    use sdiq::sim::{AdaptiveConfig, ResizePolicy};

    let toy = TechniqueRegistry::register(TechniqueSpec {
        name: "test-toy-adaptive",
        resize_policy: ResizePolicy::Adaptive(AdaptiveConfig {
            interval_cycles: 100,
            youngest_contribution_threshold: 0.5,
            ..AdaptiveConfig::iqrob64()
        }),
        ..Technique::Abella.spec()
    })
    .expect("unique name registers");
    let experiment = tiny_experiment();
    let cache = ArtifactCache::new();
    let suite = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip])
        .techniques(&[Technique::Abella, toy])
        .run_with(&cache, &HashMap::new())
        .into_suite();
    assert_eq!(cache.replay_runs(), 2, "one replay per policy");
    let abella = suite.get(Benchmark::Gzip, Technique::Abella).unwrap();
    let report = suite.get(Benchmark::Gzip, toy).unwrap();
    assert_ne!(abella.stats, report.stats);
    assert_eq!(
        report,
        &experiment.run(Benchmark::Gzip, toy),
        "the toy's cell is its own one-shot run"
    );
}

#[test]
fn saved_cells_reload_bit_identically_and_seed_partial_reruns() {
    let experiment = tiny_experiment();
    let narrow = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip, Benchmark::Mcf])
        .techniques(&[Technique::Baseline, Technique::Noop]);
    let sweep = narrow.run();

    // Round trip through the JSON text.
    let saved = persist::save_cells(&narrow.collect_cells(&sweep));
    let loaded = persist::load_cells(&saved).expect("save file parses");
    assert_eq!(loaded.len(), 4);
    for (key, report) in narrow.collect_cells(&sweep) {
        assert_eq!(loaded.get(&key), Some(&report), "{key} must round-trip");
    }

    // Seeding a *wider* matrix with the loaded cells re-runs only the new
    // technique column: the seeded cells need no program build at all, the
    // new NonEmpty cells share one build per benchmark and compile nothing.
    let wider = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip, Benchmark::Mcf])
        .techniques(&[Technique::Baseline, Technique::Noop, Technique::NonEmpty]);
    let cache = ArtifactCache::new();
    let wider_sweep = wider.run_with(&cache, &loaded);
    assert_eq!(cache.program_builds(), 2, "only the missing cells ran");
    assert_eq!(cache.compile_runs(), 0, "no software cell was missing");

    let suite = wider_sweep.suite(0);
    for benchmark in [Benchmark::Gzip, Benchmark::Mcf] {
        // Reused cells are byte-for-byte the originals.
        for technique in [Technique::Baseline, Technique::Noop] {
            assert_eq!(
                suite.get(benchmark, technique),
                sweep.suite(0).get(benchmark, technique),
                "{benchmark}/{technique} must come from the seed verbatim"
            );
        }
        // And the freshly computed cells are complete and consistent.
        let nonempty = suite.get(benchmark, Technique::NonEmpty).expect("new cell");
        let baseline = suite.get(benchmark, Technique::Baseline).unwrap();
        assert_eq!(nonempty.stats.cycles, baseline.stats.cycles);
    }
}

#[test]
fn loading_under_a_different_configuration_recomputes_everything() {
    let experiment = tiny_experiment();
    let matrix = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip])
        .techniques(&[Technique::Baseline]);
    let cells = matrix.collect_cells(&matrix.run());

    // The same axes at a different scale must not alias into the saved
    // cells: the key fingerprints the configuration.
    let other = Experiment {
        scale: 0.07,
        ..Experiment::paper()
    };
    let other_matrix = Matrix::new(&other)
        .benchmarks(&[Benchmark::Gzip])
        .techniques(&[Technique::Baseline]);
    let cache = ArtifactCache::new();
    let seed: HashMap<_, _> = cells.into_iter().collect();
    let sweep = other_matrix.run_with(&cache, &seed);
    assert_eq!(cache.program_builds(), 1, "stale seed must be ignored");
    let report = sweep.suite(0).get(Benchmark::Gzip, Technique::Baseline);
    assert_eq!(report.unwrap().stats.iq_total_entries, 80);
}

#[test]
fn corrupted_seed_cells_are_recomputed_not_misfiled() {
    let experiment = tiny_experiment();
    let matrix = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip])
        .techniques(&[Technique::Baseline, Technique::Noop]);
    let sweep = matrix.run();
    let keys = matrix.cell_keys();
    let mut cells: HashMap<_, _> = matrix.collect_cells(&sweep).into_iter().collect();

    // Corrupt the save: file the baseline report under the noop cell's key
    // (cell order is technique-minor, so keys[1] is the noop cell).
    let baseline_report = cells[&keys[0]].clone();
    cells.insert(keys[1].clone(), baseline_report);

    // The engine's accounting sees through the corruption: the key is
    // present but the report fails the integrity check.
    assert_eq!(matrix.missing_cells(&cells), 1);

    let cache = ArtifactCache::new();
    let suite = matrix.run_with(&cache, &cells).into_suite();
    // The mismatched seed was ignored and the noop cell recomputed: both
    // cells are present and correct, nothing got mis-slotted.
    assert_eq!(suite.len(), 2);
    assert_eq!(
        suite.get(Benchmark::Gzip, Technique::Noop),
        sweep.suite(0).get(Benchmark::Gzip, Technique::Noop),
        "noop cell must be recomputed, not overwritten by the corrupt seed"
    );
    assert_eq!(cache.program_builds(), 1, "the recomputation really ran");
}

#[test]
fn run_and_the_engine_agree_on_non_paper_machines() {
    // `Experiment::run` and the matrix engine must compile software
    // techniques for the *same* machine — the experiment's own, not a
    // hard-coded paper configuration.
    let mut experiment = tiny_experiment();
    experiment.sim_config.iq.entries = 48;
    experiment.sim_config.widths.iq_capacity = 48;
    let direct = experiment.run(Benchmark::Gzip, Technique::Noop);
    let suite = experiment.run_matrix(&[Benchmark::Gzip], &[Technique::Noop]);
    let engine = suite.get(Benchmark::Gzip, Technique::Noop).unwrap();
    assert_eq!(direct.stats, engine.stats);
    assert_eq!(direct.hint_noops_inserted, engine.hint_noops_inserted);
    assert_eq!(direct.stats.iq_total_entries, 48);
}

#[test]
fn mcf_analogue_exercises_the_dcache_counters() {
    let experiment = tiny_experiment();
    let report = experiment.run(Benchmark::Mcf, Technique::Baseline);
    let stats = &report.stats;
    assert!(
        stats.dcache_accesses > 0,
        "mcf analogue must access the D-cache"
    );
    assert!(
        stats.dcache_misses > 0,
        "pointer-chasing mcf analogue must miss in the D-cache"
    );
    assert!(stats.dcache_misses <= stats.dcache_accesses);
    // The wired counters agree with the loads/stores the trace commits: a
    // committed load or store accesses the D-cache exactly once at issue.
    assert!(
        stats.dcache_accesses >= stats.dcache_misses,
        "hierarchy counters are consistent"
    );
    // The memory-bound analogue should miss noticeably more than the
    // cache-friendly gzip one.
    let gzip = experiment.run(Benchmark::Gzip, Technique::Baseline);
    let mcf_rate = stats.dcache_miss_rate();
    let gzip_rate = gzip.stats.dcache_miss_rate();
    assert!(
        mcf_rate > gzip_rate,
        "mcf miss rate {mcf_rate:.4} should exceed gzip's {gzip_rate:.4}"
    );
}

#[test]
fn shards_partition_the_cell_space_and_merge_bit_identically() {
    let experiment = tiny_experiment();
    let serial = swept_matrix(&experiment);
    let all_keys = serial.cell_keys();
    let serial_sweep = serial.run();
    let serial_cells = serial.collect_cells(&serial_sweep);

    const SHARDS: usize = 3;
    let mut merged = std::collections::BTreeMap::new();
    let mut owned_counts = Vec::new();
    for index in 0..SHARDS {
        let shard = swept_matrix(&experiment).shard(index, SHARDS);
        let keys = shard.cell_keys();
        // Every owned key really belongs to this shard — the partition is
        // a pure function of the key.
        for key in &keys {
            assert_eq!(shard_of(key, SHARDS), index, "{key}");
        }
        owned_counts.push(keys.len());
        let cells = shard.collect_cells(&shard.run_with(&ArtifactCache::new(), &HashMap::new()));
        assert_eq!(cells.len(), keys.len(), "shard computes all its cells");
        for (key, report) in cells {
            assert!(
                merged.insert(key.clone(), report).is_none(),
                "{key}: shards must be disjoint"
            );
        }
    }
    // The shards partition the space: disjoint (asserted above), complete,
    // and cell-for-cell bit-identical to the serial run.
    assert_eq!(owned_counts.iter().sum::<usize>(), all_keys.len());
    assert_eq!(merged, serial_cells, "merged shards == serial run");

    // Re-assembling a sweep from the merged cells computes nothing and is
    // bit-identical to the serial sweep.
    let cache = ArtifactCache::new();
    let seed: HashMap<_, _> = merged.into_iter().collect();
    assert_eq!(serial.missing_cells(&seed), 0);
    let assembled = serial.run_with(&cache, &seed);
    assert_eq!(assembled, serial_sweep, "merged sweep == serial sweep");
    assert_eq!(cache.program_builds(), 0, "assembly is pure merge");
}

#[test]
fn checkpoint_resume_recomputes_only_the_lost_cells() {
    let experiment = tiny_experiment();
    let matrix = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip, Benchmark::Mcf])
        .techniques(&[Technique::Baseline, Technique::Noop, Technique::Abella]);
    let reference = matrix.run();

    // First run streams every completed cell into a checkpoint file.
    let dir = std::env::temp_dir().join(format!("sdiq-resume-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.ckpt");
    let _ = std::fs::remove_file(&path);
    let writer = persist::CheckpointWriter::append_to(&path).unwrap();
    let first = matrix.run_with_sink(&ArtifactCache::new(), &HashMap::new(), Some(&writer));
    drop(writer);
    assert_eq!(first, reference);

    // Simulate a kill mid-append: tear the final checkpoint line.
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 1 + 6, "header + one line per cell");
    std::fs::write(&path, &text[..text.len() - 25]).unwrap();

    // Resume: the torn cell (and only it) is missing and recomputed; the
    // resumed sweep is bit-identical to the uninterrupted one.
    let seed = persist::load_cells_any(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(seed.len(), 5, "the torn line lost exactly one cell");
    assert_eq!(matrix.missing_cells(&seed), 1);
    let cache = ArtifactCache::new();
    let resumed = matrix.run_with(&cache, &seed);
    assert_eq!(resumed, reference, "resume is bit-identical");
    assert_eq!(
        cache.program_builds(),
        1,
        "only the lost cell was recomputed"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sink_sees_computed_cells_only() {
    struct Recorder(std::sync::Mutex<Vec<String>>);
    impl CellSink for Recorder {
        fn cell_complete(&self, key: &str, _report: &sdiq::core::RunReport) {
            self.0.lock().unwrap().push(key.to_string());
        }
    }

    let experiment = tiny_experiment();
    let matrix = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip])
        .techniques(&[Technique::Baseline, Technique::Noop]);
    let recorder = Recorder(std::sync::Mutex::new(Vec::new()));
    let sweep = matrix.run_with_sink(&ArtifactCache::new(), &HashMap::new(), Some(&recorder));
    {
        let mut seen = recorder.0.lock().unwrap().clone();
        seen.sort();
        let mut expected = matrix.cell_keys();
        expected.sort();
        assert_eq!(seen, expected, "every computed cell reaches the sink once");
    }

    // A fully seeded re-run computes nothing, so the sink stays silent.
    let recorder = Recorder(std::sync::Mutex::new(Vec::new()));
    let seed: HashMap<_, _> = matrix.collect_cells(&sweep).into_iter().collect();
    let again = matrix.run_with_sink(&ArtifactCache::new(), &seed, Some(&recorder));
    assert_eq!(again, sweep);
    assert!(
        recorder.0.lock().unwrap().is_empty(),
        "seeded cells are already durable — not re-reported"
    );
}

#[test]
fn negative_savings_survive_persist_round_trips() {
    // A technique that is *worse* than its baseline must come back from a
    // save file still reporting negative savings — pct_saving's old
    // zero-baseline convention silently flattened such cases to "no
    // savings" (see sdiq_power::pct_saving).
    let experiment = tiny_experiment();
    let frugal = experiment.run(Benchmark::Gzip, Technique::Abella);
    let spender = experiment.run(Benchmark::Gzip, Technique::Baseline);
    assert!(
        spender.power.iq.dynamic > frugal.power.iq.dynamic,
        "the unmanaged baseline burns more IQ power than the gated run"
    );
    // Treat the frugal run as the reference: the spender shows negative
    // savings.
    let before = spender.compared_to(&frugal);
    assert!(before.savings.iq_dynamic_pct < 0.0);

    let mut cells = std::collections::BTreeMap::new();
    cells.insert("frugal".to_string(), frugal);
    cells.insert("spender".to_string(), spender);
    let loaded = persist::load_cells(&persist::save_cells(&cells)).unwrap();
    let after = loaded["spender"].compared_to(&loaded["frugal"]);
    assert_eq!(
        after.savings, before.savings,
        "savings recomputed from reloaded cells are bit-identical"
    );
    assert!(after.savings.iq_dynamic_pct < 0.0, "still negative");
}

/// Forward compatibility across the registry refactor: a save file written
/// by the pre-registry binary (checked in under `tests/fixtures/`, produced
/// by `repro --scale 0.02 --benchmarks gzip,mcf --techniques
/// baseline,noop,abella --save`) must seed the same matrix today with zero
/// recomputation — every key matches, every report passes the integrity
/// check, nothing is rebuilt.
#[test]
fn pre_registry_save_fixture_loads_and_recomputes_nothing() {
    let saved = include_str!("fixtures/pre_registry_save.json");
    let loaded = persist::load_cells(saved).expect("pre-registry save file parses");
    assert_eq!(loaded.len(), 6, "2 benchmarks x 3 techniques");

    let experiment = Experiment {
        scale: 0.02,
        ..Experiment::paper()
    };
    let matrix = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip, Benchmark::Mcf])
        .techniques(&[Technique::Baseline, Technique::Noop, Technique::Abella]);
    assert_eq!(
        matrix.missing_cells(&loaded),
        0,
        "registry cell keys must match the pre-registry fixture exactly"
    );

    let cache = ArtifactCache::new();
    let sweep = matrix.run_with(&cache, &loaded);
    assert_eq!(cache.program_builds(), 0, "nothing was recomputed");
    assert_eq!(cache.compile_runs(), 0, "nothing was recompiled");
    for (key, report) in matrix.collect_cells(&sweep) {
        assert_eq!(
            loaded.get(&key),
            Some(&report),
            "{key} must come from the fixture verbatim"
        );
    }
}

/// The registry's acceptance claim: a ninth technique is one descriptor
/// registration away from the full engine — matrix runs, save/load
/// round-trips and the lint walk all pick it up with no other change.
#[test]
fn a_registered_toy_technique_runs_the_full_matrix_saveload_and_lint() {
    use sdiq::compiler::{CompilerPass, PassConfig};
    use sdiq::core::{TechniqueRegistry, TechniqueSpec};
    use sdiq::power::WakeupScheme;
    use sdiq::sim::ResizePolicy;

    // One registration call. The shape deliberately composes existing
    // machinery (the low-energy pass on a fixed-size queue) rather than a
    // copy of a built-in spec.
    let toy = TechniqueRegistry::register(TechniqueSpec {
        name: "test-toy-matrix",
        pass_config: Some(PassConfig::low_energy_encoding()),
        resize_policy: ResizePolicy::Fixed,
        wakeup_scheme: WakeupScheme::NonEmptyOnly,
        bank_gating: false,
        tracks_low_energy: true,
    })
    .expect("unique name registers");
    assert_eq!(Technique::from_name("test-toy-matrix"), Some(toy));

    // Full matrix, parallel, alongside a built-in.
    let experiment = tiny_experiment();
    let matrix = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip])
        .techniques(&[Technique::Baseline, toy]);
    let sweep = matrix.run();
    let suite = sweep.suite(0);
    let report = suite.get(Benchmark::Gzip, toy).expect("toy cell ran");
    let baseline = suite.get(Benchmark::Gzip, Technique::Baseline).unwrap();
    assert_eq!(
        report.stats.committed, baseline.stats.committed,
        "fixed-queue toy technique commits the baseline's work"
    );
    assert!(
        report.stats.committed_low_energy > 0,
        "the toy technique's pass really ran"
    );

    // Save/load round-trip through the cell-key and JSON codecs.
    let cells = matrix.collect_cells(&sweep);
    assert!(cells.keys().any(|k| k.contains("|test-toy-matrix|")));
    let loaded = persist::load_cells(&persist::save_cells(&cells)).unwrap();
    assert_eq!(matrix.missing_cells(&loaded), 0);
    for (key, report) in &cells {
        assert_eq!(loaded.get(key), Some(report), "{key} must round-trip");
    }

    // The lint walk's per-technique compile check (what `repro lint` runs).
    let program = Benchmark::Gzip.build_scaled(experiment.scale);
    let pass = toy
        .pass_config_for(
            experiment.sim_config.widths,
            experiment.sim_config.fu_counts,
        )
        .expect("toy technique declares a pass");
    let compiled = CompilerPass::new(pass)
        .run_verified(&program, Box::new(sdiq::verify::StandardVerifier))
        .expect("inter-pass verification is clean");
    let diags = sdiq::verify::verify_compiled(&compiled);
    assert!(
        !diags
            .iter()
            .any(|d| d.severity == sdiq::verify::Severity::Error),
        "lint finds no errors in the toy technique's compile: {diags:?}"
    );
}

#[test]
fn sweep_sensitivity_reports_every_variant() {
    let experiment = tiny_experiment();
    let sweep: Sweep = Matrix::new(&experiment)
        .benchmarks(&[Benchmark::Gzip])
        .techniques(&[Technique::Baseline, Technique::Noop])
        .sweep_iq_entries(&[48, 32])
        .run();
    let rows = sdiq::core::sweep_sensitivity(&sweep, &[Technique::Noop]);
    assert_eq!(rows.len(), 3, "base, iq48, iq32");
    assert_eq!(rows[0].variant, "base");
    assert_eq!(rows[1].iq_entries, 48);
    assert_eq!(rows[2].iq_entries, 32);
    for row in &rows {
        assert!(row.summary.iq_dynamic_pct.is_finite());
    }
    let rendered = sdiq::core::render_sweep_sensitivity(&rows);
    assert!(rendered.contains("variant base"));
    assert!(rendered.contains("variant iq32"));
}
