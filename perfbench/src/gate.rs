//! The correctness gate: a serial run of the interpreted simulator backend
//! over the same cells is the reference every run must reproduce, cell by
//! cell and byte for byte.

use crate::workload::Workload;
use sdiq_core::{persist, ArtifactCache, RunReport, SimBackend};
use std::collections::{BTreeMap, HashMap};

/// The reference result of one workload instance.
#[derive(Debug)]
pub struct Reference {
    /// Every cell's report, keyed by cell key.
    pub cells: BTreeMap<String, RunReport>,
    /// The save-file bytes of `cells`.
    pub save: String,
}

impl Reference {
    /// Runs every cell of `workload` serially on the interpreted backend
    /// (the oracle the compiled backend is tested against).
    pub fn compute(workload: &Workload) -> Reference {
        let mut experiment = workload.experiment();
        experiment.backend = SimBackend::Interpreted;
        let matrix = workload.matrix(&experiment).jobs(1);
        let cache = ArtifactCache::new();
        cache.set_verify(false);
        let sweep = matrix.run_with(&cache, &HashMap::new());
        let cells = matrix.collect_cells(&sweep);
        let save = persist::save_cells(&cells);
        Reference { cells, save }
    }

    /// Checks one run's save-file text against the reference: unparseable
    /// text fails every cell. Bytes equal to the reference's encode
    /// exactly the reference cells, so only a differing save is parsed to
    /// count the cells that differ.
    pub fn check_save(&self, save: &str) -> Outcome {
        if save == self.save {
            return Outcome {
                attempted: self.cells.len() as u64,
                failed: 0,
                bytes_equal: true,
            };
        }
        match persist::load_cells(save) {
            Ok(cells) => Outcome {
                attempted: self.cells.len() as u64,
                failed: failed_cells(&self.cells, &cells.into_iter().collect()),
                bytes_equal: false,
            },
            Err(_) => self.all_failed(),
        }
    }

    /// The outcome of a run that produced nothing usable.
    pub fn all_failed(&self) -> Outcome {
        Outcome {
            attempted: self.cells.len() as u64,
            failed: self.cells.len() as u64,
            bytes_equal: false,
        }
    }
}

/// The verdict on one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Cells the run was asked for.
    pub attempted: u64,
    /// Cells missing, different from the reference, or foreign.
    pub failed: u64,
    /// Whether the save bytes equal the reference's.
    pub bytes_equal: bool,
}

impl Outcome {
    /// `true` if every cell matched and the bytes are identical.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.bytes_equal
    }

    /// Adds another run's counts to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bytes_equal &= other.bytes_equal;
    }
}

/// Cells of `expected` that `actual` misses or reports differently, plus
/// any cell `actual` holds that `expected` does not (a foreign key, capped
/// so failures never exceed the attempted count).
pub fn failed_cells(
    expected: &BTreeMap<String, RunReport>,
    actual: &BTreeMap<String, RunReport>,
) -> u64 {
    let wrong = expected
        .iter()
        .filter(|(key, report)| actual.get(*key) != Some(report))
        .count();
    let foreign = actual.keys().filter(|k| !expected.contains_key(*k)).count();
    (wrong + foreign).min(expected.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdiq_core::{Experiment, Technique};
    use sdiq_workloads::Benchmark;

    fn reports() -> BTreeMap<String, RunReport> {
        let experiment = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        [Technique::Baseline, Technique::Noop, Technique::Abella]
            .into_iter()
            .map(|t| (t.name().to_string(), experiment.run(Benchmark::Gzip, t)))
            .collect()
    }

    #[test]
    fn identical_runs_fail_nothing() {
        let expected = reports();
        assert_eq!(failed_cells(&expected, &expected.clone()), 0);
    }

    #[test]
    fn missing_changed_and_foreign_cells_each_count() {
        let expected = reports();
        let mut actual = expected.clone();
        actual.remove("noop");
        assert_eq!(failed_cells(&expected, &actual), 1, "missing");
        actual = expected.clone();
        actual.get_mut("abella").unwrap().stats.cycles += 1;
        assert_eq!(failed_cells(&expected, &actual), 1, "changed");
        actual.insert("stray".to_string(), expected["noop"].clone());
        assert_eq!(failed_cells(&expected, &actual), 2, "changed + foreign");
        assert_eq!(failed_cells(&expected, &BTreeMap::new()), 3, "empty run");
    }

    #[test]
    fn outcomes_fail_on_bytes_or_cells() {
        let cells = reports();
        let save = persist::save_cells(&cells);
        let reference = Reference {
            cells: cells.clone(),
            save: save.clone(),
        };
        assert!(reference.check_save(&save).correct());
        let garbage = reference.check_save("not json");
        assert_eq!((garbage.attempted, garbage.failed), (3, 3));
        let mut changed = cells.clone();
        changed.get_mut("noop").unwrap().adaptive_resizes += 1;
        let outcome = reference.check_save(&persist::save_cells(&changed));
        assert_eq!(outcome.failed, 1);
        assert!(!outcome.correct());
        let mut total = Outcome {
            bytes_equal: true,
            ..Outcome::default()
        };
        total.absorb(reference.check_save(&save));
        total.absorb(outcome);
        assert_eq!((total.attempted, total.failed), (6, 1));
        assert!(!total.correct());
    }
}
