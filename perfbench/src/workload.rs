//! The benchmark's workloads and how the seed shapes their inputs.
//!
//! All three run the default `repro` matrix: every benchmark × every
//! registered technique at the default reproduction scale on the base
//! Table-1 machine. `suite` and `fleet` run exactly that matrix, whose
//! programs are fixed per benchmark by each profile's own generator seed,
//! so `--seed` does not change their inputs. `sweep` adds three smaller
//! issue-queue capacities drawn by the seed from [`IQ_MENU`], so every
//! seed gives a sweep of the same size.

use sdiq_core::{Experiment, Matrix, MatrixSpec, Technique};
use sdiq_workloads::Benchmark;

/// The seed the benchmark documents its figures with.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, for checking a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 7;

/// Issue-queue capacities `sweep` draws from (16 to 56 in steps of 8; the
/// base machine has 80 entries).
pub const IQ_MENU: [usize; 6] = [16, 24, 32, 40, 48, 56];

/// How many capacities `sweep` adds next to the base machine.
pub const SWEEP_POINTS: usize = 3;

/// Which workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The default `repro` matrix on the in-process engine.
    Suite,
    /// The matrix plus three seed-drawn IQ capacities, verification on.
    Sweep,
    /// The `suite` matrix over two fresh localhost worker daemons.
    Fleet,
}

impl Kind {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "suite" => Some(Kind::Suite),
            "sweep" => Some(Kind::Sweep),
            "fleet" => Some(Kind::Fleet),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Suite => "suite",
            Kind::Sweep => "sweep",
            Kind::Fleet => "fleet",
        }
    }
}

/// One workload instance: the kind plus everything the seed decided.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed it was drawn with.
    pub seed: u64,
    /// The matrix every run of this instance executes.
    pub spec: MatrixSpec,
}

impl Workload {
    /// The workload `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let sweeps = match kind {
            Kind::Sweep => {
                let caps = draw_capacities(seed);
                vec![("iq".to_string(), caps.iter().map(|&c| c as f64).collect())]
            }
            Kind::Suite | Kind::Fleet => Vec::new(),
        };
        Workload {
            kind,
            seed,
            spec: MatrixSpec {
                scale: Experiment::paper().scale,
                sweeps,
                benchmarks: Benchmark::ALL
                    .iter()
                    .map(|b| b.name().to_string())
                    .collect(),
                techniques: Technique::all()
                    .iter()
                    .map(|t| t.name().to_string())
                    .collect(),
            },
        }
    }

    /// Whether the artifact cache verifies every artifact it builds.
    pub fn verify(&self) -> bool {
        self.kind == Kind::Sweep
    }

    /// The experiment this workload's matrix runs under.
    pub fn experiment(&self) -> Experiment {
        self.spec.experiment()
    }

    /// The matrix over `experiment` (which must come from
    /// [`Workload::experiment`]).
    pub fn matrix<'a>(&self, experiment: &'a Experiment) -> Matrix<'a> {
        self.spec
            .matrix(experiment)
            .unwrap_or_else(|e| unreachable!("the benchmark's own spec is valid: {e}"))
    }

    /// One line saying what the seed did.
    pub fn describe(&self) -> String {
        match &self.spec.sweeps[..] {
            [(_, caps)] => format!(
                "{}: base machine + iq={} drawn by seed {} from {:?}",
                self.kind.name(),
                caps.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                self.seed,
                IQ_MENU
            ),
            _ => format!(
                "{}: fixed paper matrix; programs are fixed per benchmark by their \
                 profile seed, so seed {} does not change the inputs",
                self.kind.name(),
                self.seed
            ),
        }
    }
}

/// SplitMix64: a tiny, well-mixed generator, enough to draw a few menu
/// entries reproducibly from a seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws [`SWEEP_POINTS`] distinct capacities from [`IQ_MENU`] (a partial
/// Fisher–Yates shuffle), largest first.
pub fn draw_capacities(seed: u64) -> [usize; SWEEP_POINTS] {
    let mut menu = IQ_MENU;
    let mut state = seed;
    for i in 0..SWEEP_POINTS {
        let j = i + (splitmix64(&mut state) % (menu.len() - i) as u64) as usize;
        menu.swap(i, j);
    }
    let mut drawn = [0; SWEEP_POINTS];
    drawn.copy_from_slice(&menu[..SWEEP_POINTS]);
    drawn.sort_unstable_by(|a, b| b.cmp(a));
    drawn
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(kind: Kind, seed: u64) -> Vec<String> {
        let workload = Workload::new(kind, seed);
        let experiment = workload.experiment();
        workload.matrix(&experiment).cell_keys()
    }

    #[test]
    fn same_seed_gives_the_same_cell_keys() {
        for kind in [Kind::Suite, Kind::Sweep, Kind::Fleet] {
            assert_eq!(keys(kind, 3), keys(kind, 3), "{}", kind.name());
        }
    }

    #[test]
    fn every_seed_gives_the_same_cell_count() {
        let cells = Benchmark::ALL.len() * Technique::all().len();
        for seed in 0..50 {
            assert_eq!(keys(Kind::Suite, seed).len(), cells);
            assert_eq!(keys(Kind::Fleet, seed).len(), cells);
            assert_eq!(keys(Kind::Sweep, seed).len(), cells * (1 + SWEEP_POINTS));
        }
    }

    #[test]
    fn seeds_change_the_sweep_but_not_the_suite() {
        assert_eq!(keys(Kind::Suite, 1), keys(Kind::Suite, 2));
        assert_eq!(keys(Kind::Suite, 1), keys(Kind::Fleet, 9));
        let distinct: std::collections::BTreeSet<[usize; SWEEP_POINTS]> =
            (0..50).map(draw_capacities).collect();
        assert!(distinct.len() > 5, "seeds spread over the menu");
    }

    #[test]
    fn drawn_capacities_are_distinct_menu_entries() {
        for seed in 0..200 {
            let caps = draw_capacities(seed);
            assert!(caps.iter().all(|c| IQ_MENU.contains(c)));
            assert!(caps[0] > caps[1] && caps[1] > caps[2], "{caps:?}");
        }
    }
}
