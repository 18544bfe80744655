//! Issue-queue resizing policies.
//!
//! Three ways of controlling how many instructions may be resident:
//!
//! * [`ResizePolicy::Fixed`] — the unmanaged baseline: the full 80-entry
//!   queue is always available.
//! * [`ResizePolicy::SoftwareHint`] — the paper's technique: compiler hints
//!   (special NOOPs or instruction tags) set `new_head` / `max_new_range`.
//! * [`ResizePolicy::Adaptive`] — a reimplementation of the hardware
//!   comparator the paper evaluates against (Abella & González's IqRob
//!   adaptive issue queue + ROB, built on Folegnani & González's
//!   youngest-portion heuristic): at the end of each measurement interval
//!   the usable queue shrinks by one bank if the youngest bank contributed
//!   almost nothing to issue, and it is periodically expanded to probe for
//!   lost performance. The reaction lag of this feedback loop on phase
//!   changes is what costs it IPC relative to the software approach (§1,
//!   §5.2).

use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Parameters of the adaptive (Abella-style) controller.
///
/// Equality and hashing are exact: the two `f64` fields compare by bit
/// pattern (the approach cache keys take for workload scales), so the
/// config can key a replay artifact without aliasing two thresholds that
/// happen to compare equal as floats.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Length of a measurement interval in cycles.
    pub interval_cycles: u64,
    /// Resize granularity in entries (one bank).
    pub bank_entries: usize,
    /// Minimum usable entries.
    pub min_entries: usize,
    /// The queue shrinks by one bank when the fraction of issued
    /// instructions coming from the youngest bank over an interval is below
    /// this threshold (Folegnani & González's "contribution of the youngest
    /// portion to IPC").
    pub youngest_contribution_threshold: f64,
    /// Every this many intervals, the queue grows by one bank to probe
    /// whether the extra entries would contribute again.
    pub expand_period_intervals: u64,
    /// Also limit the reorder buffer to `rob_ratio ×` the issue-queue limit
    /// (the IqRob technique resizes both structures together).
    pub rob_ratio: f64,
}

impl AdaptiveConfig {
    /// Parameters tuned for the 80-entry, 10-bank queue of Table 1 — the
    /// `IqRob64` configuration the paper compares against.
    pub fn iqrob64() -> Self {
        AdaptiveConfig {
            interval_cycles: 1000,
            bank_entries: 8,
            min_entries: 16,
            youngest_contribution_threshold: 0.05,
            expand_period_intervals: 6,
            rob_ratio: 1.6,
        }
    }

    /// Every field as an exact integer, floats by bit pattern.
    fn bits(&self) -> (u64, usize, usize, u64, u64, u64) {
        (
            self.interval_cycles,
            self.bank_entries,
            self.min_entries,
            self.youngest_contribution_threshold.to_bits(),
            self.expand_period_intervals,
            self.rob_ratio.to_bits(),
        )
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig::iqrob64()
    }
}

impl PartialEq for AdaptiveConfig {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for AdaptiveConfig {}

impl Hash for AdaptiveConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bits().hash(state);
    }
}

/// The resizing policy a simulation runs with. Exact `Eq`/`Hash` (see
/// [`AdaptiveConfig`]), so a policy is part of a replay's cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResizePolicy {
    /// Full queue, never resized (baseline and `nonEmpty` runs).
    Fixed,
    /// Compiler-directed resizing via `new_head` / `max_new_range`.
    SoftwareHint,
    /// Hardware adaptive resizing (Abella & González comparator).
    Adaptive(AdaptiveConfig),
}

impl ResizePolicy {
    /// `true` if compiler hints should be honoured at dispatch.
    pub fn uses_hints(&self) -> bool {
        matches!(self, ResizePolicy::SoftwareHint)
    }

    /// `true` if the adaptive controller should run.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, ResizePolicy::Adaptive(_))
    }
}

/// Decision produced by the adaptive controller at an interval boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveDecision {
    /// New usable issue-queue entries.
    pub iq_limit: usize,
    /// New usable reorder-buffer entries.
    pub rob_limit: usize,
}

/// Per-cycle observation fed to the adaptive controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveObservation {
    /// Instructions issued this cycle.
    pub issued: u32,
    /// Of those, instructions issued from the youngest bank-sized portion of
    /// the queue (closest to the tail).
    pub issued_from_youngest_bank: u32,
}

/// Runtime state of the adaptive controller.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    config: AdaptiveConfig,
    capacity: usize,
    rob_capacity: usize,
    limit: usize,
    interval_start: u64,
    issued_in_interval: u64,
    issued_youngest_in_interval: u64,
    intervals_since_expand: u64,
    resizes: u64,
}

impl AdaptiveController {
    /// Creates a controller for a queue of `capacity` entries and a ROB of
    /// `rob_capacity` entries, starting with the full queue usable.
    pub fn new(config: AdaptiveConfig, capacity: usize, rob_capacity: usize) -> Self {
        AdaptiveController {
            config,
            capacity,
            rob_capacity,
            limit: capacity,
            interval_start: 0,
            issued_in_interval: 0,
            issued_youngest_in_interval: 0,
            intervals_since_expand: 0,
            resizes: 0,
        }
    }

    /// Current usable issue-queue entries.
    pub fn iq_limit(&self) -> usize {
        self.limit
    }

    /// Current usable reorder-buffer entries.
    ///
    /// The IqRob coupling never runs the ROB below `min_entries ×
    /// rob_ratio`: the issue-queue limit itself never drops below
    /// `min_entries`, so a floor of `bank_entries` (which is smaller) would
    /// let a machine whose *capacity* is below `min_entries` — e.g. an
    /// `iq=8` sensitivity sweep — clamp the ROB tighter than the coupling
    /// implies.
    pub fn rob_limit(&self) -> usize {
        let floor = ((self.config.min_entries as f64) * self.config.rob_ratio).round() as usize;
        (((self.limit as f64) * self.config.rob_ratio).round() as usize)
            .clamp(floor.min(self.rob_capacity), self.rob_capacity)
    }

    /// Number of resize decisions taken so far.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Feeds one cycle of observation into the controller and returns a new
    /// decision at interval boundaries.
    pub fn on_cycle(
        &mut self,
        cycle: u64,
        observation: AdaptiveObservation,
    ) -> Option<AdaptiveDecision> {
        self.issued_in_interval += u64::from(observation.issued);
        self.issued_youngest_in_interval += u64::from(observation.issued_from_youngest_bank);
        if cycle < self.interval_start + self.config.interval_cycles {
            return None;
        }

        // Interval boundary: decide.
        let old_limit = self.limit;
        self.intervals_since_expand += 1;
        let probe_due = self.intervals_since_expand >= self.config.expand_period_intervals;
        // The probe is *taken* only when it actually grows the queue. At
        // full capacity there is nothing to probe: consuming the interval
        // anyway would skip the shrink check below and delay the
        // Folegnani-style feedback by a whole interval. (The expand clock
        // keeps running while saturated, so the first boundary after a
        // shrink re-probes — the probe is overdue by then.)
        let probed = probe_due && self.limit < self.capacity;
        if probed {
            // Periodic probing expansion.
            self.limit = (self.limit + self.config.bank_entries).min(self.capacity);
            self.intervals_since_expand = 0;
        } else if self.issued_in_interval > 0 {
            let youngest_fraction =
                self.issued_youngest_in_interval as f64 / self.issued_in_interval as f64;
            if youngest_fraction < self.config.youngest_contribution_threshold
                && self.limit > self.config.min_entries
            {
                self.limit = (self.limit - self.config.bank_entries).max(self.config.min_entries);
            }
        }
        if self.limit != old_limit {
            self.resizes += 1;
        }

        self.interval_start = cycle;
        self.issued_in_interval = 0;
        self.issued_youngest_in_interval = 0;
        Some(AdaptiveDecision {
            iq_limit: self.limit,
            rob_limit: self.rob_limit(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AdaptiveController {
        AdaptiveController::new(AdaptiveConfig::iqrob64(), 80, 128)
    }

    /// Drives the controller through exactly one interval boundary, feeding a
    /// constant per-cycle observation, and returns the boundary decision.
    /// `cursor` tracks the continuous cycle count across calls.
    fn run_interval(
        c: &mut AdaptiveController,
        cursor: &mut u64,
        issued: u32,
        youngest: u32,
    ) -> AdaptiveDecision {
        loop {
            let d = c.on_cycle(
                *cursor,
                AdaptiveObservation {
                    issued,
                    issued_from_youngest_bank: youngest,
                },
            );
            *cursor += 1;
            if let Some(decision) = d {
                return decision;
            }
        }
    }

    #[test]
    fn starts_with_full_queue() {
        let c = controller();
        assert_eq!(c.iq_limit(), 80);
        assert_eq!(c.rob_limit(), 128);
    }

    #[test]
    fn shrinks_when_youngest_bank_contributes_nothing() {
        let mut c = controller();
        let mut cursor = 0;
        let d = run_interval(&mut c, &mut cursor, 4, 0);
        assert_eq!(d.iq_limit, 72);
        assert!(d.rob_limit < 128);
        assert_eq!(c.resizes(), 1);
    }

    #[test]
    fn holds_size_when_youngest_bank_contributes() {
        let mut c = controller();
        let mut cursor = 0;
        // 25% of issues come from the youngest bank → no shrink.
        let d = run_interval(&mut c, &mut cursor, 4, 1);
        assert_eq!(d.iq_limit, 80);
    }

    #[test]
    fn periodic_probing_grows_the_queue_back() {
        let mut c = controller();
        let mut cursor = 0;
        // Shrink for a few intervals...
        for _ in 0..3 {
            let _ = run_interval(&mut c, &mut cursor, 4, 0);
        }
        assert!(c.iq_limit() < 80);
        // ...then keep going: every `expand_period_intervals`-th interval
        // grows the queue by a bank even though the workload has not changed.
        let mut grew = false;
        let mut previous = c.iq_limit();
        for _ in 0..AdaptiveConfig::iqrob64().expand_period_intervals + 2 {
            let d = run_interval(&mut c, &mut cursor, 4, 0);
            if d.iq_limit > previous {
                grew = true;
            }
            previous = d.iq_limit;
        }
        assert!(grew, "periodic expansion should have probed a larger queue");
    }

    #[test]
    fn never_shrinks_below_minimum() {
        let mut c = controller();
        let mut cursor = 0;
        for _ in 0..40 {
            let _ = run_interval(&mut c, &mut cursor, 2, 0);
        }
        assert!(c.iq_limit() >= AdaptiveConfig::iqrob64().min_entries);
        assert!(c.rob_limit() >= AdaptiveConfig::iqrob64().bank_entries);
    }

    #[test]
    fn adaptation_takes_a_full_interval() {
        // The controller cannot react faster than its interval — the lag the
        // paper's software approach avoids.
        let mut c = controller();
        for cycle in 0..500u64 {
            assert!(c
                .on_cycle(
                    cycle,
                    AdaptiveObservation {
                        issued: 4,
                        issued_from_youngest_bank: 0
                    }
                )
                .is_none());
        }
        assert_eq!(c.iq_limit(), 80);
    }

    #[test]
    fn saturated_at_capacity_probe_does_not_swallow_the_shrink_check() {
        // Regression: the periodic probe used to "fire" (reset its clock and
        // skip the shrink check) even when the queue was already at full
        // capacity and the expansion was a no-op, so a queue that became
        // useless exactly on the probe interval shrank one interval late.
        let mut c = controller();
        let mut cursor = 0;
        // Five intervals where the youngest bank contributes (no shrink, no
        // probe yet): the expand clock reaches the probe period.
        for _ in 0..AdaptiveConfig::iqrob64().expand_period_intervals - 1 {
            let d = run_interval(&mut c, &mut cursor, 4, 1);
            assert_eq!(d.iq_limit, 80);
        }
        // Probe interval, still at capacity, youngest bank suddenly useless:
        // the no-op probe must not consume the interval — the shrink check
        // runs and the queue drops a bank *now*, not next interval.
        let d = run_interval(&mut c, &mut cursor, 4, 0);
        assert_eq!(
            d.iq_limit, 72,
            "shrink must not be delayed by a no-op probe"
        );
        assert_eq!(c.resizes(), 1);
    }

    #[test]
    fn probe_clock_keeps_running_while_saturated() {
        // While the queue sits at capacity the probe cannot take; once a
        // shrink happens the (overdue) probe fires at the next boundary.
        let mut c = controller();
        let mut cursor = 0;
        for _ in 0..2 * AdaptiveConfig::iqrob64().expand_period_intervals {
            let d = run_interval(&mut c, &mut cursor, 4, 1);
            assert_eq!(d.iq_limit, 80, "contributing youngest bank holds size");
        }
        let d = run_interval(&mut c, &mut cursor, 4, 0);
        assert_eq!(d.iq_limit, 72);
        let d = run_interval(&mut c, &mut cursor, 4, 0);
        assert_eq!(d.iq_limit, 80, "overdue probe fires right after the shrink");
        assert_eq!(c.resizes(), 2);
    }

    #[test]
    fn rob_floor_follows_min_entries_not_bank_entries() {
        // An adaptive run on a machine whose whole queue is smaller than
        // `min_entries` (an `iq=8` sensitivity sweep): the raw coupling
        // would give round(8 × 1.6) = 13, but the IqRob floor is
        // min_entries × rob_ratio = round(16 × 1.6) = 26 — the old
        // `bank_entries` floor (8) let the tighter value through.
        let c = AdaptiveController::new(AdaptiveConfig::iqrob64(), 8, 128);
        assert_eq!(c.iq_limit(), 8);
        assert_eq!(c.rob_limit(), 26);
    }

    #[test]
    fn rob_floor_at_the_min_entries_boundary() {
        // Shrink the standard machine all the way to `min_entries`: the ROB
        // sits exactly on the coupled floor and never below it.
        let mut c = controller();
        let mut cursor = 0;
        for _ in 0..40 {
            let _ = run_interval(&mut c, &mut cursor, 2, 0);
        }
        let config = AdaptiveConfig::iqrob64();
        let floor = ((config.min_entries as f64) * config.rob_ratio).round() as usize;
        assert_eq!(floor, 26);
        assert!(
            c.rob_limit() >= floor,
            "ROB never below min_entries × ratio"
        );
        if c.iq_limit() == config.min_entries {
            assert_eq!(c.rob_limit(), floor);
        }
    }

    #[test]
    fn rob_floor_is_capped_by_the_rob_capacity() {
        // A tiny ROB: the floor cannot exceed what the machine has.
        let c = AdaptiveController::new(AdaptiveConfig::iqrob64(), 8, 20);
        assert_eq!(c.rob_limit(), 20);
    }

    #[test]
    fn idle_intervals_do_not_shrink_the_queue() {
        let mut c = controller();
        let mut cursor = 0;
        let d = run_interval(&mut c, &mut cursor, 0, 0);
        // Nothing issued → no evidence the youngest bank is useless.
        assert_eq!(d.iq_limit, 80);
    }

    /// Naive reference reimplementation of the adaptive controller: plain
    /// interval accumulation and the Folegnani/Abella decision rule, written
    /// for obviousness rather than for the simulator hot path. The
    /// differential property below pins `AdaptiveController` to it.
    struct ReferenceModel {
        config: AdaptiveConfig,
        capacity: usize,
        rob_capacity: usize,
        limit: usize,
        interval_start: u64,
        issued: u64,
        youngest: u64,
        since_expand: u64,
    }

    impl ReferenceModel {
        fn new(config: AdaptiveConfig, capacity: usize, rob_capacity: usize) -> Self {
            ReferenceModel {
                config,
                capacity,
                rob_capacity,
                limit: capacity,
                interval_start: 0,
                issued: 0,
                youngest: 0,
                since_expand: 0,
            }
        }

        fn rob_limit(&self) -> usize {
            let floor = ((self.config.min_entries as f64) * self.config.rob_ratio).round() as usize;
            (((self.limit as f64) * self.config.rob_ratio).round() as usize)
                .clamp(floor.min(self.rob_capacity), self.rob_capacity)
        }

        fn on_cycle(&mut self, cycle: u64, obs: AdaptiveObservation) -> Option<AdaptiveDecision> {
            self.issued += u64::from(obs.issued);
            self.youngest += u64::from(obs.issued_from_youngest_bank);
            if cycle < self.interval_start + self.config.interval_cycles {
                return None;
            }
            self.since_expand += 1;
            if self.since_expand >= self.config.expand_period_intervals
                && self.limit < self.capacity
            {
                self.limit = (self.limit + self.config.bank_entries).min(self.capacity);
                self.since_expand = 0;
            } else if self.issued > 0
                && (self.youngest as f64 / self.issued as f64)
                    < self.config.youngest_contribution_threshold
                && self.limit > self.config.min_entries
            {
                self.limit = (self.limit - self.config.bank_entries).max(self.config.min_entries);
            }
            self.interval_start = cycle;
            self.issued = 0;
            self.youngest = 0;
            Some(AdaptiveDecision {
                iq_limit: self.limit,
                rob_limit: self.rob_limit(),
            })
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random `(issued, issued_from_youngest)` cycle streams over
            /// random bank-aligned geometries: the controller's limits stay
            /// within `[min_entries, capacity]`, every decision moves by at
            /// most exactly one bank, `resizes` counts every transition,
            /// the ROB limit respects its coupled floor and the machine
            /// capacity — and the whole decision sequence is identical to
            /// the naive reference model's.
            #[test]
            fn controller_matches_reference_and_keeps_invariants(
                cycles in prop::collection::vec((0u32..9u32, 0u32..9u32), 1..600),
                banks_above_min in 0usize..9usize,
                interval in 1u64..40u64,
                period in 1u64..8u64,
                threshold_millis in 0u64..900u64,
                rob_capacity in 16usize..257usize,
            ) {
                let config = AdaptiveConfig {
                    interval_cycles: interval,
                    expand_period_intervals: period,
                    youngest_contribution_threshold: threshold_millis as f64 / 1000.0,
                    ..AdaptiveConfig::iqrob64()
                };
                // Bank-aligned capacity so resizes are always whole banks.
                let capacity = config.min_entries + banks_above_min * config.bank_entries;
                let mut controller = AdaptiveController::new(config, capacity, rob_capacity);
                let mut reference = ReferenceModel::new(config, capacity, rob_capacity);
                let rob_floor = ((config.min_entries as f64) * config.rob_ratio).round() as usize;

                let mut previous_limit = controller.iq_limit();
                let mut transitions = 0u64;
                for (cycle, &(issued, youngest)) in cycles.iter().enumerate() {
                    let observation = AdaptiveObservation {
                        issued,
                        issued_from_youngest_bank: youngest.min(issued),
                    };
                    let decision = controller.on_cycle(cycle as u64, observation);
                    let expected = reference.on_cycle(cycle as u64, observation);
                    prop_assert!(
                        decision == expected,
                        "differential divergence at cycle {}: {:?} vs reference {:?}",
                        cycle,
                        decision,
                        expected
                    );

                    if let Some(decision) = decision {
                        prop_assert!(decision.iq_limit >= config.min_entries.min(capacity));
                        prop_assert!(decision.iq_limit <= capacity);
                        let moved = decision.iq_limit.abs_diff(previous_limit);
                        prop_assert!(
                            moved == 0 || moved == config.bank_entries,
                            "limit moved {} → {} (bank is {})",
                            previous_limit,
                            decision.iq_limit,
                            config.bank_entries
                        );
                        if moved != 0 {
                            transitions += 1;
                        }
                        previous_limit = decision.iq_limit;

                        prop_assert!(decision.rob_limit <= rob_capacity);
                        prop_assert!(decision.rob_limit >= rob_floor.min(rob_capacity));
                        prop_assert_eq!(decision.rob_limit, controller.rob_limit());
                    }
                }
                prop_assert!(
                    controller.resizes() == transitions,
                    "resizes {} must count every transition ({})",
                    controller.resizes(),
                    transitions
                );
            }
        }
    }

    #[test]
    fn policy_helpers() {
        assert!(ResizePolicy::SoftwareHint.uses_hints());
        assert!(!ResizePolicy::Fixed.uses_hints());
        assert!(ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()).is_adaptive());
        assert!(!ResizePolicy::SoftwareHint.is_adaptive());
    }

    /// Policies key replay artifacts, so equality and hashing are exact:
    /// one changed float bit is a different key, `-0.0` is not `0.0`, and
    /// a NaN threshold still equals itself.
    #[test]
    fn adaptive_policies_compare_and_hash_by_bit_pattern() {
        use std::collections::hash_map::DefaultHasher;
        fn hash(policy: ResizePolicy) -> u64 {
            let mut hasher = DefaultHasher::new();
            policy.hash(&mut hasher);
            hasher.finish()
        }
        let base = AdaptiveConfig::iqrob64();
        let nudged = AdaptiveConfig {
            youngest_contribution_threshold: f64::from_bits(
                base.youngest_contribution_threshold.to_bits() + 1,
            ),
            ..base
        };
        let (a, b) = (ResizePolicy::Adaptive(base), ResizePolicy::Adaptive(nudged));
        assert_eq!(a, ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()));
        assert_eq!(hash(a), hash(ResizePolicy::Adaptive(base)));
        assert_ne!(a, b);
        assert_ne!(hash(a), hash(b));
        let zero = AdaptiveConfig {
            rob_ratio: 0.0,
            ..base
        };
        let negative_zero = AdaptiveConfig {
            rob_ratio: -0.0,
            ..base
        };
        assert_ne!(zero, negative_zero);
        let nan = AdaptiveConfig {
            youngest_contribution_threshold: f64::NAN,
            ..base
        };
        assert_eq!(nan, nan);
        assert_ne!(ResizePolicy::Fixed, ResizePolicy::SoftwareHint);
        assert_ne!(ResizePolicy::Fixed, a);
    }
}
