//! The techniques compared in the evaluation, as an open registry.
//!
//! A [`Technique`] used to be a closed six-variant enum with its behaviour
//! scattered across hard-wired `match` arms. It is now an index into the
//! process-wide [`TechniqueRegistry`]: each technique is *data* — a
//! [`TechniqueSpec`] descriptor holding a stable wire name, an optional
//! compiler [`PassConfig`], a [`ResizePolicy`] and a [`WakeupScheme`] —
//! registered once and consulted by every dispatch site (the runner, the
//! matrix engine's cell keys, the persist codecs, the remote fleet's
//! fingerprints, the `repro` CLI and the lint walk). Adding a technique is
//! one [`TechniqueRegistry::register`] call; nothing else changes.
//!
//! # Wire-name stability rules
//!
//! The spec's `name` is the *wire format*: it appears in cell keys, save
//! files, checkpoints, `MatrixSpec` fingerprints and both remote codecs.
//! Therefore:
//!
//! * a name, once shipped in a save file, must never be renamed or reused
//!   for a different descriptor;
//! * the six paper techniques keep their historical names and registration
//!   order (`baseline`, `nonEmpty`, `noop`, `extension`, `improved`,
//!   `abella`) — [`Suite`](crate::Suite) summaries iterate in registration
//!   order, so reordering would silently reorder persisted output;
//! * decoding an unknown name fails loudly (this is what lets mixed-version
//!   fleets refuse version skew instead of mis-attributing results).
//!
//! The ordering contract is pinned by `registration_order_is_stable` below.

use sdiq_compiler::PassConfig;
use sdiq_power::WakeupScheme;
use sdiq_sim::{AdaptiveConfig, ResizePolicy};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

/// Everything the experiment layer needs to know about one technique.
///
/// A descriptor is pure data; registering it (see
/// [`TechniqueRegistry::register`]) is the *only* step needed to make a new
/// technique runnable through the full matrix, save/load and lint paths.
///
/// # Annotation-only passes
///
/// When a technique's pass only annotates the program — its output equals
/// its input once `iq_hint` tags and `low_energy` marks are ignored — and
/// its resize policy ignores hints, the matrix engine does not lower or
/// replay the compiled program. It prices the source program's plan and
/// replay instead, recounting only `committed_low_energy` for the
/// compiled program. The engine checks this by content each time a
/// compile is cached ([`crate::CompiledArtifact::annotates_only`]), never
/// by technique name or emission kind, so a pass that inserts even one
/// hint NOOP gets its own plan and replay. A technique whose timing
/// should depend on something else the pass writes must therefore write
/// it into the program's timing content, not only into a tag or a mark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechniqueSpec {
    /// Stable wire name (figure label, cell-key component, persist/codec
    /// token). See the module docs for the stability rules.
    pub name: &'static str,
    /// The compiler pass the technique needs, if any, configured for the
    /// paper's Table 1 machine. Sweeps retarget it per machine via
    /// [`PassConfig::retargeted`].
    pub pass_config: Option<PassConfig>,
    /// The simulator resize policy the technique runs with.
    pub resize_policy: ResizePolicy,
    /// The wakeup accounting scheme used when turning activity into energy.
    pub wakeup_scheme: WakeupScheme,
    /// `true` if the configuration can switch unused issue-queue and
    /// register-file banks off.
    pub bank_gating: bool,
    /// `true` if the technique produces the `committed_low_energy` counter.
    /// Declared here (not sniffed from the value) because the binary codec
    /// needs a *deterministic* field layout per technique: the counter is
    /// serialised if and only if the spec declares it, which keeps the six
    /// paper techniques' saved bytes unchanged.
    pub tracks_low_energy: bool,
}

impl TechniqueSpec {
    /// The built-in seed set, in the paper's figure order. Index = the
    /// `Technique` each one resolves to, so this order is load-bearing (see
    /// the module docs).
    fn builtins() -> Vec<TechniqueSpec> {
        vec![
            // The unmanaged processor: full 80-entry queue, every entry
            // woken on every broadcast. All savings normalise against this.
            TechniqueSpec {
                name: "baseline",
                pass_config: None,
                resize_policy: ResizePolicy::Fixed,
                wakeup_scheme: WakeupScheme::Full,
                bank_gating: false,
                tracks_low_energy: false,
            },
            // Folegnani & González's wakeup gating of empty entries — the
            // `nonEmpty` bar of Figure 8. Timing identical to baseline.
            TechniqueSpec {
                name: "nonEmpty",
                pass_config: None,
                resize_policy: ResizePolicy::Fixed,
                wakeup_scheme: WakeupScheme::NonEmptyOnly,
                bank_gating: false,
                tracks_low_energy: false,
            },
            // The paper's base technique (§5.2): compiler analysis
            // communicated via special NOOPs.
            TechniqueSpec {
                name: "noop",
                pass_config: Some(PassConfig::noop_insertion()),
                resize_policy: ResizePolicy::SoftwareHint,
                wakeup_scheme: WakeupScheme::Gated,
                bank_gating: true,
                tracks_low_energy: false,
            },
            // The *Extension* technique (§5.3): the same analysis carried by
            // tags on existing instructions.
            TechniqueSpec {
                name: "extension",
                pass_config: Some(PassConfig::tagging()),
                resize_policy: ResizePolicy::SoftwareHint,
                wakeup_scheme: WakeupScheme::Gated,
                bank_gating: true,
                tracks_low_energy: false,
            },
            // The *Improved* technique (§5.3): Extension plus
            // inter-procedural functional-unit contention analysis.
            TechniqueSpec {
                name: "improved",
                pass_config: Some(PassConfig::improved()),
                resize_policy: ResizePolicy::SoftwareHint,
                wakeup_scheme: WakeupScheme::Gated,
                bank_gating: true,
                tracks_low_energy: false,
            },
            // The hardware comparator: Abella & González's adaptive issue
            // queue + ROB (IqRob64), `abella` in the paper's figures.
            TechniqueSpec {
                name: "abella",
                pass_config: None,
                resize_policy: ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
                wakeup_scheme: WakeupScheme::Gated,
                bank_gating: true,
                tracks_low_energy: false,
            },
            // Way-memoization of the L1 D-cache (Ishihara & Fallah, see
            // PAPERS.md): a pure cache-hierarchy technique — the pipeline
            // runs exactly the baseline configuration and the savings are
            // computed at reporting time from `dcache_accesses`/`misses`
            // (see `sdiq_power::way_memo`).
            TechniqueSpec {
                name: "way-memo",
                pass_config: None,
                resize_policy: ResizePolicy::Fixed,
                wakeup_scheme: WakeupScheme::Full,
                bank_gating: false,
                tracks_low_energy: false,
            },
            // The profiled low-energy instruction encoding (Sleeba et al.,
            // see PAPERS.md): a compiler-directed re-encoding of loop-block
            // instructions, counted per commit and priced at reporting time
            // (see `sdiq_power::low_energy`). Its pass only adds marks and
            // policy-inert tags, and the policy is fixed, so the engine
            // prices it from `baseline`'s plan and replay (see
            // "Annotation-only passes" on `TechniqueSpec`).
            TechniqueSpec {
                name: "lowen-isa",
                pass_config: Some(PassConfig::low_energy_encoding()),
                resize_policy: ResizePolicy::Fixed,
                wakeup_scheme: WakeupScheme::Full,
                bank_gating: false,
                tracks_low_energy: true,
            },
        ]
    }
}

/// The registry: a process-wide, append-only table of [`TechniqueSpec`]s,
/// self-seeded with the built-ins on first touch. A handle type — all state
/// lives in one `OnceLock`, so `TechniqueRegistry` is free to construct.
#[derive(Debug, Clone, Copy, Default)]
pub struct TechniqueRegistry;

/// Why a [`TechniqueRegistry::register`] call was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The wire name is already taken (names are forever; see the module
    /// docs for the stability rules).
    DuplicateName(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName(name) => {
                write!(f, "technique name `{name}` is already registered")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

fn registry() -> &'static RwLock<Vec<TechniqueSpec>> {
    static REGISTRY: OnceLock<RwLock<Vec<TechniqueSpec>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(TechniqueSpec::builtins()))
}

/// Read access that survives a poisoned lock: the registry is append-only
/// data, so a panic mid-`register` cannot leave it torn.
fn read_registry() -> RwLockReadGuard<'static, Vec<TechniqueSpec>> {
    match registry().read() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl TechniqueRegistry {
    /// Registers a new technique, returning its handle. The spec's `name`
    /// must not collide with any registered name. Registration order is the
    /// iteration order of [`Technique::all`] (and therefore of suite and
    /// figure output) — append-only, never reordered.
    pub fn register(spec: TechniqueSpec) -> Result<Technique, RegistryError> {
        let mut guard = match registry().write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if guard.iter().any(|existing| existing.name == spec.name) {
            return Err(RegistryError::DuplicateName(spec.name.to_string()));
        }
        assert!(
            guard.len() <= usize::from(u16::MAX),
            "technique registry full"
        );
        guard.push(spec);
        Ok(Technique((guard.len() - 1) as u16))
    }

    /// Every registered technique, in registration order.
    pub fn all() -> Vec<Technique> {
        (0..read_registry().len() as u16).map(Technique).collect()
    }

    /// The wire names of every registered technique, in registration order.
    pub fn names() -> Vec<&'static str> {
        read_registry().iter().map(|spec| spec.name).collect()
    }

    /// Looks a technique up by wire name.
    pub fn lookup(name: &str) -> Option<Technique> {
        read_registry()
            .iter()
            .position(|spec| spec.name == name)
            .map(|index| Technique(index as u16))
    }
}

/// One registered technique — a cheap handle into the
/// [`TechniqueRegistry`]. The six paper techniques are the associated
/// constants below; further techniques come from
/// [`TechniqueRegistry::register`].
///
/// `Ord` is registration order, which for the built-ins is the paper's
/// figure order — [`Suite`](crate::Suite) relies on this for stable
/// summary ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Technique(u16);

#[allow(non_upper_case_globals)]
impl Technique {
    /// The unmanaged processor every savings figure normalises against.
    pub const Baseline: Technique = Technique(0);
    /// Folegnani & González's wakeup gating of empty entries.
    pub const NonEmpty: Technique = Technique(1);
    /// The paper's base technique (§5.2): special NOOP insertion.
    pub const Noop: Technique = Technique(2);
    /// The *Extension* technique (§5.3): tags on existing instructions.
    pub const Extension: Technique = Technique(3);
    /// The *Improved* technique (§5.3): Extension + inter-procedural FU.
    pub const Improved: Technique = Technique(4);
    /// Abella & González's adaptive issue queue + ROB (IqRob64).
    pub const Abella: Technique = Technique(5);
    /// Way-memoization of the L1 D-cache (Ishihara & Fallah).
    pub const WayMemo: Technique = Technique(6);
    /// The profiled low-energy instruction encoding (Sleeba et al.).
    pub const LowenIsa: Technique = Technique(7);
}

impl Technique {
    /// Every registered technique, in registration order (the paper's six,
    /// then `way-memo` and `lowen-isa`, then anything registered at run
    /// time). The replacement for the old `Technique::ALL` constant.
    pub fn all() -> Vec<Technique> {
        TechniqueRegistry::all()
    }

    /// The techniques that appear in the comparison figures: everything
    /// except the baseline itself.
    pub fn evaluated() -> Vec<Technique> {
        Technique::all()
            .into_iter()
            .filter(|&t| t != Technique::Baseline)
            .collect()
    }

    /// The full descriptor this handle resolves to.
    pub fn spec(&self) -> TechniqueSpec {
        read_registry()[usize::from(self.0)]
    }

    /// Short label used in figures, tables and every wire format.
    pub fn name(&self) -> &'static str {
        self.spec().name
    }

    /// Looks a technique up by its figure label (the inverse of
    /// [`Technique::name`]).
    pub fn from_name(name: &str) -> Option<Technique> {
        TechniqueRegistry::lookup(name)
    }

    /// The compiler pass configuration this technique needs, if any, for
    /// the paper's Table 1 machine.
    pub fn pass_config(&self) -> Option<PassConfig> {
        self.spec().pass_config
    }

    /// The compiler pass configuration this technique needs, if any,
    /// retargeted at an arbitrary machine ([`PassConfig::retargeted`] owns
    /// the width-dependent details). Sweeps over issue-queue geometry use
    /// this so the software techniques compile against the capacity they
    /// will actually run on; [`crate::Experiment::run_program`] uses it
    /// with the experiment's own machine for the same reason.
    pub fn pass_config_for(
        &self,
        widths: sdiq_isa::MachineWidths,
        fu_counts: sdiq_isa::FuCounts,
    ) -> Option<PassConfig> {
        self.pass_config()
            .map(|base| base.retargeted(widths, fu_counts))
    }

    /// The simulator resize policy this technique runs with.
    pub fn resize_policy(&self) -> ResizePolicy {
        self.spec().resize_policy
    }

    /// The wakeup accounting scheme used when turning activity into energy.
    pub fn wakeup_scheme(&self) -> WakeupScheme {
        self.spec().wakeup_scheme
    }

    /// `true` if the technique runs the compiler pass.
    pub fn is_software(&self) -> bool {
        self.pass_config().is_some()
    }

    /// `true` if the configuration can switch unused issue-queue and
    /// register-file banks off. The unmanaged baseline and the pure
    /// wakeup-gating `nonEmpty` configuration cannot; every resizing scheme
    /// (software or adaptive hardware) can.
    pub fn bank_gating(&self) -> bool {
        self.spec().bank_gating
    }

    /// `true` if the technique's runs carry the `committed_low_energy`
    /// counter (and therefore serialise it — see
    /// [`TechniqueSpec::tracks_low_energy`]).
    pub fn tracks_low_energy(&self) -> bool {
        self.spec().tracks_low_energy
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdiq_compiler::EmitKind;

    // NOTE for every test below: the registry is process-global and tests
    // run in parallel, so tests must never assert a *total* registry count
    // and runtime registrations must use names unique to the test.

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            Technique::all().iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), Technique::all().len());
    }

    /// Satellite: registration order is the wire/summary order. Pinning the
    /// exact prefix means re-registration (or reordering the seed set) can
    /// never silently reorder persisted suite summaries.
    #[test]
    fn registration_order_is_stable() {
        let names: Vec<_> = Technique::all().iter().take(8).map(|t| t.name()).collect();
        assert_eq!(
            names,
            vec![
                "baseline",
                "nonEmpty",
                "noop",
                "extension",
                "improved",
                "abella",
                "way-memo",
                "lowen-isa",
            ]
        );
        // The associated constants resolve to exactly those positions.
        assert_eq!(Technique::Baseline.name(), "baseline");
        assert_eq!(Technique::NonEmpty.name(), "nonEmpty");
        assert_eq!(Technique::Noop.name(), "noop");
        assert_eq!(Technique::Extension.name(), "extension");
        assert_eq!(Technique::Improved.name(), "improved");
        assert_eq!(Technique::Abella.name(), "abella");
        assert_eq!(Technique::WayMemo.name(), "way-memo");
        assert_eq!(Technique::LowenIsa.name(), "lowen-isa");
        // And Ord follows registration order.
        let mut sorted = Technique::all();
        sorted.sort();
        assert_eq!(sorted, Technique::all());
    }

    #[test]
    fn software_techniques_have_the_right_pass_configs() {
        assert!(Technique::Baseline.pass_config().is_none());
        assert!(Technique::NonEmpty.pass_config().is_none());
        assert!(Technique::Abella.pass_config().is_none());
        assert!(Technique::WayMemo.pass_config().is_none());
        assert_eq!(
            Technique::Noop.pass_config().unwrap().emit,
            EmitKind::NoopInsertion
        );
        assert_eq!(
            Technique::Extension.pass_config().unwrap().emit,
            EmitKind::Tagging
        );
        let improved = Technique::Improved.pass_config().unwrap();
        assert_eq!(improved.emit, EmitKind::Tagging);
        assert!(improved.interprocedural_fu);
        assert!(
            !Technique::Extension
                .pass_config()
                .unwrap()
                .interprocedural_fu
        );
        let lowen = Technique::LowenIsa.pass_config().unwrap();
        assert!(lowen.low_energy);
        assert!(!lowen.interprocedural_fu);
    }

    #[test]
    fn policies_and_schemes_match_the_paper() {
        assert_eq!(Technique::Baseline.wakeup_scheme(), WakeupScheme::Full);
        assert_eq!(
            Technique::NonEmpty.wakeup_scheme(),
            WakeupScheme::NonEmptyOnly
        );
        assert_eq!(Technique::Noop.wakeup_scheme(), WakeupScheme::Gated);
        assert_eq!(Technique::Abella.wakeup_scheme(), WakeupScheme::Gated);
        assert!(matches!(
            Technique::Abella.resize_policy(),
            ResizePolicy::Adaptive(_)
        ));
        assert!(matches!(
            Technique::Extension.resize_policy(),
            ResizePolicy::SoftwareHint
        ));
        assert!(matches!(
            Technique::NonEmpty.resize_policy(),
            ResizePolicy::Fixed
        ));
        assert!(Technique::Improved.is_software());
        assert!(!Technique::Abella.is_software());
        assert!(!Technique::Baseline.bank_gating());
        assert!(!Technique::NonEmpty.bank_gating());
        assert!(Technique::Noop.bank_gating());
        assert!(Technique::Abella.bank_gating());
    }

    /// The two new techniques deliberately run the *baseline* pipeline
    /// configuration: their savings live in the cache hierarchy / the
    /// instruction encoding, not in issue-queue resizing.
    #[test]
    fn new_techniques_run_the_baseline_pipeline_shape() {
        for t in [Technique::WayMemo, Technique::LowenIsa] {
            assert!(matches!(t.resize_policy(), ResizePolicy::Fixed));
            assert_eq!(t.wakeup_scheme(), WakeupScheme::Full);
            assert!(!t.bank_gating());
        }
        assert!(!Technique::WayMemo.is_software());
        assert!(Technique::LowenIsa.is_software());
        assert!(!Technique::WayMemo.tracks_low_energy());
        assert!(Technique::LowenIsa.tracks_low_energy());
        // No built-in paper technique tracks the counter — its presence
        // would change their saved bytes.
        for t in [
            Technique::Baseline,
            Technique::NonEmpty,
            Technique::Noop,
            Technique::Extension,
            Technique::Improved,
            Technique::Abella,
        ] {
            assert!(!t.tracks_low_energy());
        }
    }

    #[test]
    fn registering_a_duplicate_name_is_rejected() {
        let err = TechniqueRegistry::register(TechniqueSpec {
            name: "baseline",
            ..Technique::WayMemo.spec()
        })
        .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateName("baseline".to_string()));
    }

    #[test]
    fn runtime_registration_yields_a_working_handle() {
        let spec = TechniqueSpec {
            name: "test-registry-smoke",
            pass_config: None,
            resize_policy: ResizePolicy::Fixed,
            wakeup_scheme: WakeupScheme::NonEmptyOnly,
            bank_gating: false,
            tracks_low_energy: false,
        };
        let t = TechniqueRegistry::register(spec).unwrap();
        assert_eq!(t.name(), "test-registry-smoke");
        assert_eq!(Technique::from_name("test-registry-smoke"), Some(t));
        assert_eq!(t.wakeup_scheme(), WakeupScheme::NonEmptyOnly);
        assert!(Technique::all().contains(&t));
        assert!(Technique::evaluated().contains(&t));
        // A second registration under the same name must fail.
        assert!(TechniqueRegistry::register(spec).is_err());
    }
}
