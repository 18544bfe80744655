//! Differential properties of the compiled execution-plan backend.
//!
//! The compiled backend ([`sdiq::sim::PlanSimulator`]) exists purely for
//! speed: it must be *bit-identical* to the interpreted pipeline
//! ([`sdiq::sim::Simulator`]) on every observable — cycles, every
//! [`ActivityStats`](sdiq::sim::ActivityStats) counter, the adaptive
//! controller's resize count. These properties drive randomly generated
//! `(program, SimConfig, policy)` cells through both backends and assert
//! exact equality of the full result, so any divergence a hand-written
//! differential test misses (odd widths, tiny queues, shallow ROBs,
//! hint-annotated programs on resized machines) is caught here.

use proptest::prelude::*;
use sdiq::compiler::{CompilerPass, PassConfig};
use sdiq::isa::builder::ProgramBuilder;
use sdiq::isa::reg::int_reg;
use sdiq::isa::{Executor, Program};
use sdiq::sim::{AdaptiveConfig, ExecPlan, PlanSimulator, ResizePolicy, SimConfig, Simulator};

/// Strategy: a single-loop program with a configurable dependence shape —
/// loads, chained adds and a live loop counter, so renaming, wakeup and
/// the D-cache all see traffic.
fn arb_loop_program() -> impl Strategy<Value = Program> {
    (2i64..30i64, 1usize..5usize, 1usize..4usize).prop_map(|(trips, chains, chain_len)| {
        let mut b = ProgramBuilder::new();
        b.name("plan-prop-loop");
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            let body = p.block();
            let exit = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0);
                bb.li(int_reg(2), 7);
                bb.li(int_reg(20), 0x3000_0000);
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                bb.load(int_reg(10), int_reg(20), 0);
                for c in 0..chains {
                    let reg = int_reg(3 + c as u8);
                    bb.add(reg, reg, int_reg(10));
                    for k in 1..chain_len {
                        bb.addi(reg, reg, k as i64);
                    }
                }
                bb.addi(int_reg(20), int_reg(20), 8);
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), trips, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(entry);
        }
        b.finish(main).expect("generated loop program is valid")
    })
}

/// Strategy: a machine shape. Everything replay-relevant varies — width,
/// window sizes, queue geometry, front-end depth, memory latency — around
/// the Table 1 base, within the ranges the rest of the repo exercises.
fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        (0usize..3, 0usize..3, 0usize..3),
        (1u32..4u32, 0usize..3, 0usize..2),
    )
        .prop_map(|((width, rob, iq), (decode_stages, fetch_queue, memory))| {
            let mut config = SimConfig::hpca2005();
            config.widths.pipeline_width = [2, 4, 8][width];
            config.widths.rob_capacity = [32, 64, 128][rob];
            let iq_entries = [40, 64, 80][iq];
            config.widths.iq_capacity = iq_entries;
            config.iq.entries = iq_entries;
            config.decode_stages = decode_stages;
            config.fetch_queue_entries = [8, 16, 32][fetch_queue];
            config.memory_latency = [50, 100][memory];
            config
        })
}

fn arb_policy() -> impl Strategy<Value = ResizePolicy> {
    (0usize..3).prop_map(|index| {
        [
            ResizePolicy::Fixed,
            ResizePolicy::SoftwareHint,
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
        ][index]
    })
}

proptest! {
    // Each case runs two whole pipelines; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: for any (program, config, policy) cell,
    /// replaying the compiled plan produces the exact `SimResult` of the
    /// interpreted pipeline — every counter, not a summary.
    #[test]
    fn compiled_plan_is_bit_identical_to_the_interpreter(
        program in arb_loop_program(),
        config in arb_config(),
        policy in arb_policy(),
    ) {
        // The software-hint policy is only meaningful on an annotated
        // program — mirror the production pairing (the other policies run
        // the raw program, exactly as the experiment runner does).
        let program = if policy.uses_hints() {
            CompilerPass::new(PassConfig::noop_insertion()).run(&program).program
        } else {
            program
        };
        let trace = Executor::new(&program).run(20_000).unwrap();

        let interpreted = Simulator::new(config, &program, &trace, policy)
            .run()
            .unwrap();
        let plan = ExecPlan::build(config, &program, &trace);
        let compiled = PlanSimulator::new(&plan, policy).run().unwrap();

        prop_assert_eq!(&compiled, &interpreted);
    }

    /// The two registry-landed techniques (`way-memo`, `lowen-isa`) must be
    /// bit-identical across `--backend compiled|interpreted`, exactly like
    /// the six paper techniques. `way-memo` runs the baseline pipeline
    /// shape and prices savings at report time; `lowen-isa` additionally
    /// tags loop blocks, whose `committed_low_energy` count is baked into
    /// the plan and recounted at interpreted commit — the full-result
    /// equality below covers that counter too.
    #[test]
    fn new_techniques_are_bit_identical_across_backends(
        program in arb_loop_program(),
        config in arb_config(),
    ) {
        use sdiq::core::Technique;
        for technique in [Technique::WayMemo, Technique::LowenIsa] {
            let prepared = match technique.pass_config_for(config.widths, config.fu_counts) {
                Some(pass_config) => CompilerPass::new(pass_config).run(&program).program,
                None => program.clone(),
            };
            let trace = Executor::new(&prepared).run(20_000).unwrap();
            let policy = technique.resize_policy();

            let interpreted = Simulator::new(config, &prepared, &trace, policy)
                .run()
                .unwrap();
            let plan = ExecPlan::build(config, &prepared, &trace);
            let compiled = PlanSimulator::new(&plan, policy).run().unwrap();

            prop_assert_eq!(&compiled, &interpreted);
            if technique == Technique::LowenIsa {
                // Loop programs always have marked blocks: the counter the
                // equality just compared is live, not vacuously zero.
                prop_assert!(interpreted.stats.committed_low_energy > 0);
            } else {
                prop_assert_eq!(interpreted.stats.committed_low_energy, 0);
            }
        }
    }

    /// One plan is shared across every policy of a cell shape (that is
    /// what makes the artifact cache effective), so building it once and
    /// replaying under each policy must match per-policy interpretation.
    #[test]
    fn one_plan_serves_every_policy(
        program in arb_loop_program(),
        config in arb_config(),
    ) {
        let trace = Executor::new(&program).run(20_000).unwrap();
        let plan = ExecPlan::build(config, &program, &trace);
        for policy in [
            ResizePolicy::Fixed,
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
        ] {
            let interpreted = Simulator::new(config, &program, &trace, policy)
                .run()
                .unwrap();
            let compiled = PlanSimulator::new(&plan, policy).run().unwrap();
            prop_assert_eq!(&compiled, &interpreted);
        }
    }
}

/// `ExecPlan::low_energy_commits` is the one definition of the
/// `committed_low_energy` counter. Counted over the *source* program's
/// plan, a low-energy compile's marks give exactly the counter its own
/// plan bakes in and the interpreted oracle counts, on every benchmark.
/// This is what lets the engine price a `lowen-isa` cell from the source
/// program's replay.
#[test]
fn low_energy_commits_over_the_source_plan_match_the_compiled_program() {
    use sdiq::workloads::Benchmark;
    let config = SimConfig::hpca2005();
    for benchmark in Benchmark::ALL {
        let source = benchmark.build_scaled(0.02);
        let lowen = CompilerPass::new(PassConfig::low_energy_encoding())
            .run(&source)
            .program;
        assert!(source.differs_only_in_annotations(&lowen), "{benchmark}");
        let source_trace = Executor::new(&source).run(2_000_000).unwrap();
        let source_plan = ExecPlan::build(config, &source, &source_trace);
        assert_eq!(source_plan.baked_stats().committed_low_energy, 0);

        let lowen_trace = Executor::new(&lowen).run(2_000_000).unwrap();
        let lowen_plan = ExecPlan::build(config, &lowen, &lowen_trace);
        let interpreted = Simulator::new(config, &lowen, &lowen_trace, ResizePolicy::Fixed)
            .run()
            .unwrap();

        let counted = source_plan.low_energy_commits(&lowen);
        assert!(counted > 0, "{benchmark}: loop blocks are marked");
        assert_eq!(
            counted,
            lowen_plan.baked_stats().committed_low_energy,
            "{benchmark}: the compiled program's own plan"
        );
        assert_eq!(
            counted, interpreted.stats.committed_low_energy,
            "{benchmark}: the interpreted oracle"
        );
    }
}
