//! Mutation corpus: deliberately corrupted programs, annotations and plans
//! must be *rejected*, each with its documented stable diagnostic code.
//!
//! The clean-workload proptests prove the verifier accepts everything the
//! toolchain actually produces; this file proves it is not vacuously
//! accepting. Every mutation starts from a real compiled benchmark (so the
//! corruption is the only anomaly) and asserts the specific `codes::*`
//! entry fires — not merely "some error".

use sdiq_compiler::{CompiledProgram, CompilerPass, Pass, PassConfig, PassManager, PassState};
use sdiq_isa::reg::int_reg;
use sdiq_isa::{BlockId, Executor, FuClass, Instruction, Opcode, Program, Trace};
use sdiq_sim::plan::{flag, ExecPlan, InstRecord, NO_REG};
use sdiq_sim::SimConfig;
use sdiq_verify::{
    codes, lint_plan, verify_annotations, verify_compiled, verify_envelope, verify_program,
    StandardVerifier,
};
use sdiq_workloads::Benchmark;

/// A small real program: scaled-down gzip (loop-dominated, has calls).
fn program() -> Program {
    Benchmark::Gzip.build_scaled(0.02)
}

fn compiled() -> CompiledProgram {
    CompilerPass::new(PassConfig::noop_insertion()).run(&program())
}

fn assert_code(diags: &[sdiq_verify::Diagnostic], code: &str) {
    assert!(
        diags.iter().any(|d| d.code == code),
        "expected a {code} diagnostic, got: {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
}

fn assert_clean(program: &Program) {
    let errors: Vec<_> = verify_program(program)
        .into_iter()
        .filter(|d| d.severity == sdiq_verify::Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "baseline program must verify clean: {errors:?}"
    );
}

// --- structural mutations (CFG*, ISA*) ---------------------------------

#[test]
fn dangling_branch_target_is_cfg001() {
    let mut program = program();
    assert_clean(&program);
    let site = program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks.iter().enumerate().find_map(|(b, block)| {
                block
                    .instructions
                    .iter()
                    .position(|i| i.branch_target.is_some())
                    .map(|idx| (p, b, idx))
            })
        })
        .expect("gzip has conditional branches");
    program.procedures[site.0].blocks[site.1].instructions[site.2].branch_target =
        Some(BlockId(9999));
    assert_code(&verify_program(&program), codes::CFG001);
}

#[test]
fn dangling_fallthrough_is_cfg001() {
    let mut program = program();
    let site = program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks
                .iter()
                .position(|b| b.fallthrough.is_some())
                .map(|b| (p, b))
        })
        .expect("gzip has fall-through edges");
    program.procedures[site.0].blocks[site.1].fallthrough = Some(BlockId(9999));
    assert_code(&verify_program(&program), codes::CFG001);
}

/// A block ending in a control transfer, for the trailing-instruction
/// mutations.
fn control_terminated_block(program: &Program) -> (usize, usize) {
    program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks
                .iter()
                .position(|b| b.instructions.last().is_some_and(|i| i.opcode.is_control()))
                .map(|b| (p, b))
        })
        .expect("gzip has control-terminated blocks")
}

#[test]
fn instruction_after_control_transfer_is_cfg002() {
    let mut program = program();
    let (p, b) = control_terminated_block(&program);
    program.procedures[p].blocks[b]
        .instructions
        .push(Instruction::rrr(
            Opcode::Add,
            int_reg(1),
            int_reg(1),
            int_reg(2),
        ));
    assert_code(&verify_program(&program), codes::CFG002);
}

#[test]
fn hint_noop_after_control_transfer_is_ann002() {
    let mut program = program();
    let (p, b) = control_terminated_block(&program);
    let mut hint = Instruction::new(Opcode::HintNoop);
    hint.iq_hint = Some(8);
    program.procedures[p].blocks[b].instructions.push(hint);
    let diags = verify_program(&program);
    assert_code(&diags, codes::ANN002);
    // The unreachable hint is ANN002 specifically, not the generic CFG002.
    assert!(!diags.iter().any(|d| d.code == codes::CFG002));
}

#[test]
fn block_falling_off_the_procedure_is_cfg003() {
    let mut program = program();
    // An unconditional jump with no fall-through: popping it leaves the
    // block with no successor and no return.
    let site = program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks.iter().enumerate().find_map(|(b, block)| {
                let last_is_jump = block
                    .instructions
                    .last()
                    .is_some_and(|i| i.opcode == Opcode::Jump);
                (last_is_jump && block.fallthrough.is_none()).then_some((p, b))
            })
        })
        .expect("gzip has unconditional jumps");
    program.procedures[site.0].blocks[site.1].instructions.pop();
    assert_code(&verify_program(&program), codes::CFG003);
}

#[test]
fn malformed_instruction_encoding_is_isa001() {
    let mut program = program();
    let site = program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks.iter().enumerate().find_map(|(b, block)| {
                block
                    .instructions
                    .iter()
                    .position(|i| i.opcode.is_load())
                    .map(|idx| (p, b, idx))
            })
        })
        .expect("gzip has loads");
    // A load without a memory reference fails operand-shape validation.
    program.procedures[site.0].blocks[site.1].instructions[site.2].mem = None;
    assert_code(&verify_program(&program), codes::ISA001);
}

#[test]
fn zero_entry_hint_is_isa002() {
    let mut compiled = compiled();
    let site = compiled
        .program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks.iter().enumerate().find_map(|(b, block)| {
                block
                    .instructions
                    .iter()
                    .position(|i| i.iq_hint.is_some())
                    .map(|idx| (p, b, idx))
            })
        })
        .expect("the compiled program carries hints");
    compiled.program.procedures[site.0].blocks[site.1].instructions[site.2].iq_hint = Some(0);
    assert_code(&verify_program(&compiled.program), codes::ISA002);
}

// --- annotation mutations (ANN*, ENV*) ---------------------------------

#[test]
fn out_of_range_window_is_ann001() {
    let mut compiled = compiled();
    let cap = compiled.config.widths.iq_capacity as u32;
    let key = *compiled
        .annotations
        .block_entries
        .keys()
        .next()
        .expect("the compile annotates blocks");
    compiled.annotations.block_entries.insert(key, cap + 100);
    assert_code(&verify_annotations(&compiled), codes::ANN001);
}

#[test]
fn stale_loop_preheader_value_is_ann003() {
    let mut compiled = compiled();
    let (key, value) = compiled
        .annotations
        .loop_preheader_entries
        .iter()
        .map(|(k, v)| (*k, *v))
        .find(|(k, _)| !compiled.annotations.max_before_call.contains(k))
        .expect("gzip has loop pre-headers without library calls");
    // The annotation map now disagrees with the hint actually emitted last
    // in the block — the loop would run under the wrong window.
    compiled
        .annotations
        .loop_preheader_entries
        .insert(key, if value > 2 { value - 1 } else { value + 1 });
    assert_code(&verify_annotations(&compiled), codes::ANN003);
}

#[test]
fn dangling_low_energy_block_is_ann004() {
    use sdiq_isa::ProcId;
    use sdiq_verify::annotations::check_low_energy_blocks;
    let mut compiled = CompilerPass::new(PassConfig::low_energy_encoding()).run(&program());
    assert!(
        !compiled.annotations.low_energy_blocks.is_empty(),
        "gzip is loop-dominated, the pass marks its loop blocks"
    );
    assert!(
        check_low_energy_blocks(&compiled.program, &compiled.annotations).is_empty(),
        "a real compile's low-energy marks verify clean"
    );
    compiled
        .annotations
        .low_energy_blocks
        .insert(sdiq_isa::BlockRef {
            proc: ProcId(compiled.program.procedures.len()),
            block: BlockId(0),
        });
    assert_code(
        &check_low_energy_blocks(&compiled.program, &compiled.annotations),
        codes::ANN004,
    );
}

#[test]
fn library_low_energy_block_is_ann004() {
    use sdiq_verify::annotations::check_low_energy_blocks;
    let mut compiled = CompilerPass::new(PassConfig::low_energy_encoding()).run(&program());
    // Retroactively declare a marked procedure a library routine: the mark
    // now points where the pass could never legitimately have looked.
    let marked = *compiled
        .annotations
        .low_energy_blocks
        .iter()
        .next()
        .expect("gzip is loop-dominated, the pass marks its loop blocks");
    compiled.program.proc_mut(marked.proc).is_library = true;
    assert_code(
        &check_low_energy_blocks(&compiled.program, &compiled.annotations),
        codes::ANN004,
    );
}

#[test]
fn window_below_recomputed_demand_is_env001() {
    let mut compiled = compiled();
    let cap = compiled.config.widths.iq_capacity as u32;
    let key = *compiled
        .block_requirements
        .iter()
        .find(|(_, req)| req.entries.min(cap) >= 2)
        .map(|(k, _)| k)
        .expect("some DAG block demands at least 2 entries");
    let required = compiled.block_requirements[&key].entries.min(cap);
    compiled.annotations.block_entries.insert(key, required - 1);
    assert_code(&verify_envelope(&compiled), codes::ENV001);
}

#[test]
fn stripped_annotations_are_env001_and_env002() {
    let mut compiled = compiled();
    assert!(
        !compiled.loop_requirements.is_empty(),
        "gzip is loop-dominated"
    );
    // Strip every advertised window: all analysed DAG blocks and loops now
    // have demand but no cover.
    compiled.annotations.block_entries.clear();
    compiled.annotations.loop_preheader_entries.clear();
    let diags = verify_envelope(&compiled);
    assert_code(&diags, codes::ENV001);
    assert_code(&diags, codes::ENV002);
}

// --- plan mutations (PLAN*) --------------------------------------------

fn planned() -> (ExecPlan, Program, Trace) {
    let compiled = compiled();
    let program = compiled.program;
    let trace = Executor::new(&program)
        .run(4_000)
        .expect("gzip executes cleanly");
    let plan = ExecPlan::build(SimConfig::hpca2005(), &program, &trace);
    (plan, program, trace)
}

#[test]
fn baseline_plan_lints_clean() {
    let (plan, program, trace) = planned();
    let diags = lint_plan(&plan, &program, &trace);
    assert!(
        diags.is_empty(),
        "unmutated plan must lint clean: {diags:?}"
    );
}

#[test]
fn trace_length_mismatch_is_plan001() {
    let (plan, program, _) = planned();
    let short_trace = Executor::new(&program)
        .run(1_000)
        .expect("gzip executes cleanly");
    assert_ne!(plan.records().len(), short_trace.len());
    assert_code(&lint_plan(&plan, &program, &short_trace), codes::PLAN001);
}

#[test]
fn swapped_record_fields_are_plan002() {
    let (mut plan, program, trace) = planned();
    let idx = plan
        .records()
        .iter()
        .position(|r| r.dest != NO_REG && r.srcs[0] != r.dest)
        .expect("some record writes a destination distinct from its source");
    let rec = &mut plan.records_mut()[idx];
    std::mem::swap(&mut rec.dest, &mut rec.srcs[0]);
    assert_code(&lint_plan(&plan, &program, &trace), codes::PLAN002);
}

/// The lint's `PLAN002` findings as `(location, message)` pairs.
fn plan002(plan: &ExecPlan, program: &Program, trace: &Trace) -> Vec<(String, String)> {
    lint_plan(plan, program, trace)
        .into_iter()
        .filter(|d| d.code == codes::PLAN002)
        .map(|d| (d.location, d.message))
        .collect()
}

fn record_location(plan: &ExecPlan, idx: usize) -> String {
    format!("plan `{}` record {idx}", plan.workload())
}

/// Corrupts the first record `pick` selects with `mutate` (which returns
/// the message the lint must report) and asserts the lint reports exactly
/// that one `PLAN002` finding, located at that record.
fn assert_record_mutation(
    pick: impl Fn(usize, &InstRecord) -> bool,
    mutate: impl FnOnce(&mut InstRecord) -> String,
) {
    let (mut plan, program, trace) = planned();
    let idx = plan
        .records()
        .iter()
        .enumerate()
        .position(|(idx, rec)| pick(idx, rec))
        .expect("the baseline plan has a record to corrupt");
    let message = mutate(&mut plan.records_mut()[idx]);
    assert_eq!(
        plan002(&plan, &program, &trace),
        vec![(record_location(&plan, idx), message)]
    );
}

#[test]
fn wrong_fu_class_is_plan002() {
    assert_record_mutation(
        |_, rec| rec.fu == FuClass::IntAlu,
        |rec| {
            rec.fu = FuClass::IntMul;
            "fu IntMul ≠ expected IntAlu".to_string()
        },
    );
}

#[test]
fn wrong_latency_is_plan002() {
    assert_record_mutation(
        |_, _| true,
        |rec| {
            let expected = rec.latency;
            rec.latency += 1;
            format!("latency {} ≠ expected {expected}", rec.latency)
        },
    );
}

#[test]
fn wrong_hint_value_is_plan002() {
    assert_record_mutation(
        |_, rec| rec.flags & flag::HAS_HINT != 0,
        |rec| {
            let expected = rec.hint;
            rec.hint = expected.wrapping_add(1);
            format!("hint {} ≠ expected {expected}", rec.hint)
        },
    );
}

#[test]
fn spurious_has_hint_flag_is_plan002() {
    assert_record_mutation(
        |_, rec| rec.flags & flag::HAS_HINT == 0,
        |rec| {
            rec.flags |= flag::HAS_HINT;
            "HAS_HINT flag disagrees with the instruction's iq_hint".to_string()
        },
    );
}

#[test]
fn flipped_is_hint_flag_is_plan002() {
    assert_record_mutation(
        |_, rec| rec.flags & flag::IS_HINT == 0,
        |rec| {
            rec.flags |= flag::IS_HINT;
            "IS_HINT flag disagrees with the opcode".to_string()
        },
    );
}

#[test]
fn dropped_is_load_flag_is_plan002() {
    assert_record_mutation(
        |_, rec| rec.flags & flag::IS_LOAD != 0,
        |rec| {
            rec.flags &= !flag::IS_LOAD;
            "IS_LOAD flag disagrees with the opcode".to_string()
        },
    );
}

#[test]
fn dropped_is_store_flag_is_plan002() {
    assert_record_mutation(
        |_, rec| rec.flags & flag::IS_STORE != 0,
        |rec| {
            rec.flags &= !flag::IS_STORE;
            "IS_STORE flag disagrees with the opcode".to_string()
        },
    );
}

#[test]
fn flipped_ends_group_flag_is_plan002() {
    assert_record_mutation(
        |_, rec| rec.flags & flag::ENDS_GROUP != 0,
        |rec| {
            rec.flags &= !flag::ENDS_GROUP;
            "ENDS_GROUP flag disagrees with the control-flow outcome".to_string()
        },
    );
}

#[test]
fn dropped_new_line_flag_is_plan002() {
    // A later line change without a miss: dropping its NEW_LINE leaves
    // every other stream and counter consistent.
    assert_record_mutation(
        |idx, rec| idx > 0 && rec.flags & flag::NEW_LINE != 0 && rec.flags & flag::L1I_MISS == 0,
        |rec| {
            rec.flags &= !flag::NEW_LINE;
            "NEW_LINE flag disagrees with the fetch-line sequence".to_string()
        },
    );
}

#[test]
fn miss_without_fetch_access_is_plan002() {
    assert_record_mutation(
        |_, rec| rec.flags & flag::NEW_LINE == 0,
        |rec| {
            rec.flags |= flag::L1I_MISS;
            "L1I_MISS set on a record that performs no I-cache access".to_string()
        },
    );
}

#[test]
fn every_record_corrupted_is_bounded_plan002() {
    let (mut plan, program, trace) = planned();
    let latencies: Vec<u8> = plan.records().iter().map(|rec| rec.latency).collect();
    for rec in plan.records_mut() {
        rec.latency += 1;
    }
    let findings = plan002(&plan, &program, &trace);
    let mut expected: Vec<(String, String)> = latencies
        .iter()
        .enumerate()
        .take(25)
        .map(|(idx, latency)| {
            (
                record_location(&plan, idx),
                format!("latency {} ≠ expected {latency}", latency + 1),
            )
        })
        .collect();
    expected.push((
        format!("plan `{}`", plan.workload()),
        format!(
            "{} further per-record findings suppressed",
            trace.len() - 25
        ),
    ));
    assert_eq!(findings.len(), 26, "25 record findings plus the summary");
    assert_eq!(findings, expected);
}

#[test]
fn corrupted_memory_stream_is_plan003() {
    let (plan, program, mut trace) = planned();
    let idx = trace
        .committed
        .iter()
        .position(|d| d.mem_addr.is_some())
        .expect("gzip performs memory accesses");
    // The plan no longer matches the trace it claims to have been built
    // from.
    let addr = trace.committed[idx].mem_addr.map(|a| a + 64);
    trace.committed[idx].mem_addr = addr;
    assert_code(&lint_plan(&plan, &program, &trace), codes::PLAN003);
}

#[test]
fn dropped_miss_flag_is_plan004_and_plan005() {
    let (mut plan, program, trace) = planned();
    let idx = plan
        .records()
        .iter()
        .position(|r| r.flags & flag::L1I_MISS != 0)
        .expect("a cold I-cache always misses at least once");
    plan.records_mut()[idx].flags &= !flag::L1I_MISS;
    let diags = lint_plan(&plan, &program, &trace);
    // The I-miss address stream and the baked icache_misses counter both
    // disagree with the flags now.
    assert_code(&diags, codes::PLAN004);
    assert_code(&diags, codes::PLAN005);
}

// --- full-suite and pass-manager integration ---------------------------

#[test]
fn verify_compiled_runs_all_layers() {
    let mut compiled = compiled();
    let cap = compiled.config.widths.iq_capacity as u32;
    let key = *compiled
        .annotations
        .block_entries
        .keys()
        .next()
        .expect("the compile annotates blocks");
    compiled.annotations.block_entries.insert(key, cap + 100);
    // One corruption, observed by two layers through the one entry point.
    let diags = verify_compiled(&compiled);
    assert_code(&diags, codes::ANN001);
}

#[test]
fn corrupting_pass_is_caught_and_named_by_the_inter_pass_verifier() {
    /// A pass that plants an illegal window, registered under a
    /// window-producing name so the standard verifier audits it.
    struct PlantBadWindow;
    impl Pass for PlantBadWindow {
        fn name(&self) -> &'static str {
            "dag-windows"
        }
        fn description(&self) -> &'static str {
            "test-only: emit an out-of-range advertised window"
        }
        fn run(&self, state: &mut PassState<'_>) {
            let cap = state.config.widths.iq_capacity as u32;
            let block_ref = sdiq_isa::BlockRef {
                proc: state.program.entry,
                block: state.program.proc(state.program.entry).entry,
            };
            state.annotations.block_entries.insert(block_ref, cap + 7);
        }
    }
    let program = program();
    let mut manager = PassManager::new(PassConfig::noop_insertion());
    manager.register(Box::new(PlantBadWindow));
    let err = manager
        .with_verifier(Box::new(StandardVerifier))
        .run(&program)
        .expect_err("the planted window must abort the pipeline");
    assert_eq!(err.pass, "dag-windows");
    assert!(err.diagnostics.iter().any(|d| d.code == codes::ANN001));
}
