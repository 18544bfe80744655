//! Layer 3: the execution-plan lint.
//!
//! [`sdiq_sim::ExecPlan`] packs every static fact of a
//! `(program, trace, config)` cell into flat arrays; the simulator then
//! trusts those arrays completely. This lint cross-checks a built plan
//! against its sources:
//!
//! * stream lengths agree with the trace (`PLAN001`),
//! * every packed [`InstRecord`](sdiq_sim::InstRecord) round-trips against
//!   its source instruction — destination/source registers under the dense
//!   encoding, FU class, latency, hint value, and every flag that is a
//!   pure function of the instruction and trace (`PLAN002`),
//! * the memory-address stream equals the trace's, with the simulator's
//!   default applied (`PLAN003`),
//! * the I-miss address stream is consistent with the miss flags
//!   (`PLAN004`),
//! * the baked activity counters satisfy their defining identities
//!   (`PLAN005`).
//!
//! Front-end bits that depend on predictor or cache *state* (mispredicts,
//! BTB stalls, L1i hit/miss placement) are not recomputed here — they are
//! pinned dynamically by the backend bit-identity tests.

use crate::diag::{codes, Diagnostic};
use sdiq_isa::exec::DATA_BASE;
use sdiq_isa::{FuClass, InstrLoc, Instruction, Program, Trace};
use sdiq_sim::plan::{dense_arch, flag, ExecPlan, NO_REG};

/// Per-record diagnostics stop after this many findings; corrupted plans
/// tend to fail on every record and a bounded report reads better.
const MAX_RECORD_DIAGS: usize = 25;

/// How a static instruction decides its record's `ENDS_GROUP` flag.
#[derive(Debug, Clone, Copy)]
enum GroupEnd {
    /// Not a control transfer: never ends the fetch group.
    Never,
    /// Unconditional control transfer: always ends it.
    Always,
    /// Conditional branch: ends it when taken.
    IfTaken,
}

/// Everything `PLAN002` expects of one static instruction's records.
#[derive(Debug, Clone, Copy)]
struct Expected {
    dest: u16,
    srcs: [u16; 2],
    fu: FuClass,
    latency: u8,
    hint: u8,
    /// The flags that are a pure function of the instruction: `HAS_HINT`,
    /// `IS_HINT`, `IS_LOAD` and `IS_STORE`.
    flags: u16,
    group_end: GroupEnd,
}

impl Expected {
    fn of(inst: &Instruction) -> Expected {
        let mut srcs = [NO_REG; 2];
        for (slot, src) in srcs.iter_mut().zip(inst.srcs.iter()) {
            if let Some(arch) = src {
                *slot = dense_arch(*arch);
            }
        }
        let mut flags = 0;
        if inst.iq_hint.is_some() {
            flags |= flag::HAS_HINT;
        }
        if inst.is_hint_noop() {
            flags |= flag::IS_HINT;
        }
        if inst.opcode.is_load() {
            flags |= flag::IS_LOAD;
        }
        if inst.opcode.is_store() {
            flags |= flag::IS_STORE;
        }
        Expected {
            dest: inst.dest.map_or(NO_REG, dense_arch),
            srcs,
            fu: inst.opcode.fu_class(),
            latency: inst.opcode.latency().max(1) as u8,
            hint: inst.iq_hint.unwrap_or(0),
            flags,
            group_end: if inst.opcode.is_cond_branch() {
                GroupEnd::IfTaken
            } else if inst.opcode.is_control() {
                GroupEnd::Always
            } else {
                GroupEnd::Never
            },
        }
    }
}

/// [`Expected`] for every static instruction of a program, in one flat
/// array indexed by (procedure, block, index) offsets.
struct ExpectedTable {
    /// Index into `block_start` of each procedure's first block, plus one
    /// past the last procedure's.
    proc_start: Vec<usize>,
    /// Index into `insts` of each block's first instruction, plus one past
    /// the last block's.
    block_start: Vec<usize>,
    insts: Vec<Expected>,
}

impl ExpectedTable {
    fn new(program: &Program) -> ExpectedTable {
        let mut table = ExpectedTable {
            proc_start: Vec::with_capacity(program.procedures.len() + 1),
            block_start: Vec::new(),
            insts: Vec::with_capacity(program.static_instruction_count()),
        };
        for proc in &program.procedures {
            table.proc_start.push(table.block_start.len());
            for block in &proc.blocks {
                table.block_start.push(table.insts.len());
                table
                    .insts
                    .extend(block.instructions.iter().map(Expected::of));
            }
        }
        table.proc_start.push(table.block_start.len());
        table.block_start.push(table.insts.len());
        table
    }

    /// The expectation for `loc`. Panics on a location outside the
    /// program, as [`Program::instruction`] does.
    fn get(&self, loc: InstrLoc) -> &Expected {
        let p = loc.proc.0;
        let blocks = &self.block_start[self.proc_start[p]..=self.proc_start[p + 1]];
        let b = loc.block.0;
        &self.insts[blocks[b]..blocks[b + 1]][loc.index]
    }
}

/// Cross-checks `plan` against the `program` and `trace` it was built
/// from.
pub fn lint_plan(plan: &ExecPlan, program: &Program, trace: &Trace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let records = plan.records();
    let mem_addrs = plan.mem_addrs();

    if records.len() != trace.len() || mem_addrs.len() != trace.len() {
        diags.push(Diagnostic::error(
            codes::PLAN001,
            format!("plan `{}`", plan.workload()),
            format!(
                "plan covers {} records / {} memory addresses for a {}-instruction trace",
                records.len(),
                mem_addrs.len(),
                trace.len()
            ),
        ));
        return diags;
    }

    let table = ExpectedTable::new(program);
    let record_at = |idx: usize| format!("plan `{}` record {idx}", plan.workload());
    let line_bytes = plan.config().l1i.line_bytes as u64;
    let mut last_line: Option<u64> = None;
    let mut record_diags = 0usize;
    let mut flagged_misses = 0u64;
    let mut broadcasts = 0u64;
    let mut hints = 0u64;

    for (idx, ((dyn_inst, rec), &mem_addr)) in trace
        .committed
        .iter()
        .zip(records)
        .zip(mem_addrs)
        .enumerate()
    {
        let expected = table.get(dyn_inst.loc);

        // Counters for the PLAN004/PLAN005 identities below.
        if rec.flags & flag::L1I_MISS != 0 {
            flagged_misses += 1;
        }
        if rec.flags & flag::IS_HINT != 0 {
            hints += 1;
        } else if rec.dest != NO_REG {
            broadcasts += 1;
        }

        // PLAN003 — memory stream.
        let expected_mem_addr = dyn_inst.mem_addr.unwrap_or(DATA_BASE);
        if mem_addr != expected_mem_addr {
            if record_diags < MAX_RECORD_DIAGS {
                diags.push(Diagnostic::error(
                    codes::PLAN003,
                    record_at(idx),
                    format!(
                        "memory address {mem_addr:#x} disagrees with the trace's {expected_mem_addr:#x}"
                    ),
                ));
            }
            record_diags += 1;
        }

        // PLAN002 — field round-trip.
        let line = dyn_inst.addr / line_bytes;
        let expected_new_line = last_line != Some(line);
        last_line = Some(line);
        let expected_ends_group = match expected.group_end {
            GroupEnd::Never => false,
            GroupEnd::Always => true,
            GroupEnd::IfTaken => dyn_inst.taken.unwrap_or(false),
        };
        let static_flags_differ = |bit: u16| (rec.flags ^ expected.flags) & bit != 0;

        let mismatch = if rec.dest != expected.dest {
            Some(format!("dest {} ≠ expected {}", rec.dest, expected.dest))
        } else if rec.srcs != expected.srcs {
            Some(format!(
                "srcs {:?} ≠ expected {:?}",
                rec.srcs, expected.srcs
            ))
        } else if rec.fu != expected.fu {
            Some(format!("fu {:?} ≠ expected {:?}", rec.fu, expected.fu))
        } else if rec.latency != expected.latency {
            Some(format!(
                "latency {} ≠ expected {}",
                rec.latency, expected.latency
            ))
        } else if static_flags_differ(flag::HAS_HINT) {
            Some("HAS_HINT flag disagrees with the instruction's iq_hint".to_string())
        } else if expected.flags & flag::HAS_HINT != 0 && rec.hint != expected.hint {
            Some(format!("hint {} ≠ expected {}", rec.hint, expected.hint))
        } else if static_flags_differ(flag::IS_HINT) {
            Some("IS_HINT flag disagrees with the opcode".to_string())
        } else if static_flags_differ(flag::IS_LOAD) {
            Some("IS_LOAD flag disagrees with the opcode".to_string())
        } else if static_flags_differ(flag::IS_STORE) {
            Some("IS_STORE flag disagrees with the opcode".to_string())
        } else if (rec.flags & flag::ENDS_GROUP != 0) != expected_ends_group {
            Some("ENDS_GROUP flag disagrees with the control-flow outcome".to_string())
        } else if (rec.flags & flag::NEW_LINE != 0) != expected_new_line {
            Some("NEW_LINE flag disagrees with the fetch-line sequence".to_string())
        } else if rec.flags & flag::L1I_MISS != 0 && rec.flags & flag::NEW_LINE == 0 {
            Some("L1I_MISS set on a record that performs no I-cache access".to_string())
        } else {
            None
        };
        if let Some(problem) = mismatch {
            if record_diags < MAX_RECORD_DIAGS {
                diags.push(Diagnostic::error(codes::PLAN002, record_at(idx), problem));
            }
            record_diags += 1;
        }
    }
    if record_diags > MAX_RECORD_DIAGS {
        diags.push(Diagnostic::error(
            codes::PLAN002,
            format!("plan `{}`", plan.workload()),
            format!(
                "{} further per-record findings suppressed",
                record_diags - MAX_RECORD_DIAGS
            ),
        ));
    }

    // PLAN004 — I-miss stream consistency.
    if plan.imiss_addrs().len() as u64 != flagged_misses {
        diags.push(Diagnostic::error(
            codes::PLAN004,
            format!("plan `{}`", plan.workload()),
            format!(
                "{} I-miss addresses for {} L1I_MISS-flagged records",
                plan.imiss_addrs().len(),
                flagged_misses
            ),
        ));
    }

    // PLAN005 — baked-counter identities.
    let baked = plan.baked_stats();
    let total = trace.len() as u64;
    let mut identity = |ok: bool, what: String| {
        if !ok {
            diags.push(Diagnostic::error(
                codes::PLAN005,
                format!("plan `{}`", plan.workload()),
                what,
            ));
        }
    };
    identity(
        baked.committed + baked.committed_hints == total,
        format!(
            "committed {} + hints {} ≠ trace length {total}",
            baked.committed, baked.committed_hints
        ),
    );
    identity(
        baked.committed_hints == hints,
        format!(
            "committed_hints {} ≠ {} IS_HINT records",
            baked.committed_hints, hints
        ),
    );
    identity(
        baked.dispatched == baked.committed
            && baked.issued == baked.committed
            && baked.iq_writes == baked.committed
            && baked.iq_reads == baked.committed,
        format!(
            "dispatched/issued/iq_writes/iq_reads ({}/{}/{}/{}) must all equal committed {}",
            baked.dispatched, baked.issued, baked.iq_writes, baked.iq_reads, baked.committed
        ),
    );
    identity(
        baked.wakeup_broadcasts == broadcasts,
        format!(
            "wakeup_broadcasts {} ≠ {} destination-writing records",
            baked.wakeup_broadcasts, broadcasts
        ),
    );
    identity(
        baked.wakeup_comparisons_full
            == baked.wakeup_broadcasts * 2 * plan.config().iq.entries as u64,
        format!(
            "wakeup_comparisons_full {} ≠ broadcasts × 2 × capacity",
            baked.wakeup_comparisons_full
        ),
    );
    identity(
        baked.icache_misses == flagged_misses,
        format!(
            "icache_misses {} ≠ {} L1I_MISS-flagged records",
            baked.icache_misses, flagged_misses
        ),
    );
    diags
}
