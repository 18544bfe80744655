//! Compiled execution plans: the "compile-then-execute" backend.
//!
//! The interpreted pipeline ([`crate::pipeline::Simulator`]) re-derives a
//! large amount of *static* information on every run: it chases
//! `&Instruction` pointers through the program structure, re-predicts every
//! branch through the hybrid predictor, re-walks the I-cache tag arrays,
//! and re-classifies every opcode — all of which is a pure function of
//! `(program, trace, SimConfig)` and therefore identical across the many
//! runs a sweep, a matrix job or a `repro serve` batch performs on the
//! same cell shape.
//!
//! [`ExecPlan::build`] lowers everything static once, into flat
//! struct-of-arrays form:
//!
//! * decoded operands — destination / source architectural registers,
//!   functional-unit class, execution latency, hint sites and values,
//!   memory addresses (with the simulator's default already applied),
//! * the complete front-end outcome stream — per-instruction branch
//!   direction mispredictions, BTB stalls, fetch-group boundaries, and the
//!   L1 I-cache hit/miss sequence (the predictor and the L1i are touched
//!   only by fetch, in strict trace order, on purely static inputs, so
//!   their entire evolution is precomputable),
//! * every activity counter whose final value is statically determined
//!   (committed/dispatched/issued counts, branch and I-cache totals,
//!   register-file port counts, wakeup broadcasts — the counters are only
//!   observed after the run, never during it).
//!
//! [`PlanSimulator`] then replays the plan through the identical cycle
//! loop, touching only *dynamic* state: the shared L2 (its interleave of
//! instruction and data refills depends on run-time timing), the D-cache,
//! renaming, the issue queue, the event calendar and the adaptive
//! controller. The result is **bit-identical** to the interpreted backend
//! — same cycles, same `ActivityStats` — which the differential tests
//! below and the cross-backend proptests pin down.
//!
//! One plan serves all three resize policies of a cell shape: nothing in
//! the plan depends on [`ResizePolicy`].

use crate::branch::BranchPredictor;
use crate::cache::{Cache, CacheHierarchy};
use crate::config::SimConfig;
use crate::pipeline::{max_completion_latency, EventWheel, SimError, SimResult};
use crate::plan_queue::{PlanQueue, ReadyCandidate};
use crate::regfile::RenamedRegFile;
use crate::resize::{AdaptiveController, AdaptiveObservation, ResizePolicy};
use crate::stats::ActivityStats;
use sdiq_isa::{ArchReg, FuClass, Program, RegClass, Trace};

/// Per-instruction static flags (bit positions in [`InstRecord::flags`]).
/// Public so `sdiq-verify`'s plan lint can decode records.
pub mod flag {
    /// The instruction is a special NOOP, stripped at the final decode
    /// stage.
    pub const IS_HINT: u16 = 1 << 0;
    /// The instruction carries an `iq_hint` value (hint NOOP or tag).
    pub const HAS_HINT: u16 = 1 << 1;
    /// The instruction is a load (latency comes from the data cache).
    pub const IS_LOAD: u16 = 1 << 2;
    /// The instruction is a store (cache access, 1-cycle completion).
    pub const IS_STORE: u16 = 1 << 3;
    /// Fetch blocks behind this instruction until it resolves: its branch
    /// direction was mispredicted.
    pub const MISPREDICTED: u16 = 1 << 4;
    /// The taken control transfer missed in the BTB (2-cycle fetch bubble).
    pub const BTB_STALL: u16 = 1 << 5;
    /// Fetch stops after this instruction (taken branch or unconditional
    /// control transfer).
    pub const ENDS_GROUP: u16 = 1 << 6;
    /// This instruction begins a new I-cache line: fetch performs one
    /// I-cache access here.
    pub const NEW_LINE: u16 = 1 << 7;
    /// That access misses in the L1i; the run-time completes it with a
    /// shared-L2 refill and stalls fetch for the returned latency.
    pub const L1I_MISS: u16 = 1 << 8;
}

/// A fully lowered, allocation-free execution plan for one
/// `(program, trace, SimConfig)` cell shape. Build once with
/// [`ExecPlan::build`], run any number of times with [`PlanSimulator`].
#[derive(Debug, Clone)]
pub struct ExecPlan {
    config: SimConfig,
    workload: String,
    /// Static per-instruction record (one packed stream: fetch, dispatch
    /// and issue all walk a single array instead of five).
    insts: Vec<InstRecord>,
    /// Memory address per instruction, with the simulator's default
    /// already applied for non-memory opcodes.
    mem_addr: Vec<u64>,
    /// Fetch addresses of the L1i-missing accesses, in program order
    /// (consumed by a cursor: the misses are replayed exactly once each).
    imiss_addrs: Vec<u64>,
    /// Every activity counter whose final value is a pure function of the
    /// plan inputs, pre-totalled; the run adds only the dynamic counters.
    baked: ActivityStats,
    /// Trace instances of each static instruction, in layout order
    /// (procedure, block, index — [`Program::iter_locs`] order). Lets
    /// [`ExecPlan::low_energy_commits`] count the commits of any program
    /// with this layout, not just the one the plan was lowered from.
    commit_counts: Vec<u32>,
}

/// One instruction's fully decoded static side, packed to 12 bytes so the
/// hot stages stream one cache-friendly array. Fields are public (read-only
/// in practice — the plan hands out `&[InstRecord]`) so `sdiq-verify`'s
/// plan lint can round-trip every record against its source instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstRecord {
    /// Static flags (see [`flag`]).
    pub flags: u16,
    /// Dense destination architectural register ([`NO_REG`] = none).
    pub dest: u16,
    /// Dense source architectural registers ([`NO_REG`] = absent).
    pub srcs: [u16; 2],
    /// Functional-unit class.
    pub fu: FuClass,
    /// Fixed execution latency (`opcode.latency().max(1)`); loads/stores
    /// take theirs from the cache hierarchy.
    pub latency: u8,
    /// `iq_hint` value (meaningful when [`flag::HAS_HINT`]).
    pub hint: u8,
}

impl ExecPlan {
    /// Lowers `program` / `trace` under `config` into a plan. The trace
    /// must have been produced by executing exactly this program (the
    /// same contract as [`crate::Simulator::new`]).
    pub fn build(config: SimConfig, program: &Program, trace: &Trace) -> Self {
        let len = trace.committed.len();
        // Layout index of each block's first instruction, flattened:
        // block `b` of procedure `p` starts at
        // `block_starts[first_block[p] + b]`.
        let mut first_block = Vec::with_capacity(program.procedures.len());
        let mut block_starts = Vec::new();
        let mut static_len = 0;
        for proc in &program.procedures {
            first_block.push(block_starts.len());
            for block in &proc.blocks {
                block_starts.push(static_len);
                static_len += block.instructions.len();
            }
        }
        let mut plan = ExecPlan {
            config,
            workload: program.name.clone(),
            insts: Vec::with_capacity(len),
            mem_addr: Vec::with_capacity(len),
            imiss_addrs: Vec::new(),
            baked: ActivityStats {
                iq_total_banks: config.iq.banks() as u64,
                iq_total_entries: config.iq.entries as u64,
                int_rf_total_banks: config.int_rf.banks() as u64,
                fp_rf_total_banks: config.fp_rf.banks() as u64,
                ..ActivityStats::default()
            },
            commit_counts: vec![0; static_len],
        };

        // The front-end models evolve over purely static inputs, in strict
        // trace order, exactly once per site — so their full histories are
        // computed here and never touched again.
        let mut bpred = BranchPredictor::new(config.branch);
        let mut l1i = Cache::new(config.l1i);
        let line_bytes = config.l1i.line_bytes as u64;
        let mut last_fetched_line: Option<u64> = None;

        // Resolve every dynamic instruction's static side; consecutive
        // trace entries overwhelmingly share a basic block, so the block's
        // instruction slice is looked up only on block changes.
        let mut cached_block: Option<(sdiq_isa::ProcId, sdiq_isa::BlockId)> = None;
        let mut block_insts: &[sdiq_isa::Instruction] = &[];
        let mut block_start = 0;

        for (idx, dyn_inst) in trace.committed.iter().enumerate() {
            let loc = dyn_inst.loc;
            if cached_block != Some((loc.proc, loc.block)) {
                block_insts = program
                    .proc(loc.proc)
                    .block(loc.block)
                    .instructions
                    .as_slice();
                cached_block = Some((loc.proc, loc.block));
                block_start = block_starts[first_block[loc.proc.0] + loc.block.0];
            }
            let inst = &block_insts[loc.index];
            plan.commit_counts[block_start + loc.index] += 1;
            let addr = dyn_inst.addr;
            let mut flags: u16 = 0;

            // --- I-cache: one access per new cache line touched ------------
            let line = addr / line_bytes;
            if last_fetched_line != Some(line) {
                last_fetched_line = Some(line);
                flags |= flag::NEW_LINE;
                if !l1i.access(addr) {
                    flags |= flag::L1I_MISS;
                    plan.baked.icache_misses += 1;
                    plan.imiss_addrs.push(addr);
                }
            }

            // --- branch prediction -----------------------------------------
            if inst.opcode.is_cond_branch() {
                plan.baked.branches += 1;
                let actual_taken = dyn_inst.taken.unwrap_or(false);
                let prediction = bpred.predict_direction(addr);
                bpred.update_direction(addr, prediction, actual_taken);
                if prediction.taken != actual_taken {
                    flags |= flag::MISPREDICTED;
                    plan.baked.mispredicted_branches += 1;
                }
                if actual_taken {
                    flags |= flag::ENDS_GROUP;
                    let target = trace
                        .committed
                        .get(idx + 1)
                        .map(|d| d.addr)
                        .unwrap_or(addr + 4);
                    if bpred.predict_target(addr) != Some(target) {
                        plan.baked.btb_misses += 1;
                        flags |= flag::BTB_STALL;
                    }
                    bpred.update_target(addr, target);
                }
            } else if inst.opcode.is_control() {
                flags |= flag::ENDS_GROUP;
                let target = trace
                    .committed
                    .get(idx + 1)
                    .map(|d| d.addr)
                    .unwrap_or(addr + 4);
                if bpred.predict_target(addr) != Some(target) {
                    plan.baked.btb_misses += 1;
                    flags |= flag::BTB_STALL;
                }
                bpred.update_target(addr, target);
            }

            // --- decode ----------------------------------------------------
            if inst.is_hint_noop() {
                flags |= flag::IS_HINT;
                plan.baked.committed_hints += 1;
            } else {
                // Every non-hint trace entry dispatches, issues and commits
                // exactly once, reading its sources and (if present)
                // broadcasting its destination — all static totals.
                plan.baked.committed += 1;
                plan.baked.dispatched += 1;
                plan.baked.issued += 1;
                plan.baked.iq_writes += 1;
                plan.baked.iq_reads += 1;
                if let Some(dest) = inst.dest {
                    plan.baked.wakeup_broadcasts += 1;
                    match dest.class() {
                        RegClass::Int => plan.baked.int_rf_writes += 1,
                        RegClass::Fp => plan.baked.fp_rf_writes += 1,
                    }
                }
                for src in inst.srcs.iter().flatten() {
                    match src.class() {
                        RegClass::Int => plan.baked.int_rf_reads += 1,
                        RegClass::Fp => plan.baked.fp_rf_reads += 1,
                    }
                }
            }
            if inst.iq_hint.is_some() {
                flags |= flag::HAS_HINT;
            }
            if inst.opcode.is_load() {
                flags |= flag::IS_LOAD;
            }
            if inst.opcode.is_store() {
                flags |= flag::IS_STORE;
            }

            let mut srcs = [NO_REG; 2];
            for (slot, src) in srcs.iter_mut().zip(inst.srcs.iter()) {
                if let Some(arch) = src {
                    *slot = dense_arch(*arch);
                }
            }
            plan.insts.push(InstRecord {
                flags,
                dest: inst.dest.map_or(NO_REG, dense_arch),
                srcs,
                fu: inst.opcode.fu_class(),
                latency: inst.opcode.latency().max(1) as u8,
                hint: inst.iq_hint.unwrap_or(0),
            });
            plan.mem_addr.push(dyn_inst.mem_addr.unwrap_or(0x1000_0000));
        }
        // Full-queue wakeup comparisons are `2 × capacity` per broadcast
        // and the broadcast count is static, so the total is too.
        plan.baked.wakeup_comparisons_full =
            plan.baked.wakeup_broadcasts * 2 * config.iq.entries as u64;
        plan.baked.committed_low_energy = plan.low_energy_commits(program);
        plan
    }

    /// Committed instructions of `program` that carry the low-energy
    /// encoding mark, counted over this plan's trace: the sum of the trace
    /// instances of every marked non-hint static instruction (hint NOOPs
    /// never commit). This is the one definition of
    /// [`ActivityStats::committed_low_energy`]: the plan's own baked
    /// counter is this function of its source program. Because the mark
    /// never changes timing, it also counts exactly for any program that
    /// [differs from the source only in
    /// annotations](Program::differs_only_in_annotations), which is how a
    /// low-energy compile can price the source program's plan and replay.
    ///
    /// # Panics
    ///
    /// Panics if `program` has a different number of static instructions
    /// from the plan's source.
    pub fn low_energy_commits(&self, program: &Program) -> u64 {
        assert_eq!(
            program.static_instruction_count(),
            self.commit_counts.len(),
            "program layout differs from the plan's source"
        );
        program
            .procedures
            .iter()
            .flat_map(|proc| &proc.blocks)
            .flat_map(|block| &block.instructions)
            .zip(&self.commit_counts)
            .filter(|(inst, _)| inst.low_energy && !inst.is_hint_noop())
            .map(|(_, &count)| u64::from(count))
            .sum()
    }

    /// Number of dynamic instructions the plan covers.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the plan covers an empty trace.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The simulator configuration the plan was lowered for.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The workload (program) name, for report labelling.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The packed per-instruction records, in trace order.
    pub fn records(&self) -> &[InstRecord] {
        &self.insts
    }

    /// The per-instruction memory addresses (the simulator's default
    /// already applied for non-memory opcodes), in trace order.
    pub fn mem_addrs(&self) -> &[u64] {
        &self.mem_addr
    }

    /// Fetch addresses of the L1i-missing accesses, in program order.
    pub fn imiss_addrs(&self) -> &[u64] {
        &self.imiss_addrs
    }

    /// The statically pre-totalled activity counters.
    pub fn baked_stats(&self) -> &ActivityStats {
        &self.baked
    }

    /// Mutable access to the packed records, for seeded-defect tests that
    /// deliberately corrupt a plan. Not part of the stable API.
    #[doc(hidden)]
    pub fn records_mut(&mut self) -> &mut [InstRecord] {
        &mut self.insts
    }
}

/// "No register" sentinel for the dense register encoding.
pub const NO_REG: u16 = u16::MAX;

/// Dense encoding of a register: `index << 1 | class` (Int = 0, Fp = 1).
/// The same scheme covers architectural registers (in the plan) and
/// physical registers (in [`InFlight`] and the consumer index) — both fit
/// one `u16`, and the class is recoverable from bit 0 without touching a
/// [`PhysReg`] / [`ArchReg`] struct. Public so the plan lint recomputes
/// the expected encoding independently.
#[inline]
pub fn dense_arch(arch: ArchReg) -> u16 {
    let class_bit = match arch.class() {
        RegClass::Int => 0,
        RegClass::Fp => 1,
    };
    ((arch.index() as u16) << 1) | class_bit
}

/// In-flight (ROB-resident) instruction of the compiled backend. Leaner
/// than the interpreted twin: sources are not kept (read-port totals are
/// baked), opcode / memory address / latency live in the plan, and the
/// destination registers are dense `u16`s ([`NO_REG`] = none).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    trace_idx: u32,
    dest: u16,
    /// Previous mapping of the destination architectural register,
    /// released at commit.
    prev_dest: u16,
    mispredicted: bool,
    /// Set at writeback; commit retires completed entries in order.
    /// (Between dispatch and writeback no stage distinguishes queued from
    /// executing, so a single bit suffices.)
    completed: bool,
}

/// Filler for unoccupied ROB ring slots.
const INFLIGHT_EMPTY: InFlight = InFlight {
    trace_idx: 0,
    dest: NO_REG,
    prev_dest: NO_REG,
    mispredicted: false,
    completed: false,
};

/// The compiled-backend simulator: replays an [`ExecPlan`] through the
/// cycle loop, touching only dynamic state. Create one per run with
/// [`PlanSimulator::new`] and call [`PlanSimulator::run`]; results are
/// bit-identical to [`crate::Simulator`] on the same inputs.
#[derive(Debug)]
pub struct PlanSimulator<'p> {
    plan: &'p ExecPlan,
    policy: ResizePolicy,
    uses_hints: bool,

    caches: CacheHierarchy,
    iq: PlanQueue,
    int_rf: RenamedRegFile,
    fp_rf: RenamedRegFile,
    adaptive: Option<AdaptiveController>,

    /// Fetch queue as a ring of decode-ready cycles: the queued trace
    /// indices are always the consecutive range
    /// `next_dispatch..next_fetch`, so only the per-entry ready cycle
    /// needs storing — at `fq_ready[idx & (fq_ready.len() - 1)]` (the
    /// ring is sized to the next power of two ≥ `fetch_queue_entries`, so
    /// live entries never collide; masking with the length keeps the
    /// indexing bounds-check-free).
    fq_ready: Vec<u64>,
    /// Trace index at the front of the fetch queue (next to dispatch).
    next_dispatch: usize,
    next_fetch: usize,
    fetch_stalled_until: u64,
    /// Trace index of the unresolved mispredicted branch blocking fetch.
    fetch_blocked_by: Option<usize>,
    /// `idx + 1` of the last instruction whose (precomputed) I-cache
    /// access has been performed — the resume-after-refill guard: when a
    /// miss stalls fetch mid-group, the retried instruction must not
    /// access again (the interpreted backend gets this from
    /// `last_fetched_line`).
    fetch_line_done: usize,
    /// Next unconsumed entry of [`ExecPlan::imiss_addrs`].
    imiss_cursor: usize,

    /// In-flight ring, doubling as the ROB: instruction `id` lives at
    /// `rob[id as usize & (rob.len() - 1)]` (the ring is sized to the next
    /// power of two ≥ the ROB capacity, so the live id range
    /// `inflight_base..next_id` never collides; masking with the length
    /// keeps the indexing bounds-check-free). Occupancy is
    /// `next_id - inflight_base`.
    rob: Vec<InFlight>,
    inflight_base: u64,
    rob_limit: usize,
    next_id: u64,
    completions: EventWheel,
    /// Persistent age-ordered (= id-ordered) list of ready candidates.
    ready: Vec<ReadyCandidate>,
    /// Scratch buffer for entries woken by one broadcast.
    woken: Vec<ReadyCandidate>,
    /// Hint NOOPs stripped during the current dispatch step.
    strip_count_this_cycle: usize,

    stats: ActivityStats,
}

impl<'p> PlanSimulator<'p> {
    /// Creates a simulator replaying `plan` under `policy`.
    pub fn new(plan: &'p ExecPlan, policy: ResizePolicy) -> Self {
        let config = plan.config;
        let adaptive = match policy {
            ResizePolicy::Adaptive(cfg) => Some(AdaptiveController::new(
                cfg,
                config.iq.entries,
                config.widths.rob_capacity,
            )),
            _ => None,
        };
        // Dense register universe the consumer index must cover
        // (`index << 1 | class`); only the adaptive policy observes age
        // ranks, so only it maintains the queue head they count from.
        let dense_regs = 2 * config
            .int_rf
            .regs_per_class
            .max(config.fp_rf.regs_per_class);
        let track_age = adaptive.is_some();
        let fq_len = config.fetch_queue_entries.next_power_of_two();
        let rob_len = config.widths.rob_capacity.next_power_of_two();
        PlanSimulator {
            plan,
            uses_hints: policy.uses_hints(),
            policy,
            caches: CacheHierarchy::new(&config),
            iq: PlanQueue::new(
                config.iq.entries,
                config.iq.bank_size,
                dense_regs,
                track_age,
            ),
            int_rf: RenamedRegFile::new(RegClass::Int, config.int_rf),
            fp_rf: RenamedRegFile::new(RegClass::Fp, config.fp_rf),
            adaptive,
            fq_ready: vec![0; fq_len],
            next_dispatch: 0,
            next_fetch: 0,
            fetch_stalled_until: 0,
            fetch_blocked_by: None,
            fetch_line_done: 0,
            imiss_cursor: 0,
            rob: vec![INFLIGHT_EMPTY; rob_len],
            inflight_base: 0,
            rob_limit: config.widths.rob_capacity,
            next_id: 0,
            completions: EventWheel::new(max_completion_latency(&config)),
            ready: Vec::new(),
            woken: Vec::new(),
            strip_count_this_cycle: 0,
            // Dynamic counters accumulate on top of the baked totals.
            stats: plan.baked.clone(),
        }
    }

    /// Ring index of in-flight instruction `id`.
    #[inline]
    fn inflight_index(&self, id: u64) -> usize {
        id as usize & (self.rob.len() - 1)
    }

    /// Current ROB occupancy.
    #[inline]
    fn inflight_len(&self) -> usize {
        (self.next_id - self.inflight_base) as usize
    }

    /// Runs the plan to completion and returns the activity counters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the pipeline stops making
    /// progress (a model bug, not an expected outcome).
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let total = self.plan.len();
        let mut cycle: u64 = 0;
        let mut committed_total: usize = 0;
        let mut last_progress_cycle: u64 = 0;
        let mut last_committed: usize = 0;
        const PROGRESS_WINDOW: u64 = 100_000;

        while committed_total < total {
            // --- 1. writeback ------------------------------------------------
            let due = self.completions.take_due(cycle);
            for &id in &due {
                self.writeback(id, cycle);
            }
            self.completions.recycle(due);

            // --- 2. commit ----------------------------------------------------
            committed_total += self.commit();

            // --- 3. issue -----------------------------------------------------
            let observation = self.issue(cycle);

            // --- 4. dispatch --------------------------------------------------
            self.dispatch(cycle);
            committed_total += self.strip_count_this_cycle;
            self.strip_count_this_cycle = 0;

            // --- 5. fetch -----------------------------------------------------
            self.fetch(cycle);

            // --- 6. per-cycle statistics and adaptive control ------------------
            self.collect_cycle_stats();
            if let Some(controller) = self.adaptive.as_mut() {
                if let Some(decision) = controller.on_cycle(cycle, observation) {
                    self.iq.set_hard_limit(Some(decision.iq_limit));
                    self.rob_limit = decision.rob_limit;
                }
            }

            // --- progress guard ------------------------------------------------
            if committed_total > last_committed {
                last_committed = committed_total;
                last_progress_cycle = cycle;
            } else if cycle - last_progress_cycle > PROGRESS_WINDOW {
                return Err(SimError::Deadlock {
                    cycle,
                    detail: format!(
                        "committed {committed_total}/{total}, rob={} iq={} fetchq={} next_fetch={}",
                        self.inflight_len(),
                        self.iq.occupancy(),
                        self.next_fetch - self.next_dispatch,
                        self.next_fetch
                    ),
                });
            }

            cycle += 1;
        }

        self.stats.cycles = cycle.max(1);
        let (dcache_accesses, dcache_misses) = self.caches.dcache_stats();
        self.stats.dcache_accesses = dcache_accesses;
        self.stats.dcache_misses = dcache_misses;
        let adaptive_resizes = self.adaptive.as_ref().map_or(0, |a| a.resizes());
        Ok(SimResult {
            stats: self.stats,
            adaptive_resizes,
        })
    }

    fn writeback(&mut self, id: u64, cycle: u64) {
        let index = self.inflight_index(id);
        let inst = &mut self.rob[index];
        inst.completed = true;
        let (dest, mispredicted, trace_idx) =
            (inst.dest, inst.mispredicted, inst.trace_idx as usize);
        if dest != NO_REG {
            // Write the register file and broadcast into the issue queue
            // (port, broadcast and full-comparison totals are baked; the
            // non-empty/gated counts depend on the queue's dynamic
            // contents).
            let rf = if dest & 1 == 0 {
                &mut self.int_rf
            } else {
                &mut self.fp_rf
            };
            rf.write_value_index((dest >> 1) as usize);
            let (non_empty, gated) = self.iq.wakeup(dest, &mut self.woken);
            self.stats.wakeup_comparisons_nonempty += non_empty;
            self.stats.wakeup_comparisons_gated += gated;
            while let Some(candidate) = self.woken.pop() {
                let position = self.ready.partition_point(|c| c.id < candidate.id);
                self.ready.insert(position, candidate);
            }
        }
        if mispredicted && self.fetch_blocked_by == Some(trace_idx) {
            self.fetch_blocked_by = None;
            self.fetch_stalled_until = self
                .fetch_stalled_until
                .max(cycle + 1 + u64::from(self.plan.config.branch.mispredict_redirect_penalty));
        }
    }

    fn commit(&mut self) -> usize {
        let width = self.plan.config.widths.pipeline_width;
        let mut committed = 0;
        while committed < width && self.inflight_base < self.next_id {
            let inst = self.rob[self.inflight_base as usize & (self.rob.len() - 1)];
            if !inst.completed {
                break;
            }
            self.inflight_base += 1;
            if inst.prev_dest != NO_REG {
                let rf = if inst.prev_dest & 1 == 0 {
                    &mut self.int_rf
                } else {
                    &mut self.fp_rf
                };
                rf.release_index((inst.prev_dest >> 1) as usize);
            }
            committed += 1;
        }
        committed
    }

    fn issue(&mut self, cycle: u64) -> AdaptiveObservation {
        let issue_width = self.plan.config.widths.pipeline_width;
        let fu_counts = self.plan.config.fu_counts;
        let limit = self.iq.hard_limit().unwrap_or_else(|| self.iq.capacity());
        let bank_size = self.plan.config.iq.bank_size;
        let track_youngest = self.adaptive.is_some() && self.iq.occupancy() + bank_size > limit;
        let mut fu_used = [0usize; FuClass::COUNT];
        let mut issued = 0usize;
        let mut observation = AdaptiveObservation::default();

        let mut candidates = std::mem::take(&mut self.ready);
        let mut kept = 0usize;
        for index in 0..candidates.len() {
            let candidate = candidates[index];
            if issued >= issue_width {
                candidates[kept] = candidate;
                kept += 1;
                continue;
            }
            // The candidate carries its trace index, so the static side
            // (FU class, flags, latency) streams from the plan record and
            // neither the queue nor the ROB stores it.
            let trace_idx = candidate.trace_idx as usize;
            let rec = &self.plan.insts[trace_idx];
            let fu = rec.fu;
            let class = fu.index();
            if fu_used[class] >= fu_counts.for_class(fu) {
                candidates[kept] = candidate;
                kept += 1;
                continue;
            }
            fu_used[class] += 1;
            observation.issued += 1;
            if track_youngest {
                let rank = self.iq.age_rank(candidate.slot as usize) + issued;
                if rank + bank_size >= limit {
                    observation.issued_from_youngest_bank += 1;
                }
            }
            issued += 1;

            let id = candidate.id;
            self.iq.remove(candidate.slot as usize);

            // Execution latency (register read-port totals are baked; the
            // reads have no other observable effect).
            let latency = if rec.flags & flag::IS_LOAD != 0 {
                let access = self.caches.access_data(self.plan.mem_addr[trace_idx]);
                if access.l2_miss {
                    self.stats.l2_misses += 1;
                }
                u64::from(1 + access.latency)
            } else if rec.flags & flag::IS_STORE != 0 {
                // Stores update the cache but retire from the pipeline's
                // point of view after address generation.
                let access = self.caches.access_data(self.plan.mem_addr[trace_idx]);
                if access.l2_miss {
                    self.stats.l2_misses += 1;
                }
                1
            } else {
                u64::from(rec.latency)
            };
            self.completions.schedule(cycle, cycle + latency, id);
        }
        candidates.truncate(kept);
        self.ready = candidates;
        observation
    }

    fn dispatch(&mut self, cycle: u64) {
        let width = self.plan.config.widths.pipeline_width;
        let rob_limit = self.rob_limit.min(self.plan.config.widths.rob_capacity);
        let mut dispatched = 0usize;
        while dispatched < width {
            if self.next_dispatch >= self.next_fetch {
                break;
            }
            let trace_idx = self.next_dispatch;
            if self.fq_ready[trace_idx & (self.fq_ready.len() - 1)] > cycle {
                break;
            }
            let rec = self.plan.insts[trace_idx];
            let flags = rec.flags;

            // Hint handling, both shapes behind one combined-flag branch:
            // a tag on a real instruction applies at decode at no slot
            // cost; a special NOOP applies and then strips at the final
            // decode stage, consuming its dispatch slot without ever
            // entering the issue queue.
            if flags & (flag::IS_HINT | flag::HAS_HINT) != 0 {
                if self.uses_hints && flags & flag::HAS_HINT != 0 {
                    self.iq.apply_hint(rec.hint as usize);
                }
                if flags & flag::IS_HINT != 0 {
                    self.next_dispatch += 1;
                    self.strip_count_this_cycle += 1;
                    dispatched += 1;
                    continue;
                }
            }

            // Structural checks.
            if !self.iq.can_dispatch() {
                if self.iq.max_new_range().is_some() || self.iq.hard_limit().is_some() {
                    self.stats.dispatch_limit_stall_cycles += 1;
                }
                break;
            }
            if self.inflight_len() >= rob_limit {
                self.stats.rob_full_stall_cycles += 1;
                break;
            }
            let dest_arch = rec.dest;
            if dest_arch != NO_REG {
                let has_free = if dest_arch & 1 == 0 {
                    self.int_rf.has_free()
                } else {
                    self.fp_rf.has_free()
                };
                if !has_free {
                    self.stats.rename_stall_cycles += 1;
                    break;
                }
            }

            // Rename (class travels as bit 0 of the dense encoding).
            let srcs = rec.srcs;
            let mut ops = [NO_REG; 2];
            let mut wait = 0u8;
            for (operand, (slot, &src)) in ops.iter_mut().zip(srcs.iter()).enumerate() {
                if src != NO_REG {
                    let rf = if src & 1 == 0 {
                        &self.int_rf
                    } else {
                        &self.fp_rf
                    };
                    let phys = rf.rename_source_index((src >> 1) as usize);
                    *slot = ((phys as u16) << 1) | (src & 1);
                    wait |= u8::from(!rf.is_ready_index(phys)) << operand;
                }
            }
            let (dest, prev_dest) = if dest_arch != NO_REG {
                let rf = if dest_arch & 1 == 0 {
                    &mut self.int_rf
                } else {
                    &mut self.fp_rf
                };
                let (new, old) = rf
                    .allocate_dest_index((dest_arch >> 1) as usize)
                    .expect("free register checked above");
                (
                    ((new as u16) << 1) | (dest_arch & 1),
                    ((old as u16) << 1) | (dest_arch & 1),
                )
            } else {
                (NO_REG, NO_REG)
            };

            let id = self.next_id;
            self.next_id += 1;
            let (slot, ready_now) = self.iq.dispatch(id, trace_idx as u32, ops, wait);
            // Ready on arrival → joins the ready list immediately. Ids are
            // monotonic, so appending keeps the list age-ordered.
            if ready_now {
                self.ready.push(ReadyCandidate {
                    id,
                    slot: slot as u32,
                    trace_idx: trace_idx as u32,
                });
            }

            let rob_mask = self.rob.len() - 1;
            self.rob[id as usize & rob_mask] = InFlight {
                trace_idx: trace_idx as u32,
                dest,
                prev_dest,
                mispredicted: flags & flag::MISPREDICTED != 0,
                completed: false,
            };
            self.next_dispatch += 1;
            dispatched += 1;
        }
    }

    fn fetch(&mut self, cycle: u64) {
        if self.fetch_blocked_by.is_some() || cycle < self.fetch_stalled_until {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        let width = self.plan.config.widths.pipeline_width;
        let mut fetched = 0usize;
        while fetched < width
            && self.next_fetch < self.plan.len()
            && self.next_fetch - self.next_dispatch < self.plan.config.fetch_queue_entries
        {
            let idx = self.next_fetch;
            let flags = self.plan.insts[idx].flags;

            // I-cache: the L1i outcome is precomputed; only the shared-L2
            // part of a miss runs here. The `fetch_line_done` guard keeps
            // the access from repeating when fetch resumes on this same
            // instruction after the refill stall.
            if flags & flag::NEW_LINE != 0 && self.fetch_line_done <= idx {
                self.fetch_line_done = idx + 1;
                if flags & flag::L1I_MISS != 0 {
                    let addr = self.plan.imiss_addrs[self.imiss_cursor];
                    self.imiss_cursor += 1;
                    let access = self.caches.refill_instruction_after_l1i_miss(addr);
                    if access.l2_miss {
                        self.stats.l2_misses += 1;
                    }
                    // Refill stall: resume fetching this instruction after
                    // the miss is served.
                    self.fetch_stalled_until = cycle + u64::from(access.latency);
                    break;
                }
            }

            if flags & flag::BTB_STALL != 0 {
                self.fetch_stalled_until = self.fetch_stalled_until.max(cycle + 2);
            }

            let fq_mask = self.fq_ready.len() - 1;
            self.fq_ready[idx & fq_mask] = cycle + u64::from(self.plan.config.decode_stages);
            self.next_fetch += 1;
            fetched += 1;

            if flags & flag::MISPREDICTED != 0 {
                // Fetch cannot proceed past a mispredicted branch until it
                // resolves at writeback.
                self.fetch_blocked_by = Some(idx);
                break;
            }
            if flags & flag::ENDS_GROUP != 0 {
                break;
            }
        }
    }

    fn collect_cycle_stats(&mut self) {
        self.stats.iq_occupancy_sum += self.iq.occupancy() as u64;
        let bank_size = self.plan.config.iq.bank_size.max(1);
        let banks_on = match self.iq.hard_limit() {
            Some(limit) => limit.div_ceil(bank_size).min(self.plan.config.iq.banks()),
            None => self.iq.banks_on(),
        };
        self.stats.iq_banks_on_sum += banks_on as u64;
        self.stats.rob_occupancy_sum += self.inflight_len() as u64;
        self.stats.int_rf_occupancy_sum += self.int_rf.occupancy() as u64;
        self.stats.int_rf_banks_on_sum += self.int_rf.banks_on() as u64;
        self.stats.fp_rf_occupancy_sum += self.fp_rf.occupancy() as u64;
        self.stats.fp_rf_banks_on_sum += self.fp_rf.banks_on() as u64;
    }
}

// `policy` is carried for debugging/display parity with the interpreted
// backend even though only `uses_hints` and `adaptive` derive from it.
impl PlanSimulator<'_> {
    /// The resize policy this simulator replays under.
    pub fn policy(&self) -> ResizePolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Simulator;
    use crate::resize::AdaptiveConfig;
    use sdiq_isa::builder::ProgramBuilder;
    use sdiq_isa::reg::int_reg;
    use sdiq_isa::Executor;

    fn loop_program(trips: i64, ilp: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            let body = p.block();
            let exit = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0);
                bb.li(int_reg(2), 1000);
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                for k in 0..ilp {
                    bb.addi(int_reg(3 + (k % 6) as u8), int_reg(2), k as i64);
                }
                bb.load(int_reg(10), int_reg(2), 0);
                bb.addi(int_reg(11), int_reg(10), 1);
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), trips, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(entry);
        }
        b.finish(main).unwrap()
    }

    fn hinted_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            let body = p.block();
            let exit = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0);
                bb.li(int_reg(2), 1000);
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                bb.hint_noop(4);
                for k in 0..8 {
                    bb.addi(int_reg(3 + (k % 6) as u8), int_reg(2), k as i64);
                }
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), 300, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(entry);
        }
        b.finish(main).unwrap()
    }

    fn assert_backends_agree(program: &Program, config: SimConfig, policy: ResizePolicy) {
        let trace = Executor::new(program).run(200_000).unwrap();
        let interpreted = Simulator::new(config, program, &trace, policy)
            .run()
            .unwrap();
        let plan = ExecPlan::build(config, program, &trace);
        let compiled = PlanSimulator::new(&plan, policy).run().unwrap();
        assert_eq!(
            interpreted.stats, compiled.stats,
            "ActivityStats must be bit-identical across backends"
        );
        assert_eq!(interpreted.adaptive_resizes, compiled.adaptive_resizes);
    }

    #[test]
    fn compiled_backend_matches_interpreted_for_all_policies() {
        let program = loop_program(200, 4);
        for policy in [
            ResizePolicy::Fixed,
            ResizePolicy::SoftwareHint,
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
        ] {
            assert_backends_agree(&program, SimConfig::hpca2005(), policy);
        }
    }

    #[test]
    fn compiled_backend_matches_interpreted_on_hinted_program() {
        let program = hinted_program();
        for policy in [ResizePolicy::Fixed, ResizePolicy::SoftwareHint] {
            assert_backends_agree(&program, SimConfig::hpca2005(), policy);
        }
    }

    #[test]
    fn compiled_backend_matches_interpreted_on_small_machine() {
        // The small configuration stresses structural stalls (ROB, rename,
        // fetch queue) far harder than Table 1.
        let program = loop_program(400, 6);
        for policy in [
            ResizePolicy::Fixed,
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
        ] {
            assert_backends_agree(&program, SimConfig::small_for_tests(), policy);
        }
    }

    #[test]
    fn one_plan_serves_every_policy() {
        let program = hinted_program();
        let trace = Executor::new(&program).run(200_000).unwrap();
        let config = SimConfig::hpca2005();
        let plan = ExecPlan::build(config, &program, &trace);
        // The same plan instance replays under all three policies and
        // still matches the interpreted backend per policy.
        for policy in [
            ResizePolicy::Fixed,
            ResizePolicy::SoftwareHint,
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
        ] {
            let interpreted = Simulator::new(config, &program, &trace, policy)
                .run()
                .unwrap();
            let compiled = PlanSimulator::new(&plan, policy).run().unwrap();
            assert_eq!(interpreted.stats, compiled.stats, "policy {policy:?}");
        }
    }

    #[test]
    fn plan_bakes_static_totals() {
        let program = hinted_program();
        let trace = Executor::new(&program).run(200_000).unwrap();
        let plan = ExecPlan::build(SimConfig::hpca2005(), &program, &trace);
        let baked = &plan.baked;
        assert_eq!(
            baked.committed + baked.committed_hints,
            trace.len() as u64,
            "every trace entry commits or strips"
        );
        assert!(baked.committed_hints >= 300, "one hint per iteration");
        assert_eq!(baked.dispatched, baked.committed);
        assert_eq!(baked.iq_writes, baked.dispatched);
        assert_eq!(baked.iq_reads, baked.issued);
        assert!(baked.branches >= 300);
        assert_eq!(plan.len(), trace.len());
        assert_eq!(plan.workload(), program.name);
    }

    #[test]
    fn empty_trace_runs_to_a_single_cycle() {
        let program = loop_program(1, 1);
        let trace = Executor::new(&program).run(200_000).unwrap();
        let plan = ExecPlan::build(SimConfig::hpca2005(), &program, &trace);
        let result = PlanSimulator::new(&plan, ResizePolicy::Fixed)
            .run()
            .unwrap();
        assert!(result.stats.cycles >= 1);
    }
}
