//! Program representation: procedures, basic blocks and instruction addresses.

use crate::inst::Instruction;
use crate::opcode::Opcode;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a procedure within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub usize);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

/// Identifier of a basic block within a [`Procedure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub usize);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A (procedure, block) pair uniquely naming a basic block in a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockRef {
    /// Owning procedure.
    pub proc: ProcId,
    /// Block within the procedure.
    pub block: BlockId,
}

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.proc, self.block)
    }
}

/// Location of a single static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstrLoc {
    /// Owning procedure.
    pub proc: ProcId,
    /// Owning basic block.
    pub block: BlockId,
    /// Index within the block's instruction list.
    pub index: usize,
}

impl fmt::Display for InstrLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.proc, self.block, self.index)
    }
}

/// A basic block: a straight-line instruction sequence with a single entry
/// and a single exit.
///
/// Control flow out of the block is defined by its last instruction plus the
/// optional [`BasicBlock::fallthrough`] successor:
///
/// * conditional branch → taken target + fallthrough,
/// * `Jump` → jump target only,
/// * `Return` → no successor,
/// * `Call` → the callee runs, then control resumes at `fallthrough`,
/// * anything else → `fallthrough` only.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BasicBlock {
    /// The instructions of the block, in program order.
    pub instructions: Vec<Instruction>,
    /// Fall-through successor (see the type-level docs).
    pub fallthrough: Option<BlockId>,
}

impl BasicBlock {
    /// Creates an empty basic block.
    pub fn new() -> Self {
        BasicBlock::default()
    }

    /// The block's terminating instruction, if any.
    pub fn terminator(&self) -> Option<&Instruction> {
        self.instructions.last()
    }

    /// Successor blocks within the same procedure, in (taken, not-taken)
    /// order for conditional branches.
    pub fn successors(&self) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(2);
        match self.terminator() {
            Some(t) if t.opcode.is_cond_branch() => {
                if let Some(target) = t.branch_target {
                    out.push(target);
                }
                if let Some(ft) = self.fallthrough {
                    out.push(ft);
                }
            }
            Some(t) if t.opcode == Opcode::Jump => {
                if let Some(target) = t.branch_target {
                    out.push(target);
                }
            }
            Some(t) if t.opcode == Opcode::Return => {}
            _ => {
                if let Some(ft) = self.fallthrough {
                    out.push(ft);
                }
            }
        }
        out
    }

    /// The procedure called by this block's terminator, if it ends in a call.
    pub fn callee(&self) -> Option<ProcId> {
        self.terminator().and_then(|t| {
            if t.opcode == Opcode::Call {
                t.call_target
            } else {
                None
            }
        })
    }

    /// Number of instructions, excluding special NOOP hints.
    pub fn real_instruction_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| !i.is_hint_noop())
            .count()
    }

    /// `true` if the block ends the procedure (returns).
    pub fn is_exit(&self) -> bool {
        matches!(self.terminator().map(|t| t.opcode), Some(Opcode::Return))
    }
}

/// A procedure: a named collection of basic blocks with a distinguished entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Procedure {
    /// Human-readable name (unique within a program by construction when
    /// using [`crate::builder::ProgramBuilder`]).
    pub name: String,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// Entry block.
    pub entry: BlockId,
    /// `true` for library routines: the paper's compiler pass does not
    /// analyse these and lets the issue queue grow to its maximum size
    /// immediately before calling them (§4.4).
    pub is_library: bool,
}

impl Procedure {
    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.0]
    }

    /// Iterates over `(BlockId, &BasicBlock)` pairs in id order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i), b))
    }

    /// Total number of static instructions in the procedure.
    pub fn instruction_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instructions.len()).sum()
    }

    /// All procedures this procedure may call directly.
    pub fn callees(&self) -> Vec<ProcId> {
        let mut out: Vec<ProcId> = self.blocks.iter().filter_map(|b| b.callee()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A whole program: procedures plus the entry procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Procedures, indexed by [`ProcId`].
    pub procedures: Vec<Procedure>,
    /// Entry procedure (execution starts at its entry block).
    pub entry: ProcId,
    /// Optional descriptive name (e.g. the benchmark it models).
    pub name: String,
}

impl Program {
    /// Returns the procedure with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn proc(&self, id: ProcId) -> &Procedure {
        &self.procedures[id.0]
    }

    /// Mutable access to a procedure.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn proc_mut(&mut self, id: ProcId) -> &mut Procedure {
        &mut self.procedures[id.0]
    }

    /// Iterates `(ProcId, &Procedure)` pairs in id order.
    pub fn iter_procs(&self) -> impl Iterator<Item = (ProcId, &Procedure)> {
        self.procedures
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcId(i), p))
    }

    /// Looks a procedure up by name.
    pub fn proc_by_name(&self, name: &str) -> Option<ProcId> {
        self.procedures
            .iter()
            .position(|p| p.name == name)
            .map(ProcId)
    }

    /// The instruction at `loc`.
    ///
    /// # Panics
    ///
    /// Panics if any component of the location is out of range.
    pub fn instruction(&self, loc: InstrLoc) -> &Instruction {
        &self.proc(loc.proc).block(loc.block).instructions[loc.index]
    }

    /// Total static instruction count across all procedures.
    pub fn static_instruction_count(&self) -> usize {
        self.procedures.iter().map(|p| p.instruction_count()).sum()
    }

    /// `true` if `other` is this program with at most its compiler
    /// annotations changed — `iq_hint` tags and `low_energy` marks — and
    /// nothing else: the same procedures, blocks, control flow and
    /// operations in the same layout. Such a pair executes identically and
    /// times identically under every resize policy that ignores hints. A
    /// pass that *inserts* a hint NOOP changes the layout, so its output
    /// never qualifies. O(static instructions).
    pub fn differs_only_in_annotations(&self, other: &Program) -> bool {
        let Program {
            procedures,
            entry,
            name,
        } = self;
        *entry == other.entry
            && *name == other.name
            && procedures.len() == other.procedures.len()
            && procedures.iter().zip(&other.procedures).all(|(p, q)| {
                let Procedure {
                    name,
                    blocks,
                    entry,
                    is_library,
                } = p;
                *name == q.name
                    && *entry == q.entry
                    && *is_library == q.is_library
                    && blocks.len() == q.blocks.len()
                    && blocks.iter().zip(&q.blocks).all(|(a, b)| {
                        let BasicBlock {
                            instructions,
                            fallthrough,
                        } = a;
                        *fallthrough == b.fallthrough
                            && instructions.len() == b.instructions.len()
                            && instructions
                                .iter()
                                .zip(&b.instructions)
                                .all(|(x, y)| x.differs_only_in_annotations(y))
                    })
            })
    }

    /// Count of special NOOP hint instructions (inserted by the compiler's
    /// NOOP technique).
    pub fn hint_noop_count(&self) -> usize {
        self.procedures
            .iter()
            .flat_map(|p| p.blocks.iter())
            .flat_map(|b| b.instructions.iter())
            .filter(|i| i.is_hint_noop())
            .count()
    }

    /// Iterates over every instruction location in the program, in
    /// (procedure, block, index) order.
    pub fn iter_locs(&self) -> impl Iterator<Item = InstrLoc> + '_ {
        self.iter_procs().flat_map(|(pid, p)| {
            p.iter_blocks().flat_map(move |(bid, b)| {
                (0..b.instructions.len()).map(move |i| InstrLoc {
                    proc: pid,
                    block: bid,
                    index: i,
                })
            })
        })
    }

    /// Structural validation of the whole program.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: dangling block or
    /// procedure references, blocks with neither a terminator nor a
    /// fall-through, malformed instructions, or an empty entry procedure.
    pub fn validate(&self) -> Result<(), String> {
        if self.procedures.is_empty() {
            return Err("program has no procedures".to_string());
        }
        if self.entry.0 >= self.procedures.len() {
            return Err(format!("entry {} out of range", self.entry));
        }
        for (pid, proc) in self.iter_procs() {
            if proc.blocks.is_empty() {
                return Err(format!("{pid} ({}) has no blocks", proc.name));
            }
            if proc.entry.0 >= proc.blocks.len() {
                return Err(format!("{pid} entry {} out of range", proc.entry));
            }
            for (bid, block) in proc.iter_blocks() {
                for (idx, inst) in block.instructions.iter().enumerate() {
                    inst.validate()
                        .map_err(|e| format!("{pid}:{bid}:{idx} ({}): {e}", proc.name))?;
                    if let Some(target) = inst.branch_target {
                        if target.0 >= proc.blocks.len() {
                            return Err(format!(
                                "{pid}:{bid}:{idx}: branch target {target} out of range"
                            ));
                        }
                    }
                    if let Some(callee) = inst.call_target {
                        if callee.0 >= self.procedures.len() {
                            return Err(format!(
                                "{pid}:{bid}:{idx}: call target {callee} out of range"
                            ));
                        }
                    }
                    // Control-flow instructions must terminate their block.
                    if inst.opcode.is_control() && idx + 1 != block.instructions.len() {
                        return Err(format!(
                            "{pid}:{bid}:{idx}: control-flow instruction {} is not the block terminator",
                            inst.opcode
                        ));
                    }
                }
                if let Some(ft) = block.fallthrough {
                    if ft.0 >= proc.blocks.len() {
                        return Err(format!("{pid}:{bid}: fallthrough {ft} out of range"));
                    }
                }
                let term = block.terminator().map(|t| t.opcode);
                let needs_fallthrough = match term {
                    Some(Opcode::Jump) | Some(Opcode::Return) => false,
                    Some(op) if op.is_cond_branch() => true,
                    Some(Opcode::Call) => true,
                    _ => true,
                };
                if needs_fallthrough && block.fallthrough.is_none() {
                    return Err(format!(
                        "{pid}:{bid} ({}) has no fall-through successor and does not end in a jump or return",
                        proc.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Assigns a pseudo address to every static instruction.
///
/// Addresses drive the branch predictor, BTB and I-cache in the timing
/// simulator, standing in for the code layout a real linker would produce.
/// Instructions are laid out contiguously, 4 bytes apart, procedure by
/// procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddressMap {
    /// `block_base[proc][block]` = address of the block's first instruction.
    block_base: Vec<Vec<u64>>,
    /// Reverse map from block start address to block.
    by_addr: HashMap<u64, BlockRef>,
    /// First address after the program.
    end: u64,
}

/// Base address of the first instruction in the program.
pub const TEXT_BASE: u64 = 0x0040_0000;
/// Size of one encoded instruction in bytes.
pub const INSTR_BYTES: u64 = 4;

impl AddressMap {
    /// Builds the address map for `program`.
    pub fn build(program: &Program) -> Self {
        let mut block_base = Vec::with_capacity(program.procedures.len());
        let mut by_addr = HashMap::new();
        let mut cursor = TEXT_BASE;
        for (pid, proc) in program.iter_procs() {
            let mut bases = Vec::with_capacity(proc.blocks.len());
            for (bid, block) in proc.iter_blocks() {
                bases.push(cursor);
                by_addr.insert(
                    cursor,
                    BlockRef {
                        proc: pid,
                        block: bid,
                    },
                );
                cursor += INSTR_BYTES * block.instructions.len().max(1) as u64;
            }
            block_base.push(bases);
        }
        AddressMap {
            block_base,
            by_addr,
            end: cursor,
        }
    }

    /// Address of the instruction at `loc`.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range for the program this map was
    /// built from.
    pub fn addr_of(&self, loc: InstrLoc) -> u64 {
        self.block_base[loc.proc.0][loc.block.0] + INSTR_BYTES * loc.index as u64
    }

    /// Address of the first instruction of a block.
    pub fn block_addr(&self, block: BlockRef) -> u64 {
        self.block_base[block.proc.0][block.block.0]
    }

    /// Block starting at `addr`, if any.
    pub fn block_at(&self, addr: u64) -> Option<BlockRef> {
        self.by_addr.get(&addr).copied()
    }

    /// One past the last instruction address.
    pub fn end(&self) -> u64 {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::int_reg;

    fn two_proc_program() -> Program {
        let mut b = ProgramBuilder::new();
        let callee = b.procedure("callee");
        {
            let p = b.proc_mut(callee);
            let entry = p.block();
            p.with_block(entry, |bb| {
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.ret();
            });
            p.set_entry(entry);
        }
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let b0 = p.block();
            let b1 = p.block();
            let b2 = p.block();
            p.with_block(b0, |bb| {
                bb.li(int_reg(1), 0);
                bb.call(callee, b1);
            });
            p.with_block(b1, |bb| {
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.bgt(int_reg(1), 10, b2, b2);
            });
            p.with_block(b2, |bb| {
                bb.ret();
            });
            p.set_entry(b0);
        }
        b.finish(main).unwrap()
    }

    #[test]
    fn validates_well_formed_program() {
        let p = two_proc_program();
        assert!(p.validate().is_ok());
        assert_eq!(p.procedures.len(), 2);
        assert!(p.static_instruction_count() >= 6);
    }

    #[test]
    fn successors_follow_terminator_shape() {
        let p = two_proc_program();
        let main = p.proc_by_name("main").unwrap();
        let proc = p.proc(main);
        // Entry block ends in a call → successor is the fall-through.
        assert_eq!(proc.block(proc.entry).successors().len(), 1);
        assert!(proc.block(proc.entry).callee().is_some());
        // Return block has no successors.
        let exit = proc
            .iter_blocks()
            .find(|(_, b)| b.is_exit())
            .map(|(id, _)| id)
            .unwrap();
        assert!(proc.block(exit).successors().is_empty());
    }

    #[test]
    fn validation_rejects_dangling_branch_target() {
        let mut p = two_proc_program();
        let main = p.proc_by_name("main").unwrap();
        // Point a branch at a non-existent block.
        let proc = p.proc_mut(main);
        for block in &mut proc.blocks {
            for inst in &mut block.instructions {
                if inst.opcode.is_cond_branch() {
                    inst.branch_target = Some(BlockId(999));
                }
            }
        }
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_missing_fallthrough() {
        let mut p = two_proc_program();
        let main = p.proc_by_name("main").unwrap();
        let proc = p.proc_mut(main);
        // Remove the fall-through from the conditional-branch block.
        for block in &mut proc.blocks {
            if block
                .terminator()
                .map(|t| t.opcode.is_cond_branch())
                .unwrap_or(false)
            {
                block.fallthrough = None;
            }
        }
        assert!(p.validate().is_err());
    }

    #[test]
    fn annotation_only_edits_are_recognised_and_nothing_else_is() {
        let p = two_proc_program();
        let main = p.proc_by_name("main").unwrap();
        assert!(p.differs_only_in_annotations(&p));

        let mut annotated = p.clone();
        for block in &mut annotated.proc_mut(main).blocks {
            for inst in &mut block.instructions {
                inst.iq_hint = Some(7);
                inst.low_energy = true;
            }
        }
        assert!(p.differs_only_in_annotations(&annotated));
        assert!(annotated.differs_only_in_annotations(&p));

        // An inserted hint NOOP changes the layout.
        let mut noop = p.clone();
        noop.proc_mut(main)
            .block_mut(BlockId(0))
            .instructions
            .insert(0, Instruction::hint_noop(7));
        assert!(!p.differs_only_in_annotations(&noop));

        // So does any change to an operation, or to control flow.
        let mut imm = p.clone();
        imm.proc_mut(main).block_mut(BlockId(0)).instructions[0].imm = Some(1);
        assert!(!p.differs_only_in_annotations(&imm));
        let mut flow = p.clone();
        flow.proc_mut(main).block_mut(BlockId(0)).fallthrough = Some(BlockId(2));
        assert!(!p.differs_only_in_annotations(&flow));
    }

    #[test]
    fn validation_rejects_control_flow_mid_block() {
        let mut p = two_proc_program();
        let main = p.proc_by_name("main").unwrap();
        let entry = p.proc(main).entry;
        let ret = Instruction::ret();
        p.proc_mut(main)
            .block_mut(entry)
            .instructions
            .insert(0, ret);
        assert!(p.validate().is_err());
    }

    #[test]
    fn address_map_is_monotone_and_reversible() {
        let p = two_proc_program();
        let map = AddressMap::build(&p);
        let mut last = 0;
        for loc in p.iter_locs() {
            let a = map.addr_of(loc);
            assert!(a >= TEXT_BASE);
            assert!(a < map.end());
            assert!(a > last || last == 0);
            last = a;
        }
        // Block starts resolve back to the correct block.
        for (pid, proc) in p.iter_procs() {
            for (bid, _) in proc.iter_blocks() {
                let r = BlockRef {
                    proc: pid,
                    block: bid,
                };
                assert_eq!(map.block_at(map.block_addr(r)), Some(r));
            }
        }
    }

    #[test]
    fn hint_noop_count_tracks_inserted_hints() {
        let mut p = two_proc_program();
        assert_eq!(p.hint_noop_count(), 0);
        let main = p.proc_by_name("main").unwrap();
        let entry = p.proc(main).entry;
        p.proc_mut(main)
            .block_mut(entry)
            .instructions
            .insert(0, Instruction::hint_noop(8));
        assert_eq!(p.hint_noop_count(), 1);
        assert!(p.validate().is_ok());
    }
}
