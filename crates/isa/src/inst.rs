//! Instruction representation.

use crate::opcode::{FuClass, Opcode};
use crate::program::{BlockId, ProcId};
use crate::reg::ArchReg;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A memory reference: `base + offset`, evaluated by the functional executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemRef {
    /// Base address register (always an integer register).
    pub base: ArchReg,
    /// Constant byte offset added to the base.
    pub offset: i64,
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.offset, self.base)
    }
}

/// A single static instruction.
///
/// Instructions are built through [`crate::builder::BlockBuilder`] (or the
/// lower-level constructors here) and are immutable once the program is
/// finished, with one exception: the compiler pass may attach an issue-queue
/// hint ([`Instruction::iq_hint`]) or insert extra [`Opcode::HintNoop`]
/// instructions when rewriting the program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instruction {
    /// Operation.
    pub opcode: Opcode,
    /// Destination register, if the instruction produces a value.
    pub dest: Option<ArchReg>,
    /// Source registers (at most two).
    pub srcs: [Option<ArchReg>; 2],
    /// Immediate operand, when present.
    pub imm: Option<i64>,
    /// Memory reference for loads and stores.
    pub mem: Option<MemRef>,
    /// Taken target of a conditional branch or unconditional jump.
    pub branch_target: Option<BlockId>,
    /// Callee of a `Call`.
    pub call_target: Option<ProcId>,
    /// Issue-queue size hint.
    ///
    /// * On a [`Opcode::HintNoop`], this is the `max_new_range` the special
    ///   NOOP encodes (the NOOP technique).
    /// * On an ordinary instruction, this is the tag used by the *Extension*
    ///   / *Improved* techniques: the decoder picks the value up without a
    ///   separate instruction.
    pub iq_hint: Option<u8>,
    /// `true` if the instruction uses the profiled low-energy encoding
    /// (the `lowen-isa` technique): a redundant-bit encoding that costs
    /// nothing architecturally but reduces fetch/decode energy. Purely an
    /// energy-accounting marker — timing is unaffected.
    pub low_energy: bool,
}

impl Instruction {
    /// Creates a bare instruction with no operands; callers fill in fields.
    pub fn new(opcode: Opcode) -> Self {
        Instruction {
            opcode,
            dest: None,
            srcs: [None, None],
            imm: None,
            mem: None,
            branch_target: None,
            call_target: None,
            iq_hint: None,
            low_energy: false,
        }
    }

    /// A three-register ALU-style instruction `dest = src0 op src1`.
    pub fn rrr(opcode: Opcode, dest: ArchReg, src0: ArchReg, src1: ArchReg) -> Self {
        Instruction {
            dest: Some(dest),
            srcs: [Some(src0), Some(src1)],
            ..Instruction::new(opcode)
        }
    }

    /// A register-immediate instruction `dest = src0 op imm`.
    pub fn rri(opcode: Opcode, dest: ArchReg, src0: ArchReg, imm: i64) -> Self {
        Instruction {
            dest: Some(dest),
            srcs: [Some(src0), None],
            imm: Some(imm),
            ..Instruction::new(opcode)
        }
    }

    /// A load-immediate style instruction `dest = imm`.
    pub fn ri(opcode: Opcode, dest: ArchReg, imm: i64) -> Self {
        Instruction {
            dest: Some(dest),
            imm: Some(imm),
            ..Instruction::new(opcode)
        }
    }

    /// A load `dest = mem[base + offset]`.
    pub fn load(opcode: Opcode, dest: ArchReg, base: ArchReg, offset: i64) -> Self {
        Instruction {
            dest: Some(dest),
            srcs: [Some(base), None],
            mem: Some(MemRef { base, offset }),
            ..Instruction::new(opcode)
        }
    }

    /// A store `mem[base + offset] = value`.
    pub fn store(opcode: Opcode, value: ArchReg, base: ArchReg, offset: i64) -> Self {
        Instruction {
            srcs: [Some(base), Some(value)],
            mem: Some(MemRef { base, offset }),
            ..Instruction::new(opcode)
        }
    }

    /// A conditional branch comparing `src0` against `src1`, taken to `target`.
    pub fn branch_rr(opcode: Opcode, src0: ArchReg, src1: ArchReg, target: BlockId) -> Self {
        Instruction {
            srcs: [Some(src0), Some(src1)],
            branch_target: Some(target),
            ..Instruction::new(opcode)
        }
    }

    /// A conditional branch comparing `src0` against an immediate, taken to
    /// `target`.
    pub fn branch_ri(opcode: Opcode, src0: ArchReg, imm: i64, target: BlockId) -> Self {
        Instruction {
            srcs: [Some(src0), None],
            imm: Some(imm),
            branch_target: Some(target),
            ..Instruction::new(opcode)
        }
    }

    /// An unconditional jump to `target`.
    pub fn jump(target: BlockId) -> Self {
        Instruction {
            branch_target: Some(target),
            ..Instruction::new(Opcode::Jump)
        }
    }

    /// A call to `target`.
    pub fn call(target: ProcId) -> Self {
        Instruction {
            call_target: Some(target),
            ..Instruction::new(Opcode::Call)
        }
    }

    /// A return from the current procedure.
    pub fn ret() -> Self {
        Instruction::new(Opcode::Return)
    }

    /// A special NOOP carrying `max_new_range` for the NOOP technique.
    pub fn hint_noop(max_new_range: u8) -> Self {
        Instruction {
            iq_hint: Some(max_new_range),
            ..Instruction::new(Opcode::HintNoop)
        }
    }

    /// Source registers that are actually present.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// Number of present source register operands.
    pub fn source_count(&self) -> usize {
        self.srcs.iter().flatten().count()
    }

    /// Functional-unit class (delegates to the opcode).
    pub fn fu_class(&self) -> FuClass {
        self.opcode.fu_class()
    }

    /// Base execution latency (delegates to the opcode).
    pub fn latency(&self) -> u32 {
        self.opcode.latency()
    }

    /// `true` if this is a special NOOP hint.
    pub fn is_hint_noop(&self) -> bool {
        self.opcode.is_hint()
    }

    /// Attaches an issue-queue tag (Extension technique) and returns `self`.
    pub fn with_iq_hint(mut self, hint: u8) -> Self {
        self.iq_hint = Some(hint);
        self
    }

    /// Marks the instruction as using the profiled low-energy encoding
    /// (`lowen-isa` technique) and returns `self`.
    pub fn with_low_energy(mut self) -> Self {
        self.low_energy = true;
        self
    }

    /// `true` if `other` is this instruction with at most its compiler
    /// annotations — the [`iq_hint`](Instruction::iq_hint) tag and the
    /// [`low_energy`](Instruction::low_energy) mark — changed.
    pub(crate) fn differs_only_in_annotations(&self, other: &Instruction) -> bool {
        let reannotated = Instruction {
            iq_hint: other.iq_hint,
            low_energy: other.low_energy,
            ..self.clone()
        };
        reannotated == *other
    }

    /// Checks structural well-formedness of the instruction (operand shapes
    /// appropriate for the opcode). Returns a human-readable description of
    /// the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        use Opcode::*;
        let o = self.opcode;
        match o {
            Li => {
                if self.dest.is_none() || self.imm.is_none() {
                    return Err(format!("{o} requires a destination and an immediate"));
                }
            }
            Load | FLoad => {
                if self.dest.is_none() || self.mem.is_none() {
                    return Err(format!("{o} requires a destination and a memory reference"));
                }
            }
            Store | FStore => {
                if self.mem.is_none() || self.source_count() < 2 {
                    return Err(format!(
                        "{o} requires a memory reference and a value source register"
                    ));
                }
            }
            Beq | Bne | Blt | Bge | Bgt | Ble => {
                if self.branch_target.is_none() {
                    return Err(format!("{o} requires a branch target"));
                }
                if self.source_count() == 0 {
                    return Err(format!("{o} requires at least one source register"));
                }
                if self.source_count() == 1 && self.imm.is_none() {
                    return Err(format!(
                        "{o} with a single source register requires an immediate"
                    ));
                }
            }
            Jump => {
                if self.branch_target.is_none() {
                    return Err("jump requires a branch target".to_string());
                }
            }
            Call => {
                if self.call_target.is_none() {
                    return Err("call requires a callee".to_string());
                }
            }
            HintNoop => {
                if self.iq_hint.is_none() {
                    return Err("special NOOP requires an issue-queue size".to_string());
                }
            }
            Add | Sub | Mul | Div | And | Or | Xor | Shl | Shr | Slt | FAdd | FSub | FMul
            | FDiv => {
                if self.dest.is_none() || self.source_count() < 2 {
                    return Err(format!("{o} requires a destination and two sources"));
                }
            }
            Addi | Subi | Slti => {
                if self.dest.is_none() || self.source_count() < 1 || self.imm.is_none() {
                    return Err(format!(
                        "{o} requires a destination, one source and an immediate"
                    ));
                }
            }
            Mov | FMov | ItoF | FtoI => {
                if self.dest.is_none() || self.source_count() < 1 {
                    return Err(format!("{o} requires a destination and one source"));
                }
            }
            Return | Nop => {}
        }
        Ok(())
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        if let Some(d) = self.dest {
            write!(f, " {d}")?;
        }
        for s in self.sources() {
            write!(f, ", {s}")?;
        }
        if let Some(imm) = self.imm {
            write!(f, ", #{imm}")?;
        }
        if let Some(m) = self.mem {
            write!(f, ", {m}")?;
        }
        if let Some(t) = self.branch_target {
            write!(f, ", {t}")?;
        }
        if let Some(p) = self.call_target {
            write!(f, ", {p}")?;
        }
        if let Some(h) = self.iq_hint {
            write!(f, " [iq={h}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BlockId, ProcId};
    use crate::reg::{fp_reg, int_reg};

    #[test]
    fn rrr_builder_sets_operands() {
        let i = Instruction::rrr(Opcode::Add, int_reg(1), int_reg(2), int_reg(3));
        assert_eq!(i.dest, Some(int_reg(1)));
        assert_eq!(
            i.sources().collect::<Vec<_>>(),
            vec![int_reg(2), int_reg(3)]
        );
        assert!(i.validate().is_ok());
    }

    #[test]
    fn load_store_builders() {
        let ld = Instruction::load(Opcode::Load, int_reg(5), int_reg(6), 16);
        assert!(ld.validate().is_ok());
        assert_eq!(ld.mem.unwrap().offset, 16);
        let st = Instruction::store(Opcode::Store, int_reg(5), int_reg(6), -8);
        assert!(st.validate().is_ok());
        assert_eq!(st.source_count(), 2);
    }

    #[test]
    fn branch_builders_require_targets() {
        let b = Instruction::branch_ri(Opcode::Bgt, int_reg(1), 0, BlockId(3));
        assert!(b.validate().is_ok());
        let mut bad = b.clone();
        bad.branch_target = None;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn hint_noop_requires_value() {
        let h = Instruction::hint_noop(12);
        assert!(h.validate().is_ok());
        assert!(h.is_hint_noop());
        let mut bad = h.clone();
        bad.iq_hint = None;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn tagging_an_instruction_keeps_it_valid() {
        let i = Instruction::rrr(Opcode::Add, int_reg(1), int_reg(2), int_reg(3)).with_iq_hint(7);
        assert_eq!(i.iq_hint, Some(7));
        assert!(i.validate().is_ok());
        assert!(!i.is_hint_noop());
    }

    #[test]
    fn validate_rejects_malformed_alu() {
        let mut i = Instruction::new(Opcode::Add);
        assert!(i.validate().is_err());
        i.dest = Some(int_reg(1));
        i.srcs = [Some(int_reg(2)), Some(int_reg(3))];
        assert!(i.validate().is_ok());
    }

    #[test]
    fn display_is_readable() {
        let i = Instruction::rri(Opcode::Addi, int_reg(1), int_reg(1), 4);
        assert_eq!(i.to_string(), "addi r1, r1, #4");
        let c = Instruction::call(ProcId(2));
        assert!(c.to_string().starts_with("call"));
        let f = Instruction::rrr(Opcode::FAdd, fp_reg(0), fp_reg(1), fp_reg(2));
        assert_eq!(f.to_string(), "fadd f0, f1, f2");
    }
}
