//! Mach → `ASMsz`: the stack-merging pass.
//!
//! Every per-frame notion of Mach becomes explicit `ESP` arithmetic in the
//! single finite stack block: prologues subtract `SF(f)` from `ESP`,
//! epilogues add it back, frame slots become `[esp + off]` accesses, and —
//! the point the paper highlights — `GetParam(i)` becomes a direct load
//! from the caller's outgoing area, with no back-link indirection. The
//! target decides the exact displacement: `[esp + SF(f) + 4 + 4·i]` on
//! [`Target::Sz32`] (skipping the pushed return address),
//! `[esp + SF(f) + 8·i]` on the link-register [`Target::Rv`] (calls touch
//! no stack). On `Rv`, non-leaf functions save the `ra` register to their
//! [`MachFunction::ra_slot`] in the prologue and restore it before `ret`.

use crate::mach::{MInstr, MachFunction};
use crate::CompileError;
use asm::{AsmFunction, Instr, Operand, Reg, Target};
use mem::Binop;

pub(crate) fn translate_function(
    f: &MachFunction,
    target: Target,
) -> Result<AsmFunction, CompileError> {
    let sf = f.frame_size;
    let word = target.word_size();
    let mut code = Vec::with_capacity(f.code.len() + 2);
    if sf > 0 {
        code.push(Instr::Alu(Binop::Sub, Reg::Esp, Operand::Imm(sf)));
    }
    if let Some(ra) = f.ra_slot {
        code.push(Instr::Store(Reg::Esp, ra as i32, Reg::Ra));
    }
    for i in &f.code {
        match i {
            MInstr::Label(l) => code.push(Instr::Label(*l)),
            MInstr::Const(k, r) => code.push(Instr::Mov(*r, Operand::Imm(*k))),
            MInstr::Move(d, s) => code.push(Instr::Mov(*d, Operand::Reg(*s))),
            MInstr::Unop(op, r) => code.push(Instr::Un(*op, *r)),
            MInstr::Binop(op, d, s) => code.push(Instr::Alu(*op, *d, Operand::Reg(*s))),
            MInstr::StackAddr(off, r) => {
                if *r == Reg::Esp {
                    return Err(CompileError::Internal("asmgen: stackaddr into esp".into()));
                }
                code.push(Instr::Mov(*r, Operand::Reg(Reg::Esp)));
                if *off > 0 {
                    code.push(Instr::Alu(Binop::Add, *r, Operand::Imm(*off)));
                }
            }
            MInstr::GlobalAddr(g, off, r) => code.push(Instr::LeaGlobal(*r, *g, *off)),
            MInstr::Load(a, d) => code.push(Instr::Load(*d, *a, 0)),
            MInstr::Store(a, s) => code.push(Instr::Store(*a, 0, *s)),
            MInstr::LoadStack(off, r) => code.push(Instr::Load(*r, Reg::Esp, *off as i32)),
            MInstr::StoreStack(off, r) => code.push(Instr::Store(Reg::Esp, *off as i32, *r)),
            MInstr::GetParam(i, r) => {
                // The incoming argument area sits just above this frame
                // (and, on Sz32, the return address its caller pushed).
                let disp = sf + target.call_allowance() + word * i;
                code.push(Instr::Load(*r, Reg::Esp, disp as i32));
            }
            MInstr::Cond(op, a, b, l) => {
                code.push(Instr::Cmp(*a, Operand::Reg(*b)));
                code.push(Instr::Jcc(*op, *l));
            }
            MInstr::Jmp(l) => code.push(Instr::Jmp(*l)),
            MInstr::Call(i) => code.push(Instr::Call(*i)),
            MInstr::CallExt(i) => code.push(Instr::CallExt(*i)),
            MInstr::Return => {
                if let Some(ra) = f.ra_slot {
                    code.push(Instr::Load(Reg::Ra, Reg::Esp, ra as i32));
                }
                if sf > 0 {
                    code.push(Instr::Alu(Binop::Add, Reg::Esp, Operand::Imm(sf)));
                }
                code.push(Instr::Ret);
            }
        }
    }
    Ok(AsmFunction::new(f.name.clone(), sf, code))
}
