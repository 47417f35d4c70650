//! Clight → Cminor: merge each function's addressable locals into one
//! stack block with static offsets, make memory accesses explicit, and
//! erase types.

use crate::cminor::{CmExpr, CmFunction, CmStmt};
use crate::CompileError;
use clight::{Expr, Program, Stmt, Ty};
use std::collections::HashMap;
use std::sync::Arc;

struct FnCtx<'a> {
    func: &'a clight::Function,
    program: &'a Program,
    /// Offsets of addressable locals within the stack block.
    offsets: HashMap<String, u32>,
}

pub(crate) fn translate_function(
    f: &clight::Function,
    program: &Program,
) -> Result<CmFunction, CompileError> {
    // Lay out addressable locals in declaration order, word-aligned.
    let mut offsets = HashMap::new();
    let mut size = 0u32;
    for l in &f.locals {
        if f.addressable.contains(&l.name) {
            offsets.insert(l.name.clone(), size);
            size += l.ty.size().div_ceil(4) * 4;
        }
    }
    let ctx = FnCtx {
        func: f,
        program,
        offsets,
    };
    let body = ctx.stmt(&f.body)?;
    Ok(CmFunction {
        name: f.name.clone(),
        params: f.params.iter().map(|p| p.name.clone()).collect(),
        temps: f
            .locals
            .iter()
            .filter(|l| !f.addressable.contains(&l.name))
            .map(|l| l.name.clone())
            .collect(),
        stacksize: size,
        body: Arc::new(body),
        returns_value: f.ret.is_some(),
    })
}

impl FnCtx<'_> {
    fn ice(&self, msg: impl Into<String>) -> CompileError {
        CompileError::Internal(format!("cminorgen `{}`: {}", self.func.name, msg.into()))
    }

    fn var_ty(&self, x: &str) -> Option<Ty> {
        self.func
            .var_ty(x)
            .cloned()
            .or_else(|| self.program.global(x).map(|g| g.ty.clone()))
    }

    fn stmt(&self, s: &Stmt) -> Result<CmStmt, CompileError> {
        Ok(match s {
            Stmt::Skip => CmStmt::Skip,
            Stmt::Assign(lv, e) => {
                let value = self.rvalue(e)?;
                match lv {
                    Expr::Var(x) if self.is_temp(x) => CmStmt::Assign(x.clone(), value),
                    _ => CmStmt::Store(self.lvalue(lv)?, value),
                }
            }
            Stmt::Call(dest, fname, args) => CmStmt::Call(
                dest.clone(),
                fname.clone(),
                args.iter()
                    .map(|a| self.rvalue(a))
                    .collect::<Result<_, _>>()?,
            ),
            Stmt::Seq(a, b) => CmStmt::seq(self.stmt(a)?, self.stmt(b)?),
            Stmt::If(c, t, e) => CmStmt::If(
                self.rvalue(c)?,
                Arc::new(self.stmt(t)?),
                Arc::new(self.stmt(e)?),
            ),
            Stmt::Loop(b, i) => CmStmt::Loop(Arc::new(self.stmt(b)?), Arc::new(self.stmt(i)?)),
            Stmt::Break => CmStmt::Break,
            Stmt::Continue => CmStmt::Continue,
            Stmt::Return(e) => CmStmt::Return(match e {
                Some(e) => Some(self.rvalue(e)?),
                None => None,
            }),
        })
    }

    /// True when `x` is a scalar local or parameter held in a temporary.
    fn is_temp(&self, x: &str) -> bool {
        (self.func.is_param(x) || self.func.var_ty(x).is_some()) && !self.offsets.contains_key(x)
    }

    /// The address of an lvalue expression.
    fn lvalue(&self, e: &Expr) -> Result<CmExpr, CompileError> {
        match e {
            Expr::Var(x) => {
                if let Some(off) = self.offsets.get(x) {
                    return Ok(CmExpr::StackAddr(*off));
                }
                if self.program.global(x).is_some() {
                    return Ok(CmExpr::GlobalAddr(x.clone(), 0));
                }
                Err(self.ice(format!("`{x}` is not addressable")))
            }
            Expr::Index(a, i) => {
                let base = self.rvalue(a)?;
                let idx = self.rvalue(i)?;
                Ok(CmExpr::Binop(
                    mem::Binop::Add,
                    Box::new(base),
                    Box::new(CmExpr::Binop(
                        mem::Binop::Mul,
                        Box::new(idx),
                        Box::new(CmExpr::Const(4)),
                    )),
                ))
            }
            Expr::Deref(p) => self.rvalue(p),
            other => Err(self.ice(format!("`{other}` is not an lvalue"))),
        }
    }

    /// The rvalue of an expression.
    fn rvalue(&self, e: &Expr) -> Result<CmExpr, CompileError> {
        match e {
            Expr::Const(n, _) => Ok(CmExpr::Const(*n)),
            Expr::Var(x) => {
                if self.is_temp(x) {
                    return Ok(CmExpr::Temp(x.clone()));
                }
                let ty = self
                    .var_ty(x)
                    .ok_or_else(|| self.ice(format!("unknown variable `{x}`")))?;
                let addr = self.lvalue(e)?;
                // Arrays decay to their address; scalars are loaded.
                if matches!(ty, Ty::Array(..)) {
                    Ok(addr)
                } else {
                    Ok(CmExpr::Load(Box::new(addr)))
                }
            }
            Expr::Unop(op, a) => Ok(CmExpr::Unop(*op, Box::new(self.rvalue(a)?))),
            Expr::Binop(op, a, b) => Ok(CmExpr::Binop(
                *op,
                Box::new(self.rvalue(a)?),
                Box::new(self.rvalue(b)?),
            )),
            Expr::Index(..) | Expr::Deref(_) => Ok(CmExpr::Load(Box::new(self.lvalue(e)?))),
            Expr::Addr(lv) => self.lvalue(lv),
            Expr::Cond(c, t, f) => Ok(CmExpr::Cond(
                Box::new(self.rvalue(c)?),
                Box::new(self.rvalue(t)?),
                Box::new(self.rvalue(f)?),
            )),
            Expr::Cast(_, a) => self.rvalue(a),
            Expr::Call0(f, _) => Err(self.ice(format!("unelaborated call to `{f}`"))),
        }
    }
}
