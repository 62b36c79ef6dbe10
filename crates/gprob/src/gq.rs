//! Slot-resolved `generated quantities`: the predictive side of the runtime.
//!
//! The paper compiles `generated quantities` as ordinary generative code, but
//! this reproduction historically evaluated it through the legacy
//! string-keyed statement interpreter ([`crate::eval::exec_stmt`] over
//! `HashMap` environments), cloning the whole data environment per posterior
//! draw. This module gives the block the same compile-time treatment the
//! model body received in the slot-resolution refactor:
//!
//! * [`resolve_gq`] resolves the block (with its inlined
//!   transformed-parameters replay) into [`RStmt`] — a slot-annotated
//!   statement IR with its own [`Frame`] layout — and lowers two loop shapes
//!   through the sweep classifier of [`crate::resolved`]:
//!   * **pointwise log-likelihood accumulation**
//!     `for (i in 1:N) log_lik[i] = dist_lpdf(y[i] | args...)` becomes an
//!     [`RStmt::LpdfSweep`] scored by the batch kernel
//!     [`probdist::lpdf_elems`] — one kernel call fills the whole row; and
//!   * **element-wise `_rng` simulation**
//!     `for (i in 1:N) y_rep[i] = dist_rng(args...)` becomes an
//!     [`RStmt::RngSweep`]: arguments are evaluated through borrowed slices
//!     or pooled scratch and the draws write straight into the target
//!     container, consuming the RNG in exactly the scalar loop's order.
//!
//!   Every lowered loop keeps its original scalar form as a runtime
//!   `fallback`, so shapes (or evaluation errors) that do not admit the
//!   batched path reproduce the scalar behavior byte for byte.
//! * [`GqWorkspace`] is the pooled per-thread scratch state: the lifted data
//!   frame is built once, per-draw evaluation only resets the slots the
//!   block can write ([`crate::resolved::ResolvedProgram::written_slots`]),
//!   parameters are written in place into their existing shaped values, and
//!   sweep scratch buffers are reused — after the first draw, streaming a
//!   chain through the block allocates nothing per draw.
//! * `GqEval` is the rng-capable frame evaluator, the statement-level
//!   mirror of [`crate::reval::RInterp`]. `_rng` builtins reach
//!   [`probdist::sampling`] through the shared [`crate::eval::call_builtin`]
//!   library, so the resolved path and the retained string path (the
//!   differential oracle) draw identical values from identical seeds.

use std::cell::RefCell;
use std::rc::Rc;

use probdist::dist::{dist_from_kind, DistArg};
use probdist::sweep::{lpdf_elems, SweepArg, SweepVals};
use probdist::{supports_sweep, DistKind, SampleValue};
use rand::rngs::StdRng;
use stan_frontend::ast::{AssignOp, Expr, FunDecl, Stmt};

use crate::eval::{eval_binary, set_nested, EvalCtx, FnTable};
use crate::ir::GProbProgram;
use crate::resolved::{
    affine_offset, classify_arg, mentions_slot, Frame, RDecl, RExpr, RGExpr, ResolvedProgram,
    Resolver, SweepArgSpec,
};
use crate::reval::{default_rvalue, reval_expr, reval_ref, slice_window, RCtx, RefValue};
use crate::value::{Env, RuntimeError, Value};

/// A slot-resolved statement of the `generated quantities` block. Mirrors
/// [`stan_frontend::ast::Stmt`] with names replaced by frame slots, plus the
/// two lowered sweep forms.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// `;` and `print(...)` — no effect.
    Skip,
    /// A local declaration.
    Decl(RDecl),
    /// `lhs op rhs;` with the target resolved to `slot[indices]`.
    Assign {
        /// Target slot.
        slot: u32,
        /// Index expressions of the assignment target.
        indices: Vec<RExpr>,
        /// Assignment operator (compound forms read-modify-write).
        op: AssignOp,
        /// Right-hand side.
        value: RExpr,
    },
    /// `target += e` — evaluated, then rejected (deterministic block).
    TargetPlus(RExpr),
    /// `e ~ dist(args)` — evaluated, then rejected (deterministic block).
    Tilde {
        /// Left-hand side.
        lhs: RExpr,
        /// Distribution name (for the truncation error message).
        dist: String,
        /// Argument expressions.
        args: Vec<RExpr>,
        /// Whether a truncation clause was present.
        truncated: bool,
    },
    /// `{ stmts }`.
    Block(Vec<RStmt>),
    /// `if (cond) then else alt`.
    If {
        /// Condition.
        cond: RExpr,
        /// Then branch.
        then_branch: Box<RStmt>,
        /// Optional else branch.
        else_branch: Option<Box<RStmt>>,
    },
    /// `for (var in lo:hi) body`.
    ForRange {
        /// Loop variable slot (cleared on normal exit).
        slot: u32,
        /// Lower bound.
        lo: RExpr,
        /// Upper bound.
        hi: RExpr,
        /// Loop body.
        body: Box<RStmt>,
    },
    /// `for (var in collection) body`.
    ForEach {
        /// Loop variable slot.
        slot: u32,
        /// Collection expression.
        collection: RExpr,
        /// Loop body.
        body: Box<RStmt>,
    },
    /// `while (cond) body`.
    While {
        /// Condition.
        cond: RExpr,
        /// Loop body.
        body: Box<RStmt>,
    },
    /// `reject(...)` with its message pre-rendered at resolution time.
    Reject(String),
    /// `return e;` — evaluated; aborts the enclosing loop like the string
    /// path (the block driver ignores the flow at top level).
    Return(Option<RExpr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A lowered pointwise log-density loop
    /// `for (i in lo:hi) target[i+c] = dist_lpdf(x | args...)`, filled by one
    /// [`probdist::lpdf_elems`] kernel call.
    LpdfSweep {
        /// The batched row.
        sweep: GqSweep,
        /// The original scalar loop, re-run when runtime shapes decline.
        fallback: Box<RStmt>,
    },
    /// A lowered element-wise simulation loop
    /// `for (i in lo:hi) target[i+c] = dist_rng(args...)`. Draws consume the
    /// RNG in the scalar loop's exact order.
    RngSweep {
        /// The batched row.
        sweep: GqSweep,
        /// The original scalar loop, re-run when runtime shapes decline.
        fallback: Box<RStmt>,
    },
    /// A lowered whole-container pointwise-lpdf assignment
    /// `s = dist_lpdf(x | args...)` with a container-valued `x`: the row of
    /// element log densities is filled by one [`probdist::lpdf_elems`] call
    /// and summed in element order. The statement's value is unchanged
    /// (`dist_lpdf` of a container is the *summed* log density, exactly as
    /// the generic expression path computes it); the lowering skips the
    /// per-element distribution construction and interpreter dispatch.
    LpdfAssign {
        /// Target slot (plain, unindexed assignment).
        slot: u32,
        /// Distribution family.
        kind: DistKind,
        /// Observed container expression followed by distribution arguments.
        args: Vec<RExpr>,
        /// The original assignment, re-run when runtime shapes decline.
        fallback: Box<RStmt>,
    },
}

/// A lowered generated-quantities row: the counted loop writing
/// `target[v + offset]` for `v` in `lo..=hi` from a sweep-classified
/// distribution call.
#[derive(Debug, Clone, PartialEq)]
pub struct GqSweep {
    /// Loop-variable slot (cleared when the sweep completes).
    pub loop_slot: u32,
    /// Loop lower bound (loop-invariant).
    pub lo: RExpr,
    /// Loop upper bound (loop-invariant).
    pub hi: RExpr,
    /// The written container's slot. Lowering only matches single-index
    /// targets `t[v + offset]` whose base is a plain variable, so the write
    /// window is a contiguous span of a flat container.
    pub target_slot: u32,
    /// Constant offset of the affine target index.
    pub offset: i64,
    /// Distribution family.
    pub kind: DistKind,
    /// For [`RStmt::LpdfSweep`]: the observed value (`x` of
    /// `dist_lpdf(x | ...)`) followed by the distribution arguments. For
    /// [`RStmt::RngSweep`]: the distribution arguments.
    pub args: Vec<SweepArgSpec>,
}

/// One output column group of the block: a variable the source
/// `generated quantities` block declares.
#[derive(Debug, Clone, PartialEq)]
pub struct GqOutput {
    /// Variable name.
    pub name: String,
    /// Its frame slot.
    pub slot: u32,
}

/// The fully resolved `generated quantities` program: its own frame layout
/// (independent of the model body's), the resolved statements, and the
/// output table.
#[derive(Debug, Clone)]
pub struct ResolvedGq {
    /// The layout core: interner, slot count, resolved parameter table,
    /// user-function dispatch table, and the slots the statements can write
    /// (driving the pooled workspace reset). The `body` field is unused
    /// (`Unit`) — statements live in [`ResolvedGq::stmts`].
    pub core: ResolvedProgram,
    /// The resolved statements, in source order (transformed-parameters
    /// replay first, as compiled).
    pub stmts: Vec<RStmt>,
    /// The declared outputs, in declaration order.
    pub outputs: Vec<GqOutput>,
}

/// Number of lowered sweep rows ([`RStmt::LpdfSweep`] + [`RStmt::RngSweep`])
/// in a resolved block — used by tests and benches to assert which loop
/// shapes lowered.
pub fn count_gq_sweeps(stmts: &[RStmt]) -> usize {
    fn count(s: &RStmt) -> usize {
        match s {
            RStmt::LpdfSweep { .. } | RStmt::RngSweep { .. } | RStmt::LpdfAssign { .. } => 1,
            RStmt::Block(ss) => ss.iter().map(count).sum(),
            RStmt::If {
                then_branch,
                else_branch,
                ..
            } => count(then_branch) + else_branch.as_deref().map_or(0, count),
            RStmt::ForRange { body, .. }
            | RStmt::ForEach { body, .. }
            | RStmt::While { body, .. } => count(body),
            _ => 0,
        }
    }
    stmts.iter().map(count).sum()
}

/// The output column names of a program's `generated quantities` block: the
/// names the *source* block declares (recorded by the compiler), falling
/// back — for hand-built programs without the record — to every top-level
/// declaration in the combined block. Shared by the resolved path and the
/// retained string path so their output key sets cannot drift.
pub(crate) fn gq_output_names(program: &GProbProgram) -> Vec<String> {
    if !program.gq_outputs.is_empty() {
        return program.gq_outputs.clone();
    }
    program
        .generated_quantities
        .as_ref()
        .map(|gq| {
            gq.stmts
                .iter()
                .filter_map(|s| match s {
                    Stmt::LocalDecl(d) => Some(d.name.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Resolves a compiled program's `generated quantities` block to its
/// slot-annotated form, lowering pointwise-`lpdf` and element-wise-`_rng`
/// loops into batched sweeps. Returns `None` when the program has no block.
pub fn resolve_gq(program: &GProbProgram) -> Option<ResolvedGq> {
    resolve_gq_with(program, true)
}

/// [`resolve_gq`] without sweep lowering — every row evaluates element by
/// element. The comparison configuration for differential tests and the
/// GQ-throughput benchmark rows.
pub fn resolve_gq_scalar(program: &GProbProgram) -> Option<ResolvedGq> {
    resolve_gq_with(program, false)
}

fn resolve_gq_with(program: &GProbProgram, fused: bool) -> Option<ResolvedGq> {
    let gq = program.generated_quantities.as_ref()?;
    let mut r = Resolver::new(&program.functions);

    // Mirror the model resolution preamble: everything the data environment
    // (including transformed-data outputs) can supply gets a slot, then the
    // parameters, then the block's own names.
    for d in &program.data {
        r.slot_for(&d.name);
        for dim in &d.dims {
            r.resolve_expr(dim);
        }
    }
    if let Some(td) = &program.transformed_data {
        r.intern_stmts(&td.stmts);
    }
    let params: Vec<_> = program.params.iter().map(|p| r.resolve_param(p)).collect();

    let stmts: Vec<RStmt> = gq.stmts.iter().map(|s| resolve_stmt(&mut r, s)).collect();
    let stmts: Vec<RStmt> = if fused {
        stmts.into_iter().map(lower_stmt).collect()
    } else {
        stmts
    };

    let outputs: Vec<GqOutput> = gq_output_names(program)
        .into_iter()
        .map(|name| GqOutput {
            slot: r.slot_for(&name),
            name,
        })
        .collect();

    let mut written_slots = Vec::new();
    for s in &stmts {
        collect_stmt_written(s, &mut written_slots);
    }
    written_slots.sort_unstable();
    written_slots.dedup();

    Some(ResolvedGq {
        core: ResolvedProgram {
            n_slots: r.interner.len(),
            interner: r.interner,
            params,
            body: RGExpr::Unit,
            guide: None,
            guide_param_slots: Vec::new(),
            fn_table: FnTable::new(&program.functions),
            written_slots,
            fused,
        },
        stmts,
        outputs,
    })
}

fn resolve_stmt(r: &mut Resolver, s: &Stmt) -> RStmt {
    match s {
        Stmt::Skip | Stmt::Print(_) => RStmt::Skip,
        Stmt::LocalDecl(d) => RStmt::Decl(r.resolve_decl(d)),
        Stmt::Assign { lhs, op, rhs } => RStmt::Assign {
            value: r.resolve_expr(rhs),
            slot: r.slot_for(&lhs.name),
            indices: lhs.indices.iter().map(|i| r.resolve_expr(i)).collect(),
            op: *op,
        },
        Stmt::TargetPlus(e) => RStmt::TargetPlus(r.resolve_expr(e)),
        Stmt::Tilde {
            lhs,
            dist,
            args,
            truncation,
        } => RStmt::Tilde {
            lhs: r.resolve_expr(lhs),
            dist: dist.clone(),
            args: args.iter().map(|a| r.resolve_expr(a)).collect(),
            truncated: truncation.is_some(),
        },
        Stmt::Block(ss) => RStmt::Block(ss.iter().map(|s| resolve_stmt(r, s)).collect()),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => RStmt::If {
            cond: r.resolve_expr(cond),
            then_branch: Box::new(resolve_stmt(r, then_branch)),
            else_branch: else_branch.as_ref().map(|e| Box::new(resolve_stmt(r, e))),
        },
        Stmt::ForRange { var, lo, hi, body } => RStmt::ForRange {
            lo: r.resolve_expr(lo),
            hi: r.resolve_expr(hi),
            slot: r.slot_for(var),
            body: Box::new(resolve_stmt(r, body)),
        },
        Stmt::ForEach {
            var,
            collection,
            body,
        } => RStmt::ForEach {
            collection: r.resolve_expr(collection),
            slot: r.slot_for(var),
            body: Box::new(resolve_stmt(r, body)),
        },
        Stmt::While { cond, body } => RStmt::While {
            cond: r.resolve_expr(cond),
            body: Box::new(resolve_stmt(r, body)),
        },
        // The message is rendered here with exactly the string path's
        // formatting, so the two paths report identical rejects.
        Stmt::Reject(args) => RStmt::Reject(
            args.iter()
                .map(|a| match a {
                    Expr::StringLit(s) => s.clone(),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join(" "),
        ),
        Stmt::Return(e) => RStmt::Return(e.as_ref().map(|e| r.resolve_expr(e))),
        Stmt::Break => RStmt::Break,
        Stmt::Continue => RStmt::Continue,
    }
}

fn collect_stmt_written(s: &RStmt, out: &mut Vec<u32>) {
    match s {
        RStmt::Decl(d) => out.push(d.slot),
        RStmt::Assign { slot, .. } => out.push(*slot),
        RStmt::Block(ss) => {
            for s in ss {
                collect_stmt_written(s, out);
            }
        }
        RStmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_stmt_written(then_branch, out);
            if let Some(e) = else_branch {
                collect_stmt_written(e, out);
            }
        }
        RStmt::ForRange { slot, body, .. } | RStmt::ForEach { slot, body, .. } => {
            out.push(*slot);
            collect_stmt_written(body, out);
        }
        RStmt::While { body, .. } => collect_stmt_written(body, out),
        RStmt::LpdfSweep { sweep, fallback } | RStmt::RngSweep { sweep, fallback } => {
            out.push(sweep.loop_slot);
            out.push(sweep.target_slot);
            collect_stmt_written(fallback, out);
        }
        RStmt::LpdfAssign { slot, fallback, .. } => {
            out.push(*slot);
            collect_stmt_written(fallback, out);
        }
        RStmt::Skip
        | RStmt::TargetPlus(_)
        | RStmt::Tilde { .. }
        | RStmt::Reject(_)
        | RStmt::Return(_)
        | RStmt::Break
        | RStmt::Continue => {}
    }
}

/// Whether an expression may draw from the RNG — any `_rng` builtin, or any
/// user-defined function call (the type checker does not enforce Stan's
/// `_rng`-suffix naming rule, so a user function body may itself draw).
/// Such arguments cannot be hoisted out of a loop without reordering RNG
/// consumption, so lowering declines them.
fn contains_rng(e: &RExpr) -> bool {
    match e {
        RExpr::IntLit(_) | RExpr::RealLit(_) | RExpr::StringLit(_) | RExpr::Slot(_) => false,
        RExpr::Call(name, target, args) => {
            name.ends_with("_rng")
                || matches!(target, crate::resolved::CallTarget::User(_))
                || args.iter().any(contains_rng)
        }
        RExpr::Binary(_, a, b) | RExpr::Range(a, b) => contains_rng(a) || contains_rng(b),
        RExpr::Unary(_, a) => contains_rng(a),
        RExpr::Index(base, indices) => {
            contains_rng(base)
                || indices.iter().any(|i| match i {
                    crate::resolved::RIndex::One(e) => contains_rng(e),
                    crate::resolved::RIndex::Slice(a, b) => contains_rng(a) || contains_rng(b),
                })
        }
        RExpr::ArrayLit(items) | RExpr::VectorLit(items) => items.iter().any(contains_rng),
        RExpr::Ternary(c, a, b) => contains_rng(c) || contains_rng(a) || contains_rng(b),
    }
}

/// The sweep-lowering pass over resolved statements.
fn lower_stmt(s: RStmt) -> RStmt {
    match s {
        RStmt::Block(ss) => RStmt::Block(ss.into_iter().map(lower_stmt).collect()),
        RStmt::If {
            cond,
            then_branch,
            else_branch,
        } => RStmt::If {
            cond,
            then_branch: Box::new(lower_stmt(*then_branch)),
            else_branch: else_branch.map(|e| Box::new(lower_stmt(*e))),
        },
        RStmt::ForRange { slot, lo, hi, body } => {
            let body = Box::new(lower_stmt(*body));
            match match_gq_sweep(slot, &lo, &hi, &body) {
                Some((sweep, is_rng)) => {
                    let fallback = Box::new(RStmt::ForRange { slot, lo, hi, body });
                    if is_rng {
                        RStmt::RngSweep { sweep, fallback }
                    } else {
                        RStmt::LpdfSweep { sweep, fallback }
                    }
                }
                None => RStmt::ForRange { slot, lo, hi, body },
            }
        }
        RStmt::ForEach {
            slot,
            collection,
            body,
        } => RStmt::ForEach {
            slot,
            collection,
            body: Box::new(lower_stmt(*body)),
        },
        RStmt::While { cond, body } => RStmt::While {
            cond,
            body: Box::new(lower_stmt(*body)),
        },
        RStmt::Assign {
            slot,
            indices,
            op: AssignOp::Assign,
            value,
        } if indices.is_empty() => match match_lpdf_assign(&value) {
            Some((kind, args)) => RStmt::LpdfAssign {
                slot,
                kind,
                args,
                fallback: Box::new(RStmt::Assign {
                    slot,
                    indices,
                    op: AssignOp::Assign,
                    value,
                }),
            },
            None => RStmt::Assign {
                slot,
                indices,
                op: AssignOp::Assign,
                value,
            },
        },
        other => other,
    }
}

/// Matches the whole-container row pattern: a plain assignment whose RHS is
/// a sweep-family `_lpdf` / `_lpmf` / `_log` builtin call with 1–3
/// distribution arguments, none of which may draw from the RNG (hoisting
/// into the kernel must not reorder consumption).
fn match_lpdf_assign(value: &RExpr) -> Option<(DistKind, Vec<RExpr>)> {
    let RExpr::Call(name, _, call_args) = value else {
        return None;
    };
    let dist_name = crate::eval::strip_lpdf_suffix(name)?;
    let kind = DistKind::from_name(dist_name)?;
    if !supports_sweep(kind) || kind.is_multivariate() || kind.has_vector_param() {
        return None;
    }
    if call_args.is_empty() || call_args.len() > 4 || call_args.iter().any(contains_rng) {
        return None;
    }
    Some((kind, call_args.clone()))
}

/// Matches the lowerable row pattern: a counted loop whose body is one plain
/// assignment `t[v + c] = f(args...)` where `f` is a sweep-family `_lpdf` /
/// `_lpmf` / `_log` builtin (observed value + arguments classified by the
/// sweep classifier) or a univariate `_rng` builtin with classified
/// arguments. Returns the sweep and whether it is the rng form.
fn match_gq_sweep(loop_slot: u32, lo: &RExpr, hi: &RExpr, body: &RStmt) -> Option<(GqSweep, bool)> {
    if mentions_slot(lo, loop_slot) || mentions_slot(hi, loop_slot) {
        return None;
    }
    // Unwrap a single-statement braced body.
    let mut body = body;
    while let RStmt::Block(ss) = body {
        if ss.len() != 1 {
            return None;
        }
        body = &ss[0];
    }
    let RStmt::Assign {
        slot: target_slot,
        indices,
        op: AssignOp::Assign,
        value,
    } = body
    else {
        return None;
    };
    let [index] = indices.as_slice() else {
        return None;
    };
    let offset = affine_offset(index, loop_slot)?;
    let RExpr::Call(name, _, call_args) = value else {
        return None;
    };
    // Hoisting argument evaluation out of the loop must not reorder RNG
    // consumption, and borrowing windows must not alias the written target.
    let aliases_or_draws = |e: &RExpr| contains_rng(e) || mentions_slot(e, *target_slot);

    if let Some(dist_name) = name.strip_suffix("_rng") {
        let kind = DistKind::from_name(dist_name)?;
        if kind.is_multivariate() || kind.has_vector_param() {
            return None;
        }
        if call_args.iter().any(aliases_or_draws) || call_args.len() > 3 {
            return None;
        }
        let args: Vec<SweepArgSpec> = call_args
            .iter()
            .map(|a| classify_arg(a, loop_slot))
            .collect::<Option<_>>()?;
        return Some((
            GqSweep {
                loop_slot,
                lo: lo.clone(),
                hi: hi.clone(),
                target_slot: *target_slot,
                offset,
                kind,
                args,
            },
            true,
        ));
    }

    let dist_name = crate::eval::strip_lpdf_suffix(name)?;
    let kind = DistKind::from_name(dist_name)?;
    if !supports_sweep(kind) {
        return None;
    }
    // args[0] is the observed value; at most 3 distribution arguments.
    if call_args.is_empty() || call_args.len() > 4 || call_args.iter().any(aliases_or_draws) {
        return None;
    }
    let args: Vec<SweepArgSpec> = call_args
        .iter()
        .map(|a| classify_arg(a, loop_slot))
        .collect::<Option<_>>()?;
    Some((
        GqSweep {
            loop_slot,
            lo: lo.clone(),
            hi: hi.clone(),
            target_slot: *target_slot,
            offset,
            kind,
            args,
        },
        false,
    ))
}

/// Pooled scratch buffers for sweep evaluation: one per possible argument
/// position plus the draw/log-density output row. Reused across draws.
#[derive(Debug, Default)]
pub(crate) struct GqScratch {
    args: [Vec<f64>; 4],
    out: Vec<f64>,
}

/// Pooled per-thread scratch state for streaming posterior draws through a
/// resolved `generated quantities` program. Build one per chain worker with
/// [`crate::GModel::gq_workspace`]; every draw reuses the lifted data frame
/// (resetting only the written slots), the in-place parameter values, the
/// sweep scratch, and the RNG cell.
pub struct GqWorkspace {
    /// The data frame in the GQ layout; never mutated after construction.
    pub(crate) template: Frame<f64>,
    /// The working frame.
    pub(crate) frame: Frame<f64>,
    pub(crate) scratch: GqScratch,
    /// Constrained-component staging buffer for unconstrained input rows.
    pub(crate) param_buf: Vec<f64>,
    /// The `_rng` stream, reseeded per draw.
    pub(crate) rng: Rc<RefCell<StdRng>>,
}

impl GqWorkspace {
    pub(crate) fn new(template: Frame<f64>) -> Self {
        use rand::SeedableRng;
        GqWorkspace {
            frame: template.clone(),
            template,
            scratch: GqScratch::default(),
            param_buf: Vec::new(),
            rng: Rc::new(RefCell::new(StdRng::seed_from_u64(0))),
        }
    }

    /// Restores the working frame for the next draw, touching only the slots
    /// the block can write, and reseeds the RNG stream.
    pub(crate) fn reset(&mut self, written_slots: &[u32], seed: u64) {
        use rand::SeedableRng;
        self.frame.reset_slots_from(&self.template, written_slots);
        *self.rng.borrow_mut() = StdRng::seed_from_u64(seed);
    }

    /// Reads the value bound to `slot` after a run.
    pub(crate) fn value_of(&self, slot: u32) -> Option<&Value<f64>> {
        self.frame.get(slot)
    }
}

/// Writes one constrained parameter value into the frame, reusing the
/// existing shaped value in place when the shape matches (the steady state
/// when streaming draws) and building a fresh container otherwise.
pub(crate) fn write_param_into(frame: &mut Frame<f64>, slot: u32, comps: &[f64], dims: &[i64]) {
    fn fill(value: &mut Value<f64>, comps: &[f64], dims: &[i64]) -> bool {
        match (value, dims) {
            (Value::Real(x), []) => {
                *x = comps[0];
                true
            }
            (Value::Vector(v), [n]) if v.len() == *n as usize && v.len() == comps.len() => {
                v.copy_from_slice(comps);
                true
            }
            (Value::Array(rows), [n, rest @ ..]) if rows.len() == *n as usize => {
                let chunk = comps.len() / (*n).max(1) as usize;
                rows.iter_mut()
                    .zip(comps.chunks(chunk.max(1)))
                    .all(|(row, c)| fill(row, c, rest))
            }
            _ => false,
        }
    }
    fn build(comps: &[f64], dims: &[i64]) -> Value<f64> {
        match dims {
            [] => Value::Real(comps[0]),
            [_] => Value::Vector(comps.to_vec()),
            [n, rest @ ..] => {
                let chunk = comps.len() / (*n).max(1) as usize;
                Value::Array(comps.chunks(chunk.max(1)).map(|c| build(c, rest)).collect())
            }
        }
    }
    if let Some(existing) = frame.get_mut(slot) {
        if fill(existing, comps, dims) {
            return;
        }
    }
    frame.set(slot, build(comps, dims));
}

/// Control flow of statement execution (mirror of [`crate::eval::Flow`]).
enum GqFlow {
    Normal,
    Return,
    Break,
    Continue,
}

/// Runs a resolved block's statements in a frame. The top-level driver for
/// one draw: flows escaping a top-level statement are discarded, exactly as
/// the string path discards [`crate::eval::Flow`] per statement.
pub(crate) fn run_gq_stmts(
    gq: &ResolvedGq,
    functions: &[FunDecl],
    frame: &mut Frame<f64>,
    rng: Rc<RefCell<StdRng>>,
    scratch: &mut GqScratch,
) -> Result<(), RuntimeError> {
    let eval = EvalCtx::with_table(functions, &gq.core.fn_table).rng(rng);
    let ctx = RCtx {
        resolved: &gq.core,
        functions,
        eval,
    };
    let mut ev = GqEval { ctx: &ctx, scratch };
    for s in &gq.stmts {
        ev.exec(s, frame)?;
    }
    Ok(())
}

/// The statement evaluator for resolved generated quantities.
struct GqEval<'a, 'c> {
    ctx: &'a RCtx<'c, f64>,
    scratch: &'a mut GqScratch,
}

impl GqEval<'_, '_> {
    fn exec(&mut self, s: &RStmt, frame: &mut Frame<f64>) -> Result<GqFlow, RuntimeError> {
        match s {
            RStmt::Skip => Ok(GqFlow::Normal),
            RStmt::Decl(decl) => {
                let v = match &decl.init {
                    Some(e) => reval_expr(e, frame, self.ctx)?,
                    None => default_rvalue(decl, frame, self.ctx)?,
                };
                frame.set(decl.slot, v);
                Ok(GqFlow::Normal)
            }
            RStmt::Assign {
                slot,
                indices,
                op,
                value,
            } => {
                let mut v = reval_expr(value, frame, self.ctx)?;
                if *op != AssignOp::Assign {
                    let current = self.read_target(*slot, indices, frame)?;
                    let bop = match op {
                        AssignOp::AddAssign => stan_frontend::ast::BinOp::Add,
                        AssignOp::SubAssign => stan_frontend::ast::BinOp::Sub,
                        AssignOp::MulAssign => stan_frontend::ast::BinOp::Mul,
                        AssignOp::DivAssign => stan_frontend::ast::BinOp::Div,
                        AssignOp::Assign => unreachable!(),
                    };
                    v = eval_binary(bop, current, v)?;
                }
                let idx: Vec<i64> = indices
                    .iter()
                    .map(|i| reval_expr(i, frame, self.ctx)?.as_int())
                    .collect::<Result<_, _>>()?;
                if idx.is_empty() {
                    frame.set(*slot, v);
                } else {
                    let target = frame.get_mut(*slot).ok_or_else(|| self.unbound(*slot))?;
                    set_nested(target, &idx, v)?;
                }
                Ok(GqFlow::Normal)
            }
            RStmt::TargetPlus(e) => {
                reval_expr(e, frame, self.ctx)?.sum_as_real()?;
                Err(RuntimeError::new(
                    "target += is not allowed in a deterministic block",
                ))
            }
            RStmt::Tilde {
                lhs,
                dist,
                args,
                truncated,
            } => {
                if *truncated {
                    return Err(RuntimeError::new(format!(
                        "truncated distribution `{dist}` is not supported by the generative backends"
                    )));
                }
                reval_expr(lhs, frame, self.ctx)?;
                for a in args {
                    reval_expr(a, frame, self.ctx)?;
                }
                Err(RuntimeError::new(
                    "sampling statements are not allowed in a deterministic block",
                ))
            }
            RStmt::Block(ss) => {
                for s in ss {
                    match self.exec(s, frame)? {
                        GqFlow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(GqFlow::Normal)
            }
            RStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = reval_expr(cond, frame, self.ctx)?.as_real()?;
                if c != 0.0 {
                    self.exec(then_branch, frame)
                } else if let Some(e) = else_branch {
                    self.exec(e, frame)
                } else {
                    Ok(GqFlow::Normal)
                }
            }
            RStmt::ForRange { slot, lo, hi, body } => {
                let lo = reval_expr(lo, frame, self.ctx)?.as_int()?;
                let hi = reval_expr(hi, frame, self.ctx)?.as_int()?;
                for i in lo..=hi {
                    frame.set(*slot, Value::Int(i));
                    match self.exec(body, frame)? {
                        GqFlow::Break => break,
                        GqFlow::Return => return Ok(GqFlow::Return),
                        GqFlow::Normal | GqFlow::Continue => {}
                    }
                }
                frame.clear(*slot);
                Ok(GqFlow::Normal)
            }
            RStmt::ForEach {
                slot,
                collection,
                body,
            } => {
                let coll = reval_expr(collection, frame, self.ctx)?;
                for i in 1..=coll.len() as i64 {
                    frame.set(*slot, coll.index(i)?);
                    match self.exec(body, frame)? {
                        GqFlow::Break => break,
                        GqFlow::Return => return Ok(GqFlow::Return),
                        GqFlow::Normal | GqFlow::Continue => {}
                    }
                }
                frame.clear(*slot);
                Ok(GqFlow::Normal)
            }
            RStmt::While { cond, body } => {
                let mut iterations = 0usize;
                loop {
                    let c = reval_expr(cond, frame, self.ctx)?.as_real()?;
                    if c == 0.0 {
                        break;
                    }
                    iterations += 1;
                    if iterations > 10_000_000 {
                        return Err(RuntimeError::new(
                            "while loop exceeded the iteration budget",
                        ));
                    }
                    match self.exec(body, frame)? {
                        GqFlow::Break => break,
                        GqFlow::Return => return Ok(GqFlow::Return),
                        GqFlow::Normal | GqFlow::Continue => {}
                    }
                }
                Ok(GqFlow::Normal)
            }
            RStmt::Reject(msg) => Err(RuntimeError::new(format!("reject: {msg}"))),
            RStmt::Return(e) => {
                if let Some(e) = e {
                    reval_expr(e, frame, self.ctx)?;
                }
                Ok(GqFlow::Return)
            }
            RStmt::Break => Ok(GqFlow::Break),
            RStmt::Continue => Ok(GqFlow::Continue),
            RStmt::LpdfSweep { sweep, fallback } => match self.try_lpdf_sweep(sweep, frame)? {
                true => {
                    frame.clear(sweep.loop_slot);
                    Ok(GqFlow::Normal)
                }
                false => self.exec(fallback, frame),
            },
            RStmt::RngSweep { sweep, fallback } => match self.try_rng_sweep(sweep, frame)? {
                true => {
                    frame.clear(sweep.loop_slot);
                    Ok(GqFlow::Normal)
                }
                false => self.exec(fallback, frame),
            },
            RStmt::LpdfAssign {
                slot,
                kind,
                args,
                fallback,
            } => match self.try_lpdf_assign(*slot, *kind, args, frame)? {
                true => Ok(GqFlow::Normal),
                false => self.exec(fallback, frame),
            },
        }
    }

    /// Attempts the batched evaluation of a whole-container lpdf assignment:
    /// one `lpdf_elems` row plus an in-order sum, preserving the statement's
    /// scalar-sum value exactly. Returns `Ok(false)` (nothing mutated) when
    /// the runtime shapes decline — scalar observations, nested containers,
    /// broadcast mismatches — and the generic assignment re-runs.
    fn try_lpdf_assign(
        &mut self,
        slot: u32,
        kind: DistKind,
        args: &[RExpr],
        frame: &mut Frame<f64>,
    ) -> Result<bool, RuntimeError> {
        let frame_ro: &Frame<f64> = frame;
        let Ok(observed) = reval_ref(&args[0], frame_ro, self.ctx) else {
            return Ok(false);
        };
        let xs = match observed.as_value() {
            Value::Vector(v) => SweepVals::Reals(v.as_slice()),
            Value::IntArray(v) => SweepVals::Ints(v.as_slice()),
            _ => return Ok(false),
        };
        let n = xs.len();
        let mut borrowed: [Option<RefValue<f64>>; 3] = [None, None, None];
        for (a, slot_ref) in args[1..].iter().zip(borrowed.iter_mut()) {
            match reval_ref(a, frame_ro, self.ctx) {
                Ok(v) => *slot_ref = Some(v),
                Err(_) => return Ok(false),
            }
        }
        let k = args.len() - 1;
        let mut dist_args: [SweepArg<f64>; 3] = [SweepArg::Scalar(0.0); 3];
        for j in 0..k {
            dist_args[j] = match borrowed[j].as_ref().expect("evaluated above").as_value() {
                Value::Real(x) => SweepArg::Scalar(*x),
                Value::Int(i) => SweepArg::Scalar(*i as f64),
                Value::Vector(v) if v.len() == n && n > 1 => SweepArg::Reals(v.as_slice()),
                Value::IntArray(v) if v.len() == n && n > 1 => SweepArg::Ints(v.as_slice()),
                _ => return Ok(false),
            };
        }
        let out = &mut self.scratch.out;
        out.clear();
        out.resize(n, 0.0);
        if lpdf_elems(kind, xs, &dist_args[..k], out).is_err() {
            return Ok(false);
        }
        let total: f64 = out.iter().sum();
        drop(borrowed);
        frame.set(slot, Value::Real(total));
        Ok(true)
    }

    fn unbound(&self, slot: u32) -> RuntimeError {
        RuntimeError::new(format!(
            "unbound variable `{}`",
            self.ctx.resolved.name_of(slot)
        ))
    }

    fn read_target(
        &self,
        slot: u32,
        indices: &[RExpr],
        frame: &Frame<f64>,
    ) -> Result<Value<f64>, RuntimeError> {
        let mut v = frame.get(slot).cloned().ok_or_else(|| self.unbound(slot))?;
        for idx in indices {
            let i = reval_expr(idx, frame, self.ctx)?.as_int()?;
            v = v.index(i)?;
        }
        Ok(v)
    }

    /// Evaluates the sweep's bounds and classified arguments into scalars,
    /// pooled scratch buffers, and borrowable windows. Returns `None` when
    /// the runtime shapes decline (the caller then runs the scalar loop,
    /// having consumed no RNG).
    #[allow(clippy::type_complexity)]
    fn eval_sweep_args<'f>(
        args: &[SweepArgSpec],
        loop_slot: u32,
        lo: i64,
        hi: i64,
        frame: &'f mut Frame<f64>,
        scratch: &mut [Vec<f64>; 4],
        ctx: &RCtx<f64>,
    ) -> Option<([ArgKind; 4], [Option<RefValue<'f, f64>>; 4])> {
        let n = (hi - lo + 1) as usize;
        let mut kinds = [
            ArgKind::Missing,
            ArgKind::Missing,
            ArgKind::Missing,
            ArgKind::Missing,
        ];
        for ((spec, kind), buf) in args.iter().zip(kinds.iter_mut()).zip(scratch.iter_mut()) {
            match spec {
                SweepArgSpec::Invariant(e) => match reval_expr(e, frame, ctx).ok()? {
                    Value::Real(x) => *kind = ArgKind::Scalar(x),
                    Value::Int(i) => *kind = ArgKind::Scalar(i as f64),
                    _ => return None,
                },
                SweepArgSpec::Elementwise(e) => {
                    buf.clear();
                    buf.reserve(n);
                    for v in lo..=hi {
                        frame.set(loop_slot, Value::Int(v));
                        buf.push(reval_expr(e, frame, ctx).ok()?.as_real().ok()?);
                    }
                    *kind = ArgKind::Elems;
                }
                SweepArgSpec::Indexed(access) => *kind = ArgKind::Indexed(access.offset),
            }
        }
        // Borrow the directly indexed bases read-only (after all mutation of
        // the frame is done).
        let frame_ro: &'f Frame<f64> = frame;
        let mut bases: [Option<RefValue<'f, f64>>; 4] = [None, None, None, None];
        for ((spec, kind), slot) in args.iter().zip(kinds.iter()).zip(bases.iter_mut()) {
            if let (SweepArgSpec::Indexed(access), ArgKind::Indexed(_)) = (spec, kind) {
                *slot = Some(reval_ref(&access.base, frame_ro, ctx).ok()?);
            }
        }
        Some((kinds, bases))
    }

    /// Attempts the batched evaluation of a pointwise-`lpdf` row. Returns
    /// `Ok(true)` when the kernel filled the target window, `Ok(false)` to
    /// fall back to the scalar loop (nothing mutated that the fallback does
    /// not rewrite).
    fn try_lpdf_sweep(
        &mut self,
        sweep: &GqSweep,
        frame: &mut Frame<f64>,
    ) -> Result<bool, RuntimeError> {
        let Some((lo, hi)) = self.sweep_bounds(sweep, frame) else {
            return Ok(false);
        };
        if hi < lo {
            return Ok(true);
        }
        let n = (hi - lo + 1) as usize;
        // Target window must be a flat real vector span.
        let start = lo + sweep.offset;
        let end = hi + sweep.offset;
        match frame.get(sweep.target_slot) {
            Some(Value::Vector(v)) if start >= 1 && end as usize <= v.len() => {}
            _ => return Ok(false),
        }
        let GqScratch { args: scratch, out } = &mut *self.scratch;
        let Some((kinds, bases)) = Self::eval_sweep_args(
            &sweep.args,
            sweep.loop_slot,
            lo,
            hi,
            frame,
            scratch,
            self.ctx,
        ) else {
            return Ok(false);
        };
        // args[0] is the observed value; the rest parameterize the family. A
        // loop-invariant scalar observation (`normal_lpdf(c | ...)`) is
        // legal but not worth a kernel; keep the scalar loop for it.
        let xs = match (&kinds[0], &bases[0]) {
            (ArgKind::Elems, _) => SweepVals::Reals(scratch[0].as_slice()),
            (ArgKind::Indexed(off), Some(base)) => {
                match slice_window(base.as_value(), lo, hi, *off) {
                    Some(w) => w,
                    None => return Ok(false),
                }
            }
            _ => return Ok(false),
        };
        let mut dist_args: [SweepArg<f64>; 3] = [SweepArg::Scalar(0.0); 3];
        let k = sweep.args.len() - 1;
        for j in 0..k {
            dist_args[j] = match (&kinds[j + 1], &bases[j + 1]) {
                (ArgKind::Scalar(x), _) => SweepArg::Scalar(*x),
                (ArgKind::Elems, _) => SweepArg::Reals(&scratch[j + 1]),
                (ArgKind::Indexed(off), Some(base)) => {
                    match slice_window(base.as_value(), lo, hi, *off) {
                        Some(SweepVals::Reals(v)) => SweepArg::Reals(v),
                        Some(SweepVals::Ints(v)) => SweepArg::Ints(v),
                        None => return Ok(false),
                    }
                }
                _ => return Ok(false),
            };
        }
        out.clear();
        out.resize(n, 0.0);
        if lpdf_elems(sweep.kind, xs, &dist_args[..k], out).is_err() {
            return Ok(false);
        }
        // Write the row into the target window (the immutable borrows above
        // have ended).
        let Some(Value::Vector(target)) = frame.get_mut(sweep.target_slot) else {
            return Ok(false);
        };
        target[(start - 1) as usize..end as usize].copy_from_slice(out);
        Ok(true)
    }

    /// Attempts the batched evaluation of an element-wise `_rng` row. Shapes
    /// are validated *before* any RNG consumption, so a fallback re-run
    /// observes the identical stream; per-element sampling errors after that
    /// point are hard errors, exactly where the scalar loop would raise
    /// them.
    fn try_rng_sweep(
        &mut self,
        sweep: &GqSweep,
        frame: &mut Frame<f64>,
    ) -> Result<bool, RuntimeError> {
        let Some((lo, hi)) = self.sweep_bounds(sweep, frame) else {
            return Ok(false);
        };
        if hi < lo {
            return Ok(true);
        }
        let n = (hi - lo + 1) as usize;
        let start = lo + sweep.offset;
        let end = hi + sweep.offset;
        // The target must be a flat container whose window is in bounds; its
        // element kind decides how draws are stored. A real-drawing family
        // writing into an int array would promote the array element by
        // element on the scalar path (`Value::set_index`); that shape
        // declines here — before any RNG consumption — so the fallback
        // reproduces the promotion exactly.
        let int_draws = draws_ints(sweep.kind);
        let int_target = match frame.get(sweep.target_slot) {
            Some(Value::Vector(v)) if start >= 1 && end as usize <= v.len() => false,
            Some(Value::IntArray(v)) if start >= 1 && end as usize <= v.len() && int_draws => true,
            _ => return Ok(false),
        };
        let rng = match &self.ctx.eval.rng {
            Some(rng) => rng.clone(),
            None => return Ok(false),
        };
        let GqScratch { args: scratch, out } = &mut *self.scratch;
        let Some((kinds, bases)) = Self::eval_sweep_args(
            &sweep.args,
            sweep.loop_slot,
            lo,
            hi,
            frame,
            scratch,
            self.ctx,
        ) else {
            return Ok(false);
        };
        let k = sweep.args.len();
        // Resolve each argument position to a per-element reader.
        enum Rd<'a> {
            Scalar(f64),
            Reals(&'a [f64]),
            Ints(&'a [i64]),
        }
        let mut readers: [Option<Rd>; 3] = [None, None, None];
        for j in 0..k {
            readers[j] = Some(match (&kinds[j], &bases[j]) {
                (ArgKind::Scalar(x), _) => Rd::Scalar(*x),
                (ArgKind::Elems, _) => Rd::Reals(&scratch[j]),
                (ArgKind::Indexed(off), Some(base)) => {
                    match slice_window(base.as_value(), lo, hi, *off) {
                        Some(SweepVals::Reals(v)) => Rd::Reals(v),
                        Some(SweepVals::Ints(v)) => Rd::Ints(v),
                        None => return Ok(false),
                    }
                }
                _ => return Ok(false),
            });
        }
        // Draw, in the scalar loop's element order. From here on, errors are
        // hard (the RNG stream has advanced).
        out.clear();
        out.reserve(n);
        {
            let mut rng = rng.borrow_mut();
            let mut elem_args: [DistArg<f64>; 3] = [
                DistArg::Scalar(0.0),
                DistArg::Scalar(0.0),
                DistArg::Scalar(0.0),
            ];
            for i in 0..n {
                for (j, rd) in readers[..k].iter().enumerate() {
                    elem_args[j] = DistArg::Scalar(match rd.as_ref().expect("resolved above") {
                        Rd::Scalar(x) => *x,
                        Rd::Reals(v) => v[i],
                        Rd::Ints(v) => v[i] as f64,
                    });
                }
                let d = dist_from_kind(sweep.kind, &elem_args[..k])?;
                match d.sample(&mut *rng)? {
                    SampleValue::Real(x) => out.push(x),
                    SampleValue::Int(x) => out.push(x as f64),
                    SampleValue::Vec(_) => {
                        return Err(RuntimeError::new(format!(
                            "{}_rng: vector draw cannot fill a scalar element",
                            sweep.kind.name()
                        )))
                    }
                }
            }
        }
        match frame.get_mut(sweep.target_slot) {
            Some(Value::Vector(target)) if !int_target => {
                target[(start - 1) as usize..end as usize].copy_from_slice(out);
            }
            Some(Value::IntArray(target)) if int_target => {
                for (t, &x) in target[(start - 1) as usize..end as usize]
                    .iter_mut()
                    .zip(out.iter())
                {
                    *t = x as i64;
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn sweep_bounds(&self, sweep: &GqSweep, frame: &Frame<f64>) -> Option<(i64, i64)> {
        let lo = reval_expr(&sweep.lo, frame, self.ctx).ok()?.as_int().ok()?;
        let hi = reval_expr(&sweep.hi, frame, self.ctx).ok()?.as_int().ok()?;
        Some((lo, hi))
    }
}

/// Argument classification after evaluation.
enum ArgKind {
    Missing,
    Scalar(f64),
    Elems,
    Indexed(i64),
}

/// Whether a family's draws are integers ([`SampleValue::Int`]) — decidable
/// statically, which is what lets [`RStmt::RngSweep`] validate its target
/// container before consuming any RNG. Multivariate and vector-parameter
/// families never reach this point (lowering declines them).
fn draws_ints(kind: DistKind) -> bool {
    matches!(
        kind,
        DistKind::Bernoulli
            | DistKind::BernoulliLogit
            | DistKind::Binomial
            | DistKind::BinomialLogit
            | DistKind::Poisson
            | DistKind::PoissonLog
            | DistKind::Categorical
            | DistKind::CategoricalLogit
    )
}

/// Flat component names of one generated quantity in Stan's `name[i,j]`
/// convention, derived from the value's runtime shape.
pub fn flat_names(name: &str, value: &Value<f64>) -> Vec<String> {
    fn walk(prefix: &str, idx: &mut Vec<i64>, value: &Value<f64>, out: &mut Vec<String>) {
        let label = |idx: &[i64]| {
            if idx.is_empty() {
                prefix.to_string()
            } else {
                let parts: Vec<String> = idx.iter().map(|i| i.to_string()).collect();
                format!("{prefix}[{}]", parts.join(","))
            }
        };
        match value {
            Value::Real(_) | Value::Int(_) | Value::Unit => out.push(label(idx)),
            Value::Vector(v) => {
                for i in 1..=v.len() as i64 {
                    idx.push(i);
                    out.push(label(idx));
                    idx.pop();
                }
            }
            Value::IntArray(v) => {
                for i in 1..=v.len() as i64 {
                    idx.push(i);
                    out.push(label(idx));
                    idx.pop();
                }
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    idx.push(i as i64 + 1);
                    walk(prefix, idx, item, out);
                    idx.pop();
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(name, &mut Vec::new(), value, &mut out);
    out
}

/// Flattens a value into reals, appending to `out`.
pub(crate) fn flatten_into(value: &Value<f64>, out: &mut Vec<f64>) -> Result<(), RuntimeError> {
    match value {
        Value::Real(x) => out.push(*x),
        Value::Int(k) => out.push(*k as f64),
        Value::Vector(v) => out.extend_from_slice(v),
        Value::IntArray(v) => out.extend(v.iter().map(|&k| k as f64)),
        Value::Array(items) => {
            for item in items {
                flatten_into(item, out)?;
            }
        }
        Value::Unit => return Err(RuntimeError::new("generated quantity evaluated to unit")),
    }
    Ok(())
}

/// Converts the outputs bound in a workspace frame to a string-keyed
/// environment — the API-boundary form matching the string path's return.
pub(crate) fn outputs_to_env(gq: &ResolvedGq, ws: &GqWorkspace) -> Env<f64> {
    let mut env = Env::new();
    for out in &gq.outputs {
        if let Some(v) = ws.value_of(out.slot) {
            env.insert(out.name.clone(), v.clone());
        }
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ParamInfo;
    use crate::GModel;
    use rand::SeedableRng;
    use stan_frontend::ast::{BaseType, BlockBody, ConstraintSpec, Decl, LValue};

    fn decl(ty: BaseType, name: &str, dims: Vec<Expr>) -> Decl {
        Decl {
            ty,
            constraint: ConstraintSpec::default(),
            name: name.into(),
            dims,
            init: None,
        }
    }

    fn idx(base: &str, i: Expr) -> Expr {
        Expr::Index(Box::new(Expr::var(base)), vec![i])
    }

    fn assign_loop(target: &str, rhs: Expr) -> Stmt {
        Stmt::ForRange {
            var: "i".into(),
            lo: Expr::IntLit(1),
            hi: Expr::var("N"),
            body: Box::new(Stmt::Assign {
                lhs: LValue {
                    name: target.into(),
                    indices: vec![Expr::var("i")],
                },
                op: AssignOp::Assign,
                rhs,
            }),
        }
    }

    /// A program whose GQ block exercises both sweep shapes plus a scalar
    /// reduction: pointwise normal log-lik rows, a `_rng` replication row
    /// with an element-wise mean, and `sum` over the row.
    fn gq_program() -> GProbProgram {
        let ll_rhs = Expr::Call(
            "normal_lpdf".into(),
            vec![
                idx("y", Expr::var("i")),
                Expr::var("mu"),
                Expr::RealLit(2.0),
            ],
        );
        let yr_rhs = Expr::Call(
            "normal_rng".into(),
            vec![
                Expr::Binary(
                    stan_frontend::ast::BinOp::Add,
                    Box::new(Expr::var("mu")),
                    Box::new(idx("y", Expr::var("i"))),
                ),
                Expr::RealLit(1.0),
            ],
        );
        let stmts = vec![
            Stmt::LocalDecl(decl(
                BaseType::Vector(Box::new(Expr::var("N"))),
                "ll",
                vec![],
            )),
            assign_loop("ll", ll_rhs),
            Stmt::LocalDecl(decl(BaseType::Real, "s", vec![])),
            Stmt::Assign {
                lhs: LValue {
                    name: "s".into(),
                    indices: vec![],
                },
                op: AssignOp::Assign,
                rhs: Expr::Call("sum".into(), vec![Expr::var("ll")]),
            },
            Stmt::LocalDecl(decl(
                BaseType::Vector(Box::new(Expr::var("N"))),
                "yr",
                vec![],
            )),
            assign_loop("yr", yr_rhs),
        ];
        GProbProgram {
            data: vec![
                decl(BaseType::Int, "N", vec![]),
                decl(BaseType::Vector(Box::new(Expr::var("N"))), "y", vec![]),
            ],
            params: vec![ParamInfo::scalar("mu")],
            generated_quantities: Some(BlockBody { stmts }),
            gq_outputs: vec!["ll".into(), "s".into(), "yr".into()],
            ..Default::default()
        }
    }

    fn data() -> Env<f64> {
        let mut env = Env::new();
        env.insert("N".into(), Value::Int(4));
        env.insert("y".into(), Value::Vector(vec![0.4, -1.2, 2.0, 0.7]));
        env
    }

    #[test]
    fn lpdf_and_rng_loops_lower_to_sweeps() {
        let program = gq_program();
        let fused = resolve_gq(&program).unwrap();
        assert_eq!(count_gq_sweeps(&fused.stmts), 2);
        assert!(matches!(fused.stmts[1], RStmt::LpdfSweep { .. }));
        assert!(matches!(fused.stmts[5], RStmt::RngSweep { .. }));
        let scalar = resolve_gq_scalar(&program).unwrap();
        assert_eq!(count_gq_sweeps(&scalar.stmts), 0);
        assert_eq!(fused.outputs.len(), 3);
    }

    #[test]
    fn resolved_gq_matches_the_string_path_and_reuses_its_workspace() {
        let program = gq_program();
        let fused = GModel::new(program.clone(), data()).unwrap();
        let scalar = GModel::new_scalar(program, data()).unwrap();
        let theta_u = [0.5];
        for seed in [1u64, 7, 23] {
            let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(seed)));
            let want = fused.generated_quantities(&theta_u, rng).unwrap();
            let got = fused.generated_quantities_resolved(&theta_u, seed).unwrap();
            let got_scalar = scalar
                .generated_quantities_resolved(&theta_u, seed)
                .unwrap();
            for key in ["ll", "s", "yr"] {
                let w = want.get(key).unwrap().as_real_vec().unwrap();
                let g = got.get(key).unwrap().as_real_vec().unwrap();
                let gs = got_scalar.get(key).unwrap().as_real_vec().unwrap();
                assert_eq!(w.len(), g.len(), "{key}");
                for ((a, b), c) in w.iter().zip(&g).zip(&gs) {
                    assert!((a - b).abs() < 1e-12, "{key}: {a} vs {b}");
                    assert!((a - c).abs() < 1e-12, "{key}: {a} vs {c}");
                }
            }
        }
        // Streaming on one workspace: identical rows for identical seeds,
        // names derived from the bound shapes.
        let mut ws = fused.gq_workspace().unwrap();
        let mut row1 = Vec::new();
        fused
            .generated_quantities_into(&mut ws, &theta_u, false, 11, &mut row1)
            .unwrap();
        let names = fused.gq_component_names(&ws).unwrap();
        assert_eq!(names.len(), row1.len());
        assert!(names.contains(&"ll[1]".to_string()));
        assert!(names.contains(&"s".to_string()));
        let mut row2 = Vec::new();
        fused
            .generated_quantities_into(&mut ws, &theta_u, false, 11, &mut row2)
            .unwrap();
        assert_eq!(row1, row2);
        // Different seeds change the _rng outputs but not the log-lik row.
        let mut row3 = Vec::new();
        fused
            .generated_quantities_into(&mut ws, &theta_u, false, 12, &mut row3)
            .unwrap();
        assert_eq!(row1[..5], row3[..5]);
        assert_ne!(row1[5..], row3[5..]);
    }

    /// A GQ block with whole-container rows: a summed log-lik scalar from a
    /// container observation (with a per-element argument), plus a decoy
    /// compound assignment that must NOT lower.
    fn whole_container_program() -> GProbProgram {
        let stmts = vec![
            Stmt::LocalDecl(decl(BaseType::Real, "total_ll", vec![])),
            Stmt::Assign {
                lhs: LValue {
                    name: "total_ll".into(),
                    indices: vec![],
                },
                op: AssignOp::Assign,
                rhs: Expr::Call(
                    "normal_lpdf".into(),
                    vec![Expr::var("y"), Expr::var("mu"), Expr::RealLit(2.0)],
                ),
            },
            Stmt::LocalDecl(decl(BaseType::Real, "twice", vec![])),
            Stmt::Assign {
                lhs: LValue {
                    name: "twice".into(),
                    indices: vec![],
                },
                op: AssignOp::Assign,
                rhs: Expr::Call(
                    "bernoulli_lpmf".into(),
                    vec![Expr::var("k"), Expr::RealLit(0.3)],
                ),
            },
        ];
        GProbProgram {
            data: vec![
                decl(BaseType::Int, "N", vec![]),
                decl(BaseType::Vector(Box::new(Expr::var("N"))), "y", vec![]),
                decl(BaseType::Int, "k", vec![Expr::var("N")]),
            ],
            params: vec![ParamInfo::scalar("mu")],
            generated_quantities: Some(BlockBody { stmts }),
            gq_outputs: vec!["total_ll".into(), "twice".into()],
            ..Default::default()
        }
    }

    #[test]
    fn whole_container_lpdf_assignments_lower_and_match_the_string_path() {
        let program = whole_container_program();
        let fused = resolve_gq(&program).unwrap();
        // Both rows lower (vector observation and int-array observation).
        assert_eq!(count_gq_sweeps(&fused.stmts), 2);
        assert!(matches!(fused.stmts[1], RStmt::LpdfAssign { .. }));
        assert!(matches!(fused.stmts[3], RStmt::LpdfAssign { .. }));
        let scalar = resolve_gq_scalar(&program).unwrap();
        assert_eq!(count_gq_sweeps(&scalar.stmts), 0);
        // The scalar-sum value is pinned to the string path and to the
        // unlowered configuration.
        let mut env = Env::new();
        env.insert("N".into(), Value::Int(4));
        env.insert("y".into(), Value::Vector(vec![0.4, -1.2, 2.0, 0.7]));
        env.insert("k".into(), Value::IntArray(vec![1, 0, 0, 1]));
        let fused = GModel::new(program.clone(), env.clone()).unwrap();
        let scalar = GModel::new_scalar(program, env).unwrap();
        let want = fused
            .generated_quantities(&[0.5], Rc::new(RefCell::new(StdRng::seed_from_u64(5))))
            .unwrap();
        let got = fused.generated_quantities_resolved(&[0.5], 5).unwrap();
        let got_scalar = scalar.generated_quantities_resolved(&[0.5], 5).unwrap();
        for key in ["total_ll", "twice"] {
            let w = want.get(key).unwrap().as_real().unwrap();
            let g = got.get(key).unwrap().as_real().unwrap();
            let gs = got_scalar.get(key).unwrap().as_real().unwrap();
            assert!((w - g).abs() < 1e-12, "{key}: {w} vs {g}");
            assert!((w - gs).abs() < 1e-12, "{key}: {w} vs {gs}");
        }
        // A scalar observation declines at runtime and falls back to the
        // generic assignment (same value).
        let mut env2 = Env::new();
        env2.insert("N".into(), Value::Int(1));
        env2.insert("y".into(), Value::Real(0.4));
        env2.insert("k".into(), Value::IntArray(vec![1]));
        let m2 = GModel::new(whole_container_program(), env2).unwrap();
        let a = m2.generated_quantities_resolved(&[0.5], 5).unwrap();
        let b = m2
            .generated_quantities(&[0.5], Rc::new(RefCell::new(StdRng::seed_from_u64(5))))
            .unwrap();
        assert!(
            (a.get("total_ll").unwrap().as_real().unwrap()
                - b.get("total_ll").unwrap().as_real().unwrap())
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn runtime_shapes_that_decline_fall_back_to_the_scalar_loop() {
        // Loop runs past the end of y: the sweep declines and the fallback
        // reproduces the scalar out-of-bounds error.
        let mut program = gq_program();
        if let Some(gq) = &mut program.generated_quantities {
            // Rewrite both loop bounds to N + 2.
            for s in &mut gq.stmts {
                if let Stmt::ForRange { hi, .. } = s {
                    *hi = Expr::Binary(
                        stan_frontend::ast::BinOp::Add,
                        Box::new(Expr::var("N")),
                        Box::new(Expr::IntLit(2)),
                    );
                }
            }
        }
        let fused = GModel::new(program.clone(), data()).unwrap();
        let scalar = GModel::new_scalar(program, data()).unwrap();
        let ef = fused.generated_quantities_resolved(&[0.5], 3).unwrap_err();
        let es = scalar.generated_quantities_resolved(&[0.5], 3).unwrap_err();
        assert_eq!(ef, es);
        assert!(ef.message().contains("out of bounds"), "{}", ef.message());
    }

    #[test]
    fn parameters_are_written_in_place_across_draws() {
        let mut frame: Frame<f64> = Frame::new(1);
        write_param_into(&mut frame, 0, &[1.0, 2.0, 3.0], &[3]);
        assert_eq!(frame.get(0), Some(&Value::Vector(vec![1.0, 2.0, 3.0])));
        write_param_into(&mut frame, 0, &[4.0, 5.0, 6.0], &[3]);
        assert_eq!(frame.get(0), Some(&Value::Vector(vec![4.0, 5.0, 6.0])));
        // Matrix-shaped parameter.
        write_param_into(&mut frame, 0, &[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(
            frame.get(0),
            Some(&Value::Array(vec![
                Value::Vector(vec![1.0, 2.0]),
                Value::Vector(vec![3.0, 4.0]),
            ]))
        );
    }

    #[test]
    fn flat_names_follow_the_stan_convention() {
        assert_eq!(flat_names("s", &Value::Real(1.0)), vec!["s"]);
        assert_eq!(
            flat_names("v", &Value::Vector(vec![1.0, 2.0])),
            vec!["v[1]", "v[2]"]
        );
        assert_eq!(
            flat_names(
                "m",
                &Value::Array(vec![
                    Value::Vector(vec![1.0, 2.0]),
                    Value::Vector(vec![3.0, 4.0]),
                ])
            ),
            vec!["m[1,1]", "m[1,2]", "m[2,1]", "m[2,2]"]
        );
    }
}
