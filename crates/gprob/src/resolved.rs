//! The slot-resolved form of the GProb IR and its runtime frame.
//!
//! The tree-walking runtime historically executed [`crate::ir::GExpr`]
//! directly, looking every variable up in a `HashMap<String, Value<T>>`.
//! String hashing on each read dominated the NUTS log-density hot path. This
//! module implements the standard compiler fix: a resolution pass
//! ([`resolve_program`]) that interns every name once (using
//! [`stan_frontend::symbols`]) and rewrites the IR so each variable carries
//! its dense frame slot. The runtime environment becomes a [`Frame`] — a
//! flat `Vec<Option<Value<T>>>` indexed by slot — and the evaluator
//! (`crate::reval`) never hashes a string again.
//!
//! Semantics are preserved exactly. The dynamic environment of the paper's
//! semantics is a single flat namespace (an insert overwrites any previous
//! binding of that name; loop indices are removed after the loop), so the
//! resolver allocates **one slot per distinct name** — the symbol index is
//! the slot index — and marks loop indices for clearing on loop exit
//! (lexically scoped resolution via
//! [`stan_frontend::symbols::ScopeStack`] is reserved for user-function
//! bodies). The differential suite in
//! `tests/slot_equivalence.rs` pins the resolved density to the string-keyed
//! baseline to 1e-12 across the whole model corpus.

use minidiff::Real;
use probdist::DistKind;
use stan_frontend::ast::{BaseType, Decl, Expr, FunDecl, UnOp};
use stan_frontend::symbols::Interner;

use crate::eval::FnTable;
use crate::ir::{DistCall, GExpr, GProbProgram, LoopKind, ParamInfo};
use crate::value::{Env, EnvView, Value};

/// A runtime variable frame: one pre-allocated slot per resolved name.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<T: Real> {
    slots: Vec<Option<Value<T>>>,
}

impl<T: Real> Frame<T> {
    /// An empty frame with `n` slots.
    pub fn new(n: usize) -> Self {
        Frame {
            slots: vec![None; n],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the frame has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Reads a slot.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&Value<T>> {
        self.slots[slot as usize].as_ref()
    }

    /// Writes a slot.
    #[inline]
    pub fn set(&mut self, slot: u32, value: Value<T>) {
        self.slots[slot as usize] = Some(value);
    }

    /// Mutable access to a slot's contents.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut Value<T>> {
        self.slots[slot as usize].as_mut()
    }

    /// Unbinds a slot (the slot-frame analog of `HashMap::remove`).
    #[inline]
    pub fn clear(&mut self, slot: u32) {
        self.slots[slot as usize] = None;
    }

    /// Lifts a plain `f64` frame into any scalar type (constants, no
    /// gradient) — the slot-frame analog of [`crate::value::lift_env`].
    pub fn lift(template: &Frame<f64>) -> Frame<T> {
        Frame {
            slots: template
                .slots
                .iter()
                .map(|s| s.as_ref().map(Value::lift))
                .collect(),
        }
    }

    /// Restores the listed slots to their state in `template` — the reset
    /// step of a pooled density workspace. Slots that are unbound in the
    /// template (parameters, locals) are simply cleared, so data values are
    /// only re-cloned when the model actually shadowed them.
    pub fn reset_slots_from(&mut self, template: &Frame<T>, slots: &[u32]) {
        for &slot in slots {
            let i = slot as usize;
            match &template.slots[i] {
                Some(v) => match &mut self.slots[i] {
                    Some(dst) => dst.clone_from(v),
                    dst @ None => *dst = Some(v.clone()),
                },
                None => self.slots[i] = None,
            }
        }
    }

    /// Converts the frame back to a string-keyed environment — used only at
    /// the public trace API boundary. Frames shorter than the interner
    /// (e.g. the empty trace density evaluation returns) convert to a
    /// correspondingly partial environment.
    pub fn to_env(&self, interner: &Interner) -> Env<T> {
        let mut env = Env::new();
        for (sym, name) in interner.iter() {
            if let Some(Some(v)) = self.slots.get(sym.index()) {
                env.insert(name.to_string(), v.clone());
            }
        }
        env
    }
}

/// A name-addressed view of a frame (for externals and user functions).
pub struct FrameView<'a, T: Real> {
    /// The underlying frame.
    pub frame: &'a Frame<T>,
    /// The symbol table mapping names to slots.
    pub interner: &'a Interner,
}

impl<T: Real> EnvView<T> for FrameView<'_, T> {
    fn get_var(&self, name: &str) -> Option<&Value<T>> {
        let idx = self.interner.lookup(name)?.index();
        self.frame.slots.get(idx)?.as_ref()
    }
    fn for_each_var(&self, f: &mut dyn FnMut(&str, &Value<T>)) {
        for (sym, name) in self.interner.iter() {
            if let Some(Some(v)) = self.frame.slots.get(sym.index()) {
                f(name, v);
            }
        }
    }
}

/// How a call site dispatches, decided at resolution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// A user-defined function (index into [`GProbProgram::functions`]).
    User(u32),
    /// A standard-library builtin (or an external hook, probed at runtime).
    Builtin,
}

/// A slot-resolved expression. Mirrors [`stan_frontend::ast::Expr`] with
/// variable references replaced by frame slots.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// Integer literal.
    IntLit(i64),
    /// Real literal.
    RealLit(f64),
    /// String literal (evaluates to unit, as in the string evaluator).
    StringLit(String),
    /// Variable read through its resolved slot.
    Slot(u32),
    /// Function call with a resolved dispatch target.
    Call(String, CallTarget, Vec<RExpr>),
    /// Binary operation.
    Binary(stan_frontend::ast::BinOp, Box<RExpr>, Box<RExpr>),
    /// Unary operation.
    Unary(UnOp, Box<RExpr>),
    /// Indexing; range indices become [`RIndex::Slice`].
    Index(Box<RExpr>, Vec<RIndex>),
    /// Array literal.
    ArrayLit(Vec<RExpr>),
    /// Vector literal.
    VectorLit(Vec<RExpr>),
    /// Range expression `lo:hi`.
    Range(Box<RExpr>, Box<RExpr>),
    /// Conditional operator.
    Ternary(Box<RExpr>, Box<RExpr>, Box<RExpr>),
}

/// One index position of an [`RExpr::Index`].
#[derive(Debug, Clone, PartialEq)]
pub enum RIndex {
    /// A single 1-based index.
    One(RExpr),
    /// A slice `lo:hi`.
    Slice(RExpr, RExpr),
}

/// A resolved distribution call.
#[derive(Debug, Clone, PartialEq)]
pub struct RDistCall {
    /// Distribution name (Stan spelling).
    pub name: String,
    /// The distribution family, resolved once here so density evaluation
    /// never string-matches the name. `None` for unknown families, which
    /// keep erroring at evaluation time with the original name.
    pub kind: Option<DistKind>,
    /// Argument expressions.
    pub args: Vec<RExpr>,
    /// Shape expressions of the sampled value.
    pub shape: Vec<RExpr>,
}

/// The element kind of a resolved declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum RDeclKind {
    /// `int`
    Int,
    /// `real`
    Real,
    /// All vector-like types (`vector`, `row_vector`, `simplex`, ...).
    Vector(RExpr),
    /// `matrix[r, c]`
    Matrix(RExpr, RExpr),
    /// Square-matrix types (`cov_matrix`, `corr_matrix`, ...).
    Square(RExpr),
}

/// A resolved local declaration (carries everything `default_value` needs).
#[derive(Debug, Clone, PartialEq)]
pub struct RDecl {
    /// Target slot.
    pub slot: u32,
    /// Element kind.
    pub kind: RDeclKind,
    /// Array dimensions (outermost first).
    pub dims: Vec<RExpr>,
    /// Optional initializer.
    pub init: Option<RExpr>,
}

/// Loop headers in resolved form. The loop variable slot is cleared when the
/// loop exits, matching the string runtime's `env.remove(var)`.
#[derive(Debug, Clone, PartialEq)]
pub enum RLoopKind {
    /// `for (var in lo:hi)`
    Range {
        /// Loop variable slot.
        slot: u32,
        /// Lower bound.
        lo: RExpr,
        /// Upper bound.
        hi: RExpr,
    },
    /// `for (var in collection)`
    ForEach {
        /// Loop variable slot.
        slot: u32,
        /// Collection expression.
        collection: RExpr,
    },
    /// `while (cond)`
    While {
        /// Condition.
        cond: RExpr,
    },
}

/// A batched element access `base[v + offset]`, where `v` ranges over the
/// sweep's loop counter. The base expression is loop-invariant, so the
/// runtime evaluates it once and borrows the window `[lo+offset, hi+offset]`
/// as one contiguous slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAccess {
    /// Loop-invariant container expression (after stripping the final,
    /// affine index).
    pub base: RExpr,
    /// Constant offset of the affine index `loop_var + offset`.
    pub offset: i64,
}

/// How one distribution argument of an [`RSweep`] is evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepArgSpec {
    /// Loop-invariant: evaluated once per sweep, broadcast as a scalar.
    Invariant(RExpr),
    /// A direct affine element read `base[v + offset]`: the runtime borrows
    /// the whole window as a slice (no per-element evaluation at all).
    Indexed(SweepAccess),
    /// An expression that mentions the loop variable only inside affine
    /// element reads (e.g. `alpha + beta * x[i]`): evaluated once per
    /// element into a scratch vector, then scored by the batch kernel. The
    /// per-element *density* work is still fused; only the argument
    /// expression itself is interpreted per element.
    Elementwise(RExpr),
}

/// A lowered observation sweep: the counted loop
/// `for (v in lo:hi) target[v + offset] ~ kind(args...)` collapsed into one
/// batched observe site. Produced by the sweep-lowering pass of
/// [`resolve_program`]; scored by `crate::reval` through
/// [`probdist::lpdf_sweep`], so density evaluation runs one fused kernel
/// (and, on the gradient path, records one fused tape node) instead of one
/// scalar site per element.
#[derive(Debug, Clone, PartialEq)]
pub struct RSweep {
    /// The loop-variable slot. Cleared when the sweep completes, exactly as
    /// the scalar loop clears it on exit.
    pub loop_slot: u32,
    /// Loop lower bound (loop-invariant).
    pub lo: RExpr,
    /// Loop upper bound (loop-invariant).
    pub hi: RExpr,
    /// The observed container window.
    pub target: SweepAccess,
    /// Distribution family (always one of the sweep-kernel families).
    pub kind: DistKind,
    /// Distribution arguments.
    pub args: Vec<SweepArgSpec>,
}

/// A slot-resolved GProb expression in continuation-passing form, mirroring
/// [`GExpr`].
#[derive(Debug, Clone, PartialEq)]
pub enum RGExpr {
    /// `return(e)`.
    Return(RExpr),
    /// `return(())`.
    Unit,
    /// `let slot = default(decl) in body`.
    LetDecl {
        /// The resolved declaration.
        decl: RDecl,
        /// Continuation.
        body: Box<RGExpr>,
    },
    /// `let slot = value in body`.
    LetDet {
        /// Target slot.
        slot: u32,
        /// Value expression.
        value: RExpr,
        /// Continuation.
        body: Box<RGExpr>,
    },
    /// `let slot[indices] = value in body`.
    LetIndexed {
        /// Updated slot.
        slot: u32,
        /// Index expressions.
        indices: Vec<RExpr>,
        /// New cell value.
        value: RExpr,
        /// Continuation.
        body: Box<RGExpr>,
    },
    /// `let slot = sample(dist) in body`. The slot doubles as the trace key.
    LetSample {
        /// Site / variable slot.
        slot: u32,
        /// The distribution sampled from.
        dist: RDistCall,
        /// Continuation.
        body: Box<RGExpr>,
    },
    /// `let () = observe(dist, value) in body`.
    Observe {
        /// The observed distribution.
        dist: RDistCall,
        /// The observed value.
        value: RExpr,
        /// Continuation.
        body: Box<RGExpr>,
    },
    /// `let () = factor(value) in body`.
    Factor {
        /// Log-score increment.
        value: RExpr,
        /// Continuation.
        body: Box<RGExpr>,
    },
    /// `if (cond) then_branch else else_branch`.
    If {
        /// Condition.
        cond: RExpr,
        /// Then branch.
        then_branch: Box<RGExpr>,
        /// Else branch.
        else_branch: Box<RGExpr>,
    },
    /// A state-annotated loop.
    LetLoop {
        /// Loop kind and header.
        kind: RLoopKind,
        /// The loop body.
        loop_body: Box<RGExpr>,
        /// Continuation after the loop.
        body: Box<RGExpr>,
    },
    /// A lowered element-wise observation loop (see [`RSweep`]). The
    /// original scalar loop is retained as `fallback`: if the runtime shapes
    /// don't admit slice borrowing (non-vector base, out-of-window bounds,
    /// non-scalar invariant argument), evaluation re-runs the loop
    /// element-by-element, which also reproduces the scalar path's exact
    /// errors.
    ObserveSweep {
        /// The batched site.
        sweep: RSweep,
        /// The original scalar loop (continuation truncated to `Unit`).
        fallback: Box<RGExpr>,
        /// Continuation after the sweep.
        body: Box<RGExpr>,
    },
}

/// Parameter metadata with resolved shape / bound expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct RParamInfo {
    /// Frame slot of the parameter (doubles as its trace key).
    pub slot: u32,
    /// Parameter name (reporting only).
    pub name: String,
    /// Shape expressions.
    pub shape: Vec<RExpr>,
    /// Lower bound, if declared.
    pub lower: Option<RExpr>,
    /// Upper bound, if declared.
    pub upper: Option<RExpr>,
}

/// A fully resolved GProb program: the slot-annotated body plus the symbol
/// table needed to cross back to the name-addressed world at API boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedProgram {
    /// The symbol table; symbol indices coincide with frame slots.
    pub interner: Interner,
    /// Frame size.
    pub n_slots: usize,
    /// Resolved parameter table.
    pub params: Vec<RParamInfo>,
    /// The resolved model body.
    pub body: RGExpr,
    /// The resolved guide body (DeepStan `guide`), when the program has one.
    /// It shares the model's interner, so a guide run's sample trace is
    /// directly a trace frame for the model body.
    pub guide: Option<RGExpr>,
    /// Frame slot of each guide parameter, parallel to
    /// [`GProbProgram::guide_params`].
    pub guide_param_slots: Vec<u32>,
    /// The user-function dispatch table, hoisted here so evaluation contexts
    /// never rebuild (and re-clone the `String` keys of) the per-evaluation
    /// `HashMap` the evaluators historically used.
    pub fn_table: FnTable,
    /// Every slot the body can write (sorted, deduplicated): `let` targets,
    /// sample sites, indexed assignments and loop variables. A pooled
    /// density workspace only needs to reset these between evaluations —
    /// data slots outside this set are never dirtied.
    pub written_slots: Vec<u32>,
    /// Whether this program was resolved with batched scoring: element-wise
    /// observation loops lowered to [`RGExpr::ObserveSweep`] sites and
    /// vectorized `~` statements scored through the fused sweep kernels.
    /// `false` for [`resolve_program_scalar`], the element-by-element
    /// configuration kept for differential testing and benchmarking.
    pub fused: bool,
}

impl ResolvedProgram {
    /// The frame slot bound to `name`, if the program mentions it.
    pub fn slot_of(&self, name: &str) -> Option<u32> {
        self.interner.lookup(name).map(|s| s.index() as u32)
    }

    /// The name bound to a frame slot.
    pub fn name_of(&self, slot: u32) -> &str {
        self.interner.name_at(slot as usize).unwrap_or("<unknown>")
    }

    /// Builds an empty frame of the right size.
    pub fn frame<T: Real>(&self) -> Frame<T> {
        Frame::new(self.n_slots)
    }

    /// Fills a frame from a string-keyed environment (data binding).
    pub fn frame_from_env<T: Real>(&self, env: &Env<T>) -> Frame<T> {
        let mut frame = self.frame();
        for (k, v) in env {
            if let Some(slot) = self.slot_of(k) {
                frame.set(slot, v.clone());
            }
        }
        frame
    }
}

/// The resolution pass: walks a compiled [`GProbProgram`] and produces its
/// slot-annotated [`ResolvedProgram`], then lowers counted element-wise
/// observation loops into batched [`RGExpr::ObserveSweep`] sites (see
/// [`RSweep`] for the pattern). Never fails — unbound names resolve to
/// (initially empty) slots, preserving the runtime's "unbound variable"
/// errors with the original names.
pub fn resolve_program(program: &GProbProgram) -> ResolvedProgram {
    resolve_program_with(program, true)
}

/// [`resolve_program`] without sweep lowering or batched scoring: every
/// observation is evaluated element by element, exactly as before the
/// batching pass existed. This is the comparison configuration used by the
/// sweep differential suite and the `sweep-vs-scalar` benchmark rows.
pub fn resolve_program_scalar(program: &GProbProgram) -> ResolvedProgram {
    resolve_program_with(program, false)
}

fn resolve_program_with(program: &GProbProgram, fused: bool) -> ResolvedProgram {
    let mut r = Resolver::new(&program.functions);

    // Data declarations, transformed-data locals, and function/argument
    // names are interned first so every variable the data environment can
    // supply has a slot (user-defined functions see that environment).
    for d in &program.data {
        r.slot_for(&d.name);
        for dim in &d.dims {
            r.resolve_expr(dim);
        }
    }
    if let Some(td) = &program.transformed_data {
        r.intern_stmts(&td.stmts);
    }

    let params: Vec<RParamInfo> = program.params.iter().map(|p| r.resolve_param(p)).collect();

    let lower = |body| if fused { lower_sweeps(body) } else { body };
    let body = lower(r.resolve_gexpr(&program.body));
    let guide_param_slots = program
        .guide_params
        .iter()
        .map(|p| r.slot_for(&p.name))
        .collect();
    let guide = program
        .guide_body
        .as_ref()
        .map(|g| lower(r.resolve_gexpr(g)));

    let mut written_slots = Vec::new();
    collect_written_slots(&body, &mut written_slots);
    written_slots.sort_unstable();
    written_slots.dedup();

    ResolvedProgram {
        n_slots: r.interner.len(),
        interner: r.interner,
        params,
        body,
        guide,
        guide_param_slots,
        fn_table: FnTable::new(&program.functions),
        written_slots,
        fused,
    }
}

/// Collects every frame slot a resolved body can write.
fn collect_written_slots(e: &RGExpr, out: &mut Vec<u32>) {
    match e {
        RGExpr::Unit | RGExpr::Return(_) => {}
        RGExpr::LetDecl { decl, body } => {
            out.push(decl.slot);
            collect_written_slots(body, out);
        }
        RGExpr::LetDet { slot, body, .. }
        | RGExpr::LetIndexed { slot, body, .. }
        | RGExpr::LetSample { slot, body, .. } => {
            out.push(*slot);
            collect_written_slots(body, out);
        }
        RGExpr::Observe { body, .. } | RGExpr::Factor { body, .. } => {
            collect_written_slots(body, out);
        }
        RGExpr::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_written_slots(then_branch, out);
            collect_written_slots(else_branch, out);
        }
        RGExpr::LetLoop {
            kind,
            loop_body,
            body,
        } => {
            match kind {
                RLoopKind::Range { slot, .. } | RLoopKind::ForEach { slot, .. } => {
                    out.push(*slot);
                }
                RLoopKind::While { .. } => {}
            }
            collect_written_slots(loop_body, out);
            collect_written_slots(body, out);
        }
        RGExpr::ObserveSweep {
            sweep,
            fallback,
            body,
        } => {
            out.push(sweep.loop_slot);
            collect_written_slots(fallback, out);
            collect_written_slots(body, out);
        }
    }
}

/// Number of [`RGExpr::ObserveSweep`] sites in a resolved body — used by
/// tests and benchmarks to assert which loop shapes lowered and which
/// declined.
pub fn count_sweeps(e: &RGExpr) -> usize {
    match e {
        RGExpr::Unit | RGExpr::Return(_) => 0,
        RGExpr::LetDecl { body, .. }
        | RGExpr::LetDet { body, .. }
        | RGExpr::LetIndexed { body, .. }
        | RGExpr::LetSample { body, .. }
        | RGExpr::Observe { body, .. }
        | RGExpr::Factor { body, .. } => count_sweeps(body),
        RGExpr::If {
            then_branch,
            else_branch,
            ..
        } => count_sweeps(then_branch) + count_sweeps(else_branch),
        RGExpr::LetLoop {
            loop_body, body, ..
        } => count_sweeps(loop_body) + count_sweeps(body),
        RGExpr::ObserveSweep { body, .. } => 1 + count_sweeps(body),
    }
}

/// Whether an expression reads the given slot anywhere.
pub(crate) fn mentions_slot(e: &RExpr, slot: u32) -> bool {
    match e {
        RExpr::IntLit(_) | RExpr::RealLit(_) | RExpr::StringLit(_) => false,
        RExpr::Slot(s) => *s == slot,
        RExpr::Call(_, _, args) => args.iter().any(|a| mentions_slot(a, slot)),
        RExpr::Binary(_, a, b) | RExpr::Range(a, b) => {
            mentions_slot(a, slot) || mentions_slot(b, slot)
        }
        RExpr::Unary(_, a) => mentions_slot(a, slot),
        RExpr::Index(base, indices) => {
            mentions_slot(base, slot)
                || indices.iter().any(|i| match i {
                    RIndex::One(e) => mentions_slot(e, slot),
                    RIndex::Slice(a, b) => mentions_slot(a, slot) || mentions_slot(b, slot),
                })
        }
        RExpr::ArrayLit(items) | RExpr::VectorLit(items) => {
            items.iter().any(|i| mentions_slot(i, slot))
        }
        RExpr::Ternary(c, a, b) => {
            mentions_slot(c, slot) || mentions_slot(a, slot) || mentions_slot(b, slot)
        }
    }
}

/// Parses an index expression affine in the loop variable with unit stride:
/// `v`, `v + c`, `c + v`, or `v - c`, returning the constant offset.
pub(crate) fn affine_offset(e: &RExpr, slot: u32) -> Option<i64> {
    use stan_frontend::ast::BinOp;
    match e {
        RExpr::Slot(s) if *s == slot => Some(0),
        RExpr::Binary(BinOp::Add, a, b) => match (&**a, &**b) {
            (RExpr::Slot(s), RExpr::IntLit(c)) if *s == slot => Some(*c),
            (RExpr::IntLit(c), RExpr::Slot(s)) if *s == slot => Some(*c),
            _ => None,
        },
        RExpr::Binary(BinOp::Sub, a, b) => match (&**a, &**b) {
            (RExpr::Slot(s), RExpr::IntLit(c)) if *s == slot => Some(-*c),
            _ => None,
        },
        _ => None,
    }
}

/// Splits `base[..., v + c]` into a loop-invariant base plus the affine
/// offset: the final index must be affine in the loop variable and every
/// earlier index (and the base itself) loop-invariant.
pub(crate) fn split_access(e: &RExpr, slot: u32) -> Option<SweepAccess> {
    let RExpr::Index(base, indices) = e else {
        return None;
    };
    if mentions_slot(base, slot) {
        return None;
    }
    let (last, earlier) = indices.split_last()?;
    let RIndex::One(last) = last else {
        return None;
    };
    let offset = affine_offset(last, slot)?;
    let invariant = |i: &RIndex| match i {
        RIndex::One(e) => !mentions_slot(e, slot),
        RIndex::Slice(a, b) => !mentions_slot(a, slot) && !mentions_slot(b, slot),
    };
    if !earlier.iter().all(invariant) {
        return None;
    }
    let base = if earlier.is_empty() {
        (**base).clone()
    } else {
        RExpr::Index(base.clone(), earlier.to_vec())
    };
    Some(SweepAccess { base, offset })
}

/// Whether every occurrence of the loop variable inside `e` is as a
/// unit-stride affine element index (so per-element evaluation of `e` over
/// the counter range is a pure map over the indexed containers).
fn affine_only(e: &RExpr, slot: u32) -> bool {
    match e {
        RExpr::IntLit(_) | RExpr::RealLit(_) | RExpr::StringLit(_) => true,
        RExpr::Slot(s) => *s != slot,
        RExpr::Call(_, _, args) => args.iter().all(|a| affine_only(a, slot)),
        RExpr::Binary(_, a, b) | RExpr::Range(a, b) => affine_only(a, slot) && affine_only(b, slot),
        RExpr::Unary(_, a) => affine_only(a, slot),
        RExpr::Index(base, indices) => {
            affine_only(base, slot)
                && indices.iter().all(|i| match i {
                    RIndex::One(ix) => affine_offset(ix, slot).is_some() || affine_only(ix, slot),
                    RIndex::Slice(a, b) => !mentions_slot(a, slot) && !mentions_slot(b, slot),
                })
        }
        RExpr::ArrayLit(items) | RExpr::VectorLit(items) => {
            items.iter().all(|i| affine_only(i, slot))
        }
        RExpr::Ternary(c, a, b) => {
            affine_only(c, slot) && affine_only(a, slot) && affine_only(b, slot)
        }
    }
}

pub(crate) fn classify_arg(e: &RExpr, slot: u32) -> Option<SweepArgSpec> {
    if !mentions_slot(e, slot) {
        return Some(SweepArgSpec::Invariant(e.clone()));
    }
    if let Some(access) = split_access(e, slot) {
        return Some(SweepArgSpec::Indexed(access));
    }
    if affine_only(e, slot) {
        return Some(SweepArgSpec::Elementwise(e.clone()));
    }
    None
}

/// Matches the lowerable loop pattern: a counted `for` whose body is a
/// single scalar `observe` of an affine element of a loop-invariant
/// container, from a sweep-kernel family, with arguments that are
/// loop-invariant, directly affine-indexed, or affine-only expressions.
fn match_sweep(kind: &RLoopKind, loop_body: &RGExpr) -> Option<RSweep> {
    let RLoopKind::Range { slot, lo, hi } = kind else {
        return None;
    };
    if mentions_slot(lo, *slot) || mentions_slot(hi, *slot) {
        return None;
    }
    let RGExpr::Observe { dist, value, body } = loop_body else {
        return None;
    };
    if !matches!(**body, RGExpr::Unit) {
        return None;
    }
    let dist_kind = dist.kind?;
    if !probdist::supports_sweep(dist_kind) || !dist.shape.is_empty() {
        return None;
    }
    // Every sweep kernel takes at most 3 arguments; declining longer
    // (malformed) argument lists here lets the runtime evaluate sweeps into
    // fixed-size buffers, and leaves their error reporting to the scalar
    // path.
    if dist.args.len() > 3 {
        return None;
    }
    let target = split_access(value, *slot)?;
    let args: Vec<SweepArgSpec> = dist
        .args
        .iter()
        .map(|a| classify_arg(a, *slot))
        .collect::<Option<_>>()?;
    Some(RSweep {
        loop_slot: *slot,
        lo: lo.clone(),
        hi: hi.clone(),
        target,
        kind: dist_kind,
        args,
    })
}

/// The sweep-lowering pass: rewrites every matching counted observation loop
/// (anywhere in the body, including inside outer loops and branches) into an
/// [`RGExpr::ObserveSweep`], keeping the original loop as the runtime
/// fallback. Non-matching loops are left untouched.
fn lower_sweeps(e: RGExpr) -> RGExpr {
    match e {
        RGExpr::Unit | RGExpr::Return(_) => e,
        RGExpr::LetDecl { decl, body } => RGExpr::LetDecl {
            decl,
            body: Box::new(lower_sweeps(*body)),
        },
        RGExpr::LetDet { slot, value, body } => RGExpr::LetDet {
            slot,
            value,
            body: Box::new(lower_sweeps(*body)),
        },
        RGExpr::LetIndexed {
            slot,
            indices,
            value,
            body,
        } => RGExpr::LetIndexed {
            slot,
            indices,
            value,
            body: Box::new(lower_sweeps(*body)),
        },
        RGExpr::LetSample { slot, dist, body } => RGExpr::LetSample {
            slot,
            dist,
            body: Box::new(lower_sweeps(*body)),
        },
        RGExpr::Observe { dist, value, body } => RGExpr::Observe {
            dist,
            value,
            body: Box::new(lower_sweeps(*body)),
        },
        RGExpr::Factor { value, body } => RGExpr::Factor {
            value,
            body: Box::new(lower_sweeps(*body)),
        },
        RGExpr::If {
            cond,
            then_branch,
            else_branch,
        } => RGExpr::If {
            cond,
            then_branch: Box::new(lower_sweeps(*then_branch)),
            else_branch: Box::new(lower_sweeps(*else_branch)),
        },
        RGExpr::LetLoop {
            kind,
            loop_body,
            body,
        } => {
            let loop_body = Box::new(lower_sweeps(*loop_body));
            let body = Box::new(lower_sweeps(*body));
            match match_sweep(&kind, &loop_body) {
                Some(sweep) => RGExpr::ObserveSweep {
                    sweep,
                    fallback: Box::new(RGExpr::LetLoop {
                        kind,
                        loop_body,
                        body: Box::new(RGExpr::Unit),
                    }),
                    body,
                },
                None => RGExpr::LetLoop {
                    kind,
                    loop_body,
                    body,
                },
            }
        }
        // Lowering runs on freshly resolved bodies; sweeps don't pre-exist.
        RGExpr::ObserveSweep { .. } => e,
    }
}

/// The name-to-slot resolution state, shared by the model-body resolution
/// pass above and the generated-quantities resolution pass
/// ([`crate::gq::resolve_gq`]).
pub(crate) struct Resolver<'a> {
    pub(crate) interner: Interner,
    pub(crate) functions: &'a [FunDecl],
}

impl<'a> Resolver<'a> {
    /// A fresh resolver over a program's user-function list.
    pub(crate) fn new(functions: &'a [FunDecl]) -> Self {
        Resolver {
            interner: Interner::new(),
            functions,
        }
    }

    /// Interns `name` and returns its frame slot. The runtime environment is
    /// a flat namespace (one location per name), so the symbol index *is*
    /// the slot index; `stan_frontend::symbols::ScopeStack` stays available
    /// for the planned lexical resolution of user-function bodies.
    pub(crate) fn slot_for(&mut self, name: &str) -> u32 {
        self.interner.intern(name).index() as u32
    }

    /// Interns every name bound by a statement block (transformed data),
    /// reusing the frontend's single statement walker.
    pub(crate) fn intern_stmts(&mut self, stmts: &[stan_frontend::ast::Stmt]) {
        stan_frontend::symbols::intern_stmt_names(&mut self.interner, stmts);
    }

    pub(crate) fn resolve_param(&mut self, p: &ParamInfo) -> RParamInfo {
        RParamInfo {
            slot: self.slot_for(&p.name),
            name: p.name.clone(),
            shape: p.shape.iter().map(|e| self.resolve_expr(e)).collect(),
            lower: p.lower.as_ref().map(|e| self.resolve_expr(e)),
            upper: p.upper.as_ref().map(|e| self.resolve_expr(e)),
        }
    }

    pub(crate) fn resolve_expr(&mut self, e: &Expr) -> RExpr {
        match e {
            Expr::IntLit(v) => RExpr::IntLit(*v),
            Expr::RealLit(v) => RExpr::RealLit(*v),
            Expr::StringLit(s) => RExpr::StringLit(s.clone()),
            Expr::Var(name) => RExpr::Slot(self.slot_for(name)),
            Expr::Call(name, args) => {
                // Last definition wins, matching the `HashMap` the
                // evaluators build from the function list.
                let target = match self.functions.iter().rposition(|f| &f.name == name) {
                    Some(idx) => CallTarget::User(idx as u32),
                    None => CallTarget::Builtin,
                };
                RExpr::Call(
                    name.clone(),
                    target,
                    args.iter().map(|a| self.resolve_expr(a)).collect(),
                )
            }
            Expr::Binary(op, a, b) => RExpr::Binary(
                *op,
                Box::new(self.resolve_expr(a)),
                Box::new(self.resolve_expr(b)),
            ),
            Expr::Unary(op, a) => RExpr::Unary(*op, Box::new(self.resolve_expr(a))),
            Expr::Index(base, indices) => RExpr::Index(
                Box::new(self.resolve_expr(base)),
                indices
                    .iter()
                    .map(|i| match i {
                        Expr::Range(lo, hi) => {
                            RIndex::Slice(self.resolve_expr(lo), self.resolve_expr(hi))
                        }
                        other => RIndex::One(self.resolve_expr(other)),
                    })
                    .collect(),
            ),
            Expr::ArrayLit(items) => {
                RExpr::ArrayLit(items.iter().map(|i| self.resolve_expr(i)).collect())
            }
            Expr::VectorLit(items) => {
                RExpr::VectorLit(items.iter().map(|i| self.resolve_expr(i)).collect())
            }
            Expr::Range(lo, hi) => RExpr::Range(
                Box::new(self.resolve_expr(lo)),
                Box::new(self.resolve_expr(hi)),
            ),
            Expr::Ternary(c, a, b) => RExpr::Ternary(
                Box::new(self.resolve_expr(c)),
                Box::new(self.resolve_expr(a)),
                Box::new(self.resolve_expr(b)),
            ),
        }
    }

    fn resolve_dist(&mut self, d: &DistCall) -> RDistCall {
        RDistCall {
            kind: DistKind::from_name(&d.name),
            name: d.name.clone(),
            args: d.args.iter().map(|a| self.resolve_expr(a)).collect(),
            shape: d.shape.iter().map(|s| self.resolve_expr(s)).collect(),
        }
    }

    pub(crate) fn resolve_decl(&mut self, d: &Decl) -> RDecl {
        let kind = match &d.ty {
            BaseType::Int => RDeclKind::Int,
            BaseType::Real => RDeclKind::Real,
            BaseType::Vector(n)
            | BaseType::RowVector(n)
            | BaseType::Simplex(n)
            | BaseType::Ordered(n)
            | BaseType::PositiveOrdered(n)
            | BaseType::UnitVector(n) => RDeclKind::Vector(self.resolve_expr(n)),
            BaseType::Matrix(r, c) => RDeclKind::Matrix(self.resolve_expr(r), self.resolve_expr(c)),
            BaseType::CovMatrix(n) | BaseType::CorrMatrix(n) | BaseType::CholeskyFactorCorr(n) => {
                RDeclKind::Square(self.resolve_expr(n))
            }
        };
        RDecl {
            slot: self.slot_for(&d.name),
            kind,
            dims: d.dims.iter().map(|e| self.resolve_expr(e)).collect(),
            init: d.init.as_ref().map(|e| self.resolve_expr(e)),
        }
    }

    fn resolve_gexpr(&mut self, e: &GExpr) -> RGExpr {
        match e {
            GExpr::Unit => RGExpr::Unit,
            GExpr::Return(expr) => RGExpr::Return(self.resolve_expr(expr)),
            GExpr::LetDecl { decl, body } => RGExpr::LetDecl {
                decl: self.resolve_decl(decl),
                body: Box::new(self.resolve_gexpr(body)),
            },
            GExpr::LetDet { name, value, body } => RGExpr::LetDet {
                value: self.resolve_expr(value),
                slot: self.slot_for(name),
                body: Box::new(self.resolve_gexpr(body)),
            },
            GExpr::LetIndexed {
                name,
                indices,
                value,
                body,
            } => RGExpr::LetIndexed {
                slot: self.slot_for(name),
                indices: indices.iter().map(|i| self.resolve_expr(i)).collect(),
                value: self.resolve_expr(value),
                body: Box::new(self.resolve_gexpr(body)),
            },
            GExpr::LetSample { name, dist, body } => RGExpr::LetSample {
                slot: self.slot_for(name),
                dist: self.resolve_dist(dist),
                body: Box::new(self.resolve_gexpr(body)),
            },
            GExpr::Observe { dist, value, body } => RGExpr::Observe {
                dist: self.resolve_dist(dist),
                value: self.resolve_expr(value),
                body: Box::new(self.resolve_gexpr(body)),
            },
            GExpr::Factor { value, body } => RGExpr::Factor {
                value: self.resolve_expr(value),
                body: Box::new(self.resolve_gexpr(body)),
            },
            GExpr::If {
                cond,
                then_branch,
                else_branch,
            } => RGExpr::If {
                cond: self.resolve_expr(cond),
                then_branch: Box::new(self.resolve_gexpr(then_branch)),
                else_branch: Box::new(self.resolve_gexpr(else_branch)),
            },
            GExpr::LetLoop {
                kind,
                state: _,
                loop_body,
                body,
            } => {
                let kind = match kind {
                    LoopKind::Range { var, lo, hi } => RLoopKind::Range {
                        lo: self.resolve_expr(lo),
                        hi: self.resolve_expr(hi),
                        slot: self.slot_for(var),
                    },
                    LoopKind::ForEach { var, collection } => RLoopKind::ForEach {
                        collection: self.resolve_expr(collection),
                        slot: self.slot_for(var),
                    },
                    LoopKind::While { cond } => RLoopKind::While {
                        cond: self.resolve_expr(cond),
                    },
                };
                RGExpr::LetLoop {
                    kind,
                    loop_body: Box::new(self.resolve_gexpr(loop_body)),
                    body: Box::new(self.resolve_gexpr(body)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stan_frontend::ast::Expr;

    fn coin_body() -> GExpr {
        GExpr::LetSample {
            name: "z".into(),
            dist: DistCall::new("beta", vec![Expr::RealLit(1.0), Expr::RealLit(1.0)]),
            body: Box::new(GExpr::Observe {
                dist: DistCall::new("bernoulli", vec![Expr::var("z")]),
                value: Expr::var("x"),
                body: Box::new(GExpr::Return(Expr::var("z"))),
            }),
        }
    }

    #[test]
    fn resolution_assigns_dense_slots() {
        let program = GProbProgram {
            body: coin_body(),
            params: vec![ParamInfo::scalar("z")],
            ..Default::default()
        };
        let resolved = resolve_program(&program);
        let z = resolved.slot_of("z").unwrap();
        let x = resolved.slot_of("x").unwrap();
        assert_ne!(z, x);
        assert!(resolved.n_slots >= 2);
        assert_eq!(resolved.params[0].slot, z);
        assert_eq!(resolved.name_of(z), "z");
        // The same name always resolves to the same slot (flat namespace).
        match &resolved.body {
            RGExpr::LetSample { slot, body, .. } => {
                assert_eq!(*slot, z);
                match &**body {
                    RGExpr::Observe { dist, value, .. } => {
                        assert_eq!(dist.args[0], RExpr::Slot(z));
                        assert_eq!(*value, RExpr::Slot(x));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip_through_envs() {
        let program = GProbProgram {
            body: coin_body(),
            ..Default::default()
        };
        let resolved = resolve_program(&program);
        let mut env: Env<f64> = Env::new();
        env.insert("x".into(), Value::Int(1));
        env.insert("unrelated".into(), Value::Real(9.0)); // no slot: dropped
        let frame = resolved.frame_from_env(&env);
        let back = frame.to_env(&resolved.interner);
        assert_eq!(back.get("x"), Some(&Value::Int(1)));
        assert!(!back.contains_key("unrelated"));
        let view = FrameView {
            frame: &frame,
            interner: &resolved.interner,
        };
        assert_eq!(view.get_var("x"), Some(&Value::Int(1)));
        assert_eq!(view.get_var("nope"), None);
    }

    /// `for (i in 1:N) x[i] ~ bernoulli(z)` as a compiled loop.
    fn observe_loop(target: Expr, args: Vec<Expr>, dist: &str) -> GExpr {
        GExpr::LetLoop {
            kind: crate::ir::LoopKind::Range {
                var: "i".into(),
                lo: Expr::IntLit(1),
                hi: Expr::var("N"),
            },
            state: vec![],
            loop_body: Box::new(GExpr::Observe {
                dist: DistCall::new(dist, args),
                value: target,
                body: Box::new(GExpr::Unit),
            }),
            body: Box::new(GExpr::Unit),
        }
    }

    fn idx(base: &str, index: Expr) -> Expr {
        Expr::Index(Box::new(Expr::var(base)), vec![index])
    }

    #[test]
    fn affine_observe_loops_lower_to_sweeps() {
        // Direct index, invariant argument.
        let program = GProbProgram {
            body: observe_loop(idx("x", Expr::var("i")), vec![Expr::var("z")], "bernoulli"),
            ..Default::default()
        };
        let resolved = resolve_program(&program);
        assert_eq!(count_sweeps(&resolved.body), 1);
        match &resolved.body {
            RGExpr::ObserveSweep {
                sweep, fallback, ..
            } => {
                assert_eq!(sweep.kind, DistKind::Bernoulli);
                assert_eq!(sweep.target.offset, 0);
                assert_eq!(sweep.loop_slot, resolved.slot_of("i").unwrap());
                assert!(matches!(sweep.args[0], SweepArgSpec::Invariant(_)));
                // The scalar loop is retained for runtime fallback.
                assert!(matches!(**fallback, RGExpr::LetLoop { .. }));
            }
            other => panic!("expected sweep, got {other:?}"),
        }
        // The scalar configuration keeps the loop.
        let scalar = resolve_program_scalar(&program);
        assert_eq!(count_sweeps(&scalar.body), 0);
        assert!(!scalar.fused);
        // Lagged (offset) reads inside a compound argument lower too.
        let lag = Expr::Binary(
            stan_frontend::ast::BinOp::Add,
            Box::new(Expr::var("alpha")),
            Box::new(idx(
                "y",
                Expr::Binary(
                    stan_frontend::ast::BinOp::Sub,
                    Box::new(Expr::var("i")),
                    Box::new(Expr::IntLit(1)),
                ),
            )),
        );
        let program = GProbProgram {
            body: observe_loop(
                idx("y", Expr::var("i")),
                vec![lag, Expr::var("s")],
                "normal",
            ),
            ..Default::default()
        };
        let resolved = resolve_program(&program);
        assert_eq!(count_sweeps(&resolved.body), 1);
        match &resolved.body {
            RGExpr::ObserveSweep { sweep, .. } => {
                assert!(matches!(sweep.args[0], SweepArgSpec::Elementwise(_)));
                assert!(matches!(sweep.args[1], SweepArgSpec::Invariant(_)));
            }
            other => panic!("expected sweep, got {other:?}"),
        }
    }

    #[test]
    fn non_matching_loops_decline_to_lower() {
        // Non-affine (indirect) target index: x[idx[i]].
        let indirect = GProbProgram {
            body: observe_loop(
                idx("x", idx("idx", Expr::var("i"))),
                vec![Expr::var("z")],
                "bernoulli",
            ),
            ..Default::default()
        };
        assert_eq!(count_sweeps(&resolve_program(&indirect).body), 0);
        // Loop variable used as a value (not an index) in an argument.
        let value_use = GProbProgram {
            body: observe_loop(idx("x", Expr::var("i")), vec![Expr::var("i")], "poisson"),
            ..Default::default()
        };
        assert_eq!(count_sweeps(&resolve_program(&value_use).body), 0);
        // Unsupported family (vector-parameter categorical).
        let unsupported = GProbProgram {
            body: observe_loop(
                idx("x", Expr::var("i")),
                vec![Expr::var("probs")],
                "categorical",
            ),
            ..Default::default()
        };
        assert_eq!(count_sweeps(&resolve_program(&unsupported).body), 0);
        // Families added to the kernel set later (beta, gamma, binomial,
        // uniform, double_exponential, inv_gamma, chi_square) lower like any
        // other supported family.
        let uniform = GProbProgram {
            body: observe_loop(
                idx("x", Expr::var("i")),
                vec![Expr::RealLit(0.0), Expr::RealLit(1.0)],
                "uniform",
            ),
            ..Default::default()
        };
        assert_eq!(count_sweeps(&resolve_program(&uniform).body), 1);
        let beta = GProbProgram {
            body: observe_loop(
                idx("x", Expr::var("i")),
                vec![Expr::RealLit(1.0), Expr::RealLit(1.0)],
                "beta",
            ),
            ..Default::default()
        };
        assert_eq!(count_sweeps(&resolve_program(&beta).body), 1);
        // Multi-statement body (assignment before the observe).
        let multi = GProbProgram {
            body: GExpr::LetLoop {
                kind: crate::ir::LoopKind::Range {
                    var: "i".into(),
                    lo: Expr::IntLit(1),
                    hi: Expr::var("N"),
                },
                state: vec!["m".into()],
                loop_body: Box::new(GExpr::LetDet {
                    name: "m".into(),
                    value: Expr::var("i"),
                    body: Box::new(GExpr::Observe {
                        dist: DistCall::new("normal", vec![Expr::var("m"), Expr::RealLit(1.0)]),
                        value: idx("x", Expr::var("i")),
                        body: Box::new(GExpr::Unit),
                    }),
                }),
                body: Box::new(GExpr::Unit),
            },
            ..Default::default()
        };
        assert_eq!(count_sweeps(&resolve_program(&multi).body), 0);
        // The loop variable's slot is still a written slot after lowering
        // (sweeps clear it on completion, like the loop they replace).
        let program = GProbProgram {
            body: observe_loop(idx("x", Expr::var("i")), vec![Expr::var("z")], "bernoulli"),
            ..Default::default()
        };
        let resolved = resolve_program(&program);
        let i = resolved.slot_of("i").unwrap();
        assert!(resolved.written_slots.contains(&i));
    }

    #[test]
    fn user_function_calls_are_dispatch_resolved() {
        use stan_frontend::ast::{BlockBody, FunArg, UnsizedType};
        let fun = FunDecl {
            return_type: UnsizedType {
                kind: "real".into(),
                array_dims: 0,
            },
            name: "f".into(),
            args: vec![FunArg {
                is_data: false,
                ty: UnsizedType {
                    kind: "real".into(),
                    array_dims: 0,
                },
                name: "v".into(),
            }],
            body: BlockBody::default(),
        };
        let program = GProbProgram {
            functions: vec![fun],
            body: GExpr::Return(Expr::Call("f".into(), vec![Expr::RealLit(1.0)])),
            ..Default::default()
        };
        let resolved = resolve_program(&program);
        match &resolved.body {
            RGExpr::Return(RExpr::Call(name, target, _)) => {
                assert_eq!(name, "f");
                assert_eq!(*target, CallTarget::User(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown names dispatch as builtins.
        let program2 = GProbProgram {
            body: GExpr::Return(Expr::Call("exp".into(), vec![Expr::RealLit(1.0)])),
            ..Default::default()
        };
        let resolved2 = resolve_program(&program2);
        match &resolved2.body {
            RGExpr::Return(RExpr::Call(_, target, _)) => {
                assert_eq!(*target, CallTarget::Builtin)
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
