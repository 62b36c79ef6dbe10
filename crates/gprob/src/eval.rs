//! Evaluation of deterministic Stan expressions and statements over runtime
//! [`Value`]s.
//!
//! Both runtimes are built on this module: the GProb interpreter uses
//! [`eval_expr`] for the deterministic parts of compiled programs, and the
//! baseline `stan_ref` interpreter drives [`exec_stmt`] with a
//! [`ProbHandler`] that accumulates `target` exactly as in Figure 3 of the
//! paper. The standard library implemented in [`call_builtin`] is the subset
//! of the Stan math library exercised by the bundled model corpus (the same
//! "substantial portion, but not the entire, standard library" caveat as the
//! paper's implementation).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use minidiff::{special, Real};
use probdist::dist::{dist_from_kind, dist_from_name, DistArg, DistKind};
use rand::rngs::StdRng;
use stan_frontend::ast::*;

use crate::value::{Env, EnvView, RuntimeError, Value};

/// Hook for evaluating calls the evaluator does not know about — used by the
/// DeepStan extension to plug neural-network forward passes into models.
pub trait ExternalFns<T: Real> {
    /// Returns `Some(result)` if this hook handles the function `name`. The
    /// current environment is provided (as a name-addressed view, so both the
    /// string-keyed and the slot-resolved runtime can supply it) so that
    /// hooks can read lifted network parameters (e.g. `mlp.l1.weight`) bound
    /// by the surrounding model.
    fn call(
        &self,
        name: &str,
        args: &[Value<T>],
        env: &dyn EnvView<T>,
    ) -> Option<Result<Value<T>, RuntimeError>>;
}

/// An [`ExternalFns`] implementation that handles nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoExternals;

impl<T: Real> ExternalFns<T> for NoExternals {
    fn call(
        &self,
        _name: &str,
        _args: &[Value<T>],
        _env: &dyn EnvView<T>,
    ) -> Option<Result<Value<T>, RuntimeError>> {
        None
    }
}

/// Handler invoked by [`exec_stmt`] for the two probabilistic statements.
pub trait ProbHandler<T: Real> {
    /// Called for `target += value`.
    fn on_target_plus(&mut self, value: T) -> Result<(), RuntimeError>;
    /// Called for `lhs ~ dist(args)`.
    fn on_tilde(
        &mut self,
        lhs: &Value<T>,
        dist: &str,
        args: &[Value<T>],
    ) -> Result<(), RuntimeError>;
}

/// Handler for purely deterministic execution (transformed data, generated
/// quantities, user-defined functions): probabilistic statements are errors.
#[derive(Debug, Default)]
pub struct DeterministicOnly;

impl<T: Real> ProbHandler<T> for DeterministicOnly {
    fn on_target_plus(&mut self, _value: T) -> Result<(), RuntimeError> {
        Err(RuntimeError::new(
            "target += is not allowed in a deterministic block",
        ))
    }
    fn on_tilde(
        &mut self,
        _lhs: &Value<T>,
        _dist: &str,
        _args: &[Value<T>],
    ) -> Result<(), RuntimeError> {
        Err(RuntimeError::new(
            "sampling statements are not allowed in a deterministic block",
        ))
    }
}

/// Handler that accumulates the model log-density — the `target` variable of
/// the Stan semantics (Figure 3).
pub struct TargetAccumulator<T: Real> {
    /// Current value of `target`.
    pub target: T,
}

impl<T: Real> Default for TargetAccumulator<T> {
    fn default() -> Self {
        TargetAccumulator {
            target: T::from_f64(0.0),
        }
    }
}

impl<T: Real> ProbHandler<T> for TargetAccumulator<T> {
    fn on_target_plus(&mut self, value: T) -> Result<(), RuntimeError> {
        self.target = self.target + value;
        Ok(())
    }
    fn on_tilde(
        &mut self,
        lhs: &Value<T>,
        dist: &str,
        args: &[Value<T>],
    ) -> Result<(), RuntimeError> {
        self.target = self.target + tilde_lpdf(lhs, dist, args)?;
        Ok(())
    }
}

/// Strips the log-density builtin suffix (`_lpdf`, `_lpmf`, `_lupdf`,
/// `_lupmf`, `_log`) from a function name, returning the distribution name.
/// The single matcher shared by the builtin library, the GQ row lowering and
/// the tape-free density compiler, so the recognized spellings cannot drift
/// between paths.
pub(crate) fn strip_lpdf_suffix(name: &str) -> Option<&str> {
    name.strip_suffix("_lpdf")
        .or_else(|| name.strip_suffix("_lpmf"))
        .or_else(|| name.strip_suffix("_lupdf"))
        .or_else(|| name.strip_suffix("_lupmf"))
        .or_else(|| name.strip_suffix("_log"))
}

/// Log density of `lhs ~ dist(args)`, vectorizing over `lhs` when it is a
/// container (Stan's vectorized sampling statements).
///
/// Arguments are accepted through [`std::borrow::Borrow`] so the
/// slot-resolved runtime can pass values borrowed straight from its frame.
/// Hot paths that resolved the distribution name at compile time should call
/// [`tilde_lpdf_kind`] directly.
pub fn tilde_lpdf<T: Real, V: std::borrow::Borrow<Value<T>>>(
    lhs: &Value<T>,
    dist: &str,
    args: &[V],
) -> Result<T, RuntimeError> {
    let kind = DistKind::from_name(dist).ok_or_else(|| {
        RuntimeError::from(probdist::DistError::new(format!(
            "unknown distribution '{dist}'"
        )))
    })?;
    tilde_lpdf_kind(lhs, kind, args)
}

/// [`tilde_lpdf`] with the distribution family already resolved to a
/// [`DistKind`] — the scoring path of the slot-resolved runtime, which never
/// re-matches a distribution name during density evaluation.
///
/// # Errors
/// Same as [`tilde_lpdf`], minus the unknown-name case.
pub fn tilde_lpdf_kind<T: Real, V: std::borrow::Borrow<Value<T>>>(
    lhs: &Value<T>,
    kind: DistKind,
    args: &[V],
) -> Result<T, RuntimeError> {
    // Distributions whose outcome is a vector, and distributions whose
    // parameter is legitimately a vector (so a vector argument must not be
    // broadcast element-wise).
    let multivariate = kind.is_multivariate();
    let vector_param = kind.has_vector_param();

    // Built lazily: the element-wise broadcast branch never needs it.
    let dist_args = || -> Result<Vec<DistArg<T>>, RuntimeError> {
        args.iter()
            .map(|a| match a.borrow() {
                Value::Vector(_) | Value::IntArray(_) | Value::Array(_) => {
                    Ok(DistArg::Vector(a.borrow().as_real_vec()?))
                }
                other => Ok(DistArg::Scalar(other.as_real()?)),
            })
            .collect()
    };

    // Broadcasting: if the outcome is a container and some scalar-distribution
    // argument is a container of the same length (length 1 included), apply
    // element-wise.
    let is_container =
        |v: &Value<T>| matches!(v, Value::Vector(_) | Value::IntArray(_) | Value::Array(_));
    if is_container(lhs) && !multivariate {
        let xs = lhs.as_real_vec()?;
        let n = xs.len();
        let per_elem = |a: &Value<T>| a.len() > 1 || (is_container(a) && a.len() == n);
        let any_vector_arg = !vector_param && args.iter().any(|a| per_elem(a.borrow()));
        if any_vector_arg {
            // Element-wise distribution parameters. Flatten each container
            // argument once up front (not once per element) and reuse one
            // argument buffer across the loop.
            enum Bcast<T> {
                Scalar(T),
                PerElem(Vec<T>),
            }
            let mut flat: Vec<Bcast<T>> = Vec::with_capacity(args.len());
            for a in args {
                let a = a.borrow();
                if per_elem(a) {
                    let v = a.as_real_vec()?;
                    if v.len() != n {
                        return Err(RuntimeError::new(format!(
                            "broadcast length mismatch in {}: {} vs {n}",
                            kind.name(),
                            v.len()
                        )));
                    }
                    flat.push(Bcast::PerElem(v));
                } else {
                    flat.push(Bcast::Scalar(a.as_real()?));
                }
            }
            let mut elem_args: Vec<DistArg<T>> = Vec::with_capacity(args.len());
            let mut acc = T::from_f64(0.0);
            for i in 0..n {
                elem_args.clear();
                for b in &flat {
                    elem_args.push(DistArg::Scalar(match b {
                        Bcast::Scalar(x) => *x,
                        Bcast::PerElem(v) => v[i],
                    }));
                }
                let di = dist_from_kind(kind, &elem_args)?;
                acc = acc + di.lpdf(xs[i])?;
            }
            Ok(acc)
        } else {
            let d = dist_from_kind(kind, &dist_args()?)?;
            Ok(d.lpdf_vec(&xs)?)
        }
    } else if multivariate {
        let d = dist_from_kind(kind, &dist_args()?)?;
        Ok(d.lpdf_vec(&lhs.as_real_vec()?)?)
    } else {
        let d = dist_from_kind(kind, &dist_args()?)?;
        Ok(d.lpdf(lhs.as_real()?)?)
    }
}

/// [`tilde_lpdf_kind`] with the batched fast path: when the observed value
/// is a flat container, the family has a sweep kernel
/// ([`probdist::supports_sweep`]), and every argument is a scalar or a flat
/// container of matching length, the whole statement is scored through
/// [`probdist::lpdf_sweep`] — slices borrowed straight from the values, one
/// fused tape node on the gradient path. Everything else (nested arrays,
/// length-1 vector arguments, broadcast mismatches, unsupported families)
/// falls back to the element-wise scalar path, which also owns every error
/// message, so the two paths cannot disagree even on failures.
///
/// This is the scoring routine of the slot-resolved runtime; the string
/// baseline keeps calling the element-wise [`tilde_lpdf`] so differential
/// suites pin the batched path against unbatched evaluation.
///
/// # Errors
/// Same as [`tilde_lpdf_kind`].
pub fn tilde_lpdf_kind_batched<T: Real, V: std::borrow::Borrow<Value<T>>>(
    lhs: &Value<T>,
    kind: DistKind,
    args: &[V],
) -> Result<T, RuntimeError> {
    use probdist::sweep::{lpdf_sweep, supports_sweep, SweepArg, SweepVals};
    if supports_sweep(kind) {
        let xs = match lhs {
            Value::Vector(v) => Some(SweepVals::Reals(v.as_slice())),
            Value::IntArray(v) => Some(SweepVals::Ints(v.as_slice())),
            _ => None,
        };
        if let Some(xs) = xs {
            let n = xs.len();
            let mut sargs: Vec<SweepArg<T>> = Vec::with_capacity(args.len());
            let mut batchable = true;
            for a in args {
                match a.borrow() {
                    Value::Real(x) => sargs.push(SweepArg::Scalar(*x)),
                    Value::Int(k) => sargs.push(SweepArg::Scalar(T::from_f64(*k as f64))),
                    // Length-1 sites and mismatched lengths go back to the
                    // element-wise path, which owns their scoring and errors.
                    Value::Vector(v) if v.len() == n && n > 1 => {
                        sargs.push(SweepArg::Reals(v.as_slice()))
                    }
                    Value::IntArray(v) if v.len() == n && n > 1 => {
                        sargs.push(SweepArg::Ints(v.as_slice()))
                    }
                    _ => {
                        batchable = false;
                        break;
                    }
                }
            }
            if batchable {
                if let Ok(total) = lpdf_sweep(kind, xs, &sargs) {
                    return Ok(total);
                }
            }
        }
    }
    tilde_lpdf_kind(lhs, kind, args)
}

/// A user-function dispatch table: name → index into a `[FunDecl]` list.
///
/// The table owns no references, so it can be built once (e.g. by
/// `gprob::resolved::resolve_program` or `GModel::new`) and shared by every
/// density evaluation — the evaluators historically rebuilt a
/// `HashMap<String, &FunDecl>` (cloning every function name) on each
/// evaluation.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FnTable {
    index: HashMap<String, u32>,
}

impl FnTable {
    /// Builds the table over a function list. As with the old per-evaluation
    /// map, the last definition of a name wins.
    pub fn new(functions: &[FunDecl]) -> Self {
        FnTable {
            index: functions
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.clone(), i as u32))
                .collect(),
        }
    }

    /// Index of the function bound to `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Looks up `name` in the function list this table was built over.
    pub fn get<'f>(&self, functions: &'f [FunDecl], name: &str) -> Option<&'f FunDecl> {
        self.index
            .get(name)
            .and_then(|&i| functions.get(i as usize))
    }
}

/// The function table of an [`EvalCtx`]: built on the fly for one-off
/// contexts, or borrowed from a long-lived owner (e.g. a bound model) so the
/// density hot path never rebuilds it.
pub enum FnTableRef<'a> {
    /// A table owned by this context.
    Owned(FnTable),
    /// A table hoisted into a longer-lived owner.
    Shared(&'a FnTable),
}

impl FnTableRef<'_> {
    /// The underlying table.
    pub fn table(&self) -> &FnTable {
        match self {
            FnTableRef::Owned(t) => t,
            FnTableRef::Shared(t) => t,
        }
    }
}

/// Shared evaluation context: user-defined functions, external functions
/// (neural networks), and an optional RNG for `_rng` builtins.
pub struct EvalCtx<'a, T: Real> {
    /// User-defined functions from the `functions` block.
    pub functions: &'a [FunDecl],
    /// Dispatch table over `functions` (owned or hoisted).
    pub fn_table: FnTableRef<'a>,
    /// External function hook (DeepStan networks).
    pub externals: &'a dyn ExternalFns<T>,
    /// RNG used by `_rng` builtins (generated quantities); absent during
    /// density evaluation.
    pub rng: Option<Rc<RefCell<StdRng>>>,
}

impl<'a, T: Real> EvalCtx<'a, T> {
    /// Creates a context with no user functions, no externals and no RNG.
    pub fn empty() -> Self {
        const NO_EXTERNALS: NoExternals = NoExternals;
        EvalCtx {
            functions: &[],
            fn_table: FnTableRef::Owned(FnTable::default()),
            externals: &NO_EXTERNALS,
            rng: None,
        }
    }

    /// Creates a context exposing the given user-defined functions, building
    /// a fresh dispatch table (use [`EvalCtx::with_table`] on hot paths).
    pub fn with_functions(funcs: &'a [FunDecl]) -> Self {
        EvalCtx {
            functions: funcs,
            fn_table: FnTableRef::Owned(FnTable::new(funcs)),
            externals: &NoExternals,
            rng: None,
        }
    }

    /// Creates a context over a pre-built (hoisted) dispatch table; no
    /// allocation happens per context.
    pub fn with_table(funcs: &'a [FunDecl], table: &'a FnTable) -> Self {
        EvalCtx {
            functions: funcs,
            fn_table: FnTableRef::Shared(table),
            externals: &NoExternals,
            rng: None,
        }
    }

    /// Replaces the external-function hook (builder style).
    pub fn externals(mut self, externals: &'a dyn ExternalFns<T>) -> Self {
        self.externals = externals;
        self
    }

    /// Attaches an RNG for `_rng` builtins (builder style).
    pub fn rng(mut self, rng: Rc<RefCell<StdRng>>) -> Self {
        self.rng = Some(rng);
        self
    }

    /// Looks up a user-defined function by name.
    pub fn lookup_fn(&self, name: &str) -> Option<&'a FunDecl> {
        self.fn_table.table().get(self.functions, name)
    }
}

/// Control-flow result of statement execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Flow<T: Real> {
    /// Continue with the next statement.
    Normal,
    /// `return e;` was executed.
    Return(Value<T>),
    /// `break;` was executed.
    Break,
    /// `continue;` was executed.
    Continue,
}

/// Evaluates an expression in the given environment.
///
/// # Errors
/// Returns a [`RuntimeError`] on unknown variables or functions, shape
/// mismatches, or out-of-bounds indexing.
pub fn eval_expr<T: Real>(
    e: &Expr,
    env: &Env<T>,
    ctx: &EvalCtx<T>,
) -> Result<Value<T>, RuntimeError> {
    match e {
        Expr::IntLit(v) => Ok(Value::Int(*v)),
        Expr::RealLit(v) => Ok(Value::Real(T::from_f64(*v))),
        Expr::StringLit(_) => Ok(Value::Unit),
        Expr::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| RuntimeError::new(format!("unbound variable `{name}`"))),
        Expr::Unary(op, a) => {
            let va = eval_expr(a, env, ctx)?;
            eval_unary(*op, va)
        }
        Expr::Binary(op, a, b) => {
            let va = eval_expr(a, env, ctx)?;
            let vb = eval_expr(b, env, ctx)?;
            eval_binary(*op, va, vb)
        }
        Expr::Index(base, indices) => {
            let mut v = eval_expr(base, env, ctx)?;
            for idx in indices {
                match idx {
                    Expr::Range(lo, hi) => {
                        let lo = eval_expr(lo, env, ctx)?.as_int()?;
                        let hi = eval_expr(hi, env, ctx)?.as_int()?;
                        v = slice_value(&v, lo, hi)?;
                    }
                    _ => {
                        let i = eval_expr(idx, env, ctx)?.as_int()?;
                        v = v.index(i)?;
                    }
                }
            }
            Ok(v)
        }
        Expr::ArrayLit(items) => {
            let vals: Vec<Value<T>> = items
                .iter()
                .map(|i| eval_expr(i, env, ctx))
                .collect::<Result<_, _>>()?;
            promote_array_lit(vals)
        }
        Expr::VectorLit(items) => {
            let vals: Vec<T> = items
                .iter()
                .map(|i| eval_expr(i, env, ctx)?.as_real())
                .collect::<Result<_, _>>()?;
            Ok(Value::Vector(vals))
        }
        Expr::Range(lo, hi) => {
            let lo = eval_expr(lo, env, ctx)?.as_int()?;
            let hi = eval_expr(hi, env, ctx)?.as_int()?;
            Ok(Value::IntArray((lo..=hi).collect()))
        }
        Expr::Ternary(c, a, b) => {
            let cond = eval_expr(c, env, ctx)?.as_real()?;
            if cond.value() != 0.0 {
                eval_expr(a, env, ctx)
            } else {
                eval_expr(b, env, ctx)
            }
        }
        Expr::Call(name, args) => {
            let vals: Vec<Value<T>> = args
                .iter()
                .map(|a| eval_expr(a, env, ctx))
                .collect::<Result<_, _>>()?;
            // 1. External hook (neural networks).
            if let Some(result) = ctx.externals.call(name, &vals, env) {
                return result;
            }
            // 2. User-defined functions.
            if let Some(fun) = ctx.lookup_fn(name.as_str()) {
                return call_user_function(fun, &vals, env, ctx);
            }
            // 3. Built-ins.
            call_builtin(name, &vals, ctx)
        }
    }
}

/// Calls a user-defined function with already-evaluated arguments. The outer
/// environment is provided as a view so both runtimes (string-keyed and
/// slot-resolved) can invoke interpreted functions.
pub(crate) fn call_user_function<T: Real>(
    fun: &FunDecl,
    args: &[Value<T>],
    outer_env: &dyn EnvView<T>,
    ctx: &EvalCtx<T>,
) -> Result<Value<T>, RuntimeError> {
    if args.len() != fun.args.len() {
        return Err(RuntimeError::new(format!(
            "function `{}` expects {} arguments, got {}",
            fun.name,
            fun.args.len(),
            args.len()
        )));
    }
    // User-defined functions see only their arguments (plus data is handled
    // by the caller passing it explicitly), matching Stan's scoping.
    let mut env: Env<T> = Env::new();
    for (decl, val) in fun.args.iter().zip(args) {
        env.insert(decl.name.clone(), val.clone());
    }
    // Allow data to remain visible for convenience in the corpus models.
    outer_env.for_each_var(&mut |k, v| {
        if !env.contains_key(k) {
            env.insert(k.to_string(), v.clone());
        }
    });
    let mut handler = DeterministicOnly;
    for stmt in &fun.body.stmts {
        match exec_stmt(stmt, &mut env, ctx, &mut handler)? {
            Flow::Return(v) => return Ok(v),
            Flow::Normal => {}
            other => {
                return Err(RuntimeError::new(format!(
                    "unexpected {other:?} at function top level"
                )))
            }
        }
    }
    Ok(Value::Unit)
}

/// Promotes an array literal's elements to a flat container when all of
/// them are scalars (the policy shared by both evaluators).
pub(crate) fn promote_array_lit<T: Real>(vals: Vec<Value<T>>) -> Result<Value<T>, RuntimeError> {
    if vals.iter().all(|v| matches!(v, Value::Int(_))) {
        Ok(Value::IntArray(
            vals.iter().map(|v| v.as_int()).collect::<Result<_, _>>()?,
        ))
    } else if vals
        .iter()
        .all(|v| matches!(v, Value::Real(_) | Value::Int(_)))
    {
        Ok(Value::Vector(
            vals.iter().map(|v| v.as_real()).collect::<Result<_, _>>()?,
        ))
    } else {
        Ok(Value::Array(vals))
    }
}

pub(crate) fn slice_value<T: Real>(
    v: &Value<T>,
    lo: i64,
    hi: i64,
) -> Result<Value<T>, RuntimeError> {
    if lo < 1 || hi as usize > v.len() || lo > hi + 1 {
        return Err(RuntimeError::new(format!(
            "slice {lo}:{hi} out of bounds for length {}",
            v.len()
        )));
    }
    let (a, b) = ((lo - 1) as usize, hi as usize);
    Ok(match v {
        Value::Vector(x) => Value::Vector(x[a..b].to_vec()),
        Value::IntArray(x) => Value::IntArray(x[a..b].to_vec()),
        Value::Array(x) => Value::Array(x[a..b].to_vec()),
        other => {
            return Err(RuntimeError::new(format!(
                "cannot slice a {}",
                other.kind()
            )))
        }
    })
}

pub(crate) fn eval_unary<T: Real>(op: UnOp, v: Value<T>) -> Result<Value<T>, RuntimeError> {
    match op {
        UnOp::Plus => Ok(v),
        UnOp::Neg => match v {
            Value::Int(k) => Ok(Value::Int(-k)),
            Value::Real(x) => Ok(Value::Real(-x)),
            Value::Vector(xs) => Ok(Value::Vector(xs.into_iter().map(|x| -x).collect())),
            Value::IntArray(xs) => Ok(Value::IntArray(xs.into_iter().map(|x| -x).collect())),
            Value::Array(xs) => Ok(Value::Array(
                xs.into_iter()
                    .map(|x| eval_unary(UnOp::Neg, x))
                    .collect::<Result<_, _>>()?,
            )),
            Value::Unit => Err(RuntimeError::new("cannot negate unit")),
        },
        UnOp::Not => {
            let x = v.as_real()?;
            Ok(Value::Int(if x.value() == 0.0 { 1 } else { 0 }))
        }
    }
}

/// Applies a binary operator to two runtime values with Stan's broadcasting
/// rules (scalar-container operations apply element-wise; `*` between two
/// vectors is the dot product; `.*` / `./` are element-wise).
pub fn eval_binary<T: Real>(op: BinOp, a: Value<T>, b: Value<T>) -> Result<Value<T>, RuntimeError> {
    use BinOp::*;
    // Comparisons and logical operators work on scalars and return ints.
    if matches!(op, Eq | Neq | Lt | Leq | Gt | Geq | And | Or) {
        let x = a.as_real()?.value();
        let y = b.as_real()?.value();
        let r = match op {
            Eq => x == y,
            Neq => x != y,
            Lt => x < y,
            Leq => x <= y,
            Gt => x > y,
            Geq => x >= y,
            And => x != 0.0 && y != 0.0,
            Or => x != 0.0 || y != 0.0,
            _ => unreachable!(),
        };
        return Ok(Value::Int(r as i64));
    }

    // Integer arithmetic stays integral (including Stan's integer division).
    if let (Value::Int(x), Value::Int(y)) = (&a, &b) {
        return Ok(match op {
            Add => Value::Int(x + y),
            Sub => Value::Int(x - y),
            Mul | EltMul => Value::Int(x * y),
            Div | EltDiv => {
                if *y == 0 {
                    return Err(RuntimeError::new("integer division by zero"));
                }
                Value::Int(x / y)
            }
            Mod => Value::Int(x % y),
            Pow => Value::Real(T::from_f64((*x as f64).powf(*y as f64))),
            _ => unreachable!(),
        });
    }

    let scalar_op = |x: T, y: T| -> Result<T, RuntimeError> {
        Ok(match op {
            Add => x + y,
            Sub => x - y,
            Mul | EltMul => x * y,
            Div | EltDiv => x / y,
            Pow => {
                // Constant exponents keep gradients exact; variable exponents
                // go through exp/ln.
                if y.value().fract() == 0.0 && y.value().abs() < 1e6 {
                    x.powi(y.value() as i32)
                } else {
                    (y * x.ln()).exp()
                }
            }
            Mod => T::from_f64(x.value() % y.value()),
            _ => unreachable!(),
        })
    };

    let is_scalar = |v: &Value<T>| matches!(v, Value::Int(_) | Value::Real(_));
    let is_flat = |v: &Value<T>| matches!(v, Value::Vector(_) | Value::IntArray(_));

    match (&a, &b) {
        (x, y) if is_scalar(x) && is_scalar(y) => {
            Ok(Value::Real(scalar_op(x.as_real()?, y.as_real()?)?))
        }
        (x, y) if is_scalar(x) && is_flat(y) => {
            let s = x.as_real()?;
            let v = y.as_real_vec()?;
            Ok(Value::Vector(
                v.into_iter()
                    .map(|e| scalar_op(s, e))
                    .collect::<Result<_, _>>()?,
            ))
        }
        (x, y) if is_flat(x) && is_scalar(y) => {
            let v = x.as_real_vec()?;
            let s = y.as_real()?;
            Ok(Value::Vector(
                v.into_iter()
                    .map(|e| scalar_op(e, s))
                    .collect::<Result<_, _>>()?,
            ))
        }
        (x, y) if is_flat(x) && is_flat(y) => {
            let va = x.as_real_vec()?;
            let vb = y.as_real_vec()?;
            if va.len() != vb.len() {
                return Err(RuntimeError::new(format!(
                    "vector length mismatch: {} vs {}",
                    va.len(),
                    vb.len()
                )));
            }
            if matches!(op, Mul) {
                // row_vector * vector — dot product.
                let mut acc = T::from_f64(0.0);
                for (x, y) in va.iter().zip(&vb) {
                    acc = acc + *x * *y;
                }
                return Ok(Value::Real(acc));
            }
            Ok(Value::Vector(
                va.into_iter()
                    .zip(vb)
                    .map(|(x, y)| scalar_op(x, y))
                    .collect::<Result<_, _>>()?,
            ))
        }
        (Value::Array(rows), y) if is_flat(y) && matches!(op, Mul) => {
            // matrix * vector
            let v = y.as_real_vec()?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let r = row.as_real_vec()?;
                if r.len() != v.len() {
                    return Err(RuntimeError::new("matrix-vector dimension mismatch"));
                }
                let mut acc = T::from_f64(0.0);
                for (x, y) in r.iter().zip(&v) {
                    acc = acc + *x * *y;
                }
                out.push(acc);
            }
            Ok(Value::Vector(out))
        }
        (Value::Array(xs), y) if is_scalar(y) => {
            let s = b.as_real()?;
            Ok(Value::Array(
                xs.iter()
                    .map(|x| eval_binary(op, x.clone(), Value::Real(s)))
                    .collect::<Result<_, _>>()?,
            ))
        }
        (x, Value::Array(ys)) if is_scalar(x) => {
            let s = a.as_real()?;
            Ok(Value::Array(
                ys.iter()
                    .map(|y| eval_binary(op, Value::Real(s), y.clone()))
                    .collect::<Result<_, _>>()?,
            ))
        }
        (Value::Array(xs), Value::Array(ys)) if xs.len() == ys.len() => Ok(Value::Array(
            xs.iter()
                .zip(ys)
                .map(|(x, y)| eval_binary(op, x.clone(), y.clone()))
                .collect::<Result<_, _>>()?,
        )),
        _ => Err(RuntimeError::new(format!(
            "unsupported operand shapes for `{}`: {} and {}",
            op.symbol(),
            a.kind(),
            b.kind()
        ))),
    }
}

/// Evaluates a call to the built-in standard library.
///
/// # Errors
/// Unknown functions and `_lcdf` / `_lccdf` suffixes report a runtime error
/// (the latter mirrors the missing-stdlib failures reported in the paper's
/// evaluation).
pub fn call_builtin<T: Real>(
    name: &str,
    args: &[Value<T>],
    ctx: &EvalCtx<T>,
) -> Result<Value<T>, RuntimeError> {
    let arg = |i: usize| -> Result<&Value<T>, RuntimeError> {
        args.get(i)
            .ok_or_else(|| RuntimeError::new(format!("{name}: missing argument {i}")))
    };
    let real = |i: usize| -> Result<T, RuntimeError> { arg(i)?.as_real() };
    let vec = |i: usize| -> Result<Vec<T>, RuntimeError> { arg(i)?.as_real_vec() };
    let scalar = |x: T| -> Result<Value<T>, RuntimeError> { Ok(Value::Real(x)) };

    // Element-wise application of a scalar function over scalars or containers.
    let map_unary = |f: &dyn Fn(T) -> T| -> Result<Value<T>, RuntimeError> {
        match arg(0)? {
            Value::Vector(_) | Value::IntArray(_) => {
                Ok(Value::Vector(vec(0)?.into_iter().map(f).collect()))
            }
            Value::Array(items) => Ok(Value::Array(
                items
                    .iter()
                    .map(|item| -> Result<Value<T>, RuntimeError> {
                        match item {
                            Value::Vector(v) => {
                                Ok(Value::Vector(v.iter().map(|x| f(*x)).collect()))
                            }
                            other => Ok(Value::Real(f(other.as_real()?))),
                        }
                    })
                    .collect::<Result<_, _>>()?,
            )),
            other => Ok(Value::Real(f(other.as_real()?))),
        }
    };

    match name {
        // ---- reductions ----
        "sum" => {
            let v = vec(0)?;
            let mut acc = T::from_f64(0.0);
            for x in v {
                acc = acc + x;
            }
            scalar(acc)
        }
        "prod" => {
            let v = vec(0)?;
            let mut acc = T::from_f64(1.0);
            for x in v {
                acc = acc * x;
            }
            scalar(acc)
        }
        "mean" => {
            let v = vec(0)?;
            let n = v.len() as f64;
            let mut acc = T::from_f64(0.0);
            for x in v {
                acc = acc + x;
            }
            scalar(acc / T::from_f64(n))
        }
        "variance" | "sd" => {
            let v = vec(0)?;
            let n = v.len() as f64;
            let mut mean = T::from_f64(0.0);
            for x in &v {
                mean = mean + *x;
            }
            mean = mean / T::from_f64(n);
            let mut acc = T::from_f64(0.0);
            for x in &v {
                let d = *x - mean;
                acc = acc + d * d;
            }
            let var = acc / T::from_f64(n - 1.0);
            scalar(if name == "sd" { var.sqrt() } else { var })
        }
        "min" | "max" => {
            if args.len() == 2
                && matches!(arg(0)?, Value::Int(_))
                && matches!(arg(1)?, Value::Int(_))
            {
                let (a, b) = (arg(0)?.as_int()?, arg(1)?.as_int()?);
                return Ok(Value::Int(if name == "min" { a.min(b) } else { a.max(b) }));
            }
            if args.len() == 2 {
                let (a, b) = (real(0)?, real(1)?);
                return scalar(if name == "min" {
                    a.min_real(b)
                } else {
                    a.max_real(b)
                });
            }
            let v = vec(0)?;
            let mut acc = v[0];
            for x in &v[1..] {
                acc = if name == "min" {
                    acc.min_real(*x)
                } else {
                    acc.max_real(*x)
                };
            }
            scalar(acc)
        }
        "dot_product" => {
            let (a, b) = (vec(0)?, vec(1)?);
            if a.len() != b.len() {
                return Err(RuntimeError::new("dot_product length mismatch"));
            }
            let mut acc = T::from_f64(0.0);
            for (x, y) in a.iter().zip(&b) {
                acc = acc + *x * *y;
            }
            scalar(acc)
        }
        "dot_self" => {
            let a = vec(0)?;
            let mut acc = T::from_f64(0.0);
            for x in &a {
                acc = acc + *x * *x;
            }
            scalar(acc)
        }
        "log_sum_exp" => {
            let v = if args.len() == 2 {
                vec![real(0)?, real(1)?]
            } else {
                vec(0)?
            };
            let m = v
                .iter()
                .map(|x| x.value())
                .fold(f64::NEG_INFINITY, f64::max);
            let mut acc = T::from_f64(0.0);
            for x in &v {
                acc = acc + (*x - T::from_f64(m)).exp();
            }
            scalar(T::from_f64(m) + acc.ln())
        }
        "log_mix" => {
            let theta = real(0)?;
            let (a, b) = (real(1)?, real(2)?);
            // log(theta * exp(a) + (1-theta) * exp(b)), stabilized.
            let m = a.value().max(b.value());
            let t1 = theta * (a - T::from_f64(m)).exp();
            let t2 = (T::from_f64(1.0) - theta) * (b - T::from_f64(m)).exp();
            scalar(T::from_f64(m) + (t1 + t2).ln())
        }
        // ---- scalar math, applied element-wise ----
        "log" => map_unary(&|x| x.ln()),
        "log1p" => map_unary(&|x| x.ln_1p()),
        "log1m" => map_unary(&|x| (T::from_f64(1.0) - x).ln()),
        "log1p_exp" => map_unary(&|x| x.softplus()),
        "exp" => map_unary(&|x| x.exp()),
        "expm1" => map_unary(&|x| x.exp() - T::from_f64(1.0)),
        "sqrt" => map_unary(&|x| x.sqrt()),
        "square" => map_unary(&|x| x * x),
        "inv" => map_unary(&|x| T::from_f64(1.0) / x),
        "inv_sqrt" => map_unary(&|x| T::from_f64(1.0) / x.sqrt()),
        "inv_logit" => map_unary(&|x| x.sigmoid()),
        "logit" => map_unary(&|x| (x / (T::from_f64(1.0) - x)).ln()),
        "fabs" | "abs" => map_unary(&|x| x.abs()),
        "floor" => map_unary(&|x| T::from_f64(x.value().floor())),
        "ceil" => map_unary(&|x| T::from_f64(x.value().ceil())),
        "round" => map_unary(&|x| T::from_f64(x.value().round())),
        "step" => map_unary(&|x| T::from_f64(if x.value() >= 0.0 { 1.0 } else { 0.0 })),
        "int_step" => Ok(Value::Int(if real(0)?.value() > 0.0 { 1 } else { 0 })),
        "sin" => map_unary(&|x| x.sin()),
        "cos" => map_unary(&|x| x.cos()),
        "tan" => map_unary(&|x| x.sin() / x.cos()),
        "tanh" => map_unary(&|x| x.tanh()),
        "atan" => map_unary(&|x| T::from_f64(x.value().atan())),
        "lgamma" => map_unary(&|x| x.lgamma()),
        "tgamma" => map_unary(&|x| x.lgamma().exp()),
        "digamma" => map_unary(&|x| T::from_f64(special::digamma(x.value()))),
        "erf" => map_unary(&|x| T::from_f64(special::erf(x.value()))),
        "Phi" | "Phi_approx" | "std_normal_cdf" => {
            map_unary(&|x| T::from_f64(special::std_normal_cdf(x.value())))
        }
        "pow" => scalar({
            let (x, p) = (real(0)?, real(1)?);
            if p.value().fract() == 0.0 && p.value().abs() < 1e6 {
                x.powi(p.value() as i32)
            } else {
                (p * x.ln()).exp()
            }
        }),
        "fmax" => scalar(real(0)?.max_real(real(1)?)),
        "fmin" => scalar(real(0)?.min_real(real(1)?)),
        "fma" => scalar(real(0)? * real(1)? + real(2)?),
        "hypot" => scalar((real(0)? * real(0)? + real(1)? * real(1)?).sqrt()),
        "atan2" => scalar(T::from_f64(real(0)?.value().atan2(real(1)?.value()))),
        "if_else" => {
            if real(0)?.value() != 0.0 {
                Ok(arg(1)?.clone())
            } else {
                Ok(arg(2)?.clone())
            }
        }
        // ---- shape / container functions ----
        "num_elements" | "size" | "rows" => Ok(Value::Int(arg(0)?.len() as i64)),
        "cols" => match arg(0)? {
            Value::Array(rows) if !rows.is_empty() => Ok(Value::Int(rows[0].len() as i64)),
            other => Ok(Value::Int(other.len() as i64)),
        },
        "rep_vector" | "rep_row_vector" => {
            let x = real(0)?;
            let n = arg(1)?.as_int()?;
            Ok(Value::Vector(vec![x; n.max(0) as usize]))
        }
        "rep_array" => {
            let x = arg(0)?.clone();
            let dims: Vec<i64> = args[1..]
                .iter()
                .map(|a| a.as_int())
                .collect::<Result<_, _>>()?;
            fn build<T: Real>(x: &Value<T>, dims: &[i64]) -> Value<T> {
                match dims {
                    [] => x.clone(),
                    [n, rest @ ..] => {
                        let inner = build(x, rest);
                        if rest.is_empty() {
                            match x {
                                Value::Int(k) => {
                                    return Value::IntArray(vec![*k; *n as usize]);
                                }
                                Value::Real(r) => {
                                    return Value::Vector(vec![*r; *n as usize]);
                                }
                                _ => {}
                            }
                        }
                        Value::Array(vec![inner; *n as usize])
                    }
                }
            }
            Ok(build(&x, &dims))
        }
        "rep_matrix" => {
            let x = real(0)?;
            let r = arg(1)?.as_int()?;
            let c = arg(2)?.as_int()?;
            Ok(Value::Array(
                (0..r).map(|_| Value::Vector(vec![x; c as usize])).collect(),
            ))
        }
        "to_vector" | "to_array_1d" | "to_row_vector" => Ok(Value::Vector(vec(0)?)),
        "diag_matrix" => {
            let d = vec(0)?;
            let n = d.len();
            Ok(Value::Array(
                (0..n)
                    .map(|i| {
                        let mut row = vec![T::from_f64(0.0); n];
                        row[i] = d[i];
                        Value::Vector(row)
                    })
                    .collect(),
            ))
        }
        "head" => {
            let v = vec(0)?;
            let n = arg(1)?.as_int()? as usize;
            Ok(Value::Vector(v[..n.min(v.len())].to_vec()))
        }
        "tail" => {
            let v = vec(0)?;
            let n = arg(1)?.as_int()? as usize;
            Ok(Value::Vector(v[v.len().saturating_sub(n)..].to_vec()))
        }
        "segment" => {
            let v = vec(0)?;
            let start = arg(1)?.as_int()? as usize;
            let n = arg(2)?.as_int()? as usize;
            Ok(Value::Vector(v[start - 1..start - 1 + n].to_vec()))
        }
        "append_row" | "append_col" | "append_array" => {
            let mut a = vec(0)?;
            a.extend(vec(1)?);
            Ok(Value::Vector(a))
        }
        "cumulative_sum" => {
            let v = vec(0)?;
            let mut acc = T::from_f64(0.0);
            Ok(Value::Vector(
                v.into_iter()
                    .map(|x| {
                        acc = acc + x;
                        acc
                    })
                    .collect(),
            ))
        }
        "softmax" => {
            let v = vec(0)?;
            let m = v
                .iter()
                .map(|x| x.value())
                .fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<T> = v.iter().map(|x| (*x - T::from_f64(m)).exp()).collect();
            let mut total = T::from_f64(0.0);
            for e in &exps {
                total = total + *e;
            }
            Ok(Value::Vector(exps.into_iter().map(|e| e / total).collect()))
        }
        "log_softmax" => {
            let v = vec(0)?;
            let m = v
                .iter()
                .map(|x| x.value())
                .fold(f64::NEG_INFINITY, f64::max);
            let mut total = T::from_f64(0.0);
            for x in &v {
                total = total + (*x - T::from_f64(m)).exp();
            }
            let lse = T::from_f64(m) + total.ln();
            Ok(Value::Vector(v.into_iter().map(|x| x - lse).collect()))
        }
        "sort_asc" | "sort_desc" => {
            let mut v = vec(0)?;
            v.sort_by(|a, b| a.value().partial_cmp(&b.value()).unwrap());
            if name == "sort_desc" {
                v.reverse();
            }
            Ok(Value::Vector(v))
        }
        "col" => {
            let j = arg(1)?.as_int()?;
            match arg(0)? {
                Value::Array(rows) => Ok(Value::Vector(
                    rows.iter()
                        .map(|r| r.index(j)?.as_real())
                        .collect::<Result<_, _>>()?,
                )),
                other => Err(RuntimeError::new(format!(
                    "col: expected matrix, got {}",
                    other.kind()
                ))),
            }
        }
        "row" => arg(0)?.index(arg(1)?.as_int()?),
        // ---- distribution log densities and RNGs ----
        _ => {
            if let Some(dist_name) = strip_lpdf_suffix(name) {
                let lhs = arg(0)?;
                return Ok(Value::Real(tilde_lpdf(lhs, dist_name, &args[1..])?));
            }
            if name.ends_with("_lcdf") || name.ends_with("_lccdf") || name.ends_with("_cdf") {
                return Err(RuntimeError::new(format!(
                    "cumulative distribution function `{name}` is not supported by the runtime"
                )));
            }
            if let Some(dist_name) = name.strip_suffix("_rng") {
                let rng = ctx.rng.clone().ok_or_else(|| {
                    RuntimeError::new(format!("{name}: no RNG available in this context"))
                })?;
                let dist_args: Vec<DistArg<T>> = args
                    .iter()
                    .map(|a| match a {
                        Value::Vector(_) | Value::IntArray(_) | Value::Array(_) => {
                            Ok(DistArg::Vector(a.as_real_vec()?))
                        }
                        other => Ok(DistArg::Scalar(other.as_real()?)),
                    })
                    .collect::<Result<_, RuntimeError>>()?;
                let d = dist_from_name(dist_name, &dist_args)?;
                let mut rng = rng.borrow_mut();
                return Ok(match d.sample(&mut *rng)? {
                    probdist::SampleValue::Real(x) => Value::Real(T::from_f64(x)),
                    probdist::SampleValue::Int(k) => Value::Int(k),
                    probdist::SampleValue::Vec(v) => {
                        Value::Vector(v.into_iter().map(T::from_f64).collect())
                    }
                });
            }
            Err(RuntimeError::new(format!("unknown function `{name}`")))
        }
    }
}

/// Builds the default (zero) value for a declaration, evaluating its sizes in
/// the current environment.
///
/// # Errors
/// Fails if a dimension expression cannot be evaluated.
pub fn default_value<T: Real>(
    decl: &Decl,
    env: &Env<T>,
    ctx: &EvalCtx<T>,
) -> Result<Value<T>, RuntimeError> {
    let base: Value<T> = match &decl.ty {
        BaseType::Int => Value::Int(0),
        BaseType::Real => Value::Real(T::from_f64(0.0)),
        BaseType::Vector(n)
        | BaseType::RowVector(n)
        | BaseType::Simplex(n)
        | BaseType::Ordered(n)
        | BaseType::PositiveOrdered(n)
        | BaseType::UnitVector(n) => {
            let n = eval_expr(n, env, ctx)?.as_int()?;
            Value::Vector(vec![T::from_f64(0.0); n.max(0) as usize])
        }
        BaseType::Matrix(r, c) => {
            let rows = eval_expr(r, env, ctx)?.as_int()?;
            let cols = eval_expr(c, env, ctx)?.as_int()?;
            Value::Array(
                (0..rows)
                    .map(|_| Value::Vector(vec![T::from_f64(0.0); cols.max(0) as usize]))
                    .collect(),
            )
        }
        BaseType::CovMatrix(n) | BaseType::CorrMatrix(n) | BaseType::CholeskyFactorCorr(n) => {
            let n = eval_expr(n, env, ctx)?.as_int()?;
            Value::Array(
                (0..n)
                    .map(|_| Value::Vector(vec![T::from_f64(0.0); n.max(0) as usize]))
                    .collect(),
            )
        }
    };
    let mut val = base;
    for dim in decl.dims.iter().rev() {
        let n = eval_expr(dim, env, ctx)?.as_int()?;
        match (&val, &decl.ty) {
            (Value::Int(_), _) => val = Value::IntArray(vec![0; n.max(0) as usize]),
            (Value::Real(_), _) => val = Value::Vector(vec![T::from_f64(0.0); n.max(0) as usize]),
            _ => val = Value::Array(vec![val.clone(); n.max(0) as usize]),
        }
    }
    Ok(val)
}

/// Executes a statement, updating the environment and invoking `handler` for
/// probabilistic statements.
///
/// # Errors
/// Propagates expression evaluation errors and handler errors; `reject(...)`
/// statements produce an error as in Stan.
pub fn exec_stmt<T: Real>(
    stmt: &Stmt,
    env: &mut Env<T>,
    ctx: &EvalCtx<T>,
    handler: &mut dyn ProbHandler<T>,
) -> Result<Flow<T>, RuntimeError> {
    match stmt {
        Stmt::Skip | Stmt::Print(_) => Ok(Flow::Normal),
        Stmt::LocalDecl(d) => {
            let value = match &d.init {
                Some(e) => eval_expr(e, env, ctx)?,
                None => default_value(d, env, ctx)?,
            };
            env.insert(d.name.clone(), value);
            Ok(Flow::Normal)
        }
        Stmt::Assign { lhs, op, rhs } => {
            let mut value = eval_expr(rhs, env, ctx)?;
            if *op != AssignOp::Assign {
                let current = read_lvalue(lhs, env, ctx)?;
                let bop = match op {
                    AssignOp::AddAssign => BinOp::Add,
                    AssignOp::SubAssign => BinOp::Sub,
                    AssignOp::MulAssign => BinOp::Mul,
                    AssignOp::DivAssign => BinOp::Div,
                    AssignOp::Assign => unreachable!(),
                };
                value = eval_binary(bop, current, value)?;
            }
            write_lvalue(lhs, value, env, ctx)?;
            Ok(Flow::Normal)
        }
        Stmt::TargetPlus(e) => {
            // `target +=` accepts vectors, summing their elements.
            let total = eval_expr(e, env, ctx)?.sum_as_real()?;
            handler.on_target_plus(total)?;
            Ok(Flow::Normal)
        }
        Stmt::Tilde {
            lhs,
            dist,
            args,
            truncation,
        } => {
            if truncation.is_some() {
                return Err(RuntimeError::new(format!(
                    "truncated distribution `{dist}` is not supported by the generative backends"
                )));
            }
            let lhs_v = eval_expr(lhs, env, ctx)?;
            let args_v: Vec<Value<T>> = args
                .iter()
                .map(|a| eval_expr(a, env, ctx))
                .collect::<Result<_, _>>()?;
            handler.on_tilde(&lhs_v, dist, &args_v)?;
            Ok(Flow::Normal)
        }
        Stmt::Block(stmts) => {
            for s in stmts {
                match exec_stmt(s, env, ctx, handler)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
            }
            Ok(Flow::Normal)
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let c = eval_expr(cond, env, ctx)?.as_real()?;
            if c.value() != 0.0 {
                exec_stmt(then_branch, env, ctx, handler)
            } else if let Some(e) = else_branch {
                exec_stmt(e, env, ctx, handler)
            } else {
                Ok(Flow::Normal)
            }
        }
        Stmt::ForRange { var, lo, hi, body } => {
            let lo = eval_expr(lo, env, ctx)?.as_int()?;
            let hi = eval_expr(hi, env, ctx)?.as_int()?;
            for i in lo..=hi {
                // Clone the key only on the first iteration.
                match env.get_mut(var) {
                    Some(slot) => *slot = Value::Int(i),
                    None => {
                        env.insert(var.clone(), Value::Int(i));
                    }
                }
                match exec_stmt(body, env, ctx, handler)? {
                    Flow::Break => break,
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                    Flow::Normal | Flow::Continue => {}
                }
            }
            env.remove(var);
            Ok(Flow::Normal)
        }
        Stmt::ForEach {
            var,
            collection,
            body,
        } => {
            let coll = eval_expr(collection, env, ctx)?;
            for i in 1..=coll.len() as i64 {
                let item = coll.index(i)?;
                match env.get_mut(var) {
                    Some(slot) => *slot = item,
                    None => {
                        env.insert(var.clone(), item);
                    }
                }
                match exec_stmt(body, env, ctx, handler)? {
                    Flow::Break => break,
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                    Flow::Normal | Flow::Continue => {}
                }
            }
            env.remove(var);
            Ok(Flow::Normal)
        }
        Stmt::While { cond, body } => {
            let mut iterations = 0usize;
            loop {
                let c = eval_expr(cond, env, ctx)?.as_real()?;
                if c.value() == 0.0 {
                    break;
                }
                iterations += 1;
                if iterations > 10_000_000 {
                    return Err(RuntimeError::new(
                        "while loop exceeded the iteration budget",
                    ));
                }
                match exec_stmt(body, env, ctx, handler)? {
                    Flow::Break => break,
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                    Flow::Normal | Flow::Continue => {}
                }
            }
            Ok(Flow::Normal)
        }
        Stmt::Reject(args) => {
            let parts: Vec<String> = args
                .iter()
                .map(|a| match a {
                    Expr::StringLit(s) => s.clone(),
                    other => format!("{other:?}"),
                })
                .collect();
            Err(RuntimeError::new(format!("reject: {}", parts.join(" "))))
        }
        Stmt::Return(e) => {
            let v = match e {
                Some(e) => eval_expr(e, env, ctx)?,
                None => Value::Unit,
            };
            Ok(Flow::Return(v))
        }
        Stmt::Break => Ok(Flow::Break),
        Stmt::Continue => Ok(Flow::Continue),
    }
}

/// Reads the value of an assignment target (variable plus indices).
///
/// # Errors
/// Fails on unbound variables or out-of-bounds indices.
pub fn read_lvalue<T: Real>(
    lv: &LValue,
    env: &Env<T>,
    ctx: &EvalCtx<T>,
) -> Result<Value<T>, RuntimeError> {
    let mut v = env
        .get(&lv.name)
        .cloned()
        .ok_or_else(|| RuntimeError::new(format!("unbound variable `{}`", lv.name)))?;
    for idx in &lv.indices {
        let i = eval_expr(idx, env, ctx)?.as_int()?;
        v = v.index(i)?;
    }
    Ok(v)
}

/// Writes a value into an assignment target (variable plus indices).
///
/// # Errors
/// Fails on unbound variables or out-of-bounds indices.
pub fn write_lvalue<T: Real>(
    lv: &LValue,
    value: Value<T>,
    env: &mut Env<T>,
    ctx: &EvalCtx<T>,
) -> Result<(), RuntimeError> {
    write_indexed(&lv.name, &lv.indices, value, env, ctx)
}

/// Writes a value into `name[indices]` without constructing an [`LValue`] —
/// the allocation-free form used by the interpreter's hot loops.
///
/// # Errors
/// Fails on unbound variables or out-of-bounds indices.
pub fn write_indexed<T: Real>(
    name: &str,
    indices: &[Expr],
    value: Value<T>,
    env: &mut Env<T>,
    ctx: &EvalCtx<T>,
) -> Result<(), RuntimeError> {
    if indices.is_empty() {
        match env.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                env.insert(name.to_string(), value);
            }
        }
        return Ok(());
    }
    let indices: Vec<i64> = indices
        .iter()
        .map(|e| eval_expr(e, env, ctx)?.as_int())
        .collect::<Result<_, _>>()?;
    let slot = env
        .get_mut(name)
        .ok_or_else(|| RuntimeError::new(format!("unbound variable `{name}`")))?;
    set_nested(slot, &indices, value)
}

pub(crate) fn set_nested<T: Real>(
    slot: &mut Value<T>,
    indices: &[i64],
    value: Value<T>,
) -> Result<(), RuntimeError> {
    match indices {
        [] => {
            *slot = value;
            Ok(())
        }
        [i] => slot.set_index(*i, value),
        [i, rest @ ..] => match slot {
            Value::Array(items) => {
                let idx = (*i - 1) as usize;
                if idx >= items.len() {
                    return Err(RuntimeError::new(format!(
                        "index {i} out of bounds for length {}",
                        items.len()
                    )));
                }
                set_nested(&mut items[idx], rest, value)
            }
            other => Err(RuntimeError::new(format!(
                "cannot index into {} with {} indices",
                other.kind(),
                indices.len()
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stan_frontend::parse_program;

    fn eval_str<T: Real>(expr: &str, env: &Env<T>) -> Value<T> {
        let src = format!("parameters {{ real q_unused_q; }} model {{ target += {expr}; }}");
        let p = parse_program(&src).unwrap();
        match &p.model.stmts[0] {
            Stmt::TargetPlus(e) => eval_expr(e, env, &EvalCtx::empty()).unwrap(),
            _ => unreachable!(),
        }
    }

    fn base_env() -> Env<f64> {
        let mut env = Env::new();
        env.insert("x".into(), Value::Real(2.0));
        env.insert("v".into(), Value::Vector(vec![1.0, 2.0, 3.0]));
        env.insert("k".into(), Value::IntArray(vec![4, 5, 6]));
        env.insert("N".into(), Value::Int(3));
        env
    }

    #[test]
    fn arithmetic_and_broadcasting() {
        let env = base_env();
        assert_eq!(eval_str("1 + 2 * 3", &env), Value::Int(7));
        assert_eq!(eval_str("x * 3 + 1", &env), Value::Real(7.0));
        assert_eq!(eval_str("7 / 2", &env), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2", &env), Value::Real(3.5));
        assert_eq!(eval_str("v + 1", &env), Value::Vector(vec![2.0, 3.0, 4.0]));
        assert_eq!(eval_str("2 * v", &env), Value::Vector(vec![2.0, 4.0, 6.0]));
        // vector * vector is a dot product; .* is element-wise
        assert_eq!(eval_str("v * v", &env), Value::Real(14.0));
        assert_eq!(eval_str("v .* v", &env), Value::Vector(vec![1.0, 4.0, 9.0]));
    }

    #[test]
    fn indexing_is_one_based() {
        let env = base_env();
        assert_eq!(eval_str("v[1]", &env), Value::Real(1.0));
        assert_eq!(eval_str("k[3]", &env), Value::Int(6));
        assert_eq!(eval_str("v[2:3]", &env), Value::Vector(vec![2.0, 3.0]));
    }

    #[test]
    fn builtins_cover_reductions_and_transforms() {
        let env = base_env();
        assert_eq!(eval_str("sum(v)", &env), Value::Real(6.0));
        assert_eq!(eval_str("mean(v)", &env), Value::Real(2.0));
        assert_eq!(eval_str("dot_product(v, v)", &env), Value::Real(14.0));
        assert_eq!(eval_str("num_elements(v)", &env), Value::Int(3));
        assert_eq!(
            eval_str("rep_vector(1.5, 3)", &env),
            Value::Vector(vec![1.5, 1.5, 1.5])
        );
        let soft = eval_str("softmax(v)", &env);
        let total: f64 = soft.as_real_vec().unwrap().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        match eval_str("inv_logit(0.0)", &env) {
            Value::Real(x) => assert!((x - 0.5) < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lpdf_builtins_match_probdist() {
        let env = base_env();
        let v = eval_str("normal_lpdf(0.0 | 0.0, 1.0)", &env)
            .as_real()
            .unwrap();
        assert!((v + 0.9189385332046727).abs() < 1e-12);
        let vect = eval_str("normal_lpdf(v | 0.0, 1.0)", &env)
            .as_real()
            .unwrap();
        let expect: f64 = [1.0f64, 2.0, 3.0]
            .iter()
            .map(|x| -0.5 * x * x - 0.9189385332046727)
            .sum();
        assert!((vect - expect).abs() < 1e-10);
    }

    #[test]
    fn lcdf_is_reported_unsupported() {
        let env = base_env();
        let src = "parameters { real q; } model { target += student_t_lccdf(1.0 | 3, 0, 1); }";
        let p = parse_program(src).unwrap();
        match &p.model.stmts[0] {
            Stmt::TargetPlus(e) => {
                let err = eval_expr::<f64>(e, &env, &EvalCtx::empty()).unwrap_err();
                assert!(err.message().contains("not supported"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn statement_execution_with_target() {
        let src = r#"
            data { int N; real y[N]; }
            parameters { real mu; }
            model {
              real acc;
              acc = 0;
              for (i in 1:N) acc = acc + y[i];
              target += acc;
              y ~ normal(mu, 1);
            }
        "#;
        let p = parse_program(src).unwrap();
        let mut env: Env<f64> = Env::new();
        env.insert("N".into(), Value::Int(2));
        env.insert("y".into(), Value::Vector(vec![1.0, 3.0]));
        env.insert("mu".into(), Value::Real(0.0));
        let ctx = EvalCtx::empty();
        let mut handler = TargetAccumulator::default();
        for s in &p.model.stmts {
            exec_stmt(s, &mut env, &ctx, &mut handler).unwrap();
        }
        let expected_obs: f64 = [1.0f64, 3.0]
            .iter()
            .map(|x| -0.5 * x * x - 0.9189385332046727)
            .sum();
        assert!((handler.target - (4.0 + expected_obs)).abs() < 1e-10);
    }

    #[test]
    fn user_functions_are_callable() {
        let src = r#"
            functions {
              real double_it(real x) { return 2 * x; }
              real sum_sq(real[] xs) {
                real acc = 0;
                for (x in xs) acc += x * x;
                return acc;
              }
            }
            data { real y[3]; }
            parameters { real mu; }
            model { target += double_it(mu) + sum_sq(y); }
        "#;
        let p = parse_program(src).unwrap();
        let ctx = EvalCtx::with_functions(&p.functions);
        let mut env: Env<f64> = Env::new();
        env.insert("y".into(), Value::Vector(vec![1.0, 2.0, 3.0]));
        env.insert("mu".into(), Value::Real(5.0));
        let mut handler = TargetAccumulator::default();
        for s in &p.model.stmts {
            exec_stmt(s, &mut env, &ctx, &mut handler).unwrap();
        }
        assert!((handler.target - (10.0 + 14.0)).abs() < 1e-12);
    }

    #[test]
    fn compound_assignment_and_nested_indexing() {
        let src = r#"
            parameters { real q; }
            model {
              real m[2, 3];
              m[1, 2] = 7;
              m[1, 2] += 3;
              target += m[1, 2];
            }
        "#;
        let p = parse_program(src).unwrap();
        let mut env: Env<f64> = Env::new();
        let ctx = EvalCtx::empty();
        let mut handler = TargetAccumulator::default();
        for s in &p.model.stmts {
            exec_stmt(s, &mut env, &ctx, &mut handler).unwrap();
        }
        assert_eq!(handler.target, 10.0);
    }

    #[test]
    fn gradients_flow_through_evaluation() {
        use minidiff::{grad, tape, Var};
        tape::reset();
        let mu = Var::new(1.5);
        let mut env: Env<Var> = Env::new();
        env.insert("mu".into(), Value::Real(mu));
        env.insert("y".into(), Value::Vector(vec![Var::constant(2.0)]));
        let v = eval_str("normal_lpdf(y | mu, 1.0)", &env)
            .as_real()
            .unwrap();
        let g = grad(v, &[mu]);
        assert!((g[0] - (2.0 - 1.5)).abs() < 1e-12);
    }

    #[test]
    fn truncation_is_rejected_like_the_paper() {
        let src = "parameters { real s; } model { s ~ normal(0, 1) T[0, ]; }";
        let p = parse_program(src).unwrap();
        let mut env: Env<f64> = Env::new();
        env.insert("s".into(), Value::Real(0.5));
        let ctx = EvalCtx::empty();
        let mut handler = TargetAccumulator::default();
        let err = exec_stmt(&p.model.stmts[0], &mut env, &ctx, &mut handler).unwrap_err();
        assert!(err.message().contains("truncated"));
    }
}
