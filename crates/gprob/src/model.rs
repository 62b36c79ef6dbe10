//! [`GModel`] — a compiled GProb program instantiated with data, exposing the
//! unconstrained log-density interface used by gradient-based inference.
//!
//! Like CmdStan and NumPyro, inference runs on an unconstrained space: every
//! constrained parameter is mapped through the transforms of
//! [`probdist::Constraint`] and the log-Jacobian is added to the density.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use minidiff::{grad_into, tape, Real, Var};
use probdist::Constraint;
use rand::rngs::StdRng;
use rand::Rng;

use crate::eval::{
    eval_expr, exec_stmt, DeterministicOnly, EvalCtx, ExternalFns, Flow, NoExternals,
};
use crate::interp::Interp;
use crate::ir::{GProbProgram, ParamInfo};
use crate::resolved::{
    resolve_program, resolve_program_scalar as gprob_resolve_scalar, Frame, ResolvedProgram,
};
use crate::reval::{RCtx, RInterp, RMode};
use crate::value::{lift_env, Env, RuntimeError, Value};
use crate::workspace::{DensityWorkspace, GradWorkspace};

/// The flat layout of one parameter in the unconstrained vector.
#[derive(Debug, Clone)]
pub struct ParamSlot {
    /// Parameter name.
    pub name: String,
    /// Evaluated shape (outermost dimension first; empty for scalars).
    pub dims: Vec<i64>,
    /// Total number of scalar components.
    pub size: usize,
    /// Offset of the first component in the flat vector.
    pub offset: usize,
    /// Domain constraint shared by every component.
    pub constraint: Constraint,
}

impl ParamSlot {
    /// Component names in Stan's `name[i,j]` convention (used for reporting
    /// posterior summaries).
    pub fn component_names(&self) -> Vec<String> {
        if self.size == 1 && self.dims.is_empty() {
            return vec![self.name.clone()];
        }
        let mut names = Vec::with_capacity(self.size);
        let mut idx = vec![1i64; self.dims.len()];
        for _ in 0..self.size {
            let suffix: Vec<String> = idx.iter().map(|i| i.to_string()).collect();
            names.push(format!("{}[{}]", self.name, suffix.join(",")));
            // Row-major increment.
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] <= self.dims[d] {
                    break;
                }
                idx[d] = 1;
            }
        }
        names
    }
}

/// The result of a generative run ([`GModel::run_prior`]).
#[derive(Debug, Clone)]
pub struct RunResult<T: Real> {
    /// Accumulated log-score (observations, factors, and sample densities).
    pub score: T,
    /// Values of all `sample` sites encountered, keyed by site name.
    pub trace: Env<T>,
    /// The value of the final `return` expression.
    pub value: Value<T>,
}

/// A GProb program instantiated with a concrete data set.
///
/// Construction resolves the program to its slot-annotated form
/// ([`ResolvedProgram`]); the density hot path runs entirely on
/// [`Frame`] environments (no string hashing). The string-keyed evaluation
/// path is retained as [`GModel::log_density_baseline`] for differential
/// testing and benchmarking.
pub struct GModel {
    program: GProbProgram,
    resolved: ResolvedProgram,
    /// The slot-resolved `generated quantities` program (own frame layout),
    /// when the program has the block.
    resolved_gq: Option<crate::gq::ResolvedGq>,
    data: Env<f64>,
    /// The post-`transformed data` environment as a frame, cloned (and
    /// lifted) once per density evaluation.
    data_frame: Frame<f64>,
    slots: Vec<ParamSlot>,
    /// Frame slot of each parameter, parallel to `slots`.
    param_frame_slots: Vec<u32>,
    dim: usize,
    /// Layout of the guide parameters (DeepStan `guide parameters`) in their
    /// own flat vector, evaluated against the same data as `slots`.
    guide_slots: Vec<ParamSlot>,
    /// The tape-free density program compiled at bind time
    /// ([`crate::dprog`]), when the body admits one. `f64` density and
    /// gradient evaluations route here; the interpreted `Var`/tape path is
    /// retained as the differential oracle and as the fallback for declined
    /// programs.
    dprog: Option<crate::dprog::DProg>,
    /// Why the density program declined, when it did.
    dprog_decline: Option<crate::dprog::Decline>,
    /// The density program JIT-compiled to native code
    /// ([`crate::dprog::jit`]), when the target supports it. Single-point
    /// `f64` density and gradient evaluations route here first; the
    /// interpreted DProg is retained byte-identically as the oracle and as
    /// the fallback, and batched lane evaluation stays interpreted (its
    /// per-point bitwise contract is pinned against the sequential path).
    jit: Option<crate::dprog::jit::JitProg>,
    /// Why JIT compilation declined, when it did.
    jit_decline: Option<crate::dprog::Decline>,
}

/// The process-wide count of [`GModel`] bind operations (each one pays the
/// full resolve + sweep-lowering + DProg-lowering cost) lives in the
/// [`obs`] registry as the counter `bind.count`. Serving layers use the
/// delta across a request to assert that cache hits perform **zero**
/// compile/resolve/lower work; see [`bind_count`].
fn bind_counter() -> &'static obs::Counter {
    static COUNTER: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| obs::counter("bind.count"))
}

/// Number of [`GModel`] binds performed by this process so far (the
/// `bind.count` registry counter). Monotone; compare deltas, not absolute
/// values (other threads may bind concurrently).
pub fn bind_count() -> u64 {
    bind_counter().get()
}

/// Folds a decline reason into a counter-name slug: lower-cased
/// alphanumerics, runs of anything else collapsed to one `_`, truncated —
/// so decline *rates by reason* are trackable without unbounded metric
/// cardinality from embedded identifiers.
fn decline_slug(reason: &str) -> String {
    let mut slug = String::new();
    for c in reason.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.ends_with('_') && !slug.is_empty() {
            slug.push('_');
        }
        if slug.len() >= 48 {
            break;
        }
    }
    while slug.ends_with('_') {
        slug.pop();
    }
    if slug.is_empty() {
        slug.push_str("unspecified");
    }
    slug
}

// Bound models are shared across request-serving threads behind an `Arc`
// (the compiled-model cache of `serve`): every artifact reachable from a
// `GModel` must stay `Send + Sync`. This assertion fails to compile if a
// future field reintroduces `Rc`/`RefCell` state.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GModel>();
    assert_send_sync::<crate::dprog::DProg>();
    assert_send_sync::<crate::dprog::jit::JitProg>();
    assert_send_sync::<crate::resolved::ResolvedProgram>();
};

impl GModel {
    /// Instantiates a compiled program with data: runs the `transformed data`
    /// block once and lays out the unconstrained parameter vector.
    ///
    /// Resolution lowers element-wise observation loops into batched sweep
    /// sites (`gprob::resolved::RSweep`) and scores vectorized statements
    /// through the fused kernels; use [`GModel::new_scalar`] for the
    /// element-by-element configuration.
    ///
    /// # Errors
    /// Fails if the transformed-data block fails or a parameter shape /
    /// constraint bound cannot be evaluated from the data.
    pub fn new(program: GProbProgram, data: Env<f64>) -> Result<Self, RuntimeError> {
        Self::with_resolution(program, data, true)
    }

    /// [`GModel::new`] without sweep lowering or batched scoring — every
    /// observation evaluates element by element. This is the comparison
    /// configuration for the sweep differential suite and the
    /// `sweep-vs-scalar` benchmark rows; inference should use
    /// [`GModel::new`].
    ///
    /// # Errors
    /// Same as [`GModel::new`].
    pub fn new_scalar(program: GProbProgram, data: Env<f64>) -> Result<Self, RuntimeError> {
        Self::with_resolution(program, data, false)
    }

    fn with_resolution(
        program: GProbProgram,
        mut data: Env<f64>,
        fused: bool,
    ) -> Result<Self, RuntimeError> {
        bind_counter().inc();
        let ctx: EvalCtx<f64> = EvalCtx::with_functions(&program.functions);
        // Pre-processing: transformed data runs once (Section 3.3).
        if let Some(td) = &program.transformed_data {
            let mut handler = DeterministicOnly;
            for stmt in &td.stmts {
                match exec_stmt(stmt, &mut data, &ctx, &mut handler)? {
                    Flow::Normal => {}
                    other => {
                        return Err(RuntimeError::new(format!(
                            "unexpected control flow {other:?} in transformed data"
                        )))
                    }
                }
            }
        }

        let (slots, dim) = layout(&program.params, &data, &ctx)?;
        let (guide_slots, _) = layout(&program.guide_params, &data, &ctx)?;

        // Compile-time name resolution: one dense slot per variable, so the
        // density hot path below never hashes a string.
        let (resolved, resolved_gq, data_frame, param_frame_slots) = {
            let _span = obs::Span::enter("bind.resolve");
            let resolved = if fused {
                resolve_program(&program)
            } else {
                gprob_resolve_scalar(&program)
            };
            let resolved_gq = if fused {
                crate::gq::resolve_gq(&program)
            } else {
                crate::gq::resolve_gq_scalar(&program)
            };
            let data_frame = resolved.frame_from_env(&data);
            let param_frame_slots: Vec<u32> = resolved.params.iter().map(|p| p.slot).collect();
            (resolved, resolved_gq, data_frame, param_frame_slots)
        };

        // Lower the density to its tape-free program; declined shapes keep
        // the interpreted path (byte-identical to the pre-DProg behavior).
        let (dprog, dprog_decline) = {
            let _span = obs::Span::enter("bind.dprog_lower");
            match crate::dprog::compile(&program, &resolved, &data_frame, &slots) {
                Ok(p) => (Some(p), None),
                Err(d) => (None, Some(d)),
            }
        };
        match &dprog_decline {
            None => obs::counter("dprog.compiled").inc(),
            Some(d) => {
                obs::counter("dprog.declined").inc();
                obs::counter(&format!("dprog.decline.{}", decline_slug(d.reason()))).inc();
            }
        }

        // JIT the density program to native code where the platform allows;
        // declines keep the interpreted program as-is.
        let (jit, jit_decline) = {
            let _span = obs::Span::enter("bind.jit_emit");
            match &dprog {
                Some(p) => match crate::dprog::jit::compile(p) {
                    Ok(j) => (Some(j), None),
                    Err(d) => (None, Some(d)),
                },
                None => (
                    None,
                    Some(crate::dprog::Decline::new(
                        "jit: no density program to compile",
                    )),
                ),
            }
        };
        match &jit_decline {
            None => obs::counter("jit.compiled").inc(),
            Some(d) => {
                obs::counter("jit.declined").inc();
                obs::counter(&format!("jit.decline.{}", decline_slug(d.reason()))).inc();
            }
        }

        Ok(GModel {
            program,
            resolved,
            resolved_gq,
            data,
            data_frame,
            slots,
            param_frame_slots,
            dim,
            guide_slots,
            dprog,
            dprog_decline,
            jit,
            jit_decline,
        })
    }

    /// Number of unconstrained dimensions.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying compiled program.
    pub fn program(&self) -> &GProbProgram {
        &self.program
    }

    /// The slot-resolved form of the program.
    pub fn resolved(&self) -> &ResolvedProgram {
        &self.resolved
    }

    /// The data environment (after transformed data).
    pub fn data(&self) -> &Env<f64> {
        &self.data
    }

    /// Parameter layout in the unconstrained vector.
    pub fn slots(&self) -> &[ParamSlot] {
        &self.slots
    }

    /// Layout of the guide parameters in their own flat vector (offsets start
    /// at 0), parallel to [`ResolvedProgram::guide_param_slots`].
    pub fn guide_slots(&self) -> &[ParamSlot] {
        &self.guide_slots
    }

    /// The post-`transformed data` environment as a frame of the resolved
    /// program — the starting frame of every run.
    pub fn data_frame(&self) -> &Frame<f64> {
        &self.data_frame
    }

    /// Frame slot of each parameter, parallel to [`GModel::slots`] — for
    /// reading parameter values straight out of a trace [`Frame`] without
    /// going through the string-keyed environment.
    pub fn param_frame_slots(&self) -> &[u32] {
        &self.param_frame_slots
    }

    /// Flat component names (`mu`, `theta[1]`, `theta[2]`, ...).
    pub fn component_names(&self) -> Vec<String> {
        self.slots
            .iter()
            .flat_map(|s| s.component_names())
            .collect()
    }

    /// Maps an unconstrained vector to a trace of constrained parameter
    /// values plus the total log-Jacobian of the transforms.
    ///
    /// # Errors
    /// Fails if `theta_u` has the wrong length.
    pub fn constrain<T: Real>(&self, theta_u: &[T]) -> Result<(Env<T>, T), RuntimeError> {
        if theta_u.len() != self.dim {
            return Err(RuntimeError::new(format!(
                "expected {} unconstrained values, got {}",
                self.dim,
                theta_u.len()
            )));
        }
        let mut trace = Env::new();
        let mut log_jac = T::from_f64(0.0);
        for slot in &self.slots {
            let mut comps = Vec::with_capacity(slot.size);
            for i in 0..slot.size {
                let u = theta_u[slot.offset + i];
                comps.push(slot.constraint.to_constrained(u));
                log_jac = log_jac + slot.constraint.log_jacobian(u);
            }
            let value = shape_param(&comps, &slot.dims);
            trace.insert(slot.name.clone(), value);
        }
        Ok((trace, log_jac))
    }

    /// Maps an unconstrained vector to a trace *frame* of constrained
    /// parameter values plus the total log-Jacobian — the slot-resolved
    /// analog of [`GModel::constrain`], used by the density hot path.
    ///
    /// # Errors
    /// Fails if `theta_u` has the wrong length.
    pub fn constrain_frame<T: Real>(&self, theta_u: &[T]) -> Result<(Frame<T>, T), RuntimeError> {
        let mut trace = self.resolved.frame();
        let log_jac = self.constrain_frame_into(theta_u, &mut trace)?;
        Ok((trace, log_jac))
    }

    /// [`GModel::constrain_frame`] writing into an existing trace frame
    /// (every parameter slot is overwritten), returning the log-Jacobian.
    ///
    /// # Errors
    /// Fails if `theta_u` has the wrong length.
    pub fn constrain_frame_into<T: Real>(
        &self,
        theta_u: &[T],
        trace: &mut Frame<T>,
    ) -> Result<T, RuntimeError> {
        if theta_u.len() != self.dim {
            return Err(RuntimeError::new(format!(
                "expected {} unconstrained values, got {}",
                self.dim,
                theta_u.len()
            )));
        }
        let mut log_jac = T::from_f64(0.0);
        for (slot, &frame_slot) in self.slots.iter().zip(&self.param_frame_slots) {
            let mut comps = Vec::with_capacity(slot.size);
            for i in 0..slot.size {
                let u = theta_u[slot.offset + i];
                comps.push(slot.constraint.to_constrained(u));
                log_jac = log_jac + slot.constraint.log_jacobian(u);
            }
            trace.set(frame_slot, shape_param(&comps, &slot.dims));
        }
        Ok(log_jac)
    }

    /// The compiled tape-free density program, when the body admitted one.
    pub fn dprog(&self) -> Option<&crate::dprog::DProg> {
        self.dprog.as_ref()
    }

    /// Why the density program declined to compile (`None` when it
    /// compiled). Declined models keep the `Var`/tape gradient path,
    /// byte-identical to the pre-DProg behavior.
    pub fn dprog_decline(&self) -> Option<&crate::dprog::Decline> {
        self.dprog_decline.as_ref()
    }

    /// The density program JIT-compiled to native code, when the platform
    /// and program admitted it.
    pub fn jit(&self) -> Option<&crate::dprog::jit::JitProg> {
        self.jit.as_ref()
    }

    /// Why native compilation declined (`None` when it succeeded). Declined
    /// models evaluate the interpreted density program byte-identically to a
    /// build without the JIT.
    pub fn jit_decline(&self) -> Option<&crate::dprog::Decline> {
        self.jit_decline.as_ref()
    }

    /// Builds a pooled scratch workspace for this model. One workspace
    /// serves one chain: create one per sampler thread and pass it to
    /// [`GModel::log_density_with`] on every evaluation.
    pub fn workspace<T: Real>(&self) -> DensityWorkspace<T> {
        DensityWorkspace::new(
            &self.data_frame,
            self.resolved.n_slots,
            self.dprog.as_ref().map(|p| p.workspace()),
        )
    }

    /// Builds a pooled workspace for gradient evaluations
    /// ([`GModel::log_density_and_grad_with`]).
    pub fn grad_workspace(&self) -> GradWorkspace {
        GradWorkspace {
            inner: self.workspace(),
            vars: Vec::with_capacity(self.dim),
        }
    }

    /// Log-density (up to a constant) of the unconstrained parameter vector,
    /// including the Jacobian correction, evaluated with any scalar type.
    ///
    /// Runs on the slot-resolved program: every variable access is a frame
    /// index, so NUTS gradient evaluations never hash a string. Allocates
    /// fresh scratch frames per call; chains should hold a workspace and use
    /// [`GModel::log_density_with`] instead.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn log_density<T: Real>(
        &self,
        theta_u: &[T],
        externals: &dyn ExternalFns<T>,
    ) -> Result<T, RuntimeError> {
        let (trace, log_jac) = self.constrain_frame(theta_u)?;
        let ctx = RCtx::new(&self.resolved, &self.program.functions, externals);
        let mut frame: Frame<T> = Frame::lift(&self.data_frame);
        let mut interp = RInterp::new(&ctx, RMode::Trace(&trace));
        let result = interp.run(&self.resolved.body, &mut frame)?;
        Ok(result.score + log_jac)
    }

    /// [`GModel::log_density`] running in a pooled [`DensityWorkspace`]: no
    /// frame is allocated and no data value is cloned per evaluation — the
    /// workspace only resets the slots the body can write
    /// ([`ResolvedProgram::written_slots`]) between calls.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn log_density_with<T: Real>(
        &self,
        ws: &mut DensityWorkspace<T>,
        theta_u: &[T],
        externals: &dyn ExternalFns<T>,
    ) -> Result<T, RuntimeError> {
        let log_jac = self.constrain_frame_into(theta_u, &mut ws.trace)?;
        ws.reset(&self.resolved.written_slots);
        let ctx = RCtx::new(&self.resolved, &self.program.functions, externals);
        let mut interp =
            RInterp::new(&ctx, RMode::Trace(&ws.trace)).with_scratch(&mut ws.sweep_scratch);
        let result = interp.run(&self.resolved.body, &mut ws.frame)?;
        Ok(result.score + log_jac)
    }

    /// Plain `f64` log-density (no gradient).
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn log_density_f64(&self, theta_u: &[f64]) -> Result<f64, RuntimeError> {
        self.log_density(theta_u, &NoExternals)
    }

    /// Plain `f64` log-density in a pooled workspace (the non-generic form
    /// of [`GModel::log_density_with`], monomorphized here once). Routes to
    /// the tape-free density program when the model compiled one; declined
    /// models evaluate through the frame interpreter exactly as before.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn log_density_f64_with(
        &self,
        ws: &mut DensityWorkspace<f64>,
        theta_u: &[f64],
    ) -> Result<f64, RuntimeError> {
        if let (Some(jit), Some(dpws)) = (&self.jit, &mut ws.dprog) {
            return jit.value(theta_u, dpws);
        }
        if let (Some(dp), Some(dpws)) = (&self.dprog, &mut ws.dprog) {
            return dp.value(theta_u, dpws);
        }
        self.log_density_with(ws, theta_u, &NoExternals)
    }

    /// [`GModel::log_density_f64_with`] pinned to the *interpreted* density
    /// program, bypassing the JIT. This is the differential oracle for
    /// `tests/jit_equivalence.rs` and the baseline for the
    /// interpreted-vs-native benchmark rows; inference should use the
    /// routed entry.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn log_density_f64_dprog_with(
        &self,
        ws: &mut DensityWorkspace<f64>,
        theta_u: &[f64],
    ) -> Result<f64, RuntimeError> {
        if let (Some(dp), Some(dpws)) = (&self.dprog, &mut ws.dprog) {
            return dp.value(theta_u, dpws);
        }
        self.log_density_with(ws, theta_u, &NoExternals)
    }

    /// The string-keyed (pre-resolution) density path, retained as the
    /// differential-testing and benchmarking baseline: evaluates the same
    /// compiled body through `HashMap<String, Value>` environments.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn log_density_baseline<T: Real>(
        &self,
        theta_u: &[T],
        externals: &dyn ExternalFns<T>,
    ) -> Result<T, RuntimeError> {
        let (trace, log_jac) = self.constrain(theta_u)?;
        let ctx = EvalCtx::with_functions(&self.program.functions).externals(externals);
        let mut env: Env<T> = lift_env(&self.data);
        let score = Interp::new(&ctx, &trace).run(&self.program.body, &mut env)?;
        Ok(score + log_jac)
    }

    /// Plain `f64` baseline log-density (string-keyed environments).
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn log_density_f64_baseline(&self, theta_u: &[f64]) -> Result<f64, RuntimeError> {
        self.log_density_baseline(theta_u, &NoExternals)
    }

    /// Log-density and its gradient with respect to the unconstrained vector,
    /// via the reverse-mode tape. Allocates per call; chains should hold a
    /// [`GradWorkspace`] and use [`GModel::log_density_and_grad_with`].
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn log_density_and_grad(&self, theta_u: &[f64]) -> Result<(f64, Vec<f64>), RuntimeError> {
        let mut ws = self.grad_workspace();
        let mut g = vec![0.0; theta_u.len()];
        let lp = self.log_density_and_grad_with(&mut ws, theta_u, &mut g)?;
        Ok((lp, g))
    }

    /// [`GModel::log_density_and_grad`] in a pooled [`GradWorkspace`]: the
    /// gradient is written into `grad_out` and every scratch buffer is
    /// reused across calls. This is the evaluation each NUTS leapfrog step
    /// performs.
    ///
    /// Models whose density compiled to a tape-free program
    /// ([`GModel::dprog`]) evaluate it here — one forward `f64` pass and one
    /// analytic reverse sweep, no tape recording at all. Declined models
    /// take [`GModel::log_density_and_grad_tape_with`], byte-identical to
    /// the pre-DProg behavior.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    ///
    /// # Panics
    /// Panics if `grad_out` is shorter than `theta_u`.
    pub fn log_density_and_grad_with(
        &self,
        ws: &mut GradWorkspace,
        theta_u: &[f64],
        grad_out: &mut [f64],
    ) -> Result<f64, RuntimeError> {
        if let (Some(jit), Some(dpws)) = (&self.jit, &mut ws.inner.dprog) {
            return jit.value_and_grad(theta_u, grad_out, dpws);
        }
        if let (Some(dp), Some(dpws)) = (&self.dprog, &mut ws.inner.dprog) {
            return dp.value_and_grad(theta_u, grad_out, dpws);
        }
        self.log_density_and_grad_tape_with(ws, theta_u, grad_out)
    }

    /// [`GModel::log_density_and_grad_with`] pinned to the *interpreted*
    /// density program, bypassing the JIT — the oracle for
    /// `tests/jit_equivalence.rs` and the interpreted benchmark baseline.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    ///
    /// # Panics
    /// Panics if `grad_out` is shorter than `theta_u`.
    pub fn log_density_and_grad_dprog_with(
        &self,
        ws: &mut GradWorkspace,
        theta_u: &[f64],
        grad_out: &mut [f64],
    ) -> Result<f64, RuntimeError> {
        if let (Some(dp), Some(dpws)) = (&self.dprog, &mut ws.inner.dprog) {
            return dp.value_and_grad(theta_u, grad_out, dpws);
        }
        self.log_density_and_grad_tape_with(ws, theta_u, grad_out)
    }

    /// Batched form of [`GModel::log_density_and_grad_with`]: scores
    /// `values.len()` independent unconstrained points packed row-major in
    /// `thetas` (point `i` at `thetas[i·dim .. (i+1)·dim]`), writing
    /// gradients row-major into `grads`.
    ///
    /// Models with a compiled density program evaluate the batch in lane
    /// groups through [`crate::dprog::DProg::value_and_grad_lanes`] — one
    /// forward and one reverse sweep per group of up to 8 points. An odd
    /// last point fits no lane group; it goes through the routed
    /// single-point [`GModel::log_density_and_grad_with`], so it runs the
    /// emitted native code when the model has it. That point is the whole
    /// batch once all lockstep chains but one have finished. Declined models
    /// loop the single-point tape path, so the batched entry is safe to call
    /// unconditionally; each point's result is bitwise what a single-point
    /// call would produce either way.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors (the first failing point aborts
    /// the batch, matching the sequential loop).
    ///
    /// # Panics
    /// Panics if `grads` is shorter than `thetas`.
    pub fn log_density_and_grad_batch_with(
        &self,
        ws: &mut GradWorkspace,
        thetas: &[f64],
        values: &mut [f64],
        grads: &mut [f64],
    ) -> Result<(), RuntimeError> {
        let d = self.dim;
        let n = values.len();
        if thetas.len() != n * d {
            return Err(RuntimeError::new(format!(
                "expected {} unconstrained values for {n} points, got {}",
                n * d,
                thetas.len()
            )));
        }
        if let (Some(dp), Some(dpws)) = (&self.dprog, &mut ws.inner.dprog) {
            let paired = n & !1;
            dp.value_and_grad_lanes(
                &thetas[..paired * d],
                &mut values[..paired],
                &mut grads[..paired * d],
                dpws,
            )?;
            if paired < n {
                values[paired] = self.log_density_and_grad_with(
                    ws,
                    &thetas[paired * d..],
                    &mut grads[paired * d..n * d],
                )?;
            }
            return Ok(());
        }
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.log_density_and_grad_tape_with(
                ws,
                &thetas[i * d..(i + 1) * d],
                &mut grads[i * d..(i + 1) * d],
            )?;
        }
        Ok(())
    }

    /// The `Var`/tape gradient path: re-records the Wengert list on every
    /// call. This is the differential oracle the tape-free programs are
    /// pinned against (`tests/dprog_equivalence.rs`) and the evaluation
    /// route for models whose density declined to compile.
    ///
    /// The workspace's lifted data values are tape *constants*, so they stay
    /// valid across the `tape::reset` this method issues.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    ///
    /// # Panics
    /// Panics if `grad_out` is shorter than `theta_u`.
    pub fn log_density_and_grad_tape_with(
        &self,
        ws: &mut GradWorkspace,
        theta_u: &[f64],
        grad_out: &mut [f64],
    ) -> Result<f64, RuntimeError> {
        tape::reset();
        ws.vars.clear();
        ws.vars.extend(theta_u.iter().map(|&x| Var::new(x)));
        // Split the borrow: the inner workspace and the input buffer are
        // disjoint fields.
        let GradWorkspace { inner, vars } = ws;
        let lp = self.log_density_with(inner, vars, &NoExternals)?;
        grad_into(lp, vars, grad_out);
        Ok(lp.value())
    }

    /// Draws a starting point: uniform in `[-2, 2]` on the unconstrained
    /// scale, as Stan does.
    pub fn initial_unconstrained(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..self.dim).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    /// Runs the program generatively (prior mode): used for the "one
    /// iteration" generality check and for prior predictive simulation.
    ///
    /// Executes on the slot-resolved runtime; the returned trace is
    /// converted to the string-keyed [`Env`] at this API boundary.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn run_prior(&self, rng: Rc<RefCell<StdRng>>) -> Result<RunResult<f64>, RuntimeError> {
        let ctx = RCtx::new(&self.resolved, &self.program.functions, &NoExternals);
        let mut frame = self.data_frame.clone();
        let mut interp = RInterp::new(&ctx, RMode::Prior(rng));
        let run = interp.run(&self.resolved.body, &mut frame)?;
        Ok(RunResult {
            score: run.score,
            trace: run.trace.to_env(&self.resolved.interner),
            value: run.value,
        })
    }

    /// Runs the program generatively and returns the sampled trace *frame*
    /// together with the observation log-likelihood (the total score minus
    /// the sample-site score) — exactly the log importance weight of the
    /// run when the prior is the proposal (likelihood weighting). Read
    /// parameter values out of the frame with
    /// [`GModel::param_frame_slots`]; convert to a string-keyed
    /// environment with `Frame::to_env` only at API boundaries.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn run_prior_weighted(
        &self,
        rng: Rc<RefCell<StdRng>>,
    ) -> Result<(Frame<f64>, f64), RuntimeError> {
        let ctx = RCtx::new(&self.resolved, &self.program.functions, &NoExternals);
        let mut frame = self.data_frame.clone();
        let mut interp = RInterp::new(&ctx, RMode::Prior(rng));
        let run = interp.run(&self.resolved.body, &mut frame)?;
        Ok((run.trace, run.score - run.site_score))
    }

    /// Runs the program generatively like [`GModel::run_prior_weighted`] but
    /// **without scoring observation sites at all**: the interpreter draws
    /// every `sample` site (consuming the RNG in exactly the same order as
    /// the weighted run, since scoring never touches the RNG) and skips the
    /// per-element likelihood arithmetic. Returns the sampled trace frame
    /// together with the prior log-density of the drawn values (the
    /// sample-site score).
    ///
    /// This is the proposal-generation half of *batched* importance
    /// sampling: the likelihood is recovered afterwards as
    /// `full_density(u) - prior - log_jacobian(u)` with the full density
    /// evaluated through the lane-batched density program
    /// (`inference::target::GradTargetBatch`) instead of one interpreter
    /// walk per particle. Likelihood evaluation errors consequently surface
    /// as `-inf` weights from the batch evaluation rather than as runtime
    /// errors from this call.
    ///
    /// # Errors
    /// Propagates runtime evaluation errors from the prior run itself
    /// (drawing and deterministic statements), not from observation scoring.
    pub fn run_prior_draw(
        &self,
        rng: Rc<RefCell<StdRng>>,
    ) -> Result<(Frame<f64>, f64), RuntimeError> {
        let ctx = RCtx::new(&self.resolved, &self.program.functions, &NoExternals);
        let mut frame = self.data_frame.clone();
        let mut interp = RInterp::new(&ctx, RMode::Prior(rng)).without_observe_scores();
        let run = interp.run(&self.resolved.body, &mut frame)?;
        Ok((run.trace, run.site_score))
    }

    /// Evaluates the `generated quantities` block for one posterior draw
    /// through the legacy string-keyed statement interpreter, returning the
    /// values of the variables the source block declares.
    ///
    /// This is the retained differential-testing and benchmarking baseline;
    /// streaming evaluation should use the slot-resolved path
    /// ([`GModel::generated_quantities_resolved`] or, per draw without
    /// allocation, [`GModel::generated_quantities_into`]).
    ///
    /// # Errors
    /// Propagates runtime evaluation errors.
    pub fn generated_quantities(
        &self,
        theta_u: &[f64],
        rng: Rc<RefCell<StdRng>>,
    ) -> Result<Env<f64>, RuntimeError> {
        let Some(gq) = &self.program.generated_quantities else {
            return Ok(Env::new());
        };
        let (trace, _) = self.constrain::<f64>(theta_u)?;
        let mut env = self.data.clone();
        for (k, v) in trace {
            env.insert(k, v);
        }
        let ctx = EvalCtx::with_table(&self.program.functions, &self.resolved.fn_table).rng(rng);
        let mut handler = DeterministicOnly;
        let declared = crate::gq::gq_output_names(&self.program);
        for stmt in &gq.stmts {
            exec_stmt(stmt, &mut env, &ctx, &mut handler)?;
        }
        Ok(env
            .into_iter()
            .filter(|(k, _)| declared.contains(k))
            .collect())
    }

    /// The slot-resolved `generated quantities` program, when the model has
    /// the block.
    pub fn resolved_gq(&self) -> Option<&crate::gq::ResolvedGq> {
        self.resolved_gq.as_ref()
    }

    /// Builds a pooled workspace for streaming posterior draws through the
    /// resolved `generated quantities` program. One workspace serves one
    /// chain worker; pass it to [`GModel::generated_quantities_into`] on
    /// every draw. Returns `None` when the program has no block.
    pub fn gq_workspace(&self) -> Option<crate::gq::GqWorkspace> {
        let gq = self.resolved_gq.as_ref()?;
        Some(crate::gq::GqWorkspace::new(
            gq.core.frame_from_env(&self.data),
        ))
    }

    /// Streams one posterior draw through the resolved `generated
    /// quantities` program, appending the flattened outputs (declaration
    /// order, row-major components) to `out`.
    ///
    /// `row` is one draw of the parameter vector: the *constrained*
    /// flat components when `row_is_constrained` (the layout of
    /// [`GModel::component_names`], as `Fit` chains store them), otherwise
    /// the unconstrained vector (mapped through the constraint transforms
    /// here). The `_rng` stream is seeded with `seed`, making every draw's
    /// evaluation independent of scheduling order.
    ///
    /// After the first call on a workspace, evaluation reuses every frame,
    /// parameter container and scratch buffer — nothing is allocated per
    /// draw.
    ///
    /// # Errors
    /// Fails when the program has no block, the row has the wrong length, or
    /// evaluation fails.
    pub fn generated_quantities_into(
        &self,
        ws: &mut crate::gq::GqWorkspace,
        row: &[f64],
        row_is_constrained: bool,
        seed: u64,
        out: &mut Vec<f64>,
    ) -> Result<(), RuntimeError> {
        let gq = self
            .resolved_gq
            .as_ref()
            .ok_or_else(|| RuntimeError::new("the program has no generated quantities block"))?;
        if row.len() != self.dim {
            return Err(RuntimeError::new(format!(
                "expected {} parameter components, got {}",
                self.dim,
                row.len()
            )));
        }
        ws.reset(&gq.core.written_slots, seed);
        for (slot, rp) in self.slots.iter().zip(&gq.core.params) {
            let comps = &row[slot.offset..slot.offset + slot.size];
            if row_is_constrained {
                crate::gq::write_param_into(&mut ws.frame, rp.slot, comps, &slot.dims);
            } else {
                ws.param_buf.clear();
                ws.param_buf
                    .extend(comps.iter().map(|&u| slot.constraint.to_constrained(u)));
                // Split borrow: the staging buffer and the frame are
                // disjoint workspace fields.
                let crate::gq::GqWorkspace {
                    frame, param_buf, ..
                } = ws;
                crate::gq::write_param_into(frame, rp.slot, param_buf, &slot.dims);
            }
        }
        let rng = ws.rng.clone();
        let crate::gq::GqWorkspace { frame, scratch, .. } = ws;
        crate::gq::run_gq_stmts(gq, &self.program.functions, frame, rng, scratch)?;
        for output in &gq.outputs {
            let v = ws.frame.get(output.slot).ok_or_else(|| {
                RuntimeError::new(format!(
                    "generated quantity `{}` was never assigned",
                    output.name
                ))
            })?;
            crate::gq::flatten_into(v, out)?;
        }
        Ok(())
    }

    /// Flat output column names of the resolved `generated quantities`
    /// program (`y_rep[1]`, ..., in declaration order), read from the shapes
    /// bound in a workspace after a [`GModel::generated_quantities_into`]
    /// run.
    ///
    /// # Errors
    /// Fails if an output was never assigned (no run has happened).
    pub fn gq_component_names(
        &self,
        ws: &crate::gq::GqWorkspace,
    ) -> Result<Vec<String>, RuntimeError> {
        let gq = self
            .resolved_gq
            .as_ref()
            .ok_or_else(|| RuntimeError::new("the program has no generated quantities block"))?;
        let mut names = Vec::new();
        for output in &gq.outputs {
            let v = ws.frame.get(output.slot).ok_or_else(|| {
                RuntimeError::new(format!(
                    "generated quantity `{}` was never assigned",
                    output.name
                ))
            })?;
            names.extend(crate::gq::flat_names(&output.name, v));
        }
        Ok(names)
    }

    /// One-shot resolved evaluation of the block for an unconstrained draw,
    /// returned as a string-keyed environment — the API-boundary mirror of
    /// [`GModel::generated_quantities`], used by the differential suite.
    ///
    /// # Errors
    /// Propagates evaluation errors; programs without the block return an
    /// empty environment.
    pub fn generated_quantities_resolved(
        &self,
        theta_u: &[f64],
        seed: u64,
    ) -> Result<Env<f64>, RuntimeError> {
        let Some(gq) = self.resolved_gq.as_ref() else {
            return Ok(Env::new());
        };
        let mut ws = self
            .gq_workspace()
            .expect("block present implies workspace");
        let mut sink = Vec::new();
        self.generated_quantities_into(&mut ws, theta_u, false, seed, &mut sink)?;
        Ok(crate::gq::outputs_to_env(gq, &ws))
    }
}

/// Lays out a parameter table in a flat vector: shapes and bounds are
/// evaluated against the (post-`transformed data`) data environment.
fn layout(
    params: &[ParamInfo],
    data: &Env<f64>,
    ctx: &EvalCtx<f64>,
) -> Result<(Vec<ParamSlot>, usize), RuntimeError> {
    let mut slots = Vec::new();
    let mut offset = 0usize;
    for p in params {
        let mut dims = Vec::new();
        let mut size = 1usize;
        for s in &p.shape {
            let n = eval_expr(s, data, ctx)?.as_int()?;
            dims.push(n);
            size *= n.max(0) as usize;
        }
        let lower = match &p.lower {
            Some(e) => Some(eval_expr(e, data, ctx)?.as_real()?),
            None => None,
        };
        let upper = match &p.upper {
            Some(e) => Some(eval_expr(e, data, ctx)?.as_real()?),
            None => None,
        };
        slots.push(ParamSlot {
            name: p.name.clone(),
            dims,
            size,
            offset,
            constraint: Constraint::from_bounds(lower, upper),
        });
        offset += size;
    }
    Ok((slots, offset))
}

fn shape_param<T: Real>(comps: &[T], dims: &[i64]) -> Value<T> {
    match dims.len() {
        0 => Value::Real(comps[0]),
        1 => Value::Vector(comps.to_vec()),
        _ => {
            let chunk = comps.len() / dims[0].max(1) as usize;
            Value::Array(
                comps
                    .chunks(chunk.max(1))
                    .map(|c| shape_param(c, &dims[1..]))
                    .collect(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DistCall, GExpr, ParamInfo};
    use rand::SeedableRng;
    use stan_frontend::ast::Expr;

    /// Hand-built comprehensive compilation of the coin model.
    fn coin_program() -> GProbProgram {
        GProbProgram {
            name: "coin".into(),
            params: vec![ParamInfo {
                name: "z".into(),
                shape: vec![],
                lower: Some(Expr::RealLit(0.0)),
                upper: Some(Expr::RealLit(1.0)),
            }],
            body: GExpr::LetSample {
                name: "z".into(),
                dist: DistCall::new("uniform", vec![Expr::RealLit(0.0), Expr::RealLit(1.0)]),
                body: Box::new(GExpr::Observe {
                    dist: DistCall::new("beta", vec![Expr::RealLit(1.0), Expr::RealLit(1.0)]),
                    value: Expr::var("z"),
                    body: Box::new(GExpr::LetLoop {
                        kind: crate::ir::LoopKind::Range {
                            var: "i".into(),
                            lo: Expr::IntLit(1),
                            hi: Expr::var("N"),
                        },
                        state: vec![],
                        loop_body: Box::new(GExpr::Observe {
                            dist: DistCall::new("bernoulli", vec![Expr::var("z")]),
                            value: Expr::Index(Box::new(Expr::var("x")), vec![Expr::var("i")]),
                            body: Box::new(GExpr::Unit),
                        }),
                        body: Box::new(GExpr::Return(Expr::var("z"))),
                    }),
                }),
            },
            ..Default::default()
        }
    }

    fn coin_data() -> Env<f64> {
        let mut env = Env::new();
        env.insert("N".into(), Value::Int(10));
        env.insert(
            "x".into(),
            Value::IntArray(vec![1, 1, 1, 0, 1, 0, 1, 1, 0, 1]),
        );
        env
    }

    #[test]
    fn layout_and_dimension() {
        let m = GModel::new(coin_program(), coin_data()).unwrap();
        assert_eq!(m.dim(), 1);
        assert_eq!(m.component_names(), vec!["z"]);
        assert_eq!(m.slots()[0].constraint, Constraint::Bounded(0.0, 1.0));
    }

    #[test]
    fn log_density_matches_manual_computation() {
        let m = GModel::new(coin_program(), coin_data()).unwrap();
        // Unconstrained u, z = sigmoid(u) on [0,1].
        let u = 0.4_f64;
        let z = 1.0 / (1.0 + (-u).exp());
        let lp = m.log_density_f64(&[u]).unwrap();
        // 7 heads, 3 tails; uniform & beta(1,1) contribute -ln(1) = 0 each.
        let manual = 7.0 * z.ln() + 3.0 * (1.0 - z).ln() + (z * (1.0 - z)).ln();
        assert!((lp - manual).abs() < 1e-10, "{lp} vs {manual}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = GModel::new(coin_program(), coin_data()).unwrap();
        let u = [0.3];
        let (lp, g) = m.log_density_and_grad(&u).unwrap();
        let h = 1e-6;
        let fd = (m.log_density_f64(&[u[0] + h]).unwrap()
            - m.log_density_f64(&[u[0] - h]).unwrap())
            / (2.0 * h);
        assert!(lp.is_finite());
        assert!((g[0] - fd).abs() < 1e-5, "{} vs {fd}", g[0]);
    }

    #[test]
    fn prior_runs_produce_finite_scores() {
        let m = GModel::new(coin_program(), coin_data()).unwrap();
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(9)));
        let r = m.run_prior(rng).unwrap();
        assert!(r.score.is_finite());
        assert!(r.trace.contains_key("z"));
    }

    #[test]
    fn vector_parameters_are_laid_out_flat() {
        let mut p = coin_program();
        p.params.push(ParamInfo {
            name: "beta".into(),
            shape: vec![Expr::IntLit(3)],
            lower: None,
            upper: None,
        });
        // Give beta a harmless prior site so the trace lookup succeeds.
        p.body = GExpr::LetSample {
            name: "beta".into(),
            dist: DistCall::with_shape("improper_uniform", vec![], vec![Expr::IntLit(3)]),
            body: Box::new(p.body),
        };
        let m = GModel::new(p, coin_data()).unwrap();
        assert_eq!(m.dim(), 4);
        let names = m.component_names();
        assert!(names.contains(&"beta[2]".to_string()));
        let lp = m.log_density_f64(&[0.1, 0.5, -0.3, 0.8]).unwrap();
        assert!(lp.is_finite());
    }

    #[test]
    fn wrong_dimension_is_an_error() {
        let m = GModel::new(coin_program(), coin_data()).unwrap();
        assert!(m.log_density_f64(&[0.1, 0.2]).is_err());
    }
}
