//! `gprob` — the generative probabilistic intermediate language and runtime.
//!
//! This crate implements GProb, the small generative probabilistic language
//! of Section 3.2 of the paper, together with the runtime that the paper
//! delegates to Pyro / NumPyro:
//!
//! * [`ir`] — the GProb expression IR emitted by the `stan2gprob` compiler:
//!   `let`, `sample`, `observe`, `factor`, `return`, conditionals, and
//!   state-annotated loops. Variables are still *names* at this level.
//! * [`resolved`] — the slot-resolved form of that IR: a resolution pass
//!   interns every name once and rewrites each variable reference to a dense
//!   frame slot, and [`resolved::Frame`] replaces `HashMap<String, Value>`
//!   as the runtime environment.
//! * [`value`] / [`eval`] — the runtime value model and the *string-keyed*
//!   evaluator for deterministic Stan expressions and statements (shared
//!   with the baseline `stan_ref` interpreter, and still the engine for
//!   interpreted user-defined functions).
//! * [`reval`] — the slot-resolved evaluator and probabilistic interpreter
//!   in all three modes (trace, prior, reparameterized): the runtime of the
//!   density hot path, of generative runs, and of DeepStan SVI, whose guide
//!   is resolved over the model's frame layout
//!   ([`resolved::ResolvedProgram::guide`]).
//! * [`interp`] — the string-keyed interpreter in trace mode only, kept as
//!   the reference the resolved density is checked against
//!   ([`model::GModel::log_density_baseline`]).
//! * [`model`] — [`model::GModel`], a compiled program instantiated with
//!   data, exposing the unconstrained log-density interface consumed by the
//!   `inference` crate (NUTS, SVI, importance sampling).
//! * [`workspace`] — pooled per-chain scratch state
//!   ([`workspace::DensityWorkspace`] / [`workspace::GradWorkspace`]):
//!   `GModel::log_density_with` reuses the lifted data frame, the trace
//!   frame and the tape-leaf buffer across evaluations, resetting only the
//!   slots the body can write. One workspace per chain is what makes
//!   multi-chain samplers shardable over threads.
//! * [`dprog`] — tape-free density programs: at bind time the resolved body
//!   is lowered to a flat register-addressed op list evaluated with one
//!   forward `f64` pass and one analytic reverse sweep (no Wengert-list
//!   re-recording per gradient). Bodies with parameter-dependent control
//!   flow, user-function calls or unsupported builtins *decline* with a
//!   stated reason and keep the `Var`/tape path, which also remains the
//!   differential oracle (`tests/dprog_equivalence.rs`).
//!
//! # Architecture: compile-time resolution
//!
//! Inference evaluates `log_density` thousands of times per chain, and the
//! tree-walking evaluator historically resolved every variable read through
//! a `HashMap<String, Value<T>>` — string hashing dominated the NUTS hot
//! path. The pipeline now resolves names exactly once, at compile time:
//!
//! ```text
//!  Stan source
//!      │  stan_frontend (lex, parse, typecheck; symbols::Interner)
//!      ▼
//!  ast::Program
//!      │  stan2gprob (generative / comprehensive / mixed schemes)
//!      ▼
//!  ir::GProbProgram            names: String            ── codegen → Pyro/NumPyro
//!      │  resolved::resolve_program  (Interner + ScopeStack)
//!      ▼
//!  resolved::ResolvedProgram   names: dense u32 slots
//!      │  model::GModel::new  (bind data → Frame template)
//!      ▼
//!  reval::RInterp over resolved::Frame<T>   ── log_density / gradients
//! ```
//!
//! Key invariants:
//!
//! * **Flat namespace fidelity.** The paper's dynamic environment is a flat
//!   map (an insert overwrites any same-named binding; loop indices are
//!   removed after their loop), so resolution allocates one slot per
//!   distinct name and clears loop-index slots on exit. The differential
//!   suite (`tests/slot_equivalence.rs`) pins the resolved density to the
//!   string-keyed baseline to 1e-12 across the whole `model_zoo` corpus.
//! * **One value model.** Both runtimes share [`value::Value`], the binary
//!   operators, the builtin library, and distribution scoring/sampling —
//!   they cannot drift apart semantically.
//! * **Name-addressed boundaries.** Public trace APIs (`GModel::constrain`,
//!   `model::RunResult::trace`, posterior extraction) remain string-keyed;
//!   frames cross to names only at those boundaries. External functions
//!   (DeepStan networks) and interpreted user functions reach the
//!   environment through [`value::EnvView`], implemented by both `Env` and
//!   `Frame` views.
//! * **Baseline retained.** [`model::GModel::log_density_baseline`] runs the
//!   pre-resolution path for differential tests and benchmarks
//!   (`benches/density_eval.rs` reports both).
//! * **No per-evaluation setup.** Resolution also hoists everything the
//!   evaluator used to rebuild per density call: the user-function dispatch
//!   table lives in [`resolved::ResolvedProgram::fn_table`] (no `String`
//!   keys cloned per evaluation), every `sample`/`observe` site carries its
//!   [`probdist::DistKind`] (no distribution-name matching per score), and
//!   [`resolved::ResolvedProgram::written_slots`] lets a pooled
//!   [`workspace::DensityWorkspace`] skip re-cloning data between
//!   evaluations.
//! * **Vectorized observe sweeps.** Resolution lowers counted element-wise
//!   observation loops (`for (i in 1:N) y[i] ~ normal(mu + b * x[i], s)`)
//!   into batched [`resolved::RSweep`] sites: density evaluation borrows
//!   the observed window as one contiguous slice and scores it through
//!   [`probdist::lpdf_sweep`], whose analytic reverse rule records a single
//!   fused multi-parent tape node per sweep instead of several nodes per
//!   element. Whole-container `~` statements take the same kernels through
//!   [`eval::tilde_lpdf_kind_batched`]. Non-matching loops (indirect
//!   indices, multi-statement bodies, recurrences) keep the scalar path,
//!   and every lowered sweep retains its original loop as a runtime
//!   fallback, so errors and out-of-pattern shapes behave identically;
//!   [`resolved::resolve_program_scalar`] / [`model::GModel::new_scalar`]
//!   expose the unlowered configuration for differential testing.
//!
//! # Example
//!
//! Build the compiled coin model of Figure 2(b) by hand and score a trace:
//!
//! ```
//! use gprob::ir::{DistCall, GExpr};
//! use gprob::value::Value;
//! use stan_frontend::ast::Expr;
//!
//! // let z = sample(beta(1,1)) in observe(bernoulli(z), 1) ; return z
//! let body = GExpr::LetSample {
//!     name: "z".into(),
//!     dist: DistCall::new("beta", vec![Expr::RealLit(1.0), Expr::RealLit(1.0)]),
//!     body: Box::new(GExpr::Observe {
//!         dist: DistCall::new("bernoulli", vec![Expr::var("z")]),
//!         value: Expr::IntLit(1),
//!         body: Box::new(GExpr::Return(Expr::var("z"))),
//!     }),
//! };
//! let mut trace = std::collections::HashMap::new();
//! trace.insert("z".to_string(), Value::Real(0.25f64));
//! let score = gprob::interp::score_trace(&body, &Default::default(), &trace).unwrap();
//! // beta(1,1) contributes 0, bernoulli(0.25) at 1 contributes ln(0.25)
//! assert!((score - 0.25f64.ln()).abs() < 1e-12);
//! ```
//!
//! The same program through the slot-resolved runtime:
//!
//! ```
//! use gprob::ir::{DistCall, GExpr, GProbProgram};
//! use gprob::resolved::resolve_program;
//! use gprob::reval::{RCtx, RInterp, RMode};
//! use gprob::value::Value;
//! use stan_frontend::ast::Expr;
//!
//! let program = GProbProgram {
//!     body: GExpr::LetSample {
//!         name: "z".into(),
//!         dist: DistCall::new("beta", vec![Expr::RealLit(1.0), Expr::RealLit(1.0)]),
//!         body: Box::new(GExpr::Observe {
//!             dist: DistCall::new("bernoulli", vec![Expr::var("z")]),
//!             value: Expr::IntLit(1),
//!             body: Box::new(GExpr::Return(Expr::var("z"))),
//!         }),
//!     },
//!     ..Default::default()
//! };
//! let resolved = resolve_program(&program);
//! let mut trace = resolved.frame::<f64>();
//! trace.set(resolved.slot_of("z").unwrap(), Value::Real(0.25));
//! let ctx = RCtx::new(&resolved, &[], &gprob::eval::NoExternals);
//! let mut frame = resolved.frame();
//! let mut interp = RInterp::new(&ctx, RMode::Trace(&trace));
//! let run = interp.run(&resolved.body, &mut frame).unwrap();
//! assert!((run.score - 0.25f64.ln()).abs() < 1e-12);
//! ```

pub mod dprog;
pub mod eval;
pub mod gq;
pub mod interp;
pub mod ir;
pub mod model;
pub mod resolved;
pub mod reval;
pub mod value;
pub mod workspace;

pub use dprog::{DProg, DProgWorkspace, Decline};
pub use gq::{count_gq_sweeps, resolve_gq, resolve_gq_scalar, GqWorkspace, ResolvedGq};
pub use ir::{DistCall, GExpr, GProbProgram, ParamInfo};
pub use model::GModel;
pub use resolved::{count_sweeps, resolve_program, resolve_program_scalar, Frame, ResolvedProgram};
pub use value::{Env, EnvView, RuntimeError, Value};
pub use workspace::{DensityWorkspace, GradWorkspace};
