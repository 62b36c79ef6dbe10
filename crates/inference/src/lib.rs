//! `inference` — posterior inference algorithms and diagnostics.
//!
//! This crate supplies the inference machinery that the paper gets from the
//! Stan, Pyro and NumPyro runtimes:
//!
//! * [`nuts`] — the No-U-Turn Sampler (multinomial variant with dual-averaging
//!   step-size adaptation and diagonal mass-matrix estimation), Stan's and
//!   Pyro's preferred inference method and the one used for every accuracy /
//!   speed comparison in the paper's evaluation.
//! * [`advi`] — automatic differentiation variational inference with a
//!   mean-field Gaussian family (the `Stan ADVI` baseline of Figure 10).
//! * [`svi`] — stochastic variational inference utilities (the Adam optimizer
//!   and optimization loop) used with explicit DeepStan guides.
//! * [`importance`] — likelihood-weighting importance sampling.
//! * [`diagnostics`] — posterior summaries, split-R̂, effective sample size,
//!   and the paper's accuracy criterion
//!   `|mean(θ) − mean(θ_ref)| < 0.3 · stddev(θ_ref)`.
//! * [`predictive`] — the chain-sharded streaming driver behind
//!   `Fit`-level generated-quantities / posterior-predictive evaluation,
//!   with deterministic per-(chain, draw) RNG streams.
//! * [`loo`] — model criticism over pointwise log-likelihood matrices:
//!   PSIS-LOO with Pareto-`k̂` diagnostics, WAIC, and `loo_compare`.
//! * [`cancel`] — the cooperative [`CancelToken`] every outer loop polls
//!   per draw / per step, so callers can bound wall-clock time (serve-tier
//!   deadlines) without perturbing the bitwise draw prefix.
//!
//! All samplers are generic over the target. The hot loops drive the
//! buffer-reusing [`target::GradTargetMut`] interface (`logp_grad_into`
//! writes the gradient into a caller-owned slice, so workspace-backed models
//! evaluate without per-step allocation); plain closures returning
//! `(log p, ∇ log p)` still work everywhere through [`target::GradTarget`]
//! and its adapter. One target instance is one chain — multi-chain runs
//! (e.g. `deepstan`'s `Session`) give each thread its own target. Cross-chain
//! convergence is assessed with [`diagnostics::multi_split_rhat`] /
//! [`diagnostics::multi_ess`].
//!
//! Because every sampler goes through `GradTargetMut`, NUTS and ADVI both
//! pick up the tape-free density programs (`gprob::dprog`) transparently:
//! a `gprob`-backed target routes `logp_grad_into` to the compiled register
//! program when the model's density lowered at bind time, and to the
//! recorded-tape interpreter when it declined. Nothing in this crate needs
//! to know which backend ran.
//!
//! NUTS is one engine with two drivers. The engine is a per-chain state
//! machine that parks on every gradient evaluation it needs;
//! [`nuts::nuts_sample`] answers one chain's points one at a time, and
//! [`nuts::nuts_sample_lockstep`] advances all chains together, batching
//! their pending leapfrog evaluations into one [`target::GradTargetBatch`]
//! call per round. Each chain's draws are bitwise identical under either
//! driver. [`advi::advi_fit`] likewise scores each step's Monte-Carlo guide
//! draws in one batch — which is how lane-widened struct-of-arrays density
//! programs evaluate several chains or draws per sweep.
//!
//! # Example
//!
//! ```
//! use inference::nuts::{nuts_sample, NutsConfig};
//! // Standard normal target.
//! let target = |theta: &[f64]| (-0.5 * theta[0] * theta[0], vec![-theta[0]]);
//! let cfg = NutsConfig { warmup: 200, samples: 400, seed: 7, ..Default::default() };
//! let result = nuts_sample(&mut &target, vec![0.5], &cfg);
//! let mean: f64 = result.draws.iter().map(|d| d[0]).sum::<f64>() / result.draws.len() as f64;
//! assert!(mean.abs() < 0.3);
//! ```

pub mod advi;
pub mod cancel;
pub mod diagnostics;
pub mod importance;
pub mod loo;
pub mod nuts;
pub mod predictive;
pub mod svi;
pub mod target;

pub use advi::{advi_fit, AdviConfig, AdviResult};
pub use cancel::CancelToken;
pub use diagnostics::{
    accuracy_pass, ess, multi_ess, multi_split_rhat, split_rhat, summarize, Summary,
};
pub use loo::{loo_compare, psis_loo, waic, CompareRow, ElpdEstimate};
pub use nuts::{nuts_sample, nuts_sample_lockstep, NutsConfig, NutsResult};
pub use predictive::{draw_seed, stream_chains, GqTable, StreamError};
pub use svi::{svi_optimize, Adam, AdamConfig, SviResult};
pub use target::{GradTarget, GradTargetBatch, GradTargetMut};

/// Standard normal draw via the Box–Muller transform — the one noise
/// source of NUTS momenta and ADVI's reparameterized draws.
pub(crate) fn standard_normal(rng: &mut rand::rngs::StdRng) -> f64 {
    use rand::Rng;
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}
