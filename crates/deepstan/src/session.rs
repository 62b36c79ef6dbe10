//! The chain-first inference pipeline: [`Session`] → [`Fit`].
//!
//! This is the method-agnostic inference surface of the reproduction,
//! mirroring the chain-first `MCMC` API of Pyro / NumPyro that the paper
//! runs its evaluation through:
//!
//! ```text
//! CompiledProgram::session(&data)?      // bind once
//!     .scheme(Scheme::Comprehensive)    // compilation scheme (default Mixed)
//!     .chains(4)                        // chains run in parallel threads
//!     .seed(7)                          // chain c is seeded with seed + c
//!     .run(Method::Nuts(settings))?     // or Advi / Svi / Importance
//!     // -> Fit: per-chain draws, cross-chain split-R̂ / ESS, divergences
//! ```
//!
//! Chains shard over `std::thread::scope`: the bound model is shared
//! immutably while every chain owns a pooled `gprob` density workspace
//! ([`gprob::GradWorkspace`]), so sampling allocates nothing per gradient
//! evaluation and 4 chains cost close to 1 in wall time on a multicore
//! machine. The same [`Fit`] type carries every method's output — posterior
//! draws for NUTS/ADVI/importance, plus the fitted guide
//! ([`crate::svi::VariationalFit`]) for SVI — so downstream diagnostics and
//! reporting code is method-agnostic too.
//!
//! Since the tape-free density programs landed ([`gprob::dprog`]), binding a
//! model also lowers its density to a flat register program when the body
//! admits one; every chain's [`WorkspaceTarget`] then evaluates gradients
//! with no tape at all (NUTS and ADVI both drive the same
//! `log_density_and_grad_with` route). Models that decline — with a reason
//! readable via `GModel::dprog_decline` — keep the recorded-tape path,
//! byte-identical to the previous behavior.
//!
//! Compiled multi-chain NUTS runs that find no idle cores for their chains
//! take a different sharding: instead of one thread per chain, all chains
//! advance in *lockstep* ([`inference::nuts::nuts_sample_lockstep`]) over
//! one shared [`WorkspaceTarget`] on the calling thread, and every round's
//! pending leapfrog evaluations are scored together by the lane-widened
//! density program — one struct-of-arrays sweep per group of up to 8
//! chains. A process-wide count of sampler threads in use decides which
//! route a run gets. ADVI likewise batches its per-step Monte-Carlo guide
//! draws through the same surface. Per-chain draws are bitwise identical to
//! the threaded path either way, because both routes run the one NUTS state
//! machine; declined models keep the thread-per-chain sharding.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

use gprob::model::ParamSlot;
use gprob::value::Value;
use gprob::GModel;
use inference::advi::{advi_fit, AdviConfig};
use inference::cancel::CancelToken;
use inference::diagnostics::{
    multi_ess, multi_split_rhat, rank_normalized_split_rhat, summarize, tail_ess, Summary,
};
use inference::importance::{likelihood_log_weights, resample_indices, weight_draws};
use inference::loo::{loo_compare, psis_loo, waic, CompareRow, ElpdEstimate};
use inference::nuts::{nuts_sample, nuts_sample_lockstep, NutsConfig, NutsResult};
use inference::predictive::{draw_seed, stream_chains, GqTable};
use inference::target::{GradTargetBatch, GradTargetMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stan2gprob::Scheme;

use crate::api::{CompiledProgram, InferenceError, NutsSettings, Posterior, StanModelTarget};
use crate::nn::MlpSpec;
use crate::svi::{SviSettings, VariationalFit};

/// The inference method a [`Session`] runs. One enum, one pipeline: every
/// method goes through [`Session::run`] and produces a [`Fit`].
#[derive(Debug, Clone)]
pub enum Method {
    /// The No-U-Turn Sampler on the gradient of the compiled density.
    Nuts(NutsSettings),
    /// Mean-field ADVI (Stan's `variational`); `chains(n)` runs `n`
    /// independent restarts.
    Advi(AdviConfig),
    /// Stochastic variational inference with the program's explicit guide
    /// (requires a `guide` block; runs a single fit).
    Svi(SviSettings),
    /// Likelihood-weighting importance sampling from the program prior.
    Importance(ImportanceSettings),
}

/// Settings for the importance-sampling method.
#[derive(Debug, Clone)]
pub struct ImportanceSettings {
    /// Number of prior proposals to draw and weight.
    pub particles: usize,
}

impl Default for ImportanceSettings {
    fn default() -> Self {
        ImportanceSettings { particles: 1000 }
    }
}

/// How each chain picks its starting point.
#[derive(Debug, Clone)]
pub enum Init {
    /// Uniform in `[-radius, radius]` on the unconstrained scale per chain
    /// (Stan's default is radius 2).
    Random {
        /// Half-width of the uniform initialization interval.
        radius: f64,
    },
    /// A fixed unconstrained starting point shared by every chain.
    Value(Vec<f64>),
}

/// A compiled program bound to a data set, ready to run inference. Built by
/// [`CompiledProgram::session`]; configured with the builder methods; fired
/// with [`Session::run`]. The bound model is cached, so running several
/// methods on one session binds (and re-runs `transformed data`) only once
/// per scheme.
pub struct Session<'p> {
    program: &'p CompiledProgram,
    data: Vec<(String, Value<f64>)>,
    scheme: Scheme,
    chains: usize,
    seed: Option<u64>,
    init: Init,
    networks: Vec<MlpSpec>,
    reference: bool,
    guide_draws: usize,
    /// The bound model for the current scheme. Held behind an `Arc` so a
    /// serving layer can inject an already-bound model from a compiled-model
    /// cache ([`Session::with_bound_model`]) and share it across concurrent
    /// sessions with zero rebinding.
    model: Option<(Scheme, Arc<GModel>)>,
    reference_model: Option<stan_ref::StanModel>,
    /// Overrides the lockstep-vs-threads multi-chain NUTS decision
    /// (`None` = idle cores, then the cost heuristic, decide). Both paths
    /// produce bitwise identical draws; benches force each side to measure
    /// the other.
    lockstep: Option<bool>,
    /// Cross-request gradient-workspace pool ([`Session::workspace_pool`]):
    /// when set (and built over this session's model), chain targets check
    /// out pooled workspaces instead of allocating fresh ones per run.
    workspace_pool: Option<Arc<WorkspacePool>>,
    /// Cooperative cancellation for the run ([`Session::cancel`]): threaded
    /// into every method's outer loop, polled per draw / per step / per
    /// particle. The default token never cancels.
    cancel: CancelToken,
}

impl CompiledProgram {
    /// Opens an inference session on this program with the given data.
    ///
    /// # Errors
    /// Currently infallible, but typed fallible so future eager validation
    /// (shape checks, data completeness) stays source-compatible.
    pub fn session(&self, data: &[(&str, Value<f64>)]) -> Result<Session<'_>, InferenceError> {
        Ok(Session {
            program: self,
            data: data
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            scheme: Scheme::Mixed,
            chains: 1,
            seed: None,
            init: Init::Random { radius: 2.0 },
            networks: Vec::new(),
            reference: false,
            guide_draws: 1000,
            model: None,
            reference_model: None,
            lockstep: None,
            workspace_pool: None,
            cancel: CancelToken::new(),
        })
    }
}

impl Session<'_> {
    /// Selects the compilation scheme (default: mixed).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Number of chains to run (default 1). Chains beyond the first run on
    /// their own threads, each with its own density workspace.
    pub fn chains(mut self, chains: usize) -> Self {
        self.chains = chains.max(1);
        self
    }

    /// Master seed; chain `c` derives `seed + c`. Defaults to the seed
    /// carried by the method's own settings.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Chain initialization strategy (default: uniform in `[-2, 2]`).
    pub fn init(mut self, init: Init) -> Self {
        self.init = init;
        self
    }

    /// Network architectures for `networks { ... }` declarations (SVI).
    pub fn networks(mut self, networks: &[MlpSpec]) -> Self {
        self.networks = networks.to_vec();
        self
    }

    /// Runs inference on the baseline Stan-semantics interpreter instead of
    /// the compiled GProb runtime — the "Stan" column of the paper's tables.
    /// Only gradient-based methods (NUTS, ADVI) support this backend.
    pub fn reference(mut self, reference: bool) -> Self {
        self.reference = reference;
        self
    }

    /// Number of posterior draws to pull from the fitted guide after SVI
    /// (default 1000).
    pub fn guide_draws(mut self, n: usize) -> Self {
        self.guide_draws = n.max(1);
        self
    }

    /// Forces lockstep (`true`) or one-thread-per-chain (`false`) multi-chain
    /// NUTS execution instead of letting idle cores and the cost heuristic
    /// decide. Both paths produce bitwise identical per-chain draws; this
    /// exists for benchmarking the two routes against each other.
    pub fn lockstep(mut self, lockstep: bool) -> Self {
        self.lockstep = Some(lockstep);
        self
    }

    /// Attaches a cooperative [`CancelToken`] to the run. Every method's
    /// outer loop polls it — per NUTS iteration, per ADVI/SVI step, per
    /// importance particle — and never inside a gradient evaluation, so
    /// the draws completed before the token fires are the bitwise prefix
    /// of an uncancelled same-seed run. A cancelled run returns a partial
    /// [`Fit`] with [`Fit::cancelled`] set instead of an error.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Injects an already-bound model (from a compiled-model cache) for the
    /// given scheme, so [`Session::run`] performs **zero** compile, resolve,
    /// or DProg-lowering work. The session's scheme is switched to match.
    ///
    /// The caller is responsible for handing in a model bound against the
    /// *same* program and data this session was opened with — the cache key
    /// of `serve`'s model cache (source hash + data fingerprint) guarantees
    /// exactly that.
    pub fn with_bound_model(mut self, scheme: Scheme, model: Arc<GModel>) -> Self {
        self.scheme = scheme;
        self.model = Some((scheme, model));
        self
    }

    /// Attaches a cross-request [`WorkspacePool`]: chain gradient targets
    /// check per-chain workspaces out of the pool and return them when the
    /// run finishes, so repeat traffic against one cached model reuses the
    /// same scratch buffers instead of allocating `chains` fresh workspaces
    /// per request. Ignored (fresh workspaces, exactly as without a pool)
    /// unless the pool was built over this session's bound model. Pooling
    /// never changes results — a workspace carries no cross-evaluation
    /// state, only scratch capacity.
    pub fn workspace_pool(mut self, pool: Arc<WorkspacePool>) -> Self {
        self.workspace_pool = Some(pool);
        self
    }

    /// Runs the chosen method and collects a [`Fit`].
    ///
    /// # Errors
    /// Propagates binding and runtime errors; misuse (e.g. SVI without a
    /// guide, importance sampling on the reference backend) reports
    /// [`InferenceError::Usage`].
    pub fn run(&mut self, method: Method) -> Result<Fit, InferenceError> {
        self.run_with_observer(method, &mut |_, _| {})
    }

    /// [`Session::run`] with a per-chain completion observer: `on_chain` is
    /// invoked with `(chain_index, &ChainResult)` as each chain's constrained
    /// draws become available, *before* the full [`Fit`] is assembled —
    /// serving layers flush per-chain response frames from here.
    ///
    /// The order depends on the route:
    ///
    /// * Thread-per-chain NUTS (the reference backend, declined models,
    ///   runs that find idle cores for every chain, programs below the
    ///   lockstep cost floor, or `lockstep(false)`) invokes the observer
    ///   incrementally in chain *completion* order while other chains are
    ///   still sampling.
    /// * Lockstep NUTS (all chains advance through one lane-batched
    ///   gradient) finishes its chains together, so the observer fires for
    ///   each chain in index order once the last chain is done.
    /// * ADVI, SVI and importance sampling also observe in index order,
    ///   after the whole run.
    ///
    /// Either way every chain is observed exactly once — also a chain cut
    /// short by [`Session::cancel`] — and the returned fit is identical to
    /// [`Session::run`].
    ///
    /// # Errors
    /// Same as [`Session::run`].
    pub fn run_with_observer(
        &mut self,
        method: Method,
        on_chain: &mut dyn FnMut(usize, &ChainResult),
    ) -> Result<Fit, InferenceError> {
        let start = Instant::now();
        let mut fit = match method {
            Method::Nuts(settings) => self.run_nuts(&settings, on_chain)?,
            Method::Advi(config) => {
                let fit = self.run_advi(&config)?;
                for (c, chain) in fit.chains.iter().enumerate() {
                    on_chain(c, chain);
                }
                fit
            }
            Method::Svi(settings) => {
                let fit = self.run_svi(&settings)?;
                for (c, chain) in fit.chains.iter().enumerate() {
                    on_chain(c, chain);
                }
                fit
            }
            Method::Importance(settings) => {
                let fit = self.run_importance(&settings)?;
                for (c, chain) in fit.chains.iter().enumerate() {
                    on_chain(c, chain);
                }
                fit
            }
        };
        fit.wall_time = start.elapsed().as_secs_f64();
        Ok(fit)
    }

    fn data_refs(&self) -> Vec<(&str, Value<f64>)> {
        self.data
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect()
    }

    /// The bound compiled model for the current scheme (bound lazily,
    /// cached per scheme).
    fn model(&mut self) -> Result<&GModel, InferenceError> {
        let stale = self.model.as_ref().map(|(s, _)| *s) != Some(self.scheme);
        if stale {
            let model = self.program.bind_with(self.scheme, &self.data_refs())?;
            self.model = Some((self.scheme, Arc::new(model)));
        }
        Ok(&self.model.as_ref().expect("model bound above").1)
    }

    /// The bound reference-interpreter model (bound lazily, cached).
    fn ref_model(&mut self) -> Result<&stan_ref::StanModel, InferenceError> {
        if self.reference_model.is_none() {
            self.reference_model = Some(self.program.bind_reference(&self.data_refs())?);
        }
        Ok(self.reference_model.as_ref().expect("model bound above"))
    }

    fn run_nuts(
        &mut self,
        settings: &NutsSettings,
        on_chain: &mut dyn FnMut(usize, &ChainResult),
    ) -> Result<Fit, InferenceError> {
        let seed = self.seed.unwrap_or(settings.seed);
        let config = NutsConfig {
            warmup: settings.warmup,
            samples: settings.samples,
            max_depth: settings.max_depth,
            seed,
            cancel: self.cancel.clone(),
            ..Default::default()
        };
        let (chains, init, reference) = (self.chains, self.init.clone(), self.reference);
        let lockstep_override = self.lockstep;
        let pool_arc = self.workspace_pool.clone();
        if reference {
            let model = self.ref_model()?;
            let mut fit = NutsFitCollector::new(chains, model.slots(), on_chain);
            run_nuts_chains(
                chains,
                &config,
                ChainRoute::Threads,
                SamplerThreads::global(),
                &|| StanModelTarget(model),
                &|rng| init_point(&init, rng, model.dim()),
                &|theta| model.log_density_f64(theta).map(|_| ()),
                &mut |c, result, wall_time| fit.push(c, result, wall_time),
            )?;
            return Ok(fit.finish(model.component_names()));
        }
        let model = self.model()?;
        // A workspace pool only applies when it was built over this exact
        // bound model (the serve cache guarantees that); any other pool is
        // ignored rather than risking a wrong-sized workspace.
        let pool = pool_arc
            .as_deref()
            .filter(|p| std::ptr::eq(p.model().as_ref() as *const GModel, model));
        // Multi-chain runs over a compiled density program take a thread
        // per chain while the machine has idle cores for them, and otherwise
        // advance all chains in lockstep so the lane-widened DProg scores
        // every chain's leapfrog state in one batched sweep. Declined models
        // — and programs too small to amortize the lane dispatch
        // ([`lockstep_worthwhile`]) — always take a thread per chain. Both
        // produce bitwise-identical per-chain draws.
        let route = match (model.dprog(), lockstep_override) {
            (Some(_), Some(true)) => ChainRoute::Lockstep,
            (Some(dprog), None) if lockstep_worthwhile(model.dim(), dprog) => {
                ChainRoute::ThreadsIfIdle
            }
            _ => ChainRoute::Threads,
        };
        let mut fit = NutsFitCollector::new(chains, model.slots(), on_chain);
        run_nuts_chains(
            chains,
            &config,
            route,
            SamplerThreads::global(),
            &|| match pool {
                Some(p) => WorkspaceTarget::pooled(p),
                None => WorkspaceTarget::new(model),
            },
            &|rng| init_point(&init, rng, model.dim()),
            &|theta| model.log_density_f64(theta).map(|_| ()),
            &mut |c, result, wall_time| fit.push(c, result, wall_time),
        )?;
        Ok(fit.finish(model.component_names()))
    }

    fn run_advi(&mut self, config: &AdviConfig) -> Result<Fit, InferenceError> {
        let seed = self.seed.unwrap_or(config.seed);
        let mut config = config.clone();
        config.cancel = self.cancel.clone();
        let config = &config;
        let (chains, reference) = (self.chains, self.reference);
        if reference {
            let model = self.ref_model()?;
            model.log_density_f64(&vec![0.0; model.dim()])?;
            let runs = run_advi_chains(chains, seed, config, model.dim(), &|| {
                StanModelTarget(model)
            });
            return Ok(collect_advi_fit(
                model.component_names(),
                model.slots(),
                runs,
            ));
        }
        let pool_arc = self.workspace_pool.clone();
        let model = self.model()?;
        model.log_density_f64(&vec![0.0; model.dim()])?;
        let pool = pool_arc
            .as_deref()
            .filter(|p| std::ptr::eq(p.model().as_ref() as *const GModel, model));
        let runs = run_advi_chains(chains, seed, config, model.dim(), &|| match pool {
            Some(p) => WorkspaceTarget::pooled(p),
            None => WorkspaceTarget::new(model),
        });
        Ok(collect_advi_fit(
            model.component_names(),
            model.slots(),
            runs,
        ))
    }

    fn run_svi(&mut self, settings: &SviSettings) -> Result<Fit, InferenceError> {
        if self.reference {
            return Err(InferenceError::Usage(
                "SVI runs on the compiled runtime only".to_string(),
            ));
        }
        let seed = self.seed.unwrap_or(settings.seed);
        let mut settings = settings.clone();
        settings.seed = seed;
        settings.cancel = self.cancel.clone();
        let data = self.data_refs();
        let start = Instant::now();
        let variational = self.program.svi(&data, &self.networks, &settings)?;
        let cancelled = variational.cancelled;
        let posterior = self.program.sample_guide(
            &data,
            &variational,
            &self.networks,
            self.guide_draws,
            seed.wrapping_add(1),
        )?;
        Ok(Fit {
            method: FitMethod::Svi,
            names: posterior.names,
            chains: vec![ChainResult {
                draws: posterior.draws,
                divergences: 0,
                wall_time: start.elapsed().as_secs_f64(),
                n_grad_evals: 0,
            }],
            wall_time: 0.0,
            variational: Some(variational),
            weights: None,
            gq: None,
            cancelled,
        })
    }

    fn run_importance(&mut self, settings: &ImportanceSettings) -> Result<Fit, InferenceError> {
        if self.reference {
            return Err(InferenceError::Usage(
                "importance sampling runs on the compiled runtime only".to_string(),
            ));
        }
        let seed = self.seed.unwrap_or(0);
        let n = settings.particles.max(1);
        let pool_arc = self.workspace_pool.clone();
        let cancel = self.cancel.clone();
        let model = self.model()?;
        let start = Instant::now();
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(seed)));
        let mut draws = Vec::with_capacity(n);
        let dim = model.dim();
        let mut cancelled = false;
        let log_weights = if model.dprog().is_some() && dim > 0 {
            // Batched route: proposals come from draw-only prior runs
            // (scoring skipped — RNG consumption is identical to the
            // weighted run), then ONE lane-batched sweep scores every
            // proposal's full unconstrained density, and the likelihood
            // weight is full − prior − log-Jacobian. Matches the per-draw
            // route up to constrain/unconstrain float round-trip (~1e-15).
            let mut us = Vec::with_capacity(n * dim);
            let mut priors = Vec::with_capacity(n);
            let mut jacs = Vec::with_capacity(n);
            for _ in 0..n {
                if cancel.is_cancelled() {
                    cancelled = true;
                    break;
                }
                let (trace, prior_lp) = model.run_prior_draw(rng.clone())?;
                let flat = flatten_trace(model, &trace)?;
                let base = us.len();
                us.resize(base + dim, 0.0);
                let mut jac = 0.0;
                for slot in model.slots() {
                    for i in 0..slot.size {
                        let u = slot.constraint.to_unconstrained(flat[slot.offset + i]);
                        us[base + slot.offset + i] = u;
                        jac += slot.constraint.log_jacobian(u);
                    }
                }
                draws.push(flat);
                priors.push(prior_lp);
                jacs.push(jac);
            }
            let pool = pool_arc
                .as_deref()
                .filter(|p| std::ptr::eq(p.model().as_ref() as *const GModel, model));
            let mut target = match pool {
                Some(p) => WorkspaceTarget::pooled(p),
                None => WorkspaceTarget::new(model),
            };
            likelihood_log_weights(&mut target, &us, &priors, &jacs)
        } else {
            let mut log_weights = Vec::with_capacity(n);
            for _ in 0..n {
                if cancel.is_cancelled() {
                    cancelled = true;
                    break;
                }
                let (trace, lw) = model.run_prior_weighted(rng.clone())?;
                draws.push(flatten_trace(model, &trace)?);
                log_weights.push(lw);
            }
            log_weights
        };
        // A run cancelled before its first particle has nothing to weight;
        // return an empty partial fit rather than a degeneracy error.
        if draws.is_empty() && cancelled {
            return Ok(Fit {
                method: FitMethod::Importance,
                names: model.component_names(),
                chains: vec![ChainResult {
                    draws: Vec::new(),
                    divergences: 0,
                    wall_time: start.elapsed().as_secs_f64(),
                    n_grad_evals: 0,
                }],
                wall_time: 0.0,
                variational: None,
                weights: None,
                gq: None,
                cancelled: true,
            });
        }
        // Particles completed before a cancellation point (all `n` when the
        // token never fired).
        let n_done = draws.len();
        let weighted = weight_draws(draws, log_weights);
        if !weighted.log_evidence.is_finite() || weighted.weights.iter().any(|w| !w.is_finite()) {
            return Err(InferenceError::Usage(format!(
                "importance sampling degenerated: all {n} prior proposals have zero likelihood"
            )));
        }
        // Resample into an unweighted draw set so Fit summaries are the
        // self-normalized importance estimates.
        let indices = resample_indices(&weighted.weights, n_done, seed.wrapping_add(1));
        let resampled: Vec<Vec<f64>> = indices.iter().map(|&i| weighted.draws[i].clone()).collect();
        Ok(Fit {
            method: FitMethod::Importance,
            names: model.component_names(),
            chains: vec![ChainResult {
                draws: resampled,
                divergences: 0,
                wall_time: start.elapsed().as_secs_f64(),
                n_grad_evals: 0,
            }],
            wall_time: 0.0,
            variational: None,
            weights: Some(weighted.weights),
            gq: None,
            cancelled,
        })
    }

    /// Streams every retained draw of a [`Fit`] through the program's
    /// resolved `generated quantities` block and merges the resulting
    /// [`GqTable`] into the fit (no-op if already attached).
    ///
    /// Chains shard over threads, each with its own pooled
    /// [`gprob::GqWorkspace`]; `_rng` statements run on deterministic
    /// per-(chain, draw) streams derived from the session seed, so results
    /// are reproducible regardless of chain scheduling order.
    ///
    /// # Errors
    /// [`InferenceError::Usage`] when the program has no block or the fit
    /// has no draws; runtime errors from GQ evaluation otherwise.
    pub fn generated_quantities(&mut self, fit: &mut Fit) -> Result<(), InferenceError> {
        if fit.gq.is_some() {
            return Ok(());
        }
        let seed = self.seed.unwrap_or(0);
        let model = self.model()?;
        if model.resolved_gq().is_none() {
            return Err(InferenceError::Usage(
                "the program has no generated quantities block".to_string(),
            ));
        }
        let first_draw = fit
            .chains
            .iter()
            .enumerate()
            .find_map(|(c, chain)| chain.draws.first().map(|d| (c, d)));
        let Some((name_chain, name_draw)) = first_draw else {
            return Err(InferenceError::Usage(
                "the fit has no draws to evaluate generated quantities on".to_string(),
            ));
        };
        let chains: Vec<&[Vec<f64>]> = fit.chains.iter().map(|c| c.draws.as_slice()).collect();
        let rows = stream_chains(&chains, seed, |_chain| {
            let mut ws = model.gq_workspace().expect("block checked above");
            move |_draw: usize, draw_rng_seed: u64, row: &[f64]| -> Result<Vec<f64>, String> {
                let mut out = Vec::new();
                model
                    .generated_quantities_into(&mut ws, row, true, draw_rng_seed, &mut out)
                    .map_err(|e| e.message().to_string())?;
                Ok(out)
            }
        })
        .map_err(|e| InferenceError::Runtime(gprob::RuntimeError::new(e.to_string())))?;
        // Column names come from the shapes one evaluated draw binds.
        let mut ws = model.gq_workspace().expect("block checked above");
        let mut sink = Vec::new();
        model.generated_quantities_into(
            &mut ws,
            name_draw,
            true,
            draw_seed(seed, name_chain as u64, 0),
            &mut sink,
        )?;
        let names = model.gq_component_names(&ws)?;
        fit.gq = Some(GqTable {
            names,
            chains: rows,
        });
        Ok(())
    }

    /// Pooled posterior-predictive draws of one generated quantity: ensures
    /// the GQ table is attached to the fit, then returns the draws ×
    /// components matrix of every `name[...]` column (or the scalar
    /// `name`).
    ///
    /// # Errors
    /// Usage errors when the program has no block or no such quantity.
    pub fn posterior_predictive(
        &mut self,
        fit: &mut Fit,
        name: &str,
    ) -> Result<Vec<Vec<f64>>, InferenceError> {
        self.generated_quantities(fit)?;
        fit.posterior_predictive(name)
            .ok_or_else(|| InferenceError::Usage(format!("no generated quantity named `{name}`")))
    }

    /// The pooled pointwise log-likelihood matrix (draws × observations)
    /// from the fit's `log_lik` generated quantity, attaching the GQ table
    /// first if needed.
    ///
    /// # Errors
    /// Usage errors when the program's block defines no `log_lik`.
    pub fn log_lik(&mut self, fit: &mut Fit) -> Result<Vec<Vec<f64>>, InferenceError> {
        self.generated_quantities(fit)?;
        fit.log_lik().ok_or_else(|| {
            InferenceError::Usage("the generated quantities block defines no `log_lik`".to_string())
        })
    }

    /// PSIS-LOO model criticism over the fit's `log_lik` matrix (attaching
    /// generated quantities first if needed).
    ///
    /// # Errors
    /// Same as [`Session::log_lik`].
    pub fn loo(&mut self, fit: &mut Fit) -> Result<ElpdEstimate, InferenceError> {
        self.generated_quantities(fit)?;
        fit.loo()
    }

    /// WAIC over the fit's `log_lik` matrix (attaching generated quantities
    /// first if needed).
    ///
    /// # Errors
    /// Same as [`Session::log_lik`].
    pub fn waic(&mut self, fit: &mut Fit) -> Result<ElpdEstimate, InferenceError> {
        self.generated_quantities(fit)?;
        fit.waic()
    }

    /// Prior-predictive simulation: draws `draws` parameter sets from the
    /// program prior and streams each through the `generated quantities`
    /// block, returning the resulting table (one chain). Seeded by the
    /// session seed.
    ///
    /// # Errors
    /// Usage errors when the program has no block; runtime errors from the
    /// prior run or GQ evaluation.
    pub fn prior_predictive(&mut self, draws: usize) -> Result<GqTable, InferenceError> {
        let seed = self.seed.unwrap_or(0);
        let draws = draws.max(1);
        let model = self.model()?;
        let Some(_) = model.resolved_gq() else {
            return Err(InferenceError::Usage(
                "the program has no generated quantities block".to_string(),
            ));
        };
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(seed)));
        let mut ws = model.gq_workspace().expect("block checked above");
        let mut rows = Vec::with_capacity(draws);
        for d in 0..draws {
            let (trace, _) = model.run_prior_weighted(rng.clone())?;
            let flat = flatten_trace(model, &trace)?;
            let mut out = Vec::new();
            model.generated_quantities_into(
                &mut ws,
                &flat,
                true,
                draw_seed(seed, 0, d as u64),
                &mut out,
            )?;
            rows.push(out);
        }
        let names = model.gq_component_names(&ws)?;
        Ok(GqTable {
            names,
            chains: vec![rows],
        })
    }
}

/// Ranks named PSIS-LOO estimates (best first) with paired difference
/// standard errors — re-exported convenience over
/// [`inference::loo::loo_compare`].
pub fn compare_by_loo(models: &[(&str, &ElpdEstimate)]) -> Vec<CompareRow> {
    loo_compare(models)
}

/// Flattens a prior-run trace frame into the constrained flat-row layout of
/// [`GModel::component_names`]: each parameter read straight out of the
/// frame by its slot (no string-keyed environment). A slot a data-dependent
/// branch skipped contributes `slot.size` NaNs so the row stays aligned with
/// the component names.
pub(crate) fn flatten_trace(
    model: &GModel,
    trace: &gprob::Frame<f64>,
) -> Result<Vec<f64>, gprob::RuntimeError> {
    let mut flat = Vec::new();
    for (slot, &frame_slot) in model.slots().iter().zip(model.param_frame_slots()) {
        match trace.get(frame_slot) {
            Some(value) => flat.extend(value.as_real_vec()?),
            None => flat.extend(std::iter::repeat_n(f64::NAN, slot.size)),
        }
    }
    Ok(flat)
}

fn init_point(init: &Init, rng: &mut StdRng, dim: usize) -> Vec<f64> {
    match init {
        Init::Random { radius } => {
            let r = *radius;
            if r > 0.0 {
                (0..dim).map(|_| rng.gen_range(-r..r)).collect()
            } else {
                // Radius 0 (or below) means "start every chain at the
                // origin" rather than an empty-range panic.
                vec![0.0; dim]
            }
        }
        Init::Value(v) => v.clone(),
    }
}

/// A cross-request pool of gradient workspaces for one bound model, shared
/// by every [`Session`] serving that model (see
/// [`Session::workspace_pool`]). A chain target checks a workspace out on
/// construction ([`WorkspaceTarget::pooled`]) and returns it on drop, so a
/// long-lived server answering repeat traffic against a cached model
/// allocates each chain workspace once and then recycles it, instead of
/// paying `chains` fresh allocations per request.
///
/// Workspaces carry scratch capacity only — no state survives between
/// evaluations — so pooling cannot change any result. The pool retains at
/// most [`WorkspacePool::MAX_IDLE`] idle workspaces; beyond that, returned
/// workspaces are simply dropped.
pub struct WorkspacePool {
    model: Arc<GModel>,
    free: Mutex<Vec<gprob::GradWorkspace>>,
    created: AtomicU64,
}

impl WorkspacePool {
    /// Idle workspaces retained; returns beyond this are dropped.
    pub const MAX_IDLE: usize = 64;

    /// An empty pool over one bound model.
    pub fn new(model: Arc<GModel>) -> Self {
        WorkspacePool {
            model,
            free: Mutex::new(Vec::new()),
            created: AtomicU64::new(0),
        }
    }

    /// The model this pool allocates workspaces for.
    pub fn model(&self) -> &Arc<GModel> {
        &self.model
    }

    /// Workspaces allocated over the pool's lifetime (i.e. acquire misses).
    /// A server test asserts this stops growing once traffic repeats.
    pub fn created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    /// Workspaces currently checked in and idle.
    pub fn idle(&self) -> usize {
        // Poison recovery: a panic elsewhere while holding the lock leaves
        // the workspace list intact (push/pop never leave it mid-edit), so
        // later callers keep working instead of cascading the panic.
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn acquire(&self) -> gprob::GradWorkspace {
        if let Some(ws) = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            // Checked out: one fewer idle workspace process-wide.
            obs::gauge("workspace.idle").add(-1.0);
            return ws;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        obs::counter("workspace.created").inc();
        self.model.grad_workspace()
    }

    fn release(&self, ws: gprob::GradWorkspace) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < Self::MAX_IDLE {
            free.push(ws);
            obs::gauge("workspace.idle").add(1.0);
        }
    }
}

/// A [`GradTargetMut`] over a compiled model with a pooled per-chain
/// workspace: each gradient evaluation reuses the chain's scratch state.
/// When the model compiled a tape-free density program (`GModel::dprog`),
/// this is the target that runs it — one forward pass over the op array and
/// one analytic reverse sweep per leapfrog step, no tape recording;
/// declined models evaluate through the recorded tape exactly as before.
/// Evaluation errors surface as `-inf` plateaus, exactly as the
/// closure-based wiring did, and are counted in `nuts.eval_errors`.
pub struct WorkspaceTarget<'m> {
    model: &'m GModel,
    /// `Some` until drop; taken back by the pool (when pooled) on drop.
    ws: Option<gprob::GradWorkspace>,
    pool: Option<&'m WorkspacePool>,
}

impl<'m> WorkspaceTarget<'m> {
    /// Builds a target (and a fresh workspace) for one chain.
    pub fn new(model: &'m GModel) -> Self {
        WorkspaceTarget {
            ws: Some(model.grad_workspace()),
            model,
            pool: None,
        }
    }

    /// Builds a target over the pool's model, checking its workspace out of
    /// the pool (allocating only when the pool is empty) and returning it
    /// when the target drops.
    pub fn pooled(pool: &'m WorkspacePool) -> Self {
        WorkspaceTarget {
            model: pool.model.as_ref(),
            ws: Some(pool.acquire()),
            pool: Some(pool),
        }
    }

    fn ws(&mut self) -> &mut gprob::GradWorkspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for WorkspaceTarget<'_> {
    fn drop(&mut self) {
        if let (Some(pool), Some(ws)) = (self.pool, self.ws.take()) {
            pool.release(ws);
        }
    }
}

impl GradTargetMut for WorkspaceTarget<'_> {
    fn logp_grad_into(&mut self, q: &[f64], grad: &mut [f64]) -> f64 {
        let model = self.model;
        match model.log_density_and_grad_with(self.ws(), q, grad) {
            Ok(lp) => lp,
            Err(_) => {
                obs::counter("nuts.eval_errors").inc();
                grad.fill(0.0);
                f64::NEG_INFINITY
            }
        }
    }
}

/// Batched evaluation: models with a compiled density program score the
/// whole batch in struct-of-arrays lane groups (one forward and one reverse
/// sweep per group of up to 8 points); declined models loop the single-point
/// entry, preserving the `Err` → `-inf` plateau mapping (and its
/// `nuts.eval_errors` count) point by point. Both routes are bitwise
/// identical per point to [`GradTargetMut::logp_grad_into`].
impl GradTargetBatch for WorkspaceTarget<'_> {
    fn logp_grad_batch(&mut self, qs: &[f64], logps: &mut [f64], grads: &mut [f64]) {
        let n = logps.len();
        if n == 0 {
            return;
        }
        let model = self.model;
        if model.dprog().is_some()
            && model
                .log_density_and_grad_batch_with(self.ws(), qs, logps, grads)
                .is_ok()
        {
            return;
        }
        let dim = qs.len() / n;
        for (i, lp) in logps.iter_mut().enumerate() {
            *lp = self.logp_grad_into(
                &qs[i * dim..(i + 1) * dim],
                &mut grads[i * dim..(i + 1) * dim],
            );
        }
    }
}

/// How [`run_nuts_chains`] shards a multi-chain run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainRoute {
    /// One thread per chain.
    Threads,
    /// Every chain over one batched target on the calling thread.
    Lockstep,
    /// [`ChainRoute::Threads`] when the machine has an idle core for every
    /// chain, [`ChainRoute::Lockstep`] otherwise.
    ThreadsIfIdle,
}

/// The process-wide count of NUTS sampler threads in use, against the
/// machine's core count. Each [`run_nuts_chains`] call holds a
/// [`SamplerSlots`] claim on it for the whole run, so concurrent sessions
/// (a serve pool's workers) see each other's chains when they pick a route.
/// The count publishes no other data, so its updates are `Relaxed`; the
/// read-modify-writes on it are still totally ordered.
struct SamplerThreads {
    busy: AtomicUsize,
    cores: usize,
}

impl SamplerThreads {
    fn new(cores: usize) -> Self {
        SamplerThreads {
            busy: AtomicUsize::new(0),
            cores,
        }
    }

    /// The process-wide count. The core count is read once, because each
    /// `available_parallelism` call reads cgroup files.
    fn global() -> &'static SamplerThreads {
        static GLOBAL: OnceLock<SamplerThreads> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            SamplerThreads::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
        })
    }

    /// Claims `n` threads whatever the load.
    fn hold(&self, n: usize) -> SamplerSlots<'_> {
        self.busy.fetch_add(n, Ordering::Relaxed);
        SamplerSlots { threads: self, n }
    }

    /// Claims `n` threads only if they fit in the idle cores. One
    /// compare-and-swap, so two sessions cannot both claim the same cores.
    fn try_hold(&self, n: usize) -> Option<SamplerSlots<'_>> {
        self.busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                busy.checked_add(n).filter(|&total| total <= self.cores)
            })
            .ok()
            .map(|_| SamplerSlots { threads: self, n })
    }

    /// Resolves `route` for a run of `chains` chains and claims its threads:
    /// `chains` on the threads route, 1 for lockstep or a single chain.
    /// Returns whether the run goes lockstep.
    fn claim(&self, route: ChainRoute, chains: usize) -> (bool, SamplerSlots<'_>) {
        let lockstep = match route {
            ChainRoute::Threads => false,
            ChainRoute::Lockstep => true,
            ChainRoute::ThreadsIfIdle => match self.try_hold(chains) {
                Some(slots) => return (false, slots),
                None => true,
            },
        } && chains > 1;
        let n = if lockstep { 1 } else { chains.max(1) };
        (lockstep, self.hold(n))
    }
}

/// A claim on [`SamplerThreads`], given back on drop — on every exit of the
/// run, error returns and unwinding included.
struct SamplerSlots<'a> {
    threads: &'a SamplerThreads,
    n: usize,
}

impl Drop for SamplerSlots<'_> {
    fn drop(&mut self) {
        self.threads.busy.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// Runs `chains` NUTS chains and hands each one's result to `on_chain` with
/// its wall time. Chain `c` uses seed `config.seed + c` for both its
/// starting point and its sampler.
///
/// Before each chain samples, its own starting point is checked with
/// `check` (a plain density evaluation), so a runtime error on *any*
/// chain's init surfaces as an error rather than a silent `-inf` plateau
/// that would pool a frozen chain into the summaries.
///
/// `route` picks the sharding. It is resolved against the sampler-thread
/// count `threads` ([`SamplerThreads::global`] outside tests), where the
/// run holds its threads until it returns. The route taken is counted in
/// `nuts.route.threads` / `nuts.route.lockstep`.
///
/// On the lockstep route, every chain advances over one shared batched
/// target: each round, all chains' pending leapfrog evaluations go through
/// one `logp_grad_batch` call, which a lane-widened density program scores
/// with one struct-of-arrays sweep per lane group. The chains finish
/// together and are observed in index order; wall time cannot be
/// attributed per chain, so each reports an equal share of the run.
///
/// Otherwise each chain runs alone on its own target (one workspace per
/// chain), in parallel threads beyond the first. Results are funneled
/// through an mpsc channel to the calling thread, which observes them in
/// chain *completion* order while the remaining chains keep sampling — the
/// incremental flush point of `serve`'s streaming responses. If any chain
/// fails its init check, the first error (in completion order) is returned
/// after all chains finish.
///
/// Either way, chain `c` runs the same NUTS state machine on the same
/// seed, so its draws are bitwise identical across the two routes.
#[allow(clippy::too_many_arguments)]
fn run_nuts_chains<T, F, G, C>(
    chains: usize,
    config: &NutsConfig,
    route: ChainRoute,
    threads: &SamplerThreads,
    make_target: &F,
    make_init: &G,
    check: &C,
    on_chain: &mut dyn FnMut(usize, NutsResult, f64),
) -> Result<(), InferenceError>
where
    T: GradTargetBatch,
    F: Fn() -> T + Sync,
    G: Fn(&mut StdRng) -> Vec<f64> + Sync,
    C: Fn(&[f64]) -> Result<(), gprob::RuntimeError> + Sync,
{
    let (lockstep, _slots) = threads.claim(route, chains);
    obs::counter(if lockstep {
        "nuts.route.lockstep"
    } else {
        "nuts.route.threads"
    })
    .inc();
    let chain_config = |c: usize| {
        let mut chain_cfg = config.clone();
        chain_cfg.seed = config.seed.wrapping_add(c as u64);
        chain_cfg
    };
    let checked_init = |chain_cfg: &NutsConfig| -> Result<Vec<f64>, InferenceError> {
        let init = make_init(&mut StdRng::seed_from_u64(chain_cfg.seed));
        check(&init)?;
        Ok(init)
    };
    if lockstep {
        let configs: Vec<NutsConfig> = (0..chains).map(chain_config).collect();
        let inits = configs
            .iter()
            .map(checked_init)
            .collect::<Result<Vec<_>, _>>()?;
        let start = Instant::now();
        let results = nuts_sample_lockstep(&mut make_target(), inits, &configs);
        let per_chain = start.elapsed().as_secs_f64() / chains.max(1) as f64;
        for (c, result) in results.into_iter().enumerate() {
            on_chain(c, result, per_chain);
        }
        return Ok(());
    }
    let run_one = |c: usize| -> Result<(NutsResult, f64), InferenceError> {
        let chain_cfg = chain_config(c);
        let init = checked_init(&chain_cfg)?;
        let start = Instant::now();
        let result = nuts_sample(&mut make_target(), init, &chain_cfg);
        Ok((result, start.elapsed().as_secs_f64()))
    };
    if chains <= 1 {
        let (result, wall) = run_one(0)?;
        on_chain(0, result, wall);
        return Ok(());
    }
    std::thread::scope(|s| {
        let run_one = &run_one;
        let (tx, rx) = mpsc::channel();
        for c in 0..chains {
            let tx = tx.clone();
            s.spawn(move || {
                // The receiver outlives every sender inside the scope, so a
                // send only fails if the main thread panicked.
                let _ = tx.send((c, run_one(c)));
            });
        }
        drop(tx);
        let mut first_err = None;
        for (c, outcome) in rx {
            match outcome {
                Ok((result, wall)) if first_err.is_none() => on_chain(c, result, wall),
                Ok(_) => {}
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}

/// Whether a compiled program is worth running in lockstep when the
/// machine has no idle core for each of its chains. Lockstep pays a fixed
/// per-round dispatch cost (lane-file preparation, operand re-resolution,
/// chain bookkeeping) that a density program must amortize; near-empty
/// dim-1 programs do not, so below a dimension/cost floor the chains take
/// threads anyway. The floor was measured on a 1-core machine, where every
/// multi-chain run shares the one core. Both routes produce bitwise
/// identical draws, so this is purely a scheduling decision.
fn lockstep_worthwhile(dim: usize, dprog: &gprob::dprog::DProg) -> bool {
    const MIN_DIM: usize = 2;
    const MIN_COST: usize = 48;
    dim >= MIN_DIM && dprog.cost_estimate() >= MIN_COST
}

/// Runs `chains` independent ADVI restarts (seeded `base_seed + c`), in
/// parallel threads beyond the first. Each restart fits through
/// [`advi_fit`], so every optimization step's Monte-Carlo guide draws
/// score in one batched call — one lane-widened sweep per step on compiled
/// models, a plain per-draw loop otherwise.
fn run_advi_chains<T, F>(
    chains: usize,
    base_seed: u64,
    config: &AdviConfig,
    dim: usize,
    make_target: &F,
) -> Vec<(inference::advi::AdviResult, f64)>
where
    T: GradTargetBatch,
    F: Fn() -> T + Sync,
{
    let run_one = |c: usize| {
        let mut chain_cfg = config.clone();
        chain_cfg.seed = base_seed.wrapping_add(c as u64);
        let start = Instant::now();
        let mut target = make_target();
        let result = advi_fit(&mut target, dim, &chain_cfg);
        (result, start.elapsed().as_secs_f64())
    };
    if chains <= 1 {
        return vec![run_one(0)];
    }
    std::thread::scope(|s| {
        let run_one = &run_one;
        let handles: Vec<_> = (0..chains).map(|c| s.spawn(move || run_one(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ADVI chain thread panicked"))
            .collect()
    })
}

/// Pushes a chain's unconstrained draws through the constraint transforms
/// (the same mapping [`Posterior::from_unconstrained`] uses).
fn constrain_chain(slots: &[ParamSlot], draws_u: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    crate::api::constrain_draws(slots, draws_u)
}

/// Assembles a NUTS [`Fit`] from per-chain results arriving in any order:
/// each chain's draws are constrained and handed to the observer as soon
/// as the chain is pushed, then stored in its index slot.
struct NutsFitCollector<'a> {
    slots: &'a [ParamSlot],
    on_chain: &'a mut dyn FnMut(usize, &ChainResult),
    chains: Vec<Option<ChainResult>>,
    cancelled: bool,
}

impl<'a> NutsFitCollector<'a> {
    fn new(
        chains: usize,
        slots: &'a [ParamSlot],
        on_chain: &'a mut dyn FnMut(usize, &ChainResult),
    ) -> Self {
        NutsFitCollector {
            slots,
            on_chain,
            chains: (0..chains).map(|_| None).collect(),
            cancelled: false,
        }
    }

    fn push(&mut self, c: usize, result: NutsResult, wall_time: f64) {
        self.cancelled |= result.cancelled;
        let chain = ChainResult {
            draws: constrain_chain(self.slots, result.draws),
            divergences: result.divergences,
            wall_time,
            n_grad_evals: result.n_grad_evals,
        };
        (self.on_chain)(c, &chain);
        self.chains[c] = Some(chain);
    }

    fn finish(self, names: Vec<String>) -> Fit {
        Fit {
            method: FitMethod::Nuts,
            names,
            chains: self
                .chains
                .into_iter()
                .map(|r| r.expect("every chain reported a result"))
                .collect(),
            wall_time: 0.0,
            variational: None,
            weights: None,
            gq: None,
            cancelled: self.cancelled,
        }
    }
}

fn collect_advi_fit(
    names: Vec<String>,
    slots: &[ParamSlot],
    runs: Vec<(inference::advi::AdviResult, f64)>,
) -> Fit {
    let cancelled = runs.iter().any(|(result, _)| result.cancelled);
    let chains = runs
        .into_iter()
        .map(|(result, wall_time)| ChainResult {
            draws: constrain_chain(slots, result.draws),
            divergences: 0,
            wall_time,
            n_grad_evals: 0,
        })
        .collect();
    Fit {
        method: FitMethod::Advi,
        names,
        chains,
        wall_time: 0.0,
        variational: None,
        weights: None,
        gq: None,
        cancelled,
    }
}

/// Which method produced a [`Fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitMethod {
    /// The No-U-Turn Sampler.
    Nuts,
    /// Mean-field ADVI.
    Advi,
    /// SVI with an explicit guide.
    Svi,
    /// Likelihood-weighting importance sampling.
    Importance,
}

/// One chain's output: constrained draws plus sampler accounting.
#[derive(Debug, Clone)]
pub struct ChainResult {
    /// Constrained draws, one component vector per draw.
    pub draws: Vec<Vec<f64>>,
    /// Divergent transitions after warmup (NUTS only).
    pub divergences: usize,
    /// Wall-clock seconds this chain ran for.
    pub wall_time: f64,
    /// Gradient evaluations this chain performed (NUTS only).
    pub n_grad_evals: usize,
}

/// The unified result of a [`Session::run`]: per-chain posterior draws on
/// the constrained scale, cross-chain convergence diagnostics, and
/// method-specific extras (the fitted guide for SVI, importance weights for
/// likelihood weighting).
#[derive(Debug, Clone)]
pub struct Fit {
    /// The method that produced this fit.
    pub method: FitMethod,
    /// Flat component names (`mu`, `theta[1]`, ...).
    pub names: Vec<String>,
    /// Per-chain results.
    pub chains: Vec<ChainResult>,
    /// Total wall-clock seconds for the whole run (all chains).
    pub wall_time: f64,
    /// The fitted guide (SVI only).
    pub variational: Option<VariationalFit>,
    /// Normalized importance weights of the pre-resampling proposals
    /// (importance sampling only).
    pub weights: Option<Vec<f64>>,
    /// The generated-quantities table, attached by
    /// [`Session::generated_quantities`] (posterior-predictive draws,
    /// pointwise log-likelihoods, ...).
    pub gq: Option<GqTable>,
    /// True when the run stopped early because the session's
    /// [`CancelToken`] fired ([`Session::cancel`]). The chains then hold
    /// the partial prefix completed before the cancellation point — for
    /// NUTS, bitwise identical to the same-seed prefix of a full run.
    pub cancelled: bool,
}

impl Fit {
    /// Number of chains.
    pub fn n_chains(&self) -> usize {
        self.chains.len()
    }

    /// Total divergent transitions across chains.
    pub fn divergences(&self) -> usize {
        self.chains.iter().map(|c| c.divergences).sum()
    }

    /// Total gradient evaluations across chains.
    pub fn n_grad_evals(&self) -> usize {
        self.chains.iter().map(|c| c.n_grad_evals).sum()
    }

    /// All chains' draws pooled, in chain order.
    pub fn pooled_draws(&self) -> Vec<Vec<f64>> {
        self.chains.iter().flat_map(|c| c.draws.clone()).collect()
    }

    /// A human-readable performance profile: this fit's per-chain table
    /// (draws, divergences, gradient evaluations, wall time, gradient
    /// throughput) followed by the inference/compile sections of the
    /// process-wide [`obs`] registry — compile/bind phase timings, DProg
    /// and JIT decline counters, NUTS leapfrog/tree-depth/divergence
    /// telemetry, ADVI/SVI step timings, and workspace-pool gauges.
    ///
    /// The registry sections are *process totals* (every fit and cached
    /// bind since startup), so compare deltas across calls when profiling
    /// one run among many. Remote users get the same registry text over
    /// the wire through the serve tier's `stats` frame.
    pub fn profile(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fit profile — method {:?}, {} chain(s), {:.3}s wall",
            self.method,
            self.chains.len(),
            self.wall_time
        );
        for (index, chain) in self.chains.iter().enumerate() {
            let rate = if chain.wall_time > 0.0 {
                chain.n_grad_evals as f64 / chain.wall_time
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  chain {index}: {} draws, {} divergences, {} grad evals, {:.3}s ({:.0} grads/s)",
                chain.draws.len(),
                chain.divergences,
                chain.n_grad_evals,
                chain.wall_time,
                rate
            );
        }
        let snapshot = obs::global().snapshot().filtered(&[
            "compile.",
            "bind.",
            "dprog.",
            "jit.",
            "nuts.",
            "advi.",
            "svi.",
            "workspace.",
        ]);
        out.push_str("process telemetry (registry totals since startup):\n");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "  {name} = {value}");
        }
        for (name, hist) in &snapshot.histograms {
            if hist.count == 0 {
                continue;
            }
            // Span histograms record nanoseconds; report them as ms.
            if name.ends_with("_ns") {
                let ms = 1e6;
                let _ = writeln!(
                    out,
                    "  {name}: n={} p50={:.3}ms p90={:.3}ms p99={:.3}ms max={:.3}ms",
                    hist.count,
                    hist.p50() / ms,
                    hist.p90() / ms,
                    hist.p99() / ms,
                    hist.max as f64 / ms
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {name}: n={} mean={:.2} p50={:.0} p99={:.0} max={}",
                    hist.count,
                    hist.mean(),
                    hist.p50(),
                    hist.p99(),
                    hist.max
                );
            }
        }
        out
    }

    /// Index of a component by exact name (`"mu"`, `"theta[2]"`).
    fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Pooled chain of one component across all chains.
    pub fn component(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.index_of(name)?;
        Some(
            self.chains
                .iter()
                .flat_map(|c| c.draws.iter().map(move |d| d[idx]))
                .collect(),
        )
    }

    /// Per-chain series of one component.
    pub fn component_chains(&self, name: &str) -> Option<Vec<Vec<f64>>> {
        let idx = self.index_of(name)?;
        Some(
            self.chains
                .iter()
                .map(|c| c.draws.iter().map(|d| d[idx]).collect())
                .collect(),
        )
    }

    /// Cross-chain split-R̂ of one component (near 1 at convergence).
    pub fn split_rhat(&self, name: &str) -> Option<f64> {
        let chains = self.component_chains(name)?;
        let views: Vec<&[f64]> = chains.iter().map(|c| c.as_slice()).collect();
        Some(multi_split_rhat(&views))
    }

    /// The worst (largest) cross-chain split-R̂ over all components.
    pub fn max_split_rhat(&self) -> f64 {
        self.names
            .iter()
            .filter_map(|n| self.split_rhat(n))
            .fold(f64::NAN, f64::max)
    }

    /// Effective sample size of one component, pooled over chains.
    pub fn ess(&self, name: &str) -> Option<f64> {
        let chains = self.component_chains(name)?;
        let views: Vec<&[f64]> = chains.iter().map(|c| c.as_slice()).collect();
        Some(multi_ess(&views))
    }

    /// Rank-normalized split-R̂ of one component (Vehtari et al. 2021): the
    /// maximum of the bulk and folded rank-normalized statistics, robust to
    /// heavy tails and non-normal marginals. Recommended threshold: 1.01.
    pub fn rank_normalized_split_rhat(&self, name: &str) -> Option<f64> {
        let chains = self.component_chains(name)?;
        let views: Vec<&[f64]> = chains.iter().map(|c| c.as_slice()).collect();
        Some(rank_normalized_split_rhat(&views))
    }

    /// The worst (largest) rank-normalized split-R̂ over all components.
    pub fn max_rank_normalized_split_rhat(&self) -> f64 {
        self.names
            .iter()
            .filter_map(|n| self.rank_normalized_split_rhat(n))
            .fold(f64::NAN, f64::max)
    }

    /// Tail effective sample size of one component (Vehtari et al. 2021):
    /// the minimum ESS of the 5% and 95% quantile estimates. Low values
    /// flag unreliable credible-interval endpoints even when the bulk ESS
    /// looks healthy.
    pub fn tail_ess(&self, name: &str) -> Option<f64> {
        let chains = self.component_chains(name)?;
        let views: Vec<&[f64]> = chains.iter().map(|c| c.as_slice()).collect();
        Some(tail_ess(&views))
    }

    /// Per-component posterior summaries over the pooled draws.
    pub fn summaries(&self) -> Vec<(String, Summary)> {
        self.names
            .iter()
            .cloned()
            .zip(summarize(&self.pooled_draws()))
            .collect()
    }

    /// Summary of one component over the pooled draws. Computed from the
    /// single pooled column — no full draw-matrix copy per call.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        let col = self.component(name)?;
        let n = col.len() as f64;
        if col.is_empty() {
            return Some(Summary {
                mean: f64::NAN,
                stddev: f64::NAN,
            });
        }
        let mean = col.iter().sum::<f64>() / n;
        let var = if col.len() > 1 {
            col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Some(Summary {
            mean,
            stddev: var.sqrt(),
        })
    }

    /// Means of every component, in component order.
    pub fn means(&self) -> Vec<f64> {
        summarize(&self.pooled_draws())
            .into_iter()
            .map(|s| s.mean)
            .collect()
    }

    /// Standard deviations of every component, in component order.
    pub fn stddevs(&self) -> Vec<f64> {
        summarize(&self.pooled_draws())
            .into_iter()
            .map(|s| s.stddev)
            .collect()
    }

    /// Effective sample size of the importance weights, `1 / Σ w²`
    /// (importance sampling only).
    pub fn importance_ess(&self) -> Option<f64> {
        let weights = self.weights.as_ref()?;
        Some(
            1.0 / weights
                .iter()
                .map(|w| w * w)
                .sum::<f64>()
                .max(f64::MIN_POSITIVE),
        )
    }

    /// The attached generated-quantities table, if
    /// [`Session::generated_quantities`] has run on this fit.
    pub fn gq(&self) -> Option<&GqTable> {
        self.gq.as_ref()
    }

    /// Pooled posterior-predictive draws of one generated quantity: the
    /// draws × components matrix of every `name[...]` column (or the scalar
    /// `name`). `None` until the GQ table is attached or when no column
    /// matches.
    pub fn posterior_predictive(&self, name: &str) -> Option<Vec<Vec<f64>>> {
        self.gq.as_ref()?.matrix(name)
    }

    /// The pooled pointwise log-likelihood matrix (draws × observations)
    /// from the `log_lik` generated quantity, by the Stan convention.
    /// `None` until the GQ table is attached or when the block defines no
    /// `log_lik`.
    pub fn log_lik(&self) -> Option<Vec<Vec<f64>>> {
        self.gq.as_ref()?.matrix("log_lik")
    }

    /// PSIS-LOO over the attached `log_lik` matrix: `elpd_loo`, its
    /// standard error, `p_loo`, and per-observation Pareto-`k̂`
    /// diagnostics.
    ///
    /// # Errors
    /// [`InferenceError::Usage`] when no GQ table is attached (run
    /// [`Session::generated_quantities`] or [`Session::loo`]) or the block
    /// defines no `log_lik`.
    pub fn loo(&self) -> Result<ElpdEstimate, InferenceError> {
        Ok(psis_loo(&self.require_log_lik()?))
    }

    /// WAIC over the attached `log_lik` matrix.
    ///
    /// # Errors
    /// Same as [`Fit::loo`].
    pub fn waic(&self) -> Result<ElpdEstimate, InferenceError> {
        Ok(waic(&self.require_log_lik()?))
    }

    fn require_log_lik(&self) -> Result<Vec<Vec<f64>>, InferenceError> {
        let ll = self.log_lik().ok_or_else(|| {
            InferenceError::Usage(
                "no pointwise log-likelihood: attach generated quantities and define `log_lik` \
                 in the generated quantities block"
                    .to_string(),
            )
        })?;
        if ll.is_empty() {
            return Err(InferenceError::Usage(
                "the fit has no draws to criticize".to_string(),
            ));
        }
        Ok(ll)
    }

    /// Flattens the fit into the legacy [`Posterior`] shape (pooled draws,
    /// total divergences) for reporting code that predates chain-first
    /// fits.
    pub fn to_posterior(&self) -> Posterior {
        Posterior {
            names: self.names.clone(),
            draws: self.pooled_draws(),
            divergences: self.divergences(),
            wall_time: self.wall_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DeepStan;

    const COIN: &str = r#"
        data { int N; int<lower=0,upper=1> x[N]; }
        parameters { real<lower=0,upper=1> z; }
        model { z ~ beta(1, 1); for (i in 1:N) x[i] ~ bernoulli(z); }
    "#;

    fn coin_data() -> Vec<(&'static str, Value<f64>)> {
        vec![
            ("N", Value::Int(10)),
            ("x", Value::IntArray(vec![1, 1, 1, 0, 1, 0, 1, 1, 0, 1])),
        ]
    }

    #[test]
    fn multi_chain_nuts_recovers_the_conjugate_posterior() {
        let program = DeepStan::compile(COIN).unwrap();
        let fit = program
            .session(&coin_data())
            .unwrap()
            .chains(4)
            .seed(3)
            .run(Method::Nuts(NutsSettings {
                warmup: 200,
                samples: 300,
                ..Default::default()
            }))
            .unwrap();
        assert_eq!(fit.n_chains(), 4);
        assert_eq!(fit.chains[0].draws.len(), 300);
        // Posterior is Beta(8, 4): mean 2/3.
        let s = fit.summary("z").unwrap();
        assert!((s.mean - 2.0 / 3.0).abs() < 0.05, "{}", s.mean);
        let rhat = fit.split_rhat("z").unwrap();
        assert!(rhat < 1.05, "rhat {rhat}");
        assert!(fit.ess("z").unwrap() > 100.0);
        // Chains differ (different seeds) but agree in distribution.
        assert_ne!(fit.chains[0].draws[0], fit.chains[1].draws[0]);
    }

    #[test]
    fn single_chain_matches_across_backends_and_methods() {
        let program = DeepStan::compile(COIN).unwrap();
        let settings = NutsSettings {
            warmup: 200,
            samples: 400,
            seed: 3,
            ..Default::default()
        };
        let compiled = program
            .session(&coin_data())
            .unwrap()
            .run(Method::Nuts(settings.clone()))
            .unwrap();
        let reference = program
            .session(&coin_data())
            .unwrap()
            .reference(true)
            .run(Method::Nuts(settings))
            .unwrap();
        for fit in [&compiled, &reference] {
            let s = fit.summary("z").unwrap();
            assert!((s.mean - 2.0 / 3.0).abs() < 0.05, "{}", s.mean);
        }
        let advi = program
            .session(&coin_data())
            .unwrap()
            .seed(9)
            .run(Method::Advi(AdviConfig {
                steps: 800,
                ..Default::default()
            }))
            .unwrap();
        let s = advi.summary("z").unwrap();
        assert!((s.mean - 2.0 / 3.0).abs() < 0.15, "{}", s.mean);
    }

    #[test]
    fn importance_sampling_weights_the_prior() {
        let program = DeepStan::compile(COIN).unwrap();
        let fit = program
            .session(&coin_data())
            .unwrap()
            .seed(5)
            .scheme(Scheme::Generative)
            .run(Method::Importance(ImportanceSettings { particles: 4000 }))
            .unwrap();
        assert_eq!(fit.method, FitMethod::Importance);
        let s = fit.summary("z").unwrap();
        assert!((s.mean - 2.0 / 3.0).abs() < 0.05, "{}", s.mean);
        assert!(fit.importance_ess().unwrap() > 100.0);
        let w = fit.weights.as_ref().unwrap();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sessions_rebind_on_scheme_change_and_cache_otherwise() {
        let program = DeepStan::compile(COIN).unwrap();
        let mut session = program.session(&coin_data()).unwrap().seed(1);
        let settings = NutsSettings {
            warmup: 100,
            samples: 100,
            ..Default::default()
        };
        let a = session.run(Method::Nuts(settings.clone())).unwrap();
        let b = session
            .run(Method::Importance(ImportanceSettings { particles: 200 }))
            .unwrap();
        assert_eq!(a.names, b.names);
        let mut session = session.scheme(Scheme::Comprehensive);
        let c = session.run(Method::Nuts(settings)).unwrap();
        assert_eq!(c.names, a.names);
    }

    const COIN_GQ: &str = r#"
        data { int N; int<lower=0,upper=1> x[N]; }
        parameters { real<lower=0,upper=1> z; }
        model { z ~ beta(1, 1); for (i in 1:N) x[i] ~ bernoulli(z); }
        generated quantities {
          vector[N] log_lik;
          int x_rep[N];
          for (i in 1:N) log_lik[i] = bernoulli_lpmf(x[i] | z);
          for (i in 1:N) x_rep[i] = bernoulli_rng(z);
        }
    "#;

    #[test]
    fn generated_quantities_stream_over_the_fit_and_support_loo() {
        let program = DeepStan::compile(COIN_GQ).unwrap();
        let mut session = program.session(&coin_data()).unwrap().chains(2).seed(4);
        let mut fit = session
            .run(Method::Nuts(NutsSettings {
                warmup: 150,
                samples: 200,
                ..Default::default()
            }))
            .unwrap();
        session.generated_quantities(&mut fit).unwrap();
        let gq = fit.gq().unwrap();
        assert_eq!(gq.chains.len(), 2);
        assert_eq!(gq.n_draws(), 400);
        assert!(gq.names.contains(&"log_lik[1]".to_string()));
        assert!(gq.names.contains(&"x_rep[10]".to_string()));
        // Posterior-predictive draws are 0/1 coin flips whose mean tracks z.
        let x_rep = fit.posterior_predictive("x_rep").unwrap();
        assert_eq!(x_rep.len(), 400);
        let flat_mean: f64 = x_rep.iter().flat_map(|row| row.iter()).sum::<f64>()
            / (x_rep.len() * x_rep[0].len()) as f64;
        assert!((flat_mean - 2.0 / 3.0).abs() < 0.1, "{flat_mean}");
        // log_lik matches the analytic bernoulli pointwise terms.
        let ll = fit.log_lik().unwrap();
        assert_eq!(ll[0].len(), 10);
        // LOO and WAIC agree with the analytic leave-one-out posterior
        // predictive: p(x_i = 1 | x_{-i}) = (heads_{-i} + 1) / (N - 1 + 2).
        let xs = [1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0];
        let heads: f64 = xs.iter().sum();
        let exact: f64 = xs
            .iter()
            .map(|&x| {
                let p1 = (heads - x + 1.0) / 11.0;
                if x == 1.0 {
                    p1.ln()
                } else {
                    (1.0 - p1).ln()
                }
            })
            .sum();
        let loo = fit.loo().unwrap();
        let w = fit.waic().unwrap();
        assert!((loo.elpd - exact).abs() < 0.35, "{} vs {exact}", loo.elpd);
        assert!((w.elpd - exact).abs() < 0.35, "{} vs {exact}", w.elpd);
        assert!(loo.max_khat() < 0.7, "khat {}", loo.max_khat());
        assert!(loo.p_eff > 0.0 && loo.se > 0.0);
    }

    #[test]
    fn gq_streams_are_reproducible_per_chain_and_draw() {
        let program = DeepStan::compile(COIN_GQ).unwrap();
        let settings = NutsSettings {
            warmup: 100,
            samples: 80,
            ..Default::default()
        };
        let mut s1 = program.session(&coin_data()).unwrap().chains(2).seed(9);
        let mut fit1 = s1.run(Method::Nuts(settings.clone())).unwrap();
        s1.generated_quantities(&mut fit1).unwrap();
        // A fresh session with the same seed reproduces the table exactly.
        let mut s2 = program.session(&coin_data()).unwrap().chains(2).seed(9);
        let mut fit2 = s2.run(Method::Nuts(settings)).unwrap();
        s2.generated_quantities(&mut fit2).unwrap();
        assert_eq!(fit1.gq, fit2.gq);
        // Re-evaluating chain 1's draws alone (chain coordinate preserved in
        // the driver's seeding) gives the same rows as the sharded run: the
        // per-(chain,draw) streams are independent of scheduling.
        let model = program.bind(&coin_data()).unwrap();
        let mut ws = model.gq_workspace().unwrap();
        let mut row = Vec::new();
        model
            .generated_quantities_into(
                &mut ws,
                &fit1.chains[1].draws[5],
                true,
                inference::predictive::draw_seed(9, 1, 5),
                &mut row,
            )
            .unwrap();
        assert_eq!(row, fit1.gq.as_ref().unwrap().chains[1][5]);
    }

    #[test]
    fn prior_predictive_simulates_from_the_prior() {
        let program = DeepStan::compile(COIN_GQ).unwrap();
        let mut session = program.session(&coin_data()).unwrap().seed(11);
        let table = session.prior_predictive(200).unwrap();
        assert_eq!(table.chains.len(), 1);
        assert_eq!(table.n_draws(), 200);
        // Under the uniform prior on z, replicated flips are fair on
        // average.
        let m = table.matrix("x_rep").unwrap();
        let mean: f64 = m.iter().flat_map(|r| r.iter()).sum::<f64>() / (m.len() as f64 * 10.0);
        assert!((mean - 0.5).abs() < 0.1, "{mean}");
    }

    #[test]
    fn predictive_api_misuse_reports_usage_errors() {
        // No GQ block.
        let program = DeepStan::compile(COIN).unwrap();
        let mut session = program.session(&coin_data()).unwrap().seed(1);
        let mut fit = session
            .run(Method::Importance(ImportanceSettings { particles: 50 }))
            .unwrap();
        assert!(matches!(
            session.generated_quantities(&mut fit),
            Err(InferenceError::Usage(_))
        ));
        assert!(matches!(fit.loo(), Err(InferenceError::Usage(_))));
        // GQ block without log_lik: posterior predictive works, loo does
        // not.
        let src = r#"
            data { int N; int<lower=0,upper=1> x[N]; }
            parameters { real<lower=0,upper=1> z; }
            model { z ~ beta(1, 1); for (i in 1:N) x[i] ~ bernoulli(z); }
            generated quantities { real odds; odds = z / (1 - z); }
        "#;
        let program = DeepStan::compile(src).unwrap();
        let mut session = program.session(&coin_data()).unwrap().seed(1);
        let mut fit = session
            .run(Method::Importance(ImportanceSettings { particles: 50 }))
            .unwrap();
        let odds = session.posterior_predictive(&mut fit, "odds").unwrap();
        assert_eq!(odds.len(), 50);
        assert!(matches!(
            session.loo(&mut fit),
            Err(InferenceError::Usage(_))
        ));
    }

    #[test]
    fn idle_cores_decide_the_route_and_claims_come_back() {
        let threads = SamplerThreads::new(2);
        let busy = || threads.busy.load(Ordering::Relaxed);
        {
            // Two chains at 0 busy fit in the two cores: a thread each.
            let (lockstep, _slots) = threads.claim(ChainRoute::ThreadsIfIdle, 2);
            assert!(!lockstep);
            assert_eq!(busy(), 2);
        }
        assert_eq!(busy(), 0);
        let other = threads.hold(1);
        {
            // At 1 busy they do not: lockstep, one thread.
            assert!(threads.try_hold(2).is_none());
            let (lockstep, _slots) = threads.claim(ChainRoute::ThreadsIfIdle, 2);
            assert!(lockstep);
            assert_eq!(busy(), 2);
        }
        drop(other);
        assert_eq!(busy(), 0);
        // Fixed routes claim whatever the load; one chain is one thread.
        for (route, chains, lockstep, held) in [
            (ChainRoute::Threads, 3, false, 3),
            (ChainRoute::Lockstep, 3, true, 1),
            (ChainRoute::Lockstep, 1, false, 1),
            (ChainRoute::ThreadsIfIdle, 1, false, 1),
        ] {
            let (got, _slots) = threads.claim(route, chains);
            assert_eq!(got, lockstep, "{route:?} x{chains}");
            assert_eq!(busy(), held, "{route:?} x{chains}");
        }
        assert_eq!(busy(), 0);
    }

    #[test]
    fn failed_or_panicking_runs_give_their_threads_back() {
        let model = DeepStan::compile(COIN).unwrap().bind(&coin_data()).unwrap();
        let threads = SamplerThreads::new(2);
        let config = NutsConfig {
            warmup: 5,
            samples: 5,
            ..Default::default()
        };
        let run = |route, fail: &(dyn Fn() + Sync)| {
            run_nuts_chains(
                2,
                &config,
                route,
                &threads,
                &|| WorkspaceTarget::new(&model),
                &|_| vec![0.0],
                &|_| {
                    fail();
                    Err(gprob::RuntimeError::new("bad init"))
                },
                &mut |_, _, _| panic!("no chain passes its init check"),
            )
        };
        for route in [
            ChainRoute::Threads,
            ChainRoute::Lockstep,
            ChainRoute::ThreadsIfIdle,
        ] {
            assert!(run(route, &|| {}).is_err(), "{route:?}");
            assert_eq!(threads.busy.load(Ordering::Relaxed), 0, "{route:?}");
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run(route, &|| panic!("init check panicked"))
            }));
            assert!(panicked.is_err(), "{route:?}");
            assert_eq!(threads.busy.load(Ordering::Relaxed), 0, "{route:?}");
        }
    }

    #[test]
    fn evaluation_errors_are_counted_and_the_fit_returns() {
        // The density errors (an out-of-bounds read) wherever mu > 1, and
        // the branch on a parameter keeps the model on the tape path.
        let src = r#"
            data { vector[3] v; }
            parameters { real mu; }
            model {
                mu ~ normal(0, 1);
                if (mu > 1) target += v[5];
            }
        "#;
        let program = DeepStan::compile(src).unwrap();
        let data = [("v", Value::Vector(vec![0.0, 0.0, 0.0]))];
        let counter = |name: &str| obs::global().snapshot().counter(name);
        let errors = || counter("nuts.eval_errors");
        let before = errors();
        let threads_before = counter("nuts.route.threads");
        let fit = program
            .session(&data)
            .unwrap()
            .seed(4)
            .init(Init::Value(vec![0.0]))
            .run(Method::Nuts(NutsSettings {
                warmup: 100,
                samples: 100,
                ..Default::default()
            }))
            .unwrap();
        assert_eq!(fit.chains[0].draws.len(), 100);
        assert!(errors() > before, "{before:?} -> {:?}", errors());
        // A single chain counts as a threads-route run.
        assert!(counter("nuts.route.threads") > threads_before);
    }

    #[test]
    fn svi_without_a_guide_is_a_usage_error() {
        let program = DeepStan::compile(COIN).unwrap();
        let err = program
            .session(&coin_data())
            .unwrap()
            .run(Method::Svi(SviSettings::default()))
            .unwrap_err();
        assert!(matches!(err, InferenceError::Usage(_)));
    }
}
