//! Stochastic variational inference with explicit DeepStan guides
//! (Section 5.1) and jointly trained neural networks (Sections 5.2–5.3).
//!
//! The ELBO is the standard reparameterized estimate
//! `E_q[ log p(x, z) − log q(z; φ) ]`: the compiled guide is executed in
//! reparameterized-sampling mode (gradients flow from the guide parameters φ
//! into the sampled `z`), its score is `log q`, and the compiled model is
//! scored against the resulting trace to obtain `log p`. Learnable network
//! parameters (e.g. the VAE encoder/decoder weights) are appended to φ and
//! optimized jointly, exactly as Pyro's `SVI` does.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use gprob::eval::EvalCtx;
use gprob::interp::{Interp, Mode};
use gprob::value::{lift_env, Env, Value};
use inference::cancel::CancelToken;
use inference::svi::{svi_optimize, AdamConfig};
use minidiff::{grad, tape, Var};
use probdist::Constraint;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::{env_of, CompiledProgram, InferenceError, Posterior};
use crate::networks::NetworkRegistry;
use crate::nn::MlpSpec;

/// SVI settings.
#[derive(Debug, Clone)]
pub struct SviSettings {
    /// Number of Adam steps.
    pub steps: usize,
    /// Learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
    /// Cooperative cancellation, polled once per Adam step. The default
    /// token never cancels; a fired token stops the optimization with the
    /// parameters from the last completed step.
    pub cancel: CancelToken,
}

impl Default for SviSettings {
    fn default() -> Self {
        SviSettings {
            steps: 2000,
            lr: 0.05,
            seed: 0,
            cancel: CancelToken::new(),
        }
    }
}

/// One learnable scalar slot in the flat φ vector.
#[derive(Debug, Clone)]
struct PhiSlot {
    name: String,
    size: usize,
    offset: usize,
    constraint: Constraint,
    /// True when the slot belongs to a guide parameter (inserted into the
    /// guide environment); false for network weights (pushed into the
    /// registry).
    is_guide_param: bool,
}

/// The result of fitting a guide with SVI.
#[derive(Debug, Clone)]
pub struct VariationalFit {
    /// Names of the guide parameters, in declaration order.
    pub guide_param_names: Vec<String>,
    /// Fitted (constrained) guide parameter values, flattened per name.
    pub guide_params: HashMap<String, Vec<f64>>,
    /// Fitted learnable network parameters (VAE encoder/decoder weights).
    pub network_params: HashMap<String, Vec<f64>>,
    /// Smoothed ELBO trace.
    pub elbo_trace: Vec<f64>,
    /// True when the optimization stopped early because
    /// [`SviSettings::cancel`] fired; the fitted values then reflect the
    /// last completed step.
    pub cancelled: bool,
}

impl CompiledProgram {
    /// Fits the program's explicit guide with SVI.
    ///
    /// `networks` lists the architectures of every network declared in the
    /// program's `networks` block (empty when the program uses none).
    ///
    /// # Errors
    /// Fails if the program has no guide, if a network declaration has no
    /// registered architecture, or if evaluation fails.
    pub fn svi(
        &self,
        data: &[(&str, Value<f64>)],
        networks: &[MlpSpec],
        settings: &SviSettings,
    ) -> Result<VariationalFit, InferenceError> {
        let program = &self.comprehensive;
        let guide_body = program.guide_body.clone().ok_or_else(|| {
            InferenceError::Usage("this program has no guide block; SVI needs one".to_string())
        })?;
        for decl in &program.networks {
            if !networks.iter().any(|s| s.name == decl.name) {
                return Err(InferenceError::Usage(format!(
                    "network `{}` is declared but no architecture was supplied",
                    decl.name
                )));
            }
        }

        let data_env: Env<f64> = env_of(data);
        // Which network parameters are lifted (declared in `parameters`)?
        let lifted: Vec<String> = program.params.iter().map(|p| p.name.clone()).collect();

        // Lay out the flat φ vector: guide parameters first, then learnable
        // network parameters.
        let ctx_f64: EvalCtx<f64> = EvalCtx::empty();
        let mut slots: Vec<PhiSlot> = Vec::new();
        let mut offset = 0usize;
        for d in &program.guide_params {
            let mut size = 1usize;
            for dim in &d.dims {
                size *= gprob::eval::eval_expr(dim, &data_env, &ctx_f64)?
                    .as_int()?
                    .max(0) as usize;
            }
            if let stan_frontend::ast::BaseType::Vector(n) = &d.ty {
                size *= gprob::eval::eval_expr(n, &data_env, &ctx_f64)?
                    .as_int()?
                    .max(0) as usize;
            }
            let lower = match &d.constraint.lower {
                Some(e) => Some(gprob::eval::eval_expr(e, &data_env, &ctx_f64)?.as_real()?),
                None => None,
            };
            let upper = match &d.constraint.upper {
                Some(e) => Some(gprob::eval::eval_expr(e, &data_env, &ctx_f64)?.as_real()?),
                None => None,
            };
            slots.push(PhiSlot {
                name: d.name.clone(),
                size,
                offset,
                constraint: Constraint::from_bounds(lower, upper),
                is_guide_param: true,
            });
            offset += size;
        }
        for spec in networks {
            for (pname, shape) in spec.parameter_shapes() {
                if lifted.contains(&pname) {
                    continue; // Bayesian: sampled by the guide, not learned directly.
                }
                let size: usize = shape.iter().product();
                slots.push(PhiSlot {
                    name: pname,
                    size,
                    offset,
                    constraint: Constraint::None,
                    is_guide_param: false,
                });
                offset += size;
            }
        }

        // Initialization: zeros for guide parameters, small random values for
        // network weights.
        let mut init = vec![0.0; offset];
        let mut init_rng = StdRng::seed_from_u64(settings.seed.wrapping_add(17));
        for slot in &slots {
            if !slot.is_guide_param {
                let fan = (slot.size as f64).sqrt().max(1.0);
                for i in 0..slot.size {
                    init[slot.offset + i] =
                        probdist::sampling::standard_normal(&mut init_rng) / fan;
                }
            }
        }

        let model_body = program.body.clone();
        let functions = program.functions.clone();
        let fn_table = gprob::eval::FnTable::new(&functions);
        let specs: Vec<MlpSpec> = networks.to_vec();
        let guide_params_meta = program.guide_params.clone();

        let mut objective = |phi: &[f64], rng: &mut StdRng| -> (f64, Vec<f64>) {
            tape::reset();
            let vars: Vec<Var> = phi.iter().map(|&x| Var::new(x)).collect();

            // Split φ into guide-parameter bindings and network weights.
            let mut registry: NetworkRegistry<Var> = NetworkRegistry::new();
            for spec in &specs {
                registry.register(spec.clone());
            }
            let mut guide_env: Env<Var> = lift_env(&data_env);
            for slot in &slots {
                let values: Vec<Var> = (0..slot.size)
                    .map(|i| slot.constraint.to_constrained(vars[slot.offset + i]))
                    .collect();
                if slot.is_guide_param {
                    let value = if slot.size == 1 && !slot.name.contains('.') {
                        Value::Real(values[0])
                    } else {
                        Value::Vector(values.clone())
                    };
                    guide_env.insert(slot.name.clone(), value);
                } else {
                    registry.set_learnable(slot.name.clone(), values);
                }
            }

            let ctx = EvalCtx::with_table(&functions, &fn_table).externals(&registry);

            // 1. Run the guide with reparameterized sampling: score = log q.
            let seed: u64 = rand::Rng::gen(rng);
            let guide_rng = Rc::new(RefCell::new(StdRng::seed_from_u64(seed)));
            let mut guide_interp = Interp::new(&ctx, Mode::Reparam(guide_rng));
            let mut genv = guide_env.clone();
            let guide_run = match guide_interp.run(&guide_body, &mut genv) {
                Ok(r) => r,
                Err(_) => return (f64::NEG_INFINITY, vec![0.0; phi.len()]),
            };
            let log_q = guide_run.score;

            // 2. Score the model against the guide's trace: score = log p.
            let mut model_env: Env<Var> = lift_env(&data_env);
            let mut model_interp = Interp::new(&ctx, Mode::Trace(&guide_run.trace));
            let log_p = match model_interp.run(&model_body, &mut model_env) {
                Ok(r) => r.score,
                Err(_) => return (f64::NEG_INFINITY, vec![0.0; phi.len()]),
            };

            let elbo = log_p - log_q;
            if !elbo.value().is_finite() {
                return (elbo.value(), vec![0.0; phi.len()]);
            }
            let g = grad(elbo, &vars);
            (elbo.value(), g)
        };

        let result = svi_optimize(
            &mut objective,
            init,
            settings.steps,
            AdamConfig {
                lr: settings.lr,
                ..Default::default()
            },
            settings.seed,
            &settings.cancel,
        );

        // Unpack the optimized φ into named, constrained values.
        let mut guide_params = HashMap::new();
        let mut network_params = HashMap::new();
        for slot in &slots {
            let values: Vec<f64> = (0..slot.size)
                .map(|i| {
                    slot.constraint
                        .to_constrained(result.params[slot.offset + i])
                })
                .collect();
            if slot.is_guide_param {
                guide_params.insert(slot.name.clone(), values);
            } else {
                network_params.insert(slot.name.clone(), values);
            }
        }

        Ok(VariationalFit {
            guide_param_names: guide_params_meta.iter().map(|d| d.name.clone()).collect(),
            guide_params,
            network_params,
            elbo_trace: result.elbo_trace,
            cancelled: result.cancelled,
        })
    }

    /// Draws posterior samples from a fitted guide (the variational
    /// approximation of the model parameters).
    ///
    /// # Errors
    /// Fails if the program has no guide or evaluation fails.
    pub fn sample_guide(
        &self,
        data: &[(&str, Value<f64>)],
        fit: &VariationalFit,
        networks: &[MlpSpec],
        n: usize,
        seed: u64,
    ) -> Result<Posterior, InferenceError> {
        let program = &self.comprehensive;
        let guide_body = program
            .guide_body
            .clone()
            .ok_or_else(|| InferenceError::Usage("this program has no guide block".to_string()))?;
        let data_env: Env<f64> = env_of(data);

        let mut registry: NetworkRegistry<f64> = NetworkRegistry::new();
        for spec in networks {
            registry.register(spec.clone());
        }
        for (name, values) in &fit.network_params {
            registry.set_learnable(name.clone(), values.clone());
        }

        let ctx = EvalCtx::with_functions(&program.functions).externals(&registry);
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(seed)));

        // Component names follow the model's parameter layout.
        let gmodel = gprob::GModel::new(program.clone(), data_env.clone())?;
        let names = gmodel.component_names();

        let mut draws = Vec::with_capacity(n);
        for _ in 0..n {
            let mut env: Env<f64> = data_env.clone();
            for (k, v) in &fit.guide_params {
                let value = if v.len() == 1 {
                    Value::Real(v[0])
                } else {
                    Value::Vector(v.clone())
                };
                env.insert(k.clone(), value);
            }
            let mut interp = Interp::new(&ctx, Mode::Prior(rng.clone()));
            let run = interp.run(&guide_body, &mut env)?;
            let mut flat = Vec::new();
            for slot in gmodel.slots() {
                // A site the guide did not sample contributes `slot.size`
                // NaNs so the flat row stays aligned with the names.
                match run.trace.get(&slot.name) {
                    Some(value) => flat.extend(value.as_real_vec()?),
                    None => flat.extend(std::iter::repeat_n(f64::NAN, slot.size)),
                }
            }
            draws.push(flat);
        }
        Ok(Posterior::from_constrained(names, draws))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DeepStan;

    /// The multimodal model and custom guide of Figure 10.
    const MULTIMODAL: &str = r#"
        parameters { real cluster; real theta; }
        model {
          real mu;
          cluster ~ normal(0, 1);
          if (cluster > 0) mu = 20;
          else mu = 0;
          theta ~ normal(mu, 1);
        }
        guide parameters {
          real m1; real m2;
          real<lower=0> s1; real<lower=0> s2;
        }
        guide {
          cluster ~ normal(0, 1);
          if (cluster > 0) theta ~ normal(m1, s1);
          else theta ~ normal(m2, s2);
        }
    "#;

    #[test]
    fn svi_finds_both_modes_of_the_multimodal_example() {
        let program = DeepStan::compile(MULTIMODAL).unwrap();
        let fit = program
            .svi(
                &[],
                &[],
                &SviSettings {
                    steps: 3000,
                    lr: 0.05,
                    seed: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        let m1 = fit.guide_params["m1"][0];
        let m2 = fit.guide_params["m2"][0];
        // One mean should land near 20, the other near 0 (the guide assigns
        // m1 to the positive-cluster branch, m2 to the negative one).
        let (hi, lo) = if m1 > m2 { (m1, m2) } else { (m2, m1) };
        assert!((hi - 20.0).abs() < 3.0, "hi mode {hi}");
        assert!(lo.abs() < 3.0, "lo mode {lo}");

        // Drawing from the fitted guide produces a bimodal theta sample.
        let posterior = program.sample_guide(&[], &fit, &[], 1000, 7).unwrap();
        let theta = posterior.component("theta").unwrap();
        let near_zero = theta.iter().filter(|&&t| t.abs() < 5.0).count();
        let near_twenty = theta.iter().filter(|&&t| (t - 20.0).abs() < 5.0).count();
        assert!(near_zero > 100, "{near_zero}");
        assert!(near_twenty > 100, "{near_twenty}");
    }

    #[test]
    fn svi_requires_a_guide() {
        let program =
            DeepStan::compile("parameters { real mu; } model { mu ~ normal(0,1); }").unwrap();
        let err = program.svi(&[], &[], &SviSettings::default()).unwrap_err();
        assert!(matches!(err, InferenceError::Usage(_)));
    }

    #[test]
    fn svi_fits_a_conjugate_gaussian_posterior() {
        // y_i ~ N(theta, 1), theta ~ N(0, 1): posterior N(sum(y)/(n+1), 1/(n+1)).
        let src = r#"
            data { int N; real y[N]; }
            parameters { real theta; }
            model { theta ~ normal(0, 1); y ~ normal(theta, 1); }
            guide parameters { real m; real<lower=0> s; }
            guide { theta ~ normal(m, s); }
        "#;
        let program = DeepStan::compile(src).unwrap();
        let y = vec![1.2, 0.8, 1.5, 0.9];
        let data = vec![("N", Value::Int(4)), ("y", Value::Vector(y.clone()))];
        let fit = program
            .svi(
                &data,
                &[],
                &SviSettings {
                    steps: 4000,
                    lr: 0.02,
                    seed: 5,
                    ..Default::default()
                },
            )
            .unwrap();
        let post_mean = y.iter().sum::<f64>() / 5.0;
        let post_sd = (1.0f64 / 5.0).sqrt();
        assert!(
            (fit.guide_params["m"][0] - post_mean).abs() < 0.12,
            "{}",
            fit.guide_params["m"][0]
        );
        assert!(
            (fit.guide_params["s"][0] - post_sd).abs() < 0.2,
            "{}",
            fit.guide_params["s"][0]
        );
        // ELBO improves over training.
        assert!(fit.elbo_trace.last().unwrap() > fit.elbo_trace.first().unwrap());
    }
}
