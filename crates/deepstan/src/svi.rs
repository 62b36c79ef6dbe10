//! Stochastic variational inference with explicit DeepStan guides
//! (Section 5.1) and jointly trained neural networks (Sections 5.2–5.3).
//!
//! The ELBO is the standard reparameterized estimate
//! `E_q[ log p(x, z) − log q(z; φ) ]`: the compiled guide is executed in
//! reparameterized-sampling mode (gradients flow from the guide parameters φ
//! into the sampled `z`), its score is `log q`, and the compiled model is
//! scored against the resulting trace to obtain `log p`. Both run on the
//! slot-resolved runtime: the guide is resolved over the model's frame
//! layout, so its trace frame is directly the model's trace, and both start
//! from the bound model's post-`transformed data` frame. Learnable network
//! parameters (e.g. the VAE encoder/decoder weights) are appended to φ and
//! optimized jointly, exactly as Pyro's `SVI` does.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use gprob::reval::{RCtx, RInterp, RMode};
use gprob::{Frame, GModel, RuntimeError, Value};
use inference::cancel::CancelToken;
use inference::svi::{svi_optimize, AdamConfig};
use minidiff::{grad, tape, Real, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::api::{env_of, CompiledProgram, InferenceError, Posterior};
use crate::networks::NetworkRegistry;
use crate::nn::MlpSpec;
use crate::session::flatten_trace;

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

/// One learnable network weight tensor in the flat φ vector. Guide
/// parameters take the front of φ, laid out by [`GModel::guide_slots`].
#[derive(Debug, Clone)]
struct PhiSlot {
    name: String,
    size: usize,
    offset: usize,
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
    /// registered architecture, if the data cannot be bound, or if the guide
    /// or the model fails to evaluate at the initial parameters.
    pub fn svi(
        &self,
        data: &[(&str, Value<f64>)],
        networks: &[MlpSpec],
        settings: &SviSettings,
    ) -> Result<VariationalFit, InferenceError> {
        let program = &self.comprehensive;
        let model = GModel::new(program.clone(), env_of(data))?;
        let resolved = model.resolved();
        let guide = resolved.guide.as_ref().ok_or_else(no_guide)?;
        for decl in &program.networks {
            if !networks.iter().any(|s| s.name == decl.name) {
                return Err(InferenceError::Usage(format!(
                    "network `{}` is declared but no architecture was supplied",
                    decl.name
                )));
            }
        }

        // Lay out the flat φ vector: guide parameters first, then learnable
        // network parameters (lifted ones are sampled by the guide instead).
        let mut offset: usize = model.guide_slots().iter().map(|s| s.size).sum();
        let mut net_slots: Vec<PhiSlot> = Vec::new();
        for spec in networks {
            for (name, shape) in spec.parameter_shapes() {
                if program.params.iter().any(|p| p.name == name) {
                    continue;
                }
                let size: usize = shape.iter().product();
                net_slots.push(PhiSlot { name, size, offset });
                offset += size;
            }
        }

        // Initialization: zeros for guide parameters, small random values for
        // network weights.
        let mut init = vec![0.0; offset];
        let mut init_rng = StdRng::seed_from_u64(settings.seed.wrapping_add(17));
        for slot in &net_slots {
            let fan = (slot.size as f64).sqrt().max(1.0);
            for x in &mut init[slot.offset..slot.offset + slot.size] {
                *x = probdist::sampling::standard_normal(&mut init_rng) / fan;
            }
        }

        // Data constants carry no tape node, so one lifted frame serves every
        // step.
        let data_frame: Frame<Var> = Frame::lift(model.data_frame());
        // The ELBO `log p(x, z) - log q(z; φ)` at one φ: the guide runs with
        // reparameterized draws (score = log q), then the model scores the
        // guide's trace frame (score = log p).
        let elbo = |phi: &[f64], guide_seed: u64| -> Result<(Var, Vec<Var>), RuntimeError> {
            tape::reset();
            let vars: Vec<Var> = phi.iter().map(|&x| Var::new(x)).collect();
            let mut registry: NetworkRegistry<Var> = NetworkRegistry::new();
            for spec in networks {
                registry.register(spec.clone());
            }
            for slot in &net_slots {
                let values = vars[slot.offset..slot.offset + slot.size].to_vec();
                registry.set_learnable(slot.name.clone(), values);
            }
            let mut guide_frame = data_frame.clone();
            for (slot, &frame_slot) in model.guide_slots().iter().zip(&resolved.guide_param_slots) {
                let values = vars[slot.offset..slot.offset + slot.size]
                    .iter()
                    .map(|&u| slot.constraint.to_constrained(u))
                    .collect();
                guide_frame.set(frame_slot, guide_value(&slot.name, values));
            }
            let ctx = RCtx::new(resolved, &program.functions, &registry);
            let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(guide_seed)));
            let guide_run = RInterp::new(&ctx, RMode::Reparam(rng)).run(guide, &mut guide_frame)?;
            let mut model_frame = data_frame.clone();
            let model_run = RInterp::new(&ctx, RMode::Trace(&guide_run.trace))
                .run(&resolved.body, &mut model_frame)?;
            Ok((model_run.score - guide_run.score, vars))
        };

        // Evaluate once at the initial φ, on a stream of its own so the
        // optimizer's draws are untouched: a guide or model that cannot
        // evaluate is an error, not a run of -inf ELBOs.
        elbo(&init, settings.seed.wrapping_add(29))?;

        let mut objective = |phi: &[f64], rng: &mut StdRng| -> (f64, Vec<f64>) {
            match elbo(phi, rng.gen()) {
                Ok((elbo, vars)) if elbo.value().is_finite() => (elbo.value(), grad(elbo, &vars)),
                Ok((elbo, _)) => (elbo.value(), vec![0.0; phi.len()]),
                Err(_) => (f64::NEG_INFINITY, vec![0.0; phi.len()]),
            }
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
        let phi = &result.params;
        let guide_params = model
            .guide_slots()
            .iter()
            .map(|slot| {
                let values = phi[slot.offset..slot.offset + slot.size]
                    .iter()
                    .map(|&u| slot.constraint.to_constrained(u))
                    .collect();
                (slot.name.clone(), values)
            })
            .collect();
        let network_params = net_slots
            .iter()
            .map(|slot| {
                let values = phi[slot.offset..slot.offset + slot.size].to_vec();
                (slot.name.clone(), values)
            })
            .collect();

        Ok(VariationalFit {
            guide_param_names: model.guide_slots().iter().map(|s| s.name.clone()).collect(),
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
    /// Fails if the program has no guide, the fit lacks a guide parameter,
    /// or evaluation fails.
    pub fn sample_guide(
        &self,
        data: &[(&str, Value<f64>)],
        fit: &VariationalFit,
        networks: &[MlpSpec],
        n: usize,
        seed: u64,
    ) -> Result<Posterior, InferenceError> {
        let program = &self.comprehensive;
        let model = GModel::new(program.clone(), env_of(data))?;
        let resolved = model.resolved();
        let guide = resolved.guide.as_ref().ok_or_else(no_guide)?;

        let mut registry: NetworkRegistry<f64> = NetworkRegistry::new();
        for spec in networks {
            registry.register(spec.clone());
        }
        for (name, values) in &fit.network_params {
            registry.set_learnable(name.clone(), values.clone());
        }
        let mut start = model.data_frame().clone();
        for (slot, &frame_slot) in model.guide_slots().iter().zip(&resolved.guide_param_slots) {
            let values = fit.guide_params.get(&slot.name).ok_or_else(|| {
                InferenceError::Usage(format!("the fit has no guide parameter `{}`", slot.name))
            })?;
            start.set(frame_slot, guide_value(&slot.name, values.clone()));
        }

        let ctx = RCtx::new(resolved, &program.functions, &registry);
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(seed)));
        let mut draws = Vec::with_capacity(n);
        for _ in 0..n {
            let mut frame = start.clone();
            let run = RInterp::new(&ctx, RMode::Prior(rng.clone())).run(guide, &mut frame)?;
            draws.push(flatten_trace(&model, &run.trace)?);
        }
        Ok(Posterior::from_constrained(model.component_names(), draws))
    }
}

fn no_guide() -> InferenceError {
    InferenceError::Usage("this program has no guide block; SVI needs one".to_string())
}

/// The frame value of one guide parameter: a single component binds a real
/// unless the name is dotted (a network weight), anything else a flat
/// vector — elementwise guide statements such as `normal(w1_mu, …)` over an
/// array-shaped site read it flat.
fn guide_value<T: Real>(name: &str, values: Vec<T>) -> Value<T> {
    if values.len() == 1 && !name.contains('.') {
        Value::Real(values[0])
    } else {
        Value::Vector(values)
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

    fn fit(src: &str, steps: usize) -> Result<VariationalFit, InferenceError> {
        let settings = SviSettings {
            steps,
            lr: 0.05,
            seed: 3,
            ..Default::default()
        };
        DeepStan::compile(src).unwrap().svi(&[], &[], &settings)
    }

    #[test]
    fn svi_sees_transformed_data() {
        // Posterior N(c, 0.5^2) with c computed in `transformed data`.
        let fit = fit(
            r#"
            transformed data { real c = 2.0; }
            parameters { real theta; }
            model { theta ~ normal(c, 0.5); }
            guide parameters { real m; real<lower=0> s; }
            guide { theta ~ normal(m, s); }
            "#,
            2000,
        )
        .unwrap();
        assert!(fit.elbo_trace.iter().all(|e| e.is_finite()));
        let (m, s) = (fit.guide_params["m"][0], fit.guide_params["s"][0]);
        assert!((m - 2.0).abs() < 0.3, "m = {m}");
        assert!((s - 0.5).abs() < 0.15, "s = {s}");
    }

    #[test]
    fn row_vector_and_matrix_guide_parameters_keep_every_component() {
        for (param, guide_param) in [
            ("vector[3] theta;", "row_vector[3] m;"),
            ("matrix[3, 1] theta;", "matrix[3, 1] m;"),
        ] {
            let src = format!(
                "parameters {{ {param} }} model {{ theta ~ normal(1, 1); }}
                 guide parameters {{ {guide_param} }} guide {{ theta ~ normal(m, 1); }}"
            );
            let m = &fit(&src, 1500).unwrap().guide_params["m"];
            assert_eq!(m.len(), 3, "{guide_param}");
            for &x in m {
                assert!((x - 1.0).abs() < 0.3, "{guide_param}: {m:?}");
            }
        }
    }

    #[test]
    fn length_one_vector_guide_sites_take_their_mean_element_by_element() {
        // A `vector[1]` site over a `vector[1]` mean (the VAE with nz = 1,
        // whose mean is a network output; a one-component guide parameter
        // itself binds as a scalar).
        let fit = fit(
            r#"
            parameters { vector[1] theta; }
            model { theta ~ normal(1, 1); }
            guide parameters { real m; }
            guide { theta ~ normal(rep_vector(m, 1), 1); }
            "#,
            1500,
        )
        .unwrap();
        assert!(fit.elbo_trace.iter().all(|e| e.is_finite()));
        let m = fit.guide_params["m"][0];
        assert!((m - 1.0).abs() < 0.3, "m = {m}");
    }

    #[test]
    fn svi_reports_evaluation_errors() {
        let err = fit(
            r#"
            parameters { real theta; }
            model { theta ~ normal(0, 1); }
            guide parameters { vector[3] m; }
            guide { theta ~ normal(m[5], 1); }
            "#,
            10,
        )
        .unwrap_err();
        match err {
            InferenceError::Runtime(e) => assert!(e.message().contains("out of bounds"), "{e:?}"),
            other => panic!("expected a runtime error, got {other:?}"),
        }
    }
}
