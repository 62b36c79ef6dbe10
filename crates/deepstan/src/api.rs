//! The high-level DeepStan API: compile once, bind data, run inference
//! through the chain-first [`Session`](crate::session::Session) pipeline.

use std::fmt;
use std::sync::{Arc, OnceLock};

use gprob::model::ParamSlot;
use gprob::value::{Env, RuntimeError, Value};
use gprob::GModel;
use inference::diagnostics::{summarize, Summary};
use inference::target::{GradTargetBatch, GradTargetMut};
use stan2gprob::{compile, CompileError, Scheme};
use stan_frontend::ast::Program;
use stan_frontend::FrontendError;
use stan_ref::StanModel;

/// Process-wide count of front-end compiles ([`DeepStan::compile`] /
/// [`DeepStan::compile_named`]), the parse-and-translate half of the work a
/// compiled-model cache amortizes (the bind half is counted by
/// [`gprob::model::bind_count`]). Lives in the [`obs`] registry as the
/// counter `compile.count`; monotone; compare deltas.
fn compile_counter() -> &'static obs::Counter {
    static COUNTER: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| obs::counter("compile.count"))
}

/// Number of front-end compiles performed by this process so far (the
/// `compile.count` registry counter).
pub fn compile_count() -> u64 {
    compile_counter().get()
}

/// Any error the end-to-end pipeline can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceError {
    /// Lexing, parsing, or semantic checking failed.
    Frontend(FrontendError),
    /// Compilation to GProb failed.
    Compile(CompileError),
    /// The runtime failed while evaluating the model.
    Runtime(RuntimeError),
    /// Misuse of the API (missing guide, wrong scheme, ...).
    Usage(String),
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceError::Frontend(e) => write!(f, "{e}"),
            InferenceError::Compile(e) => write!(f, "{e}"),
            InferenceError::Runtime(e) => write!(f, "{e}"),
            InferenceError::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for InferenceError {}

impl From<FrontendError> for InferenceError {
    fn from(e: FrontendError) -> Self {
        InferenceError::Frontend(e)
    }
}
impl From<CompileError> for InferenceError {
    fn from(e: CompileError) -> Self {
        InferenceError::Compile(e)
    }
}
impl From<RuntimeError> for InferenceError {
    fn from(e: RuntimeError) -> Self {
        InferenceError::Runtime(e)
    }
}

/// Entry point: compiles DeepStan source into a [`CompiledProgram`].
pub struct DeepStan;

impl DeepStan {
    /// Parses, checks and compiles a program with all three schemes.
    ///
    /// # Errors
    /// Returns the first frontend or compilation error. A failure of the
    /// *generative* scheme is not an error (most models are non-generative);
    /// it is recorded as `None`.
    pub fn compile(source: &str) -> Result<CompiledProgram, InferenceError> {
        Self::compile_named("model", source)
    }

    /// Like [`DeepStan::compile`] with an explicit model name (used in code
    /// generation and reports).
    ///
    /// # Errors
    /// Same as [`DeepStan::compile`].
    pub fn compile_named(name: &str, source: &str) -> Result<CompiledProgram, InferenceError> {
        compile_counter().inc();
        let ast = {
            let _span = obs::Span::enter("compile.parse");
            stan_frontend::compile_frontend(source)?
        };
        let _span = obs::Span::enter("compile.translate");
        let comprehensive = compile(&ast, Scheme::Comprehensive)?;
        let mixed = compile(&ast, Scheme::Mixed)?;
        let generative = compile(&ast, Scheme::Generative).ok();
        Ok(CompiledProgram {
            name: name.to_string(),
            ast,
            comprehensive,
            mixed,
            generative,
        })
    }
}

/// A fully compiled program: the checked AST plus the GProb translation under
/// each scheme.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Model name.
    pub name: String,
    /// The type-checked source AST.
    pub ast: Program,
    /// Comprehensive-scheme translation (always available).
    pub comprehensive: gprob::GProbProgram,
    /// Mixed-scheme translation (always available).
    pub mixed: gprob::GProbProgram,
    /// Generative-scheme translation, when the model is generative.
    pub generative: Option<gprob::GProbProgram>,
}

/// Settings for a NUTS run, the payload of
/// [`Method::Nuts`](crate::session::Method::Nuts).
#[derive(Debug, Clone)]
pub struct NutsSettings {
    /// Warmup iterations.
    pub warmup: usize,
    /// Kept draws.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Maximum tree depth.
    pub max_depth: usize,
}

impl Default for NutsSettings {
    fn default() -> Self {
        NutsSettings {
            warmup: 500,
            samples: 500,
            seed: 0,
            max_depth: 10,
        }
    }
}

impl CompiledProgram {
    /// Names of the model parameters.
    pub fn parameter_names(&self) -> Vec<String> {
        self.ast.parameters.iter().map(|d| d.name.clone()).collect()
    }

    /// The GProb translation for a scheme, if available.
    pub fn scheme(&self, scheme: Scheme) -> Option<&gprob::GProbProgram> {
        match scheme {
            Scheme::Comprehensive => Some(&self.comprehensive),
            Scheme::Mixed => Some(&self.mixed),
            Scheme::Generative => self.generative.as_ref(),
        }
    }

    /// Pyro source code for the mixed-scheme translation.
    pub fn to_pyro(&self) -> String {
        stan2gprob::to_pyro(&self.mixed, &self.name)
    }

    /// NumPyro source code for the mixed-scheme translation.
    pub fn to_numpyro(&self) -> String {
        stan2gprob::to_numpyro(&self.mixed, &self.name)
    }

    /// Binds data to the mixed-scheme translation, producing a runnable
    /// [`GModel`].
    ///
    /// # Errors
    /// Fails if shapes or constraint bounds cannot be evaluated.
    pub fn bind(&self, data: &[(&str, Value<f64>)]) -> Result<GModel, InferenceError> {
        self.bind_with(Scheme::Mixed, data)
    }

    /// Binds data to the translation under a specific scheme.
    ///
    /// # Errors
    /// Fails if the scheme is unavailable or shapes cannot be evaluated.
    pub fn bind_with(
        &self,
        scheme: Scheme,
        data: &[(&str, Value<f64>)],
    ) -> Result<GModel, InferenceError> {
        let program = self
            .scheme(scheme)
            .ok_or_else(|| {
                InferenceError::Usage(format!(
                    "the {} scheme is unavailable for this model",
                    scheme.name()
                ))
            })?
            .clone();
        Ok(GModel::new(program, env_of(data))?)
    }

    /// Binds data to the translation under a specific scheme *without*
    /// sweep lowering or batched scoring ([`GModel::new_scalar`]): every
    /// observation evaluates element by element. This is the comparison
    /// configuration used by the sweep differential suite and the
    /// `sweep-vs-scalar` benchmark rows; inference should use
    /// [`CompiledProgram::bind_with`].
    ///
    /// # Errors
    /// Same as [`CompiledProgram::bind_with`].
    pub fn bind_scalar_with(
        &self,
        scheme: Scheme,
        data: &[(&str, Value<f64>)],
    ) -> Result<GModel, InferenceError> {
        let program = self
            .scheme(scheme)
            .ok_or_else(|| {
                InferenceError::Usage(format!(
                    "the {} scheme is unavailable for this model",
                    scheme.name()
                ))
            })?
            .clone();
        Ok(GModel::new_scalar(program, env_of(data))?)
    }

    /// Binds data to the baseline Stan-semantics interpreter.
    ///
    /// # Errors
    /// Fails if shapes cannot be evaluated.
    pub fn bind_reference(&self, data: &[(&str, Value<f64>)]) -> Result<StanModel, InferenceError> {
        Ok(StanModel::new(&self.ast, env_of(data))?)
    }
}

/// [`GradTargetMut`] adapter for the baseline Stan-semantics interpreter.
/// It has no pooled workspace, so it forwards to the allocating path;
/// evaluation errors surface as `-inf` plateaus.
pub struct StanModelTarget<'a>(pub &'a StanModel);

impl GradTargetMut for StanModelTarget<'_> {
    fn logp_grad_into(&mut self, q: &[f64], grad: &mut [f64]) -> f64 {
        match self.0.log_density_and_grad(q) {
            Ok((lp, g)) => {
                grad.copy_from_slice(&g);
                lp
            }
            Err(_) => {
                grad.fill(0.0);
                f64::NEG_INFINITY
            }
        }
    }
}

/// No batched backend either: the default per-point loop keeps the
/// reference interpreter usable from batch-driven samplers, bitwise
/// identically to the single-point path.
impl GradTargetBatch for StanModelTarget<'_> {}

/// Converts a data slice into an environment.
pub fn env_of(data: &[(&str, Value<f64>)]) -> Env<f64> {
    data.iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// A posterior sample over the model parameters, reported on the constrained
/// scale.
#[derive(Debug, Clone)]
pub struct Posterior {
    /// Flat component names (`mu`, `theta[1]`, ...).
    pub names: Vec<String>,
    /// Constrained draws, one vector of components per draw.
    pub draws: Vec<Vec<f64>>,
    /// Number of divergent transitions (NUTS only).
    pub divergences: usize,
    /// Wall-clock inference time in seconds.
    pub wall_time: f64,
}

/// Pushes unconstrained draws through each parameter's constraint
/// transform — the single implementation shared by [`Posterior`] and the
/// chain-first `Fit` collection.
pub fn constrain_draws(slots: &[ParamSlot], draws_u: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    draws_u
        .into_iter()
        .map(|d| {
            let mut c = Vec::with_capacity(d.len());
            for slot in slots {
                for i in 0..slot.size {
                    c.push(slot.constraint.to_constrained(d[slot.offset + i]));
                }
            }
            c
        })
        .collect()
}

impl Posterior {
    /// Builds a posterior from unconstrained draws by pushing every component
    /// through its constraint transform.
    pub fn from_unconstrained(
        names: Vec<String>,
        slots: &[ParamSlot],
        draws_u: Vec<Vec<f64>>,
        divergences: usize,
        wall_time: f64,
    ) -> Self {
        Posterior {
            names,
            draws: constrain_draws(slots, draws_u),
            divergences,
            wall_time,
        }
    }

    /// Builds a posterior directly from constrained draws.
    pub fn from_constrained(names: Vec<String>, draws: Vec<Vec<f64>>) -> Self {
        Posterior {
            names,
            draws,
            divergences: 0,
            wall_time: 0.0,
        }
    }

    /// Per-component posterior summaries in component order.
    pub fn summaries(&self) -> Vec<(String, Summary)> {
        self.names
            .iter()
            .cloned()
            .zip(summarize(&self.draws))
            .collect()
    }

    /// Summary of one component by exact name (`"mu"`, `"theta[2]"`).
    pub fn summary(&self, name: &str) -> Option<Summary> {
        let idx = self.names.iter().position(|n| n == name)?;
        Some(summarize(&self.draws)[idx].clone())
    }

    /// The chain of one component.
    pub fn component(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.names.iter().position(|n| n == name)?;
        Some(self.draws.iter().map(|d| d[idx]).collect())
    }

    /// Means of every component, in component order.
    pub fn means(&self) -> Vec<f64> {
        summarize(&self.draws).into_iter().map(|s| s.mean).collect()
    }

    /// Standard deviations of every component, in component order.
    pub fn stddevs(&self) -> Vec<f64> {
        summarize(&self.draws)
            .into_iter()
            .map(|s| s.stddev)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn end_to_end_coin_posterior_matches_conjugate_answer() {
        use crate::session::Method;
        let program = DeepStan::compile(COIN).unwrap();
        let settings = NutsSettings {
            warmup: 200,
            samples: 400,
            seed: 3,
            ..Default::default()
        };
        // Posterior is Beta(8, 4): mean 2/3, sd ~ 0.1307.
        for scheme in [Scheme::Comprehensive, Scheme::Mixed, Scheme::Generative] {
            let fit = program
                .session(&coin_data())
                .unwrap()
                .scheme(scheme)
                .run(Method::Nuts(settings.clone()))
                .unwrap();
            let s = fit.summary("z").unwrap();
            assert!((s.mean - 2.0 / 3.0).abs() < 0.05, "{scheme:?}: {}", s.mean);
            assert!((s.stddev - 0.1307).abs() < 0.05, "{scheme:?}: {}", s.stddev);
        }
        let reference = program
            .session(&coin_data())
            .unwrap()
            .reference(true)
            .run(Method::Nuts(settings))
            .unwrap();
        let s = reference.summary("z").unwrap();
        assert!((s.mean - 2.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn python_backends_are_exposed() {
        let program = DeepStan::compile(COIN).unwrap();
        assert!(program.to_pyro().contains("pyro.sample"));
        assert!(program.to_numpyro().contains("numpyro"));
        assert!(program.generative.is_some());
        assert_eq!(program.parameter_names(), vec!["z"]);
    }

    #[test]
    fn compile_errors_are_propagated() {
        let err = DeepStan::compile("data { int N; }").unwrap_err();
        assert!(matches!(err, InferenceError::Frontend(_)));
        let err = DeepStan::compile("parameters { real s; } model { s ~ normal(0,1) T[0,]; }")
            .unwrap_err();
        assert!(matches!(err, InferenceError::Compile(_)));
    }

    #[test]
    fn runtime_errors_surface_from_nuts() {
        // cov_exp_quad is in the type checker's table but not the runtime —
        // the same class of failure as accel_gp/gp_regr in the paper.
        let src = r#"
            data { int N; real y[N]; }
            parameters { real mu; }
            model {
              real k;
              k = sum(cov_exp_quad(y, 1.0, 1.0));
              y ~ normal(mu + k, 1);
            }
        "#;
        let program = DeepStan::compile(src).unwrap();
        let data = vec![("N", Value::Int(2)), ("y", Value::Vector(vec![0.0, 1.0]))];
        let err = program
            .session(&data)
            .unwrap()
            .run(crate::session::Method::Nuts(NutsSettings::default()))
            .unwrap_err();
        assert!(matches!(err, InferenceError::Runtime(_)));
    }

    #[test]
    fn advi_runs_on_the_coin_model() {
        let program = DeepStan::compile(COIN).unwrap();
        let fit = program
            .session(&coin_data())
            .unwrap()
            .run(crate::session::Method::Advi(inference::advi::AdviConfig {
                steps: 800,
                seed: 9,
                ..Default::default()
            }))
            .unwrap();
        let s = fit.summary("z").unwrap();
        assert!((s.mean - 2.0 / 3.0).abs() < 0.15, "{}", s.mean);
    }
}
