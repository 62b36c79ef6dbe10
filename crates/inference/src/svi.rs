//! Stochastic variational inference utilities: the Adam optimizer and a
//! generic optimization loop over noisy ELBO gradients.
//!
//! The ELBO itself is assembled by the caller (the `deepstan` crate pairs a
//! compiled model with a compiled guide and differentiates through the
//! reparameterized guide samples); this module only provides the stochastic
//! optimization machinery, mirroring how Pyro's `SVI` object wraps an
//! arbitrary `model`/`guide` pair and an optimizer.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cancel::CancelToken;

/// Adam hyper-parameters.
#[derive(Debug, Clone)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub eps: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// The Adam optimizer state for a flat parameter vector.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: usize,
}

impl Adam {
    /// Creates an optimizer for `dim` parameters.
    pub fn new(dim: usize, config: AdamConfig) -> Self {
        Adam {
            config,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
            t: 0,
        }
    }

    /// Applies one ascent step in place (gradients are of an objective to
    /// *maximize*, e.g. the ELBO).
    pub fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), grad.len());
        self.t += 1;
        let c = &self.config;
        let t = self.t as f64;
        for i in 0..params.len() {
            let g = if grad[i].is_finite() { grad[i] } else { 0.0 };
            self.m[i] = c.beta1 * self.m[i] + (1.0 - c.beta1) * g;
            self.v[i] = c.beta2 * self.v[i] + (1.0 - c.beta2) * g * g;
            let m_hat = self.m[i] / (1.0 - c.beta1.powf(t));
            let v_hat = self.v[i] / (1.0 - c.beta2.powf(t));
            params[i] += c.lr * m_hat / (v_hat.sqrt() + c.eps);
        }
    }
}

/// The result of an SVI optimization run.
#[derive(Debug, Clone)]
pub struct SviResult {
    /// Optimized variational parameters.
    pub params: Vec<f64>,
    /// ELBO trace (one smoothed value per reporting interval).
    pub elbo_trace: Vec<f64>,
    /// True when the optimization stopped early because the caller's
    /// cancel token fired (see [`svi_optimize`]);
    /// `params` then holds the values as of the last completed step.
    pub cancelled: bool,
}

/// Maximizes a stochastic objective (the ELBO) with Adam.
///
/// `objective_grad` receives the current parameters and an RNG (for drawing
/// the Monte-Carlo noise of the reparameterized ELBO estimate) and returns
/// `(elbo_estimate, gradient)`.
///
/// `cancel` is polled once per optimization step (never inside the
/// objective); a fired token stops the loop with the parameters from the
/// last completed step and `cancelled: true`. The token only decides
/// whether the next step runs, so one that never fires changes nothing.
pub fn svi_optimize<F: FnMut(&[f64], &mut StdRng) -> (f64, Vec<f64>)>(
    objective_grad: &mut F,
    init: Vec<f64>,
    steps: usize,
    config: AdamConfig,
    seed: u64,
    cancel: &CancelToken,
) -> SviResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = init;
    let mut adam = Adam::new(params.len(), config);
    let mut elbo_trace = Vec::new();
    let mut running = 0.0;
    let report_every = (steps / 50).max(1);
    let mut step_timer = obs::StepTimer::new("svi.step");
    let mut cancelled = false;
    for step in 0..steps {
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        step_timer.begin();
        let (elbo, grad) = objective_grad(&params, &mut rng);
        adam.step(&mut params, &grad);
        running += elbo;
        step_timer.end();
        if (step + 1) % report_every == 0 {
            elbo_trace.push(running / report_every as f64);
            running = 0.0;
        }
    }
    SviResult {
        params,
        elbo_trace,
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_maximizes_a_quadratic() {
        // Maximize -(x-3)^2 - (y+1)^2.
        let mut params = vec![0.0, 0.0];
        let mut adam = Adam::new(
            2,
            AdamConfig {
                lr: 0.05,
                ..Default::default()
            },
        );
        for _ in 0..2000 {
            let grad = vec![-2.0 * (params[0] - 3.0), -2.0 * (params[1] + 1.0)];
            adam.step(&mut params, &grad);
        }
        assert!((params[0] - 3.0).abs() < 1e-3);
        assert!((params[1] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn adam_ignores_non_finite_gradients() {
        let mut params = vec![1.0];
        let mut adam = Adam::new(1, AdamConfig::default());
        adam.step(&mut params, &[f64::NAN]);
        assert!(params[0].is_finite());
    }

    #[test]
    fn svi_optimize_fits_a_gaussian_mean_field() {
        // Target: theta ~ N(2, 0.5^2). Variational family: N(mu, exp(omega)).
        // The reparameterized ELBO gradient has a closed form here; we just
        // give noisy gradients and check convergence of mu.
        let mut objective = |params: &[f64], rng: &mut StdRng| -> (f64, Vec<f64>) {
            let (mu, omega) = (params[0], params[1]);
            let sigma_q = omega.exp();
            let eps = crate::standard_normal(rng);
            let z = mu + sigma_q * eps;
            // log p(z) for N(2, 0.5), entropy of q added analytically.
            let sd = 0.5;
            let logp = -0.5 * ((z - 2.0) / sd).powi(2);
            let dlogp_dz = -(z - 2.0) / (sd * sd);
            let elbo = logp + omega; // + const entropy
            let grad = vec![dlogp_dz, dlogp_dz * sigma_q * eps + 1.0];
            (elbo, grad)
        };
        let result = svi_optimize(
            &mut objective,
            vec![0.0, 0.0],
            4000,
            AdamConfig {
                lr: 0.02,
                ..Default::default()
            },
            1,
            &CancelToken::new(),
        );
        assert!(
            (result.params[0] - 2.0).abs() < 0.15,
            "mu {}",
            result.params[0]
        );
        assert!(
            (result.params[1].exp() - 0.5).abs() < 0.2,
            "sigma {}",
            result.params[1].exp()
        );
        assert!(!result.elbo_trace.is_empty());
        // The ELBO should improve over the run.
        let first = result.elbo_trace.first().unwrap();
        let last = result.elbo_trace.last().unwrap();
        assert!(last > first);
    }
}
