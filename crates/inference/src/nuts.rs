//! The No-U-Turn Sampler (NUTS).
//!
//! This is the multinomial NUTS variant with dual-averaging step-size
//! adaptation and diagonal mass-matrix estimation during warmup — the
//! algorithm Stan, Pyro and NumPyro all use as their default and the one the
//! paper's evaluation runs on every backend.
//!
//! One engine implements the algorithm: a per-chain state machine that
//! parks on each gradient evaluation it needs and resumes when the answer
//! arrives. Two drivers feed it: [`nuts_sample`] answers one chain's
//! pending points one at a time through [`GradTargetMut::logp_grad_into`]
//! (one target instance per chain, shardable over threads), and
//! [`nuts_sample_lockstep`] gathers C chains' pending points into one
//! [`GradTargetBatch::logp_grad_batch`] call so lane-widened density
//! programs score all chains per sweep. A chain's RNG stream and arithmetic
//! do not depend on the driver, so chain c of a lockstep run is bitwise
//! identical to [`nuts_sample`] with the same config.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cancel::CancelToken;
use crate::standard_normal;
use crate::target::{GradTargetBatch, GradTargetMut};

/// NUTS configuration.
#[derive(Debug, Clone)]
pub struct NutsConfig {
    /// Number of warmup (adaptation) iterations, discarded from the output.
    pub warmup: usize,
    /// Number of post-warmup draws to keep.
    pub samples: usize,
    /// Maximum tree depth (Stan's default is 10).
    pub max_depth: usize,
    /// Target Metropolis acceptance statistic (Stan's default 0.8).
    pub target_accept: f64,
    /// Initial step size.
    pub init_step_size: f64,
    /// RNG seed.
    pub seed: u64,
    /// Cooperative cancellation, polled by the chain state machine at the
    /// top of every iteration (never inside a gradient evaluation or a
    /// tree). The default token never cancels. A chain that observes
    /// cancellation stops before its next iteration, so the draws it has
    /// already produced are the bitwise prefix of an uncancelled same-seed
    /// run, whichever driver ran it. [`nuts_sample`] returns when its chain
    /// stops; [`nuts_sample_lockstep`] returns when every chain has stopped,
    /// each at its own next iteration boundary.
    pub cancel: CancelToken,
}

impl Default for NutsConfig {
    fn default() -> Self {
        NutsConfig {
            warmup: 500,
            samples: 500,
            max_depth: 10,
            target_accept: 0.8,
            init_step_size: 0.1,
            seed: 0,
            cancel: CancelToken::new(),
        }
    }
}

/// The output of a NUTS run.
#[derive(Debug, Clone)]
pub struct NutsResult {
    /// Post-warmup draws on the unconstrained scale (one vector per draw).
    pub draws: Vec<Vec<f64>>,
    /// Number of divergent transitions after warmup.
    pub divergences: usize,
    /// Adapted step size.
    pub step_size: f64,
    /// Mean acceptance statistic after warmup.
    pub mean_accept: f64,
    /// Total number of log-density gradient evaluations.
    pub n_grad_evals: usize,
    /// True when the chain stopped early because its
    /// [`NutsConfig::cancel`] token fired; `draws` then holds the partial
    /// prefix completed before the cancellation point.
    pub cancelled: bool,
}

struct State {
    q: Vec<f64>,
    p: Vec<f64>,
    logp: f64,
    grad: Vec<f64>,
}

/// Per-chain telemetry accumulated in plain locals and flushed into the
/// global [`obs`] registry once at chain end — the leapfrog/gradient path
/// itself carries no instrumentation (the `obs` overhead contract), and
/// the flush is counters/gauges only (no timing), so it is always live.
///
/// Registry surface: `nuts.chains` / `nuts.leapfrogs` /
/// `nuts.divergences` counters, the `nuts.tree_depth` histogram (tree
/// doublings entered per iteration), and the `nuts.step_size` gauge (the
/// most recently finished chain's adapted step size).
struct ChainTelemetry {
    leapfrogs: u64,
    /// Iteration counts by tree depth entered; NUTS depths are single
    /// digits in practice and `max_depth` is bounded far below 64.
    depths: [u64; 64],
}

impl ChainTelemetry {
    fn new() -> Self {
        ChainTelemetry {
            leapfrogs: 0,
            depths: [0; 64],
        }
    }

    fn record_iteration(&mut self, depth_entered: usize, n_leapfrog: usize) {
        self.leapfrogs += n_leapfrog as u64;
        self.depths[depth_entered.min(63)] += 1;
    }

    fn flush(&self, divergences: usize, step_size: f64) {
        obs::counter("nuts.chains").inc();
        obs::counter("nuts.leapfrogs").add(self.leapfrogs);
        obs::counter("nuts.divergences").add(divergences as u64);
        obs::gauge("nuts.step_size").set(step_size);
        let hist = obs::histogram("nuts.tree_depth");
        for (depth, &n) in self.depths.iter().enumerate() {
            hist.record_n(depth as u64, n);
        }
    }
}

/// Dual-averaging step-size adaptation (Hoffman & Gelman 2014, Algorithm 5).
struct DualAveraging {
    mu: f64,
    log_eps: f64,
    log_eps_bar: f64,
    h_bar: f64,
    gamma: f64,
    t0: f64,
    kappa: f64,
    counter: usize,
}

impl DualAveraging {
    fn new(init_step: f64) -> Self {
        DualAveraging {
            mu: (10.0 * init_step).ln(),
            log_eps: init_step.ln(),
            log_eps_bar: 0.0,
            h_bar: 0.0,
            gamma: 0.05,
            t0: 10.0,
            kappa: 0.75,
            counter: 0,
        }
    }

    fn update(&mut self, accept_prob: f64, target: f64) {
        self.counter += 1;
        let m = self.counter as f64;
        let w = 1.0 / (m + self.t0);
        self.h_bar = (1.0 - w) * self.h_bar + w * (target - accept_prob);
        self.log_eps = self.mu - (m.sqrt() / self.gamma) * self.h_bar;
        let weight = m.powf(-self.kappa);
        self.log_eps_bar = weight * self.log_eps + (1.0 - weight) * self.log_eps_bar;
    }

    fn current(&self) -> f64 {
        self.log_eps.exp()
    }

    fn adapted(&self) -> f64 {
        self.log_eps_bar.exp()
    }
}

/// Runs one NUTS chain on a [`GradTargetMut`]. Constrained models should
/// wrap their density with the appropriate transform (as `gprob::GModel`
/// does); plain closures returning `(log p, ∇ log p)` work through the
/// `&closure` adapter (`nuts_sample(&mut &target, ..)`).
///
/// This is the chain state machine of [`nuts_sample_lockstep`] at width 1:
/// every pending point goes through [`GradTargetMut::logp_grad_into`], so a
/// workspace-backed target keeps its routed single-point gradient (native
/// code when the model has it) and evaluates without per-step allocation.
pub fn nuts_sample<T: GradTargetMut + ?Sized>(
    target: &mut T,
    init: Vec<f64>,
    config: &NutsConfig,
) -> NutsResult {
    let mut grad = vec![0.0; init.len()];
    let mut chain = Chain::new(init, config.clone());
    while !chain.done {
        let lp = target.logp_grad_into(&chain.pending_q, &mut grad);
        chain.on_reply(lp, &grad);
    }
    chain.finish()
}

fn kinetic(p: &[f64], inv_mass: &[f64]) -> f64 {
    0.5 * p
        .iter()
        .zip(inv_mass)
        .map(|(pi, im)| pi * pi * im)
        .sum::<f64>()
}

fn uturn(minus: &State, plus: &State, inv_mass: &[f64]) -> bool {
    let (mut forward, mut backward) = (0.0, 0.0);
    for (i, im) in inv_mass.iter().enumerate() {
        let d = plus.q[i] - minus.q[i];
        forward += d * plus.p[i] * im;
        backward += d * minus.p[i] * im;
    }
    forward < 0.0 || backward < 0.0
}

fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let m = a.max(b);
    m + ((a - m).exp() + (b - m).exp()).ln()
}

/// Runs `inits.len()` NUTS chains in *lockstep* over one shared
/// [`GradTargetBatch`]: each chain is an explicit state machine that parks on
/// its next gradient evaluation, and every round the driver gathers all
/// non-finished chains' pending points into a single
/// [`GradTargetBatch::logp_grad_batch`] call. Lane-widened density programs
/// (`gprob::dprog`) then score the whole fleet with one struct-of-arrays
/// forward/reverse sweep per lane group instead of one interpreter walk per
/// chain.
///
/// Chain `c` runs the same state machine on its private RNG
/// (`configs[c].seed`) as [`nuts_sample`] does, so each result is bitwise
/// identical to a single-chain run. Chains may differ in warmup length,
/// depth, or seed; a chain that finishes (or observes cancellation) early
/// simply drops out of subsequent batches.
///
/// Panics when `inits` and `configs` differ in length or the initial points
/// differ in dimension (the batch layout is row-major with one shared `dim`).
pub fn nuts_sample_lockstep<T: GradTargetBatch + ?Sized>(
    target: &mut T,
    inits: Vec<Vec<f64>>,
    configs: &[NutsConfig],
) -> Vec<NutsResult> {
    assert_eq!(
        inits.len(),
        configs.len(),
        "one NutsConfig per initial point"
    );
    let n = inits.len();
    if n == 0 {
        return Vec::new();
    }
    let dim = inits[0].len();
    assert!(
        inits.iter().all(|q| q.len() == dim),
        "all chains must share one dimension"
    );

    let mut chains: Vec<Chain> = inits
        .into_iter()
        .zip(configs)
        .map(|(init, cfg)| Chain::new(init, cfg.clone()))
        .collect();

    let mut qs: Vec<f64> = Vec::with_capacity(n * dim);
    let mut active: Vec<usize> = Vec::with_capacity(n);
    let mut logps = vec![0.0; n];
    let mut grads = vec![0.0; n * dim];
    loop {
        qs.clear();
        active.clear();
        for (c, chain) in chains.iter().enumerate() {
            if !chain.done {
                active.push(c);
                qs.extend_from_slice(&chain.pending_q);
            }
        }
        if active.is_empty() {
            break;
        }
        let m = active.len();
        target.logp_grad_batch(&qs, &mut logps[..m], &mut grads[..m * dim]);
        for (slot, &c) in active.iter().enumerate() {
            chains[c].on_reply(logps[slot], &grads[slot * dim..(slot + 1) * dim]);
        }
    }
    chains.into_iter().map(Chain::finish).collect()
}

/// Where a chain is parked while it waits for its pending gradient
/// evaluation. Every non-`Idle` variant owes the chain exactly one reply for
/// the point currently in `Chain::pending_q`.
enum Phase {
    /// Transient placeholder while a reply is being applied.
    Idle,
    /// Waiting on the initial density evaluation at the chain's init point.
    Init,
    /// Inside the initial step-size heuristic's doubling/halving probe loop.
    FindStep(FindStep),
    /// Inside one iteration's tree doubling, mid-subtree.
    Tree(Box<TreeWalk>),
}

/// Suspended state of the initial step-size heuristic (Hoffman & Gelman
/// 2014): double or halve the step size until the acceptance probability
/// of one leapfrog step crosses 0.5.
struct FindStep {
    eps: f64,
    direction: f64,
    /// Probes issued after the first trial step (at most 50).
    attempts: usize,
    /// True until the pre-loop trial step's reply has been handled.
    first: bool,
    joint0: f64,
    state: State,
}

/// Suspended state of one NUTS iteration's multinomial tree doubling: the
/// trajectory's two edges and current proposal, plus the position within
/// the subtree being built (`step_i` of `n_steps` leapfrogs at `depth`).
struct TreeWalk {
    joint0: f64,
    state_minus: State,
    state_plus: State,
    q_new: Vec<f64>,
    logp_new: f64,
    grad_new: Vec<f64>,
    log_sum_weight: f64,
    sum_accept: f64,
    n_leapfrog: usize,
    depth: usize,
    go_right: bool,
    log_sum_weight_subtree: f64,
    q_prop: Vec<f64>,
    logp_prop: f64,
    grad_prop: Vec<f64>,
    n_steps: usize,
    step_i: usize,
    n_kept: f64,
}

impl TreeWalk {
    fn new(dim: usize) -> Self {
        let state = || State {
            q: vec![0.0; dim],
            p: vec![0.0; dim],
            logp: 0.0,
            grad: vec![0.0; dim],
        };
        TreeWalk {
            joint0: 0.0,
            state_minus: state(),
            state_plus: state(),
            q_new: vec![0.0; dim],
            logp_new: 0.0,
            grad_new: vec![0.0; dim],
            log_sum_weight: 0.0,
            sum_accept: 0.0,
            n_leapfrog: 0,
            depth: 0,
            go_right: false,
            log_sum_weight_subtree: f64::NEG_INFINITY,
            q_prop: vec![0.0; dim],
            logp_prop: 0.0,
            grad_prop: vec![0.0; dim],
            n_steps: 0,
            step_i: 0,
            n_kept: 0.0,
        }
    }
}

/// One NUTS chain as a state machine, advanced one gradient reply at a
/// time by either driver. Every leapfrog step is split into a position
/// half-step (publishing `pending_q`) and a momentum half-step (applied
/// when the driver answers with that point's density and gradient).
struct Chain {
    cfg: NutsConfig,
    rng: StdRng,
    dim: usize,
    n_grad_evals: usize,
    q: Vec<f64>,
    grad: Vec<f64>,
    logp: f64,
    inv_mass: Vec<f64>,
    welford_mean: Vec<f64>,
    welford_m2: Vec<f64>,
    welford_n: usize,
    da: DualAveraging,
    step_size: f64,
    draws: Vec<Vec<f64>>,
    divergences: usize,
    accept_sum: f64,
    accept_count: usize,
    iter: usize,
    telemetry: ChainTelemetry,
    phase: Phase,
    /// The last finished iteration's tree walk, kept so the next iteration
    /// reuses its buffers instead of allocating.
    spare_walk: Option<Box<TreeWalk>>,
    /// The point whose `(log p, ∇ log p)` the chain is waiting on; gathered
    /// by the driver whenever `done` is false.
    pending_q: Vec<f64>,
    done: bool,
    cancelled: bool,
}

impl Chain {
    fn new(init: Vec<f64>, cfg: NutsConfig) -> Self {
        let dim = init.len();
        let rng = StdRng::seed_from_u64(cfg.seed);
        let pending_q = init.clone();
        let da = DualAveraging::new(cfg.init_step_size);
        let step_size = cfg.init_step_size;
        Chain {
            cfg,
            rng,
            dim,
            n_grad_evals: 0,
            grad: vec![0.0; dim],
            q: init,
            logp: f64::NEG_INFINITY,
            inv_mass: vec![1.0; dim],
            welford_mean: vec![0.0; dim],
            welford_m2: vec![0.0; dim],
            welford_n: 0,
            da,
            step_size,
            draws: Vec::new(),
            divergences: 0,
            accept_sum: 0.0,
            accept_count: 0,
            iter: 0,
            telemetry: ChainTelemetry::new(),
            phase: Phase::Init,
            spare_walk: None,
            pending_q,
            done: false,
            cancelled: false,
        }
    }

    /// Applies the driver's answer for this chain's pending point
    /// and advances the state machine until it either parks on the next
    /// pending evaluation or finishes the chain.
    fn on_reply(&mut self, lp: f64, grad_in: &[f64]) {
        self.n_grad_evals += 1;
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => unreachable!("NUTS chain got a reply with no pending evaluation"),
            Phase::Init => {
                // A NaN density at the init point becomes -inf with a
                // zeroed gradient.
                if lp.is_nan() {
                    self.logp = f64::NEG_INFINITY;
                    self.grad.fill(0.0);
                } else {
                    self.logp = lp;
                    self.grad.copy_from_slice(grad_in);
                }
                self.begin_find_step();
            }
            Phase::FindStep(fs) => self.find_step_reply(fs, lp, grad_in),
            Phase::Tree(tw) => self.tree_reply(tw, lp, grad_in),
        }
    }

    fn draw_momentum(&mut self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.dim);
        for i in 0..self.dim {
            p.push(standard_normal(&mut self.rng) / self.inv_mass[i].sqrt());
        }
        p
    }

    /// First half of a leapfrog step: momentum half-step off the stored gradient,
    /// full position step, and publication of the new position as this
    /// chain's pending evaluation.
    fn leapfrog_begin(&mut self, s: &mut State, eps: f64) {
        for (p, g) in s.p.iter_mut().zip(&s.grad) {
            *p += 0.5 * eps * g;
        }
        for ((q, im), p) in s.q.iter_mut().zip(&self.inv_mass).zip(&s.p) {
            *q += eps * im * p;
        }
        self.pending_q.clear();
        self.pending_q.extend_from_slice(&s.q);
    }

    fn begin_find_step(&mut self) {
        let eps = self.cfg.init_step_size;
        let p = self.draw_momentum();
        let joint0 = self.logp - kinetic(&p, &self.inv_mass);
        let mut state = State {
            q: self.q.clone(),
            p,
            logp: self.logp,
            grad: self.grad.clone(),
        };
        self.leapfrog_begin(&mut state, eps);
        self.phase = Phase::FindStep(FindStep {
            eps,
            direction: 0.0,
            attempts: 0,
            first: true,
            joint0,
            state,
        });
    }

    fn find_step_reply(&mut self, mut fs: FindStep, lp: f64, grad_in: &[f64]) {
        leapfrog_finish(&mut fs.state, fs.eps, lp, grad_in);
        let joint = fs.state.logp - kinetic(&fs.state.p, &self.inv_mass);
        let delta = joint - fs.joint0;
        if fs.first {
            if !delta.is_finite() {
                // Unclamped: a non-finite first probe falls back to a tenth
                // of the configured initial step.
                self.finish_find_step((self.cfg.init_step_size * 0.1).max(1e-6));
                return;
            }
            fs.direction = if delta > (-0.693) { 1.0 } else { -1.0 };
            fs.first = false;
            self.find_step_probe(fs);
            return;
        }
        if !delta.is_finite() {
            let eps = fs.eps * 0.5;
            self.finish_find_step(eps.clamp(1e-8, 10.0));
            return;
        }
        let crossed =
            (fs.direction > 0.0 && delta < -0.693) || (fs.direction < 0.0 && delta > -0.693);
        if crossed || fs.attempts >= 50 {
            self.finish_find_step(fs.eps.clamp(1e-8, 10.0));
            return;
        }
        self.find_step_probe(fs);
    }

    /// Issues the next doubling/halving probe: scale `eps`, draw a fresh
    /// momentum, restart from the chain's current point.
    fn find_step_probe(&mut self, mut fs: FindStep) {
        fs.attempts += 1;
        fs.eps *= 2f64.powf(fs.direction);
        let p = self.draw_momentum();
        fs.joint0 = self.logp - kinetic(&p, &self.inv_mass);
        fs.state.q.copy_from_slice(&self.q);
        fs.state.p = p;
        fs.state.logp = self.logp;
        fs.state.grad.copy_from_slice(&self.grad);
        let eps = fs.eps;
        self.leapfrog_begin(&mut fs.state, eps);
        self.phase = Phase::FindStep(fs);
    }

    fn finish_find_step(&mut self, eps: f64) {
        self.da = DualAveraging::new(eps);
        self.step_size = self.da.current();
        self.run_iterations();
    }

    /// Starts iterations until one parks on a tree leapfrog or the chain is
    /// out of iterations. The loop (rather than recursion) covers
    /// `max_depth == 0`, where whole iterations complete without any
    /// evaluation.
    ///
    /// The top of an iteration is also where the chain polls
    /// [`NutsConfig::cancel`]: a cancelled chain keeps only fully completed
    /// iterations, so its draws stay a bitwise prefix of the uncancelled
    /// run under either driver.
    fn run_iterations(&mut self) {
        loop {
            let total = self.cfg.warmup + self.cfg.samples;
            if self.iter >= total {
                self.done = true;
                return;
            }
            if self.cfg.cancel.is_cancelled() {
                self.cancelled = true;
                self.done = true;
                return;
            }
            let mut tw = self.make_tree_walk();
            if tw.depth < self.cfg.max_depth {
                self.init_subtree(&mut tw);
                self.begin_edge_leapfrog(&mut tw);
                self.phase = Phase::Tree(tw);
                return;
            }
            self.apply_iteration_end(tw, false, 0);
        }
    }

    /// Sets up one iteration's tree walk from the chain's current point and
    /// a fresh momentum, reusing the previous iteration's buffers.
    fn make_tree_walk(&mut self) -> Box<TreeWalk> {
        let mut tw = self
            .spare_walk
            .take()
            .unwrap_or_else(|| Box::new(TreeWalk::new(self.dim)));
        let walk = &mut *tw;
        for (p, im) in walk.state_minus.p.iter_mut().zip(&self.inv_mass) {
            *p = standard_normal(&mut self.rng) / im.sqrt();
        }
        walk.joint0 = self.logp - kinetic(&walk.state_minus.p, &self.inv_mass);
        walk.state_plus.p.copy_from_slice(&walk.state_minus.p);
        for edge in [&mut walk.state_minus, &mut walk.state_plus] {
            edge.q.copy_from_slice(&self.q);
            edge.logp = self.logp;
            edge.grad.copy_from_slice(&self.grad);
        }
        walk.q_new.copy_from_slice(&self.q);
        walk.logp_new = self.logp;
        walk.grad_new.copy_from_slice(&self.grad);
        walk.log_sum_weight = 0.0;
        walk.sum_accept = 0.0;
        walk.n_leapfrog = 0;
        walk.depth = 0;
        tw
    }

    /// Per-depth setup before each tree doubling.
    fn init_subtree(&mut self, tw: &mut TreeWalk) {
        tw.go_right = self.rng.gen::<bool>();
        tw.log_sum_weight_subtree = f64::NEG_INFINITY;
        tw.q_prop.copy_from_slice(&tw.q_new);
        tw.logp_prop = tw.logp_new;
        tw.grad_prop.copy_from_slice(&tw.grad_new);
        tw.n_steps = 1usize << tw.depth;
        tw.step_i = 0;
        tw.n_kept = 0.0;
    }

    fn begin_edge_leapfrog(&mut self, tw: &mut TreeWalk) {
        let dir = if tw.go_right { 1.0 } else { -1.0 };
        let eps = dir * self.step_size;
        let edge = if tw.go_right {
            &mut tw.state_plus
        } else {
            &mut tw.state_minus
        };
        self.leapfrog_begin(edge, eps);
    }

    fn tree_reply(&mut self, mut tw: Box<TreeWalk>, lp: f64, grad_in: &[f64]) {
        let dir = if tw.go_right { 1.0 } else { -1.0 };
        let eps = dir * self.step_size;
        {
            let edge = if tw.go_right {
                &mut tw.state_plus
            } else {
                &mut tw.state_minus
            };
            leapfrog_finish(edge, eps, lp, grad_in);
        }
        tw.n_leapfrog += 1;
        let (joint, delta) = {
            let edge = if tw.go_right {
                &tw.state_plus
            } else {
                &tw.state_minus
            };
            let joint = edge.logp - kinetic(&edge.p, &self.inv_mass);
            (joint, joint - tw.joint0)
        };
        if delta < -1000.0 || !joint.is_finite() {
            // Divergence: abandon the iteration (no progressive-sampling RNG
            // draw for this step).
            let depth_entered = tw.depth + 1;
            self.apply_iteration_end(tw, true, depth_entered);
            self.run_iterations();
            return;
        }
        tw.sum_accept += delta.min(0.0).exp();
        tw.log_sum_weight_subtree = log_add_exp(tw.log_sum_weight_subtree, delta);
        tw.n_kept += 1.0;
        let threshold = (delta - tw.log_sum_weight_subtree).exp() * tw.n_kept.max(1.0) / tw.n_kept;
        if self.rng.gen::<f64>() < threshold {
            let edge = if tw.go_right {
                &tw.state_plus
            } else {
                &tw.state_minus
            };
            tw.q_prop.copy_from_slice(&edge.q);
            tw.logp_prop = edge.logp;
            tw.grad_prop.copy_from_slice(&edge.grad);
        }
        tw.step_i += 1;
        if tw.step_i < tw.n_steps {
            self.begin_edge_leapfrog(&mut tw);
            self.phase = Phase::Tree(tw);
            return;
        }

        // Subtree complete: multinomial merge into the trajectory.
        if tw.log_sum_weight_subtree > tw.log_sum_weight {
            take_proposal(&mut tw);
        } else {
            let accept_prob = (tw.log_sum_weight_subtree - tw.log_sum_weight).exp();
            if self.rng.gen::<f64>() < accept_prob {
                take_proposal(&mut tw);
            }
        }
        tw.log_sum_weight = log_add_exp(tw.log_sum_weight, tw.log_sum_weight_subtree);
        if uturn(&tw.state_minus, &tw.state_plus, &self.inv_mass) {
            let depth_entered = tw.depth + 1;
            self.apply_iteration_end(tw, false, depth_entered);
            self.run_iterations();
            return;
        }
        tw.depth += 1;
        if tw.depth < self.cfg.max_depth {
            self.init_subtree(&mut tw);
            self.begin_edge_leapfrog(&mut tw);
            self.phase = Phase::Tree(tw);
            return;
        }
        let depth_entered = tw.depth;
        self.apply_iteration_end(tw, false, depth_entered);
        self.run_iterations();
    }

    /// Everything after an iteration's tree doubling: accept the new point,
    /// adapt during warmup, record draws after it. `depth_entered` counts
    /// the tree doublings entered this iteration (telemetry only — no
    /// effect on sampling).
    fn apply_iteration_end(&mut self, mut tw: Box<TreeWalk>, diverged: bool, depth_entered: usize) {
        std::mem::swap(&mut self.q, &mut tw.q_new);
        self.logp = tw.logp_new;
        std::mem::swap(&mut self.grad, &mut tw.grad_new);
        self.telemetry
            .record_iteration(depth_entered, tw.n_leapfrog);

        let accept_stat = if tw.n_leapfrog > 0 {
            tw.sum_accept / tw.n_leapfrog as f64
        } else {
            0.0
        };

        if self.iter < self.cfg.warmup {
            self.da.update(accept_stat, self.cfg.target_accept);
            self.step_size = self.da.current();
            if self.iter > self.cfg.warmup / 4 && self.iter < 3 * self.cfg.warmup / 4 {
                self.welford_n += 1;
                for i in 0..self.dim {
                    let delta = self.q[i] - self.welford_mean[i];
                    self.welford_mean[i] += delta / self.welford_n as f64;
                    self.welford_m2[i] += delta * (self.q[i] - self.welford_mean[i]);
                }
            }
            if self.iter == 3 * self.cfg.warmup / 4 && self.welford_n > 4 {
                for i in 0..self.dim {
                    let var = self.welford_m2[i] / (self.welford_n - 1) as f64;
                    self.inv_mass[i] = var.max(1e-10);
                }
                self.da = DualAveraging::new(self.step_size);
            }
            if self.iter + 1 == self.cfg.warmup {
                self.step_size = self.da.adapted().max(1e-8);
            }
        } else {
            if diverged {
                self.divergences += 1;
            }
            self.accept_sum += accept_stat;
            self.accept_count += 1;
            self.draws.push(self.q.clone());
        }
        self.iter += 1;
        self.spare_walk = Some(tw);
    }

    fn finish(self) -> NutsResult {
        self.telemetry.flush(self.divergences, self.step_size);
        NutsResult {
            draws: self.draws,
            divergences: self.divergences,
            step_size: self.step_size,
            mean_accept: if self.accept_count > 0 {
                self.accept_sum / self.accept_count as f64
            } else {
                0.0
            },
            n_grad_evals: self.n_grad_evals,
            cancelled: self.cancelled,
        }
    }
}

/// Second half of a leapfrog step: install the evaluated gradient (a NaN
/// density maps to `-inf` with the gradient kept) and finish the momentum
/// step.
fn leapfrog_finish(s: &mut State, eps: f64, lp: f64, grad_in: &[f64]) {
    s.grad.copy_from_slice(grad_in);
    s.logp = if lp.is_nan() { f64::NEG_INFINITY } else { lp };
    for (p, g) in s.p.iter_mut().zip(&s.grad) {
        *p += 0.5 * eps * g;
    }
}

/// The subtree's proposal replaces the trajectory's current proposal.
fn take_proposal(tw: &mut TreeWalk) {
    let TreeWalk {
        q_new,
        logp_new,
        grad_new,
        q_prop,
        logp_prop,
        grad_prop,
        ..
    } = tw;
    q_new.copy_from_slice(q_prop);
    *logp_new = *logp_prop;
    grad_new.copy_from_slice(grad_prop);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::summarize;
    use crate::target::GradTarget;

    fn run_standard_normal(dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let target = move |q: &[f64]| {
            let lp: f64 = q.iter().map(|x| -0.5 * x * x).sum();
            let grad: Vec<f64> = q.iter().map(|x| -x).collect();
            (lp, grad)
        };
        let cfg = NutsConfig {
            warmup: 400,
            samples: 800,
            seed,
            ..Default::default()
        };
        nuts_sample(&mut &target, vec![1.0; dim], &cfg).draws
    }

    #[test]
    fn recovers_standard_normal_moments() {
        let draws = run_standard_normal(3, 1);
        let summary = summarize(&draws);
        for s in &summary {
            assert!(s.mean.abs() < 0.15, "mean {}", s.mean);
            assert!((s.stddev - 1.0).abs() < 0.2, "sd {}", s.stddev);
        }
    }

    #[test]
    fn recovers_correlated_gaussian_mean() {
        // Target: N(mu, diag(sigma^2)) with different scales per dimension.
        let mu = [2.0, -1.0];
        let sigma = [0.5, 3.0];
        let target = move |q: &[f64]| {
            let mut lp = 0.0;
            let mut g = vec![0.0; 2];
            for i in 0..2 {
                let z = (q[i] - mu[i]) / sigma[i];
                lp += -0.5 * z * z;
                g[i] = -z / sigma[i];
            }
            (lp, g)
        };
        let cfg = NutsConfig {
            warmup: 500,
            samples: 1000,
            seed: 2,
            ..Default::default()
        };
        let res = nuts_sample(&mut &target, vec![0.0, 0.0], &cfg);
        let summary = summarize(&res.draws);
        assert!((summary[0].mean - 2.0).abs() < 0.1, "{}", summary[0].mean);
        assert!((summary[1].mean + 1.0).abs() < 0.5, "{}", summary[1].mean);
        assert!(
            (summary[1].stddev - 3.0).abs() < 0.7,
            "{}",
            summary[1].stddev
        );
        assert_eq!(res.draws.len(), 1000);
    }

    #[test]
    fn banana_shaped_target_does_not_diverge_catastrophically() {
        // Rosenbrock-like banana density.
        let target = |q: &[f64]| {
            let (x, y) = (q[0], q[1]);
            let lp = -0.5 * x * x - 0.5 * (y - x * x).powi(2) / 0.25;
            let dldx = -x + (y - x * x) / 0.25 * 2.0 * x;
            let dldy = -(y - x * x) / 0.25;
            (lp, vec![dldx, dldy])
        };
        let cfg = NutsConfig {
            warmup: 300,
            samples: 300,
            seed: 3,
            ..Default::default()
        };
        let res = nuts_sample(&mut &target, vec![0.1, 0.1], &cfg);
        assert!(res.divergences < 100);
        assert!(res.mean_accept > 0.4);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_standard_normal(2, 42);
        let b = run_standard_normal(2, 42);
        assert_eq!(a[10], b[10]);
        let c = run_standard_normal(2, 43);
        assert_ne!(a[10], c[10]);
    }

    #[test]
    fn lockstep_chains_match_sequential_chains_bitwise() {
        // Smooth target and a divergence-prone banana: batching the chains
        // must agree with driving each chain alone, draw for draw, bit for
        // bit.
        let gaussian = |q: &[f64]| {
            let lp: f64 = q.iter().map(|x| -0.5 * x * x).sum();
            let grad: Vec<f64> = q.iter().map(|x| -x).collect();
            (lp, grad)
        };
        let banana = |q: &[f64]| {
            let (x, y) = (q[0], q[1]);
            let lp = -0.5 * x * x - 0.5 * (y - x * x).powi(2) / 0.25;
            let dldx = -x + (y - x * x) / 0.25 * 2.0 * x;
            let dldy = -(y - x * x) / 0.25;
            (lp, vec![dldx, dldy])
        };
        for target in [&gaussian as &dyn GradTarget, &banana as &dyn GradTarget] {
            let configs: Vec<NutsConfig> = (0..3)
                .map(|c| NutsConfig {
                    warmup: 60,
                    samples: 40,
                    seed: 7 + c,
                    ..Default::default()
                })
                .collect();
            let inits = vec![vec![0.4, -0.3], vec![-1.0, 0.2], vec![0.0, 0.0]];

            let mut batched = target;
            let lockstep = nuts_sample_lockstep(&mut batched, inits.clone(), &configs);

            for ((init, cfg), got) in inits.into_iter().zip(&configs).zip(&lockstep) {
                let want = nuts_sample(&mut &*target, init, cfg);
                assert_eq!(want.draws, got.draws);
                assert_eq!(want.divergences, got.divergences);
                assert_eq!(want.step_size.to_bits(), got.step_size.to_bits());
                assert_eq!(want.mean_accept.to_bits(), got.mean_accept.to_bits());
                assert_eq!(want.n_grad_evals, got.n_grad_evals);
            }
        }
    }

    #[test]
    fn lockstep_tolerates_heterogeneous_chain_lengths() {
        let target = |q: &[f64]| (-0.5 * q[0] * q[0], vec![-q[0]]);
        let configs = vec![
            NutsConfig {
                warmup: 20,
                samples: 10,
                seed: 11,
                ..Default::default()
            },
            NutsConfig {
                warmup: 80,
                samples: 60,
                seed: 12,
                ..Default::default()
            },
        ];
        let inits = vec![vec![0.5], vec![-0.5]];
        let mut batched = &target;
        let lockstep = nuts_sample_lockstep(&mut batched, inits.clone(), &configs);
        assert_eq!(lockstep[0].draws.len(), 10);
        assert_eq!(lockstep[1].draws.len(), 60);
        for ((init, cfg), got) in inits.into_iter().zip(&configs).zip(&lockstep) {
            let want = nuts_sample(&mut &target, init, cfg);
            assert_eq!(want.draws, got.draws);
            assert_eq!(want.n_grad_evals, got.n_grad_evals);
        }
    }

    #[test]
    fn both_drivers_stop_a_cancelled_chain_at_the_same_point() {
        let target = |q: &[f64]| (-0.5 * q[0] * q[0], vec![-q[0]]);
        let cfg = NutsConfig {
            warmup: 10,
            samples: 10,
            seed: 4,
            cancel: CancelToken::new(),
            ..Default::default()
        };
        cfg.cancel.cancel();
        let single = nuts_sample(&mut &target, vec![0.3], &cfg);
        let lockstep = nuts_sample_lockstep(&mut &target, vec![vec![0.3]], &[cfg]);
        for res in [&single, &lockstep[0]] {
            assert!(res.cancelled);
            assert!(res.draws.is_empty());
        }
        // Both ran the init evaluation and the step-size probes, then
        // stopped at the top of the first iteration.
        assert_eq!(single.n_grad_evals, lockstep[0].n_grad_evals);
        assert!(single.n_grad_evals >= 2);
    }

    #[test]
    fn reports_gradient_evaluations_and_step_size() {
        let target = |q: &[f64]| (-0.5 * q[0] * q[0], vec![-q[0]]);
        let cfg = NutsConfig {
            warmup: 100,
            samples: 100,
            seed: 5,
            ..Default::default()
        };
        let res = nuts_sample(&mut &target, vec![0.0], &cfg);
        assert!(res.n_grad_evals > 200);
        assert!(res.step_size > 0.0 && res.step_size < 10.0);
    }
}
