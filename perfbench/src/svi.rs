//! `svi_guide`: the DeepStan extension. SVI with an explicit guide on
//! `multimodal_guide` and on the Bayesian MLP (`BAYESIAN_MLP_SOURCE` with its
//! network, as in the paper's Section 6.2), fits alternating in a closed
//! loop through `Session::run(Method::Svi)`.
//!
//! Checks: the fitted guide means of `multimodal_guide` sit at the two
//! modes (0 and 20); every BNN fit ends with a finite ELBO and a test
//! accuracy at or above a recorded floor.

use std::collections::HashMap;
use std::time::Instant;

use deepstan::{Activation, CompiledProgram, DeepStan, Fit, Method, MlpSpec, SviSettings};
use gprob::Value;

use crate::corpus::{min_ess, refs, Data};
use crate::trace::span;
use crate::util::{geomean, median, mix, proc_status_kb, quantile, Report};
use crate::Config;

/// Adam steps per `multimodal_guide` fit.
const MULTIMODAL_STEPS: usize = 1500;
/// Adam steps per BNN fit.
const BNN_STEPS: usize = 400;
/// Guide draws returned with every fit.
const GUIDE_DRAWS: usize = 400;
/// Training and test images of the synthetic digits.
const TRAIN: usize = 60;
const TEST: usize = 100;
/// Lowest acceptable test accuracy of the network at the guide means.
/// Chance is 0.1; 400-step fits on this data scored 0.71-0.79.
const ACCURACY_FLOOR: f64 = 0.4;
/// How far a fitted `multimodal_guide` mean may sit from its mode.
const MODE_TOLERANCE: f64 = 1.0;

/// One of the two SVI targets with its data.
pub struct Target {
    pub name: &'static str,
    pub program: CompiledProgram,
    pub data: Data,
    pub networks: Vec<MlpSpec>,
    pub steps: usize,
    pub lr: f64,
    /// Test images and labels (BNN only).
    pub test: Option<(Vec<Vec<f64>>, Vec<i64>)>,
}

fn digits_data(images: &[Vec<f64>], labels: &[i64], nx: usize, nh: usize) -> Data {
    vec![
        ("batch_size".to_string(), Value::Int(images.len() as i64)),
        ("nx".to_string(), Value::Int(nx as i64)),
        ("nh".to_string(), Value::Int(nh as i64)),
        ("ny".to_string(), Value::Int(10)),
        (
            "imgs".to_string(),
            Value::Array(images.iter().map(|i| Value::Vector(i.clone())).collect()),
        ),
        ("labels".to_string(), Value::IntArray(labels.to_vec())),
    ]
}

/// Compiles both programs and generates the BNN's digits.
pub fn prepare(cfg: &Config) -> Result<Vec<Target>, String> {
    let _root = span("workload.setup", 0);
    let scale = |n: usize| if cfg.smoke { (n / 10).max(5) } else { n };
    let entry = model_zoo::find("multimodal_guide").ok_or("corpus lacks multimodal_guide")?;
    let multimodal = {
        let _s = span("deepstan.compile_named", 1);
        DeepStan::compile_named(entry.name, entry.source).map_err(|e| e.to_string())?
    };
    let side = 6;
    let (nx, nh) = (side * side, 12);
    // The digits of the Section 6.2 harness: training seed 1, test seed 2.
    let (train_x, train_y) = model_zoo::synthetic_digits(scale(TRAIN), side, 0.03, 1);
    let test = model_zoo::synthetic_digits(scale(TEST), side, 0.03, 2);
    let bnn = {
        let _s = span("deepstan.compile_named", 2);
        DeepStan::compile_named("bayes_mlp", model_zoo::BAYESIAN_MLP_SOURCE)
            .map_err(|e| e.to_string())?
    };
    Ok(vec![
        Target {
            name: "multimodal_guide",
            program: multimodal,
            data: Vec::new(),
            networks: Vec::new(),
            steps: scale(MULTIMODAL_STEPS),
            lr: 0.05,
            test: None,
        },
        Target {
            name: "bayes_mlp",
            program: bnn,
            data: digits_data(&train_x, &train_y, nx, nh),
            networks: vec![MlpSpec::new("mlp", &[nx, nh, 10], Activation::Tanh)],
            steps: scale(BNN_STEPS),
            lr: 0.02,
            test: Some(test),
        },
    ])
}

/// One SVI fit through the session API.
fn fit(target: &Target, seed: u64, group: u64) -> Result<Fit, String> {
    let _s = span("deepstan.session_run", group);
    target
        .program
        .session(&refs(&target.data))
        .and_then(|s| {
            s.networks(&target.networks)
                .guide_draws(GUIDE_DRAWS)
                .seed(seed)
                .run(Method::Svi(SviSettings {
                    steps: target.steps,
                    lr: target.lr,
                    seed,
                    ..Default::default()
                }))
        })
        .map_err(|e| e.to_string())
}

/// Test accuracy of the network at the fitted guide means.
fn bnn_accuracy(
    fit: &Fit,
    spec: &MlpSpec,
    test: &(Vec<Vec<f64>>, Vec<i64>),
) -> Result<f64, String> {
    let guide = fit.variational.as_ref().ok_or("SVI fit without a guide")?;
    let mut params: HashMap<String, Vec<f64>> = HashMap::new();
    for (weight, mean) in [
        ("mlp.l1.weight", "w1_mu"),
        ("mlp.l1.bias", "b1_mu"),
        ("mlp.l2.weight", "w2_mu"),
        ("mlp.l2.bias", "b2_mu"),
    ] {
        let values = guide.guide_params.get(mean).ok_or("missing guide mean")?;
        params.insert(weight.to_string(), values.clone());
    }
    let (images, labels) = test;
    let mut correct = 0;
    for (img, &label) in images.iter().zip(labels) {
        let logits = spec.forward(&params, img).map_err(|e| e.to_string())?;
        let best = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
            .unwrap_or(0);
        if best as i64 + 1 == label {
            correct += 1;
        }
    }
    Ok(correct as f64 / labels.len().max(1) as f64)
}

/// The correctness check for one fit; `Err` names what was wrong.
fn check_fit(target: &Target, fit: &Fit) -> Result<(), String> {
    let guide = fit.variational.as_ref().ok_or("SVI fit without a guide")?;
    if !guide.elbo_trace.last().is_some_and(|e| e.is_finite()) {
        return Err(format!(
            "final ELBO is not finite: {:?}",
            guide.elbo_trace.last()
        ));
    }
    match &target.test {
        None => {
            let at = |k: &str| {
                guide
                    .guide_params
                    .get(k)
                    .and_then(|v| v.first().copied())
                    .unwrap_or(f64::NAN)
            };
            let (m1, m2) = (at("m1"), at("m2"));
            if (m1 - 20.0).abs() <= MODE_TOLERANCE && m2.abs() <= MODE_TOLERANCE {
                Ok(())
            } else {
                Err(format!(
                    "guide means m1 = {m1}, m2 = {m2}; expected 20 and 0"
                ))
            }
        }
        Some(test) => {
            let accuracy = bnn_accuracy(fit, &target.networks[0], test)?;
            if accuracy >= ACCURACY_FLOOR {
                Ok(())
            } else {
                Err(format!(
                    "test accuracy {accuracy} below the floor {ACCURACY_FLOOR}"
                ))
            }
        }
    }
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if cfg.smoke { 1 } else { 51 } {
        let started = Instant::now();
        let targets = prepare(cfg);
        setups.push(started.elapsed().as_secs_f64());
        prepared = Some(targets);
    }
    let targets = match prepared.expect("at least one set-up") {
        Ok(t) => t,
        Err(e) => {
            report.check(false, || format!("svi set-up failed: {e}"));
            return report;
        }
    };

    // Closed loop, alternating the targets, until the time is up (at least
    // three fits of each so per-target medians are medians).
    let n = targets.len();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut ess_rates: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut fits = Vec::new();
    let min_rounds = if cfg.smoke { 1 } else { 3 };
    let started = Instant::now();
    {
        let _root = span("workload.measure", 0);
        let mut round = 0u64;
        while round < min_rounds || started.elapsed().as_secs_f64() < cfg.seconds {
            for (t, target) in targets.iter().enumerate() {
                let seed = mix(cfg.seed, (round << 8) | t as u64);
                let begun = Instant::now();
                let result = fit(target, seed, round * n as u64 + t as u64 + 1);
                let wall = begun.elapsed().as_secs_f64();
                match result {
                    Ok(f) => {
                        let ess = min_ess(&f);
                        walls[t].push(wall);
                        ess_rates[t].push(ess / wall);
                        fits.push((t, seed, f));
                    }
                    Err(e) => report.check(false, || format!("{}: SVI failed: {e}", target.name)),
                }
            }
            round += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    {
        let _root = span("workload.check", 0);
        for (t, seed, f) in &fits {
            let target = &targets[*t];
            let result = check_fit(target, f);
            report.check(result.is_ok(), || {
                format!("{} (seed {seed}): {result:?}", target.name)
            });
        }
    }

    println!("svi_guide: {} fits in {elapsed:.2} s", fits.len());
    // Per-target medians over fits.
    let (mut model_walls, mut model_ess, mut model_steps) = (Vec::new(), Vec::new(), Vec::new());
    for (t, target) in targets.iter().enumerate() {
        let (wall, ess_rate) = (median(&walls[t]), median(&ess_rates[t]));
        println!(
            "  {:<18} {} fits, median wall {:.1} ms, median ESS/s {:.0}",
            target.name,
            walls[t].len(),
            wall * 1e3,
            ess_rate
        );
        model_walls.push(wall * 1e3);
        model_ess.push(ess_rate);
        model_steps.push(target.steps as f64 / wall);
    }
    report.metric("ess_per_s_geomean", geomean(&model_ess), "1/s");
    report.metric(
        "throughput_rps",
        n as f64 * 1e3 / model_walls.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("latency_p50_ms", quantile(&model_walls, 0.5), "ms");
    report.metric("latency_p99_ms", quantile(&model_walls, 0.99), "ms");
    report.metric("svi_steps_per_s", geomean(&model_steps), "1/s");
    report.metric(
        "peak_rss_mb",
        proc_status_kb("VmHWM:") as f64 / 1024.0,
        "MB",
    );
    report.metric("setup_s", median(&setups), "s");
    report
}
