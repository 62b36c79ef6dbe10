//! `corpus_nuts`: the paper's Table 3/5 question. Every runnable corpus
//! model is sampled with NUTS, one model at a time (closed loop), under the
//! Mixed scheme with 2 chains and the default chain routing, and scored by
//! bulk ESS per second of sampling.
//!
//! Checks, counted in `failed` and never retried: the compiled density and
//! the `stan_ref` density differ by a constant at fixed points (Theorem
//! 3.3), and the first pass's posterior means pass an MCSE-aware z-test
//! against a `stan_ref` NUTS posterior prepared untimed on the same data.

use std::sync::Arc;
use std::time::Instant;

use deepstan::{CompiledProgram, DeepStan, Fit, Method, NutsSettings};
use gprob::{GModel, Value};
use inference::diagnostics::multi_ess;
use model_zoo::ModelEntry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stan2gprob::Scheme;

use crate::trace::span;
use crate::util::{geomean, median, mix, proc_status_kb, quantile, Report};
use crate::Config;

/// Owned data bindings, as the corpus generators produce them.
pub type Data = Vec<(String, Value<f64>)>;

/// Borrowed view of a data set, as the `deepstan` API takes it.
pub fn refs(data: &Data) -> Vec<(&str, Value<f64>)> {
    data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect()
}

/// The timed model set: every corpus model expected to run, except the
/// guide-only `multimodal_guide` (it belongs to `svi_guide`). The smoke set
/// keeps the four models the per-layer gradient metrics name.
pub fn model_set(smoke: bool) -> Vec<ModelEntry> {
    const SMOKE: [&str; 4] = [
        "coin",
        "eight_schools_centered",
        "garch11",
        "radon_hierarchical",
    ];
    model_zoo::corpus()
        .into_iter()
        .filter(|e| e.should_run() && e.name != "multimodal_guide")
        .filter(|e| !smoke || SMOKE.contains(&e.name))
        .collect()
}

/// NUTS iterations per chain for the timed fits.
fn settings(smoke: bool, seed: u64) -> NutsSettings {
    let n = if smoke { 60 } else { 500 };
    NutsSettings {
        warmup: n,
        samples: n,
        seed,
        max_depth: 10,
    }
}

/// The reference posterior's NUTS run on `stan_ref` (2 chains): shorter
/// than the timed fits because the interpreter is an order of magnitude
/// slower; its own MCSE enters the z-test.
fn reference_settings(smoke: bool, seed: u64) -> NutsSettings {
    let (warmup, samples) = if smoke { (60, 60) } else { (150, 250) };
    NutsSettings {
        warmup,
        samples,
        seed,
        max_depth: 10,
    }
}

/// A z-score above this fails the posterior-mean check. About 330
/// components are tested per run; 5 keeps the family-wise false-alarm rate
/// of correct code near 2e-4 per run even with ESS estimated from short
/// chains.
const Z_LIMIT: f64 = 5.0;

/// Data sets per model. Pass `p` of a run samples variant `p mod VARIANTS`,
/// so per-model medians average over data as well as over sampler seeds.
pub const VARIANTS: usize = 4;

/// The data generators' seed for variant 0, as in the Table 3 harness. Data
/// is the same in every run; the workload seed drives the sampler, request
/// and reference seeds (and the fresh data of `serve_churn`).
const DATA_SEED: u64 = 42;

/// Fewest timed passes in a run.
const MIN_PASSES: u64 = 7;

/// Compiled programs, and per data variant the data and bound models, for
/// the model set; built in set-up.
pub struct Prepared {
    pub programs: Vec<CompiledProgram>,
    /// `data[v][i]`: variant `v` of model `i`.
    pub data: Vec<Vec<Data>>,
    pub models: Vec<Vec<Arc<GModel>>>,
}

/// Data variant `v` of a model.
pub fn dataset(entry: &ModelEntry, v: usize) -> Data {
    entry.dataset(DATA_SEED + v as u64)
}

/// Compiles every model once and binds each data variant under the Mixed
/// scheme.
pub fn prepare(entries: &[ModelEntry], variants: usize) -> Result<Prepared, String> {
    let _root = span("workload.setup", 0);
    let mut programs = Vec::new();
    let mut data = vec![Vec::new(); variants];
    let mut models = vec![Vec::new(); variants];
    for (i, entry) in entries.iter().enumerate() {
        let group = i as u64 + 1;
        let program = {
            let _s = span("deepstan.compile_named", group);
            DeepStan::compile_named(entry.name, entry.source)
                .map_err(|e| format!("{}: compile: {e}", entry.name))?
        };
        for v in 0..variants {
            let d = dataset(entry, v);
            let model = {
                let _s = span("gprob.bind", group);
                program
                    .bind_with(Scheme::Mixed, &refs(&d))
                    .map_err(|e| format!("{}: bind: {e}", entry.name))?
            };
            data[v].push(d);
            models[v].push(Arc::new(model));
        }
        programs.push(program);
    }
    Ok(Prepared {
        programs,
        data,
        models,
    })
}

/// Mean, MCSE and name of each posterior component.
struct Moments {
    pub names: Vec<String>,
    pub means: Vec<f64>,
    pub mcse: Vec<f64>,
}

/// Per-component mean and Monte Carlo standard error. The MCSE is the
/// larger of `sd / sqrt(ESS)` and the spread of the per-chain means, so
/// chains that disagree widen the error instead of hiding behind a pooled
/// ESS.
fn moments(model: &str, fit: &Fit) -> Moments {
    let mut chains: Vec<Vec<Vec<f64>>> = fit.chains.iter().map(|c| c.draws.clone()).collect();
    for draw in chains.iter_mut().flatten() {
        relabel(model, &fit.names, draw);
    }
    let m = chains.len() as f64;
    let mut means = Vec::new();
    let mut mcse = Vec::new();
    for j in 0..fit.names.len() {
        let per_chain: Vec<Vec<f64>> = chains
            .iter()
            .map(|c| c.iter().map(|d| d[j]).collect())
            .collect();
        let pooled: Vec<f64> = per_chain.iter().flatten().copied().collect();
        let n = pooled.len() as f64;
        let mean = pooled.iter().sum::<f64>() / n;
        let var = pooled.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
        let views: Vec<&[f64]> = per_chain.iter().map(|c| c.as_slice()).collect();
        let ess = multi_ess(&views).max(1.0);
        let chain_means: Vec<f64> = per_chain
            .iter()
            .map(|c| c.iter().sum::<f64>() / c.len().max(1) as f64)
            .collect();
        let between =
            chain_means.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (m - 1.0).max(1.0);
        means.push(mean);
        mcse.push((var / ess).max(between / m).sqrt());
    }
    Moments {
        names: fit.names.clone(),
        means,
        mcse,
    }
}

/// The two-component mixture `low_dim_gauss_mix` is identified only up to
/// swapping its components, and a NUTS chain stays in whichever labelling
/// it starts near. Its draws are compared in the canonical labelling
/// `mu1 <= mu2` (swapping the sigmas and flipping theta with the means).
fn relabel(model: &str, names: &[String], draw: &mut [f64]) {
    if model != "low_dim_gauss_mix" {
        return;
    }
    let at = |name: &str| names.iter().position(|n| n == name);
    if let (Some(m1), Some(m2), Some(s1), Some(s2), Some(t)) = (
        at("mu1"),
        at("mu2"),
        at("sigma1"),
        at("sigma2"),
        at("theta"),
    ) {
        if draw[m1] > draw[m2] {
            draw.swap(m1, m2);
            draw.swap(s1, s2);
            draw[t] = 1.0 - draw[t];
        }
    }
}

/// Smallest bulk ESS over the fit's components.
pub fn min_ess(fit: &Fit) -> f64 {
    let _s = span("inference.ess", 0);
    fit.names
        .iter()
        .filter_map(|n| fit.ess(n))
        .fold(f64::INFINITY, f64::min)
}

/// Largest MCSE-aware z-score between two posteriors over the same
/// components; NaN-safe (a NaN mean yields an infinite score).
fn max_z(a: &Moments, b: &Moments) -> Result<f64, String> {
    if a.names != b.names {
        return Err(format!(
            "component names differ: {:?} vs {:?}",
            a.names, b.names
        ));
    }
    let mut worst: f64 = 0.0;
    for j in 0..a.means.len() {
        let se = (a.mcse[j].powi(2) + b.mcse[j].powi(2)).sqrt();
        let z = (a.means[j] - b.means[j]).abs() / se.max(1e-300);
        worst = worst.max(if z.is_nan() { f64::INFINITY } else { z });
    }
    Ok(worst)
}

/// Theorem 3.3 at five fixed unconstrained points: the compiled density
/// minus the `stan_ref` density must be the same constant at every point.
/// Returns the largest deviation from the first point's gap.
fn density_gap_spread(
    program: &CompiledProgram,
    model: &GModel,
    data: &Data,
    seed: u64,
) -> Result<f64, String> {
    let reference = program
        .bind_reference(&refs(data))
        .map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gaps = Vec::new();
    let mut scale: f64 = 1.0;
    for _ in 0..5 {
        let point: Vec<f64> = (0..model.dim()).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let compiled = model.log_density_f64(&point).map_err(|e| e.to_string())?;
        let oracle = reference
            .log_density_f64(&point)
            .map_err(|e| e.to_string())?;
        if !compiled.is_finite() || !oracle.is_finite() {
            return Err(format!(
                "non-finite density at {point:?}: {compiled} vs {oracle}"
            ));
        }
        scale = scale.max(oracle.abs());
        gaps.push(compiled - oracle);
    }
    let spread = gaps.iter().map(|g| (g - gaps[0]).abs()).fold(0.0, f64::max);
    Ok(spread / scale)
}

/// Runs the `stan_ref` reference posteriors (untimed) for data variant 0,
/// the data of the first pass.
fn reference_posteriors(prep: &Prepared, cfg: &Config) -> Vec<Result<Moments, String>> {
    let _root = span("workload.reference", 0);
    prep.programs
        .iter()
        .zip(&prep.data[0])
        .enumerate()
        .map(|(i, (program, data))| {
            let _s = span("stan_ref.nuts", i as u64 + 1);
            program
                .session(&refs(data))
                .and_then(|s| {
                    s.reference(true)
                        .chains(2)
                        .run(Method::Nuts(reference_settings(
                            cfg.smoke,
                            mix(cfg.seed, 5_000 + i as u64),
                        )))
                })
                .map(|fit| moments(&program.name, &fit))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One timed fit: `Session::run` on the already-bound model.
fn timed_fit(
    prep: &Prepared,
    v: usize,
    i: usize,
    settings: NutsSettings,
) -> (Result<Fit, String>, f64) {
    let _s = span("deepstan.session_run", i as u64 + 1);
    let started = Instant::now();
    let fit = prep.programs[i]
        .session(&refs(&prep.data[v][i]))
        .and_then(|s| {
            s.with_bound_model(Scheme::Mixed, prep.models[v][i].clone())
                .chains(2)
                .run(Method::Nuts(settings))
        })
        .map_err(|e| e.to_string());
    (fit, started.elapsed().as_secs_f64())
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let entries = model_set(cfg.smoke);

    // Set-up: data, compile and bind for the whole set, repeated so the
    // reported time is a median.
    let variants = if cfg.smoke { 1 } else { VARIANTS };
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if cfg.smoke { 1 } else { 11 } {
        let started = Instant::now();
        let prep = prepare(&entries, variants);
        setups.push(started.elapsed().as_secs_f64());
        prepared = Some(prep);
    }
    let prep = match prepared.expect("at least one set-up") {
        Ok(prep) => prep,
        Err(e) => {
            report.check(false, || format!("corpus set-up failed: {e}"));
            return report;
        }
    };

    // Untimed correctness inputs.
    for v in 0..variants {
        for (i, entry) in entries.iter().enumerate() {
            let gap = density_gap_spread(
                &prep.programs[i],
                &prep.models[v][i],
                &prep.data[v][i],
                mix(cfg.seed, 9_000 + i as u64),
            );
            report.check(matches!(gap, Ok(g) if g < 1e-9), || {
                format!(
                    "{} (data {v}): Theorem 3.3 density gap not constant: {gap:?}",
                    entry.name
                )
            });
        }
    }
    let reference = reference_posteriors(&prep, cfg);

    // Timed passes over the set until the time is up, and at least
    // MIN_PASSES: arma11 gets stuck in about one fit in six, and a
    // per-model median over seven passes moves only if four of them stick.
    let n = entries.len();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut pass_walls = Vec::new();
    let mut worst_z = vec![f64::NAN; n];
    let min_passes = if cfg.smoke { 1 } else { MIN_PASSES };
    let started = Instant::now();
    let mut fits = 0u64;
    {
        let _root = span("workload.measure", 0);
        let mut pass = 0u64;
        while pass < min_passes || started.elapsed().as_secs_f64() < cfg.seconds {
            let mut pass_wall = 0.0;
            for i in 0..n {
                let seed = mix(cfg.seed, ((pass + 1) << 20) | i as u64);
                let (fit, wall) = timed_fit(
                    &prep,
                    pass as usize % variants,
                    i,
                    settings(cfg.smoke, seed),
                );
                fits += 1;
                pass_wall += wall;
                match fit {
                    Ok(fit) => {
                        let ess = min_ess(&fit);
                        report.check(ess.is_finite() && ess > 0.0, || {
                            format!("{}: min bulk ESS {ess}", entries[i].name)
                        });
                        walls[i].push(wall);
                        rates[i].push(ess / wall);
                        if pass == 0 {
                            let z = match &reference[i] {
                                Ok(r) => max_z(&moments(entries[i].name, &fit), r),
                                Err(e) => Err(format!("reference failed: {e}")),
                            };
                            report.check(matches!(z, Ok(z) if z <= Z_LIMIT), || {
                                format!(
                                    "{}: posterior means vs stan_ref: z = {z:?}",
                                    entries[i].name
                                )
                            });
                            worst_z[i] = z.unwrap_or(f64::INFINITY);
                        }
                    }
                    Err(e) => {
                        report.check(false, || format!("{}: NUTS failed: {e}", entries[i].name))
                    }
                }
            }
            pass_walls.push(pass_wall);
            pass += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    println!(
        "corpus_nuts: {} passes, {fits} fits in {elapsed:.2} s",
        pass_walls.len()
    );
    println!(
        "  {:<28} {:>10} {:>12} {:>8}",
        "model", "wall_ms", "ess_per_s", "max_z"
    );
    // Per-model medians over passes: one stuck chain moves nothing.
    let (mut model_walls, mut model_rates) = (Vec::new(), Vec::new());
    for i in 0..n {
        let (wall, rate) = (median(&walls[i]), median(&rates[i]));
        println!(
            "  {:<28} {:>10.2} {:>12.0} {:>8.2}",
            entries[i].name,
            wall * 1e3,
            rate,
            worst_z[i]
        );
        if rate.is_finite() {
            model_walls.push(wall * 1e3);
            model_rates.push(rate);
        }
    }
    report.metric("ess_per_s_geomean", geomean(&model_rates), "1/s");
    report.metric("throughput_rps", n as f64 / median(&pass_walls), "1/s");
    report.metric("latency_p50_ms", quantile(&model_walls, 0.5), "ms");
    report.metric("latency_p99_ms", quantile(&model_walls, 0.99), "ms");
    report.metric("sample_wall_s", median(&pass_walls), "s");
    report.metric(
        "peak_rss_mb",
        proc_status_kb("VmHWM:") as f64 / 1024.0,
        "MB",
    );
    report.metric("setup_s", median(&setups), "s");
    report
}
