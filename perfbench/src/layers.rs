//! The isolated layer probes behind the per-layer metrics of a traced run.
//! Each probe times calls to one crate's public functions from outside, on
//! the corpus model set with data variant 0 of the workload seed, so every
//! workload's traced run reports the same per-layer metrics.

use std::time::Instant;

use deepstan::{DeepStan, Method, NutsSettings, SviSettings};
use gprob::GModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stan2gprob::Scheme;

use crate::corpus::{min_ess, model_set, prepare, refs};
use crate::util::{geomean, median, median_secs, mix, Report};
use crate::Config;

/// Models whose isolated gradient cost is reported by name.
const NAMED_GRADS: [&str; 4] = [
    "coin",
    "eight_schools_centered",
    "garch11",
    "radon_hierarchical",
];

/// Nanoseconds per call of `f`: batches sized to about a millisecond, the
/// median of `reps` batches.
fn per_call_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    while started.elapsed().as_secs_f64() < 2e-4 {
        f();
        calls += 1;
    }
    let batch = ((1e-3 / (started.elapsed().as_secs_f64() / calls as f64)) as u64).max(1);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                f();
            }
            started.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    median(&times)
}

/// A fixed unconstrained point per model, uniform in [-1, 1].
fn point(model: &GModel, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..model.dim()).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn route(model: &GModel) -> &'static str {
    if model.jit().is_some() {
        "jit"
    } else if model.dprog().is_some() {
        "dprog"
    } else {
        "tape"
    }
}

pub fn probe(cfg: &Config) -> Report {
    let mut report = Report::default();
    let entries = model_set(cfg.smoke);
    let reps = if cfg.smoke { 1 } else { 5 };
    let prep = match prepare(&entries, 1) {
        Ok(p) => p,
        Err(e) => {
            report.check(false, || format!("layer probe set-up failed: {e}"));
            return report;
        }
    };
    let models = &prep.models[0];
    let data = &prep.data[0];

    // Compile phases and bind, summed over the model set.
    let (mut parse, mut translate, mut bind) = (0.0, 0.0, 0.0);
    for (i, entry) in entries.iter().enumerate() {
        let p = median_secs(reps, || stan_frontend::compile_frontend(entry.source));
        let c = median_secs(reps, || DeepStan::compile_named(entry.name, entry.source));
        let b = median_secs(reps, || {
            prep.programs[i].bind_with(Scheme::Mixed, &refs(&data[i]))
        });
        parse += p;
        translate += (c - p).max(0.0);
        bind += b;
    }
    report.metric("stan_frontend.parse_us", parse * 1e6, "us");
    report.metric("stan2gprob.translate_us", translate * 1e6, "us");
    report.metric("gprob.bind_us", bind * 1e6, "us");

    // Gradient routes and isolated gradient costs.
    let mut routes = [0usize; 3];
    let (mut grads, mut tapes, mut lanes) = (Vec::new(), Vec::new(), Vec::new());
    let mut grad_ns = vec![f64::NAN; entries.len()];
    for (i, entry) in entries.iter().enumerate() {
        let model = &models[i];
        let r = route(model);
        routes[["jit", "dprog", "tape"]
            .iter()
            .position(|x| *x == r)
            .expect("known route")] += 1;
        let why =
            |d: Option<&gprob::Decline>| d.map(|d| format!("{d:?}")).unwrap_or_else(|| "-".into());
        println!(
            "route {:<28} {r:<5} dprog decline: {} | jit decline: {}",
            entry.name,
            why(model.dprog_decline()),
            why(model.jit_decline())
        );
        let q = point(model, mix(cfg.seed, 700 + i as u64));
        let mut ws = model.grad_workspace();
        let mut g = vec![0.0; q.len()];
        let ok = model
            .log_density_and_grad_with(&mut ws, &q, &mut g)
            .is_ok_and(|lp| lp.is_finite());
        report.check(ok, || {
            format!("{}: gradient at the probe point failed", entry.name)
        });
        grad_ns[i] = per_call_ns(reps, || {
            let _ = model.log_density_and_grad_with(&mut ws, std::hint::black_box(&q), &mut g);
        });
        grads.push(grad_ns[i]);
        tapes.push(per_call_ns(reps, || {
            let _ = model.log_density_and_grad_tape_with(&mut ws, std::hint::black_box(&q), &mut g);
        }));
        if model.dprog().is_some() {
            let two: Vec<f64> = q.iter().chain(&q).copied().collect();
            let mut values = [0.0; 2];
            let mut gg = vec![0.0; two.len()];
            lanes.push(
                per_call_ns(reps, || {
                    let _ = model.log_density_and_grad_batch_with(
                        &mut ws,
                        std::hint::black_box(&two),
                        &mut values,
                        &mut gg,
                    );
                }) / 2.0,
            );
        }
        if NAMED_GRADS.contains(&entry.name) {
            report.metric(format!("gprob.grad_ns.{}", entry.name), grad_ns[i], "ns");
        }
    }
    report.metric("gprob.route.jit", routes[0] as f64, "count");
    report.metric("gprob.route.dprog", routes[1] as f64, "count");
    report.metric("gprob.route.tape", routes[2] as f64, "count");
    report.metric("gprob.grad_ns.geomean", geomean(&grads), "ns");
    report.metric("gprob.grad_lanes_ns", geomean(&lanes), "ns");
    report.metric("minidiff.tape_grad_ns.geomean", geomean(&tapes), "ns");

    // A NUTS pass: gradient evaluations, useful outcome per evaluation, and
    // how a draw's time splits between gradient, sampler and session.
    let iters = if cfg.smoke { 30 } else { 150 };
    let settings = |seed| NutsSettings {
        warmup: iters,
        samples: iters,
        seed,
        max_depth: 10,
    };
    let mut evals = 0usize;
    let (mut ess_per_grad, mut sampler_ns, mut session_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut compiled_wall = vec![f64::NAN; entries.len()];
    let mut lockstep_ratio = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let seed = mix(cfg.seed, 800 + i as u64);
        // Thread-per-chain runs: each chain evaluates single gradients, so
        // its wall time splits cleanly into gradient and sampler time.
        // Lockstep draws are bitwise the same, only the wall time differs.
        let session = |lockstep: bool| match prep.programs[i].session(&refs(&data[i])) {
            Ok(s) => {
                let mut s = s
                    .with_bound_model(Scheme::Mixed, models[i].clone())
                    .chains(2)
                    .lockstep(lockstep);
                let started = Instant::now();
                let fit = s.run(Method::Nuts(settings(seed)));
                (fit, started.elapsed().as_secs_f64())
            }
            Err(e) => (Err(e), 0.0),
        };
        match session(false) {
            (Ok(fit), wall) => {
                let n = fit.n_grad_evals();
                evals += n;
                ess_per_grad.push(min_ess(&fit) / n.max(1) as f64);
                let chain_s: f64 = fit.chains.iter().map(|c| c.wall_time).sum();
                sampler_ns.push((chain_s * 1e9 - n as f64 * grad_ns[i]) / n.max(1) as f64);
                let slowest = fit.chains.iter().map(|c| c.wall_time).fold(0.0, f64::max);
                session_us.push((wall - slowest) * 1e6);
                compiled_wall[i] = wall;
                if models[i].dprog().is_some() {
                    if let (Ok(_), on) = session(true) {
                        lockstep_ratio.push(on / wall);
                    }
                }
            }
            (Err(e), _) => {
                report.check(false, || format!("{}: probe NUTS failed: {e}", entry.name))
            }
        }
    }
    report.metric("inference.grad_evals", evals as f64, "count");
    report.metric("inference.ess_per_grad", geomean(&ess_per_grad), "ratio");
    report.metric("inference.sampler_ns_per_grad", median(&sampler_ns), "ns");
    report.metric("deepstan.session_overhead_us", median(&session_us), "us");
    report.metric(
        "deepstan.lockstep_over_threads",
        geomean(&lockstep_ratio),
        "ratio",
    );

    // Table 3: compiled wall time against the stan_ref interpreter at the
    // same settings and seeds.
    let mut speedups = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        if !compiled_wall[i].is_finite() {
            continue;
        }
        let seed = mix(cfg.seed, 800 + i as u64);
        let started = Instant::now();
        let fit = prep.programs[i].session(&refs(&data[i])).and_then(|s| {
            s.reference(true)
                .chains(2)
                .run(Method::Nuts(settings(seed)))
        });
        match fit {
            Ok(_) => speedups.push(started.elapsed().as_secs_f64() / compiled_wall[i]),
            Err(e) => report.check(false, || {
                format!("{}: stan_ref NUTS failed: {e}", entry.name)
            }),
        }
    }
    report.metric("stan_ref.speedup_geomean", geomean(&speedups), "ratio");

    // DeepStan SVI: one optimizer step and one guide draw.
    match crate::svi::prepare(cfg) {
        Ok(targets) => {
            let (mut steps, mut draws) = (Vec::new(), Vec::new());
            for (t, target) in targets.iter().enumerate() {
                let n = (target.steps / 10).max(2);
                let settings = SviSettings {
                    steps: n,
                    lr: target.lr,
                    seed: mix(cfg.seed, 900 + t as u64),
                    ..Default::default()
                };
                let started = Instant::now();
                let fit = target
                    .program
                    .svi(&refs(&target.data), &target.networks, &settings);
                steps.push(started.elapsed().as_secs_f64() * 1e6 / n as f64);
                let Ok(fit) = fit else {
                    report.check(false, || format!("{}: probe SVI failed", target.name));
                    continue;
                };
                let started = Instant::now();
                let sampled = target.program.sample_guide(
                    &refs(&target.data),
                    &fit,
                    &target.networks,
                    100,
                    settings.seed,
                );
                draws.push(started.elapsed().as_secs_f64() * 1e6 / 100.0);
                report.check(sampled.is_ok(), || {
                    format!("{}: guide draws failed", target.name)
                });
            }
            report.metric("deepstan.svi_step_us", geomean(&steps), "us");
            report.metric("deepstan.guide_draw_us", geomean(&draws), "us");
        }
        Err(e) => report.check(false, || format!("svi probe set-up failed: {e}")),
    }

    crate::serving::layer_probe(cfg, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_timing_grows_with_work() {
        let light = per_call_ns(3, || {
            std::hint::black_box((0..10u64).sum::<u64>());
        });
        let heavy = per_call_ns(3, || {
            std::hint::black_box(
                (0..std::hint::black_box(20_000u64))
                    .map(|x| x ^ 3)
                    .sum::<u64>(),
            );
        });
        assert!(heavy > light, "{heavy} vs {light}");
    }

    #[test]
    fn probe_points_are_repeatable() {
        use crate::corpus::dataset;
        let entry = model_zoo::find("coin").unwrap();
        let program = DeepStan::compile_named(entry.name, entry.source).unwrap();
        let data = dataset(&entry, 0);
        let model = program.bind_with(Scheme::Mixed, &refs(&data)).unwrap();
        assert_eq!(point(&model, 5), point(&model, 5));
        assert!(["jit", "dprog", "tape"].contains(&route(&model)));
    }
}
