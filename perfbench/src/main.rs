//! The repository benchmark. One command runs one workload and prints every
//! metric by name and unit, checks that the program's outputs are correct,
//! and ends with one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus_nuts --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the workload untraced, then again with the benchmark's spans on
//! (their difference is the tracing overhead), writes the spans as a Chrome
//! trace under `.bench_out/`, prints the self-time table, and runs the
//! isolated layer probes that give the per-layer metrics. `--smoke` shrinks
//! every size so the benchmark's own tests finish in seconds. Metric
//! definitions and the reasons behind every size, rate and limit are in
//! `perfbench/README.md`.

mod corpus;
mod fingerprint;
mod layers;
mod serving;
mod svi;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::Instant;

use util::{json_number, json_string, proc_status_kb, Report};

/// End-to-end metrics every workload reports with `--trace 0`, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ess_per_s_geomean", "1/s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every workload reports with `--trace 1`, with units.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("stan_frontend.parse_us", "us"),
    ("stan2gprob.translate_us", "us"),
    ("gprob.bind_us", "us"),
    ("gprob.route.jit", "count"),
    ("gprob.route.tape", "count"),
    ("gprob.grad_ns.geomean", "ns"),
    ("gprob.grad_ns.coin", "ns"),
    ("gprob.grad_ns.eight_schools_centered", "ns"),
    ("gprob.grad_ns.garch11", "ns"),
    ("gprob.grad_ns.radon_hierarchical", "ns"),
    ("gprob.grad_lanes_ns", "ns"),
    ("minidiff.tape_grad_ns.geomean", "ns"),
    ("inference.grad_evals", "count"),
    ("inference.ess_per_grad", "ratio"),
    ("inference.sampler_ns_per_grad", "ns"),
    ("deepstan.session_overhead_us", "us"),
    ("deepstan.lockstep_over_threads", "ratio"),
    ("deepstan.svi_step_us", "us"),
    ("deepstan.guide_draw_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.cache_hit_us", "us"),
    ("serve.cache_miss_us", "us"),
    ("serve.overhead_us_p50", "us"),
    ("stan_ref.speedup_geomean", "ratio"),
    ("trace.overhead.throughput_rps", "%"),
    ("trace.overhead.latency_p50_ms", "%"),
    ("trace.overhead.ess_per_s_geomean", "%"),
    ("trace.self_ms.unattributed", "ms"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusNuts,
    ServeHot,
    ServeChurn,
    SviGuide,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "corpus_nuts" => Workload::CorpusNuts,
            "serve_hot" => Workload::ServeHot,
            "serve_churn" => Workload::ServeChurn,
            "svi_guide" => Workload::SviGuide,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusNuts => "corpus_nuts",
            Workload::ServeHot => "serve_hot",
            Workload::ServeChurn => "serve_churn",
            Workload::SviGuide => "svi_guide",
        }
    }
}

/// Command-line settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload <corpus_nuts|serve_hot|serve_churn|svi_guide> \
--seed <u64> --seconds <n> --trace <0|1> [--smoke]";

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut smoke = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
                }
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                    }
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            smoke,
        })
    }
}

/// Runs the configured workload once and returns its report.
fn run_workload(cfg: &Config) -> Report {
    match cfg.workload {
        Workload::CorpusNuts => corpus::run(cfg),
        Workload::ServeHot => serving::run(cfg, false),
        Workload::ServeChurn => serving::run(cfg, true),
        Workload::SviGuide => svi::run(cfg),
    }
}

fn print_metrics(prefix: &str, report: &Report) {
    for m in &report.metrics {
        println!("metric {prefix}{} = {} {}", m.name, m.value, m.unit);
    }
}

/// Picks the named metrics out of a report, in list order. A metric the
/// run did not produce is a failed check and prints as `null`.
fn select(report: &mut Report, names: &[(&str, &'static str)]) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for &(name, unit) in names {
        let value = report.get(name).unwrap_or(f64::NAN);
        report.check(value.is_finite(), || {
            format!("metric {name} missing or not finite")
        });
        out.push((name.to_string(), value, unit));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let fingerprint = fingerprint::capture();
    println!(
        "workload {} seed {} seconds {} trace {} smoke {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        u8::from(cfg.smoke)
    );
    println!("fingerprint {}", fingerprint::to_json(&fingerprint));

    let (report, selected) = if !cfg.trace {
        let mut report = run_workload(&cfg);
        print_metrics("", &report);
        let selected = select(&mut report, &END_TO_END);
        (report, selected)
    } else {
        let untraced = run_workload(&cfg);
        print_metrics("untraced.", &untraced);
        trace::set_enabled(true);
        let traced = run_workload(&cfg);
        trace::set_enabled(false);
        print_metrics("traced.", &traced);
        let spans = trace::take();
        print!("{}", trace::self_time_table(cfg.workload.name(), &spans));
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        ));
        match trace::write_chrome(&path, &spans, &fingerprint) {
            Ok(()) => println!(
                "trace written to {} ({} spans)",
                path.display(),
                spans.len()
            ),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }

        let mut report = layers::probe(&cfg);
        report.absorb_tally(&untraced);
        report.absorb_tally(&traced);
        for name in ["throughput_rps", "latency_p50_ms", "ess_per_s_geomean"] {
            if let (Some(a), Some(b)) = (untraced.get(name), traced.get(name)) {
                report.metric(format!("trace.overhead.{name}"), 100.0 * (b - a) / a, "%");
            }
        }
        for (layer, ms) in trace::layer_self_ms(&spans) {
            report.metric(format!("trace.self_ms.{layer}"), ms, "ms");
        }
        print_metrics("", &report);
        let selected = select(&mut report, &PER_LAYER);
        (report, selected)
    };

    println!(
        "metric error_share = {} share ({} of {} operations and checks failed)",
        report.error_share(),
        report.failed,
        report.attempted
    );
    for failure in &report.failures {
        println!("failure: {failure}");
    }
    println!(
        "run took {:.2} s, peak rss {} kB",
        started.elapsed().as_secs_f64(),
        proc_status_kb("VmHWM:")
    );

    let metrics: Vec<String> = selected
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
