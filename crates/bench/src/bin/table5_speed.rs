//! Table 5 (appendix) — mean (std) inference duration over several seeded
//! runs, per model and backend.

use deepstan_bench::{run_backend, BackendKind};

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let m = xs.iter().sum::<f64>() / n;
    let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    (m, v.sqrt())
}

fn main() {
    let runs: u64 = std::env::var("DEEPSTAN_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let corpus = model_zoo::corpus();
    println!(
        "{:<28} {:>16} {:>16} {:>16} {:>16}",
        "Model", "Stan(ref)", "Compr.", "Mixed", "Gener."
    );
    for entry in corpus
        .iter()
        .filter(|e| e.should_run() && e.name != "multimodal_guide")
    {
        let mut cells = Vec::new();
        for backend in BackendKind::all() {
            let mut times = Vec::new();
            let mut failed = false;
            for seed in 0..runs {
                let outcome = run_backend(entry, backend, 100 + seed, 100 + seed);
                if outcome.ok {
                    times.push(outcome.seconds);
                } else {
                    failed = true;
                    break;
                }
            }
            cells.push(if failed || times.is_empty() {
                "✗".to_string()
            } else {
                let (m, s) = mean_std(&times);
                format!("{m:.2}s ({s:.2})")
            });
        }
        println!(
            "{:<28} {:>16} {:>16} {:>16} {:>16}",
            entry.name, cells[0], cells[1], cells[2], cells[3]
        );
    }
    println!("\nDurations are wall-clock seconds, mean (std) over {runs} seeded runs.");
}
