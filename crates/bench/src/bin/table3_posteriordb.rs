//! Table 3 — accuracy and speed of every backend against the reference
//! posterior, with the per-model speedup and its geometric mean.
//!
//! The reference posterior is produced by the baseline Stan-semantics
//! interpreter with a longer NUTS run (the paper uses PosteriorDB references
//! generated by Stan). ✓ means every parameter passes the 0.3·stddev
//! criterion, ❍ means a mismatch, ✗ means the backend failed.

use deepstan_bench::{
    accuracy_vs_reference, fmt_duration, geometric_mean, run_backend, BackendKind,
};

fn main() {
    let corpus = model_zoo::corpus();
    let mut speedups = Vec::new();
    println!(
        "{:<28} {:>12} {:>14} {:>14} {:>14} {:>9}",
        "Model", "Stan(ref)", "Compr.", "Mixed", "Gener.", "Speedup"
    );
    for entry in corpus.iter().filter(|e| e.name != "multimodal_guide") {
        if !entry.should_run() {
            println!(
                "{:<28} {:>12} {:>14} {:>14} {:>14} {:>9}",
                entry.name, "✗", "✗", "✗", "✗", ""
            );
            continue;
        }
        let reference = run_backend(entry, BackendKind::StanRef, 42, 42);
        let Some(ref_post) = reference.posterior.as_ref() else {
            println!(
                "{:<28} reference failed: {}",
                entry.name,
                reference.error.unwrap_or_default()
            );
            continue;
        };
        let mut cells = Vec::new();
        let mut compr_seconds = None;
        for backend in [
            BackendKind::GProbComprehensive,
            BackendKind::GProbMixed,
            BackendKind::GProbGenerative,
        ] {
            let outcome = run_backend(entry, backend, 42, 42);
            let cell = match &outcome.posterior {
                Some(p) => {
                    let (ok, _) = accuracy_vs_reference(p, ref_post);
                    let mark = if ok { "✓" } else { "❍" };
                    if backend == BackendKind::GProbComprehensive {
                        compr_seconds = Some(outcome.seconds);
                    }
                    format!("{mark} {}", fmt_duration(outcome.seconds))
                }
                None => "✗".to_string(),
            };
            cells.push(cell);
        }
        let speedup = compr_seconds.map(|s| reference.seconds / s);
        if let Some(s) = speedup {
            speedups.push(s);
        }
        println!(
            "{:<28} {:>12} {:>14} {:>14} {:>14} {:>9}",
            entry.name,
            format!("✓ {}", fmt_duration(reference.seconds)),
            cells[0],
            cells[1],
            cells[2],
            speedup.map(|s| format!("{s:.2}")).unwrap_or_default()
        );
    }
    println!(
        "\nGeometric-mean speedup of the compiled (Compr.) backend over the reference interpreter: {:.2}x over {} models",
        geometric_mean(&speedups),
        speedups.len()
    );
    println!("Paper: 2.3x geometric mean over 26 benchmarks (NumPyro vs CmdStan).");
}
