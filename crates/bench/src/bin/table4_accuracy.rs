//! Table 4 (appendix) — mean relative error of every backend against the
//! reference posterior, for every corpus model, all fit on one data set
//! per model.

use deepstan_bench::table4_row;

fn main() {
    let corpus = model_zoo::corpus();
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "Model", "Stan(ref)", "Compr.", "Mixed", "Gener."
    );
    for entry in corpus.iter().filter(|e| e.name != "multimodal_guide") {
        if !entry.should_run() {
            println!(
                "{:<28} {:>10} {:>10} {:>10} {:>10}",
                entry.name, "✗", "✗", "✗", "✗"
            );
            continue;
        }
        let Some(errors) = table4_row(entry) else {
            println!("{:<28} reference failed", entry.name);
            continue;
        };
        let row: Vec<String> = errors
            .iter()
            .map(|e| e.map_or_else(|| "✗".to_string(), |e| format!("{e:.2}")))
            .collect();
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>10}",
            entry.name, row[0], row[1], row[2], row[3]
        );
    }
    println!(
        "\nErrors are mean |mean - mean_ref| / stddev_ref; the paper's pass threshold is 0.3."
    );
}
