//! The machine fingerprint stamped on every result: results from different
//! fingerprints are never compared.

use std::path::Path;

use crate::util::{fnv1a, json_string};

/// `(key, value)` pairs: core count, CPU flags, whether the JIT is
/// available, compiler version, commit, and a digest of the sources.
pub fn capture() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        ("nproc".to_string(), nproc.to_string()),
        ("cpu_flags".to_string(), cpu_flags()),
        ("jit".to_string(), jit_status()),
        ("rustc".to_string(), env!("PERFBENCH_RUSTC").to_string()),
        ("commit".to_string(), commit()),
        (
            "source_digest".to_string(),
            format!("{:016x}", source_digest()),
        ),
    ]
}

pub fn to_json(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut flags = Vec::new();
        if std::arch::is_x86_feature_detected!("sse2") {
            flags.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            flags.push("avx2");
        }
        flags.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// Binds the coin model and reports whether its density was compiled to
/// native code, or why that was declined.
fn jit_status() -> String {
    let entry = model_zoo::find("coin").expect("the corpus has coin");
    let data = entry.dataset(1);
    let refs: Vec<(&str, gprob::Value<f64>)> =
        data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let bound = deepstan::DeepStan::compile_named(entry.name, entry.source)
        .and_then(|p| p.bind_with(stan2gprob::Scheme::Mixed, &refs));
    match bound {
        Ok(model) if model.jit().is_some() => "available".to_string(),
        Ok(model) => format!(
            "declined: {}",
            model
                .jit_decline()
                .map(|d| format!("{d:?}"))
                .unwrap_or_default()
        ),
        Err(e) => format!("declined: {e}"),
    }
}

/// The checked-out commit, read from `.git` without running git; `none`
/// outside a git checkout.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over the program's sources (`crates/`, `vendor/`, the root
/// manifest and lock file), so runs of different code never share a
/// fingerprint even outside git.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        collect(Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    files.iter().fold(0xcbf2_9ce4_8422_2325, |h, path| {
        let h = fnv1a(h, path.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(path).unwrap_or_default())
    })
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
