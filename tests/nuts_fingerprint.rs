//! Pinned NUTS trajectories: an FNV-1a-64 fingerprint over every chain's
//! gradient-evaluation count, divergence count and draw bits, for a few
//! corpus models on each `Session` route (thread per chain, forced
//! lockstep, and the `stan_ref` reference backend).
//!
//! The lockstep-vs-threads suites compare two routes with each other; this
//! file compares each route with a fixed trajectory, so a change to the one
//! NUTS state machine that both routes share cannot pass unnoticed. The
//! constants hold for IEEE-754 `f64` arithmetic with the platform `libm`,
//! so the test is gated to x86_64 Linux.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use deepstan::{DeepStan, Fit, Method, NutsSettings};
use gprob::value::Value;

/// Which `Session` route runs the chains.
#[derive(Debug, Clone, Copy)]
enum Route {
    Threads,
    Lockstep,
    Reference,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fingerprint(fit: &Fit) -> u64 {
    let mut hash = FNV_OFFSET;
    for chain in &fit.chains {
        fnv1a(&mut hash, &(chain.n_grad_evals as u64).to_le_bytes());
        fnv1a(&mut hash, &(chain.divergences as u64).to_le_bytes());
        for draw in &chain.draws {
            for x in draw {
                fnv1a(&mut hash, &x.to_bits().to_le_bytes());
            }
        }
    }
    hash
}

fn run(name: &str, route: Route) -> Fit {
    let entry = model_zoo::corpus::find(name).expect("corpus model");
    let data = entry.dataset(42);
    let data: Vec<(&str, Value<f64>)> = data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let program = DeepStan::compile_named(entry.name, entry.source).expect("compiles");
    let mut session = program.session(&data).expect("binds").chains(2).seed(3);
    session = match route {
        Route::Threads => session.lockstep(false),
        Route::Lockstep => session.lockstep(true),
        Route::Reference => session.reference(true),
    };
    session
        .run(Method::Nuts(NutsSettings {
            warmup: 100,
            samples: 100,
            ..Default::default()
        }))
        .expect("NUTS runs")
}

#[test]
fn nuts_trajectories_match_their_pinned_fingerprints() {
    let pinned: [(&str, Route, u64); 17] = [
        ("coin", Route::Threads, 0x48fe_14a1_16de_a817),
        ("coin", Route::Lockstep, 0x48fe_14a1_16de_a817),
        ("coin", Route::Reference, 0xe013_df56_9768_b7af),
        (
            "eight_schools_centered",
            Route::Threads,
            0x2553_aa26_e8db_24e5,
        ),
        (
            "eight_schools_centered",
            Route::Lockstep,
            0x2553_aa26_e8db_24e5,
        ),
        ("garch11", Route::Threads, 0x7bcc_df9a_341f_b218),
        ("garch11", Route::Lockstep, 0x7bcc_df9a_341f_b218),
        ("radon_hierarchical", Route::Threads, 0x8a10_6040_d10a_5b6e),
        ("radon_hierarchical", Route::Lockstep, 0x8a10_6040_d10a_5b6e),
        ("implicit_prior", Route::Threads, 0xd64d_a0e5_8c02_9814),
        ("implicit_prior", Route::Lockstep, 0xd64d_a0e5_8c02_9814),
        ("kidscore_momiq", Route::Threads, 0xb9f8_f66d_147c_e554),
        ("kidscore_momiq", Route::Lockstep, 0xb9f8_f66d_147c_e554),
        ("nes_logit", Route::Threads, 0x4129_eeb3_5ed8_ffe7),
        ("nes_logit", Route::Lockstep, 0x4129_eeb3_5ed8_ffe7),
        ("seeds_binomial", Route::Threads, 0x000e_55aa_c366_e6d4),
        ("seeds_binomial", Route::Lockstep, 0x000e_55aa_c366_e6d4),
    ];
    let mut mismatches = Vec::new();
    for (name, route, want) in pinned {
        let fit = run(name, route);
        assert_eq!(fit.chains.len(), 2);
        assert!(fit.chains.iter().all(|c| c.draws.len() == 100));
        let got = fingerprint(&fit);
        if got != want {
            mismatches.push(format!(
                "{name} {route:?}: got {got:#018x}, pinned {want:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
