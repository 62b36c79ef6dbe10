//! Pinned SVI fits: the first and last smoothed ELBO, every fitted guide and
//! network parameter, and the first guide draw of four small DeepStan
//! programs, each checked against constants recorded from a reference run.
//!
//! The programs cover every way the ELBO reaches its inputs: a guide with
//! data-dependent control flow (`multimodal_guide`), a conjugate model with
//! data, a Bayesian MLP whose lifted weights the network reads from the
//! environment, and a VAE whose encoder and decoder weights are learnable
//! parameters held by the network registry.
//!
//! Values agree to 1e-9 relative (absolute below magnitude 1), which leaves
//! room for last-bit differences in how the runtime groups its arithmetic
//! and none for a changed trajectory. The constants hold for IEEE-754 `f64`
//! arithmetic with the platform `libm`, so the test is gated to x86_64 Linux.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use deepstan::{Activation, CompiledProgram, DeepStan, MlpSpec, SviSettings, VariationalFit};
use gprob::value::Value;

/// Expected values of one fit.
struct Pin {
    elbo_first: f64,
    elbo_last: f64,
    guide: &'static [(&'static str, &'static [f64])],
    networks: &'static [(&'static str, &'static [f64])],
    first_draw: &'static [f64],
}

fn close(actual: f64, expected: f64) -> bool {
    (actual - expected).abs() <= 1e-9 * expected.abs().max(1.0)
}

fn assert_all_close(what: &str, actual: &[f64], expected: &[f64]) {
    assert_eq!(actual.len(), expected.len(), "{what}: length");
    for (i, (&a, &e)) in actual.iter().zip(expected).enumerate() {
        assert!(close(a, e), "{what}[{i}]: {a:?} vs pinned {e:?}");
    }
}

fn assert_pinned(fit: &VariationalFit, first_draw: &[f64], pin: &Pin) {
    assert!(!fit.cancelled);
    assert_all_close(
        "elbo first/last",
        &[fit.elbo_trace[0], *fit.elbo_trace.last().unwrap()],
        &[pin.elbo_first, pin.elbo_last],
    );
    assert_eq!(fit.guide_params.len(), pin.guide.len(), "guide parameters");
    for (name, expected) in pin.guide {
        assert_all_close(name, &fit.guide_params[*name], expected);
    }
    assert_eq!(fit.network_params.len(), pin.networks.len(), "networks");
    for (name, expected) in pin.networks {
        assert_all_close(name, &fit.network_params[*name], expected);
    }
    assert_all_close("first guide draw", first_draw, pin.first_draw);
}

fn fit_and_draw(
    program: &CompiledProgram,
    data: &[(&str, Value<f64>)],
    networks: &[MlpSpec],
    steps: usize,
    lr: f64,
    seed: u64,
) -> (VariationalFit, Vec<f64>) {
    let settings = SviSettings {
        steps,
        lr,
        seed,
        ..Default::default()
    };
    let fit = program.svi(data, networks, &settings).expect("svi");
    let posterior = program
        .sample_guide(data, &fit, networks, 1, seed + 1)
        .expect("guide draws");
    (fit, posterior.draws[0].clone())
}

fn multimodal(seed: u64) -> (VariationalFit, Vec<f64>) {
    let entry = model_zoo::find("multimodal_guide").expect("corpus model");
    let program = DeepStan::compile_named(entry.name, entry.source).expect("compiles");
    fit_and_draw(&program, &[], &[], 200, 0.05, seed)
}

#[test]
fn multimodal_guide_seed_1() {
    let (fit, draw) = multimodal(1);
    assert_pinned(&fit, &draw, &MULTIMODAL_SEED_1);
}

#[test]
fn multimodal_guide_seed_2() {
    let (fit, draw) = multimodal(2);
    assert_pinned(&fit, &draw, &MULTIMODAL_SEED_2);
}

fn conjugate() -> (VariationalFit, Vec<f64>) {
    let program = DeepStan::compile(
        r#"
        data { int N; real y[N]; }
        parameters { real theta; }
        model { theta ~ normal(0, 1); y ~ normal(theta, 1); }
        guide parameters { real m; real<lower=0> s; }
        guide { theta ~ normal(m, s); }
        "#,
    )
    .expect("compiles");
    let data = [
        ("N", Value::Int(4)),
        ("y", Value::Vector(vec![1.2, 0.8, 1.5, 0.9])),
    ];
    fit_and_draw(&program, &data, &[], 400, 0.02, 5)
}

#[test]
fn conjugate_normal() {
    let (fit, draw) = conjugate();
    assert_pinned(&fit, &draw, &CONJUGATE);
}

fn bnn() -> (VariationalFit, Vec<f64>) {
    let program =
        DeepStan::compile_named("bayes_mlp", model_zoo::BAYESIAN_MLP_SOURCE).expect("compiles");
    let images = [
        vec![0.9, 0.1, 0.2, 0.0],
        vec![0.1, 0.8, 0.0, 0.3],
        vec![0.0, 0.2, 0.9, 0.7],
        vec![0.8, 0.0, 0.1, 0.2],
    ];
    let data = [
        ("batch_size", Value::Int(4)),
        ("nx", Value::Int(4)),
        ("nh", Value::Int(2)),
        ("ny", Value::Int(3)),
        (
            "imgs",
            Value::Array(images.iter().map(|i| Value::Vector(i.clone())).collect()),
        ),
        ("labels", Value::IntArray(vec![1, 2, 3, 1])),
    ];
    let mlp = MlpSpec::new("mlp", &[4, 2, 3], Activation::Tanh);
    fit_and_draw(&program, &data, &[mlp], 40, 0.05, 3)
}

#[test]
fn bayesian_mlp_with_lifted_weights() {
    let (fit, draw) = bnn();
    assert_pinned(&fit, &draw, &BNN);
}

fn vae() -> (VariationalFit, Vec<f64>) {
    let program = DeepStan::compile_named("vae", model_zoo::VAE_SOURCE).expect("compiles");
    let data = [
        ("nz", Value::Int(2)),
        ("npix", Value::Int(4)),
        ("x", Value::IntArray(vec![1, 0, 1, 1])),
    ];
    let networks = [
        MlpSpec::new("decoder", &[2, 4], Activation::Tanh),
        MlpSpec::new("encoder", &[4, 4], Activation::Tanh),
    ];
    fit_and_draw(&program, &data, &networks, 40, 0.05, 4)
}

#[test]
fn vae_with_learnable_networks() {
    let (fit, draw) = vae();
    assert_pinned(&fit, &draw, &VAE);
}

const MULTIMODAL_SEED_1: Pin = Pin {
    elbo_first: -105.90320051132443,
    elbo_last: -24.441467113202158,
    guide: &[
        ("m1", &[5.971910120116963]),
        ("m2", &[-0.12269073879332675]),
        ("s1", &[6.090021259927667]),
        ("s2", &[0.9066686003884546]),
    ],
    networks: &[],
    first_draw: &[-0.7116832321432701, -0.3505004532477998],
};

const MULTIMODAL_SEED_2: Pin = Pin {
    elbo_first: -170.23256659114287,
    elbo_last: -72.32788523437281,
    guide: &[
        ("m1", &[6.316278337597445]),
        ("m2", &[0.16047473653010133]),
        ("s1", &[1.4148542591653714]),
        ("s2", &[0.9779393556026683]),
    ],
    networks: &[],
    first_draw: &[-1.4575249463215398, 0.45364886850353403],
};

const CONJUGATE: Pin = Pin {
    elbo_first: -8.092308756616456,
    elbo_last: -5.117779552744702,
    guide: &[("m", &[0.8564519607897904]), ("s", &[0.4200254705651432])],
    networks: &[],
    first_draw: &[0.6402952672500344],
};

const BNN: Pin = Pin {
    elbo_first: -6.898271848648264,
    elbo_last: -5.437960850092022,
    guide: &[
        ("b1_mu", &[-0.25684507874446555, 0.09814249665858674]),
        ("b1_sigma", &[-0.21741540612417334, 0.12839652079201472]),
        (
            "b2_mu",
            &[
                0.40957053851304304,
                -0.1990296625122182,
                -0.3454064638653707,
            ],
        ),
        (
            "b2_sigma",
            &[
                -0.47092632388880784,
                -0.21467254445251496,
                -0.3385573383707624,
            ],
        ),
        (
            "w1_mu",
            &[
                -0.005843806012370395,
                -0.046896697171322624,
                -0.08435085517698071,
                -0.11079400139231217,
                -0.45289489756981094,
                0.22130131030470057,
                0.09394702605587563,
                0.24698405662223738,
            ],
        ),
        (
            "w1_sigma",
            &[
                0.014709113499257822,
                0.18857150687765498,
                -0.012709672722220393,
                0.3381243561739062,
                -0.25625819476013406,
                0.10882542427631867,
                0.16317905088972318,
                -0.2825473997689803,
            ],
        ),
        (
            "w2_mu",
            &[
                -0.03528844598993057,
                0.2139447068242501,
                0.15816258013658796,
                -0.11535054159285137,
                -0.02271086630374134,
                0.15091689927384533,
            ],
        ),
        (
            "w2_sigma",
            &[
                -0.3231222634472413,
                -0.2014245191091117,
                -0.3907400964561915,
                -0.04379047491959445,
                -0.48294812845541457,
                -0.1024169545736578,
            ],
        ),
    ],
    networks: &[],
    first_draw: &[
        -0.706598074982393,
        -0.3534612409351587,
        0.061789326278165135,
        1.1686501738844457,
        -0.028469402970013102,
        0.13599489616826232,
        -0.41568807872988306,
        1.195463332318956,
        1.179517057055732,
        -0.761709462324818,
        -0.889805423841068,
        -0.8963751104168936,
        0.11680716102234859,
        0.302931900375322,
        0.31481420631970325,
        0.5875374979186905,
        0.8668158560492274,
        -0.49386064239409655,
        -0.37711186474436076,
    ],
};

const VAE: Pin = Pin {
    elbo_first: -2.7062724225752026,
    elbo_last: -0.6344806866363513,
    guide: &[],
    networks: &[
        (
            "decoder.l1.bias",
            &[
                1.4262634504323872,
                -2.0394354130016668,
                1.5291063184771625,
                1.235025577429253,
            ],
        ),
        (
            "decoder.l1.weight",
            &[
                0.13807260419750428,
                -1.0086904438502604,
                -0.17632017674949071,
                1.0323236172795356,
                0.1849574302798991,
                -0.9882813401592317,
                0.5894754620880861,
                -1.2064026504683614,
            ],
        ),
        (
            "encoder.l1.bias",
            &[
                0.9890524700675816,
                0.0014751705731639814,
                0.6639212731533886,
                0.20942660892821333,
            ],
        ),
        (
            "encoder.l1.weight",
            &[
                -0.19984181523987565,
                -0.15789894009272645,
                0.005758591273508081,
                0.0012758652737675895,
                -0.09579945909709858,
                0.24350385043017989,
                -0.4119932749691698,
                -0.24630454593200748,
                -0.2018106649021691,
                0.3898152028893262,
                -0.20059901936915514,
                -0.19849106767278551,
                0.11602893956280977,
                -0.1471361218600366,
                -0.3081211879320802,
                0.07746201965456052,
            ],
        ),
    ],
    first_draw: &[-0.4816658903484219, 1.4583551916391069],
};
