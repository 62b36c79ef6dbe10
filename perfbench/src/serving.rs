//! `serve_hot` and `serve_churn`: served traffic over TCP against an
//! in-process `serve::Server` in its default configuration. Both rotate
//! over the corpus model set with short 2-chain NUTS requests plus an
//! importance-sampling request for every model with a generative scheme.
//!
//! `serve_hot` sends the same data per model, so after set-up every request
//! hits the bound-model cache. `serve_churn` gives every request a data set
//! no earlier request carried, so each one misses, binds and inserts.
//!
//! Load comes from two threads with one connection each. The closed loop
//! (each connection sends its next request when the last one returns)
//! gives the gated metrics: capacity, per-request latency and ESS rate.
//! The open loop that follows offers a fixed rate and times each request
//! from its due time; its latency, goodput and generator lateness are
//! printed but not gated, because at partial load they follow the host's
//! scheduling noise more than the program. A sample of served fits is
//! compared bitwise with an in-process `Session::run` of the same request.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use deepstan::{DeepStan, ImportanceSettings, Method, NutsSettings};
use gprob::Value;
use inference::diagnostics::multi_ess;
use serve::client::{Client, RetryPolicy, ServedFit};
use serve::protocol::{MethodSpec, Request};
use serve::server::{ServeConfig, Server};
use stan2gprob::Scheme;

use crate::corpus::{dataset, model_set, refs, Data, VARIANTS};
use crate::trace::span;
use crate::util::{geomean, median, median_secs, mix, proc_status_kb, quantile, Report};
use crate::Config;

/// Short NUTS requests: iterations per chain.
const NUTS_ITERS: usize = 30;
/// Importance-sampling particles per request.
const PARTICLES: usize = 200;
/// Share of the run spent in the closed loop; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.6;
/// Churn closed-loop requests per second of `--seconds`: a fixed count
/// (1,800 in a 15 s run), so memory and counts repeat.
const CHURN_CLOSED_PER_S: f64 = 120.0;
/// Offered rate of the open loop, requests per second: about half the
/// closed-loop capacity; 900 latencies in a 15 s run.
const OPEN_RATE: f64 = 150.0;
/// Latency limit behind `slo_goodput`, milliseconds.
const LIMIT_MS: f64 = 50.0;
/// Models that also get an importance request under the Generative
/// scheme: those whose generative translation runs (the Table 2 "Gener."
/// column). `eight_schools_noncentered` also has a generative translation,
/// but it fails at run time (`unbound variable theta_trans`), so it is left
/// out of the mix; see perfbench/README.md.
const IMPORTANCE_MODELS: [&str; 10] = [
    "coin",
    "eight_schools_centered",
    "kidscore_momhs",
    "kidscore_mom_work",
    "logmesquite_logvas",
    "kilpisjarvi",
    "blr",
    "arK",
    "arma11",
    "seeds_binomial",
];
/// Every this many closed-loop requests, one is checked bitwise against an
/// in-process run.
const BITWISE_EVERY: usize = 25;

/// One rotation entry: a model and the method it is asked for.
#[derive(Clone)]
struct Slot {
    model: usize,
    request: Request,
}

/// The base rotation: for each data variant and model, a NUTS request
/// under the Mixed scheme, followed by an importance request for the models
/// in `IMPORTANCE_MODELS`. The order is then strided, so the few slow
/// models do not arrive back to back.
fn rotation(cfg: &Config, variants: usize) -> Vec<Slot> {
    let iters = if cfg.smoke { 10 } else { NUTS_ITERS };
    let mut slots = Vec::new();
    for v in 0..variants {
        for (i, entry) in model_set(cfg.smoke).iter().enumerate() {
            let base = Request {
                name: entry.name.to_string(),
                scheme: Scheme::Mixed,
                method: MethodSpec::Nuts {
                    warmup: iters,
                    samples: iters,
                },
                chains: 2,
                seed: 0,
                gq: false,
                data: dataset(entry, v),
                source: entry.source.to_string(),
            };
            slots.push(Slot {
                model: i,
                request: base.clone(),
            });
            if IMPORTANCE_MODELS.contains(&entry.name) {
                slots.push(Slot {
                    model: i,
                    request: Request {
                        scheme: Scheme::Generative,
                        method: MethodSpec::Importance {
                            particles: PARTICLES,
                        },
                        chains: 1,
                        ..base
                    },
                });
            }
        }
    }
    let len = slots.len();
    let stride = (7..)
        .find(|s| gcd(*s, len) == 1)
        .expect("some stride is coprime");
    (0..len)
        .map(|k| slots[(k * stride) % len].clone())
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Nudges the first real number in a data set, for models whose generator
/// returns the same data for every seed.
fn nudge(data: &mut Data, k: u64) -> bool {
    fn first_real(v: &mut Value<f64>) -> Option<&mut f64> {
        match v {
            Value::Real(x) => Some(x),
            Value::Vector(xs) => xs.first_mut(),
            Value::Array(items) => items.iter_mut().find_map(first_real),
            _ => None,
        }
    }
    for (_, value) in data.iter_mut() {
        if let Some(x) = first_real(value) {
            *x += (k + 1) as f64 * 1e-9 * x.abs().max(1.0);
            return true;
        }
    }
    false
}

/// Builds request `k` of the run: rotation slot `k mod len` with its own
/// sampler seed and, under churn, a data set no earlier request carried.
struct Traffic {
    slots: Vec<Slot>,
    seed: u64,
    churn: bool,
    entries: Vec<model_zoo::ModelEntry>,
    seen: Mutex<HashSet<(usize, u64)>>,
}

impl Traffic {
    fn request(&self, k: usize) -> Request {
        let slot = &self.slots[k % self.slots.len()];
        let mut request = slot.request.clone();
        request.seed = mix(self.seed, 1_000_000 + k as u64);
        if self.churn {
            let entry = &self.entries[slot.model];
            let mut data = entry.dataset(mix(self.seed, (k as u64 + 1) << 32));
            let mut seen = self.seen.lock().expect("no thread panics holding the set");
            let mut nudges = 0;
            while !seen.insert((slot.model, serve::cache::data_fingerprint(&data))) {
                nudges += 1;
                if !nudge(&mut data, k as u64 * 1_000 + nudges) {
                    break;
                }
            }
            request.data = data;
        }
        request
    }
}

/// What one served request produced.
struct Outcome {
    k: usize,
    latency_s: f64,
    late_s: f64,
    ok: bool,
    min_ess: Option<f64>,
    retries: usize,
    error: Option<String>,
    /// The request and its fit, kept for the bitwise sample.
    kept: Option<(Request, ServedFit)>,
}

/// Sends one request, absorbing `busy` rejections with the client's retry
/// policy; returns the fit and the retry count.
fn send(client: &mut Client, request: &Request, k: usize) -> Result<(ServedFit, usize), String> {
    let _s = span("serve.client_request", k as u64 + 1);
    let policy = RetryPolicy {
        seed: k as u64 + 1,
        ..RetryPolicy::default()
    };
    client
        .run_with_retry(request, &policy)
        .map(|outcome| (outcome.fit, outcome.retries))
        .map_err(|e| e.to_string())
}

/// Times one request from `due` (the send time in a closed loop) and
/// validates the response after the clock stops.
fn timed(client: &mut Client, request: Request, k: usize, due: Instant, keep: bool) -> Outcome {
    let sent = Instant::now();
    let result = send(client, &request, k);
    let done = Instant::now();
    let mut outcome = Outcome {
        k,
        latency_s: done.saturating_duration_since(due).as_secs_f64(),
        late_s: sent.saturating_duration_since(due).as_secs_f64(),
        ok: false,
        min_ess: None,
        retries: 0,
        error: None,
        kept: None,
    };
    match result {
        Ok((fit, retries)) => {
            let (ok, ess, why) = validate(&request, &fit);
            outcome.ok = ok;
            outcome.min_ess = ess;
            outcome.retries = retries;
            outcome.error = why;
            if keep {
                outcome.kept = Some((request, fit));
            }
        }
        Err(e) => outcome.error = Some(e),
    }
    outcome
}

/// Checks chain count, draw count and finiteness; returns the min ESS over
/// components for NUTS fits.
fn validate(request: &Request, fit: &ServedFit) -> (bool, Option<f64>, Option<String>) {
    let _s = span("inference.ess", 0);
    if fit.deadline_exceeded {
        return (false, None, Some("deadline exceeded".to_string()));
    }
    let expect_draws = match request.method {
        MethodSpec::Nuts { samples, .. } => Some(samples),
        _ => None,
    };
    let shape_ok = fit.chains.len() == request.chains
        && !fit.names.is_empty()
        && fit.chains.iter().all(|c| {
            !c.draws.is_empty()
                && expect_draws.is_none_or(|n| c.draws.len() == n)
                && c.draws
                    .iter()
                    .all(|d| d.len() == fit.names.len() && d.iter().all(|x| x.is_finite()))
        });
    if !shape_ok {
        return (
            false,
            None,
            Some(format!("{}: malformed served fit", request.name)),
        );
    }
    if expect_draws.is_none() {
        return (true, None, None);
    }
    let ess = (0..fit.names.len())
        .map(|j| {
            let chains: Vec<Vec<f64>> = fit
                .chains
                .iter()
                .map(|c| c.draws.iter().map(|d| d[j]).collect())
                .collect();
            let views: Vec<&[f64]> = chains.iter().map(|c| c.as_slice()).collect();
            multi_ess(&views)
        })
        .fold(f64::INFINITY, f64::min);
    (true, Some(ess), None)
}

/// Closed loop: two connections, each sending its next request as soon as
/// the previous one completes, over requests `first..first + count` or
/// until `deadline`, whichever ends first.
fn closed_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    first: usize,
    count: usize,
    deadline: Option<Instant>,
) -> Vec<Outcome> {
    let next = std::sync::atomic::AtomicUsize::new(first);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let _root = span("workload.closed_loop", 0);
                let mut client = Client::connect(addr).expect("the in-process server accepts");
                loop {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                    let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if k >= first + count {
                        break;
                    }
                    let request = traffic.request(k);
                    let outcome = timed(
                        &mut client,
                        request,
                        k,
                        Instant::now(),
                        k.is_multiple_of(BITWISE_EVERY),
                    );
                    let ok = outcome.ok;
                    out.lock()
                        .expect("no thread panics holding the list")
                        .push(outcome);
                    if !ok {
                        if let Ok(fresh) = Client::connect(addr) {
                            client = fresh;
                        }
                    }
                }
            });
        }
    });
    out.into_inner().expect("threads joined")
}

/// Open loop: request `j` is due at `j / rate` seconds. Two connections
/// take the due requests in order, each as soon as it is free, and every
/// latency runs from the due time, so a stall shows in the requests queued
/// behind it.
fn open_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    first: usize,
    count: usize,
    rate: f64,
) -> Vec<Outcome> {
    let out = Mutex::new(Vec::new());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let _root = span("workload.open_loop", 0);
                let mut client = Client::connect(addr).expect("the in-process server accepts");
                loop {
                    let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if j >= count {
                        break;
                    }
                    let k = first + j;
                    let request = traffic.request(k);
                    let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        let _s = span("loadgen.wait", k as u64 + 1);
                        std::thread::sleep(due - now);
                    }
                    let outcome = timed(&mut client, request, k, due, false);
                    let ok = outcome.ok;
                    out.lock()
                        .expect("no thread panics holding the list")
                        .push(outcome);
                    if !ok {
                        if let Ok(fresh) = Client::connect(addr) {
                            client = fresh;
                        }
                    }
                }
            });
        }
    });
    out.into_inner().expect("threads joined")
}

/// Re-runs a served request in process and compares every draw bitwise.
fn bitwise_equal(
    request: &Request,
    served: &ServedFit,
    programs: &mut HashMap<String, deepstan::CompiledProgram>,
) -> Result<(), String> {
    let program = match programs.get(&request.name) {
        Some(p) => p,
        None => {
            let p = DeepStan::compile(&request.source).map_err(|e| e.to_string())?;
            programs.entry(request.name.clone()).or_insert(p)
        }
    };
    let method = match request.method {
        MethodSpec::Nuts { warmup, samples } => Method::Nuts(NutsSettings {
            warmup,
            samples,
            ..Default::default()
        }),
        MethodSpec::Importance { particles } => {
            Method::Importance(ImportanceSettings { particles })
        }
        MethodSpec::Advi { .. } => return Err("advi is not in the traffic mix".to_string()),
    };
    let fit = program
        .session(&refs(&request.data))
        .and_then(|s| {
            s.scheme(request.scheme)
                .chains(request.chains)
                .seed(request.seed)
                .run(method)
        })
        .map_err(|e| e.to_string())?;
    let same = fit.names == served.names
        && fit.chains.len() == served.chains.len()
        && fit.chains.iter().zip(&served.chains).all(|(a, b)| {
            a.draws.len() == b.draws.len()
                && a.draws.iter().zip(&b.draws).all(|(x, y)| {
                    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
                })
        });
    if same {
        Ok(())
    } else {
        Err("served draws differ from the in-process run".to_string())
    }
}

/// Starts a server and fills its cache with every rotation slot's program
/// and bound model, as serving the rotation once would.
fn start_warm(traffic: &Traffic) -> Result<Server, String> {
    let _root = span("workload.setup", 0);
    let server = {
        let _s = span("serve.start", 0);
        Server::start(ServeConfig::default()).map_err(|e| e.to_string())?
    };
    for slot in &traffic.slots {
        let r = &slot.request;
        let _s = span("serve.cache_fill", slot.model as u64 + 1);
        server
            .cache()
            .get_or_bind(&r.source, r.scheme, &r.data)
            .map_err(|e| format!("{}: {e}", r.name))?;
    }
    Ok(server)
}

pub fn run(cfg: &Config, churn: bool) -> Report {
    let mut report = Report::default();
    // Hot traffic spreads over several warmed data sets per model; churn
    // replaces every request's data anyway.
    let variants = if churn || cfg.smoke { 1 } else { VARIANTS };
    let traffic = Traffic {
        slots: rotation(cfg, variants),
        seed: cfg.seed,
        churn,
        entries: model_set(cfg.smoke),
        seen: Mutex::new(HashSet::new()),
    };
    // Base data sets count as seen: churned requests must differ from them.
    for slot in &traffic.slots {
        traffic
            .seen
            .lock()
            .expect("no thread panics holding the set")
            .insert((
                slot.model,
                serve::cache::data_fingerprint(&slot.request.data),
            ));
    }

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..if cfg.smoke { 1 } else { 15 } {
        let started = Instant::now();
        let warm = start_warm(&traffic);
        setups.push(started.elapsed().as_secs_f64());
        if let Some(Ok(old)) = server.replace(warm) {
            old.shutdown();
        }
    }
    let server = match server.expect("at least one set-up") {
        Ok(server) => server,
        Err(e) => {
            report.check(false, || format!("server set-up failed: {e}"));
            return report;
        }
    };
    let addr = server.addr();
    let mut stats_client = Client::connect(addr).expect("the in-process server accepts");
    let before = stats_client.stats().expect("stats frame");
    let rss_before = proc_status_kb("VmRSS:");

    // Closed loop first: capacity, and the latency and ESS rate metrics
    // (2 requests always in flight, so host scheduling noise stays low).
    // Then the open loop at a fixed offered rate, each request timed from
    // its due time.
    let closed_s = cfg.seconds * CLOSED_SHARE;
    let open_count = ((OPEN_RATE * (cfg.seconds - closed_s)) as usize).max(8);
    let closed_count = if churn {
        ((CHURN_CLOSED_PER_S * cfg.seconds) as usize).max(8)
    } else {
        usize::MAX / 4
    };
    let closed_started = Instant::now();
    let deadline = (!churn).then(|| closed_started + Duration::from_secs_f64(closed_s));
    let closed = closed_loop(addr, &traffic, 0, closed_count, deadline);
    let closed_s = closed_started.elapsed().as_secs_f64();
    let first_open = closed.iter().map(|o| o.k + 1).max().unwrap_or(0);
    let open = open_loop(addr, &traffic, first_open, open_count, OPEN_RATE);

    let after = stats_client.stats().expect("stats frame");
    let rss_after = proc_status_kb("VmRSS:");
    let delta = after.delta(&before);
    let counter = |name: &str| delta.counter(name).unwrap_or(0) as f64;
    let requests = closed.len() + open.len();

    // Untimed checks: every response's shape, and a bitwise sample.
    let mut programs = HashMap::new();
    let mut bitwise = 0;
    {
        let _root = span("workload.check", 0);
        for o in closed.iter().chain(&open) {
            report.check(o.ok, || {
                format!("request {}: {}", o.k, o.error.clone().unwrap_or_default())
            });
        }
        for o in &closed {
            if let Some((request, fit)) = &o.kept {
                let result = bitwise_equal(request, fit, &mut programs);
                bitwise += 1;
                report.check(result.is_ok(), || {
                    format!("request {} ({}): {result:?}", o.k, request.name)
                });
            }
        }
    }
    server.shutdown();

    let ess_rates: Vec<f64> = closed
        .iter()
        .filter_map(|o| o.min_ess.filter(|e| *e > 0.0).map(|e| e / o.latency_s))
        .collect();
    let closed_lat: Vec<f64> = closed.iter().map(|o| o.latency_s * 1e3).collect();
    let open_lat: Vec<f64> = open.iter().map(|o| o.latency_s * 1e3).collect();
    let late: Vec<f64> = open.iter().map(|o| o.late_s * 1e3).collect();
    let good = open
        .iter()
        .filter(|o| o.ok && o.latency_s * 1e3 <= LIMIT_MS)
        .count();
    let retries: usize = closed.iter().chain(&open).map(|o| o.retries).sum();

    println!(
        "{}: rotation of {} requests; closed loop {} requests in {closed_s:.2} s; open loop {} requests at {OPEN_RATE} req/s; {bitwise} bitwise comparisons",
        if churn { "serve_churn" } else { "serve_hot" },
        traffic.slots.len(),
        closed.len(),
        open.len()
    );
    report.metric("ess_per_s_geomean", geomean(&ess_rates), "1/s");
    report.metric("throughput_rps", closed.len() as f64 / closed_s, "1/s");
    report.metric("latency_p50_ms", quantile(&closed_lat, 0.5), "ms");
    report.metric("latency_p99_ms", quantile(&closed_lat, 0.99), "ms");
    report.metric("open_latency_p50_ms", quantile(&open_lat, 0.5), "ms");
    report.metric("open_latency_p99_ms", quantile(&open_lat, 0.99), "ms");
    report.metric(
        "slo_goodput",
        good as f64 / open.len().max(1) as f64,
        "share",
    );
    report.metric("loadgen.late_ms_p99", quantile(&late, 0.99), "ms");
    report.metric("loadgen.retries", retries as f64, "count");
    report.metric(
        "serve.cache.model_misses",
        counter("serve.cache.model_misses"),
        "count",
    );
    report.metric(
        "serve.cache.model_hits",
        counter("serve.cache.model_hits"),
        "count",
    );
    report.metric(
        "serve.cache.evictions",
        counter("serve.cache.evictions"),
        "count",
    );
    report.metric(
        "serve.pool.rejected",
        counter("serve.pool.rejected"),
        "count",
    );
    report.metric(
        "process.rss_kb_per_request",
        (rss_after as f64 - rss_before as f64) / requests.max(1) as f64,
        "kB",
    );
    report.metric(
        "peak_rss_mb",
        proc_status_kb("VmHWM:") as f64 / 1024.0,
        "MB",
    );
    report.metric("setup_s", median(&setups), "s");
    report
}

/// The serve-layer probes of a traced run: protocol encode/parse cost per
/// request, standalone cache hit and miss cost, and the served latency
/// minus the in-process `Session::run` time of the identical request.
pub fn layer_probe(cfg: &Config, report: &mut Report) {
    let slots = rotation(cfg, 1);
    let reps = if cfg.smoke { 1 } else { 5 };
    let server = match Server::start(ServeConfig::default()) {
        Ok(s) => s,
        Err(e) => return report.check(false, || format!("probe server: {e}")),
    };
    let mut client = Client::connect(server.addr()).expect("the in-process server accepts");
    let (mut protocol, mut hits, mut misses, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let cache = serve::cache::ModelCache::new();
    for round in 0..3u64 {
        for (k, slot) in slots.iter().enumerate() {
            let mut request = slot.request.clone();
            request.seed = mix(cfg.seed, (round << 32) | k as u64);
            // Standalone cache: the first lookup misses, the rest hit.
            if round == 0 {
                let started = Instant::now();
                let miss = cache.get_or_compile(&request.source).and_then(|_| {
                    cache.get_or_bind(&request.source, request.scheme, &request.data)
                });
                misses.push(started.elapsed().as_secs_f64() * 1e6);
                report.check(miss.is_ok(), || {
                    format!("{}: cache miss failed", request.name)
                });
            }
            let started = Instant::now();
            for _ in 0..reps {
                let hit = cache.get_or_compile(&request.source).and_then(|_| {
                    cache.get_or_bind(&request.source, request.scheme, &request.data)
                });
                std::hint::black_box(hit.is_ok());
            }
            hits.push(started.elapsed().as_secs_f64() * 1e6 / reps as f64);

            // Served (the server's cache is warm after round 0) against in
            // process on the server's own cached model.
            let started = Instant::now();
            let served = client.request(&request);
            let served_s = started.elapsed().as_secs_f64();
            let Ok(cached) =
                server
                    .cache()
                    .get_or_bind(&request.source, request.scheme, &request.data)
            else {
                report.check(false, || format!("{}: probe bind failed", request.name));
                continue;
            };
            let program = server
                .cache()
                .get_or_compile(&request.source)
                .expect("compiled above");
            let method = match request.method {
                MethodSpec::Nuts { warmup, samples } => Method::Nuts(NutsSettings {
                    warmup,
                    samples,
                    ..Default::default()
                }),
                MethodSpec::Importance { particles } => {
                    Method::Importance(ImportanceSettings { particles })
                }
                MethodSpec::Advi { .. } => unreachable!("the rotation has no advi requests"),
            };
            let started = Instant::now();
            let fit = program.session(&refs(&request.data)).and_then(|s| {
                s.with_bound_model(cached.scheme, cached.model.clone())
                    .workspace_pool(cached.pool.clone())
                    .chains(request.chains)
                    .seed(request.seed)
                    .run(method)
            });
            let inproc_s = started.elapsed().as_secs_f64();
            let (Ok(served), Ok(fit)) = (served, fit) else {
                report.check(false, || format!("{}: probe request failed", request.name));
                continue;
            };
            if round > 0 {
                overhead.push((served_s - inproc_s) * 1e6);
            }

            // Protocol: encode and parse the request, parse the frames the
            // server streams back for it.
            let frames: Vec<String> = std::iter::once(serve::protocol::Response::Names {
                names: served.names.clone(),
            })
            .chain(fit.chains.iter().enumerate().map(|(index, c)| {
                serve::protocol::Response::Chain {
                    index,
                    divergences: c.divergences,
                    wall_time: c.wall_time,
                    n_grad_evals: c.n_grad_evals,
                    draws: c.draws.clone(),
                }
            }))
            .chain(std::iter::once(serve::protocol::Response::Done {
                wall_time: fit.wall_time,
            }))
            .map(|r| r.encode())
            .collect();
            let seconds = median_secs(reps, || {
                let payload = request.encode().expect("corpus data encodes");
                let parsed = Request::parse(&payload).map(|r| r.data.len());
                let frames_ok = frames
                    .iter()
                    .all(|f| serve::protocol::Response::parse(f).is_ok());
                (parsed, frames_ok)
            });
            protocol.push(seconds * 1e6);
        }
    }
    server.shutdown();
    report.metric("serve.protocol_us", median(&protocol), "us");
    report.metric("serve.cache_hit_us", median(&hits), "us");
    report.metric("serve.cache_miss_us", median(&misses), "us");
    report.metric("serve.overhead_us_p50", median(&overhead), "us");
}
