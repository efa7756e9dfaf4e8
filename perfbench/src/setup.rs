//! Set-up: synthesize the mix's admission policies the way `semcc synth`
//! does, seal and verify them, start the server and load its data.

use semcc_core::assign::{assign_levels, default_ladder};
use semcc_core::App;
use semcc_engine::IsolationLevel;
use semcc_json::Json;
use semcc_serve::{AdmissionPolicy, Mix, ServeConfig, Server};
use semcc_synth::policy::{certificate_digest, synth_certificate};
use semcc_synth::{policy_json, synthesize, SearchStats, SynthOptions};
use semcc_workloads::driver::RetryPolicy;
use semcc_workloads::{banking, orders, payroll};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The applications behind a mix, each synthesized into its own policy
/// artifact (named like the file `semcc export` writes).
fn apps(mix: Mix) -> Vec<(&'static str, App)> {
    match mix {
        Mix::Banking => vec![("banking", banking::app())],
        Mix::Orders => vec![("orders", orders::app(false))],
        Mix::Payroll => vec![("payroll", payroll::app())],
        Mix::Mixed => vec![
            ("banking", banking::app()),
            ("orders", orders::app(false)),
            ("payroll", payroll::app()),
        ],
    }
}

/// Search statistics summed over a mix's applications.
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthCounts {
    /// Interference-prover calls.
    pub prover_calls: u64,
    /// Pair lemmas evaluated.
    pub pair_evals: u64,
}

/// `semcc synth <app>` without the file I/O: the sealed policy artifact.
fn synth_artifact(name: &str, app: &App, opts: &SynthOptions) -> (Json, SearchStats) {
    let syn = synthesize(app, opts).expect("built-in applications synthesize");
    let greedy = assign_levels(app, &default_ladder());
    let digest = certificate_digest(&synth_certificate(app, name, &syn));
    let levels: BTreeMap<String, IsolationLevel> =
        syn.txns.iter().cloned().zip(syn.primary().levels.iter().cloned()).collect();
    let advisories = semcc_refine::predict_deadlocks(app, &levels);
    (policy_json(name, &syn, &greedy, &advisories, &digest), syn.stats)
}

/// Synthesize every policy of `mix`; returns the artifacts and the
/// summed search statistics.
pub fn synth_policies(mix: Mix, jobs: usize, witnesses: bool) -> (Vec<Json>, SynthCounts) {
    let opts = SynthOptions { jobs, witnesses, ..Default::default() };
    let mut counts = SynthCounts::default();
    let artifacts = apps(mix)
        .iter()
        .map(|(name, app)| {
            let (json, stats) = synth_artifact(name, app, &opts);
            counts.prover_calls += stats.prover_calls as u64;
            counts.pair_evals += stats.pair_evals as u64;
            json
        })
        .collect();
    (artifacts, counts)
}

/// Verify each artifact's seal and merge them into one admission table.
pub fn verify(artifacts: &[Json]) -> Result<AdmissionPolicy, String> {
    let mut merged: Option<AdmissionPolicy> = None;
    for a in artifacts {
        let p = AdmissionPolicy::from_json(a, "synthesized").map_err(|e| e.to_string())?;
        merged = Some(match merged {
            None => p,
            Some(acc) => acc.merge(p).map_err(|e| e.to_string())?,
        });
    }
    merged.ok_or_else(|| "no policy artifacts".to_string())
}

/// The server configuration `semcc serve --bench` runs with.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        lock_timeout: Duration::from_millis(30),
        retry: RetryPolicy { max_attempts: 1_000, jitter_seed: seed, ..RetryPolicy::default() },
        ..ServeConfig::default()
    }
}

/// Start a server over `policy` and load the mix's data.
pub fn start(policy: AdmissionPolicy, mix: Mix, scale: usize, seed: u64) -> Server {
    let server =
        Server::start(policy, mix.programs(), serve_config(seed)).expect("policy covers the mix");
    semcc_serve::workload::setup(server.engine(), mix, scale);
    server
}

/// Timings of one complete set-up.
pub struct SetupTimes {
    /// Synthesis with witness replay, sealing and verification, server
    /// start and data load: the `setup_s` sample.
    pub total_s: f64,
    /// `Server::start` plus `workload::setup`.
    pub load_s: f64,
}

/// One complete set-up, timed; returns the artifacts it produced.
pub fn timed_setup(
    mix: Mix,
    scale: usize,
    seed: u64,
    jobs: usize,
) -> Result<(SetupTimes, Vec<Json>), String> {
    let t0 = Instant::now();
    let (artifacts, _) = synth_policies(mix, jobs, true);
    let policy = verify(&artifacts)?;
    let t1 = Instant::now();
    let server = start(policy, mix, scale, seed);
    let t2 = Instant::now();
    drop(server);
    let times = SetupTimes { total_s: (t2 - t0).as_secs_f64(), load_s: (t2 - t1).as_secs_f64() };
    Ok((times, artifacts))
}
