//! `perfbench` — the steady-state benchmark of `semcc serve`.
//!
//! ```text
//! perfbench --workload banking|orders|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The top-level process splits the `--seconds` into sub-runs, each in a
//! fresh child process (this binary, `child` subcommand), so the peak
//! resident set belongs to that sub-run alone, and reports medians over
//! them. Before each sub-run it times the set-up, which produces the
//! synthesized policy the child receives on its standard input; `setup_s`
//! is the median over all those set-ups. Every sub-run uses `--seed`
//! itself, so the median over sub-runs measures host noise only. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it adds
//! a traced run of the same seed and length and prints the per-layer
//! metrics. On one-worker workloads, all these runs must agree on their
//! per-type counts.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed check prints
//! its reason, reports `"correct": false` with no metrics and exits 1.
//! See `README.md` in this directory for the workloads and metrics.

mod gen;
mod hist;
mod run;
mod setup;
mod trace;
mod window;

use run::{DetCounts, Mode, CHILD_SLACK};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The end-to-end metrics (`--trace 0`), with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("txn_per_s", "txn/s"),
    ("tail_txn_per_s", "txn/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics (`--trace 1`), with their units. Those the
/// top-level process does not compute itself come from the traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("synth.search_s", "s"),
    ("synth.prover_calls", "count"),
    ("synth.pair_evals", "count"),
    ("synth.witness_s", "s"),
    ("setup.load_s", "s"),
    ("serve.self_us", "us"),
    ("serve.attempts_per_commit", "ratio"),
    ("serve.backoff_ms", "ms/ktxn"),
    ("serve.aborts.deadlock", "1/ktxn"),
    ("serve.aborts.timeout", "1/ktxn"),
    ("serve.aborts.fcw", "1/ktxn"),
    ("engine.begin_us", "us"),
    ("engine.item_read_us", "us"),
    ("engine.item_write_us", "us"),
    ("txn.control_us", "us"),
    ("txn.attempt_self_us", "us"),
    ("engine.commit_us", "us"),
    ("engine.scan_us", "us"),
    ("engine.update_where_us", "us"),
    ("engine.delete_where_us", "us"),
    ("engine.insert_us", "us"),
    ("engine.scan_share", "ratio"),
    ("engine.scan_ns_per_table_row", "ns/row"),
    ("engine.scan_rows_returned", "rows"),
    ("lock.waits_per_ktxn", "1/ktxn"),
    ("lock.deadlocks_per_ktxn", "1/ktxn"),
    ("lock.timeouts_per_ktxn", "1/ktxn"),
    ("lock.grants_end", "count"),
    ("mvcc.commits", "count"),
    ("mvcc.fcw_failures", "count"),
    ("mvcc.log_len_end", "count"),
    ("storage.item_versions_end", "count"),
    ("storage.rows_end.orders", "rows"),
    ("storage.rows_end.cust", "rows"),
    ("workloads.gen_us", "us"),
    ("host.cpu_per_worker", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
];

/// Before each sub-run, set-up is repeated until at least this much time
/// went into it, so a set-up of a few milliseconds still gets many
/// samples spread over the whole run.
const SETUP_MIN_TIME: Duration = Duration::from_millis(200);

/// The measured time is split into this many sub-runs, each in a fresh
/// process; end-to-end metrics are their medians.
const SUBRUNS: usize = 7;

struct Args {
    workload: gen::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Option<Mode>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut mode) = (None, None, false, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(gen::workload(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(val()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                }
            }
            "--mode" => {
                let v = val()?;
                mode = Some(Mode::parse(v).ok_or(format!("bad --mode `{v}`"))?);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        mode,
    })
}

/// Median; NaN (reported as "not measured") when there are no values.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` without leaving it.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.into() };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stderr(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What a child run printed.
#[derive(Default)]
struct ChildOut {
    values: BTreeMap<String, f64>,
    det: DetCounts,
    failures: Vec<String>,
}

/// Run one measured phase in a fresh process and collect its lines.
fn run_in_child(args: &Args, mode: Mode, seconds: f64, policy: &str) -> ChildOut {
    let mut out = ChildOut::default();
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            out.failures.push(format!("locating the benchmark binary: {e}"));
            return out;
        }
    };
    let spawned = Command::new(exe)
        .args(["child", "--workload", args.workload.name, "--mode", mode.name()])
        .args(["--seed", &args.seed.to_string(), "--seconds", &seconds.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("starting the {} run: {e}", mode.name()));
            return out;
        }
    };
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    if let Err(e) = stdin.write_all(policy.as_bytes()) {
        out.failures.push(format!("sending the policy to the {} run: {e}", mode.name()));
    }
    drop(stdin);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds) + CHILD_SLACK;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    let mut ended = false;
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let num = |k: usize| parts[k].parse::<u64>().ok();
        match parts[..] {
            ["end"] => ended = true,
            ["fail", ..] => out.failures.push(line["fail ".len()..].to_string()),
            ["det", t, ..] if parts.len() == 4 => {
                if let (Some(i), Some(c)) = (num(2), num(3)) {
                    out.det.insert(t.to_string(), (i, c));
                }
            }
            [k, v] => {
                if let Ok(v) = v.parse() {
                    out.values.insert(k.to_string(), v);
                }
            }
            _ => {}
        }
    }
    match status {
        None => out.failures.push(format!("the {} run did not finish in time", mode.name())),
        Some(s) if !s.success() && out.failures.is_empty() => {
            out.failures.push(format!("the {} run exited with {s}", mode.name()))
        }
        _ => {}
    }
    if !ended && out.failures.is_empty() {
        out.failures.push(format!("the {} run printed no complete result", mode.name()));
    }
    out
}

/// `child`: one measured phase in this process.
fn child_main(args: &Args) -> ExitCode {
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        eprintln!("perfbench child: reading the policy: {e}");
        return ExitCode::from(2);
    }
    let artifacts = match semcc_json::from_str_value(&text) {
        Ok(semcc_json::Json::Arr(a)) => a,
        _ => {
            eprintln!("perfbench child: the policy is not a JSON array of artifacts");
            return ExitCode::from(2);
        }
    };
    let policy = match setup::verify(&artifacts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench child: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = args.mode.unwrap_or(Mode::Plain);
    if run::run_child(args.workload, args.seed, args.seconds, mode, policy) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The set-up samples of one run.
#[derive(Default)]
struct SetupOut {
    /// Complete set-up times (`setup_s` samples).
    totals: Vec<f64>,
    /// `Server::start` + `workload::setup` times.
    loads: Vec<f64>,
    /// Witness-off synthesis times (traced runs only).
    searches: Vec<f64>,
    counts: setup::SynthCounts,
}

/// Time the complete set-up at least once and for at least
/// [`SETUP_MIN_TIME`]; with `trace`, also time synthesis with witnesses
/// off after each. Returns the sealed policy artifacts, as JSON, for the
/// sub-run that follows.
fn time_setup(
    wl: gen::Workload,
    seed: u64,
    jobs: usize,
    trace: bool,
    out: &mut SetupOut,
) -> Result<String, String> {
    let start = Instant::now();
    loop {
        let (times, artifacts) =
            setup::timed_setup(wl.mix, wl.scale, seed, jobs).map_err(|e| format!("set-up: {e}"))?;
        out.totals.push(times.total_s);
        out.loads.push(times.load_s);
        if trace {
            let t0 = Instant::now();
            let (_, counts) = setup::synth_policies(wl.mix, jobs, false);
            out.searches.push(t0.elapsed().as_secs_f64());
            out.counts = counts;
        }
        if start.elapsed() >= SETUP_MIN_TIME {
            return Ok(semcc_json::Json::Arr(artifacts).to_compact());
        }
    }
}

/// Same-seed one-worker runs must agree on per-type counts.
fn same_seed_failures(runs: &[(Mode, ChildOut)]) -> Vec<String> {
    let mut failures = Vec::new();
    let Some((mode0, first)) = runs.first() else {
        return failures;
    };
    for (mode, out) in runs {
        if out.det.is_empty() {
            failures.push(format!(
                "a {} run did not reach {} transactions",
                mode.name(),
                run::DET_TXNS
            ));
        } else if out.det != first.det {
            failures.push(format!(
                "same-seed runs disagree on per-type counts after {} transactions: {} {:?} vs {} {:?}",
                run::DET_TXNS,
                mode0.name(),
                first.det,
                mode.name(),
                out.det
            ));
        }
    }
    failures
}

fn parent_main(args: &Args) -> ExitCode {
    let wl = args.workload;
    let jobs = nproc();
    println!(
        "# perfbench workload={} workers={} scale={} seed={} seconds={} trace={} nproc={} \
         commit={} rustc=\"{}\"",
        wl.name,
        wl.workers,
        wl.scale,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        jobs,
        git_commit(),
        rustc_version()
    );
    let mut failures: Vec<String> = Vec::new();

    // Set-up runs before each sub-run, so its samples see the same host
    // drift as the sub-runs do.
    let mut setup = SetupOut::default();
    let sub_seconds = args.seconds / SUBRUNS as f64;
    let mut modes = vec![Mode::Plain; SUBRUNS];
    if args.trace {
        modes.push(Mode::Traced);
    }
    let mut runs: Vec<(Mode, ChildOut)> = Vec::new();
    for mode in modes {
        let policy = match time_setup(wl, args.seed, jobs, args.trace, &mut setup) {
            Ok(p) => p,
            Err(e) => {
                failures.push(e);
                break;
            }
        };
        let out = run_in_child(args, mode, sub_seconds, &policy);
        let shown: Vec<String> =
            ["issued", "txn_per_s", "tail_txn_per_s", "p50_us", "p99_us", "peak_rss_mb"]
                .iter()
                .filter_map(|k| out.values.get(*k).map(|v| format!("{k}={v:.1}")))
                .collect();
        println!("# {} run: {}", mode.name(), shown.join(" "));
        failures.extend(out.failures.iter().map(|f| format!("{} run: {f}", mode.name())));
        runs.push((mode, out));
        if !failures.is_empty() {
            break;
        }
    }
    if wl.workers == 1 && failures.is_empty() {
        failures.extend(same_seed_failures(&runs));
    }
    let plains: Vec<&ChildOut> =
        runs.iter().filter(|(m, _)| *m == Mode::Plain).map(|(_, o)| o).collect();
    let plain_median = |k: &str| {
        let mut v: Vec<f64> =
            plains.iter().map(|o| o.values.get(k).copied().unwrap_or(f64::NAN)).collect();
        median(&mut v)
    };

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    if failures.is_empty() {
        if !args.trace {
            for (k, _) in END_TO_END {
                let v = if *k == "setup_s" { median(&mut setup.totals) } else { plain_median(k) };
                metrics.push((k, v));
            }
        } else {
            let traced = &runs.last().expect("traced run ran").1;
            let search_s = median(&mut setup.searches);
            let load_s = median(&mut setup.loads);
            let sum = |k: &str| {
                plains.iter().map(|o| o.values.get(k).copied().unwrap_or(0.0)).sum::<f64>()
            };
            let own: BTreeMap<&str, f64> = BTreeMap::from([
                ("synth.search_s", search_s),
                ("synth.prover_calls", setup.counts.prover_calls as f64),
                ("synth.pair_evals", setup.counts.pair_evals as f64),
                ("synth.witness_s", median(&mut setup.totals) - load_s - search_s),
                ("setup.load_s", load_s),
                ("workloads.gen_us", plain_median("gen_us")),
                ("host.cpu_per_worker", plain_median("cpu_per_worker")),
                ("fail_ratio", sum("not_committed") / sum("issued").max(1.0)),
            ]);
            for (k, _) in PER_LAYER {
                let v = own.get(k).copied().or_else(|| traced.values.get(*k).copied());
                metrics.push((k, v.unwrap_or(f64::NAN)));
            }
        }
        for (k, v) in &metrics {
            if !v.is_finite() {
                failures.push(format!("metric {k} was not measured"));
            }
        }
    }

    let attempted: f64 =
        runs.iter().map(|(_, o)| o.values.get("issued").copied().unwrap_or(0.0)).sum();
    let not_committed: f64 =
        runs.iter().map(|(_, o)| o.values.get("not_committed").copied().unwrap_or(0.0)).sum();
    for f in &failures {
        println!("# FAILED: {f}");
    }
    let correct = failures.is_empty();
    let body: Vec<String> = if correct {
        metrics
            .iter()
            .map(|(k, v)| {
                let unit = END_TO_END
                    .iter()
                    .chain(PER_LAYER)
                    .find(|(n, _)| n == k)
                    .map(|m| m.1)
                    .expect("listed metric");
                // `{:?}` prints the shortest string that reads back as the same f64.
                format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        (attempted as u64).max(1),
        not_committed as u64,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let all: Vec<String> = std::env::args().skip(1).collect();
    let (is_child, rest) = match all.split_first() {
        Some((first, rest)) if first == "child" => (true, rest),
        _ => (false, &all[..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload banking|orders|mixed --seed N --seconds S \
                 --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if is_child {
        child_main(&args)
    } else {
        parent_main(&args)
    }
}
