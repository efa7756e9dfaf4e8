//! One measured run, in its own process: the closed loop, its counters
//! and the correctness checks that follow it.
//!
//! Each worker thread is one client. It claims the next transaction
//! index, draws the type and bindings, and only then starts the latency
//! clock, so the generator is never inside a latency sample. The plain
//! run submits through `Server::submit`. The traced run does so for half
//! the blocks of [`BLOCK`] indices; in the other half, it drives the
//! attempt through `semcc_txn::interp::Stepper` at the server's level
//! with the server's retry policy, and records a span around each call.

use crate::gen::{Generator, Workload};
use crate::hist::Histogram;
use crate::trace::{self, Kind, Spans};
use crate::window::{Windows, WINDOWS};
use semcc_engine::audit::audit_quiescent;
use semcc_engine::{Engine, EngineError, IsolationLevel, Value};
use semcc_serve::{AdmissionPolicy, Server, SubmitError};
use semcc_txn::interp::Stepper;
use semcc_txn::stmt::Stmt;
use semcc_txn::{Bindings, Program};
use semcc_workloads::driver::{AbortClass, RetryPolicy};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a run executes transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Server::submit`, timed for `seconds`.
    Plain,
    /// Blocks through `Server::submit` and through `Stepper` with spans,
    /// timed for `seconds`.
    Traced,
}

impl Mode {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced].into_iter().find(|m| m.name() == s)
    }
}

/// On one-worker workloads, per-type issue and commit counts after this
/// many transactions must repeat exactly across same-seed runs.
pub const DET_TXNS: u64 = 1_000;

/// The traced run splits its transaction indices into blocks of this
/// many, in the order submit, stepper, stepper, submit (repeated). Both
/// halves run in one process at the same time and at the same mean
/// index, so host speed drift and cost that grows linearly with the run
/// cancel out of their comparison.
pub const BLOCK: u64 = 256;

/// Abort classes a run counts, in [`AbortClass::ALL`] order.
const CLASSES: usize = AbortClass::ALL.len();

/// Per-table scan time and count, per window (traced run).
#[derive(Clone, Default)]
struct ScanWindows {
    ns: [u64; WINDOWS],
    count: [u64; WINDOWS],
}

/// One half of the traced run's blocks.
#[derive(Clone, Copy, Default)]
struct Half {
    /// Summed time from the call to its return, retries included.
    wall_ns: u64,
    /// Summed attempt and backoff span time (stepper blocks only).
    span_ns: u64,
    commits: u64,
}

fn per_commit_us(ns: u64, commits: u64) -> f64 {
    if commits == 0 {
        f64::NAN
    } else {
        ns as f64 / commits as f64 / 1e3
    }
}

/// Time the stepper spent in attempts and backoff so far.
fn retry_ns(spans: &Spans) -> u64 {
    spans.get(Kind::Attempt).total_ns + spans.get(Kind::Backoff).total_ns
}

/// Everything one worker measured.
struct WorkerOut {
    hist: Histogram,
    windows: Windows,
    spans: Spans,
    issued: Vec<u64>,
    committed: Vec<u64>,
    gave_up: u64,
    failed: u64,
    panicked: u64,
    gen_ns: u64,
    cpu_ns: u64,
    attempts: u64,
    aborts: [u64; CLASSES],
    select_rows: u64,
    selects: u64,
    scans: Vec<ScanWindows>,
    /// Row counts per table at window edges (worker 0 only).
    edge_rows: Vec<Vec<Option<u64>>>,
    /// Traced run: the `Server::submit` blocks (0) and the stepper
    /// blocks (1).
    halves: [Half; 2],
    det: Option<(Vec<u64>, Vec<u64>)>,
}

impl WorkerOut {
    fn new(types: usize, tables: usize, phase_ns: u64) -> Self {
        WorkerOut {
            hist: Histogram::default(),
            windows: Windows::new(phase_ns),
            spans: Spans::new(),
            issued: vec![0; types],
            committed: vec![0; types],
            gave_up: 0,
            failed: 0,
            panicked: 0,
            gen_ns: 0,
            cpu_ns: 0,
            attempts: 0,
            aborts: [0; CLASSES],
            select_rows: 0,
            selects: 0,
            scans: vec![ScanWindows::default(); tables],
            edge_rows: vec![vec![None; WINDOWS]; tables],
            halves: [Half::default(); 2],
            det: None,
        }
    }

    /// Add another worker's measurements (edge samples and the
    /// reproducibility snapshot stay with the worker that took them).
    fn absorb(&mut self, o: &WorkerOut) {
        fn add(a: &mut [u64], b: &[u64]) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.hist.merge(&o.hist);
        self.windows.merge(&o.windows);
        self.spans.merge(&o.spans);
        add(&mut self.issued, &o.issued);
        add(&mut self.committed, &o.committed);
        add(&mut self.aborts, &o.aborts);
        self.gave_up += o.gave_up;
        self.failed += o.failed;
        self.panicked += o.panicked;
        self.gen_ns += o.gen_ns;
        self.cpu_ns += o.cpu_ns;
        self.attempts += o.attempts;
        self.select_rows += o.select_rows;
        self.selects += o.selects;
        for (a, b) in self.scans.iter_mut().zip(&o.scans) {
            add(&mut a.ns, &b.ns);
            add(&mut a.count, &b.count);
        }
        for (a, b) in self.halves.iter_mut().zip(&o.halves) {
            a.wall_ns += b.wall_ns;
            a.span_ns += b.span_ns;
            a.commits += b.commits;
        }
    }
}

/// CPU time the calling thread has used, in ns (0 where unavailable).
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn span_kind(stmt: &Stmt) -> Kind {
    match stmt {
        Stmt::ReadItem { .. } => Kind::ItemRead,
        Stmt::WriteItem { .. } | Stmt::WriteItemMax { .. } => Kind::ItemWrite,
        Stmt::LocalAssign { .. } | Stmt::If { .. } | Stmt::While { .. } | Stmt::Pause { .. } => {
            Kind::Control
        }
        Stmt::Select { .. } | Stmt::SelectCount { .. } | Stmt::SelectValue { .. } => Kind::Scan,
        Stmt::Update { .. } => Kind::UpdateWhere,
        Stmt::Delete { .. } => Kind::DeleteWhere,
        Stmt::Insert { .. } => Kind::Insert,
    }
}

fn scanned_table(stmt: &Stmt) -> Option<&str> {
    match stmt {
        Stmt::Select { table, .. }
        | Stmt::SelectCount { table, .. }
        | Stmt::SelectValue { table, .. } => Some(table),
        _ => None,
    }
}

fn row_counts(engine: &Engine, tables: &[String]) -> Vec<u64> {
    tables.iter().map(|t| engine.store().table(t).map_or(0, |t| t.committed_len() as u64)).collect()
}

enum Failure {
    GaveUp,
    Failed,
    Panicked,
}

/// Shared, read-only context of a run.
struct Ctx<'a> {
    server: &'a Server,
    programs: Vec<&'a Program>,
    levels: Vec<IsolationLevel>,
    tables: Vec<String>,
    retry: RetryPolicy,
    mode: Mode,
    seed: u64,
    scale: usize,
    start: Instant,
    phase_ns: u64,
    next: AtomicU64,
}

/// One attempt through the stepper, with spans. On error the stepper is
/// dropped, which rolls the transaction back, inside an `Abort` span.
fn traced_attempt(
    ctx: &Ctx<'_>,
    out: &mut WorkerOut,
    window: usize,
    t: usize,
    b: &Bindings,
) -> Result<HashMap<String, Value>, EngineError> {
    let program = ctx.programs[t];
    let spans = &mut out.spans;
    let mut st =
        spans.span(Kind::Begin, || Stepper::begin(ctx.server.engine(), program, ctx.levels[t], b));
    for a in &program.body {
        let kind = span_kind(&a.stmt);
        spans.enter(kind);
        let r = st.step();
        let ns = spans.exit();
        if let Err(e) = r {
            spans.span(Kind::Abort, || drop(st));
            return Err(e);
        }
        if let Some(table) = scanned_table(&a.stmt) {
            let ti = ctx.tables.iter().position(|x| x == table).expect("scanned table exists");
            out.scans[ti].ns[window] += ns;
            out.scans[ti].count[window] += 1;
        }
        if let Stmt::Select { into, .. } = &a.stmt {
            out.selects += 1;
            out.select_rows += st.buffers().get(into).map_or(0, |rows| rows.len() as u64);
        }
    }
    match spans.span(Kind::Commit, || st.commit()) {
        Ok(_) => Ok(st.locals().clone()),
        Err(e) => {
            spans.span(Kind::Abort, || drop(st));
            Err(e)
        }
    }
}

/// `Server::submit`'s retry loop around [`traced_attempt`].
fn traced_submit(
    ctx: &Ctx<'_>,
    out: &mut WorkerOut,
    window: usize,
    t: usize,
    b: &Bindings,
    salt: u64,
) -> Result<HashMap<String, Value>, Failure> {
    let mut spent = [0usize; CLASSES];
    let mut attempt = 0usize;
    loop {
        attempt += 1;
        out.attempts += 1;
        out.spans.enter(Kind::Attempt);
        let r = traced_attempt(ctx, out, window, t, b);
        out.spans.exit();
        let e = match r {
            Ok(locals) => return Ok(locals),
            Err(e) => e,
        };
        let Some(class) = AbortClass::classify(&e) else {
            return Err(Failure::Failed);
        };
        let c = AbortClass::ALL.iter().position(|x| *x == class).expect("listed class");
        out.aborts[c] += 1;
        spent[c] += 1;
        let budget_hit = ctx.retry.class_budgets.get(&class).is_some_and(|b| spent[c] > *b);
        if attempt >= ctx.retry.max_attempts || budget_hit {
            return Err(Failure::GaveUp);
        }
        let pause = ctx.retry.backoff(attempt, salt);
        if !pause.is_zero() {
            out.spans.span(Kind::Backoff, || std::thread::sleep(pause));
        }
    }
}

fn plain_submit(
    ctx: &Ctx<'_>,
    t: usize,
    b: &Bindings,
    salt: u64,
) -> Result<HashMap<String, Value>, Failure> {
    match ctx.server.submit(&ctx.programs[t].name, b, salt) {
        Ok(done) => Ok(done.outcome.locals),
        Err(SubmitError::GaveUp { .. }) => Err(Failure::GaveUp),
        Err(SubmitError::Panicked) => Err(Failure::Panicked),
        Err(SubmitError::Failed(_) | SubmitError::UnknownType(_)) => Err(Failure::Failed),
    }
}

fn worker(ctx: &Ctx<'_>, worker_id: usize) -> WorkerOut {
    let mut out = WorkerOut::new(ctx.programs.len(), ctx.tables.len(), ctx.phase_ns);
    let engine = ctx.server.engine();
    let mut gen = Generator::new(ctx.seed, ctx.scale, engine, &ctx.programs);
    let sample_edges = worker_id == 0 && ctx.mode == Mode::Traced;
    let mut edge = 0usize;
    let cpu0 = thread_cpu_ns();
    loop {
        let now = ctx.start.elapsed().as_nanos() as u64;
        if now >= ctx.phase_ns {
            break;
        }
        let window = (now / (ctx.phase_ns / WINDOWS as u64).max(1)) as usize;
        if sample_edges && window >= edge {
            // Outside every span: table sizes at the window's start edge.
            for (ti, rows) in row_counts(engine, &ctx.tables).into_iter().enumerate() {
                out.edge_rows[ti][window] = Some(rows);
            }
            edge = window + 1;
        }
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        let g0 = Instant::now();
        let (t, b) = gen.next(i);
        let stepper = ctx.mode == Mode::Traced && matches!((i / BLOCK) % 4, 1 | 2);
        let retry_before = retry_ns(&out.spans);
        let t0 = Instant::now();
        out.gen_ns += (t0 - g0).as_nanos() as u64;
        let r = if stepper {
            traced_submit(ctx, &mut out, window, t, &b, i)
        } else {
            plain_submit(ctx, t, &b, i)
        };
        let t1 = Instant::now();
        out.issued[t] += 1;
        let half = &mut out.halves[usize::from(stepper)];
        half.wall_ns += (t1 - t0).as_nanos() as u64;
        half.span_ns += retry_ns(&out.spans) - retry_before;
        half.commits += u64::from(r.is_ok());
        match r {
            Ok(locals) => {
                out.committed[t] += 1;
                if out.windows.record((t1 - ctx.start).as_nanos() as u64) {
                    out.hist.record((t1 - t0).as_nanos() as u64);
                }
                gen.observe_commit(t, &b, &locals);
            }
            Err(Failure::GaveUp) => out.gave_up += 1,
            Err(Failure::Failed) => out.failed += 1,
            Err(Failure::Panicked) => out.panicked += 1,
        }
        if i + 1 == DET_TXNS {
            out.det = Some((out.issued.clone(), out.committed.clone()));
        }
    }
    out.cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
    out
}

/// Run the closed loop in this process and print its results, one
/// `key value` line each, then `end`. Returns whether every check passed.
pub fn run_child(
    wl: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
    policy: AdmissionPolicy,
) -> bool {
    let server = crate::setup::start(policy, wl.mix, wl.scale, seed);
    let engine: &Arc<Engine> = server.engine();
    let types: Vec<String> = server.types().into_iter().map(String::from).collect();
    let workers = wl.workers;
    let phase_ns = (seconds * 1e9) as u64;
    let span_cost_ns = if mode == Mode::Traced { trace::span_cost_ns() } else { 0.0 };
    let locks0 = engine.locks().stats();
    let commits0 = engine.oracle().commit_count();
    let fcw0 = engine.oracle().fcw_failure_count();
    let ctx = Ctx {
        server: &server,
        programs: types.iter().map(|t| server.program(t).expect("registered type")).collect(),
        levels: types.iter().map(|t| server.level_of(t).expect("registered type")).collect(),
        tables: engine.store().table_names(),
        retry: crate::setup::serve_config(seed).retry,
        mode,
        seed,
        scale: wl.scale,
        start: Instant::now(),
        phase_ns,
        next: AtomicU64::new(0),
    };
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn({
                    let ctx = &ctx;
                    move || worker(ctx, w)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    let wall = ctx.start.elapsed();
    let end_rows = row_counts(engine, &ctx.tables);

    let mut all = WorkerOut::new(types.len(), ctx.tables.len(), phase_ns);
    for o in &outs {
        all.absorb(o);
    }
    let claimed = ctx.next.load(Ordering::Relaxed);
    let issued: u64 = all.issued.iter().sum();
    let committed: u64 = all.committed.iter().sum();
    let not_committed = all.gave_up + all.failed + all.panicked;
    let per_k = |x: f64| if committed == 0 { 0.0 } else { x * 1e3 / committed as f64 };

    // Correctness checks.
    let mut failures: Vec<String> = Vec::new();
    let violations = semcc_serve::workload::invariant_violations(engine, wl.mix, wl.scale);
    for v in violations.iter().take(10) {
        failures.push(format!("invariant violated: {v}"));
    }
    if violations.len() > 10 {
        failures.push(format!("... {} invariant violation(s) in all", violations.len()));
    }
    if !audit_quiescent(engine).clean() {
        failures.push("quiescence audit failed after the run".into());
    }
    let grants_end = engine.locks().total_grants();
    if grants_end != 0 {
        failures.push(format!("{grants_end} lock grant(s) left after the run"));
    }
    if issued != claimed || committed + not_committed != issued {
        failures.push(format!(
            "committed {committed} + gave up {} + failed {} + panicked {} != issued {issued} \
             ({claimed} indices claimed)",
            all.gave_up, all.failed, all.panicked
        ));
    }
    let oracle_commits = engine.oracle().commit_count() - commits0;
    if oracle_commits != committed {
        failures
            .push(format!("oracle counted {oracle_commits} commit(s), the clients {committed}"));
    }
    if mode == Mode::Plain {
        let stats = server.stats();
        let submitted: u64 = stats.values().map(|s| s.submitted).sum();
        let server_committed: u64 = stats.values().map(|s| s.committed).sum();
        if submitted != issued || server_committed != committed {
            failures.push(format!(
                "server counted {submitted} submitted / {server_committed} committed, the \
                 clients {issued} / {committed}"
            ));
        }
    }
    if all.hist.count() == 0 {
        failures.push("no transaction committed inside the measured phase".into());
    }

    // End-to-end numbers.
    let mut lines: Vec<String> = Vec::new();
    let mut put = |k: &str, v: f64| lines.push(format!("{k} {v}"));
    put("issued", issued as f64);
    put("committed", committed as f64);
    put("not_committed", not_committed as f64);
    put("txn_per_s", all.windows.total() as f64 / (phase_ns as f64 / 1e9));
    put("tail_txn_per_s", all.windows.tail_rate());
    put("p50_us", all.hist.percentile(0.50) / 1e3);
    put("p99_us", all.hist.percentile(0.99) / 1e3);
    put("latency_samples", all.hist.count() as f64);
    put("gen_us", if issued == 0 { 0.0 } else { all.gen_ns as f64 / issued as f64 / 1e3 });
    put("cpu_per_worker", all.cpu_ns as f64 / (wall.as_nanos() as f64 * workers as f64));

    // Layer counters.
    let locks = engine.locks().stats();
    put("lock.waits_per_ktxn", per_k((locks.waits - locks0.waits) as f64));
    put("lock.deadlocks_per_ktxn", per_k((locks.deadlocks - locks0.deadlocks) as f64));
    put("lock.timeouts_per_ktxn", per_k((locks.timeouts - locks0.timeouts) as f64));
    put("lock.grants_end", grants_end as f64);
    put("mvcc.commits", oracle_commits as f64);
    put("mvcc.fcw_failures", (engine.oracle().fcw_failure_count() - fcw0) as f64);
    put("mvcc.log_len_end", engine.oracle().log_len() as f64);
    let versions: usize = engine
        .store()
        .item_names()
        .iter()
        .map(|name| engine.store().item(name).map_or(0, |c| c.lock().version_count()))
        .sum();
    put("storage.item_versions_end", versions as f64);
    for table in ["orders", "cust"] {
        let rows = ctx.tables.iter().position(|t| t == table).map_or(0, |ti| end_rows[ti]);
        put(&format!("storage.rows_end.{table}"), rows as f64);
    }

    if mode == Mode::Traced {
        // Self time of `Server::submit` beyond the attempts and backoff
        // the stepper blocks see, and the stepper blocks' overhead.
        // The stepper's attempt spans also hold the cost of the spans
        // inside them; take that out before comparing.
        let [submit, stepped] = all.halves;
        let submit_us = per_commit_us(submit.wall_ns, submit.commits);
        let inner_ns = (all.spans.inner_count() as f64 * span_cost_ns) as u64;
        put(
            "serve.self_us",
            submit_us - per_commit_us(stepped.span_ns.saturating_sub(inner_ns), stepped.commits),
        );
        put(
            "trace.overhead_ratio",
            per_commit_us(stepped.wall_ns, stepped.commits) / submit_us - 1.0,
        );
        // Retries are counted in the stepper blocks only.
        let per_stepped = |x: f64| x / stepped.commits.max(1) as f64;
        let spans = &all.spans;
        let attempt = spans.get(Kind::Attempt);
        let backoff = spans.get(Kind::Backoff);
        put("serve.attempts_per_commit", per_stepped(all.attempts as f64));
        put("serve.backoff_ms", per_stepped(backoff.total_ns as f64) * 1e3 / 1e6);
        for (c, class) in AbortClass::ALL.iter().enumerate() {
            put(&format!("serve.aborts.{}", class.name()), per_stepped(all.aborts[c] as f64) * 1e3);
        }
        for (name, kind) in [
            ("engine.begin_us", Kind::Begin),
            ("engine.item_read_us", Kind::ItemRead),
            ("engine.item_write_us", Kind::ItemWrite),
            ("txn.control_us", Kind::Control),
            ("engine.commit_us", Kind::Commit),
            ("engine.scan_us", Kind::Scan),
            ("engine.update_where_us", Kind::UpdateWhere),
            ("engine.delete_where_us", Kind::DeleteWhere),
            ("engine.insert_us", Kind::Insert),
        ] {
            put(name, spans.get(kind).mean_us());
        }
        // The stepper's own time between the calls it makes.
        let attempt_self_us = if attempt.count == 0 {
            0.0
        } else {
            attempt.self_ns as f64 / attempt.count as f64 / 1e3
        };
        put("txn.attempt_self_us", attempt_self_us);
        let scan_share = if attempt.total_ns == 0 {
            0.0
        } else {
            spans.get(Kind::Scan).total_ns as f64 / attempt.total_ns as f64
        };
        put("engine.scan_share", scan_share);
        // Scan time per table row: rows are the mean of the window's two
        // edge samples (the last edge is the end of the run).
        let edges = &outs[0].edge_rows;
        let (mut scan_ns, mut row_scans) = (0.0, 0.0);
        for (ti, sw) in all.scans.iter().enumerate() {
            for w in 0..WINDOWS {
                let lo = edges[ti][w];
                let hi = if w + 1 < WINDOWS { edges[ti][w + 1] } else { Some(end_rows[ti]) };
                if let (Some(lo), Some(hi)) = (lo, hi) {
                    scan_ns += sw.ns[w] as f64;
                    row_scans += sw.count[w] as f64 * (lo + hi) as f64 / 2.0;
                }
            }
        }
        put(
            "engine.scan_ns_per_table_row",
            if row_scans == 0.0 { 0.0 } else { scan_ns / row_scans },
        );
        put(
            "engine.scan_rows_returned",
            if all.selects == 0 { 0.0 } else { all.select_rows as f64 / all.selects as f64 },
        );
    }
    put("peak_rss_mb", peak_rss_mb());

    let stdout = std::io::stdout();
    let mut so = stdout.lock();
    for l in &lines {
        let _ = writeln!(so, "{l}");
    }
    if workers == 1 {
        if let Some((det_issued, det_committed)) = &outs[0].det {
            for (k, t) in types.iter().enumerate() {
                let _ = writeln!(so, "det {t} {} {}", det_issued[k], det_committed[k]);
            }
        }
    }
    for f in &failures {
        let _ = writeln!(so, "fail {f}");
    }
    let _ = writeln!(so, "end");
    let _ = so.flush();
    failures.is_empty()
}

/// Per-type `(issued, committed)` after the first [`DET_TXNS`] transactions.
pub type DetCounts = BTreeMap<String, (u64, u64)>;

/// Time allowed for a child run beyond its measured phase.
pub const CHILD_SLACK: Duration = Duration::from_secs(60);
