//! Spans recorded by the traced run, aggregated per kind as they close.
//!
//! A span is opened around one call into a layer and closed when the call
//! returns. Spans nest: a transaction attempt encloses its `begin`, one
//! span per top-level statement and its `commit`. Each kind keeps a
//! count, its total time and its self time (total minus the time its
//! direct children cover), so memory stays fixed however long the run.

use std::time::Instant;

/// What a span covers. Statements are named by their top-level kind;
/// statements nested in an `If` or `While` count toward that parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One transaction attempt, from `Stepper::begin` to commit or abort.
    Attempt,
    /// `Stepper::begin` (engine `begin`).
    Begin,
    /// `ReadItem`.
    ItemRead,
    /// `WriteItem`, `WriteItemMax`.
    ItemWrite,
    /// `LocalAssign`, `If`, `While`, `Pause`, with nested statements.
    Control,
    /// `Select`, `SelectCount`, `SelectValue`.
    Scan,
    /// `Update ... WHERE`.
    UpdateWhere,
    /// `Delete ... WHERE`.
    DeleteWhere,
    /// `Insert`.
    Insert,
    /// `Stepper::commit`.
    Commit,
    /// Rolling back a failed attempt.
    Abort,
    /// The retry policy's backoff sleep.
    Backoff,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 12;

/// Aggregate of every closed span of one kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

impl Agg {
    /// Mean span duration in microseconds (0 when no span closed).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-worker span recorder.
pub struct Spans {
    origin: Instant,
    aggs: [Agg; KINDS],
    /// Open spans: kind, start (ns since `origin`), children's time so far.
    stack: Vec<(Kind, u64, u64)>,
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Self {
        Spans { origin: Instant::now(), aggs: [Agg::default(); KINDS], stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn enter(&mut self, kind: Kind) {
        let now = self.now_ns();
        self.enter_at(kind, now);
    }

    /// Close the innermost span now; returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let now = self.now_ns();
        self.exit_at(now)
    }

    /// Run `f` inside a span of `kind`.
    pub fn span<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        self.enter(kind);
        let out = f();
        self.exit();
        out
    }

    fn enter_at(&mut self, kind: Kind, at_ns: u64) {
        self.stack.push((kind, at_ns, 0));
    }

    fn exit_at(&mut self, at_ns: u64) -> u64 {
        let (kind, start, children) = self.stack.pop().expect("exit matches an open span");
        let dur = at_ns.saturating_sub(start);
        let agg = &mut self.aggs[kind as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(children);
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += dur;
        }
        dur
    }

    /// The aggregate of one kind.
    pub fn get(&self, kind: Kind) -> Agg {
        self.aggs[kind as usize]
    }

    /// Spans closed inside attempts: every kind but `Attempt` and
    /// `Backoff`.
    pub fn inner_count(&self) -> u64 {
        self.aggs
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != Kind::Attempt as usize && *k != Kind::Backoff as usize)
            .map(|(_, a)| a.count)
            .sum()
    }

    /// Add another recorder's closed spans.
    pub fn merge(&mut self, other: &Spans) {
        for (a, b) in self.aggs.iter_mut().zip(&other.aggs) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
    }
}

/// Mean cost in ns of opening and closing one span, measured on a
/// scratch recorder. A parent span's time includes this much per child.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut s = Spans::new();
    let t0 = Instant::now();
    for _ in 0..N {
        s.enter(Kind::Begin);
        s.exit();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new();
        s.enter_at(Kind::Attempt, 0);
        s.enter_at(Kind::Begin, 10);
        assert_eq!(s.exit_at(30), 20);
        s.enter_at(Kind::Control, 30);
        // A nested statement inside the control span: it belongs to the
        // control span's time, and only the control span is the
        // attempt's direct child.
        s.enter_at(Kind::Insert, 40);
        s.exit_at(70);
        s.exit_at(80);
        s.enter_at(Kind::Commit, 85);
        s.exit_at(95);
        assert_eq!(s.exit_at(100), 100);

        let attempt = s.get(Kind::Attempt);
        assert_eq!(attempt, Agg { count: 1, total_ns: 100, self_ns: 100 - 20 - 50 - 10 });
        assert_eq!(s.get(Kind::Control), Agg { count: 1, total_ns: 50, self_ns: 20 });
        assert_eq!(s.get(Kind::Insert), Agg { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(s.get(Kind::Scan), Agg::default());
        assert_eq!(s.inner_count(), 4, "begin, control, insert, commit");
    }

    #[test]
    fn merge_sums_and_mean_is_per_span() {
        let mut a = Spans::new();
        a.enter_at(Kind::Scan, 0);
        a.exit_at(3_000);
        let mut b = Spans::new();
        b.enter_at(Kind::Scan, 0);
        b.exit_at(1_000);
        a.merge(&b);
        assert_eq!(a.get(Kind::Scan).count, 2);
        assert_eq!(a.get(Kind::Scan).mean_us(), 2.0);
        assert_eq!(a.get(Kind::Begin).mean_us(), 0.0);
    }
}
