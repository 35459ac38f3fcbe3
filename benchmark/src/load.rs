//! The load generator: open- and closed-loop pacing, due-time latency
//! accounting, and output validation.
//!
//! Open loop: op `i` of a connection is due at `start + i / rate`, is sent
//! when due (or at once if the connection was still busy), and its latency
//! runs **from the due time**, so a stall is charged to every op that was
//! due during it. Closed loop: each connection (or its fixed window) issues
//! back-to-back and latency runs from the send.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mystore_serverd::FrameReader;

use crate::client::{is_timeout, parse_reply, Client, Reply, WireConn, WireSender, OP_TIMEOUT};
use crate::workload::{value_len, verify_body, Bodies, KeyState, Op, OpStream, Workload};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Fixed schedule at this many ops/s on this connection.
    Open(f64),
    /// Keep this many requests outstanding.
    Closed(usize),
}

impl Pace {
    /// Where an op's latency starts: when it was due on a schedule, when
    /// it was sent otherwise.
    fn latency_from(self, due: Instant, sent: Instant) -> Instant {
        match self {
            Pace::Open(_) => due,
            Pace::Closed(_) => sent,
        }
    }

    /// How many ops a phase of `length` owed: on a schedule those with
    /// `i / rate < length`, otherwise the `issued` ones.
    fn ops_due(self, length: Duration, issued: u64) -> u64 {
        match self {
            Pace::Open(rate) => (rate * length.as_secs_f64()).ceil() as u64,
            Pace::Closed(_) => issued,
        }
    }
}

const FAILURES_KEPT: usize = 8;

/// What one connection observed over one phase.
#[derive(Default)]
pub struct Recorder {
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    /// How late each op left, measured from the later of its due time and
    /// the moment the connection was free to send it.
    pub lag_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Ops due within the phase (open loop) or issued (closed loop).
    pub due: u64,
    /// Ops that completed inside the phase window.
    pub done_in_window: u64,
    pub over_limit: u64,
    pub inflight_max: u64,
    /// Value bytes of acked PUTs, and of bodies GETs returned.
    pub put_bytes: u64,
    pub get_bytes: u64,
    pub elapsed: Duration,
    /// What the first few failures were, for the log.
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn merge(&mut self, other: &Recorder) {
        self.get_ns.extend_from_slice(&other.get_ns);
        self.put_ns.extend_from_slice(&other.put_ns);
        self.lag_ns.extend_from_slice(&other.lag_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.due += other.due;
        self.done_in_window += other.done_in_window;
        self.over_limit += other.over_limit;
        self.inflight_max = self.inflight_max.max(other.inflight_max);
        self.put_bytes += other.put_bytes;
        self.get_bytes += other.get_bytes;
        self.elapsed = self.elapsed.max(other.elapsed);
        let room = FAILURES_KEPT.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.iter().take(room).cloned());
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Validates replies and books them. One per connection.
#[derive(Clone, Copy)]
pub struct Judge<'a> {
    pub w: &'a Workload,
    pub keys: &'a KeyState,
    /// Off only where replies carry no value to check (the ladder's
    /// `floor` rung); then any 2xx is good.
    pub verify: bool,
}

impl Judge<'_> {
    /// A reply is good when the status is 2xx and, for a GET, the body is
    /// this key's, passes its checksum, and carries a sequence that was
    /// issued. (Under R = 1 a GET may lawfully return an older sequence.)
    fn accept(&self, op: &Op, reply: &Reply) -> bool {
        if !(200..300).contains(&reply.status) {
            return false;
        }
        if !self.verify {
            true
        } else if op.is_get() {
            matches!(verify_body(op.key, self.w.value_bytes, &reply.body),
                     Some(seq) if seq >= 1 && seq <= self.keys.issued(op.key))
        } else {
            self.keys.ack(op.key, op.seq);
            true
        }
    }

    fn describe(&self, op: &Op, reply: Option<&Reply>) -> String {
        let what = if op.is_get() { "GET".into() } else { format!("PUT seq {}", op.seq) };
        let why = match reply {
            None => "no reply (transport error or timeout)".into(),
            Some(r) if !(200..300).contains(&r.status) => format!("status {}", r.status),
            Some(r) => format!(
                "body of {} bytes carries {:?}, issued up to {}",
                r.body.len(),
                verify_body(op.key, self.w.value_bytes, &r.body),
                self.keys.issued(op.key)
            ),
        };
        format!("{what} key {}: {why}", op.key)
    }

    /// Books one finished op. `from` is where its latency starts: the due
    /// time in an open loop, the send time in a closed one.
    pub fn record(
        &self,
        rec: &mut Recorder,
        op: &Op,
        from: Instant,
        done: Instant,
        window_end: Instant,
        reply: Option<&Reply>,
    ) {
        rec.attempted += 1;
        let ns = done.duration_since(from).as_nanos() as u64;
        let good = reply.is_some_and(|r| self.accept(op, r));
        if !good {
            rec.failed += 1;
            if rec.failures.len() < FAILURES_KEPT {
                rec.failures.push(self.describe(op, reply));
            }
        } else if op.is_get() {
            rec.get_ns.push(ns);
            rec.get_bytes += reply.map_or(0, |r| r.body.len()) as u64;
        } else {
            rec.put_ns.push(ns);
            rec.put_bytes += value_len(self.w.value_bytes, op.key, op.seq) as u64;
        }
        if !good || ns > self.w.p99_limit_us * 1000 {
            rec.over_limit += 1;
        }
        if done <= window_end {
            rec.done_in_window += 1;
        }
    }
}

fn sleep_until(t: Instant) {
    let left = t.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        std::thread::sleep(left);
    }
}

/// Where the serial generator reads the time and waits: the machine's clock,
/// or a test's, which moves only when the test says so.
pub trait Clock {
    fn now(&self) -> Instant;
    fn sleep_until(&self, t: Instant);
}

pub struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep_until(&self, t: Instant) {
        sleep_until(t);
    }
}

fn due_time(start: Instant, rate: f64, i: u64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// One op after the other on one connection. `call` performs the exchange;
/// the real one talks to a socket, the tests stall on purpose. `on_op` sees
/// every finished op (the traced pass records spans there).
pub fn run_serial(
    clock: &impl Clock,
    pace: Pace,
    length: Duration,
    mut next_op: impl FnMut() -> Option<Op>,
    mut call: impl FnMut(&Op) -> Option<Reply>,
    judge: &Judge,
    mut on_op: impl FnMut(&Op, Instant, Instant),
) -> Recorder {
    let mut rec = Recorder { inflight_max: 1, ..Recorder::default() };
    let start = clock.now();
    let end = start + length;
    let mut free_at = start;
    let mut i = 0u64;
    loop {
        let due = match pace {
            Pace::Open(rate) => due_time(start, rate, i),
            Pace::Closed(_) => free_at,
        };
        if due >= end {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        if sent >= end {
            break; // due in the window but never sent: shows in achieved rate
        }
        rec.lag_ns.push(sent.duration_since(due.max(free_at)).as_nanos() as u64);
        let Some(op) = next_op() else { break };
        let reply = call(&op);
        let done = clock.now();
        judge.record(&mut rec, &op, pace.latency_from(due, sent), done, end, reply.as_ref());
        on_op(&op, sent, done);
        free_at = done;
        i += 1;
    }
    rec.due = pace.ops_due(length, i);
    rec.elapsed = clock.now().duration_since(start);
    rec
}

/// A connection that issues one request at a time, with what it needs to
/// generate and check them.
pub struct SerialConn<'a> {
    pub client: Client,
    pub stream: OpStream,
    pub bodies: &'a Bodies,
    pub judge: Judge<'a>,
    pub next_req: u64,
}

impl SerialConn<'_> {
    /// [`run_serial`] against the real connection, for at most `max_ops`.
    pub fn run(
        &mut self,
        pace: Pace,
        length: Duration,
        max_ops: usize,
        on_op: impl FnMut(&Op, Instant, Instant),
    ) -> Recorder {
        let mut body = Vec::with_capacity(self.bodies.max_len());
        let mut left = max_ops;
        run_serial(
            &WallClock,
            pace,
            length,
            || {
                left = left.checked_sub(1)?;
                Some(self.stream.next_op(self.judge.keys))
            },
            |op| {
                if !op.is_get() {
                    self.bodies.fill(op.key, op.seq, &mut body);
                }
                self.next_req += 1;
                self.client.exchange(op, self.next_req, &body).ok()
            },
            &self.judge,
            on_op,
        )
    }
}

// ---- pipelined wire connection ----------------------------------------------

enum Sent {
    Op {
        req: u64,
        op: Op,
        from: Instant,
    },
    /// No more ops in this phase; its window closed at this instant.
    PhaseEnd(Instant),
}

/// A pipelined wire connection: this value is the sender, which never
/// waits for a reply in an open loop. Its receiver thread lives as long as
/// the value does, so per-thread kernel counters stay readable between
/// phases.
pub struct Pipelined {
    tx: WireSender,
    to_receiver: mpsc::Sender<Sent>,
    credits: mpsc::Receiver<()>,
    results: mpsc::Receiver<Recorder>,
    next_req: u64,
}

impl Pipelined {
    pub fn start<'scope, 'env: 'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        conn: WireConn,
        judge: Judge<'env>,
    ) -> Self {
        let (to_receiver, sent) = mpsc::channel();
        let (credit_tx, credits) = mpsc::channel();
        let (result_tx, results) = mpsc::channel();
        let mut receiver = Receiver {
            sent,
            credits: credit_tx,
            results: result_tx,
            judge,
            pending: HashMap::new(),
            rec: Recorder::default(),
            phase_end: None,
        };
        let rx = conn.rx;
        std::thread::Builder::new()
            .name("bench-wire-recv".into())
            .spawn_scoped(scope, move || receiver.run(rx))
            .expect("spawn wire receiver");
        Pipelined { tx: conn.tx, to_receiver, credits, results, next_req: 0 }
    }

    /// Runs one phase and returns what the receiver recorded for it.
    /// `next_op` returning `None` ends the phase early (the preload does).
    pub fn run(
        &mut self,
        pace: Pace,
        length: Duration,
        bodies: &Bodies,
        mut next_op: impl FnMut() -> Option<Op>,
    ) -> Recorder {
        // The last phase ended with nothing outstanding, so every credit
        // left in the channel belongs to it.
        while self.credits.try_recv().is_ok() {}
        let mut credits = match pace {
            Pace::Open(_) => usize::MAX,
            Pace::Closed(window) => window,
        };
        let start = Instant::now();
        let end = start + length;
        let mut body = Vec::with_capacity(bodies.max_len());
        let mut lag_ns = Vec::new();
        let mut i = 0u64;
        loop {
            let due = match pace {
                Pace::Open(rate) => due_time(start, rate, i),
                Pace::Closed(_) => Instant::now(),
            };
            if due >= end {
                break;
            }
            sleep_until(due);
            if credits == 0 {
                if self.credits.recv_timeout(OP_TIMEOUT).is_err() {
                    break; // the receiver books what is outstanding as failed
                }
                credits = 1;
            }
            while self.credits.try_recv().is_ok() {
                credits = credits.saturating_add(1);
            }
            let sent = Instant::now();
            if sent >= end {
                break;
            }
            let Some(op) = next_op() else { break };
            if !op.is_get() {
                bodies.fill(op.key, op.seq, &mut body);
            }
            self.next_req += 1;
            let from = pace.latency_from(due, sent);
            // Announce before writing, so the reply cannot overtake this.
            let _ = self.to_receiver.send(Sent::Op { req: self.next_req, op, from });
            if self.tx.send(&op, self.next_req, &body).is_err() {
                break;
            }
            lag_ns.push(sent.duration_since(due).as_nanos() as u64);
            credits -= 1;
            i += 1;
        }
        let _ = self.to_receiver.send(Sent::PhaseEnd(end));
        let mut rec = self.results.recv().expect("the wire receiver reports every phase");
        rec.lag_ns = lag_ns;
        rec.due = pace.ops_due(length, i);
        rec.elapsed = start.elapsed();
        rec
    }
}

struct Receiver<'a> {
    sent: mpsc::Receiver<Sent>,
    credits: mpsc::Sender<()>,
    results: mpsc::Sender<Recorder>,
    judge: Judge<'a>,
    pending: HashMap<u64, (Op, Instant)>,
    rec: Recorder,
    /// Set once the sender has announced the end of the current phase.
    phase_end: Option<Instant>,
}

impl Receiver<'_> {
    /// Learns what the sender has sent. False once the sender is gone.
    fn hear_sender(&mut self) -> bool {
        loop {
            match self.sent.try_recv() {
                Ok(Sent::Op { req, op, from }) => {
                    self.pending.insert(req, (op, from));
                    self.rec.inflight_max = self.rec.inflight_max.max(self.pending.len() as u64);
                }
                Ok(Sent::PhaseEnd(end)) => self.phase_end = Some(end),
                Err(mpsc::TryRecvError::Empty) => return true,
                Err(mpsc::TryRecvError::Disconnected) => return false,
            }
        }
    }

    fn finish(&mut self, op: &Op, from: Instant, now: Instant, reply: Option<&Reply>) {
        // While the phase is still open every completion is inside it.
        let window_end = self.phase_end.unwrap_or(now);
        self.judge.record(&mut self.rec, op, from, now, window_end, reply);
        let _ = self.credits.send(());
    }

    fn run(&mut self, mut rx: FrameReader<TcpStream>) {
        loop {
            let frame = rx.next_frame();
            if !self.hear_sender() && self.pending.is_empty() {
                return;
            }
            let now = Instant::now();
            match frame {
                Ok(Some((_, _, msg))) => {
                    let known = parse_reply(msg)
                        .and_then(|reply| Some((self.pending.remove(&reply.req)?, reply)));
                    if let Some(((op, from), reply)) = known {
                        self.finish(&op, from, now, Some(&reply));
                    }
                }
                Err(e) if is_timeout(&e) => {
                    let expired: Vec<u64> = self
                        .pending
                        .iter()
                        .filter(|(_, (_, from))| now.duration_since(*from) > OP_TIMEOUT)
                        .map(|(&req, _)| req)
                        .collect();
                    for req in expired {
                        let (op, from) = self.pending.remove(&req).expect("listed above");
                        self.finish(&op, from, now, None);
                    }
                }
                Ok(None) | Err(_) => {
                    // Connection lost: everything outstanding fails, and so
                    // does whatever the sender still announces.
                    for (_, (op, from)) in std::mem::take(&mut self.pending) {
                        self.finish(&op, from, now, None);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            if self.phase_end.is_some() && self.pending.is_empty() {
                self.phase_end = None;
                if self.results.send(std::mem::take(&mut self.rec)).is_err() {
                    return;
                }
            }
        }
    }
}

// ---- summaries --------------------------------------------------------------

/// The `p`-quantile of `samples`: the smallest sample with at least `p` of
/// the samples at or below it. 0 when empty.
pub fn quantile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut samples = samples.to_vec();
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use std::cell::Cell;
    use std::sync::Arc;

    fn ok_reply() -> Option<Reply> {
        Some(Reply { req: 0, status: 200, body: Arc::new(Vec::new()) })
    }

    /// A clock that stands still until it is waited on or moved by hand, so
    /// the recorder's arithmetic can be checked to the nanosecond.
    struct FakeClock(Cell<Instant>);

    impl FakeClock {
        fn new() -> Self {
            FakeClock(Cell::new(Instant::now()))
        }

        fn advance(&self, by: Duration) {
            self.0.set(self.0.get() + by);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Instant {
            self.0.get()
        }

        fn sleep_until(&self, t: Instant) {
            self.0.set(self.0.get().max(t));
        }
    }

    /// Latencies to the nearest millisecond.
    fn in_ms(ns: &[u64]) -> Vec<u64> {
        ns.iter().map(|ns| (ns + 500_000) / 1_000_000).collect()
    }

    /// A connection whose first op stalls for 60 ms while ops fall due
    /// every 10 ms. Ops 1..=5 were due during the stall; each must be
    /// charged the part of the stall it sat through. Taking latency from
    /// the send time would report them all as instant, and fail here.
    #[test]
    fn a_stall_is_charged_to_the_ops_due_during_it() {
        let w = &WORKLOADS[0];
        let keys = KeyState::new(w.keys);
        let judge = Judge { w, keys: &keys, verify: true };
        let clock = FakeClock::new();
        let mut n = 0u32;
        let rec = run_serial(
            &clock,
            Pace::Open(100.0),
            Duration::from_millis(95),
            || {
                n += 1;
                Some(Op { key: 0, seq: n }) // PUTs: nothing to validate
            },
            |op| {
                if op.seq == 1 {
                    clock.advance(Duration::from_millis(60));
                }
                ok_reply()
            },
            &judge,
            |_, _, _| {},
        );
        // The stalled op, the five that waited behind it, and four that
        // fell due after it and are not charged.
        assert_eq!(in_ms(&rec.put_ns), [60, 50, 40, 30, 20, 10, 0, 0, 0, 0]);
        // The generator itself was never late: the connection was busy.
        assert_eq!(in_ms(&rec.lag_ns), [0; 10]);
        assert_eq!((rec.due, rec.attempted, rec.failed), (10, 10, 0));
        assert_eq!(rec.done_in_window, 10);
    }

    #[test]
    fn closed_loop_latency_runs_from_the_send() {
        let w = &WORKLOADS[0];
        let keys = KeyState::new(w.keys);
        let judge = Judge { w, keys: &keys, verify: true };
        let clock = FakeClock::new();
        let mut n = 0u32;
        let rec = run_serial(
            &clock,
            Pace::Closed(1),
            Duration::from_millis(50),
            || {
                n += 1;
                Some(Op { key: 0, seq: n })
            },
            |_| {
                clock.advance(Duration::from_millis(5));
                ok_reply()
            },
            &judge,
            |_, _, _| {},
        );
        // Back to back: each op leaves when the one before it is done.
        assert_eq!(in_ms(&rec.put_ns), [5; 10]);
        assert_eq!(in_ms(&rec.lag_ns), [0; 10]);
        assert_eq!((rec.due, rec.attempted), (10, 10));
        assert_eq!(rec.elapsed, Duration::from_millis(50));
    }

    #[test]
    fn failures_and_bad_bodies_are_counted_and_miss_the_limit() {
        let w = &WORKLOADS[0];
        let keys = KeyState::new(w.keys);
        let judge = Judge { w, keys: &keys, verify: true };
        let bodies = Bodies::new(1, w.value_bytes);
        let mut stream = OpStream::new(w, 1, 0, 1);
        let put = loop {
            let op = stream.next_op(&keys);
            if !op.is_get() {
                break op;
            }
        };
        let mut body = Vec::new();
        bodies.fill(put.key, put.seq, &mut body);
        let get = Op { key: put.key, seq: 0 };
        let now = Instant::now();
        let reply = |status, body: &[u8]| Reply { req: 0, status, body: Arc::new(body.to_vec()) };
        let mut rec = Recorder::default();

        judge.record(&mut rec, &get, now, now, now, Some(&reply(200, &body)));
        assert_eq!((rec.attempted, rec.failed), (1, 0));

        let mut torn = body.clone();
        torn[100] ^= 0xFF;
        judge.record(&mut rec, &get, now, now, now, Some(&reply(200, &torn)));
        judge.record(&mut rec, &get, now, now, now, Some(&reply(503, b"")));
        judge.record(&mut rec, &get, now, now, now, None);
        // A sequence nobody issued is as wrong as a torn body.
        let mut future = Vec::new();
        bodies.fill(put.key, put.seq + 1, &mut future);
        judge.record(&mut rec, &get, now, now, now, Some(&reply(200, &future)));
        assert_eq!((rec.attempted, rec.failed, rec.over_limit), (5, 4, 4));

        assert_eq!(keys.acked(put.key), 0);
        judge.record(&mut rec, &put, now, now, now, Some(&reply(200, b"")));
        assert_eq!(keys.acked(put.key), put.seq);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
