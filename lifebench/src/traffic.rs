//! Load generators over NETQ and the answer-identity check.
//!
//! Traffic replays a seeded pair list cyclically; `expected[i]` is the
//! direct [`dsketch::FlatSketchSet`] answer for `pairs[i]`, computed before
//! the timed window, so every answer is checked by an array lookup.
//!
//! The open-loop generator sends request `i` of a connection at
//! `start + i / rate` whether or not earlier ones were slow, and measures
//! latency from that due time, so a stalled server shows as latency rather
//! than as a quieter generator.  How late the generator itself sent is
//! kept separately as its lag.

use crate::spans::{span, Tracer};
use crate::util::{median, nanos_since, percentile, precise_sleeps, wait_until};
use dsketch_serve::net::{NetError, WireError, WireErrorCode};
use dsketch_serve::NetClient;
use netgraph::{Distance, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Per-workload operation counts.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub answered: u64,
    pub typed_errors: u64,
    pub transport_errors: u64,
    pub timeouts: u64,
    pub refusals: u64,
    pub wrong: u64,
    pub first_problem: Option<String>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.typed_errors + self.transport_errors + self.timeouts + self.refusals
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.typed_errors += other.typed_errors;
        self.transport_errors += other.transport_errors;
        self.timeouts += other.timeouts;
        self.refusals += other.refusals;
        self.wrong += other.wrong;
        if self.first_problem.is_none() {
            self.first_problem.clone_from(&other.first_problem);
        }
    }

    fn note(&mut self, problem: impl FnOnce() -> String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(problem());
        }
    }

    /// Count one answer, checking it when `expected` is known.
    pub fn answer(&mut self, pair: (NodeId, NodeId), got: Distance, expected: Option<Distance>) {
        self.answered += 1;
        if let Some(want) = expected {
            if got != want {
                self.wrong += 1;
                self.note(|| format!("wrong answer for {pair:?}: {got}, direct {want}"));
            }
        }
    }

    /// Count a typed per-pair error.
    pub fn typed(&mut self, pair: (NodeId, NodeId), e: &WireError) {
        if matches!(
            e.code,
            WireErrorCode::ShardPanicked | WireErrorCode::ShuttingDown
        ) {
            self.refusals += 1;
        } else {
            self.typed_errors += 1;
        }
        self.note(|| format!("typed error for {pair:?}: {e}"));
    }

    /// Count a failed request; `pairs` is how many pairs it carried.
    pub fn transport(&mut self, e: &NetError, pairs: u64) {
        match e {
            NetError::Timeout => self.timeouts += pairs,
            NetError::Io(std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock) => {
                self.timeouts += pairs
            }
            NetError::Io(std::io::ErrorKind::ConnectionRefused) => self.refusals += pairs,
            NetError::Server(w)
                if matches!(
                    w.code,
                    WireErrorCode::ShardPanicked | WireErrorCode::ShuttingDown
                ) =>
            {
                self.refusals += pairs
            }
            _ => self.transport_errors += pairs,
        }
        self.note(|| format!("request failed: {e}"));
    }
}

/// The answer a request got, for checks made after the window.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub idx: u32,
    pub answer: Option<Distance>,
    pub send_ns: u64,
    pub recv_ns: u64,
}

#[derive(Default)]
pub struct LoopResult {
    pub tally: Tally,
    /// Per-request (open loop: from due time) or per-frame latency.
    pub latency_ns: Vec<u64>,
    /// When each latency sample's request was due (open loop, from the
    /// pace's origin) or sent (closed loop, from the start of the loop).
    pub at_ns: Vec<u64>,
    /// How late the open-loop generator sent each request.
    pub lag_ns: Vec<u64>,
    pub records: Vec<Record>,
    /// From the start until the last answer arrived.
    pub elapsed_s: f64,
}

impl LoopResult {
    /// p50 and p99 latency in µs of each run of `chunk` consecutive
    /// samples in due (or send) order; a shorter remainder is dropped
    /// unless it is all there is.
    pub fn chunk_percentiles_us(&self, chunk: usize) -> Vec<(f64, f64)> {
        let mut order: Vec<usize> = (0..self.at_ns.len()).collect();
        order.sort_by_key(|&i| self.at_ns[i]);
        let chunk = chunk.clamp(1, order.len().max(1));
        order
            .chunks_exact(chunk)
            .map(|c| {
                let mut us: Vec<f64> = c.iter().map(|&i| self.latency_ns[i] as f64 / 1e3).collect();
                (percentile(&mut us, 50.0), percentile(&mut us, 99.0))
            })
            .collect()
    }

    /// p50 and p99 latency in µs, each the median over runs of `chunk`
    /// consecutive samples, so one stall moves few chunks only.
    pub fn chunked_percentiles_us(&self, chunk: usize) -> (f64, f64) {
        let per_chunk = self.chunk_percentiles_us(chunk);
        let p50s: Vec<f64> = per_chunk.iter().map(|s| s.0).collect();
        let p99s: Vec<f64> = per_chunk.iter().map(|s| s.1).collect();
        (median(&p50s), median(&p99s))
    }

    /// Add a loop that ran after this one.
    pub fn append(&mut self, later: LoopResult) {
        let elapsed_s = self.elapsed_s + later.elapsed_s;
        self.absorb(later);
        self.elapsed_s = elapsed_s;
    }

    fn absorb(&mut self, other: LoopResult) {
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.tally.absorb(&other.tally);
        self.latency_ns.extend(other.latency_ns);
        self.at_ns.extend(other.at_ns);
        self.lag_ns.extend(other.lag_ns);
        self.records.extend(other.records);
    }
}

/// What one generator replays.
#[derive(Clone, Copy)]
pub struct Stream<'a> {
    pub pairs: &'a [(NodeId, NodeId)],
    /// Direct answers; `None` when the check happens after the window.
    pub expected: Option<&'a [Distance]>,
}

fn reconnect(addr: &str) -> Option<NetClient> {
    NetClient::connect_with_retry(
        addr,
        crate::lifecycle::CLIENT_TIMEOUT,
        Duration::from_secs(2),
    )
    .ok()
}

/// How an open-loop generator paces itself.
pub struct Pace<'a> {
    pub connections: usize,
    /// Requests per second, over all connections together.
    pub rate: f64,
    pub duration: Duration,
    /// Ends the run early when set.
    pub stop: Option<&'a AtomicBool>,
    /// Keep every answer with its times relative to `origin`.
    pub keep_records: bool,
    pub origin: Instant,
}

/// Open-loop single-pair traffic paced by `pace`.
pub fn open_loop(
    addr: &str,
    stream: Stream<'_>,
    pace: &Pace<'_>,
    tracer: Option<&Tracer>,
    parent: u64,
) -> LoopResult {
    let connections = pace.connections;
    let interval = Duration::from_secs_f64(connections as f64 / pace.rate);
    // The schedule starts once every connection has been accepted and
    // answered a ping, so connection set-up is not counted as latency.
    let ready = Barrier::new(connections);
    let start_cell = OnceLock::new();
    let (ready, start_cell) = (&ready, &start_cell);
    let origin = pace.origin;
    let len = stream.pairs.len();
    let mut total = LoopResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                scope.spawn(move || {
                    precise_sleeps();
                    let mut out = LoopResult::default();
                    let client = reconnect(addr).and_then(|mut c| c.ping().ok().map(|()| c));
                    ready.wait();
                    let start =
                        *start_cell.get_or_init(|| Instant::now() + Duration::from_millis(1));
                    let end = start + pace.duration;
                    let Some(mut client) = client else {
                        out.tally.attempted += 1;
                        out.tally.refusals += 1;
                        out.tally.note(|| format!("connection {conn} refused"));
                        return out;
                    };
                    let mut idx = conn * len / connections;
                    // Connections take turns, so requests are due evenly
                    // spaced at the offered rate rather than in bursts.
                    let offset = interval * conn as u32 / connections as u32;
                    for i in 0u32.. {
                        let due = start + offset + interval * i;
                        if due >= end || pace.stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                            break;
                        }
                        wait_until(due);
                        let sent = Instant::now();
                        out.lag_ns.push((sent - due).as_nanos() as u64);
                        let pair = stream.pairs[idx];
                        out.tally.attempted += 1;
                        let reply = {
                            let _g = span(tracer, "net.request", parent);
                            client.query(pair.0, pair.1)
                        };
                        let received = Instant::now();
                        out.latency_ns.push((received - due).as_nanos() as u64);
                        out.at_ns.push((due - origin).as_nanos() as u64);
                        out.elapsed_s = (received - start).as_secs_f64();
                        let mut answer = None;
                        let mut broken = false;
                        match reply {
                            Ok(Ok(d)) => {
                                answer = Some(d);
                                out.tally.answer(pair, d, stream.expected.map(|e| e[idx]));
                            }
                            Ok(Err(e)) => out.tally.typed(pair, &e),
                            Err(e) => {
                                out.tally.transport(&e, 1);
                                broken = true;
                            }
                        }
                        if pace.keep_records {
                            out.records.push(Record {
                                idx: idx as u32,
                                answer,
                                send_ns: (sent - origin).as_nanos() as u64,
                                recv_ns: (received - origin).as_nanos() as u64,
                            });
                        }
                        if broken {
                            match reconnect(addr) {
                                Some(c) => client = c,
                                None => break,
                            }
                        }
                        idx = (idx + 1) % len;
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().expect("open-loop connection panicked"));
        }
    });
    total
}

/// Closed-loop batch traffic: each of `connections` connections sends
/// `batch`-pair frames back to back for `duration`.
pub fn closed_loop(
    addr: &str,
    stream: Stream<'_>,
    connections: usize,
    batch: usize,
    duration: Duration,
    tracer: Option<&Tracer>,
    parent: u64,
) -> LoopResult {
    let len = stream.pairs.len();
    let frames = len / batch;
    let started = Instant::now();
    let end = started + duration;
    let mut total = LoopResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                scope.spawn(move || {
                    let mut out = LoopResult::default();
                    let Some(mut client) = reconnect(addr) else {
                        out.tally.attempted += batch as u64;
                        out.tally.refusals += batch as u64;
                        out.tally.note(|| format!("connection {conn} refused"));
                        return out;
                    };
                    let mut frame = conn * frames / connections;
                    while Instant::now() < end {
                        let first = frame * batch;
                        let pairs = &stream.pairs[first..first + batch];
                        out.tally.attempted += batch as u64;
                        let sent = Instant::now();
                        let reply = {
                            let _g = span(tracer, "net.frame", parent);
                            client.query_batch(pairs)
                        };
                        out.latency_ns.push(nanos_since(sent));
                        out.at_ns.push((sent - started).as_nanos() as u64);
                        match reply {
                            Ok(results) => {
                                for (i, result) in results.iter().enumerate() {
                                    let want = stream.expected.map(|e| e[first + i]);
                                    match result {
                                        Ok(d) => out.tally.answer(pairs[i], *d, want),
                                        Err(e) => out.tally.typed(pairs[i], e),
                                    }
                                }
                            }
                            Err(e) => {
                                out.tally.transport(&e, batch as u64);
                                match reconnect(addr) {
                                    Some(c) => client = c,
                                    None => break,
                                }
                            }
                        }
                        frame = (frame + 1) % frames;
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().expect("closed-loop connection panicked"));
        }
    });
    total.elapsed_s = started.elapsed().as_secs_f64();
    total
}

/// When each generation could answer: generation `g` (1-based) is live
/// from the moment swap `g − 1` started until swap `g` returned.
#[derive(Debug, Clone, Copy)]
pub struct SwapWindow {
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Check records against the generations they may have seen: a request
/// overlapping swap `s` may be answered by the generation before or after
/// it.  `expected[g]` are generation `g + 1`'s direct answers.
pub fn check_against_generations(
    records: &[Record],
    pairs: &[(NodeId, NodeId)],
    swaps: &[SwapWindow],
    expected: &[Vec<Distance>],
    tally: &mut Tally,
) {
    for r in records {
        let Some(answer) = r.answer else { continue };
        // Generation index g (0-based) is possible iff it was published
        // before the reply (g == 0 or swaps[g-1].start <= recv) and not
        // retired before the send (g == last or send <= swaps[g].end).
        let possible = (0..expected.len()).filter(|&g| {
            (g == 0 || swaps[g - 1].start_ns <= r.recv_ns)
                && (g >= swaps.len() || r.send_ns <= swaps[g].end_ns)
        });
        let mut candidates = possible.peekable();
        if candidates.peek().is_none() {
            tally.wrong += 1;
            tally.note(|| format!("record {r:?} overlaps no generation"));
            continue;
        }
        let idx = r.idx as usize;
        if !candidates.any(|g| expected[g][idx] == answer) {
            tally.wrong += 1;
            let pair = pairs[idx];
            tally.note(|| format!("wrong answer for {pair:?} at {} ns: {answer}", r.recv_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(idx: u32, answer: Distance, send_ns: u64, recv_ns: u64) -> Record {
        Record {
            idx,
            answer: Some(answer),
            send_ns,
            recv_ns,
        }
    }

    #[test]
    fn generation_check_accepts_only_live_generations() {
        let pairs = vec![(NodeId(0), NodeId(1))];
        let swaps = vec![SwapWindow {
            start_ns: 100,
            end_ns: 200,
        }];
        let expected = vec![vec![5], vec![7]];
        let mut tally = Tally::default();
        let ok = [
            record(0, 5, 10, 20),
            record(0, 5, 150, 160),
            record(0, 7, 150, 160),
            record(0, 7, 300, 310),
        ];
        check_against_generations(&ok, &pairs, &swaps, &expected, &mut tally);
        assert_eq!(tally.wrong, 0);
        // Old generation after the swap returned, new one before it began,
        // and an answer neither generation gives.
        let bad = [
            record(0, 5, 300, 310),
            record(0, 7, 10, 20),
            record(0, 6, 150, 160),
        ];
        check_against_generations(&bad, &pairs, &swaps, &expected, &mut tally);
        assert_eq!(tally.wrong, 3);
        assert!(tally.first_problem.is_some());
    }

    #[test]
    fn chunked_percentiles_keep_a_stall_inside_its_chunk() {
        // 5 chunks of 100 samples, due in reverse order; one chunk stalls.
        let mut window = LoopResult::default();
        for i in (0..500u64).rev() {
            window.at_ns.push(i * 1_000);
            let stalled = (200..300).contains(&i);
            window
                .latency_ns
                .push(if stalled { 9_000_000 } else { 20_000 + i % 100 });
        }
        let chunks = window.chunk_percentiles_us(100);
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks[2], (9_000.0, 9_000.0));
        assert_eq!(window.chunked_percentiles_us(100), (20.049, 20.098));
        // A short remainder is dropped; a window shorter than a chunk is one.
        assert_eq!(window.chunk_percentiles_us(300).len(), 1);
        assert_eq!(window.chunk_percentiles_us(1_000).len(), 1);
        assert!(LoopResult::default().chunk_percentiles_us(100).is_empty());
    }

    #[test]
    fn tally_counts_wrong_answers_and_failures() {
        let mut tally = Tally::default();
        let pair = (NodeId(1), NodeId(2));
        tally.answer(pair, 4, Some(4));
        tally.answer(pair, 5, Some(4));
        tally.typed(pair, &WireError::new(WireErrorCode::UnknownNode, "x"));
        tally.transport(&NetError::Timeout, 3);
        assert_eq!((tally.answered, tally.wrong), (2, 1));
        assert_eq!((tally.typed_errors, tally.timeouts), (1, 3));
        assert_eq!(tally.failed(), 4);
    }
}
