//! The traced run's layer ladder and swap probe.
//!
//! The same pairs, in frames of the workload's batch size, go through four
//! rungs in turn: the flat kernel (`FlatSketchSet::estimate_batch`), the
//! sharded server (`ServeClient::query_batch`), one NETQ connection over
//! loopback (`NetClient::query_batch`), and HTTP `GET /distance`.  Each
//! rung's answers are checked against the direct answers; the difference
//! between adjacent rungs is what the upper layer adds.

use crate::lifecycle::{connect, SHARDS};
use crate::spans::{span, Tracer};
use crate::traffic::{self, check_against_generations, Pace, Stream, SwapWindow, Tally};
use crate::util::{median, micros, nanos_since, percentile, syscalls};
use dsketch::prelude::*;
use dsketch_serve::{NetServer, ServeConfig, SketchServer};
use netgraph::{Distance, NodeId};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Run `f` over successive frames for `duration`; returns frames done and
/// the per-frame latencies.
fn frames_for(
    duration: Duration,
    frames: usize,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<u64>, String> {
    let started = Instant::now();
    let mut latencies = Vec::new();
    let mut frame = 0;
    while started.elapsed() < duration {
        let t = Instant::now();
        f(frame)?;
        latencies.push(nanos_since(t));
        frame = (frame + 1) % frames;
    }
    Ok(latencies)
}

fn check(tally: &mut Tally, pairs: &[(NodeId, NodeId)], got: &[Distance], want: &[Distance]) {
    for i in 0..pairs.len() {
        tally.attempted += 1;
        tally.answer(pairs[i], got[i], Some(want[i]));
    }
}

fn answers(results: Vec<Result<Distance, SketchError>>) -> Result<Vec<Distance>, String> {
    results
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

/// One HTTP request on a fresh connection; returns the response body.
pub fn http_get(addr: &str, target: &str) -> Result<String, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("http connect: {e}"))?;
    stream
        .set_read_timeout(Some(crate::lifecycle::CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(stream, "GET {target} HTTP/1.1\r\nhost: lifebench\r\n\r\n")
        .map_err(|e| format!("http write: {e}"))?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| format!("http read: {e}"))?;
    if !reply.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "http {target}: {}",
            reply.lines().next().unwrap_or("")
        ));
    }
    Ok(reply
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string())
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// The four rungs plus the metrics scrape, `rung` long each.
#[allow(clippy::too_many_arguments)]
pub fn run(
    server: &NetServer,
    oracle: Arc<dyn DistanceOracle>,
    flat: &FlatSketchSet,
    pairs: &[(NodeId, NodeId)],
    expected: &[Distance],
    batch: usize,
    rung: Duration,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let root = span(tracer, "ladder", 0);
    let frames = pairs.len() / batch;
    let frame = |i: usize| {
        (
            &pairs[i * batch..(i + 1) * batch],
            &expected[i * batch..(i + 1) * batch],
        )
    };
    let per_frame_ns = |lat: &[u64]| median(&lat.iter().map(|&n| n as f64).collect::<Vec<_>>());

    // Rung 1: the flat kernel, timed over groups of frames so that small
    // frames are not dominated by clock reads.
    let group = (256 / batch).max(1);
    let mut local = Tally::default();
    let flat_lat = {
        let _g = span(tracer, "ladder.flat", root.id());
        frames_for(rung, frames / group, |i| {
            for f in i * group..(i + 1) * group {
                let (p, want) = frame(f);
                let got = answers(flat.estimate_batch(p))?;
                check(&mut local, p, &got, want);
            }
            Ok(())
        })?
    };
    let flat_frame_ns = per_frame_ns(&flat_lat) / group as f64;

    // Rung 2: the sharded server in process (its own instance: the network
    // front end does not hand out its router).
    let sketch_server = SketchServer::start(oracle, ServeConfig::default().with_shards(SHARDS))
        .map_err(|e| e.to_string())?;
    let client = sketch_server.client();
    let server_lat = {
        let _g = span(tracer, "ladder.server", root.id());
        frames_for(rung, frames, |i| {
            let (p, want) = frame(i);
            let got = answers(client.query_batch(p))?;
            check(&mut local, p, &got, want);
            Ok(())
        })?
    };
    drop(client);
    let stats = sketch_server.shutdown();
    let server_frame_ns = per_frame_ns(&server_lat);
    let hits = stats.totals.cache_hits as f64;
    let lookups = (stats.totals.cache_hits + stats.totals.cache_misses).max(1) as f64;

    // Rung 3: one NETQ connection over loopback, closed loop.
    let mut net = connect(server)?;
    let (reads0, writes0) = syscalls();
    let net_lat = {
        let _g = span(tracer, "ladder.net", root.id());
        frames_for(rung, frames, |i| {
            let (p, want) = frame(i);
            let got: Vec<Distance> = if batch == 1 {
                vec![net
                    .query(p[0].0, p[0].1)
                    .map_err(|e| e.to_string())?
                    .map_err(|e| e.to_string())?]
            } else {
                net.query_batch(p)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?
            };
            check(&mut local, p, &got, want);
            Ok(())
        })?
    };
    let (reads1, writes1) = syscalls();
    drop(net);
    let net_frames = net_lat.len().max(1) as f64;
    let net_frame_ns = per_frame_ns(&net_lat);
    let mut net_us = micros(&net_lat);

    // Rung 4: HTTP, one request per connection.
    let addr = server.local_addr().to_string();
    let started = Instant::now();
    let mut http_us = Vec::new();
    {
        let _g = span(tracer, "ladder.http", root.id());
        let mut i = 0;
        while started.elapsed() < rung {
            let (u, v) = pairs[i];
            let t = Instant::now();
            let body = http_get(&addr, &format!("/distance?u={}&v={}", u.0, v.0))?;
            http_us.push(nanos_since(t) as f64 / 1e3);
            local.attempted += 1;
            match json_u64(&body, "distance") {
                Some(d) => local.answer((u, v), d, Some(expected[i])),
                None => return Err(format!("http body without a distance: {body}")),
            }
            i = (i + 1) % pairs.len();
        }
    }

    // The metrics scrape an operator would poll.
    let mut scrape_us = Vec::new();
    {
        let _g = span(tracer, "ladder.scrape", root.id());
        for _ in 0..20 {
            let t = Instant::now();
            let body = http_get(&addr, "/metrics")?;
            scrape_us.push(nanos_since(t) as f64 / 1e3);
            if !body.contains("dsketch_") {
                return Err("metrics scrape without dsketch_ series".into());
            }
        }
    }
    tally.absorb(&local);

    let batch_f = batch as f64;
    Ok(vec![
        ("flat.ns_per_query", flat_frame_ns / batch_f, "ns"),
        ("server.ns_per_query", server_frame_ns / batch_f, "ns"),
        (
            "server.hop_ns_per_frame",
            server_frame_ns - flat_frame_ns,
            "ns",
        ),
        ("server.cache_hit_ratio", hits / lookups, "ratio"),
        ("net.rtt_us_p50", percentile(&mut net_us, 50.0), "us"),
        ("net.rtt_us_p99", percentile(&mut net_us, 99.0), "us"),
        (
            "net.wire_us_per_frame",
            (net_frame_ns - server_frame_ns) / 1e3,
            "us",
        ),
        (
            "net.read_syscalls_per_frame",
            (reads1 - reads0) as f64 / net_frames,
            "count",
        ),
        (
            "net.write_syscalls_per_frame",
            (writes1 - writes0) as f64 / net_frames,
            "count",
        ),
        ("http.rtt_us_p50", percentile(&mut http_us, 50.0), "us"),
        ("obs.scrape_us", median(&scrape_us), "us"),
    ])
}

/// Swap the live server between two snapshots `swaps` times while one
/// reader connection sends single-pair requests at `rate`; every read is
/// checked against the generation it may have seen.  Returns the swap
/// round trips in seconds and the latencies of reads that overlapped a
/// swap, in microseconds.
#[allow(clippy::too_many_arguments)]
pub fn swap_probe(
    server: &NetServer,
    paths: [&Path; 2],
    flats: [&FlatSketchSet; 2],
    pairs: &[(NodeId, NodeId)],
    swaps: usize,
    rate: f64,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let root = span(tracer, "swap_probe", 0);
    let expected: Vec<Vec<Distance>> = flats
        .iter()
        .map(|f| answers(f.estimate_batch(pairs)))
        .collect::<Result<_, _>>()?;
    let addr = server.local_addr().to_string();
    let stop = AtomicBool::new(false);
    let pace = Pace {
        connections: 1,
        rate,
        duration: Duration::from_secs(120),
        stop: Some(&stop),
        keep_records: true,
        origin: Instant::now(),
    };
    // The reader runs a little before the first swap and after the last.
    let pause = Duration::from_millis(150);
    let mut writer = connect(server)?;
    let (reads, windows) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let stream = Stream {
                pairs,
                expected: None,
            };
            traffic::open_loop(&addr, stream, &pace, None, 0)
        });
        let mut windows = Vec::new();
        std::thread::sleep(pause);
        for s in 0..swaps {
            let path = paths[(s + 1) % 2].to_string_lossy().into_owned();
            let start_ns = pace.origin.elapsed().as_nanos() as u64;
            let result = {
                let _g = span(tracer, "swap.request", root.id());
                writer.swap(&path)
            };
            let end_ns = pace.origin.elapsed().as_nanos() as u64;
            windows.push((SwapWindow { start_ns, end_ns }, result));
        }
        std::thread::sleep(pause);
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("swap probe reader panicked"), windows)
    });
    let mut request_s = Vec::new();
    let mut spans = Vec::new();
    for (window, result) in &windows {
        result.as_ref().map_err(|e| format!("swap refused: {e}"))?;
        request_s.push((window.end_ns - window.start_ns) as f64 / 1e9);
        spans.push(*window);
    }
    // Generation g+1 serves snapshot (g % 2): the base, then alternating.
    let by_generation: Vec<Vec<Distance>> = (0..=swaps).map(|g| expected[g % 2].clone()).collect();
    check_against_generations(&reads.records, pairs, &spans, &by_generation, tally);
    tally.absorb(&Tally {
        wrong: 0,
        first_problem: None,
        ..reads.tally.clone()
    });
    let during = overlapping_latencies_us(&reads, &spans);
    Ok((request_s, during))
}

/// Latencies (µs) of the reads whose send/receive interval overlaps a swap.
pub fn overlapping_latencies_us(reads: &traffic::LoopResult, swaps: &[SwapWindow]) -> Vec<f64> {
    reads
        .records
        .iter()
        .zip(&reads.latency_ns)
        .filter(|(r, _)| {
            swaps
                .iter()
                .any(|w| r.send_ns <= w.end_ns && r.recv_ns >= w.start_ns)
        })
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}
