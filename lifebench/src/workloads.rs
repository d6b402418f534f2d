//! The four workloads.  Each builds its inputs from the seed, runs the
//! lifecycle through the public API of every layer, checks every answer,
//! and fills in every end-to-end metric (untraced run) or every per-layer
//! metric (traced run).

use crate::ladder::{self, overlapping_latencies_us};
use crate::lifecycle::{self, build, connect, save, setup, time_generation, Built};
use crate::spans::{span, Tracer};
use crate::traffic::{
    self, check_against_generations, LoopResult, Pace, Stream, SwapWindow, Tally,
};
use crate::util::{self, median, micros, percentile, perturb, Rng};
use dsketch::eval::evaluate_pairs;
use dsketch::prelude::*;
use netgraph::apsp::SampledPairs;
use netgraph::generators::{erdos_renyi, grid, preferential_attachment, GeneratorConfig};
use netgraph::{Distance, Graph, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of each workload's fixed instance: its graph, the build's sampled
/// hierarchy and the stretch audit's pairs.  The run's `--seed` drives
/// what varies between runs — the traffic and the edge-list changes — so
/// the paper's counts, the label size and the stretch are exact
/// per-instance figures that repeat on every run.
const INSTANCE_SEED: u64 = 1;
/// A stream of query pairs.
type Pairs = Vec<(NodeId, NodeId)>;

/// Pairs in each workload's replayed stream.
const STREAM_PAIRS: usize = 1 << 16;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Graph generations timed before and after each `congest-grid` build
/// (generation is that workload's whole set-up).
const GENERATIONS_PER_STEP: usize = 4;
/// Share of the `congest-grid` window spent on in-process queries, and
/// their frame size: large enough (≈0.2 ms) that a frame's time is the
/// kernel's, not the clock's or an interrupt's.
const QUERY_SHARE: f64 = 0.15;
const QUERY_FRAME: usize = 4_096;
/// Pairs in the stretch audit.
const AUDIT_PAIRS: usize = 400;
/// Open-loop requests per second on `point-tz`, over two connections.
const POINT_RATE: f64 = 20_000.0;
/// The `sustained_qps` ladder: `LADDER_SWEEPS` sweeps of this many rungs,
/// taking half the window, the offered rate rising by `LADDER_STEP` from
/// `LADDER_START` times `POINT_RATE`.  Each rate is judged by the median
/// of its rungs' p99s, so a stall of the shared machine during one sweep
/// does not move the crossing.
const LADDER_RUNGS: usize = 10;
const LADDER_SWEEPS: usize = 5;
const LADDER_START: f64 = 2.0;
const LADDER_STEP: f64 = 1.15;
/// A ladder rung passes while its p99 stays under this limit: far above
/// the scheduling noise of a loaded 2-core machine (hundreds of µs), far
/// below the latency of a growing backlog (tens of ms within one rung).
const P99_LIMIT_US: f64 = 5_000.0;
/// Frame size and connections of `batch-degrading`.
const BATCH: usize = 256;
/// Reader rate of `swap-churn` and of the traced swap probe.
const READER_RATE: f64 = 4_000.0;
/// Share of edge weights redrawn by one edge-list change.
const PERTURB_SHARE: f64 = 0.01;
/// Swap cycles timed after the window on workloads without churn.
const SWAP_CYCLES: usize = 5;
/// Latency percentiles of a window or ladder rung are medians over chunks
/// of this many consecutive samples (10 beyond a p99).  Short chunks (50 ms of
/// `point-tz` traffic) keep a stall of the shared machine inside few of
/// them, so the median is the quiet machine's figure.
const SLICE_SAMPLES: usize = 1_000;
/// `swap-churn` chunks hold one second of reads, about two swap cycles:
/// its reads are slow while a swap cycle takes the cores, and a chunk
/// shorter than a cycle would hold a swap or not by chance.
const CHURN_CHUNK: usize = READER_RATE as usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointTz,
    BatchDegrading,
    SwapChurn,
    CongestGrid,
}

pub const WORKLOADS: [(&str, Kind); 4] = [
    ("point-tz", Kind::PointTz),
    ("batch-degrading", Kind::BatchDegrading),
    ("swap-churn", Kind::SwapChurn),
    ("congest-grid", Kind::CongestGrid),
];

/// Deliberate faults for the benchmark's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt one direct answer, so one served answer no longer matches.
    Wrong,
    /// Replace one pair with an unknown node, so its requests fail.
    Fail,
}

pub struct Run {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dir: PathBuf,
    pub inject: Option<Inject>,
}

#[derive(Default)]
pub struct Report {
    /// Name → (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub tally: Tally,
    /// Correctness failures other than wrong answers.
    pub problems: Vec<String>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Every parallel build of the run, in seconds: `build_s` is their
    /// median, so set-ups and later rebuilds all count.
    build_samples: Vec<f64>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }
}

impl Kind {
    fn spec(self) -> SchemeSpec {
        match self {
            Kind::BatchDegrading => SchemeSpec::Degrading {
                max_layers: None,
                max_k: Some(3),
            },
            _ => SchemeSpec::thorup_zwick(3),
        }
    }

    fn max_weight(self) -> u64 {
        match self {
            Kind::CongestGrid => 10,
            _ => 100,
        }
    }

    fn graph(self) -> Graph {
        let weights = GeneratorConfig::uniform(INSTANCE_SEED, 1, self.max_weight());
        match self {
            Kind::PointTz | Kind::SwapChurn => erdos_renyi(16_384, 8.0 / 16_384.0, weights),
            Kind::BatchDegrading => preferential_attachment(4_096, 3, weights),
            Kind::CongestGrid => grid(128, 128, weights),
        }
    }

    fn pairs(self, n: usize, rng: &mut Rng) -> Pairs {
        match self {
            Kind::BatchDegrading => util::zipf_pairs(n, STREAM_PAIRS, rng),
            _ => util::uniform_pairs(n, STREAM_PAIRS, rng),
        }
    }

    /// Pairs per frame on the wire.
    fn batch(self) -> usize {
        match self {
            Kind::BatchDegrading => BATCH,
            _ => 1,
        }
    }
}

fn direct(flat: &FlatSketchSet, pairs: &[(NodeId, NodeId)]) -> Result<Vec<Distance>, String> {
    flat.estimate_batch(pairs)
        .into_iter()
        .zip(pairs)
        .map(|(r, p)| r.map_err(|e| format!("direct answer for {p:?}: {e}")))
        .collect()
}

/// Direct answers, with `INFINITY` where there is none (the self-test's
/// unknown node), which no served answer equals.
fn lenient(flat: &FlatSketchSet, pairs: &[(NodeId, NodeId)]) -> Vec<Distance> {
    flat.estimate_batch(pairs)
        .into_iter()
        .map(|r| r.unwrap_or(netgraph::INFINITY))
        .collect()
}

/// The stretch audit, outside any timed window: exact distances by
/// Dijkstra for a seeded sample of pairs, stretch statistics by
/// `dsketch::eval` (the pairs `evaluate_oracle_sampled` draws, evaluated
/// through `evaluate_pairs` so each estimate can also be checked against
/// its exact distance).  Returns the mean stretch.
fn audit(graph: &Graph, flat: &FlatSketchSet, spec: SchemeSpec, report: &mut Report) -> f64 {
    let sampled = SampledPairs::uniform(graph, AUDIT_PAIRS, INSTANCE_SEED);
    let exact: HashMap<(NodeId, NodeId), Distance> =
        sampled.pairs.iter().map(|&(u, v, d)| ((u, v), d)).collect();
    let mut below = Vec::new();
    let stretch = evaluate_pairs(&sampled.pairs, |u, v| {
        let estimate = flat.estimate(u, v)?;
        if estimate < exact[&(u, v)] {
            below.push((u, v, estimate));
        }
        Ok(estimate)
    });
    if let Some((u, v, e)) = below.first() {
        report.problems.push(format!(
            "{} estimates below the exact distance, e.g. ({u}, {v}): {e} < {}",
            below.len(),
            exact[&(*u, *v)]
        ));
    }
    if stretch.failures > 0 {
        report
            .problems
            .push(format!("{} audit pairs had no estimate", stretch.failures));
    }
    if let SchemeSpec::ThorupZwick { k } = spec {
        let bound = (2 * k - 1) as f64;
        if stretch.worst > bound + 1e-9 {
            report.problems.push(format!(
                "stretch {} exceeds the tz:{k} bound {bound}",
                stretch.worst
            ));
        }
    }
    report.notes.push(format!(
        "stretch audit: {} pairs, mean {:.4}, worst {:.4}",
        stretch.pairs, stretch.average, stretch.worst
    ));
    stretch.average
}

/// The CONGEST engine must build the labels the parallel engine builds:
/// compare their answers on the whole stream.
fn engines_agree(
    congest: &FlatSketchSet,
    pairs: &[(NodeId, NodeId)],
    parallel: &[Distance],
    report: &mut Report,
) {
    let results = congest.estimate_batch(pairs);
    let mismatches = results
        .iter()
        .zip(parallel)
        .filter(|(r, want)| r.as_ref().ok() != Some(want))
        .count();
    if mismatches > 0 {
        report.problems.push(format!(
            "CONGEST-built labels disagree with the parallel build on {mismatches} pairs"
        ));
    }
}

/// Sum the parallel build's phases by kind (degrading builds repeat the
/// three per layer).
fn phase_sums(timings: &BuildTimings) -> [f64; 3] {
    let mut sums = [0.0; 3];
    for phase in &timings.phases {
        let slot = match phase.phase.rsplit('/').next() {
            Some("pivots") => 0,
            Some("clusters") => 1,
            _ => 2,
        };
        sums[slot] += phase.seconds;
    }
    sums
}

/// `sustained_qps` from a rate ladder of `(rate, p99, passed)` rungs in
/// rising order.  The crossing is the split that best separates passing
/// rungs below from failing rungs above (so one noisy rung does not end
/// the ladder), interpolated in log p99 between the rungs on either side
/// of it.  If every rung passes, the top rate; if none does, the first
/// rate scaled down by how far its p99 missed.
pub fn sustained_rate(rungs: &[(f64, f64, bool)], limit: f64) -> f64 {
    let Some(&(first_rate, first_p99, _)) = rungs.first() else {
        return 0.0;
    };
    // split = number of rungs counted as passing.
    let split = (0..=rungs.len())
        .max_by_key(|&split| {
            let agree = rungs[..split].iter().filter(|r| r.2).count()
                + rungs[split..].iter().filter(|r| !r.2).count();
            // Ties go to the higher split.
            (agree, split)
        })
        .unwrap_or(0);
    if split == rungs.len() {
        return rungs[split - 1].0;
    }
    if split == 0 {
        return first_rate * (limit / first_p99.max(1e-9)).min(1.0);
    }
    let (lo_rate, lo_p99, _) = rungs[split - 1];
    let (hi_rate, hi_p99, _) = rungs[split];
    let (lo, hi) = (lo_p99.clamp(1e-9, limit), hi_p99.max(limit));
    if hi <= lo {
        return lo_rate;
    }
    lo_rate + (limit / lo).ln() / (hi / lo).ln() * (hi_rate - lo_rate)
}

/// `p50_us` and `p99_us` of a window: medians over its chunks of `chunk`
/// samples.
fn latency_metrics(report: &mut Report, window: &LoopResult, chunk: usize) {
    let (p50, p99) = window.chunked_percentiles_us(chunk);
    report.put("p50_us", p50, "us");
    report.put("p99_us", p99, "us");
}

/// What a served workload keeps from its set-ups.
struct Served {
    graph: Graph,
    server: dsketch_serve::NetServer,
    flat: FlatSketchSet,
    path: PathBuf,
}

impl Run {
    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// `SETUP_REPS` full set-ups; keeps the last one serving.
    fn served_setup(&self, tracer: Option<&Tracer>, report: &mut Report) -> Result<Served, String> {
        let kind = self.kind;
        let generate = move || kind.graph();
        let (mut totals, mut builds, mut phases, mut gens) = (vec![], vec![], vec![], vec![]);
        let mut last = None;
        let mut path = PathBuf::new();
        for rep in 0..SETUP_REPS {
            // The previous server goes first, so set-ups do not overlap.
            drop(last.take());
            path = self.path(&format!("base-{rep}.dsk1"));
            let (graph, s) = setup(&generate, kind.spec(), INSTANCE_SEED, &path, tracer)?;
            report.tally.attempted += 1;
            report.tally.answered += 1;
            totals.push(s.total_s);
            builds.push(s.build.build_s);
            phases.push(phase_sums(&s.build.timings));
            gens.push(s.generate_s);
            last = Some((graph, s));
        }
        let (graph, s) = last.expect("SETUP_REPS >= 1");
        report.notes.push(format!(
            "set-ups (s): {totals:.3?}; builds (s): {builds:.3?}"
        ));
        report.put("setup_s", median(&totals), "s");
        report.build_samples.extend(&builds);
        report.put("snapshot_mb", s.snapshot_bytes as f64 / 1e6, "MB");
        report.put("graph.generate_s", median(&gens), "s");
        report.put("build.total_s", median(&builds), "s");
        for (i, name) in [
            "build.phase_s.pivots",
            "build.phase_s.clusters",
            "build.phase_s.merge",
        ]
        .into_iter()
        .enumerate()
        {
            report.put(
                name,
                median(&phases.iter().map(|p| p[i]).collect::<Vec<_>>()),
                "s",
            );
        }
        report.put("store.snapshot_bytes", s.snapshot_bytes as f64, "bytes");
        Ok(Served {
            graph,
            server: s.server,
            flat: s.build.flat,
            path,
        })
    }

    /// Inputs of the replayed stream and their direct answers, with the
    /// self-test's fault applied.
    fn stream(&self, n: usize, flat: &FlatSketchSet) -> Result<(Pairs, Vec<Distance>), String> {
        let mut pairs = self.kind.pairs(n, &mut Rng::new(self.seed, 1));
        let mut expected = direct(flat, &pairs)?;
        match self.inject {
            Some(Inject::Wrong) => expected[0] += 1,
            Some(Inject::Fail) => pairs[0] = (NodeId(n as u32), NodeId(0)),
            None => {}
        }
        Ok((pairs, expected))
    }

    /// One CONGEST build of the workload's scheme on its graph: the paper's
    /// round and message counts, and the engine-identity check.
    fn congest_build(
        &self,
        graph: &Graph,
        pairs: &[(NodeId, NodeId)],
        expected: &[Distance],
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> Result<Built, String> {
        let built = build(
            graph,
            self.kind.spec(),
            INSTANCE_SEED,
            BuildEngine::Congest,
            tracer,
            0,
        )?;
        report.tally.attempted += 1;
        report.tally.answered += 1;
        report.put("rounds", built.stats.rounds as f64, "count");
        report.put("messages", built.stats.messages as f64, "count");
        report.put(
            "congest.ns_per_message",
            built.build_s * 1e9 / built.stats.messages.max(1) as f64,
            "ns",
        );
        report.put(
            "congest.ns_per_round",
            built.build_s * 1e9 / built.stats.rounds.max(1) as f64,
            "ns",
        );
        // The self-test's fault sits in slot 0; the engines are compared on
        // the untouched rest.
        let skip = usize::from(self.inject.is_some());
        engines_agree(&built.flat, &pairs[skip..], &expected[skip..], report);
        Ok(built)
    }

    /// Change the edge list, rebuild, save and swap, `cycles` times; each
    /// sample runs from the change until the new generation answers.
    fn swap_cycles(
        &self,
        served: &Served,
        probe: (NodeId, NodeId),
        cycles: usize,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> Result<(Vec<f64>, FlatSketchSet, PathBuf), String> {
        let mut client = connect(&served.server)?;
        let mut alt = PathBuf::new();
        let mut samples = Vec::new();
        let mut last = None;
        for c in 0..cycles {
            // Each generation gets a file of its own, as a writer keeping
            // versioned snapshots would; the previous one is removed after
            // the sample.
            let previous = std::mem::replace(&mut alt, self.path(&format!("alt-{c}.dsk1")));
            let root = span(tracer, "swap.cycle", 0);
            let started = Instant::now();
            let mut rng = Rng::new(self.seed, 100 + c as u64);
            let graph = perturb(
                &served.graph,
                PERTURB_SHARE,
                self.kind.max_weight(),
                &mut rng,
            );
            let built = build(
                &graph,
                self.kind.spec(),
                INSTANCE_SEED,
                BuildEngine::Parallel,
                tracer,
                root.id(),
            )?;
            report.build_samples.push(built.build_s);
            save(&alt, &built.contents, tracer, root.id())?;
            report.tally.attempted += 1;
            let swapped = {
                let _g = span(tracer, "swap.request", root.id());
                client.swap(&alt.to_string_lossy())
            };
            if let Err(e) = swapped {
                report.tally.transport(&e, 1);
                return Err(format!("swap refused: {e}"));
            }
            report.tally.answered += 1;
            report.tally.attempted += 1;
            let answer = client.query(probe.0, probe.1);
            samples.push(started.elapsed().as_secs_f64());
            match answer {
                Ok(Ok(d)) => {
                    report
                        .tally
                        .answer(probe, d, built.flat.estimate(probe.0, probe.1).ok())
                }
                Ok(Err(e)) => report.tally.typed(probe, &e),
                Err(e) => report.tally.transport(&e, 1),
            }
            last = Some(built.flat);
            let _ = std::fs::remove_file(previous);
        }
        Ok((samples, last.expect("cycles >= 1"), alt))
    }

    pub fn execute(&self, tracer: Option<&Tracer>) -> Result<Report, String> {
        std::fs::create_dir_all(&self.dir).map_err(|e| format!("{:?}: {e}", self.dir))?;
        let mut report = Report::default();
        match self.kind {
            Kind::CongestGrid => self.congest_grid(tracer, &mut report)?,
            _ => self.served(tracer, &mut report)?,
        }
        report.put("peak_rss_mb", util::peak_rss_mb(), "MB");
        report.notes.push(format!(
            "available parallelism: {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ));
        Ok(report)
    }

    /// The timed window; in a traced run its first half runs untraced and
    /// the second traced, and the ratio of their medians is the trace
    /// overhead.
    fn halves(&self) -> Vec<(Duration, bool)> {
        let window = Duration::from_secs_f64(self.seconds);
        if self.trace {
            vec![(window / 2, false), (window / 2, true)]
        } else {
            vec![(window, false)]
        }
    }

    fn served(&self, tracer: Option<&Tracer>, report: &mut Report) -> Result<(), String> {
        let served = self.served_setup(tracer, report)?;
        let n = served.graph.num_nodes();
        let (pairs, expected) = self.stream(n, &served.flat)?;
        let stretch = audit(&served.graph, &served.flat, self.kind.spec(), report);
        report.put("stretch_mean", stretch, "ratio");
        drop(self.congest_build(&served.graph, &pairs, &expected, tracer, report)?);

        let addr = served.server.local_addr().to_string();
        let stream = Stream {
            pairs: &pairs,
            expected: Some(&expected),
        };
        let mut p50s = Vec::new();
        let mut window = LoopResult::default();
        let mut swap_samples = Vec::new();
        let mut during_us = Vec::new();
        let mut swap_request_s = Vec::new();
        let mut churn_state = (self.kind == Kind::SwapChurn).then(|| {
            let mut answers = lenient(&served.flat, &pairs);
            if self.inject == Some(Inject::Wrong) {
                answers[0] += 1;
            }
            ChurnState {
                graph: served.graph.clone(),
                answers,
                step: 0,
            }
        });
        for (duration, traced) in self.halves() {
            let t = if traced { tracer } else { None };
            let root = span(t, "window", 0);
            let result = match self.kind {
                Kind::PointTz => {
                    let (nominal, sustained) =
                        self.point_window(&addr, stream, duration, t, root.id(), report);
                    if let Some(rate) = sustained {
                        report.put("sustained_qps", rate, "1/s");
                    }
                    nominal
                }
                Kind::BatchDegrading => {
                    traffic::closed_loop(&addr, stream, 2, BATCH, duration, t, root.id())
                }
                _ => {
                    let state = churn_state.as_mut().expect("swap-churn state");
                    let churn = self.churn(&served, &pairs, state, duration, t, report)?;
                    swap_samples.extend(churn.swap_s);
                    during_us = churn.during_us;
                    swap_request_s = churn.request_s;
                    churn.reads
                }
            };
            drop(root);
            let mut us = micros(&result.latency_ns);
            p50s.push(percentile(&mut us, 50.0));
            report.tally.absorb(&result.tally);
            window = result;
        }
        if self.trace {
            report.put("trace.overhead_ratio", p50s[1] / p50s[0], "ratio");
            let mut lag = micros(&window.lag_ns);
            report.put("loadgen.lag_us_p99", percentile(&mut lag, 99.0), "us");
            report.put("loadgen.attempted", window.tally.attempted as f64, "count");
            report.put("loadgen.failed", window.tally.failed() as f64, "count");
        }
        let chunk = match self.kind {
            Kind::SwapChurn => CHURN_CHUNK,
            _ => SLICE_SAMPLES,
        };
        latency_metrics(report, &window, chunk);
        let answered_per_s = window.tally.answered as f64 / window.elapsed_s.max(1e-9);
        report.put("throughput_qps", answered_per_s, "1/s");
        if self.kind != Kind::PointTz {
            report.put("sustained_qps", answered_per_s, "1/s");
        }
        let per_chunk = window.chunk_percentiles_us(chunk);
        let mut chunk_p99s: Vec<f64> = per_chunk.iter().map(|s| s.1).collect();
        let mut all_us = micros(&window.latency_ns);
        report.notes.push(format!(
            "window: {} attempted, {} answered, {} latency samples; {} chunks, their p99 \
             (us) min/median/max {:.1}/{:.1}/{:.1}; whole-window p99 {:.1} us",
            window.tally.attempted,
            window.tally.answered,
            window.latency_ns.len(),
            per_chunk.len(),
            percentile(&mut chunk_p99s, 0.0),
            percentile(&mut chunk_p99s, 50.0),
            percentile(&mut chunk_p99s, 100.0),
            percentile(&mut all_us, 99.0)
        ));

        if self.trace {
            if self.kind == Kind::SwapChurn {
                // The ladder checks against the base snapshot's answers.
                connect(&served.server)?
                    .swap(&served.path.to_string_lossy())
                    .map_err(|e| format!("swap back to the base snapshot: {e}"))?;
            }
            self.trace_layers(&served, &pairs, &expected, tracer, report)?;
        }

        if self.kind != Kind::SwapChurn {
            // Probe pair 1: pair 0 carries the self-test's fault.
            let (samples, alt_flat, alt_path) =
                self.swap_cycles(&served, pairs[1], SWAP_CYCLES, tracer, report)?;
            swap_samples = samples;
            if self.trace {
                // The server now serves the last swap cycle's snapshot.
                let (request_s, during) = ladder::swap_probe(
                    &served.server,
                    [&alt_path, &served.path],
                    [&alt_flat, &served.flat],
                    &pairs[1..],
                    2,
                    READER_RATE,
                    tracer,
                    &mut report.tally,
                )?;
                swap_request_s = request_s;
                during_us = during;
            }
        }
        report.put("swap_s", median(&swap_samples), "s");
        report.put("build_s", median(&report.build_samples), "s");
        if self.trace {
            report.put("swap.request_s", median(&swap_request_s), "s");
            report.put(
                "swap.read_p99_us_during",
                percentile(&mut during_us, 99.0),
                "us",
            );
        }
        let stats = served.server.shutdown();
        report.notes.push(format!(
            "server: {} frames in, {} timeouts, {} overloads; {} swaps",
            stats.net.frames_in, stats.net.timeouts, stats.net.overloads, stats.serve.swaps
        ));
        Ok(())
    }

    /// Per-layer figures common to every traced run: stage spans and the
    /// four-rung ladder over the workload's own pairs.
    fn trace_layers(
        &self,
        served: &Served,
        pairs: &[(NodeId, NodeId)],
        expected: &[Distance],
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> Result<(), String> {
        let tracer_ref = tracer.expect("traced run");
        report.put(
            "store.save_s",
            median(&tracer_ref.durations_s("store.save")),
            "s",
        );
        report.put(
            "store.load_freeze_s",
            median(&tracer_ref.durations_s("store.load_freeze")),
            "s",
        );
        report.put(
            "analysis.verify_s",
            median(&tracer_ref.durations_s("analysis.verify")),
            "s",
        );
        // The ladder skips the self-test's faulted pair 0 (one frame).
        let skip = self.kind.batch();
        let oracle: Arc<dyn DistanceOracle> = Arc::new(served.flat.clone());
        let rungs = ladder::run(
            &served.server,
            oracle,
            &served.flat,
            &pairs[skip..],
            &expected[skip..],
            self.kind.batch(),
            Duration::from_millis(600),
            tracer,
            &mut report.tally,
        )?;
        for (name, value, unit) in rungs {
            report.put(name, value, unit);
        }
        Ok(())
    }

    /// The `point-tz` window: open-loop traffic at `POINT_RATE`.  In an
    /// untraced run it alternates with the rungs of `LADDER_SWEEPS` sweeps
    /// of the rate ladder — offered rates rising by `LADDER_STEP` from
    /// `LADDER_START` times `POINT_RATE`, each judged by its chunked p99 —
    /// so both spread over the whole window; returns the nominal traffic
    /// and, when the ladder ran, `sustained_qps`.
    fn point_window(
        &self,
        addr: &str,
        stream: Stream<'_>,
        duration: Duration,
        tracer: Option<&Tracer>,
        parent: u64,
        report: &mut Report,
    ) -> (LoopResult, Option<f64>) {
        let origin = Instant::now();
        let run = |rate: f64, duration: Duration, tracer: Option<&Tracer>| {
            let pace = Pace {
                connections: 2,
                rate,
                duration,
                stop: None,
                keep_records: false,
                origin,
            };
            traffic::open_loop(addr, stream, &pace, tracer, parent)
        };
        if self.trace {
            return (run(POINT_RATE, duration, tracer), None);
        }
        let slice = duration / (2 * LADDER_RUNGS * LADDER_SWEEPS) as u32;
        let mut nominal = LoopResult::default();
        // p99 of each rate's rung in every sweep; a rung with a failed
        // request misses the limit.
        let mut p99s = vec![Vec::new(); LADDER_RUNGS];
        for _ in 0..LADDER_SWEEPS {
            let mut rate = POINT_RATE * LADDER_START;
            for rung_p99s in &mut p99s {
                nominal.append(run(POINT_RATE, slice, None));
                let rung = run(rate, slice, None);
                report.tally.absorb(&rung.tally);
                let (_, p99) = rung.chunked_percentiles_us(SLICE_SAMPLES);
                rung_p99s.push(if rung.tally.failed() == 0 {
                    p99
                } else {
                    f64::INFINITY
                });
                rate *= LADDER_STEP;
            }
        }
        let mut rate = POINT_RATE * LADDER_START;
        let mut rungs = Vec::new();
        for rung_p99s in &p99s {
            let p99 = median(rung_p99s);
            rungs.push((rate, p99, p99 <= P99_LIMIT_US));
            report.notes.push(format!(
                "ladder {rate:.0}/s: median p99 {p99:.1} us; per sweep {:.1?}",
                rung_p99s
            ));
            rate *= LADDER_STEP;
        }
        (nominal, Some(sustained_rate(&rungs, P99_LIMIT_US)))
    }

    /// `swap-churn`: a writer changes the edge list, rebuilds, saves and
    /// swaps in a loop while one reader sends single-pair requests at a
    /// fixed rate; reads are checked against the generations they overlap.
    fn churn(
        &self,
        served: &Served,
        pairs: &[(NodeId, NodeId)],
        state: &mut ChurnState,
        duration: Duration,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> Result<Churn, String> {
        let addr = served.server.local_addr().to_string();
        let stop = AtomicBool::new(false);
        let pace = Pace {
            connections: 1,
            rate: READER_RATE,
            duration: duration + Duration::from_secs(60),
            stop: Some(&stop),
            keep_records: true,
            origin: Instant::now(),
        };
        // generations[0] answers what the live snapshot answers.
        let mut generations = vec![std::mem::take(&mut state.answers)];
        let mut windows = Vec::new();
        let mut swap_s = Vec::new();
        let mut request_s = Vec::new();
        let mut client = connect(&served.server)?;
        let deadline = Instant::now() + duration;
        let probe = pairs[1];
        let reads = std::thread::scope(|scope| -> Result<LoopResult, String> {
            let reader = scope.spawn(|| {
                let stream = Stream {
                    pairs,
                    expected: None,
                };
                traffic::open_loop(&addr, stream, &pace, None, 0)
            });
            let outcome = (|| -> Result<(), String> {
                while Instant::now() < deadline || windows.is_empty() {
                    let root = span(tracer, "swap.cycle", 0);
                    let started = Instant::now();
                    state.step += 1;
                    let mut rng = Rng::new(self.seed, 1000 + state.step);
                    state.graph = perturb(
                        &state.graph,
                        PERTURB_SHARE,
                        self.kind.max_weight(),
                        &mut rng,
                    );
                    let built = build(
                        &state.graph,
                        self.kind.spec(),
                        INSTANCE_SEED,
                        BuildEngine::Parallel,
                        tracer,
                        root.id(),
                    )?;
                    report.build_samples.push(built.build_s);
                    let path = self.path(&format!("churn-{}.dsk1", state.step));
                    save(&path, &built.contents, tracer, root.id())?;
                    report.tally.attempted += 1;
                    let start_ns = pace.origin.elapsed().as_nanos() as u64;
                    let swapped = {
                        let _g = span(tracer, "swap.request", root.id());
                        client.swap(&path.to_string_lossy())
                    };
                    let end_ns = pace.origin.elapsed().as_nanos() as u64;
                    if let Err(e) = swapped {
                        report.tally.transport(&e, 1);
                        return Err(format!("swap refused: {e}"));
                    }
                    report.tally.answered += 1;
                    report.tally.attempted += 1;
                    let answer = client.query(probe.0, probe.1);
                    swap_s.push(started.elapsed().as_secs_f64());
                    request_s.push((end_ns - start_ns) as f64 / 1e9);
                    windows.push(SwapWindow { start_ns, end_ns });
                    drop(root);
                    let answers = lenient(&built.flat, pairs);
                    match answer {
                        Ok(Ok(d)) => report.tally.answer(probe, d, Some(answers[1])),
                        Ok(Err(e)) => report.tally.typed(probe, &e),
                        Err(e) => report.tally.transport(&e, 1),
                    }
                    generations.push(answers);
                    let _ =
                        std::fs::remove_file(self.path(&format!("churn-{}.dsk1", state.step - 1)));
                }
                Ok(())
            })();
            stop.store(true, Ordering::Relaxed);
            let reads = reader.join().expect("churn reader panicked");
            outcome.map(|()| reads)
        })?;
        check_against_generations(
            &reads.records,
            pairs,
            &windows,
            &generations,
            &mut report.tally,
        );
        state.answers = generations.pop().expect("the live generation");
        let during_us = overlapping_latencies_us(&reads, &windows);
        report.notes.push(format!(
            "churn: {} swaps, {} reads ({} during swaps)",
            windows.len(),
            reads.records.len(),
            during_us.len()
        ));
        Ok(Churn {
            reads,
            swap_s,
            request_s,
            during_us,
        })
    }

    fn congest_grid(&self, tracer: Option<&Tracer>, report: &mut Report) -> Result<(), String> {
        let kind = self.kind;
        let generate = move || kind.graph();
        let (base, mut gen_times) = time_generation(&generate, GENERATIONS_PER_STEP, tracer);
        let n = base.num_nodes();
        let spec = kind.spec();
        // The parallel engine's labels are the reference answers.
        let reference = build(&base, spec, INSTANCE_SEED, BuildEngine::Parallel, tracer, 0)?;
        let (pairs, expected) = self.stream(n, &reference.flat)?;
        report.put("build.total_s", reference.build_s, "s");
        let phases = phase_sums(&reference.timings);
        report.put("build.phase_s.pivots", phases[0], "s");
        report.put("build.phase_s.clusters", phases[1], "s");
        report.put("build.phase_s.merge", phases[2], "s");
        drop(reference);

        // The window: CONGEST builds, alternating the base graph (whose
        // counts must repeat exactly) with changed edge weights (timed from
        // the change until the new labels answer).  Between builds, graph
        // generations and in-process queries are timed, so their samples
        // spread over the whole run.
        let mut queries = LoopResult::default();
        let mut cursor = 0;
        let origin = Instant::now();
        let mut builds = Vec::new();
        let mut swap_s = Vec::new();
        let mut base_built: Option<Built> = None;
        let mut half_builds: Vec<Vec<f64>> = Vec::new();
        let mut step = 0u64;
        let probe = pairs[1];
        for (duration, traced) in self.halves() {
            let t = if traced { tracer } else { None };
            let deadline = Instant::now() + duration;
            let mut these = Vec::new();
            while Instant::now() < deadline || these.len() < 2 {
                let changed = step % 2 == 1;
                let started = Instant::now();
                let graph = if changed {
                    perturb(
                        &base,
                        PERTURB_SHARE,
                        kind.max_weight(),
                        &mut Rng::new(self.seed, 2000 + step),
                    )
                } else {
                    base.clone()
                };
                let built = build(&graph, spec, INSTANCE_SEED, BuildEngine::Congest, t, 0)?;
                report.tally.attempted += 1;
                let answer = built.flat.estimate(probe.0, probe.1);
                let elapsed = started.elapsed().as_secs_f64();
                report.tally.answered += 1;
                builds.push(built.build_s);
                these.push(built.build_s);
                if changed {
                    swap_s.push(elapsed);
                    let check = build(&graph, spec, INSTANCE_SEED, BuildEngine::Parallel, None, 0)?;
                    if answer.ok() != check.flat.estimate(probe.0, probe.1).ok() {
                        report.problems.push(format!(
                            "CONGEST and parallel builds disagree on {probe:?} after a change"
                        ));
                    }
                } else if let Some(first) = &base_built {
                    let (a, b) = (&first.stats, &built.stats);
                    if (a.rounds, a.messages) != (b.rounds, b.messages) {
                        report.problems.push(format!(
                            "CONGEST counts changed between identical builds: {} rounds / {} messages, then {} / {}",
                            a.rounds, a.messages, b.rounds, b.messages
                        ));
                    }
                } else {
                    let skip = usize::from(self.inject.is_some());
                    engines_agree(&built.flat, &pairs[skip..], &expected[skip..], report);
                    base_built = Some(built);
                }
                step += 1;
                gen_times.extend(time_generation(&generate, GENERATIONS_PER_STEP, t).1);
                if let Some(base) = &base_built {
                    let slice = Duration::from_secs_f64(self.seconds * QUERY_SHARE / 6.0);
                    self.query_frames(
                        &base.flat,
                        &pairs,
                        &expected,
                        &mut queries,
                        &mut cursor,
                        origin,
                        slice,
                    );
                }
            }
            half_builds.push(these);
        }
        report
            .notes
            .push(format!("CONGEST builds (s): {builds:.3?}"));
        report.put("setup_s", median(&gen_times), "s");
        report.put("graph.generate_s", median(&gen_times), "s");
        let base_built = base_built.expect("at least one base build");
        let (rounds, messages) = (base_built.stats.rounds, base_built.stats.messages);
        let build_s = median(&builds);
        report.put("build_s", build_s, "s");
        report.put("swap_s", median(&swap_s), "s");
        report.put("rounds", rounds as f64, "count");
        report.put("messages", messages as f64, "count");
        report.put(
            "congest.ns_per_message",
            build_s * 1e9 / messages.max(1) as f64,
            "ns",
        );
        report.put(
            "congest.ns_per_round",
            build_s * 1e9 / rounds.max(1) as f64,
            "ns",
        );
        if self.trace {
            report.put(
                "trace.overhead_ratio",
                median(&half_builds[1]) / median(&half_builds[0]),
                "ratio",
            );
        }

        // Nothing is served: queries went to the CONGEST-built labels in
        // process, checked against the parallel build.
        let qps = queries.tally.answered as f64 / queries.elapsed_s.max(1e-9);
        report.tally.absorb(&queries.tally);
        latency_metrics(report, &queries, SLICE_SAMPLES);
        report.put("throughput_qps", qps, "1/s");
        report.put("sustained_qps", qps, "1/s");
        if self.trace {
            report.put("loadgen.lag_us_p99", 0.0, "us");
            report.put("loadgen.attempted", queries.tally.attempted as f64, "count");
            report.put("loadgen.failed", queries.tally.failed() as f64, "count");
        }

        let path = self.path("congest.dsk1");
        let bytes = save(&path, &base_built.contents, tracer, 0)?;
        report.put("snapshot_mb", bytes as f64 / 1e6, "MB");
        report.put("store.snapshot_bytes", bytes as f64, "bytes");
        let stretch = audit(&base, &base_built.flat, spec, report);
        report.put("stretch_mean", stretch, "ratio");

        if self.trace {
            // The served layers are not part of this workload's figures, but
            // the traced run walks the same ladder on its labels.
            let served = Served {
                graph: base.clone(),
                server: lifecycle::cold_start(&path, tracer, 0)?,
                flat: base_built.flat,
                path: path.clone(),
            };
            self.trace_layers(&served, &pairs, &expected, tracer, report)?;
            let alt = self.path("alt.dsk1");
            let changed = perturb(
                &base,
                PERTURB_SHARE,
                kind.max_weight(),
                &mut Rng::new(self.seed, 3000),
            );
            let alt_built = build(
                &changed,
                spec,
                INSTANCE_SEED,
                BuildEngine::Parallel,
                None,
                0,
            )?;
            save(&alt, &alt_built.contents, None, 0)?;
            let (request_s, mut during) = ladder::swap_probe(
                &served.server,
                [&path, &alt],
                [&served.flat, &alt_built.flat],
                &pairs[1..],
                2,
                READER_RATE,
                tracer,
                &mut report.tally,
            )?;
            report.put("swap.request_s", median(&request_s), "s");
            report.put(
                "swap.read_p99_us_during",
                percentile(&mut during, 99.0),
                "us",
            );
            served.server.shutdown();
        }
        Ok(())
    }

    /// In-process queries over the stream for `duration`, in
    /// `QUERY_FRAME`-pair frames through `estimate_batch`, each frame timed
    /// and stamped relative to `origin`; `cursor` is where the stream
    /// resumes.
    #[allow(clippy::too_many_arguments)]
    fn query_frames(
        &self,
        flat: &FlatSketchSet,
        pairs: &[(NodeId, NodeId)],
        expected: &[Distance],
        out: &mut LoopResult,
        cursor: &mut usize,
        origin: Instant,
        duration: Duration,
    ) {
        let started = Instant::now();
        while started.elapsed() < duration {
            let first = *cursor;
            let frame = &pairs[first..first + QUERY_FRAME];
            let t = Instant::now();
            let results = flat.estimate_batch(frame);
            out.latency_ns.push(util::nanos_since(t));
            out.at_ns.push((t - origin).as_nanos() as u64);
            for (i, result) in results.into_iter().enumerate() {
                let pair = frame[i];
                out.tally.attempted += 1;
                match result {
                    Ok(d) => out.tally.answer(pair, d, Some(expected[first + i])),
                    Err(e) => {
                        out.tally.typed_errors += 1;
                        if out.tally.first_problem.is_none() {
                            out.tally.first_problem =
                                Some(format!("in-process query {pair:?}: {e}"));
                        }
                    }
                }
            }
            *cursor = (first + QUERY_FRAME) % pairs.len();
        }
        out.elapsed_s += started.elapsed().as_secs_f64();
    }
}

/// What `swap-churn` carries from one window to the next: the live
/// graph and its answers.
struct ChurnState {
    graph: Graph,
    answers: Vec<Distance>,
    step: u64,
}

struct Churn {
    reads: LoopResult,
    swap_s: Vec<f64>,
    request_s: Vec<f64>,
    during_us: Vec<f64>,
}

/// Remove the run's scratch directory (snapshots are tens of MB).
pub fn clean(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_rate_interpolates_between_rungs() {
        let limit = 1000.0;
        // Every rung passes: the top rung.
        assert_eq!(
            sustained_rate(&[(10.0, 50.0, true), (20.0, 80.0, true)], limit),
            20.0
        );
        // Crossing between 20 (p99 100) and 30 (p99 10000): halfway in log.
        let r = sustained_rate(
            &[
                (10.0, 50.0, true),
                (20.0, 100.0, true),
                (30.0, 10_000.0, false),
            ],
            limit,
        );
        assert!((r - 25.0).abs() < 1e-9, "{r}");
        // One noisy failing rung below passing ones does not end the ladder.
        let r = sustained_rate(
            &[
                (10.0, 50.0, true),
                (20.0, 5000.0, false),
                (30.0, 80.0, true),
                (40.0, 90.0, true),
                (50.0, 9e4, false),
            ],
            limit,
        );
        assert!((40.0..50.0).contains(&r), "{r}");
        // A failing rung within the limit (failed requests) still splits.
        let r = sustained_rate(&[(10.0, 50.0, true), (20.0, 60.0, false)], limit);
        assert!((10.0..=20.0).contains(&r), "{r}");
        // The first rung already fails: scaled down.
        assert_eq!(sustained_rate(&[(10.0, 2000.0, false)], limit), 5.0);
    }

    #[test]
    fn phases_are_summed_by_kind() {
        let mut t = BuildTimings::new(2);
        for (phase, s) in [
            ("tz/pivots", 1.0),
            ("layer0/tz/clusters", 2.0),
            ("layer1/tz/clusters", 3.0),
            ("tz/merge", 4.0),
        ] {
            t.phases.push(dsketch::parallel::PhaseTiming {
                phase: phase.into(),
                items: 1,
                seconds: s,
            });
        }
        assert_eq!(phase_sums(&t), [1.0, 5.0, 4.0]);
    }
}
