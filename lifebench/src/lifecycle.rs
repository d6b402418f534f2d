//! The build path, driven through each crate's public API: graph → build
//! (parallel engine or CONGEST simulation) → DSK1 save → deep verify →
//! load/freeze → server start → first answer.

use crate::spans::{span, Tracer};
use crate::util::nanos_since;
use dsketch::prelude::*;
use dsketch_serve::{NetClient, NetConfig, NetServer, ServeConfig, ServeMeta};
use dsketch_store::{SnapshotContents, StoredSketches};
use netgraph::{Graph, NodeId};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of the parallel engine and of the CONGEST compute step.
pub const BUILD_THREADS: usize = 2;
/// Query shards and connection workers of the in-process server.
pub const SHARDS: usize = 2;
pub const NET_WORKERS: usize = 2;
/// Frame deadline of every client connection.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// One finished build: the snapshot contents, the labels frozen directly
/// from the build (the reference every served answer is compared to) and
/// what the build cost.
pub struct Built {
    pub contents: SnapshotContents,
    pub flat: FlatSketchSet,
    pub timings: BuildTimings,
    pub stats: RunStats,
    pub build_s: f64,
}

fn config(seed: u64, engine: BuildEngine) -> SchemeConfig {
    let mut config = SchemeConfig::default()
        .with_seed(seed)
        .with_engine(engine)
        .with_threads(BUILD_THREADS);
    config.congest.num_threads = BUILD_THREADS;
    config
}

/// Build `spec` on `graph` with `engine`, keeping the per-phase timings the
/// store's one-shot build drops.
pub fn build(
    graph: &Graph,
    spec: SchemeSpec,
    seed: u64,
    engine: BuildEngine,
    tracer: Option<&Tracer>,
    parent: u64,
) -> Result<Built, String> {
    let name = match engine {
        BuildEngine::Parallel => "build.parallel",
        BuildEngine::Congest => "build.congest",
    };
    let started = Instant::now();
    let guard = span(tracer, name, parent);
    let config = config(seed, engine);
    let (sketches, stats, timings) = match spec {
        SchemeSpec::ThorupZwick { k } => {
            let o = ThorupZwickScheme::new(k)
                .build(graph, &config)
                .map_err(|e| format!("{spec} build: {e}"))?;
            (StoredSketches::ThorupZwick(o.sketches), o.stats, o.timings)
        }
        SchemeSpec::Degrading { max_layers, max_k } => {
            let o = DegradingScheme { max_layers, max_k }
                .build(graph, &config)
                .map_err(|e| format!("{spec} build: {e}"))?;
            (StoredSketches::Degrading(o.sketches), o.stats, o.timings)
        }
        other => return Err(format!("{other}: not a benchmarked family")),
    };
    drop(guard);
    let build_s = started.elapsed().as_secs_f64();
    let flat = sketches.freeze();
    let contents = SnapshotContents {
        spec,
        fingerprint: graph.fingerprint(),
        sketches,
        build_stats: Some(stats.clone()),
    };
    Ok(Built {
        contents,
        flat,
        timings,
        stats,
        build_s,
    })
}

/// Save `contents` crash-safely at `path`; returns the bytes written.
pub fn save(
    path: &Path,
    contents: &SnapshotContents,
    tracer: Option<&Tracer>,
    parent: u64,
) -> Result<u64, String> {
    let _g = span(tracer, "store.save", parent);
    dsketch_store::save_snapshot(path, contents).map_err(|e| format!("save {path:?}: {e}"))
}

/// Cold start: read the snapshot, deep-verify it, load it straight into
/// the frozen layout and start the NETQ/HTTP server on a loopback port.
pub fn cold_start(path: &Path, tracer: Option<&Tracer>, parent: u64) -> Result<NetServer, String> {
    let start = span(tracer, "serve.cold_start", parent);
    let bytes = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
    {
        let _g = span(tracer, "analysis.verify", start.id());
        dsketch_analysis::verify_snapshot_bytes(&bytes).map_err(|e| format!("verify: {e}"))?;
    }
    let raw = dsketch_store::SnapshotReader::new(&bytes[..])
        .read()
        .map_err(|e| format!("header: {e}"))?;
    let origin = (raw.spec(), raw.fingerprint());
    let oracle: Arc<dyn DistanceOracle> = {
        let _g = span(tracer, "store.load_freeze", start.id());
        Arc::from(dsketch_store::read_frozen_oracle(&bytes[..]).map_err(|e| format!("load: {e}"))?)
    };
    let _g = span(tracer, "serve.start", start.id());
    NetServer::start_with_origin(
        oracle,
        ServeConfig::default().with_shards(SHARDS),
        NetConfig::default().with_workers(NET_WORKERS),
        "127.0.0.1:0",
        ServeMeta::new(origin.0.to_string(), origin.1.to_string()),
        Some(origin),
    )
    .map_err(|e| format!("server start: {e}"))
}

pub fn connect(server: &NetServer) -> Result<NetClient, String> {
    NetClient::connect_with_retry(
        &server.local_addr().to_string(),
        CLIENT_TIMEOUT,
        CLIENT_TIMEOUT,
    )
    .map_err(|e| format!("connect: {e}"))
}

/// The times of one full set-up, in seconds.
pub struct Setup {
    pub total_s: f64,
    pub generate_s: f64,
    pub build: Built,
    pub server: NetServer,
    pub snapshot_bytes: u64,
}

/// graph generation → parallel build → save → cold start → first answer
/// over the wire, checked against the build's own frozen labels.
pub fn setup(
    generate: &dyn Fn() -> Graph,
    spec: SchemeSpec,
    seed: u64,
    path: &Path,
    tracer: Option<&Tracer>,
) -> Result<(Graph, Setup), String> {
    let started = Instant::now();
    let root = span(tracer, "setup", 0);
    let gen_started = Instant::now();
    let graph = {
        let _g = span(tracer, "graph.generate", root.id());
        generate()
    };
    let generate_s = gen_started.elapsed().as_secs_f64();
    let build = build(&graph, spec, seed, BuildEngine::Parallel, tracer, root.id())?;
    let snapshot_bytes = save(path, &build.contents, tracer, root.id())?;
    let server = cold_start(path, tracer, root.id())?;
    let (u, v) = (NodeId(0), NodeId((graph.num_nodes() - 1) as u32));
    let answer = {
        let _g = span(tracer, "serve.first_answer", root.id());
        connect(&server)?
            .query(u, v)
            .map_err(|e| format!("first answer: {e}"))?
            .map_err(|e| format!("first answer: {e}"))?
    };
    let expected = build.flat.estimate(u, v).map_err(|e| e.to_string())?;
    if answer != expected {
        return Err(format!("first answer {answer} != direct answer {expected}"));
    }
    drop(root);
    let total_s = started.elapsed().as_secs_f64();
    Ok((
        graph,
        Setup {
            total_s,
            generate_s,
            build,
            server,
            snapshot_bytes,
        },
    ))
}

/// Time `graph` generation alone, `reps` times; returns the last graph and
/// the per-repetition seconds.
pub fn time_generation(
    generate: &dyn Fn() -> Graph,
    reps: usize,
    tracer: Option<&Tracer>,
) -> (Graph, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut graph = None;
    for _ in 0..reps {
        let started = Instant::now();
        let _g = span(tracer, "graph.generate", 0);
        graph = Some(generate());
        times.push(nanos_since(started) as f64 / 1e9);
    }
    (graph.expect("reps >= 1"), times)
}
