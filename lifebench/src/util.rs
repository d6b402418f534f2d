//! Small helpers: a seeded generator, pair streams, graph perturbation,
//! order statistics and process counters read from `/proc/self`.

use netgraph::{Graph, GraphBuilder, NodeId};
use std::time::Instant;

/// splitmix64: the benchmark owns its randomness so that its inputs stay
/// the same for a seed whatever the library's own generators do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` pairs with both endpoints uniform over `0..n`, `u != v`.
pub fn uniform_pairs(n: usize, count: usize, rng: &mut Rng) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let u = rng.below(n as u64) as u32;
        let v = rng.below(n as u64) as u32;
        if u != v {
            pairs.push((NodeId(u), NodeId(v)));
        }
    }
    pairs
}

/// `count` pairs whose endpoints follow a Zipf (`1/rank`) law over a seeded
/// permutation of the nodes: a few popular nodes carry most of the traffic.
pub fn zipf_pairs(n: usize, count: usize, rng: &mut Rng) -> Vec<(NodeId, NodeId)> {
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        nodes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for rank in 0..n {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    let draw = |rng: &mut Rng| {
        let target = rng.unit() * total;
        NodeId(nodes[cumulative.partition_point(|&c| c <= target).min(n - 1)])
    };
    (0..count).map(|_| (draw(rng), draw(rng))).collect()
}

/// A copy of `graph` with a seeded share of its edge weights redrawn in
/// `1..=max_weight`: the same nodes and edges, new distances.
pub fn perturb(graph: &Graph, share: f64, max_weight: u64, rng: &mut Rng) -> Graph {
    let mut builder = GraphBuilder::with_capacity(graph.num_nodes(), graph.num_edges());
    for (u, v, w) in graph.undirected_edges() {
        let w = if rng.unit() < share {
            1 + rng.below(max_weight)
        } else {
            w
        };
        builder.add_edge(u, v, w);
    }
    builder.build()
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nanosecond latencies to microseconds, as `f64` for the percentile helper.
pub fn micros(nanos: &[u64]) -> Vec<f64> {
    nanos.iter().map(|&n| n as f64 / 1e3).collect()
}

pub fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wait until `due` by sleeping: the generator never spins, so it takes
/// no core from the server it measures.  Call [`precise_sleeps`] first on
/// the waiting thread, or a sleep overshoots by the default timer slack.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Shrink this thread's timer slack from the default 50 µs to 1 µs, so
/// [`wait_until`] wakes within microseconds of the due time.
pub fn precise_sleeps() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's scheduling attributes.  On failure the slack
    // stays at its default and pacing is merely less precise.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000 as std::ffi::c_ulong);
    }
}

/// A field of `/proc/self/<file>`, e.g. `VmHWM` of `status` (kB) or
/// `syscr` of `io`.
pub fn proc_self_field(file: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/{file}")).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_self_field("status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Read and write syscalls this process has made so far (`syscr`, `syscw`).
pub fn syscalls() -> (u64, u64) {
    (
        proc_self_field("io", "syscr").unwrap_or(0),
        proc_self_field("io", "syscw").unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seeded() {
        let a = uniform_pairs(100, 50, &mut Rng::new(7, 1));
        let b = uniform_pairs(100, 50, &mut Rng::new(7, 1));
        let c = uniform_pairs(100, 50, &mut Rng::new(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|(u, v)| u != v && u.0 < 100 && v.0 < 100));
        let z = zipf_pairs(100, 2000, &mut Rng::new(7, 2));
        assert_eq!(z, zipf_pairs(100, 2000, &mut Rng::new(7, 2)));
    }

    #[test]
    fn zipf_concentrates_on_few_nodes() {
        let pairs = zipf_pairs(1000, 10_000, &mut Rng::new(3, 0));
        let mut counts = vec![0usize; 1000];
        for (u, _) in &pairs {
            counts[u.index()] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[..10].iter().sum::<usize>() > 2000);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [], 99.0), 0.0);
    }

    #[test]
    fn perturbation_keeps_the_topology() {
        let g = netgraph::generators::grid(
            6,
            6,
            netgraph::generators::GeneratorConfig::uniform(1, 1, 10),
        );
        let p = perturb(&g, 0.5, 10, &mut Rng::new(1, 1));
        assert_eq!(p.num_nodes(), g.num_nodes());
        assert_eq!(p.num_edges(), g.num_edges());
        assert_ne!(p.fingerprint(), g.fingerprint());
    }
}
