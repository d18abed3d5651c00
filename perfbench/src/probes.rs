//! Per-layer metrics of a traced run: span summaries of the load, counts
//! from the fleet's health and scrape, and micro-probes that call each
//! layer's public functions inline on the workload's own trace and
//! configuration.

use crate::fleet::{blank, Workload, DEPTH, TOPK, WIDTH};
use crate::spans::Tracer;
use crate::stats::{median, percentile, tail_ok};
use crate::{put, Metrics, BURST, PHI};
use nitrosketch::core::NitroSketch;
use nitrosketch::hash::xxhash::xxh64_u64;
use nitrosketch::hash::GeometricSampler;
use nitrosketch::metrics::{FleetHealth, ScrapeSnapshot};
use nitrosketch::sketches::{Checkpoint, CountSketch, FlowKey, RowSketch, Sketch, TopK};
use nitrosketch::switch::pipeline::MergedView;
use nitrosketch::switch::store::{CheckpointSink, CheckpointStore, StoreConfig};
use nitrosketch::switch::supervisor::Recoverable;
use nitrosketch::switch::{Aggregator, AggregatorConfig, NodeAgent, NodeAgentConfig};
use nitrosketch::switch::{Observation, SpscRing};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Keys each micro-probe round walks.
const PROBE_KEYS: usize = 1 << 20;
/// Rounds per micro-probe; the median round is reported.
const ROUNDS: usize = 5;
/// Checkpoint encode/decode repetitions.
const CODEC_REPS: usize = 21;
/// Frames the persist probe writes (enough for a p90 with 10 beyond).
const PERSISTS: usize = 110;
/// `CheckpointStore::recover` repetitions.
const RECOVERS: usize = 5;
/// Seals of the probe cluster; the medians are reported.
const PROBE_SEALS: usize = 20;
/// Merged epochs the probe aggregator keeps; each holds a full sketch.
const KEEP_EPOCHS: usize = 8;
/// How long a sealed epoch may take to turn Complete.
const COMPLETE_DEADLINE: Duration = Duration::from_secs(2);
/// Ring rounds of the SPSC probe.
const SPSC_ROUNDS: usize = 64;

/// What the probes read from the finished run.
pub struct Context<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Its trace.
    pub trace: &'a [FlowKey],
    /// The fleet's final merged sketch.
    pub sketch: &'a NitroSketch<CountSketch>,
    /// Observations offered (and processed).
    pub offered: u64,
    /// Final fleet health.
    pub health: &'a FleetHealth,
    /// The last scrape of the live fleet.
    pub scrape: Option<&'a ScrapeSnapshot>,
    /// Scratch directory of this run.
    pub run_dir: &'a Path,
}

/// Median over `ROUNDS` of `f`'s ns per item, where one call of `f`
/// handles `items` items.
fn ns_per(items: usize, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&rounds)
}

/// Median wall time of `reps` calls of `f`, in µs.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&v)
}

/// Every per-layer metric, into `m`.
pub fn layer_metrics(
    ctx: &Context,
    tracer: &Tracer,
    finish_ns: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let keys = &ctx.trace[..PROBE_KEYS.min(ctx.trace.len())];
    let p = ctx.w.p;
    let mobs = ctx.offered as f64 / 1e6;

    // hash
    put(
        m,
        "hash.xxh64_ns",
        ns_per(keys.len(), || {
            let mut acc = 0u64;
            for &k in keys {
                acc ^= xxh64_u64(black_box(k), 0x5EED);
            }
            black_box(acc);
        }),
        "ns",
    );
    put(
        m,
        "hash.geometric_ns",
        ns_per(keys.len(), || {
            let mut g = GeometricSampler::new(p, 1);
            let mut acc = 0u64;
            for _ in 0..keys.len() {
                acc = acc.wrapping_add(black_box(&mut g).next_skip());
            }
            black_box(acc);
        }),
        "ns",
    );

    // sketches
    let mut cs = CountSketch::new(DEPTH, WIDTH, 1);
    put(
        m,
        "sketches.update_ns",
        ns_per(keys.len(), || {
            for &k in keys {
                cs.update(black_box(k), 1.0);
            }
        }),
        "ns",
    );
    let mut estimates = vec![0.0; keys.len()];
    put(
        m,
        "sketches.estimate_ns",
        ns_per(keys.len(), || {
            for (e, &k) in estimates.iter_mut().zip(keys) {
                *e = cs.estimate_robust(black_box(k));
            }
        }),
        "ns",
    );
    put(
        m,
        "sketches.topk_offer_ns",
        ns_per(keys.len(), || {
            let mut topk = TopK::new(TOPK);
            for (&e, &k) in estimates.iter().zip(keys) {
                topk.offer(k, e);
            }
            black_box(topk.len());
        }),
        "ns",
    );

    // core
    put(
        m,
        "core.process_ns",
        ns_per(keys.len(), || {
            let mut n = blank(p);
            for (i, &k) in keys.iter().enumerate() {
                n.process_ts(k, 1.0, i as u64 * 100);
            }
            black_box(n.stats());
        }),
        "ns",
    );
    put(
        m,
        "core.batch_ns",
        ns_per(keys.len(), || {
            let mut n = blank(p);
            for (i, chunk) in keys.chunks(64).enumerate() {
                n.process_batch_ts(chunk, 1.0, i as u64 * 6_400);
            }
            black_box(n.stats());
        }),
        "ns",
    );
    let stats = ctx.sketch.stats();
    put(
        m,
        "core.rows_per_obs",
        stats.row_updates as f64 / stats.packets.max(1) as f64,
        "count",
    );
    put(
        m,
        "core.heap_per_obs",
        stats.heap_updates as f64 / stats.packets.max(1) as f64,
        "count",
    );

    // checkpoint
    let bytes = ctx.sketch.checkpoint_bytes();
    put(
        m,
        "checkpoint.encode_us",
        median_us(CODEC_REPS, || {
            black_box(ctx.sketch.checkpoint_bytes());
        }),
        "us",
    );
    let mut target = blank(p);
    let mut decode_ok = true;
    put(
        m,
        "checkpoint.decode_us",
        median_us(CODEC_REPS, || {
            decode_ok &= target.restore_bytes(&bytes).is_ok();
        }),
        "us",
    );
    if !decode_ok {
        return Err("checkpoint restore probe failed".into());
    }
    put(m, "checkpoint.bytes", bytes.len() as f64, "B");

    // spsc
    let ring = SpscRing::<Observation>::new(crate::fleet::ring_capacity());
    let cap = ring.capacity();
    let mut push_ns = Vec::with_capacity(SPSC_ROUNDS);
    let mut pop_ns = Vec::with_capacity(SPSC_ROUNDS);
    let mut buf = [Observation { key: 0, ts_ns: 0 }; 64];
    for round in 0..SPSC_ROUNDS {
        let t = Instant::now();
        for (i, &key) in keys.iter().cycle().skip(round).take(cap).enumerate() {
            if !ring.push(Observation {
                key,
                ts_ns: i as u64,
            }) {
                return Err("spsc probe ring filled early".into());
            }
        }
        push_ns.push(t.elapsed().as_nanos() as f64 / cap as f64);
        let t = Instant::now();
        let mut popped = 0;
        while popped < cap {
            popped += ring.pop_batch(&mut buf);
        }
        pop_ns.push(t.elapsed().as_nanos() as f64 / cap as f64);
        black_box(buf[0]);
    }
    put(m, "spsc.push_ns", median(&push_ns), "ns");
    put(m, "spsc.pop_ns", median(&pop_ns), "ns");

    // pipeline (spans of the load)
    let summary = tracer.summary();
    let layer = |name: &str| summary.get(name).copied().unwrap_or_default();
    let offers = layer("pipeline.offer_batch");
    if offers.calls == 0 {
        return Err("no traced offer_batch span".into());
    }
    put(
        m,
        "pipeline.offer_ns",
        offers.self_ns as f64 / (offers.calls * BURST as u64) as f64,
        "ns",
    );
    put(
        m,
        "pipeline.wait_share",
        layer("pipeline.wait").self_ns as f64 / layer("segment").total_ns as f64,
        "ratio",
    );
    put(
        m,
        "pipeline.view_ms",
        span_median(tracer, "pipeline.epoch_view")? / 1e6,
        "ms",
    );
    put(m, "pipeline.finish_ms", finish_ns as f64 / 1e6, "ms");

    // supervisor (counts and the scrape, read from outside)
    let checkpoints_per_mobs = ctx.health.total().checkpoints as f64 / mobs;
    put(
        m,
        "supervisor.checkpoints_per_mobs",
        checkpoints_per_mobs,
        "count",
    );
    let shard = ctx
        .scrape
        .and_then(|s| s.shards.first())
        .ok_or("no scrape of the live shard")?;
    // The scrape's histogram percentiles are log2-bucket lower bounds;
    // its exact sum and count give a mean that moves with the program.
    if shard.batch_ns.count == 0 {
        return Err("the scrape timed no supervisor batch".into());
    }
    put(
        m,
        "supervisor.batch_ns_mean",
        shard.batch_ns.sum as f64 / shard.batch_ns.count as f64,
        "ns",
    );

    // store
    let probe_dir = ctx.run_dir.join("probe-store");
    let store = CheckpointStore::create(&probe_dir, 1, StoreConfig::default())
        .map_err(|e| format!("probe store: {e}"))?;
    let writer = store.writer(0);
    let mut persist_ms = Vec::with_capacity(PERSISTS);
    for seq in 1..=PERSISTS as u64 {
        let t = Instant::now();
        writer
            .persist(seq, ctx.offered, &bytes)
            .map_err(|e| format!("probe persist: {e}"))?;
        persist_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
    }
    debug_assert!(tail_ok(persist_ms.len(), 0.9));
    put(
        m,
        "store.persist_ms_p50",
        percentile(&persist_ms, 0.5),
        "ms",
    );
    put(
        m,
        "store.persist_ms_p90",
        percentile(&persist_ms, 0.9),
        "ms",
    );
    // With a store the supervisor persists every checkpoint it takes.
    put(
        m,
        "store.bytes_per_mobs",
        checkpoints_per_mobs * bytes.len() as f64,
        "B",
    );
    drop((writer, store));
    let mut recover_err = None;
    put(
        m,
        "store.recover_ms",
        median_us(RECOVERS, || {
            if let Err(e) = CheckpointStore::recover(&probe_dir, StoreConfig::default()) {
                recover_err = Some(e.to_string());
            }
        }) / 1e3,
        "ms",
    );
    if let Some(e) = recover_err {
        return Err(format!("recover probe: {e}"));
    }

    // cluster: a probe agent sealing the final view on loopback
    let (seal, merge, query, frame) = probe_cluster(ctx)?;
    put(m, "cluster.seal_ms", seal / 1e6, "ms");
    put(m, "cluster.merge_ms", merge / 1e6, "ms");
    put(m, "cluster.query_us", query / 1e3, "us");
    put(m, "cluster.frame_bytes", frame as f64, "B");

    // telemetry and scrape, on the live fleet at the console cadence
    for (metric, span) in [
        ("telemetry.render_prom_us", "telemetry.render_prometheus"),
        ("telemetry.render_json_us", "telemetry.render_json"),
        ("scrape.parse_us", "scrape.parse"),
    ] {
        put(m, metric, span_median(tracer, span)? / 1e3, "us");
    }
    Ok(())
}

/// Median duration in ns of the spans named `name`.
fn span_median(tracer: &Tracer, name: &str) -> Result<f64, String> {
    let d = tracer.durations(name);
    if d.is_empty() {
        return Err(format!("no traced {name} span"));
    }
    Ok(median(&d))
}

/// Seal the final sketch `PROBE_SEALS` times through a fresh agent and
/// aggregator; returns the median seal, merge and query durations in ns
/// and the frame size.
fn probe_cluster(ctx: &Context) -> Result<(f64, f64, f64, usize), String> {
    let mut c = Cluster::spawn(ctx.w.p, &ctx.run_dir.join("probe-cluster"))?;
    let (mut seal, mut merge, mut query) = (vec![], vec![], vec![]);
    let threshold = PHI * ctx.offered as f64;
    for epoch in 1..=PROBE_SEALS as u64 {
        let view = MergedView::from_sketch(epoch, ctx.sketch.clone());
        let t0 = Instant::now();
        let out = c
            .agent
            .seal_epoch(epoch, &view, threshold)
            .map_err(|e| format!("probe seal: {e}"))?;
        let t1 = Instant::now();
        if !out.delivered || !c.wait_complete(epoch) {
            return Err(format!("probe epoch {epoch} not delivered and Complete"));
        }
        let t2 = Instant::now();
        let hh = c
            .agg
            .view(epoch)
            .ok_or("probe epoch has no view")?
            .heavy_hitters(threshold);
        let t3 = Instant::now();
        black_box(hh);
        seal.push((t1 - t0).as_nanos() as f64);
        merge.push((t2 - t1).as_nanos() as f64);
        query.push((t3 - t2).as_nanos() as f64);
    }
    let frame = c.agent.store().newest_frame(0).map_or(0, |f| f.bytes.len());
    c.close();
    Ok((median(&seal), median(&merge), median(&query), frame))
}

/// An in-process aggregator on a loopback port and one agent connected to
/// it, both logging under a directory.
struct Cluster {
    agg: Aggregator<CountSketch>,
    agent: NodeAgent,
}

impl Cluster {
    /// Spawn an aggregator logging to `dir/agglog` and connect an agent
    /// logging to `dir/agent`.
    fn spawn(p: f64, dir: &Path) -> Result<Self, String> {
        let cfg = AggregatorConfig {
            keep_epochs: KEEP_EPOCHS,
            log_dir: Some(dir.join("agglog")),
            ..AggregatorConfig::default()
        };
        let agg = Aggregator::spawn(blank(p), "127.0.0.1:0", cfg)
            .map_err(|e| format!("aggregator spawn: {e}"))?;
        let fingerprint = blank(p).inner().fingerprint();
        let mut agent = NodeAgent::open(dir.join("agent"), NodeAgentConfig::new(0, fingerprint))
            .map_err(|e| format!("agent open: {e}"))?;
        agent
            .connect(agg.local_addr())
            .map_err(|e| format!("agent connect: {e}"))?;
        Ok(Self { agg, agent })
    }

    /// Wait until `epoch` is Complete or the deadline passes.
    fn wait_complete(&self, epoch: u64) -> bool {
        let deadline = Instant::now() + COMPLETE_DEADLINE;
        loop {
            if self.agg.epoch_status(epoch).is_complete() {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// Say goodbye and stop the aggregator.
    fn close(self) {
        self.agent.close();
        self.agg.shutdown();
    }
}
