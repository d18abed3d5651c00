//! The system under test, driven only through its public API: a one-shard
//! in-memory `spawn_sharded` fleet.

use nitrosketch::core::{Mode, NitroSketch};
use nitrosketch::metrics::FleetHealth;
use nitrosketch::sketches::{CountSketch, FlowKey};
use nitrosketch::switch::pipeline::{spawn_sharded, PipelineConfig, ShardedPipeline, ShardedTap};
use std::time::{Duration, Instant};

/// CountSketch rows.
pub const DEPTH: usize = 5;
/// CountSketch counters per row (2¹⁵).
pub const WIDTH: usize = 1 << 15;
/// Top-k heavy-key slots.
pub const TOPK: usize = 1024;
/// Hash seed of the sketch rows, shared by every instance so they merge.
const SKETCH_SEED: u64 = 0x4E49_5452_4F42_454E;
/// Seed of the geometric sampler.
const SAMPLER_SEED: u64 = 7;

/// One named workload: its sampling probability and its amount of work.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Fixed sampling probability.
    pub p: f64,
    /// Observations per second of `--seconds` the run offers: sized so a
    /// run takes about `--seconds` on a 2-vCPU host, fixed so every run of
    /// a workload does the same work.
    pub work_per_second: u64,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "backbone-p1",
        p: 1.0,
        work_per_second: 1_800_000,
    },
    Workload {
        name: "backbone-sampled",
        p: 1.0 / 128.0,
        work_per_second: 10_000_000,
    },
];

/// A blank shard measurement of the workload's configuration.
pub fn blank(p: f64) -> NitroSketch<CountSketch> {
    NitroSketch::new(
        CountSketch::new(DEPTH, WIDTH, SKETCH_SEED),
        Mode::Fixed { p },
        SAMPLER_SEED,
    )
    .with_topk(TOPK)
}

/// A running fleet.
pub struct Fleet {
    /// Producer handle.
    pub tap: ShardedTap,
    /// Coordinator handle.
    pub pipe: ShardedPipeline<CountSketch>,
}

/// Ring slots per shard (the supervisor default).
pub fn ring_capacity() -> usize {
    PipelineConfig::default().supervisor.ring_capacity
}

/// Ring occupancy share at which the supervisor downshifts sampling.
pub fn high_water() -> f64 {
    PipelineConfig::default().supervisor.high_water
}

impl Fleet {
    /// Build the workload's fleet and offer it `first` at `ts_ns`.
    /// Returns the fleet, the time from the first constructor call until
    /// the offer returned, and the instant the offer was made.
    pub fn setup(
        w: &Workload,
        first: &[FlowKey],
        ts_ns: u64,
    ) -> Result<(Self, Duration, Instant), String> {
        let p = w.p;
        let start = Instant::now();
        let cfg = PipelineConfig {
            shards: 1,
            ..PipelineConfig::default()
        };
        let (mut tap, pipe) =
            spawn_sharded(move |_| blank(p), cfg).map_err(|e| format!("spawn_sharded: {e}"))?;
        let offered_at = Instant::now();
        tap.offer_batch(first, ts_ns);
        let took = start.elapsed();
        Ok((Self { tap, pipe }, took, offered_at))
    }

    /// Stop the fleet and return the merged final sketch and the fleet
    /// health.
    pub fn finish(self) -> Result<(NitroSketch<CountSketch>, FleetHealth), String> {
        let Fleet { tap, pipe } = self;
        drop(tap);
        pipe.finish().map_err(|e| format!("finish: {e}"))
    }
}
