//! End-to-end and per-layer benchmark of the nitrosketch measurement fleet.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload backbone-p1 --seed 1 --seconds 35 --trace 0
//! ```
//!
//! One run generates a CAIDA-like trace from `--seed`, builds the
//! workload's fleet several times (timing set-up), then offers a fixed
//! amount of work in a closed loop from one thread, which also queries
//! the fleet on a fixed wall-clock cadence and scrapes its telemetry. It
//! checks the fleet's accounting and the final heavy hitters against exact
//! ground truth and prints one JSON object as its last line. `--trace 1`
//! records spans around every call into the program on alternate
//! segments, runs the layer micro-probes, writes the spans under
//! `.perfbench/` and prints the per-layer metrics instead. See
//! `perfbench/README.md` for the workloads and metrics.

mod age;
mod fleet;
mod host;
mod probes;
mod spans;
mod stats;
mod truth;

use age::AgeTracker;
use fleet::{Fleet, Workload, WORKLOADS};
use nitrosketch::metrics::{FleetHealth, ScrapeSnapshot};
use nitrosketch::sketches::FlowKey;
use nitrosketch::traffic::CaidaLike;
use spans::Tracer;
use stats::{median, percentile, tail_ok, Segments};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Keys in the generated trace; it is replayed cyclically.
const TRACE_LEN: usize = 1 << 22;
/// Flow population of the trace.
const FLOWS: u64 = 1_000_000;
/// Observations per `offer_batch`.
const BURST: usize = 1024;
/// Synthetic spacing of trace timestamps (10 Mpps).
const TS_GAP_NS: u64 = 100;
/// Fixed-size segments a run is split into for the median rate.
const SEGMENTS: u64 = 40;
/// Query cadence. The age metrics do not depend on it (see `age.rs`); it
/// sets how many views a run samples.
const QUERY_EVERY: Duration = Duration::from_millis(50);
/// Telemetry scrape cadence (the operator console's).
const SCRAPE_EVERY: Duration = Duration::from_millis(200);
/// Fleet set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Heavy-hitter fraction of L1 for queries and the accuracy check.
const PHI: f64 = 1e-4;
/// Accuracy the final view must reach: recall of the true heavy hitters
/// and their mean relative error.
const MIN_RECALL: f64 = 0.9;
const MAX_ARE: f64 = 0.1;
/// Load longer than this stops offering early, so a much slower program
/// still ends the run in time.
const MAX_LOAD: Duration = Duration::from_secs(100);
/// Where runs keep their probe stores and write their spans.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// A metric value and its unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let run_dir =
        PathBuf::from(OUT_DIR).join(format!("run-{}-{}", args.workload.name, std::process::id()));
    let result = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(out) => {
            println!("{}", out.host);
            println!("{}", out.json());
            if !out.failures.is_empty() {
                eprintln!(
                    "perfbench: measured before the failed checks: {:?}",
                    out.metrics
                );
                for f in &out.failures {
                    eprintln!("perfbench: check failed: {f}");
                }
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

struct Outcome {
    host: String,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Metrics,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = if self.failures.is_empty() {
            self.metrics
                .iter()
                .map(|(k, (v, u))| {
                    format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v))
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The trace: `TRACE_LEN` flow keys of a CAIDA-like stream.
fn generate_trace(seed: u64) -> Vec<FlowKey> {
    CaidaLike::new(seed, FLOWS)
        .take(TRACE_LEN)
        .map(|r| r.tuple.flow_key())
        .collect()
}

/// What the closed loop measured.
struct Load {
    /// Offer-side segments; with `--trace 1` the odd ones are traced.
    segments: Segments,
    age: AgeTracker,
    view_ms: Vec<f64>,
    queries: u64,
    failed_queries: u64,
    offered: u64,
    last_scrape: Option<ScrapeSnapshot>,
}

fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let ticks0 = host::cpu_ticks();
    let calib_before = host::calibrate();
    let trace = generate_trace(args.seed);
    let n_total = (w.work_per_second * args.seconds) / BURST as u64 * BURST as u64;
    let bursts = (n_total / BURST as u64) as usize;

    // Everything the benchmark itself keeps is allocated and touched
    // before the baseline, so `peak_rss_mb` is the fleet's own. The
    // kernel's high-water mark sees every transient peak; sampling at
    // queries missed or caught a spare 1.3 MB checkpoint buffer by chance.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, if args.trace { bursts + 65_536 } else { 0 });
    let max_views = (load_cap(args).as_nanos() / QUERY_EVERY.as_nanos()) as usize + 64;
    let age = AgeTracker::with_capacity(max_views);
    std::fs::create_dir_all(run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let rss0 = host::rss_mb();
    let hwm0 = host::peak_rss_mb();

    let (mut fleet, first_at, setup_s) = set_up(&w, &trace, epoch)?;
    let load = drive(
        &mut fleet,
        &trace,
        n_total,
        args,
        &mut tracer,
        age,
        first_at,
    );
    let t_finish = tracer.now_ns();
    let (sketch, health) = fleet.finish()?;
    let finish_ns = tracer.now_ns() - t_finish;
    let peak_rss_mb = host::peak_rss_mb() - rss0;

    let offered = load.offered;
    let mut failures = check_health(&health, offered);
    if sketch.stats().packets != offered {
        failures.push(format!(
            "final sketch saw {} of {offered}",
            sketch.stats().packets
        ));
    }
    let truth = truth::cyclic_truth(&trace, offered);
    let acc = truth::accuracy(
        &truth,
        PHI,
        &sketch.heavy_hitters(PHI * offered as f64),
        |k| sketch.estimate(k),
    );
    if acc.recall < MIN_RECALL || acc.are > MAX_ARE {
        failures.push(format!(
            "heavy hitters off ground truth: {acc:?} (need recall >= {MIN_RECALL}, are <= {MAX_ARE})"
        ));
    }
    if !tail_ok(load.age.views(), 0.9) {
        failures.push(format!(
            "{} views: too few for a p90 with 10 beyond it",
            load.age.views()
        ));
    }
    if load.view_ms.is_empty() {
        failures.push("no query succeeded".into());
    }

    let mut metrics = Metrics::new();
    if args.trace {
        let ctx = probes::Context {
            w: &w,
            trace: &trace,
            sketch: &sketch,
            offered,
            health: &health,
            scrape: load.last_scrape.as_ref(),
            run_dir,
        };
        let t_probes = Instant::now();
        probes::layer_metrics(&ctx, &tracer, finish_ns, &mut metrics)?;
        eprintln!("perfbench: layer probes took {:?}", t_probes.elapsed());
        // Odd segments were traced, even ones not: the pairing cancels
        // host drift out of the overhead.
        let (traced, plain): (Vec<_>, Vec<_>) = load
            .segments
            .rates()
            .into_iter()
            .enumerate()
            .partition(|(i, _)| i % 2 == 1);
        let traced: Vec<f64> = traced.into_iter().map(|(_, r)| r).collect();
        let plain: Vec<f64> = plain.into_iter().map(|(_, r)| r).collect();
        put(
            &mut metrics,
            "trace.ingest_mpps",
            median(&traced) / 1e6,
            "Mpps",
        );
        put(
            &mut metrics,
            "trace.untraced_mpps",
            median(&plain) / 1e6,
            "Mpps",
        );
        put(
            &mut metrics,
            "trace.overhead_pct",
            (median(&plain) / median(&traced) - 1.0) * 100.0,
            "%",
        );
        write_spans(&tracer, &w, args.seed)?;
    } else {
        let ages = load.age.samples_ms();
        put(
            &mut metrics,
            "ingest_mpps",
            load.segments.median_rate() / 1e6,
            "Mpps",
        );
        if !ages.is_empty() {
            put(&mut metrics, "age_ms_p50", percentile(&ages, 0.5), "ms");
            put(&mut metrics, "age_ms_p90", percentile(&ages, 0.9), "ms");
        }
        if !load.view_ms.is_empty() {
            put(&mut metrics, "view_ms_p50", median(&load.view_ms), "ms");
        }
        put(&mut metrics, "hh_recall", acc.recall, "ratio");
        put(&mut metrics, "hh_are", acc.are, "ratio");
        put(
            &mut metrics,
            "query_ok_ratio",
            1.0 - load.failed_queries as f64 / load.queries.max(1) as f64,
            "ratio",
        );
        put(&mut metrics, "setup_s", median(&setup_s), "s");
        put(&mut metrics, "peak_rss_mb", peak_rss_mb, "MB");
    }

    let calib_after = host::calibrate();
    let steal = host::steal_pct(ticks0, host::cpu_ticks());
    let rates = load.segments.rates();
    let host = format!(
        "{{\"host\": {{\"nproc\": {}, \"avx2\": {}, \"steal_pct\": {}, \"calib_before_mops\": {}, \
         \"calib_after_mops\": {}, \"observations\": {offered}, \"true_heavy_hitters\": {}, \
         \"load_s\": {}, \"segment_mpps_p10_p50_p90\": [{}, {}, {}], \
         \"baseline_peak_excess_mb\": {}, \"setup_ms_min_p50_max\": [{}, {}, {}]}}}}",
        host::nproc(),
        host::avx2(),
        num(steal),
        num(calib_before),
        num(calib_after),
        acc.true_hh,
        num(load.segments.secs.iter().sum::<f64>()),
        num(percentile(&rates, 0.1) / 1e6),
        num(percentile(&rates, 0.5) / 1e6),
        num(percentile(&rates, 0.9) / 1e6),
        num(hwm0 - rss0),
        num(percentile(&setup_s, 0.0) * 1e3),
        num(median(&setup_s) * 1e3),
        num(percentile(&setup_s, 1.0) * 1e3),
    );
    if args.trace {
        put(&mut metrics, "host.nproc", host::nproc() as f64, "count");
        put(
            &mut metrics,
            "host.avx2",
            f64::from(u8::from(host::avx2())),
            "bool",
        );
        put(&mut metrics, "host.steal_pct", steal, "%");
        put(
            &mut metrics,
            "host.calib_before_mops",
            calib_before,
            "Mops/s",
        );
        put(&mut metrics, "host.calib_after_mops", calib_after, "Mops/s");
    }
    Ok(Outcome {
        host,
        attempted: load.queries,
        failed: load.failed_queries,
        failures,
        metrics,
    })
}

/// Build the fleet `SETUPS` times, tearing down all but the last; returns
/// the last fleet, when it accepted its first burst (ns since `epoch`) and
/// every set-up time in seconds.
fn set_up(
    w: &Workload,
    trace: &[FlowKey],
    epoch: Instant,
) -> Result<(Fleet, u64, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let (fleet, took, offered_at) = Fleet::setup(w, &trace[..BURST], 0)?;
        setup_s.push(took.as_secs_f64());
        if i + 1 == SETUPS {
            let first_at = offered_at.duration_since(epoch).as_nanos() as u64;
            return Ok((fleet, first_at, setup_s));
        }
        let (_, health) = fleet.finish()?;
        if health.total().processed != BURST as u64 {
            return Err("a set-up fleet lost its first burst".into());
        }
    }
    unreachable!("SETUPS >= 1")
}

/// Longest the load may run before it stops offering.
fn load_cap(args: &Args) -> Duration {
    MAX_LOAD.max(Duration::from_secs(4 * args.seconds))
}

/// The accounting checks on the drained fleet.
fn check_health(health: &FleetHealth, offered: u64) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, h) in health.shards().iter().enumerate() {
        if h.offered != h.processed + h.dropped + h.lost_in_crash {
            failures.push(format!("shard {i} accounting does not close: {h:?}"));
        }
    }
    let total = health.total();
    if health.unaccounted() != 0 {
        failures.push(format!("fleet accounting does not close: {total:?}"));
    }
    if total.offered != offered || total.processed != offered {
        failures.push(format!(
            "offered {offered}, fleet offered {} processed {}",
            total.offered, total.processed
        ));
    }
    if total.dropped + total.lost_in_crash != 0 {
        failures.push(format!(
            "closed loop lost observations: dropped {} lost {}",
            total.dropped, total.lost_in_crash
        ));
    }
    if total.downshifts + total.stalls + total.restarts != 0 {
        failures.push(format!(
            "closed loop disturbed the fleet: downshifts {} stalls {} restarts {}",
            total.downshifts, total.stalls, total.restarts
        ));
    }
    failures
}

/// Write the spans to `.perfbench/spans-<workload>-<seed>.tsv`.
fn write_spans(tracer: &Tracer, w: &Workload, seed: u64) -> Result<(), String> {
    let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-{seed}.tsv", w.name));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    tracer
        .write_tsv(std::io::BufWriter::new(file))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// The closed loop: offer the next burst only while the ring stays below
/// the supervisor's high-water mark after it, query every
/// `QUERY_EVERY` and scrape every `SCRAPE_EVERY`, all from this
/// one thread. With `--trace 1` spans are recorded on odd segments only.
fn drive(
    fleet: &mut Fleet,
    trace: &[FlowKey],
    n_total: u64,
    args: &Args,
    tracer: &mut Tracer,
    mut age: AgeTracker,
    first_at: u64,
) -> Load {
    let cap = fleet::ring_capacity();
    let room = (fleet::high_water() * cap as f64) as usize;
    let ns = |d: Duration| d.as_nanos() as u64;
    let query_every = ns(QUERY_EVERY);
    let deadline = Instant::now() + load_cap(args);
    let seg_size = (n_total / SEGMENTS / BURST as u64).max(1) * BURST as u64;

    // The set-up already offered the first burst.
    let mut offered = BURST as u64;
    age.offered(BURST as u64, first_at);
    let mut segment_span = 0;
    let mut next_query = first_at + query_every;
    let mut next_scrape = first_at + ns(SCRAPE_EVERY);
    let mut waiting_since: Option<u64> = None;
    let mut load = Load {
        segments: Segments::new(seg_size, first_at),
        age,
        view_ms: Vec::with_capacity(4096),
        queries: 0,
        failed_queries: 0,
        offered: 0,
        last_scrape: None,
    };
    while offered < n_total {
        let now = tracer.now_ns();
        if now >= next_query || now >= next_scrape {
            if let Some(since) = waiting_since.take() {
                tracer.record("pipeline.wait", since, now);
            }
            if now >= next_scrape {
                load.last_scrape = Some(scrape(fleet, tracer));
                while next_scrape <= tracer.now_ns() {
                    next_scrape += ns(SCRAPE_EVERY);
                }
            } else {
                load.queries += 1;
                match query(fleet, tracer, &mut load.age, offered) {
                    Ok(ms) => load.view_ms.push(ms),
                    Err(e) => {
                        load.failed_queries += 1;
                        if load.failed_queries <= 8 {
                            eprintln!("perfbench: query failed: {e}");
                        }
                    }
                }
                while next_query <= tracer.now_ns() {
                    next_query += query_every;
                }
            }
            continue;
        }
        let queued = (fleet.tap.max_occupancy() * cap as f64).round() as usize;
        if queued + BURST >= room {
            waiting_since.get_or_insert(now);
            // Poll sparingly: every read of the ring's indices pulls the
            // consumer's cache line away from it.
            for _ in 0..512 {
                std::hint::spin_loop();
            }
            continue;
        }
        if let Some(since) = waiting_since.take() {
            tracer.record("pipeline.wait", since, now);
        }
        if Instant::now() > deadline {
            eprintln!("perfbench: load cap reached after {offered} observations");
            break;
        }
        let pos = (offered as usize) % trace.len();
        fleet
            .tap
            .offer_batch(&trace[pos..pos + BURST], offered * TS_GAP_NS);
        offered += BURST as u64;
        load.age.offered(BURST as u64, now);
        if tracer.enabled() {
            let end = tracer.now_ns();
            tracer.record("pipeline.offer_batch", now, end);
        }
        if load.segments.boundary(offered, now) {
            tracer.exit_at(segment_span, now);
            tracer.set_enabled(args.trace && load.segments.secs.len() % 2 == 1);
            segment_span = tracer.enter_at("segment", now);
        }
    }
    let end = tracer.now_ns();
    if let Some(since) = waiting_since.take() {
        tracer.record("pipeline.wait", since, end);
    }
    tracer.exit_at(segment_span, end);
    tracer.set_enabled(args.trace);
    load.last_scrape = Some(scrape(fleet, tracer));
    load.offered = offered;
    load
}

/// One operator query: `epoch_view` plus `heavy_hitters`. Returns the
/// query latency in ms and ages the view at its return.
fn query(
    fleet: &mut Fleet,
    tracer: &mut Tracer,
    age: &mut AgeTracker,
    offered: u64,
) -> Result<f64, String> {
    let t0 = tracer.now_ns();
    let span = tracer.enter_at("query", t0);
    let result = query_inner(fleet, tracer, age, offered, t0);
    tracer.exit(span);
    result
}

fn query_inner(
    fleet: &mut Fleet,
    tracer: &mut Tracer,
    age: &mut AgeTracker,
    offered: u64,
    t0: u64,
) -> Result<f64, String> {
    let view = fleet
        .pipe
        .epoch_view()
        .map_err(|e| format!("epoch_view: {e}"))?;
    let t1 = tracer.now_ns();
    tracer.record("pipeline.epoch_view", t0, t1);
    if let Some(s) = view.staleness().iter().find(|s| !s.fresh || s.degraded) {
        return Err(format!("shard view not fresh: {s:?}"));
    }
    let processed_at: u64 = view.staleness().iter().map(|s| s.processed_at).sum();
    let hh = view.heavy_hitters(PHI * offered as f64);
    let t2 = tracer.now_ns();
    tracer.record("sketch.heavy_hitters", t1, t2);
    black_box(hh);
    age.view(processed_at, t2);
    Ok((t2 - t0) as f64 / 1e6)
}

/// Render both scrape formats and parse the JSON one back, as the console
/// does.
fn scrape(fleet: &Fleet, tracer: &mut Tracer) -> ScrapeSnapshot {
    let t0 = tracer.now_ns();
    let span = tracer.enter_at("scrape", t0);
    let prom = fleet.pipe.scrape();
    let t1 = tracer.now_ns();
    tracer.record("telemetry.render_prometheus", t0, t1);
    let json = fleet.pipe.scrape_json();
    let t2 = tracer.now_ns();
    tracer.record("telemetry.render_json", t1, t2);
    let snap = ScrapeSnapshot::parse(&json).expect("the fleet's own scrape parses");
    let t3 = tracer.now_ns();
    tracer.record("scrape.parse", t2, t3);
    tracer.exit_at(span, t3);
    black_box(prom.len());
    snap
}
