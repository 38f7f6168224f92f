//! Per-layer metrics of one traced operation, read from the spans and
//! counters the operation left on the telemetry bus.

use crate::ops::Output;
use braidio_telemetry::{Batch, SpanRecord};
use std::collections::BTreeMap;

/// A metric name with its unit.
pub type Metric = (&'static str, &'static str);

/// Every per-layer metric, in report order. Each workload reports all of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 36] = [
    ("radio.characterization_s", "s"),
    ("net.scenario.build_s", "s"),
    ("net.engine.run_s.uncoordinated", "s"),
    ("net.engine.run_s.tdma", "s"),
    ("net.engine.events", "count"),
    ("net.engine.replans", "count"),
    ("net.engine.us_per_event", "us"),
    ("net.engine.wave.count", "count"),
    ("net.engine.wave_s", "s"),
    ("net.engine.replan_self_s", "s"),
    ("net.engine.loop_s", "s"),
    ("net.cache.edges", "count"),
    ("net.cache.edges_per_s", "1/s"),
    ("net.cache.reuse_ratio", "ratio"),
    ("net.cache.sum_lookups", "count"),
    ("rfsim.fspl.hit_ratio", "ratio"),
    ("rfsim.fspl.lookups", "count"),
    ("net.interference.kernel_ns_per_edge", "ns"),
    ("net.interference.options_batch_hit_ratio", "ratio"),
    ("net.interference.options_memo_hit_ratio", "ratio"),
    ("net.interference.options_us_per_item", "us"),
    ("mac.offload.memo_hit_ratio", "ratio"),
    ("mac.offload.memo_lookups", "count"),
    ("mac.offload.us_per_solve", "us"),
    ("net.kernel.delivered", "count"),
    ("net.arbitration.deferred", "count"),
    ("pool.chunks", "count"),
    ("pool.busy_s", "s"),
    ("pool.utilization", "ratio"),
    ("telemetry.bus.events", "count"),
    ("telemetry.sink.render_s", "s"),
    ("telemetry.sink.jsonl_mib", "MiB"),
    ("telemetry.sink.validate_s", "s"),
    ("bench.analyze_s", "s"),
    ("telemetry.span.overhead_ratio", "ratio"),
    ("bench.replay.edges", "count"),
];

/// Total seconds and count of the spans named `name`.
pub fn span_total(spans: &[SpanRecord], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, k), s| (t + s.dur_us * 1e-6, k + 1))
}

/// `num / (num + other)`, 0 when both are 0.
fn ratio(num: u64, other: u64) -> f64 {
    if num + other == 0 {
        0.0
    } else {
        num as f64 / (num + other) as f64
    }
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The engine, cache, options, offload, kernel, pool and telemetry
/// metrics of one traced operation on `threads` pool threads.
pub fn operation_layers(
    batch: &Batch,
    out: &Output,
    threads: usize,
) -> BTreeMap<&'static str, f64> {
    let spans = &batch.spans;
    let counter = |name: &str| {
        batch
            .counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    };
    let secs = |name: &str| span_total(spans, name).0;
    let mut m = BTreeMap::new();

    let run_unc = secs("bench.run_fleet.uncoordinated");
    let run_tdma = secs("bench.run_fleet.tdma");
    let run_s = run_unc + run_tdma;
    let events: u64 = out.reports.iter().map(|r| r.events).sum();
    let (wave_s, waves) = span_total(spans, "net.wave");
    // A replan's self time excludes the waves it opened.
    let nested_wave_s: f64 = spans
        .iter()
        .filter(|s| s.name == "net.wave" && s.depth >= 2)
        .filter(|s| s.path[s.depth as usize - 2] == "net.replan")
        .map(|s| s.dur_us * 1e-6)
        .sum();
    let replan_self_s = secs("net.replan") - nested_wave_s;
    m.insert("net.engine.run_s.uncoordinated", run_unc);
    m.insert("net.engine.run_s.tdma", run_tdma);
    m.insert("net.engine.events", events as f64);
    m.insert(
        "net.engine.replans",
        out.reports.iter().map(|r| r.replans).sum::<u64>() as f64,
    );
    m.insert("net.engine.us_per_event", per(run_s * 1e6, events as f64));
    m.insert("net.engine.wave.count", waves as f64);
    m.insert("net.engine.wave_s", wave_s);
    m.insert("net.engine.replan_self_s", replan_self_s);
    m.insert("net.engine.loop_s", run_s - wave_s - replan_self_s);

    let edges = counter("net.interference.edge_recompute");
    let (reuse, rebuild) = (
        counter("net.interference.sum_reuse"),
        counter("net.interference.sum_rebuild"),
    );
    m.insert("net.cache.edges", edges as f64);
    m.insert("net.cache.edges_per_s", per(edges as f64, wave_s));
    m.insert("net.cache.reuse_ratio", ratio(reuse, rebuild));
    m.insert("net.cache.sum_lookups", (reuse + rebuild) as f64);
    let (fspl_hit, fspl_miss) = (counter("net.fspl.hit"), counter("net.fspl.miss"));
    m.insert("rfsim.fspl.hit_ratio", ratio(fspl_hit, fspl_miss));
    m.insert("rfsim.fspl.lookups", (fspl_hit + fspl_miss) as f64);
    m.insert(
        "net.interference.options_batch_hit_ratio",
        ratio(
            counter("net.options.batch_hit"),
            counter("net.options.batch_miss"),
        ),
    );
    m.insert(
        "net.interference.options_memo_hit_ratio",
        ratio(
            counter("net.options.memo_hit"),
            counter("net.options.memo_miss"),
        ),
    );
    let (solve_hit, solve_miss) = (
        counter("mac.offload.memo_hit"),
        counter("mac.offload.memo_miss"),
    );
    m.insert("mac.offload.memo_hit_ratio", ratio(solve_hit, solve_miss));
    m.insert("mac.offload.memo_lookups", (solve_hit + solve_miss) as f64);
    m.insert(
        "net.kernel.delivered",
        counter("net.kernel.delivered") as f64,
    );
    m.insert(
        "net.arbitration.deferred",
        counter("net.arbitration.deferred") as f64,
    );

    let (busy_s, chunks) = span_total(spans, "pool.chunk");
    m.insert("pool.chunks", chunks as f64);
    m.insert("pool.busy_s", busy_s);
    m.insert("pool.utilization", per(busy_s, threads as f64 * wave_s));

    let (bus_events, jsonl_mib) = out.trace.as_ref().map_or((0.0, 0.0), |t| {
        (t.events as f64, t.jsonl.len() as f64 / (1024.0 * 1024.0))
    });
    m.insert("telemetry.bus.events", bus_events);
    m.insert("telemetry.sink.render_s", secs("bench.render_jsonl"));
    m.insert("telemetry.sink.jsonl_mib", jsonl_mib);
    m.insert("telemetry.sink.validate_s", secs("bench.validate_jsonl"));
    m.insert("bench.analyze_s", secs("bench.analyze"));
    m
}
