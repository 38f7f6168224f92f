//! The fleet engine rebuilds interference sums in bulk exactly once, before
//! its first event.
//!
//! At t = 0 every sum is cold and every pair is about to plan, so one
//! pool-parallel wave rebuilds the sums of the pairs on air. After that a
//! sum dirtied by a liveness flip, a death or a move is read only by the
//! next plan of its own pair, so it is rebuilt on demand for that pair
//! alone. These tests pin the rule: a closed grid's first time-series row,
//! taken before any event runs, already sees a clean cache; every policy
//! opens exactly one `net.wave`; a closed grid batches all n(n−1) edges of
//! every overlapping policy into that wave; and an open system rebuilds no
//! more edges afterwards than its lookups can ask for.
//!
//! The capture switches are process-wide, so the tests in this file take
//! one lock and run the engine on a single worker thread.

use braidio_net::{run_fleet, run_fleet_sampled, Arbitration, FleetReport, FleetScenario};
use braidio_telemetry as telemetry;
use braidio_units::{Meters, Seconds};
use std::sync::Mutex;

static CAPTURE: Mutex<()> = Mutex::new(());

/// What one traced run did to the interference cache.
struct Tally {
    report: FleetReport,
    waves: usize,
    /// Edges recomputed anywhere (`net.interference.edge_recompute`).
    edges: u64,
    /// The share of `edges` recomputed inside a bulk wave.
    wave_edges: u64,
    /// `PairGainCache::interference` calls, clean or dirty, plus the
    /// victims of the bulk wave.
    lookups: u64,
}

fn counter(snapshot: &[(String, u64)], name: &str) -> u64 {
    snapshot
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

fn traced(sc: &FleetScenario) -> Tally {
    braidio_pool::with_threads(1, || {
        let before = telemetry::counters_snapshot();
        telemetry::set_profiling(true);
        let _ = telemetry::take_spans();
        let report = run_fleet(sc);
        telemetry::set_profiling(false);
        let spans = telemetry::take_spans();
        let after = telemetry::counters_snapshot();
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        Tally {
            report,
            waves: spans.iter().filter(|s| s.name == "net.wave").count(),
            edges: delta("net.interference.edge_recompute"),
            wave_edges: delta("net.interference.wave_edge_recompute"),
            lookups: delta("net.interference.sum_reuse") + delta("net.interference.sum_rebuild"),
        }
    })
}

#[test]
fn open_system_rebuilds_only_what_plans_read() {
    let _lock = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    let sc = FleetScenario::open_system(4, 60, Seconds::new(20.0), 7, Arbitration::Uncoordinated);
    let rows = sc.pairs.len() as u64;
    let t = traced(&sc);
    assert!(t.report.replans > 0, "no plans — vacuous run");
    assert_eq!(t.waves, 1, "only the bring-up wave may run");
    assert_eq!(t.wave_edges, 0, "nobody is on air before the first event");
    let lazy = t.edges - t.wave_edges;
    assert!(lazy > 0, "churn dirtied no sum — vacuous run");
    assert!(
        lazy <= t.lookups * rows,
        "{lazy} edges rebuilt after bring-up for {} lookups of {rows} rows",
        t.lookups
    );
}

#[test]
fn closed_grid_batches_bring_up() {
    let _lock = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    let n = 12u64;
    for arb in [
        Arbitration::Uncoordinated,
        Arbitration::ChannelPlan { channels: 2 },
        Arbitration::TdmaRoundRobin {
            slot: Seconds::new(0.25),
        },
    ] {
        let t = traced(&grid(n as usize, arb));
        let want = if arb.carriers_overlap() {
            n * (n - 1)
        } else {
            0
        };
        assert_eq!(t.waves, 1, "{}", arb.label());
        assert_eq!(t.edges, want, "{}: edges", arb.label());
        assert_eq!(t.wave_edges, want, "{}: wave edges", arb.label());
    }
}

fn grid(n: usize, arb: Arbitration) -> FleetScenario {
    FleetScenario::grid_pairs(n, Meters::new(0.5), Meters::new(3.0), 1.0, 1.0, arb)
        .with_horizon(Seconds::new(6.0))
}

#[test]
fn bring_up_wave_runs_before_the_first_event() {
    let _lock = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    let sc = grid(12, Arbitration::Uncoordinated);
    let (_, series) = braidio_pool::with_threads(1, || run_fleet_sampled(&sc, Seconds::new(0.5)));
    let row0 = &series.samples[0];
    assert_eq!(row0.t, 0.0);
    assert_eq!(
        row0.events.iter().sum::<u32>(),
        0,
        "row 0 precedes every event"
    );
    assert_eq!(
        row0.cache_ndirty, 0,
        "every sum is built before the first event"
    );
}
