//! The SoA-vs-baseline equivalence gate.
//!
//! `braidio_net::baseline` is a frozen copy of the pre-refactor scalar
//! fleet engine (per-entity structs, lazy per-victim interference, no
//! batched planning waves), kept as an executable oracle. These tests run
//! grid, star, death-cascade, and mobility scenarios through both engines
//! and require byte-for-byte equality of everything observable: the
//! [`FleetReport`], the rendered JSONL event trace, and the per-device
//! energy ledgers folded from that trace. Any divergence — a reordered
//! floating-point sum, a memoized value that isn't a pure function of its
//! quantized key, a missed cache invalidation — fails loudly here.

use braidio_net::baseline::run_fleet_baseline;
use braidio_net::{run_fleet, Arbitration, FleetReport, FleetScenario};
use braidio_telemetry as telemetry;
use braidio_units::{Meters, Seconds};

const SLOT: Seconds = Seconds::new(0.25);

fn scenarios() -> Vec<(String, FleetScenario)> {
    let mut out = Vec::new();
    let policies = [
        Arbitration::Uncoordinated,
        Arbitration::ChannelPlan { channels: 2 },
        Arbitration::TdmaRoundRobin { slot: SLOT },
    ];
    // The acceptance grids: 32 and 64 pairs under every policy, cull on
    // (the shipped `--scale` configuration).
    for m in [32usize, 64] {
        for arb in policies {
            out.push((
                format!("grid-{m}-{}", arb.label()),
                FleetScenario::grid_pairs(m, Meters::new(0.5), Meters::new(3.0), 1.0, 1.0, arb)
                    .with_horizon(Seconds::new(15.0))
                    .with_far_field_cull(),
            ));
        }
    }
    // Stars: TDMA coasts, uncoordinated kills sessions — the death path
    // (liveness flips re-dirtying every sum, quantum aborts) in both
    // engines.
    for arb in [
        Arbitration::TdmaRoundRobin { slot: SLOT },
        Arbitration::Uncoordinated,
    ] {
        out.push((
            format!("star-8-{}", arb.label()),
            FleetScenario::star(8, Meters::new(0.5), 99.5, 0.001, arb)
                .with_horizon(Seconds::new(120.0)),
        ));
    }
    // Mobility: a walking pair invalidates the interference field mid-run,
    // exercising the wave sweep's re-dirty / lazy-fallback interplay.
    {
        use braidio_mac::mobility::LinearWalk;
        let mut sc = FleetScenario::independent_pairs(
            4,
            Meters::new(0.5),
            Meters::new(3.0),
            1.0,
            1.0,
            Arbitration::Uncoordinated,
        )
        .with_horizon(Seconds::new(30.0));
        sc.replan_interval = Seconds::new(1.0);
        sc.pairs[1].walk = Some(LinearWalk {
            start: Meters::new(0.5),
            end: Meters::new(4.0),
            duration: Seconds::new(20.0),
        });
        out.push(("mobile-4-uncoordinated".into(), sc));
    }
    out
}

/// Every field of the two reports, bit-for-bit.
fn assert_reports_bitwise(a: &FleetReport, b: &FleetReport, what: &str) {
    assert_eq!(a.events, b.events, "{what}: event counts");
    assert_eq!(a.replans, b.replans, "{what}: replan counts");
    assert_eq!(
        a.end_time.seconds().to_bits(),
        b.end_time.seconds().to_bits(),
        "{what}: end time"
    );
    assert_eq!(a.pair_bits.len(), b.pair_bits.len(), "{what}: pair count");
    for (p, (x, y)) in a.pair_bits.iter().zip(&b.pair_bits).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: pair {p} bits");
    }
    for (p, (x, y)) in a.pair_mode_bits.iter().zip(&b.pair_mode_bits).enumerate() {
        for ((ma, va), (mb, vb)) in x.iter().zip(y) {
            assert_eq!(ma, mb, "{what}: pair {p} mode order");
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}: pair {p} {ma:?} bits");
        }
    }
    for (p, (x, y)) in a.pair_dead_at.iter().zip(&b.pair_dead_at).enumerate() {
        assert_eq!(
            x.map(|t| t.seconds().to_bits()),
            y.map(|t| t.seconds().to_bits()),
            "{what}: pair {p} death time"
        );
    }
    for (d, (x, y)) in a.device_spent.iter().zip(&b.device_spent).enumerate() {
        assert_eq!(
            x.joules().to_bits(),
            y.joules().to_bits(),
            "{what}: device {d} energy"
        );
    }
    for (d, (x, y)) in a.device_dead_at.iter().zip(&b.device_dead_at).enumerate() {
        assert_eq!(
            x.map(|t| t.seconds().to_bits()),
            y.map(|t| t.seconds().to_bits()),
            "{what}: device {d} death time"
        );
    }
    for (d, (x, y)) in a
        .device_carrier_time
        .iter()
        .zip(&b.device_carrier_time)
        .enumerate()
    {
        assert_eq!(
            x.seconds().to_bits(),
            y.seconds().to_bits(),
            "{what}: device {d} carrier time"
        );
    }
}

/// Per-device energy ledger: `((run, device), joules-as-bits)`, sorted.
type EnergyLedger = Vec<((u32, u32), u64)>;

/// Run one engine with event capture on, returning the report, the
/// rendered JSONL trace, and the folded per-device energy ledger.
fn traced<F: FnOnce(&FleetScenario) -> FleetReport>(
    sc: &FleetScenario,
    engine: F,
) -> (FleetReport, String, EnergyLedger) {
    telemetry::set_enabled(true);
    let _ = telemetry::take_events();
    let report = telemetry::with_run(0, || engine(sc));
    let events = telemetry::take_events();
    telemetry::set_enabled(false);
    let jsonl = telemetry::sink::render_jsonl(&events);
    let mut ledger: Vec<((u32, u32), u64)> = telemetry::sink::fold_energy(&events)
        .into_iter()
        .filter_map(|((run, track), j)| match track {
            telemetry::Track::Device(d) => Some(((run, d), j.to_bits())),
            _ => None,
        })
        .collect();
    ledger.sort_unstable();
    (report, jsonl, ledger)
}

#[test]
fn soa_engine_is_byte_identical_to_the_frozen_baseline() {
    for (what, sc) in scenarios() {
        let (a, jsonl_a, ledger_a) = traced(&sc, run_fleet);
        let (b, jsonl_b, ledger_b) = traced(&sc, run_fleet_baseline);
        assert_reports_bitwise(&a, &b, &what);
        assert_eq!(jsonl_a, jsonl_b, "{what}: JSONL trace diverged");
        assert!(!ledger_a.is_empty(), "{what}: empty energy ledger");
        assert_eq!(ledger_a, ledger_b, "{what}: energy ledgers diverged");
    }
}
