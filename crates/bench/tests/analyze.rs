//! Offline trace analyzer: golden fixture + the clean-engine-trace
//! property.
//!
//! The golden test pins the full human-readable report for a hand-written
//! schema-1 trace whose every number is computed on paper in the comments,
//! so a formatting or accounting regression shows up as a one-line diff.
//! The property test closes the loop with the engine: any valid
//! open-system trace analyzes with ZERO anomalies, and every session's
//! per-phase dwells sum exactly to its observed lifetime — the invariant
//! the CI gate (`grep '^anomalies: 0'`) relies on.

use braidio_bench::analyze::{analyze, render_json, render_text, AnalyzeOptions};
use braidio_net::{run_fleet, Arbitration, FleetScenario};
use braidio_telemetry as telemetry;
use braidio_units::Seconds;
use proptest::prelude::*;

/// One session (p0) admitted at t=0.5 after 0.5 s of discovery (arrival
/// t=0), probed, warmed, delivered once in `live`, and died of battery at
/// t=6. Two devices spend energy. By hand:
///
/// * dwells — init 0.5 (arrival→first hop), probe 1.0 (0.5→1.5),
///   warm 0.5 (1.5→2), live 4.0 (2→6), dead 0 (dies at trace end);
/// * time-to-first-delivery — 2.5 (delivery t=2.5 − arrival t=0);
/// * energy — d0: 0.25 + 0.125 = 0.375 J, d1: 0.125 J (binary-exact, so
///   the compensated fold agrees and drift is 0);
/// * anomalies — none at the default 30 s threshold; at `--stuck-s 0.75`
///   exactly one: the closed 1 s probe dwell.
const FIXTURE: &str = concat!(
    "{\"schema\":1,\"stream\":\"braidio-telemetry\",\"time\":\"simulated-seconds\"}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":0.5,\"ev\":\"admitted\",\"latency\":0.5}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":0.5,\"ev\":\"phase_change\",\"from\":\"init\",\"to\":\"probe\"}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":1.5,\"ev\":\"phase_change\",\"from\":\"probe\",\"to\":\"warm\"}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":2,\"ev\":\"phase_change\",\"from\":\"warm\",\"to\":\"live\"}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":2,\"ev\":\"carrier_grant\"}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":2.5,\"ev\":\"quantum_delivered\",\"mode\":\"am\",\"rate\":\"active\",\"bits\":1000}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"d0\",\"t\":2.5,\"ev\":\"energy_debit\",\"joules\":0.25}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"d1\",\"t\":2.5,\"ev\":\"energy_debit\",\"joules\":0.125}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":3,\"ev\":\"carrier_release\"}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":6,\"ev\":\"phase_change\",\"from\":\"live\",\"to\":\"dead\"}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":6,\"ev\":\"session_dead\",\"reason\":\"battery\"}\n",
    "{\"run\":0,\"unit\":0,\"track\":\"d0\",\"t\":6,\"ev\":\"energy_debit\",\"joules\":0.125}\n",
);

#[test]
fn golden_fixture_report() {
    let a = analyze(FIXTURE, &AnalyzeOptions::default()).expect("fixture is a valid trace");
    let expected = "\
trace: 12 events, 3 tracks, end t=6
sessions: 1 (admitted 1; deaths: battery 1)
dwell per phase (s), 1 lifecycled sessions:
  init      n=1 p50=0.5 p95=0.5 max=0.5
  probe     n=1 p50=1 p95=1 max=1
  warm      n=1 p50=0.5 p95=0.5 max=0.5
  live      n=1 p50=4 p95=4 max=4
  degrade   n=1 p50=0 p95=0 max=0
  cooldown  n=1 p50=0 p95=0 max=0
  dead      n=1 p50=0 p95=0 max=0
time-to-first-delivery (s): n=1 p50=2.5 p95=2.5 max=2.5
energy waterfall (top 2 of 2 devices, 0.5 J total):
  run 0 d0     0.375 J
  run 0 d1     0.125 J
anomalies: 0
";
    assert_eq!(render_text(&a), expected);

    // The machine report carries the same numbers.
    let json = render_json(&a);
    assert!(json.contains("\"events\":12"), "json: {json}");
    assert!(json.contains("\"anomalies\":[]"), "json: {json}");
    assert!(
        json.contains("{\"run\":0,\"track\":\"d0\",\"joules\":0.375,\"drift\":0}"),
        "json: {json}"
    );
}

#[test]
fn stuck_threshold_flags_the_long_probe() {
    let a = analyze(FIXTURE, &AnalyzeOptions { stuck_s: 0.75 }).expect("fixture is valid");
    assert_eq!(
        a.anomalies,
        vec!["session (0,0,p0) stuck 1s in \"probe\" (threshold 0.75s)".to_string()]
    );
    assert!(render_text(&a)
        .ends_with("anomalies: 1\n  - session (0,0,p0) stuck 1s in \"probe\" (threshold 0.75s)\n"));
}

/// A three-line trace whose second phase change carries `t` (and whose
/// admission carries `latency`) verbatim.
fn damaged(t: &str, latency: &str) -> String {
    format!(
        "{{\"schema\":1,\"stream\":\"braidio-telemetry\",\"time\":\"simulated-seconds\"}}\n\
         {{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":0.5,\"ev\":\"admitted\",\"latency\":{latency}}}\n\
         {{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":0.5,\"ev\":\"phase_change\",\"from\":\"init\",\"to\":\"probe\"}}\n\
         {{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":{t},\"ev\":\"phase_change\",\"from\":\"probe\",\"to\":\"warm\"}}\n"
    )
}

#[test]
fn bad_timestamps_are_anomalies_not_panics() {
    // An infinite time once reached the dwell histograms and aborted the
    // analyzer; every value the validator rejects must come back as an
    // anomaly instead.
    for t in ["inf", "1e999", "NaN", "-1"] {
        let a = analyze(&damaged(t, "0.5"), &AnalyzeOptions::default())
            .unwrap_or_else(|e| panic!("t={t}: {e}"));
        assert_eq!(
            a.anomalies,
            vec!["line 4: missing/bad \"t\"".to_string()],
            "t={t}"
        );
        assert_eq!(a.trace_end, 0.5, "t={t}");
    }
}

#[test]
fn bad_latency_is_an_anomaly_not_a_panic() {
    for latency in ["inf", "1e999", "NaN", "-1"] {
        let a = analyze(&damaged("1.5", latency), &AnalyzeOptions::default())
            .unwrap_or_else(|e| panic!("latency={latency}: {e}"));
        assert_eq!(
            a.anomalies,
            vec!["line 2: missing/bad \"latency\"".to_string()],
            "latency={latency}"
        );
    }
}

/// A random small open system, mirroring the churn determinism suite.
fn arb_open_system() -> impl Strategy<Value = FleetScenario> {
    (1usize..=3, 4usize..=24, 0u32..3, any::<u64>()).prop_map(|(hubs, sessions, arb_sel, seed)| {
        let arb = match arb_sel {
            0 => Arbitration::Uncoordinated,
            1 => Arbitration::ChannelPlan { channels: 2 },
            _ => Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
        };
        FleetScenario::open_system(hubs, sessions, Seconds::new(20.0), seed, arb)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Analyzing a trace the engine actually produced yields no anomaly
    /// flags, and every lifecycled session's dwells sum to its observed
    /// lifetime (`end − start`) — the accounting never loses time.
    #[test]
    fn engine_traces_analyze_clean(sc in arb_open_system()) {
        telemetry::set_enabled(true);
        let _ = telemetry::take_events();
        let _ = telemetry::with_run(0, || run_fleet(&sc));
        let events = telemetry::take_events();
        telemetry::set_enabled(false);
        let jsonl = telemetry::sink::render_jsonl(&events);

        let a = analyze(&jsonl, &AnalyzeOptions::default())
            .map_err(|e| TestCaseError::fail(format!("analyze failed: {e}")))?;
        prop_assert!(
            a.anomalies.is_empty(),
            "engine trace flagged: {:?}",
            a.anomalies
        );
        prop_assert!(a.events > 0, "trace carried no events");
        let mut lifecycled = 0usize;
        for s in &a.sessions {
            if !s.has_phases {
                continue;
            }
            lifecycled += 1;
            let total: f64 = s.dwell.iter().sum();
            let lifetime = s.end - s.start;
            prop_assert!(
                (total - lifetime).abs() <= 1e-9 * lifetime.max(1.0),
                "session ({},{},{}) dwells sum to {total}, lifetime {lifetime}",
                s.run, s.unit, s.track
            );
        }
        prop_assert!(lifecycled > 0, "no lifecycled sessions to check");
    }
}
