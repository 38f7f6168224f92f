//! The two workloads: their scenarios, one operation each, and the
//! output check every operation passes through.

use braidio_bench::analyze::{analyze, Analysis, AnalyzeOptions};
use braidio_bench::fleet::city_scenarios;
use braidio_net::{run_fleet, Arbitration, FleetReport, FleetScenario};
use braidio_telemetry::{self as telemetry, sink};
use braidio_units::Seconds;

/// Pairs in the city-block rung (`experiments fleet --city-block`).
const CITY_PAIRS: usize = 10_000;
/// The churn rung (`experiments fleet --churn`): 16 hubs beaconing for
/// 984 expected tag sessions over 60 s. The trace workload runs it.
const CHURN_HUBS: usize = 16;
const CHURN_SESSIONS: usize = 984;
const CHURN_HORIZON: Seconds = Seconds::new(60.0);
/// TDMA slot of the fleet experiment's round-robin policy.
const TDMA_SLOT: Seconds = Seconds::new(0.25);
/// The seed of the tracked churn rung; the default `--seed`.
pub const DEFAULT_SEED: u64 = 7;

/// Relative tolerance of the trace's energy ledger against the report.
const LEDGER_REL: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 10⁴-pair city block, uncoordinated and TDMA: large waves.
    City,
    /// The open-system churn population, TDMA and uncoordinated, serially
    /// with event capture, then the telemetry sink, validator and analyzer.
    Trace,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "city" => Some(Workload::City),
            "trace" => Some(Workload::Trace),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::City => "city",
            Workload::Trace => "trace",
        }
    }

    /// Worker threads of the timed operations, at most the host's cores.
    pub fn threads(self) -> usize {
        let want = match self {
            Workload::City => 2,
            Workload::Trace => 1,
        };
        want.min(crate::sys::nproc())
    }

    /// The scenario population whose reports the workload produces.
    pub fn population(self) -> &'static str {
        match self {
            Workload::City => "city",
            Workload::Trace => "churn",
        }
    }

    /// The seed column of `digests.txt`: the city block has no random draw,
    /// so its digests are pinned once, under `-`.
    pub fn seed_key(self, seed: u64) -> String {
        match self {
            Workload::City => "-".to_string(),
            Workload::Trace => seed.to_string(),
        }
    }

    /// The workload's scenarios. The city block has no random draw, so
    /// `seed` only shapes the churn population's arrival stream.
    pub fn scenarios(self, seed: u64) -> Vec<FleetScenario> {
        match self {
            Workload::City => city_scenarios(CITY_PAIRS)
                .into_iter()
                .map(|(_, sc)| sc)
                .collect(),
            Workload::Trace => [
                Arbitration::TdmaRoundRobin { slot: TDMA_SLOT },
                Arbitration::Uncoordinated,
            ]
            .into_iter()
            .map(|arb| {
                FleetScenario::open_system(CHURN_HUBS, CHURN_SESSIONS, CHURN_HORIZON, seed, arb)
            })
            .collect(),
        }
    }
}

/// Benchmark-owned span around one `run_fleet` call, by policy.
fn run_span(arb: Arbitration) -> &'static str {
    match arb {
        Arbitration::Uncoordinated => "bench.run_fleet.uncoordinated",
        Arbitration::TdmaRoundRobin { .. } => "bench.run_fleet.tdma",
        Arbitration::ChannelPlan { .. } => "bench.run_fleet.channel-plan",
    }
}

/// What the trace workload's post-processing produced.
pub struct TraceOutput {
    pub events: usize,
    pub jsonl: String,
    pub violations: Vec<String>,
    pub analysis: Result<Analysis, String>,
}

/// Everything one operation produced, kept for the output check.
pub struct Output {
    pub reports: Vec<FleetReport>,
    pub trace: Option<TraceOutput>,
}

/// Run each scenario through `run_fleet`, stamping scenario `i` as
/// telemetry run `i` so the trace can tell the runs apart.
pub fn run_reports(scenarios: &[FleetScenario]) -> Vec<FleetReport> {
    scenarios
        .iter()
        .enumerate()
        .map(|(i, sc)| {
            let _span = telemetry::span(run_span(sc.arbitration));
            telemetry::with_run(i as u32, || run_fleet(sc))
        })
        .collect()
}

/// One operation of workload `w` on the calling thread's pool settings.
pub fn operate(w: Workload, scenarios: &[FleetScenario]) -> Output {
    if w != Workload::Trace {
        return Output {
            reports: run_reports(scenarios),
            trace: None,
        };
    }
    telemetry::set_enabled(true);
    let reports = run_reports(scenarios);
    telemetry::set_enabled(false);
    let events = {
        let _span = telemetry::span("bench.take_events");
        telemetry::take_events()
    };
    let jsonl = {
        let _span = telemetry::span("bench.render_jsonl");
        sink::render_jsonl(&events)
    };
    let violations = {
        let _span = telemetry::span("bench.validate_jsonl");
        sink::validate_jsonl_full(&jsonl).violations
    };
    let analysis = {
        let _span = telemetry::span("bench.analyze");
        analyze(&jsonl, &AnalyzeOptions::default())
    };
    Output {
        reports,
        trace: Some(TraceOutput {
            events: events.len(),
            jsonl,
            violations,
            analysis,
        }),
    }
}

/// FNV-1a over a report's event and replan counts, its total bits and the
/// bits of every device's spent energy.
pub fn digest(r: &FleetReport) -> u64 {
    let mut words = vec![r.events, r.replans, r.total_bits().to_bits()];
    words.extend(r.device_spent.iter().map(|j| j.joules().to_bits()));
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The output check: each report's digest against `expected` (scenario
/// order), and for the trace workload a clean validator, a clean analyzer
/// and an energy ledger that reproduces every device's drain. Returns one
/// line per problem; empty means the operation passed.
pub fn check(out: &Output, expected: &[u64]) -> Vec<String> {
    let mut problems = Vec::new();
    let got: Vec<u64> = out.reports.iter().map(digest).collect();
    if got != expected {
        problems.push(format!(
            "report digests {} differ from expected {}",
            hex_list(&got),
            hex_list(expected)
        ));
    }
    let Some(trace) = &out.trace else {
        return problems;
    };
    problems.extend(trace.violations.iter().map(|v| format!("validator: {v}")));
    match &trace.analysis {
        Ok(a) => problems.extend(a.anomalies.iter().map(|v| format!("analyzer: {v}"))),
        Err(e) => problems.push(format!("analyzer failed: {e}")),
    }
    let ledger = sink::fold_energy_jsonl(&trace.jsonl);
    for (run, r) in out.reports.iter().enumerate() {
        for (d, spent) in r.device_spent.iter().enumerate() {
            let folded = ledger
                .get(&(run as u32, format!("d{d}")))
                .map_or(0.0, |&(plain, _)| plain);
            let err = (folded - spent.joules()).abs() / spent.joules().abs().max(1e-30);
            if err > LEDGER_REL {
                problems.push(format!(
                    "ledger: run {run} device {d} folds {folded} J, report spent {} J",
                    spent.joules()
                ));
            }
        }
    }
    problems
}

pub fn hex_list(ds: &[u64]) -> String {
    let items: Vec<String> = ds.iter().map(|d| format!("{d:016x}")).collect();
    items.join(",")
}

/// Digests pinned in `digests.txt`, one line per
/// `population seed policy digest`.
const PINNED: &str = include_str!("../digests.txt");

/// The pinned digests of `w`'s population at `seed` for the scenarios
/// with the given policy labels, in that order, if that seed was pinned.
pub fn pinned(w: Workload, seed: u64, policies: &[&str]) -> Option<Vec<u64>> {
    let seed = w.seed_key(seed);
    policies
        .iter()
        .map(|&policy| {
            let line = PINNED
                .lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split_whitespace().collect::<Vec<_>>())
                .find(|f| f.len() == 4 && f[..3] == [w.population(), &seed, policy])?;
            Some(u64::from_str_radix(line[3], 16).expect("digests.txt holds hex digests"))
        })
        .collect()
}
