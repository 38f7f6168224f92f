//! Offline trace analyzer: reconstruct per-session causal timelines from
//! a schema-1 telemetry JSONL trace (`experiments analyze <trace.jsonl>`).
//!
//! The event trace answers "what happened"; this module answers "was it
//! healthy, and where did the time and energy go" without re-running the
//! simulation. It reuses the sink's parser and validator
//! ([`sink::parse_field`], [`sink::validate_jsonl_full`])
//! so the analyzer and the CI gate can never disagree about what a line
//! means, then folds the stream into:
//!
//! * **per-phase dwell histograms** — for every session with a lifecycle
//!   chain, how long it sat in each phase (the final open interval runs
//!   to the unit's trace end, so a session's dwells always sum to its
//!   observed lifetime);
//! * **time-to-first-delivery** — first `quantum_delivered` minus the
//!   session's arrival (`admitted.t − latency` when admitted, else its
//!   first event);
//! * **per-device energy waterfalls** — `energy_debit` folded per device
//!   ([`sink::fold_energy_jsonl`]), largest spenders first;
//! * **anomaly flags** — every validator violation, sessions stuck longer
//!   than a threshold in a *transitional* phase (init/probe/cooldown;
//!   `live`, `degrade`, `dead` and `warm` are legitimate steady states),
//!   carrier grant/release imbalances, and ledger drift (plain vs
//!   compensated energy fold disagreeing beyond 1e-9 relative).
//!
//! Everything is a pure function of the trace bytes, so the report is as
//! deterministic as the trace — byte-identical across `--jobs` for engine
//! traces.

use crate::metrics::Histogram;
use braidio_telemetry::sink;
use braidio_telemetry::timeseries::{SAMPLE_PHASES, SAMPLE_PHASE_NAMES};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Relative disagreement between the plain and compensated energy folds
/// beyond which a device's ledger is flagged as drifted.
pub const LEDGER_DRIFT_REL: f64 = 1e-9;

/// Phases a session may only pass *through*: sitting in one longer than
/// the stuck threshold is flagged. `live`/`degrade` are productive steady
/// states, `dead` is terminal, and `warm` can legitimately last a whole
/// horizon (warm-up quanta move real bits, and under a fleet-deep TDMA
/// token sessions provably age out in Warm — see EXPERIMENTS.md's churn
/// rung), so only the genuinely bounded phases are checked: `init`
/// (pre-admission), `probe` (a few probe quanta) and `cooldown` (a fixed
/// back-off timer).
const TRANSITIONAL: [&str; 3] = ["init", "probe", "cooldown"];

/// Analyzer knobs.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOptions {
    /// A *closed* interval in a transitional phase longer than this many
    /// simulated seconds flags the session as stuck (the final open
    /// interval is exempt — truncation at the horizon is not stuckness).
    pub stuck_s: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions { stuck_s: 30.0 }
    }
}

/// One reconstructed session (a `p<N>` track).
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// Identity triple of the session's pair track.
    pub run: u32,
    /// Unit within the run.
    pub unit: u32,
    /// Track code (`p<N>`).
    pub track: String,
    /// Session start: `admitted.t − latency` when admitted, else the
    /// session's first event.
    pub start: f64,
    /// End of the session's unit (max event time in the unit) — the final
    /// open phase interval extends here.
    pub end: f64,
    /// Seconds spent per phase, [`SAMPLE_PHASE_NAMES`] order; all zeros
    /// for sessions without a lifecycle chain (closed scenarios).
    pub dwell: [f64; SAMPLE_PHASES],
    /// Whether the session declared lifecycle phases.
    pub has_phases: bool,
    /// First `quantum_delivered` minus `start`, if it ever delivered.
    pub ttfd: Option<f64>,
    /// `session_dead` reason code, if the session ended.
    pub death: Option<String>,
}

/// The full analysis of one trace.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Event lines parsed (the validator's count).
    pub events: usize,
    /// Distinct identities seen.
    pub tracks: usize,
    /// Latest event time in the trace.
    pub trace_end: f64,
    /// Reconstructed sessions in identity order.
    pub sessions: Vec<SessionSummary>,
    /// Sessions that were admitted.
    pub admitted: usize,
    /// `session_dead` counts by reason code, sorted by code.
    pub deaths: BTreeMap<String, usize>,
    /// Dwell histograms per phase, [`SAMPLE_PHASE_NAMES`] order.
    pub dwell: [Histogram; SAMPLE_PHASES],
    /// Time-to-first-delivery histogram across sessions.
    pub ttfd: Histogram,
    /// Per-device energy: `(run, track, plain joules, |plain − kahan|
    /// relative drift)`, identity order.
    pub energy: Vec<(u32, String, f64, f64)>,
    /// Every anomaly flag, validator violations first.
    pub anomalies: Vec<String>,
}

/// Running per-session state while scanning the stream.
#[derive(Default)]
struct SessionState {
    first_t: Option<f64>,
    admitted_at: Option<f64>,
    latency: Option<f64>,
    phase: Option<String>,
    phase_since: Option<f64>,
    dwell: [f64; SAMPLE_PHASES],
    first_delivery: Option<f64>,
    death: Option<String>,
    grants: u64,
    releases: u64,
}

fn phase_index(code: &str) -> Option<usize> {
    SAMPLE_PHASE_NAMES.iter().position(|&p| p == code)
}

/// Analyze a schema-1 JSONL trace. `Err` only when the trace is not
/// analyzable at all (empty or wrong stream header); line-level violations
/// become anomaly flags instead, so a damaged trace still yields a report.
pub fn analyze(jsonl: &str, opts: &AnalyzeOptions) -> Result<Analysis, String> {
    let report = sink::validate_jsonl_full(jsonl);
    if report.summary.events == 0 && !report.violations.is_empty() {
        // Nothing parsed: empty trace or a foreign/bad header.
        if report.violations[0] == "empty trace" || report.violations[0].starts_with("bad header") {
            return Err(report.violations[0].clone());
        }
    }
    let mut anomalies = report.violations.clone();

    // Pass 1: per-unit trace end (the close-out instant for open phase
    // intervals) and the global end.
    let mut unit_end: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut trace_end = 0.0f64;
    let parsed_line = |line: &str| -> Option<(u32, u32, String, f64, String)> {
        let run: u32 = sink::parse_field(line, "run")?.parse().ok()?;
        let unit: u32 = sink::parse_field(line, "unit")?.parse().ok()?;
        let track = sink::parse_field(line, "track")?.to_string();
        let t = sink::parse_seconds(line, "t")?;
        let ev = sink::parse_field(line, "ev")?.to_string();
        Some((run, unit, track, t, ev))
    };
    for line in jsonl.lines().skip(1) {
        if let Some((run, unit, _, t, _)) = parsed_line(line) {
            let e = unit_end.entry((run, unit)).or_insert(0.0);
            *e = e.max(t);
            trace_end = trace_end.max(t);
        }
    }

    // Pass 2: fold per-session state in stream order.
    let mut state: BTreeMap<(u32, u32, String), SessionState> = BTreeMap::new();
    for line in jsonl.lines().skip(1) {
        let Some((run, unit, track, t, ev)) = parsed_line(line) else {
            continue; // already flagged by the validator
        };
        if !track.starts_with('p') {
            continue;
        }
        let s = state.entry((run, unit, track)).or_default();
        s.first_t.get_or_insert(t);
        match ev.as_str() {
            // A roaming session may be re-admitted at another hub; its
            // arrival is the *first* admission minus its latency.
            "admitted" if s.admitted_at.is_none() => {
                s.admitted_at = Some(t);
                s.latency = sink::parse_seconds(line, "latency");
            }
            "phase_change" => {
                let (from, to) = (
                    sink::parse_field(line, "from")
                        .unwrap_or("init")
                        .to_string(),
                    sink::parse_field(line, "to").unwrap_or("init").to_string(),
                );
                // Close the interval being left. A chain's first change
                // anchors at the session start (set below once known), so
                // phase_since falls back to this event's own time there.
                let since = s.phase_since.unwrap_or(t);
                if let Some(i) = phase_index(&from) {
                    s.dwell[i] += t - since;
                }
                s.phase = Some(to);
                s.phase_since = Some(t);
            }
            "quantum_delivered" => {
                s.first_delivery.get_or_insert(t);
            }
            "session_dead" => {
                s.death = sink::parse_field(line, "reason").map(str::to_string);
            }
            "carrier_grant" => s.grants += 1,
            "carrier_release" => s.releases += 1,
            _ => {}
        }
    }

    // Assemble sessions, histograms and anomaly flags.
    let mut sessions = Vec::with_capacity(state.len());
    let mut dwell: [Histogram; SAMPLE_PHASES] = Default::default();
    let mut ttfd = Histogram::new();
    let mut admitted = 0usize;
    let mut deaths: BTreeMap<String, usize> = BTreeMap::new();
    for ((run, unit, track), mut s) in state {
        let end = unit_end.get(&(run, unit)).copied().unwrap_or(0.0);
        // Arrival can never postdate the first observed event, so clamp:
        // this keeps each session's dwells summing exactly to `end − start`
        // even on damaged traces.
        let first_t = s.first_t.unwrap_or(0.0);
        let start = match (s.admitted_at, s.latency) {
            (Some(at), Some(lat)) => (at - lat).min(first_t),
            _ => first_t,
        };
        if s.admitted_at.is_some() {
            admitted += 1;
        }
        if let Some(reason) = &s.death {
            *deaths.entry(reason.clone()).or_insert(0) += 1;
        }
        let has_phases = s.phase.is_some();
        if has_phases {
            // Close the final open interval at the unit's end.
            if let (Some(phase), Some(since)) = (s.phase.as_deref(), s.phase_since) {
                if let Some(i) = phase_index(phase) {
                    s.dwell[i] += (end - since).max(0.0);
                }
            }
            // Re-anchor the chain's start: the fold credited nothing
            // before the first phase_change, but the track sat in init
            // from `start` until then.
            let covered: f64 = s.dwell.iter().sum();
            let total = (end - start).max(0.0);
            if total > covered {
                s.dwell[0] += total - covered;
            }
            for (h, &d) in dwell.iter_mut().zip(&s.dwell) {
                h.observe(d.max(0.0));
            }
            // Stuck check on closed transitional intervals: a session's
            // *total* time in a transitional phase bounds every closed
            // interval, so flag on the total minus any final open tail
            // (exempt by construction: the tail was added above only to
            // the phase the session ended in).
            for (i, name) in SAMPLE_PHASE_NAMES.iter().enumerate() {
                if !TRANSITIONAL.contains(name) {
                    continue;
                }
                let mut closed = s.dwell[i];
                if s.phase.as_deref() == Some(name) {
                    // Ends in this phase: its final open interval is the
                    // tail back to phase_since — exempt.
                    closed -= (end - s.phase_since.unwrap_or(end)).max(0.0);
                }
                if closed > opts.stuck_s {
                    anomalies.push(format!(
                        "session ({run},{unit},{track}) stuck {closed}s in \"{name}\" \
                         (threshold {}s)",
                        opts.stuck_s
                    ));
                }
            }
        }
        if s.grants != s.releases {
            anomalies.push(format!(
                "grant/release imbalance on ({run},{unit},{track}): \
                 {} grants vs {} releases",
                s.grants, s.releases
            ));
        }
        let ttfd_s = s.first_delivery.map(|d| (d - start).max(0.0));
        if let Some(v) = ttfd_s {
            ttfd.observe(v);
        }
        sessions.push(SessionSummary {
            run,
            unit,
            track,
            start,
            end,
            dwell: s.dwell,
            has_phases,
            ttfd: ttfd_s,
            death: s.death,
        });
    }

    // Energy waterfall + ledger drift.
    let mut energy = Vec::new();
    for ((run, track), (plain, kahan)) in sink::fold_energy_jsonl(jsonl) {
        let scale = plain.abs().max(kahan.abs());
        let drift = if scale > 0.0 {
            (plain - kahan).abs() / scale
        } else {
            0.0
        };
        if drift > LEDGER_DRIFT_REL {
            anomalies.push(format!(
                "ledger drift on ({run},{track}): plain {plain} vs compensated {kahan} \
                 (relative {drift:e})"
            ));
        }
        energy.push((run, track, plain, drift));
    }

    Ok(Analysis {
        events: report.summary.events,
        tracks: report.summary.tracks,
        trace_end,
        sessions,
        admitted,
        deaths,
        dwell,
        ttfd,
        energy,
        anomalies,
    })
}

fn hist_line(h: &Histogram) -> String {
    if h.count() == 0 {
        "n=0".to_string()
    } else {
        format!(
            "n={} p50={} p95={} max={}",
            h.count(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.max()
        )
    }
}

/// Render the human-readable report. The final line is always
/// `anomalies: <N>` followed by one indented line per flag — stable
/// anchors for CI (`grep '^anomalies: 0'`) and the golden test.
pub fn render_text(a: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} events, {} tracks, end t={}",
        a.events, a.tracks, a.trace_end
    );
    let mut death_parts: Vec<String> = a
        .deaths
        .iter()
        .map(|(reason, n)| format!("{reason} {n}"))
        .collect();
    if death_parts.is_empty() {
        death_parts.push("none".to_string());
    }
    let _ = writeln!(
        out,
        "sessions: {} (admitted {}; deaths: {})",
        a.sessions.len(),
        a.admitted,
        death_parts.join(", ")
    );
    let lifecycled = a.sessions.iter().filter(|s| s.has_phases).count();
    if lifecycled > 0 {
        let _ = writeln!(
            out,
            "dwell per phase (s), {lifecycled} lifecycled sessions:"
        );
        for (name, h) in SAMPLE_PHASE_NAMES.iter().zip(&a.dwell) {
            let _ = writeln!(out, "  {name:<9} {}", hist_line(h));
        }
    }
    let _ = writeln!(out, "time-to-first-delivery (s): {}", hist_line(&a.ttfd));
    if !a.energy.is_empty() {
        let mut by_spend: Vec<&(u32, String, f64, f64)> = a.energy.iter().collect();
        by_spend.sort_by(|x, y| {
            y.2.total_cmp(&x.2)
                .then_with(|| (x.0, &x.1).cmp(&(y.0, &y.1)))
        });
        let top = by_spend.len().min(10);
        let total: f64 = a.energy.iter().map(|e| e.2).sum();
        let _ = writeln!(
            out,
            "energy waterfall (top {top} of {} devices, {total} J total):",
            a.energy.len()
        );
        for (run, track, joules, _) in by_spend.into_iter().take(top) {
            let _ = writeln!(out, "  run {run} {track:<6} {joules} J");
        }
    }
    let _ = writeln!(out, "anomalies: {}", a.anomalies.len());
    for flag in &a.anomalies {
        let _ = writeln!(out, "  - {flag}");
    }
    out
}

/// Render the machine-readable report as a single JSON object (hand-built,
/// same shortest-round-trip float encoding as every sink).
pub fn render_json(a: &Analysis) -> String {
    let mut out = String::from("{\"schema\":1,\"stream\":\"braidio-analysis\"");
    let _ = write!(
        out,
        ",\"events\":{},\"tracks\":{},\"trace_end\":{},\"sessions\":{},\"admitted\":{}",
        a.events,
        a.tracks,
        a.trace_end,
        a.sessions.len(),
        a.admitted
    );
    out.push_str(",\"deaths\":{");
    for (i, (reason, n)) in a.deaths.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{reason}\":{n}");
    }
    out.push_str("},\"dwell\":[");
    for (i, (name, h)) in SAMPLE_PHASE_NAMES.iter().zip(&a.dwell).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"phase\":\"{name}\",\"count\":{},\"p50\":{},\"p95\":{},\"max\":{}}}",
            h.count(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.max()
        );
    }
    let _ = write!(
        out,
        "],\"ttfd\":{{\"count\":{},\"p50\":{},\"p95\":{},\"max\":{}}}",
        a.ttfd.count(),
        a.ttfd.quantile(0.5),
        a.ttfd.quantile(0.95),
        a.ttfd.max()
    );
    out.push_str(",\"energy\":[");
    for (i, (run, track, joules, drift)) in a.energy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"run\":{run},\"track\":\"{track}\",\"joules\":{joules},\"drift\":{drift}}}"
        );
    }
    out.push_str("],\"anomalies\":[");
    for (i, flag) in a.anomalies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Flags are composed from identifiers and numbers; quotes never
        // appear except around event/phase names, which must be escaped.
        let _ = write!(
            out,
            "\"{}\"",
            flag.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push_str("]}\n");
    out
}
