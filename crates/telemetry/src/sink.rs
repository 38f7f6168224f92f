//! Sinks: render a captured event stream, validate it, and fold it.
//!
//! All renderers are pure functions of the event slice, written by hand
//! (the workspace is dependency-free — no serde). Float formatting uses
//! Rust's `Display` for `f64`, which prints the shortest decimal that
//! round-trips — a deterministic, host-independent encoding, so rendered
//! traces are byte-identical whenever the event streams are.
//!
//! ## JSONL schema (version 1)
//!
//! The first line is a header object:
//!
//! ```json
//! {"schema":1,"stream":"braidio-telemetry","time":"simulated-seconds"}
//! ```
//!
//! Every following line is one event with this fixed key order:
//!
//! ```json
//! {"run":0,"unit":1,"track":"p0","t":1.25,"ev":"replan","planned":true,"exact":true,"primary":"backscatter"}
//! ```
//!
//! * `run`, `unit`, `track` — the identity triple (crate docs); `track`
//!   is `d<N>` for a device, `p<N>` for a pair;
//! * `t` — simulated seconds since the unit's clock zero;
//! * `ev` — one of `mode_switch`, `replan`, `carrier_grant`,
//!   `carrier_release`, `quantum_delivered`, `quantum_lost`,
//!   `energy_debit`, `session_dead`, `wakeup_detect`, `phase_change`,
//!   `admitted`;
//! * variant fields: `from`/`to` (mode codes on `mode_switch`, phase codes
//!   on `phase_change`; a `mode_switch` `from` may be `null`),
//!   `planned`/`exact`/`primary` (`primary` may be `null`), `mode`/`rate`/
//!   `bits`, `joules`, `reason` (`battery_dead` | `no_viable_mode` |
//!   `departed` | `gave_up`), `latency` (seconds, on `admitted`).
//!
//! Within one `(run, unit, track)` identity `t` is monotone non-decreasing
//! and `carrier_grant`/`carrier_release` strictly alternate starting with
//! a grant and ending balanced. Open-system (churn) traces additionally
//! carry `phase_change` chains: per track the chain starts from `init`,
//! each event's `from` equals the previous event's `to`, every hop is a
//! legal `lifecycle::step` transition, and once a track has declared
//! phases, `quantum_delivered` is only legal while it sits in `live` or
//! `degrade`. [`validate_jsonl`] checks all of it.

use crate::event::{DeathReason, Event, Stamped, Track};
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render `x` as a JSON number (shortest round-trip decimal).
fn num(x: f64) -> String {
    debug_assert!(x.is_finite(), "telemetry numbers must be finite: {x}");
    format!("{x}")
}

/// Render the stream as schema-1 JSONL (see the module docs).
pub fn render_jsonl(events: &[Stamped]) -> String {
    let mut out = String::with_capacity(80 * events.len() + 80);
    out.push_str(
        "{\"schema\":1,\"stream\":\"braidio-telemetry\",\"time\":\"simulated-seconds\"}\n",
    );
    for s in events {
        let e = &s.event;
        let _ = write!(
            out,
            "{{\"run\":{},\"unit\":{},\"track\":\"{}\",\"t\":{},\"ev\":\"{}\"",
            s.run,
            s.unit,
            e.track().code(),
            num(e.at().seconds()),
            e.name()
        );
        match *e {
            Event::ModeSwitch { from, to, .. } => {
                let _ = write!(
                    out,
                    ",\"from\":{},\"to\":\"{}\"",
                    match from {
                        Some(m) => format!("\"{}\"", m.code()),
                        None => "null".to_string(),
                    },
                    to.code()
                );
            }
            Event::Replan {
                planned,
                exact,
                primary,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"planned\":{planned},\"exact\":{exact},\"primary\":{}",
                    match primary {
                        Some(m) => format!("\"{}\"", m.code()),
                        None => "null".to_string(),
                    }
                );
            }
            Event::CarrierGrant { .. } | Event::CarrierRelease { .. } => {}
            Event::QuantumDelivered {
                mode, rate, bits, ..
            }
            | Event::QuantumLost {
                mode, rate, bits, ..
            } => {
                let _ = write!(
                    out,
                    ",\"mode\":\"{}\",\"rate\":\"{}\",\"bits\":{}",
                    mode.code(),
                    rate.label(),
                    num(bits)
                );
            }
            Event::EnergyDebit { joules, .. } => {
                let _ = write!(out, ",\"joules\":{}", num(joules.joules()));
            }
            Event::SessionDead { reason, .. } => {
                let _ = write!(out, ",\"reason\":\"{}\"", reason.code());
            }
            Event::WakeupDetect { .. } => {}
            Event::PhaseChange { from, to, .. } => {
                let _ = write!(
                    out,
                    ",\"from\":\"{}\",\"to\":\"{}\"",
                    from.code(),
                    to.code()
                );
            }
            Event::Admitted { latency, .. } => {
                let _ = write!(out, ",\"latency\":{}", num(latency.seconds()));
            }
        }
        out.push_str("}\n");
    }
    out
}

/// The Chrome trace-event `tid` for a track within a unit: units are
/// spread one million apart, pairs offset half a million, so a fleet's
/// devices and pairs land on distinct, stably-ordered rows in Perfetto.
fn chrome_tid(unit: u32, track: Track) -> u64 {
    let base = unit as u64 * 1_000_000;
    match track {
        Track::Device(d) => base + d as u64,
        Track::Pair(p) => base + 500_000 + p as u64,
    }
}

/// Render the stream as Chrome trace-event JSON (open in Perfetto or
/// `chrome://tracing`): one process per run, one thread row per
/// `(unit, track)`, carrier grants/releases as B/E duration events and
/// everything else as instants. Timestamps are simulated seconds scaled to
/// the format's microseconds.
pub fn render_chrome(events: &[Stamped]) -> String {
    let mut out = String::with_capacity(160 * events.len() + 64);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };
    // Metadata rows, in order of first appearance (deterministic).
    let mut seen_runs: Vec<u32> = Vec::new();
    let mut seen_tracks: Vec<(u32, u32, Track)> = Vec::new();
    for s in events {
        if !seen_runs.contains(&s.run) {
            seen_runs.push(s.run);
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"run {}\"}}}}",
                s.run, s.run
            );
        }
        let key = (s.run, s.unit, s.event.track());
        if !seen_tracks.contains(&key) {
            seen_tracks.push(key);
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"u{} {}\"}}}}",
                s.run,
                chrome_tid(s.unit, s.event.track()),
                s.unit,
                s.event.track().code()
            );
        }
    }
    for s in events {
        let e = &s.event;
        let ts = num(e.at().seconds() * 1e6);
        let tid = chrome_tid(s.unit, e.track());
        sep(&mut out);
        match *e {
            Event::CarrierGrant { .. } => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"B\",\"pid\":{},\"tid\":{tid},\"ts\":{ts},\"name\":\"carrier\",\"cat\":\"carrier\"}}",
                    s.run
                );
            }
            Event::CarrierRelease { .. } => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"E\",\"pid\":{},\"tid\":{tid},\"ts\":{ts},\"name\":\"carrier\",\"cat\":\"carrier\"}}",
                    s.run
                );
            }
            _ => {
                let mut args = String::new();
                match *e {
                    Event::ModeSwitch { from, to, .. } => {
                        let _ = write!(
                            args,
                            "\"from\":\"{}\",\"to\":\"{}\"",
                            from.map(|m| m.code()).unwrap_or("-"),
                            to.code()
                        );
                    }
                    Event::Replan {
                        planned,
                        exact,
                        primary,
                        ..
                    } => {
                        let _ = write!(
                            args,
                            "\"planned\":{planned},\"exact\":{exact},\"primary\":\"{}\"",
                            primary.map(|m| m.code()).unwrap_or("-")
                        );
                    }
                    Event::QuantumDelivered {
                        mode, rate, bits, ..
                    }
                    | Event::QuantumLost {
                        mode, rate, bits, ..
                    } => {
                        let _ = write!(
                            args,
                            "\"mode\":\"{}\",\"rate\":\"{}\",\"bits\":{}",
                            mode.code(),
                            rate.label(),
                            num(bits)
                        );
                    }
                    Event::EnergyDebit { joules, .. } => {
                        let _ = write!(args, "\"joules\":{}", num(joules.joules()));
                    }
                    Event::SessionDead { reason, .. } => {
                        let _ = write!(args, "\"reason\":\"{}\"", reason.code());
                    }
                    Event::PhaseChange { from, to, .. } => {
                        let _ = write!(
                            args,
                            "\"from\":\"{}\",\"to\":\"{}\"",
                            from.code(),
                            to.code()
                        );
                    }
                    Event::Admitted { latency, .. } => {
                        let _ = write!(args, "\"latency\":{}", num(latency.seconds()));
                    }
                    _ => {}
                }
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":{tid},\"ts\":{ts},\"name\":\"{}\",\"s\":\"t\",\"args\":{{{args}}}}}",
                    s.run,
                    e.name()
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Render profiling spans in the collapsed-stacks ("folded") format that
/// flamegraph tooling consumes: one line per distinct stack path,
/// `outer;inner <self-µs>`, paths sorted lexicographically. The value is
/// *self* time — the path's total wall-clock microseconds minus the total
/// of its direct children (clamped at zero, rounded to whole µs) — so box
/// widths in a rendered flamegraph add up instead of double-counting
/// nested spans.
pub fn render_profile_folded(spans: &[SpanRecord]) -> String {
    let mut total: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        *total.entry(s.stack().join(";")).or_insert(0.0) += s.dur_us;
    }
    // A path's direct children are the paths one frame deeper; their
    // totals are time the parent spent inside them, not in itself.
    let mut child_sum: BTreeMap<&str, f64> = BTreeMap::new();
    for (path, &t) in &total {
        if let Some(i) = path.rfind(';') {
            *child_sum.entry(&path[..i]).or_insert(0.0) += t;
        }
    }
    let mut out = String::new();
    for (path, &t) in &total {
        let self_us = (t - child_sum.get(path.as_str()).copied().unwrap_or(0.0)).max(0.0);
        let _ = writeln!(out, "{path} {}", self_us.round() as u64);
    }
    out
}

/// Render profiling spans as Chrome trace-event JSON ("X" complete
/// events, wall-clock microseconds since the process profiling epoch, one
/// thread row per lane).
pub fn render_profile_chrome(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(96 * spans.len() + 64);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\"}}{comma}",
            s.lane,
            num(s.start_us),
            num(s.dur_us),
            s.name
        );
    }
    out.push_str("]}\n");
    out
}

/// Render one event as the legacy tcpdump-style text line (no newline).
///
/// The `DATA`/`PLAN`/`DOWN`/`DEAD` formats are byte-for-byte the ones
/// `braidio::trace::TraceEvent` has always displayed — that Display now
/// delegates here, so pairwise and fleet traces share one vocabulary and
/// one renderer.
pub fn render_text_line(e: &Event) -> String {
    let t = e.at().seconds();
    match *e {
        Event::QuantumDelivered {
            mode, rate, bits, ..
        } => format!(
            "{:>12.6}s  DATA  {:<11} @{:<4} {:>4}B  ok",
            t,
            mode.label(),
            rate.label(),
            (bits / 8.0).round() as u64
        ),
        Event::QuantumLost {
            mode, rate, bits, ..
        } => format!(
            "{:>12.6}s  DATA  {:<11} @{:<4} {:>4}B  LOST",
            t,
            mode.label(),
            rate.label(),
            (bits / 8.0).round() as u64
        ),
        Event::Replan { planned, .. } => format!(
            "{:>12.6}s  PLAN  {}",
            t,
            if planned {
                "installed"
            } else {
                "no viable mode"
            }
        ),
        Event::SessionDead {
            reason: DeathReason::NoViableMode,
            ..
        } => format!("{:>12.6}s  DOWN  link out of range", t),
        Event::SessionDead {
            reason: DeathReason::BatteryDead,
            ..
        } => format!("{:>12.6}s  DEAD  battery exhausted", t),
        Event::SessionDead {
            reason: DeathReason::Departed,
            ..
        } => format!("{:>12.6}s  GONE  departed", t),
        Event::SessionDead {
            reason: DeathReason::GaveUp,
            ..
        } => format!("{:>12.6}s  DEAD  gave up after cooldowns", t),
        Event::ModeSwitch { from, to, .. } => format!(
            "{:>12.6}s  MODE  {} -> {}",
            t,
            from.map(|m| m.label()).unwrap_or("-"),
            to.label()
        ),
        Event::CarrierGrant { .. } => format!("{:>12.6}s  CARR  up", t),
        Event::CarrierRelease { .. } => format!("{:>12.6}s  CARR  down", t),
        Event::EnergyDebit { joules, .. } => {
            format!("{:>12.6}s  DRAW  {:.3e} J", t, joules.joules())
        }
        Event::WakeupDetect { .. } => format!("{:>12.6}s  WAKE  detector fired", t),
        Event::PhaseChange { from, to, .. } => {
            format!("{:>12.6}s  PHSE  {} -> {}", t, from.code(), to.code())
        }
        Event::Admitted { latency, .. } => {
            format!("{:>12.6}s  ADMT  after {:.6}s", t, latency.seconds())
        }
    }
}

/// What [`validate_jsonl`] measured about a valid trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Event lines (excluding the header).
    pub events: usize,
    /// Distinct `(run, unit, track)` identities.
    pub tracks: usize,
}

/// Pull the value of `"key":` out of a rendered schema-1 JSONL line.
/// String values come back without their quotes; numbers, booleans and
/// `null` come back as their raw text. Public so the offline analyzer can
/// re-use the exact parser the validator trusts instead of growing a
/// second one.
pub fn parse_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let close = stripped.find('"')?;
        Some(&stripped[..close])
    } else {
        let end = rest.find([',', '}'])?;
        Some(&rest[..end])
    }
}

/// Parse `"key":` as a simulated time or duration: a finite, non-negative
/// number, or `None` (missing, malformed, infinite, NaN or negative). The
/// validator flags such a field; the offline analyzer skips it through the
/// same rule, so no value the validator rejects reaches its arithmetic.
pub fn parse_seconds(line: &str, key: &str) -> Option<f64> {
    parse_field(line, key)?
        .parse()
        .ok()
        .filter(|t: &f64| t.is_finite() && *t >= 0.0)
}

/// The closed set of event names schema 1 admits.
const EVENT_NAMES: [&str; 11] = [
    "mode_switch",
    "replan",
    "carrier_grant",
    "carrier_release",
    "quantum_delivered",
    "quantum_lost",
    "energy_debit",
    "session_dead",
    "wakeup_detect",
    "phase_change",
    "admitted",
];

/// The legal lifecycle hops a `phase_change` line may declare, mirroring
/// `braidio-net`'s `lifecycle::step` table minus its self-loops (the
/// engine emits a `phase_change` only when the phase actually changes).
const PHASE_HOPS: [(&str, &str); 17] = [
    ("init", "probe"),
    ("init", "dead"),
    ("probe", "warm"),
    ("probe", "cooldown"),
    ("probe", "dead"),
    ("warm", "live"),
    ("warm", "degrade"),
    ("warm", "cooldown"),
    ("warm", "dead"),
    ("live", "degrade"),
    ("live", "cooldown"),
    ("live", "dead"),
    ("degrade", "live"),
    ("degrade", "cooldown"),
    ("degrade", "dead"),
    ("cooldown", "probe"),
    ("cooldown", "dead"),
];

/// Per-identity running state the validator maintains.
#[derive(Default)]
struct TrackState {
    last_t: f64,
    carrier_held: bool,
    /// Current lifecycle phase, once the track has declared one. `None`
    /// for closed-scenario tracks, which never emit `phase_change` and
    /// whose deliveries are therefore not phase-gated.
    phase: Option<String>,
}

/// Everything [`validate_jsonl_full`] measured about a trace, valid or
/// not: the summary of what parsed, plus every violation found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// What parsed (events with a valid identity and known name count even
    /// when a semantic rule flags them — the analyzer still wants them).
    pub summary: TraceSummary,
    /// Every violation in line order, each message prefixed with its
    /// 1-based line number (`line 7: ...`); end-of-trace checks (unreleased
    /// carrier grants) come last without a line prefix.
    pub violations: Vec<String>,
}

/// Validate a schema-1 JSONL trace, accumulating *every* violation instead
/// of stopping at the first: header present, every line parses with the
/// required identity fields, event names are in the closed set,
/// per-identity time is monotone non-decreasing, carrier grants and
/// releases alternate and balance per identity, `phase_change` chains are
/// consistent (start from `init`, `from` matches the running phase, every
/// hop legal), and phase-declaring tracks only deliver quanta in `live` or
/// `degrade`.
///
/// Recovery after a violation is local so one bad line does not cascade:
/// an unparseable line is skipped; a backwards timestamp leaves the
/// running high-water mark in place; a broken phase hop adopts the
/// declared `to` phase; unbalanced grants keep the state that the majority
/// of the evidence supports.
pub fn validate_jsonl_full(jsonl: &str) -> TraceReport {
    let mut violations: Vec<String> = Vec::new();
    let mut lines = jsonl.lines().enumerate();
    let empty = TraceSummary {
        events: 0,
        tracks: 0,
    };
    let Some((_, header)) = lines.next() else {
        return TraceReport {
            summary: empty,
            violations: vec!["empty trace".into()],
        };
    };
    if !header.contains("\"schema\":1") || !header.contains("\"stream\":\"braidio-telemetry\"") {
        return TraceReport {
            summary: empty,
            violations: vec![format!("bad header: {header}")],
        };
    }
    let mut state: BTreeMap<(u32, u32, String), TrackState> = BTreeMap::new();
    let mut events = 0usize;
    for (i, line) in lines {
        let n = i + 1; // 1-based line number
        if !(line.starts_with('{') && line.ends_with('}')) {
            violations.push(format!("line {n}: not a JSON object: {line}"));
            continue;
        }
        let run: Option<u32> = parse_field(line, "run").and_then(|v| v.parse().ok());
        let Some(run) = run else {
            violations.push(format!("line {n}: missing/bad \"run\""));
            continue;
        };
        let unit: Option<u32> = parse_field(line, "unit").and_then(|v| v.parse().ok());
        let Some(unit) = unit else {
            violations.push(format!("line {n}: missing/bad \"unit\""));
            continue;
        };
        let Some(track) = parse_field(line, "track").filter(|v| {
            (v.starts_with('d') || v.starts_with('p'))
                && v.len() > 1
                && v[1..].chars().all(|c| c.is_ascii_digit())
        }) else {
            violations.push(format!("line {n}: missing/bad \"track\""));
            continue;
        };
        let Some(t) = parse_seconds(line, "t") else {
            violations.push(format!("line {n}: missing/bad \"t\""));
            continue;
        };
        let Some(ev) = parse_field(line, "ev") else {
            violations.push(format!("line {n}: missing \"ev\""));
            continue;
        };
        if !EVENT_NAMES.contains(&ev) {
            violations.push(format!("line {n}: unknown event \"{ev}\""));
            continue;
        }
        let entry = state.entry((run, unit, track.to_string())).or_default();
        if t < entry.last_t {
            violations.push(format!(
                "line {n}: time went backwards on ({run},{unit},{track}): {t} < {}",
                entry.last_t
            ));
            // Keep the high-water mark: later events at legal times pass.
        } else {
            entry.last_t = t;
        }
        match ev {
            "carrier_grant" => {
                if entry.carrier_held {
                    violations.push(format!(
                        "line {n}: carrier_grant while already granted on ({run},{unit},{track})"
                    ));
                }
                entry.carrier_held = true;
            }
            "carrier_release" => {
                if !entry.carrier_held {
                    violations.push(format!(
                        "line {n}: carrier_release without a grant on ({run},{unit},{track})"
                    ));
                }
                entry.carrier_held = false;
            }
            "phase_change" => {
                let from = parse_field(line, "from");
                let to = parse_field(line, "to");
                let (Some(from), Some(to)) = (from, to) else {
                    violations.push(format!(
                        "line {n}: phase_change missing \"{}\"",
                        if from.is_none() { "from" } else { "to" }
                    ));
                    continue;
                };
                let current = entry.phase.as_deref().unwrap_or("init");
                if from != current {
                    violations.push(format!(
                        "line {n}: phase chain broken on ({run},{unit},{track}): \
                         from \"{from}\" but track is in \"{current}\""
                    ));
                }
                if !PHASE_HOPS.contains(&(from, to)) {
                    violations.push(format!(
                        "line {n}: illegal phase transition \"{from}\" -> \"{to}\" \
                         on ({run},{unit},{track})"
                    ));
                }
                // Adopt the declared destination either way so one broken
                // hop does not flag every later hop in the chain.
                entry.phase = Some(to.to_string());
            }
            "quantum_delivered" => {
                if let Some(phase) = entry.phase.as_deref() {
                    if phase != "live" && phase != "degrade" {
                        violations.push(format!(
                            "line {n}: quantum_delivered in phase \"{phase}\" \
                             on ({run},{unit},{track})"
                        ));
                    }
                }
            }
            "admitted" if parse_seconds(line, "latency").is_none() => {
                violations.push(format!("line {n}: missing/bad \"latency\""));
            }
            _ => {}
        }
        events += 1;
    }
    for ((run, unit, track), st) in &state {
        if st.carrier_held {
            violations.push(format!(
                "unreleased carrier_grant on ({run},{unit},{track})"
            ));
        }
    }
    TraceReport {
        summary: TraceSummary {
            events,
            tracks: state.len(),
        },
        violations,
    }
}

/// Validate a schema-1 JSONL trace (see [`validate_jsonl_full`] for the
/// rule set). Returns the summary when clean; otherwise an error joining
/// every violation found, one per line.
pub fn validate_jsonl(jsonl: &str) -> Result<TraceSummary, String> {
    let report = validate_jsonl_full(jsonl);
    if report.violations.is_empty() {
        Ok(report.summary)
    } else {
        Err(report.violations.join("\n"))
    }
}

/// Fold every `EnergyDebit` in stream order into a per-`(run, track)`
/// ledger (joules). Summation follows the stream, which for a serial (or
/// pool-merged) capture is the exact order the engine charged the
/// batteries in — so the ledger reproduces each device's `spent`
/// accumulator bit-for-bit, and the fleet audit can assert equality to
/// 1e-9 without worrying about float reassociation.
pub fn fold_energy(events: &[Stamped]) -> BTreeMap<(u32, Track), f64> {
    let mut ledger = BTreeMap::new();
    for s in events {
        if let Event::EnergyDebit { track, joules, .. } = s.event {
            *ledger.entry((s.run, track)).or_insert(0.0) += joules.joules();
        }
    }
    ledger
}

/// Fold the `energy_debit` lines of a schema-1 JSONL trace into a
/// per-`(run, track)` ledger, returning `(plain, compensated)` joules per
/// identity: `plain` is the naive stream-order sum (the same order the
/// engine's `spent` accumulator used), `compensated` is a Kahan sum over
/// the identical stream. The offline analyzer compares the two — a
/// relative gap beyond ~1e-9 means the plain fold lost precision, i.e. the
/// trace's debits cannot reproduce the engine's ledger bit-for-bit, which
/// it flags as ledger drift. Lines that do not parse are skipped (run the
/// validator for diagnostics).
pub fn fold_energy_jsonl(jsonl: &str) -> BTreeMap<(u32, String), (f64, f64)> {
    // value = (plain sum, kahan sum, kahan compensation)
    let mut ledger: BTreeMap<(u32, String), (f64, f64, f64)> = BTreeMap::new();
    for line in jsonl.lines().skip(1) {
        if parse_field(line, "ev") != Some("energy_debit") {
            continue;
        }
        let run: Option<u32> = parse_field(line, "run").and_then(|v| v.parse().ok());
        let track = parse_field(line, "track");
        let joules: Option<f64> = parse_field(line, "joules").and_then(|v| v.parse().ok());
        let (Some(run), Some(track), Some(j)) = (run, track, joules) else {
            continue;
        };
        let e = ledger
            .entry((run, track.to_string()))
            .or_insert((0.0, 0.0, 0.0));
        e.0 += j;
        let y = j - e.2;
        let t = e.1 + y;
        e.2 = (t - e.1) - y;
        e.1 = t;
    }
    ledger
        .into_iter()
        .map(|(k, (plain, kahan, _))| (k, (plain, kahan)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ModeTag, RateTag};
    use braidio_units::{Joules, Seconds};

    fn sample() -> Vec<Stamped> {
        let p = Track::Pair(0);
        let d = Track::Device(1);
        let s = |event| Stamped {
            run: 3,
            unit: 1,
            event,
        };
        vec![
            s(Event::WakeupDetect {
                at: Seconds::new(0.0),
                track: d,
            }),
            s(Event::Replan {
                at: Seconds::new(0.001),
                track: p,
                planned: true,
                exact: true,
                primary: Some(ModeTag::Backscatter),
            }),
            s(Event::ModeSwitch {
                at: Seconds::new(0.001),
                track: p,
                from: None,
                to: ModeTag::Backscatter,
            }),
            s(Event::CarrierGrant {
                at: Seconds::new(0.001),
                track: p,
            }),
            s(Event::EnergyDebit {
                at: Seconds::new(0.2),
                track: d,
                joules: Joules::new(0.125),
            }),
            s(Event::EnergyDebit {
                at: Seconds::new(0.2),
                track: d,
                joules: Joules::new(0.25),
            }),
            s(Event::QuantumDelivered {
                at: Seconds::new(0.2),
                track: p,
                mode: ModeTag::Backscatter,
                rate: RateTag::Mbps1,
                bits: 512.0,
            }),
            s(Event::CarrierRelease {
                at: Seconds::new(0.2),
                track: p,
            }),
            s(Event::SessionDead {
                at: Seconds::new(0.2),
                track: p,
                reason: DeathReason::BatteryDead,
            }),
        ]
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let jsonl = render_jsonl(&sample());
        let summary = validate_jsonl(&jsonl).expect("valid");
        assert_eq!(summary.events, 9);
        assert_eq!(summary.tracks, 2);
        assert!(jsonl.contains(
            "\"ev\":\"replan\",\"planned\":true,\"exact\":true,\"primary\":\"backscatter\""
        ));
        assert!(jsonl.contains("\"joules\":0.125"));
    }

    #[test]
    fn validator_rejects_time_reversal() {
        let mut bad = sample();
        bad.push(Stamped {
            run: 3,
            unit: 1,
            event: Event::Replan {
                at: Seconds::new(0.1),
                track: Track::Pair(0),
                planned: false,
                exact: false,
                primary: None,
            },
        });
        let err = validate_jsonl(&render_jsonl(&bad)).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn validator_rejects_unbalanced_grants() {
        let mut bad = sample();
        bad.truncate(5); // drop the release (and what follows)
        let err = validate_jsonl(&render_jsonl(&bad)).unwrap_err();
        assert!(err.contains("unreleased"), "{err}");

        let mut double = sample();
        double.insert(
            4,
            Stamped {
                run: 3,
                unit: 1,
                event: Event::CarrierGrant {
                    at: Seconds::new(0.002),
                    track: Track::Pair(0),
                },
            },
        );
        let err = validate_jsonl(&render_jsonl(&double)).unwrap_err();
        assert!(err.contains("already granted"), "{err}");
    }

    #[test]
    fn validator_rejects_foreign_events() {
        let jsonl = "{\"schema\":1,\"stream\":\"braidio-telemetry\",\"time\":\"simulated-seconds\"}\n{\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":0,\"ev\":\"surprise\"}\n";
        assert!(validate_jsonl(jsonl).unwrap_err().contains("unknown event"));
    }

    #[test]
    fn validator_tracks_phase_chains() {
        use crate::event::PhaseTag;
        let s = |event| Stamped {
            run: 0,
            unit: 0,
            event,
        };
        let chain = |hops: &[(PhaseTag, PhaseTag)]| -> Vec<Stamped> {
            hops.iter()
                .enumerate()
                .map(|(i, &(from, to))| {
                    s(Event::PhaseChange {
                        at: Seconds::new(i as f64),
                        track: Track::Pair(0),
                        from,
                        to,
                    })
                })
                .collect()
        };
        // A legal full ride through the machine.
        let mut good = vec![s(Event::Admitted {
            at: Seconds::new(0.0),
            track: Track::Pair(0),
            latency: Seconds::new(0.0),
        })];
        good.extend(chain(&[
            (PhaseTag::Init, PhaseTag::Probe),
            (PhaseTag::Probe, PhaseTag::Warm),
            (PhaseTag::Warm, PhaseTag::Live),
            (PhaseTag::Live, PhaseTag::Degrade),
            (PhaseTag::Degrade, PhaseTag::Cooldown),
            (PhaseTag::Cooldown, PhaseTag::Dead),
        ]));
        validate_jsonl(&render_jsonl(&good)).expect("legal chain");

        // A chain that starts anywhere but Init is broken.
        let bad = chain(&[(PhaseTag::Probe, PhaseTag::Warm)]);
        let err = validate_jsonl(&render_jsonl(&bad)).unwrap_err();
        assert!(err.contains("phase chain broken"), "{err}");

        // A hop outside the lifecycle table is illegal even if chained.
        let bad = chain(&[
            (PhaseTag::Init, PhaseTag::Probe),
            (PhaseTag::Probe, PhaseTag::Live),
        ]);
        let err = validate_jsonl(&render_jsonl(&bad)).unwrap_err();
        assert!(err.contains("illegal phase transition"), "{err}");
    }

    #[test]
    fn validator_gates_delivery_on_phase() {
        use crate::event::PhaseTag;
        let s = |event| Stamped {
            run: 0,
            unit: 0,
            event,
        };
        let delivered = s(Event::QuantumDelivered {
            at: Seconds::new(2.0),
            track: Track::Pair(0),
            mode: ModeTag::Backscatter,
            rate: RateTag::Mbps1,
            bits: 64.0,
        });
        // Without any phase declaration (closed scenarios) delivery is
        // ungated — the legacy sample() trace stays valid elsewhere.
        validate_jsonl(&render_jsonl(&[delivered])).expect("ungated");
        // Declared Probe: delivery must be rejected.
        let bad = vec![
            s(Event::PhaseChange {
                at: Seconds::new(0.0),
                track: Track::Pair(0),
                from: PhaseTag::Init,
                to: PhaseTag::Probe,
            }),
            delivered,
        ];
        let err = validate_jsonl(&render_jsonl(&bad)).unwrap_err();
        assert!(err.contains("quantum_delivered in phase"), "{err}");
    }

    #[test]
    fn energy_ledger_folds_in_stream_order() {
        let ledger = fold_energy(&sample());
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[&(3, Track::Device(1))], 0.375);
    }

    #[test]
    fn text_renderer_keeps_the_legacy_formats() {
        let line = render_text_line(&Event::QuantumDelivered {
            at: Seconds::new(0.000123),
            track: Track::Pair(0),
            mode: ModeTag::Backscatter,
            rate: RateTag::Mbps1,
            bits: 512.0,
        });
        assert_eq!(line, "    0.000123s  DATA  Backscatter @1M     64B  ok");
        let line = render_text_line(&Event::SessionDead {
            at: Seconds::new(1.0),
            track: Track::Pair(0),
            reason: DeathReason::NoViableMode,
        });
        assert_eq!(line, "    1.000000s  DOWN  link out of range");
    }

    #[test]
    fn chrome_trace_has_tracks_and_carrier_slices() {
        let chrome = render_chrome(&sample());
        assert!(chrome.contains("\"name\":\"process_name\""));
        assert!(chrome.contains("\"name\":\"u1 p0\""));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"i\""));
    }

    #[test]
    fn profile_chrome_renders_complete_events() {
        let spans = [SpanRecord::leaf("net.replan", 2, 10.0, 1.5)];
        let out = render_profile_chrome(&spans);
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"tid\":2"));
        assert!(out.contains("\"dur\":1.5"));
    }

    #[test]
    fn folded_profile_attributes_self_time() {
        // One pool.chunk instance spent 100µs, of which 60µs inside
        // net.replan, of which 25µs inside net.wave; plus a second bare
        // chunk at 40µs. Self times: chunk 100-60+40=80, replan 35, wave 25.
        let nested = SpanRecord::leaf("pool.chunk", 0, 0.0, 100.0);
        let mut replan = SpanRecord::leaf("net.replan", 0, 5.0, 60.0);
        replan.path = ["pool.chunk", "net.replan", "", ""];
        replan.depth = 2;
        let mut wave = SpanRecord::leaf("net.wave", 0, 10.0, 25.0);
        wave.path = ["pool.chunk", "net.replan", "net.wave", ""];
        wave.depth = 3;
        let bare = SpanRecord::leaf("pool.chunk", 1, 200.0, 40.0);
        let out = render_profile_folded(&[wave, replan, nested, bare]);
        assert_eq!(
            out,
            "pool.chunk 80\npool.chunk;net.replan 35\npool.chunk;net.replan;net.wave 25\n"
        );
    }

    #[test]
    fn validator_accumulates_every_violation() {
        let jsonl = "{\"schema\":1,\"stream\":\"braidio-telemetry\",\"time\":\"simulated-seconds\"}\n\
            {\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":1,\"ev\":\"carrier_grant\"}\n\
            {\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":0.5,\"ev\":\"replan\",\"planned\":true,\"exact\":true,\"primary\":null}\n\
            {\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":2,\"ev\":\"surprise\"}\n\
            {\"run\":0,\"unit\":0,\"track\":\"p0\",\"t\":3,\"ev\":\"carrier_grant\"}\n";
        let report = validate_jsonl_full(jsonl);
        // Backwards time + unknown event + double grant + unreleased at end.
        assert_eq!(report.violations.len(), 4, "{:?}", report.violations);
        assert!(
            report.violations[0].contains("line 3: "),
            "{:?}",
            report.violations
        );
        assert!(report.violations[0].contains("backwards"));
        assert!(report.violations[1].contains("line 4: "));
        assert!(report.violations[1].contains("unknown event"));
        assert!(report.violations[2].contains("line 5: "));
        assert!(report.violations[2].contains("already granted"));
        assert!(report.violations[3].contains("unreleased"));
        // The parseable lines still counted.
        assert_eq!(report.summary.events, 3);
        // The Err wrapper joins them all.
        let err = validate_jsonl(jsonl).unwrap_err();
        assert_eq!(err.lines().count(), 4);
    }

    #[test]
    fn jsonl_energy_fold_matches_event_fold() {
        let jsonl = render_jsonl(&sample());
        let ledger = fold_energy_jsonl(&jsonl);
        assert_eq!(ledger.len(), 1);
        let (plain, kahan) = ledger[&(3, "d1".to_string())];
        assert_eq!(plain, 0.375);
        assert_eq!(kahan, 0.375);
    }
}
