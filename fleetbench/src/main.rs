//! Host benchmark of the Braidio fleet engine.
//!
//! ```text
//! fleetbench run     --workload city|trace --seed N --seconds S --trace 0|1
//!                    [--commit C] [--source-digest D]
//! fleetbench setup   --workload W --seed N
//! fleetbench digests --workload city|trace --seeds A-B --threads T
//! ```
//!
//! `run` is one measurement. It prints an `env` line, a `digest` line and,
//! last, the result object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics of a traced run (`--trace 1`). `setup` times the
//! set-up in this fresh process; `run` starts it several times for
//! `setup_s`. `digests` prints the report digests `digests.txt` pins.
//! `run.py` builds this package and drives `run`; see README.md.

mod layers;
mod ops;
mod replay;
mod sys;

use braidio_net::{Arbitration, FleetScenario};
use braidio_radio::characterization::Characterization;
use braidio_telemetry as telemetry;
use ops::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Fresh processes whose set-up `setup_s` takes the median of: the
/// characterization is built once per process and then cached, so only a
/// new process pays for it again.
const SETUP_PROCESSES: usize = 5;
/// Fewest timed operations in a run, whatever `--seconds` allows.
const MIN_OPS: usize = 3;
/// Fewest traced (and untraced) operations in a `--trace 1` run.
const MIN_TRACED: usize = 2;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
    source_digest: String,
    seeds: (u64, u64),
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode: run, setup or digests")?;
    let mut a = Args {
        mode,
        workload: Workload::City,
        seed: ops::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        commit: "unknown".into(),
        source_digest: "unknown".into(),
        seeds: (ops::DEFAULT_SEED, ops::DEFAULT_SEED),
        threads: 1,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => a.seed = number(&value)?,
            "--seconds" => a.seconds = number(&value)?.max(1),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--commit" => a.commit = value,
            "--source-digest" => a.source_digest = value,
            "--seeds" => {
                let (lo, hi) = value.split_once('-').unwrap_or((&value, &value));
                a.seeds = (number(lo)?, number(hi)?);
            }
            "--threads" => a.threads = number(&value)?.max(1) as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `setup` mode: the characterization plus the workload's scenarios, timed
/// in this fresh process. Prints the seconds.
fn setup(a: &Args) {
    let t = Instant::now();
    black_box(Characterization::braidio());
    black_box(a.workload.scenarios(a.seed));
    println!("{}", t.elapsed().as_secs_f64());
}

/// Median `setup_s` over [`SETUP_PROCESSES`] fresh processes, run one after
/// another so they do not compete for cores.
fn setup_median(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROCESSES);
    for _ in 0..SETUP_PROCESSES {
        let seed = a.seed.to_string();
        let name = a.workload.name();
        let out = Command::new(&exe)
            .args(["setup", "--workload", name, "--seed", &seed])
            .output()
            .map_err(|e| format!("spawning the set-up process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let secs = stdout.trim().parse().ok();
        match (out.status.success(), secs) {
            (true, Some(s)) => samples.push(s),
            _ => return Err(format!("set-up process failed: {}", out.status)),
        }
    }
    Ok(median(&mut samples))
}

/// `digests` mode: one `population seed policy digest` line per scenario,
/// at `--threads` pool threads, without event capture. For the trace
/// workload's churn population, seed 7 must also reproduce the tracked
/// `experiments fleet --churn` rung.
fn digests(a: &Args) -> Result<(), String> {
    braidio_pool::set_threads(a.threads);
    let w = a.workload;
    let seeds: Vec<u64> = match w {
        Workload::City => vec![0],
        Workload::Trace => (a.seeds.0..=a.seeds.1).collect(),
    };
    for seed in seeds {
        let scenarios = w.scenarios(seed);
        let reports = ops::run_reports(&scenarios);
        for (sc, r) in scenarios.iter().zip(&reports) {
            println!(
                "{} {} {} {:016x}",
                w.population(),
                w.seed_key(seed),
                sc.arbitration.label(),
                ops::digest(r)
            );
        }
        if w != Workload::City && seed == ops::DEFAULT_SEED {
            let rung: Vec<_> =
                braidio_bench::fleet::churn_scenarios(braidio_bench::fleet::CHURN_DEFAULT_DEVICES)
                    .into_iter()
                    .map(|(_, sc)| sc)
                    .collect();
            let ours: Vec<u64> = reports.iter().map(ops::digest).collect();
            let tracked: Vec<u64> = ops::run_reports(&rung).iter().map(ops::digest).collect();
            if ours != tracked {
                return Err(format!(
                    "seed {seed} gives {}, the tracked churn rung {}",
                    ops::hex_list(&ours),
                    ops::hex_list(&tracked)
                ));
            }
        }
    }
    Ok(())
}

struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems.iter().take(5) {
                eprintln!("fleetbench: {what} failed its check: {p}");
            }
        }
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end metrics: operations with profiling off, repeated until
/// `deadline` (and at least [`MIN_OPS`] times).
fn measure(
    w: Workload,
    scenarios: &[FleetScenario],
    expected: &[u64],
    deadline: Instant,
    setup_s: f64,
    tally: &mut Tally,
) -> Metrics {
    let (mut run_s, mut cpu_s, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    while run_s.len() < MIN_OPS || Instant::now() < deadline {
        sys::reset_peak_rss();
        let (c0, t0) = (sys::cpu_seconds(), Instant::now());
        let out = ops::operate(w, scenarios);
        run_s.push(t0.elapsed().as_secs_f64());
        cpu_s.push(sys::cpu_seconds() - c0);
        rss.push(sys::peak_rss_mib());
        tally.record("operation", &ops::check(&out, expected));
    }
    eprintln!("fleetbench: run_s {run_s:?}, cpu_s {cpu_s:?}, peak_rss_mib {rss:?}");
    vec![
        ("setup_s", setup_s, "s"),
        ("run_s", median(&mut run_s), "s"),
        ("cpu_s", median(&mut cpu_s), "s"),
        ("peak_rss_mib", median(&mut rss), "MiB"),
    ]
}

/// The per-layer metrics: untraced and traced operations alternate until
/// `deadline` (at least [`MIN_TRACED`] pairs), then the replays run.
fn measure_traced(
    w: Workload,
    scenarios: &[FleetScenario],
    expected: &[u64],
    deadline: Instant,
    setup_spans: &[telemetry::SpanRecord],
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut samples: Vec<BTreeMap<&str, f64>> = Vec::new();
    while traced.len() < MIN_TRACED || Instant::now() < deadline {
        let t0 = Instant::now();
        let out = ops::operate(w, scenarios);
        untraced.push(t0.elapsed().as_secs_f64());
        tally.record("operation", &ops::check(&out, expected));
        drop(out);
        // Event capture counts even untraced; start the traced op clean.
        drop(telemetry::drain_thread());
        telemetry::set_profiling(true);
        let t0 = Instant::now();
        let out = ops::operate(w, scenarios);
        traced.push(t0.elapsed().as_secs_f64());
        telemetry::set_profiling(false);
        let batch = telemetry::drain_thread();
        tally.record("traced operation", &ops::check(&out, expected));
        samples.push(layers::operation_layers(&batch, &out, w.threads()));
    }
    let uncoordinated = scenarios
        .iter()
        .find(|s| s.arbitration == Arbitration::Uncoordinated)
        .expect("every workload runs an uncoordinated scenario");
    let r = replay::replay(uncoordinated);
    for p in r.problems.iter().take(5) {
        eprintln!("fleetbench: replay failed its check: {p}");
    }
    tally.attempted += 3;
    tally.failed += r.failed as u64;

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _) in layers::PER_LAYER {
        let mut v: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect();
        if !v.is_empty() {
            values.insert(name, median(&mut v));
        }
    }
    let set_up = |name| layers::span_total(setup_spans, name).0;
    values.insert("radio.characterization_s", set_up("bench.characterization"));
    values.insert("net.scenario.build_s", set_up("bench.scenario"));
    values.insert("net.interference.kernel_ns_per_edge", r.kernel_ns_per_edge);
    values.insert(
        "net.interference.options_us_per_item",
        r.options_us_per_item,
    );
    values.insert("mac.offload.us_per_solve", r.us_per_solve);
    values.insert("bench.replay.edges", r.edges as f64);
    values.insert(
        "telemetry.span.overhead_ratio",
        median(&mut traced) / median(&mut untraced),
    );
    layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .get(name)
                .ok_or(format!("per-layer metric {name} was not measured"))?;
            Ok((name, *v, unit))
        })
        .collect()
}

/// `run` mode: one measurement of one workload.
fn run(a: &Args) -> Result<(), String> {
    let w = a.workload;
    let setup_s = if a.trace {
        None
    } else {
        Some(setup_median(a)?)
    };

    // In-process set-up. Its spans give the set-up layers of a traced run;
    // the process is fresh, so the characterization is really built here.
    telemetry::set_profiling(a.trace);
    {
        let _span = telemetry::span("bench.characterization");
        black_box(Characterization::braidio());
    }
    let scenarios = {
        let _span = telemetry::span("bench.scenario");
        w.scenarios(a.seed)
    };
    telemetry::set_profiling(false);
    let setup_spans = telemetry::drain_thread().spans;

    let threads = w.threads();
    let other_threads = if threads == 1 { 2.min(sys::nproc()) } else { 1 };
    let labels: Vec<&str> = scenarios.iter().map(|s| s.arbitration.label()).collect();
    let pinned = ops::pinned(w, a.seed, &labels);

    // Warm-up: the reports at the other thread count. It fills the
    // process-wide memos before timing starts, and its digests must equal
    // the timed operations' (the byte-identity contract, from outside).
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let warm: Vec<u64> = braidio_pool::with_threads(other_threads, || ops::run_reports(&scenarios))
        .iter()
        .map(ops::digest)
        .collect();
    let expected = pinned.clone().unwrap_or_else(|| warm.clone());
    let warm_problems = if warm == expected {
        Vec::new()
    } else {
        vec![format!(
            "warm-up digests {} differ from pinned {}",
            ops::hex_list(&warm),
            ops::hex_list(&expected)
        )]
    };
    tally.record("warm-up", &warm_problems);

    braidio_pool::set_threads(threads);
    println!(
        "{{\"env\": {{\"nproc\": {}, \"pool_threads\": {}, \"thread_source\": {}, \"profile\": {}, \"commit\": {}, \"source_digest\": {}, \"workload\": {}, \"seed\": {}}}}}",
        sys::nproc(),
        braidio_pool::thread_count(),
        json_str(braidio_pool::thread_source().label()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&a.commit),
        json_str(&a.source_digest),
        json_str(w.name()),
        a.seed,
    );
    let reports: Vec<String> = labels
        .iter()
        .zip(&expected)
        .map(|(l, d)| format!("{}: \"{d:016x}\"", json_str(l)))
        .collect();
    println!(
        "{{\"digest\": {{\"population\": {}, \"pinned\": {}, \"checked_at_threads\": [{other_threads}, {threads}], \"reports\": {{{}}}}}}}",
        json_str(w.population()),
        pinned.is_some(),
        reports.join(", ")
    );

    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let metrics = if a.trace {
        measure_traced(w, &scenarios, &expected, deadline, &setup_spans, &mut tally)?
    } else {
        let setup_s = setup_s.expect("untraced runs time set-up");
        measure(w, &scenarios, &expected, deadline, setup_s, &mut tally)
    };

    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| match a.mode.as_str() {
        "run" => run(&a),
        "setup" => {
            setup(&a);
            Ok(())
        }
        "digests" => digests(&a),
        m => Err(format!("unknown mode {m:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::from(2)
        }
    }
}
