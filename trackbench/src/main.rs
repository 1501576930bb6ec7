//! trackbench: replays one tracking workload against the hidden database
//! and prints its end-to-end metrics (untraced run) or its per-layer
//! metrics (traced run). See `README.md` beside this package.
//!
//! ```text
//! trackbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod inputs;
mod report;
mod run;
mod trace;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::{Duration, Instant};

use inputs::{workload, Workload, DEFAULT_SEED};
use report::Outcome;
use trace::Trace;

const USAGE: &str = "usage: trackbench --workload <track_default|track_paper|service_churn> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups timed before the first pass, at least [`SETUPS`] of them and
/// at least [`SETUP_SECONDS`] of set-up time; `setup_s` is their median.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;

/// Where a traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    Ok(Args {
        workload: workload(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The digest recorded for `name` at [`DEFAULT_SEED`].
fn recorded_digest(name: &str) -> Option<u64> {
    const FILE: &str = include_str!("../expected_digests.json");
    let key = format!("\"{name}\"");
    let rest = &FILE[FILE.find(&key)? + key.len()..];
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    u64::from_str_radix(&rest[start..end], 16).ok()
}

/// Prints a pass digest; whether it is the recorded one (always true
/// at seeds other than [`DEFAULT_SEED`]).
fn check_digest(a: &Args, digest: u64) -> bool {
    let recorded = recorded_digest(a.workload.name);
    let ok = a.seed != DEFAULT_SEED || recorded == Some(digest);
    let shown = recorded.map_or_else(|| "none".to_string(), |d| format!("{d:016x}"));
    println!("digest {digest:016x} (recorded at seed {DEFAULT_SEED}: {shown})");
    ok
}

fn host_facts(a: &Args) {
    let w = &a.workload;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            let line = c.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("host: nproc {nproc}, cpu {cpu}, {}", env!("TRACKBENCH_RUSTC"));
    println!(
        "workload {}: {:?} path, {} tuples, m = {}, k = {}, G = {}, +{} / -{} % per round, \
         {} rounds per pass, seed {}, {} s, trace {}",
        w.name,
        w.path,
        w.initial,
        w.attrs,
        w.k,
        w.g,
        w.inserts,
        w.delete_frac * 100.0,
        w.rounds,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
}

/// The untraced run: set-ups, then whole passes, as many as fit in
/// `--seconds` and at least one, each reproducing the first's digest.
fn untraced(a: &Args) -> Outcome {
    let w = &a.workload;
    let mut setups = Vec::new();
    let mut db = None;
    while setups.len() < SETUPS || setups.iter().sum::<f64>() < SETUP_SECONDS {
        drop(db.take());
        let (fresh, cost) = run::load(w, a.seed, w.path);
        setups.push(cost.setup_s);
        db = Some(fresh);
    }
    let mut db = db.expect("at least one set-up");
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut passes = vec![run::run_pass(w, a.seed, &mut db, None)];
    drop(db);
    let mut last = start.elapsed();
    while start.elapsed() + last <= budget {
        let began = Instant::now();
        let (mut db, cost) = run::load(w, a.seed, w.path);
        setups.push(cost.setup_s);
        passes.push(run::run_pass(w, a.seed, &mut db, None));
        last = began.elapsed();
    }
    let rss = report::peak_rss_mb().expect("/proc/self/status reports VmHWM");
    let first = &passes[0];
    let repeatable = passes.iter().all(|p| p.digests == first.digests);
    println!("passes {}, each repeats the first: {repeatable}", passes.len());
    let recorded = check_digest(a, first.digest());
    let failed = passes.iter().map(|p| p.failed).sum();
    Outcome {
        correct: repeatable && recorded && failed == 0,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed,
        reported: report::end_to_end(w, &setups, &passes, rss),
        extra: report::rel_err(first),
    }
}

/// The traced run: an untraced reference pass, then a traced pass on a
/// fresh database that must reproduce its digest.
fn traced(a: &Args) -> Outcome {
    let w = &a.workload;
    let (mut db, first_load) = run::load(w, a.seed, w.path);
    let reference = run::run_pass(w, a.seed, &mut db, None);
    drop(db);
    let (mut db, second_load) = run::load(w, a.seed, w.path);
    let mut trace = Trace::default();
    let traced = run::run_pass(w, a.seed, &mut db, Some(&mut trace));
    drop(db);
    let same = traced.digest() == reference.digest();
    println!("traced pass reproduces the untraced digest: {same}");
    let recorded = check_digest(a, traced.digest());
    let loads = [first_load, second_load];
    let mut layers = report::per_layer(w, &loads, &reference, &traced, &trace);
    layers.extend(report::rel_err(&traced));
    for (what, held) in report::chosen_for(w, &layers) {
        println!("chosen for: {what}: {}", if held { "yes" } else { "NO" });
    }
    match write_trace(a, &trace) {
        Ok(path) => println!("spans: {} written to {path}", trace.spans.len()),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
    let failed = reference.failed + traced.failed;
    Outcome {
        correct: same && recorded && failed == 0,
        attempted: reference.attempted + traced.attempted,
        failed,
        reported: layers,
        extra: Vec::new(),
    }
}

fn write_trace(a: &Args, trace: &Trace) -> std::io::Result<String> {
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/{}-seed{}.tsv", a.workload.name, a.seed);
    let mut out = BufWriter::new(File::create(&path)?);
    trace.write(&mut out)?;
    out.flush()?;
    Ok(path)
}

fn main() {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    host_facts(&a);
    let outcome = if a.trace { traced(&a) } else { untraced(&a) };
    outcome.print();
}

#[cfg(test)]
mod tests {
    use super::*;
    use inputs::{Path, WORKLOADS};

    /// A workload at reduced length: the same shape, a few rounds.
    fn short(w: &Workload) -> Workload {
        Workload { initial: 3_000, inserts: w.inserts.min(150), rounds: 4, ..*w }
    }

    fn pass(w: &Workload, path: Path, trace: Option<&mut Trace>) -> run::PassLog {
        let (mut db, _) = run::load(w, 9, path);
        run::run_pass(w, 9, &mut db, trace)
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        const FILE: &str = include_str!("../../BENCHMARK.json");
        let body = &FILE[FILE.find(&format!("\"{section}\"")).expect("section present")..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |obj: &str, key: &str| {
            let rest =
                &obj[obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2..];
            let start = rest.find('"').expect("value opens") + 1;
            rest[start..start + rest[start..].find('"').expect("value closes")].to_string()
        };
        body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    }

    fn named(metrics: &[report::Metric]) -> Vec<(String, String)> {
        metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    }

    #[test]
    fn every_metric_prints_with_its_declared_unit() {
        let w = short(&WORKLOADS[2]);
        let (mut db, cost) = run::load(&w, 9, w.path);
        let untraced = run::run_pass(&w, 9, &mut db, None);
        let e2e = report::end_to_end(&w, &[cost.setup_s], &[untraced], 1.0);
        assert_eq!(named(&e2e), declared("end_to_end"));
        let (mut db, _) = run::load(&w, 9, w.path);
        let reference = run::run_pass(&w, 9, &mut db, None);
        let mut trace = Trace::default();
        let (mut db, _) = run::load(&w, 9, w.path);
        let traced = run::run_pass(&w, 9, &mut db, Some(&mut trace));
        let mut layers = report::per_layer(&w, &[cost], &reference, &traced, &trace);
        layers.extend(report::rel_err(&traced));
        assert_eq!(named(&layers), declared("per_layer"));
        assert!(e2e.iter().chain(&layers).all(|m| !m.unit.is_empty() && m.value.is_finite()));
    }

    #[test]
    fn passes_repeat_and_tracing_changes_no_output() {
        for w in WORKLOADS.iter().map(short) {
            let first = pass(&w, w.path, None);
            assert_eq!(first.failed, 0, "{}", w.name);
            assert_eq!(first.attempted, 4 * w.rounds as u64);
            assert_eq!(first.digest(), pass(&w, w.path, None).digest(), "{} repeats", w.name);
            let mut trace = Trace::default();
            let traced = pass(&w, w.path, Some(&mut trace));
            assert_eq!(first.digest(), traced.digest(), "{} traced", w.name);
        }
    }

    #[test]
    fn service_reads_match_a_private_database() {
        let w = short(&WORKLOADS[2]);
        assert_eq!(w.path, Path::Service);
        assert_eq!(pass(&w, Path::Service, None).digest(), pass(&w, Path::Private, None).digest());
    }

    #[test]
    fn recorded_digests_parse() {
        for w in &WORKLOADS {
            assert!(recorded_digest(w.name).is_some(), "{} has a recorded digest", w.name);
        }
    }

    #[test]
    fn arguments_parse_strictly() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(args("--workload track_paper --seed 3 --seconds 5 --trace 1").into_iter())
                .expect("valid");
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("track_paper", 3, 5, true));
        for bad in ["--workload nope --seconds 1", "--workload track_paper", "--seconds 1 --x 2"] {
            assert!(parse_args(args(bad).into_iter()).is_err(), "{bad}");
        }
    }
}
