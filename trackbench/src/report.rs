//! Metric assembly and output: a readable table, then one JSON line.

use std::collections::BTreeMap;

use hidden_db::OutcomeClass;

use crate::inputs::{Path, Workload};
use crate::run::{LoadCost, PassLog, ESTIMATORS};
use crate::trace::{Engine, Kind, Served, Trace};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value, with every digit measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Context printed next to the value (percentile and sample count,
    /// or the base of a ratio).
    pub note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit, note: String::new() }
}

fn noted(name: impl Into<String>, value: f64, unit: &'static str, note: String) -> Metric {
    Metric { name: name.into(), value, unit, note }
}

/// Nearest-rank percentile `p` (in percent) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that leaves at least ten of `n` samples beyond
/// it.
pub fn tail_percentile(n: usize) -> f64 {
    const LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    LADDER.into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0).unwrap_or(50.0)
}

/// A tail metric over `samples`, at the percentile the guaranteed
/// sample count `n_min` allows, so the percentile is fixed per workload.
fn tail(name: &str, samples: &[f64], n_min: usize, unit: &'static str) -> Metric {
    let p = tail_percentile(n_min);
    noted(name, percentile(samples, p), unit, format!("p{p} of {} samples", samples.len()))
}

/// Sum starting from +0.0, so an empty set reads 0, not -0.
fn sum(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, x| acc + x)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Resident high-water mark of this process, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run over whole passes.
pub fn end_to_end(w: &Workload, setups: &[f64], passes: &[PassLog], rss_mb: f64) -> Vec<Metric> {
    let rounds: usize = passes.iter().map(PassLog::rounds).sum();
    let loop_s: f64 = passes.iter().map(PassLog::loop_s).sum();
    let round_ms: Vec<f64> = passes.iter().flat_map(|p| p.round_ms.iter().copied()).collect();
    let update_ms: Vec<f64> = passes.iter().flat_map(|p| p.update_ms.iter().copied()).collect();
    vec![
        noted("setup_s", percentile(setups, 50.0), "s", format!("p50 of {} set-ups", setups.len())),
        noted("rounds_per_s", rounds as f64 / loop_s, "rounds/s", format!("{rounds} rounds")),
        noted("round_ms.p50", percentile(&round_ms, 50.0), "ms", format!("of {rounds} rounds")),
        tail("round_ms.tail", &round_ms, w.rounds, "ms"),
        noted("update_ms.p50", percentile(&update_ms, 50.0), "ms", format!("of {rounds} updates")),
        metric("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// Mean relative error of each estimator's COUNT over a pass. Fixed per
/// seed, so any move means the outputs changed.
pub fn rel_err(pass: &PassLog) -> Vec<Metric> {
    let note = format!("mean over {} rounds", pass.rounds());
    ESTIMATORS
        .iter()
        .enumerate()
        .map(|(i, name)| noted(format!("rel_err.{name}"), pass.rel_err(i), "ratio", note.clone()))
        .collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    w: &Workload,
    loads: &[LoadCost],
    untraced: &PassLog,
    traced: &PassLog,
    trace: &Trace,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let spans = &trace.spans;
    let loop_ms = traced.loop_s() * 1e3;

    // Load.
    let tuples: usize = loads.iter().map(|l| l.tuples).sum();
    let insert_s: f64 = loads.iter().map(|l| l.insert_s).sum();
    m.push(metric("load.tuples_per_s", ratio(tuples as f64, insert_s), "tuples/s"));
    let publish: Vec<f64> = loads.iter().map(|l| l.publish_s * 1e3).collect();
    let publish = if w.path == Path::Service { percentile(&publish, 50.0) } else { 0.0 };
    m.push(metric("load.publish_ms", publish, "ms"));

    // Cold evaluation, by engine and by predicate depth.
    let cold: Vec<(Engine, u8, f64)> = spans
        .iter()
        .filter_map(|s| match s.kind {
            Kind::Issue(Served::Cold { engine, depth, .. }) => Some((engine, depth, s.ms())),
            _ => None,
        })
        .collect();
    let cold_ms = cold.iter().fold(0.0, |acc, c| acc + c.2);
    let cold_us: Vec<f64> = cold.iter().map(|c| c.2 * 1e3).collect();
    m.push(metric("eval.cold.calls", cold.len() as f64, "count"));
    m.push(metric("eval.cold.ms", cold_ms, "ms"));
    m.push(noted("eval.cold.share", ratio(cold_ms, loop_ms), "ratio", "of loop time".into()));
    m.push(noted("eval.cold_us.p50", percentile(&cold_us, 50.0), "us", String::new()));
    m.push(tail("eval.cold_us.tail", &cold_us, cold.len(), "us"));
    for (engine, name) in Engine::REPORTED {
        let calls: Vec<f64> = cold.iter().filter(|c| c.0 == engine).map(|c| c.2).collect();
        m.push(metric(format!("eval.{name}.calls"), calls.len() as f64, "count"));
        m.push(metric(format!("eval.{name}.ms"), sum(&calls), "ms"));
    }
    for (lo, hi, name) in
        [(2, 2, "depth2"), (3, 3, "depth3"), (4, 4, "depth4"), (5, 255, "depth5p")]
    {
        let calls: Vec<f64> =
            cold.iter().filter(|c| (lo..=hi).contains(&c.1)).map(|c| c.2).collect();
        m.push(metric(format!("eval.{name}.calls"), calls.len() as f64, "count"));
        m.push(metric(format!("eval.{name}.ms"), sum(&calls), "ms"));
    }
    let e = &trace.eval;
    m.push(metric("eval.blocks_scanned", e.blocks_scanned as f64, "count"));
    m.push(metric("eval.blocks_skipped", e.blocks_skipped as f64, "count"));
    m.push(metric("eval.pivot_advances", e.pivot_advances as f64, "count"));
    m.push(metric("eval.early_exits", e.early_exits as f64, "count"));
    m.push(metric("eval.segments_skipped", e.segments_skipped as f64, "count"));
    let visited = e.blocks_scanned + e.blocks_skipped;
    m.push(noted(
        "eval.block_skip_ratio",
        ratio(e.blocks_skipped as f64, visited as f64),
        "ratio",
        format!("of {visited} blocks visited"),
    ));

    // Memo: answers served without evaluation (private path only).
    let answers: Vec<(bool, f64)> = spans
        .iter()
        .filter_map(|s| match s.kind {
            Kind::Issue(Served::Hit(_)) => Some((true, s.ms())),
            Kind::Issue(Served::Cold { .. }) => Some((false, s.ms())),
            _ => None,
        })
        .collect();
    let hits_us: Vec<f64> = answers.iter().filter(|a| a.0).map(|a| a.1 * 1e3).collect();
    let private = w.path == Path::Private;
    let (hit_rate, hit_p50) = if private {
        (ratio(hits_us.len() as f64, answers.len() as f64), percentile(&hits_us, 50.0))
    } else {
        (0.0, 0.0)
    };
    m.push(noted("memo.hit_rate", hit_rate, "ratio", format!("of {} answers", answers.len())));
    m.push(metric("memo.hit_us.p50", hit_p50, "us"));
    let (a, b) = &trace.counters;
    m.push(metric("memo.invalidated", (b.memo.invalidated - a.memo.invalidated) as f64, "count"));
    m.push(metric("memo.retained", (b.memo.retained - a.memo.retained) as f64, "count"));
    m.push(metric("memo.demoted", (b.memo.demoted - a.memo.demoted) as f64, "count"));
    m.push(metric("memo.resurrected", (b.memo.resurrected - a.memo.resurrected) as f64, "count"));
    let failed = b.memo.revalidation_failed - a.memo.revalidation_failed;
    m.push(metric("memo.revalidation_failed", failed as f64, "count"));

    // Apply, including publish and any automatic maintenance.
    let updates: Vec<(bool, u32, f64)> = spans
        .iter()
        .filter_map(|s| match s.kind {
            Kind::Update { maintained, ops } => Some((maintained, ops, s.ms())),
            _ => None,
        })
        .collect();
    let apply_ms: Vec<f64> = updates.iter().map(|u| u.2).collect();
    let apply_total = sum(&apply_ms);
    let ops: u64 = updates.iter().map(|u| u64::from(u.1)).sum();
    let maintained: Vec<f64> = updates.iter().filter(|u| u.0).map(|u| u.2).collect();
    m.push(metric("apply.ms.p50", percentile(&apply_ms, 50.0), "ms"));
    m.push(tail("apply.ms.tail", &apply_ms, w.rounds, "ms"));
    m.push(metric("apply.ops_per_s", ratio(ops as f64, apply_total / 1e3), "ops/s"));
    m.push(noted("apply.share", ratio(apply_total, loop_ms), "ratio", "of loop time".into()));
    m.push(metric("apply.maintain_runs", maintained.len() as f64, "count"));
    m.push(noted(
        "apply.maintain_ms.p50",
        percentile(&maintained, 50.0),
        "ms",
        format!("of {} applies that maintained", maintained.len()),
    ));

    // Service: session open, shared memo, epochs.
    let (hits, misses) = (b.shared.hits - a.shared.hits, b.shared.misses - a.shared.misses);
    let lookups = hits + misses;
    m.push(metric("service.open_us.p50", percentile(&trace.open_us, 50.0), "us"));
    m.push(noted(
        "service.memo.hit_rate",
        ratio(hits as f64, lookups as f64),
        "ratio",
        format!("of {lookups} lookups"),
    ));
    m.push(metric("service.memo.retired", (b.shared.retired - a.shared.retired) as f64, "count"));
    m.push(metric("service.epochs", (b.epochs - a.epochs) as f64, "count"));

    // Session and budget.
    let mut refused = 0u64;
    let mut classes = [0u64; 3];
    for s in spans {
        match s.kind {
            Kind::Issue(Served::Refused) => refused += 1,
            Kind::Issue(Served::Hit(c) | Served::Cold { class: c, .. }) => {
                classes[match c {
                    OutcomeClass::Overflow => 0,
                    OutcomeClass::Valid => 1,
                    OutcomeClass::Underflow => 2,
                }] += 1
            }
            _ => {}
        }
    }
    let issued: u64 = classes.iter().sum();
    m.push(metric("session.issued", issued as f64, "count"));
    m.push(metric("session.refused", refused as f64, "count"));
    m.push(noted(
        "session.useful_ratio",
        ratio(issued as f64, (issued + refused) as f64),
        "ratio",
        format!("of {} issue calls", issued + refused),
    ));
    m.push(metric("session.overflow", classes[0] as f64, "count"));
    m.push(metric("session.valid", classes[1] as f64, "count"));
    m.push(metric("session.underflow", classes[2] as f64, "count"));

    // Estimators: run_round time, and self time outside `issue`.
    let mut child_ms: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if let (Kind::Issue(_), p) = (s.kind, s.parent) {
            *child_ms.entry(p).or_default() += s.ms();
        }
    }
    for (i, name) in ESTIMATORS.iter().enumerate() {
        let mut total = Vec::new();
        let mut own = Vec::new();
        for (idx, s) in spans.iter().enumerate() {
            if s.kind == Kind::Estimator(i as u8) {
                total.push(s.ms());
                own.push(s.ms() - child_ms.get(&(idx as u32)).copied().unwrap_or(0.0));
            }
        }
        m.push(metric(format!("estimator.{name}.ms.p50"), percentile(&total, 50.0), "ms"));
        m.push(metric(format!("estimator.{name}.self_ms.p50"), percentile(&own, 50.0), "ms"));
        m.push(metric(
            format!("estimator.{name}.drills_initiated"),
            trace.drills[i].0 as f64,
            "count",
        ));
        m.push(metric(
            format!("estimator.{name}.drills_updated"),
            trace.drills[i].1 as f64,
            "count",
        ));
    }

    let overhead = ratio(traced.loop_s(), untraced.loop_s());
    m.push(noted("trace.overhead", overhead, "ratio", "traced / untraced loop time".into()));
    m
}

/// What each workload was chosen to exercise, checked on a traced run.
pub fn chosen_for(w: &Workload, layers: &[Metric]) -> Vec<(String, bool)> {
    let get = |name: &str| layers.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    match w.name {
        "track_default" => vec![
            ("block-max has 0 calls".into(), get("eval.blockmax.calls") == 0.0),
            (
                "bitset makes up >= 90 % of cold calls".into(),
                get("eval.bitset.calls") >= 0.9 * get("eval.cold.calls"),
            ),
        ],
        "track_paper" => vec![(
            "block-max takes >= 30 % of cold-evaluation time".into(),
            get("eval.blockmax.ms") >= 0.3 * get("eval.cold.ms"),
        )],
        _ => vec![
            ("apply takes >= 30 % of loop time".into(), get("apply.share") >= 0.3),
            ("apply.maintain_runs > 0".into(), get("apply.maintain_runs") > 0.0),
        ],
    }
}

/// What one run found.
pub struct Outcome {
    /// No operation failed and every digest check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub reported: Vec<Metric>,
    /// Metrics printed in the table only.
    pub extra: Vec<Metric>,
}

impl Outcome {
    /// Prints the table, `failed_ratio` with its base last, then the
    /// result as the last line of stdout. `failed_ratio` is 0 on every
    /// workload by design, so it travels in the JSON as `attempted` and
    /// `failed` rather than as a compared metric.
    pub fn print(&self) {
        let failed_ratio = noted(
            "failed_ratio",
            ratio(self.failed as f64, self.attempted as f64),
            "ratio",
            format!("{} of {} operations", self.failed, self.attempted),
        );
        for m in self.reported.iter().chain(&self.extra).chain([&failed_ratio]) {
            let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
            println!("{:<34} {:>16} {}{note}", m.name, format!("{:.6}", m.value), m.unit);
        }
        let metrics: Vec<String> = self
            .reported
            .iter()
            .map(|m| {
                let value = json_number(m.value);
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A number in JSON's syntax, every digit kept. Callers reject
/// non-finite values before printing.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(240), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(60), 75.0);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&xs, 50.0), 100.0);
    }

    #[test]
    fn json_numbers_parse_back() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7).parse::<f64>().unwrap(), 1e-7);
    }
}
