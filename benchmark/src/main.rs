//! `speakup-benchmark`: end-to-end and per-layer numbers for the
//! simulator (`speakup run`) and the loopback proxy, from outside.
//!
//! Two ways in, one code path (see `README.md`):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   once and prints one JSON result line — the driver's contract;
//! * without `--workload` it runs all six that way, each run in a
//!   process of its own, untraced then traced, prints every metric by
//!   name with its unit, and writes `out/report.json` and
//!   `out/trace.json`; `--twice` repeats the untraced set and fails if
//!   two medians of one metric differ by more than its bound.

mod micro;
mod proxy;
mod sim;
mod spec;
mod stats;
mod trace;

use speakup_exp::json::Json;
use spec::{Kind, Metrics, Workload, END_TO_END, LAYERS, RUN_SECONDS, SIM_SEED, WORKLOADS};
use stats::{median, quartiles, spread, within_bound, worse_by};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// What one run of one workload produced.
pub struct Outcome {
    /// Operations tried: grid runs (sim) or fetches (proxy).
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, in words; empty when the outputs are correct.
    pub why: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn new(metrics: Metrics) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            why: Vec::new(),
            metrics,
        }
    }

    /// Record a failure covering `ops` operations (0 for a failure of
    /// the workload as a whole).
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.why.push(why);
    }

    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            self.fail(0, why);
        }
    }

    pub fn correct(&self) -> bool {
        self.why.is_empty()
    }

    /// The driver's result line.
    fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .all()
            .into_iter()
            .fold(Json::obj(), |o, (name, value)| {
                o.field(
                    name,
                    Json::obj()
                        .field("value", value)
                        .field("unit", spec::unit_of(name)),
                )
            });
        let doc = Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failed)
            .field("metrics", metrics);
        // One line: the pretty form with its line breaks folded away
        // (no string in it holds a newline).
        doc.pretty().lines().map(str::trim_start).collect()
    }
}

/// Run one workload once. Traced runs also hand back their spans.
fn run_workload(w: &Workload, a: &Args, seed: u64, traced: bool) -> (Outcome, Option<Tracer>) {
    if !traced {
        let out = match &w.kind {
            Kind::Sim(s) => sim::measure(&a.speakup, s, SIM_SEED, a.seconds),
            Kind::Proxy(p) => proxy::measure(p, seed, a.seconds),
        };
        return (out, None);
    }
    let mut t = Tracer::new(w.name);
    let root = t.begin("workload", None);
    let mut out = match &w.kind {
        Kind::Sim(s) => sim::trace(&mut t, root, &a.speakup, s, SIM_SEED),
        Kind::Proxy(p) => proxy::trace(&mut t, root, p, seed, a.seconds),
    };
    let benches = layer_benches(&mut t, root, w.name, seed, &mut out.metrics);
    out.check(benches);
    out.metrics.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    t.end(root);
    (out, Some(t))
}

/// The micro-benchmarks and probes of one traced run: each runs beside
/// the workload whose end-to-end number it should move (the `moves`
/// column in `spec.rs`) and reads 0 in the other runs, like any layer a
/// workload bypasses.
fn layer_benches(
    t: &mut Tracer,
    root: usize,
    workload: &str,
    seed: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    match workload {
        "fig2_packet" => micro::packet_path(t, root, seed, m),
        "fig7_longrtt" => micro::long_timers(t, root, seed, m),
        "fig2_xl_crowd" => micro::crowd(t, root, seed, m)?,
        "fig2_sharded" => micro::digest(t, root, seed, m),
        "proxy_serve" => {
            micro::request_path(t, root, m);
            let ms = t.span("probe.proxy.first_byte", Some(root), || {
                proxy::first_byte_ms(seed)
            })?;
            m.set("proxy.first_byte_ms.p50", ms);
        }
        "proxy_pay" => {
            micro::payment_body(t, root, m);
            let [w120, w1500, w65536] = t.span("probe.proxy.sink_sweep", Some(root), || {
                proxy::sink_sweep(seed)
            })?;
            m.set("proxy.sink_mbit_per_s.w120", w120);
            m.set("proxy.sink_mbit_per_s.w1500", w1500);
            m.set("proxy.sink_mbit_per_s.w65536", w65536);
        }
        _ => {}
    }
    Ok(())
}

fn write_out(name: &str, doc: &Json) -> Result<(), String> {
    let dir = Path::new("benchmark/out");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(name), doc.pretty()))
        .map_err(|e| format!("benchmark/out/{name}: {e}"))
}

struct Args {
    speakup: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    twice: bool,
    runs: u64,
    emit_contract: bool,
}

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--runs K] [--twice]
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
       benchmark/run.sh --emit-contract

The first form runs every workload (untraced K times per set, default 1,
seeds N..N+K-1; then traced once), prints every metric and writes
benchmark/out/report.json and trace.json; --twice measures two sets and
fails if two medians of an end-to-end metric differ, either way, by more
than its bound. The second form is the driver's: one workload, one JSON
line.

--seed feeds what the benchmark generates: proxy service times, request
ids, the micro-benchmarks' operation mixes. The simulated trajectories
are part of the sim workloads (`speakup run --seed 1`, see spec.rs).";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        speakup: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        twice: false,
        runs: 1,
        emit_contract: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{what} needs a whole number"))
        };
        match flag.as_str() {
            "--seed" => a.seed = number("--seed")?,
            "--seconds" => a.seconds = number("--seconds")?.max(1),
            "--runs" => a.runs = number("--runs")?.max(1),
            "--trace" => a.trace = number("--trace")? != 0,
            "--twice" => a.twice = true,
            "--emit-contract" => a.emit_contract = true,
            "--workload" => a.workload = Some(it.next().ok_or("--workload needs a name")?.clone()),
            "--speakup" => a.speakup = it.next().ok_or("--speakup needs a path")?.into(),
            other => return Err(format!("unknown argument {other}\n\n{USAGE}")),
        }
    }
    Ok(a)
}

/// The driver's form: one workload, one result line.
fn run_one(a: &Args, name: &str) -> Result<bool, String> {
    let w = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let (out, tracer) = run_workload(w, a, a.seed, a.trace);
    if let Some(t) = tracer {
        write_out("trace.json", &Json::Arr(t.to_json()))?;
    }
    for why in &out.why {
        eprintln!("{name}: FAILED: {why}");
    }
    println!("{}", out.to_json_line());
    Ok(out.correct())
}

/// A result line read back.
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Line {
    fn parse(line: &str) -> Result<Line, String> {
        let doc = Json::parse(line).map_err(|e| format!("result line does not parse: {e}"))?;
        let count = |key| doc.get(key).and_then(Json::as_u64);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("result line has no metrics".into());
        };
        Ok(Line {
            correct: doc.get("correct") == Some(&Json::Bool(true)),
            attempted: count("attempted").ok_or("result line has no attempted")?,
            failed: count("failed").ok_or("result line has no failed")?,
            metrics: metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        })
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Run one workload the way the driver does: this binary again, in a
/// process of its own, so every run starts from the same state whatever
/// ran before it (peak RSS is per process; a proxy spawned into a heap
/// a 560 MB replay left behind is not the proxy a user starts).
fn run_in_child(a: &Args, w: &Workload, seed: u64, traced: bool) -> Result<Line, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = std::process::Command::new(me)
        .arg("--speakup")
        .arg(&a.speakup)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{} printed no result", w.name))?;
    Line::parse(line)
}

fn summary(values: &[f64]) -> Json {
    let doc = Json::obj()
        .field("median", median(values))
        .field("samples", values.len());
    match quartiles(values) {
        Some((q1, q3)) => doc
            .field("q1", q1)
            .field("q3", q3)
            .field("spread", spread(values).unwrap_or(0.0)),
        None => doc,
    }
}

/// Whether two medians of one metric, measured on the same code, agree:
/// a second set better than the first by more than the bound is as
/// unrepeatable as one that is worse.
fn agree(m: &spec::EndToEnd, first: f64, second: f64) -> bool {
    within_bound(first, second, m.better, m.bound, m.abs_floor)
        && within_bound(second, first, m.better, m.bound, m.abs_floor)
}

/// One end-to-end metric on one workload: print its line, say whether
/// the two sets (if there are two) agree, and return its report entry.
fn compare_sets(m: &spec::EndToEnd, sets: &[Vec<Line>], ok: &mut bool) -> Json {
    let of =
        |set: &Vec<Line>| -> Vec<f64> { set.iter().filter_map(|line| line.get(m.name)).collect() };
    let first = of(&sets[0]);
    let mut line = format!("   {:<18} {:>14.4} {:<5}", m.name, median(&first), m.unit);
    if let Some(s) = spread(&first) {
        line += &format!(" spread {:5.2} %", s * 100.0);
    }
    let mut doc = Json::obj()
        .field("unit", m.unit)
        .field("first", summary(&first));
    if let Some(second) = sets.get(1).map(of) {
        let (a, b) = (median(&first), median(&second));
        let within = agree(m, a, b);
        line += &format!(
            " | second {b:.4}: {:+.2} % worse, bound {:.0} % either way -> {}",
            worse_by(a, b, m.better) * 100.0,
            m.bound * 100.0,
            if within { "ok" } else { "NOT REPEATABLE" }
        );
        *ok &= within;
        doc = doc
            .field("second", summary(&second))
            .field("repeatable", within);
    }
    println!("{line}");
    doc
}

/// One workload of the full set: untraced (`runs` per set, one or two
/// sets), then traced. Prints as it goes, appends the traced run's
/// spans, and returns the workload's report entry.
fn run_suite_workload(
    a: &Args,
    w: &Workload,
    spans: &mut Vec<Json>,
    ok: &mut bool,
) -> Result<Json, String> {
    println!("\n== {} ==\n   {}", w.name, w.why);
    let mut sets: Vec<Vec<Line>> = Vec::new();
    for _ in 0..if a.twice { 2 } else { 1 } {
        let seeds = a.seed..a.seed + a.runs;
        let set = seeds.map(|seed| run_in_child(a, w, seed, false));
        sets.push(set.collect::<Result<_, _>>()?);
    }
    let (mut attempted, mut failed) = (0, 0);
    for line in sets.iter().flatten() {
        *ok &= line.correct;
        attempted += line.attempted;
        failed += line.failed;
    }
    let end_to_end = END_TO_END.iter().fold(Json::obj(), |doc, m| {
        doc.field(m.name, compare_sets(m, &sets, ok))
    });
    println!(
        "   {:<18} {:>14.4} ratio ({failed} of {attempted} operations)",
        "failed_share",
        failed as f64 / attempted as f64
    );

    let traced = run_in_child(a, w, a.seed, true)?;
    *ok &= traced.correct;
    let mut per_layer = Json::obj();
    for (name, value) in &traced.metrics {
        println!("   {name:<34} {value:>24.6} {}", spec::unit_of(name));
        per_layer = per_layer.field(name, *value);
    }
    // The child left its spans in trace.json; keep them before the next
    // child overwrites the file.
    let text = std::fs::read_to_string("benchmark/out/trace.json")
        .map_err(|e| format!("benchmark/out/trace.json: {e}"))?;
    match Json::parse(&text)? {
        Json::Arr(more) => spans.extend(more),
        _ => return Err("benchmark/out/trace.json is not an array of spans".into()),
    }
    Ok(Json::obj()
        .field("name", w.name)
        .field("why", w.why)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("end_to_end", end_to_end)
        .field("per_layer", per_layer))
}

/// The full set: every workload, then the report.
fn run_suite(a: &Args) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "speakup-benchmark: seed {}, sim seed {SIM_SEED}, {} s per run, {} run(s) per set, {cores} cores",
        a.seed, a.seconds, a.runs
    );
    let mut ok = true;
    let mut spans = Vec::new();
    let workloads = WORKLOADS
        .iter()
        .map(|w| run_suite_workload(a, w, &mut spans, &mut ok))
        .collect::<Result<Vec<Json>, String>>()?;
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            m.to_json()
                .field("abs_floor", m.abs_floor)
                .field("what", m.what)
        })
        .collect();
    let per_layer: Vec<Json> = LAYERS
        .iter()
        .map(|m| m.to_json().field("moves", m.moves))
        .collect();
    let report = Json::obj()
        .field("host_cores", cores)
        .field("seed", a.seed)
        .field("sim_seed", SIM_SEED)
        .field("run_seconds", a.seconds)
        .field("runs_per_set", a.runs)
        .field("sets", if a.twice { 2u64 } else { 1 })
        .field("end_to_end", end_to_end)
        .field("per_layer", per_layer)
        .field("workloads", workloads);
    write_out("report.json", &report)?;
    write_out("trace.json", &Json::Arr(spans))?;
    println!("\nwrote benchmark/out/report.json and benchmark/out/trace.json");
    if ok {
        println!("all checks passed");
    } else {
        println!("FAILED: see the lines marked FAILED or NOT REPEATABLE above");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|a| {
        if a.emit_contract {
            print!("{}", spec::contract().pretty());
            return Ok(true);
        }
        if !a.speakup.is_file() {
            return Err(format!(
                "--speakup {:?} is not a file; run benchmark/run.sh, which builds it",
                a.speakup
            ));
        }
        match &a.workload {
            Some(name) => run_one(&a, name),
            None => run_suite(&a),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("speakup-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut out = Outcome::new(Metrics::end_to_end());
        out.attempted = 30;
        out.metrics.set("setup_s", 0.8127);
        let line = out.to_json_line();
        assert!(!line.contains('\n'));
        let Json::Obj(fields) = Json::parse(&line).expect("the line is JSON") else {
            panic!("the line is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = metrics
            .iter()
            .find(|(k, _)| k == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.1.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.1.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn result_line_reads_back() {
        let mut out = Outcome::new(Metrics::end_to_end());
        out.attempted = 30;
        out.metrics.set("latency_p50_ms", 5.25);
        let line = Line::parse(&out.to_json_line()).unwrap();
        assert!(line.correct && line.attempted == 30 && line.failed == 0);
        assert_eq!(line.get("latency_p50_ms"), Some(5.25));
        assert_eq!(line.get("setup_s"), Some(0.0));
        assert_eq!(line.metrics.len(), END_TO_END.len());
        out.fail(2, "two runs differ".into());
        assert!(!Line::parse(&out.to_json_line()).unwrap().correct);
        assert!(Line::parse("{}").is_err() && Line::parse("nonsense").is_err());
    }

    #[test]
    fn a_failed_check_makes_the_outcome_incorrect() {
        let mut out = Outcome::new(Metrics::layers());
        out.check(Ok(()));
        assert!(out.correct());
        out.check(Err("credited more than sent".into()));
        out.fail(3, "three runs differ".into());
        assert!(!out.correct() && out.failed == 3 && out.why.len() == 2);
        assert!(out.to_json_line().contains("\"correct\": false"));
    }

    #[test]
    fn two_sets_disagree_when_either_is_far_from_the_other() {
        let latency = END_TO_END
            .iter()
            .find(|m| m.name == "latency_p50_ms")
            .unwrap();
        assert!(agree(latency, 10.0, 10.5) && agree(latency, 10.5, 10.0));
        assert!(!agree(latency, 10.0, 13.0), "30 % worse");
        assert!(!agree(latency, 13.0, 10.0), "30 % better");
        // setup_s keeps its 20 ms floor in both directions.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(agree(setup, 0.015, 0.030) && agree(setup, 0.030, 0.015));
        assert!(!agree(setup, 0.015, 0.040) && !agree(setup, 0.040, 0.015));
    }

    #[test]
    fn arguments_parse_in_both_forms() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&[
            "--workload",
            "proxy_pay",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("proxy_pay"), 7, 15, true)
        );
        let a = parse_args(&s(&["--twice", "--runs", "10"])).unwrap();
        assert!(a.workload.is_none() && a.twice && a.runs == 10 && a.seed == 1);
        assert!(parse_args(&s(&["--seed"])).is_err());
        assert!(parse_args(&s(&["--frobnicate"])).is_err());
    }
}
