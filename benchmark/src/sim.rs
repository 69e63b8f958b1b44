//! The four simulator workloads.
//!
//! End to end they are measured from outside: the real `speakup` binary
//! runs as a child process, its wall clock runs from spawn to exit with
//! stdout fully read, and its peak RSS is polled from `/proc`. The
//! traced pass replays the same command line in-process through the
//! driver's public functions with a span around each.

use crate::spec::{Metrics, SimSpec};
use crate::stats::{fnv53, median, now};
use crate::trace::Tracer;
use crate::Outcome;
use speakup_exp::driver::{self, Command};
use speakup_exp::json::Json;
use speakup_exp::registry;
use speakup_exp::RunReport;
use std::io::Read;
use std::path::Path;
use std::process::Stdio;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The `speakup run` arguments of a workload.
fn cli_args(spec: &SimSpec, seed: u64, shards: u32, jobs: usize) -> Vec<String> {
    let mut args = vec!["run".to_string(), spec.entry.to_string()];
    if let Some(secs) = spec.secs {
        args.extend(["--secs".to_string(), secs.to_string()]);
    }
    for (flag, value) in [
        ("--seed", seed),
        ("--jobs", jobs as u64),
        ("--shards", u64::from(shards)),
    ] {
        args.extend([flag.to_string(), value.to_string()]);
    }
    args.push("--json".to_string());
    args
}

/// What a report document says once split into the deterministic
/// payload and the host-dependent `perf` section.
#[derive(Debug, PartialEq)]
pub struct Report {
    /// The document minus `perf`, re-rendered: equal bytes for equal
    /// simulations, whatever the host, `--jobs` or `--shards`.
    pub payload: String,
    /// Σ `perf.runs[].events`.
    pub events: u64,
    /// Σ `perf.runs[].wall_secs`: the event loops' own wall clock.
    pub loop_s: f64,
}

/// Split and check one `speakup run --json` document: it must parse,
/// hold `grid` runs in both the payload and `perf`, every run must have
/// simulated events and served requests.
pub fn read_report(stdout: &str, grid: usize) -> Result<Report, String> {
    let Json::Obj(fields) =
        Json::parse(stdout).map_err(|e| format!("report does not parse: {e}"))?
    else {
        return Err("report is not a JSON object".into());
    };
    let (perf, payload): (Vec<_>, Vec<_>) = fields.into_iter().partition(|(k, _)| k == "perf");
    let perf_runs = match perf.first().and_then(|(_, p)| p.get("runs")) {
        Some(Json::Arr(runs)) => runs,
        _ => return Err("report has no perf.runs".into()),
    };
    let payload = Json::Obj(payload);
    let served = match payload.get("runs") {
        Some(Json::Arr(runs)) => runs
            .iter()
            .map(|r| {
                let class = |c| {
                    r.get(c)
                        .and_then(|c| c.get("served"))
                        .and_then(Json::as_u64)
                };
                Some(class("good")? + class("bad")?)
            })
            .collect::<Option<Vec<u64>>>()
            .ok_or("a run lacks good/bad served counts")?,
        _ => return Err("report has no runs".into()),
    };
    if served.len() != grid || perf_runs.len() != grid {
        return Err(format!(
            "grid has {grid} runs, report has {} and perf {}",
            served.len(),
            perf_runs.len()
        ));
    }
    if served.contains(&0) {
        return Err("a run served no request".into());
    }
    let mut report = Report {
        payload: payload.pretty(),
        events: 0,
        loop_s: 0.0,
    };
    for r in perf_runs {
        let events = r.get("events").and_then(Json::as_u64).unwrap_or(0);
        if events == 0 {
            return Err("a run simulated no events".into());
        }
        report.events += events;
        report.loop_s += r
            .get("wall_secs")
            .and_then(Json::as_f64)
            .ok_or("a run lacks wall_secs")?;
    }
    Ok(report)
}

/// 1-based line where two payloads first differ, `None` when equal.
/// The same seed must give the same payload on every rep, at every
/// `--shards`, in the child and in-process.
pub fn first_difference(a: &str, b: &str) -> Option<usize> {
    if a == b {
        return None;
    }
    let same = a.lines().zip(b.lines()).take_while(|(x, y)| x == y).count();
    Some(same + 1)
}

/// One child process, measured from outside.
struct Child {
    wall_s: f64,
    peak_rss_mb: f64,
    report: Report,
}

fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's own peak RSS.
pub fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

fn run_child(
    bin: &Path,
    spec: &SimSpec,
    seed: u64,
    shards: u32,
    grid: usize,
) -> Result<Child, String> {
    let start = now();
    let mut child = std::process::Command::new(bin)
        .args(cli_args(spec, seed, shards, 1))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let status_path = format!("/proc/{}/status", child.id());
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let done = AtomicBool::new(false);
    let (peak_rss_mb, text, status, wall_s) = std::thread::scope(|s| {
        // The last VmHWM seen before the child is reaped; /proc drops
        // the Vm lines once it exits.
        let poller = s.spawn(|| {
            let mut peak = 0.0;
            while !done.load(Ordering::SeqCst) {
                if let Some(mb) = std::fs::read_to_string(&status_path)
                    .ok()
                    .and_then(|t| vm_hwm_mb(&t))
                {
                    peak = mb;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        let mut text = String::new();
        let read = stdout.read_to_string(&mut text).map(|_| text);
        let status = child.wait();
        // The clock stops here, not after the poller's last nap.
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        (
            poller.join().expect("poller does not panic"),
            read,
            status,
            wall_s,
        )
    });
    let status = status.map_err(|e| format!("wait failed: {e}"))?;
    if !status.success() {
        return Err(format!("speakup exited with {status}"));
    }
    let text = text.map_err(|e| format!("cannot read the report: {e}"))?;
    Ok(Child {
        wall_s,
        peak_rss_mb,
        report: read_report(&text, grid)?,
    })
}

fn grid_size(spec: &SimSpec) -> usize {
    registry::find(spec.entry)
        .expect("workload names a registry entry")
        .build_grid()
        .len()
}

/// Book one child run: `grid` operations, failed when the run did or
/// when its payload is not the one this seed gave before.
fn book(
    out: &mut Outcome,
    expected: &mut Option<String>,
    grid: usize,
    run: Result<Child, String>,
) -> Option<Child> {
    out.attempted += grid as u64;
    let child = match run {
        Ok(child) => child,
        Err(why) => {
            out.fail(grid as u64, why);
            return None;
        }
    };
    let expected = expected.get_or_insert_with(|| child.report.payload.clone());
    if let Some(line) = first_difference(expected, &child.report.payload) {
        out.fail(
            grid as u64,
            format!("same seed, different payload from line {line}"),
        );
    }
    Some(child)
}

/// The untraced pass: `reps` child runs, one operation per grid run.
pub fn measure(bin: &Path, spec: &SimSpec, seed: u64, seconds: u64) -> Outcome {
    let grid = grid_size(spec);
    let mut out = Outcome::new(Metrics::end_to_end());
    let mut expected = None;
    if spec.shards > 1 {
        // Sharding must not change the outputs: an untimed single-shard
        // run of the same seed is what every timed run must reproduce.
        book(
            &mut out,
            &mut expected,
            grid,
            run_child(bin, spec, seed, 1, grid),
        );
    }
    let timed: Vec<Child> = (0..spec.reps(seconds))
        .filter_map(|_| {
            book(
                &mut out,
                &mut expected,
                grid,
                run_child(bin, spec, seed, spec.shards, grid),
            )
        })
        .collect();
    let Some(first) = timed.first() else {
        return out;
    };
    let walls: Vec<f64> = timed.iter().map(|c| c.wall_s).collect();
    let setups: Vec<f64> = timed.iter().map(|c| c.wall_s - c.report.loop_s).collect();
    out.metrics.set(
        "throughput_per_s",
        first.report.events as f64 / median(&walls),
    );
    out.metrics.set("latency_p50_ms", median(&walls) * 1e3);
    // A high-water mark: the highest of the runs, not their median. The
    // sharded runs' peak is two-valued (25.5 or 29.7 MB, by thread
    // timing), and the highest of three misses the upper value less
    // often than their median does.
    out.metrics.set(
        "peak_rss_mb",
        timed.iter().map(|c| c.peak_rss_mb).fold(0.0, f64::max),
    );
    out.metrics.set("setup_s", median(&setups));
    out
}

/// What one in-process replay of the CLI path produced.
struct Replay {
    /// Index of the replay's own span.
    span: usize,
    execute_s: f64,
    reports: Vec<RunReport>,
    /// The full document as the CLI would print it.
    printed: String,
}

impl Replay {
    /// The event loops' own wall clock, summed over the grid.
    fn loop_s(&self) -> f64 {
        self.reports.iter().map(|r| r.wall_secs).sum()
    }
}

/// Replay `speakup run ...` through the driver's public functions, a
/// span around each call.
fn replay(t: &mut Tracer, parent: usize, name: &'static str, args: &[String]) -> Replay {
    let span = t.begin(name, Some(parent));
    let at = Some(span);
    let Ok(Command::Run { names, opts, .. }) =
        t.span("exp.driver.parse", at, || driver::parse(args))
    else {
        panic!("the workload's own command line parses as a run");
    };
    let entry = t
        .span("exp.registry.find", at, || registry::find(&names[0]))
        .expect("parse checked the name");
    // `execute` builds the grid again itself; this call is what
    // `dispatch` makes for its progress line, and times the build alone.
    t.span("exp.registry.build_grid", at, || entry.build_grid());
    let run = t.span("exp.driver.execute", at, || driver::execute(entry, &opts));
    let payload = t.span("exp.driver.entry_json", at, || {
        driver::entry_json(&run, &opts)
    });
    let perf = t.span("exp.driver.perf_json", at, || driver::perf_json(&run));
    let printed = t.span("exp.json.pretty", at, || {
        payload.field("perf", perf).pretty()
    });
    t.end(span);
    Replay {
        span,
        execute_s: t.find_under("exp.driver.execute", span).secs(),
        reports: run.reports,
        printed,
    }
}

/// The traced pass: one untraced child for reference, then the replay.
pub fn trace(t: &mut Tracer, root: usize, bin: &Path, spec: &SimSpec, seed: u64) -> Outcome {
    let grid = grid_size(spec);
    let mut out = Outcome::new(Metrics::layers());
    let mut expected = None;
    let run = t.span("child.untraced", Some(root), || {
        run_child(bin, spec, seed, spec.shards, grid)
    });
    let child = book(&mut out, &mut expected, grid, run);
    let main = replay(t, root, "cli.replay", &cli_args(spec, seed, spec.shards, 1));
    let replay_s = t.spans[main.span].secs();

    let loop_s = main.loop_s();
    let events: u64 = main.reports.iter().flat_map(|r| &r.shard_events).sum();
    let on_busiest_shard: u64 = main
        .reports
        .iter()
        .map(|r| r.shard_events.iter().max().expect("a run has a shard"))
        .sum();
    let coverage = t.coverage(main.span);
    let m = &mut out.metrics;
    let secs = |name| t.find_under(name, main.span).secs();
    m.set("exp.driver.parse_s", secs("exp.driver.parse"));
    m.set("exp.registry.build_grid_s", secs("exp.registry.build_grid"));
    m.set("exp.driver.execute_s", main.execute_s);
    m.set("exp.runner.nonloop_s", main.execute_s - loop_s);
    m.set("exp.driver.entry_json_s", secs("exp.driver.entry_json"));
    m.set("exp.json.pretty_s", secs("exp.json.pretty"));
    m.set("exp.json.report_bytes", main.printed.len() as f64);
    for (kind, name) in [
        ("client", "exp.dispatch.client"),
        ("thinner", "exp.dispatch.thinner"),
        ("cohort", "exp.dispatch.cohort"),
        ("boxed", "exp.dispatch.boxed"),
    ] {
        let dispatched = main.reports.iter().flat_map(|r| &r.dispatch_counts);
        let n: u64 = dispatched.filter(|d| d.0 == kind).map(|d| d.1).sum();
        m.set(name, n as f64);
    }
    m.set("net.sim.loop_s", loop_s);
    m.set("net.sim.events", events as f64);
    m.set("net.sim.events_per_s", events as f64 / loop_s);
    // 1/shards when the shards share the events evenly, 1 when one has them all.
    m.set(
        "net.sim.shard_event_share_max",
        on_busiest_shard as f64 / events as f64,
    );
    m.set("trace.coverage", coverage);
    if let Some(c) = &child {
        m.set("run_wall_s", c.wall_s);
        m.set("trace.overhead_share", replay_s / c.wall_s - 1.0);
    }

    // The replay is one more run of the seed: same checks, same payload.
    let own = read_report(&main.printed, grid).map(|report| Child {
        wall_s: replay_s,
        peak_rss_mb: 0.0,
        report,
    });
    if let Some(own) = book(&mut out, &mut expected, grid, own) {
        out.metrics.set(
            "exp.report.payload_hash",
            fnv53(own.report.payload.as_bytes()) as f64,
        );
    }
    if spec.shards > 1 {
        let one = replay(t, root, "cli.replay.shards1", &cli_args(spec, seed, 1, 1));
        out.metrics
            .set("net.sim.shard_slowdown", loop_s / one.loop_s());
    }
    if spec.pool_probe {
        let two = replay(
            t,
            root,
            "cli.replay.jobs2",
            &cli_args(spec, seed, spec.shards, 2),
        );
        out.metrics
            .set("exp.pool.speedup_jobs2", main.execute_s / two.execute_s);
    }
    if coverage < 0.95 {
        out.fail(0, "trace.coverage is below 0.95".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(served: u64, events: u64, perf_runs: usize) -> String {
        let run = Json::obj()
            .field("name", "r")
            .field("good", Json::obj().field("served", served))
            .field("bad", Json::obj().field("served", 0u64));
        let perf = Json::obj().field("events", events).field("wall_secs", 0.5);
        Json::obj()
            .field("experiment", "x")
            .field("runs", vec![run])
            .field("perf", Json::obj().field("runs", vec![perf; perf_runs]))
            .pretty()
    }

    #[test]
    fn report_splits_into_payload_and_perf() {
        let r = read_report(&doc(3, 40, 1), 1).unwrap();
        assert_eq!((r.events, r.loop_s), (40, 0.5));
        assert!(r.payload.contains("\"experiment\": \"x\"") && !r.payload.contains("perf"));
        // Host-dependent perf numbers do not reach the payload.
        assert_eq!(r.payload, read_report(&doc(3, 99, 1), 1).unwrap().payload);
    }

    #[test]
    fn report_failures_are_named() {
        assert!(read_report("not json", 1).unwrap_err().contains("parse"));
        assert!(read_report("[]", 1).unwrap_err().contains("object"));
        assert!(read_report(&doc(3, 40, 1), 2)
            .unwrap_err()
            .contains("grid has 2"));
        assert!(read_report(&doc(3, 40, 2), 1)
            .unwrap_err()
            .contains("perf 2"));
        assert!(read_report(&doc(3, 0, 1), 1)
            .unwrap_err()
            .contains("no events"));
        assert!(read_report(&doc(0, 40, 1), 1)
            .unwrap_err()
            .contains("no request"));
        assert!(read_report("{\"runs\": []}", 0)
            .unwrap_err()
            .contains("perf.runs"));
    }

    #[test]
    fn payload_equality_points_at_the_first_differing_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_difference("a\nb\nc\n", "a\nx\nc\n"), Some(2));
        assert_eq!(first_difference("a\n", "a\nb\n"), Some(2));
    }

    #[test]
    fn command_line_carries_seed_and_shards() {
        let spec = SimSpec {
            entry: "fig2",
            secs: Some(120),
            shards: 2,
            runs: 1,
            pool_probe: false,
        };
        let args = cli_args(&spec, 7, spec.shards, 1);
        assert_eq!(
            args.join(" "),
            "run fig2 --secs 120 --seed 7 --jobs 1 --shards 2 --json"
        );
        assert!(matches!(
            driver::parse(&args),
            Ok(Command::Run {
                json_only: true,
                ..
            })
        ));
        let xl = SimSpec {
            entry: "fig2_xl",
            secs: None,
            shards: 1,
            runs: 1,
            pool_probe: false,
        };
        assert!(!cli_args(&xl, 1, 1, 1).contains(&"--secs".to_string()));
    }

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        assert_eq!(
            vm_hwm_mb("Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t3\n"),
            Some(2.0)
        );
        assert_eq!(vm_hwm_mb("Name:\tzombie\n"), None);
        assert!(own_peak_rss_mb() > 0.0);
    }
}
