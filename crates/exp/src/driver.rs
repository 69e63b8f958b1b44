//! The unified experiment driver behind the `speakup` binary.
//!
//! Replaces the twelve former one-figure binaries with subcommands over
//! the [`crate::registry`]:
//!
//! ```text
//! speakup list [--json]
//! speakup run <name>... | all [--secs N] [--seed N] [--seeds K]
//!             [--jobs N] [--shards K] [--json]
//! speakup compare <golden.json>... [--jobs N] [--shards K]
//! ```
//!
//! `run` instantiates the entry's scenario grid and drives every grid
//! point × seed replicate through the worker pool
//! ([`crate::runner::run_all_pooled`]), each run optionally split over
//! `--shards K` synchronized event loops. It prints the figure's human
//! table (mean ± 95% CI across replicates when `--seeds > 1`), a
//! per-replicate summary, and a machine-readable JSON report; `--json`
//! suppresses the tables. `compare` re-runs a committed golden report
//! and fails on any leaf of the payload that differs
//! ([`crate::compare`]). The argument parsing is dependency-free,
//! absorbing what `cli.rs` used to provide for each binary.

use crate::json::Json;
use crate::registry::{registry, Entry, Kind, RunOptions};
use crate::report::{frac, table, Reps};
use crate::runner::{default_jobs, run_all_pooled, RunReport};
use crate::scenario::{FaultSpec, Scenario};
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::trace::Samples;

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `speakup list`: describe every registry entry.
    List {
        /// Emit JSON instead of the table.
        json: bool,
    },
    /// `speakup run <names>`: execute entries.
    Run {
        /// Entry names, already validated against the registry.
        names: Vec<String>,
        /// Shared run options.
        opts: RunOptions,
        /// Emit only JSON (no human tables).
        json_only: bool,
    },
    /// `speakup compare <golden.json>...`: re-run committed golden
    /// reports and require them back exactly.
    Compare {
        /// Golden report paths.
        paths: Vec<String>,
        /// Worker pool size override.
        jobs: Option<usize>,
        /// Shard count for the re-runs.
        shards: u32,
    },
    /// `speakup lint`: run the determinism-audit static analysis over
    /// the workspace sources.
    Lint {
        /// Workspace root override (default: ascend from cwd).
        root: Option<String>,
        /// Emit diagnostics as JSON.
        json: bool,
    },
    /// `speakup help`.
    Help,
}

/// CLI usage text.
pub const USAGE: &str = "\
speakup — drive the paper's experiments from one binary

USAGE:
    speakup list [--json]
    speakup run <name>... | all [--secs N] [--seed N] [--seeds K]
                [--jobs N] [--shards K] [--thinners R] [--sync-period MS]
                [--faults SPEC] [--fault-seed N] [--json]
    speakup compare <golden.json>... [--jobs N] [--shards K]
    speakup lint [--root <dir>] [--json]
    speakup help

OPTIONS (run):
    --secs N    simulated seconds per run (default: the entry's paper value)
    --seed N    base RNG seed (default 0x5ea4); replicate k uses seed+k
    --seeds K   seed replicates per grid point (default 1); with K > 1 the
                figure tables report mean ± 95% CI across replicates
    --jobs N    worker pool size for grid points × replicates
                (default: available cores / loops per run)
    --shards K  shard event loops per run: the thinner replica islands
                split across min(K, R) synchronized loops (default 1), so
                a single-thinner run uses one. Reports are byte-identical
                for every K; only wall-clock time changes.
    --thinners R
                override the thinner replica count of every auction-mode
                grid point: the virtual auction runs on R replicas
                exchanging epoch bid digests (default: the scenario's
                own count, usually 1). Non-auction grid points keep
                their single thinner.
    --sync-period MS
                override the replica digest-sync cadence, milliseconds
                (only meaningful with more than one thinner)
    --faults SPEC
                inject deterministic faults into every run. SPEC is a
                comma-separated list of `replica=<idx>@<at_s>+<down_s>`
                entries: crash thinner replica <idx> at <at_s> simulated
                seconds for <down_s> seconds. A crash entry applies only
                to grid points with more than <idx> replicas; repeated
                --faults flags accumulate.
    --fault-seed N
                additionally flap every client uplink on a seed-N
                randomized schedule (Poisson onsets, mean 10 s between
                flaps, mean 200 ms down). The schedule derives from N
                alone, so a run is reproducible from its command line.
    --json      print only the machine-readable JSON report

OPTIONS (compare):
    re-runs each golden with the options its header records and fails
    on any leaf that differs (the host-dependent `perf` section is
    dropped first); --jobs and --shards are as for run

OPTIONS (lint):
    --root DIR  workspace root to scan (default: ascend from cwd to the
                first Cargo.toml declaring [workspace])
    --json      emit the diagnostics as a JSON array

Repeated flags follow a last-wins policy: `--jobs 2 --jobs 4` runs with
4 workers. `--secs 0` is rejected (a zero-length run has no rates).

Run `speakup list` for the experiment names and their paper sections.";

/// A flag's numeric argument (any value).
fn flag_num(flag: &str, v: Option<&&String>) -> Result<u64, String> {
    v.and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

/// A flag's numeric argument, required to be at least 1.
fn flag_positive(flag: &str, v: Option<&&String>) -> Result<u64, String> {
    flag_num(flag, v).and_then(|n| {
        if n == 0 {
            Err(format!("{flag} must be at least 1"))
        } else {
            Ok(n)
        }
    })
}

/// `--secs N`: a zero-length run has no time base, so every rate and
/// utilization would be NaN (serialized as JSON `null`, which `compare`
/// would then misread as structure drift). Rejected up front, as is any
/// value too large for the nanosecond clock (no silent wrap).
fn parse_secs(v: Option<&&String>) -> Result<SimDuration, String> {
    let n = flag_num("--secs", v)?;
    if n == 0 {
        return Err(
            "--secs must be at least 1: a zero-second run has no time base, so rates \
             and utilization would be NaN"
                .into(),
        );
    }
    let nanos = n
        .checked_mul(speakup_net::time::NANOS_PER_SEC)
        .ok_or_else(|| format!("--secs {n} does not fit the nanosecond simulation clock"))?;
    Ok(SimDuration::from_nanos(nanos))
}

/// `--jobs N`: shared by the run and compare subcommands. The checked
/// conversion matters on 16/32-bit targets, where a huge u64 would
/// otherwise truncate silently.
fn parse_jobs(v: Option<&&String>) -> Result<usize, String> {
    let n = flag_positive("--jobs", v)?;
    usize::try_from(n).map_err(|_| format!("--jobs {n} does not fit this platform's usize"))
}

/// `--shards K`: shared by the run and compare subcommands. Checked
/// like `--jobs` — out-of-range values error instead of truncating.
fn parse_shards(v: Option<&&String>) -> Result<u32, String> {
    let n = flag_positive("--shards", v)?;
    u32::try_from(n).map_err(|_| format!("--shards {n} does not fit in 32 bits"))
}

/// `--faults SPEC`: comma-separated fault entries, each
/// `replica=<idx>@<at_s>+<down_s>` (integer simulated seconds). The
/// flags accumulate instead of last-wins: a sweep may crash two
/// different replicas in one run.
fn parse_faults(v: Option<&&String>) -> Result<Vec<FaultSpec>, String> {
    const SHAPE: &str = "replica=<idx>@<at_s>+<down_s>";
    let spec = v.ok_or_else(|| format!("--faults needs a spec ({SHAPE})"))?;
    let secs_ns = |what: &str, s: &str| -> Result<u64, String> {
        s.parse::<u64>()
            .ok()
            .and_then(|n| n.checked_mul(speakup_net::time::NANOS_PER_SEC))
            .ok_or_else(|| format!("--faults: {what} {s:?} must fit the nanosecond clock"))
    };
    let mut out = Vec::new();
    for part in spec.split(',') {
        let rest = part
            .strip_prefix("replica=")
            .ok_or_else(|| format!("--faults: unsupported entry {part:?} (expected {SHAPE})"))?;
        let (idx, timing) = rest
            .split_once('@')
            .ok_or_else(|| format!("--faults: entry {part:?} has no @<at_s> (expected {SHAPE})"))?;
        let (at, down) = timing.split_once('+').ok_or_else(|| {
            format!("--faults: entry {part:?} has no +<down_s> (expected {SHAPE})")
        })?;
        let replica = idx
            .parse::<u32>()
            .map_err(|_| format!("--faults: replica index {idx:?} must be a u32"))?;
        let down_ns = secs_ns("outage", down)?;
        if down_ns == 0 {
            return Err(format!(
                "--faults: entry {part:?} has a zero-length outage (a crash must keep \
                 the replica down for at least a second)"
            ));
        }
        out.push(FaultSpec::ReplicaCrash {
            replica,
            at: SimTime::from_nanos(secs_ns("crash time", at)?),
            down_for: SimDuration::from_nanos(down_ns),
        });
    }
    Ok(out)
}

/// Parse a command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => {
            let mut json = false;
            for a in it {
                match a.as_str() {
                    "--json" => json = true,
                    other => return Err(format!("unknown argument for list: {other}")),
                }
            }
            Ok(Command::List { json })
        }
        "run" => {
            let mut names: Vec<String> = Vec::new();
            let mut opts = RunOptions::default();
            let mut json_only = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--secs" => {
                        opts.duration = Some(parse_secs(rest.get(i + 1))?);
                        i += 2;
                    }
                    "--seed" => {
                        opts.seed = flag_num("--seed", rest.get(i + 1))?;
                        i += 2;
                    }
                    "--seeds" => {
                        let k = flag_positive("--seeds", rest.get(i + 1))?;
                        opts.seeds = u32::try_from(k)
                            .map_err(|_| format!("--seeds {k} does not fit in 32 bits"))?;
                        i += 2;
                    }
                    "--jobs" => {
                        opts.jobs = Some(parse_jobs(rest.get(i + 1))?);
                        i += 2;
                    }
                    "--shards" => {
                        opts.shards = parse_shards(rest.get(i + 1))?;
                        i += 2;
                    }
                    "--thinners" => {
                        let n = flag_positive("--thinners", rest.get(i + 1))?;
                        opts.thinners = Some(
                            u32::try_from(n)
                                .map_err(|_| format!("--thinners {n} does not fit in 32 bits"))?,
                        );
                        i += 2;
                    }
                    "--sync-period" => {
                        let ms = flag_positive("--sync-period", rest.get(i + 1))?;
                        let nanos = ms.checked_mul(1_000_000).ok_or_else(|| {
                            format!("--sync-period {ms} does not fit the nanosecond clock")
                        })?;
                        opts.sync_period = Some(SimDuration::from_nanos(nanos));
                        i += 2;
                    }
                    "--faults" => {
                        opts.faults.extend(parse_faults(rest.get(i + 1))?);
                        i += 2;
                    }
                    "--fault-seed" => {
                        let seed = flag_num("--fault-seed", rest.get(i + 1))?;
                        opts.faults.push(FaultSpec::LinkFlaps {
                            seed,
                            mean_every: SimDuration::from_secs(10),
                            mean_down: SimDuration::from_millis(200),
                        });
                        i += 2;
                    }
                    "--json" => {
                        json_only = true;
                        i += 1;
                    }
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown argument for run: {flag}"));
                    }
                    name => {
                        names.push(name.to_string());
                        i += 1;
                    }
                }
            }
            if names.is_empty() {
                return Err("run needs at least one experiment name (or `all`)".into());
            }
            if names.iter().any(|n| n == "all") {
                names = registry().iter().map(|e| e.name.to_string()).collect();
            } else {
                for n in &names {
                    if crate::registry::find(n).is_none() {
                        let known: Vec<&str> = registry().iter().map(|e| e.name).collect();
                        return Err(format!(
                            "unknown experiment {n}; known: {}",
                            known.join(", ")
                        ));
                    }
                }
            }
            Ok(Command::Run {
                names,
                opts,
                json_only,
            })
        }
        "compare" => {
            let mut paths = Vec::new();
            let mut jobs = None;
            let mut shards = 1u32;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--jobs" => {
                        jobs = Some(parse_jobs(rest.get(i + 1))?);
                        i += 2;
                    }
                    "--shards" => {
                        shards = parse_shards(rest.get(i + 1))?;
                        i += 2;
                    }
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown argument for compare: {flag}"));
                    }
                    p => {
                        paths.push(p.to_string());
                        i += 1;
                    }
                }
            }
            if paths.is_empty() {
                return Err("compare needs at least one golden report path".into());
            }
            Ok(Command::Compare {
                paths,
                jobs,
                shards,
            })
        }
        "lint" => {
            let mut root = None;
            let mut json = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--root" => {
                        root = Some(
                            rest.get(i + 1)
                                .ok_or("--root needs a directory")?
                                .to_string(),
                        );
                        i += 2;
                    }
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown argument for lint: {other}")),
                }
            }
            Ok(Command::Lint { root, json })
        }
        other => Err(format!("unknown subcommand {other}\n\n{USAGE}")),
    }
}

/// Everything produced by executing one entry.
pub struct EntryRun {
    /// The registry entry.
    pub entry: &'static Entry,
    /// The instantiated grid (paper defaults overridden by options).
    pub scenarios: Vec<Scenario>,
    /// All reports, grid-major then seed-minor (empty for analytic).
    pub reports: Vec<RunReport>,
    /// Seed replicates per grid point.
    pub seeds: u32,
    /// The rendered human output.
    pub table: String,
    /// Analytic entries' extra JSON payload.
    analytic_json: Option<Json>,
    /// Analytic entries' host wall-clock figures, for `perf`.
    analytic_perf: Option<Json>,
}

/// Execute one entry: instantiate its grid with the options, run every
/// grid point × replicate through the worker pool (each run split over
/// `opts.shards` event loops), and render its tables.
pub fn execute(entry: &'static Entry, opts: &RunOptions) -> EntryRun {
    match entry.kind {
        Kind::Sim { render, .. } => {
            let duration = opts.duration_for(entry);
            let grid = entry.build_grid();
            let mut all: Vec<Scenario> = Vec::with_capacity(grid.len() * opts.seeds as usize);
            for sc in &grid {
                for k in 0..opts.seeds {
                    let mut replicate = sc.clone();
                    replicate.duration = duration;
                    replicate.seed = opts.seed + k as u64;
                    // Replication coordinates through auction bid
                    // digests, so the override only touches auction-mode
                    // grid points; OFF/retry/profile points in the same
                    // grid keep their single thinner.
                    if let Some(r) = opts.thinners {
                        if matches!(replicate.mode, crate::scenario::Mode::Auction) {
                            replicate.thinners = r;
                        }
                    }
                    if let Some(p) = opts.sync_period {
                        replicate.sync_period = p;
                    }
                    // Fault overrides: a replica crash only makes sense
                    // on grid points that actually run that replica
                    // (non-auction or low-R points are left fault-free
                    // rather than rejected, so `run all --faults ...`
                    // works); link flaps apply to every point.
                    for f in &opts.faults {
                        match *f {
                            FaultSpec::ReplicaCrash { replica, .. } => {
                                if replica < replicate.thinners {
                                    replicate.faults.push(*f);
                                }
                            }
                            FaultSpec::LinkFlaps { .. } => replicate.faults.push(*f),
                        }
                    }
                    all.push(replicate);
                }
            }
            let jobs = opts.jobs.unwrap_or_else(|| default_jobs(&all, opts.shards));
            let reports = run_all_pooled(&all, jobs, opts.shards);
            let groups: Vec<Reps> = reports.chunks(opts.seeds as usize).map(Reps).collect();
            let mut text = render(&grid, &groups);
            if opts.seeds > 1 {
                text.push_str(&replicate_table(&reports));
            }
            EntryRun {
                entry,
                scenarios: all,
                reports,
                seeds: opts.seeds,
                table: text,
                analytic_json: None,
                analytic_perf: None,
            }
        }
        Kind::Analytic { run } => {
            let (text, json, perf) = run(opts);
            EntryRun {
                entry,
                scenarios: Vec::new(),
                reports: Vec::new(),
                // Analytic entries measure once; reporting the requested
                // replicate count would claim measurements never taken.
                seeds: 1,
                table: text,
                analytic_json: Some(json),
                analytic_perf: perf,
            }
        }
    }
}

/// A per-replicate summary across all runs (printed when `--seeds > 1`).
fn replicate_table(reports: &[RunReport]) -> String {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:#x}", r.seed),
                r.mode.clone(),
                frac(r.good_fraction()),
                frac(r.good_served_fraction()),
                frac(r.server_utilization),
            ]
        })
        .collect();
    format!(
        "\nSeed replicates ({} runs):\n{}",
        reports.len(),
        table(
            &[
                "scenario",
                "seed",
                "mode",
                "alloc good",
                "good served",
                "util"
            ],
            &rows
        )
    )
}

fn samples_json(s: &Samples) -> Json {
    let mut s = s.clone();
    if s.is_empty() {
        return Json::obj().field("n", 0u64);
    }
    Json::obj()
        .field("n", s.len())
        .field("mean", s.mean())
        .field("stddev", s.stddev())
        .field("p50", s.percentile(50.0))
        .field("p90", s.percentile(90.0))
        .field("min", s.min())
        .field("max", s.max())
}

fn class_json(c: &speakup_core::metrics::ClassReport) -> Json {
    Json::obj()
        .field("clients", c.clients)
        .field("generated", c.generated)
        .field("issued", c.issued)
        .field("served", c.served)
        .field("denied", c.denied)
        .field("served_fraction", c.served_fraction())
        .field("latency_s", samples_json(&c.latency))
        .field("payment_bytes", samples_json(&c.payment_bytes))
        .field("payment_time_s", samples_json(&c.payment_time))
}

/// Serialize one run report.
pub fn report_json(r: &RunReport) -> Json {
    let per_client: Vec<Json> = r
        .per_client
        .iter()
        .map(|pc| {
            Json::obj()
                .field("generated", pc.generated)
                .field("served", pc.served)
                .field("denied", pc.denied)
                .field("is_bad", pc.is_bad)
                .field("behind_bottleneck", pc.behind_bottleneck)
        })
        .collect();
    let mut doc = Json::obj()
        .field("name", r.name.as_str())
        .field("mode", r.mode.as_str())
        .field("seed", r.seed);
    // Replication fields appear only for replicated runs, so
    // single-thinner reports (and every committed pre-replica golden)
    // stay byte-identical.
    if r.thinners > 1 {
        doc = doc
            .field("thinners", r.thinners)
            .field("sync_period_ms", r.sync_period.as_nanos() / 1_000_000);
    }
    doc.field("duration_s", r.duration_s)
        .field("good", class_json(&r.good))
        .field("bad", class_json(&r.bad))
        .field(
            "allocation",
            Json::obj()
                .field("good", r.allocation.good)
                .field("bad", r.allocation.bad)
                .field("good_fraction", r.good_fraction()),
        )
        .field(
            "quanta",
            Json::obj()
                .field("good", r.quanta.good)
                .field("bad", r.quanta.bad),
        )
        .field("price_good_bytes", samples_json(&r.price_good))
        .field("price_bad_bytes", samples_json(&r.price_bad))
        .field("server_utilization", r.server_utilization)
        .field("payment_bytes_total", r.payment_bytes_total)
        .field("thinner_drops", r.thinner_drops)
        .field(
            "wget_latencies_s",
            match &r.wget_latencies {
                Some(s) => samples_json(s),
                None => Json::Null,
            },
        )
        .field("per_client", per_client)
}

/// Wall-clock throughput of one executed entry's runs (and an analytic
/// entry's host-timed rows, under `analysis`), as the CLI-only `perf`
/// section. Host- and load-dependent, so it is attached by
/// [`dispatch`] after [`entry_json`] builds the deterministic payload —
/// the goldens and the shard-invariance tests compare the latter and
/// must stay byte-identical across machines and `--shards`.
pub fn perf_json(run: &EntryRun) -> Json {
    let runs: Vec<Json> = run
        .reports
        .iter()
        .map(|r| {
            let per_shard =
                |counts: &[u64]| counts.iter().map(|&n| Json::from(n)).collect::<Vec<_>>();
            let events: u64 = r.shard_events.iter().sum();
            let ends = r.window_ends;
            // Every shard loop takes part in every window.
            let windows = (ends.by_peer + ends.by_own_send + ends.by_until + ends.by_floor)
                / r.shard_events.len() as u64;
            let dispatch = r
                .dispatch_counts
                .iter()
                .fold(Json::obj(), |o, &(name, count)| o.field(name, count));
            Json::obj()
                .field("name", r.name.as_str())
                .field("seed", r.seed)
                .field("events", events)
                .field("wall_secs", r.wall_secs)
                .field("events_per_sec", per_sec(events, r.wall_secs))
                .field("dispatch", dispatch)
                .field("shard_events", per_shard(&r.shard_events))
                .field("queue_peak", per_shard(&r.queue_peak))
                .field("flows_opened", per_shard(&r.flows_opened))
                .field("flows_peak", per_shard(&r.flows_peak))
                .field("cross_shard_events", r.cross_shard_events)
                .field("barrier_parks", per_shard(&r.barrier_parks))
                .field("windows", windows)
                .field(
                    "window_ends",
                    Json::obj()
                        .field("by_peer", ends.by_peer)
                        .field("by_own_send", ends.by_own_send)
                        .field("by_until", ends.by_until)
                        .field("by_floor", ends.by_floor),
                )
        })
        .collect();
    let doc = Json::obj().field("runs", runs);
    match &run.analytic_perf {
        Some(p) => doc.field("analysis", p.clone()),
        None => doc,
    }
}

fn per_sec(events: u64, wall_secs: f64) -> f64 {
    if wall_secs > 0.0 {
        events as f64 / wall_secs
    } else {
        0.0
    }
}

/// The machine-readable document for one executed entry.
pub fn entry_json(run: &EntryRun, opts: &RunOptions) -> Json {
    let mut doc = Json::obj()
        .field("experiment", run.entry.name)
        .field("section", run.entry.section)
        .field("title", run.entry.title)
        .field("grid", run.entry.grid)
        .field("analytic", !run.entry.is_simulated())
        .field("duration_s", opts.duration_for(run.entry).as_secs_f64())
        .field("base_seed", opts.seed)
        .field("seeds", run.seeds);
    // Echo CLI replica overrides so `speakup compare` re-runs a golden
    // produced with them under the same options. Absent (not 1/100ms)
    // when unset, keeping pre-replica goldens byte-identical.
    if let Some(t) = opts.thinners {
        doc = doc.field("thinners_override", t);
    }
    if let Some(p) = opts.sync_period {
        doc = doc.field("sync_period_override_ms", p.as_nanos() / 1_000_000);
    }
    if !opts.faults.is_empty() {
        doc = doc.field(
            "faults_override",
            opts.faults.iter().map(fault_json).collect::<Vec<_>>(),
        );
    }
    if let Some(extra) = &run.analytic_json {
        doc = doc.field("analysis", extra.clone());
    }
    // Replicated entries carry a fairness-divergence section: each grid
    // point's good-client allocation against the R=1 baseline, plus the
    // committed band the regression test enforces. An all-replicated
    // grid (e.g. fig2_faults, every point R=4) has no such baseline —
    // a delta against a made-up 0.0 would be noise, so the section is
    // omitted entirely.
    let baseline_r1 = run.reports.iter().find(|r| r.thinners == 1);
    if run.reports.iter().any(|r| r.thinners > 1) && baseline_r1.is_some() {
        let base_frac = baseline_r1.map(|r| r.good_fraction()).unwrap_or(0.0);
        let divergence: Vec<Json> = run
            .reports
            .iter()
            .map(|r| {
                Json::obj()
                    .field("name", r.name.as_str())
                    .field("thinners", r.thinners)
                    .field("sync_period_ms", r.sync_period.as_nanos() / 1_000_000)
                    .field("good_fraction", r.good_fraction())
                    .field("delta_vs_r1", r.good_fraction() - base_frac)
            })
            .collect();
        doc = doc.field(
            "fairness",
            Json::obj()
                .field("band", crate::registry::FAIRNESS_BAND)
                .field("baseline_good_fraction", base_frac)
                .field("divergence", Json::Arr(divergence)),
        );
    }
    // Runs with an injected replica crash carry a failover section: the
    // crash/restart instants, how long the survivors took to notice and
    // how long the restarted replica took to re-join (null when the
    // event never happened inside the run), and the good-client share
    // of the work completed during the outage window — the metric the
    // committed band constrains.
    let failover_runs: Vec<Json> = run
        .reports
        .iter()
        .filter_map(|r| {
            let f = r.failover.as_ref()?;
            let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
            Some(
                Json::obj()
                    .field("name", r.name.as_str())
                    .field("seed", r.seed)
                    .field("crash_at_s", f.crash_at_s)
                    .field("restart_at_s", f.restart_at_s)
                    .field("time_to_failover_s", opt(f.time_to_failover_s()))
                    .field("time_to_recovery_s", opt(f.time_to_recovery_s()))
                    .field("outage_good", f.outage_allocation.good)
                    .field("outage_bad", f.outage_allocation.bad)
                    .field("outage_good_fraction", f.outage_good_fraction()),
            )
        })
        .collect();
    if !failover_runs.is_empty() {
        doc = doc.field(
            "failover",
            Json::obj()
                .field("band", crate::registry::FAULT_GOODPUT_BAND)
                .field("runs", Json::Arr(failover_runs)),
        );
    }
    doc.field(
        "runs",
        run.reports.iter().map(report_json).collect::<Vec<_>>(),
    )
}

/// One fault override as echoed in the report header
/// (`faults_override`). Nanosecond u64 fields so `speakup compare` can
/// reconstruct the exact schedule (seconds through f64 would round).
pub fn fault_json(f: &FaultSpec) -> Json {
    match *f {
        FaultSpec::ReplicaCrash {
            replica,
            at,
            down_for,
        } => Json::obj()
            .field("kind", "replica_crash")
            .field("replica", replica)
            .field("at_ns", at.as_nanos())
            .field("down_for_ns", down_for.as_nanos()),
        FaultSpec::LinkFlaps {
            seed,
            mean_every,
            mean_down,
        } => Json::obj()
            .field("kind", "link_flaps")
            .field("seed", seed)
            .field("mean_every_ns", mean_every.as_nanos())
            .field("mean_down_ns", mean_down.as_nanos()),
    }
}

/// The `speakup list` table.
pub fn list_table() -> String {
    let rows: Vec<Vec<String>> = registry()
        .iter()
        .map(|e| {
            let runs = if e.is_simulated() {
                format!("{}", e.build_grid().len())
            } else {
                "analytic".to_string()
            };
            vec![
                e.name.to_string(),
                e.section.to_string(),
                runs,
                format!("{}", e.default_secs),
                e.grid.to_string(),
            ]
        })
        .collect();
    table(&["name", "paper", "runs", "secs", "grid"], &rows)
}

/// The `speakup list --json` document.
pub fn list_json() -> Json {
    Json::Arr(
        registry()
            .iter()
            .map(|e| {
                Json::obj()
                    .field("name", e.name)
                    .field("section", e.section)
                    .field("title", e.title)
                    .field("grid", e.grid)
                    .field("default_secs", e.default_secs)
                    .field("analytic", !e.is_simulated())
                    .field("runs", e.build_grid().len())
            })
            .collect(),
    )
}

/// Execute a parsed command, writing human output to `out` and progress
/// to `progress` (the binary passes stdout and stderr).
pub fn dispatch(
    cmd: &Command,
    out: &mut dyn std::io::Write,
    progress: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    match cmd {
        Command::Help => writeln!(out, "{USAGE}"),
        Command::List { json } => {
            if *json {
                write!(out, "{}", list_json().pretty())
            } else {
                write!(out, "{}", list_table())
            }
        }
        Command::Run {
            names,
            opts,
            json_only,
        } => {
            let mut docs = Vec::new();
            for name in names {
                let entry = crate::registry::find(name).expect("validated by parse");
                if entry.is_simulated() {
                    let n_runs = entry.build_grid().len() * opts.seeds as usize;
                    writeln!(
                        progress,
                        "{name}: {n_runs} runs x {}s simulated ...",
                        opts.duration_for(entry).as_secs_f64()
                    )?;
                } else {
                    writeln!(progress, "{name}: analytic measurement ...")?;
                }
                let run = execute(entry, opts);
                if !*json_only {
                    write!(out, "{}", run.table)?;
                    // Wall-clock footer: one line per run (host-dependent
                    // diagnostics; the table above stays deterministic).
                    for r in &run.reports {
                        let events: u64 = r.shard_events.iter().sum();
                        writeln!(
                            out,
                            "perf: {} seed {}: {} events in {:.3}s wall = {:.0} events/sec",
                            r.name,
                            r.seed,
                            events,
                            r.wall_secs,
                            per_sec(events, r.wall_secs),
                        )?;
                    }
                }
                docs.push(entry_json(&run, opts).field("perf", perf_json(&run)));
            }
            let doc = if docs.len() == 1 {
                docs.pop().expect("one doc")
            } else {
                Json::Arr(docs)
            };
            if !*json_only {
                writeln!(out, "\nJSON report:")?;
            }
            write!(out, "{}", doc.pretty())
        }
        Command::Lint { root, json } => {
            let root = match root {
                Some(r) => std::path::PathBuf::from(r),
                None => {
                    let cwd = std::env::current_dir()?;
                    speakup_lint::find_workspace_root(&cwd).ok_or_else(|| {
                        std::io::Error::other(format!(
                            "no workspace root found above {}",
                            cwd.display()
                        ))
                    })?
                }
            };
            let diags = speakup_lint::lint_workspace(&root)?;
            if *json {
                write!(out, "{}", speakup_lint::render_json(&diags))?;
            } else {
                write!(out, "{}", speakup_lint::render_report(&diags))?;
            }
            if speakup_lint::has_errors(&diags) {
                let errors = diags.len();
                return Err(std::io::Error::other(format!(
                    "lint found {errors} violation(s)"
                )));
            }
            Ok(())
        }
        Command::Compare {
            paths,
            jobs,
            shards,
        } => {
            let mut failures = 0usize;
            for path in paths {
                let (_, same) = crate::compare::compare_file(path, *jobs, *shards, out, progress)?;
                if !same {
                    failures += 1;
                }
            }
            if failures > 0 {
                return Err(std::io::Error::other(format!(
                    "{failures} golden comparison(s) failed"
                )));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_list_and_help() {
        assert_eq!(parse(&s(&["list"])).unwrap(), Command::List { json: false });
        assert_eq!(
            parse(&s(&["list", "--json"])).unwrap(),
            Command::List { json: true }
        );
        assert_eq!(parse(&s(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&s(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parses_run_flags() {
        let cmd = parse(&s(&[
            "run", "fig3", "--secs", "60", "--seed", "7", "--seeds", "4",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                names,
                opts,
                json_only,
            } => {
                assert_eq!(names, vec!["fig3"]);
                assert_eq!(opts.duration, Some(SimDuration::from_secs(60)));
                assert_eq!(opts.seed, 7);
                assert_eq!(opts.seeds, 4);
                assert!(!json_only);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_all_expands_to_registry() {
        match parse(&s(&["run", "all", "--json"])).unwrap() {
            Command::Run {
                names, json_only, ..
            } => {
                assert_eq!(names.len(), registry().len());
                assert!(json_only);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_jobs_shards_and_compare() {
        match parse(&s(&["run", "fig3", "--jobs", "2", "--shards", "4"])).unwrap() {
            Command::Run { opts, .. } => {
                assert_eq!(opts.jobs, Some(2));
                assert_eq!(opts.shards, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&s(&["compare", "golden/fig2.json", "--shards", "2"])).unwrap() {
            Command::Compare { paths, shards, .. } => {
                assert_eq!(paths, vec!["golden/fig2.json"]);
                assert_eq!(shards, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Goldens are exact: there is no tolerance to scale.
        assert_eq!(
            parse(&s(&["compare", "golden/fig2.json", "--tol", "2.5"])),
            Err("unknown argument for compare: --tol".to_string())
        );
        assert!(parse(&s(&["run", "fig3", "--shards", "0"])).is_err());
        assert!(parse(&s(&["run", "fig3", "--jobs", "0"])).is_err());
        assert!(parse(&s(&["compare"])).is_err());
        assert!(parse(&s(&["compare", "x.json", "--frobnicate"])).is_err());
    }

    #[test]
    fn parses_lint() {
        assert_eq!(
            parse(&s(&["lint"])).unwrap(),
            Command::Lint {
                root: None,
                json: false
            }
        );
        assert_eq!(
            parse(&s(&["lint", "--root", "/tmp/ws", "--json"])).unwrap(),
            Command::Lint {
                root: Some("/tmp/ws".into()),
                json: true
            }
        );
        assert!(parse(&s(&["lint", "--root"])).is_err());
        assert!(parse(&s(&["lint", "--frobnicate"])).is_err());
    }

    #[test]
    fn zero_second_runs_are_rejected_with_a_reason() {
        let err = parse(&s(&["run", "fig3", "--secs", "0"])).unwrap_err();
        assert!(err.contains("--secs must be at least 1"), "got: {err}");
        assert!(err.contains("NaN"), "error should say why: {err}");
        // Missing and non-numeric arguments still fail too.
        assert!(parse(&s(&["run", "fig3", "--secs"])).is_err());
        assert!(parse(&s(&["run", "fig3", "--secs", "ten"])).is_err());
    }

    #[test]
    fn jobs_conversion_is_checked_not_truncating() {
        // Larger than any usize on 16/32-bit targets: must be an error
        // there and exact everywhere else — never a silent truncation.
        let huge = format!("{}", u64::MAX);
        match parse(&s(&["run", "fig3", "--jobs", &huge])) {
            Ok(Command::Run { opts, .. }) => {
                assert_eq!(opts.jobs, Some(u64::MAX as usize));
                assert_eq!(opts.jobs.unwrap() as u64, u64::MAX, "truncated");
            }
            Ok(other) => panic!("unexpected {other:?}"),
            Err(e) => assert!(e.contains("does not fit"), "got: {e}"),
        }
        // --shards and --seeds are u32 everywhere: oversized values are
        // an error, never a silent wrap.
        let err = parse(&s(&["run", "fig3", "--shards", &huge])).unwrap_err();
        assert!(err.contains("does not fit"), "got: {err}");
        let err = parse(&s(&["run", "fig3", "--seeds", &huge])).unwrap_err();
        assert!(err.contains("does not fit"), "got: {err}");
    }

    #[test]
    fn repeated_flags_take_the_last_value() {
        match parse(&s(&[
            "run", "fig3", "--jobs", "2", "--jobs", "4", "--secs", "5", "--secs", "9", "--shards",
            "2", "--shards", "8",
        ]))
        .unwrap()
        {
            Command::Run { opts, .. } => {
                assert_eq!(opts.jobs, Some(4));
                assert_eq!(opts.duration, Some(SimDuration::from_secs(9)));
                assert_eq!(opts.shards, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The policy is documented where users will look for it.
        assert!(USAGE.contains("last-wins"));
    }

    #[test]
    fn parses_replica_flags() {
        match parse(&s(&[
            "run",
            "fig2_replicated",
            "--thinners",
            "4",
            "--sync-period",
            "25",
        ]))
        .unwrap()
        {
            Command::Run { opts, .. } => {
                assert_eq!(opts.thinners, Some(4));
                assert_eq!(opts.sync_period, Some(SimDuration::from_nanos(25_000_000)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: both absent means "use the scenario's own settings".
        match parse(&s(&["run", "fig3"])).unwrap() {
            Command::Run { opts, .. } => {
                assert_eq!(opts.thinners, None);
                assert_eq!(opts.sync_period, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Last-wins, like every other repeated flag.
        match parse(&s(&[
            "run",
            "fig3",
            "--thinners",
            "2",
            "--thinners",
            "8",
            "--sync-period",
            "5",
            "--sync-period",
            "50",
        ]))
        .unwrap()
        {
            Command::Run { opts, .. } => {
                assert_eq!(opts.thinners, Some(8));
                assert_eq!(opts.sync_period, Some(SimDuration::from_nanos(50_000_000)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_fault_flags() {
        // One crash entry, one flap schedule; --faults accumulates.
        match parse(&s(&[
            "run",
            "fig2_faults",
            "--faults",
            "replica=1@15+10",
            "--faults",
            "replica=2@30+5",
            "--fault-seed",
            "7",
        ]))
        .unwrap()
        {
            Command::Run { opts, .. } => {
                assert_eq!(
                    opts.faults,
                    vec![
                        FaultSpec::ReplicaCrash {
                            replica: 1,
                            at: SimTime::from_secs(15),
                            down_for: SimDuration::from_secs(10),
                        },
                        FaultSpec::ReplicaCrash {
                            replica: 2,
                            at: SimTime::from_secs(30),
                            down_for: SimDuration::from_secs(5),
                        },
                        FaultSpec::LinkFlaps {
                            seed: 7,
                            mean_every: SimDuration::from_secs(10),
                            mean_down: SimDuration::from_millis(200),
                        },
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Comma-separated entries in one flag parse the same way.
        match parse(&s(&[
            "run",
            "fig3",
            "--faults",
            "replica=0@5+2,replica=3@8+1",
        ]))
        .unwrap()
        {
            Command::Run { opts, .. } => assert_eq!(opts.faults.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // Default: no faults.
        match parse(&s(&["run", "fig3"])).unwrap() {
            Command::Run { opts, .. } => assert!(opts.faults.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fault_flags_reject_malformed_specs() {
        for bad in [
            "replica=1",          // no timing
            "replica=1@15",       // no outage
            "replica=1@15+0",     // zero-length outage
            "replica=x@15+10",    // non-numeric index
            "replica=1@soon+10",  // non-numeric time
            "link=3@1+1",         // unknown kind
            "",                   // empty entry
            "replica=1@15+10,,x", // empty entry in a list
        ] {
            assert!(
                parse(&s(&["run", "fig3", "--faults", bad])).is_err(),
                "spec {bad:?} should be rejected"
            );
        }
        // Missing value and overflow fail like any other flag.
        assert!(parse(&s(&["run", "fig3", "--faults"])).is_err());
        assert!(parse(&s(&["run", "fig3", "--fault-seed"])).is_err());
        let huge = format!("replica=1@{}+10", u64::MAX);
        let err = parse(&s(&["run", "fig3", "--faults", &huge])).unwrap_err();
        assert!(err.contains("must fit"), "got: {err}");
    }

    #[test]
    fn replica_flags_reject_zero_and_overflow() {
        // Zero replicas / a zero-length epoch are meaningless.
        assert!(parse(&s(&["run", "fig3", "--thinners", "0"])).is_err());
        assert!(parse(&s(&["run", "fig3", "--sync-period", "0"])).is_err());
        // Missing and non-numeric values fail like any other flag.
        assert!(parse(&s(&["run", "fig3", "--thinners"])).is_err());
        assert!(parse(&s(&["run", "fig3", "--sync-period", "soon"])).is_err());
        // --thinners is u32; --sync-period milliseconds must survive the
        // *1e6 conversion to nanoseconds. Both error instead of wrapping.
        let huge = format!("{}", u64::MAX);
        let err = parse(&s(&["run", "fig3", "--thinners", &huge])).unwrap_err();
        assert!(err.contains("does not fit"), "got: {err}");
        let err = parse(&s(&["run", "fig3", "--sync-period", &huge])).unwrap_err();
        assert!(err.contains("does not fit"), "got: {err}");
        // The largest representable sync period still parses.
        let max_ms = u64::MAX / 1_000_000;
        assert!(parse(&s(&["run", "fig3", "--sync-period", &format!("{max_ms}")])).is_ok());
    }

    #[test]
    fn secs_beyond_the_nanosecond_clock_are_rejected() {
        // u64::MAX seconds * 1e9 would wrap the nanosecond clock to an
        // arbitrary short duration in release builds.
        let huge = format!("{}", u64::MAX);
        let err = parse(&s(&["run", "fig3", "--secs", &huge])).unwrap_err();
        assert!(err.contains("does not fit"), "got: {err}");
        // The largest representable value still parses.
        let max_ok = u64::MAX / 1_000_000_000;
        let cmd = parse(&s(&["run", "fig3", "--secs", &format!("{max_ok}")]));
        assert!(cmd.is_ok());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&s(&["run"])).is_err());
        assert!(parse(&s(&["run", "nonesuch"])).is_err());
        assert!(parse(&s(&["run", "fig3", "--secs"])).is_err());
        assert!(parse(&s(&["run", "fig3", "--seeds", "0"])).is_err());
        assert!(parse(&s(&["run", "fig3", "--frobnicate"])).is_err());
        assert!(parse(&s(&["frobnicate"])).is_err());
        assert!(parse(&s(&["list", "--frobnicate"])).is_err());
    }

    #[test]
    fn list_table_names_every_entry() {
        let t = list_table();
        for e in registry() {
            assert!(t.contains(e.name), "list missing {}", e.name);
        }
        let j = list_json().pretty();
        for e in registry() {
            assert!(j.contains(e.name), "list --json missing {}", e.name);
        }
    }
}
