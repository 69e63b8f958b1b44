//! `speakup compare`: re-run a committed golden report and require it
//! back exactly.
//!
//! A golden file is simply a saved `speakup run <name> --json` document
//! (see `golden/` at the repo root). `compare` re-runs the experiment
//! with the options recorded in the document (duration, base seed,
//! replicate count, replica and fault overrides), drops the
//! host-dependent `perf` section from both documents, and fails on any
//! leaf that differs. The engine is byte-identical by construction, so a
//! golden either reproduces exactly or a change moved it; an empty
//! `runs` array or a missing field is a difference like any other.
//!
//! [`diff`] at a positive scale is the statistical yardstick for two
//! *independent* sample paths (e.g. cohorts against the clients they
//! aggregate): numbers agree within a per-metric tolerance chosen by the
//! leaf path, counts tighter than sample statistics, tail percentiles
//! and spreads loosest.

use crate::driver::{entry_json, execute, EntryRun};
use crate::json::Json;
use crate::registry::{self, RunOptions};
use crate::scenario::FaultSpec;
use speakup_net::time::{SimDuration, SimTime};
use std::io::Write;

/// One disagreement between golden and fresh reports.
#[derive(Debug)]
pub struct Breach {
    /// JSON path of the leaf (e.g. `runs[3].good.served`).
    pub path: String,
    /// Value in the golden file.
    pub golden: String,
    /// Value in the fresh run.
    pub fresh: String,
    /// The tolerance that was exceeded, rendered for the report.
    pub allowed: String,
}

/// Relative/absolute tolerance for a metric, selected by path substring.
/// First match wins.
fn tolerance_for(path: &str) -> (f64, f64) {
    // Sample counts (`latency_s.n`, `price_good_bytes.n`, ...) are
    // counters even though their parent key matches a statistics rule.
    if path.ends_with(".n") {
        return (0.02, 0.5);
    }
    const RULES: &[(&str, (f64, f64))] = &[
        // Spreads and tail statistics drift hardest under small changes.
        ("stddev", (0.25, 1e-6)),
        ("p90", (0.10, 1e-6)),
        ("max", (0.10, 1e-6)),
        ("min", (0.10, 1e-6)),
        // Sample means, fractions, prices, times.
        ("mean", (0.05, 1e-3)),
        ("fraction", (0.0, 0.02)),
        ("utilization", (0.0, 0.02)),
        ("latency", (0.05, 1e-3)),
        ("price", (0.05, 1e-3)),
        ("payment", (0.05, 1e-3)),
        // Everything else (counters, config echoes) must agree closely.
        ("", (0.02, 0.5)),
    ];
    for (pat, tol) in RULES {
        if path.contains(pat) {
            return *tol;
        }
    }
    unreachable!("the catch-all rule matches everything")
}

/// A value as a breach shows it: scalars as they render in a report,
/// containers by kind.
fn shown(v: &Json) -> String {
    match v {
        Json::Arr(_) => "array".to_string(),
        Json::Obj(_) => "object".to_string(),
        _ => v.pretty().trim_end().to_string(),
    }
}

fn walk(path: &str, golden: &Json, fresh: &Json, tol_scale: f64, out: &mut Vec<Breach>) {
    // Numbers (Num and UInt compare by value).
    if let (Some(g), Some(f)) = (golden.as_f64(), fresh.as_f64()) {
        let (rel, abs) = tolerance_for(path);
        let allowed = (abs + rel * g.abs().max(f.abs())) * tol_scale;
        // At scale 0 the leaves must be equal, not merely close in f64
        // (which would let integers above 2^53 differ).
        let breach = if tol_scale == 0.0 {
            golden != fresh
        } else {
            (g - f).abs() > allowed
        };
        if breach {
            out.push(Breach {
                path: path.to_string(),
                golden: shown(golden),
                fresh: shown(fresh),
                allowed: if tol_scale == 0.0 {
                    "equal".to_string()
                } else {
                    format!("±{allowed:.6}")
                },
            });
        }
        return;
    }
    match (golden, fresh) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(g), Json::Bool(f)) if g == f => {}
        (Json::Str(g), Json::Str(f)) if g == f => {}
        (Json::Arr(g), Json::Arr(f)) => {
            if g.len() != f.len() {
                out.push(Breach {
                    path: path.to_string(),
                    golden: format!("array of {}", g.len()),
                    fresh: format!("array of {}", f.len()),
                    allowed: "equal lengths".to_string(),
                });
                return;
            }
            for (i, (gi, fi)) in g.iter().zip(f).enumerate() {
                walk(&format!("{path}[{i}]"), gi, fi, tol_scale, out);
            }
        }
        (Json::Obj(g), Json::Obj(f)) => {
            for (k, gv) in g {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match fresh.get(k) {
                    Some(fv) => walk(&sub, gv, fv, tol_scale, out),
                    None => out.push(Breach {
                        path: sub,
                        golden: "present".to_string(),
                        fresh: "missing".to_string(),
                        allowed: "field exists".to_string(),
                    }),
                }
            }
            for (k, _) in f {
                if golden.get(k).is_none() {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    out.push(Breach {
                        path: sub,
                        golden: "missing".to_string(),
                        fresh: "present".to_string(),
                        allowed: "field exists".to_string(),
                    });
                }
            }
        }
        _ => out.push(Breach {
            path: path.to_string(),
            golden: shown(golden),
            fresh: shown(fresh),
            allowed: "same type and value".to_string(),
        }),
    }
}

/// Compare a golden document against a freshly generated one, numbers
/// within their tolerance times `tol_scale`; at scale 0 every leaf must
/// be equal. Returns the list of breaches (empty means the reports
/// agree).
pub fn diff(golden: &Json, fresh: &Json, tol_scale: f64) -> Vec<Breach> {
    let mut out = Vec::new();
    walk("", golden, fresh, tol_scale, &mut out);
    out
}

/// The run options a golden document was produced with.
pub fn options_of(golden: &Json) -> Result<(&'static registry::Entry, RunOptions), String> {
    let name = golden
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("golden file has no \"experiment\" field")?;
    let entry =
        registry::find(name).ok_or_else(|| format!("unknown experiment {name:?} in golden"))?;
    let duration = golden
        .get("duration_s")
        .and_then(Json::as_f64)
        .filter(|d| d.is_finite() && *d > 0.0)
        .ok_or("golden file needs a positive \"duration_s\" (zero-length runs have NaN rates)")?;
    let seed = golden
        .get("base_seed")
        .and_then(Json::as_u64)
        .ok_or("golden file has no \"base_seed\"")?;
    let seeds = golden
        .get("seeds")
        .and_then(Json::as_u64)
        .filter(|&k| k >= 1)
        .ok_or("golden file needs \"seeds\" >= 1")?
        .min(u32::MAX as u64) as u32;
    // Replica overrides are optional header fields (absent on goldens
    // produced without `--thinners` / `--sync-period`); when present the
    // re-run must apply them or every run diverges from the golden.
    let thinners = match golden.get("thinners_override") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|&t| (1..=u32::MAX as u64).contains(&t))
                .ok_or("golden file's \"thinners_override\" must be a positive integer")?
                as u32,
        ),
    };
    let sync_period = match golden.get("sync_period_override_ms") {
        None => None,
        Some(v) => Some(SimDuration::from_nanos(
            v.as_u64()
                .filter(|&ms| ms >= 1 && ms.checked_mul(1_000_000).is_some())
                .ok_or("golden file's \"sync_period_override_ms\" must be a positive integer")?
                * 1_000_000,
        )),
    };
    // Fault overrides round-trip in nanoseconds so the re-run schedules
    // byte-identical fault events (seconds would lose precision through
    // the f64 path).
    let faults = match golden.get("faults_override") {
        None => Vec::new(),
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(fault_of(item)?);
            }
            out
        }
        Some(_) => return Err("golden file's \"faults_override\" must be an array".to_string()),
    };
    Ok((
        entry,
        RunOptions {
            duration: Some(SimDuration::from_secs_f64(duration)),
            seed,
            seeds,
            jobs: None,
            shards: 1,
            thinners,
            sync_period,
            faults,
        },
    ))
}

/// Parse one `faults_override` entry back into the [`FaultSpec`] it was
/// rendered from (see `driver::fault_json`).
fn fault_of(item: &Json) -> Result<FaultSpec, String> {
    let kind = item
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("fault override entry has no \"kind\"")?;
    let ns = |field: &str| -> Result<u64, String> {
        item.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("fault override entry needs a u64 {field:?}"))
    };
    match kind {
        "replica_crash" => {
            let replica = ns("replica")?;
            if replica > u32::MAX as u64 {
                return Err("fault override \"replica\" is out of range".to_string());
            }
            Ok(FaultSpec::ReplicaCrash {
                replica: replica as u32,
                at: SimTime::from_nanos(ns("at_ns")?),
                down_for: SimDuration::from_nanos(
                    ns("down_for_ns")?.max(1), // zero would panic in the builder path
                ),
            })
        }
        "link_flaps" => Ok(FaultSpec::LinkFlaps {
            seed: ns("seed")?,
            mean_every: SimDuration::from_nanos(ns("mean_every_ns")?.max(1)),
            mean_down: SimDuration::from_nanos(ns("mean_down_ns")?.max(1)),
        }),
        other => Err(format!("unknown fault override kind {other:?}")),
    }
}

/// `text` parsed, without the host-dependent `perf` section that
/// `speakup run --json` appends after the payload.
fn payload(text: &str) -> Result<Json, String> {
    let mut doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if let Json::Obj(fields) = &mut doc {
        fields.retain(|(k, _)| k != "perf");
    }
    Ok(doc)
}

/// Load `path`, re-run its experiment with `jobs` workers and `shards`
/// loops per run, and list on `out` up to 50 leaves of the payload that
/// differ from the golden. Returns the fresh run and whether no leaf
/// differed.
pub fn compare_file(
    path: &str,
    jobs: Option<usize>,
    shards: u32,
    out: &mut dyn Write,
    progress: &mut dyn Write,
) -> std::io::Result<(EntryRun, bool)> {
    let invalid =
        |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}"));
    let golden = payload(&std::fs::read_to_string(path)?).map_err(invalid)?;
    let (entry, mut opts) = options_of(&golden).map_err(invalid)?;
    opts.jobs = jobs;
    opts.shards = shards;
    writeln!(
        progress,
        "compare {path}: re-running {} ({} x {}s, seed {:#x}) ...",
        entry.name,
        entry.build_grid().len() * opts.seeds as usize,
        opts.duration_for(entry).as_secs_f64(),
        opts.seed,
    )?;
    let run = execute(entry, &opts);
    // Through the rendered text, as the golden went: both sides then
    // hold the same number types and non-finite values read as null.
    let fresh = payload(&entry_json(&run, &opts).pretty()).map_err(invalid)?;
    let breaches = diff(&golden, &fresh, 0.0);
    if breaches.is_empty() {
        writeln!(out, "{path}: OK ({} reproduces exactly)", entry.name)?;
        return Ok((run, true));
    }
    writeln!(
        out,
        "{path}: {} leaf/leaves differ for {}:",
        breaches.len(),
        entry.name
    )?;
    for b in breaches.iter().take(50) {
        writeln!(
            out,
            "  {}: golden {} vs fresh {}",
            b.path, b.golden, b.fresh
        )?;
    }
    if breaches.len() > 50 {
        writeln!(out, "  ... and {} more", breaches.len() - 50)?;
    }
    Ok((run, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_no_breaches() {
        let doc = Json::obj()
            .field("experiment", "fig2")
            .field("runs", vec![Json::obj().field("good", 10u64)]);
        assert!(diff(&doc, &doc.clone(), 1.0).is_empty());
    }

    #[test]
    fn counters_breach_outside_two_percent() {
        let golden = Json::obj().field("served", 100u64);
        let close = Json::obj().field("served", 101u64);
        let far = Json::obj().field("served", 110u64);
        assert!(diff(&golden, &close, 1.0).is_empty());
        let breaches = diff(&golden, &far, 1.0);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].path, "served");
    }

    #[test]
    fn fractions_use_absolute_tolerance() {
        let golden = Json::obj().field("good_fraction", 0.50);
        let close = Json::obj().field("good_fraction", 0.515);
        let far = Json::obj().field("good_fraction", 0.54);
        assert!(diff(&golden, &close, 1.0).is_empty());
        assert_eq!(diff(&golden, &far, 1.0).len(), 1);
        // A larger scale admits the drift.
        assert!(diff(&golden, &far, 3.0).is_empty());
    }

    #[test]
    fn sample_counts_use_the_counter_tolerance() {
        let stats = |n: u64, mean: f64| {
            Json::obj().field("latency_s", Json::obj().field("n", n).field("mean", mean))
        };
        // 4% drift: fine for the mean (5% statistics rule), a breach for
        // the sample count (2% counter rule) despite the `latency` key.
        let breaches = diff(&stats(1000, 1.0), &stats(1040, 1.04), 1.0);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].path, "latency_s.n");
    }

    #[test]
    fn wall_clock_measurements_are_ignored() {
        // Host timings live in `perf` (the payment sink's rates too),
        // which both sides drop before the exact diff.
        let doc = |mbps: f64| {
            Json::obj()
                .field("experiment", "capacity")
                .field("perf", Json::obj().field("measured_mbps", mbps))
                .pretty()
        };
        let golden = payload(&doc(1000.0)).expect("valid JSON");
        assert_eq!(golden, Json::obj().field("experiment", "capacity"));
        let fresh = payload(&doc(250.0)).expect("valid JSON");
        assert!(diff(&golden, &fresh, 0.0).is_empty());
    }

    #[test]
    fn structure_mismatches_are_breaches() {
        let golden = Json::obj().field("a", 1u64).field("b", "x");
        let missing = Json::obj().field("a", 1u64);
        let wrong_type = Json::obj().field("a", 1u64).field("b", true);
        assert_eq!(diff(&golden, &missing, 1.0).len(), 1);
        assert_eq!(diff(&golden, &wrong_type, 1.0).len(), 1);
        let short = Json::obj().field("r", vec![Json::UInt(1)]);
        let long = Json::obj().field("r", vec![Json::UInt(1), Json::UInt(2)]);
        assert_eq!(diff(&short, &long, 1.0).len(), 1);
        // A timing event that vanished (null vs number) is structure
        // drift, not numeric drift: reported at any scale.
        let golden = Json::obj().field("time_to_failover_s", 0.5);
        let gone = Json::obj().field("time_to_failover_s", Json::Null);
        assert_eq!(diff(&golden, &gone, 1.0).len(), 1);
    }

    #[test]
    fn options_round_trip_from_golden_header() {
        let golden = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 30.0)
            .field("base_seed", 0x5ea4u64)
            .field("seeds", 1u32);
        let (entry, opts) = options_of(&golden).expect("valid header");
        assert_eq!(entry.name, "fig2");
        assert_eq!(opts.duration, Some(SimDuration::from_secs(30)));
        assert_eq!(opts.seed, 0x5ea4);
        assert_eq!(opts.seeds, 1);
        assert!(options_of(&Json::obj().field("experiment", "nope")).is_err());
        // Corrupt replicate counts must error, not panic downstream.
        let zero_seeds = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 30.0)
            .field("base_seed", 1u64)
            .field("seeds", 0u64);
        assert!(options_of(&zero_seeds).is_err());
        // A zero (or negative, or NaN-parsed-as-null) duration would
        // re-run a rate-less experiment; reject it at load time.
        for bad in [0.0, -5.0] {
            let doc = Json::obj()
                .field("experiment", "fig2")
                .field("duration_s", bad)
                .field("base_seed", 1u64)
                .field("seeds", 1u64);
            let err = options_of(&doc).err().expect("zero duration accepted");
            assert!(err.contains("positive"), "got: {err}");
        }
    }

    #[test]
    fn replica_overrides_round_trip_from_golden_header() {
        let golden = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 10.0)
            .field("base_seed", 0x5ea4u64)
            .field("seeds", 1u32)
            .field("thinners_override", 4u64)
            .field("sync_period_override_ms", 10u64);
        let (_, opts) = options_of(&golden).expect("valid header");
        assert_eq!(opts.thinners, Some(4));
        assert_eq!(opts.sync_period, Some(SimDuration::from_millis(10)));
        // Absent overrides stay unset (the classic header shape).
        let plain = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 10.0)
            .field("base_seed", 1u64)
            .field("seeds", 1u32);
        let (_, opts) = options_of(&plain).expect("valid header");
        assert_eq!(opts.thinners, None);
        assert_eq!(opts.sync_period, None);
        // Corrupt overrides error instead of silently re-running the
        // wrong configuration against the golden.
        for (k, v) in [
            ("thinners_override", 0u64),
            ("sync_period_override_ms", 0u64),
            ("thinners_override", u64::from(u32::MAX) + 1),
            ("sync_period_override_ms", u64::MAX / 2),
        ] {
            let doc = Json::obj()
                .field("experiment", "fig2")
                .field("duration_s", 10.0)
                .field("base_seed", 1u64)
                .field("seeds", 1u32)
                .field(k, v);
            let err = options_of(&doc).err().unwrap_or_else(|| {
                panic!("corrupt {k} = {v} accepted");
            });
            assert!(err.contains(k), "got: {err}");
        }
    }

    #[test]
    fn fault_overrides_round_trip_from_golden_header() {
        let faults = vec![
            FaultSpec::ReplicaCrash {
                replica: 1,
                at: SimTime::from_secs(15),
                down_for: SimDuration::from_secs(10),
            },
            FaultSpec::LinkFlaps {
                seed: 9,
                mean_every: SimDuration::from_secs(10),
                mean_down: SimDuration::from_millis(200),
            },
        ];
        let golden = Json::obj()
            .field("experiment", "fig2_faults")
            .field("duration_s", 60.0)
            .field("base_seed", 0x5ea4u64)
            .field("seeds", 1u32)
            .field(
                "faults_override",
                faults
                    .iter()
                    .map(crate::driver::fault_json)
                    .collect::<Vec<_>>(),
            );
        let (entry, opts) = options_of(&golden).expect("valid fault header");
        assert_eq!(entry.name, "fig2_faults");
        assert_eq!(opts.faults, faults);
        // Absent override: no faults (every pre-fault golden).
        let plain = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 10.0)
            .field("base_seed", 1u64)
            .field("seeds", 1u32);
        let (_, opts) = options_of(&plain).expect("valid header");
        assert!(opts.faults.is_empty());
        // Corrupt shapes error instead of silently re-running fault-free.
        for bad in [
            Json::Str("replica=1@15+10".to_string()),
            Json::Arr(vec![Json::obj().field("kind", "meteor_strike")]),
            Json::Arr(vec![Json::obj()
                .field("kind", "replica_crash")
                .field("replica", 1u64)]),
        ] {
            let doc = Json::obj()
                .field("experiment", "fig2")
                .field("duration_s", 10.0)
                .field("base_seed", 1u64)
                .field("seeds", 1u32)
                .field("faults_override", bad);
            assert!(
                options_of(&doc).is_err(),
                "corrupt faults_override accepted"
            );
        }
    }

    #[test]
    fn an_empty_golden_differs_from_any_run() {
        // A golden reduced to its header or to empty runs (a bad merge, a
        // truncated regeneration) must fail against a real run, not pass
        // because nothing was left to check.
        let header = Json::obj()
            .field("experiment", "fig2")
            .field("duration_s", 10.0);
        let fresh = header
            .clone()
            .field("runs", vec![Json::obj().field("served", 7u64)]);
        let empty_runs = header.clone().field("runs", Vec::<Json>::new());
        assert_eq!(diff(&empty_runs, &fresh, 0.0).len(), 1);
        let breaches = diff(&header, &fresh, 0.0);
        assert_eq!(breaches.len(), 1);
        assert_eq!(
            (breaches[0].path.as_str(), breaches[0].golden.as_str()),
            ("runs", "missing")
        );
    }

    #[test]
    fn exact_diff_flags_a_float_move_the_tolerances_admit() {
        // A drift like this one sat inside golden/fig2.json's tolerance
        // band while no count moved.
        let golden = Json::obj().field("max", 0.355999636);
        let fresh = Json::obj().field("max", 0.356003866);
        assert!(diff(&golden, &fresh, 1.0).is_empty());
        let breaches = diff(&golden, &fresh, 0.0);
        assert_eq!(breaches.len(), 1);
        assert_eq!(
            (breaches[0].golden.as_str(), breaches[0].fresh.as_str()),
            ("0.355999636", "0.356003866")
        );
        // Integers compare exactly, not as f64.
        let big = Json::obj().field("n", 1u64 << 53);
        let next = Json::obj().field("n", (1u64 << 53) + 1);
        assert_eq!(diff(&big, &next, 0.0).len(), 1);
        assert!(diff(&big, &big.clone(), 0.0).is_empty());
    }
}
