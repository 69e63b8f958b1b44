//! Smoke and determinism coverage for the scenario registry and the
//! `speakup` driver — the CLI path every former `fig*` binary now routes
//! through.
//!
//! * every simulated entry without a golden runs for a few simulated
//!   seconds and yields a sane [`RunReport`] (requests generated,
//!   utilization ∈ [0,1]); `tests/goldens.rs` holds the entries with a
//!   golden to the same predicates on their exact re-runs;
//! * the same entry + seed produces byte-identical JSON through the
//!   driver, the determinism contract replicates rely on.

use speakup_exp::driver::{self, Command};
use speakup_exp::registry::{self, RunOptions};
use speakup_net::time::SimDuration;

fn quick(seconds: u64, seeds: u32) -> RunOptions {
    RunOptions {
        duration: Some(SimDuration::from_secs(seconds)),
        seed: 0x5ea4,
        seeds,
        ..RunOptions::default()
    }
}

#[test]
fn every_simulated_entry_produces_a_sane_report() {
    for entry in registry::registry() {
        let golden = format!("{}/golden/{}.json", env!("CARGO_MANIFEST_DIR"), entry.name);
        if !entry.is_simulated() || std::path::Path::new(&golden).exists() {
            continue;
        }
        let run = driver::execute(entry, &quick(3, 1));
        assert_eq!(
            run.reports.len(),
            entry.build_grid().len(),
            "{}: one report per grid point",
            entry.name
        );
        assert!(!run.table.is_empty(), "{}: empty table", entry.name);
        for r in &run.reports {
            assert!(
                r.good.generated + r.bad.generated > 0,
                "{}: run {} generated no requests",
                entry.name,
                r.name
            );
            assert!(
                (0.0..=1.0).contains(&r.server_utilization),
                "{}: utilization {} out of range",
                entry.name,
                r.server_utilization
            );
            assert!(
                (r.duration_s - 3.0).abs() < 1e-9,
                "{}: duration override not applied",
                entry.name
            );
            let served: u64 = r.per_client.iter().map(|pc| pc.served).sum();
            assert!(
                served <= r.good.generated + r.bad.generated,
                "{}: served more than generated",
                entry.name
            );
        }
    }
}

#[test]
fn analytic_entries_render_tables_and_json() {
    for entry in registry::registry() {
        if entry.is_simulated() {
            continue;
        }
        // Short "duration" scales the measurement down so this stays fast.
        let run = driver::execute(entry, &quick(5, 1));
        assert!(
            run.reports.is_empty(),
            "{}: analytic entries simulate nothing",
            entry.name
        );
        assert!(!run.table.is_empty(), "{}: empty table", entry.name);
        let json = driver::entry_json(&run, &quick(5, 1)).pretty();
        assert!(
            json.contains("\"analysis\""),
            "{}: missing analysis payload",
            entry.name
        );
        // Host timings go to `perf`: the payload is deterministic.
        let again = driver::entry_json(&driver::execute(entry, &quick(5, 1)), &quick(5, 1));
        assert_eq!(
            json,
            again.pretty(),
            "{}: payload differs between runs",
            entry.name
        );
    }
}

#[test]
fn same_name_and_seed_is_deterministic_through_the_driver() {
    let entry = registry::find("fig3").expect("fig3 registered");
    let opts = quick(3, 2);
    let a = driver::execute(entry, &opts);
    let b = driver::execute(entry, &opts);
    assert_eq!(a.table, b.table, "human tables diverged");
    assert_eq!(
        driver::entry_json(&a, &opts).pretty(),
        driver::entry_json(&b, &opts).pretty(),
        "JSON reports diverged for identical name+seed"
    );
    // A different seed must actually change the trace (otherwise the
    // determinism check above would be vacuous). Compare only the run
    // payloads with seed metadata stripped, so recorded seed values can't
    // mask a simulation that ignores its seed.
    let other_opts = RunOptions {
        seed: 0x5ea4 + 100,
        ..opts.clone()
    };
    let other = driver::execute(entry, &other_opts);
    let payload = |run: &driver::EntryRun, o: &RunOptions| -> String {
        driver::entry_json(run, o)
            .pretty()
            .lines()
            .filter(|l| !l.contains("\"seed\"") && !l.contains("\"base_seed\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_ne!(
        payload(&a, &opts),
        payload(&other, &other_opts),
        "changing the seed changed nothing in the simulated traces"
    );
}

#[test]
fn replicates_cover_the_requested_seeds() {
    let entry = registry::find("fig7").expect("fig7 registered");
    let opts = quick(3, 3);
    let run = driver::execute(entry, &opts);
    assert_eq!(run.reports.len(), 2 * 3, "grid × seeds reports");
    // Grid-major, seed-minor ordering with consecutive seeds.
    for (i, r) in run.reports.iter().enumerate() {
        assert_eq!(r.seed, 0x5ea4 + (i as u64 % 3), "replicate seed layout");
    }
    // The replicate table is appended for seeds > 1.
    assert!(run.table.contains("Seed replicates"));
}

#[test]
fn cli_command_round_trips_to_execution() {
    let args: Vec<String> = ["run", "fig6", "--secs", "3", "--seed", "9", "--json"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cmd = driver::parse(&args).expect("parse");
    let Command::Run {
        names,
        opts,
        json_only,
    } = cmd
    else {
        panic!("expected run command");
    };
    assert_eq!(names, vec!["fig6"]);
    assert!(json_only);
    let mut out = Vec::new();
    let mut progress = Vec::new();
    driver::dispatch(
        &Command::Run {
            names,
            opts,
            json_only,
        },
        &mut out,
        &mut progress,
    )
    .expect("dispatch");
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.trim_start().starts_with('{'), "JSON-only output");
    assert!(text.contains("\"experiment\": \"fig6\""));
    assert!(String::from_utf8(progress).unwrap().contains("fig6"));
}
