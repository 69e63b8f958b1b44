//! Every golden reproduces exactly.
//!
//! Each `golden/*.json` is re-run through `speakup compare`'s
//! [`compare_file`] from the options its header records, and every leaf
//! of the fresh document minus the host-dependent `perf` section must
//! equal the golden: no tolerance, every float and every count. A golden
//! whose runs have one thinner is one replica island, so one loop at any
//! `--shards`; it runs at `--shards 1`. `fig2_replicated` and
//! `fig2_faults` run more than one thinner, so they also gate the
//! sharded engine at `--shards {1, 2, 8}`.
//!
//! The fresh runs also pass the sanity predicates that
//! `registry_smoke.rs` applies to the registry entries without a golden.

use speakup_exp::compare::compare_file;
use speakup_exp::driver::EntryRun;

fn golden_dir() -> String {
    format!("{}/golden", env!("CARGO_MANIFEST_DIR"))
}

/// Reports that make sense whatever the numbers: one per grid point and
/// replicate, requests generated, utilisation a fraction, no more served
/// than generated, and a table to print.
fn assert_sane(name: &str, run: &EntryRun) {
    assert_eq!(
        run.reports.len(),
        run.entry.build_grid().len() * run.seeds as usize,
        "{name}: one report per grid point and replicate"
    );
    assert!(!run.table.is_empty(), "{name}: empty table");
    for r in &run.reports {
        let generated = r.good.generated + r.bad.generated;
        assert!(
            generated > 0,
            "{name}: run {} generated no requests",
            r.name
        );
        assert!(
            (0.0..=1.0).contains(&r.server_utilization),
            "{name}: run {} utilization {} out of range",
            r.name,
            r.server_utilization
        );
        let served: u64 = r.per_client.iter().map(|pc| pc.served).sum();
        assert!(
            served <= generated,
            "{name}: run {} served more than generated",
            r.name
        );
    }
}

fn reproduces(name: &str, shard_counts: &[u32]) {
    let path = format!("{}/{name}.json", golden_dir());
    for &shards in shard_counts {
        let mut out = Vec::new();
        let (run, same) = compare_file(&path, Some(1), shards, &mut out, &mut std::io::sink())
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            same,
            "{name} at --shards {shards} differs from its golden:\n{}",
            String::from_utf8_lossy(&out)
        );
        assert_sane(name, &run);
    }
}

const SINGLE_THINNER: &[&str] = &[
    "fig2",
    "fig2_xl",
    "fig6",
    "fig7",
    "fig9",
    "flash_crowd",
    "hetero",
    "profiling",
    "retry_ablation",
];
const REPLICATED: &[&str] = &["fig2_replicated", "fig2_faults"];

#[test]
fn every_golden_file_is_checked_here() {
    let mut files: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden/ exists")
        .filter_map(|e| {
            let name = e.expect("readable entry").file_name().into_string().ok()?;
            name.strip_suffix(".json").map(str::to_string)
        })
        .collect();
    files.sort();
    let mut checked: Vec<&str> = SINGLE_THINNER.iter().chain(REPLICATED).copied().collect();
    checked.sort();
    assert_eq!(files, checked);
}

#[test]
fn fig2_golden_is_exact() {
    reproduces("fig2", &[1]);
}

#[test]
fn fig2_xl_golden_is_exact() {
    reproduces("fig2_xl", &[1]);
}

#[test]
fn fig6_golden_is_exact() {
    reproduces("fig6", &[1]);
}

#[test]
fn fig7_golden_is_exact() {
    reproduces("fig7", &[1]);
}

#[test]
fn fig9_golden_is_exact() {
    reproduces("fig9", &[1]);
}

#[test]
fn flash_crowd_golden_is_exact() {
    reproduces("flash_crowd", &[1]);
}

#[test]
fn hetero_golden_is_exact() {
    reproduces("hetero", &[1]);
}

#[test]
fn profiling_golden_is_exact() {
    reproduces("profiling", &[1]);
}

#[test]
fn retry_ablation_golden_is_exact() {
    reproduces("retry_ablation", &[1]);
}

#[test]
fn fig2_replicated_golden_is_exact_at_shards_1_2_8() {
    reproduces("fig2_replicated", &[1, 2, 8]);
}

#[test]
fn fig2_faults_golden_is_exact_at_shards_1_2_8() {
    reproduces("fig2_faults", &[1, 2, 8]);
}
