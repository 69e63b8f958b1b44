//! Audits the committed `BENCH_engine.json` baseline: every speedup
//! ratio in the document must re-derive from the raw fields next to it,
//! and the asserted engine properties (allocation-free steady state,
//! fully devirtualized dispatch) must hold in the committed numbers.
//!
//! The bench binary computes the ratios at measurement time; nothing
//! else rechecks them, and a hand-edited or merge-mangled baseline
//! would silently corrupt every later PR's "X× over the baseline"
//! claim. This test makes the committed document self-consistent by
//! construction.

use speakup_exp::json::Json;

fn load() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let text = std::fs::read_to_string(path).expect("read committed BENCH_engine.json");
    Json::parse(&text).expect("parse committed BENCH_engine.json")
}

fn f(doc: &Json, section: &str, field: &str) -> f64 {
    doc.get(section)
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing number {section}.{field}"))
}

fn workload<'a>(doc: &'a Json, name: &str) -> &'a Json {
    let Some(Json::Arr(ws)) = doc.get("workloads") else {
        panic!("missing workloads array");
    };
    ws.iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("missing workload {name}"))
}

/// The bench emits ratios rounded to two decimals; re-derivation must
/// agree to within that rounding.
fn assert_ratio(claimed: f64, numer: f64, denom: f64, what: &str) {
    let derived = numer / denom;
    assert!(
        (claimed - derived).abs() <= 0.005 + 1e-9,
        "{what}: claims {claimed} but {numer}/{denom} = {derived:.4}"
    );
}

#[test]
fn committed_baseline_is_full_profile() {
    let doc = load();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("speakup-bench-engine/4"),
        "unexpected schema"
    );
    // Quick-profile output goes to BENCH_engine.quick.json; a quick run
    // masquerading as the baseline would make every ratio meaningless.
    assert_eq!(
        doc.get("quick"),
        Some(&Json::Bool(false)),
        "committed baseline must be a full-profile run"
    );
}

#[test]
fn end_to_end_speedups_rederive_from_raw_fields() {
    let doc = load();
    for wl in ["fig2", "fig7"] {
        let current = workload(&doc, wl)
            .get("events_per_sec")
            .and_then(Json::as_f64)
            .expect("workload events_per_sec");
        for section in [
            "pre_pr_heap_engine",
            "pr4_wheel_engine",
            "pr6_engine",
            "pr8_engine",
        ] {
            assert_ratio(
                f(&doc, section, &format!("{wl}_end_to_end_speedup")),
                current,
                f(&doc, section, &format!("{wl}_events_per_sec")),
                &format!("{section}.{wl}_end_to_end_speedup"),
            );
        }
    }
}

#[test]
fn replay_speedups_rederive_from_raw_fields() {
    let doc = load();
    let wheel = f(&doc, "hot_path_replay", "wheel_slab_events_per_sec");
    assert_ratio(
        f(&doc, "hot_path_replay", "speedup"),
        wheel,
        f(&doc, "hot_path_replay", "heap_btreemap_events_per_sec"),
        "hot_path_replay.speedup",
    );
    for section in ["pr4_wheel_engine", "pr6_engine", "pr8_engine"] {
        assert_ratio(
            f(&doc, section, "replay_speedup"),
            wheel,
            f(&doc, section, "hot_path_replay_events_per_sec"),
            &format!("{section}.replay_speedup"),
        );
    }
    assert_ratio(
        f(&doc, "pr8_engine", "fig2_xl_speedup"),
        f(&doc, "fig2_xl", "events_per_sec"),
        f(&doc, "pr8_engine", "fig2_xl_events_per_sec"),
        "pr8_engine.fig2_xl_speedup",
    );
}

/// Schema v3's crowd-scaling baseline must carry a real measurement:
/// the full 10^5 population, a positive event rate, a setup time, and
/// a peak RSS inside the ceiling recorded beside it (the committed
/// form of the bench's own assertion). The dispatch map must show the
/// cohort fast path doing the background work and the fully simulated
/// foreground still present — with nothing falling back to boxed
/// dispatch.
#[test]
fn fig2_xl_baseline_is_sound() {
    let doc = load();
    assert_eq!(
        f(&doc, "fig2_xl", "population") as u64,
        100_000,
        "fig2_xl population"
    );
    assert!(f(&doc, "fig2_xl", "events") > 0.0);
    assert!(f(&doc, "fig2_xl", "events_per_sec") > 0.0);
    assert!(f(&doc, "fig2_xl", "setup_secs") > 0.0);
    let rss = f(&doc, "fig2_xl", "peak_rss_bytes");
    let ceiling = f(&doc, "fig2_xl", "peak_rss_ceiling_bytes");
    assert!(
        rss > 0.0 && rss < ceiling,
        "fig2_xl peak RSS {rss} outside (0, {ceiling})"
    );
    let dispatch = doc
        .get("fig2_xl")
        .and_then(|s| s.get("dispatch"))
        .expect("fig2_xl dispatch map");
    let count = |v: &str| dispatch.get(v).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(count("boxed"), 0, "fig2_xl used the boxed fallback");
    assert!(count("cohort") > 0, "fig2_xl dispatched no cohort events");
    assert!(
        count("client") > 0,
        "fig2_xl dispatched no foreground-client events"
    );
}

/// Schema v4's replicated-thinner row must carry a real measurement and
/// must witness balance: fig2 at `--thinners 4` leaves shard 0 with no
/// more than one replica island's even share of the events (+5 points;
/// the single-thinner engine pinned ~25% there on top of its clients).
/// The committed row predates replica-affine placement, when replicas
/// were moved *off* shard 0, and reads 0.
#[test]
fn replicated_thinner_baseline_is_sound() {
    let doc = load();
    let thinners = f(&doc, "replicated_thinners", "thinners");
    let shards = f(&doc, "replicated_thinners", "shards");
    assert_eq!(thinners as u64, 4);
    assert!(shards >= 4.0);
    assert!(f(&doc, "replicated_thinners", "events") > 0.0);
    assert!(f(&doc, "replicated_thinners", "events_per_sec") > 0.0);
    let share = f(&doc, "replicated_thinners", "shard0_event_share");
    let bar = 1.0 / shards.min(thinners) + 0.05;
    assert!(
        (0.0..=bar).contains(&share),
        "committed shard-0 share {share} is above the even-share bar {bar}"
    );
}

#[test]
fn steady_state_stays_allocation_free() {
    let doc = load();
    // Same bounds the bench asserts at measurement time (see
    // engine_throughput.rs for why the replay bound is one per
    // thousand events rather than literal zero).
    let allocs = f(&doc, "hot_path_replay", "steady_state_allocs");
    let pops = f(&doc, "hot_path_replay", "schedule_pops");
    assert!(
        allocs * 1_000.0 < pops / 2.0,
        "committed replay steady state allocates {allocs} times over {pops} pops"
    );
    for wl in ["fig2", "fig7"] {
        let rate = workload(&doc, wl)
            .get("steady_state_allocs_per_event")
            .and_then(Json::as_f64)
            .expect("workload steady_state_allocs_per_event");
        assert!(
            rate < 0.05,
            "{wl} steady state allocates {rate} times/event in the committed baseline"
        );
    }
}

#[test]
fn dispatch_is_fully_devirtualized() {
    let doc = load();
    for wl in ["fig2", "fig7"] {
        let dispatch = workload(&doc, wl).get("dispatch").expect("dispatch map");
        let boxed = dispatch
            .get("boxed")
            .and_then(Json::as_u64)
            .expect("boxed dispatch count");
        let concrete: u64 = ["client", "thinner", "web", "wget", "cohort"]
            .iter()
            .map(|v| dispatch.get(v).and_then(Json::as_u64).unwrap_or(0))
            .sum();
        assert_eq!(
            boxed, 0,
            "{wl} dispatched {boxed} events through the boxed fallback"
        );
        assert!(concrete > 0, "{wl} recorded no concrete-variant dispatches");
    }
}
