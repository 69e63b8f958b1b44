//! Cohort correctness pins:
//!
//! 1. A scenario's one fully simulated client and a cohort of N = 1 are
//!    *observably identical*: same report metrics, same event and
//!    per-variant dispatch counts, across random seeds, profiles, and
//!    thinner modes. Both are one `CohortAgent` on the same node/link
//!    layout with the same identity, so this holds bit for bit.
//! 2. At small N, a cohort-aggregated population matches the fully
//!    simulated population within the existing `speakup compare`
//!    tolerances (the statistical claim: superposing N Poisson arrival
//!    processes and aggregating the access link preserves the figure).
//! 3. `fig2_xl`'s cohort topology keeps the engine's core invariant:
//!    reports are byte-identical at every `--shards` count, with the
//!    crowd split over two replica islands.

use speakup_core::client::ClientProfile;
use speakup_exp::driver::report_json;
use speakup_exp::json::Json;
use speakup_exp::runner::{run, run_sharded, RunReport};
use speakup_exp::scenario::{ClientSpec, Mode, Scenario};
use speakup_exp::{compare, scenarios};
use speakup_net::time::SimDuration;

/// A contended one-client scenario: capacity below demand so the run
/// exercises serves, drops, backlog, and (for `give_up`) abandonment.
fn solo_scenario(profile: ClientProfile, mode: Mode, seed: u64, cohort: bool) -> Scenario {
    let mut s = Scenario::new("solo-eq", 1.0, mode)
        .duration(SimDuration::from_secs(30))
        .seed(seed);
    let spec = ClientSpec::lan(profile);
    if cohort {
        s.add_cohorts(1, 1, spec);
    } else {
        s.add_clients(1, spec);
    }
    s
}

/// Events processed, summed across shards, and application callbacks
/// dispatched per variant. Both runs install the same agent, so the
/// labelled counts must agree exactly, not just their sum.
fn totals(r: &RunReport) -> (u64, Vec<(&'static str, u64)>) {
    let events: u64 = r.shard_events.iter().sum();
    (events, r.dispatch_counts.clone())
}

fn assert_identical(profile: ClientProfile, mode: Mode, seed: u64) {
    let solo = run(&solo_scenario(profile, mode, seed, false));
    let crowd = run(&solo_scenario(profile, mode, seed, true));
    assert_eq!(
        report_json(&solo).pretty(),
        report_json(&crowd).pretty(),
        "N=1 cohort report diverged (profile {profile:?}, mode {mode:?}, seed {seed:#x})"
    );
    assert_eq!(
        totals(&solo),
        totals(&crowd),
        "N=1 cohort event/dispatch counts diverged (seed {seed:#x})"
    );
}

mod n1_identity {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Each case runs four 30-second simulations; keep the count
        // modest (the default 256 would take minutes in debug builds).
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Across random seeds, a cohort of one good client and a
        /// cohort of one bad client are indistinguishable from the
        /// fully simulated equivalents under the auction thinner.
        #[test]
        fn cohort_of_one_is_one_client(seed in any::<u64>()) {
            assert_identical(ClientProfile::good(), Mode::Auction, seed);
            assert_identical(ClientProfile::bad(), Mode::Auction, seed);
        }
    }

    /// The remaining thinner modes (and the give-up path, which swaps
    /// serve-driven refills for timer-driven abandonment) hold too.
    #[test]
    fn identity_covers_modes_and_give_up() {
        let give_up = ClientProfile::good().give_up_after(SimDuration::from_secs(2));
        for seed in [0x5ea4, 0xb0a7_5eed] {
            assert_identical(ClientProfile::good(), Mode::Off, seed);
            assert_identical(ClientProfile::bad(), Mode::Retry, seed);
            assert_identical(give_up, Mode::Auction, seed);
        }
    }
}

/// The metrics cohort aggregation promises to preserve: everything
/// Fig 2 plots (who the server works for, how much good demand is met)
/// plus the class-level request ledger and loaded latency statistics.
///
/// Deliberately absent: per-request payment times, payment bytes, and
/// auction prices. A cohort's access link carries the *aggregate*
/// member bandwidth — the currency speak-up meters, so allocation is
/// preserved — but a lone member can burst at up to N x its real rate,
/// so per-request pacing statistics are not distribution-exact (nor is
/// `latency_s.min`, which embeds the unloaded serialization delay).
/// Those metrics are what the fully simulated *foreground* population
/// is for; see the module docs of `agents::cohort`. `denied` is also
/// out: it is the small residual of `generated - served`, so the same
/// drift that is a few percent of `served` is tens of percent of it.
fn fig2_metrics(r: &RunReport) -> Json {
    let class = |c: &speakup_core::metrics::ClassReport| {
        let mut latency = c.latency.clone();
        Json::obj()
            .field("clients", c.clients as u64)
            .field("generated", c.generated)
            .field("issued", c.issued)
            .field("served", c.served)
            .field("served_fraction", c.served_fraction())
            .field("latency_count", c.latency.len() as u64)
            .field("latency_mean", latency.mean())
            .field("latency_p90", latency.percentile(0.90))
    };
    Json::obj()
        .field("good", class(&r.good))
        .field("bad", class(&r.bad))
        .field(
            "allocation",
            Json::obj()
                .field("good", r.allocation.good)
                .field("bad", r.allocation.bad)
                .field("good_fraction", r.good_fraction()),
        )
        .field("server_utilization", r.server_utilization)
        .field("payment_bytes_total", r.payment_bytes_total)
}

/// Fig 2's shape at 20 clients, either fully simulated or with the
/// background aggregated into cohorts of five.
fn small_n_scenario(cohort: bool) -> Scenario {
    let mut s = Scenario::new("small-n-eq", 2.0 * 20.0, Mode::Auction)
        .duration(SimDuration::from_secs(120))
        .seed(0x5ea4);
    let good = ClientSpec::lan(ClientProfile::good());
    let bad = ClientSpec::lan(ClientProfile::bad());
    if cohort {
        s.add_cohorts(2, 5, good).add_cohorts(2, 5, bad);
    } else {
        s.add_clients(10, good).add_clients(10, bad);
    }
    s
}

/// Aggregating the population into cohorts changes the RNG sample path
/// but not the statistics: the Fig 2 metrics stay within the `speakup
/// compare` tolerance machinery (scaled 3x — two *independent*
/// 120-second sample paths, where golden comparisons diff the *same*
/// path against itself).
#[test]
fn small_n_cohorts_match_full_simulation_statistically() {
    let full = run(&small_n_scenario(false));
    let crowd = run(&small_n_scenario(true));
    assert_eq!(full.per_client.len(), 20);
    assert_eq!(crowd.per_client.len(), 4, "one row per cohort");
    let breaches = compare::diff(&fig2_metrics(&full), &fig2_metrics(&crowd), 3.0);
    assert!(
        breaches.is_empty(),
        "cohort aggregation drifted outside compare tolerances:\n{}",
        breaches
            .iter()
            .map(|b| format!(
                "  {}: full {} vs cohorts {} (allowed {})",
                b.path, b.golden, b.fresh, b.allowed
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `fig2_xl`'s mixed topology (foreground clients + cohort nodes) must
/// keep the engine's core determinism guarantee: the report is
/// byte-identical no matter how its two replica islands split across
/// shards.
#[test]
fn fig2_xl_reports_are_shard_count_invariant() {
    let scenario = scenarios::fig2_xl_sized(4, 4, 25)
        .duration(SimDuration::from_secs(2))
        .thinners(2);
    assert_eq!(scenario.population(), 208);
    let single = run_sharded(&scenario, 1);
    let baseline = report_json(&single).pretty();
    for shards in [2, 4] {
        let sharded = report_json(&run_sharded(&scenario, shards)).pretty();
        assert_eq!(
            baseline, sharded,
            "fig2_xl report changed at --shards {shards}"
        );
    }
    // The crowd opens a payment channel per contending request and the
    // thinner terminates it at the auction: flow tables that followed
    // history would hold both halves of every flow ever opened.
    let halves_opened = 2 * single.flows_opened.iter().sum::<u64>();
    let halves_peak: u64 = single.flows_peak.iter().sum();
    assert!(
        halves_peak < halves_opened,
        "{halves_peak} flow halves held at once for {halves_opened} opened: dead halves are not retired"
    );
}
