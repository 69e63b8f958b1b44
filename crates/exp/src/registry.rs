//! The scenario registry: every paper experiment as a named entry.
//!
//! Each entry couples a scenario constructor from [`crate::scenarios`]
//! with its paper section, default duration, parameter grid, and the
//! table renderer that used to live in a dedicated `fig*` binary. The
//! unified `speakup` CLI (see [`crate::driver`]) lists and runs entries;
//! nothing else in the repo hard-codes experiment wiring.
//!
//! Two kinds of entry exist:
//!
//! * **simulated** — a grid of [`Scenario`]s run through
//!   [`crate::runner::run_all`], rendered into the figure's table;
//! * **analytic** — direct measurements with no packet simulation (the
//!   Theorem 3.1 auction game, the §7.1 payment-sink throughput).

use crate::json::Json;
use crate::report::{count_est, frac, frac_est, kbytes, kbytes_est, secs_est, table, Est, Reps};
use crate::runner::RunReport;
use crate::scenario::{FaultSpec, Mode, Scenario};
use crate::scenarios;
use speakup_net::time::{SimDuration, SimTime};

/// Options shared by every entry run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOptions {
    /// Simulated duration; `None` means the entry's paper default.
    pub duration: Option<SimDuration>,
    /// Base RNG seed; replicate `k` runs with `seed + k`.
    pub seed: u64,
    /// Seed replicates per grid point (≥ 1). With more than one, figure
    /// tables report mean ± 95% CI across the replicates.
    pub seeds: u32,
    /// Worker pool size; `None` sizes it to the host
    /// (`available_parallelism / shards`).
    pub jobs: Option<usize>,
    /// Shard event loops per run (split client populations).
    pub shards: u32,
    /// Thinner replica override; `None` keeps each scenario's own count
    /// (1 everywhere except the replicated entries).
    pub thinners: Option<u32>,
    /// Replica digest-sync cadence override; `None` keeps each
    /// scenario's own period.
    pub sync_period: Option<SimDuration>,
    /// Fault overrides (`--faults`, `--fault-seed`), appended to every
    /// grid point's own schedule. Replica crashes apply only to grid
    /// points with enough replicas (a crash spec for replica 1 is
    /// meaningless against a single-thinner point); link flaps apply to
    /// every point.
    pub faults: Vec<FaultSpec>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            duration: None,
            seed: 0x5ea4,
            seeds: 1,
            jobs: None,
            shards: 1,
            thinners: None,
            sync_period: None,
            faults: Vec::new(),
        }
    }
}

impl RunOptions {
    /// The effective duration for an entry.
    pub fn duration_for(&self, entry: &Entry) -> SimDuration {
        self.duration
            .unwrap_or(SimDuration::from_secs(entry.default_secs))
    }
}

/// How an entry produces its results.
pub(crate) enum Kind {
    /// A grid of simulator scenarios plus a table renderer. The renderer
    /// receives the grid (paper-default scenarios, in grid order) and,
    /// per grid point, all of its seed replicates (base seed first);
    /// scalar cells render as mean ± 95% CI when replicated.
    Sim {
        build: fn() -> Vec<Scenario>,
        render: fn(&[Scenario], &[Reps]) -> String,
    },
    /// A direct measurement: returns the human table and JSON rows.
    Analytic {
        run: fn(&RunOptions) -> (String, Json),
    },
}

/// One registered experiment.
pub struct Entry {
    /// CLI name (the former binary name).
    pub name: &'static str,
    /// Paper section / figure.
    pub section: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Paper-default simulated seconds.
    pub default_secs: u64,
    /// Human description of the parameter grid.
    pub grid: &'static str,
    pub(crate) kind: Kind,
}

impl Entry {
    /// Whether the entry runs packet simulations (vs a direct measurement).
    pub fn is_simulated(&self) -> bool {
        matches!(self.kind, Kind::Sim { .. })
    }

    /// The entry's scenario grid with paper defaults (empty for analytic
    /// entries).
    pub fn build_grid(&self) -> Vec<Scenario> {
        match self.kind {
            Kind::Sim { build, .. } => build(),
            Kind::Analytic { .. } => Vec::new(),
        }
    }
}

/// Every registered experiment, in paper order.
pub fn registry() -> &'static [Entry] {
    &REGISTRY
}

/// Look up an entry by CLI name.
pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

static REGISTRY: [Entry; 16] = [
    Entry {
        name: "fig2",
        section: "§7.2, Figure 2",
        title: "allocation to good clients vs their bandwidth fraction, with/without speak-up",
        default_secs: 600,
        grid: "f ∈ {0.1,0.3,0.5,0.7,0.9} × {auction,off}",
        kind: Kind::Sim {
            build: build_fig2,
            render: render_fig2,
        },
    },
    Entry {
        name: "fig2_xl",
        section: "§7.2 at scale",
        title: "crowd scaling: fig2's f=0.5 point at 10^5 clients via flyweight cohorts",
        // Short by design, twice over: cohort nodes churn flows fast
        // enough that the paper's 600 s would exhaust the per-node
        // flow-id space (see `scenarios::fig2_xl`), and the population
        // moves ~2 x 10^8 events per simulated second, so even one
        // second is minutes of wall clock on one core. One second is
        // plenty to measure allocation, throughput and peak RSS
        // (`benchmark/`'s `fig2_xl_crowd` workload runs this default).
        default_secs: 1,
        grid: "single run (100 foreground clients + 100 cohorts × 999 members)",
        kind: Kind::Sim {
            build: build_fig2_xl,
            render: render_fig2_xl,
        },
    },
    Entry {
        name: "fig2_replicated",
        section: "§7.2 replicated",
        title:
            "replicated thinners: fig2's f=0.5 point with R auction replicas syncing bid digests",
        default_secs: 60,
        grid: "R=1 + R ∈ {2,4,8} × sync ∈ {10,100} ms",
        kind: Kind::Sim {
            build: build_fig2_replicated,
            render: render_fig2_replicated,
        },
    },
    Entry {
        name: "fig2_faults",
        section: "§7.2 robustness",
        title: "replica failover: fig2's f=0.5 point with R=4 replicas, one crashing mid-run",
        default_secs: 60,
        grid: "sync ∈ {10,100} ms × (baseline + crash@{15,30} s)",
        kind: Kind::Sim {
            build: build_fig2_faults,
            render: render_fig2_faults,
        },
    },
    Entry {
        name: "fig3",
        section: "§7.2–7.3, Figures 3–5",
        title: "provisioning regimes: allocation, payment time, and price vs capacity",
        default_secs: 600,
        grid: "c ∈ {50,100,200} × {off,auction}",
        kind: Kind::Sim {
            build: build_fig3,
            render: render_fig3,
        },
    },
    Entry {
        name: "min_capacity",
        section: "§7.4",
        title: "smallest capacity at which all good demand is served (adversarial advantage)",
        default_secs: 600,
        grid: "c ∈ {100,110,115,125,140,160,180,200}",
        kind: Kind::Sim {
            build: build_min_capacity,
            render: render_min_capacity,
        },
    },
    Entry {
        name: "fig6",
        section: "§7.5, Figure 6",
        title: "heterogeneous client bandwidths: allocation tracks the bandwidth ideal",
        default_secs: 600,
        grid: "single run (5 bandwidth categories)",
        kind: Kind::Sim {
            build: build_fig6,
            render: render_fig6,
        },
    },
    Entry {
        name: "fig7",
        section: "§7.5, Figure 7",
        title: "heterogeneous RTTs: long RTTs hurt good clients, not bad ones",
        default_secs: 600,
        grid: "{all-good, all-bad} (5 RTT categories each)",
        kind: Kind::Sim {
            build: build_fig7,
            render: render_fig7,
        },
    },
    Entry {
        name: "fig8",
        section: "§7.6, Figure 8",
        title: "good and bad clients sharing a bottleneck link",
        default_secs: 600,
        grid: "good-behind-l ∈ {5,15,25}",
        kind: Kind::Sim {
            build: build_fig8,
            render: render_fig8,
        },
    },
    Entry {
        name: "fig9",
        section: "§7.7, Figure 9",
        title: "impact on bystander HTTP downloads sharing the bottleneck",
        default_secs: 600,
        grid: "size ∈ {1,4,16,64,100} KB × {off,on}",
        kind: Kind::Sim {
            build: build_fig9,
            render: render_fig9,
        },
    },
    Entry {
        name: "hetero",
        section: "§5",
        title: "heterogeneous requests: plain auction vs per-quantum auction",
        default_secs: 600,
        grid: "{auction, quantum(10ms)}, hard=5",
        kind: Kind::Sim {
            build: build_hetero,
            render: render_hetero,
        },
    },
    Entry {
        name: "profiling",
        section: "§8.1",
        title: "detect-and-block (per-identity rate limiting) vs speak-up, ± spoofing",
        default_secs: 300,
        grid: "{profile,auction} × {honest,spoofing}",
        kind: Kind::Sim {
            build: build_profiling,
            render: render_profiling,
        },
    },
    Entry {
        name: "retry_ablation",
        section: "§3.2 vs §3.3",
        title: "ablation: random drops + aggressive retries vs the payment-channel auction",
        default_secs: 600,
        grid: "c ∈ {50,100,200} × {auction,retry}",
        kind: Kind::Sim {
            build: build_retry_ablation,
            render: render_retry_ablation,
        },
    },
    Entry {
        name: "flash_crowd",
        section: "§9",
        title: "flash crowds: all clients good, demand far above capacity",
        default_secs: 600,
        grid: "{auction, off}",
        kind: Kind::Sim {
            build: build_flash_crowd,
            render: render_flash_crowd,
        },
    },
    Entry {
        name: "adversary",
        section: "§3.4, Theorem 3.1",
        title: "auction game vs adversarial spending schedules (analytic, no simulation)",
        default_secs: 600,
        grid: "eps ∈ {0.05,0.1,0.2,0.3,0.5} × 4 strategies",
        kind: Kind::Analytic { run: run_adversary },
    },
    Entry {
        name: "capacity",
        section: "§7.1, Table 1",
        title: "payment-sink throughput: parse + credit at two frame sizes (analytic)",
        default_secs: 600,
        grid: "frame ∈ {1500,120} bytes",
        kind: Kind::Analytic { run: run_capacity },
    },
];

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

const FIG2_FS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

fn build_fig2() -> Vec<Scenario> {
    let mut scens = Vec::new();
    for &f in &FIG2_FS {
        for mode in [Mode::Auction, Mode::Off] {
            scens.push(scenarios::fig2(f, mode));
        }
    }
    scens
}

fn render_fig2(_scens: &[Scenario], reps: &[Reps]) -> String {
    let mut rows = Vec::new();
    for (i, &f) in FIG2_FS.iter().enumerate() {
        let with = reps[2 * i];
        let without = reps[2 * i + 1];
        rows.push(vec![
            format!("{f:.1}"),
            frac_est(with.est(|r| r.good_fraction())),
            frac_est(without.est(|r| r.good_fraction())),
            frac(f), // ideal = G/(G+B) = f in this homogeneous setting
        ]);
    }
    format!(
        "\nFigure 2: server allocation to good clients vs their bandwidth fraction (c=100)\n{}\
         paper shape: 'with' tracks the ideal line closely (slightly below);\n\
         'without' stays far below it because bad clients out-request good ones.\n",
        table(&["f=G/(G+B)", "with speak-up", "without", "ideal"], &rows)
    )
}

// ---------------------------------------------------------------------------
// Figure 2 at scale (crowd scaling baseline)
// ---------------------------------------------------------------------------

fn build_fig2_xl() -> Vec<Scenario> {
    vec![scenarios::fig2_xl()]
}

fn render_fig2_xl(scens: &[Scenario], reps: &[Reps]) -> String {
    let rp = reps[0];
    let s = &scens[0];
    let rows = vec![vec![
        format!("{}", s.population()),
        format!("{}", s.clients.len()),
        format!("{}", s.cohorts.len()),
        frac_est(rp.est(|r| r.good_fraction())),
        frac(s.ideal_good_share()),
        frac_est(rp.est(|r| r.good_served_fraction())),
    ]];
    format!(
        "\nFigure 2 at scale: f=0.5 with a 10^5-client population (flyweight cohorts)\n{}\
         expected: the same near-ideal allocation fig2 shows at 50 clients —\n\
         the population size changes memory and event volume, not the share.\n",
        table(
            &[
                "population",
                "foreground",
                "cohorts",
                "alloc good",
                "ideal",
                "good served"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// Replicated thinners (fig2's f=0.5 point across replica counts)
// ---------------------------------------------------------------------------

/// Committed fairness band for the replicated-thinner entry: the
/// good-client allocation share at any swept `R` must sit within this
/// absolute distance of the `R = 1` baseline. Recorded in the golden
/// (`fairness.band`) and enforced by the regression test in
/// `tests/thinner_equivalence.rs`.
pub const FAIRNESS_BAND: f64 = 0.05;

const REPLICA_COUNTS: [u32; 3] = [2, 4, 8];
const REPLICA_SYNC_MS: [u64; 2] = [10, 100];

fn build_fig2_replicated() -> Vec<Scenario> {
    let base = scenarios::fig2(0.5, Mode::Auction);
    let mut baseline = base.clone();
    baseline.name = "fig2_replicated R=1".to_string();
    let mut scens = vec![baseline];
    for &r in &REPLICA_COUNTS {
        for &ms in &REPLICA_SYNC_MS {
            let mut s = base
                .clone()
                .thinners(r)
                .sync_period(SimDuration::from_millis(ms));
            s.name = format!("fig2_replicated R={r} sync={ms}ms");
            scens.push(s);
        }
    }
    scens
}

fn render_fig2_replicated(scens: &[Scenario], reps: &[Reps]) -> String {
    let base_alloc = reps[0].est(|r| r.good_fraction()).mean;
    let mut rows = Vec::new();
    for (sc, rp) in scens.iter().zip(reps) {
        let alloc = rp.est(|r| r.good_fraction());
        rows.push(vec![
            format!("{}", sc.thinners),
            if sc.thinners > 1 {
                format!("{} ms", sc.sync_period.as_nanos() / 1_000_000)
            } else {
                "-".to_string()
            },
            frac_est(alloc),
            format!("{:+.3}", alloc.mean - base_alloc),
            frac_est(rp.est(|r| r.good_served_fraction())),
            frac(0.5),
        ]);
    }
    format!(
        "\nReplicated thinners: fig2 f=0.5 under R auction replicas (c=100, band ±{FAIRNESS_BAND})\n{}\
         expected: every R tracks the single thinner's allocation within the\n\
         band — replicas see only their own contenders, but the epoch digest\n\
         exchange re-rates each replica's capacity share toward the global\n\
         paid-byte proportions, so the aggregate allocation barely moves.\n\
         Staler syncs (100 ms vs 10 ms) may drift slightly further.\n",
        table(
            &[
                "R",
                "sync",
                "alloc good",
                "vs R=1",
                "good served",
                "ideal"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// §7.2 robustness: replica failover under a mid-run crash
// ---------------------------------------------------------------------------

/// Committed goodput band for the fault entry: the good-client share of
/// the work completed *during a replica outage* must sit within this
/// absolute distance of the same sync cadence's crash-free allocation
/// share. Recorded in the golden (`failover.band`) and enforced by the
/// regression test in `tests/fault_determinism.rs`.
pub const FAULT_GOODPUT_BAND: f64 = 0.10;

/// Replica count for the fault sweep (the acceptance case: 1 of R=4
/// replicas dies mid-run).
const FAULT_REPLICAS: u32 = 4;
/// Which replica crashes. Replica 1, not 0: replica 0 shares its node
/// with the classic thinner placement, and crashing a non-zero replica
/// exercises the appended-node path too.
const FAULT_CRASH_REPLICA: u32 = 1;
/// Swept crash instants, seconds.
const FAULT_CRASH_AT_S: [u64; 2] = [15, 30];
/// Outage length, seconds.
const FAULT_DOWN_FOR_S: u64 = 10;
/// Swept digest-sync cadences, milliseconds (failover latency scales
/// with the sync period: staleness is counted in missed sync epochs).
const FAULT_SYNC_MS: [u64; 2] = [10, 100];

fn build_fig2_faults() -> Vec<Scenario> {
    let base = scenarios::fig2(0.5, Mode::Auction).thinners(FAULT_REPLICAS);
    let mut scens = Vec::new();
    for &ms in &FAULT_SYNC_MS {
        let synced = base.clone().sync_period(SimDuration::from_millis(ms));
        let mut baseline = synced.clone();
        baseline.name = format!("fig2_faults R={FAULT_REPLICAS} sync={ms}ms baseline");
        scens.push(baseline);
        for &at in &FAULT_CRASH_AT_S {
            let mut s = synced.clone().crash_replica(
                FAULT_CRASH_REPLICA,
                SimTime::from_secs(at),
                SimDuration::from_secs(FAULT_DOWN_FOR_S),
            );
            s.name = format!("fig2_faults R={FAULT_REPLICAS} sync={ms}ms crash@{at}s");
            scens.push(s);
        }
    }
    scens
}

fn render_fig2_faults(scens: &[Scenario], reps: &[Reps]) -> String {
    // Each sync cadence's baseline (crash-free) allocation share is the
    // reference the crashed runs are banded against.
    let mut rows = Vec::new();
    let mut base_alloc = 0.0;
    for (sc, rp) in scens.iter().zip(reps) {
        let alloc = rp.est(|r| r.good_fraction());
        let f = rp.base().failover.as_ref();
        if f.is_none() {
            base_alloc = alloc.mean;
        }
        let opt_secs = |v: Option<f64>| match v {
            Some(s) => format!("{s:.2} s"),
            None => "-".to_string(),
        };
        rows.push(vec![
            format!("{} ms", sc.sync_period.as_nanos() / 1_000_000),
            f.map_or("-".to_string(), |f| format!("{:.0} s", f.crash_at_s)),
            frac_est(alloc),
            f.map_or("-".to_string(), |_| {
                format!("{:+.3}", alloc.mean - base_alloc)
            }),
            f.map_or("-".to_string(), |f| frac(f.outage_good_fraction())),
            opt_secs(f.and_then(|f| f.time_to_failover_s())),
            opt_secs(f.and_then(|f| f.time_to_recovery_s())),
        ]);
    }
    format!(
        "\nReplica failover: fig2 f=0.5, 1 of R={FAULT_REPLICAS} replicas crashes for \
         {FAULT_DOWN_FOR_S} s (band ±{FAULT_GOODPUT_BAND})\n{}\
         expected: survivors notice the silent digest within a few sync\n\
         periods, absorb the dead replica's capacity share, and the\n\
         good-client share of work completed during the outage stays\n\
         within the band of the crash-free baseline; the restarted\n\
         replica re-joins via its reset digest epoch.\n",
        table(
            &[
                "sync",
                "crash@",
                "alloc good",
                "vs baseline",
                "outage good",
                "t-failover",
                "t-recover"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// Figures 3–5
// ---------------------------------------------------------------------------

const FIG3_CS: [f64; 3] = [50.0, 100.0, 200.0];

fn build_fig3() -> Vec<Scenario> {
    let mut scens = Vec::new();
    for &c in &FIG3_CS {
        for mode in [Mode::Off, Mode::Auction] {
            scens.push(scenarios::fig3(c, mode));
        }
    }
    scens
}

fn render_fig3(scens: &[Scenario], reps: &[Reps]) -> String {
    let mut out = String::new();

    // ---------- Figure 3 ----------
    let mut rows = Vec::new();
    for (i, &c) in FIG3_CS.iter().enumerate() {
        let off = reps[2 * i];
        let on = reps[2 * i + 1];
        for (label, r) in [("OFF", off), ("ON", on)] {
            rows.push(vec![
                format!("{c:.0},{label}"),
                frac_est(r.est(|x| x.good_fraction())),
                frac_est(r.est(|x| 1.0 - x.good_fraction())),
                frac_est(r.est(|x| x.good_served_fraction())),
            ]);
        }
    }
    out.push_str("\nFigure 3: allocation and good service by capacity (G=B=50 Mbit/s, c_id=100)\n");
    out.push_str(&table(
        &["c,mode", "alloc good", "alloc bad", "good served"],
        &rows,
    ));

    // ---------- Figure 4 ----------
    let mut rows = Vec::new();
    for (i, &c) in FIG3_CS.iter().enumerate() {
        let on = reps[2 * i + 1];
        rows.push(vec![
            format!("{c:.0}"),
            secs_est(on.est(|r| r.good.payment_time.mean())),
            secs_est(on.est(|r| r.good.payment_time.clone().percentile(90.0))),
        ]);
    }
    out.push_str("\nFigure 4: time uploading dummy bytes, served good requests (speak-up ON)\n");
    out.push_str(&table(&["c", "mean", "90th pct"], &rows));

    // ---------- Figure 5 ----------
    let mut rows = Vec::new();
    for (i, &c) in FIG3_CS.iter().enumerate() {
        let on = reps[2 * i + 1];
        let ub = scens[2 * i + 1].price_upper_bound();
        rows.push(vec![
            format!("{c:.0}"),
            kbytes(ub),
            kbytes_est(on.est(|r| r.price_good.mean())),
            kbytes_est(on.est(|r| r.price_bad.mean())),
        ]);
    }
    out.push_str("\nFigure 5: average price (payment bytes per served request, speak-up ON)\n");
    out.push_str(&table(&["c", "upper bound (G+B)/c", "good", "bad"], &rows));
    out.push_str(
        "paper shape: overloaded (c=50,100) prices approach but stay below the\n\
         bound (clients cannot use every last bit of bandwidth); at c=200 the\n\
         server is lightly loaded relative to demand and prices collapse.\n",
    );
    out
}

// ---------------------------------------------------------------------------
// §7.4 minimum capacity
// ---------------------------------------------------------------------------

const MIN_CAP_CS: [f64; 8] = [100.0, 110.0, 115.0, 125.0, 140.0, 160.0, 180.0, 200.0];

fn build_min_capacity() -> Vec<Scenario> {
    scenarios::min_capacity_sweep(Mode::Auction, &MIN_CAP_CS)
}

fn render_min_capacity(_scens: &[Scenario], reps: &[Reps]) -> String {
    let mut rows = Vec::new();
    let mut threshold: Option<f64> = None;
    for (rp, &c) in reps.iter().zip(&MIN_CAP_CS) {
        let served = rp.est(|r| r.good_served_fraction());
        // "Satisfied" up to simulation-edge censoring (~λ·w in-flight at
        // the cutoff) and stochastic backlog blips.
        if served.mean >= 0.99 && threshold.is_none() {
            threshold = Some(c);
        }
        rows.push(vec![
            format!("{c:.0}"),
            frac_est(served),
            frac_est(rp.est(|r| r.good_fraction())),
            format!("{:.0}%", (c / 100.0 - 1.0) * 100.0),
        ]);
    }
    let verdict = match threshold {
        Some(c) => format!(
            "good demand (essentially) fully served at c = {c:.0} — {:.0}% above the\n\
             bandwidth-proportional ideal (paper: 15%).\n",
            (c / 100.0 - 1.0) * 100.0
        ),
        None => "good demand not fully served in the swept range.\n".to_string(),
    };
    format!(
        "\nSection 7.4: provisioning needed to satisfy all good demand (c_id = 100)\n{}{verdict}",
        table(&["c", "good served", "alloc good", "over c_id"], &rows)
    )
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

fn build_fig6() -> Vec<Scenario> {
    vec![scenarios::fig6()]
}

/// Served-request share of each 10-client category (Figs 6 and 7 group
/// clients in scenario order).
fn category_shares(r: &RunReport) -> [f64; 5] {
    let mut served = [0u64; 5];
    for (i, pc) in r.per_client.iter().enumerate() {
        served[i / 10] += pc.served;
    }
    let total = served.iter().sum::<u64>().max(1);
    let mut out = [0.0; 5];
    for i in 0..5 {
        out[i] = served[i] as f64 / total as f64;
    }
    out
}

fn render_fig6(_scens: &[Scenario], reps: &[Reps]) -> String {
    let rp = reps[0];
    let mut rows = Vec::new();
    for i in 0..5 {
        let bw_mbps = 0.5 * (i as f64 + 1.0);
        rows.push(vec![
            format!("{bw_mbps:.1}"),
            frac_est(rp.est(|r| category_shares(r)[i])),
            frac((i as f64 + 1.0) / 15.0),
        ]);
    }
    format!(
        "\nFigure 6: allocation by client bandwidth (all good, c=10)\n{}\
         paper shape: observed tracks the bandwidth-proportional ideal.\n",
        table(
            &["bandwidth Mbit/s", "observed share", "ideal share"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

fn build_fig7() -> Vec<Scenario> {
    vec![scenarios::fig7(false), scenarios::fig7(true)]
}

fn render_fig7(_scens: &[Scenario], reps: &[Reps]) -> String {
    let good = reps[0];
    let bad = reps[1];
    let mut rows = Vec::new();
    for i in 0..5 {
        rows.push(vec![
            format!("{}", 100 * (i + 1)),
            frac_est(good.est(|r| category_shares(r)[i])),
            frac_est(bad.est(|r| category_shares(r)[i])),
            frac(0.2),
        ]);
    }
    format!(
        "\nFigure 7: allocation by client RTT (c=10; separate all-good and all-bad runs)\n{}\
         paper shape: good clients' share falls with RTT (no more than ~2x off\n\
         ideal at the extremes); bad clients' share is flat — RTT doesn't matter\n\
         when you keep many concurrent requests outstanding.\n",
        table(
            &["RTT ms", "all-good share", "all-bad share", "ideal"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

const FIG8_SPLITS: [usize; 3] = [5, 15, 25];

fn build_fig8() -> Vec<Scenario> {
    FIG8_SPLITS.iter().map(|&n| scenarios::fig8(n)).collect()
}

/// Fig 8 derived metrics: (bottleneck's server share, good clients'
/// share of it, served fraction of good-behind-bottleneck demand).
fn fig8_derived(r: &RunReport) -> (f64, f64, f64) {
    let (mut bg, mut bb, mut bg_gen) = (0u64, 0u64, 0u64);
    let mut direct = 0u64;
    for pc in &r.per_client {
        if pc.behind_bottleneck {
            if pc.is_bad {
                bb += pc.served;
            } else {
                bg += pc.served;
                bg_gen += pc.generated;
            }
        } else {
            direct += pc.served;
        }
    }
    let behind = bg + bb;
    (
        behind as f64 / (behind + direct).max(1) as f64,
        bg as f64 / behind.max(1) as f64,
        bg as f64 / bg_gen.max(1) as f64,
    )
}

fn render_fig8(_scens: &[Scenario], reps: &[Reps]) -> String {
    let mut rows = Vec::new();
    for (rp, &n_good) in reps.iter().zip(&FIG8_SPLITS) {
        rows.push(vec![
            format!("{n_good} good, {} bad", 30 - n_good),
            frac_est(rp.est(|r| fig8_derived(r).0)),
            frac_est(rp.est(|r| fig8_derived(r).1)),
            frac(n_good as f64 / 30.0),
            frac_est(rp.est(|r| fig8_derived(r).2)),
        ]);
    }
    format!(
        "\nFigure 8: good and bad clients sharing a 40 Mbit/s bottleneck (c=50)\n{}\
         paper shape: clients behind l capture ~half the server, but *within*\n\
         that share the good clients get far less than their headcount ideal —\n\
         bad clients hog l with concurrent connections (and would with or\n\
         without speak-up).\n",
        table(
            &[
                "behind l",
                "l's server share",
                "good share of it",
                "ideal good share",
                "bottl. good served",
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

const FIG9_SIZES: [u64; 5] = [1 << 10, 1 << 12, 1 << 14, 1 << 16, 100 << 10];

fn build_fig9() -> Vec<Scenario> {
    let mut scens = Vec::new();
    for &size in &FIG9_SIZES {
        for on in [false, true] {
            scens.push(scenarios::fig9(size, on));
        }
    }
    scens
}

fn render_fig9(_scens: &[Scenario], reps: &[Reps]) -> String {
    let lat_mean = |r: &RunReport| r.wget_latencies.as_ref().expect("wget data").mean();
    // Single replicate: the download-latency spread within the run
    // (n = downloads). Replicated: mean of per-run means ± CI across
    // replicates, labelled with the replicate count — that, not the
    // per-run download count, is the CI's sample size.
    let cell = |rp: Reps, e: Est| {
        let base = rp.base().wget_latencies.as_ref().expect("wget data");
        match e.ci95 {
            None => format!(
                "{:.3} ± {:.3} (n={})",
                base.mean(),
                base.stddev(),
                base.len()
            ),
            Some(ci) => format!("{:.3}±{ci:.3} ({} reps)", e.mean, rp.n()),
        }
    };
    let mut rows = Vec::new();
    for (i, &size) in FIG9_SIZES.iter().enumerate() {
        let off = reps[2 * i];
        let on = reps[2 * i + 1];
        let off_e = off.est(lat_mean);
        let on_e = on.est(lat_mean);
        let inflation = if off_e.mean > 0.0 {
            on_e.mean / off_e.mean
        } else {
            0.0
        };
        rows.push(vec![
            format!("{}", size >> 10),
            cell(off, off_e),
            cell(on, on_e),
            format!("{inflation:.1}x"),
        ]);
    }
    format!(
        "\nFigure 9: HTTP download latency sharing a bottleneck with speak-up traffic\n{}\
         paper shape: multi-x inflation across sizes (theirs: ~6x at 1 KB,\n\
         ~4.5x at 64 KB) — significant collateral damage on a restrictive link,\n\
         with the caveat that the experiment is deliberately pessimistic.\n",
        table(
            &[
                "size KB",
                "without speak-up (s)",
                "with speak-up (s)",
                "inflation"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// §5 heterogeneous requests
// ---------------------------------------------------------------------------

const HETERO_HARD: f64 = 5.0;

fn build_hetero() -> Vec<Scenario> {
    vec![
        scenarios::heterogeneous_requests(Mode::Auction, HETERO_HARD),
        scenarios::heterogeneous_requests(
            Mode::Quantum {
                quantum: SimDuration::from_millis(10),
            },
            HETERO_HARD,
        ),
    ]
}

fn render_hetero(_scens: &[Scenario], reps: &[Reps]) -> String {
    // Work share: requests weighted by difficulty.
    let work_share = |r: &RunReport| {
        let good_work = r.allocation.good as f64;
        let bad_work = r.allocation.bad as f64 * HETERO_HARD;
        good_work / (good_work + bad_work).max(1.0)
    };
    let mut rows = Vec::new();
    for rp in reps {
        rows.push(vec![
            rp.base().mode.clone(),
            count_est(rp.est(|r| r.allocation.good as f64)),
            count_est(rp.est(|r| r.allocation.bad as f64)),
            frac_est(rp.est(work_share)),
            frac(0.5),
        ]);
    }
    format!(
        "\nSection 5: equal-bandwidth good vs bad clients; bad requests are 5x harder\n{}\
         expected: the plain auction under-serves good clients by ~the\n\
         difficulty factor; the quantum auction pulls the work share back\n\
         toward the bandwidth-proportional ideal.\n",
        table(
            &[
                "front end",
                "good served",
                "bad served",
                "good share of WORK",
                "ideal",
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// §8.1 profiling comparison
// ---------------------------------------------------------------------------

const PROFILING_LABELS: [&str; 4] = [
    "profiling, honest bots",
    "profiling, spoofing bots",
    "speak-up, honest bots",
    "speak-up, spoofing bots",
];

fn build_profiling() -> Vec<Scenario> {
    // A generous profile: 3 req/s per identity (good clients need 2).
    let profile = Mode::Profile { allowed_rate: 3.0 };
    vec![
        scenarios::profiling_comparison(profile, false),
        scenarios::profiling_comparison(profile, true),
        scenarios::profiling_comparison(Mode::Auction, false),
        scenarios::profiling_comparison(Mode::Auction, true),
    ]
}

fn render_profiling(_scens: &[Scenario], reps: &[Reps]) -> String {
    let mut rows = Vec::new();
    for (rp, label) in reps.iter().zip(PROFILING_LABELS) {
        rows.push(vec![
            label.to_string(),
            frac_est(rp.est(|r| r.good_fraction())),
            frac_est(rp.est(|r| r.good_served_fraction())),
            count_est(rp.est(|r| r.thinner_drops as f64)),
        ]);
    }
    format!(
        "\nSection 8.1: identity-keyed defense vs bandwidth tax (5 good vs 5 bad, c=20)\n{}\
         expected: profiling wins big against fixed identities and collapses\n\
         against spoofing; speak-up's allocation barely moves — the auction\n\
         charges requests, not identities.\n",
        table(
            &[
                "defense / attack",
                "alloc good",
                "good served",
                "blocked+dropped"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// §3.2 vs §3.3 ablation
// ---------------------------------------------------------------------------

fn build_retry_ablation() -> Vec<Scenario> {
    let mut scens = Vec::new();
    for &c in &FIG3_CS {
        for mode in [Mode::Auction, Mode::Retry] {
            scens.push(scenarios::fig3(c, mode));
        }
    }
    scens
}

fn render_retry_ablation(_scens: &[Scenario], reps: &[Reps]) -> String {
    let mut rows = Vec::new();
    for (i, &c) in FIG3_CS.iter().enumerate() {
        let auction = reps[2 * i];
        let retry = reps[2 * i + 1];
        rows.push(vec![
            format!("{c:.0}"),
            frac_est(auction.est(|r| r.good_fraction())),
            frac_est(retry.est(|r| r.good_fraction())),
            frac_est(auction.est(|r| r.good_served_fraction())),
            frac_est(retry.est(|r| r.good_served_fraction())),
        ]);
    }
    format!(
        "\nAblation: auction (3.3) vs aggressive retries (3.2), G=B, ideal good share 0.5\n{}\
         both mechanisms allocate roughly in proportion to bandwidth; the\n\
         auction needs no admission-probability estimate, which is the\n\
         paper's argument for preferring it (3.3 'Comparison').\n",
        table(
            &[
                "c",
                "alloc good (auction)",
                "alloc good (retry)",
                "served (auction)",
                "served (retry)",
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// §9 flash crowds
// ---------------------------------------------------------------------------

fn build_flash_crowd() -> Vec<Scenario> {
    vec![
        scenarios::flash_crowd(Mode::Auction),
        scenarios::flash_crowd(Mode::Off),
    ]
}

fn render_flash_crowd(_scens: &[Scenario], reps: &[Reps]) -> String {
    let mut rows = Vec::new();
    for rp in reps {
        rows.push(vec![
            rp.base().mode.clone(),
            frac_est(rp.est(|r| r.good_served_fraction())),
            secs_est(rp.est(|r| r.good.latency.mean())),
            secs_est(rp.est(|r| r.good.latency.clone().percentile(90.0))),
            frac_est(rp.est(|r| r.server_utilization)),
            count_est(rp.est(|r| r.thinner_drops as f64)),
        ]);
    }
    format!(
        "\nSection 9: flash crowd — 50 good clients, demand 5x capacity (c=20)\n{}\
         expected: with every client good, speak-up cannot improve the\n\
         allocation (there is nothing to defend against) — it charges latency\n\
         and upload bytes for the same served fraction, the paper's caveat\n\
         about applying the defense to overload that isn't an attack.\n",
        table(
            &[
                "front end",
                "good served",
                "mean latency",
                "90th pct",
                "util",
                "drops"
            ],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// §3.4 auction game (analytic)
// ---------------------------------------------------------------------------

fn run_adversary(opts: &RunOptions) -> (String, Json) {
    use speakup_core::analysis::{play_auction_game, theorem_bound, AdversaryStrategy};

    // The paper-default 600 s maps to the former binary's 500 000 rounds;
    // `--secs` scales the game length proportionally.
    let dur_s = opts
        .duration
        .unwrap_or(SimDuration::from_secs(600))
        .as_secs_f64();
    let rounds = ((dur_s / 600.0 * 500_000.0) as u64).max(1_000);
    let strategies: [(&str, AdversaryStrategy); 4] = [
        ("uniform", AdversaryStrategy::Uniform),
        ("just-enough", AdversaryStrategy::JustEnough),
        ("bursty(10)", AdversaryStrategy::Bursty { period: 10 }),
        ("random", AdversaryStrategy::Random { seed: opts.seed }),
    ];
    let epsilons = [0.05, 0.1, 0.2, 0.3, 0.5];

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for &eps in &epsilons {
        let mut row = vec![format!("{eps:.2}"), frac(theorem_bound(eps))];
        let mut json_row = Json::obj()
            .field("eps", eps)
            .field("floor", theorem_bound(eps));
        for (name, strat) in &strategies {
            let o = play_auction_game(eps, rounds, strat);
            row.push(frac(o.x_fraction));
            json_row = json_row.field(name, o.x_fraction);
        }
        rows.push(row);
        json_rows.push(json_row);
    }
    let text = format!(
        "\nTheorem 3.1: win fraction of a continuous eps-bidder vs adversarial schedules\n\
         ({rounds} auctions per cell; floor = eps/(2-eps) >= eps/2)\n{}\
         expected: every column is at or above the floor; 'just-enough' (the\n\
         proof's pessimal, implausibly informed adversary) pins the bidder\n\
         closest to it, while naive schedules leave the bidder near its full\n\
         proportional share eps.\n",
        table(
            &[
                "eps",
                "floor",
                "uniform",
                "just-enough",
                "bursty(10)",
                "random"
            ],
            &rows
        )
    );
    let json = Json::obj()
        .field("rounds", rounds)
        .field("rows", Json::Arr(json_rows));
    (text, json)
}

// ---------------------------------------------------------------------------
// §7.1 payment-sink throughput (analytic)
// ---------------------------------------------------------------------------

fn run_capacity(opts: &RunOptions) -> (String, Json) {
    use speakup_core::thinner::{AuctionConfig, AuctionFrontEnd, FrontEnd};
    use speakup_core::types::{ClientId, RequestId, RequestKey};
    use speakup_net::time::SimTime;
    use speakup_proto::http::{ParseEvent, RequestParser};
    use speakup_proto::message::encode_payment_head;
    use std::time::Instant;

    fn sink(total: u64, frame: usize) -> f64 {
        let mut fe = AuctionFrontEnd::new(AuctionConfig::default());
        let mut out = Vec::new();
        let t0 = SimTime::ZERO;
        fe.on_request(t0, RequestKey::new(ClientId(0), RequestId(0)), &mut out);
        let key = RequestKey::new(ClientId(1), RequestId(1));
        fe.on_request(t0, key, &mut out);
        out.clear();

        let mut parser = RequestParser::new();
        parser.push(&encode_payment_head(1, total));
        while let Ok(Some(ev)) = parser.next_event() {
            if matches!(ev, ParseEvent::Head(_)) {
                break;
            }
        }
        let chunk = vec![0x5au8; frame];
        // Wall-clock throughput measurement, not simulation logic (see clippy.toml).
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let mut sent = 0u64;
        while sent < total {
            let n = (total - sent).min(frame as u64);
            parser.push(&chunk[..n as usize]);
            sent += n;
            while let Ok(Some(ev)) = parser.next_event() {
                match ev {
                    ParseEvent::BodyChunk(b) => fe.on_payment(t0, key, b, &mut out),
                    _ => break,
                }
            }
        }
        assert_eq!(fe.bid_of(key), Some(total));
        let elapsed = started.elapsed().as_secs_f64();
        total as f64 * 8.0 / elapsed / 1e6 // Mbit/s
    }

    // The paper-default 600 s maps to the former binary's 256 MB per
    // measurement; `--secs` scales the measured volume proportionally.
    let dur_s = opts
        .duration
        .unwrap_or(SimDuration::from_secs(600))
        .as_secs_f64();
    let total = (((dur_s / 600.0) * (256u64 << 20) as f64) as u64).clamp(4 << 20, 1 << 30);
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for frame in [1500usize, 120] {
        let mbps = sink(total, frame);
        rows.push(vec![
            format!("{frame}"),
            format!("{mbps:.0} Mbit/s"),
            match frame {
                1500 => "1451 Mbit/s".to_string(),
                _ => "379 Mbit/s".to_string(),
            },
        ]);
        json_rows.push(
            Json::obj()
                .field("frame_bytes", frame)
                .field("measured_mbps", mbps),
        );
    }
    let text = format!(
        "Section 7.1: payment-sink throughput (parse + credit), {total} bytes each\n\n{}\
         shape to check: large frames sink several times faster than small\n\
         ones — per-packet (here per-chunk) costs dominate, as in the paper.\n",
        table(
            &[
                "frame bytes",
                "measured (this host)",
                "paper (2006 Xeon + NIC)"
            ],
            &rows
        )
    );
    let json = Json::obj()
        .field("bytes_per_measurement", total)
        .field("rows", Json::Arr(json_rows));
    (text, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_former_binary() {
        let former = [
            "fig2",
            "fig3",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "min_capacity",
            "hetero",
            "profiling",
            "retry_ablation",
            "adversary",
            "capacity",
        ];
        for name in former {
            assert!(find(name).is_some(), "missing registry entry {name}");
        }
        assert!(find("flash_crowd").is_some());
        assert!(find("nonesuch").is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = registry().iter().map(|e| e.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn sim_grids_are_nonempty_and_titled() {
        for e in registry() {
            assert!(!e.title.is_empty());
            assert!(!e.section.is_empty());
            if e.is_simulated() {
                let grid = e.build_grid();
                assert!(!grid.is_empty(), "{} built an empty grid", e.name);
                for s in &grid {
                    assert!(
                        !s.clients.is_empty() || !s.cohorts.is_empty(),
                        "{}: scenario with no clients or cohorts",
                        e.name
                    );
                }
            } else {
                assert!(e.build_grid().is_empty());
            }
        }
    }

    #[test]
    fn grid_shapes_match_the_paper() {
        assert_eq!(find("fig2").unwrap().build_grid().len(), 10);
        assert_eq!(find("fig2_xl").unwrap().build_grid().len(), 1);
        // R=1 baseline + {2,4,8} x {10,100} ms.
        assert_eq!(find("fig2_replicated").unwrap().build_grid().len(), 7);
        // Per sync cadence {10,100} ms: crash-free baseline + crash@{15,30} s.
        assert_eq!(find("fig2_faults").unwrap().build_grid().len(), 6);
        assert_eq!(find("fig3").unwrap().build_grid().len(), 6);
        assert_eq!(find("fig6").unwrap().build_grid().len(), 1);
        assert_eq!(find("fig7").unwrap().build_grid().len(), 2);
        assert_eq!(find("fig8").unwrap().build_grid().len(), 3);
        assert_eq!(find("fig9").unwrap().build_grid().len(), 10);
        assert_eq!(find("min_capacity").unwrap().build_grid().len(), 8);
    }

    #[test]
    fn fig2_faults_grid_carries_the_crash_specs() {
        let grid = find("fig2_faults").unwrap().build_grid();
        for s in &grid {
            assert_eq!(s.thinners, FAULT_REPLICAS, "{}", s.name);
            if s.name.contains("baseline") {
                assert!(s.faults.is_empty(), "{} should be crash-free", s.name);
            } else {
                assert_eq!(s.faults.len(), 1, "{}", s.name);
                assert!(
                    matches!(
                        s.faults[0],
                        FaultSpec::ReplicaCrash {
                            replica: FAULT_CRASH_REPLICA,
                            ..
                        }
                    ),
                    "{} should crash replica {FAULT_CRASH_REPLICA}",
                    s.name
                );
            }
        }
    }
}
