//! Scenario descriptions: clients, links, thinner mode, duration.
//!
//! A [`Scenario`] is a declarative description of one experimental run,
//! mirroring the way the paper describes its Emulab setups ("50 clients,
//! each with 2 Mbits/s, over a LAN; c = 100 requests/s; ...").

use speakup_core::client::ClientProfile;
use speakup_net::time::{SimDuration, SimTime};

/// Which thinner front end the run uses.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Mode {
    /// No speak-up: random drops when busy (the paper's "OFF").
    Off,
    /// §3.3 payment channel + virtual auction (the paper's "ON").
    Auction,
    /// §3.2 random drops + aggressive retries (ablation).
    Retry,
    /// §5 per-quantum auctions for heterogeneous requests.
    Quantum {
        /// Quantum length τ.
        quantum: SimDuration,
    },
    /// §8.1 comparator: detect-and-block via per-identity rate limiting.
    Profile {
        /// Allowed sustained request rate per client identity, req/s.
        allowed_rate: f64,
    },
}

/// One client's placement and behaviour.
#[derive(Clone, Copy, Debug)]
pub struct ClientSpec {
    /// Behaviour profile (λ, w, payment sizes, class).
    pub profile: ClientProfile,
    /// Access link rate, bits/s (paper default: 2 Mbit/s).
    pub access_bps: u64,
    /// Access link one-way delay (so client RTT ≈ 2 × this).
    pub access_delay: SimDuration,
    /// Whether the client sits behind the shared bottleneck (Fig 8).
    pub behind_bottleneck: bool,
    /// Random packet-loss probability injected on the client's uplink
    /// (smoltcp-style fault injection). Exercises the transport's
    /// retransmission machinery under speak-up load.
    pub access_loss: f64,
}

impl ClientSpec {
    /// The paper's standard client: 2 Mbit/s access, ~1 ms RTT LAN.
    pub fn lan(profile: ClientProfile) -> Self {
        ClientSpec {
            profile,
            access_bps: 2_000_000,
            access_delay: SimDuration::from_micros(500),
            behind_bottleneck: false,
            access_loss: 0.0,
        }
    }

    /// Override the access bandwidth.
    pub fn bandwidth(mut self, bps: u64) -> Self {
        self.access_bps = bps;
        self
    }

    /// Override the one-way access delay.
    pub fn delay(mut self, d: SimDuration) -> Self {
        self.access_delay = d;
        self
    }

    /// Place behind the shared bottleneck.
    pub fn bottlenecked(mut self) -> Self {
        self.behind_bottleneck = true;
        self
    }

    /// Inject random loss on the uplink.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1)`: an out-of-range probability used to
    /// slip through silently (always-drop or never-drop) and only
    /// surface as inexplicable results.
    pub fn lossy(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "client access_loss must be in [0, 1), got {p}"
        );
        self.access_loss = p;
        self
    }
}

/// A flyweight crowd: `members` identical background clients aggregated
/// behind one node (see [`crate::agents::cohort::CohortAgent`]).
///
/// The cohort's access link is provisioned at `members ×` the member
/// spec's rate, so aggregate bandwidth — the currency speak-up meters —
/// is exact; arrivals come from the superposed Poisson process. Cohorts
/// cannot sit behind the Fig 8 bottleneck (their aggregated link would
/// misrepresent per-client crowd-out there) and are rejected by the
/// runner in `Mode::Profile` (identity-keyed defenses need per-client
/// identities to be meaningful).
#[derive(Clone, Copy, Debug)]
pub struct CohortSpec {
    /// The member profile and placement (shared by all members).
    pub spec: ClientSpec,
    /// Number of aggregated members (≥ 1).
    pub members: u32,
}

/// The shared bottleneck link `l` of §7.6 / `m` of §7.7.
#[derive(Clone, Copy, Debug)]
pub struct BottleneckSpec {
    /// Rate in bits/s.
    pub rate_bps: u64,
    /// One-way delay.
    pub delay: SimDuration,
    /// Queue size in 1500-byte packets.
    pub queue_packets: u64,
}

/// One deterministic fault to inject into a run.
///
/// Specs are declarative: the runner resolves them to concrete node and
/// link ids after it builds the topology and hands the resulting
/// [`speakup_net::fault::FaultSchedule`] to the simulator, so the same
/// scenario injects the identical fault trace at every `--shards` count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// Crash thinner replica `replica` (0-based) at `at`; the node
    /// restarts `down_for` later with freshly initialized app state.
    /// Surviving replicas detect the digest silence after three missed
    /// sync periods and absorb the crashed replica's capacity share
    /// until it re-joins.
    ReplicaCrash {
        /// Replica index in `0..thinners`.
        replica: u32,
        /// Crash instant.
        at: SimTime,
        /// Outage length; the restart fires at `at + down_for`.
        down_for: SimDuration,
    },
    /// Seed-derived random flaps on every client access uplink: each
    /// link gets its own Poisson onset process (mean gap `mean_every`)
    /// with exponential outages (mean `mean_down`), all streams keyed by
    /// `seed` and the link id — independent of the scenario seed and of
    /// the [`ClientSpec::lossy`] drop sampler, so loss-free goldens stay
    /// byte-identical when no flaps are scheduled.
    LinkFlaps {
        /// Fault-stream seed (the CLI's `--fault-seed`).
        seed: u64,
        /// Mean gap between flap onsets per link.
        mean_every: SimDuration,
        /// Mean outage length per flap.
        mean_down: SimDuration,
    },
}

/// Fig 9 cross-traffic: a wget-style downloader sharing the bottleneck.
#[derive(Clone, Copy, Debug)]
pub struct WebSpec {
    /// Size of the downloaded file, bytes.
    pub file_bytes: u64,
    /// Number of sequential downloads.
    pub downloads: u64,
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Label used in reports.
    pub name: String,
    /// RNG seed; same seed ⇒ same packet trace.
    pub seed: u64,
    /// Simulated run length (paper: 600 s).
    pub duration: SimDuration,
    /// Server capacity `c`, requests/s.
    pub capacity: f64,
    /// Thinner mode.
    pub mode: Mode,
    /// The fully simulated (foreground) clients.
    pub clients: Vec<ClientSpec>,
    /// Flyweight client crowds (background population), if any. Each
    /// cohort is one node aggregating `members` identical clients.
    pub cohorts: Vec<CohortSpec>,
    /// Optional shared bottleneck for `bottlenecked()` clients.
    pub bottleneck: Option<BottleneckSpec>,
    /// Optional Fig 9 web cross-traffic (placed behind the bottleneck).
    pub web: Option<WebSpec>,
    /// Number of thinner replicas (default 1: the classic single
    /// thinner). With R > 1, aggregation groups and cohorts are
    /// partitioned round-robin across R replicas, each running the
    /// virtual auction locally over its own contenders with a 1/R slice
    /// of `capacity` that is continually re-rated from merged peer bid
    /// digests (see `crates/core/src/thinner/digest.rs`).
    pub thinners: u32,
    /// Epoch cadence at which replicas exchange bid-delta digests
    /// (default 100 ms). Only meaningful when `thinners > 1`.
    pub sync_period: SimDuration,
    /// Faults to inject (default none: the loss-free deterministic runs
    /// every committed golden was produced from).
    pub faults: Vec<FaultSpec>,
}

impl Scenario {
    /// A scenario with the paper's defaults: 600 s, LAN topology.
    pub fn new(name: impl Into<String>, capacity: f64, mode: Mode) -> Self {
        Scenario {
            name: name.into(),
            seed: 0x5ea4,
            duration: SimDuration::from_secs(600),
            capacity,
            mode,
            clients: Vec::new(),
            cohorts: Vec::new(),
            bottleneck: None,
            web: None,
            thinners: 1,
            sync_period: SimDuration::from_millis(100),
            faults: Vec::new(),
        }
    }

    /// Add `n` identical clients.
    pub fn add_clients(&mut self, n: usize, spec: ClientSpec) -> &mut Self {
        self.clients.extend(std::iter::repeat_n(spec, n));
        self
    }

    /// Add `n` cohorts of `members` aggregated clients each.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero, or if the member spec is placed
    /// behind the bottleneck (cohorts aggregate their access link, which
    /// would misrepresent Fig 8's per-client crowd-out).
    pub fn add_cohorts(&mut self, n: usize, members: u32, spec: ClientSpec) -> &mut Self {
        assert!(members > 0, "a cohort needs at least one member");
        assert!(
            !spec.behind_bottleneck,
            "cohorts cannot sit behind the shared bottleneck"
        );
        self.cohorts
            .extend(std::iter::repeat_n(CohortSpec { spec, members }, n));
        self
    }

    /// Total client population: foreground clients plus cohort members.
    pub fn population(&self) -> u64 {
        self.clients.len() as u64 + self.cohorts.iter().map(|c| c.members as u64).sum::<u64>()
    }

    /// Set the run length.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of thinner replicas.
    ///
    /// # Panics
    ///
    /// Panics on zero: a run needs at least one thinner.
    pub fn thinners(mut self, r: u32) -> Self {
        assert!(r >= 1, "at least one thinner replica");
        self.thinners = r;
        self
    }

    /// Set the replica digest-sync epoch cadence.
    ///
    /// # Panics
    ///
    /// Panics on a zero period: the sync timer would re-arm at the
    /// current instant and spin the simulation forever.
    pub fn sync_period(mut self, p: SimDuration) -> Self {
        assert!(p.as_nanos() > 0, "sync period must be positive");
        self.sync_period = p;
        self
    }

    /// Schedule a replica crash + restart (see [`FaultSpec::ReplicaCrash`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero outage (the crash and restart would race at the
    /// same instant) or a replica index outside `0..thinners` — a typo'd
    /// index would otherwise silently fault nothing.
    pub fn crash_replica(mut self, replica: u32, at: SimTime, down_for: SimDuration) -> Self {
        assert!(
            replica < self.thinners,
            "replica {replica} out of range: the scenario has {} thinner(s)",
            self.thinners
        );
        assert!(down_for.as_nanos() > 0, "outage must be positive");
        self.faults.push(FaultSpec::ReplicaCrash {
            replica,
            at,
            down_for,
        });
        self
    }

    /// Schedule seed-derived flaps on every client access uplink (see
    /// [`FaultSpec::LinkFlaps`]).
    ///
    /// # Panics
    ///
    /// Panics on non-positive means: a zero onset gap would flap every
    /// nanosecond and a zero outage would be a no-op pretending not to be.
    pub fn link_flaps(
        mut self,
        seed: u64,
        mean_every: SimDuration,
        mean_down: SimDuration,
    ) -> Self {
        assert!(mean_every.as_nanos() > 0, "mean flap gap must be positive");
        assert!(mean_down.as_nanos() > 0, "mean outage must be positive");
        self.faults.push(FaultSpec::LinkFlaps {
            seed,
            mean_every,
            mean_down,
        });
        self
    }

    /// Access-link bandwidth of one class, bits/s, counting every cohort
    /// member at the member rate.
    fn class_bandwidth_bps(&self, is_bad: bool) -> u64 {
        let singles: u64 = self
            .clients
            .iter()
            .filter(|c| c.profile.is_bad == is_bad)
            .map(|c| c.access_bps)
            .sum();
        let crowds: u64 = self
            .cohorts
            .iter()
            .filter(|c| c.spec.profile.is_bad == is_bad)
            .map(|c| c.spec.access_bps * c.members as u64)
            .sum();
        singles + crowds
    }

    /// Aggregate good-client bandwidth `G`, bits/s (access-link sum).
    pub fn good_bandwidth_bps(&self) -> u64 {
        self.class_bandwidth_bps(false)
    }

    /// Aggregate bad-client bandwidth `B`, bits/s.
    pub fn bad_bandwidth_bps(&self) -> u64 {
        self.class_bandwidth_bps(true)
    }

    /// `G/(G+B)`: the bandwidth-proportional ideal share for good clients.
    pub fn ideal_good_share(&self) -> f64 {
        let g = self.good_bandwidth_bps() as f64;
        let b = self.bad_bandwidth_bps() as f64;
        if g + b == 0.0 {
            return 0.0;
        }
        g / (g + b)
    }

    /// Aggregate good demand `g` in requests/s (sum of λ over clients
    /// and cohort members).
    pub fn good_demand(&self) -> f64 {
        let singles: f64 = self
            .clients
            .iter()
            .filter(|c| !c.profile.is_bad)
            .map(|c| c.profile.lambda)
            .sum();
        let crowds: f64 = self
            .cohorts
            .iter()
            .filter(|c| !c.spec.profile.is_bad)
            .map(|c| c.spec.profile.lambda * c.members as f64)
            .sum();
        singles + crowds
    }

    /// The §3.3 average-price upper bound `(G+B)/c` in bytes/request.
    pub fn price_upper_bound(&self) -> f64 {
        let total_bps = (self.good_bandwidth_bps() + self.bad_bandwidth_bps()) as f64;
        total_bps / 8.0 / self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_accounting() {
        let mut s = Scenario::new("t", 100.0, Mode::Auction);
        s.add_clients(25, ClientSpec::lan(ClientProfile::good()));
        s.add_clients(25, ClientSpec::lan(ClientProfile::bad()));
        assert_eq!(s.good_bandwidth_bps(), 50_000_000);
        assert_eq!(s.bad_bandwidth_bps(), 50_000_000);
        assert!((s.ideal_good_share() - 0.5).abs() < 1e-12);
        assert_eq!(s.good_demand(), 50.0);
        // (G+B)/c = 100 Mbit/s / 8 / 100 = 125 000 bytes/request.
        assert!((s.price_upper_bound() - 125_000.0).abs() < 1e-9);
    }

    #[test]
    fn cohort_members_count_in_accounting() {
        let mut s = Scenario::new("t", 100.0, Mode::Auction);
        s.add_clients(10, ClientSpec::lan(ClientProfile::good()));
        s.add_cohorts(2, 20, ClientSpec::lan(ClientProfile::good()));
        s.add_cohorts(1, 50, ClientSpec::lan(ClientProfile::bad()));
        assert_eq!(s.population(), 100);
        // 10 + 40 good members at 2 Mbit/s each.
        assert_eq!(s.good_bandwidth_bps(), 100_000_000);
        assert_eq!(s.bad_bandwidth_bps(), 100_000_000);
        assert!((s.ideal_good_share() - 0.5).abs() < 1e-12);
        assert!((s.good_demand() - 100.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "behind the shared bottleneck")]
    fn bottlenecked_cohorts_are_rejected() {
        let mut s = Scenario::new("t", 100.0, Mode::Auction);
        s.add_cohorts(1, 10, ClientSpec::lan(ClientProfile::good()).bottlenecked());
    }

    #[test]
    fn spec_builders() {
        let spec = ClientSpec::lan(ClientProfile::good())
            .bandwidth(500_000)
            .delay(SimDuration::from_millis(50))
            .bottlenecked();
        assert_eq!(spec.access_bps, 500_000);
        assert_eq!(spec.access_delay, SimDuration::from_millis(50));
        assert!(spec.behind_bottleneck);
    }

    #[test]
    fn lossy_accepts_valid_probabilities() {
        let spec = ClientSpec::lan(ClientProfile::good()).lossy(0.05);
        assert!((spec.access_loss - 0.05).abs() < 1e-12);
        assert_eq!(
            ClientSpec::lan(ClientProfile::good())
                .lossy(0.0)
                .access_loss,
            0.0
        );
    }

    #[test]
    fn fault_builders_record_specs() {
        let s = Scenario::new("t", 100.0, Mode::Auction)
            .thinners(4)
            .crash_replica(
                1,
                SimTime::from_nanos(15_000_000_000),
                SimDuration::from_secs(10),
            )
            .link_flaps(7, SimDuration::from_secs(5), SimDuration::from_millis(200));
        assert_eq!(s.faults.len(), 2);
        assert_eq!(
            s.faults[0],
            FaultSpec::ReplicaCrash {
                replica: 1,
                at: SimTime::from_nanos(15_000_000_000),
                down_for: SimDuration::from_secs(10),
            }
        );
        // Default: no faults.
        assert!(Scenario::new("d", 100.0, Mode::Auction).faults.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crash_replica_rejects_bad_index() {
        let _ = Scenario::new("t", 100.0, Mode::Auction)
            .thinners(2)
            .crash_replica(2, SimTime::from_nanos(1), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "access_loss must be in [0, 1)")]
    fn lossy_rejects_certain_loss() {
        let _ = ClientSpec::lan(ClientProfile::good()).lossy(1.0);
    }

    #[test]
    #[should_panic(expected = "access_loss must be in [0, 1)")]
    fn lossy_rejects_negative_loss() {
        let _ = ClientSpec::lan(ClientProfile::good()).lossy(-0.25);
    }
}
