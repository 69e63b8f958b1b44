//! Build a simulator from a [`Scenario`], run it, and extract a report.
//!
//! Two axes of parallelism:
//!
//! * **Across runs** — [`run_all_pooled`] drives any number of grid
//!   points × seed replicates through a host-sized worker pool instead
//!   of one OS thread per run, so `run_all` no longer oversubscribes
//!   small machines.
//! * **Within a run** — [`run_sharded`] splits one scenario's thinner
//!   replica islands over `K` shard event loops with a synchronized
//!   clock (`speakup-net`'s conservative lookahead engine). Reports are
//!   byte-identical for every `K`.
//!
//! ## Topology and placement
//!
//! Direct (non-bottlenecked) clients are partitioned into *aggregation
//! groups* — same-access-delay classes, each class split into at most
//! [`HUB_SUBGROUPS_PER_CLASS`] subgroups. Every group gets its own hub
//! node owning the group's client links, with a single aggregation link
//! into its thinner replica. The access delay rides the aggregation
//! link and the client leaf link gets the scenario's short hub-wire
//! delay, which leaves each client's end-to-end path delay and every
//! queue's rate as they would be on a direct link. The grouping depends
//! only on the scenario, never on `--shards`, so the topology — and
//! therefore the report — is identical for every shard count.
//!
//! A shard is a *replica island*: replica `r` with every aggregation
//! group and cohort homed on it (`g % R`, `c % R`), their hubs and
//! clients. Island `r` goes to shard `r % k`, with `k = min(K, R)`, and
//! whatever attaches through the legacy hub stays with replica 0 on
//! shard 0. The only links between islands are the replica mesh, built
//! control-only ([`LinkConfig::control_only`]), which is what the engine
//! requires of every cross-shard link: nothing but digests crosses it,
//! each replica promises when its next digest leaves
//! (`Ctx::control_quiet_until`), and the engine opens one window per
//! sync period. Islands share nothing else, so `k` of them run in
//! parallel. A single-thinner run is one island, on one loop.
//!
//! `--shards` beyond `R` clamps (with a one-time warning) so no shard
//! spins empty at every barrier window.

use crate::agents::cohort::CohortAgent;
use crate::agents::thinner::{ClientInfo, ReplicaConfig, ThinnerAgent};
use crate::agents::web::{WebServerAgent, WgetAgent};
use crate::agents::{AppSlot, PaymentMode};
use crate::scenario::{FaultSpec, Mode, Scenario};
use speakup_core::client::ClientProfile;
use speakup_core::metrics::{Allocation, ClassReport};
use speakup_core::server::EmulatedServer;
use speakup_core::thinner::{
    AuctionConfig, AuctionFrontEnd, FrontEnd, NoDefense, ProfileConfig, ProfileFrontEnd,
    QuantumConfig, QuantumFrontEnd, RetryConfig, RetryFrontEnd,
};
use speakup_core::types::ClientId;
use speakup_net::fault::FaultSchedule;
use speakup_net::link::LinkConfig;
use speakup_net::packet::NodeId;
use speakup_net::sim::{Simulator, WindowEnds};
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::topology::TopologyBuilder;
use speakup_net::trace::Samples;

/// Per-client outcome, in scenario client order (Figures 6–8 need
/// per-category splits that the good/bad aggregation can't provide).
#[derive(Clone, Copy, Debug, Default)]
pub struct PerClient {
    /// Requests generated by the client's Poisson process.
    pub generated: u64,
    /// Requests served.
    pub served: u64,
    /// Denials (all kinds).
    pub denied: u64,
    /// Whether the client was an attacker.
    pub is_bad: bool,
    /// Whether the client sat behind the shared bottleneck.
    pub behind_bottleneck: bool,
}

/// Everything measured in one run.
#[derive(Debug)]
pub struct RunReport {
    /// Scenario label.
    pub name: String,
    /// The RNG seed the run used (replicates differ only in this).
    pub seed: u64,
    /// Thinner front-end name ("off", "auction", "retry", "quantum").
    pub mode: String,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Aggregated good-client outcomes.
    pub good: ClassReport,
    /// Aggregated bad-client outcomes.
    pub bad: ClassReport,
    /// Requests completed by the server, by class.
    pub allocation: Allocation,
    /// §5 only: quanta completed by class.
    pub quanta: Allocation,
    /// Winning bids for good clients' admissions, bytes.
    pub price_good: Samples,
    /// Winning bids for bad clients' admissions, bytes.
    pub price_bad: Samples,
    /// Fraction of the run the server was busy.
    pub server_utilization: f64,
    /// Total payment bytes the thinner sank.
    pub payment_bytes_total: u64,
    /// Requests the thinner dropped.
    pub thinner_drops: u64,
    /// Thinner replica count the run used (1 = the classic single
    /// thinner; the JSON report only mentions replication when > 1, so
    /// single-thinner reports stay byte-identical to the pre-replica
    /// engine).
    pub thinners: u32,
    /// Replica digest-sync cadence (meaningful only when `thinners > 1`).
    pub sync_period: SimDuration,
    /// Failover measurements, present only when the scenario scheduled a
    /// replica crash.
    pub failover: Option<FailoverReport>,
    /// Fig 9: download latencies of the bystander web client, if present.
    pub wget_latencies: Option<Samples>,
    /// Per-client outcomes in scenario order.
    pub per_client: Vec<PerClient>,
    /// Events processed per shard event loop (load-balance diagnostics;
    /// varies with `--shards`, so deliberately absent from the JSON
    /// report, which must be shard-count invariant).
    pub shard_events: Vec<u64>,
    /// The most events each shard's queue held at once (engine
    /// diagnostics: `perf` section only).
    pub queue_peak: Vec<u64>,
    /// Flows opened by each shard's nodes over the whole run (engine
    /// diagnostics: `perf` section only).
    pub flows_opened: Vec<u64>,
    /// The most flow halves (sender + receiver) each shard held at once
    /// — what its flow tables cost in memory, against the two halves
    /// per flow ever opened (engine diagnostics: `perf` section only).
    pub flows_peak: Vec<u64>,
    /// Application callbacks per [`AppSlot`] variant (dispatch-share
    /// diagnostics; absent from the shard-count-invariant JSON report).
    pub dispatch_counts: Vec<(&'static str, u64)>,
    /// What ended the run's lookahead windows, counted once per shard
    /// per window: a run of `w` windows on `K` loops sums to `w × K`
    /// (engine diagnostics, like everything from `shard_events` down:
    /// `perf` section only).
    pub window_ends: WindowEnds,
    /// Events handed from one shard loop to another.
    pub cross_shard_events: u64,
    /// Barrier waits that gave up spinning and parked, per shard loop.
    pub barrier_parks: Vec<u64>,
    /// Wall-clock seconds the simulation loop took (host- and
    /// load-dependent, so only surfaced by the CLI `perf` footer, never
    /// in the deterministic report payload).
    pub wall_secs: f64,
}

impl RunReport {
    /// Fraction of completed requests that belonged to good clients.
    pub fn good_fraction(&self) -> f64 {
        self.allocation.good_fraction()
    }

    /// Fraction of the good clients' *demand* (generated requests) served.
    pub fn good_served_fraction(&self) -> f64 {
        self.good.served_fraction()
    }
}

/// Failover measurements for a run with a scheduled replica crash
/// (absent when the scenario schedules none, so fault-free reports stay
/// byte-identical to the pre-fault engine).
#[derive(Clone, Debug)]
pub struct FailoverReport {
    /// When the first scheduled replica crash struck, seconds.
    pub crash_at_s: f64,
    /// When the crashed replica restarted, seconds.
    pub restart_at_s: f64,
    /// Earliest instant any surviving replica declared a peer stale.
    pub failover_at_s: Option<f64>,
    /// Earliest instant any survivor re-accepted a stale peer's digest.
    pub rejoin_at_s: Option<f64>,
    /// Completed requests by class during the outage window
    /// `[crash, restart)`, summed across replicas.
    pub outage_allocation: Allocation,
}

impl FailoverReport {
    /// Crash-to-detection latency, if the survivors ever detected it.
    pub fn time_to_failover_s(&self) -> Option<f64> {
        self.failover_at_s.map(|t| t - self.crash_at_s)
    }

    /// Restart-to-reacceptance latency, if the replica ever re-joined.
    pub fn time_to_recovery_s(&self) -> Option<f64> {
        self.rejoin_at_s.map(|t| t - self.restart_at_s)
    }

    /// Good-client share of the work completed during the outage.
    pub fn outage_good_fraction(&self) -> f64 {
        self.outage_allocation.good_fraction()
    }
}

fn build_front_end(
    scenario: &Scenario,
) -> (Box<dyn FrontEnd>, Option<speakup_net::time::SimDuration>) {
    match scenario.mode {
        Mode::Off => (Box::new(NoDefense::new()), None),
        Mode::Auction => (
            Box::new(AuctionFrontEnd::new(AuctionConfig::default())),
            None,
        ),
        Mode::Retry => (
            Box::new(RetryFrontEnd::new(
                RetryConfig {
                    target_rate: scenario.capacity,
                    ..RetryConfig::default()
                },
                scenario.seed ^ 0x7e7,
            )),
            None,
        ),
        Mode::Quantum { quantum } => (
            Box::new(QuantumFrontEnd::new(QuantumConfig {
                quantum,
                ..QuantumConfig::default()
            })),
            Some(quantum),
        ),
        Mode::Profile { allowed_rate } => (
            Box::new(ProfileFrontEnd::new(ProfileConfig {
                allowed_rate,
                ..ProfileConfig::default()
            })),
            None,
        ),
    }
}

/// Run one scenario to completion on a single event loop.
pub fn run(scenario: &Scenario) -> RunReport {
    run_sharded(scenario, 1)
}

/// Aggregation-to-thinner link: 1 Gbit/s, 100 µs. The paper runs clients
/// on a "100 Mbit/s LAN" that its own traffic exactly saturates; we
/// provision the aggregation link out of the way so the *access links*
/// are the binding constraint, which is the regime the paper analyzes.
const HUB_LINK: LinkConfig = LinkConfig::new(1_000_000_000, SimDuration::from_micros(100));

/// Upper bound on aggregation subgroups per access-delay class. Node and
/// link ids, and so every RNG stream and committed report, depend on it.
pub const HUB_SUBGROUPS_PER_CLASS: usize = 16;

/// One aggregation group: a hub node's worth of direct clients sharing
/// an access delay.
struct HubGroup {
    /// The class's one-way access delay (carried by the aggregation link).
    delay: SimDuration,
    /// Scenario indices of the member clients.
    members: Vec<usize>,
}

/// One thinner-visible client identity: a fully simulated client (one
/// member) or a crowd cohort, each played by one [`CohortAgent`]. Its
/// index in the run's identity list is its [`ClientId`].
struct Identity {
    node: NodeId,
    profile: ClientProfile,
    members: u32,
    behind_bottleneck: bool,
    /// Index of the thinner replica it talks to.
    replica: usize,
}

/// Group the direct (non-bottlenecked) clients into aggregation groups:
/// exact access-delay classes, each split round-robin into at most
/// [`HUB_SUBGROUPS_PER_CLASS`] subgroups. Deterministic and independent
/// of the shard count.
fn hub_groups(scenario: &Scenario) -> Vec<HubGroup> {
    let mut classes: std::collections::BTreeMap<u64, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, spec) in scenario.clients.iter().enumerate() {
        if !spec.behind_bottleneck {
            classes
                .entry(spec.access_delay.as_nanos())
                .or_default()
                .push(i);
        }
    }
    let mut groups = Vec::new();
    for (delay, members) in classes {
        let n_sub = members.len().min(HUB_SUBGROUPS_PER_CLASS);
        let first = groups.len();
        groups.extend((0..n_sub).map(|_| HubGroup {
            delay: SimDuration::from_nanos(delay),
            members: Vec::new(),
        }));
        for (pos, idx) in members.into_iter().enumerate() {
            groups[first + pos % n_sub].members.push(idx);
        }
    }
    groups
}

/// The shard loops `scenario` runs on at `--shards shards`: one per
/// thinner replica island at most, so `min(K, R)`.
fn shard_loops(scenario: &Scenario, shards: u32) -> u32 {
    shards.clamp(1, scenario.thinners.max(1))
}

/// Warn that `--shards` exceeded the scenario's replica islands and was
/// clamped — once per distinct `(requested, effective)` pair, so grid
/// points and seed replicates of one scenario don't spam while
/// differently-sized scenarios in the same invocation each still report
/// their own effective count.
fn warn_shards_clamped(requested: u32, effective: u32) {
    use std::sync::Mutex;
    static SEEN: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());
    let mut seen = SEEN.lock().expect("clamp warning lock poisoned");
    if seen.contains(&(requested, effective)) {
        return;
    }
    seen.push((requested, effective));
    eprintln!(
        "warning: --shards {requested} exceeds the scenario's thinner replica \
         islands; clamping to {effective} (further shards would own no nodes \
         and only spin at every barrier window)"
    );
}

/// Run one scenario with its replica islands split over `min(shards, R)`
/// event loops (1 = the classic single loop). The report is
/// byte-identical for every shard count; sharding only changes
/// wall-clock time.
pub fn run_sharded(scenario: &Scenario, shards: u32) -> RunReport {
    assert!(
        !scenario.clients.is_empty() || !scenario.cohorts.is_empty(),
        "scenario has no clients"
    );
    assert!(
        scenario.cohorts.is_empty() || !matches!(scenario.mode, Mode::Profile { .. }),
        "cohorts are incompatible with Mode::Profile: identity-keyed rate \
         limiting needs per-client identities, and a cohort is one identity \
         for N members"
    );
    assert!(
        scenario.duration > speakup_net::time::SimDuration::ZERO,
        "scenario {:?} has a zero duration: rates would be NaN",
        scenario.name
    );
    let groups = hub_groups(scenario);

    // ---- topology ----
    // Node and link creation order mirrors the pre-split layout (hub,
    // thinner, gateway, clients, web) so node and link ids — and the RNG
    // streams keyed by them — are unchanged; the per-group hub nodes and
    // their aggregation links are appended at the end.
    let mut b = TopologyBuilder::new();
    let hub = b.node();
    let thinner_node = b.node();
    let gateway = scenario.bottleneck.map(|_| b.node());
    let client_nodes: Vec<NodeId> = scenario.clients.iter().map(|_| b.node()).collect();
    let web_nodes = scenario.web.map(|w| (b.node(), b.node(), w));
    let group_hubs: Vec<NodeId> = groups.iter().map(|_| b.node()).collect();
    // Cohort nodes and their private aggregation hubs come last, so a
    // scenario without cohorts keeps byte-identical node ids — and a
    // cohort-only scenario's ids coincide with the equivalent
    // fully-simulated one's (hub, thinner, node, hub-of-one).
    let cohort_nodes: Vec<NodeId> = scenario.cohorts.iter().map(|_| b.node()).collect();
    let cohort_hubs: Vec<NodeId> = scenario.cohorts.iter().map(|_| b.node()).collect();
    // Thinner replicas. Replica 0 *is* the classic thinner node, so a
    // single-thinner run's node ids (and every RNG stream keyed by them)
    // are untouched; replicas 1..R are appended after every pre-existing
    // node for the same reason.
    let r_count = scenario.thinners.max(1) as usize;
    assert!(
        r_count == 1 || matches!(scenario.mode, Mode::Auction),
        "replicated thinners ({r_count}) require Mode::Auction: the replicas \
         coordinate through auction bid digests"
    );
    let replica_nodes: Vec<NodeId> = std::iter::once(thinner_node)
        .chain((1..r_count).map(|_| b.node()))
        .collect();
    let mut group_of_client: Vec<Option<usize>> = vec![None; scenario.clients.len()];
    for (g, group) in groups.iter().enumerate() {
        for &idx in &group.members {
            group_of_client[idx] = Some(g);
        }
    }

    b.duplex(thinner_node, hub, HUB_LINK);
    if let (Some(gw), Some(bn)) = (gateway, scenario.bottleneck) {
        let cfg = LinkConfig::new(bn.rate_bps, bn.delay).queue_packets(bn.queue_packets);
        b.duplex(gw, hub, cfg);
    }
    // The short hub-wire delay moves onto the client leaf links of
    // grouped clients; their access delay rides the aggregation link
    // instead (same end-to-end sum, same per-queue rates).
    let hub_wire = HUB_LINK.delay;
    // Client (and, below, cohort) uplink ids, kept for fault resolution:
    // a `FaultSpec::LinkFlaps` targets exactly these access links.
    let mut client_uplinks: Vec<speakup_net::packet::LinkId> = Vec::new();
    for ((&n, spec), &group) in client_nodes
        .iter()
        .zip(&scenario.clients)
        .zip(&group_of_client)
    {
        let (attach, leaf_delay) = match group {
            Some(g) => (group_hubs[g], spec.access_delay.min(hub_wire)),
            None => (
                gateway.expect("bottlenecked client without a bottleneck spec"),
                spec.access_delay,
            ),
        };
        let up = LinkConfig::new(spec.access_bps, leaf_delay).drop_prob(spec.access_loss);
        let down = LinkConfig::new(spec.access_bps, leaf_delay);
        let (up_id, _) = b.duplex_asym(n, attach, up, down);
        client_uplinks.push(up_id);
    }
    // Fig 9 bystanders: web server beside the thinner, wget behind the
    // bottleneck (sharing it with the speak-up clients).
    if let Some((srv, h, _)) = web_nodes {
        b.duplex(
            srv,
            hub,
            LinkConfig::new(
                1_000_000_000,
                speakup_net::time::SimDuration::from_micros(100),
            ),
        );
        let attach = gateway.unwrap_or(hub);
        b.duplex(
            h,
            attach,
            LinkConfig::new(2_000_000, speakup_net::time::SimDuration::from_micros(500)),
        );
    }
    // Each aggregation group (and cohort, below) homes round-robin on a
    // replica; with one replica that is the classic thinner node and the
    // link ids are byte-identical to the pre-replica layout.
    for ((g, group), &hub_g) in groups.iter().enumerate().zip(&group_hubs) {
        let mut agg = HUB_LINK;
        agg.delay = group.delay.max(hub_wire);
        b.duplex(hub_g, replica_nodes[g % r_count], agg);
    }
    // Cohort links mirror a one-client aggregation group, scaled by N:
    // the leaf link carries N members' aggregate access rate (the
    // quantity speak-up meters), the private aggregation link is
    // provisioned out of the way (never below the members' aggregate),
    // and the delay split matches the grouped-client scheme exactly.
    for ((ci, (c, &node)), &hub_c) in scenario
        .cohorts
        .iter()
        .zip(&cohort_nodes)
        .enumerate()
        .zip(&cohort_hubs)
    {
        let rate = c.spec.access_bps * c.members as u64;
        let leaf_delay = c.spec.access_delay.min(hub_wire);
        let up = LinkConfig::new(rate, leaf_delay).drop_prob(c.spec.access_loss);
        let down = LinkConfig::new(rate, leaf_delay);
        let (up_id, _) = b.duplex_asym(node, hub_c, up, down);
        client_uplinks.push(up_id);
        let mut agg = HUB_LINK;
        agg.delay = c.spec.access_delay.max(hub_wire);
        agg.rate_bps = agg.rate_bps.max(rate);
        b.duplex(hub_c, replica_nodes[ci % r_count], agg);
    }
    // Replica peer mesh: a full-duplex control lane between every
    // replica pair. Digests are tiny and rare, so the provisioning only
    // sets the control-payload path delay — and the links are marked
    // control-only, the engine's guarantee that nothing *but* a digest
    // ever crosses them: with one replica island per shard they are the
    // only cross-shard links, and a digest is bounded by its sender's
    // quiet floor (a sync period away), not by the 500 µs delay.
    let mesh = LinkConfig::new(1_000_000_000, SimDuration::from_micros(500)).control_only();
    for i in 0..replica_nodes.len() {
        for j in (i + 1)..replica_nodes.len() {
            b.duplex(replica_nodes[i], replica_nodes[j], mesh);
        }
    }
    let topo = b.build();

    // ---- shard plan ----
    // Island `r` — replica `r` with every aggregation group and cohort
    // homed on it, hubs and clients included — goes to shard `r % k`.
    // The gateway, the legacy hub, the bottlenecked clients and the Fig 9
    // bystanders all attach to replica 0 and stay with it on shard 0.
    // Only the replica mesh then crosses shards.
    let k = shard_loops(scenario, shards);
    if shards > k {
        warn_shards_clamped(shards, k);
    }
    let shard_of_replica = |r: usize| r as u32 % k;
    let mut assignment = vec![0u32; topo.node_count() as usize];
    for (r, &rn) in replica_nodes.iter().enumerate() {
        assignment[rn.0 as usize] = shard_of_replica(r);
    }
    for (g, group) in groups.iter().enumerate() {
        let shard = shard_of_replica(g % r_count);
        assignment[group_hubs[g].0 as usize] = shard;
        for &c in &group.members {
            assignment[client_nodes[c].0 as usize] = shard;
        }
    }
    for c in 0..scenario.cohorts.len() {
        let shard = shard_of_replica(c % r_count);
        assignment[cohort_hubs[c].0 as usize] = shard;
        assignment[cohort_nodes[c].0 as usize] = shard;
    }
    let mut sim = Simulator::<AppSlot>::new_sharded_slots(topo, scenario.seed, assignment);

    // ---- agents ----
    // Thinner-visible identities: the fully simulated clients in
    // scenario order, then the cohorts (a cohort is one identity whose
    // requests carry member-distinguishing ids). A client's thinner is
    // its aggregation group's replica (bottlenecked clients attach
    // through the legacy hub and stay with replica 0); a cohort's is its
    // round-robin replica. With one replica every identity maps to
    // index 0 — the classic thinner.
    let identities: Vec<Identity> =
        client_nodes
            .iter()
            .zip(&scenario.clients)
            .zip(&group_of_client)
            .map(|((&node, spec), group)| Identity {
                node,
                profile: spec.profile,
                members: 1,
                behind_bottleneck: spec.behind_bottleneck,
                replica: group.map_or(0, |g| g % r_count),
            })
            .chain(cohort_nodes.iter().zip(&scenario.cohorts).enumerate().map(
                |(c, (&node, spec))| Identity {
                    node,
                    profile: spec.spec.profile,
                    members: spec.members,
                    behind_bottleneck: false,
                    replica: c % r_count,
                },
            ))
            .collect();

    // The first scheduled replica crash defines the outage observation
    // window: every thinner tallies completions inside it separately so
    // the report can state the good-client allocation *during* the
    // outage (the acceptance band for the failover golden).
    let outage_window = scenario.faults.iter().find_map(|f| match *f {
        FaultSpec::ReplicaCrash { at, down_for, .. } => Some((at, at + down_for)),
        _ => None,
    });

    for r in 0..r_count {
        let infos_r: Vec<(NodeId, ClientInfo)> = identities
            .iter()
            .enumerate()
            .filter(|(_, c)| c.replica == r)
            .map(|(i, c)| {
                let info = ClientInfo {
                    id: ClientId(i as u32),
                    is_bad: c.profile.is_bad,
                    difficulty: c.profile.difficulty,
                    spoofs: c.profile.spoofs,
                };
                (c.node, info)
            })
            .collect();
        let (fe, quantum) = build_front_end(scenario);
        // Replica 0 keeps the classic server seed (single-thinner runs
        // must reproduce the pre-replica byte stream); later replicas
        // derive theirs deterministically from the replica index.
        let server = EmulatedServer::new(
            scenario.capacity / r_count as f64,
            scenario.seed ^ 0x5e17e1 ^ ((r as u64) << 32),
        );
        let mut agent = ThinnerAgent::new(fe, server, infos_r, quantum);
        if r_count > 1 {
            agent = agent.with_replica(ReplicaConfig {
                id: r as u32,
                peers: replica_nodes
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != r)
                    .map(|(_, &n)| n)
                    .collect(),
                sync_period: scenario.sync_period,
                total_capacity: scenario.capacity,
            });
        }
        if let Some((from, until)) = outage_window {
            agent.observe_window(from, until);
        }
        sim.add_slot(replica_nodes[r], AppSlot::Thinner(agent));
    }

    let payment_mode = match scenario.mode {
        Mode::Off | Mode::Profile { .. } => PaymentMode::None,
        Mode::Auction | Mode::Quantum { .. } => PaymentMode::Posts,
        Mode::Retry => PaymentMode::Retries,
    };
    for (i, c) in identities.iter().enumerate() {
        let agent = CohortAgent::new(
            ClientId(i as u32),
            replica_nodes[c.replica],
            c.profile,
            c.members,
            payment_mode,
            scenario.seed ^ (0x10_000 + i as u64),
        );
        sim.add_slot(c.node, AppSlot::Cohort(agent));
    }

    if let Some((srv, h, w)) = web_nodes {
        sim.add_slot(srv, AppSlot::Web(WebServerAgent::new(w.file_bytes)));
        sim.add_slot(h, AppSlot::Wget(WgetAgent::new(srv, w.downloads)));
    }

    // ---- faults ----
    // Resolve the declarative specs against the topology just built and
    // hand the schedule to the simulator, which routes each entry to its
    // owner shard on the canonical fault lanes — the same fault trace at
    // every `--shards` count.
    let end = SimTime::ZERO + scenario.duration;
    if !scenario.faults.is_empty() {
        let mut schedule = FaultSchedule::new();
        for f in &scenario.faults {
            match *f {
                FaultSpec::ReplicaCrash {
                    replica,
                    at,
                    down_for,
                } => {
                    assert!(
                        (replica as usize) < replica_nodes.len(),
                        "fault targets replica {replica} but the run has {}",
                        replica_nodes.len()
                    );
                    schedule.node_crash(at, replica_nodes[replica as usize], down_for);
                }
                FaultSpec::LinkFlaps {
                    seed,
                    mean_every,
                    mean_down,
                } => {
                    schedule.seeded_link_flaps(seed, &client_uplinks, end, mean_every, mean_down);
                }
            }
        }
        if !schedule.is_empty() {
            sim.inject_faults(&schedule);
        }
    }

    // ---- run ----
    // Wall-clock perf footer, not simulation logic (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    let wall_start = std::time::Instant::now();
    sim.run_until(end);
    let wall_secs = wall_start.elapsed().as_secs_f64();
    // The engine counters, then the engine itself: its queues, flow
    // tables and links are freed before extraction copies the samples.
    let shard_events = sim.shard_event_counts();
    let queue_peak = sim.queue_peaks();
    let flows_opened = sim.flows_opened();
    let flows_peak = sim.flow_halves_peaks();
    let dispatch_counts = sim.dispatch_counts();
    let window_ends = sim.window_ends();
    let cross_shard_events = sim.cross_shard_events();
    let barrier_parks = sim.barrier_parks();
    let mut apps = sim.finish();

    // ---- extract ----
    // Each identity absorbs as its member count (class totals keep
    // population semantics) and contributes one per-client row, in
    // identity order. Sample sets move out of the finished agents.
    let mut good = ClassReport::default();
    let mut bad = ClassReport::default();
    let mut per_client = Vec::with_capacity(identities.len());
    for c in &identities {
        let agent = apps.app_mut::<CohortAgent>(c.node).expect("client agent");
        let stats = agent.stats();
        per_client.push(PerClient {
            generated: stats.generated,
            served: stats.served,
            denied: stats.denied(),
            is_bad: c.profile.is_bad,
            behind_bottleneck: c.behind_bottleneck,
        });
        let report = if c.profile.is_bad {
            &mut bad
        } else {
            &mut good
        };
        report.absorb_weighted(stats, c.members as usize);
        report.payment_time.append(&mut agent.metrics.payment_time);
        report.payment_bytes.append(&mut agent.metrics.payment_sent);
    }

    // Every replica folds into empty aggregates by replica index, so
    // sample order is deterministic and one thinner is no special case.
    let elapsed = scenario.duration;
    let mut allocation = Allocation::default();
    let mut quanta = Allocation::default();
    let mut price_good = Samples::new();
    let mut price_bad = Samples::new();
    let mut payment_bytes_total = 0;
    let mut thinner_drops = 0;
    let mut util_sum = 0.0;
    let mut failover_at = None;
    let mut rejoin_at = None;
    let mut outage_allocation = Allocation::default();
    for &rn in &replica_nodes {
        let t = apps.app_mut::<ThinnerAgent>(rn).expect("thinner replica");
        allocation.good += t.metrics.allocation.good;
        allocation.bad += t.metrics.allocation.bad;
        quanta.good += t.metrics.quanta.good;
        quanta.bad += t.metrics.quanta.bad;
        price_good.append(&mut t.metrics.price_good);
        price_bad.append(&mut t.metrics.price_bad);
        payment_bytes_total += t.metrics.payment_bytes_total;
        thinner_drops += t.metrics.drops;
        util_sum += t.server().utilization(elapsed);
        // Earliest detection / re-acceptance across the cluster.
        failover_at = failover_at.into_iter().chain(t.failover_at()).min();
        rejoin_at = rejoin_at.into_iter().chain(t.rejoin_at()).min();
        let w = t.window_allocation();
        outage_allocation.good += w.good;
        outage_allocation.bad += w.bad;
    }
    let mode = apps
        .app::<ThinnerAgent>(thinner_node)
        .expect("thinner agent")
        .front_end()
        .name()
        .to_string();
    let failover = outage_window.map(|(crash_at, restart_at)| FailoverReport {
        crash_at_s: crash_at.as_secs_f64(),
        restart_at_s: restart_at.as_secs_f64(),
        failover_at_s: failover_at.map(SimTime::as_secs_f64),
        rejoin_at_s: rejoin_at.map(SimTime::as_secs_f64),
        outage_allocation,
    });
    let report = RunReport {
        name: scenario.name.clone(),
        seed: scenario.seed,
        mode,
        duration_s: elapsed.as_secs_f64(),
        allocation,
        quanta,
        price_good,
        price_bad,
        // Each replica owns a share of the aggregate capacity, so the
        // run-level utilization is the replica mean (exactly the single
        // server's utilization when R = 1).
        server_utilization: util_sum / r_count as f64,
        payment_bytes_total,
        thinner_drops,
        thinners: r_count as u32,
        sync_period: scenario.sync_period,
        good,
        bad,
        failover,
        wget_latencies: web_nodes.map(|(_, h, _)| {
            apps.app::<WgetAgent>(h)
                .expect("wget agent")
                .latencies
                .clone()
        }),
        per_client,
        shard_events,
        queue_peak,
        flows_opened,
        flows_peak,
        dispatch_counts,
        window_ends,
        cross_shard_events,
        barrier_parks,
        wall_secs,
    };
    report
}

/// The default worker count for running `scenarios` at `--shards
/// shards`: the host's available parallelism divided by the loops the
/// most parallel run really uses, `min(shards, R)`, at least 1.
pub fn default_jobs(scenarios: &[Scenario], shards: u32) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let loops = scenarios
        .iter()
        .map(|sc| shard_loops(sc, shards))
        .max()
        .unwrap_or(1);
    (cores / loops as usize).max(1)
}

/// Run several scenarios in parallel on a host-sized worker pool.
pub fn run_all(scenarios: &[Scenario]) -> Vec<RunReport> {
    run_all_pooled(scenarios, default_jobs(scenarios, 1), 1)
}

/// Run scenarios through a pool of `jobs` workers, each run split over
/// `shards` event loops (so up to `jobs × shards` threads are live).
/// Results come back in input order regardless of completion order.
pub fn run_all_pooled(scenarios: &[Scenario], jobs: usize, shards: u32) -> Vec<RunReport> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let jobs = jobs.clamp(1, scenarios.len().max(1));
    if scenarios.is_empty() {
        return Vec::new();
    }
    if jobs == 1 {
        return scenarios.iter().map(|sc| run_sharded(sc, shards)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunReport>>> = scenarios.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(sc) = scenarios.get(i) else {
                    break;
                };
                let report = run_sharded(sc, shards);
                *slots[i].lock().expect("slot poisoned") = Some(report);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("worker completed every claimed run")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn hub_grouping_is_by_delay_class_and_capped() {
        // fig2: 50 direct clients in one delay class -> the cap.
        let groups = hub_groups(&scenarios::fig2(0.5, crate::scenario::Mode::Auction));
        assert_eq!(groups.len(), HUB_SUBGROUPS_PER_CLASS);
        assert_eq!(groups.iter().map(|g| g.members.len()).sum::<usize>(), 50);
        // fig7: five 10-client delay classes -> 10 subgroups each.
        let groups = hub_groups(&scenarios::fig7(false));
        assert_eq!(groups.len(), 50);
        for g in &groups {
            assert_eq!(g.members.len(), 1);
        }
        // fig8: only the 20 direct clients group; 30 sit behind the
        // gateway and place individually.
        let groups = hub_groups(&scenarios::fig8(5));
        assert_eq!(groups.iter().map(|g| g.members.len()).sum::<usize>(), 20);
        // fig9: every client is bottlenecked -> no groups, and the
        // topology stays byte-for-byte the pre-split one.
        assert!(hub_groups(&scenarios::fig9(1024, true)).is_empty());
    }

    #[test]
    fn oversized_shard_requests_clamp_to_the_unit_count() {
        // profiling: 10 clients behind one thinner -> one replica island,
        // the only placement unit. --shards 64 must run a single loop and
        // produce the same report as an unsharded run.
        let mut sc = scenarios::profiling_comparison(crate::scenario::Mode::Auction, false);
        sc.duration = SimDuration::from_secs(1);
        let single = run(&sc);
        let clamped = run_sharded(&sc, 64);
        assert_eq!(clamped.shard_events.len(), 1, "one island, one loop");
        assert!(clamped.shard_events[0] > 0);
        assert_eq!(
            crate::driver::report_json(&single).pretty(),
            crate::driver::report_json(&clamped).pretty()
        );
    }

    #[test]
    fn oversized_shard_requests_clamp_to_the_replica_count() {
        // fig2 at R = 1 and R = 2: a shard is a replica island, so
        // --shards 8 must run one and two loops — more would own no
        // node — and report what a single loop reports.
        for (r, loops) in [(1, 1), (2, 2)] {
            let mut sc = scenarios::fig2(0.5, crate::scenario::Mode::Auction).thinners(r);
            sc.duration = SimDuration::from_secs(1);
            let single = run(&sc);
            let clamped = run_sharded(&sc, 8);
            assert_eq!(clamped.shard_events.len(), loops, "one shard per island");
            assert!(clamped.shard_events.iter().all(|&n| n > 0));
            assert_eq!(
                crate::driver::report_json(&single).pretty(),
                crate::driver::report_json(&clamped).pretty(),
                "R = {r}"
            );
        }
    }

    #[test]
    fn default_pool_counts_the_loops_each_run_really_uses() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let one = scenarios::fig2(0.5, crate::scenario::Mode::Auction);
        let four = one.clone().thinners(4);
        // R = 1 runs on one loop at any --shards: a worker per core.
        assert_eq!(default_jobs(std::slice::from_ref(&one), 4), cores);
        // The largest R in the batch, capped by K, sets the loops per run.
        let batch = [one, four];
        assert_eq!(default_jobs(&batch, 1), cores);
        assert_eq!(default_jobs(&batch, 2), (cores / 2).max(1));
        assert_eq!(default_jobs(&batch, 8), (cores / 4).max(1));
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn zero_duration_scenarios_are_rejected() {
        let mut sc = scenarios::flash_crowd(crate::scenario::Mode::Off);
        sc.duration = SimDuration::ZERO;
        run(&sc);
    }
}
