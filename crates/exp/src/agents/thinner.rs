//! The thinner as a simulator application.
//!
//! Wires a [`FrontEnd`] (any of the four variants) plus the
//! [`EmulatedServer`] into the packet world: terminates client flows,
//! tallies payment bytes as they are delivered, executes directives
//! (admit/encourage/drop/suspend/...), and answers clients over per-client
//! downstream flows.

use crate::tags::{pack, sizes, unpack, Kind};
use speakup_core::metrics::Allocation;
use speakup_core::server::EmulatedServer;
use speakup_core::thinner::{BidDigest, DigestBoard, FrontEnd};
use speakup_core::types::{ClientId, Directive, RequestKey};
use speakup_net::packet::{FlowId, NodeId};
use speakup_net::sim::{App, Ctx, TimerHandle};
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::trace::Samples;
use std::collections::{BTreeMap, HashMap};

const TOKEN_SERVER_DONE: u64 = u64::MAX;
const TOKEN_TICK: u64 = u64::MAX - 1;
const TOKEN_SYNC: u64 = u64::MAX - 2;

/// Where a request stands, thinner-side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReqState {
    /// Known, not yet on the server (paying, §3.3/§5 waiting).
    Contending,
    /// Executing (or suspended, §5).
    OnServer,
}

/// Static facts about one client, provided by the scenario.
#[derive(Clone, Copy, Debug)]
pub struct ClientInfo {
    /// The client's id.
    pub id: ClientId,
    /// Whether it counts as an attacker in reports.
    pub is_bad: bool,
    /// Difficulty multiplier of this client's requests (§5).
    pub difficulty: f64,
    /// Whether the client presents a fresh identity per request (§2.2
    /// spoofing). The front end then sees an *alias* key; the agent maps
    /// directives back to the real client for routing and metrics.
    pub spoofs: bool,
}

/// One open payment channel: the record its flow id leads to.
#[derive(Clone, Copy, Debug)]
struct Channel {
    /// The request this channel pays for.
    key: RequestKey,
    /// Delivered-byte watermark already credited to the front end.
    seen: u64,
    /// Bytes credited through this channel so far. Crediting touches
    /// only this record; the sum moves to the request's `paid` when the
    /// channel closes.
    credited: u64,
}

/// One live request: known to the thinner and not yet answered.
#[derive(Clone, Copy, Debug)]
struct Request {
    state: ReqState,
    /// Bytes paid so far over channels since closed, and in retries
    /// (for price metrics at admission).
    paid: u64,
    /// The request's open payment channel, if it has one.
    channel: Option<FlowId>,
}

/// How one thinner replica participates in a replicated deployment
/// (`--thinners R`). Absent on single-thinner runs — which therefore
/// execute the exact pre-replication code path, byte for byte.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// This replica's id, `0..=peers.len()`.
    pub id: u32,
    /// The other replicas' nodes (digest sync targets).
    pub peers: Vec<NodeId>,
    /// Epoch cadence: how often this replica publishes its digest.
    pub sync_period: SimDuration,
    /// The deployment's aggregate server capacity, req/s. Each epoch
    /// the replica re-rates its own slice to its share of this.
    pub total_capacity: f64,
}

/// Smoothing mass (bytes) added to every replica's paid total when
/// converting merged digests into capacity shares: before any payment
/// flows, shares start at `1/R` and drift toward paid-proportional as
/// real bytes dominate the constant.
const SHARE_SMOOTHING_BYTES: f64 = 65_536.0;

/// Failover threshold: a replica declares a peer stale (crashed or
/// partitioned) once the peer's latest digest lags its own epoch by more
/// than this many sync periods. Stale peers drop out of the capacity
/// shares — the survivors absorb the dead replica's slice — and re-join
/// on their next digest (see [`DigestBoard::mark_stale`]). At least one:
/// replicas publish *at* the sync cadence, so zero would declare every
/// peer stale between any two digests.
const STALE_AFTER_EPOCHS: u64 = 3;

/// Measurements the thinner takes (the paper's Figs 2–5 feed from here).
#[derive(Debug, Default)]
pub struct ThinnerMetrics {
    /// Completed requests by class.
    pub allocation: Allocation,
    /// §5: completed quanta (busy time / τ) by class.
    pub quanta: Allocation,
    /// Winning bids (bytes/request) for good clients' served requests.
    pub price_good: Samples,
    /// Winning bids for bad clients' served requests.
    pub price_bad: Samples,
    /// Payment-channel bytes accepted in total (the §7.1 "sunk" traffic).
    pub payment_bytes_total: u64,
    /// Requests dropped (channel timeout, §5 abort, or baseline drop).
    pub drops: u64,
}

/// The thinner application. See module docs.
pub struct ThinnerAgent {
    fe: Box<dyn FrontEnd>,
    server: EmulatedServer,
    /// Which node hosts which client.
    clients_by_node: BTreeMap<NodeId, ClientInfo>,
    nodes_by_client: BTreeMap<ClientId, NodeId>,
    down_flows: BTreeMap<ClientId, FlowId>,
    /// Open payment channels by flow id: a flow that delivered bytes
    /// leads straight to its record and from there to the front end. A
    /// channel can outlive its request (a POST that raced the response)
    /// until the client aborts the flow. Probed by key only.
    channels: HashMap<FlowId, Channel>,
    /// Live requests. Probed by key only; an entry leaves when its
    /// request is answered (response or drop), never later.
    requests: HashMap<RequestKey, Request>,
    server_timer: Option<TimerHandle>,
    tick_timer: Option<TimerHandle>,
    /// Spoofing support: real key -> alias presented to the front end,
    /// and the reverse for directive translation.
    alias_of: BTreeMap<RequestKey, RequestKey>,
    real_of: BTreeMap<RequestKey, RequestKey>,
    next_alias: u32,
    /// §5 quantum for quanta accounting, if in quantum mode.
    quantum: Option<SimDuration>,
    scratch: Vec<Directive>,
    /// Reusable flow buffer for
    /// [`ThinnerAgent::sync_delivered_channels`], which runs on every
    /// server completion and tick.
    flow_scratch: Vec<FlowId>,
    /// Replication role, when part of a `--thinners R` deployment.
    replica: Option<ReplicaConfig>,
    /// This replica's own cumulative digest under construction.
    digest: BidDigest,
    /// Latest digest per replica (self included after each publish).
    board: DigestBoard,
    /// When this replica first declared a peer stale (time-to-failover
    /// measurements; survives restarts like the other metrics).
    failover_at: Option<SimTime>,
    /// When a stale peer's digest was first accepted back
    /// (time-to-recovery measurements).
    rejoin_at: Option<SimTime>,
    /// Half-open observation window `[from, until)` during which
    /// completions are additionally tallied into `window_allocation`
    /// (the runner points this at a fault's outage interval).
    observe: Option<(SimTime, SimTime)>,
    /// Completed requests by class inside the observation window.
    window_allocation: Allocation,
    /// Collected measurements.
    pub metrics: ThinnerMetrics,
}

impl ThinnerAgent {
    /// Build a thinner over the given front end and server, for the given
    /// client placement.
    pub fn new(
        fe: Box<dyn FrontEnd>,
        server: EmulatedServer,
        clients: impl IntoIterator<Item = (NodeId, ClientInfo)>,
        quantum: Option<SimDuration>,
    ) -> Self {
        let clients_by_node: BTreeMap<NodeId, ClientInfo> = clients.into_iter().collect();
        let nodes_by_client = clients_by_node.iter().map(|(n, i)| (i.id, *n)).collect();
        ThinnerAgent {
            fe,
            server,
            clients_by_node,
            nodes_by_client,
            down_flows: BTreeMap::new(),
            channels: HashMap::new(),
            requests: HashMap::new(),
            server_timer: None,
            tick_timer: None,
            alias_of: BTreeMap::new(),
            real_of: BTreeMap::new(),
            next_alias: 1 << 24,
            quantum,
            scratch: Vec::new(),
            flow_scratch: Vec::new(),
            replica: None,
            digest: BidDigest::new(0),
            board: DigestBoard::new(),
            failover_at: None,
            rejoin_at: None,
            observe: None,
            window_allocation: Allocation::default(),
            metrics: ThinnerMetrics::default(),
        }
    }

    /// Turn this thinner into one replica of a `--thinners R`
    /// deployment: it will publish a [`BidDigest`] to `replica.peers`
    /// every `replica.sync_period` and re-rate its server slice to its
    /// merged-paid share of `replica.total_capacity`.
    pub fn with_replica(mut self, replica: ReplicaConfig) -> Self {
        self.digest = BidDigest::new(replica.id);
        self.replica = Some(replica);
        self
    }

    /// When this replica first declared a peer stale, if it ever did
    /// (time-to-failover = this minus the crash instant).
    pub fn failover_at(&self) -> Option<SimTime> {
        self.failover_at
    }

    /// When this replica first re-accepted a stale peer's digest, if
    /// ever (time-to-recovery = this minus the restart instant).
    pub fn rejoin_at(&self) -> Option<SimTime> {
        self.rejoin_at
    }

    /// Tally completions inside `[from, until)` into a separate
    /// [`ThinnerAgent::window_allocation`] counter. The runner points
    /// this at a scheduled fault's outage interval so reports can state
    /// the good-client allocation *during* the outage, not just over the
    /// whole run. Like the cumulative metrics, the window survives a
    /// crash/restart of the hosting node.
    pub fn observe_window(&mut self, from: SimTime, until: SimTime) {
        assert!(from < until, "observation window must be non-empty");
        self.observe = Some((from, until));
    }

    /// Completed requests by class inside the observation window (zero
    /// if no window was set).
    pub fn window_allocation(&self) -> Allocation {
        self.window_allocation.clone()
    }

    /// Read access to the server (utilization, completion counts).
    pub fn server(&self) -> &EmulatedServer {
        &self.server
    }

    /// Read access to the front end (e.g. downcasting for its stats).
    pub fn front_end(&self) -> &dyn FrontEnd {
        self.fe.as_ref()
    }

    /// Requests this thinner holds state for: contending, or on the
    /// server. Bounded by what its clients can have outstanding.
    pub fn live_requests(&self) -> usize {
        self.requests.len()
    }

    fn info(&self, client: ClientId) -> ClientInfo {
        let node = self.nodes_by_client[&client];
        self.clients_by_node[&node]
    }

    /// The key the front end sees for a (real) request: the real key for
    /// honest clients, a per-request fresh identity for spoofers.
    fn fe_key(&mut self, real: RequestKey, spoofs: bool) -> RequestKey {
        if !spoofs {
            return real;
        }
        if let Some(&a) = self.alias_of.get(&real) {
            return a;
        }
        let alias = RequestKey::new(ClientId(self.next_alias), real.req);
        self.next_alias += 1;
        self.alias_of.insert(real, alias);
        self.real_of.insert(alias, real);
        alias
    }

    /// Translate a front-end key back to the real request.
    fn real_key(&self, k: RequestKey) -> RequestKey {
        self.real_of.get(&k).copied().unwrap_or(k)
    }

    fn drop_alias(&mut self, real: RequestKey) {
        if let Some(a) = self.alias_of.remove(&real) {
            self.real_of.remove(&a);
        }
    }

    /// The alias already registered for `real`, or `real` itself.
    fn existing_fe_key(&self, real: RequestKey) -> RequestKey {
        self.alias_of.get(&real).copied().unwrap_or(real)
    }

    fn down_flow(&mut self, ctx: &mut Ctx, client: ClientId) -> FlowId {
        if let Some(&f) = self.down_flows.get(&client) {
            return f;
        }
        let node = self.nodes_by_client[&client];
        let f = ctx.open_default_flow(node);
        self.down_flows.insert(client, f);
        f
    }

    fn tell(&mut self, ctx: &mut Ctx, client: ClientId, kind: Kind, req: RequestKey, bytes: u64) {
        let f = self.down_flow(ctx, client);
        ctx.send(f, bytes, pack(kind, req.req));
    }

    /// Start tracking `key` as contending unless it is already known.
    fn note_request(&mut self, key: RequestKey) {
        self.requests.entry(key).or_insert(Request {
            state: ReqState::Contending,
            paid: 0,
            channel: None,
        });
    }

    /// `key` is on the server now (admitted, or resumed). Returns its
    /// record.
    fn note_on_server(&mut self, key: RequestKey) -> Request {
        let r = self.requests.entry(key).or_insert(Request {
            state: ReqState::OnServer,
            paid: 0,
            channel: None,
        });
        r.state = ReqState::OnServer;
        *r
    }

    /// `key` has been answered: forget it.
    fn forget_request(&mut self, key: RequestKey) {
        self.requests.remove(&key);
    }

    /// Credit any newly delivered bytes on the channel `flow` to the
    /// front end. Returns the delta.
    fn sync_channel(&mut self, ctx: &mut Ctx, flow: FlowId) -> u64 {
        let Some(ch) = self.channels.get_mut(&flow) else {
            return 0;
        };
        let delivered = ctx.receiver(flow).delivered_bytes();
        let delta = delivered.saturating_sub(ch.seen);
        if delta > 0 {
            ch.seen = delivered;
            ch.credited += delta;
            let key = ch.key;
            self.metrics.payment_bytes_total += delta;
            self.digest.note_payment(delta);
            let now = ctx.now();
            let fe_key = self.existing_fe_key(key);
            let mut out = std::mem::take(&mut self.scratch);
            self.fe.on_payment(now, fe_key, delta, &mut out);
            // Payments never emit directives in auction/quantum mode; the
            // retry mode feeds per-message payments elsewhere. Anything
            // that does arrive is processed all the same.
            if !out.is_empty() {
                self.execute_drain(ctx, &mut out);
            }
            self.scratch = out;
        }
        delta
    }

    /// Credit every channel whose flow delivered new bytes since the
    /// last call: O(flows that moved), each one a hash probe. This
    /// runs on every server completion, and completions scale with
    /// capacity (itself scaled to the population), so anything
    /// O(open channels) here makes the whole simulation
    /// O(population²) per simulated second.
    fn sync_delivered_channels(&mut self, ctx: &mut Ctx) {
        // Reuse the flow buffer: this runs on every completion and
        // tick, and a fresh Vec per call was measurable allocator churn.
        let mut flows = std::mem::take(&mut self.flow_scratch);
        flows.clear();
        ctx.drain_progress(&mut flows);
        for &f in &flows {
            self.sync_channel(ctx, f);
        }
        self.flow_scratch = flows;
    }

    /// Stop tracking the channel `flow`, moving what it credited to its
    /// request's `paid` if the request is still live.
    fn close_channel(&mut self, ctx: &mut Ctx, flow: FlowId) -> Option<Channel> {
        let ch = self.channels.remove(&flow)?;
        ctx.unwatch_flow(flow);
        if let Some(r) = self.requests.get_mut(&ch.key) {
            r.paid += ch.credited;
            if r.channel == Some(flow) {
                r.channel = None;
            }
        }
        Some(ch)
    }

    fn call_fe(
        &mut self,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut dyn FrontEnd, SimTime, &mut Vec<Directive>),
    ) {
        let now = ctx.now();
        let mut out = std::mem::take(&mut self.scratch);
        f(self.fe.as_mut(), now, &mut out);
        self.execute_drain(ctx, &mut out);
        self.scratch = out;
    }

    /// Process and remove every directive in `directives`, leaving the
    /// vector empty but with its capacity intact for the caller to hand
    /// back to `scratch` (the double-`mem::take` this replaces returned
    /// a zero-capacity buffer, costing an allocation per front-end call).
    fn execute_drain(&mut self, ctx: &mut Ctx, directives: &mut Vec<Directive>) {
        for d in directives.drain(..) {
            // Translate any front-end alias back to the real request.
            let d = match d {
                Directive::Admit(k) => Directive::Admit(self.real_key(k)),
                Directive::Encourage(k) => Directive::Encourage(self.real_key(k)),
                Directive::Drop(k) => Directive::Drop(self.real_key(k)),
                Directive::TerminateChannel(k) => Directive::TerminateChannel(self.real_key(k)),
                Directive::Suspend(k) => Directive::Suspend(self.real_key(k)),
                Directive::Resume(k) => Directive::Resume(self.real_key(k)),
                Directive::AbortRequest(k) => Directive::AbortRequest(self.real_key(k)),
            };
            match d {
                Directive::Admit(k) => self.admit(ctx, k),
                Directive::Encourage(k) => {
                    self.note_request(k);
                    self.tell(ctx, k.client, Kind::Encourage, k, sizes::CONTROL);
                }
                Directive::Drop(k) => {
                    self.metrics.drops += 1;
                    self.cleanup_channel(ctx, k);
                    self.forget_request(k);
                    self.drop_alias(k);
                    self.tell(ctx, k.client, Kind::Dropped, k, sizes::CONTROL);
                }
                Directive::TerminateChannel(k) => {
                    self.cleanup_channel(ctx, k);
                }
                Directive::Suspend(k) => {
                    let now = ctx.now();
                    self.server.suspend(now, k);
                    if let Some(h) = self.server_timer.take() {
                        ctx.cancel_timer(h);
                    }
                }
                Directive::Resume(k) => {
                    let now = ctx.now();
                    let finish = self.server.resume(now, k);
                    self.arm_server_timer(ctx, finish);
                    self.note_on_server(k);
                }
                Directive::AbortRequest(k) => {
                    self.server.abort_suspended(k);
                    self.metrics.drops += 1;
                    self.cleanup_channel(ctx, k);
                    self.forget_request(k);
                    self.drop_alias(k);
                    self.tell(ctx, k.client, Kind::Dropped, k, sizes::CONTROL);
                }
            }
        }
    }

    fn admit(&mut self, ctx: &mut Ctx, k: RequestKey) {
        let info = self.info(k.client);
        let now = ctx.now();
        let finish = self.server.start_request(now, k, info.difficulty);
        self.arm_server_timer(ctx, finish);
        let r = self.note_on_server(k);
        // Record the price this admission paid: closed channels plus,
        // in §5 mode, the one that stays open while the request runs.
        let open = r.channel.and_then(|f| self.channels.get(&f));
        let paid = (r.paid + open.map_or(0, |ch| ch.credited)) as f64;
        if info.is_bad {
            self.metrics.price_bad.push(paid);
        } else {
            self.metrics.price_good.push(paid);
        }
    }

    fn arm_server_timer(&mut self, ctx: &mut Ctx, finish: SimTime) {
        if let Some(h) = self.server_timer.take() {
            ctx.cancel_timer(h);
        }
        let delay = finish.saturating_since(ctx.now());
        self.server_timer = Some(ctx.set_timer(delay, TOKEN_SERVER_DONE));
    }

    /// Terminate the transport channel for `k`.
    fn cleanup_channel(&mut self, ctx: &mut Ctx, k: RequestKey) {
        if let Some(flow) = self.requests.get(&k).and_then(|r| r.channel) {
            self.close_channel(ctx, flow);
            ctx.abort_flow(flow);
        }
    }

    fn schedule_tick(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let mut out = std::mem::take(&mut self.scratch);
        let next = self.fe.on_tick(now, &mut out);
        self.execute_drain(ctx, &mut out);
        self.scratch = out;
        if let Some(h) = self.tick_timer.take() {
            ctx.cancel_timer(h);
        }
        // Fall back to a coarse housekeeping cadence when the front end
        // has no deadline of its own.
        let at = next.unwrap_or(now + SimDuration::from_millis(500));
        let delay = at.saturating_since(now).max(SimDuration::from_millis(1));
        self.tick_timer = Some(ctx.set_timer(delay, TOKEN_TICK));
    }

    fn client_of_flow(&self, ctx: &Ctx, flow: FlowId) -> Option<ClientInfo> {
        let src = ctx.receiver(flow).src;
        self.clients_by_node.get(&src).copied()
    }

    /// Bump the digest's epoch and ship it to every peer replica as a
    /// control payload (delivered at path propagation delay, so
    /// determinism and the lookahead matrix hold). The replica's own
    /// board merges it immediately.
    fn publish_digest(&mut self, ctx: &mut Ctx) {
        self.digest.epoch += 1;
        let words = self.digest.encode().into_boxed_slice();
        let peers = match &self.replica {
            Some(cfg) => cfg.peers.clone(),
            None => Vec::new(),
        };
        for peer in peers {
            ctx.send_control(peer, words.clone());
        }
        self.board.merge(self.digest);
    }

    /// Re-rate this replica's server slice to its share of the
    /// aggregate capacity, proportional to merged cumulative paid bytes
    /// (with smoothing so pre-payment epochs stay at `1/R`). This is
    /// the paper's DNS-round-robin deployment made adaptive: a replica
    /// whose clients deliver more payment bandwidth serves a matching
    /// share of the server, so the going rate equalizes across
    /// replicas as sync staleness allows.
    ///
    /// Shares are computed over *live* replicas only: a peer declared
    /// stale (see [`STALE_AFTER_EPOCHS`]) drops out of both the
    /// paid total and the smoothing mass, so the survivors' shares sum
    /// to 1 and the dead replica's capacity slice is absorbed rather
    /// than stranded. With no stale peers — every fault-free run — this
    /// is arithmetic-identical to the all-replicas formula.
    fn rebalance_capacity(&mut self) {
        let Some(cfg) = &self.replica else {
            return;
        };
        let total = self.board.live_total_paid() as f64;
        let mine = self.board.paid_of(cfg.id) as f64;
        let live_n = (cfg.peers.len() + 1 - self.board.stale_count()) as f64;
        let share = (mine + SHARE_SMOOTHING_BYTES) / (total + SHARE_SMOOTHING_BYTES * live_n);
        self.server.set_capacity(cfg.total_capacity * share);
    }
}

impl App for ThinnerAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        self.schedule_tick(ctx);
        if let Some(cfg) = &self.replica {
            // No digest leaves before the first epoch boundary: the
            // promise that lets a peer replica's shard run a whole sync
            // period per window (`Ctx::control_quiet_until`).
            ctx.control_quiet_until(ctx.now() + cfg.sync_period);
            ctx.set_timer(cfg.sync_period, TOKEN_SYNC);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
        let (kind, rid) = unpack(tag);
        let Some(info) = self.client_of_flow(ctx, flow) else {
            return; // message from a non-client node (e.g. Fig 9 web traffic)
        };
        let key = RequestKey::new(info.id, rid);
        match kind {
            Kind::Request => {
                self.note_request(key);
                let fe_key = self.fe_key(key, info.spoofs);
                self.call_fe(ctx, |fe, now, out| fe.on_request(now, fe_key, out));
            }
            Kind::PaymentHeader => {
                // Final credit for a previous channel of the same request
                // (re-POST case), then switch to the new flow.
                let request = self.requests.get(&key).copied();
                if let Some(old) = request.and_then(|r| r.channel) {
                    self.sync_channel(ctx, old);
                    self.close_channel(ctx, old);
                }
                let seen = ctx.receiver(flow).delivered_bytes();
                let ch = Channel {
                    key,
                    seen,
                    credited: 0,
                };
                self.channels.insert(flow, ch);
                if let Some(r) = self.requests.get_mut(&key) {
                    r.channel = Some(flow);
                }
                ctx.watch_flow(flow);
            }
            Kind::PaymentChunk => {
                // A full POST arrived. Credit it, then tell the client to
                // keep paying if its request is still in play.
                self.sync_channel(ctx, flow);
                let state = self.requests.get(&key).map(|r| r.state);
                let keep_paying = match state {
                    Some(ReqState::Contending) => true,
                    // §5: the active request keeps its channel open.
                    Some(ReqState::OnServer) => self.quantum.is_some(),
                    None => false,
                };
                if keep_paying {
                    self.tell(ctx, key.client, Kind::Continue, key, sizes::CONTROL);
                }
            }
            Kind::Retry => {
                // Retries race with admission on a separate flow: a stale
                // retry that lands after its request was served must not
                // resurrect it (cf. §7.3's wasted bytes — they are simply
                // ignored).
                match self.requests.get_mut(&key) {
                    Some(r) if r.state == ReqState::Contending => r.paid += sizes::RETRY,
                    _ => return,
                }
                self.metrics.payment_bytes_total += sizes::RETRY;
                self.digest.note_payment(sizes::RETRY);
                let fe_key = self.existing_fe_key(key);
                self.call_fe(ctx, |fe, now, out| {
                    fe.on_payment(now, fe_key, sizes::RETRY, out)
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token {
            TOKEN_SERVER_DONE => {
                self.server_timer = None;
                let now = ctx.now();
                let key = self.server.complete(now);
                let info = self.info(key.client);
                if info.is_bad {
                    self.metrics.allocation.bad += 1;
                } else {
                    self.metrics.allocation.good += 1;
                }
                if let Some((from, until)) = self.observe {
                    if now >= from && now < until {
                        if info.is_bad {
                            self.window_allocation.bad += 1;
                        } else {
                            self.window_allocation.good += 1;
                        }
                    }
                }
                if let Some(q) = self.quantum {
                    // Work consumed ≈ difficulty/c; count quanta.
                    let quanta = ((info.difficulty / self.server.capacity()) / q.as_secs_f64())
                        .round() as u64;
                    let quanta = quanta.max(1);
                    if info.is_bad {
                        self.metrics.quanta.bad += quanta;
                    } else {
                        self.metrics.quanta.good += quanta;
                    }
                }
                // In auction mode the channel died at admission; in §5 it
                // is still open and on_server_done will terminate it.
                // Sync other channels so the auction sees fresh bids.
                self.sync_delivered_channels(ctx);
                let fe_key = self.existing_fe_key(key);
                self.drop_alias(key);
                self.call_fe(ctx, |fe, now, out| fe.on_server_done(now, fe_key, out));
                // Only now: terminating a §5 channel finds it through
                // the request's record.
                self.forget_request(key);
                self.tell(ctx, key.client, Kind::Response, key, sizes::RESPONSE);
            }
            TOKEN_TICK => {
                self.tick_timer = None;
                self.sync_delivered_channels(ctx);
                self.schedule_tick(ctx);
            }
            TOKEN_SYNC => {
                // Epoch boundary: credit any fresh payment bytes first
                // so the published digest is current, then publish,
                // check for silent peers, re-rate, and re-arm.
                self.sync_delivered_channels(ctx);
                self.publish_digest(ctx);
                if let Some(cfg) = &self.replica {
                    // Quiet again until the next epoch boundary.
                    ctx.control_quiet_until(ctx.now() + cfg.sync_period);
                    let newly =
                        self.board
                            .mark_stale(cfg.id, self.digest.epoch, STALE_AFTER_EPOCHS);
                    if !newly.is_empty() && self.failover_at.is_none() {
                        self.failover_at = Some(ctx.now());
                    }
                }
                self.rebalance_capacity();
                if let Some(cfg) = &self.replica {
                    ctx.set_timer(cfg.sync_period, TOKEN_SYNC);
                }
            }
            _ => unreachable!("unknown thinner timer token"),
        }
    }

    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        // A client abandoned a payment flow. Cancel its request's
        // channel registration if it is still ours.
        if let Some(ch) = self.close_channel(ctx, flow) {
            let fe_key = self.existing_fe_key(ch.key);
            self.call_fe(ctx, |fe, now, out| fe.on_cancel(now, fe_key, out));
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx, _src: NodeId, payload: &[u64]) {
        // A peer replica's digest. Merge-by-epoch makes delivery order
        // irrelevant; the capacity share follows the freshened board.
        if let Some(d) = BidDigest::decode(payload) {
            let was_stale = self.board.is_stale(d.replica);
            let kept = self.board.merge(d);
            if kept && was_stale && self.rejoin_at.is_none() {
                self.rejoin_at = Some(ctx.now());
            }
            self.rebalance_capacity();
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx) {
        // The hosting node crashed and came back: every flow, timer, and
        // watch died with it, and a fresh thinner process holds no
        // in-flight request state. Cumulative metrics survive — they are
        // the harness's measurement apparatus, not process memory.
        self.fe.reset(ctx.now());
        self.server.reset();
        self.down_flows.clear();
        self.channels.clear();
        self.requests.clear();
        self.server_timer = None;
        self.tick_timer = None;
        self.alias_of.clear();
        self.real_of.clear();
        // The digest epoch restarts from zero — that reset is exactly
        // the re-join signal peers accept past their max-epoch rule —
        // and the board refills from the next round of peer digests.
        let id = self.replica.as_ref().map_or(0, |cfg| cfg.id);
        self.digest = BidDigest::new(id);
        self.board = DigestBoard::new();
        // Come back up exactly like a first boot: housekeeping tick now,
        // first digest publish one sync period from now.
        self.start(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::cohort::CohortAgent;
    use crate::agents::{AppSlot, PaymentMode};
    use speakup_core::client::ClientProfile;
    use speakup_core::thinner::{QuantumConfig, QuantumFrontEnd};
    use speakup_net::link::LinkConfig;
    use speakup_net::sim::Simulator;
    use speakup_net::topology::TopologyBuilder;

    /// §5 quantum mode, the `hetero` mix in small. A request's payment
    /// channel is still open (and still delivering) when the request
    /// completes, so the sync that precedes `on_server_done` credits
    /// bytes to a request that has just finished. That credit must not
    /// leave per-request state behind: the thinner may never track more
    /// requests than its clients can have outstanding.
    #[test]
    fn finished_requests_leave_no_state_behind() {
        let quantum = SimDuration::from_millis(10);
        // Window 1 each, so at most one live request per client.
        let profiles: Vec<ClientProfile> = (0..8)
            .map(|i| ClientProfile::good().difficulty(if i < 4 { 1.0 } else { 4.0 }))
            .collect();
        let mut b = TopologyBuilder::new();
        let thinner = b.node();
        let nodes: Vec<NodeId> = profiles.iter().map(|_| b.node()).collect();
        for &n in &nodes {
            let lan = LinkConfig::new(2_000_000, SimDuration::from_micros(500));
            b.duplex(n, thinner, lan);
        }
        let mut sim =
            Simulator::<AppSlot>::new_sharded_slots(b.build(), 7, vec![0; nodes.len() + 1]);
        let ids = (0u32..).map(ClientId);
        let infos: Vec<(NodeId, ClientInfo)> = nodes
            .iter()
            .zip(ids)
            .zip(&profiles)
            .map(|((&node, id), p)| {
                let info = ClientInfo {
                    id,
                    is_bad: false,
                    difficulty: p.difficulty,
                    spoofs: false,
                };
                (node, info)
            })
            .collect();
        let fe = QuantumFrontEnd::new(QuantumConfig {
            quantum,
            ..QuantumConfig::default()
        });
        let server = EmulatedServer::new(8.0, 11);
        let agent = ThinnerAgent::new(Box::new(fe), server, infos.clone(), Some(quantum));
        sim.add_slot(thinner, AppSlot::Thinner(agent));
        for ((node, info), p) in infos.iter().zip(&profiles) {
            let seed = 100 + u64::from(info.id.0);
            let client = CohortAgent::new(info.id, thinner, *p, 1, PaymentMode::Posts, seed);
            sim.add_slot(*node, AppSlot::Cohort(client));
        }
        sim.run_until(SimTime::from_secs(10));
        let t = sim.app::<ThinnerAgent>(thinner).expect("thinner agent");
        assert!(
            t.metrics.allocation.good > 20,
            "requests completed: {:?}",
            t.metrics.allocation
        );
        assert!(
            t.live_requests() <= profiles.len(),
            "{} requests tracked for {} single-window clients",
            t.live_requests(),
            profiles.len()
        );
    }
}
