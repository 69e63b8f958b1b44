//! The client as a simulator application: §7.1's custom Web client,
//! played by one member or by a flyweight crowd of N from one node.
//!
//! Each member's requests arrive by a Poisson process (rate λ), at most
//! `w` are outstanding, and overflow waits in a backlog with a 10-second
//! denial timeout; good and bad clients differ only in λ and `w`. Every
//! client the runner simulates is a [`CohortAgent`]: a fully simulated
//! client is a cohort of one on its own node, access link and flows,
//! and a crowd cohort plays N members behind one node. Arrivals are
//! drawn from the *superposed* Poisson process (rate Nλ, firing member
//! uniform, which is statistically exact), and per-member request
//! bookkeeping lives in the struct-of-arrays [`CohortTracker`]. Each
//! member runs the full §6 payment loop ([`Payer`]): its own payment
//! channels, POSTs, retries and give-ups, distinguished on the wire by
//! cohort-global request ids, so the thinner sees N independent
//! well-behaved (or attacking) clients at one address.
//!
//! What *is* shared, and therefore approximate at N > 1:
//!
//! * **The access link.** The runner provisions the cohort's node with N
//!   times one member's access rate, so aggregate bandwidth — the
//!   quantity speak-up's auction actually meters — is exact; individual
//!   members do not contend with each other the way N separate access
//!   links would (they contend downstream, at the shared hub/bottleneck,
//!   like everyone else). The flip side: a member paying alone can burst
//!   at up to N x its real rate, so *per-request* pacing statistics —
//!   payment times, realized auction prices, the unloaded serialization
//!   floor under `latency.min` — are not distribution-exact at N > 1.
//!   Aggregate allocation and served fractions are; per-request
//!   distributions should be read off the fully simulated foreground
//!   population (which is why `fig2_xl` keeps one).
//! * **The request flow.** All members' 400-byte requests ride one
//!   congestion-controlled flow to the thinner instead of N idle ones.
//!
//! At N = 1 nothing is shared, and the RNG is consulted only for
//! arrival gaps, so a fully simulated client draws exactly one
//! exponential per arrival.
//!
//! [`Payer`]: crate::agents::payer::Payer

use crate::agents::payer::{Payer, PaymentMode};
use crate::tags::{pack, sizes, unpack, Kind};
use speakup_core::client::{ClientProfile, ClientStats};
use speakup_core::cohort::CohortTracker;
use speakup_core::types::{ClientId, RequestId};
use speakup_net::ids::MemberId;
use speakup_net::packet::{FlowId, NodeId};
use speakup_net::rng::Pcg32;
use speakup_net::sim::{App, Ctx};
use speakup_net::trace::Samples;

/// Every other timer token is a give-up timer carrying its global
/// request id directly (< 2^56).
const TOKEN_FIRE: u64 = u64::MAX;

/// Client-side measurements beyond [`ClientStats`].
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Time spent actively uploading dummy bytes per served request (Fig 4).
    pub payment_time: Samples,
    /// Payment bytes *sent* (acked) per served request, client-side view.
    pub payment_sent: Samples,
}

/// N identical clients behind one node (N = 1 for a fully simulated
/// client). See module docs.
pub struct CohortAgent {
    thinner: NodeId,
    tracker: CohortTracker,
    rng: Pcg32,
    up_flow: Option<FlowId>,
    /// Every member's payment channels and per-request payment totals,
    /// keyed by global request id.
    payer: Payer,
    /// Cohort-aggregated client-side metrics.
    pub metrics: ClientMetrics,
}

impl CohortAgent {
    /// Create a cohort of `members` clients of the given profile talking
    /// to `thinner`. `id` is the cohort's thinner-visible identity and
    /// keys its RNG stream.
    pub fn new(
        id: ClientId,
        thinner: NodeId,
        profile: ClientProfile,
        members: u32,
        mode: PaymentMode,
        seed: u64,
    ) -> Self {
        CohortAgent {
            thinner,
            tracker: CohortTracker::new(profile, members),
            rng: Pcg32::new(seed, 0xc11e47 ^ id.0 as u64),
            up_flow: None,
            payer: Payer::new(thinner, mode, &profile),
            metrics: ClientMetrics::default(),
        }
    }

    /// Aggregated request bookkeeping results.
    pub fn stats(&self) -> &ClientStats {
        &self.tracker.stats
    }

    /// Draw the next superposed inter-arrival gap.
    fn schedule_fire(&mut self, ctx: &mut Ctx) {
        let members = self.tracker.members();
        let gap = self.tracker.profile().next_gap(&mut self.rng, members);
        ctx.set_timer(gap, TOKEN_FIRE);
    }

    /// The member the current arrival belongs to — uniform by symmetry.
    /// Draws from the RNG only when there is a choice to make.
    fn fire_member(&mut self) -> MemberId {
        let n = self.tracker.members();
        if n == 1 {
            MemberId(0)
        } else {
            MemberId(self.rng.below(n))
        }
    }

    fn issue(&mut self, ctx: &mut Ctx, id: u64) {
        let up = self.up_flow.expect("issue before start");
        ctx.send(up, sizes::REQUEST, pack(Kind::Request, RequestId(id)));
        if let Some(give_up) = self.tracker.profile().give_up {
            ctx.set_timer(give_up, id);
        }
    }

    fn finish_request(&mut self, ctx: &mut Ctx, id: u64, served: bool) {
        let (pay_time, pay_bytes) = self.payer.finish(ctx, id);
        let now = ctx.now();
        let next = if served {
            self.metrics.payment_time.push(pay_time);
            self.metrics.payment_sent.push(pay_bytes as f64);
            self.tracker.on_served(now, id)
        } else {
            self.tracker.on_dropped(now, id)
        };
        if let Some(n) = next {
            self.issue(ctx, n);
        }
    }
}

impl App for CohortAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        self.up_flow = Some(ctx.open_default_flow(self.thinner));
        self.schedule_fire(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token == TOKEN_FIRE {
            let member = self.fire_member();
            let now = ctx.now();
            if let Some(id) = self.tracker.on_fire(member, now) {
                self.issue(ctx, id);
            }
            self.schedule_fire(ctx);
            return;
        }
        // Give-up timer for global request id `token`.
        let now = ctx.now();
        let overdue = self
            .tracker
            .outstanding(token)
            .map(|o| {
                self.tracker
                    .profile()
                    .give_up
                    .map(|g| now.saturating_since(o.issued) >= g)
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        if overdue {
            self.payer.finish(ctx, token);
            if let Some(n) = self.tracker.on_gave_up(now, token) {
                self.issue(ctx, n);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, _flow: FlowId, tag: u64) {
        let (kind, rid) = unpack(tag);
        let id = rid.0;
        match kind {
            Kind::Encourage if self.tracker.outstanding(id).is_some() => {
                self.payer.on_encourage(ctx, id);
            }
            Kind::Continue => {
                self.payer
                    .on_continue(ctx, id, |id| self.tracker.outstanding(id).is_some());
            }
            Kind::Response => self.finish_request(ctx, id, true),
            Kind::Dropped => self.finish_request(ctx, id, false),
            _ => {}
        }
    }

    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId) {
        self.payer
            .on_flow_drained(ctx, flow, |id| self.tracker.outstanding(id).is_some());
    }

    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        self.payer.on_flow_aborted(ctx, flow);
    }
}
