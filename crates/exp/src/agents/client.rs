//! The client as a simulator application — §7.1's custom Web client.
//!
//! Requests arrive by a Poisson process (rate λ), at most `w` outstanding,
//! overflow backlogged with a 10-second denial timeout. Under
//! encouragement the client runs the §6 POST loop: open a payment flow,
//! send a header plus a 1 MB dummy chunk, and when the chunk is fully
//! acknowledged *and* the thinner says `Continue`, start the next POST on
//! a fresh flow (fresh slow start and a quiescent gap, both of which the
//! paper analyzes in §3.4/§7.5). Bad clients run the same loop — just for
//! many requests concurrently, which is how the paper models §3.4's
//! concurrent-connection cheat.
//!
//! In retry mode (§3.2) the client streams small retry messages in a
//! congestion-controlled flow instead.

use crate::agents::payer::Payer;
use crate::tags::{pack, sizes, unpack, Kind};
use speakup_core::client::{ClientProfile, ClientStats, RequestTracker};
use speakup_core::types::{ClientId, RequestId};
use speakup_net::packet::{FlowId, NodeId};
use speakup_net::rng::Pcg32;
use speakup_net::sim::{App, Ctx};
use speakup_net::trace::Samples;

/// Every other timer token is a give-up timer carrying its request id
/// directly (< 2^56).
const TOKEN_FIRE: u64 = u64::MAX;

/// How the client pays when encouraged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PaymentMode {
    /// No payment: baseline clients just wait (and give up).
    None,
    /// §3.3 / §5: POST dummy-byte chunks.
    Posts,
    /// §3.2: stream small retries.
    Retries,
}

/// Client-side measurements beyond [`ClientStats`].
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Time spent actively uploading dummy bytes per served request (Fig 4).
    pub payment_time: Samples,
    /// Payment bytes *sent* (acked) per served request, client-side view.
    pub payment_sent: Samples,
}

/// The client application. See module docs.
pub struct ClientAgent {
    id: ClientId,
    thinner: NodeId,
    tracker: RequestTracker,
    rng: Pcg32,
    up_flow: Option<FlowId>,
    /// Payment channels and per-request payment totals.
    payer: Payer,
    /// Client-side metrics.
    pub metrics: ClientMetrics,
}

impl ClientAgent {
    /// Create a client of the given profile talking to `thinner`.
    pub fn new(
        id: ClientId,
        thinner: NodeId,
        profile: ClientProfile,
        mode: PaymentMode,
        seed: u64,
    ) -> Self {
        ClientAgent {
            id,
            thinner,
            tracker: RequestTracker::new(profile),
            rng: Pcg32::new(seed, 0xc11e47 ^ id.0 as u64),
            up_flow: None,
            payer: Payer::new(thinner, mode, &profile),
            metrics: ClientMetrics::default(),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Request bookkeeping results.
    pub fn stats(&self) -> &ClientStats {
        &self.tracker.stats
    }

    fn schedule_fire(&mut self, ctx: &mut Ctx) {
        let gap = self.tracker.profile().next_gap(&mut self.rng);
        ctx.set_timer(gap, TOKEN_FIRE);
    }

    fn issue(&mut self, ctx: &mut Ctx, id: RequestId) {
        let up = self.up_flow.expect("issue before start");
        ctx.send(up, sizes::REQUEST, pack(Kind::Request, id));
        if let Some(give_up) = self.tracker.profile().give_up {
            ctx.set_timer(give_up, id.0);
        }
    }

    fn finish_request(&mut self, ctx: &mut Ctx, id: RequestId, served: bool) {
        let (pay_time, pay_bytes) = self.payer.finish(ctx, id.0);
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

impl App for ClientAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        self.up_flow = Some(ctx.open_default_flow(self.thinner));
        self.schedule_fire(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token == TOKEN_FIRE {
            let now = ctx.now();
            if let Some(id) = self.tracker.on_fire(now) {
                self.issue(ctx, id);
            }
            self.schedule_fire(ctx);
            return;
        }
        // Give-up timer for request `token`.
        let id = RequestId(token);
        let now = ctx.now();
        let overdue = self
            .tracker
            .outstanding(id)
            .map(|o| {
                self.tracker
                    .profile()
                    .give_up
                    .map(|g| now.saturating_since(o.issued) >= g)
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        if overdue {
            self.payer.finish(ctx, id.0);
            if let Some(n) = self.tracker.on_gave_up(now, id) {
                self.issue(ctx, n);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, _flow: FlowId, tag: u64) {
        let (kind, id) = unpack(tag);
        match kind {
            Kind::Encourage if self.tracker.outstanding(id).is_some() => {
                self.payer.on_encourage(ctx, id.0);
            }
            Kind::Continue => {
                self.payer.on_continue(ctx, id.0, |id| {
                    self.tracker.outstanding(RequestId(id)).is_some()
                });
            }
            Kind::Response => self.finish_request(ctx, id, true),
            Kind::Dropped => self.finish_request(ctx, id, false),
            _ => {}
        }
    }

    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId) {
        self.payer.on_flow_drained(ctx, flow, |id| {
            self.tracker.outstanding(RequestId(id)).is_some()
        });
    }

    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        self.payer.on_flow_aborted(ctx, flow);
    }
}
