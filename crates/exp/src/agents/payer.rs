//! The paying half of a client: §6's POST loop and §3.2's retry stream.
//!
//! [`CohortAgent`] decides which requests are issued and when; how an
//! encouraged request *pays* lives here. Under `Posts` the payer opens a
//! payment flow, sends a header plus one dummy chunk, and when the chunk
//! is fully acknowledged *and* the thinner says `Continue` starts the
//! next POST on a fresh flow (fresh slow start and a quiescent gap, both
//! of which the paper analyzes in §3.4/§7.5). Bad clients run the same
//! loop, just for many requests concurrently, which is how the paper
//! models §3.4's concurrent-connection cheat. Under `Retries` it keeps a
//! batch of small retry messages in flight for as long as the request
//! lives.
//!
//! There is one record per paying request, holding its open channel and
//! the payment it has accumulated. Messages name the request, so they
//! reach the record by id; flow callbacks name the flow, and reach it
//! through the flow's entry in a second table. Neither path walks an
//! ordered map.
//!
//! [`CohortAgent`]: crate::agents::cohort::CohortAgent

use crate::tags::{pack, sizes, Kind};
use speakup_core::client::ClientProfile;
use speakup_core::types::RequestId;
use speakup_net::packet::{FlowId, NodeId};
use speakup_net::sim::Ctx;
use speakup_net::time::SimTime;
use std::collections::HashMap;

const RETRY_BATCH: u64 = 8;

/// How a client pays when encouraged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PaymentMode {
    /// No payment: baseline clients just wait (and give up).
    None,
    /// §3.3 / §5: POST dummy-byte chunks.
    Posts,
    /// §3.2: stream small retries.
    Retries,
}

/// An open payment flow.
#[derive(Clone, Copy, Debug)]
struct Channel {
    flow: FlowId,
    post_start: SimTime,
    drained: bool,
    got_continue: bool,
}

/// What one in-flight request has paid, and over which channel it is
/// paying now.
#[derive(Clone, Copy, Debug, Default)]
struct Paying {
    channel: Option<Channel>,
    /// Accumulated active-paying seconds.
    time: f64,
    /// Accumulated acked payment bytes.
    bytes: u64,
}

/// See the module docs. Request ids are the wire ids: a cohort's
/// global request ids.
pub(crate) struct Payer {
    thinner: NodeId,
    mode: PaymentMode,
    post_bytes: u64,
    retry_bytes: u64,
    /// Paying requests by id. Probed by key only.
    paying: HashMap<u64, Paying>,
    /// The request each open payment flow pays for. Probed by key only.
    by_flow: HashMap<FlowId, u64>,
}

impl Payer {
    pub fn new(thinner: NodeId, mode: PaymentMode, profile: &ClientProfile) -> Self {
        Payer {
            thinner,
            mode,
            post_bytes: profile.post_bytes,
            retry_bytes: profile.retry_bytes,
            paying: HashMap::new(),
            by_flow: HashMap::new(),
        }
    }

    /// The thinner encouraged outstanding request `id`: start paying,
    /// unless a channel is already open for it.
    pub fn on_encourage(&mut self, ctx: &mut Ctx, id: u64) {
        if self.paying.get(&id).is_some_and(|p| p.channel.is_some()) {
            return;
        }
        match self.mode {
            PaymentMode::None => {}
            PaymentMode::Posts => self.start_post(ctx, id),
            PaymentMode::Retries => self.start_retries(ctx, id),
        }
    }

    /// The thinner said `Continue` for `id`. `outstanding` tells
    /// whether a request is still awaiting its answer.
    pub fn on_continue(&mut self, ctx: &mut Ctx, id: u64, outstanding: impl FnOnce(u64) -> bool) {
        if let Some(ch) = self.channel_mut(id) {
            ch.got_continue = true;
        }
        self.try_repost(ctx, id, outstanding);
    }

    /// Everything written to `flow` has been acknowledged.
    pub fn on_flow_drained(
        &mut self,
        ctx: &mut Ctx,
        flow: FlowId,
        outstanding: impl FnOnce(u64) -> bool,
    ) {
        let Some(&id) = self.by_flow.get(&flow) else {
            return;
        };
        match self.mode {
            PaymentMode::Retries => {
                // Keep the retry stream full while the request lives.
                if outstanding(id) {
                    self.send_retries(ctx, flow, id);
                }
            }
            _ => {
                if let Some(p) = self.paying.get_mut(&id) {
                    if let Some(ch) = p.channel.as_mut().filter(|ch| !ch.drained) {
                        ch.drained = true;
                        p.time += ctx.now().saturating_since(ch.post_start).as_secs_f64();
                    }
                }
                self.try_repost(ctx, id, outstanding);
            }
        }
    }

    /// The thinner terminated the payment channel `flow` (auction won,
    /// drop, or §5 completion). Stop paying; the verdict arrives
    /// separately.
    pub fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        let Some(id) = self.by_flow.remove(&flow) else {
            return;
        };
        let Some(p) = self.paying.get_mut(&id) else {
            return;
        };
        if let Some(ch) = p.channel.take() {
            if !ch.drained {
                p.time += ctx.now().saturating_since(ch.post_start).as_secs_f64();
            }
            p.bytes += ctx.sender(flow).acked_bytes();
        }
    }

    /// Request `id` is over (answered or abandoned): stop paying for it
    /// and return its accumulated `(active seconds, acked bytes)`.
    pub fn finish(&mut self, ctx: &mut Ctx, id: u64) -> (f64, u64) {
        self.close_channel(ctx, id, true);
        self.paying
            .remove(&id)
            .map_or((0.0, 0), |p| (p.time, p.bytes))
    }

    fn channel_mut(&mut self, id: u64) -> Option<&mut Channel> {
        self.paying.get_mut(&id)?.channel.as_mut()
    }

    /// Record `flow`, just opened, as `id`'s channel.
    fn open_channel(&mut self, ctx: &Ctx, id: u64, flow: FlowId) {
        self.paying.entry(id).or_default().channel = Some(Channel {
            flow,
            post_start: ctx.now(),
            drained: false,
            got_continue: false,
        });
        self.by_flow.insert(flow, id);
    }

    fn start_post(&mut self, ctx: &mut Ctx, id: u64) {
        let flow = ctx.open_default_flow(self.thinner);
        let rid = RequestId(id);
        ctx.send(flow, sizes::PAYMENT_HEADER, pack(Kind::PaymentHeader, rid));
        ctx.send(flow, self.post_bytes, pack(Kind::PaymentChunk, rid));
        self.open_channel(ctx, id, flow);
    }

    fn start_retries(&mut self, ctx: &mut Ctx, id: u64) {
        let flow = ctx.open_default_flow(self.thinner);
        self.send_retries(ctx, flow, id);
        self.open_channel(ctx, id, flow);
    }

    fn send_retries(&self, ctx: &mut Ctx, flow: FlowId, id: u64) {
        for _ in 0..RETRY_BATCH {
            ctx.send(flow, self.retry_bytes, pack(Kind::Retry, RequestId(id)));
        }
    }

    /// Start the next POST once the current one is both drained and
    /// acknowledged by a `Continue`.
    fn try_repost(&mut self, ctx: &mut Ctx, id: u64, outstanding: impl FnOnce(u64) -> bool) {
        let Some(ch) = self.channel_mut(id) else {
            return;
        };
        if ch.drained && ch.got_continue {
            self.close_channel(ctx, id, false);
            if outstanding(id) {
                self.start_post(ctx, id);
            }
        }
    }

    /// Stop paying for `id`. Accounts the active period; aborts the flow
    /// if we are the ones walking away (`abort` true).
    fn close_channel(&mut self, ctx: &mut Ctx, id: u64, abort: bool) {
        let Some(p) = self.paying.get_mut(&id) else {
            return;
        };
        let Some(ch) = p.channel.take() else {
            return;
        };
        self.by_flow.remove(&ch.flow);
        p.bytes += ctx.sender(ch.flow).acked_bytes();
        if !ch.drained {
            p.time += ctx.now().saturating_since(ch.post_start).as_secs_f64();
        }
        if abort && !ctx.sender(ch.flow).is_aborted() {
            ctx.abort_flow(ch.flow);
        }
    }
}
