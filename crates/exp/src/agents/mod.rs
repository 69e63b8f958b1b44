//! Simulator applications: the thinner, clients, and Fig 9's bystanders.
//!
//! [`AppSlot`] is the crate's [`AppSet`]: the enum the sharded engine
//! dispatches over so the four production agents get monomorphic (and
//! inlinable) callbacks instead of a vtable hop per event. Every client,
//! fully simulated or a crowd, is a [`CohortAgent`]; a fully simulated
//! one is a cohort of one member.

pub mod cohort;
mod payer;
pub mod thinner;
pub mod web;

pub use payer::PaymentMode;

use speakup_net::sim::{App, AppSet, Ctx};
use speakup_net::FlowId;
use std::any::Any;

use cohort::CohortAgent;
use thinner::ThinnerAgent;
use web::{WebServerAgent, WgetAgent};

/// One node's application, as a closed enum over the production agents.
///
/// The engine matches on the discriminant and calls the concrete
/// agent's method directly — zero vtable hops for every agent the
/// experiments install.
// The variants are stored inline — one slot lives per node, so dispatch
// locality beats the footprint of the largest agent.
#[allow(clippy::large_enum_variant)]
pub enum AppSlot {
    /// The thinner front-end ([`ThinnerAgent`]).
    Thinner(ThinnerAgent),
    /// Fig 9's bystander web server ([`WebServerAgent`]).
    Web(WebServerAgent),
    /// Fig 9's bystander wget client ([`WgetAgent`]).
    Wget(WgetAgent),
    /// Speak-up clients: one fully simulated client, or a flyweight
    /// crowd of N ([`CohortAgent`]).
    Cohort(CohortAgent),
}

/// Dispatch a callback to the concrete agent behind the discriminant.
macro_rules! each_variant {
    ($slot:expr, $a:ident => $body:expr) => {
        match $slot {
            AppSlot::Thinner($a) => $body,
            AppSlot::Web($a) => $body,
            AppSlot::Wget($a) => $body,
            AppSlot::Cohort($a) => $body,
        }
    };
}

impl AppSet for AppSlot {
    fn start(&mut self, ctx: &mut Ctx) {
        each_variant!(self, a => a.start(ctx))
    }
    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
        each_variant!(self, a => a.on_message(ctx, flow, tag))
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        each_variant!(self, a => a.on_timer(ctx, token))
    }
    fn on_flow_drained(&mut self, ctx: &mut Ctx, flow: FlowId) {
        each_variant!(self, a => a.on_flow_drained(ctx, flow))
    }
    fn on_flow_aborted(&mut self, ctx: &mut Ctx, flow: FlowId) {
        each_variant!(self, a => a.on_flow_aborted(ctx, flow))
    }
    fn on_control(&mut self, ctx: &mut Ctx, src: speakup_net::NodeId, payload: &[u64]) {
        each_variant!(self, a => a.on_control(ctx, src, payload))
    }
    fn on_restart(&mut self, ctx: &mut Ctx) {
        each_variant!(self, a => a.on_restart(ctx))
    }

    fn as_any(&self) -> &dyn Any {
        match self {
            AppSlot::Thinner(a) => a,
            AppSlot::Web(a) => a,
            AppSlot::Wget(a) => a,
            AppSlot::Cohort(a) => a,
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        match self {
            AppSlot::Thinner(a) => a,
            AppSlot::Web(a) => a,
            AppSlot::Wget(a) => a,
            AppSlot::Cohort(a) => a,
        }
    }

    fn variant_index(&self) -> usize {
        match self {
            AppSlot::Thinner(_) => 0,
            AppSlot::Web(_) => 1,
            AppSlot::Wget(_) => 2,
            AppSlot::Cohort(_) => 3,
        }
    }

    fn variant_names() -> &'static [&'static str] {
        &["thinner", "web", "wget", "cohort"]
    }
}
