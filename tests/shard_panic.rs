//! Barrier poisoning: a shard whose application panics must abort the
//! whole run, resurfacing the *original* panic message — never hang its
//! peers at the window-exchange barrier, and never replace the payload
//! with a generic "a scoped thread panicked".
//!
//! The engine's own unit tests cover a timer-driven panic on an island
//! shard; these exercise the remaining directions through the public
//! API: a panic fired by a control payload that crossed from another
//! shard (so the barrier is poisoned with peer traffic in flight), and
//! a panic on shard 0 while the other islands stream traffic of their
//! own. Each is checked against the single-shard run first: sharding
//! may not change which panic ends the run.

use speakup_net::link::LinkConfig;
use speakup_net::packet::NodeId;
use speakup_net::sim::{App, Ctx, Simulator};
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::topology::{Topology, TopologyBuilder};
use std::any::Any;

/// Uploads one `bytes`-sized message to `dst` over the island's own
/// packet-capable link, keeping its shard busy.
struct Uploader {
    dst: NodeId,
    bytes: u64,
}

impl App for Uploader {
    fn start(&mut self, ctx: &mut Ctx) {
        let f = ctx.open_default_flow(self.dst);
        ctx.send(f, self.bytes, 1);
    }
}

/// Sends a control payload to `dst` every `period`, declaring its quiet
/// floor one period ahead each time.
struct Publisher {
    dst: NodeId,
    period: SimDuration,
}

impl App for Publisher {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.control_quiet_until(ctx.now() + self.period);
        ctx.set_timer(self.period, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        ctx.send_control(self.dst, vec![1].into_boxed_slice());
        ctx.control_quiet_until(ctx.now() + self.period);
        ctx.set_timer(self.period, 0);
    }
}

/// Panics the moment a control payload reaches it.
struct ControlBomb;

impl App for ControlBomb {
    fn on_control(&mut self, _ctx: &mut Ctx, _src: NodeId, _payload: &[u64]) {
        panic!("hub app exploded on a control payload");
    }
}

/// Panics on a timer while the other islands stream traffic.
struct TimerBomb;

impl App for TimerBomb {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_millis(40), 7);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {
        panic!("shard 0 exploded on timer");
    }
}

/// A hub alone on island 0 and four islands of two nodes each: island
/// `i` is a sender and a gateway on a 2 Mbit/s link of `2 + i` ms, and
/// each gateway reaches the hub over a control-only link of the same
/// delay. Returns the topology, the hub, and `(sender, gateway)` pairs.
fn islands() -> (Topology, NodeId, Vec<(NodeId, NodeId)>) {
    let mut b = TopologyBuilder::new();
    let hub = b.node();
    let pairs = (0..4)
        .map(|i| {
            let (sender, gateway) = (b.node(), b.node());
            let link = LinkConfig::new(2_000_000, SimDuration::from_millis(2 + i));
            b.duplex(sender, gateway, link);
            b.duplex(gateway, hub, link.control_only());
            (sender, gateway)
        })
        .collect();
    (b.build(), hub, pairs)
}

/// Installs a test's apps, given the hub and the islands' pairs.
type Install = fn(&mut Simulator, NodeId, &[(NodeId, NodeId)]);

/// Run `install`'s apps on the islands for 30 s, one shard per island or
/// all on one, and return the panic that ended the run.
fn explode(one_shard: bool, install: Install) -> Box<dyn Any + Send> {
    let (t, hub, pairs) = islands();
    let assignment = if one_shard {
        vec![0; 9]
    } else {
        // The hub on shard 0, island `i` on shard `i + 1`.
        std::iter::once(0)
            .chain((1..=4).flat_map(|i| [i, i]))
            .collect()
    };
    let mut sim = Simulator::new_sharded(t, 11, assignment);
    install(&mut sim, hub, &pairs);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_until(SimTime::from_secs(30));
    }))
    .expect_err("the run must end in the bomb's panic")
}

/// The single-shard and the sharded run end in the same panic; re-raise
/// the sharded one for `should_panic` to match.
fn same_panic_at_every_sharding(install: Install) {
    let single = explode(true, install);
    // Without barrier poisoning the surviving shards would park forever
    // and this call would never return.
    let sharded = explode(false, install);
    assert_eq!(
        single.downcast_ref::<&str>(),
        sharded.downcast_ref::<&str>()
    );
    std::panic::resume_unwind(sharded);
}

#[test]
#[should_panic(expected = "hub app exploded on a control payload")]
fn cross_shard_message_panic_aborts_the_run_with_its_message() {
    // Every island streams its upload; the last one's gateway publishes
    // to the hub every 20 ms, and the first payload to cross detonates
    // the hub mid-window.
    same_panic_at_every_sharding(|sim, hub, pairs| {
        for (i, &(sender, gateway)) in pairs.iter().enumerate() {
            sim.add_app(
                sender,
                Box::new(Uploader {
                    dst: gateway,
                    bytes: 5_000_000,
                }),
            );
            if i == pairs.len() - 1 {
                sim.add_app(
                    gateway,
                    Box::new(Publisher {
                        dst: hub,
                        period: SimDuration::from_millis(20),
                    }),
                );
            }
        }
        sim.add_app(hub, Box::new(ControlBomb));
    });
}

#[test]
#[should_panic(expected = "shard 0 exploded on timer")]
fn shard_zero_panic_releases_streaming_client_shards() {
    // The islands stream uploads and publish to the hub every 10 ms, so
    // they meet shard 0 at a barrier each period until it explodes.
    same_panic_at_every_sharding(|sim, hub, pairs| {
        for &(sender, gateway) in pairs {
            sim.add_app(
                sender,
                Box::new(Uploader {
                    dst: gateway,
                    bytes: 5_000_000,
                }),
            );
            sim.add_app(
                gateway,
                Box::new(Publisher {
                    dst: hub,
                    period: SimDuration::from_millis(10),
                }),
            );
        }
        sim.add_app(hub, Box::new(TimerBomb));
    });
}
