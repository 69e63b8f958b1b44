//! Integration: §7.6/§7.7 — shared bottlenecks. Bad clients crowd good
//! ones out of a shared link, and speak-up traffic inflates bystander
//! download latency.

use speakup_core::client::ClientProfile;
use speakup_exp::scenario::{BottleneckSpec, ClientSpec, Mode, Scenario, WebSpec};
use speakup_exp::scenarios::fig8;
use speakup_net::time::SimDuration;

#[test]
fn bad_clients_hog_a_shared_bottleneck() {
    // 2 good + 6 bad behind a link that carries half their access sum;
    // 2 good + 2 bad direct. c = 20.
    let mut s = Scenario::new("bottleneck", 20.0, Mode::Auction);
    s.bottleneck = Some(BottleneckSpec {
        rate_bps: 8_000_000,
        delay: SimDuration::from_micros(500),
        queue_packets: 50,
    });
    s.add_clients(2, ClientSpec::lan(ClientProfile::good()).bottlenecked());
    s.add_clients(6, ClientSpec::lan(ClientProfile::bad()).bottlenecked());
    s.add_clients(2, ClientSpec::lan(ClientProfile::good()));
    s.add_clients(2, ClientSpec::lan(ClientProfile::bad()));
    let r = speakup_exp::run(&s.duration(SimDuration::from_secs(40)));

    let (mut bg, mut bb) = (0u64, 0u64);
    for pc in &r.per_client {
        if pc.behind_bottleneck {
            if pc.is_bad {
                bb += pc.served;
            } else {
                bg += pc.served;
            }
        }
    }
    let headcount_ideal = 2.0 / 8.0;
    let good_share = bg as f64 / (bg + bb).max(1) as f64;
    assert!(
        good_share < headcount_ideal,
        "good behind the bottleneck should get less than their headcount \
         share: {good_share} vs {headcount_ideal}"
    );
    // The server itself is still protected: bottlenecked clients cannot
    // take more than the bottleneck lets them pay for.
    assert!(r.server_utilization > 0.9);
}

#[test]
fn a_good_majority_behind_the_bottleneck_still_gets_served() {
    // fig8 with 25 of the 30 clients behind the link good: the bad five
    // hog it, so the good get less than their headcount share, but not
    // nothing.
    let r = speakup_exp::run(&fig8(25).duration(SimDuration::from_secs(20)));
    let behind = |bad: bool| -> u64 {
        r.per_client
            .iter()
            .filter(|pc| pc.behind_bottleneck && pc.is_bad == bad)
            .map(|pc| pc.served)
            .sum()
    };
    let (good, bad) = (behind(false), behind(true));
    let share = good as f64 / (good + bad).max(1) as f64;
    assert!(share < 25.0 / 30.0, "good share {share}");
    assert!(share > 0.2, "good share {share}");
}

#[test]
fn speakup_traffic_inflates_bystander_downloads() {
    let mk = |on: bool| {
        let mode = if on { Mode::Auction } else { Mode::Off };
        let mut s = Scenario::new("web", 2.0, mode);
        s.bottleneck = Some(BottleneckSpec {
            rate_bps: 1_000_000,
            delay: SimDuration::from_millis(100),
            queue_packets: 100,
        });
        s.add_clients(5, ClientSpec::lan(ClientProfile::good()).bottlenecked());
        s.web = Some(WebSpec {
            file_bytes: 8 * 1024,
            downloads: 30,
        });
        s.duration(SimDuration::from_secs(60))
    };
    let off = speakup_exp::run(&mk(false));
    let on = speakup_exp::run(&mk(true));
    let l_off = off.wget_latencies.expect("wget data");
    let l_on = on.wget_latencies.expect("wget data");
    assert!(l_off.len() >= 10);
    assert!(l_on.len() >= 5);
    assert!(
        l_on.mean() > 1.5 * l_off.mean(),
        "speak-up should visibly inflate download latency: {} vs {}",
        l_on.mean(),
        l_off.mean()
    );
}

#[test]
fn bottleneck_caps_what_attackers_can_spend() {
    // §4.2: "the server is still protected (the bad client can spend at
    // most l)". Squeeze 6 attackers into 2 Mbit/s and the good clients
    // do measurably better than when the same attackers are unconstrained
    // (12 Mbit/s aggregate).
    let mk = |squeeze: bool| {
        let mut s = Scenario::new("capped", 10.0, Mode::Auction);
        s.bottleneck = Some(BottleneckSpec {
            rate_bps: 2_000_000,
            delay: SimDuration::from_micros(500),
            queue_packets: 50,
        });
        let bad = ClientSpec::lan(ClientProfile::bad());
        s.add_clients(6, if squeeze { bad.bottlenecked() } else { bad });
        s.add_clients(2, ClientSpec::lan(ClientProfile::good()));
        s.duration(SimDuration::from_secs(40))
    };
    let squeezed = speakup_exp::run(&mk(true));
    let open = speakup_exp::run(&mk(false));
    assert!(
        squeezed.good_fraction() > 1.5 * open.good_fraction(),
        "the link cap should help the good clients: {} vs {}",
        squeezed.good_fraction(),
        open.good_fraction()
    );
    // Bandwidth arithmetic: good 4 Mbit/s vs capped bad ~2 Mbit/s ⇒ good
    // can claim up to ~2/3; being demand-limited (λ=2, w=1) they land
    // between the open-attack share and that ceiling.
    assert!(
        (0.25..=0.70).contains(&squeezed.good_fraction()),
        "squeezed-attack share {}",
        squeezed.good_fraction()
    );
}

#[test]
fn speakup_survives_lossy_access_links() {
    // §4's congestion-control claim, stress-tested: 2% random loss on
    // every good client's uplink. Payments still flow (reliably, thanks
    // to retransmission) and the allocation stays in the proportional
    // neighbourhood, slightly tilted toward the loss-free attackers.
    let mut s = Scenario::new("lossy", 20.0, Mode::Auction);
    s.add_clients(5, ClientSpec::lan(ClientProfile::good()).lossy(0.02));
    s.add_clients(5, ClientSpec::lan(ClientProfile::bad()));
    let r = speakup_exp::run(&s.duration(SimDuration::from_secs(40)));
    assert!(
        (0.2..=0.55).contains(&r.good_fraction()),
        "lossy good clients share: {}",
        r.good_fraction()
    );
    // And loss on everyone is symmetric again.
    let mut s2 = Scenario::new("lossy-both", 20.0, Mode::Auction);
    s2.add_clients(5, ClientSpec::lan(ClientProfile::good()).lossy(0.02));
    s2.add_clients(5, ClientSpec::lan(ClientProfile::bad()).lossy(0.02));
    let r2 = speakup_exp::run(&s2.duration(SimDuration::from_secs(40)));
    assert!(
        (0.3..=0.6).contains(&r2.good_fraction()),
        "symmetric loss share: {}",
        r2.good_fraction()
    );
    assert!(
        r2.good_fraction() >= r.good_fraction() - 0.05,
        "symmetric loss should not be worse for good clients"
    );
}
