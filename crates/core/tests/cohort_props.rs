//! [`CohortTracker`] against the per-client oracle: one
//! [`RequestTracker`] per member.
//!
//! The cohort keeps a member's issued requests in window slots and its
//! backlog as bare creation times, deriving each backlogged request's id
//! from the member's sequence counter. The oracle keeps every member's
//! requests in its own ordered map and backlog of `(id, time)` pairs, so
//! it states the per-member semantics directly. Driven side by side
//! through random fires, serves, drops, give-ups (timed and forced),
//! unknown ids, explicit backlog expiry and long silences, the two must
//! issue the same ids and report the same observable state after every
//! single op: `outstanding(id)`, `overdue(now)` in ascending global id
//! order, the next give-up deadline, the totals and the stats.
//!
//! Uses the vendored proptest stub: deterministic generation, no
//! shrinking — a failure reports the case number for replay.

use proptest::prelude::*;
use speakup_core::client::{ClientProfile, ClientStats, RequestTracker};
use speakup_core::cohort::{gid, gid_member, CohortTracker};
use speakup_core::types::RequestId;
use speakup_net::ids::MemberId;
use speakup_net::time::{SimDuration, SimTime};

/// The member counts under test.
const MEMBERS: [u32; 3] = [1, 3, 7];

/// `good()` (w = 1) and `bad()` (w = 20), each without and with a
/// give-up timeout.
fn profile(pick: u8) -> ClientProfile {
    let base = if pick & 1 == 0 {
        ClientProfile::good()
    } else {
        ClientProfile::bad()
    };
    if pick & 2 == 0 {
        base
    } else {
        base.give_up_after(SimDuration::from_secs(3))
    }
}

/// The cohort beside its oracle, plus what the test itself remembers:
/// each member's issued, unfinished locals, and every served latency in
/// the order the cohort should have recorded them.
struct Pair {
    cohort: CohortTracker,
    solo: Vec<RequestTracker>,
    live: Vec<Vec<u64>>,
    latencies: Vec<f64>,
}

impl Pair {
    fn new(profile: ClientProfile, members: u32) -> Self {
        Pair {
            cohort: CohortTracker::new(profile, members),
            solo: (0..members).map(|_| RequestTracker::new(profile)).collect(),
            live: vec![Vec::new(); members as usize],
            latencies: Vec::new(),
        }
    }

    /// Both sides issued the same request, or neither did.
    fn issued(&mut self, m: usize, cohort: Option<u64>, solo: Option<RequestId>) {
        let member = MemberId(m as u32);
        assert_eq!(cohort, solo.map(|r| gid(member, r.0 as u32)));
        if let Some(r) = solo {
            self.live[m].push(r.0);
        }
    }

    fn fire(&mut self, m: usize, now: SimTime) {
        let c = self.cohort.on_fire(MemberId(m as u32), now);
        let s = self.solo[m].on_fire(now);
        self.issued(m, c, s);
    }

    /// Finish member `m`'s live request `local` by `how`: 0 served,
    /// 1 dropped, 2 gave up.
    fn finish(&mut self, m: usize, local: u64, how: u64, now: SimTime) {
        self.live[m].retain(|&l| l != local);
        let id = gid(MemberId(m as u32), local as u32);
        let (c, s) = match how {
            0 => {
                let c = self.cohort.on_served(now, id);
                let s = self.solo[m].on_served(now, RequestId(local));
                let lat = *self.solo[m].stats.latency.values().last().expect("served");
                self.latencies.push(lat);
                (c, s)
            }
            1 => (
                self.cohort.on_dropped(now, id),
                self.solo[m].on_dropped(now, RequestId(local)),
            ),
            _ => (
                self.cohort.on_gave_up(now, id),
                self.solo[m].on_gave_up(now, RequestId(local)),
            ),
        };
        self.issued(m, c, s);
    }

    /// Give up on everything overdue, as a driver sweeping the cohort
    /// would: in the order `overdue` reports.
    fn sweep(&mut self, now: SimTime) {
        for id in self.cohort.overdue(now) {
            let m = gid_member(id).0 as usize;
            self.finish(m, id & u64::from(u32::MAX), 2, now);
        }
    }

    /// A drop and a give-up for a request that is not outstanding: a
    /// finished or never-issued local of `m`, or a member the cohort
    /// does not have. Nothing may change.
    fn unknown(&mut self, m: usize, pick: u64, now: SimTime) {
        let generated = self.solo[m].stats.generated;
        let local = pick % (generated + 3);
        if self.live[m].contains(&local) {
            return;
        }
        let member = MemberId(m as u32);
        let before = self.cohort.stats.clone();
        assert_eq!(self.cohort.on_dropped(now, gid(member, local as u32)), None);
        assert_eq!(self.solo[m].on_dropped(now, RequestId(local)), None);
        assert_eq!(self.cohort.on_gave_up(now, gid(member, local as u32)), None);
        assert_eq!(self.solo[m].on_gave_up(now, RequestId(local)), None);
        let stranger = gid(MemberId(self.cohort.members()), local as u32);
        assert!(self.cohort.outstanding(stranger).is_none());
        assert_eq!(self.cohort.on_dropped(now, stranger), None);
        assert_eq!(self.cohort.on_gave_up(now, stranger), None);
        assert_stats_eq(&before, &self.cohort.stats);
    }

    fn expire(&mut self, m: usize, now: SimTime) {
        self.cohort.expire_backlog(MemberId(m as u32), now);
        self.solo[m].expire_backlog(now);
    }

    /// Every observable answer agrees.
    fn check(&self, now: SimTime) {
        for (m, solo) in self.solo.iter().enumerate() {
            let member = MemberId(m as u32);
            for local in 0..solo.stats.generated + 2 {
                let c = self.cohort.outstanding(gid(member, local as u32));
                let s = solo.outstanding(RequestId(local));
                assert_eq!(
                    c.map(|o| (o.created, o.issued)),
                    s.map(|o| (o.created, o.issued)),
                    "outstanding({member}, {local})"
                );
            }
        }
        let overdue: Vec<u64> = self
            .solo
            .iter()
            .enumerate()
            .flat_map(|(m, s)| {
                let member = MemberId(m as u32);
                s.overdue(now)
                    .into_iter()
                    .map(move |r| gid(member, r.0 as u32))
            })
            .collect();
        assert_eq!(self.cohort.overdue(now), overdue, "overdue");
        let deadline = self
            .solo
            .iter()
            .filter_map(RequestTracker::next_give_up_deadline)
            .min();
        assert_eq!(self.cohort.next_give_up_deadline(), deadline, "deadline");
        let outstanding: usize = self.solo.iter().map(|s| s.outstanding_count()).sum();
        assert_eq!(self.cohort.outstanding_total(), outstanding, "outstanding");
        let backlog: usize = self.solo.iter().map(|s| s.backlog_len()).sum();
        assert_eq!(self.cohort.backlog_total(), backlog, "backlog");
        let mut total = ClientStats::default();
        for s in &self.solo {
            total.generated += s.stats.generated;
            total.issued += s.stats.issued;
            total.served += s.stats.served;
            total.denied_backlog += s.stats.denied_backlog;
            total.denied_outstanding += s.stats.denied_outstanding;
            total.denied_dropped += s.stats.denied_dropped;
        }
        for &lat in &self.latencies {
            total.latency.push(lat);
        }
        assert_stats_eq(&total, &self.cohort.stats);
    }
}

fn assert_stats_eq(a: &ClientStats, b: &ClientStats) {
    let counts = |s: &ClientStats| {
        (
            s.generated,
            s.issued,
            s.served,
            s.denied_backlog,
            s.denied_outstanding,
            s.denied_dropped,
        )
    };
    assert_eq!(counts(a), counts(b), "stats counters");
    assert_eq!(a.latency.values(), b.latency.values(), "latencies");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ops: `(kind, member, pick, dt_ms)`. Kinds 0–39 fire, 40–59 serve,
    /// 60–67 drop, 68–71 give up a live request, 72–79 sweep the overdue
    /// ones, 80–87 try unknown ids, 88–93 expire a backlog, 94–99 go
    /// silent for 10–14 s, past `backlog_timeout`.
    #[test]
    fn cohort_tracker_matches_one_request_tracker_per_member(
        (members, pick_profile) in (0usize..3, 0u8..4),
        ops in prop::collection::vec((0u8..100, 0u32..7, any::<u64>(), 0u64..1_500), 1..160),
    ) {
        let members = MEMBERS[members];
        let mut pair = Pair::new(profile(pick_profile), members);
        let mut now = SimTime::ZERO;
        for (kind, m, pick, dt_ms) in ops {
            let m = (m % members) as usize;
            now += SimDuration::from_millis(dt_ms);
            match kind {
                0..=39 => pair.fire(m, now),
                40..=71 if !pair.live[m].is_empty() => {
                    let local = pair.live[m][(pick % pair.live[m].len() as u64) as usize];
                    let how = match kind {
                        40..=59 => 0,
                        60..=67 => 1,
                        _ => 2,
                    };
                    pair.finish(m, local, how, now);
                }
                40..=71 => {}
                72..=79 => pair.sweep(now),
                80..=87 => pair.unknown(m, pick, now),
                88..=93 => pair.expire(m, now),
                _ => now += SimDuration::from_millis(10_000 + pick % 4_000),
            }
            pair.check(now);
        }
    }
}
