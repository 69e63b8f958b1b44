//! Flyweight client crowds: one tracker aggregating N identical clients.
//!
//! Large background populations (Fig 2 at 10^5+ clients) do not need one
//! [`RequestTracker`](crate::client::RequestTracker) object, one RNG, and
//! one map allocation per client. A [`CohortTracker`] keeps the *union*
//! of N members' request bookkeeping in flat struct-of-arrays tables
//! keyed by a dense [`MemberId`], and holds each piece of per-request
//! state once, sized by what is live:
//!
//! * **Window slots.** Issued requests live in one flat array of
//!   `members × window` slots; member `m` owns `[m·w, (m+1)·w)`, and its
//!   first `window_fill[m]` slots are the live ones. A slot is the
//!   request's member-local sequence number beside its [`Outstanding`]
//!   times (24 bytes), so finding, issuing or retiring a request scans at
//!   most `w` slots of one member, with no tree and no allocation.
//! * **Backlogs of creation times.** A member's backlog is non-empty only
//!   while its window is full: `on_fire` issues directly whenever the
//!   window has room, and every completion refills the window from the
//!   backlog before anything else happens. So the backlog always holds
//!   consecutive member-local numbers ending at `next_local − 1`, the
//!   front one is `next_local − len`, and an entry needs only the time
//!   its request was created.
//!
//! The semantics per member are *exactly* [`RequestTracker`]'s — same
//! window rule, same backlog expiry, same denial taxonomy — which is why
//! a fully simulated client is simply a cohort of one (a one-member
//! cohort replays a `RequestTracker` move for move, and
//! `tests/cohort_props.rs` checks member by member against one
//! `RequestTracker` each). For N > 1
//! the members share the arrival process (the superposition of N Poisson
//! processes of rate λ is one Poisson process of rate Nλ, with the
//! firing member uniform) which is statistically exact; what a *driver*
//! chooses to share (e.g. one access flow) is its own documented
//! approximation.
//!
//! [`RequestTracker`]: crate::client::RequestTracker

use crate::client::{ClientProfile, ClientStats, Outstanding};
use speakup_net::ids::{IdVec, Ident, MemberId};
use speakup_net::time::SimTime;
use std::collections::VecDeque;
use std::ops::Range;

/// Bits of a cohort-global request id holding the member-local sequence
/// number; the high bits hold the member index. Member 0's global ids
/// therefore *equal* its local sequence numbers — the bit pattern a lone
/// [`RequestTracker`](crate::client::RequestTracker) would emit — which
/// is what makes the N = 1 equivalence exact down to wire tags.
pub const GID_LOCAL_BITS: u32 = 32;

/// Pack (member, member-local sequence) into a cohort-global request id.
#[inline]
pub fn gid(member: MemberId, local: u32) -> u64 {
    ((member.0 as u64) << GID_LOCAL_BITS) | local as u64
}

/// The member a cohort-global request id belongs to.
#[inline]
pub fn gid_member(id: u64) -> MemberId {
    MemberId((id >> GID_LOCAL_BITS) as u32)
}

/// The member-local sequence number of a cohort-global request id (its
/// low [`GID_LOCAL_BITS`] bits).
#[inline]
fn gid_local(id: u64) -> u32 {
    id as u32
}

/// Request bookkeeping for a cohort of N identical clients.
///
/// Mirrors [`RequestTracker`](crate::client::RequestTracker) member by
/// member; outcome counters aggregate across the cohort into one
/// [`ClientStats`]. See the module docs for the layout.
#[derive(Clone, Debug)]
pub struct CohortTracker {
    profile: ClientProfile,
    /// SoA column: next member-local sequence number.
    next_local: IdVec<MemberId, u32>,
    /// SoA column: issued, unanswered requests per member (window fill),
    /// which is also how many of the member's window slots are live.
    window_fill: IdVec<MemberId, u32>,
    /// SoA column: creation times of each member's backlogged requests,
    /// oldest first. Their ids are derived (module docs), not stored.
    backlogs: IdVec<MemberId, VecDeque<SimTime>>,
    /// Window slots, `window` per member: (member-local sequence number,
    /// times). Member `m`'s live slots are `[m·w, m·w + window_fill[m])`
    /// in no particular order; the rest hold stale values.
    slots: Vec<(u32, Outstanding)>,
    /// Issued requests across the whole cohort (Σ `window_fill`).
    outstanding_total: usize,
    /// Aggregated outcome counters and latencies for the whole cohort.
    pub stats: ClientStats,
}

impl CohortTracker {
    /// A tracker for `members` identical clients with the given profile.
    pub fn new(profile: ClientProfile, members: u32) -> Self {
        assert!(members > 0, "a cohort needs at least one member");
        let n = members as usize;
        let vacant = Outstanding {
            created: SimTime::ZERO,
            issued: SimTime::ZERO,
        };
        CohortTracker {
            profile,
            next_local: IdVec::with(n, |_| 0),
            window_fill: IdVec::with(n, |_| 0),
            backlogs: IdVec::with(n, |_| VecDeque::new()),
            slots: vec![(0, vacant); n * profile.window as usize],
            outstanding_total: 0,
            stats: ClientStats::default(),
        }
    }

    /// The shared member profile.
    pub fn profile(&self) -> &ClientProfile {
        &self.profile
    }

    /// Number of members.
    pub fn members(&self) -> u32 {
        self.next_local.len() as u32
    }

    /// Issued requests across the whole cohort.
    pub fn outstanding_total(&self) -> usize {
        self.outstanding_total
    }

    /// Backlogged requests across the whole cohort.
    pub fn backlog_total(&self) -> usize {
        self.backlogs.iter().map(|(_, b)| b.len()).sum()
    }

    /// Metadata for an issued request.
    pub fn outstanding(&self, id: u64) -> Option<Outstanding> {
        self.find(id).map(|slot| self.slots[slot].1)
    }

    /// `member`'s live window slots.
    fn live(&self, member: MemberId) -> Range<usize> {
        let start = member.index() * self.profile.window as usize;
        start..start + self.window_fill[member] as usize
    }

    /// The slot holding issued request `id`, if it is one.
    fn find(&self, id: u64) -> Option<usize> {
        let member = gid_member(id);
        if member.index() >= self.window_fill.len() {
            return None;
        }
        let local = gid_local(id);
        self.live(member).find(|&slot| self.slots[slot].0 == local)
    }

    /// Every issued request as (member, slot), members in order.
    fn all_issued(&self) -> impl Iterator<Item = (MemberId, &(u32, Outstanding))> {
        self.window_fill
            .ids()
            .flat_map(move |m| self.slots[self.live(m)].iter().map(move |s| (m, s)))
    }

    /// Put `member`'s request `local` into its window; returns its id.
    fn issue(&mut self, member: MemberId, local: u32, created: SimTime, now: SimTime) -> u64 {
        let slot = self.live(member).end;
        self.slots[slot] = (
            local,
            Outstanding {
                created,
                issued: now,
            },
        );
        self.window_fill[member] += 1;
        self.outstanding_total += 1;
        self.stats.issued += 1;
        gid(member, local)
    }

    /// Take issued request `id` out of its member's window: its last
    /// live slot moves into the hole.
    fn take(&mut self, id: u64) -> Option<(MemberId, Outstanding)> {
        let slot = self.find(id)?;
        let member = gid_member(id);
        let last = self.live(member).end - 1;
        let meta = self.slots[slot].1;
        self.slots[slot] = self.slots[last];
        self.window_fill[member] -= 1;
        self.outstanding_total -= 1;
        Some((member, meta))
    }

    /// `member`'s Poisson process fired: returns the global request id to
    /// issue now if the member's window has room; otherwise the request
    /// joins that member's backlog.
    pub fn on_fire(&mut self, member: MemberId, now: SimTime) -> Option<u64> {
        self.stats.generated += 1;
        self.expire_backlog(member, now);
        let local = self.next_local[member];
        self.next_local[member] += 1;
        if self.window_fill[member] < self.profile.window {
            Some(self.issue(member, local, now, now))
        } else {
            self.backlogs[member].push_back(now);
            None
        }
    }

    /// Drop `member`'s expired backlog entries, logging denials.
    pub fn expire_backlog(&mut self, member: MemberId, now: SimTime) {
        while let Some(&created) = self.backlogs[member].front() {
            if now.saturating_since(created) > self.profile.backlog_timeout {
                self.backlogs[member].pop_front();
                self.stats.denied_backlog += 1;
            } else {
                break;
            }
        }
    }

    /// Pull `member`'s next viable backlogged request into the window.
    fn refill(&mut self, member: MemberId, now: SimTime) -> Option<u64> {
        self.expire_backlog(member, now);
        if self.window_fill[member] >= self.profile.window {
            return None;
        }
        let waiting = self.backlogs[member].len() as u32;
        let created = self.backlogs[member].pop_front()?;
        // The backlog is the member's newest requests, and it waits only
        // behind a full window, which this completion just opened.
        debug_assert!(
            waiting <= self.next_local[member]
                && self.window_fill[member] + 1 == self.profile.window,
            "{member}: {waiting} backlogged of {} behind a window of {}",
            self.next_local[member],
            self.window_fill[member],
        );
        let local = self.next_local[member] - waiting;
        Some(self.issue(member, local, created, now))
    }

    /// A response arrived for `id`. Returns the owning member's next
    /// backlogged request, if one becomes eligible.
    pub fn on_served(&mut self, now: SimTime, id: u64) -> Option<u64> {
        let (member, meta) = self
            .take(id)
            .expect("served a request that is not outstanding");
        self.stats.served += 1;
        self.stats
            .latency
            .push(now.saturating_since(meta.created).as_secs_f64());
        self.refill(member, now)
    }

    /// The thinner dropped `id`. Returns the next request to issue.
    pub fn on_dropped(&mut self, now: SimTime, id: u64) -> Option<u64> {
        let (member, _) = self.take(id)?;
        self.stats.denied_dropped += 1;
        self.refill(member, now)
    }

    /// Abandon an issued request (give-up timeout). Returns the next
    /// request to issue.
    pub fn on_gave_up(&mut self, now: SimTime, id: u64) -> Option<u64> {
        let (member, _) = self.take(id)?;
        self.stats.denied_outstanding += 1;
        self.refill(member, now)
    }

    /// Issued requests past the give-up timeout, across all members, in
    /// ascending global id order.
    pub fn overdue(&self, now: SimTime) -> Vec<u64> {
        let Some(give_up) = self.profile.give_up else {
            return Vec::new();
        };
        let mut ids: Vec<u64> = self
            .all_issued()
            .filter(|(_, (_, o))| now.saturating_since(o.issued) >= give_up)
            .map(|(m, &(local, _))| gid(m, local))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The earliest give-up deadline among outstanding requests, if any.
    pub fn next_give_up_deadline(&self) -> Option<SimTime> {
        let give_up = self.profile.give_up?;
        self.all_issued()
            .map(|(_, (_, o))| o.issued + give_up)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RequestTracker;
    use speakup_net::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    const M0: MemberId = MemberId(0);

    #[test]
    fn gid_packs_member_and_local() {
        assert_eq!(gid(MemberId(0), 7), 7);
        assert_eq!(gid(MemberId(3), 7), (3 << 32) | 7);
        assert_eq!(gid_member(gid(MemberId(3), 7)), MemberId(3));
    }

    /// A one-member cohort replays a RequestTracker move for move.
    #[test]
    fn single_member_cohort_matches_request_tracker() {
        let profile = ClientProfile::bad().give_up_after(SimDuration::from_secs(5));
        let mut solo = RequestTracker::new(profile);
        let mut crowd = CohortTracker::new(profile, 1);
        // A scripted mix of fires, serves, drops, and give-ups.
        let mut fired = Vec::new();
        for i in 0..60u64 {
            let now = t(i * 400);
            let a = solo.on_fire(now).map(|r| r.0);
            let b = crowd.on_fire(M0, now);
            assert_eq!(a, b, "fire {i}");
            if let Some(id) = b {
                fired.push(id);
            }
            if i % 3 == 0 {
                if let Some(id) = fired.pop() {
                    if crowd.outstanding(id).is_some() {
                        let a = solo
                            .on_served(now, crate::types::RequestId(id))
                            .map(|r| r.0);
                        let b = crowd.on_served(now, id);
                        assert_eq!(a, b, "serve {i}");
                    }
                }
            }
            if i % 7 == 0 {
                let od_a: Vec<u64> = solo.overdue(now).iter().map(|r| r.0).collect();
                let od_b = crowd.overdue(now);
                assert_eq!(od_a, od_b, "overdue {i}");
                for id in od_b {
                    let a = solo
                        .on_gave_up(now, crate::types::RequestId(id))
                        .map(|r| r.0);
                    let b = crowd.on_gave_up(now, id);
                    assert_eq!(a, b, "gave up {i}");
                }
            }
            assert_eq!(
                solo.next_give_up_deadline(),
                crowd.next_give_up_deadline(),
                "deadline {i}"
            );
        }
        assert_eq!(solo.stats.generated, crowd.stats.generated);
        assert_eq!(solo.stats.issued, crowd.stats.issued);
        assert_eq!(solo.stats.served, crowd.stats.served);
        assert_eq!(solo.stats.denied(), crowd.stats.denied());
        assert_eq!(solo.stats.latency.values(), crowd.stats.latency.values());
    }

    #[test]
    fn members_have_independent_windows() {
        let mut c = CohortTracker::new(ClientProfile::good(), 2); // w = 1 each
        let a = c.on_fire(MemberId(0), t(0));
        assert!(a.is_some());
        // Member 0's window is full; member 1's is not.
        assert!(c.on_fire(MemberId(0), t(1)).is_none());
        let b = c.on_fire(MemberId(1), t(2));
        assert!(b.is_some());
        assert_eq!(c.outstanding_total(), 2);
        assert_eq!(c.backlog_total(), 1);
        // Serving member 0 refills from member 0's backlog only.
        let next = c.on_served(t(3), a.expect("invariant: asserted is_some above"));
        assert_eq!(next.map(gid_member), Some(MemberId(0)));
    }

    #[test]
    fn backlog_expiry_is_per_member() {
        let mut c = CohortTracker::new(ClientProfile::good(), 2);
        let a = c
            .on_fire(MemberId(0), t(0))
            .expect("invariant: empty window always issues");
        c.on_fire(MemberId(0), t(1)); // backlogged on member 0
        c.on_fire(MemberId(1), t(2)); // issued on member 1
        let next = c.on_served(t(11_500), a);
        assert!(next.is_none(), "member 0's backlog expired");
        assert_eq!(c.stats.denied_backlog, 1);
        assert_eq!(c.outstanding_total(), 1, "member 1 unaffected");
    }

    #[test]
    fn dropped_unknown_id_is_a_no_op() {
        let mut c = CohortTracker::new(ClientProfile::good(), 1);
        c.on_fire(M0, t(0));
        assert!(c.on_dropped(t(1), gid(MemberId(0), 999)).is_none());
        assert_eq!(c.stats.denied_dropped, 0);
    }
}
