//! Client behaviour models (§7.1's custom Web client, in Rust).
//!
//! Each client generates requests with a Poisson process of rate `λ`,
//! keeps at most `w` requests outstanding, and queues overflow in a
//! backlog that drains as responses arrive. A backlogged request that
//! waits longer than 10 seconds times out and the client logs a *service
//! denial*. The paper models bad clients purely by intensity: they request
//! faster (`λ = 40` vs `2`) and in parallel (`w = 20` vs `1`).
//!
//! [`RequestTracker`] states that bookkeeping for one client in the
//! plainest form: an ordered map of outstanding requests and a backlog
//! queue. No simulator driver runs it; the simulated clients use
//! [`CohortTracker`](crate::cohort::CohortTracker), and the tracker is
//! the per-member oracle the cohort is checked against (a one-member
//! cohort must replay it move for move, and `tests/cohort_props.rs`
//! checks every member of a larger one against a tracker of its own).

use crate::types::RequestId;
use speakup_net::rng::Pcg32;
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::trace::Samples;
use std::collections::{BTreeMap, VecDeque};

/// Parameters describing one client.
#[derive(Clone, Copy, Debug)]
pub struct ClientProfile {
    /// Poisson request rate, requests/second.
    pub lambda: f64,
    /// Maximum outstanding (issued, unanswered) requests.
    pub window: u32,
    /// Backlogged requests older than this are denials (paper: 10 s).
    pub backlog_timeout: SimDuration,
    /// If set, an *issued* request unanswered for this long is abandoned
    /// and logged as a denial. Used in the no-speak-up baseline, where
    /// drops are silent; under the auction, clients keep paying until they
    /// get through, so this is `None`.
    pub give_up: Option<SimDuration>,
    /// Payment chunk size: the prototype browsers send 1 MB HTTP POSTs (§6).
    pub post_bytes: u64,
    /// Size of one §3.2 retry message on the wire.
    pub retry_bytes: u64,
    /// Whether this client counts as an attacker in reports.
    pub is_bad: bool,
    /// Whether the client spoofs: it presents a fresh identity with every
    /// request (threat model §2.2). Identity-keyed defenses (profiling)
    /// cannot pin such a client down; speak-up does not care.
    pub spoofs: bool,
    /// Request difficulty multiplier (1.0 = homogeneous; §5 experiments
    /// give attackers harder requests).
    pub difficulty: f64,
}

impl ClientProfile {
    /// The paper's good client: `λ = 2`, `w = 1`.
    pub fn good() -> Self {
        ClientProfile {
            lambda: 2.0,
            window: 1,
            backlog_timeout: SimDuration::from_secs(10),
            give_up: None,
            post_bytes: 1 << 20,
            retry_bytes: 500,
            is_bad: false,
            spoofs: false,
            difficulty: 1.0,
        }
    }

    /// The paper's bad client: `λ = 40`, `w = 20`, concurrent channels.
    pub fn bad() -> Self {
        ClientProfile {
            lambda: 40.0,
            window: 20,
            is_bad: true,
            ..Self::good()
        }
    }

    /// Builder-style tweak: request rate.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style tweak: window.
    pub fn window(mut self, w: u32) -> Self {
        self.window = w;
        self
    }

    /// Builder-style tweak: give-up timeout for silent drops.
    pub fn give_up_after(mut self, d: SimDuration) -> Self {
        self.give_up = Some(d);
        self
    }

    /// Builder-style tweak: request difficulty multiplier.
    pub fn difficulty(mut self, d: f64) -> Self {
        self.difficulty = d;
        self
    }

    /// Builder-style tweak: present a fresh identity per request.
    pub fn spoofing(mut self) -> Self {
        self.spoofs = true;
        self
    }

    /// Draw the next inter-arrival gap of `members` superposed Poisson
    /// processes of this rate, which together are one process of rate
    /// `members · λ`.
    pub fn next_gap(&self, rng: &mut Pcg32, members: u32) -> SimDuration {
        SimDuration::from_secs_f64(rng.exp(1.0 / (self.lambda * members as f64)))
    }
}

/// Outcome counters and latency records for one client.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Requests generated by the Poisson process.
    pub generated: u64,
    /// Requests actually issued to the thinner.
    pub issued: u64,
    /// Requests served (response received).
    pub served: u64,
    /// Denials logged from the backlog timeout.
    pub denied_backlog: u64,
    /// Denials logged from giving up on an issued request.
    pub denied_outstanding: u64,
    /// Denials logged because the thinner dropped the request.
    pub denied_dropped: u64,
    /// End-to-end latency of served requests (creation to response), s.
    pub latency: Samples,
}

impl ClientStats {
    /// All denials combined.
    pub fn denied(&self) -> u64 {
        self.denied_backlog + self.denied_outstanding + self.denied_dropped
    }
}

/// One issued request.
#[derive(Clone, Copy, Debug)]
pub struct Outstanding {
    /// When the Poisson process created it.
    pub created: SimTime,
    /// When it was issued (left the backlog).
    pub issued: SimTime,
}

/// Request bookkeeping for one client: outstanding set, backlog queue,
/// denial accounting. The reference model [`CohortTracker`] is tested
/// against; see the module docs.
///
/// [`CohortTracker`]: crate::cohort::CohortTracker
#[derive(Clone, Debug)]
pub struct RequestTracker {
    profile: ClientProfile,
    outstanding: BTreeMap<RequestId, Outstanding>,
    backlog: VecDeque<(RequestId, SimTime)>,
    next_id: u64,
    /// Outcome counters and latencies.
    pub stats: ClientStats,
}

impl RequestTracker {
    /// A tracker for a client with the given profile.
    pub fn new(profile: ClientProfile) -> Self {
        RequestTracker {
            profile,
            outstanding: BTreeMap::new(),
            backlog: VecDeque::new(),
            next_id: 0,
            stats: ClientStats::default(),
        }
    }

    /// The profile this tracker follows.
    pub fn profile(&self) -> &ClientProfile {
        &self.profile
    }

    /// Currently issued requests.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Requests waiting in the backlog.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Metadata for an issued request.
    pub fn outstanding(&self, id: RequestId) -> Option<Outstanding> {
        self.outstanding.get(&id).copied()
    }

    fn issue(&mut self, id: RequestId, created: SimTime, now: SimTime) {
        self.outstanding.insert(
            id,
            Outstanding {
                created,
                issued: now,
            },
        );
        self.stats.issued += 1;
    }

    /// The Poisson process fired: returns the request to issue now, if the
    /// window has room; otherwise the request joins the backlog.
    pub fn on_fire(&mut self, now: SimTime) -> Option<RequestId> {
        self.stats.generated += 1;
        self.expire_backlog(now);
        let id = RequestId(self.next_id);
        self.next_id += 1;
        if (self.outstanding.len() as u32) < self.profile.window {
            self.issue(id, now, now);
            Some(id)
        } else {
            self.backlog.push_back((id, now));
            None
        }
    }

    /// Drop expired backlog entries, logging denials.
    pub fn expire_backlog(&mut self, now: SimTime) {
        while let Some(&(_, created)) = self.backlog.front() {
            if now.saturating_since(created) > self.profile.backlog_timeout {
                self.backlog.pop_front();
                self.stats.denied_backlog += 1;
            } else {
                break;
            }
        }
    }

    /// Pull the next viable backlogged request into the window, if any.
    fn refill(&mut self, now: SimTime) -> Option<RequestId> {
        self.expire_backlog(now);
        if (self.outstanding.len() as u32) < self.profile.window {
            if let Some((id, created)) = self.backlog.pop_front() {
                self.issue(id, created, now);
                return Some(id);
            }
        }
        None
    }

    /// A response arrived for `id`. Returns the next request to issue
    /// from the backlog, if one becomes eligible.
    pub fn on_served(&mut self, now: SimTime, id: RequestId) -> Option<RequestId> {
        let meta = self
            .outstanding
            .remove(&id)
            .expect("served a request that is not outstanding");
        self.stats.served += 1;
        self.stats
            .latency
            .push(now.saturating_since(meta.created).as_secs_f64());
        self.refill(now)
    }

    /// The thinner dropped `id` (channel timeout / baseline drop with
    /// feedback). Returns the next request to issue.
    pub fn on_dropped(&mut self, now: SimTime, id: RequestId) -> Option<RequestId> {
        self.outstanding.remove(&id)?;
        self.stats.denied_dropped += 1;
        self.refill(now)
    }

    /// Issued requests that have exceeded the give-up timeout, if
    /// configured. The caller should abandon them via [`Self::on_gave_up`].
    pub fn overdue(&self, now: SimTime) -> Vec<RequestId> {
        let Some(give_up) = self.profile.give_up else {
            return Vec::new();
        };
        self.outstanding
            .iter()
            .filter(|(_, o)| now.saturating_since(o.issued) >= give_up)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Abandon an issued request (give-up timeout). Returns the next
    /// request to issue.
    pub fn on_gave_up(&mut self, now: SimTime, id: RequestId) -> Option<RequestId> {
        self.outstanding.remove(&id)?;
        self.stats.denied_outstanding += 1;
        self.refill(now)
    }

    /// The earliest give-up deadline among outstanding requests, if any.
    pub fn next_give_up_deadline(&self) -> Option<SimTime> {
        let give_up = self.profile.give_up?;
        self.outstanding.values().map(|o| o.issued + give_up).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn tracker(window: u32) -> RequestTracker {
        RequestTracker::new(ClientProfile::good().window(window))
    }

    #[test]
    fn profiles_match_paper() {
        let g = ClientProfile::good();
        assert_eq!(g.lambda, 2.0);
        assert_eq!(g.window, 1);
        assert!(!g.is_bad);
        let b = ClientProfile::bad();
        assert_eq!(b.lambda, 40.0);
        assert_eq!(b.window, 20);
        assert!(b.is_bad);
        assert_eq!(b.post_bytes, 1 << 20);
        assert_eq!(b.backlog_timeout, SimDuration::from_secs(10));
    }

    #[test]
    fn window_enforced_overflow_backlogs() {
        let mut tr = tracker(2);
        assert!(tr.on_fire(t(0)).is_some());
        assert!(tr.on_fire(t(1)).is_some());
        assert!(tr.on_fire(t(2)).is_none(), "window full -> backlog");
        assert_eq!(tr.outstanding_count(), 2);
        assert_eq!(tr.backlog_len(), 1);
        assert_eq!(tr.stats.generated, 3);
        assert_eq!(tr.stats.issued, 2);
    }

    #[test]
    fn serve_pulls_from_backlog() {
        let mut tr = tracker(1);
        let a = tr
            .on_fire(t(0))
            .expect("invariant: empty window always issues");
        tr.on_fire(t(1));
        let next = tr.on_served(t(5), a);
        assert!(next.is_some());
        assert_eq!(tr.backlog_len(), 0);
        assert_eq!(tr.outstanding_count(), 1);
        assert_eq!(tr.stats.served, 1);
    }

    #[test]
    fn latency_measured_from_creation() {
        let mut tr = tracker(1);
        let a = tr
            .on_fire(t(0))
            .expect("invariant: empty window always issues");
        tr.on_fire(t(100)); // backlogged at 100ms
        let b = tr
            .on_served(t(1000), a)
            .expect("invariant: backlogged request refills the window");
        tr.on_served(t(2000), b);
        let lat = tr.stats.latency.values();
        assert!((lat[0] - 1.0).abs() < 1e-9);
        // Second request waited in backlog from 100ms, served at 2000ms.
        assert!((lat[1] - 1.9).abs() < 1e-9);
    }

    #[test]
    fn backlog_timeout_denies() {
        let mut tr = tracker(1);
        let a = tr
            .on_fire(t(0))
            .expect("invariant: empty window always issues");
        tr.on_fire(t(1)); // backlogged
        tr.on_fire(t(2)); // backlogged
                          // 10 s passes: both backlog entries expire when anything happens.
        let next = tr.on_served(t(11_000), a);
        assert!(next.is_none(), "backlog fully expired");
        assert_eq!(tr.stats.denied_backlog, 2);
    }

    #[test]
    fn backlog_entry_just_under_timeout_survives() {
        let mut tr = tracker(1);
        let a = tr
            .on_fire(t(0))
            .expect("invariant: empty window always issues");
        tr.on_fire(t(5_000));
        let next = tr.on_served(t(14_999), a);
        assert!(next.is_some(), "9.999 s in backlog is not a denial");
        assert_eq!(tr.stats.denied_backlog, 0);
    }

    #[test]
    fn dropped_requests_denied_and_replaced() {
        let mut tr = tracker(1);
        let a = tr
            .on_fire(t(0))
            .expect("invariant: empty window always issues");
        tr.on_fire(t(1));
        let next = tr.on_dropped(t(2), a);
        assert!(next.is_some());
        assert_eq!(tr.stats.denied_dropped, 1);
        // Dropping an unknown id is a no-op.
        assert!(tr.on_dropped(t(3), RequestId(999)).is_none());
        assert_eq!(tr.stats.denied_dropped, 1);
    }

    #[test]
    fn give_up_flow() {
        let profile = ClientProfile::good().give_up_after(SimDuration::from_secs(10));
        let mut tr = RequestTracker::new(profile);
        let a = tr
            .on_fire(t(0))
            .expect("invariant: empty window always issues");
        assert!(tr.overdue(t(5_000)).is_empty());
        assert_eq!(tr.next_give_up_deadline(), Some(t(10_000)));
        let od = tr.overdue(t(10_000));
        assert_eq!(od, vec![a]);
        tr.on_gave_up(t(10_000), a);
        assert_eq!(tr.stats.denied_outstanding, 1);
        assert_eq!(tr.outstanding_count(), 0);
    }

    #[test]
    fn no_give_up_when_unset() {
        let mut tr = tracker(1);
        tr.on_fire(t(0));
        assert!(tr.overdue(t(1_000_000)).is_empty());
        assert_eq!(tr.next_give_up_deadline(), None);
    }

    #[test]
    fn poisson_gap_mean_matches_lambda() {
        let p = ClientProfile::good(); // λ = 2 => mean gap 0.5 s
        let mut rng = Pcg32::seeded(5);
        let n = 100_000;
        let mean = |members: u32, rng: &mut Pcg32| {
            let sum: f64 = (0..n).map(|_| p.next_gap(rng, members).as_secs_f64()).sum();
            sum / n as f64
        };
        let one = mean(1, &mut rng);
        assert!((one - 0.5).abs() < 0.01, "mean gap {one}");
        let four = mean(4, &mut rng);
        assert!((four - 0.125).abs() < 0.0025, "superposed mean gap {four}");
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut tr = tracker(100);
        let mut last = None;
        for i in 0..50 {
            let id = tr
                .on_fire(t(i))
                .expect("invariant: window of 100 has room for 50");
            if let Some(prev) = last {
                assert!(id > prev);
            }
            last = Some(id);
        }
    }
}
