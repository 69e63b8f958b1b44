//! Experiment-level aggregates: how the server was divided between
//! client classes, and the payment costs of service.

use crate::client::ClientStats;
use speakup_net::trace::Samples;

/// Aggregated outcome for one client class (good or bad).
#[derive(Clone, Debug, Default)]
pub struct ClassReport {
    /// Clients in the class.
    pub clients: usize,
    /// Sum of per-client generated requests.
    pub generated: u64,
    /// Sum of per-client issued requests.
    pub issued: u64,
    /// Sum of per-client served requests.
    pub served: u64,
    /// Sum of all denial kinds.
    pub denied: u64,
    /// End-to-end latency of served requests, seconds.
    pub latency: Samples,
    /// Payment uploaded per *served* request, bytes ("the price", Fig 5).
    pub payment_bytes: Samples,
    /// Time spent uploading dummy bytes per served request, seconds (Fig 4).
    pub payment_time: Samples,
}

impl ClassReport {
    /// Fold a client's stats into the class, counting it as `clients`
    /// population members (1 for a fully simulated client, N for a
    /// cohort's aggregated stats).
    pub fn absorb_weighted(&mut self, stats: &ClientStats, clients: usize) {
        self.clients += clients;
        self.generated += stats.generated;
        self.issued += stats.issued;
        self.served += stats.served;
        self.denied += stats.denied();
        for &v in stats.latency.values() {
            self.latency.push(v);
        }
    }

    /// Fraction of generated requests that were served.
    pub fn served_fraction(&self) -> f64 {
        if self.generated == 0 {
            return 0.0;
        }
        self.served as f64 / self.generated as f64
    }
}

/// How the server's completed work divided between classes.
#[derive(Clone, Debug, Default)]
pub struct Allocation {
    /// Requests (or §5 quanta) completed for good clients.
    pub good: u64,
    /// Requests (or §5 quanta) completed for bad clients.
    pub bad: u64,
}

impl Allocation {
    /// Fraction of the server's completed work that went to good clients.
    pub fn good_fraction(&self) -> f64 {
        let total = self.good + self.bad;
        if total == 0 {
            return 0.0;
        }
        self.good as f64 / total as f64
    }

    /// Fraction that went to bad clients.
    pub fn bad_fraction(&self) -> f64 {
        let total = self.good + self.bad;
        if total == 0 {
            return 0.0;
        }
        self.bad as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_fractions() {
        let a = Allocation { good: 30, bad: 70 };
        assert!((a.good_fraction() - 0.3).abs() < 1e-12);
        assert!((a.bad_fraction() - 0.7).abs() < 1e-12);
        let empty = Allocation::default();
        assert_eq!(empty.good_fraction(), 0.0);
        assert_eq!(empty.bad_fraction(), 0.0);
    }

    #[test]
    fn class_report_absorbs_clients() {
        let mut report = ClassReport::default();
        let mut s1 = ClientStats {
            generated: 10,
            served: 6,
            denied_backlog: 3,
            denied_dropped: 1,
            ..Default::default()
        };
        s1.latency.push(0.5);
        let mut s2 = ClientStats {
            generated: 10,
            served: 4,
            ..Default::default()
        };
        s2.latency.push(1.5);
        report.absorb_weighted(&s1, 1);
        report.absorb_weighted(&s2, 3);
        assert_eq!(report.clients, 4, "a cohort counts as its members");
        assert_eq!(report.generated, 20);
        assert_eq!(report.served, 10);
        assert_eq!(report.denied, 4);
        assert_eq!(report.served_fraction(), 0.5);
        assert_eq!(report.latency.len(), 2);
    }
}
