//! What the benchmark runs and what it reports: the six workloads, the
//! end-to-end metrics with their bounds, and the per-layer metrics with
//! the end-to-end number each is expected to move. `BENCHMARK.json` at
//! the repo root is [`contract`] rendered; a test keeps the two equal.

use crate::stats::Better::{self, Higher, Lower};
use speakup_exp::json::Json;

/// Seconds one run measures (`run_seconds` in the contract).
pub const RUN_SECONDS: u64 = 15;

/// `speakup run --seed` of every sim workload. A trajectory's cost
/// belongs to its seed (`fig2_xl` takes 8.1-11.1 s and 456-563 MB
/// depending on it, while one seed repeats within 0.7 %), so the
/// simulated inputs are fixed and `--seed` feeds only what the benchmark
/// itself generates.
pub const SIM_SEED: u64 = 1;

/// A simulator workload: one `speakup run` command line.
pub struct SimSpec {
    /// Registry entry.
    pub entry: &'static str,
    /// `--secs`; `None` keeps the entry's own length.
    pub secs: Option<u64>,
    /// `--shards`.
    pub shards: u32,
    /// Child runs per [`RUN_SECONDS`] of `--seconds`, sized so that they
    /// take about that long on the 2-core host.
    pub runs: u64,
    /// Whether the traced pass also replays at `--jobs 2`, to report
    /// what the worker pool gains on the two cores.
    pub pool_probe: bool,
}

impl SimSpec {
    /// Child runs in a run of `seconds`: in proportion, at least one.
    /// The count depends on the arguments only, never on the host's
    /// speed, so every run of one command line does the same work.
    pub fn reps(&self, seconds: u64) -> u64 {
        ((seconds * self.runs + RUN_SECONDS / 2) / RUN_SECONDS).max(1)
    }
}

/// A proxy workload: closed-loop `client::fetch` threads against one
/// in-process `speakup_proxy::spawn` over loopback.
pub struct ProxySpec {
    /// Emulated server capacity c, requests/s.
    pub capacity: f64,
    /// Closed-loop client threads (never more than the 2 cores).
    pub clients: usize,
    /// Bytes per payment POST.
    pub post_bytes: u64,
    /// Whether the clients outrun the server and so pay. Then the work
    /// the workload reports is the payment sunk (its request rate is
    /// pinned at c), and the run keeps to one CPU: with the payer and
    /// the thinner's reader on two, loopback sinks 12.4 instead of
    /// 9.5 Gbit/s, and which it is flips with the host for minutes.
    pub pays: bool,
    /// Seconds the traced pass must measure for p99 to have its 1000
    /// samples (the untraced pass reports no tail and runs `--seconds`).
    pub tail_window_s: u64,
}

pub enum Kind {
    Sim(SimSpec),
    Proxy(ProxySpec),
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers it stresses.
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig2_packet",
        why: "headline figure, 50 full agents on LAN RTTs: wheel, link queue, TCP and dispatch do the work; ~50 auction contenders; no sharding, digest or cohort",
        kind: Kind::Sim(SimSpec { entry: "fig2", secs: Some(120), shards: 1, runs: 3, pool_probe: true }),
    },
    Workload {
        name: "fig7_longrtt",
        why: "same layers, RTTs up to 500 ms: timers sit in high wheel levels and TCP windows grow, so a change tuned to LAN horizons that costs long ones shows",
        kind: Kind::Sim(SimSpec { entry: "fig7", secs: Some(400), shards: 1, runs: 3, pool_probe: false }),
    },
    Workload {
        name: "fig2_xl_crowd",
        why: "10^5 clients on the cohort path, ~5*10^4 auction contenders, ~560 MB: auction structures, cache footprint, set-up and extraction matter and peak RSS can move",
        kind: Kind::Sim(SimSpec { entry: "fig2_xl", secs: None, shards: 1, runs: 2, pool_probe: false }),
    },
    Workload {
        name: "fig2_sharded",
        why: "the only workload where the spin barrier, cross-shard exchange and digest merge run (2 shards, R up to 8); records the sharding slowdown",
        kind: Kind::Sim(SimSpec { entry: "fig2_replicated", secs: Some(60), shards: 2, runs: 3, pool_probe: false }),
    },
    Workload {
        name: "proxy_serve",
        why: "request path only, capacity 5000, 1 closed-loop client: accept, parser, on_request, server thread, verdict; no payment, so payment-path changes must not show",
        kind: Kind::Proxy(ProxySpec {
            capacity: 5000.0,
            clients: 1,
            post_bytes: 1 << 20,
            pays: false,
            tail_window_s: RUN_SECONDS,
        }),
    },
    Workload {
        name: "proxy_pay",
        why: "payment path, capacity 50, 2 closed-loop clients, 1 MiB POSTs: encourage, pay, auction, re-GET; server-bound, so the sink rate is the moving number (its throughput_per_s); kept to one CPU",
        kind: Kind::Proxy(ProxySpec {
            capacity: 50.0,
            clients: 2,
            post_bytes: 1 << 20,
            pays: true,
            tail_window_s: 21,
        }),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric a user of the system sees; measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// The same allowance in the metric's unit, when larger (the
    /// benchmark's own `--twice` check uses it; the contract cannot).
    pub abs_floor: f64,
    pub what: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.12,
        abs_floor: 0.0,
        what: "the workload's own work per wall second. sim: simulator events / run wall (process start to exit, so set-up, extraction and JSON count). proxy_serve: Served verdicts / timed seconds. proxy_pay: payment kilobytes the thinner credited / timed seconds (its Served rate is pinned at c and shows as latency_p50_ms = clients / c)",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.12,
        abs_floor: 0.0,
        what: "what one caller waits for one result, median. sim: one `speakup run` child, spawn to exit with stdout read. proxy: one fetch, call to verdict",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        abs_floor: 0.0,
        what: "VmHWM. sim: the child's, polled from /proc every 20 ms, highest of the runs. proxy: this process's (proxy threads plus the load generator)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        abs_floor: 0.020,
        what: "sim: run wall minus the event loops' own wall, i.e. process start, parse, grid, topology, install, extract, render, print. proxy: spawn() to the first Served probe. Median of several set-ups",
    },
];

impl EndToEnd {
    /// The metric as the contract lists it.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("name", self.name)
            .field("unit", self.unit)
            .field("better", self.better.as_str())
            .field("bound", self.bound)
    }
}

/// A metric of one layer; from the traced pass, no bound. The workload's
/// own pass sets the ones it exercises; a micro-benchmark or probe runs
/// once, in the traced run of the workload `moves` names first
/// (`layer_benches` in `main.rs`), and reads 0 in the others.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload it is expected to move.
    pub moves: &'static str,
}

impl Layer {
    /// The metric as the contract lists it.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("name", self.name)
            .field("unit", self.unit)
            .field("better", self.better.as_str())
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP_SIM: &str =
    "setup_s on every sim workload, most on fig2_xl_crowd; nothing on proxy workloads";
const WALL_SIM: &str = "latency_p50_ms and throughput_per_s on the sim workloads";
const EXACT: &str = "none: an exact count, a sim-speed change must leave it as it is";
const PACKET: &str =
    "latency_p50_ms on fig2_packet, also fig7_longrtt; diluted ~3x on fig2_xl_crowd";
const LONG_TIMERS: &str = "latency_p50_ms on fig7_longrtt";
const JSON: &str = "setup_s on fig2_xl_crowd most, less on the other sim workloads";
const CROWD: &str = "latency_p50_ms on fig2_xl_crowd only";
const SMALL_AUCTION: &str = "latency_p50_ms on fig2_packet; throughput_per_s on proxy_pay";
const DIGEST: &str = "latency_p50_ms on fig2_sharded only";
const PAY: &str = "throughput_per_s on proxy_pay; negligible on proxy_serve";
const SERVE: &str =
    "latency_p50_ms and throughput_per_s on proxy_serve; predicted none on proxy_pay";
const LAYER_ONLY: &str = "none gated: varies up to 3x run to run on loopback";
const WHOLE: &str = "the whole-program number under the issue's name, for the family it exists on";

pub const LAYERS: &[Layer] = &[
    // exp: the CLI path replayed in-process, one span per call.
    layer("exp.driver.parse_s", "s", Lower, SETUP_SIM),
    layer("exp.registry.build_grid_s", "s", Lower, SETUP_SIM),
    layer("exp.driver.execute_s", "s", Lower, WALL_SIM),
    layer("exp.runner.nonloop_s", "s", Lower, SETUP_SIM),
    layer("exp.driver.entry_json_s", "s", Lower, SETUP_SIM),
    layer("exp.json.pretty_s", "s", Lower, SETUP_SIM),
    layer("exp.json.report_bytes", "bytes", Lower, SETUP_SIM),
    layer("exp.report.payload_hash", "hash", Lower, EXACT),
    layer("exp.dispatch.client", "count", Lower, EXACT),
    layer("exp.dispatch.thinner", "count", Lower, EXACT),
    layer("exp.dispatch.cohort", "count", Lower, EXACT),
    layer("exp.dispatch.boxed", "count", Lower, EXACT),
    layer(
        "exp.pool.speedup_jobs2",
        "ratio",
        Higher,
        "none today (workloads run --jobs 1); measured on fig2_packet",
    ),
    layer(
        "exp.json.parse_mb_per_s",
        "MB/s",
        Higher,
        "none (only `speakup compare` parses); measured beside pretty on fig2_xl_crowd",
    ),
    layer("exp.json.pretty_mb_per_s", "MB/s", Higher, JSON),
    // net.sim: the engine loop as the run reports describe it.
    layer("net.sim.loop_s", "s", Lower, WALL_SIM),
    layer("net.sim.events", "count", Lower, EXACT),
    layer("net.sim.events_per_s", "1/s", Higher, WALL_SIM),
    layer("net.sim.shard_event_share_max", "ratio", Lower, DIGEST),
    layer("net.sim.shard_slowdown", "ratio", Lower, DIGEST),
    // net.event / net.link / net.tcp: driven without the simulator.
    layer("net.event.ns_per_op.lan", "ns", Lower, PACKET),
    layer("net.event.ns_per_op.longrtt", "ns", Lower, LONG_TIMERS),
    layer("net.link.ns_per_packet", "ns", Lower, PACKET),
    layer("net.link.drop_share", "ratio", Lower, EXACT),
    layer("net.tcp.ns_per_segment", "ns", Lower, PACKET),
    layer("net.tcp.retransmit_share", "ratio", Lower, EXACT),
    // core: auction front end, digest board, cohort tracker.
    layer(
        "core.auction.ns_per_payment.n50",
        "ns",
        Lower,
        SMALL_AUCTION,
    ),
    layer("core.auction.ns_per_payment.n50k", "ns", Lower, CROWD),
    layer("core.auction.ns_per_admit.n50", "ns", Lower, SMALL_AUCTION),
    layer("core.auction.ns_per_admit.n50k", "ns", Lower, CROWD),
    layer("core.digest.ns_per_merge", "ns", Lower, DIGEST),
    layer("core.digest.ns_per_codec", "ns", Lower, DIGEST),
    layer("core.cohort.ns_per_request", "ns", Lower, CROWD),
    // proto: the HTTP parser and the message encoders.
    layer("proto.http.body_mb_per_s", "MB/s", Higher, PAY),
    layer("proto.http.heads_per_s", "1/s", Higher, SERVE),
    layer("proto.message.encode_ns", "ns", Lower, SERVE),
    // proxy: from the workload run, its counters, and two probes.
    layer("proxy.first_byte_ms.p50", "ms", Lower, SERVE),
    layer("proxy.encouraged_share", "ratio", Lower, EXACT),
    layer("proxy.posts_per_request", "count", Lower, PAY),
    layer("proxy.credited_share", "ratio", Higher, PAY),
    layer("proxy.server_busy_share", "ratio", Higher, SERVE),
    layer(
        "proxy.threads_peak",
        "count",
        Lower,
        "peak_rss_mb on the proxy workloads",
    ),
    layer("proxy.sink_mbit_per_s.w120", "Mbit/s", Higher, LAYER_ONLY),
    layer("proxy.sink_mbit_per_s.w1500", "Mbit/s", Higher, LAYER_ONLY),
    layer("proxy.sink_mbit_per_s.w65536", "Mbit/s", Higher, LAYER_ONLY),
    // trace: how much the spans explain and what they cost.
    layer(
        "trace.coverage",
        "ratio",
        Higher,
        "none: must stay >= 0.95 on the sim workloads",
    ),
    layer("trace.overhead_share", "ratio", Lower, "none"),
    // The issue's family-specific end-to-end names. The contract wants
    // one metric set on every workload, never 0, so these cannot be
    // gated under their own names; `throughput_per_s` carries the sink
    // rate on proxy_pay, the tail has no counterpart in 2-3 sim runs.
    layer("run_wall_s", "s", Lower, WHOLE),
    layer("proxy_requests_per_s", "1/s", Higher, WHOLE),
    layer("proxy_request_p50_ms", "ms", Lower, WHOLE),
    layer("proxy_request_p99_ms", "ms", Lower, WHOLE),
    layer("payment_sink_mbit_per_s", "Mbit/s", Higher, WHOLE),
    layer("failed_share", "ratio", Lower, "none: must stay 0"),
];

/// Named values one run produced. Setting a name the table does not
/// list is a bug in the benchmark and panics; a listed name a workload
/// never sets reads 0, which is what a layer the workload bypasses did.
pub struct Metrics {
    known: Vec<&'static str>,
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Self::of(END_TO_END.iter().map(|m| m.name).collect())
    }

    pub fn layers() -> Self {
        Self::of(LAYERS.iter().map(|m| m.name).collect())
    }

    fn of(known: Vec<&'static str>) -> Self {
        Metrics {
            known,
            values: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.known.contains(&name),
            "metric {name} is not in the table"
        );
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Every table entry in table order, 0 where the run set nothing.
    pub fn all(&self) -> Vec<(&'static str, f64)> {
        self.known
            .iter()
            .map(|n| (*n, self.get(n).unwrap_or(0.0)))
            .collect()
    }
}

/// The unit of a metric in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `BENCHMARK.json`: exactly the keys the driver's contract names.
pub fn contract() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::from(*s)).collect());
    Json::obj()
        .field("command", strs(&["bash", "benchmark/run.sh"]))
        .field("paths", strs(&["benchmark"]))
        .field("run_seconds", RUN_SECONDS)
        .field(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| Json::obj().field("name", w.name).field("why", w.why))
                .collect::<Vec<_>>(),
        )
        .field(
            "end_to_end",
            END_TO_END.iter().map(EndToEnd::to_json).collect::<Vec<_>>(),
        )
        .field(
            "per_layer",
            LAYERS.iter().map(Layer::to_json).collect::<Vec<_>>(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(LAYERS.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn tables_fit_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&LAYERS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (n, u) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
        {
            assert!(unit_ok(u), "{n}: {u}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn sim_reps_depend_on_the_arguments_only() {
        let reps = |name: &str, s| match &workload(name).unwrap().kind {
            Kind::Sim(sim) => sim.reps(s),
            Kind::Proxy(_) => unreachable!(),
        };
        assert_eq!(reps("fig2_packet", 15), 3);
        assert_eq!(reps("fig2_xl_crowd", 15), 2);
        assert_eq!(reps("fig2_xl_crowd", 7), 1);
        assert_eq!(reps("fig2_sharded", 1), 1);
        assert_eq!(reps("fig2_packet", 60), 12);
    }

    #[test]
    fn committed_contract_is_the_emitted_one_and_round_trips() {
        let emitted = contract().pretty();
        let parsed = Json::parse(&emitted).expect("emitted contract parses");
        assert_eq!(parsed.pretty(), emitted);
        let keys: Vec<&str> = match &parsed {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("contract is an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(emitted.len() <= 64 * 1024);
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed, emitted,
            "regenerate with: benchmark/run.sh --emit-contract > BENCHMARK.json"
        );
    }

    #[test]
    fn metrics_read_zero_for_a_bypassed_layer_and_reject_unknown_names() {
        let mut m = Metrics::layers();
        m.set("net.sim.events", 7.0);
        assert_eq!(m.get("net.sim.events"), Some(7.0));
        let all = m.all();
        assert_eq!(all.len(), LAYERS.len());
        assert!(all
            .iter()
            .all(|&(n, v)| (n == "net.sim.events") == (v == 7.0)));
        assert!(
            std::panic::catch_unwind(|| Metrics::end_to_end().set("net.sim.events", 1.0)).is_err()
        );
    }
}
