//! The two proxy workloads and the proxy-layer probes.
//!
//! The proxy under test is `speakup_proxy::spawn` inside this process,
//! reached over the host's loopback interface; no packet crosses a real
//! link. Load is closed-loop: each client thread sends its next `fetch`
//! only when the previous one returned, so a slower proxy is offered
//! less. Client threads never outnumber the host's two cores.

use crate::sim::own_peak_rss_mb;
use crate::spec::{Metrics, ProxySpec};
use crate::stats::{median, now, tail_percentile};
use crate::trace::{Span, Tracer};
use crate::Outcome;
use speakup_proto::message::{encode_payment_head, encode_service_request};
use speakup_proxy::client::{fetch, FetchConfig};
use speakup_proxy::{spawn, ProxyConfig, ProxyHandle, Verdict};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Untimed closed-loop seconds before the window opens.
const WARM_UP: Duration = Duration::from_secs(1);
/// `spawn()`-to-first-`Served` repetitions behind one `setup_s`.
const SETUPS: usize = 21;

/// One `fetch`, as the client thread that made it saw it.
struct Fetched {
    /// Nanoseconds since the loop started.
    start_ns: u64,
    end_ns: u64,
    /// `None` on an I/O error.
    verdict: Option<Verdict>,
    encouraged: bool,
    posts: u32,
    sent_bytes: u64,
}

impl Fetched {
    fn ok(&self) -> bool {
        self.verdict == Some(Verdict::Served)
    }

    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Request ids are the seed's, never entropy: distinct per seed, client
/// and request, which is all the proxy asks of them.
fn request_id(seed: u64, client: usize, n: u64) -> u64 {
    (seed << 40) ^ ((client as u64) << 32) ^ n
}

fn fetch_once(handle: &ProxyHandle, spec: &ProxySpec, id: u64, t0: Instant) -> Fetched {
    let cfg = FetchConfig {
        post_bytes: spec.post_bytes,
        // The loop is the budget: a payer posts until it wins.
        max_posts: u32::MAX,
        read_timeout: Duration::from_secs(30),
    };
    let start_ns = t0.elapsed().as_nanos() as u64;
    let outcome = fetch(handle.addr(), id, cfg);
    let end_ns = t0.elapsed().as_nanos() as u64;
    match outcome {
        Ok(o) => Fetched {
            start_ns,
            end_ns,
            verdict: Some(o.verdict),
            encouraged: o.advertised_rate.is_some(),
            posts: o.posts,
            sent_bytes: o.payment_bytes,
        },
        Err(_) => Fetched {
            start_ns,
            end_ns,
            verdict: None,
            encouraged: false,
            posts: 0,
            sent_bytes: 0,
        },
    }
}

/// Everything one closed-loop session produced.
struct Session {
    /// Every fetch of every client, warm-up included.
    fetched: Vec<Fetched>,
    /// The timed window, nanoseconds since the loop started.
    window_ns: (u64, u64),
    /// Payment bytes the proxy credited inside the window.
    credited_in_window: u64,
    /// Most threads this process had while the window was open (0
    /// unless asked for).
    threads_peak: u64,
}

impl Session {
    fn window_s(&self) -> f64 {
        (self.window_ns.1 - self.window_ns.0) as f64 / 1e9
    }

    /// Fetches that completed inside the window.
    fn in_window(&self) -> impl Iterator<Item = &Fetched> {
        let (lo, hi) = self.window_ns;
        self.fetched
            .iter()
            .filter(move |f| f.end_ns > lo && f.end_ns <= hi)
    }

    fn served_per_s(&self) -> f64 {
        self.in_window().filter(|f| f.ok()).count() as f64 / self.window_s()
    }

    /// The workload's own work per second: payment kilobytes credited
    /// where clients pay (their request rate is the server's, whatever
    /// the proxy does), `Served` requests where they do not.
    fn work_per_s(&self, spec: &ProxySpec) -> f64 {
        if spec.pays {
            self.credited_in_window as f64 / 1e3 / self.window_s()
        } else {
            self.served_per_s()
        }
    }

    fn sink_mbit_per_s(&self) -> f64 {
        self.credited_in_window as f64 * 8.0 / 1e6 / self.window_s()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.in_window()
            .filter(|f| f.ok())
            .map(Fetched::ms)
            .collect()
    }
}

fn own_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find(|l| l.starts_with("Threads:"));
    line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Drive `spec.clients` closed-loop threads for the warm-up plus
/// `timed`, reading the proxy's counters at both edges of the window.
fn closed_loop(
    handle: &ProxyHandle,
    spec: &ProxySpec,
    seed: u64,
    timed: Duration,
    count_threads: bool,
) -> Session {
    let t0 = now();
    let stop = WARM_UP + timed;
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..spec.clients)
            .map(|client| {
                s.spawn(move || {
                    let mut fetched = Vec::new();
                    while t0.elapsed() < stop {
                        let id = request_id(seed, client, fetched.len() as u64);
                        fetched.push(fetch_once(handle, spec, id, t0));
                    }
                    fetched
                })
            })
            .collect();
        std::thread::sleep(WARM_UP.saturating_sub(t0.elapsed()));
        let (opened, credited_before) = (t0.elapsed(), handle.payment_bytes());
        let mut threads_peak = 0;
        while t0.elapsed() < stop {
            if count_threads {
                threads_peak = threads_peak.max(own_threads());
            }
            std::thread::sleep(Duration::from_millis(20).min(stop.saturating_sub(t0.elapsed())));
        }
        let (closed, credited_after) = (t0.elapsed(), handle.payment_bytes());
        Session {
            fetched: clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread"))
                .collect(),
            window_ns: (opened.as_nanos() as u64, closed.as_nanos() as u64),
            credited_in_window: credited_after - credited_before,
            threads_peak,
        }
    })
}

/// The thinner may credit no more payment than clients sent.
pub fn check_credit(credited: u64, sent: u64) -> Result<(), String> {
    if credited > sent {
        return Err(format!(
            "proxy credited {credited} payment bytes, clients sent only {sent}"
        ));
    }
    Ok(())
}

/// The proxy and its clients must agree on how many requests it served.
pub fn check_served(proxy: u64, clients: u64) -> Result<(), String> {
    if proxy != clients {
        return Err(format!(
            "proxy counts {proxy} served requests, clients count {clients}"
        ));
    }
    Ok(())
}

/// Book a finished proxy's fetches and cross-check its counters, then
/// shut it down.
fn settle(out: &mut Outcome, handle: ProxyHandle, fetched: &[Fetched]) {
    out.attempted += fetched.len() as u64;
    let failed = fetched.iter().filter(|f| !f.ok()).count() as u64;
    if failed > 0 {
        let errors = fetched.iter().filter(|f| f.verdict.is_none()).count();
        out.fail(
            failed,
            format!("{failed} fetches failed ({errors} I/O errors, the rest not Served)"),
        );
    }
    let served = fetched.iter().filter(|f| f.ok()).count() as u64;
    let sent = fetched.iter().map(|f| f.sent_bytes).sum();
    out.check(check_served(handle.outcomes().0, served));
    out.check(check_credit(handle.payment_bytes(), sent));
    handle.shutdown();
}

fn spawn_proxy(spec: &ProxySpec, seed: u64) -> Result<ProxyHandle, String> {
    let config = ProxyConfig {
        capacity: spec.capacity,
        seed,
        ..ProxyConfig::default()
    };
    spawn(config).map_err(|e| format!("cannot spawn the proxy: {e}"))
}

/// `spawn()` to the first `Served` probe, [`SETUPS`] times over.
fn setups(out: &mut Outcome, spec: &ProxySpec, seed: u64) -> Result<Vec<f64>, String> {
    let mut secs = Vec::new();
    for n in 0..SETUPS {
        let start = now();
        let handle = spawn_proxy(spec, seed)?;
        let probe = fetch_once(
            &handle,
            spec,
            request_id(seed, spec.clients, n as u64),
            start,
        );
        secs.push(start.elapsed().as_secs_f64());
        settle(out, handle, &[probe]);
    }
    Ok(secs)
}

/// Confine this process, its threads and every thread it starts from
/// now on to the first CPU it may run on. std has no call for that, so
/// util-linux's `taskset` does it from outside; without it the run goes
/// on unconfined and says so.
fn keep_to_one_cpu() {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
    let first = allowed
        .and_then(|list| list.trim().split(['-', ',']).next())
        .unwrap_or("0");
    let confined = std::process::Command::new("taskset")
        .args(["-a", "-c", "-p", first, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|exit| exit.success());
    if !confined {
        eprintln!(
            "taskset could not confine the run to CPU {first}: the sink rate may be two-valued"
        );
    }
}

/// Run `pass` and book a proxy that would not start as one failed
/// operation.
fn outcome(
    spec: &ProxySpec,
    metrics: Metrics,
    pass: impl FnOnce(&mut Outcome) -> Result<(), String>,
) -> Outcome {
    if spec.pays {
        keep_to_one_cpu();
    }
    let mut out = Outcome::new(metrics);
    if let Err(why) = pass(&mut out) {
        out.attempted += 1;
        out.fail(1, why);
    }
    out
}

/// The untraced pass: set-ups, then one closed-loop window of `seconds`.
pub fn measure(spec: &ProxySpec, seed: u64, seconds: u64) -> Outcome {
    outcome(spec, Metrics::end_to_end(), |out| {
        let setup = setups(out, spec, seed)?;
        let handle = spawn_proxy(spec, seed)?;
        let session = closed_loop(&handle, spec, seed, Duration::from_secs(seconds), false);
        let latencies = session.latencies_ms();
        if !latencies.is_empty() {
            out.metrics
                .set("throughput_per_s", session.work_per_s(spec));
            out.metrics.set("latency_p50_ms", median(&latencies));
            out.metrics.set("peak_rss_mb", own_peak_rss_mb());
            out.metrics.set("setup_s", median(&setup));
        }
        settle(out, handle, &session.fetched);
        Ok(())
    })
}

/// The traced pass: the same session with a span per call, a window
/// long enough for p99, and the proxy's counters read out.
pub fn trace(t: &mut Tracer, root: usize, spec: &ProxySpec, seed: u64, seconds: u64) -> Outcome {
    outcome(spec, Metrics::layers(), |out| {
        let handle = t.span("proxy.spawn", Some(root), || spawn_proxy(spec, seed))?;
        let timed = Duration::from_secs(seconds.max(spec.tail_window_s));
        let session_span = t.begin("proxy.closed_loop", Some(root));
        let base = t.clock();
        let session = closed_loop(&handle, spec, seed, timed, true);
        t.end(session_span);
        t.spans.extend(session.fetched.iter().map(|f| Span {
            name: "proxy.fetch",
            start_ns: base + f.start_ns,
            end_ns: base + f.end_ns,
            parent: Some(session_span),
        }));

        let m = &mut out.metrics;
        m.set("proxy_requests_per_s", session.served_per_s());
        m.set("payment_sink_mbit_per_s", session.sink_mbit_per_s());
        m.set(
            "proxy.server_busy_share",
            session.served_per_s() / spec.capacity,
        );
        m.set("proxy.threads_peak", session.threads_peak as f64);
        m.set("trace.coverage", t.coverage(session_span));
        let in_window = session.in_window().count() as f64;
        if in_window > 0.0 {
            let encouraged = session.in_window().filter(|f| f.encouraged).count();
            let posts: f64 = session.in_window().map(|f| f64::from(f.posts)).sum();
            m.set("proxy.encouraged_share", encouraged as f64 / in_window);
            m.set("proxy.posts_per_request", posts / in_window);
        }
        let sent: u64 = session.fetched.iter().map(|f| f.sent_bytes).sum();
        if sent > 0 {
            m.set(
                "proxy.credited_share",
                handle.payment_bytes() as f64 / sent as f64,
            );
        }
        let latencies = session.latencies_ms();
        if !latencies.is_empty() {
            m.set("proxy_request_p50_ms", median(&latencies));
        }
        match tail_percentile(&latencies, 99.0) {
            Ok(p99) => m.set("proxy_request_p99_ms", p99),
            Err(why) => out.check(Err(why)),
        }
        t.span("proxy.shutdown", Some(root), || {
            settle(out, handle, &session.fetched)
        });
        Ok(())
    })
}

/// Connect, send one GET, wait for the first response byte: the request
/// path's fixed cost on an idle proxy. Median of 60, in milliseconds.
pub fn first_byte_ms(seed: u64) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("first-byte probe: {e}");
    let handle = spawn(ProxyConfig {
        capacity: 5000.0,
        seed,
        ..ProxyConfig::default()
    })
    .map_err(io)?;
    let mut ms = Vec::new();
    for n in 0..60 {
        let start = now();
        let mut stream = TcpStream::connect(handle.addr()).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream
            .write_all(&encode_service_request(request_id(seed, 0, n)))
            .map_err(io)?;
        stream.read_exact(&mut [0u8; 1]).map_err(io)?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    handle.shutdown();
    Ok(median(&ms))
}

/// Client write sizes of the sweep, bytes: the paper's Table 1 rows
/// (120 and 1500) and one large write.
pub const SWEEP_WRITES: [usize; 3] = [120, 1500, 65536];

/// Seconds the sweep streams at each write size.
const SWEEP_SECS: u64 = 3;

/// One payer streaming a single endless POST in fixed-size writes,
/// [`SWEEP_SECS`] per size; returns Mbit/s the proxy credited for each.
/// A first request holds the emulated server for the whole sweep, so
/// the payer stays a contender and its channel stays open.
pub fn sink_sweep(seed: u64) -> Result<[f64; 3], String> {
    let io = |e: std::io::Error| format!("sink sweep: {e}");
    // One request occupies the server for 0.9-1.1 / capacity seconds:
    // at least the sweep and a second to spare.
    let hold_s = (SWEEP_WRITES.len() as u64 * SWEEP_SECS + 1) as f64;
    let handle = spawn(ProxyConfig {
        capacity: 0.9 / hold_s,
        seed,
        ..ProxyConfig::default()
    })
    .map_err(io)?;
    let mut holder = TcpStream::connect(handle.addr()).map_err(io)?;
    holder
        .write_all(&encode_service_request(request_id(seed, 0, 0)))
        .map_err(io)?;
    // The holder's connection thread must reach the front end first; the
    // reply to the payer's GET below proves it did.
    std::thread::sleep(Duration::from_millis(100));
    let payer = request_id(seed, 1, 0);
    let mut get = TcpStream::connect(handle.addr()).map_err(io)?;
    get.write_all(&encode_service_request(payer)).map_err(io)?;
    let mut reply = [0u8; 512];
    let n = get.read(&mut reply).map_err(io)?;
    if !String::from_utf8_lossy(&reply[..n]).contains("encourage") {
        return Err("sink sweep: the payer was not encouraged, so the server was not held".into());
    }
    let mut pay = TcpStream::connect(handle.addr()).map_err(io)?;
    pay.set_nodelay(true).map_err(io)?;
    pay.write_all(&encode_payment_head(payer, 1 << 40))
        .map_err(io)?;
    let filler = vec![0x5au8; 65536];
    let mut mbit = [0.0; 3];
    for (slot, size) in mbit.iter_mut().zip(SWEEP_WRITES) {
        let (start, before) = (now(), handle.payment_bytes());
        while start.elapsed() < Duration::from_secs(SWEEP_SECS) {
            pay.write_all(&filler[..size]).map_err(io)?;
        }
        let credited = handle.payment_bytes() - before;
        *slot = credited as f64 * 8.0 / 1e6 / start.elapsed().as_secs_f64();
    }
    drop((holder, get, pay));
    handle.shutdown();
    Ok(mbit)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAY: ProxySpec = ProxySpec {
        capacity: 50.0,
        clients: 2,
        post_bytes: 1 << 20,
        pays: true,
        tail_window_s: 21,
    };

    #[test]
    fn credited_bytes_may_not_exceed_sent_bytes() {
        assert!(check_credit(10, 10).is_ok());
        assert!(check_credit(0, 10).is_ok());
        assert!(check_credit(11, 10).unwrap_err().contains("credited 11"));
    }

    #[test]
    fn proxy_and_clients_agree_on_served() {
        assert!(check_served(7, 7).is_ok());
        assert!(check_served(7, 8).unwrap_err().contains("clients count 8"));
    }

    #[test]
    fn request_ids_are_distinct_per_seed_client_and_request() {
        let ids = [
            request_id(1, 0, 0),
            request_id(1, 0, 1),
            request_id(1, 1, 0),
            request_id(2, 0, 0),
        ];
        let mut unique = ids.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn a_short_session_serves_every_request_and_balances_its_books() {
        let spec = ProxySpec {
            capacity: 2000.0,
            clients: 1,
            pays: false,
            ..PAY
        };
        let handle = spawn_proxy(&spec, 5).unwrap();
        let session = closed_loop(&handle, &spec, 5, Duration::from_millis(300), true);
        assert!(session.in_window().count() > 5 && session.window_s() > 0.29);
        // Nobody had to pay: the work is the requests, and a paying
        // workload would have had none to report.
        assert_eq!(session.work_per_s(&spec), session.served_per_s());
        assert_eq!(
            (session.credited_in_window, session.work_per_s(&PAY)),
            (0, 0.0)
        );
        assert!(
            session.threads_peak >= 4,
            "listener, server, ticker, client"
        );
        let mut out = Outcome::new(Metrics::end_to_end());
        settle(&mut out, handle, &session.fetched);
        assert!(
            out.correct() && out.failed == 0 && out.attempted == session.fetched.len() as u64,
            "{:?}",
            out.why
        );
    }
}
