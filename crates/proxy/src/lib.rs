//! # speakup-proxy — a real TCP thinner (§6 over sockets)
//!
//! The simulator in `speakup-exp` validates speak-up's *behaviour*; this
//! crate demonstrates the same front end over real TCP sockets, speaking
//! the `speakup-proto` HTTP exchange, so the system can be exercised with
//! loopback clients (see the `real_proxy` example and integration tests).
//!
//! ## Protocol (the polling variant of §6's delayed response)
//!
//! 1. Client sends `GET /service?id=N`. If the emulated server is free
//!    the thinner runs the request and replies `X-SpeakUp: serve`.
//! 2. Otherwise the thinner replies `X-SpeakUp: encourage` immediately
//!    (standing in for the JavaScript the prototype returns) and registers
//!    `N` as a contender in the §3.3 virtual auction.
//! 3. The client opens a payment connection and POSTs 1 MB dummy-byte
//!    chunks to `/payment?id=N`. The thinner credits bytes *as they
//!    arrive*. A completed POST that has not yet won gets
//!    `X-SpeakUp: continue`; when `N` wins an auction, the thinner closes
//!    the payment connection (terminating the channel).
//! 4. The client re-issues `GET /service?id=N`; the thinner holds this
//!    connection until the server finishes and then replies
//!    `X-SpeakUp: serve` (or `drop` if the channel timed out).
//!
//! **Idle deadline.** A connection that delivers no byte for
//! `auction.channel_timeout` is closed, whatever it was in the middle of
//! (nothing sent yet, half a head, half a POST body). A payment channel
//! silent that long has already lost its contender to the auction's own
//! timeout, so the deadline costs a paying client nothing, and it keeps a
//! peer that connects and then says nothing from pinning a thread until
//! shutdown. Time spent *holding* a GET for its verdict (step 4) is the
//! thinner's silence, not the peer's, and does not count.
//!
//! **Read buffers.** Every connection reads into a 4 KiB head buffer on
//! its thread's stack: enough for a GET's whole exchange and for a
//! POST head. Once a head parses as a payment POST, the connection
//! borrows a 64 KiB sink block from a small pool shared by the proxy and
//! reads every later byte into it, so a payment body crosses the kernel
//! in 64 KiB reads; the block goes back to the pool when the connection
//! ends, and one returned to a pool already holding its cap of idle
//! blocks is freed. Sink memory thus follows open payment channels, not
//! connections. Crediting does not depend on either size: the parser
//! counts body bytes wherever a read splits them.
//!
//! The architecture is deliberately boring: a listener thread, a thread
//! per connection, one back-end "server" thread that sleeps for the
//! drawn service time (`U[0.9/c, 1.1/c]`), and a housekeeping ticker.
//! All speak-up decisions live in `speakup_core::AuctionFrontEnd` behind
//! a mutex — the same pure state machine the simulator drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;

use speakup_core::thinner::{AuctionConfig, AuctionFrontEnd, FrontEnd};
use speakup_core::types::{ClientId, Directive, RequestId, RequestKey};
use speakup_net::rng::Pcg32;
use speakup_net::time::{SimDuration, SimTime};
use speakup_proto::http::{ParseEvent, RequestParser};
use speakup_proto::message::{
    classify_request, encode_continue, encode_dropped, encode_encourage, encode_served,
    ClientMessage,
};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Proxy configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProxyConfig {
    /// Emulated server capacity, requests/second.
    pub capacity: f64,
    /// RNG seed for service times.
    pub seed: u64,
    /// Auction configuration (channel idle timeout).
    pub auction: AuctionConfig,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            capacity: 50.0,
            seed: 1,
            auction: AuctionConfig::default(),
        }
    }
}

/// Final verdict for a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The request was served.
    Served,
    /// The request was dropped.
    Dropped,
}

/// State shared by every thread. The three per-request maps hold an id
/// from its first GET until a GET has been answered with its verdict;
/// then `forget` drops all three entries, so memory follows requests
/// in progress, not every id ever seen. A verdict no GET ever comes back
/// for (a client that went away) stays until shutdown.
#[derive(Default)]
struct Shared {
    fe: Option<AuctionFrontEnd>,
    /// Verdicts for finished requests.
    verdicts: HashMap<u64, Verdict>,
    /// Channels whose payment connection must close.
    terminated: HashSet<u64>,
    /// Requests the front end knows about.
    known: HashSet<u64>,
    /// Counters.
    payment_bytes: u64,
    served: u64,
    dropped: u64,
}

/// Bytes a connection reads at a time until a head parses as a payment
/// POST (see the module docs).
const HEAD_READ: usize = 4 * 1024;
/// Bytes a payment connection reads at a time, into its sink block.
const SINK_BLOCK: usize = 64 * 1024;
/// Idle sink blocks the pool keeps for the next payment connection.
const SINK_POOL_IDLE: usize = 4;

/// Sink blocks for payment connections: up to [`SINK_POOL_IDLE`] idle
/// ones, and a count of those lent out.
#[derive(Default)]
struct SinkPool {
    idle: Mutex<Vec<Box<[u8]>>>,
    lent: AtomicUsize,
}

impl SinkPool {
    /// An idle block, or a fresh one when none is idle.
    fn lend(&self) -> SinkBlock<'_> {
        let block = self.idle.lock().expect("sink pool").pop();
        self.lent.fetch_add(1, Ordering::Relaxed);
        SinkBlock {
            pool: self,
            block: block.unwrap_or_else(|| vec![0; SINK_BLOCK].into_boxed_slice()),
        }
    }
}

/// A lent sink block; dropping it gives the block back to its pool, or
/// frees it when the pool already holds its cap of idle blocks.
struct SinkBlock<'a> {
    pool: &'a SinkPool,
    block: Box<[u8]>,
}

impl Drop for SinkBlock<'_> {
    fn drop(&mut self) {
        self.pool.lent.fetch_sub(1, Ordering::Relaxed);
        let mut idle = self.pool.idle.lock().expect("sink pool");
        if idle.len() < SINK_POOL_IDLE {
            idle.push(std::mem::take(&mut self.block));
        }
    }
}

struct Inner {
    state: Mutex<Shared>,
    wake: Condvar,
    start: Instant,
    /// How long a connection may deliver no byte before it is closed.
    idle_limit: SimDuration,
    server_tx: Mutex<mpsc::Sender<(RequestKey, Duration)>>,
    shutdown: AtomicBool,
    sinks: SinkPool,
}

impl Inner {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    fn execute(&self, shared: &mut Shared, directives: Vec<Directive>) {
        for d in directives {
            match d {
                Directive::Admit(k) => {
                    // Service time is drawn by the server thread.
                    self.server_tx
                        .lock()
                        .expect("server_tx")
                        .send((k, Duration::ZERO))
                        .ok();
                }
                Directive::Encourage(_) => {
                    // The encourage response is written by the connection
                    // thread that received the GET.
                }
                Directive::Drop(k) => {
                    shared.verdicts.insert(k.req.0, Verdict::Dropped);
                    shared.dropped += 1;
                    self.wake.notify_all();
                }
                Directive::TerminateChannel(k) => {
                    shared.terminated.insert(k.req.0);
                }
                Directive::Suspend(_) | Directive::Resume(_) | Directive::AbortRequest(_) => {
                    unreachable!("auction front end never emits §5 directives")
                }
            }
        }
    }

    fn with_fe(
        &self,
        shared: &mut Shared,
        f: impl FnOnce(&mut AuctionFrontEnd, SimTime, &mut Vec<Directive>),
    ) {
        let now = self.now();
        let mut out = Vec::new();
        let mut fe = shared.fe.take().expect("front end present");
        f(&mut fe, now, &mut out);
        shared.fe = Some(fe);
        self.execute(shared, out);
    }
}

/// A running proxy; dropping it shuts the threads down.
pub struct ProxyHandle {
    /// The address the proxy listens on.
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl ProxyHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total payment bytes sunk so far.
    pub fn payment_bytes(&self) -> u64 {
        self.inner.state.lock().expect("state").payment_bytes
    }

    /// (served, dropped) counts so far.
    pub fn outcomes(&self) -> (u64, u64) {
        let s = self.inner.state.lock().expect("state");
        (s.served, s.dropped)
    }

    /// Stop the proxy and join its threads.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn key_of(id: u64) -> RequestKey {
    // The wire id is the identity; the auction never trusts client
    // identity anyway (threat model, §2.2).
    RequestKey::new(ClientId(0), RequestId(id))
}

/// Start a proxy on `127.0.0.1` (ephemeral port).
pub fn spawn(config: ProxyConfig) -> std::io::Result<ProxyHandle> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let (server_tx, server_rx) = mpsc::channel::<(RequestKey, Duration)>();
    let inner = Arc::new(Inner {
        state: Mutex::new(Shared {
            fe: Some(AuctionFrontEnd::new(config.auction)),
            ..Shared::default()
        }),
        wake: Condvar::new(),
        // Real wall clock: the proxy serves live sockets (see clippy.toml).
        #[allow(clippy::disallowed_methods)]
        start: Instant::now(),
        idle_limit: config.auction.channel_timeout,
        server_tx: Mutex::new(server_tx),
        shutdown: AtomicBool::new(false),
        sinks: SinkPool::default(),
    });

    let mut threads = Vec::new();

    // Back-end server thread: one request at a time, real sleeps.
    {
        let inner = Arc::clone(&inner);
        let capacity = config.capacity;
        let mut rng = Pcg32::new(config.seed, 0x5e1);
        threads.push(std::thread::spawn(move || {
            while !inner.shutdown.load(Ordering::SeqCst) {
                match server_rx.recv_timeout(Duration::from_millis(50)) {
                    Ok((k, _)) => {
                        let work = rng.uniform(0.9, 1.1) / capacity;
                        std::thread::sleep(Duration::from_secs_f64(work));
                        let mut shared = inner.state.lock().expect("state");
                        shared.verdicts.insert(k.req.0, Verdict::Served);
                        shared.served += 1;
                        inner.with_fe(&mut shared, |fe, now, out| fe.on_server_done(now, k, out));
                        inner.wake.notify_all();
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        }));
    }

    // Housekeeping ticker: channel timeouts.
    {
        let inner = Arc::clone(&inner);
        threads.push(std::thread::spawn(move || {
            while !inner.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                let mut shared = inner.state.lock().expect("state");
                inner.with_fe(&mut shared, |fe, now, out| {
                    fe.on_tick(now, out);
                });
            }
        }));
    }

    // Accept loop.
    {
        let inner = Arc::clone(&inner);
        threads.push(std::thread::spawn(move || {
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let inner = Arc::clone(&inner);
                        // Connection threads are detached; they exit when
                        // the peer closes or shutdown flips.
                        std::thread::spawn(move || {
                            let _ = handle_connection(&inner, stream);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        }));
    }

    Ok(ProxyHandle {
        addr,
        inner,
        threads,
    })
}

/// Drop everything the proxy holds for `id`: its verdict has been
/// written.
fn forget(shared: &mut Shared, id: u64) {
    shared.verdicts.remove(&id);
    shared.known.remove(&id);
    shared.terminated.remove(&id);
}

/// Wait (bounded) until `id` has a verdict; returns it. An id that is
/// no longer known had its verdict collected by another GET while this
/// one waited: it gets `Dropped` rather than waiting for shutdown.
fn await_verdict(inner: &Inner, id: u64) -> Verdict {
    let mut shared = inner.state.lock().expect("state");
    loop {
        if let Some(v) = shared.verdicts.get(&id) {
            return *v;
        }
        if inner.shutdown.load(Ordering::SeqCst) || !shared.known.contains(&id) {
            return Verdict::Dropped;
        }
        let (guard, _) = inner
            .wake
            .wait_timeout(shared, Duration::from_millis(100))
            .expect("wait");
        shared = guard;
    }
}

fn handle_connection(inner: &Inner, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true).ok();
    let mut parser = RequestParser::new();
    let mut head_buf = [0u8; HEAD_READ];
    // Lent once a head parses as a payment POST (see the module docs).
    let mut sink: Option<SinkBlock> = None;
    // The id of the payment channel this connection carries, if any.
    let mut paying_for: Option<u64> = None;
    let mut last_byte = inner.now();

    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        // If this is a payment connection whose channel was terminated,
        // close it — that is how the thinner ends the §3.3 channel.
        if let Some(id) = paying_for {
            if inner.state.lock().expect("state").terminated.contains(&id) {
                return Ok(());
            }
        }
        let buf = match sink.as_mut() {
            Some(sink) => &mut sink.block[..],
            None => &mut head_buf[..],
        };
        let n = match stream.read(buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if inner.now().saturating_since(last_byte) >= inner.idle_limit {
                    return Ok(()); // silent peer: see the module docs
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        parser.push(&buf[..n]);
        while let Some(event) = parser
            .next_event()
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad request"))?
        {
            match event {
                ParseEvent::Head(head) => match classify_request(&head) {
                    Ok(ClientMessage::Service(id)) => {
                        serve_get(inner, &mut stream, id)?;
                    }
                    Ok(ClientMessage::Payment(id, _len)) => {
                        paying_for = Some(id);
                        sink.get_or_insert_with(|| inner.sinks.lend());
                    }
                    Err(_) => {
                        let _ = stream.write_all(&encode_dropped());
                        return Ok(());
                    }
                },
                ParseEvent::BodyChunk(nbytes) => {
                    if let Some(id) = paying_for {
                        let mut shared = inner.state.lock().expect("state");
                        shared.payment_bytes += nbytes;
                        inner.with_fe(&mut shared, |fe, now, out| {
                            fe.on_payment(now, key_of(id), nbytes, out)
                        });
                    }
                }
                ParseEvent::Complete => {
                    if let Some(id) = paying_for {
                        // Full POST and no win yet: ask for another.
                        if inner.state.lock().expect("state").terminated.contains(&id) {
                            return Ok(());
                        }
                        stream.write_all(&encode_continue())?;
                    }
                }
            }
        }
        // Taken after the events, not at the read: a GET held for its
        // verdict was the thinner's silence, not the peer's.
        last_byte = inner.now();
    }
}

fn serve_get(inner: &Inner, stream: &mut TcpStream, id: u64) -> std::io::Result<()> {
    let key = key_of(id);
    enum Next {
        Verdict(Verdict),
        Encourage(u64),
        Await,
    }
    let next = {
        let mut shared = inner.state.lock().expect("state");
        if let Some(&v) = shared.verdicts.get(&id) {
            Next::Verdict(v)
        } else if shared.known.insert(id) {
            let mut admitted = false;
            inner.with_fe(&mut shared, |fe, now, out| {
                fe.on_request(now, key, out);
                admitted = out.iter().any(|d| matches!(d, Directive::Admit(_)));
            });
            if admitted {
                Next::Await
            } else {
                let rate = shared
                    .fe
                    .as_ref()
                    .and_then(|fe| fe.going_rate())
                    .unwrap_or(0);
                Next::Encourage(rate)
            }
        } else {
            // Re-poll of a contending/executing request: hold until done.
            Next::Await
        }
    };
    let verdict = match next {
        Next::Encourage(rate) => return stream.write_all(&encode_encourage(rate)),
        Next::Verdict(v) => v,
        Next::Await => await_verdict(inner, id),
    };
    let wire = match verdict {
        Verdict::Served => encode_served(b"<html>ok</html>"),
        Verdict::Dropped => encode_dropped(),
    };
    let written = stream.write_all(&wire);
    forget(&mut inner.state.lock().expect("state"), id);
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{fetch, FetchConfig};
    use speakup_proto::message::encode_payment_head;

    /// Sizes of the three per-request maps once they settle: a fetch
    /// returns as soon as its verdict is read, a moment before the
    /// connection thread that wrote it forgets the id.
    fn retained(proxy: &ProxyHandle) -> (usize, usize, usize) {
        let sizes = || {
            let s = proxy.inner.state.lock().expect("state");
            (s.verdicts.len(), s.known.len(), s.terminated.len())
        };
        for _ in 0..500 {
            if sizes() == (0, 0, 0) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        sizes()
    }

    #[test]
    fn a_written_verdict_is_forgotten() {
        let cfg = |capacity| ProxyConfig {
            capacity,
            seed: 9,
            auction: AuctionConfig {
                channel_timeout: SimDuration::from_secs(5),
            },
        };
        // An idle server: 200 distinct ids, each served on its first GET.
        let proxy = spawn(cfg(2000.0)).expect("spawn");
        for id in 1..=200 {
            let out = fetch(proxy.addr(), id, FetchConfig::default()).expect("fetch");
            assert_eq!(out.verdict, Verdict::Served, "request {id}");
        }
        assert_eq!(proxy.outcomes(), (200, 0));
        assert_eq!(retained(&proxy), (0, 0, 0), "verdicts, known, terminated");
        proxy.shutdown();

        // A held server: request 2 is encouraged, pays, wins (its channel
        // is terminated) and collects its verdict on a second GET.
        let proxy = spawn(cfg(2.0)).expect("spawn");
        let addr = proxy.addr();
        let holder = std::thread::spawn(move || fetch(addr, 1, FetchConfig::default()));
        std::thread::sleep(Duration::from_millis(150));
        let paid = fetch(addr, 2, FetchConfig::default()).expect("fetch");
        assert!(paid.posts >= 1, "request 2 had to pay");
        assert_eq!(paid.verdict, Verdict::Served);
        let held = holder.join().expect("join").expect("fetch");
        assert_eq!(held.verdict, Verdict::Served);
        assert_eq!(retained(&proxy), (0, 0, 0), "verdicts, known, terminated");
        proxy.shutdown();
    }

    /// (idle, lent) sink blocks, once no block is lent or after 5 s: a
    /// fetch returns a moment before the connection thread that read its
    /// payment returns the block.
    fn sink_blocks(proxy: &ProxyHandle) -> (usize, usize) {
        let pool = &proxy.inner.sinks;
        let counts = || {
            let idle = pool.idle.lock().expect("sink pool").len();
            (idle, pool.lent.load(Ordering::Relaxed))
        };
        for _ in 0..500 {
            if counts().1 == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        counts()
    }

    #[test]
    fn sink_blocks_are_lent_per_payment_channel_and_pooled_up_to_the_cap() {
        let proxy = spawn(ProxyConfig {
            capacity: 50.0,
            seed: 5,
            auction: AuctionConfig {
                channel_timeout: SimDuration::from_secs(5),
            },
        })
        .expect("spawn");
        let addr = proxy.addr();

        // More payment channels open at once than the pool keeps idle,
        // beside a GET, which reads through its head buffer only.
        let open = SINK_POOL_IDLE + 3;
        let payers: Vec<TcpStream> = (0..open as u64)
            .map(|i| {
                let mut pay = TcpStream::connect(addr).expect("connect");
                pay.write_all(&encode_payment_head(1_000 + i, 1 << 20))
                    .expect("POST head");
                pay
            })
            .collect();
        let served = fetch(addr, 999, FetchConfig::default()).expect("fetch");
        assert_eq!((served.verdict, served.posts), (Verdict::Served, 0));
        let lent = || proxy.inner.sinks.lent.load(Ordering::Relaxed);
        for _ in 0..500 {
            if lent() == open {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            lent(),
            open,
            "one block per payment channel, none for the GET"
        );
        drop(payers);
        assert_eq!(sink_blocks(&proxy), (SINK_POOL_IDLE, 0), "(idle, lent)");

        // Rounds of six concurrent fetches, one round after another: the
        // server takes one request per round at once, the rest pay.
        for round in 0..4 {
            let fetches: Vec<_> = (1..=6)
                .map(|i| {
                    std::thread::spawn(move || fetch(addr, round * 10 + i, FetchConfig::default()))
                })
                .collect();
            for f in fetches {
                let out = f.join().expect("join").expect("fetch");
                assert_eq!(out.verdict, Verdict::Served, "round {round}");
            }
        }
        assert!(proxy.payment_bytes() > 0, "contenders paid");
        let (idle, lent) = sink_blocks(&proxy);
        assert!(idle <= SINK_POOL_IDLE, "{idle} idle blocks");
        assert_eq!(lent, 0, "no block outlives its connection");
        proxy.shutdown();
    }
}
