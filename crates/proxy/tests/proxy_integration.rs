//! End-to-end tests of the real-socket thinner on loopback.

use speakup_core::thinner::AuctionConfig;
use speakup_net::time::SimDuration;
use speakup_proto::http::parse_response_head;
use speakup_proto::message::{
    classify_response, encode_payment_head, encode_service_request, ThinnerMessage,
};
use speakup_proxy::client::{fetch, FetchConfig};
use speakup_proxy::{spawn, ProxyConfig, Verdict};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn cfg(capacity: f64) -> ProxyConfig {
    ProxyConfig {
        capacity,
        seed: 42,
        auction: AuctionConfig {
            channel_timeout: SimDuration::from_secs(5),
        },
    }
}

#[test]
fn unloaded_server_serves_without_payment() {
    let proxy = spawn(cfg(100.0)).expect("spawn");
    let out = fetch(proxy.addr(), 1, FetchConfig::default()).expect("fetch");
    assert_eq!(out.verdict, Verdict::Served);
    assert_eq!(out.posts, 0, "no payment needed when unloaded");
    assert_eq!(out.payment_bytes, 0);
    let (served, dropped) = proxy.outcomes();
    assert_eq!((served, dropped), (1, 0));
    proxy.shutdown();
}

#[test]
fn sequential_requests_all_served() {
    let proxy = spawn(cfg(50.0)).expect("spawn");
    for id in 1..=5 {
        let out = fetch(proxy.addr(), id, FetchConfig::default()).expect("fetch");
        assert_eq!(out.verdict, Verdict::Served, "request {id}");
    }
    let (served, _) = proxy.outcomes();
    assert_eq!(served, 5);
    proxy.shutdown();
}

#[test]
fn overloaded_server_requires_payment_then_serves() {
    // Slow server: ~1 s per request. The second request must contend.
    let proxy = spawn(cfg(1.0)).expect("spawn");
    let addr = proxy.addr();
    let t1 = std::thread::spawn(move || fetch(addr, 10, FetchConfig::default()).expect("fetch"));
    // Let the first request occupy the server.
    std::thread::sleep(Duration::from_millis(150));
    let t2 = std::thread::spawn(move || fetch(addr, 20, FetchConfig::default()).expect("fetch"));
    let o1 = t1.join().expect("join");
    let o2 = t2.join().expect("join");
    assert_eq!(o1.verdict, Verdict::Served);
    assert_eq!(o2.verdict, Verdict::Served);
    assert!(o2.posts >= 1, "second request had to pay");
    assert!(o2.payment_bytes > 0);
    assert!(proxy.payment_bytes() > 0);
    proxy.shutdown();
}

#[test]
fn higher_payer_wins_the_auction() {
    // Three concurrent contenders with very different payment rates can't
    // be produced deterministically over loopback (both can stream fast),
    // so instead verify the auction outcome indirectly: with two
    // contenders, both get served eventually and the thinner collected
    // payment from both.
    let proxy = spawn(cfg(2.0)).expect("spawn");
    let addr = proxy.addr();
    let workers: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || fetch(addr, 100 + i, FetchConfig::default()).expect("fetch"))
        })
        .collect();
    let outs: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("join"))
        .collect();
    assert!(outs.iter().all(|o| o.verdict == Verdict::Served));
    let (served, dropped) = proxy.outcomes();
    assert_eq!(served, 3);
    assert_eq!(dropped, 0);
    proxy.shutdown();
}

#[test]
fn advertised_going_rate_reaches_clients() {
    let proxy = spawn(cfg(1.0)).expect("spawn");
    let addr = proxy.addr();
    let t1 = std::thread::spawn(move || fetch(addr, 1, FetchConfig::default()));
    std::thread::sleep(Duration::from_millis(150));
    let t2 = std::thread::spawn(move || fetch(addr, 2, FetchConfig::default()));
    let _ = t1.join().expect("join");
    let o2 = t2.join().expect("join").expect("fetch");
    assert!(
        o2.advertised_rate.is_some(),
        "encouraged client sees the going rate header"
    );
    proxy.shutdown();
}

#[test]
fn abandoned_contender_is_dropped_by_idle_timeout() {
    let proxy = spawn(ProxyConfig {
        capacity: 1.0,
        seed: 3,
        auction: AuctionConfig {
            channel_timeout: SimDuration::from_millis(300),
        },
    })
    .expect("spawn");
    let addr = proxy.addr();
    // Occupy the server.
    let t1 = std::thread::spawn(move || fetch(addr, 1, FetchConfig::default()));
    std::thread::sleep(Duration::from_millis(100));
    // Register a contender but never pay: a zero-POST budget.
    let t2 = std::thread::spawn(move || {
        fetch(
            addr,
            2,
            FetchConfig {
                max_posts: 0,
                ..FetchConfig::default()
            },
        )
    });
    let o1 = t1.join().expect("join").expect("fetch");
    let o2 = t2.join().expect("join").expect("fetch");
    assert_eq!(o1.verdict, Verdict::Served);
    assert_eq!(o2.verdict, Verdict::Dropped, "silent contender times out");
    proxy.shutdown();
}

#[test]
fn many_clients_drain() {
    let proxy = spawn(cfg(20.0)).expect("spawn");
    let addr = proxy.addr();
    let workers: Vec<_> = (0..10)
        .map(|i| {
            std::thread::spawn(move || {
                fetch(addr, 1000 + i, FetchConfig::default())
                    .expect("fetch")
                    .verdict
            })
        })
        .collect();
    let served = workers
        .into_iter()
        .map(|w| w.join())
        .filter(|v| matches!(v, Ok(Verdict::Served)))
        .count();
    assert_eq!(served, 10);
    proxy.shutdown();
}

/// Read exactly one response off `stream`; `carry` holds what a read
/// brought in beyond it (the next pipelined response).
fn read_message(stream: &mut TcpStream, carry: &mut Vec<u8>) -> ThinnerMessage {
    loop {
        if let Some((head, consumed)) = parse_response_head(carry).expect("response head") {
            let end = consumed + head.content_length as usize;
            if carry.len() >= end {
                carry.drain(..end);
                return classify_response(&head).expect("speak-up response");
            }
        }
        let mut chunk = [0u8; 512];
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "closed before a full response");
        carry.extend_from_slice(&chunk[..n]);
    }
}

/// Occupy a capacity-1 server (~1 s) with request `id`, and give the
/// holder's connection thread time to reach the front end.
fn hold_server(addr: std::net::SocketAddr, id: u64) -> std::thread::JoinHandle<Verdict> {
    let holder = std::thread::spawn(move || {
        fetch(addr, id, FetchConfig::default())
            .expect("fetch")
            .verdict
    });
    std::thread::sleep(Duration::from_millis(150));
    holder
}

#[test]
fn payment_is_credited_to_the_byte_across_posts() {
    let proxy = spawn(cfg(1.0)).expect("spawn");
    let addr = proxy.addr();
    let holder = hold_server(addr, 1);
    // 100 003 is a multiple of no buffer on the path (the client's
    // 64 KiB writes, the proxy's 4 KiB head and 64 KiB sink reads), so
    // every POST ends mid-buffer.
    let budget = FetchConfig {
        post_bytes: 100_003,
        max_posts: 3,
        ..FetchConfig::default()
    };
    let out = fetch(addr, 2, budget).expect("fetch");
    assert!(out.advertised_rate.is_some(), "the server was held");
    assert_eq!((out.posts, out.payment_bytes), (3, 300_009));
    assert_eq!(proxy.payment_bytes(), 300_009);
    assert_eq!(out.verdict, Verdict::Served, "sole contender wins");
    assert_eq!(holder.join().expect("join"), Verdict::Served);
    proxy.shutdown();
}

#[test]
fn pipelined_posts_are_credited_to_the_byte() {
    let proxy = spawn(cfg(1.0)).expect("spawn");
    let addr = proxy.addr();
    let holder = hold_server(addr, 1);
    let mut get = TcpStream::connect(addr).expect("connect");
    get.write_all(&encode_service_request(2)).expect("GET");
    assert!(matches!(
        read_message(&mut get, &mut Vec::new()),
        ThinnerMessage::Encourage { .. }
    ));

    let mut pay = TcpStream::connect(addr).expect("connect");
    pay.set_nodelay(true).expect("nodelay");
    // Head and the first 600 of 1000 body bytes in one write; then the
    // last 400, the whole next head and the first 50 of its 700 in one.
    let mut first = encode_payment_head(2, 1000).to_vec();
    first.extend_from_slice(&[0x5a; 600]);
    pay.write_all(&first).expect("first write");
    let mut second = vec![0x5a; 400];
    second.extend_from_slice(&encode_payment_head(2, 700));
    second.extend_from_slice(&[0x5a; 50]);
    pay.write_all(&second).expect("second write");
    pay.write_all(&[0x5a; 650]).expect("third write");
    let mut carry = Vec::new();
    for post in 1..=2 {
        assert_eq!(
            read_message(&mut pay, &mut carry),
            ThinnerMessage::Continue,
            "POST {post}"
        );
    }
    assert_eq!(proxy.payment_bytes(), 1700);
    drop((get, pay));
    assert_eq!(holder.join().expect("join"), Verdict::Served);
    proxy.shutdown();
}

#[test]
fn posts_split_across_head_and_sink_reads_are_credited_to_the_byte() {
    const BLOCK: usize = 64 * 1024;
    let proxy = spawn(cfg(1.0)).expect("spawn");
    let addr = proxy.addr();
    let holder = hold_server(addr, 1);
    let mut get = TcpStream::connect(addr).expect("connect");
    get.write_all(&encode_service_request(2)).expect("GET");
    assert!(matches!(
        read_message(&mut get, &mut Vec::new()),
        ThinnerMessage::Encourage { .. }
    ));

    let mut pay = TcpStream::connect(addr).expect("connect");
    pay.set_nodelay(true).expect("nodelay");
    // Body lengths that are multiples of no read size. The first POST
    // goes out head and all but its last byte in one write, so the
    // connection's first read (the 4 KiB head buffer) holds the head and
    // the start of the body, and the rest arrives through the sink
    // block. Its last byte, the whole next head and the first 1000 bytes
    // of that body go out in one write well under a sink block.
    let (first_len, second_len) = (3 * BLOCK + 1, 2 * BLOCK + 777);
    let mut first = encode_payment_head(2, first_len as u64).to_vec();
    first.resize(first.len() + first_len - 1, 0);
    pay.write_all(&first).expect("first POST");
    let mut pipelined = vec![0];
    pipelined.extend_from_slice(&encode_payment_head(2, second_len as u64));
    pipelined.resize(pipelined.len() + 1000, 0);
    pay.write_all(&pipelined).expect("pipelined head");
    pay.write_all(&vec![0; second_len - 1000])
        .expect("second body");
    let mut carry = Vec::new();
    for post in 1..=2 {
        assert_eq!(
            read_message(&mut pay, &mut carry),
            ThinnerMessage::Continue,
            "POST {post}"
        );
    }
    assert_eq!(proxy.payment_bytes(), (first_len + second_len) as u64);
    drop((get, pay));
    assert_eq!(holder.join().expect("join"), Verdict::Served);
    proxy.shutdown();
}

#[test]
fn silent_peers_are_closed_at_the_idle_deadline() {
    let proxy = spawn(ProxyConfig {
        capacity: 100.0,
        seed: 7,
        auction: AuctionConfig {
            channel_timeout: SimDuration::from_millis(300),
        },
    })
    .expect("spawn");
    let addr = proxy.addr();
    let mut mute = TcpStream::connect(addr).expect("connect");
    let mut half = TcpStream::connect(addr).expect("connect");
    half.write_all(b"GET /serv").expect("half a request line");
    // A well-behaved client is served while the two sit there.
    let out = fetch(addr, 1, FetchConfig::default()).expect("fetch");
    assert_eq!(out.verdict, Verdict::Served);
    // EOF, not a time-out: the proxy hung up within the 2 s each read waits.
    for (peer, name) in [(&mut mute, "mute"), (&mut half, "half a head")] {
        peer.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let got = peer.read(&mut [0u8; 16]);
        assert!(matches!(got, Ok(0)), "{name}: expected EOF, got {got:?}");
    }
    let out = fetch(addr, 2, FetchConfig::default()).expect("fetch");
    assert_eq!(out.verdict, Verdict::Served);
    proxy.shutdown();
}
