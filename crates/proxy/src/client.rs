//! A speak-up client over real sockets: the §6 browser loop in Rust.
//!
//! `fetch` performs the full exchange against a [`crate::spawn`]ed proxy:
//! GET the service URL; on encouragement, stream dummy-byte POSTs until
//! the thinner terminates the channel (auction won) or the configured
//! POST budget runs out; then re-GET to collect the verdict.

use crate::Verdict;
use speakup_proto::http::parse_response_head;
use speakup_proto::message::{
    classify_response, encode_payment_head, encode_service_request, ThinnerMessage,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The bytes every POST body is written from, one `write_all` of up to
/// this block at a time. Payment bytes are dummy by design (§3.3), so one
/// zero-filled block serves every payer.
static PAYMENT_BLOCK: [u8; 64 * 1024] = [0; 64 * 1024];

/// What one [`fetch`] did.
#[derive(Clone, Copy, Debug)]
pub struct FetchOutcome {
    /// Final verdict.
    pub verdict: Verdict,
    /// Payment POSTs started.
    pub posts: u32,
    /// Dummy bytes written to the payment channel.
    pub payment_bytes: u64,
    /// The going rate the thinner advertised at encouragement, if any.
    pub advertised_rate: Option<u64>,
}

/// Client knobs.
#[derive(Clone, Copy, Debug)]
pub struct FetchConfig {
    /// Bytes per POST (the prototype uses 1 MB; tests use less).
    pub post_bytes: u64,
    /// Give up after this many POSTs without winning.
    pub max_posts: u32,
    /// Socket timeout for reads while awaiting verdicts.
    pub read_timeout: Duration,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig {
            post_bytes: 64 * 1024,
            max_posts: 64,
            read_timeout: Duration::from_secs(30),
        }
    }
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<ThinnerMessage> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((head, consumed)) = parse_response_head(&buf)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response"))?
        {
            // Drain the body.
            let have = (buf.len() - consumed) as u64;
            let mut remaining = head.content_length.saturating_sub(have);
            while remaining > 0 {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    break;
                }
                remaining = remaining.saturating_sub(n as u64);
            }
            return classify_response(&head)
                .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "not speakup"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed before response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn get_service(addr: SocketAddr, id: u64, timeout: Duration) -> std::io::Result<ThinnerMessage> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(timeout))?;
    s.set_nodelay(true).ok();
    s.write_all(&encode_service_request(id))?;
    read_response(&mut s)
}

/// Run one speak-up request to completion. See module docs.
pub fn fetch(addr: SocketAddr, id: u64, cfg: FetchConfig) -> std::io::Result<FetchOutcome> {
    let mut outcome = FetchOutcome {
        verdict: Verdict::Dropped,
        posts: 0,
        payment_bytes: 0,
        advertised_rate: None,
    };
    match get_service(addr, id, cfg.read_timeout)? {
        ThinnerMessage::Served => {
            outcome.verdict = Verdict::Served;
            return Ok(outcome);
        }
        ThinnerMessage::Dropped => return Ok(outcome),
        ThinnerMessage::Encourage { going_rate } => {
            outcome.advertised_rate = Some(going_rate);
        }
        ThinnerMessage::Continue => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "continue without payment",
            ))
        }
    }

    // Payment loop: POST until the thinner closes the channel (we won)
    // or the budget runs out.
    let mut pay = TcpStream::connect(addr)?;
    pay.set_read_timeout(Some(cfg.read_timeout))?;
    pay.set_nodelay(true).ok();
    'posts: while outcome.posts < cfg.max_posts {
        outcome.posts += 1;
        if pay
            .write_all(&encode_payment_head(id, cfg.post_bytes))
            .is_err()
        {
            break 'posts; // channel terminated mid-exchange
        }
        let mut remaining = cfg.post_bytes;
        while remaining > 0 {
            let n = remaining.min(PAYMENT_BLOCK.len() as u64) as usize;
            match pay.write_all(&PAYMENT_BLOCK[..n]) {
                Ok(()) => {
                    outcome.payment_bytes += n as u64;
                    remaining -= n as u64;
                }
                Err(_) => break 'posts, // terminated: we (probably) won
            }
        }
        // Full POST delivered; the thinner says continue or closes.
        match read_response(&mut pay) {
            Ok(ThinnerMessage::Continue) => continue,
            Ok(_) | Err(_) => break 'posts,
        }
    }
    drop(pay);

    // Collect the verdict.
    match get_service(addr, id, cfg.read_timeout)? {
        ThinnerMessage::Served => outcome.verdict = Verdict::Served,
        ThinnerMessage::Dropped => outcome.verdict = Verdict::Dropped,
        // Still contending (e.g. budget exhausted): report as dropped.
        ThinnerMessage::Encourage { .. } | ThinnerMessage::Continue => {}
    }
    Ok(outcome)
}
