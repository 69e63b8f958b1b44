//! Property tests for the HTTP parser: arbitrary TCP segmentation of a
//! valid request stream must never change the parsed result — the exact
//! invariant the thinner relies on when counting payment bytes that
//! arrive in arbitrary-sized reads.

use bytes::BytesMut;
use proptest::prelude::*;
use speakup_proto::http::{ParseEvent, RequestParser};
use speakup_proto::message::{encode_payment_head, encode_service_request};

/// A digest of a parse: (heads, total body bytes, completes).
///
/// Also asserts, each time the events following a push are drained, that
/// the parser stores head bytes only: at most one incomplete head
/// (8 KiB), and nothing while this digest's own count says a body still
/// has bytes to come.
fn digest(wire: &[u8], cuts: &[usize]) -> (Vec<String>, u64, usize) {
    let mut parser = RequestParser::new();
    let mut heads = Vec::new();
    let mut body = 0u64;
    let mut completes = 0usize;
    let mut body_left = 0u64;
    let mut consume = |parser: &mut RequestParser| {
        while let Some(ev) = parser.next_event().expect("valid stream") {
            match ev {
                ParseEvent::Head(h) => {
                    body_left = h.content_length;
                    heads.push(format!("{:?} {}", h.method, h.target));
                }
                ParseEvent::BodyChunk(n) => {
                    body_left -= n;
                    body += n;
                }
                ParseEvent::Complete => completes += 1,
            }
        }
        assert!(parser.buffered() <= 8 * 1024, "more than a head buffered");
        if body_left > 0 {
            assert_eq!(parser.buffered(), 0, "body bytes buffered mid-body");
        }
    };
    let mut at = 0usize;
    for &cut in cuts {
        let cut = cut % (wire.len() + 1);
        let (lo, hi) = (at.min(cut), at.max(cut));
        // Feed [at..cut] if it moves forward; otherwise skip (the sorted
        // positions below make this always forward).
        let _ = (lo, hi);
        if cut > at {
            parser.push(&wire[at..cut]);
            consume(&mut parser);
            at = cut;
        }
    }
    if at < wire.len() {
        parser.push(&wire[at..]);
        consume(&mut parser);
    }
    (heads, body, completes)
}

/// Build a pipelined stream of service requests and payment POSTs.
fn build_stream(ids: &[(u64, u16)]) -> Vec<u8> {
    let mut wire = BytesMut::new();
    for &(id, body_len) in ids {
        if body_len == 0 {
            wire.extend_from_slice(&encode_service_request(id));
        } else {
            wire.extend_from_slice(&encode_payment_head(id, body_len as u64));
            wire.extend_from_slice(&vec![0xA5u8; body_len as usize]);
        }
    }
    wire.to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn segmentation_never_changes_the_parse(
        ids in proptest::collection::vec((0u64..1_000_000, 0u16..4096), 1..8),
        mut cuts in proptest::collection::vec(0usize..100_000, 0..64),
    ) {
        let wire = build_stream(&ids);
        cuts.sort_unstable();
        let whole = digest(&wire, &[]);
        let pieces = digest(&wire, &cuts);
        prop_assert_eq!(&whole, &pieces, "segmentation changed the parse");
        // And the parse itself matches what we encoded.
        let total_body: u64 = ids.iter().map(|&(_, b)| b as u64).sum();
        prop_assert_eq!(whole.1, total_body);
        prop_assert_eq!(whole.0.len(), ids.len());
        prop_assert_eq!(whole.2, ids.len());
    }

    #[test]
    fn byte_by_byte_equals_one_shot(
        id in 0u64..1_000_000,
        body_len in 0u16..2048,
    ) {
        let wire = build_stream(&[(id, body_len)]);
        let cuts: Vec<usize> = (1..wire.len()).collect();
        let whole = digest(&wire, &[]);
        let trickled = digest(&wire, &cuts);
        prop_assert_eq!(whole, trickled);
    }
}
