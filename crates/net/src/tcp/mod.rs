//! A Reno-style reliable, congestion-controlled transport.
//!
//! Each [`Flow`] is one direction of a connection: a byte stream from
//! `src` to `dst`, segmented into MSS-sized packets, acknowledged
//! cumulatively, with slow start, AIMD congestion avoidance, fast
//! retransmit/recovery (NewReno-style partial-ACK handling), and an
//! RFC 6298 retransmission timer with exponential backoff.
//!
//! Applications write *messages* (a byte count plus a tag); the flow
//! delivers the tag to the receiving application exactly when the last
//! in-order byte of the message arrives, giving length-prefixed framing
//! semantics on top of the stream.
//!
//! Framing has one writer. [`Flow::write`] only extends the byte stream;
//! the sender keeps no message boundaries, because nothing on the
//! sending side ever reads them. A boundary `(end, tag)` lives on the
//! receiving side alone, recorded by [`Flow::note_boundary`]: the engine
//! carries it there as a control record that `Ctx::send` emits beside
//! each write, and pops it when `end` arrives in order. Per-message
//! state is therefore held once, on the half that consumes it.
//!
//! The flow is a pure state machine: every input returns a list of
//! [`FlowAction`]s for the surrounding world to execute (send a packet, arm
//! a timer, deliver a message). This keeps the protocol logic directly
//! unit-testable, in the spirit of event-driven stacks like smoltcp.

mod flow;

pub use flow::{CongestionControl, Flow, FlowAction, FlowConfig, FlowStats};
