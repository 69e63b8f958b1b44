//! A Reno-style reliable, congestion-controlled transport.
//!
//! A flow is one direction of a connection: a byte stream from `src` to
//! `dst`, segmented into MSS-sized packets, acknowledged cumulatively,
//! with slow start, AIMD congestion avoidance, fast retransmit/recovery
//! (NewReno-style partial-ACK handling), and an RFC 6298 retransmission
//! timer with exponential backoff.
//!
//! A flow has two halves, and each holds only its own side. The
//! [`Sender`] lives at `src`: the written and acknowledged byte counts,
//! the congestion window, the RTT estimate and the retransmission timer.
//! The [`Receiver`] lives at `dst`: the in-order point, the out-of-order
//! ranges and the framing. They meet only through the packets and
//! records the world carries between them, the shape of a go-back-N
//! constructor that hands one end to each node.
//!
//! Applications write *messages* (a byte count plus a tag); the flow
//! delivers the tag to the receiving application exactly when the last
//! in-order byte of the message arrives, giving length-prefixed framing
//! semantics on top of the stream.
//!
//! Framing has one writer. [`Sender::write`] only extends the byte
//! stream; the sender keeps no message boundaries, because nothing on the
//! sending side ever reads them. A boundary `(end, tag)` lives on the
//! receiving side alone, recorded by [`Receiver::note_boundary`]: the
//! engine carries it there as a control record that `Ctx::send` emits
//! beside each write, and pops it when `end` arrives in order.
//! Per-message state is therefore held once, on the half that consumes
//! it.
//!
//! [`Flow`] is the loopback pair `{ tx, rx }` for harnesses that drive
//! both ends by hand: its `write` frames the message on its own
//! receiver, as the engine's boundary record does. The engine never
//! builds one, so a benchmark of the pair runs the code the engine runs.
//!
//! Both halves are pure state machines: every input returns a list of
//! [`FlowAction`]s for the surrounding world to execute (send a packet,
//! arm a timer, deliver a message). This keeps the protocol logic
//! directly unit-testable, in the spirit of event-driven stacks like
//! smoltcp.

mod flow;

pub use flow::{CongestionControl, Flow, FlowAction, FlowConfig, FlowStats, Receiver, Sender};
