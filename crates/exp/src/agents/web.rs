//! Fig 9's bystanders: a plain Web server and a `wget`-style client that
//! repeatedly downloads a file while speak-up payment traffic crowds the
//! shared bottleneck link.

use crate::tags::{pack, sizes, unpack, Kind};
use speakup_core::types::RequestId;
use speakup_net::packet::{FlowId, NodeId};
use speakup_net::sim::{App, Ctx};
use speakup_net::time::{SimDuration, SimTime};
use speakup_net::trace::Samples;
use std::collections::BTreeMap;

const TOKEN_NEXT: u64 = u64::MAX;

/// A web server that answers [`Kind::FileRequest`] with a file of the
/// configured size on a fresh flow back to the requester.
pub struct WebServerAgent {
    file_bytes: u64,
}

impl WebServerAgent {
    /// Serve files of `file_bytes` each.
    pub fn new(file_bytes: u64) -> Self {
        WebServerAgent { file_bytes }
    }
}

impl App for WebServerAgent {
    fn on_message(&mut self, ctx: &mut Ctx, flow: FlowId, tag: u64) {
        let (kind, id) = unpack(tag);
        if kind != Kind::FileRequest {
            return;
        }
        let requester = ctx.receiver(flow).src;
        let f = ctx.open_default_flow(requester);
        ctx.send(f, self.file_bytes, pack(Kind::FileResponse, id));
    }
}

/// A sequential downloader: request file, wait for the full response,
/// record the end-to-end latency, immediately request again — matching
/// the paper's `wget` loop of 100 downloads per configuration.
pub struct WgetAgent {
    server: NodeId,
    max_downloads: u64,
    up_flow: Option<FlowId>,
    next_id: u64,
    started_at: BTreeMap<RequestId, SimTime>,
    /// Download latencies, seconds.
    pub latencies: Samples,
    /// Gap between downloads (0 = immediately).
    pub think_time: SimDuration,
}

impl WgetAgent {
    /// Download from `server` up to `max_downloads` times.
    pub fn new(server: NodeId, max_downloads: u64) -> Self {
        WgetAgent {
            server,
            max_downloads,
            up_flow: None,
            next_id: 0,
            started_at: BTreeMap::new(),
            latencies: Samples::new(),
            think_time: SimDuration::ZERO,
        }
    }

    fn fetch(&mut self, ctx: &mut Ctx) {
        if self.next_id >= self.max_downloads {
            return;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let up = self.up_flow.expect("fetch before start");
        self.started_at.insert(id, ctx.now());
        ctx.send(up, sizes::FILE_REQUEST, pack(Kind::FileRequest, id));
    }
}

impl App for WgetAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        self.up_flow = Some(ctx.open_default_flow(self.server));
        self.fetch(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx, _flow: FlowId, tag: u64) {
        let (kind, id) = unpack(tag);
        if kind != Kind::FileResponse {
            return;
        }
        if let Some(t0) = self.started_at.remove(&id) {
            self.latencies
                .push(ctx.now().saturating_since(t0).as_secs_f64());
        }
        if self.think_time == SimDuration::ZERO {
            self.fetch(ctx);
        } else {
            ctx.set_timer(self.think_time, TOKEN_NEXT);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token == TOKEN_NEXT {
            self.fetch(ctx);
        }
    }
}
