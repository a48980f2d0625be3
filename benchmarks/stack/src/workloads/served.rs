//! What the two served workloads and the serve/cluster probes share: the
//! `D1` artifacts, booting shards and routers over them, a raw `PFRM`
//! client whose encode / round trip / decode are separate spans, and the
//! loopback echo that measures the kernel floor.

use crate::fixtures::{self, config, Sizes};
use crate::harness::{Answer, Phases};
use crate::trace;
use crate::workloads::live_repair::REPAIR;
use pitex_cluster::{Router, RouterHandle, RouterOptions, ShardMap};
use pitex_core::{EngineBackend, EngineHandle, PitexEngine, PitexResult};
use pitex_index::serial::{rr_index_from_bytes, rr_index_to_bytes};
use pitex_index::RrIndex;
use pitex_model::TicModel;
use pitex_serve::frame::{self, FrameBuf, WireReply, MAX_REPLY_FRAME_BYTES};
use pitex_serve::{QueryRequest, Request, Response, ServeOptions, Server, ServerHandle};
use pitex_support::obs::CaptureOptions;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The `D1` model and index as the bytes `pitex index` writes: the
/// untimed input of the served workloads (a deployment is handed them).
pub struct Artifacts {
    pub model: Vec<u8>,
    pub index: Vec<u8>,
}

pub fn artifacts(sizes: &Sizes) -> Artifacts {
    let model = fixtures::d1_profile(sizes).generate();
    let index = fixtures::build_index(&model);
    Artifacts { model: pitex_model::serial::to_bytes(&model), index: rr_index_to_bytes(&index) }
}

/// The decoded snapshots every shard of a run shares.
#[derive(Clone)]
pub struct Decoded {
    pub model: Arc<TicModel>,
    pub index: Arc<RrIndex>,
}

pub fn decode(artifacts: &Artifacts, phases: &mut Phases) -> Decoded {
    let model = phases.time("model.decode", || {
        pitex_model::serial::from_bytes(&artifacts.model).expect("the harness encoded this model")
    });
    let index = phases.time("index.decode", || {
        rr_index_from_bytes(&artifacts.index).expect("the harness encoded this index")
    });
    Decoded { model: Arc::new(model), index: Arc::new(index) }
}

impl Decoded {
    /// The in-process answer a served reply must equal.
    pub fn query(&self, user: u32, k: usize) -> PitexResult {
        PitexEngine::with_index_plus(&self.model, &self.index, config()).query(user, k)
    }
}

/// A shard server; stops and joins its threads when dropped.
pub struct Shard(Option<ServerHandle>);

impl Shard {
    /// One worker, the event loop on, INDEXEST+ over the shared snapshots.
    pub fn boot(decoded: &Decoded, cache_capacity: usize) -> Shard {
        let handle = EngineHandle::with_indexes(
            Arc::clone(&decoded.model),
            EngineBackend::IndexEstPlus,
            Some(Arc::clone(&decoded.index)),
            None,
            config(),
        )
        .expect("the index is provided");
        let options = ServeOptions {
            workers: 1,
            cache_capacity,
            repair: REPAIR,
            capture: Some(CaptureOptions::default()),
            event_loop: Some(true),
            ..ServeOptions::default()
        };
        Shard(Some(Server::spawn(handle, ("127.0.0.1", 0), options).expect("loopback bind")))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running until dropped").addr()
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            // A server-thread panic has already failed the ops it served.
            let _ = handle.stop();
        }
    }
}

/// A router over `shards` (one replica each); stops when dropped.
pub struct Front(Option<RouterHandle>);

impl Front {
    pub fn boot(shards: &[&Shard]) -> Front {
        let map = ShardMap::new(shards.iter().map(|s| vec![s.addr().to_string()]).collect())
            .expect("a non-empty shard list");
        let options = RouterOptions {
            // The prober only re-PINGs replicas marked down; none ever is.
            probe_interval: Duration::from_secs(3600),
            capture: Some(CaptureOptions::default()),
            ..RouterOptions::default()
        };
        Front(Some(Router::spawn(map, ("127.0.0.1", 0), options).expect("loopback bind")))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running until dropped").addr()
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            let _ = handle.stop();
        }
    }
}

/// Turns a reply into the op's answer, insisting on the cache outcome the
/// workload is built around.
pub fn expect_reply(response: Response, want_cached: bool) -> Result<Answer, String> {
    match response {
        Response::Ok(reply) if reply.cached == want_cached => {
            Ok(Answer::new(&reply.tags, reply.spread))
        }
        Response::Ok(reply) => Err(format!("user {}: cached={}", reply.user, reply.cached)),
        other => Err(format!("{other:?}")),
    }
}

/// A `PFRM` client over a bare socket: what `ServeClient` does, cut into
/// the three spans the ledger wants.
pub struct RawClient {
    stream: TcpStream,
    frames: FrameBuf,
    next_id: u64,
}

impl RawClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, frames: FrameBuf::new(MAX_REPLY_FRAME_BYTES), next_id: 1 })
    }

    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = {
            let _span = trace::enter("encode");
            frame::encode_request(id, request)
        };
        let payload = {
            let _span = trace::enter("rtt");
            self.stream.write_all(&bytes).map_err(|e| e.to_string())?;
            loop {
                if let Some(payload) = self.frames.next_payload().map_err(|e| e.to_string())? {
                    break payload;
                }
                let mut chunk = [0u8; 4096];
                match self.stream.read(&mut chunk) {
                    Ok(0) => return Err("server closed the connection".to_string()),
                    Ok(n) => self.frames.extend(&chunk[..n]),
                    Err(e) => return Err(e.to_string()),
                }
            }
        };
        let _span = trace::enter("decode");
        match frame::decode_response(&payload).map_err(|e| e.to_string())? {
            (got, WireReply::Response(response)) if got == id => Ok(response),
            (got, _) => Err(format!("reply id {got}, expected {id}")),
        }
    }

    pub fn query(&mut self, user: u32, k: usize) -> Result<Response, String> {
        self.request(&Request::Query(QueryRequest::new(user, k)))
    }
}

/// A loopback echo peer on the harness's own thread: the round trip a
/// request frame's bytes cost with no server behind them — two socket
/// writes, two reads, two wake-ups. Joined when dropped.
pub struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

/// Bytes per echo message: a `QUERY u k` request frame is 29.
const ECHO_BYTES: usize = 32;

impl Echo {
    pub fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else { return };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; ECHO_BYTES];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, thread: Some(thread) })
    }

    pub fn roundtrip(&mut self) -> std::io::Result<()> {
        let mut buf = [0x5au8; ECHO_BYTES];
        self.stream.write_all(&buf)?;
        self.stream.read_exact(&mut buf)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // Closing our end makes the peer's `read_exact` fail and its loop end.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
