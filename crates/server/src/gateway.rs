//! The multi-tenant TCP gateway: authenticates tenants, namespaces their
//! requests, and feeds one shared [`ConcurrentEngine`].
//!
//! One [`Server`] owns one engine and hosts many tenants. Each accepted
//! connection must open with a [`Frame::Hello`] naming a registered
//! tenant and presenting its token; the gateway answers with
//! [`Frame::Welcome`] and from then on serves [`Frame::Batch`]es.
//!
//! ## Isolation, in three layers
//!
//! 1. **Namespacing.** Client requests speak tenant-local keys and
//!    subject ids; the gateway rewrites them into the tenant's block of
//!    the shared keyspace ([`TenantId::global_key`] /
//!    [`TenantId::global_subject`]) on the way in and rewrites reply keys
//!    back on the way out, so no tenant ever *sees* a global id.
//! 2. **Engine scoping.** Every batch executes under a
//!    [`Session`] carrying the tenant's [`TenantId::key_range`]: the
//!    engine itself denies key-addressed requests outside the block and
//!    filters metadata scans to it — a compromised or buggy gateway
//!    rewrite cannot reach across tenants.
//! 3. **Grounding.** The engine's subject registry records which tenant
//!    each subject belongs to, so
//!    [`compliance_report`](datacase_engine::frontend::Frontend::compliance_report)
//!    checks the `TenantIsolation` invariant (X) over the final state,
//!    history, and audit records.
//!
//! ## Resource protection
//!
//! Every connection is served under [`GatewayLimits`]: a whole-frame
//! read deadline (a slow-loris client dribbling bytes cannot hold a
//! thread past it), a write timeout (a client that stops draining its
//! socket cannot park a reply), and a server-wide bound on concurrently
//! executing batches (past it the gateway load-sheds with an
//! `overloaded` protocol error instead of queueing). All refusals are
//! typed [`WireError`]s or [`Frame::ProtocolError`] replies — a hostile
//! client can never panic the gateway.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datacase_core::tenant::TenantId;
use datacase_engine::concurrent::{ConcurrentEngine, EngineHandle};
use datacase_engine::error::EngineError;
use datacase_engine::frontend::{Frontend, Request, Response, Session};
use datacase_engine::profiles::EngineConfig;
use datacase_engine::Actor;
use datacase_workloads::MetaSelector;

use crate::wire::{read_frame_raw, write_frame, Frame, WireError};

/// A tenant as registered with the gateway: its wire name and
/// shared-secret token. Tenant ids are assigned at registration order,
/// starting from 1 (tenant 0 is the default/unserved tenant).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Name the tenant presents in its handshake.
    pub name: String,
    /// Shared-secret token the handshake must match.
    pub token: String,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(name: &str, token: &str) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            token: token.into(),
        }
    }
}

struct Registered {
    id: TenantId,
    token: String,
}

/// Resource-protection limits for served connections. Every limit is
/// enforced with a typed [`WireError`] or a [`Frame::ProtocolError`] —
/// never a panic — so a hostile or broken client can only ever cost the
/// gateway one bounded connection.
#[derive(Clone, Copy, Debug)]
pub struct GatewayLimits {
    /// Whole-frame read deadline. The clock starts when the gateway
    /// begins waiting for a frame and covers every byte of it, so a
    /// slow-loris client dribbling one byte per almost-timeout still
    /// trips it: the *frame* must finish inside the window, not each
    /// read. Also bounds shutdown — an idle connection unblocks within
    /// one deadline of the listener stopping.
    pub read_timeout: Duration,
    /// Per-write timeout on replies; a client that stops draining its
    /// socket loses the connection instead of parking the thread.
    pub write_timeout: Duration,
    /// Server-wide bound on concurrently executing [`Frame::Batch`]es.
    /// Past it the gateway answers `overloaded` instead of queueing —
    /// the refusal is non-fatal and the client may retry on the same
    /// connection.
    pub max_in_flight_frames: usize,
}

impl Default for GatewayLimits {
    fn default() -> GatewayLimits {
        GatewayLimits {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_in_flight_frames: 1024,
        }
    }
}

/// Server-wide count of batches currently executing in the engine.
/// Admission is try-acquire: past the bound the batch is refused, never
/// queued, so the gate cannot itself become a place to park threads.
struct InFlightGate {
    max: usize,
    in_flight: Mutex<usize>,
}

impl InFlightGate {
    fn new(max: usize) -> Arc<InFlightGate> {
        Arc::new(InFlightGate {
            max,
            in_flight: Mutex::new(0),
        })
    }

    fn try_acquire(self: &Arc<InFlightGate>) -> Option<InFlightPermit> {
        let mut n = self.in_flight.lock().expect("in-flight gate");
        if *n >= self.max {
            return None;
        }
        *n += 1;
        Some(InFlightPermit {
            gate: Arc::clone(self),
        })
    }
}

/// One admitted batch; releases its slot on drop (including on the
/// error paths out of the serve loop).
struct InFlightPermit {
    gate: Arc<InFlightGate>,
}

impl Drop for InFlightPermit {
    fn drop(&mut self) {
        *self.gate.in_flight.lock().expect("in-flight gate") -= 1;
    }
}

/// A [`Read`] adapter holding the whole read to one fixed deadline: each
/// underlying read gets only the *remaining* window via
/// `set_read_timeout`, so the total wait is bounded no matter how many
/// one-byte instalments the peer sends.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    timed_out: bool,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        if now >= self.deadline {
            self.timed_out = true;
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "frame read deadline exceeded",
            ));
        }
        self.stream.set_read_timeout(Some(self.deadline - now))?;
        match (&mut &*self.stream).read(buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                self.timed_out = true;
                Err(e)
            }
            other => other,
        }
    }
}

/// Read one raw frame with the whole frame held to `timeout`. Deadline
/// expiry surfaces as the typed [`WireError::Timeout`] instead of a
/// generic transport error.
fn read_frame_deadline(stream: &TcpStream, timeout: Duration) -> Result<(u8, Vec<u8>), WireError> {
    let mut guarded = DeadlineStream {
        stream,
        deadline: Instant::now() + timeout,
        timed_out: false,
    };
    match read_frame_raw(&mut guarded) {
        Err(WireError::Io(_)) if guarded.timed_out => Err(WireError::Timeout),
        other => other,
    }
}

/// The running gateway: accept loop + one thread per connection, all
/// feeding cloneable [`EngineHandle`]s of one shared engine.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    /// Threads of connections not yet known to have finished.
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Set when a joined connection thread had panicked.
    panicked: Arc<AtomicBool>,
    engine: ConcurrentEngine,
}

impl Server {
    /// Bind a loopback listener, spin up `shards` engine shards of
    /// `config`, and start serving the given tenants under
    /// [`GatewayLimits::default`]. Returns once the listener is
    /// accepting.
    pub fn spawn(config: EngineConfig, shards: usize, tenants: &[TenantSpec]) -> Server {
        Server::spawn_with_limits(config, shards, tenants, GatewayLimits::default())
    }

    /// [`Server::spawn`] with explicit connection-protection limits.
    pub fn spawn_with_limits(
        config: EngineConfig,
        shards: usize,
        tenants: &[TenantSpec],
        limits: GatewayLimits,
    ) -> Server {
        let engine = ConcurrentEngine::new(config, shards);
        let mut registry: HashMap<String, Registered> = HashMap::new();
        for (i, spec) in tenants.iter().enumerate() {
            registry.insert(
                spec.name.clone(),
                Registered {
                    id: TenantId(i as u32 + 1),
                    token: spec.token.clone(),
                },
            );
        }
        let registry = Arc::new(registry);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let panicked = Arc::new(AtomicBool::new(false));
        let gate = InFlightGate::new(limits.max_in_flight_frames);
        let accept = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let panicked = Arc::clone(&panicked);
            let handle = engine.handle();
            let shards = engine.shards() as u16;
            std::thread::Builder::new()
                .name("datacase-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let registry = Arc::clone(&registry);
                        let handle = handle.clone();
                        let gate = Arc::clone(&gate);
                        let conn = std::thread::Builder::new()
                            .name("datacase-conn".into())
                            .spawn(move || {
                                serve_connection(stream, &registry, handle, shards, limits, &gate)
                            })
                            .expect("spawn connection thread");
                        let mut running = connections.lock().expect("connection list");
                        reap(&mut running, &panicked);
                        running.push(conn);
                    }
                })
                .expect("spawn accept thread")
        };
        Server {
            addr,
            stop,
            accept: Some(accept),
            connections,
            panicked,
            engine,
        }
    }

    /// The address the gateway is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A direct in-process submission port into the shared engine,
    /// bypassing the wire and the gateway. Its one caller is the server
    /// integration test that holds engine scoping even for a raw handle:
    /// a tenant-scoped session cannot reach another tenant's keys.
    pub fn engine_handle(&self) -> EngineHandle {
        self.engine.handle()
    }

    /// Graceful shutdown: stop accepting, drain every in-flight
    /// connection (each is served until its client closes, says goodbye,
    /// or sits idle past the read deadline — an idle client cannot pin
    /// shutdown), then drain and join the engine's shard workers. Returns
    /// the per-shard [`Frontend`]s for forensics, chain verification, and
    /// compliance checks.
    pub fn shutdown(mut self) -> Vec<Frontend> {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread panicked");
        }
        let connections = std::mem::take(&mut *self.connections.lock().expect("connection list"));
        for conn in connections {
            if conn.join().is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
        }
        assert!(
            !self.panicked.load(Ordering::SeqCst),
            "connection thread panicked"
        );
        self.engine.shutdown()
    }
}

/// Join the connection threads that have finished, so a long-lived server
/// holds one handle per open connection rather than one per connection
/// it ever accepted. A panic is kept in `panicked` for
/// [`Server::shutdown`] to report.
fn reap(running: &mut Vec<JoinHandle<()>>, panicked: &AtomicBool) {
    for done in running.extract_if(.., |conn| conn.is_finished()) {
        if done.join().is_err() {
            panicked.store(true, Ordering::SeqCst);
        }
    }
}

/// Serve one authenticated connection until EOF, goodbye, a fatal
/// protocol error, or a blown [`GatewayLimits`] deadline. Never panics
/// on malformed input: payload-level decode failures are answered with
/// [`Frame::ProtocolError`] and the stream continues at the next frame
/// boundary; deadline and overload refusals are typed, and only the
/// deadline one closes the connection.
fn serve_connection(
    mut stream: TcpStream,
    registry: &HashMap<String, Registered>,
    handle: EngineHandle,
    shards: u16,
    limits: GatewayLimits,
    gate: &Arc<InFlightGate>,
) {
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(limits.write_timeout)).ok();
    // --- Handshake ---
    let hello = match read_frame_deadline(&stream, limits.read_timeout)
        .and_then(|(frame_type, payload)| Frame::decode(frame_type, &payload))
    {
        Ok(frame) => frame,
        Err(_) => return,
    };
    let (tenant, actor) = match hello {
        Frame::Hello {
            tenant,
            token,
            actor,
        } => match registry.get(&tenant) {
            // Constant-time token check: an early-exit `==` on the shared
            // secret would let a remote peer walk the token byte by byte
            // off response timing.
            Some(reg) if datacase_crypto::ct_eq(reg.token.as_bytes(), token.as_bytes()) => {
                (reg.id, actor)
            }
            _ => {
                let _ = write_frame(
                    &mut stream,
                    &Frame::ProtocolError {
                        code: "unauthorized".into(),
                        detail: "unknown tenant or bad token".into(),
                    },
                );
                return;
            }
        },
        _ => {
            let _ = write_frame(
                &mut stream,
                &Frame::ProtocolError {
                    code: "handshake".into(),
                    detail: "expected a Hello frame".into(),
                },
            );
            return;
        }
    };
    if write_frame(
        &mut stream,
        &Frame::Welcome {
            tenant_id: tenant.0,
            shards,
        },
    )
    .is_err()
    {
        return;
    }
    // --- Serve batches ---
    let session = Session::new(actor).scoped(tenant.key_range());
    loop {
        let frame = match read_frame_deadline(&stream, limits.read_timeout) {
            Ok((frame_type, payload)) => match Frame::decode(frame_type, &payload) {
                Ok(frame) => frame,
                Err(err) if !err.is_fatal() => {
                    // The length prefix consumed the bad frame; report and
                    // keep serving from the next boundary.
                    if reply_protocol_error(&mut stream, &err).is_err() {
                        return;
                    }
                    continue;
                }
                Err(err) => {
                    let _ = reply_protocol_error(&mut stream, &err);
                    return;
                }
            },
            // A blown deadline is reported (best effort — the write is
            // itself bounded) before the connection closes, so an honest
            // but stalled client learns why it was dropped.
            Err(err @ WireError::Timeout) => {
                let _ = reply_protocol_error(&mut stream, &err);
                return;
            }
            // EOF and header-level corruption both end the connection.
            Err(_) => return,
        };
        match frame {
            Frame::Batch(local) => {
                let Some(_permit) = gate.try_acquire() else {
                    // Load-shed instead of queueing: the refusal is
                    // non-fatal and the client may retry on this same
                    // connection.
                    let refusal = Frame::ProtocolError {
                        code: "overloaded".into(),
                        detail: format!(
                            "gateway at its in-flight batch bound ({}); retry",
                            gate.max
                        ),
                    };
                    if write_frame(&mut stream, &refusal).is_err() {
                        return;
                    }
                    continue;
                };
                let global = match namespace_batch(tenant, local) {
                    Ok(global) => global,
                    Err(detail) => {
                        let refusal = Frame::ProtocolError {
                            code: "namespace".into(),
                            detail,
                        };
                        if write_frame(&mut stream, &refusal).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let (responses, stamps) = handle.submit(&session, &global).wait();
                let responses: Vec<Response> = responses
                    .into_iter()
                    .map(|r| localise_response(tenant, r))
                    .collect();
                if write_frame(&mut stream, &Frame::Replies { responses, stamps }).is_err() {
                    return;
                }
            }
            Frame::Goodbye => {
                let _ = stream.flush();
                return;
            }
            _ => {
                let err = WireError::Protocol("unexpected frame after handshake".into());
                if reply_protocol_error(&mut stream, &err).is_err() {
                    return;
                }
            }
        }
    }
}

fn read_decoded(stream: &mut TcpStream) -> Result<Frame, WireError> {
    let (frame_type, payload) = read_frame_raw(stream)?;
    Frame::decode(frame_type, &payload)
}

fn reply_protocol_error(stream: &mut TcpStream, err: &WireError) -> Result<(), WireError> {
    write_frame(
        stream,
        &Frame::ProtocolError {
            code: err.code().into(),
            detail: err.to_string(),
        },
    )
}

/// Rewrite a tenant-local batch into the shared keyspace, in place: keys
/// move into the tenant's block, and the subject ids carried by `Create`
/// metadata and `BySubject` selectors move into the tenant's subject
/// block. One out-of-block id rejects the whole batch.
fn namespace_batch(tenant: TenantId, mut batch: Vec<Request>) -> Result<Vec<Request>, String> {
    for request in &mut batch {
        let subject = match request {
            Request::Create { metadata, .. } => Some(&mut metadata.subject),
            Request::ReadByMeta {
                selector: MetaSelector::BySubject(s),
            } => Some(s),
            _ => None,
        };
        if let Some(s) = subject {
            *s = tenant
                .global_subject(*s)
                .ok_or_else(|| format!("subject {s} outside the tenant-local subject space"))?;
        }
        if let Some(k) = request.key_mut() {
            *k = tenant
                .global_key(*k)
                .ok_or_else(|| format!("key {k} outside the tenant-local keyspace"))?;
        }
    }
    Ok(batch)
}

/// Rewrite global keys in a response's error back into the tenant's
/// local terms — a client must never see (or learn from) another block's
/// key numbering.
fn localise_response(tenant: TenantId, mut response: Response) -> Response {
    if let Err(error) = &mut response.outcome {
        match error {
            EngineError::NotFound { key } => {
                if let Some(local) = tenant.local_key(*key) {
                    *key = local;
                }
            }
            EngineError::RetentionExpired { key, .. } => {
                if let Some(local) = tenant.local_key(*key) {
                    *key = local;
                }
            }
            EngineError::Denied { .. } | EngineError::Backend { .. } => {}
        }
    }
    response
}

/// Connect to a served engine as `tenant` and run batches over the wire.
/// Blocking, one in-flight batch at a time — the closed-loop client the
/// bench driver and tests use.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// The server-assigned tenant id.
    pub tenant_id: u32,
    /// Shard count reported by the server.
    pub shards: u16,
}

impl Client {
    /// Dial `addr`, perform the tenant handshake, and return a connected
    /// client (or the handshake's protocol error).
    pub fn connect(
        addr: SocketAddr,
        tenant: &str,
        token: &str,
        actor: Actor,
    ) -> Result<Client, WireError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        write_frame(
            &mut stream,
            &Frame::Hello {
                tenant: tenant.into(),
                token: token.into(),
                actor,
            },
        )?;
        match read_decoded(&mut stream) {
            Ok(Frame::Welcome { tenant_id, shards }) => Ok(Client {
                stream,
                tenant_id,
                shards,
            }),
            Ok(Frame::ProtocolError { code, detail }) => {
                Err(WireError::Protocol(format!("{code}: {detail}")))
            }
            Ok(_) => Err(WireError::Protocol("unexpected handshake reply".into())),
            Err(err) => Err(err),
        }
    }

    /// Submit one batch (tenant-local keys) and block for the responses
    /// plus the batch's submit stamps.
    pub fn call_stamped(
        &mut self,
        requests: &[Request],
    ) -> Result<(Vec<Response>, Vec<datacase_engine::concurrent::SubmitStamp>), WireError> {
        write_frame(&mut self.stream, &Frame::Batch(requests.to_vec()))?;
        match read_decoded(&mut self.stream)? {
            Frame::Replies { responses, stamps } => Ok((responses, stamps)),
            Frame::ProtocolError { code, detail } => {
                Err(WireError::Protocol(format!("{code}: {detail}")))
            }
            _ => Err(WireError::Protocol("unexpected reply frame".into())),
        }
    }

    /// Submit one batch and block for the responses.
    pub fn call(&mut self, requests: &[Request]) -> Result<Vec<Response>, WireError> {
        Ok(self.call_stamped(requests)?.0)
    }

    /// Orderly close: tell the server this client is done.
    pub fn goodbye(mut self) -> Result<(), WireError> {
        write_frame(&mut self.stream, &Frame::Goodbye)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_rejects_bad_token() {
        let server = Server::spawn(
            EngineConfig::p_base(),
            2,
            &[TenantSpec::new("acme", "topsecret")],
        );
        let err = Client::connect(server.addr(), "acme", "wrong", Actor::Controller).unwrap_err();
        assert!(matches!(err, WireError::Protocol(ref s) if s.contains("unauthorized")));
        let err =
            Client::connect(server.addr(), "ghost", "topsecret", Actor::Controller).unwrap_err();
        assert!(matches!(err, WireError::Protocol(ref s) if s.contains("unauthorized")));
        server.shutdown();
    }

    #[test]
    fn handshake_token_check_is_constant_time_and_exact() {
        // The gateway compares tokens with datacase_crypto::ct_eq. Near
        // misses that an early-exit `==` would also reject — but after
        // leaking how far the prefix matched — must fail, and only the
        // exact token must pass.
        let server = Server::spawn(
            EngineConfig::p_base(),
            2,
            &[TenantSpec::new("acme", "topsecret")],
        );
        for near_miss in ["topsecreT", "topsecre", "topsecret0", "Topsecret", ""] {
            let err =
                Client::connect(server.addr(), "acme", near_miss, Actor::Controller).unwrap_err();
            assert!(
                matches!(err, WireError::Protocol(ref s) if s.contains("unauthorized")),
                "token {near_miss:?} must be rejected"
            );
        }
        Client::connect(server.addr(), "acme", "topsecret", Actor::Controller)
            .expect("exact token authenticates")
            .goodbye()
            .unwrap();
        server.shutdown();
    }

    #[test]
    fn namespacing_rejects_out_of_block_ids() {
        let t = TenantId(1);
        let over_key = Request::Read {
            key: u64::from(u32::MAX) + 1,
        };
        assert!(namespace_batch(t, vec![over_key]).is_err());
        let ok = namespace_batch(t, vec![Request::Read { key: 7 }]).unwrap();
        assert_eq!(ok, vec![Request::Read { key: (1 << 32) | 7 }]);
    }

    #[test]
    fn namespacing_rewrites_every_key_and_subject_in_place() {
        use datacase_core::grounding::erasure::ErasureInterpretation::Deleted;
        use datacase_core::purpose::well_known as wk;
        use datacase_workloads::{GdprMetadata, MetaField};
        let t = TenantId(2);
        let key = t.global_key(7).unwrap();
        let subject = t.global_subject(3).unwrap();
        let metadata = |subject| GdprMetadata {
            subject,
            purpose: wk::billing(),
            ttl: datacase_sim::time::Ts::from_secs(60),
            origin_device: 0,
            objects_to_sharing: false,
        };
        let create = |key, subject| Request::Create {
            key,
            payload: b"p".to_vec(),
            metadata: metadata(subject),
        };
        let by_subject = |s| Request::ReadByMeta {
            selector: MetaSelector::BySubject(s),
        };
        let by_purpose = Request::ReadByMeta {
            selector: MetaSelector::ByPurpose(wk::billing()),
        };
        #[rustfmt::skip]
        let table = [
            (create(7, 3), create(key, subject)),
            (Request::Read { key: 7 }, Request::Read { key }),
            (
                Request::Update { key: 7, payload: b"q".to_vec() },
                Request::Update { key, payload: b"q".to_vec() },
            ),
            (Request::Delete { key: 7 }, Request::Delete { key }),
            (Request::ReadMeta { key: 7 }, Request::ReadMeta { key }),
            (
                Request::UpdateMeta { key: 7, field: MetaField::Ttl },
                Request::UpdateMeta { key, field: MetaField::Ttl },
            ),
            (by_subject(3), by_subject(subject)),
            (by_purpose.clone(), by_purpose),
            (
                Request::Erase { key: 7, interpretation: Deleted },
                Request::Erase { key, interpretation: Deleted },
            ),
            (Request::Restore { key: 7 }, Request::Restore { key }),
        ];
        let (local, global): (Vec<Request>, Vec<Request>) = table.into_iter().unzip();
        assert_eq!(namespace_batch(t, local).unwrap(), global);
        // An out-of-block subject after a valid request rejects the whole
        // batch, naming the subject.
        let over = u32::MAX;
        let err = namespace_batch(t, vec![Request::Read { key: 7 }, create(7, over)]).unwrap_err();
        assert!(err.contains(&format!("subject {over}")), "{err}");
    }

    #[test]
    fn overload_gate_load_sheds_and_the_connection_survives() {
        // A zero in-flight bound refuses every batch — deterministically,
        // with no concurrency needed — and the refusal must be non-fatal.
        let server = Server::spawn_with_limits(
            EngineConfig::p_base(),
            2,
            &[TenantSpec::new("acme", "topsecret")],
            GatewayLimits {
                max_in_flight_frames: 0,
                ..GatewayLimits::default()
            },
        );
        let mut client =
            Client::connect(server.addr(), "acme", "topsecret", Actor::Controller).unwrap();
        for _ in 0..2 {
            let err = client.call(&[Request::Read { key: 1 }]).unwrap_err();
            assert!(
                matches!(err, WireError::Protocol(ref s) if s.contains("overloaded")),
                "expected an overloaded refusal, got {err:?}"
            );
        }
        // The connection stayed usable through both refusals.
        client.goodbye().unwrap();
        server.shutdown();
    }

    #[test]
    fn in_flight_permits_are_released_between_batches() {
        // With a bound of one, sequential batches must all be admitted:
        // each permit is returned when its batch finishes.
        let server = Server::spawn_with_limits(
            EngineConfig::p_base(),
            2,
            &[TenantSpec::new("acme", "topsecret")],
            GatewayLimits {
                max_in_flight_frames: 1,
                ..GatewayLimits::default()
            },
        );
        let mut client =
            Client::connect(server.addr(), "acme", "topsecret", Actor::Controller).unwrap();
        for _ in 0..3 {
            client
                .call(&[Request::Read { key: 1 }])
                .expect("admitted batch");
        }
        client.goodbye().unwrap();
        server.shutdown();
    }

    #[test]
    fn slow_loris_is_disconnected_at_the_frame_deadline() {
        let server = Server::spawn_with_limits(
            EngineConfig::p_base(),
            2,
            &[TenantSpec::new("acme", "topsecret")],
            GatewayLimits {
                read_timeout: Duration::from_millis(200),
                ..GatewayLimits::default()
            },
        );
        // A connection that never even finishes its handshake is cut.
        let mut silent = TcpStream::connect(server.addr()).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(silent.read(&mut buf).unwrap_or(0), 0, "expected EOF");
        // An authenticated connection that stalls mid-frame is answered
        // with a typed timeout and then cut — the deadline covers the
        // whole frame, so a partial header held open cannot pin a thread.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let hello = Frame::Hello {
            tenant: "acme".into(),
            token: "topsecret".into(),
            actor: Actor::Controller,
        };
        stream.write_all(&hello.encode()).unwrap();
        assert!(matches!(
            crate::wire::read_frame(&mut stream).unwrap(),
            Frame::Welcome { .. }
        ));
        let batch = Frame::Batch(vec![Request::Read { key: 1 }]).encode();
        stream.write_all(&batch[..4]).unwrap();
        stream.flush().unwrap();
        match crate::wire::read_frame(&mut stream) {
            Ok(Frame::ProtocolError { code, .. }) => assert_eq!(code, "timeout"),
            other => panic!("expected a timeout protocol error, got {other:?}"),
        }
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "expected EOF");
        server.shutdown();
    }

    #[test]
    fn shutdown_is_bounded_despite_an_idle_client() {
        let server = Server::spawn_with_limits(
            EngineConfig::p_base(),
            2,
            &[TenantSpec::new("acme", "topsecret")],
            GatewayLimits {
                read_timeout: Duration::from_millis(200),
                ..GatewayLimits::default()
            },
        );
        // An authenticated client that goes idle without goodbye must not
        // pin shutdown: its connection thread unblocks at the deadline.
        let client =
            Client::connect(server.addr(), "acme", "topsecret", Actor::Controller).unwrap();
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown pinned by an idle client"
        );
        drop(client);
    }

    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let server = Server::spawn(
            EngineConfig::p_base(),
            2,
            &[TenantSpec::new("acme", "topsecret")],
        );
        let all_finished = || {
            let running = server.connections.lock().expect("connection list");
            running.iter().all(JoinHandle::is_finished)
        };
        for _ in 0..16 {
            Client::connect(server.addr(), "acme", "topsecret", Actor::Controller)
                .unwrap()
                .goodbye()
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while !all_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let retained = server.connections.lock().expect("connection list").len();
        assert!(retained <= 4, "{retained} connection threads retained");
        server.shutdown();
    }

    #[test]
    fn reaping_keeps_a_panic_for_shutdown() {
        let panicked = AtomicBool::new(false);
        let mut running = vec![
            std::thread::spawn(|| {}),
            std::thread::spawn(|| panic!("connection bug")),
        ];
        while !running.iter().all(JoinHandle::is_finished) {
            std::thread::sleep(Duration::from_millis(1));
        }
        reap(&mut running, &panicked);
        assert!(running.is_empty());
        assert!(panicked.load(Ordering::SeqCst));
    }

    #[test]
    fn errors_are_localised_to_tenant_keys() {
        let t = TenantId(2);
        let global = t.global_key(5).unwrap();
        let r = Response {
            index: 0,
            outcome: Err(EngineError::NotFound { key: global }),
            audit: Default::default(),
        };
        let localised = localise_response(t, r);
        assert_eq!(localised.outcome, Err(EngineError::NotFound { key: 5 }));
    }
}
