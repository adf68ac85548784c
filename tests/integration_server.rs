//! Cross-crate integration: the multi-tenant gateway over real loopback
//! sockets, on both storage backends.
//!
//! The tenant-isolation gate: two tenants share one concurrent engine
//! through the wire protocol, and the suite proves
//!
//! * cross-tenant reads are denied — by the gateway's keyspace
//!   namespacing at the wire, and by the engine's session scope even for
//!   a caller holding a raw engine handle;
//! * per-tenant erasure leaves zero forensic residuals for the erased
//!   tenant and zero spillover into the surviving tenant;
//! * every shard's tamper-evident audit chain verifies independently
//!   after shutdown, and the grounded `TenantIsolation` invariant (X)
//!   holds over the final state on heap and LSM alike;
//! * graceful shutdown drains in-flight connections: replies issued
//!   while the server is shutting down still arrive, none are lost, and
//!   the merged audit chain head matches a serial replay of the
//!   recorded submit stamps.

use data_case::core::tenant::TenantId;
use data_case::prelude::*;
use data_case::server::{Client, Server, TenantSpec};
use data_case::storage::backend::BackendKind;
use data_case::workloads::opstream::MetaSelector;

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("acme", "a-token"),
        TenantSpec::new("globex", "g-token"),
    ]
}

fn metadata(subject: u32) -> GdprMetadata {
    GdprMetadata {
        subject,
        purpose: data_case::core::purpose::well_known::smart_space(),
        ttl: Ts::from_secs(1_000_000),
        origin_device: 1,
        objects_to_sharing: false,
    }
}

fn create(key: u64, payload: &[u8], subject: u32) -> Request {
    Request::Create {
        key,
        payload: payload.to_vec(),
        metadata: metadata(subject),
    }
}

#[test]
fn cross_tenant_reads_are_denied_on_both_backends() {
    for backend in BackendKind::ALL {
        let server = Server::spawn(EngineConfig::p_base().with_backend(backend), 2, &tenants());

        // Both tenants use the SAME local keys and subject ids — the
        // sharpest aliasing case the namespacing must keep apart.
        let mut acme =
            Client::connect(server.addr(), "acme", "a-token", Actor::Controller).unwrap();
        let mut globex =
            Client::connect(server.addr(), "globex", "g-token", Actor::Controller).unwrap();
        for key in 0..4u64 {
            let r = acme.call(&[create(key, &[b'a'; 11], 1)]).unwrap();
            assert!(r[0].outcome.is_ok(), "{backend:?}: acme create: {r:?}");
            let r = globex.call(&[create(key, &[b'g'; 22], 1)]).unwrap();
            assert!(r[0].outcome.is_ok(), "{backend:?}: globex create: {r:?}");
        }

        // Each tenant reads its own bytes back under the shared local key.
        let r = acme.call(&[Request::Read { key: 2 }]).unwrap();
        assert_eq!(r[0].outcome, Ok(Reply::Value(11)), "{backend:?}");
        let r = globex.call(&[Request::Read { key: 2 }]).unwrap();
        assert_eq!(r[0].outcome, Ok(Reply::Value(22)), "{backend:?}");

        // Metadata scans are confined too: both tenants registered
        // subject 1, and each sees exactly its own four rows.
        let scan = Request::ReadByMeta {
            selector: MetaSelector::BySubject(1),
        };
        let r = acme.call(std::slice::from_ref(&scan)).unwrap();
        assert_eq!(r[0].outcome, Ok(Reply::Rows(4)), "{backend:?}");
        let r = globex.call(&[scan]).unwrap();
        assert_eq!(r[0].outcome, Ok(Reply::Rows(4)), "{backend:?}");

        // A missing key reports the tenant-local number, not the global one.
        let r = acme.call(&[Request::Read { key: 99 }]).unwrap();
        assert_eq!(r[0].outcome, Err(EngineError::NotFound { key: 99 }));

        // The wire cannot even *name* another tenant's block: a local key
        // past the 32-bit block is a protocol error — and because the
        // frame was well-formed, the connection survives it.
        let out_of_block = acme.call(&[Request::Read { key: 1 << 32 }]);
        assert!(
            matches!(&out_of_block, Err(e) if e.to_string().contains("tenant-local")),
            "{backend:?}: {out_of_block:?}"
        );
        let r = acme.call(&[Request::Read { key: 0 }]).unwrap();
        assert!(r[0].outcome.is_ok(), "connection survives a protocol error");

        // Even a caller holding a raw engine handle is stopped by the
        // session scope: an acme-scoped session cannot read globex's
        // global key.
        let handle = server.engine_handle();
        let acme_session = Session::new(Actor::Controller).scoped(TenantId(1).key_range());
        let globex_global = TenantId(2).global_key(2).unwrap();
        let (responses, _) = handle
            .submit(&acme_session, &[Request::Read { key: globex_global }])
            .wait();
        assert_eq!(
            responses[0].outcome,
            Err(EngineError::Denied {
                reason: "key outside session scope".into()
            }),
            "{backend:?}"
        );

        acme.goodbye().unwrap();
        globex.goodbye().unwrap();
        server.shutdown();
    }
}

#[test]
fn per_tenant_erasure_has_zero_residuals_and_zero_spillover() {
    for backend in BackendKind::ALL {
        // Plaintext tuples so the forensic scans can see payload markers.
        let mut config = EngineConfig::p_sys().with_backend(backend);
        config.tuple_encryption = None;
        let server = Server::spawn(config, 2, &tenants());

        let mut acme =
            Client::connect(server.addr(), "acme", "a-token", Actor::Controller).unwrap();
        let mut globex =
            Client::connect(server.addr(), "globex", "g-token", Actor::Controller).unwrap();
        for key in 0..6u64 {
            acme.call(&[create(key, format!("person=acme-{key}").as_bytes(), 1)])
                .unwrap();
            globex
                .call(&[create(key, format!("person=globex-{key}").as_bytes(), 1)])
                .unwrap();
        }

        // Acme exercises its right to erasure, over the wire, for every
        // one of its records — with globex's aliased local keys untouched.
        let erases: Vec<Request> = (0..6u64)
            .map(|key| Request::Erase {
                key,
                interpretation: ErasureInterpretation::PermanentlyDeleted,
            })
            .collect();
        let r = acme.call(&erases).unwrap();
        assert!(
            r.iter().all(|resp| resp.outcome.is_ok()),
            "{backend:?}: erasure outcomes: {r:?}"
        );

        acme.goodbye().unwrap();
        globex.goodbye().unwrap();
        let mut frontends = server.shutdown();

        // Zero residuals for the erased tenant, across every shard and
        // every persistent layer; zero spillover into the survivor.
        let acme_residuals: usize = frontends
            .iter_mut()
            .map(|fe| fe.forensic().scan(b"person=acme").total())
            .sum();
        let globex_residuals: usize = frontends
            .iter_mut()
            .map(|fe| fe.forensic().scan(b"person=globex").total())
            .sum();
        assert_eq!(acme_residuals, 0, "{backend:?}: erased tenant residuals");
        assert!(
            globex_residuals >= 6,
            "{backend:?}: surviving tenant lost data ({globex_residuals} markers)"
        );

        // Every shard's tamper-evident audit chain verifies on its own,
        // and the grounded TenantIsolation invariant holds on the final
        // state, history, and subject registry.
        for (shard, fe) in frontends.iter_mut().enumerate() {
            assert!(
                fe.forensic().verify_chain(),
                "{backend:?}: shard {shard} audit chain failed verification"
            );
            let report = fe.compliance_report(&Regulation::gdpr());
            assert!(
                report.of_invariant("X").is_empty(),
                "{backend:?}: shard {shard} violates TenantIsolation: {:?}",
                report.of_invariant("X")
            );
        }
    }
}

#[test]
fn graceful_shutdown_drains_replies_and_replays_serially() {
    let shards = 2usize;
    let config = || EngineConfig::p_base().with_backend(BackendKind::Heap);
    let server = Server::spawn(config(), shards, &tenants());
    let addr = server.addr();

    // Two concurrent tenants, each firing single-shard batches (all keys
    // in a batch share parity, and the tenant block offset preserves
    // `key % shards`) so every reply carries exactly one submit stamp.
    type Recorded = Vec<(SubmitStamp, usize, Vec<Request>, Vec<Response>)>;
    let mut recorded: Recorded = Vec::new();
    let mut total_requests = 0usize;
    // Shutdown stops accepting: both clients must be connected first.
    let connected = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        let connected = &connected;
        let joins: Vec<_> = [("acme", "a-token"), ("globex", "g-token")]
            .iter()
            .enumerate()
            .map(|(t, (name, token))| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr, name, token, Actor::Controller).unwrap();
                    connected.wait();
                    let mut log = Vec::new();
                    for step in 0..6u64 {
                        let parity = (t as u64 + step) % shards as u64;
                        let batch: Vec<Request> = (0..4u64)
                            .map(|i| {
                                let key = 100 * step + i * shards as u64 + parity;
                                create(key, format!("unit-{t}-{key}").as_bytes(), 1 + t as u32)
                            })
                            .collect();
                        let (responses, stamps) = client.call_stamped(&batch).unwrap();
                        assert_eq!(stamps.len(), 1, "single-shard batch, one stamp");
                        assert_eq!(responses.len(), batch.len(), "no reply lost");
                        log.push((stamps[0], t, batch, responses));
                    }
                    client.goodbye().unwrap();
                    log
                })
            })
            .collect();

        // Begin graceful shutdown while both connections are mid-stream:
        // it must block until every in-flight batch is answered.
        connected.wait();
        let mut frontends = server.shutdown();
        let live_head = merged_chain_head(&mut frontends);

        for join in joins {
            recorded.extend(join.join().unwrap());
        }
        total_requests = recorded.iter().map(|(_, _, b, _)| b.len()).sum();
        let total_replies: usize = recorded.iter().map(|(_, _, _, r)| r.len()).sum();
        assert_eq!(
            total_replies, total_requests,
            "a drained reply went missing"
        );
        assert!(
            recorded
                .iter()
                .all(|(_, _, _, r)| r.iter().all(|resp| resp.outcome.is_ok())),
            "all creates succeed"
        );

        // Serial witness: re-namespace the recorded local batches exactly
        // as the gateway did, sort by (shard, seq) stamp, and replay them
        // one at a time on a fresh engine under the same scoped sessions.
        recorded.sort_by_key(|(stamp, _, _, _)| *stamp);
        let replay = ConcurrentEngine::new(config(), shards);
        let sessions: Vec<Session> = (0..2u32)
            .map(|t| Session::new(Actor::Controller).scoped(TenantId(t + 1).key_range()))
            .collect();
        for (stamp, t, local, live_responses) in &recorded {
            let tenant = TenantId(*t as u32 + 1);
            let global: Vec<Request> = local
                .iter()
                .map(|r| match r {
                    Request::Create {
                        key,
                        payload,
                        metadata,
                    } => {
                        let mut metadata = metadata.clone();
                        metadata.subject = tenant.global_subject(metadata.subject).unwrap();
                        Request::Create {
                            key: tenant.global_key(*key).unwrap(),
                            payload: payload.clone(),
                            metadata,
                        }
                    }
                    other => panic!("unexpected request in replay: {other:?}"),
                })
                .collect();
            let (serial_responses, stamps) = replay.submit(&sessions[*t], &global).wait();
            assert_eq!(stamps[0], *stamp, "replay follows the recorded order");
            assert_eq!(
                &serial_responses, live_responses,
                "served replies replay serially"
            );
        }
        let mut serial = replay.shutdown();
        assert_eq!(
            merged_chain_head(&mut serial),
            live_head,
            "merged audit chain head is byte-identical to the serial replay"
        );
    });
    assert_eq!(total_requests, 2 * 6 * 4);
}
