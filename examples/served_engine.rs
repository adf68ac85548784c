//! Served engine: two tenants share one concurrent engine through the
//! binary wire protocol, over real loopback sockets.
//!
//! ```sh
//! cargo run --release --example served_engine
//! ```
//!
//! The gateway authenticates each connection with a tenant handshake,
//! rewrites tenant-local keys into the tenant's block of the shared
//! keyspace, and executes every batch under a key-range-scoped engine
//! session — so the same local key `1` names different records for
//! different tenants, and no request can cross the block boundary.

use data_case::prelude::*;
use data_case::server::{Client, Server, TenantSpec};

fn record(key: u64, subject: u32, note: &str) -> Request {
    Request::Create {
        key,
        payload: format!("person={subject:06} note={note};").into_bytes(),
        metadata: GdprMetadata {
            subject,
            purpose: data_case::core::purpose::well_known::smart_space(),
            ttl: Ts::from_secs(90 * 24 * 3600),
            origin_device: 3,
            objects_to_sharing: false,
        },
    }
}

fn main() {
    // One 4-shard P_Base engine behind a loopback TCP gateway, hosting
    // two tenants. Tenant ids (and so keyspace blocks) follow
    // registration order: acme = 1, globex = 2.
    let server = Server::spawn(
        EngineConfig::p_base(),
        4,
        &[
            TenantSpec::new("acme", "a-token"),
            TenantSpec::new("globex", "g-token"),
        ],
    );
    println!("gateway listening on {}", server.addr());

    // Each tenant dials in with its own credentials. The Welcome frame
    // carries the assigned tenant id and the engine's shard count.
    let mut acme = Client::connect(server.addr(), "acme", "a-token", Actor::Controller)
        .expect("acme handshake");
    let mut globex = Client::connect(server.addr(), "globex", "g-token", Actor::Controller)
        .expect("globex handshake");
    println!(
        "acme is tenant {} — globex is tenant {} — {} shards behind the gateway",
        acme.tenant_id, globex.tenant_id, acme.shards
    );

    // Both tenants store under the SAME local key 1. The gateway's
    // namespacing keeps the records apart; neither ever sees a global key.
    acme.call(&[record(1, 7, "acme-meter-reading")])
        .expect("acme create");
    globex
        .call(&[record(1, 7, "globex-badge-swipe-entrance")])
        .expect("globex create");

    for (name, client) in [("acme", &mut acme), ("globex", &mut globex)] {
        let replies = client
            .call(&[Request::Read { key: 1 }])
            .expect("read own record");
        match replies[0].outcome {
            Ok(Reply::Value(n)) => println!("{name} reads its own key 1: {n} bytes"),
            ref other => println!("{name}: unexpected {other:?}"),
        }
    }

    // Wrong credentials never reach the engine.
    match Client::connect(server.addr(), "acme", "guessed", Actor::Processor) {
        Err(err) => println!("bad token rejected at the handshake: {err}"),
        Ok(_) => unreachable!("the gateway must reject a bad token"),
    }

    // A key outside the tenant's 32-bit block is refused at the gateway —
    // and because the frame itself was well-formed, the connection
    // survives and keeps serving.
    match acme.call(&[Request::Read { key: 1 << 32 }]) {
        Err(err) => println!("out-of-block key refused: {err}"),
        Ok(_) => unreachable!("the gateway must refuse out-of-block keys"),
    }
    assert!(acme.call(&[Request::Read { key: 1 }]).is_ok());

    // Orderly teardown: clients say goodbye, then the gateway drains its
    // connections and returns the per-shard frontends for inspection.
    acme.goodbye().expect("acme goodbye");
    globex.goodbye().expect("globex goodbye");
    let mut frontends = server.shutdown();
    let head = merged_chain_head(&frontends);
    println!(
        "gateway drained: {} shards, merged audit chain head {:02x}{:02x}..{:02x}{:02x}",
        frontends.len(),
        head[0],
        head[1],
        head[30],
        head[31]
    );
    for (shard, fe) in frontends.iter_mut().enumerate() {
        let report = fe.compliance_report(&Regulation::gdpr());
        println!(
            "shard {shard}: audit chain verifies = {}, TenantIsolation violations = {}",
            fe.forensic().verify_chain(),
            report.of_invariant("X").len()
        );
        assert!(report.of_invariant("X").is_empty());
    }
}
