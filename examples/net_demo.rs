//! The two-level scheme over a real transport: a TCP server on loopback, the SPADES tool as a
//! remote client.
//!
//! ```sh
//! cargo run --release --example net_demo
//! ```
//!
//! The demo (1) runs the same SPADES editing workload through the in-process backend and
//! through a [`RemoteClient`] over TCP and diffs the resulting specification reports —
//! byte-identical modulo the backend label; (2) shows two remote clients racing for the same
//! object (exactly one wins, the loser learns the holder); (3) kills a client mid-checkout and
//! watches the server reclaim its locks — the paper's crash-recovery rule.

use seed::core::Database;
use seed::net::{RemoteClient, SeedNetServer, PROTOCOL_VERSION};
use seed::schema::figure3_schema;
use seed::server::{SeedServer, ServerError};
use seed::spades::{
    specification_report, RemoteBackend, SeedBackend, SpecBackend, Workload, WorkloadConfig,
};

fn main() {
    println!("== seed-net demo: the SPADES tool over TCP ==\n");
    let server =
        SeedNetServer::bind(SeedServer::new(Database::new(figure3_schema())), "127.0.0.1:0")
            .expect("bind loopback");
    let addr = server.local_addr();
    println!("central SEED server listening on {addr}\n");

    // 1. The same workload, in-process and over the wire.
    let workload = Workload::generate(&WorkloadConfig {
        data_elements: 10,
        actions: 5,
        checkpoint_every: 25,
        ..WorkloadConfig::default()
    });
    println!("applying a {}-operation SPADES workload twice:", workload.len());

    let mut local = SeedBackend::new();
    let rejected_local = workload.apply(&mut local);
    println!("  in-process backend: {rejected_local} rejections");

    let client = RemoteClient::connect(addr).expect("connect");
    println!(
        "  remote client {} connected (protocol v{}, server '{}')",
        client.id(),
        PROTOCOL_VERSION,
        client.server_banner()
    );
    let mut remote = RemoteBackend::new(client).expect("schema fetch");
    let rejected_remote = workload.apply(&mut remote);
    println!("  remote backend:     {rejected_remote} rejections");

    let local_report = specification_report(&local);
    let remote_report =
        specification_report(&remote).replace(remote.backend_name(), local.backend_name());
    assert_eq!(local_report, remote_report, "remote and in-process results must be identical");
    println!("  reports are byte-identical ({} bytes); first lines:", local_report.len());
    for line in local_report.lines().take(4) {
        println!("    | {line}");
    }

    // 2. Two clients race for the same object.
    println!("\ntwo clients race to check out 'Data000':");
    let mut alice = RemoteClient::connect(addr).expect("connect alice");
    let mut bob = RemoteClient::connect(addr).expect("connect bob");
    alice.checkout(&["Data000"]).expect("alice wins");
    println!("  client {} checked it out (write lock taken)", alice.id());
    match bob.checkout(&["Data000"]) {
        Err(ServerError::Locked { object, holder }) => {
            println!("  client {} was refused: '{object}' is held by client {holder}", bob.id());
        }
        other => panic!("expected a lock conflict, got {other:?}"),
    }
    alice.release().expect("release");

    // 3. A client vanishes mid-checkout; its locks come back on disconnect.
    println!("\na client crashes while holding checked-out data:");
    {
        let mut doomed = RemoteClient::connect(addr).expect("connect doomed");
        doomed.checkout(&["Data001"]).expect("checkout");
        println!("  client {} checked out 'Data001' ... and vanished", doomed.id());
        // Dropped here: the TCP connection dies without a release.
    }
    let core = server.core();
    while core.locked_count() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    println!("  server reclaimed its locks ({} held now)", core.locked_count());
    bob.checkout(&["Data001"]).expect("the object is free again");
    println!("  client {} could check 'Data001' out afterwards", bob.id());

    server.shutdown();
    println!("\nserver shut down cleanly — demo complete");
}
