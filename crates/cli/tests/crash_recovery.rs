//! Process-level crash nemesis, end to end through the real binary:
//! SIGKILL a `dynvote serve --data-dir` cluster in the middle of a
//! commit storm, respawn it from the same data directory, and prove
//! that every acknowledged commit survived, the logs are gapless, the
//! audit is clean, and the rebooted cluster keeps committing.
//!
//! The respawn binds a fresh port base: the dead process's sockets
//! linger in TIME_WAIT and the listener does not set SO_REUSEADDR.
//! Durability is a property of the data directory, not the ports.

use dynvote_cluster::wire::{ClientOp, ClientReply};
use dynvote_cluster::{audit_logs, TcpClient};
use dynvote_core::CopyMeta;
use dynvote_protocol::{LogEntry, ObjectId};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kills the serve child on drop so a failing assertion never leaks a
/// listener into the next test run.
struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_serve(dir: &Path, n: usize, port_base: u16) -> ServeGuard {
    let child = Command::new(env!("CARGO_BIN_EXE_dynvote"))
        .args([
            "serve",
            "--algo",
            "hybrid",
            "--n",
            &n.to_string(),
            "--port-base",
            &port_base.to_string(),
            "--data-dir",
            dir.to_str().unwrap(),
            "--fsync",
            "always",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dynvote serve");
    ServeGuard(child)
}

/// Connect to one site, waiting out the boot window.
fn connect(port: u16) -> TcpClient {
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match TcpClient::connect(addr) {
            Ok(client) => return client,
            Err(e) if Instant::now() >= deadline => {
                panic!("cluster not reachable at {addr}: {e}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Commit one update, retrying past transient Contended/TimedOut replies.
fn commit_update(client: &mut TcpClient, what: &str) -> u64 {
    for _ in 0..50 {
        match client.request(&ClientOp::Update { key: 0 }).expect(what) {
            ClientReply::Committed { version } => return version,
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    panic!("{what}: update never committed");
}

/// One site's copy of object 0: its metadata and committed log.
fn dump_log(client: &mut TcpClient) -> (CopyMeta, Vec<LogEntry>) {
    match client
        .request(&ClientOp::DumpLog { key: 0 })
        .expect("dump log")
    {
        ClientReply::Log { meta, entries } => (meta, entries),
        other => panic!("unexpected DumpLog reply {other:?}"),
    }
}

#[test]
fn sigkill_mid_storm_recovers_every_acked_commit() {
    let n = 5;
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dynvote-cli-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- First life: commit storm, then SIGKILL mid-flight. ---
    let first_base = 7840;
    let mut serve = spawn_serve(&dir, n, first_base);

    let mut seed_client = connect(first_base);
    for _ in 0..3 {
        commit_update(&mut seed_client, "seed commit");
    }

    // The storm thread hammers site 0 until the process dies under it;
    // it reports the highest version the server *acknowledged*. A
    // commit the client never saw acked may legitimately be lost.
    let stop = Arc::new(AtomicBool::new(false));
    let storm = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut acked = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match seed_client.request(&ClientOp::Update { key: 0 }) {
                    Ok(ClientReply::Committed { version }) => acked = version,
                    Ok(_) => {}
                    Err(_) => break, // the nemesis struck
                }
            }
            acked
        })
    };
    std::thread::sleep(Duration::from_millis(300));
    serve.0.kill().expect("SIGKILL serve");
    serve.0.wait().expect("reap serve");
    stop.store(true, Ordering::Relaxed);
    let acked = storm.join().expect("storm thread");
    assert!(acked >= 3, "storm never got going (acked {acked})");

    // --- Second life: same data directory, fresh ports. ---
    let second_base = 7860;
    let _serve2 = spawn_serve(&dir, n, second_base);
    let mut client = connect(second_base);

    // Every acknowledged commit was forced to disk before its reply
    // left the coordinator, so site 0 must recover at least `acked`,
    // as a gapless log its metadata agrees with.
    let recovered = dump_log(&mut client);
    let meta_version = recovered.0.version;
    assert!(
        meta_version >= acked,
        "recovered version {meta_version} lost acked commit {acked}"
    );
    let (_, violations) = audit_logs(ObjectId::ZERO, &[recovered]);
    assert!(violations.is_empty(), "site 0 recovered {violations:?}");

    // The rebooted cluster is live: it accepts at least one new commit
    // past everything the first life wrote.
    let next = commit_update(&mut client, "post-recovery commit");
    assert!(next > meta_version, "post-recovery commit did not advance");

    // Log audit across every node: each site's recovered log, plus the
    // new commit where it has reached, is a prefix of one chain, and
    // that chain ends at the new commit.
    let copies: Vec<_> = (0..n)
        .map(|i| dump_log(&mut connect(second_base + i as u16)))
        .collect();
    let (chain_len, violations) = audit_logs(ObjectId::ZERO, &copies);
    assert!(
        violations.is_empty(),
        "logs diverge after reboot: {violations:?}"
    );
    assert_eq!(
        chain_len, next,
        "the chain ends at the post-recovery commit"
    );

    drop(_serve2);
    std::fs::remove_dir_all(&dir).unwrap();
}
