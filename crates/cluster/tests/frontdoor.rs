//! Integration tests for the HTTP front door: `/v1/op`, `/metrics`,
//! `/status`, admission control (`429`), and paced load through
//! [`HttpClient`] targets.

use dynvote_cluster::wire::{ClientOp, ClientReply};
use dynvote_cluster::{
    Cluster, ClusterConfig, FrontDoorConfig, HttpClient, LoadGen, LoadGenConfig, TransportKind,
    WorkloadTarget,
};
use dynvote_core::{AlgorithmKind, SiteId};
use dynvote_protocol::EventKind;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn http_config(n: usize, max_inflight: u64) -> ClusterConfig {
    ClusterConfig::new(n, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Tcp)
        .with_http(FrontDoorConfig {
            http_port_base: None,
            max_inflight,
            max_conns: 4096,
        })
}

fn http_cluster(n: usize, max_inflight: u64) -> Cluster {
    Cluster::boot(&http_config(n, max_inflight)).expect("boot http cluster")
}

/// `workers` HTTP targets, round-robin over the front doors of the
/// first `sites` sites.
fn http_targets(cluster: &Cluster, sites: usize, workers: usize) -> Vec<Box<dyn WorkloadTarget>> {
    (0..workers)
        .map(|w| -> Box<dyn WorkloadTarget> {
            let site = SiteId((w % sites) as u8);
            Box::new(HttpClient::new(cluster.http_addr(site).expect("http addr")))
        })
        .collect()
}

/// One blocking HTTP exchange (connection: close) against `addr`.
fn roundtrip(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, text)
}

fn post_op(addr: SocketAddr, body: &str) -> (u16, String) {
    roundtrip(
        addr,
        &format!(
            "POST /v1/op HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The raw value of `"field":` in a flat JSON object whose values hold
/// no nested braces (arrays of numbers are fine).
fn json_field<'a>(body: &'a str, field: &str) -> &'a str {
    let (_, rest) = body
        .split_once(&format!("\"{field}\":"))
        .unwrap_or_else(|| panic!("no {field} in {body}"));
    let end = if rest.starts_with('[') {
        rest.find(']').expect("closed array") + 1
    } else {
        rest.find([',', '}']).expect("a value ends")
    };
    &rest[..end]
}

/// One `/metrics` sample by its full `name{labels}` key.
fn sample(body: &str, key: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(key)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no sample {key} in:\n{body}"))
}

#[test]
fn post_op_commits_and_status_reports_metadata() {
    let cluster = http_cluster(3, 64);
    let addr = cluster.http_addr(SiteId(0)).expect("http addr");

    let (status, body) = post_op(addr, "{\"op\":\"update\"}");
    assert_eq!(status, 200, "update reply: {body}");
    assert!(body.contains("\"outcome\":\"committed\""), "{body}");

    let (status, body) = post_op(addr, "{\"op\":\"read\"}");
    assert_eq!(status, 200, "read reply: {body}");
    assert!(body.contains("\"outcome\":\"read_served\""), "{body}");

    let (status, body) = roundtrip(
        addr,
        "GET /status HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "status reply: {body}");
    assert!(body.contains("\"algorithm\":\"hybrid\""), "{body}");
    assert!(body.contains("\"vn\":1"), "{body}");
    assert!(body.contains("\"reachable\""), "{body}");
    // Both peers have voted twice and neither was ever waited for in
    // vain; the second round got a grace between the floor (an eighth
    // of the 25 ms vote deadline) and the deadline itself.
    assert!(body.contains("\"vote_grace_missed\":[0,0,0]"), "{body}");
    assert!(body.contains("\"vote_deadline_missed\":[0,0,0]"), "{body}");
    let rtts = json_field(&body, "peer_vote_rtt_us");
    let rtts: Vec<u64> = rtts
        .trim_matches(|c| c == '[' || c == ']')
        .split(',')
        .map(|us| us.parse().expect("microseconds"))
        .collect();
    assert!(
        matches!(rtts[..], [0, b, c] if b > 0 && c > 0),
        "site 0's own slot stays 0, its peers' do not: {rtts:?}"
    );
    let grace: u64 = json_field(&body, "vote_grace_us").parse().expect("grace");
    assert!((3_125..=25_000).contains(&grace), "{grace}");
    // One client, no rival: the routing readings are there and zero.
    assert!(
        body.ends_with(
            "\"contended\":0,\"routed_objects\":0,\"forwarded_out\":0,\
             \"forwarded_in\":0,\"forward_timeouts\":0}"
        ),
        "{body}"
    );

    let (status, body) = roundtrip(
        addr,
        "GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "metrics reply: {body}");
    for sample in [
        "dynvote_contended_total{site=\"0\"} 0",
        "dynvote_routed_objects{site=\"0\"} 0",
        "dynvote_forwarded_out_total{site=\"0\"} 0",
        "dynvote_forwarded_in_total{site=\"0\"} 0",
        "dynvote_forward_timeouts_total{site=\"0\"} 0",
    ] {
        assert!(body.contains(sample), "no {sample} in {body}");
    }
    for peer in 1..=2 {
        let labels = format!("{{site=\"0\",peer=\"{peer}\"}}");
        assert!(sample(&body, &format!("dynvote_peer_vote_rtt_us{labels}")) > 0);
        assert_eq!(
            sample(&body, &format!("dynvote_vote_grace_missed_total{labels}")),
            0
        );
    }
    assert!(!body.contains("dynvote_peer_vote_rtt_us{site=\"0\",peer=\"0\"}"));
    let grace = sample(&body, "dynvote_vote_grace_us{site=\"0\"}");
    assert!((3_125..=25_000).contains(&grace), "{grace}");
    // The event row `/metrics` serves is the one the node answers the
    // binary `Events` op from.
    let committed = sample(&body, "dynvote_event_total{site=\"0\",kind=\"committed\"}");
    assert!(committed > 0, "{body}");
    let events = cluster.client(SiteId(0)).request(ClientOp::Events);
    let Ok(ClientReply::Events { counts }) = events else {
        panic!("events reply: {events:?}");
    };
    assert_eq!(committed, counts[EventKind::Committed as usize]);
    assert!(body.contains("dynvote_net_total"), "{body}");
    assert!(body.contains("dynvote_op_latency_seconds_count"), "{body}");
    assert!(body.contains("conns_accepted"), "{body}");

    let (status, body) = roundtrip(
        addr,
        "GET /nope HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 404, "unknown route: {body}");

    let (status, body) = post_op(addr, "{\"op\":\"fsck\"}");
    assert_eq!(status, 400, "bad op: {body}");

    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    assert!(cluster.audit().expect("audit").consistent);
    cluster.shutdown();
}

#[test]
fn open_loop_commits_against_the_front_door() {
    let cluster = http_cluster(3, 256);
    let config = LoadGenConfig {
        duration: Duration::from_secs(2),
        rate: Some(400.0),
        read_fraction: 0.2,
        seed: 11,
        ..LoadGenConfig::default()
    };
    let report = LoadGen::run(&config, http_targets(&cluster, 3, 8)).expect("paced run");
    assert!(
        report.committed >= 100,
        "expected >=100 commits, report: {}",
        report.to_json()
    );
    assert_eq!(report.transport_errors, 0, "{}", report.to_json());
    assert!(report.update_latency.p50_ms > 0.0);

    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    assert!(cluster.audit().expect("audit").consistent);
    cluster.shutdown();
}

#[test]
fn overload_yields_429_not_hangs() {
    // One admission slot: paced workers all aimed at one node must see
    // the excess bounce as 429, never stall.
    let mut config = http_config(3, 1);
    // Long enough that the op held below cannot slip out of its slot
    // before the probe arrives; healthy rounds never wait it out.
    config.node.vote_deadline = Duration::from_secs(1);
    let cluster = Cluster::boot(&config).expect("boot http cluster");
    let addr = cluster.http_addr(SiteId(0)).expect("http addr");

    let load = LoadGenConfig {
        duration: Duration::from_millis(500),
        rate: Some(2000.0),
        read_fraction: 0.0,
        seed: 3,
        ..LoadGenConfig::default()
    };
    let report = LoadGen::run(&load, http_targets(&cluster, 1, 8)).expect("paced run");
    assert!(
        report.overloaded > 0,
        "expected admission rejections, report: {}",
        report.to_json()
    );
    assert!(report.committed > 0, "{}", report.to_json());
    // Nothing hangs: every op got a reply inside its timeout.
    assert_eq!(report.transport_errors, 0, "{}", report.to_json());

    // With sites 1 and 2 down, site 0 alone is not distinguished, so
    // its next round waits out the whole vote deadline while holding
    // the one slot. A second op meanwhile is refused at admission, and
    // the 429 tells the client when to come back.
    cluster.crash(SiteId(1)).expect("crash site 1");
    cluster.crash(SiteId(2)).expect("crash site 2");
    let held = thread::spawn(move || post_op(addr, "update"));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, metrics) = roundtrip(
            addr,
            "GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        );
        if sample(&metrics, "dynvote_http_inflight{site=\"0\"}") == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "the held op never took the slot");
        thread::sleep(Duration::from_millis(1));
    }
    let (status, text) = post_op(addr, "update");
    assert_eq!(status, 429, "{text}");
    assert!(
        text.to_ascii_lowercase().contains("\r\nretry-after: 1\r\n"),
        "{text}"
    );
    let (status, text) = held.join().expect("held op");
    assert_eq!(status, 409, "a lone site must be rejected: {text}");

    cluster.shutdown();
}

/// Soft fd limit from `/proc/self/limits`, `u64::MAX` if unreadable.
fn fd_soft_limit() -> u64 {
    let Ok(limits) = std::fs::read_to_string("/proc/self/limits") else {
        return u64::MAX;
    };
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(u64::MAX)
}

#[test]
fn holds_5000_concurrent_connections() {
    // 5000 client + 5000 server fds, plus headroom for the harness.
    if fd_soft_limit() < 12_000 {
        eprintln!("skipping: fd soft limit below 12000");
        return;
    }
    const CONNS: usize = 5000;
    let config = ClusterConfig::new(3, AlgorithmKind::Hybrid)
        .with_transport(TransportKind::Tcp)
        .with_http(FrontDoorConfig {
            http_port_base: None,
            max_inflight: 512,
            max_conns: 8192,
        });
    let cluster = Cluster::boot(&config).expect("boot");
    let addr = cluster.http_addr(SiteId(0)).expect("http addr");

    // Hold CONNS idle connections open against one node...
    let mut held = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        match TcpStream::connect(addr) {
            Ok(stream) => held.push(stream),
            Err(e) => panic!("connect #{i} failed: {e}"),
        }
    }
    // ...and the node must still serve ops and report the load.
    let (status, body) = post_op(addr, "{\"op\":\"update\"}");
    assert_eq!(status, 200, "op under 5k idle conns: {body}");
    let (status, body) = roundtrip(
        addr,
        "GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let accepted: u64 = body
        .lines()
        .find(|l| l.contains("counter=\"conns_accepted\""))
        .and_then(|l| l.split_whitespace().next_back())
        .and_then(|v| v.parse().ok())
        .expect("conns_accepted in metrics");
    assert!(
        accepted >= CONNS as u64,
        "expected >={CONNS} accepted, metrics says {accepted}"
    );

    drop(held);
    cluster.shutdown();
}

#[test]
fn status_is_served_while_partitioned() {
    let cluster = http_cluster(5, 64);
    let addr4 = cluster.http_addr(SiteId(4)).expect("http addr");

    // Isolate site 4: its /status must still answer (inline path plus
    // node round-trip), and /v1/op must refuse rather than hang.
    let majority = dynvote_core::SiteSet::from_sites([0, 1, 2, 3].map(SiteId));
    let minority = dynvote_core::SiteSet::from_sites([SiteId(4)]);
    cluster
        .set_partition(&[majority, minority])
        .expect("partition");

    let (status, body) = roundtrip(
        addr4,
        "GET /status HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "{body}");

    let (status, body) = post_op(addr4, "{\"op\":\"update\"}");
    assert_eq!(status, 409, "minority update must be rejected: {body}");
    assert!(body.contains("\"outcome\":\"rejected\""), "{body}");

    cluster.heal_links().expect("heal");
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    cluster.shutdown();
}
