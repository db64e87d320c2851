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
use std::sync::{Mutex, PoisonError};
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

/// Held while a cluster boots, so a `dynvote-node-0` thread that
/// appears during one boot belongs to that cluster.
static BOOTING: Mutex<()> = Mutex::new(());

/// Boot `config`; also returns the kernel task id of its site 0's
/// thread.
fn boot(config: &ClusterConfig) -> (Cluster, u64) {
    let _alone = BOOTING.lock().unwrap_or_else(PoisonError::into_inner);
    let before = node_zero_tasks();
    let cluster = Cluster::boot(config).expect("boot http cluster");
    let mut new = node_zero_tasks()
        .into_iter()
        .filter(|t| !before.contains(t));
    let task = new.next().expect("site 0's thread");
    assert_eq!(new.next(), None, "one site 0 per boot");
    (cluster, task)
}

/// The task ids of this process's live `dynvote-node-0` threads.
fn node_zero_tasks() -> Vec<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == "dynvote-node-0")
        })
        .filter_map(|task| task.file_name().to_str()?.parse().ok())
        .collect()
}

/// CPU clock ticks (user + system) task `tid` of this process has used.
fn cpu_ticks(tid: u64) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
        .expect("read the task's stat");
    // Fields 14 and 15 (`utime`, `stime`), counted after the
    // parenthesised command name, which may hold spaces.
    let (_, rest) = stat.rsplit_once(')').expect("a stat line");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

fn http_cluster(n: usize, max_inflight: u64) -> Cluster {
    boot(&http_config(n, max_inflight)).0
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
    // Long enough that the ops held below cannot slip out of the slot
    // before the probe arrives; healthy rounds never wait it out.
    config.vote_deadline = Duration::from_secs(1);
    let (cluster, _) = boot(&config);
    let addr = cluster.http_addr(SiteId(0)).expect("http addr");

    // The paced window opens while one op holds the slot. Cut off from
    // the other two sites, site 0 sends its vote requests into the
    // void, so that op's round waits out the whole vote deadline even
    // after the links heal: every op paced into that second bounces as
    // 429, and the ops after it commit.
    let rest = dynvote_core::SiteSet::from_sites([1, 2].map(SiteId));
    cluster.set_partition(&[rest]).expect("partition");
    let held = thread::spawn(move || post_op(addr, "update"));
    await_value(Duration::from_secs(5), 1, || inflight(addr));
    cluster.heal_links().expect("heal");
    let load = LoadGenConfig {
        duration: Duration::from_millis(1500),
        rate: Some(2000.0),
        read_fraction: 0.0,
        seed: 3,
        ..LoadGenConfig::default()
    };
    let report = LoadGen::run(&load, http_targets(&cluster, 1, 8)).expect("paced run");
    let (status, text) = held.join().expect("held op");
    assert_eq!(status, 409, "a lone site must be rejected: {text}");
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
    let (cluster, _) = boot(&config);
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

/// A 5-site HTTP cluster whose rounds wait 600 ms for votes, with site 0
/// cut off alone: every op site 0 coordinates stays in flight for the
/// whole vote deadline, then is rejected. Also returns site 0's task id.
fn isolated_site_zero(max_inflight: u64) -> (Cluster, u64) {
    let mut config = http_config(5, max_inflight);
    config.vote_deadline = Duration::from_millis(600);
    let (cluster, task) = boot(&config);
    let rest = dynvote_core::SiteSet::from_sites([1, 2, 3, 4].map(SiteId));
    cluster.set_partition(&[rest]).expect("partition");
    (cluster, task)
}

/// Site 0's `dynvote_http_inflight` gauge.
fn inflight(addr: SocketAddr) -> u64 {
    let (_, metrics) = roundtrip(
        addr,
        "GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    sample(&metrics, "dynvote_http_inflight{site=\"0\"}")
}

/// Poll `read` every millisecond until it returns `want`, for at most
/// `within`.
fn await_value(within: Duration, want: u64, mut read: impl FnMut() -> u64) {
    let deadline = Instant::now() + within;
    loop {
        let got = read();
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "stuck at {got}, waiting for {want}"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn hung_up_http_ops_give_back_their_admission_slots() {
    let (cluster, _) = isolated_site_zero(2);
    let addr = cluster.http_addr(SiteId(0)).expect("http addr");

    // Two ops take both admission slots; their clients leave without
    // reading a byte of the answer.
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let body = "{\"op\":\"update\"}";
        let request = format!(
            "POST /v1/op HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("write request");
    }
    await_value(Duration::from_millis(500), 2, || inflight(addr));
    // Both rounds wait out the deadline and are answered into the void;
    // each answer still returns its slot.
    await_value(Duration::from_secs(5), 0, || inflight(addr));

    cluster.heal_links().expect("heal");
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    cluster.shutdown();
}

/// One binary-client request, framed.
fn request_frame(id: u64, op: &ClientOp) -> Vec<u8> {
    let mut frame = Vec::new();
    dynvote_cluster::wire::encode_frame_into(&mut frame, |out| {
        dynvote_cluster::wire::encode_request_into(out, id, op);
    });
    frame
}

/// Site 0's `conns_closed` counter.
fn conns_closed(cluster: &Cluster) -> u64 {
    let reply = cluster.client(SiteId(0)).request(ClientOp::NetStats);
    let Ok(ClientReply::NetStats { counts }) = reply else {
        panic!("net stats reply: {reply:?}");
    };
    let idx = dynvote_cluster::NetStats::NAMES
        .iter()
        .position(|name| *name == "conns_closed")
        .expect("conns_closed counter");
    counts[idx]
}

#[test]
fn a_reply_for_a_closed_connection_skips_the_one_that_reuses_its_slot() {
    use dynvote_cluster::wire::{decode_reply, read_frame, HELLO_CLIENT};
    let (cluster, _) = isolated_site_zero(64);
    let addr = cluster.addr(SiteId(0)).expect("binary addr");

    // Client A starts an update that stays in flight, and hangs up.
    let closed = conns_closed(&cluster);
    let mut a = TcpStream::connect(addr).expect("connect a");
    a.write_all(&[HELLO_CLIENT]).expect("hello a");
    a.write_all(&request_frame(777, &ClientOp::Update { key: 0 }))
        .expect("update a");
    drop(a);
    await_value(Duration::from_secs(5), closed + 1, || {
        conns_closed(&cluster)
    });

    // Client B takes the freed slot.
    let mut b = TcpStream::connect(addr).expect("connect b");
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    b.write_all(&[HELLO_CLIENT]).expect("hello b");
    let next_reply = |b: &mut TcpStream| {
        let body = read_frame(b).expect("a reply frame");
        decode_reply(&body).expect("a reply").0
    };
    b.write_all(&request_frame(1, &ClientOp::Probe { key: 0 }))
        .expect("probe 1");
    assert_eq!(next_reply(&mut b), 1);

    // A's round runs out its vote deadline and is answered.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !matches!(
        cluster.probe(SiteId(0)),
        Ok(ClientReply::Probe { locked: false, .. })
    ) {
        assert!(Instant::now() < deadline, "A's round never resolved");
        thread::sleep(Duration::from_millis(5));
    }
    b.write_all(&request_frame(2, &ClientOp::Probe { key: 0 }))
        .expect("probe 2");
    assert_eq!(next_reply(&mut b), 2, "A's answer reached B");
    b.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut byte = [0u8; 1];
    let err = b.read(&mut byte).expect_err("nothing more for B");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "{err}"
    );

    cluster.heal_links().expect("heal");
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    cluster.shutdown();
}

#[test]
fn a_reset_http_connection_with_an_op_in_flight_is_closed_not_polled() {
    let (cluster, site_zero) = isolated_site_zero(4);
    let addr = cluster.http_addr(SiteId(0)).expect("http addr");

    // The client pipelines a scrape and an op that stays in flight, and
    // leaves without reading the scrape's response: its socket resets.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = "{\"op\":\"update\"}";
    let requests = format!(
        "GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n\
         POST /v1/op HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(requests.as_bytes())
        .expect("write requests");
    await_value(Duration::from_millis(500), 1, || inflight(addr));
    let closed = conns_closed(&cluster);
    let ticks = cpu_ticks(site_zero);
    drop(stream);

    thread::sleep(Duration::from_millis(300));
    let spent = cpu_ticks(site_zero) - ticks;
    assert!(
        spent < 10,
        "site 0 spent {spent} ticks in 300 ms on a reset connection"
    );
    // Closed at once, while its op still holds its admission slot...
    assert_eq!(conns_closed(&cluster), closed + 1);
    assert_eq!(inflight(addr), 1, "the op was answered already");
    // ...which its answer gives back.
    await_value(Duration::from_secs(5), 0, || inflight(addr));

    cluster.heal_links().expect("heal");
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    cluster.shutdown();
}

/// `ClientOp::NetStats` reads the site's network counters: all of
/// them, in `NetStats::NAMES` order, whether asked in process or over
/// a binary connection. A channel site has no network and answers with
/// no counts.
#[test]
fn net_stats_answers_every_network_counter_in_name_order() {
    use dynvote_cluster::wire::{decode_reply, read_frame, HELLO_CLIENT};
    use dynvote_cluster::NetStats;
    let at = |name: &str| {
        NetStats::NAMES
            .iter()
            .position(|n| *n == name)
            .expect("a counter name")
    };

    let config = ClusterConfig::new(3, AlgorithmKind::Hybrid).with_transport(TransportKind::Tcp);
    let cluster = Cluster::boot(&config).expect("boot tcp cluster");
    let mut raw =
        TcpStream::connect(cluster.addr(SiteId(0)).expect("binary addr")).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&[HELLO_CLIENT]).expect("hello");
    raw.write_all(&request_frame(9, &ClientOp::NetStats))
        .expect("request");
    let body = read_frame(&mut raw).expect("a reply frame");
    let (id, over_wire) = decode_reply(&body).expect("a reply");
    assert_eq!(id, 9);
    let in_process = cluster.client(SiteId(0)).request(ClientOp::NetStats);
    for reply in [Ok(over_wire), in_process] {
        let Ok(ClientReply::NetStats { counts }) = reply else {
            panic!("net stats reply: {reply:?}");
        };
        assert_eq!(counts.len(), NetStats::COUNT);
        assert!(counts[at("conns_accepted")] >= 1, "{counts:?}");
        assert!(counts[at("frames_in")] >= 1, "{counts:?}");
        assert_eq!(counts[at("decode_errors")], 0, "{counts:?}");
        assert_eq!(counts[at("http_requests")], 0, "{counts:?}");
    }
    drop(raw);
    cluster.shutdown();

    let cluster = Cluster::boot(&ClusterConfig::new(3, AlgorithmKind::Hybrid)).expect("boot");
    let reply = cluster.client(SiteId(0)).request(ClientOp::NetStats);
    assert_eq!(reply, Ok(ClientReply::NetStats { counts: Vec::new() }));
    cluster.shutdown();
}
