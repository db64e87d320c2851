//! Counters read from outside the cluster, over the same binary wire a
//! remote operator would use: `ClientOp::{Events, NetStats,
//! ShardStats}` on a one-shot control connection per site, summed over
//! the sites. A traced run scrapes before the load starts and after it
//! has drained; per-commit ratios are differences of the two.

use dynvote_cluster::wire::{self, ClientOp, ClientReply};
use dynvote_cluster::{Cluster, NetStats, ShardStats};
use dynvote_core::SiteId;
use dynvote_protocol::EventKind;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Open a control connection and write one request on it.
fn send_control(addr: SocketAddr, op: &ClientOp) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    let mut out = vec![wire::HELLO_CLIENT];
    wire::encode_frame_into(&mut out, |body| wire::encode_request_into(body, 0, op));
    stream.write_all(&out)?;
    Ok(stream)
}

/// One control request on its own connection. The reply is handed to
/// the reactor through its waker, so while none arrives the site is
/// nudged with a throwaway connection every 20 ms: a reactor that has
/// lost its wake-up (see the README) writes the reply on the next socket
/// event instead.
pub fn control(addr: SocketAddr, op: &ClientOp) -> io::Result<ClientReply> {
    let mut stream = send_control(addr, op)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while !crate::sys::wait_readable(stream.as_raw_fd(), Duration::from_millis(20)) {
        if Instant::now() >= deadline {
            return Err(io::ErrorKind::TimedOut.into());
        }
        drop(TcpStream::connect_timeout(
            &addr,
            Duration::from_millis(200),
        ));
    }
    let body = wire::read_frame(&mut stream)?;
    let (_, reply) =
        wire::decode_reply(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(reply)
}

/// How many sites' reactors no longer act on a wake-up from their node
/// thread. Call on an idle cluster: a control request reaches the node
/// through the socket either way, but the reply is handed back through
/// the reactor's waker, so a reactor that has lost its wake-up for good
/// (see the README) leaves it unwritten until some other socket event
/// arrives. A healthy site answers in well under a millisecond.
pub fn stalled_sites(cluster: &Cluster) -> usize {
    let answers_promptly = |addr: SocketAddr| {
        send_control(addr, &ClientOp::NetStats).is_ok_and(|stream| {
            crate::sys::wait_readable(stream.as_raw_fd(), Duration::from_millis(50))
        })
    };
    (0..cluster.n())
        .filter_map(|site| cluster.addr(SiteId(site as u8)))
        .filter(|&addr| !answers_promptly(addr))
        .count()
}

/// Cluster-wide counter totals at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Protocol events, in `EventKind::ALL` order.
    events: Vec<u64>,
    /// Transport and front-door counters, in `NetStats::NAMES` order.
    net: Vec<u64>,
    pub merge_barriers: u64,
    pub merge_wait_ns: u64,
    /// Deepest any object's pending-op queue has been on any site.
    pub queue_peak: u64,
    /// Quorum rounds by how many updates each sealed, in
    /// `ShardStats::BATCH_BUCKETS` order.
    pub batch_sizes: Vec<u64>,
}

impl Counters {
    /// Scrape every site of `cluster`.
    pub fn scrape(cluster: &Cluster) -> io::Result<Counters> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut total = Counters {
            events: vec![0; EventKind::COUNT],
            net: vec![0; NetStats::COUNT],
            batch_sizes: vec![0; ShardStats::BATCH_BUCKETS.len()],
            ..Counters::default()
        };
        for site in 0..cluster.n() {
            let addr = cluster
                .addr(SiteId(site as u8))
                .ok_or_else(|| bad("cluster has no TCP listeners"))?;
            let ClientReply::Events { counts } = control(addr, &ClientOp::Events)? else {
                return Err(bad("unexpected reply to Events"));
            };
            add_into(&mut total.events, &counts);
            let ClientReply::NetStats { counts } = control(addr, &ClientOp::NetStats)? else {
                return Err(bad("unexpected reply to NetStats"));
            };
            add_into(&mut total.net, &counts);
            let ClientReply::ShardStats { workers, counts } = control(addr, &ClientOp::ShardStats)?
            else {
                return Err(bad("unexpected reply to ShardStats"));
            };
            for (name, &count) in ShardStats::names_for(workers as usize).iter().zip(&counts) {
                if name == "shard_merge_barriers" {
                    total.merge_barriers += count;
                } else if name == "shard_merge_wait_ns" {
                    total.merge_wait_ns += count;
                } else if name.starts_with("pipeline_queue_peak") {
                    total.queue_peak = total.queue_peak.max(count);
                }
            }
            let buckets = total.batch_sizes.len();
            let tail = counts.len().saturating_sub(buckets);
            add_into(&mut total.batch_sizes, &counts[tail..]);
        }
        Ok(total)
    }

    /// Events of one kind, by the kind's stable snake_case name.
    pub fn event(&self, name: &str) -> u64 {
        EventKind::ALL
            .iter()
            .position(|kind| kind.name() == name)
            .map_or(0, |i| self.events[i])
    }

    /// One transport counter, by its `NetStats::NAMES` name.
    pub fn net(&self, name: &str) -> u64 {
        NetStats::NAMES
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.net[i])
    }

    /// What happened between `earlier` and `self`. Peaks are not
    /// differences: the later high-water mark stands.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        Counters {
            events: sub(&self.events, &earlier.events),
            net: sub(&self.net, &earlier.net),
            merge_barriers: self.merge_barriers - earlier.merge_barriers,
            merge_wait_ns: self.merge_wait_ns - earlier.merge_wait_ns,
            queue_peak: self.queue_peak,
            batch_sizes: sub(&self.batch_sizes, &earlier.batch_sizes),
        }
    }

    /// The median quorum round's size, as the upper bound of the batch
    /// bucket holding it (0 when no round ran).
    pub fn batch_p50(&self) -> u64 {
        let rounds: u64 = self.batch_sizes.iter().sum();
        let mut seen = 0;
        for (&count, &upper) in self.batch_sizes.iter().zip(&ShardStats::BATCH_BUCKETS) {
            seen += count;
            if rounds > 0 && seen * 2 >= rounds {
                return if upper == u64::MAX { 128 } else { upper };
            }
        }
        0
    }
}

fn add_into(total: &mut [u64], counts: &[u64]) {
    for (t, c) in total.iter_mut().zip(counts) {
        *t += c;
    }
}
