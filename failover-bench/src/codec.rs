//! Frame accounting from the simulator's probe, and the `wire` codec
//! cost measured by replaying a sample of the captured frames through
//! the public parse and encode functions.

use bytes::Bytes;
use netsim::node::NodeId;
use netsim::ProbeEvent;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wire::{
    ArpPacket, EtherType, EthernetFrame, FrameBuilder, IpProtocol, Ipv4Packet, TcpFrameHeader,
    TcpSegment, UdpDatagram,
};

/// Frames of at most this many bytes count as small.
pub const SMALL_FRAME: usize = 128;

/// How many host-sent frames the traced run keeps for codec replay.
pub const SAMPLE_FRAMES: u64 = 4096;

/// Per-hop frame counts kept by the probe.
#[derive(Debug, Default)]
pub struct FrameTally {
    /// Indexed by node id: true for client and server hosts.
    host: Vec<bool>,
    /// Indexed by node id: true for servers.
    server: Vec<bool>,
    side_port: u16,
    /// Keep every `sample_every`-th host-sent frame (0: keep none).
    sample_every: u64,
    /// Frames sent by hosts (each encoded once by a `wire` codec).
    pub host_frames: u64,
    /// Their bytes.
    pub host_bytes: u64,
    /// Those of at most [`SMALL_FRAME`] bytes.
    pub host_small: u64,
    /// Side-channel UDP datagrams at their origin hop.
    pub side_datagrams: u64,
    /// Their bytes, Ethernet header included.
    pub side_bytes: u64,
    /// Sampled host-sent frames.
    pub samples: Vec<Bytes>,
}

impl FrameTally {
    /// A tally over a simulator whose hosts and servers are flagged by
    /// node id, classifying UDP to `side_port` as side channel.
    pub fn new(host: Vec<bool>, server: Vec<bool>, side_port: u16, sample_every: u64) -> Self {
        let samples = Vec::with_capacity(if sample_every > 0 { SAMPLE_FRAMES as usize } else { 0 });
        FrameTally { host, server, side_port, sample_every, samples, ..FrameTally::default() }
    }

    fn flagged(v: &[bool], id: NodeId) -> bool {
        v.get(id.0).copied().unwrap_or(false)
    }

    /// Accounts one probed frame transmission.
    pub fn observe(&mut self, ev: &ProbeEvent<'_>) {
        let frame = ev.frame;
        if Self::flagged(&self.host, ev.from) {
            if self.sample_every > 0
                && self.host_frames.is_multiple_of(self.sample_every)
                && self.samples.len() < SAMPLE_FRAMES as usize
            {
                self.samples.push(frame.clone());
            }
            self.host_frames += 1;
            self.host_bytes += frame.len() as u64;
            self.host_small += u64::from(frame.len() <= SMALL_FRAME);
        }
        if Self::flagged(&self.server, ev.from) && is_udp_to(frame, self.side_port) {
            self.side_datagrams += 1;
            self.side_bytes += frame.len() as u64;
        }
    }
}

/// True for an Ethernet/IPv4/UDP frame addressed to `port`.
fn is_udp_to(frame: &[u8], port: u16) -> bool {
    // Fixed offsets: Ethernet type 12..14, IPv4 protocol 23, UDP
    // destination port 36..38 (the stack sends no IP options).
    frame.len() >= 42
        && frame[12..14] == [0x08, 0x00]
        && frame[23] == 17
        && u16::from_be_bytes([frame[36], frame[37]]) == port
}

/// A frame parsed down to its transport header.
enum Parsed {
    Tcp(EthernetFrame, Ipv4Packet, TcpSegment),
    Udp(EthernetFrame, Ipv4Packet, UdpDatagram),
    Arp(EthernetFrame, ArpPacket),
    /// Non-IP, non-ARP (logger replay queries).
    Raw(EthernetFrame),
}

fn parse(frame: &Bytes) -> Option<Parsed> {
    let eth = EthernetFrame::parse(frame.clone()).ok()?;
    Some(match eth.ethertype {
        EtherType::Ipv4 => {
            let ip = Ipv4Packet::parse(eth.payload.clone()).ok()?;
            match ip.protocol {
                IpProtocol::Tcp => {
                    let seg = TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst).ok()?;
                    Parsed::Tcp(eth, ip, seg)
                }
                IpProtocol::Udp => {
                    let d = UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok()?;
                    Parsed::Udp(eth, ip, d)
                }
                _ => return None,
            }
        }
        EtherType::Arp => {
            let arp = ArpPacket::parse(&eth.payload).ok()?;
            Parsed::Arp(eth, arp)
        }
        _ => Parsed::Raw(eth),
    })
}

fn encode(p: &Parsed, b: &mut FrameBuilder) -> Bytes {
    match p {
        Parsed::Tcp(eth, ip, seg) => {
            let h = TcpFrameHeader {
                eth_dst: eth.dst,
                eth_src: eth.src,
                ip_src: ip.src,
                ip_dst: ip.dst,
                ident: ip.ident,
                ttl: ip.ttl,
                src_port: seg.src_port,
                dst_port: seg.dst_port,
                seq: seg.seq,
                ack: seg.ack,
                flags: seg.flags,
                window: seg.window,
                options: &seg.options,
            };
            b.tcp_frame(&h, (&seg.payload, &[]))
        }
        Parsed::Udp(eth, ip, d) => b.udp_frame(
            eth.dst, eth.src, ip.src, ip.dst, ip.ident, ip.ttl, d.src_port, d.dst_port, &d.payload,
        ),
        Parsed::Arp(eth, arp) => {
            EthernetFrame::new(eth.dst, eth.src, EtherType::Arp, arp.encode()).encode()
        }
        Parsed::Raw(eth) => eth.encode(),
    }
}

/// Codec cost per frame over a replayed sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCost {
    /// Ethernet → IPv4 → TCP/UDP/ARP parse, checksums verified.
    pub parse_ns: f64,
    /// Single-pass frame encode, checksums computed.
    pub encode_ns: f64,
    /// Sampled frames the codecs could not parse, or whose re-encoding
    /// differed from the original by a single bit.
    pub mismatches: u64,
}

/// Runs `pass` until at least `min` has elapsed (three passes at
/// least); returns the mean ns per pass.
fn ns_per_pass(min: Duration, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || start.elapsed() < min {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(passes)
}

/// Replays `samples` through the codecs, checking that every frame
/// parses and re-encodes bit for bit.
pub fn replay(samples: &[Bytes]) -> CodecCost {
    if samples.is_empty() {
        return CodecCost::default();
    }
    let mut builder = FrameBuilder::new();
    let mut parsed = Vec::with_capacity(samples.len());
    let mut mismatches = 0;
    for frame in samples {
        match parse(frame) {
            Some(p) => {
                if encode(&p, &mut builder) != *frame {
                    mismatches += 1;
                }
                builder.recycle();
                parsed.push(p);
            }
            None => mismatches += 1,
        }
    }
    let min = Duration::from_millis(20);
    let n = samples.len() as f64;
    let parse_ns = ns_per_pass(min, || {
        for frame in samples {
            black_box(parse(black_box(frame)));
        }
    }) / n;
    let encode_ns = ns_per_pass(min, || {
        for p in &parsed {
            black_box(encode(black_box(p), &mut builder));
            builder.recycle();
        }
    }) / parsed.len().max(1) as f64;
    CodecCost { parse_ns, encode_ns, mismatches }
}
