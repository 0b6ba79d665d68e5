//! Counting-allocator guard on a stack's setup footprint.
//!
//! Every simulated client is one `NetStack` with one connection, and a
//! fleet runs thousands of them, so what a fresh stack allocates before
//! it has carried a byte is paid once per client. Per-stack state (the
//! frame builder's buffer, the timer wheel's slot storage) must be
//! allocated on first use, not up front: `NetStack::new` plus one
//! `connect` may allocate at most 16 KiB.
//!
//! This file holds exactly one test: the counter is process-global,
//! and a concurrently running neighbour test would pollute it.

use netsim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use tcpstack::{NetStack, StackConfig};
use wire::MacAddr;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

#[test]
fn new_stack_with_one_connection_allocates_at_most_16_kib() {
    let mut cfg = StackConfig::host(MacAddr::local(1), CLIENT_IP);
    cfg.static_arp.push((SERVER_IP, MacAddr::local(2)));
    let before = BYTES.load(Ordering::Relaxed);
    let mut stack = NetStack::new(cfg);
    let sock = stack.connect(SimTime::ZERO, SERVER_IP, 80).expect("ephemeral port");
    let used = BYTES.load(Ordering::Relaxed) - before;
    assert!(stack.tcb(sock).is_some());
    assert!(used <= 16 * 1024, "NetStack::new + connect allocated {used} B (limit 16 KiB)");
}
