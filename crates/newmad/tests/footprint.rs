//! The message path's heap traffic: the allocations one steady-state
//! stream round makes, counted exactly.
//!
//! The round is the repo benchmark's `engine_stream` request: node 1 posts
//! 64 receives, node 0 sends 64 messages (per 16: 10 × 64 B, 3 × 4 KiB,
//! 2 × 64 KiB, 1 × 1 MiB) over a 2-node × 2-rail fabric, the simulation
//! runs to quiescence with a poll after every event that left a frame
//! behind, and the receiver takes every payload. The simulation is
//! deterministic, so the count is exact; a change that adds a per-packet
//! or per-message allocation moves it.
//!
//! A counting global allocator counts per thread; every test allocates on
//! its own thread only, so the tests run in parallel.

use bytes::{Bytes, Rope};
use newmadeleine::{CommEngine, EngineConfig, ReqHandle};
use piom_des::Sim;
use piom_net::{NetParams, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations this thread made (`realloc` counts as one).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations in [`ALLOCS`].
struct Counting;

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread local without a destructor, so updating it
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

const MSGS: u64 = 64;
const SIZES: [usize; 4] = [64, 4 << 10, 64 << 10, 1 << 20];
const GROUP: [usize; 16] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3];

struct Stream {
    sim: Sim,
    tx: CommEngine,
    rx: CommEngine,
    bufs: [Bytes; 4],
    recvs: Vec<ReqHandle>,
    sends: Vec<ReqHandle>,
    payloads: Vec<Option<Rope>>,
    rounds: u64,
}

/// Allocations of one round, by phase.
#[derive(Debug, PartialEq, Eq)]
struct Bill {
    /// 64 `irecv` + 64 `isend_bytes`, including their immediate flushes.
    post: usize,
    /// Events and polls until the simulation is quiescent.
    progress: usize,
    /// The receiver taking its payloads.
    take: usize,
}

impl Stream {
    fn new() -> Self {
        let net = Network::new(2, 2, NetParams::infiniband());
        let cfg = EngineConfig::newmadeleine();
        Stream {
            sim: Sim::new(),
            tx: CommEngine::new(0, net.clone(), cfg.clone()),
            rx: CommEngine::new(1, net, cfg),
            bufs: SIZES.map(|len| Bytes::from(vec![len as u8; len])),
            recvs: Vec::with_capacity(MSGS as usize),
            sends: Vec::with_capacity(MSGS as usize),
            payloads: Vec::with_capacity(MSGS as usize),
            rounds: 0,
        }
    }

    fn round(&mut self) -> Bill {
        let tag0 = self.rounds * MSGS;
        self.rounds += 1;
        self.recvs.clear();
        self.sends.clear();
        self.payloads.clear();
        let start = allocs();
        for t in tag0..tag0 + MSGS {
            self.recvs.push(self.rx.irecv(&mut self.sim, 0, t));
        }
        for (t, &class) in (tag0..tag0 + MSGS).zip(GROUP.iter().cycle()) {
            let data = self.bufs[class].clone();
            self.sends
                .push(self.tx.isend_bytes(&mut self.sim, 1, t, data));
        }
        let posted = allocs();
        while self.sim.step() {
            for e in [&self.rx, &self.tx] {
                if e.rx_backlog() > 0 {
                    e.poll(&mut self.sim);
                }
            }
        }
        let progressed = allocs();
        self.payloads
            .extend(self.recvs.iter().map(ReqHandle::payload));
        let taken = allocs();
        assert!(self.sends.iter().all(ReqHandle::is_complete));
        for (got, &class) in self.payloads.iter().zip(GROUP.iter().cycle()) {
            assert_eq!(got.as_ref().expect("delivered").len(), SIZES[class]);
        }
        Bill {
            post: posted - start,
            progress: progressed - posted,
            take: taken - progressed,
        }
    }
}

#[test]
fn a_steady_stream_round_makes_a_pinned_number_of_allocations() {
    let mut s = Stream::new();
    // Warm-up: every queue, table and event heap reaches its working
    // capacity, so the rounds after it allocate only per message.
    for _ in 0..8 {
        s.round();
    }
    let bill = s.round();
    assert_eq!(s.round(), bill, "steady state: every round costs the same");
    // 309 a round, by source (59 packets: 12 RTS, 12 CTS, 32 DATA, two
    // eager singletons and one 50-message aggregate):
    // - 128 request handles, one per `irecv` and `isend_bytes`;
    // - 59 frame headers, one `Bytes` each, plus the aggregate header's
    //   encoding buffer;
    // - 15 drain timers, boxed closures: 3 window slots, 12 two-sided
    //   sends;
    // - 24 for the 12 stripe plans: the plan and its per-rail loads;
    // - 12 chunk lists, one per receiver-side rendezvous;
    // - 2 part lists of the aggregate, encoded and decoded;
    // - 68 ropes of two or more segments, whose segments past the first
    //   live in a `VecDeque`: 34 header + payload frames, the aggregate's
    //   payload and frame (one allocation and four regrowths each), 12
    //   reassemblies and their 12 `payload()` clones.
    // The NIC's transmit-done and arrival events, the rendezvous tables
    // and the eager batch allocate nothing.
    assert_eq!(
        bill,
        Bill {
            post: 128 + 12 + 2 + 2 + 2,
            progress: 45 + 1 + 13 + 24 + 12 + 2 + (32 + 10 + 12),
            take: 12,
        }
    );
}

#[test]
fn empty_bytes_and_ropes_allocate_nothing() {
    let before = allocs();
    let b = Bytes::new();
    let r = Rope::new();
    let (b2, mut r2) = (b.clone(), r.clone());
    let head = r2.split_to(0);
    drop((b, r, b2, r2, head));
    assert_eq!(allocs(), before);
}
