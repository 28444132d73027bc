//! The OSU multi-threaded latency test (paper Fig. 4, §V-B).
//!
//! "This benchmark performs ping-pong with a single sender and multiple
//! receiver threads. The sending process sends a 4-byte message to the
//! receiver and waits for a reply. Each receiving thread calls `MPI_Recv`
//! and sends back a 4-byte reply."
//!
//! The mechanism under test is *how receiver threads wait*:
//!
//! * baselines: every thread spins inside `MPI_Recv`, polling the NIC; with
//!   more threads than cores, each poll loop only runs 1/k-th of the time
//!   and every rotation pays a context switch — latency climbs with the
//!   thread count;
//! * PIOMan: threads block on a condition; idle cores poll centrally and
//!   wake exactly the matched thread — latency stays flat, "even when this
//!   number exceeds the number of CPUs".

use crate::{MpiImpl, SimCluster};
use bytes::Bytes;
use piom_des::rng::SplitMix64;
use piom_des::stats::OnlineStats;
use piom_des::{Sim, SimTime};
use piom_machine::threads::Step;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Result of one multi-threaded latency run.
#[derive(Debug, Clone)]
pub struct MtLatResult {
    /// Number of receiver threads.
    pub threads: usize,
    /// Mean one-way latency in microseconds (RTT/2, as OSU reports).
    pub mean_latency_us: f64,
    /// Round-trip statistics in ns.
    pub rtt_stats: OnlineStats,
}

/// Runs the Fig. 4 benchmark: `threads` receiver threads on node 1, one
/// sender thread on node 0, `rounds` round-robin pingpongs total.
pub fn run_mtlat(impl_: MpiImpl, threads: usize, rounds: usize, seed: u64) -> MtLatResult {
    assert!(threads > 0 && rounds > 0);
    let cluster = SimCluster::new(impl_, 2, 1, seed);
    let mut sim = Sim::new();
    let cores = cluster.cores_per_node();
    // Every ping and reply shares these 4 bytes: no send allocates.
    let four = Bytes::from(vec![0u8; 4]);

    // --- Receiver threads on node 1, spread round-robin over cores -----
    for t in 0..threads {
        let engine = cluster.nodes[1].engine.clone();
        let sched = cluster.nodes[1].sched.clone();
        let impl_ = cluster.impl_;
        let core = t % cores;
        let cond = sched.new_cond();
        let tag = t as u64;
        let reply_tag = 0x8000_0000 | tag;
        let reply = four.clone();
        // Receiver state machine: post recv -> wait -> reply -> repeat.
        let req: Rc<RefCell<Option<newmadeleine::ReqHandle>>> = Rc::new(RefCell::new(None));
        let spin_compute_next = Rc::new(Cell::new(true));
        let mut rng = SplitMix64::new(seed ^ ((t as u64 + 1) << 17));
        cluster.nodes[1].sched.spawn(
            &mut sim,
            core,
            Box::new(move |sim, _| {
                if req.borrow().is_none() {
                    let r = engine.irecv(sim, 0, tag);
                    if impl_.background_progress() {
                        let sched = sched.clone();
                        r.on_complete(sim, move |sim| sched.notify(sim, cond));
                    }
                    *req.borrow_mut() = Some(r);
                }
                let done = req.borrow().as_ref().unwrap().is_complete();
                if done {
                    // Reply and repost.
                    engine.isend_bytes(sim, 0, reply_tag, reply.clone());
                    *req.borrow_mut() = None;
                    Step::Yield
                } else if impl_.background_progress() {
                    // PIOMan: blocking condition; idle cores progress.
                    Step::Block(cond)
                } else {
                    // Baseline: spin in MPI_Recv, polling the NIC. Each
                    // iteration pays the completion-queue lock stretched by
                    // the other spinners, then yields (sched_yield in the
                    // poll loop) — the rotation whose cost grows with the
                    // thread count.
                    engine.poll(sim);
                    if spin_compute_next.get() {
                        spin_compute_next.set(false);
                        // Jitter desynchronizes the spinners' rotation from
                        // the sender's round-robin (real CQ walks vary).
                        let cost = impl_.poll_cpu_contended(threads).scale(rng.jitter(0.35));
                        Step::Compute(cost)
                    } else {
                        spin_compute_next.set(true);
                        Step::Yield
                    }
                }
            }),
        );
    }

    // --- Sender thread on node 0, core 0 --------------------------------
    let rtt_stats: Rc<RefCell<OnlineStats>> = Rc::new(RefCell::new(OnlineStats::new()));
    let finished = Rc::new(Cell::new(false));
    {
        let engine = cluster.nodes[0].engine.clone();
        let sched = cluster.nodes[0].sched.clone();
        let impl_ = cluster.impl_;
        let stats = rtt_stats.clone();
        let finished = finished.clone();
        let cond = sched.new_cond();
        let mut round = 0usize;
        let mut sent_at = SimTime::ZERO;
        let reply: Rc<RefCell<Option<newmadeleine::ReqHandle>>> = Rc::new(RefCell::new(None));
        cluster.nodes[0].sched.spawn(
            &mut sim,
            0,
            Box::new(move |sim, _| {
                if reply.borrow().is_none() {
                    if round >= rounds {
                        finished.set(true);
                        sim.stop(); // receivers loop forever; end the run
                        return Step::Exit;
                    }
                    // Ping the next thread round-robin.
                    let t = (round % threads) as u64;
                    round += 1;
                    sent_at = sim.now();
                    engine.isend_bytes(sim, 1, t, four.clone());
                    let r = engine.irecv(sim, 1, 0x8000_0000 | t);
                    if impl_.background_progress() {
                        let sched = sched.clone();
                        r.on_complete(sim, move |sim| sched.notify(sim, cond));
                    }
                    *reply.borrow_mut() = Some(r);
                }
                let done = reply.borrow().as_ref().unwrap().is_complete();
                if done {
                    stats.borrow_mut().push_time(sim.now() - sent_at);
                    *reply.borrow_mut() = None;
                    Step::Yield
                } else if impl_.background_progress() {
                    Step::Block(cond)
                } else {
                    engine.poll(sim);
                    Step::Compute(impl_.poll_cpu())
                }
            }),
        );
    }

    sim.run_until(SimTime::from_secs(60));
    assert!(
        finished.get(),
        "{} with {threads} threads did not finish {rounds} rounds in simulated budget",
        impl_.label()
    );
    let rtt_stats = rtt_stats.borrow().clone();
    MtLatResult {
        threads,
        mean_latency_us: rtt_stats.mean() / 2.0 / 1000.0,
        rtt_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_latency_is_microseconds() {
        for impl_ in MpiImpl::ALL {
            let r = run_mtlat(impl_, 1, 40, 11);
            assert!(
                (1.0..50.0).contains(&r.mean_latency_us),
                "{}: implausible 1-thread latency {} µs",
                impl_.label(),
                r.mean_latency_us
            );
        }
    }

    #[test]
    fn baseline_latency_climbs_with_threads() {
        let l1 = run_mtlat(MpiImpl::MvapichLike, 1, 40, 11).mean_latency_us;
        let l32 = run_mtlat(MpiImpl::MvapichLike, 32, 40, 11).mean_latency_us;
        // The paper's Fig. 4 shows MVAPICH climbing steadily with the
        // thread count while PIOMan stays flat; at 32 threads the climb is
        // already a multiple of the single-thread latency.
        assert!(
            l32 > 2.2 * l1,
            "MVAPICH-like latency should climb: 1T={l1} 32T={l32}"
        );
    }

    #[test]
    fn pioman_latency_stays_flat_past_core_count() {
        let l1 = run_mtlat(MpiImpl::MadMpi, 1, 40, 11).mean_latency_us;
        let l32 = run_mtlat(MpiImpl::MadMpi, 32, 40, 11).mean_latency_us;
        assert!(
            l32 < 2.0 * l1,
            "PIOMan latency should stay flat: 1T={l1} 32T={l32}"
        );
    }

    #[test]
    fn pioman_beats_baseline_at_high_thread_counts() {
        let pioman = run_mtlat(MpiImpl::MadMpi, 64, 30, 11).mean_latency_us;
        let mvapich = run_mtlat(MpiImpl::MvapichLike, 64, 30, 11).mean_latency_us;
        assert!(
            mvapich > 4.0 * pioman,
            "expected a wide gap at 64 threads: pioman={pioman} mvapich={mvapich}"
        );
    }
}
