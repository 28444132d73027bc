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

use crate::{MpiImpl, SimCluster, Waiter};
use bytes::Bytes;
use piom_des::rng::SplitMix64;
use piom_des::stats::OnlineStats;
use piom_des::{Sim, SimTime};
use piom_machine::threads::Step;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Runs the Fig. 4 benchmark: `threads` receiver threads on node 1, one
/// sender thread on node 0, `rounds` round-robin pingpongs total. Returns
/// the mean one-way latency in microseconds (RTT/2, as OSU reports).
pub fn run_mtlat(impl_: MpiImpl, threads: usize, rounds: usize, seed: u64) -> f64 {
    assert!(threads > 0 && rounds > 0);
    let cluster = SimCluster::new(impl_);
    let mut sim = Sim::new();
    let cores = cluster.cores_per_node();
    // Every ping and reply shares these 4 bytes: no send allocates.
    let four = Bytes::from(vec![0u8; 4]);

    // --- Receiver threads on node 1, spread round-robin over cores -----
    for t in 0..threads {
        let engine = cluster.nodes[1].engine.clone();
        let sched = cluster.nodes[1].sched.clone();
        let impl_ = cluster.impl_;
        let tag = t as u64;
        let reply = four.clone();
        // Receiver state machine: post recv -> wait -> reply -> repeat.
        let mut waiter: Option<Waiter> = None;
        let mut spin_compute_next = true;
        let mut rng = SplitMix64::new(seed ^ ((t as u64 + 1) << 17));
        cluster.nodes[1].sched.spawn(
            &mut sim,
            t % cores,
            Box::new(move |sim| {
                let w = waiter.get_or_insert_with(|| {
                    let r = engine.irecv(sim, 0, tag);
                    Waiter::new(r, engine.clone(), sched.clone(), impl_)
                });
                // Baseline: spin in MPI_Recv. Each iteration pays the
                // completion-queue lock stretched by the other spinners,
                // then yields (sched_yield in the poll loop): the rotation
                // whose cost grows with the thread count.
                let spin = || {
                    spin_compute_next = !spin_compute_next;
                    if spin_compute_next {
                        return Step::Yield;
                    }
                    // Jitter desynchronizes the spinners' rotation from
                    // the sender's round-robin (real CQ walks vary).
                    Step::Compute(impl_.poll_cpu_contended(threads).scale(rng.jitter(0.35)))
                };
                w.step(sim, spin).unwrap_or_else(|| {
                    // Reply and repost.
                    engine.isend_bytes(sim, 0, 0x8000_0000 | tag, reply.clone());
                    waiter = None;
                    Step::Yield
                })
            }),
        );
    }

    // --- Sender thread on node 0, core 0 --------------------------------
    let rtts: Rc<RefCell<OnlineStats>> = Rc::new(RefCell::new(OnlineStats::new()));
    let finished = Rc::new(Cell::new(false));
    {
        let engine = cluster.nodes[0].engine.clone();
        let sched = cluster.nodes[0].sched.clone();
        let impl_ = cluster.impl_;
        let stats = rtts.clone();
        let finished = finished.clone();
        let mut round = 0usize;
        let mut sent_at = SimTime::ZERO;
        let mut waiter: Option<Waiter> = None;
        cluster.nodes[0].sched.spawn(
            &mut sim,
            0,
            Box::new(move |sim| {
                let w = match waiter.as_mut() {
                    Some(w) => w,
                    None if round >= rounds => {
                        finished.set(true);
                        sim.stop(); // receivers loop forever; end the run
                        return Step::Exit;
                    }
                    None => {
                        // Ping the next thread round-robin.
                        let t = (round % threads) as u64;
                        round += 1;
                        sent_at = sim.now();
                        engine.isend_bytes(sim, 1, t, four.clone());
                        let r = engine.irecv(sim, 1, 0x8000_0000 | t);
                        waiter.insert(Waiter::new(r, engine.clone(), sched.clone(), impl_))
                    }
                };
                w.step(sim, || Step::Compute(impl_.poll_cpu()))
                    .unwrap_or_else(|| {
                        stats.borrow_mut().push_time(sim.now() - sent_at);
                        waiter = None;
                        Step::Yield
                    })
            }),
        );
    }

    sim.run_until(SimTime::from_secs(60));
    assert!(
        finished.get(),
        "{} with {threads} threads did not finish {rounds} rounds in simulated budget",
        impl_.label()
    );
    let mean_rtt_ns = rtts.borrow().mean();
    mean_rtt_ns / 2.0 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_latency_is_microseconds() {
        for impl_ in MpiImpl::ALL {
            let l = run_mtlat(impl_, 1, 40, 11);
            assert!(
                (1.0..50.0).contains(&l),
                "{}: implausible 1-thread latency {l} µs",
                impl_.label()
            );
        }
    }

    #[test]
    fn baseline_latency_climbs_with_threads() {
        let l1 = run_mtlat(MpiImpl::MvapichLike, 1, 40, 11);
        let l32 = run_mtlat(MpiImpl::MvapichLike, 32, 40, 11);
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
        let l1 = run_mtlat(MpiImpl::MadMpi, 1, 40, 11);
        let l32 = run_mtlat(MpiImpl::MadMpi, 32, 40, 11);
        assert!(
            l32 < 2.0 * l1,
            "PIOMan latency should stay flat: 1T={l1} 32T={l32}"
        );
    }

    #[test]
    fn pioman_beats_baseline_at_high_thread_counts() {
        let pioman = run_mtlat(MpiImpl::MadMpi, 64, 30, 11);
        let mvapich = run_mtlat(MpiImpl::MvapichLike, 64, 30, 11);
        assert!(
            mvapich > 4.0 * pioman,
            "expected a wide gap at 64 threads: pioman={pioman} mvapich={mvapich}"
        );
    }
}
