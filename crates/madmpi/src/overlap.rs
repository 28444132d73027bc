//! The communication/computation overlap benchmark (paper Figs. 5–7).
//!
//! Method of Shet et al. \[15\], as used in §V-C: post a non-blocking
//! operation, compute for `T`, then wait; the overlap ratio is
//! `T / T_total` where `T_total` is the time from the non-blocking call to
//! the return of the wait. A ratio near 1 means the transfer was fully
//! hidden behind the computation.
//!
//! The computing side is the experiment's variable: sender-side compute
//! (Fig. 5), receiver-side (Fig. 6), or both (Fig. 7).

use crate::{MpiImpl, SimCluster, Waiter};
use bytes::Bytes;
use newmadeleine::{CommEngine, ReqHandle};
use piom_des::{Sim, SimTime};
use piom_machine::threads::Step;
use std::cell::Cell;
use std::rc::Rc;

/// Which side computes between the non-blocking call and the wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeSide {
    /// Fig. 5: the sender computes.
    Sender,
    /// Fig. 6: the receiver computes.
    Receiver,
    /// Fig. 7: both sides compute.
    Both,
}

/// Spawns one side's thread on core 0 of `node`: post the operation
/// through `post`, compute for `compute` (none when zero), then wait;
/// `total` receives the time from the post to the wait's return.
fn spawn_side(
    sim: &mut Sim,
    cluster: &SimCluster,
    node: usize,
    compute: SimTime,
    total: Rc<Cell<Option<SimTime>>>,
    post: impl Fn(&mut Sim, &CommEngine) -> ReqHandle + 'static,
) {
    let engine = cluster.nodes[node].engine.clone();
    let sched = cluster.nodes[node].sched.clone();
    let impl_ = cluster.impl_;
    let mut started = SimTime::ZERO;
    let mut waiter: Option<Waiter> = None;
    cluster.nodes[node].sched.spawn(
        sim,
        0,
        Box::new(move |sim| match waiter.as_mut() {
            None => {
                started = sim.now();
                let req = post(sim, &engine);
                waiter = Some(Waiter::new(req, engine.clone(), sched.clone(), impl_));
                if compute > SimTime::ZERO {
                    Step::Compute(compute)
                } else {
                    // Wait from the next invocation on.
                    Step::Yield
                }
            }
            Some(w) => match w.step(sim, || Step::Compute(impl_.poll_cpu())) {
                Some(step) => step,
                None => {
                    total.set(Some(sim.now() - started));
                    Step::Exit
                }
            },
        }),
    );
}

/// Runs one overlap round and returns the measured ratio `T / T_total`
/// (0 when `T` is zero).
///
/// `size` is the message size (32 KB and 1 MB in the paper), `compute` the
/// injected computation time.
pub fn run_overlap(impl_: MpiImpl, size: usize, compute: SimTime, side: ComputeSide) -> f64 {
    overlap_on(&SimCluster::new(impl_), size, compute, side)
}

/// [`run_overlap`] on a given two-node cluster.
fn overlap_on(cluster: &SimCluster, size: usize, compute: SimTime, side: ComputeSide) -> f64 {
    let mut sim = Sim::new();
    let sender_total: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
    let recv_total: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
    let sender_compute = match side {
        ComputeSide::Receiver => SimTime::ZERO,
        ComputeSide::Sender | ComputeSide::Both => compute,
    };
    let receiver_compute = match side {
        ComputeSide::Sender => SimTime::ZERO,
        ComputeSide::Receiver | ComputeSide::Both => compute,
    };

    // Sender thread on node 0, receiver thread on node 1.
    let data = Bytes::from(vec![0u8; size]);
    spawn_side(
        &mut sim,
        cluster,
        0,
        sender_compute,
        sender_total.clone(),
        move |sim, engine| engine.isend_bytes(sim, 1, 1, data.clone()),
    );
    spawn_side(
        &mut sim,
        cluster,
        1,
        receiver_compute,
        recv_total.clone(),
        |sim, engine| engine.irecv(sim, 0, 1),
    );

    sim.run_until(SimTime::from_secs(5));
    let st = sender_total.get().expect("sender wait never returned");
    let rt = recv_total.get().expect("receiver wait never returned");
    let t_total = match side {
        ComputeSide::Sender => st,
        ComputeSide::Receiver => rt,
        ComputeSide::Both => st.max(rt),
    };
    if compute == SimTime::ZERO || t_total == SimTime::ZERO {
        return 0.0;
    }
    (compute.as_ns() as f64 / t_total.as_ns() as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB32: usize = 32 * 1024;
    const MB1: usize = 1 << 20;

    #[test]
    fn sender_side_overlap_works_for_everyone() {
        // Fig. 5's result: RDMA-read rendezvous lets even the baselines
        // overlap when the *sender* computes.
        for impl_ in MpiImpl::ALL {
            let r = run_overlap(impl_, KB32, SimTime::from_us(150), ComputeSide::Sender);
            assert!(
                r > 0.8,
                "{} sender-side overlap too low: {r}",
                impl_.label()
            );
        }
    }

    #[test]
    fn receiver_side_overlap_separates_pioman_from_baselines() {
        // Fig. 6's result: only PIOMan overlaps when the receiver computes.
        let compute = SimTime::from_us(1000);
        let pioman = run_overlap(MpiImpl::MadMpi, MB1, compute, ComputeSide::Receiver);
        let mvapich = run_overlap(MpiImpl::MvapichLike, MB1, compute, ComputeSide::Receiver);
        let openmpi = run_overlap(MpiImpl::OpenMpiLike, MB1, compute, ComputeSide::Receiver);
        assert!(pioman > 0.85, "PIOMan receiver overlap: {pioman}");
        assert!(mvapich < 0.62, "MVAPICH should not overlap: {mvapich}");
        assert!(openmpi < 0.62, "OpenMPI should not overlap: {openmpi}");
        // 1 MB takes ~900 µs: at T=1000 µs the no-overlap ratio is ~0.53.
        assert!(mvapich > 0.35, "sanity: ratio can't collapse: {mvapich}");
    }

    #[test]
    fn both_sides_follow_receiver_behaviour() {
        let compute = SimTime::from_us(1000);
        let pioman = run_overlap(MpiImpl::MadMpi, MB1, compute, ComputeSide::Both);
        let mvapich = run_overlap(MpiImpl::MvapichLike, MB1, compute, ComputeSide::Both);
        assert!(pioman > 0.85, "PIOMan both-sides overlap: {pioman}");
        assert!(mvapich < 0.65, "MVAPICH both-sides: {mvapich}");
    }

    #[test]
    fn ratio_grows_with_compute_time() {
        // As T grows past the transfer time, even no-overlap ratios climb
        // (T dominates T_total) — the curves' common asymptote.
        let r_small = run_overlap(
            MpiImpl::MvapichLike,
            KB32,
            SimTime::from_us(20),
            ComputeSide::Receiver,
        );
        let r_big = run_overlap(
            MpiImpl::MvapichLike,
            KB32,
            SimTime::from_us(200),
            ComputeSide::Receiver,
        );
        assert!(r_big > r_small, "no growth: {r_small} -> {r_big}");
    }

    #[test]
    fn every_pioman_poll_is_a_task_run() {
        // The PIOMan arm polls the engine only when the node's `pioman`
        // poll task ran: each manager ran at least one task per poll that
        // found nothing.
        let cluster = SimCluster::new(MpiImpl::MadMpi);
        let r = overlap_on(&cluster, KB32, SimTime::from_us(50), ComputeSide::Receiver);
        assert!(r > 0.0);
        for node in &cluster.nodes {
            let ran = node.mgr.stats().total_executed();
            let empty = node.engine.stats().empty_polls;
            assert!(empty > 0, "no keypoint polled in vain");
            assert!(ran >= empty, "{ran} task runs for {empty} empty polls");
        }
    }

    #[test]
    fn zero_compute_is_zero_ratio() {
        let r = run_overlap(MpiImpl::MadMpi, KB32, SimTime::ZERO, ComputeSide::Sender);
        assert_eq!(r, 0.0);
    }
}
