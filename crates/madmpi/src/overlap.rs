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

use crate::{MpiImpl, SimCluster};
use bytes::Bytes;
use newmadeleine::{CommEngine, ReqHandle};
use piom_des::{Sim, SimTime};
use piom_machine::threads::{Step, ThreadSched};
use std::cell::{Cell, RefCell};
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

/// One measured point of an overlap curve.
#[derive(Debug, Clone, Copy)]
pub struct OverlapPoint {
    /// Computation time injected between post and wait.
    pub compute: SimTime,
    /// Measured overlap ratio `T / T_total` (0 when `T` is zero).
    pub ratio: f64,
}

/// Builds the wait behaviour for one request as thread-logic steps.
///
/// * MAD-MPI: check, then block on a condition; the completion callback
///   notifies it (the paper's "blocking condition", §V-B). Background
///   polling by idle cores does the progress.
/// * Baselines: spin `poll(); compute(poll_cpu)` inside the call — the only
///   place these implementations progress communication.
struct Waiter {
    req: ReqHandle,
    engine: CommEngine,
    sched: ThreadSched,
    impl_: MpiImpl,
    cond: piom_machine::threads::CondId,
    registered: bool,
}

impl Waiter {
    fn new(req: ReqHandle, engine: CommEngine, sched: ThreadSched, impl_: MpiImpl) -> Waiter {
        let cond = sched.new_cond();
        Waiter {
            req,
            engine,
            sched,
            impl_,
            cond,
            registered: false,
        }
    }

    /// One wait iteration. Returns `None` when the request is complete,
    /// otherwise the step the thread should take before retrying.
    fn step(&mut self, sim: &mut Sim) -> Option<Step> {
        if self.impl_.background_progress() {
            if !self.registered {
                self.registered = true;
                let sched = self.sched.clone();
                let cond = self.cond;
                self.req
                    .on_complete(sim, move |sim| sched.notify(sim, cond));
            }
            if self.req.is_complete() {
                None
            } else {
                Some(Step::Block(self.cond))
            }
        } else {
            self.engine.poll(sim);
            if self.req.is_complete() {
                None
            } else {
                Some(Step::Compute(self.impl_.poll_cpu()))
            }
        }
    }
}

/// Runs one overlap round and returns the measured ratio.
///
/// `size` is the message size (32 KB and 1 MB in the paper), `compute` the
/// injected computation time.
pub fn run_overlap(
    impl_: MpiImpl,
    size: usize,
    compute: SimTime,
    side: ComputeSide,
    seed: u64,
) -> f64 {
    let cluster = SimCluster::new(impl_, 2, 1, seed);
    let mut sim = Sim::new();

    let sender_total: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
    let recv_total: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));

    // --- Sender thread (node 0, core 0) -----------------------------
    {
        let engine = cluster.nodes[0].engine.clone();
        let sched = cluster.nodes[0].sched.clone();
        let total = sender_total.clone();
        let data = Bytes::from(vec![0u8; size]);
        let computes = matches!(side, ComputeSide::Sender | ComputeSide::Both);
        let mut phase = 0;
        let mut started = SimTime::ZERO;
        let waiter: Rc<RefCell<Option<Waiter>>> = Rc::new(RefCell::new(None));
        let impl_ = cluster.impl_;
        cluster.nodes[0].sched.spawn(
            &mut sim,
            0,
            Box::new(move |sim, _| {
                match phase {
                    0 => {
                        phase = 1;
                        started = sim.now();
                        let req = engine.isend_bytes(sim, 1, 1, data.clone());
                        *waiter.borrow_mut() =
                            Some(Waiter::new(req, engine.clone(), sched.clone(), impl_));
                        if computes && compute > SimTime::ZERO {
                            return Step::Compute(compute);
                        }
                        // Fall through to waiting on the next invocation.
                        Step::Yield
                    }
                    _ => match waiter.borrow_mut().as_mut().unwrap().step(sim) {
                        Some(step) => step,
                        None => {
                            total.set(Some(sim.now() - started));
                            Step::Exit
                        }
                    },
                }
            }),
        );
    }

    // --- Receiver thread (node 1, core 0) ---------------------------
    {
        let engine = cluster.nodes[1].engine.clone();
        let sched = cluster.nodes[1].sched.clone();
        let total = recv_total.clone();
        let computes = matches!(side, ComputeSide::Receiver | ComputeSide::Both);
        let mut phase = 0;
        let mut started = SimTime::ZERO;
        let waiter: Rc<RefCell<Option<Waiter>>> = Rc::new(RefCell::new(None));
        let impl_ = cluster.impl_;
        cluster.nodes[1].sched.spawn(
            &mut sim,
            0,
            Box::new(move |sim, _| match phase {
                0 => {
                    phase = 1;
                    started = sim.now();
                    let req = engine.irecv(sim, 0, 1);
                    *waiter.borrow_mut() =
                        Some(Waiter::new(req, engine.clone(), sched.clone(), impl_));
                    if computes && compute > SimTime::ZERO {
                        return Step::Compute(compute);
                    }
                    Step::Yield
                }
                _ => match waiter.borrow_mut().as_mut().unwrap().step(sim) {
                    Some(step) => step,
                    None => {
                        total.set(Some(sim.now() - started));
                        Step::Exit
                    }
                },
            }),
        );
    }

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

/// Sweeps an overlap curve over `computes`.
pub fn sweep(
    impl_: MpiImpl,
    size: usize,
    computes: &[SimTime],
    side: ComputeSide,
    seed: u64,
) -> Vec<OverlapPoint> {
    computes
        .iter()
        .map(|&c| OverlapPoint {
            compute: c,
            ratio: run_overlap(impl_, size, c, side, seed),
        })
        .collect()
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
            let r = run_overlap(impl_, KB32, SimTime::from_us(150), ComputeSide::Sender, 1);
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
        let pioman = run_overlap(MpiImpl::MadMpi, MB1, compute, ComputeSide::Receiver, 1);
        let mvapich = run_overlap(MpiImpl::MvapichLike, MB1, compute, ComputeSide::Receiver, 1);
        let openmpi = run_overlap(MpiImpl::OpenMpiLike, MB1, compute, ComputeSide::Receiver, 1);
        assert!(pioman > 0.85, "PIOMan receiver overlap: {pioman}");
        assert!(mvapich < 0.62, "MVAPICH should not overlap: {mvapich}");
        assert!(openmpi < 0.62, "OpenMPI should not overlap: {openmpi}");
        // 1 MB takes ~900 µs: at T=1000 µs the no-overlap ratio is ~0.53.
        assert!(mvapich > 0.35, "sanity: ratio can't collapse: {mvapich}");
    }

    #[test]
    fn both_sides_follow_receiver_behaviour() {
        let compute = SimTime::from_us(1000);
        let pioman = run_overlap(MpiImpl::MadMpi, MB1, compute, ComputeSide::Both, 2);
        let mvapich = run_overlap(MpiImpl::MvapichLike, MB1, compute, ComputeSide::Both, 2);
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
            3,
        );
        let r_big = run_overlap(
            MpiImpl::MvapichLike,
            KB32,
            SimTime::from_us(200),
            ComputeSide::Receiver,
            3,
        );
        assert!(r_big > r_small, "no growth: {r_small} -> {r_big}");
    }

    #[test]
    fn zero_compute_is_zero_ratio() {
        let r = run_overlap(MpiImpl::MadMpi, KB32, SimTime::ZERO, ComputeSide::Sender, 4);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn sweep_produces_monotone_x() {
        let xs = [10u64, 50, 100].map(SimTime::from_us);
        let pts = sweep(MpiImpl::MadMpi, KB32, &xs, ComputeSide::Sender, 5);
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].compute < w[1].compute));
    }
}
