//! MAD-MPI and baseline MPI engines on the simulated cluster.
//!
//! The paper compares three MPI stacks on an InfiniBand cluster of
//! `borderline`-class nodes (§V-B/C):
//!
//! * **MAD-MPI** — NewMadeleine + PIOMan: communication progresses in the
//!   background. The engine's poll is a `pioman` repeat task in the Global
//!   Queue of the node's [`TaskManager`], which Algorithm 1
//!   ([`TaskManager::schedule`]) runs at every scheduler keypoint (idle
//!   cores, context switches, timers); receivers *block* on a condition
//!   instead of polling. The DES charges nothing yet for the keypoint's
//!   `pioman` work, only for the engine's own costs;
//! * **MVAPICH2** and **OpenMPI** — RDMA-read rendezvous, progress only
//!   inside MPI calls; every thread sitting in `MPI_Recv`/`MPI_Wait` spins
//!   on the NIC.
//!
//! [`MpiImpl`] selects the behaviour; [`SimCluster`] builds the paper's
//! testbed, two nodes on one rail (per-node thread scheduler, task manager
//! and communication engine), wired accordingly. The experiment drivers
//! live in [`overlap`] (Figs. 5–7) and [`mtlat`] (Fig. 4).

#![warn(missing_docs)]

use newmadeleine::{CommEngine, EngineConfig, ReqHandle};
use piom_des::{Sim, SimTime};
use piom_machine::threads::{CondId, Keypoint, Step, ThreadSched};
use piom_net::{NetParams, Network};
use pioman::{presets, TaskManager, TaskStatus, Topology};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

pub mod mtlat;
pub mod overlap;

/// Which MPI implementation's behaviour to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiImpl {
    /// NewMadeleine + PIOMan ("MAD-MPI" / "PIOMan" in the figures).
    MadMpi,
    /// MVAPICH2-class baseline: RDMA-read rendezvous, poll-in-call only.
    MvapichLike,
    /// OpenMPI-class baseline: same progress model, slightly different
    /// per-call costs.
    OpenMpiLike,
}

impl MpiImpl {
    /// All three, in the figures' legend order.
    pub const ALL: [MpiImpl; 3] = [MpiImpl::MvapichLike, MpiImpl::OpenMpiLike, MpiImpl::MadMpi];

    /// Legend name used by the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            MpiImpl::MadMpi => "PIOMan",
            MpiImpl::MvapichLike => "MVAPICH",
            MpiImpl::OpenMpiLike => "OpenMPI",
        }
    }

    /// Does this implementation progress communication in the background?
    pub fn background_progress(self) -> bool {
        matches!(self, MpiImpl::MadMpi)
    }

    /// Engine configuration for this implementation.
    pub fn engine_config(self) -> EngineConfig {
        match self {
            MpiImpl::MadMpi => EngineConfig::newmadeleine(),
            MpiImpl::MvapichLike | MpiImpl::OpenMpiLike => EngineConfig::baseline_mpi(),
        }
    }

    /// CPU cost of one progress-poll iteration inside an MPI call.
    pub fn poll_cpu(self) -> SimTime {
        match self {
            MpiImpl::MadMpi => SimTime::from_ns(150),
            MpiImpl::MvapichLike => SimTime::from_ns(200),
            MpiImpl::OpenMpiLike => SimTime::from_ns(320),
        }
    }

    /// Poll cost when `spinners` threads are concurrently spinning in MPI
    /// calls on the same node. Every poll walks the completion queue under
    /// the library's lock, so each additional spinner stretches everyone's
    /// iteration (the "concurrency between the threads that wait for
    /// incoming messages and keep polling the network" of §V-B).
    pub fn poll_cpu_contended(self, spinners: usize) -> SimTime {
        let base = self.poll_cpu();
        base.scale(1.0 + spinners as f64 * 0.6)
    }
}

/// One node of the simulated cluster.
pub struct NodeCtx {
    /// The node's thread scheduler.
    pub sched: ThreadSched,
    /// The node's communication engine.
    pub engine: CommEngine,
    /// The node's PIOMan task manager. On a MAD-MPI node it holds the
    /// engine's poll task; on a baseline node it holds nothing.
    pub mgr: Arc<TaskManager>,
}

/// The paper's testbed, simulated: two nodes on one rail, ready to run MPI
/// benchmarks.
pub struct SimCluster {
    /// Per-node scheduler and engine.
    pub nodes: Vec<NodeCtx>,
    /// The implementation being simulated.
    pub impl_: MpiImpl,
}

impl SimCluster {
    /// Builds two `borderline`-class machines linked by one
    /// InfiniBand-class rail, configured for `impl_`.
    ///
    /// Every node gets a [`TaskManager`] over its own `borderline`
    /// topology. For [`MpiImpl::MadMpi`], the node's engine poll is a
    /// repeat task with the whole node as its cpuset, so it sits in the
    /// Global Queue, and every scheduler keypoint runs Algorithm 1
    /// ([`TaskManager::schedule`]) on its core: the PIOMan hook. The DES
    /// charges nothing for that `pioman` work yet. The baselines get an
    /// empty manager and no hook: their only progress is polling inside
    /// MPI calls.
    pub fn new(impl_: MpiImpl) -> SimCluster {
        let net = Network::new(2, 1, NetParams::infiniband());
        let nodes = (0..2)
            .map(|node| {
                let topo: Arc<Topology> = presets::borderline().into();
                let sched = ThreadSched::new(topo.n_cores());
                let mgr = TaskManager::new(topo);
                let engine = CommEngine::new(node, net.clone(), impl_.engine_config());
                if impl_.background_progress() {
                    // A task body must be `Send` and the `Sim` is not: the
                    // poll task raises `due`, and the hook polls for it at
                    // the same instant. The DES is one thread, so the flag
                    // publishes nothing and `Relaxed` suffices.
                    let due = Arc::new(AtomicBool::new(false));
                    let raise = due.clone();
                    mgr.task(move |_| {
                        raise.store(true, Relaxed);
                        TaskStatus::Again
                    })
                    .repeat()
                    .spawn();
                    let (m, e) = (mgr.clone(), engine.clone());
                    sched.set_hook(Rc::new(move |sim, core, _k: Keypoint| {
                        m.schedule(core);
                        if due.swap(false, Relaxed) {
                            e.poll(sim);
                        }
                    }));
                }
                NodeCtx { sched, engine, mgr }
            })
            .collect();
        SimCluster { nodes, impl_ }
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.nodes[0].mgr.topology().n_cores()
    }
}

/// How a thread waits for one request inside an MPI call, one
/// thread-logic step at a time.
///
/// * MAD-MPI: block on a condition that the request's completion
///   notifies (the paper's "blocking condition", §V-B); the node's
///   keypoints do the progress.
/// * Baselines: poll the engine, then check; an unfinished iteration takes
///   the caller's spin step. Polling inside the call is the only progress
///   these implementations make.
pub(crate) struct Waiter {
    req: ReqHandle,
    engine: CommEngine,
    sched: ThreadSched,
    impl_: MpiImpl,
    /// The condition the completion notifies, once registered (MAD-MPI).
    cond: Option<CondId>,
}

impl Waiter {
    pub(crate) fn new(
        req: ReqHandle,
        engine: CommEngine,
        sched: ThreadSched,
        impl_: MpiImpl,
    ) -> Waiter {
        Waiter {
            req,
            engine,
            sched,
            impl_,
            cond: None,
        }
    }

    /// One wait iteration. Returns `None` when the request is complete,
    /// otherwise the step the thread takes before retrying; `spin` is that
    /// step on a baseline.
    pub(crate) fn step(&mut self, sim: &mut Sim, spin: impl FnOnce() -> Step) -> Option<Step> {
        if !self.impl_.background_progress() {
            self.engine.poll(sim);
            return (!self.req.is_complete()).then(spin);
        }
        let cond = match self.cond {
            Some(cond) => cond,
            None => {
                let cond = self.sched.new_cond();
                let sched = self.sched.clone();
                self.req
                    .on_complete(sim, move |sim| sched.notify(sim, cond));
                *self.cond.insert(cond)
            }
        };
        (!self.req.is_complete()).then_some(Step::Block(cond))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use newmadeleine::ReqHandle;
    use piom_des::Sim;
    use piom_machine::threads::Step;
    use std::cell::Cell;

    fn four() -> Bytes {
        Bytes::from(vec![0; 4])
    }

    #[test]
    fn madmpi_progresses_without_app_polling() {
        // With PIOMan hooks, a message completes while the app does nothing:
        // idle cores poll the engine.
        let cluster = SimCluster::new(MpiImpl::MadMpi);
        let mut sim = Sim::new();
        let r: ReqHandle = cluster.nodes[1].engine.irecv(&mut sim, 0, 1);
        cluster.nodes[0].engine.isend_bytes(&mut sim, 1, 1, four());
        // Park one perpetually-blocked thread per node so the schedulers
        // keep idling (and hence polling) forever.
        for n in 0..2 {
            let cond = cluster.nodes[n].sched.new_cond();
            cluster.nodes[n]
                .sched
                .spawn(&mut sim, 0, Box::new(move |_| Step::Block(cond)));
        }
        sim.run_until(SimTime::from_us(100));
        assert!(
            r.is_complete(),
            "idle-core polling should complete the recv"
        );
        assert!(
            cluster.nodes[1].mgr.stats().total_executed() > 0,
            "the node's TaskManager ran the poll task"
        );
    }

    #[test]
    fn baseline_needs_explicit_polling() {
        let cluster = SimCluster::new(MpiImpl::MvapichLike);
        let mut sim = Sim::new();
        let r = cluster.nodes[1].engine.irecv(&mut sim, 0, 1);
        cluster.nodes[0].engine.isend_bytes(&mut sim, 1, 1, four());
        for n in 0..2 {
            let cond = cluster.nodes[n].sched.new_cond();
            cluster.nodes[n]
                .sched
                .spawn(&mut sim, 0, Box::new(move |_| Step::Block(cond)));
        }
        sim.run_until(SimTime::from_us(100));
        assert!(
            !r.is_complete(),
            "baseline has no background progress: nothing polls"
        );
        assert_eq!(cluster.nodes[1].mgr.stats().total_executed(), 0);
        cluster.nodes[1].engine.poll(&mut sim);
        assert!(r.is_complete());
    }

    #[test]
    fn wait_loop_in_call_progresses_baseline() {
        // A thread spinning poll+compute inside an "MPI call" completes the
        // request for the baselines.
        let cluster = SimCluster::new(MpiImpl::OpenMpiLike);
        let mut sim = Sim::new();
        let r = cluster.nodes[1].engine.irecv(&mut sim, 0, 1);
        cluster.nodes[0].engine.isend_bytes(&mut sim, 1, 1, four());
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        let d = done_at.clone();
        let engine = cluster.nodes[1].engine.clone();
        let req = r.clone();
        let poll_cpu = cluster.impl_.poll_cpu();
        cluster.nodes[1].sched.spawn(
            &mut sim,
            0,
            Box::new(move |sim| {
                engine.poll(sim);
                if req.is_complete() {
                    d.set(sim.now());
                    Step::Exit
                } else {
                    Step::Compute(poll_cpu)
                }
            }),
        );
        sim.run_until(SimTime::from_ms(1));
        assert!(r.is_complete());
        assert!(done_at.get() > SimTime::ZERO);
    }

    #[test]
    fn waiter_polls_then_checks_or_blocks_until_completion() {
        // Baseline: the message already sits at the NIC, so the first
        // iteration's poll completes the receive and no spin step is taken.
        let cluster = SimCluster::new(MpiImpl::MvapichLike);
        let mut sim = Sim::new();
        let node = &cluster.nodes[1];
        let r = node.engine.irecv(&mut sim, 0, 1);
        cluster.nodes[0].engine.isend_bytes(&mut sim, 1, 1, four());
        sim.run_until(SimTime::from_us(100));
        assert!(!r.is_complete(), "nothing polled yet");
        let mut w = Waiter::new(
            r.clone(),
            node.engine.clone(),
            node.sched.clone(),
            cluster.impl_,
        );
        assert!(w.step(&mut sim, || panic!("spun")).is_none());
        assert!(r.is_complete());

        // MAD-MPI: the first iteration blocks on a condition, and the
        // completion wakes the thread into an iteration that returns.
        let cluster = SimCluster::new(MpiImpl::MadMpi);
        let mut sim = Sim::new();
        let node = &cluster.nodes[1];
        let r = node.engine.irecv(&mut sim, 0, 1);
        let mut w = Waiter::new(r, node.engine.clone(), node.sched.clone(), cluster.impl_);
        let blocked = Rc::new(Cell::new(false));
        let woke = Rc::new(Cell::new(false));
        let (b, k) = (blocked.clone(), woke.clone());
        node.sched.spawn(
            &mut sim,
            0,
            Box::new(move |sim| match w.step(sim, || panic!("spun")) {
                Some(step) => {
                    assert!(matches!(step, Step::Block(_)) && !b.replace(true));
                    step
                }
                None => {
                    k.set(true);
                    Step::Exit
                }
            }),
        );
        sim.run_until(SimTime::from_us(10));
        assert!(blocked.get() && !woke.get());
        cluster.nodes[0].engine.isend_bytes(&mut sim, 1, 1, four());
        sim.run_until(SimTime::from_us(100));
        assert!(woke.get(), "the completion woke the waiting thread");
    }

    #[test]
    fn labels_and_config_mapping() {
        assert_eq!(MpiImpl::MadMpi.label(), "PIOMan");
        assert!(MpiImpl::MadMpi.background_progress());
        assert!(!MpiImpl::MvapichLike.background_progress());
        assert!(MpiImpl::MvapichLike.engine_config().rdma_rendezvous);
        assert!(!MpiImpl::MadMpi.engine_config().rdma_rendezvous);
    }
}
