//! MAD-MPI and baseline MPI engines on the simulated cluster.
//!
//! The paper compares three MPI stacks on an InfiniBand cluster of
//! `borderline`-class nodes (§V-B/C):
//!
//! * **MAD-MPI** — NewMadeleine + PIOMan: communication progresses in the
//!   background because scheduler keypoints (idle cores, context switches,
//!   timers) poll the engine; receivers *block* on a condition instead of
//!   polling;
//! * **MVAPICH2** and **OpenMPI** — RDMA-read rendezvous, progress only
//!   inside MPI calls; every thread sitting in `MPI_Recv`/`MPI_Wait` spins
//!   on the NIC.
//!
//! [`MpiImpl`] selects the behaviour; [`SimCluster`] builds a two-node
//! cluster (network + per-node thread scheduler and communication engine)
//! wired accordingly. The experiment drivers live in
//! [`overlap`] (Figs. 5–7) and [`mtlat`] (Fig. 4).

#![warn(missing_docs)]

use newmadeleine::{CommEngine, EngineConfig};
use piom_des::SimTime;
use piom_machine::threads::{Keypoint, ThreadSched};
use piom_net::{NetParams, Network};
use piom_topology::presets;
use std::rc::Rc;

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
}

/// A two-node (or larger) simulated cluster ready to run MPI benchmarks.
pub struct SimCluster {
    /// Shared network fabric.
    pub net: Rc<Network>,
    /// Per-node scheduler and engine.
    pub nodes: Vec<NodeCtx>,
    /// The implementation being simulated.
    pub impl_: MpiImpl,
    /// Cores per node.
    cores: usize,
}

impl SimCluster {
    /// Builds a cluster of `n_nodes` `borderline`-class machines linked by
    /// InfiniBand-class rails, configured for `impl_`.
    ///
    /// For [`MpiImpl::MadMpi`], every node's scheduler keypoints poll that
    /// node's engine (the PIOMan hook); the baselines get no hook — their
    /// only progress is polling inside MPI calls.
    pub fn new(impl_: MpiImpl, n_nodes: usize, n_rails: usize) -> SimCluster {
        let net = Network::new(n_nodes, n_rails, NetParams::infiniband());
        let cores = presets::borderline().n_cores();
        let nodes = (0..n_nodes)
            .map(|node| {
                let sched = ThreadSched::new(cores);
                let engine = CommEngine::new(node, net.clone(), impl_.engine_config());
                if impl_.background_progress() {
                    // PIOMan: poll the engine at every scheduler keypoint.
                    let e = engine.clone();
                    sched.set_hook(Rc::new(move |sim, _core, _k: Keypoint| e.poll(sim)));
                }
                NodeCtx { sched, engine }
            })
            .collect();
        SimCluster {
            net,
            nodes,
            impl_,
            cores,
        }
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.cores
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
        let cluster = SimCluster::new(MpiImpl::MadMpi, 2, 1);
        let mut sim = Sim::new();
        let r: ReqHandle = cluster.nodes[1].engine.irecv(&mut sim, 0, 1);
        cluster.nodes[0].engine.isend_bytes(&mut sim, 1, 1, four());
        // Park one perpetually-blocked thread per node so the schedulers
        // keep idling (and hence polling) forever.
        for n in 0..2 {
            let cond = cluster.nodes[n].sched.new_cond();
            cluster.nodes[n]
                .sched
                .spawn(&mut sim, 0, Box::new(move |_, _| Step::Block(cond)));
        }
        sim.run_until(SimTime::from_us(100));
        assert!(
            r.is_complete(),
            "idle-core polling should complete the recv"
        );
    }

    #[test]
    fn baseline_needs_explicit_polling() {
        let cluster = SimCluster::new(MpiImpl::MvapichLike, 2, 1);
        let mut sim = Sim::new();
        let r = cluster.nodes[1].engine.irecv(&mut sim, 0, 1);
        cluster.nodes[0].engine.isend_bytes(&mut sim, 1, 1, four());
        for n in 0..2 {
            let cond = cluster.nodes[n].sched.new_cond();
            cluster.nodes[n]
                .sched
                .spawn(&mut sim, 0, Box::new(move |_, _| Step::Block(cond)));
        }
        sim.run_until(SimTime::from_us(100));
        assert!(
            !r.is_complete(),
            "baseline has no background progress: nothing polls"
        );
        cluster.nodes[1].engine.poll(&mut sim);
        assert!(r.is_complete());
    }

    #[test]
    fn wait_loop_in_call_progresses_baseline() {
        // A thread spinning poll+compute inside an "MPI call" completes the
        // request for the baselines.
        let cluster = SimCluster::new(MpiImpl::OpenMpiLike, 2, 1);
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
            Box::new(move |sim, _| {
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
    fn labels_and_config_mapping() {
        assert_eq!(MpiImpl::MadMpi.label(), "PIOMan");
        assert!(MpiImpl::MadMpi.background_progress());
        assert!(!MpiImpl::MvapichLike.background_progress());
        assert!(MpiImpl::MvapichLike.engine_config().rdma_rendezvous);
        assert!(!MpiImpl::MadMpi.engine_config().rdma_rendezvous);
    }
}
