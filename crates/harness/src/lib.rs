//! Experiment regenerators: one function per table/figure of the paper.
//!
//! Each function returns its report as a `String` (so integration tests can
//! assert on structure); the `piom-harness` binary prints them. See
//! `EXPERIMENTS.md` at the repository root for paper-vs-measured notes.
//! `piom-harness all`'s output is committed as `FIGURES_pioman.txt`, and
//! the tier-1 test `committed_figures_reproduce_exactly` requires the
//! reports to match it byte for byte.

#![warn(missing_docs)]

use madmpi::overlap::{run_overlap, ComputeSide};
use madmpi::{mtlat, MpiImpl};
use piom_des::{Sim, SimTime};
use piom_machine::simsched::{bench_table, microbench};
use piom_machine::CostModel;
use piom_topology::{presets, Level, Topology};
use std::fmt::Write as _;

/// Iterations used for the microbenchmark tables.
pub const TABLE_ITERS: u64 = 400;
/// Pingpong rounds per point in Fig. 4.
pub const FIG4_ROUNDS: usize = 60;
/// Default deterministic seed.
pub const SEED: u64 = 42;

fn format_table(topo: &Topology, cost: &CostModel, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "(simulated; times in nanoseconds, mean over {TABLE_ITERS} rounds; task submitted by core #0)");
    let rows = bench_table(topo, cost, TABLE_ITERS, SEED);
    let _ = writeln!(
        out,
        "core            {}",
        (0..topo.n_cores())
            .map(|c| format!("#{c:<6}"))
            .collect::<String>()
    );
    for row in &rows {
        match row.level {
            Level::Core => {
                let vals: String = row
                    .entries
                    .iter()
                    .map(|(_, r)| format!("{:<7.0}", r.mean_ns()))
                    .collect();
                let _ = writeln!(out, "per-core queues {vals}");
            }
            Level::Machine => {
                let (_, r) = &row.entries[0];
                let _ = writeln!(
                    out,
                    "global queue ({} cores)  {:.0}",
                    topo.n_cores(),
                    r.mean_ns()
                );
                // The paper reports the skewed distribution here (§V-A).
                let per_node: Vec<String> = topo
                    .nodes_at_level(Level::NumaNode)
                    .iter()
                    .chain(topo.nodes_at_level(Level::Chip).iter())
                    .map(|id| {
                        let span = topo.node(*id).cpuset;
                        let total: u64 = span.iter().map(|c| r.executed_by_core[c]).sum();
                        format!(
                            "{} #{}: {:.0}%",
                            topo.node(*id).level,
                            topo.node(*id).ordinal,
                            100.0 * total as f64 / TABLE_ITERS as f64
                        )
                    })
                    .collect();
                if !per_node.is_empty() {
                    let _ = writeln!(out, "  task distribution: {}", per_node.join("  "));
                }
            }
            level => {
                let vals: String = row
                    .entries
                    .iter()
                    .map(|(id, r)| format!("#{}: {:<9.0}", topo.node(*id).ordinal, r.mean_ns()))
                    .collect();
                let cores_per = topo.node(row.entries[0].0).cpuset.count();
                let _ = writeln!(out, "{level} queues, {cores_per} cores  {vals}");
            }
        }
    }
    out
}

/// **Table I**: task-scheduling microbenchmark on `borderline`
/// (4-way dual-core, 8 cores).
pub fn table1() -> String {
    format_table(
        &presets::borderline(),
        &CostModel::borderline(),
        "TABLE I — micro-benchmark of task scheduling on a 4-way dual-core (borderline)",
    )
}

/// **Table II**: task-scheduling microbenchmark on `kwak`
/// (4-way quad-core, 16 cores, 4 NUMA nodes).
pub fn table2() -> String {
    format_table(
        &presets::kwak(),
        &CostModel::kwak(),
        "TABLE II — micro-benchmark of task scheduling on a 4-way quad-core (kwak)",
    )
}

/// **Fig. 1**: cross-flow aggregation over 2 NICs — throughput and packet
/// counts with the optimization layer on vs off.
pub fn fig1() -> String {
    use bytes::Bytes;
    use newmadeleine::{CommEngine, EngineConfig};
    use piom_net::{NetParams, Network};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "FIG. 1 — multiplexing messages across 2 NICs (4 flows x 64 messages x 1 KB)"
    );
    let _ = writeln!(
        out,
        "{:<14}{:>14}{:>16}{:>18}",
        "strategy", "wire packets", "completion (µs)", "msgs aggregated"
    );
    for (label, aggregation) in [("direct", false), ("aggregating", true)] {
        let net = Network::new(2, 2, NetParams::infiniband());
        let cfg = EngineConfig {
            aggregation,
            ..EngineConfig::newmadeleine()
        };
        let tx = CommEngine::new(0, net.clone(), cfg.clone());
        let rx = CommEngine::new(1, net.clone(), cfg);
        let mut sim = Sim::new();
        let mut recvs = Vec::new();
        let kib = Bytes::from(vec![0u8; 1024]);
        // 4 flows x 64 messages, interleaved round-robin like Fig. 1.
        for m in 0..64u64 {
            for flow in 0..4u64 {
                let tag = flow << 32 | m;
                recvs.push(rx.irecv(&mut sim, 0, tag));
                let (tx2, kib) = (tx.clone(), kib.clone());
                sim.schedule_abs(SimTime::from_ns(m * 50), move |sim| {
                    tx2.isend_bytes(sim, 1, tag, kib);
                });
            }
        }
        // Poll both sides at keypoint-like cadence.
        for k in 0..20_000u64 {
            let t = SimTime::from_ns(k * 200);
            let tx2 = tx.clone();
            let rx2 = rx.clone();
            sim.schedule_abs(t, move |sim| {
                tx2.poll(sim);
                rx2.poll(sim);
            });
        }
        sim.run();
        let done_at = recvs
            .iter()
            .map(|r| r.completed_at().expect("all delivered"))
            .max()
            .unwrap();
        let packets = net.nic(0, 0).tx_count() + net.nic(0, 1).tx_count();
        let _ = writeln!(
            out,
            "{:<14}{:>14}{:>16.1}{:>18}",
            label,
            packets,
            done_at.as_us_f64(),
            tx.stats().aggregated_messages
        );
    }
    out
}

/// **Figs. 2–3**: the topology trees the queues map onto.
pub fn fig2_fig3() -> String {
    let mut out = String::new();
    out.push_str("FIG. 2 — hierarchical lists mapped onto a machine topology (borderline)\n");
    out.push_str(&presets::borderline().render_ascii());
    out.push_str("\nFIG. 3 — topology of kwak\n");
    out.push_str(&presets::kwak().render_ascii());
    out
}

/// **Fig. 4**: multi-threaded latency vs number of receiver threads.
pub fn fig4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FIG. 4 — multi-threaded latency test (4-byte pingpong, simulated IB cluster)"
    );
    let _ = writeln!(
        out,
        "{:<10}{:>14}{:>14}",
        "threads", "MVAPICH (µs)", "PIOMan (µs)"
    );
    // The paper could not run OpenMPI on this benchmark: "despite the
    // thread-safety parameter [...] segmentation faults occurred" (§V-B).
    // Fig. 4 therefore has two curves, and so do we.
    for threads in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let mv = mtlat::run_mtlat(MpiImpl::MvapichLike, threads, FIG4_ROUNDS, SEED);
        let pm = mtlat::run_mtlat(MpiImpl::MadMpi, threads, FIG4_ROUNDS, SEED);
        let _ = writeln!(out, "{:<10}{:>14.2}{:>14.2}", threads, mv, pm);
    }
    out
}

fn overlap_figure(title: &str, side: ComputeSide) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for (size, label, computes) in [
        (
            32 * 1024,
            "32 KB",
            [0u64, 25, 50, 75, 100, 150, 200].as_slice(),
        ),
        (
            1 << 20,
            "1 MB",
            [0u64, 250, 500, 750, 1000, 1500, 2000].as_slice(),
        ),
    ] {
        let _ = writeln!(
            out,
            "  message size {label}: overlap ratio vs computation time (µs)"
        );
        let _ = writeln!(
            out,
            "  {:<12}{:>10}{:>10}{:>10}",
            "compute", "MVAPICH", "OpenMPI", "PIOMan"
        );
        let curves: Vec<Vec<f64>> = MpiImpl::ALL
            .iter()
            .map(|&impl_| {
                computes
                    .iter()
                    .map(|&u| run_overlap(impl_, size, SimTime::from_us(u), side))
                    .collect()
            })
            .collect();
        for (i, &c) in computes.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:<12}{:>10.2}{:>10.2}{:>10.2}",
                c, curves[0][i], curves[1][i], curves[2][i]
            );
        }
    }
    out
}

/// **Fig. 5**: overlap with computation on the sender side.
pub fn fig5() -> String {
    overlap_figure(
        "FIG. 5 — overlap performance (computation on sender side)",
        ComputeSide::Sender,
    )
}

/// **Fig. 6**: overlap with computation on the receiver side.
pub fn fig6() -> String {
    overlap_figure(
        "FIG. 6 — overlap performance (computation on receiver side)",
        ComputeSide::Receiver,
    )
}

/// **Fig. 7**: overlap with computation on both sides.
pub fn fig7() -> String {
    overlap_figure(
        "FIG. 7 — overlap performance (computation on both sides)",
        ComputeSide::Both,
    )
}

/// **Ablation**: hierarchical queues vs the naive single global list
/// (§III's "big-lock technique is likely not to scale up").
pub fn ablation_hierarchy() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION — hierarchical queues vs single global list (kwak, simulated)"
    );
    let topo = presets::kwak();
    let cost = CostModel::kwak();
    let local = microbench(&topo, &cost, topo.core_node(0), TABLE_ITERS, SEED);
    let numa = microbench(
        &topo,
        &cost,
        topo.nodes_at_level(Level::NumaNode)[0],
        TABLE_ITERS,
        SEED,
    );
    let global = microbench(&topo, &cost, topo.root(), TABLE_ITERS, SEED);
    let _ = writeln!(
        out,
        "{:<28}{:>12}{:>16}",
        "queue placement", "mean (ns)", "lock contended"
    );
    for (label, r) in [
        ("per-core (hierarchy leaf)", &local),
        ("per-NUMA (hierarchy mid)", &numa),
        ("global list (no hierarchy)", &global),
    ] {
        let _ = writeln!(
            out,
            "{:<28}{:>12.0}{:>16}",
            label,
            r.mean_ns(),
            r.lock_contended
        );
    }
    let _ = writeln!(
        out,
        "hierarchy speedup over global list: {:.1}x",
        global.mean_ns() / local.mean_ns()
    );
    out
}

/// **Scaling study** (extension): global-queue overhead vs core count —
/// quantifying §V-A's "the overhead appears to grow quickly with the number
/// of cores" beyond the paper's two machines.
pub fn scaling() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SCALING — global queue vs hierarchy as the core count grows (generic machine)"
    );
    let _ = writeln!(
        out,
        "{:<8}{:>16}{:>16}{:>12}",
        "cores", "per-core (ns)", "global (ns)", "ratio"
    );
    for numa in [1usize, 2, 4, 8, 16] {
        let topo = presets::symmetric(numa, 1, 4);
        let cost = CostModel::generic();
        let local = microbench(&topo, &cost, topo.core_node(0), 200, SEED).mean_ns();
        let global = microbench(&topo, &cost, topo.root(), 200, SEED).mean_ns();
        let _ = writeln!(
            out,
            "{:<8}{:>16.0}{:>16.0}{:>12.1}",
            topo.n_cores(),
            local,
            global,
            global / local
        );
    }
    out
}

/// Runs the experiment named `what` ("table1", "fig4", "all", ...).
/// Returns `None` for an unknown name.
pub fn run(what: &str) -> Option<String> {
    Some(match what {
        "table1" => table1(),
        "table2" => table2(),
        "fig1" => fig1(),
        "fig2" | "fig3" | "topology" => fig2_fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "ablation-hierarchy" => ablation_hierarchy(),
        "scaling" => scaling(),
        "all" => [
            table1(),
            table2(),
            fig1(),
            fig2_fig3(),
            fig4(),
            fig5(),
            fig6(),
            fig7(),
            ablation_hierarchy(),
            scaling(),
        ]
        .join("\n"),
        _ => return None,
    })
}

/// Names accepted by [`run`].
pub const EXPERIMENTS: [&str; 11] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "ablation-hierarchy",
    "scaling",
    "all",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_expected_rows() {
        let t1 = table1();
        assert!(t1.contains("per-core queues"));
        assert!(t1.contains("chip queues, 2 cores"));
        assert!(t1.contains("global queue (8 cores)"));
        let t2 = table2();
        assert!(t2.contains("numa queues, 4 cores"));
        assert!(t2.contains("global queue (16 cores)"));
        assert!(t2.contains("task distribution"));
    }

    #[test]
    fn fig1_shows_aggregation_win() {
        let f = fig1();
        assert!(f.contains("direct"));
        assert!(f.contains("aggregating"));
        // Parse the two packet counts: aggregating must use fewer packets.
        let counts: Vec<u64> = f
            .lines()
            .filter(|l| l.starts_with("direct") || l.starts_with("aggregating"))
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), 2);
        assert!(
            counts[1] < counts[0] / 2,
            "aggregation should slash packet count: {counts:?}"
        );
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("fig99").is_none());
        assert!(run("table1").is_some());
    }
}
