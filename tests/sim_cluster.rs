//! Integration: the simulated cluster stack (des + machine + net + newmad
//! + madmpi + harness) reproduces the paper's qualitative results.

use piom_suite::des::SimTime;
use piom_suite::madmpi::overlap::{run_overlap, ComputeSide};
use piom_suite::madmpi::{mtlat, MpiImpl};

#[test]
fn figure4_shape_pioman_flat_baseline_climbs() {
    let threads = [1usize, 8, 64];
    let mv: Vec<f64> = threads
        .iter()
        .map(|&t| mtlat::run_mtlat(MpiImpl::MvapichLike, t, 40, 3))
        .collect();
    let pm: Vec<f64> = threads
        .iter()
        .map(|&t| mtlat::run_mtlat(MpiImpl::MadMpi, t, 40, 3))
        .collect();
    // PIOMan: flat within 2x across two orders of magnitude of threads.
    assert!(pm[2] < 2.0 * pm[0], "PIOMan not flat: {pm:?}");
    // Baseline: climbs by more than 3x and ends above PIOMan.
    assert!(mv[2] > 3.0 * mv[0], "baseline did not climb: {mv:?}");
    assert!(mv[2] > 2.0 * pm[2], "no crossover at 64 threads");
}

#[test]
fn figure6_shape_receiver_overlap_gap() {
    // At T ~= transfer time, PIOMan hides the 1 MB transfer; baselines pay
    // it serially after the compute.
    let t = SimTime::from_us(1000);
    let pm = run_overlap(MpiImpl::MadMpi, 1 << 20, t, ComputeSide::Receiver);
    let mv = run_overlap(MpiImpl::MvapichLike, 1 << 20, t, ComputeSide::Receiver);
    assert!(pm > 0.9, "PIOMan receiver-side overlap: {pm}");
    assert!(mv < 0.65, "baseline receiver-side overlap: {mv}");
}

#[test]
fn figure5_shape_everyone_overlaps_sender_side() {
    let t = SimTime::from_us(150);
    for impl_ in MpiImpl::ALL {
        let r = run_overlap(impl_, 32 * 1024, t, ComputeSide::Sender);
        assert!(r > 0.75, "{}: sender-side overlap {r}", impl_.label());
    }
}

#[test]
fn harness_reports_are_complete() {
    for what in piom_harness::EXPERIMENTS {
        if what == "all" || what == "fig4" || what == "fig5" || what == "fig6" || what == "fig7" {
            continue; // covered by the quick checks above; `all` is slow
        }
        let report = piom_harness::run(what).expect("known experiment");
        assert!(!report.trim().is_empty(), "{what} produced no output");
    }
    // Spot-check the tables' key structure.
    let t2 = piom_harness::run("table2").unwrap();
    assert!(t2.contains("global queue (16 cores)"));
    assert!(t2.contains("task distribution"));
}

#[test]
fn tables_hold_their_ordering_end_to_end() {
    use piom_suite::machine::simsched::microbench;
    use piom_suite::machine::CostModel;
    use piom_suite::topology::presets;
    let topo = presets::borderline();
    let cost = CostModel::borderline();
    let core0 = microbench(&topo, &cost, topo.core_node(0), 200, 1).mean_ns();
    let chip = microbench(
        &topo,
        &cost,
        topo.nodes_at_level(piom_suite::topology::Level::Chip)[0],
        200,
        1,
    )
    .mean_ns();
    let global = microbench(&topo, &cost, topo.root(), 200, 1).mean_ns();
    assert!(core0 < chip && chip < global, "{core0} {chip} {global}");
}
