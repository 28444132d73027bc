//! Communication/computation overlap on the simulated cluster (Figs. 5-7).
//!
//! Posts a non-blocking 1 MB transfer, computes, waits - and reports how
//! much of the transfer hid behind the computation for PIOMan vs the
//! RDMA-read baselines, on the side of your choice.
//!
//! Run with: `cargo run --release --example overlap [sender|receiver|both]`

use piom_suite::des::SimTime;
use piom_suite::madmpi::overlap::{run_overlap, ComputeSide};
use piom_suite::madmpi::MpiImpl;

fn main() {
    let side = match std::env::args().nth(1).as_deref() {
        Some("sender") => ComputeSide::Sender,
        Some("both") => ComputeSide::Both,
        _ => ComputeSide::Receiver,
    };
    println!("overlap ratio, 1 MB message, compute on {side:?} side");
    println!(
        "{:<14}{:>10}{:>10}{:>10}",
        "compute (µs)", "MVAPICH", "OpenMPI", "PIOMan"
    );
    for us in [100u64, 250, 500, 750, 1000, 1500, 2000] {
        let t = SimTime::from_us(us);
        let row: Vec<f64> = MpiImpl::ALL
            .iter()
            .map(|&i| run_overlap(i, 1 << 20, t, side))
            .collect();
        println!("{:<14}{:>10.2}{:>10.2}{:>10.2}", us, row[0], row[1], row[2]);
    }
    println!("\n(shape to expect: all near 1.0 for sender-side; only PIOMan");
    println!(" climbs to 1.0 for receiver-side - the paper's headline result)");
}
