//! The simulated NIC against a sequential model of its send engine.
//!
//! Each (node, rail) engine streams one packet at a time, FIFO: a packet
//! starts at `max(send time, the engine's previous finish)`, leaves the
//! engine `occupancy() + byte_time(size)` later, and arrives `latency()`
//! after that. A random send script is played through [`Network`] and
//! through that model; every arrival time, the per-(src, rail) delivery
//! order and [`Network::rail_eta`] around every send must agree.
//!
//! Some sends land exactly on a packet's transmit-done instant. Every send
//! event is scheduled before the run, so at that instant the send runs
//! before the pending transmit-done event: the engine is still busy then,
//! although `busy_until == now`.

use piom_des::{Sim, SimTime};
use piom_net::{Message, NetParams, Network};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const NODES: usize = 3;
const RAILS: usize = 2;

/// When a send happens, relative to the script's previous send.
#[derive(Debug, Clone, Copy)]
enum When {
    /// This many nanoseconds after the previous send.
    After(u64),
    /// At the same instant as the previous send.
    Same,
    /// At one of the engine's transmit-done instants not before the
    /// previous send (the `n`-th such instant, cyclically), else at the
    /// previous send's instant.
    OnDone(usize),
}

/// One scripted send: source, destination offset from the source, rail,
/// payload size and send time.
type Send = (usize, usize, usize, usize, When);

fn arb_send() -> impl Strategy<Value = Send> {
    let when = (0u8..3, 0u64..3_000).prop_map(|(kind, n)| match kind {
        0 => When::After(n),
        1 => When::Same,
        _ => When::OnDone(n as usize % 8),
    });
    (0..NODES, 1..NODES, 0..RAILS, 0usize..6_000, when)
}

/// What the model predicts for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expect {
    /// Send time.
    at: SimTime,
    /// `rail_eta` just before the send: when the engine drains.
    eta_before: SimTime,
    /// `rail_eta` just after it: when this packet leaves the engine.
    eta_after: SimTime,
    /// Arrival time at the destination.
    arrival: SimTime,
}

/// Plays `script` through the sequential engine model.
fn model(p: &NetParams, script: &[Send]) -> Vec<Expect> {
    // Per engine: the finish instants of every packet so far, in order.
    let mut done: Vec<Vec<SimTime>> = vec![Vec::new(); NODES * RAILS];
    let mut last = SimTime::ZERO;
    script
        .iter()
        .map(|&(src, _, rail, size, when)| {
            let engine = &mut done[src * RAILS + rail];
            let at = match when {
                When::After(ns) => last + SimTime::from_ns(ns),
                When::Same => last,
                When::OnDone(n) => {
                    let ahead: Vec<SimTime> =
                        engine.iter().copied().filter(|&t| t >= last).collect();
                    ahead.get(n % ahead.len().max(1)).copied().unwrap_or(last)
                }
            };
            last = at;
            let drain = engine.last().copied().unwrap_or(SimTime::ZERO).max(at);
            let finish = drain + p.occupancy() + p.byte_time(size);
            engine.push(finish);
            Expect {
                at,
                eta_before: drain,
                eta_after: finish,
                arrival: finish + p.latency(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_nic_matches_its_sequential_model(
        script in proptest::collection::vec(arb_send(), 1..64),
    ) {
        let net = Network::new(NODES, RAILS, NetParams::infiniband());
        let expect = model(net.params(), &script);

        // Arrivals as (time, script index), in delivery order.
        let arrivals: Rc<RefCell<Vec<(SimTime, usize)>>> = Rc::default();
        for node in 0..NODES {
            for rail in 0..RAILS {
                let log = arrivals.clone();
                let rx = move |sim: &mut Sim, msg: Message| {
                    log.borrow_mut().push((sim.now(), msg.tag as usize));
                };
                net.nic(node, rail).set_rx_handler(Rc::new(rx));
            }
        }

        let mut sim = Sim::new();
        let etas: Rc<RefCell<Vec<(SimTime, SimTime)>>> = Rc::default();
        for (i, (&(src, off, rail, size, _), e)) in script.iter().zip(&expect).enumerate() {
            let (net, etas) = (net.clone(), etas.clone());
            sim.schedule_abs(e.at, move |sim| {
                let before = net.rail_eta(sim.now(), src, rail);
                let dst = (src + off) % NODES;
                let msg = Message { src, dst, rail, tag: i as u64, size, data: None };
                net.send(sim, msg);
                etas.borrow_mut().push((before, net.rail_eta(sim.now(), src, rail)));
            });
        }
        sim.run();

        let etas = etas.borrow();
        prop_assert_eq!(etas.len(), script.len());
        for (i, (&eta, e)) in etas.iter().zip(&expect).enumerate() {
            prop_assert_eq!(eta, (e.eta_before, e.eta_after), "rail_eta around send {}", i);
        }
        let arrivals = arrivals.borrow();
        prop_assert_eq!(arrivals.len(), script.len(), "every packet arrives once");
        let mut newest = [None; NODES * RAILS];
        for &(t, i) in arrivals.iter() {
            prop_assert_eq!(t, expect[i].arrival, "arrival of send {}", i);
            let (src, _, rail, _, _) = script[i];
            let prev = newest[src * RAILS + rail].replace(i);
            prop_assert!(prev < Some(i), "send {} overtook {:?} on ({}, {})", i, prev, src, rail);
        }
    }
}
