//! Micro-benchmarks for the computational kernels (manual harness —
//! `criterion` is unavailable offline).
//!
//! These cover the pieces whose cost governs experiment wall-clock:
//! the simplex oracle LPs, state-space enumeration, Gibbs summaries
//! (the inner loop of the (P4) solver), the homogeneous fast path, and
//! the simulator event loop.
//!
//! ```text
//! cargo bench -p econcast-bench            # all benchmarks
//! cargo bench -p econcast-bench -- gibbs   # name filter
//! ```

use econcast_bench::timing::{run_benchmarks, Bench};
use econcast_core::{NodeParams, ProtocolConfig, ThroughputMode, Topology};
use econcast_oracle::{
    non_clique_groupput_bounds, oracle_anyput, oracle_groupput, oracle_throughput_for,
};
use econcast_sim::{SimConfig, Simulator};
use econcast_statespace::{
    gibbs::{summarize, summarize_naive, GibbsParams},
    HomogeneousP4, StateSpace,
};
use std::hint::black_box;

fn params() -> NodeParams {
    NodeParams::from_microwatts(10.0, 500.0, 500.0)
}

/// A heterogeneous served-shape instance: shared CC2500-like powers,
/// budgets spread over a decade (the certificate path of a cache miss).
fn served_nodes(n: usize) -> Vec<NodeParams> {
    (0..n)
        .map(|i| NodeParams::from_microwatts(5.0 + 45.0 * i as f64 / n as f64, 500.0, 450.0))
        .collect()
}

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let (served64, served16) = (served_nodes(64), served_nodes(16));
    let nodes10 = vec![params(); 10];
    let nodes10_b = nodes10.clone();
    let grid = Topology::square_grid(7);
    let nodes49 = vec![params(); 49];
    let eta10 = vec![3000.0; 10];
    let (gibbs_nodes, gibbs_eta) = (nodes10.clone(), eta10.clone());
    let (naive_nodes, naive_eta) = (nodes10.clone(), eta10.clone());

    let benches: Vec<Bench> = vec![
        Bench::new("oracle_groupput_p2_n10", move || {
            black_box(oracle_groupput(black_box(&nodes10)).throughput);
        }),
        Bench::new("oracle_anyput_p3_n10", move || {
            black_box(oracle_anyput(black_box(&nodes10_b)).throughput);
        }),
        Bench::new("oracle_p2_served_n64", move || {
            black_box(oracle_throughput_for(
                black_box(&served64),
                ThroughputMode::Groupput,
            ));
        }),
        Bench::new("oracle_p3_served_n16", move || {
            black_box(oracle_throughput_for(
                black_box(&served16),
                ThroughputMode::Anyput,
            ));
        }),
        Bench::new("non_clique_bounds_grid7x7", move || {
            black_box(non_clique_groupput_bounds(
                black_box(&nodes49),
                black_box(&grid),
            ));
        }),
        Bench::new("statespace_enumerate_n10", || {
            black_box(StateSpace::new(10).iter().count());
        }),
        Bench::new("gibbs_summary_n10", move || {
            black_box(summarize(&GibbsParams {
                nodes: black_box(&gibbs_nodes),
                eta: black_box(&gibbs_eta),
                sigma: 0.5,
                mode: ThroughputMode::Groupput,
            }));
        }),
        Bench::new("gibbs_summary_naive_n10", move || {
            black_box(summarize_naive(&GibbsParams {
                nodes: black_box(&naive_nodes),
                eta: black_box(&naive_eta),
                sigma: 0.5,
                mode: ThroughputMode::Groupput,
            }));
        }),
        Bench::new("homogeneous_p4_bisection_n50", || {
            black_box(
                HomogeneousP4::new(50, params(), 0.5, ThroughputMode::Groupput)
                    .solve()
                    .throughput,
            );
        }),
        Bench::new("simulator_clique5_50k_packets", || {
            let cfg = SimConfig::ideal_clique(
                5,
                params(),
                ProtocolConfig::capture_groupput(0.5),
                50_000.0,
                42,
            );
            black_box(Simulator::new(cfg).expect("valid").run().groupput);
        }),
        Bench::new("simulator_grid5x5_20k_packets", || {
            let mut cfg = SimConfig::ideal_clique(
                25,
                params(),
                ProtocolConfig::capture_groupput(0.5),
                20_000.0,
                42,
            );
            cfg.topology = Topology::square_grid(5);
            black_box(Simulator::new(cfg).expect("valid").run().groupput);
        }),
    ];
    run_benchmarks(benches, filter.as_deref());
}
