//! Chaos sweep: seeded fault plans (crashes + stragglers) injected into
//! real algorithm runs, with checkpointed recovery. Prints, per algorithm,
//! how many plans fired a crash, the recovery overhead the ledger shows,
//! and whether every replay was bit-identical — determinism under faults,
//! demonstrated rather than asserted.
//!
//! ```sh
//! cargo run --release --example chaos_run
//! ```

use component_stability::algorithms::mpc_edge::BallGreedyColoringMpc;
use component_stability::mpc::{graph_words, ClusterEvent, DistributedGraph, MpcError};
use component_stability::prelude::*;

/// The swept algorithms, erased to a common label type.
struct Entry {
    name: &'static str,
    run: fn(&Graph, &mut Cluster) -> Result<Vec<u64>, MpcError>,
}

fn run_luby_mis(g: &Graph, cluster: &mut Cluster) -> Result<Vec<u64>, MpcError> {
    let labels = StableOneShotIs.run(g, cluster)?;
    Ok(labels.into_iter().map(u64::from).collect())
}

fn run_coloring(g: &Graph, cluster: &mut Cluster) -> Result<Vec<u64>, MpcError> {
    let labels = BallGreedyColoringMpc { radius: 3 }.run(g, cluster)?;
    Ok(labels.into_iter().map(|c| c as u64).collect())
}

fn run_cc_labels(g: &Graph, cluster: &mut Cluster) -> Result<Vec<u64>, MpcError> {
    let dg = DistributedGraph::distribute(g, cluster)?;
    let (labels, _) = dg.cc_labels(cluster)?;
    Ok(labels)
}

fn chaos_cluster(g: &Graph, seed: Seed) -> Cluster {
    let cfg = MpcConfig {
        min_space: 48,
        ..Default::default()
    };
    Cluster::new(cfg, g.n(), graph_words(g), seed)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = ops::disjoint_union(&[
        &generators::cycle(8),
        &ops::with_fresh_names(&generators::cycle(40), 500),
    ]);
    let shared = Seed(0xC0DE);
    let plans = 20u64;
    let entries = [
        Entry {
            name: "one-shot-luby-mis",
            run: run_luby_mis,
        },
        Entry {
            name: "ball-greedy-coloring",
            run: run_coloring,
        },
        Entry {
            name: "cc-labels",
            run: run_cc_labels,
        },
    ];

    println!(
        "{:<22} {:>6} {:>8} {:>12} {:>12} {:>10}",
        "algorithm", "plans", "crashes", "avg +rounds", "avg +words", "replay"
    );
    println!("{:-<76}", "");
    for entry in &entries {
        let mut baseline_cluster = chaos_cluster(&g, shared);
        let baseline = (entry.run)(&g, &mut baseline_cluster)?;
        let base = baseline_cluster.stats().clone();
        let machines = baseline_cluster.num_machines();

        let mut crashes = 0usize;
        let mut extra_rounds = 0usize;
        let mut extra_words = 0u64;
        let mut replay_ok = true;
        for p in 0..plans {
            let plan = FaultPlan::random(Seed(0xFA57).derive(p), machines, 3, 1, 1);
            let exec = || -> Result<_, MpcError> {
                let mut cluster = chaos_cluster(&g, shared);
                cluster.arm_faults(plan.clone(), RecoveryPolicy::restart(8));
                let labels = (entry.run)(&g, &mut cluster)?;
                Ok((labels, cluster))
            };
            let (la, ca) = exec()?;
            let (lb, cb) = exec()?;
            replay_ok &= la == lb && ca.stats() == cb.stats() && la == baseline;
            if ca
                .events()
                .iter()
                .any(|ev| matches!(ev, ClusterEvent::Recovery(_)))
            {
                crashes += 1;
                extra_rounds += ca.stats().rounds - base.rounds;
                extra_words += ca.stats().total_words - base.total_words;
            }
        }
        println!(
            "{:<22} {:>6} {:>8} {:>12.1} {:>12.1} {:>10}",
            entry.name,
            plans,
            crashes,
            extra_rounds as f64 / crashes.max(1) as f64,
            extra_words as f64 / crashes.max(1) as f64,
            if replay_ok { "identical" } else { "DIVERGED" }
        );
    }

    println!();
    println!("crash immunity (Definition 13 under the fault model):");
    let comp = generators::cycle(12);
    for (name, report) in [
        (
            "one-shot-luby-mis",
            verify_crash_immunity(&StableOneShotIs, &comp, 20, Seed(21))?,
        ),
        (
            "ball-greedy-coloring",
            verify_crash_immunity(&BallGreedyColoringMpc { radius: 3 }, &comp, 20, Seed(22))?,
        ),
    ] {
        println!(
            "  {:<22} {} crashes recovered, {} witnesses -> {}",
            name,
            report.crashes_recovered,
            report.witnesses.len(),
            if report.immune() {
                "immune"
            } else {
                "UNSTABLE UNDER CRASHES"
            }
        );
    }
    println!();
    println!(
        "reading: recovery is never free (the ledger charges every replayed \
         round and re-shipped\ncheckpoint word), yet the same seed and plan \
         reproduce the identical execution — faults\nare part of the \
         deterministic replay, and foreign-component crashes never leak into \
         a\ncomponent-stable output."
    );
    Ok(())
}
