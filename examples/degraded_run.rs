//! Graceful degradation under budget exhaustion: crash a machine holding
//! only one component's records, give the recovery policy zero retries,
//! and watch the supervisor hand back a `PartialOutput` instead of an
//! error — the untouched component certified `Healthy` with labels
//! bit-identical to the fault-free run, the struck component `Tainted`
//! and withheld, and the salvage overhead charged to the ledger.
//!
//! ```sh
//! cargo run --release --example degraded_run
//! ```

use component_stability::mpc::{graph_words, MpcError};
use component_stability::prelude::*;

fn run_luby_mis(g: &Graph, cluster: &mut Cluster) -> Result<Vec<u64>, MpcError> {
    let labels = StableOneShotIs.run(g, cluster)?;
    Ok(labels.into_iter().map(u64::from).collect())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small target component next to a larger rest; the tight space
    // floor spreads the records so some machines hold only rest records.
    let target_nodes = 8usize;
    let g = ops::disjoint_union(&[
        &generators::cycle(target_nodes),
        &ops::with_fresh_names(&generators::cycle(40), 500),
    ]);
    let seed = Seed(0xC0DE);
    let cfg = MpcConfig {
        min_space: 48,
        ..Default::default()
    };
    let template = Cluster::new(cfg, g.n(), graph_words(&g), seed);

    // Fault-free baseline: learn the labels and which machine holds only
    // the rest component (provenance tags disjoint from the target).
    let mut baseline_cluster = template.clone();
    let baseline = run_luby_mis(&g, &mut baseline_cluster)?;
    let target: std::collections::BTreeSet<_> = g.component_labels()[..target_nodes]
        .iter()
        .map(|&c| c as u32)
        .collect();
    let victim = (0..baseline_cluster.num_machines())
        .find(|&m| {
            let tags = baseline_cluster.machine_components(m);
            !tags.is_empty() && !tags.iter().any(|c| target.contains(c))
        })
        .expect("no machine holds only foreign records");
    println!(
        "baseline: {} rounds, machine {victim} holds only foreign components",
        baseline_cluster.stats().rounds
    );

    // Crash that machine with a zero-retry budget: recovery is impossible,
    // so the supervisor salvages what the fault never touched.
    let plan = FaultPlan::quiet(seed).crash(victim, 3);
    let run = run_supervised(
        &g,
        &template,
        &plan,
        RecoveryPolicy::restart(0),
        SupervisorConfig::default(),
        run_luby_mis,
    )?;

    match &run.outcome {
        SupervisedOutcome::Complete(_) => println!("run completed (no degradation needed)"),
        SupervisedOutcome::Degraded(partial) => {
            println!(
                "degraded: {} healthy node(s), {} tainted node(s)",
                partial.healthy_nodes, partial.tainted_nodes
            );
            for (&c, verdict) in &partial.verdicts {
                println!("  component {c}: {verdict:?}");
            }
            let identical =
                (0..target_nodes).all(|v| partial.labels[v].as_ref() == Some(&baseline[v]));
            println!(
                "  target labels vs fault-free run: {}",
                if identical {
                    "bit-identical"
                } else {
                    "DIVERGED"
                }
            );
            println!(
                "  salvage overhead: {} recovery round(s), {} recovery word(s)",
                run.stats.recovery_rounds, run.stats.recovery_words
            );
        }
    }
    for ev in &run.events {
        println!("  event: {ev}");
    }
    Ok(())
}
