//! Steady-state allocation accounting, behind the `alloc-count` feature:
//!
//! * the exact engine's route/intake/step/merge path allocates **nothing**
//!   per round once its arena buffers are warm — the only per-round
//!   allocations left are the ones the machine program itself makes;
//! * the scale workloads allocate **nothing** on a repetition at a fixed
//!   topology once the workspace is warm;
//! * a warm stream→labels pass of each scale kernel holds at most a set
//!   number of heap bytes per vertex at its high-water mark (the memory
//!   gate), and an input too large for the `u32` rank space is refused
//!   before its ingest allocates.
//!
//! Run with `cargo test -p csmpc-mpc --features alloc-count --test
//! steady_state_alloc`. Every measurement lives in one `#[test]` so the
//! process-wide counters are never read while another test thread runs.
#![cfg(feature = "alloc-count")]

use csmpc_graph::rng::Seed;
use csmpc_graph::StreamFamily;
use csmpc_mpc::phase::counting_alloc::{
    allocations, live_bytes, peak_bytes, reset_peak, CountingAllocator,
};
use csmpc_mpc::{scale, Cluster, MachineProgram, Message, MpcConfig, MpcError, ParallelismMode};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Each machine forwards one word to its successor every round — two heap
/// allocations per machine-round (the outbox `Vec` and its payload), and
/// nothing else.
struct RingForward {
    machines: usize,
}

impl MachineProgram for RingForward {
    fn round(&mut self, id: usize, _inbox: &[Message]) -> Vec<Message> {
        vec![Message {
            to: (id + 1) % self.machines,
            words: vec![id as u64],
        }]
    }

    fn storage_words(&self) -> usize {
        1
    }
}

fn sequential_cluster(n: usize, words: usize) -> Cluster {
    let cfg = MpcConfig {
        parallelism: ParallelismMode::Sequential,
        ..MpcConfig::with_phi(0.5)
    };
    Cluster::new(cfg, n, words, Seed(7))
}

/// Allocations for `rounds` engine rounds of the ring program on a fresh
/// cluster, along with the machine count used.
fn engine_allocs(rounds: usize) -> (u64, usize) {
    let mut cluster = sequential_cluster(64, 64);
    let m = cluster.num_machines();
    let mut machines: Vec<RingForward> = (0..m).map(|_| RingForward { machines: m }).collect();
    let initial = vec![Message {
        to: 0,
        words: vec![0],
    }];
    let before = allocations();
    let err = cluster
        .run_program(&mut machines, initial, rounds)
        .unwrap_err();
    assert!(matches!(err, MpcError::RoundLimitExceeded { .. }));
    (allocations() - before, m)
}

/// One stream→labels pass as `perfbench scale-1m` runs it, sequentially:
/// a fresh cluster, the ingest, then `kernel` (0 cc, 1 MIS, 2 coloring)
/// over a caller-held workspace.
fn stream_to_labels(kernel: usize, family: StreamFamily, ws: &mut scale::ScaleWorkspace) {
    let words = 2 * family.n() + 2 * family.m();
    let mut cluster = sequential_cluster(family.n(), words);
    let csr = scale::ingest(family, &mut cluster).unwrap();
    match kernel {
        0 => drop(scale::cc_labels(&mut cluster, &csr, ws).unwrap()),
        1 => drop(scale::luby_mis(&mut cluster, &csr, Seed(3), ws).unwrap()),
        _ => drop(scale::ball_coloring(&mut cluster, &csr, Seed(5), ws).unwrap()),
    }
}

#[test]
fn steady_state_rounds_and_repetitions_do_not_allocate() {
    // Engine: the allocation difference between a 60-round and a 30-round
    // run is exactly the program's own sends (2 allocations per
    // machine-round). The engine's plumbing — counting-sort scatter,
    // step results, component-tag propagation — reuses warm arenas and
    // contributes zero.
    let (short, m) = engine_allocs(30);
    let (long, _) = engine_allocs(60);
    let per_round_program = (2 * m) as u64;
    assert_eq!(
        long - short,
        30 * per_round_program,
        "engine rounds must allocate only what the program allocates"
    );

    // Scale workloads: a second repetition at fixed topology, with a warm
    // workspace, performs zero heap allocations on the sweep path. The
    // random tree's frontier shrinks unevenly from round to round; the
    // warm frontier and result buffers must still absorb it.
    for family in [
        StreamFamily::Cycle { n: 2048 },
        StreamFamily::RandomTree {
            n: 2048,
            seed: Seed(13),
        },
    ] {
        let words = 2 * family.n() + 2 * family.m();
        let mut cluster = sequential_cluster(family.n(), words);
        let mut ws = scale::ScaleWorkspace::new();
        let csr = scale::ingest(family, &mut cluster).unwrap();
        // Warm repetition: grows every workspace buffer to capacity.
        scale::cc_labels(&mut cluster, &csr, &mut ws).unwrap();
        scale::luby_mis(&mut cluster, &csr, Seed(3), &mut ws).unwrap();
        scale::ball_coloring(&mut cluster, &csr, Seed(5), &mut ws).unwrap();
        cluster.reset_for_repetition();
        let before = allocations();
        scale::cc_labels(&mut cluster, &csr, &mut ws).unwrap();
        scale::luby_mis(&mut cluster, &csr, Seed(3), &mut ws).unwrap();
        scale::ball_coloring(&mut cluster, &csr, Seed(5), &mut ws).unwrap();
        cluster.reset_for_repetition();
        assert_eq!(
            allocations() - before,
            0,
            "a warm scale repetition on {} must be allocation-free",
            family.name()
        );
    }

    // Fabric arena in isolation: once `buf` and the histogram/cursor/range
    // spines are warm, refilling the staging buffer from the previous
    // delivery (the engine's double-buffer pattern) and scattering again
    // allocates nothing — the counting sort itself is zero-alloc in steady
    // state.
    let machines = 8usize;
    let mut arena = csmpc_mpc::RouteArena::new(machines);
    let mut staging: Vec<Message> = (0..32)
        .map(|i| Message {
            to: i % machines,
            words: vec![i as u64; 3],
        })
        .collect();
    arena.scatter(&mut staging);
    let before = allocations();
    for _ in 0..10 {
        // Reclaim every delivered payload block into the retained staging
        // spine, then scatter the same shape again.
        for slot in 0..arena.buf.len() {
            let to = arena.buf[slot].to;
            staging.push(Message {
                to,
                words: std::mem::take(&mut arena.buf[slot].words),
            });
        }
        arena.scatter(&mut staging);
    }
    assert_eq!(
        allocations() - before,
        0,
        "a warm RouteArena scatter cycle must be allocation-free"
    );

    // Memory gate: the heap high-water mark of a warm pass, in bytes per
    // vertex, counting the workspace (21 B/v warm: cc hooks into the
    // frontier kernels' `u32` result buffer), the CSR the ingest builds
    // (12 B/v at average degree 2) and the ingest's temporaries (a random
    // tree's Prüfer sequence and decode degrees, 8 B/v). The kernels and
    // families are perfbench's scale-1m trio at n = 2^16. Measured 34.5,
    // 34.5 and 42.5 B/v; each bound is that plus under 10% and less than
    // one more 4-byte per-vertex buffer.
    const N: usize = 1 << 16;
    let trio = [
        (StreamFamily::TwoCycles { n: N }, 37.5),
        (StreamFamily::Cycle { n: N }, 37.5),
        (
            StreamFamily::RandomTree {
                n: N,
                seed: Seed(21),
            },
            46.0,
        ),
    ];
    let base = live_bytes();
    let mut ws = scale::ScaleWorkspace::new();
    for (kernel, &(family, _)) in trio.iter().enumerate() {
        stream_to_labels(kernel, family, &mut ws);
    }
    for (kernel, &(family, bound)) in trio.iter().enumerate() {
        reset_peak();
        stream_to_labels(kernel, family, &mut ws);
        let per_vertex = (peak_bytes() - base) as f64 / N as f64;
        assert!(
            per_vertex <= bound,
            "a warm pass of kernel {kernel} on {} peaked at {per_vertex:.2} B/vertex \
             (bound {bound})",
            family.name()
        );
    }

    // An input beyond the `u32` rank space is refused from its closed-form
    // counts: the only heap the refusal touches is the error's reason, not
    // the 32 GiB degree array a 2^33-node path would need.
    let mut cluster = sequential_cluster(8, 32);
    let base = live_bytes();
    reset_peak();
    let err = scale::ingest(StreamFamily::Path { n: 1 << 33 }, &mut cluster).unwrap_err();
    assert!(matches!(err, MpcError::InputTooLarge { .. }), "{err:?}");
    assert!(
        peak_bytes() - base < 1024,
        "refusing an oversized input peaked at {} heap bytes",
        peak_bytes() - base
    );
}
