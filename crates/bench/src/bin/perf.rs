//! `perf` — the sequential-vs-parallel timing baseline for the
//! deterministic parallel execution engine.
//!
//! Runs a fixed workload suite — Luby-style MIS, connected-component
//! labels, ball-greedy coloring, faulted chaos replay, and the E5
//! success-probability harness — at several input sizes under both
//! [`ParallelismMode::Sequential`] and [`ParallelismMode::Parallel`],
//! recording warm best-of-N wall times, speedups, and the engine's
//! per-phase wall-clock breakdown (route/intake/step/merge/checkpoint,
//! from the `Stats` ledger's observability overlay), and writes
//! `BENCH_mpc.json` at the repository root.
//!
//! Worker accounting is per column: the sequential column always runs on
//! one worker, and the parallel column is labeled `par` only when the
//! worker pool actually has more than one thread — with a single worker the
//! column is labeled `inline`, because calling a degraded inline pass
//! "parallel" would launder a 1.0x speedup into a parallel claim.
//!
//! `--smoke` shrinks the sizes and repetition counts for the CI gate and
//! writes `BENCH_mpc_smoke.json` instead, leaving the committed full
//! baseline untouched. With more than one effective worker the smoke then
//! checks that parallel mode is not slower than sequential: it re-times
//! every row whose sequential best-of reaches 2 ms, five interleaved
//! passes per column, and fails if fewer than three rows qualify or the
//! geometric mean of their median-time speedups is below 1.0. Sub-ms rows
//! would measure pool dispatch, not parallel work. `--gate <path>`
//! compares the run against a previously committed baseline JSON
//! (matching workload/size rows) and fails on gross regressions;
//! tolerances are deliberately generous (shared CI runners jitter), so
//! only multi-x slowdowns trip it.
//!
//! Allocations are not counted here: the allocation-free steady state of
//! the engine rounds and the scale kernels is asserted by csmpc-mpc's
//! `steady_state_alloc` test under its `alloc-count` feature.

use std::hint::black_box;
use std::time::Instant;

use csmpc_algorithms::amplify::StableOneShotIs;
use csmpc_algorithms::api::MpcVertexAlgorithm;
use csmpc_algorithms::mpc_edge::BallGreedyColoringMpc;
use csmpc_core::runner::success_probability_with_mode;
use csmpc_graph::rng::Seed;
use csmpc_graph::{generators, ops, Graph, StreamFamily};
use csmpc_mpc::{
    exact_aggregate_sum_with_faults, run_supervised, scale, Cluster, DistributedGraph, FaultPlan,
    MpcConfig, ParallelismMode, PhaseTimes, RecoveryPolicy, ScaleWorkspace, Stats,
    SupervisorConfig,
};
use csmpc_problems::mis::LargeIndependentSet;

/// Per-row sequential wall-time tolerance for `--gate`: the current run
/// may be up to this many times slower than the committed baseline row
/// before the gate fails. Generous on purpose — smoke sizes are small and
/// CI machines are noisy; the gate exists to catch order-of-magnitude
/// regressions (an accidental quadratic path, a lost cache), not jitter.
const GATE_SEQ_TOLERANCE: f64 = 4.0;

/// Sub-millisecond baseline rows are pure noise; the gate compares
/// against at least this floor so a 0.1 ms → 0.5 ms wobble cannot fail.
const GATE_SEQ_FLOOR_MS: f64 = 0.5;

/// `--gate` requires the current geomean speedup to stay within this
/// fraction of the baseline's (only compared when both runs had real
/// worker threads).
const GATE_GEOMEAN_FRACTION: f64 = 0.6;

/// Phase-aware gate thresholds: a row's route phase may drift up to
/// `WARN`× the baseline before the gate warns, and `FAIL`× before it
/// fails. Tighter than the wall-time tolerance because phase times come
/// from the best-of pass (least scheduling noise) and the route phase is
/// exactly what the counting-sort fabric is meant to hold down.
const GATE_ROUTE_WARN: f64 = 1.5;
const GATE_ROUTE_FAIL: f64 = 3.0;

/// Route phases below this floor (in ns) are timer-resolution noise; the
/// gate compares against at least this much.
const GATE_ROUTE_FLOOR_NS: f64 = 20_000.0;

/// The smoke's speedup check covers only rows whose sequential best-of
/// time reaches this many milliseconds: below it, a pool dispatch on a
/// small shared host costs more than the work it splits.
const SPEEDUP_MIN_SEQ_MS: f64 = 2.0;

/// Interleaved sequential/parallel passes per row in the speedup check;
/// each column's median is its time.
const SPEEDUP_REPS: usize = 5;

/// The speedup check fails unless at least this many rows qualify.
const SPEEDUP_MIN_ROWS: usize = 3;

fn cluster_in_mode(g: &Graph, min_space: usize, seed: Seed, mode: ParallelismMode) -> Cluster {
    let cfg = MpcConfig {
        min_space,
        parallelism: mode,
        ..Default::default()
    };
    Cluster::new(cfg, g.n(), csmpc_mpc::graph_words(g), seed)
}

/// One warmup pass, then the best (minimum) of `reps` timed passes, in
/// milliseconds, along with the return value of that best pass. Best-of
/// is the standard noise filter for short kernels: scheduling jitter only
/// ever adds time — and returning the best pass's value keeps the phase
/// attributions consistent with the wall time they are reported next to,
/// instead of sampling an arbitrary (often noisier) repetition.
fn time_best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best_val = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let val = f();
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        if elapsed < best {
            best = elapsed;
            best_val = val;
        }
    }
    (best, best_val)
}

/// Median wall time of each column over `reps` interleaved passes
/// (sequential, parallel, sequential, …), in milliseconds, so both
/// columns sample the same stretch of host load.
fn interleaved_medians(run: &mut PreparedRunner, reps: usize) -> (f64, f64) {
    let mut times = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    for _ in 0..reps {
        for (mode, out) in [ParallelismMode::Sequential, ParallelismMode::Parallel]
            .into_iter()
            .zip(&mut times)
        {
            let t0 = Instant::now();
            black_box(run(mode));
            out.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let [seq, par] = times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    });
    (seq, par)
}

fn geometric_mean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// One repeatable workload pass: the input is prepared once per size by
/// the factory (`Prepare`), and each call runs a fresh cluster over it in
/// the requested mode. Keeping the input graph out of the timed closure
/// matches the scale workloads' hoisted-ingestion shape: best-of-N then
/// samples the algorithm's steady-state pass over a fixed input, not the
/// test-graph generator's allocator behavior on a cold heap.
type PreparedRunner = Box<dyn FnMut(ParallelismMode) -> PhaseTimes>;

fn luby_mis(n: usize) -> PreparedRunner {
    let g = generators::cycle(n);
    Box::new(move |mode| {
        let mut cl = cluster_in_mode(&g, 0, Seed(0xC0DE), mode);
        black_box(StableOneShotIs.run(&g, &mut cl).expect("luby-mis run"));
        cl.phase_times()
    })
}

fn cc_labels(n: usize) -> PreparedRunner {
    let half = generators::cycle(n / 2);
    let g = ops::disjoint_union(&[&half, &ops::with_fresh_names(&half, n as u64)]);
    Box::new(move |mode| {
        let mut cl = cluster_in_mode(&g, 0, Seed(0xC0DE), mode);
        let dg = DistributedGraph::distribute(&g, &mut cl).expect("distribute");
        black_box(dg.cc_labels(&mut cl).expect("cc-labels run"));
        cl.phase_times()
    })
}

fn ball_coloring(n: usize) -> PreparedRunner {
    let g = generators::random_tree(n, Seed(17));
    Box::new(move |mode| {
        // Radius-3 balls need the elevated space floor of the paper's roomy
        // regime (Δ^{O(T)} ≤ n^φ side condition).
        let mut cl = cluster_in_mode(&g, 1024, Seed(0xC0DE), mode);
        black_box(
            BallGreedyColoringMpc { radius: 3 }
                .run(&g, &mut cl)
                .expect("ball-coloring run"),
        );
        cl.phase_times()
    })
}

fn chaos_replay(n: usize) -> PreparedRunner {
    let g = ops::disjoint_union(&[
        &generators::cycle(8),
        &ops::with_fresh_names(&generators::cycle(n), 1000 + n as u64),
    ]);
    Box::new(move |mode| {
        let mut cl = cluster_in_mode(&g, 48, Seed(0xC0DE), mode);
        let plan = FaultPlan::random(Seed(0xFA57).derive(1), cl.num_machines(), 3, 1, 1);
        cl.arm_faults(plan, RecoveryPolicy::restart(8));
        black_box(StableOneShotIs.run(&g, &mut cl).expect("chaos-replay run"));
        cl.phase_times()
    })
}

fn e05_success_probability(n: usize) -> PreparedRunner {
    let g = generators::cycle(n);
    Box::new(move |mode| {
        let p = LargeIndependentSet { c: 0.5 };
        black_box(
            success_probability_with_mode(&StableOneShotIs, &p, &g, 24, Seed(4), mode)
                .expect("e05 run"),
        );
        // The harness owns its per-trial clusters, so no ledger survives to
        // read a breakdown from.
        PhaseTimes::default()
    })
}

/// Cluster + workspace for one scale workload pass: streaming ingestion
/// (never materializing the intermediate `Graph`) followed by the
/// workspace-backed sweep. The CSR build is part of the timed pass — the
/// streaming path is the thing being measured.
fn scale_pass(
    family: StreamFamily,
    mode: ParallelismMode,
    f: impl FnOnce(&mut Cluster, &csmpc_graph::CsrAdjacency, &mut ScaleWorkspace),
) -> PhaseTimes {
    let cfg = MpcConfig {
        parallelism: mode,
        ..MpcConfig::default()
    };
    let words = 2 * family.n() + 2 * family.m();
    let mut cl = Cluster::new(cfg, family.n(), words, Seed(0xC0DE));
    let mut ws = ScaleWorkspace::new();
    let csr = scale::ingest(family, &mut cl).expect("scale ingest");
    f(&mut cl, &csr, &mut ws);
    cl.phase_times()
}

fn scale_cc_labels(n: usize) -> PreparedRunner {
    Box::new(move |mode| {
        scale_pass(StreamFamily::TwoCycles { n }, mode, |cl, csr, ws| {
            black_box(scale::cc_labels(cl, csr, ws).expect("scale cc-labels"));
        })
    })
}

fn scale_luby_mis(n: usize) -> PreparedRunner {
    Box::new(move |mode| {
        scale_pass(StreamFamily::Cycle { n }, mode, |cl, csr, ws| {
            black_box(scale::luby_mis(cl, csr, Seed(3), ws).expect("scale luby-mis"));
        })
    })
}

fn scale_ball_coloring(n: usize) -> PreparedRunner {
    Box::new(move |mode| {
        let family = StreamFamily::RandomTree { n, seed: Seed(17) };
        scale_pass(family, mode, |cl, csr, ws| {
            black_box(scale::ball_coloring(cl, csr, Seed(5), ws).expect("scale ball-coloring"));
        })
    })
}

struct Sample {
    workload: &'static str,
    n: usize,
    seq_ms: f64,
    par_ms: f64,
    /// Phase breakdown of the sequential column's best pass (the same
    /// work without thread-scheduling noise in the attribution).
    phase: PhaseTimes,
}

impl Sample {
    fn speedup(&self) -> f64 {
        self.seq_ms / self.par_ms.max(1e-9)
    }

    /// Fraction of the attributed phase time spent routing messages —
    /// the figure the counting-sort fabric is meant to drive down.
    fn route_share(&self) -> f64 {
        let total = self.phase.route_ns
            + self.phase.intake_ns
            + self.phase.step_ns
            + self.phase.merge_ns
            + self.phase.checkpoint_ns;
        if total == 0 {
            return 0.0;
        }
        self.phase.route_ns as f64 / total as f64
    }
}

/// One recovery-overhead measurement: a faulted/supervised run compared
/// against its fault-free twin on the same cluster shape and seed. All
/// numbers come from the deterministic `Stats` ledger, so the table is
/// bit-stable across hosts; only wall time varies.
struct RecoverySample {
    scenario: &'static str,
    base_rounds: usize,
    rounds: usize,
    recovery_rounds: usize,
    recovery_words: u64,
    speculative_rounds: usize,
    corrupted_detected: u64,
    ms: f64,
}

impl RecoverySample {
    fn round_overhead_pct(&self) -> f64 {
        if self.base_rounds == 0 {
            return 0.0;
        }
        100.0 * (self.rounds as f64 - self.base_rounds as f64) / self.base_rounds as f64
    }
}

fn recovery_graph(n: usize) -> Graph {
    ops::disjoint_union(&[
        &generators::cycle(8),
        &ops::with_fresh_names(&generators::cycle(n), 1000 + n as u64),
    ])
}

fn luby_u64(g: &Graph, cl: &mut Cluster) -> Result<Vec<u64>, csmpc_mpc::MpcError> {
    StableOneShotIs
        .run(g, cl)
        .map(|ls| ls.into_iter().map(u64::from).collect())
}

/// The recovery-overhead suite: each scenario exercises one supervision
/// mechanism and reports what it cost relative to the fault-free run.
fn recovery_suite(n: usize, reps: usize) -> Vec<RecoverySample> {
    let g = recovery_graph(n);
    let seed = Seed(0xC0DE);
    let template = cluster_in_mode(&g, 48, seed, ParallelismMode::Sequential);
    let machines = template.num_machines();

    let mut quiet = template.clone();
    luby_u64(&g, &mut quiet).expect("quiet run");
    let base = quiet.stats().clone();

    let mut out = Vec::new();
    let mut record = |scenario: &'static str, base_rounds: usize, f: &mut dyn FnMut() -> Stats| {
        let stats = f();
        let (ms, ()) = time_best_of(reps, || {
            black_box(f());
        });
        out.push(RecoverySample {
            scenario,
            base_rounds,
            rounds: stats.rounds,
            recovery_rounds: stats.recovery_rounds,
            recovery_words: stats.recovery_words,
            speculative_rounds: stats.speculative_rounds,
            corrupted_detected: stats.corrupted_detected,
            ms,
        });
    };

    record("crash-restart", base.rounds, &mut || {
        let mut cl = template.clone();
        cl.arm_faults(
            FaultPlan::quiet(seed).crash(machines / 2, 2),
            RecoveryPolicy::restart(8),
        );
        luby_u64(&g, &mut cl).expect("crash-restart run");
        cl.stats().clone()
    });

    record("crash-backoff", base.rounds, &mut || {
        let mut cl = template.clone();
        cl.arm_faults(
            FaultPlan::quiet(seed)
                .crash(machines / 2, 2)
                .crash(machines / 2, 4),
            RecoveryPolicy::restart_with_backoff(8, 2),
        );
        luby_u64(&g, &mut cl).expect("crash-backoff run");
        cl.stats().clone()
    });

    record("straggler-speculation", base.rounds, &mut || {
        let mut cl = template.clone();
        cl.supervise(SupervisorConfig {
            deadline_rounds: 2,
            failure_threshold: 2,
        });
        cl.arm_faults(
            FaultPlan::quiet(seed).straggle(machines / 2, 2, 10),
            RecoveryPolicy::restart(8),
        );
        luby_u64(&g, &mut cl).expect("speculation run");
        cl.stats().clone()
    });

    record("degraded-salvage", base.rounds, &mut || {
        let run = run_supervised(
            &g,
            &template,
            &FaultPlan::quiet(seed).crash(machines / 2, 3),
            RecoveryPolicy::restart(0),
            SupervisorConfig::default(),
            luby_u64,
        )
        .expect("degraded run");
        assert!(run.is_degraded(), "salvage scenario did not degrade");
        run.stats
    });

    // Engine scenario: its fault-free twin is the same sum under a quiet
    // plan; corruption costs words (detected strikes are retransmitted),
    // not rounds, and the detection count is the headline number.
    let values: Vec<u64> = (1..=(64 * n as u64 / 100).max(64)).collect();
    let engine_sum = |plan: &FaultPlan| {
        let mut cl = Cluster::new(MpcConfig::with_phi(0.5), 400, 800, seed);
        exact_aggregate_sum_with_faults(&mut cl, &values, plan, RecoveryPolicy::restart(8))
            .expect("engine sum");
        cl.stats().clone()
    };
    let engine_base = engine_sum(&FaultPlan::quiet(seed));
    record("corruption-detect", engine_base.rounds, &mut || {
        engine_sum(
            &FaultPlan::quiet(seed)
                .with_corruption(300)
                .with_reordering(300),
        )
    });

    out
}

/// Extracts a bare (unquoted) numeric field from one line of the
/// baseline JSON. The perf binary both writes and reads this format, so
/// a line-oriented scan is exact — no JSON dependency needed.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts a quoted string field from one line of the baseline JSON.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    rest.find('"').map(|end| &rest[..end])
}

/// One committed baseline result row.
struct BaselineRow {
    workload: String,
    n: usize,
    seq_ms: f64,
    /// Effective parallel workers the row was recorded with (rows predate
    /// per-row accounting default to the file-level count).
    par_workers: usize,
    /// Route-phase time of the row's best sequential pass, if the
    /// baseline recorded one (rows predating phase accounting have none).
    route_ns: Option<f64>,
}

struct Baseline {
    workers: usize,
    geomean: Option<f64>,
    rows: Vec<BaselineRow>,
}

fn parse_baseline(text: &str) -> Baseline {
    let mut base = Baseline {
        workers: 1,
        geomean: None,
        rows: Vec::new(),
    };
    for line in text.lines() {
        if let Some(w) = field_str(line, "workload") {
            if let (Some(n), Some(seq)) = (field_f64(line, "n"), field_f64(line, "seq_ms")) {
                base.rows.push(BaselineRow {
                    workload: w.to_string(),
                    n: n as usize,
                    seq_ms: seq,
                    par_workers: field_f64(line, "par_workers").map_or(0, |w| w as usize),
                    route_ns: field_f64(line, "route"),
                });
            }
        } else if let Some(g) = field_f64(line, "geomean_speedup") {
            base.geomean = Some(g);
        } else if let Some(w) = field_f64(line, "workers") {
            base.workers = w as usize;
        }
    }
    // Rows written before per-row worker accounting inherit the
    // file-level count.
    for row in &mut base.rows {
        if row.par_workers == 0 {
            row.par_workers = base.workers;
        }
    }
    base
}

/// Compares this run against the committed baseline. Returns
/// `(violations, warnings)`: violations fail the gate, warnings are
/// advisory (a baseline recorded on fewer effective workers cannot fairly
/// gate this run's parallel numbers, but its sequential column — always
/// one worker — still can).
fn gate_violations(
    baseline: &Baseline,
    samples: &[Sample],
    geomean: f64,
    workers: usize,
) -> (Vec<String>, Vec<String>) {
    let mut violations = Vec::new();
    let mut warnings = Vec::new();
    let mut compared = 0usize;
    let mut worker_mismatch = 0usize;
    for s in samples {
        let Some(row) = baseline
            .rows
            .iter()
            .find(|r| r.workload == s.workload && r.n == s.n)
        else {
            continue;
        };
        compared += 1;
        if row.par_workers != workers {
            worker_mismatch += 1;
        }
        let allowed = GATE_SEQ_TOLERANCE * row.seq_ms.max(GATE_SEQ_FLOOR_MS);
        if s.seq_ms > allowed {
            violations.push(format!(
                "{} n={}: seq {:.3} ms exceeds {:.3} ms ({}x baseline {:.3} ms)",
                s.workload, s.n, s.seq_ms, allowed, GATE_SEQ_TOLERANCE, row.seq_ms
            ));
        }
        // Phase-level comparison: the route phase is the fabric's own
        // number, so it gates tighter than wall time. Warn early, fail
        // only on a blowup that survives the noise floor.
        if let Some(base_route) = row.route_ns {
            let route = s.phase.route_ns as f64;
            let reference = base_route.max(GATE_ROUTE_FLOOR_NS);
            if route > GATE_ROUTE_FAIL * reference {
                violations.push(format!(
                    "{} n={}: route phase {:.0} ns exceeds {GATE_ROUTE_FAIL}x baseline \
                     {:.0} ns — the message fabric regressed",
                    s.workload, s.n, route, base_route
                ));
            } else if route > GATE_ROUTE_WARN * reference {
                warnings.push(format!(
                    "{} n={}: route phase {:.0} ns is above {GATE_ROUTE_WARN}x baseline \
                     {:.0} ns",
                    s.workload, s.n, route, base_route
                ));
            }
        }
    }
    if compared == 0 {
        violations.push(
            "baseline has no rows matching this run's workloads/sizes — \
             wrong baseline file for this configuration?"
                .to_string(),
        );
    }
    if worker_mismatch > 0 {
        warnings.push(format!(
            "{worker_mismatch} baseline row(s) were recorded with a different effective worker \
             count than this run's {workers}; sequential times still gate, parallel comparisons \
             are advisory"
        ));
    }
    if workers > 1 {
        if let Some(base_geo) = baseline.geomean {
            if baseline.workers < workers {
                warnings.push(format!(
                    "baseline was recorded on {} effective worker(s), this run has {workers}; \
                     speedup floor not enforced",
                    baseline.workers
                ));
            } else if baseline.workers > 1 {
                let floor = GATE_GEOMEAN_FRACTION * base_geo;
                if geomean < floor {
                    violations.push(format!(
                        "geomean speedup {geomean:.3}x fell below {floor:.3}x \
                         ({GATE_GEOMEAN_FRACTION} of baseline {base_geo:.3}x)"
                    ));
                }
            }
        }
    }
    (violations, warnings)
}

/// One point of the thread sweep: the scale cc-labels workload re-run in
/// a child process with `RAYON_NUM_THREADS` forced, since a process's
/// worker count is fixed at pool creation.
struct SweepPoint {
    threads: usize,
    effective_workers: usize,
    seq_ms: f64,
    par_ms: f64,
}

/// Child half of the thread sweep (`--sweep-child <n>`): run scale
/// cc-labels in both modes, assert bit-identical labels (the determinism
/// contract at this worker count), and print one parseable line.
fn run_sweep_child(n: usize) -> ! {
    let family = StreamFamily::TwoCycles { n };
    let mut labels: Vec<Vec<u64>> = Vec::new();
    let mut times = Vec::new();
    for mode in [ParallelismMode::Sequential, ParallelismMode::Parallel] {
        let (ms, lab) = time_best_of(2, || {
            let mut out = Vec::new();
            scale_pass(family, mode, |cl, csr, ws| {
                scale::cc_labels(cl, csr, ws).expect("sweep cc-labels");
                out = ws.label.clone();
            });
            out
        });
        times.push(ms);
        labels.push(lab);
    }
    assert_eq!(
        labels[0],
        labels[1],
        "parallel labels diverged from sequential at RAYON_NUM_THREADS={}",
        csmpc_parallel::current_num_threads()
    );
    println!(
        "sweep-child: threads={} seq_ms={:.4} par_ms={:.4} bit_identical=true",
        csmpc_parallel::current_num_threads(),
        times[0],
        times[1]
    );
    std::process::exit(0);
}

/// Parent half of the thread sweep: re-exec this binary at
/// `RAYON_NUM_THREADS` ∈ {1, 2, 4, 8} and collect the child timings.
/// Effective workers are capped at the core count — timings above it are
/// time-sliced and labeled as such, never booked as extra parallelism.
fn run_thread_sweep(n: usize, cores: usize) -> Vec<SweepPoint> {
    let exe = std::env::current_exe().expect("current_exe");
    let mut points = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let out = std::process::Command::new(&exe)
            .arg("--sweep-child")
            .arg(n.to_string())
            .env("RAYON_NUM_THREADS", threads.to_string())
            .output()
            .expect("spawn sweep child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "sweep child (threads={threads}) failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout
            .lines()
            .find(|l| l.starts_with("sweep-child:"))
            .expect("sweep child output");
        let field = |key: &str| -> f64 {
            let pat = format!("{key}=");
            let start = line.find(&pat).expect("sweep field") + pat.len();
            let rest = &line[start..];
            let end = rest.find(' ').unwrap_or(rest.len());
            rest[..end].parse().expect("sweep field value")
        };
        points.push(SweepPoint {
            threads,
            effective_workers: threads.min(cores),
            seq_ms: field("seq_ms"),
            par_ms: field("par_ms"),
        });
    }
    points
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Dev iteration filter: `--only <substr>` runs just the matching
    // workload rows and skips the recovery table, thread sweep, JSON
    // write, and gates — profiling one workload without paying for the
    // whole suite.
    let only = args.iter().position(|a| a == "--only").map(|i| {
        args.get(i + 1)
            .expect("--only requires a substring")
            .clone()
    });
    if let Some(i) = args.iter().position(|a| a == "--sweep-child") {
        let n: usize = args
            .get(i + 1)
            .and_then(|a| a.parse().ok())
            .expect("--sweep-child requires a size");
        run_sweep_child(n);
    }
    let gate_path = args
        .iter()
        .position(|a| a == "--gate")
        .map(|i| args.get(i + 1).expect("--gate requires a path").clone());
    // Read the baseline BEFORE any output file is written, so gating a
    // run against the file it is about to overwrite compares against the
    // committed contents, not this run's own numbers. A missing or
    // malformed baseline is a usage/setup error, not a perf regression:
    // exit 2 (distinct from the gate-failure exit 1) with the path named.
    let baseline = gate_path.as_ref().map(|p| {
        let text = match std::fs::read_to_string(p) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("perf gate: cannot read baseline {p}: {e}");
                eprintln!(
                    "perf gate: generate it with `cargo run --release -p csmpc-bench --bin perf` \
                     or point --gate at an existing BENCH_mpc.json"
                );
                std::process::exit(2);
            }
        };
        let parsed = parse_baseline(&text);
        if parsed.rows.is_empty() {
            eprintln!(
                "perf gate: baseline {p} is malformed: no result rows with \
                 workload/n/seq_ms fields could be parsed"
            );
            std::process::exit(2);
        }
        parsed
    });

    // Full runs take 9 timed passes per column: on shared runners a single
    // pass can eat a 30-50% scheduler hit, and with short kernels the
    // best-of filter needs enough draws to land one undisturbed pass per
    // row. Smoke keeps 2 — its gate tolerances absorb the extra noise.
    let reps = if smoke { 2 } else { 9 };
    // Per-column worker accounting: the sequential column is inline by
    // definition, and the parallel column's *effective* worker count is
    // the smaller of the worker pool's threads and the machine's cores —
    // forcing RAYON_NUM_THREADS=2 on a single-core runner time-slices one
    // core and must not be booked as parallelism. The column only earns the "par"
    // label (and the speedup gates only arm) with >1 effective workers.
    let threads = csmpc_parallel::current_num_threads();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let seq_workers = 1usize;
    let par_workers = threads.min(cores);
    let workers = par_workers;
    let par_label = if par_workers > 1 { "par" } else { "inline" };

    type Prepare = fn(usize) -> PreparedRunner;
    // The million-vertex scale family: streaming CSR ingestion plus
    // workspace-backed sweeps, no intermediate Graph. Its smoke sizes end
    // at 2^18, where each row carries milliseconds of parallel work for
    // the speedup check.
    let scale_sizes: &[usize] = if smoke {
        &[10_000, 30_000, 1 << 18]
    } else {
        &[100_000, 1_000_000]
    };
    let suite: [(&str, Prepare, &[usize]); 8] = [
        (
            "luby-mis",
            luby_mis,
            if smoke { &[300, 600] } else { &[1500, 4000] },
        ),
        (
            "cc-labels",
            cc_labels,
            if smoke { &[300, 600] } else { &[1500, 4000] },
        ),
        (
            "ball-coloring",
            ball_coloring,
            if smoke { &[150, 300] } else { &[600, 1500] },
        ),
        (
            "chaos-replay",
            chaos_replay,
            if smoke { &[200, 400] } else { &[600, 1200] },
        ),
        (
            "e05-success-probability",
            e05_success_probability,
            if smoke { &[60, 120] } else { &[240, 480] },
        ),
        ("scale-cc-labels", scale_cc_labels, scale_sizes),
        ("scale-luby-mis", scale_luby_mis, scale_sizes),
        ("scale-ball-coloring", scale_ball_coloring, scale_sizes),
    ];

    println!(
        "perf suite: {} workloads, {} rows, best of {reps}, seq column {seq_workers} worker, \
         {par_label} column {par_workers} effective worker(s) ({threads} thread(s) on {cores} \
         core(s)), smoke={smoke}",
        suite.len(),
        suite.iter().map(|(_, _, sizes)| sizes.len()).sum::<usize>()
    );
    let mut samples = Vec::new();
    let mut runners = Vec::new();
    for (workload, prepare, sizes) in suite {
        if only
            .as_ref()
            .is_some_and(|f| !workload.contains(f.as_str()))
        {
            continue;
        }
        for &n in sizes {
            let mut run = prepare(n);
            let (seq_ms, phase) = time_best_of(reps, || run(ParallelismMode::Sequential));
            let (par_ms, _) = time_best_of(reps, || run(ParallelismMode::Parallel));
            let s = Sample {
                workload,
                n,
                seq_ms,
                par_ms,
                phase,
            };
            println!(
                "  {:<24} n={:<6} seq {:>9.3} ms   {} {:>9.3} ms   speedup {:.2}x",
                s.workload,
                s.n,
                s.seq_ms,
                par_label,
                s.par_ms,
                s.speedup()
            );
            if !s.phase.is_zero() {
                println!(
                    "    phases: {} (route share {:.1}%)",
                    s.phase,
                    s.route_share() * 100.0
                );
            }
            samples.push(s);
            runners.push(run);
        }
    }

    // Geometric mean weights every workload equally regardless of its
    // absolute runtime. With one effective worker the "parallel" column
    // ran inline, so the ratio measures dispatch overhead, not speedup —
    // don't report it as one.
    let geomean = geometric_mean(&samples.iter().map(Sample::speedup).collect::<Vec<_>>());
    if par_workers > 1 {
        println!("geometric-mean speedup ({par_label}, {par_workers} workers): {geomean:.2}x");
    } else {
        println!(
            "geometric-mean speedup: not reported — parallel column ran inline \
             (1 effective worker); seq/inline ratio was {geomean:.2}x"
        );
    }
    if let Some(f) = &only {
        println!("--only {f}: skipping recovery table, thread sweep, JSON output, and gates");
        return;
    }

    // Recovery-overhead table: what each supervision mechanism costs
    // relative to the fault-free twin, straight from the Stats ledger.
    let recovery_n = if smoke { 200 } else { 600 };
    let recovery = recovery_suite(recovery_n, reps);
    println!("recovery overhead (n={recovery_n}):");
    for r in &recovery {
        println!(
            "  {:<22} rounds {:>4} (base {:>4}, +{:>5.1}%)  rec_rounds {:>3}  rec_words {:>6}  \
             spec {:>3}  corrupt {:>4}  {:>8.3} ms",
            r.scenario,
            r.rounds,
            r.base_rounds,
            r.round_overhead_pct(),
            r.recovery_rounds,
            r.recovery_words,
            r.speculative_rounds,
            r.corrupted_detected,
            r.ms
        );
    }

    // Thread sweep: the scale cc-labels workload re-run at forced
    // RAYON_NUM_THREADS ∈ {1, 2, 4, 8} in child processes (worker counts
    // are fixed per process). Each child also re-verifies the
    // sequential/parallel bit-identity contract at its thread count.
    let sweep_n = if smoke { 10_000 } else { 100_000 };
    let sweep = run_thread_sweep(sweep_n, cores);
    println!("thread sweep (scale-cc-labels, n={sweep_n}):");
    for p in &sweep {
        let label = if p.effective_workers < p.threads {
            format!("{} threads on {} core(s), time-sliced", p.threads, cores)
        } else {
            format!("{} effective worker(s)", p.effective_workers)
        };
        println!(
            "  RAYON_NUM_THREADS={:<2} ({label:<32}) seq {:>9.3} ms  par {:>9.3} ms  \
             speedup {:.2}x  bit-identical",
            p.threads,
            p.seq_ms,
            p.par_ms,
            p.seq_ms / p.par_ms.max(1e-9)
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"suite\": \"csmpc parallel-engine baseline\",\n");
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"parallel_label\": \"{par_label}\",\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"best_of\": {reps},\n"));
    // With one effective worker the geomean is a dispatch-overhead ratio,
    // not a speedup; write null so downstream tooling (and the gate's
    // baseline parser) cannot mistake it for one.
    if par_workers > 1 {
        json.push_str(&format!("  \"geomean_speedup\": {geomean:.4},\n"));
    } else {
        json.push_str("  \"geomean_speedup\": null,\n");
    }
    json.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"seq_ms\": {:.4}, \"par_ms\": {:.4}, \
             \"speedup\": {:.4}, \"seq_workers\": {seq_workers}, \"par_workers\": {par_workers}, \
             \"phase_ns\": {{\"route\": {}, \"intake\": {}, \"step\": {}, \"merge\": {}, \
             \"checkpoint\": {}}}}}{}\n",
            s.workload,
            s.n,
            s.seq_ms,
            s.par_ms,
            s.speedup(),
            s.phase.route_ns,
            s.phase.intake_ns,
            s.phase.step_ns,
            s.phase.merge_ns,
            s.phase.checkpoint_ns,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"recovery_overhead\": [\n");
    for (i, r) in recovery.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"n\": {recovery_n}, \"base_rounds\": {}, \
             \"rounds\": {}, \"round_overhead_pct\": {:.2}, \"recovery_rounds\": {}, \
             \"recovery_words\": {}, \"speculative_rounds\": {}, \"corrupted_detected\": {}, \
             \"ms\": {:.4}}}{}\n",
            r.scenario,
            r.base_rounds,
            r.rounds,
            r.round_overhead_pct(),
            r.recovery_rounds,
            r.recovery_words,
            r.speculative_rounds,
            r.corrupted_detected,
            r.ms,
            if i + 1 == recovery.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"thread_sweep\": {{\"workload\": \"scale-cc-labels\", \"n\": {sweep_n}, \"points\": [\n"
    ));
    for (i, p) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"effective_workers\": {}, \"seq_ms\": {:.4}, \
             \"par_ms\": {:.4}, \"bit_identical\": true}}{}\n",
            p.threads,
            p.effective_workers,
            p.seq_ms,
            p.par_ms,
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]}\n}\n");

    // Smoke runs write a separate file so the committed full-size
    // baseline is never clobbered by a CI gate pass.
    let out = if smoke {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mpc_smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mpc.json")
    };
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("FAIL: cannot write {out}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out}");

    if let Some(baseline) = &baseline {
        let (violations, warnings) = gate_violations(baseline, &samples, geomean, workers);
        for w in &warnings {
            eprintln!("perf gate WARN: {w}");
        }
        if violations.is_empty() {
            println!(
                "perf gate: OK ({} rows compared against {})",
                samples.len(),
                gate_path.as_deref().unwrap_or("?")
            );
        } else {
            for v in &violations {
                eprintln!("perf gate FAIL: {v}");
            }
            std::process::exit(1);
        }
    }

    if smoke {
        if workers > 1 {
            // The speedup floor covers only the rows with parallel work to
            // show, re-timed interleaved so both columns see the same load.
            println!(
                "speedup check: rows with seq >= {SPEEDUP_MIN_SEQ_MS} ms, median of \
                 {SPEEDUP_REPS} interleaved passes per column"
            );
            let mut ratios = Vec::new();
            for (s, run) in samples.iter().zip(&mut runners) {
                if s.seq_ms < SPEEDUP_MIN_SEQ_MS {
                    continue;
                }
                let (seq_ms, par_ms) = interleaved_medians(run, SPEEDUP_REPS);
                let speedup = seq_ms / par_ms.max(1e-9);
                println!(
                    "  {:<24} n={:<6} seq {seq_ms:>9.3} ms   {par_label} {par_ms:>9.3} ms   \
                     speedup {speedup:.2}x",
                    s.workload, s.n
                );
                ratios.push(speedup);
            }
            if ratios.len() < SPEEDUP_MIN_ROWS {
                eprintln!(
                    "FAIL: {} smoke row(s) reach {SPEEDUP_MIN_SEQ_MS} ms sequential; the \
                     speedup check needs {SPEEDUP_MIN_ROWS}",
                    ratios.len()
                );
                std::process::exit(1);
            }
            let work_geomean = geometric_mean(&ratios);
            if work_geomean < 1.0 {
                eprintln!(
                    "FAIL: parallel mode is slower than sequential ({work_geomean:.2}x geomean \
                     over {} rows with parallel work) with {workers} workers",
                    ratios.len()
                );
                std::process::exit(1);
            }
            println!(
                "speedup check: OK ({work_geomean:.2}x geomean over {} rows)",
                ratios.len()
            );
        } else {
            println!(
                "note: 1 effective worker ({threads} thread(s) on {cores} core(s)) — \
                 parallel column is time-sliced/inline, speedup gate skipped"
            );
        }
    }
}
