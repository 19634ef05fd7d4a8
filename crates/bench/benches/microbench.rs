//! Micro-benchmarks over every performance-relevant code path: chain steps,
//! property checks, observables, separation certificates, enumeration,
//! polymer partition functions, and the distributed layer.
//!
//! Hand-rolled harness (criterion is unavailable offline): each benchmark
//! is warmed up, then timed over adaptive batches until a time budget is
//! spent; the median per-iteration time is reported. Run with
//! `cargo bench -p sops-bench`.
//!
//! Besides the console table, the run writes a machine-readable perf
//! baseline to `BENCH_chain.json` at the repo root — per-size chain-step
//! throughput plus the overhead of the disabled telemetry wrapper — and a
//! demonstration telemetry stream to
//! `results/logs/microbench-n100.telemetry.jsonl`.
//!
//! Pass `--smoke` (or set `SOPS_BENCH_SMOKE=1`) to shrink the warmup and
//! time budgets ~10×; CI uses this to validate the emission paths without
//! paying for stable medians.
//!
//! The binary runs on a counting allocator, so the `config_heap_bytes_*`
//! rows can report what one `Configuration` holds on the heap.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use sops_amoebot::AmoebotSystem;
use sops_analysis::{is_separated, separation_profile};
use sops_bench::{instrument_chain, logs_dir, save_at_root, seed_hash};
use sops_chains::telemetry::{json_f64, series_record_json};
use sops_chains::{Instrumented, JsonlSink, MarkovChain, RunManifest, StateCodec};
use sops_core::{construct, enumerate, properties, Bias, Color, Configuration, SeparationChain};
use sops_lattice::region::Region;
use sops_lattice::{Edge, Node, DIRECTIONS};
use sops_polymer::partition::even_partition_function;
use sops_polymer::{CutLoopModel, EvenSubgraphModel};

static SMOKE: OnceLock<bool> = OnceLock::new();

/// The system allocator, keeping a count of the bytes live on the heap.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the count is
// bookkeeping beside it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, with `realloc`'s size contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Whether this run is a smoke pass (CI): tiny budgets, same code paths.
fn smoke() -> bool {
    *SMOKE.get_or_init(|| false)
}

/// Times `f`, printing and returning the median ns/iteration.
fn bench(name: &str, f: impl FnMut()) -> f64 {
    bench_per(name, 1, "iter", f)
}

/// Times `f`, which does `units` units of work per call, printing and
/// returning the median ns per `unit`.
fn bench_per(name: &str, units: u64, unit: &str, mut f: impl FnMut()) -> f64 {
    let (warmup, budget, samples) = if smoke() {
        (Duration::from_millis(20), Duration::from_millis(60), 5)
    } else {
        (Duration::from_millis(200), Duration::from_millis(600), 11)
    };

    // Warm up and estimate a batch size targeting ~budget/samples per batch.
    let warm_start = Instant::now();
    let mut iters: u64 = 0;
    while warm_start.elapsed() < warmup {
        f();
        iters += 1;
    }
    let per_iter = warmup.as_nanos() as u64 / iters.max(1);
    let batch = (budget.as_nanos() as u64 / samples as u64 / per_iter.max(1)).max(1);

    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / (batch * units) as f64
        })
        .collect();
    timings.sort_by(f64::total_cmp);
    let median = timings[samples / 2];
    let spread = (timings[samples - 2] - timings[1]).max(0.0);
    println!("{name:<44} {median:>12.1} ns/{unit}  (±{spread:.1}, batch {batch})");
    median
}

fn seeded_config(n: usize) -> Configuration {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let nodes = construct::hexagonal_spiral(n);
    Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap()
}

/// One row of the chain-step throughput baseline in `BENCH_chain.json`,
/// timed through [`MarkovChain::run`].
struct Throughput {
    n: usize,
    swaps: bool,
    ns_per_step: f64,
}

fn bench_chain_step() -> Vec<Throughput> {
    // The kernel runs a fixed step count per iteration and divides, as the
    // runtime, the service and every experiment bin call it. The count is
    // large enough that the per-call setup (the run's cell table) vanishes
    // into the per-step figure instead of inflating it.
    const BULK_STEPS: u64 = 4096;
    let mut rows = Vec::new();
    for n in [25usize, 100, 400] {
        for swaps in [true, false] {
            let chain = if swaps {
                SeparationChain::new(Bias::new(4.0, 4.0).unwrap())
            } else {
                SeparationChain::without_swaps(Bias::new(4.0, 4.0).unwrap())
            };
            let label = if swaps { "with_swaps" } else { "without_swaps" };
            let mut config = seeded_config(n);
            let mut rng = StdRng::seed_from_u64(1);
            let ns = bench(&format!("chain_step/{label}/{n}"), || {
                black_box(chain.run(&mut config, BULK_STEPS, &mut rng));
            }) / BULK_STEPS as f64;
            rows.push(Throughput {
                n,
                swaps,
                ns_per_step: ns,
            });
        }
    }
    rows
}

/// The tentpole acceptance measurement: stepping through a disabled
/// `Instrumented` wrapper must cost (near) nothing relative to the bare
/// chain; the enabled wrapper's bookkeeping cost is recorded for context.
struct OverheadBaseline {
    bare_ns: f64,
    disabled_ns: f64,
    enabled_ns: f64,
    /// Median over rounds of the *paired* per-round difference
    /// `disabled − bare`, in ns/step; see [`bench_instrumented_overhead`].
    disabled_delta_ns: f64,
}

fn bench_instrumented_overhead() -> OverheadBaseline {
    let n = 100usize;
    let bias = Bias::new(4.0, 4.0).unwrap();
    let samples = if smoke() { 7 } else { 21 };
    let batch: u64 = if smoke() { 50_000 } else { 400_000 };

    // Per-step cost depends on how compressed the state is, so burn each
    // variant's configuration to quasi-steady state first; then interleave
    // the timed batches round-robin across the three variants so machine
    // drift (frequency scaling, background load) cancels instead of
    // landing wholesale on whichever variant ran during the bad window.
    let steady_config = || {
        let chain = SeparationChain::new(bias);
        let mut config = seeded_config(n);
        let mut rng = StdRng::seed_from_u64(99);
        chain.run(
            &mut config,
            if smoke() { 100_000 } else { 2_000_000 },
            &mut rng,
        );
        config
    };

    let bare = SeparationChain::new(bias);
    let disabled = instrument_chain(SeparationChain::new(bias), false);
    let enabled = instrument_chain(SeparationChain::new(bias), true);
    let mut states: Vec<(Configuration, StdRng)> = (0..3)
        .map(|_| (steady_config(), StdRng::seed_from_u64(1)))
        .collect();

    let mut timed: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for _ in 0..samples {
        for (variant, timings) in timed.iter_mut().enumerate() {
            let (config, rng) = &mut states[variant];
            let t = Instant::now();
            for _ in 0..batch {
                match variant {
                    0 => black_box(bare.step(config, rng)),
                    1 => black_box(disabled.step(config, rng)),
                    _ => black_box(enabled.step(config, rng)),
                };
            }
            timings.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    // The overhead estimate pairs measurements *within* each round before
    // taking a median: round r contributes `disabled_r − bare_r`, taken
    // back-to-back under the same machine conditions, so slow drift cancels
    // per-pair. Dividing independent medians instead lets the two variants'
    // medians land in different drift regimes and can report an impossible
    // negative overhead for a wrapper that is strictly bare-plus-a-branch.
    let deltas: Vec<f64> = timed[1].iter().zip(&timed[0]).map(|(d, b)| d - b).collect();
    let disabled_delta_ns = median(deltas);
    let [bare_ns, disabled_ns, enabled_ns]: [f64; 3] = timed
        .into_iter()
        .map(median)
        .collect::<Vec<_>>()
        .try_into()
        .unwrap();
    for (name, ns) in [
        ("instrumented/bare/100", bare_ns),
        ("instrumented/disabled/100", disabled_ns),
        ("instrumented/enabled/100", enabled_ns),
    ] {
        println!("{name:<44} {ns:>12.1} ns/iter  (interleaved, batch {batch})");
    }
    println!(
        "{:<44} {disabled_delta_ns:>12.2} ns/iter  (median paired disabled−bare)",
        "instrumented/disabled_delta/100"
    );

    OverheadBaseline {
        bare_ns,
        disabled_ns,
        enabled_ns,
        disabled_delta_ns,
    }
}

/// Emits a short real telemetry stream so the JSONL path is exercised (and
/// demonstrated) by every bench run: manifest, one metrics record, and the
/// final observable series, at `results/logs/microbench-n100.telemetry.jsonl`.
fn emit_demo_telemetry() -> std::io::Result<()> {
    let steps: u64 = if smoke() { 20_000 } else { 200_000 };
    let n = 100usize;
    let mut rng = StdRng::seed_from_u64(seed_hash("microbench-telemetry", 0));
    let mut config = seeded_config(n);
    // Sampling interval scaled to the short run so the series is non-empty
    // even in smoke mode (the experiment bins use OBSERVABLE_EVERY).
    let chain = Instrumented::new(SeparationChain::new(Bias::new(4.0, 4.0).unwrap()))
        .with_observable("perimeter", steps / 10, |c: &Configuration| {
            c.perimeter() as f64
        })
        .with_observable("hetero_edges", steps / 10, |c: &Configuration| {
            c.hetero_edge_count() as f64
        });
    let manifest = RunManifest {
        run: "microbench/n=100".to_string(),
        seed: seed_hash("microbench-telemetry", 0),
        lambda: 4.0,
        gamma: 4.0,
        n: n as u64,
        steps,
    };
    let path = logs_dir().join("microbench-n100.telemetry.jsonl");
    let mut sink = JsonlSink::create(&path, &manifest)?;
    chain.run(&mut config, steps / 2, &mut rng);
    sink.record_metrics(0, &chain.report())?;
    chain.run(&mut config, steps - steps / 2, &mut rng);
    let report = chain.report();
    sink.record_metrics(0, &report)?;
    sink.record_line(&series_record_json(0, &report))?;
    println!("  saved {}", path.display());
    Ok(())
}

/// Renders and writes the `BENCH_chain.json` perf baseline at the repo root.
fn write_bench_chain_json(throughput: &[Throughput], overhead: &OverheadBaseline) {
    let mut json = String::from("{\n  \"bench\": \"chain\",\n");
    json.push_str(&format!("  \"smoke\": {},\n", smoke()));
    json.push_str("  \"throughput\": [\n");
    for (i, row) in throughput.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"swaps\": {}, \"kernel\": \"sequential\", \
             \"ns_per_step\": {}, \"steps_per_sec\": {}}}{}\n",
            row.n,
            row.swaps,
            json_f64(row.ns_per_step),
            json_f64(1e9 / row.ns_per_step),
            if i + 1 < throughput.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    // A wrapper that forwards to the bare chain cannot be faster than it;
    // clamp residual paired noise at zero so the recorded overhead is a
    // physically meaningful bound rather than an artifact like "−0.34%".
    // The clamp must cover the delta *and* the derived pct: an earlier
    // baseline recorded `"disabled_delta_ns": -0.42` next to
    // `"disabled_overhead_pct": 0.0`, an internally inconsistent pair that
    // downstream tooling (reasonably) flagged as corruption.
    let disabled_delta_ns = overhead.disabled_delta_ns.max(0.0);
    let overhead_pct = disabled_delta_ns / overhead.bare_ns * 100.0;
    json.push_str(&format!(
        "  \"instrumented_overhead\": {{\"bare_ns\": {}, \"disabled_ns\": {}, \
         \"enabled_ns\": {}, \"disabled_delta_ns\": {}, \"disabled_overhead_pct\": {}}}\n",
        json_f64(overhead.bare_ns),
        json_f64(overhead.disabled_ns),
        json_f64(overhead.enabled_ns),
        json_f64(disabled_delta_ns),
        json_f64(overhead_pct),
    ));
    json.push_str("}\n");
    save_at_root("BENCH_chain.json", &json);
}

fn bench_properties() {
    let config = seeded_config(100);
    bench("property_check_all_moves_n100", || {
        let mut allowed = 0u32;
        for i in 0..config.len() {
            let from = config.position_of(i);
            for d in DIRECTIONS {
                if !config.is_occupied(from.neighbor(d))
                    && properties::movement_allowed(&config, from, d)
                {
                    allowed += 1;
                }
            }
        }
        black_box(allowed);
    });
}

/// A random blob of `n` particles after 5×10⁴ steps at λ = γ = 4 — the
/// state `service-resume` audits when it resumes a session.
fn resumed_blob(n: usize) -> Configuration {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let nodes = construct::random_blob(n, &mut rng);
    let mut config = Configuration::new(construct::bicolor_random(nodes, n / 2, &mut rng)).unwrap();
    SeparationChain::new(Bias::new(4.0, 4.0).unwrap()).run(&mut config, 50_000, &mut rng);
    config
}

fn bench_observables() {
    let config = seeded_config(100);
    bench("boundary_walk_n100", || {
        black_box(config.boundary_walk_length());
    });
    bench("recount_edges_n100", || {
        black_box(config.recount());
    });
    bench("hole_count_n100", || {
        black_box(config.hole_count());
    });
    bench("audit_n100", || {
        black_box(config.audit().is_consistent());
    });
    let config = resumed_blob(1000);
    bench("boundary_walk_n1000", || {
        black_box(config.boundary_walk_length());
    });
    bench("hole_count_n1000", || {
        black_box(config.hole_count());
    });
    bench("audit_n1000", || {
        black_box(config.audit().is_consistent());
    });
    // The kernel on the same still-mixing state: ring-gathering proposals
    // are about twice as common here as on a compressed one.
    const RESUMED_STEPS: u64 = 50_000;
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
    let mut rng = StdRng::seed_from_u64(1000);
    bench_per("kernel_run_resumed_n1000", RESUMED_STEPS, "step", || {
        let mut resumed = config.clone();
        black_box(chain.run(&mut resumed, RESUMED_STEPS, &mut rng));
    });
}

/// A random blob of `n` particles, half of each color: at n = 100, the
/// shape of every `service-small` job's input.
fn random_blob_particles(n: usize) -> Vec<(Node, Color)> {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let nodes = construct::random_blob(n, &mut rng);
    construct::bicolor_random(nodes, n / 2, &mut rng)
}

/// What one configuration holds on the heap, and what building one costs:
/// from its particles, from its snapshot bytes, and its O(n) recount.
fn bench_configuration_memory() {
    for n in [100usize, 1000] {
        let particles = random_blob_particles(n);
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let config = Configuration::new(particles.iter().copied()).unwrap();
        let bytes = LIVE_BYTES.load(Ordering::Relaxed) - before;
        black_box(&config);
        println!(
            "{:<44} {bytes:>12} bytes",
            format!("config_heap_bytes_n{n}")
        );
    }
    let particles = random_blob_particles(1000);
    bench("configuration_new_n1000", || {
        black_box(Configuration::new(particles.iter().copied()).unwrap());
    });
    let config = Configuration::new(particles.iter().copied()).unwrap();
    let state = config.encode_state();
    bench("decode_state_n1000", || {
        black_box(Configuration::decode_state(&state).unwrap());
    });
    bench("recount_n1000", || {
        black_box(config.recount());
    });
}

/// What building an input costs: the blob alone, and at n = 100 all that
/// `service-small` builds per job (blob, colors, `Configuration::new`).
/// One stream runs on, so every iteration builds a different input.
fn bench_construction() {
    let mut rng = StdRng::seed_from_u64(7);
    for n in [100usize, 1000] {
        bench(&format!("random_blob_n{n}"), || {
            black_box(construct::random_blob(n, &mut rng));
        });
    }
    bench("job_input_n100", || {
        let nodes = construct::random_blob(100, &mut rng);
        let particles = construct::bicolor_random(nodes, 50, &mut rng);
        black_box(Configuration::new(particles).unwrap());
    });
}

fn bench_separation_certificate() {
    // A partially separated configuration: the interesting (non-trivial
    // cut) case for the flow solver.
    let mut rng = StdRng::seed_from_u64(3);
    let mut config = seeded_config(100);
    let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
    chain.run(&mut config, 500_000, &mut rng);
    bench("separation_certificate_n100", || {
        black_box(is_separated(&config, 4.0, 0.2));
    });
    bench("separation_profile_n100", || {
        black_box(separation_profile(&config, Color::C1).len());
    });
}

fn bench_enumeration() {
    bench("enumerate_shapes_n6", || {
        black_box(enumerate::shapes(6).len());
    });
    bench("enumerate_hole_free_n6", || {
        black_box(enumerate::hole_free_shapes(6).len());
    });
}

fn bench_polymer() {
    bench("even_partition_hexagon1", || {
        black_box(even_partition_function(&Region::hexagon(1), 1.0 / 80.0));
    });
    let model = CutLoopModel::new(6.0);
    let edge = Edge::new(Node::new(0, 0), Node::new(1, 0));
    bench("cut_loops_through_edge_s3", || {
        black_box(model.polymers_cutting(edge, 3).len());
    });
    let even = EvenSubgraphModel::new(0.0125);
    bench("cycles_through_edge_len6", || {
        black_box(even.cycles_through(edge, 6).len());
    });
}

fn bench_node_map_vs_std() {
    // The design rationale for the custom open-addressing map: neighborhood
    // probes dominate the chain's hot path.
    let config = seeded_config(400);
    let nodes: Vec<Node> = config.particles().map(|(n, _)| n).collect();
    let std_map: std::collections::HashMap<Node, u8> =
        config.particles().map(|(n, c)| (n, c.index())).collect();

    bench("probe_6_neighbors_nodemap_n400", || {
        let mut hits = 0u32;
        for &n in &nodes {
            for d in DIRECTIONS {
                hits += u32::from(config.is_occupied(n.neighbor(d)));
            }
        }
        black_box(hits);
    });
    bench("probe_6_neighbors_stdhashmap_n400", || {
        let mut hits = 0u32;
        for &n in &nodes {
            for d in DIRECTIONS {
                hits += u32::from(std_map.contains_key(&n.neighbor(d)));
            }
        }
        black_box(hits);
    });
}

fn bench_amoebot() {
    let config = seeded_config(100);
    let mut sys = AmoebotSystem::new(&config, Bias::new(4.0, 4.0).unwrap(), true);
    let mut rng = StdRng::seed_from_u64(4);
    bench("amoebot_activation_n100_x1000", || {
        for _ in 0..1000 {
            black_box(sys.activate_random(&mut rng));
        }
    });
}

fn bench_figures_reduced() {
    // End-to-end reduced renditions of the figure pipelines, so `cargo
    // bench` exercises every experiment path.
    bench("fig2_pipeline_reduced", || {
        let mut rng = StdRng::seed_from_u64(5);
        let nodes = construct::random_blob(40, &mut rng);
        let mut config =
            Configuration::new(construct::bicolor_random(nodes, 20, &mut rng)).unwrap();
        let chain = SeparationChain::new(Bias::new(4.0, 4.0).unwrap());
        chain.run(&mut config, 50_000, &mut rng);
        black_box((
            config.perimeter(),
            config.hetero_edge_count(),
            is_separated(&config, 4.0, 0.2).is_some(),
        ));
    });
    bench("lemma9_pipeline_exact_n3", || {
        let chain = SeparationChain::new(Bias::new(2.0, 3.0).unwrap());
        let exact = enumerate::ExactSeparationChain::new(chain, 3, 1);
        let matrix = sops_chains::TransitionMatrix::build(&exact);
        let pi = exact.lemma9_distribution(matrix.states());
        black_box(matrix.detailed_balance_violation(&pi));
    });
}

fn main() {
    let smoke_requested = std::env::args().skip(1).any(|a| a == "--smoke")
        || std::env::var_os("SOPS_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty());
    SMOKE.set(smoke_requested).expect("smoke flag set once");
    if smoke() {
        println!("(smoke mode: reduced budgets, medians are not stable)");
    }
    println!("{:<44} {:>12}", "benchmark", "median");
    let throughput = bench_chain_step();
    let overhead = bench_instrumented_overhead();
    bench_properties();
    bench_observables();
    bench_configuration_memory();
    bench_construction();
    bench_separation_certificate();
    bench_enumeration();
    bench_polymer();
    bench_node_map_vs_std();
    bench_amoebot();
    bench_figures_reduced();
    write_bench_chain_json(&throughput, &overhead);
    if let Err(e) = emit_demo_telemetry() {
        eprintln!("telemetry demo stream failed: {e}");
    }
}
