//! Regenerates every table and figure of the paper's evaluation as console
//! tables, pairing each complexity claim with a measured growth exponent or
//! blow-up factor. See DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! ```sh
//! cargo run --release -p vermem-bench --bin experiments            # all
//! cargo run --release -p vermem-bench --bin experiments -- e5.3   # one
//! cargo run --release -p vermem-bench --bin experiments -- --json # BENCH_vmc.json
//! ```
//!
//! `--json` runs the five receipt experiments — the E-PRUNE
//! inference-layer ablation, the E-TIER tiered-verification ablation
//! (closure frontline vs exact-only, per trace family), the E-AXIOM
//! declared-model ablation (every `ModelSpec` model through the operational
//! compiler and the SAT compiler, plus the RA frontline probe), the
//! E-STREAM streaming-engine family (detections and peak retained windows
//! at 1/4/16 concurrent streams, plus the bounded-memory probe) and the
//! E-SMALL small-scope space (every canonical trace of up to four
//! operations under every model and engine) — once each, and writes
//! `BENCH_vmc.json` in the current directory. Every field of that receipt
//! is a work count, a verdict class or a boolean, so two runs write
//! byte-identical files; `scripts/verify.sh` compares a fresh
//! run with the committed file byte for byte. Wall-clock performance is
//! measured by `vmcbench`, not here.
//!
//! `--metrics` prints the unified run report (counters/gauges/histograms
//! accumulated across the selected experiments) when the run finishes;
//! `--trace-out FILE` additionally writes a Chrome trace-event file
//! loadable in Perfetto / `chrome://tracing`.

use std::time::Instant;
use vermem_bench::{loglog_slope, mean_growth_ratio, median_secs};
use vermem_coherence::{
    backtrack, one_op, readmap, rmw, solve_with_write_order, verify_execution_par, SearchConfig,
    TierConfig, TierStats, VmcVerifier,
};
use vermem_consistency::{
    merge_coherent_schedules, verify_axiom, AxiomConfig, Engine, MergeOutcome, ModelId,
};
use vermem_reductions::{
    example_fig_4_2, reduce_3sat_restricted, reduce_3sat_rmw, reduce_sat_to_lrc, reduce_sat_to_vmc,
    reduce_sat_to_vscc,
};
use vermem_sat::random::{gen_random_ksat, RandomSatConfig};
use vermem_sat::solve_cdcl;
use vermem_sim::{
    random_program, shared_counter, FaultKind, FaultPlan, Machine, MachineConfig, WorkloadConfig,
};
use vermem_trace::classify::InstanceProfile;
use vermem_trace::gen::{gen_sc_trace, inject_violation, GenConfig, ViolationKind};
use vermem_trace::{Addr, AddrIndex, AddrOps, OpRef, Trace};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--trace-out` takes a value: pre-extract it (both `--trace-out FILE`
    // and `--trace-out=FILE`) before the filter scan below so the path is
    // not mistaken for an experiment id.
    let mut trace_out: Option<String> = None;
    let mut metrics = false;
    let mut argv: Vec<String> = Vec::with_capacity(raw.len());
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--trace-out" {
            match it.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out requires a file argument");
                    std::process::exit(2);
                }
            }
        } else if let Some(path) = a.strip_prefix("--trace-out=") {
            trace_out = Some(path.to_string());
        } else if a == "--metrics" {
            metrics = true;
        } else {
            argv.push(a);
        }
    }
    let obs_on = metrics || trace_out.is_some();
    if obs_on {
        vermem_util::obs::reset();
        vermem_util::obs::set_enabled(true);
    }
    let json = argv.iter().any(|a| a == "--json");
    // Bare `--json` means "produce the receipt": run only the five receipt
    // experiments rather than the whole console suite.
    let filter = argv
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| {
            if json {
                String::new()
            } else {
                "all".to_string()
            }
        });
    let run = |id: &str| filter == "all" || filter == id;
    let receipt = |id: &str| json || run(id);

    if run("e4.1") {
        e4_1_sat_to_vmc();
    }
    if run("e4.2") {
        e4_2_worked_example();
    }
    if run("e5.1") {
        e5_reduction("e5.1 (Figure 5.1)", &|f| reduce_3sat_restricted(f).trace);
    }
    if run("e5.2") {
        e5_reduction("e5.2 (Figure 5.2)", &|f| reduce_3sat_rmw(f).trace);
    }
    if run("e5.3") {
        e5_3_table();
    }
    if run("e6.1") {
        e6_1_lrc();
    }
    if run("e6.2") || run("e6.3") {
        e6_2_vscc();
    }
    if run("evscc") {
        e_vscc_hardness();
    }
    if run("esim") {
        e_sim_detection();
    }
    if run("eonline") {
        e_online_checker();
    }
    if run("eopen") {
        e_open_problems();
    }
    let prune = receipt("eprune").then(e_prune);
    let tier = receipt("etier").then(e_tier);
    let axiom = receipt("eaxiom").then(e_axiom);
    let stream = receipt("estream").then(e_stream);
    let small = receipt("esmall").then(e_small_scope);
    if let (true, Some(prune), Some(tier), Some(axiom), Some(stream), Some(small)) =
        (json, prune, tier, axiom, stream, small)
    {
        let path = "BENCH_vmc.json";
        std::fs::write(path, bench_json(&prune, &tier, &axiom, &stream, &small))
            .expect("write BENCH_vmc.json");
        println!("\nwrote {path}");
    }

    if obs_on {
        vermem_util::obs::set_enabled(false);
        let events = vermem_util::obs::take_events();
        if let Some(path) = &trace_out {
            std::fs::write(path, vermem_util::obs::chrome::render_chrome_trace(&events))
                .expect("write trace-out file");
            println!("\nwrote Chrome trace ({} events) to {path}", events.len());
        }
        if metrics {
            let mut report = vermem_util::obs::report::RunReport::new();
            report.extend_from_metrics(&vermem_util::obs::snapshot());
            header("run report (accumulated across selected experiments)");
            print!("{}", report.to_text());
        }
    }
}

fn header(title: &str) {
    println!("\n==========================================================================");
    println!("{title}");
    println!("==========================================================================");
}

// ---------------------------------------------------------------------------
// E-4.1: the SAT → VMC reduction at scale.
// ---------------------------------------------------------------------------
fn e4_1_sat_to_vmc() {
    header("E-4.1  SAT → VMC (Figure 4.1): size and equisatisfiability");
    println!("paper: instance has 2m+3 histories and O(mn) operations; coherent iff SAT");
    println!(
        "{:>4} {:>4} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "m", "n", "histories", "ops", "SAT", "coherent", "agree"
    );
    let mut agreements = 0;
    let mut total = 0;
    for m in [3u32, 4, 5, 6] {
        for ratio in [2.0, 4.0] {
            let cfg = RandomSatConfig::three_sat(m, ratio, 7 * u64::from(m));
            let f = gen_random_ksat(&cfg);
            let red = reduce_sat_to_vmc(&f);
            let sat = solve_cdcl(&f).is_sat();
            let ops = AddrOps::of(&red.trace, Addr::ZERO);
            let (verdict, _) =
                backtrack::solve_backtracking_ops_with_stats(&ops, &SearchConfig::default());
            let coh = verdict.is_coherent();
            total += 1;
            if sat == coh {
                agreements += 1;
            }
            println!(
                "{:>4} {:>4} {:>10} {:>8} {:>10} {:>10} {:>8}",
                m,
                f.num_clauses(),
                red.trace.num_procs(),
                red.trace.num_ops(),
                sat,
                coh,
                sat == coh
            );
        }
    }
    println!("equisatisfiability: {agreements}/{total}");
}

// ---------------------------------------------------------------------------
// E-4.2: the worked example of Figure 4.2.
// ---------------------------------------------------------------------------
fn e4_2_worked_example() {
    header("E-4.2  worked example (Figure 4.2): Q = u");
    let red = example_fig_4_2();
    println!("instance:\n{}", vermem_trace::fmt::format_trace(&red.trace));
    let ops = AddrOps::of(&red.trace, Addr::ZERO);
    let (verdict, _) = backtrack::solve_backtracking_ops_with_stats(&ops, &SearchConfig::default());
    let schedule = verdict.schedule().expect("Q = u is satisfiable");
    println!("coherent schedule: {schedule:?}");
    let model = red.extract_assignment(schedule);
    println!(
        "extracted T(u) = {} (paper: coherent iff W(d_u) precedes W(d_ū))",
        model.value(vermem_sat::Var(0)).unwrap()
    );
}

// ---------------------------------------------------------------------------
// E-5.1 / E-5.2: the restricted reductions — restriction check + blow-up.
// ---------------------------------------------------------------------------
fn e5_reduction(title: &str, reduce: &dyn Fn(&vermem_sat::Cnf) -> Trace) {
    header(&format!(
        "{title}: restrictions hold; exact-solver states blow up with m"
    ));
    println!(
        "{:>10} {:>4} {:>6} {:>8} {:>12} {:>14} {:>12}",
        "family", "m", "ops", "ops/proc", "writes/value", "states", "verdict"
    );
    // A state budget keeps the harness bounded; a capped row already
    // demonstrates the blow-up. Pruning is off here by design: E-5.1/E-5.2
    // measure the *baseline* exponential wall of the exact search; how much
    // of it the PR-4 inference layer recovers is E-PRUNE's question.
    const CAP: u64 = 2_000_000;
    let cfg_capped = SearchConfig {
        max_states: Some(CAP),
        prune: false,
    };
    let mut points = Vec::new();
    let solve_row = |family: &str, m: u32, f: &vermem_sat::Cnf| -> (u64, bool) {
        let trace = reduce(f);
        let ops = AddrOps::of(&trace, Addr::ZERO);
        let profile = InstanceProfile::of_ops(&ops);
        let (verdict, stats) = backtrack::solve_backtracking_ops_with_stats(&ops, &cfg_capped);
        let verdict_str = match &verdict {
            vermem_coherence::Verdict::Coherent(_) => "coherent",
            vermem_coherence::Verdict::Incoherent(_) => "incoherent",
            vermem_coherence::Verdict::Unknown => "capped",
        };
        println!(
            "{:>10} {:>4} {:>6} {:>8} {:>12} {:>14} {:>12}",
            family,
            m,
            trace.num_ops(),
            profile.max_ops_per_proc,
            profile.max_writes_per_value,
            stats.states,
            verdict_str
        );
        (
            stats.states,
            matches!(verdict, vermem_coherence::Verdict::Unknown),
        )
    };

    // Satisfiable family: the search completes; states grow with m.
    let mut wall: Option<u32> = None;
    for m in [3u32, 4, 5, 6] {
        let f = vermem_sat::random::gen_forced_sat(&RandomSatConfig::three_sat(
            m,
            1.0,
            31 * u64::from(m),
        ));
        let (states, capped) = solve_row("SAT", m, &f);
        if capped {
            wall.get_or_insert(m);
        } else {
            points.push((f64::from(m), states as f64));
        }
    }
    // One over-constrained instance: the exponential wall.
    let f = gen_random_ksat(&RandomSatConfig::three_sat(3, 5.0, 93));
    let _ = solve_row("overcons", 3, &f);

    if points.len() >= 2 {
        println!(
            "mean states growth per +1 variable below the wall: ×{:.2}",
            mean_growth_ratio(&points)
        );
    }
    if let Some(m) = wall {
        println!(
            "search exceeded the {CAP}-state cap from m = {m}: the exponential wall \
             of an NP-complete cell"
        );
    }
}

// ---------------------------------------------------------------------------
// E-5.3: the headline complexity table with measured exponents.
// ---------------------------------------------------------------------------
fn e5_3_table() {
    header("E-5.3  Figure 5.3: complexity summary with measured growth exponents");
    println!(
        "{:<34} {:>14} {:>14} {:>10}",
        "case", "paper bound", "ours", "slope"
    );
    let sizes = [400usize, 800, 1600, 3200, 6400];

    // Row: 1 op/process, simple — paper O(n lg n), ours O(n).
    let slope = sweep(
        &sizes,
        |n| one_op_instance(n, false),
        |t| {
            assert!(one_op::solve_one_op_ops(&AddrOps::of(t, Addr::ZERO)).is_coherent());
        },
    );
    row("1 op/process (simple R/W)", "O(n lg n)", "O(n)", slope);

    // Row: 1 op/process, RMW — paper O(n^2), ours O(n) (Eulerian path).
    let slope = sweep(
        &sizes,
        |n| one_op_instance(n, true),
        |t| {
            assert!(rmw::solve_rmw_one_op_ops(&AddrOps::of(t, Addr::ZERO)).is_coherent());
        },
    );
    row("1 op/process (RMW)", "O(n^2)", "O(n) Euler", slope);

    // Row: 1 write/value (read-map), simple — paper O(n), ours O(n).
    let slope = sweep(&sizes, readmap_instance, |t| {
        assert!(readmap::solve_readmap_ops(&AddrOps::of(t, Addr::ZERO)).is_coherent());
    });
    row("1 write/value (simple)", "O(n)", "O(n)", slope);

    // Row: RMW read-map — paper O(n lg n), ours O(n) forced chain.
    let slope = sweep(&sizes, rmw_chain_instance, |t| {
        assert!(rmw::solve_rmw_readmap_ops(&AddrOps::of(t, Addr::ZERO)).is_coherent());
    });
    row("1 write/value (RMW chain)", "O(n lg n)", "O(n)", slope);

    // Row: constant processes — paper O(n^k); memoized search, k = 3.
    let slope = sweep(
        &[200, 400, 800, 1600],
        |n| {
            gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: n,
                addrs: 1,
                value_reuse: 0.5,
                seed: n as u64,
                ..Default::default()
            })
            .0
        },
        |t| {
            let ops = AddrOps::of(t, Addr::ZERO);
            let (verdict, _) =
                backtrack::solve_backtracking_ops_with_stats(&ops, &SearchConfig::default());
            assert!(verdict.is_coherent());
        },
    );
    row("constant processes (k=3)", "O(n^k)", "memoized DFS", slope);

    // Rows: write order given — paper O(n^2) simple / O(n) all-RMW. The
    // instance (trace + order) is prebuilt so only the solve is timed.
    for (label, claim, all_rmw) in [
        ("write-order given (simple)", "O(n^2)", false),
        ("write-order given (RMW)", "O(n)", true),
    ] {
        let mut points = Vec::new();
        for &n in &sizes {
            let (trace, order) = write_order_instance(n, all_rmw);
            let secs = median_secs(5, || {
                let ops = AddrOps::of(&trace, Addr::ZERO);
                assert!(solve_with_write_order(&ops, &order).is_coherent());
            });
            points.push((n as f64, secs));
        }
        row(label, claim, claim, loglog_slope(&points));
    }

    println!(
        "\nNP-complete rows (3+ ops/process, 2+ writes/value; 2 RMWs/process,\n\
         3 writes/value) are demonstrated by the E-5.1/E-5.2 state blow-up;\n\
         the open cells of the paper (§7) have no algorithm to measure."
    );
}

fn row(case: &str, paper: &str, ours: &str, slope: f64) {
    println!("{case:<34} {paper:>14} {ours:>14} {slope:>10.2}");
}

fn sweep(
    sizes: &[usize],
    mut build: impl FnMut(usize) -> Trace,
    mut solve: impl FnMut(&Trace),
) -> f64 {
    let mut points = Vec::new();
    for &n in sizes {
        let trace = build(n);
        let secs = median_secs(5, || solve(&trace));
        points.push((n as f64, secs));
    }
    loglog_slope(&points)
}

/// n singleton processes: writes of ~n/2 distinct values (each twice, so the
/// read-map row does not apply), plus reads of those values / the initial
/// value. All-RMW variant builds an Eulerian cycle of RMWs.
fn one_op_instance(n: usize, all_rmw: bool) -> Trace {
    use vermem_trace::{Op, ProcessHistory};
    let mut histories = Vec::with_capacity(n);
    if all_rmw {
        // n single-RMW processes forming one long cycle 0→1→…→0 so an
        // Eulerian path exists from d_I = 0.
        for i in 0..n {
            let next = if i + 1 == n { 0 } else { i as u64 + 1 };
            histories.push(ProcessHistory::from_ops([Op::rw(i as u64, next)]));
        }
    } else {
        // Write/read pairs share a value; each value is written ~twice.
        let vals = (n / 4).max(1);
        for i in 0..n {
            let v = 1 + ((i / 2) % vals) as u64;
            histories.push(ProcessHistory::from_ops([if i % 2 == 0 {
                Op::w(v)
            } else {
                Op::r(v)
            }]));
        }
    }
    Trace::from_histories(histories)
}

/// A unique-write chain across 4 processes: W(1..n) round-robin with reads
/// of the previous value inserted after each write.
fn readmap_instance(n: usize) -> Trace {
    use vermem_trace::{Op, ProcessHistory};
    let procs = 4;
    let mut hists = vec![Vec::new(); procs];
    for i in 0..n / 2 {
        let v = i as u64 + 1;
        hists[i % procs].push(Op::w(v));
        hists[(i + 1) % procs].push(Op::r(v));
    }
    Trace::from_histories(hists.into_iter().map(ProcessHistory::from_ops))
}

/// A forced RMW chain 0→1→…→n split round-robin over 4 processes in
/// program order.
fn rmw_chain_instance(n: usize) -> Trace {
    use vermem_trace::{Op, ProcessHistory};
    let procs = 4;
    let mut hists = vec![Vec::new(); procs];
    for i in 0..n {
        hists[i % procs].push(Op::rw(i as u64, i as u64 + 1));
    }
    Trace::from_histories(hists.into_iter().map(ProcessHistory::from_ops))
}

/// A generated coherent trace plus its committed write order.
fn write_order_instance(n: usize, all_rmw: bool) -> (Trace, Vec<OpRef>) {
    let cfg = if all_rmw {
        GenConfig::all_rmw(4, n, n as u64)
    } else {
        GenConfig {
            procs: 4,
            total_ops: n,
            value_reuse: 0.5,
            seed: n as u64,
            ..Default::default()
        }
    };
    let (trace, witness) = gen_sc_trace(&cfg);
    let order: Vec<OpRef> = witness
        .refs()
        .iter()
        .copied()
        .filter(|&r| trace.op(r).unwrap().is_writing())
        .collect();
    (trace, order)
}

// ---------------------------------------------------------------------------
// E-6.1: the LRC-synchronized reduction (Figure 6.1).
// ---------------------------------------------------------------------------
fn e6_1_lrc() {
    header("E-6.1  Figure 6.1: LRC-synchronized SAT → VMC");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>8}",
        "m", "sync ops", "SAT", "LRC ok", "agree"
    );
    for m in [3u32, 4, 5] {
        let f = gen_random_ksat(&RandomSatConfig::three_sat(m, 4.0, 11 * u64::from(m)));
        let sat = solve_cdcl(&f).is_sat();
        let red = reduce_sat_to_lrc(&f);
        let verdict = vermem_consistency::lrc::verify_lrc_fully_synchronized(
            &red.sync_trace,
            vermem_reductions::lrc::LOCK,
        )
        .expect("fully synchronized by construction");
        let ops: usize = red
            .sync_trace
            .histories()
            .iter()
            .map(|h| h.ops().len())
            .sum();
        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>8}",
            m,
            ops,
            sat,
            verdict.is_coherent(),
            sat == verdict.is_coherent()
        );
    }
}

// ---------------------------------------------------------------------------
// E-6.2 / E-6.3: SAT → VSCC; the coherence promise holds by construction.
// ---------------------------------------------------------------------------
fn e6_2_vscc() {
    header("E-6.2/E-6.3  Figure 6.2: SAT → VSCC (coherence promise, Figure 6.3)");
    println!(
        "{:>4} {:>6} {:>6} {:>10} {:>10} {:>10} {:>8}",
        "m", "procs", "addrs", "coherent", "SAT", "SC", "agree"
    );
    for m in [3u32, 4, 5] {
        let f = gen_random_ksat(&RandomSatConfig::three_sat(m, 4.0, 13 * u64::from(m)));
        let sat = solve_cdcl(&f).is_sat();
        let red = reduce_sat_to_vscc(&f);
        let coherent = vermem_coherence::verify_execution(&red.trace).is_coherent();
        let sc = verify_axiom(&red.trace, ModelId::Sc, &AxiomConfig::default())
            .verdict
            .is_consistent();
        println!(
            "{:>4} {:>6} {:>6} {:>10} {:>10} {:>10} {:>8}",
            m,
            red.trace.num_procs(),
            red.trace.addresses().len(),
            coherent,
            sat,
            sc,
            sat == sc
        );
        assert!(
            coherent,
            "Figure 6.3: the promise must hold by construction"
        );
    }
}

// ---------------------------------------------------------------------------
// E-VSCC-HARD: coherence (polynomial per address) vs exact VSC time.
// ---------------------------------------------------------------------------
fn e_vscc_hardness() {
    header("E-VSCC  §6.3: verifying coherence is cheap; SC stays hard after it");
    println!(
        "{:>4} {:>8} {:>16} {:>16} {:>10}",
        "m", "ops", "coherence (µs)", "exact VSC (µs)", "merge?"
    );
    for m in [3u32, 4, 5] {
        let f = gen_random_ksat(&RandomSatConfig::three_sat(m, 4.5, 17 * u64::from(m)));
        let red = reduce_sat_to_vscc(&f);
        let t0 = Instant::now();
        let verdict = vermem_coherence::verify_execution(&red.trace);
        let coh_us = t0.elapsed().as_secs_f64() * 1e6;
        let vermem_coherence::ExecutionVerdict::Coherent(schedules) = verdict else {
            panic!("promise holds by construction");
        };
        let merged = matches!(
            merge_coherent_schedules(&red.trace, &schedules),
            MergeOutcome::Merged(_)
        );
        let t1 = Instant::now();
        let _ = verify_axiom(&red.trace, ModelId::Sc, &AxiomConfig::default());
        let vsc_us = t1.elapsed().as_secs_f64() * 1e6;
        println!(
            "{m:>4} {:>8} {coh_us:>16.1} {vsc_us:>16.1} {merged:>10}",
            red.trace.num_ops()
        );
    }
}

// ---------------------------------------------------------------------------
// E-OPEN: empirical reconnaissance of the §7 open cells.
// ---------------------------------------------------------------------------
fn e_open_problems() {
    use vermem_coherence::open_problems::{probe_open_cell, OpenCell};
    header("E-OPEN  §7 open problems: exact-search difficulty on random instances");
    println!(
        "{:<28} {:>6} {:>8} {:>12} {:>10} {:>10}",
        "cell", "procs", "samples", "max states", "coherent", "incoherent"
    );
    for procs in [4usize, 8, 12, 16] {
        let (ms, c, i) = probe_open_cell(OpenCell::TwoSimpleOpsPerProc, procs, 30, 11);
        println!(
            "{:<28} {procs:>6} {:>8} {ms:>12} {c:>10} {i:>10}",
            "2 simple ops/process", 30
        );
    }
    for procs in [4usize, 8, 16, 32] {
        let (ms, c, i) = probe_open_cell(OpenCell::RmwTwoWritesPerValue, procs, 30, 13);
        println!(
            "{:<28} {procs:>6} {:>8} {ms:>12} {c:>10} {i:>10}",
            "RMW, ≤2 writes/value", 30
        );
    }
    println!(
        "interpretation: rapid state growth in a cell is evidence (not proof)\n\
         toward hardness; sustained mildness hints at tractability (§7). In our\n\
         probes the 2-simple-ops cell blows up quickly under naive search while\n\
         the RMW ≤2-writes cell stays mild."
    );
}

// ---------------------------------------------------------------------------
// E-ONLINE: the streaming checker — throughput and detection latency.
// ---------------------------------------------------------------------------
fn e_online_checker() {
    header("E-ONLINE  streaming verification: throughput and detection latency");
    println!("{:>8} {:>14} {:>16}", "events", "verify (µs)", "events/µs");
    for &instrs in &[1_000usize, 4_000, 16_000, 64_000] {
        let program = random_program(&WorkloadConfig {
            cpus: 4,
            instrs_per_cpu: instrs / 4,
            addrs: 4,
            write_fraction: 0.45,
            rmw_fraction: 0.1,
            seed: instrs as u64,
        });
        let cap = Machine::run(
            &program,
            MachineConfig {
                seed: 3,
                ..Default::default()
            },
        );
        let t = Instant::now();
        let mut v = vermem_coherence::OnlineVerifier::new();
        for &(proc, op) in &cap.event_log {
            v.observe(proc, op);
        }
        assert!(v.finish().is_empty(), "healthy run must be clean");
        let us = t.elapsed().as_secs_f64() * 1e6;
        println!(
            "{:>8} {:>14.1} {:>16.2}",
            cap.event_log.len(),
            us,
            cap.event_log.len() as f64 / us
        );
    }

    // Detection latency distribution on faulty counter runs.
    let mut latencies: Vec<u64> = Vec::new();
    for seed in 0..60 {
        let cap = Machine::run(
            &shared_counter(4, 10),
            MachineConfig {
                seed,
                faults: vec![FaultPlan {
                    kind: FaultKind::DropInvalidation { victim_cpu: 1 },
                    at_step: 10,
                }],
                ..Default::default()
            },
        );
        let mut v = vermem_coherence::OnlineVerifier::new();
        for &(proc, op) in &cap.event_log {
            v.observe(proc, op);
        }
        for viol in v.finish() {
            latencies.push(viol.detected_at - viol.issued_at);
        }
    }
    if latencies.is_empty() {
        println!("no faulty run produced a detection (all masked)");
    } else {
        latencies.sort_unstable();
        println!(
            "detection latency over {} violations: median {} events, p90 {} events, max {}",
            latencies.len(),
            latencies[latencies.len() / 2],
            latencies[latencies.len() * 9 / 10],
            latencies.last().unwrap()
        );
    }
}

// ---------------------------------------------------------------------------
// The receipt experiments (E-PRUNE, E-TIER, E-AXIOM, E-STREAM): every field
// they record is a count, a verdict class or a boolean, so one pass gives
// the same numbers on any host and `--json` writes a byte-stable
// BENCH_vmc.json.
// ---------------------------------------------------------------------------

/// One row of the E-PRUNE ablation: a blow-up instance solved with
/// [`SearchConfig::prune`] off (`none`) or on (`all`), with every prune
/// counter recorded.
struct PruneRow {
    case: String,
    config: &'static str,
    states: u64,
    memo_hits: u64,
    memo_misses: u64,
    window_prunes: u64,
    symmetry_prunes: u64,
    verdict: &'static str,
}

/// One row of the E-TIER ablation: a trace family verified under one tier
/// pipeline (`closure,exact` vs `exact`), with per-tier address accounting
/// and verdict counts. Verdict classes are identical across pipelines by
/// construction (asserted); only the accounting may differ.
struct TierRow {
    family: &'static str,
    tier: &'static str,
    traces: usize,
    addresses: u64,
    frontline_decided: u64,
    escalated: u64,
    coherent: usize,
    incoherent: usize,
    unknown: usize,
}

/// The E-TIER trace families: realistic protocol captures (healthy and
/// fault-injected MESI runs), SC-generated traces, and the litmus corpus.
/// The healthy-sim family uses the same workload shape as the
/// `tier_differential` suite, so the committed receipt and the test gate
/// measure the same population.
fn tier_families() -> Vec<(&'static str, Vec<Trace>)> {
    let healthy: Vec<Trace> = (0..16)
        .map(|seed| {
            Machine::run(
                &random_program(&WorkloadConfig {
                    cpus: 4,
                    instrs_per_cpu: 30,
                    addrs: 4,
                    write_fraction: 0.45,
                    rmw_fraction: 0.1,
                    seed,
                }),
                MachineConfig {
                    seed,
                    ..Default::default()
                },
            )
            .trace
        })
        .collect();
    let generated: Vec<Trace> = (0..6)
        .map(|seed| {
            gen_sc_trace(&GenConfig {
                procs: 4,
                total_ops: 240,
                addrs: 6,
                value_reuse: 0.5,
                seed,
                ..Default::default()
            })
            .0
        })
        .collect();
    let litmus: Vec<Trace> = vermem_consistency::litmus::all_litmus_tests()
        .into_iter()
        .map(|t| t.trace)
        .collect();
    let kinds = [
        FaultKind::CorruptFill {
            cpu: 1,
            xor: 0xDEAD_0000,
        },
        FaultKind::LostWrite { cpu: 0 },
        FaultKind::StaleFill { cpu: 1 },
        FaultKind::DropInvalidation { victim_cpu: 2 },
    ];
    let faulty: Vec<Trace> = kinds
        .into_iter()
        .flat_map(|kind| {
            (0..5).map(move |seed| {
                Machine::run(
                    &random_program(&WorkloadConfig {
                        cpus: 4,
                        instrs_per_cpu: 25,
                        addrs: 4,
                        write_fraction: 0.5,
                        rmw_fraction: 0.0,
                        seed: 700 + seed,
                    }),
                    MachineConfig {
                        seed,
                        faults: vec![FaultPlan { kind, at_step: 8 }],
                        ..Default::default()
                    },
                )
                .trace
            })
        })
        .collect();
    vec![
        ("healthy-sim", healthy),
        ("generated", generated),
        ("litmus", litmus),
        ("fault-injected", faulty),
    ]
}

/// E-TIER: the tiered-verification ablation. Each family is verified under
/// the default `closure,exact` pipeline and the `exact`-only ablation;
/// verdict classes must match trace by trace (asserted — the differential
/// suite proves the same at every thread count), while the accounting shows
/// how many addresses the polynomial frontline decided without escalation.
/// Each verified address is decided by exactly one tier, and the frontline
/// decides at least 90% of the healthy-sim addresses (both asserted).
fn tier_ablation() -> Vec<TierRow> {
    let configs: [(&'static str, TierConfig); 2] = [
        ("closure,exact", TierConfig::tiered()),
        ("exact", TierConfig::exact_only()),
    ];
    let mut rows = Vec::new();
    for (family, traces) in &tier_families() {
        let mut per_config_verdicts = Vec::new();
        for (spec, tier) in configs {
            let verifier = VmcVerifier {
                tier,
                ..VmcVerifier::new()
            };
            let mut tiers = TierStats::default();
            let mut coherent = 0;
            let mut incoherent = 0;
            let mut unknown = 0;
            let mut verdicts = Vec::with_capacity(traces.len());
            for t in traces {
                let report = verify_execution_par(t, &verifier, 1);
                tiers.absorb(&report.tiers);
                // Exactly one tier decides each address of the verified
                // prefix: all addresses when coherent, up to and including
                // the first failure otherwise.
                let decided = report.tiers.total() as usize;
                if report.is_coherent() {
                    assert_eq!(decided, report.addresses, "{family}/{spec}: tier split");
                } else {
                    assert!(decided <= report.addresses, "{family}/{spec}: tier split");
                }
                *match &report.verdict {
                    vermem_coherence::ExecutionVerdict::Coherent(_) => &mut coherent,
                    vermem_coherence::ExecutionVerdict::Incoherent(_) => &mut incoherent,
                    vermem_coherence::ExecutionVerdict::Unknown { .. } => &mut unknown,
                } += 1;
                verdicts.push(std::mem::discriminant(&report.verdict));
            }
            per_config_verdicts.push(verdicts);
            rows.push(TierRow {
                family,
                tier: spec,
                traces: traces.len(),
                addresses: tiers.total(),
                frontline_decided: tiers.frontline_decided,
                escalated: tiers.escalated,
                coherent,
                incoherent,
                unknown,
            });
        }
        assert!(
            per_config_verdicts.windows(2).all(|w| w[0] == w[1]),
            "{family}: tier pipelines must agree on every verdict"
        );
    }
    let healthy = rows
        .iter()
        .find(|r| r.family == "healthy-sim" && r.tier == "closure,exact")
        .expect("healthy-sim row");
    assert!(
        healthy.frontline_decided * 10 >= healthy.addresses * 9,
        "E-TIER: the frontline decided only {}/{} healthy-sim addresses (< 90%)",
        healthy.frontline_decided,
        healthy.addresses
    );
    rows
}

fn e_tier() -> Vec<TierRow> {
    header("E-TIER  tiered verification: closure frontline vs exact-only");
    let rows = tier_ablation();
    println!(
        "{:>15} {:>14} {:>7} {:>6} {:>10} {:>10} {:>5} {:>5} {:>5}",
        "family", "tier", "traces", "addrs", "frontline", "escalated", "coh", "inc", "unk"
    );
    for r in &rows {
        println!(
            "{:>15} {:>14} {:>7} {:>6} {:>10} {:>10} {:>5} {:>5} {:>5}",
            r.family,
            r.tier,
            r.traces,
            r.addresses,
            r.frontline_decided,
            r.escalated,
            r.coherent,
            r.incoherent,
            r.unknown
        );
    }
    // Headline: the frontline share of the realistic healthy family.
    let r = &rows[0];
    let pct = 100.0 * r.frontline_decided as f64 / r.addresses as f64;
    println!(
        "{}: frontline decided {}/{} addresses ({pct:.1}%) without escalation",
        r.family, r.frontline_decided, r.addresses
    );
    rows
}

/// One row of the E-AXIOM ablation: one declared model (`ModelSpec`) run
/// through one of its engines over one trace family, with verdict-class
/// counts. Parity is asserted in-harness: every engine must match the SAT
/// oracle on consistency, and no unbudgeted run may return unknown.
struct AxiomRow {
    model: &'static str,
    engine: &'static str,
    family: &'static str,
    traces: usize,
    consistent: usize,
    violating: usize,
    unknown: usize,
}

/// The RA polynomial-tier decision probe: healthy generated traces with no
/// value reuse (every read names a unique writer), the population behind
/// the >= 90% decision gate asserted in [`axiom_ablation`]. The tier never
/// decides against the exact-only pipeline (asserted per trace).
struct RaFrontlineProbe {
    traces: usize,
    frontline_decided: usize,
}

/// The E-AXIOM trace families: the litmus corpus, healthy SC-generated
/// workloads, and fault-injected mutations of the latter (the violating
/// side of the differential).
fn axiom_families() -> Vec<(&'static str, Vec<Trace>)> {
    let litmus: Vec<Trace> = vermem_consistency::litmus::all_litmus_tests()
        .into_iter()
        .map(|t| t.trace)
        .collect();
    let generated: Vec<Trace> = (0..5)
        .map(|seed| {
            gen_sc_trace(&GenConfig {
                procs: 3,
                total_ops: 12,
                addrs: 2,
                value_reuse: 0.5,
                seed: 70_000 + seed,
                ..Default::default()
            })
            .0
        })
        .collect();
    let kinds = [
        ViolationKind::CorruptReadValue,
        ViolationKind::StaleRead,
        ViolationKind::LostWrite,
        ViolationKind::ReorderAdjacent,
    ];
    let faulty: Vec<Trace> = kinds
        .into_iter()
        .flat_map(|kind| {
            (0..2).filter_map(move |seed| {
                let (t, _) = gen_sc_trace(&GenConfig {
                    procs: 3,
                    total_ops: 12,
                    addrs: 2,
                    value_reuse: 0.6,
                    seed: 71_000 + seed,
                    ..Default::default()
                });
                inject_violation(&t, kind, 72_000 + seed).map(|(bad, _)| bad)
            })
        })
        .collect();
    vec![
        ("litmus", litmus),
        ("generated", generated),
        ("fault-injected", faulty),
    ]
}

/// E-AXIOM: every declared model through both engines per (family, model,
/// engine), with compiled/SAT parity asserted on every trace the rows are
/// built from. Also asserted: no run returns unknown, the litmus corpus
/// orders the models by strength, and the RA frontline decides at least
/// 90% of its probe traces.
fn axiom_ablation() -> (Vec<AxiomRow>, RaFrontlineProbe) {
    let mut rows = Vec::new();
    for (family, traces) in &axiom_families() {
        for id in ModelId::ALL {
            // SAT-oracle consistency bits, computed once per (family, model).
            let oracle: Vec<bool> = traces
                .iter()
                .map(|t| {
                    verify_axiom(
                        t,
                        id,
                        &AxiomConfig {
                            engine: Engine::Sat,
                            ..AxiomConfig::default()
                        },
                    )
                    .verdict
                    .is_consistent()
                })
                .collect();
            for engine in [Engine::Compiled, Engine::Sat] {
                let cfg = AxiomConfig {
                    engine,
                    ..AxiomConfig::default()
                };
                let (mut consistent, mut violating, mut unknown) = (0usize, 0usize, 0usize);
                for (t, &sat_ok) in traces.iter().zip(&oracle) {
                    let report = verify_axiom(t, id, &cfg);
                    if report.verdict.is_consistent() {
                        consistent += 1;
                    } else if report.verdict.is_violating() {
                        violating += 1;
                    } else {
                        unknown += 1;
                    }
                    assert_eq!(
                        report.verdict.is_consistent(),
                        sat_ok,
                        "E-AXIOM: {} via {} drifts from the SAT oracle ({family})",
                        id.name(),
                        engine.name()
                    );
                }
                assert_eq!(
                    unknown,
                    0,
                    "E-AXIOM: unbudgeted {} via {} returned unknown ({family})",
                    id.name(),
                    engine.name()
                );
                rows.push(AxiomRow {
                    model: id.name(),
                    engine: engine.name(),
                    family,
                    traces: traces.len(),
                    consistent,
                    violating,
                    unknown,
                });
            }
        }
    }
    let probe_traces = 24;
    let mut decided = 0usize;
    for seed in 0..probe_traces as u64 {
        let (t, _) = gen_sc_trace(&GenConfig {
            procs: 3,
            total_ops: 16,
            addrs: 3,
            value_reuse: 0.0,
            seed: 73_000 + seed,
            ..Default::default()
        });
        let tiered = verify_axiom(&t, ModelId::Ra, &AxiomConfig::default());
        let exact = verify_axiom(
            &t,
            ModelId::Ra,
            &AxiomConfig {
                tier: TierConfig::exact_only(),
                ..AxiomConfig::default()
            },
        );
        assert_eq!(
            tiered.verdict.is_consistent(),
            exact.verdict.is_consistent(),
            "E-AXIOM: RA frontline masked the exact verdict (seed {seed})"
        );
        if matches!(tiered.tier, vermem_coherence::closure::Tier::Frontline) {
            decided += 1;
        }
    }
    // The litmus corpus orders the models by strength: SC < TSO <= PSO < Coherence,
    // with RA and ARM-dob strictly between SC and Coherence.
    let lit = |id: ModelId| {
        rows.iter()
            .find(|r| r.family == "litmus" && r.model == id.name() && r.engine == "compiled")
            .map(|r| r.consistent)
            .expect("litmus row")
    };
    let (sc, coh) = (lit(ModelId::Sc), lit(ModelId::CoherenceOnly));
    assert!(
        sc < lit(ModelId::Tso) && lit(ModelId::Tso) <= lit(ModelId::Pso) && lit(ModelId::Pso) < coh,
        "E-AXIOM: litmus counts break SC < TSO <= PSO < Coherence"
    );
    for id in [ModelId::Ra, ModelId::ArmDob] {
        assert!(
            sc < lit(id) && lit(id) < coh,
            "E-AXIOM: {} is not strictly between SC and Coherence on litmus",
            id.name()
        );
    }
    assert!(
        decided * 10 >= probe_traces * 9,
        "E-AXIOM: RA frontline decided only {decided}/{probe_traces} traces (< 90%)"
    );
    let probe = RaFrontlineProbe {
        traces: probe_traces,
        frontline_decided: decided,
    };
    (rows, probe)
}

fn e_axiom() -> (Vec<AxiomRow>, RaFrontlineProbe) {
    header("E-AXIOM  declared models: operational compiler vs SAT");
    let (rows, probe) = axiom_ablation();
    println!(
        "{:>15} {:>9} {:>9} {:>7} {:>11} {:>10} {:>8}",
        "family", "model", "engine", "traces", "consistent", "violating", "unknown"
    );
    for r in &rows {
        println!(
            "{:>15} {:>9} {:>9} {:>7} {:>11} {:>10} {:>8}",
            r.family, r.model, r.engine, r.traces, r.consistent, r.violating, r.unknown
        );
    }
    println!(
        "RA frontline decided {}/{} healthy unique-value traces",
        probe.frontline_decided, probe.traces
    );
    (rows, probe)
}

/// E-SMALL: every trace of the 4-op small-scope space (≤4 ops, ≤3
/// processes, 2 addresses, values {0,1}, one per symmetry class) under
/// every declared model, decided by the compiled engine, the SAT engine
/// and, for the serialization models, the serialization oracle. All
/// deciders agreeing on every trace is asserted; the receipt keeps the
/// trace count and each model's consistent count.
fn e_small_scope() -> (usize, [usize; 6]) {
    header("E-SMALL  small-scope space: every canonical trace, every model, every engine");
    let scope = vermem_trace::gen::SmallScope {
        max_ops: 4,
        addrs: 2,
        values: 2,
    };
    let sat = AxiomConfig {
        engine: Engine::Sat,
        ..AxiomConfig::default()
    };
    let (mut traces, mut consistent) = (0, [0; 6]);
    vermem_trace::gen::small_traces(&scope, |t| {
        traces += 1;
        for (id, n) in ModelId::ALL.into_iter().zip(&mut consistent) {
            let [compiled, via_sat] =
                [AxiomConfig::default(), sat].map(|cfg| verify_axiom(t, id, &cfg).verdict);
            let ok = compiled.is_consistent();
            let serialization = ModelId::SERIALIZING.contains(&id);
            assert!(
                compiled.unknown_stats().is_none()
                    && via_sat.unknown_stats().is_none()
                    && via_sat.is_consistent() == ok
                    && (!serialization || vermem_consistency::oracle::serializes(t, id) == ok),
                "E-SMALL: {}: compiled, SAT and oracle do not give one answer on {t:?}",
                id.name()
            );
            *n += usize::from(ok);
        }
    });
    println!("{traces} canonical traces; consistent per model:");
    for (id, n) in ModelId::ALL.iter().zip(consistent) {
        println!("{:>10} {n:>7}", id.name());
    }
    (traces, consistent)
}

/// One row of the E-STREAM receipt: the sharded bounded-memory streaming
/// engine (`coherence::stream`) over N concurrent v3 event streams (half
/// healthy, half fault-injected so detections exist), with batch verdict
/// parity asserted per stream.
struct EstreamRow {
    streams: usize,
    window: usize,
    window_slack: usize,
    jobs: usize,
    events: u64,
    detections: usize,
    peak_retained_windows: u64,
    incoherent: usize,
    verdict_parity: bool,
}

/// The bounded-memory demonstration: a periodic synthetic event stream at
/// R rounds and 10R rounds retains an **identical** peak number of
/// windows — memory is O(window × addresses), independent of length.
struct BoundedMemoryProbe {
    window: usize,
    events: u64,
    peak_retained_windows: u64,
    events_10x: u64,
    peak_retained_windows_10x: u64,
    /// Peaks with the flight recorder enabled: the forensic ring is
    /// counted into `peak_retained_windows`, so these are higher than the
    /// plain peaks but must be equally length-invariant.
    recorder_peak_retained_windows: u64,
    recorder_peak_retained_windows_10x: u64,
}

/// N sim captures for one E-STREAM row: odd-indexed streams carry a
/// corrupt-fill protocol fault (detections + incoherent verdicts), even
/// ones are healthy.
fn estream_captures(streams: usize) -> Vec<vermem_sim::CapturedExecution> {
    (0..streams)
        .map(|i| {
            let seed = 40 + i as u64;
            let faults = if i % 2 == 1 {
                vec![FaultPlan {
                    kind: FaultKind::CorruptFill {
                        cpu: 1,
                        xor: 0xDEAD_0000,
                    },
                    at_step: 6,
                }]
            } else {
                Vec::new()
            };
            Machine::run(
                &random_program(&WorkloadConfig {
                    cpus: 4,
                    instrs_per_cpu: 120,
                    addrs: 4,
                    write_fraction: 0.45,
                    rmw_fraction: 0.0,
                    seed,
                }),
                MachineConfig {
                    seed,
                    faults,
                    ..Default::default()
                },
            )
        })
        .collect()
}

/// A perfectly periodic 2-process v3 event stream (unique-value write/read
/// ping-pong over `addrs` addresses): after warm-up the retained state is
/// periodic, so the peak is exactly length-invariant.
fn periodic_stream(rounds: usize, addrs: u32) -> Vec<u8> {
    use std::collections::BTreeMap;
    use vermem_trace::{Op, ProcId, Value};
    let mut initials = BTreeMap::new();
    let mut finals = BTreeMap::new();
    let mut events = Vec::with_capacity(rounds * addrs as usize * 2);
    let mut v = 1u64;
    for _ in 0..rounds {
        for a in 0..addrs {
            events.push((ProcId(0), Op::write(a, v)));
            events.push((ProcId(1), Op::read(a, v)));
            finals.insert(Addr(a), Value(v));
            v += 1;
        }
    }
    for a in 0..addrs {
        initials.insert(Addr(a), Value(0));
    }
    vermem_trace::binary::encode_event_stream(2, &initials, &finals, &events)
}

/// E-STREAM: detections, incoherent verdicts and peak retained windows at
/// 1/4/16 concurrent streams, with per-stream batch verdict parity and the
/// `streams × window_slack` memory budget asserted, plus the
/// bounded-memory probe.
fn estream_bench() -> (Vec<EstreamRow>, BoundedMemoryProbe) {
    const WINDOW: usize = 256;
    const SLACK: usize = 16;
    let config = || vermem_coherence::StreamConfig {
        window: Some(WINDOW),
        jobs: 1,
        temporal: true,
        verifier: VmcVerifier::new(),
        recorder: None,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for streams in [1usize, 4, 16] {
        let mut events = 0u64;
        let mut peak = 0u64;
        let mut detections = 0usize;
        let mut incoherent = 0usize;
        let mut parity = true;
        for cap in estream_captures(streams) {
            let bytes = vermem_sim::event_stream_bytes(&cap).expect("SC capture streams");
            let report =
                vermem_coherence::verify_stream_bytes(&bytes, config()).expect("stream decodes");
            let batch = verify_execution_par(&cap.trace, &VmcVerifier::new(), 1);
            parity &= report.verdict.matches_batch(&batch.verdict);
            events += report.events;
            peak += report.metrics.peak_retained_windows;
            detections += report.detections.len();
            if !report.is_coherent() {
                incoherent += 1;
            }
        }
        assert!(
            parity,
            "E-STREAM: streaming verdicts must be bit-identical to batch"
        );
        assert!(
            peak <= (streams * SLACK) as u64,
            "E-STREAM: peak retained windows {peak} exceeds {streams} × {SLACK}"
        );
        rows.push(EstreamRow {
            streams,
            window: WINDOW,
            window_slack: SLACK,
            jobs: 1,
            events,
            detections,
            peak_retained_windows: peak,
            incoherent,
            verdict_parity: parity,
        });
    }

    // Bounded memory: same periodic workload at R and 10R rounds must
    // retain an identical peak.
    const PROBE_WINDOW: usize = 64;
    const ROUNDS: usize = 2_000;
    let probe_run = |rounds: usize, recorder: Option<vermem_coherence::RecorderConfig>| {
        let bytes = periodic_stream(rounds, 3);
        let report = vermem_coherence::verify_stream_bytes(
            &bytes,
            vermem_coherence::StreamConfig {
                window: Some(PROBE_WINDOW),
                jobs: 1,
                temporal: true,
                verifier: VmcVerifier::new(),
                recorder,
                ..Default::default()
            },
        )
        .expect("stream decodes");
        assert!(report.is_coherent(), "periodic stream is coherent");
        (report.events, report.metrics.peak_retained_windows)
    };
    let (events, peak) = probe_run(ROUNDS, None);
    let (events_10x, peak_10x) = probe_run(ROUNDS * 10, None);
    assert_eq!(
        peak, peak_10x,
        "peak retained windows must be independent of stream length"
    );
    // Same gate with the flight recorder on: its per-shard ring is charged
    // to peak_retained_windows and must stay length-invariant too.
    let recorder = || Some(vermem_coherence::RecorderConfig::default());
    let (_, rec_peak) = probe_run(ROUNDS, recorder());
    let (_, rec_peak_10x) = probe_run(ROUNDS * 10, recorder());
    assert_eq!(
        rec_peak, rec_peak_10x,
        "recorder-on peak retained windows must be independent of stream length"
    );
    assert!(
        rec_peak >= peak,
        "the recorder ring must be counted into the peak ({rec_peak} < {peak})"
    );
    (
        rows,
        BoundedMemoryProbe {
            window: PROBE_WINDOW,
            events,
            peak_retained_windows: peak,
            events_10x,
            peak_retained_windows_10x: peak_10x,
            recorder_peak_retained_windows: rec_peak,
            recorder_peak_retained_windows_10x: rec_peak_10x,
        },
    )
}

fn e_stream() -> (Vec<EstreamRow>, BoundedMemoryProbe) {
    header("E-STREAM  sharded bounded-memory streaming verification");
    let (rows, probe) = estream_bench();
    println!(
        "{:>8} {:>7} {:>8} {:>7} {:>9} {:>4} {:>7}",
        "streams", "window", "events", "det", "peak win", "inc", "parity"
    );
    for r in &rows {
        println!(
            "{:>8} {:>7} {:>8} {:>7} {:>9} {:>4} {:>7}",
            r.streams,
            r.window,
            r.events,
            r.detections,
            r.peak_retained_windows,
            r.incoherent,
            r.verdict_parity
        );
    }
    println!(
        "bounded memory (window {}): {} events peak {} windows; 10x length \
         ({} events) peak {} windows; recorder-on peaks {} / {}",
        probe.window,
        probe.events,
        probe.peak_retained_windows,
        probe.events_10x,
        probe.peak_retained_windows_10x,
        probe.recorder_peak_retained_windows,
        probe.recorder_peak_retained_windows_10x
    );
    (rows, probe)
}

/// E-PRUNE: the pruning switch on the E-5.1/E-5.2 blow-up instances, off
/// (`none`) and on (`all`: windows and symmetry breaking), under a
/// 500k-state cap. Both settings must agree on the verdict when both decide
/// (they provably do — the assertion enforces it), the pruned search must
/// explore at most the baseline's states (monotonicity), and on both §5.2
/// instances `all` must explore at least 5× fewer states than `none`: the
/// over-constrained one is decided by the window pre-pass, the twins one
/// (Figure 5.2's per-variable process pairs) by symmetry breaking.
fn prune_ablation() -> Vec<PruneRow> {
    const CAP: u64 = 500_000;
    let configs = [("none", false), ("all", true)];
    let wall = vermem_sat::random::gen_forced_sat(&RandomSatConfig::three_sat(6, 1.0, 31 * 6));
    let overcons = gen_random_ksat(&RandomSatConfig::three_sat(3, 5.0, 93));
    let twins = gen_random_ksat(&RandomSatConfig::three_sat(3, 6.0, 7));
    let instances: [(String, Trace); 4] = [
        (
            "e5.1-m6-wall".to_string(),
            reduce_3sat_restricted(&wall).trace,
        ),
        (
            "e5.1-overcons".to_string(),
            reduce_3sat_restricted(&overcons).trace,
        ),
        (
            "e5.2-overcons".to_string(),
            reduce_3sat_rmw(&overcons).trace,
        ),
        ("e5.2-twins".to_string(), reduce_3sat_rmw(&twins).trace),
    ];
    let mut rows = Vec::new();
    for (case, trace) in &instances {
        let ops = AddrOps::of(trace, Addr::ZERO);
        let mut baseline_states: Option<u64> = None;
        let mut decided_verdicts: Vec<bool> = Vec::new();
        for (name, prune) in &configs {
            let cfg = SearchConfig {
                max_states: Some(CAP),
                prune: *prune,
            };
            let (verdict, stats) = backtrack::solve_backtracking_ops_with_stats(&ops, &cfg);
            let verdict_str = match &verdict {
                vermem_coherence::Verdict::Coherent(_) => "coherent",
                vermem_coherence::Verdict::Incoherent(_) => "incoherent",
                vermem_coherence::Verdict::Unknown => "capped",
            };
            // Verdict parity among configurations that decided (a capped
            // run decides nothing, so it constrains nothing).
            if let vermem_coherence::Verdict::Coherent(_)
            | vermem_coherence::Verdict::Incoherent(_) = &verdict
            {
                decided_verdicts.push(verdict.is_coherent());
            }
            // States monotonicity vs the unpruned baseline.
            match (*name, baseline_states) {
                ("none", _) => baseline_states = Some(stats.states),
                (_, Some(base)) => assert!(
                    stats.states <= base,
                    "{case}/{name}: pruned search explored more states ({} > {base})",
                    stats.states
                ),
                _ => unreachable!("baseline row runs first"),
            }
            rows.push(PruneRow {
                case: case.clone(),
                config: name,
                states: stats.states,
                memo_hits: stats.memo_hits,
                memo_misses: stats.memo_misses,
                window_prunes: stats.window_prunes,
                symmetry_prunes: stats.symmetry_prunes,
                verdict: verdict_str,
            });
        }
        assert!(
            decided_verdicts.windows(2).all(|w| w[0] == w[1]),
            "prune configurations disagree on {case}"
        );
    }
    for case in ["e5.2-overcons", "e5.2-twins"] {
        let misses = |config: &str| {
            rows.iter()
                .find(|r| r.case == case && r.config == config)
                .map(|r| r.memo_misses)
                .expect("e5.2 row")
        };
        assert!(
            misses("none") >= 5 * misses("all").max(1),
            "E-PRUNE: {case} prune ratio regressed below 5x ({} -> {})",
            misses("none"),
            misses("all")
        );
    }
    rows
}

fn e_prune() -> Vec<PruneRow> {
    header("E-PRUNE  pruning switch: none / all (windows + symmetry)");
    let rows = prune_ablation();
    println!(
        "{:>14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "case", "config", "states", "win.pr", "sym.pr", "hits", "verdict"
    );
    for r in &rows {
        println!(
            "{:>14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
            r.case, r.config, r.states, r.window_prunes, r.symmetry_prunes, r.memo_hits, r.verdict
        );
    }
    // Headline: states-explored reduction of `all` vs `none` per case.
    for case in [
        "e5.1-m6-wall",
        "e5.1-overcons",
        "e5.2-overcons",
        "e5.2-twins",
    ] {
        let states_of = |cfg: &str| {
            rows.iter()
                .find(|r| r.case == case && r.config == cfg)
                .map(|r| r.states)
        };
        if let (Some(none), Some(all)) = (states_of("none"), states_of("all")) {
            println!("{case}: states {none} -> {all} with --prune=all");
        }
    }
    rows
}

/// Renders the receipt experiments as `BENCH_vmc.json`. Hand-rolled JSON
/// (the workspace is dependency-free): all strings are internally
/// generated identifiers, so no escaping is needed. Every value is a count,
/// a verdict class or a boolean, so the file is byte-stable across runs.
fn bench_json(
    prune: &[PruneRow],
    tier: &[TierRow],
    (axiom, ra): &(Vec<AxiomRow>, RaFrontlineProbe),
    (estream, bounded): &(Vec<EstreamRow>, BoundedMemoryProbe),
    (small_traces, small_consistent): &(usize, [usize; 6]),
) -> String {
    fn array(s: &mut String, key: &str, rows: Vec<String>) {
        s.push_str(&format!("  \"{key}\": [\n    "));
        s.push_str(&rows.join(",\n    "));
        s.push_str("\n  ],\n");
    }
    let mut s = String::from("{\n  \"schema\": \"vermem-bench-vmc/v13\",\n");
    array(
        &mut s,
        "prune_ablation",
        prune
            .iter()
            .map(|r| {
                format!(
                    "{{\"case\": \"{}\", \"config\": \"{}\", \"states\": {}, \
                     \"memo_hits\": {}, \"memo_misses\": {}, \"window_prunes\": {}, \
                     \"symmetry_prunes\": {}, \"verdict\": \"{}\"}}",
                    r.case,
                    r.config,
                    r.states,
                    r.memo_hits,
                    r.memo_misses,
                    r.window_prunes,
                    r.symmetry_prunes,
                    r.verdict
                )
            })
            .collect(),
    );
    array(
        &mut s,
        "tier_ablation",
        tier.iter()
            .map(|r| {
                format!(
                    "{{\"family\": \"{}\", \"tier\": \"{}\", \"traces\": {}, \
                     \"addresses\": {}, \"frontline_decided\": {}, \"escalated\": {}, \
                     \"coherent\": {}, \"incoherent\": {}, \"unknown\": {}}}",
                    r.family,
                    r.tier,
                    r.traces,
                    r.addresses,
                    r.frontline_decided,
                    r.escalated,
                    r.coherent,
                    r.incoherent,
                    r.unknown
                )
            })
            .collect(),
    );
    array(
        &mut s,
        "eaxiom",
        axiom
            .iter()
            .map(|r| {
                format!(
                    "{{\"model\": \"{}\", \"engine\": \"{}\", \"family\": \"{}\", \
                     \"traces\": {}, \"consistent\": {}, \"violating\": {}, \
                     \"unknown\": {}}}",
                    r.model, r.engine, r.family, r.traces, r.consistent, r.violating, r.unknown
                )
            })
            .collect(),
    );
    s.push_str(&format!(
        "  \"eaxiom_ra_frontline\": {{\"traces\": {}, \"frontline_decided\": {}}},\n",
        ra.traces, ra.frontline_decided
    ));
    array(
        &mut s,
        "estream",
        estream
            .iter()
            .map(|r| {
                format!(
                    "{{\"streams\": {}, \"window\": {}, \"window_slack\": {}, \
                     \"jobs\": {}, \"events\": {}, \"detections\": {}, \
                     \"peak_retained_windows\": {}, \"incoherent\": {}, \
                     \"verdict_parity\": {}}}",
                    r.streams,
                    r.window,
                    r.window_slack,
                    r.jobs,
                    r.events,
                    r.detections,
                    r.peak_retained_windows,
                    r.incoherent,
                    r.verdict_parity
                )
            })
            .collect(),
    );
    s.push_str(&format!(
        "  \"estream_bounded_memory\": {{\"window\": {}, \"events\": {}, \
         \"peak_retained_windows\": {}, \"events_10x\": {}, \
         \"peak_retained_windows_10x\": {}, \
         \"recorder_peak_retained_windows\": {}, \
         \"recorder_peak_retained_windows_10x\": {}}},\n",
        bounded.window,
        bounded.events,
        bounded.peak_retained_windows,
        bounded.events_10x,
        bounded.peak_retained_windows_10x,
        bounded.recorder_peak_retained_windows,
        bounded.recorder_peak_retained_windows_10x
    ));
    let models: Vec<String> = ModelId::ALL
        .iter()
        .zip(small_consistent)
        .map(|(id, n)| format!("{{\"model\": \"{}\", \"consistent\": {n}}}", id.name()))
        .collect();
    s.push_str(&format!(
        "  \"small_scope\": {{\"traces\": {small_traces}, \"models\": [{}]}}\n}}\n",
        models.join(", ")
    ));
    s
}

// ---------------------------------------------------------------------------
// E-SIM: dynamic verification of the MESI machine with fault injection.
// ---------------------------------------------------------------------------
fn e_sim_detection() {
    header("E-SIM  dynamic verification: detection rates by fault class");
    const RUNS: u64 = 40;
    let mut false_pos = 0;
    for seed in 0..RUNS {
        let program = random_program(&WorkloadConfig {
            cpus: 4,
            instrs_per_cpu: 40,
            addrs: 3,
            write_fraction: 0.45,
            rmw_fraction: 0.1,
            seed,
        });
        let cap = Machine::run(
            &program,
            MachineConfig {
                seed,
                ..Default::default()
            },
        );
        if !vermem_coherence::verify_execution(&cap.trace).is_coherent() {
            false_pos += 1;
        }
    }
    println!("healthy-run false positives: {false_pos}/{RUNS}");
    println!(
        "{:<36} {:>10} {:>12}",
        "fault class", "workload", "detected"
    );
    let cases: [(&str, FaultKind, bool); 4] = [
        (
            "corrupt fill",
            FaultKind::CorruptFill {
                cpu: 1,
                xor: 0xBEEF_0000,
            },
            false,
        ),
        (
            "dropped invalidation",
            FaultKind::DropInvalidation { victim_cpu: 2 },
            true,
        ),
        ("lost write", FaultKind::LostWrite { cpu: 0 }, false),
        ("stale fill", FaultKind::StaleFill { cpu: 1 }, true),
    ];
    // The per-class sweeps are independent; fan them out across threads.
    let results: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .map(|&(_, kind, counter)| {
                scope.spawn(move || {
                    let mut hits = 0;
                    for seed in 0..RUNS {
                        let program = if counter {
                            shared_counter(4, 10)
                        } else {
                            random_program(&WorkloadConfig {
                                cpus: 4,
                                instrs_per_cpu: 40,
                                addrs: 3,
                                write_fraction: 0.45,
                                rmw_fraction: 0.0,
                                seed,
                            })
                        };
                        let cap = Machine::run(
                            &program,
                            MachineConfig {
                                seed,
                                faults: vec![FaultPlan { kind, at_step: 12 }],
                                ..Default::default()
                            },
                        );
                        if !vermem_coherence::verify_execution(&cap.trace).is_coherent() {
                            hits += 1;
                        }
                    }
                    (hits, RUNS as usize)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for ((name, _, counter), (hits, total)) in cases.iter().zip(results) {
        let wl = if *counter { "counter" } else { "random" };
        println!("{name:<36} {wl:>10} {hits:>9}/{total}");
    }

    // §5.2 in the pipeline: write-order verification of big healthy runs.
    println!("\nwrite-order (§5.2) verification of healthy runs:");
    println!("{:>8} {:>16}", "ops", "verify (µs)");
    for &instrs in &[200usize, 400, 800, 1600] {
        let program = random_program(&WorkloadConfig {
            cpus: 4,
            instrs_per_cpu: instrs / 4,
            addrs: 2,
            write_fraction: 0.5,
            rmw_fraction: 0.0,
            seed: instrs as u64,
        });
        let cap = Machine::run(
            &program,
            MachineConfig {
                seed: 9,
                ..Default::default()
            },
        );
        let t = Instant::now();
        let index = AddrIndex::build(&cap.trace);
        for (addr, order) in &cap.write_order {
            let ops = index.get(*addr).expect("a written address is indexed");
            assert!(solve_with_write_order(ops, order).is_coherent());
        }
        println!(
            "{:>8} {:>16.1}",
            cap.trace.num_ops(),
            t.elapsed().as_secs_f64() * 1e6
        );
    }
}
