//! §5.2 in practice: an augmented memory system that reports its committed
//! write order makes coherence verification polynomial.
//!
//! Runs large workloads on the simulator, verifies each address's trace
//! through the O(n²) write-order algorithm, and compares wall time against
//! the exact (worst-case exponential) solver on the same traces.
//!
//! ```sh
//! cargo run --release --example write_order_audit
//! ```

use std::time::Instant;
use vermem::coherence::backtrack::solve_backtracking_ops_with_stats;
use vermem::coherence::{solve_with_write_order, SearchConfig};
use vermem::sim::{random_program, Machine, MachineConfig, WorkloadConfig};
use vermem::trace::AddrIndex;

fn main() {
    println!(
        "{:>8} {:>12} {:>16} {:>16}",
        "ops", "addresses", "write-order (µs)", "exact (µs)"
    );
    for &instrs in &[50usize, 100, 200, 400, 800] {
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
                seed: 7,
                ..Default::default()
            },
        );

        // One index serves both solvers; only the solves are timed.
        let index = AddrIndex::build(&cap.trace);
        let t0 = Instant::now();
        for (addr, order) in &cap.write_order {
            let v = solve_with_write_order(index.get(*addr).unwrap(), order);
            assert!(v.is_coherent(), "healthy run must verify");
        }
        let fast = t0.elapsed();

        let t1 = Instant::now();
        for ops in index.iter() {
            let (v, _) = solve_backtracking_ops_with_stats(ops, &SearchConfig::default());
            assert!(v.is_coherent());
        }
        let exact = t1.elapsed();

        println!(
            "{:>8} {:>12} {:>16.1} {:>16.1}",
            cap.trace.num_ops(),
            index.len(),
            fast.as_secs_f64() * 1e6,
            exact.as_secs_f64() * 1e6
        );
    }

    println!(
        "\nThe write-order path scales as O(n²) regardless of workload; the exact\n\
         solver is fast on these benign traces but has no polynomial guarantee\n\
         (verifying coherence without the write order is NP-complete, Thm 4.2)."
    );
}
