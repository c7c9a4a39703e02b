//! The reduction round trip: SAT → VMC (Figure 4.1) and VMC → SAT.
//!
//! Encodes a pigeonhole-style formula as a coherence-verification instance,
//! decides it both by exact search on the trace and by the CDCL solver on
//! the original formula, extracts the satisfying assignment back out of the
//! coherent schedule, and shows the reverse direction (solving a hard VMC
//! instance through its CNF encoding).
//!
//! ```sh
//! cargo run --release --example sat_reduction
//! ```

use vermem::coherence::{encode_vmc, solve_backtracking, SearchConfig, Verdict};
use vermem::reductions::reduce_sat_to_vmc;
use vermem::sat::{solve_cdcl, CdclSolver, Cnf, Lit, SatResult};
use vermem::trace::{Addr, AddrOps};

fn formula(clauses: &[&[i64]]) -> Cnf {
    let mut f = Cnf::new();
    for c in clauses {
        f.add_clause(c.iter().map(|&x| Lit::from_dimacs(x)));
    }
    f
}

fn main() {
    // (x1 ∨ x2 ∨ x3)(¬x1 ∨ ¬x2)(¬x2 ∨ ¬x3)(¬x1 ∨ ¬x3)(x2 ∨ x3)
    let sat_formula = formula(&[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2, 3]]);
    // The same with (x1) forced: unsatisfiable.
    let unsat_formula = formula(&[
        &[1, 2, 3],
        &[-1, -2],
        &[-2, -3],
        &[-1, -3],
        &[2, 3],
        &[1],
        &[-2],
        &[-3],
    ]);

    for (name, f) in [
        ("satisfiable", &sat_formula),
        ("unsatisfiable", &unsat_formula),
    ] {
        println!("=== {name} formula ===");
        let direct = solve_cdcl(f);
        println!("CDCL on the formula:      {}", verdict_str(direct.is_sat()));

        let red = reduce_sat_to_vmc(f);
        println!(
            "Figure 4.1 instance:      {} histories, {} operations",
            red.trace.num_procs(),
            red.trace.num_ops()
        );
        let vmc = solve_backtracking(&red.trace, Addr::ZERO, &SearchConfig::default());
        println!(
            "exact VMC on the trace:   {}",
            verdict_str(vmc.is_coherent())
        );

        if let Verdict::Coherent(schedule) = &vmc {
            let model = red.extract_assignment(schedule);
            let values: Vec<String> = (0..f.num_vars())
                .map(|i| {
                    format!(
                        "x{}={}",
                        i + 1,
                        u8::from(model.value(vermem::sat::Var(i)).unwrap())
                    )
                })
                .collect();
            println!("assignment from schedule: {}", values.join(" "));
            assert_eq!(
                f.eval(&model),
                Some(true),
                "extracted assignment must satisfy"
            );
        }

        // The reverse direction: VMC → SAT. Encode the constructed trace's
        // coherence question as CNF and solve it with CDCL.
        let enc = encode_vmc(&AddrOps::of(&red.trace, Addr::ZERO));
        let mut solver = CdclSolver::new(enc.cnf());
        let via_sat = matches!(solver.solve(), SatResult::Sat(_));
        println!(
            "VMC→SAT→CDCL:             {} ({} vars, {} clauses, {} conflicts)\n",
            verdict_str(via_sat),
            enc.cnf().num_vars(),
            enc.cnf().num_clauses(),
            solver.stats().conflicts
        );
        assert_eq!(via_sat, direct.is_sat());
    }
}

fn verdict_str(positive: bool) -> &'static str {
    if positive {
        "SAT / coherent"
    } else {
        "UNSAT / incoherent"
    }
}
