//! Run the built-in litmus suite against every memory model and print the
//! allowed/forbidden matrix, cross-checked against the expectations from
//! the literature.
//!
//! ```sh
//! cargo run --release --example litmus_models
//! ```

use vermem::consistency::litmus::all_litmus_tests;
use vermem::consistency::{verify_axiom, AxiomConfig, ModelId};

fn main() {
    let tests = all_litmus_tests();
    print!("{:<14}", "test");
    for id in ModelId::ALL {
        print!(" {:>9}", id.name());
    }
    println!("   description");
    println!("{}", "-".repeat(110));
    let mut mismatches = 0;
    for test in &tests {
        print!("{:<14}", test.name);
        for id in ModelId::ALL {
            let got = verify_axiom(&test.trace, id, &AxiomConfig::default())
                .verdict
                .is_consistent();
            let expected = test.expected[&id];
            if got != expected {
                mismatches += 1;
            }
            let cell = match (got, got == expected) {
                (true, true) => "yes".to_string(),
                (false, true) => "no".to_string(),
                (g, false) => format!("{}!", if g { "yes" } else { "no" }),
            };
            print!(" {cell:>9}");
        }
        println!("   {}", test.description);
    }
    println!("{}", "-".repeat(110));
    if mismatches == 0 {
        println!("all outcomes match the litmus literature ✓");
    } else {
        println!("{mismatches} MISMATCHES — checker disagreement!");
        std::process::exit(1);
    }

    // Bonus: show the §6.3 VSCC pipeline on the store-buffering outcome.
    let sb = &tests
        .iter()
        .find(|t| t.name == "SB")
        .expect("SB present")
        .trace;
    let report = vermem::consistency::verify_vscc(sb);
    println!(
        "\nVSCC pipeline on SB: coherent promise = {}, settled by {:?}, SC = {}",
        report.coherence.is_ok(),
        report.settled_by,
        report.verdict.is_consistent()
    );
}
