//! Quickstart: build execution traces and verify coherence and sequential
//! consistency.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use vermem::coherence::{self, Verdict};
use vermem::consistency::{verify_axiom, AxiomConfig, ModelId};
use vermem::trace::{Addr, Op, TraceBuilder};

fn main() {
    // --- 1. A coherent single-location execution -------------------------
    // P0: W(1) R(2)   P1: W(2)
    let trace = TraceBuilder::new()
        .proc([Op::w(1u64), Op::r(2u64)])
        .proc([Op::w(2u64)])
        .build();

    println!("trace:\n{}", vermem::trace::fmt::format_trace(&trace));
    match coherence::verify(&trace, Addr::ZERO) {
        Verdict::Coherent(schedule) => {
            println!("coherent; witness schedule: {schedule:?}\n");
        }
        other => println!("unexpected: {other:?}\n"),
    }

    // --- 2. An incoherent one: the classic read-value regression ---------
    // P0: W(1) W(2)   P1: R(2) R(1)   — P1 sees the location go backwards.
    let corr = TraceBuilder::new()
        .proc([Op::w(1u64), Op::w(2u64)])
        .proc([Op::r(2u64), Op::r(1u64)])
        .build();
    match coherence::verify(&corr, Addr::ZERO) {
        Verdict::Incoherent(violation) => println!("detected: {violation}\n"),
        other => println!("unexpected: {other:?}\n"),
    }

    // --- 3. Coherent-but-not-SC: store buffering across two locations ----
    let sb = TraceBuilder::new()
        .proc([Op::write(0u32, 1u64), Op::read(1u32, 0u64)])
        .proc([Op::write(1u32, 1u64), Op::read(0u32, 0u64)])
        .build();
    let coherent = coherence::verify_execution(&sb).is_coherent();
    println!("store-buffering outcome: coherent per address = {coherent}");
    for id in ModelId::ALL {
        let ok = verify_axiom(&sb, id, &AxiomConfig::default())
            .verdict
            .is_consistent();
        println!("  allowed under {:>9}: {ok}", id.name());
    }

    // --- 4. The paper's worked example (Figure 4.2) ----------------------
    let red = vermem::reductions::example_fig_4_2();
    let verdict = coherence::verify(&red.trace, Addr::ZERO);
    let schedule = verdict.schedule().expect("Q = u is satisfiable");
    let model = red.extract_assignment(schedule);
    println!(
        "\nFigure 4.2: coherent={} with extracted assignment u={}",
        verdict.is_coherent(),
        model.value(vermem::sat::Var(0)).unwrap()
    );
}
