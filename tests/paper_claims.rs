//! The paper's claims at the paper's scale: every experiment `figures all
//! ablations` runs, at 1 442 hosts, and every claim row it prints. A row
//! may pass or miss for the cause it names; one that misses with no
//! named cause, or holds against its named miss (stale), fails the test.

use avmem_bench::experiments::{Harness, ABLATIONS, FIGURES};

#[test]
fn every_claim_holds_or_misses_for_its_named_cause() {
    let harness = Harness::new(false);
    let (mut rows, mut failing) = (0, Vec::new());
    for (id, run) in FIGURES.iter().chain(&ABLATIONS) {
        let claims = run(&harness).claims();
        assert!(!claims.is_empty(), "{id} states no claim");
        rows += claims.len();
        failing.extend(claims.iter().filter(|c| c.verdict().fails()).map(|c| format!("{id}: {c}")));
    }
    assert!(
        failing.is_empty(),
        "{} of {rows} claim rows miss or are stale:\n{}",
        failing.len(),
        failing.join("\n")
    );
}
