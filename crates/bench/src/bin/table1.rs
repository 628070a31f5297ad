//! Reproduces **Table I** of the paper: worst-case messages and proof
//! evaluations per scheme × consistency level.
//!
//! For every cell the binary sets up the adversary that realizes the
//! paper's worst case — a replica one version ahead (view) or a catalog
//! ahead of every replica (global) — runs one transaction of `u = n`
//! queries (one per server), and compares the measured counts against the
//! paper's formulas.
//!
//! ```bash
//! cargo run -p safetx-bench --bin table1 [-- n]
//! ```

use safetx_bench::{complexity, run_grid, run_single, Staleness};
use safetx_core::{ConsistencyLevel, ProofScheme};
use safetx_metrics::AsciiTable;

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    let u = n;

    println!("Reproduction of Table I — \"The complexity of the different approaches\"");
    println!("(n = {n} participants, u = {u} queries, one query per participant)\n");

    let mut table = AsciiTable::new(vec![
        "scheme",
        "consistency",
        "adversary",
        "r",
        "paper msgs",
        "measured msgs",
        "paper proofs",
        "measured proofs",
        "outcome",
        "round trips",
    ]);

    // Every cell builds its own seeded deployment, so the grid fans out
    // over the thread pool; results come back in grid order, keeping the
    // printed table identical to a serial sweep.
    let mut grid = Vec::new();
    for scheme in ProofScheme::ALL {
        for level in ConsistencyLevel::ALL {
            // The adversary that realizes the worst case of this cell.
            // Incremental maintains consistency (r = 1) and Continuous's
            // formula assumes its per-query 2PV stays single-round, so both
            // are measured on the aligned deployment.
            let staleness = match (scheme, level) {
                (ProofScheme::Deferred | ProofScheme::Punctual, ConsistencyLevel::View) => {
                    Staleness::OneAhead
                }
                (ProofScheme::Deferred | ProofScheme::Punctual, ConsistencyLevel::Global) => {
                    Staleness::AllStale
                }
                _ => Staleness::None,
            };
            grid.push((scheme, level, staleness));
        }
    }
    // The clean run for the log-complexity line rides along as the last job.
    grid.push((
        ProofScheme::Deferred,
        ConsistencyLevel::View,
        Staleness::None,
    ));
    let mut runs = run_grid(grid.clone(), |(scheme, level, staleness)| {
        run_single(scheme, level, n as usize, staleness)
    });
    let clean = runs.pop().expect("clean run present");

    for (&(scheme, level, staleness), run) in grid.iter().zip(&runs) {
        let r = run.metrics.rounds.max(1);
        let paper_msgs = complexity::max_messages(scheme, level, n, u, r);
        let paper_proofs = complexity::max_proofs(scheme, level, u, r);
        assert!(
            run.metrics.messages <= paper_msgs,
            "{scheme}/{level}: measured messages exceed the paper bound"
        );
        assert!(
            run.metrics.proofs <= paper_proofs,
            "{scheme}/{level}: measured proofs exceed the paper bound"
        );
        let tightness = |measured: u64, paper: u64| {
            if measured == paper {
                format!("{measured} (=)")
            } else {
                format!("{measured} (<=)")
            }
        };
        table.row(vec![
            scheme.to_string(),
            level.to_string(),
            format!("{staleness:?}"),
            r.to_string(),
            paper_msgs.to_string(),
            tightness(run.metrics.messages, paper_msgs),
            paper_proofs.to_string(),
            tightness(run.metrics.proofs, paper_proofs),
            if run.committed { "commit" } else { "abort" }.to_string(),
            run.metrics.round_trips.to_string(),
        ]);
    }
    println!("{table}");

    println!(
        "Log complexity: paper 2n + 1 = {} forced writes per clean commit; measured {}.\n",
        2 * n + 1,
        clean.forced_logs
    );
    println!("Notes:");
    println!(" * (=) marks cells where the measured count equals the paper's formula;");
    println!("   (<=) marks the view-consistency cells whose formula charges a full");
    println!("   2n-message second round, while at most n-1 participants can be stale");
    println!("   under view consistency (some replica defines the largest version).");
    println!(" * Deferred/Punctual under global consistency are measured at r = 2");
    println!("   (every replica one version behind the master); other cells run at");
    println!("   their Table-I round bound (r = 1).");
    println!(" * round trips counts what Table I does not price: the sequential TM ->");
    println!("   server exchanges a commit waits through — one per query, the vote and");
    println!("   the decision (u + 2), plus one per update round (r = 2 cells).");
}
