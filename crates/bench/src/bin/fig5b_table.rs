//! Figure 5(b) — application runtime, unmodified vs. identity box.
//!
//! Runs the six synthetic applications (AMANDA, BLAST, CMS, HF, IBIS,
//! make) in both modes on the simulated kernel and reports the measured
//! slowdown next to the paper's. The paper's shape: five scientific
//! codes at 0.7-6.5 %, make (metadata-intensive) at 35 %.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin fig5b_table [scale] [trials]
//! ```

use idbox_bench::bench_model;
use idbox_workloads::{time_direct_and_boxed, Scale};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1.0);
    let trials: u32 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let model = bench_model();
    println!(
        "Figure 5(b): application runtime overhead (scale={scale}, best of {trials})"
    );
    println!("{}", "-".repeat(78));
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "app", "direct (ms)", "boxed (ms)", "measured", "paper", "traps"
    );
    println!("{}", "-".repeat(78));
    let results = time_direct_and_boxed(Scale(scale), model, trials).expect("measure");
    let mut tsv = Vec::new();
    for m in &results {
        println!(
            "{:<8} {:>12.1} {:>12.1} {:>9.1}% {:>9.1}% {:>12}",
            m.name,
            m.direct.as_secs_f64() * 1e3,
            m.boxed.as_secs_f64() * 1e3,
            m.overhead_pct(),
            m.paper_pct,
            m.report.traps
        );
        tsv.push(format!(
            "{}\t{:.4}\t{:.4}\t{:.2}\t{:.1}\t{}",
            m.name,
            m.direct.as_secs_f64(),
            m.boxed.as_secs_f64(),
            m.overhead_pct(),
            m.paper_pct,
            m.report.traps
        ));
    }
    println!("{}", "-".repeat(78));
    // Shape verdicts.
    let make = results.iter().find(|m| m.name == "make").expect("make row");
    let sci: Vec<_> = results.iter().filter(|m| m.name != "make").collect();
    let sci_max = sci
        .iter()
        .map(|m| m.overhead_pct())
        .fold(f64::NAN, f64::max);
    println!(
        "shape: scientific apps {:.1}%..{:.1}% (paper 0.7%..6.5%); make {:.1}% (paper 35%)",
        sci.iter().map(|m| m.overhead_pct()).fold(f64::NAN, f64::min),
        sci_max,
        make.overhead_pct()
    );
    println!(
        "verdict: make dominates = {}; scientific apps stay marginal = {}",
        make.overhead_pct() > sci_max,
        sci_max < 15.0
    );
    idbox_bench::write_tsv(
        "fig5b_applications.tsv",
        false,
        "app\tdirect_s\tboxed_s\toverhead_pct\tpaper_pct\ttraps",
        &tsv,
    );
}
