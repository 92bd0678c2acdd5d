//! Figure 5(a) — system-call latency, unmodified vs. identity box.
//!
//! The paper times getpid, stat, open/close, and 1 B / 8 KiB reads and
//! writes; each trapped call is slowed "by an order of magnitude". This
//! harness measures the same seven cases over the simulated kernel and
//! prints µs/call in both modes plus the ratio — and runs the boxed
//! column twice, fast-path caches (dentry + ACL verdict) on and off,
//! so the per-trap-tax ablation is recorded next to the headline
//! numbers. Both runs land in `results/BENCH_syscall.json`
//! (`target/` when `IDBOX_BENCH_FAST` is set).
//!
//! ```text
//! cargo run --release -p idbox-bench --bin fig5a_table [iters]
//! ```

use idbox_bench::{bench_model, fig5a_paper_ratio_band, measure_fig5a_ablation, MicroAblation};

/// Hand-rolled JSON: the report is flat numbers and known-safe labels,
/// so no serializer dependency is warranted.
fn json_report(iters: u64, rows: &[MicroAblation]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"fig5a_syscall_latency\",\n");
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str(&format!(
        "  \"host_cores\": {},\n",
        idbox_bench::host_cores()
    ));
    out.push_str("  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"case\": \"{}\", \"metadata_heavy\": {}, \"direct_us\": {:.4}, \
             \"boxed_cached_us\": {:.4}, \"boxed_uncached_us\": {:.4}, \
             \"ratio_cached\": {:.2}, \"ratio_uncached\": {:.2}, \"cache_speedup\": {:.3}}}{}\n",
            r.case.label(),
            r.is_metadata_heavy(),
            r.direct_us,
            r.boxed_us,
            r.boxed_nocache_us,
            r.ratio(),
            r.nocache_ratio(),
            r.cache_speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let meta: Vec<&MicroAblation> = rows.iter().filter(|r| r.is_metadata_heavy()).collect();
    let cached: f64 = meta.iter().map(|r| r.boxed_us).sum::<f64>() / meta.len().max(1) as f64;
    let uncached: f64 =
        meta.iter().map(|r| r.boxed_nocache_us).sum::<f64>() / meta.len().max(1) as f64;
    out.push_str("  \"metadata_mix\": {\n");
    out.push_str(&format!(
        "    \"cases\": [{}],\n",
        meta.iter()
            .map(|r| format!("\"{}\"", r.case.label()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("    \"boxed_cached_us\": {cached:.4},\n"));
    out.push_str(&format!("    \"boxed_uncached_us\": {uncached:.4},\n"));
    out.push_str(&format!(
        "    \"cache_speedup\": {:.3}\n",
        uncached / cached
    ));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let model = bench_model();
    println!("Figure 5(a): syscall latency (µs/call), {iters} iterations/case");
    println!("{}", "-".repeat(88));
    println!(
        "{:<14} {:>10} {:>14} {:>9} {:>14} {:>9}",
        "syscall", "unmodified", "identity box", "ratio", "box, no cache", "ratio"
    );
    println!("{}", "-".repeat(88));
    let rows = measure_fig5a_ablation(model, iters);
    let mut tsv = Vec::new();
    for r in &rows {
        println!(
            "{:<14} {:>10.3} {:>14.3} {:>8.1}x {:>14.3} {:>8.1}x",
            r.case.label(),
            r.direct_us,
            r.boxed_us,
            r.ratio(),
            r.boxed_nocache_us,
            r.nocache_ratio()
        );
        tsv.push(format!(
            "{}\t{:.4}\t{:.4}\t{:.2}\t{:.4}\t{:.2}",
            r.case.label(),
            r.direct_us,
            r.boxed_us,
            r.ratio(),
            r.boxed_nocache_us,
            r.nocache_ratio()
        ));
    }
    println!("{}", "-".repeat(88));
    let (lo, hi) = fig5a_paper_ratio_band();
    let in_band = rows
        .iter()
        .filter(|r| r.ratio() >= lo && r.ratio() <= hi)
        .count();
    println!(
        "paper: every call slowed by an order of magnitude; measured: {}/{} cases in the {lo:.1}x-{hi:.0}x band",
        in_band,
        rows.len()
    );
    let meta: Vec<&MicroAblation> = rows.iter().filter(|r| r.is_metadata_heavy()).collect();
    let speedup = meta.iter().map(|r| r.boxed_nocache_us).sum::<f64>()
        / meta.iter().map(|r| r.boxed_us).sum::<f64>().max(f64::MIN_POSITIVE);
    println!(
        "fast-path caches on the metadata-heavy mix (stat, open-close): {speedup:.2}x less boxed latency than caches off"
    );
    idbox_bench::write_tsv(
        "fig5a_syscall_latency.tsv",
        false,
        "case\tdirect_us\tboxed_us\tratio\tboxed_nocache_us\tratio_nocache",
        &tsv,
    );
    idbox_bench::write_text("BENCH_syscall.json", false, &json_report(iters, &rows));
}
