//! Figure 1 — identity-mapping method property matrix, *measured*.
//!
//! Runs the owner/Fred/George/Eve scenario against all seven methods and
//! prints the observed property matrix next to the paper's.
//!
//! ```text
//! cargo run --release -p idbox-bench --bin fig1_mapping_matrix
//! ```

use idbox_mapping::probe::probe_all;
use idbox_mapping::MethodProperties;

/// The paper's Figure 1 rows, for the side-by-side comparison.
/// (method, privilege, protect, privacy, sharing, return, burden)
const PAPER: &[(&str, &str, &str, &str, &str, &str, &str)] = &[
    ("single", "-", "no", "no", "yes", "yes", "-"),
    ("untrusted", "root", "yes", "no", "yes", "yes", "-"),
    ("private", "root", "yes", "yes", "no", "yes", "per user"),
    ("group", "root", "yes", "fixed", "fixed", "yes", "per group"),
    ("anonymous", "root", "yes", "yes", "no", "no", "-"),
    ("pool", "root", "yes", "yes", "no", "no", "per pool"),
    ("identity box", "-", "yes", "yes", "yes", "yes", "-"),
];

fn main() {
    println!("Figure 1: identity mapping methods (measured by scenario probe)");
    println!("{}", "-".repeat(86));
    println!("{}", MethodProperties::table_header());
    println!("{}", "-".repeat(86));
    let rows = probe_all();
    let mut tsv = Vec::new();
    let mut mismatches = 0;
    for r in &rows {
        println!("{}", r.table_row());
        tsv.push(format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.method,
            if r.requires_privilege { "root" } else { "-" },
            if r.protects_owner { "yes" } else { "no" },
            r.allows_privacy,
            r.allows_sharing,
            if r.allows_return { "yes" } else { "no" },
            r.burden_label,
            r.interventions
        ));
        let paper = PAPER.iter().find(|p| p.0 == r.method).expect("paper row");
        let measured = (
            r.method,
            if r.requires_privilege { "root" } else { "-" },
            if r.protects_owner { "yes" } else { "no" },
            r.allows_privacy.to_string(),
            r.allows_sharing.to_string(),
            if r.allows_return { "yes" } else { "no" },
        );
        let matches = measured.1 == paper.1
            && measured.2 == paper.2
            && measured.3 == paper.3
            && measured.4 == paper.4
            && measured.5 == paper.5;
        if !matches {
            mismatches += 1;
            println!("  ^^ MISMATCH vs paper: {paper:?}");
        }
    }
    println!("{}", "-".repeat(86));
    println!(
        "paper agreement: {}/{} rows match Figure 1 exactly",
        rows.len() - mismatches,
        rows.len()
    );
    println!("(`ops` = measured root interventions to admit the 3 scenario users)");
    idbox_bench::write_tsv(
        "fig1_mapping_matrix.tsv",
        false,
        "method\tprivilege\tprotect\tprivacy\tsharing\treturn\tburden\tops",
        &tsv,
    );
}
