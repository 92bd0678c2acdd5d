//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <box-make|chirp-meta|chirp-bulk> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints the host fingerprint, the cost model and the server
//! configuration as `#` lines, then one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. Exit codes: 0 result printed, 2 bad arguments or
//! environment, 3 a forbidden request succeeded, 4 set-up failed.
//! README.md in this directory defines every metric.

mod boxmake;
mod chirpload;
mod ledger;
mod report;
mod rung;
mod util;

use report::{Abort, Report};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BoxMake,
    ChirpMeta,
    ChirpBulk,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BoxMake, Workload::ChirpMeta, Workload::ChirpBulk];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BoxMake => "box-make",
            Workload::ChirpMeta => "chirp-meta",
            Workload::ChirpBulk => "chirp-bulk",
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Print the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Input size relative to the benchmark's (1.0); the tests shrink it.
    pub scale: f64,
}

const USAGE: &str =
    "usage: perfbench --workload <box-make|chirp-meta|chirp-bulk> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::BoxMake,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for --seconds: {value}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// Refuse to run with any `IDBOX_*` variable set: several layers read
/// such knobs from the environment whatever their configuration says.
fn hermetic() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("IDBOX_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset these before benchmarking: {}",
            set.join(" ")
        ))
    }
}

/// The `#` lines printed next to every result.
fn preamble(cfg: &Config, scratch: &util::Scratch) -> Vec<String> {
    let git_dir = std::env::current_dir()
        .map(|d| d.join(".git").display().to_string())
        .unwrap_or_default();
    let fdatasync = util::fdatasync_probe(scratch.root()).map_or_else(
        |e| format!("error ({e})"),
        |d| format!("{:.3}", d.as_secs_f64() * 1e3),
    );
    let m = idbox_types::CostModel::calibrated();
    vec![
        format!(
            "host nproc={} kernel=\"{}\" rustc=\"{}\" commit={} fdatasync_400k_ms={fdatasync}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            util::kernel_release(),
            util::command_line("rustc", &["--version"]),
            util::command_line(
                "git",
                &["--git-dir", &git_dir, "rev-parse", "--short", "HEAD"]
            ),
        ),
        format!(
            "run workload={} seed={} seconds={} trace={}",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        ),
        format!(
            "cost_model calibrated switch_footprint_bytes={} switch_passes={} switches_per_trap={} \
             charge_switches={}",
            m.switch_footprint_bytes, m.switch_passes, m.switches_per_trap, m.charge_switches
        ),
        chirpload::describe_config(cfg.workload != Workload::BoxMake),
    ]
}

pub fn execute(cfg: &Config, scratch: &util::Scratch) -> Result<Report, Abort> {
    match cfg.workload {
        Workload::BoxMake => boxmake::run(cfg, scratch),
        Workload::ChirpMeta | Workload::ChirpBulk => chirpload::run(cfg, scratch),
    }
}

fn main() -> ExitCode {
    if let Err(e) = hermetic() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match util::Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create {}: {e}", util::Scratch::DIR);
            return ExitCode::from(2);
        }
    };
    for line in preamble(&cfg, &scratch) {
        println!("# {line}");
    }
    let rep = match execute(&cfg, &scratch) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(match e {
                Abort::FailOpen(_) => 3,
                Abort::Setup(_) => 4,
            });
        }
    };
    for note in &rep.notes {
        println!("# {note}");
    }
    let t = rep.tally;
    println!(
        "# fail_frac={} ({} of {} ops failed, {} with a wrong result)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted,
        t.wrong
    );
    match rep.json(cfg.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::{Mutex, MutexGuard};

    /// The workload tests time things; run them one at a time.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds: 0.3,
            trace,
            scale: 0.03,
        }
    }

    fn names(rep: &Report, trace: bool) -> BTreeSet<&'static str> {
        Report::table(trace)
            .iter()
            .filter(|(n, _)| rep.values.contains_key(n))
            .map(|(n, _)| *n)
            .collect()
    }

    #[test]
    fn every_metric_is_printed_with_unit_and_finite_value() {
        let _serial = serial();
        let scratch = util::Scratch::create().unwrap();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let rep = execute(&tiny(workload, 7, trace), &scratch).unwrap();
                let line = rep
                    .json(trace)
                    .unwrap_or_else(|e| panic!("{workload:?}: {e}"));
                for (name, unit) in Report::table(trace) {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    let at = line
                        .find(&entry)
                        .unwrap_or_else(|| panic!("{workload:?} misses {name}"));
                    let (value, rest) =
                        line[at + entry.len()..].split_once(", \"unit\": ").unwrap();
                    assert!(
                        value.parse::<f64>().unwrap().is_finite(),
                        "{name} = {value}"
                    );
                    assert!(
                        rest.starts_with(&format!("\"{unit}\"}}")),
                        "{name} unit: {rest}"
                    );
                }
                assert_eq!(
                    rep.tally.failed, 0,
                    "{workload:?} trace={trace}: {:?}",
                    rep.tally
                );
            }
        }
    }

    #[test]
    fn seed_changes_inputs_not_metric_set() {
        let _serial = serial();
        let scratch = util::Scratch::create().unwrap();
        for workload in Workload::ALL {
            let a = execute(&tiny(workload, 1, false), &scratch).unwrap();
            let b = execute(&tiny(workload, 2, false), &scratch).unwrap();
            assert_eq!(names(&a, false), names(&b, false), "{workload:?}");
        }
        assert_ne!(
            chirpload::stream_digest(Workload::ChirpMeta, 1),
            chirpload::stream_digest(Workload::ChirpMeta, 2)
        );
        assert_ne!(
            chirpload::stream_digest(Workload::ChirpBulk, 1),
            chirpload::stream_digest(Workload::ChirpBulk, 2)
        );
        assert_eq!(
            chirpload::stream_digest(Workload::ChirpMeta, 3),
            chirpload::stream_digest(Workload::ChirpMeta, 3)
        );
        assert_ne!(boxmake::tree_digest(1), boxmake::tree_digest(2));
        assert_eq!(boxmake::tree_digest(3), boxmake::tree_digest(3));
    }

    #[test]
    fn box_make_ladder_is_monotone() {
        let _serial = serial();
        let cfg = Config {
            scale: 0.1,
            seconds: 1.5,
            ..tiny(Workload::BoxMake, 5, true)
        };
        let ladder = boxmake::builds(&cfg, &mut Report::default())
            .unwrap()
            .ladder();
        // On this tree the interposition mechanism costs next to nothing
        // per trap next to the in-kernel policy, so neighbouring rungs
        // may be equal within timer noise.
        for w in ladder.windows(2) {
            assert!(w[0] <= w[1] * 1.05, "ladder not monotone: {ladder:?}");
        }
    }

    #[test]
    fn args_round_trip_and_reject_garbage() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let cfg = parse_args(&args(
            "--workload chirp-bulk --seed 9 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
            (Workload::ChirpBulk, 9, 2.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload box-make --trace 2")).is_err());
    }
}
