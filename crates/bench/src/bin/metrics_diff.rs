//! `metrics_diff` — compare two `mdrun --metrics-out` run reports and flag
//! regressions beyond tolerance.
//!
//! ```text
//! cargo run -p sdc-bench --release --bin metrics_diff -- \
//!     baseline.json candidate.json [--tol 1.25] [--time-tol 3.0]
//! ```
//!
//! The two reports must describe the same case (atoms, threads, strategy) —
//! comparing different cases is an error, not a regression. `--ab` relaxes
//! that for strategy A/B comparisons (e.g. taskgraph vs barriered SDC on
//! the same workload): the strategy may differ, and synchronization-regime
//! counters under `scatter.` (color barriers vs task/steal counts) are
//! skipped since the two regimes count different events by design. Two kinds of
//! quantities are watched:
//!
//! * **counters** (lock acquisitions, duplicate pairs, color barriers, span
//!   counts …) are near-deterministic for a fixed case; a deviation in
//!   *either* direction beyond `--tol` means the code's behavior changed;
//! * **times** (paper seconds, span means, merge time …) are noisy on shared
//!   CI machines; only an *increase* beyond `--time-tol` is flagged, and the
//!   default tolerance is deliberately generous.
//!
//! Exit status: 0 = within tolerance, 1 = regression(s) found, 2 = bad
//! arguments or unreadable/incompatible reports. Machine-friendly one-line
//! verdict on stdout per watched path.

use md_sim::metrics::report::RunReport;
use md_sim::JsonValue;
use sdc_bench::Args;

const USAGE: &str = "\
usage: metrics_diff BASELINE.json CANDIDATE.json [options]
  --tol F        max allowed ratio for counters, both directions
                 (default 1.25)
  --time-tol F   max allowed candidate/baseline ratio for timings,
                 increases only (default 3.0)
  --ab           A/B mode: allow the two reports to use different
                 strategies and skip the scatter.* regime counters";

const KNOWN_FLAGS: &[&str] = &["--tol", "--time-tol", "--ab"];

/// What kind of quantity a watched path holds, which decides how it is
/// compared.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Near-deterministic count: deviation in either direction is flagged.
    Count,
    /// Wall-clock quantity: only increases are flagged.
    Time,
}

/// Paths compared between the two reports. Missing paths are skipped (the
/// schema allows strategies that never touch a given counter), except that
/// a path present in the baseline but absent from the candidate is flagged.
const WATCHED: &[(&str, Kind)] = &[
    ("spans.step.count", Kind::Count),
    ("spans.force_compute.count", Kind::Count),
    ("spans.integrate.count", Kind::Count),
    ("spans.rebuild.count", Kind::Count),
    ("scatter.lock_acquisitions", Kind::Count),
    ("scatter.lock_crossings", Kind::Count),
    ("scatter.duplicate_pairs", Kind::Count),
    ("scatter.merges", Kind::Count),
    ("scatter.color_barriers", Kind::Count),
    // Shard halo traffic: the physics counters are backend-independent
    // (identical ghost selection and migration for a fixed workload), so
    // they compare as strict counts even in A/B mode. Wire volume and
    // wall-clock quantities legitimately shrink when the wire gets leaner,
    // so only increases are flagged.
    ("shards.ghost_sent", Kind::Count),
    ("shards.ghost_installed", Kind::Count),
    ("shards.migrated", Kind::Count),
    ("shards.rebuilds", Kind::Count),
    ("shards.wire_bytes_sent", Kind::Time),
    ("shards.wire_bytes_recv", Kind::Time),
    ("shards.wire_seconds", Kind::Time),
    ("shards.compute_wait_seconds", Kind::Time),
    ("phases.paper_seconds", Kind::Time),
    ("spans.step.mean_ns", Kind::Time),
    ("spans.force_compute.mean_ns", Kind::Time),
    ("spans.integrate.mean_ns", Kind::Time),
    ("spans.rebuild.mean_ns", Kind::Time),
    ("scatter.merge_seconds", Kind::Time),
    ("scatter.imbalance.factor", Kind::Time),
];

fn load(path: &str) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    RunReport::parse(&text).map_err(|e| format!("'{path}': {e}"))
}

fn same_case(base: &JsonValue, cand: &JsonValue, ab: bool) -> Result<(), String> {
    let keys: &[&str] = if ab {
        &["case.atoms", "case.threads"]
    } else {
        &["case.atoms", "case.threads", "case.strategy"]
    };
    for &key in keys {
        let b = base.path(key);
        let c = cand.path(key);
        if b != c {
            return Err(format!(
                "reports describe different cases: {key} differs ({b:?} vs {c:?})"
            ));
        }
    }
    Ok(())
}

/// Ratio with a small floor so exact zeros compare as equal instead of
/// dividing by zero (a counter going 0 → 1000 still blows the tolerance).
fn ratio(base: f64, cand: f64, kind: Kind) -> f64 {
    let floor = match kind {
        Kind::Count => 1.0,
        Kind::Time => 1e-9,
    };
    (cand + floor) / (base + floor)
}

fn run(args: &Args) -> Result<i32, String> {
    let unknown = args.unknown_flags(KNOWN_FLAGS);
    if !unknown.is_empty() {
        return Err(format!("unknown flag '{}'", unknown[0]));
    }
    let pos = args.positional_with_switches(&["--ab"]);
    let [base_path, cand_path] = pos.as_slice() else {
        return Err(format!(
            "expected exactly two report paths, got {}",
            pos.len()
        ));
    };
    let tol: f64 = args.try_get_or("--tol", 1.25)?;
    let time_tol: f64 = args.try_get_or("--time-tol", 3.0)?;
    if tol < 1.0 || time_tol < 1.0 {
        return Err("tolerances are ratios and must be >= 1.0".to_string());
    }

    let ab = args.flag("--ab");
    let base = load(base_path)?;
    let cand = load(cand_path)?;
    same_case(base.json(), cand.json(), ab)?;

    let mut regressions = 0usize;
    for &(path, kind) in WATCHED {
        // Different strategies count different synchronization events
        // (color barriers vs tasks/steals); in A/B mode only the physics
        // spans and timings are comparable.
        if ab && kind == Kind::Count && path.starts_with("scatter.") {
            continue;
        }
        let b = base.json().path(path).and_then(|v| v.as_f64());
        let c = cand.json().path(path).and_then(|v| v.as_f64());
        let (b, c) = match (b, c) {
            (Some(b), Some(c)) => (b, c),
            (None, None) | (None, Some(_)) => continue,
            (Some(b), None) => {
                println!("FAIL {path}: present in baseline ({b}) but missing from candidate");
                regressions += 1;
                continue;
            }
        };
        let r = ratio(b, c, kind);
        let (bad, limit) = match kind {
            Kind::Count => (r > tol || r < 1.0 / tol, tol),
            Kind::Time => (r > time_tol, time_tol),
        };
        let verdict = if bad { "FAIL" } else { "ok  " };
        println!("{verdict} {path}: {b} -> {c} (ratio {r:.3}, limit {limit})");
        if bad {
            regressions += 1;
        }
    }

    if regressions > 0 {
        println!("{regressions} regression(s) beyond tolerance");
        Ok(1)
    } else {
        println!("all watched metrics within tolerance");
        Ok(0)
    }
}

fn main() {
    match run(&Args::parse()) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("metrics_diff: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}
