//! Golden test for the observability layer: the run-report JSON schema is
//! pinned key-by-key (field renames/removals must bump `SCHEMA_VERSION`),
//! and the measured quantities are cross-checked against each other — the
//! per-color SDC wall times must sum to (at most, and a good fraction of)
//! the paper-timed density+force phase walls, since the color regions are
//! the parallel interior of exactly those phases.

use md_geometry::LatticeSpec;
use md_potential::AnalyticEam;
use md_sim::metrics::report::{RunInfo, RunReport, ShardsInfo};
use md_sim::{JsonValue, PotentialChoice, Simulation, StrategyKind};
use std::sync::Arc;

fn run_metered(steps: usize) -> (Simulation, RunReport) {
    let mut sim = Simulation::builder(LatticeSpec::bcc_fe(9))
        .potential_choice(PotentialChoice::Eam(Arc::new(AnalyticEam::fe())))
        .strategy(StrategyKind::Sdc { dims: 2 })
        .threads(2)
        .temperature(300.0)
        .seed(7)
        .metrics(true)
        .build()
        .expect("build");
    for _ in 0..steps {
        sim.step();
    }
    let info = RunInfo {
        atoms: sim.system().len(),
        steps: sim.step_count(),
        threads: sim.engine().threads(),
        strategy: sim.engine().strategy().name().to_string(),
        dt_ps: 1e-3,
        balance: sim.engine().plan_choice().map(Into::into),
        shards: None,
    };
    let report = RunReport::collect(&info, sim.timers(), sim.metrics().expect("metrics on"));
    (sim, report)
}

fn keys(v: &JsonValue) -> Vec<&str> {
    v.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn report_schema_is_golden() {
    let (_, report) = run_metered(2);
    let doc = report.json();

    // Top-level layout, in order. Changing any of this is a schema break.
    assert_eq!(keys(doc), ["schema", "case", "phases", "spans", "scatter"]);
    assert_eq!(
        keys(doc.path("case").unwrap()),
        ["atoms", "steps", "threads", "strategy", "dt_ps"]
    );
    assert_eq!(
        keys(doc.path("phases").unwrap()),
        ["density", "embedding", "force", "neighbor", "other", "paper_seconds"]
    );
    assert_eq!(
        keys(doc.path("spans").unwrap()),
        ["step", "force_compute", "rebuild", "integrate"]
    );
    assert_eq!(
        keys(doc.path("spans.step").unwrap()),
        ["count", "total_seconds", "mean_ns", "min_ns", "max_ns", "p50_ns", "p99_ns"]
    );
    assert_eq!(
        keys(doc.path("scatter").unwrap()),
        [
            "lock_acquisitions",
            "lock_crossings",
            "merges",
            "merge_seconds",
            "private_bytes",
            "duplicate_pairs",
            "color_barriers",
            "rebalances",
            "planned_imbalance",
            "tasks",
            "steals",
            "ready_latency",
            "colors",
            "threads",
            "imbalance"
        ]
    );
    let colors = doc.path("scatter.colors").and_then(|v| v.as_arr()).unwrap();
    assert!(!colors.is_empty(), "an SDC run must report color timings");
    assert_eq!(
        keys(&colors[0]),
        ["color", "sweeps", "total_seconds", "mean_ns", "min_ns", "max_ns", "p50_ns", "p99_ns"]
    );
    let threads = doc.path("scatter.threads").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(threads.len(), 2);
    assert_eq!(keys(&threads[0]), ["thread", "busy_seconds", "wait_seconds"]);
    assert_eq!(
        keys(doc.path("scatter.imbalance").unwrap()),
        ["factor", "efficiency"]
    );
    assert_eq!(
        keys(doc.path("scatter.ready_latency").unwrap()),
        ["count", "total_seconds", "mean_ns", "min_ns", "max_ns", "p50_ns", "p99_ns"]
    );

    // And the text form round-trips losslessly through the parser.
    let back = RunReport::parse(&report.to_string()).expect("parse back");
    assert_eq!(report.json(), back.json());
}

#[test]
fn balanced_run_report_pins_the_balance_section() {
    let mut sim = Simulation::builder(LatticeSpec::bcc_fe(9))
        .potential_choice(PotentialChoice::Eam(Arc::new(AnalyticEam::fe())))
        .strategy(StrategyKind::Sdc { dims: 3 })
        .threads(2)
        .temperature(300.0)
        .seed(7)
        .metrics(true)
        .balance(true)
        .build()
        .expect("build");
    sim.run(2);
    let info = RunInfo {
        atoms: sim.system().len(),
        steps: sim.step_count(),
        threads: sim.engine().threads(),
        strategy: sim.engine().strategy().name().to_string(),
        dt_ps: 1e-3,
        balance: sim.engine().plan_choice().map(Into::into),
        shards: None,
    };
    let report = RunReport::collect(&info, sim.timers(), sim.metrics().expect("metrics on"));
    let doc = report.json();
    assert_eq!(
        keys(doc),
        ["schema", "case", "phases", "spans", "scatter", "balance"]
    );
    assert_eq!(
        keys(doc.path("balance").unwrap()),
        [
            "dims",
            "counts",
            "max_per_axis",
            "predicted_seconds",
            "predicted_imbalance"
        ]
    );
    let dims = doc.path("balance.dims").and_then(|v| v.as_f64()).unwrap();
    assert_eq!(info.strategy, format!("sdc{dims}d"));
    let planned = doc
        .path("scatter.planned_imbalance")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(planned >= 1.0, "planned imbalance {planned}");
    let predicted = doc
        .path("balance.predicted_seconds")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(predicted > 0.0);
    // Round-trips like everything else.
    let back = RunReport::parse(&report.to_string()).expect("parse back");
    assert_eq!(report.json(), back.json());
}

#[test]
fn color_walls_are_consistent_with_the_paper_phases() {
    let (sim, report) = run_metered(3);
    let doc = report.json();

    // 2-D SDC → 4 colors; density + force sweeps each traverse every color
    // once per compute, and build() runs one initial compute. With EAM the
    // embedding phase also scatters? No — embedding is a per-atom map; only
    // density and force sweep colors: sweeps per color = 2 × computes.
    let computes = (sim.step_count() + 1) as f64;
    let colors = doc.path("scatter.colors").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(colors.len(), 4, "2-D SDC has 4 colors");
    for c in colors {
        assert_eq!(
            c.path("sweeps").and_then(|v| v.as_f64()),
            Some(2.0 * computes),
            "each color is swept twice per force computation"
        );
    }
    let barriers = doc
        .path("scatter.color_barriers")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert_eq!(barriers, 4.0 * 2.0 * computes);

    // Σ per-color wall ≲ density+force phase wall: the color regions are
    // strictly inside the paper-timed phases, so the sum can't exceed them
    // (modulo timer overhead), and in a scatter-dominated run they are the
    // bulk of it. Bounds are deliberately loose for noisy CI machines.
    let color_sum: f64 = colors
        .iter()
        .map(|c| c.path("total_seconds").and_then(|v| v.as_f64()).unwrap())
        .sum();
    let paper = doc
        .path("phases.paper_seconds")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(paper > 0.0 && color_sum > 0.0);
    let ratio = color_sum / paper;
    assert!(
        (0.05..=1.20).contains(&ratio),
        "color walls {color_sum}s vs paper phases {paper}s (ratio {ratio})"
    );

    // Busy + wait bookkeeping: each thread's busy+wait equals the total
    // color wall, and busy time was actually attributed.
    let wall: f64 = colors
        .iter()
        .map(|c| c.path("total_seconds").and_then(|v| v.as_f64()).unwrap())
        .sum();
    let threads = doc.path("scatter.threads").and_then(|v| v.as_arr()).unwrap();
    let mut busy_sum = 0.0;
    for t in threads {
        let busy = t.path("busy_seconds").and_then(|v| v.as_f64()).unwrap();
        let wait = t.path("wait_seconds").and_then(|v| v.as_f64()).unwrap();
        assert!(busy >= 0.0 && wait >= 0.0);
        assert!(
            busy + wait <= wall * 1.001 + 1e-9,
            "busy {busy} + wait {wait} exceeds wall {wall}"
        );
        busy_sum += busy;
    }
    assert!(busy_sum > 0.0, "no busy time was attributed to any thread");

    let eff = doc
        .path("scatter.imbalance.efficiency")
        .and_then(|v| v.as_f64())
        .unwrap();
    let factor = doc
        .path("scatter.imbalance.factor")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(eff > 0.0 && eff <= 1.0 + 1e-9, "efficiency {eff}");
    assert!(factor >= 1.0, "imbalance factor {factor}");
}

#[test]
fn sharded_run_report_pins_the_shards_section() {
    // A sharded driver fills `RunInfo::shards` from its exchange stats;
    // the section's key set is part of the golden schema.
    let (sim, _) = run_metered(2);
    let info = RunInfo {
        atoms: sim.system().len(),
        steps: sim.step_count(),
        threads: sim.engine().threads(),
        strategy: sim.engine().strategy().name().to_string(),
        dt_ps: 1e-3,
        balance: None,
        shards: Some(ShardsInfo {
            count: 2,
            backend: "virtual".to_string(),
            ghost_sent: 640,
            ghost_installed: 640,
            migrated: 3,
            rebuilds: 2,
            wire_bytes_sent: 65536,
            wire_bytes_recv: 65536,
            wire_seconds: 0.125,
            compute_wait_seconds: 0.0625,
        }),
    };
    let report = RunReport::collect(&info, sim.timers(), sim.metrics().expect("metrics on"));
    let doc = report.json();
    assert_eq!(
        keys(doc),
        ["schema", "case", "phases", "spans", "scatter", "shards"]
    );
    assert_eq!(
        keys(doc.path("shards").unwrap()),
        [
            "count",
            "backend",
            "ghost_sent",
            "ghost_installed",
            "migrated",
            "rebuilds",
            "wire_bytes_sent",
            "wire_bytes_recv",
            "wire_seconds",
            "compute_wait_seconds"
        ]
    );
    assert_eq!(doc.path("shards.count").and_then(|v| v.as_f64()), Some(2.0));
    assert_eq!(
        doc.path("shards.backend").and_then(|v| v.as_str()),
        Some("virtual")
    );
    // Round-trips like everything else.
    let back = RunReport::parse(&report.to_string()).expect("parse back");
    assert_eq!(report.json(), back.json());
}

#[test]
fn metered_and_unmetered_runs_agree_bitwise() {
    // The observability layer must be read-only: with identical seeds, a
    // metered run and a plain run produce identical trajectories — for the
    // barriered reference and for the taskgraph strategy alike.
    for strategy in [
        StrategyKind::Sdc { dims: 2 },
        StrategyKind::TaskGraph { dims: 2 },
    ] {
        let build = |metrics: bool| {
            Simulation::builder(LatticeSpec::bcc_fe(9))
                .potential_choice(PotentialChoice::Eam(Arc::new(AnalyticEam::fe())))
                .strategy(strategy)
                .threads(2)
                .temperature(300.0)
                .seed(7)
                .metrics(metrics)
                .build()
                .expect("build")
        };
        let mut plain = build(false);
        let mut metered = build(true);
        for _ in 0..3 {
            plain.step();
            metered.step();
        }
        assert!(plain.metrics().is_none());
        assert_eq!(plain.system().positions(), metered.system().positions());
        assert_eq!(plain.system().velocities(), metered.system().velocities());
    }
}

#[test]
fn taskgraph_report_counts_tasks_instead_of_barriers() {
    let mut sim = Simulation::builder(LatticeSpec::bcc_fe(9))
        .potential_choice(PotentialChoice::Eam(Arc::new(AnalyticEam::fe())))
        .strategy(StrategyKind::TaskGraph { dims: 2 })
        .threads(2)
        .temperature(300.0)
        .seed(7)
        .metrics(true)
        .build()
        .expect("build");
    sim.run(2);
    assert_eq!(sim.engine().strategy(), StrategyKind::TaskGraph { dims: 2 });
    let info = RunInfo {
        atoms: sim.system().len(),
        steps: sim.step_count(),
        threads: sim.engine().threads(),
        strategy: sim.engine().strategy().name().to_string(),
        dt_ps: 1e-3,
        balance: sim.engine().plan_choice().map(Into::into),
        shards: None,
    };
    let report = RunReport::collect(&info, sim.timers(), sim.metrics().expect("metrics on"));
    let doc = report.json();
    assert_eq!(
        doc.path("case.strategy").and_then(|v| v.as_str()),
        Some("taskgraph2d")
    );
    // Every (subdomain × sweep × compute) becomes one task completion, and
    // no color barrier ever runs; ready latency saw every task.
    let tasks = doc.path("scatter.tasks").and_then(|v| v.as_f64()).unwrap();
    let subdomains = sim.engine().plan().expect("plan").decomposition().subdomain_count() as f64;
    let computes = (sim.step_count() + 1) as f64;
    assert_eq!(tasks, subdomains * 2.0 * computes);
    assert_eq!(
        doc.path("scatter.color_barriers").and_then(|v| v.as_f64()),
        Some(0.0)
    );
    let ready = doc
        .path("scatter.ready_latency.count")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert_eq!(ready, tasks);
    let colors = doc.path("scatter.colors").and_then(|v| v.as_arr()).unwrap();
    assert!(colors.is_empty(), "no per-color walls under taskgraph");
    // Busy time is attributed by pool workers, so imbalance stays defined.
    let steals = doc.path("scatter.steals").and_then(|v| v.as_f64()).unwrap();
    assert!(steals >= 0.0);
    let back = RunReport::parse(&report.to_string()).expect("parse back");
    assert_eq!(report.json(), back.json());
}
