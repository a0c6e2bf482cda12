//! Machine-readable run reports.
//!
//! A [`RunReport`] snapshots everything the observability layer measured —
//! phase timers, span histograms, strategy counters, per-color walls and
//! per-thread busy/wait — into one ordered JSON document with a versioned
//! schema. `mdrun --metrics-out <path>` writes it; `metrics_diff` compares
//! two of them; `tests/metrics_report.rs` pins the schema.

use super::json::JsonValue;
use super::SimMetrics;
use crate::timing::{Phase, PhaseTimers};
use sdc_core::metrics::DurationHistogram;
use std::io::Write;
use std::path::Path;

/// Version stamp of the report layout. Bump when renaming or removing
/// fields; adding fields is backward-compatible for `metrics_diff`.
///
/// v2: the `shards` section's star-relay accounting (`ghost_recv`,
/// `exchange_seconds`) was replaced by peer-mesh accounting
/// (`ghost_installed`, wire byte/second counters, `compute_wait_seconds`).
/// v2 reports written while shards had two wire codecs also carry a
/// `shards.codec` name; nothing reads it, so reports with and without it
/// diff alike.
pub const SCHEMA_VERSION: u64 = 2;

/// Identifying metadata of the run the report describes.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Atom count.
    pub atoms: usize,
    /// Measured time-steps.
    pub steps: usize,
    /// Worker threads.
    pub threads: usize,
    /// Strategy name (after any downgrade), as [`sdc_core::StrategyKind::name`].
    pub strategy: String,
    /// Time-step size, ps.
    pub dt_ps: f64,
    /// The cost-guided balancer's plan choice, when balancing was on.
    pub balance: Option<BalanceInfo>,
    /// Halo-exchange totals, when the run was sharded (`mdrun --shards`).
    pub shards: Option<ShardsInfo>,
}

/// Aggregated halo-exchange accounting of a sharded run, as recorded in a
/// run report's `shards` section.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardsInfo {
    /// Number of shards (virtual ranks or worker processes).
    pub count: usize,
    /// Transport backend: `"virtual"` (in-memory) or `"process"`
    /// (Unix-socket workers).
    pub backend: String,
    /// Ghost position records sent shard → shard over the peer mesh,
    /// summed over shards and steps.
    pub ghost_sent: u64,
    /// Ghost position records installed at receiving shards. Conservation:
    /// equals `ghost_sent` after every completed step.
    pub ghost_installed: u64,
    /// Atoms that changed owner at a neighbor-list rebuild.
    pub migrated: u64,
    /// Neighbor-list rebuild rounds (every shard rebuilds together).
    pub rebuilds: u64,
    /// Bytes written to peer links, summed over shards (every peer frame:
    /// ghosts, positions, F′(ρ)).
    pub wire_bytes_sent: u64,
    /// Bytes read from peer links, summed over shards.
    pub wire_bytes_recv: u64,
    /// Wall seconds shards spent encoding/shipping/decoding peer frames,
    /// summed over shards.
    pub wire_seconds: f64,
    /// Driver wall seconds spent waiting on shard replies inside the halo
    /// rounds (worker compute plus straggler imbalance).
    pub compute_wait_seconds: f64,
}

/// The balancer's plan choice, as recorded in a run report.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceInfo {
    /// Decomposition dimensionality the search picked.
    pub dims: usize,
    /// Subdomain counts per axis.
    pub counts: [usize; 3],
    /// Per-axis subdomain cap (0 = uncapped — the decomposition's natural
    /// maximum; JSON has no natural `None` in this writer).
    pub max_per_axis: usize,
    /// Predicted wall seconds per step of the chosen plan.
    pub predicted_seconds: f64,
    /// Predicted thread-aware imbalance (`max bin / mean bin` under LPT).
    pub predicted_imbalance: f64,
}

impl From<sdc_core::PlanChoice> for BalanceInfo {
    fn from(choice: sdc_core::PlanChoice) -> BalanceInfo {
        BalanceInfo {
            dims: choice.dims,
            counts: choice.counts,
            max_per_axis: choice.max_per_axis.unwrap_or(0),
            predicted_seconds: choice.predicted_seconds,
            predicted_imbalance: choice.predicted_imbalance,
        }
    }
}

/// A complete metrics snapshot of one run, held as an ordered JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    doc: JsonValue,
}

fn seconds(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn histogram_json(h: &DurationHistogram) -> JsonValue {
    JsonValue::obj(vec![
        ("count", JsonValue::num(h.count() as f64)),
        ("total_seconds", JsonValue::num(seconds(h.sum_ns()))),
        ("mean_ns", JsonValue::num(h.mean_ns())),
        ("min_ns", JsonValue::num(h.min_ns() as f64)),
        ("max_ns", JsonValue::num(h.max_ns() as f64)),
        ("p50_ns", JsonValue::num(h.quantile_ns(0.5) as f64)),
        ("p99_ns", JsonValue::num(h.quantile_ns(0.99) as f64)),
    ])
}

fn phase_json(timers: &PhaseTimers, phase: Phase) -> JsonValue {
    JsonValue::obj(vec![
        (
            "seconds",
            JsonValue::num(timers.elapsed(phase).as_secs_f64()),
        ),
        ("calls", JsonValue::num(timers.count(phase) as f64)),
    ])
}

impl RunReport {
    /// Assembles a report from the run metadata, the engine's phase timers
    /// and the metrics bundle.
    pub fn collect(info: &RunInfo, timers: &PhaseTimers, metrics: &SimMetrics) -> RunReport {
        let scatter = &metrics.scatter;

        let colors: Vec<JsonValue> = scatter
            .color_wall
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count() > 0)
            .map(|(color, h)| {
                JsonValue::obj(vec![
                    ("color", JsonValue::num(color as f64)),
                    ("sweeps", JsonValue::num(h.count() as f64)),
                    ("total_seconds", JsonValue::num(seconds(h.sum_ns()))),
                    ("mean_ns", JsonValue::num(h.mean_ns())),
                    ("min_ns", JsonValue::num(h.min_ns() as f64)),
                    ("max_ns", JsonValue::num(h.max_ns() as f64)),
                    ("p50_ns", JsonValue::num(h.quantile_ns(0.5) as f64)),
                    ("p99_ns", JsonValue::num(h.quantile_ns(0.99) as f64)),
                ])
            })
            .collect();

        let threads_json: Vec<JsonValue> = scatter
            .thread_busy_ns
            .iter()
            .enumerate()
            .map(|(t, busy)| {
                JsonValue::obj(vec![
                    ("thread", JsonValue::num(t as f64)),
                    ("busy_seconds", JsonValue::num(seconds(busy.get()))),
                    (
                        "wait_seconds",
                        JsonValue::num(seconds(scatter.thread_wait_ns(t))),
                    ),
                ])
            })
            .collect();

        let busy: Vec<u64> = scatter.thread_busy_ns.iter().map(|c| c.get()).collect();
        let max_busy = busy.iter().copied().max().unwrap_or(0);
        let mean_busy = if busy.is_empty() {
            0.0
        } else {
            busy.iter().sum::<u64>() as f64 / busy.len() as f64
        };
        // Load-imbalance factor: slowest worker over the average (1.0 is
        // perfectly balanced); parallel efficiency: useful work over
        // threads × wall inside the color regions.
        let factor = if mean_busy > 0.0 {
            max_busy as f64 / mean_busy
        } else {
            1.0
        };
        let wall = scatter.total_color_wall_ns();
        let efficiency = if wall > 0 && !busy.is_empty() {
            (busy.iter().sum::<u64>() as f64) / (busy.len() as f64 * wall as f64)
        } else {
            1.0
        };

        let mut fields = vec![
            ("schema", JsonValue::num(SCHEMA_VERSION as f64)),
            (
                "case",
                JsonValue::obj(vec![
                    ("atoms", JsonValue::num(info.atoms as f64)),
                    ("steps", JsonValue::num(info.steps as f64)),
                    ("threads", JsonValue::num(info.threads as f64)),
                    ("strategy", JsonValue::str(info.strategy.clone())),
                    ("dt_ps", JsonValue::num(info.dt_ps)),
                ]),
            ),
            (
                "phases",
                JsonValue::obj(vec![
                    ("density", phase_json(timers, Phase::Density)),
                    ("embedding", phase_json(timers, Phase::Embedding)),
                    ("force", phase_json(timers, Phase::Force)),
                    ("neighbor", phase_json(timers, Phase::Neighbor)),
                    ("other", phase_json(timers, Phase::Other)),
                    (
                        "paper_seconds",
                        JsonValue::num(timers.paper_time().as_secs_f64()),
                    ),
                ]),
            ),
            (
                "spans",
                JsonValue::obj(vec![
                    ("step", histogram_json(&metrics.step)),
                    ("force_compute", histogram_json(&metrics.force)),
                    ("rebuild", histogram_json(&metrics.rebuild)),
                    ("integrate", histogram_json(&metrics.integrate)),
                ]),
            ),
            (
                "scatter",
                JsonValue::obj(vec![
                    (
                        "lock_acquisitions",
                        JsonValue::num(scatter.lock_acquisitions.get() as f64),
                    ),
                    (
                        "lock_crossings",
                        JsonValue::num(scatter.lock_crossings.get() as f64),
                    ),
                    ("merges", JsonValue::num(scatter.merges.get() as f64)),
                    (
                        "merge_seconds",
                        JsonValue::num(seconds(scatter.merge_ns.get())),
                    ),
                    ("private_bytes", JsonValue::num(scatter.private_bytes.get())),
                    (
                        "duplicate_pairs",
                        JsonValue::num(scatter.duplicate_pairs.get() as f64),
                    ),
                    (
                        "color_barriers",
                        JsonValue::num(scatter.color_barriers.get() as f64),
                    ),
                    (
                        "rebalances",
                        JsonValue::num(scatter.rebalances.get() as f64),
                    ),
                    (
                        "planned_imbalance",
                        JsonValue::num(scatter.planned_imbalance.get()),
                    ),
                    ("tasks", JsonValue::num(scatter.tasks.get() as f64)),
                    ("steals", JsonValue::num(scatter.steals.get() as f64)),
                    ("ready_latency", histogram_json(&scatter.ready_latency)),
                    ("colors", JsonValue::Arr(colors)),
                    ("threads", JsonValue::Arr(threads_json)),
                    (
                        "imbalance",
                        JsonValue::obj(vec![
                            ("factor", JsonValue::num(factor)),
                            ("efficiency", JsonValue::num(efficiency)),
                        ]),
                    ),
                ]),
            ),
        ];
        if let Some(b) = &info.balance {
            fields.push((
                "balance",
                JsonValue::obj(vec![
                    ("dims", JsonValue::num(b.dims as f64)),
                    (
                        "counts",
                        JsonValue::Arr(
                            b.counts.iter().map(|&c| JsonValue::num(c as f64)).collect(),
                        ),
                    ),
                    ("max_per_axis", JsonValue::num(b.max_per_axis as f64)),
                    ("predicted_seconds", JsonValue::num(b.predicted_seconds)),
                    (
                        "predicted_imbalance",
                        JsonValue::num(b.predicted_imbalance),
                    ),
                ]),
            ));
        }
        if let Some(s) = &info.shards {
            fields.push((
                "shards",
                JsonValue::obj(vec![
                    ("count", JsonValue::num(s.count as f64)),
                    ("backend", JsonValue::str(s.backend.clone())),
                    ("ghost_sent", JsonValue::num(s.ghost_sent as f64)),
                    ("ghost_installed", JsonValue::num(s.ghost_installed as f64)),
                    ("migrated", JsonValue::num(s.migrated as f64)),
                    ("rebuilds", JsonValue::num(s.rebuilds as f64)),
                    ("wire_bytes_sent", JsonValue::num(s.wire_bytes_sent as f64)),
                    ("wire_bytes_recv", JsonValue::num(s.wire_bytes_recv as f64)),
                    ("wire_seconds", JsonValue::num(s.wire_seconds)),
                    (
                        "compute_wait_seconds",
                        JsonValue::num(s.compute_wait_seconds),
                    ),
                ]),
            ));
        }
        RunReport {
            doc: JsonValue::obj(fields),
        }
    }

    /// The underlying JSON document.
    pub fn json(&self) -> &JsonValue {
        &self.doc
    }

    /// Parses a report back from its JSON text, validating the schema
    /// version.
    pub fn parse(text: &str) -> Result<RunReport, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(|v| v.as_f64()) {
            Some(v) if v == SCHEMA_VERSION as f64 => Ok(RunReport { doc }),
            Some(v) => Err(format!(
                "unsupported report schema {v} (expected {SCHEMA_VERSION})"
            )),
            None => Err("not a run report: missing \"schema\" field".to_string()),
        }
    }

    /// Writes the report to `path` (pretty-printed, trailing newline).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.doc)
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.doc.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> RunReport {
        let info = RunInfo {
            atoms: 1024,
            steps: 10,
            threads: 2,
            strategy: "sdc2d".to_string(),
            dt_ps: 1e-3,
            balance: None,
            shards: None,
        };
        let mut timers = PhaseTimers::new();
        timers.add(Phase::Density, Duration::from_millis(3));
        timers.add(Phase::Force, Duration::from_millis(5));
        let metrics = SimMetrics::new(2);
        metrics.step.record(Duration::from_millis(1));
        metrics.scatter.color_wall[0].record_ns(1_000_000);
        metrics.scatter.color_wall[1].record_ns(500_000);
        metrics.scatter.add_busy_ns(0, 900_000);
        metrics.scatter.add_busy_ns(1, 400_000);
        metrics.scatter.color_barriers.add(2);
        RunReport::collect(&info, &timers, &metrics)
    }

    #[test]
    fn report_round_trips_through_text() {
        let report = sample();
        let text = report.to_string();
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(report.json(), back.json());
    }

    #[test]
    fn report_exposes_the_documented_paths() {
        let report = sample();
        let doc = report.json();
        assert_eq!(
            doc.path("schema").and_then(|v| v.as_f64()),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.path("case.atoms").and_then(|v| v.as_f64()), Some(1024.0));
        assert_eq!(
            doc.path("case.strategy").and_then(|v| v.as_str()),
            Some("sdc2d")
        );
        assert_eq!(
            doc.path("phases.paper_seconds").and_then(|v| v.as_f64()),
            Some(0.008)
        );
        assert_eq!(
            doc.path("scatter.color_barriers").and_then(|v| v.as_f64()),
            Some(2.0)
        );
        let colors = doc.path("scatter.colors").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(colors.len(), 2, "only colors with sweeps are listed");
        assert_eq!(colors[0].path("color").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(colors[0].path("sweeps").and_then(|v| v.as_f64()), Some(1.0));
        let threads = doc.path("scatter.threads").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(threads.len(), 2);
        // wait = total wall (1.5 ms) − busy.
        let wait0 = threads[0].path("wait_seconds").and_then(|v| v.as_f64()).unwrap();
        assert!((wait0 - 0.0006).abs() < 1e-12, "wait0 = {wait0}");
        let factor = doc
            .path("scatter.imbalance.factor")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!((factor - 900_000.0 / 650_000.0).abs() < 1e-9);
    }

    #[test]
    fn balance_section_appears_only_when_the_balancer_ran() {
        let report = sample();
        assert!(report.json().path("balance").is_none());
        assert_eq!(
            report
                .json()
                .path("scatter.rebalances")
                .and_then(|v| v.as_f64()),
            Some(0.0)
        );
        assert_eq!(
            report
                .json()
                .path("scatter.planned_imbalance")
                .and_then(|v| v.as_f64()),
            Some(0.0)
        );

        let info = RunInfo {
            atoms: 1024,
            steps: 10,
            threads: 2,
            strategy: "sdc1d".to_string(),
            dt_ps: 1e-3,
            balance: Some(BalanceInfo {
                dims: 1,
                counts: [4, 1, 1],
                max_per_axis: 0,
                predicted_seconds: 2.5e-3,
                predicted_imbalance: 1.25,
            }),
            shards: None,
        };
        let report = RunReport::collect(&info, &PhaseTimers::new(), &SimMetrics::new(2));
        let text = report.to_string();
        let back = RunReport::parse(&text).unwrap();
        let doc = back.json();
        assert_eq!(doc.path("balance.dims").and_then(|v| v.as_f64()), Some(1.0));
        let counts = doc.path("balance.counts").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[0].as_f64(), Some(4.0));
        assert_eq!(
            doc.path("balance.max_per_axis").and_then(|v| v.as_f64()),
            Some(0.0)
        );
        assert_eq!(
            doc.path("balance.predicted_imbalance")
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
    }

    #[test]
    fn shards_section_appears_only_for_sharded_runs() {
        let report = sample();
        assert!(report.json().path("shards").is_none());

        let info = RunInfo {
            atoms: 1024,
            steps: 10,
            threads: 2,
            strategy: "serial".to_string(),
            dt_ps: 1e-3,
            balance: None,
            shards: Some(ShardsInfo {
                count: 2,
                backend: "virtual".to_string(),
                ghost_sent: 1200,
                ghost_installed: 1200,
                migrated: 7,
                rebuilds: 3,
                wire_bytes_sent: 48_000,
                wire_bytes_recv: 48_000,
                wire_seconds: 0.02,
                compute_wait_seconds: 0.25,
            }),
        };
        let report = RunReport::collect(&info, &PhaseTimers::new(), &SimMetrics::new(2));
        let back = RunReport::parse(&report.to_string()).unwrap();
        let doc = back.json();
        assert_eq!(doc.path("shards.count").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            doc.path("shards.backend").and_then(|v| v.as_str()),
            Some("virtual")
        );
        assert_eq!(
            doc.path("shards.ghost_sent").and_then(|v| v.as_f64()),
            Some(1200.0)
        );
        assert_eq!(
            doc.path("shards.ghost_installed").and_then(|v| v.as_f64()),
            Some(1200.0)
        );
        assert_eq!(
            doc.path("shards.migrated").and_then(|v| v.as_f64()),
            Some(7.0)
        );
        assert_eq!(
            doc.path("shards.wire_bytes_sent").and_then(|v| v.as_f64()),
            Some(48_000.0)
        );
        assert_eq!(
            doc.path("shards.wire_seconds").and_then(|v| v.as_f64()),
            Some(0.02)
        );
        assert_eq!(
            doc.path("shards.compute_wait_seconds")
                .and_then(|v| v.as_f64()),
            Some(0.25)
        );
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let err = RunReport::parse("{\"schema\": 999}").unwrap_err();
        assert!(err.contains("unsupported report schema"));
        let err = RunReport::parse("{}").unwrap_err();
        assert!(err.contains("missing"));
    }
}
