//! Property tests: every strategy computes the same reduction on random
//! graphs with exactly-representable contributions, so equality is bitwise
//! regardless of summation order. Case `k` of a test draws its inputs from
//! `Rng::new(k)` and names `k` in every failure message.

use md_base::rng::Rng;
use md_neighbor::Csr;
use sdc_core::{PairTerm, ParallelContext, ScatterExec, StrategyKind};

const CASES: u64 = 48;

/// Builds a half adjacency (i < j) from arbitrary pairs.
fn half_graph(n: usize, raw: &[(u32, u32)]) -> Csr {
    let mut pairs: Vec<(u32, u32)> = raw
        .iter()
        .filter(|(a, b)| a != b)
        .map(|&(a, b)| {
            let (a, b) = (a % n as u32, b % n as u32);
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .filter(|(a, b)| a != b)
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut rows = vec![Vec::new(); n];
    for (a, b) in pairs {
        rows[a as usize].push(b);
    }
    Csr::from_rows(&rows)
}

/// Fewer than `max_len` random pairs with both ends below `bound`.
fn random_pairs(rng: &mut Rng, bound: u64, max_len: u64) -> Vec<(u32, u32)> {
    (0..rng.below(max_len))
        .map(|_| (rng.below(bound) as u32, rng.below(bound) as u32))
        .collect()
}

/// The non-SDC strategies against the serial sweep on one graph.
fn check_non_sdc_strategies(case: &str, raw: &[(u32, u32)], threads: usize) {
    let n = 48;
    let half = half_graph(n, raw);
    let full = half.symmetrized();
    // Contributions are small integers scaled by powers of two: exact
    // under any summation order, so equality must be bitwise. The
    // function is symmetric in (i, j), as the Redundant gather requires.
    let kernel = |i: usize, j: usize| {
        Some(PairTerm::symmetric(
            ((i + j) * 7 % 32) as f64 * 0.125 + (i * j % 8) as f64 * 0.25,
        ))
    };
    let mut reference = vec![0.0f64; n];
    sdc_core::strategies::serial::scatter_serial(&half, &mut reference, &kernel);
    let ctx = ParallelContext::new(threads);
    for kind in [
        StrategyKind::Critical,
        StrategyKind::Atomic,
        StrategyKind::Locks,
        StrategyKind::Privatized,
        StrategyKind::Redundant,
    ] {
        let exec = ScatterExec {
            ctx: &ctx,
            half: &half,
            full: Some(&full),
            plan: None,
            localwrite: None,
            metrics: None,
            sap: None,
            taskgraph: None,
        };
        let mut out = vec![0.0f64; n];
        exec.run(kind, &mut out, &kernel);
        assert_eq!(out, reference, "{case}: {kind} with {threads} threads");
    }
}

#[test]
fn non_sdc_strategies_agree_bitwise_on_random_graphs() {
    // An input that once failed, kept as a fixed case.
    check_non_sdc_strategies("fixed case", &[(44, 25), (32, 15)], 1);
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let raw = random_pairs(&mut rng, 48, 200);
        let threads = 1 + rng.below(4) as usize;
        check_non_sdc_strategies(&format!("case {case}"), &raw, threads);
    }
}

#[test]
fn redundant_gather_equals_scatter_for_antisymmetric_kernels() {
    for case in 0..CASES {
        let n = 32;
        let half = half_graph(n, &random_pairs(&mut Rng::new(case), 32, 120));
        let full = half.symmetrized();
        // Antisymmetric (force-like) kernel with exact values.
        let kernel = |i: usize, j: usize| {
            let v = ((i % 8) as f64 - (j % 8) as f64) * 0.25;
            Some(PairTerm { to_i: v, to_j: -v })
        };
        let mut scatter = vec![0.0f64; n];
        sdc_core::strategies::serial::scatter_serial(&half, &mut scatter, &kernel);
        let ctx = ParallelContext::new(3);
        let exec = ScatterExec {
            ctx: &ctx,
            half: &half,
            full: Some(&full),
            plan: None,
            localwrite: None,
            metrics: None,
            sap: None,
            taskgraph: None,
        };
        let mut gather = vec![0.0f64; n];
        exec.run(StrategyKind::Redundant, &mut gather, &kernel);
        assert_eq!(gather, scatter, "case {case}");
        // Newton: total momentum transfer sums to zero exactly.
        let net: f64 = scatter.iter().sum();
        assert_eq!(net, 0.0, "case {case}");
    }
}
