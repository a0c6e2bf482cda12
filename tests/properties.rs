//! Property tests over the core data structures and the SDC invariants,
//! spanning crates. Case `k` of a test draws its inputs from `Rng::new(k)`
//! and names `k` in every failure message.

use md_base::rng::Rng;
use sdc_md::core::{ColoredDecomposition, DecompositionConfig, PairTerm, ParallelContext, ScatterExec, SdcPlan, StrategyKind};
use sdc_md::geometry::{SimBox, Vec3};
use sdc_md::neighbor::{Csr, NeighborList, Permutation, VerletConfig};

const CASES: u64 = 64;

/// A vector with components uniform on `[-limit, limit)`.
fn random_vec3(rng: &mut Rng, limit: f64) -> Vec3 {
    let [x, y, z] = [(); 3].map(|_| rng.uniform(-limit, limit));
    Vec3::new(x, y, z)
}

/// `n` atoms uniform in the cube `[0, l)³`.
fn random_cloud(rng: &mut Rng, n: usize, l: f64) -> Vec<Vec3> {
    (0..n)
        .map(|_| {
            let [x, y, z] = [(); 3].map(|_| rng.f64() * l);
            Vec3::new(x, y, z)
        })
        .collect()
}

#[test]
fn wrap_is_idempotent_and_in_range() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let p = random_vec3(&mut rng, 500.0);
        let [lx, ly, lz] = [(); 3].map(|_| rng.uniform(1.0, 100.0));
        let b = SimBox::periodic(Vec3::new(lx, ly, lz));
        let w = b.wrap(p);
        for d in 0..3 {
            assert!(w[d] >= 0.0 && w[d] < b.lengths()[d], "case {case}: {w}");
        }
        assert_eq!(b.wrap(w), w, "case {case}");
    }
}

#[test]
fn min_image_is_shorter_than_any_explicit_image() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let a = random_vec3(&mut rng, 50.0);
        let c = random_vec3(&mut rng, 50.0);
        let l = rng.uniform(10.0, 60.0);
        let b = SimBox::cubic(l);
        let (a, c) = (b.wrap(a), b.wrap(c));
        let d = b.min_image(a, c).norm();
        // Compare against all 27 explicit images.
        for sx in -1..=1i32 {
            for sy in -1..=1i32 {
                for sz in -1..=1i32 {
                    let shift = Vec3::new(sx as f64, sy as f64, sz as f64) * l;
                    let explicit = (a - (c + shift)).norm();
                    assert!(d <= explicit + 1e-9, "case {case}: image ({sx}, {sy}, {sz})");
                }
            }
        }
    }
}

#[test]
fn permutation_inverse_is_identity() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Turn an arbitrary vector into a permutation by ranking.
        let order: Vec<u64> = (0..1 + rng.below(63)).map(|_| rng.below(64)).collect();
        let mut idx: Vec<u32> = (0..order.len() as u32).collect();
        idx.sort_by_key(|&i| (order[i as usize], i));
        let p = Permutation::from_new_to_old(idx);
        let data: Vec<u32> = (0..p.len() as u32).collect();
        let round = p.inverse().apply(&p.apply(&data));
        assert_eq!(round, data, "case {case}");
        let comp = p.compose(&p.inverse());
        assert_eq!(comp.apply(&data), data, "case {case}");
    }
}

#[test]
fn csr_mirror_preserves_edge_multiset() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let mut rows = vec![Vec::new(); 20];
        for _ in 0..rng.below(60) {
            let (row, value) = (rng.below(20) as usize, rng.below(20) as u32);
            rows[row].push(value);
        }
        let csr = Csr::from_rows(&rows);
        let mirrored = csr.mirrored();
        assert_eq!(mirrored.entries(), csr.entries(), "case {case}");
        let mut fwd: Vec<(u32, u32)> = csr
            .iter_rows()
            .flat_map(|(i, r)| r.iter().map(move |&j| (i as u32, j)))
            .collect();
        let mut back: Vec<(u32, u32)> = mirrored
            .iter_rows()
            .flat_map(|(i, r)| r.iter().map(move |&j| (j, i as u32)))
            .collect();
        fwd.sort_unstable();
        back.sort_unstable();
        assert_eq!(fwd, back, "case {case}");
    }
}

#[test]
fn decomposition_invariants_hold_for_random_boxes() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let [lx, ly, lz] = [(); 3].map(|_| rng.uniform(40.0, 150.0));
        let range = rng.uniform(3.0, 9.0);
        let dims = 1 + rng.below(3) as usize;
        let b = SimBox::periodic(Vec3::new(lx, ly, lz));
        match ColoredDecomposition::new(&b, DecompositionConfig::new(dims, range)) {
            Ok(d) => {
                // Even counts, edge ≥ 2·range, equal color classes.
                for ax in 0..dims {
                    let n = d.counts()[ax];
                    assert_eq!(n % 2, 0, "case {case}: axis {ax}");
                    assert!(b.lengths()[ax] / n as f64 >= 2.0 * range - 1e-9, "case {case}: axis {ax}");
                }
                assert_eq!(d.color_count(), 1 << dims, "case {case}");
                assert_eq!(
                    d.subdomain_count(),
                    d.subdomains_per_color() * d.color_count(),
                    "case {case}"
                );
                d.validate(&b).unwrap_or_else(|e| panic!("case {case}: {e}"));
            }
            Err(_) => {
                // Rejection is only legal when some decomposed axis truly
                // cannot fit two 2·range subdomains.
                let fits = (0..dims).all(|ax| b.lengths()[ax] >= 4.0 * range);
                assert!(!fits, "case {case}: decomposition refused a feasible box");
            }
        }
    }
}

#[test]
fn sdc_scatter_equals_serial_on_random_atom_clouds() {
    for case in 0..CASES {
        // Random (non-lattice) configurations: the invariant must not
        // depend on crystal regularity.
        let mut rng = Rng::new(case);
        let n_atoms = 40 + rng.below(110) as usize;
        let l = 30.0;
        let b = SimBox::cubic(l);
        let pos = random_cloud(&mut rng, n_atoms, l);
        let cutoff = 3.0;
        let nl = NeighborList::build(&b, &pos, VerletConfig::half(cutoff, 0.5));
        let plan = SdcPlan::build(&b, &pos, DecompositionConfig::new(3, cutoff + 0.5)).unwrap();
        plan.validate_footprints(nl.csr()).unwrap_or_else(|e| panic!("case {case}: {e}"));

        let kernel = |i: usize, j: usize| {
            let r2 = b.distance_sq(pos[i], pos[j]);
            (r2 < cutoff * cutoff).then(|| PairTerm::symmetric(1.0 / (1.0 + r2)))
        };
        let mut serial = vec![0.0f64; n_atoms];
        let ctx1 = ParallelContext::new(1);
        ScatterExec { ctx: &ctx1, half: nl.csr(), full: None, plan: None,
            localwrite: None, metrics: None, sap: None, taskgraph: None }
            .run(StrategyKind::Serial, &mut serial, &kernel);
        let ctx = ParallelContext::new(4);
        let mut par = vec![0.0f64; n_atoms];
        ScatterExec { ctx: &ctx, half: nl.csr(), full: None, plan: Some(&plan),
            localwrite: None, metrics: None, sap: None, taskgraph: None }
            .run(StrategyKind::Sdc { dims: 3 }, &mut par, &kernel);
        for (k, (a, c)) in serial.iter().zip(&par).enumerate() {
            assert!((a - c).abs() < 1e-12, "case {case}: atom {k}: {a} vs {c}");
        }
    }
}

#[test]
fn neighbor_lists_are_symmetric_under_relabeling() {
    for case in 0..CASES {
        let l = 24.0;
        let b = SimBox::cubic(l);
        let pos = random_cloud(&mut Rng::new(case), 80, l);
        let nl = NeighborList::build(&b, &pos, VerletConfig::full(3.5, 0.0));
        for (i, row) in nl.csr().iter_rows() {
            for &j in row {
                assert!(
                    nl.neighbors(j as usize).contains(&(i as u32)),
                    "case {case}: pair ({i}, {j}) not mirrored"
                );
            }
        }
    }
}
