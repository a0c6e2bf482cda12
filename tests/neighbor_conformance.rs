//! Conformance suite for the neighbor-list builder.
//!
//! The contract under test: [`NeighborList::build`] is **byte for byte**
//! the O(n²) [`NeighborList::build_brute_force`] — same CSR windows, same
//! `indices` — at every thread count and for both list kinds, on inputs
//! chosen to break a cell-list builder: random anisotropic boxes with mixed
//! periodicity and atoms beyond the open faces, periodic axes one or two
//! cells wide, atoms on cell faces and one ulp below them, perfect lattices
//! with the reach exactly on a neighbour shell, and shuffled ids. On every
//! one of those inputs, [`NeighborList::build_laid_out`] lays the half list
//! out in the identity, reversed, a random and an SDC plan's atom order:
//! each row keeps the brute force's bytes, the windows tile the entries in
//! the given order, and the bytes are the same at every thread count. Plus
//! the end-to-end skin invariant: between rebuilds, no pair inside the bare
//! cutoff is ever absent from the active list.

use md_base::rng::Rng;
use sdc_md::core::ParallelContext;
use sdc_md::prelude::*;

/// Thread counts every case is built at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn random_cloud(rng: &mut Rng, n: usize, l: f64) -> Vec<Vec3> {
    (0..n)
        .map(|_| {
            let [x, y, z] = [(); 3].map(|_| rng.f64() * l);
            Vec3::new(x, y, z)
        })
        .collect()
}

/// The half and the full list of one cutoff and skin.
fn both_kinds(cutoff: f64, skin: f64) -> [VerletConfig; 2] {
    [
        VerletConfig::half(cutoff, skin),
        VerletConfig::full(cutoff, skin),
    ]
}

/// The next float below `x > 0`.
fn ulp_below(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// The row orders the layout battery lays a half list out in: identity,
/// reversed, a shuffle, and the atom order of the first SDC plan (3-D, 2-D,
/// then 1-D) the box admits, which is the order the engine lays it out in.
fn layouts(b: &SimBox, pos: &[Vec3], reach: f64) -> Vec<(&'static str, Vec<u32>)> {
    let n = pos.len() as u32;
    let mut shuffled: Vec<u32> = (0..n).collect();
    Rng::new(u64::from(n)).shuffle(&mut shuffled);
    let mut orders = vec![
        ("identity", (0..n).collect()),
        ("reversed", (0..n).rev().collect()),
        ("random", shuffled),
    ];
    let plan = (1..=3)
        .rev()
        .find_map(|dims| SdcPlan::build(b, pos, DecompositionConfig::new(dims, reach)).ok());
    if let Some(plan) = plan {
        orders.push(("SDC plan", plan.atom_bins().indices().to_vec()));
    }
    orders
}

/// Builds `cfg`'s list at every thread count in [`THREADS`] and holds its
/// bytes to the brute force's. A half list is also laid out in each of
/// [`layouts`]' orders at every thread count: its rows must be the brute
/// force's, its windows must run back to back from 0 in the order, and its
/// bytes must not depend on the thread count.
fn assert_conforms(case: &str, b: &SimBox, pos: &[Vec3], cfg: VerletConfig) {
    let brute = NeighborList::build_brute_force(b, pos, cfg);
    for threads in THREADS {
        let built = ParallelContext::new(threads).install(|| NeighborList::build(b, pos, cfg));
        assert_eq!(
            built.csr(),
            brute.csr(),
            "{case} {cfg:?}: the list diverged at {threads} threads"
        );
    }
    if cfg.kind != NeighborListKind::Half {
        return;
    }
    for (layout, order) in layouts(b, pos, cfg.reach()) {
        let mut first: Option<Csr> = None;
        for threads in THREADS {
            let laid = ParallelContext::new(threads)
                .install(|| NeighborList::build_laid_out(b, pos, cfg, &order));
            let csr = laid.csr();
            let at = format!("{case} {cfg:?}, {layout} layout, {threads} threads");
            for i in 0..pos.len() {
                assert_eq!(csr.row(i), brute.csr().row(i), "{at}: row {i}");
            }
            let mut next = 0;
            for &i in &order {
                assert_eq!(
                    csr.window(i as usize).start,
                    next,
                    "{at}: window of row {i}"
                );
                next = csr.window(i as usize).end;
            }
            assert_eq!(next, csr.entries(), "{at}: windows end early");
            match &first {
                None => first = Some(csr.clone()),
                Some(one) => assert_eq!(csr, one, "{at}: bytes differ from 1 thread"),
            }
        }
    }
}

/// Small random clouds in cubic periodic boxes, random cutoff, skin and
/// kind. Case `k` draws its cloud from `Rng::new(k)`.
#[test]
fn parallel_build_conforms_on_random_clouds() {
    for case in 0..24 {
        let mut rng = Rng::new(case);
        let n = 64 + rng.below(256) as usize;
        let l = rng.uniform(16.0, 36.0);
        let cutoff = rng.uniform(3.0, 6.0);
        let skin = rng.uniform(0.0, 0.8);
        let half = rng.below(2) == 1;
        if l < 2.0 * (cutoff + skin) {
            continue; // the box cannot host this reach
        }
        let b = SimBox::cubic(l);
        let pos = random_cloud(&mut rng, n, l);
        let cfg = both_kinds(cutoff, skin)[usize::from(!half)];
        assert_conforms(&format!("case {case}"), &b, &pos, cfg);
    }
}

/// Clouds of 2,100–2,600 atoms: past the parallel binning threshold and
/// split into more than one cell block, so the chunked counting sort, the
/// block scan and the window copy all run.
#[test]
fn parallel_build_is_bitwise_identical_on_large_clouds() {
    for case in 0..24 {
        let mut rng = Rng::new(case);
        let n = 2_100 + rng.below(500) as usize;
        let half = rng.below(2) == 1;
        let l = 40.0;
        let b = SimBox::cubic(l);
        let pos = random_cloud(&mut rng, n, l);
        let cfg = both_kinds(5.0, 0.5)[usize::from(!half)];
        assert_conforms(&format!("case {case}"), &b, &pos, cfg);
    }
}

/// Anisotropic boxes, each axis periodic or open at random. Open axes may
/// be shorter than two reaches and hold atoms up to 2 Å beyond either face.
#[test]
fn random_anisotropic_boxes_with_mixed_periodicity_conform() {
    for case in 0..40 {
        let mut rng = Rng::new(1_000 + case);
        let skin = rng.uniform(0.0, 0.5);
        let cfgs = both_kinds(rng.uniform(2.0, 5.5), skin);
        let reach = cfgs[0].reach();
        let periodic = [(); 3].map(|_| rng.below(2) == 1);
        let lengths = periodic.map(|p| {
            let shortest = if p { 2.0 } else { 1.01 };
            reach * rng.uniform(shortest, 6.0)
        });
        let b = SimBox::with_periodicity(Vec3::new(lengths[0], lengths[1], lengths[2]), periodic);
        let n = 50 + rng.below(400) as usize;
        let pos: Vec<Vec3> = (0..n)
            .map(|_| {
                let mut p = Vec3::ZERO;
                for d in 0..3 {
                    p[d] = if periodic[d] {
                        rng.f64() * lengths[d]
                    } else {
                        rng.uniform(-2.0, lengths[d] + 2.0)
                    };
                }
                p
            })
            .collect();
        for cfg in cfgs {
            assert_conforms(&format!("case {case} {b:?}"), &b, &pos, cfg);
        }
    }
}

/// Periodic axes exactly two reaches long (one cell: offsets −1, 0 and +1
/// all reach the home cell through three images) and 2.5 or 3 reaches long
/// (two cells: offsets −1 and +1 reach the same cell through two images).
/// Half the atom coordinates are quarter points of the box, so many pairs
/// lie exactly half a box apart on some axis, and a few atoms coincide.
#[test]
fn one_and_two_cell_periodic_axes_conform() {
    let cfgs = both_kinds(5.67, 0.3);
    let reach = cfgs[0].reach();
    for (case, factors) in [
        [2.0, 2.0, 2.0],
        [2.0, 2.5, 3.0],
        [3.0, 3.0, 3.0],
        [2.5, 2.5, 7.0],
        [2.0, 7.3, 3.0],
    ]
    .into_iter()
    .enumerate()
    {
        let lengths = factors.map(|f| f * reach);
        let b = SimBox::periodic(Vec3::new(lengths[0], lengths[1], lengths[2]));
        let mut rng = Rng::new(2_000 + case as u64);
        let pos: Vec<Vec3> = (0..120)
            .map(|_| {
                // Quarter points of the box, and random points.
                let mut p = Vec3::ZERO;
                for d in 0..3 {
                    p[d] = if rng.below(2) == 0 {
                        lengths[d] * rng.below(4) as f64 / 4.0
                    } else {
                        rng.f64() * lengths[d]
                    };
                }
                p
            })
            .collect();
        for cfg in cfgs {
            assert_conforms(&format!("box {factors:?}·reach"), &b, &pos, cfg);
        }
    }
}

/// Atoms on the faces of the binning grid, one ulp below them, at `L − 1
/// ulp`, and on multiples of the reach: the faces a grid of edge exactly
/// `reach` would have when `L` is a whole number of reaches. For the first
/// three reaches such a grid bins `ulp_below(2·reach)` into cell 1 and
/// `ulp_below(3·reach)` into cell 3, although the two are within reach:
/// the case the binning margin exists for.
#[test]
fn atoms_on_cell_faces_and_one_ulp_below_conform() {
    for (case, (reach, factors)) in [
        (6.786103247207213, [4.0, 3.0, 5.0]),
        (5.130073918502986, [6.0, 2.0, 3.0]),
        (5.5290108644741816, [5.0, 4.0, 2.5]),
        (5.0, [3.0, 4.0, 5.0]),
        (5.0, [2.0, 3.0, 6.5]),
        (5.0, [4.0, 4.0, 4.0]),
    ]
    .into_iter()
    .enumerate()
    {
        for periodic in [[true; 3], [true, false, true]] {
            let lengths = factors.map(|f| f * reach);
            let b =
                SimBox::with_periodicity(Vec3::new(lengths[0], lengths[1], lengths[2]), periodic);
            // Per axis: every face of both grids, the float below each,
            // and L − 1 ulp.
            let axis_points: Vec<Vec<f64>> = (0..3)
                .map(|d| {
                    let l = lengths[d];
                    let dims = (l / (reach * (1.0 + 1e-9))).floor();
                    let mut pts = vec![0.0, ulp_below(l)];
                    for k in 1..dims as usize {
                        pts.push(l * k as f64 / dims);
                    }
                    for k in 1..(l / reach).ceil() as usize {
                        pts.push(reach * k as f64);
                    }
                    let faces = pts.clone();
                    pts.extend(faces.iter().filter(|&&x| x > 0.0).map(|&x| ulp_below(x)));
                    pts.retain(|&x| x < l);
                    pts
                })
                .collect();
            let mut rng = Rng::new(3_000 + case as u64);
            let mut pick =
                |d: usize| axis_points[d][rng.below(axis_points[d].len() as u64) as usize];
            // Every x point on six lines along x, so pairs that differ in
            // x only exist; then random combinations.
            let lines: Vec<(f64, f64)> = (0..6).map(|_| (pick(1), pick(2))).collect();
            let mut pos: Vec<Vec3> = lines
                .iter()
                .flat_map(|&(y, z)| axis_points[0].iter().map(move |&x| Vec3::new(x, y, z)))
                .collect();
            pos.extend((0..200).map(|_| Vec3::new(pick(0), pick(1), pick(2))));
            rng.shuffle(&mut pos);
            for cfg in both_kinds(reach, 0.0) {
                assert_conforms(
                    &format!("reach {reach}, box {factors:?}·reach, periodic {periodic:?}"),
                    &b,
                    &pos,
                    cfg,
                );
            }
        }
    }
}

/// Perfect bcc crystals of 4–8 cells with the reach exactly on one of the
/// first six neighbour shells: every pair on that shell is decided by the
/// last bit of its distance.
#[test]
fn perfect_bcc_lattices_with_reach_on_a_shell_conform() {
    for cells in 4..=8 {
        let spec = LatticeSpec::bcc_fe(cells);
        let (b, pos) = spec.build();
        let a = spec.a;
        for shell in [
            3f64.sqrt() / 2.0,
            1.0,
            2f64.sqrt(),
            11f64.sqrt() / 2.0,
            3f64.sqrt(),
            2.0,
        ] {
            let reach = a * shell;
            if b.lengths().x < 2.0 * reach {
                continue;
            }
            for cfg in [
                VerletConfig::half(reach, 0.0),
                VerletConfig::full(reach, 0.0),
            ] {
                assert_conforms(&format!("bcc {cells}³, reach {shell}·a"), &b, &pos, cfg);
            }
        }
    }
}

/// Rattled crystals and a cloud whose ids are shuffled, so ids carry no
/// spatial order and every cursor walks its cell in a new pattern.
#[test]
fn shuffled_ids_conform() {
    for (case, cells) in [6usize, 10].into_iter().enumerate() {
        let (b, mut pos) = LatticeSpec::bcc_fe(cells).build();
        let mut rng = Rng::new(4_000 + case as u64);
        for p in pos.iter_mut() {
            let kick = Vec3::new(
                rng.uniform(-0.4, 0.4),
                rng.uniform(-0.4, 0.4),
                rng.uniform(-0.4, 0.4),
            );
            *p = b.wrap(*p + kick);
        }
        rng.shuffle(&mut pos);
        for cfg in both_kinds(5.67, 0.3) {
            assert_conforms(&format!("shuffled bcc {cells}³"), &b, &pos, cfg);
        }
    }
    let mut rng = Rng::new(4_100);
    let b = SimBox::periodic(Vec3::new(30.0, 24.0, 40.0));
    let mut pos = random_cloud(&mut rng, 1_500, 24.0);
    rng.shuffle(&mut pos);
    for cfg in both_kinds(4.5, 0.5) {
        assert_conforms("shuffled cloud", &b, &pos, cfg);
    }
}

/// End-to-end skin invariant (the `skin/2` rebuild trigger): at every step
/// of an EAM melt, every pair currently inside the *bare* cutoff must be
/// present in the active (possibly stale) half list — otherwise forces
/// would silently drop interactions between rebuilds.
#[test]
fn no_in_cutoff_pair_is_ever_missing_between_rebuilds() {
    let cutoff = AnalyticEam::fe().cutoff();
    let mut sim = Simulation::builder(LatticeSpec::bcc_fe(5))
        .potential(AnalyticEam::fe())
        .temperature(1200.0) // hot: fast drift, frequent rebuilds
        .seed(7)
        .skin(0.3)
        .build()
        .unwrap();
    for step in 1..=60 {
        sim.step();
        let b = *sim.system().sim_box();
        let pos = sim.system().positions();
        let csr = sim.engine().neighbor_list().csr();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                if b.distance_sq(pos[i], pos[j]) < cutoff * cutoff {
                    assert!(
                        csr.row(i).contains(&(j as u32)),
                        "step {step}: in-cutoff pair ({i}, {j}) missing from half list"
                    );
                }
            }
        }
    }
    assert!(
        sim.engine().rebuilds() > 0,
        "melt never triggered a rebuild; the test exercised nothing"
    );
}
