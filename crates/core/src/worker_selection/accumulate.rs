//! Spatial knowledge accumulation (paper §IV-B, end).
//!
//! "A worker with a familiarity score of a landmark … has some knowledge
//! about the region around the landmark, not just the landmark itself."
//! The accumulated score of landmark `lⱼ` is a Gaussian-weighted sum of
//! the worker's (densified) familiarity with every landmark within η_dis
//! of `lⱼ`:
//!
//! ```text
//! F_w^{lⱼ} = Σ_{l ∈ L_near ∪ {lⱼ}} δ_l · f_w^l,
//! δ_l = N(d(l, lⱼ) | 0, σ₀²),  σ₀ = η_dis / 3
//! ```
//!
//! # Addition order
//!
//! Every `F_w^{lⱼ}` starts at `0.0` and adds its terms `δ_l · f_w^l` in
//! the order [`LandmarkSet::within_radius`] returns the neighbourhood of
//! `lⱼ`. Floating-point addition is not associative, so that order *is*
//! the result: [`accumulate_scores`] computes one target column at a
//! time over a landmark-major copy of `M'`, adding term after term into
//! a per-worker column, which keeps each sum's order while letting the
//! inner loop run across workers (and vectorise).
//!
//! Like the PMF epoch loop, the column kernel is compiled twice, once for
//! the baseline target and once with AVX2, and the CPU picks at run time;
//! the twins add the same terms in the same order, so they agree bit for
//! bit (the `pmf` module docs explain why, and why FMA stays off). The
//! neighbourhoods and their Gaussian weights depend only on the landmarks
//! and η_dis, so a [`KnowledgeBasis`] computes them once per planner.
//!
//! [`KnowledgeBasis`]: crate::worker_selection::KnowledgeBasis

use crate::worker_selection::matrix::DenseMatrix;
use cp_roadnet::LandmarkSet;
use cp_traj::stats::normal_pdf;

/// Computes the accumulated familiarity matrix `M*` from the densified
/// familiarity matrix `M'` (workers × landmarks).
pub fn accumulate_scores(
    landmarks: &LandmarkSet,
    densified: &DenseMatrix,
    eta_dis: f64,
) -> DenseMatrix {
    assert_eq!(densified.cols(), landmarks.len(), "one column per landmark");
    accumulate_columns(&neighbourhoods(landmarks, eta_dis), densified)
}

/// Per target landmark `lⱼ`, its `(l, δ_l)` terms in the order
/// [`LandmarkSet::within_radius`] lists them. Depends only on the
/// landmarks and η_dis, so a [`KnowledgeBasis`] computes it once.
///
/// [`KnowledgeBasis`]: crate::worker_selection::KnowledgeBasis
pub(crate) fn neighbourhoods(landmarks: &LandmarkSet, eta_dis: f64) -> Vec<Vec<(usize, f64)>> {
    let sigma0 = eta_dis / 3.0;
    landmarks
        .iter()
        .map(|lj| {
            landmarks
                .within_radius(&lj.position, eta_dis)
                .into_iter()
                .map(|id| {
                    let d = landmarks.get(id).position.distance(&lj.position);
                    (id.index(), normal_pdf(d, 0.0, sigma0))
                })
                .collect()
        })
        .collect()
}

/// `out[w][j] = Σ δ · densified[w][l]` over `neighbourhoods[j]`'s
/// `(l, δ)` terms, added in the listed order (see the module docs), on
/// the widest kernel twin the CPU runs.
pub(crate) fn accumulate_columns(
    neighbourhoods: &[Vec<(usize, f64)>],
    densified: &DenseMatrix,
) -> DenseMatrix {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { accumulate_columns_avx2(neighbourhoods, densified) };
    }
    accumulate_columns_portable(neighbourhoods, densified)
}

/// The column kernel behind both twins. Always inlined, so each twin
/// compiles it for its own instruction set.
#[inline(always)]
fn columns(neighbourhoods: &[Vec<(usize, f64)>], densified: &DenseMatrix) -> DenseMatrix {
    let n = densified.rows();
    let m = densified.cols();
    // Landmark-major copy of `M'`: `by_landmark[l * n + w]`.
    let mut by_landmark = vec![0.0; m * n];
    for w in 0..n {
        for (l, &v) in densified.row(w).iter().enumerate() {
            by_landmark[l * n + w] = v;
        }
    }
    let mut out = DenseMatrix::zeros(n, neighbourhoods.len());
    let mut column = vec![0.0; n];
    for (j, hood) in neighbourhoods.iter().enumerate() {
        column.fill(0.0);
        for &(l, delta) in hood {
            for (acc, &f) in column.iter_mut().zip(&by_landmark[l * n..(l + 1) * n]) {
                *acc += delta * f;
            }
        }
        for (w, &acc) in column.iter().enumerate() {
            out.set(w, j, acc);
        }
    }
    out
}

/// [`columns`] for the build's baseline instruction set.
#[inline(never)]
fn accumulate_columns_portable(
    neighbourhoods: &[Vec<(usize, f64)>],
    densified: &DenseMatrix,
) -> DenseMatrix {
    columns(neighbourhoods, densified)
}

/// [`columns`] compiled for AVX2 (and never FMA, which would fuse
/// `acc + δ · f` into one rounding; see the `pmf` module docs). Callers
/// must first check that the CPU has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn accumulate_columns_avx2(
    neighbourhoods: &[Vec<(usize, f64)>],
    densified: &DenseMatrix,
) -> DenseMatrix {
    columns(neighbourhoods, densified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::{Landmark, LandmarkCategory, LandmarkId, LandmarkSet, NodeId, Point};

    fn lm_at(i: u32, x: f64, y: f64) -> Landmark {
        Landmark {
            id: LandmarkId(i),
            position: Point::new(x, y),
            anchor: NodeId(0),
            latent_fame: 0.5,
            category: LandmarkCategory::Food,
        }
    }

    fn line_landmarks() -> LandmarkSet {
        LandmarkSet::new(
            vec![
                lm_at(0, 0.0, 0.0),
                lm_at(1, 400.0, 0.0),
                lm_at(2, 5000.0, 0.0),
            ],
            500.0,
        )
    }

    #[test]
    fn knowledge_spreads_to_nearby_landmarks_only() {
        let lms = line_landmarks();
        let mut fam = DenseMatrix::zeros(1, 3);
        fam.set(0, 0, 1.0); // worker knows only landmark 0
        let acc = accumulate_scores(&lms, &fam, 1000.0);
        // Landmark 0 keeps the largest accumulated score.
        assert!(acc.get(0, 0) > acc.get(0, 1));
        // Landmark 1 (400 m away, inside eta_dis) receives spillover.
        assert!(acc.get(0, 1) > 0.0);
        // Landmark 2 (5 km away, outside eta_dis) receives nothing.
        assert_eq!(acc.get(0, 2), 0.0);
    }

    #[test]
    fn self_weight_is_peak_gaussian() {
        let lms = line_landmarks();
        let mut fam = DenseMatrix::zeros(1, 3);
        fam.set(0, 2, 2.0);
        let eta = 900.0;
        let acc = accumulate_scores(&lms, &fam, eta);
        let expect = 2.0 * normal_pdf(0.0, 0.0, eta / 3.0);
        assert!((acc.get(0, 2) - expect).abs() < 1e-12);
    }

    #[test]
    fn accumulation_is_linear_in_familiarity() {
        let lms = line_landmarks();
        let mut f1 = DenseMatrix::zeros(1, 3);
        f1.set(0, 0, 1.0);
        let mut f2 = DenseMatrix::zeros(1, 3);
        f2.set(0, 0, 3.0);
        let a1 = accumulate_scores(&lms, &f1, 1000.0);
        let a2 = accumulate_scores(&lms, &f2, 1000.0);
        for j in 0..3 {
            assert!((a2.get(0, j) - 3.0 * a1.get(0, j)).abs() < 1e-12);
        }
    }

    /// The accumulation loop as it was before the column-wise kernel:
    /// worker-major, one scalar sum per `(w, j)`.
    fn reference_accumulate(
        neighbourhoods: &[Vec<(usize, f64)>],
        densified: &DenseMatrix,
    ) -> DenseMatrix {
        let n = densified.rows();
        let mut out = DenseMatrix::zeros(n, neighbourhoods.len());
        for w in 0..n {
            for (j, hood) in neighbourhoods.iter().enumerate() {
                let mut acc = 0.0;
                for &(l, delta) in hood {
                    acc += delta * densified.get(w, l);
                }
                out.set(w, j, acc);
            }
        }
        out
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        (0..m.rows())
            .flat_map(|r| m.row(r).iter().map(|v| v.to_bits()))
            .collect()
    }

    /// An accumulation column kernel.
    type Kernel = fn(&[Vec<(usize, f64)>], &DenseMatrix) -> DenseMatrix;

    /// The column kernel twins this host can run, by name.
    fn kernel_twins() -> Vec<(&'static str, Kernel)> {
        let mut twins: Vec<(_, Kernel)> = vec![("portable", accumulate_columns_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            twins.push(("avx2", |hoods, dense| unsafe {
                accumulate_columns_avx2(hoods, dense)
            }));
        }
        twins
    }

    #[test]
    fn column_kernel_matches_the_scalar_loop_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let twins = kernel_twins();
        let names: Vec<&str> = twins.iter().map(|&(name, _)| name).collect();
        println!("accumulation column kernel twins compared against the scalar loop: {names:?}");
        if names.len() == 1 {
            println!("accumulation: this host lacks AVX2, so the avx2 twin was skipped");
        }
        let mut rng = SmallRng::seed_from_u64(0xACC);
        for case in 0..240 {
            let n = rng.random_range(0..24usize);
            let m = if case % 10 == 0 {
                1
            } else {
                rng.random_range(1..16usize)
            };
            // Magnitudes spanning 16 orders, so a reordered sum rounds
            // differently; zeros of both signs included.
            let mut dense = DenseMatrix::zeros(n, m);
            for w in 0..n {
                for l in 0..m {
                    let v = match rng.random_range(0..5u32) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.random_range(-1.0..1.0) * 10f64.powi(rng.random_range(-8..8i32)),
                    };
                    dense.set(w, l, v);
                }
            }
            // Empty, singleton and repeated-landmark neighbourhoods, in
            // any order.
            let hoods: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|j| match rng.random_range(0..4u32) {
                    0 => Vec::new(),
                    1 => vec![(j, rng.random_range(0.0..2.0))],
                    _ => (0..rng.random_range(0..2 * m + 2))
                        .map(|_| (rng.random_range(0..m), rng.random_range(0.0..2.0)))
                        .collect(),
                })
                .collect();
            let reference = bits(&reference_accumulate(&hoods, &dense));
            assert_eq!(
                bits(&accumulate_columns(&hoods, &dense)),
                reference,
                "case {case}: n {n} m {m}"
            );
            for &(name, kernel) in &twins {
                assert_eq!(
                    bits(&kernel(&hoods, &dense)),
                    reference,
                    "{name} twin, case {case}: n {n} m {m}"
                );
            }
        }
    }

    #[test]
    fn accumulate_scores_matches_the_scalar_loop_on_real_landmarks() {
        use cp_roadnet::{generate_city, generate_landmarks, CityParams, LandmarkGenParams};
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let city = generate_city(&CityParams::small(), 5).unwrap();
        let lms = generate_landmarks(&city.graph, &LandmarkGenParams::default(), 5);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut dense = DenseMatrix::zeros(37, lms.len());
        for w in 0..37 {
            for l in 0..lms.len() {
                dense.set(w, l, rng.random_range(0.0..3.0));
            }
        }
        // From singleton neighbourhoods (1 m) to most of the town.
        for eta in [1.0, 150.0, 500.0, 2000.0] {
            let hoods: Vec<Vec<(usize, f64)>> = lms
                .iter()
                .map(|lj| {
                    lms.within_radius(&lj.position, eta)
                        .into_iter()
                        .map(|id| {
                            let d = lms.get(id).position.distance(&lj.position);
                            (id.index(), normal_pdf(d, 0.0, eta / 3.0))
                        })
                        .collect()
                })
                .collect();
            if eta == 1.0 {
                assert!(hoods.iter().all(|h| h.len() == 1), "singletons at 1 m");
            }
            assert_eq!(
                bits(&accumulate_scores(&lms, &dense, eta)),
                bits(&reference_accumulate(&hoods, &dense)),
                "eta_dis {eta}"
            );
        }
    }

    #[test]
    fn wider_eta_dis_spreads_further() {
        let lms = LandmarkSet::new(vec![lm_at(0, 0.0, 0.0), lm_at(1, 800.0, 0.0)], 500.0);
        let mut fam = DenseMatrix::zeros(1, 2);
        fam.set(0, 0, 1.0);
        let narrow = accumulate_scores(&lms, &fam, 500.0);
        let wide = accumulate_scores(&lms, &fam, 3000.0);
        assert_eq!(narrow.get(0, 1), 0.0, "800 m > 500 m radius");
        assert!(wide.get(0, 1) > 0.0);
    }
}
