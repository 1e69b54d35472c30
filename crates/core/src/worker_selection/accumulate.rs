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
    let sigma0 = eta_dis / 3.0;
    // Per target landmark, its neighbourhood and weights.
    let neighbourhoods: Vec<Vec<(usize, f64)>> = landmarks
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
        .collect();
    accumulate_columns(&neighbourhoods, densified)
}

/// `out[w][j] = Σ δ · densified[w][l]` over `neighbourhoods[j]`'s
/// `(l, δ)` terms, added in the listed order (see the module docs).
fn accumulate_columns(
    neighbourhoods: &[Vec<(usize, f64)>],
    densified: &DenseMatrix,
) -> DenseMatrix {
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

    #[test]
    fn column_kernel_matches_the_scalar_loop_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
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
            assert_eq!(
                bits(&accumulate_columns(&hoods, &dense)),
                bits(&reference_accumulate(&hoods, &dense)),
                "case {case}: n {n} m {m}"
            );
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
