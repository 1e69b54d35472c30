//! Probabilistic Matrix Factorization (paper §IV-B; Mnih & Salakhutdinov,
//! NIPS 2007, the paper's ref \[15\]).
//!
//! The observed familiarity matrix `M` is factorised as `M ≈ WᵀL` with
//! worker factors `W ∈ R^{d×n}` and landmark factors `L ∈ R^{d×m}`; MAP
//! estimation under Gaussian observation noise and zero-mean Gaussian
//! priors reduces to minimising
//!
//! ```text
//! Σ_{ij observed} (M_ij − Wᵢᵀ Lⱼ)² + λ_W Σ‖Wᵢ‖² + λ_L Σ‖Lⱼ‖²
//! ```
//!
//! which we do with deterministic stochastic gradient descent (seeded
//! initialisation, then `epochs` passes over the observations). The
//! refit matrix `M' = WᵀL` predicts familiarity for worker–landmark
//! pairs that were never observed, exploiting latent similarity between
//! workers — exactly the paper's motivation ("workers who have similar
//! profile information … are highly possible to share the similar
//! knowledge").
//!
//! # Level schedule
//!
//! The model is defined by SGD over the observations *in the order
//! given*, but each pass runs them in a level schedule instead. One SGD
//! step reads and writes exactly one worker row and one landmark row, so
//! two steps that share neither row commute bit for bit. Each entry gets
//! a level: one more than the highest level of any earlier entry that
//! shares its worker row or its landmark row. Sorting the entries stably
//! by level keeps every pair of row-sharing entries in their original
//! relative order, so the level order is a linear extension of the
//! original dependency order — for any input order, duplicates included —
//! and produces the same factors to the last bit.
//!
//! The gain is instruction-level parallelism: consecutive steps of one
//! level touch disjoint rows, so the CPU overlaps them instead of waiting
//! on the previous step's stores (observations arrive worker-major, so in
//! the given order nearly every step depends on the one before it). That
//! only pays off together with a tight kernel, so the epoch loop lives in
//! its own `#[inline(never)]` function over fixed-size `[f64; D]` rows:
//! inlined into [`PmfModel::fit`], or over slices of run-time length, the
//! compiler keeps the rows in memory and the schedule gains nothing.
//!
//! # Instruction set
//!
//! The epoch loop is one `#[inline(always)]` body compiled twice: once
//! for the build's baseline target and, on x86-64, once more with AVX2
//! enabled. [`PmfModel::fit`] asks the CPU at run time and takes the
//! AVX2 twin where it exists. The twin is the same Rust, so it performs
//! the same IEEE-754 additions and multiplications on the same operands
//! in the same order; wider registers only let the compiler run the
//! row updates four lanes at a time instead of two, and a lane computes
//! exactly what the scalar operation would. Both twins therefore fit
//! the same factors to the last bit.
//!
//! The twin enables `avx2` and nothing else. In particular it must
//! never enable `fma`: Rust does not contract `a * b + c` into a fused
//! multiply-add on its own, but a fused operation rounds once where the
//! written code rounds twice, so any FMA would change the factors, and
//! with them every knowledge model downstream.

use crate::worker_selection::matrix::{DenseMatrix, SparseObservations};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// PMF hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct PmfParams {
    /// Latent dimensionality d.
    pub dims: usize,
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Worker-factor regulariser λ_W.
    pub lambda_w: f64,
    /// Landmark-factor regulariser λ_L.
    pub lambda_l: f64,
    /// Initialisation seed.
    pub seed: u64,
}

impl Default for PmfParams {
    fn default() -> Self {
        PmfParams {
            dims: 8,
            epochs: 120,
            learning_rate: 0.02,
            lambda_w: 0.05,
            lambda_l: 0.05,
            seed: 7,
        }
    }
}

/// Reorders `entries` into the level schedule (see the module docs):
/// a stable sort by level, where an entry's level is one more than the
/// highest level of any earlier entry sharing its worker or landmark
/// row. Indices must be below `n` / `m`.
fn level_schedule(entries: &[(u32, u32, f64)], n: usize, m: usize) -> Vec<(u32, u32, f64)> {
    let mut worker_level = vec![0u32; n];
    let mut landmark_level = vec![0u32; m];
    let mut levels = Vec::with_capacity(entries.len());
    // `count[lv]`: entries at level `lv` (levels start at 1).
    let mut count: Vec<usize> = vec![0];
    for &(wi, lj, _) in entries {
        let (wi, lj) = (wi as usize, lj as usize);
        let lv = worker_level[wi].max(landmark_level[lj]) + 1;
        worker_level[wi] = lv;
        landmark_level[lj] = lv;
        levels.push(lv);
        if count.len() <= lv as usize {
            count.push(0);
        }
        count[lv as usize] += 1;
    }
    // Counting sort: exclusive prefix sums give each level's first slot.
    let mut next = 0;
    for c in &mut count {
        next += std::mem::replace(c, next);
    }
    let mut order = vec![(0, 0, 0.0); entries.len()];
    for (&e, &lv) in entries.iter().zip(&levels) {
        let slot = &mut count[lv as usize];
        order[*slot] = e;
        *slot += 1;
    }
    order
}

/// The SGD epoch loop's scalars.
struct Sgd {
    mean: f64,
    lr: f64,
    lambda_w: f64,
    lambda_l: f64,
    epochs: usize,
}

impl Sgd {
    /// One step on a worker row and a landmark row: the update every
    /// kernel shares, written once so the fixed-size and slice kernels
    /// cannot drift.
    #[inline(always)]
    fn step(&self, w_row: &mut [f64], l_row: &mut [f64], value: f64) {
        let mut pred = self.mean;
        for k in 0..w_row.len() {
            pred += w_row[k] * l_row[k];
        }
        let err = value - pred;
        for k in 0..w_row.len() {
            let wk = w_row[k];
            let lk = l_row[k];
            w_row[k] += self.lr * (err * lk - self.lambda_w * wk);
            l_row[k] += self.lr * (err * wk - self.lambda_l * lk);
        }
    }

    /// All epochs over `order` with `D`-wide rows (`D` = the latent
    /// dimensionality), on the widest kernel twin the CPU runs (see the
    /// module docs).
    fn run<const D: usize>(&self, w: &mut [f64], l: &mut [f64], order: &[(u32, u32, f64)]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { self.run_avx2::<D>(w, l, order) };
        }
        self.run_portable::<D>(w, l, order)
    }

    /// The epoch loop behind both twins. Always inlined, so each twin
    /// compiles it for its own instruction set.
    #[inline(always)]
    fn epochs<const D: usize>(&self, w: &mut [f64], l: &mut [f64], order: &[(u32, u32, f64)]) {
        let (w, _) = w.as_chunks_mut::<D>();
        let (l, _) = l.as_chunks_mut::<D>();
        for _ in 0..self.epochs {
            for &(wi, lj, value) in order {
                self.step(&mut w[wi as usize], &mut l[lj as usize], value);
            }
        }
    }

    /// [`Sgd::epochs`] for the build's baseline instruction set. Kept
    /// out of line: see the module docs.
    #[inline(never)]
    fn run_portable<const D: usize>(
        &self,
        w: &mut [f64],
        l: &mut [f64],
        order: &[(u32, u32, f64)],
    ) {
        self.epochs::<D>(w, l, order)
    }

    /// [`Sgd::epochs`] compiled for AVX2 (and never FMA). Callers must
    /// first check that the CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    fn run_avx2<const D: usize>(&self, w: &mut [f64], l: &mut [f64], order: &[(u32, u32, f64)]) {
        self.epochs::<D>(w, l, order)
    }

    /// [`Sgd::run`] for a latent dimensionality without a fixed-size
    /// kernel.
    #[inline(never)]
    fn run_dyn(&self, d: usize, w: &mut [f64], l: &mut [f64], order: &[(u32, u32, f64)]) {
        for _ in 0..self.epochs {
            for &(wi, lj, value) in order {
                let (wi, lj) = (wi as usize * d, lj as usize * d);
                self.step(&mut w[wi..wi + d], &mut l[lj..lj + d], value);
            }
        }
    }
}

/// A fitted factorisation.
#[derive(Debug, Clone)]
pub struct PmfModel {
    dims: usize,
    /// Worker factors, row-major `n × d`.
    w: Vec<f64>,
    /// Landmark factors, row-major `m × d`.
    l: Vec<f64>,
    /// Global mean of the observations; factors model the residual. This
    /// anchors predictions so PMF can never do worse than the mean
    /// baseline in expectation, even at extreme sparsity.
    mean: f64,
    n: usize,
    m: usize,
}

impl PmfModel {
    /// Fits PMF to the observations. `n`/`m` are the full matrix
    /// dimensions (workers × landmarks).
    pub fn fit(obs: &SparseObservations, n: usize, m: usize, params: &PmfParams) -> PmfModel {
        Self::fit_with(obs, n, m, params, Sgd::run::<8>)
    }

    /// [`PmfModel::fit`] with `run8` as the `d = 8` epoch kernel, so the
    /// tests can pin each twin.
    fn fit_with(
        obs: &SparseObservations,
        n: usize,
        m: usize,
        params: &PmfParams,
        run8: impl FnOnce(&Sgd, &mut [f64], &mut [f64], &[(u32, u32, f64)]),
    ) -> PmfModel {
        let d = params.dims.max(1);
        let mut rng = SmallRng::seed_from_u64(params.seed ^ 0x94D0_49BB_1331_11EB);
        let mut w = vec![0.0; n * d];
        let mut l = vec![0.0; m * d];
        for v in w.iter_mut().chain(l.iter_mut()) {
            *v = rng.random_range(-0.1..0.1);
        }
        let mean = if obs.is_empty() {
            0.0
        } else {
            obs.entries.iter().map(|&(_, _, v)| v).sum::<f64>() / obs.len() as f64
        };
        let order = level_schedule(&obs.entries, n, m);
        let sgd = Sgd {
            mean,
            lr: params.learning_rate,
            lambda_w: params.lambda_w,
            lambda_l: params.lambda_l,
            epochs: params.epochs,
        };
        match d {
            8 => run8(&sgd, &mut w, &mut l, &order),
            _ => sgd.run_dyn(d, &mut w, &mut l, &order),
        }
        PmfModel {
            dims: d,
            w,
            l,
            mean,
            n,
            m,
        }
    }

    /// Predicted familiarity of worker `i` with landmark `j`, floored at 0
    /// (familiarity scores are non-negative by definition).
    pub fn predict(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.m);
        let mut p = self.mean;
        for k in 0..self.dims {
            p += self.w[i * self.dims + k] * self.l[j * self.dims + k];
        }
        p.max(0.0)
    }

    /// Materialises the full predicted matrix `M'`, keeping observed
    /// entries at their observed values (the paper infers only the
    /// *missing* scores; observations are trusted).
    pub fn densify(&self, obs: &SparseObservations) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.n, self.m);
        for i in 0..self.n {
            for j in 0..self.m {
                out.set(i, j, self.predict(i, j));
            }
        }
        for &(i, j, v) in &obs.entries {
            out.set(i as usize, j as usize, v);
        }
        out
    }

    /// Root-mean-square error against a set of held-out observations.
    pub fn rmse(&self, held_out: &SparseObservations) -> f64 {
        if held_out.is_empty() {
            return 0.0;
        }
        let se: f64 = held_out
            .entries
            .iter()
            .map(|&(i, j, v)| {
                let e = v - self.predict(i as usize, j as usize);
                e * e
            })
            .sum();
        (se / held_out.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a rank-2 ground-truth matrix and samples observations.
    fn synthetic(
        n: usize,
        m: usize,
        density: f64,
        seed: u64,
    ) -> (Vec<f64>, SparseObservations, SparseObservations) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let wf: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let lf: Vec<(f64, f64)> = (0..m)
            .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let mut truth = vec![0.0; n * m];
        let mut train = SparseObservations::default();
        let mut test = SparseObservations::default();
        for i in 0..n {
            for j in 0..m {
                let v = wf[i].0 * lf[j].0 + wf[i].1 * lf[j].1;
                truth[i * m + j] = v;
                if rng.random_bool(density) {
                    train.push(i as u32, j as u32, v);
                } else if rng.random_bool(0.2) {
                    test.push(i as u32, j as u32, v);
                }
            }
        }
        (truth, train, test)
    }

    /// `PmfModel::fit` as it was before the level schedule: SGD over the
    /// observations in the order given.
    fn reference_fit(obs: &SparseObservations, n: usize, m: usize, params: &PmfParams) -> PmfModel {
        let d = params.dims.max(1);
        let mut rng = SmallRng::seed_from_u64(params.seed ^ 0x94D0_49BB_1331_11EB);
        let mut w = vec![0.0; n * d];
        let mut l = vec![0.0; m * d];
        for v in w.iter_mut().chain(l.iter_mut()) {
            *v = rng.random_range(-0.1..0.1);
        }
        let mean = if obs.is_empty() {
            0.0
        } else {
            obs.entries.iter().map(|&(_, _, v)| v).sum::<f64>() / obs.len() as f64
        };
        let lr = params.learning_rate;
        for _ in 0..params.epochs {
            for &(wi, lj, value) in &obs.entries {
                let (wi, lj) = (wi as usize, lj as usize);
                let wrow = wi * d;
                let lrow = lj * d;
                let mut pred = mean;
                for k in 0..d {
                    pred += w[wrow + k] * l[lrow + k];
                }
                let err = value - pred;
                for k in 0..d {
                    let wk = w[wrow + k];
                    let lk = l[lrow + k];
                    w[wrow + k] += lr * (err * lk - params.lambda_w * wk);
                    l[lrow + k] += lr * (err * wk - params.lambda_l * lk);
                }
            }
        }
        PmfModel {
            dims: d,
            w,
            l,
            mean,
            n,
            m,
        }
    }

    fn factor_bits(model: &PmfModel) -> (Vec<u64>, Vec<u64>, u64) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (bits(&model.w), bits(&model.l), model.mean.to_bits())
    }

    /// A `d = 8` epoch kernel.
    type Kernel = fn(&Sgd, &mut [f64], &mut [f64], &[(u32, u32, f64)]);

    /// The `d = 8` kernel twins this host can run, by name.
    fn kernel_twins() -> Vec<(&'static str, Kernel)> {
        let mut twins: Vec<(_, Kernel)> = vec![("portable", Sgd::run_portable::<8>)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            twins.push(("avx2", |sgd, w, l, order| unsafe {
                sgd.run_avx2::<8>(w, l, order)
            }));
        }
        twins
    }

    #[test]
    fn level_schedule_fits_the_same_factors_bit_for_bit() {
        let twins = kernel_twins();
        let names: Vec<&str> = twins.iter().map(|&(name, _)| name).collect();
        println!("pmf d = 8 kernel twins compared against reference_fit: {names:?}");
        if names.len() == 1 {
            println!("pmf: this host lacks AVX2, so the avx2 twin was skipped");
        }
        let mut rng = SmallRng::seed_from_u64(0x1E7E1);
        for case in 0..240 {
            let (n, m) = match case % 8 {
                0 => (1, rng.random_range(1..12usize)),
                1 => (rng.random_range(1..12usize), 1),
                _ => (rng.random_range(1..16usize), rng.random_range(1..16usize)),
            };
            let mut obs = SparseObservations::default();
            if case % 12 != 0 {
                // Worker-major, like `observed_matrix`, then padded with
                // duplicate cells that repeat a pair with a new value.
                for i in 0..n {
                    for j in 0..m {
                        if rng.random_bool(0.4) {
                            obs.push(i as u32, j as u32, rng.random_range(0.0..3.0));
                        }
                    }
                }
                for _ in 0..rng.random_range(0..8usize) {
                    let (i, j) = (rng.random_range(0..n as u32), rng.random_range(0..m as u32));
                    obs.push(i, j, rng.random_range(0.0..3.0));
                }
                if case % 2 == 1 {
                    for k in (1..obs.entries.len()).rev() {
                        obs.entries.swap(k, rng.random_range(0..=k));
                    }
                }
            }
            let params = PmfParams {
                dims: [1, 2, 3, 8, 13, 16][case % 6],
                epochs: rng.random_range(1..25),
                learning_rate: rng.random_range(0.005..0.08),
                seed: case as u64,
                ..PmfParams::default()
            };
            let reference = factor_bits(&reference_fit(&obs, n, m, &params));
            assert_eq!(
                factor_bits(&PmfModel::fit(&obs, n, m, &params)),
                reference,
                "case {case}: {n}x{m}, {} cells, {params:?}",
                obs.len()
            );
            // Every case again at d = 8, once per twin.
            let params = PmfParams { dims: 8, ..params };
            let reference = factor_bits(&reference_fit(&obs, n, m, &params));
            for &(name, run8) in &twins {
                assert_eq!(
                    factor_bits(&PmfModel::fit_with(&obs, n, m, &params, run8)),
                    reference,
                    "{name} twin, case {case}: {n}x{m}, {} cells, {params:?}",
                    obs.len()
                );
            }
        }
    }

    #[test]
    fn reconstructs_low_rank_structure() {
        let (_, train, test) = synthetic(40, 50, 0.3, 3);
        let model = PmfModel::fit(&train, 40, 50, &PmfParams::default());
        let train_rmse = model.rmse(&train);
        let test_rmse = model.rmse(&test);
        assert!(train_rmse < 0.15, "train RMSE {train_rmse}");
        assert!(test_rmse < 0.2, "held-out RMSE {test_rmse}");
    }

    #[test]
    fn beats_zero_baseline_on_held_out() {
        let (_, train, test) = synthetic(30, 40, 0.25, 9);
        let model = PmfModel::fit(&train, 30, 40, &PmfParams::default());
        let zero_rmse = {
            let se: f64 = test.entries.iter().map(|&(_, _, v)| v * v).sum();
            (se / test.len() as f64).sqrt()
        };
        assert!(model.rmse(&test) < zero_rmse);
    }

    #[test]
    fn densify_preserves_observations() {
        let (_, train, _) = synthetic(10, 12, 0.4, 1);
        let model = PmfModel::fit(&train, 10, 12, &PmfParams::default());
        let dense = model.densify(&train);
        for &(i, j, v) in &train.entries {
            assert_eq!(dense.get(i as usize, j as usize), v);
        }
        assert_eq!(dense.rows(), 10);
        assert_eq!(dense.cols(), 12);
    }

    #[test]
    fn predictions_are_nonnegative() {
        let (_, train, _) = synthetic(15, 15, 0.3, 5);
        let model = PmfModel::fit(&train, 15, 15, &PmfParams::default());
        for i in 0..15 {
            for j in 0..15 {
                assert!(model.predict(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, train, _) = synthetic(12, 12, 0.4, 2);
        let a = PmfModel::fit(&train, 12, 12, &PmfParams::default());
        let b = PmfModel::fit(&train, 12, 12, &PmfParams::default());
        for i in 0..12 {
            for j in 0..12 {
                assert_eq!(a.predict(i, j), b.predict(i, j));
            }
        }
    }

    #[test]
    fn empty_observations_yield_zero_predictions() {
        let model = PmfModel::fit(&SparseObservations::default(), 5, 5, &PmfParams::default());
        // With no data the mean offset is 0 and the factors stay near
        // their tiny random init; the clamped predictions are ~0.
        for i in 0..5 {
            for j in 0..5 {
                assert!(model.predict(i, j) < 0.05);
            }
        }
        assert_eq!(model.rmse(&SparseObservations::default()), 0.0);
    }

    #[test]
    fn more_dims_do_not_hurt_much() {
        let (_, train, test) = synthetic(30, 30, 0.35, 11);
        let small = PmfModel::fit(
            &train,
            30,
            30,
            &PmfParams {
                dims: 2,
                ..PmfParams::default()
            },
        );
        let big = PmfModel::fit(
            &train,
            30,
            30,
            &PmfParams {
                dims: 16,
                ..PmfParams::default()
            },
        );
        // Regularisation keeps the larger model competitive (within 2x).
        assert!(big.rmse(&test) <= small.rmse(&test) * 2.0 + 0.05);
    }
}
