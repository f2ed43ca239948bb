//! Property-based tests for the NN stack: gradient correctness on random
//! networks and invariants of the numeric ops.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlleg_nn::{ops, optim::clip_global_norm, Matrix, Mlp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-20.0f32..20.0, 1..32)) {
        let p = ops::softmax(&logits);
        prop_assert_eq!(p.len(), logits.len());
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // argmax preserved
        let am_l = logits.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
        let am_p = p.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
        prop_assert_eq!(am_l, am_p);
    }

    #[test]
    fn entropy_bounded_by_log_n(logits in prop::collection::vec(-5.0f32..5.0, 1..16)) {
        let p = ops::softmax(&logits);
        let h = ops::entropy(&p);
        prop_assert!(h >= -1e-5);
        prop_assert!(h <= (p.len() as f32).ln() + 1e-4);
    }

    #[test]
    fn smooth_l1_nonnegative_and_symmetric(a in -50.0f32..50.0, b in -50.0f32..50.0) {
        prop_assert!(ops::smooth_l1(a, b) >= 0.0);
        prop_assert!((ops::smooth_l1(a, b) - ops::smooth_l1(b, a)).abs() < 1e-5);
        prop_assert!(ops::smooth_l1_grad(a, b).abs() <= 1.0);
    }

    #[test]
    fn clip_never_increases_norm(mut g in prop::collection::vec(-10.0f32..10.0, 1..64), max in 0.01f32..5.0) {
        let pre: f32 = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        let reported = clip_global_norm(&mut g, max);
        prop_assert!((reported - pre).abs() < 1e-3);
        let post: f32 = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(post <= max.max(pre) + 1e-3);
        prop_assert!(post <= max + 1e-3 || pre <= max);
    }

    #[test]
    fn mlp_gradcheck_random_nets(
        seed in 0u64..1000,
        hidden in 2usize..10,
        rows in 1usize..4,
        param_pick in 0usize..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = Mlp::new(&[3, hidden, 1], &mut rng);
        let x = {
            use rand::Rng;
            let data: Vec<f32> = (0..rows * 3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Matrix::from_vec(rows, 3, data)
        };
        let _y = net.forward(&x);
        let ones = Matrix::from_vec(rows, 1, vec![1.0; rows]);
        net.backward(&ones);
        let analytic = net.grads_flat();
        let mut params = net.params_flat();
        let idx = param_pick % params.len();
        let eps = 1e-2f32;
        let loss = |m: &Mlp| m.forward_inference(&x).as_slice().iter().sum::<f32>();
        let base = loss(&net);
        let orig = params[idx];
        params[idx] = orig + eps;
        net.set_params_flat(&params);
        let hi = loss(&net);
        params[idx] = orig - eps;
        net.set_params_flat(&params);
        let lo = loss(&net);
        let num = (hi - lo) / (2.0 * eps);
        // Detect ReLU kinks: when the two one-sided derivatives disagree,
        // the finite difference straddles an activation boundary and no
        // agreement with the (one-sided-correct) analytic gradient can be
        // expected — skip those samples.
        let fwd = (hi - base) / eps;
        let bwd = (base - lo) / eps;
        let kink = (fwd - bwd).abs() > 0.1 * (1.0 + fwd.abs().max(bwd.abs()));
        prop_assume!(!kink);
        prop_assert!(
            (num - analytic[idx]).abs() < 0.05 + 0.1 * num.abs().max(analytic[idx].abs()),
            "idx {}: numeric {} vs analytic {}", idx, num, analytic[idx]
        );
    }

    #[test]
    fn matmul_t_bit_identical_across_kernel_paths(
        m in 1usize..=48,
        n in 1usize..=48,
        k in 0usize..24,
        seed in 0u64..500,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = signed_zero_matrix(&mut rng, m, k);
        let b = signed_zero_matrix(&mut rng, n, k);
        let fast = a.matmul_t(&b);
        let oracle = a.matmul_t_naive(&b);
        for (x, y) in fast.as_slice().iter().zip(oracle.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_bit_identical_across_kernel_paths(
        m in 1usize..=48,
        n in 1usize..=48,
        k in 0usize..24,
        seed in 0u64..500,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = signed_zero_matrix(&mut rng, m, k);
        let b = signed_zero_matrix(&mut rng, k, n);
        let fast = a.matmul(&b);
        let oracle = a.matmul_naive(&b);
        for (x, y) in fast.as_slice().iter().zip(oracle.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn l2_normalize_unit_columns(
        rows in 1usize..20,
        cols in 1usize..8,
        seed in 0u64..500,
    ) {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let orig = data.clone();
        ops::l2_normalize_columns(&mut data, cols);
        for c in 0..cols {
            let pre: f32 = (0..rows).map(|r| orig[r * cols + c].powi(2)).sum::<f32>().sqrt();
            let post: f32 = (0..rows).map(|r| data[r * cols + c].powi(2)).sum::<f32>().sqrt();
            if pre > 1e-3 {
                prop_assert!((post - 1.0).abs() < 1e-3);
            }
        }
    }
}

/// A random `r × c` matrix with exact `+0.0` and `-0.0` mixed in: sums of
/// signed zeros are where the kernels' accumulator identities (`-0.0` for
/// `matmul_t`, `+0.0` for `matmul`) decide the result bits. Widths up to
/// 48 in the tests above cross several 16-column tiles and a shifted tail
/// tile.
fn signed_zero_matrix(rng: &mut ChaCha8Rng, r: usize, c: usize) -> Matrix {
    use rand::Rng;
    let data: Vec<f32> = (0..r * c)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-4.0f32..4.0),
        })
        .collect();
    Matrix::from_vec(r, c, data)
}
