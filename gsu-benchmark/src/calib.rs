//! Machine-speed calibration.
//!
//! The reference box is a VM whose host speed drifts by up to 1.8× over
//! minutes: the same catalog pass measured 406 ms and 746 ms a few minutes
//! apart, with no CPU time stolen and the process on-CPU throughout. A
//! fixed kernel timed right before and after each pass slows down with it,
//! so batch passes (and set-ups) are reported at a fixed reference speed:
//! time × [`REFERENCE_MS`] / mean of the two kernel times around it. Over ten
//! catalog runs that took the spread of the median pass from 11% to 2%,
//! and of the p75 from 26% to 4%. The kernel is this file's own code, so a
//! change to the repository never changes it.
//!
//! Request latency on a mostly idle server does not follow the busy-core
//! speed the kernel measures (its kernel times swung 1.1–2.0 ms while the
//! median latency held within 10%), so serve workloads report raw times
//! and only record the kernel time for context.

/// Kernel time that defines the reference speed, in ms: about what the
/// kernel takes on the reference box when its host is quiet.
pub const REFERENCE_MS: f64 = 1.25;

/// One timed run of the calibration kernel, in ms: 200 chained products of
/// 24×24 dense matrices, the size of the paper's models.
pub fn kernel_ms() -> f64 {
    const N: usize = 24;
    const ROUNDS: usize = 200;
    let a: Vec<f64> = (0..N * N).map(|i| (i * 7 % 13) as f64 * 0.01).collect();
    let mut b = a.clone();
    let mut c = vec![0.0; N * N];
    let start = std::time::Instant::now();
    for _ in 0..ROUNDS {
        c.fill(0.0);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        // Rescale so the chain neither overflows nor underflows.
        let norm = c
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        for (bv, cv) in b.iter_mut().zip(&c) {
            *bv = cv / norm;
        }
        std::hint::black_box(&mut b);
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the kernel `n` times after warming the core up: an idle core runs
/// its first milliseconds of work slowly.
pub fn sample(n: usize) -> Vec<f64> {
    for _ in 0..20 {
        kernel_ms();
    }
    (0..n).map(|_| kernel_ms()).collect()
}

/// Scales each of `times_ms`, measured between kernel runs `kernel_ms[i]`
/// and `kernel_ms[i + 1]`, to the reference speed.
pub fn at_reference(times_ms: &[f64], kernel_ms: &[f64]) -> Vec<f64> {
    times_ms
        .iter()
        .zip(kernel_ms.windows(2))
        .map(|(t, k)| t * 2.0 * REFERENCE_MS / (k[0] + k[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_time_is_positive_and_scales_raw_times() {
        let ms = kernel_ms();
        assert!(ms > 0.0 && ms.is_finite());
        let slow = 2.0 * REFERENCE_MS;
        // Each time is scaled by the kernel runs on either side of it.
        let scaled = at_reference(&[10.0, 30.0], &[REFERENCE_MS, slow, 2.0 * slow]);
        assert_eq!(scaled.len(), 2);
        assert!((scaled[0] - 10.0 / 1.5).abs() < 1e-12);
        assert!((scaled[1] - 30.0 / 3.0).abs() < 1e-12);
    }
}
