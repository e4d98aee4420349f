//! A fixed reference computation that tracks how fast the machine runs
//! right now.
//!
//! On a machine shared with other tenants, a core's speed moves by tens
//! of percent over tens of seconds, and every wall-clock figure moves
//! with it. The benchmark times this kernel right before and right after
//! each timed region and scales the region's wall time to a core on which
//! the kernel takes [`NOMINAL`]. The kernel is the benchmark's own code —
//! schoolbook products of 2048-bit numbers in 64-bit limbs, the shape of
//! the program's bignum work — so no change to the program moves it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the speed every scaled figure is reported at.
pub const NOMINAL: Duration = Duration::from_millis(2);

const LIMBS: usize = 32;
const PRODUCTS: usize = 2000;

/// Runs the kernel once and returns its wall time.
pub fn time() -> Duration {
    let start = Instant::now();
    let mut a = [0u64; LIMBS];
    let mut b = [0u64; LIMBS];
    for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
        *x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
        *y = 0xD1B5_4A32_D192_ED03u64.wrapping_mul(i as u64 + 7);
    }
    let mut acc = [0u64; 2 * LIMBS];
    for _ in 0..PRODUCTS {
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let v = u128::from(x) * u128::from(y) + u128::from(acc[i + j]) + carry;
                acc[i + j] = v as u64;
                carry = v >> 64;
            }
            acc[i + LIMBS] = carry as u64;
        }
        // Feed the product back so no iteration can be skipped.
        a[0] ^= acc[LIMBS / 2];
    }
    black_box(acc);
    start.elapsed()
}

/// The factor that scales a wall time measured between two kernel runs
/// taking `before` and `after` to the nominal speed.
pub fn scale(before: Duration, after: Duration) -> f64 {
    2.0 * NOMINAL.as_secs_f64() / (before + after).as_secs_f64()
}
