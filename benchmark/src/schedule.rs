//! Seeded inputs that are not scenes: sub-seeds and the open-loop arrival
//! schedule. Everything draws from the
//! program's own xoshiro generator (`splat_types::rng`), so one `--seed`
//! reproduces every input.

use crate::layers::Rng;

/// Independent sub-seeds derived from `--seed`, in a fixed order.
pub struct Seeds {
    rng: Rng,
}

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// The next sub-seed.
    pub fn next_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// The next draw as a number in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        self.rng.gen_f32()
    }
}

/// Due instants, in seconds from the start of the run, of `count` requests
/// arriving as a Poisson process of `rate` per second over `count / rate`
/// seconds. Given their number, the arrivals of a Poisson process are
/// independent uniform points on the interval, so the schedule draws
/// exactly that: every seed offers the same load over the same span, and
/// only the clumping differs.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let span = count as f64 / rate;
    let mut due: Vec<f64> = (0..count).map(|_| rng.range_f64(0.0, span)).collect();
    due.sort_by(f64::total_cmp);
    due
}
