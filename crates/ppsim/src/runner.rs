//! Multi-trial experiment runner.
//!
//! The paper's statements are about expectations and high-probability bounds,
//! so every experiment runs many independent trials. [`run_trials`] distributes
//! trials over threads with `std::thread::scope`; each trial receives its own
//! derived seed so results are reproducible and independent of the thread
//! schedule.

/// A plan for a batch of independent trials.
///
/// # Example
///
/// ```
/// use ppsim::{run_trials, TrialPlan};
/// let plan = TrialPlan::new(8, 42);
/// let results = run_trials(&plan, |trial, seed| (trial, seed % 2));
/// assert_eq!(results.len(), 8);
/// // Results arrive in trial order regardless of thread interleaving.
/// assert!(results.windows(2).all(|w| w[0].0 + 1 == w[1].0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrialPlan {
    /// Number of independent trials to run.
    pub trials: usize,
    /// Base seed from which each trial's seed is derived.
    pub base_seed: u64,
    /// Number of worker threads; `0` means "use available parallelism".
    pub threads: usize,
}

impl TrialPlan {
    /// Creates a plan using all available parallelism.
    pub fn new(trials: usize, base_seed: u64) -> Self {
        TrialPlan { trials, base_seed, threads: 0 }
    }

    /// Restricts the plan to a fixed number of threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The seed for a given trial index, derived with a SplitMix64-style mix
    /// so nearby trial indices yield unrelated streams.
    pub fn seed_for(&self, trial: usize) -> u64 {
        splitmix64(self.base_seed ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `plan.trials` independent trials of `f` across threads, returning
/// results in trial order.
///
/// `f` receives the trial index and the trial's derived seed. Because seeds
/// are derived from the plan rather than the thread schedule, results are
/// reproducible.
pub fn run_trials<T, F>(plan: &TrialPlan, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = plan.effective_threads().max(1).min(plan.trials.max(1));
    if threads <= 1 || plan.trials <= 1 {
        return (0..plan.trials).map(|i| f(i, plan.seed_for(i))).collect();
    }

    let mut results: Vec<Option<T>> = (0..plan.trials).map(|_| None).collect();
    let chunk = plan.trials.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::new();
        for (worker, slots) in results.chunks_mut(chunk).enumerate() {
            let start = worker * chunk;
            handles.push(scope.spawn(move || {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    let trial = start + offset;
                    *slot = Some(f(trial, plan.seed_for(trial)));
                }
            }));
        }
        for handle in handles {
            handle.join().expect("trial worker panicked");
        }
    });
    results.into_iter().map(|r| r.expect("every trial slot is filled")).collect()
}

/// Runs trials sequentially on the current thread; useful for closures that
/// are not `Sync` or for deterministic debugging.
pub fn run_trials_sequential<T>(
    trials: usize,
    base_seed: u64,
    mut f: impl FnMut(usize, u64) -> T,
) -> Vec<T> {
    let plan = TrialPlan::new(trials, base_seed);
    (0..trials).map(|i| f(i, plan.seed_for(i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seeds_are_distinct_and_reproducible() {
        let plan = TrialPlan::new(100, 7);
        let seeds: Vec<u64> = (0..100).map(|i| plan.seed_for(i)).collect();
        let unique: HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), 100);
        let plan2 = TrialPlan::new(100, 7);
        assert_eq!(seeds, (0..100).map(|i| plan2.seed_for(i)).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        let plan = TrialPlan::new(37, 99).with_threads(4);
        let parallel = run_trials(&plan, |i, seed| (i, seed.wrapping_mul(3)));
        let sequential = run_trials_sequential(37, 99, |i, seed| (i, seed.wrapping_mul(3)));
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn single_thread_plan_runs_inline() {
        let plan = TrialPlan::new(5, 1).with_threads(1);
        let results = run_trials(&plan, |i, _| i * i);
        assert_eq!(results, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn zero_trials_is_empty() {
        let plan = TrialPlan::new(0, 1);
        let results: Vec<u64> = run_trials(&plan, |_, seed| seed);
        assert!(results.is_empty());
    }

    #[test]
    fn results_preserve_trial_order_under_many_threads() {
        let plan = TrialPlan::new(64, 5).with_threads(8);
        let results = run_trials(&plan, |i, _| i);
        assert_eq!(results, (0..64).collect::<Vec<_>>());
    }
}
