//! The harness's pure logic: percentiles under the sample-count rule, the
//! goodput decision over an arrival-rate ladder, and rate aggregation.
//! Everything here is deterministic in its inputs and unit-tested.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `(0, 1]`), or `None` when
/// the sample is empty. The rank is `ceil(p · n)`, so the value is one
/// actually observed.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median (nearest rank), reported whatever the sample size.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// A tail percentile that is reported only when at least [`MIN_BEYOND`]
/// samples lie beyond it (p95 needs 200 samples, p90 needs 100).
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, p)
}

/// The highest of the usual tail percentiles the sample supports under
/// the [`MIN_BEYOND`] rule, as `(p, value)`.
pub fn highest_supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find_map(|p| tail_percentile(samples, p).map(|v| (p, v)))
}

/// The median over groups of each group's median, for `(group, sample)`
/// pairs: every group weighs the same however often it was sampled.
pub fn median_of_group_medians(samples: &[(usize, f64)]) -> Option<f64> {
    let mut groups: Vec<usize> = samples.iter().map(|(g, _)| *g).collect();
    groups.sort_unstable();
    groups.dedup();
    let medians: Vec<f64> = groups
        .iter()
        .filter_map(|g| {
            let own: Vec<f64> = samples
                .iter()
                .filter(|(h, _)| h == g)
                .map(|(_, v)| *v)
                .collect();
            median(&own)
        })
        .collect();
    median(&medians)
}

/// Arithmetic mean, or `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// What one step of the open-loop arrival-rate ladder saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTally {
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Requests that fell due during the step.
    pub due: u64,
    /// Requests answered successfully within the latency limit of their
    /// due time.
    pub within_limit: u64,
    /// Requests answered successfully but later than the limit.
    pub late: u64,
    /// Requests refused because the in-flight cap was full.
    pub refused: u64,
    /// Requests answered with an error.
    pub failed: u64,
}

/// Share of due requests that must be answered within the limit for a
/// ladder step to pass.
pub const GOODPUT_SHARE: f64 = 0.95;

impl StepTally {
    /// Whether the step met the goal: at least [`GOODPUT_SHARE`] of the
    /// requests due answered within the limit. Refused and failed
    /// requests are never within the limit, so they count as misses.
    pub fn passes(&self) -> bool {
        self.due > 0 && self.within_limit as f64 >= GOODPUT_SHARE * self.due as f64
    }
}

/// The goodput decision: the index of the highest ladder step that passed
/// with every lower step passing too, or `None` when the first step
/// already failed. Steps must be given in increasing rate order.
pub fn goodput_step(steps: &[StepTally]) -> Option<usize> {
    steps
        .iter()
        .take_while(|s| s.passes())
        .count()
        .checked_sub(1)
}

/// The rate of answers within the limit that the service sustains, from
/// ladder steps given with their wall seconds (first due time to last
/// answer, so a backlog drained after the step counts against it): pooled
/// over every step that missed the goal, where offered load exceeded what
/// the service sustains; the top step's rate when every step passed.
pub fn sustained_rate(steps: &[(StepTally, f64)]) -> Option<f64> {
    let overloaded: Vec<&(StepTally, f64)> = steps.iter().filter(|(t, _)| !t.passes()).collect();
    let pool: Vec<&(StepTally, f64)> = if overloaded.is_empty() {
        steps.last().into_iter().collect()
    } else {
        overloaded
    };
    let within: u64 = pool.iter().map(|(t, _)| t.within_limit).sum();
    let wall: f64 = pool.iter().map(|(_, w)| w).sum();
    (wall > 0.0).then(|| within as f64 / wall)
}

/// Work items per second over a set of operations: total items over total
/// busy seconds. A mean of per-operation rates would weight a small
/// document like a large one; this does not.
pub fn items_per_second(ops: &[(u64, f64)]) -> Option<f64> {
    let items: u64 = ops.iter().map(|(n, _)| n).sum();
    let secs: f64 = ops.iter().map(|(_, s)| s).sum();
    if ops.is_empty() || secs <= 0.0 {
        None
    } else {
        Some(items as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order proves the percentile sorts its input.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_returns_observed_values() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.01), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&s, 0.0), None);
    }

    #[test]
    fn median_is_reported_for_any_sample() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&ramp(7)), Some(4.0));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 199 samples: rank ceil(189.05) = 190, 9 beyond -> refused.
        assert_eq!(beyond(199, 0.95), 9);
        assert_eq!(tail_percentile(&ramp(199), 0.95), None);
        // 200 samples: rank 190, exactly 10 beyond -> reported.
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(tail_percentile(&ramp(200), 0.95), Some(190.0));
    }

    #[test]
    fn p90_and_p75_thresholds() {
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(tail_percentile(&ramp(39), 0.75), None);
        assert_eq!(tail_percentile(&ramp(40), 0.75), Some(30.0));
    }

    #[test]
    fn highest_supported_tail_steps_down_with_sample_size() {
        assert_eq!(highest_supported_tail(&ramp(1000)), Some((0.99, 990.0)));
        assert_eq!(highest_supported_tail(&ramp(250)).map(|t| t.0), Some(0.95));
        assert_eq!(highest_supported_tail(&ramp(120)).map(|t| t.0), Some(0.9));
        assert_eq!(highest_supported_tail(&ramp(45)).map(|t| t.0), Some(0.75));
        assert_eq!(highest_supported_tail(&ramp(39)), None);
    }

    #[test]
    fn group_medians_weigh_groups_equally() {
        // Group 0 sampled five times, groups 1 and 2 once each: the plain
        // median would be group 0's value.
        let samples = [
            (0, 1.0),
            (0, 1.0),
            (0, 1.0),
            (0, 1.0),
            (0, 1.0),
            (1, 5.0),
            (2, 9.0),
        ];
        assert_eq!(median(&samples.map(|s| s.1)), Some(1.0));
        assert_eq!(median_of_group_medians(&samples), Some(5.0));
        assert_eq!(median_of_group_medians(&[]), None);
    }

    fn step(rate: f64, due: u64, within: u64, refused: u64, failed: u64) -> StepTally {
        StepTally {
            rate,
            due,
            within_limit: within,
            late: due - within - refused - failed,
            refused,
            failed,
        }
    }

    #[test]
    fn goodput_is_highest_step_with_all_lower_steps_passing() {
        let steps = [
            step(2.0, 20, 20, 0, 0),
            step(4.0, 40, 39, 0, 0),
            step(8.0, 80, 60, 0, 0),
            // Passes, but above a failed step: not reachable.
            step(16.0, 160, 160, 0, 0),
        ];
        assert_eq!(goodput_step(&steps), Some(1));
        assert_eq!(goodput_step(&steps[..1]), Some(0));
        assert_eq!(goodput_step(&[step(2.0, 20, 10, 0, 0)]), None);
        assert_eq!(goodput_step(&[]), None);
    }

    #[test]
    fn refused_and_failed_requests_count_as_misses() {
        // 100 due, 94 answered in time: fails at the 95% line whether the
        // other six were refused, failed or late.
        assert!(!step(8.0, 100, 94, 6, 0).passes());
        assert!(!step(8.0, 100, 94, 0, 6).passes());
        assert!(!step(8.0, 100, 94, 0, 0).passes());
        assert!(step(8.0, 100, 95, 5, 0).passes());
        // A step with nothing due cannot pass.
        assert!(!step(8.0, 0, 0, 0, 0).passes());
    }

    #[test]
    fn sustained_rate_pools_the_overloaded_steps() {
        let steps = [
            (step(8.0, 16, 16, 0, 0), 2.1),
            (step(16.0, 32, 32, 0, 0), 2.2),
            // Overloaded: refusals and the drained backlog hold these near
            // the service's capacity.
            (step(32.0, 64, 30, 34, 0), 2.5),
            (step(64.0, 128, 26, 102, 0), 2.5),
        ];
        let r = sustained_rate(&steps).unwrap();
        assert!((r - 56.0 / 5.0).abs() < 1e-12);
        // Nothing overloaded: the top step's rate.
        let r = sustained_rate(&steps[..2]).unwrap();
        assert!((r - 32.0 / 2.2).abs() < 1e-12);
        assert_eq!(sustained_rate(&[]), None);
        assert_eq!(sustained_rate(&[(step(2.0, 4, 4, 0, 0), 0.0)]), None);
    }

    #[test]
    fn rows_per_second_weights_by_work_not_by_operation() {
        // 1000 rows in 1 s and 9000 rows in 1 s: 5000 rows/s overall.
        assert_eq!(items_per_second(&[(1000, 1.0), (9000, 1.0)]), Some(5000.0));
        // 100 rows in 0.01 s and 10_000 rows in 9.99 s: 10_100 rows over
        // 10 s, not the ~5500 rows/s mean of the two per-document rates.
        let r = items_per_second(&[(100, 0.01), (10_000, 9.99)]).unwrap();
        assert!((r - 1010.0).abs() < 1e-9);
        assert_eq!(items_per_second(&[]), None);
        assert_eq!(items_per_second(&[(5, 0.0)]), None);
    }
}
