//! Sample arithmetic: percentiles that refuse thin tails, block
//! medians, quartile spread, and the status-blocked ratio.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Blocks a run's samples are cut into for block medians.
pub const BLOCKS: usize = 5;

/// The `p`-th percentile (0–100) of an ascending slice, nearest rank.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest whole percentile, at most `wanted`, that leaves at
/// least [`TAIL_MIN_BEYOND`] samples beyond it; `None` when even the
/// median cannot.
pub fn tail_percentile(n: usize, wanted: u32) -> Option<u32> {
    (50..=wanted)
        .rev()
        .find(|p| n - ((f64::from(*p) / 100.0) * n as f64).ceil() as usize >= TAIL_MIN_BEYOND)
}

/// A tail latency with the percentile it was actually read at.
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
}

/// The p90 of `values`, or the highest lower percentile the sample
/// count supports, or the median when nothing does.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let percentile = tail_percentile(v.len(), 90).unwrap_or(50);
    Tail {
        percentile,
        value: percentile_sorted(&v, f64::from(percentile)),
    }
}

/// Quartiles by the exclusive method `statistics.quantiles(v, n=4)`
/// uses, so the harness and the driver agree on what "spread" means.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need two samples");
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Distance between the first and the third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    q3 - q1
}

/// The typical value of a per-op reading when ops rotate over `sets`
/// distinct inputs (op `n` runs input `n % sets`): the median of each
/// input's readings, averaged over the inputs. A plain median over a
/// rotation lands on whichever input happens to sit in the middle,
/// and moves when the op count does.
pub fn rotation_median(readings: &[(u64, f64)], sets: usize) -> f64 {
    let medians: Vec<f64> = (0..sets as u64)
        .map(|set| {
            readings
                .iter()
                .filter(|(n, _)| n % sets as u64 == set)
                .map(|(_, v)| *v)
                .collect::<Vec<_>>()
        })
        .filter(|of_set| !of_set.is_empty())
        .map(|of_set| median(&of_set))
        .collect();
    assert!(!medians.is_empty(), "rotation median of no reading");
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Share of `wall` seconds during which a status request was waiting
/// for its response.
pub fn blocked_ratio(status_latencies: &[f64], wall: f64) -> f64 {
    status_latencies.iter().sum::<f64>() / wall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_always_leaves_ten_beyond() {
        for n in 0..400usize {
            match tail_percentile(n, 90) {
                Some(p) => {
                    let rank = ((f64::from(p) / 100.0) * n as f64).ceil() as usize;
                    assert!(n - rank >= TAIL_MIN_BEYOND, "n={n} p={p}");
                    assert!((50..=90).contains(&p));
                }
                None => assert!(n < 2 * TAIL_MIN_BEYOND, "n={n} could carry a median"),
            }
        }
        assert_eq!(tail_percentile(100, 90), Some(90));
        assert_eq!(tail_percentile(99, 90), Some(89));
        assert_eq!(tail_percentile(20, 90), Some(50));
    }

    #[test]
    fn tail_reads_the_percentile_it_names() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 180.0);
        let thin = tail(&values[..30]);
        assert_eq!(thin.percentile, 66);
        assert_eq!(thin.value, 20.0);
    }

    #[test]
    fn block_median_and_iqr() {
        // Five block medians, as `end_to_end` reduces them.
        let blocks = [2.0, 14.0, 8.0, 5.0, 11.0];
        assert_eq!(median(&blocks), 8.0);
        // Exclusive quartiles of [2,5,8,11,14]: 3.5 and 12.5.
        assert_eq!(iqr(&blocks), 9.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert_eq!((q1, q2, q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn rotation_median_weighs_every_input_once() {
        // Input 0 reads 1, input 1 reads 10, input 2 reads 100, and
        // the run stopped one op into the third round.
        let readings: Vec<(u64, f64)> = (0..7)
            .map(|n| (n, [1.0, 10.0, 100.0][(n % 3) as usize]))
            .collect();
        assert_eq!(rotation_median(&readings, 3), 37.0);
        let plain: Vec<f64> = readings.iter().map(|(_, v)| *v).collect();
        assert_eq!(rotation_median(&readings, 1), median(&plain));
        // An input the run never reached is left out, not read as 0.
        assert_eq!(rotation_median(&readings[..2], 3), 5.5);
    }

    #[test]
    fn blocked_ratio_on_a_synthetic_timeline() {
        // Ten seconds of wall; three status calls stuck 2 s, 3 s, 4 s.
        assert_eq!(blocked_ratio(&[2.0, 3.0, 4.0], 10.0), 0.9);
        assert_eq!(blocked_ratio(&[], 10.0), 0.0);
    }
}
