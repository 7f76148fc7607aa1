//! Order statistics for the timing, span and admission reports.

/// The first quartile, median and third quartile of `values`, computed
/// exactly as Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so the spreads printed here match the ones a
/// reader recomputes from the printed samples. `None` for no samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let m = ld as i64 + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k as i64 + 1;
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// The median of `values` (`None` for no samples).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

/// The timed passes the host left alone, as indices in pass order: those
/// whose host steal (ms, summed over the machine's CPUs) stayed within
/// `share` of the pass's wall time. When fewer than `min` did, the `min`
/// passes with the least steal instead (all of them when there are fewer).
pub fn undisturbed(walls_s: &[f64], steals_ms: &[u64], share: f64, min: usize) -> Vec<usize> {
    let calm: Vec<usize> =
        (0..walls_s.len()).filter(|&i| steals_ms[i] as f64 <= share * walls_s[i] * 1e3).collect();
    if calm.len() >= min {
        return calm;
    }
    let mut least: Vec<usize> = (0..walls_s.len()).collect();
    least.sort_by_key(|&i| steals_ms[i]);
    least.truncate(min);
    least.sort_unstable();
    least
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of ascending `sorted`
/// samples; `None` when there are none.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64) * q).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile, at most `q_max`, that still has at
/// least `beyond` samples above its rank, as `(percentile in %, value)`.
/// With 1000 samples or more this is p99 itself; with fewer it falls back
/// (p90 at 100 samples), and with `beyond` samples or fewer there is no
/// such percentile.
pub fn tail_percentile(sorted: &[u64], q_max: f64, beyond: usize) -> Option<(f64, u64)> {
    let n = sorted.len();
    let wanted = ((n as f64) * q_max).ceil() as usize;
    let rank = wanted.min(n.checked_sub(beyond)?);
    if rank == 0 {
        return None;
    }
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// The p99 admission wait in ticks over all `syncs`: `waits` holds one
/// entry per deferred sync and every other sync waited zero ticks, so the
/// population is zero-padded to `syncs` before ranking.
pub fn p99_wait(waits: &[u64], syncs: usize) -> u64 {
    let total = syncs.max(waits.len());
    if total == 0 {
        return 0;
    }
    let mut sorted = waits.to_vec();
    sorted.sort_unstable();
    let rank = ((total as f64) * 0.99).ceil() as usize;
    let zeros = total - sorted.len();
    if rank <= zeros {
        0
    } else {
        sorted[rank - zeros - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // Two samples clamp j and extrapolate: quantiles([1, 2]) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn undisturbed_drops_passes_the_host_stole_from() {
        let walls = [2.0, 2.0, 2.0, 2.0, 2.0];
        // 2% of a 2 s pass is 40 ms: passes 1 and 3 are dropped.
        assert_eq!(undisturbed(&walls, &[0, 50, 40, 900, 10], 0.02, 3), vec![0, 2, 4]);
        // Too few calm passes: the three with the least steal, in order.
        assert_eq!(undisturbed(&walls, &[300, 50, 70, 900, 60], 0.02, 3), vec![1, 2, 4]);
        assert_eq!(undisturbed(&walls[..2], &[300, 50], 0.02, 3), vec![0, 1]);
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&[4], 0.5), Some(4));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 2000 samples: p99 (rank 1980) has 20 beyond, so p99 it is.
        let big: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail_percentile(&big, 0.99, TAIL_BEYOND), Some((99.0, 1980)));
        // Exactly 1000: rank 990 leaves 10 beyond.
        let k: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&k, 0.99, TAIL_BEYOND), Some((99.0, 990)));
        // 100 samples: p99 would leave 1 beyond; fall back to rank 90 = p90.
        let small: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_percentile(&small, 0.99, TAIL_BEYOND), Some((90.0, 90)));
        // 11 samples: rank 1 only.
        let tiny: Vec<u64> = (1..=11).collect();
        let (pct, value) = tail_percentile(&tiny, 0.99, TAIL_BEYOND).unwrap();
        assert_eq!(value, 1);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        // Ten or fewer samples: nothing has ten beyond it.
        assert_eq!(tail_percentile(&tiny[..10], 0.99, TAIL_BEYOND), None);
        assert_eq!(tail_percentile(&[], 0.99, TAIL_BEYOND), None);
    }

    #[test]
    fn p99_wait_is_zero_padded_over_all_syncs() {
        // 100 syncs, 1 deferred: rank 99 lands on a zero.
        assert_eq!(p99_wait(&[7], 100), 0);
        // 100 syncs, 2 deferred: rank 99 is the smaller deferred wait.
        assert_eq!(p99_wait(&[9, 4], 100), 4);
        // Everyone deferred: plain nearest-rank p99.
        let all: Vec<u64> = (1..=100).collect();
        assert_eq!(p99_wait(&all, 100), 99);
        // More deferrals than syncs recorded (horizon residue): the
        // population is the larger of the two.
        assert_eq!(p99_wait(&[3, 5], 1), 5);
        assert_eq!(p99_wait(&[], 0), 0);
        assert_eq!(p99_wait(&[], 50), 0);
    }
}
