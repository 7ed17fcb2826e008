//! Small statistics helpers shared by the workloads.

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, one outlier moves it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (0 < q <= 1) among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least a `q` share of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Number of samples strictly above the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// Whether `n` samples support percentile `q` ([`MIN_BEYOND`] beyond it).
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Index of the median element of an odd-length list (lower middle for
/// even lengths): lets a caller report the per-layer split of the same
/// repetition whose total was the median.
pub fn median_index(values: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    idx[(values.len().max(1) - 1) / 2]
}

/// Harmonic mean of rates. When every rate was measured over the same
/// amount of work W, this equals total work over total time:
/// `n / Σ(t_i / W) = n·W / Σ t_i`.
pub fn harmonic_mean(rates: &[f64]) -> f64 {
    if rates.is_empty() || rates.iter().any(|&r| r <= 0.0) {
        return 0.0;
    }
    rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// Median over consecutive windows of each window's percentile `q`.
/// `samples` are `(position, value)` pairs with positions in `0..n`;
/// window `w` of `windows` holds positions `w·n/windows..(w+1)·n/windows`.
/// A stretch of slow samples that spans fewer than half of the windows
/// does not move the result.
pub fn windowed_percentile(samples: &[(usize, f64)], n: usize, windows: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let span = w * n / windows..(w + 1) * n / windows;
            let mut v: Vec<f64> = samples
                .iter()
                .filter(|(i, _)| span.contains(i))
                .map(|&(_, x)| x)
                .collect();
            v.sort_by(f64::total_cmp);
            percentile(&v, q)
        })
        .collect();
    median(&per_window)
}

/// Nearest-rank percentile `q` of `(value, weight)` pairs: the smallest
/// value whose pairs, with all smaller ones, carry at least a `q` share of
/// the total weight.
pub fn weighted_percentile(pairs: &[(f64, f64)], q: f64) -> f64 {
    let mut v = pairs.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = v.iter().map(|p| p.1).sum();
    let mut below = 0.0;
    for &(value, weight) in &v {
        below += weight;
        if below >= q * total {
            return value;
        }
    }
    v.last().map_or(0.0, |p| p.0)
}
