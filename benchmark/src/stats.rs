//! Order statistics over the samples one run collects.
//!
//! A timed phase is cut into [`SLICES`] slices, interleaved in time with
//! the slices of the run's other phases. Each slice yields one value (the
//! median or p99 of its op latencies, its ops per second), and the metric
//! is the **median of the slice values** ([`Measure::of`]).
//!
//! The host this was sized on runs in moods: the same code takes 1.2 – 1.9x
//! longer at some moments than at others, for anything from a fraction of
//! a second to minutes, from outside the guest. An extreme of the slices
//! (the best one, the usual rule for timing under interference) reads
//! whichever mood showed up in at least one slice, so runs that catch a
//! short fast spell and runs that do not differ by the whole gap between
//! the moods: 12 – 19 % between identical runs where the median of the same
//! slices moved 2 – 7 %. The median reads the mood the run mostly had. It
//! flips only when a run is split about evenly, and a longer run (more of
//! the host's mix in every run) is the remedy for that.
//!
//! The spread printed next to a value is the interquartile range of the
//! same slice values, computed the way Python's
//! `statistics.quantiles(values, n=4)` does, so the within-run spread and
//! the driver's run-to-run spread read on one scale.

/// How many slices a timed phase is cut into.
pub const SLICES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method (`(n + 1) * q`
/// positions, linear interpolation, clamped to the data range).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: f64| {
        let pos = (n as f64 + 1.0) * q;
        let lower = (pos.floor() as usize).clamp(1, n);
        let upper = (lower + 1).min(n);
        let frac = (pos - lower as f64).clamp(0.0, 1.0);
        sorted[lower - 1] + (sorted[upper - 1] - sorted[lower - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Interquartile range of `values`.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// The `p`-quantile (nearest rank) of an already sorted slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One reported number: its value, within-run spread and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measure {
    /// The reported value (a median unless the metric is an exact count).
    pub value: f64,
    /// IQR of the values the median was taken over (0 for exact counts).
    pub spread: f64,
    /// How many samples the value rests on.
    pub n: u64,
}

impl Measure {
    /// An exact count or ratio: no spread.
    pub fn exact(value: f64, n: u64) -> Self {
        Measure {
            value,
            spread: 0.0,
            n,
        }
    }

    /// Median and IQR of `values`.
    pub fn of(values: &[f64]) -> Self {
        Measure {
            value: median(values),
            spread: iqr(values),
            n: values.len() as u64,
        }
    }

    /// Median and IQR of `values`, each multiplied by `scale` (unit
    /// conversion).
    pub fn scaled(values: &[f64], scale: f64) -> Self {
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        Self::of(&scaled)
    }
}

/// Per-op latencies of one timed phase plus the wall time of each slice.
#[derive(Debug, Clone, Default)]
pub struct PhaseSamples {
    /// Latency of every completed op, in nanoseconds, in completion order.
    pub latencies_ns: Vec<f64>,
    /// `(ops completed, wall nanoseconds)` for each of the [`SLICES`] slices.
    pub slices: Vec<(u64, f64)>,
}

impl PhaseSamples {
    /// Adds the slices (and their latencies) of `more` after this one's.
    pub fn append(&mut self, mut more: PhaseSamples) {
        self.latencies_ns.append(&mut more.latencies_ns);
        self.slices.append(&mut more.slices);
    }

    /// Ops per second: the median slice.
    pub fn rate_per_s(&self) -> Measure {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .filter(|(_, ns)| *ns > 0.0)
            .map(|(ops, ns)| *ops as f64 / (ns / 1e9))
            .collect();
        let mut m = Measure::of(&rates);
        m.n = self.latencies_ns.len() as u64;
        m
    }

    /// Op latencies of each slice, in slice order.
    fn slice_latencies(&self) -> Vec<&[f64]> {
        let mut out = Vec::with_capacity(self.slices.len());
        let mut start = 0usize;
        for (ops, _) in &self.slices {
            let end = (start + *ops as usize).min(self.latencies_ns.len());
            if end > start {
                out.push(&self.latencies_ns[start..end]);
            }
            start = end;
        }
        out
    }

    /// Median op latency in `unit_ns`-sized units: each slice yields its
    /// own median, the reported value is the median of those.
    pub fn latency_p50(&self, unit_ns: f64) -> Measure {
        let per_slice: Vec<f64> = self
            .slice_latencies()
            .iter()
            .map(|chunk| median(chunk) / unit_ns)
            .collect();
        let mut m = Measure::of(&per_slice);
        m.n = self.latencies_ns.len() as u64;
        m
    }

    /// The p99 of op latency in `unit_ns`-sized units: each slice yields
    /// its own p99, the reported value is the median of those. A tail
    /// indicator, not a bounded metric: about 1.5 % of ops on this host are
    /// delayed by a third of a median or more, so the 99th percentile sits
    /// on the knee between the body and those and moved 10 – 25 % between
    /// identical runs under every estimator tried (see the README).
    pub fn latency_p99(&self, unit_ns: f64) -> Measure {
        let per_slice: Vec<f64> = self
            .slice_latencies()
            .iter()
            .map(|chunk| {
                let mut sorted = chunk.to_vec();
                sorted.sort_by(f64::total_cmp);
                quantile_sorted(&sorted, 0.99) / unit_ns
            })
            .collect();
        let mut m = Measure::of(&per_slice);
        m.n = self.latencies_ns.len() as u64;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
    }

    #[test]
    fn slice_values_are_reduced_by_their_median() {
        let samples = PhaseSamples {
            latencies_ns: vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 100.0, 200.0, 300.0],
            slices: vec![(3, 1e9), (3, 2e9), (3, 3e9)],
        };
        // Per-slice medians 2, 20, 200.
        assert_eq!(samples.latency_p50(1.0).value, 20.0);
        // Per-slice p99s 3, 30, 300.
        assert_eq!(samples.latency_p99(1.0).value, 30.0);
        // Per-slice rates 3, 1.5, 1.
        assert_eq!(samples.rate_per_s().value, 1.5);
        assert_eq!(samples.rate_per_s().n, 9);
    }
}
