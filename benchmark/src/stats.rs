//! Order statistics, the quartile rule the acceptance check uses, and the
//! FNV-1a digest every workload folds its simulated statistics into.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the acceptance check applies to ten runs.
/// `None` below two values (Python raises there).
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can push `j` past `i*m/4` for tiny samples,
        // and Python extrapolates there rather than clamping the weight.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// A nearest-rank percentile together with the evidence for trusting it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the chosen rank. Fewer than ten means the
    /// percentile is not supported by the sample (it reads as the
    /// maximum, or close to it).
    pub beyond: usize,
}

impl Percentile {
    /// The ≥ 10-beyond rule: is this percentile supported by its sample?
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`: the value at rank
/// `ceil(p/100 · n)`. `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// What a piece of identical, repeated work costs on a quiet host: the
/// fastest of its timings. The work is deterministic, so its timings
/// differ by host noise only, and host noise (a neighbour in the shared
/// cache) only ever adds time — on the reference box up to 2x, in
/// stretches of seconds to a minute. The README's "Why minima" has the
/// measurements against the median and the lower quartile. `None` when
/// empty.
pub fn quiet(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// FNV-1a 64-bit accumulator: the `sim_digest` of a workload folds every
/// simulated statistic through one of these, so two commits can be told
/// apart as "faster" versus "different".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Floats fold by bit pattern: any drift in a simulated statistic
    /// changes the digest.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some((15.0, 40.0, 120.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentile_and_the_ten_beyond_rule() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!((p99.samples, p99.beyond), (1000, 10));
        assert!(p99.supported(), "1000 samples leave exactly 10 beyond p99");
        // One sample fewer and the rule refuses p99.
        let p99 = percentile(&xs[..999], 99.0).unwrap();
        assert_eq!(p99.beyond, 9);
        assert!(!p99.supported());
        // p50 of an even count is the lower middle (nearest rank, no
        // interpolation); p100 is the maximum with nothing beyond.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0).unwrap().value, 2.0);
        let p100 = percentile(&xs, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (1000.0, 0));
        // A handful of passes: "p99" is the slowest pass and says so.
        let few = percentile(&[1.0, 2.0, 3.0], 99.0).unwrap();
        assert_eq!((few.value, few.beyond), (3.0, 0));
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn quiet_is_the_fastest_timing() {
        assert_eq!(quiet(&[]), None);
        assert_eq!(quiet(&[7.0]), Some(7.0));
        assert_eq!(quiet(&[4.0, 1.5, 3.0, 2.0]), Some(1.5));
        // Slow outliers do not move it.
        assert_eq!(quiet(&[1.0, 50.0, 60.0, 70.0, 80.0]), Some(1.0));
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.0, 0x8594_4171_f739_67e8);
        let mut a = Digest::default();
        a.f64(1.5);
        let mut b = Digest::default();
        b.f64(1.5000000000000002);
        assert_ne!(a, b, "one ulp of drift changes the digest");
    }
}
