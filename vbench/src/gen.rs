//! Seeded input generation and exact ground truth.
//!
//! The generator is the benchmark's own (SplitMix64 + Box–Muller), so the
//! inputs a seed produces do not change when the program under test
//! changes. The program only ever receives the generated vectors, texts
//! and keys.

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.f64() * n as f64) as usize % n.max(1)
    }

    /// Standard normal.
    pub fn normal(&mut self) -> f32 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Row-major vectors with their generating cluster.
pub struct Points {
    pub dim: usize,
    pub data: Vec<f32>,
    pub cluster: Vec<usize>,
}

impl Points {
    pub fn len(&self) -> usize {
        self.cluster.len()
    }

    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Gaussian clusters around centers drawn uniformly from `[0, 10)^dim`
/// (the shape of the repository's standard clustered workload).
pub fn clustered(n: usize, dim: usize, clusters: usize, std: f32, rng: &mut Rng) -> Points {
    let centers: Vec<f32> = (0..clusters * dim)
        .map(|_| rng.f64() as f32 * 10.0)
        .collect();
    let mut data = Vec::with_capacity(n * dim);
    let mut cluster = Vec::with_capacity(n);
    for _ in 0..n {
        let c = rng.below(clusters);
        for j in 0..dim {
            data.push(centers[c * dim + j] + rng.normal() * std);
        }
        cluster.push(c);
    }
    Points { dim, data, cluster }
}

/// Queries: a random row of `points` plus small Gaussian jitter; returns
/// the query vectors and the row each was drawn from.
pub fn queries(points: &Points, n: usize, jitter: f32, rng: &mut Rng) -> Vec<(Vec<f32>, usize)> {
    (0..n)
        .map(|_| {
            let row = rng.below(points.len());
            let q = points
                .row(row)
                .iter()
                .map(|x| x + rng.normal() * jitter)
                .collect();
            (q, row)
        })
        .collect()
}

/// Euclidean distance, computed independently of the program's kernels.
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8 * 8;
    for i in (0..chunks).step_by(8) {
        for j in 0..8 {
            let d = a[i + j] - b[i + j];
            acc[j] += d * d;
        }
    }
    let mut s: f32 = acc.iter().sum();
    for i in chunks..a.len() {
        let d = a[i] - b[i];
        s += d * d;
    }
    s.sqrt()
}

/// Exact top-`k` keys by Euclidean distance among `candidates`
/// (`(key, vector)` pairs), ties broken by key.
pub fn exact_topk<'a>(
    query: &[f32],
    candidates: impl Iterator<Item = (u64, &'a [f32])>,
    k: usize,
) -> Vec<u64> {
    let mut scored: Vec<(f32, u64)> = candidates.map(|(key, v)| (l2(query, v), key)).collect();
    let k = k.min(scored.len());
    if k == 0 {
        return Vec::new();
    }
    scored.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    // A fresh `k`-long vector: collecting from `into_iter` would reuse
    // the allocation of every candidate, and the benchmark keeps one
    // answer per query in memory, which `peak_rss_mb` would count.
    scored.iter().map(|&(_, key)| key).collect()
}

/// Topic keywords, one per cluster of the hybrid corpus; none is a
/// stopword.
pub const KEYWORDS: [&str; 8] = [
    "quantum", "volcano", "saffron", "glacier", "orchid", "falcon", "granite", "monsoon",
];

/// Filler vocabulary shared by every document (stopwords and generic
/// words), so BM25 sees realistic lengths and term-frequency noise.
const FILLER: [&str; 16] = [
    "the", "report", "covers", "annual", "data", "from", "field", "survey", "notes", "on",
    "regional", "samples", "with", "summary", "tables", "appendix",
];

/// One document per point: ten filler words, and with probability 0.45
/// the keyword of the point's cluster at a random position. Returns the
/// texts and, per document, the keyword cluster it mentions.
pub fn keyword_corpus(points: &Points, rng: &mut Rng) -> (Vec<String>, Vec<Option<usize>>) {
    let mut texts = Vec::with_capacity(points.len());
    let mut tagged = Vec::with_capacity(points.len());
    for &c in &points.cluster {
        let mut words: Vec<&str> = (0..10).map(|_| FILLER[rng.below(FILLER.len())]).collect();
        let tag = rng.f64() < 0.45;
        if tag {
            let at = rng.below(words.len() + 1);
            words.insert(at, KEYWORDS[c % KEYWORDS.len()]);
        }
        texts.push(words.join(" "));
        tagged.push(tag.then_some(c));
    }
    (texts, tagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = clustered(50, 8, 4, 0.5, &mut Rng::new(3));
        let b = clustered(50, 8, 4, 0.5, &mut Rng::new(3));
        assert_eq!(a.data, b.data);
        let c = clustered(50, 8, 4, 0.5, &mut Rng::new(4));
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn exact_topk_orders_by_distance() {
        let rows = [[0.0f32, 0.0], [3.0, 0.0], [1.0, 0.0], [2.0, 0.0]];
        let got = exact_topk(
            &[0.1, 0.0],
            rows.iter().enumerate().map(|(i, r)| (i as u64, &r[..])),
            3,
        );
        assert_eq!(got, vec![0, 2, 3]);
    }
}
