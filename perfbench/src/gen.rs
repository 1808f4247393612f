//! Seeded traffic. Every request line and `.ddg` file is a pure function
//! of (workload, seed): the server only ever sees what this module
//! renders.

use kn_core::workloads::{by_name, random_loop, RandomLoopConfig};

/// splitmix64 finalizer: the one mixing function behind every draw here.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Small deterministic generator (splitmix64 stream).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed))
    }

    /// A stream keyed by (seed, stream, index) — independent of how many
    /// draws any other request made.
    pub fn keyed(seed: u64, stream: u64, index: u64) -> Self {
        Rng::new(splitmix64(seed ^ splitmix64(stream)) ^ splitmix64(index.wrapping_add(1)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[(self.next_u64() % xs.len() as u64) as usize]
    }
}

/// Zipf(s=1) over ranks `0..n` (rank 0 the most frequent), drawn by
/// inverse CDF over the harmonic weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SchedCold,
    XformCold,
    ZipfHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SchedCold, Workload::XformCold, Workload::ZipfHot];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SchedCold => "sched_cold",
            Workload::XformCold => "xform_cold",
            Workload::ZipfHot => "zipf_hot",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Latency limit behind `slo_share`, in milliseconds.
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::SchedCold => 25.0,
            Workload::XformCold => 10.0,
            Workload::ZipfHot => 10.0,
        }
    }

    /// Requests the traced run walks layer by layer (fixed, so its counts
    /// repeat for a seed).
    pub fn walk_sample(self) -> u64 {
        match self {
            Workload::SchedCold => 300,
            Workload::XformCold => 600,
            Workload::ZipfHot => 400,
        }
    }
}

/// The paper corpus as the service names it.
pub const CORPUS: [&str; 9] = [
    "figure3",
    "figure7",
    "cytron86",
    "livermore18",
    "livermore5",
    "livermore23",
    "elliptic",
    "rate_gap",
    "doall",
];

/// Corpus loops with a statement-level body (`transform=` accepts these).
pub const BODIES: [&str; 10] = [
    "fissionable/twophase",
    "fissionable/islands",
    "fissionable/storage",
    "reduction/sum",
    "reduction/max",
    "reduction/scan",
    "reduction/nonassoc",
    "figure7",
    "livermore5",
    "livermore23",
];

/// `kn serve --cache-capacity` for every workload: smaller than the Zipf
/// distinct set, so `zipf_hot` both hits and evicts.
pub const CACHE_CAPACITY: usize = 256;

/// Random graphs behind `sched_cold`, each written to its own file.
pub const RANDOM_GRAPHS: u64 = 64;
/// Node instances (nodes × iterations) of a typical `zipf_hot` request,
/// before the 64–400 iteration clamp.
const MISS_INSTANCES: u64 = 2400;
/// Distinct requests behind the `zipf_hot` Zipf draw (> cache capacity).
pub const ZIPF_DISTINCT: usize = 1024;

/// Fractional parts of (1+√5)/2, √2, √3, √17, √7, √11 and √13: with 1
/// they are linearly independent over the rationals, so the stratified
/// dimensions are jointly equidistributed.
const WEYL: [f64; 7] = [
    0.618_033_988_749_895,
    0.414_213_562_373_095,
    0.732_050_807_568_877,
    0.123_105_625_617_661,
    0.645_751_311_064_591,
    0.316_624_790_355_400,
    0.605_551_275_463_989,
];

const STREAM_REQ: u64 = 1;
const STREAM_GRAPH: u64 = 2;
const STREAM_DISTINCT: u64 = 3;
const STREAM_PHASE: u64 = 5;

/// One workload's traffic for one seed.
pub struct Traffic {
    pub workload: Workload,
    pub seed: u64,
    /// `.ddg` files the requests name: (path relative to the server's
    /// working directory, text).
    pub files: Vec<(String, String)>,
    /// One untimed request per distinct loop, at an iteration count no
    /// timed request uses (so warm-up never pre-fills the cache).
    pub warmup: Vec<String>,
    /// `zipf_hot`: the distinct request set, in seeded rank order.
    distinct: Vec<String>,
    zipf: Option<Zipf>,
    /// Seeded starting points of the stratified draws.
    phase: [f64; 7],
}

impl Traffic {
    /// Build the traffic for `seed`; `.ddg` paths are rooted at `dir`.
    pub fn new(workload: Workload, seed: u64, dir: &str) -> Self {
        let mut files = Vec::new();
        let mut warmup = Vec::new();
        let mut distinct = Vec::new();
        let mut zipf = None;
        match workload {
            Workload::SchedCold => {
                // One graph pool for every seed (as for the Zipf set), so
                // runs with other seeds differ in the request mix only.
                for j in 0..RANDOM_GRAPHS {
                    let mut rng = Rng::keyed(0, STREAM_GRAPH, j);
                    let nodes = rng.range(8, 24) as usize;
                    let cfg = RandomLoopConfig {
                        nodes,
                        lcds: nodes / 2,
                        sds: nodes / 2,
                        ..RandomLoopConfig::default()
                    };
                    let g = random_loop(rng.next_u64(), &cfg);
                    let path = format!("{dir}/r{j}.ddg");
                    warmup.push(format!("ddg={path} iters=16"));
                    files.push((path, kn_core::ddg::render_text(&g)));
                }
                warmup.extend(CORPUS.iter().map(|c| format!("corpus={c} iters=16")));
            }
            Workload::XformCold => {
                warmup.extend(
                    BODIES
                        .iter()
                        .map(|c| format!("corpus={c} iters=8 transform=all")),
                );
            }
            Workload::ZipfHot => {
                // One distinct set for every seed, so schedule quality
                // compares across seeds; the seed decides which of its
                // requests are hot.
                let mut seen = std::collections::HashSet::new();
                let mut k = 0;
                while distinct.len() < ZIPF_DISTINCT {
                    let mut rng = Rng::keyed(0, STREAM_DISTINCT, k);
                    k += 1;
                    let corpus = rng.pick(&CORPUS);
                    // About the same work per miss whatever the loop, so
                    // the tail is set by misses as a whole rather than the
                    // handful of largest loops a seed happens to miss on.
                    let nodes = by_name(corpus).expect("corpus name").graph.node_count();
                    let spread = 9f64.powf(rng.unit()) / 3.0;
                    let iters =
                        ((MISS_INSTANCES as f64 * spread / nodes as f64) as u64).clamp(64, 400);
                    let sched = if rng.unit() < 0.7 {
                        "cyclic"
                    } else {
                        "doacross"
                    };
                    let line = format!("corpus={corpus} iters={iters} scheduler={sched}");
                    if seen.insert(line.clone()) {
                        distinct.push(line);
                    }
                }
                let mut rng = Rng::keyed(seed, STREAM_DISTINCT, 0);
                for i in (1..distinct.len()).rev() {
                    distinct.swap(i, rng.range(0, i as u64) as usize);
                }
                zipf = Some(Zipf::new(ZIPF_DISTINCT));
                warmup.extend(CORPUS.iter().map(|c| format!("corpus={c} iters=16")));
            }
        }
        let mut rng = Rng::keyed(seed, STREAM_PHASE, 0);
        Traffic {
            workload,
            seed,
            files,
            warmup,
            distinct,
            zipf,
            phase: std::array::from_fn(|_| rng.unit()),
        }
    }

    /// Draw `dim` of request `i`, uniform in [0, 1): a Weyl sequence with
    /// a seeded start. Any run of consecutive requests covers each
    /// dimension evenly, so the cold workloads' request mix (and with it
    /// the work per request) barely changes from seed to seed, while the
    /// seed still decides which values meet in one request.
    fn strat(&self, i: u64, dim: usize) -> f64 {
        (self.phase[dim] + WEYL[dim] * i as f64).fract()
    }

    /// Request line `i` (without the newline).
    pub fn line(&self, i: u64) -> String {
        let mut rng = Rng::keyed(self.seed, STREAM_REQ, i);
        // A traffic seed unique to (seed, i) keeps every cold request's
        // cache key distinct.
        let unique = splitmix64(self.seed) ^ i;
        match self.workload {
            Workload::SchedCold => {
                let source = if self.strat(i, 0) < 0.5 {
                    format!("corpus={}", CORPUS[(self.strat(i, 1) * 9.0) as usize])
                } else {
                    let j = (self.strat(i, 1) * RANDOM_GRAPHS as f64) as usize;
                    format!("ddg={}", self.files[j].0)
                };
                let (lo, hi) = (200f64.ln(), 2001f64.ln());
                let iters = ((lo + (hi - lo) * self.strat(i, 2)).exp() as u64).clamp(200, 2000);
                let procs = [2, 3, 4, 6, 8][(self.strat(i, 3) * 5.0) as usize];
                let k = 1 + (self.strat(i, 4) * 4.0) as u64;
                let roll = self.strat(i, 5);
                let sched = if roll < 0.6 {
                    "cyclic"
                } else if roll < 0.8 {
                    "doacross"
                } else {
                    "doacross-best"
                };
                let link = if self.strat(i, 6) < 0.25 {
                    " link=single"
                } else {
                    ""
                };
                format!(
                    "{source} procs={procs} k={k} iters={iters} scheduler={sched}{link} mm=3 seed={unique}"
                )
            }
            Workload::XformCold => {
                let corpus = BODIES[(self.strat(i, 0) * BODIES.len() as f64) as usize];
                let mode = ["all", "fission", "reduce"][(self.strat(i, 1) * 3.0) as usize];
                let iters = 32 + (self.strat(i, 2) * 225.0) as u64;
                format!("corpus={corpus} iters={iters} transform={mode} seed={unique}")
            }
            Workload::ZipfHot => {
                let zipf = self.zipf.as_ref().expect("zipf_hot has a Zipf table");
                let rank = zipf.draw(rng.unit());
                let roll = rng.unit();
                let priority = if roll < 0.1 {
                    "high"
                } else if roll < 0.7 {
                    "normal"
                } else {
                    "low"
                };
                format!("{} priority={priority}", self.distinct[rank])
            }
        }
    }

    /// The most frequent request (Zipf rank 0), for hit-path probes.
    pub fn hottest(&self) -> Option<&str> {
        self.distinct.first().map(String::as_str)
    }

    /// Write the `.ddg` files this traffic names.
    pub fn write_files(&self) -> std::io::Result<()> {
        for (path, text) in &self.files {
            if let Some(parent) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(path, text)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_requests() {
        for w in Workload::ALL {
            let a = Traffic::new(w, 7, "d");
            let b = Traffic::new(w, 7, "d");
            let c = Traffic::new(w, 8, "d");
            let la: Vec<String> = (0..200).map(|i| a.line(i)).collect();
            let lb: Vec<String> = (0..200).map(|i| b.line(i)).collect();
            let lc: Vec<String> = (0..200).map(|i| c.line(i)).collect();
            assert_eq!(la, lb, "{}", w.name());
            assert_ne!(la, lc, "{}: another seed gives other traffic", w.name());
            assert_eq!(a.files, b.files);
            assert_eq!(a.warmup, b.warmup);
        }
    }

    #[test]
    fn cold_requests_are_unique_and_parse() {
        for w in [Workload::SchedCold, Workload::XformCold] {
            let t = Traffic::new(w, 3, "d");
            let lines: Vec<String> = (0..2000).map(|i| t.line(i)).collect();
            let set: std::collections::HashSet<&String> = lines.iter().collect();
            assert_eq!(set.len(), lines.len(), "{}", w.name());
            for l in lines.iter().chain(&t.warmup) {
                kn_core::service::wire::parse_request_line(l)
                    .unwrap_or_else(|e| panic!("{l}: {e}"))
                    .expect("a request");
            }
        }
    }

    #[test]
    fn cold_request_mix_barely_depends_on_the_seed() {
        for seed in [1, 2, 99] {
            let t = Traffic::new(Workload::SchedCold, seed, "d");
            let lines: Vec<String> = (0..1000).map(|i| t.line(i)).collect();
            let share =
                |needle: &str| lines.iter().filter(|l| l.contains(needle)).count() as f64 / 1000.0;
            assert!((share("corpus=") - 0.5).abs() < 0.01, "seed {seed}");
            assert!(
                (share("corpus=elliptic ") - 0.5 / 9.0).abs() < 0.01,
                "seed {seed}"
            );
            assert!(
                (share("scheduler=cyclic") - 0.6).abs() < 0.01,
                "seed {seed}"
            );
            assert!((share("link=single") - 0.25).abs() < 0.01, "seed {seed}");
        }
    }

    #[test]
    fn random_graph_files_lint_clean() {
        let t = Traffic::new(Workload::SchedCold, 11, "d");
        assert_eq!(t.files.len() as u64, RANDOM_GRAPHS);
        for (path, text) in &t.files {
            let lint = kn_core::verify::lint_text(text).expect("renders valid syntax");
            assert!(lint.report.first_error().is_none(), "{path}");
        }
    }

    #[test]
    fn zipf_draw_has_the_harmonic_rank_shape() {
        let n = 64;
        let z = Zipf::new(n);
        let mut rng = Rng::new(5);
        let draws = 200_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.draw(rng.unit())] += 1;
        }
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        for rank in [0usize, 1, 3, 15] {
            let want = draws as f64 / ((rank + 1) as f64 * h);
            let got = counts[rank] as f64;
            assert!(
                (got - want).abs() < 0.05 * want,
                "rank {rank}: {got} vs {want}"
            );
        }
        // Frequencies fall with rank: rank r+1 is drawn (r+1)/(r+2) as often.
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[15]);
    }

    #[test]
    fn zipf_hot_draws_hit_the_distinct_set_with_a_hot_head() {
        let t = Traffic::new(Workload::ZipfHot, 2, "d");
        let hot = t.hottest().expect("distinct set");
        let lines: Vec<String> = (0..5000).map(|i| t.line(i)).collect();
        let hot_share = lines
            .iter()
            .filter(|l| l.starts_with(&format!("{hot} ")))
            .count() as f64
            / 5000.0;
        let h: f64 = (1..=ZIPF_DISTINCT).map(|k| 1.0 / k as f64).sum();
        assert!((hot_share - 1.0 / h).abs() < 0.03, "{hot_share}");
    }
}
