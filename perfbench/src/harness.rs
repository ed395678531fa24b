//! Run configuration, timing loops, correctness bookkeeping, and the
//! report the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats;

/// Result type of the benchmark's own fallible steps.
pub type Res<T> = Result<T, String>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale Glucosym/oref0 campaign, in-process streaming executor.
    CohortCampaign,
    /// T1DS learn → replay → deploy loop with CAWT and mitigation.
    DesignDeploy,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::CohortCampaign, Workload::DesignDeploy];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CohortCampaign => "cohort_campaign",
            Workload::DesignDeploy => "design_deploy",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// One or two patients at one initial BG: a smoke run for tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the untraced passes are measured.
    pub seconds: f64,
    /// Also make the traced run and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Root for scratch directories (removed on exit).
    pub tmp_root: PathBuf,
    /// Where reports and spans are written.
    pub out_dir: PathBuf,
}

/// Counts checked operations and failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or did not match their reference.
    pub failed: u64,
}

impl Checks {
    /// Records `n` operations that all pass or all fail together.
    pub fn record(&mut self, n: u64, ok: bool, what: &str) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            eprintln!("perfbench: correctness mismatch: {what}");
        }
    }

    /// Records `n` operations of which `failed` failed.
    pub fn record_failed(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: {failed} of {n} failed: {what}");
        }
    }
}

/// What a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness bookkeeping over every pass.
    pub checks: Checks,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run-environment facts for the report (workers used, samples…).
    pub env: BTreeMap<String, String>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an environment fact.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.env.insert(key.to_owned(), value.to_string());
    }
}

/// Runs `setup` `reps` times (each in its own scratch directory) and
/// returns the last state with the median set-up time in seconds.
pub fn timed_setups<S>(
    reps: usize,
    tmp: &Path,
    mut setup: impl FnMut(&Path) -> Res<S>,
) -> Res<(S, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for rep in 0..reps.max(1) {
        let dir = tmp.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        // The previous state is dropped (and its resources released)
        // before the next set-up starts.
        drop(state.take());
        let t = Instant::now();
        let s = setup(&dir)?;
        times.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    let median = stats::median(&times).unwrap_or(0.0);
    state
        .map(|s| (s, median))
        .ok_or_else(|| "no set-up ran".to_owned())
}

/// Calls `pass(i)` until `seconds` have elapsed and at least `min`
/// passes have run; returns the number of passes.
pub fn timed_passes(seconds: f64, min: u32, mut pass: impl FnMut(u32) -> Res<()>) -> Res<u32> {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        pass(n)?;
        n += 1;
    }
    Ok(n)
}

/// Median of a non-empty sample (0 for an empty one).
pub fn med(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Deterministic 64-bit mixer (splitmix64).
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Gaps between consecutive instants, in ms: (median, tail value,
/// tail percentile used, sample count).
pub fn gap_stats(times: &[Instant]) -> (f64, f64, f64, usize) {
    let gaps: Vec<f64> = times
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .collect();
    let (p, tail) = stats::tail_at_most(&gaps, 99.0).unwrap_or((50.0, 0.0));
    (med(&gaps), tail, p, gaps.len())
}

/// Counts the versions of files that are replaced atomically
/// (temp file + rename): each new inode seen is one write.
#[derive(Debug, Default)]
pub struct FileWatch {
    last: BTreeMap<PathBuf, u64>,
    /// Writes observed.
    pub writes: u64,
    /// Sum of the sizes of every observed version.
    pub bytes: u64,
}

impl FileWatch {
    /// Looks at `path` now.
    pub fn observe(&mut self, path: &Path) {
        use std::os::unix::fs::MetadataExt;
        if let Ok(meta) = std::fs::metadata(path) {
            let ino = meta.ino();
            if self.last.get(path) != Some(&ino) {
                self.last.insert(path.to_path_buf(), ino);
                self.writes += 1;
                self.bytes += meta.len();
            }
        }
    }
}

/// Sum of the sizes of the files in `dir` whose name starts with
/// `prefix` and does not end with `exclude`.
pub fn dir_bytes(dir: &Path, prefix: &str, exclude: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    name.starts_with(prefix) && !name.ends_with(exclude)
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the source tree, read from `.git` when the
/// working directory is a git checkout.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown (no .git in the working directory)".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Facts about the machine and process recorded with every report.
pub fn base_env(cfg: &Config) -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    env.insert("nproc".to_owned(), nproc.to_string());
    env.insert(
        "aps_workers_env".to_owned(),
        std::env::var("APS_WORKERS").map_or("unset".to_owned(), |v| {
            format!("set ({v}); ignored, workers are pinned")
        }),
    );
    env.insert("git_revision".to_owned(), git_revision());
    env.insert("seed".to_owned(), cfg.seed.to_string());
    env.insert("workload".to_owned(), cfg.workload.name().to_owned());
    env.insert("seconds".to_owned(), cfg.seconds.to_string());
    env.insert("trace".to_owned(), u8::from(cfg.trace).to_string());
    env
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The declared metrics this run reports, in declaration order.
pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The one-line result object: `correct`, `attempted`, `failed`,
/// `metrics` (every declared metric for the mode, with its unit).
///
/// # Errors
///
/// When a declared metric is missing (a benchmark bug).
pub fn result_line(outcome: &Outcome, trace: bool) -> Res<String> {
    let mut metrics = Vec::new();
    for (name, unit) in declared(trace) {
        let v = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        ));
    }
    let c = &outcome.checks;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0 && c.attempted > 0,
        c.attempted.max(1),
        c.failed,
        metrics.join(", ")
    ))
}

/// Full report: environment plus every measured value.
pub fn report_json(outcome: &Outcome, result: &str) -> String {
    let env: Vec<String> = outcome
        .env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let all: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    format!(
        "{{\"env\": {{{}}}, \"measured\": {{{}}}, \"result\": {}}}\n",
        env.join(", "),
        all.join(", "),
        result
    )
}

/// A scratch directory removed when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh directory under `root`, unique to this process.
    pub fn new(root: &Path, label: &str) -> Res<TempDir> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        // Relaxed: the counter only makes names unique within the process.
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = root.join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the root too when this was its last entry.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
