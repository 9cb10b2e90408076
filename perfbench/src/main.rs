//! `perfbench`: the Pollux benchmark.
//!
//! One command runs one workload in its own process and prints, as its
//! last line, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` measures the end-to-end metrics
//! with tracing off; `--trace 1` runs the traced variant and reports the
//! per-layer metrics. The process exits non-zero when any output check
//! fails. See `README.md` in this directory for the workloads, the
//! layer → metric map and how to run it.

mod des;
mod layers;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use pollux_des::QueueBackend;

/// End-to-end metrics (`--trace 0`) and their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("wall_1t_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The output kinds the sweep workloads evaluate; each has a
/// `kind.<Kind>.busy_s` per-layer metric.
pub const KINDS: [&str; 9] = [
    "StateSpace",
    "Sojourns",
    "SuccessiveSojourns",
    "Absorption",
    "OverlayProportions",
    "SojournsWithAbsorption",
    "McValidation",
    "OverlayMcValidation",
    "StateSpaceScaling",
];

/// Per-layer metrics (`--trace 1`) besides the per-kind busy times. A
/// layer that a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("sweep.cells", "count"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_p95_ms", "ms"),
    ("sweep.cell_max_ms", "ms"),
    ("sweep.busy_frac", "ratio"),
    ("sweep.expand_s", "s"),
    ("sweep.write_s", "s"),
    ("sweep.write_bytes", "bytes"),
    ("transition.build_s", "s"),
    ("transition.builds", "count"),
    ("transition.states", "count"),
    ("transition.nnz", "count"),
    ("analysis.factor_s", "s"),
    ("analysis.query_s", "s"),
    ("analysis.dense_builds", "count"),
    ("analysis.sparse_builds", "count"),
    ("linalg.solve_s", "s"),
    ("linalg.iters", "count"),
    ("linalg.residual", "ratio"),
    ("des.events", "count"),
    ("des.ns_per_event", "ns"),
    ("des.shard_events_per_s_min", "1/s"),
    ("des.shard_events_per_s_max", "1/s"),
    ("des.shard_busy_frac", "ratio"),
    ("des.bytes_per_node", "bytes"),
    ("des.audit_mb", "MiB"),
    ("des_queue.hold_ns_heap", "ns"),
    ("des_queue.hold_ns_calendar", "ns"),
    ("des_queue.share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric name → value; units come from the tables above.
pub type Metrics = BTreeMap<String, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Des1m,
    Scaling,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Paper, Workload::Des1m, Workload::Scaling];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Des1m => "des_1m",
            Workload::Scaling => "scaling",
        }
    }
}

/// A deliberate corruption of one program output before it is checked,
/// used by `--selftest` to prove that each check can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one byte of one nproc-thread TSV artefact.
    TsvFlip,
    /// Make the 1-shard DES report differ from the sharded one.
    DesMismatch,
    /// Turn the first `ok` verdict of the nproc-thread reports to false.
    OkFalse,
}

impl Fault {
    const ALL: [(Fault, &'static str); 3] = [
        (Fault::TsvFlip, "tsv-flip"),
        (Fault::DesMismatch, "des-mismatch"),
        (Fault::OkFalse, "ok-false"),
    ];
}

/// Everything a workload needs to know about this run.
pub struct Ctx {
    pub workload: Workload,
    /// Master seed of the sweep runner.
    pub sweep_seed: u64,
    /// Seed of the whole-overlay DES.
    pub des_seed: u64,
    /// How long the untraced run keeps repeating its batch.
    pub seconds: f64,
    /// nproc: the sweep thread count and DES shard count of `wall_s`.
    pub threads: usize,
    /// Tiny inputs for `--selftest` (paper and des_1m only).
    pub tiny: bool,
    pub inject: Option<Fault>,
    /// This workload's output directory.
    pub out: PathBuf,
}

/// Tally of checked outputs; `error_rate` = failed / attempted.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            self.failures.push(what);
        }
    }
}

/// Formats any error for the `Result<_, String>` the workloads return.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The median; the mean of the two middle values for an even count, and 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in `[0, 1]`; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Set-up blocks timed at the start of a run and before each batch.
const SETUP_BLOCKS_AT_START: usize = 5;
const SETUP_BLOCKS_PER_BATCH: usize = 3;

/// Times a workload's set-up (input generation, scenario resolution and
/// cell expansion): blocks of calls, each long enough (2 ms) that timer
/// resolution does not show. Blocks are taken at the start of the run and
/// again before every batch, so that their median spans the whole run
/// rather than one moment of it.
pub struct SetupTimer<F> {
    setup: F,
    reps: usize,
    per_call: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    /// Calibrates the block length, times the first blocks and returns
    /// the set-up's result.
    pub fn start(mut setup: F) -> (Self, T) {
        let mut reps = 1usize;
        loop {
            let start = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(setup());
            }
            if start.elapsed().as_secs_f64() >= 2e-3 {
                break;
            }
            reps *= 2;
        }
        let mut timer = SetupTimer {
            setup,
            reps,
            per_call: Vec::new(),
        };
        let mut value = timer.block();
        for _ in 1..SETUP_BLOCKS_AT_START {
            value = timer.block();
        }
        (timer, value)
    }

    fn block(&mut self) -> T {
        let start = Instant::now();
        let mut value = std::hint::black_box((self.setup)());
        for _ in 1..self.reps {
            value = std::hint::black_box((self.setup)());
        }
        self.per_call
            .push(start.elapsed().as_secs_f64() / self.reps as f64);
        value
    }

    /// Median seconds per set-up call.
    pub fn median(&self) -> f64 {
        median(&self.per_call)
    }
}

/// Alternates `sample(true)` (the nproc-thread batch) and `sample(false)`
/// (the one-thread batch) until `seconds` have passed, with at least one
/// of each, timing set-up blocks before each. Returns both wall times.
pub fn alternate<T, F: FnMut() -> T>(
    seconds: f64,
    setup: &mut SetupTimer<F>,
    mut sample: impl FnMut(bool) -> Result<f64, String>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let start = Instant::now();
    let (mut nproc, mut single) = (Vec::new(), Vec::new());
    loop {
        for _ in 0..SETUP_BLOCKS_PER_BATCH {
            setup.block();
        }
        nproc.push(sample(true)?);
        if !single.is_empty() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        for _ in 0..SETUP_BLOCKS_PER_BATCH {
            setup.block();
        }
        single.push(sample(false)?);
        eprintln!(
            "sample {}: nproc {:.4} s, one thread {:.4} s",
            single.len(),
            nproc[nproc.len() - 1],
            single[single.len() - 1]
        );
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok((nproc, single))
}

/// Peak resident memory of this process in MiB, as max(`VmHWM`, `VmRSS`):
/// the kernel may update `VmHWM` lazily, so it can lag the current RSS.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let field = |key: &str| -> Option<u64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        line[key.len()..]
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    };
    let kib = field("VmHWM:")
        .max(field("VmRSS:"))
        .ok_or("no VmHWM/VmRSS in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        // The rest are the per-kind busy times.
        .map_or("s", |(_, u)| u)
}

/// The metric names a run must report.
pub fn expected_metrics(trace: bool) -> Vec<String> {
    if trace {
        let mut names: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(KINDS.iter().map(|k| format!("kind.{k}.busy_s")));
        names
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    }
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where this result came from, so that no number is read without it.
fn provenance(ctx: &Ctx, trace: bool) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Only ask git inside a git checkout: otherwise it would report the
    // revision of whatever repository encloses this directory.
    let git_rev = if root.join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"], &root)
    } else {
        None
    };
    let rustc = command_line("rustc", &["-V"], &root);
    let opt = |v: Option<String>| v.map_or("null".to_string(), |s| json_str(&s));
    format!(
        "{{\"git_rev\":{},\"rustc\":{},\"profile\":{},\"nproc\":{},\"metrics_feature\":{},\
         \"workload\":{},\"sweep_seed\":{},\"des_seed\":{},\"des_queue\":{},\"trace\":{},\
         \"seconds\":{},\"tiny\":{}}}",
        opt(git_rev),
        opt(rustc),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        ctx.threads,
        pollux_obs::METRICS_ENABLED,
        json_str(ctx.workload.name()),
        ctx.sweep_seed,
        ctx.des_seed,
        json_str(&format!("{:?}", QueueBackend::Auto.resolve())),
        trace,
        ctx.seconds,
        ctx.tiny,
    )
}

/// Prints the human-readable block and the final JSON line, stores the
/// stamped result next to the run's other outputs, and picks the exit
/// code.
fn emit(ctx: &Ctx, trace: bool, metrics: &Metrics, checks: &Checks) -> Result<ExitCode, String> {
    let expected = expected_metrics(trace);
    for name in &expected {
        match metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    if let Some(extra) = metrics.keys().find(|k| !expected.contains(k)) {
        return Err(format!("metric {extra} is not in the metric tables"));
    }
    if checks.attempted == 0 {
        return Err("no output was checked".into());
    }
    let error_rate = checks.failed as f64 / checks.attempted as f64;
    println!(
        "perfbench {} trace={} threads={} sweep_seed={:#x} des_seed={}",
        ctx.workload.name(),
        u8::from(trace),
        ctx.threads,
        ctx.sweep_seed,
        ctx.des_seed
    );
    for name in &expected {
        println!("  {name:<32} {:>18} {}", metrics[name], unit_of(name));
    }
    println!(
        "  {:<32} {:>18} ({} failed of {} checked outputs)",
        "error_rate", error_rate, checks.failed, checks.attempted
    );
    let body: Vec<String> = expected
        .iter()
        .map(|n| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                metrics[n],
                json_str(unit_of(n))
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(",")
    );
    let provenance = provenance(ctx, trace);
    let failures: Vec<String> = checks.failures.iter().map(|f| json_str(f)).collect();
    let stamped = format!(
        "{{\"provenance\":{provenance},\"error_rate\":{error_rate},\"failures\":[{}],\"result\":{result}}}\n",
        failures.join(",")
    );
    let path = ctx
        .out
        .join(format!("result-trace{}.json", u8::from(trace)));
    std::fs::write(&path, stamped).map_err(err)?;
    println!("provenance {provenance}");
    println!("{result}");
    Ok(if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    tiny: bool,
    inject: Option<Fault>,
    selftest: bool,
}

const USAGE: &str = "usage: perfbench --workload {paper|des_1m|scaling} [--seed N] \
[--seconds S] [--trace 0|1] [--tiny] [--inject {tsv-flip|des-mismatch|ok-false}]\n       \
perfbench --selftest";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 30.0,
        trace: false,
        tiny: false,
        inject: None,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::ALL.into_iter().find(|w| w.name() == v);
                args.workload = Some(w.ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(err)?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(err)?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--tiny" => args.tiny = true,
            "--inject" => {
                let v = value()?;
                let f = Fault::ALL.iter().find(|(_, n)| *n == v).map(|(f, _)| *f);
                args.inject = Some(f.ok_or(format!("unknown fault `{v}`"))?);
            }
            "--selftest" => args.selftest = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// No number may come from a hidden switch: refuse to run when any
/// `POLLUX_*` environment variable is set.
fn refuse_pollux_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("POLLUX_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: unset every POLLUX_* variable",
            set.join(", ")
        ))
    }
}

fn run(args: Args) -> Result<ExitCode, String> {
    refuse_pollux_env()?;
    if args.selftest {
        return selftest();
    }
    let workload = args.workload.ok_or("--workload is required")?;
    if args.tiny && !matches!(workload, Workload::Paper | Workload::Des1m) {
        return Err("--tiny exists for paper and des_1m only".into());
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(workload.name());
    std::fs::create_dir_all(&out).map_err(err)?;
    let ctx = Ctx {
        workload,
        sweep_seed: args.seed.unwrap_or(pollux_sweep::DEFAULT_SEED),
        des_seed: args.seed.unwrap_or(pollux_bench::des_ladder::LADDER_SEED),
        seconds: args.seconds,
        threads: std::thread::available_parallelism().map_err(err)?.get(),
        tiny: args.tiny,
        inject: args.inject,
        out,
    };
    let mut checks = Checks::default();
    let mut metrics = match (workload, args.trace) {
        (Workload::Des1m, false) => des::run(&ctx, &mut checks)?,
        (Workload::Des1m, true) => des::run_traced(&ctx, &mut checks)?,
        (_, false) => sweep::run(&ctx, &mut checks)?,
        (_, true) => sweep::run_traced(&ctx, &mut checks)?,
    };
    if !args.trace {
        metrics.insert("peak_rss_mb".into(), peak_rss_mib()?);
    }
    emit(&ctx, args.trace, &metrics, &checks)
}

/// Runs tiny workloads with and without each injected fault and asserts
/// that a clean run passes while every fault gives `failed > 0` (so
/// `error_rate > 0`) and a non-zero exit.
fn selftest() -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(err)?;
    let cases: [(&str, Option<&str>); 5] = [
        ("paper", None),
        ("paper", Some("tsv-flip")),
        ("paper", Some("ok-false")),
        ("des_1m", None),
        ("des_1m", Some("des-mismatch")),
    ];
    let mut broken = 0;
    for (workload, fault) in cases {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--tiny", "--seconds", "0"]);
        if let Some(f) = fault {
            cmd.args(["--inject", f]);
        }
        let out = cmd.output().map_err(err)?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let failed = stdout
            .lines()
            .last()
            .and_then(|l| l.split("\"failed\":").nth(1))
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse::<u64>().ok());
        let pass = match fault {
            None => out.status.success() && failed == Some(0),
            Some(_) => !out.status.success() && failed.is_some_and(|n| n > 0),
        };
        println!(
            "selftest {workload} inject={}: exit={:?} failed={failed:?} -> {}",
            fault.unwrap_or("none"),
            out.status.code(),
            if pass { "ok" } else { "WRONG" }
        );
        broken += usize::from(!pass);
    }
    Ok(if broken == 0 {
        println!("selftest: every check fails on its fault and passes without it");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run(args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&v), 10.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 1.0), 20.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn metric_tables_have_unique_names() {
        let mut names = expected_metrics(true);
        names.extend(expected_metrics(false));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
