//! The sweep workloads: `paper` and `scaling`.
//!
//! The untraced run goes through `SweepRunner::run_all` and
//! `write_report`, as `reproduce_all` does. The traced run evaluates the
//! same cells on a pool of its own, with one span per cell around
//! `OutputKind::evaluate`, and checks that its reports equal the
//! runner's; the layers below the cells are replayed by `layers`.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pollux::{InitialCondition, ModelParams};
use pollux_des::replication::replication_seed;
use pollux_resilience::fnv1a64;
use pollux_sweep::registry::{self, PAPER_ARTEFACTS};
use pollux_sweep::{
    write_report, OutputFormat, OutputKind, Scenario, SweepCell, SweepReport, SweepRunner, Value,
};

use crate::trace::{self, Tracer};
use crate::{err, layers, median, percentile, Checks, Ctx, Fault, Metrics, SetupTimer, Workload};

/// `scaling`'s spare bounds. The registry's Δ = 100 cell (41,208 states)
/// is left out: it alone took ~4.5 s of each batch, and with a working set
/// at the edge of the caches its time swung by 15–25% from run to run on
/// a 2-CPU host, more than any bound a regression gate can use.
const SCALING_DELTAS: [usize; 3] = [7, 20, 48];

/// The scenarios behind each sweep workload.
fn scenarios(ctx: &Ctx) -> Result<Vec<Scenario>, String> {
    let find = |names: &[&str]| -> Result<Vec<Scenario>, String> {
        names
            .iter()
            .map(|n| registry::find(n).map_err(err))
            .collect()
    };
    match (ctx.workload, ctx.tiny) {
        (Workload::Paper, false) => find(&PAPER_ARTEFACTS),
        (Workload::Paper, true) => find(&["table2", "validate_overlay"]),
        (Workload::Scaling, _) => {
            let mut scaling = find(&["state_space_scaling"])?;
            scaling[0].grid = scaling[0].grid.clone().max_spare(SCALING_DELTAS.to_vec());
            Ok(scaling)
        }
        (Workload::Des1m, _) => unreachable!("des_1m is not a sweep workload"),
    }
}

/// Resolved scenarios with their expanded cells: the set-up of a sweep.
struct Resolved {
    scenarios: Vec<Scenario>,
    cells: Vec<Vec<SweepCell>>,
}

impl Resolved {
    fn new(ctx: &Ctx) -> Result<Self, String> {
        let scenarios = scenarios(ctx)?;
        let cells = scenarios
            .iter()
            .map(Scenario::cells)
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        Ok(Resolved { scenarios, cells })
    }

    fn n_cells(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    fn points(&self) -> Vec<(ModelParams, InitialCondition)> {
        self.cells
            .iter()
            .flatten()
            .map(|c| (c.params, c.initial.clone()))
            .collect()
    }
}

/// One batch through the public runner, artefacts included.
fn batch(
    scenarios: &[Scenario],
    threads: usize,
    seed: u64,
    dir: &Path,
) -> Result<(Vec<SweepReport>, f64), String> {
    let start = Instant::now();
    let reports = SweepRunner::new()
        .with_threads(threads)
        .with_seed(seed)
        .run_all(scenarios)
        .map_err(err)?;
    for r in &reports {
        write_report(r, dir, OutputFormat::Tsv).map_err(err)?;
    }
    Ok((reports, start.elapsed().as_secs_f64()))
}

/// Each row's `ok` / `verified_ok` verdict is one checked output.
fn check_verdicts(ctx: &Ctx, reports: &[SweepReport], checks: &mut Checks) {
    let mut inject = ctx.inject == Some(Fault::OkFalse);
    for r in reports {
        for col in ["ok", "verified_ok"] {
            let Some(i) = r.column(col) else { continue };
            for (n, row) in r.rows.iter().enumerate() {
                let ok = row[i].as_bool() == Some(true) && !std::mem::take(&mut inject);
                checks.check(ok, || format!("{} row {n}: {col} is not true", r.scenario));
            }
        }
    }
}

/// Each artefact must be byte-identical between the two thread counts.
fn check_artefacts(scenarios: &[Scenario], a: &Path, b: &Path, checks: &mut Checks) {
    for s in scenarios {
        let file = format!("{}.tsv", s.name);
        let (x, y) = (std::fs::read(a.join(&file)), std::fs::read(b.join(&file)));
        let same = matches!((&x, &y), (Ok(x), Ok(y)) if x == y);
        checks.check(same, || {
            format!("{file} differs between {} and {}", a.display(), b.display())
        });
    }
}

fn flip_a_byte(path: &Path) -> Result<(), String> {
    let mut bytes = std::fs::read(path).map_err(err)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(path, bytes).map_err(err)
}

/// Untraced: alternate nproc-thread and one-thread batches for
/// `ctx.seconds`, at least one of each, and report medians.
pub fn run(ctx: &Ctx, checks: &mut Checks) -> Result<Metrics, String> {
    let (mut setup, resolved) = SetupTimer::start(|| Resolved::new(ctx));
    let resolved = resolved?;
    let (dir_n, dir_1) = (ctx.out.join("nproc"), ctx.out.join("1t"));
    let (walls_n, walls_1) = crate::alternate(ctx.seconds, &mut setup, |nproc| {
        if nproc {
            let (reports, wall) = batch(&resolved.scenarios, ctx.threads, ctx.sweep_seed, &dir_n)?;
            if ctx.inject == Some(Fault::TsvFlip) {
                flip_a_byte(&dir_n.join(format!("{}.tsv", resolved.scenarios[0].name)))?;
            }
            check_verdicts(ctx, &reports, checks);
            Ok(wall)
        } else {
            let (_, wall) = batch(&resolved.scenarios, 1, ctx.sweep_seed, &dir_1)?;
            check_artefacts(&resolved.scenarios, &dir_n, &dir_1, checks);
            Ok(wall)
        }
    })?;
    let wall_s = median(&walls_n);
    let mut m = Metrics::new();
    m.insert("wall_s".into(), wall_s);
    m.insert("wall_1t_s".into(), median(&walls_1));
    // A sweep's unit of work is the cell.
    m.insert("events_per_s".into(), resolved.n_cells() as f64 / wall_s);
    m.insert("setup_s".into(), setup.median());
    Ok(m)
}

/// The cell seed `SweepRunner` derives: the master seed mixed with the
/// scenario's name, then with the cell index.
fn cell_seed(master: u64, scenario: &str, cell: &SweepCell) -> u64 {
    replication_seed(
        replication_seed(master, fnv1a64(scenario.as_bytes())),
        cell.index as u64,
    )
}

/// `OutputKind`'s variant name, e.g. `McValidation`.
fn kind_name(kind: &OutputKind) -> String {
    let debug = format!("{kind:?}");
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

type CellRows = Result<Vec<Vec<Value>>, String>;

/// Evaluates every cell on `threads` workers, one span per cell, and
/// assembles the reports in canonical cell order.
fn traced_pool(
    tracer: &Tracer,
    parent: u64,
    r: &Resolved,
    threads: usize,
    seed: u64,
) -> Result<Vec<SweepReport>, String> {
    let jobs: Vec<(&Scenario, &SweepCell, String)> = r
        .scenarios
        .iter()
        .zip(&r.cells)
        .flat_map(|(s, cells)| cells.iter().map(move |c| (s, c, kind_name(&s.kind))))
        .collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<CellRows>>> = Mutex::new(vec![None; jobs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            scope.spawn(|| loop {
                // Relaxed: the counter only hands out job indices.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((s, cell, kind)) = jobs.get(i) else {
                    break;
                };
                let name = format!("kind.{kind}");
                let (rows, _) = tracer.span(&name, Some(parent), |_| {
                    s.kind
                        .evaluate(cell, cell_seed(seed, &s.name, cell), threads)
                        .map_err(err)
                });
                results.lock().expect("result store poisoned")[i] = Some(rows);
            });
        }
    });
    let mut results = results.into_inner().expect("result store poisoned");
    let mut reports = Vec::with_capacity(r.scenarios.len());
    let mut slot = 0;
    for (s, cells) in r.scenarios.iter().zip(&r.cells) {
        let mut rows = Vec::new();
        for cell in cells {
            let cell_rows = results[slot].take().expect("every job ran")?;
            slot += 1;
            for row in cell_rows {
                let mut full = cell.key_values();
                full.extend(row);
                rows.push(full);
            }
        }
        reports.push(SweepReport {
            scenario: s.name.clone(),
            columns: s.columns(),
            rows,
        });
    }
    Ok(reports)
}

/// Traced: an untraced nproc batch for reference, the same batch traced,
/// then the layer replays.
pub fn run_traced(ctx: &Ctx, checks: &mut Checks) -> Result<Metrics, String> {
    let resolved = Resolved::new(ctx)?;
    let (reference, untraced_wall) = batch(
        &resolved.scenarios,
        ctx.threads,
        ctx.sweep_seed,
        &ctx.out.join("reference"),
    )?;

    let tracer = Tracer::new();
    let dir = ctx.out.join("traced");
    let (traced, traced_wall) = tracer.span("workload.batch", None, |root| {
        let (expanded, _) = tracer.span("sweep.expand", Some(root), |_| Resolved::new(ctx));
        let expanded = expanded?;
        let (reports, _) = tracer.span("sweep.pool", Some(root), |pool| {
            traced_pool(&tracer, pool, &expanded, ctx.threads, ctx.sweep_seed)
        });
        let reports = reports?;
        let (bytes, _) = tracer.span("sweep.write", Some(root), |_| {
            let mut bytes = 0u64;
            for r in &reports {
                for path in write_report(r, &dir, OutputFormat::Tsv).map_err(err)? {
                    bytes += std::fs::metadata(path).map_err(err)?.len();
                }
            }
            Ok::<_, String>(bytes)
        });
        Ok::<_, String>((reports, bytes?))
    });
    let (reports, write_bytes) = traced?;
    // Compared as TSV, like the artefacts, so that NaN cells compare equal.
    for (t, r) in reports.iter().zip(&reference) {
        checks.check(t.to_tsv() == r.to_tsv(), || {
            format!("traced {} differs from SweepRunner's", t.scenario)
        });
    }
    check_verdicts(ctx, &reports, checks);

    let mut m = Metrics::new();
    layers::chain_replay(&tracer, &resolved.points(), &mut m)?;
    if ctx.workload == Workload::Scaling {
        layers::linalg_replay(&tracer, &reports[0], &resolved.points(), &mut m, checks)?;
    }

    let spans = tracer.spans();
    let pool = spans
        .iter()
        .find(|s| s.name == "sweep.pool")
        .expect("the pool span was recorded");
    let cell_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent == Some(pool.id))
        .map(trace::Span::seconds)
        .collect();
    m.insert("sweep.cells".into(), cell_s.len() as f64);
    m.insert("sweep.cell_p50_ms".into(), 1e3 * median(&cell_s));
    m.insert("sweep.cell_p95_ms".into(), 1e3 * percentile(&cell_s, 0.95));
    m.insert("sweep.cell_max_ms".into(), 1e3 * percentile(&cell_s, 1.0));
    m.insert(
        "sweep.busy_frac".into(),
        cell_s.iter().sum::<f64>() / (ctx.threads as f64 * pool.seconds()),
    );
    m.insert(
        "sweep.expand_s".into(),
        trace::total_s(&spans, "sweep.expand"),
    );
    m.insert(
        "sweep.write_s".into(),
        trace::total_s(&spans, "sweep.write"),
    );
    m.insert("sweep.write_bytes".into(), write_bytes as f64);
    for kind in crate::KINDS {
        let name = format!("kind.{kind}");
        m.insert(format!("{name}.busy_s"), trace::total_s(&spans, &name));
    }
    layers::finish(ctx, &spans, traced_wall / untraced_wall - 1.0, &mut m)?;
    Ok(m)
}
