//! Layer replays of the traced run: the benchmark calls each layer's
//! public entry point itself, at the workload's own inputs, inside a
//! span, because those layers run hidden inside the sweep cells.

use std::hint::black_box;

use pollux::{ClusterAnalysis, ClusterChain, InitialCondition, ModelParams};
use pollux_linalg::solver::{SolverOptions, TransientSolver};
use pollux_markov::sparse_chain::sparse_block;
use pollux_sweep::SweepReport;

use crate::trace::{self, Span, Tracer};
use crate::{err, Checks, Ctx, Metrics};

/// The transient block the solver replay runs on: `scaling`'s largest Δ.
const SOLVER_REPLAY_DELTA: usize = 48;

fn add(m: &mut Metrics, name: &str, v: f64) {
    *m.entry(name.to_string()).or_insert(0.0) += v;
}

/// Chain build (`transition`), factorisation and queries (`analysis`) at
/// every model point of the workload.
pub fn chain_replay(
    tracer: &Tracer,
    points: &[(ModelParams, InitialCondition)],
    m: &mut Metrics,
) -> Result<(), String> {
    for (params, initial) in points {
        let (chain, _) = tracer.span("transition.build", None, |_| ClusterChain::build(params));
        add(m, "transition.builds", 1.0);
        add(m, "transition.states", chain.space().len() as f64);
        add(
            m,
            "transition.nnz",
            chain.sparse_dtmc().matrix().nnz() as f64,
        );
        let (analysis, _) = tracer.span("analysis.factor", None, |_| {
            ClusterAnalysis::from_chain(chain, initial.clone())
        });
        let analysis = analysis.map_err(err)?;
        let kind = if analysis.is_sparse() {
            "analysis.sparse_builds"
        } else {
            "analysis.dense_builds"
        };
        add(m, kind, 1.0);
        let (answers, _) = tracer.span("analysis.query", None, |_| {
            Ok::<_, pollux_markov::MarkovError>((
                analysis.expected_safe_events()?,
                analysis.expected_polluted_events()?,
                analysis.absorption_split()?,
            ))
        });
        black_box(answers.map_err(err)?);
    }
    Ok(())
}

/// `TransientSolver` on the transient block at Δ = 48: one solve
/// of (I − Q) x = 1, the expected steps to absorption. Weighted by the
/// initial distribution, they must equal E(T_S) + E(T_P) of the
/// `scaling` report's row at that Δ.
pub fn linalg_replay(
    tracer: &Tracer,
    report: &SweepReport,
    points: &[(ModelParams, InitialCondition)],
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut residual = 0.0f64;
    for (params, initial) in points
        .iter()
        .filter(|(p, _)| p.max_spare() == SOLVER_REPLAY_DELTA)
    {
        let chain = ClusterChain::build(params);
        let t = chain.space().transient();
        let q = sparse_block(chain.sparse_dtmc().matrix(), &t, &t);
        let (solved, _) = tracer.span("linalg.solve", None, |_| {
            TransientSolver::new(&q, SolverOptions::default())?
                .solve_with_stats(&vec![1.0; t.len()])
        });
        let (steps, stats) = solved.map_err(err)?;
        let stats = stats.ok_or("the solver replay took the dense path")?;
        add(m, "linalg.iters", stats.sweeps as f64);
        residual = residual.max(stats.residual);
        let alpha = initial.distribution(chain.space()).map_err(err)?;
        let direct: f64 = t.iter().zip(&steps).map(|(&g, x)| alpha[g] * x).sum();
        let delta = params.max_spare() as f64;
        let row = (0..report.rows.len()).find(|&i| report.f64(i, "Delta") == Some(delta));
        let reported = row.and_then(|i| Some(report.f64(i, "E_T_S")? + report.f64(i, "E_T_P")?));
        checks.check(
            reported.is_some_and(|e| (e - direct).abs() <= 1e-6 * e),
            || format!("Delta = {delta}: solver gives {direct}, report gives {reported:?}"),
        );
    }
    m.insert("linalg.residual".into(), residual);
    Ok(())
}

/// Fills the span-derived metrics, zeroes the layers this workload does
/// not exercise, writes the span file and prints each layer's self time.
pub fn finish(ctx: &Ctx, spans: &[Span], overhead: f64, m: &mut Metrics) -> Result<(), String> {
    for (metric, span) in [
        ("transition.build_s", "transition.build"),
        ("analysis.factor_s", "analysis.factor"),
        ("analysis.query_s", "analysis.query"),
        ("linalg.solve_s", "linalg.solve"),
    ] {
        m.insert(metric.into(), trace::total_s(spans, span));
    }
    m.insert("trace.spans".into(), spans.len() as f64);
    m.insert("trace.overhead_frac".into(), overhead);
    for name in crate::expected_metrics(true) {
        m.entry(name).or_insert(0.0);
    }
    let path = ctx.out.join("spans.jsonl");
    trace::write_jsonl(spans, &path).map_err(err)?;
    println!("spans: {} written to {}", spans.len(), path.display());
    for (layer, self_s) in trace::layer_self_s(spans) {
        println!("  self time {layer:<20} {self_s:.6} s");
    }
    Ok(())
}
