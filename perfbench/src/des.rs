//! The `des_1m` workload and the queue-only hold replay behind
//! `des_queue.*`.
//!
//! `des_1m` runs the `des_ladder` model point at 2²⁰ clusters (~10⁷
//! nodes) to absorption through `run_des_overlay_duel_with_stats`: once at
//! nproc shards with work stealing and once at one shard. Its cluster
//! state is far larger than the caches, so queue operations and random
//! cluster-line fills set the event rate.

use std::hint::black_box;
use std::time::Instant;

use pollux::des_overlay::{
    des_memory_audit, run_des_overlay_duel_with_stats, DesOverlayConfig, DesOverlayReport,
    DesShardStats,
};
use pollux::{ClusterAnalysis, InitialCondition, ModelParams};
use pollux_adversary::TargetedStrategy;
use pollux_bench::des_ladder::{ladder_config, ladder_params, LADDER_SEED};
use pollux_defense::NullDefense;
use pollux_des::{CalendarQueue, EventQueue, FutureEventList, QueueBackend, SimTime};
use pollux_prob::tolerance::CI_HALF_WIDTH_FLOOR;
use pollux_prob::wilson_interval;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::trace::Tracer;
use crate::{err, median, Checks, Ctx, Fault, Metrics, SetupTimer};

/// `des_1m` overlay size: 2²⁰ clusters.
const DES_1M_BITS: u32 = 20;
/// `--tiny` overlay size for the self-test.
const TINY_BITS: u32 = 12;
/// Events of `des_1m` at the ladder seed (recorded with the ladder).
const DES_1M_EVENTS_AT_LADDER_SEED: u64 = 13_454_853;
/// Slack, in confidence half-widths, of the DES-vs-chain agreement
/// checks (the `des_scale` scenario's value).
const AGREEMENT_SIGMAS: f64 = 4.0;
/// Hold operations timed per queue backend.
const HOLD_OPS: usize = 2_000_000;

/// One DES input: model point, strategy, configuration and seed.
struct DesPoint {
    params: ModelParams,
    initial: InitialCondition,
    strategy: TargetedStrategy,
    config: DesOverlayConfig,
    seed: u64,
}

impl DesPoint {
    fn ladder(bits: u32, seed: u64) -> Result<Self, String> {
        let params = ladder_params();
        let strategy = TargetedStrategy::new(params.k(), params.nu())
            .ok_or("no targeted strategy at the ladder point")?;
        Ok(DesPoint {
            params,
            initial: InitialCondition::Delta,
            strategy,
            config: ladder_config(bits, QueueBackend::Auto),
            seed,
        })
    }

    /// The configuration at `shards` shards; more than one steals work.
    fn config_at(&self, shards: usize) -> DesOverlayConfig {
        let config = self.config.clone().with_shards(shards);
        if shards > 1 {
            config.with_work_stealing(0)
        } else {
            config
        }
    }

    fn run(&self, shards: usize) -> (DesOverlayReport, DesShardStats, f64) {
        let config = self.config_at(shards);
        let start = Instant::now();
        let (report, stats) = run_des_overlay_duel_with_stats(
            &self.params,
            &self.initial,
            &self.strategy,
            &NullDefense::new(),
            &config,
            self.seed,
        );
        (report, stats, start.elapsed().as_secs_f64())
    }
}

fn check_identical(
    ctx: &Ctx,
    sharded: &DesOverlayReport,
    single: &DesOverlayReport,
    checks: &mut Checks,
) {
    let mut single = single.clone();
    if ctx.inject == Some(Fault::DesMismatch) {
        single.events += 1;
    }
    checks.check(*sharded == single, || {
        "the DES report differs between nproc shards and one shard".into()
    });
}

/// E(T_S), E(T_P) and p(AmP) of the run must sit inside their confidence
/// intervals around the chain's values, as in `OutputKind::DesValidation`.
fn check_against_chain(
    r: &DesOverlayReport,
    (e_ts, e_tp, p_amp): (f64, f64, f64),
    checks: &mut Checks,
) {
    let s = AGREEMENT_SIGMAS;
    let ci = |h: f64| s * h.max(CI_HALF_WIDTH_FLOOR);
    checks.check(
        (r.safe_events.mean - e_ts).abs() <= ci(r.safe_events.ci_half_width),
        || format!("DES E(T_S) {} vs chain {e_ts}", r.safe_events.mean),
    );
    checks.check(
        (r.polluted_events.mean - e_tp).abs() <= ci(r.polluted_events.ci_half_width),
        || format!("DES E(T_P) {} vs chain {e_tp}", r.polluted_events.mean),
    );
    let (lo, hi) = wilson_interval(r.absorption_counts[2], r.absorbed, s);
    checks.check((lo..=hi).contains(&p_amp), || {
        format!("chain p(AmP) {p_amp} outside the DES interval [{lo}, {hi}]")
    });
}

fn check_event_count(ctx: &Ctx, bits: u32, r: &DesOverlayReport, checks: &mut Checks) {
    if ctx.des_seed == LADDER_SEED && bits == DES_1M_BITS {
        checks.check(r.events == DES_1M_EVENTS_AT_LADDER_SEED, || {
            format!(
                "des_1m ran {} events at seed {LADDER_SEED}, expected {DES_1M_EVENTS_AT_LADDER_SEED}",
                r.events
            )
        });
    }
}

fn bits(ctx: &Ctx) -> u32 {
    if ctx.tiny {
        TINY_BITS
    } else {
        DES_1M_BITS
    }
}

fn chain_reference(p: &DesPoint) -> Result<(f64, f64, f64), String> {
    let a = ClusterAnalysis::new(&p.params, p.initial.clone()).map_err(err)?;
    Ok((
        a.expected_safe_events().map_err(err)?,
        a.expected_polluted_events().map_err(err)?,
        a.absorption_split().map_err(err)?.polluted_merge,
    ))
}

/// Untraced: alternate the nproc-shard run and the one-shard run for
/// `ctx.seconds`, at least one of each, and report medians. The chain
/// reference of the agreement checks is part of the set-up.
pub fn run(ctx: &Ctx, checks: &mut Checks) -> Result<Metrics, String> {
    let bits = bits(ctx);
    let (mut setup, ready) = SetupTimer::start(|| {
        let point = DesPoint::ladder(bits, ctx.des_seed)?;
        let reference = chain_reference(&point)?;
        Ok::<_, String>((point, reference))
    });
    let (point, reference) = ready?;
    let mut sharded: Option<DesOverlayReport> = None;
    let (walls_n, walls_1) = crate::alternate(ctx.seconds, &mut setup, |nproc| {
        if nproc {
            let (r, _, wall) = point.run(ctx.threads);
            check_against_chain(&r, reference, checks);
            check_event_count(ctx, bits, &r, checks);
            sharded = Some(r);
            Ok(wall)
        } else {
            let (r, _, wall) = point.run(1);
            check_identical(
                ctx,
                sharded.as_ref().expect("an nproc run came first"),
                &r,
                checks,
            );
            Ok(wall)
        }
    })?;
    let events = sharded.expect("an nproc run happened").events;
    let wall_s = median(&walls_n);
    let mut m = Metrics::new();
    m.insert("wall_s".into(), wall_s);
    m.insert("wall_1t_s".into(), median(&walls_1));
    m.insert("events_per_s".into(), events as f64 / wall_s);
    m.insert("setup_s".into(), setup.median());
    Ok(m)
}

/// Traced: an untraced nproc run for reference, then the same run and
/// the one-shard run under spans (checked identical), the memory audit,
/// the queue hold replay at the run's pending count and the chain
/// reference.
pub fn run_traced(ctx: &Ctx, checks: &mut Checks) -> Result<Metrics, String> {
    let bits = bits(ctx);
    let point = DesPoint::ladder(bits, ctx.des_seed)?;
    let (_, _, untraced_wall) = point.run(ctx.threads);
    let tracer = Tracer::new();
    let ((sharded, stats, _), wall_n) = tracer.span("des.run", None, |_| point.run(ctx.threads));
    let ((single, _, _), wall_1) = tracer.span("des.run", None, |_| point.run(1));
    check_identical(ctx, &sharded, &single, checks);
    check_event_count(ctx, bits, &sharded, checks);

    let mut m = Metrics::new();
    let ns_per_event = 1e9 * wall_1 / sharded.events as f64;
    let rates = stats.shard_events_per_sec();
    let busy: f64 = stats.shard_seconds.iter().sum();
    let audit = des_memory_audit(&point.params, &point.config_at(ctx.threads));
    m.insert("des.events".into(), sharded.events as f64);
    m.insert("des.ns_per_event".into(), ns_per_event);
    m.insert(
        "des.shard_events_per_s_min".into(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
    );
    m.insert(
        "des.shard_events_per_s_max".into(),
        rates.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "des.shard_busy_frac".into(),
        busy / (stats.shards() as f64 * wall_n),
    );
    m.insert("des.bytes_per_node".into(), audit.bytes_per_node());
    m.insert(
        "des.audit_mb".into(),
        audit.total_bytes() as f64 / (1024.0 * 1024.0),
    );

    let pending = 1usize << bits;
    let ((heap, calendar), _) = tracer.span("des_queue.hold", None, |_| {
        (
            hold_ns::<EventQueue<u32>>(pending, ctx.des_seed),
            hold_ns::<CalendarQueue<u32>>(pending, ctx.des_seed),
        )
    });
    let resolved = match QueueBackend::Auto.resolve() {
        QueueBackend::Calendar => calendar,
        _ => heap,
    };
    m.insert("des_queue.hold_ns_heap".into(), heap);
    m.insert("des_queue.hold_ns_calendar".into(), calendar);
    m.insert("des_queue.share".into(), resolved / ns_per_event);

    crate::layers::chain_replay(&tracer, &[(point.params, point.initial.clone())], &mut m)?;
    check_against_chain(&sharded, chain_reference(&point)?, checks);
    crate::layers::finish(ctx, &tracer.spans(), wall_n / untraced_wall - 1.0, &mut m)?;
    Ok(m)
}

/// Nanoseconds per hold operation (peek the earliest event, reschedule
/// it an Exp(1) gap later) on a queue holding `pending` events, one per
/// cluster at rate 1, as in the DES. Gaps are drawn before timing, so
/// only the queue is measured.
fn hold_ns<Q: FutureEventList<u32>>(pending: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut exp = || -(1.0 - rng.random::<f64>()).ln();
    let mut q = Q::with_profile(pending, 1.0);
    for c in 0..pending {
        q.push(SimTime::from(exp()), c as u32);
    }
    let gaps: Vec<f64> = (0..4096).map(|_| exp()).collect();
    let start = Instant::now();
    for i in 0..HOLD_OPS {
        let (t, c) = q
            .peek()
            .map(|(t, &c)| (t, c))
            .expect("a hold keeps the queue full");
        q.replace_earliest(t + gaps[i % gaps.len()], c);
    }
    let ns = start.elapsed().as_nanos() as f64 / HOLD_OPS as f64;
    black_box(q.len());
    ns
}
