//! The live-platform workload: `ca-serve` under organic load, an attacker
//! tenant, and a large read batch.
//!
//! Set-up generates a target world of 20,000 users × 2,000 items and
//! launches a crash-free 4-shard `LivePlatform` with IVF snapshots; the
//! attacker then establishes its pretend users. The measured phase repeats
//! whole rounds of three phases until the run's seconds are spent:
//!
//! 1. `advance` — organic reads and interaction writes, with a retrain
//!    (snapshot + IVF index rebuild) every `RETRAIN_EVERY` ticks;
//! 2. the tenant phase — profile-copy injections and pretend-user queries,
//!    each of which steps the world by one tick;
//! 3. one `par_serve_queries` read batch over organic users.

use crate::report::{median, percentile, Report};
use crate::Args;
use copyattack::core::env::plan_pretend_profiles;
use copyattack::datagen::{generate, CrossDomainConfig, CrossDomainDataset, OrganicSampler};
use copyattack::recsys::{FallibleBlackBox, ItemId, RecError, RetrievalMode, UserId};
use copyattack::serve::{LivePlatform, ModelVersion, ServeConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// World builds + launches per run; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 3;
const RETRAIN_EVERY: u64 = 64;
const RETRAIN_TICKS: u64 = 8;
const RETRIEVAL: RetrievalMode = RetrievalMode::Ivf { nlist: 64, nprobe: 24 };
/// The attacker's accounts and cadence (CopyAttack's defaults).
const N_PRETEND: usize = 50;
const PRETEND_LEN: usize = 15;
const INJECTIONS: usize = 30;
const QUERY_EVERY: usize = 3;
/// Tenant calls (= ticks) per round.
const TENANT_CALLS: u64 = (INJECTIONS + INJECTIONS / QUERY_EVERY * N_PRETEND) as u64;
/// Organic ticks per round: about six retrain periods, padded so that a
/// round is a whole number of periods and every round meets the retrain
/// schedule at the same phase.
const ADVANCE_TICKS: u64 = 6 * RETRAIN_EVERY - TENANT_CALLS % RETRAIN_EVERY;
/// Rounds start (and read batches run) this many ticks into a period,
/// away from the retrain window.
const ROUND_PHASE: u64 = RETRAIN_EVERY / 2;
const K: usize = 20;
/// Organic users per read batch.
const READ_BATCH: usize = 10_000;
/// Users whose live lists are compared with the exact snapshot.
const RECALL_SAMPLE: usize = 1_000;
/// Floor on mean recall@20 of live IVF reads against the exact snapshot.
const SERVE_RECALL_FLOOR: f64 = 0.70;

fn world_config(seed: u64) -> CrossDomainConfig {
    let mut cfg = CrossDomainConfig::ml10m_fx_like(seed);
    cfg.target.n_users = 20_000;
    cfg.n_target_items = 2_000;
    cfg.n_overlap = 1_600;
    cfg
}

/// Timings of one round.
#[derive(Default)]
struct RoundTimes {
    advance_s: f64,
    tenant_s: f64,
    read_s: f64,
    /// Traced rounds only: the read batch at one thread.
    read_1t_s: Option<f64>,
}

/// Per-call spans of traced rounds.
#[derive(Default)]
struct Spans {
    retrain_tick_us: Vec<f64>,
    plain_tick_us: Vec<f64>,
    inject_us: Vec<f64>,
    query_us: Vec<f64>,
}

/// Output checks accumulated over the run.
#[derive(Default)]
struct Audit {
    lists: u64,
    malformed: u64,
    /// Organic read lists holding an item the user consumed after the
    /// serving snapshot was built (see the README's findings).
    reads_with_consumed: u64,
    queries_issued: u64,
    calls: u64,
    failed: u64,
}

impl Audit {
    /// Every answered list has `K` distinct items, none of them in the
    /// user's current profile. Organic users keep interacting after the
    /// serving snapshot, so for them a consumed item is counted apart
    /// (`tenant = false`); pretend users' profiles never change.
    fn list(&mut self, p: &LivePlatform, uid: u32, list: &[ItemId], tenant: bool) {
        self.lists += 1;
        let shard = &p.shards()[uid as usize % p.shards().len()];
        let profile = shard.profile_of(uid).unwrap_or(&[]);
        let mut ids: Vec<u32> = list.iter().map(|v| v.0).collect();
        ids.sort_unstable();
        ids.dedup();
        let consumed = list.iter().any(|v| profile.contains(v));
        if ids.len() != K || list.len() != K || (tenant && consumed) {
            self.malformed += 1;
        } else if consumed {
            self.reads_with_consumed += 1;
        }
    }
}

struct Attacker {
    pretend: Vec<UserId>,
    /// Copied source profiles carrying the target, in target item ids.
    copies: Vec<Vec<ItemId>>,
    next_copy: usize,
}

fn establish(p: &mut LivePlatform, world: &CrossDomainDataset, seed: u64) -> Attacker {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e4a47);
    let profiles = plan_pretend_profiles(&world.target, N_PRETEND, PRETEND_LEN, &mut rng);
    let pretend = profiles
        .iter()
        .map(|prof| p.try_inject_user(prof).expect("crash-free platform accepts accounts"))
        .collect();
    let target = world.sample_attackable_cold_items(1, 10, 3, &mut rng)[0];
    let target_src = world.source_item(target).expect("sampled from the overlap");
    let mut carriers: Vec<UserId> = world.source.item_profile(target_src).iter().copied().collect();
    carriers.shuffle(&mut rng);
    let copies =
        carriers.iter().map(|&u| world.translate_profile(world.source.profile(u))).collect();
    Attacker { pretend, copies, next_copy: 0 }
}

/// The tenant phase: `INJECTIONS` profile copies, and a query of every
/// pretend user after every `QUERY_EVERY` of them.
fn tenant_phase(
    p: &mut LivePlatform,
    a: &mut Attacker,
    audit: &mut Audit,
    spans: Option<&mut Spans>,
) {
    let mut spans = spans;
    for i in 0..INJECTIONS {
        let copy = &a.copies[a.next_copy % a.copies.len()];
        a.next_copy += 1;
        let t = Instant::now();
        let r = p.try_inject_user(copy);
        if let Some(s) = spans.as_deref_mut() {
            s.inject_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        audit.calls += 1;
        audit.failed += r.is_err() as u64;
        if (i + 1) % QUERY_EVERY == 0 {
            for &u in &a.pretend {
                let t = Instant::now();
                let r = p.try_top_k(u, K);
                if let Some(s) = spans.as_deref_mut() {
                    s.query_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                audit.calls += 1;
                audit.queries_issued += 1;
                match r {
                    Ok(list) => audit.list(p, u.0, &list, true),
                    Err(_) => audit.failed += 1,
                }
            }
        }
    }
}

type Answers = Vec<Result<Vec<ItemId>, RecError>>;

fn read_batch(p: &LivePlatform, users: &[UserId]) -> (f64, Answers) {
    let t = Instant::now();
    let out = p.par_serve_queries(users, K);
    (t.elapsed().as_secs_f64(), out)
}

pub fn run(args: &Args, report: &mut Report) {
    let wcfg = world_config(args.seed);
    let scfg = ServeConfig {
        seed: copyattack::par::split_seed(args.seed, 0x5e7e),
        n_shards: 4,
        retrain_every: RETRAIN_EVERY,
        retrain_ticks: RETRAIN_TICKS,
        retrieval: RETRIEVAL,
        ..Default::default()
    };

    // --- set-up ------------------------------------------------------------
    let mut setup = Vec::new();
    let mut generate_s = Vec::new();
    let mut launch_s = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_LAUNCHES {
        drop(live.take());
        let t = Instant::now();
        let world = generate(&wcfg);
        let g = t.elapsed().as_secs_f64();
        let sampler = OrganicSampler::from_truth(&world.truth, wcfg.affinity_beta);
        let tl = Instant::now();
        let p = LivePlatform::launch(&world.target, sampler, scfg.clone()).expect("valid config");
        launch_s.push(tl.elapsed().as_secs_f64());
        setup.push(t.elapsed().as_secs_f64());
        generate_s.push(g);
        live = Some((world, p));
    }
    let (world, mut p) = live.expect("at least one launch");
    eprintln!("perfbench: set-up {setup:.3?} s (launch {launch_s:.3?} s)");
    report.set("setup_s", "s", median(&setup));
    let mut attacker = establish(&mut p, &world, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4ead);
    let mut readers: Vec<UserId> = (0..world.target.n_users() as u32).map(UserId).collect();
    readers.shuffle(&mut rng);
    readers.truncate(READ_BATCH);
    p.advance((ROUND_PHASE + RETRAIN_EVERY - p.clock() % RETRAIN_EVERY) % RETRAIN_EVERY);

    // --- measured phase ----------------------------------------------------
    let threads = copyattack::par::threads();
    let mut audit = Audit::default();
    let mut spans = Spans::default();
    let mut plain: Vec<RoundTimes> = Vec::new();
    let mut traced: Vec<RoundTimes> = Vec::new();
    let mut batches_equal = true;
    let start = Instant::now();
    let mut round = 0usize;
    // In the traced run, odd rounds are traced and even rounds plain, so
    // the difference is the tracing overhead; it needs one of each.
    let min_rounds = if report.traced() { 2 } else { 1 };
    while round < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        let trace = report.traced() && round % 2 == 1;
        let mut rt = RoundTimes::default();
        let t = Instant::now();
        if trace {
            for _ in 0..ADVANCE_TICKS {
                let built = p.stats().models_built;
                let tt = Instant::now();
                p.advance(1);
                let us = tt.elapsed().as_secs_f64() * 1e6;
                if p.stats().models_built > built {
                    spans.retrain_tick_us.push(us);
                } else {
                    spans.plain_tick_us.push(us);
                }
            }
        } else {
            p.advance(ADVANCE_TICKS);
        }
        rt.advance_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        tenant_phase(&mut p, &mut attacker, &mut audit, trace.then_some(&mut spans));
        rt.tenant_s = t.elapsed().as_secs_f64();
        let (read_s, answers) = read_batch(&p, &readers);
        rt.read_s = read_s;
        if trace {
            copyattack::par::set_threads(Some(1));
            let (s1, serial) = read_batch(&p, &readers);
            copyattack::par::set_threads(None);
            rt.read_1t_s = Some(s1);
            batches_equal &= serial == answers;
        }
        for (u, a) in readers.iter().zip(&answers) {
            match a {
                Ok(list) => audit.list(&p, u.0, list, false),
                Err(_) => audit.malformed += 1,
            }
        }
        if trace {
            traced.push(rt);
        } else {
            plain.push(rt);
        }
        round += 1;
    }
    report.operations(audit.calls, audit.failed);
    eprintln!(
        "perfbench: {round} rounds; advance {:.3?} tenant {:.3?} read {:.3?} s",
        plain.iter().map(|r| r.advance_s).collect::<Vec<_>>(),
        plain.iter().map(|r| r.tenant_s).collect::<Vec<_>>(),
        plain.iter().map(|r| r.read_s).collect::<Vec<_>>()
    );

    // --- checks (untimed) --------------------------------------------------
    if !report.traced() {
        copyattack::par::set_threads(Some(1));
        let (_, serial) = read_batch(&p, &readers);
        copyattack::par::set_threads(None);
        batches_equal &= serial == p.par_serve_queries(&readers, K);
    }
    report.check(
        "read_batch_1_thread_equals_n",
        batches_equal,
        format!("{} reads at 1 and {threads} threads", readers.len()),
    );
    report.check(
        "lists_k_distinct_unseen",
        audit.lists > 0 && audit.malformed == 0,
        format!("{} of {} answered lists malformed", audit.malformed, audit.lists),
    );
    let s = p.stats().clone();
    let answered = s.tenant_queries_live + s.tenant_queries_stale + s.tenant_queries_cold;
    report.check(
        "tenant_counters_add_up",
        answered == audit.queries_issued
            && s.tenant_queries_degraded == 0
            && s.tenant_queries_lost == 0
            && s.tenant_injections_rejected == 0,
        format!(
            "live {} + stale {} + cold {} = {answered} of {} issued; degraded {} lost {}",
            s.tenant_queries_live,
            s.tenant_queries_stale,
            s.tenant_queries_cold,
            audit.queries_issued,
            s.tenant_queries_degraded,
            s.tenant_queries_lost
        ),
    );
    let recall = live_recall(&mut p, &readers, &attacker.pretend);
    report.check(
        "live_recall20_floor",
        recall >= SERVE_RECALL_FLOOR,
        format!("recall@20 {recall:.4} vs floor {SERVE_RECALL_FLOOR}"),
    );

    // --- metrics -------------------------------------------------------------
    let med = |rs: &[RoundTimes], f: &dyn Fn(&RoundTimes) -> f64| {
        median(&rs.iter().map(f).collect::<Vec<_>>())
    };
    report.set("attack_s", "s", med(&plain, &|r| r.tenant_s));
    report.set("ticks_per_s", "1/s", med(&plain, &|r| ADVANCE_TICKS as f64 / r.advance_s));
    report.set("tenant_calls_per_s", "1/s", med(&plain, &|r| TENANT_CALLS as f64 / r.tenant_s));
    report.set("read_qps", "1/s", med(&plain, &|r| READ_BATCH as f64 / r.read_s));
    if report.traced() {
        report.set("datagen.generate_s", "s", median(&generate_s));
        report.set("serve.launch_s", "s", median(&launch_s));
        report.set(
            "serve.retrain_tick_p50_ms",
            "ms",
            percentile(&spans.retrain_tick_us, 0.5) / 1e3,
        );
        report.set("serve.plain_tick_p50_us", "us", percentile(&spans.plain_tick_us, 0.5));
        report.set("serve.models_built", "count", s.models_built as f64);
        report.set("serve.tenant_inject_p50_us", "us", percentile(&spans.inject_us, 0.5));
        report.set("serve.tenant_query_p50_us", "us", percentile(&spans.query_us, 0.5));
        let calls: Vec<f64> = spans.inject_us.iter().chain(&spans.query_us).copied().collect();
        report.set("serve.tenant_call_p99_us", "us", percentile(&calls, 0.99));
        report.set("serve.tenant_queries_live", "count", s.tenant_queries_live as f64);
        report.set("serve.tenant_queries_stale", "count", s.tenant_queries_stale as f64);
        report.set("serve.tenant_queries_cold", "count", s.tenant_queries_cold as f64);
        report.set("serve.organic_served", "count", s.organic_queries_served as f64);
        report.set("serve.organic_shed", "count", s.organic_queries_shed as f64);
        report.set("serve.interactions_applied", "count", s.organic_interactions_applied as f64);
        report.set("serve.reads_with_consumed", "count", audit.reads_with_consumed as f64);
        report.set("serve.read_batch_s", "s", med(&traced, &|r| r.read_s));
        report.set(
            "par.read_speedup",
            "ratio",
            med(&traced, &|r| r.read_1t_s.unwrap_or(f64::NAN) / r.read_s),
        );
        report.set(
            "trace.attack_overhead_s",
            "s",
            med(&traced, &|r| r.tenant_s) - med(&plain, &|r| r.tenant_s),
        );
    }
}

/// Mean recall@K of live reads against an exact snapshot the benchmark
/// builds itself from the same users: step to the tick before a retrain,
/// copy every shard's users, let the retrain adopt its snapshot, then
/// compare sampled live lists with `ModelVersion::build_with(.., Exact)`.
fn live_recall(p: &mut LivePlatform, readers: &[UserId], pretend: &[UserId]) -> f64 {
    let to_tick_before = RETRAIN_EVERY - 1 - p.clock() % RETRAIN_EVERY;
    p.advance(to_tick_before);
    let mut pairs: Vec<(u32, Vec<ItemId>)> = p
        .shards()
        .iter()
        .flat_map(|s| s.users().iter().map(|(&u, prof)| (u, prof.clone())))
        .collect();
    pairs.sort_by_key(|&(u, _)| u);
    let built_at = p.clock() + 1;
    p.advance(1 + RETRAIN_TICKS);
    let version = p.shards()[0].model().version;
    if p.shards().iter().any(|s| s.model().built_at != built_at || s.model().version != version) {
        return 0.0;
    }
    let exact =
        ModelVersion::build_with(version, built_at, &pairs, p.catalog_size(), RetrievalMode::Exact);
    let sample: Vec<UserId> =
        readers.iter().take(RECALL_SAMPLE).chain(pretend.iter()).copied().collect();
    let mut sum = 0.0;
    for &u in &sample {
        let (Ok(live), Some(truth)) = (p.serve_readonly(u.0, K), exact.top_k(u.0, K)) else {
            return 0.0;
        };
        sum += live.iter().filter(|v| truth.contains(v)).count() as f64 / K as f64;
    }
    sum / sample.len() as f64
}
