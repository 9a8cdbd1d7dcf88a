//! The traced black box: a timing newtype around the deployed platform.
//!
//! [`Timed`] implements [`BlackBoxRecommender`] + [`Clone`] by forwarding
//! to the platform it wraps, so the attack code cannot tell it apart from
//! the bare platform. Around each forwarded call it records a span
//! (reward query, injection, environment clone) into a [`Probe`] shared by
//! every clone made for one target item, and counts the work done. With
//! checking on, it also verifies sampled outputs against computations made
//! apart from the code under test: a brute-force Top-k over
//! [`Scorer::score`], and the properties every injected profile must have.

use copyattack::ann::IvfRecommender;
use copyattack::gnn::PinSageRecommender;
use copyattack::recsys::{BlackBoxRecommender, ItemId, Scorer, UserId};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// A deployment the benchmark can see through: the model behind it (for
/// the brute-force oracle) and whether its lists are approximate.
pub trait Oracle: BlackBoxRecommender + Clone {
    /// Lists are approximate (IVF): checked for shape and recall, not
    /// equality.
    const APPROXIMATE: bool;
    /// The scoring model behind the deployment.
    fn model(&self) -> &PinSageRecommender;
    /// Unwraps the model (promotion is evaluated on it).
    fn into_model(self) -> PinSageRecommender;
}

impl Oracle for PinSageRecommender {
    const APPROXIMATE: bool = false;
    fn model(&self) -> &PinSageRecommender {
        self
    }
    fn into_model(self) -> PinSageRecommender {
        self
    }
}

impl Oracle for IvfRecommender<PinSageRecommender> {
    const APPROXIMATE: bool = true;
    fn model(&self) -> &PinSageRecommender {
        self.inner()
    }
    fn into_model(self) -> PinSageRecommender {
        self.into_inner()
    }
}

/// Spans, counts, and check results of one target item's attack.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Seconds inside `top_k_batch` (the reward queries).
    pub reward_query_s: f64,
    /// Duration of each `top_k_batch` call, in microseconds.
    pub batch_us: Vec<f64>,
    /// Reward rounds (batched Top-k calls).
    pub rounds: u64,
    /// Rounds in which any pretend user's list held the target.
    pub hit_rounds: u64,
    /// Pretend-user lists requested (the metered query count).
    pub metered: u64,
    /// Seconds inside `inject_user`.
    pub inject_s: f64,
    /// Profiles injected.
    pub injections: u64,
    /// Seconds cloning the platform (one clone per fresh environment).
    pub clone_s: f64,
    /// Platform clones.
    pub clones: u64,
    /// Most profiles injected into any one environment.
    pub max_env_injections: usize,
    /// Injected profiles without the target item.
    pub unmasked_profiles: u64,
    /// Reward rounds whose batch was not exactly the pretend users.
    pub odd_batches: u64,
    /// Lists compared against the brute-force oracle.
    pub lists_checked: u64,
    /// Exact lists differing from the oracle.
    pub oracle_mismatches: u64,
    /// Approximate lists with a duplicate, a seen item, or a short length.
    pub malformed_lists: u64,
    /// Sum of recall@k of approximate lists against the oracle.
    pub recall_sum: f64,
}

impl Probe {
    /// Adds another target's probe (targets are merged in item order).
    pub fn merge(&mut self, o: &Probe) {
        self.reward_query_s += o.reward_query_s;
        self.batch_us.extend_from_slice(&o.batch_us);
        self.rounds += o.rounds;
        self.hit_rounds += o.hit_rounds;
        self.metered += o.metered;
        self.inject_s += o.inject_s;
        self.injections += o.injections;
        self.clone_s += o.clone_s;
        self.clones += o.clones;
        self.max_env_injections = self.max_env_injections.max(o.max_env_injections);
        self.unmasked_profiles += o.unmasked_profiles;
        self.odd_batches += o.odd_batches;
        self.lists_checked += o.lists_checked;
        self.oracle_mismatches += o.oracle_mismatches;
        self.malformed_lists += o.malformed_lists;
        self.recall_sum += o.recall_sum;
    }
}

/// The attack a [`Timed`] deployment serves.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// The item under promotion: every injected profile must contain it
    /// (masking), and a reward round hits when any list holds it.
    pub target: ItemId,
    /// The attacker's pretend-user count (every reward batch's size).
    pub n_pretend: usize,
    /// When set, every round of every `n`-th environment is compared with
    /// the brute-force oracle.
    pub oracle_every: Option<u64>,
}

/// Timing newtype over a black-box deployment.
pub struct Timed<R> {
    inner: R,
    probe: Rc<RefCell<Probe>>,
    ctx: Ctx,
    /// Environment index of this clone (0 = the base deployment).
    env: u64,
    injections: usize,
}

impl<R: Oracle> Timed<R> {
    /// Wraps `inner`; clones share `probe`.
    pub fn new(inner: R, probe: Rc<RefCell<Probe>>, ctx: Ctx) -> Self {
        Timed { inner, probe, ctx, env: 0, injections: 0 }
    }

    /// The wrapped deployment.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn check_lists(&self, users: &[UserId], k: usize, lists: &[Vec<ItemId>]) {
        let mut p = self.probe.borrow_mut();
        let model = self.inner.model();
        for (&u, list) in users.iter().zip(lists) {
            let truth = brute_force_top_k(model, u, k);
            p.lists_checked += 1;
            if R::APPROXIMATE {
                let seen = model.data().profile(u);
                let mut sorted: Vec<u32> = list.iter().map(|v| v.0).collect();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != list.len()
                    || list.len() != truth.len()
                    || list.iter().any(|v| seen.contains(v))
                {
                    p.malformed_lists += 1;
                }
                let hits = list.iter().filter(|v| truth.contains(v)).count();
                p.recall_sum += hits as f64 / truth.len().max(1) as f64;
            } else if *list != truth {
                p.oracle_mismatches += 1;
            }
        }
    }
}

/// The Top-k the benchmark computes itself: every catalog item scored with
/// [`Scorer::score`], the user's seen items dropped, sorted by score
/// descending then item id ascending.
pub fn brute_force_top_k(model: &PinSageRecommender, user: UserId, k: usize) -> Vec<ItemId> {
    let n = model.data().n_items();
    let mut seen = vec![false; n];
    for v in model.data().profile(user) {
        seen[v.idx()] = true;
    }
    let mut scored: Vec<(f32, u32)> = (0..n as u32)
        .filter(|&v| !seen[v as usize])
        .map(|v| (model.score(user, ItemId(v)), v))
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(k).map(|(_, v)| ItemId(v)).collect()
}

impl<R: Oracle> Clone for Timed<R> {
    fn clone(&self) -> Self {
        let t = Instant::now();
        let inner = self.inner.clone();
        let secs = t.elapsed().as_secs_f64();
        let mut p = self.probe.borrow_mut();
        p.clone_s += secs;
        p.clones += 1;
        Timed { inner, probe: self.probe.clone(), ctx: self.ctx, env: p.clones, injections: 0 }
    }
}

impl<R: Oracle> BlackBoxRecommender for Timed<R> {
    fn top_k(&self, user: UserId, k: usize) -> Vec<ItemId> {
        self.top_k_batch(&[user], k).pop().unwrap_or_default()
    }

    fn top_k_batch(&self, users: &[UserId], k: usize) -> Vec<Vec<ItemId>> {
        let t = Instant::now();
        let lists = self.inner.top_k_batch(users, k);
        let secs = t.elapsed().as_secs_f64();
        {
            let mut p = self.probe.borrow_mut();
            p.reward_query_s += secs;
            p.batch_us.push(secs * 1e6);
            p.rounds += 1;
            p.metered += users.len() as u64;
            if lists.iter().any(|l| l.contains(&self.ctx.target)) {
                p.hit_rounds += 1;
            }
            if users.len() != self.ctx.n_pretend {
                p.odd_batches += 1;
            }
        }
        if self.ctx.oracle_every.is_some_and(|n| self.env % n == 1) {
            self.check_lists(users, k, &lists);
        }
        lists
    }

    fn inject_user(&mut self, profile: &[ItemId]) -> UserId {
        let t = Instant::now();
        let id = self.inner.inject_user(profile);
        let secs = t.elapsed().as_secs_f64();
        self.injections += 1;
        let mut p = self.probe.borrow_mut();
        p.inject_s += secs;
        p.injections += 1;
        p.max_env_injections = p.max_env_injections.max(self.injections);
        if !profile.contains(&self.ctx.target) {
            p.unmasked_profiles += 1;
        }
        id
    }

    fn catalog_size(&self) -> usize {
        self.inner.catalog_size()
    }
}
