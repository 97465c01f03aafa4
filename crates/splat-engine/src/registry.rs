//! The scene registry: the slow-timescale half of the serving control
//! loop.
//!
//! Per-job admission control (the [`AdmissionPolicy`](crate::AdmissionPolicy)
//! applied by [`Engine::submit`](crate::Engine::submit)) decides on the
//! *fast* timescale — job by job. A multi-tenant deployment also needs the
//! *slow* timescale: which scenes are resident at all, and which get
//! deflated when memory pressure exceeds the configured budget. That is
//! this module:
//!
//! * [`Engine::register_scene`](crate::Engine::register_scene) prepares a
//!   scene once — footprint, bounds, centroid and cost statistics are
//!   precomputed into a [`PreparedScene`] — and returns a
//!   [`SceneId`] handle every job names the scene by: a `SubmitRequest`
//!   carries eight bytes of scene, never an `Arc<Scene>`.
//! * A [`ResidencyPolicy`] bounds the resident set (bytes and scene count).
//!   Registration deflates over-budget residency deterministically: the
//!   least-recently-served scene goes first, never-served scenes before
//!   served ones, ties broken by the smallest [`SceneId`].
//! * Misses are typed: a handle this engine never issued resolves to
//!   [`RenderError::UnknownScene`]; a handle whose scene was deflated (or
//!   explicitly evicted via
//!   [`Engine::evict_scene`](crate::Engine::evict_scene)) resolves to
//!   [`RenderError::Evicted`].
//!
//! Eviction frees the registry slot immediately, but memory is shared:
//! jobs already holding the scene's `Arc` keep rendering unaffected, and
//! the bytes are released when the last holder drops.

use crate::stats::EngineStats;
use crate::sync::{self, LeafMutex};
use splat_scene::{LodLadder, Scene};
use splat_types::{RenderError, SceneId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide source of registry epochs. Every [`SceneRegistry`] takes
/// one epoch at construction and salts it into the upper bits of each
/// [`SceneId`] it issues, so a handle minted by one engine can never be
/// misread by another: a foreign id fails the epoch check and resolves to
/// [`RenderError::UnknownScene`] instead of a misleading
/// [`RenderError::Evicted`]. Monotonic and deterministic in construction
/// order (the first registry of a process is always epoch 1).
static REGISTRY_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Bits of a raw [`SceneId`] holding the per-registry sequence number;
/// the epoch occupies the bits above.
const SCENE_ID_SEQ_BITS: u32 = 32;

/// The slow-timescale residency budget of a serving engine's scene
/// registry.
///
/// The default is unbounded on both axes; tighten either with the
/// `with_*` methods. Deflation keeps the resident set within **both**
/// limits after every registration.
///
/// # Examples
///
/// ```
/// use splat_engine::ResidencyPolicy;
///
/// let policy = ResidencyPolicy::unlimited()
///     .with_max_resident_scenes(8)
///     .with_max_resident_bytes(64 << 20);
/// assert_eq!(policy.max_resident_scenes, 8);
/// assert!(policy.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ResidencyPolicy {
    /// Maximum total [`Scene::footprint_bytes`] the registry keeps
    /// resident.
    pub(crate) max_resident_bytes: usize,
    /// Maximum number of scenes the registry keeps resident.
    pub max_resident_scenes: usize,
}

impl Default for ResidencyPolicy {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl ResidencyPolicy {
    /// No residency bound on either axis (the default).
    pub fn unlimited() -> Self {
        Self {
            max_resident_bytes: usize::MAX,
            max_resident_scenes: usize::MAX,
        }
    }

    /// Bounds the total resident scene footprint in bytes.
    pub fn with_max_resident_bytes(mut self, bytes: usize) -> Self {
        self.max_resident_bytes = bytes;
        self
    }

    /// Bounds the number of resident scenes.
    pub fn with_max_resident_scenes(mut self, scenes: usize) -> Self {
        self.max_resident_scenes = scenes;
        self
    }

    /// Validates the policy (checked by `Engine::build`, and re-checked
    /// here so a hand-mutated policy errors instead of wedging the
    /// registry).
    ///
    /// # Errors
    ///
    /// Returns [`RenderError::InvalidConfiguration`] when either bound is
    /// zero — a registry that can hold nothing cannot serve anything.
    pub fn validate(&self) -> Result<(), RenderError> {
        if self.max_resident_scenes == 0 {
            return Err(RenderError::InvalidConfiguration {
                reason: "residency policy allows zero resident scenes".to_owned(),
            });
        }
        if self.max_resident_bytes == 0 {
            return Err(RenderError::InvalidConfiguration {
                reason: "residency policy allows zero resident bytes".to_owned(),
            });
        }
        Ok(())
    }
}

/// A registered scene plus everything the engine precomputed at
/// registration, ready for reuse across jobs.
///
/// Cloning is cheap (the scene is shared through an `Arc`); the derived
/// statistics are frozen at registration time.
#[derive(Debug, Clone)]
pub struct PreparedScene {
    scene: Arc<Scene>,
    ladder: Option<Arc<LodLadder>>,
    id: SceneId,
    footprint_bytes: usize,
    splat_count: usize,
}

impl PreparedScene {
    /// Runs the O(n) preparation scans. Called *before* the registry lock
    /// is taken (the id is assigned under the lock via
    /// [`PreparedScene::with_id`]), so registering a huge scene never
    /// stalls concurrent resolves.
    ///
    /// When `build_ladder` is set (the engine's `QualityPolicy` can
    /// degrade), the deterministic LOD ladder is derived here too — once
    /// per registration, shared by every degraded job via `Arc` — and its
    /// footprint joins the residency charge.
    pub(crate) fn prepare(scene: Arc<Scene>, build_ladder: bool) -> Result<Self, RenderError> {
        sync::assert_unlocked();
        // An empty scene can never render (`RenderError::EmptyScene` at
        // every serve) and has no bounds; refuse it at registration so a
        // handle always points at servable work.
        if scene.is_empty() {
            return Err(RenderError::EmptyScene);
        }
        // Force the SoA projection view here, off the registry lock, so
        // the first frame served against the handle never pays the O(n)
        // build (and the allocation lands outside any render session's
        // steady state).
        scene.soa();
        let ladder = build_ladder.then(|| Arc::new(LodLadder::build(&scene)));
        let ladder_bytes = ladder.as_ref().map_or(0, |ladder| ladder.footprint_bytes());
        Ok(Self {
            footprint_bytes: scene.footprint_bytes() + ladder_bytes,
            splat_count: scene.len(),
            scene,
            ladder,
            id: SceneId::from_raw(u64::MAX),
        })
    }

    /// Stamps the registry-issued id (the only field not computable
    /// outside the lock).
    fn with_id(mut self, id: SceneId) -> Self {
        self.id = id;
        self
    }

    /// The registered scene.
    pub fn scene(&self) -> &Arc<Scene> {
        &self.scene
    }

    /// The handle this engine issued for the scene.
    pub(crate) fn id(&self) -> SceneId {
        self.id
    }

    /// Resident footprint charged against the [`ResidencyPolicy`] byte
    /// budget: [`Scene::footprint_bytes`] plus, when a LOD ladder was
    /// prebuilt, [`LodLadder::footprint_bytes`] — the ladder's tier scenes
    /// are resident memory like the full scene itself.
    pub fn footprint_bytes(&self) -> usize {
        self.footprint_bytes
    }

    /// Number of splats (the scene-dependent half of every job's cost
    /// hint).
    pub fn splat_count(&self) -> usize {
        self.splat_count
    }

    /// The admission-control cost estimate of serving this scene at the
    /// given output resolution — the same splats-plus-pixels figure as
    /// `RenderRequest::cost_hint` (one shared formula,
    /// [`splat_core::request_cost_hint`]), computable without touching the
    /// scene data again.
    pub fn cost_hint(&self, width: u32, height: u32) -> u64 {
        splat_core::request_cost_hint(self.splat_count, width, height)
    }
}

/// One resident scene plus its recency stamp: `Some(tick)` of the last
/// job resolved against it, `None` while never served. `None` orders
/// before every `Some`, so never-served scenes deflate first; `Some` ticks
/// are unique, so the only possible tie is between two never-served
/// scenes — broken by the smaller (older) [`SceneId`].
#[derive(Debug)]
struct Resident {
    prepared: PreparedScene,
    last_served: Option<u64>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Resident scenes in registration order (ids are monotonic, so this
    /// stays sorted by id). Linear scans keep eviction a pure, obviously
    /// deterministic function of the contents.
    scenes: Vec<Resident>,
    /// Next sequence number to issue (the low half of a raw [`SceneId`];
    /// the registry's epoch fills the upper bits). Doubles as the "was
    /// this id ever issued?" watermark distinguishing `UnknownScene` from
    /// `Evicted` — but only for ids carrying *this* registry's epoch.
    next_id: u64,
    /// Monotonic stamp handed to each resolve (one per served job).
    serve_tick: u64,
    resident_bytes: usize,
    registered: u64,
    evicted: u64,
    hits: u64,
    misses: u64,
}

/// The engine's scene registry: a budgeted, LRU-deflated map from
/// [`SceneId`] to [`PreparedScene`].
///
/// All state sits behind one mutex; every mutation completes before the
/// guard drops, and eviction is a pure function of the resident set, so a
/// fixed interleaving of registry operations always produces the same
/// eviction sequence.
#[derive(Debug)]
pub(crate) struct SceneRegistry {
    policy: ResidencyPolicy,
    /// This registry's epoch, salted into the upper bits of every issued
    /// [`SceneId`] so handles from other engines are recognized as
    /// foreign (see [`REGISTRY_EPOCH`]).
    epoch: u64,
    /// Whether registrations prebuild the deterministic LOD ladder (set
    /// when the engine's `QualityPolicy` can degrade).
    build_ladders: bool,
    inner: LeafMutex<RegistryInner>,
}

impl SceneRegistry {
    pub(crate) fn new(policy: ResidencyPolicy, build_ladders: bool) -> Self {
        Self {
            policy,
            epoch: REGISTRY_EPOCH.fetch_add(1, Ordering::Relaxed),
            build_ladders,
            inner: LeafMutex::new("registry", RegistryInner::default()),
        }
    }

    /// Registers a scene, deflating the resident set to stay within the
    /// residency budget. The freshly registered scene is never its own
    /// deflation victim.
    ///
    /// The O(n) preparation scans (footprint, bounds, centroid) run
    /// *before* the registry lock is taken, and evicted scenes' `Arc`s are
    /// dropped *after* it is released, so the fast-timescale serving path
    /// ([`SceneRegistry::resolve_with_ladder`]) never waits on a large
    /// registration or a large deallocation.
    pub(crate) fn register(&self, scene: Arc<Scene>) -> Result<SceneId, RenderError> {
        self.policy.validate()?;
        let prepared = PreparedScene::prepare(scene, self.build_ladders)?;
        if prepared.footprint_bytes() > self.policy.max_resident_bytes {
            return Err(RenderError::InvalidConfiguration {
                reason: format!(
                    "scene `{}` footprint {} bytes exceeds the residency budget of {} bytes",
                    prepared.scene().name(),
                    prepared.footprint_bytes(),
                    self.policy.max_resident_bytes
                ),
            });
        }
        let mut inner = self.inner.lock();
        let id = SceneId::from_raw((self.epoch << SCENE_ID_SEQ_BITS) | inner.next_id);
        inner.next_id += 1;
        inner.registered += 1;
        inner.resident_bytes += prepared.footprint_bytes();
        inner.scenes.push(Resident {
            prepared: prepared.with_id(id),
            last_served: None,
        });
        let victims = Self::deflate(&self.policy, &mut inner, id);
        drop(inner);
        drop(victims);
        Ok(id)
    }

    /// Evicts least-recently-served scenes (protecting `keep`, the scene
    /// whose registration triggered the pass) until the resident set fits
    /// the policy again. Returns the victims so the caller can drop their
    /// `Arc`s outside the lock.
    fn deflate(
        policy: &ResidencyPolicy,
        inner: &mut RegistryInner,
        keep: SceneId,
    ) -> Vec<Resident> {
        let mut victims = Vec::new();
        while inner.scenes.len() > policy.max_resident_scenes
            || inner.resident_bytes > policy.max_resident_bytes
        {
            let victim_index = inner
                .scenes
                .iter()
                .enumerate()
                .filter(|(_, resident)| resident.prepared.id() != keep)
                .min_by_key(|(_, resident)| (resident.last_served, resident.prepared.id()))
                .map(|(index, _)| index);
            let Some(victim_index) = victim_index else {
                // Only the protected scene remains; `register` pre-checked
                // it against the byte budget and the scene budget is >= 1,
                // so the set already fits.
                break;
            };
            let victim = inner.scenes.remove(victim_index);
            inner.resident_bytes -= victim.prepared.footprint_bytes();
            inner.evicted += 1;
            victims.push(victim);
        }
        victims
    }

    /// Removes a scene from the resident set.
    pub(crate) fn evict(&self, id: SceneId) -> Result<(), RenderError> {
        let mut inner = self.inner.lock();
        match inner
            .scenes
            .iter()
            .position(|resident| resident.prepared.id() == id)
        {
            Some(index) => {
                let victim = inner.scenes.remove(index);
                inner.resident_bytes -= victim.prepared.footprint_bytes();
                inner.evicted += 1;
                drop(inner);
                // The victim's Arc (possibly the last holder of a large
                // scene) is released outside the lock.
                drop(victim);
                Ok(())
            }
            None => Err(self.miss_error(&inner, id)),
        }
    }

    /// Resolves a handle to its shared scene, plus the scene's prebuilt
    /// LOD ladder (when registrations build one) — the submission path
    /// threads the ladder into the job so degraded serves reuse the shared
    /// tier scenes. Resolution counts **no** hit and stamps no recency: at
    /// resolution time the job has not been admitted yet, and a submission
    /// later refused by validation or admission control must not perturb
    /// the LRU order or the hit counter (pair with
    /// [`SceneRegistry::commit_serve`] once the job is in). A miss is
    /// counted immediately: the job is refused at the door either way.
    pub(crate) fn resolve_with_ladder(
        &self,
        id: SceneId,
    ) -> Result<(Arc<Scene>, Option<Arc<LodLadder>>), RenderError> {
        let mut inner = self.inner.lock();
        match inner
            .scenes
            .iter()
            .find(|resident| resident.prepared.id() == id)
        {
            Some(resident) => Ok((
                Arc::clone(resident.prepared.scene()),
                resident.prepared.ladder.clone(),
            )),
            None => {
                inner.misses += 1;
                Err(self.miss_error(&inner, id))
            }
        }
    }

    /// Records that a resolved handle's job was actually admitted or
    /// served: counts the hit and stamps the scene most recently served.
    /// If the scene was evicted between resolution and admission the hit
    /// still counts (the job serves off its pinned `Arc`) but there is no
    /// recency to stamp.
    pub(crate) fn commit_serve(&self, id: SceneId) {
        let mut inner = self.inner.lock();
        inner.hits += 1;
        let tick = inner.serve_tick;
        if let Some(resident) = inner
            .scenes
            .iter_mut()
            .find(|resident| resident.prepared.id() == id)
        {
            resident.last_served = Some(tick);
        }
        inner.serve_tick += 1;
    }

    /// `UnknownScene` for ids this registry never issued, `Evicted` for
    /// ids that were registered and later removed.
    ///
    /// Both the epoch (upper bits) and the sequence watermark (lower
    /// bits) must match: an id minted by a *different* engine carries a
    /// different epoch and is `UnknownScene` even when its sequence
    /// number happens to fall below this registry's watermark — the old
    /// `raw < next_id` check misreported exactly that case as `Evicted`.
    fn miss_error(&self, inner: &RegistryInner, id: SceneId) -> RenderError {
        let epoch = id.raw() >> SCENE_ID_SEQ_BITS;
        let sequence = id.raw() & ((1 << SCENE_ID_SEQ_BITS) - 1);
        if epoch == self.epoch && sequence < inner.next_id {
            RenderError::Evicted { id }
        } else {
            RenderError::UnknownScene { id }
        }
    }

    /// A read-only snapshot of a resident scene's prepared statistics.
    /// Does **not** touch recency or the hit/miss counters, so tests and
    /// dashboards can inspect residency without perturbing eviction order.
    pub(crate) fn prepared(&self, id: SceneId) -> Option<PreparedScene> {
        self.inner
            .lock()
            .scenes
            .iter()
            .find(|resident| resident.prepared.id() == id)
            .map(|resident| resident.prepared.clone())
    }

    /// Ids of the currently resident scenes, in registration order.
    /// Read-only: no recency or counter side effects.
    pub(crate) fn resident(&self) -> Vec<SceneId> {
        self.inner
            .lock()
            .scenes
            .iter()
            .map(|resident| resident.prepared.id())
            .collect()
    }

    /// Completes a snapshot by writing the scene-side counters over the
    /// job-side ones the queue filled in.
    pub(crate) fn stats(&self, queue_side: EngineStats) -> EngineStats {
        let inner = self.inner.lock();
        EngineStats {
            registered: inner.registered,
            evicted: inner.evicted,
            scene_hits: inner.hits,
            scene_misses: inner.misses,
            resident_scenes: inner.scenes.len(),
            resident_bytes: inner.resident_bytes,
            ..queue_side
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_scene::{PaperScene, SceneScale};

    fn scene(seed: u64) -> Arc<Scene> {
        Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, seed))
    }

    fn registry(policy: ResidencyPolicy) -> SceneRegistry {
        SceneRegistry::new(policy, false)
    }

    /// The scene-side counters alone (no queue behind this registry).
    fn snapshot(registry: &SceneRegistry) -> EngineStats {
        registry.stats(EngineStats::default())
    }

    /// The scene half of a resolution.
    fn resolve(registry: &SceneRegistry, id: SceneId) -> Result<Arc<Scene>, RenderError> {
        registry.resolve_with_ladder(id).map(|(scene, _)| scene)
    }

    /// Resolve + commit, the way the engine serves a job off a handle.
    fn serve(registry: &SceneRegistry, id: SceneId) -> Arc<Scene> {
        let scene = resolve(registry, id).expect("resident");
        registry.commit_serve(id);
        scene
    }

    #[test]
    fn register_issues_monotonic_ids_and_precomputes_statistics() {
        let registry = registry(ResidencyPolicy::unlimited());
        let a = registry.register(scene(0)).unwrap();
        let b = registry.register(scene(1)).unwrap();
        assert!(a < b);
        let prepared = registry.prepared(a).expect("resident");
        assert_eq!(prepared.id(), a);
        assert!(prepared.splat_count() > 0);
        assert!(prepared.footprint_bytes() > 0);
        assert_eq!(
            prepared.cost_hint(64, 48),
            prepared.splat_count() as u64 + 64 * 48
        );
        let stats = snapshot(&registry);
        assert_eq!(stats.registered, 2);
        assert_eq!(stats.resident_scenes, 2);
        assert_eq!(
            stats.resident_bytes,
            2 * prepared.footprint_bytes(),
            "same profile, same footprint"
        );
    }

    #[test]
    fn register_prebuilds_the_soa_view_without_charging_the_budget() {
        let registry = registry(ResidencyPolicy::unlimited());
        let shared = scene(0);
        let id = registry.register(Arc::clone(&shared)).unwrap();
        let prepared = registry.prepared(id).expect("resident");
        // The SoA view was built at registration (shared Arc → same cache),
        // and its size is visible but not part of the residency charge.
        let soa_footprint_bytes = shared.soa().footprint_bytes();
        assert!(soa_footprint_bytes > 0);
        // Regression guard for the cached 3D covariances: the measured SoA
        // footprint must account for at least the 20 f32 component arrays
        // per splat (11 parameters + 9 covariance entries).
        assert!(
            soa_footprint_bytes >= prepared.splat_count() * 20 * std::mem::size_of::<f32>(),
            "SoA footprint must include the cached covariance arrays"
        );
        assert_eq!(
            snapshot(&registry).resident_bytes,
            prepared.footprint_bytes(),
            "budget keeps charging the canonical storage only"
        );
    }

    #[test]
    fn empty_scenes_are_refused_at_registration() {
        let registry = registry(ResidencyPolicy::unlimited());
        let empty = Arc::new(Scene::new("empty", 8, 8, Vec::new()));
        assert_eq!(registry.register(empty), Err(RenderError::EmptyScene));
        assert_eq!(snapshot(&registry).registered, 0);
    }

    #[test]
    fn unknown_and_evicted_misses_are_distinguished() {
        let registry = registry(ResidencyPolicy::unlimited());
        let id = registry.register(scene(0)).unwrap();
        let bogus = SceneId::from_raw(99);
        assert_eq!(
            resolve(&registry, bogus),
            Err(RenderError::UnknownScene { id: bogus })
        );
        registry.evict(id).unwrap();
        assert_eq!(resolve(&registry, id), Err(RenderError::Evicted { id }));
        assert_eq!(registry.evict(id), Err(RenderError::Evicted { id }));
        assert_eq!(
            registry.evict(bogus),
            Err(RenderError::UnknownScene { id: bogus })
        );
        let stats = snapshot(&registry);
        assert_eq!(stats.scene_misses, 2);
        assert_eq!(stats.evicted, 1);
    }

    #[test]
    fn scene_count_budget_deflates_least_recently_served_first() {
        let registry = registry(ResidencyPolicy::unlimited().with_max_resident_scenes(2));
        let a = registry.register(scene(0)).unwrap();
        let b = registry.register(scene(1)).unwrap();
        // Serve `a`, making `b` the least recently served.
        serve(&registry, a);
        let c = registry.register(scene(2)).unwrap();
        assert_eq!(registry.resident(), vec![a, c]);
        assert_eq!(resolve(&registry, b), Err(RenderError::Evicted { id: b }));
        let stats = snapshot(&registry);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.registered, 3);
        for (identity, left, right) in stats.identities() {
            assert_eq!(left, right, "{identity}");
        }
    }

    #[test]
    fn never_served_scenes_deflate_before_served_ones_ties_by_smallest_id() {
        let registry = registry(ResidencyPolicy::unlimited().with_max_resident_scenes(3));
        let a = registry.register(scene(0)).unwrap();
        let _b = registry.register(scene(1)).unwrap();
        let c = registry.register(scene(2)).unwrap();
        // `a` has been served; `b` and `c` never — they tie on recency and
        // the smaller id (`b`) must go first.
        serve(&registry, a);
        let d = registry.register(scene(3)).unwrap();
        assert_eq!(registry.resident(), vec![a, c, d]);
        let e = registry.register(scene(4)).unwrap();
        assert_eq!(registry.resident(), vec![a, d, e], "then `c`");
    }

    #[test]
    fn byte_budget_deflates_and_is_never_exceeded() {
        let footprint = scene(0).footprint_bytes();
        let registry =
            registry(ResidencyPolicy::unlimited().with_max_resident_bytes(2 * footprint));
        let _a = registry.register(scene(0)).unwrap();
        let b = registry.register(scene(1)).unwrap();
        assert_eq!(snapshot(&registry).resident_bytes, 2 * footprint);
        let c = registry.register(scene(2)).unwrap();
        assert!(snapshot(&registry).resident_bytes <= 2 * footprint);
        assert_eq!(registry.resident(), vec![b, c], "oldest never-served shed");
    }

    #[test]
    fn a_scene_larger_than_the_byte_budget_is_rejected_not_registered() {
        let footprint = scene(0).footprint_bytes();
        let registry =
            registry(ResidencyPolicy::unlimited().with_max_resident_bytes(footprint - 1));
        let error = registry.register(scene(0)).expect_err("cannot ever fit");
        assert!(matches!(error, RenderError::InvalidConfiguration { .. }));
        assert!(error.to_string().contains("residency budget"));
        let stats = snapshot(&registry);
        assert_eq!(stats.registered, 0);
        assert_eq!(stats.resident_bytes, 0);
    }

    #[test]
    fn the_freshly_registered_scene_is_never_its_own_victim() {
        let registry = registry(ResidencyPolicy::unlimited().with_max_resident_scenes(1));
        let a = registry.register(scene(0)).unwrap();
        // `a` was just served, yet the incoming registration still evicts
        // it: the newcomer is protected, not the most recently used.
        serve(&registry, a);
        let b = registry.register(scene(1)).unwrap();
        assert_eq!(registry.resident(), vec![b]);
    }

    #[test]
    fn zero_budgets_are_invalid() {
        assert!(ResidencyPolicy::unlimited()
            .with_max_resident_scenes(0)
            .validate()
            .is_err());
        assert!(ResidencyPolicy::unlimited()
            .with_max_resident_bytes(0)
            .validate()
            .is_err());
        assert!(ResidencyPolicy::default().validate().is_ok());
    }

    #[test]
    fn foreign_ids_resolve_to_unknown_scene_not_evicted() {
        // Two registries, each with its own epoch. Registry B's watermark
        // is ahead of A's sequence numbers, so before the epoch salt this
        // misclassified A's handles as B's evicted scenes.
        let registry_a = registry(ResidencyPolicy::unlimited());
        let registry_b = registry(ResidencyPolicy::unlimited());
        let a0 = registry_a.register(scene(0)).unwrap();
        let b0 = registry_b.register(scene(1)).unwrap();
        let b1 = registry_b.register(scene(2)).unwrap();
        assert_ne!(a0, b0, "epoch salt separates the id spaces");

        // A foreign handle is Unknown, never Evicted — even after B has
        // issued (and could have evicted) ids with larger sequences.
        registry_b.evict(b0).unwrap();
        assert_eq!(
            resolve(&registry_b, a0),
            Err(RenderError::UnknownScene { id: a0 })
        );
        assert_eq!(
            resolve(&registry_a, b1),
            Err(RenderError::UnknownScene { id: b1 })
        );
        // The registries' own miss classification still distinguishes
        // evicted from never-issued.
        assert_eq!(
            resolve(&registry_b, b0),
            Err(RenderError::Evicted { id: b0 })
        );
    }

    #[test]
    fn ladders_are_built_only_when_requested_and_join_the_residency_charge() {
        let shared = scene(0);
        let plain = registry(ResidencyPolicy::unlimited());
        let plain_id = plain.register(Arc::clone(&shared)).unwrap();
        let prepared = plain.prepared(plain_id).expect("resident");
        assert!(prepared.ladder.is_none(), "FullOnly engines skip ladders");
        assert_eq!(prepared.footprint_bytes(), shared.footprint_bytes());

        let laddered = SceneRegistry::new(ResidencyPolicy::unlimited(), true);
        let id = laddered.register(Arc::clone(&shared)).unwrap();
        let prepared = laddered.prepared(id).expect("resident");
        let ladder = prepared
            .ladder
            .clone()
            .expect("degradable engines prebuild");
        assert_eq!(
            prepared.footprint_bytes(),
            shared.footprint_bytes() + ladder.footprint_bytes(),
            "the ladder is resident memory and the budget observes it"
        );
        assert_eq!(
            snapshot(&laddered).resident_bytes,
            prepared.footprint_bytes()
        );
        // The submission path gets the same shared ladder back.
        let (resolved, resolved_ladder) = laddered.resolve_with_ladder(id).unwrap();
        assert!(Arc::ptr_eq(&resolved, &shared));
        assert!(Arc::ptr_eq(
            resolved_ladder.as_ref().expect("ladder travels"),
            &ladder
        ));
    }

    #[test]
    fn hits_count_on_commit_not_on_resolve() {
        let registry = registry(ResidencyPolicy::unlimited());
        let a = registry.register(scene(0)).unwrap();
        // Resolution alone is not a serve: a submission refused by
        // validation or admission control must not inflate the hit
        // counter or refresh the scene's recency.
        for _ in 0..3 {
            let resolved = resolve(&registry, a).unwrap();
            assert!(!resolved.is_empty());
        }
        assert_eq!(snapshot(&registry).scene_hits, 0);
        for _ in 0..3 {
            serve(&registry, a);
        }
        let stats = snapshot(&registry);
        assert_eq!(stats.scene_hits, 3);
        assert_eq!(stats.scene_misses, 0);
    }

    #[test]
    fn refused_resolutions_do_not_perturb_lru_order() {
        let registry = registry(ResidencyPolicy::unlimited().with_max_resident_scenes(2));
        let a = registry.register(scene(0)).unwrap();
        let b = registry.register(scene(1)).unwrap();
        serve(&registry, a);
        serve(&registry, b);
        // `a` is resolved again but the job is never admitted (no commit):
        // `a` must remain the least recently *served* scene and deflate.
        let _ = resolve(&registry, a).unwrap();
        let c = registry.register(scene(2)).unwrap();
        assert_eq!(registry.resident(), vec![b, c]);
    }
}
