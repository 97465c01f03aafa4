//! Property sweep for the scene registry's residency control: randomized
//! register/serve/evict interleavings (driven by the workspace's local
//! deterministic PRNG — the dependency policy forbids proptest) must keep
//! resident bytes within the budget at every step, evict in the pinned LRU
//! order, and replay identically across runs.
//!
//! The oracle is a shadow model: a plain `Vec` of (id, footprint,
//! last-served tick) mutated by the same deterministic rules the registry
//! documents. After every operation the engine's resident set, resident
//! bytes and counters must match the model exactly.
//!
//! Scene ids are epoch-salted (each registry stamps its epoch into the
//! upper bits), so the model never predicts raw id values; it tracks the
//! engine's issued handles positionally and only asserts that issuance is
//! monotonic and never reuses an id.
//!
//! The sweep runs under two quality policies of the engine under test:
//! `FullOnly` and `Pinned` to a ladder tier (so every serve is a degraded
//! serve and every registration prebuilds — and is charged for — the LOD
//! ladder). The same shadow model governs both: a degraded serve must
//! touch the LRU exactly like a full one. Every interleaving logs each
//! served frame's digest, so the replay tests pin the rasterization
//! bit-for-bit across runs while registration, serving, eviction and
//! re-registration interleave freely.

use gs_tg::core::Framebuffer;
use gs_tg::prelude::*;
use gs_tg::types::rng::Rng;
use splat_metrics::digest::Fnv1a64;
use std::sync::Arc;

const BYTE_BUDGET_SCENES: usize = 3;
const MAX_SCENES: usize = 4;
const OPS: usize = 200;

fn camera() -> Camera {
    Camera::look_at(
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        Vec3::Y,
        CameraIntrinsics::from_fov_y(1.0, 64, 48),
    )
}

/// FNV-1a digest of a framebuffer: dimensions, then every pixel's channels
/// in row-major order as `f32` bit patterns (same shape as the golden
/// suite's digest).
fn frame_digest(image: &Framebuffer) -> u64 {
    let mut hasher = Fnv1a64::new();
    hasher.write_u64(u64::from(image.width()));
    hasher.write_u64(u64::from(image.height()));
    for pixel in image.pixels() {
        hasher.write_f32(pixel.r);
        hasher.write_f32(pixel.g);
        hasher.write_f32(pixel.b);
    }
    hasher.finish()
}

/// The shadow model's view of one resident scene. `id` is the model's own
/// sequence number — an index into the issued-handle vec, not a raw
/// `SceneId` value.
#[derive(Debug, Clone, PartialEq)]
struct ModelScene {
    id: u64,
    footprint: usize,
    last_served: Option<u64>,
}

/// A pure re-statement of the documented residency rules.
#[derive(Debug, Default)]
struct Model {
    resident: Vec<ModelScene>,
    next_id: u64,
    serve_tick: u64,
    registered: u64,
    evicted: u64,
    hits: u64,
    misses: u64,
    max_bytes: usize,
    max_scenes: usize,
}

impl Model {
    fn resident_bytes(&self) -> usize {
        self.resident.iter().map(|scene| scene.footprint).sum()
    }

    fn register(&mut self, footprint: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.registered += 1;
        self.resident.push(ModelScene {
            id,
            footprint,
            last_served: None,
        });
        while self.resident.len() > self.max_scenes || self.resident_bytes() > self.max_bytes {
            let victim = self
                .resident
                .iter()
                .filter(|scene| scene.id != id)
                .min_by_key(|scene| (scene.last_served, scene.id))
                .map(|scene| scene.id)
                .expect("over budget with more than the protected scene resident");
            self.resident.retain(|scene| scene.id != victim);
            self.evicted += 1;
        }
        id
    }

    fn serve(&mut self, id: u64) -> bool {
        if let Some(scene) = self.resident.iter_mut().find(|scene| scene.id == id) {
            scene.last_served = Some(self.serve_tick);
            self.serve_tick += 1;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn evict(&mut self, id: u64) -> bool {
        let before = self.resident.len();
        self.resident.retain(|scene| scene.id != id);
        if self.resident.len() < before {
            self.evicted += 1;
            true
        } else {
            false
        }
    }
}

/// One randomized interleaving on an engine with the given quality policy;
/// returns an event log so determinism across runs can be asserted by
/// comparing whole logs (the log includes each served frame's digest,
/// pinning the rasterization at the policy's tier).
fn run_interleaving(seed: u64, quality: QualityPolicy) -> Vec<String> {
    // Two scene sizes so both budget axes bind: a run of large scenes
    // trips the byte budget below the scene cap, a run of small ones
    // trips the scene cap below the byte budget.
    let large = Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, seed));
    let small = Arc::new(large.truncated(large.len() / 2));
    // The residency charge per scene: the raw footprint, plus the LOD
    // ladder's tiers when the engine's quality policy can degrade (the
    // ladder is prebuilt at registration and billed to the byte budget).
    let charged = |scene: &Scene| {
        if quality.can_degrade() {
            scene.footprint_bytes() + LodLadder::build(scene).footprint_bytes()
        } else {
            scene.footprint_bytes()
        }
    };
    let max_bytes = BYTE_BUDGET_SCENES * charged(&large);
    let engine = Engine::builder()
        .residency(
            ResidencyPolicy::unlimited()
                .with_max_resident_bytes(max_bytes)
                .with_max_resident_scenes(MAX_SCENES),
        )
        .quality(quality)
        .build()
        .expect("valid engine configuration");
    let mut model = Model {
        max_bytes,
        max_scenes: MAX_SCENES,
        ..Model::default()
    };
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let camera = camera();
    let mut log = Vec::with_capacity(OPS);
    // The engine's issued handles, in issue order; the model's sequence
    // ids index into this vec.
    let mut issued: Vec<SceneId> = Vec::new();

    for op in 0..OPS {
        match rng.next_u64() % 10 {
            // Register a large or small scene (weight 4).
            0..=3 => {
                let scene = if rng.next_u64() % 2 == 0 {
                    &large
                } else {
                    &small
                };
                let expected = model.register(charged(scene));
                let id = engine
                    .register_scene(Arc::clone(scene))
                    .expect("scene fits the budget");
                assert!(!issued.contains(&id), "op {op}: id {id:?} was issued twice");
                if let Some(previous) = issued.last() {
                    assert!(
                        id.raw() > previous.raw(),
                        "op {op}: ids must be monotonic within one registry"
                    );
                }
                assert_eq!(expected, issued.len() as u64, "op {op}: model desynced");
                issued.push(id);
                log.push(format!("register {} -> {expected}", scene.len()));
            }
            // Serve a random issued handle (weight 4).
            4..=7 => {
                if issued.is_empty() {
                    log.push("serve skipped".to_owned());
                    continue;
                }
                let slot = (rng.next_u64() % issued.len() as u64) as usize;
                let expect_hit = model.serve(slot as u64);
                let result = engine
                    .submit(SubmitRequest::new(issued[slot], camera))
                    .and_then(|handle| handle.wait());
                match (expect_hit, &result) {
                    (true, Ok(output)) => log.push(format!(
                        "serve {slot} hit=true digest={:016x}",
                        frame_digest(&output.image)
                    )),
                    (false, Err(RenderError::Evicted { .. })) => {
                        log.push(format!("serve {slot} hit=false"));
                    }
                    other => panic!("op {op}: serve({slot}) mismatch: {other:?}"),
                }
            }
            // Explicit eviction of a random issued handle (weight 2).
            _ => {
                if issued.is_empty() {
                    log.push("evict skipped".to_owned());
                    continue;
                }
                let slot = (rng.next_u64() % issued.len() as u64) as usize;
                let expect_resident = model.evict(slot as u64);
                let result = engine.evict_scene(issued[slot]);
                match (expect_resident, &result) {
                    (true, Ok(())) => {}
                    (false, Err(RenderError::Evicted { .. })) => {}
                    other => panic!("op {op}: evict({slot}) mismatch: {other:?}"),
                }
                log.push(format!("evict {slot} resident={expect_resident}"));
            }
        }

        // Invariants after every operation.
        let stats = engine.stats();
        assert!(
            stats.resident_bytes <= max_bytes,
            "op {op}: resident bytes {} exceed the budget {max_bytes}",
            stats.resident_bytes
        );
        assert!(
            stats.resident_scenes <= MAX_SCENES,
            "op {op}: {} scenes resident, budget {MAX_SCENES}",
            stats.resident_scenes
        );
        for (identity, left, right) in stats.identities() {
            assert_eq!(left, right, "op {op}: {identity}");
        }
        // Exact agreement with the shadow model, including eviction order
        // (the resident id set only matches if every victim matched).
        let resident = engine.resident_scenes();
        let model_resident: Vec<SceneId> = model
            .resident
            .iter()
            .map(|scene| issued[scene.id as usize])
            .collect();
        assert_eq!(resident, model_resident, "op {op}: resident set diverged");
        assert_eq!(stats.resident_bytes, model.resident_bytes(), "op {op}");
        assert_eq!(stats.registered, model.registered, "op {op}");
        assert_eq!(stats.evicted, model.evicted, "op {op}");
        assert_eq!(stats.scene_hits, model.hits, "op {op}");
        assert_eq!(stats.scene_misses, model.misses, "op {op}");
    }
    log
}

#[test]
fn randomized_interleavings_respect_the_budget_and_pinned_lru_order() {
    for seed in 0..4 {
        run_interleaving(seed, QualityPolicy::FullOnly);
    }
}

#[test]
fn interleavings_are_deterministic_across_runs() {
    let first = run_interleaving(9, QualityPolicy::FullOnly);
    let second = run_interleaving(9, QualityPolicy::FullOnly);
    assert_eq!(first, second, "same seed must replay the same event log");
    assert!(
        first.iter().any(|line| line.contains("digest=")),
        "the interleaving must have served at least one frame"
    );
}

#[test]
fn degraded_interleavings_obey_the_same_residency_model() {
    // Register → degraded serve → evict → re-register, freely interleaved:
    // the pinned-tier engine must satisfy the identical shadow model — a
    // degraded serve refreshes recency, counts a hit and steers eviction
    // exactly like a full-quality serve, with the ladder charged to the
    // byte budget.
    for tier in [QualityTier::Tier1, QualityTier::Tier3] {
        for seed in 0..2 {
            run_interleaving(seed, QualityPolicy::Pinned(tier));
        }
    }
}

#[test]
fn degraded_interleavings_replay_identical_tier_digests() {
    // The degraded log embeds each served frame's digest, so log equality
    // pins the tier rasterization bit-for-bit across whole replayed
    // interleavings — not just the residency bookkeeping.
    let first = run_interleaving(11, QualityPolicy::Pinned(QualityTier::Tier3));
    let second = run_interleaving(11, QualityPolicy::Pinned(QualityTier::Tier3));
    assert_eq!(first, second, "same seed must replay the same digests");
    assert!(
        first.iter().any(|line| line.contains("digest=")),
        "the interleaving must have served at least one degraded frame"
    );
}

#[test]
fn degraded_serves_touch_the_lru_exactly_like_full_serves() {
    // Two engines, same registration and serve order, count-bounded
    // residency only (so ladder bytes cannot skew the comparison): one
    // serves at full quality, the other pinned to a degraded tier. Both
    // must pick the same LRU victim when a third scene arrives.
    let build = |seed| Arc::new(PaperScene::Train.build(SceneScale::Tiny, seed));
    let cam = camera();
    for quality in [
        QualityPolicy::FullOnly,
        QualityPolicy::Pinned(QualityTier::Tier3),
    ] {
        let engine = Engine::builder()
            .residency(ResidencyPolicy::unlimited().with_max_resident_scenes(2))
            .quality(quality)
            .build()
            .expect("valid engine configuration");
        let serve = |id| {
            engine
                .submit(SubmitRequest::new(id, cam))
                .and_then(JobHandle::wait)
        };
        let a = engine.register_scene(build(1)).expect("registered");
        let b = engine.register_scene(build(2)).expect("registered");
        // Serve B then A: B becomes the LRU victim.
        serve(b).expect("resident");
        serve(a).expect("resident");
        engine.register_scene(build(3)).expect("registered");
        assert!(
            matches!(serve(b), Err(RenderError::Evicted { .. })),
            "{quality:?}: B, the least recently served, is the victim"
        );
        assert!(serve(a).is_ok(), "{quality:?}: A survived");
    }
}
