//! The bounded MPMC job queue behind
//! [`Engine::submit`](crate::Engine::submit).
//!
//! Plain `std` synchronization only: one `LeafMutex` around the queue state
//! and two [`Condvar`]s (`not_empty` wakes workers, `not_full` wakes
//! blocked submitters). Dispatch pops the highest-priority job, FIFO within
//! a class; admission applies the configured [`AdmissionPolicy`] at the
//! door. Both rules are pure functions of the queue contents, which is what
//! keeps serving deterministic: with the `Block` policy and a single
//! worker, execution order *is* submission order.
//!
//! The two-timescale split of admission-control theory shows up here as
//! code structure: the fast path ([`JobQueue::push`] / [`JobQueue::pop`])
//! touches only the queue mutex, while the slow "policy" path — pause,
//! resume, shutdown — flips mode flags that the fast path merely reads.

use crate::job::JobShared;
use crate::policy::{AdmissionPolicy, QualityPolicy, ShutdownMode};
use crate::stats::EngineStats;
use crate::sync::LeafMutex;
use splat_scene::{LodLadder, QualityTier, Scene};
use splat_types::{Camera, Priority, RenderError};
use std::cmp::Reverse;
use std::sync::{Arc, Condvar};

/// One admitted job, owned by the queue until a worker pops it.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) priority: Priority,
    pub(crate) cost: u64,
    pub(crate) scene: Arc<Scene>,
    pub(crate) camera: Camera,
    /// Quality tier assigned at admission by the [`QualityPolicy`] from
    /// the queue state observed under the lock. Workers serve the job at
    /// this tier; it never changes after admission.
    pub(crate) tier: QualityTier,
    /// The scene's LOD ladder, prebuilt at registration whenever the
    /// engine's [`QualityPolicy`] can degrade — which is whenever `tier`
    /// can be a degraded one. Workers take the tier scene from here.
    pub(crate) ladder: Option<Arc<LodLadder>>,
    pub(crate) shared: Arc<JobShared>,
}

impl Job {
    /// Shedding order: the job that minimizes this key is the cheapest to
    /// reject — lowest priority class, then highest cost hint (rejecting
    /// it frees the most capacity), then latest arrival (earlier
    /// submissions keep their place).
    fn shed_key(&self) -> (Priority, Reverse<u64>, Reverse<u64>) {
        (self.priority, Reverse(self.cost), Reverse(self.id))
    }

    /// Dispatch order: the job that maximizes this key runs next —
    /// highest priority class, FIFO within a class.
    fn dispatch_key(&self) -> (Priority, Reverse<u64>) {
        (self.priority, Reverse(self.id))
    }
}

#[derive(Debug, Default)]
struct QueueInner {
    jobs: Vec<Job>,
    next_id: u64,
    paused: bool,
    draining: bool,
    aborted: bool,
    /// The job-side counters, mutated under the queue lock; the `queued`
    /// gauge is `jobs.len()`, filled at snapshot.
    stats: EngineStats,
}

/// The bounded MPMC queue: jobs enter through [`JobQueue::push`] (subject
/// to admission control) and leave through [`JobQueue::pop`] (priority
/// dispatch), [`JobQueue::cancel`] or shutdown.
#[derive(Debug)]
pub(crate) struct JobQueue {
    capacity: usize,
    /// The depth at which the admission policy actually fires. Equal to
    /// `capacity` under [`QualityPolicy::FullOnly`] / `Pinned`; doubled
    /// under `DegradeUnderPressure`, where the band `[capacity, 2*capacity)`
    /// admits jobs at degraded tiers instead of shedding them — the ladder
    /// is exhausted, and shedding begins, only at `2 * capacity`.
    bound: usize,
    policy: AdmissionPolicy,
    quality: QualityPolicy,
    inner: LeafMutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl JobQueue {
    pub(crate) fn new(
        policy: AdmissionPolicy,
        quality: QualityPolicy,
        default_capacity: usize,
    ) -> Self {
        let capacity = policy.capacity(default_capacity);
        let bound = if quality.extends_queue() {
            capacity.saturating_mul(2)
        } else {
            capacity
        };
        Self {
            capacity,
            bound,
            policy,
            quality,
            inner: LeafMutex::new("queue", QueueInner::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The admission capacity (maximum queued jobs before the quality
    /// ladder — and after it, the admission policy — reacts).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits one submission under the configured policy, returning its
    /// job id and admission-assigned tier, or the typed rejection.
    ///
    /// The job's [`QualityTier`] is decided here, under the queue lock,
    /// from the depth the submission observes — degradation is an
    /// admission-time decision, applied *before* the admission policy can
    /// shed: under [`QualityPolicy::DegradeUnderPressure`] the policy arms
    /// below only fire once the queue reaches twice its nominal capacity
    /// (the ladder is exhausted).
    pub(crate) fn push(
        &self,
        scene: Arc<Scene>,
        camera: Camera,
        priority: Priority,
        cost: u64,
        ladder: Option<Arc<LodLadder>>,
        shared: Arc<JobShared>,
    ) -> Result<(u64, QualityTier), RenderError> {
        let mut shed_victim: Option<Job> = None;
        let mut inner = self.inner.lock();
        loop {
            if inner.draining || inner.aborted {
                return Err(RenderError::ShutDown);
            }
            if inner.jobs.len() < self.bound {
                break;
            }
            match self.policy {
                AdmissionPolicy::Block => {
                    inner = inner.wait(&self.not_full);
                }
                AdmissionPolicy::RejectWhenFull => {
                    inner.stats.rejected += 1;
                    return Err(RenderError::Overloaded {
                        capacity: self.capacity,
                    });
                }
                AdmissionPolicy::ShedLowPriority { .. } => {
                    // The incoming job is by definition the latest arrival,
                    // so on a full (priority, cost) tie it is the one shed.
                    let Some(victim_index) = inner
                        .jobs
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, job)| job.shed_key())
                        .map(|(index, _)| index)
                    else {
                        // An empty queue cannot be full: there is room, so
                        // fall through to admission.
                        break;
                    };
                    let victim = &inner.jobs[victim_index];
                    let incoming_key = (priority, Reverse(cost), Reverse(u64::MAX));
                    if incoming_key <= victim.shed_key() {
                        inner.stats.rejected += 1;
                        return Err(RenderError::Overloaded {
                            capacity: self.capacity,
                        });
                    }
                    let victim = inner.jobs.swap_remove(victim_index);
                    inner.stats.rejected += 1;
                    inner.stats.shed += 1;
                    shed_victim = Some(victim);
                    break;
                }
            }
        }
        // Tier selection is a pure function of the depth observed under
        // the lock (jobs queued ahead of this one), so a replayed burst
        // degrades at exactly the same submissions.
        let tier = self.quality.tier_for(inner.jobs.len(), self.capacity);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.push(Job {
            id,
            priority,
            cost,
            scene,
            camera,
            tier,
            ladder,
            shared,
        });
        inner.stats.submitted += 1;
        let queued = inner.jobs.len();
        inner.stats.queue_high_water = inner.stats.queue_high_water.max(queued);
        drop(inner);
        self.not_empty.notify_one();
        if let Some(victim) = shed_victim {
            victim.shared.finish(Err(RenderError::Overloaded {
                capacity: self.capacity,
            }));
        }
        Ok((id, tier))
    }

    /// Blocks until a job is dispatchable and claims it, or returns `None`
    /// when the queue shut down (drained empty, or aborted).
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock();
        let index = loop {
            if inner.aborted {
                return None;
            }
            if !inner.paused {
                if let Some(index) = inner
                    .jobs
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, job)| job.dispatch_key())
                    .map(|(index, _)| index)
                {
                    break index;
                }
            }
            if inner.draining && inner.jobs.is_empty() {
                return None;
            }
            inner = inner.wait(&self.not_empty);
        };
        let job = inner.jobs.swap_remove(index);
        inner.stats.active += 1;
        drop(inner);
        self.not_full.notify_one();
        // More jobs may remain dispatchable; keep sibling workers awake.
        self.not_empty.notify_one();
        Some(job)
    }

    /// Records that a worker finished serving a popped job at `tier`,
    /// keeping the quality identities of [`EngineStats::identities`].
    pub(crate) fn mark_completed(&self, tier: QualityTier) {
        let mut inner = self.inner.lock();
        inner.stats.active -= 1;
        inner.stats.completed += 1;
        match tier {
            QualityTier::Full => inner.stats.full_quality += 1,
            QualityTier::Tier1 => {
                inner.stats.degraded += 1;
                inner.stats.degraded_t1 += 1;
            }
            QualityTier::Tier2 => {
                inner.stats.degraded += 1;
                inner.stats.degraded_t2 += 1;
            }
            QualityTier::Tier3 => {
                inner.stats.degraded += 1;
                inner.stats.degraded_t3 += 1;
            }
        }
    }

    /// Withdraws a still-queued job; `true` when it was found (its handle
    /// completes with `RenderError::Cancelled`).
    pub(crate) fn cancel(&self, id: u64) -> bool {
        let mut inner = self.inner.lock();
        let Some(index) = inner.jobs.iter().position(|job| job.id == id) else {
            return false;
        };
        let job = inner.jobs.swap_remove(index);
        inner.stats.cancelled += 1;
        drop(inner);
        self.not_full.notify_one();
        job.shared.finish(Err(RenderError::Cancelled));
        true
    }

    /// Stops dispatch: workers finish their current render and then wait.
    pub(crate) fn pause(&self) {
        self.inner.lock().paused = true;
    }

    /// Resumes dispatch after [`JobQueue::pause`].
    pub(crate) fn resume(&self) {
        self.inner.lock().paused = false;
        self.not_empty.notify_all();
    }

    /// Enters shutdown: `Drain` lets workers empty the queue (resuming a
    /// paused engine), `Abort` discards queued jobs (their handles complete
    /// with `RenderError::ShutDown`). Blocked submitters wake and receive
    /// `RenderError::ShutDown`; idempotent.
    pub(crate) fn shutdown(&self, mode: ShutdownMode) {
        let mut discarded = Vec::new();
        let mut inner = self.inner.lock();
        match mode {
            ShutdownMode::Drain => {
                inner.draining = true;
                inner.paused = false;
            }
            ShutdownMode::Abort => {
                inner.aborted = true;
                discarded = std::mem::take(&mut inner.jobs);
                inner.stats.cancelled += discarded.len() as u64;
            }
        }
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        for job in discarded {
            job.shared.finish(Err(RenderError::ShutDown));
        }
    }

    /// A point-in-time snapshot of the job-queue serving counters (the
    /// registry writes the scene-side counters on top).
    pub(crate) fn stats(&self) -> EngineStats {
        let inner = self.inner.lock();
        EngineStats {
            queued: inner.jobs.len(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_scene::{PaperScene, SceneScale};
    use splat_types::{CameraIntrinsics, Vec3};

    fn scene() -> Arc<Scene> {
        Arc::new(PaperScene::Playroom.build(SceneScale::Tiny, 0))
    }

    fn camera() -> Camera {
        Camera::look_at(
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::Y,
            CameraIntrinsics::from_fov_y(1.0, 64, 48),
        )
    }

    fn push(queue: &JobQueue, priority: Priority, cost: u64) -> Result<u64, RenderError> {
        queue
            .push(scene(), camera(), priority, cost, None, JobShared::new())
            .map(|(id, _)| id)
    }

    fn full_only(policy: AdmissionPolicy, default_capacity: usize) -> JobQueue {
        JobQueue::new(policy, QualityPolicy::FullOnly, default_capacity)
    }

    #[test]
    fn dispatch_is_priority_then_fifo() {
        let queue = full_only(AdmissionPolicy::Block, 16);
        push(&queue, Priority::Normal, 1).unwrap();
        push(&queue, Priority::High, 1).unwrap();
        push(&queue, Priority::Normal, 1).unwrap();
        push(&queue, Priority::Critical, 1).unwrap();
        let order: Vec<(Priority, u64)> = (0..4)
            .map(|_| queue.pop().map(|job| (job.priority, job.id)).unwrap())
            .collect();
        assert_eq!(
            order,
            vec![
                (Priority::Critical, 3),
                (Priority::High, 1),
                (Priority::Normal, 0),
                (Priority::Normal, 2),
            ]
        );
    }

    #[test]
    fn reject_when_full_turns_the_incoming_job_away() {
        let queue = full_only(AdmissionPolicy::RejectWhenFull, 2);
        push(&queue, Priority::Critical, 1).unwrap();
        push(&queue, Priority::Low, 1).unwrap();
        assert_eq!(
            push(&queue, Priority::Critical, 1),
            Err(RenderError::Overloaded { capacity: 2 })
        );
        let stats = queue.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queued, 2);
        assert_eq!(stats.queue_high_water, 2);
    }

    #[test]
    fn shedding_evicts_lowest_priority_then_highest_cost_then_youngest() {
        // No worker threads here: pops are explicit, so the queue need not
        // be paused for the admissions to stage deterministically.
        let queue = full_only(AdmissionPolicy::ShedLowPriority { capacity: 3 }, 64);
        let a = push(&queue, Priority::Low, 10).unwrap();
        let _b = push(&queue, Priority::Low, 30).unwrap(); // shed below
        let c = push(&queue, Priority::Normal, 10).unwrap();
        // Queue full. A high-priority arrival evicts the low class's
        // costliest job (b).
        let d = push(&queue, Priority::High, 5).unwrap();
        let ids: Vec<u64> = (0..3).map(|_| queue.pop().unwrap().id).collect();
        assert_eq!(ids, vec![d, c, a]);
        let stats = queue.stats();
        assert_eq!((stats.rejected, stats.shed), (1, 1), "b was a shed victim");
        for (identity, left, right) in stats.identities() {
            assert_eq!(left, right, "{identity}");
        }

        // A (priority, cost) tie among queued jobs sheds the youngest.
        let queue = full_only(AdmissionPolicy::ShedLowPriority { capacity: 2 }, 64);
        let older = push(&queue, Priority::Low, 10).unwrap();
        let _younger = push(&queue, Priority::Low, 10).unwrap(); // shed below
        let high = push(&queue, Priority::High, 5).unwrap();
        let ids: Vec<u64> = (0..2).map(|_| queue.pop().unwrap().id).collect();
        assert_eq!(ids, vec![high, older]);
    }

    #[test]
    fn incoming_job_loses_shedding_ties() {
        let queue = full_only(AdmissionPolicy::ShedLowPriority { capacity: 2 }, 64);
        push(&queue, Priority::Normal, 10).unwrap();
        push(&queue, Priority::Normal, 10).unwrap();
        // Same priority, same cost: the incoming job is the latest arrival
        // and is the one deflated.
        assert_eq!(
            push(&queue, Priority::Normal, 10),
            Err(RenderError::Overloaded { capacity: 2 })
        );
        // Lower priority incoming: also rejected outright.
        assert_eq!(
            push(&queue, Priority::Low, 1),
            Err(RenderError::Overloaded { capacity: 2 })
        );
        let stats = queue.stats();
        assert_eq!(stats.queued, 2);
        assert_eq!((stats.rejected, stats.shed), (2, 0), "refused at the door");
    }

    #[test]
    fn cancel_frees_the_slot_and_reports_cancelled() {
        let queue = full_only(AdmissionPolicy::Block, 4);
        let id = push(&queue, Priority::Normal, 1).unwrap();
        assert!(queue.cancel(id));
        assert!(!queue.cancel(id), "second cancel finds nothing");
        let stats = queue.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn drain_shutdown_serves_the_backlog_then_stops() {
        let queue = full_only(AdmissionPolicy::Block, 4);
        queue.pause();
        push(&queue, Priority::Normal, 1).unwrap();
        push(&queue, Priority::Normal, 1).unwrap();
        queue.shutdown(ShutdownMode::Drain);
        assert_eq!(
            push(&queue, Priority::Normal, 1),
            Err(RenderError::ShutDown)
        );
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none(), "drained queue stops the workers");
    }

    #[test]
    fn abort_shutdown_discards_the_backlog() {
        let queue = full_only(AdmissionPolicy::Block, 4);
        let shared = JobShared::new();
        queue
            .push(
                scene(),
                camera(),
                Priority::Normal,
                1,
                None,
                Arc::clone(&shared),
            )
            .unwrap();
        queue.shutdown(ShutdownMode::Abort);
        assert!(queue.pop().is_none());
        assert_eq!(queue.stats().cancelled, 1);
    }

    #[test]
    fn pause_gates_dispatch_without_refusing_admission() {
        let queue = Arc::new(full_only(AdmissionPolicy::Block, 4));
        queue.pause();
        push(&queue, Priority::Normal, 1).unwrap();
        // A popper blocks while paused; resuming releases it.
        let popper = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop().map(|job| job.id))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!popper.is_finished(), "pop must wait while paused");
        queue.resume();
        assert_eq!(popper.join().unwrap(), Some(0));
    }

    #[test]
    fn degrade_under_pressure_admits_into_the_extended_band_before_shedding() {
        // Nominal capacity 4, ladder enabled: the band [4, 8) admits at
        // degraded tiers; shedding only starts at depth 8.
        let queue = JobQueue::new(
            AdmissionPolicy::ShedLowPriority { capacity: 4 },
            QualityPolicy::degrade_default(),
            64,
        );
        let mut outcomes = Vec::new();
        for _ in 0..16 {
            outcomes.push(push(&queue, Priority::Normal, 10).is_ok());
        }
        assert_eq!(
            outcomes,
            [
                true, true, true, true, // full band [0, 4)
                true, true, true, true, // degraded band [4, 8)
                false, false, false, false, false, false, false, false,
            ],
            "first 2x capacity admissions succeed, the rest shed"
        );
        let stats = queue.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.rejected, 8);

        // The identical burst against a FullOnly queue sheds strictly more.
        let full_only_queue = full_only(AdmissionPolicy::ShedLowPriority { capacity: 4 }, 64);
        for _ in 0..16 {
            let _ = push(&full_only_queue, Priority::Normal, 10);
        }
        assert_eq!(full_only_queue.stats().rejected, 12);
        assert!(stats.rejected < full_only_queue.stats().rejected);

        // Tier assignment followed the depth bands deterministically
        // (dispatch is FIFO here: one priority class, ids in order).
        let tiers: Vec<QualityTier> = (0..8).map(|_| queue.pop().unwrap().tier).collect();
        assert_eq!(
            tiers,
            vec![
                QualityTier::Full,
                QualityTier::Full,
                QualityTier::Tier1,
                QualityTier::Tier2,
                QualityTier::Tier3,
                QualityTier::Tier3,
                QualityTier::Tier3,
                QualityTier::Tier3,
            ]
        );
    }

    #[test]
    fn full_only_and_pinned_policies_keep_the_nominal_bound() {
        let pinned = JobQueue::new(
            AdmissionPolicy::RejectWhenFull,
            QualityPolicy::Pinned(QualityTier::Tier2),
            2,
        );
        assert!(push(&pinned, Priority::Normal, 1).is_ok());
        assert!(push(&pinned, Priority::Normal, 1).is_ok());
        // Pinned quality does not extend the queue: the third submission
        // is rejected at the nominal capacity, but every admitted job
        // carries the pinned tier.
        assert_eq!(
            push(&pinned, Priority::Normal, 1),
            Err(RenderError::Overloaded { capacity: 2 })
        );
        assert_eq!(queue_tiers(&pinned, 2), vec![QualityTier::Tier2; 2]);
    }

    fn queue_tiers(queue: &JobQueue, n: usize) -> Vec<QualityTier> {
        (0..n).map(|_| queue.pop().unwrap().tier).collect()
    }

    #[test]
    fn completion_counters_split_by_tier_and_reconcile() {
        let queue = JobQueue::new(
            AdmissionPolicy::ShedLowPriority { capacity: 2 },
            QualityPolicy::degrade_default(),
            64,
        );
        for _ in 0..4 {
            push(&queue, Priority::Normal, 1).unwrap();
        }
        // Depths 0..3 of capacity 2: 0% -> Full, 50% -> T1, 100% -> T3,
        // 150% -> T3.
        for _ in 0..4 {
            let job = queue.pop().unwrap();
            queue.mark_completed(job.tier);
        }
        let stats = queue.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.full_quality, 1);
        assert_eq!(stats.degraded, 3);
        assert_eq!(stats.degraded_t1, 1);
        assert_eq!(stats.degraded_t2, 0);
        assert_eq!(stats.degraded_t3, 2);
        for (identity, left, right) in stats.identities() {
            assert_eq!(left, right, "{identity}");
        }
    }

    #[test]
    fn blocked_submitter_wakes_when_a_slot_frees() {
        let queue = Arc::new(full_only(AdmissionPolicy::Block, 1));
        let first = push(&queue, Priority::Normal, 1).unwrap();
        let submitter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || push(&queue, Priority::Normal, 1))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !submitter.is_finished(),
            "submit must block on a full queue"
        );
        assert!(queue.cancel(first));
        assert!(submitter.join().unwrap().is_ok());
        assert_eq!(queue.stats().queued, 1);
    }
}
