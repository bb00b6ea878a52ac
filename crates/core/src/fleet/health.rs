//! Heartbeat-driven health: the monitor that flags a silent member's
//! queue and expires a dead one.
//!
//! The monitor ticks at half the heartbeat interval and reads each
//! member's silence (time since its last beat; an RPC member's
//! connection-level liveness probe counts as a beat on every pass). On
//! every pass it sets or clears the heartbeat-silent flag on an attached
//! member's queue from `silence >= suspect_after × interval`, for HTTP
//! and RPC members alike. That flag on the queue's breaker is the only
//! record of suspicion: the queue then reads `Health::Silent`, the p2c
//! scheduler deprioritizes it *before* its batches start failing, and
//! the member's view reads `"suspect"`. A beat, or a recovered RPC probe,
//! clears it. Crossing `expire_after × interval` expires the member: the
//! learned latency curve is harvested, the queue is gracefully drained
//! (zero-drop — every accepted query completes or fail-fills), and the
//! member becomes a tombstone whose persisted record warm-starts the
//! container when it re-registers.
//!
//! Expiry and [`Clipper::drain_suspect_replicas`] can race on the same
//! queue id (a dead replica is usually *both* silent and failing).
//! `ModelAbstractionLayer::remove_replica` removes under the replica
//! write lock — exactly one caller wins it — so both paths are
//! idempotent: the loser observes `NoReplicas`, skips the drain await,
//! and leaves the drain counter truthful.
//!
//! [`Clipper::drain_suspect_replicas`]: crate::Clipper::drain_suspect_replicas

use super::registry::{Fleet, FleetEvent};
use crate::api::{ReplicaRecord, REPLICA_STATE_EXPIRED};
use std::time::Duration;
use tokio::time::Instant;

impl Fleet {
    /// Spawn the health monitor task (tick = heartbeat interval / 2).
    /// The task runs until the runtime drops; spawn once per fleet.
    pub fn spawn_monitor(&self) -> tokio::task::JoinHandle<()> {
        let fleet = self.clone();
        let tick = (self.inner.cfg.heartbeat_interval / 2).max(Duration::from_millis(5));
        tokio::spawn(async move {
            loop {
                tokio::time::sleep(tick).await;
                fleet.check_members().await;
            }
        })
    }

    /// One monitor pass. Public so tests and benches can drive the state
    /// machine deterministically instead of racing the spawned task.
    pub async fn check_members(&self) {
        let interval = self.inner.cfg.heartbeat_interval;
        let suspect_after = interval * self.inner.cfg.suspect_after.max(1);
        let expire_after = interval * self.inner.cfg.expire_after.max(1);
        let mut attached = Vec::new();
        let mut to_expire: Vec<String> = Vec::new();
        {
            let mut members = self.inner.members.lock();
            let now = Instant::now();
            for (name, m) in members.iter_mut() {
                if m.expired {
                    continue;
                }
                // An RPC member's connection-level probe is its beat.
                if m.transport.as_ref().is_some_and(|t| t.is_healthy()) {
                    m.last_beat = now;
                }
                let silent = now - m.last_beat;
                if silent >= expire_after {
                    to_expire.push(name.clone());
                } else if let Some(qid) = &m.queue_id {
                    attached.push((name.clone(), m.model.clone(), qid.clone(), silent));
                }
            }
        }
        // Each queue's heartbeat flag, set or cleared outside the
        // membership lock; the event marks only a clear → set change.
        for (name, model, qid, silent) in attached {
            let suspect = silent >= suspect_after;
            if self
                .inner
                .mal
                .set_replica_suspect_hint(&model, &qid, suspect)
                && suspect
            {
                self.push_event(FleetEvent::Suspected {
                    container: name,
                    silent_ms: silent.as_millis() as u64,
                });
            }
        }
        for name in to_expire {
            self.expire(&name).await;
        }
    }

    /// Expire one member: harvest its tune, gracefully drain its queue
    /// (zero-drop), persist the tombstone record, and record the
    /// detection latency. Idempotent — a member already expired (or a
    /// queue already won by another drain path) is a no-op for the parts
    /// already done. Returns whether this call performed the transition.
    pub async fn expire(&self, name: &str) -> bool {
        // Phase 1, under the lock: claim the Expired transition and
        // steal the queue id so no second expiry can race past here.
        let (model, queue_id, silent_ms, record_seed) = {
            let mut members = self.inner.members.lock();
            let Some(m) = members.get_mut(name) else {
                return false;
            };
            if m.expired {
                return false;
            }
            m.expired = true;
            (
                m.model.clone(),
                m.queue_id.take(),
                m.last_beat.elapsed().as_millis() as u64,
                (m.capabilities.clone(),),
            )
        };
        // Phase 2, outside the lock: harvest (needs the queue alive),
        // then drain. `remove_replica` is exclusive — if the suspect
        // sweep already removed this queue id we lose cleanly.
        let mut tune = None;
        let mut drained = false;
        if let Some(qid) = &queue_id {
            tune = self.harvest_tune(&model, qid);
            if let Ok(queue) = self.inner.mal.remove_replica(&model, qid) {
                queue.drained().await;
                drained = true;
                self.inner.drains.inc();
            }
        }
        // Tombstone: a late heartbeat gets 410; a re-registration gets
        // the harvested tune back as its warm start. Keep a previously
        // persisted tune if this life never established one.
        let prior_tune = self.load_record(name).and_then(|r| r.tune);
        self.persist_record(&ReplicaRecord {
            container_name: name.to_string(),
            model_name: model.name.clone(),
            model_version: model.version,
            capabilities: record_seed.0,
            state: REPLICA_STATE_EXPIRED.to_string(),
            tune: tune.or(prior_tune),
        });
        self.inner.expiries.inc();
        self.push_event(FleetEvent::Expired {
            container: name.to_string(),
            silent_ms,
            drained,
        });
        true
    }
}
