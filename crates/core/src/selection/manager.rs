//! Contextual selection-state management (§5.3).
//!
//! "The model selection layer can be configured to instantiate a unique
//! model selection state for each user, context, or session", held in an
//! external store (the paper uses Redis; we use `clipper-statestore`).
//! Updates are optimistic read-modify-write: feedback for the same context
//! arriving concurrently retries on CAS conflict until it is stored, so no
//! observation is dropped. A conflict means another writer's update landed,
//! so some caller always makes progress and the loop needs no retry budget.
//!
//! The state crosses the store as JSON (`serde_json`), decoded on every
//! predict and re-encoded on every feedback — one pass over the bytes each
//! way, allocating only the state's own vectors and model names.

use super::{PolicyState, SelectionPolicy};
use crate::types::ModelId;
use clipper_statestore::{CasOutcome, StateStore};
use std::sync::Arc;

/// Manages per-(app, context) policy state in a statestore.
#[derive(Clone)]
pub struct SelectionStateManager {
    store: Arc<StateStore>,
}

/// Errors from state management.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum StateError {
    /// State bytes failed to deserialize (e.g. version skew).
    Corrupt(String),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Corrupt(m) => write!(f, "corrupt selection state: {m}"),
        }
    }
}

impl std::error::Error for StateError {}

impl SelectionStateManager {
    /// Create a manager over `store`.
    pub(crate) fn new(store: Arc<StateStore>) -> Self {
        SelectionStateManager { store }
    }

    fn key(app: &str, context: Option<&str>) -> String {
        format!("selstate/{app}/{}", context.unwrap_or("_global"))
    }

    /// Hash a context name into a stable per-context seed component.
    fn context_seed(app_seed: u64, context: Option<&str>) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        app_seed.hash(&mut h);
        context.unwrap_or("_global").hash(&mut h);
        h.finish()
    }

    /// Fetch the state for `(app, context)`, initializing it (and storing
    /// the initial copy) if absent.
    pub(crate) fn get_or_init(
        &self,
        app: &str,
        context: Option<&str>,
        policy: &dyn SelectionPolicy,
        models: &[ModelId],
        app_seed: u64,
    ) -> Result<PolicyState, StateError> {
        let key = Self::key(app, context);
        if let Some(bytes) = self.store.get(&key) {
            return serde_json::from_slice(&bytes).map_err(|e| StateError::Corrupt(e.to_string()));
        }
        let state = policy.init(models, Self::context_seed(app_seed, context));
        let bytes = serde_json::to_vec(&state).expect("policy state serializes");
        // Lost race is fine: read back the winner.
        if !self.store.set_nx(&key, bytes) {
            if let Some(bytes) = self.store.get(&key) {
                return serde_json::from_slice(&bytes)
                    .map_err(|e| StateError::Corrupt(e.to_string()));
            }
        }
        Ok(state)
    }

    /// Read-modify-write the state under optimistic concurrency, retrying
    /// until the write is stored.
    pub(crate) fn update<F>(
        &self,
        app: &str,
        context: Option<&str>,
        policy: &dyn SelectionPolicy,
        models: &[ModelId],
        app_seed: u64,
        mut mutate: F,
    ) -> Result<PolicyState, StateError>
    where
        F: FnMut(&mut PolicyState),
    {
        let key = Self::key(app, context);
        loop {
            // Ensure it exists.
            let (bytes, version) = match self.store.get_versioned(&key) {
                Some(x) => x,
                None => {
                    let state = policy.init(models, Self::context_seed(app_seed, context));
                    let bytes = serde_json::to_vec(&state).expect("state serializes");
                    self.store.set_nx(&key, bytes);
                    continue;
                }
            };
            let mut state: PolicyState =
                serde_json::from_slice(&bytes).map_err(|e| StateError::Corrupt(e.to_string()))?;
            mutate(&mut state);
            let new_bytes = serde_json::to_vec(&state).expect("state serializes");
            if let CasOutcome::Stored(_) = self.store.cas(&key, version, new_bytes) {
                return Ok(state);
            }
        }
    }

    /// Number of stored contexts across all apps.
    pub fn context_count(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::policies::Exp3Policy;

    fn models(n: usize) -> Vec<ModelId> {
        (0..n).map(|i| ModelId::new(&format!("m{i}"), 1)).collect()
    }

    fn manager() -> SelectionStateManager {
        SelectionStateManager::new(Arc::new(StateStore::new()))
    }

    #[test]
    fn init_then_get_is_stable() {
        let mgr = manager();
        let p = Exp3Policy::new(0.1);
        let ms = models(3);
        let s1 = mgr.get_or_init("app", Some("user1"), &p, &ms, 7).unwrap();
        let s2 = mgr.get_or_init("app", Some("user1"), &p, &ms, 7).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.models, ms);
    }

    #[test]
    fn contexts_are_isolated() {
        let mgr = manager();
        let p = Exp3Policy::new(0.1);
        let ms = models(2);
        mgr.update("app", Some("u1"), &p, &ms, 0, |s| s.weights[0] = 9.0)
            .unwrap();
        let s1 = mgr.get_or_init("app", Some("u1"), &p, &ms, 0).unwrap();
        let s2 = mgr.get_or_init("app", Some("u2"), &p, &ms, 0).unwrap();
        assert_eq!(s1.weights[0], 9.0);
        assert_eq!(s2.weights[0], 1.0);
        assert_eq!(mgr.context_count(), 2);
    }

    #[test]
    fn different_contexts_get_different_seeds() {
        let mgr = manager();
        let p = Exp3Policy::new(0.1);
        let ms = models(2);
        let s1 = mgr.get_or_init("app", Some("u1"), &p, &ms, 0).unwrap();
        let s2 = mgr.get_or_init("app", Some("u2"), &p, &ms, 0).unwrap();
        assert_ne!(s1.seed, s2.seed);
    }

    #[test]
    fn update_persists() {
        let mgr = manager();
        let p = Exp3Policy::new(0.1);
        let ms = models(2);
        mgr.update("app", None, &p, &ms, 0, |s| {
            s.total = 41;
        })
        .unwrap();
        mgr.update("app", None, &p, &ms, 0, |s| {
            s.total += 1;
        })
        .unwrap();
        let s = mgr.get_or_init("app", None, &p, &ms, 0).unwrap();
        assert_eq!(s.total, 42);
    }

    #[test]
    fn concurrent_updates_all_land() {
        let mgr = manager();
        let p = Arc::new(Exp3Policy::new(0.1));
        let ms = models(2);
        // Pre-create.
        mgr.get_or_init("app", None, p.as_ref(), &ms, 0).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let mgr = mgr.clone();
            let p = p.clone();
            let ms = ms.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    mgr.update("app", None, p.as_ref(), &ms, 0, |s| s.total += 1)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = mgr.get_or_init("app", None, p.as_ref(), &ms, 0).unwrap();
        assert_eq!(s.total, 400, "no lost updates under contention");
    }

    #[test]
    fn corrupt_state_is_reported() {
        let mgr = manager();
        let p = Exp3Policy::new(0.1);
        let ms = models(2);
        // Write garbage where state should be.
        let store = Arc::new(StateStore::new());
        store.set("selstate/app/_global", b"not json".to_vec());
        let mgr2 = SelectionStateManager::new(store);
        assert!(matches!(
            mgr2.get_or_init("app", None, &p, &ms, 0),
            Err(StateError::Corrupt(_))
        ));
        // The clean manager still works.
        assert!(mgr.get_or_init("app", None, &p, &ms, 0).is_ok());
    }
}
