//! Epoch-based snapshot publication for live stores.
//!
//! The paper's store is rebuilt offline ("the generation is done
//! off-line, e.g., in the evening"); a live deployment instead folds
//! sealed segments into the serving store while queries run. The consistency
//! contract is: **every query reads exactly one store generation** — a
//! comparison must never mix a pre-merge 1-D cube with a post-merge pair
//! cube, or its confidence ratios silently stop summing to the margins.
//!
//! [`SharedStore`] holds the current generation behind an
//! `RwLock<Arc<StoreSnapshot>>`. Readers clone the `Arc` once per query
//! (nanoseconds under `parking_lot`); writers build the next generation
//! off to the side and swap the pointer. Old generations stay alive until
//! their last reader drops — no torn reads, no reader stalls longer than
//! the pointer swap.

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::store::CubeStore;

/// One immutable, internally-consistent store generation.
///
/// Derefs to [`CubeStore`], so query code written against `&CubeStore`
/// works unchanged on a pinned snapshot.
pub struct StoreSnapshot {
    store: CubeStore,
    generation: u64,
}

impl StoreSnapshot {
    /// Monotonic generation number; 0 is the initial build.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The underlying store of this generation.
    pub fn store(&self) -> &CubeStore {
        &self.store
    }
}

impl Deref for StoreSnapshot {
    type Target = CubeStore;

    fn deref(&self) -> &CubeStore {
        &self.store
    }
}

/// Handle to the currently-published store generation. Cheap to clone;
/// all clones observe the same sequence of [`publish`](Self::publish)es.
#[derive(Clone)]
pub struct SharedStore {
    current: Arc<RwLock<Arc<StoreSnapshot>>>,
}

impl SharedStore {
    /// Wrap an initial store as generation 0.
    pub fn new(store: CubeStore) -> Self {
        Self {
            current: Arc::new(RwLock::new(Arc::new(StoreSnapshot {
                store,
                generation: 0,
            }))),
        }
    }

    /// Pin the current generation. The snapshot stays valid (and
    /// unchanging) however many publishes happen after this returns.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        self.current.read().clone()
    }

    /// Generation number of the currently-published snapshot.
    pub fn generation(&self) -> u64 {
        self.current.read().generation
    }

    /// Atomically publish `store` as the next generation and return its
    /// generation number. In-flight readers keep their pinned snapshot;
    /// new `snapshot()` calls see the new store.
    pub fn publish(&self, store: CubeStore) -> u64 {
        let mut current = self.current.write();
        let generation = current.generation + 1;
        *current = Arc::new(StoreSnapshot { store, generation });
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuildOptions;
    use om_synth::{generate_scaleup, ScaleUpConfig};

    fn store(n_records: usize, seed: u64) -> CubeStore {
        let ds = generate_scaleup(&ScaleUpConfig {
            n_attrs: 4,
            n_records,
            seed,
            ..ScaleUpConfig::default()
        });
        CubeStore::build(&ds, &StoreBuildOptions::default()).unwrap()
    }

    #[test]
    fn publish_bumps_generation_and_swaps_store() {
        let shared = SharedStore::new(store(500, 1));
        assert_eq!(shared.generation(), 0);
        let pinned = shared.snapshot();
        assert_eq!(shared.publish(store(800, 2)), 1);
        assert_eq!(shared.generation(), 1);
        // The pinned snapshot still reads generation 0's data.
        assert_eq!(pinned.generation(), 0);
        assert_eq!(pinned.total_records(), 500);
        assert_eq!(shared.snapshot().total_records(), 800);
    }

    #[test]
    fn deref_reaches_store_queries() {
        let shared = SharedStore::new(store(300, 3));
        let snap = shared.snapshot();
        // Deref coercion: StoreSnapshot behaves as &CubeStore.
        assert_eq!(snap.one_dim(snap.attrs()[0]).unwrap().total(), 300);
        assert_eq!(snap.store().total_records(), 300);
    }

    #[test]
    fn clones_observe_the_same_publishes() {
        let shared = SharedStore::new(store(100, 4));
        let other = shared.clone();
        shared.publish(store(200, 5));
        assert_eq!(other.generation(), 1);
        assert_eq!(other.snapshot().total_records(), 200);
    }
}
