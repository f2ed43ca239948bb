//! The versioned parameter store behind asynchronous A3C.
//!
//! Algorithm 1's agents share one global network: each copies it into its
//! local network at episode start (`θ' ← θ`, line 4) and applies its
//! gradients to it. [`ParamStore`] is one mutex over the parameter vector
//! and its publish count. [`update`](ParamStore::update) runs the caller's
//! closure and bumps the version under the lock, and
//! [`read_into`](ParamStore::read_into) copies under it, so a snapshot is
//! always a bit-exact copy of one published vector and the epoch returned
//! with it names exactly that publish — the properties the `params` fuzz
//! oracle checks under writer/reader contention.
//!
//! The trainer takes its optimizer lock before the store's (lock order
//! opt → store), so writers already run one at a time; the critical
//! section is one Adam step or one copy of the vector.

use parking_lot::Mutex;

// Only the unit tests use atomics; they import this via `use super::*`.
#[cfg(test)]
use std::sync::atomic::Ordering;

/// The parameters and the number of publishes that produced them.
struct Published {
    params: Vec<f32>,
    version: u64,
}

/// A versioned parameter vector behind one lock.
///
/// The length is fixed at construction: [`update`](Self::update) hands
/// its closure a slice (parameter vectors never change shape
/// mid-training).
pub struct ParamStore {
    inner: Mutex<Published>,
}

impl std::fmt::Debug for ParamStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ParamStore")
            .field("len", &inner.params.len())
            .field("version", &inner.version)
            .finish()
    }
}

impl ParamStore {
    /// Creates a store holding `initial` as published version 0.
    pub fn new(initial: Vec<f32>) -> Self {
        Self {
            inner: Mutex::new(Published {
                params: initial,
                version: 0,
            }),
        }
    }

    /// Number of parameters stored.
    pub fn len(&self) -> usize {
        self.inner.lock().params.len()
    }

    /// `true` when the parameter vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of publishes so far (the epoch of the newest snapshot).
    pub fn version(&self) -> u64 {
        self.inner.lock().version
    }

    /// Applies `f` to the parameters and publishes the result as a new
    /// version, both under the store's lock.
    ///
    /// Returns the epoch of the published version.
    pub fn update(&self, f: impl FnOnce(&mut [f32])) -> u64 {
        let mut inner = self.inner.lock();
        f(&mut inner.params);
        inner.version += 1;
        inner.version
    }

    /// Copies the newest published parameters into `out` (resized to fit)
    /// and returns their epoch.
    pub fn read_into(&self, out: &mut Vec<f32>) -> u64 {
        let inner = self.inner.lock();
        out.clear();
        out.extend_from_slice(&inner.params);
        inner.version
    }

    /// A fresh snapshot of the newest published parameters.
    pub fn snapshot(&self) -> Vec<f32> {
        self.inner.lock().params.clone()
    }

    /// Consumes the store, returning the newest parameters without a copy.
    pub fn into_inner(self) -> Vec<f32> {
        self.inner.into_inner().params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn initial_version_is_zero_and_readable() {
        let s = ParamStore::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.version(), 0);
        assert_eq!(s.len(), 3);
        let mut out = Vec::new();
        assert_eq!(s.read_into(&mut out), 0);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn updates_bump_the_epoch_and_publish_bit_exactly() {
        let s = ParamStore::new(vec![0.0; 4]);
        // Values chosen to be bit-pattern-sensitive (subnormals, -0.0).
        let payload = [f32::from_bits(1), -0.0, 1.5e-42, f32::MAX];
        let v = s.update(|p| p.copy_from_slice(&payload));
        assert_eq!(v, 1);
        assert_eq!(s.version(), 1);
        let snap = s.snapshot();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&snap), bits(&payload));
        for k in 2..10 {
            assert_eq!(s.update(|p| p[0] += 1.0), k);
        }
        assert_eq!(s.snapshot()[0] as u64 + 1, 9);
    }

    #[test]
    fn concurrent_readers_never_see_torn_snapshots() {
        // Every publish writes one uniform stamp across the vector, so any
        // torn snapshot is detectable as two distinct values.
        let n = 257; // off word-boundary on purpose
        let s = ParamStore::new(vec![0.0; n]);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let s = &s;
            let stop = &stop;
            scope.spawn(move || {
                for stamp in 1..3_000u32 {
                    s.update(|p| p.fill(stamp as f32));
                }
                stop.store(true, Ordering::Release);
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let epoch = s.read_into(&mut out);
                        assert!(epoch >= last_epoch, "epoch went backwards");
                        last_epoch = epoch;
                        let first = out[0];
                        assert!(
                            out.iter().all(|&x| x.to_bits() == first.to_bits()),
                            "torn snapshot at epoch {epoch}: {first} vs mixed tail"
                        );
                        // The stamp and the epoch advance in lockstep.
                        assert_eq!(first as u64, epoch, "snapshot from a different epoch");
                    }
                });
            }
        });
        assert_eq!(s.version(), 2_999);
    }
}
