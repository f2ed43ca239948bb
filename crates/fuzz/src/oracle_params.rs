//! Oracle 7: the [`ParamStore`] under real writer/reader contention.
//!
//! The asynchronous trainer's correctness rests on two store guarantees
//! that no unit test can exercise as hard as a fuzzer: snapshots are never
//! **torn** (a mix of two published vectors), and the epoch returned with a
//! snapshot is never **stale or recycled** (no ABA — the epoch always names
//! exactly the publish whose bytes were read). The oracle runs writer and
//! reader threads against one store:
//!
//! - every publish fills the whole vector with one uniform stamp drawn from
//!   a shared counter incremented *inside* the publish closure — writers
//!   are serialized by the store, so stamp `k` is exactly epoch `k`;
//! - every reader snapshot must be uniform (torn reads show up as two
//!   distinct stamps in one vector), must carry `epoch == stamp` (ABA /
//!   version-coherence), and epochs must be monotone per reader.
//!
//! Case parameters (vector length, writer/reader counts, publish budget)
//! are drawn from the iteration RNG; failing cases serialize to a tiny
//! `key=value` text format replayed from `crates/fuzz/corpus/*.params`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use rl_legalizer::ParamStore;

use crate::scenario::Scenario;
use crate::{Artifact, Failure};

/// One stress-case configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    /// Parameter-vector length (off word boundaries on purpose sometimes).
    pub n: usize,
    /// Concurrent publisher threads (serialized inside the store).
    pub writers: usize,
    /// Concurrent snapshot threads.
    pub readers: usize,
    /// Total publishes across all writers.
    pub publishes: u64,
}

impl Case {
    /// Draws a case from the iteration RNG.
    pub fn draw(rng: &mut impl Rng) -> Self {
        Self {
            n: rng.gen_range(1..400),
            writers: rng.gen_range(1..3),
            readers: rng.gen_range(1..4),
            publishes: rng.gen_range(64..1_500),
        }
    }

    /// Serializes to the `.params` corpus format.
    pub fn to_text(self) -> String {
        format!(
            "n={}\nwriters={}\nreaders={}\npublishes={}\n",
            self.n, self.writers, self.readers, self.publishes
        )
    }

    /// Parses the `.params` corpus format (one `key=value` per line; `#`
    /// comments and blank lines ignored).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut case = Self {
            n: 0,
            writers: 1,
            readers: 1,
            publishes: 0,
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("bad line (expected key=value): {line:?}"))?;
            let value = value.trim();
            let parsed: u64 = value
                .parse()
                .map_err(|e| format!("bad value for {key}: {e}"))?;
            match key.trim() {
                "n" => case.n = parsed as usize,
                "writers" => case.writers = parsed as usize,
                "readers" => case.readers = parsed as usize,
                "publishes" => case.publishes = parsed,
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if case.n == 0 || case.writers == 0 || case.readers == 0 {
            return Err("n, writers, and readers must all be nonzero".into());
        }
        Ok(case)
    }
}

/// Runs the store invariants for one fuzz iteration. Deterministic in
/// `params_seed` up to thread scheduling — which is the point: the
/// *invariants* must hold under every interleaving.
pub fn check(sc: &Scenario, params_seed: u64) -> Vec<Failure> {
    let mut rng = ChaCha8Rng::seed_from_u64(params_seed);
    let case = Case::draw(&mut rng);
    stress(case)
        .into_iter()
        .map(|message| Failure {
            oracle: "params",
            scenario: sc.label.clone(),
            message,
            artifact: Some(Artifact::ParamsCase(case.to_text())),
        })
        .collect()
}

/// Replays a corpus `.params` case. A parse error is itself a failure (a
/// corrupted corpus file must not silently pass).
pub fn replay(text: &str) -> Vec<Failure> {
    let case = match Case::parse(text) {
        Ok(c) => c,
        Err(e) => {
            return vec![Failure {
                oracle: "params",
                scenario: "corpus".into(),
                message: format!("unparseable .params case: {e}"),
                artifact: None,
            }]
        }
    };
    stress(case)
        .into_iter()
        .map(|message| Failure {
            oracle: "params",
            scenario: format!("corpus:{case:?}"),
            message,
            artifact: Some(Artifact::ParamsCase(case.to_text())),
        })
        .collect()
}

/// The actual stress run: returns invariant-violation messages.
fn stress(case: Case) -> Vec<String> {
    let store = ParamStore::new(vec![0.0; case.n]);
    // Stamp source shared by all writers; incremented inside the publish
    // closure (under the store's writer lock), so stamp k ⇔ epoch k.
    let next_stamp = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let per_writer = case.publishes / case.writers as u64;

    std::thread::scope(|scope| {
        let store = &store;
        let next_stamp = &next_stamp;
        let done = &done;
        let violations = &violations;
        for w in 0..case.writers {
            scope.spawn(move || {
                for _ in 0..per_writer {
                    let epoch = store.update(|p| {
                        let stamp = next_stamp.fetch_add(1, Ordering::Relaxed) + 1;
                        p.fill(stamp as f32);
                    });
                    // `update` holds the writer lock around the closure, so
                    // the epoch it returns must be the stamp just written.
                    let expected = next_stamp.load(Ordering::Relaxed);
                    if epoch > expected {
                        violations
                            .lock()
                            .unwrap()
                            .push(format!("writer {w}: epoch {epoch} beyond stamp {expected}"));
                    }
                }
                if w == 0 {
                    // Writer 0 waits for its siblings' stamps to settle
                    // before releasing the readers' final pass.
                    done.store(true, Ordering::Release);
                }
            });
        }
        for r in 0..case.readers {
            scope.spawn(move || {
                let mut snap = Vec::new();
                let mut last_epoch = 0u64;
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) || reads == 0 {
                    let epoch = store.read_into(&mut snap);
                    reads += 1;
                    let first = snap[0];
                    if snap.iter().any(|&x| x != first) {
                        violations.lock().unwrap().push(format!(
                            "reader {r}: torn snapshot at epoch {epoch}: \
                             {first} vs {:?}",
                            snap.iter().find(|&&x| x != first)
                        ));
                        break;
                    }
                    if first as u64 != epoch {
                        violations.lock().unwrap().push(format!(
                            "reader {r}: epoch {epoch} does not match stamp {first} (ABA)"
                        ));
                        break;
                    }
                    if epoch < last_epoch {
                        violations.lock().unwrap().push(format!(
                            "reader {r}: epoch went backwards: {last_epoch} -> {epoch}"
                        ));
                        break;
                    }
                    last_epoch = epoch;
                }
            });
        }
    });

    // Final state coherence: after all threads join, the snapshot must be
    // the very last stamp published.
    let last = next_stamp.load(Ordering::Relaxed);
    let mut v = violations.into_inner().unwrap();
    let final_snap = store.snapshot();
    if last > 0 && final_snap.iter().any(|&x| x as u64 != last) {
        v.push(format!(
            "final snapshot is not the last publish {last}: {:?}",
            &final_snap[..final_snap.len().min(4)]
        ));
    }
    if store.version() != last {
        v.push(format!(
            "final version {} != {} publishes",
            store.version(),
            last
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_text_round_trips() {
        let case = Case {
            n: 257,
            writers: 2,
            readers: 3,
            publishes: 1_000,
        };
        assert_eq!(Case::parse(&case.to_text()), Ok(case));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Case::parse("n=0\n").is_err());
        assert!(Case::parse("nonsense\n").is_err());
        assert!(Case::parse("n=1\nwhat=3\n").is_err());
    }

    #[test]
    fn clean_store_passes_the_stress() {
        let v = stress(Case {
            n: 65,
            writers: 2,
            readers: 2,
            publishes: 400,
        });
        assert!(v.is_empty(), "{v:?}");
    }
}
