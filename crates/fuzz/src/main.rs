//! `rlleg-fuzz` CLI: seeded differential fuzzing across the pipeline.
//!
//! ```text
//! cargo run -p rlleg-fuzz -- --iters 200 --seed 1
//! cargo run -p rlleg-fuzz -- --iters 50 --seed 1 --corpus crates/fuzz/corpus
//! ```
//!
//! Exit code 0 when every iteration holds all invariants, 1 otherwise.
//! Failing iterations write their minimized repro artifacts into the
//! corpus directory (committed cases there double as regression tests via
//! `crates/fuzz/tests/corpus.rs`).

use std::io::Write as _;
use std::path::PathBuf;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlleg_fuzz::{run_iteration_filtered, Artifact, Failure};
use rlleg_serve::job::{state, JobOutcome};
use rlleg_serve::proto::JobSpec;
use rlleg_serve::wal::Wal;

struct Args {
    raw: Vec<String>,
}

impl Args {
    fn from_env() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }
}

fn main() {
    let args = Args::from_env();
    if args.flag("--help") || args.flag("-h") {
        eprintln!(
            "rlleg-fuzz: differential fuzzing across the legalization pipeline\n\
             \n\
             USAGE: rlleg-fuzz [--iters N] [--seed S] [--corpus DIR] [--only ORACLE] [--quiet]\n\
             \n\
             --iters N     iterations to run (default 100)\n\
             --seed S      base seed (default 1)\n\
             --corpus DIR  where failing repros are written (default crates/fuzz/corpus)\n\
             --only ORACLE run a single oracle: legalize|parse|grid|nn|fault|proto|params|gplace|wal\n\
             --quiet       suppress the per-failure log lines"
        );
        return;
    }
    if args.raw.iter().any(|a| a == "--wal-victim") {
        wal_victim_main(&args);
    }
    let iters: u64 = args.get("--iters", 100);
    let seed: u64 = args.get("--seed", 1);
    let corpus: PathBuf = PathBuf::from(args.get(
        "--corpus",
        String::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus")),
    ));
    let quiet = args.flag("--quiet");
    let only = args.get("--only", String::new());
    let only = (!only.is_empty()).then_some(only);
    if let Some(o) = &only {
        if ![
            "legalize", "parse", "grid", "nn", "fault", "proto", "params", "gplace", "wal",
        ]
        .contains(&o.as_str())
        {
            eprintln!(
                "rlleg-fuzz: unknown oracle `{o}` \
                 (legalize|parse|grid|nn|fault|proto|params|gplace|wal)"
            );
            std::process::exit(2);
        }
    }

    telemetry::enable();
    let t0 = std::time::Instant::now();
    let mut total_failures = 0usize;
    let mut failing_iters = 0u64;

    for iter in 0..iters {
        let mut failures = run_iteration_filtered(seed, iter, only.as_deref());
        // The in-process wal oracle simulates kills; a sampled subset of
        // iterations also SIGKILLs a real child process mid-append and
        // audits the journal it left behind.
        let wants_wal = only.as_deref().is_none_or(|o| o == "wal");
        if wants_wal && iter.is_multiple_of(16) {
            failures.extend(wal_kill_check(seed, iter));
        }
        if failures.is_empty() {
            continue;
        }
        failing_iters += 1;
        for (n, f) in failures.iter().enumerate() {
            total_failures += 1;
            if !quiet {
                eprintln!("iter {iter}: {f}");
            }
            if let Some(artifact) = &f.artifact {
                let stem = format!("fuzz_s{seed}_i{iter}_{n}");
                if let Err(e) = write_artifact(&corpus, &stem, f, artifact) {
                    eprintln!("iter {iter}: could not write repro {stem}: {e}");
                }
            }
        }
    }

    let elapsed = t0.elapsed().as_secs_f64();
    let per_oracle: Vec<String> = [
        "legalize", "parse", "grid", "nn", "fault", "proto", "params", "gplace", "wal",
    ]
    .iter()
    .map(|o| {
        let h = telemetry::histogram(
            &format!("fuzz.oracle.{o}.seconds"),
            telemetry::buckets::SECONDS,
        )
        .snapshot();
        format!("{o} p50 {:.1}ms", h.quantile(0.5) * 1e3)
    })
    .collect();
    println!(
        "rlleg-fuzz: {iters} iterations, seed {seed}, {elapsed:.1}s ({})",
        per_oracle.join(", ")
    );
    if total_failures == 0 {
        println!("rlleg-fuzz: all invariants held");
    } else {
        println!(
            "rlleg-fuzz: {total_failures} failures across {failing_iters} iterations; \
             repros in {}",
            corpus.display()
        );
        std::process::exit(1);
    }
}

/// The deterministic result a victim job `id` produces — the parent
/// recomputes it to detect a divergent re-run after recovery.
fn victim_outcome(id: u64, seed: u64) -> JobOutcome {
    JobOutcome {
        ok: true,
        def: format!("RESULT-{id}-{seed}"),
        stats: format!("{{\"id\":{id}}}"),
    }
}

/// Child half of the kill test: journals job lifecycles as fast as it can,
/// reporting each *durably acknowledged* transition on stdout (`A`/`D`/`F`
/// after the fsynced append returns, `c` *before* a cancel append so the
/// parent can tell an unreported-but-persisted cancel from a lost job).
/// The parent SIGKILLs it at an arbitrary point; everything this process
/// printed must be recoverable from the journal it left behind.
fn wal_victim_main(args: &Args) -> ! {
    let dir = PathBuf::from(args.get("--wal-victim", String::new()));
    let seed: u64 = args.get("--seed", 1);
    let (wal, _, _) = Wal::open(&dir, 8192).expect("victim: journal open");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut say = |line: String| {
        // Line-by-line flush: anything the parent reads back was written
        // strictly after the corresponding fsync returned.
        writeln!(out, "{line}").expect("victim stdout");
        out.flush().expect("victim stdout flush");
    };
    for id in 1..=100_000u64 {
        let spec = JobSpec {
            def: format!("VICTIM-{id}-{seed}"),
            ..JobSpec::default()
        };
        wal.append_accepted(id, 1_700_000_000_000 + id, &spec)
            .expect("victim: accepted append");
        say(format!("A {id}"));
        wal.append_running(id, 1);
        match rng.gen_range(0..4u32) {
            0 => {} // left running: recovery must re-queue it
            1 => {
                wal.append_done(id, &victim_outcome(id, seed));
                say(format!("D {id}"));
            }
            2 => {
                wal.append_failed(id, "victim failure");
                say(format!("F {id}"));
            }
            _ => {
                say(format!("c {id}"));
                wal.append_cancelled(id);
                say(format!("C {id}"));
            }
        }
        wal.maybe_rotate();
    }
    std::process::exit(0);
}

/// Parent half: spawn the victim, SIGKILL it mid-stream after a seeded
/// wall-clock delay, replay the journal it left, and hold the durability
/// invariant — every acknowledged job is re-queued or served with a
/// bit-identical result; none disappears, none diverges.
///
/// Unlike the in-process crash-point replay, this check is not
/// deterministic in the seed: the seed fixes the victim's job stream and
/// the delay, but how far the victim got when the signal lands depends on
/// scheduling. A failure's repro is its WAL-segment artifact, not its
/// `--seed`; its message carries the kill delay.
fn wal_kill_check(seed: u64, iter: u64) -> Vec<Failure> {
    let child_seed = seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let delay_ms = 2 + child_seed % 40;
    let fail = |message: String, segment: Vec<u8>| Failure {
        oracle: "wal",
        scenario: format!("kill-victim i{iter}"),
        message: format!("{message} (SIGKILL after {delay_ms} ms)"),
        artifact: Some(Artifact::WalSegmentHex(rlleg_fuzz::oracle_proto::to_hex(
            &segment,
        ))),
    };
    let dir = std::env::temp_dir().join(format!(
        "rlleg-fuzz-walkill-{}-{seed}-{iter}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return vec![fail(format!("current_exe: {e}"), Vec::new())],
    };
    let mut child = match std::process::Command::new(exe)
        .arg("--wal-victim")
        .arg(&dir)
        .arg("--seed")
        .arg(child_seed.to_string())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return vec![fail(format!("spawn victim: {e}"), Vec::new())],
    };
    // A seeded few milliseconds of journalling, then SIGKILL — no drain,
    // no flush, exactly the crash the journal exists for.
    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
    let _ = child.kill();
    let output = match child.wait_with_output() {
        Ok(o) => o,
        Err(e) => return vec![fail(format!("reap victim: {e}"), Vec::new())],
    };
    let ledger = String::from_utf8_lossy(&output.stdout).into_owned();
    let mut acked: Vec<u64> = Vec::new();
    let mut done = std::collections::BTreeSet::new();
    let mut failed = std::collections::BTreeSet::new();
    let mut cancel_intent = std::collections::BTreeSet::new();
    for line in ledger.lines() {
        let mut w = line.split_whitespace();
        let (Some(tag), Some(id)) = (w.next(), w.next().and_then(|s| s.parse::<u64>().ok())) else {
            continue;
        };
        match tag {
            "A" => acked.push(id),
            "D" => {
                done.insert(id);
            }
            "F" => {
                failed.insert(id);
            }
            "c" | "C" => {
                cancel_intent.insert(id);
            }
            _ => {}
        }
    }
    let segment = || {
        std::fs::read_dir(&dir)
            .ok()
            .and_then(|rd| {
                let mut segs: Vec<_> = rd.filter_map(Result::ok).map(|e| e.path()).collect();
                segs.sort();
                segs.pop()
            })
            .and_then(|p| std::fs::read(p).ok())
            .unwrap_or_default()
    };
    let mut failures = Vec::new();
    match Wal::open(&dir, 8192) {
        Ok((_, recovered, _)) => {
            let live: std::collections::BTreeMap<u64, _> =
                recovered.into_iter().map(|j| (j.id, j)).collect();
            for id in &acked {
                let Some(job) = live.get(id) else {
                    if !cancel_intent.contains(id) {
                        failures.push(fail(
                            format!("acknowledged job {id} lost after SIGKILL"),
                            segment(),
                        ));
                    }
                    continue;
                };
                if done.contains(id)
                    && (job.state != state::DONE
                        || job.outcome.as_ref() != Some(&victim_outcome(*id, child_seed)))
                {
                    failures.push(fail(
                        format!(
                            "job {id}: acknowledged result lost or divergent after SIGKILL \
                             (state {}, outcome {:?})",
                            job.state, job.outcome
                        ),
                        segment(),
                    ));
                }
                if failed.contains(id) && job.state != state::FAILED {
                    failures.push(fail(
                        format!(
                            "job {id}: acknowledged failure forgotten after SIGKILL (state {})",
                            job.state
                        ),
                        segment(),
                    ));
                }
                // Even when the DONE ack never reached the parent, a
                // recovered result must be the deterministic one — a
                // different outcome means the job ran twice and diverged.
                if job.state == state::DONE
                    && job.outcome.as_ref() != Some(&victim_outcome(*id, child_seed))
                {
                    failures.push(fail(
                        format!("job {id}: recovered outcome diverges: {:?}", job.outcome),
                        segment(),
                    ));
                }
            }
        }
        Err(e) => failures.push(fail(
            format!("recovery open failed after SIGKILL: {e}"),
            segment(),
        )),
    }
    let _ = std::fs::remove_dir_all(&dir);
    failures
}

fn write_artifact(
    dir: &std::path::Path,
    stem: &str,
    f: &rlleg_fuzz::Failure,
    artifact: &rlleg_fuzz::Artifact,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.{}", artifact.extension()));
    std::fs::write(&path, artifact.contents())?;
    let mut meta = std::fs::File::create(dir.join(format!("{stem}.txt")))?;
    writeln!(meta, "oracle: {}", f.oracle)?;
    writeln!(meta, "scenario: {}", f.scenario)?;
    writeln!(meta, "message: {}", f.message)?;
    Ok(())
}
