//! The typed `BENCH_legalize.json` snapshot: a [`Header`] naming where it
//! was measured and one [`Record`] per case, each saying whether it holds
//! a timing or a QoR scalar. A NaN or infinite value is refused when it is
//! recorded, and reading a file records each value anew.

use std::path::Path;

use serde::{Deserialize, Serialize};

/// Where a snapshot was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Header {
    /// Cores available to the bench process; the multi-core rules of
    /// [`crate::guard`] apply only when this is at least 2.
    pub nproc: usize,
    /// Worker threads the parallel cases ran with (`RLLEG_THREADS`, else
    /// `nproc`).
    pub threads: usize,
    /// Short revision of the measured tree, suffixed `-dirty` when it had
    /// uncommitted changes; `"unknown"` outside a checkout.
    pub git_revision: String,
    /// Build profile of the bench binary.
    pub profile: String,
}

impl Header {
    /// Describes this process and the checkout it was built from.
    pub fn current() -> Self {
        let rev = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--exclude=*"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: rlleg_legalize::pool::default_threads(),
            git_revision: rev.map_or_else(|| "unknown".into(), |r| r.trim().into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        }
    }
}

/// What a record measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Kind {
    /// Mean wall time per iteration, in nanoseconds.
    Time,
    /// A quality-of-result scalar, in the record's unit.
    Qor,
}

/// One measured case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Benchmark group name.
    pub group: String,
    /// Case id within the group.
    pub id: String,
    /// Whether `value` is a timing or a QoR scalar.
    pub kind: Kind,
    /// The measurement; always finite.
    pub value: f64,
    /// Unit of `value` (`ns` for every timing).
    pub unit: String,
}

/// A whole `BENCH_legalize.json`: a header and its records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Where the records were measured.
    pub header: Header,
    records: Vec<Record>,
}

impl Snapshot {
    /// An empty snapshot under `header`.
    pub fn new(header: Header) -> Self {
        Self {
            header,
            records: Vec::new(),
        }
    }

    /// Appends one record, or refuses a NaN or infinite `value` with an
    /// error naming the case.
    pub fn record(
        &mut self,
        group: &str,
        id: &str,
        kind: Kind,
        value: f64,
        unit: &str,
    ) -> Result<(), String> {
        if !value.is_finite() {
            return Err(format!("case {group}/{id} is not finite ({value})"));
        }
        self.records.push(Record {
            group: group.into(),
            id: id.into(),
            kind,
            value,
            unit: unit.into(),
        });
        Ok(())
    }

    /// The value of case `group/id`, or an error naming it when missing.
    pub fn value(&self, group: &str, id: &str) -> Result<f64, String> {
        self.records
            .iter()
            .find(|r| r.group == group && r.id == id)
            .map(|r| r.value)
            .ok_or_else(|| format!("case {group}/{id} is missing"))
    }

    /// Reads the snapshot at `path`. Fails when the file cannot be read, is
    /// not a snapshot, or holds a value [`Snapshot::record`] refuses (the
    /// JSON shim writes a non-finite float as `null`, read back as NaN).
    pub fn read(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let raw: Self = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let mut snap = Self::new(raw.header);
        for r in raw.records {
            snap.record(&r.group, &r.id, r.kind, r.value, &r.unit)?;
        }
        Ok(snap)
    }

    /// Writes the snapshot as pretty-printed JSON.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(self).expect("a snapshot always serializes");
        std::fs::write(path, text + "\n")
    }
}
