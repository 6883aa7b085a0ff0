//! Crash-consistent write-ahead journal for the job service.
//!
//! The scheduler appends one [`JournalRecord`] per job-lifecycle
//! transition — submitted, admitted (full service or the shedding rung),
//! rejected, attempt-started, attempt-finished, quarantined, completed —
//! *before* applying the transition to in-memory state. A service
//! process that dies mid-batch can then be reconstructed by replaying
//! the log ([`crate::recovery`]): every decision that feeds the
//! deterministic attempt function `(spec, attempt, shed, mode)` is
//! durable, and everything that is not durable is recomputable.
//!
//! ## On-disk format
//!
//! The journal is a dependency-free, append-only binary log of frames:
//!
//! ```text
//! ┌──────────┬───────────┬────────────────┐
//! │ len: u32 │ crc: u64  │ payload (len B)│   all little-endian
//! └──────────┴───────────┴────────────────┘
//! ```
//!
//! `crc` is FNV-1a over the four length bytes followed by the payload,
//! so a bit-flip in either the framing or the body is detected. The
//! payload starts with a one-byte record tag; every field is written by
//! the hand-rolled codec in this module (no serde, no external crates).
//!
//! ## Torn tails vs interior corruption
//!
//! A crash can tear the *final* frame (partial write) but can never
//! damage an already-flushed interior frame. Recovery therefore applies
//! two different rules ([`Journal::open_for_recovery`]):
//!
//! * **Torn tail** — the file ends mid-frame (short header, declared
//!   length overrunning the end, or a checksum/decoding failure on the
//!   frame that touches end-of-file): the tail is truncated and the
//!   clean prefix is replayed. This is the expected crash signature.
//! * **Interior corruption** — a checksum or decode failure on a frame
//!   with bytes after it: the log itself is damaged (bit rot, overwrite)
//!   and replaying a prefix could silently drop acknowledged state, so
//!   this is a **hard error** ([`JournalError::Corrupt`]).
//!
//! One known limit, shared with real-world WALs: a corrupted interior
//! *length* field that makes the frame overrun end-of-file is
//! indistinguishable from a torn tail without a sealed epoch footer, and
//! is treated as one.
//!
//! ## Crash injection
//!
//! [`CrashPlan`] simulates the failure modes deterministically: kill the
//! service after `k` persisted records, tear the fatal frame after a
//! byte prefix, or duplicate one record (a retried write that was in
//! fact durable the first time). The plan lives inside the journal so
//! the scheduler's append sites need no test-only branching.

use crate::job::{GraphSpec, JobId, JobSpec, Priority, Workload};
use crate::FaultSpec;
use csmpc_graph::fnv::Fnv1a;
use csmpc_graph::rng::{Seed, SplitMix64};
use csmpc_mpc::Stats;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Frame header size: `u32` length + `u64` checksum.
pub const FRAME_HEADER: usize = 12;

/// Hard ceiling on a single payload (a `JobSpec` is a few hundred bytes;
/// error histories are bounded by the attempt budget). A declared length
/// beyond this is treated as framing damage, never allocated.
const MAX_PAYLOAD: usize = 1 << 24;

/// FNV-1a over the length prefix and payload of one frame.
#[must_use]
fn frame_checksum(len: u32, payload: &[u8]) -> u64 {
    Fnv1a::new()
        .bytes(&len.to_le_bytes())
        .bytes(payload)
        .finish()
}

// ---------------------------------------------------------------------------
// Byte-level codec
// ---------------------------------------------------------------------------

/// Little-endian, length-prefixed primitive writers shared by the record
/// and spec codecs.
pub(crate) mod wire {
    /// Appends a `u8`.
    pub fn put_u8(out: &mut Vec<u8>, v: u8) {
        out.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(out: &mut Vec<u8>, v: bool) {
        out.push(u8::from(v));
    }

    /// Appends a UTF-8 string as `u32` length + bytes.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }

    /// A checked sequential reader over one payload.
    #[derive(Debug)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader positioned at the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
            if self.buf.len() - self.pos < n {
                return Err(format!(
                    "payload truncated reading {what}: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                ));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        /// Reads a `u8`.
        pub fn u8(&mut self, what: &str) -> Result<u8, String> {
            Ok(self.take(1, what)?[0])
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self, what: &str) -> Result<u32, String> {
            let b = self.take(4, what)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self, what: &str) -> Result<u64, String> {
            let b = self.take(8, what)?;
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            Ok(u64::from_le_bytes(a))
        }

        /// Reads a bool byte (strictly 0 or 1).
        pub fn bool(&mut self, what: &str) -> Result<bool, String> {
            match self.u8(what)? {
                0 => Ok(false),
                1 => Ok(true),
                v => Err(format!("invalid bool byte {v} for {what}")),
            }
        }

        /// Reads a length-prefixed UTF-8 string.
        pub fn str(&mut self, what: &str) -> Result<String, String> {
            let len = self.u32(what)? as usize;
            let bytes = self.take(len, what)?;
            String::from_utf8(bytes.to_vec()).map_err(|e| format!("{what} is not UTF-8: {e}"))
        }

        /// `true` once every byte has been consumed.
        pub fn exhausted(&self) -> bool {
            self.pos == self.buf.len()
        }
    }
}

use wire::{put_bool, put_str, put_u32, put_u64, put_u8, Reader};

fn encode_stats(out: &mut Vec<u8>, s: &Stats) {
    for w in s.model_words() {
        put_u64(out, w);
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Result<Stats, String> {
    let mut words = [0u64; Stats::MODEL_FIELDS.len()];
    for (w, name) in words.iter_mut().zip(Stats::MODEL_FIELDS) {
        *w = r.u64(name).map_err(|e| format!("stats: {e}"))?;
    }
    Ok(Stats::from_model_words(words))
}

/// Encodes a full [`JobSpec`] field by field (tags from
/// [`crate::job`]'s serde helpers).
fn encode_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    put_str(out, &spec.tenant);
    put_u8(out, spec.priority.tag());
    match spec.workload {
        Workload::LubyMis => put_u8(out, 0),
        Workload::CcLabels => put_u8(out, 1),
        Workload::BallColoring { radius } => {
            put_u8(out, 2);
            put_u64(out, radius as u64);
        }
    }
    match spec.graph {
        GraphSpec::Cycle { n } => {
            put_u8(out, 0);
            put_u64(out, n as u64);
        }
        GraphSpec::Path { n } => {
            put_u8(out, 1);
            put_u64(out, n as u64);
        }
        GraphSpec::TwoCycles { n } => {
            put_u8(out, 2);
            put_u64(out, n as u64);
        }
        GraphSpec::RandomTree { n, seed } => {
            put_u8(out, 3);
            put_u64(out, n as u64);
            put_u64(out, seed);
        }
    }
    put_u64(out, spec.seed.0);
    match &spec.faults {
        None => put_bool(out, false),
        Some(f) => {
            put_bool(out, true);
            put_u64(out, f.crashes as u64);
            put_u64(out, f.stragglers as u64);
            put_u64(out, f.horizon as u64);
            put_u32(out, u32::from(f.corrupt_per_mille));
            put_u64(out, f.seed);
        }
    }
    put_u64(out, spec.phi.to_bits());
    put_u64(out, spec.min_space as u64);
    match spec.deadline_rounds {
        None => put_bool(out, false),
        Some(d) => {
            put_bool(out, true);
            put_u64(out, d as u64);
        }
    }
    put_u32(out, spec.max_attempts);
    put_u64(out, spec.backoff.base);
    put_u64(out, spec.backoff.cap);
    put_u64(out, spec.recovery_retries as u64);
}

fn decode_spec(r: &mut Reader<'_>) -> Result<JobSpec, String> {
    let tenant = r.str("spec.tenant")?;
    let priority = Priority::from_tag(r.u8("spec.priority")?)
        .ok_or_else(|| "invalid priority tag".to_string())?;
    let workload = match r.u8("spec.workload")? {
        0 => Workload::LubyMis,
        1 => Workload::CcLabels,
        2 => Workload::BallColoring {
            radius: r.u64("spec.workload.radius")? as usize,
        },
        t => return Err(format!("invalid workload tag {t}")),
    };
    let graph = match r.u8("spec.graph")? {
        0 => GraphSpec::Cycle {
            n: r.u64("spec.graph.n")? as usize,
        },
        1 => GraphSpec::Path {
            n: r.u64("spec.graph.n")? as usize,
        },
        2 => GraphSpec::TwoCycles {
            n: r.u64("spec.graph.n")? as usize,
        },
        3 => GraphSpec::RandomTree {
            n: r.u64("spec.graph.n")? as usize,
            seed: r.u64("spec.graph.seed")?,
        },
        t => return Err(format!("invalid graph tag {t}")),
    };
    let seed = Seed(r.u64("spec.seed")?);
    let faults = if r.bool("spec.faults.some")? {
        Some(FaultSpec {
            crashes: r.u64("spec.faults.crashes")? as usize,
            stragglers: r.u64("spec.faults.stragglers")? as usize,
            horizon: r.u64("spec.faults.horizon")? as usize,
            corrupt_per_mille: r.u32("spec.faults.corrupt")? as u16,
            seed: r.u64("spec.faults.seed")?,
        })
    } else {
        None
    };
    let phi = f64::from_bits(r.u64("spec.phi")?);
    let min_space = r.u64("spec.min_space")? as usize;
    let deadline_rounds = if r.bool("spec.deadline.some")? {
        Some(r.u64("spec.deadline")? as usize)
    } else {
        None
    };
    let max_attempts = r.u32("spec.max_attempts")?;
    let backoff = crate::BackoffPolicy {
        base: r.u64("spec.backoff.base")?,
        cap: r.u64("spec.backoff.cap")?,
    };
    let recovery_retries = r.u64("spec.recovery_retries")? as usize;
    Ok(JobSpec {
        tenant,
        priority,
        workload,
        graph,
        seed,
        faults,
        phi,
        min_space,
        deadline_rounds,
        max_attempts,
        backoff,
        recovery_retries,
    })
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One durable job-lifecycle transition. The scheduler appends the
/// record *before* applying the transition; replay reconstructs the
/// scheduler state by folding records in order.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A spec entered the service and was assigned `id`.
    Submitted {
        /// Dense submission index.
        id: JobId,
        /// The full spec — everything an attempt is a pure function of.
        spec: JobSpec,
    },
    /// Admission booked `footprint` words at full service.
    Admitted {
        /// The job.
        id: JobId,
        /// Booked `M × S` words, persisted so replay re-books exactly.
        footprint: u64,
    },
    /// Admission booked `footprint` words on the shedding rung
    /// (supervised partial-output mode).
    Shed {
        /// The job.
        id: JobId,
        /// Booked `M × S` words.
        footprint: u64,
    },
    /// Admission refused the job; terminal at submission.
    Rejected {
        /// The job.
        id: JobId,
        /// The budget arithmetic from the controller.
        reason: String,
    },
    /// A worker dispatched attempt `attempt` (1-based). An attempt with
    /// a start but no finish was in flight at the crash and is re-run on
    /// recovery — attempts are pure, so the re-run is bit-identical.
    AttemptStarted {
        /// The job.
        id: JobId,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// Attempt `attempt` failed with `error` (successes are recorded by
    /// [`JournalRecord::Completed`] directly — the terminal record *is*
    /// the finish record, so no success can be half-recorded).
    AttemptFinished {
        /// The job.
        id: JobId,
        /// 1-based attempt number.
        attempt: u32,
        /// `true` when the failure was a tripped job deadline
        /// (feeds the `deadline_failures` counter on replay).
        deadline: bool,
        /// The formatted error pushed onto the job's history.
        error: String,
    },
    /// The job exhausted its attempt budget and was parked.
    Quarantined {
        /// The job.
        id: JobId,
        /// Attempts executed.
        attempts: u32,
        /// Whether it ran on the shedding rung.
        shed: bool,
    },
    /// The job produced output (full or degraded) — the terminal record
    /// carries everything the fingerprint covers.
    Completed {
        /// The job.
        id: JobId,
        /// Attempts executed.
        attempts: u32,
        /// Whether it ran on the shedding rung.
        shed: bool,
        /// `true` for supervised partial output ([`crate::JobState::Degraded`]).
        degraded: bool,
        /// [`crate::job::labels_digest`] of the output.
        digest: u64,
        /// The final attempt's ledger.
        stats: Stats,
    },
}

impl JournalRecord {
    /// Encodes the record payload (tag byte + fields, no framing).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            JournalRecord::Submitted { id, spec } => {
                put_u8(&mut out, 1);
                put_u64(&mut out, id.0);
                encode_spec(&mut out, spec);
            }
            JournalRecord::Admitted { id, footprint } => {
                put_u8(&mut out, 2);
                put_u64(&mut out, id.0);
                put_u64(&mut out, *footprint);
            }
            JournalRecord::Shed { id, footprint } => {
                put_u8(&mut out, 3);
                put_u64(&mut out, id.0);
                put_u64(&mut out, *footprint);
            }
            JournalRecord::Rejected { id, reason } => {
                put_u8(&mut out, 4);
                put_u64(&mut out, id.0);
                put_str(&mut out, reason);
            }
            JournalRecord::AttemptStarted { id, attempt } => {
                put_u8(&mut out, 5);
                put_u64(&mut out, id.0);
                put_u32(&mut out, *attempt);
            }
            JournalRecord::AttemptFinished {
                id,
                attempt,
                deadline,
                error,
            } => {
                put_u8(&mut out, 6);
                put_u64(&mut out, id.0);
                put_u32(&mut out, *attempt);
                put_bool(&mut out, *deadline);
                put_str(&mut out, error);
            }
            JournalRecord::Quarantined { id, attempts, shed } => {
                put_u8(&mut out, 7);
                put_u64(&mut out, id.0);
                put_u32(&mut out, *attempts);
                put_bool(&mut out, *shed);
            }
            JournalRecord::Completed {
                id,
                attempts,
                shed,
                degraded,
                digest,
                stats,
            } => {
                put_u8(&mut out, 8);
                put_u64(&mut out, id.0);
                put_u32(&mut out, *attempts);
                put_bool(&mut out, *shed);
                put_bool(&mut out, *degraded);
                put_u64(&mut out, *digest);
                encode_stats(&mut out, stats);
            }
        }
        out
    }

    /// Decodes one record payload; the error names the failing field.
    ///
    /// # Errors
    ///
    /// A description of the malformed field — unknown tag, truncated
    /// field, invalid bool byte, trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<JournalRecord, String> {
        let mut r = Reader::new(payload);
        let tag = r.u8("record tag")?;
        let rec = match tag {
            1 => JournalRecord::Submitted {
                id: JobId(r.u64("id")?),
                spec: decode_spec(&mut r)?,
            },
            2 => JournalRecord::Admitted {
                id: JobId(r.u64("id")?),
                footprint: r.u64("footprint")?,
            },
            3 => JournalRecord::Shed {
                id: JobId(r.u64("id")?),
                footprint: r.u64("footprint")?,
            },
            4 => JournalRecord::Rejected {
                id: JobId(r.u64("id")?),
                reason: r.str("reason")?,
            },
            5 => JournalRecord::AttemptStarted {
                id: JobId(r.u64("id")?),
                attempt: r.u32("attempt")?,
            },
            6 => JournalRecord::AttemptFinished {
                id: JobId(r.u64("id")?),
                attempt: r.u32("attempt")?,
                deadline: r.bool("deadline")?,
                error: r.str("error")?,
            },
            7 => JournalRecord::Quarantined {
                id: JobId(r.u64("id")?),
                attempts: r.u32("attempts")?,
                shed: r.bool("shed")?,
            },
            8 => JournalRecord::Completed {
                id: JobId(r.u64("id")?),
                attempts: r.u32("attempts")?,
                shed: r.bool("shed")?,
                degraded: r.bool("degraded")?,
                digest: r.u64("digest")?,
                stats: decode_stats(&mut r)?,
            },
            t => return Err(format!("unknown record tag {t}")),
        };
        if !r.exhausted() {
            return Err("trailing bytes after record".to_string());
        }
        Ok(rec)
    }

    /// The full on-disk frame: header (length + checksum) and payload.
    #[must_use]
    pub fn encoded_frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let len = payload.len() as u32;
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&frame_checksum(len, &payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// The backing file could not be read or written.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An interior frame failed its checksum or decode — the log is
    /// damaged beyond the torn-tail rule and must not be replayed.
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// The armed [`CrashPlan`] fired (or already fired): the simulated
    /// process is dead and nothing further will be persisted.
    Crashed,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal I/O error on {}: {source}", path.display())
            }
            JournalError::Corrupt { offset, detail } => {
                write!(
                    f,
                    "journal corrupt at byte offset {offset}: {detail} \
                     (interior corruption is unrecoverable; only a torn tail may be truncated)"
                )
            }
            JournalError::Crashed => write!(f, "simulated crash: the armed crash plan fired"),
        }
    }
}

impl std::error::Error for JournalError {}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

/// A seeded, deterministic crash to inject while journaling.
///
/// Counting starts when the plan is armed: appends `1..=after_records`
/// persist normally, and the next append is fatal — the frame is either
/// dropped entirely or torn after a byte prefix, and every subsequent
/// append fails with [`JournalError::Crashed`]. Optionally one earlier
/// record is duplicated on disk (a retried write that had in fact
/// already been durable), which replay must treat as idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Records that persist before the fatal append.
    pub after_records: u64,
    /// Bytes of the fatal frame that reach the disk (`None` = none;
    /// clamped below the full frame so the tail is genuinely torn).
    pub torn_bytes: Option<usize>,
    /// Duplicate the `k`-th record after arming (1-based), if it lands
    /// before the crash.
    pub duplicate_at: Option<u64>,
}

impl CrashPlan {
    /// Kill cleanly after `k` records; no torn bytes, no duplicates.
    #[must_use]
    pub fn kill_after(k: u64) -> Self {
        CrashPlan {
            after_records: k,
            torn_bytes: None,
            duplicate_at: None,
        }
    }

    /// Same, but the fatal frame leaves `bytes` bytes on disk.
    #[must_use]
    pub fn with_torn_tail(mut self, bytes: usize) -> Self {
        self.torn_bytes = Some(bytes);
        self
    }

    /// Duplicate the `k`-th record after arming.
    #[must_use]
    pub fn with_duplicate(mut self, k: u64) -> Self {
        self.duplicate_at = Some(k);
        self
    }

    /// A seeded plan with the crash point in `1..=horizon` and the tear/
    /// duplicate variants rotating deterministically with the seed.
    #[must_use]
    pub fn random(seed: Seed, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed.derive(0x000C_4A54));
        let after = rng.range(1, horizon.max(1) + 1);
        let mut plan = CrashPlan::kill_after(after);
        match rng.range(0, 3) {
            0 => plan = plan.with_torn_tail(1 + rng.range(0, 24) as usize),
            1 if after > 1 => plan = plan.with_duplicate(rng.range(1, after + 1)),
            _ => {}
        }
        plan
    }
}

struct ArmedCrash {
    plan: CrashPlan,
    seen: u64,
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// An append-only journal over one backing file.
///
/// Appends are framed, checksummed, and flushed; [`Journal::open_for_recovery`]
/// validates the whole log, truncates a torn tail in place (idempotent —
/// a crash *during* recovery just repeats the truncation), and returns
/// the decoded records for replay.
pub struct Journal {
    path: PathBuf,
    file: File,
    appended: u64,
    armed: Option<ArmedCrash>,
    crashed: bool,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("appended", &self.appended)
            .field("crashed", &self.crashed)
            .finish_non_exhaustive()
    }
}

/// What [`Journal::open_for_recovery`] found: the reopened (clean)
/// journal, the decoded records, and how many torn bytes were dropped.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The journal, truncated to the clean prefix and positioned for
    /// further appends.
    pub journal: Journal,
    /// Every decoded record of the clean prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn tail truncated (0 for a clean log).
    pub torn_bytes_truncated: u64,
}

impl Journal {
    /// Creates (or truncates) the journal at `path`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be created.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|source| JournalError::Io {
                path: path.to_path_buf(),
                source,
            })?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            appended: 0,
            armed: None,
            crashed: false,
        })
    }

    /// The backing file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle (duplicated writes count
    /// once — they are one logical record).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// `true` once an armed crash plan has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Arms `plan`; counting starts now.
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.armed = Some(ArmedCrash { plan, seen: 0 });
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        self.file
            .write_all(bytes)
            .and_then(|()| self.file.flush())
            .map_err(|source| JournalError::Io {
                path: self.path.clone(),
                source,
            })
    }

    /// Appends one record (write-ahead: callers persist the record
    /// *before* applying the transition it describes).
    ///
    /// # Errors
    ///
    /// [`JournalError::Crashed`] when the armed [`CrashPlan`] fires (the
    /// fatal frame is dropped or torn per the plan, and the handle is
    /// dead from then on); [`JournalError::Io`] on real write failures.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), JournalError> {
        if self.crashed {
            return Err(JournalError::Crashed);
        }
        let frame = rec.encoded_frame();
        if let Some(armed) = &mut self.armed {
            armed.seen += 1;
            if armed.seen > armed.plan.after_records {
                let torn = armed
                    .plan
                    .torn_bytes
                    .map_or(0, |b| b.min(frame.len().saturating_sub(1)));
                self.crashed = true;
                if torn > 0 {
                    let prefix = &frame[..torn];
                    self.write_all(prefix)?;
                }
                return Err(JournalError::Crashed);
            }
            if armed.plan.duplicate_at == Some(armed.seen) {
                let mut doubled = frame.clone();
                doubled.extend_from_slice(&frame);
                self.write_all(&doubled)?;
                self.appended += 1;
                return Ok(());
            }
        }
        self.write_all(&frame)?;
        self.appended += 1;
        Ok(())
    }

    /// Validates and decodes the log at `path`, truncating a torn tail
    /// in place, and reopens it for appending.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] on interior damage (a bad frame with
    /// bytes after it); [`JournalError::Io`] if the file cannot be read,
    /// truncated, or reopened.
    pub fn open_for_recovery(path: &Path) -> Result<RecoveredLog, JournalError> {
        let io_err = |source| JournalError::Io {
            path: path.to_path_buf(),
            source,
        };
        let bytes = std::fs::read(path).map_err(io_err)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        loop {
            if pos == bytes.len() {
                break;
            }
            if bytes.len() - pos < FRAME_HEADER {
                break; // short header: torn tail
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as usize;
            let mut crc_bytes = [0u8; 8];
            crc_bytes.copy_from_slice(&bytes[pos + 4..pos + 12]);
            let crc = u64::from_le_bytes(crc_bytes);
            if len > MAX_PAYLOAD || pos + FRAME_HEADER + len > bytes.len() {
                break; // overrunning length: torn tail (or unprovable interior len damage)
            }
            let frame_end = pos + FRAME_HEADER + len;
            let payload = &bytes[pos + FRAME_HEADER..frame_end];
            let at_eof = frame_end == bytes.len();
            if frame_checksum(len as u32, payload) != crc {
                if at_eof {
                    break; // half-written final frame: torn tail
                }
                return Err(JournalError::Corrupt {
                    offset: pos as u64,
                    detail: "frame checksum mismatch".to_string(),
                });
            }
            match JournalRecord::decode(payload) {
                Ok(rec) => records.push(rec),
                Err(detail) => {
                    if at_eof {
                        break;
                    }
                    return Err(JournalError::Corrupt {
                        offset: pos as u64,
                        detail,
                    });
                }
            }
            pos = frame_end;
        }
        let torn = (bytes.len() - pos) as u64;
        if torn > 0 {
            // Idempotent truncation: a crash here just leaves the same
            // torn tail for the next recovery to drop again.
            let f = OpenOptions::new().write(true).open(path).map_err(io_err)?;
            f.set_len(pos as u64).map_err(io_err)?;
        }
        let file = OpenOptions::new().append(true).open(path).map_err(io_err)?;
        Ok(RecoveredLog {
            journal: Journal {
                path: path.to_path_buf(),
                file,
                appended: records.len() as u64,
                armed: None,
                crashed: false,
            },
            records,
            torn_bytes_truncated: torn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Workload;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("csmpc_journal_{}_{name}.bin", std::process::id()))
    }

    fn sample_spec(seed: u64) -> JobSpec {
        let mut s = JobSpec::basic(
            "tenant-α",
            Workload::BallColoring { radius: 2 },
            GraphSpec::RandomTree { n: 20, seed: 9 },
            Seed(seed),
        );
        s.faults = Some(FaultSpec {
            crashes: 1,
            stragglers: 2,
            horizon: 6,
            corrupt_per_mille: 40,
            seed: 0xFA57,
        });
        s.deadline_rounds = Some(40);
        s
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submitted {
                id: JobId(0),
                spec: sample_spec(7),
            },
            JournalRecord::Admitted {
                id: JobId(0),
                footprint: 512,
            },
            JournalRecord::AttemptStarted {
                id: JobId(0),
                attempt: 1,
            },
            JournalRecord::AttemptFinished {
                id: JobId(0),
                attempt: 1,
                deadline: true,
                error: "attempt 1: round limit 40 exceeded".to_string(),
            },
            JournalRecord::Completed {
                id: JobId(0),
                attempts: 2,
                shed: false,
                degraded: false,
                digest: 0xDEAD_BEEF,
                stats: Stats {
                    rounds: 12,
                    total_words: 4096,
                    ..Stats::default()
                },
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_the_codec() {
        for rec in sample_records() {
            let payload = rec.encode();
            assert_eq!(JournalRecord::decode(&payload).as_ref(), Ok(&rec));
        }
    }

    #[test]
    fn append_then_recover_replays_everything() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let log = Journal::open_for_recovery(&path).unwrap();
        assert_eq!(log.records, sample_records());
        assert_eq!(log.torn_bytes_truncated, 0);
        assert_eq!(log.journal.appended(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_clean_prefix_survives() {
        let path = tmp("torn");
        let mut j = Journal::create(&path).unwrap();
        let recs = sample_records();
        for rec in &recs {
            j.append(rec).unwrap();
        }
        drop(j);
        // Tear the last frame: drop its final 3 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let log = Journal::open_for_recovery(&path).unwrap();
        assert_eq!(log.records, recs[..recs.len() - 1]);
        assert!(log.torn_bytes_truncated > 0);
        // The truncation is idempotent: a second recovery sees a clean log.
        drop(log);
        let again = Journal::open_for_recovery(&path).unwrap();
        assert_eq!(again.records, recs[..recs.len() - 1]);
        assert_eq!(again.torn_bytes_truncated, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_a_hard_error() {
        let path = tmp("interior");
        let mut j = Journal::create(&path).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the FIRST record's payload.
        bytes[FRAME_HEADER + 4] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open_for_recovery(&path) {
            Err(JournalError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_plan_kills_after_k_records_and_stays_dead() {
        let path = tmp("crash");
        let mut j = Journal::create(&path).unwrap();
        j.arm_crash(CrashPlan::kill_after(2));
        let recs = sample_records();
        j.append(&recs[0]).unwrap();
        j.append(&recs[1]).unwrap();
        assert!(matches!(j.append(&recs[2]), Err(JournalError::Crashed)));
        assert!(j.crashed());
        assert!(matches!(j.append(&recs[3]), Err(JournalError::Crashed)));
        drop(j);
        let log = Journal::open_for_recovery(&path).unwrap();
        assert_eq!(log.records, recs[..2]);
        assert_eq!(log.torn_bytes_truncated, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_plan_tears_the_fatal_frame() {
        let path = tmp("crash_torn");
        let mut j = Journal::create(&path).unwrap();
        j.arm_crash(CrashPlan::kill_after(1).with_torn_tail(7));
        let recs = sample_records();
        j.append(&recs[0]).unwrap();
        assert!(matches!(j.append(&recs[1]), Err(JournalError::Crashed)));
        drop(j);
        let log = Journal::open_for_recovery(&path).unwrap();
        assert_eq!(log.records, recs[..1]);
        assert_eq!(log.torn_bytes_truncated, 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_plan_duplicates_a_record_on_disk() {
        let path = tmp("crash_dup");
        let mut j = Journal::create(&path).unwrap();
        j.arm_crash(CrashPlan::kill_after(10).with_duplicate(2));
        let recs = sample_records();
        for rec in &recs[..3] {
            j.append(rec).unwrap();
        }
        drop(j);
        let log = Journal::open_for_recovery(&path).unwrap();
        assert_eq!(log.records.len(), 4, "record 2 appears twice");
        assert_eq!(log.records[1], log.records[2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_crash_plans_are_deterministic() {
        for s in 0..32 {
            assert_eq!(
                CrashPlan::random(Seed(s), 20),
                CrashPlan::random(Seed(s), 20)
            );
            let p = CrashPlan::random(Seed(s), 20);
            assert!((1..=20).contains(&p.after_records));
        }
        // The variant space is actually explored.
        let torn = (0..64).any(|s| CrashPlan::random(Seed(s), 20).torn_bytes.is_some());
        let dup = (0..64).any(|s| CrashPlan::random(Seed(s), 20).duplicate_at.is_some());
        assert!(torn && dup);
    }
}
