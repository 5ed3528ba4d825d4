//! Versioned on-disk checkpoints for resumable campaigns.
//!
//! A 13-month campaign over thousands of links is hours of wall-clock even
//! simulated; a crash (or a deliberate kill) should not force re-measuring
//! links that already finished. A [`CheckpointStore`] persists each link's
//! measured [`LinkSeries`] (plus its screening verdict) under a key derived
//! from the *measurement identity* — VP, destination, TTLs, expected
//! addresses — and a fingerprint of the campaign configuration. Resuming
//! with the same substrate and config replays finished links from disk and
//! re-measures only the rest; because each link's series is a pure function
//! of `(net, vp, target, cfg)`, a resumed campaign is **bit-identical** to
//! an uninterrupted one at any thread count.
//!
//! The format is a private little-endian binary layout (not JSON: the
//! series are full of `NaN` markers, which JSON cannot represent, and the
//! resume guarantee needs exact `f64` bit patterns):
//!
//! ```text
//! magic      8 B  b"TSLPCKPT"
//! version    4 B  u32 LE (currently 2)
//! config     8 B  u64 LE  campaign fingerprint
//! screened   1 B  0 | 1
//! start      8 B  u64 LE  grid start, µs
//! interval   8 B  u64 LE  grid interval, µs
//! mismatches 8 B  u64 LE  far_addr_mismatches
//! rounds     8 B  u64 LE  n
//! near       8n B f64 bit patterns, u64 LE
//! far        8n B f64 bit patterns, u64 LE
//! path_fp    8n B u64 LE  per-round path fingerprints (version ≥ 2)
//! ```
//!
//! Any mismatch — magic, version, fingerprint, truncation — makes `load`
//! return `None` and the link is simply re-measured: stale checkpoints can
//! cost time, never correctness. In particular version-1 checkpoints (no
//! `path_fp` section) are re-measured rather than replayed with a fabricated
//! path history. Writes go through a temp file + rename so a kill mid-write
//! never leaves a half checkpoint behind.
//!
//! The store also holds opaque named blobs (the monitor's shard state) in a
//! `TSLPBLOB` frame: magic, version (2), fingerprint, payload length, the
//! payload, and a CRC-32 over all of it. [`CheckpointStore::load_blob_checked`]
//! reads a damaged frame as [`BlobStatus::Corrupt`], and a frame of any other
//! version — including v1, which had no CRC — or a foreign fingerprint as
//! [`BlobStatus::Stale`], a plain miss.

use crate::series::{LinkSeries, SeriesConfig};
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::node::NodeId;
use ixp_simnet::rng::mix;
use ixp_simnet::time::{SimDuration, SimTime};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"TSLPCKPT";
const VERSION: u32 = 2;

const BLOB_MAGIC: &[u8; 8] = b"TSLPBLOB";
/// Current blob frame version. v2 adds a trailing CRC-32 over the whole
/// frame (header + payload), so torn writes and bit flips are *detected*
/// ([`BlobStatus::Corrupt`]) rather than conflated with an honest miss.
/// Every other version, v1 (no CRC) included, decodes as
/// [`BlobStatus::Stale`] — a miss, never a panic, never trusted payload.
const BLOB_VERSION: u32 = 2;
/// Fixed frame bytes around a v2 payload: magic(8) + version(4) +
/// fingerprint(8) + length(8) before it, CRC-32(4) after it.
const BLOB_V2_OVERHEAD: usize = 8 + 4 + 8 + 8 + 4;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), table-driven. Vendored in
/// ~15 lines because the offline dependency set has no checksum crate; the
/// polynomial choice matters less than having *any* end-to-end integrity
/// check on the blob frame.
fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Outcome of a checked blob load: the caller decides how loudly to react.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlobStatus {
    /// Frame intact, fingerprint matches: here is the payload.
    Ok(Vec<u8>),
    /// No blob file under this name.
    Missing,
    /// A frame that must not be replayed: wrong fingerprint (another
    /// deployment's state) or any version other than the current one.
    /// Rebuild from scratch; do not quarantine — the file is not damaged,
    /// merely not ours.
    Stale,
    /// The frame is damaged: bad magic, torn length, or CRC mismatch.
    /// Quarantine it (see [`CheckpointStore::quarantine_blob`]) so the
    /// evidence survives and the name is free for a fresh checkpoint.
    Corrupt,
}

/// A directory of per-link series checkpoints for one campaign.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory. `fingerprint`
    /// binds the stored series to one campaign configuration — use
    /// [`crate::campaign::campaign_fingerprint`]; checkpoints written under
    /// a different fingerprint are ignored on load.
    pub fn new(dir: impl Into<PathBuf>, fingerprint: u64) -> io::Result<CheckpointStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, fingerprint })
    }

    /// The checkpoint key for one measurement: a hash of everything that
    /// identifies the target walk (VP, destination, TTL pair, expected
    /// responder addresses).
    pub fn key_for(vp: NodeId, target: &TslpTarget) -> u64 {
        mix(&[
            vp.0 as u64,
            target.dst.0 as u64,
            target.near_ttl as u64,
            target.far_ttl as u64,
            target.near_addr.0 as u64,
            target.far_addr.0 as u64,
        ])
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("link-{key:016x}.ckpt"))
    }

    /// Load a checkpointed `(series, screened)` pair, or `None` when the
    /// checkpoint is missing, corrupt, or from a different campaign config.
    pub fn load(&self, key: u64) -> Option<(LinkSeries, bool)> {
        decode(&fs::read(self.path_for(key)).ok()?, self.fingerprint)
    }

    /// Persist one link's measurement atomically (temp file + rename).
    pub fn store(&self, key: u64, series: &LinkSeries, screened: bool) -> io::Result<()> {
        let bytes = encode(series, screened, self.fingerprint);
        let final_path = self.path_for(key);
        let tmp_path = self.dir.join(format!("link-{key:016x}.tmp"));
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)
    }

    /// Persist an opaque named blob atomically (temp file + rename), bound
    /// to this store's fingerprint. The monitor service uses this for its
    /// per-shard detector/health state; the payload layout is the caller's.
    /// The v2 frame carries the payload length and a trailing CRC-32 over
    /// the whole frame, so torn or bit-flipped blobs are *detected* on
    /// load, never decoded.
    ///
    /// `name` must be filesystem-safe (`[A-Za-z0-9._-]`); anything else is
    /// rejected so a caller cannot escape the checkpoint directory.
    pub fn store_blob(&self, name: &str, payload: &[u8]) -> io::Result<()> {
        let final_path = self.blob_path(name)?;
        let mut bytes = Vec::with_capacity(BLOB_V2_OVERHEAD + payload.len());
        bytes.extend_from_slice(BLOB_MAGIC);
        bytes.extend_from_slice(&BLOB_VERSION.to_le_bytes());
        bytes.extend_from_slice(&self.fingerprint.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let tmp_path = final_path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)
    }

    /// Load a named blob's payload, or `None` when the blob is missing,
    /// corrupt, truncated, or from a different fingerprint — the caller
    /// simply rebuilds the state from scratch. Callers that need to tell
    /// *damage* apart from an honest miss use [`Self::load_blob_checked`].
    pub fn load_blob(&self, name: &str) -> Option<Vec<u8>> {
        match self.load_blob_checked(name) {
            BlobStatus::Ok(payload) => Some(payload),
            _ => None,
        }
    }

    /// Load a named blob, distinguishing every miss mode: a damaged frame
    /// ([`BlobStatus::Corrupt`]) warrants quarantining the file; a missing
    /// or foreign one (wrong fingerprint, or any version but the current
    /// one) is a plain rebuild-from-scratch. Never panics on any byte
    /// sequence — truncated, flipped, garbage-prefixed, or v1 frames all
    /// decode to a non-`Ok` status.
    pub fn load_blob_checked(&self, name: &str) -> BlobStatus {
        let Ok(path) = self.blob_path(name) else { return BlobStatus::Missing };
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return BlobStatus::Missing,
            Err(_) => return BlobStatus::Corrupt,
        };
        let mut c = Cursor { buf: &bytes, pos: 0 };
        let Some(magic) = c.take::<8>() else { return BlobStatus::Corrupt };
        if &magic != BLOB_MAGIC {
            return BlobStatus::Corrupt;
        }
        let Some(version) = c.u32() else { return BlobStatus::Corrupt };
        if version != BLOB_VERSION {
            // An old (v1, no CRC) or unknown future version: not ours to
            // judge — a miss.
            return BlobStatus::Stale;
        }
        let (Some(fp), Some(n)) = (c.u64(), c.u64()) else { return BlobStatus::Corrupt };
        let n = n as usize;
        // Exact length frame: header + payload + 4-byte CRC, nothing else.
        if bytes.len() != BLOB_V2_OVERHEAD + n {
            return BlobStatus::Corrupt;
        }
        let body_end = bytes.len() - 4;
        let stored_crc = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
        if crc32(&bytes[..body_end]) != stored_crc {
            return BlobStatus::Corrupt;
        }
        if fp != self.fingerprint {
            return BlobStatus::Stale;
        }
        BlobStatus::Ok(bytes[c.pos..body_end].to_vec())
    }

    /// Move a damaged blob aside to a `<file>.corrupt` sidecar, freeing the
    /// name for a fresh checkpoint while keeping the evidence on disk.
    /// Returns the sidecar path, or `None` when there was nothing to move.
    pub fn quarantine_blob(&self, name: &str) -> io::Result<Option<PathBuf>> {
        let path = self.blob_path(name)?;
        if !path.exists() {
            return Ok(None);
        }
        let mut sidecar = path.clone().into_os_string();
        sidecar.push(".corrupt");
        let sidecar = PathBuf::from(sidecar);
        fs::rename(&path, &sidecar)?;
        Ok(Some(sidecar))
    }

    /// The on-disk path a named blob lives at (whether or not it exists):
    /// error messages should name the file, not just the shard.
    pub fn blob_file(&self, name: &str) -> io::Result<PathBuf> {
        self.blob_path(name)
    }

    fn blob_path(&self, name: &str) -> io::Result<PathBuf> {
        let ok = !name.is_empty()
            && name.len() <= 128
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
        if !ok {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("blob name {name:?} is not filesystem-safe"),
            ));
        }
        Ok(self.dir.join(format!("blob-{name}.blob")))
    }

    /// Number of checkpoints currently on disk (any fingerprint).
    pub fn len(&self) -> usize {
        count_checkpoints(&self.dir)
    }

    /// True when the directory holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn count_checkpoints(dir: &Path) -> usize {
    fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                .count()
        })
        .unwrap_or(0)
}

fn encode(series: &LinkSeries, screened: bool, fingerprint: u64) -> Vec<u8> {
    let n = series.len();
    let mut out = Vec::with_capacity(8 + 4 + 8 + 1 + 8 * 4 + 24 * n);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.push(screened as u8);
    out.extend_from_slice(&series.cfg.start.0.to_le_bytes());
    out.extend_from_slice(&series.cfg.interval.as_micros().to_le_bytes());
    out.extend_from_slice(&(series.far_addr_mismatches as u64).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    for v in &series.near_ms {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for v in &series.far_ms {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    // Campaign-produced series always carry one fingerprint per round, but
    // hand-built or windowed series may not — pad with the unknown sentinel
    // so the layout stays exactly 24 bytes per round.
    for i in 0..n {
        out.extend_from_slice(&series.path_fp.get(i).copied().unwrap_or(0).to_le_bytes());
    }
    out
}

/// A tiny cursor over the checkpoint bytes; every read is bounds-checked so
/// a truncated file decodes to `None`, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let end = self.pos.checked_add(N)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        bytes.try_into().ok()
    }
    fn u32(&mut self) -> Option<u32> {
        self.take::<4>().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Option<u64> {
        self.take::<8>().map(u64::from_le_bytes)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|b| b[0])
    }
}

fn decode(bytes: &[u8], fingerprint: u64) -> Option<(LinkSeries, bool)> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if &c.take::<8>()? != MAGIC || c.u32()? != VERSION || c.u64()? != fingerprint {
        return None;
    }
    let screened = match c.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let start = SimTime(c.u64()?);
    let interval = SimDuration::from_micros(c.u64()?);
    let mismatches = c.u64()? as usize;
    let n = c.u64()? as usize;
    // Exact-size check before reading the payload: 24 bytes per round left.
    if bytes.len() - c.pos != 24 * n {
        return None;
    }
    let mut near_ms = Vec::with_capacity(n);
    let mut far_ms = Vec::with_capacity(n);
    let mut path_fp = Vec::with_capacity(n);
    for _ in 0..n {
        near_ms.push(f64::from_bits(c.u64()?));
    }
    for _ in 0..n {
        far_ms.push(f64::from_bits(c.u64()?));
    }
    for _ in 0..n {
        path_fp.push(c.u64()?);
    }
    let series = LinkSeries {
        cfg: SeriesConfig { start, interval },
        near_ms,
        far_ms,
        far_addr_mismatches: mismatches,
        path_fp,
    };
    Some((series, screened))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_simnet::prelude::Ipv4;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tslp-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn target() -> TslpTarget {
        TslpTarget {
            dst: Ipv4::new(10, 0, 2, 2),
            near_ttl: 1,
            far_ttl: 2,
            near_addr: Ipv4::new(10, 0, 0, 1),
            far_addr: Ipv4::new(10, 0, 1, 2),
        }
    }

    fn sample_series() -> LinkSeries {
        let cfg = SeriesConfig::five_minute(SimTime::from_date(2016, 3, 1));
        let mut s = LinkSeries::new(cfg);
        s.near_ms = vec![1.25, f64::NAN, 1.5, f64::NAN];
        s.far_ms = vec![2.5, 3.75, f64::NAN, f64::NAN];
        s.far_addr_mismatches = 2;
        s.path_fp = vec![0xAAAA, 0, 0xBBBB, 0];
        s
    }

    /// Exact equality including NaN positions and bit patterns.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::new(&dir, 0xDEAD_BEEF).unwrap();
        let key = CheckpointStore::key_for(NodeId(7), &target());
        assert!(store.load(key).is_none(), "no checkpoint yet");
        let s = sample_series();
        store.store(key, &s, true).unwrap();
        let (got, screened) = store.load(key).expect("stored checkpoint must load");
        assert!(screened);
        assert_eq!(bits(&got.near_ms), bits(&s.near_ms));
        assert_eq!(bits(&got.far_ms), bits(&s.far_ms));
        assert_eq!(got.cfg.start, s.cfg.start);
        assert_eq!(got.cfg.interval, s.cfg.interval);
        assert_eq!(got.far_addr_mismatches, 2);
        assert_eq!(got.path_fp, s.path_fp);
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_a_miss() {
        let dir = tmpdir("fingerprint");
        let store = CheckpointStore::new(&dir, 1).unwrap();
        let key = CheckpointStore::key_for(NodeId(7), &target());
        store.store(key, &sample_series(), false).unwrap();
        let other = CheckpointStore::new(&dir, 2).unwrap();
        assert!(other.load(key).is_none(), "foreign fingerprint must not load");
        assert!(store.load(key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_version_is_a_miss() {
        // A version-1 checkpoint (pre-path_fp layout) must be re-measured,
        // not replayed with a fabricated path history.
        let dir = tmpdir("version");
        let store = CheckpointStore::new(&dir, 5).unwrap();
        let key = CheckpointStore::key_for(NodeId(4), &target());
        store.store(key, &sample_series(), false).unwrap();
        let path = dir.join(format!("link-{key:016x}.ckpt"));
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none(), "version 1 must not load");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_truncated_is_a_miss() {
        let dir = tmpdir("corrupt");
        let store = CheckpointStore::new(&dir, 9).unwrap();
        let key = CheckpointStore::key_for(NodeId(3), &target());
        store.store(key, &sample_series(), false).unwrap();
        let path = dir.join(format!("link-{key:016x}.ckpt"));
        let full = fs::read(&path).unwrap();
        for cut in [0usize, 4, 8, 21, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(store.load(key).is_none(), "truncated at {cut} must miss");
        }
        fs::write(&path, b"garbage that is long enough to cover the header area").unwrap();
        assert!(store.load(key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn blob_roundtrip_and_miss_modes() {
        let dir = tmpdir("blob");
        let store = CheckpointStore::new(&dir, 0x1234).unwrap();
        assert!(store.load_blob("monitor-shard-000").is_none(), "no blob yet");
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        store.store_blob("monitor-shard-000", &payload).unwrap();
        assert_eq!(store.load_blob("monitor-shard-000").as_deref(), Some(&payload[..]));
        // Foreign fingerprint misses; the original still loads.
        let other = CheckpointStore::new(&dir, 0x9999).unwrap();
        assert!(other.load_blob("monitor-shard-000").is_none());
        // Truncation misses rather than panicking.
        let path = dir.join("blob-monitor-shard-000.blob");
        let full = fs::read(&path).unwrap();
        for cut in [0usize, 7, 12, 27, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(store.load_blob("monitor-shard-000").is_none(), "cut {cut}");
        }
        // Unsafe names are rejected outright.
        assert!(store.store_blob("../escape", b"x").is_err());
        assert!(store.store_blob("", b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Hand-roll a v1 blob frame (magic, version=1, fingerprint, length,
    /// payload — no CRC), byte-compatible with what PR 8's store wrote.
    fn v1_frame(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(BLOB_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&fingerprint.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn blob_crc_separates_corrupt_from_stale() {
        let dir = tmpdir("blob-crc");
        let store = CheckpointStore::new(&dir, 0xFEED).unwrap();
        assert_eq!(store.load_blob_checked("shard-0"), BlobStatus::Missing);
        let payload: Vec<u8> = (0..200u8).collect();
        store.store_blob("shard-0", &payload).unwrap();
        assert_eq!(store.load_blob_checked("shard-0"), BlobStatus::Ok(payload.clone()));

        // A valid frame under a foreign fingerprint is stale, not corrupt.
        let other = CheckpointStore::new(&dir, 0xBEEF).unwrap();
        assert_eq!(other.load_blob_checked("shard-0"), BlobStatus::Stale);

        // Any single bit flip anywhere in the frame reads corrupt (or, for
        // flips landing in the version word, stale) — never Ok, no panic.
        let path = store.blob_file("shard-0").unwrap();
        let good = fs::read(&path).unwrap();
        for bit in [0usize, 7, 8 * 8, 8 * 12, 8 * 40, good.len() * 8 - 3] {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bad).unwrap();
            let got = store.load_blob_checked("shard-0");
            assert!(
                matches!(got, BlobStatus::Corrupt | BlobStatus::Stale),
                "bit {bit}: {got:?}"
            );
        }
        // Truncation at every header boundary is corrupt.
        for cut in [0usize, 5, 11, 19, 27, good.len() - 1] {
            fs::write(&path, &good[..cut]).unwrap();
            assert_eq!(store.load_blob_checked("shard-0"), BlobStatus::Corrupt, "cut {cut}");
        }
        // Garbage-prefixed: bad magic, corrupt.
        let mut prefixed = b"JUNKJUNK".to_vec();
        prefixed.extend_from_slice(&good);
        fs::write(&path, &prefixed).unwrap();
        assert_eq!(store.load_blob_checked("shard-0"), BlobStatus::Corrupt);

        // Quarantine moves the damaged file to a .corrupt sidecar and
        // frees the name.
        let sidecar = store.quarantine_blob("shard-0").unwrap().expect("file existed");
        assert!(sidecar.to_string_lossy().ends_with(".corrupt"), "{sidecar:?}");
        assert!(sidecar.exists());
        assert_eq!(store.load_blob_checked("shard-0"), BlobStatus::Missing);
        assert!(store.quarantine_blob("shard-0").unwrap().is_none(), "nothing left to move");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_blob_decodes_as_stale_never_panics() {
        let dir = tmpdir("blob-v1");
        let store = CheckpointStore::new(&dir, 0x1111).unwrap();
        let path = store.blob_file("old").unwrap();
        // A well-formed v1 frame — even with the right fingerprint — is a
        // miss: there is no CRC to trust it by.
        fs::write(&path, v1_frame(0x1111, b"payload-from-pr8")).unwrap();
        assert_eq!(store.load_blob_checked("old"), BlobStatus::Stale);
        assert_eq!(store.load_blob("old"), None);
        // A torn v1 frame is a miss too: past its version word, a v1
        // frame is never read.
        let full = v1_frame(0x1111, b"payload-from-pr8");
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(store.load_blob_checked("old"), BlobStatus::Stale);
        // An unknown future version is stale (not ours to judge).
        let mut future = full.clone();
        future[8..12].copy_from_slice(&9u32.to_le_bytes());
        fs::write(&path, &future).unwrap();
        assert_eq!(store.load_blob_checked("old"), BlobStatus::Stale);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_distinguish_targets() {
        let a = CheckpointStore::key_for(NodeId(1), &target());
        let b = CheckpointStore::key_for(NodeId(2), &target());
        let mut t = target();
        t.far_ttl = 3;
        let c = CheckpointStore::key_for(NodeId(1), &t);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}

/// Fuzz-style decode corpus: whatever bytes land in a blob file — truncated
/// frames, bit flips, garbage prefixes, raw garbage, v1 relics — the
/// checked loader must return a non-`Ok` status (or, for an untouched
/// frame, the exact payload) and must never panic. One store per process
/// (shared temp dir, per-case file names) keeps the suite fast.
#[cfg(test)]
mod blob_proptests {
    use super::*;
    use proptest::prelude::*;

    fn scratch_store() -> CheckpointStore {
        let dir = std::env::temp_dir()
            .join(format!("tslp-blob-props-{}", std::process::id()));
        CheckpointStore::new(dir, 0xC0FF_EE00).unwrap()
    }

    proptest! {
        /// Truncating a stored v2 frame anywhere short of full length is
        /// Corrupt; full length is the exact payload.
        #[test]
        fn truncation_is_detected(
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            cut_frac in 0.0f64..1.0,
        ) {
            let store = scratch_store();
            store.store_blob("trunc", &payload).unwrap();
            let path = store.blob_file("trunc").unwrap();
            let full = fs::read(&path).unwrap();
            let cut = ((full.len() as f64) * cut_frac) as usize;
            fs::write(&path, &full[..cut.min(full.len() - 1)]).unwrap();
            prop_assert_eq!(store.load_blob_checked("trunc"), BlobStatus::Corrupt);
            fs::write(&path, &full).unwrap();
            prop_assert_eq!(store.load_blob_checked("trunc"), BlobStatus::Ok(payload));
        }

        /// Any single bit flip is caught: never Ok, never a panic. Flips in
        /// the version word may read Stale (an unknown version is a miss);
        /// everything else must fail the CRC and read Corrupt.
        #[test]
        fn bitflips_are_detected(
            payload in proptest::collection::vec(any::<u8>(), 1..200),
            bit_frac in 0.0f64..1.0,
        ) {
            let store = scratch_store();
            store.store_blob("flip", &payload).unwrap();
            let path = store.blob_file("flip").unwrap();
            let mut bytes = fs::read(&path).unwrap();
            let bit = ((bytes.len() * 8 - 1) as f64 * bit_frac) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).unwrap();
            let got = store.load_blob_checked("flip");
            let in_version_word = (8..12).contains(&(bit / 8));
            if in_version_word {
                prop_assert!(
                    matches!(got, BlobStatus::Corrupt | BlobStatus::Stale),
                    "version-word flip: {:?}", got
                );
            } else {
                prop_assert_eq!(got, BlobStatus::Corrupt);
            }
        }

        /// Arbitrary garbage — including garbage that starts with the real
        /// magic, or prefixes a real frame — never decodes Ok, never panics.
        #[test]
        fn garbage_never_decodes(
            garbage in proptest::collection::vec(any::<u8>(), 0..300),
            prepend in any::<bool>(),
            with_magic in any::<bool>(),
        ) {
            let store = scratch_store();
            store.store_blob("junk", b"real payload").unwrap();
            let path = store.blob_file("junk").unwrap();
            let real = fs::read(&path).unwrap();
            let mut bytes = Vec::new();
            if with_magic {
                bytes.extend_from_slice(BLOB_MAGIC);
            }
            bytes.extend_from_slice(&garbage);
            if prepend {
                bytes.extend_from_slice(&real);
            }
            fs::write(&path, &bytes).unwrap();
            let got = store.load_blob_checked("junk");
            prop_assert!(!matches!(got, BlobStatus::Ok(_)), "{:?}", got);
        }

        /// v1 frames — intact, truncated, or flipped — are a miss or
        /// corrupt, never Ok, never a panic, with or without the right
        /// fingerprint.
        #[test]
        fn v1_frames_never_decode(
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            ours in any::<bool>(),
            cut_frac in 0.0f64..1.0,
        ) {
            let store = scratch_store();
            let fp: u64 = if ours { 0xC0FF_EE00 } else { 0x0BAD_F00D };
            let cut_frac = if ours { 1.0 } else { cut_frac }; // intact frames covered too
            let mut bytes = Vec::new();
            bytes.extend_from_slice(BLOB_MAGIC);
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&fp.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&payload);
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            let path = store.blob_file("v1").unwrap();
            fs::write(&path, &bytes[..cut.min(bytes.len())]).unwrap();
            let got = store.load_blob_checked("v1");
            prop_assert!(
                matches!(got, BlobStatus::Stale | BlobStatus::Corrupt),
                "{:?}", got
            );
        }
    }
}
