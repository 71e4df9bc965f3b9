//! Operator surface of the result store: summaries, a full checksum
//! scrub, byte-budget garbage collection, bundle export/import and
//! quarantine management.
//!
//! Everything here backs the `lowvcc-store` admin binary. Unlike the
//! lookup/publish hot path (which is infallible by design — see
//! `store.rs`), admin operations return [`StoreError`]: an operator
//! running a scrub wants to *hear* that the root is unlistable, not have
//! it papered over. Like the store's integrity checks, every operation
//! here works on whole segments: `verify` scans each one, `vacuum`
//! rewrites the survivors into a fresh one, and `quarantine` holds the
//! segments that failed.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, SystemTime};

use lowvcc_core::{decode_sim_result, SimKey};

use crate::bundle::{decode_bundle, encode_bundle, BundleRecord, ENVELOPE_LEN, RECORD_OVERHEAD};
use crate::store::{decode_records, ResultStore, SegmentFault, StoreError, QUARANTINE_DIR};

/// A point-in-time picture of what is on disk under a store root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreSummary {
    /// Live segment files.
    pub entries: u64,
    /// Bytes held by live segments.
    pub entry_bytes: u64,
    /// Files currently sitting in `quarantine/`.
    pub quarantined_entries: u64,
    /// Bytes held by quarantined files.
    pub quarantined_bytes: u64,
    /// Stale `*.tmp.*` publish leftovers swept when this handle opened.
    pub orphans_swept: u64,
    /// Whether this handle has latched memory-only (degraded) mode.
    pub degraded: bool,
}

/// Outcome of a full checksum scrub ([`ResultStore::verify`]), counted
/// in segments — the integrity unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Segments examined.
    pub scanned: u64,
    /// Segments whose envelope, digest and every record checked out.
    pub ok: u64,
    /// Segments that failed and were moved to `quarantine/`.
    pub quarantined: u64,
    /// Bytes held by the clean segments.
    pub ok_bytes: u64,
    /// Records held by the clean segments.
    pub ok_records: u64,
}

/// Outcome of a byte-budget collection ([`ResultStore::vacuum`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VacuumReport {
    /// Segments left on disk.
    pub kept: u64,
    /// Segments removed (their surviving records rewritten into a
    /// fresh one).
    pub removed: u64,
    /// Bytes remaining after the collection.
    pub kept_bytes: u64,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
    /// Records left on disk.
    pub kept_records: u64,
    /// Records dropped (least recently used first, plus duplicates).
    pub removed_records: u64,
}

/// Outcome of packing a store into an `LVCB` bundle
/// ([`ResultStore::export_bundle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BundleExportReport {
    /// Records shipped.
    pub records: u64,
    /// Size of the written bundle file.
    pub bytes: u64,
    /// Segments skipped because they failed to read or check — export
    /// never ships damage.
    pub skipped_corrupt: u64,
    /// Records filtered out by the `--since` window.
    pub skipped_stale: u64,
}

/// Outcome of unpacking an `LVCB` bundle ([`ResultStore::import_bundle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BundleImportReport {
    /// Records newly landed in this store.
    pub imported: u64,
    /// Records some segment already held (re-import is idempotent:
    /// same key, deterministically the same bytes).
    pub already_present: u64,
    /// Records that failed LVCR validation and were parked in
    /// `quarantine/` instead of entering the store.
    pub quarantined: u64,
}

/// One file in `quarantine/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Full path of the quarantined file.
    pub path: PathBuf,
    /// Its size in bytes.
    pub bytes: u64,
}

/// A live segment file: path, size, and the recency used for LRU
/// collection.
struct SegmentFile {
    path: PathBuf,
    bytes: u64,
    touched: SystemTime,
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

impl ResultStore {
    /// Lists the live segments, least recently used first (access time
    /// where the filesystem tracks it, else modification time; the
    /// segment name breaks ties, so coarse clocks still order stably).
    fn segment_files(&self) -> Result<Vec<SegmentFile>, StoreError> {
        let segdir = self.segments_dir().unwrap_or_default();
        let mut files = Vec::new();
        for (id, path) in self.list_segments().map_err(|e| io_err(&segdir, e))? {
            let meta = fs::metadata(&path).map_err(|e| io_err(&path, e))?;
            let touched = meta
                .accessed()
                .or_else(|_| meta.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            let file = SegmentFile {
                path,
                bytes: meta.len(),
                touched,
            };
            files.push((touched, id, file));
        }
        files.sort_by_key(|(touched, id, _)| (*touched, *id));
        Ok(files.into_iter().map(|(_, _, f)| f).collect())
    }

    /// Sizes up the store root: live segments, quarantine, sweep count,
    /// degradation flag — from the directory listing alone, so it never
    /// reads (or quarantines) a segment. Ephemeral stores summarize as
    /// all-zero.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if a directory cannot be listed.
    pub fn summary(&self) -> Result<StoreSummary, StoreError> {
        if self.dir().is_none() {
            return Ok(StoreSummary::default());
        }
        let live = self.segment_files()?;
        let quarantine = self.quarantine_list()?;
        Ok(StoreSummary {
            entries: live.len() as u64,
            entry_bytes: live.iter().map(|f| f.bytes).sum(),
            quarantined_entries: quarantine.len() as u64,
            quarantined_bytes: quarantine.iter().map(|q| q.bytes).sum(),
            orphans_swept: self.orphans_swept.load(Ordering::Relaxed),
            degraded: self.degraded(),
        })
    }

    /// Full checksum scrub: reads every segment through the I/O seam,
    /// checks its envelope and digest and decodes each record,
    /// quarantining every segment that fails. A second `verify` right
    /// after therefore reports zero new quarantines — scrub-clean.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the segment directory cannot be listed
    /// (individual segment failures are quarantined, not errors).
    pub fn verify(&self) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        for file in self.segment_files()? {
            let checked = self
                .read_segment(&file.path)
                .and_then(|records| decode_records(&records).map(|r| r.len() as u64));
            match checked {
                Ok(records) => {
                    report.ok += 1;
                    report.ok_bytes += file.bytes;
                    report.ok_records += records;
                }
                // Gone since the listing (another handle's vacuum).
                Err(SegmentFault::Missing) => continue,
                Err(SegmentFault::Bad(why)) => {
                    self.quarantine(&file.path, &format!("scrub failed: {why}"));
                    report.quarantined += 1;
                }
            }
            report.scanned += 1;
        }
        Ok(report)
    }

    /// Collects the store down to `max_bytes` of live segments. When the
    /// segments exceed the budget, their records are rewritten — newest
    /// first, one copy per key — into a single fresh segment that fits,
    /// and every old segment is removed: the least recently used
    /// records are the ones dropped. Segments that fail their check on
    /// the way are quarantined. Quarantined files are not counted
    /// against the budget — purge them separately.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the segment directory cannot be listed, the
    /// fresh segment cannot be published, or an old one cannot be
    /// removed.
    pub fn vacuum(&self, max_bytes: u64) -> Result<VacuumReport, StoreError> {
        let mut live = Vec::new();
        for file in self.segment_files()? {
            match self.read_segment(&file.path) {
                Ok(records) => live.push((file, records)),
                Err(SegmentFault::Missing) => {}
                Err(SegmentFault::Bad(why)) => {
                    self.quarantine(&file.path, &format!("vacuum: {why}"));
                }
            }
        }
        let total_bytes: u64 = live.iter().map(|(f, _)| f.bytes).sum();
        let total_records = live.iter().map(|(_, r)| r.len() as u64).sum();
        if total_bytes <= max_bytes {
            return Ok(VacuumReport {
                kept: live.len() as u64,
                kept_bytes: total_bytes,
                kept_records: total_records,
                ..VacuumReport::default()
            });
        }
        let mut seen = HashSet::new();
        let mut survivors = Vec::new();
        let mut size = ENVELOPE_LEN as u64;
        'fill: for (_, records) in live.iter().rev() {
            for r in records {
                if !seen.insert(r.key) {
                    continue;
                }
                let grown = size + (RECORD_OVERHEAD + r.bytes.len()) as u64;
                if grown > max_bytes {
                    break 'fill;
                }
                size = grown;
                survivors.push(r.clone());
            }
        }
        let mut report = VacuumReport {
            removed: live.len() as u64,
            removed_records: total_records - survivors.len() as u64,
            ..VacuumReport::default()
        };
        if !survivors.is_empty() {
            survivors.sort_by_key(|r| r.key);
            let image = encode_bundle(&survivors);
            let keys = survivors.iter().map(|r| SimKey::from_value(r.key));
            self.publish_segment(self.next_segment(), &image, keys)
                .map_err(|e| io_err(&self.segments_dir().unwrap_or_default(), e))?;
            report.kept = 1;
            report.kept_bytes = image.len() as u64;
            report.kept_records = survivors.len() as u64;
        }
        for (file, _) in &live {
            self.io
                .remove_file(&file.path)
                .map_err(|e| io_err(&file.path, e))?;
            self.forget_segment(&file.path);
        }
        report.removed_bytes = total_bytes - report.kept_bytes;
        Ok(report)
    }

    /// Merges the valid records of every live segment into one `LVCB`
    /// bundle at `out`, one copy per key, sorted by key — so two exports
    /// of identical content are byte-identical files — and written
    /// atomically (fsynced sibling tempfile, rename). `since` keeps only
    /// records whose segment was touched within that window (access
    /// time, falling back to mtime — the same recency the vacuum uses).
    /// Segments that fail to read or check are skipped and counted,
    /// never shipped. Ephemeral stores export an empty (but valid)
    /// bundle.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the segment directory cannot be listed or
    /// the bundle cannot be written.
    pub fn export_bundle(
        &self,
        out: &Path,
        since: Option<Duration>,
    ) -> Result<BundleExportReport, StoreError> {
        let mut report = BundleExportReport::default();
        let mut merged = BTreeMap::new();
        let cutoff = since.and_then(|window| SystemTime::now().checked_sub(window));
        for file in self.segment_files()? {
            let checked = self
                .read_segment(&file.path)
                .and_then(|records| decode_records(&records).map(|_| records));
            let Ok(records) = checked else {
                report.skipped_corrupt += 1;
                continue;
            };
            if cutoff.is_some_and(|c| file.touched < c) {
                report.skipped_stale += records.len() as u64;
                continue;
            }
            for r in records {
                merged.entry(r.key).or_insert(r);
            }
        }
        let shipped: Vec<BundleRecord> = merged.into_values().collect();
        report.records = shipped.len() as u64;
        let image = encode_bundle(&shipped);
        report.bytes = image.len() as u64;
        let name = out
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("bundle.lvcb");
        let tmp = out.with_file_name(format!(".{name}.tmp.{}", std::process::id()));
        self.io.write_sync(&tmp, &image).map_err(|e| {
            let _ = self.io.remove_file(&tmp);
            io_err(&tmp, e)
        })?;
        self.io.rename(&tmp, out).map_err(|e| {
            let _ = self.io.remove_file(&tmp);
            io_err(out, e)
        })?;
        if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
            // Durability of the rename itself; failure here does not
            // un-write the bundle.
            let _ = self.io.sync_dir(parent);
        }
        Ok(report)
    }

    /// Unpacks an `LVCB` bundle into this store. The bundle envelope is
    /// verified fail-closed first (digest, magic, versions) — a damaged
    /// or foreign-engine bundle imports nothing. Each record is then
    /// LVCR-decoded: invalid ones are parked in `quarantine/` and
    /// counted rather than aborting the rest, and the valid ones no
    /// segment holds yet are published atomically as **one** segment
    /// (so re-import after a partial failure is idempotent). Ephemeral
    /// stores import into the memory tier.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the bundle envelope fails validation;
    /// [`StoreError::Io`] if the bundle cannot be read or the segment
    /// cannot be published.
    pub fn import_bundle(&self, file: &Path) -> Result<BundleImportReport, StoreError> {
        let image = self.io.read(file).map_err(|e| io_err(file, e))?;
        let records = decode_bundle(&image).map_err(|source| StoreError::Corrupt {
            path: file.to_path_buf(),
            source,
        })?;
        self.refresh_index(None);
        let mut report = BundleImportReport::default();
        let mut fresh = Vec::new();
        let mut seen = HashSet::new();
        for rec in records {
            let key = SimKey::from_value(rec.key);
            match decode_sim_result(&rec.bytes) {
                Err(_) => {
                    if let Some(dir) = self.dir() {
                        let qdir = dir.join(QUARANTINE_DIR);
                        let dest = qdir.join(format!("bundle-{}.rec", key.to_hex()));
                        // Best-effort parking; the count is the record
                        // of what happened even if the write fails.
                        let _ = self
                            .io
                            .create_dir_all(&qdir)
                            .and_then(|()| self.io.write_sync(&dest, &rec.bytes));
                    }
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    report.quarantined += 1;
                }
                Ok(result) if self.dir().is_none() => {
                    self.insert_memory(key, &result);
                    report.imported += 1;
                }
                Ok(_) if self.indexed(key) || !seen.insert(key) => report.already_present += 1,
                Ok(_) => fresh.push(rec),
            }
        }
        if !fresh.is_empty() {
            let keys = fresh.iter().map(|r| SimKey::from_value(r.key));
            self.publish_segment(self.next_segment(), &encode_bundle(&fresh), keys)
                .map_err(|e| io_err(&self.segments_dir().unwrap_or_default(), e))?;
            report.imported = fresh.len() as u64;
        }
        Ok(report)
    }

    /// Lists the files currently in `quarantine/` (whole segments, and
    /// bundle records that failed import), sorted by path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the quarantine directory exists but cannot
    /// be listed.
    pub fn quarantine_list(&self) -> Result<Vec<QuarantineEntry>, StoreError> {
        let Some(dir) = self.dir() else {
            return Ok(Vec::new());
        };
        let qdir = dir.join(QUARANTINE_DIR);
        let listing = match fs::read_dir(&qdir) {
            Ok(l) => l,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&qdir, e)),
        };
        let mut entries = Vec::new();
        for entry in listing {
            let entry = entry.map_err(|e| io_err(&qdir, e))?;
            let path = entry.path();
            if path.is_file() {
                let bytes = entry.metadata().map_err(|e| io_err(&path, e))?.len();
                entries.push(QuarantineEntry { path, bytes });
            }
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
    }

    /// Deletes everything in `quarantine/`, returning how many files
    /// were purged.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if a quarantined file cannot be removed.
    pub fn quarantine_purge(&self) -> Result<u64, StoreError> {
        let entries = self.quarantine_list()?;
        for entry in &entries {
            self.io
                .remove_file(&entry.path)
                .map_err(|e| io_err(&entry.path, e))?;
        }
        Ok(entries.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Flight;
    use lowvcc_core::{sim_key, CoreConfig, Mechanism, SimConfig, SimKey, SimResult, Simulator};
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::CycleTimeModel;
    use lowvcc_trace::{TraceSpec, WorkloadFamily};

    fn run_at(vcc: u32) -> (SimKey, SimResult) {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(vcc),
            Mechanism::Iraw,
        );
        let spec = TraceSpec::new(WorkloadFamily::Kernel, 0, 3_000);
        let result = Simulator::new(cfg.clone())
            .unwrap()
            .run(&spec.build().unwrap())
            .unwrap();
        (sim_key(&cfg, &spec), result)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lowvcc_admin_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// The segment file under `dir` that holds `key`, found by decoding.
    fn segment_holding(dir: &Path, key: SimKey) -> PathBuf {
        fs::read_dir(dir.join(crate::store::SEGMENTS_DIR))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| {
                decode_bundle(&fs::read(p).unwrap())
                    .unwrap()
                    .iter()
                    .any(|r| r.key == key.value())
            })
            .expect("a segment holds the key")
    }

    #[test]
    fn verify_quarantines_exactly_the_corrupt_records() {
        let dir = tmpdir("verify");
        let store = ResultStore::open(&dir).unwrap();
        let keys: Vec<SimKey> = [450u32, 500, 550]
            .iter()
            .map(|&v| {
                let (key, result) = run_at(v);
                store.put(key, &result);
                key
            })
            .collect();
        // Corrupt the segment holding the second of the three.
        let victim = segment_holding(&dir, keys[1]);
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        fs::write(&victim, &bytes).unwrap();

        let report = store.verify().unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.ok, 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.ok_records, 2);
        // Scrub-clean: a second pass finds nothing left to quarantine.
        let again = store.verify().unwrap();
        assert_eq!(again.scanned, 2);
        assert_eq!(again.quarantined, 0);
        let summary = store.summary().unwrap();
        assert_eq!(summary.entries, 2);
        assert_eq!(summary.quarantined_entries, 1);
        assert_eq!(store.quarantine_list().unwrap().len(), 1);
        assert_eq!(store.quarantine_purge().unwrap(), 1);
        assert_eq!(store.quarantine_list().unwrap().len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn vacuum_rewrites_the_newest_records_into_one_segment_within_budget() {
        let dir = tmpdir("vacuum");
        let store = ResultStore::open(&dir).unwrap();
        let puts: Vec<(SimKey, SimResult)> = [450u32, 475, 500, 525, 550].map(run_at).into();
        for (key, result) in &puts {
            store.put(*key, result);
        }
        let before = store.summary().unwrap();
        assert_eq!(before.entries, 5, "one segment per put");
        // Budget for one segment holding the two newest records: the
        // three oldest go.
        let newest: Vec<BundleRecord> = puts[3..]
            .iter()
            .map(|(k, r)| BundleRecord {
                key: k.value(),
                bytes: lowvcc_core::encode_sim_result(r),
            })
            .collect();
        let budget = encode_bundle(&newest).len() as u64;
        let report = store.vacuum(budget).unwrap();
        assert_eq!((report.removed, report.kept), (5, 1));
        assert_eq!((report.removed_records, report.kept_records), (3, 2));
        assert_eq!(report.kept_bytes, budget);
        assert_eq!(report.kept_bytes + report.removed_bytes, before.entry_bytes);
        assert_eq!(store.summary().unwrap().entries, 1);
        // The survivors are the two newest keys.
        let cold = ResultStore::open(&dir).unwrap();
        assert_eq!(cold.get(puts[0].0), None);
        assert_eq!(cold.get(puts[3].0).as_ref(), Some(&puts[3].1));
        assert_eq!(cold.get(puts[4].0).as_ref(), Some(&puts[4].1));
        // A roomy budget removes nothing.
        let noop = store.vacuum(u64::MAX).unwrap();
        assert_eq!((noop.removed, noop.kept, noop.kept_records), (0, 1, 2));
        // The survivors still verify clean.
        let scrub = store.verify().unwrap();
        assert_eq!(
            (scrub.scanned, scrub.quarantined, scrub.ok_records),
            (1, 0, 2)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn vacuumed_keys_resimulate_cleanly() {
        let dir = tmpdir("revive");
        let store = ResultStore::open(&dir).unwrap();
        let (key, result) = run_at(500);
        store.put(key, &result);
        store.vacuum(0).unwrap();
        assert_eq!(store.summary().unwrap().entries, 0);
        // The LRU may still answer; a cold handle must miss and lead.
        let cold = ResultStore::open(&dir).unwrap();
        assert!(matches!(cold.lookup(key), Flight::Lead(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bundle_round_trip_ships_a_warm_cache() {
        let src = tmpdir("bundle_src");
        let store = ResultStore::open(&src).unwrap();
        let keys: Vec<SimKey> = [450u32, 500, 550]
            .iter()
            .map(|&v| {
                let (key, result) = run_at(v);
                store.put(key, &result);
                key
            })
            .collect();
        let out = tmpdir("bundle_out");
        fs::create_dir_all(&out).unwrap();
        let bundle = out.join("warm.lvcb");
        let report = store.export_bundle(&bundle, None).unwrap();
        assert_eq!(report.records, 3);
        assert_eq!((report.skipped_corrupt, report.skipped_stale), (0, 0));
        // Deterministic: a second export is byte-identical.
        let bundle2 = out.join("warm2.lvcb");
        store.export_bundle(&bundle2, None).unwrap();
        assert_eq!(fs::read(&bundle).unwrap(), fs::read(&bundle2).unwrap());

        // Import into a fresh root: a cold handle then hits everything.
        let dst = tmpdir("bundle_dst");
        let fresh = ResultStore::open(&dst).unwrap();
        let imported = fresh.import_bundle(&bundle).unwrap();
        assert_eq!(imported.imported, 3);
        let cold = ResultStore::open(&dst).unwrap();
        for &key in &keys {
            assert!(cold.get(key).is_some());
        }
        assert_eq!(cold.stats().misses, 0);
        // Re-import is idempotent.
        let again = fresh.import_bundle(&bundle).unwrap();
        assert_eq!((again.imported, again.already_present), (0, 3));

        // An ephemeral store imports into its memory tier.
        let mem = ResultStore::ephemeral();
        assert_eq!(mem.import_bundle(&bundle).unwrap().imported, 3);
        assert!(mem.get(keys[0]).is_some());
        assert_eq!(mem.disk_entries(), 0);
        for d in [&src, &out, &dst] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn export_merges_one_copy_per_key_across_segments() {
        let src = tmpdir("bundle_merge");
        let store = ResultStore::open(&src).unwrap();
        let (a, ra) = run_at(450);
        let (b, rb) = run_at(500);
        store.put_batch(&[(a, ra.clone()), (b, rb)]);
        // A second writer publishes `a` again: two segments hold it.
        ResultStore::open(&src).unwrap().with_writer(1).put(a, &ra);
        assert_eq!(store.summary().unwrap().entries, 2);
        let out = src.join("merged.lvcb");
        let report = store.export_bundle(&out, None).unwrap();
        assert_eq!(report.records, 2, "one copy per key");
        let keys: Vec<u128> = decode_bundle(&fs::read(&out).unwrap())
            .unwrap()
            .iter()
            .map(|r| r.key)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "sorted by key");
        let _ = fs::remove_dir_all(&src);
    }

    #[test]
    fn bundle_since_window_filters_stale_records() {
        let src = tmpdir("bundle_since");
        let store = ResultStore::open(&src).unwrap();
        let (key, result) = run_at(500);
        store.put(key, &result);
        // A generous window keeps everything…
        let all = src.join("all.lvcb");
        let report = store
            .export_bundle(&all, Some(Duration::from_secs(3600)))
            .unwrap();
        assert_eq!((report.records, report.skipped_stale), (1, 0));
        // …and once the record is older than the window, it is skipped.
        std::thread::sleep(Duration::from_millis(60));
        let none = src.join("none.lvcb");
        let report = store
            .export_bundle(&none, Some(Duration::from_millis(1)))
            .unwrap();
        assert_eq!((report.records, report.skipped_stale), (0, 1));
        let _ = fs::remove_dir_all(&src);
    }

    #[test]
    fn bundle_import_fails_closed_and_quarantines_bad_records() {
        let (key, result) = run_at(500);
        let good = crate::bundle::BundleRecord {
            key: key.value(),
            bytes: lowvcc_core::encode_sim_result(&result),
        };
        let bad = crate::bundle::BundleRecord {
            key: key.value() ^ 1,
            bytes: b"not an LVCR record".to_vec(),
        };
        let image = crate::bundle::encode_bundle(&[good, bad]);
        let dir = tmpdir("bundle_quarantine");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("mixed.lvcb");
        fs::write(&file, &image).unwrap();

        let root = tmpdir("bundle_quarantine_root");
        let store = ResultStore::open(&root).unwrap();
        let report = store.import_bundle(&file).unwrap();
        assert_eq!((report.imported, report.quarantined), (1, 1));
        assert_eq!(store.quarantine_list().unwrap().len(), 1);
        assert!(store.get(key).is_some());

        // A flipped byte anywhere in the envelope imports nothing.
        let mut torn = image;
        torn[10] ^= 0x20;
        fs::write(&file, &torn).unwrap();
        let fresh_root = tmpdir("bundle_torn_root");
        let fresh = ResultStore::open(&fresh_root).unwrap();
        assert!(matches!(
            fresh.import_bundle(&file),
            Err(StoreError::Corrupt { .. })
        ));
        assert_eq!(fresh.summary().unwrap().entries, 0);
        for d in [&dir, &root, &fresh_root] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn ephemeral_admin_surface_is_all_zero() {
        let store = ResultStore::ephemeral();
        assert_eq!(store.summary().unwrap(), StoreSummary::default());
        assert_eq!(store.verify().unwrap(), ScrubReport::default());
        assert_eq!(store.vacuum(0).unwrap(), VacuumReport::default());
        assert_eq!(store.quarantine_list().unwrap(), Vec::new());
        assert_eq!(store.quarantine_purge().unwrap(), 0);
    }
}
