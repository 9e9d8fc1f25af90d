//! Compressed, spillable storage backing the model checker's reachable
//! closure.
//!
//! Three structures, all std-only:
//!
//! * [`ConfigStore`] — append-only store of count vectors, delta/varint
//!   encoded in blocks of [`BLOCK`] with a per-block byte index. Successive
//!   BFS discoveries differ in only four coordinates (two decrements, two
//!   increments), so the zigzag-encoded deltas are almost all single bytes
//!   and the store costs a few bytes per configuration instead of `4k`.
//! * [`HashIndex`] — open-addressing map from a count vector's hash to its
//!   dense id, confirming candidate hits by decoding the stored vector. This
//!   replaces `HashMap<Box<[u32]>, u32>`, whose boxed keys dominated the old
//!   explorer's memory.
//! * [`EdgeStore`] — CSR successor lists that transparently spill to a
//!   self-deleting temp file once the resident estimate passes
//!   `max_resident_bytes`. Offsets stay resident (8 bytes/state); edge
//!   records are 12 bytes on disk. [`EdgeStore::ordered`] materializes a
//!   sweep-ordered copy so each Gauss–Seidel sweep is one sequential scan.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Count vectors per delta block; the first vector of each block is encoded
/// absolutely, the rest as deltas against their predecessor.
pub(crate) const BLOCK: usize = 32;

/// Resident bytes charged per CSR edge (a `(u32, u64)` with padding).
pub(crate) const EDGE_MEM_BYTES: usize = 16;

/// Bytes per edge record on disk: `u32` target + `u64` weight, little-endian.
const EDGE_DISK_BYTES: usize = 12;

fn write_varint(bytes: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            bytes.push(b);
            return;
        }
        bytes.push(b | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append-only, block-indexed, delta/varint-compressed store of `k`-length
/// count vectors, addressed by dense id in insertion order.
pub(crate) struct ConfigStore {
    k: usize,
    len: usize,
    bytes: Vec<u8>,
    /// Byte offset of the start of each block of [`BLOCK`] vectors.
    block_offsets: Vec<u64>,
    /// The most recently pushed vector — the delta base for the next push.
    prev: Vec<u32>,
}

impl ConfigStore {
    pub(crate) fn new(k: usize) -> Self {
        ConfigStore { k, len: 0, bytes: Vec::new(), block_offsets: Vec::new(), prev: vec![0; k] }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Compressed size in bytes (for capacity accounting and stats).
    #[cfg(test)]
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len() + self.block_offsets.len() * 8
    }

    /// Appends a vector, returning its id.
    pub(crate) fn push(&mut self, counts: &[u32]) -> u32 {
        debug_assert_eq!(counts.len(), self.k);
        let id = self.len as u32;
        if self.len.is_multiple_of(BLOCK) {
            self.block_offsets.push(self.bytes.len() as u64);
            for &c in counts {
                write_varint(&mut self.bytes, u64::from(c));
            }
        } else {
            for (&c, &p) in counts.iter().zip(self.prev.iter()) {
                write_varint(&mut self.bytes, zigzag(i64::from(c) - i64::from(p)));
            }
        }
        self.prev.copy_from_slice(counts);
        self.len += 1;
        id
    }

    /// Decodes vector `id` into `out` (length `k`): binary-search-free block
    /// lookup via the offset index, then at most [`BLOCK`] − 1 delta
    /// applications.
    pub(crate) fn get(&self, id: u32, out: &mut [u32]) {
        debug_assert!((id as usize) < self.len);
        debug_assert_eq!(out.len(), self.k);
        let block = id as usize / BLOCK;
        let mut pos = self.block_offsets[block] as usize;
        for slot in out.iter_mut() {
            *slot = read_varint(&self.bytes, &mut pos) as u32;
        }
        for _ in 0..(id as usize % BLOCK) {
            for slot in out.iter_mut() {
                let delta = unzigzag(read_varint(&self.bytes, &mut pos));
                *slot = (i64::from(*slot) + delta) as u32;
            }
        }
    }

    /// Calls `f(id, counts)` for every vector in id order, decoding each
    /// block once instead of once per [`ConfigStore::get`].
    pub(crate) fn for_each(&self, mut f: impl FnMut(u32, &[u32])) {
        let mut pos = 0usize;
        let mut counts = vec![0u32; self.k];
        for id in 0..self.len {
            let absolute = id.is_multiple_of(BLOCK);
            for slot in counts.iter_mut() {
                let v = read_varint(&self.bytes, &mut pos);
                *slot = if absolute { v as u32 } else { (i64::from(*slot) + unzigzag(v)) as u32 };
            }
            f(id as u32, &counts);
        }
    }
}

/// A 64-bit hash of a count vector: word-wise FNV-1a with a final
/// Murmur-style avalanche so the low bits (used as the table index) are
/// well mixed.
pub(crate) fn hash_counts(counts: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in counts {
        h ^= u64::from(c).wrapping_add(1);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

const EMPTY: u32 = u32::MAX;

/// Open-addressing (linear probing) index from vector hash to dense id.
/// Collisions are confirmed by the caller through the `eq` callback, which
/// decodes the stored vector with that id and compares.
pub(crate) struct HashIndex {
    /// `(hash, id)` slots; `id == EMPTY` marks a free slot. Power-of-two
    /// length.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl HashIndex {
    pub(crate) fn new() -> Self {
        HashIndex { slots: vec![(0, EMPTY); 1024], len: 0 }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Looks up the id whose stored vector equals the probe (same hash and
    /// `eq(id)` true), or `None`.
    pub(crate) fn lookup(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if id == EMPTY {
                return None;
            }
            if h == hash && eq(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a `(hash, id)` pair the caller knows is absent.
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        if (self.len + 1) * 10 >= self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id);
        self.len += 1;
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); doubled]);
        let mask = self.slots.len() - 1;
        for (h, id) in old {
            if id == EMPTY {
                continue;
            }
            let mut i = h as usize & mask;
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (h, id);
        }
    }
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(dir: Option<&Path>, tag: &str) -> PathBuf {
    let dir = dir.map(Path::to_path_buf).unwrap_or_else(std::env::temp_dir);
    let c = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("ppsim-mcheck-{}-{c}-{tag}.spill", std::process::id()))
}

/// A temp file deleted on drop.
pub(super) struct TempFile {
    path: PathBuf,
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

struct SpillFile {
    temp: TempFile,
    /// Present while the store is still being appended to; dropped (and
    /// flushed) by [`EdgeStore::seal`].
    writer: Option<BufWriter<File>>,
}

fn encode_edge(buf: &mut [u8], t: u32, w: u64) {
    buf[..4].copy_from_slice(&t.to_le_bytes());
    buf[4..12].copy_from_slice(&w.to_le_bytes());
}

fn decode_edges(bytes: &[u8], out: &mut Vec<(u32, u64)>) {
    out.clear();
    for rec in bytes.chunks_exact(EDGE_DISK_BYTES) {
        let t = u32::from_le_bytes(rec[..4].try_into().unwrap());
        let w = u64::from_le_bytes(rec[4..12].try_into().unwrap());
        out.push((t, w));
    }
}

/// CSR successor lists with transparent spill-to-disk: per-state
/// `(target, weight)` edge lists appended in state order. The offset table
/// always stays resident; edges move to a self-deleting temp file when their
/// resident footprint would exceed the configured bound.
pub(crate) struct EdgeStore {
    /// `offsets[s]..offsets[s + 1]` index state `s`'s edges; starts `[0]`.
    offsets: Vec<u64>,
    resident: Vec<(u32, u64)>,
    spill: Option<SpillFile>,
    max_resident_bytes: usize,
    spill_dir: Option<PathBuf>,
}

impl EdgeStore {
    pub(crate) fn new(max_resident_bytes: usize, spill_dir: Option<PathBuf>) -> Self {
        EdgeStore {
            offsets: vec![0],
            resident: Vec::new(),
            spill: None,
            max_resident_bytes,
            spill_dir,
        }
    }

    pub(crate) fn num_states(&self) -> usize {
        self.offsets.len() - 1
    }

    pub(crate) fn edge_count(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    pub(crate) fn is_spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// Bytes written to the spill file: `edge_count * EDGE_DISK_BYTES` once
    /// spilled, zero while fully resident. Feeds the `mcheck.spill_bytes`
    /// telemetry counter.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        if self.is_spilled() {
            self.edge_count() * EDGE_DISK_BYTES as u64
        } else {
            0
        }
    }

    fn degree(&self, s: usize) -> usize {
        (self.offsets[s + 1] - self.offsets[s]) as usize
    }

    /// Appends the edge list of the next state (state ids are assigned in
    /// call order), spilling first if the resident estimate would pass the
    /// bound.
    pub(crate) fn push_state(&mut self, edges: &[(u32, u64)]) -> io::Result<()> {
        if self.spill.is_none()
            && (self.resident.len() + edges.len()) * EDGE_MEM_BYTES > self.max_resident_bytes
        {
            self.activate_spill()?;
        }
        match &mut self.spill {
            Some(sp) => {
                let writer = sp.writer.as_mut().expect("pushing into a sealed edge store");
                let mut rec = [0u8; EDGE_DISK_BYTES];
                for &(t, w) in edges {
                    encode_edge(&mut rec, t, w);
                    writer.write_all(&rec)?;
                }
            }
            None => self.resident.extend_from_slice(edges),
        }
        let next = *self.offsets.last().unwrap() + edges.len() as u64;
        self.offsets.push(next);
        Ok(())
    }

    fn activate_spill(&mut self) -> io::Result<()> {
        let path = temp_path(self.spill_dir.as_deref(), "edges");
        let file = OpenOptions::new().create_new(true).read(true).write(true).open(&path)?;
        let temp = TempFile { path };
        let mut writer = BufWriter::new(file);
        let mut rec = [0u8; EDGE_DISK_BYTES];
        for &(t, w) in &self.resident {
            encode_edge(&mut rec, t, w);
            writer.write_all(&rec)?;
        }
        self.resident = Vec::new();
        self.spill = Some(SpillFile { temp, writer: Some(writer) });
        Ok(())
    }

    /// Flushes and closes the spill writer; must be called once after the
    /// last `push_state` and before any read.
    pub(crate) fn seal(&mut self) -> io::Result<()> {
        if let Some(sp) = &mut self.spill {
            if let Some(mut w) = sp.writer.take() {
                w.flush()?;
            }
        }
        Ok(())
    }

    /// The resident edge slice of a state; only valid while un-spilled.
    pub(crate) fn edges_resident(&self, s: usize) -> &[(u32, u64)] {
        debug_assert!(!self.is_spilled());
        &self.resident[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Scans every state's edge list in state order — a slice walk when
    /// resident, one sequential file read when spilled.
    pub(crate) fn for_each_state(&self, mut f: impl FnMut(u32, &[(u32, u64)])) -> io::Result<()> {
        match &self.spill {
            None => {
                for s in 0..self.num_states() {
                    f(s as u32, self.edges_resident(s));
                }
            }
            Some(sp) => {
                debug_assert!(sp.writer.is_none(), "seal the store before scanning");
                let mut reader = BufReader::with_capacity(1 << 20, File::open(&sp.temp.path)?);
                let mut bytes: Vec<u8> = Vec::new();
                let mut edges: Vec<(u32, u64)> = Vec::new();
                for s in 0..self.num_states() {
                    let deg = self.degree(s);
                    bytes.resize(deg * EDGE_DISK_BYTES, 0);
                    reader.read_exact(&mut bytes)?;
                    decode_edges(&bytes, &mut edges);
                    f(s as u32, &edges);
                }
            }
        }
        Ok(())
    }

    /// Prepares repeated sweeps that visit states in `order`: free for a
    /// resident store, a one-time permuted temp-file copy (seek-read per
    /// state, sequential thereafter) when spilled.
    pub(crate) fn ordered<'a>(&'a self, order: &'a [u32]) -> io::Result<OrderedSweep<'a>> {
        let Some(sp) = &self.spill else {
            return Ok(OrderedSweep::Resident { store: self, order });
        };
        debug_assert!(sp.writer.is_none(), "seal the store before sweeping");
        let mut src = File::open(&sp.temp.path)?;
        let out_path = temp_path(self.spill_dir.as_deref(), "sweep");
        let out_file =
            OpenOptions::new().create_new(true).read(true).write(true).open(&out_path)?;
        let temp = TempFile { path: out_path };
        let mut writer = BufWriter::with_capacity(1 << 20, out_file);
        let mut bytes: Vec<u8> = Vec::new();
        for &s in order {
            let deg = self.degree(s as usize);
            bytes.resize(deg * EDGE_DISK_BYTES, 0);
            src.seek(SeekFrom::Start(self.offsets[s as usize] * EDGE_DISK_BYTES as u64))?;
            src.read_exact(&mut bytes)?;
            writer.write_all(&bytes)?;
        }
        writer.flush()?;
        drop(writer);
        Ok(OrderedSweep::Spilled { store: self, order, temp })
    }
}

/// Repeated in-order sweeps over an [`EdgeStore`]; see [`EdgeStore::ordered`].
pub(crate) enum OrderedSweep<'a> {
    Resident { store: &'a EdgeStore, order: &'a [u32] },
    Spilled { store: &'a EdgeStore, order: &'a [u32], temp: TempFile },
}

impl OrderedSweep<'_> {
    /// One sweep: calls `f(state, edges)` for every state in order.
    pub(crate) fn sweep(&self, mut f: impl FnMut(u32, &[(u32, u64)])) -> io::Result<()> {
        match self {
            OrderedSweep::Resident { store, order } => {
                for &s in *order {
                    f(s, store.edges_resident(s as usize));
                }
            }
            OrderedSweep::Spilled { store, order, temp } => {
                let mut reader = BufReader::with_capacity(1 << 20, File::open(&temp.path)?);
                let mut bytes: Vec<u8> = Vec::new();
                let mut edges: Vec<(u32, u64)> = Vec::new();
                for &s in *order {
                    let deg = store.degree(s as usize);
                    bytes.resize(deg * EDGE_DISK_BYTES, 0);
                    reader.read_exact(&mut bytes)?;
                    decode_edges(&bytes, &mut edges);
                    f(s, &edges);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_store_roundtrips_across_blocks() {
        let k = 5;
        let mut store = ConfigStore::new(k);
        let vectors: Vec<Vec<u32>> = (0..3 * BLOCK + 7)
            .map(|i| {
                (0..k)
                    .map(|j| ((i * 31 + j * 17) % 9) as u32 + if j == 0 { 1000 } else { 0 })
                    .collect()
            })
            .collect();
        for (i, v) in vectors.iter().enumerate() {
            assert_eq!(store.push(v), i as u32);
        }
        let mut out = vec![0u32; k];
        // Random-access order, not insertion order.
        for (i, v) in vectors.iter().enumerate().rev() {
            store.get(i as u32, &mut out);
            assert_eq!(&out, v, "vector {i} roundtrips");
        }
        // The sequential scan decodes the same vectors in id order.
        let mut scanned = Vec::new();
        store.for_each(|id, v| {
            assert_eq!(id as usize, scanned.len());
            scanned.push(v.to_vec());
        });
        assert_eq!(scanned, vectors);
        // Delta encoding actually compresses near-identical neighbours.
        assert!(store.byte_len() < vectors.len() * k * 4);
    }

    #[test]
    fn hash_index_distinguishes_collisions_by_content() {
        let mut store = ConfigStore::new(3);
        let mut index = HashIndex::new();
        let mut buf = vec![0u32; 3];
        let vs: Vec<[u32; 3]> = (0..500).map(|i| [i, 2 * i + 1, i % 7]).collect();
        for v in &vs {
            let h = hash_counts(v);
            assert!(index
                .lookup(h, |id| {
                    store.get(id, &mut buf);
                    buf == v
                })
                .is_none());
            let id = store.push(v);
            index.insert(h, id);
        }
        for (i, v) in vs.iter().enumerate() {
            let h = hash_counts(v);
            let found = index.lookup(h, |id| {
                store.get(id, &mut buf);
                buf == v
            });
            assert_eq!(found, Some(i as u32));
        }
        assert_eq!(index.len(), vs.len());
    }

    #[test]
    fn edge_store_spills_and_reads_back_identically() {
        let per_state: Vec<Vec<(u32, u64)>> =
            (0u32..40).map(|s| (0..s % 5).map(|t| (t, (s * 10 + t) as u64)).collect()).collect();
        // Resident reference.
        let mut resident = EdgeStore::new(usize::MAX, None);
        // Tiny budget: spills after a handful of edges.
        let mut spilled = EdgeStore::new(4 * EDGE_MEM_BYTES, None);
        for edges in &per_state {
            resident.push_state(edges).unwrap();
            spilled.push_state(edges).unwrap();
        }
        resident.seal().unwrap();
        spilled.seal().unwrap();
        assert!(!resident.is_spilled());
        assert!(spilled.is_spilled());
        assert_eq!(resident.edge_count(), spilled.edge_count());

        let mut got: Vec<Vec<(u32, u64)>> = Vec::new();
        spilled
            .for_each_state(|s, edges| {
                assert_eq!(s as usize, got.len());
                got.push(edges.to_vec());
            })
            .unwrap();
        assert_eq!(got, per_state);

        // Ordered sweeps agree with the resident store under a shuffled order.
        let order: Vec<u32> = (0..40u32).rev().collect();
        let ordered = spilled.ordered(&order).unwrap();
        let mut got_ordered: Vec<(u32, Vec<(u32, u64)>)> = Vec::new();
        ordered.sweep(|s, edges| got_ordered.push((s, edges.to_vec()))).unwrap();
        // Sweeps are repeatable.
        let mut again: Vec<(u32, Vec<(u32, u64)>)> = Vec::new();
        ordered.sweep(|s, edges| again.push((s, edges.to_vec()))).unwrap();
        assert_eq!(got_ordered, again);
        for (s, edges) in &got_ordered {
            assert_eq!(edges, &per_state[*s as usize]);
        }
    }

    #[test]
    fn spill_files_are_deleted_on_drop() {
        // A directory of its own: concurrent tests spilling into the shared
        // temp directory would otherwise race the file counts.
        let dir = std::env::temp_dir().join(format!("ppsim-drop-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let before: Vec<_> = spill_files_in(&dir);
        {
            let mut store = EdgeStore::new(0, Some(dir.clone()));
            store.push_state(&[(0, 1), (1, 2)]).unwrap();
            store.seal().unwrap();
            assert!(store.is_spilled());
            assert!(spill_files_in(&dir).len() > before.len());
        }
        assert_eq!(spill_files_in(&dir).len(), before.len());
        fs::remove_dir(&dir).unwrap();
    }

    fn spill_files_in(dir: &Path) -> Vec<PathBuf> {
        let pid = std::process::id().to_string();
        fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|f| f.to_str())
                    .is_some_and(|f| f.starts_with(&format!("ppsim-mcheck-{pid}-")))
            })
            .collect()
    }
}
