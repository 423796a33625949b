//! Structure-of-arrays candidate batches for columnar sweep kernels.
//!
//! The scalar sweep path builds one `Candidate` struct per figure-of-merit
//! row, boxing names and allocating per point. On a memo miss that
//! allocation traffic — not arithmetic — bounds throughput. This module
//! provides the data-oriented alternative the batch kernels in
//! `xlda_core::evaluate` fill:
//!
//! - [`CandidateBatch`] — candidate rows stored column-wise (one
//!   contiguous `Vec<f64>` per figure of merit), points delimited by a
//!   CSR-style offset column, names interned once per batch, and a
//!   parallel per-point [`PointStatus`] column so one poisoned lane
//!   cannot take down its batch.
//! - [`ExactCache`] — a tiny linear-scan cache keyed by full `PartialEq`
//!   equality (no quantization), used by the kernels to hoist invariant
//!   circuit solves out of the point loop. Unlike the global memo layer
//!   it cannot conflate two distinct keys, so results through it are
//!   bit-identical by construction.
//! - Lane-unrolled column passes ([`scale_u32`], [`product_scaled`],
//!   [`product_scaled2`]) — manual 4-lane f64 loops the autovectorizer
//!   can take, written to reproduce the scalar path's expression shapes
//!   exactly (integer product first, one cast, then left-to-right
//!   multiplies).
//!
//! A batch is filled with a strict protocol: interleave [`push_lane`]
//! calls with exactly one [`close_point`] *or* [`fail_point`] per input
//! point, in input order. `fail_point` discards any lanes already pushed
//! for the open point, mirroring the scalar path's `?` semantics where
//! the first failing candidate fails the whole point.
//!
//! [`push_lane`]: CandidateBatch::push_lane
//! [`close_point`]: CandidateBatch::close_point
//! [`fail_point`]: CandidateBatch::fail_point

/// Offset/prime pair of the FNV-1a fold used across the bench and parity
/// gates.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Per-point outcome recorded in a [`CandidateBatch`].
///
/// Everything except [`Ok`](PointStatus::Ok) means the point produced no
/// candidate lanes; the failure detail is in
/// [`CandidateBatch::point_message`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointStatus {
    /// The point evaluated; its lanes are in the batch columns.
    Ok,
    /// The evaluator returned a typed error.
    Error,
    /// The evaluator panicked; the panic was contained to this point.
    Panicked,
    /// The sweep deadline expired before this point was evaluated.
    DeadlineExceeded,
}

/// Structure-of-arrays (columnar) candidate storage for one sweep chunk
/// or one whole sweep.
///
/// Rows ("lanes") are candidates; each input point owns the contiguous
/// lane range `offsets[p]..offsets[p + 1]`. Failed points own an empty
/// range and carry a [`PointStatus`] plus message instead.
#[derive(Debug, Clone, Default)]
pub struct CandidateBatch {
    names: Vec<String>,
    /// CSR point boundaries over the lane columns; `offsets[0] == 0`
    /// is implicit (the vec holds one entry per *closed* point).
    offsets: Vec<u32>,
    name_ids: Vec<u32>,
    latency_s: Vec<f64>,
    energy_j: Vec<f64>,
    area_mm2: Vec<f64>,
    accuracy: Vec<f64>,
    status: Vec<PointStatus>,
    /// Sparse `(point, message)` pairs for failed points, ascending by
    /// point index because points close in order.
    messages: Vec<(u32, String)>,
    scratch_f64: Vec<Vec<f64>>,
    scratch_u32: Vec<Vec<u32>>,
    scratch_u64: Vec<Vec<u64>>,
}

impl CandidateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of closed points.
    pub fn points(&self) -> usize {
        self.status.len()
    }

    /// Total candidate lanes across all closed points.
    pub fn lanes(&self) -> usize {
        self.closed_lanes()
    }

    /// Whether no point has been closed yet.
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    fn closed_lanes(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) as usize
    }

    /// Lanes pushed since the last point was closed.
    pub fn open_lanes(&self) -> usize {
        self.name_ids.len() - self.closed_lanes()
    }

    /// Interns `name`, returning its id for [`push_lane`]. Names are
    /// deduplicated per batch — candidate names repeat every point, so
    /// the table stays a handful of entries.
    ///
    /// [`push_lane`]: CandidateBatch::push_lane
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_owned());
        (self.names.len() - 1) as u32
    }

    /// The interned name behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by [`intern`](CandidateBatch::intern)
    /// on this batch.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Appends one candidate lane to the currently open point.
    pub fn push_lane(
        &mut self,
        name_id: u32,
        latency_s: f64,
        energy_j: f64,
        area_mm2: f64,
        accuracy: f64,
    ) {
        debug_assert!((name_id as usize) < self.names.len(), "unknown name id");
        self.name_ids.push(name_id);
        self.latency_s.push(latency_s);
        self.energy_j.push(energy_j);
        self.area_mm2.push(area_mm2);
        self.accuracy.push(accuracy);
    }

    /// Closes the open point successfully, claiming every lane pushed
    /// since the previous close.
    pub fn close_point(&mut self) {
        self.offsets.push(self.name_ids.len() as u32);
        self.status.push(PointStatus::Ok);
    }

    /// Closes the open point as failed, discarding any lanes already
    /// pushed for it (the scalar path's first-error-fails-the-point
    /// semantics) and recording `status` + `message`.
    ///
    /// # Panics
    ///
    /// Panics if `status` is [`PointStatus::Ok`].
    pub fn fail_point(&mut self, status: PointStatus, message: impl Into<String>) {
        assert_ne!(
            status,
            PointStatus::Ok,
            "fail_point requires a failure status"
        );
        let keep = self.closed_lanes();
        self.name_ids.truncate(keep);
        self.latency_s.truncate(keep);
        self.energy_j.truncate(keep);
        self.area_mm2.truncate(keep);
        self.accuracy.truncate(keep);
        self.messages
            .push((self.status.len() as u32, message.into()));
        self.offsets.push(keep as u32);
        self.status.push(status);
    }

    /// Status of closed point `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.points()`.
    pub fn point_status(&self, p: usize) -> PointStatus {
        self.status[p]
    }

    /// Failure message of closed point `p`, if it failed.
    pub fn point_message(&self, p: usize) -> Option<&str> {
        let i = self
            .messages
            .binary_search_by_key(&(p as u32), |&(pt, _)| pt)
            .ok()?;
        Some(&self.messages[i].1)
    }

    /// Lane index range of closed point `p` into the column slices.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.points()`.
    pub fn lane_range(&self, p: usize) -> core::ops::Range<usize> {
        let lo = if p == 0 {
            0
        } else {
            self.offsets[p - 1] as usize
        };
        lo..self.offsets[p] as usize
    }

    /// Per-lane interned name ids.
    pub fn name_ids(&self) -> &[u32] {
        &self.name_ids
    }

    /// Name of lane `i`.
    pub fn lane_name(&self, i: usize) -> &str {
        self.name(self.name_ids[i])
    }

    /// Per-lane latency column (seconds).
    pub fn latency_s(&self) -> &[f64] {
        &self.latency_s
    }

    /// Per-lane energy column (joules).
    pub fn energy_j(&self) -> &[f64] {
        &self.energy_j
    }

    /// Per-lane area column (mm²).
    pub fn area_mm2(&self) -> &[f64] {
        &self.area_mm2
    }

    /// Per-lane accuracy column (fraction).
    pub fn accuracy(&self) -> &[f64] {
        &self.accuracy
    }

    /// Appends every closed point of `other` (reassembling chunk outputs
    /// in order), remapping its interned name ids into this batch's
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `other` has an open point.
    pub fn append(&mut self, other: &CandidateBatch) {
        assert_eq!(other.open_lanes(), 0, "append requires all points closed");
        let remap: Vec<u32> = other.names.iter().map(|n| self.intern(n)).collect();
        let base_lanes = self.closed_lanes() as u32;
        let base_points = self.status.len() as u32;
        self.name_ids
            .extend(other.name_ids.iter().map(|&id| remap[id as usize]));
        self.latency_s.extend_from_slice(&other.latency_s);
        self.energy_j.extend_from_slice(&other.energy_j);
        self.area_mm2.extend_from_slice(&other.area_mm2);
        self.accuracy.extend_from_slice(&other.accuracy);
        self.offsets
            .extend(other.offsets.iter().map(|&o| base_lanes + o));
        self.status.extend_from_slice(&other.status);
        self.messages.extend(
            other
                .messages
                .iter()
                .map(|(p, m)| (base_points + p, m.clone())),
        );
    }

    /// Clears all points, lanes, names, and messages while keeping every
    /// column's capacity (and the scratch pool) for the next chunk.
    pub fn clear(&mut self) {
        self.names.clear();
        self.offsets.clear();
        self.name_ids.clear();
        self.latency_s.clear();
        self.energy_j.clear();
        self.area_mm2.clear();
        self.accuracy.clear();
        self.status.clear();
        self.messages.clear();
    }

    /// Order-sensitive FNV-1a fold over the whole batch: for each closed
    /// point in order, either the bit patterns of every lane's
    /// `[latency, energy, area, accuracy]` or — for failed points — one
    /// `FNV_PRIME` marker. Two batches agree iff they hold the same
    /// values with the same point/lane structure.
    pub fn checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut fold = |bits: u64| {
            h ^= bits;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for p in 0..self.points() {
            if self.status[p] == PointStatus::Ok {
                for i in self.lane_range(p) {
                    fold(self.latency_s[i].to_bits());
                    fold(self.energy_j[i].to_bits());
                    fold(self.area_mm2[i].to_bits());
                    fold(self.accuracy[i].to_bits());
                }
            } else {
                fold(FNV_PRIME);
            }
        }
        h
    }

    /// Takes a cleared `f64` scratch column from the pool (or a fresh
    /// one), for kernel-local parameter columns. Return it with
    /// [`put_f64`](CandidateBatch::put_f64) so its capacity is reused
    /// across chunks.
    pub fn take_f64(&mut self) -> Vec<f64> {
        self.scratch_f64.pop().unwrap_or_default()
    }

    /// Returns an `f64` scratch column to the pool, clearing it.
    pub fn put_f64(&mut self, mut col: Vec<f64>) {
        col.clear();
        self.scratch_f64.push(col);
    }

    /// Takes a cleared `u32` scratch column from the pool.
    pub fn take_u32(&mut self) -> Vec<u32> {
        self.scratch_u32.pop().unwrap_or_default()
    }

    /// Returns a `u32` scratch column to the pool, clearing it.
    pub fn put_u32(&mut self, mut col: Vec<u32>) {
        col.clear();
        self.scratch_u32.push(col);
    }

    /// Takes a cleared `u64` scratch column from the pool.
    pub fn take_u64(&mut self) -> Vec<u64> {
        self.scratch_u64.pop().unwrap_or_default()
    }

    /// Returns a `u64` scratch column to the pool, clearing it.
    pub fn put_u64(&mut self, mut col: Vec<u64>) {
        col.clear();
        self.scratch_u64.push(col);
    }
}

/// A linear-scan cache keyed by *exact* `PartialEq` equality.
///
/// The batch kernels hoist invariant circuit solves (tech-node constants,
/// decoder/sense-amp sub-solves) with this instead of the global memo
/// layer: the memo quantizes `f64` keys to 44 bits, which is transparent
/// in practice but not by construction, while `ExactCache` can only ever
/// return a value computed from an identical key — so the hoisted path is
/// bit-identical to the scalar path by construction. Linear scan is the
/// right shape here: a batch touches a handful of distinct tech nodes and
/// geometries, so entry counts stay in the tens.
#[derive(Debug, Clone)]
pub struct ExactCache<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for ExactCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> ExactCache<K, V> {
    /// An empty cache.
    pub const fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry, keeping capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<K: PartialEq, V> ExactCache<K, V> {
    /// The cached value for `key`, computing and storing it with `f` on
    /// first use.
    pub fn get_or_insert_with(&mut self, key: K, f: impl FnOnce(&K) -> V) -> &V {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            return &self.entries[i].1;
        }
        let v = f(&key);
        self.entries.push((key, v));
        &self.entries.last().expect("just pushed").1
    }
}

impl<K: PartialEq, V: Clone> ExactCache<K, V> {
    /// Clone-out variant of
    /// [`get_or_insert_with`](ExactCache::get_or_insert_with) for values
    /// that are cheap to clone (reports, small solve structs).
    pub fn get_or_clone(&mut self, key: K, f: impl FnOnce(&K) -> V) -> V {
        self.get_or_insert_with(key, f).clone()
    }
}

/// Fills `out[i] = xs[i] as f64 * k` — the columnar form of the scalar
/// path's `count as f64 * constant` expressions. Manual 4-lane unroll;
/// each lane is the exact scalar expression, so results are bit-identical
/// to the point loop.
pub fn scale_u32(out: &mut Vec<f64>, xs: &[u32], k: f64) {
    out.clear();
    out.resize(xs.len(), 0.0);
    let (chunks, tail) = as_chunks4(xs);
    let (out_chunks, out_tail) = as_chunks4_mut(out);
    for (o, x) in out_chunks.iter_mut().zip(chunks) {
        o[0] = x[0] as f64 * k;
        o[1] = x[1] as f64 * k;
        o[2] = x[2] as f64 * k;
        o[3] = x[3] as f64 * k;
    }
    for (o, &x) in out_tail.iter_mut().zip(tail) {
        *o = x as f64 * k;
    }
}

/// Fills `out[i] = (a[i] as u64 * b[i] as u64) as f64 * k` — the columnar
/// form of `(tiles_rows * tiles_cols) as f64 * constant`: integer product
/// first, one cast, one multiply, matching the scalar expression's bits.
pub fn product_scaled(out: &mut Vec<f64>, a: &[u32], b: &[u32], k: f64) {
    assert_eq!(a.len(), b.len(), "column length mismatch");
    out.clear();
    out.resize(a.len(), 0.0);
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = (x as u64 * y as u64) as f64 * k;
    }
}

/// Fills `out[i] = ((a[i] as u64 * b[i] as u64) as f64 * k1) * k2`,
/// preserving the scalar path's left-to-right multiply order for
/// expressions like `tiles as f64 * area_m2 * 1e6`.
pub fn product_scaled2(out: &mut Vec<f64>, a: &[u32], b: &[u32], k1: f64, k2: f64) {
    assert_eq!(a.len(), b.len(), "column length mismatch");
    out.clear();
    out.resize(a.len(), 0.0);
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = (x as u64 * y as u64) as f64 * k1 * k2;
    }
}

fn as_chunks4(xs: &[u32]) -> (&[[u32; 4]], &[u32]) {
    let mid = xs.len() - xs.len() % 4;
    let (head, tail) = xs.split_at(mid);
    // SAFETY: head.len() is a multiple of 4 and [u32; 4] has the same
    // layout as four consecutive u32s.
    let chunks =
        unsafe { core::slice::from_raw_parts(head.as_ptr() as *const [u32; 4], head.len() / 4) };
    (chunks, tail)
}

fn as_chunks4_mut(xs: &mut [f64]) -> (&mut [[f64; 4]], &mut [f64]) {
    let mid = xs.len() - xs.len() % 4;
    let (head, tail) = xs.split_at_mut(mid);
    // SAFETY: head.len() is a multiple of 4 and [f64; 4] has the same
    // layout as four consecutive f64s.
    let chunks = unsafe {
        core::slice::from_raw_parts_mut(head.as_mut_ptr() as *mut [f64; 4], head.len() / 4)
    };
    (chunks, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> CandidateBatch {
        let mut b = CandidateBatch::new();
        let gpu = b.intern("gpu");
        let cam = b.intern("cam");
        b.push_lane(gpu, 1.0, 2.0, 3.0, 0.9);
        b.push_lane(cam, 4.0, 5.0, 6.0, 0.8);
        b.close_point();
        b.fail_point(PointStatus::Error, "sense margin");
        b.push_lane(gpu, 7.0, 8.0, 9.0, 0.7);
        b.close_point();
        b
    }

    #[test]
    fn push_close_protocol_builds_csr() {
        let b = filled();
        assert_eq!(b.points(), 3);
        assert_eq!(b.lanes(), 3);
        assert_eq!(b.lane_range(0), 0..2);
        assert_eq!(b.lane_range(1), 2..2);
        assert_eq!(b.lane_range(2), 2..3);
        assert_eq!(b.point_status(1), PointStatus::Error);
        assert_eq!(b.point_message(1), Some("sense margin"));
        assert_eq!(b.point_message(0), None);
        assert_eq!(b.lane_name(0), "gpu");
        assert_eq!(b.lane_name(1), "cam");
        assert_eq!(b.lane_name(2), "gpu");
        assert_eq!(b.latency_s()[2], 7.0);
    }

    #[test]
    fn fail_point_discards_open_lanes() {
        let mut b = CandidateBatch::new();
        let id = b.intern("x");
        b.push_lane(id, 1.0, 1.0, 1.0, 1.0);
        b.push_lane(id, 2.0, 2.0, 2.0, 2.0);
        assert_eq!(b.open_lanes(), 2);
        b.fail_point(PointStatus::Panicked, "boom");
        assert_eq!(b.points(), 1);
        assert_eq!(b.lanes(), 0);
        assert_eq!(b.open_lanes(), 0);
        assert_eq!(b.point_message(0), Some("boom"));
    }

    #[test]
    fn append_remaps_names_and_offsets() {
        let mut a = filled();
        let mut other = CandidateBatch::new();
        // Interned in the opposite order so the remap is not the identity.
        let cam = other.intern("cam");
        let tpu = other.intern("tpu");
        other.push_lane(cam, 10.0, 11.0, 12.0, 0.6);
        other.push_lane(tpu, 13.0, 14.0, 15.0, 0.5);
        other.close_point();
        other.fail_point(PointStatus::DeadlineExceeded, "late");
        a.append(&other);
        assert_eq!(a.points(), 5);
        assert_eq!(a.lanes(), 5);
        assert_eq!(a.lane_range(3), 3..5);
        assert_eq!(a.lane_name(3), "cam");
        assert_eq!(a.lane_name(4), "tpu");
        assert_eq!(a.point_status(4), PointStatus::DeadlineExceeded);
        assert_eq!(a.point_message(4), Some("late"));
        assert_eq!(a.latency_s()[4], 13.0);
    }

    #[test]
    fn append_matches_monolithic_checksum() {
        let mut whole = filled();
        let extra = {
            let mut b = CandidateBatch::new();
            let id = b.intern("tpu");
            b.push_lane(id, 0.5, 0.25, 0.125, 0.99);
            b.close_point();
            b
        };
        let split_sum = {
            let mut merged = CandidateBatch::new();
            merged.append(&filled());
            merged.append(&extra);
            merged.checksum()
        };
        whole.append(&extra);
        assert_eq!(whole.checksum(), split_sum);
    }

    #[test]
    fn checksum_distinguishes_failure_from_empty_ok() {
        let mut ok = CandidateBatch::new();
        ok.close_point();
        let mut failed = CandidateBatch::new();
        failed.fail_point(PointStatus::Error, "e");
        assert_ne!(ok.checksum(), failed.checksum());
    }

    #[test]
    fn clear_retains_capacity_and_scratch() {
        let mut b = filled();
        let col = b.take_f64();
        b.put_f64(col);
        let cap = b.latency_s.capacity();
        assert!(cap >= 3);
        b.clear();
        assert_eq!(b.points(), 0);
        assert_eq!(b.latency_s.capacity(), cap);
        assert_eq!(b.scratch_f64.len(), 1);
    }

    #[test]
    fn exact_cache_hits_only_on_equal_keys() {
        let mut c: ExactCache<(u32, f64), f64> = ExactCache::new();
        let mut calls = 0;
        let mut get = |c: &mut ExactCache<(u32, f64), f64>, k: (u32, f64)| {
            *c.get_or_insert_with(k, |&(a, b)| {
                calls += 1;
                a as f64 + b
            })
        };
        assert_eq!(get(&mut c, (1, 0.5)), 1.5);
        assert_eq!(get(&mut c, (1, 0.5)), 1.5);
        assert_eq!(get(&mut c, (1, 0.5000001)), 1.0 + 0.5000001);
        assert_eq!(calls, 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn unrolled_passes_match_scalar_expressions() {
        let a: Vec<u32> = (0..23).map(|i| i * 7 + 1).collect();
        let b: Vec<u32> = (0..23).map(|i| i * 3 + 2).collect();
        let k1 = 3.7e-9;
        let k2 = 1e6;
        let mut out = Vec::new();
        scale_u32(&mut out, &a, k1);
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(out[i].to_bits(), (x as f64 * k1).to_bits());
        }
        product_scaled(&mut out, &a, &b, k1);
        for i in 0..a.len() {
            let scalar = (a[i] as usize * b[i] as usize) as f64 * k1;
            assert_eq!(out[i].to_bits(), scalar.to_bits());
        }
        product_scaled2(&mut out, &a, &b, k1, k2);
        for i in 0..a.len() {
            let scalar = (a[i] as usize * b[i] as usize) as f64 * k1 * k2;
            assert_eq!(out[i].to_bits(), scalar.to_bits());
        }
    }
}
