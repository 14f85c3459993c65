//! One pivot's work on the matrix: gathering the entering column through
//! its row file and the pivot row through its occupancy bits, the fused
//! Gauss-Jordan elimination over the pivot row's nonzeros, and the
//! bookkeeping of the fill-in in both indexes. `gather_row` is the one row
//! reader: every scan of a tableau row, here and in the other steps, goes
//! through it.

use super::Tableau;

/// Hint the CPU to start loading the cache line holding `p`. The
/// entering-column gather reads the row-major tableau at a
/// `stride * 8`-byte stride — beyond the page-bounded reach of
/// hardware stride prefetchers — so without an explicit hint each row
/// read serialises on a full memory-latency miss. Prefetching a fixed
/// distance ahead overlaps those misses. `wrapping_add` keeps the
/// address computation defined even past the end of the buffer; a
/// prefetch of an unmapped address is architecturally a no-op.
#[inline(always)]
fn prefetch_read(p: *const f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch instructions never fault; any address is allowed.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm pldl1keep` never faults; any address is allowed.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// How many rows ahead the column gather prefetches. Large enough to
/// cover DRAM latency at one tableau row per loop step, small enough
/// not to thrash L1.
const GATHER_PREFETCH_DIST: usize = 8;

impl Tableau {
    /// Gather the entering column `e` into `ecol_rows` / `ecol_vals`:
    /// ascending rows, nonzero coefficients only. Uses the column's row
    /// file when one is tracked (sorting + deduping it in place, and
    /// compacting out entries that have gone stale-zero — safe because
    /// any pivot that re-creates a nonzero re-records the row); falls
    /// back to a full strided scan for dense-flagged columns.
    pub(super) fn gather_entering(&mut self, e: usize) {
        self.ecol_rows.clear();
        self.ecol_vals.clear();
        let stride = self.stride;
        if !self.col_dense[e] {
            let mut list = std::mem::take(&mut self.col_rows[e]);
            list.sort_unstable();
            list.dedup();
            if list.len() <= self.rows / 2 {
                for idx in 0..list.len() {
                    if let Some(&r) = list.get(idx + GATHER_PREFETCH_DIST) {
                        prefetch_read(self.a.as_ptr().wrapping_add(r as usize * stride + e));
                    }
                    let r = list[idx];
                    let v = self.a[r as usize * stride + e];
                    if v != 0.0 {
                        self.ecol_rows.push(r);
                        self.ecol_vals.push(v);
                    } else {
                        self.clear_bit(r as usize, e); // leaves the file below
                    }
                }
                list.clear();
                list.extend_from_slice(&self.ecol_rows);
                self.col_rows[e] = list;
                return;
            }
            // Outgrew the tracking threshold: a full scan is no slower
            // than walking the list, so stop maintaining it.
            self.col_dense[e] = true;
        }
        for r in 0..self.rows {
            prefetch_read(
                self.a
                    .as_ptr()
                    .wrapping_add((r + GATHER_PREFETCH_DIST) * stride + e),
            );
            let v = self.a[r * stride + e];
            if v != 0.0 {
                self.ecol_rows.push(r as u32);
                self.ecol_vals.push(v);
            } else {
                // A pivot on `e` un-flags it and resets its file to the
                // pivot row: no bit may be left outside the gather.
                self.clear_bit(r, e);
            }
        }
    }

    /// The one row reader: gather row `r`'s nonzero cells into `scratch`
    /// (columns, ascending) and `scratch_val`. Walks the row's occupancy
    /// bits — a superset of its nonzeros, so the cells met, and their
    /// order, are those of a scan of the whole row — and drops the bits
    /// whose cell reads zero. A small tableau keeps no bits and scans.
    pub(super) fn gather_row(&mut self, r: usize) {
        self.scratch.clear();
        self.scratch_val.clear();
        let base = r * self.stride;
        if self.small {
            for c in 0..self.cols {
                let v = self.a[base + c];
                if v != 0.0 {
                    self.scratch.push(c);
                    self.scratch_val.push(v);
                }
            }
            return;
        }
        let wbase = r * self.words();
        for w in 0..self.cols.div_ceil(64) {
            let mut bits = self.row_bits[wbase + w];
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                let v = self.a[base + c];
                if v != 0.0 {
                    self.scratch.push(c);
                    self.scratch_val.push(v);
                } else {
                    self.row_bits[wbase + w] &= !(1 << (c % 64));
                }
                bits &= bits - 1;
            }
        }
        debug_assert!(
            (0..self.cols).filter(|&c| self.a[base + c] != 0.0).eq(self.scratch.iter().copied()),
            "row {r} has a nonzero cell without its bit"
        );
    }

    /// Scale pivot row `row` by `inv` in place (its cell in the entering
    /// column `col` becomes exactly 1), leaving it gathered in `scratch` /
    /// `scratch_val` and its occupancy outside `col` in `fill_mask`.
    /// Scaling and all row eliminations touch only these columns:
    /// untouched ones would only ever receive `x -= f * 0`.
    fn scale_pivot_row(&mut self, row: usize, col: usize, inv: f64) {
        self.gather_row(row);
        self.fill_mask.clear();
        let base = row * self.stride;
        for k in 0..self.scratch.len() {
            let c = self.scratch[k];
            if c == col {
                self.scratch_val[k] = 1.0;
            } else {
                self.scratch_val[k] *= inv;
                if !self.small {
                    match self.fill_mask.last_mut() {
                        Some((w, bits)) if *w == c / 64 => *bits |= 1 << (c % 64),
                        _ => self.fill_mask.push((c / 64, 1 << (c % 64))),
                    }
                }
            }
            self.a[base + c] = self.scratch_val[k];
        }
    }

    /// Row `r` was just eliminated against the scaled pivot row: it may be
    /// nonzero wherever that row is, and is zero in the entering column
    /// `col`, whose file is about to become the pivot row alone.
    #[inline]
    fn fill_row_bits(&mut self, r: usize, col: usize) {
        let wbase = r * self.words();
        for &(w, bits) in &self.fill_mask {
            self.row_bits[wbase + w] |= bits;
        }
        self.clear_bit(r, col);
    }

    /// Record the fill-in of a pivot at (`row`, `col`) in the per-column
    /// row files. The elimination wrote to (eliminated row, pivot-row
    /// nonzero column) pairs — the eliminated rows are exactly the
    /// gathered `ecol_rows` minus the pivot row, and the pivot-row
    /// nonzeros are `scratch` — and collapsed the entering column to a
    /// unit vector. Raw lists that outgrow `rows` entries are deduped in
    /// place and dense-flagged if still oversized, bounding both memory
    /// and the sort cost at the next gather.
    fn note_fill_in(&mut self, row: usize, col: usize) {
        if self.small {
            return;
        }
        for idx in 0..self.scratch.len() {
            let c = self.scratch[idx];
            if c == col || self.col_dense[c] {
                continue;
            }
            for k in 0..self.ecol_rows.len() {
                let r = self.ecol_rows[k];
                if r as usize != row {
                    self.col_rows[c].push(r);
                }
            }
            if self.col_rows[c].len() > self.rows {
                let list = &mut self.col_rows[c];
                list.sort_unstable();
                list.dedup();
                if list.len() > self.rows / 2 {
                    self.col_dense[c] = true;
                    *list = Vec::new();
                }
            }
        }
        // Column `col` is now exactly the unit vector for `row`.
        self.col_dense[col] = false;
        self.col_rows[col].clear();
        self.col_rows[col].push(row as u32);
    }

    /// The main-loop pivot: Gauss-Jordan on the nonzero pivot-row columns,
    /// with the folded-rhs update (`xb -= α · step`) fused into the same
    /// row pass. Requires the entering column `col` to be gathered in
    /// `ecol_rows` / `ecol_vals` (with `pk` indexing the pivot row), which
    /// lets rows with a zero elimination factor be skipped without
    /// touching the matrix at all — on block-sparse scheduling LPs that is
    /// most of them. Arithmetic on touched cells is identical to
    /// `pivot_matrix` plus a caller-side rhs loop.
    pub(super) fn pivot_with_rhs_update(&mut self, row: usize, col: usize, step: f64, pk: usize) {
        let stride = self.stride;
        let p = self.ecol_vals[pk];
        debug_assert!(p.abs() > 1e-12, "pivot on (near-)zero element");
        self.scale_pivot_row(row, col, 1.0 / p);

        for k in 0..self.ecol_rows.len() {
            if k == pk {
                continue;
            }
            let r = self.ecol_rows[k] as usize;
            let f = self.ecol_vals[k];
            let rbase = r * stride;
            self.xb[r] -= f * step;
            for k2 in 0..self.scratch.len() {
                self.a[rbase + self.scratch[k2]] -= f * self.scratch_val[k2];
            }
            self.a[rbase + col] = 0.0;
            self.fill_row_bits(r, col);
        }
        self.eliminate_costs(col);
        self.note_fill_in(row, col);
    }

    /// Eliminate the entering column `col` from the reduced-cost row (and
    /// from the parked phase-2 row, when one is carried), given the scaled
    /// pivot row in `scratch` / `scratch_val`.
    fn eliminate_costs(&mut self, col: usize) {
        let rows = [&mut self.obj, &mut self.parked];
        for cost in rows {
            let f = cost.get(col).copied().unwrap_or(0.0);
            if f != 0.0 {
                for k in 0..self.scratch.len() {
                    cost[self.scratch[k]] -= f * self.scratch_val[k];
                }
                cost[col] = 0.0;
            }
        }
    }

    /// Gauss-Jordan pivot restricted to the nonzero columns of the pivot
    /// row; the basic values are the caller's to maintain. Reads the
    /// entering column with a strided scan — it only runs for the
    /// artificial drive-out, never in the main pivot loop.
    fn pivot_matrix(&mut self, row: usize, col: usize) {
        let stride = self.stride;
        let p = self.a[row * stride + col];
        debug_assert!(p.abs() > 1e-12, "pivot on (near-)zero element");
        self.scale_pivot_row(row, col, 1.0 / p);

        // Track which rows get eliminated so the per-column row files can
        // record the fill-in afterwards.
        self.ecol_rows.clear();
        self.ecol_vals.clear();
        for r in 0..self.rows {
            if r == row {
                continue;
            }
            let f = self.a[r * stride + col];
            if f != 0.0 {
                self.ecol_rows.push(r as u32);
                let rbase = r * stride;
                for k in 0..self.scratch.len() {
                    self.a[rbase + self.scratch[k]] -= f * self.scratch_val[k];
                }
                self.a[rbase + col] = 0.0;
                self.fill_row_bits(r, col);
            } else {
                self.clear_bit(r, col); // as in `gather_entering`'s scan
            }
        }
        self.eliminate_costs(col);
        self.note_fill_in(row, col);
    }

    /// Swap a zero-valued basic (artificial) out for column `c` without
    /// changing any variable values.
    pub(super) fn degenerate_swap(&mut self, row: usize, col: usize) {
        let entering_value = if self.at_upper[col] { self.ub[col] } else { 0.0 };
        // The leaving artificial sits at 0 and goes to its lower bound.
        let old = self.basis[row];
        self.at_upper[old] = false;
        self.pivot_matrix(row, col);
        self.at_upper[col] = false;
        self.is_basic[old] = false;
        self.is_basic[col] = true;
        self.basis[row] = col;
        self.xb[row] = entering_value;
        // Other basic values are unchanged (t = 0 step) — but the entering
        // column may have had a nonzero value at its upper bound, which was
        // already folded into every row's rhs, and remains correct because
        // the variable's value did not change.
    }
}
