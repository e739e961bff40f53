//! Sparse LU factorization with a reusable symbolic plan, in the spirit of
//! the KLU-class static-pattern solvers used by production SPICE engines.
//!
//! Circuit matrices have a property dense factorization wastes: the sparsity
//! pattern is fixed by the netlist topology, while only the numeric values
//! change between Newton iterations and Monte-Carlo samples. This module
//! splits the factorization accordingly:
//!
//! 1. **Symbolic analysis** ([`SymbolicLu::analyze`]) runs *once per
//!    topology*. It takes the assembly pattern (a [`SparsityPattern`] in
//!    compressed sparse row form) and predicts the fill-in of Gaussian
//!    elimination along the expected (diagonal) pivot order.
//! 2. **Numeric refactorization** ([`SparseLu::factorize`]) reuses the plan:
//!    assembly writes straight into the factor workspace through the stamp
//!    pattern ([`SparseLu::add_at`]), and elimination and the triangular
//!    solves iterate only over the per-row fill pattern. When partial
//!    pivoting deviates from the predicted order, the plan **grows** to cover
//!    the new fill — an amortized cost: the first factorization of a topology
//!    warms the plan, and every subsequent refactorization of the warmed plan
//!    performs zero heap allocations.
//!
//! # Bit-exact equivalence with the dense kernel
//!
//! The numeric phase performs *the same partial-pivot arithmetic in the same
//! order* as [`crate::LuDecomposition`]; it merely skips operations whose
//! operands are structural (exact `+0.0`) zeros. Skipping those is
//! floating-point exact:
//!
//! * a structurally zero column entry yields the multiplier `0.0 / pivot`,
//!   which the dense kernel also computes and then skips (`multiplier != 0.0`
//!   guards its inner loop);
//! * a structurally zero pivot-row entry contributes `x -= m * 0.0`, a no-op
//!   because the workspace never holds `-0.0` (all slots start at `+0.0`,
//!   and IEEE-754 subtraction of equal finite values rounds to `+0.0`);
//! * the pivot search compares absolute values, and a structural zero can
//!   never win a strictly-greater comparison against the incumbent.
//!
//! Consequently the factors, the permutation, the singularity verdicts and
//! every solution vector are bit-identical to the dense path — asserted by
//! this module's tests and by the circuit-level golden tests.
//!
//! # Storage layout
//!
//! MNA systems in this suite are small (a dozen unknowns), so the factor
//! workspace keeps each row as a dense stride — scatter/gather indexing would
//! cost more than it saves at this size — while *iteration* is driven
//! exclusively by the per-row fill pattern (sorted column lists mirrored as
//! bitmasks). Rows are never physically moved on pivoting; a position→row
//! indirection plays the role of the dense kernel's row swaps, which keeps
//! each row's fill pattern attached to its storage.
//!
//! # Example
//!
//! ```
//! use gis_linalg::sparse::{PatternBuilder, SparseLu, SymbolicLu};
//!
//! # fn main() -> Result<(), gis_linalg::LinalgError> {
//! // Pattern of a 3x3 arrow matrix (dense last row/column + diagonal).
//! let mut pattern = PatternBuilder::new(3);
//! for i in 0..3 {
//!     pattern.insert(i, i);
//!     pattern.insert(i, 2);
//!     pattern.insert(2, i);
//! }
//! let symbolic = SymbolicLu::analyze(&pattern.build());
//! let mut lu = SparseLu::new(symbolic);
//!
//! // Numeric phase, repeatable with new values at zero steady-state allocations.
//! lu.clear();
//! lu.add_at(0, 0, 4.0);
//! lu.add_at(1, 1, 3.0);
//! lu.add_at(2, 2, 5.0);
//! lu.add_at(0, 2, 1.0);
//! lu.add_at(1, 2, 1.0);
//! lu.add_at(2, 0, 1.0);
//! lu.add_at(2, 1, 1.0);
//! lu.factorize()?;
//! let mut x = [0.0; 3];
//! lu.solve(&[5.0, 4.0, 7.0], &mut x)?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 1.0).abs() < 1e-12);
//! assert!((x[2] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use crate::{LinalgError, Result, SINGULARITY_TOLERANCE};

/// Incremental builder for a [`SparsityPattern`].
///
/// Duplicate insertions are fine (assembly naturally stamps the same slot from
/// several devices); they are deduplicated by [`PatternBuilder::build`].
#[derive(Debug, Clone)]
pub struct PatternBuilder {
    n: usize,
    rows: Vec<Vec<u32>>,
}

impl PatternBuilder {
    /// Creates an empty pattern builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        PatternBuilder {
            n,
            rows: vec![Vec::new(); n],
        }
    }

    /// Marks entry `(row, col)` as structurally nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn insert(&mut self, row: usize, col: usize) {
        assert!(row < self.n && col < self.n, "pattern index out of range");
        self.rows[row].push(col as u32);
    }

    /// Finishes the builder into a deduplicated CSR [`SparsityPattern`].
    pub fn build(mut self) -> SparsityPattern {
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0u32);
        for row in &mut self.rows {
            row.sort_unstable();
            row.dedup();
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len() as u32);
        }
        SparsityPattern {
            n: self.n,
            row_ptr,
            col_idx,
        }
    }
}

/// A structural sparsity pattern in compressed sparse row (CSR) form.
///
/// CSR is the natural orientation here because both assembly (row-wise
/// stamps) and Gaussian elimination with *row* pivoting walk rows; a CSC
/// mirror would only be needed for column-pivoting strategies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
}

impl SparsityPattern {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Sorted column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n`.
    pub fn row_cols(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }

    /// Returns `true` if `(row, col)` is structurally nonzero.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        row < self.n && self.row_cols(row).binary_search(&(col as u32)).is_ok()
    }
}

#[inline]
fn bit_is_set(words: &[u64], col: usize) -> bool {
    words[col / 64] & (1u64 << (col % 64)) != 0
}

#[inline]
fn set_bit(words: &mut [u64], col: usize) {
    words[col / 64] |= 1u64 << (col % 64);
}

/// The reusable symbolic plan: the assembly (stamp) pattern plus a per-row
/// fill pattern.
///
/// [`SymbolicLu::analyze`] seeds the fill pattern by symbolic Gaussian
/// elimination along the diagonal pivot order — the order partial pivoting
/// almost always selects for the diagonally-loaded MNA matrices this crate
/// factors (every node row carries a GMIN diagonal). When numeric pivoting
/// deviates (e.g. the zero-diagonal branch rows of voltage sources), the
/// numeric phase extends the fill pattern on first encounter and the plan
/// stays warm from then on.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    words_per_row: usize,
    /// The assembly (stamp) pattern.
    stamp: SparsityPattern,
    /// Stamp membership bitmasks (`words_per_row` words per row).
    stamp_mask: Vec<u64>,
    /// Flat `row * n + col` indices of every stamp slot (the singularity-scale
    /// scan walks this instead of chasing the CSR indirection).
    stamp_slots: Vec<u32>,
    /// Fill pattern: sorted column list per row (superset of the stamp row).
    fill_cols: Vec<Vec<u32>>,
    /// Fill membership bitmasks, kept in sync with `fill_cols`.
    fill_mask: Vec<u64>,
    /// Flat `row * n + col` indices of the whole fill pattern — the
    /// workspace-reset loop walks this single list.
    fill_slots: Vec<u32>,
}

impl SymbolicLu {
    /// Runs the one-time symbolic analysis of `pattern`.
    pub fn analyze(pattern: &SparsityPattern) -> Self {
        let n = pattern.n();
        let words_per_row = n.div_ceil(64).max(1);

        let mut fill_mask = vec![0u64; n * words_per_row];
        for r in 0..n {
            let row_words = &mut fill_mask[r * words_per_row..(r + 1) * words_per_row];
            for &c in pattern.row_cols(r) {
                set_bit(row_words, c as usize);
            }
        }
        // The stamp masks are the pre-elimination snapshot of the fill masks.
        let stamp_mask = fill_mask.clone();

        // Symbolic elimination along the diagonal pivot order: when row r
        // (r > k) has a nonzero in column k, it absorbs the pivot row's
        // pattern right of k. Fill added at step k only affects columns > k,
        // so one ascending pass is complete.
        let mut upper = vec![0u64; words_per_row];
        for k in 0..n {
            let pivot_row = &fill_mask[k * words_per_row..(k + 1) * words_per_row];
            // upper = pattern(pivot row) ∩ {cols > k}
            upper.copy_from_slice(pivot_row);
            for (word_index, word) in upper.iter_mut().enumerate() {
                let base = word_index * 64;
                if base + 63 <= k {
                    *word = 0;
                } else if base <= k {
                    let keep_from = k - base + 1; // 1..=63
                    *word &= !((1u64 << keep_from) - 1);
                }
            }
            for r in (k + 1)..n {
                let row = &mut fill_mask[r * words_per_row..(r + 1) * words_per_row];
                if bit_is_set(row, k) {
                    for (w, u) in row.iter_mut().zip(&upper) {
                        *w |= u;
                    }
                }
            }
        }

        // Freeze the masks into sorted per-row column lists.
        let mut fill_cols = Vec::with_capacity(n);
        for r in 0..n {
            let row = &fill_mask[r * words_per_row..(r + 1) * words_per_row];
            let mut cols = Vec::new();
            for c in 0..n {
                if bit_is_set(row, c) {
                    cols.push(c as u32);
                }
            }
            fill_cols.push(cols);
        }

        let mut stamp_slots = Vec::with_capacity(pattern.nnz());
        for r in 0..n {
            for &c in pattern.row_cols(r) {
                stamp_slots.push((r * n + c as usize) as u32);
            }
        }
        let mut fill_slots = Vec::new();
        for (r, cols) in fill_cols.iter().enumerate() {
            for &c in cols {
                fill_slots.push((r * n + c as usize) as u32);
            }
        }

        SymbolicLu {
            n,
            words_per_row,
            stamp: pattern.clone(),
            stamp_mask,
            stamp_slots,
            fill_cols,
            fill_mask,
            fill_slots,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Structural nonzeros of the assembly pattern.
    pub fn stamp_nnz(&self) -> usize {
        self.stamp.nnz()
    }

    /// Structural nonzeros of the current fill pattern (factor pattern).
    pub fn fill_nnz(&self) -> usize {
        self.fill_cols.iter().map(Vec::len).sum()
    }

    /// The assembly pattern this plan was derived from.
    pub fn stamp_pattern(&self) -> &SparsityPattern {
        &self.stamp
    }

    /// Fraction of the dense `n²` storage the fill pattern occupies.
    pub fn fill_fraction(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.fill_nnz() as f64 / (self.n * self.n) as f64
        }
    }

    #[inline]
    fn fill_row_mask(&self, r: usize) -> &[u64] {
        &self.fill_mask[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    #[inline]
    fn in_stamp(&self, row: usize, col: usize) -> bool {
        bit_is_set(
            &self.stamp_mask[row * self.words_per_row..(row + 1) * self.words_per_row],
            col,
        )
    }

    /// Merges `upper` (a column mask) into row `r`'s fill pattern. Returns
    /// `true` (and rebuilds the row's sorted column list) if anything new was
    /// added — the dynamic-growth path taken when numeric pivoting deviates
    /// from the predicted order.
    fn absorb(&mut self, r: usize, upper: &[u64]) -> bool {
        let row = &mut self.fill_mask[r * self.words_per_row..(r + 1) * self.words_per_row];
        let mut grew = false;
        for (w, u) in row.iter_mut().zip(upper) {
            if *u & !*w != 0 {
                grew = true;
            }
            *w |= u;
        }
        if grew {
            let row = &self.fill_mask[r * self.words_per_row..(r + 1) * self.words_per_row];
            let cols = &mut self.fill_cols[r];
            cols.clear();
            for c in 0..self.n {
                if bit_is_set(row, c) {
                    cols.push(c as u32);
                }
            }
            self.fill_slots.clear();
            for (row_index, cols) in self.fill_cols.iter().enumerate() {
                for &c in cols {
                    self.fill_slots
                        .push((row_index * self.n + c as usize) as u32);
                }
            }
        }
        grew
    }
}

/// Numeric sparse LU with partial pivoting over a reusable [`SymbolicLu`] plan.
///
/// The lifecycle per refactorization is
/// [`clear`](SparseLu::clear) → [`add_at`](SparseLu::add_at)… →
/// [`factorize`](SparseLu::factorize) → [`solve`](SparseLu::solve)…,
/// and on a warmed plan none of those steps allocates.
#[derive(Debug, Clone)]
pub struct SparseLu {
    symbolic: SymbolicLu,
    /// Dense-strided factor workspace; only fill-pattern slots are ever
    /// touched, everything else stays exactly `+0.0`.
    work: Vec<f64>,
    /// `row_at[pos]` = original row currently at elimination position `pos`
    /// (the numeric equivalent of the dense kernel's row swaps).
    row_at: Vec<u32>,
    /// Scratch mask for the pivot row's right-of-k columns.
    upper: Vec<u64>,
    permutation_sign: f64,
    factored: bool,
    /// Straight-line elimination program recorded by the first
    /// factorization (KLU-style refactor): every slot address resolved, no
    /// searches or mask tests left. Replay guards each step's pivot choice
    /// against the recorded one and falls back to the recording path when
    /// numeric pivoting deviates, so results stay bit-identical.
    program: EliminationProgram,
    has_program: bool,
}

/// The recorded elimination/solve schedule of one pivot sequence.
///
/// `factor_ops`/`fwd_ops`/`bwd_ops` are flat `u32` streams; see the replay
/// loops for their grammar. All buffers are reused across re-recordings.
#[derive(Debug, Clone, Default)]
struct EliminationProgram {
    /// Concatenated pivot-scan windows: for step `k`, the `n-k` workspace
    /// slots of column `k` at positions `k..n` (given the recorded history).
    scan_slots: Vec<u32>,
    /// Start of step `k`'s window in `scan_slots`.
    scan_off: Vec<u32>,
    /// Recorded winning scan position (relative to the window start) per step.
    expected_rel: Vec<u32>,
    /// Per step: `[ncand, (mslot, npairs, (dst, src)*npairs)*ncand]`.
    factor_ops: Vec<u32>,
    /// Start of step `k`'s entry in `factor_ops`.
    factor_off: Vec<u32>,
    /// Final row permutation: `b` index per elimination position.
    perm: Vec<u32>,
    /// Forward substitution: per `i` in `1..n`: `[cnt, (slot, j)*cnt]`.
    fwd_ops: Vec<u32>,
    /// Backward substitution: per `i` in `n-1..=0`:
    /// `[diag_slot, cnt, (slot, j)*cnt]`.
    bwd_ops: Vec<u32>,
}

impl EliminationProgram {
    fn clear(&mut self) {
        self.scan_slots.clear();
        self.scan_off.clear();
        self.expected_rel.clear();
        self.factor_ops.clear();
        self.factor_off.clear();
        self.perm.clear();
        self.fwd_ops.clear();
        self.bwd_ops.clear();
    }

    /// Drops everything from step `k` onward (after a pivot deviation: the
    /// validated prefix stays, the suffix is re-recorded).
    fn truncate_at(&mut self, k: usize) {
        self.scan_slots.truncate(self.scan_off[k] as usize);
        self.scan_off.truncate(k);
        self.expected_rel.truncate(k);
        self.factor_ops.truncate(self.factor_off[k] as usize);
        self.factor_off.truncate(k);
        self.perm.clear();
        self.fwd_ops.clear();
        self.bwd_ops.clear();
    }
}

impl SparseLu {
    /// Creates the numeric workspace for `symbolic`.
    pub fn new(symbolic: SymbolicLu) -> Self {
        let n = symbolic.n();
        let words = symbolic.words_per_row;
        SparseLu {
            symbolic,
            work: vec![0.0; n * n],
            row_at: (0..n as u32).collect(),
            upper: vec![0u64; words],
            permutation_sign: 1.0,
            factored: false,
            program: EliminationProgram::default(),
            has_program: false,
        }
    }

    /// The symbolic plan backing this workspace.
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.symbolic
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.symbolic.n
    }

    /// Resets every fill-pattern slot to `+0.0`, readying the workspace for a
    /// fresh assembly. Slots outside the fill pattern are never written, so
    /// they do not need resetting.
    /// gis-analyze: no_alloc
    pub fn clear(&mut self) {
        for &slot in &self.symbolic.fill_slots {
            self.work[slot as usize] = 0.0;
        }
        self.factored = false;
    }

    /// Adds `value` at `(row, col)` — the sparse counterpart of
    /// [`crate::Matrix::add_at`]. The slot must belong to the assembly pattern
    /// the symbolic plan was built from.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `(row, col)` is outside the assembly pattern;
    /// release builds rely on the caller stamping the analyzed pattern (the
    /// circuit layer derives both from the same netlist walk).
    #[inline]
    /// gis-analyze: no_alloc
    pub fn add_at(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(
            self.symbolic.in_stamp(row, col),
            "stamp at ({row}, {col}) is outside the analyzed pattern"
        );
        self.work[row * self.symbolic.n + col] += value;
    }

    /// Flat slot handle of `(row, col)` for [`SparseLu::add_to_slot`] — lets
    /// hot assembly loops precompute their stamp destinations once per
    /// topology instead of re-deriving them per Newton iteration.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is outside the assembly pattern.
    pub fn slot(&self, row: usize, col: usize) -> u32 {
        assert!(
            self.symbolic.in_stamp(row, col),
            "slot ({row}, {col}) is outside the analyzed pattern"
        );
        (row * self.symbolic.n + col) as u32
    }

    /// Adds `value` at a slot previously obtained from [`SparseLu::slot`].
    #[inline]
    /// gis-analyze: no_alloc
    pub fn add_to_slot(&mut self, slot: u32, value: f64) {
        self.work[slot as usize] += value;
    }

    /// Factors the assembled matrix in place, reusing (and if numeric
    /// pivoting deviates from the predicted order, growing) the symbolic
    /// plan.
    ///
    /// Performs the identical partial-pivot elimination as
    /// [`crate::LuDecomposition::new`] restricted to the fill pattern, so the
    /// factors, permutation, and singularity verdicts match the dense kernel
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] under exactly the same condition as
    /// the dense kernel: a pivot magnitude below [`SINGULARITY_TOLERANCE`]
    /// relative to the largest assembled magnitude.
    /// gis-analyze: no_alloc
    pub fn factorize(&mut self) -> Result<()> {
        for (pos, r) in self.row_at.iter_mut().enumerate() {
            *r = pos as u32;
        }
        self.permutation_sign = 1.0;

        // Same singularity scale as the dense kernel: the maximum absolute
        // entry of the assembled matrix (structural zeros contribute 0).
        // `f64::max` is a pure selection, so folding in four interleaved
        // chains returns the identical value as the dense kernel's single
        // left fold while breaking the latency chain.
        let mut m0 = 0.0f64;
        let mut m1 = 0.0f64;
        let mut m2 = 0.0f64;
        let mut m3 = 0.0f64;
        let mut chunks = self.symbolic.stamp_slots.chunks_exact(4);
        for c in &mut chunks {
            m0 = m0.max(self.work[c[0] as usize].abs());
            m1 = m1.max(self.work[c[1] as usize].abs());
            m2 = m2.max(self.work[c[2] as usize].abs());
            m3 = m3.max(self.work[c[3] as usize].abs());
        }
        for &slot in chunks.remainder() {
            m0 = m0.max(self.work[slot as usize].abs());
        }
        let scale = m0.max(m1).max(m2).max(m3).max(1.0);

        if self.symbolic.words_per_row == 1 {
            if self.has_program {
                self.replay(scale)
            } else {
                self.program.clear();
                let outcome = self.record_from(0, scale);
                self.has_program = outcome.is_ok();
                outcome
            }
        } else {
            self.factorize_general(scale)
        }
    }

    /// Replays the recorded elimination program: a straight-line schedule
    /// with every slot address resolved. Each step's pivot scan performs the
    /// identical comparisons as the recording pass; if the winning position
    /// deviates from the recorded one (values moved enough to change the
    /// pivot), the validated prefix is kept and the suffix re-recorded.
    /// gis-analyze: no_alloc
    fn replay(&mut self, scale: f64) -> Result<()> {
        let n = self.symbolic.n;
        for k in 0..n {
            let scan_start = self.program.scan_off[k] as usize;
            let window = &self.program.scan_slots[scan_start..scan_start + (n - k)];
            let mut rel = 0usize;
            let mut pivot_value = self.work[window[0] as usize].abs();
            for (i, &slot) in window.iter().enumerate().skip(1) {
                let v = self.work[slot as usize].abs();
                if v > pivot_value {
                    pivot_value = v;
                    rel = i;
                }
            }
            if pivot_value < SINGULARITY_TOLERANCE * scale {
                self.has_program = false;
                return Err(LinalgError::Singular {
                    pivot: k,
                    value: pivot_value,
                });
            }
            if rel as u32 != self.program.expected_rel[k] {
                // Pivot deviation: the steps replayed so far are identical to
                // what the recording path would have done, so recording can
                // resume mid-elimination.
                self.program.truncate_at(k);
                self.has_program = false;
                let outcome = self.record_from(k, scale);
                self.has_program = outcome.is_ok();
                return outcome;
            }
            if rel != 0 {
                self.row_at.swap(k, k + rel);
                self.permutation_sign = -self.permutation_sign;
            }
            let pivot = self.work[window[rel] as usize];

            let mut cursor = self.program.factor_off[k] as usize;
            let ops = &self.program.factor_ops;
            let ncand = ops[cursor] as usize;
            cursor += 1;
            for _ in 0..ncand {
                let mslot = ops[cursor] as usize;
                let npairs = ops[cursor + 1] as usize;
                cursor += 2;
                let multiplier = self.work[mslot] / pivot;
                self.work[mslot] = multiplier;
                // gis-analyze: allow(float-eq, structural-zero skip keeps sparse elimination bit-identical to dense)
                if multiplier != 0.0 {
                    for _ in 0..npairs {
                        let dst = ops[cursor] as usize;
                        let src = ops[cursor + 1] as usize;
                        cursor += 2;
                        let delta = multiplier * self.work[src];
                        self.work[dst] -= delta;
                    }
                } else {
                    cursor += 2 * npairs;
                }
            }
        }
        self.factored = true;
        Ok(())
    }

    /// Elimination for `n <= 64` starting at step `k0`, recording the
    /// schedule into the program buffers as it goes. Row masks are single
    /// machine words on this path, so membership and coverage tests are one
    /// AND each.
    fn record_from(&mut self, k0: usize, scale: f64) -> Result<()> {
        let n = self.symbolic.n;
        for k in k0..n {
            // Pivot search: identical strictly-greater scan as the dense
            // kernel; structural zeros read as exact 0.0 and never win.
            self.program
                .scan_off
                .push(self.program.scan_slots.len() as u32);
            let first_slot = (self.row_at[k] as usize * n + k) as u32;
            self.program.scan_slots.push(first_slot);
            let mut pivot_pos = k;
            let mut pivot_value = self.work[first_slot as usize].abs();
            for pos in (k + 1)..n {
                let slot = (self.row_at[pos] as usize * n + k) as u32;
                self.program.scan_slots.push(slot);
                let v = self.work[slot as usize].abs();
                if v > pivot_value {
                    pivot_value = v;
                    pivot_pos = pos;
                }
            }
            self.program.expected_rel.push((pivot_pos - k) as u32);
            if pivot_value < SINGULARITY_TOLERANCE * scale {
                return Err(LinalgError::Singular {
                    pivot: k,
                    value: pivot_value,
                });
            }
            if pivot_pos != k {
                self.row_at.swap(k, pivot_pos);
                self.permutation_sign = -self.permutation_sign;
            }
            let pr = self.row_at[k] as usize;
            let pr_off = pr * n;
            let pivot = self.work[pr_off + k];
            // Pivot-row columns strictly right of k, as a mask.
            let upper: u64 = self.symbolic.fill_mask[pr] & !(u64::MAX >> (63 - k));
            let col_k_bit: u64 = 1u64 << k;

            self.program
                .factor_off
                .push(self.program.factor_ops.len() as u32);
            let ncand_index = self.program.factor_ops.len();
            self.program.factor_ops.push(0);
            let mut ncand = 0u32;
            for pos in (k + 1)..n {
                let r = self.row_at[pos] as usize;
                // A row without column k in its fill pattern holds an exact
                // structural zero there: the dense kernel computes multiplier
                // 0.0 and skips the update, leaving the row untouched.
                if self.symbolic.fill_mask[r] & col_k_bit == 0 {
                    continue;
                }
                ncand += 1;
                let r_off = r * n;
                let multiplier = self.work[r_off + k] / pivot;
                self.work[r_off + k] = multiplier;
                self.program.factor_ops.push((r_off + k) as u32);
                let npairs_index = self.program.factor_ops.len();
                self.program.factor_ops.push(0);
                // The pair list is structural: it is recorded whether or not
                // this multiplier happens to be zero right now.
                if upper & !self.symbolic.fill_mask[r] != 0 {
                    // Pivoting deviated from the symbolic prediction: grow
                    // the row's fill pattern (cold; the plan stays warm
                    // afterwards).
                    self.upper[0] = upper;
                    let upper_buf = std::mem::take(&mut self.upper);
                    self.symbolic.absorb(r, &upper_buf);
                    self.upper = upper_buf;
                }
                let mut npairs = 0u32;
                // gis-analyze: allow(float-eq, structural-zero skip keeps sparse elimination bit-identical to dense)
                if multiplier != 0.0 {
                    for &j in &self.symbolic.fill_cols[pr] {
                        let j = j as usize;
                        if j <= k {
                            continue;
                        }
                        let delta = multiplier * self.work[pr_off + j];
                        self.work[r_off + j] -= delta;
                        self.program.factor_ops.push((r_off + j) as u32);
                        self.program.factor_ops.push((pr_off + j) as u32);
                        npairs += 1;
                    }
                } else {
                    for &j in &self.symbolic.fill_cols[pr] {
                        let j = j as usize;
                        if j <= k {
                            continue;
                        }
                        self.program.factor_ops.push((r * n + j) as u32);
                        self.program.factor_ops.push((pr_off + j) as u32);
                        npairs += 1;
                    }
                }
                self.program.factor_ops[npairs_index] = npairs;
            }
            self.program.factor_ops[ncand_index] = ncand;
        }

        // Record the triangular-solve schedule for this pivot sequence.
        self.program.perm.clear();
        self.program.perm.extend_from_slice(&self.row_at);
        self.program.fwd_ops.clear();
        for i in 1..n {
            let r = self.row_at[i] as usize;
            let cnt_index = self.program.fwd_ops.len();
            self.program.fwd_ops.push(0);
            let mut cnt = 0u32;
            for &j in &self.symbolic.fill_cols[r] {
                let j = j as usize;
                if j >= i {
                    break;
                }
                self.program.fwd_ops.push((r * n + j) as u32);
                self.program.fwd_ops.push(j as u32);
                cnt += 1;
            }
            self.program.fwd_ops[cnt_index] = cnt;
        }
        self.program.bwd_ops.clear();
        for i in (0..n).rev() {
            let r = self.row_at[i] as usize;
            self.program.bwd_ops.push((r * n + i) as u32);
            let cnt_index = self.program.bwd_ops.len();
            self.program.bwd_ops.push(0);
            let mut cnt = 0u32;
            for &j in &self.symbolic.fill_cols[r] {
                let j = j as usize;
                if j <= i {
                    continue;
                }
                self.program.bwd_ops.push((r * n + j) as u32);
                self.program.bwd_ops.push(j as u32);
                cnt += 1;
            }
            self.program.bwd_ops[cnt_index] = cnt;
        }

        self.factored = true;
        Ok(())
    }

    /// Generic-width elimination for `n > 64` (multi-word row masks).
    fn factorize_general(&mut self, scale: f64) -> Result<()> {
        let n = self.symbolic.n;
        for k in 0..n {
            let mut pivot_pos = k;
            let mut pivot_value = self.work[self.row_at[k] as usize * n + k].abs();
            for pos in (k + 1)..n {
                let v = self.work[self.row_at[pos] as usize * n + k].abs();
                if v > pivot_value {
                    pivot_value = v;
                    pivot_pos = pos;
                }
            }
            if pivot_value < SINGULARITY_TOLERANCE * scale {
                return Err(LinalgError::Singular {
                    pivot: k,
                    value: pivot_value,
                });
            }
            if pivot_pos != k {
                self.row_at.swap(k, pivot_pos);
                self.permutation_sign = -self.permutation_sign;
            }
            let pr = self.row_at[k] as usize;
            let pivot = self.work[pr * n + k];

            // upper = pattern(pivot row) ∩ {cols > k}, for fill propagation.
            self.upper.copy_from_slice(self.symbolic.fill_row_mask(pr));
            for (word_index, word) in self.upper.iter_mut().enumerate() {
                let base = word_index * 64;
                if base + 63 <= k {
                    *word = 0;
                } else if base <= k {
                    let keep_from = k - base + 1; // 1..=63
                    *word &= !((1u64 << keep_from) - 1);
                }
            }

            for pos in (k + 1)..n {
                let r = self.row_at[pos] as usize;
                if !bit_is_set(self.symbolic.fill_row_mask(r), k) {
                    continue;
                }
                let multiplier = self.work[r * n + k] / pivot;
                self.work[r * n + k] = multiplier;
                // gis-analyze: allow(float-eq, structural-zero skip keeps sparse elimination bit-identical to dense)
                if multiplier != 0.0 {
                    self.symbolic.absorb(r, &self.upper);
                    let pivot_cols = &self.symbolic.fill_cols[pr];
                    let start = pivot_cols.partition_point(|&c| (c as usize) <= k);
                    for &j in &pivot_cols[start..] {
                        let j = j as usize;
                        let delta = multiplier * self.work[pr * n + j];
                        self.work[r * n + j] -= delta;
                    }
                }
            }
        }
        self.factored = true;
        Ok(())
    }

    /// Solves `A x = b` with the current factors, writing into `x`.
    ///
    /// The triangular substitutions iterate each row's fill pattern in the
    /// same ascending order as the dense kernel's full-column loops; skipped
    /// slots are exact zeros, so the solution is bit-identical to
    /// [`crate::LuDecomposition::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b`/`x` have the wrong
    /// length, or [`LinalgError::InvalidArgument`] if [`SparseLu::factorize`]
    /// has not succeeded since the last [`SparseLu::clear`].
    /// gis-analyze: no_alloc
    pub fn solve(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        let n = self.symbolic.n;
        if b.len() != n || x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "sparse_lu_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        if !self.factored {
            return Err(LinalgError::InvalidArgument(
                "sparse LU must be factorized before solving".to_string(),
            ));
        }
        if self.has_program {
            // Straight-line replay of the recorded substitution schedule:
            // the same operations as the generic loops below, with every
            // slot/index pre-resolved.
            for (pos, &r) in self.program.perm.iter().enumerate() {
                x[pos] = b[r as usize];
            }
            let mut cursor = 0usize;
            let ops = &self.program.fwd_ops;
            for xi in 1..n {
                let cnt = ops[cursor] as usize;
                cursor += 1;
                let mut acc = x[xi];
                for _ in 0..cnt {
                    let slot = ops[cursor] as usize;
                    let j = ops[cursor + 1] as usize;
                    cursor += 2;
                    acc -= self.work[slot] * x[j];
                }
                x[xi] = acc;
            }
            let mut cursor = 0usize;
            let ops = &self.program.bwd_ops;
            for xi in (0..n).rev() {
                let diag = ops[cursor] as usize;
                let cnt = ops[cursor + 1] as usize;
                cursor += 2;
                let mut acc = x[xi];
                for _ in 0..cnt {
                    let slot = ops[cursor] as usize;
                    let j = ops[cursor + 1] as usize;
                    cursor += 2;
                    acc -= self.work[slot] * x[j];
                }
                x[xi] = acc / self.work[diag];
            }
            return Ok(());
        }
        // Apply the permutation: x = P b.
        for (pos, &r) in self.row_at.iter().enumerate() {
            x[pos] = b[r as usize];
        }
        // Forward substitution with unit-diagonal L (each row's pattern is
        // sorted, so the sub-diagonal prefix ends at the first col >= i).
        for i in 1..n {
            let r = self.row_at[i] as usize;
            let row = &self.work[r * n..(r + 1) * n];
            let mut acc = x[i];
            for &j in &self.symbolic.fill_cols[r] {
                let j = j as usize;
                if j >= i {
                    break;
                }
                acc -= row[j] * x[j];
            }
            x[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let r = self.row_at[i] as usize;
            let row = &self.work[r * n..(r + 1) * n];
            let mut acc = x[i];
            for &j in &self.symbolic.fill_cols[r] {
                let j = j as usize;
                if j <= i {
                    continue;
                }
                acc -= row[j] * x[j];
            }
            x[i] = acc / row[i];
        }
        Ok(())
    }

    /// Determinant of the assembled matrix (product of the U diagonal times
    /// the permutation sign). Matches [`crate::LuDecomposition::determinant`]
    /// bit for bit on the same input.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`SparseLu::factorize`].
    pub fn determinant(&self) -> f64 {
        assert!(self.factored, "determinant requires factorized state");
        let n = self.symbolic.n;
        let mut det = self.permutation_sign;
        for i in 0..n {
            det *= self.work[self.row_at[i] as usize * n + i];
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LuDecomposition, Matrix, Vector};

    /// Deterministic pseudo-random value stream (xorshift).
    struct Rand(u64);
    impl Rand {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 as f64 / u64::MAX as f64) * 2.0 - 1.0
        }
    }

    /// Builds a random pattern with guaranteed diagonal and density `p`,
    /// values diagonally dominated for solvability.
    fn random_system(n: usize, p: f64, seed: u64) -> (SparsityPattern, Matrix) {
        let mut rng = Rand(seed.max(1));
        let mut builder = PatternBuilder::new(n);
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let keep = i == j || (rng.next() + 1.0) / 2.0 < p;
                if keep {
                    builder.insert(i, j);
                    let v = rng.next() + if i == j { n as f64 } else { 0.0 };
                    dense[(i, j)] = v;
                }
            }
        }
        (builder.build(), dense)
    }

    fn stamp_from_dense(lu: &mut SparseLu, pattern: &SparsityPattern, dense: &Matrix) {
        lu.clear();
        for r in 0..pattern.n() {
            for &c in pattern.row_cols(r) {
                lu.add_at(r, c as usize, dense[(r, c as usize)]);
            }
        }
    }

    fn sparse_from_dense(pattern: &SparsityPattern, dense: &Matrix) -> SparseLu {
        let mut lu = SparseLu::new(SymbolicLu::analyze(pattern));
        stamp_from_dense(&mut lu, pattern, dense);
        lu
    }

    fn assert_solutions_bit_identical(dense: &Matrix, sparse: &SparseLu, b: &Vector) {
        let dense_lu = LuDecomposition::new(dense).unwrap();
        let x_dense = dense_lu.solve(b).unwrap();
        let mut x_sparse = vec![0.0; dense.rows()];
        sparse.solve(b.as_slice(), &mut x_sparse).unwrap();
        for i in 0..dense.rows() {
            assert_eq!(
                x_dense[i].to_bits(),
                x_sparse[i].to_bits(),
                "solution mismatch at {i}"
            );
        }
        assert_eq!(
            dense_lu.determinant().to_bits(),
            sparse.determinant().to_bits()
        );
    }

    #[test]
    fn pattern_builder_dedups_and_sorts() {
        let mut b = PatternBuilder::new(3);
        b.insert(0, 2);
        b.insert(0, 0);
        b.insert(0, 2);
        b.insert(2, 1);
        let p = b.build();
        assert_eq!(p.n(), 3);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.row_cols(0), &[0, 2]);
        assert_eq!(p.row_cols(1), &[] as &[u32]);
        assert!(p.contains(2, 1));
        assert!(!p.contains(1, 1));
        assert!(!p.contains(5, 0));
    }

    #[test]
    fn symbolic_fill_is_superset_of_stamp() {
        let (pattern, _) = random_system(12, 0.3, 7);
        let sym = SymbolicLu::analyze(&pattern);
        assert!(sym.fill_nnz() >= sym.stamp_nnz());
        assert!(sym.fill_fraction() <= 1.0);
        for r in 0..pattern.n() {
            for &c in pattern.row_cols(r) {
                assert!(bit_is_set(sym.fill_row_mask(r), c as usize));
            }
        }
        assert_eq!(sym.stamp_pattern(), &pattern);
    }

    #[test]
    fn tridiagonal_predicts_no_fill() {
        let n = 16;
        let mut b = PatternBuilder::new(n);
        for i in 0..n {
            b.insert(i, i);
            if i > 0 {
                b.insert(i, i - 1);
                b.insert(i - 1, i);
            }
        }
        let pattern = b.build();
        let sym = SymbolicLu::analyze(&pattern);
        assert_eq!(
            sym.fill_nnz(),
            sym.stamp_nnz(),
            "diagonal-pivot elimination of a tridiagonal matrix has no fill"
        );
    }

    #[test]
    fn matches_dense_lu_bit_for_bit() {
        for (n, p, seed) in [
            (1, 1.0, 3),
            (4, 0.4, 11),
            (9, 0.3, 42),
            (16, 0.2, 5),
            (25, 0.5, 8),
            (70, 0.15, 21), // multi-word bitmask rows
        ] {
            let (pattern, dense) = random_system(n, p, seed);
            let mut sparse = sparse_from_dense(&pattern, &dense);
            sparse.factorize().unwrap();
            let b: Vector = (0..n).map(|i| (i as f64).cos() * 2.0 + 0.5).collect();
            assert_solutions_bit_identical(&dense, &sparse, &b);
        }
    }

    #[test]
    fn pivoting_deviation_grows_the_plan_and_stays_exact() {
        // MNA voltage-source shape: zero diagonal in the last row forces
        // pivoting away from the diagonal order the symbolic pass predicted.
        let mut b = PatternBuilder::new(3);
        for (i, j) in [(0, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1)] {
            b.insert(i, j);
        }
        let pattern = b.build();
        let dense =
            Matrix::from_rows(&[&[1e-3, 0.0, 1.0], &[0.0, 2e-3, -1.0], &[1.0, -1.0, 0.0]]).unwrap();
        let mut sparse = sparse_from_dense(&pattern, &dense);
        let fill_before = sparse.symbolic().fill_nnz();
        sparse.factorize().unwrap();
        let fill_after = sparse.symbolic().fill_nnz();
        assert!(fill_after >= fill_before);
        let rhs = Vector::from_slice(&[1e-3, 0.0, 1.0]);
        assert_solutions_bit_identical(&dense, &sparse, &rhs);

        // Refactorization on the warmed plan: no further growth, same bits.
        stamp_from_dense(&mut sparse, &pattern, &dense);
        sparse.factorize().unwrap();
        assert_eq!(sparse.symbolic().fill_nnz(), fill_after);
        assert_solutions_bit_identical(&dense, &sparse, &rhs);
    }

    #[test]
    fn replay_guard_catches_pivot_deviation() {
        // First factorization records a pivot sequence; the second uses
        // values that move the largest column entry to a different row, so
        // the replay must detect the deviation and re-record — staying
        // bit-identical to the dense kernel throughout.
        let mut b = PatternBuilder::new(3);
        for i in 0..3 {
            for j in 0..3 {
                b.insert(i, j);
            }
        }
        let pattern = b.build();
        let first =
            Matrix::from_rows(&[&[9.0, 1.0, 2.0], &[1.0, 7.0, 0.5], &[2.0, 0.5, 8.0]]).unwrap();
        let flipped = Matrix::from_rows(&[
            &[1.0, 1.0, 2.0],
            &[9.0, 7.0, 0.5], // column 0 now pivots to row 1
            &[2.0, 0.5, 8.0],
        ])
        .unwrap();
        let rhs = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let mut sparse = SparseLu::new(SymbolicLu::analyze(&pattern));
        for matrix in [&first, &flipped, &first, &flipped] {
            stamp_from_dense(&mut sparse, &pattern, matrix);
            sparse.factorize().unwrap();
            assert_solutions_bit_identical(matrix, &sparse, &rhs);
        }
    }

    #[test]
    fn refactorization_reuses_plan() {
        let (pattern, dense) = random_system(10, 0.35, 17);
        let mut sparse = sparse_from_dense(&pattern, &dense);
        sparse.factorize().unwrap();
        let det_first = sparse.determinant();

        // New values, same pattern: clear + stamp + refactor.
        let scaled = dense.scaled(3.0);
        stamp_from_dense(&mut sparse, &pattern, &scaled);
        sparse.factorize().unwrap();
        let dense_lu = LuDecomposition::new(&scaled).unwrap();
        assert_eq!(
            dense_lu.determinant().to_bits(),
            sparse.determinant().to_bits()
        );
        assert_ne!(det_first.to_bits(), sparse.determinant().to_bits());

        // And back to the original values: bit-identical to the first pass.
        stamp_from_dense(&mut sparse, &pattern, &dense);
        sparse.factorize().unwrap();
        assert_eq!(det_first.to_bits(), sparse.determinant().to_bits());
    }

    #[test]
    fn singularity_detected_like_dense() {
        let mut b = PatternBuilder::new(2);
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            b.insert(i, j);
        }
        let pattern = b.build();
        let dense = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let mut sparse = sparse_from_dense(&pattern, &dense);
        let dense_err = LuDecomposition::new(&dense).unwrap_err();
        let sparse_err = sparse.factorize().unwrap_err();
        match (dense_err, sparse_err) {
            (
                LinalgError::Singular {
                    pivot: pd,
                    value: vd,
                },
                LinalgError::Singular {
                    pivot: ps,
                    value: vs,
                },
            ) => {
                assert_eq!(pd, ps);
                assert_eq!(vd.to_bits(), vs.to_bits());
            }
            other => panic!("expected matching singularity errors, got {other:?}"),
        }
    }

    #[test]
    fn solve_rejects_bad_lengths_and_unfactored_state() {
        let (pattern, dense) = random_system(4, 0.5, 23);
        let mut sparse = sparse_from_dense(&pattern, &dense);
        let mut x = [0.0; 4];
        assert!(matches!(
            sparse.solve(&[0.0; 4], &mut x),
            Err(LinalgError::InvalidArgument(_))
        ));
        sparse.factorize().unwrap();
        assert!(sparse.solve(&[0.0; 3], &mut x).is_err());
        let mut short = [0.0; 3];
        assert!(sparse.solve(&[0.0; 4], &mut short).is_err());
        assert!(sparse.solve(&[0.0; 4], &mut x).is_ok());
        // clear() invalidates the factors.
        sparse.clear();
        assert!(sparse.solve(&[0.0; 4], &mut x).is_err());
    }

    #[test]
    fn dense_pattern_equals_dense_kernel_on_random_matrices() {
        // With a fully dense pattern the sparse kernel must reduce exactly to
        // the dense algorithm, including when values are zero inside the
        // pattern (exercising the multiplier != 0.0 skip).
        for seed in [1u64, 2, 3] {
            let n = 8;
            let mut rng = Rand(seed);
            let mut builder = PatternBuilder::new(n);
            let mut dense = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    builder.insert(i, j);
                    // A third of the in-pattern entries are numeric zeros.
                    let v = rng.next();
                    dense[(i, j)] = if v.abs() < 0.33 { 0.0 } else { v };
                }
                dense[(i, i)] += n as f64;
            }
            let pattern = builder.build();
            let mut sparse = sparse_from_dense(&pattern, &dense);
            sparse.factorize().unwrap();
            let b: Vector = (0..n).map(|i| (i as f64) * 0.7 - 1.0).collect();
            assert_solutions_bit_identical(&dense, &sparse, &b);
        }
    }
}
