//! A timing wrapper over any solver engine: [`Timed`] implements
//! [`Context`] by forwarding every trait method, default-bodied ones
//! included, to the wrapped engine and timing the kernel and collective
//! calls by layer. Forwarding keeps the numerics bitwise identical (the
//! transparency test checks it); only wall-clock reads are added.

use std::time::Instant;

use pscg_sim::trace::{BufId, LocalKind};
use pscg_sim::{BuddyRecovery, Context, OpCounters, RankFailure, ReduceHandle, WaitOutcome};
use pscg_sparse::{DenseMatrix, MultiVector};

/// Busy time, calls and computed work (flops or bytes) of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Seconds inside the layer's calls.
    pub s: f64,
    /// Calls (for SpMV: matrix products, so one `mpk` of depth `d` is `d`).
    pub calls: u64,
    /// Computed work: flops for Combine, bytes for SpMV, 0 elsewhere.
    pub work: f64,
}

impl Acc {
    fn add(&mut self, t0: Instant, calls: u64, work: f64) {
        self.s += t0.elapsed().as_secs_f64();
        self.calls += calls;
        self.work += work;
    }
}

/// Per-layer totals of the calls that went through a [`Timed`] engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    /// `block_*` recurrence linear combinations.
    pub combine: Acc,
    /// `local_gram*`, `local_dot_vec`, `local_dot`.
    pub gram: Acc,
    /// `spmv`, `mpk`.
    pub spmv: Acc,
    /// `axpy`, `aypx`, `waxpy`, `copy_v`, `scale_v`.
    pub blas1: Acc,
    /// `pc_apply`.
    pub pc: Acc,
    /// Seconds blocked in `allreduce`, `wait` and `try_wait`.
    pub wait_s: f64,
    /// Blocking plus posted reductions.
    pub reductions: u64,
    /// Recovery-ladder codes the supervisor noted.
    pub recovery_codes: u64,
    /// Σ (wait start − post end) over completed non-blocking reductions,
    /// kept as two sums since only their difference is reported.
    posted_at: f64,
    waited_at: f64,
    /// Seconds inside `iallreduce` (posting), part of the wrapped time.
    post_s: f64,
}

impl Ledger {
    /// Seconds between posting a non-blocking reduction and waiting on it,
    /// summed: the window the pipelined methods fill with work.
    pub fn window_s(&self) -> f64 {
        self.waited_at - self.posted_at
    }

    /// Seconds inside every timed call.
    pub fn wrapped_s(&self) -> f64 {
        self.combine.s
            + self.gram.s
            + self.spmv.s
            + self.blas1.s
            + self.pc.s
            + self.wait_s
            + self.post_s
    }

    /// Adds every total of `other` into `self`.
    pub fn accumulate(&mut self, other: &Ledger) {
        for (mine, theirs) in [
            (&mut self.combine, &other.combine),
            (&mut self.gram, &other.gram),
            (&mut self.spmv, &other.spmv),
            (&mut self.blas1, &other.blas1),
            (&mut self.pc, &other.pc),
        ] {
            mine.s += theirs.s;
            mine.work += theirs.work;
            mine.calls += theirs.calls;
        }
        self.wait_s += other.wait_s;
        self.posted_at += other.posted_at;
        self.waited_at += other.waited_at;
        self.post_s += other.post_s;
        self.reductions += other.reductions;
        self.recovery_codes += other.recovery_codes;
    }
}

/// A [`Context`] that times the calls of the engine it wraps.
pub struct Timed<C> {
    inner: C,
    origin: Instant,
    spmv_bytes: f64,
    /// The totals so far.
    pub ledger: Ledger,
}

impl<C: Context> Timed<C> {
    /// Wraps `inner`; `spmv_bytes` is the computed traffic of one local
    /// SpMV (matrix arrays plus one read of `x` and one write of `y`).
    pub fn new(inner: C, spmv_bytes: f64) -> Self {
        Timed {
            inner,
            origin: Instant::now(),
            spmv_bytes,
            ledger: Ledger::default(),
        }
    }

    fn since_origin(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

impl<C: Context> Context for Timed<C> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn vec_len(&self) -> usize {
        self.inner.vec_len()
    }
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }

    fn spmv(&mut self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.inner.spmv(x, y);
        self.ledger.spmv.add(t, 1, self.spmv_bytes);
    }
    fn mpk(&mut self, pow: &mut MultiVector, from: usize, to: usize, sigma: f64) {
        let products = to.saturating_sub(from) as u64;
        let t = Instant::now();
        self.inner.mpk(pow, from, to, sigma);
        self.ledger
            .spmv
            .add(t, products, products as f64 * self.spmv_bytes);
    }
    fn pc_apply(&mut self, r: &[f64], u: &mut [f64]) {
        let t = Instant::now();
        self.inner.pc_apply(r, u);
        self.ledger.pc.add(t, 1, 0.0);
    }

    fn pc_demote(&mut self) -> bool {
        self.inner.pc_demote()
    }
    fn pc_promote(&mut self) {
        self.inner.pc_promote()
    }
    fn pc_demoted(&self) -> bool {
        self.inner.pc_demoted()
    }
    fn matrix_nnz(&self) -> usize {
        self.inner.matrix_nnz()
    }
    fn pc_cost_rates(&self) -> (f64, f64) {
        self.inner.pc_cost_rates()
    }

    fn allreduce(&mut self, vals: &[f64]) -> Vec<f64> {
        let t = Instant::now();
        let out = self.inner.allreduce(vals);
        self.ledger.wait_s += t.elapsed().as_secs_f64();
        self.ledger.reductions += 1;
        out
    }
    fn iallreduce(&mut self, vals: &[f64]) -> ReduceHandle {
        let t = Instant::now();
        let h = self.inner.iallreduce(vals);
        self.ledger.post_s += t.elapsed().as_secs_f64();
        self.ledger.reductions += 1;
        self.ledger.posted_at += self.since_origin();
        h
    }
    fn wait(&mut self, h: ReduceHandle) -> Vec<f64> {
        self.ledger.waited_at += self.since_origin();
        let t = Instant::now();
        let out = self.inner.wait(h);
        self.ledger.wait_s += t.elapsed().as_secs_f64();
        out
    }
    fn try_wait(&mut self, h: ReduceHandle) -> WaitOutcome {
        let started = self.since_origin();
        let t = Instant::now();
        let out = self.inner.try_wait(h);
        self.ledger.wait_s += t.elapsed().as_secs_f64();
        // A timed-out completion hands its handle back to be waited again;
        // the window closes only at the completion that delivers.
        if matches!(out, WaitOutcome::Done(_)) {
            self.ledger.waited_at += started;
        }
        out
    }
    fn peek_pending(&mut self, h: &ReduceHandle) -> Vec<f64> {
        self.inner.peek_pending(h)
    }

    fn rank_failure(&self) -> Option<RankFailure> {
        self.inner.rank_failure()
    }
    fn buddy_put(&mut self, x: &[f64]) {
        self.inner.buddy_put(x)
    }
    fn buddy_recover(&mut self) -> BuddyRecovery {
        self.inner.buddy_recover()
    }
    fn note_recovery_code(&mut self, code: u64) {
        self.ledger.recovery_codes += 1;
        self.inner.note_recovery_code(code)
    }
    fn buf_of(&mut self, v: &[f64]) -> BufId {
        self.inner.buf_of(v)
    }
    fn buf_of_multi(&mut self, m: &MultiVector) -> BufId {
        self.inner.buf_of_multi(m)
    }
    fn charge_local(&mut self, kind: LocalKind, flops_per_row: f64, bytes_per_row: f64) {
        self.inner.charge_local(kind, flops_per_row, bytes_per_row)
    }
    fn charge_local_rw(
        &mut self,
        kind: LocalKind,
        flops_per_row: f64,
        bytes_per_row: f64,
        reads: [BufId; 2],
        write: BufId,
    ) {
        self.inner
            .charge_local_rw(kind, flops_per_row, bytes_per_row, reads, write)
    }
    fn charge_scalar(&mut self, flops: f64) {
        self.inner.charge_scalar(flops)
    }
    fn note_residual(&mut self, relres: f64) {
        self.inner.note_residual(relres)
    }
    fn counters(&self) -> &OpCounters {
        self.inner.counters()
    }
    fn counters_mut(&mut self) -> &mut OpCounters {
        self.inner.counters_mut()
    }
    fn alloc_vec(&mut self) -> Vec<f64> {
        self.inner.alloc_vec()
    }
    fn alloc_multi(&mut self, ncols: usize) -> MultiVector {
        self.inner.alloc_multi(ncols)
    }

    fn axpy(&mut self, a: f64, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.inner.axpy(a, x, y);
        self.ledger.blas1.add(t, 1, 0.0);
    }
    fn aypx(&mut self, a: f64, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.inner.aypx(a, x, y);
        self.ledger.blas1.add(t, 1, 0.0);
    }
    fn waxpy(&mut self, z: &mut [f64], a: f64, y: &[f64], x: &[f64]) {
        let t = Instant::now();
        self.inner.waxpy(z, a, y, x);
        self.ledger.blas1.add(t, 1, 0.0);
    }
    fn copy_v(&mut self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.inner.copy_v(x, y);
        self.ledger.blas1.add(t, 1, 0.0);
    }
    fn scale_v(&mut self, a: f64, x: &mut [f64]) {
        let t = Instant::now();
        self.inner.scale_v(a, x);
        self.ledger.blas1.add(t, 1, 0.0);
    }

    fn local_dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        let t = Instant::now();
        let out = self.inner.local_dot(x, y);
        self.ledger.gram.add(t, 1, 0.0);
        out
    }
    fn block_add_mul(&mut self, x: &mut MultiVector, y: &MultiVector, b: &DenseMatrix) {
        let flops = 2.0 * (x.len() * y.ncols() * x.ncols()) as f64;
        let t = Instant::now();
        self.inner.block_add_mul(x, y, b);
        self.ledger.combine.add(t, 1, flops);
    }
    fn block_gemv_acc(&mut self, x: &MultiVector, a: &[f64], y: &mut [f64]) {
        let flops = 2.0 * (x.len() * x.ncols()) as f64;
        let t = Instant::now();
        self.inner.block_gemv_acc(x, a, y);
        self.ledger.combine.add(t, 1, flops);
    }
    fn block_gemv_sub(&mut self, x: &MultiVector, a: &[f64], y: &mut [f64]) {
        let flops = 2.0 * (x.len() * x.ncols()) as f64;
        let t = Instant::now();
        self.inner.block_gemv_sub(x, a, y);
        self.ledger.combine.add(t, 1, flops);
    }
    fn block_combine(
        &mut self,
        dst: &mut MultiVector,
        src: &MultiVector,
        off: usize,
        prev: &MultiVector,
        b: &DenseMatrix,
    ) {
        let flops = 2.0 * (dst.len() * prev.ncols() * dst.ncols()) as f64;
        let t = Instant::now();
        self.inner.block_combine(dst, src, off, prev, b);
        self.ledger.combine.add(t, 1, flops);
    }
    fn block_gemv_sub_into(&mut self, x: &MultiVector, a: &[f64], src: &[f64], dst: &mut [f64]) {
        let flops = 2.0 * (x.len() * x.ncols()) as f64;
        let t = Instant::now();
        self.inner.block_gemv_sub_into(x, a, src, dst);
        self.ledger.combine.add(t, 1, flops);
    }
    fn local_gram(&mut self, x: &MultiVector, y: &MultiVector) -> DenseMatrix {
        let t = Instant::now();
        let out = self.inner.local_gram(x, y);
        self.ledger.gram.add(t, 1, 0.0);
        out
    }
    fn local_gram_range(
        &mut self,
        x: &MultiVector,
        xr: std::ops::Range<usize>,
        y: &MultiVector,
        yr: std::ops::Range<usize>,
    ) -> DenseMatrix {
        let t = Instant::now();
        let out = self.inner.local_gram_range(x, xr, y, yr);
        self.ledger.gram.add(t, 1, 0.0);
        out
    }
    fn local_dot_vec(&mut self, x: &MultiVector, v: &[f64]) -> Vec<f64> {
        let t = Instant::now();
        let out = self.inner.local_dot_vec(x, v);
        self.ledger.gram.add(t, 1, 0.0);
        out
    }
}
