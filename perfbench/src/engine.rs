//! One solve on either engine, optionally through the timing wrapper:
//! the single entry point the benchmark and its transparency test share.

use std::sync::Barrier;
use std::time::Instant;

use pipescg::{MethodKind, SolveError, SolveOptions, SolveResult};
use pscg_precond::Jacobi;
use pscg_sim::thread::{run_spmd, LocalPc, RankCtx};
use pscg_sim::{Context, OpCounters, SimCtx};
use pscg_sparse::op::{IdentityOp, Operator};
use pscg_sparse::CsrMatrix;

use crate::timed::{Ledger, Timed};

/// Where a solve runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SimCtx::serial`: one rank owning the whole problem.
    Serial,
    /// `RankCtx` ranks on OS threads under `run_spmd`.
    Ranks(usize),
}

/// The call a solve goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `MethodKind::solve`.
    Plain,
    /// `MethodKind::solve_resilient`.
    Resilient,
}

/// What one solve request asks for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// The method.
    pub method: MethodKind,
    /// The entry point.
    pub path: Path,
    /// The engine.
    pub engine: Engine,
    /// Jacobi (true) or no preconditioner.
    pub jacobi: bool,
    /// Solver options.
    pub opts: SolveOptions,
    /// Route every engine call through [`Timed`].
    pub traced: bool,
}

/// The result of one solve, gathered over ranks.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The returned iterate, or the supervisor's error.
    pub result: Result<SolveResult, SolveError>,
    /// The global iterate (ranks' pieces concatenated in rank order).
    pub x: Vec<f64>,
    /// Wall seconds of the solve call (the slowest rank's).
    pub secs: f64,
    /// Per-layer totals summed over ranks (zero when untraced).
    pub ledger: Ledger,
    /// Engine counters after the solve (rank 0's).
    pub counters: OpCounters,
}

/// Computed bytes of one SpMV over rows `[lo, hi)` of `a`: values,
/// column indices and row pointers as stored, plus one read of the
/// input and one write of the output.
pub fn spmv_bytes(a: &CsrMatrix, lo: usize, hi: usize) -> f64 {
    let nnz = a.row_ptr()[hi] - a.row_ptr()[lo];
    let idx = std::mem::size_of::<usize>();
    (nnz * (8 + idx) + (hi - lo + 1) * idx + 2 * 8 * (hi - lo)) as f64
}

fn run_on<C: Context>(
    ctx: C,
    req: &Request,
    b: &[f64],
    bytes: f64,
    start: Option<&Barrier>,
) -> (Result<SolveResult, SolveError>, f64, Ledger, OpCounters) {
    fn go<C: Context>(ctx: &mut C, req: &Request, b: &[f64]) -> Result<SolveResult, SolveError> {
        match req.path {
            Path::Plain => Ok(req.method.solve(ctx, b, None, &req.opts)),
            Path::Resilient => req.method.solve_resilient(ctx, b, None, &req.opts),
        }
    }
    if req.traced {
        let mut t = Timed::new(ctx, bytes);
        if let Some(s) = start {
            s.wait();
        }
        let t0 = Instant::now();
        let r = go(&mut t, req, b);
        let secs = t0.elapsed().as_secs_f64();
        (r, secs, t.ledger, *t.counters())
    } else {
        let mut ctx = ctx;
        if let Some(s) = start {
            s.wait();
        }
        let t0 = Instant::now();
        let r = go(&mut ctx, req, b);
        let secs = t0.elapsed().as_secs_f64();
        (r, secs, Ledger::default(), *ctx.counters())
    }
}

/// Runs one solve of `A x = b` from a zero initial guess. Engine
/// construction is outside the timed interval.
pub fn solve(a: &CsrMatrix, b: &[f64], req: &Request) -> Outcome {
    match req.engine {
        Engine::Serial => {
            let pc: Box<dyn Operator> = if req.jacobi {
                Box::new(Jacobi::new(a))
            } else {
                Box::new(IdentityOp::new(a.nrows()))
            };
            let ctx = SimCtx::serial(a, pc);
            let (result, secs, ledger, counters) =
                run_on(ctx, req, b, spmv_bytes(a, 0, a.nrows()), None);
            let x = result.as_ref().map(|r| r.x.clone()).unwrap_or_default();
            Outcome {
                result,
                x,
                secs,
                ledger,
                counters,
            }
        }
        Engine::Ranks(p) => {
            let (part, plan) = RankCtx::prepare(a, p);
            let inv_diag: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
            let start = Barrier::new(p);
            let pieces = run_spmd(p, |rank, world| {
                let (lo, hi) = part.range(rank);
                let pc = if req.jacobi {
                    LocalPc::Jacobi(inv_diag[lo..hi].to_vec())
                } else {
                    LocalPc::None
                };
                let ctx = RankCtx::new(world, rank, a, &part, &plan, pc);
                run_on(ctx, req, &b[lo..hi], spmv_bytes(a, lo, hi), Some(&start))
            });
            let secs = pieces.iter().map(|p| p.1).fold(0.0, f64::max);
            let mut ledger = Ledger::default();
            for piece in &pieces {
                ledger.accumulate(&piece.2);
            }
            let counters = pieces[0].3;
            let x = pieces
                .iter()
                .flat_map(|piece| piece.0.as_ref().map(|r| r.x.clone()).unwrap_or_default())
                .collect();
            let result = pieces
                .into_iter()
                .next()
                .map(|piece| piece.0)
                .expect("run_spmd returns one result per rank");
            Outcome {
                result,
                x,
                secs,
                ledger,
                counters,
            }
        }
    }
}
