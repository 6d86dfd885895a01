//! The timing wrapper must be invisible to the numerics: with and without
//! it, every method on both engines returns bitwise-identical iterates,
//! residual histories and operation counters, and the wrapper sees every
//! SpMV, preconditioner apply and reduction the engine counts.

use perfbench::engine::{solve, Engine, Path, Request};
use perfbench::oracle::{Rng, Stencil, StencilOp};
use pipescg::{MethodKind, SolveOptions};
use pscg_sparse::stencil::{poisson3d_7pt, Grid3};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn timing_wrapper_changes_no_bit() {
    pscg_par::set_global_threads(1);
    let n = 12;
    let a = poisson3d_7pt(Grid3::cube(n), None);
    let b = StencilOp::new(Stencil::P7, n).mul(&Rng::new(7).vector(n * n * n));
    for engine in [Engine::Serial, Engine::Ranks(2)] {
        let ranks = match engine {
            Engine::Serial => 1,
            Engine::Ranks(p) => p as u64,
        };
        for path in [Path::Plain, Path::Resilient] {
            for method in [
                MethodKind::Pcg,
                MethodKind::Pipecg,
                MethodKind::PipePscg,
                MethodKind::Hybrid,
            ] {
                let req = |traced| Request {
                    method,
                    path,
                    engine,
                    jacobi: true,
                    opts: SolveOptions::with_rtol(1e-6),
                    traced,
                };
                let bare = solve(&a, &b, &req(false));
                let timed = solve(&a, &b, &req(true));
                let what = format!("{method:?} {path:?} {engine:?}");
                assert!(!bare.x.is_empty(), "{what}: no iterate");
                assert_eq!(bits(&bare.x), bits(&timed.x), "{what}: iterate differs");
                // Debug prints every f64 in shortest round-trip form, so
                // equal strings mean equal bits, histories included.
                assert_eq!(
                    format!("{:?}", bare.result),
                    format!("{:?}", timed.result),
                    "{what}: result differs"
                );
                assert_eq!(bare.counters, timed.counters, "{what}: counters differ");
                let (l, c) = (&timed.ledger, &timed.counters);
                assert_eq!(l.spmv.calls, ranks * c.spmv, "{what}: SpMVs missed");
                assert_eq!(l.pc.calls, ranks * c.pc, "{what}: PC applies missed");
                assert_eq!(
                    l.reductions,
                    ranks * c.allreduces(),
                    "{what}: reductions missed"
                );
            }
        }
    }
}
