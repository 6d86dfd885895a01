//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Times `solve_resilient` to a stated tolerance for PCG, PIPECG,
//! PIPE-PsCG and Hybrid on one Poisson workload, checks every answer with
//! the benchmark's own oracle, runs the workload's known-fault cells once,
//! and prints one JSON object as its last line of output. `--trace 1`
//! routes every engine call through the timing wrapper and reports the
//! per-layer ledger instead of the end-to-end metrics. See README.md.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::engine::{self, Engine, Outcome, Path, Request};
use perfbench::oracle::{max_rel_diff, Rng, Stencil, StencilOp};
use perfbench::timed::Ledger;
use pipescg::{MethodKind, SolveOptions};
use pscg_precond::Jacobi;
use pscg_sim::{Context, SimCtx};
use pscg_sparse::stencil::{poisson3d_125pt, poisson3d_7pt, Grid3};
use pscg_sparse::CsrMatrix;

/// The timed methods, with the metric-name stem of each.
const METHODS: [(MethodKind, &str); 4] = [
    (MethodKind::Pcg, "pcg"),
    (MethodKind::Pipecg, "pipecg"),
    (MethodKind::PipePscg, "pipe_pscg"),
    (MethodKind::Hybrid, "hybrid"),
];

/// Seed of the known-fault cells' inputs. Fixed, so each cell fails (or,
/// once mended, passes) identically in every run whatever `--seed` is.
const FAULT_SEED: u64 = 0x5EED_FA17;

/// Tolerance of the discarded warm-up solves: enough iterations to fault
/// in every buffer and warm the allocator, at a small share of a round.
const WARMUP_RTOL: f64 = 1e-2;

/// Agreement the assembled matrix must show with the oracle's product.
const ASSEMBLY_TOL: f64 = 1e-13;

/// One solve that fails on the parent commit because of a named fault.
struct Cell {
    method: MethodKind,
    path: Path,
    jacobi: bool,
    rtol: f64,
    fault: &'static str,
}

struct Workload {
    name: &'static str,
    stencil: Stencil,
    n: usize,
    rtol: f64,
    /// Set-up repetitions; `setup_s` is their median.
    setup_reps: usize,
    /// Nominal seconds of one round of the four timed solves on the
    /// reference host. The round count is `--seconds / round_s`, a
    /// function of the arguments alone, so every run attempts the same
    /// operations.
    round_s: f64,
    faults: &'static [Cell],
}

const NO_PLAIN_CHECK: &str =
    "MethodKind::solve never verifies the true residual, and the monomial s-step basis drifts";
const ACCEPT_10X: &str =
    "solve_resilient's acceptance check admits a true residual up to 10 x rtol";

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "p7-jacobi",
        stencil: Stencil::P7,
        n: 64,
        // Tighter tolerances are the known-fault cells: at 1e-5 the
        // supervisor accepts PIPE-PsCG at a true 1.34e-5, and at 1e-6 its
        // answers land anywhere in 0.76-1.0 x rtol, so some seeds fail.
        // At 1e-4 the true residual is within 0.3% of the recurrence one.
        rtol: 1e-4,
        setup_reps: 25,
        round_s: 6.5,
        faults: &[
            Cell {
                method: MethodKind::PipePscg,
                path: Path::Plain,
                jacobi: true,
                rtol: 1e-6,
                fault: NO_PLAIN_CHECK,
            },
            Cell {
                method: MethodKind::Hybrid,
                path: Path::Plain,
                jacobi: true,
                rtol: 1e-6,
                fault: NO_PLAIN_CHECK,
            },
            Cell {
                method: MethodKind::PipeScg,
                path: Path::Plain,
                jacobi: false,
                rtol: 1e-6,
                fault: NO_PLAIN_CHECK,
            },
            Cell {
                method: MethodKind::PipePscg,
                path: Path::Resilient,
                jacobi: true,
                rtol: 1e-5,
                fault: ACCEPT_10X,
            },
            Cell {
                method: MethodKind::Hybrid,
                path: Path::Resilient,
                jacobi: true,
                rtol: 1e-5,
                fault: ACCEPT_10X,
            },
        ],
    },
    Workload {
        name: "p125-jacobi",
        stencil: Stencil::P125,
        n: 40,
        rtol: 1e-5,
        setup_reps: 11,
        round_s: 2.9,
        faults: &[],
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == val).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {val:?} (known: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = val.parse().map_err(|e| format!("--seed {val:?}: {e}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|e| format!("--seconds {val:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {val} is outside (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Every `PSCG_*` variable changes the measured program (threads, SpMV
/// format, chunk sizes, telemetry, faults), so none may be set.
fn pscg_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PSCG_"))
        .collect()
}

fn assemble(w: &Workload) -> CsrMatrix {
    let grid = Grid3::cube(w.n);
    match w.stencil {
        Stencil::P7 => poisson3d_7pt(grid, None),
        Stencil::P125 => poisson3d_125pt(grid),
    }
}

/// Seconds of the four set-up phases.
#[derive(Clone, Copy)]
struct SetupTimes {
    assemble: f64,
    pc_build: f64,
    engine: f64,
    first_spmv: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.assemble + self.pc_build + self.engine + self.first_spmv
    }
}

/// One set-up: assembly, preconditioner, engine and the first SpMV (which
/// builds the matrix's lazily cached structures). Returns the matrix and
/// the product `A v`.
fn setup_once(w: &Workload, v: &[f64]) -> (SetupTimes, CsrMatrix, Vec<f64>) {
    let t0 = Instant::now();
    let a = assemble(w);
    let assemble_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let pc = Jacobi::new(&a);
    let pc_build = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut ctx = SimCtx::serial(&a, Box::new(pc));
    let engine_s = t.elapsed().as_secs_f64();
    let mut y = vec![0.0; a.nrows()];
    let t = Instant::now();
    ctx.spmv(v, &mut y);
    let first_spmv = t.elapsed().as_secs_f64();
    drop(ctx);
    let times = SetupTimes {
        assemble: assemble_s,
        pc_build,
        engine: engine_s,
        first_spmv,
    };
    (times, a, y)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Process high-water resident set in MiB.
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable `struct rusage` of the x86-64/aarch64
    // Linux layout (two timevals, then fourteen longs starting with
    // ru_maxrss), and RUSAGE_SELF (0) names the calling process.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_mb() -> f64 {
    f64::NAN
}

/// Last-level cache size from CPUID leaf 4 (deterministic cache
/// parameters), without reading any file.
#[cfg(target_arch = "x86_64")]
fn llc_bytes() -> Option<u64> {
    use std::arch::x86_64::__cpuid_count;
    let mut best: Option<(u32, u64)> = None;
    for i in 0..16 {
        #[allow(unused_unsafe)]
        // SAFETY: CPUID is available on every x86-64 processor.
        let r = unsafe { __cpuid_count(4, i) };
        if r.eax & 0x1f == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        let size = ways * parts * line * sets;
        if best.is_none_or(|(l, _)| level >= l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, s)| s)
}

#[cfg(not(target_arch = "x86_64"))]
fn llc_bytes() -> Option<u64> {
    None
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// Attempted and failed operations, the correctness verdict and metrics.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| {
                // JSON has no NaN; a non-finite metric already cleared `correct`.
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The oracle's verdict on one solve: its true relative residual, or why
/// the answer is wrong.
fn verify(op: &StencilOp, b: &[f64], out: &Outcome, rtol: f64) -> Result<f64, String> {
    if let Err(e) = &out.result {
        return Err(format!("returned an error: {e}"));
    }
    if out.x.len() != op.len() {
        return Err(format!("returned {} of {} entries", out.x.len(), op.len()));
    }
    let t = op.relres(b, &out.x);
    if t <= rtol {
        Ok(t)
    } else {
        let stop = out.result.as_ref().map(|r| r.stop).ok();
        Err(format!(
            "stopped with {stop:?} at true relres {t:.3e} > rtol {rtol:.0e}"
        ))
    }
}

fn request(method: MethodKind, path: Path, rtol: f64, traced: bool) -> Request {
    Request {
        method,
        path,
        engine: Engine::Serial,
        jacobi: true,
        opts: SolveOptions::with_rtol(rtol),
        traced,
    }
}

/// Per-layer means over the `solves` traced solves of method `m`.
fn put_layers(
    rep: &mut Report,
    (m, stem): (MethodKind, &str),
    ledger: &Ledger,
    solves: f64,
    extra: &MethodExtra,
) {
    let per = |v: f64| v / solves;
    let rate = |work: f64, s: f64| if s > 0.0 { work / s / 1e9 } else { 0.0 };
    let l = ledger;
    let mut put =
        |name: &str, v: f64, unit: &'static str| rep.put(format!("{stem}.{name}"), v, unit);
    // PCG and PIPECG make no block updates and PCG posts no non-blocking
    // reduction; those metrics would read 0 in every run, so they are left out.
    if matches!(m, MethodKind::PipePscg | MethodKind::Hybrid) {
        put("sparse.combine_s", per(l.combine.s), "s");
        put("sparse.combine_calls", per(l.combine.calls as f64), "count");
        put(
            "sparse.combine_gflops",
            rate(l.combine.work, l.combine.s),
            "GFLOP/s",
        );
    }
    put("sparse.gram_s", per(l.gram.s), "s");
    put("sparse.gram_calls", per(l.gram.calls as f64), "count");
    put("sparse.spmv_s", per(l.spmv.s), "s");
    put("sparse.spmv_calls", per(l.spmv.calls as f64), "count");
    put("sparse.spmv_gbps", rate(l.spmv.work, l.spmv.s), "GB/s");
    put("sparse.blas1_s", per(l.blas1.s), "s");
    put("sparse.blas1_calls", per(l.blas1.calls as f64), "count");
    put("precond.apply_s", per(l.pc.s), "s");
    put("precond.apply_calls", per(l.pc.calls as f64), "count");
    put("sim.wait_s", per(l.wait_s), "s");
    if m != MethodKind::Pcg {
        put("sim.window_s", per(l.window_s()), "s");
    }
    put("sim.reductions", per(l.reductions as f64), "count");
    put("core.self_s", per(extra.solve_sum_s - l.wrapped_s()), "s");
    put("core.iterations", per(extra.iterations), "count");
    put("core.supervisor_s", extra.solve_s - extra.plain_s, "s");
    put(
        "core.supervisor_spmvs",
        per(extra.resilient_spmvs - extra.plain_spmvs),
        "count",
    );
    put("core.recovery_codes", per(l.recovery_codes as f64), "count");
}

/// Whole-solve figures of one method that the ledger does not hold:
/// totals over the rounds, and the median resilient and plain solve times.
#[derive(Default)]
struct MethodExtra {
    solve_sum_s: f64,
    iterations: f64,
    resilient_spmvs: f64,
    plain_spmvs: f64,
    solve_s: f64,
    plain_s: f64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set = pscg_env();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each PSCG_* variable changes the measured program",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    pscg_par::set_global_threads(1);
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc {nproc}, LLC {}, {}, commit {}",
        llc_bytes().map_or("unknown".to_string(), |b| format!("{} KiB", b / 1024)),
        env!("PERFBENCH_RUSTC"),
        commit()
    );
    println!(
        "workload {}: {:?} Poisson {}^3, rtol {:e}, SimCtx::serial, seed {}, pool threads {}",
        w.name,
        w.stencil,
        w.n,
        w.rtol,
        args.seed,
        pscg_par::global_threads()
    );

    let mut rep = Report {
        correct: true,
        ..Report::default()
    };
    let op = StencilOp::new(w.stencil, w.n);

    // Set-up, repeated; the assembled matrix must match the oracle.
    let probe = Rng::new(args.seed ^ 0xA55E_3B1E).vector(op.len());
    let mut setups = Vec::with_capacity(w.setup_reps);
    let expected = op.mul(&probe);
    let mut a = None;
    for _ in 0..w.setup_reps {
        let (times, m, y) = setup_once(w, &probe);
        setups.push(times);
        let diff = max_rel_diff(&y, &expected);
        if m.nnz() != op.nnz() || diff.is_nan() || diff > ASSEMBLY_TOL {
            println!(
                "WRONG: assembled matrix disagrees with the oracle (nnz {} vs {}, max rel diff {diff:.2e})",
                m.nnz(),
                op.nnz()
            );
            rep.correct = false;
        }
        a = Some(m);
    }
    let a = a.expect("at least one set-up repetition");
    println!(
        "matrix: {} rows, {} nnz, {:.1} nnz/row",
        a.nrows(),
        a.nnz(),
        a.avg_nnz_per_row()
    );

    let b = op.mul(&Rng::new(args.seed).vector(op.len()));
    let rounds = ((args.seconds / w.round_s).round() as usize).max(1);

    for (m, _) in METHODS {
        engine::solve(
            &a,
            &b,
            &request(m, Path::Resilient, WARMUP_RTOL, args.trace),
        );
    }

    let stats0 = pscg_par::stats::PoolStats::snapshot();
    let mut times = vec![Vec::with_capacity(rounds); METHODS.len()];
    let mut plain_times = vec![Vec::with_capacity(rounds); METHODS.len()];
    let mut solves = 0usize;
    let mut ledgers = vec![Ledger::default(); METHODS.len()];
    let mut extras: Vec<MethodExtra> = METHODS.iter().map(|_| MethodExtra::default()).collect();
    for r in 0..rounds {
        for k in 0..METHODS.len() {
            // Rotate the order each round so no method always runs first.
            let k = (k + r) % METHODS.len();
            let (m, stem) = METHODS[k];
            let out = engine::solve(&a, &b, &request(m, Path::Resilient, w.rtol, args.trace));
            rep.attempted += 1;
            match verify(&op, &b, &out, w.rtol) {
                Ok(t) => println!(
                    "round {r} {stem}: {:.4} s, {} steps, true relres {t:.3e}",
                    out.secs,
                    out.result.as_ref().map_or(0, |r| r.iterations)
                ),
                Err(why) => {
                    rep.failed += 1;
                    println!("FAILED round {r} {stem}: {why}");
                }
            }
            times[k].push(out.secs);
            ledgers[k].accumulate(&out.ledger);
            solves += 1;
            extras[k].solve_sum_s += out.secs;
            extras[k].resilient_spmvs += out.counters.spmv as f64;
            if let Ok(res) = &out.result {
                extras[k].iterations += res.iterations as f64;
            }
            if args.trace {
                // The plain path on the same input gives the supervisor's
                // share. Its answer is not verified here: the known-fault
                // cells check that path on fixed inputs.
                let plain = engine::solve(&a, &b, &request(m, Path::Plain, w.rtol, true));
                plain_times[k].push(plain.secs);
                extras[k].plain_spmvs += plain.counters.spmv as f64;
                solves += 1;
            }
        }
    }
    let pool = pscg_par::stats::PoolStats::snapshot().delta_since(&stats0);

    // Known-fault cells: fixed inputs, run once, untimed.
    if !w.faults.is_empty() {
        let bf = op.mul(&Rng::new(FAULT_SEED).vector(op.len()));
        for cell in w.faults {
            let mut req = request(cell.method, cell.path, cell.rtol, false);
            req.jacobi = cell.jacobi;
            let out = engine::solve(&a, &bf, &req);
            rep.attempted += 1;
            let label = format!(
                "{:?} {} rtol {:.0e}",
                cell.path,
                cell.method.name(),
                cell.rtol
            );
            match verify(&op, &bf, &out, cell.rtol) {
                Ok(t) => println!("known-fault cell now passes ({label}): true relres {t:.3e}"),
                Err(why) => {
                    rep.failed += 1;
                    println!("KNOWN FAULT ({label}): {why}; fault: {}", cell.fault);
                }
            }
        }
    }

    let setup_total: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    if args.trace {
        for (k, (m, stem)) in METHODS.into_iter().enumerate() {
            extras[k].solve_s = median(&times[k]);
            extras[k].plain_s = median(&plain_times[k]);
            put_layers(&mut rep, (m, stem), &ledgers[k], rounds as f64, &extras[k]);
            println!("traced tts {stem}: {:.4} s", extras[k].solve_s);
        }
        let part = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        rep.put("setup.assemble_s", part(|s| s.assemble), "s");
        rep.put("setup.pc_build_s", part(|s| s.pc_build), "s");
        rep.put("setup.engine_s", part(|s| s.engine), "s");
        rep.put("setup.first_spmv_s", part(|s| s.first_spmv), "s");
        rep.put("par.jobs", pool.jobs as f64 / solves as f64, "count");
        rep.put(
            "par.parallel_jobs",
            pool.parallel_jobs as f64 / solves as f64,
            "count",
        );
        pscg_obs::set_mode(pscg_obs::TelemetryMode::Aggregate);
        pscg_obs::set_enabled(true);
        let out = engine::solve(
            &a,
            &b,
            &request(MethodKind::PipePscg, Path::Resilient, w.rtol, false),
        );
        pscg_obs::set_enabled(false);
        let _ = pscg_obs::agg::drain();
        rep.put("pipe_pscg.obs.aggregate_s", out.secs, "s");
    } else {
        rep.put("setup_s", median(&setup_total), "s");
        for (k, (_, stem)) in METHODS.into_iter().enumerate() {
            rep.put(format!("tts_{stem}_s"), median(&times[k]), "s");
        }
        rep.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    for (k, (v, u)) in &rep.metrics {
        println!("{k} = {v} {u}");
        if !v.is_finite() {
            println!("WRONG: metric {k} is not a finite number");
            rep.correct = false;
        }
    }
    println!(
        "attempted {}, failed {}, correct {}",
        rep.attempted, rep.failed, rep.correct
    );
    println!("{}", rep.json());
    ExitCode::SUCCESS
}
