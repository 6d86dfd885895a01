//! The benchmark's own reference computations, independent of the solver
//! crates: a seeded generator for the exact solution `x*` and a matrix-free
//! Dirichlet stencil operator that makes `b = A·x*`, checks every returned
//! `x` and cross-checks the program's assembled matrix.

/// SplitMix64 (Steele, Lea & Flood 2014): the generator behind `x*`.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` values uniform in `[0, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.unit()).collect()
    }
}

/// Which Poisson stencil a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stencil {
    /// Face neighbours, unit weights.
    P7,
    /// Radius-2 box, weight `1/d²` (the paper's Figure-1 operator).
    P125,
}

impl Stencil {
    /// `(dx, dy, dz, w)` of every off-diagonal coupling.
    pub fn couplings(self) -> Vec<(i64, i64, i64, f64)> {
        let mut v = Vec::new();
        match self {
            Stencil::P7 => {
                for axis in 0..3 {
                    for s in [-1i64, 1] {
                        let mut d = [0i64; 3];
                        d[axis] = s;
                        v.push((d[0], d[1], d[2], 1.0));
                    }
                }
            }
            Stencil::P125 => {
                for dz in -2i64..=2 {
                    for dy in -2i64..=2 {
                        for dx in -2i64..=2 {
                            let d2 = dx * dx + dy * dy + dz * dz;
                            if d2 > 0 {
                                v.push((dx, dy, dz, 1.0 / d2 as f64));
                            }
                        }
                    }
                }
            }
        }
        v
    }
}

/// Matrix-free `A` for a stencil on an `n³` grid with a homogeneous
/// Dirichlet boundary: every coupling adds its weight to the diagonal, and
/// couplings that leave the grid drop their off-diagonal term.
pub struct StencilOp {
    n: usize,
    diag: f64,
    couplings: Vec<(i64, i64, i64, f64)>,
}

impl StencilOp {
    /// The operator of `stencil` on the `n × n × n` grid.
    pub fn new(stencil: Stencil, n: usize) -> Self {
        let couplings = stencil.couplings();
        let diag = couplings.iter().map(|c| c.3).sum();
        StencilOp { n, diag, couplings }
    }

    /// Grid points (rows of `A`).
    pub fn len(&self) -> usize {
        self.n * self.n * self.n
    }

    /// Never true: the grid has at least one point.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Non-zeros of the assembled operator: the diagonal plus every
    /// in-grid coupling.
    pub fn nnz(&self) -> usize {
        let n = self.n as i64;
        let inside = |d: i64| (n - d.abs()).max(0) as usize;
        self.len()
            + self
                .couplings
                .iter()
                .map(|&(dx, dy, dz, _)| inside(dx) * inside(dy) * inside(dz))
                .sum::<usize>()
    }

    /// `y = A x`.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.len(), "oracle: x has the wrong length");
        assert_eq!(y.len(), self.len(), "oracle: y has the wrong length");
        let n = self.n as i64;
        for z in 0..n {
            for yy in 0..n {
                for xx in 0..n {
                    let i = (xx + n * (yy + n * z)) as usize;
                    let mut acc = self.diag * x[i];
                    for &(dx, dy, dz, w) in &self.couplings {
                        let (a, b, c) = (xx + dx, yy + dy, z + dz);
                        if (0..n).contains(&a) && (0..n).contains(&b) && (0..n).contains(&c) {
                            acc -= w * x[(a + n * (b + n * c)) as usize];
                        }
                    }
                    y[i] = acc;
                }
            }
        }
    }

    /// `A x` as a new vector.
    pub fn mul(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.len()];
        self.apply(x, &mut y);
        y
    }

    /// `‖b − A x‖₂ / ‖b‖₂`.
    pub fn relres(&self, b: &[f64], x: &[f64]) -> f64 {
        let ax = self.mul(x);
        let r2: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, ai)| (bi - ai) * (bi - ai))
            .sum();
        let b2: f64 = b.iter().map(|v| v * v).sum();
        (r2 / b2).sqrt()
    }
}

/// Largest `|p_i − q_i|` over `max |q_i|`: the agreement of two products.
pub fn max_rel_diff(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "max_rel_diff: length mismatch");
    let scale = q.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = p
        .iter()
        .zip(q)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    diff / scale.max(f64::MIN_POSITIVE)
}
