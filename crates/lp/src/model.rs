//! Linear/mixed-integer program model builder.
//!
//! A [`Problem`] is built incrementally: declare variables with bounds and
//! objective coefficients, then add linear constraints. The builder stores
//! the constraint matrix column-wise and sparse, which is what the revised
//! simplex needs.

use std::fmt;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Min,
    Max,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Le,
    Ge,
    Eq,
}

/// Handle to a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

/// Handle to a constraint (row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConId(pub(crate) usize);

impl VarId {
    /// Positional index of this variable in [`crate::Solution::x`].
    pub fn index(&self) -> usize {
        self.0
    }
}

impl ConId {
    /// Positional index of this constraint (row order of addition).
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
    pub integer: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub name: String,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear (or, with integer-marked variables, mixed-integer) program.
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) cons: Vec<Constraint>,
    /// Column-wise sparse matrix: `cols[j]` lists `(row, coefficient)`.
    pub(crate) cols: Vec<Vec<(usize, f64)>>,
}

impl Problem {
    pub fn new(sense: Sense) -> Self {
        Problem { sense, vars: Vec::new(), cons: Vec::new(), cols: Vec::new() }
    }

    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a continuous variable with bounds `[lb, ub]` (either may be
    /// infinite) and objective coefficient `obj`.
    pub fn add_var(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        assert!(!lb.is_nan() && !ub.is_nan() && !obj.is_nan(), "NaN in variable definition");
        assert!(lb <= ub, "variable lower bound exceeds upper bound: {lb} > {ub}");
        self.vars.push(Variable { name: name.into(), lb, ub, obj, integer: false });
        self.cols.push(Vec::new());
        VarId(self.vars.len() - 1)
    }

    /// Add a variable restricted to integer values (makes the problem a MIP;
    /// solve it with [`crate::milp::BranchAndBound`]).
    pub fn add_int_var(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        let v = self.add_var(name, lb, ub, obj);
        self.vars[v.0].integer = true;
        v
    }

    /// Add a binary (0/1 integer) variable.
    pub fn add_bin_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_int_var(name, 0.0, 1.0, obj)
    }

    /// Handle for the `index`-th variable (in order of addition).
    pub fn var_id(&self, index: usize) -> VarId {
        assert!(index < self.vars.len(), "variable index out of range");
        VarId(index)
    }

    /// Restrict an existing variable to integer values.
    pub fn mark_integer(&mut self, v: VarId) {
        self.vars[v.0].integer = true;
    }

    /// Add the linear constraint `sum(coef * var) cmp rhs`.
    ///
    /// Repeated variables in `terms` are summed. Zero coefficients are
    /// dropped.
    pub fn add_con(
        &mut self,
        name: impl Into<String>,
        terms: &[(VarId, f64)],
        cmp: Cmp,
        rhs: f64,
    ) -> ConId {
        assert!(rhs.is_finite(), "constraint rhs must be finite (omit unbounded rows)");
        let row = self.cons.len();
        self.cons.push(Constraint { name: name.into(), cmp, rhs });
        // Aggregate duplicates before inserting into the columns.
        let mut sorted: Vec<(usize, f64)> = terms.iter().map(|&(v, c)| (v.0, c)).collect();
        sorted.sort_unstable_by_key(|&(v, _)| v);
        let mut i = 0;
        while i < sorted.len() {
            let v = sorted[i].0;
            let mut coef = 0.0;
            while i < sorted.len() && sorted[i].0 == v {
                coef += sorted[i].1;
                i += 1;
            }
            assert!(!coef.is_nan(), "NaN coefficient in constraint");
            if coef != 0.0 {
                assert!(v < self.vars.len(), "constraint references unknown variable");
                self.cols[v].push((row, coef));
            }
        }
        ConId(row)
    }

    /// Change a variable's bounds (e.g. to fix a rounded binary, or to
    /// branch in branch-and-bound).
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        assert!(lb <= ub, "set_bounds: {lb} > {ub}");
        self.vars[v.0].lb = lb;
        self.vars[v.0].ub = ub;
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.0].lb, self.vars[v.0].ub)
    }

    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0].name
    }

    pub fn var_is_integer(&self, v: VarId) -> bool {
        self.vars[v.0].integer
    }

    pub fn integer_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars.iter().enumerate().filter(|(_, v)| v.integer).map(|(i, _)| VarId(i))
    }

    /// Evaluate the objective at a point (length `num_vars`).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, xi)| v.obj * xi).sum()
    }

    /// Row activity `A_i · x` for constraint `c`.
    pub fn row_activity(&self, c: ConId, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (j, col) in self.cols.iter().enumerate() {
            for &(row, coef) in col {
                if row == c.0 {
                    acc += coef * x[j];
                }
            }
        }
        acc
    }

    /// Maximum violation of any constraint or bound at `x`.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for (j, v) in self.vars.iter().enumerate() {
            worst = worst.max(v.lb - x[j]).max(x[j] - v.ub);
        }
        let mut act = vec![0.0; self.cons.len()];
        for (j, col) in self.cols.iter().enumerate() {
            for &(row, coef) in col {
                act[row] += coef * x[j];
            }
        }
        for (i, con) in self.cons.iter().enumerate() {
            let viol = match con.cmp {
                Cmp::Le => act[i] - con.rhs,
                Cmp::Ge => con.rhs - act[i],
                Cmp::Eq => (act[i] - con.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} problem: {} vars ({} integer), {} constraints",
            match self.sense {
                Sense::Min => "min",
                Sense::Max => "max",
            },
            self.vars.len(),
            self.vars.iter().filter(|v| v.integer).count(),
            self.cons.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let mut p = Problem::new(Sense::Max);
        let x = p.add_var("x", 0.0, 10.0, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
        let c = p.add_con("cap", &[(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_cons(), 1);
        assert_eq!(p.objective_value(&[1.0, 2.0]), 5.0);
        assert_eq!(p.row_activity(c, &[1.0, 2.0]), 3.0);
        assert_eq!(p.var_name(x), "x");
        assert_eq!(p.var_name(y), "y");
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut p = Problem::new(Sense::Min);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        let c = p.add_con("dup", &[(x, 1.0), (x, 2.0)], Cmp::Le, 3.0);
        assert_eq!(p.row_activity(c, &[1.0]), 3.0);
    }

    #[test]
    fn zero_coefficients_dropped() {
        let mut p = Problem::new(Sense::Min);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        let y = p.add_var("y", 0.0, 1.0, 1.0);
        p.add_con("z", &[(x, 0.0), (y, 1.0)], Cmp::Le, 1.0);
        assert!(p.cols[x.0].is_empty());
        assert_eq!(p.cols[y.0].len(), 1);
    }

    #[test]
    fn max_violation_flags_bound_and_row_violations() {
        let mut p = Problem::new(Sense::Min);
        let x = p.add_var("x", 0.0, 1.0, 0.0);
        p.add_con("c", &[(x, 1.0)], Cmp::Ge, 2.0);
        // x = 3 violates ub by 2; row satisfied.
        assert!((p.max_violation(&[3.0]) - 2.0).abs() < 1e-12);
        // x = 0.5 feasible for bounds, violates row by 1.5.
        assert!((p.max_violation(&[0.5]) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let mut p = Problem::new(Sense::Min);
        p.add_var("x", 2.0, 1.0, 0.0);
    }
}
