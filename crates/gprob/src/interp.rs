//! The string-keyed probabilistic interpreter for GProb programs, kept as
//! the reference the slot-resolved runtime ([`crate::reval`]) is checked
//! against.
//!
//! It runs a GProb body in one mode, the density of Pyro's `trace` +
//! `replay` handlers: every `sample` site takes its value from a provided
//! trace (parameter assignment) and contributes its log-density to the
//! score; `observe` and `factor` contribute as usual. Environments are
//! `HashMap<String, Value>`, so every variable read hashes its name — the
//! cost the resolved runtime removes. The differential suites pin the
//! resolved density to this interpreter (through
//! [`crate::model::GModel::log_density_baseline`]) at 1e-12.

use minidiff::Real;

use crate::eval::{eval_expr, tilde_lpdf, write_indexed, EvalCtx};
use crate::ir::{DistCall, GExpr, LoopKind};
use crate::value::{Env, RuntimeError, Value};

/// The interpreter state.
pub struct Interp<'a, T: Real> {
    ctx: &'a EvalCtx<'a, T>,
    /// Values of the `sample` sites, keyed by site name.
    trace: &'a Env<T>,
    score: T,
}

impl<'a, T: Real> Interp<'a, T> {
    /// Creates an interpreter that reads `sample` sites from `trace`.
    pub fn new(ctx: &'a EvalCtx<'a, T>, trace: &'a Env<T>) -> Self {
        Interp {
            ctx,
            trace,
            score: T::from_f64(0.0),
        }
    }

    /// Runs a GProb body in the given (mutable) environment and returns its
    /// accumulated log-score (observations, factors, and sample densities).
    ///
    /// # Errors
    /// Propagates evaluation errors, unknown distributions, and missing trace
    /// values.
    pub fn run(&mut self, body: &GExpr, env: &mut Env<T>) -> Result<T, RuntimeError> {
        self.eval(body, env)?;
        Ok(self.score)
    }

    fn eval(&mut self, e: &GExpr, env: &mut Env<T>) -> Result<Value<T>, RuntimeError> {
        match e {
            GExpr::Unit => Ok(Value::Unit),
            GExpr::Return(expr) => eval_expr(expr, env, self.ctx),
            GExpr::LetDecl { decl, body } => {
                let v = match &decl.init {
                    Some(e) => eval_expr(e, env, self.ctx)?,
                    None => crate::eval::default_value(decl, env, self.ctx)?,
                };
                env.insert(decl.name.clone(), v);
                self.eval(body, env)
            }
            GExpr::LetDet { name, value, body } => {
                let v = eval_expr(value, env, self.ctx)?;
                env.insert(name.clone(), v);
                self.eval(body, env)
            }
            GExpr::LetIndexed {
                name,
                indices,
                value,
                body,
            } => {
                let v = eval_expr(value, env, self.ctx)?;
                write_indexed(name, indices, v, env, self.ctx)?;
                self.eval(body, env)
            }
            GExpr::LetSample { name, dist, body } => {
                let value = self.handle_sample(name, dist, env)?;
                // Reuse the existing binding's key allocation when present.
                match env.get_mut(name.as_str()) {
                    Some(slot) => *slot = value,
                    None => {
                        env.insert(name.clone(), value);
                    }
                }
                self.eval(body, env)
            }
            GExpr::Observe { dist, value, body } => {
                let observed = eval_expr(value, env, self.ctx)?;
                let args = self.eval_dist_args(dist, env)?;
                self.score = self.score + tilde_lpdf(&observed, &dist.name, &args)?;
                self.eval(body, env)
            }
            GExpr::Factor { value, body } => {
                let v = eval_expr(value, env, self.ctx)?;
                self.score = self.score + v.sum_as_real()?;
                self.eval(body, env)
            }
            GExpr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = eval_expr(cond, env, self.ctx)?.as_real()?;
                if c.value() != 0.0 {
                    self.eval(then_branch, env)
                } else {
                    self.eval(else_branch, env)
                }
            }
            GExpr::LetLoop {
                kind,
                state: _,
                loop_body,
                body,
            } => {
                match kind {
                    LoopKind::Range { var, lo, hi } => {
                        let lo = eval_expr(lo, env, self.ctx)?.as_int()?;
                        let hi = eval_expr(hi, env, self.ctx)?.as_int()?;
                        for i in lo..=hi {
                            // Clone the key only on the first iteration.
                            match env.get_mut(var) {
                                Some(slot) => *slot = Value::Int(i),
                                None => {
                                    env.insert(var.clone(), Value::Int(i));
                                }
                            }
                            self.eval(loop_body, env)?;
                        }
                        env.remove(var);
                    }
                    LoopKind::ForEach { var, collection } => {
                        let coll = eval_expr(collection, env, self.ctx)?;
                        for i in 1..=coll.len() as i64 {
                            let item = coll.index(i)?;
                            match env.get_mut(var) {
                                Some(slot) => *slot = item,
                                None => {
                                    env.insert(var.clone(), item);
                                }
                            }
                            self.eval(loop_body, env)?;
                        }
                        env.remove(var);
                    }
                    LoopKind::While { cond } => {
                        let mut iterations = 0usize;
                        loop {
                            let c = eval_expr(cond, env, self.ctx)?.as_real()?;
                            if c.value() == 0.0 {
                                break;
                            }
                            iterations += 1;
                            if iterations > 10_000_000 {
                                return Err(RuntimeError::new(
                                    "while loop exceeded the iteration budget",
                                ));
                            }
                            self.eval(loop_body, env)?;
                        }
                    }
                }
                self.eval(body, env)
            }
        }
    }

    fn eval_dist_args(&self, dist: &DistCall, env: &Env<T>) -> Result<Vec<Value<T>>, RuntimeError> {
        dist.args
            .iter()
            .map(|a| eval_expr(a, env, self.ctx))
            .collect()
    }

    fn handle_sample(
        &mut self,
        name: &str,
        dist: &DistCall,
        env: &mut Env<T>,
    ) -> Result<Value<T>, RuntimeError> {
        let args = self.eval_dist_args(dist, env)?;
        let value = self.trace.get(name).cloned().ok_or_else(|| {
            RuntimeError::new(format!("trace is missing a value for sample site `{name}`"))
        })?;
        self.score = self.score + tilde_lpdf(&value, &dist.name, &args)?;
        Ok(value)
    }
}

/// Scores a parameter trace against a GProb body: the sum of all `sample`
/// log-densities, `observe` log-densities and `factor` increments.
///
/// # Errors
/// Fails if the trace is missing a sample site or evaluation fails.
pub fn score_trace<T: Real>(
    body: &GExpr,
    data: &Env<T>,
    trace: &Env<T>,
) -> Result<T, RuntimeError> {
    let ctx = EvalCtx::empty();
    let mut env = data.clone();
    Interp::new(&ctx, trace).run(body, &mut env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stan_frontend::ast::Expr;

    fn coin_comprehensive() -> GExpr {
        // let z = sample(uniform(0,1)) in
        // let () = observe(beta(1,1), z) in
        // for (i in 1:N) observe(bernoulli(z), x[i]) ; return z
        GExpr::LetSample {
            name: "z".into(),
            dist: DistCall::new("uniform", vec![Expr::RealLit(0.0), Expr::RealLit(1.0)]),
            body: Box::new(GExpr::Observe {
                dist: DistCall::new("beta", vec![Expr::RealLit(1.0), Expr::RealLit(1.0)]),
                value: Expr::var("z"),
                body: Box::new(GExpr::LetLoop {
                    kind: LoopKind::Range {
                        var: "i".into(),
                        lo: Expr::IntLit(1),
                        hi: Expr::var("N"),
                    },
                    state: vec![],
                    loop_body: Box::new(GExpr::Observe {
                        dist: DistCall::new("bernoulli", vec![Expr::var("z")]),
                        value: Expr::Index(Box::new(Expr::var("x")), vec![Expr::var("i")]),
                        body: Box::new(GExpr::Unit),
                    }),
                    body: Box::new(GExpr::Return(Expr::var("z"))),
                }),
            }),
        }
    }

    fn coin_data() -> Env<f64> {
        let mut env = Env::new();
        env.insert("N".into(), Value::Int(4));
        env.insert("x".into(), Value::IntArray(vec![1, 0, 1, 1]));
        env
    }

    #[test]
    fn trace_mode_scores_the_coin_model() {
        let body = coin_comprehensive();
        let data = coin_data();
        let mut trace = Env::new();
        trace.insert("z".to_string(), Value::Real(0.7f64));
        let score = score_trace(&body, &data, &trace).unwrap();
        // uniform(0,1) lpdf = 0, beta(1,1) lpdf = 0, bernoulli: 3 heads, 1 tail
        let expect = 3.0 * 0.7f64.ln() + 0.3f64.ln();
        assert!((score - expect).abs() < 1e-12, "{score} vs {expect}");
    }

    #[test]
    fn trace_mode_errors_on_missing_site() {
        let body = coin_comprehensive();
        let data = coin_data();
        let err = score_trace::<f64>(&body, &data, &Env::new()).unwrap_err();
        assert!(err.message().contains("missing a value"));
    }

    #[test]
    fn factor_and_let_det_update_score_and_env() {
        let body = GExpr::LetDet {
            name: "a".into(),
            value: Expr::RealLit(2.5),
            body: Box::new(GExpr::Factor {
                value: Expr::var("a"),
                body: Box::new(GExpr::Return(Expr::var("a"))),
            }),
        };
        let score = score_trace::<f64>(&body, &Env::new(), &Env::new()).unwrap();
        assert_eq!(score, 2.5);
    }

    #[test]
    fn if_branches_select_on_condition() {
        let body = GExpr::If {
            cond: Expr::Binary(
                stan_frontend::ast::BinOp::Gt,
                Box::new(Expr::var("flag")),
                Box::new(Expr::IntLit(0)),
            ),
            then_branch: Box::new(GExpr::Factor {
                value: Expr::RealLit(1.0),
                body: Box::new(GExpr::Unit),
            }),
            else_branch: Box::new(GExpr::Factor {
                value: Expr::RealLit(-1.0),
                body: Box::new(GExpr::Unit),
            }),
        };
        let mut data = Env::new();
        data.insert("flag".into(), Value::Int(1));
        assert_eq!(score_trace::<f64>(&body, &data, &Env::new()).unwrap(), 1.0);
        data.insert("flag".into(), Value::Int(0));
        assert_eq!(score_trace::<f64>(&body, &data, &Env::new()).unwrap(), -1.0);
    }
}
