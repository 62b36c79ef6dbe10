//! The GProb intermediate representation.
//!
//! GProb (Section 3.2 of the paper) is an expression language with local
//! bindings, conditionals, state-annotated loops, and the probabilistic
//! constructs `sample`, `observe` and `factor`. The compiler emits programs
//! in continuation-passing style, which in this IR shows up as each binding
//! form carrying its continuation (`body`).
//!
//! Deterministic sub-expressions reuse the Stan expression AST
//! ([`stan_frontend::ast::Expr`]) — exactly as the paper's GProb grammar
//! embeds Stan expressions.

use stan_frontend::ast::{BlockBody, Decl, Expr, FunDecl, NetworkDecl};

/// A distribution call `dist(args)` together with the shape of the value the
/// site produces (empty for scalars). The shape is used when sampling
/// parameters with non-scalar types (`vector[N] beta`, `real theta[J]`, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct DistCall {
    /// Distribution name (Stan spelling, e.g. `"normal"`, `"improper_uniform"`).
    pub name: String,
    /// Argument expressions.
    pub args: Vec<Expr>,
    /// Shape expressions of the sampled value (row-major, outermost first).
    pub shape: Vec<Expr>,
}

impl DistCall {
    /// A scalar-shaped distribution call.
    pub fn new(name: impl Into<String>, args: Vec<Expr>) -> Self {
        DistCall {
            name: name.into(),
            args,
            shape: Vec::new(),
        }
    }

    /// A distribution call producing a value of the given shape.
    pub fn with_shape(name: impl Into<String>, args: Vec<Expr>, shape: Vec<Expr>) -> Self {
        DistCall {
            name: name.into(),
            args,
            shape,
        }
    }
}

/// The kind of a GProb loop.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopKind {
    /// `for (var in lo:hi)`
    Range {
        /// Loop variable.
        var: String,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
    },
    /// `for (var in collection)`
    ForEach {
        /// Loop variable.
        var: String,
        /// Collection expression.
        collection: Expr,
    },
    /// `while (cond)`
    While {
        /// Condition.
        cond: Expr,
    },
}

/// A GProb expression in continuation-passing form.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum GExpr {
    /// `return(e)` — the final value of the program or of a loop body.
    Return(Expr),
    /// `return(())`.
    #[default]
    Unit,
    /// `let name = default(decl) in body` — a Stan local declaration carried
    /// through compilation so the runtime can build the default-shaped value.
    LetDecl {
        /// The original declaration (type, sizes, optional initializer).
        decl: Decl,
        /// Continuation.
        body: Box<GExpr>,
    },
    /// `let name = return(value) in body` — deterministic binding.
    LetDet {
        /// Bound name.
        name: String,
        /// Value expression.
        value: Expr,
        /// Continuation.
        body: Box<GExpr>,
    },
    /// `let name[indices] = value in body` — functional array update.
    LetIndexed {
        /// Updated variable.
        name: String,
        /// Index expressions.
        indices: Vec<Expr>,
        /// New cell value.
        value: Expr,
        /// Continuation.
        body: Box<GExpr>,
    },
    /// `let name = sample(dist) in body`.
    LetSample {
        /// Site / variable name.
        name: String,
        /// The distribution sampled from.
        dist: DistCall,
        /// Continuation.
        body: Box<GExpr>,
    },
    /// `let () = observe(dist, value) in body`.
    Observe {
        /// The observed distribution.
        dist: DistCall,
        /// The observed value.
        value: Expr,
        /// Continuation.
        body: Box<GExpr>,
    },
    /// `let () = factor(value) in body`.
    Factor {
        /// Log-score increment.
        value: Expr,
        /// Continuation.
        body: Box<GExpr>,
    },
    /// `if (cond) then_branch else else_branch` — the continuation has been
    /// pushed into both branches by the compiler (Figure 7).
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Box<GExpr>,
        /// Else branch.
        else_branch: Box<GExpr>,
    },
    /// `let state = loop(...) { loop_body } in body` — a state-annotated loop
    /// (the `for_X` / `while_X` forms of the paper).
    LetLoop {
        /// Loop kind and header.
        kind: LoopKind,
        /// The variables updated by the loop body (`lhs(stmt)`).
        state: Vec<String>,
        /// The loop body (ends with `Return` of the state tuple).
        loop_body: Box<GExpr>,
        /// Continuation after the loop.
        body: Box<GExpr>,
    },
}

impl GExpr {
    /// Number of `sample` sites syntactically present in the expression.
    pub fn count_samples(&self) -> usize {
        self.fold(&mut |e, acc: usize| acc + usize::from(matches!(e, GExpr::LetSample { .. })))
    }

    /// Number of `observe` sites syntactically present in the expression.
    pub fn count_observes(&self) -> usize {
        self.fold(&mut |e, acc: usize| acc + usize::from(matches!(e, GExpr::Observe { .. })))
    }

    /// Collects the names of all `sample` sites in order of appearance.
    pub fn sample_sites(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let GExpr::LetSample { name, .. } = e {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Visits every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&GExpr)) {
        f(self);
        match self {
            GExpr::Return(_) | GExpr::Unit => {}
            GExpr::LetDecl { body, .. }
            | GExpr::LetDet { body, .. }
            | GExpr::LetIndexed { body, .. }
            | GExpr::LetSample { body, .. }
            | GExpr::Observe { body, .. }
            | GExpr::Factor { body, .. } => body.visit(f),
            GExpr::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.visit(f);
                else_branch.visit(f);
            }
            GExpr::LetLoop {
                loop_body, body, ..
            } => {
                loop_body.visit(f);
                body.visit(f);
            }
        }
    }

    fn fold<A: Copy + Default>(&self, f: &mut impl FnMut(&GExpr, A) -> A) -> A {
        let mut acc = A::default();
        self.visit(&mut |e| {
            acc = f(e, acc);
        });
        acc
    }
}

/// Metadata about one model parameter: its shape and domain constraint.
///
/// Bounds are Stan expressions evaluated against the data environment when
/// the model is instantiated (they may depend on data but not on other
/// parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamInfo {
    /// Parameter name.
    pub name: String,
    /// Shape expressions (array dims, then vector/matrix sizes), empty for a
    /// scalar.
    pub shape: Vec<Expr>,
    /// Lower bound, if declared.
    pub lower: Option<Expr>,
    /// Upper bound, if declared.
    pub upper: Option<Expr>,
}

impl ParamInfo {
    /// A scalar unconstrained parameter.
    pub fn scalar(name: impl Into<String>) -> Self {
        ParamInfo {
            name: name.into(),
            shape: Vec::new(),
            lower: None,
            upper: None,
        }
    }
}

/// A complete compiled GProb program: the model body plus the side tables the
/// runtime needs (data declarations, parameter table, pre/post-processing
/// blocks, user functions, DeepStan guide).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GProbProgram {
    /// Model name (used for diagnostics and code generation).
    pub name: String,
    /// Data declarations from the Stan program.
    pub data: Vec<Decl>,
    /// Parameter table (shapes and constraints).
    pub params: Vec<ParamInfo>,
    /// User-defined functions (interpreted, not inlined).
    pub functions: Vec<FunDecl>,
    /// Network declarations (DeepStan).
    pub networks: Vec<NetworkDecl>,
    /// The `transformed data` block, run once before inference.
    pub transformed_data: Option<BlockBody>,
    /// The compiled model body (parameter sampling, observations, return).
    pub body: GExpr,
    /// The `generated quantities` block (with `transformed parameters`
    /// inlined), run per posterior draw.
    pub generated_quantities: Option<BlockBody>,
    /// Names declared by the *source* `generated quantities` block (without
    /// the inlined transformed-parameters prefix) — the output columns of
    /// per-draw generated-quantities evaluation. Empty when the compiler did
    /// not record them (hand-built programs); consumers then fall back to
    /// every declaration in the combined block.
    pub gq_outputs: Vec<String>,
    /// Guide parameter table (DeepStan `guide parameters`), laid out like
    /// [`GProbProgram::params`].
    pub guide_params: Vec<ParamInfo>,
    /// Compiled guide body (DeepStan `guide`), generated with the generative
    /// scheme.
    pub guide_body: Option<GExpr>,
}

impl GProbProgram {
    /// Names of all parameters.
    pub fn parameter_names(&self) -> Vec<&str> {
        self.params.iter().map(|p| p.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin_body() -> GExpr {
        GExpr::LetSample {
            name: "z".into(),
            dist: DistCall::new("beta", vec![Expr::RealLit(1.0), Expr::RealLit(1.0)]),
            body: Box::new(GExpr::Observe {
                dist: DistCall::new("bernoulli", vec![Expr::var("z")]),
                value: Expr::var("x"),
                body: Box::new(GExpr::Return(Expr::var("z"))),
            }),
        }
    }

    #[test]
    fn counts_and_site_names() {
        let b = coin_body();
        assert_eq!(b.count_samples(), 1);
        assert_eq!(b.count_observes(), 1);
        assert_eq!(b.sample_sites(), vec!["z".to_string()]);
    }

    #[test]
    fn visit_reaches_loop_bodies_and_branches() {
        let e = GExpr::LetLoop {
            kind: LoopKind::Range {
                var: "i".into(),
                lo: Expr::IntLit(1),
                hi: Expr::IntLit(3),
            },
            state: vec![],
            loop_body: Box::new(GExpr::If {
                cond: Expr::IntLit(1),
                then_branch: Box::new(coin_body()),
                else_branch: Box::new(GExpr::Unit),
            }),
            body: Box::new(GExpr::Unit),
        };
        assert_eq!(e.count_samples(), 1);
        assert_eq!(e.count_observes(), 1);
    }

    #[test]
    fn param_info_scalar_constructor() {
        let p = ParamInfo::scalar("mu");
        assert_eq!(p.name, "mu");
        assert!(p.shape.is_empty());
        assert!(p.lower.is_none() && p.upper.is_none());
    }
}
