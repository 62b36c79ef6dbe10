//! The three compilation schemes from Stan to GProb.

use gprob::ir::{DistCall, GExpr, GProbProgram, LoopKind, ParamInfo};
use gprob::resolved::{resolve_program, ResolvedProgram};
use stan_frontend::ast::*;

use crate::error::CompileError;
use crate::features::analyze_features;

/// The compilation scheme to use (Section 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Naive generative translation (Section 2.1); fails on non-generative
    /// features.
    Generative,
    /// Comprehensive translation (Section 2.3); handles every Stan program.
    Comprehensive,
    /// Comprehensive translation followed by the sample/observe merge
    /// optimization (Section 4).
    Mixed,
}

impl Scheme {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Generative => "generative",
            Scheme::Comprehensive => "comprehensive",
            Scheme::Mixed => "mixed",
        }
    }
}

/// Compiles a Stan (or DeepStan) program to GProb using the given scheme.
///
/// # Errors
/// * The generative scheme fails on the non-generative features of Table 1.
/// * All schemes reject `ordered` / `simplex`-style constrained parameter
///   types that the backends do not support (mirroring the paper's reported
///   Pyro/NumPyro limitations).
pub fn compile(program: &Program, scheme: Scheme) -> Result<GProbProgram, CompileError> {
    let params = param_infos(&program.parameters)?;
    let param_names: Vec<String> = params.iter().map(|p| p.name.clone()).collect();

    // The compiled model: transformed parameters inlined before the model
    // statements (Section 3.3), ending with a return of the parameter tuple.
    let mut stmts: Vec<Stmt> = Vec::new();
    if let Some(tp) = &program.transformed_parameters {
        stmts.extend(tp.stmts.iter().cloned());
    }
    stmts.extend(program.model.stmts.iter().cloned());

    let return_expr = if param_names.is_empty() {
        GExpr::Unit
    } else {
        GExpr::Return(Expr::ArrayLit(
            param_names.iter().map(|n| Expr::var(n.clone())).collect(),
        ))
    };

    let body = match scheme {
        Scheme::Generative => {
            let report = analyze_features(program);
            if report.is_non_generative() {
                let mut reasons = Vec::new();
                if !report.left_expressions.is_empty() {
                    reasons.push("left expressions".to_string());
                }
                if !report.multiple_updates.is_empty() {
                    reasons.push(format!(
                        "multiple updates of {}",
                        report.multiple_updates.join(", ")
                    ));
                }
                if !report.implicit_priors.is_empty() {
                    reasons.push(format!(
                        "implicit priors for {}",
                        report.implicit_priors.join(", ")
                    ));
                }
                if report.uses_target_increment {
                    reasons.push("direct target += updates".to_string());
                }
                return Err(CompileError::in_scheme(
                    format!("model uses non-generative features: {}", reasons.join("; ")),
                    "generative",
                ));
            }
            let ctx = Ctx {
                scheme,
                params: &params,
                param_names: &param_names,
            };
            compile_stmts(&stmts, return_expr, &ctx)?
        }
        Scheme::Comprehensive | Scheme::Mixed => {
            let ctx = Ctx {
                scheme: Scheme::Comprehensive,
                params: &params,
                param_names: &param_names,
            };
            let observed = compile_stmts(&stmts, return_expr, &ctx)?;
            // Prepend the prior initialization of every parameter (Figure 6).
            let mut body = observed;
            for p in params.iter().rev() {
                body = GExpr::LetSample {
                    name: p.name.clone(),
                    dist: prior_dist(p),
                    body: Box::new(body),
                };
            }
            if scheme == Scheme::Mixed {
                merge_sample_observe(body, &params)
            } else {
                body
            }
        }
    };

    // Generated quantities: transformed parameters are inlined again because
    // generated quantities may refer to them (Section 3.3).
    let generated_quantities = program.generated_quantities.as_ref().map(|gq| {
        let mut stmts = Vec::new();
        if let Some(tp) = &program.transformed_parameters {
            stmts.extend(tp.stmts.iter().cloned());
        }
        stmts.extend(gq.stmts.iter().cloned());
        BlockBody { stmts }
    });
    // The output columns of per-draw GQ evaluation are the names the source
    // block itself declares — the replayed transformed parameters are
    // scaffolding, not outputs.
    let gq_outputs: Vec<String> = program
        .generated_quantities
        .as_ref()
        .map(|gq| gq.decls().iter().map(|d| d.name.clone()).collect())
        .unwrap_or_default();

    // DeepStan guide: compiled with the generative scheme (the guide must be
    // directly sampleable, Section 5.1).
    let guide_body = match &program.guide {
        Some(guide) => Some(compile_guide(guide, &params)?),
        None => None,
    };

    Ok(GProbProgram {
        name: String::new(),
        data: program.data.clone(),
        params,
        functions: program.functions.clone(),
        networks: program.networks.clone(),
        transformed_data: program.transformed_data.clone(),
        body,
        generated_quantities,
        gq_outputs,
        guide_params: param_infos(&program.guide_parameters)?,
        guide_body,
    })
}

/// Compiles a Stan program to GProb *and* lowers it to the slot-resolved
/// form consumed by the frame-based runtime: every variable, parameter and
/// user function is assigned a dense slot, so downstream density evaluation
/// never re-looks names up by string.
///
/// # Errors
/// Same as [`compile`]; the resolution pass itself cannot fail (unbound
/// names surface as runtime errors with their original spelling).
pub fn compile_resolved(
    program: &Program,
    scheme: Scheme,
) -> Result<(GProbProgram, ResolvedProgram), CompileError> {
    let compiled = compile(program, scheme)?;
    let resolved = resolve_program(&compiled);
    Ok((compiled, resolved))
}

struct Ctx<'a> {
    scheme: Scheme,
    params: &'a [ParamInfo],
    param_names: &'a [String],
}

/// Extracts a parameter table (of the `parameters` or the `guide parameters`
/// block): shapes (array dims then container size) and constraint bounds.
fn param_infos(decls: &[Decl]) -> Result<Vec<ParamInfo>, CompileError> {
    let mut params = Vec::new();
    for d in decls {
        let mut shape: Vec<Expr> = d.dims.clone();
        match &d.ty {
            BaseType::Int => {
                return Err(CompileError::new(format!(
                    "parameter `{}` has type int; Stan parameters must be continuous",
                    d.name
                )))
            }
            BaseType::Real => {}
            BaseType::Vector(n) | BaseType::RowVector(n) => shape.push((**n).clone()),
            BaseType::Matrix(r, c) => {
                shape.push((**r).clone());
                shape.push((**c).clone());
            }
            BaseType::Simplex(_)
            | BaseType::Ordered(_)
            | BaseType::PositiveOrdered(_)
            | BaseType::UnitVector(_)
            | BaseType::CovMatrix(_)
            | BaseType::CorrMatrix(_)
            | BaseType::CholeskyFactorCorr(_) => {
                return Err(CompileError::new(format!(
                "constrained parameter type of `{}` is not supported by the Pyro/NumPyro backends",
                d.name
            )))
            }
        }
        params.push(ParamInfo {
            name: d.name.clone(),
            shape,
            lower: d.constraint.lower.clone(),
            upper: d.constraint.upper.clone(),
        });
    }
    Ok(params)
}

/// The prior distribution the comprehensive scheme assigns to a parameter
/// (Figure 6): uniform on a bounded domain, improper uniform otherwise.
fn prior_dist(p: &ParamInfo) -> DistCall {
    match (&p.lower, &p.upper) {
        (Some(lo), Some(hi)) => {
            DistCall::with_shape("uniform", vec![lo.clone(), hi.clone()], p.shape.clone())
        }
        (Some(lo), None) => DistCall::with_shape(
            "improper_uniform",
            vec![lo.clone(), Expr::RealLit(f64::INFINITY)],
            p.shape.clone(),
        ),
        (None, Some(hi)) => DistCall::with_shape(
            "improper_uniform",
            vec![Expr::RealLit(f64::NEG_INFINITY), hi.clone()],
            p.shape.clone(),
        ),
        (None, None) => DistCall::with_shape(
            "improper_uniform",
            vec![
                Expr::RealLit(f64::NEG_INFINITY),
                Expr::RealLit(f64::INFINITY),
            ],
            p.shape.clone(),
        ),
    }
}

/// Compiles a statement sequence with the given continuation (Figure 7).
fn compile_stmts(stmts: &[Stmt], k: GExpr, ctx: &Ctx) -> Result<GExpr, CompileError> {
    let mut body = k;
    for s in stmts.iter().rev() {
        body = compile_stmt(s, body, ctx)?;
    }
    Ok(body)
}

fn compile_stmt(stmt: &Stmt, k: GExpr, ctx: &Ctx) -> Result<GExpr, CompileError> {
    match stmt {
        Stmt::Skip | Stmt::Print(_) => Ok(k),
        Stmt::Break | Stmt::Continue => Err(CompileError::new(
            "break/continue inside probabilistic code are not supported by the backends",
        )),
        Stmt::Return(_) => Err(CompileError::new(
            "return statements are only allowed in user-defined functions",
        )),
        Stmt::Reject(_) => Ok(GExpr::Factor {
            value: Expr::RealLit(f64::NEG_INFINITY),
            body: Box::new(k),
        }),
        Stmt::LocalDecl(d) => Ok(GExpr::LetDecl {
            decl: d.clone(),
            body: Box::new(k),
        }),
        Stmt::Assign { lhs, op, rhs } => {
            let rhs = match op {
                AssignOp::Assign => rhs.clone(),
                _ => {
                    let read = if lhs.indices.is_empty() {
                        Expr::var(lhs.name.clone())
                    } else {
                        Expr::Index(Box::new(Expr::var(lhs.name.clone())), lhs.indices.clone())
                    };
                    let bop = match op {
                        AssignOp::AddAssign => BinOp::Add,
                        AssignOp::SubAssign => BinOp::Sub,
                        AssignOp::MulAssign => BinOp::Mul,
                        AssignOp::DivAssign => BinOp::Div,
                        AssignOp::Assign => unreachable!(),
                    };
                    Expr::Binary(bop, Box::new(read), Box::new(rhs.clone()))
                }
            };
            if lhs.indices.is_empty() {
                Ok(GExpr::LetDet {
                    name: lhs.name.clone(),
                    value: rhs,
                    body: Box::new(k),
                })
            } else {
                Ok(GExpr::LetIndexed {
                    name: lhs.name.clone(),
                    indices: lhs.indices.clone(),
                    value: rhs,
                    body: Box::new(k),
                })
            }
        }
        Stmt::TargetPlus(e) => Ok(GExpr::Factor {
            value: e.clone(),
            body: Box::new(k),
        }),
        Stmt::Tilde {
            lhs,
            dist,
            args,
            truncation,
        } => {
            if truncation.is_some() {
                return Err(CompileError::new(format!(
                    "truncated distribution `{dist}` is not supported by the Pyro/NumPyro backends"
                )));
            }
            let dist_call = DistCall::new(dist.clone(), args.clone());
            match ctx.scheme {
                Scheme::Generative => {
                    // Parameters become sample statements, data observations.
                    if let Expr::Var(name) = lhs {
                        if ctx.param_names.contains(name) {
                            return Ok(GExpr::LetSample {
                                name: name.clone(),
                                dist: with_param_shape(dist_call, name, ctx),
                                body: Box::new(k),
                            });
                        }
                    }
                    let root = lhs.lvalue_root();
                    if let Some(root) = root {
                        if ctx.param_names.iter().any(|p| p == root) {
                            return Err(CompileError::in_scheme(
                                format!(
                                    "cannot generatively translate an indexed update of parameter `{root}`"
                                ),
                                "generative",
                            ));
                        }
                    }
                    // Anything that is not a parameter (data, transformed
                    // data, or a deterministic local) is observed.
                    Ok(GExpr::Observe {
                        dist: dist_call,
                        value: lhs.clone(),
                        body: Box::new(k),
                    })
                }
                Scheme::Comprehensive | Scheme::Mixed => Ok(GExpr::Observe {
                    dist: dist_call,
                    value: lhs.clone(),
                    body: Box::new(k),
                }),
            }
        }
        Stmt::Block(stmts) => compile_stmts(stmts, k, ctx),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            // Figure 7: the continuation is pushed into both branches.
            let then_c = compile_stmt(then_branch, k.clone(), ctx)?;
            let else_c = match else_branch {
                Some(e) => compile_stmt(e, k, ctx)?,
                None => k,
            };
            Ok(GExpr::If {
                cond: cond.clone(),
                then_branch: Box::new(then_c),
                else_branch: Box::new(else_c),
            })
        }
        Stmt::ForRange { var, lo, hi, body } => {
            let state = body.assigned_names();
            let loop_body = compile_stmt(body, loop_return(&state), ctx)?;
            Ok(GExpr::LetLoop {
                kind: LoopKind::Range {
                    var: var.clone(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                },
                state,
                loop_body: Box::new(loop_body),
                body: Box::new(k),
            })
        }
        Stmt::ForEach {
            var,
            collection,
            body,
        } => {
            let state = body.assigned_names();
            let loop_body = compile_stmt(body, loop_return(&state), ctx)?;
            Ok(GExpr::LetLoop {
                kind: LoopKind::ForEach {
                    var: var.clone(),
                    collection: collection.clone(),
                },
                state,
                loop_body: Box::new(loop_body),
                body: Box::new(k),
            })
        }
        Stmt::While { cond, body } => {
            let state = body.assigned_names();
            let loop_body = compile_stmt(body, loop_return(&state), ctx)?;
            Ok(GExpr::LetLoop {
                kind: LoopKind::While { cond: cond.clone() },
                state,
                loop_body: Box::new(loop_body),
                body: Box::new(k),
            })
        }
    }
}

/// The `return(lhs(s))` continuation that closes a compiled loop body.
fn loop_return(state: &[String]) -> GExpr {
    if state.is_empty() {
        GExpr::Unit
    } else {
        GExpr::Return(Expr::ArrayLit(
            state.iter().map(|n| Expr::var(n.clone())).collect(),
        ))
    }
}

/// Attaches the declared shape of a parameter to a generative sample site so
/// vectorized priors (`theta ~ normal(0, 1)` with `theta` a vector) draw the
/// right number of components.
fn with_param_shape(mut dist: DistCall, name: &str, ctx: &Ctx) -> DistCall {
    if let Some(p) = ctx.params.iter().find(|p| p.name == name) {
        dist.shape = p.shape.clone();
    }
    dist
}

/// The support of a distribution as an optional `(lower, upper)` pair used by
/// the mixed scheme's merge check. `None` means "statically unknown".
fn dist_support(name: &str) -> Option<(f64, f64)> {
    match name {
        "normal" | "cauchy" | "student_t" | "double_exponential" | "logistic" => {
            Some((f64::NEG_INFINITY, f64::INFINITY))
        }
        "lognormal" | "gamma" | "inv_gamma" | "exponential" | "chi_square" => {
            Some((0.0, f64::INFINITY))
        }
        "beta" => Some((0.0, 1.0)),
        _ => None,
    }
}

fn constraint_bounds(p: &ParamInfo) -> Option<(f64, f64)> {
    let bound = |e: &Option<Expr>, default: f64| -> Option<f64> {
        match e {
            None => Some(default),
            Some(Expr::RealLit(v)) => Some(*v),
            Some(Expr::IntLit(v)) => Some(*v as f64),
            Some(Expr::Unary(UnOp::Neg, inner)) => match **inner {
                Expr::RealLit(v) => Some(-v),
                Expr::IntLit(v) => Some(-(v as f64)),
                _ => None,
            },
            _ => None,
        }
    };
    Some((
        bound(&p.lower, f64::NEG_INFINITY)?,
        bound(&p.upper, f64::INFINITY)?,
    ))
}

/// The mixed-scheme optimization (Section 4): when a parameter's first and
/// only probabilistic use is an `observe(D, param)` whose support matches the
/// parameter's declared domain, drop the uniform initialization and turn the
/// observation into `sample(D)`.
///
/// Placement: if the parameter is not read between its initialization and
/// the observation, the sample site replaces the observation in place. If it
/// *is* read earlier (the `transformed parameters` block of a non-centered
/// model reads `theta_trans` before `theta_trans ~ normal(0, 1)` appears),
/// the merged sample site is instead *hoisted* to the position of the
/// dropped initialization — legal exactly when the observation's arguments
/// are evaluable there, i.e. reference only data and earlier parameters,
/// nothing assigned inside the body. Otherwise the parameter keeps its
/// comprehensive-scheme translation.
fn merge_sample_observe(body: GExpr, params: &[ParamInfo]) -> GExpr {
    let mut result = body;
    let assigned = assigned_names(&result);
    for (p_idx, p) in params.iter().enumerate() {
        let Some(cstr) = constraint_bounds(p) else {
            continue;
        };
        // Count observations of the bare parameter at the top level of the
        // continuation chain and make sure there is exactly one.
        let mut top_level_obs = 0usize;
        let mut any_obs = 0usize;
        let mut obs_dist: Option<DistCall> = None;
        result.visit(&mut |e| {
            if let GExpr::Observe { value, .. } = e {
                if matches!(value, Expr::Var(n) if n == &p.name) {
                    any_obs += 1;
                }
            }
        });
        walk_top_level(&result, &mut |e| {
            if let GExpr::Observe { value, dist, .. } = e {
                if matches!(value, Expr::Var(n) if n == &p.name)
                    && dist_support(&dist.name) == Some(cstr)
                    && !dist.args.iter().any(|a| a.variables().contains(&p.name))
                {
                    top_level_obs += 1;
                    obs_dist = Some(dist.clone());
                }
            }
        });
        if any_obs != 1 || top_level_obs != 1 {
            continue;
        }
        if !read_before_observe(&result, &p.name) {
            result = apply_merge(result, p);
        } else if let Some(dist) = obs_dist {
            // The parameter is read before its observation. The sample site
            // can still be hoisted to the initialization position when its
            // arguments are evaluable there: only data or parameters sampled
            // earlier, never a name assigned in the body (transformed
            // parameters, loop variables) or a later parameter.
            let arg_vars: Vec<String> = dist.args.iter().flat_map(|a| a.variables()).collect();
            let hoistable = arg_vars.iter().all(|v| {
                !assigned.contains(v)
                    && params
                        .iter()
                        .position(|q| &q.name == v)
                        .is_none_or(|j| j < p_idx)
            });
            if hoistable {
                result = apply_merge_hoisted(result, p, &dist);
            }
        }
    }
    result
}

/// Every name the body assigns (deterministic lets, indexed updates, local
/// declarations and loop variables) — names whose value at the top of the
/// chain differs from their value later, so hoisted sample sites must not
/// reference them.
fn assigned_names(body: &GExpr) -> Vec<String> {
    let mut out = Vec::new();
    body.visit(&mut |e| {
        let name = match e {
            GExpr::LetDecl { decl, .. } => Some(decl.name.clone()),
            GExpr::LetDet { name, .. } | GExpr::LetIndexed { name, .. } => Some(name.clone()),
            GExpr::LetLoop { kind, .. } => match kind {
                LoopKind::Range { var, .. } | LoopKind::ForEach { var, .. } => Some(var.clone()),
                LoopKind::While { .. } => None,
            },
            _ => None,
        };
        if let Some(n) = name {
            if !out.contains(&n) {
                out.push(n);
            }
        }
    });
    out
}

/// Replaces the parameter's prior-initialization sample site with
/// `sample(dist)` (shape-annotated) and removes its observation — the
/// hoisting variant of [`apply_merge`], used when the parameter is read
/// between the two sites.
fn apply_merge_hoisted(e: GExpr, p: &ParamInfo, dist: &DistCall) -> GExpr {
    match e {
        GExpr::LetSample {
            name,
            dist: _,
            body,
        } if name == p.name => GExpr::LetSample {
            name,
            dist: DistCall::with_shape(dist.name.clone(), dist.args.clone(), p.shape.clone()),
            body: Box::new(apply_merge_hoisted(*body, p, dist)),
        },
        GExpr::Observe {
            dist: obs,
            value,
            body,
        } => {
            if matches!(&value, Expr::Var(n) if n == &p.name) {
                apply_merge_hoisted(*body, p, dist)
            } else {
                GExpr::Observe {
                    dist: obs,
                    value,
                    body: Box::new(apply_merge_hoisted(*body, p, dist)),
                }
            }
        }
        GExpr::LetDecl { decl, body } => GExpr::LetDecl {
            decl,
            body: Box::new(apply_merge_hoisted(*body, p, dist)),
        },
        GExpr::LetDet { name, value, body } => GExpr::LetDet {
            name,
            value,
            body: Box::new(apply_merge_hoisted(*body, p, dist)),
        },
        GExpr::LetIndexed {
            name,
            indices,
            value,
            body,
        } => GExpr::LetIndexed {
            name,
            indices,
            value,
            body: Box::new(apply_merge_hoisted(*body, p, dist)),
        },
        GExpr::LetSample {
            name,
            dist: d,
            body,
        } => GExpr::LetSample {
            name,
            dist: d,
            body: Box::new(apply_merge_hoisted(*body, p, dist)),
        },
        GExpr::Factor { value, body } => GExpr::Factor {
            value,
            body: Box::new(apply_merge_hoisted(*body, p, dist)),
        },
        GExpr::LetLoop {
            kind,
            state,
            loop_body,
            body,
        } => GExpr::LetLoop {
            kind,
            state,
            loop_body,
            body: Box::new(apply_merge_hoisted(*body, p, dist)),
        },
        other @ (GExpr::If { .. } | GExpr::Return(_) | GExpr::Unit) => other,
    }
}

/// Walks only the spine of the continuation chain (no loop bodies or
/// conditional branches).
fn walk_top_level(e: &GExpr, f: &mut impl FnMut(&GExpr)) {
    f(e);
    match e {
        GExpr::LetDecl { body, .. }
        | GExpr::LetDet { body, .. }
        | GExpr::LetIndexed { body, .. }
        | GExpr::LetSample { body, .. }
        | GExpr::Observe { body, .. }
        | GExpr::Factor { body, .. }
        | GExpr::LetLoop { body, .. } => walk_top_level(body, f),
        GExpr::If { .. } | GExpr::Return(_) | GExpr::Unit => {}
    }
}

/// Whether the parameter is read by any expression before the observation
/// that samples it (scanning the top-level chain).
fn read_before_observe(e: &GExpr, param: &str) -> bool {
    fn uses(expr: &Expr, param: &str) -> bool {
        expr.variables().iter().any(|v| v == param)
    }
    let mut current = e;
    loop {
        match current {
            GExpr::Observe { dist, value, body } => {
                if matches!(value, Expr::Var(n) if n == param) {
                    return false; // reached the merge site first
                }
                if uses(value, param) || dist.args.iter().any(|a| uses(a, param)) {
                    return true;
                }
                current = body;
            }
            GExpr::LetSample { dist, body, name } => {
                if name != param && dist.args.iter().any(|a| uses(a, param)) {
                    return true;
                }
                current = body;
            }
            GExpr::LetDet { value, body, .. } => {
                if uses(value, param) {
                    return true;
                }
                current = body;
            }
            GExpr::LetIndexed {
                value,
                indices,
                body,
                ..
            } => {
                if uses(value, param) || indices.iter().any(|i| uses(i, param)) {
                    return true;
                }
                current = body;
            }
            GExpr::LetDecl { decl, body } => {
                if decl.init.as_ref().is_some_and(|i| uses(i, param)) {
                    return true;
                }
                current = body;
            }
            GExpr::Factor { value, body } => {
                if uses(value, param) {
                    return true;
                }
                current = body;
            }
            GExpr::LetLoop {
                loop_body,
                body,
                kind,
                ..
            } => {
                // Conservatively treat any use inside the loop as a read.
                let mut used = false;
                loop_body.visit(&mut |sub| {
                    let exprs: Vec<&Expr> = match sub {
                        GExpr::Observe { dist, value, .. } => {
                            let mut v: Vec<&Expr> = dist.args.iter().collect();
                            v.push(value);
                            v
                        }
                        GExpr::Factor { value, .. } | GExpr::LetDet { value, .. } => vec![value],
                        GExpr::LetIndexed { value, indices, .. } => {
                            let mut v: Vec<&Expr> = indices.iter().collect();
                            v.push(value);
                            v
                        }
                        GExpr::LetDecl { decl, .. } => {
                            let mut v: Vec<&Expr> = decl.dims.iter().collect();
                            v.extend(decl.init.as_ref());
                            v
                        }
                        GExpr::LetSample { dist, .. } => dist.args.iter().collect(),
                        GExpr::If { cond, .. } => vec![cond],
                        GExpr::Return(e) => vec![e],
                        // Nested loop *headers* read too (bodies are reached
                        // by the visit recursion itself).
                        GExpr::LetLoop { kind, .. } => match kind {
                            LoopKind::Range { lo, hi, .. } => vec![lo, hi],
                            LoopKind::ForEach { collection, .. } => vec![collection],
                            LoopKind::While { cond } => vec![cond],
                        },
                        GExpr::Unit => vec![],
                    };
                    if exprs.iter().any(|ex| uses(ex, param)) {
                        used = true;
                    }
                });
                let header_uses = match kind {
                    LoopKind::Range { lo, hi, .. } => uses(lo, param) || uses(hi, param),
                    LoopKind::ForEach { collection, .. } => uses(collection, param),
                    LoopKind::While { cond } => uses(cond, param),
                };
                if used || header_uses {
                    return true;
                }
                current = body;
            }
            GExpr::If { .. } | GExpr::Return(_) | GExpr::Unit => return false,
        }
    }
}

/// Removes the uniform initialization of `param` and rewrites its observation
/// into a sample site.
fn apply_merge(e: GExpr, p: &ParamInfo) -> GExpr {
    match e {
        GExpr::LetSample {
            name,
            dist: _,
            body,
        } if name == p.name => {
            // Drop the initialization; continue rewriting below.
            apply_merge(*body, p)
        }
        GExpr::Observe { dist, value, body } if matches!(&value, Expr::Var(n) if n == &p.name) => {
            GExpr::LetSample {
                name: p.name.clone(),
                dist: DistCall::with_shape(dist.name, dist.args, p.shape.clone()),
                body,
            }
        }
        GExpr::LetDecl { decl, body } => GExpr::LetDecl {
            decl,
            body: Box::new(apply_merge(*body, p)),
        },
        GExpr::LetDet { name, value, body } => GExpr::LetDet {
            name,
            value,
            body: Box::new(apply_merge(*body, p)),
        },
        GExpr::LetIndexed {
            name,
            indices,
            value,
            body,
        } => GExpr::LetIndexed {
            name,
            indices,
            value,
            body: Box::new(apply_merge(*body, p)),
        },
        GExpr::LetSample { name, dist, body } => GExpr::LetSample {
            name,
            dist,
            body: Box::new(apply_merge(*body, p)),
        },
        GExpr::Observe { dist, value, body } => GExpr::Observe {
            dist,
            value,
            body: Box::new(apply_merge(*body, p)),
        },
        GExpr::Factor { value, body } => GExpr::Factor {
            value,
            body: Box::new(apply_merge(*body, p)),
        },
        GExpr::LetLoop {
            kind,
            state,
            loop_body,
            body,
        } => GExpr::LetLoop {
            kind,
            state,
            loop_body,
            body: Box::new(apply_merge(*body, p)),
        },
        other @ (GExpr::If { .. } | GExpr::Return(_) | GExpr::Unit) => other,
    }
}

/// Compiles a DeepStan guide with the generative scheme: every `~` statement
/// over a model parameter becomes a sample site; non-generative features are
/// rejected (the guide must describe a directly sampleable distribution).
fn compile_guide(guide: &BlockBody, params: &[ParamInfo]) -> Result<GExpr, CompileError> {
    let param_names: Vec<String> = params.iter().map(|p| p.name.clone()).collect();
    let ctx = Ctx {
        scheme: Scheme::Generative,
        params,
        param_names: &param_names,
    };
    let ret = if param_names.is_empty() {
        GExpr::Unit
    } else {
        GExpr::Return(Expr::ArrayLit(
            param_names.iter().map(|n| Expr::var(n.clone())).collect(),
        ))
    };
    compile_stmts(&guide.stmts, ret, &ctx).map_err(|e| {
        CompileError::in_scheme(
            format!("guide must be generative: {}", e.message()),
            "generative",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stan_frontend::parse_program;

    const COIN: &str = r#"
        data { int N; int<lower=0,upper=1> x[N]; }
        parameters { real<lower=0,upper=1> z; }
        model { z ~ beta(1, 1); for (i in 1:N) x[i] ~ bernoulli(z); }
    "#;

    fn compile_src(src: &str, scheme: Scheme) -> Result<GProbProgram, CompileError> {
        compile(&parse_program(src).unwrap(), scheme)
    }

    #[test]
    fn comprehensive_coin_matches_figure_2b() {
        let p = compile_src(COIN, Scheme::Comprehensive).unwrap();
        // z is sampled from uniform(0,1), then beta(1,1) and the bernoullis
        // are observations.
        assert_eq!(p.body.count_samples(), 1);
        assert_eq!(p.body.count_observes(), 2);
        match &p.body {
            GExpr::LetSample { name, dist, .. } => {
                assert_eq!(name, "z");
                assert_eq!(dist.name, "uniform");
            }
            other => panic!("expected prior sample first, got {other:?}"),
        }
    }

    #[test]
    fn generative_coin_matches_figure_2a() {
        let p = compile_src(COIN, Scheme::Generative).unwrap();
        match &p.body {
            GExpr::LetSample { name, dist, .. } => {
                assert_eq!(name, "z");
                assert_eq!(dist.name, "beta");
            }
            other => panic!("expected beta sample first, got {other:?}"),
        }
        assert_eq!(p.body.count_observes(), 1);
    }

    #[test]
    fn mixed_coin_recovers_the_generative_code() {
        // beta has support [0,1] which matches z's constraint, so the mixed
        // scheme merges the uniform initialization with the observation.
        let p = compile_src(COIN, Scheme::Mixed).unwrap();
        assert_eq!(p.body.count_samples(), 1);
        assert_eq!(p.body.count_observes(), 1);
        match &p.body {
            GExpr::LetSample { dist, .. } => assert_eq!(dist.name, "beta"),
            other => panic!("expected merged sample, got {other:?}"),
        }
    }

    #[test]
    fn mixed_does_not_merge_when_supports_differ() {
        // sigma is constrained positive but normal has support R: Stan
        // truncates implicitly, so the merge must NOT happen (Section 4).
        let src = "parameters { real<lower=0> sigma; } model { sigma ~ normal(0, 1); }";
        let p = compile_src(src, Scheme::Mixed).unwrap();
        match &p.body {
            GExpr::LetSample { dist, .. } => assert_eq!(dist.name, "improper_uniform"),
            other => panic!("expected improper_uniform prior, got {other:?}"),
        }
        assert_eq!(p.body.count_observes(), 1);
    }

    #[test]
    fn generative_rejects_non_generative_features() {
        let left =
            "parameters { real phi[3]; } model { phi ~ normal(0,1); sum(phi) ~ normal(0, 0.1); }";
        let err = compile_src(left, Scheme::Generative).unwrap_err();
        assert!(err.message().contains("left expressions"));

        let multi = "parameters { real a; } model { a ~ normal(0,1); a ~ normal(1,1); }";
        assert!(compile_src(multi, Scheme::Generative).is_err());

        let implicit = "data { real y; } parameters { real a; } model { y ~ normal(a, 1); }";
        assert!(compile_src(implicit, Scheme::Generative).is_err());

        // The comprehensive scheme accepts all three.
        assert!(compile_src(left, Scheme::Comprehensive).is_ok());
        assert!(compile_src(multi, Scheme::Comprehensive).is_ok());
        assert!(compile_src(implicit, Scheme::Comprehensive).is_ok());
    }

    #[test]
    fn truncation_is_a_compile_error() {
        let src = "parameters { real mu; } model { mu ~ normal(0, 1) T[0, ]; }";
        let err = compile_src(src, Scheme::Comprehensive).unwrap_err();
        assert!(err.message().contains("truncated"));
    }

    #[test]
    fn unsupported_parameter_types_are_rejected() {
        let src = "parameters { ordered[3] c; } model { c ~ normal(0, 1); }";
        assert!(compile_src(src, Scheme::Comprehensive).is_err());
    }

    #[test]
    fn loops_carry_their_state_variables() {
        let src = r#"
            data { int N; real y[N]; }
            parameters { real mu; }
            model {
              real acc;
              acc = 0;
              for (i in 1:N) { acc = acc + y[i]; }
              target += acc;
              mu ~ normal(0, 1);
            }
        "#;
        let p = compile_src(src, Scheme::Comprehensive).unwrap();
        let mut found_loop = false;
        p.body.visit(&mut |e| {
            if let GExpr::LetLoop { state, .. } = e {
                found_loop = true;
                assert_eq!(state, &vec!["acc".to_string()]);
            }
        });
        assert!(found_loop);
    }

    #[test]
    fn transformed_parameters_are_inlined_and_gq_kept() {
        let src = r#"
            data { real y; }
            parameters { real mu; }
            transformed parameters { real mu2; mu2 = mu * 2; }
            model { y ~ normal(mu2, 1); mu ~ normal(0, 1); }
            generated quantities { real yrep; yrep = normal_rng(mu2, 1); }
        "#;
        let p = compile_src(src, Scheme::Comprehensive).unwrap();
        // mu2 must be defined inside the compiled body (inlined).
        let mut saw_mu2 = false;
        p.body.visit(&mut |e| {
            if let GExpr::LetDet { name, .. } = e {
                if name == "mu2" {
                    saw_mu2 = true;
                }
            }
        });
        assert!(saw_mu2);
        // generated quantities keeps the transformed parameters prefix.
        let gq = p.generated_quantities.unwrap();
        assert!(gq.stmts.len() >= 3);
    }

    #[test]
    fn guide_blocks_are_compiled_generatively() {
        let src = r#"
            parameters { real theta; }
            model { theta ~ normal(0, 1); }
            guide parameters { real m; real<lower=0> s; }
            guide { theta ~ normal(m, s); }
        "#;
        let p = compile_src(src, Scheme::Comprehensive).unwrap();
        let guide = p.guide_body.unwrap();
        match &guide {
            GExpr::LetSample { name, dist, .. } => {
                assert_eq!(name, "theta");
                assert_eq!(dist.name, "normal");
            }
            other => panic!("expected sample in guide, got {other:?}"),
        }
        assert_eq!(p.guide_params.len(), 2);
    }

    #[test]
    fn mixed_hoists_merges_read_by_transformed_parameters() {
        // Non-centered parameterization: the transformed-parameters loop
        // reads mu, tau and theta_trans BEFORE their ~ statements appear in
        // the model block. The merged sample sites must be hoisted to the
        // initialization position (not left at the observation position,
        // which historically produced "unbound variable" at density time).
        let src = r#"
            data { int J; real y[J]; real<lower=0> sigma[J]; }
            parameters { real mu; real<lower=0> tau; real theta_trans[J]; }
            transformed parameters {
              real theta[J];
              for (j in 1:J) theta[j] = theta_trans[j] * tau + mu;
            }
            model {
              mu ~ normal(0, 5);
              tau ~ cauchy(0, 5);
              theta_trans ~ normal(0, 1);
              y ~ normal(theta, sigma);
            }
        "#;
        let p = compile_src(src, Scheme::Mixed).unwrap();
        // mu (R ~ normal) and theta_trans (R^J ~ normal) merge and hoist;
        // tau cannot merge (cauchy support R vs constraint R+). Sites:
        // sample mu, sample tau (improper), sample theta_trans = 3 samples;
        // observes: tau ~ cauchy and y ~ normal = 2.
        assert_eq!(p.body.count_samples(), 3);
        assert_eq!(p.body.count_observes(), 2);
        // The hoisted sites sit BEFORE the transformed-parameters loop: the
        // spine must start sample(mu, normal), sample(tau, improper),
        // sample(theta_trans, normal).
        match &p.body {
            GExpr::LetSample { name, dist, body } => {
                assert_eq!(name, "mu");
                assert_eq!(dist.name, "normal");
                match &**body {
                    GExpr::LetSample { name, dist, body } => {
                        assert_eq!(name, "tau");
                        assert_eq!(dist.name, "improper_uniform");
                        match &**body {
                            GExpr::LetSample { name, dist, .. } => {
                                assert_eq!(name, "theta_trans");
                                assert_eq!(dist.name, "normal");
                                assert_eq!(dist.shape.len(), 1);
                            }
                            other => panic!("expected theta_trans sample, got {other:?}"),
                        }
                    }
                    other => panic!("expected tau sample, got {other:?}"),
                }
            }
            other => panic!("expected mu sample first, got {other:?}"),
        }
    }

    #[test]
    fn reads_in_nested_loop_headers_block_the_in_place_merge() {
        // alpha is read only by a `while` HEADER nested inside a `for` body.
        // The read-before check must see it (and hoist the merge to the top
        // instead of relocating alpha's sample site after the read).
        let src = r#"
            data { real y; }
            parameters { real alpha; }
            transformed parameters {
              real acc;
              acc = 0;
              for (j in 1:2) { while (acc < alpha) acc = acc + 1; }
            }
            model {
              alpha ~ normal(0, 1);
              y ~ normal(acc, 1);
            }
        "#;
        let p = compile_src(src, Scheme::Mixed).unwrap();
        match &p.body {
            GExpr::LetSample { name, dist, .. } => {
                assert_eq!(name, "alpha");
                assert_eq!(dist.name, "normal");
            }
            other => panic!("expected hoisted alpha sample first, got {other:?}"),
        }
        assert_eq!(p.body.count_samples(), 1);
        assert_eq!(p.body.count_observes(), 1);
    }

    #[test]
    fn merges_whose_args_read_transformed_values_stay_comprehensive() {
        // alpha's observation argument reads a transformed value computed
        // after alpha is read — neither in-place merge (read-before) nor
        // hoisting (argument not evaluable at the top) is legal.
        let src = r#"
            data { real y; }
            parameters { real alpha; }
            transformed parameters { real m; m = alpha * 2; }
            model {
              real c;
              c = m + 1;
              alpha ~ normal(c, 1);
              y ~ normal(alpha, 1);
            }
        "#;
        let p = compile_src(src, Scheme::Mixed).unwrap();
        match &p.body {
            GExpr::LetSample { name, dist, .. } => {
                assert_eq!(name, "alpha");
                assert_eq!(dist.name, "improper_uniform");
            }
            other => panic!("expected improper prior retained, got {other:?}"),
        }
        assert_eq!(p.body.count_observes(), 2);
    }

    #[test]
    fn mixed_handles_vectorized_parameter_priors() {
        let src = r#"
            data { int N; real y[N]; }
            parameters { real mu; real<lower=0> sigma; vector[2] beta; }
            model {
              mu ~ normal(0, 10);
              sigma ~ lognormal(0, 1);
              beta ~ normal(0, 5);
              y ~ normal(mu + beta[1], sigma);
            }
        "#;
        let p = compile_src(src, Scheme::Mixed).unwrap();
        // mu (R ~ normal: merge), sigma (R+ ~ lognormal: merge), beta (R^2 ~
        // normal: merge) => three proper sample sites + 1 observe of y.
        assert_eq!(p.body.count_observes(), 1);
        assert_eq!(p.body.count_samples(), 3);
    }
}
