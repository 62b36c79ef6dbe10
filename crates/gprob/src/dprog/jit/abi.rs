//! The JIT's call surface: `extern "C"` shims the emitted code calls for
//! everything that is not worth inlining as SSE2 scalar instructions.
//!
//! Three groups:
//!
//! * **Scalar function shims** ([`binf_value_c`], [`uf_value_c`], …) — the
//!   transcendental / branchy arms of [`BinF`] and [`UF`]. The emitter
//!   embeds a pointer to the op's own `BinF`/`UF` discriminant (stored in
//!   the JIT's boxed program, hence address-stable) and the shim dispatches
//!   through exactly the interpreter's `value`/`partial(s)` methods, so
//!   formula changes can never diverge between the two paths.
//! * **Score-kernel shims** (re-exported from [`probdist::ffi`]) — one
//!   element's log-density or partials.
//! * **Sweep shims** ([`sweep_sum_c`], [`sweep_reverse_c`]) — whole batched
//!   score sites. These wrap the interpreter's own private
//!   `DProg::sweep_sum` / `DProg::sweep_reverse` (the lane sweep kernels
//!   at width 1), rebuilding the register and adjoint slices from the raw
//!   base pointers the emitted code keeps in `r12`/`r13`. A `ScoreSweep` op
//!   therefore costs the JIT one call, identical math, identical
//!   accumulation order.
//!
//! All shims follow the System-V AMD64 convention `extern "C"` implies:
//! pointer arguments in `rdi`/`rsi`/…, `f64` arguments in `xmm0..`, `f64`
//! results in `xmm0`. None unwind (the wrapped kernels return sentinel
//! values rather than panicking).

use super::super::{constraint_partials, BinF, DProg, Op, UF};
use probdist::Constraint;

pub(super) use probdist::ffi::{constrain_forward_c, elem_partials_c, elem_value_c};

/// `BinF::value` for the shimmed arms (`Max`/`Min`/`Zero*`).
///
/// # Safety
/// `f` must point at a live [`BinF`].
pub(super) unsafe extern "C" fn binf_value_c(f: *const BinF, a: f64, b: f64) -> f64 {
    (*f).value(a, b)
}

/// `BinF::partials`: writes `(∂f/∂a, ∂f/∂b)` to `out[0..2]`.
///
/// # Safety
/// `f` must point at a live [`BinF`]; `out` at 2 writable `f64`s.
pub(super) unsafe extern "C" fn binf_partials_c(f: *const BinF, out: *mut f64, a: f64, b: f64) {
    let (da, db) = (*f).partials(a, b);
    *out = da;
    *out.add(1) = db;
}

/// `UF::value` for the shimmed arms (everything but `Neg`/`Sqrt`/`Recip`).
///
/// # Safety
/// `f` must point at a live [`UF`].
pub(super) unsafe extern "C" fn uf_value_c(f: *const UF, x: f64) -> f64 {
    (*f).value(x)
}

/// `UF::partial(x, fx)` for the shimmed arms.
///
/// # Safety
/// `f` must point at a live [`UF`].
pub(super) unsafe extern "C" fn uf_partial_c(f: *const UF, x: f64, fx: f64) -> f64 {
    (*f).partial(x, fx)
}

/// `f64::max` — *not* `maxsd`, whose NaN/±0 handling differs from Rust's.
/// Used by the `MaxVal` reduction.
pub(super) unsafe extern "C" fn fmax_c(a: f64, b: f64) -> f64 {
    a.max(b)
}

/// Reverse half of a constrain step: writes `(∂x/∂u, ∂logJ/∂u)` to
/// `out[0..2]` via the interpreter's own `constraint_partials`.
///
/// # Safety
/// `constraint` must point at a live [`Constraint`]; `out` at 2 writable
/// `f64`s.
pub(super) unsafe extern "C" fn constrain_partials_c(
    constraint: *const Constraint,
    out: *mut f64,
    u: f64,
) {
    let (dxdu, djdu) = constraint_partials(*constraint, u);
    *out = dxdu;
    *out.add(1) = djdu;
}

/// Forward pass of one batched score site: the sum the interpreter's
/// `Op::ScoreSweep` / `Op::ScoreSweepVal` arm computes.
///
/// # Safety
/// `dp` must point at the live program that owns `op`; `op` at one of its
/// `ScoreSweep`/`ScoreSweepVal` ops; `regs` at `dp.n_regs` readable `f64`s.
pub(super) unsafe extern "C" fn sweep_sum_c(
    dp: *const DProg,
    op: *const Op,
    regs: *const f64,
) -> f64 {
    let dp = &*dp;
    let regs = std::slice::from_raw_parts(regs, dp.n_regs);
    match &*op {
        Op::ScoreSweep {
            kind,
            xs,
            args,
            k,
            len,
        }
        | Op::ScoreSweepVal {
            kind,
            xs,
            args,
            k,
            len,
            ..
        } => dp.sweep_sum(*kind, *xs, args, *k, *len, regs),
        _ => f64::NAN,
    }
}

/// Reverse pass of one batched score site with adjoint seed `seed` —
/// exactly `DProg::sweep_reverse`, the width-1 lane kernel: partials only
/// (no density value), scalar-broadcast arguments accumulated over the site
/// and bumped once, and no adjoint touched on a zero seed.
///
/// # Safety
/// As [`sweep_sum_c`], plus `adj` must point at `dp.n_regs` writable
/// `f64`s disjoint from `regs`.
pub(super) unsafe extern "C" fn sweep_reverse_c(
    dp: *const DProg,
    op: *const Op,
    regs: *const f64,
    adj: *mut f64,
    seed: f64,
) {
    let dp = &*dp;
    let regs = std::slice::from_raw_parts(regs, dp.n_regs);
    let adj = std::slice::from_raw_parts_mut(adj, dp.n_regs);
    if let Op::ScoreSweep {
        kind,
        xs,
        args,
        k,
        len,
    }
    | Op::ScoreSweepVal {
        kind,
        xs,
        args,
        k,
        len,
        ..
    } = &*op
    {
        dp.sweep_reverse(*kind, *xs, args, *k, *len, seed, regs, adj);
    }
}
