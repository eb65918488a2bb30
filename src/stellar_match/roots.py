"""Bracketed roots of scalar and elementwise functions, on numpy alone.

- `brentq` is Brent's method (Brent 1973, *Algorithms for Minimization
  without Derivatives*, ch. 4) in Python floats, written as scipy's
  `brentq.c` writes it: the same iterates, argument checks and errors, so
  each root equals `scipy.optimize.brentq`'s bit for bit.
- `chandrupatla` is Chandrupatla's method (Chandrupatla 1997, Adv. Eng.
  Softw. 28, 145) on numpy arrays, one bracket per element, with the
  update and termination rules of `scipy.optimize.elementwise.find_root`
  at zero function tolerances, whose iterates it reproduces.

These two are all the package needs of `scipy.optimize`, whose import
takes longer than a whole `surface` run; scipy stays a test oracle only.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple

import numpy as np

RTOL_MIN = 4 * sys.float_info.epsilon
# find_root's default: iterations to halve the widest float bracket down
# to the smallest normal, log2(max) - log2(smallest normal).
CHANDRUPATLA_MAXITER = 2046


def brentq(f, a, b, xtol=2e-12, rtol=RTOL_MIN, maxiter=100):
    """A root of f in [a, b], to within xtol + rtol |root|.

    f(a) and f(b) must differ in sign (a zero at an end is returned as
    the root).  A sign error or a NaN value of f raises ValueError, and no
    convergence within maxiter iterations raises RuntimeError.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # brentq.c's MIN(a, b) is a < b ? a : b
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after %d iterations." % maxiter)


class ElementwiseRoots(NamedTuple):
    """Per-element outcome of `chandrupatla`, in the brackets' shape.

    status is 0 for a root, -1 for a bracket without a sign change, -2
    for maxiter exhausted and -3 for a non-finite bracket or NaN values;
    x is NaN for -1 and -3.  nit counts the iterations each element took.
    """

    x: np.ndarray
    status: np.ndarray
    nit: np.ndarray


def chandrupatla(f, a, b, args=(), *, xatol, xrtol, maxiter=CHANDRUPATLA_MAXITER):
    """Roots of the elementwise f(x, *args) = 0 on the brackets [a, b].

    a, b and args broadcast together; f sees only the elements still
    iterating, each with its own args.  An element stops at an exact zero
    of f (unless an end value is NaN or both are infinite) or once its
    bracket is narrower than xatol + xrtol |x|, where x is the end with the
    smaller |f|.
    """
    xs = np.broadcast_arrays(a, b, *args)
    shape = xs[0].shape
    a, b = (np.asarray(x, dtype=float) for x in xs[:2])
    f1 = np.asarray(f(a, *xs[2:]), dtype=float).ravel()
    f2 = np.asarray(f(b, *xs[2:]), dtype=float).ravel()
    x1, x2 = a.ravel().copy(), b.ravel().copy()
    args = [np.ravel(arg).copy() for arg in xs[2:]]
    # find_root's function tolerance at frtol = 0: zero, or NaN (never
    # met) where an end value is NaN or both are infinite
    ftol = 0.0 * np.minimum(np.abs(f1), np.abs(f2))
    n = x1.size
    x = np.zeros(n)
    status = np.zeros(n, dtype=np.int32)
    nit = np.zeros(n, dtype=np.int32)
    active = np.arange(n)
    x3 = f3 = None
    t = 0.5
    it = 0
    while True:
        # Termination, in find_root's order: an exact zero, a lost sign
        # change, non-finite data, then the bracket width.
        smaller = np.abs(f1) < np.abs(f2)
        xmin = np.where(smaller, x1, x2)
        fmin = np.where(smaller, f1, f2)
        code = np.ones(active.size, dtype=np.int32)
        stop = np.abs(fmin) <= ftol
        code[stop] = 0
        fail = (np.sign(f1) == np.sign(f2)) & ~stop
        xmin[fail], code[fail] = np.nan, -1
        stop |= fail
        fail = ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2))
        fail &= ~stop
        xmin[fail], code[fail] = np.nan, -3
        stop |= fail
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * xrtol + xatol
        done = dx < tol
        code[done] = 0
        stop |= done
        if stop.any():
            x[active[stop]], status[active[stop]], nit[active[stop]] = xmin[stop], code[stop], it
            go = ~stop
            active, xmin, x1, f1, x2, f2, dx, tol, ftol = (
                v[go] for v in (active, xmin, x1, f1, x2, f2, dx, tol, ftol))
            args = [arg[go] for arg in args]
            if x3 is not None:
                x3, f3 = x3[go], f3[go]
        if not active.size:
            break
        if it >= maxiter:
            x[active], status[active], nit[active] = xmin, -2, it
            break
        if x3 is not None:
            # inverse quadratic step where it stays inside the bracket
            # (Chandrupatla's eq. 1), bisection elsewhere, and in any case
            # at least tol / 2 from either end
            xi1 = (x1 - x2) / (x3 - x2)
            with np.errstate(divide="ignore", invalid="ignore"):
                phi1 = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            j = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
            f1j, f2j, f3j, alphaj = f1[j], f2[j], f3[j], alpha[j]
            t = np.full_like(alpha, 0.5)
            t[j] = (f1j / (f1j - f2j) * f3j / (f3j - f2j)
                    - alphaj * f1j / (f3j - f1j) * f2j / (f2j - f3j))
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
        xt = x1 + t * (x2 - x1)
        ft = np.asarray(f(xt, *args), dtype=float)
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        it += 1
    return ElementwiseRoots(x.reshape(shape), status.reshape(shape), nit.reshape(shape))
