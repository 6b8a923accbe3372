"""Bracketed scalar root finding without scipy.optimize.

``brentq`` is Brent's method (Brent 1973, *Algorithms for Minimization
without Derivatives*, ch. 4) in the variant of scipy's ``Zeros/brentq.c``,
ported step for step: the same iterates, the same stopping rule and so the
same root to the last bit, without loading scipy.optimize at import time.
"""

from __future__ import annotations

__all__ = ["brentq"]


def brentq(f, a, b, xtol, rtol, maxiter=100):
    """A root of f inside [a, b], where f(a) and f(b) differ in sign.

    Stops once the bracket is below xtol + rtol * |x|.  Raises ValueError
    for a same-sign bracket or a NaN function value and RuntimeError when
    maxiter iterations do not converge, as scipy.optimize.brentq does.
    """

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the best iterate in xcur, the other bracket end in xblk
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets an infinite or NaN step, which bisects
                stry = float("inf")
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
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
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
