"""Closed forms of the two integrals of v**t that the evaluators need.

``pow_integral`` is int v**t dt and ``log_time_integral`` is int v**t / t dt,
an exponential integral.  Both return Python floats.  ``_piece_tail``
combines them into the per-piece term of the consistency integral L(z),
which analytics._LTable and the maxexp recursion both sum.

Below them is the exponential integral of a Python float, without scipy,
which analytics.maxprob_alpha also calls,

    E1(x) = int_x^inf e^-t / t dt

for x >= 0 (Abramowitz & Stegun 5.1.1), in two forms:

* x <= 1: the convergent series (A&S 5.1.11), E1(x) = -gamma - ln x - S(-x)
  with S(y) = sum_k y**k / (k k!) to 18 terms; the first term left out is
  below 1e-17 of the result.
* x > 1: on each piece (1, 2], (2, 4], ..., (32, 64], (64, 745] a polynomial
  p(s) in s, the affine map of 1/x onto [-1, 1], approximates x e^x E1(x),
  which tends to 1 as x grows.  Then E1(x) = e^-x p / x; past 745, E1 has
  underflowed.  Cody & Thacher (Math. Comp. 22, 1968) fit rational functions
  to the same quantity; polynomials need more terms but no division.

For v > 1 the integral is a difference of Ei(x) = PV int_-inf^x e^t / t dt
(A&S 5.1.2), and Ei(x) = gamma + ln x + S(x) (A&S 5.1.10).  In the
difference Euler's constant and ln ln v cancel,

    Ei(b ln v) - Ei(a ln v) = ln(b/a) + S(b ln v) - S(a ln v),

and for y > 0 every term of S(y) is positive, so ``_positive_series`` sums
its exact coefficients with nothing fitted.

How E1's coefficients were made: with mpmath 1.3.0 at 50 digits, x e^x E1(x)
was interpolated at Chebyshev nodes of s in [-1, 1] on each piece
(``mpmath.chebyfit``), converted to monomial coefficients in s and rounded
to the nearest double.  Each degree is the lowest whose fit error, measured
at 401 points of the piece in mpmath, is below 5e-18 relative, so the
rounding of the doubles dominates the error.  tests/test_expint.py checks
E1 and S against mpmath over their ranges.

Horner is unrolled on literals and the argument is made a Python float on
entry: both matter, since the maxexp recursion makes tens of thousands of
calls per curve and a numpy scalar makes every step several times slower.
"""

from __future__ import annotations

import math

__all__ = ["log_time_integral", "pow_integral"]


def log_time_integral(v, a, b):
    """integral_a^b v**t / t dt for 0 <= v, 0 < a <= b, in closed form.

    With x = t |ln v| the integral is an exponential integral (Abramowitz &
    Stegun 5.1.1 and 5.1.2): E1(-a ln v) - E1(-b ln v) for 0 < v < 1 and
    Ei(b ln v) - Ei(a ln v), summed as ln(b/a) + S(b ln v) - S(a ln v), for
    v > 1.  v = 0 integrates to 0 (0**t = 0 for t > 0) and v = 1 reduces to
    ln(b/a).  The result is exact to rounding, relative to the size of its
    terms, while a |ln v| is a normal double, which a >= 1e-290 ensures for
    every double v != 1.
    """
    if not v >= 0.0:  # written so that a NaN fails it
        raise ValueError("v must be non-negative")
    if not 0.0 < a <= b:
        raise ValueError("need 0 < a <= b")
    if a == b:
        return 0.0
    if v == 0.0:
        return 0.0
    if v == 1.0:
        return math.log(b / a)
    logv = math.log(v)
    if logv < 0.0:
        return _e1(-a * logv) - _e1(-b * logv)
    return math.log(b / a) + _positive_series(b * logv) - _positive_series(a * logv)


def pow_integral(v, a, b):
    """integral_a^b v**t dt in closed form, with the 0**t = 0 convention."""
    if not v >= 0.0:  # written so that a NaN fails it
        raise ValueError("v must be non-negative")
    if v == 0.0:
        return 0.0
    if v == 1.0:
        return b - a
    logv = math.log(v)
    return float(v**a * math.expm1((b - a) * logv) / logv)


def _piece_tail(v, a, b):
    """int_a^b (t - a) v**t / t dt + (b - a) int_b^1 v**t / t dt, and the last integral.

    This is the term that a piece (a, b] at level v adds to L(z) for every
    z <= a.  The a-term is absent for a = 0, where it vanishes.
    """
    rest = log_time_integral(v, b, 1.0)
    head = pow_integral(v, a, b)
    if a > 0.0:
        head -= a * log_time_integral(v, a, b)
    return head + (b - a) * rest, rest


_EULER = 0.5772156649015329  # the Euler-Mascheroni constant gamma


def _series(y):
    """S(y) = sum_(k=1)^18 y**k / (k k!), by Horner."""
    return y * (
        1.0
        + y * (1 / 4
        + y * (1 / 18
        + y * (1 / 96
        + y * (1 / 600
        + y * (1 / 4320
        + y * (1 / 35280
        + y * (1 / 322560
        + y * (1 / 3265920
        + y * (1 / 36288000
        + y * (1 / 439084800
        + y * (1 / 5748019200
        + y * (1 / 80951270400
        + y * (1 / 1220496076800
        + y * (1 / 19615115520000
        + y * (1 / 334764638208000
        + y * (1 / 6046686277632000
        + y * (1 / 115242726703104000)))))))))))))))))
    )


def _e1(x):
    """E1(x) for x >= 0: inf at 0, 0.0 where it underflows (x > 738.5), NaN for NaN."""
    x = float(x)
    if x <= 1.0:
        if x <= 0.0:
            if x == 0.0:
                return math.inf
            raise ValueError("e1 needs x >= 0")
        return -_EULER - math.log(x) - _series(-x)
    if x <= 2.0:
        s = 4.0 / x - 3.0
        p = (
            0.6508128537230682
            + s * (-0.0617433306734975
            + s * (0.008436135835132882
            + s * (-0.001362959982242028
            + s * (0.0002434886680846475
            + s * (-4.658463958758512e-05
            + s * (9.37385774494601e-06
            + s * (-1.9613975959712087e-06
            + s * (4.2349333012878675e-07
            + s * (-9.383867241033278e-08
            + s * (2.1250756782927046e-08
            + s * (-4.903878201456109e-09
            + s * (1.1530763505794032e-09
            + s * (-2.7441648200066e-10
            + s * (6.333763616798137e-11
            + s * (-1.5414293811875475e-11
            + s * (5.288029722374165e-12
            + s * -1.3210754060601433e-12))))))))))))))))
        )
    elif x <= 4.0:
        s = 8.0 / x - 3.0
        p = (
            0.768752189048245
            + s * (-0.05069711994785498
            + s * (0.00517215833696055
            + s * (-0.0006505704390520777
            + s * (9.305743671140353e-05
            + s * (-1.454952284764215e-05
            + s * (2.43043062121255e-06
            + s * (-4.2750963378416784e-07
            + s * (7.840268671943505e-08
            + s * (-1.4884701048930947e-08
            + s * (2.9099191759648176e-09
            + s * (-5.838892153013316e-10
            + s * (1.1967702931844505e-10
            + s * (-2.4492960839676717e-11
            + s * (5.201143691696653e-12
            + s * (-1.4173711852175364e-12
            + s * 3.120178776855927e-13)))))))))))))))
        )
    elif x <= 8.0:
        s = 16.0 / x - 3.0
        p = (
            0.8592503002464433
            + s * (-0.036195078298047176
            + s * (0.0025348142891519613
            + s * (-0.00022922542102165856
            + s * (2.435826973280227e-05
            + s * (-2.9000869998933656e-06
            + s * (3.7616507110489484e-07
            + s * (-5.2199255489078414e-08
            + s * (7.652804765976071e-09
            + s * (-1.1747640061158447e-09
            + s * (1.874920458936404e-10
            + s * (-3.075751544492938e-11
            + s * (5.226147977873561e-12
            + s * (-1.0398417319040554e-12
            + s * 1.8670106486941833e-13)))))))))))))
        )
    elif x <= 16.0:
        s = 32.0 / x - 3.0
        p = (
            0.9201706542494457
            + s * (-0.022885877636733144
            + s * (0.0010083516031452677
            + s * (-6.0028521273765996e-05
            + s * (4.346022722782425e-06
            + s * (-3.622501142707358e-07
            + s * (3.363230235330336e-08
            + s * (-3.403091123621505e-09
            + s * (3.695812630910479e-10
            + s * (-4.254699704300341e-11
            + s * (5.1594178068668784e-12
            + s * (-6.949364136898894e-13
            + s * 9.197593484802087e-14)))))))))))
        )
    elif x <= 32.0:
        s = 64.0 / x - 3.0
        p = (
            0.9569960633634126
            + s * (-0.013192916149848972
            + s * (0.0003381564208645993
            + s * (-1.2167590689037478e-05
            + s * (5.493318324072098e-07
            + s * (-2.9307422472449624e-08
            + s * (1.7807568059376887e-09
            + s * (-1.2021156597149924e-10
            + s * (8.856036633047288e-12
            + s * (-7.02940971898162e-13
            + s * (6.105205876721826e-14
            + s * -5.481142950495904e-15))))))))))
        )
    elif x <= 64.0:
        s = 128.0 / x - 3.0
        p = (
            0.9775903812952121
            + s * (-0.007148883296976409
            + s * (0.00010036835503084848
            + s * (-2.0336361282527484e-06
            + s * (5.29643896125596e-08
            + s * (-1.6652408847986558e-09
            + s * (6.077401016062586e-11
            + s * (-2.5067582405113412e-12
            + s * (1.1540432623570312e-13
            + s * -5.771764266615043e-15))))))))
        )
    else:
        s = 140.0293685756241 / x - 1.1879588839941262
        p = (
            0.99165675917151
            + s * (-0.006907874106234332
            + s * (9.470400897545491e-05
            + s * (-1.9171493912757354e-06
            + s * (5.0957504503081e-08
            + s * (-1.6677936564092618e-09
            + s * (6.454485897217493e-11
            + s * (-2.8726029365072603e-12
            + s * (1.4529969950074049e-13
            + s * -8.098298771648969e-15))))))))
        )
    return math.exp(-x) * p / x


def _positive_series(y):
    """S(y) for y >= 0: inf where it overflows (y > 716.36), NaN for NaN.

    Every term is positive, so the exact coefficients sum it with no
    cancellation.  The first term left out is below 1e-17 of the sum: past
    term 18 for y <= 1, past term 26 for y <= 2.5, and above that the loop
    stops on it (950 terms at y = 716).  The loop carries u = y**(k-1) / k!,
    whose peak stays finite wherever S does, and sums the terms u y / k with
    Kahan's compensation: on 3,000 points of (2.5, 60] that cut the worst
    error from 7.4 to 4.6 eps.
    """
    y = float(y)
    if y <= 1.0:
        return _series(y)
    if y <= 2.5:
        return _series(y) + y**19 * (
            1 / 2311256907767808000
            + y * (1 / 48658040163532800000
            + y * (1 / 1072909785605898240000
            + y * (1 / 24728016011107368960000
            + y * (1 / 594596384994354462720000
            + y * (1 / 14890761641597746544640000
            + y * (1 / 387780251083274649600000000
            + y * (1 / 10485577989291746525184000000)))))))
        )
    if y > 717.0:  # S has overflowed, and an infinite y would never end the loop
        return math.inf
    u, total, comp = 1.0, y, 0.0
    k, term = 1, y
    while term >= 1e-17 * total:
        k += 1
        u = u / k * y
        term = u / k * y
        z = term - comp
        t = total + z
        comp = (t - total) - z
        total = t
    return total
