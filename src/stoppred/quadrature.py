"""Closed forms of the two integrals of v**t that the evaluators need.

``pow_integral`` is int v**t dt and ``log_time_integral`` is int v**t / t dt,
an exponential integral.  Both return Python floats.  ``_piece_tail``
combines them into the per-piece term of the consistency integral L(z),
which analytics._LTable and the maxexp recursion both sum.

Below them are the exponential integrals of a Python float, without scipy,
which analytics.maxprob_alpha also calls,

    E1(x) = int_x^inf e^-t / t dt,    Ei(x) = PV int_-inf^x e^t / t dt,

for x >= 0 (Abramowitz & Stegun 5.1.1 and 5.1.2).  Three forms cover the range:

* x <= 1: the convergent series (A&S 5.1.10 and 5.1.11),
  Ei(x) = gamma + ln x + S(x) and E1(x) = -gamma - ln x - S(-x) with
  S(y) = sum_k y**k / (k k!) to 18 terms; the first term left out is below
  1e-17 of the result.
* x > 1: on each piece (1, 2], (2, 4], ..., (32, 64], (64, 745] a polynomial
  p(s) in s, the affine map of 1/x onto [-1, 1], approximates x e^x E1(x) or
  x e^-x Ei(x), both of which tend to 1 as x grows.  Then E1(x) = e^-x p / x
  and Ei(x) = e^x p / x; past 745, E1 has underflowed and Ei overflowed.
  Cody & Thacher (Math. Comp. 22, 1968) fit rational functions to the same
  quantities; polynomials need more terms but no division.
* Ei on [1/4, 1/2], around its zero x0 = 0.3725074107813666: the series
  cancels there and would lose the relative accuracy, so Ei(x) = (x - x0) r(s)
  with s = 8x - 3 and x0 held as two doubles.

How the coefficients were made: with mpmath 1.3.0 at 50 digits, each
function was interpolated at Chebyshev nodes of s in [-1, 1]
(``mpmath.chebyfit``), converted to monomial coefficients in s and rounded
to the nearest double.  Each degree is the lowest whose fit error, measured
at 401 points of the piece in mpmath, is below 5e-18 relative, so the
rounding of the doubles dominates the error.  tests/test_expint.py checks
both functions against mpmath over their ranges.

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
    Ei(b ln v) - Ei(a ln v) for v > 1.  v = 0 integrates to 0 (0**t = 0 for
    t > 0) and v = 1 reduces to ln(b/a).  The result is exact to rounding
    while a |ln v| is a normal double, which a >= 1e-290 ensures for every
    double v != 1.
    """
    if v < 0.0:
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
    return _ei(b * logv) - _ei(a * logv)


def pow_integral(v, a, b):
    """integral_a^b v**t dt in closed form, with the 0**t = 0 convention."""
    if v < 0.0:
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
_X0_HI = 0.3725074107813666  # the positive zero of Ei is _X0_HI + _X0_LO
_X0_LO = 1.3140183414386028e-17


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


def _ei(x):
    """Ei(x) for x >= 0: -inf at 0, inf where it overflows (x > 716.36), NaN for NaN."""
    x = float(x)
    if x <= 1.0:
        if x <= 0.0:
            if x == 0.0:
                return -math.inf
            raise ValueError("ei needs x >= 0")
        if 0.25 <= x <= 0.5:
            s = 8.0 * x - 3.0
            p = (
                3.888076357264988
                + s * (-0.4061665855280847
                + s * (0.10041283952481993
                + s * (-0.02479588404445663
                + s * (0.0066215992351893625
                + s * (-0.0018394610867344904
                + s * (0.0005256259184067717
                + s * (-0.00015332173526027486
                + s * (4.543203865008289e-05
                + s * (-1.3630439470857293e-05
                + s * (4.1306273350717035e-06
                + s * (-1.2621899398496797e-06
                + s * (3.8843259333093395e-07
                + s * (-1.2023349243053986e-07
                + s * (3.730952253794265e-08
                + s * (-1.1658817908524704e-08
                + s * (3.77472335295571e-09
                + s * (-1.1889185081216642e-09
                + s * (2.883090236543945e-10
                + s * (-9.105017598710777e-11
                + s * (6.559337757326939e-11
                + s * -2.091864108421699e-11))))))))))))))))))))
            )
            return ((x - _X0_HI) - _X0_LO) * p
        return _EULER + math.log(x) + _series(x)
    if x <= 2.0:
        s = 4.0 / x - 3.0
        p = (
            0.989668932809259
            + s * (-0.33448122968786004
            + s * (0.03792984531278007
            + s * (0.009323487442037742
            + s * (-0.007563578401472274
            + s * (0.0030370745215760977
            + s * (-0.0009306901688362174
            + s * (0.0002278048998772411
            + s * (-3.9238468547325815e-05
            + s * (2.687601584433157e-07
            + s * (3.765579229264207e-06
            + s * (-2.2713182722772474e-06
            + s * (9.834562514869984e-07
            + s * (-3.637439297663803e-07
            + s * (1.2084638145468183e-07
            + s * (-3.674552083775499e-08
            + s * (1.0076620513214395e-08
            + s * (-2.2252501603170164e-09
            + s * (3.823577452859788e-10
            + s * (-1.3748622115980043e-10
            + s * (8.573265800473684e-12
            + s * (6.212954764894353e-11
            + s * -2.49906866928437e-11)))))))))))))))))))))
        )
    elif x <= 4.0:
        s = 8.0 / x - 3.0
        p = (
            1.4690759550251136
            + s * (-0.07273558054160355
            + s * (-0.07757446524908389
            + s * (0.025499719178771398
            + s * (-0.0027436931549100173
            + s * (-0.0011081934838498525
            + s * (0.000767098201296314
            + s * (-0.00027191878274208725
            + s * (6.515704953495112e-05
            + s * (-7.733371317379075e-06
            + s * (-2.3053152894685922e-06
            + s * (2.0618898273856403e-06
            + s * (-9.297794318324244e-07
            + s * (3.209344652106072e-07
            + s * (-9.00243111519386e-08
            + s * (1.9445865681708253e-08
            + s * (-2.0734898989544884e-09
            + s * (-8.529139918336989e-10
            + s * (6.97179438627018e-10
            + s * (-2.932316877923055e-10
            + s * (1.2604869013218716e-10
            + s * (-6.043923563138516e-11
            + s * 1.4657914014499858e-11)))))))))))))))))))))
        )
    elif x <= 8.0:
        s = 16.0 / x - 3.0
        p = (
            1.3269243537087099
            + s * (0.13889073313480316
            + s * (-0.019704956764727662
            + s * (-0.011018015667938242
            + s * (0.0031723596842968514
            + s * (0.00020391346988171
            + s * (-0.0003579319894163936
            + s * (0.00011125325286485191
            + s * (-1.0011391727284985e-05
            + s * (-6.6620645347093685e-06
            + s * (4.036066537867684e-06
            + s * (-1.2431820469311733e-06
            + s * (1.9903746967233528e-07
            + s * (2.7153534128020675e-08
            + s * (-3.461483240544057e-08
            + s * (1.53556210756498e-08
            + s * (-4.519542010810688e-09
            + s * (8.873118710621641e-10
            + s * (-7.708725799915984e-11
            + s * (-8.22053571833996e-11
            + s * (8.116411920238936e-11
            + s * -2.3654149665169374e-11))))))))))))))))))))
        )
    elif x <= 16.0:
        s = 32.0 / x - 3.0
        p = (
            1.120311700129995
            + s * (0.054337700418872606
            + s * (0.007191967194670905
            + s * (0.0005032607952500221
            + s * (-0.00044555646767615497
            + s * (-9.424056716939621e-05
            + s * (4.300042420071469e-05
            + s * (4.19746791127715e-06
            + s * (-4.9384730671917895e-06
            + s * (7.438386707204068e-07
            + s * (2.8722571999481976e-07
            + s * (-1.6506198619340094e-07
            + s * (2.72945078355632e-08
            + s * (6.872332243911642e-09
            + s * (-5.489830933659051e-09
            + s * (1.5572453596955768e-09
            + s * (-8.511560301463264e-11
            + s * (-1.5200016570521462e-10
            + s * (7.454815209905579e-11
            + s * (-6.715186314461258e-12
            + s * -3.155993455693103e-12)))))))))))))))))))
        )
    elif x <= 32.0:
        s = 64.0 / x - 3.0
        p = (
            1.0520424679682245
            + s * (0.019398949562410554
            + s * (0.0008277643313532969
            + s * (6.52797448697923e-05
            + s * (8.99266764319291e-06
            + s * (1.5913271859272287e-06
            + s * (8.08853234572592e-08
            + s * (-1.1945760896438409e-07
            + s * (-3.938766862890112e-08
            + s * (5.476689769705357e-09
            + s * (4.365556300556464e-09
            + s * (-5.086619679258176e-10
            + s * (-4.2250469211403267e-10
            + s * (9.101356638579785e-11
            + s * (3.2722830904297805e-11
            + s * (-1.4051036369250679e-11
            + s * (-1.337040681612272e-12
            + s * 1.2245338678783464e-12))))))))))))))))
        )
    elif x <= 64.0:
        s = 128.0 / x - 3.0
        p = (
            1.0246216146810785
            + s * (0.008633537237199895
            + s * (0.0001538509192059354
            + s * (4.3733109576055e-06
            + s * (1.7754208058459666e-07
            + s * (9.74458935546966e-09
            + s * (7.041706846425552e-10
            + s * (6.670821199276447e-11
            + s * (8.452870423398936e-12
            + s * (1.4748037752157943e-12
            + s * (3.038073576587222e-13
            + s * (2.7993530256445457e-14
            + s * -9.087544438984366e-15)))))))))))
        )
    else:
        s = 140.0293685756241 / x - 1.1879588839941262
        p = (
            1.008631378661522
            + s * (0.007393391840568957
            + s * (0.00011035488409730651
            + s * (2.51686125235985e-06
            + s * (7.800656149627512e-08
            + s * (3.081993014731684e-09
            + s * (1.49108854941115e-10
            + s * (8.593051985084908e-12
            + s * (5.783614656129979e-13
            + s * (4.590302151999088e-14
            + s * 4.0689034589733335e-15)))))))))
        )
    if x <= 709.0:
        return math.exp(x) * p / x
    if x > 717.0:
        return math.inf
    half = math.exp(0.5 * x)  # e^x alone would overflow before Ei does
    return half * (p / x) * half
