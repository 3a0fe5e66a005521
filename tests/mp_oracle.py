"""Multiprecision reference oracles for the test suite (mpmath, 50+ digits).

Only the tests import this module; the library itself never touches
mpmath.  ``erfc_taylor`` is an independent Taylor-series route used to
cross-check mpmath's own erfc, so the double-precision code is compared
against two unrelated high-precision evaluations.
"""

from __future__ import annotations

import mpmath

mpmath.mp.dps = 50


def erfc_taylor(z, extra_digits: int = 15) -> mpmath.mpc:
    """erfc via the Maclaurin series of erf, summed in high precision.

    Working precision is raised by ~0.44*|z|^2 digits to absorb the
    cancellation hump of the alternating series; practical for |z| <~ 25.
    """
    z = mpmath.mpc(z)
    hump_digits = int(0.44 * abs(z) ** 2) + extra_digits
    with mpmath.workdps(mpmath.mp.dps + hump_digits):
        zz = z * z
        coef = mpmath.mpc(1)
        total = mpmath.mpc(1)
        n = 0
        while True:
            n += 1
            coef *= -zz / n
            term = coef / (2 * n + 1)
            total += term
            if abs(term) < mpmath.mpf(10) ** (-(mpmath.mp.dps + 10)) * (1 + abs(total)):
                break
            if n > 200000:
                raise RuntimeError("erfc_taylor: series did not converge")
        result = 1 - 2 / mpmath.sqrt(mpmath.pi) * z * total
    return mpmath.mpc(result)


def faddeeva_mp(z) -> complex:
    z = mpmath.mpc(z)
    return complex(mpmath.e ** (-z * z) * mpmath.erfc(-1j * z))


def villat_mp(z) -> complex:
    z = mpmath.mpc(z)
    return complex(mpmath.e**z * mpmath.erfc(mpmath.sqrt(z)))


def _roots_mp(kappa):
    kappa = mpmath.mpf(kappa)
    alpha = ((kappa - 2) + mpmath.sqrt(mpmath.mpc((kappa - 2) ** 2 - 4))) / 2
    if mpmath.im(alpha) < 0:
        alpha = mpmath.conj(alpha)
    return alpha, mpmath.conj(alpha)


def u_rest_mp(tau, kappa) -> float:
    a, b = _roots_mp(kappa)
    sa, sb = mpmath.sqrt(a), mpmath.sqrt(b)
    vi = lambda w: mpmath.e**w * mpmath.erfc(mpmath.sqrt(w))
    val = 1 + mpmath.sqrt(kappa) / (a - b) * (vi(a * tau) / sa - vi(b * tau) / sb)
    assert abs(mpmath.im(val)) < mpmath.mpf(10) ** -40
    return float(mpmath.re(val))


def kernel_M_mp(t, b) -> float:
    alpha = (-mpmath.mpf(b) + mpmath.sqrt(mpmath.mpc(b * b - 4))) / 2
    if mpmath.im(alpha) < 0:
        alpha = mpmath.conj(alpha)
    beta = mpmath.conj(alpha)
    vi = lambda w: mpmath.e**w * mpmath.erfc(mpmath.sqrt(w))
    val = (mpmath.sqrt(beta) * vi(alpha * t) - mpmath.sqrt(alpha) * vi(beta * t)) / (
        alpha - beta
    )
    return float(mpmath.re(val))


def vp_mp(t, b, A, t0) -> float:
    """Variation-of-parameters particular solution in its original
    Erfc-difference form (independent of the Villat-function rewrite)."""
    alpha = (-mpmath.mpf(b) + mpmath.sqrt(mpmath.mpc(b * b - 4))) / 2
    if mpmath.im(alpha) < 0:
        alpha = mpmath.conj(alpha)
    beta = mpmath.conj(alpha)
    sa, sb = mpmath.sqrt(alpha), mpmath.sqrt(beta)
    val = A / (beta - alpha) * (
        sb
        * mpmath.e ** (alpha * (t + t0))
        * (mpmath.erfc(mpmath.sqrt(alpha * t0)) - mpmath.erfc(mpmath.sqrt(alpha * (t + t0))))
        - sa
        * mpmath.e ** (beta * (t + t0))
        * (mpmath.erfc(mpmath.sqrt(beta * t0)) - mpmath.erfc(mpmath.sqrt(beta * (t + t0))))
    )
    assert abs(mpmath.im(val)) < mpmath.mpf(10) ** -35
    return float(mpmath.re(val))


def abel_cell_mp(m: int, h: float) -> tuple:
    """(far, near) node weights of the Abel cell m steps back, at 50 digits.

    The integrals of the hat functions of the distances a = (m-1)h and b = mh
    against 1/sqrt(x) over [a, b], in their textbook difference form: it loses
    about log10(m) of the 50 digits, which leaves the reference exact for a double.
    """
    h = mpmath.mpf(h)
    a, b = (m - 1) * h, m * h
    d_sqrt, d_32 = mpmath.sqrt(b) - mpmath.sqrt(a), b * mpmath.sqrt(b) - a * mpmath.sqrt(a)
    return (2 * d_32 / 3 - 2 * a * d_sqrt) / h, (2 * b * d_sqrt - 2 * d_32 / 3) / h


def u_laplace_mp(t, kappa) -> float:
    """u(t) of the sphere released from rest, for any kappa > 0, from its Laplace form.

    u(t) = 1 - (1/pi) integral_0^inf 2 sqrt(kappa) exp(-x^2 t) / (x^4 + (kappa - 2) x^2 + 1) dx:
    the transform of u' is 1/(s + sqrt(kappa s) + 1), and folding the inversion contour
    onto the cut s = -x^2 < 0 leaves a positive weight, also past kappa = 4, where the
    closed form's roots are real.  At 25 digits.
    """
    with mpmath.workdps(25):
        k, t = mpmath.mpf(kappa), mpmath.mpf(t)
        weight = lambda x: 2 * mpmath.sqrt(k) * mpmath.exp(-x * x * t) / (x**4 + (k - 2) * x**2 + 1)
        return float(1 - mpmath.quad(weight, [0, 1, mpmath.inf]) / mpmath.pi)


def sqrt_errors_mp(ks, n_weights: int):
    """The Abel and trapezoidal rules' errors on sqrt(t) at t_k = k (h = 1), at 40 digits.

    eps_k = (pi/2) k - sum_{j=1..k} a[k-j] sqrt(j), with the weights a of the cells
    from :func:`abel_cell_mp`, and tau_k = (2/3) k^(3/2) - (sum_{j<=k} sqrt(j) - sqrt(k)/2).
    n_weights is at least max(ks).
    """
    with mpmath.workdps(40):
        cells = [abel_cell_mp(m, 1) for m in range(1, n_weights + 2)]
        a = [cells[0][1]] + [cells[m - 1][0] + cells[m][1] for m in range(1, n_weights + 1)]
        roots = [mpmath.sqrt(j) for j in range(max(ks) + 1)]
        eps = [mpmath.pi / 2 * k - mpmath.fsum(a[k - j] * roots[j] for j in range(1, k + 1))
               for k in ks]
        tau = [mpmath.mpf(2) / 3 * k * roots[k] - (mpmath.fsum(roots[: k + 1]) - roots[k] / 2)
               for k in ks]
        return [float(e) for e in eps], [float(x) for x in tau]
