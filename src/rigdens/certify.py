"""Assembly of the final certified error bound and the Lyapunov interval.

eps_rig bounds the distance between the computed density and the true
invariant density by the upward-rounded sum of three terms, each the
fixed-point lemma rigdens.enclosure.fixed_point_bound,
(defect sum_{i<N} c_i) / (1 - alpha), with these inputs:

  mode  term            N      c_i            alpha  defect
  L1    discretization  N      1              1/2    2B/k
  L1    matrix          N_eps  R^i            A'     step_error + delta
  Linf  discretization  N      M              1/2    (B + 1) X / k
  Linf  matrix          N      M^2            1/2    (eps + lin_err
                                                     + delta s) |f|
  both  numeric         N_eps  min(C_i, R^i)  A      s (|r| + |sum r|)/|sum v|

X = (4/k) D + 2(M + 1)M(1 + B1/(1 - a)), |f| = ||v||_inf + rho,
A = C_n + delta s sum_{i<n} R^i and A' = 1/2 + delta sum_{i<N_eps} R^i,
with R and R^i those of the sweep (rigdens.enclosure); M is ly.m_sup.
With delta = 0 these are the paper's 2N(2B/k), 2 N_eps ||P - Pi||,
(2/k) N M X (B + 1) and N step_error |f|.  The numeric term is the radius
rho of the fixed-vector enclosure (rigdens.enclosure defines its symbols
and adds the mass defect of v): at most eps_num, about 1e-14 in practice.

Matrix terms.  P is the exact discretized operator (row-stochastic, as
markovization assumes), Pi the stored matrix, whose row sums 1 + d_i
have |d_i| <= delta, and f_Pi its fixed vector of rigdens.enclosure,
f_Pi Pi - f_Pi = c e_j with |c| <= delta ||f_Pi||_1.  Let e = f_P - f_Pi.
In L1 the lemma runs on Pi, whose N_eps certifies C_{N_eps} <= 1/2:
e - e Pi = f_P (P - Pi) + c e_j has mass tau = -sum_i e_i d_i.  Its
zero-sum part f_P (P - Pi) + (c - tau) e_j, where c - tau =
sum_i (f_P)_i d_i and f_P >= 0 has mass 1, has norm at most
step_error + delta; ||Pi^i|| <= R^i, R >= 1 + delta, since Pi >= 0; and
tau e_j Pi^i, at most delta R^i ||e||, is charged in alpha.  In the sup
norm the lemma runs on P, whose N certifies ||P^N|_V|| <= 1/2:
e - e P = f_Pi (P - Pi) + c e_j is zero-sum, and |c| ||e_j|| <=
delta s ||f_Pi|| with s = k (||.||_1 <= k ||.||_inf at density scale).

The Lyapunov exponent, the integral of g = log|T'| against the true
density f, is enclosed against the computed f~ by the _fsum of per-cell
products: log of the hull of |T'| over each outward-rounded cell, times
its mass.  With [g_lo, g_hi] the hull of those logs (it holds g), c its
midpoint and integral f = 1, integral g (f - f~) = integral (g - c)(f -
f~) + c (1 - integral f~), so the slack is max(g_hi - c, c - g_lo)
eps_rig + |c| |1 - integral f~| (_slack), integral f~ the _fsum of the
masses, as ||f - f~||_1 <= eps_rig (also in the sup norm on [0, 1]).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .intervals import Interval, IntervalArray, _fsum, iv, ratio_array
from .maps import LYCoefficientsBV, LYCoefficientsLip, PiecewiseMap
from .enclosure import (ContractionCertificate, EnclosedDensity, _l1_norm,
                        _leak, _powers, fixed_point_bound)
from .hatbasis import LinfMatrix
from .ulam import TransitionMatrix

__all__ = [
    "Certificate",
    "LyapunovResult",
    "CertificateReport",
    "certify_l1",
    "certify_linf",
    "lyapunov",
    "report",
]


@dataclass(frozen=True)
class Certificate:
    """Everything the a-posteriori bound consumed, plus its components."""

    mode: str
    map_id: str
    ly: Union[LYCoefficientsBV, LYCoefficientsLip]
    k: int
    eps: float
    eps_num: float
    nnz_max: int
    l: int
    n_eps: int
    n_true: int
    err_discretization: float
    err_matrix: float
    err_numeric: float
    eps_rig: float


@dataclass(frozen=True)
class LyapunovResult:
    """Certified enclosure [estimate - radius, estimate + radius] of the
    integral of log|T'| against the invariant density."""

    estimate: float
    radius: float

    @property
    def lo(self) -> float:
        return (iv(self.estimate) - iv(self.radius)).lo

    @property
    def hi(self) -> float:
        return (iv(self.estimate) + iv(self.radius)).hi


def _certificate(mode: str, ly, matrix: TransitionMatrix,
                 contraction: ContractionCertificate, density: EnclosedDensity,
                 eps_num: float, map_id: str, terms) -> Certificate:
    """The certificate of mode: terms(n_eps, n_true) gives the
    discretization and matrix terms, and density.radius is the numeric."""
    if matrix.norm_kind != mode or contraction.norm_kind != mode:
        raise ValueError(f"certify_{mode.lower()} needs {mode}-mode inputs")
    n_eps, n_true = contraction.n_eps, contraction.n_true
    if n_true is None or n_eps is None:
        raise ValueError("contraction certificate incomplete")
    err_disc, err_mat = terms(n_eps, n_true)
    return Certificate(
        mode=mode, map_id=map_id, ly=ly, k=matrix.k, eps=matrix.eps,
        eps_num=eps_num, nnz_max=matrix.nnz_max, l=density.l,
        n_eps=n_eps, n_true=n_true, err_discretization=err_disc,
        err_matrix=err_mat, err_numeric=density.radius,
        eps_rig=sum(map(iv, (err_disc, err_mat, density.radius)), iv(0)).hi,
    )


def certify_l1(ly: LYCoefficientsBV, matrix: TransitionMatrix,
               contraction: ContractionCertificate, density: EnclosedDensity,
               eps_num: float, map_id: str = "map") -> Certificate:
    """Mass-norm certificate, the L1 rows of the module docstring's table;
    eps_num is recorded as the target density.radius had to meet."""
    if not (iv(2) * ly.lam).hi < 1.0:
        raise ValueError("2/inf|T'| must stay below 1 for the mass-norm bound")
    delta = contraction.row_defect

    def terms(n_eps, n_true):
        powers = list(itertools.islice(_powers(_l1_norm(delta)), n_eps))
        return (
            fixed_point_bound([1] * n_true, 0.5, iv(2) * ly.b / iv(matrix.k)),
            fixed_point_bound(powers, iv(0.5) + _leak(delta, 1, powers),
                              iv(matrix.step_error) + iv(delta)))

    return _certificate("L1", ly, matrix, contraction, density, eps_num,
                        map_id, terms)


def certify_linf(ly: LYCoefficientsLip, matrix: LinfMatrix,
                 contraction: ContractionCertificate, density: EnclosedDensity,
                 eps_num: float, map_id: str = "map") -> Certificate:
    """Sup-norm certificate, the Linf rows of the module docstring's table;
    M is ly.m_sup in both terms."""
    if not ly.alpha.hi < 1.0:
        raise ValueError("Lipschitz contraction alpha must stay below 1")
    k, m = iv(matrix.k), ly.m_sup
    x = (iv(4) / k) * ly.distortion + iv(2) * (m + iv(1)) * m * (
        iv(1) + ly.b_one / (iv(1) - ly.alpha))
    f_sup = (iv(float(np.abs(density.density_values).max()))
             + iv(density.radius))

    def terms(n_eps, n_true):
        rate = (iv(matrix.eps) + iv(matrix.lin_err)
                + iv(contraction.row_defect) * k)
        return (
            fixed_point_bound([m] * n_true, 0.5, x * (ly.b_var + iv(1)) / k),
            fixed_point_bound([m * m] * n_true, 0.5, rate * f_sup))

    return _certificate("Linf", ly, matrix, contraction, density, eps_num,
                        map_id, terms)


def _mid_rad(x: Interval):
    """(c, r): x's midpoint c and a radius r with x in [c - r, c + r]."""
    c = x.mid
    return c, max((iv(x.hi) - iv(c)).hi, (iv(c) - iv(x.lo)).hi)


def _slack(g: Interval, err: float, mass: Interval) -> float:
    """The module docstring's slack, rounded up: at least |integral g (f - f~)|
    for values of g in g, ||f - f~||_1 <= err, f of mass 1, f~ of mass in mass."""
    c, half = _mid_rad(g)
    return sum(map(iv, ((iv(half) * iv(err)).hi,
                        (abs(iv(c)) * abs(iv(1) - mass)).hi)), iv(0)).hi


def lyapunov(m: PiecewiseMap, density: EnclosedDensity,
             cert: Certificate) -> LyapunovResult:
    """Certified enclosure of the Lyapunov exponent of the certified run.

    Integrates the per-cell interval enclosure of log|T'| against the
    density's cell masses, one interval array, and charges _slack for the
    distance to the true invariant density (module docstring).
    """
    edges = ratio_array(np.arange(cert.k + 1), cert.k)
    # outward-rounded cells so the true rational cells are fully covered
    dr = m.abs_deriv_range_over(IntervalArray(edges.lo[:-1], edges.hi[1:]))
    touching = dr.lo <= 0.0
    if touching.any():
        raise ValueError(f"|T'| enclosure touches 0 over cell {np.argmax(touching)}")
    log_d = dr.log()
    masses = density.cell_masses
    total = _fsum(log_d * masses)
    slack = _slack(Interval(float(log_d.lo.min()), float(log_d.hi.max())),
                   cert.eps_rig, _fsum(masses))
    estimate, half = _mid_rad(total)
    return LyapunovResult(estimate=estimate,
                          radius=sum(map(iv, (half, slack)), iv(0)).hi)


@dataclass(frozen=True)
class CertificateReport:
    text: str
    data: dict

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.data, **kwargs)


def report(cert: Certificate,
           lyap: Optional[LyapunovResult] = None) -> CertificateReport:
    """Human-readable inputs/outputs table plus the machine-readable form."""
    ly = cert.ly
    if isinstance(ly, LYCoefficientsBV):
        lam, b_prime, b = ly.lam.hi, ly.b_prime.hi, ly.b.hi
    else:
        lam, b_prime, b = ly.lam.hi, None, ly.b_var.hi
    rows = [
        ("lambda", f"{lam:.6g}", "N_eps", str(cert.n_eps)),
        ("B'", "-" if b_prime is None else f"{b_prime:.6g}", "N", str(cert.n_true)),
        ("B", f"{b:.6g}", "l", str(cert.l)),
        ("eps", f"{cert.eps:.3g}", "eps_rig", f"{cert.eps_rig:.4g}"),
        (
            "eps_num",
            f"{cert.eps_num:.3g}",
            "L_exp",
            "-" if lyap is None else f"{lyap.estimate:.6g} +/- {lyap.radius:.2g}",
        ),
    ]
    if isinstance(ly, LYCoefficientsLip):
        rows.insert(3, ("M", f"{ly.m_sup.hi:.6g}", "alpha", f"{ly.alpha.hi:.4g}"))
        rows.insert(4, ("B1", f"{ly.b_one.hi:.6g}", "k_iter", str(ly.k_iter)))
    lines = [f"{'Inputs':<24}{'Outputs'}"]
    for a, av, c, cv in rows:
        lines.append(f"{a:<8}{av:<16}{c:<8}{cv}")
    if isinstance(ly, LYCoefficientsBV):
        lines.append("power-bound constant C_i = 1 (mass norm)")
    else:
        lines.append(f"power-bound constant C_i = M^2 = {(ly.m_sup * ly.m_sup).hi:.6g}")
    data = {
        "mode": cert.mode,
        "map_id": cert.map_id,
        "k": cert.k,
        # the assembly has no threshold, so nu is always 0.0; the key stays
        # because the README documents this key set and the benchmark's
        # artifact check (perfbench/checks.py) requires every key of it
        "nu": 0.0,
        "eps": cert.eps,
        "eps_num": cert.eps_num,
        "nnz_max": cert.nnz_max,
        "l": cert.l,
        "n_eps": cert.n_eps,
        "n_true": cert.n_true,
        "lambda": lam,
        "b_prime": b_prime,
        "b": b,
        "err_components": {
            "discretization": cert.err_discretization,
            "matrix": cert.err_matrix,
            "numeric": cert.err_numeric,
        },
        "eps_rig": cert.eps_rig,
        "lyap": None if lyap is None else {"lo": lyap.lo, "hi": lyap.hi},
    }
    return CertificateReport(text="\n".join(lines), data=data)
