"""Assembly of the final certified error bound and the Lyapunov interval.

The distance between the computed density and the true invariant density is
bounded by three nonnegative components, summed with upward rounding:

  * discretization error   2 N (2B/k)                    (mass norm), or the
    sup-norm analogue (2/k) N M ((4/k)D + 2(M+1)M(1+B1/(1-a))) (B+1);
  * matrix error           2 N_eps ||P - Pi|| = 4 N_eps NNZ eps, respectively
    N ||P - Pi|| (||v||_inf + rho) with ||P - Pi|| charged as
    2 M^2 (eps + 4D/k^2); ||P - Pi|| is the matrix's step_error, the
    contraction sweep's per-step inflation;
  * numeric error          rho, the radius of the fixed-vector enclosure:
    M/|sum v| (||r|| + |sum r|) sum_{i<N_eps} C_i / (1 - C_{N_eps} - ...)
    plus the mass defect, from the certified residual r = v Pi - v
    (``rigdens.enclosure``; at most eps_num, in practice about 1e-14).

The Lyapunov exponent integral log|T'| d(mu) is then enclosed against the
computed density: one interval array of per-cell products (the hull of
|T'| over each outward-rounded cell, its log, times the cell weight),
summed by math.fsum of the lower and of the upper ends, each correctly
rounded and then moved one float outward.  The result is inflated by
sup|log|T'|| times the final error bound, which controls the difference
against the true density.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .intervals import IntervalArray, iv
from .maps import LYCoefficientsBV, LYCoefficientsLip, PiecewiseMap
from .enclosure import ContractionCertificate, EnclosedDensity
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


def _up_sum(*terms: float) -> float:
    acc = iv(0)
    for t in terms:
        acc = acc + iv(t)
    return acc.hi


def certify_l1(ly: LYCoefficientsBV, matrix: TransitionMatrix,
               contraction: ContractionCertificate, density: EnclosedDensity,
               eps_num: float, map_id: str = "map") -> Certificate:
    """Mass-norm certificate: ||f - v|| <= 2N(2B/k) + 4 N_eps NNZ eps + rho,
    rho = density.radius; eps_num is recorded as the target rho had to meet."""
    if matrix.norm_kind != "L1" or contraction.norm_kind != "L1":
        raise ValueError("certify_l1 needs L1-mode inputs")
    two_lam = (iv(2) * ly.lam).hi
    if not two_lam < 1.0:
        raise ValueError("2/inf|T'| must stay below 1 for the mass-norm bound")
    n_true = contraction.n_true
    n_eps = contraction.n_eps
    if n_true is None or n_eps is None:
        raise ValueError("contraction certificate incomplete")
    k = matrix.k
    err_disc = (iv(2) * iv(n_true) * (iv(2) * ly.b / iv(k))).hi
    err_mat = (iv(2) * iv(n_eps) * iv(matrix.step_error)).hi
    err_num = density.radius
    eps_rig = _up_sum(err_disc, err_mat, err_num)
    return Certificate(
        mode="L1", map_id=map_id, ly=ly, k=k, eps=matrix.eps,
        eps_num=eps_num, nnz_max=matrix.nnz_max, l=density.l,
        n_eps=n_eps, n_true=n_true,
        err_discretization=err_disc, err_matrix=err_mat, err_numeric=err_num,
        eps_rig=eps_rig,
    )


def certify_linf(ly: LYCoefficientsLip, matrix: LinfMatrix,
                 contraction: ContractionCertificate, density: EnclosedDensity,
                 eps_num: float, map_id: str = "map") -> Certificate:
    """Sup-norm certificate with the linearized-operator error terms; the
    power bound M in the matrix term is matrix.m_sup, and the numeric term
    is density.radius, as in certify_l1."""
    if matrix.norm_kind != "Linf" or contraction.norm_kind != "Linf":
        raise ValueError("certify_linf needs sup-norm inputs")
    if not ly.alpha.hi < 1.0:
        raise ValueError("Lipschitz contraction alpha must stay below 1")
    n_true = contraction.n_true
    n_eps = contraction.n_eps
    k = matrix.k
    m = ly.m_sup
    d = ly.distortion
    bracket = (iv(4) / iv(k)) * d + iv(2) * (m + iv(1)) * m * (
        iv(1) + ly.b_one / (iv(1) - ly.alpha)
    )
    err_disc = ((iv(2) / iv(k)) * iv(n_true) * m * bracket * (ly.b_var + iv(1))).hi
    v_sup = float(np.abs(density.values).max())
    err_mat = (iv(n_true) * iv(matrix.step_error)
               * (iv(v_sup) + iv(density.radius))).hi
    err_num = density.radius
    eps_rig = _up_sum(err_disc, err_mat, err_num)
    return Certificate(
        mode="Linf", map_id=map_id, ly=ly, k=k, eps=matrix.eps,
        eps_num=eps_num, nnz_max=matrix.nnz_max, l=density.l,
        n_eps=n_eps, n_true=n_true,
        err_discretization=err_disc, err_matrix=err_mat, err_numeric=err_num,
        eps_rig=eps_rig,
    )


def lyapunov(m: PiecewiseMap, density: EnclosedDensity,
             cert: Certificate) -> LyapunovResult:
    """Certified enclosure of the Lyapunov exponent of the certified run.

    Integrates the per-cell interval enclosure of log|T'| against the
    enclosed density, then charges sup|log|T'|| times eps_rig for the
    distance to the true invariant density (a sup-norm certificate also
    controls the mass norm on [0,1]).  The k cells are one interval array,
    and the products are summed as the module docstring describes.
    """
    k = cert.k
    i = np.arange(k, dtype=np.float64)
    # outward-rounded cells so the true rational cells are fully covered
    cells = IntervalArray((IntervalArray(i) / k).lo, (IntervalArray(i + 1) / k).hi)
    dr = m.abs_deriv_range_over(cells)
    touching = dr.lo <= 0.0
    if touching.any():
        raise ValueError(f"|T'| enclosure touches 0 over cell {np.argmax(touching)}")
    vals = IntervalArray(density.values)
    if density.norm_kind == "L1":
        weights = vals
    else:
        weights = (vals + IntervalArray(np.roll(density.values, -1))) / 2 / k
    terms = dr.log() * weights
    total_lo = math.nextafter(math.fsum(terms.lo.tolist()), -math.inf)
    total_hi = math.nextafter(math.fsum(terms.hi.tolist()), math.inf)
    sup_d = m.abs_deriv_sup
    inf_d = m.abs_deriv_inf
    if inf_d.lo <= 0.0:
        raise ValueError("|T'| enclosure touches 0")
    log_mag = max(abs(sup_d.log().hi), abs(inf_d.log().lo))
    slack = (iv(log_mag) * iv(cert.eps_rig)).hi
    estimate = 0.5 * (total_lo + total_hi)
    half = max((iv(total_hi) - iv(estimate)).hi, (iv(estimate) - iv(total_lo)).hi)
    return LyapunovResult(estimate=estimate, radius=_up_sum(half, slack))


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
