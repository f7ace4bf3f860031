"""Acceptance gate: one test per criterion, each printing a verdict line.

Desk-scale parameters: the reference runs use k = 2^20 on a cluster; here
coefficient and table checks run at full fidelity (they are k-independent
or arithmetic-only) while enclosure sweeps use k <= 2^13.
"""

import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from scipy import sparse

from rigdens.cli import parse_map
from rigdens.certify import certify_l1, certify_linf, lyapunov
from rigdens import enclosure
from rigdens.enclosure import contraction_sweep
from rigdens.hatbasis import assemble_linearized
from rigdens.intervals import Interval, iv
from rigdens.maps import ly_coefficients_bv, ly_coefficients_lip
from rigdens.ulam import TransitionMatrix, assemble_ulam, markovize

from tests.conftest import EQ4, EQ6, EQ7, LANFORD2, SINMAP, TRIPLING
from tests.hat_reference import HatBasis, project_hat
from tests.test_ulam import exact_linear_ulam
from tests.test_enclosure import dyadic_stochastic, exact_fixed_vector


def _verdict(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: exact-exponent containment --------------------------------

@pytest.fixture(scope="module")
def eq6_run():
    m = parse_map(EQ6).build()
    ly = ly_coefficients_bv(m)
    matrix = markovize(assemble_ulam(m, 4096))
    contraction, density = contraction_sweep(matrix, 1e-4)
    cert = certify_l1(ly, matrix, contraction, density, eps_num=1e-4,
                      map_id="17x/5 mod 1")
    lyap = lyapunov(m, density, cert)
    return m, matrix, contraction, density, cert, lyap


def test_criterion_1_exact_exponent(eq6_run):
    _, _, _, _, cert, lyap = eq6_run
    with mpmath.workdps(50):
        target = mpmath.log(17) - mpmath.log(5)
        ok = mpmath.mpf(lyap.lo) < target < mpmath.mpf(lyap.hi)
    _verdict(
        "1 (exact exponent, k=4096)", ok,
        f"L_exp in [{lyap.lo:.6f}, {lyap.hi:.6f}], ln(17/5) = 1.2237754...",
    )


# -- criterion 2: coefficient reproduction ----------------------------------

_REFERENCE_TABLE = {
    "lanford2": (LANFORD2, 0.3234, 7.019, 19.88),
    "eq4": (EQ4, 1 / 3, 10.67, 32.03),
    "eq6": (EQ6, 5 / 17, 17.0, 41.47),
    "eq7": (EQ7, 1 / 3, 18.22, 54.69),
}


@pytest.mark.parametrize("name", list(_REFERENCE_TABLE))
def test_criterion_2_coefficients(name):
    text, lam_p, bprime_p, b_p = _REFERENCE_TABLE[name]
    m = parse_map(text).build()
    ly = ly_coefficients_bv(m)
    lam, bprime, b = ly.lam.hi, ly.b_prime.hi, ly.b.hi
    devs = (
        abs(lam - lam_p) / lam_p,
        abs(bprime - bprime_p) / bprime_p,
        abs(b - b_p) / b_p,
    )
    if name == "eq6":
        # reference B = 41.47 vs B'/(1-2*lambda) = 41.2857: 0.5% formula gap
        print("\nwarning: eq6 table B deviates 0.5% from B'/(1-2*lambda)")
    detail = (
        f"{name}: computed (lambda, B', B) = ({lam:.4f}, {bprime:.4f}, {b:.4f})"
        f" vs reference ({lam_p:.4f}, {bprime_p:.4f}, {b_p:.4f})"
        f" rel. dev. {tuple(round(d, 4) for d in devs)}"
    )
    _verdict(f"2 ({name})", all(d < 0.01 for d in devs), detail)


# -- criterion 3: error-formula reproduction --------------------------------

_TABLE_RUNS = [
    ("lanford2", 19.88, 18, 17, 10, 3e-11, 1e-4, 0.0016),
    ("eq4", 32.03, 14, 13, 8, 1e-12, 1e-4, 0.0019),
    ("eq6", 41.47, 14, 13, 7, 1.75e-10, 1e-4, 0.0026),
    ("eq7", 54.69, 15, 14, 7, 2.19e-11, 1e-4, 0.004),
]


def test_criterion_3_error_formula():
    from rigdens.enclosure import ContractionCertificate, EnclosedDensity
    from rigdens.maps import LYCoefficientsBV

    k = 2**20
    results = []
    for name, b, n, n_eps, nnz, eps, eps_num, expected in _TABLE_RUNS:
        ly = LYCoefficientsBV(lam=iv(0.32), b_prime=iv(b) * iv(0.36), b=iv(b),
                              min_branch_len=iv(0.1), distortion=iv(0.0))
        matrix = TransitionMatrix(k=k, csr=sparse.csr_matrix(np.eye(2)),
                                  eps=eps, nnz_max=nnz)
        contraction = ContractionCertificate(n_eps=n_eps, n_true=n,
                                             per_step_bounds=[0.4],
                                             inflation_per_step=0.0,
                                             norm_kind="L1")
        # the table's eps_rig includes eps_num as its numeric term
        density = EnclosedDensity(values=np.array([1.0]), radius=eps_num, l=0,
                                  norm_kind="L1")
        cert = certify_l1(ly, matrix, contraction, density,
                          eps_num=eps_num, map_id=name)
        rel = abs(cert.eps_rig - expected) / expected
        results.append((name, cert.eps_rig, expected, rel))
    ok = all(rel < 0.20 for _, _, _, rel in results)
    detail = "; ".join(
        f"{n}: {got:.5f} vs {exp} ({rel:.1%})" for n, got, exp, rel in results
    )
    _verdict("3 (error formula, 20%)", ok, detail)


# -- criterion 4: exact-matrix oracle ----------------------------------------

@pytest.fixture(scope="module")
def tripling_runs():
    m = parse_map(TRIPLING).build()
    out = {}
    for k in (3, 9, 81):
        matrix = markovize(assemble_ulam(m, k))
        contraction, density = contraction_sweep(matrix, 1e-4)
        out[k] = (matrix, contraction, density)
    return m, out


def test_criterion_4_exact_matrix(tripling_runs):
    m, runs = tripling_runs
    ok = True
    details = []
    for k, (matrix, contraction, density) in runs.items():
        oracle = exact_linear_ulam(F(3), k)
        coo = matrix.csr.tocoo()
        got = {(int(i), int(j)): v for i, j, v in zip(coo.row, coo.col, coo.data)}
        exact = set(got) == set(oracle) and all(
            abs(got[key] - float(oracle[key])) <= math.ulp(1.0)
            for key in oracle
        )
        # Lebesgue is the exact fixed vector: the enclosure must contain it
        err = sum(abs(F(float(v)) - F(1, k)) for v in density.values)
        uniform = err <= F(density.radius)  # the radius, as charged
        ok = ok and exact and matrix.eps < 1e-15 and uniform
        details.append(f"k={k}: exact={exact} eps={matrix.eps:.2g}")
    n_eps_3 = runs[3][1].n_eps
    ok = ok and n_eps_3 == 1
    details.append(f"N_eps(k=3)={n_eps_3}")
    _verdict("4 (exact tripling matrices)", ok, "; ".join(details))


# -- criterion 5: enclosure soundness ----------------------------------------

def test_criterion_5_enclosure_soundness(monkeypatch):
    monkeypatch.setattr(enclosure, "_J_MAX", 5000)
    rng = np.random.default_rng(20240817)
    failures = 0
    for _ in range(1000):
        mat = dyadic_stochastic(rng)
        tm = markovize(TransitionMatrix(k=8, csr=sparse.csr_matrix(mat),
                                        eps=0.0, nnz_max=8))
        cert, dens = contraction_sweep(tm, 1e-6)
        exact = exact_fixed_vector(tm.csr.toarray())
        err = sum(abs(F(float(v)) - e) for v, e in zip(dens.values, exact))
        if err > F(dens.radius):  # the radius, as charged
            failures += 1
    _verdict("5 (1000 random 8x8 enclosures)", failures == 0,
             f"{failures} containment failures")


# -- criterion 6: contraction-certificate semantics ---------------------------

def test_criterion_6_threshold_semantics(eq6_run, tripling_runs):
    _, _, contraction6, _, _, _ = eq6_run
    _, runs = tripling_runs
    checks = []
    for label, c in [("eq6@4096", contraction6)] + [
        (f"tripling@{k}", runs[k][1]) for k in runs
    ]:
        at = c.per_step_bounds[c.n_eps - 1] <= 0.5
        before = c.n_eps == 1 or c.per_step_bounds[c.n_eps - 2] > 0.5
        checks.append((label, at, before))
    ok = all(a and b for _, a, b in checks)
    _verdict("6 (N_eps minimality)", ok,
             "; ".join(f"{l}: at={a} before={b}" for l, a, b in checks))


# -- criterion 7: sup-norm pipeline -------------------------------------------

def test_criterion_7_sup_norm_pipeline():
    m = parse_map(SINMAP).build()
    ly = ly_coefficients_lip(m)
    k = 8192
    matrix = markovize(assemble_linearized(m, k))
    contraction, density = contraction_sweep(matrix, 1e-5)
    cert = certify_linf(ly, matrix, contraction, density,
                        eps_num=1e-5, map_id="4x+0.01sin(8pix)")
    lyap = lyapunov(m, density, cert)
    finite = math.isfinite(cert.eps_rig)
    intersects = lyap.lo <= 1.392 and lyap.hi >= 1.380

    # independent oracle: 1e6-point midpoint quadrature of log|T'| v
    xs = (np.arange(1_000_000) + 0.5) / 1_000_000
    deriv = 4.0 + 0.08 * math.pi * np.cos(8.0 * math.pi * xs)
    nodes = np.arange(k + 1) / k
    vals = np.append(density.values, density.values[0])
    v_interp = np.interp(xs, nodes, vals)
    oracle = float(np.mean(np.log(np.abs(deriv)) * v_interp))
    contains = lyap.lo <= oracle <= lyap.hi

    ok = finite and intersects and contains
    _verdict(
        "7 (sup-norm pipeline, k=8192)", ok,
        f"eps_rig={cert.eps_rig:.4f} L_exp=[{lyap.lo:.4f},{lyap.hi:.4f}] "
        f"oracle={oracle:.6f} reference window [1.380,1.392]",
    )


# -- criterion 8: property suites ---------------------------------------------

def test_criterion_8a_interval_containment():
    rng = random.Random(818)
    violations = 0
    trials = 100_000
    for _ in range(trials):
        mag = 10.0 ** rng.uniform(-6, 6)
        a1, a2 = sorted((rng.uniform(-mag, mag), rng.uniform(-mag, mag)))
        b1, b2 = sorted((rng.uniform(-mag, mag), rng.uniform(-mag, mag)))
        x, y = Interval(a1, a2), Interval(b1, b2)
        px, py = rng.uniform(a1, a2), rng.uniform(b1, b2)
        op = rng.randrange(4)
        if op == 0:
            r, exact = x + y, F(px) + F(py)
        elif op == 1:
            r, exact = x - y, F(px) - F(py)
        elif op == 2:
            r, exact = x * y, F(px) * F(py)
        else:
            if y.contains_zero():
                continue
            r, exact = x / y, F(px) / F(py)
        if not (F(r.lo) <= exact <= F(r.hi)):
            violations += 1
    _verdict("8a (interval containment, 1e5 trials)", violations == 0,
             f"{violations} violations")


def test_criterion_8b_hat_properties():
    basis = HatBasis(32)
    rng = np.random.default_rng(88)
    pou_bad = sum(
        abs(sum(basis.eval_hat(i, x) for i in range(32)) - 1.0) > 2 * math.ulp(1.0)
        for x in rng.uniform(0, 1, size=10_000)
    )
    prop_bad = 0
    for _ in range(1000):
        k = int(rng.integers(4, 64))
        f = np.cumsum(rng.uniform(-1, 1, size=k))
        f -= np.linspace(0, f[-1] + rng.uniform(-1, 1), k)
        c = project_hat(f)
        lip = np.abs(np.diff(np.append(f, f[0]))).max() * k
        lip_c = np.abs(np.diff(np.append(c, c[0]))).max() * k
        if lip_c > lip * (1 + 1e-12):
            prop_bad += 1
        if np.abs(c).max() > np.abs(f).max() * (1 + 1e-12):
            prop_bad += 1
        if np.abs(c - f).max() > lip / k * (1 + 1e-12):
            prop_bad += 1
    _verdict("8b (partition of unity + projection properties)",
             pou_bad == 0 and prop_bad == 0,
             f"pou violations={pou_bad}, projection violations={prop_bad}")


def test_criterion_8c_row_stochasticity(eq6_run, tripling_runs):
    failures = []
    mats = [eq6_run[1]] + [runs[0] for runs in tripling_runs[1].values()]
    m = parse_map(SINMAP).build()
    mats.append(markovize(assemble_linearized(m, 256)))
    mats.append(markovize(assemble_ulam(parse_map(EQ4).build(), 64)))
    for matrix in mats:
        sums = matrix.row_sums()
        if np.abs(sums - 1.0).max() > math.ulp(1.0):
            failures.append(matrix.k)
    _verdict("8c (row stochasticity to 1 ulp)", not failures,
             f"failing matrices at k={failures}" if failures else "all exact")
