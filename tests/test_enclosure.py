"""Fixed-vector enclosure soundness and contraction-certificate semantics."""

import logging
import threading
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from rigdens import enclosure
from rigdens.enclosure import (
    NotContractingError,
    contraction_sweep,
)
from rigdens.hatbasis import LinfMatrix, assemble_linearized
from rigdens.ulam import TransitionMatrix, assemble_ulam, markovize


def dyadic_stochastic(rng, k=8, denom_bits=11):
    """Random row-stochastic matrix with exactly float-representable
    entries j/2^denom_bits, every entry positive."""
    d = 1 << denom_bits
    rows = []
    for _ in range(k):
        cuts = sorted(rng.choice(np.arange(1, d), size=k - 1, replace=False))
        parts = np.diff([0, *cuts, d])
        rows.append(parts / d)
    return np.array(rows)


def exact_fixed_vector(mat: np.ndarray):
    """Independent oracle: rational dense solve of v^T Pi = v^T, sum v = 1."""
    k = mat.shape[0]
    a = [[F(mat[j][i]) for j in range(k)] for i in range(k)]  # Pi^T
    for i in range(k):
        a[i][i] -= 1
    for j in range(k):
        a[k - 1][j] = F(1)
    rhs = [F(0)] * (k - 1) + [F(1)]
    # Gaussian elimination with partial pivoting over the rationals
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        rhs[col] *= inv
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                rhs[r] -= f * rhs[col]
    return rhs


def test_rank_one_contracts_immediately():
    csr = sparse.csr_matrix(np.full((3, 3), 1 / 3))
    tm = TransitionMatrix(k=3, csr=csr, eps=0.0, nnz_max=3)
    cert, dens = contraction_sweep(tm, 1e-4)
    assert dens.l == 1
    assert cert.n_eps == 1
    assert cert.n_true == 1
    assert np.allclose(dens.values, 1 / 3, atol=1e-15)


def test_sweep_stops_at_n_true(caplog):
    # the anchor (e_0 - e_1) of [[3/4, 1/4], [1/4, 3/4]] has norm 2^(1-t)
    # after t steps: 1/2 plus a positive drift fails at t = 2, 1/4 passes
    # at t = 3, and the sweep runs no step beyond that
    tm = TransitionMatrix(k=2, csr=sparse.csr_matrix([[0.75, 0.25], [0.25, 0.75]]),
                          eps=0.0, nnz_max=2)
    with caplog.at_level(logging.INFO, logger="rigdens.enclosure"):
        cert, _ = contraction_sweep(tm, 0.03)
    steps = [r for r in caplog.records if hasattr(r, "step")]
    assert cert.n_true == 3
    assert [r.step for r in steps] == [1, 2, 3]


def test_zero_sum_bound_vs_bruteforce():
    """On a 4x4 stochastic matrix the V-restricted 1-norm is attained at a
    scaled difference of basis vectors; the sweep's anchored bound must
    dominate."""
    rng = np.random.default_rng(99)
    m = dyadic_stochastic(rng, k=4)
    # inflation 2*4*eps = 0.128 puts n_true at 3 (bounds 0.81, 0.26, 0.10),
    # so the certificate keeps the bounds for t = 1..3
    tm = TransitionMatrix(k=4, csr=sparse.csr_matrix(m), eps=0.016, nnz_max=4)
    bounds = contraction_sweep(tm, 1e-4)[0].per_step_bounds
    assert len(bounds) >= 3
    for t in (1, 2, 3):
        mt = np.linalg.matrix_power(m, t)
        brute = max(
            np.abs(mt[i] - mt[j]).sum() / 2.0
            for i in range(4)
            for j in range(i + 1, 4)
        ) * 2 / 2  # ||M^t (e_i - e_j)||_1 / ||e_i - e_j||_1 with norm 2
        assert bounds[t - 1] >= brute - 1e-12


def test_threshold_semantics(eq6):
    mk = markovize(assemble_ulam(eq6, 64))
    cert, dens = contraction_sweep(mk, 1e-4)
    bounds = cert.per_step_bounds
    assert bounds[cert.n_eps - 1] <= 0.5
    if cert.n_eps > 1:
        assert bounds[cert.n_eps - 2] > 0.5
    assert cert.n_eps <= cert.n_true
    infl = cert.inflation_per_step
    assert bounds[cert.n_true - 1] + cert.n_true * infl <= 0.5


def test_inflation_rounded_up(tripling):
    # 2 * nnz_max * eps with nnz_max = 3 rounds below 6 eps to nearest
    eps = 6.405920704482397e-11
    mk = replace(markovize(assemble_ulam(tripling, 9)), eps=eps)
    cert, _ = contraction_sweep(mk, 1e-4)
    assert mk.nnz_max == 3
    assert F(mk.step_error) >= 6 * F(eps)
    assert cert.inflation_per_step == mk.step_error


def test_sup_inflation_rounded_up(quadrupling):
    # 2 M^2 (eps + lin_err) rounds below its exact value to nearest
    m_sup, eps, lin_err = 1.652, 7.31e-11, 1.751e-13
    mk = replace(markovize(assemble_linearized(quadrupling, 8)),
                 m_sup=m_sup, eps=eps, lin_err=lin_err)
    cert, _ = contraction_sweep(mk, 1e-5)
    assert F(mk.step_error) >= 2 * F(m_sup) ** 2 * (F(eps) + F(lin_err))
    assert cert.inflation_per_step == mk.step_error


def test_norm_monotone_under_stochastic_action():
    rng = np.random.default_rng(4)
    m = dyadic_stochastic(rng, k=8)
    v = rng.standard_normal(8)
    v -= v.mean()
    prev = np.abs(v).sum()
    for _ in range(30):
        v = v @ m
        cur = np.abs(v).sum()
        assert cur <= prev * (1 + 1e-12)
        prev = cur


def test_enclosure_soundness_sample(monkeypatch):
    monkeypatch.setattr(enclosure, "_J_MAX", 5000)
    rng = np.random.default_rng(12345)
    for _ in range(100):
        mat = dyadic_stochastic(rng)
        tm = TransitionMatrix(k=8, csr=sparse.csr_matrix(mat), eps=0.0, nnz_max=8)
        mk = markovize(tm)
        cert, dens = contraction_sweep(mk, 1e-6)
        exact = exact_fixed_vector(mk.csr.toarray())
        err = sum(abs(F(float(v)) - e) for v, e in zip(dens.values, exact))
        # the charged numeric error is the enclosure radius
        assert dens.radius <= 1e-6
        assert err <= F(dens.radius)


def assert_same_sweep(a, b):
    (cert1, dens1), (cert2, dens2) = a, b
    assert cert1.n_eps == cert2.n_eps
    assert cert1.n_true == cert2.n_true
    assert cert1.per_step_bounds == cert2.per_step_bounds
    assert dens1.l == dens2.l
    assert dens1.radius == dens2.radius
    assert (dens1.values == dens2.values).all()


def sweep_in_blocks(monkeypatch, matrix, width):
    """contraction_sweep(matrix, 1e-4) with blocks of width anchors."""
    monkeypatch.setattr(enclosure, "_block_columns", lambda k: width)
    return contraction_sweep(matrix, 1e-4)


def test_block_width_determinism(eq6, monkeypatch):
    mk = markovize(assemble_ulam(eq6, 64))
    default = contraction_sweep(mk, 1e-4)
    # 63 anchors: blocks of 7 divide them, blocks of 2 leave a one-column
    # block at the end, blocks of 1 are all one column wide
    for width in (7, 2, 1):
        assert_same_sweep(default, sweep_in_blocks(monkeypatch, mk, width))


def test_blocked_sweep_matches_one_block(eq6, monkeypatch):
    # the default rule cuts 2047 anchors into blocks of 512, 512, 512, 511
    monkeypatch.setattr(enclosure, "_usable_cpus", lambda: 2)
    k = 2048
    assert enclosure._block_columns(k) == 512
    mk = markovize(assemble_ulam(eq6, k))
    default = contraction_sweep(mk, 1e-4)
    assert_same_sweep(default, sweep_in_blocks(monkeypatch, mk, k - 1))
    assert_same_sweep(default, sweep_in_blocks(monkeypatch, mk, 7))


def test_block_rule(monkeypatch):
    monkeypatch.setattr(enclosure, "_usable_cpus", lambda: 2)
    assert enclosure._block_columns(8192) == 128
    # one block per CPU below the cache cap
    assert enclosure._block_columns(1024) == 512
    assert enclosure._block_columns(1 << 17) == 16
    assert enclosure._block_columns(20) == 16
    monkeypatch.setattr(enclosure, "_usable_cpus", lambda: 64)
    assert enclosure._block_columns(1024) == 16


def test_blocks_restepped_to_largest_stop(lanford2, monkeypatch):
    # at k = 256 LANFORD2's blocks of 16 anchors stop at 5 and at 6; those
    # that stop at 5 are stepped again to 6, to the same certificate as one
    # block
    mk = markovize(assemble_ulam(lanford2, 256))
    one_block = sweep_in_blocks(monkeypatch, mk, 255)
    run_batch = enclosure._run_batch
    stops, restepped = [], []

    def spy(model, ids, first):
        out = run_batch(model, ids, first)
        (stops if first == 1 else restepped).append(len(out))
        return out

    monkeypatch.setattr(enclosure, "_run_batch", spy)
    assert_same_sweep(one_block, sweep_in_blocks(monkeypatch, mk, 16))
    assert one_block[0].n_true == 6
    assert sorted(set(stops)) == [5, 6]
    assert restepped == [6] * stops.count(5)


def test_late_restep_pulls_blocks_along(lanford2, monkeypatch):
    # a re-stepped block that passes only after the largest stop (forced
    # here by asking it for a pass from 7 on instead of 6) sends the other
    # blocks round again to its stop, to the same certificate as one block
    mk = markovize(assemble_ulam(lanford2, 256))
    one_block = sweep_in_blocks(monkeypatch, mk, 255)
    run_batch = enclosure._run_batch
    lock = threading.Lock()
    firsts = []

    def late_once(model, ids, first):
        with lock:
            firsts.append(first)
            if first == 6 and firsts.count(6) == 1:
                first = 7
        return run_batch(model, ids, first)

    monkeypatch.setattr(enclosure, "_run_batch", late_once)
    assert_same_sweep(one_block, sweep_in_blocks(monkeypatch, mk, 16))
    assert 7 in firsts


def test_global_fallback_matches_one_block(eq6, monkeypatch):
    # every block passes N's test alone but the global test (global drift)
    # fails at the largest stop: the search resumes one step later and
    # must give the one-block certificate
    mk = markovize(assemble_ulam(eq6, 64))
    one_block = sweep_in_blocks(monkeypatch, mk, 63)
    first_passing = enclosure._first_passing
    calls = []

    def fail_first(bounds, model):
        calls.append(len(bounds))
        n_eps, n_true = first_passing(bounds, model)
        return (n_eps, None) if len(calls) == 1 else (n_eps, n_true)

    monkeypatch.setattr(enclosure, "_first_passing", fail_first)
    assert_same_sweep(one_block, sweep_in_blocks(monkeypatch, mk, 7))
    assert calls == [one_block[0].n_true, one_block[0].n_true + 1]


def test_radius_above_eps_num_raises(tripling, monkeypatch):
    # the tripling matrix contracts at once, but no enclosure radius is
    # as small as 1e-300: _J_MAX power steps, then NotContractingError
    monkeypatch.setattr(enclosure, "_J_MAX", 20)
    mk = markovize(assemble_ulam(tripling, 27))
    with pytest.raises(NotContractingError, match="radius .* above eps_num"):
        contraction_sweep(mk, 1e-300)


def test_block_error_reaches_caller_unchanged(eq6, monkeypatch):
    mk = markovize(assemble_ulam(eq6, 64))
    run_batch = enclosure._run_batch
    calls = []
    lock = threading.Lock()
    boom = RuntimeError("block 3 failed")

    def failing_third(*args):
        with lock:
            calls.append(None)
            n = len(calls)
        if n == 3:
            raise boom
        return run_batch(*args)

    monkeypatch.setattr(enclosure, "_run_batch", failing_third)
    with pytest.raises(RuntimeError) as excinfo:
        sweep_in_blocks(monkeypatch, mk, 7)
    assert excinfo.value is boom


def test_non_contracting_raises(monkeypatch):
    # two disjoint invariant blocks: anchors across blocks never contract
    block = np.full((2, 2), 0.5)
    m = np.zeros((4, 4))
    m[:2, :2] = block
    m[2:, 2:] = block
    tm = TransitionMatrix(k=4, csr=sparse.csr_matrix(m), eps=0.0, nnz_max=2)
    monkeypatch.setattr(enclosure, "_J_MAX", 32)
    with pytest.raises(NotContractingError):
        contraction_sweep(tm, 1e-4)


def test_non_stochastic_matrix_raises():
    # row 0 sums to 1.5: the anchor's 1-norm grows from step 1 to step 2
    m = np.array([[0.9, 0.6], [0.5, 0.5]])
    tm = TransitionMatrix(k=2, csr=sparse.csr_matrix(m), eps=0.0, nnz_max=2)
    with pytest.raises(ValueError, match="not row-stochastic"):
        contraction_sweep(tm, 1e-4)


@pytest.mark.parametrize("rows", [
    # rows sum to 1, but an entry is negative
    [[1.5, -0.5], [0.5, 0.5]],
    # row 0 sums to 1 + 2^-52: one ulp, far inside any float slack
    [[0.5, 0.5 + 2.0 ** -52], [0.5, 0.5]],
])
def test_row_stochastic_check_is_exact(rows):
    tm = TransitionMatrix(k=2, csr=sparse.csr_matrix(np.array(rows)),
                          eps=0.0, nnz_max=2)
    with pytest.raises(ValueError, match="not row-stochastic"):
        contraction_sweep(tm, 1e-4)


_DENOM_BITS = 20


@st.composite
def _stochastic_cases(draw):
    """(rows, norm_kind): a small row-stochastic matrix of exact floats.

    Kinds: a mixture of the identity, the cyclic shift and a random
    permutation with dyadic weights (doubly stochastic, so the sup-norm
    sweep certifies it too), or random dyadic rows in L1; two such blocks
    joined by a leak of 2^-e per row (near-reducible, mixing over about
    2^e steps); either of the first plus one row whose fsum is 1 but whose
    exact sum is not: three float(1/3) entries (1 - 2^-54), or
    [0.1, 0.1, 0.8] (1 + 2^-54).  The sup norm runs at density scale."""
    norm_kind = draw(st.sampled_from(["L1", "Linf"]))
    kind = draw(st.sampled_from(["mixed", "leaky", "thirds", "tenths"]))
    d = 1 << _DENOM_BITS

    def parts(n, total):
        # n positive parts on a grid of total/16: every weight is at least
        # 1/16 of the total, which keeps mixing within the step budget
        cuts = draw(st.lists(st.integers(1, 15), min_size=n - 1,
                             max_size=n - 1, unique=True))
        return np.diff([0, *sorted(c * (total // 16) for c in cuts), total])

    def mixture(k, total):
        if norm_kind == "L1" and draw(st.booleans()):
            return np.array([parts(k, total) for _ in range(k)])
        perm = draw(st.permutations(range(k)))
        out = np.zeros((k, k), dtype=np.int64)
        for w, cols in zip(parts(3, total),
                           (range(k), [(i + 1) % k for i in range(k)], perm)):
            out[np.arange(k), list(cols)] += w
        return out

    if kind == "leaky":
        m = draw(st.integers(1, 3))
        leak = d >> draw(st.integers(1, 7))
        ints = np.zeros((2 * m, 2 * m), dtype=np.int64)
        ints[:m, :m] = mixture(m, d - leak) if m > 1 else d - leak
        ints[m:, m:] = mixture(m, d - leak) if m > 1 else d - leak
        ints[np.arange(2 * m), (np.arange(2 * m) + m) % (2 * m)] = leak
        return ints / d, norm_kind
    k = draw(st.integers(2 if kind == "mixed" else 3, 6))
    rows = mixture(k, d) / d
    if kind != "mixed":
        odd = [1 / 3] * 3 if kind == "thirds" else [0.1, 0.1, 0.8]
        rows[draw(st.integers(0, k - 1))] = odd + [0.0] * (k - 3)
    return rows, norm_kind


def _matrix(rows, norm_kind):
    """The transition matrix of rows, of the type of norm_kind."""
    cls = TransitionMatrix if norm_kind == "L1" else LinfMatrix
    k = len(rows)
    return cls(k=k, csr=sparse.csr_matrix(rows), eps=0.0, nnz_max=k)


def _exact_distance(values, exact, norm_kind):
    k = len(values)
    if norm_kind == "L1":
        return sum(abs(F(float(v)) - e) for v, e in zip(values, exact))
    return max(abs(F(float(v)) - k * e) for v, e in zip(values, exact))


@settings(max_examples=150, deadline=None)
@given(_stochastic_cases(), st.integers(0, 40), st.data())
def test_residual_radius_contains_exact_fixed_vector(case, t, data):
    rows, norm_kind = case
    k = len(rows)
    tm = _matrix(rows, norm_kind)
    # k - 1 fixed-point equations plus mass 1: the target of the bound when
    # a row's exact sum is not 1
    exact = exact_fixed_vector(rows)
    with mock.patch.object(enclosure, "_J_MAX", 5000):
        cert, dens = contraction_sweep(tm, 1e-6)
    assert dens.radius <= 1e-6
    assert _exact_distance(dens.values, exact, norm_kind) <= F(dens.radius)

    # the same bound for t power steps from a random start, still far from
    # the fixed vector: there the radius is not a rounding ledger, and on
    # two states it equals ||r|| / (1 - C_1), the exact distance
    model = enclosure._model(tm)
    start = np.array(data.draw(st.lists(st.integers(1, 8), min_size=k,
                                        max_size=k)), dtype=float)
    v = start * (model.scale / start.sum())
    for _ in range(t):
        v = model.at @ v
    radius = model.radius(v, model.at @ v, cert.per_step_bounds[:cert.n_eps])
    assert _exact_distance(v, exact, norm_kind) <= F(radius)


@settings(max_examples=150, deadline=None)
@given(_stochastic_cases())
def test_sweep_bounds_dominate_exact_anchor_norms(case):
    rows, norm_kind = case
    k = len(rows)
    tm = _matrix(rows, norm_kind)
    with mock.patch.object(enclosure, "_J_MAX", 5000):
        cert, _ = contraction_sweep(tm, 1e-6)

    # R bounds the exact ||Pi||: the largest row sum in L1, the largest
    # column sum in the sup norm
    exact = [[F(x) for x in row] for row in rows.tolist()]
    sums = exact if norm_kind == "L1" else zip(*exact)
    assert F(enclosure._model(tm).op_norm) >= max(sum(map(abs, s)) for s in sums)

    # the exact anchors (e_0 - e_j) Pi^t as integers over 2^(e t), where
    # every entry of Pi is an integer over 2^e
    e = max(x.denominator for row in exact for x in row).bit_length() - 1
    pi = [[int(x * 2 ** e) for x in row] for row in exact]
    anchors = [[(i == 0) - (i == j) for i in range(k)] for j in range(1, k)]
    for t, bound in enumerate(cert.per_step_bounds, start=1):
        anchors = [[sum(a[i] * pi[i][c] for i in range(k)) for c in range(k)]
                   for a in anchors]
        if norm_kind == "L1":
            top = max(sum(map(abs, a)) for a in anchors)
        else:  # at density scale
            top = k * max(abs(x) for a in anchors for x in a)
        assert F(bound) >= F(top, 2 ** (e * t))
