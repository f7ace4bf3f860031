"""Fixed-vector enclosure soundness and contraction-certificate semantics."""

import itertools
import logging
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from rigdens import _csr, enclosure
from rigdens._csr import CSR
from rigdens.enclosure import (
    NotContractingError,
    contraction_sweep,
    fixed_point_bound,
)
from rigdens.hatbasis import LinfMatrix, assemble_linearized
from rigdens.intervals import Interval, iv
from rigdens.ulam import TransitionMatrix, assemble_ulam, markovize

from tests.csr_records import dense_csr


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
    csr = dense_csr(np.full((3, 3), 1 / 3))
    tm = TransitionMatrix(k=3, csr=csr, eps=0.0, nnz_max=3)
    cert, dens = contraction_sweep(tm, 1e-4)
    assert dens.l == 1
    assert cert.n_eps == 1
    assert cert.n_true == 1
    assert np.allclose(dens.values, 1 / 3, atol=1e-15)


def test_sweep_stops_at_n_true(caplog):
    # the anchor (e_0 - e_1) of [[3/4, 1/4], [1/4, 3/4]] has norm 2^(1-t)
    # after t steps: 1/2 plus a positive drift fails at t = 2, 1/4 passes
    # at t = 3, and the sweep runs no step beyond that.  Its norm 1 at t = 1,
    # an exact sum of two terms, is summed upward to R = 1 + 2^-52, so the
    # witness sets measured_from = 1.  With 7/8 in place of 3/4 the norm is
    # 2 (3/4)^t: above R^t up to t = 2, so the witness sets measured_from
    # = 3, and 0.47 passes at t = 5.  Each step's record says whether its
    # norm was measured; an unmeasured step logs the a-priori norm 2 h^_t
    for p, n_true, measured_from in ((0.75, 3, 1), (0.875, 5, 3)):
        caplog.clear()
        tm = TransitionMatrix(k=2, csr=dense_csr([[p, 1 - p], [1 - p, p]]),
                              eps=0.0, nnz_max=2)
        with caplog.at_level(logging.INFO, logger="rigdens.enclosure"):
            cert, _ = contraction_sweep(tm, 0.03)
        steps = [r for r in caplog.records if hasattr(r, "step")]
        assert cert.n_true == n_true
        assert cert.measured_from == measured_from
        assert [r.step for r in steps] == list(range(1, n_true + 1))
        assert [r.measured for r in steps] == [r.step >= measured_from
                                               for r in steps]
        a_priori = enclosure._model(tm).a_priori_norms(measured_from - 1)
        assert [r.max_norm for r in steps if not r.measured] == a_priori
        assert all(r.max_norm >= 2.0 for r in steps if not r.measured)


def test_zero_sum_bound_vs_bruteforce():
    """On a 4x4 stochastic matrix the V-restricted 1-norm is attained at a
    scaled difference of basis vectors; the sweep's anchored bound must
    dominate."""
    rng = np.random.default_rng(99)
    m = dyadic_stochastic(rng, k=4)
    # inflation 2*4*eps = 0.128 puts n_true at 3 (bounds 0.81, 0.26, 0.10),
    # so the certificate keeps the bounds for t = 1..3
    tm = TransitionMatrix(k=4, csr=dense_csr(m), eps=0.016, nnz_max=4)
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
    infl = mk.step_error
    assert bounds[cert.n_true - 1] + cert.n_true * infl <= 0.5


def test_inflation_rounded_up(tripling):
    # 2 * nnz_max * eps with nnz_max = 3 rounds below 6 eps to nearest
    eps = 6.405920704482397e-11
    mk = replace(markovize(assemble_ulam(tripling, 9)), eps=eps)
    contraction_sweep(mk, 1e-4)
    assert mk.nnz_max == 3
    assert F(mk.step_error) >= 6 * F(eps)
    assert enclosure._model(mk).inflation == mk.step_error


def test_sup_inflation_rounded_up(quadrupling):
    # 2 M^2 (eps + lin_err) rounds below its exact value to nearest
    m_sup, eps, lin_err = 1.652, 7.31e-11, 1.751e-13
    mk = replace(markovize(assemble_linearized(quadrupling, 8)),
                 m_sup=m_sup, eps=eps, lin_err=lin_err)
    contraction_sweep(mk, 1e-5)
    assert F(mk.step_error) >= 2 * F(m_sup) ** 2 * (F(eps) + F(lin_err))
    assert enclosure._model(mk).inflation == mk.step_error


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
        tm = TransitionMatrix(k=8, csr=dense_csr(mat), eps=0.0, nnz_max=8)
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
    # the default rule cuts 2047 anchors into 15 blocks of 128 and one of 127
    monkeypatch.setattr(enclosure, "_usable_cpus", lambda: 2)
    k = 2048
    assert enclosure._block_columns(k) == 128
    mk = markovize(assemble_ulam(eq6, k))
    default = contraction_sweep(mk, 1e-4)
    assert_same_sweep(default, sweep_in_blocks(monkeypatch, mk, k - 1))
    assert_same_sweep(default, sweep_in_blocks(monkeypatch, mk, 7))


def test_block_rule(monkeypatch):
    monkeypatch.setattr(enclosure, "_usable_cpus", lambda: 2)
    # the entry budget of 4 MiB from k = 8192 on
    assert enclosure._block_columns(8192) == 128
    assert enclosure._block_columns(8193) == 127
    # 128 anchors below it, whatever a CPU's share
    assert enclosure._block_columns(4096) == 128
    assert enclosure._block_columns(2048) == 128
    assert enclosure._block_columns(1024) == 128
    assert enclosure._block_columns(512) == 128
    # the witness's 16 columns where 16 of k rows pass the budget
    assert enclosure._block_columns(1 << 17) == 16
    # one CPU's share of 19 anchors
    assert enclosure._block_columns(20) == 9
    monkeypatch.setattr(enclosure, "_usable_cpus", lambda: 64)
    assert enclosure._block_columns(1024) == 15


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_block_rule_invariants(cpus, monkeypatch):
    # the blocks cover the anchors 1 .. k - 1 once each, every CPU gets one
    # wherever there are as many anchors as CPUs, and a block stays in the
    # entry budget, or in the witness's 16 columns where 16 of k rows pass it
    monkeypatch.setattr(enclosure, "_usable_cpus", lambda: cpus)
    for k in (9, 20, 100, 512, 1024, 2048, 4096, 8192, 8193, 1 << 17):
        width = enclosure._block_columns(k)
        blocks = [range(a, min(a + width, k)) for a in range(1, k, width)]
        assert [j for b in blocks for j in b] == list(range(1, k))
        assert len(blocks) >= min(cpus, k - 1)
        assert 1 <= width <= max(enclosure._BLOCK_ENTRIES // k,
                                 enclosure._WITNESS)


def record_product_kinds(monkeypatch):
    """Patch _run_batch and _step to record, per block run, whether each of
    its products had a sparse operand; returns the list it fills.  A thread
    runs one block at a time, so each block's products land in its own
    thread's list; the witness's products, outside any block, are not
    recorded."""
    run_batch, step = enclosure._run_batch, enclosure._step
    blocks, local = [], threading.local()

    def step_spy(at32, v, out):
        if getattr(local, "kinds", None) is not None:
            local.kinds.append(isinstance(v, CSR))
        return step(at32, v, out)

    def spy(*args):
        local.kinds = []
        try:
            out = run_batch(*args)
        finally:
            blocks.append(local.kinds)
            local.kinds = None
        return out

    monkeypatch.setattr(enclosure, "_step", step_spy)
    monkeypatch.setattr(enclosure, "_run_batch", spy)
    return blocks


def record_block_norms(monkeypatch):
    """Patch _run_batch and _Model.col_norms to record, per block run, its
    output (the largest norm of each step) and the column norms of each
    measured step, one column per anchor, keyed by the block's first
    anchor; returns the dict it fills.  As in record_product_kinds, the
    witness's norms, outside any block, are not recorded."""
    run_batch, col_norms = enclosure._run_batch, enclosure._Model.col_norms
    runs, local = {}, threading.local()

    def norms_spy(model, v, spare=None):
        out = col_norms(model, v, spare)
        if getattr(local, "norms", None) is not None:
            local.norms.append(out.copy())
        return out

    def spy(model, ids, *args):
        local.norms = []
        try:
            out = run_batch(model, ids, *args)
            runs[int(ids[0])] = (out, np.array(local.norms))
        finally:
            local.norms = None
        return out

    monkeypatch.setattr(enclosure._Model, "col_norms", norms_spy)
    monkeypatch.setattr(enclosure, "_run_batch", spy)
    return runs


def _family_matrix(request, name, k):
    m = request.getfixturevalue(name)
    if name == "sinmap":
        return markovize(assemble_linearized(m, k))
    return markovize(assemble_ulam(m, k))


@pytest.mark.parametrize("name,k", [
    ("eq4", 512), ("eq6", 512), ("eq7", 512), ("lanford2", 256),
    ("sinmap", 512),
])
def test_sparse_phase_matches_dense(name, k, request, monkeypatch):
    # some block switches from sparse to dense partway, and the anchor
    # norms equal those of a sweep dense from step 1 and of one sparse
    # throughout, anchor for anchor: each block's output and each measured
    # step's column norms
    model = enclosure._model(_family_matrix(request, name, k))
    blocks = record_product_kinds(monkeypatch)
    runs = record_block_norms(monkeypatch)
    switched = enclosure._anchor_norms(model)
    switched_runs = dict(runs)
    assert any(kinds[0] and not kinds[-1] for kinds in blocks)
    for fill, kind in ((-1.0, False), (math.inf, True)):
        blocks.clear()
        runs.clear()
        monkeypatch.setattr(enclosure, "_SPARSE_FILL", fill)
        again = enclosure._anchor_norms(model)
        assert np.array_equal(again[0], switched[0])
        assert again[1:] == switched[1:]
        assert runs.keys() == switched_runs.keys()
        for start, (out, norms) in switched_runs.items():
            assert np.array_equal(runs[start][0], out)
            assert np.array_equal(runs[start][1], norms)
        assert all(set(kinds) == {kind} for kinds in blocks)


def test_eq6_blocks_start_sparse(eq6, monkeypatch):
    # EQ6 at k = 2048 in blocks of 128 anchors, the width of eq6-k8192's
    # blocks: every block steps sparse until its fill passes _SPARSE_FILL,
    # then dense to its stop
    monkeypatch.setattr(enclosure, "_block_columns", lambda k: 128)
    blocks = record_product_kinds(monkeypatch)
    radius = enclosure._Model.radius
    read = []

    def radius_spy(model, v, p, c):
        read.append((model.at.data.dtype, v.dtype, p.dtype))
        return radius(model, v, p, c)

    monkeypatch.setattr(enclosure._Model, "radius", radius_spy)
    _, dens = contraction_sweep(markovize(assemble_ulam(eq6, 2048)), 1e-4)
    # the anchors step in float32; the fixed vector and its radius do not
    assert dens.values.dtype == np.float64
    assert read and set(read) == {(np.dtype(np.float64),) * 3}
    assert len(blocks) == -(-2047 // 128)
    for kinds in blocks:
        n_sparse = kinds.count(True)
        assert 1 <= n_sparse < len(kinds)
        assert kinds == [True] * n_sparse + [False] * (len(kinds) - n_sparse)


@pytest.mark.parametrize("name", ["eq4", "eq6", "eq7", "lanford2", "sinmap"])
def test_step_matches_matmul(name, request):
    # the dense product written into a buffer of stale values has exactly
    # the bits of at32 @ v in scipy.sparse, one column wide or many
    model = enclosure._model(_family_matrix(request, name, 256))
    at32 = model.at32
    at32_scipy = sparse.csr_matrix((at32.data, at32.indices, at32.indptr),
                                   shape=at32.shape)
    rng = np.random.default_rng(5)
    for width in (1, 17, 128):
        v = rng.standard_normal((256, width)).astype(np.float32)
        v[rng.random(v.shape) < 0.5] = 0.0
        out = np.full_like(v, np.nan)
        out[::3] = 7.0
        got = enclosure._step(model.at32, v, out)
        assert got is out
        assert np.array_equal(out.view(np.uint32),
                              (at32_scipy @ v).view(np.uint32))
    # a target the kernel could not write in place is refused
    v = np.ones((256, 4), dtype=np.float32)
    for out in (np.empty((256, 3), np.float32), np.empty((256, 4)),
                np.empty((4, 256), np.float32).T):
        with pytest.raises(ValueError, match="C-contiguous"):
            enclosure._step(model.at32, v, out)


def test_dense_steps_allocate_no_block(eq6, monkeypatch):
    # EQ6 at k = 2048 in one block of 128 anchors, dense from step 1: once
    # warmed, a run of the block to step 8 allocates less than one block's
    # bytes
    monkeypatch.setattr(enclosure, "_SPARSE_FILL", -1.0)
    k, width = 2048, 128
    model = enclosure._model(markovize(assemble_ulam(eq6, k)))
    ids = np.arange(1, width + 1)
    bufs = [np.empty(k * width, np.float32) for _ in range(2)]
    warm = enclosure._run_batch(model, ids, 8, 1, bufs)
    tracemalloc.start()
    try:
        again = enclosure._run_batch(model, ids, 8, 1, bufs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, warm)
    assert peak < k * width * np.dtype(np.float32).itemsize


def test_warm_sup_sweep_buffers_sized_by_blocks(sinmap, monkeypatch):
    # SINMAP at k = 1024 on 2 CPUs steps blocks of 128 anchors, so each
    # thread's pair of buffers holds 2 x 1024 x 128 float32 entries: a warm
    # _anchor_norms allocates under 3 MiB in all, where blocks of 512, one
    # per CPU, would hold 8 MiB of buffers
    monkeypatch.setattr(enclosure, "_usable_cpus", lambda: 2)
    model = enclosure._model(markovize(assemble_linearized(sinmap, 1024)))
    warm = enclosure._anchor_norms(model)
    tracemalloc.start()
    try:
        again = enclosure._anchor_norms(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again[0], warm[0])
    assert again[1:] == warm[1:]
    assert peak < 3 << 20


def spy_block_runs(monkeypatch):
    """Patch _run_batch to record (first anchor, steps) of each block run;
    returns the list it fills."""
    run_batch, runs = enclosure._run_batch, []

    def spy(*args):
        out = run_batch(*args)
        runs.append((int(args[1][0]), len(out)))
        return out

    monkeypatch.setattr(enclosure, "_run_batch", spy)
    return runs


def test_blocks_step_once_to_the_horizon(lanford2, monkeypatch):
    # at k = 128 LANFORD2's witness sets measured_from = 5 and the horizon
    # N = 6: each block of 16 anchors steps once to 6, to the certificate
    # of one block, also the blocks whose own bound passes at 5
    mk = markovize(assemble_ulam(lanford2, 128))
    one_block = sweep_in_blocks(monkeypatch, mk, 127)
    runs = spy_block_runs(monkeypatch)
    assert_same_sweep(one_block, sweep_in_blocks(monkeypatch, mk, 16))
    assert (one_block[0].measured_from, one_block[0].n_true) == (5, 6)
    assert sorted(runs) == [(start, 6) for start in range(1, 128, 16)]


def test_under_read_horizon_costs_one_round(lanford2, monkeypatch):
    # a witness that reads N - 1 (forced here) sends every block round
    # once more, one step further, to the certificate of one block
    mk = markovize(assemble_ulam(lanford2, 128))
    one_block = sweep_in_blocks(monkeypatch, mk, 127)
    witness = enclosure._witness

    def early(model, bufs):
        horizon, measured_from = witness(model, bufs)
        return horizon - 1, measured_from

    monkeypatch.setattr(enclosure, "_witness", early)
    runs = spy_block_runs(monkeypatch)
    assert_same_sweep(one_block, sweep_in_blocks(monkeypatch, mk, 16))
    assert sorted(steps for _, steps in runs) == [5] * 8 + [6] * 8


def test_anchor_outside_the_witness_never_contracts(monkeypatch):
    # every state but 2 maps uniformly onto 32 states that leave out 2, and
    # 2 maps to itself: the anchors e_0 - e_j, j != 2, vanish at step 1,
    # where the witness (2 is not among its anchors) passes, but e_0 - e_2
    # keeps norm 2.  After one more step the horizon doubles up to _J_MAX,
    # and each anchor steps fewer than 4 _J_MAX times in all
    k, j_max = 64, 40
    monkeypatch.setattr(enclosure, "_J_MAX", j_max)
    rows = np.zeros((k, k))
    rows[:, [0, 1, *range(3, 33)]] = 1 / 32
    rows[2] = np.eye(k)[2]
    witness, horizons = enclosure._witness, []

    def spy(model, bufs):
        horizons.append(witness(model, bufs))
        return horizons[-1]

    monkeypatch.setattr(enclosure, "_witness", spy)
    runs = spy_block_runs(monkeypatch)
    with pytest.raises(NotContractingError):
        sweep_in_blocks(monkeypatch, _matrix(rows, "L1"), 16)
    assert horizons == [(1, 1)]
    rounds = sorted({steps for _, steps in runs})
    assert rounds == [1, 2, 4, 8, 16, 32, 40]
    assert sorted(runs) == sorted((start, steps) for start in range(1, k, 16)
                                  for steps in rounds)
    # the witness's one step, and every round
    assert 1 + sum(rounds) < 4 * j_max


def test_global_fallback_matches_one_block(eq6, monkeypatch):
    # the global test fails at the horizon (forced here): every block steps
    # one step further in one more round, to the one-block certificate
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
    # two rounds; the sweep reads the second one's record as it passed
    n = one_block[0].n_true
    assert calls == [n, n + 1]


@pytest.mark.parametrize("name", ["tripling", "eq4", "eq6", "eq7", "lanford",
                                  "lanford2"])
def test_witness_only_saves_time(name, request, monkeypatch):
    # against a sweep that measures every step, the witness's steps keep
    # n_eps, n_true, l and the radius caps R^t of the steps before
    # measured_from, whose a-priori bounds lie above the measured ones; a
    # measured bound is at or above the all-measured one (its drift is
    # charged on the a-priori norms), by at most 1e-5
    m = request.getfixturevalue(name)
    witness = enclosure._witness
    for k in (64, 128, 256, 512, 1024, 2048):
        mk = markovize(assemble_ulam(m, k))
        cert, dens = contraction_sweep(mk, 1e-4)
        with monkeypatch.context() as every_step:
            every_step.setattr(enclosure, "_witness", lambda model, bufs: (
                witness(model, bufs)[0], 1))
            measured, measured_dens = contraction_sweep(mk, 1e-4)
        assert measured.measured_from == 1 < cert.measured_from
        assert (cert.n_eps, cert.n_true, dens.l) == (
            measured.n_eps, measured.n_true, measured_dens.l)
        powers = itertools.islice(enclosure._model(mk).powers(), 1, None)
        for t, (b, b_all, power) in enumerate(zip(
                cert.per_step_bounds, measured.per_step_bounds, powers), 1):
            if t < cert.measured_from:
                assert b >= b_all
                assert min(b, power) == min(b_all, power) == power
            else:
                assert 0.0 <= b - b_all <= 1e-5


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
    tm = TransitionMatrix(k=4, csr=dense_csr(m), eps=0.0, nnz_max=2)
    monkeypatch.setattr(enclosure, "_J_MAX", 32)
    with pytest.raises(NotContractingError):
        contraction_sweep(tm, 1e-4)


def test_non_stochastic_matrix_raises():
    # row 0 sums to 1.5: the anchor's 1-norm grows from step 1 to step 2
    m = np.array([[0.9, 0.6], [0.5, 0.5]])
    tm = TransitionMatrix(k=2, csr=dense_csr(m), eps=0.0, nnz_max=2)
    with pytest.raises(ValueError, match="not row-stochastic"):
        contraction_sweep(tm, 1e-4)


@pytest.mark.parametrize("rows", [
    # rows sum to 1, but an entry is negative
    [[1.5, -0.5], [0.5, 0.5]],
    # row 0 sums to 1 + 2^-52: one ulp, far inside any float slack
    [[0.5, 0.5 + 2.0 ** -52], [0.5, 0.5]],
])
def test_row_stochastic_check_is_exact(rows):
    # in both norms, whose ledgers both charge delta = 2^-53
    for norm_kind in ("L1", "Linf"):
        with pytest.raises(ValueError, match="not row-stochastic"):
            contraction_sweep(_matrix(np.array(rows), norm_kind), 1e-4)


@pytest.mark.parametrize("name,markov", [
    ("eq4", True), ("eq6", True), ("eq7", True), ("lanford2", True),
    ("sinmap", True), ("sinmap", False),
])
def test_row_defect_bounds_exact_row_sums(name, markov, request):
    # delta = 2^-53 rounded up is at least every exact |row sum - 1| of a
    # markovized matrix, whose correctly rounded row sums are all 1
    # (SINMAP's exact sums miss 1 by up to 1.006e-16 at k = 256); a raw
    # matrix, whose rounded sums miss 1, is refused in either norm
    m = request.getfixturevalue(name)
    matrix = (assemble_linearized if name == "sinmap" else assemble_ulam)(m, 256)
    if not markov:
        with pytest.raises(ValueError, match="not row-stochastic"):
            enclosure._model(matrix)
        return
    matrix = markovize(matrix)
    delta = F(enclosure._model(matrix).row_defect)
    csr = matrix.csr
    exact = [sum(map(F, csr.data[a:b].tolist()))
             for a, b in zip(csr.indptr[:-1], csr.indptr[1:])]
    assert max(abs(x - 1) for x in exact) <= delta
    assert delta == F(math.nextafter(2.0 ** -53, 1.0))


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
    """The transition matrix of rows, of the type of norm_kind (a sup-norm
    matrix with no linearization error and M = 1)."""
    k = len(rows)
    fields = dict(k=k, csr=dense_csr(rows), eps=0.0, nnz_max=k)
    if norm_kind == "L1":
        return TransitionMatrix(**fields)
    return LinfMatrix(**fields, lin_err=0.0, m_sup=1.0)


def _exact_distance(values, exact, norm_kind):
    k = len(values)
    if norm_kind == "L1":
        return sum(abs(F(float(v)) - e) for v, e in zip(values, exact))
    return max(abs(F(float(v)) - k * e) for v, e in zip(values, exact))


def _slow_sup(w):
    """A 6-state sup-norm case: a cycle of (1 - w, w) rows with one row
    [0.1, 0.1, 0.8].  Its largest column sum R = 1.7375 grows far faster
    than ||Pi^t|| (about 1.3), so a drift or a radius carried by R^t never
    lets it certify (w = 1/16 mixes in 57 steps, w = 1/32 in 108)."""
    rows = np.zeros((6, 6))
    rows[np.arange(6), np.arange(6)] = 1 - w
    rows[np.arange(6), (np.arange(6) + 1) % 6] = w
    rows[1] = [0.1, 0.1, 0.8, 0, 0, 0]
    return rows, "Linf"


_SLOW_SUP = _slow_sup(1 / 16)


@settings(max_examples=150, deadline=None)
@given(_stochastic_cases(), st.integers(0, 40),
       st.lists(st.integers(1, 8), min_size=6, max_size=6))
@example(_SLOW_SUP, 0, [1] * 6)
@example(_slow_sup(1 / 32), 40, [1, 8, 1, 8, 1, 8])
def test_residual_radius_contains_exact_fixed_vector(case, t, start):
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
    start = np.array(start[:k], dtype=float)  # k <= 6
    v = start * (model.scale / start.sum())
    for _ in range(t):
        v = _csr.matvec(model.at, v)
    radius = model.radius(v, _csr.matvec(model.at, v), cert.per_step_bounds[:cert.n_eps])
    assert _exact_distance(v, exact, norm_kind) <= F(radius)


_ETA = 2.0 ** -1074
_TINY = st.integers(1, 8).map(lambda n: n * _ETA)


@st.composite
def _residual_cases(draw):
    """(rows, v): nonnegative rows whose fsum is 1, each on its own
    support (column counts from 1 to k), some with subnormal entries, and a
    signed v: any floats, positive subnormals only (products that all
    underflow the same way), or the result of power steps from either
    (v Pi near v, so that p - v is exact)."""
    k = draw(st.integers(2, 6))
    d = 1 << _DENOM_BITS
    rows = np.zeros((k, k))
    for i in range(k):
        cols = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k,
                             unique=True))
        cuts = draw(st.lists(st.integers(1, d - 1), min_size=len(cols) - 1,
                             max_size=len(cols) - 1, unique=True))
        rows[i, cols] = np.diff([0, *sorted(cuts), d]) / d
        for j in draw(st.lists(st.integers(0, k - 1), max_size=2)):
            if rows[i, j] == 0.0:
                rows[i, j] = draw(_TINY)  # the fsum stays 1
    floats = st.one_of(st.floats(-4.0, 4.0), _TINY, _TINY.map(lambda x: -x))
    v = np.array(draw(st.lists(draw(st.sampled_from([floats, _TINY])),
                               min_size=k, max_size=k)))
    for _ in range(draw(st.sampled_from([0, 40]))):
        v = v @ rows
    return rows, v


@settings(max_examples=300, deadline=None)
@given(_residual_cases())
# column 0 adds three products eta/2, each rounded to 0: the float
# residual misses the exact one by 3 eta/2, which only C_j eta covers
@example(([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.25, 0.25]],
          [_ETA] * 3))
# column 0 holds one entry, and its one rounded product needs gamma_1:
# p_0 = fl(0.75 fl(1/3)) = 1/4 = v_0 misses 0.75 fl(1/3) by 2^-56, and
# p_0 - v_0 = 0 is exact
@example(([[0.0, 1.0], [0.75, 0.25]], [0.25, 1 / 3]))
def test_residual_encloses_exact_residual(case):
    # every element of v Pi - v, in rationals, lies in the enclosure that
    # the radius reads, from p = fl(v Pi)
    rows, v = np.array(case[0]), np.array(case[1])
    model = enclosure._model(_matrix(rows, "L1"))
    r = model.residual(v, _csr.matvec(model.at, v))
    exact = [[F(x) for x in row] for row in rows.tolist()]
    for j in range(len(v)):
        got = sum(F(v[i]) * exact[i][j] for i in range(len(v))) - F(v[j])
        assert F(r.lo[j]) <= got <= F(r.hi[j])


@settings(max_examples=150, deadline=None)
@given(_stochastic_cases())
@example(_SLOW_SUP)
@example(_slow_sup(1 / 32))
# in L1 the witness sets measured_from = 23 (n_eps = 40): the a-priori
# bounds of steps 1 to 22 against the exact anchors
@example((_SLOW_SUP[0], "L1"))
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


_NORM = st.floats(0.0, 64.0)


@settings(max_examples=150, deadline=None)
@given(_stochastic_cases(), st.lists(st.tuples(_NORM, _NORM), min_size=1,
                                     max_size=24))
@example((_SLOW_SUP[0], "L1"), [(0.0, 0.0), (2.0, 0.0), (0.25, 1e-300)])
@example(_SLOW_SUP, [(6.0, 0.0), (0.5, 2.0 ** -40), (0.0, 64.0)])
def test_bounds_increase_with_the_norm_record(case, steps):
    # the lemma that puts the witness's horizon at or before N: a record
    # at least as large at every step gives bounds at least as large at
    # every step, in L1 and in the sup norm
    model = enclosure._model(_matrix(*case))
    low = [a for a, _ in steps]
    high = [a + d for a, d in steps]  # rounds to at least a
    for lo, hi in zip(model.bounds(low), model.bounds(high)):
        assert lo <= hi


def _ledger_cases(eq6):
    rng = np.random.default_rng(7)
    yield enclosure._model(_matrix(dyadic_stochastic(rng, k=8), "L1"))
    yield enclosure._model(markovize(assemble_ulam(eq6, 64)))
    yield enclosure._model(_matrix(*_SLOW_SUP))


def test_fresh_error_recomputed_exactly(eq6):
    # the fresh error of a float32 anchor step and the drift built from it,
    # recomputed in rationals: (gamma_C (1 + u) + u) R ||v|| for the
    # product and the float32 entries, and (1 + gamma_C) eta/2 k (||v|| +
    # C s) for entries and products below float32's normal range, each
    # step charged on the half-anchor it steps: s (e_0 - e_j)/2 first (norm
    # s in L1, s/2 in the sup norm), then half the last full-anchor norm
    u, eta = F(2) ** -24, F(2) ** -149
    norm_max = [1.9, 1.2, 0.7, 0.3]
    for model in _ledger_cases(eq6):
        k = model.at.shape[0]
        c, s, r = F(model.col_count), F(model.scale), F(model.op_norm)
        gamma = c * u / (1 - c * u)
        under = (1 + gamma) * eta / 2 * k
        rate, floor = (gamma * (1 + u) + u) * r + under, under * c * s
        for x in (0.0, 1e-3, 1.0, 2.5, model.scale):
            assert F(model.fresh(x)) >= rate * F(x) + floor
        rho = None if model.growth is None else model.growth.upto(len(norm_max))
        drift, steps = F(0), []
        half = s if model.norm_kind == "L1" else s / 2
        for t, (m, bound) in enumerate(zip(norm_max, model.bounds(norm_max)), 1):
            steps.append(rate * half + floor)
            if rho is None:
                drift = drift * r + steps[-1]
            else:
                drift = sum(e * F(g) for e, g in zip(steps, rho[t - 1::-1]))
            assert F(bound) >= F(m) + 2 * drift
            half = F(m) / 2


@pytest.mark.parametrize("name", ["eq6", "sinmap"])
def test_fresh_error_covers_float32_steps(name, request):
    # executable oracle of the fresh error: float32 blocks of half-anchors
    # s (e_0 - e_j)/2 stepped as the sweep steps them, and each column's
    # exact error ||fl(v Pi32) - v Pi|| in rationals against fresh(||v||),
    # with ||v|| the measured norm the drift ledger charges
    k = 32
    model = enclosure._model(_family_matrix(request, name, k))
    at = model.at
    rows = [[(int(c), F(float(x))) for c, x in
             zip(at.indices[at.indptr[i]:at.indptr[i + 1]],
                 at.data[at.indptr[i]:at.indptr[i + 1]])] for i in range(k)]
    v = np.zeros((k, k - 1), dtype=np.float32)
    v[0] = 0.5 * model.scale
    v[np.arange(1, k), np.arange(k - 1)] = -0.5 * model.scale
    for _ in range(6):
        y = enclosure._step(model.at32, v, np.empty_like(v))
        charged = model.col_norms(v)
        for j in range(k - 1):
            x = [F(float(e)) for e in v[:, j]]
            err = [abs(F(float(y[i, j])) - sum(a * x[c] for c, a in rows[i]))
                   for i in range(k)]
            size = sum(err) if model.norm_kind == "L1" else max(err)
            assert size <= F(model.fresh(float(charged[j])))
        v = y


def test_fresh_error_infinite_when_c_u_reaches_one(monkeypatch):
    # gamma_C = C u / (1 - C u) has no finite bound once C u >= 1: with u
    # raised to 1/8, a dense 8-state matrix (C = 8) can never certify
    monkeypatch.setattr(enclosure, "_U32", 1 / 8)
    monkeypatch.setattr(enclosure, "_J_MAX", 4)
    tm = _matrix(np.full((8, 8), 1 / 8), "L1")
    model = enclosure._model(tm)
    assert model.fresh_rate == model.fresh_floor == math.inf
    with pytest.raises(NotContractingError):
        contraction_sweep(tm, 1e-4)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 128, 1000])
def test_sum_up_encloses_row_order_and_pairwise_sums(n):
    # nonnegative terms summed in row order (a running sum) and pairwise
    # (numpy's sum of a contiguous array): in rationals, the exact sum is
    # at most _sum_up, which is at most s (1 + gamma_(n-1)) two ulps up.
    # 1 followed by n - 1 terms 2^-53 has the row-order sum 1, the case
    # that meets the bound (n - 1) u S
    rng = np.random.default_rng(n)
    u = F(enclosure._U)
    gamma = F(n - 1) * u / (1 - F(n - 1) * u)
    for x in (rng.random(n), rng.random(n) * 2.0 ** rng.integers(-60, 60, n),
              np.r_[1.0, np.full(n - 1, 2.0 ** -53)]):
        exact = sum(map(F, x.tolist()), F(0))
        for s in (np.cumsum(x)[-1], x.sum()):
            bound = F(float(enclosure._sum_up(s, n)))
            assert exact <= bound <= F(float(s)) * (1 + gamma) * (1 + 2 * u) ** 2
    # an exact sum reads at most one ulp high, and a single term exactly
    assert enclosure._sum_up(1.0, 2) == 1.0 + 2.0 ** -52
    assert enclosure._sum_up(0.75, 1) == 0.75
    assert enclosure._sum_up(0.0, n) == 0.0


@pytest.mark.parametrize("norm_kind", ["L1", "Linf"])
def test_col_norms_of_float32_blocks(norm_kind):
    # float32 columns whose float32 sums would drop the small entries: the
    # column norms are float64 upper bounds of the exact sums (maxima
    # exact), equal bit for bit whether the block is dense, one column
    # wide or CSR
    rng = np.random.default_rng(3)
    v = rng.standard_normal((40, 5)).astype(np.float32)
    v[:, 0] = 2.0 ** -25
    v[0, 0] = 1.0
    v[::3, 1] = -(2.0 ** -26)
    v[5:9, 2] = 0.0
    model = enclosure._model(_matrix(np.full((2, 2), 0.5), norm_kind))
    blocks = {
        "dense": model.col_norms(v),
        "one column": np.concatenate([model.col_norms(v[:, [j]])
                                      for j in range(v.shape[1])]),
        "CSR": model.col_norms(dense_csr(v)),
    }
    for got in blocks.values():
        assert got.dtype == np.float64
        assert np.array_equal(got, blocks["dense"])
    for j, col in enumerate(v.T.tolist()):
        if norm_kind == "L1":
            assert F(blocks["dense"][j]) >= sum(abs(F(x)) for x in col)
        else:
            assert blocks["dense"][j] == max(map(abs, col))


def test_sup_growth_shared_by_threads():
    # more threads than cores extend one model's rho table at once, with a
    # short switch interval: each gets the table a lone caller builds
    alone = enclosure._model(_matrix(*_SLOW_SUP)).growth.upto(64)
    growth = enclosure._model(_matrix(*_SLOW_SUP)).growth
    got = [None] * 8

    def extend(i):
        got[i] = growth.upto(8 + 7 * i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extend, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert all(g == alone[:9 + 7 * i] for i, g in enumerate(got))
    assert growth.upto(64) == alone


# -- the fixed-point lemma ---------------------------------------------------

_LEMMA_FLOAT = st.one_of(st.just(0.0), st.floats(1e-100, 1e3))


@settings(max_examples=300, deadline=None)
@given(c=st.lists(_LEMMA_FLOAT, min_size=1, max_size=40),
       alpha=st.floats(0.0, 1.5), defect=_LEMMA_FLOAT)
@example(c=[1.0] * 7, alpha=0.5, defect=0.1)
@example(c=[0.1] * 3, alpha=1.0, defect=1.0)
@example(c=[0.1], alpha=math.nextafter(1.0, 0.0), defect=0.1)
def test_fixed_point_bound_against_rationals(c, alpha, defect):
    """At least (defect sum c)/(1 - alpha) in rationals and at most a few
    ulps above it; inf once 1 - alpha is not positive."""
    got = fixed_point_bound(c, alpha, defect)
    if alpha >= 1.0:
        assert got == math.inf
        return
    exact = F(defect) * sum(map(F, c)) / (1 - F(alpha))
    assert F(got) >= exact
    # one upward rounding per addition, product, difference and quotient
    assert F(got) <= exact * (1 + (len(c) + 3) * F(2) ** -52)


def test_fixed_point_bound_reads_upper_ends():
    # interval inputs: the upper ends of c and the defect, the lower end
    # of 1 - alpha
    got = fixed_point_bound([Interval(0.5, 1.0), iv(1)], Interval(0.25, 0.5),
                            Interval(0.0, 3.0))
    assert got == 12.0
    assert fixed_point_bound([1.0], Interval(0.5, 1.0), 1.0) == math.inf


def test_fixed_point_bound_rejects_empty_c():
    with pytest.raises(ValueError, match="at least one"):
        fixed_point_bound([], 0.5, 1.0)
