"""Eigenvalue tracking: matching, degeneracy gauge, bisection, full runs."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgesdd

from maxwell_rb import rb, tracking
from maxwell_rb.assembly import ParametrizedSystem, assemble
from maxwell_rb.bench import setup_problem
from maxwell_rb.config import default_config, with_overrides
from maxwell_rb.errors import ConfigError, TrackingError
from maxwell_rb.mesh import build_mesh
from maxwell_rb.rb import ReducedBasis, _make_evaluator
from maxwell_rb.eigen import solve_sparse_gevp
from maxwell_rb.tracking import (_degenerate_clusters,
                                 _greedy_match, _hungarian_match, _walk_match,
                                 _surviving_free, _track, track_full,
                                 track_reduced)

from oracles import (reference_degenerate_clusters, reference_greedy_match,
                     reference_sliced_clusters, reference_split_clusters,
                     reference_surviving_free, reference_track)


def _groups(values):
    """The groups of one spectrum: a stack of one."""
    return _degenerate_clusters(values[None])[0]


def _grouped(solve):
    """solve's (values, vectors, inner) with the groups of values, the
    solution _track takes."""
    def grouped(t):
        values, vectors, inner = solve(t)
        return values, vectors, inner, _groups(values)
    return grouped


class TestMatching:
    def test_greedy_square(self):
        C = np.array([[0.9, 0.2], [0.8, 0.3]])
        perm, corrs = _greedy_match(C)
        # global max (0,0) first, row 1 takes the leftover column
        assert perm.tolist() == [0, 1]
        assert corrs.tolist() == [0.9, 0.3]

    def test_greedy_rectangular_buffer(self):
        C = np.array([[0.1, 0.95, 0.2, 0.1],
                      [0.1, 0.9, 0.99, 0.1]])
        perm, corrs = _greedy_match(C)
        assert perm.tolist() == [1, 2]
        assert len(set(perm.tolist())) == perm.size
        assert corrs == pytest.approx([0.95, 0.99])

    def test_hungarian_beats_greedy_total(self):
        # greedy grabs 0.9 and is left with 0.1; optimal total is 0.8+0.7
        C = np.array([[0.9, 0.8], [0.7, 0.1]])
        perm_g, corrs_g = _greedy_match(C)
        perm_h, corrs_h = _hungarian_match(C)
        assert perm_g.tolist() == [0, 1]
        assert perm_h.tolist() == [1, 0]
        assert corrs_h.sum() > corrs_g.sum()
        assert sorted(perm_h.tolist()) == [0, 1]

    def test_greedy_same_pairs_as_argmax_passes(self):
        # entries from a few levels, so ties within and across rows and
        # columns are common; ties go to the first entry in row-major order
        rng = np.random.default_rng(4)
        for K, extra in ((1, 0), (2, 0), (5, 2), (6, 3), (12, 2)):
            for levels in ([0.0, 1.0], [0.3, 0.5, 0.9, 1.0], None):
                shape = (K, K + extra)
                C = (rng.uniform(0.0, 1.0, shape) if levels is None
                     else rng.choice(levels, shape))
                perm, corrs = _greedy_match(C)
                want_perm, want_corrs = reference_greedy_match(C)
                assert np.array_equal(perm, want_perm)
                assert np.array_equal(corrs, want_corrs)


class TestDegenerateClusters:
    @staticmethod
    def _groups(values):
        return [list(c) for c in _groups(np.array(values))]

    def test_detection(self):
        assert self._groups([1.0, 2.0, 3.0]) == []
        assert self._groups([1.0, 1.0 + 1e-12, 2.0]) == [[0, 1]]
        assert self._groups([5.0, 5.0, 5.0, 9.0, 9.0]) == [[0, 1, 2], [3, 4]]

    def test_same_groups_as_the_loop(self):
        # values drawn from a few levels with offsets on both sides of
        # the relative tolerance, around and below magnitude one
        rng = np.random.default_rng(3)
        for size in (0, 1, 2, 7, 40):
            for scale in (1e-3, 1.0, 50.0):
                levels = rng.choice([0.2, 0.7, 1.0, 3.0], size) * scale
                jitter = rng.choice([0.0, 1e-12, 2e-8, 1e-3], size)
                values = np.sort(levels * (1.0 + jitter))
                got = _groups(values)
                want = reference_degenerate_clusters(values)
                assert [list(g) for g in got] == [w.tolist() for w in want]

    def test_same_groups_as_the_split_at_the_tolerance(self):
        # neighbours a few ulps either side of the relative tolerance,
        # with exact ties, ascending as a solver returns them
        rng = np.random.default_rng(5)
        rtol = tracking._CLUSTER_RTOL
        for _ in range(50):
            base = rng.choice([0.5, 1.0, 26.13, 1e3])
            steps = rng.choice([0.0, rtol, 1.0], 8)
            values = base * np.cumprod(1.0 + steps)
            values *= 1.0 + rng.choice([-4, -1, 0, 1, 4], 8) * 2.0 ** -52
            values = np.sort(values)
            got = _groups(values)
            want = reference_split_clusters(values)
            assert [list(g) for g in got] == [w.tolist() for w in want]


def _ulps(x, k):
    """x moved k floating-point steps (k < 0 toward -inf)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


@st.composite
def _spectra(draw):
    """Ascending spectra, as solvers return them, built as chains of
    exact ties, signed zeros, steps a few ulps either side of the cluster
    tolerance, near-ties inside it and clear gaps."""
    rtol = tracking._CLUSTER_RTOL
    start = draw(st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1e-9, 0.5, 1.0,
                                  26.13, 1e3])
                 | st.floats(-1e4, 1e4, allow_nan=False))
    values = [start]
    for kind in draw(st.lists(st.sampled_from(
            ["tie", "tie", "boundary", "near", "gap", "zero"]), max_size=11)):
        last = values[-1]
        if kind == "tie":
            values.append(last)
        elif kind == "boundary":
            step = rtol * max(abs(last), 1.0)
            k = draw(st.sampled_from([0, 0, 1, -1]) | st.integers(-64, 64))
            values.append(_ulps(last + step, k))
        elif kind == "near":
            values.append(last + draw(st.floats(0.0, 1.0)) * rtol
                          * max(abs(last), 1.0))
        elif kind == "gap":
            values.append(last + draw(st.floats(1e-6, 10.0)))
        else:
            values.append(draw(st.sampled_from([0.0, -0.0])))
    return np.sort(values)


@st.composite
def _overlap_blocks(draw):
    """A c x c block of an overlap matrix P (c = 1..8) as _procrustes
    takes it: P[:, _index(cols)][_index(rows)], a strided view for runs
    of indices and a copy otherwise, from P or from P.T.  P is random,
    built from a few levels (exact ties), of low rank, zero, or holds a
    scaled signed permutation in the block (equal singular values)."""
    c = draw(st.integers(1, 8))
    m, n = draw(st.integers(c, c + 3)), draw(st.integers(c, c + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "levels", "low rank", "zero",
                                 "equal"]))
    if kind == "levels":
        P = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], (m, n))
    elif kind == "low rank":
        r = draw(st.integers(0, c - 1))
        P = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    elif kind == "zero":
        P = np.zeros((m, n))
    else:
        P = rng.standard_normal((m, n))
    picks = []
    for size in (m, n):
        if draw(st.booleans()):
            start = draw(st.integers(0, size - c))
            picks.append(tuple(range(start, start + c)))
        else:
            picks.append(tuple(sorted(draw(st.permutations(range(size)))[:c])))
    rows, cols = picks
    if kind == "equal":
        signs = rng.choice([-1.0, 1.0], c)
        P[np.ix_(rows, cols)] = 0.7 * np.eye(c)[rng.permutation(c)] * signs
    if draw(st.booleans()):
        P = np.asfortranarray(P)    # the layout of P.T in the free loop
    return P[:, tracking._index(cols)][tracking._index(rows)]


class TestLapackSvd:
    """tracking._procrustes calls LAPACK's gesdd through scipy, and the
    frozen loop (oracles.reference_track) calls np.linalg.svd; both run
    gesdd, and this oracle checks that U, s and V^T agree bit for bit on
    the blocks tracking passes.  It documents an assumption about the
    installed numpy and scipy builds that an upgrade could break;
    TestFrozenLoop is the end-to-end guard on whole tracking runs."""

    @settings(max_examples=500, deadline=None)
    @given(_overlap_blocks())
    def test_gesdd_bitwise_numpy_svd(self, T):
        U, s, Vt, info = dgesdd(T)
        assert info == 0
        want = np.linalg.svd(T)
        for got, ref in zip((U, s, Vt), want):
            assert got.shape == ref.shape and np.array_equal(got, ref)


@st.composite
def _correlation_blocks(draw):
    """A K x n block as _greedy_match takes it (K <= n <= K + 3): random
    or from a few levels (ties within and across rows), with row maxima
    sometimes forced into one column, and sometimes a NaN or an infinity
    at a drawn entry."""
    K = draw(st.integers(1, 6))
    n = draw(st.integers(K, K + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        C = rng.choice([0.0, 0.25, 0.5, 0.9, 1.0], (K, n))
    else:
        C = rng.uniform(0.0, 1.0, (K, n))
    if K >= 2 and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        rows = draw(st.lists(st.integers(0, K - 1), min_size=2, max_size=K,
                             unique=True))
        C[rows, j] = C.max() + draw(st.sampled_from([0.0, 0.5]))
    if draw(st.integers(0, 4)) == 0:
        C[draw(st.integers(0, K - 1)), draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return C


class TestDirectMatch:
    """_greedy_match returns the rows' first maxima when they lie in
    distinct columns of a finite block, and otherwise walks; either way
    its pairs are the sorted walk's, bit for bit, ties included."""

    @settings(max_examples=500, deadline=None)
    @given(_correlation_blocks())
    def test_same_pairs_as_the_sorted_walk(self, C):
        walked = []

        def walk(C):
            walked.append(1)
            return _walk_match(C)

        distinct = len(set(C.argmax(axis=1).tolist())) == C.shape[0]
        direct = distinct and bool(np.isfinite(C).all())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracking, "_walk_match", walk)
            perm, corrs = _greedy_match(C)
        assert walked == ([] if direct else [1])
        want_perm, want_corrs = _walk_match(C)
        assert perm.dtype == want_perm.dtype
        assert np.array_equal(perm, want_perm)
        assert np.array_equal(corrs, want_corrs, equal_nan=True)
        if np.isfinite(C).all():
            ref_perm, ref_corrs = reference_greedy_match(C)
            assert np.array_equal(perm, ref_perm)
            assert np.array_equal(corrs, ref_corrs)

    def test_colliding_maxima_and_non_finite_entries_walk(self,
                                                          monkeypatch):
        # rows 0 and 1 share their maximum's column; a NaN or an infinity
        # anywhere sends the block to the walk as well, though the row
        # maxima lie in distinct columns
        walked = []
        monkeypatch.setattr(tracking, "_walk_match",
                            lambda C: walked.append(1) or _walk_match(C))
        assert _greedy_match(np.array([[0.9, 0.2], [0.8, 0.3]]))[0].tolist() \
            == [0, 1]
        for bad in (np.nan, np.inf, -np.inf):
            C = np.array([[0.9, 0.1, bad], [0.2, 0.8, 0.3]])
            perm, corrs = _greedy_match(C)
            want_perm, want_corrs = _walk_match(C)
            assert np.array_equal(perm, want_perm)
            assert np.array_equal(corrs, want_corrs, equal_nan=True)
        assert len(walked) == 4


@st.composite
def _stacked_rotations(draw):
    """A cluster's rotation as _track applies it: P (K x m, from a
    product) over the candidates (n x m, a copy of the solver's
    F-ordered vectors) over their inner products (n x m), every part
    of two or more rows, with the cluster's c columns (c = 2..8) a run
    of indices (a strided view) or scattered (a copy), and R the V or
    V U^T of a c x c block's gesdd.  n reaches the 12^3 brick's 4356
    rows."""
    c = draw(st.integers(2, 8))
    m = draw(st.integers(c, c + 3))
    K = draw(st.integers(c, m))
    n = draw(st.sampled_from([m, m + 1, m + 5, 40, 4356]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors_n = np.asfortranarray(rng.standard_normal((n, m)))
    # a diagonal mass: inner @ vectors_n, C-ordered as a product comes
    W = np.ascontiguousarray(rng.uniform(0.5, 2.0, (n, 1)) * vectors_n)
    P = rng.standard_normal((K, n)) @ W
    if draw(st.booleans()):
        start = draw(st.integers(0, m - c))
        cols = tuple(range(start, start + c))
    else:
        cols = tuple(sorted(draw(st.permutations(range(m)))[:c]))
    U, _, Vt, info = dgesdd(P[:c, list(cols)])
    R = Vt.T if draw(st.booleans()) else Vt.T @ U.T
    return P, vectors_n.copy(), W, cols, R


class TestStackedRotation:
    """_track turns a cluster's columns of P, the candidates and their
    inner products as one stacked block (one product and one store);
    this oracle checks that each part's rows come out bit for bit as
    its own product would give them.  It documents an assumption about
    the installed numpy and BLAS (a one-row part, which _track never
    stacks, goes through the vector kernel and can round differently);
    TestFrozenLoop is the end-to-end guard."""

    @settings(max_examples=200, deadline=None)
    @given(_stacked_rotations())
    def test_stacked_product_bitwise_the_separate_ones(self, case):
        P, vectors_n, W, cols, R = case
        idx = tracking._index(cols)
        block = np.concatenate((P, vectors_n, W))
        block[:, idx] = block[:, idx] @ R
        rows = np.cumsum([0, len(P), len(vectors_n), len(W)])
        for part, lo, hi in zip((P, vectors_n, W), rows, rows[1:]):
            part = part.copy()
            part[:, idx] = part[:, idx] @ R
            assert np.array_equal(block[lo:hi], part)


class TestPerSolutionGrouping:
    """The plain-Python grouping of one solution gives the groups the
    numpy slicing gave."""

    @settings(max_examples=400, deadline=None)
    @given(_spectra())
    def test_same_groups_as_the_numpy_slicing(self, values):
        got = _groups(values)
        assert all(isinstance(group, tuple) for group in got)
        assert ([list(g) for g in got]
                == [w.tolist() for w in reference_sliced_clusters(values)])

    def test_exactly_at_the_tolerance(self):
        # neighbours whose computed gap equals rtol * max(|hi|, 1) to the
        # last bit stay in one group; one ulp more splits them.  Near zero
        # the gap rtol is exact, elsewhere the ulps around it are tried
        rtol = tracking._CLUSTER_RTOL
        found = 0
        for lo in (0.0, -0.0, 2.0 ** -40, -2.0 ** -40, 3 * 2.0 ** -45,
                   -0.75, 0.5, 1.0, 3.0, 26.13, 1e3):
            for k in range(-16, 17):
                hi = _ulps(lo + rtol * max(abs(lo), 1.0), k)
                values = np.array([lo, hi])
                at = hi - lo == rtol * max(abs(hi), 1.0)
                found += at
                got = [list(g) for g in _groups(values)]
                assert got == [w.tolist()
                               for w in reference_sliced_clusters(values)]
                if at:
                    assert got == [[0, 1]]
        assert found >= 3

    @pytest.mark.parametrize("values", [[], [2.0], [0.0, -0.0, 0.0],
                                        [4.0] * 7, [-1.0] * 3 + [5.0]])
    def test_ties_zeros_and_short_inputs(self, values):
        values = np.array(values)
        assert ([list(g) for g in _groups(values)]
                == [w.tolist() for w in reference_sliced_clusters(values)])


class TestSurvivingFree:
    """Free clusters kept at acceptance are cut from the accepted solve's
    own groups."""

    def test_same_as_regrouping_each_free_cluster(self):
        # ascending solves with exact ties and near-ties far inside the
        # tolerance, slots matched to a random injection of candidates
        # and cut into random free clusters
        rng = np.random.default_rng(11)
        rtol = tracking._CLUSTER_RTOL
        kept = 0
        for _ in range(300):
            n = int(rng.integers(2, 13))
            K = int(rng.integers(2, n + 1))
            levels = rng.choice([1e-3, 0.4, 1.0, 1.001, 6.5, 80.0], n)
            jitter = rng.choice([0.0, 0.0, 1e-12, 0.2 * rtol], n)
            values_n = np.sort(levels * (1.0 + jitter))
            perm = rng.permutation(n)[:K]
            labels = rng.integers(0, 3, K)
            free = [idx for idx in (np.flatnonzero(labels == k)
                                    for k in range(3)) if idx.size >= 2]
            got = _surviving_free([tuple(idx.tolist()) for idx in free],
                                  _groups(values_n),
                                  perm.tolist())
            want = reference_surviving_free(free, values_n, perm)
            assert [list(g) for g in got] == [w.tolist() for w in want]
            kept += len(got)
        assert kept > 100

    def test_chain_through_a_candidate_outside_stays_one_part(self):
        # 1, 1 + 0.6 rtol, 1 + 1.2 rtol is one group of the solve; the free
        # pair holds its ends, which regrouped alone lie too far apart
        rtol = tracking._CLUSTER_RTOL
        values_n = 1.0 + np.array([0.0, 0.6, 1.2]) * rtol
        free, perm = [np.array([0, 1])], np.array([0, 2])
        got = _surviving_free([(0, 1)], _groups(values_n), [0, 2])
        assert got == [(0, 1)]
        assert reference_surviving_free(free, values_n, perm) == []


def _crossing_solve(t):
    """Two uncoupled analytic modes crossing at t = 0.5."""
    values = np.array([1.0 + t, 2.0 - t])
    vectors = np.eye(2)
    if values[0] > values[1]:
        values = values[::-1]
        vectors = vectors[:, ::-1]
    return values, vectors, np.eye(2)


def _spinning_solve(t):
    """A distinct pair whose frame spins fast around t = 0.5."""
    theta = 1.4 * np.arctan(40.0 * (t - 0.5))
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    return np.array([1.0, 2.0]), R, np.eye(2)


# Tracking settings every entrance refuses, by config key: out of range,
# not an integer where a count is (2.0, 2.5, True) and a misspelt matcher.
_REJECTED_SETTINGS = [
    ("threshold", 1.0), ("threshold", -0.1), ("threshold", float("nan")),
    ("initial_steps", 1), ("initial_steps", 4.0), ("initial_steps", 2.5),
    ("K", 0), ("K", 2.0), ("K", 2.5), ("K", True),
    ("track_buffer", -1), ("track_buffer", 0.5), ("track_buffer", True),
    ("max_depth", -1), ("max_depth", 3.5), ("max_depth", 2.0),
    ("matching", "hungrian"),
]


class TestEngine:
    def test_follows_modes_through_crossing(self):
        run = _track(_grouped(_crossing_solve), K=2, threshold=0.9,
                     initial_steps=8, max_depth=4)
        # trajectory identity: slot 0 stays on the rising 1 + t branch even
        # after it stops being the smallest eigenvalue
        assert np.allclose(run.lambdas[0], 1.0 + run.grid, atol=1e-12)
        assert np.allclose(run.lambdas[1], 2.0 - run.grid, atol=1e-12)
        assert np.min(run.correlations) == pytest.approx(1.0)
        for perm in run.permutations:
            assert sorted(perm.tolist()) == [0, 1]

    def test_bisection_on_fast_rotation(self):
        solved = []

        def solve(t):
            # eigenvector frame spins fast around t = 0.5; coarse steps see
            # low correlations there and must refine
            solved.append(t)
            return _spinning_solve(t)

        run = _track(_grouped(solve), K=2, threshold=0.97, initial_steps=4,
                     max_depth=12)
        assert run.stats["bisection_count"] == 6
        assert run.stats["min_step"] < 0.25
        assert np.min(run.correlations) >= 0.97
        # nested bisection solves the left half of a failed step before
        # its right half, each step starting at the last accepted point;
        # a failed step's end keeps its solution for the retry, so every
        # parameter is solved once
        assert solved == [0.0, 0.25, 0.5, 0.375, 0.4375, 0.40625, 0.75,
                          0.625, 0.5625, 0.59375, 1.0]

    def test_label_swap_is_not_a_failure(self):
        # a pure relabelling of identical vectors is resolved by the
        # matcher and must not force any bisection
        def solve(t):
            vecs = np.eye(2) if t < 0.5 else np.eye(2)[:, ::-1].copy()
            return np.array([1.0, 2.0]), vecs, np.eye(2)

        run = _track(_grouped(solve), K=2, threshold=0.9, initial_steps=2,
                     max_depth=6)
        assert run.stats["bisection_count"] == 0
        assert np.min(run.correlations) == pytest.approx(1.0)

    def test_abort_reports_interval(self):
        eye4 = np.eye(4)

        def solve(t):
            # the tracked subspace jumps discontinuously at t = 0.5: no
            # step size can restore the correlation
            cols = eye4[:, :2] if t < 0.5 else eye4[:, 2:]
            return np.array([1.0, 2.0]), cols.copy(), np.eye(4)

        with pytest.raises(TrackingError, match=r"0\.49\d*, 0\.5\]"):
            _track(_grouped(solve), K=2, threshold=0.9, initial_steps=2,
                   max_depth=6)

    def test_threshold_zero_never_bisects(self):
        def solve(t):
            vecs = np.eye(2) if t < 0.5 else np.eye(2)[:, ::-1].copy()
            return np.array([1.0, 2.0]), vecs, np.eye(2)

        run = _track(_grouped(solve), K=2, threshold=0.0, initial_steps=4,
                     max_depth=6)
        assert run.stats["bisection_count"] == 0
        assert run.grid.size == 5

    def test_parameter_validation(self, small_morph, small_basis,
                                  monkeypatch):
        # one table through both entrances, a config override and each
        # tracking path, which must refuse it with the config's message
        # before any solve or lift
        def refuse(*args, **kwargs):
            raise AssertionError("solved or lifted before the settings check")

        for name in ("_make_evaluator", "solve_sparse_gevp"):
            monkeypatch.setattr(tracking, name, refuse)
        m = small_morph
        for key, value in _REJECTED_SETTINGS:
            with pytest.raises(ConfigError) as want:
                with_overrides(default_config(), **{key: value})
            settings = {"buffer" if key == "track_buffer" else key: value}
            K = settings.pop("K", 5)
            with pytest.raises(ConfigError) as full:
                track_full(m["psys"], K, m["policy"], **settings)
            with pytest.raises(ConfigError) as reduced:
                track_reduced(m["psys"], m["gauge"], small_basis.basis, K,
                              m["policy"], **settings)
            assert (str(full.value) == str(reduced.value)
                    == str(want.value)), (key, value)

    def test_rotation_inside_degenerate_pair_is_undone(self):
        # the pair is distinct at t = 0 and degenerate afterwards, where the
        # solver returns an arbitrary rotation of its eigenspace; the new
        # side's Procrustes gauge must restore full correlation
        rng = np.random.default_rng(0)
        n = 6
        prev = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        rotated = prev.copy()
        rotated[:, 0:2] = prev[:, 0:2] @ R

        def solve(t):
            if t == 0.0:
                return np.array([3.9, 4.0, 9.0]), prev, np.eye(n)
            return np.array([4.0, 4.0, 9.0]), rotated, np.eye(n)

        run = _track(_grouped(solve), K=3, threshold=0.9, initial_steps=4,
                     max_depth=6)
        assert run.stats["bisection_count"] == 0
        assert np.min(run.correlations) >= 1.0 - 1e-12
        assert run.stats["degenerate_steps"] > 0

    def test_persistent_pair_correlations_are_singular_values(self):
        # a pair degenerate at every t tilts out of its plane by different
        # angles along its two directions, and each solve returns its own
        # rotation of the pair, starting off the tilt axes: the matched
        # correlations are the overlap's singular values, the cosines of
        # the two tilt increments, whatever the rotations
        n = 5
        rates = np.array([0.2, 0.5])

        def solve(t):
            a, b = rates * t
            pair = np.zeros((n, 2))
            pair[[0, 2], 0] = np.cos(a), np.sin(a)
            pair[[1, 3], 1] = np.cos(b), np.sin(b)
            theta = 0.7 + 10.0 * t
            R = np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
            vectors = np.column_stack([pair @ R, np.eye(n)[:, 4]])
            return np.array([2.0, 2.0, 3.0]), vectors, np.eye(n)

        run = _track(_grouped(solve), K=3, threshold=0.9, initial_steps=4,
                     max_depth=6)
        assert run.stats["bisection_count"] == 0
        for k, step in enumerate(np.diff(run.grid)):
            want = np.sort(np.cos(rates * step))
            got = np.sort(run.correlations[:2, k])
            assert np.abs(got - want).max() <= 1e-12, k

    def test_to_rows_layout(self):
        run = _track(_grouped(_crossing_solve), K=2, threshold=0.9,
                     initial_steps=4, max_depth=3)
        rows = run.to_rows()
        assert len(rows) == run.grid.size
        assert all(len(r) == 1 + 2 * run.n_modes for r in rows)
        assert rows[0][3:] == [1.0, 1.0]


def _jumping_solve(t):
    """A tracked subspace that jumps at t = 0.5: no step restores it."""
    cols = np.eye(4)[:, :2] if t < 0.5 else np.eye(4)[:, 2:]
    return np.array([1.0, 2.0]), cols.copy(), np.eye(4)


def _assert_same_run(run, want):
    """Every TrackingRun field bitwise equal, wall_seconds aside."""
    for name in ("grid", "lambdas", "correlations"):
        got, ref = getattr(run, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    assert len(run.permutations) == len(want.permutations)
    for got, ref in zip(run.permutations, want.permutations):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert {k: run.stats[k] for k in want.stats} == want.stats


def _recorded(monkeypatch):
    """Make tracking._track remember the solutions it asks for, in order
    (rec["asked"], each solved once into rec["seen"]), and its settings,
    so that the frozen loop can run on the same solutions."""
    rec = {"seen": {}, "asked": []}
    real = tracking._track

    def recording(solve, *settings):
        def remembered(t):
            rec["asked"].append(t)
            if t not in rec["seen"]:
                rec["seen"][t] = solve(t)
            return rec["seen"][t]
        rec["settings"] = settings
        return real(remembered, *settings)

    monkeypatch.setattr(tracking, "_track", recording)
    return rec


def _reference(rec):
    return reference_track(rec["seen"].__getitem__, *rec["settings"])


@pytest.fixture(scope="module")
def online10():
    """online-10's 10^3 brick and basis: the TE/TM pair is degenerate at
    every grid point."""
    p = setup_problem(with_overrides(default_config(),
                                     resolution=(10, 10, 10), N_POD=2))
    return p, p.build("mixed").basis


@pytest.fixture(scope="module")
def taper3():
    """3^3 brick-to-taper morph (t = 1 scales z by 1 - 0.5 x / L_x), whose
    reduced pass bisects; the 3^3 brick-to-brick morph bisects nowhere."""
    cfg = with_overrides(default_config(), resolution=(3, 3, 3), N_POD=6,
                         N_train=10, N_max=40, eval_set_size=5)
    p = setup_problem(cfg)
    mesh = build_mesh(cfg.dims0, cfg.resolution)
    tapered = mesh.vertices.copy()
    tapered[:, 2] *= 1.0 - 0.5 * tapered[:, 0] / cfg.dims0[0]
    p.psys = ParametrizedSystem(p.psys.endpoint0, assemble(
        dataclasses.replace(mesh, vertices=tapered)))
    return p, p.build("mixed").basis


class TestFrozenLoop:
    """Each run is bitwise the frozen loop's (oracles.reference_track) on
    the same solutions, every TrackingRun field but wall_seconds."""

    @pytest.mark.parametrize("solve, settings", [
        (_crossing_solve, (2, 0.9, 8, 4)),
        (_spinning_solve, (2, 0.97, 4, 12)),
    ])
    def test_analytic_sequences(self, solve, settings):
        _assert_same_run(_track(_grouped(solve), *settings),
                         reference_track(solve, *settings))

    @pytest.mark.parametrize("matching", ["greedy", "hungarian"])
    def test_persistent_degenerate_pair(self, online10, monkeypatch,
                                        matching):
        p, basis = online10
        rec = _recorded(monkeypatch)
        run = track_reduced(p.psys, p.gauge, basis, p.cfg.K,
                            matching=matching, policy=p.policy)
        assert run.stats["degenerate_steps"] == run.grid.size - 1 == 16
        _assert_same_run(run, _reference(rec))

    @pytest.mark.parametrize("matching", ["greedy", "hungarian"])
    def test_bisections_reuse_the_retried_solution(self, taper3, monkeypatch,
                                                   matching):
        p, basis = taper3
        rec = _recorded(monkeypatch)
        run = track_reduced(p.psys, p.gauge, basis, p.cfg.K, threshold=0.99,
                            initial_steps=4, matching=matching,
                            policy=p.policy)
        assert run.stats["bisection_count"] > 0
        # each failed step's end is asked for once and then reused
        assert len(rec["asked"]) == len(rec["seen"]) == run.grid.size
        _assert_same_run(run, _reference(rec))

    def test_max_depth_error(self, taper3, monkeypatch):
        with pytest.raises(TrackingError) as got:
            _track(_grouped(_jumping_solve), 2, 0.9, 2, 6)
        with pytest.raises(TrackingError) as want:
            reference_track(_jumping_solve, 2, 0.9, 2, 6)
        assert str(got.value) == str(want.value)
        p, basis = taper3
        rec = _recorded(monkeypatch)
        with pytest.raises(TrackingError,
                           match="after 1 bisection levels") as got:
            track_reduced(p.psys, p.gauge, basis, p.cfg.K, threshold=0.999,
                          max_depth=1, policy=p.policy)
        with pytest.raises(TrackingError) as want:
            _reference(rec)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("matching", ["greedy", "hungarian"])
    def test_full_path_on_a_small_brick(self, small_morph, monkeypatch,
                                        matching):
        # the cube end is degenerate, so clusters of N-row candidates turn
        # in blocks stacked over 2N + K rows
        m = small_morph
        rec = _recorded(monkeypatch)
        run = track_full(m["psys"], 5, m["policy"], matching=matching)
        assert run.stats["degenerate_steps"] > 0
        _assert_same_run(run, _reference(rec))

    @pytest.mark.parametrize("path", ["reduced", "full"])
    def test_every_spectrum_handed_over_ascends(self, taper3, monkeypatch,
                                                path):
        # _degenerate_clusters groups each spectrum in the order a solver
        # returns it, ascending: the coarse grid's, each bisection
        # midpoint's and each full-order step's
        p, basis = taper3
        rec = _recorded(monkeypatch)
        settings = dict(threshold=0.99, initial_steps=4)
        if path == "reduced":
            run = track_reduced(p.psys, p.gauge, basis, p.cfg.K,
                                policy=p.policy, **settings)
            assert run.stats["bisection_count"] > 0
        else:
            run = track_full(p.psys, p.cfg.K, p.policy, **settings)
        assert len(rec["seen"]) == run.grid.size
        for t, (values, *_) in rec["seen"].items():
            assert np.all(values[1:] >= values[:-1]), t

    def test_each_solution_grouped_once(self, taper3, monkeypatch):
        # a retried step reuses its solution's groups, and the reduced
        # pass still makes one dense solve per grid point; the coarse
        # grid's solutions are grouped in one stack, each midpoint's alone
        p, basis = taper3
        grouped, solved = [], []
        group, dense = tracking._degenerate_clusters, rb.solve_dense_gevp
        monkeypatch.setattr(
            tracking, "_degenerate_clusters",
            lambda values: grouped.extend([1] * len(values)) or group(values))
        monkeypatch.setattr(rb, "solve_dense_gevp",
                            lambda *a, **k: solved.append(1) or dense(*a, **k))
        run = track_reduced(p.psys, p.gauge, basis, p.cfg.K, threshold=0.99,
                            initial_steps=4, policy=p.policy)
        assert run.stats["bisection_count"] > 0
        assert len(grouped) == len(solved) == run.grid.size


class TestReducedTracking:
    def test_run_on_small_morph(self, small_morph, small_basis):
        m = small_morph
        run = track_reduced(m["psys"], m["gauge"], small_basis.basis, 5,
                            policy=m["policy"])
        assert run.grid[0] == 0.0 and run.grid[-1] == 1.0
        assert np.all(np.diff(run.grid) > 0)
        assert run.lambdas.shape == (5, run.grid.size)
        assert np.min(run.correlations) >= 0.9
        for perm in run.permutations:
            assert len(set(perm.tolist())) == 5

    def test_endpoints_match_direct_solves(self, small_morph, small_basis):
        m = small_morph
        run = track_reduced(m["psys"], m["gauge"], small_basis.basis, 5,
                            policy=m["policy"])
        for t, col in ((0.0, 0), (1.0, -1)):
            pair = m["psys"].interpolate(t)
            direct = solve_sparse_gevp(pair.A, pair.B, 7, m["policy"],
                                       t=t).values
            for lam in run.lambdas[:, col]:
                assert np.min(np.abs(direct - lam) / lam) < 1e-6

    def test_full_path_agrees(self, small_morph, small_basis):
        m = small_morph
        red = track_reduced(m["psys"], m["gauge"], small_basis.basis, 5,
                            policy=m["policy"])
        full = track_full(m["psys"], 5, m["policy"])
        shared = np.intersect1d(red.grid, full.grid)
        assert shared.size >= 17
        ired = np.searchsorted(red.grid, shared)
        ifull = np.searchsorted(full.grid, shared)
        rel = np.abs(red.lambdas[:, ired] - full.lambdas[:, ifull]) \
            / full.lambdas[:, ifull]
        assert rel.max() < 1e-8

    def test_constant_morph_zero_bisections(self, cube3_pair, cube3_gauge,
                                            small_morph, small_basis_constant):
        from maxwell_rb.assembly import ParametrizedSystem

        psys = ParametrizedSystem(cube3_pair, cube3_pair)
        run = track_reduced(psys, cube3_gauge, small_basis_constant.basis, 5,
                            policy=small_morph["policy"])
        assert run.stats["bisection_count"] == 0
        assert np.max(np.abs(run.correlations - 1.0)) < 1e-12
        spread = run.lambdas.max(axis=1) - run.lambdas.min(axis=1)
        assert spread.max() < 1e-10

    def test_validation(self, small_morph, small_basis):
        m = small_morph
        with pytest.raises(ConfigError):
            track_reduced(m["psys"], m["gauge"], small_basis.basis, 99,
                          policy=m["policy"])
        with pytest.raises(ConfigError):
            track_reduced(m["psys"], m["gauge"], small_basis.basis, 5,
                          buffer=-1, policy=m["policy"])
        with pytest.raises(ConfigError):
            track_full(m["psys"], 5, m["policy"], buffer=-1)

    def test_settings_checked_before_any_solve_or_lift(self, small_morph,
                                                      small_basis,
                                                      monkeypatch):
        def no_evaluator(*args):
            raise AssertionError("evaluator built before the settings check")

        monkeypatch.setattr(tracking, "_make_evaluator", no_evaluator)
        m = small_morph
        with pytest.raises(ConfigError):
            track_reduced(m["psys"], m["gauge"], small_basis.basis, 5,
                          threshold=1.0, policy=m["policy"])
        with pytest.raises(ConfigError):
            track_full(None, 5, m["policy"], initial_steps=1)

    @pytest.mark.parametrize("setting, message", [
        ({"matching": "hungrian"}, "matching must be one of"),
        ({"max_depth": -1}, "max_depth"),
    ])
    def test_bad_matching_and_depth_rejected_before_any_solve(
            self, small_morph, small_basis, monkeypatch, setting, message):
        # a misspelt matching once fell back to greedy silently, and a
        # negative depth died with a TrackingError at the first failed step
        def refuse(*args, **kwargs):
            raise AssertionError("solved or lifted before the settings check")

        for name in ("_make_evaluator", "solve_sparse_gevp"):
            monkeypatch.setattr(tracking, name, refuse)
        m = small_morph
        with pytest.raises(ConfigError, match=message):
            track_reduced(m["psys"], m["gauge"], small_basis.basis, 5,
                          policy=m["policy"], **setting)
        with pytest.raises(ConfigError, match=message):
            track_full(m["psys"], 5, m["policy"], **setting)

    @pytest.mark.parametrize("name, value", [
        ("K", 5.0), ("initial_steps", 2.5), ("buffer", 1.5),
        ("max_depth", 1.5), ("buffer", True),
    ])
    def test_non_integral_counts_rejected_before_any_solve(
            self, small_morph, small_basis, monkeypatch, name, value):
        # initial_steps=2.5 died in numpy and buffer=1.5 inside ARPACK on
        # the full path, and the reduced path took buffer=1.5 and
        # max_depth=1.5 silently
        def refuse(*args, **kwargs):
            raise AssertionError("solved or lifted before the settings check")

        for attr in ("_make_evaluator", "solve_sparse_gevp"):
            monkeypatch.setattr(tracking, attr, refuse)
        m = small_morph
        settings = {name: value}
        K = settings.pop("K", 5)
        with pytest.raises(ConfigError, match="%s must be an integer" % name):
            track_reduced(m["psys"], m["gauge"], small_basis.basis, K,
                          policy=m["policy"], **settings)
        with pytest.raises(ConfigError, match="%s must be an integer" % name):
            track_full(m["psys"], K, m["policy"], **settings)

    def test_hungarian_matching_available(self, small_morph, small_basis):
        m = small_morph
        run = track_reduced(m["psys"], m["gauge"], small_basis.basis, 5,
                            matching="hungarian", policy=m["policy"])
        assert np.min(run.correlations) >= 0.9


class TestDeskMorph:
    """Default morph at resolution (6,6,6): the pinned deformation with
    an exactly degenerate pair and a window-boundary crossing."""

    def test_degenerate_steps_flagged(self, desk_problem, desk_basis):
        p = desk_problem
        run = track_reduced(p.psys, p.gauge, desk_basis.basis, p.cfg.K,
                            policy=p.policy)
        assert run.stats["degenerate_steps"] > 0
        assert run.stats["bisection_count"] == 0
        assert np.min(run.correlations) >= 0.9

    def test_degenerate_pair_correlations_ignore_basis_rotation(
            self, desk_problem, desk_basis):
        # Z Q spans the space of Z, so the reduced pencils agree to
        # roundoff and so must every correlation, including those of the
        # double eigenvalue, whose in-pair basis the rotation changes
        p = desk_problem
        basis = desk_basis.basis
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal(
            (basis.n_red, basis.n_red)))[0]
        rotated = ReducedBasis(Z=basis.Z @ Q, provenance=basis.provenance,
                               gauge_mode=basis.gauge_mode)
        run, run_q = p.track(basis), p.track(rotated)
        assert _groups(run.lambdas[:, 0])
        assert np.array_equal(run.grid, run_q.grid)
        assert np.abs(run.correlations - run_q.correlations).max() <= 1e-12

    def test_endpoint_lifts_serve_the_whole_pass(self, desk_problem,
                                                 desk_basis):
        # the brick's lifted space saturates at the two endpoint lifts
        p = desk_problem
        run = track_reduced(p.psys, p.gauge, desk_basis.basis, p.cfg.K,
                            policy=p.policy)
        assert run.stats["lift_solves"] == 2

    def test_buffer_needed_at_window_boundary(self, desk_problem, desk_basis):
        """A trajectory crosses the K-th eigenvalue late in the morph; with
        no candidate buffer the correlation pins at zero no matter how
        finely the step is split, so tracking must abort."""
        p = desk_problem
        with pytest.raises(TrackingError):
            track_reduced(p.psys, p.gauge, desk_basis.basis, p.cfg.K,
                          buffer=0, policy=p.policy)
        run = track_reduced(p.psys, p.gauge, desk_basis.basis, p.cfg.K,
                            buffer=2, policy=p.policy)
        assert np.min(run.correlations) >= 0.9

    def test_exited_trajectory_reaches_true_eigenvalue(self, desk_problem,
                                                       desk_basis):
        p = desk_problem
        run = track_reduced(p.psys, p.gauge, desk_basis.basis, p.cfg.K,
                            policy=p.policy)
        pair = p.psys.interpolate(1.0)
        direct = solve_sparse_gevp(pair.A, pair.B, p.cfg.K + 2, p.policy,
                                   t=1.0).values
        for lam in run.lambdas[:, -1]:
            assert np.min(np.abs(direct - lam) / lam) < 1e-6
        # the morph ends in an exact double eigenvalue; both trajectories
        # of the degenerate pair land on it
        end = np.sort(run.lambdas[:, -1])
        assert end[-1] == pytest.approx(end[-2], rel=1e-10)


def test_full_tracking_same_on_both_factor_orderings():
    # 8^3 default morph: the mesh's nested-dissection factor and the
    # minimum-degree one trace the same grid and eigenvalues
    p = setup_problem(with_overrides(default_config(), resolution=(8, 8, 8)))
    kwargs = dict(threshold=p.cfg.threshold, initial_steps=p.cfg.initial_steps,
                  max_depth=p.cfg.max_depth, matching=p.cfg.matching,
                  buffer=p.cfg.track_buffer)
    assert p.policy.ordering is not None
    nd = track_full(p.psys, p.cfg.K, p.policy, **kwargs)
    mmd = track_full(p.psys, p.cfg.K,
                     dataclasses.replace(p.policy, ordering=None), **kwargs)
    assert np.array_equal(nd.grid, mmd.grid)
    assert np.max(np.abs(nd.lambdas - mmd.lambdas) / mmd.lambdas) <= 1e-13
