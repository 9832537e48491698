import warnings

import numpy as np
import numpy.testing as npt
import pytest

from geomflow.spd import (
    DimensionMismatchError,
    SPDError,
    SPDMatrix,
    TangentVector,
    _christoffel_stacked,
    christoffel,
    metric_at,
    project_unit_det,
    random_spd,
)


def _sqrtm(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(w)) @ v.T


def _expm(m):
    w, v = np.linalg.eigh(m)
    return (v * np.exp(w)) @ v.T


class TestConstruction:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(SPDError):
            SPDMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(SPDError):
            SPDMatrix(np.diag([1.0, -1.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(SPDError):
            SPDMatrix(np.ones((2, 3)))

    NON_FINITE = {"nan": [[np.nan]], "inf": [[np.inf]], "-inf": [[-np.inf]],
                  "inf-diagonal": [[2.0, 0.0], [0.0, np.inf]],
                  "nan-pair": [[1.0, np.nan], [np.nan, 1.0]],
                  "-inf-pair": [[1.0, -np.inf], [-np.inf, 1.0]]}

    @pytest.mark.parametrize("cls,what", [(SPDMatrix, "SPD matrix"),
                                          (TangentVector, "tangent vector")])
    @pytest.mark.parametrize("entries", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_rejects_non_finite_entries(self, cls, what, entries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SPDError, match=f"^{what} has non-finite entries$"):
                cls(np.array(entries))

    @pytest.mark.parametrize("entries", [np.diag([1e308, 1e308]),
                                         [[1.5e308, 1e308], [1e308, 1.5e308]]],
                             ids=["diagonal", "full"])
    def test_keeps_entries_near_largest_double(self, entries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            npt.assert_array_equal(SPDMatrix(np.array(entries)).entries, entries)

    def test_symmetrizes_roundoff(self):
        m = random_spd(3, 4).entries + 1e-16 * np.triu(np.ones((4, 4)), 1)
        G = SPDMatrix(m)
        npt.assert_array_equal(G.entries, G.entries.T)


class TestMetric:
    def test_identity_base(self):
        G = SPDMatrix(np.eye(2))
        X = TangentVector(np.diag([1.0, -1.0]))
        assert metric_at(G, X, X) == pytest.approx(2.0)

    def test_diagonal_base(self):
        # tr((G^-1 X)^2) = (1/2)^2 + (-2)^2 = 17/4
        G = SPDMatrix(np.diag([2.0, 0.5]))
        X = TangentVector(np.diag([1.0, -1.0]))
        assert metric_at(G, X, X) == pytest.approx(17.0 / 4.0)

    def test_zero_vector(self):
        G = random_spd(0, 3)
        Z = TangentVector(np.zeros((3, 3)))
        assert metric_at(G, Z, Z) == 0.0

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(7)
        for k in range(20):
            n = int(rng.integers(2, 6))
            G = random_spd(k, n)
            X = TangentVector(0.5 * (lambda m: m + m.T)(rng.standard_normal((n, n))))
            Y = TangentVector(0.5 * (lambda m: m + m.T)(rng.standard_normal((n, n))))
            a, b = metric_at(G, X, Y), metric_at(G, Y, X)
            assert a == pytest.approx(b, rel=1e-13)
            assert metric_at(G, X, X) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            metric_at(random_spd(0, 2), TangentVector(np.eye(3)), TangentVector(np.eye(3)))


class TestChristoffel:
    def test_identity(self):
        G = SPDMatrix(np.eye(3))
        X = TangentVector(np.eye(3))
        npt.assert_allclose(christoffel(G, X, X).entries, -np.eye(3))

    def test_bilinear_zero(self):
        G = random_spd(1, 3)
        Z = TangentVector(np.zeros((3, 3)))
        X = TangentVector(np.eye(3))
        npt.assert_array_equal(christoffel(G, X, Z).entries, np.zeros((3, 3)))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(11)
        G = random_spd(2, 4)
        X = TangentVector(0.5 * (lambda m: m + m.T)(rng.standard_normal((4, 4))))
        Y = TangentVector(0.5 * (lambda m: m + m.T)(rng.standard_normal((4, 4))))
        npt.assert_allclose(
            christoffel(G, X, Y).entries, christoffel(G, Y, X).entries
        )

    @pytest.mark.parametrize("seed,n", [(0, 2), (1, 3), (2, 4)])
    def test_geodesic_residual(self, seed, n):
        # G(u) = G0^{1/2} exp(u G0^{-1/2} X G0^{-1/2}) G0^{1/2} must satisfy
        # G'' + Gamma(G', G') = 0; measured with 4th-order differences in u.
        rng = np.random.default_rng(seed)
        G0 = random_spd(seed, n).entries
        X = 0.3 * (lambda m: m + m.T)(rng.standard_normal((n, n)))
        s = _sqrtm(G0)
        s_inv = np.linalg.inv(s)

        def curve(u):
            return s @ _expm(u * s_inv @ X @ s_inv) @ s

        h = 1e-2
        pts = [curve(k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (-pts[4] + 8 * pts[3] - 8 * pts[1] + pts[0]) / (12 * h)
        d2 = (-pts[4] + 16 * pts[3] - 30 * pts[2] + 16 * pts[1] - pts[0]) / (
            12 * h * h
        )
        gamma = christoffel(SPDMatrix(pts[2]), TangentVector(d1), TangentVector(d1))
        residual = np.abs(d2 + gamma.entries).max()
        assert residual <= 1e-8


class TestChristoffelStacked:
    """The node-stacked connection that ``rrfs.tension_G_general`` builds on."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_single_node_form(self, n):
        # per node against christoffel(), which solves with G instead of
        # multiplying by G^-1; X and Y broadcast over an (a, b) pair of axes
        # as in the tension field
        rng = np.random.default_rng(n)
        Gs = [random_spd(20 + k, n) for k in range(5)]
        X = (lambda m: m + np.swapaxes(m, -1, -2))(rng.standard_normal((5, 2, n, n)))
        Ginv = np.linalg.inv(np.stack([G.entries for G in Gs]))
        got = _christoffel_stacked(Ginv[:, None, None], X[:, :, None], X[:, None, :])
        assert got.shape == (5, 2, 2, n, n)
        for k, G in enumerate(Gs):
            for a in range(2):
                for b in range(2):
                    want = christoffel(G, TangentVector(X[k, a]), TangentVector(X[k, b]))
                    npt.assert_allclose(got[k, a, b], want.entries, rtol=1e-12, atol=1e-12)

    def test_geodesic_residual_stacked(self):
        # the geodesic check of TestChristoffel on a stack of curves at once
        rng = np.random.default_rng(7)
        n, h = 3, 1e-2
        G0 = [random_spd(30 + k, n).entries for k in range(4)]
        X = [0.3 * (lambda m: m + m.T)(rng.standard_normal((n, n))) for _ in G0]
        roots = [_sqrtm(G) for G in G0]
        pts = np.array([[s @ _expm(u * np.linalg.inv(s) @ x @ np.linalg.inv(s)) @ s
                         for s, x in zip(roots, X)] for u in h * np.arange(-2, 3)])
        d1 = (-pts[4] + 8 * pts[3] - 8 * pts[1] + pts[0]) / (12 * h)
        d2 = (-pts[4] + 16 * pts[3] - 30 * pts[2] + 16 * pts[1] - pts[0]) / (12 * h * h)
        gamma = _christoffel_stacked(np.linalg.inv(pts[2]), d1, d1)
        assert np.abs(d2 + gamma).max() <= 1e-8


class TestUnitDet:
    def test_identity(self):
        npt.assert_array_equal(project_unit_det(SPDMatrix(np.eye(4))).entries, np.eye(4))

    def test_diagonal(self):
        out = project_unit_det(SPDMatrix(np.diag([4.0, 1.0])))
        npt.assert_allclose(out.entries, np.diag([2.0, 0.5]))

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_determinant_and_idempotent(self, seed):
        G = random_spd(seed, 5, cond_max=50.0)
        out = project_unit_det(G)
        assert np.linalg.det(out.entries) == pytest.approx(1.0, abs=1e-12)
        again = project_unit_det(out)
        npt.assert_allclose(again.entries, out.entries, rtol=0, atol=1e-12)


class TestRandomSPD:
    def test_deterministic(self):
        npt.assert_array_equal(random_spd(42, 4).entries, random_spd(42, 4).entries)

    def test_condition_bound(self):
        for seed in range(10):
            w = np.linalg.eigvalsh(random_spd(seed, 6, cond_max=30.0).entries)
            assert w[-1] / w[0] <= 30.0 * (1 + 1e-12)
            assert w[0] > 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            random_spd(0, 0)
        with pytest.raises(ValueError):
            random_spd(0, 2, cond_max=0.5)
