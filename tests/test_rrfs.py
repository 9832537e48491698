import gc
import warnings
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geomflow import rrfs
from geomflow.ode import MaxStepsExceeded
from geomflow.spd import SPDError, SPDMatrix
from geomflow.rrfs import (
    PeriodicGrid,
    RRFSState,
    RescalingSpec,
    christoffels_of_g,
    dA_field,
    d2_central,
    d_central,
    delta_dA,
    energy_G,
    grad_G_norm_sq,
    integrate_rrfs,
    laplacian_G,
    load_snapshot,
    random_smooth_state,
    rrfs_rhs,
    rrfs_rhs_terms,
    s_volume,
    save_snapshot,
    scalar_curvature,
    tension_G_general,
    tension_G_simplified,
    volume,
)

S1_64 = PeriodicGrid((64,), (2 * np.pi,))
T2_64 = PeriodicGrid((64, 64), (2 * np.pi, 2 * np.pi))


def flat_state(grid, n_fiber=1, g_field=None, A_field=None, G_field=None):
    n = grid.n_base
    shape = tuple(grid.sizes)
    g = g_field if g_field is not None else np.broadcast_to(
        np.eye(n), shape + (n, n)
    ).copy()
    A = A_field if A_field is not None else np.zeros(shape + (n, n_fiber))
    G = G_field if G_field is not None else np.broadcast_to(
        np.eye(n_fiber), shape + (n_fiber, n_fiber)
    ).copy()
    return RRFSState(g, A, G)


class TestGrid:
    @pytest.mark.parametrize("sizes", [(8.9,), (8, 9.5), (np.inf,), (np.nan,)])
    def test_non_integral_size_rejected(self, sizes):
        bad = next(s for s in sizes if not float(s).is_integer())
        with pytest.raises(ValueError, match=f"^grid size must be an integer >= 8, got {bad}$"):
            PeriodicGrid(sizes, (1.0,) * len(sizes))

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicGrid((4,), (1.0,))
        with pytest.raises(ValueError):
            PeriodicGrid((8, 8, 8), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            PeriodicGrid((8,), (-1.0,))

    def test_spacing(self):
        g = PeriodicGrid((10, 20), (1.0, 4.0))
        assert g.spacing == (0.1, 0.2)


class TestDerivatives:
    def test_constant_field(self):
        npt.assert_array_equal(d_central(np.ones(64), 0, S1_64), np.zeros(64))

    def test_sin_oracle(self):
        x = S1_64.axis_coords(0)
        err = np.abs(d_central(np.sin(x), 0, S1_64) - np.cos(x)).max()
        assert err <= 5e-6

    def test_fourth_order_refinement(self):
        errs = []
        for m in (64, 128):
            g = PeriodicGrid((m,), (2 * np.pi,))
            x = g.axis_coords(0)
            errs.append(np.abs(d_central(np.sin(x), 0, g) - np.cos(x)).max())
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.05)

    def test_second_derivative(self):
        x = S1_64.axis_coords(0)
        err = np.abs(d2_central(np.sin(x), 0, 0, S1_64) + np.sin(x)).max()
        assert err <= 5e-6

    def test_mixed_derivative(self):
        X, Y = T2_64.coords()
        f = np.sin(X) * np.sin(Y)
        err = np.abs(d2_central(f, 0, 1, T2_64) - np.cos(X) * np.cos(Y)).max()
        assert err <= 1e-5

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            d_central(np.ones(64), 1, S1_64)


class TestStencilSymbols:
    """On every Fourier mode exp(i k.x) up to Nyquist, along each axis, the
    stencils multiply by their discrete symbols: d_central by
    i (8 sin kh - sin 2kh) / (6h) and the pure d2_central by
    -(30 - 32 cos kh + 2 cos 2kh) / (12 h^2), to 1e-12 of k and k^2."""

    GRIDS = {"1d": PeriodicGrid((64,), (2 * np.pi,)),
             "2d": PeriodicGrid((12, 10), (2 * np.pi, 3.0))}

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_every_mode_along_every_axis(self, grid):
        coords = grid.coords()
        for axis, (m, p, h) in enumerate(zip(grid.sizes, grid.period, grid.spacing)):
            # the other axis carries its first mode, so the field varies along both
            other = sum(2 * np.pi / q * x for b, (q, x) in enumerate(zip(grid.period, coords))
                        if b != axis)
            for j in range(1, m // 2 + 1):
                k = 2 * np.pi * j / p
                mode = np.exp(1j * (k * coords[axis] + other))
                d1 = 1j * (8 * np.sin(k * h) - np.sin(2 * k * h)) / (6 * h)
                d2 = -(30 - 32 * np.cos(k * h) + 2 * np.cos(2 * k * h)) / (12 * h * h)
                err1 = np.abs(d_central(mode, axis, grid) - d1 * mode).max()
                err2 = np.abs(d2_central(mode, axis, axis, grid) - d2 * mode).max()
                assert err1 <= 1e-12 * k and err2 <= 1e-12 * k * k, (axis, j, err1, err2)


class TestChristoffels:
    def test_constant_metric(self):
        st = flat_state(T2_64)
        npt.assert_array_equal(christoffels_of_g(st, T2_64),
                               np.zeros((64, 64, 2, 2, 2)))

    def test_1d_conformal_oracle(self):
        # g = (1 + sin(x)/2)^2: Gamma^1_11 = d/dx log sqrt(g)
        x = S1_64.axis_coords(0)
        gm = (1 + 0.5 * np.sin(x)) ** 2
        st = flat_state(S1_64, g_field=gm[:, None, None])
        gam = christoffels_of_g(st, S1_64)[:, 0, 0, 0]
        exact = 0.5 * np.cos(x) / (1 + 0.5 * np.sin(x))
        assert np.abs(gam - exact).max() <= 5e-5

    def test_symmetry_exact(self):
        st = random_smooth_state(5, T2_64, 2, perturb_g=True)
        gam = christoffels_of_g(st, T2_64)
        npt.assert_array_equal(gam, np.swapaxes(gam, -1, -2))


class TestConnectionField:
    def test_1d_identically_zero(self):
        st = random_smooth_state(1, S1_64, 2, perturb_A=True)
        npt.assert_array_equal(dA_field(st, S1_64),
                               np.zeros((64, 1, 1, 2)))
        npt.assert_array_equal(delta_dA(st, S1_64), np.zeros((64, 1, 2)))

    def test_2d_analytic_oracle(self):
        X, _ = T2_64.coords()
        A = np.zeros((64, 64, 2, 1))
        A[..., 1, 0] = np.sin(X)
        st = flat_state(T2_64, A_field=A)
        F = dA_field(st, T2_64)
        assert np.abs(F[..., 0, 1, 0] - np.cos(X)).max() <= 5e-6

    def test_antisymmetry_exact(self):
        st = random_smooth_state(2, T2_64, 2, perturb_g=True, perturb_A=True)
        F = dA_field(st, T2_64)
        npt.assert_array_equal(F, -np.swapaxes(F, -3, -2))


class TestLaplacian:
    def test_constant_G(self):
        st = flat_state(T2_64, n_fiber=3)
        npt.assert_array_equal(laplacian_G(st, T2_64), np.zeros((64, 64, 3, 3)))

    def test_flat_1d_oracle(self):
        x = S1_64.axis_coords(0)
        E = np.array([[0.0, 1.0], [1.0, 0.0]])
        G = np.eye(2) + 0.5 * np.sin(x)[:, None, None] * E
        st = flat_state(S1_64, n_fiber=2, G_field=G)
        lap = laplacian_G(st, S1_64)
        expect = -0.5 * np.sin(x)[:, None, None] * E
        assert np.abs(lap - expect).max() <= 5e-6

    def test_metric_scaling(self):
        st = random_smooth_state(3, S1_64, 2)
        lam = 3.0
        st_scaled = RRFSState(lam * st.g, st.A, st.G)
        npt.assert_allclose(laplacian_G(st_scaled, S1_64),
                            laplacian_G(st, S1_64) / lam, rtol=1e-12)


class TestTensionIdentity:
    @pytest.mark.parametrize("n_base", [1, 2])
    @pytest.mark.parametrize("n_fiber", [2, 3])
    def test_general_equals_simplified(self, n_base, n_fiber):
        grid = PeriodicGrid((64,) * n_base, (2 * np.pi,) * n_base)
        for seed in range(3):
            st = random_smooth_state(seed, grid, n_fiber, perturb_g=True)
            simp = tension_G_simplified(st, grid)
            gen = tension_G_general(st, grid)
            scale = np.abs(simp).max()
            assert np.abs(gen - simp).max() <= 1e-10 * scale

    def test_constant_G_vanishes(self):
        st = flat_state(S1_64, n_fiber=2)
        npt.assert_array_equal(tension_G_general(st, S1_64), np.zeros((64, 2, 2)))


class TestEnergy:
    def test_constant_G_zero(self):
        assert energy_G(flat_state(T2_64, n_fiber=2), T2_64) == 0.0

    def test_nonnegative(self):
        for seed in range(5):
            st = random_smooth_state(seed, S1_64, 2, perturb_g=True)
            assert energy_G(st, S1_64) >= 0.0

    def test_refinement_converges_fourth_order(self):
        vals = []
        for m in (32, 64, 128):
            grid = PeriodicGrid((m,), (2 * np.pi,))
            st = random_smooth_state(0, grid, 2)
            vals.append(energy_G(st, grid))
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert np.log2(d1 / d2) >= 3.0

    def test_monotone_under_map_flow(self):
        st = random_smooth_state(0, S1_64, 2)
        run = integrate_rrfs(st, S1_64, RescalingSpec("off"), 0.2,
                             evolve_g=False, evolve_A=False)
        assert np.all(np.diff(run.energies) <= 0)


class TestCurvature:
    def test_flat_zero(self):
        npt.assert_array_equal(scalar_curvature(flat_state(T2_64), T2_64),
                               np.zeros((64, 64)))

    def test_1d_identically_zero(self):
        st = random_smooth_state(4, S1_64, 2, perturb_g=True)
        npt.assert_array_equal(scalar_curvature(st, S1_64), np.zeros(64))

    def test_conformally_flat_oracle(self):
        X, Y = T2_64.coords()
        u = 0.1 * np.sin(X) * np.sin(Y)
        g = np.exp(2 * u)[..., None, None] * np.eye(2)
        st = flat_state(T2_64, g_field=g)
        R = scalar_curvature(st, T2_64)
        expect = -2.0 * np.exp(-2 * u) * (-2.0 * u)  # -2 e^{-2u} lap(u)
        assert np.abs(R - expect).max() <= 1e-4


class TestVolumeRescaling:
    def test_flat_constant_zero(self):
        assert s_volume(flat_state(S1_64, n_fiber=2), S1_64) == 0.0

    def test_1d_quadrature_oracle(self):
        # G = exp(eps sin x) I on S^1: r = -|grad G|^2/4 and
        # s = (1/2) avg(|grad G|^2) = eps^2 avg(cos^2) = eps^2/2
        eps = 0.05
        x = S1_64.axis_coords(0)
        G = np.exp(eps * np.sin(x))[:, None, None] * np.eye(2)
        st = flat_state(S1_64, n_fiber=2, G_field=G)
        grad_sq = grad_G_norm_sq(st, S1_64)
        npt.assert_allclose(grad_sq, 2 * (eps * np.cos(x)) ** 2, atol=1e-7)
        s = s_volume(st, S1_64)
        # 4th-order FD truncation on the gradient is ~h^4/30 ~ 3e-6 relative
        # at this resolution, doubled by squaring
        assert s == pytest.approx(eps**2 / 2.0, rel=1e-4)
        assert s > 0

    def test_volume_mode_conserves_volume(self):
        st = random_smooth_state(0, S1_64, 2)
        run = integrate_rrfs(st, S1_64, RescalingSpec("volume"), 0.3)
        drift = np.abs(run.volumes / run.volumes[0] - 1.0).max()
        assert drift <= 1e-6


class TestRHS:
    def test_stationary_point(self):
        st = flat_state(T2_64, n_fiber=2)
        for arr in rrfs_rhs(st, T2_64, RescalingSpec("off")):
            npt.assert_array_equal(arr, np.zeros_like(arr))

    def test_1d_reduces_to_tension(self):
        st = random_smooth_state(1, S1_64, 2)
        _, dA, dG = rrfs_rhs(st, S1_64, RescalingSpec("off"))
        # dG is symmetrized after assembly; agreement is exact up to rounding
        npt.assert_allclose(dG, tension_G_simplified(st, S1_64),
                            rtol=0, atol=1e-15)
        npt.assert_array_equal(dA, np.zeros_like(st.A))

    def test_2d_manufactured_connection_terms(self):
        # flat g, constant G = 1 (N = 1), A = (0, sin x): the dA-squared
        # terms contribute cos^2 x to dg_11 and dg_22 and -cos^2 x to dG_11
        X, _ = T2_64.coords()
        A = np.zeros((64, 64, 2, 1))
        A[..., 1, 0] = np.sin(X)
        st = flat_state(T2_64, A_field=A)
        dg, dA, dG = rrfs_rhs(st, T2_64, RescalingSpec("off"))
        c2 = np.cos(X) ** 2
        assert np.abs(dg[..., 1, 1] - c2).max() <= 1e-5
        assert np.abs(dg[..., 0, 0] - c2).max() <= 1e-5
        assert np.abs(dg[..., 0, 1]).max() <= 1e-5
        assert np.abs(dG[..., 0, 0] + c2).max() <= 1e-5
        # connection heat flow: dA_2 = -sin x
        assert np.abs(dA[..., 1, 0] + np.sin(X)).max() <= 1e-5

    def test_2d_pure_ricci_reduction(self):
        # G constant, A = 0: dg must equal -2 Rc(g) - s g = -R g for the
        # conformally flat oracle with s = 0
        X, Y = T2_64.coords()
        u = 0.05 * np.sin(X) * np.sin(Y)
        g = np.exp(2 * u)[..., None, None] * np.eye(2)
        st = flat_state(T2_64, g_field=g)
        dg, _, _ = rrfs_rhs(st, T2_64, RescalingSpec("off"))
        R_exact = -2.0 * np.exp(-2 * u) * (-2.0 * u)
        expect = -R_exact[..., None, None] * st.g
        assert np.abs(dg - expect).max() <= 1e-4

    def test_terms_sum_to_rhs(self):
        st = random_smooth_state(7, T2_64, 2, perturb_g=True, perturb_A=True)
        spec = RescalingSpec("constant", s0=0.3, c_coupling=0.5)
        T = rrfs_rhs_terms(st, T2_64, spec)
        dg, dA, dG = rrfs_rhs(st, T2_64, spec)
        npt.assert_allclose(
            dg, 0.5 * (lambda m: m + np.swapaxes(m, -1, -2))(
                T["g_ricci"] + T["g_gradG"] + T["g_dA"] + T["g_rescale"]
            ),
        )
        npt.assert_allclose(dA, T["A_codiff"] + T["A_gradG"] + T["A_rescale"])

    @pytest.mark.parametrize("spec", [RescalingSpec("off", c_coupling=0.7),
                                      RescalingSpec("constant", s0=0.3)], ids=["off", "c0"])
    def test_vanishing_terms_reported_as_zeros(self, spec):
        # on a 1D base R and the dA terms vanish, and with s = 0 (c s = 0 for G)
        # so do the rescaling terms: rrfs_rhs_terms lists each as zeros
        st = random_smooth_state(2, S1_64, 2, perturb_g=True, perturb_A=True)
        T = rrfs_rhs_terms(st, S1_64, spec)
        zero = ["g_ricci", "g_dA", "A_codiff", "A_gradG", "G_dA", "G_rescale"]
        zero += ["g_rescale", "A_rescale"] if spec.mode == "off" else []
        for key in zero:
            npt.assert_array_equal(T[key], np.zeros(getattr(st, key[0]).shape))
        if spec.mode != "off":
            npt.assert_array_equal(T["A_rescale"], -0.5 * 0.3 * st.A)

    @pytest.mark.parametrize("fields", ["G", "AG", "gG", "gAG"])  # what integrate_rrfs asks for
    @pytest.mark.parametrize("mode", ["off", "constant", "volume"])
    @pytest.mark.parametrize("sizes", [(16,), (12, 10)], ids=["1d", "2d"])
    def test_fields_subset_equals_full_rhs(self, sizes, mode, fields):
        grid = PeriodicGrid(sizes, (2 * np.pi, 3.0)[: len(sizes)])
        st = random_smooth_state(5, grid, 2, perturb_g=True, perturb_A=True)
        spec = RescalingSpec(mode, s0=0.3 if mode == "constant" else 0.0, c_coupling=0.7)
        full = dict(zip("gAG", rrfs_rhs(st, grid, spec)))
        got = rrfs_rhs(st, grid, spec, fields=fields)
        assert len(got) == len(fields)
        for field, arr in zip(fields, got):
            npt.assert_array_equal(arr, full[field])


class TestCoupledSpatialOrder:
    """The full 2D right-hand side with g, A and G all varying (volume mode,
    c = 0.5) converges at 4th order in space: each of dg, dA and dG on m^2
    against a 256^2 reference at the coarse nodes, relative to the
    reference's max.  Measured log2(err_32 / err_64): 3.88 to 3.96."""

    @pytest.mark.parametrize("n_fiber", [1, 2])
    def test_fourth_order(self, n_fiber):
        spec = RescalingSpec("volume", c_coupling=0.5)
        rhs = {}
        for m in (32, 64, 256):
            grid = PeriodicGrid((m, m), (2 * np.pi,) * 2)
            st = random_smooth_state(3, grid, n_fiber, amplitude=0.3, perturb_g=True,
                                     perturb_A=True)
            rhs[m] = rrfs_rhs(st, grid, spec)
        for name, ref, d32, d64 in zip("gAG", rhs[256], rhs[32], rhs[64]):
            err32, err64 = (np.abs(d - ref[::256 // m, ::256 // m]).max() / np.abs(ref).max()
                            for d, m in ((d32, 32), (d64, 64)))
            assert 3.7 < np.log2(err32 / err64) < 4.3, (name, err32, err64)


class TestContractionsMatchMultiIndex:
    """The pairwise RHS contractions against the single multi-index einsum
    formulas they replaced, kept here as the reference."""

    @staticmethod
    def reference(st, grid):
        n = grid.n_base
        ginv, Ginv, G = np.linalg.inv(st.g), np.linalg.inv(st.G), st.G
        dG = np.stack([d_central(st.G, a, grid) for a in range(n)], axis=n)
        dA = np.stack([d_central(st.A, a, grid) for a in range(n)], axis=n)
        F = dA - np.einsum("...dai->...adi", dA)
        return {
            "g_dA": np.einsum("...cd,...ij,...aci,...bdj->...ab", ginv, G, F, F),
            "A_gradG": np.einsum("...bc,...ij,...cjk,...bak->...ai", ginv, Ginv, dG, F),
            "G_gradsq": -np.einsum(
                "...ab,...aik,...kl,...blj->...ij", ginv, dG, Ginv, dG
            ),
            "G_dA": -0.5 * np.einsum(
                "...ac,...bd,...ik,...jl,...abk,...cdl->...ij", ginv, ginv, G, G, F, F
            ),
            "dA_norm_sq": np.einsum(
                "...ac,...bd,...ij,...abi,...cdj->...", ginv, ginv, G, F, F
            ),
        }

    @pytest.mark.parametrize("n_fiber", [1, 2, 3])
    @pytest.mark.parametrize("sizes", [(16,), (12, 10)], ids=["1d", "2d"])
    def test_pairwise_equals_multi_index(self, sizes, n_fiber):
        grid = PeriodicGrid(sizes, (2 * np.pi, 3.0)[: len(sizes)])
        st = random_smooth_state(11, grid, n_fiber, perturb_g=True, perturb_A=True)
        got = rrfs_rhs_terms(st, grid, RescalingSpec("off"))
        got["dA_norm_sq"] = rrfs.dA_norm_sq(st, grid)
        for key, want in self.reference(st, grid).items():
            assert got[key].shape == want.shape, key
            err = np.abs(got[key] - want).max()
            assert err <= 1e-12 * np.abs(want).max(), (key, err)
            if len(sizes) == 2 or key == "G_gradsq":  # F vanishes on a 1D base
                assert np.abs(want).max() > 0, key


class TestLinearModeOrder:
    """Fourier modes about the flat state (g = delta, A = 0, G = 1) decay at
    the rate of their discrete symbol, which tends to the continuum rate at
    4th order.  Measured on grids with period 2 pi and k = 1 up to t = 0.05.

    G's Laplacian uses the compact second derivative, with symbol
    lam_h = (30 - 32 cos h + 2 cos 2h) / (12 h^2); the Ricci term of g and
    the codifferential of dA use composed first derivatives, with symbol
    mu_h = ((8 sin h - sin 2h) / (6 h))^2.
    """

    T_END = 0.05

    @staticmethod
    def lam(h):
        return (30 - 32 * np.cos(h) + 2 * np.cos(2 * h)) / (12 * h * h)

    @staticmethod
    def mu(h):
        return ((8 * np.sin(h) - np.sin(2 * h)) / (6 * h)) ** 2

    @staticmethod
    def rate(f0, f1, mode, t):
        return -np.log((f1 * mode).sum() / (f0 * mode).sum()) / t

    def check(self, rates, symbols, continuum, rtol):
        """Each rate within rtol of its symbol; log2 of the continuum error
        ratio between successive grids in (3.8, 4.2)."""
        for r, s in zip(rates, symbols):
            assert abs(r / s - 1) <= rtol, (r, s)
        errs = [abs(r - continuum) for r in rates]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders > 3.8) & (orders < 4.2)), orders

    def test_1d_log_G_mode(self):
        # harmonic map flow with N = 1: log G obeys the heat equation
        rates, symbols = [], []
        for m in (16, 32, 64):
            grid = PeriodicGrid((m,), (2 * np.pi,))
            (x,) = grid.coords()
            st = RRFSState(np.ones((m, 1, 1)), np.zeros((m, 1, 1)),
                           np.exp(1e-4 * np.cos(x))[:, None, None])
            run = integrate_rrfs(st, grid, RescalingSpec("off"), self.T_END,
                                 evolve_g=False, evolve_A=False)
            rates.append(self.rate(np.log(st.G[:, 0, 0]),
                                   np.log(run.final_state.G[:, 0, 0]),
                                   np.cos(x), run.step_times[-1]))
            symbols.append(self.lam(grid.spacing[0]))
        self.check(rates, symbols, 1.0, rtol=1e-7)

    def test_2d_coupled_modes(self):
        # one volume-mode run carries a conformal mode of g (g = e^{2u} delta,
        # u = eps cos x1), a curl mode of A (A_1 = eps cos x2) and a mode of
        # log G on cos(x1 + x2); their products project to 0 on each mode
        eps = 1e-5
        found = {"g": [], "A": [], "G": []}
        symbols = {"g": [], "A": [], "G": []}
        for m in (8, 16, 32):
            grid = PeriodicGrid((m, m), (2 * np.pi,) * 2)
            X, Y = grid.coords()
            A = np.zeros((m, m, 2, 1))
            A[..., 0, 0] = eps * np.cos(Y)
            st = RRFSState(np.exp(2 * eps * np.cos(X))[..., None, None] * np.eye(2), A,
                           np.exp(eps * np.cos(X + Y))[..., None, None])
            run = integrate_rrfs(st, grid, RescalingSpec("volume"), self.T_END)
            fin, t = run.final_state, run.step_times[-1]
            found["g"].append(self.rate(np.log(st.g[..., 0, 0]),
                                        np.log(fin.g[..., 0, 0]), np.cos(X), t))
            found["A"].append(self.rate(st.A[..., 0, 0], fin.A[..., 0, 0], np.cos(Y), t))
            found["G"].append(self.rate(np.log(st.G[..., 0, 0]),
                                        np.log(fin.G[..., 0, 0]), np.cos(X + Y), t))
            h = grid.spacing[0]
            symbols["g"].append(self.mu(h))
            symbols["A"].append(self.mu(h))
            symbols["G"].append(2 * self.lam(h))
        for key, continuum in (("g", 1.0), ("A", 1.0), ("G", 2.0)):
            self.check(found[key], symbols[key], continuum, rtol=5e-6)


class TestStencilCalls:
    """Each quantity of one RHS differentiates the one field it reads, one
    ``d_central`` call per axis it needs, and ``d2_central`` runs once per axis
    on G; the quantities of g alone differentiate g and the Gamma rows they
    read, once per grid for a frozen g, and a 1D base never differentiates A."""

    @pytest.fixture
    def sizes_in(self, monkeypatch):
        calls = {"d_central": [], "d2_central": []}

        def counting(name, fn):
            def wrapped(fld, *args):
                calls[name].append(fld.size)
                return fn(fld, *args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(rrfs, name, counting(name, getattr(rrfs, name)))
        return calls

    def test_1d_frozen_g_and_A(self, sizes_in):
        st = random_smooth_state(1, S1_64, 2)
        st._metric.per_grid = {}  # a frozen g, as integrate_rrfs keeps it
        rrfs_rhs(st, S1_64, RescalingSpec("off"), fields="G")  # Gamma is now known
        for calls in sizes_in.values():
            calls.clear()
        rrfs_rhs(RRFSState(st._metric, st.A, st.G), S1_64, RescalingSpec("off"), fields="G")
        assert sizes_in == {"d_central": [4 * 64], "d2_central": [4 * 64]}

    def test_2d_all_fields_moving(self, sizes_in):
        grid = PeriodicGrid((16, 12), (2 * np.pi, 3.0))
        st = random_smooth_state(4, grid, 2, perturb_g=True, perturb_A=True)
        rrfs_rhs(st, grid, RescalingSpec("volume"))
        nodes = 16 * 12
        # A per axis for F; g per axis for Gamma; the Gamma rows d_0 Gamma^c_a1 and
        # d_1 Gamma^c_a0 for R; G per axis; F per axis for delta dA; d_1 d_0 G
        assert sizes_in == {"d_central": [4 * nodes, 4 * nodes, 4 * nodes, 4 * nodes,
                                          4 * nodes, 4 * nodes, 4 * nodes, 4 * nodes,
                                          2 * nodes, 2 * nodes, 4 * nodes],
                            "d2_central": [4 * nodes, 4 * nodes]}
        assert sum(sizes_in["d_central"]) == 40 * nodes

    def test_2d_frozen_g(self, sizes_in):
        grid = PeriodicGrid((16, 12), (2 * np.pi, 3.0))
        st = random_smooth_state(4, grid, 2, perturb_g=True, perturb_A=True)
        st._metric.per_grid = {}  # a frozen g, as integrate_rrfs keeps it
        rrfs_rhs(st, grid, RescalingSpec("volume"), fields="AG")  # Gamma and R are now known
        for calls in sizes_in.values():
            calls.clear()
        rrfs_rhs(RRFSState(st._metric, st.A, st.G), grid, RescalingSpec("volume"), fields="AG")
        nodes = 16 * 12
        # A per axis for F; G per axis; F per axis for delta dA; d_1 d_0 G
        assert sizes_in == {"d_central": [4 * nodes, 4 * nodes, 4 * nodes, 4 * nodes,
                                          2 * nodes, 2 * nodes, 4 * nodes],
                            "d2_central": [4 * nodes, 4 * nodes]}

    def test_1d_all_fields_moving_leaves_A_out(self, sizes_in):
        # no axis pair, so no F reads dA and R differentiates no Gamma row: g for
        # Gamma, then G; A, of 3 values per node, is never differentiated
        st = random_smooth_state(1, S1_64, 3, perturb_g=True, perturb_A=True)
        rrfs_rhs(st, S1_64, RescalingSpec("volume"))
        assert sizes_in == {"d_central": [64, 9 * 64], "d2_central": [9 * 64]}


class TestIntegration:
    def test_stationary_stays_stationary(self):
        st = flat_state(S1_64, n_fiber=2)
        run = integrate_rrfs(st, S1_64, RescalingSpec("off"), 1.0)
        assert np.abs(run.final_state.G - np.eye(2)).max() <= 1e-12
        assert np.abs(run.final_state.g - 1.0).max() <= 1e-12
        assert run.final_state is run.snapshots[-1]

    def test_smoothing_decreases_sup_distance(self):
        st = random_smooth_state(0, S1_64, 2)
        run = integrate_rrfs(st, S1_64, RescalingSpec("off"), 0.5,
                             evolve_g=False, evolve_A=False, n_snapshots=6)
        sups = [np.abs(s.G - s.G.mean(axis=0)).max() for s in run.snapshots]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_richardson_refinement_slope(self):
        finals = {}
        for m in (32, 64, 128):
            grid = PeriodicGrid((m,), (2 * np.pi,))
            st = random_smooth_state(0, grid, 2)
            run = integrate_rrfs(st, grid, RescalingSpec("off"), 0.25,
                                 evolve_g=False, evolve_A=False)
            finals[m] = run.final_state.G
        d1 = np.abs(finals[64][::2] - finals[32]).max()
        d2 = np.abs(finals[128][::2] - finals[64]).max()
        assert np.log2(d1 / d2) >= 2.0


class TestStepCap:
    """A run takes at most ``_MAX_STEPS`` steps, the cap of ``ode.integrate_adaptive``."""

    GRID = PeriodicGrid((16,), (2 * np.pi,))

    def initial_cfl_step(self, state):
        h = min(self.GRID.spacing)
        return rrfs.KAPPA_CFL * h * h * state._metric.min_eig

    @pytest.mark.parametrize("t_end", [1e300, np.finfo(float).max])
    def test_unreachable_horizon_refused_before_the_first_step(self, t_end, monkeypatch):
        calls = []
        monkeypatch.setattr(rrfs, "rrfs_rhs", lambda *args, **kw: calls.append(args))
        state = random_smooth_state(0, self.GRID, 2)
        with pytest.raises(MaxStepsExceeded, match="is more than 1000000 steps of the initial"):
            integrate_rrfs(state, self.GRID, RescalingSpec("volume"), t_end)
        assert calls == []

    def test_horizon_at_the_cap_is_run(self, monkeypatch):
        # g frozen: every step is the initial CFL step, so 3 steps reach 3 dt0
        monkeypatch.setattr(rrfs, "_MAX_STEPS", 3)
        state = random_smooth_state(0, self.GRID, 2)
        run = integrate_rrfs(state, self.GRID, RescalingSpec("off"),
                             3 * self.initial_cfl_step(state), evolve_g=False)
        assert len(run.step_times) == 4

    def test_loop_stops_at_the_cap(self, monkeypatch):
        # g evolves in volume mode and the CFL step shrinks: 20 initial CFL
        # steps take 21 steps, so a cap of 20 passes the first check and stops the loop
        state = random_smooth_state(0, self.GRID, 2, perturb_g=True)
        t_end = 20 * self.initial_cfl_step(state)
        spec = RescalingSpec("volume")
        assert len(integrate_rrfs(state, self.GRID, spec, t_end).step_times) == 22
        monkeypatch.setattr(rrfs, "_MAX_STEPS", 20)
        with pytest.raises(MaxStepsExceeded, match="^20 steps did not reach t_end") as info:
            integrate_rrfs(state, self.GRID, spec, t_end)
        assert 0 < info.value.t < t_end


class TestLibraryBoundary:
    @pytest.mark.parametrize("s0", [3.0, -1e-300])
    @pytest.mark.parametrize("mode", ["off", "volume"])
    def test_s0_outside_constant_mode_rejected(self, mode, s0):
        # both modes ran with s0 silently ignored
        with pytest.raises(ValueError, match=f"^rescaling mode '{mode}' takes no s0"):
            RescalingSpec(mode, s0=s0)

    @pytest.mark.parametrize("t_end", [np.nan, np.inf, -np.inf, -1.0, 0.0])
    def test_integrate_rejects_bad_t_end(self, t_end):
        grid = PeriodicGrid((8,), (2 * np.pi,))
        with pytest.raises(ValueError, match=f"^t_end must be positive and finite, got {t_end}$"):
            integrate_rrfs(flat_state(grid), grid, RescalingSpec("off"), t_end)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, 0.0, -1.0])
    def test_integrate_rejects_bad_kappa_cfl(self, kappa):
        grid = PeriodicGrid((8,), (2 * np.pi,))
        message = f"^kappa_cfl must be positive and finite, got {kappa}$"
        with pytest.raises(ValueError, match=message):
            integrate_rrfs(flat_state(grid), grid, RescalingSpec("off"), 1.0,
                           kappa_cfl=kappa)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf])
    def test_random_state_rejects_non_finite_amplitude(self, amplitude):
        grid = PeriodicGrid((8,), (2 * np.pi,))
        with pytest.raises(ValueError, match=f"^amplitude must be finite, got {amplitude}$"):
            random_smooth_state(0, grid, 2, amplitude=amplitude)

    @pytest.mark.parametrize("amplitude", [1e3, 1e6, 1e300, 1.7e308])
    @pytest.mark.parametrize("n_fiber", [1, 2, 3])
    @pytest.mark.parametrize("sizes", [(16,), (8, 8)], ids=["1d", "2d"])
    def test_random_state_overflow_is_an_input_error(self, sizes, n_fiber, amplitude):
        # an exp(S) past the largest double is a non-finite G, reported as such with no
        # numpy warning; at amplitude 1e3 a seeded G may still be finite, SPD or not
        grid = PeriodicGrid(sizes, (2 * np.pi,) * len(sizes))
        want = "fiber metric G " if amplitude == 1e3 else "fiber metric G has non-finite entries"
        try:
            random_smooth_state(0, grid, n_fiber, amplitude=amplitude)
        except rrfs.SPDFieldError as err:
            assert str(err).startswith(want)
        else:
            assert amplitude == 1e3

    @pytest.mark.parametrize("n_fiber", [0, -1])
    def test_random_state_rejects_fiber_dimension_below_one(self, n_fiber):
        grid = PeriodicGrid((8,), (2 * np.pi,))
        with pytest.raises(ValueError, match=f"^n_fiber must be an integer >= 1, got {n_fiber}$"):
            random_smooth_state(0, grid, n_fiber)

    @pytest.mark.parametrize("n", [2.5, np.nan, np.inf])
    def test_integrate_rejects_non_integer_snapshot_count(self, n, monkeypatch):
        st = flat_state(S1_64, n_fiber=2)
        monkeypatch.setattr(rrfs, "rrfs_rhs", None)  # any RHS call would raise TypeError
        with pytest.raises(ValueError, match=f"^n_snapshots must be an integer >= 2, got {n}$"):
            integrate_rrfs(st, S1_64, RescalingSpec("off"), 0.01, n_snapshots=n)

    def test_integrate_keeps_an_integral_float_snapshot_count(self):
        st = flat_state(S1_64, n_fiber=2)
        run = integrate_rrfs(st, S1_64, RescalingSpec("off"), 0.01, n_snapshots=3.0)
        assert len(run.snapshots) == 3

    def test_state_leaves_the_callers_A_writable(self):
        A = np.zeros((8, 1, 2))
        st = RRFSState(np.ones((8, 1, 1)), A, np.broadcast_to(np.eye(2), (8, 2, 2)))
        A[0] = 1.0
        assert not st.A.flags.writeable and not st.A.any()

    GEOMETRY = {
        f.__name__: f for f in (
            christoffels_of_g, dA_field, delta_dA, laplacian_G, tension_G_simplified,
            tension_G_general, grad_G_norm_sq, rrfs.dA_norm_sq, scalar_curvature,
            volume, energy_G, s_volume,
        )
    }
    GEOMETRY["rrfs_rhs"] = lambda st, grid: rrfs_rhs(st, grid, RescalingSpec("volume"))
    MISMATCHES = {
        "nodes": (S1_64, PeriodicGrid((32,), (2 * np.pi,))),
        "1d-state-2d-grid": (S1_64, T2_64),
        "2d-state-1d-grid": (PeriodicGrid((16, 16), (2 * np.pi,) * 2), S1_64),
    }

    @pytest.mark.parametrize("fn", GEOMETRY.values(), ids=GEOMETRY.keys())
    @pytest.mark.parametrize("grids", MISMATCHES.values(), ids=MISMATCHES.keys())
    def test_geometry_rejects_state_of_other_grid(self, fn, grids):
        state_grid, grid = grids
        with pytest.raises(ValueError, match="does not fit grid"):
            fn(flat_state(state_grid, n_fiber=2), grid)

    @pytest.mark.parametrize("shapes", [
        ((8, 1, 1), (8, 2, 3), (8, 2, 2)),   # A has n = 2 on a 1D base
        ((8, 1, 1), (8, 1, 3), (8, 2, 2)),   # A has N = 3 for a 2x2 G
        ((8, 1, 1), (9, 1, 2), (8, 2, 2)),   # A on other nodes
        ((8, 1, 1), (8, 1, 2), (9, 2, 2)),   # G on other nodes
    ], ids=["A-base", "A-fiber", "A-nodes", "G-nodes"])
    def test_state_fields_must_share_nodes_and_dimensions(self, shapes):
        g, A, G = (np.zeros(s) + np.eye(s[-2], s[-1]) for s in shapes)
        with pytest.raises(ValueError, match="do not fit"):
            RRFSState(g, A, G)

    def test_metric_rank_must_match_grid(self):
        # node shape (16, 16) fits, but g is 1x1 per node on a 2D base
        shape = (16, 16)
        st = RRFSState(np.ones(shape + (1, 1)), np.zeros(shape + (1, 2)),
                       np.broadcast_to(np.eye(2), shape + (2, 2)))
        with pytest.raises(ValueError, match="does not fit grid"):
            volume(st, PeriodicGrid(shape, (2 * np.pi,) * 2))


class TestSPDGuard:
    """``RRFSState`` rejects a g or G that is not SPD at some node, naming the
    first such node in C order, and a field with non-finite entries."""

    # per matrix size: indefinite, singular or negative definite nodes; the 3x3
    # ones have an SPD leading 2x2 block, so only the last pivot fails
    BAD = {
        1: [[[-0.5]], [[0.0]]],
        2: [[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, -1e-3]]],
        3: [[[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]],
            [[2.0, 1.0, 1.0], [1.0, 2.0, 1.9], [1.0, 1.9, 1.0]]],
    }
    WHAT = {"g": "base metric g", "G": "fiber metric G"}
    # (field, n, N, bad nodes, the first of them in C order)
    CASES = {
        "g-n1": ("g", 1, 2, [(11,), (5,)], (5,)),
        "g-n2": ("g", 2, 1, [(6, 1), (2, 7)], (2, 7)),
        "G-N1": ("G", 1, 1, [(11,), (5,)], (5,)),
        "G-N2": ("G", 2, 2, [(6, 1), (2, 7)], (2, 7)),
        "G-N3-1d": ("G", 1, 3, [(11,), (5,)], (5,)),
        "G-N3-2d": ("G", 2, 3, [(6, 1), (2, 7)], (2, 7)),
    }

    @staticmethod
    def fields(n, N):
        sizes = (16,) if n == 1 else (8, 8)
        return {"g": np.broadcast_to(np.eye(n), sizes + (n, n)).copy(),
                "A": np.zeros(sizes + (n, N)),
                "G": np.broadcast_to(np.eye(N), sizes + (N, N)).copy()}

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_rejects_first_non_spd_node(self, case):
        name, n, N, nodes, first = case
        f = self.fields(n, N)
        k = f[name].shape[-1]
        for bad in self.BAD[k]:
            for node in nodes:
                f[name][node] = bad
            with pytest.raises(rrfs.SPDFieldError) as info:
                RRFSState(**f)
            assert str(info.value) == (
                f"{self.WHAT[name]} is not positive definite at node {first}")
            assert info.value.node == first

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_rejects_non_finite(self, case, value):
        name, n, N, nodes, _ = case
        f = self.fields(n, N)
        f[name][nodes[0] + (0, f[name].shape[-1] - 1)] = value
        with pytest.raises(rrfs.SPDFieldError,
                           match=f"^{self.WHAT[name]} has non-finite entries$"):
            RRFSState(**f)

    def test_halving_path(self, monkeypatch):
        # the full 0.05 step loses G's positivity at one stage; the step
        # is halved once and the run lands on t_end in two steps of 0.025
        grid = PeriodicGrid((16, 16), (2 * np.pi,) * 2)
        st = random_smooth_state(0, grid, 2, amplitude=1.5, perturb_g=True, perturb_A=True)
        check, errors = rrfs._check_spd_field, []

        def recording(fld, what):
            try:
                return check(fld, what)
            except rrfs.SPDFieldError as err:
                errors.append(str(err))
                raise

        monkeypatch.setattr(rrfs, "_check_spd_field", recording)
        run = integrate_rrfs(st, grid, RescalingSpec("volume"), 0.05, kappa_cfl=2.0)
        npt.assert_array_equal(np.diff(run.step_times), [0.025, 0.025])
        assert errors == ["fiber metric G is not positive definite at node (1, 8)"]


class TestStageOneDiagnostics:
    """``integrate_rrfs`` builds one ``_Geometry`` per RHS stage and one for
    the final state, and runs stage 1 once per accepted state: the energy,
    volume and s of every other accepted state come from the bundle that
    stage-1 RHS left on the state.  Every state it builds runs the full
    ``RRFSState`` check."""

    GRID_2D = PeriodicGrid((16, 16), (2 * np.pi,) * 2)
    # (grid, seed, amplitude, spec, t_end, kappa_cfl, whether g and A evolve,
    # RHS calls of rejected attempts); "halving" is TestSPDGuard's path: the
    # first 0.05 step reuses the k1 of the initial state and fails the check
    # of its stage-4 state after the RHS calls of stages 2 and 3, and the run
    # takes two steps of 0.025; "frozen_1d" asks rrfs_rhs for G alone
    RUNS = {
        "coupled": (GRID_2D, 3, 0.3, RescalingSpec("volume", c_coupling=0.5), 0.1,
                    rrfs.KAPPA_CFL, True, 0),
        "halving": (GRID_2D, 0, 1.5, RescalingSpec("volume"), 0.05, 2.0, True, 2),
        "frozen_1d": (S1_64, 7, 0.3, RescalingSpec("volume", c_coupling=0.5), 0.01,
                      rrfs.KAPPA_CFL, False, 0),
    }

    @pytest.fixture(params=RUNS.values(), ids=RUNS.keys())
    def counted(self, request, monkeypatch):
        grid, seed, amplitude, spec, t_end, kappa, evolves, rejected = request.param
        st = random_smooth_state(seed, grid, 2, amplitude=amplitude,
                                 perturb_g=True, perturb_A=True)
        built, calls, checked = [0], [], [0]  # calls: (state, whether a stage 1) per rrfs_rhs
        in_rk4 = [False]  # stages 2-4 run inside rk4_step, stage 1 before it

        class Counting(rrfs._Geometry):
            def __init__(self, *args):
                super().__init__(*args)
                built[0] += 1

        def rhs(state, grid, spec, **kwargs):
            assert list(kwargs["fields"]) == (["g", "A", "G"] if evolves else ["G"])
            calls.append((state, not in_rk4[0]))
            return rhs_orig(state, grid, spec, **kwargs)

        def rk4(*args):
            in_rk4[0] = True
            try:
                return rk4_orig(*args)
            finally:
                in_rk4[0] = False

        def check(self):
            checked[0] += 1
            return check_orig(self)

        rhs_orig, check_orig, rk4_orig = rrfs.rrfs_rhs, RRFSState.__post_init__, rrfs.rk4_step
        monkeypatch.setattr(rrfs, "_Geometry", Counting)
        monkeypatch.setattr(rrfs, "rrfs_rhs", rhs)
        monkeypatch.setattr(rrfs, "rk4_step", rk4)
        monkeypatch.setattr(RRFSState, "__post_init__", check)
        run = integrate_rrfs(st, grid, spec, t_end, kappa_cfl=kappa,
                             evolve_g=evolves, evolve_A=evolves)
        monkeypatch.undo()
        return grid, run, rejected, built[0], calls, checked[0]

    def test_one_bundle_per_stage_and_one_for_the_final_state(self, counted):
        _, run, rejected, built, calls, _ = counted
        steps = len(run.step_times) - 1
        assert steps > 1
        assert len(calls) == 4 * steps + rejected
        assert built == len(calls) + 1

    def test_one_state_check_per_stage(self, counted):
        # stage 1 reads an accepted state, checked once as the result of its step;
        # stages 2-4 check theirs.  The halving run also checks the stage-4 state
        # that fails, which gets no RHS: 11 checks for 10 RHS calls
        _, _, rejected, _, calls, checked = counted
        assert checked == len(calls) + (1 if rejected else 0)
        if rejected:
            assert (checked, len(calls)) == (11, 10)

    def test_series_match_each_recorded_state(self, counted):
        grid, run, rejected, _, calls, _ = counted
        starts = [st for st, first in calls if first]
        # a halved step does not run stage 1 again on the same state
        assert len(starts) == len({id(st) for st in starts})
        states = [*starts, run.final_state]
        assert len(run.step_times) == len(states)
        for series in (run.energies, run.volumes, run.s_values):
            assert len(series) == len(states)
        for k, st in enumerate(states):
            assert run.energies[k] == energy_G(st, grid)
            assert run.volumes[k] == volume(st, grid)
            assert run.s_values[k] == s_volume(st, grid)
        if rejected:
            npt.assert_array_equal(np.diff(run.step_times), [0.025, 0.025])


class TestGeometryMemo:
    """``_Geometry``'s quantities are lock-free memos: each runs its function
    (kept as ``.func``) at most once per bundle, and the quantities of g alone
    at most once per grid for a frozen g."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """(bundle, name) -> calls of each quantity's function, through a subclass."""
        counts = {}

        def counted(memo):
            def func(geo):
                counts[geo, memo.name] = counts.get((geo, memo.name), 0) + 1
                return memo.func(geo)
            func.__name__ = memo.name
            return type(memo)(func)

        quantities = {name: counted(attr) for name, attr in vars(rrfs._Geometry).items()
                      if isinstance(attr, rrfs._memo)}
        monkeypatch.setattr(rrfs, "_Geometry", type("Counting", (rrfs._Geometry,), quantities))
        return counts

    @staticmethod
    def rhs_and_diagnostics(st, grid, spec, fields):
        rrfs_rhs(st, grid, spec, fields=fields)
        geo = rrfs._Geometry.of(st, grid)
        return geo.energy, geo.volume, geo.s(spec)

    def test_2d_all_fields_moving(self, counts):
        grid = PeriodicGrid((16, 12), (2 * np.pi, 3.0))
        st = random_smooth_state(4, grid, 2, perturb_g=True, perturb_A=True)
        self.rhs_and_diagnostics(st, grid, RescalingSpec("volume", c_coupling=0.5), "gAG")
        assert set(counts.values()) == {1}
        assert {"dG", "dA", "Ginv", "dA_sums", "laplacian_G", "trace_MM",
                "scalar_curvature", "s_volume", "energy"} <= {name for _, name in counts}

    def test_1d_frozen_g(self, counts):
        st = random_smooth_state(1, S1_64, 2)
        st._metric.per_grid = {}  # a frozen g, as integrate_rrfs keeps it
        for state in (st, RRFSState(st._metric, st.A, st.G)):  # two bundles on one g
            self.rhs_and_diagnostics(state, S1_64, RescalingSpec("volume"), "G")
        assert set(counts.values()) == {1}
        per_name = [name for _, name in counts]
        for name in ("ginv", "christoffels", "gamma", "scalar_curvature", "volume"):
            assert per_name.count(name) == 1  # per grid
        for name in ("dG", "Ginv", "laplacian_G", "grad_square", "s_volume"):
            assert per_name.count(name) == 2  # per bundle

    def test_2d_frozen_g(self, counts):
        # R, which alone differentiates the Gamma rows, runs once per grid
        grid = PeriodicGrid((16, 12), (2 * np.pi, 3.0))
        st = random_smooth_state(4, grid, 2, perturb_g=True, perturb_A=True)
        st._metric.per_grid = {}  # a frozen g, as integrate_rrfs keeps it
        for state in (st, RRFSState(st._metric, st.A, st.G)):  # two bundles on one g
            self.rhs_and_diagnostics(state, grid, RescalingSpec("volume"), "AG")
        assert set(counts.values()) == {1}
        per_name = [name for _, name in counts]
        for name in ("ginv", "christoffels", "gamma", "scalar_curvature", "volume"):
            assert per_name.count(name) == 1  # per grid
        for name in ("dG", "dA", "dA_sums", "laplacian_G", "s_volume"):
            assert per_name.count(name) == 2  # per bundle

    def test_1d_mode_off_moving_g_computes_no_curvature(self, counts):
        # R is exactly 0 on a 1D base, so the g equation builds no -R g term
        st = random_smooth_state(1, S1_64, 2, perturb_g=True)
        rrfs_rhs(st, S1_64, RescalingSpec("off"), fields="gG")
        names = {name for _, name in counts}
        assert "trace_MM" in names and "scalar_curvature" not in names

    def test_scalar_curvature_once_per_grid_and_unchanged(self, counts, monkeypatch):
        # a frozen g computes R once per grid; the run equals one that computes it per bundle
        grid = PeriodicGrid((16, 16), (2 * np.pi,) * 2)
        spec, t_end = RescalingSpec("volume", c_coupling=0.7), 0.1
        st = random_smooth_state(7, grid, 2, amplitude=0.3, perturb_g=True, perturb_A=True)
        run = integrate_rrfs(st, grid, spec, t_end, evolve_g=False)
        assert len(run.step_times) > 3
        assert [name for _, name in counts].count("scalar_curvature") == 1

        class PerBundle(rrfs._Geometry):  # the counting subclass, with R per bundle
            scalar_curvature = rrfs._memo(rrfs._Geometry.scalar_curvature.func)

        monkeypatch.setattr(rrfs, "_Geometry", PerBundle)
        counts.clear()
        st = random_smooth_state(7, grid, 2, amplitude=0.3, perturb_g=True, perturb_A=True)
        ref = integrate_rrfs(st, grid, spec, t_end, evolve_g=False)
        bundles = 4 * (len(ref.step_times) - 1) + 1
        assert [name for _, name in counts].count("scalar_curvature") == bundles
        for key in ("step_times", "energies", "volumes", "s_values"):
            npt.assert_array_equal(getattr(run, key), getattr(ref, key))
        for key in "gAG":
            npt.assert_array_equal(getattr(run.final_state, key), getattr(ref.final_state, key))

    def test_class_access_returns_the_descriptor(self):
        for name, kind in (("laplacian_G", rrfs._memo), ("scalar_curvature", rrfs._of_g)):
            memo = vars(rrfs._Geometry)[name]
            assert type(memo) is kind and getattr(rrfs._Geometry, name) is memo
            assert memo.func.__name__ == name

    def test_grid_spacing_caches_on_the_frozen_dataclass(self):
        grid = PeriodicGrid((16, 8), (2 * np.pi, 4.0))
        spacing = grid.spacing
        assert spacing == (2 * np.pi / 16, 0.5)
        assert grid.spacing is spacing and vars(grid)["spacing"] is spacing
        assert grid == PeriodicGrid((16, 8), (2 * np.pi, 4.0))
        assert hash(grid) == hash(PeriodicGrid((16, 8), (2 * np.pi, 4.0)))
        with pytest.raises(AttributeError):
            grid.sizes = (8, 8)


class TestStateBundle:
    """The public geometry functions and ``rrfs_rhs_terms`` share one
    ``_Geometry`` per state and grid (``_Geometry.of``): their values equal
    those of a fresh bundle, no caller can write into the bundle, and the
    bundle holds no reference to its state, so the two die together."""

    GRIDS = {"1d": S1_64, "2d": PeriodicGrid((16, 12), (2 * np.pi, 3.0))}
    SPEC = RescalingSpec("volume", c_coupling=0.5)
    # the functions whose arrays are views of the bundle's memory
    VIEWS = (christoffels_of_g, delta_dA, laplacian_G, grad_G_norm_sq, rrfs.dA_norm_sq,
             scalar_curvature)

    @classmethod
    def functions(cls):
        fns = dict(TestLibraryBoundary.GEOMETRY)
        fns["rrfs_rhs"] = lambda st, grid: rrfs_rhs(st, grid, cls.SPEC)
        fns["rrfs_rhs_terms"] = lambda st, grid: rrfs_rhs_terms(st, grid, cls.SPEC)
        return fns

    @staticmethod
    def make(grid):
        return random_smooth_state(4, grid, 2, perturb_g=True, perturb_A=True)

    @staticmethod
    def assert_same(got, want):
        if isinstance(want, dict):
            assert got.keys() == want.keys()
            for key in want:
                TestStateBundle.assert_same(got[key], want[key])
        elif isinstance(want, tuple):
            for a, b in zip(got, want, strict=True):
                TestStateBundle.assert_same(a, b)
        else:
            got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
            assert got.shape == want.shape
            npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_shared_bundle_equals_fresh_bundles(self, grid):
        st, fns = self.make(grid), self.functions()
        for name in reversed(fns):  # fill the shared bundle in another order
            fns[name](st, grid)
        assert list(st._bundles) == [grid]
        for name, fn in fns.items():
            self.assert_same(fn(st, grid), fn(self.make(grid), grid))

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_no_caller_writes_into_the_bundle(self, grid):
        st = self.make(grid)
        for fn in self.VIEWS:
            with pytest.raises(ValueError, match="read-only"):
                fn(st, grid)[...] = 0.0
        for key, term in rrfs_rhs_terms(st, grid, self.SPEC).items():
            if key != "s":
                with pytest.raises(ValueError, match="read-only"):
                    term[...] = 0.0
        fresh = self.make(grid)
        for name, fn in self.functions().items():
            first, want = fn(st, grid), fn(fresh, grid)
            parts = first.values() if isinstance(first, dict) else (
                first if isinstance(first, tuple) else [first])
            for arr in parts:
                if isinstance(arr, np.ndarray) and arr.flags.writeable:
                    arr[...] = np.nan  # an array of its own: the next call is unchanged
            self.assert_same(fn(st, grid), want)

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_state_and_bundle_die_without_the_cycle_collector(self, grid):
        gc.disable()
        try:
            st = self.make(grid)
            for fn in self.functions().values():
                fn(st, grid)
            assert isinstance(st._bundles[grid], rrfs._Geometry)
            ref = weakref.ref(st)
            del st
            assert ref() is None
        finally:
            gc.enable()

    def test_run_snapshots_hold_no_bundle(self):
        grid = self.GRIDS["2d"]
        run = integrate_rrfs(self.make(grid), grid, self.SPEC, 0.02, n_snapshots=3)
        assert len(run.snapshots) == 3
        assert all(st._bundles == {} for st in run.snapshots)


class TestRHSReadsTheStateBundle:
    """``rrfs_rhs`` and ``integrate_rrfs`` read the state's own bundle
    (``_Geometry.of``) like the public functions: one bundle serves the RHS
    and the diagnostics of a state, and a run reads a bundle that is already
    filled, gives the results of a fresh state and drops it."""

    SPEC = TestStateBundle.SPEC
    RUNS = {"coupled_2d": (TestStateBundle.GRIDS["2d"], 0.05, True),
            "frozen_1d": (S1_64, 0.01, False)}  # (grid, t_end, whether g and A evolve)

    @pytest.mark.parametrize("grid", TestStateBundle.GRIDS.values(),
                             ids=TestStateBundle.GRIDS.keys())
    def test_rhs_and_diagnostics_build_one_bundle(self, grid, monkeypatch):
        built = []

        class Counting(rrfs._Geometry):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        fns = {"rrfs_rhs": lambda st: rrfs_rhs(st, grid, self.SPEC),
               "energy_G": lambda st: energy_G(st, grid), "volume": lambda st: volume(st, grid),
               "s_volume": lambda st: s_volume(st, grid),
               "rrfs_rhs_terms": lambda st: rrfs_rhs_terms(st, grid, self.SPEC)}
        monkeypatch.setattr(rrfs, "_Geometry", Counting)
        st = TestStateBundle.make(grid)
        got = {name: fn(st) for name, fn in fns.items()}
        assert len(built) == 1 and st._bundles == {grid: built[0]}
        for name, fn in fns.items():
            TestStateBundle.assert_same(got[name], fn(TestStateBundle.make(grid)))

    @pytest.mark.parametrize("grid, t_end, evolves", RUNS.values(), ids=RUNS.keys())
    def test_run_from_a_filled_bundle_equals_a_fresh_run(self, grid, t_end, evolves):
        st = TestStateBundle.make(grid)
        for fn in TestStateBundle.functions().values():
            fn(st, grid)
        assert list(st._bundles) == [grid]
        runs = [integrate_rrfs(state, grid, self.SPEC, t_end, evolve_g=evolves,
                               evolve_A=evolves, n_snapshots=3)
                for state in (st, TestStateBundle.make(grid))]
        assert len(runs[0].step_times) > 3
        for key in ("step_times", "energies", "volumes", "s_values"):
            TestStateBundle.assert_same(getattr(runs[0], key), getattr(runs[1], key))
        for key in "gAG":
            TestStateBundle.assert_same(getattr(runs[0].final_state, key),
                                        getattr(runs[1].final_state, key))
        assert runs[0].snapshots[0] is st and st._bundles == {}
        assert all(state._bundles == {} for run in runs for state in run.snapshots)


class TestStageStatesSymmetric:
    """Every g and G that ``integrate_rrfs`` hands to ``RRFSState`` (stage
    states, step results, halved attempts) is already bitwise symmetric: RK4
    forms y + h k elementwise from right-hand sides that are symmetrised, so
    the ``_sym`` in ``RRFSState.__post_init__`` returns its input unchanged
    there.  A frozen g arrives as the input state's ``_Metric`` and is not
    counted; nor are the input states, whose ``_expm_sym`` G is not exactly
    symmetric."""

    GRID_2D = PeriodicGrid((16, 16), (2 * np.pi,) * 2)
    # (grid, seed, amplitude, spec, t_end, kappa_cfl, whether g and A evolve, inputs)
    RUNS = {
        "frozen_1d": (S1_64, 0, 0.3, RescalingSpec("off"), 0.05, rrfs.KAPPA_CFL, False, 104),
        "volume_2d": (GRID_2D, 3, 0.3, RescalingSpec("volume", c_coupling=0.5), 0.1,
                      rrfs.KAPPA_CFL, True, 32),
        "halving": (GRID_2D, 0, 1.5, RescalingSpec("volume"), 0.05, 2.0, True, 22),
    }

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_run_hands_over_symmetric_fields(self, run, monkeypatch):
        grid, seed, amplitude, spec, t_end, kappa, evolves, n_inputs = run
        st = random_smooth_state(seed, grid, 2, amplitude=amplitude,
                                 perturb_g=evolves, perturb_A=evolves)
        state_cls, handed = rrfs.RRFSState, []

        def recording(g, A, G):
            handed.extend(f for f in (g, G) if isinstance(f, np.ndarray))
            return state_cls(g, A, G)

        monkeypatch.setattr(rrfs, "RRFSState", recording)
        integrate_rrfs(st, grid, spec, t_end, kappa_cfl=kappa,
                       evolve_g=evolves, evolve_A=evolves)
        assert len(handed) == n_inputs
        for f in handed:
            npt.assert_array_equal(f.view(np.uint64), np.swapaxes(f, -1, -2).view(np.uint64))


class TestStateCheckOutsideTheStep:
    """``integrate_rrfs`` lets the states it builds skip the symmetrisation of g and G,
    the finiteness test of a frozen A and the count of N.  A public ``RRFSState`` skips
    none of them, read-only fields included, and a stage state that fails its check
    still halves the step."""

    GRID_2D = PeriodicGrid((16, 16), (2 * np.pi,) * 2)

    @pytest.mark.parametrize("field", ["g", "G"])
    def test_read_only_asymmetric_field_is_symmetrised(self, field):
        shape = self.GRID_2D.sizes
        fields = {"g": np.broadcast_to(np.eye(2), shape + (2, 2)), "A": np.zeros(shape + (2, 2)),
                  "G": np.broadcast_to(np.eye(2), shape + (2, 2))}
        fields[field] = np.broadcast_to([[2.0, 0.5], [0.25, 1.0]], shape + (2, 2))
        assert not fields[field].flags.writeable
        st = RRFSState(**fields)
        npt.assert_array_equal(getattr(st, field),
                               np.broadcast_to([[2.0, 0.375], [0.375, 1.0]], shape + (2, 2)))

    def test_read_only_A_with_nan_is_refused(self):
        A = np.zeros((16, 1, 2))
        A[3, 0, 1] = np.nan
        A.setflags(write=False)
        with pytest.raises(rrfs.SPDFieldError, match="^connection A has non-finite entries$"):
            RRFSState(np.ones((16, 1, 1)), A, np.broadcast_to(np.eye(2), (16, 2, 2)))

    def test_non_spd_stage_G_halves_the_step(self):
        # TestSPDGuard's halving case: its halved run is the chain of two runs of the
        # halved step, bitwise
        st = random_smooth_state(0, self.GRID_2D, 2, amplitude=1.5, perturb_g=True,
                                 perturb_A=True)
        spec = RescalingSpec("volume")
        run = integrate_rrfs(st, self.GRID_2D, spec, 0.05, kappa_cfl=2.0)
        first = integrate_rrfs(st, self.GRID_2D, spec, 0.025, kappa_cfl=2.0)
        second = integrate_rrfs(first.final_state, self.GRID_2D, spec, 0.025, kappa_cfl=2.0)
        npt.assert_array_equal(np.diff(run.step_times), [0.025, 0.025])
        for key in "gAG":
            npt.assert_array_equal(getattr(run.final_state, key),
                                   getattr(second.final_state, key))
        for key in ("energies", "volumes", "s_values"):
            npt.assert_array_equal(getattr(run, key), np.concatenate(
                [getattr(first, key), getattr(second, key)[1:]]))

    RUNS = {  # (grid, whether g and A evolve, spec)
        "frozen_1d": (S1_64, False, RescalingSpec("off")),
        "volume_2d": (GRID_2D, True, RescalingSpec("volume", c_coupling=0.5)),
    }

    @staticmethod
    def poisoned_run(monkeypatch, grid, evolves, spec, bad):
        """A run of 2.5 initial CFL steps whose RHS calls numbered in ``bad`` (the
        first call is 0, stage 1 at the input state) return an infinite dG/dt."""
        st = random_smooth_state(7, grid, 2, perturb_g=evolves, perturb_A=evolves)
        rhs, calls = rrfs.rrfs_rhs, [0]

        def poisoned(*args, **kwargs):
            out = rhs(*args, **kwargs)
            calls[0] += 1
            return out[:-1] + (np.full_like(out[-1], np.inf),) if calls[0] - 1 in bad else out

        h = min(grid.spacing)
        dt0 = rrfs.KAPPA_CFL * h * h * np.linalg.eigvalsh(st.g)[..., 0].min()
        monkeypatch.setattr(rrfs, "rrfs_rhs", poisoned)
        try:
            return integrate_rrfs(st, grid, spec, 2.5 * dt0, evolve_g=evolves,
                                  evolve_A=evolves)
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("case", RUNS.values(), ids=RUNS.keys())
    def test_non_finite_stage_G_halves_the_step(self, case, monkeypatch):
        # call 1 is stage 2 of the first attempt: its stage-3 state has G = inf, and
        # the halved attempt, whose calls are finite, is taken
        run = self.poisoned_run(monkeypatch, *case, bad={1})
        clean = self.poisoned_run(monkeypatch, *case, bad=())
        assert run.step_times[1] == 0.5 * clean.step_times[1]
        assert np.isfinite(run.final_state.G).all()

    @pytest.mark.parametrize("case", RUNS.values(), ids=RUNS.keys())
    def test_non_finite_stage_G_on_every_attempt_raises(self, case, monkeypatch):
        with pytest.raises(rrfs.SPDFieldError, match="^SPD structure lost after 50 step "
                                                     "halvings at t = 0$") as info:
            self.poisoned_run(monkeypatch, *case, bad=range(1, 100))
        assert str(info.value.__cause__) == "fiber metric G has non-finite entries"


@st.composite
def symmetric_fields(draw):
    """Symmetric k x k fields (k = 1, 2, 3) on 5 or 3 x 4 nodes, each node
    Q diag(lam) Q^T with |lam| in [0.05, 4], so at least 1/80 of the largest
    eigenvalue away from singular, then scaled by 10^[-3, 3] and by a
    diagonal congruence D . D with D in 10^[-2, 2], which keeps the signs of
    the eigenvalues.  Up to three nodes get one negative eigenvalue."""
    k, sizes = draw(st.integers(1, 3)), draw(st.sampled_from([(5,), (3, 4)]))
    m = int(np.prod(sizes))
    Q = np.linalg.qr(draw(hnp.arrays(np.float64, (m, k, k), elements=st.floats(-1, 1)))
                     + 2 * np.eye(k))[0]
    lam = draw(hnp.arrays(np.float64, (m, k), elements=st.floats(0.05, 4.0)))
    for node in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        lam[node, draw(st.integers(0, k - 1))] *= -1
    scale = 10.0 ** draw(hnp.arrays(np.float64, (m, 1, 1), elements=st.floats(-3, 3)))
    D = 10.0 ** draw(hnp.arrays(np.float64, (m, k), elements=st.floats(-2, 2)))
    fld = scale * np.einsum("...ik,...k,...jk->...ij", Q, lam, Q)
    fld = D[:, :, None] * fld * D[:, None, :]
    return (0.5 * (fld + np.swapaxes(fld, -1, -2))).reshape(sizes + (k, k))


class TestSPDElimination:
    """The elimination test of ``_check_spd_field`` against eigenvalues."""

    @settings(max_examples=150)
    @given(symmetric_fields())
    def test_agrees_with_eigvalsh(self, fld):
        w = np.linalg.eigvalsh(fld)[..., 0]
        if np.all(w > 0):
            rrfs._check_spd_field(fld, "field")
            return
        with pytest.raises(rrfs.SPDFieldError) as info:
            rrfs._check_spd_field(fld, "field")
        assert info.value.node == tuple(int(i) for i in np.argwhere(w <= 0)[0])

    @settings(max_examples=150)
    @given(symmetric_fields())
    def test_spd_matrix_agrees_with_eigvalsh(self, fld):
        # the single-matrix SPDMatrix shares the elimination test of the fields
        for node in fld.reshape((-1,) + fld.shape[-2:]):
            if np.linalg.eigvalsh(node)[0] > 0:
                SPDMatrix(node)
            else:
                with pytest.raises(SPDError, match="^matrix is not positive definite$"):
                    SPDMatrix(node)

    EXTREME = {
        "overflow": [[1e-200, 1e60], [1e60, 1.0]],
        "huge-off": [[1e-300, 1e300], [1e300, 1e-300]],
        "max-diag": [[1e308, 1.7e308], [1.7e308, 1e308]],
        "subnormal": [[5e-324, 1e-300], [1e-300, 5e-324]],
        "zero": [[0.0, 0.0], [0.0, 0.0]],
        "negative-max": [[-1.7e308, 1e308], [1e308, -1.7e308]],
        "3x3-huge": [[1e-150, 1e150, 1.0], [1e150, 1e-150, 1e300], [1.0, 1e300, 1e-300]],
        "3x3-tiny-pivot": [[1.0, 1 - 1e-16, 1e308], [1 - 1e-16, 1.0, -1e308],
                           [1e308, -1e308, 1.0]],
    }

    @pytest.mark.parametrize("bad", EXTREME.values(), ids=EXTREME.keys())
    def test_extreme_entries_fail_without_runtime_warning(self, bad):
        fld = np.broadcast_to(np.eye(len(bad)), (6, len(bad), len(bad))).copy()
        fld[4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rrfs.SPDFieldError, match=r"not positive definite at node \(4,\)"):
                rrfs._check_spd_field(fld, "field")

    def test_overflow_case_through_state(self):
        G = np.broadcast_to(np.eye(2), (6, 2, 2)).copy()
        G[4] = self.EXTREME["overflow"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rrfs.SPDFieldError,
                               match=r"^fiber metric G is not positive definite at node \(4,\)$"):
                RRFSState(np.ones((6, 1, 1)), np.zeros((6, 1, 2)), G)

    def test_state_symmetrises_near_max_float_without_overflow(self):
        G = np.broadcast_to(np.eye(2), (6, 2, 2)).copy()
        G[3] = [[1.5e308, 1e308], [1e308, 1.5e308]]
        g, A = np.ones((6, 1, 1)), np.zeros((6, 1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            npt.assert_array_equal(RRFSState(g, A, G).G, G)
            G[3] = self.EXTREME["max-diag"]
            with pytest.raises(rrfs.SPDFieldError,
                               match=r"^fiber metric G is not positive definite at node \(3,\)$"):
                RRFSState(g, A, G)

    def test_extreme_spd_entries_pass(self):
        fld = np.array([[[1e-300, 0.0], [0.0, 1e300]], [[1e300, 1e299], [1e299, 1e300]],
                        [[5e-324, 0.0], [0.0, 5e-324]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rrfs._check_spd_field(fld, "field")

    @pytest.mark.parametrize("scale", [1e160, 1e-170], ids=["overflow", "underflow"])
    def test_base_metric_determinant_out_of_range_rejected(self, scale):
        f = TestSPDGuard.fields(2, 1)
        for node in [(6, 1), (2, 7)]:
            f["g"][node] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rrfs.SPDFieldError, match=(
                    r"^base metric g has a determinant outside the floating-point range "
                    r"at node \(2, 7\)$")) as info:
                RRFSState(**f)
        assert info.value.node == (2, 7)

    def test_base_metric_with_large_determinant_passes(self):
        f = TestSPDGuard.fields(2, 1)
        f["g"] *= 1e100
        f["g"][3, 4] = [[1e155, 0.999e155], [0.999e155, 1e155]]  # g_01^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = RRFSState(**f)
        assert st._metric.det[0, 0] == 1e200
        assert st._metric.det[3, 4] == pytest.approx(1.999e307, rel=1e-12)
        assert st._metric.min_eig == 1e100

    def test_base_metric_must_be_1x1_or_2x2(self):
        with pytest.raises(ValueError, match="base metric g must be 1x1 or 2x2"):
            RRFSState(np.broadcast_to(np.eye(3), (8, 3, 3)), np.zeros((8, 3, 1)),
                      np.ones((8, 1, 1)))


class TestClosedFormMetric:
    """min-eig g, sqrt(det g) and g^-1 in closed form against LAPACK, on
    well-conditioned seeded fields (relative error 1e-13)."""

    GRIDS = {"1d": PeriodicGrid((64,), (2 * np.pi,)),
             "2d": PeriodicGrid((16, 12), (2 * np.pi, 3.0))}

    @pytest.mark.parametrize("amplitude", [0.3, 1.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    def test_against_lapack(self, grid, seed, amplitude):
        st = random_smooth_state(seed, grid, 2, amplitude=amplitude, perturb_g=True)
        if grid.n_base == 2:  # a rotated anisotropic g, not only near-diagonal ones
            X, Y = grid.coords()
            th, big = np.sin(X + 2 * Y), 2.0 + np.cos(X)
            R = np.stack([np.stack([np.cos(th), -np.sin(th)], -1),
                          np.stack([np.sin(th), np.cos(th)], -1)], -2)
            g = np.einsum("...ik,...k,...jk->...ij", R, np.stack([big, 1 / big], -1), R)
            st = RRFSState(g * st.g[..., :1, :1], st.A, st.G)
        w = np.linalg.eigvalsh(st.g)
        assert abs(st._metric.min_eig / w[..., 0].min() - 1) <= 1e-13
        npt.assert_allclose(st._metric.sqrt_det, np.sqrt(np.linalg.det(st.g)), rtol=1e-13, atol=0)
        ginv = rrfs._grid_first(rrfs._Geometry(st, grid).ginv, grid.n_base)
        want = np.linalg.inv(st.g)
        err = np.abs(ginv - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
        assert err.max() <= 1e-13


class TestSnapshots:
    @pytest.mark.parametrize("n_base", [1, 2])
    def test_round_trip_bit_exact(self, tmp_path, n_base):
        grid = PeriodicGrid((16,) * n_base, (2 * np.pi,) * n_base)
        st = random_smooth_state(9, grid, 2, perturb_g=True, perturb_A=True)
        path = tmp_path / "snap.txt"
        save_snapshot(st, grid, path)
        st2, grid2 = load_snapshot(path)
        assert grid2 == grid
        npt.assert_array_equal(st2.g, st.g)
        npt.assert_array_equal(st2.A, st.A)
        npt.assert_array_equal(st2.G, st.G)

    def test_missing_node_row_rejected(self, tmp_path):
        grid = PeriodicGrid((8,), (2 * np.pi,))
        path = tmp_path / "snap.txt"
        save_snapshot(flat_state(grid), grid, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError) as info:
            load_snapshot(path)
        assert str(info.value) == f"snapshot {path} has 7 node rows, not 8"

    @pytest.mark.parametrize("grids", TestLibraryBoundary.MISMATCHES.values(),
                             ids=TestLibraryBoundary.MISMATCHES.keys())
    def test_state_of_other_grid_refused_before_the_file_is_opened(self, tmp_path, grids):
        state_grid, grid = grids
        st, path = flat_state(state_grid, n_fiber=2), tmp_path / "snap.txt"
        with pytest.raises(ValueError) as info:
            save_snapshot(st, grid, path)
        assert str(info.value) == (f"state with g of shape {st.g.shape} does not fit grid "
                                   f"{grid.sizes}")
        assert not path.exists()

    @pytest.mark.parametrize("grid", [S1_64, PeriodicGrid((16, 16), (1.0, 1.0)),
                                      PeriodicGrid((24, 16), (2.0, 0.7))],
                             ids=["1d", "square", "unequal"])
    def test_smooth_scalar_equals_meshgrid_formula(self, grid):
        # the cosines of each mode on the axis coordinates, multiplied as an outer
        # product, are the products of the cosines on the full meshgrid
        for seed in range(5):
            rng, coords, want = np.random.default_rng(seed), grid.coords(), np.zeros(grid.sizes)
            for _ in range(rrfs._SMOOTH_MODES):
                phase = rng.uniform(0, 2 * np.pi, size=grid.n_base)
                ks = rng.integers(1, 4, size=grid.n_base)
                want += rng.normal() * np.prod(
                    [np.cos(2 * np.pi * k * x / p + ph)
                     for k, x, p, ph in zip(ks, coords, grid.period, phase)], axis=0)
            got = rrfs._smooth_scalar(np.random.default_rng(seed), grid)
            npt.assert_array_equal(got, want / rrfs._SMOOTH_MODES)

    def test_random_state_deterministic(self):
        a = random_smooth_state(3, S1_64, 2, perturb_g=True)
        b = random_smooth_state(3, S1_64, 2, perturb_g=True)
        npt.assert_array_equal(a.G, b.G)
        npt.assert_array_equal(a.g, b.g)


class TestSeededStateGridIndependence:
    """A seeded state is a function of the node coordinates: on a grid k times
    finer, every k-th node carries the same g, A and G, bit for bit.  Each
    node's G = exp(S) depends on that node's S alone."""

    PAIRS = {"1d": ((16,), (64,)), "2d": ((16, 16), (64, 64))}

    @pytest.mark.parametrize("n_fiber", [1, 2, 3])
    @pytest.mark.parametrize("sizes", PAIRS.values(), ids=PAIRS.keys())
    def test_coarse_nodes_equal_fine_nodes(self, sizes, n_fiber):
        (coarse, fine), k = sizes, sizes[1][0] // sizes[0][0]
        states = [random_smooth_state(5, PeriodicGrid(s, (2 * np.pi,) * len(s)), n_fiber,
                                      perturb_g=True, perturb_A=True) for s in (coarse, fine)]
        every_kth = (slice(None, None, k),) * len(coarse)
        for name in "gAG":
            a, b = (getattr(st, name) for st in states)
            npt.assert_array_equal(a.view(np.uint64), b[every_kth].view(np.uint64))


class TestExpmSym:
    """``_expm_sym`` against the eigendecomposition exp(S) = V diag(e^w) V^T, on
    component-major fields of nodes with eigenvalues in [-amplitude, amplitude].
    exp is relatively conditioned like |S| on symmetric matrices, so both sides
    carry an error of order amplitude eps |exp S|.  The bound, 16 (1 + amplitude)
    eps |exp S| in the spectral norm, is 2.8 times the largest error these seeds
    give (1.1e-14 relative at N = 3 and amplitude 10)."""

    @pytest.mark.parametrize("amplitude", [0.1, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_eigendecomposition(self, n, amplitude):
        rng = np.random.default_rng(n)
        Q = np.linalg.qr(rng.standard_normal((20, 10, n, n)))[0]
        lam = amplitude * rng.uniform(-1.0, 1.0, (20, 10, n))
        S = np.einsum("...ik,...k,...jk->...ij", Q, lam, Q)
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        got = rrfs._grid_first(rrfs._expm_sym(np.ascontiguousarray(rrfs._grid_last(S, 2))), 2)
        w, v = np.linalg.eigh(S)
        want = np.einsum("...ik,...k,...jk->...ij", v, np.exp(w), v)
        norm = np.linalg.norm(want, 2, axis=(-2, -1))
        err = np.linalg.norm(got - want, 2, axis=(-2, -1)) / norm
        assert err.max() <= 16 * (1 + amplitude) * np.finfo(float).eps
        if n == 1:
            npt.assert_array_equal(got, np.exp(S))
