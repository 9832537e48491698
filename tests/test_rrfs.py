import numpy as np
import numpy.testing as npt
import pytest

from geomflow import rrfs
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


class TestIntegration:
    def test_stationary_stays_stationary(self):
        st = flat_state(S1_64, n_fiber=2)
        run = integrate_rrfs(st, S1_64, RescalingSpec("off"), 1.0)
        assert np.abs(run.final_state.G - np.eye(2)).max() <= 1e-12
        assert np.abs(run.final_state.g - 1.0).max() <= 1e-12

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

    def test_random_state_deterministic(self):
        a = random_smooth_state(3, S1_64, 2, perturb_g=True)
        b = random_smooth_state(3, S1_64, 2, perturb_g=True)
        npt.assert_array_equal(a.G, b.G)
        npt.assert_array_equal(a.g, b.g)
