"""Generate the stored references of the benchmark (``refs/references.npz``).

Run from the root of a checkout::

    python3 benchmarks/make_refs.py

* Nil3, every pool entry: the closed-form oracle for the symmetric
  zero-coupling scenarios, and DP5 runs at rtol = 1e-12, atol = 1e-15 for
  the others and for the ``cli_readme`` ``nil3`` command.  Each entry's
  scenarios are also run as the workload runs them, and generation stops if
  any of its checks fails, so no pool entry fails on the code it was made
  from.
* Periodic grid: RK4 at ``KAPPA_CFL / 4`` in one segment, from the base
  state of ``rrfs_1d_hmap`` and ``rrfs_2d_coupled`` and from the README
  64x64 state of ``cli_readme`` (stored on every fourth node per axis).

Takes a few minutes on two cores.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from geomflow import nil3, ode, rrfs  # noqa: E402

REF_CFG = ode.IntegratorConfig(rtol=1e-12, atol=1e-15)


def nil3_refs() -> dict:
    params, finals, cli_params, cli_finals = [], [], [], []
    for entry in range(W.NIL3_POOL):
        scenarios = W.nil3_scenarios(entry)
        params.append([W.params_vector(sc) for sc in scenarios])
        row = []
        for sc in scenarios:
            if sc["regime"] == "zero_sym":
                row.append(W.oracle_final(sc, W.NIL3_T_END))
            else:
                traj = nil3.integrate_nil3(W.nil3_params(sc), W.NIL3_T_END, REF_CFG)
                row.append(traj.states[-1])
        finals.append(row)
        a = W.cli_nil3_args(entry)
        cli_params.append([a[k] for k in ("A0", "B0", "C0", "a", "c0")])
        sc = dict(regime="const", A0=a["A0"], B0=a["B0"], C0=a["C0"], a=a["a"],
                  c0=a["c0"], r=0.0)
        traj = nil3.integrate_nil3(W.nil3_params(sc), W.NIL3_T_END, REF_CFG)
        cli_finals.append(traj.states[-1])
    return {
        "nil3_params": np.array(params),
        "nil3_final": np.array(finals),
        "cli_nil3_params": np.array(cli_params),
        "cli_nil3_final": np.array(cli_finals),
    }


def check_nil3_pool(refs: dict):
    """Every pool entry passes the nil3_sweep checks against its references."""
    for entry in range(W.NIL3_POOL):
        log = W.OpLog()
        errors = W.Nil3Sweep(entry, refs).run_pass(log)
        if log.failed:
            raise SystemExit(f"pool entry {entry} fails: {log.failures}")
        print(f"nil3 entry {entry}: max ref_err {max(errors):.3e}", flush=True)


def rk4_ref(state, grid, spec, t_end, **kw):
    run = rrfs.integrate_rrfs(state, grid, spec, t_end, kappa_cfl=W.KAPPA_REF, **kw)
    return run.final_state


def rrfs_refs() -> dict:
    out = {}
    grid = rrfs.PeriodicGrid(*W.HMAP_GRID)
    st = rk4_ref(W.hmap_base_state(grid), grid, rrfs.RescalingSpec("off"),
                 W.HMAP_T_END, evolve_g=False, evolve_A=False)
    out.update(hmap_g=st.g, hmap_A=st.A, hmap_G=st.G, hmap_t_end=np.array(W.HMAP_T_END))
    print("rrfs_1d_hmap reference done", flush=True)

    grid = rrfs.PeriodicGrid(*W.COUPLED_GRID)
    base = W.coupled_base_state(grid)
    t_end = W.coupled_t_end(base, grid)
    st = rk4_ref(base, grid, rrfs.RescalingSpec("volume"), t_end)
    out.update(coupled_g=st.g, coupled_A=st.A, coupled_G=st.G,
               coupled_t_end=np.array(t_end))
    print("rrfs_2d_coupled reference done", flush=True)

    base, grid = W.cli_rrfs_base_state()
    st = rk4_ref(base, grid, rrfs.RescalingSpec("volume"), W.CLI_RRFS_T1 + W.CLI_RRFS_T2)
    k = W.CLI_REF_STRIDE
    out.update(cli_rrfs_g=st.g[::k, ::k], cli_rrfs_A=st.A[::k, ::k],
               cli_rrfs_G=st.G[::k, ::k])
    print("cli_readme rrfs reference done", flush=True)
    return out


def main():
    t0 = time.perf_counter()
    refs = nil3_refs()
    check_nil3_pool(refs)
    refs.update(rrfs_refs())
    W.REFS_PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(W.REFS_PATH, **refs)
    print(f"wrote {W.REFS_PATH} in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
