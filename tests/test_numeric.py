import time
from fractions import Fraction

import numpy as np
import pytest

from contactlax.compat import CK_INDEPENDENTS, PDESystem, TransformDegenerateError, ck_transform, derive
from contactlax.jetalg import FieldId, JetQuotient, JetVariable, evaluate, jet
from contactlax.numeric import (
    CompileError,
    Grid,
    HarmonicField,
    Mode,
    NumericAbortError,
    PoleProximityError,
    Trajectory,
    _grid_jets,
    compile_system,
    fd2_diff,
    integrate,
    load_initial_data,
    make_forcing,
    manufactured_test,
    residual_original_form,
    residual_refinement_study,
    spectral_diff,
    write_monitor_csv,
)
from conftest import rational_point

TP = 2 * np.pi


@pytest.fixture(scope="module")
def cs():
    return compile_system(ck_transform(derive("rat", 1, 1, form="residues")))


SMOOTH_INIT = {
    "v1": HarmonicField(-1.0, (Mode((1, 0, 1), 0.1, 0.3),)),
    "w1": HarmonicField(1.0, (Mode((0, 1, 1), 0.1, 1.1),)),
    "a1": HarmonicField(1.0, (Mode((1, 1, 0), 0.1, 2.0),)),
    "b1": HarmonicField(0.7, (Mode((1, 0, 0), 0.1, 0.9),)),
}


def constant_state(grid, values=(-1.0, 1.0, 1.0, 0.5)):
    names = ("v1", "w1", "a1", "b1")
    return {nm: np.full(grid.shape, val) for nm, val in zip(names, values)}


def test_derivative_operators_on_one_mode():
    grid = Grid((16, 16, 16))
    X, Y, Z = grid.coords()
    f = np.cos(TP * X) + 0 * Y + 0 * Z
    exact = -TP * np.sin(TP * X) + 0 * Y + 0 * Z
    sp = spectral_diff(np.broadcast_to(f, (16, 16, 16)).copy(), 0, grid.spacing[0])
    assert np.max(np.abs(sp - exact)) < 1e-10
    fd = fd2_diff(np.broadcast_to(f, (16, 16, 16)).copy(), 0, grid.spacing[0])
    # centered-difference truncation for the 2*pi mode at N=16 is ~0.16
    assert 0.05 < np.max(np.abs(fd - exact)) < 0.3


def _fraction_solve(mat, rhs):
    """Exact Gauss-Jordan elimination over Q with row pivoting."""
    n = len(rhs)
    m = [list(row) + [b] for row, b in zip(mat, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _exact_rhs(sys, pt):
    """The T-derivatives solved exactly at a rational point.  Each
    equation is affine in the T-jets, so its values with the T-jets at 0
    and at the unit vectors give its remainder and its T-jet row."""
    t_jets = [JetVariable(u, (0, 0, 0, 1)) for u in sys.unknowns]

    def values(j):
        at = {**pt, **{tj: Fraction(int(i == j)) for i, tj in enumerate(t_jets)}}
        return [evaluate(eq, at) for eq in sys.equations]

    rest = values(None)
    cols = [[a - b for a, b in zip(values(j), rest)] for j in range(len(t_jets))]
    solved = _fraction_solve(list(zip(*cols)), [-b for b in rest])
    return dict(zip((u.name for u in sys.unknowns), solved))


def _assert_matches_exact(sys, cs, rng, pairs=(), points=10):
    jvs = {jv for eq in sys.equations for jv in eq.jet_variables() if jv.d[3] == 0}
    for _ in range(points):
        pt = rational_point(jvs, rng, pole_pairs=pairs)
        exact = _exact_rhs(sys, pt)
        got = cs.rhs_from_jets({(jv.field.name, jv.d): float(pt[jv]) for jv in jvs})
        for u in cs.unknowns:
            assert abs(got[u] - float(exact[u])) <= 1e-12 * max(1.0, abs(float(exact[u])))


def test_compiled_matches_exact_eval(cs, rng):
    sys = ck_transform(derive("rat", 1, 1, form="residues"))
    _assert_matches_exact(sys, cs, rng, pairs=[(JetVariable(FieldId("v1")), JetVariable(FieldId("w1")))])


def _t_rows_system(t_rows):
    """An evolution-form system with the given constant T-jet rows and
    nonlinear T-free remainders."""
    us = tuple(FieldId(f"u{i}") for i in range(len(t_rows)))
    t_jets = [jet(u, (0, 0, 0, 1)) for u in us]
    rests = [jet(us[0]) * jet(us[-1], (1, 0, 0, 0)), jet(us[1], (0, 1, 0, 0)) ** 2 - 3, jet(us[-1]) * jet(us[0], (0, 0, 1, 0))]
    eqs = tuple(JetQuotient(sum((c * t for c, t in zip(row, t_jets)), rest)) for row, rest in zip(t_rows, rests))
    return PDESystem(us, CK_INDEPENDENTS, eqs, {})


def test_cancelled_structural_pivot_is_skipped(rng):
    # eliminating column 0 cancels the (1, 1) entry: the proven pivot of
    # column 1 is row 2, not the structurally nonzero row 1
    sys = _t_rows_system([[1, 1, 0], [1, 1, 1], [0, 1, 0]])
    cs = compile_system(sys)
    assert cs.pivots == (0, 2, 1)
    _assert_matches_exact(sys, cs, rng)


def test_singular_t_matrix_refused_at_compile():
    with pytest.raises(TransformDegenerateError, match="singular"):
        compile_system(_t_rows_system([[1, 1, 0], [0, 0, 1], [2, 2, 0]]))


def _smooth_state(names, grid):
    coords = grid.coords()
    base = {"v": -1.5, "w": 1.5, "a": 1.0, "b": 0.7}
    return {
        u: HarmonicField(base[u[0]] + 0.4 * int(u[1:]), (Mode((i % 2, 1, (i + 1) % 2), 0.1, 0.3 * i),)).value(coords, 0.0)
        + np.zeros(grid.shape)
        for i, u in enumerate(names)
    }


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_coefficient_form_compiles_and_matches_residue_form(m, n):
    sys = ck_transform(derive("rat", m, n))
    t0 = time.perf_counter()
    coeff = compile_system(sys)
    assert time.perf_counter() - t0 < 1.0
    resid = compile_system(ck_transform(derive("rat", m, n, form="residues")))
    grid = Grid((16, 16, 16))
    state = _smooth_state(resid.unknowns, grid)
    got = coeff.rhs_from_jets(_grid_jets(state, coeff, grid, spectral_diff))
    want = resid.rhs_from_jets(_grid_jets(state, resid, grid, spectral_diff))
    for u in resid.unknowns:
        assert np.max(np.abs(got[u] - want[u])) <= 1e-10 * np.max(np.abs(want[u]))


def test_residual_column_nan_without_original_system():
    u = FieldId("u")
    sys = PDESystem((u,), CK_INDEPENDENTS, (JetQuotient(jet(u, (0, 0, 0, 1)) - jet(u, (1, 0, 0, 0))),), {})
    cs = compile_system(sys)
    grid = Grid((8, 8, 8))
    state = {"u": HarmonicField(0.0, (Mode((1, 0, 0), 1.0),)).value(grid.coords(), 0.0) + np.zeros(grid.shape)}
    traj = integrate(cs, grid, state, 5, 0.01)
    assert len(traj.monitors) == 6 and all(np.isnan(row[3]) for row in traj.monitors)
    with pytest.raises(CompileError, match="no original-form system"):
        residual_original_form(cs, traj)


def test_constants_are_equilibria(cs):
    grid = Grid((16, 16, 16))
    state = constant_state(grid)
    traj = integrate(cs, grid, state, 100, 0.01, monitor_every=50)
    drift = max(float(np.max(np.abs(traj.snapshots[-1][u] - state[u]))) for u in cs.unknowns)
    assert drift <= 1e-13


def test_pole_guard_aborts(cs):
    grid = Grid((16, 16, 16))
    state = constant_state(grid, (-1.0, -0.95, 1.0, 0.5))
    with pytest.raises(PoleProximityError):
        integrate(cs, grid, state, 10, 0.01, guard=0.1)


def test_nan_aborts(cs):
    grid = Grid((16, 16, 16))
    state = constant_state(grid)
    state["a1"][0, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises((NumericAbortError, PoleProximityError)):
        integrate(cs, grid, state, 2, 0.01)


def test_zero_forcing_constant_fields_zero_error(cs):
    const = {
        u: HarmonicField(c) for u, c in zip(("v1", "w1", "a1", "b1"), (-1.0, 1.0, 1.0, 0.5))
    }
    grid = Grid((8, 8, 8))
    coords = grid.coords()
    state = {u: const[u].value(coords, 0.0) + np.zeros(grid.shape) for u in cs.unknowns}
    traj = integrate(cs, grid, state, 10, 0.01, forcing=make_forcing(cs, const), monitor_every=10)
    err = max(float(np.max(np.abs(traj.snapshots[-1][u] - state[u]))) for u in cs.unknowns)
    assert err == 0.0


def test_manufactured_orders_smoke(cs):
    exact = {
        "v1": HarmonicField(-1.0, (Mode((1, 0, 1), 0.05, 0.3, TP * 0.7),)),
        "w1": HarmonicField(1.0, (Mode((0, 1, 1), 0.05, 1.1, TP * 0.5),)),
        "a1": HarmonicField(1.0, (Mode((1, 1, 0), 0.05, 2.0, TP * 0.6),)),
        "b1": HarmonicField(0.7, (Mode((1, 0, 0), 0.05, 0.9, TP * 0.8),)),
    }
    rep = manufactured_test(
        cs, exact, t_final=0.1, temporal_grid=8, temporal_dts=(0.025, 0.0125),
        spatial_grids=(8, 16), spatial_dt=0.0025,
    )
    assert all(3.0 < o < 5.0 for o in rep.temporal_orders), rep.temporal_orders
    assert all(1.4 < o < 2.6 for o in rep.spatial_orders), rep.spatial_orders


def test_residual_refinement_two_levels(cs):
    res = residual_refinement_study(cs, SMOOTH_INIT, levels=((8, 0.02), (16, 0.01)), steps0=6)
    assert res[0] > res[1] > 0


def test_integrate_keeps_three_state_window(cs):
    grid = Grid((8, 8, 8))
    traj = integrate(cs, grid, constant_state(grid), 100, 0.01, monitor_every=2)
    assert len(traj.monitors) == 51
    assert len(traj.snapshots) == 3
    assert list(traj.times) == [row[1] for row in traj.monitors[-3:]]


def _quadratic_window(cs, times, center=0.3):
    """Window of fields exactly quadratic in T around ``center``."""
    grid = Grid((8, 8, 8))
    gen = np.random.default_rng(7)
    base = constant_state(grid)
    coef = {u: gen.uniform(-0.1, 0.1, (3,) + grid.shape) for u in cs.unknowns}
    snaps = [
        {u: base[u] + c[0] + c[1] * (t - center) + c[2] * (t - center) ** 2 for u, c in coef.items()}
        for t in times
    ]
    return Trajectory(list(times), snaps, [], grid)


def test_residual_uses_the_window_spacing(cs):
    equal = residual_original_form(cs, _quadratic_window(cs, (0.2, 0.3, 0.4)))
    unequal = residual_original_form(cs, _quadratic_window(cs, (0.25, 0.3, 0.42)))
    assert equal > 0
    assert abs(unequal - equal) <= 1e-12 * equal


def test_refinement_study_reads_monitor_rows(cs):
    res = residual_refinement_study(cs, SMOOTH_INIT, levels=((8, 0.02),), steps0=6)
    grid = Grid((8, 8, 8))
    coords = grid.coords()
    state = {u: SMOOTH_INIT[u].value(coords, 0.0) + np.zeros(grid.shape) for u in cs.unknowns}
    full = integrate(cs, grid, state, 6, 0.02)
    # the window of a run stopped one step after the middle state is
    # centred on that state
    part = integrate(cs, grid, state, 4, 0.02)
    assert res == [full.monitors[4][3]]
    assert res[0] == residual_original_form(cs, part)


def test_initial_data_loader(cs):
    grid = Grid((8, 8, 8))
    coords = grid.coords()
    spec = {
        "v1": {"constant": -1.0},
        "w1": {"fourier": {"mean": 1.0, "modes": [{"k": [1, 0, 0], "amp": 0.1, "phase": 0.5}]}},
        "a1": {"constant": 1.0},
        "b1": {"constant": 0.5},
    }
    state = load_initial_data(spec, cs.unknowns, coords)
    assert state["v1"].shape == grid.shape
    assert np.allclose(np.mean(state["w1"]), 1.0, atol=1e-12)
    assert np.max(state["w1"]) > 1.05
    with pytest.raises(CompileError):
        load_initial_data({"v1": {"constant": 0}}, cs.unknowns, coords)


def test_monitor_csv(tmp_path, cs):
    grid = Grid((8, 8, 8))
    traj = integrate(cs, grid, constant_state(grid), 6, 0.01, monitor_every=2)
    out = tmp_path / "mon.csv"
    write_monitor_csv(traj, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,T,min_pole_dist,residual_L2,max_field"
    assert len(lines) >= 4


def test_compile_rejects_wrong_independents():
    sys = derive("rat", 1, 1, form="residues")
    with pytest.raises(CompileError):
        compile_system(sys)
