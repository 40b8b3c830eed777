import functools
import inspect
import json
import os
import pickle
import re
import subprocess
import sys as _sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from contactlax.compat import (
    CK_INDEPENDENTS,
    PDESystem,
    TransformDegenerateError,
    ck_transform,
    derive,
    determinedness_report,
    residue_system,
)
from contactlax.jetalg import FieldId, JetQuotient, JetVariable, jet
from contactlax.laxfamilies import make_family
from contactlax.numeric import (
    SPATIAL_OPS,
    CompileError,
    Grid,
    HarmonicField,
    Mode,
    NumericAbortError,
    PoleProximityError,
    Trajectory,
    _Code,
    _GENERATED_NAMES,
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
from contactlax.sampling import pole_pairs_for
from conftest import evaluate, rational_point

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


def grid_jets(state, jets, grid, op):
    """The jets (field, multi-index) of the state, each field
    differentiated along X, then Y, then Z as its multi-index says (its
    T-index is not read): the reference for the jets integrate plans once
    per run."""
    out = {}
    for name, didx in jets:
        arr = state[name]
        for axis in range(3):
            for _ in range(didx[axis]):
                arr = op(arr, axis, grid.spacing[axis])
        out[(name, didx)] = arr
    return out


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


def _fft_diff(arr, axis, h):
    """The spectral derivative by a real FFT pair along one axis, the
    Nyquist bin dropped: the oracle of the differentiation matrix."""
    n = arr.shape[axis]
    k = np.fft.rfftfreq(n, d=h) * (np.arange(n // 2 + 1) != n / 2)
    mult = (2j * np.pi * k).reshape([-1 if ax == axis else 1 for ax in range(3)])
    return np.fft.irfft(np.fft.rfft(arr, axis=axis) * mult, n=n, axis=axis)


@pytest.mark.parametrize("shape", [(16,) * 3, (32,) * 3, (9, 10, 12)])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_spectral_diff_matches_fft_oracle(shape, axis):
    grid = Grid(shape)
    arr = np.random.default_rng(sum(shape) + axis).standard_normal(shape)
    got = spectral_diff(arr, axis, grid.spacing[axis])
    want = _fft_diff(arr, axis, grid.spacing[axis])
    assert got.shape == shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_fd2_diff_matches_the_roll_form(axis):
    grid = Grid((9, 10, 12))
    arr = np.random.default_rng(axis).standard_normal(grid.shape)
    h = grid.spacing[axis]
    want = (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)
    assert np.array_equal(fd2_diff(arr, axis, h), want)


@pytest.mark.parametrize("spatial", ["spectral", "fd2"])
def test_rk4_matches_the_allocating_form(cs, spatial):
    """Every state of the window equals plain RK4 written with new arrays
    at every stage, bit for bit, and no later step writes into it."""
    grid = Grid((9, 10, 12))
    coords = grid.coords()
    state = {u: SMOOTH_INIT[u].value(coords, 0.0) + np.zeros(grid.shape) for u in cs.unknowns}
    dt, op = 0.005, SPATIAL_OPS[spatial]
    traj = integrate(cs, grid, state, 5, dt, spatial=spatial, monitor_every=1)

    def f(st):
        return cs.rhs_from_jets(grid_jets(st, cs.required_jets, grid, op))

    want = [state]
    for _ in range(5):
        y = want[-1]
        k1 = f(y)
        k2 = f({u: y[u] + 0.5 * dt * k1[u] for u in y})
        k3 = f({u: y[u] + 0.5 * dt * k2[u] for u in y})
        k4 = f({u: y[u] + dt * k3[u] for u in y})
        want.append({u: y[u] + (dt / 6.0) * (k1[u] + 2 * k2[u] + 2 * k3[u] + k4[u]) for u in y})
    for got, ref in zip(traj.snapshots, want[-3:]):
        for u in cs.unknowns:
            assert np.array_equal(got[u], ref[u])
    assert len({id(a) for snap in traj.snapshots for a in snap.values()}) == 3 * len(cs.unknowns)


def test_integration_matches_fft_oracle_run(cs, monkeypatch):
    grid = Grid((16, 16, 16))
    coords = grid.coords()
    state = {u: SMOOTH_INIT[u].value(coords, 0.0) + np.zeros(grid.shape) for u in cs.unknowns}
    got = integrate(cs, grid, state, 20, 0.005, monitor_every=10)
    monkeypatch.setitem(SPATIAL_OPS, "spectral", _fft_diff)
    want = integrate(cs, grid, state, 20, 0.005, monitor_every=10)
    for u in cs.unknowns:
        w = want.snapshots[-1][u]
        assert np.max(np.abs(got.snapshots[-1][u] - w)) <= 1e-12 * np.max(np.abs(w))
    for g, w in zip(got.monitors, want.monitors):
        assert g[:2] == w[:2]
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(g[2:], w[2:]) if not np.isnan(b))


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


def _exact_t_system(sys, pt):
    """The T-jet matrix and right-hand side at a rational point, exactly.
    Each equation is affine in the T-jets, so its values with the T-jets
    at 0 and at the unit vectors give its remainder and its T-jet row."""
    t_jets = [JetVariable(u, (0, 0, 0, 1)) for u in sys.unknowns]

    def values(j):
        at = {**pt, **{tj: Fraction(int(i == j)) for i, tj in enumerate(t_jets)}}
        return [evaluate(eq, at) for eq in sys.equations]

    rest = values(None)
    cols = [[a - b for a, b in zip(values(j), rest)] for j in range(len(t_jets))]
    return list(zip(*cols)), [-b for b in rest]


def _assert_matches_exact(sys, cs, rng, pairs=(), points=10, forward=True):
    """The compiled T-solve against exact arithmetic at rational points:
    the componentwise backward error (Oettli and Prager, Numer. Math. 6,
    1964) of its solution is at most 1e-12 and, with ``forward``, so is
    its error relative to the exact solution."""
    jvs = {jv for eq in sys.equations for jv in eq.jet_variables() if jv.d[3] == 0}
    for _ in range(points):
        pt = rational_point(jvs, rng, pole_pairs=pairs)
        mat, rhs = _exact_t_system(sys, pt)
        got = cs.rhs_from_jets({(jv.field.name, jv.d): float(pt[jv]) for jv in jvs})
        x = [Fraction(got[u]) for u in cs.unknowns]
        for row, b in zip(mat, rhs):
            residual = abs(sum(a * xi for a, xi in zip(row, x)) - b)
            assert residual <= Fraction(1e-12) * (sum(abs(a * xi) for a, xi in zip(row, x)) + abs(b))
        if forward:
            for u, e in zip(cs.unknowns, _fraction_solve(mat, rhs)):
                assert abs(got[u] - float(e)) <= 1e-12 * max(1.0, abs(float(e)))


@pytest.mark.parametrize("m,n,form", [(1, 1, "residues"), (1, 1, "coefficients"), (2, 1, "residues"),
                                      (1, 2, "residues"), (2, 2, "residues"), (2, 1, "coefficients")])
def test_compiled_matches_exact_eval(m, n, form, rng):
    # The residue forms are diagonal, and compiled from their recorded
    # terms, while the exact oracle reads the expanded equations; rat
    # (2, 2)'s expanded remainders have 63 and 128 terms.  The coefficient
    # forms' T-jet matrices are not diagonal: at one of the ten points
    # rat (1, 1)'s has condition number 2.4e5, and a float solve of the
    # correctly rounded matrix (LAPACK's included) misses the exact
    # solution by 3e-12 there, so only their backward error is held to
    # 1e-12.  At another, a pivot of rat (2, 1)'s fixed pivot order is
    # 1.4e-3 of its column's largest entry, which the refinement step
    # after the elimination must make up for.
    sys = ck_transform(derive("rat", m, n, form=form))
    pairs = pole_pairs_for(sum(sys.provenance["pole_fields"], ()))
    _assert_matches_exact(sys, compile_system(sys), rng, pairs=pairs, forward=form == "residues")


def test_residual_code_matches_exact_eval(cs, rng):
    original = ck_transform(derive("rat", 1, 1, form="residues")).provenance["original_system"]
    jvs = {jv for eq in original.equations for jv in eq.jet_variables()}
    for _ in range(10):
        pt = rational_point(jvs, rng, pole_pairs=[(JetVariable(FieldId("v1")), JetVariable(FieldId("w1")))])
        got = cs._residual(*(float(pt[JetVariable(FieldId(name), d)]) for name, d in cs.residual_jets))
        for g, eq in zip(got, original.equations):
            want = float(evaluate(eq, pt))
            assert abs(g - want) <= 1e-12 * max(1.0, abs(want))


def test_generated_code_stays_flat_on_a_long_chain(rng):
    # u_T = sum of J_i * J_(i+1) over 401 distinct jets: nesting the
    # Horner form of this sum would exceed the parser's 200 parentheses
    u = FieldId("u")
    js = [jet(u, (i, 0, 0, 0)) for i in range(401)]
    products = [a * b for a, b in zip(js, js[1:])]
    sys = PDESystem((u,), CK_INDEPENDENTS, ((JetQuotient(jet(u, (0, 0, 0, 1)) - sum(products[1:], products[0])),),), {})
    cs = compile_system(sys)
    _assert_matches_exact(sys, cs, rng, points=3)
    body = cs.rhs_source.splitlines()[1:]
    ufunc = r"(add|subtract|multiply|divide)\([^(), ]+, [^(), ]+"
    assert all(re.fullmatch(rf"    (# .*|size = broadcast_shapes\((shape\(j\d+\)(, )?)+\)|s\d+ = empty\(size\)"
                            rf"|{ufunc}, out=s\d+\)|t\d+ = {ufunc}\)|return \(.*\))", line) for line in body)


_UFUNC_CALL = re.compile(r"\b(add|subtract|multiply|divide)\(")


def test_code_reuses_compiled_polynomials():
    # after q, the generator emits nothing for -q, one addition for
    # q + v, and for q (v - w) one subtraction and one product
    v, w, a, b = (jet(FieldId(name)) for name in "vwab")
    q = a * v * v + 3 * b * w * w - a * b * w + v * w
    code = _Code([(name, (0, 0, 0, 0)) for name in "abvw"])
    name, neg = code.poly(q)
    calls = len(code.ops)
    assert code.poly(-q) == (name, not neg) and len(code.ops) == calls
    exprs = [q, -q, q + v, q * (v - w)]
    outs = [code.poly(e) for e in exprs]
    assert len(code.ops) == calls + 3
    namespace = dict(_GENERATED_NAMES)
    exec(code.function("f", outs), namespace)
    pt = {"a": Fraction(3, 7), "b": Fraction(-5, 2), "v": Fraction(2, 9), "w": Fraction(11, 13)}
    got = namespace["f"](*map(float, pt.values()))
    at = {JetVariable(FieldId(k)): x for k, x in pt.items()}
    for g, e in zip(got, exprs):
        want = float(evaluate(e, at))
        assert abs(g - want) <= 1e-15 * abs(want)


def test_rat11_code_size(cs):
    # ufunc calls and slot arrays per call of the generated functions
    for source, calls, slots in ((cs.rhs_source, 77, 8), (cs.residual_source, 78, 8)):
        assert len(_UFUNC_CALL.findall(source)) <= calls
        assert source.count(" = empty(size)") <= slots


def test_rat33_code_size():
    # compiled from the two-pole terms, the code grows with the pole
    # pairs; compiled from the expanded rows it had 7,846 and 7,836 calls
    cs = compile_system(ck_transform(derive("rat", 3, 3, form="residues")))
    for source in (cs.rhs_source, cs.residual_source):
        assert len(_UFUNC_CALL.findall(source)) <= 700


def _stripped(sys):
    """sys with each equation one term, its sum, in it and in its original
    system."""
    prov = dict(sys.provenance)
    if "original_system" in prov:
        prov["original_system"] = _stripped(prov["original_system"])
    return PDESystem(sys.unknowns, sys.independents, [(eq,) for eq in sys.equations], prov)


def _term_compiled_errors(sys, expanded):
    """The largest relative differences between the rhs, then the
    residual, of sys compiled from its terms and the CompiledSystem
    ``expanded``, at a smooth state on an 8^3 grid: per output, the
    largest absolute difference over the largest magnitude."""
    cs, grid = compile_system(sys), Grid((8, 8, 8))
    state = _smooth_state(cs.unknowns, grid)
    got, want = (c.rhs_from_jets(grid_jets(state, c.required_jets, grid, spectral_diff)) for c in (cs, expanded))
    assert cs.residual_jets == expanded.residual_jets
    # the residual's jets, with a y- or t-jet standing in for itself
    jets = list(grid_jets(state, cs.residual_jets, grid, spectral_diff).values())
    pairs = [*((got[u], want[u]) for u in cs.unknowns), *zip(cs._residual(*jets), expanded._residual(*jets))]
    rel = [float(np.max(np.abs(g - w)) / np.max(np.abs(w))) for g, w in pairs]
    return max(rel[:len(cs.unknowns)]), max(rel[len(cs.unknowns):])


def _expanded(m, n):
    """rat (m, n) in residue form after ck_transform, and its code
    compiled from the expanded equations alone."""
    sys = ck_transform(derive("rat", m, n, form="residues"))
    return sys, compile_system(_stripped(sys))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3)])
def test_term_compiled_code_matches_the_expanded_rows(m, n):
    sys, expanded = _expanded(m, n)
    assert all(err <= 1e-12 for err in _term_compiled_errors(sys, expanded))


def _flipped(sys):
    """sys with the sign of the last term of its first equation flipped."""
    terms = [list(ts) for ts in sys.terms]
    terms[0][-1] = -terms[0][-1]
    return PDESystem(sys.unknowns, sys.independents, terms, sys.provenance)


def test_the_residue_pipeline_never_adds_two_quotients(monkeypatch):
    # each equation stays the tuple of its terms from residue_system
    # through ck_transform to the compiled code; only an output sums them
    def refused(self, other):
        raise AssertionError("two quotients added")

    lax = make_family("rat", 3, 3)  # the pair's F and G are sums
    monkeypatch.setattr(JetQuotient, "__add__", refused)
    monkeypatch.setattr(JetQuotient, "__radd__", refused)
    sys = residue_system(lax)  # what derive("rat", 3, 3, form="residues") caches
    ck = ck_transform(sys)
    compile_system(ck)
    assert determinedness_report(ck).verdict == "determined"
    assert "equations" not in sys.__dict__ and "equations" not in ck.__dict__
    with pytest.raises(AssertionError, match="two quotients added"):
        ck.equations


def test_a_flipped_term_fails_the_term_compiled_oracle():
    # one two-pole term's sign, in the evolution form (the rhs) or in the
    # original form (the residual)
    sys, expanded = _expanded(2, 1)
    rhs_err, _ = _term_compiled_errors(_flipped(sys), expanded)
    flipped = {**sys.provenance, "original_system": _flipped(sys.provenance["original_system"])}
    _, residual_err = _term_compiled_errors(PDESystem(sys.unknowns, sys.independents, sys.terms, flipped),
                                            expanded)
    assert rhs_err > 1e-3 and residual_err > 1e-3


# SHA-256 of the generated rhs and residual sources of systems compiled
# from their equations alone: the same characters as before terms were
# recorded
_UNTERMED_SOURCES = {
    (1, 1, "coefficients"): ("026010469d934fcd6649719a8f48ac94c2ba3925b73755307f6982cf74a2ca20",
                             "40cfb4fdf7e3f650a0aab40cad8a445c480e20e1a150ace8a8caef535fa5d490"),
    (2, 1, "coefficients"): ("e76643e132470d17b9527e96eef031aff5873ab7511fb2dfbc4d6cff8d7fc246",
                             "47792192b4b4a810b4dd5055587df5537cdb3c14d7e2e9f451b23167b0766a30"),
    (1, 1, "residues"): ("0c58f467c2af8aa9a7c4f00b27f5fa03be8e98789ae331a1321e27d130c7adc6",
                         "d8ce4880e428a363ad283ecaeac6ad582fc25663cba66db56446f98e0a58c399"),
    (2, 1, "residues"): ("355945fc1a3f02a282c94fe543cc18701728afd3218ea0e7d906f74f49352cdd",
                         "cd26cdbe9db5a10d4935b248eec73eb331d07a950a42eef27bfe5d50fb01c217"),
}


_UNTERMED_RUN = """
import hashlib, json, sys
from contactlax.compat import PDESystem, ck_transform, derive
from contactlax.numeric import compile_system
out = []
for m, n, form in json.loads(sys.argv[1]):
    system = ck_transform(derive("rat", m, n, form=form))
    cs = compile_system(_stripped(system))
    out.append([any(len(ts) > 1 for ts in system.terms),
                *(hashlib.sha256(src.encode()).hexdigest() for src in (cs.rhs_source, cs.residual_source))])
print(json.dumps(out))
"""


@functools.cache
def _untermed_sources() -> dict:
    """Per case of _UNTERMED_SOURCES: whether its system has terms, and the
    digests of its sources.  Generated code depends on the order in which
    the process first met its jets, so all four cases run in one fresh
    process at PYTHONHASHSEED=0, in the table's order."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PYTHONHASHSEED": "0"}
    done = subprocess.run([_sys.executable, "-c", inspect.getsource(_stripped) + _UNTERMED_RUN,
                           json.dumps(list(_UNTERMED_SOURCES))], capture_output=True, text=True, env=env,
                          check=True, timeout=120)
    return {case: (got[0], tuple(got[1:])) for case, got in zip(_UNTERMED_SOURCES, json.loads(done.stdout))}


@pytest.mark.parametrize("m,n,form", list(_UNTERMED_SOURCES))
def test_systems_without_terms_compile_as_before(m, n, form):
    has_terms, got = _untermed_sources()[m, n, form]
    assert has_terms == (form == "residues")
    assert got == _UNTERMED_SOURCES[m, n, form]


def test_compiled_system_pickles_by_source(cs):
    back = pickle.loads(pickle.dumps(cs))
    assert back == cs
    jets = {key: 0.5 + i for i, key in enumerate(cs.required_jets)}
    assert back.rhs_from_jets(jets) == cs.rhs_from_jets(jets)


def _aliasing_system():
    """u_T = u_X and w_T = u_X: two outputs that are the same input jet;
    p_T = q_T = p p_X: two outputs that are the same temporary."""
    u, w, p, q = (FieldId(n) for n in "uwpq")
    rhs = {u: jet(u, (1, 0, 0, 0)), w: jet(u, (1, 0, 0, 0)), p: jet(p) * jet(p, (1, 0, 0, 0)),
           q: jet(p) * jet(p, (1, 0, 0, 0))}
    return PDESystem(tuple(rhs), CK_INDEPENDENTS, [(JetQuotient(jet(f, (0, 0, 0, 1)) - r),) for f, r in rhs.items()], {})


def _generated_functions(cs):
    yield cs._rhs, len(cs.required_jets)
    if cs.residual_source is not None:
        yield cs._residual, len(cs.residual_jets)


@pytest.mark.parametrize("system", ["rat11", "aliasing"])
def test_generated_functions_keep_their_contract(system, cs):
    # integrate's window holds states by reference: the generated rhs and
    # residual must not write into their arguments, and what they return
    # must be new memory on every call
    if system == "aliasing":
        cs = compile_system(_aliasing_system())
    gen = np.random.default_rng(3)
    for fn, k in _generated_functions(cs):
        args = [1.5 + 0.1 * gen.standard_normal((8, 8, 8)) for _ in range(k)]
        for a in args:
            a.flags.writeable = False
        before = [a.copy() for a in args]
        first, second = fn(*args), fn(*args)
        assert all(np.array_equal(a, b) for a, b in zip(args, before))
        outs = [*first, *second]
        assert all(np.shape(o) == (8, 8, 8) for o in outs)
        for i, o in enumerate(outs):
            assert not any(np.shares_memory(o, x) for x in [*args, *outs[i + 1:]])
        # Python floats, and arguments of shapes that broadcast to the grid
        assert [float(o) for o in fn(*(float(a[1, 2, 3]) for a in args))] == [o[1, 2, 3] for o in first]
        parts = [a[:, :1, :1] if i % 3 == 0 else a[:1, :, :1] if i % 3 == 1 else float(a[0, 0, 0])
                 for i, a in enumerate(args)]
        full = fn(*(np.broadcast_to(x, (8, 8, 8)).copy() for x in parts))
        assert all(np.array_equal(np.broadcast_to(g, (8, 8, 8)), w) for g, w in zip(fn(*parts), full))


def _t_rows_system(t_rows):
    """An evolution-form system with the given constant T-jet rows and
    nonlinear T-free remainders."""
    us = tuple(FieldId(f"u{i}") for i in range(len(t_rows)))
    t_jets = [jet(u, (0, 0, 0, 1)) for u in us]
    rests = [jet(us[0]) * jet(us[-1], (1, 0, 0, 0)), jet(us[1], (0, 1, 0, 0)) ** 2 - 3, jet(us[-1]) * jet(us[0], (0, 0, 1, 0))]
    eqs = [(JetQuotient(sum((c * t for c, t in zip(row, t_jets)), rest)),) for row, rest in zip(t_rows, rests)]
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
    got = coeff.rhs_from_jets(grid_jets(state, coeff.required_jets, grid, spectral_diff))
    want = resid.rhs_from_jets(grid_jets(state, resid.required_jets, grid, spectral_diff))
    for u in resid.unknowns:
        assert np.max(np.abs(got[u] - want[u])) <= 1e-10 * np.max(np.abs(want[u]))


def test_residual_column_nan_without_original_system():
    u = FieldId("u")
    sys = PDESystem((u,), CK_INDEPENDENTS, ((JetQuotient(jet(u, (0, 0, 0, 1)) - jet(u, (1, 0, 0, 0))),),), {})
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
    # values are JSON numbers: no booleans, no strings, nothing past the float range
    fourier = {"fourier": {"mean": 1.0, "modes": [{"k": [1, 0, 0], "amp": False}]}}
    for entry, message in (({"constant": True}, "constant must be a number, got True"),
                           ({"constant": "0.7"}, "constant must be a number, got '0.7'"),
                           ({"constant": None}, "constant must be a number, got None"),
                           (fourier, "amp must be a number, got False"),
                           ({"constant": 10 ** 400}, "constant must be finite")):
        with pytest.raises(CompileError, match=f"^malformed initial data for w1: {re.escape(message)}"):
            load_initial_data({**spec, "w1": entry}, cs.unknowns, coords)
    assert load_initial_data({**spec, "w1": {"constant": 2}}, cs.unknowns, coords)["w1"][0, 0, 0] == 2.0


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
