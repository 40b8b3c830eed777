"""Compile evolution-form PDE systems to vectorized grid evaluators and
integrate them at desk scale.

Spatial derivatives are spectral (FFT) or 2nd-order centered differences
on a periodic unit box; time stepping is fixed-step RK4.  Monitors track
the minimum pole distance (the published systems degenerate where pole
locations collide, so runs abort on proximity), the largest field
magnitude, and a lagged finite-difference residual of the evolution
equations' original (x, y, z, t) form.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .compat import CK_INDEPENDENTS, PDESystem, t_jet_split, t_solvability_witness
from .jetalg import DiffPoly, JetQuotient


class CompileError(RuntimeError):
    pass


class PoleProximityError(RuntimeError):
    def __init__(self, step, dist, guard):
        super().__init__(f"pole proximity at step {step}: min distance {dist:.3e} < guard {guard:.3e}")
        self.step, self.dist, self.guard = step, dist, guard


class NumericAbortError(RuntimeError):
    pass


# -- grids and derivative operators -------------------------------------------


@dataclass
class Grid:
    """A periodic grid on the unit box."""

    shape: tuple[int, int, int]

    def __post_init__(self):
        if any(n < 8 for n in self.shape):
            raise CompileError("grid must have at least 8 points per direction")

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(1.0 / n for n in self.shape)

    def coords(self):
        axes = [np.arange(n) * h for n, h in zip(self.shape, self.spacing)]
        return np.meshgrid(*axes, indexing="ij", sparse=True)


def spectral_diff(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    n = arr.shape[axis]
    k = np.fft.fftfreq(n, d=h)
    shape = [1, 1, 1]
    shape[axis] = n
    mult = (2j * np.pi * k).reshape(shape)
    return np.real(np.fft.ifft(np.fft.fft(arr, axis=axis) * mult, axis=axis))


def fd2_diff(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)


SPATIAL_OPS = {"spectral": spectral_diff, "fd2": fd2_diff}


def spatial_jet(arr: np.ndarray, didx: tuple[int, int, int, int], grid: Grid, op) -> np.ndarray:
    out = arr
    for axis, count in ((0, didx[0]), (1, didx[1]), (2, didx[2])):
        for _ in range(count):
            out = op(out, axis, grid.spacing[axis])
    return out


# -- compiled evaluation programs ----------------------------------------------


@dataclass(frozen=True)
class TermProgram:
    """Flattened sum-of-products program: each entry is a coefficient and
    (field name, multi-index, power) factors, evaluated left to right."""

    terms: tuple[tuple[float, tuple[tuple[str, tuple, int], ...]], ...]

    def eval(self, jets: dict) -> np.ndarray | float:
        acc = None
        for coeff, factors in self.terms:
            val = coeff
            for name, didx, power in factors:
                arr = jets[(name, didx)]
                val = val * (arr if power == 1 else arr ** power)
            acc = val if acc is None else acc + val
        return 0.0 if acc is None else acc


@dataclass(frozen=True)
class QuotientProgram:
    num: TermProgram
    den: TermProgram | None

    def eval(self, jets: dict):
        n = self.num.eval(jets)
        if self.den is None:
            return n
        return n / self.den.eval(jets)


def _compile_poly(e: DiffPoly) -> TermProgram:
    terms = []
    for coeff, factors in e.monomials():
        terms.append(
            (float(coeff), tuple((jv.field.name, jv.d, p) for jv, p in factors))
        )
    return TermProgram(tuple(terms))


def _compile_quotient(q: JetQuotient) -> QuotientProgram:
    if q.den.is_const():
        c = q.den.const_value()
        num = _compile_poly(q.num * (Fraction(1) / c))
        return QuotientProgram(num, None)
    return QuotientProgram(_compile_poly(q.num), _compile_poly(q.den))


# -- the T-jet solve -------------------------------------------------------------


@dataclass(frozen=True)
class CompiledSystem:
    unknowns: tuple[str, ...]
    # per equation: its T-jet coefficients (None where zero), then minus its remainder
    rows: tuple[tuple[TermProgram | None, ...], ...]
    pivots: tuple[int, ...]  # pivots[c]: the row that pivots column c, proven mod p
    required_jets: tuple[tuple[str, tuple], ...]
    pole_pairs: tuple[tuple[str, str], ...]
    residual_programs: tuple[QuotientProgram, ...] | None  # original-form equations, if recorded
    residual_jets: tuple[tuple[str, tuple], ...]  # the jets those equations read

    def rhs_from_jets(self, jets: dict) -> dict:
        """Gaussian elimination on the grid in the compiled pivot order.
        A row is evaluated when first read and dropped once solved; a
        structurally zero entry (None) is never read or written."""
        k, got = len(self.pivots), {}

        def row(r):
            if r not in got:
                got[r] = [None if p is None else p.eval(jets) for p in self.rows[r]]
            return got[r]

        for col, piv in enumerate(self.pivots):
            for r in self.pivots[col + 1:]:
                if (got[r] if r in got else self.rows[r])[col] is None:
                    continue
                a, p = row(r), row(piv)
                f = a[col] / p[col]
                for c in range(col + 1, k + 1):
                    if p[c] is not None:
                        a[c] = -f * p[c] if a[c] is None else a[c] - f * p[c]
        x = [None] * k
        for col in reversed(range(k)):
            a = row(self.pivots[col])
            del got[self.pivots[col]]
            acc = a[k]
            for c in range(col + 1, k):
                if a[c] is not None:
                    acc = acc - a[c] * x[c]
            x[col] = acc / a[col]
        return dict(zip(self.unknowns, x))


def compile_system(sys: PDESystem) -> CompiledSystem:
    """Compile an evolution-form system: the T-jet coefficients and
    remainders of compat.t_jet_split become array programs, solved on the
    grid in the pivot order of the T-solvability witness."""
    if tuple(sys.independents) != CK_INDEPENDENTS:
        raise CompileError("system must be in evolution form (X, Y, Z, T independents)")
    rows, rests = t_jet_split(sys)
    _, pivots = t_solvability_witness(sys)
    required = set()
    for e in (*(c for row in rows for c in row), *rests):
        for jv in e.jet_variables():
            if jv.field.role == "independent":
                raise CompileError("independent-variable symbols are not grid data")
            required.add((jv.field.name, jv.d))
    vs, ws = sys.provenance.get("pole_fields", ((), ()))
    original = sys.provenance.get("original_system")
    return CompiledSystem(
        tuple(u.name for u in sys.unknowns),
        tuple((*(None if c.is_zero() else _compile_poly(c) for c in row), _compile_poly(-rest))
              for row, rest in zip(rows, rests)),
        pivots,
        tuple(sorted(required)),
        tuple((v.name, w.name) for v in vs for w in ws),
        *(_compile_residual(original) if original is not None else (None, ())),
    )


def _compile_residual(original: PDESystem):
    """Programs for the original-form equations, and the jets they read."""
    jets = sorted({(jv.field.name, jv.d) for q in original.equations for jv in q.jet_variables()})
    if any((d[1] or d[3]) and sum(d) > 1 for _, d in jets):
        raise CompileError("residual evaluation expects first-order y/t jets")
    return tuple(_compile_quotient(q) for q in original.equations), tuple(jets)


# -- manufactured (harmonic) fields ----------------------------------------------


@dataclass(frozen=True)
class Mode:
    k: tuple[int, int, int]
    amp: float
    phase: float = 0.0
    omega: float = 0.0


@dataclass(frozen=True)
class HarmonicField:
    """mean + sum of travelling cosine modes; every jet is closed-form."""

    mean: float
    modes: tuple[Mode, ...] = ()

    def jet(self, didx: tuple[int, int, int, int], coords, T: float):
        X, Y, Z = coords
        order = sum(didx)
        total = 0.0 if order else self.mean
        for md in self.modes:
            theta = 2 * np.pi * (md.k[0] * X + md.k[1] * Y + md.k[2] * Z) + md.phase - md.omega * T
            coef = md.amp
            for ax in range(3):
                coef *= (2 * np.pi * md.k[ax]) ** didx[ax]
            coef *= (-md.omega) ** didx[3]
            total = total + coef * np.cos(theta + order * np.pi / 2)
        return total if isinstance(total, np.ndarray) else np.asarray(total)

    def value(self, coords, T: float):
        return self.jet((0, 0, 0, 0), coords, T)


# -- integration -------------------------------------------------------------------


@dataclass
class Trajectory:
    times: deque  # the last three monitored times
    snapshots: deque  # the states at those times: dict name -> ndarray
    monitors: list  # rows: (step, T, min_pole_dist, residual_L2, max_field)
    grid: Grid


def _grid_jets(state: dict, cs: CompiledSystem, grid: Grid, op) -> dict:
    return {(name, didx): spatial_jet(state[name], didx, grid, op) for name, didx in cs.required_jets}


def _min_pole_distance(state: dict, pairs) -> float:
    if not pairs:
        return math.inf
    return min(float(np.min(np.abs(state[w] - state[v]))) for v, w in pairs)


def integrate(
    cs: CompiledSystem,
    grid: Grid,
    state: dict,
    steps: int,
    dt: float,
    spatial: str = "spectral",
    guard: float = 0.1,
    forcing=None,
    monitor_every: int = 1,
) -> Trajectory:
    """Method-of-lines advance in T from T = 0.  ``forcing`` maps (coords,
    T) to a dict of arrays added to the T-derivatives (manufactured runs).
    Of the monitored states only the last three are kept."""
    if monitor_every < 1:
        raise CompileError("monitor_every must be at least 1")
    op = SPATIAL_OPS[spatial]
    coords = grid.coords()
    state = {k: np.array(v, dtype=float) for k, v in state.items()}

    def rhs(st, T):
        vals = cs.rhs_from_jets(_grid_jets(st, cs, grid, op))
        if forcing is not None:
            g = forcing(coords, T)
            vals = {u: vals[u] + g[u] for u in vals}
        return vals

    # the window holds states by reference: sound only while each RK4
    # step builds new arrays and nothing writes into a state in place
    traj = Trajectory(deque([0.0], maxlen=3), deque([state], maxlen=3), [], grid)
    dist = _min_pole_distance(state, cs.pole_pairs)
    if dist < guard:
        raise PoleProximityError(0, dist, guard)
    traj.monitors.append((0, 0.0, dist, float("nan"), _max_field(state)))
    T = 0.0
    for step in range(1, steps + 1):
        k1 = rhs(state, T)
        s2 = {u: state[u] + 0.5 * dt * k1[u] for u in cs.unknowns}
        k2 = rhs(s2, T + 0.5 * dt)
        s3 = {u: state[u] + 0.5 * dt * k2[u] for u in cs.unknowns}
        k3 = rhs(s3, T + 0.5 * dt)
        s4 = {u: state[u] + dt * k3[u] for u in cs.unknowns}
        k4 = rhs(s4, T + dt)
        state = {
            u: state[u] + (dt / 6.0) * (k1[u] + 2 * k2[u] + 2 * k3[u] + k4[u])
            for u in cs.unknowns
        }
        T += dt
        if step % monitor_every == 0 or step == steps:
            for u in cs.unknowns:
                if not np.all(np.isfinite(state[u])):
                    raise NumericAbortError(f"non-finite values in {u} at step {step}")
            dist = _min_pole_distance(state, cs.pole_pairs)
            if dist < guard:
                raise PoleProximityError(step, dist, guard)
            traj.times.append(T)
            traj.snapshots.append(state)
            res = float("nan")
            if len(traj.snapshots) == 3 and cs.residual_programs is not None:
                res = residual_original_form(cs, traj)
            traj.monitors.append((step, T, dist, res, _max_field(state)))
    return traj


def _max_field(state: dict) -> float:
    return max(float(np.max(np.abs(a))) for a in state.values())


def write_monitor_csv(traj: Trajectory, path: str):
    with open(path, "w") as f:
        f.write("step,T,min_pole_dist,residual_L2,max_field\n")
        for row in traj.monitors:
            f.write(",".join(repr(x) for x in row) + "\n")


# -- residual of the original-form equations ---------------------------------------


def residual_original_form(cs: CompiledSystem, traj: Trajectory) -> float:
    """Evaluate the untransformed (x, y, z, t) equations at the middle
    state of the three-state window: T-derivatives by the three-point
    formula on the window's own spacing (Fornberg, Math. Comp. 51, 1988),
    y/t jets reassembled from them (d/dy = d/dT + d/dY, d/dt = d/dT -
    d/dY), spatial jets by centered differences.  Returns the root of the
    mean square over all equations and grid points."""
    if cs.residual_programs is None:
        raise CompileError("no original-form system recorded for residual evaluation")
    (t0, t1, t2), (prev, cur, nxt) = traj.times, traj.snapshots
    h0, h1 = t1 - t0, t2 - t1
    jets = {}
    for name, didx in cs.residual_jets:
        if didx[1] + didx[3] == 0:
            jets[(name, didx)] = spatial_jet(cur[name], didx, traj.grid, fd2_diff)
            continue
        u_T = (h0 * h0 * (nxt[name] - cur[name]) + h1 * h1 * (cur[name] - prev[name])) / (h0 * h1 * (h0 + h1))
        u_Y = spatial_jet(cur[name], (0, 1, 0, 0), traj.grid, fd2_diff)
        jets[(name, didx)] = u_T + u_Y if didx[1] else u_T - u_Y
    rs = [np.asarray(prog.eval(jets)) for prog in cs.residual_programs]
    return math.sqrt(sum(float(np.sum(r ** 2)) for r in rs) / sum(r.size for r in rs))


# -- initial data -----------------------------------------------------------------


def load_initial_data(spec: dict | str, unknowns, coords) -> dict:
    """Initial-data description: each unknown maps to either
    {"constant": value} or {"fourier": {"mean": c, "modes": [{"k":
    [kx,ky,kz], "amp": a, "phase": p}]}}."""
    if isinstance(spec, str):
        with open(spec) as f:
            spec = json.load(f)
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    out = {}
    for u in unknowns:
        name = u if isinstance(u, str) else u.name
        if name not in spec:
            raise CompileError(f"initial data missing for {name}")
        entry = spec[name]
        if "constant" in entry:
            hf = HarmonicField(float(entry["constant"]))
        elif "fourier" in entry:
            fz = entry["fourier"]
            modes = tuple(
                Mode(tuple(m["k"]), float(m["amp"]), float(m.get("phase", 0.0)))
                for m in fz.get("modes", ())
            )
            hf = HarmonicField(float(fz.get("mean", 0.0)), modes)
        else:
            raise CompileError(f"bad initial-data entry for {name}")
        arr = hf.value(coords, 0.0)
        out[name] = np.broadcast_to(np.asarray(arr, dtype=float), shape).copy()
    return out


# -- manufactured-solution studies ---------------------------------------------------


def make_forcing(cs: CompiledSystem, exact: dict):
    """Forcing that turns the manufactured fields into an exact solution:
    g = u_T(exact) - R(exact jets), all jets analytic."""

    def forcing(coords, T):
        vals = cs.rhs_from_jets({(n, d): exact[n].jet(d, coords, T) for n, d in cs.required_jets})
        return {u: exact[u].jet((0, 0, 0, 1), coords, T) - vals[u] for u in cs.unknowns}

    return forcing


def _manufactured_error(cs, exact, ng, steps, dt, spatial, guard, monitor_every) -> float:
    """Root-mean-square error against the exact fields at the end of a
    forced run started from them."""
    grid = Grid((ng,) * 3)
    coords = grid.coords()
    state = {u: exact[u].value(coords, 0.0) + np.zeros(grid.shape) for u in cs.unknowns}
    traj = integrate(cs, grid, state, steps, dt, spatial=spatial, guard=guard,
                     forcing=make_forcing(cs, exact), monitor_every=monitor_every)
    T, state = traj.times[-1], traj.snapshots[-1]
    diffs = [state[u] - hf.value(coords, T) for u, hf in exact.items()]
    return math.sqrt(sum(float(np.sum(d ** 2)) for d in diffs) / sum(d.size for d in diffs))


def _orders(errors: list) -> list:
    return [math.log2(a / b) for a, b in zip(errors, errors[1:]) if b > 0]


@dataclass
class ConvergenceReport:
    temporal_errors: list
    temporal_orders: list
    spatial_errors: list
    spatial_orders: list


def manufactured_test(
    cs: CompiledSystem,
    exact: dict,
    t_final: float = 0.2,
    temporal_grid: int = 16,
    temporal_dts=(0.04, 0.02, 0.01, 0.005),
    spatial_grids=(16, 32),
    spatial_dt: float = 0.002,
    guard: float = 0.1,
):
    """Temporal study: spectral space (exact for band-limited data), RK4
    under dt-refinement.  Spatial study: FD2 at fixed small dt across
    grid refinement.  Reports observed orders."""
    temporal = []
    for dt in temporal_dts:
        steps = round(t_final / dt)
        temporal.append(_manufactured_error(cs, exact, temporal_grid, steps, dt, "spectral", guard, max(1, steps // 4)))
    steps = max(4, round(0.02 / spatial_dt))
    spatial = [_manufactured_error(cs, exact, ng, steps, spatial_dt, "fd2", guard, steps) for ng in spatial_grids]
    return ConvergenceReport(temporal, _orders(temporal), spatial, _orders(spatial))


def residual_refinement_study(
    cs: CompiledSystem,
    init: dict,
    levels=((8, 0.02), (16, 0.01), (32, 0.005)),
    steps0: int = 6,
    guard: float = 0.1,
) -> list[float]:
    """Evolve the same smooth initial data at joint (grid, step)
    refinement and report the original-form finite-difference residual at
    a fixed interior time; it must shrink under refinement."""
    out = []
    for i, (ng, dt) in enumerate(levels):
        steps = steps0 * 2 ** i
        grid = Grid((ng,) * 3)
        coords = grid.coords()
        state = {u: init[u].value(coords, 0.0) + np.zeros(grid.shape) for u in cs.unknowns}
        # row k + 1 holds the residual centred on monitored state k
        stop = (steps + 1) // 2 + 1
        traj = integrate(cs, grid, state, stop, dt, spatial="spectral", guard=guard, monitor_every=1)
        out.append(traj.monitors[-1][3])
    return out
