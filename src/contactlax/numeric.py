"""Compile evolution-form PDE systems to vectorized grid evaluators and
integrate them at desk scale.

Spatial derivatives are spectral (one product with the Fourier
differentiation matrix of an axis) or 2nd-order centered differences on a
periodic unit box, each taken once over the stack of all fields; time
stepping is fixed-step RK4.  Monitors track
the minimum pole distance (the published systems degenerate where pole
locations collide, so runs abort on proximity), the largest field
magnitude, and a lagged finite-difference residual of the evolution
equations' original (x, y, z, t) form.
"""

from __future__ import annotations

import math
import operator
from collections import Counter, deque
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .compat import CK_INDEPENDENTS, PDESystem, t_jet_split, t_matrix_witness
from .errors import CompileError, NumericAbortError, PoleProximityError
from .jetalg import DiffPoly


# -- grids and derivative operators -------------------------------------------


@dataclass(frozen=True)
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


@lru_cache(maxsize=16)
def _diff_matrix(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The n x n Fourier differentiation matrix D of a periodic axis of
    spacing h (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 3):
    2 pi i k on the rfft bins applied to the identity's columns, zero at
    the Nyquist bin, whose derivative is imaginary.  Returned with a
    contiguous copy of D.T, which the last axis multiplies by; both are
    read-only."""
    k = np.fft.rfftfreq(n, d=h) * (np.arange(n // 2 + 1) != n / 2)
    d = np.fft.irfft((2j * np.pi * k)[:, None] * np.fft.rfft(np.eye(n), axis=0), n=n, axis=0)
    dt = np.ascontiguousarray(d.T)
    d.flags.writeable = dt.flags.writeable = False
    return d, dt


def spectral_diff(arr: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """The spectral derivative of a 3-D array, or of a stack of them,
    along one of its last three axes: one matrix product with that
    axis's differentiation matrix, over the whole stack.  out, if given,
    is C-contiguous and receives the result."""
    n = arr.shape[axis - 3]
    d, dt = _diff_matrix(n, h)
    if axis == 2:
        return np.matmul(arr, dt, out=out)
    if axis == 1:
        return np.matmul(d, arr, out=out)
    flat = arr.reshape(*arr.shape[:-3], n, -1)
    if out is None:
        return (d @ flat).reshape(arr.shape)
    np.matmul(d, flat, out=out.reshape(flat.shape))
    return out


# per axis of the last three, the index tuples of planes 2.., ..-2 and 1..-1, then of planes 0, 1, -2 and -1
_FD2_INDEX = tuple(tuple((..., i) + (slice(None),) * (2 - axis) for i in (slice(2, None), slice(None, -2), slice(1, -1),
                                                                          0, 1, -2, -1)) for axis in range(3))


def fd2_diff(arr: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """The centred difference (u[i+1] - u[i-1]) / 2h along one periodic
    axis of the last three: the interior planes, then the two that wrap
    around, written into out if given."""
    up, down, inner, first, second, penult, last = _FD2_INDEX[axis]
    if out is None:
        out = np.empty_like(arr)
    np.subtract(arr[up], arr[down], out=out[inner])
    np.subtract(arr[second], arr[last], out=out[first])
    np.subtract(arr[first], arr[penult], out=out[last])
    out /= 2.0 * h
    return out


SPATIAL_OPS = {"spectral": spectral_diff, "fd2": fd2_diff}


def stack_plan(jets, grid: Grid) -> tuple:
    """The nonzero spatial multi-indices the jets read, each with the
    multi-index it is one derivative of and the (axis, spacing) of that
    derivative, every one after the multi-index it is taken from.  Taken
    in turn over one field, or over a stack of all fields, they give each
    jet by the same products: X, then Y, then Z."""
    spacing, out = grid.spacing, {}

    def add(d):
        if any(d) and d not in out:
            axis = max(a for a in range(3) if d[a])
            parent = tuple(k - (a == axis) for a, k in enumerate(d))
            add(parent)
            out[d] = (parent, axis, spacing[axis])

    for _, d in jets:
        add(d[:3])
    return tuple((d, *step) for d, step in out.items())


# -- straight-line code generation ----------------------------------------------


_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide"}

# the names generated code reads, given to it when it is compiled
_GENERATED_NAMES = {name: getattr(np, name) for name in (*_UFUNCS.values(), "empty", "positive", "shape")}


class _Code:
    """Straight-line NumPy code, one ufunc call per operation.  Operands
    are (local name or float literal, negated) pairs: negations fold into
    the sums, products and quotients that read them, literal operands
    fold as the code is generated, each operation is emitted once, and a
    polynomial compiled before, or its negative, is not compiled again."""

    def __init__(self, jets):
        self.index = {key: i for i, key in enumerate(jets)}  # jet -> its entry j<i> of the sequence J
        self.ops = {}  # (left, operator, right) -> target, in emission order
        self.compiled = {}  # the terms of each polynomial given its Horner form -> its operand

    def _emit(self, a, o, b):
        if isinstance(a, float) and isinstance(b, float):
            return {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[o](a, b)
        return self.ops.setdefault((a, o, b), f"t{len(self.ops)}")

    def add(self, x, y, o="+"):  # x + y, or x - y
        (a, na), (b, nb) = x, (y[0], y[1] != (o == "-"))
        if a == 0.0 or b == 0.0:
            return (b, nb) if a == 0.0 else x
        if na == nb:
            return self._emit(a, "+", b), na
        return (self._emit(a, "-", b) if nb else self._emit(b, "-", a)), False

    def mul(self, x, y, o="*"):  # x * y, or x / y
        (a, na), (b, nb) = x, y
        if o == "*" and 0.0 in (a, b):
            return 0.0, False
        if b == 1.0 or o == "*" and a == 1.0:
            return (a if b == 1.0 else b), na != nb
        return self._emit(a, o, b), na != nb

    def poly(self, e: DiffPoly):
        """The operand of e: that of the polynomial compiled before that
        is e or -e, negated for -e, or else e's greedy Horner form."""
        key = frozenset(e.terms.items())
        if key in self.compiled:
            return self.compiled[key]
        neg = frozenset((m, -c) for m, c in e.terms.items())
        if neg in self.compiled:
            a, na = self.compiled[neg]
            return a, not na
        out = self.compiled[key] = self._horner([(c, {self.index[(jv.field.name, jv.d)]: p for jv, p in factors})
                                                 for c, factors in e.monomials()])
        return out

    def sum(self, quotients):
        """The operand of a sum of JetQuotients, each numerator over its
        denominator, added the largest numerator first (the first on a
        tie), so the running sum holds no slot while one is built."""
        acc = (0.0, False)
        for q in sorted(quotients, key=lambda q: -len(q.num.terms)):
            acc = self.add(acc, self.mul(self.poly(q.num), self.poly(q.den), "/"))
        return acc

    def _horner(self, terms):
        """Greedy multivariate Horner form (Ceberio and Kreinovich, ACM
        SIGSAM Bull. 38, 2004) of the terms (coefficient, {jet: power}):
        factor out the jet found in the most terms, the first in jet order
        on a tie, recurse into its cofactor and go on with the rest."""
        acc = (0.0, False)
        while terms:
            counts = Counter(j for _, mono in terms for j in mono)
            if not counts:  # only the constant term is left
                return self.add(acc, (float(abs(terms[0][0])), terms[0][0] < 0))
            x = min(counts, key=lambda j: (-counts[j], j))
            cofactor = [(c, {j: p - (j == x) for j, p in mono.items() if p > (j == x)})
                        for c, mono in terms if x in mono]
            terms = [t for t in terms if x not in t[1]]
            acc = self.add(acc, self.mul(self._horner(cofactor), (f"j{x}", False)))
        return acc

    def function(self, name: str, outputs) -> str:
        """Source of ``def name(J)``, which unpacks the jet sequence J into
        j0, j1, ... and returns the outputs as new arrays (or floats): an
        input or a repeated output through ``positive``, every other
        temporary from a slot s<k>, allocated once per call at the shape of
        j0 and reused once the temporary it holds has had its last read."""
        outs = [(self._emit(0.0, "-", a) if isinstance(a, str) else -a) if neg else a for a, neg in outputs]
        last = {v: t for (a, _, b), t in self.ops.items() for v in (a, b) if isinstance(v, str)}
        local, slots, free = {}, [], []  # temporary -> its slot; all slots; the slots free for reuse
        text = lambda v: local.get(v, v) if isinstance(v, str) else repr(v)  # noqa: E731
        body = []
        for (a, o, b), t in self.ops.items():
            call = f"{_UFUNCS[o]}({text(a)}, {text(b)}"
            free += [local[v] for v in dict.fromkeys((a, b)) if last.get(v) == t and v in local]
            if t in outs:
                body.append(f"    {t} = {call})")
                continue
            if not free:
                free.append(f"s{len(slots)}")
                slots.append(free[-1])
            local[t] = free.pop()
            body.append(f"    {call}, out={local[t]})")
        lines = [f"def {name}(J):", *(f"    # j{i} = {key!r}" for key, i in self.index.items())]
        if self.index:  # one jet unpacks as "j0, = J"
            lines.append(f"    {', '.join(f'j{i}' for i in self.index.values())}{',' * (len(self.index) == 1)} = J")
        if slots:
            lines += ["    size = shape(j0)", *(f"    {v} = empty(size)" for v in slots)]
        rets = [f"positive({o})" if isinstance(o, str) and (o[0] == "j" or o in outs[:i]) else text(o)
                for i, o in enumerate(outs)]
        return "\n".join([*lines, *body, f"    return ({''.join(r + ', ' for r in rets)})\n"])


# -- the T-jet solve -------------------------------------------------------------


@dataclass(frozen=True)
class CompiledSystem:
    """The T-solve and the original-form equations as generated NumPy
    functions of one jet sequence each; the source is kept for reading."""

    unknowns: tuple[str, ...]
    pivots: tuple[int, ...]  # pivots[c]: the row that pivots column c, proven mod p
    required_jets: tuple[tuple[str, tuple], ...]  # the entries of the sequence rhs takes
    pole_pairs: tuple[tuple[str, str], ...]
    rhs_source: str
    residual_jets: tuple[tuple[str, tuple], ...]  # the entries of the sequence residual takes
    residual_source: str | None  # the original-form equations, if recorded

    def __post_init__(self):
        for name in ("rhs", "residual"):
            source, namespace = getattr(self, f"{name}_source"), dict(_GENERATED_NAMES)
            if source is not None:
                exec(compile(source, f"<generated {name}>", "exec"), namespace)
            object.__setattr__(self, f"_{name}", namespace.get(name))

    def __reduce__(self):  # the generated functions are rebuilt from their source
        return CompiledSystem, tuple(getattr(self, f.name) for f in fields(self))

    def rhs_from_jets(self, J) -> tuple:
        return self._rhs(J)


def _jets(exprs) -> tuple:
    """The (field, multi-index) of every jet the expressions read, sorted."""
    return tuple(sorted({(jv.field.name, jv.d) for e in exprs for jv in e.jet_variables()}))


def compile_system(sys: PDESystem) -> CompiledSystem:
    """Compile an evolution-form system: the T-jet coefficients and
    remainders of compat.t_jet_split, which splits each equation term by
    term, become straight-line array code, solved on the grid in the pivot
    order of the T-solvability witness."""
    if tuple(sys.independents) != CK_INDEPENDENTS:
        raise CompileError("system must be in evolution form (X, Y, Z, T independents)")
    if not sys.unknowns:
        raise CompileError("system has no unknowns to integrate")
    rows, rests = t_jet_split(sys)
    _, pivots = t_matrix_witness(rows, sys)
    required = _jets([*(c for row in rows for c in row), *(q for rest in rests for q in rest)])
    vs, ws = sys.provenance.get("pole_fields", ((), ()))
    original = sys.provenance.get("original_system")
    return CompiledSystem(tuple(u.name for u in sys.unknowns), pivots, required,
                          tuple((v.name, w.name) for v in vs for w in ws), _rhs_source(rows, rests, pivots, required),
                          *(_residual_source(original) if original is not None else ((), None)))


def _rhs_source(rows, rests, pivots, jets) -> str:
    """Gaussian elimination in the given pivot order, unrolled; a
    structurally zero entry (None) is never read or written.  The pivot
    order ignores magnitudes, so when the elimination did any work one
    step of iterative refinement in working precision follows, which
    makes the solve componentwise backward stable (Skeel, Math. Comp. 35,
    1980): the residual of the rows as compiled, solved with the same
    multipliers and added to the solution."""
    code, k = _Code(jets), len(pivots)
    # each row: its T-jet coefficients, then minus its remainder
    entries = [[None if c.is_zero() else code.poly(c) for c in row] + [code.sum(-q for q in rest)]
               for row, rest in zip(rows, rests)]
    m = [row[:k] for row in entries]
    steps = []  # (row, multiplier, pivot row), in elimination order
    for col, piv in enumerate(pivots):
        p = m[piv]
        for r in (r for r in pivots[col + 1:] if m[r][col] is not None):
            a, f = m[r], code.mul(m[r][col], p[col], "/")
            steps.append((r, f, piv))
            for c in range(col + 1, k):
                if p[c] is not None:
                    a[c] = code.add(a[c] or (0.0, False), code.mul(f, p[c]), "-")

    def solve(b):  # the right-hand sides b through the same steps, then back substitution
        b = list(b)
        for r, f, piv in steps:
            b[r] = code.add(b[r], code.mul(f, b[piv]), "-")
        x = [None] * k
        for col in reversed(range(k)):
            a, acc = m[pivots[col]], b[pivots[col]]
            for c in range(col + 1, k):
                if a[c] is not None:
                    acc = code.add(acc, code.mul(a[c], x[c]), "-")
            x[col] = code.mul(acc, a[col], "/")
        return x

    x = solve([row[k] for row in entries])
    if steps:
        res = []
        for row in entries:
            acc = row[k]
            for c, xc in zip(row, x):
                if c is not None:
                    acc = code.add(acc, code.mul(c, xc), "-")
            res.append(acc)
        x = [code.add(xc, dc) for xc, dc in zip(x, solve(res))]
    return code.function("rhs", x)


def _residual_source(original: PDESystem):
    """The jets the original-form equations read, and their code: each
    equation the sum of its terms (PDESystem.terms)."""
    jets = _jets([q for ts in original.terms for q in ts])
    if any((d[1] or d[3]) and sum(d) > 1 for _, d in jets):
        raise CompileError("residual evaluation expects first-order y/t jets")
    code = _Code(jets)
    return jets, code.function("residual", [code.sum(ts) for ts in original.terms])


# -- manufactured (harmonic) fields ----------------------------------------------


@dataclass(frozen=True)
class Mode:
    k: tuple[int, int, int]
    amp: float
    phase: float = 0.0
    omega: float = 0.0


@dataclass(frozen=True)
class HarmonicField:
    """mean + sum of travelling cosine modes; every jet is closed-form and grid-shaped."""

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
        return np.broadcast_to(total, np.broadcast_shapes(*map(np.shape, coords)))

    def value(self, coords, T: float):
        return self.jet((0, 0, 0, 0), coords, T)


def manufactured_fields(unknowns) -> dict:
    """The one table of manufactured fields: hand-picked travelling modes
    for the rat (1, 1) unknowns v1, w1, a1, b1, and a generic mode for
    every other unknown."""
    tp = 2 * np.pi
    specs = {
        "v1": (-1.0, (1, 0, 1), 0.3, tp * 0.7),
        "w1": (1.0, (0, 1, 1), 1.1, tp * 0.5),
        "a1": (1.0, (1, 1, 0), 2.0, tp * 0.6),
        "b1": (0.7, (1, 0, 0), 0.9, tp * 0.8),
    }
    out = {}
    for i, u in enumerate(unknowns):
        mean, k, phase, omega = specs.get(u, (1.0 + 0.5 * i, (1, 0, 0), 0.1 * i, 2 * 3.14159 * 0.5))
        out[u] = HarmonicField(mean, (Mode(k, 0.05, phase, omega),))
    return out


# -- integration -------------------------------------------------------------------


def keep_freed_arrays_mapped() -> None:
    """Fix glibc malloc's two thresholds for the rest of the process:
    blocks below 32 MiB come from the heap, and the heap keeps up to
    64 MiB of free memory at its top.  At its defaults glibc unmaps a
    freed array of 128 KiB or more, or trims it off the top of the heap,
    so that each RK4 step faults the pages of its grid arrays in again.
    Where the C library is not glibc it does nothing."""
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@dataclass
class Trajectory:
    times: deque  # the last three monitored times
    states: deque  # the states at those times, each one (field, nx, ny, nz) stack in the order of unknowns
    monitors: list  # rows: (step, T, min_pole_dist, residual_L2, max_field)
    grid: Grid
    unknowns: tuple[str, ...]

    @property
    def snapshots(self) -> list:
        """The states as dicts name -> that field's view of its stack."""
        return [dict(zip(self.unknowns, y)) for y in self.states]


def _min_pole_distance(y: np.ndarray, pairs) -> float:
    """The least |w - v| over the pole pairs, each given by the indices of
    its two fields in the stacked state y."""
    if not pairs:
        return math.inf
    return min(float(np.min(np.abs(y[w] - y[v]))) for v, w in pairs)


def integrate(cs: CompiledSystem, grid: Grid, state: dict, steps: int, dt: float, spatial: str = "spectral",
              guard: float = 0.1, forcing=None, monitor_every: int = 1) -> Trajectory:
    """Method-of-lines advance in T from T = 0.  ``forcing`` maps (coords,
    T) to arrays added to the slopes (manufactured runs).  The slopes, and
    each state's (field, nx, ny, nz) stack, are in the order of
    cs.unknowns; of the monitored states only the last three are kept,
    and a monitored step checks and measures its new stack as a whole."""
    if spatial not in SPATIAL_OPS:
        raise CompileError(f"unknown spatial operator {spatial!r}: expected one of {', '.join(SPATIAL_OPS)}")
    if monitor_every < 1:
        raise CompileError("monitor_every must be at least 1")
    if steps < 0:
        raise CompileError(f"steps must not be negative, got {steps}")
    if not (math.isfinite(dt) and dt > 0):
        raise CompileError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(guard) and guard > 0):
        raise CompileError(f"guard must be finite and positive, got {guard}")
    op = SPATIAL_OPS[spatial]
    plan = stack_plan(cs.required_jets, grid)
    coords = grid.coords()
    size = (len(cs.unknowns), *grid.shape)
    poles = [tuple(map(cs.unknowns.index, pair)) for pair in cs.pole_pairs]
    # the stage states s2, s3, s4, each spatial derivative of a stacked
    # state and one field's sum of the slopes are written into these
    # buffers, which never enter the window; the window holds the states
    # themselves, so each step's new state is a fresh stack
    stage, slopes = np.empty(size), np.empty(grid.shape)
    derivs = {d: np.empty(size) for d, *_ in plan}
    # the jet sequence, built once: views into derivs, and the order-0 jets at level, which rhs points at y
    J = [derivs[d[:3]][cs.unknowns.index(name)] if any(d[:3]) else None for name, d in cs.required_jets]
    level = [(k, cs.unknowns.index(name)) for k, (name, d) in enumerate(cs.required_jets) if not any(d[:3])]

    def rhs(y, T):  # the slopes at the stacked state y: one product per spatial multi-index over all fields
        for d, parent, axis, h in plan:
            op(derivs.get(parent, y), axis, h, out=derivs[d])
        for k, i in level:
            J[k] = y[i]
        vals = cs.rhs_from_jets(J)
        return vals if forcing is None else tuple(v + g for v, g in zip(vals, forcing(coords, T)))

    def stage_state(y, k, h):  # y + h * k
        for i, ki in enumerate(k):
            np.add(y[i], np.multiply(h, ki, out=stage[i]), out=stage[i])
        return stage

    def rk4_step(y, T):  # the slopes are released on return, before any monitor runs
        k1 = rhs(y, T)
        k2 = rhs(stage_state(y, k1, 0.5 * dt), T + 0.5 * dt)
        k3 = rhs(stage_state(y, k2, 0.5 * dt), T + 0.5 * dt)
        k4 = rhs(stage_state(y, k3, dt), T + dt)
        new = np.empty(size)
        for i, (s1, s2, s3, s4) in enumerate(zip(k1, k2, k3, k4)):  # y + dt/6 (s1 + 2 s2 + 2 s3 + s4), in that order
            acc = np.add(s1, np.multiply(2, s2, out=slopes), out=slopes)
            np.add(acc, np.multiply(2, s3, out=stage[i]), out=acc)
            np.add(acc, s4, out=acc)
            np.add(y[i], np.multiply(dt / 6.0, acc, out=acc), out=new[i])
        return new

    y = np.empty(size)
    for i, u in enumerate(cs.unknowns):
        y[i] = state[u]
    traj = Trajectory(deque(maxlen=3), deque(maxlen=3), [], grid, cs.unknowns)
    T = 0.0
    for step in range(steps + 1):
        if step:  # step 0 monitors the initial state
            y = rk4_step(y, T)
            T += dt
        if step % monitor_every == 0 or step == steps:
            if not np.isfinite(y).all():
                u = next(u for u, a in zip(cs.unknowns, y) if not np.isfinite(a).all())
                raise NumericAbortError(f"non-finite values in {u} at step {step}")
            dist = _min_pole_distance(y, poles)
            if dist < guard:
                raise PoleProximityError(f"pole proximity at step {step}: min distance {dist:.3e} < guard {guard:.3e}")
            traj.times.append(T)
            traj.states.append(y)
            res = float("nan")
            if len(traj.states) == 3 and cs.residual_source is not None:
                res = residual_original_form(cs, traj)
            traj.monitors.append((step, T, dist, res, float(np.abs(y).max())))
    return traj


def write_monitor_csv(traj: Trajectory, path: str):
    with open(path, "w") as f:
        f.write("step,T,min_pole_dist,residual_L2,max_field\n")
        for row in traj.monitors:
            f.write(",".join(repr(x) for x in row) + "\n")


# -- residual of the original-form equations ---------------------------------------


@lru_cache(maxsize=16)
def _residual_plan(jets: tuple, unknowns: tuple, grid: Grid) -> tuple:
    """For each jet, the index of its field in a stack ordered as the
    unknowns and the spatial multi-index it takes (a y or t jet that of
    its Y-jet); then one stack_plan of those multi-indices."""
    keys = tuple((unknowns.index(name), (0, 1, 0) if d[1] or d[3] else d[:3]) for name, d in jets)
    return keys, stack_plan(keys, grid)


def residual_original_form(cs: CompiledSystem, traj: Trajectory) -> float:
    """Evaluate the untransformed (x, y, z, t) equations at the middle
    state of the three-state window: T-derivatives by the three-point
    formula on the window's own spacing (Fornberg, Math. Comp. 51, 1988),
    y/t jets reassembled from them (d/dy = d/dT + d/dY, d/dt = d/dT -
    d/dY), spatial jets by centered differences, each taken once over the
    stack of all fields.  Returns the root of the mean square over all
    equations and grid points."""
    if cs.residual_source is None:
        raise CompileError("no original-form system recorded for residual evaluation")
    (t0, t1, t2), (prev, cur, nxt) = traj.times, traj.states
    h0, h1 = t1 - t0, t2 - t1
    keys, plan = _residual_plan(cs.residual_jets, traj.unknowns, traj.grid)
    stacks = {(0, 0, 0): cur}
    for d, parent, axis, h in plan:
        stacks[d] = fd2_diff(stacks[parent], axis, h)
    u_T = (h0 * h0 * (nxt - cur) + h1 * h1 * (cur - prev)) / (h0 * h1 * (h0 + h1)) if (0, 1, 0) in stacks else None
    jets = []
    for (_, d), (i, key) in zip(cs.residual_jets, keys):
        u = stacks[key][i]
        if d[1] or d[3]:
            u = u_T[i] + u if d[1] else u_T[i] - u
        jets.append(u)
    stacks = u_T = None  # the Y-derivatives and u_T are not held through the residual's call
    rs = [np.asarray(r) for r in cs._residual(jets)]
    return math.sqrt(sum(float(np.sum(r ** 2)) for r in rs) / sum(r.size for r in rs))


# -- initial data -----------------------------------------------------------------


def _finite(name: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CompileError(f"malformed initial data for {name}: {key} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        x = math.inf
    if not math.isfinite(x):
        raise CompileError(f"malformed initial data for {name}: {key} must be finite, got {value!r}")
    return x


def _wavevector(name: str, k, shape) -> tuple[int, int, int]:
    if not (isinstance(k, (list, tuple)) and len(k) == 3
            and all(isinstance(x, int) and not isinstance(x, bool) for x in k)):
        raise CompileError(f"malformed initial data for {name}: k must be three integers, got {k!r}")
    # a mode at or past half an axis's points aliases, or lands on the
    # Nyquist bin that the spectral derivative zeroes
    if any(2 * abs(x) >= n for x, n in zip(k, shape)):
        raise CompileError(f"malformed initial data for {name}: k = {k!r} needs |k_i| < n_i/2 "
                           f"on the {'x'.join(map(str, shape))} grid")
    return tuple(k)


def load_initial_data(spec: dict, unknowns, coords) -> dict:
    """Initial data from its parsed JSON description: each unknown maps
    to either {"constant": value} or {"fourier": {"mean": c, "modes":
    [{"k": [kx,ky,kz], "amp": a, "phase": p}]}}, not both.  Values must
    be finite, and each k three integers, so that every mode is periodic
    on the unit box, each below half the points of its axis.  An entry
    for a name that is not an unknown is refused."""
    if not isinstance(spec, dict):
        raise CompileError(f"malformed initial data: expected an object mapping each unknown to its entry, "
                           f"got {type(spec).__name__}")
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    names = [u if isinstance(u, str) else u.name for u in unknowns]
    for name in spec:
        if name not in names:
            raise CompileError(f"malformed initial data for {name}: not an unknown of the system ({', '.join(names)})")
    out = {}
    for name in names:
        if name not in spec:
            raise CompileError(f"initial data missing for {name}")
        entry = spec[name]
        if "constant" in entry and "fourier" in entry:
            raise CompileError(f"malformed initial data for {name}: give constant or fourier, not both")
        if "constant" in entry:
            hf = HarmonicField(_finite(name, "constant", entry["constant"]))
        elif "fourier" in entry:
            fz = entry["fourier"]
            if not isinstance(fz, dict):
                raise CompileError(f"malformed initial data for {name}: fourier must be an object, got {fz!r}")
            modes = tuple(Mode(_wavevector(name, m["k"], shape), _finite(name, "amp", m["amp"]),
                               _finite(name, "phase", m.get("phase", 0.0))) for m in fz.get("modes", ()))
            hf = HarmonicField(_finite(name, "mean", fz.get("mean", 0.0)), modes)
        else:
            raise CompileError(f"bad initial-data entry for {name}")
        out[name] = hf.value(coords, 0.0).copy()
    return out


# -- manufactured-solution studies ---------------------------------------------------


def make_forcing(cs: CompiledSystem, exact: dict):
    """Forcing that turns the manufactured fields into an exact solution:
    g = u_T(exact) - R(exact jets) per unknown, all jets analytic."""

    def forcing(coords, T):
        vals = cs.rhs_from_jets([exact[n].jet(d, coords, T) for n, d in cs.required_jets])
        return tuple(exact[u].jet((0, 0, 0, 1), coords, T) - v for u, v in zip(cs.unknowns, vals))

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


def manufactured_test(cs: CompiledSystem, exact: dict, t_final: float = 0.2, temporal_grid: int = 16,
                      temporal_dts=(0.04, 0.02, 0.01, 0.005), spatial_grids=(16, 32), spatial_dt: float = 0.002,
                      guard: float = 0.1):
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


def residual_refinement_study(cs: CompiledSystem, init: dict, levels=((8, 0.02), (16, 0.01), (32, 0.005)),
                              steps0: int = 6, guard: float = 0.1) -> list[float]:
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
