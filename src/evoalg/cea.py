"""Chain families M0..M8, Chapman-Kolmogorov verification, dynamics, diagrams.

A chain family assigns to every admissible time pair 0 <= s <= t a 2x2
structure matrix.  The built-in families (free functions in parentheses,
thresholds a > 0 or C > 0):

    M0           zero matrix
    M1 (rho,phi) [[0, rho(s)phi(t)], [0, phi(t)/phi(s)]]
    M2 (sigma;a) [[0, sigma(s)], [0, 1]] if 0<s<=t<a, zero if t>=a
    M3 (f,phi)   [[0, 0], [f(t)/phi(s), phi(t)/phi(s)]]
    M4 (g;a)     [[0, 0], [g(t), 1]] if 0<s<=t<a, zero if t>=a
    M5 (Phi;C)   zero if s<t<=C, [[0, Phi(t)/Phi(s)], [0, 0]] if t>C
    M6 (rho,phi;C) zero if s<t<=C, [[0, rho(s)/phi(t)], [0, 0]] if t>C
    M7 (Psi;C)   [[0, 0], [Psi(t)/Psi(s), 0]] if s<C, zero if s>=C
    M8 (sigma,phi;C) [[0, 0], [sigma(t)/phi(s), 0]] if s<C, zero if s>=C

Branch predicates apply exactly as written; time pairs no branch covers
are out of domain.  Functions named phi/Phi/Psi sit in denominators and must not
vanish at evaluated points.

`verify_ck` samples the matrix Chapman-Kolmogorov equation
M[s,t] = M[s,tau] M[tau,t] over seeded triples s < tau < t.
`classify_dynamics` classifies the matrix at a time pair (complex mode, so
the E1/E2 split depends only on whether the relevant free function
vanishes).  `expected_dynamics_class` is the closed-form region table the
classifier is tested against.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .core import COMPLEX, REAL, EvoalgError, StructureMatrix, check_tolerance
from .classify2d import AlgebraClass, _mul2, classify, classify_tags
from .exprlang import Expr, compile_expr, eval_expr, parse_expr, to_string

TimePair = tuple[float, float]

# one row per family: function slots, threshold slot, the slots that sit in
# denominators (their values must never be zero) and the threshold's region
# kind (see _REGIONS)
_FAMILY = {
    "M0": ((), None, (), None),
    "M1": (("rho", "phi"), None, ("phi",), None),
    "M2": (("sigma",), "a", (), "below a"),
    "M3": (("f", "phi"), None, ("phi",), None),
    "M4": (("g",), "a", (), "below a"),
    "M5": (("Phi",), "C", ("Phi",), "after C"),
    "M6": (("rho", "phi"), "C", ("phi",), "after C"),
    "M7": (("Psi",), "C", ("Psi",), "before C"),
    "M8": (("sigma", "phi"), "C", ("phi",), "before C"),
}
FAMILIES = tuple(_FAMILY)


class OutOfDomainError(EvoalgError):
    """Time pair not covered by the family's branch predicates."""


class ConstraintViolation(EvoalgError):
    """A nonvanishing constraint failed at an evaluation point."""


@dataclass(frozen=True)
class ChainFamilySpec:
    family: str
    functions: dict[str, Expr]
    thresholds: dict[str, float]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        fn_slots, th_slot, _, _ = _FAMILY[self.family]
        th_slots = (th_slot,) if th_slot else ()
        if set(self.functions) != set(fn_slots):
            raise ValueError(
                f"{self.family} needs functions {sorted(fn_slots)}, got {sorted(self.functions)}"
            )
        if set(self.thresholds) != set(th_slots):
            raise ValueError(
                f"{self.family} needs thresholds {sorted(th_slots)}, got {sorted(self.thresholds)}"
            )
        for name, v in self.thresholds.items():
            if not 0.0 < v < math.inf:
                raise ValueError(f"threshold {name} must be "
                                 f"{'finite' if v == math.inf else '> 0'}, got {v}")
        # each slot compiled once; the dataclass is frozen
        self.__dict__["compiled"] = {k: compile_expr(e) for k, e in self.functions.items()}

    @staticmethod
    def make(family: str, functions: dict[str, str] | None = None,
             thresholds: dict[str, float] | None = None) -> "ChainFamilySpec":
        """Build a spec from expression strings."""
        fns = {k: parse_expr(v) for k, v in (functions or {}).items()}
        return ChainFamilySpec(family, fns, dict(thresholds or {}))

    def _eval(self, name: str, x: float) -> float:
        v = self.compiled[name](x, x)
        if v == 0.0 and name in _FAMILY[self.family][2]:
            raise ConstraintViolation(
                f"{name} != 0 violated: {name}={to_string(self.functions[name])!r} "
                f"vanishes at {x}"
            )
        return v


def _sm(rows) -> StructureMatrix:
    return StructureMatrix.from_rows(rows, REAL)


_ZERO2 = _sm([[0.0, 0.0], [0.0, 0.0]])


# Each threshold family is live or zero at a time pair 0 <= s <= t by the
# rule of its region kind, or covered by no branch (neither).  A rule returns
# (live, zero) and joins comparisons with &, so it runs on floats and arrays.
_REGIONS = {
    "below a": lambda s, t, a: ((0.0 < s) & (s <= t) & (t < a), t >= a),
    "after C": lambda s, t, C: (t > C, (s < t) & (t <= C)),
    "before C": lambda s, t, C: (s < C, s >= C),
}

# the rows of the live matrix of each family, from `ev(slot, time)`; they
# run on floats and on arrays
_LIVE = {
    "M0": lambda ev, s, t: ((0.0, 0.0), (0.0, 0.0)),
    "M1": lambda ev, s, t: ((0.0, ev("rho", s) * ev("phi", t)),
                            (0.0, ev("phi", t) / ev("phi", s))),
    "M2": lambda ev, s, t: ((0.0, ev("sigma", s)), (0.0, 1.0)),
    "M3": lambda ev, s, t: ((0.0, 0.0),
                            (ev("f", t) / ev("phi", s), ev("phi", t) / ev("phi", s))),
    "M4": lambda ev, s, t: ((0.0, 0.0), (ev("g", t), 1.0)),
    "M5": lambda ev, s, t: ((0.0, ev("Phi", t) / ev("Phi", s)), (0.0, 0.0)),
    "M6": lambda ev, s, t: ((0.0, ev("rho", s) / ev("phi", t)), (0.0, 0.0)),
    "M7": lambda ev, s, t: ((0.0, 0.0), (ev("Psi", t) / ev("Psi", s), 0.0)),
    "M8": lambda ev, s, t: ((0.0, 0.0), (ev("sigma", t) / ev("phi", s), 0.0)),
}


def family_matrix(spec: ChainFamilySpec, s: float, t: float) -> StructureMatrix:
    """Structure matrix of the family at the time pair (s, t)."""
    if not (0.0 <= s <= t):
        raise OutOfDomainError(f"time pair (s={s}, t={t}) outside 0 <= s <= t")
    f = spec.family
    _, slot, _, region = _FAMILY[f]
    if region:
        x = spec.thresholds[slot]
        live, zero = _REGIONS[region](s, t, x)
        if zero:
            return _ZERO2
        if not live:
            raise OutOfDomainError(f"(s={s}, t={t}) not covered by {f} branches ({slot}={x})")
    rows = _LIVE[f](spec._eval, s, t)
    entries = rows[0] + rows[1]
    if not all(map(math.isfinite, entries)):  # a product or quotient overflowed
        k = next(k for k, z in enumerate(entries) if not math.isfinite(z))
        raise EvoalgError(f"{f} matrix entry a{k // 2 + 1}{k % 2 + 1} = {entries[k]!r} "
                          f"is not finite at (s={s}, t={t})")
    return _sm(rows)


def _slot_values(spec: ChainFamilySpec, times):
    """`ev(slot, x)` for arrays x of values among `times`, as the scalar
    `spec._eval` gives them (numpy's exp, log and power round differently)
    and NaN where that raises.  A slot is evaluated once per distinct time,
    and only at the times some call asks for."""
    u = np.sort(np.asarray(times, dtype=float), axis=None)
    u = u[np.r_[True, u[1:] != u[:-1]]]  # np.unique would import numpy.ma, 0.5 MB
    vals = {name: np.full(len(u), math.nan) for name in _FAMILY[spec.family][0]}
    done = {name: np.zeros(len(u), dtype=bool) for name in vals}

    def value(name, x):
        try:
            return spec._eval(name, x)
        except EvoalgError:
            return math.nan

    def ev(name, x):
        i = np.searchsorted(u, x)
        asked = np.zeros(len(u), dtype=bool)
        asked[i] = True
        new = np.flatnonzero(asked & ~done[name])
        done[name][new] = True
        vals[name][new] = [value(name, v) for v in u[new].tolist()]
        return vals[name][i]

    return ev


def _family_arrays(spec: ChainFamilySpec, ev, s, t):
    """family_matrix over arrays of time pairs (s, t): the entries, shape
    s.shape + (2, 2) and zero off the live pairs, whether each pair is
    covered by a branch, and whether a covered pair fails (a slot it uses
    raised, NaN from `ev`, or an entry is not finite)."""
    f = spec.family
    _, slot, _, region = _FAMILY[f]
    covered = live = (0.0 <= s) & (s <= t)
    if region:
        live, zero = _REGIONS[region](s, t, spec.thresholds[slot])
        live = live & covered
        covered = covered & (live | zero)
    out = np.zeros(np.shape(s) + (2, 2))
    if live.any():
        with np.errstate(over="ignore", invalid="ignore"):
            for i, row in enumerate(_LIVE[f](ev, s[live], t[live])):
                for j, z in enumerate(row):
                    out[live, i, j] = z
    return out, covered, live & ~np.isfinite(out).all(axis=(-2, -1))


# --- Chapman-Kolmogorov sampling ----------------------------------------------


@dataclass(frozen=True)
class CkReport:
    samples: int
    tol: float
    max_violation: float
    worst_triple: tuple[float, float, float] | None
    passed: bool

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        worst = ""
        if self.worst_triple:
            s, tau, t = self.worst_triple
            worst = f" at (s={s:.6g}, tau={tau:.6g}, t={t:.6g})"
        return (f"{state}: {self.samples} triples, max violation "
                f"{self.max_violation:.3e} (tol {self.tol:.1e}){worst}")


def sample_triples(samples: int, seed: int, t_max: float = 10.0):
    """Seeded triples s < tau < t: s ~ U(0.1, t_max/3), tau ~ U(s+eps,
    2 t_max/3), t ~ U(tau+eps, t_max), with eps = 1e-3.  Raises ValueError
    unless t_max is finite and >= 0.3: below it the range of s is reversed."""
    if not (math.isfinite(t_max) and t_max >= 0.3):
        raise ValueError(f"t_max must be finite and >= 0.3, got {t_max!r}")
    eps = 1e-3
    u = random.Random(seed).random
    s_max, tau_max = t_max / 3.0, 2.0 * t_max / 3.0
    out = []
    for _ in range(samples):  # rng.uniform(a, b) inlined: a + (b - a) * u()
        s = 0.1 + (s_max - 0.1) * u()
        lo = s + eps
        tau = lo + (tau_max - lo) * u()
        lo = tau + eps
        out.append((s, tau, lo + (t_max - lo) * u()))
    return out


def _sampled_law(violation, samples: int, seed: int, tol: float, t_max: float) -> CkReport:
    """The largest violation(s, tau, t) over seeded triples, checked against
    tol; an EvoalgError raised inside a triple names the triple."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    worst = 0.0
    worst_triple = None
    for (s, tau, t) in sample_triples(samples, seed, t_max):
        try:
            v = violation(s, tau, t)
        except EvoalgError as e:
            # name the triple in place: the error keeps its type and fields
            e.args = (f"{e} [triple (s={s}, tau={tau}, t={t})]",)
            raise
        if v > worst:
            worst, worst_triple = v, (s, tau, t)
    return CkReport(samples, tol, worst, worst_triple, worst <= tol)


CK_BLOCK = 1024  # triples per array pass of verify_ck


def verify_ck(spec, samples: int = 1000, seed: int = 0, tol: float = 1e-9,
              t_max: float = 10.0) -> CkReport:
    """Sampled check of M[s,t] = M[s,tau] M[tau,t].

    `spec` is a ChainFamilySpec or any callable (s, t) -> StructureMatrix
    (callables support fault-injection tests).  A ChainFamilySpec is checked
    in blocks of CK_BLOCK triples as arrays; a block with a failing slot
    value, an uncovered pair or a non-finite product sends the whole check to
    the per-triple loop, which raises or reports exactly as before.
    """
    check_tolerance(tol)
    if not callable(spec) and samples >= 1:
        report = _ck_blocks(spec, samples, seed, tol, t_max)
        if report is not None:
            return report
    mat = spec if callable(spec) else (lambda s, t: family_matrix(spec, s, t))

    def violation(s, tau, t):
        left = _mul2(mat(s, tau).entries, mat(tau, t).entries)
        right = mat(s, t).entries
        return max(abs(left[i][j] - right[i][j]) for i in range(2) for j in range(2))

    return _sampled_law(violation, samples, seed, tol, t_max)


def _ck_blocks(spec: ChainFamilySpec, samples, seed, tol, t_max) -> CkReport | None:
    """verify_ck's report from array passes, or None where a triple needs the
    per-triple loop.  The product is the loop's float64 arithmetic (its
    complex entries have zero imaginary parts), and np.argmax takes the first
    of equal maxima as the loop's strict > does."""
    triples = sample_triples(samples, seed, t_max)
    worst, worst_triple = 0.0, None
    for k in range(0, samples, CK_BLOCK):
        block = np.array(triples[k:k + CK_BLOCK])
        s, tau, t = block.T
        ev = _slot_values(spec, block)
        (m1, c1, f1), (m2, c2, f2), (m3, c3, f3) = (
            _family_arrays(spec, ev, x, y) for x, y in ((s, tau), (tau, t), (s, t)))
        if not (c1 & c2 & c3).all() or (f1 | f2 | f3).any():
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            left = m1[:, :, :1] * m2[:, None, 0] + m1[:, :, 1:] * m2[:, None, 1]
            v = np.abs(left - m3).max(axis=(1, 2))
        if not np.isfinite(v).all():
            return None
        i = int(np.argmax(v))
        if v[i] > worst:
            worst, worst_triple = float(v[i]), triples[k + i]
    return CkReport(samples, tol, worst, worst_triple, worst <= tol)


# --- scalar functional equations ----------------------------------------------


@dataclass(frozen=True)
class CantorDelta:
    """A candidate solution delta(s,t) of the scalar functional equations:
    either a plain expression, the threshold step (1 below `a`, 0 at t >= a),
    or the two-sided cutoff that vanishes unless s < C < t."""

    kind: str  # "expr" | "step" | "cutoff"
    expr: Expr | None = None
    threshold: float = 0.0

    def __post_init__(self):
        if self.kind not in ("expr", "step", "cutoff"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if (self.expr is None) != (self.kind == "step"):
            raise ValueError(f"{self.kind} delta " + (
                "needs an expression" if self.expr is None else "takes no expression"))
        th = self.threshold
        if self.kind != "expr" and not 0.0 < th < math.inf:
            raise ValueError(f"threshold {'a' if self.kind == 'step' else 'C'} must be "
                             f"{'finite' if th == math.inf else '> 0'}, got {th}")
        # compiled once; the dataclass is frozen
        self.__dict__["compiled"] = None if self.expr is None else compile_expr(self.expr)

    @staticmethod
    def from_expr(text_or_expr) -> "CantorDelta":
        e = parse_expr(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
        return CantorDelta("expr", e)

    @staticmethod
    def step(a: float) -> "CantorDelta":
        return CantorDelta("step", None, float(a))

    @staticmethod
    def cutoff(C: float, f_text_or_expr) -> "CantorDelta":
        """Zero on 0<C<=s<t and 0<s<t<=C, the given f(s, t) on 0<s<C<t."""
        e = parse_expr(f_text_or_expr) if isinstance(f_text_or_expr, str) else f_text_or_expr
        return CantorDelta("cutoff", e, float(C))

    def __call__(self, s: float, t: float) -> float:
        if self.kind == "expr":
            return self.compiled(s, t)
        if self.kind == "step":
            a = self.threshold
            if 0.0 < s <= t < a:
                return 1.0
            if t >= a:
                return 0.0
            raise OutOfDomainError(f"(s={s}, t={t}) not covered by the step solution")
        C = self.threshold
        if 0.0 < C <= s < t or 0.0 < s < t <= C:
            return 0.0
        if 0.0 < s < C < t:
            return self.compiled(s, t)
        raise OutOfDomainError(f"(s={s}, t={t}) not covered by the cutoff solution")


def verify_cantor(delta, equation: str = "cantor", samples: int = 1000, seed: int = 0,
                  tol: float = 1e-9, t_max: float = 10.0) -> CkReport:
    """Sampled check of delta(s,tau)delta(tau,t) = delta(s,t) ("cantor") or
    delta(s,tau)delta(tau,t) = 0 ("degenerate")."""
    if equation not in ("cantor", "degenerate"):
        raise ValueError(f"unknown equation {equation!r}")
    check_tolerance(tol)
    if not callable(delta):
        delta = CantorDelta.from_expr(delta)

    def violation(s, tau, t):
        prod = delta(s, tau) * delta(tau, t)
        return abs(prod - (delta(s, t) if equation == "cantor" else 0.0))

    return _sampled_law(violation, samples, seed, tol, t_max)


# --- time-depending dynamics ----------------------------------------------------


def classify_dynamics(spec: ChainFamilySpec, s: float, t: float,
                      tol: float = 1e-9) -> AlgebraClass:
    """Canonical class of the family's algebra at (s, t).

    Classification runs in complex mode: the family matrices are real, but
    only over the complex field does the class at a time pair depend solely
    on whether the relevant free function vanishes (over the reals the
    E2-type region would split further by the sign of the product of the
    nonzero entries).
    """
    return classify(family_matrix(spec, s, t), COMPLEX, tol=tol)


def expected_dynamics_class(spec: ChainFamilySpec, s: float, t: float,
                            eps: float = 1e-6) -> str | None:
    """Region table for the family's dynamics: the expected class tag at
    (s, t), or None when the pair is out of domain or within eps of a region
    boundary (thresholds, s=t where a clause needs s<t, zeros of the
    case-splitting free function)."""
    f = spec.family
    th = spec.thresholds

    def near(x, y):
        return abs(x - y) < eps

    def fn(name, x):  # one-shot, apart from the spec's compiled slots
        return eval_expr(spec.functions[name], x, x)

    if not (0.0 <= s <= t):
        return None
    if f == "M0":
        return "E0"
    if f == "M1":
        if near(s, t):
            return None
        r = fn("rho", s)
        if 0.0 < abs(r) < eps:
            return None
        return "E1" if r == 0.0 else "E2"
    if f == "M2":
        a = th["a"]
        if near(t, a) or s < eps:
            return None
        if t >= a:
            return "E0"
        if near(s, t):
            return None
        g = fn("sigma", s)
        if 0.0 < abs(g) < eps:
            return None
        return "E1" if g == 0.0 else "E2"
    if f == "M3":
        return "E1"
    if f == "M4":
        a = th["a"]
        if near(t, a) or s < eps:
            return None
        if t >= a:
            return "E0"
        if near(s, t):
            return None
        return "E1"
    if f == "M5":
        C = th["C"]
        if near(t, C):
            return None
        if t > C:
            return "E4"
        return None if near(s, t) else "E0"
    if f == "M6":
        C = th["C"]
        if near(t, C):
            return None
        if t > C:
            r = fn("rho", s)
            if 0.0 < abs(r) < eps:
                return None
            return "E0" if r == 0.0 else "E4"
        return None if near(s, t) else "E0"
    if f == "M7":
        C = th["C"]
        if near(s, C):
            return None
        return "E4" if s < C else "E0"
    # M8
    C = th["C"]
    if near(s, C):
        return None
    if s >= C:
        return "E0"
    g = fn("sigma", t)
    if 0.0 < abs(g) < eps:
        return None
    return "E0" if g == 0.0 else "E4"


# --- property diagrams ----------------------------------------------------------

OUT_OF_DOMAIN = "out_of_domain"
ERROR = "error"

# deterministic class colors for SVG output
CLASS_COLORS = {
    "E0": "#d9d9d9",
    "E1": "#1f77b4",
    "E2": "#ff7f0e",
    "E3": "#2ca02c",
    "E4": "#d62728",
    "E5": "#9467bd",
    "E6": "#8c564b",
    "E7": "#e377c2",
    OUT_OF_DOMAIN: "#ffffff",
    ERROR: "#000000",
}


@dataclass(frozen=True)
class PropertyDiagram:
    """Rasterized partition of a window of the (s, t) half-plane."""

    property_tag: str
    window: tuple[float, float, float, float]  # smin, smax, tmin, tmax
    resolution: tuple[int, int]
    cells: tuple  # rows indexed by t-cell then s-cell; each entry a class tag

    def axes(self):
        """The s of each column and the t of each row of cell centres."""
        smin, smax, tmin, tmax = self.window
        ns, nt = self.resolution
        ds = (smax - smin) / ns
        dt = (tmax - tmin) / nt
        return ([smin + (i + 0.5) * ds for i in range(ns)],
                [tmin + (j + 0.5) * dt for j in range(nt)])

    def in_property(self, tag: str) -> bool:
        if self.property_tag == "evolution-algebra":
            return tag not in (OUT_OF_DOMAIN, ERROR)
        return tag == self.property_tag

    def to_csv(self) -> str:
        ss, ts = self.axes()
        heads = [f"{s!r}," for s in ss]
        lines = ["s,t,class_tag"]
        for t, row in zip(ts, self.cells):
            mid = f"{t!r},"
            lines.extend([head + mid + tag for head, tag in zip(heads, row)])
        return "\n".join(lines) + "\n"

    def to_svg(self) -> str:
        cell_px = 8
        ns, nt = self.resolution
        w, h = ns * cell_px, nt * cell_px
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">'
        ]
        heads = [f'<rect x="{i * cell_px}" y="' for i in range(ns)]
        tails = {tag: f'" width="{cell_px}" height="{cell_px}" '
                      f'fill="{CLASS_COLORS.get(tag, "#888888")}"/>'
                 for tag in set().union(*self.cells)}
        for j, row in enumerate(self.cells):
            y = f"{(nt - 1 - j) * cell_px}"  # t grows upward: flip the row index
            out.extend([head + y + tails[tag] for head, tag in zip(heads, row)])
        out.append("</svg>")
        return "\n".join(out) + "\n"


def property_diagram(spec: ChainFamilySpec, property_tag: str,
                     window, resolution, tol: float = 1e-9) -> PropertyDiagram:
    """Classify the family over a grid of cell centers.

    `property_tag` is a key of CLASS_COLORS or "evolution-algebra";
    `window` is (smin, smax, tmin, tmax); `resolution` an int or (ns, nt)
    pair, at least 2 per axis.  Cells with s > t or uncovered by the family
    branches are labeled out_of_domain; evaluation errors are labeled error.
    """
    if property_tag not in CLASS_COLORS and property_tag != "evolution-algebra":
        raise ValueError(f"unknown property {property_tag!r}: use E0..E7, "
                         f"{OUT_OF_DOMAIN}, {ERROR} or evolution-algebra")
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    ns, nt = resolution
    if ns < 2 or nt < 2:
        raise ValueError("resolution must be >= 2 per axis")
    smin, smax, tmin, tmax = (float(v) for v in window)
    if not (smax > smin and tmax > tmin):
        raise ValueError("empty window")
    if not (math.isfinite(smax - smin) and math.isfinite(tmax - tmin)):
        raise ValueError(f"window width overflows: {(smin, smax, tmin, tmax)}")
    grid = PropertyDiagram(property_tag, (smin, smax, tmin, tmax), (ns, nt), ())
    ss, ts = grid.axes()
    s, t = np.meshgrid(ss, ts)
    entries, covered, failed = _family_arrays(spec, _slot_values(spec, ss + ts), s, t)
    cells = np.empty(s.shape, dtype=object)
    cells.fill(OUT_OF_DOMAIN)  # np.full would store a copy of the string per cell
    cells[failed] = ERROR
    todo = covered & ~failed
    if todo.any():
        cells[todo] = classify_tags(entries[todo], tol)
    # the cells the batch leaves undecided: `classify` on the batch's entries
    for j, i in np.argwhere(np.equal(cells, None)):
        try:
            cells[j, i] = classify(StructureMatrix.from_rows(entries[j, i].tolist(), COMPLEX),
                                   tol=tol).tag
        except EvoalgError:
            cells[j, i] = ERROR
    return replace(grid, cells=tuple(map(tuple, cells.tolist())))


# --- config files ----------------------------------------------------------------

SCHEMA_VERSION = 1


def load_config(path) -> dict:
    """Load a chain-family run config from a JSON file.

    Required keys: schema_version, family.  Optional: functions (map of slot
    name to expression string), thresholds, window [smin, smax, tmin, tmax],
    resolution [ns, nt] or int, seed, tolerance, samples, t_max, property.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as e:
            raise EvoalgError(f"bad config JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise EvoalgError("config must be a JSON object")
    version = cfg.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1, 1.0 == 1
        raise EvoalgError(
            f"unsupported schema_version {version!r} (this build reads {SCHEMA_VERSION})"
        )
    if "family" not in cfg:
        raise EvoalgError("config is missing 'family'")
    functions = cfg.get("functions") or {}
    if not (isinstance(functions, dict) and all(isinstance(v, str) for v in functions.values())):
        raise EvoalgError("config 'functions' must map slot names to expression strings")
    thresholds = cfg.get("thresholds") or {}
    if not (isinstance(thresholds, dict)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in thresholds.values())):
        raise EvoalgError("config 'thresholds' must map names to numbers")
    spec = ChainFamilySpec.make(cfg["family"], functions, thresholds)
    if not isinstance(cfg.get("property", ""), str):
        raise EvoalgError(f"config 'property' must be a class tag string: {cfg['property']!r}")

    def number(v):
        # a JSON number: float("0.5") and int("3") would read strings, int(true) is 1
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(v)
        return v

    def integer(v):
        # int() would truncate 1.7 to 1
        if isinstance(number(v), float) and not v.is_integer():
            raise ValueError(v)
        return int(v)

    def size(v):
        n = integer(v)
        if n < 2:
            raise ValueError(v)
        return n

    def window(v):
        if not (isinstance(v, list) and len(v) == 4):
            raise ValueError(v)
        smin, smax, tmin, tmax = edges = tuple(float(number(x)) for x in v)
        if not (math.isfinite(smax - smin) and math.isfinite(tmax - tmin)
                and smax > smin and tmax > tmin):  # finite edges, widths that do not overflow
            raise ValueError(v)
        return edges

    def tolerance(v):
        check_tolerance(float(number(v)))
        return float(v)

    def t_max(v):
        sample_triples(0, 0, float(number(v)))  # draws nothing; raises unless usable
        return float(v)

    def value(key, default, convert):
        if key not in cfg:
            return default
        try:
            return convert(cfg[key])
        except (TypeError, ValueError, OverflowError):
            raise EvoalgError(f"config {key!r} is malformed: {cfg[key]!r}") from None

    out = {
        "spec": spec,
        "window": value("window", (0.0, 4.0, 0.0, 4.0), window),
        "resolution": value("resolution", 64,
                            lambda v: tuple(map(size, v)) if isinstance(v, list) and len(v) == 2
                            else size(v)),
        "seed": value("seed", 0, integer),
        "tolerance": value("tolerance", 1e-9, tolerance),
        "samples": value("samples", 1000, integer),
        "t_max": value("t_max", 10.0, t_max),
        "property": cfg.get("property", "E4"),
    }
    return out
