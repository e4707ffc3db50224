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
classifier is tested against, and `dynamics_witness` produces an explicit
basis change onto the canonical form for the same region.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass

from .core import COMPLEX, REAL, EvoalgError, StructureMatrix
from .classify2d import AlgebraClass, canonical_matrix, classify, homomorphism_residual
from .exprlang import DomainEvalError, Expr, eval_expr, parse_expr, to_string

TimePair = tuple[float, float]

FAMILIES = ("M0", "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8")

# function slots and threshold slots per family
_SLOTS = {
    "M0": ((), ()),
    "M1": (("rho", "phi"), ()),
    "M2": (("sigma",), ("a",)),
    "M3": (("f", "phi"), ()),
    "M4": (("g",), ("a",)),
    "M5": (("Phi",), ("C",)),
    "M6": (("rho", "phi"), ("C",)),
    "M7": (("Psi",), ("C",)),
    "M8": (("sigma", "phi"), ("C",)),
}

# slots that sit in denominators; their values must never be zero
_NONVANISHING = {
    "M1": ("phi",),
    "M3": ("phi",),
    "M5": ("Phi",),
    "M6": ("phi",),
    "M7": ("Psi",),
    "M8": ("phi",),
}


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
        fn_slots, th_slots = _SLOTS[self.family]
        if set(self.functions) != set(fn_slots):
            raise ValueError(
                f"{self.family} needs functions {sorted(fn_slots)}, got {sorted(self.functions)}"
            )
        if set(self.thresholds) != set(th_slots):
            raise ValueError(
                f"{self.family} needs thresholds {sorted(th_slots)}, got {sorted(self.thresholds)}"
            )
        for name, v in self.thresholds.items():
            if not v > 0:
                raise ValueError(f"threshold {name} must be > 0, got {v}")

    @staticmethod
    def make(family: str, functions: dict[str, str] | None = None,
             thresholds: dict[str, float] | None = None) -> "ChainFamilySpec":
        """Build a spec from expression strings."""
        fns = {k: parse_expr(v) for k, v in (functions or {}).items()}
        return ChainFamilySpec(family, fns, dict(thresholds or {}))

    def _eval(self, name: str, x: float) -> float:
        v = eval_expr(self.functions[name], x, x)
        if name in _NONVANISHING.get(self.family, ()) and v == 0.0:
            raise ConstraintViolation(
                f"{name} != 0 violated: {name}={to_string(self.functions[name])!r} "
                f"vanishes at {x}"
            )
        return v


def _sm(rows) -> StructureMatrix:
    return StructureMatrix.from_rows(rows, REAL)


_ZERO2 = _sm([[0.0, 0.0], [0.0, 0.0]])


def family_matrix(spec: ChainFamilySpec, s: float, t: float) -> StructureMatrix:
    """Structure matrix of the family at the time pair (s, t)."""
    if not (0.0 <= s <= t):
        raise OutOfDomainError(f"time pair (s={s}, t={t}) outside 0 <= s <= t")
    f = spec.family
    th = spec.thresholds
    ev = spec._eval
    if f == "M0":
        return _ZERO2
    if f == "M1":
        return _sm([[0.0, ev("rho", s) * ev("phi", t)],
                    [0.0, ev("phi", t) / ev("phi", s)]])
    if f == "M2":
        a = th["a"]
        if 0.0 < s <= t < a:
            return _sm([[0.0, ev("sigma", s)], [0.0, 1.0]])
        if t >= a:
            return _ZERO2
        raise OutOfDomainError(f"(s={s}, t={t}) not covered by M2 branches (a={a})")
    if f == "M3":
        return _sm([[0.0, 0.0],
                    [ev("f", t) / ev("phi", s), ev("phi", t) / ev("phi", s)]])
    if f == "M4":
        a = th["a"]
        if 0.0 < s <= t < a:
            return _sm([[0.0, 0.0], [ev("g", t), 1.0]])
        if t >= a:
            return _ZERO2
        raise OutOfDomainError(f"(s={s}, t={t}) not covered by M4 branches (a={a})")
    if f == "M5":
        C = th["C"]
        if s < t <= C:
            return _ZERO2
        if t > C:
            return _sm([[0.0, ev("Phi", t) / ev("Phi", s)], [0.0, 0.0]])
        raise OutOfDomainError(f"(s={s}, t={t}) not covered by M5 branches (C={C})")
    if f == "M6":
        C = th["C"]
        if s < t <= C:
            return _ZERO2
        if t > C:
            return _sm([[0.0, ev("rho", s) / ev("phi", t)], [0.0, 0.0]])
        raise OutOfDomainError(f"(s={s}, t={t}) not covered by M6 branches (C={C})")
    if f == "M7":
        C = th["C"]
        if s < C:
            return _sm([[0.0, 0.0], [ev("Psi", t) / ev("Psi", s), 0.0]])
        return _ZERO2
    # M8
    C = th["C"]
    if s < C:
        return _sm([[0.0, 0.0], [ev("sigma", t) / ev("phi", s), 0.0]])
    return _ZERO2


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


def _mat2mul(P, Q):
    return tuple(
        tuple(sum(P[i][k] * Q[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def sample_triples(samples: int, seed: int, t_max: float = 10.0):
    """Seeded triples s < tau < t: s ~ U(0.1, t_max/3), tau ~ U(s+eps,
    2 t_max/3), t ~ U(tau+eps, t_max), with eps = 1e-3.  Raises ValueError
    unless t_max is finite and >= 0.3: below it the range of s is reversed."""
    if not (math.isfinite(t_max) and t_max >= 0.3):
        raise ValueError(f"t_max must be finite and >= 0.3, got {t_max!r}")
    eps = 1e-3
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        s = rng.uniform(0.1, t_max / 3.0)
        tau = rng.uniform(s + eps, 2.0 * t_max / 3.0)
        t = rng.uniform(tau + eps, t_max)
        out.append((s, tau, t))
    return out


def verify_ck(spec, samples: int = 1000, seed: int = 0, tol: float = 1e-9,
              t_max: float = 10.0) -> CkReport:
    """Sampled check of M[s,t] = M[s,tau] M[tau,t].

    `spec` is a ChainFamilySpec or any callable (s, t) -> StructureMatrix
    (callables support fault-injection tests).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    mat = spec if callable(spec) else (lambda s, t: family_matrix(spec, s, t))
    worst = 0.0
    worst_triple = None
    for (s, tau, t) in sample_triples(samples, seed, t_max):
        try:
            left = _mat2mul(mat(s, tau).entries, mat(tau, t).entries)
            right = mat(s, t).entries
        except EvoalgError as e:
            # name the triple in place: the error keeps its type and fields
            e.args = (f"{e} [triple (s={s}, tau={tau}, t={t})]",)
            raise
        v = max(abs(left[i][j] - right[i][j]) for i in range(2) for j in range(2))
        if v > worst:
            worst, worst_triple = v, (s, tau, t)
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
            return eval_expr(self.expr, s, t)
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
            return eval_expr(self.expr, s, t)
        raise OutOfDomainError(f"(s={s}, t={t}) not covered by the cutoff solution")


def verify_cantor(delta, equation: str = "cantor", samples: int = 1000, seed: int = 0,
                  tol: float = 1e-9, t_max: float = 10.0) -> CkReport:
    """Sampled check of delta(s,tau)delta(tau,t) = delta(s,t) ("cantor") or
    delta(s,tau)delta(tau,t) = 0 ("degenerate")."""
    if equation not in ("cantor", "degenerate"):
        raise ValueError(f"unknown equation {equation!r}")
    if not isinstance(delta, CantorDelta) and not callable(delta):
        delta = CantorDelta.from_expr(delta)
    worst = 0.0
    worst_triple = None
    for (s, tau, t) in sample_triples(samples, seed, t_max):
        try:
            prod = delta(s, tau) * delta(tau, t)
            target = delta(s, t) if equation == "cantor" else 0.0
        except EvoalgError as e:
            e.args = (f"{e} [triple (s={s}, tau={tau}, t={t})]",)
            raise
        v = abs(prod - target)
        if v > worst:
            worst, worst_triple = v, (s, tau, t)
    return CkReport(samples, tol, worst, worst_triple, worst <= tol)


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
    A = family_matrix(spec, s, t)
    return classify(StructureMatrix(A.entries, COMPLEX), COMPLEX, tol=tol)


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

    def fn(name, x):
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


def dynamics_witness(spec: ChainFamilySpec, s: float, t: float):
    """Closed-form basis change realizing the expected class at (s, t).

    Returns (tag, S) where S maps the canonical algebra of `tag` onto the
    family's algebra (rows of S are the images of the canonical basis), or
    (tag, None) for the zero algebra where any invertible map works.
    """
    tag = expected_dynamics_class(spec, s, t, eps=0.0)
    if tag is None:
        raise OutOfDomainError(f"(s={s}, t={t}) is out of domain for {spec.family}")
    A = family_matrix(spec, s, t)
    (_, beta), (gamma, delta) = A.entries
    if tag == "E0":
        return tag, None
    if tag == "E1":
        if spec.family in ("M1", "M2"):
            return tag, ((0.0, 1.0 / delta), (1.0, 0.0))
        # M3/M4 shape [[0,0],[gamma,delta]]
        return tag, ((gamma / delta**2, 1.0 / delta), (1.0, 0.0))
    if tag == "E2":
        mu = 1.0 / cmath.sqrt(beta * delta)
        return tag, ((0.0, 1.0 / delta), (mu, 0.0))
    # E4 regions
    if spec.family in ("M5", "M6"):
        return tag, ((1.0, 0.0), (0.0, beta))
    return tag, ((0.0, 1.0), (gamma, 0.0))


def check_dynamics_witness(spec: ChainFamilySpec, s: float, t: float) -> float:
    """Homomorphism residual of the stored closed-form witness at (s, t);
    exact (up to roundoff) when the region table is right."""
    tag, S = dynamics_witness(spec, s, t)
    A = family_matrix(spec, s, t)
    A = StructureMatrix(A.entries, COMPLEX)
    if S is None:
        return 0.0 if A.is_zero() else float("inf")
    B = canonical_matrix(AlgebraClass(COMPLEX, tag))
    return homomorphism_residual(B, A, S)


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

    def cell_centers(self):
        smin, smax, tmin, tmax = self.window
        ns, nt = self.resolution
        ds = (smax - smin) / ns
        dt = (tmax - tmin) / nt
        for j in range(nt):
            for i in range(ns):
                yield i, j, smin + (i + 0.5) * ds, tmin + (j + 0.5) * dt

    def in_property(self, tag: str) -> bool:
        if self.property_tag == "evolution-algebra":
            return tag not in (OUT_OF_DOMAIN, ERROR)
        return tag == self.property_tag

    def to_csv(self) -> str:
        lines = ["s,t,class_tag"]
        for i, j, s, t in self.cell_centers():
            lines.append(f"{s!r},{t!r},{self.cells[j][i]}")
        return "\n".join(lines) + "\n"

    def to_svg(self) -> str:
        cell_px = 8
        ns, nt = self.resolution
        w, h = ns * cell_px, nt * cell_px
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">'
        ]
        for j in range(nt):
            for i in range(ns):
                tag = self.cells[j][i]
                color = CLASS_COLORS.get(tag, "#888888")
                # t grows upward: flip the row index
                y = (nt - 1 - j) * cell_px
                out.append(
                    f'<rect x="{i * cell_px}" y="{y}" width="{cell_px}" '
                    f'height="{cell_px}" fill="{color}"/>'
                )
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
    rows = []
    ds = (smax - smin) / ns
    dt = (tmax - tmin) / nt
    for j in range(nt):
        t = tmin + (j + 0.5) * dt
        row = []
        for i in range(ns):
            s = smin + (i + 0.5) * ds
            if not (0.0 <= s <= t):
                row.append(OUT_OF_DOMAIN)
                continue
            try:
                row.append(classify_dynamics(spec, s, t, tol=tol).tag)
            except OutOfDomainError:
                row.append(OUT_OF_DOMAIN)
            except (DomainEvalError, ConstraintViolation, EvoalgError):
                row.append(ERROR)
        rows.append(tuple(row))
    return PropertyDiagram(property_tag, (smin, smax, tmin, tmax), (ns, nt), tuple(rows))


# --- config files ----------------------------------------------------------------

SCHEMA_VERSION = 1


def load_config(path_or_text) -> dict:
    """Load a chain-family run config (JSON).

    Required keys: schema_version, family.  Optional: functions (map of slot
    name to expression string), thresholds, window [smin, smax, tmin, tmax],
    resolution [ns, nt] or int, seed, tolerance, samples, t_max, property.
    """
    if isinstance(path_or_text, str) and path_or_text.lstrip().startswith("{"):
        raw = path_or_text
    else:
        with open(path_or_text, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        cfg = json.loads(raw)
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
        if not (all(map(math.isfinite, edges)) and smax > smin and tmax > tmin):
            raise ValueError(v)
        return edges

    def tolerance(v):
        if not float(number(v)) >= 0:  # NaN fails this too
            raise ValueError(v)
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
