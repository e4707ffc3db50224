"""Canonical-form classification of 2-dimensional evolution algebras.

Real canonical forms (structure matrices, rows = e_i * e_i):

    E0  [[0,0],[0,0]]           E4  [[0,1],[0,0]]
    E1  [[1,0],[0,0]]           E5  [[0,1],[0,-1]]
    E2  [[1,0],[1,0]]           E6(a2;a3)  [[1,a2],[a3,1]], 1-a2*a3 != 0
    E3  [[1,1],[-1,-1]]         E7(a4)     [[0,1],[1,a4]]

Complex forms are E0..E4 as above plus E5(x,y) = [[1,x],[y,1]] (1-xy != 0)
and E6(a4) = [[0,1],[1,a4]].  E0 (the zero-product algebra) is admitted as a
class although the nonzero canonical lists start at E1.

The decision procedure: exact zero test, then rank of the structure matrix
(dim E^2), then the exact E4 shape criterion.  Every remaining class is
reached in closed form.  A rank-1 matrix factors as row_i = lam_i * w, and
kappa = w.diag(lam).w and lam1*lam2 order the candidates E1, E2, E3 (and the
real E5) and give each its basis change.  A rank-2 matrix has E5/E6 parameters
x = a12*a22/a11^2, y = a21*a11/a22^2 when its diagonal is nonzero, and its
E6/E7 parameter through cube roots of the off-diagonal product otherwise.
One generator per rank yields these candidates (tag, params, B, start, unit)
in order, B the canonical matrix to check against: the rank-1 targets are
built once at import, and a rank-2 target is built per candidate from its
parameters.  One loop in classify_with_witness passes each candidate to
find_isomorphism, which accepts the start as the witness when it passes the
witness check, the same test at every scale (_accepts); no numeric search
runs.  The answer's class and witness are built once.  No other start is
tried, so an input whose closed-form witnesses all fail is unclassifiable,
as is one whose arithmetic leaves the float range.  The reported
parameters are the closed-form ones the witness was checked against.
Witnesses are invertible basis changes with a quantified homomorphism
residual.  Since the classification is a complete invariant, find_isomorphism
between two arbitrary algebras composes their witnesses.

classify_tags tags a stack of real chain-shaped matrices (zero, or a11 = 0
with a zero a12, a21 or a22) on numpy arrays by replaying classify's float
operations on them; it leaves every other matrix to `classify`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (COMPLEX, REAL, DimensionMismatchError, EvoalgError, StructureMatrix,
                   check_tolerance)
from .numerics import levenberg_marquardt  # noqa: F401  (perfbench's tracer patches this name)

DEFAULT_TOL = 1e-9           # structural tolerance: absolute for E0/E4, else relative to max |a_ij|
ISO_TOL = 1e-18              # bound on the squared homomorphism residual, at max |a_ij| ~ 1
DET_TOL = 1e-12              # basis changes closer than this (relative) to singular are rejected

_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # primitive cube root of unity


class UnclassifiableError(EvoalgError):
    """No closed-form candidate canonical form passed the witness check."""


# {field: {tag: number of parameters}}: the valid classes of each field
_N_PARAMS = {
    REAL: {"E0": 0, "E1": 0, "E2": 0, "E3": 0, "E4": 0, "E5": 0, "E6": 2, "E7": 1},
    COMPLEX: {"E0": 0, "E1": 0, "E2": 0, "E3": 0, "E4": 0, "E5": 2, "E6": 1},
}


@dataclass(frozen=True)
class AlgebraClass:
    """Canonical-form label: field mode, tag E0..E7, continuous parameters."""

    field: str
    tag: str
    params: tuple[complex, ...] = ()

    def __post_init__(self):
        try:
            n = _N_PARAMS[self.field][self.tag]
        except (KeyError, TypeError):
            raise ValueError(f"invalid class {self.tag!r} for field {self.field!r}") from None
        params = tuple(map(complex, self.params))
        object.__setattr__(self, "params", params)
        if len(params) != n:
            raise ValueError(f"{self.tag} ({self.field}) takes {n} parameters, got {len(params)}")
        _check_params(self.field, self.tag, params)

    def label(self) -> str:
        return _label(self.tag, self.params)


def _check_params(field: str, tag: str, params) -> None:
    """Raise ValueError unless the complex parameters, as many as the class
    takes, name a class: they are finite, and 1 - p0*p1 is not 0."""
    if not all(map(cmath.isfinite, params)):
        raise ValueError(f"{tag} ({field}) has a non-finite parameter: {params}")
    # [[1, p0], [p1, 1]] has determinant 1 - p0*p1; at 0 it is not rank 2
    if len(params) == 2 and 1 - params[0] * params[1] == 0:
        raise ValueError(f"{_label(tag, params)} ({field}) is degenerate: 1 - p0*p1 = 0")


def _label(tag: str, params) -> str:
    if not params:
        return tag
    return f"{tag}({', '.join(_fmt_scalar(p) for p in params)})"


def _fmt_scalar(z: complex) -> str:
    def f(x: float) -> str:
        return repr(int(x)) if x == int(x) and abs(x) < 1e15 else repr(x)

    if z.imag == 0:
        return f(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{f(z.real)}{sign}{f(abs(z.imag))}i"


def canonical_matrix(cls: AlgebraClass) -> StructureMatrix:
    """Structure matrix of a canonical class."""
    return StructureMatrix.from_rows(canonical_rows(cls.field, cls.tag, cls.params), cls.field)


def canonical_rows(field: str, t: str, p=()):
    """Rows of the canonical matrix of tag `t` with parameters `p`, unchecked;
    the parameters may be any values, e.g. core.ComplexLanes."""
    fixed = {
        "E0": ((0, 0), (0, 0)),
        "E1": ((1, 0), (0, 0)),
        "E2": ((1, 0), (1, 0)),
        "E3": ((1, 1), (-1, -1)),
        "E4": ((0, 1), (0, 0)),
    }
    if t in fixed:
        return fixed[t]
    if field == REAL:
        return ((0, 1), (0, -1)) if t == "E5" else (
            ((1, p[0]), (p[1], 1)) if t == "E6" else ((0, 1), (1, p[0]))
        )
    return ((1, p[0]), (p[1], 1)) if t == "E5" else ((0, 1), (1, p[0]))


def _lex_key(z: complex):
    # quantized first so representatives equal up to roundoff compare equal
    return (round(z.real, 9), round(z.imag, 9), z.real, z.imag)


@dataclass(frozen=True)
class BasisChange:
    """2x2 basis-change matrix; row i gives the image of e_i."""

    entries: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self):
        (a, b), (c, d) = self.entries
        rows = ((complex(a), complex(b)), (complex(c), complex(d)))
        object.__setattr__(self, "entries", rows)
        if _nonsingular_det(rows) is None:
            raise ValueError(f"basis change is singular within relative {DET_TOL}: "
                             f"det={_det2(rows)}")

    def inverse(self) -> "BasisChange":
        return BasisChange(_inv2(self.entries))


@dataclass(frozen=True)
class E4Shape:
    matches: bool
    variant: str | None = None  # "upper" for [[0,b],[0,0]], "lower" for [[0,0],[c,0]]
    entry: complex | None = None


_NOT_E4 = E4Shape(False)


def is_E4_shape(A: StructureMatrix, tol: float = DEFAULT_TOL) -> E4Shape:
    """Exact E4 criterion: the matrix is [[0,b],[0,0]] or [[0,0],[c,0]] with
    the designated off-diagonal entry larger than tol.  The pattern zeros are
    tested exactly; the all-zero matrix is E0, not E4."""
    if A.dim != 2:
        raise DimensionMismatchError(f"E4 shape test needs dim 2, got {A.dim}")
    (a, b), (c, d) = A.entries
    if a == 0 and c == 0 and d == 0 and abs(b) > tol:
        return E4Shape(True, "upper", b)
    if a == 0 and b == 0 and d == 0 and abs(c) > tol:
        return E4Shape(True, "lower", c)
    return _NOT_E4


def rescale_permute(A: StructureMatrix, scales, perm=(0, 1)) -> StructureMatrix:
    """Structure matrix after the natural-basis change e'_i = d_i e_perm(i).

    New constants: a'_ij = d_i^2 a_{perm(i) perm(j)} / d_j.
    """
    d = tuple(complex(z) for z in scales)
    n = A.dim
    if len(d) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"need {n} scales and a permutation of range({n}), "
                         f"got {len(d)} scale(s) and perm {tuple(perm)}")
    if any(z == 0 for z in d):
        raise ValueError("scales must be nonzero")
    rows = [
        tuple(d[i] ** 2 * A.entries[perm[i]][perm[j]] / d[j] for j in range(n))
        for i in range(n)
    ]
    return StructureMatrix.from_rows(rows, A.field)


# --- homomorphism residual ----------------------------------------------------


def _hom_components(a, b, t) -> list[complex]:
    """The six complex components g(e_i e_j) - g(e_i) *_B g(e_j) over pairs
    (1,1), (2,2), (1,2), where g maps A's basis by the rows of T; a, b and t
    are the entry rows of A, B and T."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    (t00, t01), (t10, t11) = t
    s00, s01, s10, s11 = t00 * t00, t01 * t01, t10 * t10, t11 * t11
    p0, p1 = t00 * t10, t01 * t11
    return [a00 * t00 + a01 * t10 - (s00 * b00 + s01 * b10),
            a00 * t01 + a01 * t11 - (s00 * b01 + s01 * b11),
            a10 * t00 + a11 * t10 - (s10 * b00 + s11 * b10),
            a10 * t01 + a11 * t11 - (s10 * b01 + s11 * b11),
            -(p0 * b00 + p1 * b10),
            -(p0 * b01 + p1 * b11)]


def homomorphism_residual(A: StructureMatrix, B: StructureMatrix, T) -> float:
    """Sum over basis pairs i <= j of |g(e_i e_j) - g(e_i) g(e_j)|^2."""
    return _residual(A.entries, B.entries, T.entries if isinstance(T, BasisChange) else T)


def _residual(a, b, t) -> float:
    """homomorphism_residual on the entry rows of A, B and T."""
    return sum([abs(z) ** 2 for z in _hom_components(a, b, t)])


def _det2(t) -> complex:
    return t[0][0] * t[1][1] - t[0][1] * t[1][0]


def _nonsingular_det(t):
    """det t, or None where it is 0 within DET_TOL relative to |ad| + |bc| (or NaN)."""
    (a, b), (c, d) = t
    p, q = a * d, b * c
    return p - q if abs(p - q) > DET_TOL * (abs(p) + abs(q)) else None


def _inv2(t):
    d = _det2(t)
    if d == 0:
        return None
    return _inv_rows(t, d)


def _inv_rows(t, d):
    """adj(t) / d: the inverse of t when d is its determinant."""
    return ((t[1][1] / d, -t[0][1] / d), (-t[1][0] / d, t[0][0] / d))


def _mul2(s, t):
    return tuple(tuple(s[i][0] * t[0][k] + s[i][1] * t[1][k] for k in (0, 1))
                 for i in (0, 1))


# --- isomorphism check ----------------------------------------------------------


def find_isomorphism(A: StructureMatrix, B: StructureMatrix, start=None):
    """An algebra isomorphism from A onto B, or None.

    With a start (a 2x2 basis change, row i the image of e_i), the start is
    the answer when it passes the witness check, which runs on plain rows of
    complex numbers (in real mode their imaginary parts are dropped), and
    None otherwise; nothing searches near it.
    A returned start has homomorphism residual (sum of squared coordinates
    over basis pairs) below ISO_TOL * 2^4e, with 2^e the least power of two
    above max |a_ij| (see _accepts).
    Without a start, A and B are classified with their witnesses, and the
    classification is a complete invariant: different tags give None, equal
    tags decide a class without parameters, and A's witness must also pass
    the check against B's canonical matrix where the class has parameters.
    The answer is then T_A * T_B^-1 (the identity when both are E0).  An
    input that is unclassifiable raises UnclassifiableError rather than
    claiming that no isomorphism exists.
    """
    if A.dim != 2 or B.dim != 2:
        raise DimensionMismatchError("isomorphism search supports dimension 2 only")
    if A.field != B.field:
        raise ValueError(f"field modes differ: {A.field} vs {B.field}")
    entry = complex if A.field == COMPLEX else (lambda z: complex(z.real))
    if start is not None:
        (a, b), (c, d) = start
        T = ((entry(a), entry(b)), (entry(c), entry(d)))
        return BasisChange(T) if _accepts(A, B, T) else None

    cls_a, w_a = classify_with_witness(A)
    cls_b, w_b = classify_with_witness(B)
    if cls_a.tag != cls_b.tag:
        return None
    if cls_a.tag == "E0":
        return BasisChange(((1, 0), (0, 1)))
    # the check is scaled for a canonical target, so it runs on A's own witness
    if cls_a.params and not _accepts(A, canonical_matrix(cls_b), w_a.entries):
        return None
    (p, q), (r, s) = w_b.entries  # T_A adj(T_B) / det(T_B): exactly I when A == B
    return BasisChange(tuple(tuple(entry(z / (p * s - q * r)) for z in row)
                             for row in _mul2(w_a.entries, ((s, -q), (-r, p)))))


INV_TOL = 1e-9  # residual bound on the inverse witness, at max |a_ij| ~ 1


def _accepts(A, B, T) -> bool:
    """The witness check, the same test at every scale: T is invertible
    (relative DET_TOL) and a homomorphism from A to the canonical B both ways.
    With e the frexp exponent of max |a_ij|, the residual times 2^-4e (the
    inverse one times 2^2e) is exactly that of A / 2^e, B and T / 2^e, whose
    entries are below 1; a scaled residual beyond float range raises OverflowError."""
    # A near-singular T can sit within ISO_TOL of a genuine but non-invertible
    # homomorphism; demanding that the inverse map is a homomorphism as well
    # rejects those (its residual blows up as 1/det), so it is tested first.
    # The determinant test is BasisChange's: every accepted T makes one.
    d = _nonsingular_det(T)
    if d is None:
        return False
    e = math.frexp(A.maxabs())[1]
    a, b = A.entries, B.entries
    return (math.ldexp(_residual(b, a, _inv_rows(T, d)), 2 * e) < INV_TOL
            and math.ldexp(_residual(a, b, T), -4 * e) < ISO_TOL)


# --- rank-1 invariants and closed-form starting points -------------------------


def _rank1_data(A: StructureMatrix, eps: float):
    """Write row_i = lam_i * w for a rank-1 matrix; returns (w, lam).  eps
    bounds the defect of the factorization (tol times the entry scale)."""
    r = A.entries
    norms = [max(map(abs, row)) for row in r]
    p = 0 if norms[0] >= norms[1] else 1
    q = 1 - p
    w = r[p]
    j = 0 if abs(w[0]) >= abs(w[1]) else 1
    lam = [0j, 0j]
    lam[p] = 1.0 + 0j
    lam[q] = r[q][j] / w[j]
    err = max(abs(r[q][0] - lam[q] * w[0]), abs(r[q][1] - lam[q] * w[1]))
    if err > eps:
        raise UnclassifiableError(
            f"rows are not proportional within tolerance (defect {err:.3g}); "
            "the input sits near the rank boundary"
        )
    return w, (lam[0], lam[1])


def _safe_inv_start(S):
    """The inverse of the closed-form basis S as a start, or None when S is
    singular or a closed form overflowed; the witness check judges a start
    that is nearly singular, relative to its scale."""
    d = _det2(S)
    if not cmath.isfinite(d) or d == 0:
        return None
    inv = _inv_rows(S, d)
    return inv if all(map(cmath.isfinite, inv[0] + inv[1])) else None


def _start_E1(w, lam, kappa, tol):
    z = 0 if abs(lam[0]) <= abs(lam[1]) else 1
    if abs(lam[z]) > tol or kappa == 0:
        return None
    u = (w[0] / kappa, w[1] / kappa)
    return _safe_inv_start((u, ((1.0 + 0j, 0j), (0j, 1.0 + 0j))[z]))


def _start_E2(w, lam, kappa, real_mode):
    ll = lam[0] * lam[1]
    if ll == 0 or kappa == 0:
        return None
    if real_mode and ll.real <= 0:
        return None
    mu = 1.0 / (kappa * cmath.sqrt(ll))
    u = (w[0] / kappa, w[1] / kappa)
    v = (mu * w[1] * lam[1], -mu * w[0] * lam[0])
    return _safe_inv_start((u, v))


def _start_E5_real(w, lam, kappa):
    # E5 is f1^2 = f2, f2^2 = -f2: f2 = -w/kappa, and f1 is orthogonal to w
    # under diag(lam) with f1^2 = mu^2 * lam1*lam2 * kappa * w = f2
    ll = lam[0] * lam[1]
    if ll.real >= 0 or kappa == 0:
        return None
    mu = 1.0 / (kappa * math.sqrt(-ll.real))
    u = (mu * w[1] * lam[1], -mu * w[0] * lam[0])
    v = (-w[0] / kappa, -w[1] / kappa)
    return _safe_inv_start((u, v))


def _start_E3(w, lam):
    sizes = [abs(w[0] * lam[0]), abs(w[1] * lam[1])]
    m = 0 if sizes[0] >= sizes[1] else 1
    if sizes[m] == 0:
        return None
    pm = 1.0 / (lam[m] * w[m])
    p = (pm, 0j) if m == 0 else (0j, pm)
    cp = lam[m] * pm * pm
    q = (cp * w[0] - p[0], cp * w[1] - p[1])
    return _safe_inv_start((p, q))


def _e4_witness(shape: E4Shape):
    if shape.variant == "upper":
        S = ((1.0 + 0j, 0j), (0j, shape.entry))
    else:
        S = ((0j, 1.0 + 0j), (shape.entry, 0j))
    inv = _inv2(S)  # the entry is nonzero, so S is invertible
    if not all(cmath.isfinite(z) for row in inv for z in row):
        raise OverflowError("the inverse of the E4 entry is beyond float range")
    return BasisChange(inv)


# --- classification -----------------------------------------------------------


def classify(A: StructureMatrix, field: str | None = None, *,
             tol: float = DEFAULT_TOL) -> AlgebraClass:
    """Canonical class of a 2-dimensional evolution algebra."""
    return classify_with_witness(A, field, tol=tol)[0]


def classify_with_witness(A: StructureMatrix, field: str | None = None, *,
                          tol: float = DEFAULT_TOL):
    """Classify and also return the basis-change witness (None for the exact
    E0 decision, which needs no basis change)."""
    if A.dim != 2:
        raise DimensionMismatchError(f"classification supports dimension 2 only, got {A.dim}")
    check_tolerance(tol)
    field = field or A.field
    if (field == REAL and A.field != REAL
            and any(z.imag != 0 for row in A.entries for z in row)):
        raise ValueError("cannot classify a genuinely complex matrix in real mode")
    if A.field != field:
        A = StructureMatrix(A.entries, field)

    try:  # an entry modulus, invariant or closed form that over- or underflows
        m = A.maxabs()
        if m <= tol:
            return _PLAIN_CLASSES[field, "E0"], None
        shape = is_E4_shape(A, tol)
        if shape.matches:
            return _PLAIN_CLASSES[field, "E4"], _e4_witness(shape)
        rank = 2 if abs(_det2(A.entries)) > tol * m * m else 1
        candidates = _rank2_candidates if rank == 2 else _rank1_candidates
        for tag, params, B, start, unit in candidates(A, field, tol, m):
            try:
                witness = find_isomorphism(A, B, start)
            except OverflowError:  # a residual beyond float range is no witness
                continue
            if witness is not None:
                if unit != 1.0:  # column 1 back to the start as it was built
                    witness = BasisChange(_scale_column1(witness.entries, unit))
                if not params:
                    return _PLAIN_CLASSES[field, tag], witness
                if field == REAL:
                    params = tuple(p.real for p in params)
                return AlgebraClass(field, tag, params), witness
    except ArithmeticError:  # OverflowError, or ZeroDivisionError after an underflow
        raise UnclassifiableError("the input is beyond the range of float arithmetic") from None
    raise UnclassifiableError(
        f"no rank-{rank} canonical form matched its closed-form witness; "
        "the input is numerically degenerate" + (" (e.g. 1 - a2*a3 near 0)" if rank == 2 else ""))


# the answers without parameters, and the canonical matrices of the rank-1
# classes, built once
_PLAIN_CLASSES = {(field, tag): AlgebraClass(field, tag)
                  for field, tags in _N_PARAMS.items() for tag, n in tags.items() if n == 0}
_RANK1_TARGETS = {(field, tag): StructureMatrix(canonical_rows(field, tag), field)
                  for field in (COMPLEX, REAL) for tag in ("E1", "E2", "E3")}
_RANK1_TARGETS[REAL, "E5"] = StructureMatrix(canonical_rows(REAL, "E5"), REAL)


def _rank1_candidates(A, field, tol, scale):
    """(tag, (), B, start, unit) for the rank-1 forms, B the canonical
    matrix, in the order kappa and lam1*lam2 give them; each start is built
    only once the ones before it have failed.  scale is max |a_ij|.  A
    witness is reported with its column 1 times unit."""
    w, lam = _rank1_data(A, tol * scale)
    kappa = w[0] * w[0] * lam[0] + w[1] * w[1] * lam[1]
    ll = lam[0] * lam[1]
    if abs(kappa) <= tol * scale * scale:
        order = ("E3", "E2", "E5", "E1")
    elif abs(ll) <= tol:
        order = ("E1", "E2", "E5", "E3")
    elif ll.real > 0:
        order = ("E2", "E5", "E1", "E3")
    else:
        order = ("E5", "E2", "E1", "E3")
    for tag in order:
        if tag == "E1":
            start = _start_E1(w, lam, kappa, tol)
        elif tag == "E2":
            start = _start_E2(w, lam, kappa, field == REAL)
        elif tag == "E3":
            start = _start_E3(w, lam)
        elif field == REAL:  # the real E5, with lam1*lam2 < 0
            start = _start_E5_real(w, lam, kappa)
        else:
            continue
        if start is not None:
            yield tag, (), _RANK1_TARGETS[field, tag], start, 1.0
            k = math.ldexp(1.0, math.frexp(scale)[1]) if tag == "E1" else 1.0
            if k != 1.0:
                # E1's automorphisms rescale f2 freely: f2 = e_z / 2^e puts the
                # start at the input's scale for _accepts; reported as built
                yield tag, (), _RANK1_TARGETS[field, tag], _scale_column1(start, k), 1 / k


def _scale_column1(t, k):
    """t with column 1 times the power of two k: exact, signed zeros too."""
    return tuple((t0, complex(t1.real * k, t1.imag * k)) for t0, t1 in t)


def _rank2_candidates(A, field, tol, scale):
    """(tag, params, B, start, 1.0) for each parameter equivalent of a
    rank-2 matrix, the lexicographically smallest parameters first, B the
    canonical matrix of the class.  The witness is checked against B, so it
    verifies the closed-form parameters themselves.  Parameters that name no class
    (non-finite, or 1 - xy = 0) are skipped."""
    (a11, a12), (a21, a22) = A.entries
    eps = tol * scale
    if abs(a11) > eps and abs(a22) > eps:
        tag = "E5" if field == COMPLEX else "E6"
        x = a12 * a22 / (a11 * a11)
        y = a21 * a11 / (a22 * a22)
        reps = [((x, y), ((a11, 0j), (0j, a22))), ((y, x), ((0j, a11), (a22, 0j)))]
    else:
        tag = "E6" if field == COMPLEX else "E7"
        # the zero diagonal entry is a11, or a22 once the basis is swapped
        swap = abs(a11) > eps
        p, q, diag = (a21, a12, a11) if swap else (a12, a21, a22)
        reps = []
        for d1 in _cube_roots(1.0 / (p * p * q), field):
            d2 = d1 * d1 * p
            inv = _inv2(((0j, d1), (d2, 0j)) if swap else ((d1, 0j), (0j, d2)))
            if inv:
                reps.append(((d2 * diag,), inv))
    key = lambda rep: tuple(v for z in rep[0] for v in _lex_key(z))
    for params, start in sorted(reps, key=key):
        try:
            _check_params(field, tag, params)
            B = StructureMatrix(canonical_rows(field, tag, params), field)
        except ValueError:  # the parameters name no class
            continue
        yield tag, params, B, start, 1.0


def _cube_roots(z: complex, field: str):
    if field == REAL:
        r = z.real
        return [complex(math.copysign(abs(r) ** (1.0 / 3.0), r))]
    principal = z ** (1.0 / 3.0)
    return [principal, principal * _OMEGA, principal * _OMEGA * _OMEGA]


# --- batched tags ------------------------------------------------------------

TAG_BLOCK = 1024  # matrices per array pass of classify_tags
# outside this range of max |a_ij| powers of the entries under- or overflow
_TAG_SCALES = (1e-60, 1e60)
# a rank-1 matrix is tagged only where its smaller live entry is at least this
# fraction of its larger one; classify's closed-form witness fails only far
# below it, where a22 is the smaller entry (from about 2^-19 with a zero row,
# 2^-36 with a zero column)
_TAG_RATIO = 2.0 ** -16


def classify_tags(entries, tol: float = DEFAULT_TOL) -> list:
    """The complex-mode class tag of each matrix of a stack of shape
    (n, 2, 2), or None where it is not decided here; callers send those to
    `classify`.

    Only real matrices of the chain shapes are decided: the zero matrix, and
    a11 = 0 with a zero a12, a21 or a22.  On real entries classify's complex
    arithmetic is plain float arithmetic, so the batch replays it, TAG_BLOCK
    matrices at a time: the zero test, the E4 shape, the rank-1
    factorization row_i = lam_i * w with its defect, and the kappa and
    lam1*lam2 tests that put E1 or E2 first.  Only the witness check is not
    replayed; _TAG_RATIO and _TAG_SCALES keep the decided matrices where it
    passes.  Any other matrix is left undecided.
    """
    check_tolerance(tol)
    A = np.asarray(entries).reshape(-1, 2, 2)
    tags = np.full(len(A), None, dtype=object)
    with np.errstate(all="ignore"):
        for k in range(0, len(A), TAG_BLOCK):
            tags[k:k + TAG_BLOCK] = _chain_tags(np.asarray(A[k:k + TAG_BLOCK], dtype=complex), tol)
    return tags.tolist()


def _chain_tags(A, tol):
    """classify_tags on one block, a complex array of shape (n, 2, 2)."""
    tags = np.full(len(A), None, dtype=object)
    ok = np.isfinite(A).all(axis=(1, 2)) & (A.imag == 0).all(axis=(1, 2))
    (a, b), (c, d) = A.real.transpose(1, 2, 0)
    m = np.abs(A.real).max(axis=(1, 2))
    tags[ok & (m <= tol)] = "E0"
    ok &= (m > tol) & (m >= _TAG_SCALES[0]) & (m <= _TAG_SCALES[1]) & (a == 0)
    e4 = (d == 0) & ((b == 0) | (c == 0))
    tags[ok & e4] = "E4"
    ok &= d != 0
    # a zero first row: w = (c, d), lam = (0, 1), so kappa = d*d, lam1*lam2 = 0
    # and E1 comes first
    e1 = ok & (b == 0) & (d * d > tol * m * m) & (np.abs(d) >= _TAG_RATIO * m)
    tags[e1] = "E1"
    # a zero first column: w is the row with the larger entry, and the other
    # row is ll * w; E2 comes first once kappa and ll are clear of tol
    first = np.abs(b) >= np.abs(d)
    big, small = np.where(first, b, d), np.where(first, d, b)
    ll = small / big
    kappa = np.where(first, b * b * ll, d * d)
    e2 = (ok & (c == 0) & (b != 0) & (np.abs(small - ll * big) <= tol * m)
          & (np.abs(kappa) > tol * m * m) & (np.abs(ll) > tol) & (np.abs(ll) >= _TAG_RATIO))
    tags[e2] = "E2"
    return tags
