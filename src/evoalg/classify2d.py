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
One generator per rank yields these candidates (tag, params, start) in
order, and one loop in classify_with_witness passes each to
find_isomorphism, the one check-and-polish step: the start is accepted as a
witness as it stands, or after a single Levenberg-Marquardt polish from it.
No other start is tried, so an input whose closed-form witnesses all fail is
unclassifiable, as is one whose arithmetic leaves the float range.  The reported
parameters are the closed-form ones the witness was checked against.
Witnesses are invertible basis changes with a quantified homomorphism
residual.  Since the classification is a complete invariant, find_isomorphism
between two arbitrary algebras composes their witnesses.

classify_tags runs the same complex-mode decisions on a stack of matrices
as numpy arrays and returns only the tags; it leaves every matrix it cannot decide
with a clear margin to `classify`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import COMPLEX, REAL, DimensionMismatchError, EvoalgError, StructureMatrix
from .numerics import complex_jacobian_to_real, levenberg_marquardt

DEFAULT_TOL = 1e-9           # absolute tolerance of exact-zero structural tests
ISO_TOL = 1e-18              # acceptance bound on the squared homomorphism residual
DET_TOL = 1e-12              # basis changes closer than this to singular are rejected

_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # primitive cube root of unity


class UnclassifiableError(EvoalgError):
    """No candidate canonical form matched within the search budget."""


@dataclass(frozen=True)
class AlgebraClass:
    """Canonical-form label: field mode, tag E0..E7, continuous parameters."""

    field: str
    tag: str
    params: tuple[complex, ...] = ()

    def __post_init__(self):
        tags = ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7")
        limit = 8 if self.field == REAL else 7
        if self.field not in (REAL, COMPLEX) or self.tag not in tags[:limit]:
            raise ValueError(f"invalid class {self.tag!r} for field {self.field!r}")
        object.__setattr__(self, "params", tuple(complex(p) for p in self.params))
        if len(self.params) != n_params(self.field, self.tag):
            raise ValueError(
                f"{self.tag} ({self.field}) takes {n_params(self.field, self.tag)} "
                f"parameters, got {len(self.params)}"
            )
        # [[1, p0], [p1, 1]] has determinant 1 - p0*p1; at 0 it is not rank 2
        if (self.tag == ("E5" if self.field == COMPLEX else "E6")
                and 1 - self.params[0] * self.params[1] == 0):
            raise ValueError(f"{self.label()} ({self.field}) is degenerate: 1 - p0*p1 = 0")

    def label(self) -> str:
        if not self.params:
            return self.tag
        return f"{self.tag}({', '.join(_fmt_scalar(p) for p in self.params)})"


def n_params(field: str, tag: str) -> int:
    if field == REAL:
        return {"E6": 2, "E7": 1}.get(tag, 0)
    return {"E5": 2, "E6": 1}.get(tag, 0)


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
        rows = tuple(tuple(complex(z) for z in r) for r in self.entries)
        object.__setattr__(self, "entries", rows)
        # relative to the products that make up det, so the test does not
        # depend on scale; a NaN determinant fails it too
        (a, b), (c, d) = rows
        if not abs(self.det) > DET_TOL * (abs(a * d) + abs(b * c)):
            raise ValueError(f"basis change is singular within relative {DET_TOL}: det={self.det}")

    @property
    def det(self) -> complex:
        return _det2(self.entries)

    def inverse(self) -> "BasisChange":
        return BasisChange(_inv2(self.entries))


@dataclass(frozen=True)
class E4Shape:
    matches: bool
    variant: str | None = None  # "upper" for [[0,b],[0,0]], "lower" for [[0,0],[c,0]]
    entry: complex | None = None


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
    return E4Shape(False)


def rescale_permute(A: StructureMatrix, scales, perm=(0, 1)) -> StructureMatrix:
    """Structure matrix after the natural-basis change e'_i = d_i e_perm(i).

    New constants: a'_ij = d_i^2 a_{perm(i) perm(j)} / d_j.
    """
    d = tuple(complex(z) for z in scales)
    if any(z == 0 for z in d):
        raise ValueError("scales must be nonzero")
    n = A.dim
    rows = [
        tuple(d[i] ** 2 * A.entries[perm[i]][perm[j]] / d[j] for j in range(n))
        for i in range(n)
    ]
    return StructureMatrix.from_rows(rows, A.field)


# --- homomorphism residual ----------------------------------------------------


def _hom_components(a, b, t) -> list[complex]:
    """The six complex components g(e_i e_j) - g(e_i) *_B g(e_j) over pairs
    (1,1), (2,2), (1,2), where g maps A's basis by the rows of T; a, b and t
    are the entry rows of A, B and T (scalars, or arrays of lanes)."""
    out = []
    for i in (0, 1):
        for k in (0, 1):
            img = a[i][0] * t[0][k] + a[i][1] * t[1][k]
            prod = t[i][0] * t[i][0] * b[0][k] + t[i][1] * t[i][1] * b[1][k]
            out.append(img - prod)
    for k in (0, 1):
        out.append(-(t[0][0] * t[1][0] * b[0][k] + t[0][1] * t[1][1] * b[1][k]))
    return out


def homomorphism_residual(A: StructureMatrix, B: StructureMatrix, T) -> float:
    """Sum over basis pairs i <= j of |g(e_i e_j) - g(e_i) g(e_j)|^2."""
    entries = T.entries if isinstance(T, BasisChange) else T
    return sum(abs(z) ** 2 for z in _hom_components(A.entries, B.entries, entries))


def _det2(t) -> complex:
    return t[0][0] * t[1][1] - t[0][1] * t[1][0]


def _inv2(t):
    d = _det2(t)
    if d == 0:
        return None
    return _inv_rows(t, d)


def _inv_rows(t, d):
    """adj(t) / d: the inverse of t when d is its determinant; on arrays too."""
    return ((t[1][1] / d, -t[0][1] / d), (-t[1][0] / d, t[0][0] / d))


def _mul2(s, t):
    return tuple(tuple(s[i][0] * t[0][k] + s[i][1] * t[1][k] for k in (0, 1))
                 for i in (0, 1))


# --- isomorphism check and polish --------------------------------------------


def _pack(T, complex_mode: bool) -> np.ndarray:
    # complex128 viewed as float64 interleaves (re, im); real mode keeps re
    x = np.array(T, dtype=complex).reshape(4)
    return x.view(float) if complex_mode else x.real


def _unpack(x: np.ndarray, complex_mode: bool):
    z = (x.view(complex) if complex_mode else x.astype(complex)).tolist()
    return ((z[0], z[1]), (z[2], z[3]))


# The real-mode arrays are contiguous copies: numpy's matmul takes another
# summation order on a strided view, and the polish would change its bits.
def _residual_vec(A, B, T, complex_mode: bool) -> np.ndarray:
    r = np.array(_hom_components(A.entries, B.entries, T))
    return r.view(float) if complex_mode else r.real.copy()


def _jacobian_vec(A, B, T, complex_mode: bool) -> np.ndarray:
    J = _jac_complex(A, B, T)
    return complex_jacobian_to_real(J) if complex_mode else J.real.copy()


def _jac_complex(A, B, T) -> np.ndarray:
    """d(component)/d(T_pq) as a 6x4 complex matrix; components ordered as in
    _hom_components, unknowns ordered T00, T01, T10, T11."""
    a, b, t = A.entries, B.entries, T
    J = np.zeros((6, 4), dtype=complex)
    row = 0
    for i in (0, 1):
        for k in (0, 1):
            for p in (0, 1):
                for q in (0, 1):
                    col = 2 * p + q
                    val = 0j
                    if q == k:
                        val += a[i][p]
                    if p == i:
                        val -= 2.0 * t[i][q] * b[q][k]
                    J[row, col] = val
            row += 1
    for k in (0, 1):
        for q in (0, 1):
            J[row, 0 * 2 + q] = -t[1][q] * b[q][k]
            J[row, 1 * 2 + q] = -t[0][q] * b[q][k]
        row += 1
    return J


def find_isomorphism(A: StructureMatrix, B: StructureMatrix, start=None):
    """An algebra isomorphism from A onto B, or None.

    With a start (a 2x2 basis change, row i the image of e_i), the start is
    accepted as it stands when it passes the witness check; otherwise one
    Levenberg-Marquardt polish runs from it and the result is checked again.
    The polish minimizes the homomorphism residual alone; the check's
    determinant test rejects a result that ends near a singular map.
    Without a start, A and B are classified with their witnesses, and the
    classification is a complete invariant: different tags give None, and the
    start is T_A * T_B^-1 (the identity when both are E0).  An input that is
    unclassifiable raises UnclassifiableError rather than claiming that no
    isomorphism exists.  A returned BasisChange has homomorphism residual
    (sum of squared coordinates over basis pairs) below ISO_TOL.
    """
    if A.dim != 2 or B.dim != 2:
        raise DimensionMismatchError("isomorphism search supports dimension 2 only")
    if A.field != B.field:
        raise ValueError(f"field modes differ: {A.field} vs {B.field}")
    complex_mode = A.field == COMPLEX
    if start is None:
        cls_a, w_a = classify_with_witness(A)
        cls_b, w_b = classify_with_witness(B)
        if cls_a.tag != cls_b.tag:
            return None
        start = ((1, 0), (0, 1))
        if cls_a.tag != "E0":  # T_A adj(T_B) / det(T_B): exactly I when A == B
            (p, q), (r, s) = w_b.entries
            start = tuple(tuple(z / (p * s - q * r) for z in row)
                          for row in _mul2(w_a.entries, ((s, -q), (-r, p))))

    x0 = _pack(start, complex_mode)
    T = _unpack(x0, complex_mode)
    if _accepts(A, B, T):
        return BasisChange(T)
    with np.errstate(all="ignore"):  # a polish that overflows is rejected below
        x, _, _ = levenberg_marquardt(
            lambda x: _residual_vec(A, B, _unpack(x, complex_mode), complex_mode),
            lambda x: _jacobian_vec(A, B, _unpack(x, complex_mode), complex_mode),
            x0, stop_norm=math.sqrt(ISO_TOL / 12.0) * 0.5)
    T = _unpack(x, complex_mode)
    return BasisChange(T) if _accepts(A, B, T) else None


INV_TOL = 1e-9  # residual bound on the inverse witness


def _accepts(A, B, T) -> bool:
    # A near-singular T can sit within ISO_TOL of a genuine but non-invertible
    # homomorphism; demanding that the inverse map is a homomorphism as well
    # rejects those (its residual blows up as 1/det).  A determinant that
    # overflowed is refused as well, since BasisChange would refuse it.
    d = _det2(T)
    if not cmath.isfinite(d) or abs(d) <= DET_TOL or homomorphism_residual(A, B, T) >= ISO_TOL:
        return False
    return homomorphism_residual(B, A, _inv2(T)) < INV_TOL


# --- rank-1 invariants and closed-form starting points -------------------------


def _rank1_data(A: StructureMatrix, eps: float):
    """Write row_i = lam_i * w for a rank-1 matrix; returns (w, lam).  eps
    bounds the defect of the factorization (tol times the entry scale)."""
    r = A.entries
    norms = [max(abs(z) for z in row) for row in r]
    p = 0 if norms[0] >= norms[1] else 1
    q = 1 - p
    w = r[p]
    j = 0 if abs(w[0]) >= abs(w[1]) else 1
    lam = [0j, 0j]
    lam[p] = 1.0 + 0j
    lam[q] = r[q][j] / w[j]
    err = max(abs(r[q][k] - lam[q] * w[k]) for k in (0, 1))
    if err > eps:
        raise UnclassifiableError(
            f"rows are not proportional within tolerance (defect {err:.3g}); "
            "the input sits near the rank boundary"
        )
    return w, (lam[0], lam[1])


def _safe_inv_start(S):
    """The inverse of the closed-form basis S as a start, or None when S is
    nearly singular or a closed form overflowed: a NaN determinant passes
    `abs(d) < 1e-150`, so finiteness is tested on its own."""
    d = _det2(S)
    if not cmath.isfinite(d) or abs(d) < 1e-150:
        return None
    inv = _inv2(S)
    return inv if all(cmath.isfinite(z) for row in inv for z in row) else None


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
    inv = _inv2(S)
    return BasisChange(inv) if inv is not None else None


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
    if not tol >= 0:  # NaN fails this too
        raise ValueError(f"tolerance must be non-negative, got {tol!r}")
    field = field or A.field
    if field == REAL and any(z.imag != 0 for row in A.entries for z in row):
        raise ValueError("cannot classify a genuinely complex matrix in real mode")
    if A.field != field:
        A = StructureMatrix(A.entries, field)

    try:  # an entry modulus, invariant or closed form that over- or underflows
        m = A.maxabs()
        if m <= tol:
            return AlgebraClass(field, "E0"), None
        shape = is_E4_shape(A, tol)
        if shape.matches:
            return AlgebraClass(field, "E4"), _e4_witness(shape)
        scale = max(1.0, m)
        rank = 2 if abs(_det2(A.entries)) > tol * scale * scale else 1
        candidates = _rank2_candidates if rank == 2 else _rank1_candidates
        for tag, params, start in candidates(A, field, tol, scale):
            try:
                B = canonical_matrix(AlgebraClass(field, tag, params))
            except ValueError:  # 1 - xy = 0: no rank-2 class to verify
                continue
            try:
                witness = find_isomorphism(A, B, start)
            except OverflowError:  # a residual beyond float range is no witness
                continue
            if witness is not None:
                if field == REAL:
                    params = tuple(p.real for p in params)
                return AlgebraClass(field, tag, params), witness
    except ArithmeticError:  # OverflowError, or ZeroDivisionError after an underflow
        raise UnclassifiableError("the input is beyond the range of float arithmetic") from None
    raise UnclassifiableError(
        f"no rank-{rank} canonical form matched its closed-form witness; "
        "the input is numerically degenerate" + (" (e.g. 1 - a2*a3 near 0)" if rank == 2 else ""))


def _rank1_candidates(A, field, tol, scale):
    """(tag, (), start) for the rank-1 forms, in the order kappa and
    lam1*lam2 give them; each start is built only once the ones before it
    have failed."""
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
    builders = {
        "E1": lambda: _start_E1(w, lam, kappa, tol),
        "E2": lambda: _start_E2(w, lam, kappa, field == REAL),
        "E3": lambda: _start_E3(w, lam),
        "E5": lambda: _start_E5_real(w, lam, kappa),
    }
    for tag in order:
        if tag == "E5" and field == COMPLEX:  # the real form with lam1*lam2 < 0
            continue
        start = builders[tag]()
        if start is not None:
            yield tag, (), start


def _rank2_candidates(A, field, tol, scale):
    """(tag, params, start) for each parameter equivalent of a rank-2 matrix,
    the lexicographically smallest parameters first.  The witness is checked
    against B(params), so it verifies the closed-form parameters themselves."""
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
        yield tag, params, start


def _cube_roots(z: complex, field: str):
    if field == REAL:
        r = z.real
        return [complex(math.copysign(abs(r) ** (1.0 / 3.0), r))]
    principal = z ** (1.0 / 3.0)
    return [principal, principal * _OMEGA, principal * _OMEGA * _OMEGA]


# --- batched tags ------------------------------------------------------------

TAG_BLOCK = 1024   # matrices per array pass of classify_tags
TAG_MARGIN = 1e-3  # relative clearance every threshold test of classify_tags needs
# the gap between numpy's and Python's evaluation of one short formula is
# below _ROUND times the sum of the magnitudes of its terms
_ROUND = 64 * np.finfo(float).eps
# outside this range of max |a_ij| powers of the entries under- or overflow
_TAG_SCALES = (1e-60, 1e60)


def _below(q, bound, terms=0.0):
    """q <= bound holds for the scalar evaluation as well."""
    return q + _ROUND * terms <= bound * (1 - TAG_MARGIN)


def _above(q, bound, terms=0.0):
    """q > bound holds for the scalar evaluation as well."""
    return q - _ROUND * terms > bound * (1 + TAG_MARGIN)


def _apart(x, y):
    """x >= y (x, y >= 0) has the same outcome for the scalar evaluation."""
    return np.abs(x - y) > _ROUND * (x + y)


def _residual_below(a, b, t, bound, gap):
    """homomorphism_residual < bound holds for the scalar evaluation as well,
    when each entry of t is off by at most _ROUND * gap relative to its size.
    Each component is then off by at most _ROUND * gap times the magnitudes
    of its terms, which the kernel adds up when it runs on |a|, -|b|, |t|."""
    size = lambda rows, sign=1.0: tuple(tuple(sign * abs(z) for z in row) for row in rows)
    terms = _hom_components(size(a), size(b, -1.0), size(t))
    bound_sq = sum((abs(z) + _ROUND * gap * e) ** 2
                   for z, e in zip(_hom_components(a, b, t), terms))
    return _below(bound_sq, bound)


def classify_tags(entries, tol: float = DEFAULT_TOL) -> list:
    """The complex-mode class tag of each matrix of a stack of shape
    (n, 2, 2), or None where the batched tests cannot decide it; callers send
    those to `classify`.

    The tests run in classify_with_witness's order on numpy arrays, TAG_BLOCK
    matrices at a time: the zero test, the E4 shape, the rank, the rank-1
    factorization row_i = lam_i * w, the kappa and lam1*lam2 order of the
    candidates, and the first candidate's closed-form start, which must pass
    `_accepts` as it stands.  A matrix is decided only where every test clears
    its bound by the relative margin TAG_MARGIN beyond the rounding gap
    between numpy and Python arithmetic, and every value is finite, so a
    decided tag is the tag `classify` returns.  Rank 2, a first candidate
    other than E1 or E2, a start that would need the polish and every near tie
    are left undecided.
    """
    if not tol >= 0:  # NaN fails this too
        raise ValueError(f"tolerance must be non-negative, got {tol!r}")
    A = np.asarray(entries, dtype=complex).reshape(-1, 2, 2)
    tags = np.full(len(A), None, dtype=object)
    with np.errstate(all="ignore"):
        for k in range(0, len(A), TAG_BLOCK):
            block = A[k:k + TAG_BLOCK]
            m = np.abs(block).max(axis=(1, 2))
            ok = np.isfinite(block).all(axis=(1, 2))
            tags[k + np.flatnonzero(ok & _below(m, tol))] = "E0"
            ok &= _above(m, tol) & (m >= _TAG_SCALES[0]) & (m <= _TAG_SCALES[1])
            (a, b), (c, d) = block[:, 0].T, block[:, 1].T
            e4 = (a == 0) & (d == 0) & ((c == 0) | (b == 0))
            tags[k + np.flatnonzero(ok & e4)] = "E4"
            lanes = np.flatnonzero(ok & ~e4)
            if len(lanes):
                tags[k + lanes] = _rank1_tags(block[lanes], m[lanes], tol)
    return tags.tolist()


def _rank1_tags(A, m, tol):
    """classify_tags past the zero and E4 tests: "E1", "E2" or None."""
    tags = np.full(len(A), None, dtype=object)
    rows = ((A[:, 0, 0], A[:, 0, 1]), (A[:, 1, 0], A[:, 1, 1]))
    (a, b), (c, d) = rows
    absA = np.abs(A)
    scale = np.maximum(1.0, m)

    # rank 1, written row_i = lam_i * w (_rank1_data)
    ad, bc = a * d, b * c
    ok = _below(np.abs(ad - bc), tol * scale * scale, np.abs(ad) + np.abs(bc))
    norms = absA.max(axis=2)
    ok &= _apart(norms[:, 0], norms[:, 1])
    p = (norms[:, 0] < norms[:, 1]).astype(int)
    lanes = np.arange(len(A))
    w, r_q = A[lanes, p], A[lanes, 1 - p]
    ok &= _apart(absA[lanes, p, 0], absA[lanes, p, 1])
    j = (absA[lanes, p, 0] < absA[lanes, p, 1]).astype(int)
    lam_q = r_q[lanes, j] / w[lanes, j]
    fit = lam_q[:, None] * w
    ok &= _below(np.abs(r_q - fit), (tol * scale)[:, None],
                 np.abs(r_q) + np.abs(fit)).all(axis=1)
    lam = (np.where(p == 0, 1.0 + 0j, lam_q), np.where(p == 0, lam_q, 1.0 + 0j))
    w = (w[:, 0], w[:, 1])

    # the candidate order (_rank1_candidates); E3 first is left undecided
    k0, k1 = w[0] * w[0] * lam[0], w[1] * w[1] * lam[1]
    kappa = k0 + k1
    ll = lam[0] * lam[1]
    ok &= _above(np.abs(kappa), tol * scale * scale, np.abs(k0) + np.abs(k1))
    e1 = _below(np.abs(ll), tol, np.abs(ll))
    ok &= e1 | _above(np.abs(ll), tol, np.abs(ll))

    # the first candidate's start: _start_E1 or _start_E2, then _safe_inv_start
    absl = (np.abs(lam[0]), np.abs(lam[1]))
    z = absl[0] > absl[1]
    ok &= ~e1 | (_apart(absl[0], absl[1]) & _below(np.where(z, absl[1], absl[0]), tol))
    u = (w[0] / kappa, w[1] / kappa)
    mu = 1.0 / (kappa * np.sqrt(ll))
    v = (np.where(e1, (~z).astype(float), mu * w[1] * lam[1]),
         np.where(e1, z.astype(float), -mu * w[0] * lam[0]))
    S = (u, v)
    sp, sq = S[0][0] * S[1][1], S[0][1] * S[1][0]
    ok &= _above(np.abs(sp - sq), 1e-150, np.abs(sp) + np.abs(sq))
    T = _inv_rows(S, sp - sq)
    ok &= np.all([np.isfinite(z) for row in T for z in row], axis=0)
    # the entries of T, and of its inverse, are off from the scalar ones by
    # at most _ROUND * gap relative to their size: the sum kappa = k0 + k1
    # amplifies the gap of lam by its condition (|k0| + |k1|) / |kappa|,
    # which u = w / kappa and mu pass on to S, and inverting S amplifies the
    # gap of S's entries by the condition (|sp| + |sq|) / |det S|
    cond_kappa = np.maximum(1.0, (np.abs(k0) + np.abs(k1)) / np.abs(kappa))
    gap = 4.0 * cond_kappa * (1.0 + (np.abs(sp) + np.abs(sq)) / np.abs(sp - sq))

    # _accepts(A, B, T) for B the canonical E1 or E2
    B = ((1.0, 0.0), (np.where(e1, 0.0, 1.0), 0.0))
    tp, tq = T[0][0] * T[1][1], T[0][1] * T[1][0]
    ok &= _above(np.abs(tp - tq), DET_TOL, gap * (np.abs(tp) + np.abs(tq)))
    ok &= _residual_below(rows, B, T, ISO_TOL, gap)
    ok &= _residual_below(B, rows, _inv_rows(T, tp - tq), INV_TOL, gap)
    tags[ok & e1] = "E1"
    tags[ok & ~e1] = "E2"
    return tags
