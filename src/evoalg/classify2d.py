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
Each closed-form basis change goes through find_isomorphism, the one
check-and-polish step: it is accepted as a witness as it stands, or after a
single Levenberg-Marquardt polish from it.  No other start is tried, so an
input whose closed-form witnesses all fail is unclassifiable.  The reported
parameters are the closed-form ones the witness was checked against.
Witnesses are invertible basis changes with a quantified homomorphism
residual.  Since the classification is a complete invariant, find_isomorphism
between two arbitrary algebras composes their witnesses.
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
        if abs(self.det) <= DET_TOL:
            raise ValueError(f"basis change is singular within {DET_TOL}: det={self.det}")

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


def _hom_components(A: StructureMatrix, B: StructureMatrix, T) -> list[complex]:
    """The six complex components g(e_i e_j) - g(e_i) *_B g(e_j) over pairs
    (1,1), (2,2), (1,2), where g maps A's basis by the rows of T."""
    a = A.entries
    b = B.entries
    t = T
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
    return sum(abs(z) ** 2 for z in _hom_components(A, B, entries))


def _det2(t) -> complex:
    return t[0][0] * t[1][1] - t[0][1] * t[1][0]


def _inv2(t):
    d = _det2(t)
    if d == 0:
        return None
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
    r = np.array(_hom_components(A, B, T))
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
    # rejects those (its residual blows up as 1/det).
    if abs(_det2(T)) <= DET_TOL or homomorphism_residual(A, B, T) >= ISO_TOL:
        return False
    return homomorphism_residual(B, A, _inv2(T)) < INV_TOL


# --- rank-1 invariants and closed-form starting points -------------------------


def _rank1_data(A: StructureMatrix, tol: float):
    """Write row_i = lam_i * w for a rank-1 matrix; returns (w, lam)."""
    r = A.entries
    scale = max(1.0, A.maxabs())
    norms = [max(abs(z) for z in row) for row in r]
    p = 0 if norms[0] >= norms[1] else 1
    q = 1 - p
    w = r[p]
    j = 0 if abs(w[0]) >= abs(w[1]) else 1
    lam = [0j, 0j]
    lam[p] = 1.0 + 0j
    lam[q] = r[q][j] / w[j]
    err = max(abs(r[q][k] - lam[q] * w[k]) for k in (0, 1))
    if err > tol * scale:
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


def _e4_witness(A: StructureMatrix, shape: E4Shape):
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

    if A.maxabs() <= tol:
        return AlgebraClass(field, "E0"), None
    shape = is_E4_shape(A, tol)
    if shape.matches:
        return AlgebraClass(field, "E4"), _e4_witness(A, shape)

    scale = max(1.0, A.maxabs())
    det = _det2(A.entries)
    if abs(det) > tol * scale * scale:
        return _classify_rank2(A, field, tol)
    return _classify_rank1(A, field, tol)


def _classify_rank1(A, field, tol):
    w, lam = _rank1_data(A, tol)
    scale = max(1.0, A.maxabs())
    kappa = w[0] * w[0] * lam[0] + w[1] * w[1] * lam[1]
    ll = lam[0] * lam[1]
    kappa_zero = abs(kappa) <= tol * scale * scale
    ll_zero = abs(ll) <= tol

    if kappa_zero:
        order = ["E3", "E2", "E5", "E1"]
    elif ll_zero:
        order = ["E1", "E2", "E5", "E3"]
    elif ll.real > 0:
        order = ["E2", "E5", "E1", "E3"]
    else:
        order = ["E5", "E2", "E1", "E3"]
    if field == COMPLEX:  # E5 is the real form with lam1*lam2 < 0
        order.remove("E5")

    builders = {
        "E1": lambda: _start_E1(w, lam, kappa, tol),
        "E2": lambda: _start_E2(w, lam, kappa, field == REAL),
        "E3": lambda: _start_E3(w, lam),
        "E5": lambda: _start_E5_real(w, lam, kappa),
    }
    for tag in order:
        start = builders[tag]()
        if start is None:
            continue
        B = canonical_matrix(AlgebraClass(field, tag))
        witness = find_isomorphism(A, B, start)
        if witness is not None:
            return AlgebraClass(field, tag), witness
    raise UnclassifiableError(
        "no rank-1 canonical form matched its closed-form witness; "
        "the input is numerically degenerate"
    )


def _finish_rank2(A, field, tag, reps):
    """reps: list of (params, start_T) candidates covering the parameter
    equivalences; tries the lexicographically smallest representative first.
    The witness is polished onto B(params), so it verifies the closed-form
    parameters themselves."""
    key = lambda item: tuple(v for p in item[0] for v in _lex_key(p))
    for params, T0 in sorted(reps, key=key):
        try:
            B = canonical_matrix(AlgebraClass(field, tag, params))
        except ValueError:  # 1 - xy = 0: no rank-2 class to verify
            continue
        witness = find_isomorphism(A, B, T0)
        if witness is not None:
            if field == REAL:
                params = tuple(p.real for p in params)
            return AlgebraClass(field, tag, params), witness
    return None


def _classify_rank2(A, field, tol):
    (a11, a12), (a21, a22) = A.entries
    scale = max(1.0, A.maxabs())
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
    got = _finish_rank2(A, field, tag, reps)
    if got:
        return got
    raise UnclassifiableError(
        "no rank-2 canonical form matched its closed-form witness; "
        "the input is numerically degenerate (e.g. 1 - a2*a3 near 0)"
    )


def _cube_roots(z: complex, field: str):
    if field == REAL:
        r = z.real
        return [complex(math.copysign(abs(r) ** (1.0 / 3.0), r))]
    principal = z ** (1.0 / 3.0)
    return [principal, principal * _OMEGA, principal * _OMEGA * _OMEGA]
