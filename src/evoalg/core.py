"""Structure matrices, evolution-algebra products, and the Rota-Baxter residual.

An n-dimensional evolution algebra is determined by its matrix of structural
constants A = (a_ij): in the natural basis e_1..e_n the product is

    e_i * e_i = sum_k a_ik e_k        (row i of A)
    e_i * e_j = 0                     (i != j)

extended bilinearly, so (x*y)_k = sum_i x_i y_i a_ik.

A linear map P(e_i) = sum_j r_ij e_j (rows of R) is a Rota-Baxter operator
of weight lam when P(x)P(y) = P(x P(y) + P(x) y + lam x y) for all x, y.
`rb_components` expands LHS - RHS of that identity on all basis pairs.
"""

from __future__ import annotations

import cmath
import functools
import operator
import re
from dataclasses import dataclass

import numpy as np


class EvoalgError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(EvoalgError):
    pass


class MatrixFormatError(EvoalgError):
    """Raised when a matrix file or complex literal cannot be parsed."""


REAL = "real"
COMPLEX = "complex"


def check_tolerance(tol) -> None:
    """Raise ValueError unless 0 <= tol < inf: no other value (NaN neither) gives a verdict."""
    if not 0 <= tol < cmath.inf:
        raise ValueError(f"tolerance must be non-negative and finite, got {tol!r}")


def _check_finite(z: complex, what: str) -> None:
    if not (cmath.isfinite(z)):
        raise ValueError(f"non-finite {what}: {z!r}")


@dataclass(frozen=True)
class StructureMatrix:
    """n x n matrix of structural constants, fixed to a field mode."""

    entries: tuple[tuple[complex, ...], ...]
    field: str = COMPLEX

    def __post_init__(self):
        # one pass; a shape fault wins over a field fault, which wins over
        # the first faulty entry in row-major order
        n = len(self.entries)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        real = self.field == REAL
        fault = None if real or self.field == COMPLEX else f"unknown field mode {self.field!r}"
        rows = []
        for row in self.entries:
            if len(row) != n:
                raise ValueError("structure matrix must be square")
            row = tuple(map(complex, row))
            rows.append(row)
            if fault is None:
                for z in row:
                    if not cmath.isfinite(z):
                        fault = f"non-finite matrix entry: {z!r}"
                        break
                    if real and z.imag != 0.0:
                        fault = "real-mode matrix has a nonzero imaginary part"
                        break
        object.__setattr__(self, "entries", tuple(rows))
        if fault is not None:
            raise ValueError(fault)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def maxabs(self) -> float:
        return max(map(abs, sum(self.entries, ())))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.maxabs() <= tol

    @staticmethod
    def zero(n: int, field: str = COMPLEX) -> "StructureMatrix":
        return StructureMatrix(tuple(tuple(0.0 for _ in range(n)) for _ in range(n)), field)

    @staticmethod
    def from_rows(rows, field: str = COMPLEX) -> "StructureMatrix":
        return StructureMatrix(tuple(map(tuple, rows)), field)


@dataclass(frozen=True)
class AlgebraElement:
    """Coordinates of an algebra element in the natural basis."""

    coords: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(complex(z) for z in self.coords))
        for z in self.coords:
            _check_finite(z, "coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def basis(i: int, n: int) -> "AlgebraElement":
        return AlgebraElement(tuple(1.0 if k == i else 0.0 for k in range(n)))

    @staticmethod
    def zero(n: int) -> "AlgebraElement":
        return AlgebraElement((0.0,) * n)

    def maxabs(self) -> float:
        return max(abs(z) for z in self.coords) if self.coords else 0.0


@dataclass(frozen=True)
class RotaBaxterOperator:
    """Linear operator P(e_i) = sum_j r_ij e_j with weight 0 or 1."""

    entries: tuple[tuple[complex, ...], ...]
    weight: int

    def __post_init__(self):
        n = len(self.entries)
        rows = []
        for row in self.entries:
            if len(row) != n:
                raise ValueError("operator matrix must be square")
            rows.append(tuple(complex(z) for z in row))
        object.__setattr__(self, "entries", tuple(rows))
        for row in self.entries:
            for z in row:
                _check_finite(z, "operator entry")
        if self.weight not in (0, 1):
            raise ValueError("weight must be 0 or 1")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows, weight: int) -> "RotaBaxterOperator":
        return RotaBaxterOperator(tuple(tuple(row) for row in rows), weight)


def multiply(A: StructureMatrix, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Evolution-algebra product of x and y under structure matrix A.

    Summation runs over i ascending so the result is bit-identical under
    swapping x and y.
    """
    n = A.dim
    if x.dim != n or y.dim != n:
        raise DimensionMismatchError(
            f"element dims {x.dim},{y.dim} do not match algebra dim {n}"
        )
    out = [0j] * n
    for i in range(n):
        c = x.coords[i] * y.coords[i]
        if c == 0:
            continue
        row = A.entries[i]
        for k in range(n):
            out[k] += c * row[k]
    return AlgebraElement(tuple(out))


class ComplexLanes:
    """One complex number per lane, held as float64 arrays `re` and `im`.

    +, - and * apply CPython's complex formulas lane by lane, and a complex
    or real scalar operand acts on every lane.  A kernel written for complex
    scalars (rb_components, rb_jacobian_rows) therefore gives on lanes, bit
    for bit, what it gives one lane at a time.  numpy's complex128 product
    is not bit-identical to CPython's, hence the split arrays.  Like numpy
    arithmetic in general, lane arithmetic reports overflow through
    np.errstate, which CPython's complex arithmetic never does.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    @staticmethod
    def _parts(z):
        if isinstance(z, ComplexLanes):
            return z.re, z.im
        z = complex(z)
        return z.real, z.imag

    def __add__(self, other):
        ore, oim = self._parts(other)
        return ComplexLanes(self.re + ore, self.im + oim)

    __radd__ = __add__  # IEEE addition commutes bit for bit

    def __sub__(self, other):
        ore, oim = self._parts(other)
        return ComplexLanes(self.re - ore, self.im - oim)

    def __rsub__(self, other):
        ore, oim = self._parts(other)
        return ComplexLanes(ore - self.re, oim - self.im)

    def __mul__(self, other):
        ore, oim = self._parts(other)
        return ComplexLanes(self.re * ore - self.im * oim, self.re * oim + self.im * ore)

    __rmul__ = __mul__  # the products and the sum of the imaginary part commute


def lanes_array(values, size: int) -> np.ndarray:
    """complex128 array of a list (or list of lists) of ComplexLanes and
    complex scalars over `size` lanes, lane axis first: entry [l, ...] is
    lane l of values[...]; a scalar fills every lane."""
    nested = isinstance(values[0], list)
    flat = [z for row in values for z in row] if nested else values
    out = np.empty((size, len(flat)), dtype=complex)
    for c, z in enumerate(flat):
        if isinstance(z, ComplexLanes):
            out.real[:, c] = z.re
            out.imag[:, c] = z.im
        else:
            out[:, c] = z
    return out.reshape(size, len(values), -1) if nested else out


@functools.cache
def rb_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Basis pairs i <= j in residual order: the diagonal pairs first, then
    the off-diagonal pairs in lexicographic order."""
    return tuple([(i, i) for i in range(n)]
                 + [(i, j) for i in range(n) for j in range(i + 1, n)])


def _column_sum(u, M, k):
    """Coordinate k of the row vector u times M, summed from the first term."""
    s = u[0] * M[0][k]
    for m in range(1, len(u)):
        s = s + u[m] * M[m][k]
    return s


def rb_components(a, R, weight) -> list:
    """Coordinate k of P(e_i)P(e_j) - P(e_i P(e_j) + P(e_i) e_j + weight e_i e_j)
    for each pair (i, j) of `rb_pairs(n)` and each k, in that order.

    `a` is the structure matrix and `R` the row matrix of P.  Only +, - and *
    are used and sums start from their first term, so the entries may be
    complex numbers, Poly values or (for R) ComplexLanes.  Nothing is
    validated; see rb_residual.
    """
    n = len(R)
    coords, rest = range(n), range(1, n)
    out = []
    for i, j in rb_pairs(n):
        # v = e_i P(e_j) + P(e_i) e_j + weight e_i e_j, u = P(e_i) * P(e_j) coordinatewise
        ai, aj, rji, rij = a[i], a[j], R[j][i], R[i][j]
        if i == j:
            v = [rji * ai[m] + rij * aj[m] + weight * ai[m] for m in coords]
        else:
            v = [rji * ai[m] + rij * aj[m] for m in coords]
        u = list(map(operator.mul, R[i], R[j]))
        for k in coords:  # _column_sum(u, a, k) - _column_sum(v, R, k), inlined for speed
            lhs = u[0] * a[0][k]
            rhs = v[0] * R[0][k]
            for m in rest:
                lhs = lhs + u[m] * a[m][k]
                rhs = rhs + v[m] * R[m][k]
            out.append(lhs - rhs)
    return out


def rb_jacobian_rows(a, R, weight) -> list:
    """Analytic complex Jacobian of rb_components with respect to the
    operator entries, as nested lists of entries of R's kind (complex
    numbers or ComplexLanes); rows follow rb_components, columns are ordered
    R_11, R_12, ..., R_nn (row-major).  Entries no term reaches stay 0j."""
    n = len(R)
    rows = []
    for i, j in rb_pairs(n):
        ai, aj, rji, rij = a[i], a[j], R[j][i], R[i][j]
        if i == j:
            v = [rji * ai[m] + rij * aj[m] + weight * ai[m] for m in range(n)]
        else:
            v = [rji * ai[m] + rij * aj[m] for m in range(n)]
        for k in range(n):
            # d/dR_pq: through rows i and j in P(e_i)P(e_j), through R_ji and
            # R_ij in the argument v, and through column k in P(v)
            d = [0j] * (n * n)
            for q in range(n):
                d[n * i + q] += R[j][q] * a[q][k]
                d[n * j + q] += R[i][q] * a[q][k]
            d[n * j + i] -= _column_sum(ai, R, k)
            d[n * i + j] -= _column_sum(aj, R, k)
            for p in range(n):
                d[n * p + k] -= v[p]
            rows.append(d)
    return rows


def _checked_components(A: StructureMatrix, rows, weight) -> list:
    n = A.dim
    rows = tuple(tuple(complex(z) for z in r) for r in rows)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatchError(f"operator is not {n}x{n} like the algebra")
    for z in (z for r in rows for z in r):
        _check_finite(z, "operator entry")
    comps = rb_components(A.entries, rows, weight)
    for z in comps:
        _check_finite(z, "residual component")
    return comps


def rb_residual(A: StructureMatrix, R: RotaBaxterOperator):
    """Residual of the Rota-Baxter identity of R, evaluated on all basis pairs.

    Returns an n x n grid of coordinate tuples; entry (i,j) is
    P(e_i)P(e_j) - P(e_i P(e_j) + P(e_i) e_j + weight e_i e_j).  Pairs are
    evaluated for i <= j and mirrored, which keeps the grid symmetric and
    bit-reproducible.  Raises DimensionMismatchError on a wrong operator
    shape and ValueError on a non-finite residual.
    """
    n = A.dim
    comps = _checked_components(A, R.entries, R.weight)
    grid: list[list] = [[None] * n for _ in range(n)]
    for p, (i, j) in enumerate(rb_pairs(n)):
        grid[i][j] = grid[j][i] = tuple(comps[p * n:(p + 1) * n])
    return tuple(tuple(row) for row in grid)


def rb_residual_norm(A: StructureMatrix, R: RotaBaxterOperator) -> float:
    """Max-norm over all (i, j, k) of the Rota-Baxter residual.

    Zero exactly when R satisfies the identity; max (not Frobenius) so a
    single violated equation cannot be averaged away.
    """
    return rb_residual_norm_general(A, R.entries, R.weight)


def rb_residual_norm_general(A: StructureMatrix, rows, weight: complex) -> float:
    return max(abs(z) for z in _checked_components(A, rows, weight))


# --- matrix file format -----------------------------------------------------
#
# Plain text: first line n, then n rows of n complex numbers written re+imi,
# e.g. "0+1i", "-0.5+0i", "1.5e-3-2i".  Locale-independent, "." decimal
# separator.

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^({_NUM})([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$")


def parse_complex(token: str) -> complex:
    m = _COMPLEX_RE.match(token)
    if not m:
        raise MatrixFormatError(f"bad complex literal {token!r} (expected re+imi form)")
    return complex(float(m.group(1)), float(m.group(2)))


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_matrix(text: str, field: str = COMPLEX) -> StructureMatrix:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise MatrixFormatError(f"first line must be the dimension, got {lines[0]!r}") from None
    if n < 1:
        raise MatrixFormatError(f"dimension must be positive, got {n}")
    if len(lines) != n + 1:
        raise MatrixFormatError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != n:
            raise MatrixFormatError(f"expected {n} entries per row, got {len(toks)} in {ln!r}")
        rows.append(tuple(parse_complex(t) for t in toks))
    try:
        return StructureMatrix(tuple(rows), field)
    except ValueError as e:
        raise MatrixFormatError(str(e)) from None


def read_matrix_file(path, field: str = COMPLEX) -> StructureMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read(), field)

