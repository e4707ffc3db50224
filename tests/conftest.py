import random

import pytest

from evoalg.cea import ERROR, OUT_OF_DOMAIN, OutOfDomainError, classify_dynamics
from evoalg.core import EvoalgError
from evoalg.polys import Poly
from evoalg.rotabaxter import _function, _source


def brute_force_rb_residual(entries, rows, weight):
    """Independent expansion of the Rota-Baxter identity: builds the full
    bilinear product tensor C[i][j][k] and contracts it with explicit index
    sums.  Used as the oracle against the library's residual."""
    n = len(entries)
    C = [
        [[entries[i][k] if i == j else 0j for k in range(n)] for j in range(n)]
        for i in range(n)
    ]

    def prod(u, v):
        out = [0j] * n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[k] += u[i] * v[j] * C[i][j][k]
        return out

    def apply_p(u):
        out = [0j] * n
        for i in range(n):
            for k in range(n):
                out[k] += u[i] * rows[i][k]
        return out

    basis = [[1.0 if m == i else 0.0 for m in range(n)] for i in range(n)]
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            pi, pj = apply_p(basis[i]), apply_p(basis[j])
            lhs = prod(pi, pj)
            arg = [
                p + q + weight * r
                for p, q, r in zip(prod(basis[i], pj), prod(pi, basis[j]),
                                   prod(basis[i], basis[j]))
            ]
            rhs = apply_p(arg)
            row.append(tuple(l - r for l, r in zip(lhs, rhs)))
        grid.append(tuple(row))
    return tuple(grid)


def golden_poly(line: str, variables) -> Poly:
    """The polynomial lhs - rhs of a golden line `lhs = rhs`, compiled by the
    catalog's formula compiler and evaluated on polynomial variables."""
    lhs, rhs = line.split("=")
    src, _ = _source(f"{lhs}-({rhs})", {})
    return _function(src)({v: Poly.var(variables, v) for v in variables})


def poly_value(poly: Poly, values: dict) -> complex:
    """The value of `poly` at the variable values `values` (name -> number),
    term by term from the coefficients."""
    out = 0j
    for mono, coeff in poly.terms:
        v = coeff
        for name, e in zip(poly.variables, mono):
            if e:
                v *= values[name] ** e
        out += v
    return out


def normalized_terms(system, tol: float = 1e-12) -> set:
    """The set of sign-normalized coefficient tuples of a derived system's
    equations; two systems match when these sets are equal."""
    return {e.poly.sign_normalized(tol).terms for e in system.equations}


def per_cell_diagram(spec, window, resolution, tol=1e-9):
    """The cells of a property diagram, one classify_dynamics call per cell
    centre: the loop `cea.property_diagram` ran before it was batched, kept
    as the oracle of the batched path."""
    smin, smax, tmin, tmax = window
    ns = nt = resolution
    ds, dt = (smax - smin) / ns, (tmax - tmin) / nt
    rows = []
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
            except EvoalgError:
                row.append(ERROR)
        rows.append(tuple(row))
    return tuple(rows)


def random_complex_matrix(rng: random.Random, n: int, scale: float = 2.0):
    return tuple(
        tuple(complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
              for _ in range(n))
        for _ in range(n)
    )


@pytest.fixture
def rng():
    return random.Random(20240817)
