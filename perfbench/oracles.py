"""Oracles that do not come from the code under test.

Nothing here imports evoalg.  The canonical forms, the rescale/permute
action, the homomorphism defect, the weight-1 Rota-Baxter solutions on
E6(0) and the weight-0 solution lines on E2 are written out again from
their definitions, so a defect in the library cannot hide itself by
agreeing with its own check.
"""

from __future__ import annotations

import cmath
import math
import re

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # primitive cube root of unity

# Canonical 2-dimensional evolution algebras (rows are e_i * e_i).
COMPLEX_TAGS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6")
REAL_TAGS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7")


def canonical_rows(field: str, tag: str, params=()):
    fixed = {
        "E0": ((0, 0), (0, 0)),
        "E1": ((1, 0), (0, 0)),
        "E2": ((1, 0), (1, 0)),
        "E3": ((1, 1), (-1, -1)),
        "E4": ((0, 1), (0, 0)),
    }
    if tag in fixed:
        rows = fixed[tag]
    elif field == "real" and tag == "E5":
        rows = ((0, 1), (0, -1))
    elif (field, tag) in (("real", "E6"), ("complex", "E5")):
        rows = ((1, params[0]), (params[1], 1))
    else:  # real E7(a4), complex E6(a4)
        rows = ((0, 1), (1, params[0]))
    return [[complex(z) for z in r] for r in rows]


def rescale_permute(rows, scales, perm):
    """Structure constants after the basis change e'_i = d_i e_perm(i):
    a'_ij = d_i^2 a_{perm(i) perm(j)} / d_j."""
    d = scales
    return [[d[i] ** 2 * rows[perm[i]][perm[j]] / d[j] for j in range(2)] for i in range(2)]


def param_orbit(field: str, tag: str, params):
    """Parameter tuples that name the same algebra."""
    params = tuple(complex(p) for p in params)
    if (field == "complex" and tag == "E5") or (field == "real" and tag == "E6"):
        return [params, params[::-1]]
    if field == "complex" and tag == "E6":
        return [(params[0] * OMEGA ** k,) for k in range(3)]
    return [params]


def class_matches(field, want_tag, want_params, got_tag, got_params, tol=1e-6) -> bool:
    if got_tag != want_tag or len(got_params) != len(want_params):
        return False
    return any(
        all(abs(g - w) <= tol * max(1.0, abs(w)) for g, w in zip(got_params, rep))
        for rep in param_orbit(field, want_tag, want_params)
    )


def hom_defect(A, B, T) -> float:
    """max |g(e_i e_j) - g(e_i) g(e_j)| over all basis pairs, where g maps
    e_i of A to sum_k T[i][k] f_k and the f_k multiply by B."""
    worst = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                lhs = sum(A[i][m] * T[m][k] for m in range(2)) if i == j else 0.0
                rhs = sum(T[i][m] * T[j][m] * B[m][k] for m in range(2))
                worst = max(worst, abs(lhs - rhs))
    return worst


def witness_ok(A, B, T, scale: float) -> bool:
    det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
    return abs(det) > 1e-12 and hom_defect(A, B, T) <= 1e-6 * max(1.0, scale) ** 2


# --- Rota-Baxter search targets ------------------------------------------------


def e6_zero_weight1_solutions():
    """All weight-1 Rota-Baxter operators on E6(0) = [[0,1],[1,0]].

    Diagonal ones: 0, -I and diag(p, -1-p) with 3p^2 + 3p + 1 = 0.
    Off-diagonal ones: a = p, d = -1-a, b^3 = (2d+1)(2a+1)^2, c = b^2/(2a+1),
    three cube roots for each of the two p.
    """
    roots = [(-3 + s * 1j * math.sqrt(3.0)) / 6.0 for s in (1, -1)]
    sols = [((0j, 0j), (0j, 0j)), ((-1 + 0j, 0j), (0j, -1 + 0j))]
    for p in roots:
        sols.append(((p, 0j), (0j, -1 - p)))
    for a in roots:
        d = -1 - a
        b3 = (2 * d + 1) * (2 * a + 1) ** 2
        r, th = abs(b3) ** (1.0 / 3.0), cmath.phase(b3) / 3.0
        for k in range(3):
            b = r * cmath.exp(1j * (th + 2 * math.pi * k / 3))
            sols.append(((a, b), (b * b / (2 * a + 1), d)))
    return sols


def matrix_distance(R, S) -> float:
    return max(abs(R[i][j] - S[i][j]) for i in (0, 1) for j in (0, 1))


def e6_search_error(points, tol=1e-6):
    """None when `points` are exactly the ten E6(0) weight-1 solutions."""
    sols = e6_zero_weight1_solutions()
    if len(points) != len(sols):
        return f"expected {len(sols)} solutions, got {len(points)}"
    for S in sols:
        near = [R for R in points if matrix_distance(R, S) <= tol]
        if len(near) != 1:
            return f"solution {S} matched by {len(near)} points"
    return None


def on_e2_weight0_line(R, tol=1e-6) -> bool:
    """True when R = [[0, 0], [c, +-i c]] for some c."""
    scale = max(1.0, abs(R[1][0]))
    if abs(R[0][0]) > tol or abs(R[0][1]) > tol:
        return False
    return any(abs(R[1][1] - s * 1j * R[1][0]) <= tol * scale for s in (1, -1))


# --- file formats ---------------------------------------------------------------

_REAL = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_CPLX = re.compile(rf"^({_REAL})([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$")


def parse_complex(text: str) -> complex:
    m = _CPLX.match(text.strip())
    if not m:
        raise ValueError(f"bad complex literal {text!r}")
    return complex(float(m.group(1)), float(m.group(2)))


def parse_search_csv(text: str):
    """Rows of an `rbo search` CSV as (matrix, residual, annotation)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "r11,r12,r21,r22,residual,annotation":
        raise ValueError("bad search CSV header")
    out = []
    for ln in lines[1:]:
        f = ln.split(",")
        z = [parse_complex(v) for v in f[:4]]
        out.append((((z[0], z[1]), (z[2], z[3])), float(f[4]), f[5]))
    return out
