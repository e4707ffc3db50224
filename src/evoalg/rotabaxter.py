"""Rota-Baxter operators of weight 0 and 1 on 2-dimensional complex evolution
algebras: solution catalog, verification, numeric search, derived systems.

The catalog reproduces two solution tables over the canonical complex
algebras E1..E6 (see classify2d).  Each row is one or more parameterized
matrix templates with side conditions; `verify_family` samples the free
parameters and checks the Rota-Baxter residual, `search` runs multi-start
root finding on the residual, and `derive_system` expands the defining
identity into the polynomial system in the operator entries

    R = [[a, b], [c, d]],  P(e_1) = a e_1 + b e_2,  P(e_2) = c e_1 + d e_2.
"""

from __future__ import annotations

import cmath
import math
import random
import zlib
from dataclasses import dataclass

import numpy as np

from .core import (COMPLEX, ComplexLanes, EvoalgError, StructureMatrix, lanes_array,
                   rb_components, rb_jacobian_rows, rb_pairs, rb_residual_norm_general)
from .classify2d import AlgebraClass, canonical_matrix
from .numerics import _rowdot, complex_jacobian_to_real, levenberg_marquardt
from .polys import Poly

SQRT3 = math.sqrt(3.0)
P_PLUS = complex(-0.5, SQRT3 / 6.0)    # (-3 + i sqrt3) / 6
P_MINUS = complex(-0.5, -SQRT3 / 6.0)  # (-3 - i sqrt3) / 6
I3 = 1j / SQRT3
NU = cmath.exp(1j * math.pi / 6.0)     # principal sixth root of -1
NU5 = NU**5

MARGIN = 1e-3          # distance kept from side-condition sets when sampling
ISOLATED_TOL = 1e-12   # "exact" bound for parameter-free matrices


def algebra_matrix(tag: str, params=()) -> StructureMatrix:
    return canonical_matrix(AlgebraClass(COMPLEX, tag, tuple(params)))


class UnknownAlgebraError(EvoalgError):
    pass


@dataclass(frozen=True)
class RboFamily:
    """One matrix template of a catalog row.

    `expand` maps sampled free parameters to concrete parameter dicts (one
    per branch, e.g. the two signs of a square root); `mat` and `algebra_params`
    read the operator matrix and the algebra parameters off an expanded dict.
    `conditions` are margin-checked quantities that must stay away from zero
    for the sample to be admissible.
    """

    family_id: str
    row_id: str
    algebra: str
    weight: int
    free_params: tuple[str, ...]
    template: str
    conditions_text: str
    mat: callable
    algebra_params: callable
    expand: callable = None
    conditions: tuple = ()
    branch_conditions: tuple = ()
    fit: callable = None

    @property
    def isolated(self) -> bool:
        return not self.free_params

    def sample_params(self, rng: random.Random) -> dict:
        """Draw admissible free parameters from the complex box [-2,2]^2
        (at most 200 draws)."""
        if not self.free_params:
            return {}
        for _ in range(200):
            p = {
                name: complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                for name in self.free_params
            }
            if all(abs(q(p)) >= MARGIN for q in self.conditions):
                return p
        raise EvoalgError(f"could not sample admissible parameters for {self.family_id}")

    def instantiate(self, p: dict):
        """All branch instantiations for the parameter dict: list of
        (operator matrix, algebra parameter tuple)."""
        expanded = self.expand(p) if self.expand else [dict(p)]
        out = []
        for q in expanded:
            if any(abs(cond(q)) < MARGIN for cond in self.branch_conditions):
                continue
            out.append((self.mat(q), tuple(self.algebra_params(q))))
        return out

    def candidate_matrices(self, algebra_params, R):
        """Matrices of this family closest in spirit to R (for annotating
        search output); uses the read-off `fit` plus branch expansion."""
        guesses = []
        if self.fit is not None:
            guesses = self.fit(R, algebra_params)
        elif not self.free_params:
            guesses = [{}]
        out = []
        for g in guesses:
            for q in self.expand(g) if self.expand else [g]:
                out.append((self.mat(q), tuple(self.algebra_params(q))))
        return out


# --- catalog ------------------------------------------------------------------


def _w0_families():
    fams = []

    fams.append(RboFamily(
        "w0:E1", "w0:E1", "E1", 0, ("b", "d"),
        "[[0, b], [0, d]]", "",
        mat=lambda p: ((0j, p["b"]), (0j, p["d"])),
        algebra_params=lambda p: (),
        fit=lambda R, ap: [{"b": R[0][1], "d": R[1][1]}],
    ))
    for sign, name in ((1, "plus"), (-1, "minus")):
        fams.append(RboFamily(
            f"w0:E2:{name}", "w0:E2", "E2", 0, ("c",),
            f"[[0, 0], [c, {'' if sign > 0 else '-'}i*c]]", "",
            mat=lambda p, s=sign: ((0j, 0j), (p["c"], s * 1j * p["c"])),
            algebra_params=lambda p: (),
            fit=lambda R, ap: [{"c": R[1][0]}],
        ))
    for sgn, name in ((1, "symmetric"), (-1, "alternating")):
        fams.append(RboFamily(
            f"w0:E3:{name}", "w0:E3", "E3", 0, ("a",),
            f"[[a, {'a' if sgn > 0 else '-a'}], [-a, {'-a' if sgn > 0 else 'a'}]]", "",
            mat=lambda p, s=sgn: ((p["a"], s * p["a"]), (-p["a"], -s * p["a"])),
            algebra_params=lambda p: (),
            fit=lambda R, ap: [{"a": R[0][0]}],
        ))
    fams.append(RboFamily(
        "w0:E4:upper", "w0:E4", "E4", 0, ("b", "d"),
        "[[0, b], [0, d]]", "",
        mat=lambda p: ((0j, p["b"]), (0j, p["d"])),
        algebra_params=lambda p: (),
        fit=lambda R, ap: [{"b": R[0][1], "d": R[1][1]}],
    ))
    fams.append(RboFamily(
        "w0:E4:halfdiag", "w0:E4", "E4", 0, ("a", "b"),
        "[[a, b], [0, a/2]]", "",
        mat=lambda p: ((p["a"], p["b"]), (0j, p["a"] / 2.0)),
        algebra_params=lambda p: (),
        fit=lambda R, ap: [{"a": R[0][0], "b": R[0][1]}],
    ))
    fams.append(RboFamily(
        "w0:E5(1/4,0)", "w0:E5(1/4,0)", "E5", 0, ("a",),
        "[[a, a/2], [-2a, -a]]", "",
        mat=lambda p: ((p["a"], p["a"] / 2.0), (-2.0 * p["a"], -p["a"])),
        algebra_params=lambda p: (0.25, 0.0),
        fit=lambda R, ap: [{"a": R[0][0]}],
    ))
    fams.append(RboFamily(
        "w0:E5(0,1/4)", "w0:E5(0,1/4)", "E5", 0, ("a",),
        "[[a, 2a], [-a/2, -a]]", "",
        mat=lambda p: ((p["a"], 2.0 * p["a"]), (-p["a"] / 2.0, -p["a"])),
        algebra_params=lambda p: (0.0, 0.25),
        fit=lambda R, ap: [{"a": R[0][0]}],
    ))
    fams.append(RboFamily(
        "w0:E5:generic", "w0:E5(x,y)", "E5", 0, ("a", "b"),
        "[[a, b], [-a^2/b, -a]]",
        "a != 0, b != 0, a != 2b, b != 2a, a != -b; x = (2a-b)b/(3a^2), y = (2ab-a^2)/(3b^2)",
        mat=lambda p: ((p["a"], p["b"]), (-p["a"] ** 2 / p["b"], -p["a"])),
        algebra_params=lambda p: (
            (2.0 * p["a"] - p["b"]) * p["b"] / (3.0 * p["a"] ** 2),
            (-p["a"] ** 2 + 2.0 * p["a"] * p["b"]) / (3.0 * p["b"] ** 2),
        ),
        conditions=(
            lambda p: p["a"],
            lambda p: p["b"],
            lambda p: p["a"] - 2.0 * p["b"],
            lambda p: p["b"] - 2.0 * p["a"],
            lambda p: p["a"] + p["b"],
        ),
        fit=lambda R, ap: [{"a": R[0][0], "b": R[0][1]}],
    ))
    fams.append(RboFamily(
        "w0:E6:curve", "w0:E6", "E6", 0, ("c",),
        "[[b^2/(2c), b], [c, -b^2/(2c)]]",
        "b != 0, c != 0, b^3/c + 4c^2 = 0 and 3b^6/c + 16b^3c^2 + 16c^5 = 0; "
        "algebra parameter -3b^2/(4c^2)",
        mat=lambda p: ((p["b"] ** 2 / (2 * p["c"]), p["b"]),
                       (p["c"], -p["b"] ** 2 / (2 * p["c"]))),
        algebra_params=lambda p: (-3.0 * p["b"] ** 2 / (4.0 * p["c"] ** 2),),
        expand=lambda p: [dict(p, b=b) for b in _cubic_branches(-4.0 * p["c"] ** 3)],
        conditions=(lambda p: p["c"],),
        branch_conditions=(lambda p: p["b"],),
        fit=lambda R, ap: [{"c": R[1][0]}],
    ))
    return fams


def _cubic_branches(z: complex):
    """All three cube roots, principal first."""
    r = z ** (1.0 / 3.0)
    w = complex(-0.5, SQRT3 / 2.0)
    return [r, r * w, r * w * w]


def _sqrt_branches(z: complex):
    r = cmath.sqrt(z)
    return [r, -r]


def _w1_families():
    fams = []

    fams.append(RboFamily(
        "w1:E1:neg", "w1:E1", "E1", 1, ("d",),
        "[[-1, 0], [0, d]]", "",
        mat=lambda p: ((-1.0 + 0j, 0j), (0j, p["d"])),
        algebra_params=lambda p: (),
        fit=lambda R, ap: [{"d": R[1][1]}],
    ))
    fams.append(RboFamily(
        "w1:E1:zero", "w1:E1", "E1", 1, ("d",),
        "[[0, 0], [0, d]]", "",
        mat=lambda p: ((0j, 0j), (0j, p["d"])),
        algebra_params=lambda p: (),
        fit=lambda R, ap: [{"d": R[1][1]}],
    ))
    for sign, name in ((1, "line-plus"), (-1, "line-minus")):
        fams.append(RboFamily(
            f"w1:E2:{name}", "w1:E2", "E2", 1, ("c",),
            f"[[0, 0], [c, {'' if sign > 0 else '-'}i*c]]", "",
            mat=lambda p, s=sign: ((0j, 0j), (p["c"], s * 1j * p["c"])),
            algebra_params=lambda p: (),
            fit=lambda R, ap: [{"c": R[1][0]}],
        ))
    for sign, name in ((1, "half-plus"), (-1, "half-minus")):
        fams.append(RboFamily(
            f"w1:E2:{name}", "w1:E2", "E2", 1, (),
            f"[[-1/2, {'' if sign > 0 else '-'}i/2], [{'-' if sign > 0 else ''}i/2, -1/2]]", "",
            mat=lambda p, s=sign: ((-0.5 + 0j, s * 0.5j), (-s * 0.5j, -0.5 + 0j)),
            algebra_params=lambda p: (),
        ))
    for sign, name in ((1, "affine-plus"), (-1, "affine-minus")):
        fams.append(RboFamily(
            f"w1:E2:{name}", "w1:E2", "E2", 1, ("c",),
            f"[[-1, 0], [c, -1{'+' if sign > 0 else '-'}i*c]]", "",
            mat=lambda p, s=sign: ((-1.0 + 0j, 0j), (p["c"], -1.0 + s * 1j * p["c"])),
            algebra_params=lambda p: (),
            fit=lambda R, ap: [{"c": R[1][0]}],
        ))
    e3_mats = {
        "a": (lambda p: ((-1.0 + p["b"], p["b"]), (-p["b"], -1.0 - p["b"])),
              "[[-1+b, b], [-b, -1-b]]"),
        "b": (lambda p: ((-1.0 - p["b"], p["b"]), (p["b"], -1.0 - p["b"])),
              "[[-1-b, b], [b, -1-b]]"),
        "c": (lambda p: ((p["b"], p["b"]), (-p["b"], -p["b"])),
              "[[b, b], [-b, -b]]"),
        "d": (lambda p: ((-p["b"], p["b"]), (p["b"], -p["b"])),
              "[[-b, b], [b, -b]]"),
    }
    for name, (fn, tpl) in e3_mats.items():
        fams.append(RboFamily(
            f"w1:E3:{name}", "w1:E3", "E3", 1, ("b",), tpl, "",
            mat=fn,
            algebra_params=lambda p: (),
            fit=lambda R, ap: [{"b": R[0][1]}],
        ))
    fams.append(RboFamily(
        "w1:E4", "w1:E4", "E4", 1, ("a", "b"),
        "[[a, b], [0, a^2/(1+2a)]]", "a != -1/2",
        mat=lambda p: ((p["a"], p["b"]), (0j, p["a"] ** 2 / (1.0 + 2.0 * p["a"]))),
        algebra_params=lambda p: (),
        conditions=(lambda p: 1.0 + 2.0 * p["a"],),
        fit=lambda R, ap: [{"a": R[0][0], "b": R[0][1]}],
    ))

    # E5(0,y) rows
    fams.append(RboFamily(
        "w1:E5(0,y):unit", "w1:E5(0,y):1", "E5", 1, ("y",),
        "[[0, 0], [1, 0]]", "algebra E5(0, y)",
        mat=lambda p: ((0j, 0j), (1.0 + 0j, 0j)),
        algebra_params=lambda p: (0.0, p["y"]),
        fit=lambda R, ap: [{"y": ap[1]}],
    ))
    fams.append(RboFamily(
        "w1:E5(0,y):cneg", "w1:E5(0,y):1", "E5", 1, ("y",),
        "[[0, 0], [c, -1]] with c = (-1 +- sqrt(1-4y))/2", "algebra E5(0, y)",
        mat=lambda p: ((0j, 0j), (p["c"], -1.0 + 0j)),
        algebra_params=lambda p: (0.0, p["y"]),
        expand=lambda p: [dict(p, c=(-1.0 + r) / 2.0) for r in _sqrt_branches(1.0 - 4.0 * p["y"])],
        fit=lambda R, ap: [{"y": ap[1]}],
    ))
    fams.append(RboFamily(
        "w1:E5(0,y):affine", "w1:E5(0,y):2", "E5", 1, ("y",),
        "[[-1, 0], [-1, -1]]", "algebra E5(0, y), y != 0",
        mat=lambda p: ((-1.0 + 0j, 0j), (-1.0 + 0j, -1.0 + 0j)),
        algebra_params=lambda p: (0.0, p["y"]),
        conditions=(lambda p: p["y"],),
        fit=lambda R, ap: [{"y": ap[1]}],
    ))
    fams.append(RboFamily(
        "w1:E5(0,y):czero", "w1:E5(0,y):2", "E5", 1, ("y",),
        "[[-1, 0], [c, 0]] with c = (1 +- sqrt(1-4y))/2, c != 0", "algebra E5(0, y), y != 0",
        mat=lambda p: ((-1.0 + 0j, 0j), (p["c"], 0j)),
        algebra_params=lambda p: (0.0, p["y"]),
        expand=lambda p: [dict(p, c=(1.0 + r) / 2.0) for r in _sqrt_branches(1.0 - 4.0 * p["y"])],
        conditions=(lambda p: p["y"],),
        branch_conditions=(lambda p: p["c"],),
        fit=lambda R, ap: [{"y": ap[1]}],
    ))
    fams.append(RboFamily(
        "w1:E5(0,y):sqrt", "w1:E5(0,y):3", "E5", 1, ("y",),
        "[[(1-4y+r)/(8y-2), -1/r], [y/r, (1-4y-r)/(8y-2)]] with r = +-sqrt(1-4y)",
        "algebra E5(0, y), y != 0, y != 1/4",
        mat=lambda p: (((1.0 - 4.0 * p["y"] + p["r"]) / (8.0 * p["y"] - 2.0), -1.0 / p["r"]),
                       (p["y"] / p["r"], (1.0 - 4.0 * p["y"] - p["r"]) / (8.0 * p["y"] - 2.0))),
        algebra_params=lambda p: (0.0, p["y"]),
        expand=lambda p: [dict(p, r=r) for r in _sqrt_branches(1.0 - 4.0 * p["y"])],
        conditions=(lambda p: p["y"], lambda p: p["y"] - 0.25),
        fit=lambda R, ap: [{"y": ap[1]}],
    ))

    # E5(x,0) rows
    fams.append(RboFamily(
        "w1:E5(x,0):unit", "w1:E5(x,0):1", "E5", 1, ("x",),
        "[[0, 1], [0, 0]]", "algebra E5(x, 0)",
        mat=lambda p: ((0j, 1.0 + 0j), (0j, 0j)),
        algebra_params=lambda p: (p["x"], 0.0),
        fit=lambda R, ap: [{"x": ap[0]}],
    ))
    fams.append(RboFamily(
        "w1:E5(x,0):bneg", "w1:E5(x,0):1", "E5", 1, ("x",),
        "[[0, b], [0, -1]] with b = (1 +- sqrt(1-4x))/2, b != 0", "algebra E5(x, 0)",
        mat=lambda p: ((0j, p["b"]), (0j, -1.0 + 0j)),
        algebra_params=lambda p: (p["x"], 0.0),
        expand=lambda p: [dict(p, b=(1.0 + r) / 2.0) for r in _sqrt_branches(1.0 - 4.0 * p["x"])],
        branch_conditions=(lambda p: p["b"],),
        fit=lambda R, ap: [{"x": ap[0]}],
    ))
    fams.append(RboFamily(
        "w1:E5(x,0):mneg", "w1:E5(x,0):1", "E5", 1, ("x",),
        "[[-1, -b], [0, 0]] with b = (1 +- sqrt(1-4x))/2, b != 0", "algebra E5(x, 0)",
        mat=lambda p: ((-1.0 + 0j, -p["b"]), (0j, 0j)),
        algebra_params=lambda p: (p["x"], 0.0),
        expand=lambda p: [dict(p, b=(1.0 + r) / 2.0) for r in _sqrt_branches(1.0 - 4.0 * p["x"])],
        branch_conditions=(lambda p: p["b"],),
        fit=lambda R, ap: [{"x": ap[0]}],
    ))
    fams.append(RboFamily(
        "w1:E5(x,0):affine", "w1:E5(x,0):1", "E5", 1, ("x",),
        "[[-1, -1], [0, -1]]", "algebra E5(x, 0)",
        mat=lambda p: ((-1.0 + 0j, -1.0 + 0j), (0j, -1.0 + 0j)),
        algebra_params=lambda p: (p["x"], 0.0),
        fit=lambda R, ap: [{"x": ap[0]}],
    ))
    fams.append(RboFamily(
        "w1:E5(x,0):sqrt", "w1:E5(x,0):2", "E5", 1, ("x",),
        "[[(1-4x+r)/(8x-2), -x/r], [1/r, (1-4x-r)/(8x-2)]] with r = +-sqrt(1-4x)",
        "algebra E5(x, 0), x != 0, x != 1/4",
        mat=lambda p: (((1.0 - 4.0 * p["x"] + p["r"]) / (8.0 * p["x"] - 2.0), -p["x"] / p["r"]),
                       (1.0 / p["r"], (1.0 - 4.0 * p["x"] - p["r"]) / (8.0 * p["x"] - 2.0))),
        algebra_params=lambda p: (p["x"], 0.0),
        expand=lambda p: [dict(p, r=r) for r in _sqrt_branches(1.0 - 4.0 * p["x"])],
        conditions=(lambda p: p["x"], lambda p: p["x"] - 0.25),
        fit=lambda R, ap: [{"x": ap[0]}],
    ))

    fams.append(RboFamily(
        "w1:E5(0,0)", "w1:E5(0,0)", "E5", 1, (),
        "[[-1, 0], [0, 0]]", "algebra E5(0, 0)",
        mat=lambda p: ((-1.0 + 0j, 0j), (0j, 0j)),
        algebra_params=lambda p: (0.0, 0.0),
    ))
    fams.append(RboFamily(
        "w1:E5:negid", "w1:E5(x,y):negid", "E5", 1, ("x", "y"),
        "[[-1, 0], [0, -1]]", "algebra E5(x, y), 1 - xy != 0",
        mat=lambda p: ((-1.0 + 0j, 0j), (0j, -1.0 + 0j)),
        algebra_params=lambda p: (p["x"], p["y"]),
        conditions=(lambda p: 1.0 - p["x"] * p["y"],),
        fit=lambda R, ap: [{"x": ap[0], "y": ap[1]}],
    ))
    for which, name, m in (
        ("a", "conj", ((P_MINUS, -I3), (I3, P_PLUS))),
        ("b", "main", ((P_PLUS, I3), (-I3, P_MINUS))),
    ):
        fams.append(RboFamily(
            f"w1:E5(x,1-x):{name}", "w1:E5(x,1-x)", "E5", 1, ("x",),
            "[[(-3-+i*sqrt3)/6, -+i/sqrt3], [+-i/sqrt3, (-3+-i*sqrt3)/6]]",
            "algebra E5(x, 1-x), x != (1 +- i*sqrt3)/2",
            mat=lambda p, mm=m: mm,
            algebra_params=lambda p: (p["x"], 1.0 - p["x"]),
            conditions=(
                lambda p: p["x"] - complex(0.5, SQRT3 / 2.0),
                lambda p: p["x"] - complex(0.5, -SQRT3 / 2.0),
            ),
            fit=lambda R, ap: [{"x": ap[0]}],
        ))
    fams.append(RboFamily(
        "w1:E5:caseD", "w1:E5(x,y):caseD", "E5", 1, ("c", "d"),
        "[[-1-d, -d(1+d)/c], [c, d]]",
        "d != 0, d != -1, d != (-3 +- i*sqrt3)/6, c != 0, c != d(1+d)/(1+2d), "
        "c != 1+2d; x = d(1+d)(c+2cd-d(1+d))/(c^2(1+3d+3d^2)), "
        "y = c(1-c+2d)/(1+3d+3d^2)",
        mat=lambda p: ((-1.0 - p["d"], -p["d"] * (1.0 + p["d"]) / p["c"]),
                       (p["c"], p["d"])),
        algebra_params=lambda p: _case_d_xy(p["c"], p["d"]),
        conditions=(
            lambda p: p["d"],
            lambda p: p["d"] + 1.0,
            lambda p: 1.0 + 3.0 * p["d"] + 3.0 * p["d"] ** 2,
            lambda p: p["c"],
            lambda p: 1.0 + 2.0 * p["d"],
            lambda p: p["c"] - p["d"] * (1.0 + p["d"]) / (1.0 + 2.0 * p["d"]),
            lambda p: p["c"] - (1.0 + 2.0 * p["d"]),
            lambda p: 1.0 - _case_d_xy(p["c"], p["d"])[0] * _case_d_xy(p["c"], p["d"])[1],
        ),
        fit=lambda R, ap: [{"c": R[1][0], "d": R[1][1]}],
    ))

    # E6 rows
    e60 = [
        ("diag-1", ((P_PLUS, 0j), (0j, P_MINUS))),
        ("diag-2", ((P_MINUS, 0j), (0j, P_PLUS))),
        ("off-1", ((P_PLUS, -I3), (I3, P_MINUS))),
        ("off-2", ((P_MINUS, I3), (-I3, P_PLUS))),
        ("off-3", ((P_MINUS, -NU / SQRT3), (NU5 / SQRT3, P_PLUS))),
        ("off-4", ((P_PLUS, NU / SQRT3), (-NU5 / SQRT3, P_MINUS))),
        # the lower-left sign here is the one that solves the defining
        # system; the opposite sign does not (pinned in the tests)
        ("off-5", ((P_PLUS, NU5 / SQRT3), (-NU / SQRT3, P_MINUS))),
        ("off-6", ((P_MINUS, -NU5 / SQRT3), (NU / SQRT3, P_PLUS))),
    ]
    for name, m in e60:
        fams.append(RboFamily(
            f"w1:E6(0):{name}", "w1:E6(0)", "E6", 1, (),
            "fixed matrix over E6(0)", "algebra E6(0)",
            mat=lambda p, mm=m: mm,
            algebra_params=lambda p: (0.0,),
        ))
    fams.append(RboFamily(
        "w1:E6:negid", "w1:E6(x):negid", "E6", 1, ("x",),
        "[[-1, 0], [0, -1]]", "algebra E6(x)",
        mat=lambda p: ((-1.0 + 0j, 0j), (0j, -1.0 + 0j)),
        algebra_params=lambda p: (p["x"],),
        fit=lambda R, ap: [{"x": ap[0]}],
    ))
    fams.append(RboFamily(
        "w1:E6:curve", "w1:E6(curve)", "E6", 1, ("c",),
        "[[(b^2-c)/(2c), b], [c, (-b^2-c)/(2c)]]",
        "b != 0, c != 0, b^3 + c^3 != 0, b^4/c + 4bc^2 = c and "
        "(b^6+5b^3c^3+4c^6)/c = c(b^3+c^3)/b; algebra parameter (-b^3-c^3)/(bc^2)",
        mat=lambda p: (((p["b"] ** 2 - p["c"]) / (2.0 * p["c"]), p["b"]),
                       (p["c"], (-p["b"] ** 2 - p["c"]) / (2.0 * p["c"]))),
        algebra_params=lambda p: ((-p["b"] ** 3 - p["c"] ** 3) / (p["b"] * p["c"] ** 2),),
        expand=lambda p: [dict(p, b=b) for b in _quartic_curve_branches(p["c"])],
        conditions=(lambda p: p["c"],),
        branch_conditions=(
            lambda p: p["b"],
            lambda p: p["b"] ** 3 + p["c"] ** 3,
        ),
        fit=lambda R, ap: [{"c": R[1][0]}],
    ))
    return fams


def _case_d_xy(c: complex, d: complex):
    # y carries no c^2 denominator: it solves c^2 + d^2 y = (2d+1)(ay + c)
    # with a = -1-d directly, and only this form makes the residual vanish
    # identically in (c, d)
    x = d * (1.0 + d) * (c + 2.0 * c * d - d * (1.0 + d)) / (
        c * c * (1.0 + 3.0 * d + 3.0 * d * d))
    y = c * (1.0 - c + 2.0 * d) / (1.0 + 3.0 * d + 3.0 * d * d)
    return (x, y)


def _quartic_curve_branches(c: complex):
    """Roots b of b^4 + 4b c^3 - c^2 = 0 (the weight-1 constraint curve)."""
    roots = np.roots([1.0, 0.0, 0.0, 4.0 * c**3, -(c**2)])
    return [complex(b) for b in sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12)))]


_ALL_FAMILIES = _w0_families() + _w1_families()


def catalog(algebra: str, weight: int) -> list[RboFamily]:
    """All catalog families for one algebra tag and weight."""
    if algebra not in ("E1", "E2", "E3", "E4", "E5", "E6"):
        raise UnknownAlgebraError(f"no catalog for algebra {algebra!r}")
    if weight not in (0, 1):
        raise ValueError("weight must be 0 or 1")
    return [f for f in _ALL_FAMILIES if f.algebra == algebra and f.weight == weight]


def catalog_rows(weight: int) -> list[str]:
    seen = []
    for f in _ALL_FAMILIES:
        if f.weight == weight and f.row_id not in seen:
            seen.append(f.row_id)
    return seen


def catalog_text(weight: int | None = None) -> str:
    """Structured text export of the catalog."""
    lines = []
    for f in _ALL_FAMILIES:
        if weight is not None and f.weight != weight:
            continue
        lines.append(f"family: {f.family_id}")
        lines.append(f"  row: {f.row_id}")
        lines.append(f"  algebra: {f.algebra}")
        lines.append(f"  weight: {f.weight}")
        lines.append(f"  free parameters: {', '.join(f.free_params) if f.free_params else '(none)'}")
        lines.append(f"  matrix: {f.template}")
        if f.conditions_text:
            lines.append(f"  conditions: {f.conditions_text}")
    return "\n".join(lines) + "\n"


# --- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class FamilyReport:
    family_id: str
    samples: int
    worst_residual: float
    worst_params: dict | None
    tol: float
    passed: bool

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (f"{state}: {self.family_id}  samples={self.samples}  "
                f"worst={self.worst_residual:.3e}  tol={self.tol:.1e}")


def verify_family(fam: RboFamily, param_samples: int = 200, seed: int = 0,
                  tol: float = 1e-9) -> FamilyReport:
    """Sample the family's free parameters and check the Rota-Baxter residual
    of every instantiation; isolated matrices are checked once at the exact
    (1e-12) bound."""
    if param_samples < 1:
        raise ValueError("param_samples must be >= 1")
    rng = random.Random((seed * 1_000_003) ^ zlib.crc32(fam.family_id.encode()))
    if fam.isolated:
        checked = 0
        worst = 0.0
        for R, ap in fam.instantiate({}):
            res = rb_residual_norm_general(algebra_matrix(fam.algebra, ap), R, fam.weight)
            worst = max(worst, res)
            checked += 1
        return FamilyReport(fam.family_id, checked, worst, None, ISOLATED_TOL,
                            worst <= ISOLATED_TOL)
    worst = 0.0
    worst_params = None
    done = 0
    while done < param_samples:
        p = fam.sample_params(rng)
        insts = fam.instantiate(p)
        if not insts:
            continue
        for R, ap in insts:
            res = rb_residual_norm_general(algebra_matrix(fam.algebra, ap), R, fam.weight)
            if res > worst:
                worst, worst_params = res, p
        done += 1
    return FamilyReport(fam.family_id, param_samples, worst, worst_params, tol, worst <= tol)


def verify_table(weight: int, param_samples: int = 200, seed: int = 0,
                 tol: float = 1e-9) -> list[FamilyReport]:
    out = []
    for fam in _ALL_FAMILIES:
        if fam.weight == weight:
            out.append(verify_family(fam, param_samples, seed, tol))
    return out


# --- rejected candidates ---------------------------------------------------------


@dataclass(frozen=True)
class ExclusionCheck:
    case_id: str
    description: str
    samples: int
    max_defect: float  # max |xy - 1| over the samples
    passed: bool       # candidate confirmed excluded (xy = 1 within 1e-12)


def verify_exclusions(samples: int = 10, seed: int = 0, tol: float = 1e-12):
    """Confirm that the candidate solutions rejected during the weight-1
    analysis on E5 indeed force xy = 1 (the degenerate-algebra locus)."""
    rng = random.Random(seed)
    out = []

    def point(case_id, desc, x, y):
        out.append(ExclusionCheck(case_id, desc, 1, abs(x * y - 1.0), abs(x * y - 1.0) <= tol))

    point("quartic-b1c1", "a=0, b=c=1, d=0 forces x=y=-1", -1.0, -1.0)
    point("quartic-d2", "a=0, b=-1, c=1, d=-2 forces x=y=-1", -1.0, -1.0)
    point("caseA-allneg", "a=b=c=d=-1 forces x=y=1", 1.0, 1.0)

    def sampled(case_id, desc, xy_fn, bad=()):
        worst = 0.0
        got = 0
        while got < samples:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if any(abs(z - w) < MARGIN for w in bad):
                continue
            x, y = xy_fn(z)
            worst = max(worst, abs(x * y - 1.0))
            got += 1
        out.append(ExclusionCheck(case_id, desc, samples, worst, worst <= tol))

    bad_a = (0.0, -0.5, -1.0, P_PLUS, P_MINUS)
    sampled("caseB-1", "x1 = -(1+2a)^2/a^2, y1 = -a^2/(1+2a)^2",
            lambda a: (-(1 + 2 * a) ** 2 / a**2, -(a**2) / (1 + 2 * a) ** 2), bad_a)
    sampled("caseB-2", "x2 = -(1+2a)^2/(1+a)^2, y2 = -(1+a)^2/(1+2a)^2",
            lambda a: (-(1 + 2 * a) ** 2 / (1 + a) ** 2, -((1 + a) ** 2) / (1 + 2 * a) ** 2),
            bad_a)
    bad_d = (0.0, -0.5, -1.0, P_PLUS, P_MINUS)
    sampled("caseC-1", "x1 = -d^2/(1+2d)^2, y1 = -(1+2d)^2/d^2",
            lambda d: (-(d**2) / (1 + 2 * d) ** 2, -((1 + 2 * d) ** 2) / d**2), bad_d)
    sampled("caseC-2", "x2 = -(1+d)^2/(1+2d)^2, y2 = -(1+2d)^2/(1+d)^2",
            lambda d: (-((1 + d) ** 2) / (1 + 2 * d) ** 2, -((1 + 2 * d) ** 2) / (1 + d) ** 2),
            bad_d)
    return out


# --- numeric search --------------------------------------------------------------


@dataclass(frozen=True)
class SearchPoint:
    matrix: tuple
    residual: float
    annotation: str


def search(A: StructureMatrix, weight: int, starts: int = 500, seed: int = 0,
           tol: float = 1e-9) -> list[SearchPoint]:
    """Multi-start root finding on the Rota-Baxter residual over the 8 real
    unknowns of R, started uniformly in [-2, 2]^8.  Converged points are
    deduplicated (1e-5 clusters keep their lowest-residual member) and
    annotated with the catalog family they lie on, "trivial-zero" for the
    zero map, or "uncataloged".  Raises ValueError for fewer than one
    start."""
    if A.dim != 2:
        raise EvoalgError("search supports dimension 2 only")
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    a = A.entries
    rng = random.Random(seed)

    def unpack(x):
        z = x.view(complex).tolist()  # (re, im) pairs read as complex, bit for bit
        return ((z[0], z[1]), (z[2], z[3]))

    def lanes(X):
        # one lane per row of X; lane l of R is unpack(X[l])
        z = [ComplexLanes(X[:, 2 * p], X[:, 2 * p + 1]) for p in range(4)]
        return ((z[0], z[1]), (z[2], z[3]))

    # lanes overflow silently, like the complex arithmetic they reproduce
    def residual(X):
        with np.errstate(all="ignore"):
            comps = rb_components(a, lanes(X), weight)
        # complex128 viewed as float64 interleaves (re, im) per component
        return lanes_array(comps, len(X)).view(float)

    def jacobian(X):
        with np.errstate(all="ignore"):
            rows = rb_jacobian_rows(a, lanes(X), weight)
        return complex_jacobian_to_real(lanes_array(rows, len(X)))

    # solutions sit where the residual is quadratic in the distance, so the
    # polish target is far below tol to pin points to ~sqrt(stop) accuracy
    stop = min(tol * 1e-4, 1e-13)
    # all starts run in lockstep; each is the one-start LM bit for bit
    X0 = np.array([[rng.uniform(-2.0, 2.0) for _ in range(8)] for _ in range(starts)])
    X, Rs, _ = levenberg_marquardt(residual, jacobian, X0, stop_norm=stop, max_iter=160)
    found = []
    for x, r in zip(X, Rs):
        res = float(np.max(np.abs(r)))
        if res <= tol:
            found.append((res, x))

    # dedupe: lowest-residual representative per 1e-5 cluster.  The best
    # point left is kept and drops every point within 1e-5 of it, by one
    # stacked distance with the sqrt(dot) bits of np.linalg.norm per pair
    found.sort(key=lambda t: t[0])
    pts = np.array([x for _, x in found]).reshape(-1, 8)
    left = np.arange(len(found))
    reps: list[tuple[float, np.ndarray]] = []
    while left.size:
        reps.append(found[left[0]])
        d = pts[left] - pts[left[0]]
        left = left[np.sqrt(_rowdot(d, d)) > 1e-5]
    reps.sort(key=lambda t: tuple(np.round(t[1], 9)))

    annotations = _annotator(A, weight)
    out = []
    for res, x in reps:
        R = unpack(x)
        out.append(SearchPoint(R, res, annotations(R)))
    return out


def _annotator(A: StructureMatrix, weight: int):
    """Build the catalog-membership annotation function for search output.

    The catalog covers the canonical algebras only, so A is matched by its
    canonical layout (E5 reads (a12, a21), E6 reads a22) and must equal the
    tag's matrix exactly; any other A gets no catalog family."""
    (_, a12), (a21, a22) = A.entries
    layout = {"E5": (a12, a21), "E6": (a22,)}
    fams, ap = [], ()
    for tag in ("E1", "E2", "E3", "E4", "E5", "E6"):
        params = layout.get(tag, ())
        if algebra_matrix(tag, params).entries == A.entries:
            fams, ap = catalog(tag, weight), params
            break

    def norm(R):
        return max(abs(z) for row in R for z in row)

    def annotate(R):
        for fam in fams:
            try:
                cands = fam.candidate_matrices(ap, R)
            except (ArithmeticError, ValueError):
                continue
            for Rc, apc in cands:
                if apc and (len(apc) != len(ap)
                            or max(abs(u - v) for u, v in zip(apc, ap)) > 1e-6):
                    continue
                d = max(abs(R[i][j] - Rc[i][j]) for i in (0, 1) for j in (0, 1))
                if d <= 1e-6:
                    return fam.family_id
        if norm(R) <= 1e-6:
            return "trivial-zero"
        return "uncataloged"

    return annotate


# --- derived polynomial systems ---------------------------------------------------

_N2_VARS = ("a", "b", "c", "d", "x", "y")


@dataclass(frozen=True)
class SystemEquation:
    pair: tuple[int, int]  # 1-based basis pair
    coord: int             # 1-based coordinate
    poly: Poly

    def __str__(self) -> str:
        return f"{self.poly} = 0"


@dataclass(frozen=True)
class DerivedSystem:
    dim: int
    weight: int
    variables: tuple[str, ...]
    equations: tuple[SystemEquation, ...]
    tautologies: tuple[tuple[tuple[int, int], int], ...]

    def as_strings(self) -> list[str]:
        return [str(e) for e in self.equations]

    def normalized_terms(self, tol: float = 1e-12):
        """Set of sign-normalized coefficient dictionaries; two systems match
        when these sets are equal."""
        out = set()
        for e in self.equations:
            out.add(e.poly.sign_normalized(tol).terms)
        return out


def symbolic_algebra(tag: str):
    """Structure matrix of a canonical complex algebra with symbolic
    parameters (x, or x and y) as polynomial entries."""
    V = _N2_VARS
    one = Poly.const(V, 1.0)
    zero = Poly.const(V, 0.0)
    x = Poly.var(V, "x")
    y = Poly.var(V, "y")
    fixed = {
        "E1": ((one, zero), (zero, zero)),
        "E2": ((one, zero), (one, zero)),
        "E3": ((one, one), (-one, -one)),
        "E4": ((zero, one), (zero, zero)),
        "E5": ((one, x), (y, one)),
        "E6": ((zero, one), (one, x)),
    }
    if tag not in fixed:
        raise UnknownAlgebraError(f"no symbolic form for {tag!r}")
    return fixed[tag]


def derive_system(A, weight: int, tol: float = 1e-12) -> DerivedSystem:
    """Expand the Rota-Baxter identity into polynomial equations in the
    operator entries.

    `A` is a StructureMatrix or (for dimension 2) a nested sequence whose
    entries may be Poly values carrying algebra symbols (see
    symbolic_algebra).  Identically zero equations (tautologies, e.g. the
    a*c = a*c slot of E1) are dropped and reported separately.
    """
    entries = A.entries if isinstance(A, StructureMatrix) else tuple(tuple(r) for r in A)
    n = len(entries)
    if n == 2:
        variables = _N2_VARS
        rvar = [["a", "b"], ["c", "d"]]
    else:
        variables = tuple(f"r{i + 1}{j + 1}" for i in range(n) for j in range(n))
        rvar = [[f"r{i + 1}{j + 1}" for j in range(n)] for i in range(n)]

    def lift(z):
        if isinstance(z, Poly):
            if z.variables != tuple(variables):
                raise ValueError("symbolic entries must use the standard variable list")
            return z
        return Poly.const(variables, z)

    a = [[lift(entries[i][j]) for j in range(n)] for i in range(n)]
    R = [[Poly.var(variables, rvar[i][j]) for j in range(n)] for i in range(n)]
    labels = [((i + 1, j + 1), k + 1) for i, j in rb_pairs(n) for k in range(n)]
    eqs = []
    tauts = []
    # lexicographic (pair, coordinate) order
    for (pair, coord), comp in sorted(zip(labels, rb_components(a, R, weight)),
                                      key=lambda item: item[0]):
        poly = comp.sign_normalized(tol)
        if poly.is_zero(tol):
            tauts.append((pair, coord))
        else:
            eqs.append(SystemEquation(pair, coord, poly))
    return DerivedSystem(n, weight, tuple(variables), tuple(eqs), tuple(tauts))
