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
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .core import (COMPLEX, ComplexLanes, EvoalgError, StructureMatrix, check_tolerance,
                   lanes_array, rb_components, rb_jacobian_rows, rb_pairs,
                   rb_residual_norm_general)
from .classify2d import AlgebraClass, _cube_roots, canonical_matrix, canonical_rows
from .numerics import _rowdot, complex_jacobian_to_real, levenberg_marquardt
from .polys import Poly

SQRT3 = math.sqrt(3.0)
P_PLUS = complex(-0.5, SQRT3 / 6.0)    # (-3 + i sqrt3) / 6
P_MINUS = complex(-0.5, -SQRT3 / 6.0)  # (-3 - i sqrt3) / 6
NU = cmath.exp(1j * math.pi / 6.0)     # principal sixth root of -1

MARGIN = 1e-3          # distance kept from side-condition sets when sampling
ISOLATED_TOL = 1e-12   # "exact" bound for parameter-free matrices
VERIFY_BLOCK = 1024    # samples that verify_family checks per rb_components call


def algebra_matrix(tag: str, params=()) -> StructureMatrix:
    return canonical_matrix(AlgebraClass(COMPLEX, tag, tuple(params)))


class UnknownAlgebraError(EvoalgError):
    pass


ALGEBRAS = ("E1", "E2", "E3", "E4", "E5", "E6")  # the algebras the catalog covers


# --- catalog ------------------------------------------------------------------
# Each family is one row of text in _ROWS (README, "Catalog rows"): family
# id, row id, matrix, algebra parameters ("x = ..." names one for the
# conditions), conditions ("L != R", checked per branch when they use the
# branch variable), branch rule (one +-sqrt(z), cbrt(z) or
# roots(c_n, ..., c_0)) and an unevaluated note.  Weight and algebra come
# from the family id; the free parameters are the letters of the matrix and
# algebra parameters but the branch variable, alphabetically.  Formulas use ^,
# juxtaposition, i, sqrt3 and nu = exp(i pi/6), and are evaluated as
# written: "3dd" is (3d)d and rounds unlike "3d^2".

_ROWS = (
    ("w0:E1", "w0:E1", "[[0, b], [0, d]]"),
    ("w0:E2:plus", "w0:E2", "[[0, 0], [c, i*c]]"),
    ("w0:E2:minus", "w0:E2", "[[0, 0], [c, -i*c]]"),
    ("w0:E3:symmetric", "w0:E3", "[[a, a], [-a, -a]]"),
    ("w0:E3:alternating", "w0:E3", "[[a, -a], [-a, a]]"),
    ("w0:E4:upper", "w0:E4", "[[0, b], [0, d]]"),
    ("w0:E4:halfdiag", "w0:E4", "[[a, b], [0, a/2]]"),
    ("w0:E5(1/4,0)", "w0:E5(1/4,0)", "[[a, a/2], [-2a, -a]]", "1/4, 0"),
    ("w0:E5(0,1/4)", "w0:E5(0,1/4)", "[[a, 2a], [-a/2, -a]]", "0, 1/4"),
    ("w0:E5:generic", "w0:E5(x,y)", "[[a, b], [-a^2/b, -a]]",
     "x = (2a-b)b/(3a^2), y = (2ab-a^2)/(3b^2)", "a != 0, b != 0, a != 2b, b != 2a, a != -b"),
    ("w0:E6:curve", "w0:E6", "[[b^2/(2c), b], [c, -b^2/(2c)]]", "-3b^2/(4c^2)",
     "c != 0, b != 0", "b = cbrt(-4c^3)", "b^3/c + 4c^2 = 0 and 3b^6/c + 16b^3c^2 + 16c^5 = 0"),

    ("w1:E1:neg", "w1:E1", "[[-1, 0], [0, d]]"),
    ("w1:E1:zero", "w1:E1", "[[0, 0], [0, d]]"),
    ("w1:E2:line-plus", "w1:E2", "[[0, 0], [c, i*c]]"),
    ("w1:E2:line-minus", "w1:E2", "[[0, 0], [c, -i*c]]"),
    ("w1:E2:half-plus", "w1:E2", "[[-1/2, i/2], [-i/2, -1/2]]"),
    ("w1:E2:half-minus", "w1:E2", "[[-1/2, -i/2], [i/2, -1/2]]"),
    ("w1:E2:affine-plus", "w1:E2", "[[-1, 0], [c, -1+i*c]]"),
    ("w1:E2:affine-minus", "w1:E2", "[[-1, 0], [c, -1-i*c]]"),
    ("w1:E3:a", "w1:E3", "[[-1+b, b], [-b, -1-b]]"),
    ("w1:E3:b", "w1:E3", "[[-1-b, b], [b, -1-b]]"),
    ("w1:E3:c", "w1:E3", "[[b, b], [-b, -b]]"),
    ("w1:E3:d", "w1:E3", "[[-b, b], [b, -b]]"),
    ("w1:E4", "w1:E4", "[[a, b], [0, a^2/(1+2a)]]", "", "1+2a != 0"),
    ("w1:E5(0,y):unit", "w1:E5(0,y):1", "[[0, 0], [1, 0]]", "0, y"),
    ("w1:E5(0,y):cneg", "w1:E5(0,y):1", "[[0, 0], [c, -1]]", "0, y", "",
     "c = (-1 +- sqrt(1-4y))/2"),
    ("w1:E5(0,y):affine", "w1:E5(0,y):2", "[[-1, 0], [-1, -1]]", "0, y", "y != 0"),
    ("w1:E5(0,y):czero", "w1:E5(0,y):2", "[[-1, 0], [c, 0]]", "0, y", "y != 0, c != 0",
     "c = (1 +- sqrt(1-4y))/2"),
    ("w1:E5(0,y):sqrt", "w1:E5(0,y):3", "[[(1-4y+r)/(8y-2), -1/r], [y/r, (1-4y-r)/(8y-2)]]",
     "0, y", "y != 0, y != 1/4", "r = +-sqrt(1-4y)"),
    ("w1:E5(x,0):unit", "w1:E5(x,0):1", "[[0, 1], [0, 0]]", "x, 0"),
    ("w1:E5(x,0):bneg", "w1:E5(x,0):1", "[[0, b], [0, -1]]", "x, 0", "b != 0",
     "b = (1 +- sqrt(1-4x))/2"),
    ("w1:E5(x,0):mneg", "w1:E5(x,0):1", "[[-1, -b], [0, 0]]", "x, 0", "b != 0",
     "b = (1 +- sqrt(1-4x))/2"),
    ("w1:E5(x,0):affine", "w1:E5(x,0):1", "[[-1, -1], [0, -1]]", "x, 0"),
    ("w1:E5(x,0):sqrt", "w1:E5(x,0):2", "[[(1-4x+r)/(8x-2), -x/r], [1/r, (1-4x-r)/(8x-2)]]",
     "x, 0", "x != 0, x != 1/4", "r = +-sqrt(1-4x)"),
    ("w1:E5(0,0)", "w1:E5(0,0)", "[[-1, 0], [0, 0]]", "0, 0"),
    ("w1:E5:negid", "w1:E5(x,y):negid", "[[-1, 0], [0, -1]]", "x, y", "1 - xy != 0"),
    ("w1:E5(x,1-x):conj", "w1:E5(x,1-x)",
     "[[(-3-i*sqrt3)/6, -i/sqrt3], [i/sqrt3, (-3+i*sqrt3)/6]]", "x, 1-x",
     "x != (1+i*sqrt3)/2, x != (1-i*sqrt3)/2"),
    ("w1:E5(x,1-x):main", "w1:E5(x,1-x)",
     "[[(-3+i*sqrt3)/6, i/sqrt3], [-i/sqrt3, (-3-i*sqrt3)/6]]", "x, 1-x",
     "x != (1+i*sqrt3)/2, x != (1-i*sqrt3)/2"),
    # y carries no c^2 denominator: it solves c^2 + d^2 y = (2d+1)(ay + c)
    # with a = -1-d directly, and only this form makes the residual vanish
    # identically in (c, d)
    ("w1:E5:caseD", "w1:E5(x,y):caseD", "[[-1-d, -d(1+d)/c], [c, d]]",
     "x = d(1+d)(c+2cd-d(1+d))/(cc(1+3d+3dd)), y = c(1-c+2d)/(1+3d+3dd)",
     "d != 0, d != -1, 1+3d+3d^2 != 0, c != 0, 1+2d != 0, c != d(1+d)/(1+2d), "
     "c != 1+2d, 1 - xy != 0"),
    ("w1:E6(0):diag-1", "w1:E6(0)", "[[(-3+i*sqrt3)/6, 0], [0, (-3-i*sqrt3)/6]]", "0"),
    ("w1:E6(0):diag-2", "w1:E6(0)", "[[(-3-i*sqrt3)/6, 0], [0, (-3+i*sqrt3)/6]]", "0"),
    ("w1:E6(0):off-1", "w1:E6(0)", "[[(-3+i*sqrt3)/6, -i/sqrt3], [i/sqrt3, (-3-i*sqrt3)/6]]", "0"),
    ("w1:E6(0):off-2", "w1:E6(0)", "[[(-3-i*sqrt3)/6, i/sqrt3], [-i/sqrt3, (-3+i*sqrt3)/6]]", "0"),
    ("w1:E6(0):off-3", "w1:E6(0)", "[[(-3-i*sqrt3)/6, -nu/sqrt3], [nu^5/sqrt3, (-3+i*sqrt3)/6]]",
     "0", "", "", "nu = exp(i pi/6)"),
    ("w1:E6(0):off-4", "w1:E6(0)", "[[(-3+i*sqrt3)/6, nu/sqrt3], [-nu^5/sqrt3, (-3-i*sqrt3)/6]]",
     "0", "", "", "nu = exp(i pi/6)"),
    # the lower-left sign here is the one that solves the defining system;
    # the opposite sign does not (pinned in the tests)
    ("w1:E6(0):off-5", "w1:E6(0)", "[[(-3+i*sqrt3)/6, nu^5/sqrt3], [-nu/sqrt3, (-3-i*sqrt3)/6]]",
     "0", "", "", "nu = exp(i pi/6)"),
    ("w1:E6(0):off-6", "w1:E6(0)", "[[(-3-i*sqrt3)/6, -nu^5/sqrt3], [nu/sqrt3, (-3+i*sqrt3)/6]]",
     "0", "", "", "nu = exp(i pi/6)"),
    ("w1:E6:negid", "w1:E6(x):negid", "[[-1, 0], [0, -1]]", "x"),
    ("w1:E6:curve", "w1:E6(curve)", "[[(b^2-c)/(2c), b], [c, (-b^2-c)/(2c)]]",
     "(-b^3-c^3)/(bc^2)", "c != 0, b != 0, b^3 + c^3 != 0", "b = roots(1, 0, 0, 4c^3, -c^2)",
     "b^4/c + 4bc^2 = c and (b^6+5b^3c^3+4c^6)/c = c(b^3+c^3)/b"),
)


def _sqrt_branches(z: complex):
    r = cmath.sqrt(z)
    return [r, -r]


def _poly_roots(*coeffs):
    """Polynomial roots (coefficients highest first), by real then imaginary part."""
    roots = np.roots(coeffs)
    return [complex(b) for b in sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12)))]


# formulas compile against this namespace only; no builtins are reachable
_NAMESPACE = {"__builtins__": {}, "i": 1j, "sqrt3": SQRT3, "nu": NU, "sqrt": _sqrt_branches,
              "cbrt": lambda z: _cube_roots(z, COMPLEX), "roots": _poly_roots}
_TOKEN = re.compile(r"\d+|sqrt3|nu|[a-z]|[-+*/()^]")
_BRANCH = re.compile(r"(\w) = (.*?)(?:\+- ?)?(sqrt|cbrt|roots)\(([^()]*)\)(.*)")


def _source(text: str, macros: dict) -> tuple[str, set]:
    """Python source of one formula, and the parameters it reads.  A letter in
    `macros` stands for that compiled source, i and nu for themselves, and any
    other letter n reads p["n"].  A constant formula is evaluated once."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise ValueError(f"bad catalog formula {text!r}")
    out, names, prev = [], set(), "("
    for tok in tokens:
        operand = tok not in "-+*/()^"
        if (operand or tok == "(") and prev not in "-+*/(^":
            out.append("*")  # juxtaposition
        if tok.isalpha() and tok not in _NAMESPACE:
            src, used = macros.get(tok, (f"p[{tok!r}]", {tok}))
            out.append(f"({src})" if tok in macros else src)
            names |= used
        else:
            out.append("**" if tok == "^" else tok)
        prev = tok
    src = "".join(out)
    if not names:
        const = f"_k{len(_NAMESPACE)}"
        _NAMESPACE[const] = complex(eval(src, _NAMESPACE))
        src = const
    return src, names


def _function(body: str):
    return eval(f"lambda p: {body}", _NAMESPACE)


@dataclass(frozen=True)
class RboFamily:
    """One matrix template of a catalog row, compiled from its row of text
    (see _ROWS; `template` is the matrix).

    `expand` maps sampled free parameters to concrete parameter dicts (one
    per branch, e.g. the two signs of a square root); `mat` and `algebra_params`
    read the operator matrix and the algebra parameters off an expanded dict.
    `conditions` are margin-checked quantities that must stay away from zero
    for the sample to be admissible, `branch_conditions` likewise per branch.
    """

    family_id: str
    row_id: str
    template: str
    algebra_text: str = ""
    conditions_text: str = ""
    branch_text: str = ""
    note: str = ""

    def __post_init__(self):
        slots = self.template[2:-2].replace("], [", ", ").split(", ")
        mat = [_source(s, {}) for s in slots]
        items = [item.rpartition(" = ") for item in filter(None, self.algebra_text.split(", "))]
        params = [_source(formula, {}) for _, _, formula in items]
        macros = {name: src for (name, _, _), src in zip(items, params) if name}
        var, expand = None, None
        if self.branch_text:
            var, head, roots, args, tail = _BRANCH.fullmatch(self.branch_text).groups()
            # _w takes each value of the namespace's sqrt, cbrt or roots in turn
            value = _source(f"{head}+{var}{tail}" if head else var, {var: ("_w", {var})})[0]
            args = ", ".join(_source(a, {})[0] for a in args.split(", "))
            expand = _function(f"[{{**p, {var!r}: {value}}} for _w in {roots}({args})]")
        conds = []
        for item in filter(None, self.conditions_text.split(", ")):
            left, right = item.split(" != ")
            conds.append(_source(left if right == "0" else f"({left})-({right})", macros))
        free = sorted(set().union(*(used for _, used in mat + params)) - {var})
        self.__dict__.update(  # the compiled attributes; the dataclass is frozen
            weight=int(self.family_id[1]),
            algebra=self.family_id.split(":")[1][:2],
            free_params=tuple(free),
            mat=_function("(({}, {}), ({}, {}))".format(*(s for s, _ in mat))),
            algebra_params=_function("({})".format("".join(s + ", " for s, _ in params))),
            expand=expand,
            conditions=tuple(_function(s) for s, used in conds if var not in used),
            branch_conditions=tuple(_function(s) for s, used in conds if var in used),
            # a free parameter is read off the first slot that is that name
            # alone, otherwise off the algebra parameters (x first, then y)
            read_off=tuple((n, slots.index(n) if n in slots else 4 + "xy".index(n))
                           for n in free),
        )

    @property
    def isolated(self) -> bool:
        return not self.free_params

    def sample_params(self, rng: random.Random) -> dict:
        """Draw admissible free parameters from the complex box [-2,2]^2
        (at most 200 draws)."""
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
        out = []
        for q in self.expand(p) if self.expand else [dict(p)]:
            if not any(abs(cond(q)) < MARGIN for cond in self.branch_conditions):
                out.append((self.mat(q), self.algebra_params(q)))
        return out

    def candidate_matrices(self, algebra_params, R):
        """Matrices of this family closest in spirit to R (for annotating
        search output): the free parameters read off R and algebra_params,
        expanded over every branch."""
        g = {n: R[k // 2][k % 2] if k < 4 else algebra_params[k - 4] for n, k in self.read_off}
        return [(self.mat(q), self.algebra_params(q))
                for q in (self.expand(g) if self.expand else [g])]


_ALL_FAMILIES = [RboFamily(*row) for row in _ROWS]


def catalog(algebra: str, weight: int) -> list[RboFamily]:
    """All catalog families for one algebra tag and weight."""
    if algebra not in ALGEBRAS:
        raise UnknownAlgebraError(f"no catalog for algebra {algebra!r}")
    if weight not in (0, 1):
        raise ValueError("weight must be 0 or 1")
    return [f for f in _ALL_FAMILIES if f.algebra == algebra and f.weight == weight]


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
    of every instantiation, VERIFY_BLOCK samples per rb_components call on
    lanes and bit for bit as one at a time; isolated matrices are checked
    once, on the same lanes, at the exact (1e-12) bound."""
    if param_samples < 1:
        raise ValueError("param_samples must be >= 1")
    check_tolerance(tol)
    rng = random.Random((seed * 1_000_003) ^ zlib.crc32(fam.family_id.encode()))
    if fam.isolated:
        insts = fam.instantiate({})
        worst = max([0.0, *(_block_norms(fam, insts).tolist() if insts else [])])
        return FamilyReport(fam.family_id, len(insts), worst, None, ISOLATED_TOL,
                            worst <= ISOLATED_TOL)
    worst, worst_params, done = 0.0, None, 0
    while done < param_samples:
        end = min(done + VERIFY_BLOCK, param_samples)
        insts, owners = [], []
        try:
            while done < end:
                p = fam.sample_params(rng)
                got = fam.instantiate(p)
                insts += got
                owners += [p] * len(got)
                done += bool(got)
        finally:  # on a raise, the lanes drawn before it are checked first
            if insts:
                norms = _block_norms(fam, insts)
        k = int(np.argmax(norms))  # the first lane of the largest residual
        if norms[k] > worst:
            worst, worst_params = float(norms[k]), owners[k]
    return FamilyReport(fam.family_id, param_samples, worst, worst_params, tol, worst <= tol)


def _block_norms(fam: RboFamily, insts) -> np.ndarray:
    """rb_residual_norm_general of each instantiation (R, ap) of `fam`, bit
    for bit, from one rb_components call on lanes.  A lane that one of its
    checks would reject goes through it, and raises as it does."""
    cols = np.array([(*R[0], *R[1], *ap) for R, ap in insts], dtype=complex).T
    z = [ComplexLanes(col.real.copy(), col.imag.copy()) for col in cols]
    # the integer entries of the canonical rows can flip the sign of a zero
    # component, never a modulus
    a = canonical_rows(COMPLEX, fam.algebra, z[4:])
    with np.errstate(all="ignore"):
        comps = lanes_array(rb_components(a, ((z[0], z[1]), (z[2], z[3])), fam.weight), len(insts))
        norms = np.hypot(comps.real, comps.imag).max(axis=1)  # abs(complex) bit for bit
    # every entry and parameter reaches some component, so a non-finite one
    # leaves the norm non-finite, as does a component abs() cannot take
    bad = ~np.isfinite(norms)
    if fam.algebra == "E5":  # AlgebraClass's degeneracy test, in CPython's arithmetic
        bad |= [1 - x * y == 0 for _, (x, y) in insts]
    for k in np.flatnonzero(bad):
        R, ap = insts[k]
        norms[k] = rb_residual_norm_general(algebra_matrix(fam.algebra, ap), R, fam.weight)
    return norms


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
    check_tolerance(tol)
    rng = random.Random(seed)
    out = []

    def point(case_id, desc, x, y):
        out.append(ExclusionCheck(case_id, desc, 1, abs(x * y - 1.0), abs(x * y - 1.0) <= tol))

    point("quartic-b1c1", "a=0, b=c=1, d=0 forces x=y=-1", -1.0, -1.0)
    point("quartic-d2", "a=0, b=-1, c=1, d=-2 forces x=y=-1", -1.0, -1.0)
    point("caseA-allneg", "a=b=c=d=-1 forces x=y=1", 1.0, 1.0)

    bad = (0.0, -0.5, -1.0, P_PLUS, P_MINUS)  # where the formulas below break down

    def sampled(case_id, desc):
        # desc holds the two formulas, compiled like the catalog's
        (xs, (var,)), (ys, _) = (_source(item.split(" = ")[1], {}) for item in desc.split(", "))
        xy = _function(f"({xs}, {ys})")
        worst = 0.0
        got = 0
        while got < samples:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if any(abs(z - w) < MARGIN for w in bad):
                continue
            x, y = xy({var: z})
            worst = max(worst, abs(x * y - 1.0))
            got += 1
        out.append(ExclusionCheck(case_id, desc, samples, worst, worst <= tol))

    sampled("caseB-1", "x1 = -(1+2a)^2/a^2, y1 = -a^2/(1+2a)^2")
    sampled("caseB-2", "x2 = -(1+2a)^2/(1+a)^2, y2 = -(1+a)^2/(1+2a)^2")
    sampled("caseC-1", "x1 = -d^2/(1+2d)^2, y1 = -(1+2d)^2/d^2")
    sampled("caseC-2", "x2 = -(1+d)^2/(1+2d)^2, y2 = -(1+2d)^2/(1+d)^2")
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
    check_tolerance(tol)
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
    # all starts run in lockstep, each row of the stack a start of its own
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
    for tag in ALGEBRAS:
        params = layout.get(tag, ())
        try:
            B = algebra_matrix(tag, params)
        except ValueError:  # a degenerate E5 layout, 1 - a12*a21 = 0
            continue
        if B.entries == A.entries:
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


def symbolic_algebra(tag: str):
    """Rows of a canonical complex algebra with its parameters (x, or x and
    y) as polynomial entries; derive_system lifts the numeric ones."""
    if tag not in ALGEBRAS:
        raise UnknownAlgebraError(f"no symbolic form for {tag!r}")
    return canonical_rows(COMPLEX, tag, (Poly.var(_N2_VARS, "x"), Poly.var(_N2_VARS, "y")))


def derive_system(A, weight: int, tol: float = 1e-12) -> DerivedSystem:
    """Expand the Rota-Baxter identity into polynomial equations in the
    operator entries.

    `A` is a StructureMatrix or (for dimension 2) a nested sequence whose
    entries may be Poly values carrying algebra symbols (see
    symbolic_algebra).  Identically zero equations (tautologies, e.g. the
    a*c = a*c slot of E1) are dropped and reported separately.
    """
    check_tolerance(tol)
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
