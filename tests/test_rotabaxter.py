import cmath
import math
import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg.core import (EvoalgError, StructureMatrix, rb_components, rb_jacobian_rows,
                         rb_residual_norm_general)
from evoalg.numerics import complex_jacobian_to_real
from evoalg.polys import Poly
import evoalg.rotabaxter as rbo
from evoalg.rotabaxter import (
    P_MINUS,
    P_PLUS,
    FamilyReport,
    RboFamily,
    UnknownAlgebraError,
    _ALL_FAMILIES,
    algebra_matrix,
    catalog,
    derive_system,
    search,
    symbolic_algebra,
    verify_exclusions,
    verify_family,
)

from conftest import golden_poly, normalized_terms, poly_value, random_complex_matrix


def _by_id(fams, fid):
    return next(f for f in fams if f.family_id == fid)


def test_catalog_row_counts():
    assert len({f.row_id for f in _ALL_FAMILIES if f.weight == 0}) == 8
    assert len({f.row_id for f in _ALL_FAMILIES if f.weight == 1}) == 16


def test_catalog_examples():
    fams = catalog("E1", 0)
    assert len(fams) == 1 and fams[0].template == "[[0, b], [0, d]]"
    fams = catalog("E2", 1)
    assert len(fams) == 6
    half = _by_id(fams, "w1:E2:half-plus")
    assert half.instantiate({})[0][0] == ((-0.5 + 0j, 0.5j), (-0.5j, -0.5 + 0j))
    fams = catalog("E5", 1)
    fixed = _by_id(fams, "w1:E5(0,0)")
    R, ap = fixed.instantiate({})[0]
    assert R == ((-1 + 0j, 0j), (0j, 0j)) and ap == (0.0, 0.0)
    # the caseD y that makes the residual vanish, written as it is evaluated
    assert "y = c(1-c+2d)/(1+3d+3dd)" in _by_id(fams, "w1:E5:caseD").algebra_text
    with pytest.raises(UnknownAlgebraError):
        catalog("E0", 0)
    with pytest.raises(ValueError):
        catalog("E1", 2)


def test_catalog_never_empty_per_row():
    for w in (0, 1):
        for tag in ("E1", "E2", "E3", "E4", "E5", "E6"):
            fams = catalog(tag, w)
            if w == 0 and tag in ("E1", "E2", "E3", "E4", "E5", "E6"):
                assert fams, (tag, w)


def test_verify_family_spot_checks():
    fams = catalog("E2", 0)
    for fam in fams:
        rep = verify_family(fam, param_samples=100, seed=1)
        assert rep.passed and rep.worst_residual <= 1e-12

    # zero matrix as a degenerate member of the E1 weight-0 family
    fam = catalog("E1", 0)[0]
    R, ap = fam.instantiate({"b": 0j, "d": 0j})[0]
    assert rb_residual_norm_general(algebra_matrix("E1"), R, 0) == 0.0


def test_verify_family_rejects_no_samples():
    # no samples would check nothing and still pass, so it is refused,
    # isolated rows included
    for fam in (catalog("E2", 0)[0], _by_id(catalog("E2", 1), "w1:E2:half-plus")):
        for n in (0, -1):
            with pytest.raises(ValueError):
                verify_family(fam, param_samples=n)


def _verify_one_at_a_time(fam, param_samples, seed, tol=1e-9):
    # the per-sample loop that verify_family batches: one scalar residual
    # check per instantiation, the first strictly larger residual wins
    rng = random.Random((seed * 1_000_003) ^ zlib.crc32(fam.family_id.encode()))
    worst, worst_params, done = 0.0, None, 0
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


_SAMPLED = [f for f in _ALL_FAMILIES if not f.isolated]


def _same_report(got, want):
    assert got == want
    assert got.worst_residual.hex() == want.worst_residual.hex()
    assert type(got.worst_residual) is float and type(got.passed) is bool


@given(st.sampled_from(_SAMPLED), st.integers(0, 2**16), st.sampled_from([1, 2, 15, 16, 17, 40]))
@settings(max_examples=80, deadline=None)
def test_batched_verify_is_the_one_at_a_time_loop(fam, seed, param_samples):
    # a 16-sample block puts the sample counts around and above a block edge
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rbo, "VERIFY_BLOCK", 16)
        got = verify_family(fam, param_samples, seed)
    _same_report(got, _verify_one_at_a_time(fam, param_samples, seed))


@pytest.mark.parametrize("fid", ["w1:E5:caseD", "w1:E6:curve", "w0:E2:plus"])
def test_batched_verify_across_a_full_block(fid):
    fam = next(f for f in _SAMPLED if f.family_id == fid)
    n = rbo.VERIFY_BLOCK + 1
    _same_report(verify_family(fam, n, seed=5), _verify_one_at_a_time(fam, n, seed=5))


# finite operator entries on E1 whose weight-1 residual components are
# finite, but too large for abs(): rb_residual_norm_general raises OverflowError
_ABS_OVERFLOW = ((2.2475103781889018e+153+4.74720865724503e+153j,
                  -2.037641340436372e+153-3.48605187051679e+153j),
                 (1.2932425359566785e+154-6.329965651736206e+153j,
                  7.336494238125658e+153-1.8209898056036592e+153j))


def _fault(kind, R, ap):
    if kind == "nan-entry":
        return ((complex(math.nan, 0), R[0][1]), R[1]), ap
    if kind == "inf-param":
        return R, (complex(0, math.inf),) + ap[1:]
    if kind == "degenerate":  # 1 - xy = 0
        return R, (2 + 0j, 0.5 + 0j)
    if kind == "huge-entry":  # products overflow to a non-finite residual
        return tuple(tuple(z * 1e200 for z in row) for row in R), ap
    if kind == "abs-overflow":
        return _ABS_OVERFLOW, ap
    raise EvoalgError("injected failure while instantiating")


@pytest.mark.parametrize("fid, faults", [
    ("w0:E1", {3: "nan-entry"}),
    ("w0:E1", {1: "nan-entry", 2: "huge-entry"}),
    ("w1:E5:caseD", {5: "degenerate"}),
    ("w1:E5:caseD", {5: "inf-param"}),
    ("w1:E6:curve", {7: "inf-param"}),
    ("w1:E5(0,y):cneg", {4: "huge-entry"}),
    ("w1:E1:neg", {6: "abs-overflow"}),
    ("w0:E2:plus", {9: "raise"}),
    ("w0:E2:plus", {1: "raise"}),
    ("w1:E5:caseD", {3: "degenerate", 8: "raise"}),
    ("w1:E5:caseD", {3: "raise", 2: "nan-entry"}),
])
def test_batched_verify_fails_like_the_one_at_a_time_loop(monkeypatch, fid, faults):
    # instantiate call k (from 1) is given a fault; the batched check must
    # raise what checking one instantiation at a time raises first
    fam = next(f for f in _SAMPLED if f.family_id == fid)
    instantiate = RboFamily.instantiate

    def outcome(verify):
        calls = []

        def faulty(self, p):
            calls.append(p)
            insts = instantiate(self, p)
            kind = faults.get(len(calls))
            return [_fault(kind, *insts[0])] + insts[1:] if kind and insts else insts

        monkeypatch.setattr(RboFamily, "instantiate", faulty)
        with pytest.raises(Exception) as err:
            verify(fam, 40, 2)
        return type(err.value), str(err.value)

    want = outcome(_verify_one_at_a_time)
    assert outcome(verify_family) == want
    assert want[0] in (ValueError, OverflowError, EvoalgError)


def test_verify_checks_a_block_in_one_kernel_call(monkeypatch):
    # the batched path never builds a structure matrix or runs the scalar
    # kernel when every lane passes its checks: one rb_components per block
    calls = []
    kernel = rbo.rb_components

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    def scalar(*args):
        raise AssertionError("per-sample path")

    monkeypatch.setattr(rbo, "rb_components", counted)
    monkeypatch.setattr(rbo, "algebra_matrix", scalar)
    monkeypatch.setattr(rbo, "rb_residual_norm_general", scalar)
    assert rbo.VERIFY_BLOCK >= 200
    sizes = ((rbo.VERIFY_BLOCK, 1), (64, 4))
    for fid in ("w1:E5:caseD", "w1:E6:curve", "w0:E1"):
        fam = next(f for f in _SAMPLED if f.family_id == fid)
        for block, blocks in sizes:
            monkeypatch.setattr(rbo, "VERIFY_BLOCK", block)
            calls.clear()
            assert verify_family(fam, 200, seed=1).passed
            assert len(calls) == blocks, (fid, block)


def test_case_d_admissible_point():
    fam = _by_id(catalog("E5", 1), "w1:E5:caseD")
    insts = fam.instantiate({"c": 1.0 + 0j, "d": 1.0 + 0j})
    assert insts
    R, (x, y) = insts[0]
    assert abs(x - 2.0 / 7.0) < 1e-12 and abs(y - 2.0 / 7.0) < 1e-12
    assert rb_residual_norm_general(algebra_matrix("E5", (x, y)), R, 1) < 1e-9


def test_case_d_y_alternative_forms():
    # two algebraically equal rewritings of the y-parameter with an extra
    # 1/c^2 factor: they agree away from c = 0 but only the catalog's form
    # (their value times c^2) gives a vanishing residual
    rng = random.Random(3)
    fam = _by_id(catalog("E5", 1), "w1:E5:caseD")

    def y_quotient(c, d):
        return c * (1.0 - c + 2.0 * d) / (c * c * (1.0 + 3.0 * d + 3.0 * d * d))

    def y_quotient_cancelled(c, d):
        return (1.0 - c + 2.0 * d) / (c * (1.0 + 3.0 * d + 3.0 * d * d))

    for _ in range(25):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        d = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(c) < 0.1 or abs(1 + 3 * d + 3 * d * d) < 0.1:
            continue
        qa = y_quotient(c, d)
        qb = y_quotient_cancelled(c, d)
        assert abs(qa - qb) <= 1e-12 * max(1.0, abs(qa))
        _, (_, y) = fam.instantiate({"c": c, "d": d})[0]
        assert abs(qa * c * c - y) <= 1e-12 * max(1.0, abs(y))


def test_full_tables_pass():
    for w in (0, 1):
        for fam in _ALL_FAMILIES:
            if fam.weight == w:
                rep = verify_family(fam, param_samples=60, seed=2)
                assert rep.passed, rep.summary()


def test_e5_x0_sign_sets_agree():
    # table parameterization -(1 +- sqrt(1-4x))/2 and the case-analysis form
    # (-1 +- sqrt(1-4x))/2 describe the same two-element set
    rng = random.Random(4)
    for _ in range(20):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = cmath.sqrt(1 - 4 * x)
        table = {round((-(1 + r) / 2).real, 9) + 1j * round((-(1 + r) / 2).imag, 9),
                 round((-(1 - r) / 2).real, 9) + 1j * round((-(1 - r) / 2).imag, 9)}
        body = {round(((-1 + r) / 2).real, 9) + 1j * round(((-1 + r) / 2).imag, 9),
                round(((-1 - r) / 2).real, 9) + 1j * round(((-1 - r) / 2).imag, 9)}
        assert table == body


def test_e6_zero_row_matrices_solve_system():
    for fam in catalog("E6", 1):
        if fam.row_id != "w1:E6(0)":
            continue
        R, ap = fam.instantiate({})[0]
        assert ap == (0.0,)
        assert rb_residual_norm_general(algebra_matrix("E6", (0,)), R, 1) < 1e-12


def test_e6_zero_sign_variant_fails():
    # flipping the lower-left sign of the off-5 matrix breaks the defining
    # system; the catalog carries the solving sign
    bad = ((P_PLUS, (cmath.exp(1j * math.pi / 6) ** 5) / math.sqrt(3)),
           (cmath.exp(1j * math.pi / 6) / math.sqrt(3), P_MINUS))
    assert rb_residual_norm_general(algebra_matrix("E6", (0,)), bad, 1) > 1e-2


def test_exclusions_all_confirmed():
    checks = verify_exclusions(samples=12, seed=0)
    ids = {c.case_id for c in checks}
    assert {"quartic-b1c1", "quartic-d2", "caseA-allneg",
            "caseB-1", "caseB-2", "caseC-1", "caseC-2"} <= ids
    for c in checks:
        assert c.passed and c.max_defect <= 1e-12, c


def test_case_b_at_unit_parameter():
    x1, y1 = -(1 + 2 * 1) ** 2 / 1**2, -(1**2) / (1 + 2 * 1) ** 2
    assert x1 == -9 and abs(y1 + 1 / 9) < 1e-15
    assert x1 * y1 == 1.0


def test_search_zero_algebra_everything_solves():
    A = StructureMatrix.zero(2)
    pts = search(A, 0, starts=10, seed=0)
    assert len(pts) == 10
    for p in pts:
        assert p.residual == 0.0
    with pytest.raises(EvoalgError, match="^search supports dimension 2 only$"):
        search(StructureMatrix.zero(3), 0, starts=10)


def test_search_e2_weight0_lines():
    pts = search(algebra_matrix("E2"), 0, starts=150, seed=0)
    assert pts
    for p in pts:
        R = p.matrix
        best = 1e9
        for s in (1, -1):
            cfit = (R[1][0] - s * 1j * R[1][1]) / 2
            d = max(abs(R[0][0]), abs(R[0][1]),
                    abs(R[1][0] - cfit), abs(R[1][1] - s * 1j * cfit))
            best = min(best, d)
        assert best <= 1e-6
        assert p.annotation in ("w0:E2:plus", "w0:E2:minus", "trivial-zero")


@pytest.mark.parametrize("tag, params", [("E5", (0.3, -0.7)), ("E5", (0.3, 0)),
                                         ("E6", (0.5,))])
def test_search_annotates_against_the_given_algebra(tag, params):
    # solutions on a parametric canonical algebra are matched against the
    # catalog at its own parameters, not at a reordered representative
    families = {f.family_id for f in catalog(tag, 1)}
    pts = search(algebra_matrix(tag, params), 1, starts=150, seed=0)
    assert pts
    for p in pts:
        assert p.annotation in families | {"trivial-zero"}, (p.matrix, p.annotation)


def test_search_degenerate_layout_names_no_family():
    # read as the E5 layout, [[1, 1], [1, 1]] would be E5(1, 1), which is
    # degenerate; it is no canonical algebra, so no catalog family applies
    pts = search(StructureMatrix.from_rows([[1, 1], [1, 1]]), 1, starts=40, seed=0)
    assert pts
    assert {p.annotation for p in pts} <= {"trivial-zero", "uncataloged"}


def test_search_deterministic():
    A = algebra_matrix("E3")
    p1 = search(A, 0, starts=60, seed=5)
    p2 = search(A, 0, starts=60, seed=5)
    assert [(p.matrix, p.residual, p.annotation) for p in p1] == [
        (p.matrix, p.residual, p.annotation) for p in p2
    ]


def test_rb_jacobian_matches_finite_differences():
    rng = random.Random(6)
    for _ in range(25):
        A = StructureMatrix.from_rows(random_complex_matrix(rng, 2))
        weight = rng.choice((0, 1))
        x0 = np.array([rng.uniform(-2, 2) for _ in range(8)])

        def unpack(x):
            return ((complex(x[0], x[1]), complex(x[2], x[3])),
                    (complex(x[4], x[5]), complex(x[6], x[7])))

        def resid(x):
            comps = rb_components(A.entries, unpack(x), weight)
            out = np.empty(12)
            out[0::2] = [z.real for z in comps]
            out[1::2] = [z.imag for z in comps]
            return out

        J = complex_jacobian_to_real(np.array(rb_jacobian_rows(A.entries, unpack(x0), weight)))
        step = 1e-6
        J_fd = np.empty_like(J)
        for k in range(8):
            dx = np.zeros(8)
            dx[k] = step
            J_fd[:, k] = (resid(x0 + dx) - resid(x0 - dx)) / (2 * step)
        denom = max(1.0, np.max(np.abs(J)))
        assert np.max(np.abs(J - J_fd)) / denom <= 1e-5


def test_derive_system_vs_residual_consistency():
    rng = random.Random(8)
    for _ in range(30):
        Ae = random_complex_matrix(rng, 2)
        Re = random_complex_matrix(rng, 2)
        weight = rng.choice((0, 1))
        system = derive_system(StructureMatrix.from_rows(Ae), weight, tol=0.0)
        comps = rb_components(Ae, Re, weight)
        values = {"a": Re[0][0], "b": Re[0][1], "c": Re[1][0], "d": Re[1][1],
                  "x": 0j, "y": 0j}
        order = {((1, 1), 1): 0, ((1, 1), 2): 1, ((2, 2), 1): 2, ((2, 2), 2): 3,
                 ((1, 2), 1): 4, ((1, 2), 2): 5}
        for eq in system.equations:
            got = poly_value(eq.poly, values)
            want = comps[order[(eq.pair, eq.coord)]]
            # sign normalization may flip the equation
            assert min(abs(got - want), abs(got + want)) <= 1e-12 * max(1.0, abs(want))


def test_derive_system_zero_algebra_empty():
    system = derive_system(StructureMatrix.zero(2), 0)
    assert system.equations == ()
    assert len(system.tautologies) == 6


def test_derive_system_e1_w0():
    system = derive_system(algebra_matrix("E1"), 0)
    got = {str(eq.poly) for eq in system.equations}
    assert got == {"a^2", "2*a*b", "b*c", "c^2"}
    assert ((1, 2), 1) in system.tautologies  # the a*c = a*c slot


def test_derive_system_e6_symbolic_w1():
    system = derive_system(symbolic_algebra("E6"), 1)
    assert len(system.equations) == 6
    golden = [
        "b^2 = (2a+1)c",
        "a^2 + b^2 x = (2a+1)d",
        "d^2 = (2d+1)(a+cx)",
        "c^2 + d^2 x = (2d+1)(b+dx)",
        "bd = ab + c^2 + bcx",
        "ac = cd + b^2",
    ]
    want = {golden_poly(g, system.variables).sign_normalized(0.0).terms for g in golden}
    assert normalized_terms(system, 0.0) == want
    with pytest.raises(ValueError, match="^symbolic entries must use the standard variable list$"):
        derive_system(((Poly.var(("x",), "x"), 0), (0, 0)), 1)


def test_derive_system_dimension_3():
    rng = random.Random(9)
    Ae = random_complex_matrix(rng, 3)
    system = derive_system(StructureMatrix.from_rows(Ae), 1)
    assert system.dim == 3
    assert system.variables[0] == "r11"
    # evaluate one equation against the core residual
    from conftest import brute_force_rb_residual

    Re = random_complex_matrix(rng, 3)
    values = {f"r{i+1}{j+1}": Re[i][j] for i in range(3) for j in range(3)}
    grid = brute_force_rb_residual(Ae, Re, 1)
    for eq in system.equations[:6]:
        got = poly_value(eq.poly, values)
        want = grid[eq.pair[0] - 1][eq.pair[1] - 1][eq.coord - 1]
        assert min(abs(got - want), abs(got + want)) <= 1e-10 * max(1.0, abs(want))


def test_poly_parser_roundtrip():
    p = golden_poly("b^2 y = a^2 + 2acx", ("a", "b", "c", "d", "x", "y"))
    vals = {"a": 1 + 1j, "b": 2.0, "c": -0.5j, "d": 3.0, "x": 0.25, "y": -2.0}
    want = (2.0**2) * (-2.0) - ((1 + 1j) ** 2 + 2 * (1 + 1j) * (-0.5j) * 0.25)
    assert abs(poly_value(p, vals) - want) < 1e-12
    V = ("a", "b")
    assert str(Poly.const(V, 0)) == "0"
    assert (str(Poly.from_dict(V, {(0, 0): 1.5 - 2j, (0, 1): -2j, (1, 0): 1j, (2, 0): -0.5 + 1j}))
            == "(1.5-2*i) + -2*i*b + i*a + (-0.5+1*i)*a^2")
    with pytest.raises(KeyError, match="unknown variable 'z'"):
        Poly.var(V, "z")
    with pytest.raises(ValueError, match="^variable lists differ$"):
        Poly.var(V, "a") + Poly.var(("a",), "a")


def test_search_vs_catalog_e1_to_e4():
    # every search solution on E1..E4 (both weights) lies within 1e-6 of a
    # catalog family; the zero map sits inside a family for these algebras
    for tag in ("E1", "E2", "E3", "E4"):
        for weight in (0, 1):
            pts = search(algebra_matrix(tag), weight, starts=80, seed=1)
            assert pts, (tag, weight)
            for p in pts:
                assert p.annotation not in ("uncataloged", "trivial-zero"), (
                    tag, weight, p.matrix, p.annotation)
