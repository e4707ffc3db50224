import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from evoalg.core import (
    AlgebraElement,
    ComplexLanes,
    DimensionMismatchError,
    MatrixFormatError,
    RotaBaxterOperator,
    StructureMatrix,
    _checked_components,
    format_complex,
    lanes_array,
    multiply,
    parse_complex,
    parse_matrix,
    rb_components,
    rb_jacobian_rows,
    rb_pairs,
    rb_residual,
    rb_residual_norm,
    rb_residual_norm_general,
)
from evoalg.rotabaxter import algebra_matrix, derive_system

from conftest import brute_force_rb_residual, poly_value, random_complex_matrix

SM = StructureMatrix.from_rows
E = AlgebraElement

# entries from subnormal up to 1e6 in modulus
entries = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


def square_matrices(n):
    row = st.tuples(*[entries] * n)
    return st.tuples(*[row] * n)


def rb_term_scale(Ae, Re, weight):
    """Bound on the terms summed in one residual component: n |A| |R| (3|R| + |w|)."""
    n = len(Ae)
    ma = max(abs(z) for row in Ae for z in row)
    mr = max(abs(z) for row in Re for z in row)
    return max(1.0, n * ma * mr * (3 * mr + abs(weight)))


def test_multiply_idempotent_basis():
    # complex E1: e1 e1 = e1
    A = SM([[1, 0], [0, 0]])
    out = multiply(A, E.basis(0, 2), E.basis(0, 2))
    assert out.coords == (1 + 0j, 0j)


def test_multiply_distinct_basis_vanishes():
    A = SM([[0.3, -1.2], [7, 0.25]])
    out = multiply(A, E.basis(0, 2), E.basis(1, 2))
    assert out.coords == (0j, 0j)


def test_multiply_e6_table():
    # e1e1 = e2, e2e2 = e1 + 2 e2
    A = SM([[0, 1], [1, 2]])
    out = multiply(A, E.basis(1, 2), E.basis(1, 2))
    assert out.coords == (1 + 0j, 2 + 0j)


def test_multiply_dimension_mismatch():
    A = SM([[1, 0], [0, 0]])
    with pytest.raises(DimensionMismatchError):
        multiply(A, E((1, 0, 0)), E.basis(0, 2))


def test_multiply_commutative_bitwise():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.choice((2, 3))
        A = SM(random_complex_matrix(rng, n))
        x = E(tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)))
        y = E(tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)))
        assert multiply(A, x, y).coords == multiply(A, y, x).coords


def test_multiply_bilinear():
    rng = random.Random(12)
    for _ in range(60):
        A = SM(random_complex_matrix(rng, 2))
        x, z, y = (
            E(tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)))
            for _ in range(3)
        )
        al = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        be = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        combo = E(tuple(al * u + be * v for u, v in zip(x.coords, z.coords)))
        left = multiply(A, combo, y).coords
        right = tuple(
            al * u + be * v
            for u, v in zip(multiply(A, x, y).coords, multiply(A, z, y).coords)
        )
        scale = max(1.0, max(abs(v) for v in left + right))
        assert max(abs(l - r) for l, r in zip(left, right)) <= 1e-12 * scale


def test_rb_residual_e1_weight0_family():
    A = SM([[1, 0], [0, 0]])
    for b, d in ((0.5, -2j), (0, 0), (1 + 1j, 3)):
        R = RotaBaxterOperator.from_rows([[0, b], [0, d]], 0)
        assert rb_residual_norm(A, R) == 0.0


def test_rb_residual_zero_operator():
    rng = random.Random(13)
    for weight in (0, 1):
        A = SM(random_complex_matrix(rng, 3))
        R = RotaBaxterOperator.from_rows([[0] * 3] * 3, weight)
        assert rb_residual_norm(A, R) == 0.0


def test_rb_residual_e2_projection():
    # E2 with R projecting onto e1: LHS(1,1) = e1, RHS = P(2 e1) = 2 e1
    A = SM([[1, 0], [1, 0]])
    R = RotaBaxterOperator.from_rows([[1, 0], [0, 0]], 0)
    grid = rb_residual(A, R)
    assert grid[0][0] == (-1 + 0j, 0j)
    oracle = brute_force_rb_residual(A.entries, R.entries, 0)
    assert grid[0][0] == oracle[0][0]


def test_rb_residual_norm_examples():
    A = SM([[1, 0], [1, 0]])
    c = 3.0
    R = RotaBaxterOperator.from_rows([[0, 0], [c, 1j * c]], 0)
    assert rb_residual_norm(A, R) <= 1e-12
    E4 = SM([[0, 1], [0, 0]])
    a = 1.0
    R = RotaBaxterOperator.from_rows([[a, 0], [0, a * a / (1 + 2 * a)]], 1)
    assert rb_residual_norm(E4, R) <= 1e-12


def test_rb_residual_symmetric_grid():
    rng = random.Random(14)
    A = SM(random_complex_matrix(rng, 3))
    R = RotaBaxterOperator(random_complex_matrix(rng, 3), 1)
    grid = rb_residual(A, R)
    for i in range(3):
        for j in range(3):
            assert grid[i][j] == grid[j][i]


def test_rb_residual_matches_brute_force():
    rng = random.Random(15)
    for n in (2, 3):
        for _ in range(40):
            Ae = random_complex_matrix(rng, n)
            Re = random_complex_matrix(rng, n)
            weight = rng.choice((0, 1))
            grid = rb_residual(SM(Ae), RotaBaxterOperator(Re, weight))
            oracle = brute_force_rb_residual(Ae, Re, weight)
            worst = max(
                abs(grid[i][j][k] - oracle[i][j][k])
                for i in range(n) for j in range(n) for k in range(n)
            )
            assert worst <= 1e-12


def test_weight_reduction_property():
    # weight-1 solutions rescale: mu*R satisfies the weight-mu identity
    A = SM([[1, 0], [1, 0]])  # E2
    rng = random.Random(16)
    for _ in range(20):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        R = ((-1, 0), (c, -1 + 1j * c))
        assert rb_residual_norm_general(A, R, 1) <= 1e-12
        mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(mu) < 0.1:
            mu += 0.5
        muR = tuple(tuple(mu * z for z in row) for row in R)
        assert rb_residual_norm_general(A, muR, mu) <= 1e-9


def test_operator_weight_validation():
    with pytest.raises(ValueError):
        RotaBaxterOperator.from_rows([[0, 0], [0, 0]], 2)
    with pytest.raises(ValueError, match="^operator matrix must be square$"):
        RotaBaxterOperator.from_rows([[0, 0], [0]], 0)


def test_parse_complex_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("-0.5+0i") == -0.5
    assert parse_complex("1.5e-3-2i") == complex(0.0015, -2)
    with pytest.raises(MatrixFormatError):
        parse_complex("1.5")
    with pytest.raises(MatrixFormatError):
        parse_complex("i")


def test_matrix_file_roundtrip(tmp_path):
    rng = random.Random(17)
    A = SM(random_complex_matrix(rng, 3))
    text = "3\n" + "".join(" ".join(map(format_complex, row)) + "\n" for row in A.entries)
    B = parse_matrix(text)
    assert A.entries == B.entries
    p = tmp_path / "m.txt"
    p.write_text(text, encoding="ascii")
    from evoalg.core import read_matrix_file

    assert read_matrix_file(p).entries == A.entries


def test_matrix_parse_errors():
    with pytest.raises(MatrixFormatError):
        parse_matrix("")
    with pytest.raises(MatrixFormatError):
        parse_matrix("x\n1+0i")
    with pytest.raises(MatrixFormatError):
        parse_matrix("2\n1+0i 0+0i\n")  # missing row
    with pytest.raises(MatrixFormatError):
        parse_matrix("2\n1+0i\n0+0i 1+0i\n")  # short row
    with pytest.raises(MatrixFormatError):
        parse_matrix("1\nnope\n")
    with pytest.raises(MatrixFormatError, match="^dimension must be positive, got 0$"):
        parse_matrix("0\n")
    # the StructureMatrix fault of a real-mode file becomes a format error
    with pytest.raises(MatrixFormatError,
                       match="^real-mode matrix has a nonzero imaginary part$"):
        parse_matrix("1\n0+1i\n", "real")


def test_real_mode_rejects_imaginary():
    with pytest.raises(ValueError):
        SM([[1j, 0], [0, 0]], "real")


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        SM([[float("nan"), 0], [0, 0]])
    with pytest.raises(ValueError):
        AlgebraElement((float("inf"), 0))


def test_format_complex_roundtrip():
    for z in (1j, -0.5, complex(0.0015, -2), complex(-1.25, 3.5)):
        assert parse_complex(format_complex(z)) == z


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(square_matrices(n), square_matrices(n), entries)))
@settings(max_examples=200, deadline=None)
def test_rb_residual_matches_brute_force_any_dim_and_weight(case):
    Ae, Re, weight = case
    n = len(Ae)
    comps = _checked_components(SM(Ae), Re, weight)
    oracle = brute_force_rb_residual(Ae, Re, weight)
    worst = max(abs(comps[n * p + k] - oracle[i][j][k])
                for p, (i, j) in enumerate(rb_pairs(n)) for k in range(n))
    assert worst <= 1e-12 * rb_term_scale(Ae, Re, weight)


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(square_matrices(n), square_matrices(n), st.integers(0, n * n - 1))),
    st.sampled_from([math.nan, math.inf, -math.inf, complex(0, math.inf), complex(math.nan, 1)]))
@settings(max_examples=60, deadline=None)
def test_rb_residual_rejects_nonfinite_operator(case, bad):
    # a NaN must never reach the max-norm, where it would compare as a pass
    Ae, Re, pos = case
    n = len(Ae)
    rows = [list(r) for r in Re]
    rows[pos // n][pos % n] = bad
    with pytest.raises(ValueError):
        _checked_components(SM(Ae), rows, 1)
    with pytest.raises(ValueError):
        rb_residual_norm_general(SM(Ae), rows, 0)


def test_rb_residual_rejects_bad_shape_and_overflow():
    A = SM([[1, 0], [1, 0]])
    with pytest.raises(DimensionMismatchError):
        rb_residual_norm_general(A, [[0, 0, 0]] * 3, 0)
    with pytest.raises(DimensionMismatchError):
        rb_residual_norm_general(A, [[0, 0], [0]], 0)
    # finite entries whose products overflow give a non-finite residual
    with pytest.raises(ValueError):
        rb_residual_norm_general(A, [[1e200, 0], [0, 1e200]], 0)


@given(square_matrices(3), square_matrices(3), st.sampled_from((0, 1)))
@settings(max_examples=25, deadline=None)
def test_derive_system_evaluates_to_rb_components(Ae, Re, weight):
    system = derive_system(SM(Ae), weight, tol=0.0)
    comps = rb_components(Ae, Re, weight)
    index = {((i + 1, j + 1), k + 1): 3 * p + k
             for p, (i, j) in enumerate(rb_pairs(3)) for k in range(3)}
    values = {f"r{i + 1}{j + 1}": Re[i][j] for i in range(3) for j in range(3)}
    tol = 1e-12 * rb_term_scale(Ae, Re, weight)
    for eq in system.equations:
        got = poly_value(eq.poly, values)
        want = comps[index[(eq.pair, eq.coord)]]
        # sign normalization may flip the equation
        assert min(abs(got - want), abs(got + want)) <= tol
    for pair, coord in system.tautologies:
        assert abs(comps[index[(pair, coord)]]) <= tol


# moduli from 1e-8 to 1e8 of either sign, plus both zeros
lane_floats = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0), st.integers(-8, 7)))
lane_complex = st.builds(complex, lane_floats, lane_floats)
CATALOG_ALGEBRAS = [algebra_matrix(tag, p).entries for tag, p in [
    ("E1", ()), ("E2", ()), ("E3", ()), ("E4", ()), ("E5", (0.3, -0.7)), ("E5", (0.25, 0)),
    ("E6", (0,)), ("E6", (0.5,))]]


@given(st.one_of(st.sampled_from(CATALOG_ALGEBRAS),
                 st.tuples(*[st.tuples(lane_complex, lane_complex)] * 2)),
       st.lists(st.booleans(), min_size=4, max_size=4),
       st.lists(st.lists(lane_floats, min_size=16, max_size=16), min_size=1, max_size=12),
       st.sampled_from((0, 1)))
@settings(max_examples=100, deadline=None)
def test_lane_kernel_is_the_scalar_kernel_bit_for_bit(a, a_on_lanes, ops, weight):
    # R is on lanes, and so is each entry of a that a_on_lanes marks (the
    # algebra parameters of a batched verify); the others stay scalars
    X = np.array(ops)
    z = [ComplexLanes(X[:, 2 * p], X[:, 2 * p + 1]) for p in range(8)]

    def split(vals):
        R = ((vals[0], vals[1]), (vals[2], vals[3]))
        return R, tuple(tuple(vals[4 + 2 * i + j] if a_on_lanes[2 * i + j] else a[i][j]
                              for j in (0, 1)) for i in (0, 1))

    lanes, a_lanes = split(z)
    with np.errstate(all="ignore"):
        comps = lanes_array(rb_components(a_lanes, lanes, weight), len(X))
        jac = lanes_array(rb_jacobian_rows(a_lanes, lanes, weight), len(X))
    for lane, x in enumerate(X):
        R, a_lane = split(x.view(complex).tolist())
        assert comps[lane].tobytes() == np.array(rb_components(a_lane, R, weight)).tobytes()
        want = np.array(rb_jacobian_rows(a_lane, R, weight), dtype=complex)
        assert jac[lane].tobytes() == want.tobytes()


# every finite magnitude, subnormals included, and both zeros
_any_magnitude = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
    st.builds(lambda sign, mant, exp: sign * math.ldexp(mant, exp), st.sampled_from([-1.0, 1.0]),
              st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1024)),
    st.floats(allow_nan=False, allow_infinity=False))


@given(_any_magnitude, _any_magnitude)
@settings(max_examples=300, deadline=None)
def test_hypot_is_complex_abs_bit_for_bit(re, im):
    # the batched verify takes |z| of lanes as np.hypot(re, im); CPython's
    # abs(complex) raises where the modulus overflows, and hypot gives inf
    with np.errstate(over="ignore"):
        lane = np.hypot(np.array([re]), np.array([im]))[0]
    try:
        want = abs(complex(re, im))
    except OverflowError:
        assert lane == math.inf
    else:
        assert float(lane).hex() == want.hex()



def _tolerance_takers():
    from evoalg.cea import ChainFamilySpec, verify_cantor, verify_ck
    from evoalg.classify2d import classify_tags, classify_with_witness
    from evoalg.rotabaxter import catalog, search, verify_exclusions, verify_family

    m5 = ChainFamilySpec.make("M5", {"Phi": "exp(t)"}, {"C": 2.0})
    E5 = algebra_matrix("E5", (0.3, 0.2))
    return {
        "classify_with_witness": lambda tol: classify_with_witness(SM([[1, 2], [3, 1]]), tol=tol),
        "classify_tags": lambda tol: classify_tags([((1, 2), (3, 1))], tol),
        "verify_ck": lambda tol: verify_ck(m5, samples=5, tol=tol),
        "verify_cantor": lambda tol: verify_cantor("exp(t - s)", samples=5, tol=tol),
        "verify_family": lambda tol: verify_family(catalog("E5", 0)[0], 5, tol=tol),
        "search": lambda tol: search(E5, 0, starts=1, tol=tol),
        "derive_system": lambda tol: derive_system(E5, 0, tol=tol),
        "verify_exclusions": lambda tol: verify_exclusions(tol=tol),
    }


_TOLERANCE_TAKERS = _tolerance_takers()


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize("name", sorted(_TOLERANCE_TAKERS))
def test_tolerance_takers_refuse_what_they_cannot_honour(name, tol):
    # an infinite tolerance passes every check, and a NaN or negative one
    # fails every check: each entry point refuses them before any work
    with pytest.raises(ValueError, match="tolerance must be non-negative and finite"):
        _TOLERANCE_TAKERS[name](tol)
    _TOLERANCE_TAKERS[name](0.0)  # a zero tolerance is valid
