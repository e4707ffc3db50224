import cmath
import itertools
import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evoalg.core import EvoalgError, StructureMatrix
from evoalg.classify2d import (
    _N_PARAMS,
    AlgebraClass,
    BasisChange,
    UnclassifiableError,
    canonical_matrix,
    classify,
    classify_tags,
    classify_with_witness,
    find_isomorphism,
    homomorphism_residual,
    is_E4_shape,
    rescale_permute,
)

SM = StructureMatrix.from_rows


def test_e4_shape_examples():
    r = is_E4_shape(SM([[0, 3], [0, 0]]))
    assert r.matches and r.variant == "upper" and r.entry == 3
    r = is_E4_shape(SM([[0, 0], [2j, 0]]))
    assert r.matches and r.variant == "lower" and r.entry == 2j
    assert not is_E4_shape(SM([[0, 0], [0, 0]])).matches
    # pattern zeros are tested exactly: a stray 1e-15 breaks the shape
    assert not is_E4_shape(SM([[0, 3], [1e-15, 0]])).matches
    # the designated entry must exceed the tolerance
    assert not is_E4_shape(SM([[0, 1e-12], [0, 0]])).matches


def test_e4_shape_oracle_small_grid():
    values = (-1, 0, 1, 2)
    for a, b, c, d in itertools.product(values, repeat=4):
        got = is_E4_shape(SM([[a, b], [c, d]])).matches
        want = (a == 0 and c == 0 and d == 0 and b != 0) or (
            a == 0 and b == 0 and d == 0 and c != 0
        )
        assert got == want, (a, b, c, d)


def test_classify_fixed_examples():
    assert classify(SM([[1, 0], [0, 0]]), "complex").tag == "E1"
    assert classify(SM([[1, 1], [-1, -1]]), "complex").tag == "E3"
    assert classify(SM([[0, 0], [0, 0]]), "complex").tag == "E0"
    assert classify(SM([[0, 5], [0, 0]]), "complex").tag == "E4"
    assert classify(SM([[1, 0], [1, 0]]), "complex").tag == "E2"


def test_classify_rescaled_e2():
    # scale e1 -> 2 e1, e2 -> 3 e2 in the canonical E2 algebra
    A = rescale_permute(SM([[1, 0], [1, 0]]), (2.0, 3.0))
    assert classify(A, "complex").tag == "E2"
    assert classify(StructureMatrix(A.entries, "real"), "real").tag == "E2"


def test_classify_real_vs_complex_split():
    # beta*delta < 0: E5 over the reals, E2 over the complexes
    A_real = SM([[0, -2], [0, 1]], "real")
    assert classify(A_real, "real").tag == "E5"
    assert classify(SM([[0, -2], [0, 1]]), "complex").tag == "E2"


def test_classify_real_catalog():
    reals = {
        "E1": [[1, 0], [0, 0]],
        "E2": [[1, 0], [1, 0]],
        "E3": [[1, 1], [-1, -1]],
        "E4": [[0, 1], [0, 0]],
        "E5": [[0, 1], [0, -1]],
    }
    for tag, rows in reals.items():
        assert classify(SM(rows, "real"), "real").tag == tag
    got = classify(SM([[1, 2], [3, 1]], "real"), "real")
    assert got.tag == "E6" and got.params == (2, 3)
    got = classify(SM([[0, 1], [1, 1.5]], "real"), "real")
    assert got.tag == "E7" and abs(got.params[0] - 1.5) < 1e-9


def test_classify_canonical_tags_distinct():
    cases = [
        AlgebraClass("complex", "E0"),
        AlgebraClass("complex", "E1"),
        AlgebraClass("complex", "E2"),
        AlgebraClass("complex", "E3"),
        AlgebraClass("complex", "E4"),
        AlgebraClass("complex", "E5", (0.3, -0.4)),
        AlgebraClass("complex", "E6", (0.8,)),
    ]
    tags = [classify(canonical_matrix(c), "complex").tag for c in cases]
    assert tags == [c.tag for c in cases]
    real_cases = [
        AlgebraClass("real", "E0"),
        AlgebraClass("real", "E1"),
        AlgebraClass("real", "E2"),
        AlgebraClass("real", "E3"),
        AlgebraClass("real", "E4"),
        AlgebraClass("real", "E5"),
        AlgebraClass("real", "E6", (0.5, -0.25)),
        AlgebraClass("real", "E7", (1.25,)),
    ]
    tags = [classify(canonical_matrix(c), "real").tag for c in real_cases]
    assert tags == [c.tag for c in real_cases]


def test_classify_e5_parameters_recovered():
    cls = classify(SM([[1, 0.1], [0.2, 1]]), "complex")
    assert cls.tag == "E5"
    assert abs(cls.params[0] - 0.1) < 1e-9 and abs(cls.params[1] - 0.2) < 1e-9
    # swapped parameters canonicalize identically
    cls2 = classify(SM([[1, 0.2], [0.1, 1]]), "complex")
    assert cls2.params == cls.params


def _rand_nonzero(rng):
    while True:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) > 0.3:
            return z


def test_classify_invariant_under_rescale_permute_complex():
    rng = random.Random(7)
    pool = [
        AlgebraClass("complex", "E1"),
        AlgebraClass("complex", "E2"),
        AlgebraClass("complex", "E3"),
        AlgebraClass("complex", "E4"),
        AlgebraClass("complex", "E5", (0.3 - 0.2j, 1.1)),
        AlgebraClass("complex", "E5", (-0.7, 0.4 + 0.5j)),
        AlgebraClass("complex", "E6", (0.9 + 0.4j,)),
        AlgebraClass("complex", "E6", (0.0,)),
    ]
    for cls in pool:
        A = canonical_matrix(cls)
        expect = classify(A, "complex")
        for _ in range(6):
            scales = (_rand_nonzero(rng), _rand_nonzero(rng))
            perm = rng.choice(((0, 1), (1, 0)))
            got = classify(rescale_permute(A, scales, perm), "complex")
            assert got.tag == cls.tag
            for p, q in zip(got.params, expect.params):
                assert abs(p - q) < 1e-6


def test_classify_invariant_under_rescale_permute_real():
    rng = random.Random(8)
    pool = [
        AlgebraClass("real", "E2"),
        AlgebraClass("real", "E5"),
        AlgebraClass("real", "E6", (0.5, -0.8)),
        AlgebraClass("real", "E7", (-1.2,)),
    ]
    for cls in pool:
        A = canonical_matrix(cls)
        expect = classify(A, "real")
        for _ in range(6):
            scales = tuple(
                math.copysign(rng.uniform(0.4, 2.0), rng.choice((-1, 1))) for _ in range(2)
            )
            perm = rng.choice(((0, 1), (1, 0)))
            got = classify(rescale_permute(A, scales, perm), "real")
            assert got.tag == cls.tag
            for p, q in zip(got.params, expect.params):
                assert abs(p - q) < 1e-6


def test_find_isomorphism_identity():
    A = SM([[1, 0], [0, 0]])
    w = find_isomorphism(A, A)
    assert w is not None
    assert homomorphism_residual(A, A, w) < 1e-18


def test_find_isomorphism_chain_matrix_to_e2():
    # matrix of the M1 family at s=1, t=2 with rho(s)=s, phi=exp
    s, t = 1.0, 2.0
    beta = s * math.exp(t)
    delta = math.exp(t) / math.exp(s)
    A = SM([[0, beta], [0, delta]])
    B = SM([[1, 0], [1, 0]])
    w = find_isomorphism(A, B)
    assert w is not None
    assert homomorphism_residual(A, B, w) < 1e-18


def test_find_isomorphism_param_swap():
    A = canonical_matrix(AlgebraClass("complex", "E5", (0.0, 0.25)))
    B = canonical_matrix(AlgebraClass("complex", "E5", (0.25, 0.0)))
    w = find_isomorphism(A, B)
    assert w is not None
    assert homomorphism_residual(A, B, w) < 1e-18


def test_find_isomorphism_symmetry():
    rng = random.Random(9)
    A = canonical_matrix(AlgebraClass("complex", "E6", (0.6 - 0.3j,)))
    B = rescale_permute(A, (1.3 + 0.4j, 0.8), (1, 0))
    w = find_isomorphism(A, B)
    assert w is not None
    # the inverse witness is an isomorphism the other way
    inv = w.inverse()
    assert homomorphism_residual(B, A, inv.entries) < 1e-9
    w_back = find_isomorphism(B, A)
    assert w_back is not None


def test_find_isomorphism_not_found():
    A = SM([[1, 0], [0, 0]])   # E1
    B = SM([[1, 0], [1, 0]])   # E2
    assert find_isomorphism(A, B) is None


_FORMS = [("complex", tag) for tag in ("E0", "E1", "E2", "E3", "E4", "E5", "E6")] + [
    ("real", tag) for tag in ("E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7")]
_GRID = st.integers(-12, 12).map(lambda k: k / 8)  # parameters on a 1/8 grid


@st.composite
def _canonical_classes(draw, field, tag):
    num = st.builds(complex, _GRID, _GRID) if field == "complex" else _GRID.map(complex)
    params = tuple(draw(num) for _ in range(_N_PARAMS[field][tag]))
    if len(params) == 2:
        assume(abs(1 - params[0] * params[1]) >= 0.2)  # away from 1 - xy = 0
    return AlgebraClass(field, tag, params)


@st.composite
def _orbit_images(draw, cls):
    """canonical_matrix(cls) under a natural-basis rescale by moduli
    0.4..2.5 (with a phase over C, a sign over R) and a permutation."""
    scales = []
    for _ in range(2):
        mod = draw(st.floats(0.4, 2.5))
        if cls.field == "complex":
            scales.append(mod * cmath.exp(1j * draw(st.floats(0, 2 * math.pi))))
        else:
            scales.append(mod * draw(st.sampled_from((-1.0, 1.0))))
    perm = draw(st.sampled_from(((0, 1), (1, 0))))
    return rescale_permute(canonical_matrix(cls), scales, perm)


def _is_isomorphism(A, B, w, tol=1e-8):
    """Expands the evolution products directly: g(e_i) is row i of the
    witness, e_i e_i is row i of A, and e_i e_j = 0 for i != j, so
    g(e_i e_j) = g(e_i) g(e_j) must hold in B for every basis pair."""
    a, b, t = A.entries, B.entries, w.entries

    def g(v):
        return [v[0] * t[0][k] + v[1] * t[1][k] for k in range(2)]

    def mul_b(u, v):
        return [u[0] * v[0] * b[0][k] + u[1] * v[1] * b[1][k] for k in range(2)]

    for i in range(2):
        for j in range(2):
            lhs = g(a[i]) if i == j else [0, 0]
            if any(abs(x - y) > tol for x, y in zip(lhs, mul_b(t[i], t[j]))):
                return False
    return abs(t[0][0] * t[1][1] - t[0][1] * t[1][0]) > 1e-6


def _equivalent(c1, c2):
    """Canonical forms equal up to the parameter symmetries: the pair swap of
    complex E5 and real E6, the cube roots of unity acting on complex E6."""
    if c1.tag != c2.tag:
        return False
    p, q = c1.params, c2.params
    if len(p) == 2:
        return set(p) == set(q)
    if c1.field == "complex" and c1.tag == "E6":
        return abs(p[0] ** 3 - q[0] ** 3) < 1e-12
    return p == q


@pytest.mark.parametrize("field, tag", _FORMS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_find_isomorphism_between_orbit_images(field, tag, data):
    cls = data.draw(_canonical_classes(field, tag))
    A, B = data.draw(_orbit_images(cls)), data.draw(_orbit_images(cls))
    w = find_isomorphism(A, B)
    assert w is not None, (cls, A.entries, B.entries)
    assert _is_isomorphism(A, B, w), (cls, A.entries, B.entries, w.entries)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_find_isomorphism_none_between_different_forms(data):
    field = data.draw(st.sampled_from(("complex", "real")))
    tags = [t for f, t in _FORMS if f == field]
    c1 = data.draw(_canonical_classes(field, data.draw(st.sampled_from(tags))))
    c2 = data.draw(_canonical_classes(field, data.draw(st.sampled_from(tags))))
    assume(not _equivalent(c1, c2))
    A, B = data.draw(_orbit_images(c1)), data.draw(_orbit_images(c2))
    assert find_isomorphism(A, B) is None, (c1, c2)


@pytest.mark.parametrize("rows", [[[1e13, 0], [0, 0]], [[1e12, 0], [0, 1e12]],
                                  [[1e11, 1e11], [0, 1e11]], [[1e13, 1e13], [0, 1e13]]])
def test_find_isomorphism_large_scale_self_pair(rows):
    # the witnesses scale with the input, so the inverse of one sits far
    # below 1, and the composed start's residual, an ulp off, scales with it
    A = SM(rows)
    w = find_isomorphism(A, A)
    assert w is not None
    assert _is_isomorphism(A, A, w)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("rows", [[[1.3, 0.7], [0.2, 1.1]], [[1, 2], [2, 4]],
                                  [[0, 1], [1, 0.5]], [[1, 1], [1, 1]]])
def test_find_isomorphism_between_scales(field, rows):
    # B's entries about 1e-6, 1e6 and 1e9 times A's: the map is found in both
    # orders; the witness check runs only against canonical targets, where
    # its bounds are scaled for the input
    A = SM(rows, field)
    for k in (1e-6, 1e6, 1e9):
        B = rescale_permute(A, (1.1 * k, 0.9 * k), (1, 0))
        for X, Y in ((A, B), (B, A)):
            w = find_isomorphism(X, Y)
            assert w is not None, (X.entries, Y.entries)
            t = max(abs(z) for row in w.entries for z in row)
            size = X.maxabs() * t + t * t * Y.maxabs()
            assert homomorphism_residual(X, Y, w) < 1e-24 * size * size, (X.entries, Y.entries)


def test_find_isomorphism_propagates_unclassifiable():
    # None would claim that no isomorphism exists, which was not found
    A = SM([[0, 3], [1e-12, 0]])
    B = canonical_matrix(AlgebraClass("complex", "E6", (0,)))
    for pair in ((A, A), (A, B), (B, A)):
        with pytest.raises(UnclassifiableError):
            find_isomorphism(*pair)


def test_witness_residual_rechecked_independently():
    A = SM([[0, 2], [0, 3]])
    cls, w = classify_with_witness(A, "complex")
    assert cls.tag == "E2"
    B = canonical_matrix(AlgebraClass("complex", "E2"))
    assert homomorphism_residual(A, B, w.entries) < 1e-18


def test_unclassifiable_near_degenerate():
    # rank-1 with a stray off-pattern entry: neither the exact E4 shape nor
    # any of E1/E2/E3 within the residual bound
    with pytest.raises(UnclassifiableError):
        classify(SM([[0, 3], [1e-12, 0]]), "complex")


def _canonical_orbit(cls, rng, n=6):
    """The canonical matrix of cls and n rescaled, permuted images of it."""
    A = canonical_matrix(cls)
    out = [A]
    for _ in range(n):
        if cls.field == "complex":
            scales = (_rand_nonzero(rng), _rand_nonzero(rng))
        else:
            scales = tuple(math.copysign(rng.uniform(0.4, 2.0), rng.choice((-1, 1)))
                           for _ in range(2))
        out.append(rescale_permute(A, scales, rng.choice(((0, 1), (1, 0)))))
    return out


def test_rank1_closed_form_start_is_a_witness():
    # each rank-1 class is reached by its closed-form basis change as it
    # stands
    rng = random.Random(12)
    pool = [AlgebraClass(field, tag) for field in ("complex", "real")
            for tag in ("E1", "E2", "E3")] + [AlgebraClass("real", "E5")]
    for cls in pool:
        for A in _canonical_orbit(cls, rng):
            assert classify(A, cls.field).tag == cls.tag, (cls, A.entries)


def test_rank1_starts_are_built_lazily(monkeypatch):
    # the candidates after the one that passes are never built
    import evoalg.classify2d as c2d

    built = []
    for name in ("_start_E1", "_start_E2", "_start_E3", "_start_E5_real"):
        build = getattr(c2d, name)
        monkeypatch.setattr(c2d, name, lambda *a, _n=name, _f=build: built.append(_n) or _f(*a))
    assert classify(SM([[0, 2], [0, 3]]), "complex").tag == "E2"  # kappa > 0: E2 first
    assert built == ["_start_E2"]
    built.clear()
    assert classify(SM([[1, 1], [-1, -1]]), "real").tag == "E3"  # kappa = 0: E3 first
    assert built == ["_start_E3"]


_POOL = [
    AlgebraClass("complex", "E0"), AlgebraClass("complex", "E1"),
    AlgebraClass("complex", "E2"), AlgebraClass("complex", "E3"),
    AlgebraClass("complex", "E4"), AlgebraClass("complex", "E5", (0.3 - 0.2j, 1.1)),
    AlgebraClass("complex", "E6", (0.9 + 0.4j,)), AlgebraClass("complex", "E6", (0,)),
    AlgebraClass("real", "E0"), AlgebraClass("real", "E1"), AlgebraClass("real", "E2"),
    AlgebraClass("real", "E3"), AlgebraClass("real", "E4"), AlgebraClass("real", "E5"),
    AlgebraClass("real", "E6", (0.5, -0.8)), AlgebraClass("real", "E7", (-1.2,)),
    AlgebraClass("real", "E7", (0,)),
]


def test_classification_never_reaches_the_multi_start(monkeypatch):
    # classification tries closed-form witnesses only: every find_isomorphism
    # call it makes carries its start, on success or on failure
    import evoalg.classify2d as c2d

    check = c2d.find_isomorphism
    calls = []

    def no_multi_start(A, B, start=None):
        if start is None:
            raise AssertionError("classification called find_isomorphism without a start")
        calls.append(start)
        return check(A, B, start)

    monkeypatch.setattr(c2d, "find_isomorphism", no_multi_start)
    rng = random.Random(13)
    for cls in _POOL:
        calls.clear()
        for A in _canonical_orbit(cls, rng):
            assert classify(A, cls.field).tag == cls.tag, (cls, A.entries)
        # the exact E0 and E4 decisions need no witness check; every other
        # class is reached through the witness check
        assert (len(calls) == 0) == (cls.tag in ("E0", "E4")), (cls, len(calls))
    # near-degenerate inputs, among them the two kinds of the classify-edge
    # benchmark: a stray lower entry over C and a stray diagonal entry over R
    for rows, field in (([[0, 3], [1e-12, 0]], "complex"),
                        ([[0, 1.3 + 0.4j], [3e-12 - 1e-12j, 0]], "complex"),
                        ([[2e-12, -1.7], [0, 0]], "real")):
        try:
            classify(SM(rows, field), field)
        except UnclassifiableError:
            pass


@pytest.mark.parametrize("rows", [[[0, 1e200], [1e-100, 0]], [[1e200, 0], [1e200, 0]]])
def test_overflowing_closed_form_is_no_start(rows):
    # a closed form that overflows to NaN or inf (here kappa) is no start
    with pytest.raises(UnclassifiableError):
        classify(SM(rows), "complex")


@pytest.mark.parametrize("rows, tag", [([[1e100, 0], [0, 0]], "E1"),
                                       ([[1e120, 0], [1e120, 0]], "E2")])
def test_far_scaled_closed_form_start_is_a_witness(rows, tag):
    # a closed-form start's determinant scales as 1 / max|a_ij|^2 (about
    # 1e-240 for E2 here), and only the check's relative determinant test
    # judges it; E1 at 1e100 keeps the class it had before the check scaled
    A = SM(rows)
    cls, w = classify_with_witness(A, "complex")
    assert cls.tag == tag
    assert homomorphism_residual(A, canonical_matrix(cls), w) == 0


def test_near_singular_start_is_refused():
    # kappa ~ 1.8e-24 puts E3 first; its closed form has |det| ~ 9e-37 but
    # is not singular relative to its entries, and its inverse is no
    # homomorphism, which the check tests first; E1's closed form is then
    # the witness as it stands
    import evoalg.classify2d as c2d

    A = SM([[1.3468605077866173e-12, -2.5906837124019626], [0, 0]], "real")
    cls, witness = classify_with_witness(A, "real")
    w, lam = c2d._rank1_data(A)
    kappa = w[0] * w[0] * lam[0] + w[1] * w[1] * lam[1]
    assert cls == AlgebraClass("real", "E1")
    assert witness.entries == c2d._start_E1(w, lam, kappa, c2d.DEFAULT_TOL)


_GOLDEN = pathlib.Path(__file__).parent / "data" / "classify_golden.jsonl"


def golden_result(field, rows) -> str:
    """One line of text for the classification of rows over field: tag,
    parameters and witness entries by repr, or the error raised."""
    try:
        cls, witness = classify_with_witness(SM(rows, field), field)
    except (UnclassifiableError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    return f"{cls.tag} {cls.params!r} {witness.entries if witness is not None else None!r}"


def test_classification_matches_golden():
    # tests/make_classify_golden.py wrote the corpus and its results: edge,
    # near-boundary, far-scaled and bulk inputs
    lines = _GOLDEN.read_text().splitlines()
    assert len(lines) > 400
    for line in lines:
        case = json.loads(line)
        rows = [[complex(re, im) for re, im in r] for r in case["rows"]]
        assert golden_result(case["field"], rows) == case["result"], line


def test_classification_sweep_digest_is_pinned():
    # tests/classify_sweep.py at 4 inputs per cell: random, rank-1,
    # zero-pattern and canonical-orbit matrices in both fields at scales
    # 2^-40..2^40, hashed with label, parameters, witness and error text;
    # every one of them has a class
    from classify_sweep import sweep

    count, digest, unclassifiable = sweep(4)
    assert (count, digest) == (2592, "ddff621a6bdec6ec574043b679526011bf4cd58d36b0e456783edec3291828f3")
    assert unclassifiable == 0


def test_rank2_params_are_the_closed_form(monkeypatch):
    # the parameters reported are the closed-form ones the witness was
    # checked against, exactly; nothing re-fits them by least squares
    import numpy as np

    def no_lstsq(*args, **kwargs):
        raise AssertionError("classification re-fitted its parameters")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    for field in ("complex", "real"):
        assert classify(SM([[2, 3], [5, 7]], field), field).params == (10 / 49, 21 / 4)
    rng = random.Random(14)
    pool = [
        AlgebraClass("complex", "E5", (0.3 - 0.2j, 1.1)),
        AlgebraClass("complex", "E6", (0.9 + 0.4j,)), AlgebraClass("complex", "E6", (0,)),
        AlgebraClass("real", "E6", (0.5, -0.8)), AlgebraClass("real", "E7", (-1.2,)),
        AlgebraClass("real", "E7", (0,)),
    ]
    for cls in pool:
        for A in _canonical_orbit(cls, rng):
            assert classify_with_witness(A, cls.field)[0].tag == cls.tag, (cls, A.entries)


def test_degenerate_rank2_parameters_rejected():
    # [[1, p0], [p1, 1]] with p0*p1 = 1 has rank 1: it names no E5 over C and
    # no E6 over R, and a closed form that lands there is not a class
    for field, tag, params in (("complex", "E5", (1, 1)), ("complex", "E5", (4, 0.25)),
                               ("real", "E6", (2, 0.5))):
        with pytest.raises(ValueError):
            AlgebraClass(field, tag, params)
    assert AlgebraClass("complex", "E6", (1,)).params == (1,)
    # det = 0.01 - 0.1*0.1 is -1.7e-18, so at tol 0 this is rank 2, and its
    # closed-form parameters (0.001, 1000) multiply to exactly 1
    for field in ("complex", "real"):
        with pytest.raises(UnclassifiableError):
            classify_with_witness(SM([[1, 0.1], [0.1, 0.01]], field), field, tol=0.0)


def test_basis_change_rejects_singular():
    with pytest.raises(ValueError):
        BasisChange(((1, 1), (1, 1)))
    # the test is relative to the products in det: a NaN det is singular, and
    # a small or large scale alone is not
    with pytest.raises(ValueError):
        BasisChange(((math.nan, 0), (0, 1)))
    with pytest.raises(ValueError):
        BasisChange(((1e20, 1e20), (1e20, 1e20 * (1 + 1e-15))))
    BasisChange(((1e-7, 0), (0, 1e-7)))


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, complex(0, math.inf),
                               complex(math.nan, 1)])
def test_algebra_class_rejects_non_finite_parameters(p):
    # label() could not print them: int(nan) and int(inf) raise
    for field, tag, params in (("complex", "E6", (p,)), ("complex", "E5", (p, 0.5)),
                               ("real", "E7", (p,)), ("real", "E6", (0.5, p))):
        with pytest.raises(ValueError) as err:
            AlgebraClass(field, tag, params)
        assert str(err.value) == (f"{tag} ({field}) has a non-finite parameter: "
                                  f"{tuple(complex(z) for z in params)}")
    assert AlgebraClass("complex", "E6", (1e308,)).label() == "E6(1e+308)"


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("build, message", [
    # StructureMatrix: each fault alone
    (lambda: StructureMatrix(()), "dimension must be >= 1"),
    (lambda: SM([[1, 2], [3]]), "structure matrix must be square"),
    (lambda: SM([[1, 2, 3], [3, 4]]), "structure matrix must be square"),
    (lambda: SM([[_NAN, 0], [0, 0]]), "non-finite matrix entry: (nan+0j)"),
    (lambda: SM([[0, 0], [0, -_INF]]), "non-finite matrix entry: (-inf+0j)"),
    (lambda: SM([[0, complex(1, _INF)], [0, 0]]), "non-finite matrix entry: (1+infj)"),
    (lambda: SM([[0, 0], [1j, 0]], "real"), "real-mode matrix has a nonzero imaginary part"),
    (lambda: SM([[1, 0], [0, 0]], "quaternion"), "unknown field mode 'quaternion'"),
    (lambda: SM([[0, "x"], [0, 0]]), "complex() arg is a malformed string"),
    # StructureMatrix: which fault wins
    (lambda: SM([[_NAN, 0], [1]]), "structure matrix must be square"),
    (lambda: SM([[1], [0, 0]], "quaternion"), "structure matrix must be square"),
    (lambda: SM([[_NAN, 0], [0, 0]], "quaternion"), "unknown field mode 'quaternion'"),
    (lambda: SM([[1j, _NAN], [0, 0]], "real"), "real-mode matrix has a nonzero imaginary part"),
    (lambda: SM([[_NAN, 1j], [0, 0]], "real"), "non-finite matrix entry: (nan+0j)"),
    (lambda: SM([[0, 0], [1j, _INF]], "real"), "real-mode matrix has a nonzero imaginary part"),
    # AlgebraClass
    (lambda: AlgebraClass("complex", "E7"), "invalid class 'E7' for field 'complex'"),
    (lambda: AlgebraClass("real", "E8"), "invalid class 'E8' for field 'real'"),
    (lambda: AlgebraClass("quaternion", "E1"), "invalid class 'E1' for field 'quaternion'"),
    (lambda: AlgebraClass("real", "E6", (1,)), "E6 (real) takes 2 parameters, got 1"),
    (lambda: AlgebraClass("complex", "E1", (1,)), "E1 (complex) takes 0 parameters, got 1"),
    (lambda: AlgebraClass("complex", "E5", (2, 0.5)),
     "E5(2, 0.5) (complex) is degenerate: 1 - p0*p1 = 0"),
    (lambda: AlgebraClass("real", "E6", (4, 0.25)),
     "E6(4, 0.25) (real) is degenerate: 1 - p0*p1 = 0"),
    (lambda: AlgebraClass("complex", "E7", (1,)), "invalid class 'E7' for field 'complex'"),
    (lambda: AlgebraClass("real", "E6", (_NAN,)), "E6 (real) takes 2 parameters, got 1"),
    # rescale_permute: perm must permute range(n), with one scale per basis vector
    (lambda: rescale_permute(SM([[1, 2], [3, 4]]), (1, 1), (0, 0)),
     "need 2 scales and a permutation of range(2), got 2 scale(s) and perm (0, 0)"),
    (lambda: rescale_permute(SM([[1, 2], [3, 4]]), (1, 1), (0, 2)),
     "need 2 scales and a permutation of range(2), got 2 scale(s) and perm (0, 2)"),
    (lambda: rescale_permute(SM([[1, 2], [3, 4]]), (1, 1, 1), (0, 1)),
     "need 2 scales and a permutation of range(2), got 3 scale(s) and perm (0, 1)"),
    (lambda: rescale_permute(SM([[1, 2], [3, 4]]), (1,), (1, 0)),
     "need 2 scales and a permutation of range(2), got 1 scale(s) and perm (1, 0)"),
    (lambda: rescale_permute(SM([[1, 2], [3, 4]]), (0, 1)), "scales must be nonzero"),
    (lambda: rescale_permute(SM([[1, 2], [3, 4]]), (0, 1), (1, 1)),
     "need 2 scales and a permutation of range(2), got 2 scale(s) and perm (1, 1)"),
    # BasisChange
    (lambda: BasisChange(((1, 2), (2, 4))),
     "basis change is singular within relative 1e-12: det=0j"),
    (lambda: BasisChange(((_NAN, 0), (0, 1))),
     "basis change is singular within relative 1e-12: det=(nan+nanj)"),
    (lambda: BasisChange(((1e200, 1), (1, 1e200))),
     "basis change is singular within relative 1e-12: det=(inf+0j)"),
    # find_isomorphism
    (lambda: find_isomorphism(SM([[1, 0], [0, 0]]), SM([[1, 0], [0, 0]], "real")),
     "field modes differ: complex vs real"),
])
def test_validator_errors_are_pinned(build, message):
    # each validator's error type and message, and which fault wins when
    # several apply
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError
    assert str(err.value) == message


@pytest.mark.parametrize("field, rows", [
    ("complex", [[0, 1e12], [0, 0]]), ("real", [[0, 1e12], [0, 0]]),
    ("complex", [[0, 1e300], [0, 0]]), ("real", [[0, 1e300], [0, 0]]),
    ("complex", [[0, 0], [1e15j, 0]]),
])
def test_large_e4_keeps_its_witness(field, rows):
    # the E4 witness diag(1, 1/b) has det 1/b, which an absolute DET_TOL
    # called singular from b = 1e12 on
    A = SM(rows, field)
    cls, w = classify_with_witness(A, field)
    assert cls.tag == "E4"
    assert homomorphism_residual(A, canonical_matrix(cls), w) < 1e-18
    assert find_isomorphism(A, A) is not None


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("variant", ["upper", "lower"])
def test_tiny_e4_is_never_an_input_error(field, variant):
    # below about 5.6e-309 the witness entry 1/b overflows: unclassifiable,
    # never the ValueError of a singular BasisChange; a finite witness is
    # exactly diag(1, 1/b) (upper) or antidiag(1/b, 1) (lower)
    for b in (5e-324, 1e-320, 5e-309, 5.5e-309, 5.6e-309, 6e-309, 1e-308, 1e-300):
        rows = [[0, b], [0, 0]] if variant == "upper" else [[0, 0], [b, 0]]
        try:
            cls, w = classify_with_witness(SM(rows, field), field, tol=0.0)
        except UnclassifiableError as err:
            assert 1 / b == math.inf and "beyond the range of float" in str(err)
            continue
        assert cls.tag == "E4" and isinstance(w, BasisChange)
        inv = 1 / complex(b)
        assert w.entries == (((1, 0), (0, inv)) if variant == "upper" else ((0, inv), (1, 0)))


def test_classify_field_mismatch():
    with pytest.raises(ValueError):
        classify(SM([[1j, 0], [0, 0]]), "real")


def test_classify_wrong_dimension():
    from evoalg.core import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        classify(SM([[1]]), "complex")
    A3, A2 = SM([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), SM([[0, 1], [0, 0]])
    for call, message in [
        (lambda: classify(A3), "classification supports dimension 2 only, got 3"),
        (lambda: is_E4_shape(A3), "E4 shape test needs dim 2, got 3"),
        (lambda: find_isomorphism(A2, A3), "isomorphism search supports dimension 2 only"),
        (lambda: find_isomorphism(A3, A2), "isomorphism search supports dimension 2 only"),
    ]:
        with pytest.raises(DimensionMismatchError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
def test_classify_rejects_negative_or_nan_tol(tol):
    # with tol < 0 the zero matrix skipped the E0 test and matched the E4
    # shape; with tol = inf every matrix is E0
    with pytest.raises(ValueError, match="tolerance must be non-negative"):
        classify_with_witness(SM([[0, 0], [0, 0]]), "complex", tol=tol)


def test_classify_invariant_under_general_natural_basis_change():
    # for the rank-1 classes many non-diagonal bases are still natural: pick
    # f1 at random and f2 in the kernel of the multiply-by-f1 map, then
    # classify the structure matrix written in the new basis.  (Rank-2
    # algebras admit only scaled permutations, covered above.)
    from evoalg.core import AlgebraElement, multiply

    def natural_transform(A, rng):
        a = A.entries
        for _ in range(50):
            t1 = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
            G = [[t1[m] * a[m][k] for m in range(2)] for k in range(2)]
            if abs(G[0][0] * G[1][1] - G[0][1] * G[1][0]) > 1e-9:
                continue
            r = max(G, key=lambda row: max(abs(z) for z in row))
            if max(abs(z) for z in r) < 1e-12:
                t2 = (1.0 + 0j, 0j) if abs(t1[0]) < abs(t1[1]) else (0j, 1.0 + 0j)
            else:
                t2 = (-r[1], r[0])
            T = (t1, t2)
            det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
            if abs(det) < 1e-3:
                continue
            if multiply(A, AlgebraElement(t1), AlgebraElement(t2)).maxabs() > 1e-10:
                continue
            rows = []
            for i in range(2):
                v = multiply(A, AlgebraElement(T[i]), AlgebraElement(T[i])).coords
                rows.append(((v[0] * T[1][1] - v[1] * T[1][0]) / det,
                             (v[1] * T[0][0] - v[0] * T[0][1]) / det))
            return StructureMatrix.from_rows(rows, "complex")
        return None

    rng = random.Random(77)
    for tag in ("E1", "E2", "E3", "E4"):
        A = canonical_matrix(AlgebraClass("complex", tag))
        done = 0
        for _ in range(40):
            A2 = natural_transform(A, rng)
            if A2 is None:
                continue
            done += 1
            assert classify(A2, "complex").tag == tag, (tag, A2.entries)
        assert done >= 20, tag


def test_classify_never_wrong_across_scales():
    # the witness check and the structural tests are relative to the entry
    # scale, so from 2^-25 (entries well above the tolerance) to 2^60 every
    # input has its class
    rng = random.Random(5)
    pool = [
        ("E1", AlgebraClass("complex", "E1")),
        ("E2", AlgebraClass("complex", "E2")),
        ("E4", AlgebraClass("complex", "E4")),
        ("E5", AlgebraClass("complex", "E5", (0.4, -0.3))),
        ("E6", AlgebraClass("complex", "E6", (0.7 - 0.2j,))),
    ]
    for tag, cls in pool:
        A0 = canonical_matrix(cls)
        for k in range(-25, 61, 5):
            m = 2.0 ** k
            A = rescale_permute(A0, (m * rng.uniform(0.5, 2.0), m * rng.uniform(0.5, 2.0)))
            assert classify(A, "complex").tag == tag, (cls, A.entries)


_FORMS = [(field, tag) for field, tags in _N_PARAMS.items() for tag in tags]


@settings(max_examples=400, deadline=None)
@given(form=st.sampled_from(_FORMS), params=st.lists(st.integers(-64, 64), min_size=2, max_size=2),
       k=st.integers(-25, 60), phases=st.lists(st.integers(0, 3), min_size=2, max_size=2),
       swap=st.booleans())
def test_classify_is_scale_covariant_on_exact_inputs(form, params, k, phases, swap):
    # d_i = unit * 2^k scales the entries exactly, so the input is the form
    # itself at scale 2^k: the same tag, and parameters exactly those of the
    # form, except the zero-diagonal E6 (complex) and E7 (real), whose
    # cube root of a rescaled product is not exact
    field, tag = form
    n = _N_PARAMS[field][tag]
    params = [p / 16 for p in params[:n]]
    assume(n < 2 or params[0] * params[1] != 1)
    B = canonical_matrix(AlgebraClass(field, tag, params))
    units = (1, -1, 1j, -1j) if field == "complex" else (1, -1)
    A = rescale_permute(B, [units[p % len(units)] * 2.0 ** k for p in phases],
                        (1, 0) if swap else (0, 1))
    got, want = classify(A, field), classify(B, field)
    assert got.tag == tag, (A.entries, got)
    if tag == ("E6" if field == "complex" else "E7"):
        assert all(abs(g - w) <= 1e-13 * abs(w) for g, w in zip(got.params, want.params))
    else:
        assert got.params == want.params  # equal values; a zero may change sign


def _extreme_entry(rng, field):
    if rng.random() < 0.25:
        return 0.0
    unit = (cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) if field == "complex"
            else rng.choice((-1.0, 1.0)))
    return unit * 10.0 ** rng.uniform(100.0, 300.0)


def test_extreme_scales_raise_only_unclassifiable_or_value_errors():
    # entries of modulus 1e100..1e300: a residual, a closed form or an entry
    # modulus beyond float range leaves the input unclassifiable; before,
    # about 3% of these inputs ended in an OverflowError
    rng = random.Random(0)
    classified = 0
    for field in ("complex", "real"):
        for _ in range(200):
            rows = [[_extreme_entry(rng, field) for _ in range(2)] for _ in range(2)]
            try:
                classify_with_witness(SM(rows, field), field)
                classified += 1
            except (UnclassifiableError, ValueError):
                pass
    assert classified > 0


@pytest.mark.parametrize("field, rows, tol", [
    ("complex", [[1.7306051716204005e+130, -9.33441516249936e+149], [0, 0]], 1e-9),
    ("real", [[1.7306051716204005e+130, -9.33441516249936e+149], [0, 0]], 1e-9),
    ("complex", [[1.5e308 + 1.5e308j, 0], [0, 0]], 1e-9),  # |a11| overflows
    ("complex", [[1e-289, 0], [1e31, 0]], 1e-9),  # kappa * sqrt(lam1*lam2) underflows to 0
    ("real", [[0, -1e44], [0, 1e-239]], 1e-9),
    ("complex", [[1e-170, 1], [1, 1e-170]], 0.0),  # a nonzero a11 whose square underflows
    ("complex", [[-3.3160722734604e+77, -9.889918091862919e+155], [0, 0]], 1e-9),
    ("real", [[-3.3160722734604e+77, -9.889918091862919e+155], [0, 0]], 1e-9),
])
def test_out_of_range_inputs_are_unclassifiable(field, rows, tol):
    with pytest.raises(UnclassifiableError):
        classify_with_witness(SM(rows, field), field, tol=tol)


@pytest.mark.parametrize("field, rows", [
    ("complex", [[1e155, 1], [2, 1e155]]),
    ("real", [[1e155, 1], [2, 1e155]]),
    ("complex", [[1e154 + 1e154j, 0], [0, 1e154 + 1e154j]]),
])
def test_overflowing_determinant_is_no_witness(field, rows):
    # a start whose determinant overflowed to inf passed the check, and
    # BasisChange then refused it with ValueError: an input error for a
    # valid matrix.  Now the input is unclassifiable or has a verified class
    A = SM(rows, field)
    try:
        cls, w = classify_with_witness(A, field)
    except UnclassifiableError:
        return
    assert homomorphism_residual(A, canonical_matrix(cls), w.entries) < 1e-18


# --- batched tags --------------------------------------------------------------

_SIGN = st.sampled_from([1.0, -1.0])
_ZERO = st.sampled_from([0.0, -0.0])
_SCALED = st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
                    st.floats(1.0, 10.0), st.integers(-12, 12), _SIGN)


def _near(tol):
    """tol * (1 + side * 10^-k): values at the structural tolerance."""
    return st.builds(lambda k, side, sign: sign * tol * (1.0 + side * 10.0 ** -k),
                     st.integers(1, 15), st.sampled_from([1.0, -1.0, 0.0]), _SIGN)


def _kappa_cancels(w0, w1, k, side):
    """A rank-1 matrix row_i = lam_i * w with lam = (1, lam1), where
    kappa = w0^2 + lam1 * w1^2 = -side * 10^-k * w0^2 nearly cancels."""
    lam1 = -(w0 * w0) / (w1 * w1) * (1.0 + side * 10.0 ** -k)
    return ((w0, w1), (lam1 * w0, lam1 * w1))


def _matrices(tol):
    x = st.one_of(_near(tol), _SCALED, _ZERO) | st.builds(complex, _SCALED, _SCALED)
    chain = st.one_of(
        st.builds(lambda z, b, d: ((z, b), (z, d)), _ZERO, x, x),       # M1, M2
        st.builds(lambda z, c, d: ((z, z), (c, d)), _ZERO, x, x),       # M3, M4
        st.builds(lambda z, b: ((z, b), (z, z)), _ZERO, x),             # M5, M6
        st.builds(lambda z, c: ((z, z), (c, z)), _ZERO, x))             # M7, M8
    near_rank1 = st.builds(
        lambda r0, r1, lam, k: ((r0, r1), (lam * r0 * (1.0 + 10.0 ** -k), lam * r1)),
        x, x, _SCALED, st.integers(1, 17))
    unit = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
        lambda z: abs(z) > 0.1)
    kappa_cancels = st.builds(_kappa_cancels, unit, unit, st.integers(1, 15),
                              st.sampled_from([1.0, -1.0, 1j, -1j]))
    any_rank = st.tuples(st.tuples(x, x), st.tuples(x, x))
    return st.one_of(chain, near_rank1, kappa_cancels, any_rank)


def _factorization_defect(r):
    """max |row_q - lam_q * w| for row_i = lam_i * w, w the row with the
    larger entry and lam_q read off at w's larger coordinate: the defect test
    _rank1_data once made against tol * max |a_ij|."""
    p = 0 if max(map(abs, r[0])) >= max(map(abs, r[1])) else 1
    w, other = r[p], r[1 - p]
    j = 0 if abs(w[0]) >= abs(w[1]) else 1
    lam = other[j] / w[j]
    return max(abs(other[0] - lam * w[0]), abs(other[1] - lam * w[1]))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rank_test_bounds_the_factorization_defect(data):
    # the other row's defect off lam * w is |det| / max|a_ij|, so wherever
    # classify's rank test says rank 1 the defect is within tol * max|a_ij|
    # up to rounding, and no separate defect test is needed.  That needs
    # max|a_ij|^2 to be a normal float: below it the determinant underflows,
    # the rank test puts any matrix at rank 1, and the witness check must
    # then reject every rank-1 candidate of one that is far from rank 1
    import evoalg.classify2d as c2d

    tol = data.draw(st.sampled_from([1e-9, 0.0, 1e-3, 1e-12, 1.0]))
    x = _SCALED | st.builds(complex, _SCALED, _SCALED)
    product = st.builds(lambda l0, l1, w0, w1: ((l0 * w0, l0 * w1), (l1 * w0, l1 * w1)),
                        x, x, x, x)
    stack = data.draw(st.lists(_matrices(tol) | product, min_size=1, max_size=12))
    # entries of modulus 1/2..2 at one scale, |det| / max|a_ij|^2 about
    # tol * 2^j: on both sides of the rank test
    u = st.builds(lambda v, sign: sign * v, st.floats(0.5, 2.0), st.sampled_from([1, -1, 1j, -1j]))
    scale = 10.0 ** data.draw(st.integers(-12, 12) | st.integers(-200, -160))
    r0, r1, lam = scale * data.draw(u), scale * data.draw(u), data.draw(u)
    stack += [((r0, r1), (lam * r0 * (1 + tol * 2.0 ** j), lam * r1)) for j in range(-4, 7)]
    factor = c2d._rank1_data
    for rows in stack:
        for field in ("complex", "real"):
            if field == "real":
                rows = [[complex(z).real for z in r] for r in rows]
            A, rank1 = SM(rows, field), []
            with pytest.MonkeyPatch.context() as mp:  # classify factors what it puts at rank 1
                mp.setattr(c2d, "_rank1_data", lambda M: rank1.append(M) or factor(M))
                try:
                    classify(A, field, tol=tol)
                    raised = False
                except UnclassifiableError:
                    raised = True
            m = A.maxabs()
            if rank1 and _factorization_defect(A.entries) > tol * m + 2.0 ** -50 * m:
                assert m < 2.0 ** -511 and raised, (rows, field, tol)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_classify_tags_matches_classify(data):
    # a decided tag is classify's tag; where classify raises, no tag
    tol = data.draw(st.sampled_from([1e-9, 0.0, 1e-3, 1e-12]))
    stack = data.draw(st.lists(_matrices(tol), min_size=1, max_size=12))
    tags = classify_tags(stack, tol)
    assert len(tags) == len(stack)
    for rows, tag in zip(stack, tags):
        try:
            want = classify(SM(rows, "complex"), tol=tol).tag
        except (EvoalgError, ValueError):
            want = None
        assert tag is None or tag == want, (rows, tol, tag, want)


def test_classify_tags_decides_plain_chain_matrices():
    # moderate chain-family matrices need no scalar fallback
    rng = random.Random(3)
    stack, want = [], []
    for _ in range(200):
        b, c, d = (rng.choice([-1, 1]) * rng.uniform(0.1, 10.0) for _ in range(3))
        for rows in (((0, b), (0, d)), ((0, 0), (c, d)), ((0, b), (0, 0)),
                     ((0, 0), (c, 0)), ((0, 0), (0, 0))):
            stack.append(rows)
            want.append(classify(SM(rows, "complex"), "complex").tag)
    assert classify_tags(stack, 1e-9) == want


def test_classify_tags_keeps_a_margin_below_its_ratio(monkeypatch):
    # the zero-row and zero-column chain shapes in both orientations, the
    # smaller live entry 2^-k times the larger, across _TAG_SCALES: a decided
    # tag is classify's; from _TAG_RATIO up, every E1 or E2 that the replayed
    # tests name first is decided; and down to _TAG_RATIO / 4 classify still
    # returns the tag the replayed tests name first, so the witness check
    # fails only well below the ratio.  (Where kappa or lam1*lam2 is within
    # tol, another candidate comes first and classify decides.)
    import evoalg.classify2d as c2

    shapes = (lambda m, r: ((0, 0), (m, r * m)), lambda m, r: ((0, 0), (r * m, m)),
              lambda m, r: ((0, m), (0, r * m)), lambda m, r: ((0, r * m), (0, m)))
    stack, ratios = [], []
    for k in range(65):
        for scale in (1e-59, 2.0 ** -100, 3e-7, 1.0, 2.0 ** 90, 9e59):
            for sign in (1.0, -1.0):
                stack += [shape(sign * scale, sign * 2.0 ** -k) for shape in shapes]
                ratios += [2.0 ** -k] * len(shapes)
    for tol in (1e-9, 0.0, 1e-3, 1e-12, 1.0):
        tags = classify_tags(stack, tol)
        monkeypatch.setattr(c2, "_TAG_RATIO", c2._TAG_RATIO / 4)
        first = classify_tags(stack, tol)
        monkeypatch.undo()
        for rows, ratio, tag, named in zip(stack, ratios, tags, first):
            if named is None and ratio < c2._TAG_RATIO:
                continue
            try:
                want = classify(SM(rows, "complex"), tol=tol).tag
            except EvoalgError:
                want = None
            assert tag in (None, want) and named in (None, want), (rows, tol, tag, named, want)
            assert tag == named or ratio < c2._TAG_RATIO, (rows, tol)


def test_classify_tags_validates_like_classify():
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            classify_tags([((0, 1), (0, 0))], tol)
    assert classify_tags([((math.inf, 0), (0, 0))]) == [None]
    assert classify_tags([]) == []
