import cmath
import json
import math
import random
import sys

import numpy as np
import pytest

from evoalg import cea
from evoalg.core import COMPLEX, EvoalgError, StructureMatrix
from evoalg.classify2d import AlgebraClass, canonical_matrix, homomorphism_residual
from evoalg.exprlang import DomainEvalError, parse_expr
from evoalg.cea import (
    FAMILIES,
    CantorDelta,
    ChainFamilySpec,
    ConstraintViolation,
    OutOfDomainError,
    classify_dynamics,
    expected_dynamics_class,
    family_matrix,
    load_config,
    property_diagram,
    sample_triples,
    verify_cantor,
    verify_ck,
)

from conftest import per_cell_diagram
from test_acceptance import INSTANCES

mk = ChainFamilySpec.make


def M1(rho="s", phi="exp(t)"):
    return mk("M1", {"rho": rho, "phi": phi})


def test_family_matrix_m1():
    A = family_matrix(M1(), 1.0, 2.0)
    assert abs(A.entries[0][1] - math.exp(2)) < 1e-12
    assert abs(A.entries[1][1] - math.exp(1)) < 1e-12
    assert A.entries[0][0] == 0 and A.entries[1][0] == 0


def test_family_matrix_m0():
    spec = mk("M0")
    for (s, t) in ((0, 0), (1, 2), (3, 3)):
        assert family_matrix(spec, s, t).is_zero()


def test_family_matrix_m5_branches():
    spec = mk("M5", {"Phi": "exp(t)"}, {"C": 5.0})
    assert family_matrix(spec, 1.0, 3.0).is_zero()
    A = family_matrix(spec, 1.0, 6.0)
    assert abs(A.entries[0][1] - math.exp(5)) < 1e-11
    assert A.entries[1][1] == 0


# Each threshold family with its threshold at 2, and the exact edges of its
# region rule: the family is "zero" or "live" there, or raises
# OutOfDomainError with the given text.  The region table gives no class at
# any of them.
_THRESHOLD_FAMILIES = {
    "M2": mk("M2", {"sigma": "1+s"}, {"a": 2.0}),
    "M4": mk("M4", {"g": "1+t"}, {"a": 2.0}),
    "M5": mk("M5", {"Phi": "exp(t)"}, {"C": 2.0}),
    "M6": mk("M6", {"rho": "1+s", "phi": "exp(t)"}, {"C": 2.0}),
    "M7": mk("M7", {"Psi": "exp(t)"}, {"C": 2.0}),
    "M8": mk("M8", {"sigma": "1+t", "phi": "exp(s)"}, {"C": 2.0}),
}
_EDGES = [
    *[(f, s, t, want) for f in ("M2", "M4") for s, t, want in (
        (0.5, 2.0, "zero"),  # t = a
        (2.0, 2.0, "zero"),  # s = t = a
        (0.0, 2.0, "zero"),  # s = 0, t = a
        (1.0, 1.0, "live"),  # s = t < a
        (0.0, 1.0, f"not covered by {f} branches (a=2.0)"),  # s = 0, t < a
        (0.0, 0.0, f"not covered by {f} branches (a=2.0)"),
    )],
    *[(f, s, t, want) for f in ("M5", "M6") for s, t, want in (
        (0.5, 2.0, "zero"),  # s < t = C
        (2.0, 2.0, f"not covered by {f} branches (C=2.0)"),  # s = t = C
        (1.0, 1.0, f"not covered by {f} branches (C=2.0)"),  # s = t < C
        (0.0, 0.0, f"not covered by {f} branches (C=2.0)"),
    )],
    *[(f, s, t, want) for f in ("M7", "M8") for s, t, want in (
        (2.0, 3.0, "zero"),  # s = C
        (2.0, 2.0, "zero"),  # s = t = C
    )],
]


def test_family_matrix_branch_boundaries():
    for f, s, t, want in _EDGES:
        spec = _THRESHOLD_FAMILIES[f]
        if want in ("zero", "live"):
            assert family_matrix(spec, s, t).is_zero() == (want == "zero"), (f, s, t)
            assert expected_dynamics_class(spec, s, t) is None, (f, s, t)
    # just inside each live region
    m2 = mk("M2", {"sigma": "1+s"}, {"a": 2.0})
    assert not family_matrix(m2, 0.5, 1.999999).is_zero()
    m5 = mk("M5", {"Phi": "exp(t)"}, {"C": 2.0})
    assert not family_matrix(m5, 0.5, 2.000001).is_zero()  # t > C
    m7 = mk("M7", {"Psi": "exp(t)"}, {"C": 2.0})
    assert not family_matrix(m7, 1.999999, 3.0).is_zero()


def test_family_matrix_out_of_domain():
    for f, s, t, want in _EDGES:
        spec = _THRESHOLD_FAMILIES[f]
        if want not in ("zero", "live"):
            with pytest.raises(OutOfDomainError) as info:
                family_matrix(spec, s, t)
            assert str(info.value) == f"(s={s}, t={t}) {want}"
            assert expected_dynamics_class(spec, s, t) is None, (f, s, t)
    m5 = mk("M5", {"Phi": "exp(t)"}, {"C": 2.0})
    with pytest.raises(OutOfDomainError):
        family_matrix(m5, 2.0, 1.0)  # s > t
    with pytest.raises(OutOfDomainError):
        family_matrix(m5, -1.0, 1.0)
    assert expected_dynamics_class(m5, 2.0, 1.0) is None


def test_region_table_excludes_near_zeros_of_the_case_split():
    # the class changes where the case-splitting function vanishes, and at
    # s = t where M1's clause needs s < t; within eps of either, no class
    m1 = M1(rho="s-1")
    assert expected_dynamics_class(m1, 2.0, 2.0) is None
    assert expected_dynamics_class(m1, 1.0 + 1e-9, 2.0) is None
    assert expected_dynamics_class(m1, 1.0, 2.0) == "E1"
    for spec, s, t in ((mk("M2", {"sigma": "s-1"}, {"a": 3.0}), 1.0 + 1e-9, 2.0),
                       (mk("M6", {"rho": "s-1", "phi": "exp(t)"}, {"C": 2.0}), 1.0 + 1e-9, 3.0),
                       (mk("M8", {"sigma": "t-3", "phi": "exp(s)"}, {"C": 2.0}), 1.0, 3.0 + 1e-9)):
        assert expected_dynamics_class(spec, s, t) is None, spec.family
        assert expected_dynamics_class(spec, s, t, eps=0.0) is not None, spec.family


def test_nonvanishing_constraint():
    spec = M1(phi="t-3")
    with pytest.raises(ConstraintViolation):
        family_matrix(spec, 3.0, 4.0)  # phi vanishes at s=3
    with pytest.raises(ConstraintViolation):
        family_matrix(spec, 1.0, 3.0)  # phi vanishes at t=3
    m8 = mk("M8", {"sigma": "t", "phi": "s-1"}, {"C": 2.0})
    with pytest.raises(ConstraintViolation):
        family_matrix(m8, 1.0, 3.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        mk("M9")
    with pytest.raises(ValueError):
        mk("M1", {"rho": "s"})  # missing phi
    with pytest.raises(ValueError):
        mk("M2", {"sigma": "s"}, {"a": -1.0})
    with pytest.raises(ValueError):
        mk("M0", {"rho": "s"})
    # an infinite threshold leaves only the zero region (M5) or only the
    # live region (M2) inside any window, so a check passes vacuously
    for build, message in [
        (lambda: mk("M2", {"sigma": "s"}, {"C": 1.0}), "M2 needs thresholds ['a'], got ['C']"),
        (lambda: mk("M2", {"sigma": "s"}, {"a": math.inf}),
         "threshold a must be finite, got inf"),
        (lambda: mk("M5", {"Phi": "exp(t)"}, {"C": math.inf}),
         "threshold C must be finite, got inf"),
        (lambda: mk("M5", {"Phi": "exp(t)"}, {"C": -math.inf}),
         "threshold C must be > 0, got -inf"),
        (lambda: mk("M5", {"Phi": "exp(t)"}, {"C": math.nan}), "threshold C must be > 0, got nan"),
    ]:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_verify_ck_m1_passes():
    report = verify_ck(M1(), samples=1000, seed=0)
    assert report.passed and report.max_violation < 1e-9


def test_verify_ck_m0_exact():
    report = verify_ck(mk("M0"), samples=200, seed=0)
    assert report.passed and report.max_violation == 0.0


def test_verify_ck_families_m1_to_m4():
    specs = [
        M1(),
        M1(rho="0"),
        mk("M2", {"sigma": "s-2"}, {"a": 2.5}),
        mk("M2", {"sigma": "0"}, {"a": 2.5}),
        mk("M3", {"f": "t-2", "phi": "exp(t)"}),
        mk("M3", {"f": "0", "phi": "2+sin(t)"}),
        mk("M4", {"g": "t-2"}, {"a": 2.5}),
        mk("M4", {"g": "1+t"}, {"a": 2.5}),
    ]
    for spec in specs:
        report = verify_ck(spec, samples=1000, seed=0)
        assert report.passed, f"{spec.family}: {report.summary()}"


def test_chain_law_table_is_exact():
    # the region rules and live matrices on s < tau < t = 1, 2, 3, with the
    # slot values as sympy functions of symbols: M0..M4 satisfy
    # M[s,t] = M[s,tau] M[tau,t] identically at every threshold, M5..M8 only
    # M[s,tau] M[tau,t] = 0, with M[s,t] nonzero at some threshold
    import sympy

    times = dict(zip((1.0, 2.0, 3.0), sympy.symbols("s tau t", positive=True)))
    ev = lambda name, x: sympy.Function(name)(times[x])

    def matrix(family, s, t, x):
        region = cea._FAMILY[family][3]
        if region:
            live, zero = cea._REGIONS[region](s, t, x)
            assert live != zero, (family, s, t, x)  # covered by exactly one branch
            if zero:
                return sympy.zeros(2, 2)
        return sympy.Matrix(cea._LIVE[family](ev, s, t))

    for family in FAMILIES:
        ck, nonzero = family in ("M0", "M1", "M2", "M3", "M4"), False
        for x in (0.5 * k for k in range(1, 8)):
            left = matrix(family, 1.0, 2.0, x) * matrix(family, 2.0, 3.0, x)
            right = matrix(family, 1.0, 3.0, x)
            law = left - right if ck else left
            assert law.applyfunc(sympy.cancel).is_zero_matrix, (family, x)
            nonzero |= not right.is_zero_matrix
        assert ck or nonzero, family


def test_verify_ck_mutant_fails():
    # M1 with the (2,2) entry shifted by 0.1
    def mutant(s, t):
        rho, phi = s, math.exp
        return StructureMatrix.from_rows(
            [[0.0, rho * phi(t)], [0.0, phi(t) / phi(s) + 0.1]], "real"
        )

    report = verify_ck(mutant, samples=1000, seed=0)
    assert not report.passed
    assert report.worst_triple is not None


def test_verify_ck_semigroup_per_triple():
    spec = M1()
    for (s, tau, t) in sample_triples(50, seed=3):
        left = family_matrix(spec, s, tau), family_matrix(spec, tau, t)
        prod = [
            [sum(left[0].entries[i][k] * left[1].entries[k][j] for k in range(2))
             for j in range(2)]
            for i in range(2)
        ]
        right = family_matrix(spec, s, t).entries
        assert max(abs(prod[i][j] - right[i][j]) for i in range(2) for j in range(2)) < 1e-9


def _outcome(check):
    try:
        return check()
    except EvoalgError as e:
        return type(e), str(e)


def _ck_both(spec, samples, seed, t_max=10.0):
    """verify_ck's outcome on the spec (array passes) and on the per-triple
    loop it falls back to (a callable spec)."""
    loop = lambda s, t: family_matrix(spec, s, t)
    return (_outcome(lambda: verify_ck(spec, samples, seed, t_max=t_max)),
            _outcome(lambda: verify_ck(loop, samples, seed, t_max=t_max)))


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_ck_blocks_match_the_per_triple_loop(family, monkeypatch):
    monkeypatch.setattr(cea, "CK_BLOCK", 64)  # several blocks per check
    for inst in INSTANCES.get(family, [{}]):
        spec = mk(family, inst.get("functions"), inst.get("thresholds"))
        for seed in range(3):
            batched, loop = _ck_both(spec, 300, seed, t_max=10.0 if seed else 4.0)
            assert isinstance(batched, cea.CkReport) and batched == loop, (family, inst, seed)


def test_verify_ck_blocks_match_the_loop_at_the_default_block():
    spec = M1("s-2", "2+sin(t)")
    batched, loop = _ck_both(spec, 2500, 7)
    assert batched == loop and batched.worst_triple is not None


def test_verify_ck_errors_match_the_per_triple_loop(monkeypatch):
    cases = [
        (mk("M2", {"sigma": "0.804*sqrt(s-1)"}, {"a": 2.5}), DomainEvalError),
        (M1("s", "0*t"), ConstraintViolation),
        (M1("1e200", "1e200*t"), EvoalgError),  # a12 overflows
    ]
    for spec, kind in cases:
        batched, loop = _ck_both(spec, 200, 1)
        assert batched == loop and batched[0] is kind, batched
        assert "[triple (s=" in batched[1]
    # no sampled triple leaves the branches; s = 0 does for M2
    monkeypatch.setattr(cea, "_triple_blocks", lambda n, seed, t_max: [np.array(
        [(1.0, 1.5, 2.0)] * 3 + [(0.0, 1.0, 2.0)] + [(1.0, 1.5, 2.0)] * (n - 4))])
    batched, loop = _ck_both(mk("M2", {"sigma": "s"}, {"a": 2.5}), 10, 0)
    assert batched == loop and batched[0] is OutOfDomainError, batched
    # phi vanishes only at t = 2, where it sits in no denominator
    batched, loop = _ck_both(M1("s", "t-2"), 10, 0)
    assert batched == loop and batched[0] is ConstraintViolation, batched


def test_non_finite_entry_is_an_evoalg_error():
    # an overflowing entry is an error of its cell, not of the whole diagram
    spec = M1("1e200", "1e200*t")
    with pytest.raises(EvoalgError, match=r"M1 matrix entry a12 = inf is not finite "
                                          r"at \(s=1.0, t=2.0\)"):
        family_matrix(spec, 1.0, 2.0)
    d = property_diagram(spec, "error", (0, 4, 0, 4), 8)
    assert {tag for row in d.cells for tag in row} == {"error", "out_of_domain"}


def test_diagram_with_a_tiny_e4_entry_marks_error_cells():
    # Phi(t)/Phi(s) = exp(-100 (t - s)) is 2e-310 to 2e-320 at the centres: the
    # E4 witness overflows, and each cell is unclassifiable, not a ValueError
    spec = mk("M5", {"Phi": "exp(-100*t)"}, {"C": 1.0})
    d = property_diagram(spec, "E4", (0, 0.02, 7.1, 7.4), 4, tol=0.0)
    assert {tag for row in d.cells for tag in row} == {"error"}


def test_verify_cantor_examples():
    assert verify_cantor("exp(t)/exp(s)", "cantor", 1000, 0).passed
    assert verify_cantor("0", "cantor", 500, 0).passed
    assert verify_cantor("0", "degenerate", 500, 0).passed
    assert verify_cantor(CantorDelta.cutoff(1.0, "s+t"), "degenerate", 1000, 0).passed
    assert verify_cantor(CantorDelta.step(5.0), "cantor", 1000, 0).passed
    # the cutoff function does not satisfy the full multiplicative equation
    assert not verify_cantor(CantorDelta.cutoff(1.0, "exp(t)/exp(s)"), "cantor", 1000, 0).passed
    with pytest.raises(ValueError):
        verify_cantor("0", "unknown")
    with pytest.raises(OutOfDomainError,
                       match=r"^\(s=0\.0, t=1\.0\) not covered by the step solution$"):
        CantorDelta.step(2.0)(0.0, 1.0)
    with pytest.raises(OutOfDomainError,
                       match=r"^\(s=1\.0, t=1\.0\) not covered by the cutoff solution$"):
        CantorDelta.cutoff(1.0, "s+t")(1.0, 1.0)


def test_verify_cantor_needs_samples():
    # zero or negative samples would check nothing and pass
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            verify_cantor("0", "cantor", samples)


@pytest.mark.parametrize("build, message", [
    (lambda: CantorDelta("sum", parse_expr("s")), "unknown kind 'sum'"),
    (lambda: CantorDelta("expr"), "expr delta needs an expression"),
    (lambda: CantorDelta("cutoff", None, 1.0), "cutoff delta needs an expression"),
    (lambda: CantorDelta("step", parse_expr("s"), 1.0), "step delta takes no expression"),
    # a step at a <= 0 is 0 on every admissible pair and passes any sampled
    # check; a cutoff at C <= 0 or a NaN threshold puts every pair out of domain
    (lambda: CantorDelta.step(0.0), "threshold a must be > 0, got 0.0"),
    (lambda: CantorDelta.step(-3.0), "threshold a must be > 0, got -3.0"),
    (lambda: CantorDelta.step(math.nan), "threshold a must be > 0, got nan"),
    (lambda: CantorDelta.step(math.inf), "threshold a must be finite, got inf"),
    (lambda: CantorDelta.cutoff(0.0, "s+t"), "threshold C must be > 0, got 0.0"),
    (lambda: CantorDelta.cutoff(-math.inf, "s+t"), "threshold C must be > 0, got -inf"),
    (lambda: CantorDelta.cutoff(math.inf, "s+t"), "threshold C must be finite, got inf"),
])
def test_cantor_delta_checks_itself(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_verify_cantor_names_the_triple_of_an_error():
    with pytest.raises(EvoalgError, match=r"sqrt.*\[triple \(s=.*, tau=.*, t=.*\)\]$"):
        verify_cantor("sqrt(s-1)", "cantor", 100, 0)


def test_classify_dynamics_m1():
    spec = M1()
    assert classify_dynamics(spec, 0.0, 1.0).tag == "E1"  # rho(0) = 0
    assert classify_dynamics(spec, 1.0, 2.0).tag == "E2"


def test_classify_dynamics_m5():
    spec = mk("M5", {"Phi": "exp(t)"}, {"C": 2.0})
    assert classify_dynamics(spec, 1.0, 1.5).tag == "E0"
    assert classify_dynamics(spec, 1.0, 3.0).tag == "E4"


def test_classify_dynamics_m8_sigma_split():
    spec = mk("M8", {"sigma": "t-3", "phi": "2+cos(s)"}, {"C": 2.0})
    assert classify_dynamics(spec, 1.0, 3.0).tag == "E0"  # sigma(3) = 0
    assert classify_dynamics(spec, 1.0, 4.0).tag == "E4"
    assert classify_dynamics(spec, 2.5, 4.0).tag == "E0"  # s >= C


def _dynamics_witness(spec, s, t):
    """Closed-form basis change realizing the expected class at (s, t).

    Returns (tag, S) where S maps the canonical algebra of `tag` onto the
    family's algebra (rows of S are the images of the canonical basis), or
    (tag, None) for the zero algebra where any invertible map works.
    """
    tag = expected_dynamics_class(spec, s, t, eps=0.0)
    if tag is None:
        raise OutOfDomainError(f"(s={s}, t={t}) is out of domain for {spec.family}")
    A = family_matrix(spec, s, t)
    (_, beta), (gamma, delta) = A.entries
    if tag == "E0":
        return tag, None
    if tag == "E1":
        if spec.family in ("M1", "M2"):
            return tag, ((0.0, 1.0 / delta), (1.0, 0.0))
        # M3/M4 shape [[0,0],[gamma,delta]]
        return tag, ((gamma / delta**2, 1.0 / delta), (1.0, 0.0))
    if tag == "E2":
        mu = 1.0 / cmath.sqrt(beta * delta)
        return tag, ((0.0, 1.0 / delta), (mu, 0.0))
    # E4 regions
    if spec.family in ("M5", "M6"):
        return tag, ((1.0, 0.0), (0.0, beta))
    return tag, ((0.0, 1.0), (gamma, 0.0))


def _check_dynamics_witness(spec, s, t) -> float:
    """Homomorphism residual of the closed-form witness at (s, t); exact (up
    to roundoff) when the region table is right."""
    tag, S = _dynamics_witness(spec, s, t)
    A = family_matrix(spec, s, t)
    if S is None:
        return 0.0 if A.is_zero() else float("inf")
    B = canonical_matrix(AlgebraClass(COMPLEX, tag))
    return homomorphism_residual(B, A, S)


def _cells(d):
    """(i, j, s, t) for each cell of a diagram, row by row."""
    ss, ts = d.axes()
    return [(i, j, s, t) for j, t in enumerate(ts) for i, s in enumerate(ss)]


def test_dynamics_witnesses_exact():
    rng = random.Random(5)
    specs = [
        M1(),
        M1(rho="0"),
        mk("M2", {"sigma": "s-2"}, {"a": 2.5}),
        mk("M3", {"f": "t-2", "phi": "exp(t)"}),
        mk("M4", {"g": "t"}, {"a": 2.5}),
        mk("M5", {"Phi": "exp(t)"}, {"C": 2.0}),
        mk("M6", {"rho": "s-2", "phi": "exp(t)"}, {"C": 2.0}),
        mk("M7", {"Psi": "2+sin(t)"}, {"C": 2.0}),
        mk("M8", {"sigma": "t-3", "phi": "2+cos(s)"}, {"C": 2.0}),
    ]
    checked = 0
    for spec in specs:
        for _ in range(40):
            s = rng.uniform(0.05, 3.8)
            t = rng.uniform(s + 1e-3, 4.0)
            tag = expected_dynamics_class(spec, s, t, eps=1e-9)
            if tag is None:
                continue
            res = _check_dynamics_witness(spec, s, t)
            assert res < 1e-18, (spec.family, s, t, res)
            assert classify_dynamics(spec, s, t).tag == tag
            checked += 1
    assert checked > 150


def test_property_diagram_m5():
    spec = mk("M5", {"Phi": "exp(t)"}, {"C": 2.0})
    d = property_diagram(spec, "E4", (0, 4, 0, 4), 64)
    for i, j, s, t in _cells(d):
        tag = d.cells[j][i]
        if s > t:
            assert tag == "out_of_domain"
        elif t > 2.0:
            assert tag == "E4" and d.in_property(tag)
        elif s < t:
            assert tag == "E0" and not d.in_property(tag)
        else:
            assert tag == "out_of_domain"


def test_property_diagram_always_evolution_algebra():
    spec = mk("M4", {"g": "t"}, {"a": 2.5})
    d = property_diagram(spec, "evolution-algebra", (0.1, 4, 0.1, 4), 16)
    for i, j, s, t in _cells(d):
        tag = d.cells[j][i]
        if tag not in ("out_of_domain", "error"):
            assert d.in_property(tag)


def test_property_diagram_validation():
    spec = mk("M0")
    with pytest.raises(ValueError):
        property_diagram(spec, "E0", (0, 4, 0, 4), 1)
    with pytest.raises(ValueError):
        property_diagram(spec, "E0", (4, 0, 0, 4), 8)
    with pytest.raises(ValueError, match="width overflows"):  # every centre was (inf, inf)
        property_diagram(spec, "E0", (-1e308, 1e308, -1e308, 1e308), 4)


# the centres of a 64-cell axis over this window are k/16: the thresholds
# 2 and 2.5 and the diagonal s = t fall on cell centres
_ON_CENTRES = (-0.03125, 3.96875, -0.03125, 3.96875)


@pytest.mark.parametrize("family", sorted(INSTANCES))
def test_property_diagram_matches_the_per_cell_loop(family):
    for inst in INSTANCES[family]:
        spec = mk(family, inst.get("functions"), inst.get("thresholds"))
        d = property_diagram(spec, "E4", _ON_CENTRES, 64)
        assert d.cells == per_cell_diagram(spec, _ON_CENTRES, 64), (family, inst)


# domain errors, vanishing denominators and overflow
_ERROR_SPECS = (M1("sqrt(s-1)", "log(t)"), M1("1/(s-2)", "t-1"), M1("1e200*s", "1e200*t"),
                mk("M3", {"f": "log(t-1)", "phi": "s-1"}),
                mk("M8", {"sigma": "t-2", "phi": "log(s)"}, {"C": 3.0}))


def test_property_diagram_error_cells_match_the_per_cell_loop():
    for spec in _ERROR_SPECS:
        for tol in (1e-9, 0.0):
            d = property_diagram(spec, "error", _ON_CENTRES, 32, tol=tol)
            assert d.cells == per_cell_diagram(spec, _ON_CENTRES, 32, tol), spec


def test_property_diagram_fallback_matches_the_per_cell_loop(monkeypatch):
    # a batch that decides nothing sends every covered cell through the
    # fallback; the centres of 16 cells over this window are k/4, so the
    # thresholds 2, 2.5 and 3 and the diagonal s = t fall on cell centres
    monkeypatch.setattr(cea, "classify_tags", lambda entries, tol: [None] * len(entries))
    window = (-0.125, 3.875, -0.125, 3.875)
    specs = [mk(family, inst.get("functions"), inst.get("thresholds"))
             for family in sorted(INSTANCES) for inst in INSTANCES[family]]
    for spec in specs + list(_ERROR_SPECS):
        for tol in (1e-9, 0.0, 1e-3):
            d = property_diagram(spec, "E4", window, 16, tol=tol)
            assert d.cells == per_cell_diagram(spec, window, 16, tol), (spec, tol)


def test_diagram_sweep_digest_is_pinned():
    # tests/diagram_sweep.py at two configs per family and 16x16 cells:
    # M0..M8 with perfbench's coefficient draws, windows across each
    # threshold, tol 1e-9, 0 and 1e-3, every cell hashed; classify_tags
    # decides every cell
    from diagram_sweep import sweep

    cells, undecided, digest, _ = sweep(2, 16)
    assert (cells, digest) == (13824, "00921d9ab754cc4bc2d78a3a9ca1f5679de84475c80904c2fe0d707cabdb9386")
    assert undecided == 0


def test_verify_sweep_digest_is_pinned(monkeypatch):
    # tests/verify_sweep.py at two configs per family, scaled down to blocks
    # of 16 triples and sample counts around them: every check on the block
    # path and through the per-triple loop, reports and errors hashed
    from verify_sweep import sweep

    monkeypatch.setattr(cea, "CK_BLOCK", 16)
    assert sweep(2, (1, 15, 16, 17, 40)) == (
        720, "e2bce6da57abc3e3b2bd331274036241d915564fb9d73d2eb312fdb3d8b2dd92")


def test_exactly_rank1_cells_are_classified_at_tol_zero():
    # M1's live matrix [[0, b], [0, d]] is exactly rank 1; at tol 0 the
    # rounding of d/b in the rank-1 factorization makes no cell an error,
    # in the batch or in the per-cell loop
    spec = M1("s-1.577", "exp(0.181*t)")
    window = (0.013, 5.271, 0.458, 4.646)
    exact = property_diagram(spec, "E2", window, 64, tol=0.0).cells
    assert not any("error" in row for row in exact)
    assert exact == property_diagram(spec, "E2", window, 64, tol=1e-9).cells
    assert exact == per_cell_diagram(spec, window, 64, 0.0)


def test_chain_slots_run_compiled(monkeypatch):
    # with compilation disabled, every report and cell of a spec built before
    # is the same: chain evaluation runs each spec's compiled slots
    import evoalg.exprlang as exprlang

    specs = [mk(family, inst.get("functions"), inst.get("thresholds"))
             for family in ("M1", "M2", "M5") for inst in INSTANCES[family]]

    def run():
        return [(verify_ck(spec, 500, 3), property_diagram(spec, "E4", _ON_CENTRES, 32).cells)
                for spec in specs]

    want = run()

    def no_compile(*args):
        raise AssertionError("a chain slot compiled an expression")

    monkeypatch.setattr(exprlang, "_compile", no_compile)
    with pytest.raises(AssertionError):
        exprlang.eval_expr(specs[0].functions["rho"], 1.0, 1.0)
    assert run() == want


def test_diagram_csv_deterministic():
    spec = mk("M5", {"Phi": "exp(t)"}, {"C": 2.0})
    d1 = property_diagram(spec, "E4", (0, 4, 0, 4), 16)
    d2 = property_diagram(spec, "E4", (0, 4, 0, 4), 16)
    assert d1.to_csv() == d2.to_csv()
    assert d1.to_svg() == d2.to_svg()
    assert d1.to_csv().startswith("s,t,class_tag\n")


def test_load_config_roundtrip(tmp_path):
    cfg = {
        "schema_version": 1,
        "family": "M6",
        "functions": {"rho": "s-2", "phi": "exp(t)"},
        "thresholds": {"C": 2.0},
        "window": [0, 4, 0, 4],
        "resolution": [32, 16],
        "seed": 7,
        "tolerance": 1e-10,
        "samples": 500,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = load_config(str(p))
    assert out["spec"].family == "M6"
    assert out["resolution"] == (32, 16)
    assert out["seed"] == 7 and out["samples"] == 500


@pytest.mark.parametrize("t_max", [0.1, 0, -5, math.nan, math.inf,
                                   1e308, 1.7976931348623157e308])
def test_t_max_below_the_range_of_s_is_refused(t_max, tmp_path):
    # s ~ U(0.1, t_max/3) is a range only from t_max = 0.3 on, and
    # tau ~ U(s + eps, 2 t_max/3) only up to t_max = float_info.max / 2
    with pytest.raises(ValueError, match="t_max"):
        sample_triples(1, 0, t_max)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema_version": 1, "family": "M0", "t_max": t_max}))
    with pytest.raises(EvoalgError, match="t_max"):
        load_config(p)
    assert all(0 < s < tau < t <= 0.3 for s, tau, t in sample_triples(200, 1, 0.3))
    top = sys.float_info.max / 2
    assert all(0 < s < tau < t <= top for s, tau, t in sample_triples(200, 1, top))


@pytest.mark.parametrize("t_max", [0.3, 10.0, 1e6, sys.float_info.max / 2])
def test_sample_triples_are_the_uniform_draws(t_max):
    # the inlined draws give rng.uniform's triples, bit for bit
    for seed in range(5):
        rng = random.Random(seed)
        want = []
        for _ in range(2100):  # three blocks of CK_BLOCK
            s = rng.uniform(0.1, t_max / 3.0)
            tau = rng.uniform(s + 1e-3, 2.0 * t_max / 3.0)
            want.append((s, tau, rng.uniform(tau + 1e-3, t_max)))
        got = sample_triples(2100, seed, t_max)
        assert [tuple(map(float.hex, x)) for x in got] == [tuple(map(float.hex, x)) for x in want]


def test_load_config_errors(tmp_path):
    from evoalg.core import EvoalgError

    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(EvoalgError):
        load_config(str(p))
    p.write_text(json.dumps({"schema_version": 99, "family": "M0"}))
    with pytest.raises(EvoalgError):
        load_config(str(p))
    p.write_text(json.dumps({"schema_version": 1}))
    with pytest.raises(EvoalgError):
        load_config(str(p))
