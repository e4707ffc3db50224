"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import os
import random
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from evoalg import cea, classify2d, core, exprlang, rotabaxter  # noqa: E402
from evoalg.core import format_complex  # noqa: E402


def _ev(**overrides):
    ns = types.SimpleNamespace(core=core, classify2d=classify2d, cea=cea,
                               exprlang=exprlang, rotabaxter=rotabaxter, cli=None)
    for k, v in overrides.items():
        setattr(ns, k, v)
    return ns


# --- generators ---------------------------------------------------------------------


@pytest.mark.parametrize("gen", [
    workloads.bulk_inputs,
    lambda rng: workloads.diagram_configs(rng, 16),
    lambda rng: workloads.verify_configs(rng, 10),
])
def test_generator_is_deterministic_in_the_seed(gen):
    a = gen(workloads.cycle_rng("w", 5, 2))
    assert a == gen(workloads.cycle_rng("w", 5, 2))
    assert a != gen(workloads.cycle_rng("w", 6, 2))
    assert a != gen(workloads.cycle_rng("w", 5, 3))


def test_edge_cycles_repeat_one_corpus_in_seed_order():
    a = workloads.edge_inputs(workloads.cycle_rng("w", 5, 2))
    assert a == workloads.edge_inputs(workloads.cycle_rng("w", 5, 2))
    for seed, k in ((6, 2), (5, 3)):
        b = workloads.edge_inputs(workloads.cycle_rng("w", seed, k))
        assert sorted(map(repr, b)) == sorted(map(repr, a))


def test_ops_write_identical_configs_for_a_seed(tmp_path):
    texts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        workloads.ops("chain", _ev(), 9, 0, str(d))
        texts.append({p.name: p.read_text() for p in sorted(d.iterdir())})
    assert texts[0] == texts[1] and len(texts[0]) == 14


def test_bulk_orbits_are_isomorphic_to_their_canonical_form():
    # the oracle's rescale/permute and homomorphism defect agree: the basis
    # change e'_i = d_i e_perm(i) maps each generated matrix onto its form
    rng = random.Random(1)
    for field, tag, params, _ in workloads.bulk_inputs(rng, rounds=3):
        d = [workloads._draw_scale(rng, field, 0.5, 2.0) for _ in range(2)]
        perm = rng.choice(((0, 1), (1, 0)))
        base = oracles.canonical_rows(field, tag, params)
        A = oracles.rescale_permute(base, d, perm)
        T = [[d[i] if k == perm[i] else 0j for k in range(2)] for i in range(2)]
        assert oracles.hom_defect(A, base, T) < 1e-12


# --- injected wrong answers raise fail_ratio ------------------------------------------


def _fail_ratio(tally):
    return len(tally.errors) / tally.attempted


def test_correct_classifier_passes_bulk(tmp_path):
    tally = child.run_pass("classify-bulk", _ev(), 3, str(tmp_path), budget=0.0)
    assert tally.cycles == 1 and _fail_ratio(tally) == 0.0


def test_pass_memory_does_not_grow_with_operations(tmp_path, monkeypatch):
    monkeypatch.setattr(child, "LATENCY_CAP", 10)
    tally = child.run_pass("classify-bulk", _ev(), 3, str(tmp_path), None, cycles=2)
    assert tally.attempted == 1200 and len(tally.latencies) == 10
    assert len(tally.cycle_p50s) == len(tally.rates["primary"]) == 2


def test_wrong_tag_raises_fail_ratio(tmp_path):
    real = classify2d.classify_with_witness

    def wrong(A, field=None, **kw):
        cls, w = real(A, field, **kw)
        if cls.tag == "E2":
            cls = classify2d.AlgebraClass(cls.field, "E1")
        return cls, w

    c2d = types.SimpleNamespace(classify_with_witness=wrong,
                                UnclassifiableError=classify2d.UnclassifiableError)
    tally = child.run_pass("classify-bulk", _ev(classify2d=c2d), 3, str(tmp_path), budget=0.0)
    # E2 is one of the 15 forms drawn in every round, in both fields
    assert _fail_ratio(tally) == pytest.approx(2 / 15)


def _search_cli(points):
    """Stand-in for `evoalg` that writes the given search solutions."""

    def main(argv):
        out = argv[argv.index("--out") + 1]
        lines = ["r11,r12,r21,r22,residual,annotation"]
        for R in points:
            lines.append(",".join([format_complex(z) for row in R for z in row]
                                  + ["1e-14", "x"]))
        with open(out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        return 0

    return types.SimpleNamespace(main=main)


@pytest.mark.parametrize("drop", [False, True])
def test_dropped_search_solution_raises_fail_ratio(tmp_path, monkeypatch, drop):
    sols = oracles.e6_zero_weight1_solutions()
    ev = _ev(cli=_search_cli(sols[1:] if drop else sols))
    path = str(tmp_path / "s.csv")
    monkeypatch.setattr(workloads, "ops", lambda *a: [
        workloads._search_op(ev, path, "E6", "0", 1, 500, 0)])
    tally = child.run_pass("rbo", ev, 0, str(tmp_path), budget=0.0)
    assert _fail_ratio(tally) == (1.0 if drop else 0.0)


def test_point_off_the_e2_lines_is_rejected():
    assert oracles.on_e2_weight0_line(((0j, 0j), (2 + 1j, 1j * (2 + 1j))))
    assert oracles.on_e2_weight0_line(((0j, 0j), (2 + 1j, -1j * (2 + 1j))))
    assert not oracles.on_e2_weight0_line(((0j, 0j), (2 + 1j, 2 + 1j)))


# --- self-time arithmetic ---------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_a_synthetic_span_tree():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    # root [0,10] > a [1,3], b [4,8] > c [4.5,5.5], lm [6,7] ; a second root [12,13]
    events = [(0, "root"), (1, "a"), (3, None), (4, "b"), (4.5, "c"), (5.5, None),
              (6, spans.LM), (7, None), (8, None), (10, None), (12, "root"), (13, None)]
    closed = {}
    for t, name in events:
        clock.now = t
        if name:
            rec.open(name)
        else:
            frame, dur = rec.close()
            closed.setdefault(frame[0], []).append((frame, dur))
    assert rec.self_s == pytest.approx({"root": 10 - 2 - 4 + 1, "a": 2, "b": 4 - 1 - 1,
                                        "c": 1, spans.LM: 1})
    assert rec.calls["root"] == 2
    assert rec.total_self_s() == pytest.approx(11.0)  # = the two root durations
    # the LM span below b marks b and the first root, not a or the second root
    assert closed["b"][0][0][4] and closed["root"][0][0][4]
    assert not closed["a"][0][0][4] and not closed["root"][1][0][4]


def test_install_restores_every_attribute():
    before = (classify2d.find_isomorphism, cea.eval_expr, core.StructureMatrix.__post_init__)
    uninstall = spans.install(spans.Recorder(), _ev())
    assert classify2d.find_isomorphism is not before[0]
    uninstall()
    assert (classify2d.find_isomorphism, cea.eval_expr,
            core.StructureMatrix.__post_init__) == before


# --- the benchmark description ----------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in spans.PER_LAYER]
