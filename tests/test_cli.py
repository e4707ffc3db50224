import contextlib
import csv
import io
import json
import math
import pathlib
import re
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evoalg import cli
from evoalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_matrix(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="ascii")
    return str(p)


def test_classify_e4(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.txt", "2\n0+0i 5+0i\n0+0i 0+0i\n")
    code, out, _ = run(capsys, "classify", m)
    assert code == 0
    assert out.splitlines()[0] == "class: E4"


def test_classify_zero(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.txt", "2\n0+0i 0+0i\n0+0i 0+0i\n")
    code, out, _ = run(capsys, "classify", m)
    assert code == 0 and "class: E0" in out


def test_classify_e5_canonical_order(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.txt", "2\n1+0i 0.2+0i\n0.1+0i 1+0i\n")
    code, out, _ = run(capsys, "classify", m, "--field", "complex")
    assert code == 0
    assert "class: E5(0.1, 0.2)" in out
    assert "witness" in out


def test_classify_parse_error(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.txt", "2\nbogus entries here\n0+0i 0+0i\n")
    code, _, err = run(capsys, "classify", m)
    assert code == 1 and "error" in err
    # a matrix of another dimension is refused by the classifier itself
    m = write_matrix(tmp_path, "m3.txt", "3\n0+0i 1+0i 0+0i\n" + "0+0i 0+0i 0+0i\n" * 2)
    code, out, err = run(capsys, "classify", m)
    assert (code, out) == (1, "")
    assert err == "error: classification supports dimension 2 only, got 3\n"


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", "does-not-exist.txt")
    assert code == 1


def test_classify_unclassifiable(tmp_path, capsys):
    m = write_matrix(tmp_path, "m.txt", "2\n0+0i 3+0i\n1e-12+0i 0+0i\n")
    code, _, err = run(capsys, "classify", m)
    assert code == 2 and "unclassifiable" in err


@pytest.mark.parametrize("field, text", [
    ("complex", "1.7306051716204005e+130+0i -9.33441516249936e+149+0i\n0+0i 0+0i"),
    ("real", "1.7306051716204005e+130+0i -9.33441516249936e+149+0i\n0+0i 0+0i"),
    ("complex", "1.5e308+1.5e308i 0+0i\n0+0i 0+0i"),
    ("real", "-3.3160722734604e+77+0i -9.889918091862919e+155+0i\n0+0i 0+0i"),
], ids=["residual-complex", "residual-real", "entry-modulus", "residual-far"])
def test_classify_extreme_scale_exits_cleanly(tmp_path, capsys, field, text):
    # an overflowing residual or entry modulus: one unclassifiable: line, no
    # traceback and no warning
    m = write_matrix(tmp_path, "m.txt", f"2\n{text}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "classify", m, "--field", field)
    assert code == 2 and err.startswith("unclassifiable: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["1e155+0i 1+0i\n2+0i 1e155+0i",
                                  "1e154+1e154i 0+0i\n0+0i 1e154+1e154i"])
def test_classify_overflowing_determinant_is_no_input_error(tmp_path, capsys, text):
    # the start's determinant overflows to inf: unclassifiable (exit 2) or a
    # verified class, never the exit 1 of a malformed input
    m = write_matrix(tmp_path, "m.txt", f"2\n{text}\n")
    code, out, err = run(capsys, "classify", m)
    assert (code, err.split(":")[0]) == (2, "unclassifiable") or (code == 0 and "class:" in out)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("text", ["0+0i 1e-320+0i\n0+0i 0+0i", "0+0i 0+0i\n1e-320+0i 0+0i"])
def test_classify_tiny_e4_is_no_input_error(tmp_path, capsys, field, text):
    # the E4 witness entry 1/b overflows: unclassifiable (exit 2), not exit 1
    m = write_matrix(tmp_path, "m.txt", f"2\n{text}\n")
    code, _, err = run(capsys, "--tol", "0", "classify", m, "--field", field)
    assert code == 2 and err.startswith("unclassifiable: ")


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_cea_verify_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "m1.json"
    good.write_text(json.dumps({
        "schema_version": 1, "family": "M1",
        "functions": {"rho": "s", "phi": "exp(t)"}, "samples": 400,
    }))
    code, out, _ = run(capsys, "cea", "verify", str(good))
    assert code == 0 and "pass" in out

    # M5 is not closed under composition across its threshold
    bad = tmp_path / "m5.json"
    bad.write_text(json.dumps({
        "schema_version": 1, "family": "M5",
        "functions": {"Phi": "exp(t)"}, "thresholds": {"C": 2.0}, "samples": 200,
    }))
    code, out, _ = run(capsys, "cea", "verify", str(bad))
    assert code == 3 and "FAIL" in out


def test_cea_non_finite_entry(tmp_path, capsys):
    # an overflowing entry makes error cells; cea verify names its triple
    cfg = tmp_path / "m1.json"
    cfg.write_text(json.dumps({"schema_version": 1, "family": "M1", "resolution": 8,
                               "functions": {"rho": "1e200", "phi": "1e200*t"}}))
    code, out, err = run(capsys, "cea", "diagram", str(cfg), "--property", "error",
                         "--out", str(tmp_path / "out"))
    assert code == 0 and "36 cells in property" in out, err
    code, _, err = run(capsys, "cea", "verify", str(cfg))
    assert code == 1
    assert re.match(r"error: M1 matrix entry a12 = inf is not finite at \(s=.*, t=.*\) "
                    r"\[triple \(s=.*, tau=.*, t=.*\)\]$", err.strip()), err


def test_cea_verify_reads_t_max(tmp_path, capsys):
    # a valid config t_max bounds the sampled times, as verify_ck's argument
    from evoalg.cea import ChainFamilySpec, verify_ck

    cfg = tmp_path / "m1.json"
    cfg.write_text(json.dumps(dict(_M1, samples=200, t_max=3)))
    code, out, _ = run(capsys, "cea", "verify", str(cfg))
    spec = ChainFamilySpec.make("M1", _M1["functions"])
    want = verify_ck(spec, samples=200, t_max=3.0).summary()
    assert code == 0 and out == f"chapman-kolmogorov M1: {want}\n"
    assert want != verify_ck(spec, samples=200).summary()


def test_cea_verify_bad_config(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("{oops")
    code, _, err = run(capsys, "cea", "verify", str(p))
    assert code == 1


def test_cea_config_path_starting_with_brace(tmp_path, capsys, monkeypatch):
    # a config argument is a file path, whatever its first character
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{run}.json").write_text(json.dumps(dict(_M1, samples=50)))
    code, out, err = run(capsys, "cea", "verify", "{run}.json")
    assert code == 0 and "pass" in out, err


def test_cea_diagram_outputs(tmp_path, capsys):
    cfg = tmp_path / "m5.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "family": "M5",
        "functions": {"Phi": "exp(t)"}, "thresholds": {"C": 2.0},
        "window": [0, 4, 0, 4], "resolution": 16, "property": "E4",
    }))
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "cea", "diagram", str(cfg), "--out", str(out_dir))
    assert code == 0
    csv = (out_dir / "diagram.csv").read_text()
    svg = (out_dir / "diagram.svg").read_text()
    assert csv.startswith("s,t,class_tag\n")
    assert svg.startswith("<svg")
    # the t > C band carries the E4 class color
    from evoalg.cea import CLASS_COLORS

    assert CLASS_COLORS["E4"] in svg
    band = [ln for ln in csv.splitlines()[1:] if float(ln.split(",")[1]) > 2.0
            and float(ln.split(",")[0]) <= float(ln.split(",")[1])]
    assert band and all(ln.endswith("E4") for ln in band)


def test_rbo_verify_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "rbo", "verify", "--algebra", "E2", "--weight", "1",
                       "--samples", "40")
    assert code == 0
    assert "6/6 families pass" in out
    code, _, err = run(capsys, "rbo", "verify", "--algebra", "E9", "--weight", "0")
    assert code == 1


def test_rbo_search_zero_algebra(capsys):
    code, out, _ = run(capsys, "rbo", "search", "--algebra", "E0", "--weight", "0",
                       "--starts", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r11,r12,r21,r22,residual,annotation"
    assert len(lines) == 11  # every start converges on the zero algebra


def test_rbo_search_param_error(capsys):
    code, _, err = run(capsys, "rbo", "search", "--algebra", "E5", "--params", "nope",
                       "--weight", "1")
    assert code == 1


def test_rbo_systems_e1(capsys):
    code, out, _ = run(capsys, "rbo", "systems", "--algebra", "E1", "--weight", "0")
    assert code == 0
    assert "a^2 = 0" in out and "2*a*b = 0" in out and "c^2 = 0" in out and "b*c = 0" in out
    assert "tautologies" in out


def test_rbo_systems_unknown(capsys):
    code, _, err = run(capsys, "rbo", "systems", "--algebra", "E0", "--weight", "0")
    assert code == 1


_M1 = {"schema_version": 1, "family": "M1", "functions": {"rho": "s", "phi": "exp(t)"}}
_M2 = {"schema_version": 1, "family": "M2", "functions": {"sigma": "s"}, "thresholds": {"a": 2.5}}
_M5 = {"schema_version": 1, "family": "M5", "functions": {"Phi": "exp(t)"},
       "thresholds": {"C": 2.0}}


@pytest.mark.parametrize("argv, config", [
    (["bogus"], None),
    (["rbo", "search", "--algebra", "E2", "--weight", "7"], None),
    (["rbo", "verify", "--weight", "5"], None),
    (["rbo", "verify", "--weight", "abc"], None),
    (["rbo", "verify", "--algebra", "E1", "--weight", "0", "--samples", "0"], None),
    (["cea", "verify", "CONFIG", "--samples", "0"], _M1),
    (["cea", "verify", "CONFIG"], [1]),
    (["cea", "diagram", "CONFIG"], dict(_M1, window=5)),
    (["cea", "verify", "CONFIG"], dict(_M1, seed=[1])),
    (["cea", "verify", "CONFIG"], dict(_M1, functions={"rho": 5, "phi": "exp(t)"})),
    (["cea", "verify", "CONFIG"], dict(_M1, functions=["rho"])),
    (["cea", "verify", "CONFIG"], {"schema_version": 1, "family": "M2",
                                   "functions": {"sigma": "s"}, "thresholds": {"a": "x"}}),
    (["rbo", "search", "--algebra", "E2", "--weight", "0", "--starts", "0"], None),
    (["rbo", "search", "--algebra", "E2", "--weight", "0", "--starts", "-3"], None),
    (["cea", "diagram", "CONFIG", "--property", "E9"], _M1),
    (["cea", "verify", "CONFIG"], dict(_M1, seed=1.7)),
    (["cea", "verify", "CONFIG"], dict(_M1, samples=2.9)),
    (["cea", "diagram", "CONFIG"], dict(_M1, resolution=4.9)),
    (["cea", "verify", "CONFIG"], dict(_M1, seed=True)),
    (["cea", "diagram", "CONFIG", "--out", "CONFIG"], _M1),
    (["rbo", "verify", "--algebra", "E1", "--weight", "0", "--samples", "1",
      "--out", "no-such-dir/x.csv"], None),
    (["rbo", "search", "--algebra", "E2", "--weight", "0", "--starts", "1",
      "--out", "no-such-dir/x.csv"], None),
    (["cea", "verify", "CONFIG"], {"schema_version": 1, "family": "M2",
                                   "functions": {"sigma": "0.804*sqrt(s-1)"},
                                   "thresholds": {"a": 2.5}}),
    (["--tol", "-1", "classify", "CONFIG"], "2\n0+0i 0+0i\n0+0i 0+0i\n"),
    (["--tol", "nan", "classify", "CONFIG"], "2\n0+0i 0+0i\n0+0i 0+0i\n"),
    (["cea", "diagram", "CONFIG"], dict(_M1, tolerance=-1)),
    (["cea", "diagram", "CONFIG"], dict(_M1, property=["E1"])),
    (["rbo", "search", "--algebra", "E5", "--params", "1,1", "--weight", "1"], None),
    (["cea", "verify", "CONFIG"], dict(_M1, window="0123")),
    (["cea", "diagram", "CONFIG"], dict(_M1, window="0123")),
    (["cea", "verify", "CONFIG"], dict(_M1, tolerance="0.5")),
    (["cea", "diagram", "CONFIG"], dict(_M1, tolerance="0.5")),
    (["cea", "verify", "CONFIG"], dict(_M1, schema_version=True)),
    (["cea", "diagram", "CONFIG"], dict(_M1, schema_version=True)),
    (["cea", "verify", "CONFIG"], dict(_M1, t_max="5")),
    (["cea", "verify", "CONFIG"], dict(_M1, seed="3")),
    (["cea", "verify", "CONFIG"], dict(_M1, window=[])),
    (["cea", "verify", "CONFIG"], dict(_M1, resolution=-3)),
    (["cea", "verify", "CONFIG"], dict(_M1, t_max=0.1)),
    (["cea", "verify", "CONFIG"], dict(_M1, t_max=0)),
    (["cea", "verify", "CONFIG"], dict(_M1, t_max=-5)),
    (["cea", "diagram", "CONFIG"], dict(_M1, t_max=math.nan)),
    (["rbo", "search", "--algebra", "E0", "--params", "1", "--weight", "0"], None),
    (["cea", "diagram", "CONFIG"], {"schema_version": 1, "family": "M0",
                                    "window": [-1e308, 1e308, -1e308, 1e308]}),
    (["cea", "verify", "CONFIG"], dict(_M2, thresholds={"a": math.inf})),
    (["cea", "diagram", "CONFIG"], dict(_M2, thresholds={"a": math.inf})),
    (["cea", "verify", "CONFIG"], dict(_M5, thresholds={"C": math.inf})),
    (["cea", "diagram", "CONFIG"], dict(_M5, thresholds={"C": math.inf})),
    (["--tol", "inf", "classify", "CONFIG"], "2\n1+0i 2+0i\n3+0i 1+0i\n"),
    (["--tol", "1e400", "classify", "CONFIG"], "2\n1+0i 2+0i\n3+0i 1+0i\n"),
    (["--tol", "inf", "rbo", "verify", "--algebra", "E1", "--weight", "0", "--samples", "5"],
     None),
    (["cea", "verify", "CONFIG"], dict(_M5, tolerance=math.inf)),
    (["cea", "diagram", "CONFIG"], dict(_M5, tolerance=math.inf)),
    (["classify", "CONFIG"], "3\n0+0i 1+0i 0+0i\n0+0i 0+0i 0+0i\n0+0i 0+0i 0+0i\n"),
], ids=["unknown-command", "search-weight-7", "verify-weight-5", "verify-weight-abc",
        "rbo-verify-samples-0", "cea-verify-samples-0", "config-list", "config-window-int",
        "config-seed-list", "config-function-int", "config-functions-list",
        "config-threshold-str", "search-starts-0", "search-starts-neg",
        "diagram-property-E9", "config-seed-float", "config-samples-float",
        "config-resolution-float", "config-seed-bool", "diagram-out-is-file",
        "verify-out-missing-dir", "search-out-missing-dir", "verify-domain-error-in-triple",
        "tol-negative", "tol-nan", "config-tolerance-negative", "config-property-list",
        "search-degenerate-params", "verify-window-str", "diagram-window-str",
        "verify-tolerance-str", "diagram-tolerance-str", "verify-schema-true",
        "diagram-schema-true", "verify-t_max-str", "verify-seed-str", "verify-window-empty",
        "verify-resolution-negative", "verify-t_max-0.1", "verify-t_max-0", "verify-t_max-neg",
        "diagram-t_max-nan", "search-E0-params", "diagram-window-width-overflows",
        "verify-M2-threshold-inf", "diagram-M2-threshold-inf", "verify-M5-threshold-inf",
        "diagram-M5-threshold-inf", "tol-inf", "tol-1e400", "rbo-verify-tol-inf",
        "verify-tolerance-inf", "diagram-tolerance-inf", "classify-3x3"])
def test_input_errors_exit_1(capsys, tmp_path, argv, config):
    # every bad input is reported on one error: line with exit 1, never a
    # traceback or argparse's exit 2 (which would read as "unclassifiable")
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = [str(path) if a == "CONFIG" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error:" in err


# small JSON values: numbers stay small so that a perturbed samples or
# resolution still runs in milliseconds
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-20, 20)
    | st.sampled_from([math.nan, math.inf, 1e-12])
    | st.sampled_from(["", "x", "s", "exp(t)", "M1", "M2", "E1", "E4", "2", "1e-3", "0,4"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["rho", "phi", "a", "C"]), inner, max_size=3),
    max_leaves=6)
_CONFIG_KEYS = ["schema_version", "family", "functions", "thresholds", "window", "resolution",
                "seed", "tolerance", "samples", "t_max", "property"]


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _never_valid(key, value):
    """True when `value` can never be right for `key`: a JSON type the key
    never takes, a window, resolution or t_max that no command can draw, or a
    tolerance or threshold that is not finite."""
    if key in ("seed", "samples"):
        return not _number(value)
    if key == "tolerance":
        return not (_number(value) and 0 <= value < math.inf)
    if key == "t_max":  # s ~ U(0.1, t_max/3) needs t_max >= 0.3
        return not (_number(value) and math.isfinite(value) and value >= 0.3)
    if key in ("family", "property"):
        return not isinstance(value, str)
    if key in ("functions", "thresholds"):
        if isinstance(value, dict):
            return key == "thresholds" and not all(_number(v) and 0 < v < math.inf
                                                   for v in value.values())
        return bool(value)
    if key == "window":
        return not (isinstance(value, list) and len(value) == 4
                    and all(_number(x) and math.isfinite(x) for x in value)
                    and value[1] > value[0] and value[3] > value[2])
    if key == "resolution":
        sizes = value if isinstance(value, list) and len(value) == 2 else [value]
        return not all(_number(n) and float(n).is_integer() and n >= 2 for n in sizes)
    return key == "schema_version" and (type(value) is not int or value != 1)


@given(st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON, min_size=1, max_size=2))
@example({"t_max": 0.1})
@example({"t_max": math.nan, "seed": 2})
@settings(max_examples=80, deadline=None)
def test_malformed_configs_exit_1(changes):
    # one or two keys of a valid M1 config take arbitrary JSON values: each
    # command runs, or exits 1 with an error: line; never a traceback.  A
    # value of a type that the key never takes always exits 1
    cfg = {**_M1, "samples": 8, "resolution": 3, "window": [0, 4, 0, 4], **changes}
    bad = any(_never_valid(k, v) for k, v in changes.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        for argv in (["cea", "verify", str(path)],
                     ["cea", "diagram", str(path), "--out", str(pathlib.Path(tmp) / "out")]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 3), (argv, cfg, code)
            assert (code == 1) == ("error:" in err.getvalue()), (argv, cfg, err.getvalue())
            assert code == 1 or not bad, (argv, cfg, code)


def test_cea_diagram_honours_tol(tmp_path, capsys):
    cfg = tmp_path / "m1.json"
    cfg.write_text(json.dumps(dict(_M1, window=[0, 4, 0, 4], resolution=8)))
    csvs = []
    for tol in ([], ["--tol", "1e3"]):
        out_dir = tmp_path / f"out{len(csvs)}"
        code, _, _ = run(capsys, *tol, "cea", "diagram", str(cfg), "--out", str(out_dir))
        assert code == 0
        csvs.append((out_dir / "diagram.csv").read_text())
    # a tolerance above every entry makes each classified cell E0
    assert csvs[0] != csvs[1]
    assert all(ln.endswith(("E0", "out_of_domain")) for ln in csvs[1].splitlines()[1:])


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage:" in out


def test_search_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run(capsys, "--seed", "3", "rbo", "search", "--algebra", "E2",
                         "--weight", "0", "--starts", "40", "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


_DATA = pathlib.Path(__file__).parent / "data"


def _search_case(tag, params, weight):
    # 100 seeded starts on one canonical algebra; the file name spells the flags
    argv = ["--seed", "2", "rbo", "search", "--algebra", tag, f"--params={params}",
            "--weight", str(weight), "--starts", "100"]
    name = "_".join(["search", tag] + (params.split(",") if params else []) + [f"w{weight}", "seed2"])
    return pytest.param(argv, name + ".csv", id=name[len("search_"):])


@pytest.mark.parametrize("argv, golden", [
    pytest.param(["--seed", "0", "rbo", "search", "--algebra", "E6", "--params", "0",
                  "--weight", "1", "--starts", "60"], "search_E6_0_w1_seed0.csv",
                 id="E6(0)-w1-seed0"),
    pytest.param(["--seed", "1", "rbo", "search", "--algebra", "E2", "--weight", "0",
                  "--starts", "40"], "search_E2_w0_seed1.csv", id="E2-w0-seed1"),
    pytest.param(["--seed", "7", "rbo", "search", "--algebra", "E5", "--params", "0.3,-0.7",
                  "--weight", "1", "--starts", "40"], "search_E5_0.3_-0.7_w1_seed7.csv",
                 id="E5(0.3,-0.7)-w1-seed7"),
    *[_search_case(tag, "", w) for tag in ("E1", "E2", "E3", "E4") for w in (0, 1)],
    *[_search_case("E5", p, w) for p in ("0.3,-0.7", "0.3,0", "0,0.45") for w in (0, 1)],
    *[_search_case("E6", p, w) for p in ("0", "0.5") for w in (0, 1)],
    # algebras on which a weight-0 family other than the zero map has solutions
    *[_search_case("E5", p, 0) for p in ("0.25,0", "0,0.25", "-1,0.18518518518518517")],
    _search_case("E6", "-1.8898815748423097", 0),
])
def test_search_csv_matches_golden(tmp_path, capsys, argv, golden):
    # search output is a pure function of the flags and the seed; these files
    # pin it byte for byte, so any change to the solver must keep every bit
    out = tmp_path / "out.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (_DATA / golden).read_bytes()


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_report_matches_golden(tmp_path, capsys, monkeypatch, seed):
    # the printed report and the CSV of the whole catalog, byte for byte
    monkeypatch.chdir(tmp_path)
    name = f"verify_all_seed{seed}"
    code, out, _ = run(capsys, "--seed", str(seed), "rbo", "verify", "--algebra", "all",
                       "--weight", "all", "--samples", "200", "--out", f"{name}.csv")
    assert code == 0
    assert out == (_DATA / f"{name}.txt").read_text()
    assert (tmp_path / f"{name}.csv").read_bytes() == (_DATA / f"{name}.csv").read_bytes()


def test_golden_csvs_have_header_width_rows():
    # a comma inside a family id is quoted, so the csv module reads every row
    # of every CSV the CLI wrote with as many fields as the header
    for path in sorted(_DATA.glob("*.csv")):
        with open(path, newline="", encoding="ascii") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), path.name


# One chain config per family on the window [0,4]x[0,4] at resolution 8, so
# every cell centre is k/2 + 1/4 and the thresholds (a = 2.25, C = 1.75) and
# the diagonal s = t fall on centres; plus a config whose sqrt argument goes
# negative (error cells, and a domain error inside a verify triple) and one
# whose phi vanishes on a centre.
_CHAIN = _DATA / "chain"
_CHAIN_CONFIGS = [f"M{k}" for k in range(9)] + ["M2-sqrt-negative", "M1-phi-vanishes"]


def _chain_outputs(config, out_dir):
    """What the chain CLI makes of one config: `cea diagram`'s CSV and SVG,
    and `cea verify`'s stdout, stderr and exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cea", "diagram", str(config), "--out", str(out_dir)]) == 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["cea", "verify", str(config)])
    return {"diagram.csv": (out_dir / "diagram.csv").read_bytes(),
            "diagram.svg": (out_dir / "diagram.svg").read_bytes(),
            "verify.txt": f"{out.getvalue()}{err.getvalue()}exit {code}\n".encode("ascii")}


@pytest.mark.parametrize("name", _CHAIN_CONFIGS)
def test_chain_outputs_match_golden(tmp_path, name):
    for file, data in _chain_outputs(_CHAIN / f"{name}.json", tmp_path).items():
        assert data == (_CHAIN / name / file).read_bytes(), file
