"""The four workloads: seeded input generators, the operations they run and
the oracle that checks each result.

A workload is a sequence of cycles.  Cycle k draws fresh inputs from
random.Random(f"{seed}:{k}:{name}"), so the same seed always gives the same
inputs and no two cycles share an input (classify-edge repeats one fixed
corpus of matrices in every cycle and uses the seed to order them).  Each
operation is one call a user makes: a classification, or one in-process
`evoalg` command line.  This
module reaches the program only through the namespace of evoalg modules
handed to `ops()`; generation itself uses no evoalg code.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracles

WORKLOADS = ("classify-bulk", "classify-edge", "chain", "rbo")


@dataclass
class Op:
    """One timed operation.

    `stream` picks the rate it counts towards ("primary" or "secondary"),
    `units` is the work it does for that rate (or `count(result)` when only
    the result knows), `latency` whether its wall time enters p50_ms.
    `check(result)` returns None or the oracle's complaint; `digest(result)`
    fingerprints the output for the traced-versus-untraced comparison.
    """

    stream: str
    units: float
    latency: bool
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]
    count: Callable[[object], float] | None = None


def cycle_rng(name: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}:{k}:{name}")


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


# --- classification inputs --------------------------------------------------------


def _draw_scale(rng, field, lo, hi):
    mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    if field == "complex":
        return mag * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return complex(mag * rng.choice((-1.0, 1.0)))


def _draw_params(rng, field, tag):
    """Canonical parameters kept away from the degenerate set 1 - xy = 0."""
    box = lambda: (complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                   if field == "complex" else complex(rng.uniform(-2.0, 2.0)))
    if (field, tag) in (("complex", "E5"), ("real", "E6")):
        while True:
            p = (box(), box())
            if abs(1 - p[0] * p[1]) >= 0.2:
                return p
    if (field, tag) in (("complex", "E6"), ("real", "E7")):
        return (box(),)
    return ()


def _as_field(rows, field):
    if field == "real":
        return [[z.real for z in r] for r in rows]
    return rows


def bulk_inputs(rng, rounds: int = 40):
    """Well-scaled matrices from rescale/permute orbits of every canonical
    form in both fields: (field, tag, params, rows), fields interleaved."""
    out = []
    for _ in range(rounds):
        for field, tags in (("complex", oracles.COMPLEX_TAGS), ("real", oracles.REAL_TAGS)):
            for tag in tags:
                params = _draw_params(rng, field, tag)
                d = [_draw_scale(rng, field, 0.5, 2.0) for _ in range(2)]
                perm = rng.choice(((0, 1), (1, 0)))
                rows = oracles.rescale_permute(oracles.canonical_rows(field, tag, params), d, perm)
                out.append((field, tag, params, _as_field(rows, field)))
    return out


# One search that ends unclassifiable over C, one that reaches the true E1
# late over R.  A cycle of two keeps a run at several identical cycles, so
# that the slow-side decile has cycles to choose from.
EDGE_KINDS = (("complex", "stray-lower"), ("real", "stray-diag"))


def edge_inputs(rng):
    """Near-boundary matrices: (field, kind, tag, params, rows) with the
    true class (tag, params), one per entry of EDGE_KINDS.

    The cost of one multi-start search changes chaotically with the input:
    moving |b| by 0.07% turns a 1.4 s unclassifiable search into a 0.95 s
    E1.  So that every cycle and every seed asks for the same work, the
    matrices come from one fixed corpus, and the workload seed `rng` only
    shuffles their order.  The cycles of a faster program then repeat the
    same work instead of reaching new inputs.
    """
    corpus = random.Random("classify-edge-corpus")
    out = []
    for field, kind in EDGE_KINDS:
        b = _draw_scale(corpus, field, 0.5, 3.0)
        eps = _draw_scale(corpus, field, 1e-13, 1e-11)
        if kind == "stray-lower":
            # [[0,b],[eps,0]] is rank 2 with a zero diagonal: E6(0) / E7(0)
            tag = "E6" if field == "complex" else "E7"
            params, rows = (0j,), [[0j, b], [eps, 0j]]
        else:
            # [[eps,b],[0,0]]: rank 1, kappa = eps^2 != 0, lam1*lam2 = 0 -> E1
            tag, params, rows = "E1", (), [[eps, b], [0j, 0j]]
        out.append((field, kind, tag, params, _as_field(rows, field)))
    rng.shuffle(out)
    return out


def _classify_op(ev, field, tag, params, rows, *, edge: bool) -> Op:
    def run():
        A = ev.core.StructureMatrix.from_rows(rows, field)
        try:
            return ev.classify2d.classify_with_witness(A, field)
        except ev.classify2d.UnclassifiableError:
            if edge:
                return None
            raise

    def check(res):
        if res is None:
            return None  # unclassifiable is an allowed answer on edge inputs
        cls, witness = res
        if not oracles.class_matches(field, tag, params, cls.tag, cls.params):
            return f"{field} {rows}: want {tag}{params}, got {cls.label()}"
        if witness is not None and not edge:
            B = oracles.canonical_rows(field, cls.tag, cls.params)
            scale = max(abs(z) for r in rows for z in r)
            if not oracles.witness_ok(rows, B, witness.entries, scale):
                return f"{field} {rows}: witness {witness.entries} is no isomorphism"
        return None

    def digest(res):
        if res is None:
            return "unclassifiable"
        cls, witness = res
        return f"{cls.label()}|{witness.entries if witness else None!r}"

    stream = "primary" if field == "complex" else "secondary"
    return Op(stream, 1, True, run, check, digest)


# --- command-line operations ------------------------------------------------------


def _cli(ev, argv):
    """Run `evoalg argv` in process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ev.cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def _num(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def diagram_configs(rng, resolution: int):
    """Five diagram configs covering E0/E1/E2/E4 regions, threshold
    switches, out-of-domain cells (s > t, and s = t <= C for M5) and error
    cells (sqrt of a negative value in M2).  Thresholds and the error
    boundary are fixed, so each region's share of the grid, and with it a
    diagram's cost, is the same for every seed; the seed draws the
    function coefficients."""
    base = {"schema_version": 1, "window": [0, 4, 0, 4], "resolution": resolution}
    return [
        dict(base, family="M1", property="E2",
             functions={"rho": f"s-{_num(rng, 1, 3)}", "phi": f"{_num(rng, 1.5, 3)}+sin(t)"}),
        dict(base, family="M2", property="E2", thresholds={"a": 2.5},
             functions={"sigma": f"{_num(rng, 0.5, 2)}*sqrt(s-1)"}),
        dict(base, family="M3", property="E1",
             functions={"f": f"t-{_num(rng, 1, 3)}", "phi": f"{_num(rng, 1.5, 3)}+cos(t)"}),
        dict(base, family="M5", property="E4", thresholds={"C": 2.0},
             functions={"Phi": f"exp({_num(rng, -0.5, 0.5)}*t)"}),
        dict(base, family="M7", property="E4", thresholds={"C": 2.0},
             functions={"Psi": f"{_num(rng, 1.5, 3)}+sin(t)"}),
    ]


def verify_configs(rng, samples: int):
    """One instance of each of M0..M8 with every free function nonzero on
    the sampled times, so M0..M4 satisfy Chapman-Kolmogorov and M5..M8 do
    not (their only entry sits in a nilpotent slot)."""
    base = {"schema_version": 1, "samples": samples, "seed": rng.randrange(1 << 30)}
    pos = lambda v: f"{_num(rng, 1.5, 3)}+{'sin' if rng.random() < 0.5 else 'cos'}({v})"
    return [
        dict(base, family="M0"),
        dict(base, family="M1", functions={"rho": f"s-{_num(rng, 1, 3)}", "phi": pos("t")}),
        dict(base, family="M2", thresholds={"a": _num(rng, 2, 3.5)},
             functions={"sigma": f"s-{_num(rng, 0.5, 2)}"}),
        dict(base, family="M3", functions={"f": f"t-{_num(rng, 1, 3)}", "phi": pos("t")}),
        dict(base, family="M4", thresholds={"a": _num(rng, 2, 3.5)},
             functions={"g": f"{_num(rng, 0.5, 2)}+t"}),
        dict(base, family="M5", thresholds={"C": _num(rng, 1.5, 3)}, functions={"Phi": pos("t")}),
        dict(base, family="M6", thresholds={"C": _num(rng, 1.5, 3)},
             functions={"rho": f"s+{_num(rng, 0.5, 2)}", "phi": pos("t")}),
        dict(base, family="M7", thresholds={"C": _num(rng, 1.5, 3)}, functions={"Psi": pos("t")}),
        dict(base, family="M8", thresholds={"C": _num(rng, 1.5, 3)},
             functions={"sigma": f"t+{_num(rng, 0.5, 2)}", "phi": pos("s")}),
    ]


def _diagram_op(ev, cfg_path, cfg, out_dir) -> Op:
    ns = nt = cfg["resolution"]

    def run():
        rc, text = _cli(ev, ["cea", "diagram", cfg_path, "--out", out_dir])
        if rc != 0:
            return rc, text, b"", b""
        return rc, text, _read(os.path.join(out_dir, "diagram.csv")), \
            _read(os.path.join(out_dir, "diagram.svg"))

    def check(res):
        rc, text, csv, svg = res
        if rc != 0:
            return f"cea diagram {cfg['family']} exited {rc}: {text.strip()}"
        lines = csv.decode("ascii").splitlines()
        if lines[0] != "s,t,class_tag" or len(lines) != ns * nt + 1:
            return f"cea diagram {cfg['family']}: malformed CSV"
        if svg.count(b"<rect") != ns * nt:
            return f"cea diagram {cfg['family']}: SVG has {svg.count(b'<rect')} cells"
        spec = ev.cea.load_config(cfg_path)["spec"]
        for ln in lines[1:]:
            s_txt, t_txt, got = ln.split(",")
            s, t = float(s_txt), float(t_txt)
            if s > t:
                want = "out_of_domain"
            else:
                try:
                    want = ev.cea.expected_dynamics_class(spec, s, t)
                except ev.exprlang.DomainEvalError:
                    want = "error"
            if want is not None and got != want:
                return f"cea diagram {cfg['family']} at s={s}, t={t}: want {want}, got {got}"
        return None

    def digest(res):
        return _sha(str(res[0]).encode(), res[2], res[3])

    return Op("primary", ns * nt, True, run, check, digest)


def _verify_op(ev, cfg_path, cfg) -> Op:
    want_rc = 0 if cfg["family"] in ("M0", "M1", "M2", "M3", "M4") else 3

    def run():
        return _cli(ev, ["cea", "verify", cfg_path])

    def check(res):
        rc, text = res
        if rc != want_rc:
            return f"cea verify {cfg['family']} exited {rc}, want {want_rc}: {text.strip()}"
        return None

    return Op("secondary", cfg["samples"], False, run, check,
              lambda res: _sha(f"{res[0]}|{res[1]}".encode()))


def _search_op(ev, out_path, algebra, params, weight, starts, seed) -> Op:
    argv = ["--seed", str(seed), "rbo", "search", "--algebra", algebra,
            "--weight", str(weight), "--starts", str(starts), "--out", out_path]
    if params:
        argv[6:6] = ["--params", params]

    def run():
        rc, text = _cli(ev, argv)
        return rc, text, _read(out_path) if rc == 0 else b""

    def check(res):
        rc, text, csv = res
        if rc != 0:
            return f"rbo search {algebra} exited {rc}: {text.strip()}"
        mats = [m for m, _, _ in oracles.parse_search_csv(csv.decode("ascii"))]
        if algebra == "E6":
            err = oracles.e6_search_error(mats)
            return None if err is None else f"rbo search E6(0) seed {seed}: {err}"
        off = [m for m in mats if not oracles.on_e2_weight0_line(m)]
        if not mats or off:
            return f"rbo search E2 seed {seed}: {len(off)} of {len(mats)} points off the lines"
        return None

    return Op("primary", starts, True, run, check,
              lambda res: _sha(str(res[0]).encode(), res[2]))


def _rbo_verify_op(ev, out_path, samples, seed) -> Op:
    argv = ["--seed", str(seed), "rbo", "verify", "--algebra", "all", "--weight", "all",
            "--samples", str(samples), "--out", out_path]

    def run():
        rc, text = _cli(ev, argv)
        return rc, text, _read(out_path) if rc == 0 else b""

    def rows(res):
        # family ids such as w0:E5(1/4,0) hold commas, so split from the right
        return [ln.rsplit(",", 3) for ln in res[2].decode("ascii").splitlines()[1:]]

    def check(res):
        rc, text, csv = res
        if rc != 0:
            return f"rbo verify exited {rc}: {text.strip()[-300:]}"
        bad = [r[0] for r in rows(res) if r[3] != "pass"]
        if not rows(res) or bad:
            return f"rbo verify seed {seed}: failing families {bad}"
        return None

    return Op("secondary", 0, False, run, check,
              lambda res: _sha(str(res[0]).encode(), res[2]),
              count=lambda res: sum(int(r[1]) for r in rows(res)))


# --- the workloads ------------------------------------------------------------------

DIAGRAM_RESOLUTION = 64
CK_SAMPLES = 1000
SEARCH_STARTS = {"E6": 500, "E2": 200}
RBO_VERIFY_SAMPLES = 100


def setup_inputs(name: str, seed: int, workdir: str) -> list[str]:
    """Config files the program-side set-up of `name` loads (chain only)."""
    if name != "chain":
        return []
    rng = cycle_rng(name, seed, 0)
    paths = []
    for i, cfg in enumerate(diagram_configs(rng, DIAGRAM_RESOLUTION)
                            + verify_configs(rng, CK_SAMPLES)):
        paths.append(os.path.join(workdir, f"setup-{i}.json"))
        _write_json(paths[-1], cfg)
    return paths


def ops(name: str, ev, seed: int, k: int, workdir: str) -> list[Op]:
    """Operations of cycle k, inputs drawn from the seed."""
    rng = cycle_rng(name, seed, k)
    if name == "classify-bulk":
        return [_classify_op(ev, f, tag, p, rows, edge=False)
                for f, tag, p, rows in bulk_inputs(rng)]
    if name == "classify-edge":
        return [_classify_op(ev, f, tag, p, rows, edge=True)
                for f, _, tag, p, rows in edge_inputs(rng)]
    if name == "chain":
        out = []
        for cfg in diagram_configs(rng, DIAGRAM_RESOLUTION):
            path = os.path.join(workdir, f"diagram-{cfg['family']}.json")
            _write_json(path, cfg)
            out.append(_diagram_op(ev, path, cfg, os.path.join(workdir, f"out-{cfg['family']}")))
        for cfg in verify_configs(rng, CK_SAMPLES):
            path = os.path.join(workdir, f"verify-{cfg['family']}.json")
            _write_json(path, cfg)
            out.append(_verify_op(ev, path, cfg))
        return out
    if name == "rbo":
        seeds = [rng.randrange(1 << 20) for _ in range(3)]
        return [
            _search_op(ev, os.path.join(workdir, "search-E6.csv"), "E6", "0", 1,
                       SEARCH_STARTS["E6"], seeds[0]),
            _search_op(ev, os.path.join(workdir, "search-E2.csv"), "E2", "", 0,
                       SEARCH_STARTS["E2"], seeds[1]),
            _rbo_verify_op(ev, os.path.join(workdir, "verify.csv"), RBO_VERIFY_SAMPLES, seeds[2]),
        ]
    raise ValueError(f"unknown workload {name!r}")
