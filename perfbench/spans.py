"""Outside-in layer tracing for the traced benchmark run.

The program has no tracing of its own, so the traced run wraps each layer's
public functions where their callers look them up: a module attribute in the
calling module (`classify2d.find_isomorphism`, `rotabaxter.levenberg_marquardt`,
`cli.open`, ...), a function on a module that the CLI reaches through
`cea_mod.` / `rbo_mod.`, and `StructureMatrix.__post_init__` for
construction.  No file of the program changes; `uninstall()` restores every
attribute.

Spans are aggregated as they close instead of being kept: the kernel
callbacks of one `rbo search` alone open tens of thousands of spans.  A
span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children never overlap and the
self times of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import builtins
import time
from collections import defaultdict

ISO = "classify2d.find_isomorphism"
LM = "numerics.lm"
ROOT = "bench.op"

# (name, unit, better) for every per-layer metric of the traced run; values
# are per workload cycle except ratios, trace.cycles and setup.import_s.
PER_LAYER = [
    ("classify2d.classify.calls", "count", "higher"),
    ("classify2d.classify.self_s", "s", "lower"),
    ("classify2d.find_isomorphism.calls", "count", "lower"),
    ("classify2d.find_isomorphism.self_s", "s", "lower"),
    ("classify2d.find_isomorphism.hit_ratio", "1", "higher"),
    ("classify2d.path.exact.calls", "count", "higher"),
    ("classify2d.path.exact.busy_s", "s", "lower"),
    ("classify2d.path.closed_form.calls", "count", "higher"),
    ("classify2d.path.closed_form.busy_s", "s", "lower"),
    ("classify2d.path.lm_search.calls", "count", "lower"),
    ("classify2d.path.lm_search.busy_s", "s", "lower"),
    ("classify2d.path.unclassifiable.calls", "count", "lower"),
    ("classify2d.path.unclassifiable.busy_s", "s", "lower"),
    ("classify2d.hom_kernel.calls", "count", "lower"),
    ("classify2d.hom_kernel.self_s", "s", "lower"),
    ("numerics.lm.calls", "count", "lower"),
    ("numerics.lm.self_s", "s", "lower"),
    ("numerics.lm.jacobian_evals", "count", "lower"),
    ("numerics.lm.residual_evals", "count", "lower"),
    ("numerics.lm.converged_ratio", "1", "higher"),
    ("rotabaxter.rb_kernel.calls", "count", "lower"),
    ("rotabaxter.rb_kernel.self_s", "s", "lower"),
    ("rotabaxter.search.self_s", "s", "lower"),
    ("rotabaxter.search.solutions", "count", "higher"),
    ("rotabaxter.verify_family.calls", "count", "higher"),
    ("rotabaxter.verify_family.self_s", "s", "lower"),
    ("core.rb_residual.calls", "count", "lower"),
    ("core.rb_residual.self_s", "s", "lower"),
    ("core.structure_matrix.calls", "count", "lower"),
    ("core.structure_matrix.self_s", "s", "lower"),
    ("exprlang.eval.calls", "count", "lower"),
    ("exprlang.eval.self_s", "s", "lower"),
    ("exprlang.eval.domain_errors", "count", "lower"),
    ("cea.family_matrix.calls", "count", "lower"),
    ("cea.family_matrix.self_s", "s", "lower"),
    ("cea.classify_dynamics.calls", "count", "higher"),
    ("cea.classify_dynamics.self_s", "s", "lower"),
    ("cea.property_diagram.self_s", "s", "lower"),
    ("cea.verify_ck.self_s", "s", "lower"),
    ("cea.diagram.cells_classified", "count", "higher"),
    ("cea.diagram.cells_out_of_domain", "count", "lower"),
    ("cea.diagram.cells_error", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.write.self_s", "s", "lower"),
    ("cli.bytes_written", "count", "lower"),
    ("bench.op.self_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("trace.cycles", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.spans_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
]


class Recorder:
    """Stack of open spans plus per-name totals.

    Each open frame is [name, start, child_time, saw_iso, saw_lm]; the two
    flags record whether a find_isomorphism or LM span closed anywhere
    below it, which decides the classification path.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = True
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0, False, False])

    def close(self):
        end = self.clock()
        frame = self.stack.pop()
        name = frame[0]
        dur = end - frame[1]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent[3] = parent[3] or frame[3] or name == ISO
            parent[4] = parent[4] or frame[4] or name == LM
        return frame, dur

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def wrap(rec: Recorder, name: str, fn, after=None):
    """fn with a span around each call while `rec` is active; `after(frame,
    duration, result, exception)` runs once the span has closed."""

    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            frame, dur = rec.close()
            if after is not None:
                after(frame, dur, None, exc)
            raise
        frame, dur = rec.close()
        if after is not None:
            after(frame, dur, out, None)
        return out

    traced.__wrapped__ = fn
    return traced


class _CountingFile:
    """Text file opened by the CLI for writing; write and close are spans."""

    def __init__(self, rec: Recorder, fh):
        self._rec, self._fh = rec, fh

    def write(self, text):
        self._rec.counts["cli.bytes_written"] += len(text.encode("utf-8"))
        self._rec.open("cli.write")
        try:
            return self._fh.write(text)
        finally:
            self._rec.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._rec.open("cli.write")
        try:
            self._fh.close()
        finally:
            self._rec.close()
        return False


def install(rec: Recorder, ev) -> callable:
    """Wrap the layer boundaries of the evoalg modules in namespace `ev`
    (attributes core, classify2d, cea, rotabaxter, cli).  Returns the
    function that undoes it."""
    from evoalg.classify2d import UnclassifiableError
    from evoalg.exprlang import DomainEvalError

    saved = []

    def patch(obj, attr, value):
        saved.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def count(key, amount=1):
        rec.counts[key] += amount

    def after_classify(frame, dur, out, exc):
        if isinstance(exc, UnclassifiableError):
            path = "unclassifiable"
        elif exc is not None:
            return
        else:
            path = "lm_search" if frame[4] else "closed_form" if frame[3] else "exact"
        count(f"classify2d.path.{path}.calls")
        count(f"classify2d.path.{path}.busy_s", dur)

    def after_iso(frame, dur, out, exc):
        if out is not None:
            count("classify2d.find_isomorphism.hits")

    def lm_for(kernel: str, fn):
        def lm(residual, jacobian, x0, **kwargs):
            if not rec.active:
                return fn(residual, jacobian, x0, **kwargs)
            res = wrap(rec, kernel, residual,
                       lambda *a: count("numerics.lm.residual_evals"))
            jac = wrap(rec, kernel, jacobian,
                       lambda *a: count("numerics.lm.jacobian_evals"))

            def after(frame, dur, out, exc):
                if out is not None and out[2]:
                    count("numerics.lm.converged")

            return wrap(rec, LM, fn, after)(res, jac, x0, **kwargs)

        return lm

    def after_eval(frame, dur, out, exc):
        if isinstance(exc, DomainEvalError):
            count("exprlang.eval.domain_errors")

    def after_diagram(frame, dur, out, exc):
        if out is None:
            return
        for row in out.cells:
            for tag in row:
                kind = ("out_of_domain" if tag == "out_of_domain"
                        else "error" if tag == "error" else "classified")
                count(f"cea.diagram.cells_{kind}")

    def after_search(frame, dur, out, exc):
        if out is not None:
            count("rotabaxter.search.solutions", len(out))

    def counting_open(file, mode="r", *args, **kwargs):
        if not rec.active or not any(m in mode for m in "wax"):
            return builtins.open(file, mode, *args, **kwargs)
        return _CountingFile(rec, wrap(rec, "cli.write", builtins.open)(
            file, mode, *args, **kwargs))

    c2d, cea, rbo, cli, core = ev.classify2d, ev.cea, ev.rotabaxter, ev.cli, ev.core
    cww = wrap(rec, "classify2d.classify", c2d.classify_with_witness, after_classify)
    patch(c2d, "classify_with_witness", cww)
    patch(c2d, "find_isomorphism", wrap(rec, ISO, c2d.find_isomorphism, after_iso))
    patch(c2d, "levenberg_marquardt",
          lm_for("classify2d.hom_kernel", c2d.levenberg_marquardt))
    patch(rbo, "levenberg_marquardt",
          lm_for("rotabaxter.rb_kernel", rbo.levenberg_marquardt))
    patch(rbo, "rb_residual_norm_general",
          wrap(rec, "core.rb_residual", rbo.rb_residual_norm_general))
    patch(rbo, "search", wrap(rec, "rotabaxter.search", rbo.search, after_search))
    patch(rbo, "verify_family", wrap(rec, "rotabaxter.verify_family", rbo.verify_family))
    patch(core.StructureMatrix, "__post_init__",
          wrap(rec, "core.structure_matrix", core.StructureMatrix.__post_init__))
    patch(cea, "eval_expr", wrap(rec, "exprlang.eval", cea.eval_expr, after_eval))
    patch(cea, "family_matrix", wrap(rec, "cea.family_matrix", cea.family_matrix))
    patch(cea, "classify_dynamics",
          wrap(rec, "cea.classify_dynamics", cea.classify_dynamics))
    patch(cea, "property_diagram",
          wrap(rec, "cea.property_diagram", cea.property_diagram, after_diagram))
    patch(cea, "verify_ck", wrap(rec, "cea.verify_ck", cea.verify_ck))
    if cli is not None:  # the classify workloads never load the CLI
        patch(cli, "classify_with_witness", cww)
        patch(cli, "main", wrap(rec, "cli.main", cli.main))
        patch(cli, "open", counting_open)

    def uninstall():
        for obj, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)

    return uninstall


_MISSING = object()


def layer_metrics(rec: Recorder, cycles: int) -> dict[str, float]:
    """Per-layer metric values from a finished traced pass, per cycle.  The
    trace.* and setup.* entries are filled in by the caller."""
    per = 1.0 / max(1, cycles)
    c = rec.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith(("trace.", "setup.")):
            continue
        head, _, tail = name.rpartition(".")
        if name == "classify2d.find_isomorphism.hit_ratio":
            out[name] = ratio(c["classify2d.find_isomorphism.hits"], rec.calls[ISO])
        elif name == "numerics.lm.converged_ratio":
            out[name] = ratio(c["numerics.lm.converged"], rec.calls[LM])
        elif tail == "calls" and name not in c:
            out[name] = rec.calls[head] * per
        elif tail == "self_s":
            out[name] = rec.self_s[head] * per
        else:
            out[name] = c[name] * per
    return out
