"""Child process of the benchmark: one set-up probe or one workload run.

    python3 perfbench/child.py setup ROOT WORKDIR WORKLOAD SEED SECONDS TRACE OUT
    python3 perfbench/child.py run   ROOT WORKDIR WORKLOAD SEED SECONDS TRACE OUT

Both modes first import evoalg from ROOT/src and do the workload's
program-side set-up, then note the CLOCK_MONOTONIC time at which the first
timed operation could start.  `setup` stops there; `run` goes on to run the
workload and writes its figures as JSON to OUT.  The benchmark's own
modules are imported only after that instant, so set-up time holds the
program's costs alone.
"""

import glob
from array import array
import json
import os
import resource
import statistics
import sys
import time


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup(workload: str, workdir: str):
    """Import the program and do the set-up a user of the workload pays."""
    import types

    from evoalg import cea, classify2d, core, exprlang, rotabaxter

    ev = types.SimpleNamespace(core=core, classify2d=classify2d, cea=cea,
                               exprlang=exprlang, rotabaxter=rotabaxter, cli=None)
    if workload in ("chain", "rbo"):
        from evoalg import cli

        ev.cli = cli
    if workload == "chain":
        for path in sorted(glob.glob(os.path.join(workdir, "setup-*.json"))):
            cea.load_config(path)
    if workload == "rbo":
        for weight in (0, 1):
            for tag in ("E1", "E2", "E3", "E4", "E5", "E6"):
                rotabaxter.catalog(tag, weight)
        rotabaxter.algebra_matrix("E6", (0,))
        rotabaxter.algebra_matrix("E2")
    return ev


LATENCY_CAP = 5000  # latencies kept for p99; the first ones of the run


class Tally:
    """Timings and oracle verdicts of one pass, kept compact so that memory
    does not grow with the number of operations a fast program completes:
    a few numbers per cycle, and at most LATENCY_CAP latencies."""

    def __init__(self):
        self.cycles = 0
        self.rates = {"primary": array("d"), "secondary": array("d")}  # per cycle
        self.cycle_p50s = array("d")  # per cycle: median latency of its operations
        self.latencies = array("d")
        self.errors = []
        self.digests = []         # per operation, in order (traced runs only)
        self.attempted = 0
        self.wall = 0.0


def run_pass(workload, ev, seed, workdir, budget, rec=None, cycles=None,
             keep_digests=False) -> Tally:
    """Run whole cycles: `cycles` of them, or while the next one is expected
    to end within `budget` seconds (at least one).  With a recorder, each
    operation is a root span and oracle checks are left out of the trace.
    `keep_digests` records each operation's output fingerprint."""
    import spans
    import workloads

    tally = Tally()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = tally.cycles
        if cycles is not None and done >= cycles:
            break
        if cycles is None and done and elapsed + elapsed / done > budget:
            break
        work, lat = {}, []
        for op in workloads.ops(workload, ev, seed, done, workdir):
            if rec is not None:
                rec.active = True
                rec.open(spans.ROOT)
            t0 = time.perf_counter()
            try:
                res, err = op.run(), None
            except Exception as exc:  # an unexpected raise is a failed operation
                res, err = None, f"raised {exc!r}"
            dt = time.perf_counter() - t0
            if rec is not None:
                rec.close()
                rec.active = False
            digest, units = None, op.units
            if err is None:
                try:
                    err = op.check(res)
                    if keep_digests:
                        digest = op.digest(res)
                    if op.count is not None:
                        units = op.count(res)
                except Exception as exc:
                    err = f"oracle raised on the result: {exc!r}"
            tally.attempted += 1
            if keep_digests:
                tally.digests.append(digest)
            if err is not None:
                tally.errors.append(err)
                continue
            acc = work.setdefault(op.stream, [0.0, 0.0])
            acc[0] += units
            acc[1] += dt
            if op.latency:
                lat.append(dt)
        tally.cycles += 1
        for stream, (units, seconds) in work.items():
            if seconds:
                tally.rates[stream].append(units / seconds)
        tally.latencies.extend(lat[:LATENCY_CAP - len(tally.latencies)])
        if lat:
            tally.cycle_p50s.append(statistics.median(lat))
    tally.wall = time.perf_counter() - start
    return tally


def _slow_side(values, n: int, upper: bool) -> float:
    """The first cut point of the n-quantiles of `values`, or the last."""
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=n, method="inclusive")
    return cuts[-1] if upper else cuts[0]


def end_to_end(tally: Tally, peak_rss_mb: float) -> dict:
    """Each figure is taken per cycle, and the run reports the cycle the
    program shows while the machine is busy with other tenants: the lower
    decile of the cycle rates and the upper quartile of the cycle median
    latencies.  A shared VM switches between a slow state that fills most
    of every run and fast stretches of some seconds that come and go; a
    quantile on the slow side moves far less from run to run than the
    median or one on the fast side.  A cycle's median latency rests on
    few operations (one diagram of five on chain), so a spell of some
    seconds that is slower still moves its upper decile; the quartile
    stays clear of such spells."""
    lat = sorted(tally.latencies)
    return {
        "primary_per_s": _slow_side(tally.rates["primary"], 10, upper=False),
        "secondary_per_s": _slow_side(tally.rates["secondary"], 10, upper=False),
        "p50_ms": _slow_side(tally.cycle_p50s, 4, upper=True) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        # p99 over the kept operations, only where at least ten samples lie beyond it
        "p99_ms": statistics.quantiles(lat, n=100)[98] * 1e3 if len(lat) >= 1000 else None,
    }


def main(argv):
    mode, root, workdir, workload, seed, seconds, trace, out_path = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import evoalg  # noqa: F401  (timed on its own as setup.import_s)

    import_s = time.perf_counter() - t0
    ev = _setup(workload, workdir)
    ready = _mono()
    result = {"ready": ready, "import_s": import_s}
    if mode == "run":
        import spans

        untraced = run_pass(workload, ev, seed, workdir, seconds / 2 if trace else seconds,
                            keep_digests=bool(trace))
        # read before any aggregation, so the figure holds no harness arrays
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = end_to_end(untraced, peak_rss_mb)
        tallies = [untraced]
        if trace:
            rec = spans.Recorder()
            uninstall = spans.install(rec, ev)
            try:
                traced = run_pass(workload, ev, seed, workdir, None, rec, untraced.cycles,
                                  keep_digests=True)
            finally:
                uninstall()
            tallies.append(traced)
            mismatched = [
                f"operation {i} wrote different output in the traced pass"
                for i, (a, b) in enumerate(zip(untraced.digests, traced.digests))
                if a is not None and b is not None and a != b
            ]
            n_cycles = traced.cycles
            layer = spans.layer_metrics(rec, n_cycles)
            per = 1.0 / n_cycles
            spans_s = rec.total_self_s()
            layer.update({
                "trace.cycles": n_cycles,
                "trace.wall_s": traced.wall * per,
                "trace.untraced_wall_s": untraced.wall * per,
                "trace.overhead_s": (traced.wall - untraced.wall) * per,
                "trace.overhead_ratio": (traced.wall - untraced.wall) / untraced.wall,
                "trace.spans_s": spans_s * per,
                "trace.remainder_s": (traced.wall - spans_s) * per,
            })
            result["per_layer"] = layer
            result["mismatches"] = mismatched
        errors = [e for t in tallies for e in t.errors] + result.get("mismatches", [])
        result["attempted"] = sum(t.attempted for t in tallies)
        result["failed"] = len(errors)
        result["errors"] = errors[:10]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
