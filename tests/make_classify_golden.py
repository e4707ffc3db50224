"""Write tests/data/classify_golden.jsonl, the pinned classification corpus.

    PYTHONPATH=src python tests/make_classify_golden.py

Each line holds one input (field and structure matrix, every entry as a
[re, im] pair of floats) and the result `classify_with_witness` gave for it
when the file was written (`test_classify2d.golden_result`): the tag, the
parameters and the witness entries by repr, or the error it raised.
`test_classification_matches_golden` reads the file and classifies every
input again.

The corpus covers every kind of input whose closed-form witness can fail
the check:

- the two classify-edge matrices of perfbench;
- offsets of 1e-14..1e-6 from a boundary: kappa, 1 - xy, a11, the rank,
  lam1*lam2, and a stray lower or diagonal entry;
- every canonical form scaled to 1e-10..1e-3 and 1e3..1e10;
- the first 100 matrices of perfbench's classify-bulk corpus (seed 0,
  cycle 0).

The inputs are drawn once and stored, so the file does not depend on
perfbench staying as it is.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from test_classify2d import golden_result  # noqa: E402

GOLDEN = os.path.join(HERE, "data", "classify_golden.jsonl")
FIELDS = ("complex", "real")
OFFSETS = [10.0 ** k for k in range(-14, -5)]


def _unit(rng, field):
    """A random sign (real) or phase (complex)."""
    if field == "real":
        return complex(rng.choice((-1.0, 1.0)))
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _entry(rng, field):
    return _unit(rng, field) * rng.uniform(0.5, 3.0)


def near_boundary(rng):
    """Matrices an offset d away from a boundary of the decision procedure."""
    out = []
    for field in FIELDS:
        for d0 in OFFSETS:
            d = d0 * _unit(rng, field)
            b, c, x = _entry(rng, field), _entry(rng, field), _entry(rng, field)
            out += [(field, rows) for rows in (
                # rank 1, kappa = d: E2 against E3
                [[1, 1], [-1 + d, -1 + d]],
                # 1 - xy = d: E5/E6 against rank 1
                [[1, x], [(1 - d) / x, 1]],
                # a11 = d: diagonal against cube-root parameters
                [[d, b], [c, 1]],
                # det = -2d: rank 2 against rank 1
                [[1, 2], [0.5 + d, 1]],
                # rank 1, lam1*lam2 = d: E1 against E2 (and the real E5)
                [[1, b], [d, d * b]],
                # a stray lower entry on E4 (E6(0)/E7(0)) and a stray
                # diagonal entry on it (E1)
                [[0, b], [d, 0]],
                [[d, b], [0, 0]],
                [[0, 0], [c, d]],
            )]
    return out


def scaled_canonical(rng):
    """Every canonical form of both fields, scaled far outside 1."""
    out = []
    for field, tags in (("complex", oracles.COMPLEX_TAGS), ("real", oracles.REAL_TAGS)):
        for tag in tags:
            params = workloads._draw_params(rng, field, tag)
            base = oracles.canonical_rows(field, tag, params)
            for k in (-10, -8, -6, -5, -4, -3, 3, 4, 5, 6, 8, 10):
                s = 10.0 ** k * _unit(rng, field)
                out.append((field, [[s * z for z in r] for r in base]))
    return out


def corpus():
    rng = random.Random("classify-golden")
    edge = [(f, rows) for f, _, _, _, rows in workloads.edge_inputs(random.Random(0))]
    bulk = workloads.bulk_inputs(workloads.cycle_rng("classify-bulk", 0, 0))[:100]
    out = edge + near_boundary(rng) + scaled_canonical(rng)
    out += [(f, rows) for f, _, _, rows in bulk]
    return [(f, [[complex(z) if f == "complex" else complex(complex(z).real) for z in r]
                 for r in rows]) for f, rows in out]


def main():
    with open(GOLDEN, "w") as fh:
        for field, rows in corpus():
            pairs = [[[z.real, z.imag] for z in r] for r in rows]
            fh.write(json.dumps({"field": field, "rows": pairs,
                                 "result": golden_result(field, rows)}) + "\n")


if __name__ == "__main__":
    main()
