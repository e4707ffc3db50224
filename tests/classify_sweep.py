"""Print the sha256 of a seeded classification sweep, to compare two trees.

    PYTHONPATH=src python tests/classify_sweep.py [PER_CELL]

For each field (complex, real), each input kind and each entry scale 2^k,
k = -40..40, PER_CELL (default 70) matrices are drawn from a generator
seeded by field, kind and k, and classified with `classify_with_witness`.
The kinds are random entries, rank-1 products lam_i * w_k, random entries
with a random zero pattern, and rescaled-permuted canonical forms.  Each
line `field rows -> result` enters the digest, the result being the label,
the parameters by repr and the witness by repr, or the type and message of
the exception raised.  Two trees that print the same digest classify every
input alike.  The third number printed counts the inputs that raised
UnclassifiableError.  At the default, 45,360 inputs; about 3 s.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import sys

from evoalg.classify2d import canonical_rows, classify_with_witness, rescale_permute
from evoalg.core import StructureMatrix

FIELDS = ("complex", "real")
KINDS = ("random", "rank1", "zeros", "canonical")


def _entry(rng, field):
    unit = (complex(rng.choice((-1.0, 1.0))) if field == "real"
            else cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return unit * rng.uniform(0.1, 3.0)


def _canonical(rng, field):
    tag = rng.choice(["E0", "E1", "E2", "E3", "E4", "E5", "E6"]
                     + (["E7"] if field == "real" else []))
    if (field, tag) in (("complex", "E5"), ("real", "E6")):
        params = (_entry(rng, field), _entry(rng, field))
    elif (field, tag) in (("complex", "E6"), ("real", "E7")):
        params = (_entry(rng, field) if rng.random() < 0.8 else 0j,)
    else:
        params = ()
    scales = [_entry(rng, field) for _ in range(2)]
    perm = rng.choice(((0, 1), (1, 0)))
    A = StructureMatrix.from_rows(canonical_rows(field, tag, params))
    return [list(r) for r in rescale_permute(A, scales, perm).entries]


def draw(rng, field, kind):
    """One 2x2 matrix of the given kind, entries of modulus about 1."""
    if kind == "random":
        return [[_entry(rng, field) for _ in range(2)] for _ in range(2)]
    if kind == "rank1":
        w = [_entry(rng, field) if rng.random() < 0.9 else 0j for _ in range(2)]
        lam = [_entry(rng, field) if rng.random() < 0.9 else 0j for _ in range(2)]
        return [[lam[i] * w[k] for k in range(2)] for i in range(2)]
    if kind == "zeros":
        rows = [[_entry(rng, field) for _ in range(2)] for _ in range(2)]
        mask = rng.randrange(16)
        return [[0j if mask >> (2 * i + k) & 1 else rows[i][k] for k in range(2)]
                for i in range(2)]
    return _canonical(rng, field)


def result(field, rows) -> str:
    try:
        cls, witness = classify_with_witness(StructureMatrix.from_rows(rows, field), field)
    except Exception as e:  # every error is part of the output compared
        return f"{type(e).__name__}: {e}"
    return f"{cls.label()} {cls.params!r} {witness!r}"


def sweep(per_cell: int) -> tuple[int, str, int]:
    """The number of inputs classified, the sha256 of their lines, and the
    number of them that are unclassifiable."""
    digest, count, unclassifiable = hashlib.sha256(), 0, 0
    for field in FIELDS:
        for kind in KINDS:
            for k in range(-40, 41):
                rng = random.Random(f"sweep:{field}:{kind}:{k}")
                for _ in range(per_cell):
                    rows = [[2.0 ** k * z for z in r] for r in draw(rng, field, kind)]
                    if field == "real":
                        rows = [[complex(z.real) for z in r] for r in rows]
                    line = result(field, rows)
                    digest.update(f"{field} {rows!r} -> {line}\n".encode())
                    count += 1
                    unclassifiable += line.startswith("UnclassifiableError: ")
    return count, digest.hexdigest(), unclassifiable


def main(per_cell: int) -> None:
    print(*sweep(per_cell))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 70)
