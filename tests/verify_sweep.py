"""Print the sha256 of seeded Chapman-Kolmogorov checks, to compare two trees.

    PYTHONPATH=src python tests/verify_sweep.py [DRAWS]

For each family M0..M8, DRAWS (default 2) configs are drawn as
`diagram_sweep.py` draws them.  Each config is checked by `verify_ck` at
every sample count of SAMPLES, which straddle the block of CK_BLOCK = 1024
triples, and every t_max of T_MAXES, once on the block path (the spec) and
once through the per-triple loop (a callable).  Large t_max overflows some
slot functions, and M2's square roots fail near s = 0.1, so both paths
also raise.  Each check's config, path and outcome (the report's repr, or
the error's type and message) enter the digest.  Two trees that print the
same digest check every config alike.

Prints the number of checks and the digest.  At the default, 720 checks;
about 15 s, most of it in the per-triple loop.
"""

from __future__ import annotations

import hashlib
import random
import sys

from diagram_sweep import draw_config
from evoalg import cea
from evoalg.core import EvoalgError

SAMPLES = (1, 1023, 1024, 1025, 3000)
T_MAXES = (0.3, 4.0, 10.0, 1e6)


def _outcome(check) -> str:
    try:
        return repr(check())
    except EvoalgError as e:
        return f"{type(e).__name__}: {e}"


def sweep(draws: int, samples=SAMPLES) -> tuple[int, str]:
    """The number of checks and the sha256 of their outcomes."""
    digest, count = hashlib.sha256(), 0
    for family in cea.FAMILIES:
        for k in range(draws):
            cfg = draw_config(random.Random(f"verify:{family}:{k}"), family)
            spec = cea.ChainFamilySpec.make(family, cfg["functions"], cfg["thresholds"])
            paths = (("block", spec),
                     ("loop", lambda s, t: cea.family_matrix(spec, s, t)))
            for n in samples:
                for t_max in T_MAXES:
                    seed = count
                    for name, checked in paths:
                        line = _outcome(lambda: cea.verify_ck(checked, n, seed, t_max=t_max))
                        digest.update(f"{cfg!r} {n} {t_max!r} {name} -> {line}\n".encode())
                        count += 1
    return count, digest.hexdigest()


def main(draws: int = 2) -> None:
    print(*sweep(draws))


if __name__ == "__main__":
    main(*(int(v) for v in sys.argv[1:2]))
