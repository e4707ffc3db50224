"""Print the sha256 of a seeded sweep of chain diagrams, to compare two trees.

    PYTHONPATH=src python tests/diagram_sweep.py [DRAWS [RESOLUTION]]

For each family M0..M8, DRAWS (default 6) configs are drawn from a generator
seeded by family and draw.  Function coefficients and thresholds are drawn
as perfbench draws them (uniform, rounded to 3 decimals), some functions
grow or shrink exponentially, and the window's edges are drawn around
every threshold, so each diagram crosses its family's region switch.  Each
config is drawn with tol 1e-9, 0 and 1e-3 and rasterized by
`property_diagram` at RESOLUTION x RESOLUTION (default 64); its config
line and its cells, row by row, enter the digest.  Two trees that print
the same digest draw every diagram alike.

The first number printed counts the cells, the second the cells that
`classify_tags` left to `classify`; then the digest, and one line per
undecided cell with its config and matrix.  At the default, 162 diagrams
of 4,096 cells; about 1 s.
"""

from __future__ import annotations

import hashlib
import random
import sys

from evoalg import cea

TOLS = (1e-9, 0.0, 1e-3)


def _num(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def _positive(rng, v):
    """A free function of v that never vanishes, as in perfbench."""
    if rng.random() < 0.3:
        return f"exp({_num(rng, -2, 2)}*{v})"
    return f"{_num(rng, 1.5, 3)}+{'sin' if rng.random() < 0.5 else 'cos'}({v})"


def _linear(rng, v, lo, hi):
    return f"{v}{rng.choice('+-')}{_num(rng, lo, hi)}"


def draw_config(rng, family: str) -> dict:
    """One `cea diagram` config of the family; its threshold, if any, lies
    inside the window on both axes."""
    functions = {
        "M0": lambda: {},
        "M1": lambda: {"rho": _linear(rng, "s", 1, 3), "phi": _positive(rng, "t")},
        "M2": lambda: {"sigma": f"{_num(rng, 0.5, 2)}*sqrt(s-{_num(rng, 0.5, 1.5)})"},
        "M3": lambda: {"f": _linear(rng, "t", 1, 3), "phi": _positive(rng, "t")},
        "M4": lambda: {"g": _linear(rng, "t", 0.5, 2)},
        "M5": lambda: {"Phi": _positive(rng, "t")},
        "M6": lambda: {"rho": _linear(rng, "s", 0.5, 2), "phi": _positive(rng, "t")},
        "M7": lambda: {"Psi": _positive(rng, "t")},
        "M8": lambda: {"sigma": _linear(rng, "t", 0.5, 2), "phi": _positive(rng, "s")},
    }[family]()
    slot = cea._FAMILY[family][1]
    thresholds = {slot: _num(rng, 1.5, 3)} if slot else {}
    window = [_num(rng, 0, 1), _num(rng, 3.5, 6), _num(rng, 0, 1), _num(rng, 3.5, 6)]
    return {"family": family, "functions": functions, "thresholds": thresholds,
            "window": window}


def sweep(draws: int, resolution: int) -> tuple[int, int, str, list[str]]:
    """The number of cells, the number of them that `classify_tags` left
    undecided, the sha256 of every diagram, and one line per undecided cell."""
    digest, cells, undecided = hashlib.sha256(), 0, []
    batch = cea.classify_tags
    where = ""

    def counted(entries, tol):  # the batch as property_diagram calls it
        tags = batch(entries, tol)
        undecided.extend(f"{where} {rows.tolist()}" for rows, tag in zip(entries, tags)
                         if tag is None)
        return tags

    cea.classify_tags = counted
    try:
        for family in cea.FAMILIES:
            for k in range(draws):
                cfg = draw_config(random.Random(f"diagram:{family}:{k}"), family)
                spec = cea.ChainFamilySpec.make(family, cfg["functions"], cfg["thresholds"])
                for tol in TOLS:
                    where = f"{cfg!r} tol={tol!r}"
                    diagram = cea.property_diagram(spec, "E4", cfg["window"], resolution, tol)
                    digest.update(f"{where}\n".encode())
                    for row in diagram.cells:
                        digest.update((",".join(row) + "\n").encode())
                        cells += len(row)
    finally:
        cea.classify_tags = batch
    return cells, len(undecided), digest.hexdigest(), undecided


def main(draws: int = 6, resolution: int = 64) -> None:
    cells, count, digest, undecided = sweep(draws, resolution)
    print(cells, count, digest)
    print(*undecided, sep="\n")


if __name__ == "__main__":
    main(*(int(v) for v in sys.argv[1:3]))
