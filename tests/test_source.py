import ast
import collections
import pathlib

import evoalg

ROOT = pathlib.Path(__file__).resolve().parent.parent

# definitions that nothing in src/ or perfbench/ calls, each kept on purpose
_KEPT = {
    "cea.CantorDelta.cutoff": "the constructor of the paper's cutoff solution",
    "classify2d.homomorphism_residual": "the public measure of a classification witness",
}


def _names(tree):
    """Every name, attribute, imported name and string constant under
    `tree`: the ways the program and the benchmark (which patches by
    attribute name) refer to a definition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _unreferenced(root):
    """Module-level functions and classes of src/evoalg, and methods of its
    classes outside evoalg.__all__, that nothing in src/ or perfbench/
    refers to outside their own definition."""
    src = sorted((root / "src" / "evoalg").glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in src + sorted((root / "perfbench").glob("*.py"))]
    refs = collections.Counter(name for tree in trees for name in _names(tree))
    public = set(evoalg.__all__)
    kinds = (ast.FunctionDef, ast.ClassDef)
    out = []
    for path, tree in zip(src, trees):
        for node in (n for n in tree.body if isinstance(n, kinds)):
            defs = [(f"{path.stem}.{node.name}", node)]
            if isinstance(node, ast.ClassDef) and node.name not in public:
                defs += [(f"{path.stem}.{node.name}.{m.name}", m)
                         for m in node.body if isinstance(m, ast.FunctionDef)]
            for qual, d in defs:
                if d.name.startswith("__") or d.name in public or qual in _KEPT:
                    continue
                if refs[d.name] <= collections.Counter(_names(d))[d.name]:
                    out.append(qual)
    return out


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    # what only the tests reach belongs in the tests
    assert _unreferenced(ROOT) == []
