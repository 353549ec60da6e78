"""Every public function and class of the package has a user.

A module-level function or class whose name has no leading underscore
counts as used when code in `src/rate_alloc` refers to it outside its own
definition, when code under `benchmarks/` refers to it, or when README
names it in code (a code span or block).  A re-export in `__init__.py` is
not a use.  A name that is none of these is dead API: delete it, or move
it into the test that keeps it as a reference.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rate_alloc"


def references(tree, skip=None) -> set:
    """Identifiers a syntax tree uses by name, attribute or import, outside `skip`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return found


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_public_name_has_a_user():
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    del modules["__init__"]
    refs = {stem: references(tree) for stem, tree in modules.items()}
    benchmarks = set().union(*(references(parse(path)) for path in (ROOT / "benchmarks").glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.compile(r"```.*?```", re.S)
    code_spans = " ".join(fenced.findall(readme) + re.findall(r"`[^`\n]+`", fenced.sub("", readme)))

    checked, dead = [], []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            checked.append(f"{stem}.{node.name}")
            used = (
                any(node.name in used_by for other, used_by in refs.items() if other != stem)
                or node.name in references(tree, skip=node)
                or node.name in benchmarks
                or re.search(rf"\b{node.name}\b", code_spans)
            )
            if not used:
                dead.append(f"{stem}.{node.name}")
    assert "analysis.analyze" in checked and len(checked) > 40
    assert dead == [], f"public names without a caller or a README entry: {dead}"


def test_package_root_reexports_nothing():
    body = parse(PACKAGE / "__init__.py").body
    assert len(body) == 1 and isinstance(body[0].value, ast.Constant)
