"""Every public function and class of the package has a user.

A module-level function or class whose name has no leading underscore
counts as used when code in `src/rate_alloc` refers to it outside its own
definition, when code under `benchmarks/` refers to it, or when README
names it in code (a code span or block).  A re-export in `__init__.py` is
not a use.  A name that is none of these is dead API: delete it, or move
it into the test that keeps it as a reference.  The other way round,
every `module.name` README names in code must exist.
"""

import ast
import importlib
import json
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


def readme_code() -> str:
    """README's code blocks and code spans, joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.compile(r"```.*?```", re.S)
    return " ".join(fenced.findall(readme) + re.findall(r"`[^`\n]+`", fenced.sub("", readme)))


def test_every_public_name_has_a_user():
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    del modules["__init__"]
    refs = {stem: references(tree) for stem, tree in modules.items()}
    benchmarks = set().union(*(references(parse(path)) for path in (ROOT / "benchmarks").glob("*.py")))
    code_spans = readme_code()

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


def test_readme_names_resolve():
    # README code that names `module.name` for a package module names something that exists
    stems = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    named = set(re.findall(rf"(?<!\w)({'|'.join(stems)})\.(\w+)", readme_code()))
    assert ("sensing", "build_matrix") in named
    stale = sorted(f"{stem}.{name}" for stem, name in named
                   if not hasattr(importlib.import_module(f"rate_alloc.{stem}"), name))
    assert stale == [], f"README names what its module does not define: {stale}"


def test_package_root_reexports_nothing():
    body = parse(PACKAGE / "__init__.py").body
    assert len(body) == 1 and isinstance(body[0].value, ast.Constant)


def test_readme_library_block_runs():
    # the other direction of the guard above: every entry point README imports exists
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README's Library use section has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_benchmark_layer_timings_name_functions():
    # the tracer times a public function under its own name, so a metric
    # `<layer>.<fn>_s[.<tag>]` whose function is gone or private reads 0
    layers = ("imaging", "analysis", "allocation", "kl_solver", "multistage", "sensing")
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    timed = []
    for metric in per_layer:
        match = re.fullmatch(rf"({'|'.join(layers)})\.(\w+)_s(\.\w+)?", metric["name"])
        if metric["unit"] == "s" and match and match.group(2) != "self":
            timed.append((match.group(1), match.group(2)))
    assert ("analysis", "bounds_profile") in timed and len(timed) > 10
    missing = []
    for layer, fn in timed:
        owner = importlib.import_module(f"rate_alloc.{layer}")
        if (layer, fn) == ("multistage", "predict"):
            owner = owner.BoundsPredictor
        if not callable(getattr(owner, fn, None)):
            missing.append(f"{layer}.{fn}")
    assert missing == [], f"benchmark layer timings name no public function: {missing}"
