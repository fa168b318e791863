"""Names the docs cite exist: a docstring or README reference left behind
by a rename or a deletion fails here."""

import ast
import importlib
import re
from pathlib import Path

import qfp

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qfp").glob("*.py"))
MODULES = {path.stem: importlib.import_module(f"qfp.{path.stem}")
           for path in SOURCES if path.stem != "__init__"}
ROLE = re.compile(r":(?:func|class|data|attr):`([^`]*)`")


def _resolves(name: str, scopes) -> bool:
    """Whether ``name``, dotted or bare, with or without a leading ``qfp.``,
    is an attribute path from one of ``scopes``."""
    for scope in scopes:
        try:
            for part in name.removeprefix("qfp.").split("."):
                scope = getattr(scope, part)
        except AttributeError:
            continue
        return True
    return False


def test_source_references_resolve():
    # a bare name resolves in the classes around it, then in its module;
    # a dotted one from the module or from the package
    cited, missing = 0, []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        module = MODULES.get(path.stem, qfp)
        classes = [node for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.ClassDef)]
        for match in ROLE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            scopes = [getattr(module, node.name) for node in classes
                      if node.lineno <= line <= node.end_lineno]
            cited += 1
            if not (re.fullmatch(r"[\w.]+", match[1])
                    and _resolves(match[1], [*scopes, module, qfp])):
                missing.append(f"{path.name}:{line}: {match[0]}")
    assert cited
    assert missing == []


def test_readme_names_resolve():
    # every backticked dotted name that starts at qfp or one of its modules
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = [name for name in re.findall(r"`(\w+(?:\.\w+)+)`", readme)
             if name.split(".")[0] in {"qfp", *MODULES}]
    assert names
    assert [name for name in names if not _resolves(name, [qfp])] == []
