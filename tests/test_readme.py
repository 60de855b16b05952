"""The README names only what the package has.

Every csibio import in its ``python`` blocks, every attribute those
blocks read from an imported csibio module, and every backticked
``<module>.<name>`` in its prose must resolve. The blocks are parsed,
not run: running them fits models on the bundled dataset.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()
MODULES = sorted(p.stem for p in (ROOT / "src" / "csibio").glob("*.py") if p.stem != "__init__")


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a csibio module or an attribute path from one."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for part in parts[i:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def _block_names(block: str) -> list[str]:
    names, modules = [], {}
    tree = ast.parse(block)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "csibio":
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                if node.module == "csibio":
                    modules[alias.asname or alias.name] = names[-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.append(f"{modules[node.value.id]}.{node.attr}")
    return names


def test_readme_names_resolve():
    names = []
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        names += _block_names(block)
    span = re.compile(rf"(?:csibio\.)?((?:{'|'.join(MODULES)})(?:\.[A-Za-z_]\w*)+)")
    for code in re.findall(r"`([^`\n]+)`", README):
        if match := span.match(code):
            names.append(f"csibio.{match.group(1)}")
    assert len(names) >= 10
    assert [n for n in names if not _resolves(n)] == []
