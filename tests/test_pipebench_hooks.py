"""The benchmark's hooks into tagrec, checked without running the benchmark.

``pipebench/spans.py``'s tracer patches functions of tagrec's modules by
name, and ``pipebench/*.py`` import names from tagrec.  A hooked name that
is removed or renamed breaks the benchmark; these tests make that a pytest
failure, not only a failure of the traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    return importlib.import_module("spans")


def tagrec_imports() -> set[tuple[str, str | None]]:
    """Every ``(module, name)`` that ``pipebench/*.py`` imports from tagrec;
    the name is None for a plain ``import tagrec...``."""
    found = set()
    for path in sorted(PIPEBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tagrec":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "tagrec")
    return found


def test_every_imported_tagrec_name_resolves():
    names = tagrec_imports()
    assert ("tagrec.segmenter", "enumerate_segmentations") in names  # run.py's imports inside functions count
    for module_name, name in sorted(names, key=str):
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")  # a submodule, as ``from`` would find it


def test_tracer_installs_and_uninstalls(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()
        originals = dict(tracer._originals)
        assert set(spans.SPANNED) <= set(originals)
        assert (spans.profiles, "segment") in originals
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original, (module.__name__, attr)
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, (module.__name__, attr)
