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

ROOT = Path(__file__).resolve().parent.parent
PIPEBENCH = ROOT / "pipebench"
DATA = ROOT / "data"


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


def test_traced_run_all_reads_what_the_tracer_reads(spans, tmp_path, worked_lexicon, worked_bigrams):
    # The wrappers and observers read attributes of tagrec's results at run
    # time, which the name checks above do not see.
    from tagrec import cli

    assert callable(cli.build_parser)  # run.py calls it from a ``-c`` string
    argv = ["run-all", "--users", str(DATA / "users_demo.tsv"), "--out-dir", str(tmp_path)]
    argv += ["--lexicon", str(DATA / "lexicon.txt"), "--bigrams", str(DATA / "bigrams.tsv")]
    for name in ("synsets", "edges", "counts"):
        argv += [f"--{name}", str(DATA / "taxonomy" / f"{name}.tsv")]
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.begin("run-all")
        code = cli.main(argv + ["--k", "3", "--seed", "42", "--top", "3"])
        spans.profiles.segment("#WorldWide", worked_lexicon, worked_bigrams)  # reads result.hashtag.normalized
        tracer.end()
    finally:
        tracer.uninstall()
    (trace,) = tracer.traces
    assert code == 0
    assert len(trace.stage_elapsed) == 4
    for name in ("vocab", "pairs", "kmedoids_iterations", "targets"):
        assert trace.counts[name] > 0, name
    assert trace.counts["segment_calls"] == 1 and trace.bodies == {"worldwide"}
