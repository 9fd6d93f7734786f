"""README's "Library use" block shows the values its code gives."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_use() -> str:
    """The first python block of README's "Library use" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n") :]
    return re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)


def test_library_use_results_are_the_shown_values(monkeypatch):
    """Each top-level expression of the block is followed by a comment, on
    its last line or the next, that begins with the ``repr`` of its value."""
    monkeypatch.chdir(ROOT)  # the block's data paths are relative to the root
    source = library_use()
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    shown = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = comments.get(node.end_lineno, comments.get(node.end_lineno + 1))
        assert comment is not None, f"README.md line {node.lineno} of the block shows no value"
        assert comment.startswith(repr(value)), (comment, value)
        shown.append(value)
    assert len(shown) >= 4
