"""The one reader for tab-separated inputs and artifacts.

Every TSV file tagrec reads follows the same rules: UTF-8 text, blank
lines skipped, each row split on tabs into an exact number of fields.
A row with another field count fails as a :class:`ParseError` naming its
line; a file that cannot be opened or decoded fails as a
:class:`ResourceError`.
"""

from __future__ import annotations

from tagrec.errors import ParseError, ResourceError


def read_rows(path, n_fields: int, what: str, comments: bool = False):
    """Yield ``(line_no, fields)`` for each non-blank row of ``path``.

    ``what`` names the file in the error for an unreadable file:
    ``cannot read <what> <path>: ...``.  With ``comments``, lines starting
    with ``#`` are skipped too; it is off by default because a hashtag or
    a user id may itself start with ``#``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                # A line is never empty, so isspace() is "blank" without the copy strip() makes.
                if line.isspace() or (comments and line.startswith("#")):
                    continue
                fields = line.rstrip("\n").split("\t")
                if len(fields) != n_fields:
                    raise ParseError(path, line_no, f"expected {n_fields} tab-separated fields, got {len(fields)}")
                yield line_no, fields
    except (OSError, UnicodeDecodeError) as exc:
        raise ResourceError(f"cannot read {what} {path}: {exc}") from exc
