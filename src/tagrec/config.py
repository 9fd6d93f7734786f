"""Settings of the pipeline: each default, the ``run-all`` config and its file format.

This module imports only the standard library and :mod:`tagrec.errors`,
so the command-line parser can take every default and flag type from it
without loading numpy or any stage module.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from pathlib import Path

from tagrec.errors import InputError, PipelineError

# Probability assigned to unseen bigrams (see corpus.BigramModel).
DEFAULT_FLOOR_PROB = 1e-9

# Finite stand-in for -ln(0): assigned to synsets whose propagated
# frequency is zero, and an upper clamp for all ICs so monotonicity along
# edges survives the stand-in (see taxonomy.Taxonomy).
DEFAULT_IC_CAP = 25.0

# Iteration cap of k-medoids (see cluster.k_medoids).
DEFAULT_MAX_ITER = 100


@dataclass
class PipelineConfig:
    users: Path
    lexicon: Path
    bigrams: Path
    synsets: Path
    edges: Path
    out_dir: Path
    counts: Path | None = None
    k: int = 30
    seed: int = 42
    max_iter: int = DEFAULT_MAX_ITER
    top: int | None = None
    workers: int = 1
    bigram_floor: float = DEFAULT_FLOOR_PROB
    ic_cap: float = DEFAULT_IC_CAP
    force: bool = False

    def __post_init__(self):
        for name, cast in CONFIG_TYPES.items():
            if cast is Path and getattr(self, name) is not None:
                setattr(self, name, Path(getattr(self, name)))


# The type each setting's text is read as, from PipelineConfig's annotations:
# ``X`` for a field of ``X`` or ``X | None``.  ``force`` is a flag only.
CONFIG_TYPES = {
    name: next(t for t in (*typing.get_args(hint), hint) if t is not type(None))
    for name, hint in typing.get_type_hints(PipelineConfig).items()
    if name != "force"
}


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; ``#`` starts a comment.

    Keys use the CLI flag names with dashes or underscores, and each value
    is read as its setting's type in :data:`CONFIG_TYPES`.  Unknown keys
    and values that do not convert are rejected so typos fail loudly.
    """
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise PipelineError("config", f"{path}:{line_no}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                cast = CONFIG_TYPES.get(key)
                if cast is None:
                    raise PipelineError("config", f"{path}:{line_no}: unknown key {key!r}")
                try:
                    values[key] = cast(value)
                except ValueError:
                    raise InputError(f"config key {key!r}: {value!r} is not a valid {cast.__name__}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError("config", f"cannot read config file {path}: {exc}") from exc
    return values
