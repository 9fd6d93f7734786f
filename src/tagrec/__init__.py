"""Friend recommendation from hashtag semantics.

The pipeline: segment each user's hashtags into dictionary words, compare
the resulting word profiles with a taxonomy-backed similarity measure,
cluster the pairwise similarity matrix with k-medoids, and recommend the
closest profiles inside each user's cluster.

Each exported name is imported from its module on first access (PEP 562),
so ``import tagrec`` loads no numpy and no stage module.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Module -> the names it exports from the package.
_EXPORTS = {
    "cluster": ("Clustering", "cluster_histogram", "k_medoids"),
    "config": ("PipelineConfig",),
    "corpus": ("BigramModel", "Lexicon", "load_bigrams", "load_lexicon"),
    "matcher": ("SimilarityMatrix", "build_similarity_matrix", "profile_similarity"),
    "pipeline": ("run_all",),
    "profiles": ("Profile", "build_profile", "build_profiles", "ingest_profiles"),
    "recommend": ("Recommendation", "recommend", "recommend_all"),
    "segmenter": (
        "Hashtag",
        "SegmentResult",
        "SegmentStatus",
        "enumerate_segmentations",
        "evaluate_segmenter",
        "score_segmentation",
        "segment",
        "segment_all",
    ),
    "taxonomy": ("Taxonomy", "load_taxonomy"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Only exported names resolve here; any other miss, such as a submodule
    # not imported yet, raises so that ``from tagrec import cli`` imports it.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package.  The function
        # ``recommend`` keeps its name when the submodule ``recommend`` loads.
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
