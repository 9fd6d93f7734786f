"""In-memory tracing of calls into tagrec's modules, for the traced run.

:class:`Tracer` replaces public functions of ``tagrec.pipeline`` and
``tagrec.artifacts`` (the names the pipeline calls through) with timed
wrappers while it is installed, and restores them on ``uninstall``.  Every
wrapped call becomes a span with its name, start, end, parent span and
trace, where a trace is one ``run-all`` invocation.  Calls too frequent for
a span each (``segment``, ``word_sim`` and ``sha256_file``) are counted
on the trace instead.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field

from tagrec import artifacts, pipeline, profiles

# (module, attribute) -> span name, named after the module that defines it.
SPANNED = {
    (pipeline, "run_all"): "pipeline.run_all",
    (pipeline, "stage_profiles"): "pipeline.stage_profiles",
    (pipeline, "stage_simmatrix"): "pipeline.stage_simmatrix",
    (pipeline, "stage_cluster"): "pipeline.stage_cluster",
    (pipeline, "stage_recommend"): "pipeline.stage_recommend",
    (pipeline, "load_lexicon"): "corpus.load_lexicon",
    (pipeline, "load_bigrams"): "corpus.load_bigrams",
    (pipeline, "ingest_profiles"): "profiles.ingest_profiles",
    (pipeline, "build_profiles"): "profiles.build_profiles",
    (pipeline, "load_taxonomy"): "taxonomy.load_taxonomy",
    (pipeline, "build_similarity_matrix"): "matcher.build_similarity_matrix",
    (pipeline, "k_medoids"): "cluster.k_medoids",
    (pipeline, "recommend_all"): "recommend.recommend_all",
    (artifacts, "stage_is_cached"): "artifacts.stage_is_cached",
    (artifacts, "write_sidecar"): "artifacts.write_sidecar",
    (artifacts, "write_profiles_tsv"): "artifacts.write_profiles_tsv",
    (artifacts, "read_profiles_tsv"): "artifacts.read_profiles_tsv",
    (artifacts, "write_sims_tsv"): "artifacts.write_sims_tsv",
    (artifacts, "read_sims_tsv"): "artifacts.read_sims_tsv",
    (artifacts, "write_clusters_tsv"): "artifacts.write_clusters_tsv",
    (artifacts, "read_clusters_tsv"): "artifacts.read_clusters_tsv",
    (artifacts, "write_recommendations_tsv"): "artifacts.write_recommendations_tsv",
}


@dataclass
class Trace:
    """Spans and counts of one ``run-all`` invocation."""

    name: str
    spans: list[dict] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    bodies: set[str] = field(default_factory=set)
    stage_elapsed: dict[str, float] = field(default_factory=dict)

    def seconds(self, span_name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == span_name)

    def durations(self, span_name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == span_name]


def _set_pair_counts(word_sets) -> tuple[int, int]:
    """Distinct unordered word-set pairs among all profile pairs, and the
    grid cells the greedy matcher fills (product of the two sizes, summed
    over pairs of non-empty profiles)."""
    multiplicity = Counter(word_sets)
    distinct = len(multiplicity)
    distinct_pairs = distinct * (distinct - 1) // 2 + sum(1 for m in multiplicity.values() if m > 1)
    sizes = [len(s) for s in word_sets if s]
    cells = (sum(sizes) ** 2 - sum(n * n for n in sizes)) // 2
    return distinct_pairs, cells


class Tracer:
    def __init__(self):
        self.traces: list[Trace] = []
        self._current: Trace | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: dict = {}

    # -- traces ---------------------------------------------------------

    def begin(self, name: str) -> None:
        self._current = Trace(name)
        self.traces.append(self._current)

    def end(self) -> None:
        self._current = None

    def named(self, prefix: str) -> list[Trace]:
        return [t for t in self.traces if t.name.startswith(prefix)]

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        for (module, attr), name in SPANNED.items():
            self._patch(module, attr, self._spanned(getattr(module, attr), name))
        self._patch(profiles, "segment", self._segment(profiles.segment))
        self._patch(artifacts, "sha256_file", self._hashing(artifacts.sha256_file))

    def uninstall(self) -> None:
        for (module, attr), original in self._originals.items():
            setattr(module, attr, original)
        self._originals.clear()

    def _patch(self, module, attr: str, wrapper) -> None:
        self._originals[module, attr] = getattr(module, attr)
        setattr(module, attr, wrapper)

    def _spanned(self, fn, name: str):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            trace = self._current
            if trace is None:
                return fn(*args, **kwargs)
            if name == "matcher.build_similarity_matrix":
                args, kwargs = self._count_word_sim(trace, args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                trace.spans.append(
                    {"trace": trace.name, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                )
            if observe is not None:
                observe(trace, args, result)
            return result

        return wrapper

    @staticmethod
    def _count_word_sim(trace: Trace, args, kwargs):
        # build_similarity_matrix(profiles, word_sim, ...)
        word_sim = kwargs.pop("word_sim") if "word_sim" in kwargs else args[1]

        def counted(w1, w2):
            trace.counts["word_sim_calls"] += 1
            return word_sim(w1, w2)

        return (args[0], counted, *args[2:]), kwargs

    def _segment(self, fn):
        def wrapper(hashtag, *args, **kwargs):
            trace = self._current
            if trace is None:
                return fn(hashtag, *args, **kwargs)
            start = time.perf_counter()
            result = fn(hashtag, *args, **kwargs)
            trace.counts["segment_s"] += time.perf_counter() - start
            trace.counts["segment_calls"] += 1
            trace.bodies.add(result.hashtag.normalized)
            return result

        return wrapper

    def _hashing(self, fn):
        def wrapper(path):
            digest = fn(path)
            if self._current is not None:
                self._current.counts["bytes_hashed"] += os.path.getsize(path)
            return digest

        return wrapper

    # -- output ---------------------------------------------------------

    def dump(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        spans = [s for t in self.traces for s in t.spans]
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        return len(spans)


def _observe_run_all(trace: Trace, args, reports) -> None:
    trace.stage_elapsed = {r.stage: r.elapsed for r in reports if not r.cached}


def _observe_profiles(trace: Trace, args, built) -> None:
    sets = [p.words for p in built]
    trace.counts["vocab"] = len(frozenset().union(*sets))
    trace.counts["distinct_sets"] = len(set(sets))


def _observe_matrix(trace: Trace, args, matrix) -> None:
    sets = [frozenset(p.words) for p in args[0]]
    trace.counts["pairs"] = matrix.condensed.size
    trace.counts["distinct_set_pairs"], trace.counts["grid_cells"] = _set_pair_counts(sets)


def _observe_kmedoids(trace: Trace, args, clustering) -> None:
    trace.counts["kmedoids_iterations"] = clustering.iterations


def _observe_recommend(trace: Trace, args, recs) -> None:
    trace.counts["targets"] = len(recs)


_OBSERVERS = {
    "pipeline.run_all": _observe_run_all,
    "profiles.build_profiles": _observe_profiles,
    "matcher.build_similarity_matrix": _observe_matrix,
    "cluster.k_medoids": _observe_kmedoids,
    "recommend.recommend_all": _observe_recommend,
}
