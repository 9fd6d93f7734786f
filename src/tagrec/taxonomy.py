"""Is-a taxonomy with corpus-derived information content and word similarity.

Concept specificity is measured as information content: the negative log
of a concept's propagated frequency share, where each observation of a
concept also counts toward every ancestor.  Word similarity takes the
best score over all sense pairs of the normalized shared-information
measure (twice the most informative common ancestor over the summed
concept ICs).
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

from tagrec.errors import (
    EmptyResourceError,
    InputError,
    ParseError,
    StructureError,
    UnknownIdError,
)
from tagrec.tsv import read_rows

logger = logging.getLogger(__name__)

# Synthetic top node joining all file-level roots; ic is 0 by construction.
VIRTUAL_ROOT = "<root>"

# Finite stand-in for -ln(0): assigned to synsets whose propagated
# frequency is zero, and an upper clamp for all ICs so monotonicity along
# edges survives the stand-in.
DEFAULT_IC_CAP = 25.0


@dataclass(frozen=True)
class Synset:
    id: str
    pos: str
    words: tuple[str, ...]


class Taxonomy:
    """Immutable concept hierarchy with propagated counts and IC."""

    def __init__(
        self,
        synsets: dict[str, Synset],
        parents: dict[str, set[str]],
        own_counts: dict[str, int],
        ic_cap: float = DEFAULT_IC_CAP,
    ):
        if not synsets:
            raise EmptyResourceError("taxonomy has no synsets")
        self.synsets = dict(synsets)
        self.parents = {sid: frozenset(parents.get(sid, ())) for sid in synsets}
        self.roots = frozenset(sid for sid, ps in self.parents.items() if not ps)
        self.ic_cap = float(ic_cap)

        self._check_edges()
        self._check_acyclic()

        index: dict[str, set[str]] = {}
        for sid, syn in self.synsets.items():
            for word in syn.words:
                index.setdefault(word, set()).add(sid)
        self.word_index = {w: frozenset(s) for w, s in index.items()}

        self._ancestors_cache: dict[str, frozenset[str]] = {}
        self.freq: dict[str, int] = {}
        self.ic: dict[str, float] = {}
        self._propagate(own_counts)

    # -- structure ---------------------------------------------------

    def _check_edges(self) -> None:
        for child, ps in self.parents.items():
            for parent in ps:
                if parent not in self.synsets:
                    raise UnknownIdError(f"edge {child} -> {parent}: unknown parent id {parent!r}")

    def _check_acyclic(self) -> None:
        # Kahn's algorithm over child->parent edges.
        out_degree = {sid: len(ps) for sid, ps in self.parents.items()}
        children: dict[str, list[str]] = {sid: [] for sid in self.synsets}
        for child, ps in self.parents.items():
            for parent in ps:
                children[parent].append(child)
        queue = deque(sid for sid, deg in out_degree.items() if deg == 0)
        seen = 0
        while queue:
            node = queue.popleft()
            seen += 1
            for child in children[node]:
                out_degree[child] -= 1
                if out_degree[child] == 0:
                    queue.append(child)
        if seen != len(self.synsets):
            raise StructureError("taxonomy contains a cycle")

    def ancestors(self, sid: str) -> frozenset[str]:
        """All concepts reachable upward from ``sid``, including itself
        and the virtual root."""
        if sid != VIRTUAL_ROOT and sid not in self.synsets:
            raise UnknownIdError(f"unknown synset id {sid!r}")
        cached = self._ancestors_cache.get(sid)
        if cached is not None:
            return cached
        if sid == VIRTUAL_ROOT:
            result = frozenset((VIRTUAL_ROOT,))
        else:
            closure = {sid, VIRTUAL_ROOT}
            stack = [sid]
            while stack:
                for parent in self.parents[stack.pop()]:
                    if parent not in closure:
                        closure.add(parent)
                        stack.append(parent)
            result = frozenset(closure)
        self._ancestors_cache[sid] = result
        return result

    # -- information content ------------------------------------------

    def _propagate(self, own_counts: dict[str, int]) -> None:
        for sid, count in own_counts.items():
            if sid not in self.synsets:
                raise UnknownIdError(f"counts reference unknown synset id {sid!r}")
            if count < 0:
                raise InputError(f"negative own count for synset {sid!r}")

        freq = {sid: 0 for sid in self.synsets}
        freq[VIRTUAL_ROOT] = 0
        for sid in self.synsets:
            own = own_counts.get(sid, 1)
            if own == 0:
                continue
            for ancestor in self.ancestors(sid):
                freq[ancestor] += own
        total = freq[VIRTUAL_ROOT]
        if total <= 0:
            raise EmptyResourceError("taxonomy has zero total frequency; all own counts are 0")

        self.freq = freq
        self.ic = {}
        for sid, f in freq.items():
            if f > 0:
                self.ic[sid] = min(-math.log(f / total), self.ic_cap)
            else:
                self.ic[sid] = self.ic_cap

    # -- similarity ----------------------------------------------------

    def resnik(self, c1: str, c2: str) -> float:
        """IC of the most informative ancestor the two concepts share."""
        common = self.ancestors(c1) & self.ancestors(c2)
        return max(self.ic[a] for a in common)

    def lin(self, c1: str, c2: str) -> float:
        """Shared IC normalized by the concepts' own ICs; in [0, 1]."""
        denom = self.ic[self._require(c1)] + self.ic[self._require(c2)]
        if denom == 0.0:
            return 0.0
        return 2.0 * self.resnik(c1, c2) / denom

    def word_similarity(self, w1: str, w2: str) -> float:
        """Best lin score over all sense pairs; identity scores 1, any
        out-of-taxonomy word scores 0."""
        w1, w2 = w1.lower(), w2.lower()
        if w1 == w2:
            return 1.0
        senses1 = self.word_index.get(w1)
        senses2 = self.word_index.get(w2)
        if not senses1 or not senses2:
            return 0.0
        return max(self.lin(s1, s2) for s1 in senses1 for s2 in senses2)

    def _require(self, sid: str) -> str:
        if sid != VIRTUAL_ROOT and sid not in self.synsets:
            raise UnknownIdError(f"unknown synset id {sid!r}")
        return sid

    def __len__(self) -> int:
        return len(self.synsets)


def load_taxonomy(synsets_path, edges_path, counts_path=None, ic_cap: float = DEFAULT_IC_CAP) -> Taxonomy:
    """Build a :class:`Taxonomy` from its three TSV files.

    ``synsets``: ``id<TAB>pos<TAB>word1,word2,...``
    ``edges``:   ``child_id<TAB>parent_id`` (is-a)
    ``counts``:  ``id<TAB>count`` — optional; synsets missing from it get
    an own count of 1.
    """
    synsets: dict[str, Synset] = {}
    for line_no, (sid, pos, members) in read_rows(synsets_path, 3, "synsets", comments=True):
        sid = sid.strip()
        if not sid:
            raise ParseError(synsets_path, line_no, "empty synset id")
        if sid in synsets:
            raise ParseError(synsets_path, line_no, f"duplicate synset id {sid!r}")
        if sid == VIRTUAL_ROOT:
            raise ParseError(synsets_path, line_no, f"synset id {sid!r} is reserved")
        words = tuple(w.strip().lower() for w in members.split(",") if w.strip())
        synsets[sid] = Synset(id=sid, pos=pos.strip(), words=words)
    if not synsets:
        raise EmptyResourceError(f"synsets file {synsets_path} contains no rows")

    parents: dict[str, set[str]] = {sid: set() for sid in synsets}
    for line_no, (child, parent) in read_rows(edges_path, 2, "edges", comments=True):
        child, parent = child.strip(), parent.strip()
        if child not in synsets:
            raise UnknownIdError(f"{edges_path}:{line_no}: unknown child id {child!r}")
        if parent not in synsets:
            raise UnknownIdError(f"{edges_path}:{line_no}: unknown parent id {parent!r}")
        parents[child].add(parent)

    own_counts: dict[str, int] = {}
    if counts_path is not None:
        for line_no, (sid, raw_count) in read_rows(counts_path, 2, "counts", comments=True):
            sid = sid.strip()
            if sid not in synsets:
                raise UnknownIdError(f"{counts_path}:{line_no}: unknown synset id {sid!r}")
            try:
                count = int(raw_count)
            except ValueError:
                raise ParseError(counts_path, line_no, f"count is not an integer: {raw_count!r}") from None
            if count < 0:
                raise ParseError(counts_path, line_no, f"count must be non-negative, got {count}")
            own_counts[sid] = own_counts.get(sid, 0) + count

    taxonomy = Taxonomy(synsets, parents, own_counts, ic_cap=ic_cap)
    logger.info(
        "taxonomy: %d synsets, %d words, %d roots", len(synsets), len(taxonomy.word_index), len(taxonomy.roots)
    )
    return taxonomy
