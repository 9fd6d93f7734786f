"""Is-a taxonomy with corpus-derived information content and word similarity.

Concept specificity is measured as information content: the negative log
of a concept's propagated frequency share, where each observation of a
concept also counts toward every ancestor.  Word similarity takes the
best score over all sense pairs of the normalized shared-information
measure (twice the most informative common ancestor over the summed
concept ICs).  :meth:`Taxonomy.word_table` computes the same scores for
a whole word list at once, in numpy, with one row for each word that
can score and one shared row of zeros for the rest.

The constructor walks the is-a DAG once, with Kahn's algorithm from the
roots down: a synset is closed once all its parents are, and its ancestor
set is then itself, the virtual root and the union of its parents' sets.
The same walk rejects edges to unknown ids and, when some synset is never
reached, a cycle; every later ancestor lookup reads the stored sets.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from tagrec.config import DEFAULT_IC_CAP
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


@dataclass(frozen=True)
class Synset:
    id: str
    pos: str
    words: tuple[str, ...]


class Taxonomy:
    """Immutable concept hierarchy with propagated counts and IC.

    ``parents`` maps a child id to its parent ids; every id on an edge must
    be in ``synsets``, which may not use the reserved id ``VIRTUAL_ROOT``.
    One topological pass over the edges checks them, detects cycles and
    stores every synset's ancestor set, so :meth:`ancestors` is a lookup
    and the propagated counts sum each own count over those sets.
    """

    def __init__(
        self,
        synsets: dict[str, Synset],
        parents: dict[str, set[str]],
        own_counts: dict[str, int],
        ic_cap: float = DEFAULT_IC_CAP,
    ):
        if not synsets:
            raise EmptyResourceError("taxonomy has no synsets")
        if VIRTUAL_ROOT in synsets:
            raise InputError(f"synset id {VIRTUAL_ROOT!r} is reserved")
        self.synsets = dict(synsets)
        self.parents = {sid: frozenset(parents.get(sid, ())) for sid in synsets}
        self.roots = frozenset(sid for sid, ps in self.parents.items() if not ps)
        self.ic_cap = float(ic_cap)
        # a cap at or below 0 flattens every IC to the cap, and inf or nan can make Lin scores NaN
        if not 0.0 < self.ic_cap < math.inf:
            raise InputError(f"ic_cap must be a positive finite number, got {ic_cap}")

        self._close(parents)

        index: dict[str, set[str]] = {}
        for sid, syn in self.synsets.items():
            for word in syn.words:
                index.setdefault(word, set()).add(sid)
        self.word_index = {w: frozenset(s) for w, s in index.items()}

        self.freq: dict[str, int] = {}
        self.ic: dict[str, float] = {}
        self._propagate(own_counts)

    # -- structure ---------------------------------------------------

    def _close(self, parents: dict[str, set[str]]) -> None:
        # Kahn's algorithm over child->parent edges, parents first, so each
        # synset's ancestor set is its parents' sets plus itself and the root.
        children: dict[str, list[str]] = {sid: [] for sid in self.synsets}
        for child, ps in parents.items():
            for parent in ps:
                if child not in self.synsets:
                    raise UnknownIdError(f"edge {child} -> {parent}: unknown child id {child!r}")
                if parent not in self.synsets:
                    raise UnknownIdError(f"edge {child} -> {parent}: unknown parent id {parent!r}")
                children[parent].append(child)
        waiting = {sid: len(ps) for sid, ps in self.parents.items()}
        queue = deque(sid for sid, n in waiting.items() if n == 0)
        closure = {VIRTUAL_ROOT: frozenset((VIRTUAL_ROOT,))}
        while queue:
            sid = queue.popleft()
            closure[sid] = frozenset((sid, VIRTUAL_ROOT)).union(*(closure[p] for p in self.parents[sid]))
            for child in children[sid]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    queue.append(child)
        # a synset on or below a cycle never has all its parents closed
        if len(closure) <= len(self.synsets):
            raise StructureError("taxonomy contains a cycle")
        self._closure = closure

    def ancestors(self, sid: str) -> frozenset[str]:
        """All concepts reachable upward from ``sid``, including itself
        and the virtual root."""
        try:
            return self._closure[sid]
        except KeyError:
            raise UnknownIdError(f"unknown synset id {sid!r}") from None

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
        shared = self.resnik(c1, c2)  # raises UnknownIdError before ic is read
        denom = self.ic[c1] + self.ic[c2]
        if denom == 0.0:
            return 0.0
        return 2.0 * shared / denom

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

    def word_table(self, words, alone) -> tuple[np.ndarray, np.ndarray]:
        """``word_similarity`` over ``words`` as ``(rows, table)``, with a
        table row only for each word that can score.

        ``table[rows[i], rows[j]]`` equals ``word_similarity(words[i],
        words[j])`` for every ``i != j``, and for ``i == j`` unless
        ``alone[i]``, which marks a word that never meets a copy of itself.
        A word has a row of its own when the taxonomy knows it, when its
        lowercase form occurs more than once (equal lowercased words score
        1) or when it is not alone.  Every other word scores 0 against all
        the others, so they share the last row, which is 0 throughout.

        Only the senses of the given words take part.  An ancestor bitmap
        over those senses gives Resnik as the max IC over shared
        ancestors, then Lin as ``2 * res / (ic1 + ic2)`` (0 when the sum
        is 0), then each word pair's cell as the max over its sense pairs.
        The float64 operations are those of :meth:`word_similarity`, so
        every cell equals it.  Memory: S x A bits and an S x S Lin block
        for the S senses of the given words and their A ancestors, plus
        the (R + 1)^2 table for the R words with a row of their own.
        """
        lowered = [w.lower() for w in words]
        groups: dict[str, list[int]] = {}
        for i, w in enumerate(lowered):
            groups.setdefault(w, []).append(i)
        own = [not a or w in self.word_index or len(groups[w]) > 1 for w, a in zip(lowered, alone)]
        r = sum(own)
        rows = np.full(len(lowered), r, dtype=np.intp)  # row r is the shared zero row
        rows[own] = np.arange(r)
        table = np.zeros((r + 1, r + 1))
        known = sorted({w for w in lowered if w in self.word_index})
        if known:
            senses = sorted(set().union(*(self.word_index[w] for w in known)))
            ancestors = sorted(set().union(*(self.ancestors(s) for s in senses)))
            column = {a: i for i, a in enumerate(ancestors)}
            bits = np.zeros((len(senses), len(ancestors)), dtype=bool)
            for i, s in enumerate(senses):
                bits[i, [column[a] for a in self.ancestors(s)]] = True
            ic_a = np.array([self.ic[a] for a in ancestors])
            ic_s = np.array([self.ic[s] for s in senses])
            lin = np.zeros((len(senses), len(senses)))
            for i in range(len(senses)):
                mine = bits[i]
                res = np.where(bits[:, mine], ic_a[mine], -np.inf).max(axis=1)
                denom = ic_s[i] + ic_s
                np.divide(2.0 * res, denom, out=lin[i], where=denom != 0.0)
            # each known word's sense rows, then the max over sense pairs
            row = {s: i for i, s in enumerate(senses)}
            members = [[row[s] for s in self.word_index[w]] for w in known]
            flat = np.array([i for m in members for i in m], dtype=np.intp)
            starts = np.cumsum([0] + [len(m) for m in members[:-1]])
            by_word = np.maximum.reduceat(lin[flat], starts, axis=0)
            by_word = np.maximum.reduceat(by_word[:, flat], starts, axis=1)
            index = {w: i for i, w in enumerate(known)}
            at = [i for i, w in enumerate(lowered) if w in index]
            of = [index[lowered[i]] for i in at]
            table[np.ix_(rows[at], rows[at])] = by_word[np.ix_(of, of)]
        table[np.arange(r), np.arange(r)] = 1.0
        for group in groups.values():
            if len(group) > 1:
                table[np.ix_(rows[group], rows[group])] = 1.0
        return rows, table

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
