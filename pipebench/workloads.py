"""Seeded generators for the benchmark's users files.

Each workload is a function of the seed alone: the same seed writes the
same bytes.  Sizes are fixed per workload, so seeds change which words are
drawn but hardly how much work the pipeline does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# The five planted topic pools of the acceptance suite's generator
# (tests/test_acceptance.py), copied so the benchmark imports no test module.
POOLS = {
    "sports": ["football", "soccer", "tennis", "stadium", "league", "coach", "referee", "goalkeeper"],
    "music": ["guitar", "concert", "album", "melody", "rhythm", "band", "drummer", "chorus"],
    "food": ["pizza", "recipe", "baking", "kitchen", "flavor", "chef", "dessert", "pasta"],
    "travel": ["airport", "flight", "hotel", "passport", "tourism", "luggage", "cruise", "voyage"],
    "tech": ["software", "laptop", "internet", "robot", "coding", "startup", "gadget", "server"],
}

# Users whose hashtags have no lexicon split, so their profiles are empty.
EMPTY_USERS = 2
_NONWORD_LETTERS = "qxzj"


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    k: int  # clusters for the cold and cached runs
    retune_k: int  # clusters for the retune runs
    top: int
    retune_pairs: int  # retune runs per round, in pairs (other config, back)
    cached_repeats: int  # fully cached runs per round


WORKLOADS = {
    "pools": Workload("pools", users=300, k=5, retune_k=8, top=10, retune_pairs=2, cached_repeats=20),
    "phrases": Workload("phrases", users=200, k=10, retune_k=14, top=10, retune_pairs=4, cached_repeats=20),
    "openvocab": Workload("openvocab", users=200, k=10, retune_k=14, top=10, retune_pairs=3, cached_repeats=20),
}


def _nonword(rng: random.Random) -> str:
    return "#" + "".join(rng.choice(_NONWORD_LETTERS) for _ in range(rng.randint(3, 6)))


def _tag_counts(i: int) -> range:
    """User i posts 4 to 7 hashtags, cycling, so every seed has the same total."""
    return range(4 + (i // 5) % 4)


def _pools_users(rng: random.Random, n: int, lexicon: list[str]) -> list[list[str]]:
    pools = list(POOLS.values())
    users = []
    for i in range(n):
        words = pools[i % len(pools)]
        # Every other hashtag joins two words, as often as the acceptance
        # generator's coin flip would on average.
        users.append(["#" + "".join(rng.sample(words, 1 + (i + t) % 2)) for t in _tag_counts(i)])
    return users


PHRASE_THEMES = 40  # personal word sets shared by about five users each
PHRASE_SET_SIZE = 5
PHRASE_TAGS = 60


def _phrases_users(rng: random.Random, n: int, lexicon: list[str]) -> list[list[str]]:
    candidates = [w for w in lexicon if 4 <= len(w) <= 7]
    themes = [rng.sample(candidates, PHRASE_SET_SIZE) for _ in range(PHRASE_THEMES)]
    users = []
    for _ in range(n):
        words = rng.choice(themes)
        users.append(["#" + "".join(rng.sample(words, 2 + t % 3)) for t in range(PHRASE_TAGS)])
    return users


def _openvocab_users(rng: random.Random, n: int, lexicon: list[str]) -> list[list[str]]:
    return [["#" + "".join(rng.sample(lexicon, 1 + (i + t) % 2)) for t in _tag_counts(i)] for i in range(n)]


_GENERATORS = {"pools": _pools_users, "phrases": _phrases_users, "openvocab": _openvocab_users}


def write_users(workload: Workload, seed: int, lexicon_path: Path, out_path: Path) -> int:
    """Write the workload's users TSV for ``seed``; returns the hashtag count."""
    lexicon = sorted(
        line.strip().lower() for line in lexicon_path.read_text(encoding="utf-8").splitlines() if line.strip()
    )
    rng = random.Random(f"{workload.name}:{seed}")
    users = _GENERATORS[workload.name](rng, workload.users - EMPTY_USERS, lexicon)
    users += [[_nonword(rng) for _ in range(3)] for _ in range(EMPTY_USERS)]
    lines = [f"user{i:04d}\t{','.join(tags)}" for i, tags in enumerate(users)]
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return sum(len(tags) for tags in users)
