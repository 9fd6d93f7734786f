"""End-to-end orchestration of the recommendation pipeline.

Stages chain through persisted TSV artifacts (profiles -> similarity
matrix -> clustering -> recommendations).  The compute cores are shared
with the standalone CLI subcommands, so ``run-all`` produces byte-for-
byte the same artifacts as running the subcommands manually.  A stage
whose inputs and parameters are unchanged since the last run is skipped
via its content-hash sidecar.
"""

from __future__ import annotations

import logging
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from tagrec import artifacts
from tagrec.cluster import k_medoids
from tagrec.config import CONFIG_TYPES, PipelineConfig, load_config_file  # noqa: F401  re-exported
from tagrec.corpus import load_bigrams, load_lexicon
from tagrec.errors import InputError, PipelineError, TagrecError
from tagrec.matcher import build_similarity_matrix
from tagrec.profiles import build_profiles, ingest_profiles
from tagrec.recommend import recommend_all
from tagrec.taxonomy import load_taxonomy

logger = logging.getLogger(__name__)

PROFILES_TSV = "profiles.tsv"
SIMS_TSV = "sims.tsv"
CLUSTERS_TSV = "clusters.tsv"
RECOMMENDATIONS_TSV = "recommendations.tsv"


# -- compute cores (shared by run-all and the standalone subcommands) ----


def compute_profiles(users_path, lexicon_path, bigrams_path, bigram_floor: float, out_path) -> None:
    lexicon = load_lexicon(lexicon_path)
    bigrams = load_bigrams(bigrams_path, floor_prob=bigram_floor)
    profiles = build_profiles(ingest_profiles(users_path), lexicon, bigrams)
    artifacts.write_profiles_tsv(out_path, profiles)


def _physical_ram() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return None


def compute_simmatrix(
    profiles_path, synsets_path, edges_path, counts_path, ic_cap: float, workers: int, out_path
) -> None:
    """Score every pair of profiles into ``out_path``.

    Before the taxonomy loads, the pairs, the condensed matrix's bytes and
    the exact bytes of ``out_path`` are logged at INFO.  A disk with fewer
    bytes free than the file needs raises :class:`TagrecError`, and a
    condensed matrix larger than physical RAM, where the platform tells
    it, logs a warning.
    """
    profiles = artifacts.read_profiles_tsv(profiles_path)
    n = len(profiles)
    if n < 2:
        raise InputError(
            f"{profiles_path} holds {n} profile(s); a similarity matrix needs at least 2, "
            "because sims.tsv names its ids only in its pair rows"
        )
    out_path = Path(out_path)
    pairs = n * (n - 1) // 2
    sims_bytes = artifacts.sims_tsv_size([p.id for p in profiles])
    logger.info("[simmatrix] %d pairs: %d bytes condensed, %d bytes of %s", pairs, 4 * pairs, sims_bytes, out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    free = shutil.disk_usage(out_path.parent).free
    if free < sims_bytes:
        raise TagrecError(f"{out_path} needs {sims_bytes} bytes, but its disk has {free} bytes free")
    ram = _physical_ram()
    if ram is not None and 4 * pairs > ram:
        logger.warning("[simmatrix] the condensed matrix takes %d bytes, more than %d of RAM", 4 * pairs, ram)
    taxonomy = load_taxonomy(synsets_path, edges_path, counts_path, ic_cap=ic_cap)

    def progress(done, total):
        logger.info("[simmatrix] %d/%d pairs", done, total)

    matrix = build_similarity_matrix(profiles, taxonomy.word_table, workers=workers, progress=progress)
    artifacts.write_sims_tsv(out_path, matrix)


def compute_cluster(
    sims_path, k: int, seed: int, max_iter: int, out_path, hashes: artifacts.FileHashes | None = None
) -> None:
    matrix = (hashes or artifacts.FileHashes()).sims(sims_path)
    if not matrix.ids:
        raise InputError(f"{sims_path} holds no pair rows")
    clustering = k_medoids(matrix, k=k, seed=seed, max_iter=max_iter)
    artifacts.write_clusters_tsv(out_path, clustering, matrix.ids)


def read_ranking_inputs(sims_path, clusters_path, hashes: artifacts.FileHashes | None = None):
    """The matrix and clustering to rank from, checked to hold the same ids.

    With the run's ``hashes``, a ``sims.tsv`` it has parsed already is not
    parsed again.
    """
    matrix = (hashes or artifacts.FileHashes()).sims(sims_path)
    clustering = artifacts.read_clusters_tsv(clusters_path)
    scored = set(matrix.ids)
    unclustered = [pid for pid in matrix.ids if pid not in clustering.assignment]
    unscored = [pid for pid in clustering.assignment if pid not in scored]
    if unclustered or unscored:
        problems = []
        if unclustered:
            problems.append(f"id {unclustered[0]!r} of {sims_path} is missing from {clusters_path}")
        if unscored:
            problems.append(f"id {unscored[0]!r} of {clusters_path} is missing from {sims_path}")
        raise InputError("; ".join(problems))
    return matrix, clustering


def compute_recommendations(
    sims_path, clusters_path, top: int, out_path, hashes: artifacts.FileHashes | None = None
) -> None:
    matrix, clustering = read_ranking_inputs(sims_path, clusters_path, hashes)
    artifacts.write_recommendations_tsv(out_path, recommend_all(clustering, matrix, top))


# -- staged pipeline ------------------------------------------------------


@dataclass
class StageReport:
    stage: str
    path: Path
    cached: bool
    elapsed: float = 0.0

    def line(self) -> str:
        status = "cached" if self.cached else f"computed in {self.elapsed:.2f}s"
        return f"[{self.stage}] {status} -> {self.path}"


def _run_stage(
    cfg: PipelineConfig, hashes: artifacts.FileHashes, stage: str, name: str, params: dict, inputs: dict, compute
) -> StageReport:
    """Run ``compute(out)`` to write ``out = cfg.out_dir / name``, unless
    ``cfg.force`` is off and the sidecar of ``out`` shows it cached for
    ``params`` and ``inputs``, the input files by name."""
    out = cfg.out_dir / name
    for key, p in inputs.items():
        if not p.is_file():
            raise PipelineError(stage, f"required {key} file not found: {p}")
    if not cfg.force and artifacts.stage_is_cached(out, stage, params, inputs, hashes):
        logger.info("[%s] cached -> %s", stage, out)
        return StageReport(stage=stage, path=out, cached=True)
    start = time.perf_counter()
    try:
        compute(out)
    except PipelineError:
        raise
    except (TagrecError, OSError) as exc:
        raise PipelineError(stage, str(exc)) from exc
    elapsed = time.perf_counter() - start
    artifacts.write_sidecar(out, stage, params, inputs, elapsed, hashes)
    logger.info("[%s] computed in %.2fs -> %s", stage, elapsed, out)
    return StageReport(stage=stage, path=out, cached=False, elapsed=elapsed)


def stage_profiles(cfg: PipelineConfig, hashes: artifacts.FileHashes) -> StageReport:
    return _run_stage(
        cfg,
        hashes,
        "profiles",
        PROFILES_TSV,
        params={"bigram_floor": cfg.bigram_floor},
        inputs={"users": cfg.users, "lexicon": cfg.lexicon, "bigrams": cfg.bigrams},
        compute=lambda out: compute_profiles(cfg.users, cfg.lexicon, cfg.bigrams, cfg.bigram_floor, out),
    )


def stage_simmatrix(cfg: PipelineConfig, hashes: artifacts.FileHashes) -> StageReport:
    profiles_tsv = cfg.out_dir / PROFILES_TSV
    inputs = {"profiles": profiles_tsv, "synsets": cfg.synsets, "edges": cfg.edges}
    if cfg.counts is not None:
        inputs["counts"] = cfg.counts
    return _run_stage(
        cfg,
        hashes,
        "simmatrix",
        SIMS_TSV,
        params={"ic_cap": cfg.ic_cap},
        inputs=inputs,
        compute=lambda out: compute_simmatrix(
            profiles_tsv, cfg.synsets, cfg.edges, cfg.counts, cfg.ic_cap, cfg.workers, out
        ),
    )


def stage_cluster(cfg: PipelineConfig, hashes: artifacts.FileHashes) -> StageReport:
    sims_tsv = cfg.out_dir / SIMS_TSV
    return _run_stage(
        cfg,
        hashes,
        "cluster",
        CLUSTERS_TSV,
        params={"k": cfg.k, "seed": cfg.seed, "max_iter": cfg.max_iter},
        inputs={"sims": sims_tsv},
        compute=lambda out: compute_cluster(sims_tsv, cfg.k, cfg.seed, cfg.max_iter, out, hashes),
    )


def stage_recommend(cfg: PipelineConfig, hashes: artifacts.FileHashes) -> StageReport:
    sims_tsv = cfg.out_dir / SIMS_TSV
    clusters_tsv = cfg.out_dir / CLUSTERS_TSV
    return _run_stage(
        cfg,
        hashes,
        "recommend",
        RECOMMENDATIONS_TSV,
        params={"top": cfg.top},
        inputs={"sims": sims_tsv, "clusters": clusters_tsv},
        compute=lambda out: compute_recommendations(sims_tsv, clusters_tsv, cfg.top, out, hashes),
    )


def run_all(cfg: PipelineConfig) -> list[StageReport]:
    """Run profiles -> simmatrix -> cluster (-> recommend when ``top`` is set).

    The stages share one :class:`~tagrec.artifacts.FileHashes`, so each
    file version is hashed once per run and ``sims.tsv`` is parsed at most
    once: by the cluster stage when it runs (in a cold run, the file the
    simmatrix stage just wrote), and reused by the recommend stage.  In a
    retune, the simmatrix stage's cache hit proves the file's digest, so
    that read skips the re-rendering check (``trusted``).
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    hashes = artifacts.FileHashes()
    reports = [stage_profiles(cfg, hashes), stage_simmatrix(cfg, hashes), stage_cluster(cfg, hashes)]
    if cfg.top is not None:
        reports.append(stage_recommend(cfg, hashes))
    return reports

