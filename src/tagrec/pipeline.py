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
import time
from dataclasses import dataclass, fields
from pathlib import Path

from tagrec import artifacts
from tagrec.cluster import DEFAULT_MAX_ITER, k_medoids
from tagrec.corpus import DEFAULT_FLOOR_PROB, load_bigrams, load_lexicon
from tagrec.errors import PipelineError, TagrecError
from tagrec.matcher import build_similarity_matrix
from tagrec.profiles import build_profiles, ingest_profiles
from tagrec.recommend import recommend_all
from tagrec.taxonomy import DEFAULT_IC_CAP, load_taxonomy

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


def compute_simmatrix(
    profiles_path, synsets_path, edges_path, counts_path, ic_cap: float, workers: int, out_path
) -> None:
    taxonomy = load_taxonomy(synsets_path, edges_path, counts_path, ic_cap=ic_cap)
    profiles = artifacts.read_profiles_tsv(profiles_path)

    def progress(done, total):
        logger.info("[simmatrix] %d/%d pairs", done, total)

    matrix = build_similarity_matrix(profiles, taxonomy.word_similarity, workers=workers, progress=progress)
    artifacts.write_sims_tsv(out_path, matrix)


def compute_cluster(sims_path, k: int, seed: int, max_iter: int, out_path) -> None:
    matrix = artifacts.read_sims_tsv(sims_path)
    clustering = k_medoids(matrix, k=k, seed=seed, max_iter=max_iter)
    artifacts.write_clusters_tsv(out_path, clustering, matrix.ids)


def compute_recommendations(sims_path, clusters_path, top: int, out_path) -> None:
    matrix = artifacts.read_sims_tsv(sims_path)
    clustering = artifacts.read_clusters_tsv(clusters_path)
    artifacts.write_recommendations_tsv(out_path, recommend_all(clustering, matrix, top))


# -- staged pipeline ------------------------------------------------------


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
        for name in ("users", "lexicon", "bigrams", "synsets", "edges", "out_dir"):
            setattr(self, name, Path(getattr(self, name)))
        if self.counts is not None:
            self.counts = Path(self.counts)


@dataclass
class StageReport:
    stage: str
    path: Path
    cached: bool
    elapsed: float = 0.0

    def line(self) -> str:
        status = "cached" if self.cached else f"computed in {self.elapsed:.2f}s"
        return f"[{self.stage}] {status} -> {self.path}"


def _require_files(stage: str, inputs: dict) -> None:
    for name, p in inputs.items():
        if p is None or not Path(p).is_file():
            raise PipelineError(stage, f"required {name} file not found: {p}")


def _run_stage(stage: str, out_path: Path, params: dict, inputs: dict, compute, force: bool) -> StageReport:
    inputs = {name: Path(p) for name, p in inputs.items()}
    _require_files(stage, inputs)
    if not force and artifacts.stage_is_cached(out_path, stage, params, inputs):
        logger.info("[%s] cached -> %s", stage, out_path)
        return StageReport(stage=stage, path=out_path, cached=True)
    start = time.perf_counter()
    try:
        compute()
    except PipelineError:
        raise
    except (TagrecError, OSError) as exc:
        raise PipelineError(stage, str(exc)) from exc
    elapsed = time.perf_counter() - start
    artifacts.write_sidecar(out_path, stage, params, inputs, elapsed)
    logger.info("[%s] computed in %.2fs -> %s", stage, elapsed, out_path)
    return StageReport(stage=stage, path=out_path, cached=False, elapsed=elapsed)


def stage_profiles(cfg: PipelineConfig) -> StageReport:
    out = cfg.out_dir / PROFILES_TSV
    return _run_stage(
        "profiles",
        out,
        params={"bigram_floor": cfg.bigram_floor},
        inputs={"users": cfg.users, "lexicon": cfg.lexicon, "bigrams": cfg.bigrams},
        compute=lambda: compute_profiles(cfg.users, cfg.lexicon, cfg.bigrams, cfg.bigram_floor, out),
        force=cfg.force,
    )


def stage_simmatrix(cfg: PipelineConfig) -> StageReport:
    out = cfg.out_dir / SIMS_TSV
    profiles_tsv = cfg.out_dir / PROFILES_TSV
    inputs = {"profiles": profiles_tsv, "synsets": cfg.synsets, "edges": cfg.edges}
    if cfg.counts is not None:
        inputs["counts"] = cfg.counts
    return _run_stage(
        "simmatrix",
        out,
        params={"ic_cap": cfg.ic_cap},
        inputs=inputs,
        compute=lambda: compute_simmatrix(
            profiles_tsv, cfg.synsets, cfg.edges, cfg.counts, cfg.ic_cap, cfg.workers, out
        ),
        force=cfg.force,
    )


def stage_cluster(cfg: PipelineConfig) -> StageReport:
    out = cfg.out_dir / CLUSTERS_TSV
    sims_tsv = cfg.out_dir / SIMS_TSV
    return _run_stage(
        "cluster",
        out,
        params={"k": cfg.k, "seed": cfg.seed, "max_iter": cfg.max_iter},
        inputs={"sims": sims_tsv},
        compute=lambda: compute_cluster(sims_tsv, cfg.k, cfg.seed, cfg.max_iter, out),
        force=cfg.force,
    )


def stage_recommend(cfg: PipelineConfig) -> StageReport:
    out = cfg.out_dir / RECOMMENDATIONS_TSV
    sims_tsv = cfg.out_dir / SIMS_TSV
    clusters_tsv = cfg.out_dir / CLUSTERS_TSV
    return _run_stage(
        "recommend",
        out,
        params={"top": cfg.top},
        inputs={"sims": sims_tsv, "clusters": clusters_tsv},
        compute=lambda: compute_recommendations(sims_tsv, clusters_tsv, cfg.top, out),
        force=cfg.force,
    )


def run_all(cfg: PipelineConfig) -> list[StageReport]:
    """Run profiles -> simmatrix -> cluster (-> recommend when ``top`` is set)."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    reports = [stage_profiles(cfg), stage_simmatrix(cfg), stage_cluster(cfg)]
    if cfg.top is not None:
        reports.append(stage_recommend(cfg))
    return reports


# -- config file ---------------------------------------------------------

CONFIG_KEYS = tuple(f.name for f in fields(PipelineConfig) if f.name != "force")


def load_config_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment.

    Keys use the CLI flag names with dashes or underscores.  Unknown keys
    are rejected so typos fail loudly.
    """
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise PipelineError("config", f"{path}:{line_no}: expected 'key = value'")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in CONFIG_KEYS:
                    raise PipelineError("config", f"{path}:{line_no}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise PipelineError("config", f"cannot read config file {path}: {exc}") from exc
    return values
