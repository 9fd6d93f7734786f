"""Pipeline benchmark: ``tagrec run-all`` end to end on seeded workloads.

Run from the root of a tagrec checkout:

    python3 pipebench/run.py --workload pools --seed 1 --seconds 30 --trace 0

The run writes the workload's users file for ``--seed`` into a temporary
directory, then repeats whole rounds through the CLI entry point
(``tagrec.cli.main``) in this one process with ``--workers 1``:

* ``cold``: ``run-all`` into an empty out-dir, all four stages compute;
* ``retune``: ``run-all`` with another ``--k`` and ``--seed`` and back,
  so cluster and recommend recompute from the cached ``sims.tsv``;
* ``cached``: ``run-all`` with nothing changed, all four stages cached.

Rounds continue while another fits into ``--seconds`` (at least two).
Every check in ``oracles.py`` then runs on the artifacts, outside the
timed phases.  With ``--trace 1`` the rounds run under ``spans.Tracer``
and the run reports per-layer figures instead; each round then adds one
untraced cold run, so the tracing overhead is the traced minus the
untraced ``cold_s``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import test_oracles  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
RUNS = HERE / "_runs"  # generated inputs (temporary) and span dumps
INPUTS = {
    "lexicon": DATA / "lexicon.txt",
    "bigrams": DATA / "bigrams.tsv",
    "synsets": DATA / "taxonomy" / "synsets.tsv",
    "edges": DATA / "taxonomy" / "edges.tsv",
    "counts": DATA / "taxonomy" / "counts.tsv",
}
ARTIFACTS = ("profiles.tsv", "sims.tsv", "clusters.tsv", "recommendations.tsv")
STAGES = ("profiles", "simmatrix", "cluster", "recommend")
COLD, RETUNE, CACHED = (False,) * 4, (True, True, False, False), (True,) * 4

MIN_ROUNDS = 2
SETUPS_PER_ROUND = 2  # spread over the run, like the other phases
MATCH_SAMPLE = 300  # profile pairs checked against the greedy oracle

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "retune_s": "s", "cached_s": "s", "peak_rss_mb": "MB"}


def environment() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"python={platform.python_version()} numpy={numpy.__version__} nproc={os.cpu_count()} cpu={cpu!r}"


class Bench:
    """One workload's rounds, their timings, counts and problems."""

    def __init__(self, workload, seed: int, tmp: Path, workers: int, tracer=None):
        self.workload = workload
        self.tmp = tmp
        self.users = tmp / "users.tsv"
        self.workers = workers
        self.tracer = tracer
        self.configs = {"A": (workload.k, seed), "B": (workload.retune_k, seed + 1)}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {"setup_s": [], "cold_s": [], "retune_s": [], "cached_s": []}
        self.untraced_cold: list[float] = []
        self.first_cold_hashes: dict[str, str] | None = None
        self.rounds = 0
        self.out: Path | None = None

    def argv(self, out: Path, config: str) -> list[str]:
        k, seed = self.configs[config]
        argv = ["run-all", "--users", str(self.users), "--out-dir", str(out)]
        for name, path in INPUTS.items():
            argv += [f"--{name}", str(path)]
        argv += ["--k", str(k), "--seed", str(seed), "--top", str(self.workload.top), "--workers", str(self.workers)]
        return argv

    def setup(self) -> None:
        """Time a fresh interpreter importing ``tagrec.cli`` until it is ready to run."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        command = [sys.executable, "-c", "import tagrec.cli; tagrec.cli.build_parser()"]
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            self.attempted += 1
            start = time.perf_counter()
            # No timeout: with one, the wait polls and rounds the time up to 50 ms steps.
            done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                self.failed += 1
                self.problems.append(f"setup: interpreter exited with {done.returncode}")
            else:
                self.samples["setup_s"].append(elapsed)

    def invoke(self, out: Path, config: str, expect: tuple[bool, ...], label: str | None) -> float | None:
        """One ``run-all`` through the CLI entry point; returns its wall time."""
        from tagrec.cli import main

        argv = self.argv(out, config)
        printed = io.StringIO()
        gc.collect()
        if label is not None and self.tracer is not None:
            self.tracer.begin(label)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = main(argv)
        except Exception as exc:  # a crash counts as a failed operation
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end()
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{label or 'run-all'}: exit {code}")
            return None
        reported = [line[1:].split("] ", 1) for line in printed.getvalue().splitlines() if line.startswith("[")]
        got = [(stage, status.startswith("cached")) for stage, status in reported]
        if got != list(zip(STAGES, expect)):
            self.problems.append(f"{label}: stages reported {got}, expected {list(zip(STAGES, expect))}")
        return elapsed

    def _record(self, metric: str, elapsed: float | None) -> None:
        if elapsed is not None:
            self.samples[metric].append(elapsed)

    def hashes(self, out: Path) -> dict[str, str]:
        return {name: oracles.sha256(out / name) for name in ARTIFACTS if (out / name).is_file()}

    def round(self) -> None:
        r = self.rounds
        out = self.tmp / f"round{r}"
        self.setup()
        if self.tracer is not None:
            untraced = self.tmp / f"untraced{r}"
            elapsed = self.invoke(untraced, "A", COLD, None)
            if elapsed is not None:
                self.untraced_cold.append(elapsed)
            shutil.rmtree(untraced, ignore_errors=True)
            self.tracer.install()
        try:
            self._record("cold_s", self.invoke(out, "A", COLD, f"cold.{r}"))
            cold = self.hashes(out)
            for i in range(self.workload.retune_pairs):
                # One sample is the mean of a pair, so that the two configs'
                # different costs do not make the samples bimodal.
                there = self.invoke(out, "B", RETUNE, f"retune.{r}.{2 * i}")
                back = self.invoke(out, "A", RETUNE, f"retune.{r}.{2 * i + 1}")
                self._record("retune_s", None if there is None or back is None else (there + back) / 2)
            for i in range(self.workload.cached_repeats):
                self._record("cached_s", self.invoke(out, "A", CACHED, f"cached.{r}.{i}"))
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        if self.hashes(out) != cold:
            self.problems.append(f"round {r}: artifacts after the cached runs differ from the cold run's")
        if self.first_cold_hashes is None:
            self.first_cold_hashes = cold
        elif cold != self.first_cold_hashes:
            self.problems.append(f"round {r}: cold artifacts differ from round 0's on the same seed")
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
        self.out = out
        self.rounds += 1

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        last = 0.0
        while self.rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
            begun = time.perf_counter()
            self.round()
            last = time.perf_counter() - begun

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        values = {name: statistics.median(xs) for name, xs in self.samples.items() if xs}
        values["peak_rss_mb"] = peak_rss_mb
        return values


def run_checks(bench: Bench, seed: int) -> list[str]:
    """Every artifact check; returns one line per check that ran."""
    from tagrec.taxonomy import load_taxonomy

    out = bench.out
    lexicon = oracles.load_lexicon(INPUTS["lexicon"])
    bigrams = oracles.Bigrams.load(INPUTS["bigrams"])
    taxonomy = load_taxonomy(INPUTS["synsets"], INPUTS["edges"], INPUTS["counts"])
    state: dict = {}

    def matching():
        state["sims"] = oracles.Sims(out / "sims.tsv")
        profiles = oracles.read_profile_words(out / "profiles.tsv")
        return oracles.check_sims(state["sims"], profiles, taxonomy.word_similarity, seed, MATCH_SAMPLE)

    checks = {
        "segmentation": lambda: oracles.check_profiles(bench.users, out / "profiles.tsv", lexicon, bigrams),
        "matching": matching,
        "clustering": lambda: oracles.check_clusters(out / "clusters.tsv", state["sims"]),
        "recommendations": lambda: oracles.check_recommendations(
            out / "recommendations.tsv", out / "clusters.tsv", state["sims"], bench.workload.top
        ),
    }
    lines = []
    for name, check in checks.items():
        try:
            lines.append(f"check {name}: ok {check()}")
        except Exception as exc:  # every failing check is reported, not raised
            bench.problems.append(f"check {name}: {type(exc).__name__}: {exc}")
            lines.append(f"check {name}: FAILED")
    return lines


def self_test(bench: Bench) -> None:
    """The oracles' own tests on small known cases."""
    for name in sorted(n for n in dir(test_oracles) if n.startswith("test_")):
        try:
            getattr(test_oracles, name)()
        except Exception as exc:  # any failure marks the run incorrect
            bench.problems.append(f"oracle self-test {name}: {type(exc).__name__}: {exc}")


def layer_metrics(bench: Bench, tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced rounds: medians over rounds of
    the cold traces, and of the cached traces for the cache check."""
    from tagrec.artifacts import read_sims_tsv
    from tagrec.corpus import load_lexicon
    from tagrec.segmenter import enumerate_segmentations

    colds, cached = tracer.named("cold."), tracer.named("cached.")
    first = colds[0]

    def med(values):
        return statistics.median(values)

    def span_s(name):
        return med([t.seconds(name) for t in colds])

    lexicon = load_lexicon(INPUTS["lexicon"])
    truncated = sum(enumerate_segmentations(body, lexicon)[1] for body in sorted(first.bodies))
    sims = bench.out / "sims.tsv"
    gc.collect()
    tracemalloc.start()
    read_sims_tsv(sims)
    read_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    build_s = span_s("matcher.build_similarity_matrix")
    m = {
        "corpus.load_s": (med([t.seconds("corpus.load_lexicon") + t.seconds("corpus.load_bigrams") for t in colds]), "s"),
        "segmenter.segment_s": (med([t.counts["segment_s"] for t in colds]), "s"),
        "segmenter.calls": (first.counts["segment_calls"], "count"),
        "segmenter.distinct_bodies": (len(first.bodies), "count"),
        "segmenter.truncated": (truncated, "count"),
        "profiles.ingest_s": (span_s("profiles.ingest_profiles"), "s"),
        "profiles.build_s": (span_s("profiles.build_profiles"), "s"),
        "profiles.vocab": (first.counts["vocab"], "count"),
        "profiles.distinct_sets": (first.counts["distinct_sets"], "count"),
        "taxonomy.load_s": (span_s("taxonomy.load_taxonomy"), "s"),
        "taxonomy.word_sim_calls": (first.counts["word_sim_calls"], "count"),
        "matcher.build_s": (build_s, "s"),
        "matcher.pairs": (first.counts["pairs"], "count"),
        "matcher.pairs_per_s": (first.counts["pairs"] / build_s, "1/s"),
        "matcher.distinct_set_pairs": (first.counts["distinct_set_pairs"], "count"),
        "matcher.grid_cells": (first.counts["grid_cells"], "count"),
        "artifacts.write_profiles_s": (span_s("artifacts.write_profiles_tsv"), "s"),
        "artifacts.write_sims_s": (span_s("artifacts.write_sims_tsv"), "s"),
        "artifacts.read_sims_s": (med([d for t in colds for d in t.durations("artifacts.read_sims_tsv")]), "s"),
        "artifacts.read_sims_peak_mb": (read_peak / 2**20, "MB"),
        "artifacts.sims_bytes": (sims.stat().st_size, "bytes"),
        "artifacts.cache_check_s": (med([t.seconds("artifacts.stage_is_cached") for t in cached]), "s"),
        "artifacts.bytes_hashed": (cached[0].counts["bytes_hashed"], "bytes"),
        "cluster.kmedoids_s": (span_s("cluster.k_medoids"), "s"),
        "cluster.iterations": (first.counts["kmedoids_iterations"], "count"),
        "recommend.all_s": (span_s("recommend.recommend_all"), "s"),
        "recommend.targets": (first.counts["targets"], "count"),
    }
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = (med([t.stage_elapsed[stage] for t in colds]), "s")
    m["trace.overhead_s"] = (med(bench.samples["cold_s"]) - med(bench.untraced_cold), "s")
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tagrec run-all benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seeds the users file and the clustering")
    parser.add_argument("--seconds", type=float, required=True, help="how long the rounds may run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer figures from a traced run")
    parser.add_argument("--workers", type=int, default=1, help="run-all --workers (reference runs only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "tagrec" / "cli.py", *INPUTS.values()) if not p.is_file()]
    if missing:
        print(f"pipebench: not a tagrec checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    print(f"pipebench workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env {environment()}")
    RUNS.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        bench = Bench(workload, args.seed, Path(tmp), args.workers, tracer)
        self_test(bench)
        hashtags = workloads.write_users(workload, args.seed, INPUTS["lexicon"], bench.users)
        print(f"inputs users={workload.users} hashtags={hashtags}")
        bench.measure(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"rounds={bench.rounds}")
        for name, values in bench.samples.items():
            print(f"samples {name} n={len(values)} " + " ".join(f"{v:.4f}" for v in values))
        for line in run_checks(bench, args.seed):
            print(line)
        if tracer is not None:
            layers = layer_metrics(bench, tracer)
            spans_path = RUNS / f"spans-{workload.name}-seed{args.seed}.jsonl"
            print(f"spans={tracer.dump(spans_path)} -> {spans_path.relative_to(ROOT)}")
    end_to_end = bench.end_to_end(peak_rss_mb)
    if tracer is None:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in end_to_end.items()}
    else:
        for name, value in end_to_end.items():
            print(f"traced {name} = {value} {END_TO_END_UNITS[name]}")
        print(f"untraced cold_s = {statistics.median(bench.untraced_cold)} s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    for problem in bench.problems:
        print(f"PROBLEM {problem}")
    print(f"attempted={bench.attempted} failed={bench.failed}")
    result = {"correct": not bench.problems, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
