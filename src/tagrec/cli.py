"""Command-line interface: one subcommand per pipeline stage plus run-all.

The parser needs only :mod:`tagrec.config`, so ``tagrec --help`` and
argument errors load no numpy.  Each command imports its stage modules
when it runs; those that use the pipeline import it as a module, so
names patched on ``tagrec.pipeline`` take effect.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import nullcontext
from dataclasses import MISSING, fields

from tagrec.config import CONFIG_TYPES, DEFAULT_FLOOR_PROB, DEFAULT_IC_CAP, PipelineConfig, load_config_file
from tagrec.errors import InputError, ResourceError, TagrecError

logger = logging.getLogger("tagrec")

def _add_corpus_flags(parser):
    parser.add_argument("--lexicon", required=True, help="word list, one word per line")
    parser.add_argument("--bigrams", required=True, help="bigram counts TSV: w1<TAB>w2<TAB>count")
    parser.add_argument(
        "--bigram-floor",
        type=float,
        default=DEFAULT_FLOOR_PROB,
        help="probability assigned to unseen bigrams (0 rejects paths through them)",
    )


def _add_taxonomy_flags(parser):
    parser.add_argument("--synsets", required=True, help="synsets TSV: id<TAB>pos<TAB>word1,word2,...")
    parser.add_argument("--edges", required=True, help="is-a edges TSV: child_id<TAB>parent_id")
    parser.add_argument("--counts", default=None, help="optional counts TSV: id<TAB>count")
    parser.add_argument("--ic-cap", type=float, default=DEFAULT_IC_CAP, help="IC value for zero-frequency synsets")


def _open_out(path):
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _cmd_segment(args) -> int:
    from tagrec.corpus import load_bigrams, load_lexicon
    from tagrec.segmenter import SegmentStatus, segment_all

    lexicon = load_lexicon(args.lexicon)
    bigrams = load_bigrams(args.bigrams, floor_prob=args.bigram_floor)
    source = open(args.infile, encoding="utf-8") if args.infile else nullcontext(sys.stdin)
    # The whole input is decoded before --out is opened, so unreadable input leaves it as it was.
    try:
        with source as lines:
            hashtags = list(filter(None, map(str.strip, lines)))
    except UnicodeDecodeError as exc:
        raise ResourceError(f"cannot read hashtags {args.infile or '<stdin>'}: {exc}") from exc
    with _open_out(args.out) as out:
        for result in segment_all(hashtags, lexicon, bigrams):
            if result.status is SegmentStatus.INVALID:
                logger.warning("rejected hashtag %r", result.hashtag.raw)
            print(f"{result.hashtag.raw}\t{result.status.value}\t{' '.join(result.tokens)}", file=out)
    return 0


def _cmd_evaluate(args) -> int:
    from tagrec.corpus import load_bigrams, load_lexicon
    from tagrec.segmenter import evaluate_segmenter, load_golden

    lexicon = load_lexicon(args.lexicon)
    bigrams = load_bigrams(args.bigrams, floor_prob=args.bigram_floor)
    golden = load_golden(args.golden)
    report = evaluate_segmenter(golden, lexicon, bigrams)
    print(f"success rate: {report.success_rate:.4f} ({report.correct}/{report.total})")
    with _open_out(args.out) as out:
        for f in report.failures:
            flag = "lexicon-miss" if f.lexicon_miss else "bigram"
            print(f"FAIL\t{f.hashtag}\t{' '.join(f.expected)}\t{' '.join(f.produced)}\t{flag}", file=out)
    return 0


def _cmd_profiles(args) -> int:
    from tagrec import pipeline

    pipeline.compute_profiles(args.infile, args.lexicon, args.bigrams, args.bigram_floor, args.out)
    return 0


def _cmd_simmatrix(args) -> int:
    from tagrec import pipeline

    pipeline.compute_simmatrix(
        args.profiles, args.synsets, args.edges, args.counts, args.ic_cap, args.workers, args.out
    )
    return 0


def _cmd_cluster(args) -> int:
    from tagrec import pipeline

    pipeline.compute_cluster(args.sims, args.k, args.seed, args.max_iter, args.out)
    return 0


def _cmd_cluster_stats(args) -> int:
    from tagrec.artifacts import read_clusters_tsv
    from tagrec.cluster import cluster_histogram

    clustering = read_clusters_tsv(args.clusters)
    with _open_out(args.out) as out:
        for index, size in cluster_histogram(clustering):
            print(f"{index}\t{size}", file=out)
    return 0


def _cmd_recommend(args) -> int:
    from tagrec import pipeline
    from tagrec.artifacts import recommendation_lines, write_recommendations_tsv
    from tagrec.recommend import recommend, recommend_all

    if not args.all and args.target is None:
        raise InputError("recommend needs --target or --all")
    matrix, clustering = pipeline.read_ranking_inputs(args.sims, args.clusters)
    if args.all:
        recs = recommend_all(clustering, matrix, args.top)
    else:
        recs = [recommend(args.target, clustering, matrix, args.top)]
    if args.out:
        write_recommendations_tsv(args.out, recs)
    else:
        sys.stdout.writelines(recommendation_lines(recs))
    return 0


def _cmd_run_all(args) -> int:
    from tagrec import pipeline

    values = load_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in CONFIG_TYPES if getattr(args, key) is not None)
    for f in fields(PipelineConfig):
        if f.default is MISSING and f.name not in values:
            raise InputError(f"run-all needs --{f.name.replace('_', '-')} (flag or config file)")
    cfg = PipelineConfig(**values, force=args.force)
    for report in pipeline.run_all(cfg):
        print(report.line())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tagrec", description="Hashtag-based friend recommendation pipeline.")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment hashtags read one per line")
    _add_corpus_flags(p)
    p.add_argument("--in", dest="infile", default=None, help="input file (default: stdin)")
    p.add_argument("--out", default=None, help="output TSV (default: stdout)")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("evaluate", help="score the segmenter against a golden TSV")
    _add_corpus_flags(p)
    p.add_argument("--golden", required=True, help="golden TSV: hashtag<TAB>expected tokens")
    p.add_argument("--out", default=None, help="failure report TSV (default: stdout)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("profiles", help="build word profiles from a users TSV")
    _add_corpus_flags(p)
    p.add_argument("--in", dest="infile", required=True, help="users TSV: id<TAB>tag1,tag2,...")
    p.add_argument("--out", required=True, help="profiles TSV output")
    p.set_defaults(func=_cmd_profiles)

    p = sub.add_parser("simmatrix", help="compute the pairwise profile similarity matrix")
    p.add_argument("--profiles", required=True, help="profiles TSV from the profiles stage")
    _add_taxonomy_flags(p)
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="similarity TSV output")
    p.set_defaults(func=_cmd_simmatrix)

    p = sub.add_parser("cluster", help="k-medoids clustering of the similarity matrix")
    p.add_argument("--sims", required=True, help="similarity TSV from the simmatrix stage")
    p.add_argument("--k", type=int, default=PipelineConfig.k, help="number of clusters")
    p.add_argument("--seed", type=int, default=PipelineConfig.seed, help="random seed for medoid initialization")
    p.add_argument("--max-iter", type=int, default=PipelineConfig.max_iter, help="iteration cap")
    p.add_argument("--out", required=True, help="clusters TSV output")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("cluster-stats", help="cluster size histogram")
    p.add_argument("--clusters", required=True, help="clusters TSV from the cluster stage")
    p.add_argument("--out", default=None, help="histogram TSV (default: stdout)")
    p.set_defaults(func=_cmd_cluster_stats)

    p = sub.add_parser("recommend", help="rank the most similar profiles within a cluster")
    p.add_argument("--clusters", required=True)
    p.add_argument("--sims", required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--target", default=None, help="profile id to recommend for")
    which.add_argument("--all", action="store_true", help="batch mode over every profile")
    p.add_argument("--top", type=int, required=True, help="number of recommendations per profile")
    p.add_argument("--out", default=None, help="output TSV (default: stdout)")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("run-all", help="run the full pipeline with cached stages")
    p.add_argument("--config", default=None, help="key = value config file; flags win")
    for key, cast in CONFIG_TYPES.items():
        p.add_argument("--" + key.replace("_", "-"), type=cast, default=None)
    p.add_argument("--force", action="store_true", help="recompute even when cached")
    p.set_defaults(func=_cmd_run_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (TagrecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
