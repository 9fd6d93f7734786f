"""Friend recommendation from hashtag semantics.

The pipeline: segment each user's hashtags into dictionary words, compare
the resulting word profiles with a taxonomy-backed similarity measure,
cluster the pairwise similarity matrix with k-medoids, and recommend the
closest profiles inside each user's cluster.
"""

from tagrec.cluster import Clustering, cluster_histogram, k_medoids
from tagrec.corpus import BigramModel, Lexicon, load_bigrams, load_lexicon
from tagrec.matcher import SimilarityMatrix, build_similarity_matrix, profile_similarity
from tagrec.pipeline import PipelineConfig, run_all
from tagrec.profiles import Profile, build_profile, build_profiles, ingest_profiles
from tagrec.recommend import Recommendation, recommend, recommend_all
from tagrec.segmenter import (
    Hashtag,
    SegmentResult,
    SegmentStatus,
    enumerate_segmentations,
    evaluate_segmenter,
    score_segmentation,
    segment,
    segment_all,
)
from tagrec.taxonomy import Taxonomy, load_taxonomy

__version__ = "0.1.0"

__all__ = [
    "BigramModel",
    "Clustering",
    "Hashtag",
    "Lexicon",
    "PipelineConfig",
    "Profile",
    "Recommendation",
    "SegmentResult",
    "SegmentStatus",
    "SimilarityMatrix",
    "Taxonomy",
    "build_profile",
    "build_profiles",
    "build_similarity_matrix",
    "cluster_histogram",
    "enumerate_segmentations",
    "evaluate_segmenter",
    "ingest_profiles",
    "k_medoids",
    "load_bigrams",
    "load_lexicon",
    "load_taxonomy",
    "profile_similarity",
    "recommend",
    "recommend_all",
    "run_all",
    "score_segmentation",
    "segment",
    "segment_all",
]
