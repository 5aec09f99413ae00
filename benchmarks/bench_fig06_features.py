"""Fig. 6: t-SNE structure of GesIDNet's extracted features.

Paper: for gesture recognition the fusion features form clearer clusters
than either single-level feature; for user identification the low/high
level features cluster poorly but the fusion features form clear
per-user clusters.

Quantified here with a silhouette-style cluster-quality score on t-SNE
embeddings.  Shape: fusion features score at least as well as the best
single-level features on both tasks (small slack for t-SNE noise).
"""

import numpy as np
import pytest

from benchmarks.common import (
    cached_selfcollected,
    emit,
    emit_figure,
    fit_and_evaluate,
    format_row,
)
from repro.analysis import tsne
from repro.analysis.tsne import cluster_quality
from repro.core import IdentificationMode
from repro.viz import scatter_chart


def _collect_features(model, inputs):
    model.eval()
    feature_store = {"level1": [], "level2": [], "fused1": []}
    for start in range(0, inputs.shape[0], 64):
        feats = model.features(inputs[start : start + 64])
        for key in feature_store:
            feature_store[key].append(feats[key])
    return {k: np.vstack(v) for k, v in feature_store.items()}


def _experiment():
    dataset = cached_selfcollected(environments=("office",))
    system, _, (train, test) = fit_and_evaluate(dataset, mode=IdentificationMode.PARALLEL)
    inputs = dataset.inputs[test]
    rows = {}
    tasks = [
        ("gesture", system.gesture_model, dataset.gesture_labels[test]),
        ("user", system.parallel_user_model, dataset.user_labels[test]),
    ]
    embeddings = {}
    for task, model, labels in tasks:
        features = _collect_features(model, inputs)
        scores = {}
        for level, matrix in features.items():
            embedding = tsne(matrix, iterations=200, perplexity=12.0, seed=1)
            scores[level] = cluster_quality(embedding, labels)
            if level == "fused1":
                embeddings[task] = (embedding, labels)
        rows[task] = scores
    return rows, embeddings


@pytest.mark.benchmark(group="fig06")
def test_fig06_feature_structure(benchmark):
    rows, embeddings = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    widths = (10, 12, 12, 12)
    lines = [
        "Fig. 6 — t-SNE cluster quality of extracted features (higher = clearer clusters)",
        "(paper: fusion features form the clearest clusters for both tasks)",
        format_row(("task", "low-level", "high-level", "fusion"), widths),
    ]
    for task, scores in rows.items():
        lines.append(
            format_row(
                (
                    task,
                    f"{scores['level1']:.3f}",
                    f"{scores['level2']:.3f}",
                    f"{scores['fused1']:.3f}",
                ),
                widths,
            )
        )
    emit("fig06_features", lines)
    for task, (embedding, labels) in embeddings.items():
        emit_figure(
            f"fig06_tsne_{task}",
            scatter_chart(
                embedding,
                labels,
                title=f"Fig. 6 — t-SNE of fusion features ({task} labels)",
            ),
        )

    for task, scores in rows.items():
        best_single = max(scores["level1"], scores["level2"])
        assert scores["fused1"] >= best_single - 0.15, task
        assert scores["fused1"] > 0.0, task
