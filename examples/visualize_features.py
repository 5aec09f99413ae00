"""Feature-space visualisation (paper Fig. 6) with numpy t-SNE.

Trains GesIDNet for gesture recognition and user identification on the
same data, embeds the low-level, high-level, and fusion features with
t-SNE, and prints (a) silhouette-style cluster-quality scores and (b) an
ASCII scatter of the fusion features.  The paper's claim: fusion
features cluster more clearly than either single level, especially for
the harder user-identification task.

Run:  python examples/visualize_features.py
"""

import numpy as np

from repro import (
    GesturePrintConfig,
    GesturePrint,
    IdentificationMode,
    TrainConfig,
    build_selfcollected,
    train_test_split,
)
from repro.analysis import tsne
from repro.analysis.tsne import cluster_quality

MARKERS = "ox+#@%&$"


def ascii_scatter(embedding, labels, width=56, height=16):
    grid = [[" "] * width for _ in range(height)]
    x, y = embedding[:, 0], embedding[:, 1]
    for xi, yi, lab in zip(x, y, labels):
        col = int((xi - x.min()) / max(x.max() - x.min(), 1e-9) * (width - 1))
        row = int((yi - y.min()) / max(y.max() - y.min(), 1e-9) * (height - 1))
        grid[height - 1 - row][col] = MARKERS[int(lab) % len(MARKERS)]
    return "\n".join("".join(row) for row in grid)


def collect_features(model, inputs):
    model.eval()
    store = {"level1": [], "level2": [], "fused1": []}
    for start in range(0, inputs.shape[0], 64):
        feats = model.features(inputs[start : start + 64])
        for key in store:
            store[key].append(feats[key])
    return {k: np.vstack(v) for k, v in store.items()}


def main() -> None:
    print("Rendering dataset and training both tasks...")
    dataset = build_selfcollected(
        num_users=4, num_gestures=4, reps=10, environments=("office",),
        num_points=64, seed=21,
    )
    train, test = train_test_split(dataset.num_samples, 0.25, seed=0)
    config = GesturePrintConfig.small(
        mode=IdentificationMode.PARALLEL,
        training=TrainConfig(epochs=22, batch_size=32, learning_rate=3e-3),
        augment_copies=2,
    )
    system = GesturePrint(config).fit(
        dataset.inputs[train], dataset.gesture_labels[train], dataset.user_labels[train]
    )

    inputs = dataset.inputs[test]
    for task, model, labels in (
        ("gesture recognition", system.gesture_model, dataset.gesture_labels[test]),
        ("user identification", system.parallel_user_model, dataset.user_labels[test]),
    ):
        print(f"\n=== {task} ===")
        features = collect_features(model, inputs)
        embeddings = {}
        for level, matrix in features.items():
            embeddings[level] = tsne(matrix, iterations=200, perplexity=10.0, seed=1)
            score = cluster_quality(embeddings[level], labels)
            print(f"  {level:8s} cluster quality: {score:+.3f}")
        print("\n  fusion-feature t-SNE (one marker per class):")
        print(
            "\n".join(
                "  " + line for line in ascii_scatter(embeddings["fused1"], labels).split("\n")
            )
        )


if __name__ == "__main__":
    main()
