"""Synthetic desk-scale caption dataset for tests and acceptance runs.

Every image is a templated two-object scene: the first caption reads
"a <color> <object> <relation> a <color> <object>", the second is a
shorter paraphrase, and the triplets reuse only caption words, so
triplet-word coverage is 100% by construction. Spatial features are
noisy one-hot rows keyed to the caption's content words, which makes
the captions learnable from the features alone.
"""

import json
from pathlib import Path

import numpy as np

from .features import WORD_VECTOR_DIM, write_sgaf
from .ioutil import atomic_write_text

COLORS = (
    "red", "blue", "green", "black", "white", "yellow",
    "purple", "orange", "pink", "gray", "brown", "teal",
)
OBJECTS = (
    "cat", "dog", "ball", "box", "car", "tree", "bird", "cube",
    "chair", "table", "lamp", "book", "cup", "horse", "boat", "plane",
)
RELATIONS = (
    "on", "under", "near", "behind", "beside",
    "above", "below", "inside", "against", "atop",
)

MIN_IMAGES = 3  # one train, one val and one test image
MIN_VOCAB = 10
DEFAULT_SPATIAL_DIM = 64
DEFAULT_NOISE = 0.05


def _clamp(x, lo, hi):
    return max(lo, min(hi, x))


def word_lists(vocab_size: int) -> tuple[list[str], list[str], list[str]]:
    """Color/object/relation slices sized to roughly vocab_size words."""
    if vocab_size < MIN_VOCAB:
        raise ValueError(f"vocab_size must be >= {MIN_VOCAB}, got {vocab_size}")
    usable = vocab_size - 1  # "a" is always present
    n_rel = _clamp(usable // 4, 2, len(RELATIONS))
    remaining = usable - n_rel
    n_col = _clamp(remaining // 2, 2, len(COLORS))
    n_obj = _clamp(remaining - n_col, 2, len(OBJECTS))
    return list(COLORS[:n_col]), list(OBJECTS[:n_obj]), list(RELATIONS[:n_rel])


def split_sizes(n_images: int) -> dict[str, int]:
    """Small equal val/test slices, the bulk as train."""
    n_val = max(1, n_images // 10)
    return {"train": n_images - 2 * n_val, "val": n_val, "test": n_val}


def make_toy_data(
    n_images: int,
    vocab_size: int,
    seed: int,
    out_dir,
    *,
    spatial_dim: int = DEFAULT_SPATIAL_DIM,
    noise: float = DEFAULT_NOISE,
) -> dict:
    """Write dataset.jsonl, per-image feature files, and wordvecs.txt.

    Each image draws from an independent rng stream seeded by
    (seed, index), so regenerating with a larger n_images leaves the
    existing images byte-identical.
    """
    if n_images < MIN_IMAGES:
        raise ValueError(f"n_images must be >= {MIN_IMAGES}, got {n_images}")
    colors, objects, relations = word_lists(vocab_size)
    all_words = ["a"] + colors + objects + relations
    if spatial_dim < len(all_words):
        raise ValueError(
            f"spatial_dim {spatial_dim} cannot one-hot {len(all_words)} words"
        )
    word_index = {w: k for k, w in enumerate(all_words)}

    out_dir = Path(out_dir)
    feature_dir = out_dir / "features"
    feature_dir.mkdir(parents=True, exist_ok=True)

    sizes = split_sizes(n_images)
    split_of = (["train"] * sizes["train"] + ["val"] * sizes["val"]
                + ["test"] * sizes["test"])

    lines = []
    for i in range(n_images):
        rng = np.random.default_rng([seed, i])
        c1, c2 = (colors[j] for j in rng.choice(len(colors), size=2, replace=False))
        o1, o2 = (objects[j] for j in rng.choice(len(objects), size=2, replace=False))
        rel = relations[rng.choice(len(relations))]
        captions = [
            f"a {c1} {o1} {rel} a {c2} {o2}",
            f"a {o1} {rel} a {o2}",
        ]
        triplets = [
            {"s": o1, "p": rel, "o": o2, "score": round(0.5 + 0.5 * rng.random(), 6)}
        ]
        if rng.random() < 0.5:
            triplets.append(
                {"s": o2, "p": rel, "o": o1, "score": round(0.1 + 0.3 * rng.random(), 6)}
            )
        content = [c1, o1, rel, c2, o2]
        spatial = rng.normal(0.0, noise, size=(len(content), spatial_dim))
        for row, w in enumerate(content):
            spatial[row, word_index[w]] += 2.0
        image_id = f"img_{i:05d}"
        write_sgaf(feature_dir / f"{image_id}.sgaf", spatial)
        lines.append(json.dumps({
            "id": image_id,
            "split": split_of[i],
            "captions": captions,
            "triplets": triplets,
            "feature_file": f"features/{image_id}.sgaf",
        }, sort_keys=True))
    atomic_write_text(out_dir / "dataset.jsonl", "".join(s + "\n" for s in lines))

    vec_lines = []
    for k, w in enumerate(all_words):
        vrng = np.random.default_rng([seed, 10_000_000 + k])
        vec = vrng.normal(0.0, 0.3, size=WORD_VECTOR_DIM)
        vec_lines.append(w + " " + " ".join(f"{x:.8g}" for x in vec))
    atomic_write_text(out_dir / "wordvecs.txt", "".join(s + "\n" for s in vec_lines))

    return {
        "dataset": str(out_dir / "dataset.jsonl"),
        "wordvecs": str(out_dir / "wordvecs.txt"),
        "feature_dir": str(feature_dir),
        "n_images": n_images,
        "splits": sizes,
        "distinct_words": len(all_words),
        "spatial_dim": spatial_dim,
    }
