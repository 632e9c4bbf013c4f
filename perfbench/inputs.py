"""Seeded synthetic inputs in the file formats the convneg CLI reads.

The shape of every input is fixed by the workload (tree shape, dimension,
pair counts); the seed only draws values: word vectors, which leaves are
negated, which leaves are their alternatives, and the ratings.  Keeping the
shape fixed keeps the amount of work the same across seeds, so run-to-run
spread measures the machine and not the draw.

Words form a three-level tree under one root:

    entity -> c<i> -> c<i>s<j> -> c<i>s<j>l<k>

A word's density matrix is built from its own vector plus the vectors of
every word below it, so its rank is 1 + #hyponyms (capped by the dimension):
leaves are pure states, subcategories and categories are low-rank mixtures.
Every leaf has a hypernym path of length 3, so the `poly`
weights (which give the farthest hypernym weight 0) never vanish and no
dataset pair is skipped.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = "entity"


@dataclass(frozen=True)
class TreeShape:
    categories: int
    subcategories: int
    leaves: int


@dataclass(frozen=True)
class GridInputs:
    vectors: Path
    hierarchy: Path
    dataset: Path
    grid: Path
    shape: dict


def _tree(shape: TreeShape) -> dict[str, tuple[str, ...]]:
    """Hypernym path (nearest first) for every non-root word."""
    paths: dict[str, tuple[str, ...]] = {}
    for i in range(shape.categories):
        cat = f"c{i}"
        paths[cat] = (ROOT,)
        for j in range(shape.subcategories):
            sub = f"{cat}s{j}"
            paths[sub] = (cat, ROOT)
            for k in range(shape.leaves):
                paths[f"{sub}l{k}"] = (sub, cat, ROOT)
    return paths


def _vectors(rng: np.random.Generator, paths, dim: int) -> dict[str, np.ndarray]:
    """Each word's vector is its nearest hypernym's vector plus fresh noise."""
    out = {ROOT: rng.normal(size=dim)}
    for word, path in paths.items():  # parents precede children in _tree order
        out[word] = out[path[0]] + rng.normal(size=dim)
    return out


def _rank_histogram(paths, dim: int) -> dict[str, int]:
    hyponyms = collections.Counter(h for path in paths.values() for h in path)
    ranks = collections.Counter(min(dim, 1 + hyponyms[w]) for w in [ROOT, *paths])
    return {str(r): n for r, n in sorted(ranks.items())}


def write_vectors_and_hierarchy(out_dir: Path, seed: int, dim: int, shape: TreeShape):
    rng = np.random.default_rng([seed, dim, 1])
    paths = _tree(shape)
    vectors = _vectors(rng, paths, dim)
    vec_path = out_dir / "vectors.txt"
    hier_path = out_dir / "hierarchy.tsv"
    with open(vec_path, "w", encoding="utf-8") as fh:
        for word, v in vectors.items():
            fh.write(word + " " + " ".join(f"{x:.9g}" for x in v) + "\n")
    with open(hier_path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic hypernym paths, nearest hypernym first\n")
        for word, path in paths.items():
            fh.write(f"{word}\t{','.join(path)}\n")
    info = {
        "words": len(vectors),
        "dim": dim,
        "tree": [shape.categories, shape.subcategories, shape.leaves],
        "rank_histogram": _rank_histogram(paths, dim),
    }
    return vec_path, hier_path, paths, info


def write_grid_inputs(
    out_dir: Path,
    seed: int,
    dim: int,
    shape: TreeShape,
    negated: int,
    alternatives: int,
    grid_lines: list[str],
) -> GridInputs:
    """Vectors, hierarchy, rating dataset and grid config for one `evaluate`.

    Alternatives of a negated leaf are drawn uniformly from the other leaves;
    ratings fall with tree distance (sibling, cousin, other), plus noise.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    vec_path, hier_path, paths, info = write_vectors_and_hierarchy(out_dir, seed, dim, shape)
    rng = np.random.default_rng([seed, dim, 2])
    leaves = [w for w, p in paths.items() if len(p) == 3]
    chosen = rng.choice(len(leaves), size=negated, replace=False)
    rows = []
    for idx in sorted(chosen):
        word = leaves[idx]
        others = [w for w in leaves if w != word]
        picks = rng.choice(len(others), size=alternatives, replace=False)
        for j in sorted(picks):
            alt = others[j]
            shared = sum(a == b for a, b in zip(paths[word], paths[alt]))
            rating = float(np.clip(1.5 + 1.2 * shared + rng.normal(scale=0.6), 1.0, 5.0))
            rows.append(f"{word}\t{alt}\t{rating:.2f}")
    data_path = out_dir / "dataset.tsv"
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write("negated\talternative\tmean_rating\n")
        fh.write("\n".join(rows) + "\n")
    grid_path = out_dir / "grid.cfg"
    grid_path.write_text("\n".join(grid_lines) + "\n", encoding="utf-8")
    info.update(pairs=len(rows), negated_words=negated)
    return GridInputs(vec_path, hier_path, data_path, grid_path, info)
