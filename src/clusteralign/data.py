"""Synthetic two-domain datasets, seeded batching, and IDX digit ingestion.

The generators are pure functions of their arguments (the seed included):
calling them twice yields identical arrays. Target labels are carried for
evaluation only; training code never reads them.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from clusteralign.network import as_matrix
from clusteralign.seeding import derive_seed, seeded_rng


class FormatError(ValueError):
    """A binary input file did not match its declared format."""


@dataclass(frozen=True)
class DomainDataset:
    """A labeled source sample set plus an unlabeled target sample set.

    target_y_hidden exists solely so evaluation can score target accuracy;
    it must never feed the training path.
    """

    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_y_hidden: np.ndarray
    num_classes: int

    def __post_init__(self):
        as_matrix(self.source_x, "source_x")
        as_matrix(self.target_x, "target_x")
        if len(np.unique(self.source_y)) < 2:
            raise ValueError("source labels must cover at least 2 classes")


@dataclass(frozen=True)
class BatchPair:
    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_indices: np.ndarray


def make_imbalanced_gaussians(
    n_major: int = 1000,
    n_minor: int = 100,
    source_means=((-2.0, 0.0), (2.0, 0.0)),
    target_means=((-2.0, 2.0), (2.0, 2.0)),
    sigma: float = 0.35,
    seed: int = 0,
) -> DomainDataset:
    """Two-class isotropic Gaussians with opposite class imbalance.

    The source holds n_major samples of class 0 and n_minor of class 1;
    the target flips the ratio (n_minor of class 0, n_major of class 1).
    With the default means each target cluster sits nearest the
    same-class source cluster, so matching the marginals mass-for-mass
    must drag the large target cluster onto the wrong class.
    """
    for name, count in (("n_major", n_major), ("n_minor", n_minor)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    source_means = np.asarray(source_means, dtype=np.float64)
    target_means = np.asarray(target_means, dtype=np.float64)
    for name, means in (("source_means", source_means), ("target_means", target_means)):
        if means.shape != (2, 2):
            raise ValueError(f"{name} must be two 2-D points")

    rng = seeded_rng(seed)
    dim = source_means.shape[1]

    def blob(mean, count):
        return mean + sigma * rng.standard_normal((count, dim))

    source_x = np.vstack([blob(source_means[0], n_major), blob(source_means[1], n_minor)])
    source_y = np.concatenate([np.zeros(n_major, np.int64), np.ones(n_minor, np.int64)])
    target_x = np.vstack([blob(target_means[0], n_minor), blob(target_means[1], n_major)])
    target_y = np.concatenate([np.zeros(n_minor, np.int64), np.ones(n_major, np.int64)])
    return DomainDataset(source_x, source_y, target_x, target_y, 2)


def _ring_modes(modes_per_class, num_classes, radius):
    """Interleaved per-class mode centers on a circle."""
    total = modes_per_class * num_classes
    centers = np.zeros((num_classes, modes_per_class, 2))
    for j in range(modes_per_class):
        for k in range(num_classes):
            ang = 2.0 * np.pi * (j * num_classes + k) / total
            centers[k, j] = (radius * np.cos(ang), radius * np.sin(ang))
    return centers


def _rotate(points, degrees):
    rad = np.deg2rad(degrees)
    rot = np.array([[np.cos(rad), -np.sin(rad)], [np.sin(rad), np.cos(rad)]])
    return points @ rot.T


def make_multimode_domains(
    modes_per_class: int = 2,
    rotation_deg: float = 36.0,
    n_per_mode: int = 100,
    sigma: float = 0.30,
    seed: int = 0,
    extra_mode: bool = True,
    ring_radius: float = 3.0,
    extra_radius: float = 6.5,
) -> DomainDataset:
    """Two classes spread over several spatial modes per class.

    Source modes interleave classes on a ring. Target modes are the
    source modes rotated about the origin, plus (by default) one extra
    displaced mode per class with no source counterpart, which makes the
    two marginals geometrically dissimilar.
    """
    if modes_per_class < 2:
        raise ValueError("modes_per_class must be at least 2")
    if n_per_mode < 1:
        raise ValueError("n_per_mode must be at least 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    num_classes = 2
    rng = seeded_rng(seed)
    centers = _ring_modes(modes_per_class, num_classes, ring_radius)

    def sample_class(mode_centers, count_per_mode):
        pts = [c + sigma * rng.standard_normal((count_per_mode, 2)) for c in mode_centers]
        return np.vstack(pts)

    src_blocks, src_labels = [], []
    for k in range(num_classes):
        src_blocks.append(sample_class(centers[k], n_per_mode))
        src_labels.append(np.full(modes_per_class * n_per_mode, k, np.int64))

    tgt_blocks, tgt_labels = [], []
    for k in range(num_classes):
        mode_centers = list(_rotate(centers[k], rotation_deg))
        if extra_mode:
            direction = mode_centers[0] / np.linalg.norm(mode_centers[0])
            mode_centers.append(direction * extra_radius)
        tgt_blocks.append(sample_class(mode_centers, n_per_mode))
        tgt_labels.append(np.full(len(mode_centers) * n_per_mode, k, np.int64))

    return DomainDataset(
        np.vstack(src_blocks),
        np.concatenate(src_labels),
        np.vstack(tgt_blocks),
        np.concatenate(tgt_labels),
        num_classes,
    )


def iterate_batches(ds: DomainDataset, batch_source: int, batch_target: int,
                    seed: int, epoch: int):
    """Batch pairs for one epoch.

    Both domains are reshuffled per epoch from a seed derived from
    (seed, epoch); partial final batches are dropped. When the domains
    yield different batch counts, the epoch covers the longer stream and
    the shorter one cycles through its own permutation again.
    """
    n_src = ds.source_x.shape[0]
    n_tgt = ds.target_x.shape[0]
    if not 1 <= batch_source <= n_src:
        raise ValueError("batch_source must lie in [1, len(source)]")
    if not 1 <= batch_target <= n_tgt:
        raise ValueError("batch_target must lie in [1, len(target)]")

    src_perm = seeded_rng(seed, epoch, 0).permutation(n_src)
    tgt_perm = seeded_rng(seed, epoch, 1).permutation(n_tgt)
    src_batches = n_src // batch_source
    tgt_batches = n_tgt // batch_target

    pairs = []
    for i in range(max(src_batches, tgt_batches)):
        si = (i % src_batches) * batch_source
        ti = (i % tgt_batches) * batch_target
        src_idx = src_perm[si:si + batch_source]
        tgt_idx = tgt_perm[ti:ti + batch_target]
        pairs.append(
            BatchPair(
                ds.source_x[src_idx],
                ds.source_y[src_idx],
                ds.target_x[tgt_idx],
                tgt_idx.astype(np.int64),
            )
        )
    return pairs


# IDX files are big-endian:
#   images: int32 magic 0x00000803, int32 count, int32 rows, int32 cols, uint8 pixels
#   labels: int32 magic 0x00000801, int32 count, uint8 labels
_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_be32(blob, offset, path):
    if offset + 4 > len(blob):
        raise FormatError(f"{path}: truncated at byte {len(blob)}, needed 4 bytes at offset {offset}")
    return struct.unpack_from(">i", blob, offset)[0]


def _read_idx(path, magic, kind, dims):
    """The header sizes and the flat uint8 payload of one IDX file.

    The header is the magic followed by `dims` sizes; the payload holds
    their product of bytes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    found = _read_be32(blob, 0, path)
    if found != magic:
        raise FormatError(f"{path}: bad {kind} magic 0x{found:08x} at byte 0")
    sizes = tuple(_read_be32(blob, 4 * i, path) for i in range(1, dims + 1))
    offset = 4 * (dims + 1)
    need = offset + math.prod(sizes)
    if len(blob) < need:
        raise FormatError(f"{path}: truncated at byte {len(blob)}, expected {need}")
    return sizes, np.frombuffer(blob, dtype=np.uint8, count=need - offset, offset=offset)


def load_idx(images_path, labels_path, subsample: int, seed: int):
    """Load an IDX image/label pair, scaled to [0,1] and flattened row-major.

    subsample rows are drawn without replacement; passing the full size
    returns a seeded permutation of everything.
    """
    (count, rows, cols), pixels = _read_idx(images_path, _IDX_IMAGE_MAGIC, "image", 3)
    images = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    _, labels = _read_idx(labels_path, _IDX_LABEL_MAGIC, "label", 1)
    labels = labels.astype(np.int64)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels"
        )
    if not 1 <= subsample <= images.shape[0]:
        raise ValueError(f"subsample {subsample} must lie in [1, {images.shape[0]}], "
                         f"the image count of {images_path}")
    picked = seeded_rng(seed).choice(images.shape[0], size=subsample, replace=False)
    return images[picked], labels[picked]


def load_idx_domains(source_images, source_labels, target_images, target_labels,
                     source_subsample: int = 2000, target_subsample: int = 1800,
                     seed: int = 0) -> DomainDataset:
    """Source and target domains from two IDX image/label pairs.

    Both domains must share the image size; the class count covers the
    labels of either domain.
    """
    src_x, src_y = load_idx(source_images, source_labels, source_subsample,
                            derive_seed(seed, 0))
    tgt_x, tgt_y = load_idx(target_images, target_labels, target_subsample,
                            derive_seed(seed, 1))
    if src_x.shape[1] != tgt_x.shape[1]:
        raise ValueError(
            f"image dims differ between domains "
            f"({src_x.shape[1]} vs {tgt_x.shape[1]}); re-encode to a shared size"
        )
    num_classes = int(max(src_y.max(), tgt_y.max())) + 1
    return DomainDataset(src_x, src_y, tgt_x, tgt_y, num_classes)


def dump_dataset_csv(ds: DomainDataset, path):
    """Write both domains as rows of `domain,class,x0,x1,...`."""
    dim = ds.source_x.shape[1]
    header = "domain,class," + ",".join(f"x{i}" for i in range(dim))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for x, y in zip(ds.source_x, ds.source_y):
            fh.write("source," + str(int(y)) + "," + ",".join(repr(float(v)) for v in x) + "\n")
        for x, y in zip(ds.target_x, ds.target_y_hidden):
            fh.write("target," + str(int(y)) + "," + ",".join(repr(float(v)) for v in x) + "\n")
