"""Synthetic two-domain datasets, seeded batching, and IDX digit ingestion.

The generators are pure functions of their arguments (the seed included):
calling them twice yields identical arrays. Target labels are carried for
evaluation only; training code never reads them.
"""

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from clusteralign.network import ShapeError, as_matrix
from clusteralign.seeding import derive_seed, seeded_rng


class FormatError(ValueError):
    """A binary input file did not match its declared format."""


def _max_coordinate(dim):
    """The largest coordinate magnitude m at which 4 dim m^2, the largest
    squared distance between two points of dim such coordinates, is finite."""
    return math.sqrt(np.finfo(np.float64).max / (4 * max(dim, 1)))


@dataclass(frozen=True)
class DomainDataset:
    """A labeled source sample set plus an unlabeled target sample set.

    target_y_hidden exists solely so evaluation can score target accuracy;
    it must never feed the training path. The dataset keeps the arrays it
    checked: each domain a finite float64 matrix, both of one width, and
    its labels an int64 vector with one entry in [0, num_classes) per row.
    """

    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_y_hidden: np.ndarray
    num_classes: int

    def __post_init__(self):
        for x_name, y_name in (("source_x", "source_y"), ("target_x", "target_y_hidden")):
            x, y = as_matrix(getattr(self, x_name), x_name), np.asarray(getattr(self, y_name))
            if y.ndim != 1 or not np.issubdtype(y.dtype, np.integer) or len(y) != len(x):
                raise ValueError(f"{y_name} must hold one integer label per row of {x_name} "
                                 f"({len(x)} rows); got {y.dtype} of shape {y.shape}")
            if y.size and (y.min() < 0 or y.max() >= self.num_classes):
                raise ValueError(f"{y_name} must lie in [0, {self.num_classes})")
            object.__setattr__(self, x_name, x)
            object.__setattr__(self, y_name, y.astype(np.int64, copy=False))
        if self.target_x.shape[1] != self.source_x.shape[1]:
            raise ShapeError(f"target_x has {self.target_x.shape[1]} columns, source_x "
                             f"{self.source_x.shape[1]}: both domains must share their width")
        # min and max, not np.unique: without counts, np.unique asks
        # np.ma.is_masked, which imports numpy.ma (1.2 MiB) into the process.
        if self.source_y.size == 0 or self.source_y.min() == self.source_y.max():
            raise ValueError("source labels must cover at least 2 classes")
        # The clustering kernels and the k-means probe need every squared
        # distance between two points finite.
        largest = max(float(max(x.max(initial=0.0), -x.min(initial=0.0)))
                      for x in (self.source_x, self.target_x))
        limit = _max_coordinate(self.source_x.shape[1])
        if largest > limit:
            raise ValueError(f"coordinates reach {largest:.3g}, past {limit:.3g}, "
                             f"where squared distances overflow")


@dataclass(frozen=True)
class BatchPair:
    """One training step's rows of both domains: x holds them on a leading
    domain axis, source first, so both domains' batches share one shape;
    source_y labels the source rows and target_indices are the target
    rows' positions in their domain (the temporal teacher's keys)."""

    x: np.ndarray
    source_y: np.ndarray
    target_indices: np.ndarray


def _check_scale(name, value):
    """Refuse a spread, radius or mean coordinate past the coordinates
    DomainDataset accepts, before sampling with it can overflow."""
    if abs(value) > _max_coordinate(2):
        raise ValueError(f"{name} must be at most {_max_coordinate(2):.3g} in magnitude")


def _two_points(name, points):
    try:
        points = np.asarray(points, dtype=np.float64)
    except ValueError:
        # A ragged list, such as [[1], [1, 2]].
        points = None
    if points is None or points.shape != (2, 2):
        raise ValueError(f"{name} must be two 2-D points")
    _check_scale(name, np.abs(points).max())
    return points


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
    _check_scale("sigma", sigma)
    source_means, target_means = (_two_points(name, means) for name, means in (
        ("source_means", source_means), ("target_means", target_means)))

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
    # float() first: numpy holds an int past int64 as an object, which
    # np.deg2rad refuses; an int64 rounds to the same float.
    rad = np.deg2rad(float(degrees))
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
    for name, value in (("sigma", sigma), ("ring_radius", ring_radius),
                        ("extra_radius", extra_radius)):
        _check_scale(name, value)

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
            norm = np.linalg.norm(mode_centers[0])
            if norm == 0.0:
                raise ValueError(f"ring_radius must lie far enough from 0 to give the extra "
                                 f"modes a direction; got {ring_radius!r}")
            mode_centers.append(mode_centers[0] / norm * extra_radius)
        tgt_blocks.append(sample_class(mode_centers, n_per_mode))
        tgt_labels.append(np.full(len(mode_centers) * n_per_mode, k, np.int64))

    return DomainDataset(
        np.vstack(src_blocks),
        np.concatenate(src_labels),
        np.vstack(tgt_blocks),
        np.concatenate(tgt_labels),
        num_classes,
    )


def batch_indices(n_src: int, n_tgt: int, batch: int, seed: int, epoch: int):
    """The sample indices of one epoch's batch pairs over domains of n_src
    and n_tgt samples: (source indices, target indices), int64 arrays of
    shape (batches, batch).

    Both domains are reshuffled per epoch from a seed derived from
    (seed, epoch); partial final batches are dropped. When the domains
    yield different batch counts, the epoch covers the longer stream and
    the shorter one cycles through its own permutation again.
    """
    if not 1 <= batch <= min(n_src, n_tgt):
        raise ValueError("batch must lie in [1, min(len(source), len(target))]")
    batches = np.arange(max(n_src, n_tgt) // batch)[:, None]
    return tuple(
        seeded_rng(seed, epoch, domain).permutation(n)[(batches % (n // batch)) * batch
                                                       + np.arange(batch)]
        for domain, n in enumerate((n_src, n_tgt)))


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

    Both domains must share the image size (DomainDataset refuses two
    widths); the class count covers the labels of either domain.
    """
    src_x, src_y = load_idx(source_images, source_labels, source_subsample,
                            derive_seed(seed, 0))
    tgt_x, tgt_y = load_idx(target_images, target_labels, target_subsample,
                            derive_seed(seed, 1))
    num_classes = int(max(src_y.max(), tgt_y.max())) + 1
    return DomainDataset(src_x, src_y, tgt_x, tgt_y, num_classes)


def write_csv(path, header, rows) -> None:
    """Write the header's names, then each row, as lines of values joined
    by commas with str: a Python float in its shortest round-trip form
    (its repr). Rows hold Python scalars, as `.tolist()` gives them."""
    with open(path, "w") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in itertools.chain([header], rows))


def dump_dataset_csv(ds: DomainDataset, path):
    """Write both domains as rows of `domain,class,x0,x1,...`."""
    header = ["domain", "class", *(f"x{i}" for i in range(ds.source_x.shape[1]))]
    write_csv(path, header, (
        [domain, y, *x]
        for domain, xs, ys in (("source", ds.source_x, ds.source_y),
                               ("target", ds.target_x, ds.target_y_hidden))
        for x, y in zip(xs.tolist(), ys.tolist())
    ))
