import json
import struct

import numpy as np
import pytest

from clusteralign.cli import main
from clusteralign.seeding import seeded_rng


def make_digit_idx(tmp_path, prefix, shift, count=60, side=4, seed=0):
    """Tiny fake digit pair: two blurry class templates, domain-shifted."""
    rng = seeded_rng(seed)
    templates = np.zeros((2, side, side))
    templates[0, :, : side // 2] = 200.0
    templates[1, :, side // 2:] = 200.0
    labels = rng.integers(2, size=count)
    images = templates[labels] + rng.normal(0.0, 20.0, size=(count, side, side)) + shift
    images = np.clip(images, 0, 255).astype(np.uint8)

    images_path = tmp_path / f"{prefix}-images.idx"
    labels_path = tmp_path / f"{prefix}-labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, count, side, side))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, count))
        fh.write(labels.astype(np.uint8).tobytes())
    return str(images_path), str(labels_path)


def test_idx_digits_scenario_end_to_end(tmp_path):
    src_images, src_labels = make_digit_idx(tmp_path, "src", shift=0.0, seed=1)
    tgt_images, tgt_labels = make_digit_idx(tmp_path, "tgt", shift=25.0, seed=2)
    config = {
        "scenario": "idx_digits",
        "seeds": [0],
        "eval_every": 20,
        "dataset": {
            "source_images": src_images, "source_labels": src_labels,
            "target_images": tgt_images, "target_labels": tgt_labels,
            "source_subsample": 50, "target_subsample": 50,
        },
        "train": {
            "total_iters": 40, "pretrain_iters": 10,
            "batch_source": 16, "batch_target": 16,
            "hidden_layers": [8], "critic_hidden": 8,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"

    assert main(["run", str(path), "--output-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["scenario"] == "idx_digits"
    features_header = (out_dir / "features_0.csv").read_text().split("\n", 1)[0]
    assert features_header == "domain,true_class,pseudo_class,confidence,f0,f1"


def test_idx_digits_dim_mismatch_fails_cleanly(tmp_path, capsys):
    src_images, src_labels = make_digit_idx(tmp_path, "src", shift=0.0, side=4)
    tgt_images, tgt_labels = make_digit_idx(tmp_path, "tgt", shift=0.0, side=6)
    config = {
        "scenario": "idx_digits",
        "seeds": [0],
        "dataset": {
            "source_images": src_images, "source_labels": src_labels,
            "target_images": tgt_images, "target_labels": tgt_labels,
            "source_subsample": 50, "target_subsample": 50,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert "target_x has 36 columns, source_x 16" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("broken", ["missing", "truncated"])
def test_idx_digits_unreadable_file_exits_2(tmp_path, capsys, broken):
    src_images, src_labels = make_digit_idx(tmp_path, "src", shift=0.0)
    tgt_images, tgt_labels = make_digit_idx(tmp_path, "tgt", shift=25.0)
    if broken == "missing":
        tgt_labels += ".missing"
    else:
        with open(tgt_labels, "r+b") as fh:
            fh.truncate(6)
    config = {
        "scenario": "idx_digits",
        "seeds": [0],
        "dataset": {
            "source_images": src_images, "source_labels": src_labels,
            "target_images": tgt_images, "target_labels": tgt_labels,
            "source_subsample": 50, "target_subsample": 50,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 2
    assert tgt_labels in capsys.readouterr().err
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert tgt_labels in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
