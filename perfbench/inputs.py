"""Inputs of the ``diagnose-16k`` workload, made with numpy alone.

The dump is written in the binary format documented in the README (magic
``DGDX``, version byte 1, u32 header length, JSON header, packed records
``u32 domain, u8 split, u32 label, dim x f4``, all little-endian) without
calling the program's ``save_dump``, and the head is a nearest-class-mean
linear head, not a fitted probe.  Parent and change therefore diagnose the
same bytes, which the recorded sha256 digests show.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

ROLES = ("train",) * 5 + ("valid",) + ("test",) * 2
NUM_CLASSES = 5
DIM = 64
ROWS_PER_CELL = 400  # 8 domains x 5 classes x 400 = 16,000 rows
FIT_ROWS_PER_CELL = 320  # 80/20 fit/holdout split
CLASS_SEPARATION = 1.5  # class means ~3 noise units apart: classes overlap
DOMAIN_SHIFT = 0.5
TEST_SHIFT_FACTOR = 3.0
# Per-dimension scales spanning 40x make the probe fits ill-conditioned the
# way real representations are (about 300 L-BFGS-B iterations per fit, far
# below the 1000-iteration cap).  The seed only permutes them, so the
# conditioning, and with it the work per fit, is the same for every seed.
SCALES = np.geomspace(0.15, 6.0, DIM)


def make_dump(seed):
    """Return ``(header, domain_ids, splits, labels, z)`` for a seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 16000]))
    means = rng.normal(0.0, CLASS_SEPARATION * np.sqrt(2.0 / DIM), size=(NUM_CLASSES, DIM))
    shifts = rng.normal(0.0, DOMAIN_SHIFT / np.sqrt(DIM), size=(len(ROLES), DIM))
    shifts[np.array(ROLES) == "test"] *= TEST_SHIFT_FACTOR
    scales = rng.permutation(SCALES)
    cells = [(d, c) for d in range(len(ROLES)) for c in range(NUM_CLASSES)]
    noise = rng.normal(0.0, 1.0, size=(len(cells), ROWS_PER_CELL, DIM))
    z = np.concatenate([means[c] + shifts[d] + noise[i] for i, (d, c) in enumerate(cells)])
    z = (z * scales).astype("<f4")
    domain_ids = np.repeat([d for d, _ in cells], ROWS_PER_CELL)
    labels = np.repeat([c for _, c in cells], ROWS_PER_CELL)
    splits = np.tile((np.arange(ROWS_PER_CELL) >= FIT_ROWS_PER_CELL).astype(np.uint8), len(cells))
    header = {
        "version": 1,
        "dim": DIM,
        "num_classes": NUM_CLASSES,
        "domains": [{"id": i, "name": f"{role}{i}", "role": role} for i, role in enumerate(ROLES)],
    }
    return header, domain_ids, splits, labels, z


def dump_bytes(header, domain_ids, splits, labels, z):
    hdr = json.dumps(header, separators=(",", ":")).encode("utf-8")
    rec = np.empty(len(labels), dtype=[("domain", "<u4"), ("split", "u1"), ("label", "<u4"),
                                        ("z", "<f4", (z.shape[1],))])
    rec["domain"], rec["split"], rec["label"], rec["z"] = domain_ids, splits, labels, z
    return b"DGDX" + bytes([1]) + np.uint32(len(hdr)).astype("<u4").tobytes() + hdr + rec.tobytes()


def nearest_mean_head(domain_ids, splits, labels, z):
    """Linear head scoring class c by ``mu_c . z - |mu_c|^2 / 2``, with the
    class means taken over the training domains' fit rows."""
    train = np.flatnonzero(np.array(ROLES) == "train")
    rows = np.isin(domain_ids, train) & (splits == 0)
    zz = z.astype(np.float64)
    means = np.stack([zz[rows & (labels == c)].mean(axis=0) for c in range(NUM_CLASSES)])
    return {
        "weights": means.tolist(),
        "bias": (-0.5 * (means * means).sum(axis=1)).tolist(),
        "num_outputs": NUM_CLASSES,
    }


def write_inputs(seed, out_dir):
    """Write ``reps.bin`` and ``head.json``; return ``{file name: sha256}``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, domain_ids, splits, labels, z = make_dump(seed)
    blobs = {
        "reps.bin": dump_bytes(header, domain_ids, splits, labels, z),
        "head.json": (json.dumps(nearest_mean_head(domain_ids, splits, labels, z),
                                 indent=2, sort_keys=True) + "\n").encode("utf-8"),
    }
    for name, blob in blobs.items():
        (out_dir / name).write_bytes(blob)
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
