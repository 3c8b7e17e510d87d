"""Data model for multi-domain representation datasets and dump I/O.

A dataset holds per-sample representation vectors together with a class
label, a domain id and a fit/holdout split flag.  Probes are trained on
the fit samples and every reported metric is evaluated on the holdout
samples.  Datasets are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ROLE_TRAIN = "train"
ROLE_VALID = "valid"
ROLE_TEST = "test"
ROLES = (ROLE_TRAIN, ROLE_VALID, ROLE_TEST)

SPLIT_FIT = 0
SPLIT_HOLDOUT = 1
SPLIT_CHARS = {"F": SPLIT_FIT, "H": SPLIT_HOLDOUT}
SPLIT_NAMES = {SPLIT_FIT: "F", SPLIT_HOLDOUT: "H"}

_MAGIC = b"DGDX"
_FORMAT_VERSION = 1
# values formatted at once when writing a CSV dump, so memory does not grow with its rows
_CSV_BLOCK_VALUES = 1 << 16

FORMAT_CSV = "csv"
FORMAT_BINARY = "binary"


class DatasetError(ValueError):
    """Raised when a dataset violates a structural invariant.

    A fault in one sample keeps that sample's position as ``index``; the
    message then names it as row ``index + 1``, and ``at_row(row)`` gives
    the same message for a row numbered otherwise (a dump's line, say).
    """

    def __init__(self, message, index=None):
        self.template, self.index = message, index
        super().__init__(message if index is None else message.format(row=index + 1))

    def at_row(self, row):
        return self.template.format(row=row)


class DumpError(ValueError):
    """Raised when a dump file is malformed or inconsistent with its header."""


@dataclass(frozen=True)
class DomainMeta:
    id: int
    name: str
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise DatasetError(f"unknown domain role {self.role!r} (expected one of {ROLES})")


class RepresentationDataset:
    """Immutable collection of representation samples across domains.

    Representations are stored as float32, matching the on-disk binary
    format, so that a save/load round trip is bit exact.
    """

    def __init__(self, dim, num_classes, domains, domain_ids, splits, labels, z):
        self.dim = int(dim)
        self.num_classes = int(num_classes)
        self.domains = tuple(domains)
        self.domain_ids = np.ascontiguousarray(domain_ids, dtype=np.int64)
        self.splits = np.ascontiguousarray(splits, dtype=np.uint8)
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        self.z = np.ascontiguousarray(z, dtype=np.float32)
        self._validate()
        for arr in (self.domain_ids, self.splits, self.labels, self.z):
            arr.flags.writeable = False

    def _validate(self):
        if self.dim <= 0:
            raise DatasetError("dim must be positive")
        if self.num_classes <= 0:
            raise DatasetError("num_classes must be positive")
        seen = set()
        for dm in self.domains:
            if not isinstance(dm, DomainMeta):
                raise DatasetError("domains must be DomainMeta instances")
            if dm.id in seen:
                raise DatasetError(f"duplicate domain id {dm.id}")
            seen.add(dm.id)
        n1 = sum(1 for dm in self.domains if dm.role == ROLE_TRAIN)
        if n1 < 2:
            raise DatasetError("at least two training domains are required")
        n = self.domain_ids.shape[0]
        if n == 0:
            raise DatasetError("dataset has no samples")
        if self.splits.shape != (n,) or self.labels.shape != (n,):
            raise DatasetError("sample arrays have inconsistent lengths")
        if self.z.shape != (n, self.dim):
            raise DatasetError(
                f"representation array has shape {self.z.shape}, expected ({n}, {self.dim})"
            )
        unknown = np.flatnonzero(~np.isin(self.domain_ids, list(seen)))
        if unknown.size:
            i = int(unknown[0])
            raise DatasetError(f"unknown domain id {int(self.domain_ids[i])} at row {{row}}", i)
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= self.num_classes))
        if bad.size:
            i = int(bad[0])
            raise DatasetError(
                "label out of range at row {row} "
                f"(label {int(self.labels[i])}, num_classes {self.num_classes})",
                i,
            )
        bad = np.flatnonzero(~np.isfinite(self.z).all(axis=1))
        if bad.size:
            i = int(bad[0])
            value = self.z[i][~np.isfinite(self.z[i])][0]
            raise DatasetError(f"non-finite feature value {value} at row {{row}}", i)
        if not np.isin(self.splits, [SPLIT_FIT, SPLIT_HOLDOUT]).all():
            raise DatasetError("split flags must be 0 (fit) or 1 (holdout)")
        for dm in self.domains:
            for split, name in ((SPLIT_FIT, "fit"), (SPLIT_HOLDOUT, "holdout")):
                if (dm.id, split) not in self.cell_rows:
                    raise DatasetError(f"domain {dm.id} has no {name} samples")

    # -- convenience accessors -------------------------------------------------

    @property
    def num_samples(self):
        return int(self.domain_ids.shape[0])

    def domain_ids_with_role(self, role):
        return [dm.id for dm in self.domains if dm.role == role]

    @cached_property
    def cell_rows(self):
        """``{(domain id, split): row indices}``, each cell's rows in row order.

        ``_validate`` builds it while the dataset is constructed.  Built later,
        this long-lived index can sit above heap memory freed in between and
        keep that memory resident.
        """
        order = np.lexsort((self.splits, self.domain_ids))  # stable: row order within a cell
        order.flags.writeable = False
        ids, splits = self.domain_ids[order], self.splits[order]
        starts = np.flatnonzero(np.r_[True, (ids[1:] != ids[:-1]) | (splits[1:] != splits[:-1])])
        cells = np.split(order, starts[1:])
        return {(int(ids[s]), int(splits[s])): rows for s, rows in zip(starts, cells)}

    def equals(self, other):
        return (
            self.dim == other.dim
            and self.num_classes == other.num_classes
            and self.domains == other.domains
            and np.array_equal(self.domain_ids, other.domain_ids)
            and np.array_equal(self.splits, other.splits)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.z, other.z)
        )


# -- linear probes -------------------------------------------------------------


class LinearProbe:
    """Affine map from representation space to class or domain scores.

    Prediction is argmax over scores; ties resolve to the lowest output
    index so results are reproducible across platforms.
    """

    def __init__(self, weights, bias):
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("probe weights must be a 2-d matrix")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("probe bias length must equal the weight row count")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("probe parameters must be finite")

    @property
    def num_outputs(self):
        return int(self.weights.shape[0])

    @property
    def dim(self):
        return int(self.weights.shape[1])

    def scores(self, z):
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.dim:
            raise ValueError(f"probe expects dim {self.dim}, got {z.shape[-1]}")
        return z @ self.weights.T + self.bias

    def predict(self, z):
        return np.argmax(self.scores(z), axis=-1)

    def to_dict(self):
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
            "num_outputs": self.num_outputs,
        }

    @classmethod
    def from_dict(cls, obj):
        try:
            w = np.asarray(obj["weights"], dtype=np.float64)
            b = np.asarray(obj["bias"], dtype=np.float64)
            num_outputs = int(obj["num_outputs"]) if "num_outputs" in obj else None
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed probe object: {exc}") from exc
        probe = cls(w, b)
        if num_outputs is not None and num_outputs != probe.num_outputs:
            raise ValueError("probe num_outputs does not match weight shape")
        return probe

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# -- diagnosis record ----------------------------------------------------------

E_COMPONENTS = ("e0", "e1", "e2", "e3")
D_COMPONENTS = ("d0", "d1", "d2")


@dataclass(frozen=True)
class Diagnosis:
    """The seven primed metrics plus their decomposition into components.

    The component sums telescope bit-exactly: e0+e1+e2+e3 == e3_prime and
    d0+d1+d2 == d2_prime, evaluated left to right.
    """

    e0_prime: float
    e1_prime: float
    e2_prime: float
    e3_prime: float
    e0: float
    e1: float
    e2: float
    e3: float
    d0_prime: float
    d1_prime: float
    d2_prime: float
    d0: float
    d1: float
    d2: float
    probe_meta: dict = field(default_factory=dict)
    negative_component_flags: tuple = ()

    def __post_init__(self):
        for name in ("e0_prime", "e1_prime", "e2_prime", "e3_prime"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")
        for name in ("d0_prime", "d1_prime", "d2_prime") + E_COMPONENTS + D_COMPONENTS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if ((self.e0 + self.e1) + self.e2) + self.e3 != self.e3_prime:
            raise ValueError("e-components do not sum to e3_prime")
        if (self.d0 + self.d1) + self.d2 != self.d2_prime:
            raise ValueError("d-components do not sum to d2_prime")

    def component(self, name):
        if name not in self.__dataclass_fields__:
            raise KeyError(f"unknown diagnosis field {name!r}")
        return getattr(self, name)

    def to_dict(self):
        out = {name: getattr(self, name) for name in self.__dataclass_fields__}
        out["negative_component_flags"] = list(self.negative_component_flags)
        return out


# -- label-shift validation ----------------------------------------------------


@dataclass(frozen=True)
class LabelShiftReport:
    per_domain: dict
    pooled: np.ndarray
    max_deviation: float
    tol: float
    passed: bool

    def to_dict(self):
        return {
            "per_domain": {str(k): list(map(float, v)) for k, v in self.per_domain.items()},
            "pooled": [float(v) for v in self.pooled],
            "max_deviation": float(self.max_deviation),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }


def validate_no_label_shift(ds, tol=0.02):
    """Check that empirical class proportions agree across domains.

    Passes iff the largest |per-domain proportion - pooled proportion| over
    all (domain, class) pairs is at most ``tol``.  This is a diagnostic:
    a violation yields a failed report, not an exception.
    """
    pooled = np.bincount(ds.labels, minlength=ds.num_classes) / ds.num_samples
    per_domain = {}
    max_dev = 0.0
    for dm in ds.domains:
        mask = ds.domain_ids == dm.id
        props = np.bincount(ds.labels[mask], minlength=ds.num_classes) / mask.sum()
        per_domain[dm.id] = props
        max_dev = max(max_dev, float(np.abs(props - pooled).max()))
    # small grace so a deviation of exactly tol is not failed on rounding dust
    return LabelShiftReport(per_domain, pooled, max_dev, float(tol), max_dev <= tol + 1e-12)


# -- dump I/O ------------------------------------------------------------------


def _header_dict(ds):
    return {
        "version": _FORMAT_VERSION,
        "dim": ds.dim,
        "num_classes": ds.num_classes,
        "domains": [{"id": dm.id, "name": dm.name, "role": dm.role} for dm in ds.domains],
    }


def _parse_header(text, where):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DumpError(f"malformed header in {where}: {exc}") from exc
    try:
        if int(obj["version"]) != _FORMAT_VERSION:
            raise DumpError(f"unsupported dump version {obj['version']}")
        dim = int(obj["dim"])
        num_classes = int(obj["num_classes"])
        domains = tuple(
            DomainMeta(int(d["id"]), str(d["name"]), str(d["role"])) for d in obj["domains"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DumpError):
            raise
        raise DumpError(f"malformed header in {where}: {exc}") from exc
    return dim, num_classes, domains


def _record_dtype(dim):
    return np.dtype([("domain", "<u4"), ("split", "u1"), ("label", "<u4"), ("z", "<f4", (dim,))])


def save_dump(ds, path, format=FORMAT_BINARY):
    """Write a dataset dump. Binary dumps round-trip bit exactly; CSV dumps
    carry 9 significant digits, which is lossless for float32 values."""
    header = json.dumps(_header_dict(ds), separators=(",", ":"))
    if format == FORMAT_BINARY:
        rec = np.empty(ds.num_samples, dtype=_record_dtype(ds.dim))
        rec["domain"] = ds.domain_ids
        rec["split"] = ds.splits
        rec["label"] = ds.labels
        rec["z"] = ds.z
        hdr = header.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(bytes([_FORMAT_VERSION]))
            fh.write(np.uint32(len(hdr)).tobytes())
            fh.write(hdr)
            fh.write(rec.tobytes())
    elif format == FORMAT_CSV:
        # one %-format per block of rows; %.9g of a float32 widened to a Python float
        row = "%d,%s,%d," + ",".join(["%.9g"] * ds.dim) + "\n"
        names = np.array([SPLIT_NAMES[SPLIT_FIT], SPLIT_NAMES[SPLIT_HOLDOUT]])
        block = max(1, _CSV_BLOCK_VALUES // (3 + ds.dim))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for s in range(0, ds.num_samples, block):
                rows = slice(s, min(s + block, ds.num_samples))
                values = np.empty((rows.stop - s, 3 + ds.dim), dtype=object)
                values[:, 0] = ds.domain_ids[rows]
                values[:, 1] = names[ds.splits[rows]]
                values[:, 2] = ds.labels[rows]
                values[:, 3:] = ds.z[rows]
                fh.write(row * len(values) % tuple(values.ravel().tolist()))
    else:
        raise DumpError(f"unknown dump format {format!r}")


def load_dump(path, format=FORMAT_BINARY):
    """Read a dataset dump written by :func:`save_dump`. Row order is preserved."""
    if format == FORMAT_BINARY:
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _MAGIC:
            raise DumpError(f"{path}: bad magic bytes (not a binary dump)")
        if len(blob) < 9:
            raise DumpError(f"{path}: truncated dump")
        if blob[4] != _FORMAT_VERSION:
            raise DumpError(f"{path}: unsupported dump version {blob[4]}")
        hlen = int(np.frombuffer(blob[5:9], dtype="<u4")[0])
        if len(blob) < 9 + hlen:
            raise DumpError(f"{path}: truncated header")
        dim, num_classes, domains = _parse_header(_decode(blob[9 : 9 + hlen], 9, path), path)
        body = blob[9 + hlen :]
        dtype = _record_dtype(dim)
        if len(body) % dtype.itemsize != 0:
            raise DumpError(f"{path}: record section is not a whole number of records")
        rec = np.frombuffer(body, dtype=dtype)
        ids = rec["domain"].astype(np.int64)
        splits = rec["split"].astype(np.uint8)
        labels = rec["label"].astype(np.int64)
        z = rec["z"].astype(np.float32)
        return _build_checked(path, dim, num_classes, domains, ids, splits, labels, z)
    if format == FORMAT_CSV:
        with open(path, "rb") as fh:
            lines = _decode(fh.read(), 0, path).splitlines()
        if not lines:
            raise DumpError(f"{path}: empty file")
        dim, num_classes, domains = _parse_header(lines[0], path)
        body = lines[1:]
        if not any(body):
            raise DumpError(f"{path}: dataset has no samples")
        # a split flag wider than one character stays wider than one in U2, so it fails the check
        dtype = np.dtype(
            [("domain", "<i8"), ("split", "U2"), ("label", "<i8"), ("z", "<f4", (dim,))]
        )
        try:
            rec = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            if not np.isin(rec["split"], list(SPLIT_CHARS)).all():
                raise ValueError("split flags must be F or H")
        except ValueError as exc:
            raise _csv_fault(path, body, dim) or DumpError(f"{path}: {exc}") from exc
        splits = rec["split"] == SPLIT_NAMES[SPLIT_HOLDOUT]
        return _build_checked(
            path, dim, num_classes, domains, rec["domain"], splits, rec["label"], rec["z"], body
        )
    raise DumpError(f"unknown dump format {format!r}")


def _decode(data, offset, path):
    """``data``, the bytes at ``offset`` in the file, as UTF-8 text; a
    DumpError names the file offset of the first byte that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DumpError(
            f"{path}: not UTF-8 text at byte {offset + exc.start} ({exc.reason})"
        ) from exc


def _csv_fault(path, body, dim):
    """The error for the first malformed line of a CSV record section, or None.

    Lines are numbered from 1 after the header, blank lines included; blank
    lines are skipped.  These per-line rules run only after the bulk parse
    has failed, to name the line.  The bulk parse accepts no line they
    reject; the few it rejects and they accept (underscores between digits,
    non-ASCII digits, integers beyond 64 bits) fail with its own message.
    """
    for row, line in enumerate(body, start=1):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3 + dim:
            return DumpError(
                f"{path}: dimension mismatch at row {row} "
                f"(expected {3 + dim} fields, got {len(parts)})"
            )
        try:
            int(parts[0])
            if parts[1] not in SPLIT_CHARS:
                raise ValueError(f"bad split flag {parts[1]!r}")
            int(parts[2])
            for v in parts[3:]:
                float(v)
        except ValueError as exc:
            return DumpError(f"{path}: malformed value at row {row}: {exc}")
    return None


def _build_checked(path, dim, num_classes, domains, ids, splits, labels, z, body=None):
    """Construct the dataset, turning a DatasetError into a DumpError.  Given
    ``body``, a CSV record section, a faulty sample is named by its line."""
    try:
        return RepresentationDataset(dim, num_classes, domains, ids, splits, labels, z)
    except DatasetError as exc:
        msg = str(exc)
        if body is not None and exc.index is not None:
            msg = exc.at_row([row for row, line in enumerate(body, start=1) if line][exc.index])
        raise DumpError(f"{path}: {msg}") from exc


def sniff_format(path):
    """Guess the dump format from the leading bytes of the file."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    return FORMAT_BINARY if head == _MAGIC else FORMAT_CSV
