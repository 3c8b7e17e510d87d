"""Synthetic Gaussian-cluster fixtures realizing each diagnostic failure mode.

Each kind places unit-spaced Gaussian clusters per (domain, class) so that
exactly one decomposition component is large and the ones before it are
near zero, together with a designed head that a train-optimal learner
would plausibly pick.  The machine-checkable expectation (a list of
predicates over diagnosis fields) is the contract; the coordinates are
just one geometry that realizes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainMeta,
    LinearProbe,
    ROLE_TEST,
    ROLE_TRAIN,
    RepresentationDataset,
    SPLIT_FIT,
    SPLIT_HOLDOUT,
)

KIND_UNDERFIT = "underfit"
KIND_TEST_INSEPARABLE = "test-inseparable"
KIND_MISALIGNED = "misaligned"
KIND_HEAD_NONINVARIANT = "head-noninvariant"
KIND_SUCCESS = "success"
KIND_LABEL_FLIPPED = "label-flipped"
_INV_TRAIN = tuple(f"inv-train-only-{s}" for s in "abcde")
_INV_ALL = tuple(f"inv-all-{s}" for s in "abcd")

KINDS = (
    KIND_UNDERFIT,
    KIND_TEST_INSEPARABLE,
    KIND_MISALIGNED,
    KIND_HEAD_NONINVARIANT,
    KIND_SUCCESS,
) + _INV_TRAIN + _INV_ALL + (KIND_LABEL_FLIPPED,)

FIG1_KINDS = KINDS[:5]


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    samples_per_cell: int = 500
    cluster_std: float = 0.08
    dim: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; valid kinds: {', '.join(KINDS)}")
        if self.samples_per_cell < 10:
            raise ValueError("samples_per_cell must be at least 10")
        if not (np.isfinite(self.cluster_std) and self.cluster_std > 0):
            raise ValueError(f"cluster_std must be positive and finite, got {self.cluster_std}")
        if self.dim < 2:
            raise ValueError(f"kind {self.kind} requires dim >= 2")


@dataclass(frozen=True)
class ScenarioExpectation:
    kind: str
    predicates: tuple  # of (field, op, value) with op in {"<=", ">="}
    head: LinearProbe

    def to_dict(self):
        return {
            "kind": self.kind,
            "predicates": [
                {"field": f, "op": op, "value": v} for (f, op, v) in self.predicates
            ],
            "head": self.head.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj):
        preds = tuple((p["field"], p["op"], float(p["value"])) for p in obj["predicates"])
        return cls(obj["kind"], preds, LinearProbe.from_dict(obj["head"]))


@dataclass(frozen=True)
class ExpectationResult:
    passed: bool
    violations: tuple

    def to_dict(self):
        return {"passed": self.passed, "violations": [dict(v) for v in self.violations]}


def check_expectation(diag, exp):
    """Evaluate every predicate of an expectation against a diagnosis."""
    violations = []
    for field, op, value in exp.predicates:
        actual = diag.component(field)
        if op == "<=":
            ok = actual <= value
        elif op == ">=":
            ok = actual >= value
        else:
            raise ValueError(f"unknown predicate op {op!r}")
        if not ok:
            violations.append(
                {"field": field, "op": op, "value": value, "actual": float(actual)}
            )
    return ExpectationResult(not violations, tuple(violations))


# -- geometry --------------------------------------------------------------------
#
# A ``_LAYOUTS`` row is (train, test, head, predicates).  ``train(j)`` lists the
# sites of training domain j, and ``test(k, n1)`` those of test domain k, which
# is domain n1 + k.  A site is (class, centre on the plane, weight fraction);
# the sites of one (domain, class) share its sample budget in their listed
# order, the last taking the rest.  The head (w, theta) predicts class 1 iff
# w . z > theta.  A predicate "e1<=" reads e1 <= _LOW and "e1>=" reads
# e1 >= _HIGH.

_LOW = 0.05
_HIGH = 0.3


def _pair(centre0, centre1):
    return [(0, centre0, 1.0), (1, centre1, 1.0)]


def _y_split(x):
    return _pair((x, -0.5), (x, 0.5))


def _y_flip(x):
    return _pair((x, 0.5), (x, -0.5))


def _x_split(y=0.0):
    return _pair((-0.5, y), (0.5, y))


def _x_flip(y=0.0):
    return _pair((0.5, y), (-0.5, y))


def _merged(x=0.0, y=0.0):
    return _pair((x, y), (x, y))


def _mix(y=0.0):
    # each class half on either x-split site
    return [(c, (x, y), 0.5) for c in (0, 1) for x in (-0.5, 0.5)]


def _fixed(sites):
    # the same sites for every domain of the role
    return lambda *position: sites


def _beside(sites_at):
    # test domains continue the row of training domains along x
    return lambda k, n1: sites_at(n1 + k)


def _above(sites_at):
    # test domains stack along y, clear of training domains at the origin
    return lambda k, n1: sites_at(y=2.0 + k)


_Y_HEAD = ((0.0, 1.0), 0.0)
_X_HEAD = ((1.0, 0.0), 0.0)
_SPLIT = _fixed(_x_split())
# the invariance predicates every inv-train-only kind shares
_INV_PREDS = "d0_prime<= d1_prime>= "

_LAYOUTS = {
    # Fig. 1 kinds: training domain j sits at x = j
    KIND_UNDERFIT: (_merged, _beside(_merged), _Y_HEAD, "e0>= d0_prime>="),
    KIND_TEST_INSEPARABLE: (_y_split, _beside(_merged), _Y_HEAD, "e0<= e1>= d0_prime>="),
    # a shared head still separates the y-mirrored test domains, but no
    # single line is consistent with training too
    KIND_MISALIGNED: (_y_split, _beside(_y_flip), _Y_HEAD, "e0<= e1<= e2>= d0_prime>="),
    # classes split along x everywhere (the consistent rule); training domains
    # stack along y at y = 0, 1, 2 and test domains at y = 4, 5; the head tilts
    # into y by 0.3 about y = 1, which stays train-optimal but puts the test
    # boundary at x <= -0.9, past the class-0 clusters at x = -0.5
    KIND_HEAD_NONINVARIANT: (_x_split, lambda k, n1: _x_split(n1 + 1 + k), ((1.0, 0.3), 0.3),
                             "e0<= e1<= e2<= e3>= d0_prime>="),
    KIND_SUCCESS: (_y_split, _beside(_y_split), _Y_HEAD, "e0<= e1<= e2<= e3<= d0_prime>= d2<="),
    # training domains coincide (invariant among themselves); distinct test
    # offsets keep the union distinguishable
    "inv-train-only-a": (_fixed(_merged()), _above(_merged), _X_HEAD, _INV_PREDS + "e0>="),
    "inv-train-only-b": (_SPLIT, _above(_merged), _X_HEAD, _INV_PREDS + "e0<= e1>="),
    "inv-train-only-c": (_SPLIT, _above(_x_flip), _X_HEAD, _INV_PREDS + "e0<= e1<= e2>="),
    "inv-train-only-d": (
        _SPLIT, _above(_x_split), ((1.0, 0.5), 0.0), _INV_PREDS + "e0<= e1<= e2<= e3>="
    ),
    "inv-train-only-e": (_SPLIT, _above(_x_split), _X_HEAD, _INV_PREDS + "e0<= e1<= e2<= e3<="),
    # every domain has the same marginal over the plane; only the
    # class-conditional structure varies
    "inv-all-a": (_fixed(_merged()), _fixed(_merged()), _X_HEAD, "d1_prime<= e0>="),
    "inv-all-b": (_SPLIT, _fixed(_mix()), _X_HEAD, "d1_prime<= e0<= e1>="),
    "inv-all-c": (_SPLIT, _fixed(_x_flip()), _X_HEAD, "d1_prime<= e0<= e1<= e2>="),
    "inv-all-d": (_SPLIT, _SPLIT, _X_HEAD, "e3_prime<= d2_prime<="),
    KIND_LABEL_FLIPPED: (_SPLIT, _fixed(_x_flip()), _X_HEAD, "d1_prime<= d2_prime>="),
}


def generate(spec):
    """Generate the dataset and its machine-checkable expectation for a kind.

    Deterministic given the spec.  Every (domain, class) cell receives
    ``samples_per_cell`` Gaussian samples split evenly into fit and holdout;
    extra dimensions beyond the first two carry pure noise.
    """
    # misaligned, inv-all-c and label-flipped need a training majority in the joint fit
    n1, n3 = (2, 1) if spec.kind == KIND_LABEL_FLIPPED else (3, 2)
    train, test, (head_w, theta), preds = _LAYOUTS[spec.kind]
    preds = tuple((p[:-2], p[-2:], _LOW if p[-2:] == "<=" else _HIGH) for p in preds.split())
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, KINDS.index(spec.kind))))

    domains = tuple(
        [DomainMeta(j, f"train{j}", ROLE_TRAIN) for j in range(n1)]
        + [DomainMeta(n1 + k, f"test{k}", ROLE_TEST) for k in range(n3)]
    )
    sites = [(j,) + site for j in range(n1) for site in train(j)]
    sites += [(n1 + k,) + site for k in range(n3) for site in test(k, n1)]
    sites.sort(key=lambda site: site[:2])  # stable: a cell keeps its site order

    counts = []
    for _, cell in itertools.groupby(sites, key=lambda site: site[:2]):
        lead = [int(round(site[3] * spec.samples_per_cell)) for site in cell][:-1]
        counts += lead + [spec.samples_per_cell - sum(lead)]
    counts = np.array(counts)
    ids, labels, centres, _ = zip(*sites)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    n_fit = np.repeat((counts + 1) // 2, counts)
    splits = np.where(np.arange(counts.sum()) - first < n_fit, SPLIT_FIT, SPLIT_HOLDOUT)
    z = np.zeros((counts.sum(), spec.dim))
    z[:, :2] = np.repeat(centres, counts, axis=0)
    z += rng.normal(0.0, spec.cluster_std, size=z.shape)
    ds = RepresentationDataset(
        spec.dim, 2, domains, np.repeat(ids, counts), splits, np.repeat(labels, counts), z
    )
    w = np.zeros((2, spec.dim))
    w[1, :2] = 4.0 * np.asarray(head_w)
    head = LinearProbe(w, np.array([0.0, -4.0 * theta]))
    return ds, ScenarioExpectation(spec.kind, preds, head)
