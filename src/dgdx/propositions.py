"""Executable checks of the metric relationships on exactly solvable instances.

Instances have finite support, exact per-domain probability tables and
explicit finite probe families, so every infimum becomes an exact minimum
and every implication can be verified numerically:

* invariance transfer: a zero-error common classifier plus domain-invariant
  marginals forces class-conditional invariance;
* generalization transfer: zero training error plus class-conditional
  invariance forces zero target error;
* orderings between the primed metrics, including the class-conditional
  one under uniform class priors;
* the partition-averaged ordering between training error and target
  separability over all train/test splits of a domain family.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .probe import FiniteProbeFamily

_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class PartitionInstance:
    """A finite domain family with exact distributions over a shared support.

    ``joint[i, s, y]`` is domain i's probability of (point s, class y).  The
    training subset is ``train_idx``; the trained head is the label-family
    probe minimizing the training-domain error (lowest index on ties) unless
    ``head_index`` overrides it.  Domain classifiers need their own family
    because they have one output per domain rather than per class.
    """

    points: np.ndarray  # (m, dim)
    joint: np.ndarray  # (K, m, C)
    train_idx: tuple
    label_family: FiniteProbeFamily
    domain_family: FiniteProbeFamily = None
    head_index: int = None

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "joint", np.asarray(self.joint, dtype=np.float64))
        if self.points.ndim != 2 or self.points.shape[1] != self.label_family.dim:
            raise ValueError("points must have shape (num_points, label_family dim)")
        if self.joint.ndim != 3 or self.joint.shape[1] != self.points.shape[0]:
            raise ValueError("joint must have shape (num_domains, num_points, num_classes)")
        if not (np.isfinite(self.points).all() and np.isfinite(self.joint).all()):
            raise ValueError("points and joint must be finite")
        if (self.joint < 0).any():
            raise ValueError("probabilities must be nonnegative")
        sums = self.joint.sum(axis=(1, 2))
        if np.abs(sums - 1.0).max() > 1e-9:
            raise ValueError("each domain's probabilities must sum to 1")
        k = self.joint.shape[0]
        idx = self.train_idx
        if not all(_is_index(i, k) for i in idx) or len(set(idx)) != len(idx):
            raise ValueError(f"train_idx must list distinct integer domain indices in [0, {k})")
        if not idx or len(idx) >= k:
            raise ValueError("train_idx must be a nonempty proper subset of domains")
        if self.label_family.num_outputs != self.joint.shape[2]:
            raise ValueError("label_family outputs must equal the number of classes")
        if self.domain_family is not None and (
            self.domain_family.num_outputs != k or self.domain_family.dim != self.label_family.dim
        ):
            raise ValueError("domain_family needs one output per domain and the points' dim")
        if self.head_index is not None and not _is_index(self.head_index, len(self.label_family)):
            raise ValueError(
                f"head_index must be an integer in [0, {len(self.label_family)}), "
                "the size of label_family"
            )

    @property
    def num_domains(self):
        return self.joint.shape[0]

    @property
    def num_classes(self):
        return self.joint.shape[2]

    @property
    def test_idx(self):
        return tuple(i for i in range(self.num_domains) if i not in set(self.train_idx))

    def priors(self):
        """Per-domain class priors, shape (K, C)."""
        return self.joint.sum(axis=1)

    def marginals(self):
        """Per-domain point marginals, shape (K, m)."""
        return self.joint.sum(axis=2)

    def to_dict(self):
        return {
            "points": self.points.tolist(),
            "joint": self.joint.tolist(),
            "train_idx": list(self.train_idx),
            "label_family": self.label_family.to_dict(),
            "domain_family": None if self.domain_family is None else self.domain_family.to_dict(),
            "head_index": self.head_index,
        }

    @classmethod
    def from_dict(cls, obj):
        """Inverse of :meth:`to_dict`.  Malformed input raises ``ValueError``
        naming the field at fault."""
        if not isinstance(obj, dict):
            raise ValueError("an instance must be a JSON object")
        parsers = {
            "points": lambda v: np.asarray(v, dtype=np.float64),
            "joint": lambda v: np.asarray(v, dtype=np.float64),
            "train_idx": tuple,
            "label_family": FiniteProbeFamily.from_dict,
            "domain_family": lambda v: None if v is None else FiniteProbeFamily.from_dict(v),
            "head_index": lambda v: v,
        }
        fields = {}
        for name, parse in parsers.items():
            if name not in obj and name in ("points", "joint", "train_idx", "label_family"):
                raise ValueError(f"missing field {name!r}")
            try:
                fields[name] = parse(obj.get(name))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"field {name!r}: {exc}") from exc
        return cls(**fields)


def _is_index(i, n):
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n


# -- exact evaluation --------------------------------------------------------------


def _mean_miss(preds, tables, correct):
    """Mass each row of ``preds`` ``(P, m)`` misclassifies, averaged over the
    ``K`` distributions ``tables`` ``(K, m, C)``, where column ``c`` of
    distribution ``k`` is right for output ``correct[k, c]``.  Rows are summed
    alike, so a probe's error is the same inside a search (``P > 1``) as alone."""
    if len(tables) == 0:
        raise ValueError("domain subset must be nonempty")
    miss = preds[:, None, :, None] != correct[None, :, None, :]
    return (tables * miss).sum(axis=(2, 3)).mean(axis=1)


def _label_errors(inst, domain_subset, preds):
    """Equal-weight average over the subset of the exact expected 0-1 loss of
    each row of predictions, ``(P,)``."""
    tables = inst.joint[list(domain_subset)]
    return _mean_miss(preds, tables, np.arange(inst.num_classes)[None, :])


def _domain_errors(inst, domain_subset, preds, conditional_class=None):
    """Exact expected domain-classification 0-1 loss of each row of
    predictions over an ordered subset, ``(P,)``; see ``eval_G``."""
    subset = list(domain_subset)
    if conditional_class is None:
        weights = inst.marginals()[subset]  # (|A|, m)
    else:
        pri = inst.priors()[subset, conditional_class]
        if (pri <= 0).any():
            raise ValueError(
                f"class {conditional_class} has zero prior in some domain; "
                "the conditional metric is undefined"
            )
        weights = inst.joint[subset, :, conditional_class] / pri[:, None]
    return _mean_miss(preds, weights[:, :, None], np.arange(len(subset))[:, None])


def eval_F(inst, domain_subset, probe):
    """Equal-weight average over the subset of the exact expected 0-1 loss."""
    return float(_label_errors(inst, domain_subset, probe.predict(inst.points)[None])[0])


def eval_G(inst, domain_subset, probe, conditional_class=None):
    """Exact expected domain-classification 0-1 loss over an ordered subset.

    Domain at position k in the subset carries target label k.  With
    ``conditional_class`` the expectation conditions each domain on that class.
    """
    preds = probe.predict(inst.points)[None]
    return float(_domain_errors(inst, domain_subset, preds, conditional_class)[0])


def _argmin(errs):
    idx = int(np.argmin(errs))
    return float(errs[idx]), idx


def _best_label(inst, subset):
    return _argmin(_label_errors(inst, subset, inst.label_family.predict(inst.points)))


def _head(inst):
    if inst.head_index is not None:
        return eval_F(inst, inst.train_idx, inst.label_family[inst.head_index]), inst.head_index
    return _best_label(inst, inst.train_idx)


def _best_domain(inst, subset, conditional_class=None):
    if inst.domain_family is None:
        raise ValueError("instance has no domain classifier family")
    preds = inst.domain_family.predict(inst.points)
    return _argmin(_domain_errors(inst, subset, preds, conditional_class))


# -- proposition checks --------------------------------------------------------------
#
# Every report gives ``gate_passed`` (its preconditions held, so the verdict
# counts) and ``holds`` (the verdict); ``dataclasses.asdict`` is its JSON.


@dataclass(frozen=True)
class PropositionReport:
    proposition: str
    gate_passed: bool
    gate_reason: str
    conclusion_passed: bool
    violations: tuple

    @property
    def holds(self):
        return self.conclusion_passed


def _class_conditionals(inst):
    """The failed-precondition reason (or None) of the first class whose
    prior vanishes in some domain only, and the per-class conditional point
    distributions ``[(y, (K, m))]`` of the classes before it that carry mass
    somewhere."""
    pri = inst.priors()
    conds = []
    for y in range(inst.num_classes):
        if pri[:, y].sum() <= _EXACT_TOL:  # class carries no mass anywhere
            continue
        if (pri[:, y] <= _EXACT_TOL).any():
            return f"precondition not met: class {y} prior vanishes in some domain only", conds
        conds.append((y, inst.joint[:, :, y] / pri[:, y, None]))
    return None, conds


def _gated_out(name, reason):
    return PropositionReport(name, False, reason, False, ())


def check_prop1(inst):
    """Gate: domain-invariant marginals and a common zero-error classifier in
    the family.  Conclusion: class-conditional distributions agree across all
    domains for every class."""
    marg = inst.marginals()
    dev = np.abs(marg - marg[0]).max()
    if dev > _EXACT_TOL:
        return _gated_out("prop1", f"precondition not met: marginals differ by {dev:.3e}")
    best, _ = _best_label(inst, range(inst.num_domains))
    if best > _EXACT_TOL:
        return _gated_out(
            "prop1", f"precondition not met: no common zero-error classifier (best {best:.3e})"
        )
    reason, conds = _class_conditionals(inst)
    if reason is not None:
        return _gated_out("prop1", reason)
    violations = []
    for y, cond in conds:
        dev = np.abs(cond - cond[0])
        if dev.max() > _EXACT_TOL:
            d, s = np.unravel_index(int(np.argmax(dev)), dev.shape)
            violations.append(
                {"class": y, "domain": int(d), "point": int(s), "deviation": float(dev.max())}
            )
    return PropositionReport("prop1", True, "ok", not violations, tuple(violations))


def check_prop2(inst):
    """Gate: the trained head has zero training error and class-conditional
    distributions are invariant.  Conclusion: zero error on the held-out
    domains."""
    e0, head_idx = _head(inst)
    if e0 > _EXACT_TOL:
        return _gated_out("prop2", f"precondition not met: training error {e0:.3e} > 0")
    reason, conds = _class_conditionals(inst)
    for y, cond in conds:
        dev = np.abs(cond - cond[0]).max()
        if dev > _EXACT_TOL:
            reason = f"precondition not met: class {y} conditionals differ by {dev:.3e}"
            return _gated_out("prop2", reason)
    if reason is not None:
        return _gated_out("prop2", reason)
    e3 = eval_F(inst, inst.test_idx, inst.label_family[head_idx])
    ok = e3 <= _EXACT_TOL
    violations = () if ok else ({"target_error": e3, "head_index": head_idx},)
    return PropositionReport("prop2", True, "ok", ok, violations)


@dataclass(frozen=True)
class OrderingReport:
    entries: tuple  # of dicts: name, status, lhs, rhs

    @property
    def gate_passed(self):
        return all(e["status"] != "assumption-unmet" for e in self.entries)

    @property
    def holds(self):
        return all(e["status"] != "violated" for e in self.entries)


def _ordering(name, lhs, rhs, assumption_met):
    if not assumption_met:
        status = "assumption-unmet"
    else:
        status = "holds" if lhs <= rhs + _EXACT_TOL else "violated"
    return {"name": name, "status": status, "lhs": lhs, "rhs": rhs}


def check_orderings(inst):
    """Exact-minimum versions of the metric orderings.

    The separability/misalignment ordering must hold unconditionally.  The
    misalignment/test-error ordering needs the head to minimize training
    error within the family; the conditional-invariance ordering needs
    uniform class priors.  Checks whose assumption fails are reported as
    assumption-unmet with values attached.
    """
    test = inst.test_idx
    all_domains = tuple(range(inst.num_domains))
    e1, _ = _best_label(inst, test)
    e2 = eval_F(inst, test, inst.label_family[_best_label(inst, all_domains)[1]])
    e0, head_idx = _head(inst)
    e3 = eval_F(inst, test, inst.label_family[head_idx])
    head_minimizes = e0 <= _best_label(inst, inst.train_idx)[0] + _EXACT_TOL
    entries = [_ordering("e1_le_e2", e1, e2, True), _ordering("e2_le_e3", e2, e3, head_minimizes)]
    if inst.domain_family is not None:
        k = inst.num_domains
        pri = inst.priors()
        d1 = 1.0 - _best_domain(inst, all_domains)[0] - 1.0 / k
        d2 = None
        if (pri > 0).all():
            gys = [_best_domain(inst, all_domains, y)[0] for y in range(inst.num_classes)]
            d2 = 1.0 - float(np.mean(gys)) - 1.0 / k
        uniform = np.abs(pri - 1.0 / inst.num_classes).max() <= 1e-9
        entries.append(_ordering("d1_le_d2", d1, d2, uniform and d2 is not None))
    return OrderingReport(tuple(entries))


@dataclass(frozen=True)
class PartitionExpectationReport:
    n_subsets: int
    mean_train_error: float
    mean_separability_error: float
    holds: bool

    gate_passed = True  # not a field: every balanced split counts


def check_partition_expectation(points, joint, label_family, n1, max_subsets=10000):
    """Average both metrics over every balanced train/test split of the family.

    The head for each split is the family minimizer of the training error, so
    the averaged training error can never exceed the averaged best target
    separability error when splits are balanced.
    """
    joint = np.asarray(joint, dtype=np.float64)
    k = joint.shape[0]
    if k != 2 * n1:
        raise ValueError("the domain count must equal 2 * n1 (balanced splits)")
    from math import comb

    if comb(k, n1) > max_subsets:
        raise ValueError(f"subset count {comb(k, n1)} exceeds the enumeration guard {max_subsets}")
    base = PartitionInstance(
        points=points,
        joint=joint,
        train_idx=tuple(range(n1)),
        label_family=label_family,
    )
    e0s, e1s = [], []
    for s in itertools.combinations(range(k), n1):
        sbar = tuple(i for i in range(k) if i not in s)
        e0s.append(_best_label(base, s)[0])
        e1s.append(_best_label(base, sbar)[0])
    mean_e0 = float(np.mean(e0s))
    mean_e1 = float(np.mean(e1s))
    return PartitionExpectationReport(len(e0s), mean_e0, mean_e1, mean_e0 <= mean_e1 + 1e-9)


# -- random instance constructors ------------------------------------------------------


def _random_family(rng, num_outputs, dim, size):
    # the constants, then random probes, each drawing its weights and then its bias
    k = num_outputs
    spread = np.repeat([1.5, 0.5], [k * dim, k])
    draws = rng.normal(0.0, spread, size=(size, spread.size))
    weights = np.concatenate([np.zeros((k, k, dim)), draws[:, : k * dim].reshape(size, k, dim)])
    bias = np.concatenate([np.eye(k), draws[:, k * dim :]])
    return FiniteProbeFamily(weights, bias)


def random_instance(
    seed,
    n_domains=4,
    n_train=2,
    n_points=8,
    dim=2,
    num_classes=2,
    family_size=20,
    uniform_priors=True,
):
    """A generic random instance: random support, random probability tables,
    random probe families.  Uniform priors give each class exactly 1/C mass
    in every domain."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    points = rng.normal(0.0, 1.0, size=(n_points, dim))
    label_family = _random_family(rng, num_classes, dim, family_size)
    domain_family = _random_family(rng, n_domains, dim, family_size)
    joint = np.zeros((n_domains, n_points, num_classes))
    for i in range(n_domains):
        if uniform_priors:
            pri = np.full(num_classes, 1.0 / num_classes)
        else:
            pri = rng.dirichlet(np.ones(num_classes)) * 0.6 + 0.4 / num_classes
            pri = pri / pri.sum()
        for y in range(num_classes):
            joint[i, :, y] = pri[y] * rng.dirichlet(np.ones(n_points))
    train_idx = tuple(sorted(rng.choice(n_domains, size=n_train, replace=False).tolist()))
    return PartitionInstance(points, joint, train_idx, label_family, domain_family)


def _labelled_points(rng, n_points, dim, num_classes, family_size):
    """Points, a random family and the labels a random member gives them,
    redrawn (at most 64 times) until two classes appear."""
    for _ in range(64):
        points = rng.normal(0.0, 1.0, size=(n_points, dim))
        family = _random_family(rng, num_classes, dim, family_size)
        labels = family[int(rng.integers(len(family)))].predict(points)
        if np.unique(labels).size >= 2:
            break
    return points, family, labels


def make_prop1_instance(seed, n_domains=3, n_points=8, dim=2, num_classes=2, family_size=12):
    """Precondition-satisfying instance: one shared point marginal for every
    domain and labels assigned by a family probe (so a common zero-error
    classifier exists by construction)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 102)))
    points, family, labels = _labelled_points(rng, n_points, dim, num_classes, family_size)
    joint_one = np.zeros((n_points, num_classes))
    joint_one[np.arange(n_points), labels] = rng.dirichlet(np.ones(n_points))
    joint = np.repeat(joint_one[None, :, :], n_domains, axis=0)
    return PartitionInstance(points, joint, (0,), family, None)


def make_prop2_instance(seed, n_domains=3, n_train=2, n_points=8, dim=2, num_classes=2,
                        family_size=12):
    """Precondition-satisfying instance: class-conditional point distributions
    shared across domains (class priors may differ), labels realizable with
    zero error by a family probe."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 103)))
    points, family, labels = _labelled_points(rng, n_points, dim, num_classes, family_size)
    present = np.unique(labels)
    cond = np.zeros((num_classes, n_points))
    for y in present:
        mask = labels == y
        cond[y, mask] = rng.dirichlet(np.ones(int(mask.sum())))
    joint = np.zeros((n_domains, n_points, num_classes))
    for i in range(n_domains):
        pri = rng.dirichlet(np.ones(present.size)) * 0.6 + 0.4 / present.size
        pri = pri / pri.sum()
        for j, y in enumerate(present):
            joint[i, :, y] = pri[j] * cond[y]
    return PartitionInstance(points, joint, tuple(range(n_train)), family, None)


# -- randomized suites -----------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    proposition: str
    trials: int
    gated_out: int
    passed: int
    failed: int
    counterexample: dict = None


def _partition_trial(t, t_seed):
    n1 = 2 + t % 2
    inst = random_instance(t_seed, n_domains=2 * n1, n_train=n1, n_points=6 + t % 4)
    return check_partition_expectation(inst.points, inst.joint, inst.label_family, n1)


# suite -> trial t's report from its seed; the lambdas look the checks and
# constructors up as module globals at call time, so wrappers put over those
# globals see every call
_TRIALS = {
    "prop1": lambda t, t_seed: check_prop1(
        make_prop1_instance(t_seed, n_points=6 + t % 5, num_classes=2 + t % 2)),
    "prop2": lambda t, t_seed: check_prop2(
        make_prop2_instance(t_seed, n_points=6 + t % 5, num_classes=2 + t % 2)),
    "orderings": lambda t, t_seed: check_orderings(random_instance(
        t_seed, n_domains=3 + t % 3, n_points=6 + t % 4, num_classes=2 + t % 2)),
    "partition": _partition_trial,
}
SUITES = tuple(_TRIALS)


def run_suite(name, trials, seed=0):
    """Run one proposition suite over randomized instances.

    Every gated-in trial must pass its conclusion; a single failure is a
    defect because the statements are theorems.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if name not in _TRIALS:
        raise ValueError(f"unknown suite {name!r}")
    gated_out = passed = failed = 0
    counterexample = None
    for t in range(trials):
        t_seed = (seed << 20) + t
        rep = _TRIALS[name](t, t_seed)
        if not rep.gate_passed:
            gated_out += 1
        elif rep.holds:
            passed += 1
        else:
            failed += 1
            if counterexample is None:
                counterexample = {"trial": t, "seed": t_seed, "detail": asdict(rep)}
    return SuiteReport(name, trials, gated_out, passed, failed, counterexample)
