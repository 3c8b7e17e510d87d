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
from math import comb

import numpy as np

from .probe import FiniteProbeFamily

_EXACT_TOL = 1e-12
# the most balanced splits check_partition_expectation enumerates
_MAX_SUBSETS = 10_000


@dataclass(frozen=True, eq=False)
class PartitionInstance:
    """A finite domain family with exact distributions over a shared support.

    ``joint[i, s, y]`` is domain i's probability of (point s, class y).  The
    training subset is ``train_idx``; the trained head is the label-family
    probe minimizing the training-domain error (lowest index on ties) unless
    ``head_index`` overrides it.  Domain classifiers need their own family
    because they have one output per domain rather than per class.

    The instance holds its own copies of ``points`` and ``joint``, so later
    edits to the caller's arrays do not reach it.  Instances compare and
    hash by identity.
    """

    points: np.ndarray  # (m, dim)
    joint: np.ndarray  # (K, m, C)
    train_idx: tuple
    label_family: FiniteProbeFamily
    domain_family: FiniteProbeFamily = None
    head_index: int = None

    def __post_init__(self):
        # C order, so the checks' reductions sum in one order whatever the caller's layout
        object.__setattr__(self, "points", np.array(self.points, dtype=np.float64, order="C"))
        object.__setattr__(self, "joint", np.array(self.joint, dtype=np.float64, order="C"))
        if self.points.ndim != 2 or self.points.shape[1] != self.label_family.dim:
            raise ValueError("points must have shape (num_points, label_family dim)")
        if self.joint.ndim != 3 or self.joint.shape[1] != self.points.shape[0]:
            raise ValueError("joint must have shape (num_domains, num_points, num_classes)")
        if not (np.isfinite(self.points).all() and np.isfinite(self.joint).all()):
            raise ValueError("points and joint must be finite")
        if (self.joint < 0).any():
            i, x, y = np.argwhere(self.joint < 0)[0]
            raise ValueError(f"joint: domain {i} has a negative entry at point {x}, class {y}")
        sums = self.joint.sum(axis=(1, 2))
        if np.abs(sums - 1.0).max() > 1e-9:
            i = int(np.argmax(np.abs(sums - 1.0) > 1e-9))
            raise ValueError(f"joint: domain {i}'s probabilities sum to {float(sums[i])}, not 1")
        k = self.joint.shape[0]
        idx = self.train_idx
        if not all(_is_int(i) and 0 <= i < k for i in idx) or len(set(idx)) != len(idx):
            raise ValueError(f"train_idx must list distinct integer domain indices in [0, {k})")
        if not idx or len(idx) >= k:
            raise ValueError("train_idx must be a nonempty proper subset of domains")
        if self.label_family.num_outputs != self.joint.shape[2]:
            raise ValueError("label_family outputs must equal the number of classes")
        if self.domain_family is not None and (
            self.domain_family.num_outputs != k or self.domain_family.dim != self.label_family.dim
        ):
            raise ValueError("domain_family needs one output per domain and the points' dim")
        head, size = self.head_index, len(self.label_family)
        if head is not None and not (_is_int(head) and 0 <= head < size):
            raise ValueError(
                f"head_index must be an integer in [0, {size}), the size of label_family")

    @property
    def num_domains(self):
        return self.joint.shape[0]

    @property
    def num_classes(self):
        return self.joint.shape[2]

    @property
    def test_idx(self):
        train = set(self.train_idx)
        return tuple(i for i in range(self.num_domains) if i not in train)

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
        inst = cls(**fields)
        # finite parameters near the float limit can still overflow the scores
        with np.errstate(over="ignore", invalid="ignore"):
            for name in ("label_family", "domain_family"):
                family = fields[name]
                if family is not None and not np.isfinite(family.scores(inst.points)).all():
                    raise ValueError(f"field {name!r}: its scores on the points are not finite")
        return inst


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# -- exact evaluation --------------------------------------------------------------


def _miss_mass(preds, tables, correct):
    """Mass each row of ``preds`` ``(P, m)`` misclassifies in each of the
    ``K`` distributions ``tables`` ``(K, m, C)``, where column ``c`` of
    distribution ``k`` is right for output ``correct[k, c]``: ``(P, K)``.
    Each sum sees its own row and distribution only, so a probe's loss is
    the same inside a search (``P > 1``) as alone, whatever else is summed."""
    miss = preds[:, None, :, None] != correct[None, :, None, :]
    return (tables * miss).sum(axis=(2, 3))


def _label_table(inst, preds=None):
    """Exact expected 0-1 loss in each domain of each row of predictions
    ``preds`` ``(P, m)``, by default the label family's: ``(P, K)``."""
    if preds is None:
        preds = inst.label_family.predict(inst.points)
    return _miss_mass(preds, inst.joint, np.arange(inst.num_classes)[None, :])


def _subset_error(losses, subsets):
    """Equal-weight average of the per-domain ``losses`` ``(P, K)`` over one
    subset, ``(P,)``, or over each of a stack of equal-size subsets,
    ``(P, S)``: the sum over the count, as ``ndarray.mean`` takes it."""
    idx = np.asarray(list(subsets))
    if idx.shape[-1] == 0:
        raise ValueError("domain subset must be nonempty")
    return losses[:, idx].sum(axis=-1) / idx.shape[-1]


def _domain_weights(inst, domain_subset, tasks):
    """The point distribution of each domain of an ordered subset for each
    task, ``(T, |A|, m)``: task ``None`` takes the marginals, and task ``y``
    the conditionals on class ``y``, all divided out in one step.  When the
    tasks are every class in order, over every domain in order, nothing is
    gathered or scattered: the joint is divided by its priors as it is."""
    every = (list(tasks) == list(range(inst.num_classes))
             and list(domain_subset) == list(range(inst.num_domains)))
    joint = inst.joint if every else inst.joint[list(domain_subset)]
    classes = [y for y in tasks if y is not None]
    pri = joint.sum(axis=1) if every else joint.sum(axis=1)[:, classes]
    zero = pri <= 0
    if zero.any():
        raise ValueError(
            f"class {classes[int(np.argmax(zero.any(axis=0)))]} has zero prior in some "
            "domain; the conditional metric is undefined"
        )
    if every:
        return (joint / pri[:, None, :]).transpose(2, 0, 1)
    weights = np.empty((len(tasks),) + joint.shape[:2])
    weights[[t for t, y in enumerate(tasks) if y is not None]] = (
        joint[:, :, classes] / pri[:, None, :]
    ).transpose(2, 0, 1)
    if len(classes) < len(tasks):
        weights[[t for t, y in enumerate(tasks) if y is None]] = joint.sum(axis=2)
    return weights


def _domain_errors(preds, weights):
    """Exact expected domain-classification 0-1 loss of each row of
    predictions ``(P, m)`` in each task of ``weights`` ``(T, |A|, m)``,
    ``(P, T)``: a task's domain at position a carries target label a, and
    its error is the mean over its domains; see ``eval_G``."""
    tasks, size, m = weights.shape
    correct = np.tile(np.arange(size), tasks)[:, None]
    losses = _miss_mass(preds, weights.reshape(tasks * size, m, 1), correct)
    return losses.reshape(-1, tasks, size).sum(axis=2) / size


def eval_F(inst, domain_subset, probe):
    """Equal-weight average over the subset of the exact expected 0-1 loss.

    This is the one-probe form of a label-table entry: for probe ``i`` of
    the label family it equals ``_subset_error(_label_table(inst), subset)[i]``
    bit for bit.  The checks read the table; ``eval_F`` scores any probe."""
    losses = _label_table(inst, probe.predict(inst.points)[None])
    return float(_subset_error(losses, domain_subset)[0])


def eval_G(inst, domain_subset, probe, conditional_class=None):
    """Exact expected domain-classification 0-1 loss over an ordered subset.

    Domain at position k in the subset carries target label k.  With
    ``conditional_class`` the expectation conditions each domain on that class.
    """
    weights = _domain_weights(inst, domain_subset, (conditional_class,))
    return float(_domain_errors(probe.predict(inst.points)[None], weights)[0, 0])


def _argmin(errs):
    idx = int(np.argmin(errs))
    return float(errs[idx]), idx


def _best_label(losses, subset):
    return _argmin(_subset_error(losses, subset))


def _head(inst, losses):
    """The trained head's training error and index, and the family's least
    training error."""
    errs = _subset_error(losses, inst.train_idx)
    best, idx = _argmin(errs)
    if inst.head_index is not None:
        idx = inst.head_index
    return float(errs[idx]), idx, best


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
    somewhere, from ``_domain_weights``."""
    pri = inst.priors()
    reason, classes = None, []
    for y in range(inst.num_classes):
        if pri[:, y].sum() <= _EXACT_TOL:  # class carries no mass anywhere
            continue
        if (pri[:, y] <= _EXACT_TOL).any():
            reason = f"precondition not met: class {y} prior vanishes in some domain only"
            break
        classes.append(y)
    return reason, list(zip(classes, _domain_weights(inst, range(inst.num_domains), classes)))


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
    best, _ = _best_label(_label_table(inst), range(inst.num_domains))
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
    losses = _label_table(inst)
    e0, head_idx, _ = _head(inst, losses)
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
    e3 = float(_subset_error(losses, inst.test_idx)[head_idx])
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
    all_domains = tuple(range(inst.num_domains))
    losses = _label_table(inst)
    test_errs = _subset_error(losses, inst.test_idx)
    e1, _ = _argmin(test_errs)
    e2 = float(test_errs[_best_label(losses, all_domains)[1]])
    e0, head_idx, best_train = _head(inst, losses)
    e3 = float(test_errs[head_idx])
    head_minimizes = e0 <= best_train + _EXACT_TOL
    entries = [_ordering("e1_le_e2", e1, e2, True), _ordering("e2_le_e3", e2, e3, head_minimizes)]
    if inst.domain_family is not None:
        k = inst.num_domains
        pri = inst.priors()
        # the marginals, then (when every prior is positive) each class's
        # conditionals, all searched at once
        tasks = (None, *range(inst.num_classes)) if (pri > 0).all() else (None,)
        weights = _domain_weights(inst, all_domains, tasks)
        best = _domain_errors(inst.domain_family.predict(inst.points), weights).min(axis=0)
        d1 = 1.0 - float(best[0]) - 1.0 / k
        d2 = 1.0 - float(np.mean(best[1:])) - 1.0 / k if len(best) > 1 else None
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


def check_partition_expectation(inst):
    """Average both metrics over every balanced train/test split of the
    instance's domains, each side holding ``len(inst.train_idx)`` domains.

    The head for each split is the family minimizer of the training error, so
    the averaged training error can never exceed the averaged best target
    separability error when splits are balanced.
    """
    k, n1 = inst.num_domains, len(inst.train_idx)
    if k != 2 * n1:
        raise ValueError("the domain count must be twice the training domain count "
                         "(balanced splits)")
    if comb(k, n1) > _MAX_SUBSETS:
        raise ValueError(
            f"subset count {comb(k, n1)} exceeds the enumeration guard {_MAX_SUBSETS}")
    train = list(itertools.combinations(range(k), n1))
    test = [tuple(i for i in range(k) if i not in s) for s in train]
    # every split's family minimum at once: the error _best_label finds
    losses = _label_table(inst)
    e0s = _subset_error(losses, train).min(axis=0)
    e1s = _subset_error(losses, test).min(axis=0)
    mean_e0 = float(np.mean(e0s))
    mean_e1 = float(np.mean(e1s))
    return PartitionExpectationReport(len(train), mean_e0, mean_e1, mean_e0 <= mean_e1 + 1e-9)


# -- random instance constructors ------------------------------------------------------

_FAMILY_SIZE = 20  # probes per family of a random_instance
_DIM = 2  # the points' dim in every constructed instance
# the precondition-satisfying instances' probes per family and domains
_PREMISE_FAMILY_SIZE, _PREMISE_DOMAINS = 12, 3


def _random_family(rng, num_outputs, dim, size):
    # the constants, then random probes, each drawing its weights and then its bias;
    # spread * standard_normal is rng.normal(0.0, spread) bit for bit
    k = num_outputs
    draws = rng.standard_normal((size, k * (dim + 1)))
    weights = np.zeros((k + size, k, dim))
    weights[k:] = draws[:, : k * dim].reshape(size, k, dim) * 1.5
    bias = np.eye(k + size, k)
    bias[k:] = draws[:, k * dim :] * 0.5
    return FiniteProbeFamily(weights, bias)


def random_instance(seed, n_domains=4, n_train=2, n_points=8, num_classes=2, uniform_priors=True):
    """A generic random instance: random support, random probability tables,
    random probe families.  Uniform priors give each class exactly 1/C mass
    in every domain."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    points = rng.normal(0.0, 1.0, size=(n_points, _DIM))
    label_family = _random_family(rng, num_classes, _DIM, _FAMILY_SIZE)
    domain_family = _random_family(rng, n_domains, _DIM, _FAMILY_SIZE)
    # per domain, its class priors (when skewed) and then one point distribution
    # per class, drawn in class order
    if uniform_priors:
        pri = np.full((n_domains, num_classes), 1.0 / num_classes)
        cond = rng.dirichlet(np.ones(n_points), size=(n_domains, num_classes))
    else:
        pri = np.empty((n_domains, num_classes))
        cond = np.empty((n_domains, num_classes, n_points))
        for i in range(n_domains):
            p = rng.dirichlet(np.ones(num_classes)) * 0.6 + 0.4 / num_classes
            pri[i] = p / p.sum()
            cond[i] = rng.dirichlet(np.ones(n_points), size=num_classes)
    joint = (pri[:, :, None] * cond).transpose(0, 2, 1)
    train_idx = tuple(sorted(rng.choice(n_domains, size=n_train, replace=False).tolist()))
    return PartitionInstance(points, joint, train_idx, label_family, domain_family)


def _labelled_points(rng, n_points, num_classes):
    """Points, a random family and the labels a random member gives them,
    redrawn (at most 64 times) until two classes appear."""
    for _ in range(64):
        points = rng.normal(0.0, 1.0, size=(n_points, _DIM))
        family = _random_family(rng, num_classes, _DIM, _PREMISE_FAMILY_SIZE)
        labels = family[int(rng.integers(len(family)))].predict(points)
        if labels.min() != labels.max():
            break
    return points, family, labels


def make_prop1_instance(seed, n_points=8, num_classes=2):
    """Precondition-satisfying instance: one shared point marginal for every
    domain and labels assigned by a family probe (so a common zero-error
    classifier exists by construction)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 102)))
    points, family, labels = _labelled_points(rng, n_points, num_classes)
    joint_one = np.zeros((n_points, num_classes))
    joint_one[np.arange(n_points), labels] = rng.dirichlet(np.ones(n_points))
    joint = np.repeat(joint_one[None, :, :], _PREMISE_DOMAINS, axis=0)
    return PartitionInstance(points, joint, (0,), family, None)


def make_prop2_instance(seed, n_points=8, num_classes=2):
    """Precondition-satisfying instance: class-conditional point distributions
    shared across domains (class priors may differ), labels realizable with
    zero error by a family probe.  All domains but the last are training
    domains."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 103)))
    points, family, labels = _labelled_points(rng, n_points, num_classes)
    present = np.unique(labels)
    cond = np.zeros((num_classes, n_points))
    for y in present:
        mask = labels == y
        cond[y, mask] = rng.dirichlet(np.ones(int(mask.sum())))
    pri = rng.dirichlet(np.ones(present.size), size=_PREMISE_DOMAINS) * 0.6 + 0.4 / present.size
    pri = pri / pri.sum(axis=1, keepdims=True)
    joint = np.zeros((_PREMISE_DOMAINS, n_points, num_classes))
    joint[:, :, present] = pri[:, None, :] * cond[present].T
    return PartitionInstance(points, joint, tuple(range(_PREMISE_DOMAINS - 1)), family, None)


# -- randomized suites -----------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    proposition: str
    trials: int
    gated_out: int
    passed: int
    failed: int
    counterexample: dict = None


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
    "partition": lambda t, t_seed: check_partition_expectation(random_instance(
        t_seed, n_domains=2 * (2 + t % 2), n_train=2 + t % 2, n_points=6 + t % 4)),
}
SUITES = tuple(_TRIALS)
# trial t of a run with seed s draws its instance from seed (s << 20) + t, so a longer run
# would reach the instances of seed s + 1
MAX_TRIALS = 1 << 20


def run_suite(name, trials, seed=0):
    """Run one proposition suite over randomized instances.

    Every gated-in trial must pass its conclusion; a single failure is a
    defect because the statements are theorems.
    """
    if not (_is_int(trials) and 1 <= trials <= MAX_TRIALS):
        raise ValueError(f"trials must be a positive integer, at most {MAX_TRIALS} (more would "
                         f"reuse the next seed's instances), got {trials!r}")
    if name not in _TRIALS:
        raise ValueError(f"unknown suite {name!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    # as Python ints, so a numpy integer argument serializes like a plain one
    trials, seed = int(trials), int(seed)
    gated_out = passed = failed = 0
    counterexample = None
    for t in range(trials):
        t_seed = seed * MAX_TRIALS + t
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
