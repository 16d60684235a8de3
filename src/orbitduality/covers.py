"""Nilpotent covers as subgroups of the component group: rigidity criteria,
the component-group maps along one-step column removals, the duality map on
marked data with its cover degree, and the two independent computations of
the Galois group of the maximal equivalent cover.
"""

from collections import namedtuple

from .partitions import EPSILON, SIZE_PARITY, is_very_even, size
from .orbits import Orbit, dual_orbit, induce
from .compgroups import (
    MARK_PARITY,
    MarkedPartition,
    a_group_elements,
    abar_rank,
    canonical_split,
    distinct_eps_values,
    group_data,
    kernel_subgroup,
    multiset_difference,
)
from .sommers import (
    _sommers_dual,
    _strip_tuples,
    require_reduced,
    sat_inverse,
    sat_la,
    sommers_dual,
)
from .infchar import _route_pair, nu0_eta0


class CoverSpec(namedtuple("CoverSpec", "base degree subgroup", defaults=(None,))):
    """A cover of `base` given by a subgroup of A(base); `degree` is the index.

    `subgroup` is None when only the degree (not the subgroup itself) is
    known: transporting subgroups through a non-birational induction step is
    not part of this computation.
    """
    __slots__ = ()


class RigidityFlags(namedtuple("RigidityFlags", "no_codim2_leaves h2_zero")):
    __slots__ = ()

    @property
    def birationally_rigid(self):
        return self.no_codim2_leaves and self.h2_zero


def _gap_after(lam, i):
    nxt = lam[i + 1] if i + 1 < len(lam) else 0
    return lam[i] - nxt


def rigidity(orbit, subgroup):
    """Rigidity of the cover of `orbit` attached to `subgroup`.

    No codimension-2 leaves: every row gap is at most 2, gaps of 2 occur only
    at rows of the unconstrained parity, and for each such gap the subgroup
    misses the product of the two involutions straddling it.  Vanishing
    second cohomology: for every unconstrained value of multiplicity exactly
    2 the subgroup contains an element supported on it.
    """
    lam, eps = orbit.parts, EPSILON[orbit.kind]
    no_leaves = True
    for i in range(len(lam)):
        gap = _gap_after(lam, i)
        if gap > 2:
            no_leaves = False
            break
        if gap == 2:
            if lam[i] % 2 == eps:
                no_leaves = False
                break
            lower = lam[i] - 2
            forbidden = frozenset({lam[i], lower} if lower else {lam[i]})
            if forbidden in subgroup:
                no_leaves = False
                break
    h2 = True
    for v in distinct_eps_values(lam, orbit.kind):
        if lam.count(v) == 2:
            if not any(v in g for g in subgroup):
                h2 = False
                break
    return RigidityFlags(no_leaves, h2)


def lusztig_cover(orbit):
    """The cover attached to the kernel of A(O) ->> Abar(O)."""
    n = kernel_subgroup(orbit.parts, orbit.kind)
    return CoverSpec(orbit, 2 ** abar_rank(orbit.parts, orbit.kind), n)


# ---------------------------------------------------------------------------
# component-group maps along a single column-pair removal


def singular_rows(lam):
    """Row indices m (1-based) with lam_m - lam_{m+1} >= 2."""
    return tuple(i + 1 for i in range(len(lam)) if _gap_after(lam, i) >= 2)


def phi_data(lam, kind, m):
    """The map A(O_lam) -> A(O_lam0) for the removal of two columns of
    length m, where lam0 is lam with its first m rows shortened by 2.

    Values strictly above the cut shift down by 2 and values below persist;
    this matches the two component groups generator-for-generator except when
    row m has the unconstrained parity and the gap below it is exactly 2, in
    which case the removed value falls onto the value just below the cut (or
    onto the identity when nothing lies below).  Returns the mapping, which
    sends each distinct value of lam^eps to the support of its image in
    A(O_lam0).
    """
    if m not in singular_rows(lam):
        raise ValueError("row %d is not singular in %s" % (m, lam))
    lam0 = tuple(v for v in sorted((x - 2 if i < m else x for i, x in enumerate(lam)),
                                   reverse=True) if v)
    vals = distinct_eps_values(lam, kind)
    v_cut = lam[m - 1]
    mapping = {}
    for v in vals:
        target = v - 2 if v >= v_cut else v
        mapping[v] = frozenset({target}) if target >= 1 else frozenset()
    vals0 = set(distinct_eps_values(lam0, kind))
    for v, img in mapping.items():
        if img and not img <= vals0:
            raise ValueError("phi image %s not a generator of %s" % (set(img), lam0))
    return mapping


def _apply_map(mapping, element):
    out = frozenset()
    for v in element:
        out ^= mapping.get(v, frozenset())
    return out


# ---------------------------------------------------------------------------
# the duality map on marked data


class ChainStep(namedtuple("ChainStep", "a datum induced")):
    """Saturation of `datum` by one principal gl(a); `induced` is the
    induction of D(datum) from gl(a), which equals D of the saturated datum."""
    __slots__ = ()


def _induce_dual(a, dual, m):
    """One saturation step onto the datum m: `dual`, the dual of m without
    one gl(a) pair, induced from gl(a) and checked against D(m).  Returns
    (induced, D(m))."""
    induced = induce([(1,) * a], dual)
    # m differs from a reduced datum by (a, a) pairs, and a pair moves the
    # height of each mark by 0 or 2, so m is reduced as well
    dual = _sommers_dual(m, "general")
    if induced.orbit.parts != dual.parts:
        raise ValueError("induction/duality mismatch at gl(%d) onto %s" % (a, m))
    return induced, dual


def saturation_chain(m):
    """The duality map along the saturation chain of a reduced marked datum.

    Strip the gl factors down to the distinguished core, dualize it, then
    saturate back one gl(a) at a time, largest first, inducing the dual
    alongside and checking it against the dual of each saturated datum.
    Returns (D(core), steps).
    """
    require_reduced(m)
    gl, cur = sat_inverse(m)
    core_dual = dual = sommers_dual(cur, route="general")
    steps = []
    for a in sorted(gl, reverse=True):
        nxt = sat_la([(a,)], cur)
        induced, dual = _induce_dual(a, dual, nxt)
        steps.append(ChainStep(a, cur, induced))
        cur = nxt
    return core_dual, steps


def chain_degree(core_dual, steps):
    """The dual cover degree along a walked chain: the core's quotient order,
    doubled once per non-birational induction step."""
    return 2 ** (abar_rank(core_dual.parts, core_dual.kind)
                 + sum(not s.induced.birational for s in steps))


def d_map(m):
    """Dual cover of a reduced marked datum: the Lusztig cover of the core's
    dual, birationally induced up the stripped gl factors.

    The base, D(m) with its decoration, and the degree (`chain_degree`) are
    always computed; the subgroup only when every step is birational.
    """
    core_dual, steps = saturation_chain(m)
    base, subgroup = core_dual, kernel_subgroup(core_dual.parts, core_dual.kind)
    exact = True
    for step in steps:
        base = step.induced.orbit
        if not step.induced.birational:
            exact = False
        elif step.induced.collapsed:
            exact = False  # birational type-D collapse: degree 1, map not tracked
        elif exact:
            subgroup = _transport_subgroup(base, step.a, subgroup)
    if m.decoration:
        base = dual_orbit(m.kind, size(m.lam), m.decoration, base.parts)
    return CoverSpec(base, chain_degree(core_dual, steps), subgroup if exact else None)


def _transport_subgroup(big, a, subgroup):
    """Pull a subgroup of A(small) back to A(big), where big is small plus
    two columns of length a, added birationally and with no collapse."""
    mapping = phi_data(big.parts, big.kind, a)
    return frozenset(g for g in a_group_elements(big)
                     if _apply_map(mapping, g) in subgroup)


# ---------------------------------------------------------------------------
# the two Galois-group computations


class MSLift(namedtuple("MSLift", "factor1 factor2")):
    """The pseudo-Levi pair attached to a marked datum: two classical factors
    with one orbit each."""
    __slots__ = ()


# Per type: the kinds of the two factors of the pseudo-Levi pair, the marked
# side first.
PSEUDO_LEVI = {"B": ("D", "B"), "C": ("C", "C"), "D": ("D", "D")}


def ms_lift(m, splits=None):
    """Sat-route of the pseudo-Levi pair: the minimal split of the core with
    one row pair per stripped gl factor, routed by parity.  `splits` is the
    core-split memo of `infchar._core_split`; a run that compares this
    route with `oracle.richardson_pair` gives each its own."""
    nu0, eta0 = nu0_eta0(m, splits)
    k1, k2 = PSEUDO_LEVI[m.kind]
    return MSLift(Orbit(k1, size(nu0), nu0), Orbit(k2, size(eta0), eta0))


def chain_rank(core_dual, steps):
    """The Galois rank along a walked chain: the adjoint component-group rank
    of the core's dual plus one per non-birational induction step."""
    return group_data(core_dual).a_ad_rank + sum(not s.induced.birational for s in steps)


def gamma_group_rank(m):
    """log2 of the Galois group of the maximal equivalent cover over the dual
    orbit (`chain_rank` of its saturation chain)."""
    return chain_rank(*saturation_chain(m))


def _pair_abar_rank(kind, split):
    """log2 of Abar of the pseudo-Levi pair orbit of a split (nu0, eta0) of
    a type-`kind` datum: the sum over the two factors."""
    return sum(abar_rank(parts, k) for parts, k in zip(split, PSEUDO_LEVI[kind]))


def abar_r_rank(m):
    """log2 of Abar of the pseudo-Levi pair orbit (sum over the two factors)."""
    lift = ms_lift(m)
    return _pair_abar_rank(m.kind, (lift.factor1.parts, lift.factor2.parts))


StepFlags = namedtuple("StepFlags", "abar_changes bind_birational")


def _step_flags(a, lam, kind, nu0, eta0):
    """Effect of saturating a type-`kind` datum with rows `lam` and split
    `(nu0, eta0)` (`nu0_eta0`) by one gl(a) with principal orbit.

    `abar_changes`: the pseudo-Levi pair component group gains a factor of
    order 2.  `bind_birational`: the dual-side induction step is birational.
    When a is a row of lam, the group keeps its order and the step is
    birational.  Otherwise both read the height of a: in eta0 when a has
    the mark parity, in nu0 when not.  A height counts the rows v >= a, and
    v > a counts the same rows: nu0 and eta0 split lam, which has no row a.
    """
    if a in lam:
        return StepFlags(False, True)
    if a % 2 != MARK_PARITY[kind]:
        return StepFlags(False, sum(1 for v in nu0 if v >= a) % 2 == 0)
    eta_cond = sum(1 for v in eta0 if v >= a) % 2 == SIZE_PARITY[kind]
    blocked = kind == "D" and (not lam or is_very_even(lam))
    return StepFlags(eta_cond and (kind != "D" or bool(eta0)), not eta_cond or blocked)


# ---------------------------------------------------------------------------
# the saturation chains of a family, each step walked once


class ChainEntry(namedtuple("ChainEntry", "dual rank degree_log2 split")):
    """What a `ChainTable` keeps of a datum: its dual D(m), its Galois rank
    (`chain_rank`), log2 of its cover degree (`chain_degree`) and its split
    (`nu0_eta0`)."""
    __slots__ = ()


class ChainTable:
    """Saturation chains of reduced marked data, built bottom-up.

    A distinguished core's entry holds its dual and its canonical split.
    Any other datum's predecessor is the datum without its smallest gl pair,
    the last step `saturation_chain` takes, and its entry comes from the
    predecessor's: the dual induced from gl(a) and checked against D(m), the
    rank and the degree exponent one higher when the step is non-birational,
    and the split with one routed (a, a) pair.  A table is made for one run
    of a suite and keeps nothing else.
    """

    def __init__(self):
        self.entries = {}

    def fill(self, m):
        """Enter m, and first each predecessor it needs that is not entered
        yet.  Returns (datum, last step) for every datum entered, in the order
        entered, the last step None for a core; [] when m was entered before.
        """
        if m in self.entries:
            return []
        gl, _ = _strip_tuples(m)
        if not gl:
            # the table's data are reduced (`iter_special`), and so are
            # their predecessors, by the reason in `_induce_dual`
            dual = _sommers_dual(m, "general")
            self.entries[m] = ChainEntry(dual, group_data(dual).a_ad_rank,
                                         abar_rank(dual.parts, dual.kind), canonical_split(m))
            return [(m, None)]
        a = gl[-1]
        pred = MarkedPartition(m.kind, multiset_difference(m.lam, (a, a)), m.nu)
        entered = self.fill(pred)
        prev = self.entries[pred]
        induced, dual = _induce_dual(a, prev.dual, m)
        up = not induced.birational
        self.entries[m] = ChainEntry(dual, prev.rank + up, prev.degree_log2 + up,
                                     _route_pair(m.kind, prev.split, a))
        entered.append((m, ChainStep(a, pred, induced)))
        return entered
