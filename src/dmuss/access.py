"""Access structures and the achievable-rate region.

A scheme instance is K users, each reading a subset of the N storage
nodes.  A rate tuple is feasible iff it satisfies two families of
constraints:

* pairwise: user k's rate is at most the smallest number of nodes k keeps
  to itself relative to any single other user, ``min |A_k \\ A_j|``;
* cutset: any group of users cannot jointly receive more symbols than the
  number of nodes they touch, ``sum R_i <= |union of their sets|``.

The pairwise family has K members and is checked directly.  The cutset
family has 2^K - 1 members but is never enumerated to test membership:
by max-flow/min-cut it holds iff a flow from a source through the users
(user k taking R_k) and the nodes each user reads into a sink (one unit
per node) saturates every user.  :class:`_CutsetFlow` is that flow, and
region membership, quota augmentation, quota validation, enumeration and
the reserved blocks of :mod:`dmuss.sdr` all ask it, so none of them is
exponential in K.  Only :func:`capacity_constraints`, which lists every
inequality, is; it keeps a hard user cap.  Its one augmenting-path search
is depth-first, free nodes before full ones, and runs in capacity-scaling
phases, since plain depth-first search can take a number of searches that
grows with the rates' common denominator d: O(E log d) per user.

The cutset bound function is a monotone submodular set function, which
is what makes the greedy augmentation in :func:`augment_quotas` safe: the
integer points below it form a polymatroid, so any maximal greedy
extension reaches total N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_
from typing import Iterable, Sequence, Sized

from .errors import NotInRegionError, SingleUserError, TooLargeError, TooManyUsersError

MAX_USERS = 20  # capacity_constraints lists 2^K - 1 cutsets
ENUM_MAX_USERS = 6
ENUM_MAX_NODES = 12

Rate = Fraction  # rates may be rational; integer tuples use plain ints


@dataclass(frozen=True)
class AccessStructure:
    """The node subsets each user can read.

    Users are numbered 1..K and nodes 1..N; node ids are ints, not
    bools.  N is defined as the size of the union, and the union must
    cover 1..N without gaps (a node nobody reads cannot store anything
    useful).

    ``masks[k-1]`` holds user k's set as an int with bit n set for each
    node n: set differences and unions are then one int operation each.
    It and ``N`` are derived from ``sets`` once and are not fields, so
    equality, hashing and ``repr`` see only the sets.
    """

    sets: tuple  # tuple of frozensets of 1-indexed node ids

    def __post_init__(self):
        if not self.sets:
            raise ValueError("need at least one user")
        sets = _frozensets(self.sets)
        if set(map(type, itertools.chain.from_iterable(sets))) - {int}:
            raise ValueError("node ids must be ints")
        object.__setattr__(self, "sets", sets)
        union = frozenset().union(*sets)
        if not union or frozenset() in sets:
            raise ValueError("every user needs a nonempty access set")
        # distinct ints from 1 up to their count are exactly 1..N
        if min(union) < 1 or max(union) != len(union):
            raise ValueError("access sets must cover 1..N with no gaps")
        object.__setattr__(self, "masks", tuple(sum(map((1).__lshift__, s)) for s in sets))
        object.__setattr__(self, "N", len(union))

    @classmethod
    def of(cls, sets: Iterable[Iterable[int]]) -> "AccessStructure":
        return cls(_frozensets(sets))

    @property
    def K(self) -> int:
        return len(self.sets)

    def user_set(self, k: int) -> frozenset:
        """Access set of user k; ValueError unless k is an int (not a bool) in 1..K."""
        if type(k) is not int or not 1 <= k <= len(self.sets):
            raise ValueError(f"no user {k!r}: users are 1..{len(self.sets)}")
        return self.sets[k - 1]

    def sorted_set(self, k: int) -> list[int]:
        """Access set of user k as an ascending node list; position i of
        this list is the scheme's i-th evaluation slot for the user."""
        return sorted(self.user_set(k))

    def union_size(self, users: Iterable[int]) -> int:
        """The number of nodes the ``users`` read together; ValueError
        unless each is an int (not a bool) in 1..K, as :meth:`user_set`."""
        masks = []
        for k in users:
            self.user_set(k)  # ValueError unless k is a user
            masks.append(self.masks[k - 1])
        return reduce(or_, masks, 0).bit_count()


def _frozensets(sets) -> tuple:
    """``sets`` as a tuple of frozensets; ValueError, not TypeError, for
    None or any other value that is not an iterable of node iterables."""
    try:
        return tuple(frozenset(s) for s in sets)
    except TypeError as exc:
        raise ValueError(f"access sets must be iterables of node ids: {exc}") from None


@dataclass(frozen=True)
class Constraint:
    """One linear inequality of the rate region: sum of rates <= bound."""

    kind: str  # "pairwise" or "cutset"
    users: tuple  # users whose rates are summed (pairwise: a single user)
    bound: int

    def lhs(self, rates: Sequence) -> Fraction:
        return sum((Fraction(rates[k - 1]) for k in self.users), Fraction(0))

    def __str__(self):
        terms = " + ".join(f"R{k}" for k in self.users)
        return f"{terms} <= {self.bound} ({self.kind})"


@dataclass
class RegionReport:
    """Outcome of a membership test, naming one violated constraint
    (which one: see :func:`in_capacity_region`)."""

    ok: bool
    violation: Constraint | None = None
    violation_lhs: Fraction | None = None
    pairwise_vacuous: bool = dc_field(default=False)  # K == 1: no other user to hide from
    checked: int = 0

    def describe(self) -> str:
        if self.ok:
            note = " (single user: pairwise bounds vacuous)" if self.pairwise_vacuous else ""
            return f"in region; {self.checked} constraints hold{note}"
        return f"outside region: {self.violation} violated with value {self.violation_lhs}"


def pairwise_bound(acc: AccessStructure, k: int) -> int:
    """min over other users j of |A_k \\ A_j|; needs K >= 2."""
    if acc.K == 1:
        raise SingleUserError("pairwise bound is undefined with a single user")
    acc.user_set(k)  # ValueError unless k is a user
    masks = acc.masks
    mine = masks[k - 1]
    return min([(mine & ~m).bit_count() for m in masks[: k - 1] + masks[k:]])


def capacity_constraints(acc: AccessStructure) -> list[Constraint]:
    """All defining inequalities, in canonical order.

    Pairwise bounds come first (one per user, ascending; omitted when
    K == 1), then cutset bounds for every nonempty user subset ordered by
    size then lexicographically.
    """
    if acc.K > MAX_USERS:
        raise TooManyUsersError(f"K={acc.K} exceeds the supported cap of {MAX_USERS}")
    out: list[Constraint] = []
    if acc.K >= 2:
        for k in range(1, acc.K + 1):
            out.append(Constraint("pairwise", (k,), pairwise_bound(acc, k)))
    for size in range(1, acc.K + 1):
        for users in itertools.combinations(range(1, acc.K + 1), size):
            out.append(Constraint("cutset", users, acc.union_size(users)))
    return out


class _CutsetFlow:
    """Maximum flow certifying the cutset family for a demand tuple.

    Edges run from a source to user k (capacity ``demand[k]``), from user
    k to every node of A_k (uncapacitated) and from each node to a sink
    (capacity ``unit``).  The flow saturates every user iff
    ``sum_{k in S} demand[k] <= unit * |union of A_k over S|`` for every
    group S, that is iff ``demand / unit`` meets every cutset bound.

    Users (0-indexed here) are routed one at a time along :meth:`_search`
    paths.  A user that cannot reach the sink never can again after later
    augmentations, so once every user has been routed the flow is maximum.
    With unit 1 the search order makes ``held`` the canonical blocks.

    A plain depth-first flow is not bounded in ``unit``: 31,858 searches
    for demand (1999973, 1140014, 1068651, 597004) on
    ``[[1,3],[1,2,3,4],[1,2,3],[4]]`` at unit 10^6.  So :meth:`route`
    scales capacities (Edmonds & Karp, J. ACM 1972): phases whose step
    halves from the largest power of two <= ``unit`` to 1 use only
    residual edges of capacity >= step, each augments O(E) times, and a
    user takes O(E log unit) searches.
    """

    def __init__(self, acc: AccessStructure, demand: Sequence[int], unit: int = 1):
        self.sets = [acc.sorted_set(k) for k in range(1, acc.K + 1)]
        self.unit = unit
        self.load = [0] * (acc.N + 1)  # flow into the sink through node n
        self.room = unit * acc.N  # sink capacity left over all nodes
        self.held = [{} for _ in range(acc.N + 1)]  # node -> {user: flow}, maybe 0
        self.unmet = [d - self.route(k, d) for k, d in enumerate(demand)]

    @property
    def saturated(self) -> bool:
        return not any(self.unmet)

    def _search(self, starts: Sequence[int], step: int = 1) -> tuple:
        """Depth-first search from ``starts`` over residual edges of
        capacity >= ``step``.  A user takes its lowest node with room for
        ``step``, or else tries its full nodes ascending and enters the
        users holding >= ``step`` of each.  A node is tried once; a user
        entered again resumes its one node iterator.

        Returns ``(path, reached)``: the hops to the sink, last first, as
        ``(user, node it gains, node it gives up or None)``, or None; and
        the users entered.
        """
        full = self.unit - step  # a node loaded above this has no room
        load, held = self.load, self.held
        order: dict = {}  # user -> its node iterator for this search
        via: dict = {}  # node -> hop (user that tried it, node, node it came in by)
        stack = [(k, None) for k in starts]
        while stack:
            u, old = stack[-1]
            if u not in order:
                free = [n for n in self.sets[u] if load[n] <= full]
                if free:
                    path = [(u, free[0], old)]
                    while path[-1][2] is not None:
                        path.append(via[path[-1][2]])
                    return path, order
                order[u] = iter(self.sets[u])
            for n in order[u]:
                if n not in via:
                    via[n] = u, n, old
                    stack += [(j, n) for j, f in held[n].items() if f >= step]
                    break
            else:
                stack.pop()
        return None, order

    def route(self, k: int, amount: int) -> int:
        """Send up to ``amount`` more units from user k; returns how many went."""
        sent = 0
        step = 1 << (self.unit.bit_length() - 1)
        while step:
            while step <= min(amount - sent, self.room):  # else no path carries step
                path, _ = self._search([k], step)
                if path is None:
                    break
                sink_node = path[0][1]
                backs = [self.held[old][u] for u, _, old in path if old is not None]
                delta = min(amount - sent, self.unit - self.load[sink_node], *backs)
                for u, new, old in path:
                    self.held[new][u] = self.held[new].get(u, 0) + delta
                    if old is not None:
                        self.held[old][u] -= delta
                self.load[sink_node] += delta
                self.room -= delta
                sent += delta
            step >>= 1
        return sent

    def min_cut_users(self) -> tuple:
        """The users on the source side of the minimal minimum cut, 1-indexed.

        They are the users reachable from the source in the residual
        graph: the unique inclusion-minimal group maximising
        ``sum demand - unit * |union of A|``.  Empty iff saturated.
        """
        _, reached = self._search([k for k, m in enumerate(self.unmet) if m])
        return tuple(sorted(k + 1 for k in reached))


def in_capacity_region(acc: AccessStructure, rates: Sequence) -> RegionReport:
    """Membership test for a (possibly rational) rate tuple.

    Pairwise bounds are checked in user order; the cutset family is
    checked by one :class:`_CutsetFlow` on the rates scaled by their
    common denominator.  The report names one violated inequality: the
    first violated pairwise bound if there is one, otherwise the cutset
    of the inclusion-minimal user group with the largest excess
    ``sum R - |union of A|`` (that group is unique).  ``checked`` counts
    every inequality of :func:`capacity_constraints`, whatever the verdict.

    Raises:
        ValueError: not K rates, or one is negative or not a finite number.
    """
    return _region(acc, rates)[0]


def _fractions(acc: AccessStructure, rates: Sequence) -> list:
    """The K rates as Fractions; ValueError for a wrong count, a str or bool,
    None, inf or NaN, or for ``rates`` itself with no length, such as None."""
    if not isinstance(rates, Sized):
        raise ValueError(f"rates must be a sequence, got {type(rates).__name__}")
    if len(rates) != acc.K:
        raise ValueError(f"expected {acc.K} rates, got {len(rates)}")
    try:
        if any(isinstance(r, (str, bool)) for r in rates):  # Fraction reads '1/2' and True
            raise TypeError("a str or bool is not a rate")
        return [Fraction(r) for r in rates]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"rates must be finite numbers, got {tuple(rates)}: {exc}") from None


def _region(acc: AccessStructure, rates: Sequence) -> tuple:
    """:func:`in_capacity_region`'s report and cutset flow (None if pairwise failed)."""
    rates = _fractions(acc, rates)
    if any(r < 0 for r in rates):
        raise ValueError("rates must be nonnegative")
    checked = (acc.K if acc.K >= 2 else 0) + (1 << acc.K) - 1

    def rejected(con: Constraint) -> RegionReport:
        return RegionReport(
            ok=False,
            violation=con,
            violation_lhs=con.lhs(rates),
            pairwise_vacuous=acc.K == 1,
            checked=checked,
        )

    if acc.K >= 2:
        for k in range(1, acc.K + 1):
            bound = pairwise_bound(acc, k)
            if rates[k - 1] > bound:
                return rejected(Constraint("pairwise", (k,), bound)), None
    unit = lcm(*(r.denominator for r in rates))
    flow = _CutsetFlow(acc, [int(r * unit) for r in rates], unit)
    if not flow.saturated:
        users = flow.min_cut_users()
        return rejected(Constraint("cutset", users, acc.union_size(users))), flow
    return RegionReport(ok=True, pairwise_vacuous=acc.K == 1, checked=checked), flow


def augment_quotas(acc: AccessStructure, rates: Sequence[int]) -> tuple:
    """Pad an in-region integer rate tuple up to total N.

    Greedily increments the first user (in index order) whose increment
    keeps every cutset inequality intact, until the total hits N.  The
    cutset bound is a polymatroid rank function, so a valid increment
    always exists before the total reaches N and the greedy never gets
    stuck.  The result dominates ``rates`` componentwise, still satisfies
    every cutset bound, and sums to exactly N.

    The increments run on a flow that saturates ``rates``: user k's +1
    keeps every cutset bound iff an augmenting path leaves user k
    (Berge), and a user without one never regains one, so the greedy
    raises each user in turn for as long as it has a path.

    Raises:
        ValueError: not K rates, or one is not a finite number.
        NotInRegionError: rates are not integers or fail the region test.
    """
    if any(r.denominator != 1 for r in _fractions(acc, rates)):
        raise NotInRegionError(f"augmentation needs integer rates, got {tuple(rates)}")
    report, flow = _region(acc, rates)  # integer rates: the flow has unit 1
    if not report.ok:
        raise NotInRegionError(report.describe())
    quotas = [int(r) for r in rates]
    for k in range(acc.K):
        quotas[k] += flow.route(k, acc.N)
    if sum(quotas) != acc.N:
        raise AssertionError("greedy augmentation stuck below N; region check is broken")
    return tuple(quotas)


def validate_quotas(acc: AccessStructure, rates: Sequence[int], quotas: Sequence[int]) -> bool:
    """Check the three augmentation invariants for an explicit tuple;
    ValueError unless the rates are K finite numbers."""
    rates = _fractions(acc, rates)
    if len(quotas) != acc.K or any(type(x) is not int or x < 0 for x in quotas):
        return False
    if any(p < r for p, r in zip(quotas, rates)):
        return False
    if sum(quotas) != acc.N:
        return False
    return _CutsetFlow(acc, quotas).saturated


def enumerate_integer_region(acc: AccessStructure) -> list:
    """All nonnegative integer rate tuples in the region, lexicographically.

    Depth-first with partial-sum pruning (the grand cutset caps the total
    at N); per-user caps come from the singleton cutset and, when K >= 2,
    the pairwise bound.

    Raises:
        TooLargeError: K > 6 or N > 12.
    """
    if acc.K > ENUM_MAX_USERS or acc.N > ENUM_MAX_NODES:
        raise TooLargeError(
            f"enumeration capped at K <= {ENUM_MAX_USERS}, N <= {ENUM_MAX_NODES};"
            f" got K={acc.K}, N={acc.N}"
        )
    caps = []
    for k in range(1, acc.K + 1):
        cap = len(acc.user_set(k))
        if acc.K >= 2:
            cap = min(cap, pairwise_bound(acc, k))
        caps.append(cap)
    n = acc.N
    out = []
    tup = [0] * acc.K

    def descend(idx: int, total: int):
        if idx == acc.K:
            if _CutsetFlow(acc, tup).saturated:
                out.append(tuple(tup))
            return
        for v in range(min(caps[idx], n - total) + 1):
            tup[idx] = v
            descend(idx + 1, total + v)
        tup[idx] = 0

    descend(0, 0)
    return out
