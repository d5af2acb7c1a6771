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
region membership, quota augmentation, quota validation and enumeration
all ask it, so none of them is exponential in K.  Only
:func:`capacity_constraints`, which lists every inequality, is; it keeps
a hard user cap.

The cutset bound function is a monotone submodular set function, which
is what makes the greedy augmentation in :func:`augment_quotas` safe: the
integer points below it form a polymatroid, so any maximal greedy
extension reaches total N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import NotInRegionError, SingleUserError, TooLargeError, TooManyUsersError

MAX_USERS = 20  # capacity_constraints lists 2^K - 1 cutsets
ENUM_MAX_USERS = 6
ENUM_MAX_NODES = 12

Rate = Fraction  # rates may be rational; integer tuples use plain ints


@dataclass(frozen=True)
class AccessStructure:
    """The node subsets each user can read.

    Users are numbered 1..K and nodes 1..N.  N is defined as the size of
    the union, and the union must cover 1..N without gaps (a node nobody
    reads cannot store anything useful).
    """

    sets: tuple  # tuple of frozensets of 1-indexed node ids

    def __post_init__(self):
        if not self.sets:
            raise ValueError("need at least one user")
        sets = tuple(frozenset(s) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        union = frozenset().union(*sets)
        if not union or any(s == frozenset() for s in sets):
            raise ValueError("every user needs a nonempty access set")
        if min(union) < 1 or union != frozenset(range(1, len(union) + 1)):
            raise ValueError("access sets must cover 1..N with no gaps")

    @classmethod
    def of(cls, sets: Iterable[Iterable[int]]) -> "AccessStructure":
        return cls(tuple(frozenset(s) for s in sets))

    @property
    def K(self) -> int:
        return len(self.sets)

    @property
    def N(self) -> int:
        return len(frozenset().union(*self.sets))

    def user_set(self, k: int) -> frozenset:
        """Access set of user k (1-indexed)."""
        return self.sets[k - 1]

    def sorted_set(self, k: int) -> list[int]:
        """Access set of user k as an ascending node list; position i of
        this list is the scheme's i-th evaluation slot for the user."""
        return sorted(self.sets[k - 1])

    def union_size(self, users: Iterable[int]) -> int:
        members = [self.sets[k - 1] for k in users]
        return len(frozenset().union(*members)) if members else 0


@dataclass(frozen=True)
class Constraint:
    """One linear inequality of the rate region: sum of rates <= bound."""

    kind: str  # "pairwise" or "cutset"
    users: tuple  # users whose rates are summed (pairwise: a single user)
    bound: int

    def lhs(self, rates: Sequence) -> Fraction:
        return sum((Fraction(rates[k - 1]) for k in self.users), Fraction(0))

    def satisfied(self, rates: Sequence) -> bool:
        return self.lhs(rates) <= self.bound

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
    mine = acc.user_set(k)
    return min(len(mine - acc.user_set(j)) for j in range(1, acc.K + 1) if j != k)


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

    Users are routed one at a time along shortest residual paths.  A user
    that cannot reach the sink never can again after later augmentations,
    so once every user has been routed the flow is maximum.  Users are
    0-indexed here.
    """

    def __init__(self, acc: AccessStructure, demand: Sequence[int], unit: int = 1):
        self.sets = [acc.sorted_set(k) for k in range(1, acc.K + 1)]
        self.unit = unit
        self.load = [0] * (acc.N + 1)  # flow into the sink through node n
        self.held = [{} for _ in range(acc.N + 1)]  # node -> {user: flow}
        self.unmet = [d - self.route(k, d) for k, d in enumerate(demand)]

    @property
    def saturated(self) -> bool:
        return not any(self.unmet)

    def _search(self, starts: Sequence[int]) -> tuple:
        """Breadth-first search of the residual graph from ``starts``.

        Returns ``(path, reached)``.  ``path`` lists the hops of a
        shortest path to the sink, last hop first, as ``(user, node it
        gains, node it gives up or None)``, or is None when the sink is
        out of reach.  ``reached`` maps each reached user to the node
        through which it was reached.
        """
        reached = dict.fromkeys(starts)
        parent: dict = {}  # node -> user it was reached from
        queue = list(starts)
        for u in queue:
            for n in self.sets[u]:
                if n in parent:
                    continue
                parent[n] = u
                if self.load[n] < self.unit:
                    path = []
                    while n is not None:
                        u = parent[n]
                        path.append((u, n, reached[u]))
                        n = reached[u]
                    return path, reached
                for j in self.held[n]:
                    if j not in reached:
                        reached[j] = n
                        queue.append(j)
        return None, reached

    def route(self, k: int, amount: int) -> int:
        """Send up to ``amount`` more units from user k; returns how many went."""
        sent = 0
        while sent < amount:
            path, _ = self._search([k])
            if path is None:
                break
            sink_node = path[0][1]
            delta = min(
                amount - sent,
                self.unit - self.load[sink_node],
                *(self.held[old][u] for u, _, old in path if old is not None),
            )
            for u, new, old in path:
                self.held[new][u] = self.held[new].get(u, 0) + delta
                if old is not None:
                    self.held[old][u] -= delta
                    if not self.held[old][u]:
                        del self.held[old][u]
            self.load[sink_node] += delta
            sent += delta
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
    """
    if len(rates) != acc.K:
        raise ValueError(f"expected {acc.K} rates, got {len(rates)}")
    rates = [Fraction(r) for r in rates]
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
                return rejected(Constraint("pairwise", (k,), bound))
    unit = lcm(*(r.denominator for r in rates))
    flow = _CutsetFlow(acc, [int(r * unit) for r in rates], unit)
    if not flow.saturated:
        users = flow.min_cut_users()
        return rejected(Constraint("cutset", users, acc.union_size(users)))
    return RegionReport(ok=True, pairwise_vacuous=acc.K == 1, checked=checked)


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
        NotInRegionError: rates are not integers or fail the region test.
    """
    if len(rates) != acc.K:
        raise ValueError(f"expected {acc.K} rates, got {len(rates)}")
    if any(int(r) != Fraction(r) for r in rates):
        raise NotInRegionError(f"augmentation needs integer rates, got {tuple(rates)}")
    report = in_capacity_region(acc, rates)
    if not report.ok:
        raise NotInRegionError(report.describe())
    quotas = [int(r) for r in rates]
    flow = _CutsetFlow(acc, quotas)
    for k in range(acc.K):
        quotas[k] += flow.route(k, acc.N)
    if sum(quotas) != acc.N:
        raise AssertionError("greedy augmentation stuck below N; region check is broken")
    return tuple(quotas)


def validate_quotas(acc: AccessStructure, rates: Sequence[int], quotas: Sequence[int]) -> bool:
    """Check the three augmentation invariants for an explicit tuple."""
    if len(quotas) != acc.K or any(int(x) != x or x < 0 for x in quotas):
        return False
    if any(p < r for p, r in zip(quotas, rates)):
        return False
    if sum(quotas) != acc.N:
        return False
    return _CutsetFlow(acc, [int(x) for x in quotas]).saturated


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
