"""Disjoint node-block selection.

Planning must reserve, for each user k, a block of exactly R'_k nodes
inside that user's access set, with blocks of different users disjoint.
The blocks are a unit flow of :class:`dmuss.access._CutsetFlow` with
demand R'_k at user k, so (Hall's condition) they exist precisely when
the padded tuple meets every cutset bound.  The flow's search order
makes them canonical: users go in index order, one node at a time, and
each search takes a free node (ascending) before displacing earlier
picks (also ascending), so two identical users {1,2}, {1,2} get {1} and
{2}.  Without blocks, the flow's minimum cut names the deficient group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Sized

from .access import AccessStructure, _CutsetFlow
from .errors import NoSdrError


@dataclass(frozen=True)
class DeficiencyCertificate:
    """Witness that no assignment exists: more clones than reachable nodes."""

    clones: tuple  # (user, copy) pairs, copies 1-indexed
    nodes: tuple  # sorted union of the clones' access sets

    @property
    def clone_count(self) -> int:
        return len(self.clones)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def describe(self) -> str:
        users = sorted({k for k, _ in self.clones})
        return (
            f"{self.clone_count} required representatives for users {users} "
            f"share only {self.node_count} nodes {list(self.nodes)}"
        )


@dataclass(frozen=True)
class SdrAssignment:
    """Per-user disjoint node blocks; ``blocks[k-1]`` is user k's block."""

    blocks: tuple  # tuple of frozensets of node ids

    def block(self, k: int) -> frozenset:
        """User k's block; ValueError unless k is an int (not a bool) in 1..K
        (0 would read user K's)."""
        if type(k) is not int or not 1 <= k <= len(self.blocks):
            raise ValueError(f"no user {k!r}: users are 1..{len(self.blocks)}")
        return self.blocks[k - 1]

    def sorted_block(self, k: int) -> list[int]:
        return sorted(self.block(k))


def find_sdr(acc: AccessStructure, quotas: Sequence[int]) -> SdrAssignment:
    """Pick disjoint node blocks within each A_k, with |block k| = R'_k.

    Raises:
        ValueError: the quotas are not K nonnegative ints (or have no
            length, such as None).
        NoSdrError: no such blocks exist; carries a
            :class:`DeficiencyCertificate`: clones 1..min(R'_k, |union| + 1)
            of each user k of the minimal group with the largest excess.
    """
    if not isinstance(quotas, Sized):
        raise ValueError(f"block sizes must be a sequence, got {type(quotas).__name__}")
    if len(quotas) != acc.K:
        raise ValueError(f"expected {acc.K} block sizes, got {len(quotas)}")
    if any(type(r) is not int or r < 0 for r in quotas):
        raise ValueError("block sizes must be nonnegative integers")

    flow = _CutsetFlow(acc, quotas)
    if not flow.saturated:
        users = flow.min_cut_users()
        nodes = tuple(sorted(frozenset().union(*(acc.user_set(k) for k in users))))
        cap = len(nodes) + 1  # copies of one user that already outnumber the nodes
        clones = tuple((k, j) for k in users for j in range(1, min(quotas[k - 1], cap) + 1))
        cert = DeficiencyCertificate(clones=clones, nodes=nodes)
        raise NoSdrError(f"no distinct representatives: {cert.describe()}", cert)
    blocks = [frozenset(n for n, h in enumerate(flow.held) if h.get(k)) for k in range(acc.K)]
    return SdrAssignment(blocks=tuple(blocks))


def validate_sdr(acc: AccessStructure, quotas: Sequence[int], assignment: SdrAssignment) -> bool:
    """True iff blocks sit inside their access sets, have the required
    sizes, and are pairwise disjoint."""
    if len(assignment.blocks) != acc.K or len(quotas) != acc.K:
        return False
    seen: set = set()
    for k in range(1, acc.K + 1):
        block = assignment.block(k)
        if len(block) != quotas[k - 1]:
            return False
        if not block <= acc.user_set(k):
            return False
        if block & seen:
            return False
        seen |= block
    return True
