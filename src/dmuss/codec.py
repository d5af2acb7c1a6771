"""Encoding, retrieval, and the end-to-end linear transfer map.

For user k with evaluation points gamma_{k,1..|A_k|}, the scheme wants a
polynomial of degree |A_k|-1 whose low coefficients are the message w_k
followed by the free-pad block, and whose value at the i-th point equals
minus the scaled share of the i-th node in A_k:

    g_k(gamma_{k,i}) = -alpha_{k,n} * Y_n .

So user k's low coefficients x_k are the low rows of the inverse
Vandermonde on its points times -alpha_k Y_{A_k}, and stacked over all
users that is D Y = x, with D the plan's N x N decode rows
(:attr:`~dmuss.planner.Plan.decode_rows`), which the plan guarantees
invertible.  Encoding is the one N x N solve D Y = x, and the transfer
map T = D^-1 P from (messages, free pads) to shares is that solve with
P, the permutation from the input order to the users' order, for x
(:func:`transfer_map`).  The plan packs D's rows once
(:func:`~dmuss.linalg.pack`), so each of these solves packs only its
right-hand side, eliminates [D | x] and back-substitutes on x's fields
alone.  The shares do not need the tails (the high
coefficients), so encoding does not compute them: they are derived on
first read of ``pads.tail`` or ``solution``, by :func:`decode_all`, and
kept.

Decoding is local to each user: interpolate the degree-|A_k|-1
polynomial through the user's scaled shares and read the low
coefficients back off.  User k's points are gamma^1..gamma^|A_k| in the
order of its exponent permutation, so users with equal set sizes share
one Vandermonde, and :func:`decode_all` solves it once for all of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Iterator, Mapping, Sequence

from . import linalg
from .errors import (
    BadSymbolError,
    IncompatiblePlansError,
    ShapeMismatchError,
)
from .gf import _powers
from .planner import Plan, _check_exponents


class PadSet:
    """Per-user randomness: the freely drawn block and the tail.

    The tails are the master node's internal randomness: no node or user
    receives them, and encoding never needs them.  ``tail`` derives them
    from the shares on first read, by every user's own interpolation
    (:func:`decode_all`), and keeps them.  Equality and ``repr`` cover both
    blocks.
    """

    def __init__(self, free: list, plan: Plan, shares: list):
        self.free = free  # free[k-1]: list of length R'_k - R_k
        self._plan = plan
        self._shares = list(shares)  # the encode's shares, whatever the caller does to its own

    @cached_property
    def tail(self) -> list:
        """tail[k-1]: the |A_k| - R'_k tail coefficients of user k."""
        plan = self._plan
        return [
            got.pads[quota - r_k :]
            for got, r_k, quota in zip(decode_all(plan, self._shares), plan.rates, plan.quotas)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadSet):
            return NotImplemented
        return (self.free, self.tail) == (other.free, other.tail)

    def __repr__(self) -> str:
        return f"PadSet(free={self.free!r}, tail={self.tail!r})"


@dataclass
class EncodeResult:
    shares: list  # Y_1..Y_N
    pads: PadSet

    @property
    def solution(self) -> list:
        """The full unknown vector of the lifted system: every user's
        tail, then the shares.  Reading it derives the tails."""
        return [v for tail in self.pads.tail for v in tail] + self.shares


def _check_message_shape(plan: Plan, msgs: Sequence) -> None:
    if len(msgs) != plan.K:
        raise ShapeMismatchError(f"expected {plan.K} user messages, got {len(msgs)}")
    for k in range(1, plan.K + 1):
        if len(msgs[k - 1]) != plan.rates[k - 1]:
            raise ShapeMismatchError(
                f"user {k}: message length {len(msgs[k - 1])} != rate {plan.rates[k - 1]}"
            )


def _check_pad_shape(plan: Plan, pads: Sequence) -> None:
    if len(pads) != plan.K:
        raise ShapeMismatchError(f"expected {plan.K} pad blocks, got {len(pads)}")
    for k in range(1, plan.K + 1):
        want = plan.quotas[k - 1] - plan.rates[k - 1]
        if len(pads[k - 1]) != want:
            raise ShapeMismatchError(
                f"user {k}: pad block length {len(pads[k - 1])} != {want}"
            )


def _check_rates(plan: Plan) -> None:
    """ShapeMismatchError unless every R_k is an int (not a bool) in
    0..R'_k: otherwise user k's message block is not among its R'_k
    coefficients, and the offsets of the blocks after it shift."""
    for k, (r_k, quota) in enumerate(zip(plan.rates, plan.quotas), start=1):
        if type(r_k) is not int or not 0 <= r_k <= quota:
            raise ShapeMismatchError(f"user {k}: rate {r_k!r} is not an int in 0..R'_k = {quota}")


def _check_symbols(p: int, values: Sequence, what: str) -> None:
    for v in values:
        if type(v) is not int or not 0 <= v < p:
            raise BadSymbolError(f"{what}: {v!r} is not an element of GF({p})")


def encode_with_pads(plan: Plan, msgs: Sequence, pads_free: Sequence) -> EncodeResult:
    """Deterministic encode with caller-supplied free pads: one N x N
    solve of D Y = x, with D the plan's decode rows, packed once per
    plan, and x every user's message then free pads.

    Raises:
        ShapeMismatchError: a message or pad block has the wrong length.
        BadSymbolError: a message or pad symbol is not in GF(p).
    """
    _check_message_shape(plan, msgs)
    _check_pad_shape(plan, pads_free)
    p = plan.field.p
    x = []
    for k, (msg, free) in enumerate(zip(msgs, pads_free), start=1):
        known = list(msg) + list(free)  # degrees 0..R'_k-1
        _check_symbols(p, known, f"user {k} message or pad")
        x.extend(known)
    shares = linalg.solve(plan.field, plan.decode_rows, x)
    return EncodeResult(shares=shares, pads=PadSet([list(b) for b in pads_free], plan, shares))


def draw_pads(plan: Plan, rng: random.Random) -> list:
    """Uniform free pads, user by user, in the order encoding reads them."""
    return [
        [rng.randrange(plan.field.p) for _ in range(plan.quotas[k] - plan.rates[k])]
        for k in range(plan.K)
    ]


def encode(plan: Plan, msgs: Sequence, seed: int | None = None) -> EncodeResult:
    """Encode messages into N node shares, drawing pads from a seeded RNG."""
    return encode_with_pads(plan, msgs, draw_pads(plan, random.Random(seed)))


@dataclass
class DecodeResult:
    message: list  # recovered w_k
    pads: list  # recovered pad coefficients (degrees R_k..|A_k|-1)


def _shares_for_user(plan: Plan, k: int, shares) -> list:
    nodes = plan.access.sorted_set(k)
    if isinstance(shares, Mapping):
        missing = [n for n in nodes if n not in shares]
        if missing:
            raise ShapeMismatchError(f"user {k}: shares missing for nodes {missing}")
        return [shares[n] for n in nodes]
    if len(shares) != plan.N:
        raise ShapeMismatchError(
            f"share vector has length {len(shares)}, expected {plan.N}"
        )
    return [shares[n - 1] for n in nodes]


def _decode_users(plan: Plan, users: Sequence[int], shares) -> list:
    """The DecodeResult of each user in ``users``, in that order: one
    solve of the natural-order Vandermonde on gamma^1..gamma^n per set
    size n, whose right-hand sides hold each user's -alpha y at the rows
    of its exponents."""
    field = plan.field
    p = field.p
    by_size: dict = {}  # set size -> [(user, right-hand side)]
    for k in users:
        vals = _shares_for_user(plan, k, shares)
        _check_symbols(p, vals, f"user {k} share")
        nodes = plan.access.sorted_set(k)
        perm = plan.perms[k - 1]
        _check_exponents(k, perm, len(nodes))
        alpha = plan.alphas[k - 1]
        rhs = [0] * len(nodes)
        for e, n, y in zip(perm, nodes, vals):
            rhs[e - 1] = -alpha[n] * y % p
        by_size.setdefault(len(nodes), []).append((k, rhs))
    coeffs = {}
    for size, members in by_size.items():
        vander = [_powers(x, size, p) for x in _powers(field.gamma, size + 1, p)[1:]]
        if len(members) == 1:  # a one-column block would unpack a list per row
            k, rhs = members[0]
            coeffs[k] = linalg.solve(field, vander, rhs)
            continue
        block = [list(row) for row in zip(*(rhs for _, rhs in members))]
        solved = linalg.solve(field, vander, block)
        for j, (k, _) in enumerate(members):
            coeffs[k] = [row[j] for row in solved]
    return [
        DecodeResult(message=coeffs[k][: plan.rates[k - 1]], pads=coeffs[k][plan.rates[k - 1] :])
        for k in users
    ]


def decode_all(plan: Plan, shares) -> list:
    """Every user's DecodeResult, in user order, from one share vector or
    mapping (as :func:`decode` takes).  Users with the same set size share
    their points, so each distinct size costs one Vandermonde solve
    against a block of right-hand sides.

    Raises:
        ShapeMismatchError: shares are missing for some node.
        BadSymbolError: a share on some A_k is not in GF(p).
        SingularMatrixError: some user's exponents are not a permutation
            of 1..|A_k|, or |A_k| exceeds p - 1.
    """
    return _decode_users(plan, range(1, plan.K + 1), shares)


def decode(plan: Plan, k: int, shares) -> DecodeResult:
    """Recover user k's message from the shares on its access set: the
    one-user case of :func:`decode_all`.

    ``shares`` is either the full length-N share vector or a mapping
    node -> symbol covering at least A_k.

    Raises:
        ShapeMismatchError: k is not an int (not a bool) in 1..K, or
            shares are missing for some node of A_k.
        BadSymbolError: a share on A_k is not in GF(p).
        SingularMatrixError: user k's exponents are not a permutation of
            1..|A_k|, or |A_k| exceeds p - 1.
    """
    if type(k) is not int or not 1 <= k <= plan.K:
        raise ShapeMismatchError(f"user {k!r} is not in 1..{plan.K}")
    return _decode_users(plan, (k,), shares)[0]


@dataclass
class TransferMap:
    """The linear map from (all messages, all free pads) to all N shares.

    Input coordinates stack every user's message block first, then every
    user's free-pad block; the input dimension always equals N because the
    padded lengths sum to N.  The scheme's secrecy and storage-entropy
    claims are rank statements about this matrix.  Given a plan,
    :func:`~dmuss.verify.check_privacy` and :func:`~dmuss.verify.check_entropy`
    read them off T's inverse, the plan's decode rows, and never build it;
    given a bare map, they and :func:`~dmuss.verify.brute_force_audit` work
    on the matrix.
    """

    field: object
    access: object
    rates: tuple
    quotas: tuple
    matrix: linalg.Matrix  # N rows (nodes) x N columns (inputs)

    @property
    def message_offsets(self) -> list:
        out, pos = [], 0
        for r in self.rates:
            out.append(pos)
            pos += r
        return out

    @property
    def pad_offsets(self) -> list:
        out, pos = [], sum(self.rates)
        for r, quota in zip(self.rates, self.quotas):
            out.append(pos)
            pos += quota - r
        return out

    @property
    def input_dim(self) -> int:
        return sum(self.quotas)

    def apply(self, x: Sequence[int]) -> list:
        return linalg.mat_vec(self.field, self.matrix, x)

    def rows_for_nodes(self, nodes: Sequence[int]) -> linalg.Matrix:
        """The given nodes' rows, ascending; ValueError unless all are ints (not
        bools) in 1..N."""
        order = list(nodes)
        # 0 would read node N's row, and True node 1's
        if any(type(n) is not int or not 1 <= n <= len(self.matrix) for n in order):
            raise ValueError(f"nodes are 1..{len(self.matrix)}, got {order}")
        return [self.matrix[n - 1] for n in sorted(order)]


def transfer_map(plan: Plan) -> TransferMap:
    """Build the input-to-shares matrix T: encode's solve of D T = P,
    with P for x, against the same packed D.

    D is the plan's decode rows, whose row (k, d) reads user k's
    coefficient d; P is the 0/1 permutation that puts input column j at
    the row of the coefficient it feeds: user k's message, then its free
    pads.

    Raises:
        ShapeMismatchError: some R_k is not an int in 0..R'_k.
        SingularMatrixError: the plan's correctness matrix is singular.
    """
    _check_rates(plan)
    n = plan.N
    tm = TransferMap(
        field=plan.field, access=plan.access, rates=plan.rates, quotas=plan.quotas, matrix=[]
    )
    perm = linalg.zeros(n, n)
    row = 0
    for r_k, quota, msg_off, pad_off in zip(
        plan.rates, plan.quotas, tm.message_offsets, tm.pad_offsets
    ):
        for d in range(quota):  # message columns, then free-pad columns
            perm[row][msg_off + d if d < r_k else pad_off + d - r_k] = 1
            row += 1
    tm.matrix = linalg.solve(plan.field, plan.decode_rows, perm)
    return tm


@dataclass
class MemoryShare:
    """Rate mixing across node blocks.

    Nodes store ``blocks_total`` symbols; the first ``blocks_a`` of them
    are encoded under plan_a and the rest under plan_b, so the per-symbol
    rate interpolates the two plans' rates with weight blocks_a /
    blocks_total.  Both plans must share the modulus and access structure.
    """

    plan_a: Plan
    plan_b: Plan
    blocks_a: int
    blocks_total: int

    def __post_init__(self):
        if self.plan_a.field.p != self.plan_b.field.p:
            raise IncompatiblePlansError("plans use different field moduli")
        if self.plan_a.access != self.plan_b.access:
            raise IncompatiblePlansError("plans use different access structures")
        if type(self.blocks_a) is not int or type(self.blocks_total) is not int:
            raise IncompatiblePlansError("block counts must be ints (not bools)")
        if not 0 <= self.blocks_a <= self.blocks_total or self.blocks_total < 1:
            raise IncompatiblePlansError(
                f"need 0 <= a <= b with b >= 1, got a={self.blocks_a}, b={self.blocks_total}"
            )

    @property
    def block_plans(self) -> Iterator[Plan]:
        """Each block's plan in order, as a fresh iterator: a list would
        hold blocks_total entries, which a plan file sets."""
        return chain(
            repeat(self.plan_a, self.blocks_a),
            repeat(self.plan_b, self.blocks_total - self.blocks_a),
        )

    @property
    def K(self) -> int:
        return self.plan_a.K

    @property
    def N(self) -> int:
        return self.plan_a.N

    def rates(self) -> tuple:
        """Per-user rate in message symbols per stored node symbol."""
        w = Fraction(self.blocks_a, self.blocks_total)
        return tuple(
            w * ra + (1 - w) * rb for ra, rb in zip(self.plan_a.rates, self.plan_b.rates)
        )

    def message_lengths(self) -> tuple:
        return tuple(
            self.blocks_a * ra + (self.blocks_total - self.blocks_a) * rb
            for ra, rb in zip(self.plan_a.rates, self.plan_b.rates)
        )

    def split_messages(self, msgs: Sequence) -> list:
        """Cut flat per-user messages into per-block message sets."""
        if len(msgs) != self.K:
            raise ShapeMismatchError(f"expected {self.K} user messages, got {len(msgs)}")
        for k, want in enumerate(self.message_lengths(), start=1):
            if len(msgs[k - 1]) != want:
                raise ShapeMismatchError(
                    f"user {k}: message length {len(msgs[k - 1])} != {want}"
                )
        cursors = [0] * self.K
        out = []
        for plan in self.block_plans:
            block = []
            for k in range(self.K):
                r = plan.rates[k]
                block.append(list(msgs[k][cursors[k] : cursors[k] + r]))
                cursors[k] += r
            out.append(block)
        return out

    def encode(self, msgs: Sequence, seed: int | None = None) -> list:
        """Encode flat per-user messages; returns one EncodeResult per block."""
        blocks = self.split_messages(msgs)
        rng = random.Random(seed)
        return [
            encode_with_pads(plan, block_msgs, draw_pads(plan, rng))
            for plan, block_msgs in zip(self.block_plans, blocks)
        ]

    def decode(self, k: int, share_blocks: Sequence) -> list:
        """Recover user k's flat message from per-block shares."""
        if len(share_blocks) != self.blocks_total:
            raise ShapeMismatchError(
                f"expected {self.blocks_total} share blocks, got {len(share_blocks)}"
            )
        out = []
        for plan, shares in zip(self.block_plans, share_blocks):
            out.extend(decode(plan, k, shares).message)
        return out


def memory_share(plan_a: Plan, plan_b: Plan, blocks_a: int, blocks_total: int) -> MemoryShare:
    """Mix two plans over a common access structure; see :class:`MemoryShare`."""
    return MemoryShare(plan_a=plan_a, plan_b=plan_b, blocks_a=blocks_a, blocks_total=blocks_total)
