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
coefficients back off.  The interpolation's low rows are D's own rows:
user k's message is its first R_k rows of D (after the R'_j rows of
every user j < k) times its shares, so :meth:`MemoryShare.decode`, the
CLI's decode, reads it off the plan's decode rows with one big-int
product per message symbol and no elimination.  :func:`decode` and
:func:`decode_all` also return the pads (the coefficients above the
message, tails included), so they interpolate: user k's points are
gamma^1..gamma^|A_k| in the order of its exponent permutation, so users
with equal set sizes share one Vandermonde, and :func:`decode_all`
solves it once for all of them.
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
from .planner import Plan


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


def _check_list(value, what: str) -> None:
    """ShapeMismatchError unless ``value`` is a list or tuple (one type
    test: None has no length, and a dict or a str reads as other data)."""
    if not isinstance(value, (list, tuple)):
        raise ShapeMismatchError(f"{what} must be a list, got {type(value).__name__}")


def _check_message_shape(plan: Plan, msgs: Sequence) -> None:
    _check_list(msgs, "messages")
    if len(msgs) != plan.K:
        raise ShapeMismatchError(f"expected {plan.K} user messages, got {len(msgs)}")
    for k in range(1, plan.K + 1):
        _check_list(msgs[k - 1], f"user {k}: message")
        if len(msgs[k - 1]) != plan.rates[k - 1]:
            raise ShapeMismatchError(
                f"user {k}: message length {len(msgs[k - 1])} != rate {plan.rates[k - 1]}"
            )


def _check_pad_shape(plan: Plan, pads: Sequence) -> None:
    _check_list(pads, "pad blocks")
    if len(pads) != plan.K:
        raise ShapeMismatchError(f"expected {plan.K} pad blocks, got {len(pads)}")
    for k in range(1, plan.K + 1):
        want = plan.quotas[k - 1] - plan.rates[k - 1]
        _check_list(pads[k - 1], f"user {k}: pad block")
        if len(pads[k - 1]) != want:
            raise ShapeMismatchError(
                f"user {k}: pad block length {len(pads[k - 1])} != {want}"
            )


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


def _check_user(plan: Plan, k) -> None:
    """ShapeMismatchError unless k is an int (not a bool) in 1..K: 0 and
    -1 would index the last user from the end."""
    if type(k) is not int or not 1 <= k <= plan.K:
        raise ShapeMismatchError(f"user {k!r} is not in 1..{plan.K}")


def _user_shares(plan: Plan, k: int, shares) -> list:
    """User k's shares in the order of its sorted set: ShapeMismatchError
    unless ``shares`` is a list, tuple or mapping covering A_k (a list or
    tuple of length N), BadSymbolError unless each is in GF(p)."""
    if not isinstance(shares, (Mapping, list, tuple)):
        raise ShapeMismatchError(f"shares must be a list or a mapping, got {type(shares).__name__}")
    nodes = plan.access.sorted_set(k)
    if isinstance(shares, Mapping):
        missing = [n for n in nodes if n not in shares]
        if missing:
            raise ShapeMismatchError(f"user {k}: shares missing for nodes {missing}")
        vals = [shares[n] for n in nodes]
    elif len(shares) != plan.N:
        raise ShapeMismatchError(
            f"share vector has length {len(shares)}, expected {plan.N}"
        )
    else:
        vals = [shares[n - 1] for n in nodes]
    _check_symbols(plan.field.p, vals, f"user {k} share")
    return vals


def _decode_users(plan: Plan, users: Sequence[int], shares) -> list:
    """The DecodeResult of each user in ``users``, in that order: one
    solve of the natural-order Vandermonde on gamma^1..gamma^n per set
    size n, whose right-hand sides hold each user's -alpha y at the rows
    of its exponents."""
    field = plan.field
    p = field.p
    by_size: dict = {}  # set size -> [(user, right-hand side)]
    for k in users:
        vals = _user_shares(plan, k, shares)
        nodes = plan.access.sorted_set(k)
        alpha = plan.alphas[k - 1]
        rhs = [0] * len(nodes)
        for e, n, y in zip(plan.perms[k - 1], nodes, vals):
            rhs[e - 1] = -alpha[n] * y % p
        by_size.setdefault(len(nodes), []).append((k, rhs))
    coeffs = {}
    for size, members in by_size.items():
        # rebuilt per call: kept, it would push bench decode loops past their RSS headroom (ROADMAP 1a)
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
    """
    return _decode_users(plan, range(1, plan.K + 1), shares)


def decode(plan: Plan, k: int, shares) -> DecodeResult:
    """Recover user k's message and pads from the shares on its access
    set: the one-user case of :func:`decode_all`, by interpolation.
    :meth:`MemoryShare.decode` reads the message alone off the decode
    rows instead.

    ``shares`` is either the full length-N share vector or a mapping
    node -> symbol covering at least A_k.

    Raises:
        ShapeMismatchError: k is not an int (not a bool) in 1..K, or
            shares are missing for some node of A_k.
        BadSymbolError: a share on A_k is not in GF(p).
    """
    _check_user(plan, k)
    return _decode_users(plan, (k,), shares)[0]


def _message_reader(plan: Plan, k: int):
    """A function from user k's shares, in the order of its sorted set
    (as :func:`_user_shares` returns them), to its message: user k's R_k
    message rows of the plan's decode rows, after the R'_j rows of every
    user j < k, times the shares.

    The rows hold their fields unreduced, below p**2, so each is reduced
    mod p once here (:func:`~dmuss.linalg._reducer`).  Row (k, d) holds
    its entry for node n in field n - 1, so with the shares packed
    reversed, y_n in field N - n, field N - 1 of the one big-int product
    row * y is sum_n row_n * y_n < N * p**2 < 2**(W - 1) (see
    :func:`~dmuss.linalg._width`), and no field below it carries: the
    symbol is read exactly.
    """
    rows = plan.decode_rows
    p, n = plan.field.p, plan.N
    w = linalg._width(p, n)
    reduce = linalg._reducer(p, w, n)
    start = sum(plan.quotas[: k - 1])
    message_rows = [reduce(x) for x in rows.ints[start : start + plan.rates[k - 1]]]
    shifts = [(n - node) * w for node in plan.access.sorted_set(k)]
    top, mask = (n - 1) * w, (1 << w) - 1

    def read(vals: list) -> list:
        y = sum(v << s for v, s in zip(vals, shifts))
        return [(row * y >> top & mask) % p for row in message_rows]

    return read


@dataclass
class TransferMap:
    """The linear map from (all messages, all free pads) to all N shares.

    Input coordinates stack every user's message block first, then every
    user's free-pad block; the input dimension always equals N because the
    padded lengths sum to N.  The scheme's secrecy and storage-entropy
    claims are rank statements about this matrix, which
    :func:`~dmuss.verify.check_privacy` and :func:`~dmuss.verify.check_entropy`
    read off a plan's decode rows, T's inverse, without building it.
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


def transfer_map(plan: Plan) -> TransferMap:
    """Build the input-to-shares matrix T: encode's solve of D T = P,
    with P for x, against the same packed D.

    D is the plan's decode rows, whose row (k, d) reads user k's
    coefficient d; P is the 0/1 permutation that puts input column j at
    the row of the coefficient it feeds: user k's message, then its free
    pads.

    Raises:
        SingularMatrixError: the plan's correctness matrix is singular.
    """
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
    """A scheme: node symbols split into blocks, each encoded under one
    integer-rate plan.  ``layers`` holds (plan, block count) pairs in block
    order, so nodes store ``blocks_total`` symbols at the count-weighted
    mean of the plans' rates.  A plan file is the one-layer scheme
    ((plan, 1),), and a rate mix (:func:`memory_share`) has two layers.
    All plans share one modulus and one access structure."""

    layers: tuple

    def __post_init__(self):
        try:
            plans, counts = zip(*self.layers)
        except (TypeError, ValueError) as exc:  # no layers, or not pairs
            raise IncompatiblePlansError(f"layers must be (plan, count) pairs: {exc}") from exc
        if not all(isinstance(plan, Plan) for plan in plans):
            raise IncompatiblePlansError(f"layers need Plans: {[type(p).__name__ for p in plans]}")
        if any(plan.field.p != plans[0].field.p for plan in plans):
            raise IncompatiblePlansError("plans use different field moduli")
        if any(plan.access != plans[0].access for plan in plans):
            raise IncompatiblePlansError("plans use different access structures")
        if any(type(count) is not int for count in counts):
            raise IncompatiblePlansError("block counts must be ints (not bools)")
        if min(counts) < 0 or sum(counts) < 1:
            raise IncompatiblePlansError(f"need block counts >= 0 summing to >= 1, got {counts}")

    def block_plans(self, count: int, misfit: str = "expected {} blocks, got {}") -> Iterator[Plan]:
        """The plans of ``count`` blocks in order, lazily (a file sets
        blocks_total): a one-layer scheme repeats its plan for any count
        >= 1, and any other takes exactly blocks_total blocks; else
        ShapeMismatchError, ``misfit`` formatted with both counts."""
        if len(self.layers) == 1 and count >= 1:
            return repeat(self.layers[0][0], count)
        if count != self.blocks_total:
            raise ShapeMismatchError(misfit.format(self.blocks_total, count))
        return chain.from_iterable(repeat(plan, c) for plan, c in self.layers)

    @property
    def field(self):
        return self.layers[0][0].field

    @property
    def K(self) -> int:
        return self.layers[0][0].K

    @property
    def N(self) -> int:
        return self.layers[0][0].N

    @property
    def blocks_total(self) -> int:
        return sum(count for _, count in self.layers)

    def rates(self) -> tuple:
        """Per-user rate in message symbols per stored node symbol."""
        return tuple(Fraction(length, self.blocks_total) for length in self.message_lengths())

    def message_lengths(self) -> tuple:
        return tuple(
            sum(count * plan.rates[k] for plan, count in self.layers) for k in range(self.K)
        )

    def split_messages(self, msgs: Sequence) -> list:
        """Cut flat per-user messages into per-block message sets."""
        _check_list(msgs, "messages")
        if len(msgs) != self.K:
            raise ShapeMismatchError(f"expected {self.K} user messages, got {len(msgs)}")
        for k, want in enumerate(self.message_lengths(), start=1):
            _check_list(msgs[k - 1], f"user {k}: message")
            if len(msgs[k - 1]) != want:
                raise ShapeMismatchError(
                    f"user {k}: message length {len(msgs[k - 1])} != {want}"
                )
        cursors = [0] * self.K
        out = []
        for plan in self.block_plans(self.blocks_total):
            block = []
            for k in range(self.K):
                r = plan.rates[k]
                block.append(list(msgs[k][cursors[k] : cursors[k] + r]))
                cursors[k] += r
            out.append(block)
        return out

    def encode_blocks(self, blocks: Sequence, seed: int | None = None) -> list:
        """One EncodeResult per block of per-user messages, with every
        block's pads drawn from one RNG seeded with ``seed``."""
        misfit = "composite plan needs exactly {} message blocks, got {}"
        _check_list(blocks, "message blocks")
        plans = self.block_plans(len(blocks), misfit)
        rng = random.Random(seed)
        return [
            encode_with_pads(plan, block, draw_pads(plan, rng))
            for plan, block in zip(plans, blocks)
        ]

    def encode(self, msgs: Sequence, seed: int | None = None) -> list:
        """Encode flat per-user messages; returns one EncodeResult per block."""
        return self.encode_blocks(self.split_messages(msgs), seed)

    def decode(self, k: int, share_blocks: Sequence) -> list:
        """Recover user k's flat message from per-block shares: each
        block's message is read off its plan's decode rows
        (:func:`_message_reader`, built once per plan per call), with no
        interpolation, so no pads are recovered.  The shares are checked
        first, as :func:`decode` checks them, and raise as it does.  A
        block whose plan gives user k rate 0 holds none of its message:
        its shares get the same checks and nothing more.
        """
        _check_list(share_blocks, "share blocks")
        plans = self.block_plans(len(share_blocks), "expected {} share blocks, got {}")
        _check_user(self.layers[0][0], k)
        readers: dict = {}  # id(plan) -> its _message_reader for user k
        out = []
        for plan, shares in zip(plans, share_blocks):
            vals = _user_shares(plan, k, shares)
            if plan.rates[k - 1]:
                read = readers.get(id(plan))
                if read is None:
                    read = readers[id(plan)] = _message_reader(plan, k)
                out.extend(read(vals))
        return out


def memory_share(plan_a: Plan, plan_b: Plan, blocks_a: int, blocks_total: int) -> MemoryShare:
    """The first ``blocks_a`` of ``blocks_total`` blocks under plan_a and
    the rest under plan_b: the two-layer :class:`MemoryShare`."""
    ints = type(blocks_a) is int and type(blocks_total) is int  # else the validator refuses them
    rest = blocks_total - blocks_a if ints else blocks_total
    return MemoryShare(((plan_a, blocks_a), (plan_b, rest)))
