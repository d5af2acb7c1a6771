"""Encoding, retrieval, and the end-to-end linear transfer map.

Encoding solves one square linear system.  For user k with evaluation
points gamma_{k,1..|A_k|}, the scheme wants a polynomial of degree
|A_k|-1 whose low coefficients are the message w_k followed by the pad
block, and whose value at the i-th point equals minus the scaled share of
the i-th node in A_k:

    g_k(gamma_{k,i}) = -alpha_{k,n} * Y_n .

Message and free-pad coefficients are known before solving, so their
contribution moves to the right-hand side; the unknowns are each user's
tail coefficients plus the N shares themselves.  Decoding is the reverse
direction and purely local to one user: interpolate the degree-|A_k|-1
polynomial through the user's scaled shares and read the low
coefficients back off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import BadSymbolError, IncompatiblePlansError, ShapeMismatchError
from .planner import Plan


@dataclass(frozen=True)
class SystemLayout:
    """Index map for the stacked unknown vector (user tails, then shares)."""

    tail_offsets: tuple  # per user
    tail_lengths: tuple  # per user: |A_k| - R'_k
    share_offset: int
    size: int


def system_layout(plan: Plan) -> SystemLayout:
    offsets = []
    pos = 0
    lengths = []
    for k in range(1, plan.K + 1):
        offsets.append(pos)
        tail = len(plan.access.user_set(k)) - plan.quotas[k - 1]
        lengths.append(tail)
        pos += tail
    return SystemLayout(
        tail_offsets=tuple(offsets),
        tail_lengths=tuple(lengths),
        share_offset=pos,
        size=pos + plan.N,
    )


@dataclass
class PadSet:
    """Per-user randomness: the freely drawn block and the solved tail."""

    free: list  # free[k-1]: list of length R'_k - R_k
    tail: list  # tail[k-1]: list of length |A_k| - R'_k


@dataclass
class EncodeResult:
    shares: list  # Y_1..Y_N
    pads: PadSet
    solution: list  # full unknown vector (tails, then shares)


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


def _check_symbols(p: int, values: Sequence, what: str) -> None:
    for v in values:
        if type(v) is not int or not 0 <= v < p:
            raise BadSymbolError(f"{what}: {v!r} is not an element of GF({p})")


def system_matrix(plan: Plan) -> linalg.Matrix:
    """Coefficient matrix of the encoding system (inputs do not enter it)."""
    layout = system_layout(plan)
    p = plan.field.p
    a = linalg.zeros(layout.size, layout.size)
    row = 0
    for k in range(1, plan.K + 1):
        nodes = plan.access.sorted_set(k)
        gammas = plan.gammas(k)
        quota = plan.quotas[k - 1]
        size = len(nodes)
        t_off = layout.tail_offsets[k - 1]
        for i in range(size):
            g = gammas[i]
            # unknown tail coefficients of this user's polynomial
            power = pow(g, quota, p)
            for t in range(layout.tail_lengths[k - 1]):
                a[row][t_off + t] = power
                power = power * g % p
            n = nodes[i]
            a[row][layout.share_offset + n - 1] = plan.alpha(k, n)
            row += 1
    return a


def rhs_vector(plan: Plan, msgs: Sequence, pads_free: Sequence) -> list:
    """Right-hand side: the known low coefficients evaluated and negated.

    Raises:
        ShapeMismatchError: a message or pad block has the wrong length.
        BadSymbolError: a message or pad symbol is not in GF(p).
    """
    _check_message_shape(plan, msgs)
    _check_pad_shape(plan, pads_free)
    p = plan.field.p
    s = []
    for k in range(1, plan.K + 1):
        known = list(msgs[k - 1]) + list(pads_free[k - 1])  # degrees 0..R'_k-1
        _check_symbols(p, known, f"user {k} message or pad")
        for g in plan.gammas(k):
            acc_val = 0
            power = 1
            for coeff in known:
                acc_val = (acc_val + coeff * power) % p
                power = power * g % p
            s.append(-acc_val % p)
    return s


def encode_with_pads(plan: Plan, msgs: Sequence, pads_free: Sequence) -> EncodeResult:
    """Deterministic encode with caller-supplied free pads.

    Messages and pads are checked as :func:`rhs_vector` says.
    """
    a = system_matrix(plan)
    s = rhs_vector(plan, msgs, pads_free)
    solution = linalg.solve(plan.field, a, s)
    layout = system_layout(plan)
    tails = [
        solution[layout.tail_offsets[k - 1] : layout.tail_offsets[k - 1] + layout.tail_lengths[k - 1]]
        for k in range(1, plan.K + 1)
    ]
    return EncodeResult(
        shares=solution[layout.share_offset :],
        pads=PadSet(free=[list(b) for b in pads_free], tail=tails),
        solution=solution,
    )


def encode(plan: Plan, msgs: Sequence, seed: int | None = None) -> EncodeResult:
    """Encode messages into N node shares, drawing pads from a seeded RNG."""
    rng = random.Random(seed)
    pads_free = [
        [rng.randrange(plan.field.p) for _ in range(plan.quotas[k - 1] - plan.rates[k - 1])]
        for k in range(1, plan.K + 1)
    ]
    return encode_with_pads(plan, msgs, pads_free)


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


def decode(plan: Plan, k: int, shares) -> DecodeResult:
    """Recover user k's message from the shares on its access set.

    ``shares`` is either the full length-N share vector or a mapping
    node -> symbol covering at least A_k.

    Raises:
        ShapeMismatchError: shares are missing for some node of A_k.
        BadSymbolError: a share on A_k is not in GF(p).
    """
    field = plan.field
    p = field.p
    vals = _shares_for_user(plan, k, shares)
    _check_symbols(p, vals, f"user {k} share")
    gammas = plan.gammas(k)
    size = len(gammas)
    nodes = plan.access.sorted_set(k)
    vander = [[pow(g, r, p) for r in range(size)] for g in gammas]
    rhs = [-plan.alpha(k, n) * y % p for n, y in zip(nodes, vals)]
    coeffs = linalg.solve(field, vander, rhs)
    r_k = plan.rates[k - 1]
    return DecodeResult(message=coeffs[:r_k], pads=coeffs[r_k:])


@dataclass
class TransferMap:
    """The linear map from (all messages, all free pads) to all N shares.

    Input coordinates stack every user's message block first, then every
    user's free-pad block; the input dimension always equals N because the
    padded lengths sum to N.  Verification reduces the scheme's secrecy
    and storage-entropy claims to rank computations on this matrix.
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
        return [self.matrix[n - 1] for n in sorted(nodes)]

    def message_selector(self, k: int) -> linalg.Matrix:
        off = self.message_offsets[k - 1]
        rows = []
        for t in range(self.rates[k - 1]):
            row = [0] * self.input_dim
            row[off + t] = 1
            rows.append(row)
        return rows


def transfer_map(plan: Plan) -> TransferMap:
    """Build the input-to-shares matrix by encoding basis vectors.

    The coefficient matrix is inverted once; each input basis vector then
    costs one right-hand-side build and one matrix-vector product.
    """
    a_inv = linalg.inverse(plan.field, system_matrix(plan))
    layout = system_layout(plan)
    n = plan.N
    cols = []
    zero_msgs = [[0] * r for r in plan.rates]
    zero_pads = [[0] * (quota - r) for r, quota in zip(plan.rates, plan.quotas)]
    for k in range(plan.K):
        for t in range(plan.rates[k]):
            msgs = [m[:] for m in zero_msgs]
            msgs[k][t] = 1
            s = rhs_vector(plan, msgs, zero_pads)
            sol = linalg.mat_vec(plan.field, a_inv, s)
            cols.append(sol[layout.share_offset :])
    for k in range(plan.K):
        for t in range(plan.quotas[k] - plan.rates[k]):
            pads = [b[:] for b in zero_pads]
            pads[k][t] = 1
            s = rhs_vector(plan, zero_msgs, pads)
            sol = linalg.mat_vec(plan.field, a_inv, s)
            cols.append(sol[layout.share_offset :])
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
    return TransferMap(
        field=plan.field,
        access=plan.access,
        rates=plan.rates,
        quotas=plan.quotas,
        matrix=matrix,
    )


def split_transfer_input(tm: TransferMap, x: Sequence[int]) -> tuple:
    """Split a stacked input vector into (messages, free pads) per user."""
    msgs, pads = [], []
    pos = 0
    for r in tm.rates:
        msgs.append(list(x[pos : pos + r]))
        pos += r
    for r, quota in zip(tm.rates, tm.quotas):
        pads.append(list(x[pos : pos + quota - r]))
        pos += quota - r
    return msgs, pads


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
        if not (isinstance(self.blocks_a, int) and isinstance(self.blocks_total, int)):
            raise IncompatiblePlansError("block counts must be integers")
        if not 0 <= self.blocks_a <= self.blocks_total or self.blocks_total < 1:
            raise IncompatiblePlansError(
                f"need 0 <= a <= b with b >= 1, got a={self.blocks_a}, b={self.blocks_total}"
            )

    @property
    def block_plans(self) -> list:
        return [self.plan_a] * self.blocks_a + [self.plan_b] * (
            self.blocks_total - self.blocks_a
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
        rng = random.Random(seed)
        results = []
        for plan, block_msgs in zip(self.block_plans, self.split_messages(msgs)):
            pads = [
                [rng.randrange(plan.field.p) for _ in range(plan.quotas[k] - plan.rates[k])]
                for k in range(self.K)
            ]
            results.append(encode_with_pads(plan, block_msgs, pads))
        return results

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
