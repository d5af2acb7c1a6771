"""Machine-checkable guarantees: correctness, storage entropy, privacy.

Everything the scheme promises is a statement about the linear transfer
map T from (messages, free pads) to shares, with the inputs uniform:

* storage entropy: the N shares are jointly uniform iff rank(T) = N;
* pairwise privacy: observer k' learns nothing about user k's message iff
  stacking the w_k coordinate selector onto T's rows for A_{k'} raises
  the rank by exactly R_k (every message value stays equally likely).
  With Z a basis of ker(T's rows on A_{k'}), a combination of selector
  rows lies in their row space (= ker^perp) exactly when it vanishes on
  Z, so the rank rises by rank(Z cut to w_k's coordinates);
* correctness: each user's local interpolation returns its message.

The rank checks take a :class:`~dmuss.planner.Plan`, never build T and
eliminate nothing beyond D's determinant, which the plan keeps.  A plan
holds T's inverse up to the order of its rows: the decode rows D
(:attr:`~dmuss.planner.Plan.decode_rows`), whose rows for user k map the
shares to its message and free pads, and which vanish outside A_k.  D is
nonsingular (or both checks raise), so T has full rank N.  T's rows on
A_{k'} then have rank |A_{k'}|, and their kernel is spanned by T^-1's
columns at the nodes outside A_{k'}: pair (k, k') raises the rank by the
rank of M_k, D's rows for w_k, on the columns A_k minus A_{k'}.  M_k is
the low R_k rows of the inverse Vandermonde on gamma^1..gamma^|A_k|,
its columns permuted by pi_k and scaled by -alpha, so the lemma below
gives that rank as min(R_k, |A_k minus A_{k'}|): the pair is private
exactly when R_k <= |A_k minus A_{k'}|, the paper's pairwise bound.

The lemma: for distinct nonzero points x_1..x_n and r <= n, any set S
of columns of the low r rows of the inverse Vandermonde has rank
min(r, |S|) (its entries are the Lagrange coefficients of Macon and
Spitzbart, "Inverses of Vandermonde matrices", 1958).  Column j holds
the low r coefficients of the Lagrange polynomial l_j.  Suppose
|S| <= r and sum_{j in S} c_j l_j has no coefficient below degree r.
It is x^r Q with deg Q <= n - 1 - r, and it vanishes at the n - |S|
points outside S, which are nonzero, so Q does too: more roots than
its degree allows, so Q = 0, and c = 0 since the l_j are independent.
For |S| > r any r of the columns already have rank r.  Scaling a column
by a nonzero alpha keeps the rank.  The gamma^e qualify, and every
alpha is nonzero: a :class:`~dmuss.planner.Plan` refuses, when it is
built, exponents that are not a permutation of 1..|A_k|, any
|A_k| > p - 1 and a scaling of 0.

The rank criteria are exact, not statistical.  For tiny instances
:func:`brute_force_audit` additionally enumerates every input and checks
the distributions themselves -- uniformity of shares and exact
independence per pair -- giving an oracle the rank arguments must agree
with.  It alone also takes a bare :class:`~dmuss.codec.TransferMap`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import lshift, mul

from .codec import TransferMap, decode_all, encode, transfer_map
from .errors import ShapeMismatchError, SingularMatrixError, TooLargeError
from .gf import _powers
from .linalg import _reducer, _width
from .planner import Plan

AUDIT_INPUT_CAP = 20000  # p**N beyond this refuses to enumerate
# (p, gamma, set size, width) keys whose packed Vandermonde columns a process keeps
_COLUMN_CACHE_SIZE = 32


@dataclass
class PairPrivacy:
    """Rank bookkeeping for one ordered (secret owner, observer) pair."""

    secret_user: int
    observer: int
    base_rank: int  # rank of T restricted to the observer's nodes
    joint_rank: int  # rank after stacking the secret-message selector
    required: int  # R_k: ranks must differ by exactly this
    private: bool

    @property
    def leaked(self) -> int:
        """Message symbols the observer can resolve (0 when private)."""
        return self.required - (self.joint_rank - self.base_rank)


@dataclass
class PrivacyReport:
    pairs: list
    vacuous: bool  # single user: nothing to hide from

    @property
    def all_private(self) -> bool:
        return all(p.private for p in self.pairs)


def _require_type(target, *kinds) -> None:
    """ShapeMismatchError naming ``target``'s type unless it is one of ``kinds``."""
    if not isinstance(target, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ShapeMismatchError(f"expected a {names}, got {type(target).__name__}")


def _require_nonsingular(plan: Plan) -> None:
    if plan._decode_det == 0:
        raise SingularMatrixError("the plan's correctness matrix is singular")


def _pairwise_ranks(plan: Plan):
    """(base, joint) ranks of pair (k, k'): |A_{k'}|, and |A_{k'}| plus
    min(R_k, |A_k minus A_{k'}|), the rank of M_k (user k's first R_k
    decode rows) on those columns by the lemma in the module docstring:
    two bit counts on the access masks, no elimination.

    Raises:
        SingularMatrixError: the plan's correctness matrix is singular.
    """
    _require_nonsingular(plan)
    masks, rates = plan.access.masks, plan.rates

    def ranks(k: int, k2: int) -> tuple:
        seen = masks[k2 - 1]
        base = seen.bit_count()
        return base, base + min(rates[k - 1], (masks[k - 1] & ~seen).bit_count())

    return ranks


def check_privacy(plan: Plan) -> PrivacyReport:
    """Exact pairwise-privacy check via ranks on the plan's transfer map.

    For observer k' with rows O = T[A_{k'}] and kernel basis Z of O,
    rank([O; E_k]) = rank(O) + rank(Z[w_k, :]) for the selector E_k of
    user k's message coordinates w_k, because rowspace(O) = ker(O)^perp.

    T is invertible, rank(O) = |A_{k'}| and the columns of T^-1 at the
    nodes outside A_{k'} span ker(O); so rank(Z[w_k, :]) is the rank of
    T^-1's w_k rows on those columns.  Those rows are user k's first R_k
    decode rows, which vanish outside A_k: the low R_k rows of an inverse
    Vandermonde at distinct nonzero points, whose columns on A_k minus
    A_{k'} have rank min(R_k, |A_k minus A_{k'}|) (the lemma in the module
    docstring).  So the pairs cost no elimination beyond the determinant
    the plan keeps, and T is never built.

    Raises:
        ShapeMismatchError: ``plan`` is not a Plan.
        SingularMatrixError: the plan's correctness matrix is singular.
    """
    _require_type(plan, Plan)
    ranks = _pairwise_ranks(plan)
    k_count = len(plan.rates)
    pairs = []
    for k in range(1, k_count + 1):
        required = plan.rates[k - 1]
        for k2 in range(1, k_count + 1):
            if k2 == k:
                continue
            base, joint = ranks(k, k2)
            pairs.append(
                PairPrivacy(
                    secret_user=k,
                    observer=k2,
                    base_rank=base,
                    joint_rank=joint,
                    required=required,
                    private=joint - base == required,
                )
            )
    return PrivacyReport(pairs=pairs, vacuous=k_count == 1)


@dataclass
class EntropyReport:
    rank: int
    nodes: int

    @property
    def full(self) -> bool:
        return self.rank == self.nodes


def check_entropy(plan: Plan) -> EntropyReport:
    """Shares are jointly uniform iff the plan's transfer map has full rank.

    T is never built: its inverse, up to the order of its rows, is the
    plan's decode rows, so T has rank N once their determinant is nonzero.

    Raises:
        ShapeMismatchError: ``plan`` is not a Plan.
        SingularMatrixError: the plan's correctness matrix is singular.
    """
    _require_type(plan, Plan)
    _require_nonsingular(plan)
    return EntropyReport(rank=plan.N, nodes=plan.N)


@dataclass
class CorrectnessReport:
    trials: int
    failures: int
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def check_correctness(plan: Plan, trials: int = 100, seed: int = 0) -> CorrectnessReport:
    """Randomized end-to-end round-trips plus the defining share identity.

    Each trial encodes fresh uniform messages and decodes every user
    once.  It checks that the decode returns the message, and that the
    user's polynomial -- the message, the free pads and the tail
    coefficients that decode recovered -- meets its scaled shares at
    every evaluation point.  A trial costs one N x N solve and one
    :func:`~dmuss.codec.decode_all`: one Vandermonde solve per distinct
    set size.  Raises ShapeMismatchError unless ``plan`` is a Plan, and
    ValueError unless trials is an int (not a bool) >= 1.

    The identity is checked for a whole user at once: the values at
    gamma^1..gamma^|A_k| are the packed Vandermonde columns of the set
    size (kept per process, :func:`_vandermonde_columns`) times the
    coefficients, one big-int multiply-add each, and the scaled shares
    are the placed scalings -alpha times the shares; both are reduced by
    :func:`~dmuss.linalg._reducer` and compared.  All coefficients and
    shares are field elements, so every field stays below
    |A_k| * p**2, the bound the packing width allows.  Both reduced ints
    hold one canonical value per field, so the fields where they differ
    name the failing nodes.
    """
    _require_type(plan, Plan)
    if type(trials) is not int or trials < 1:
        raise ValueError(f"need an int of at least 1 trial, got {trials!r}")
    rng = random.Random(seed)
    p = plan.field.p
    failures = 0
    first = None
    gamma = plan.field.gamma
    users = []  # per user: nodes, perm, field width, share indices, placed scalings
    columns: dict = {}  # set size -> its packed Vandermonde columns and their reducer
    for k, perm in enumerate(plan.perms, start=1):
        size = len(perm)
        w = _width(p, size)
        if size not in columns:
            columns[size] = _vandermonde_columns(p, gamma, size, w), _reducer(p, w, size)
        nodes, alphas = plan.access.sorted_set(k), plan.alphas[k - 1]
        placed = [-alphas[n] % p << (e - 1) * w for n, e in zip(nodes, perm)]
        users.append((nodes, perm, w, [n - 1 for n in nodes], placed))

    def note(msg):
        nonlocal failures, first
        failures += 1
        if first is None:
            first = msg

    for trial in range(trials):
        msgs = [[rng.randrange(p) for _ in range(r)] for r in plan.rates]
        res = encode(plan, msgs, seed=rng.randrange(1 << 30))
        decoded = decode_all(plan, res.shares)
        for k, got in enumerate(decoded, start=1):
            if got.message != msgs[k - 1]:
                note(f"trial {trial}: user {k} decoded {got.message} != {msgs[k - 1]}")
        # defining identity: g_k(gamma_{k,i}) == -alpha * Y_n
        for k, (got, (nodes, perm, w, index, placed)) in enumerate(zip(decoded, users), start=1):
            free = res.pads.free[k - 1]
            coeffs = list(msgs[k - 1]) + list(free) + got.pads[len(free) :]
            cols, reduce = columns[len(nodes)]
            diff = reduce(sum(map(mul, coeffs, cols))) ^ reduce(
                sum(map(mul, placed, map(res.shares.__getitem__, index)))
            )
            if diff:
                mask = (1 << w) - 1
                for e, n in zip(perm, nodes):
                    if diff >> (e - 1) * w & mask:
                        note(f"trial {trial}: user {k} node {n}: share identity broken")
    return CorrectnessReport(trials=trials, failures=failures, first_failure=first)


@lru_cache(maxsize=_COLUMN_CACHE_SIZE, typed=True)
def _vandermonde_columns(p: int, gamma: int, size: int, w: int) -> list:
    """Column d of the Vandermonde matrix on gamma^1..gamma^size, for
    d < size, packed W = ``w`` bits apart: gamma^(e*d) mod p in field e - 1.
    Column d >= 1 is every d-th power of gamma from gamma^d to gamma^(size*d).
    A process keeps the last :data:`_COLUMN_CACHE_SIZE` lists, keyed by
    the four values with their types kept apart, so callers must not
    mutate one."""
    powers = _powers(gamma, size * (size - 1) + 1, p)
    shifts = range(0, size * w, w)
    cols = [[1] * size] + [powers[d : d * size + 1 : d] for d in range(1, size)]
    return [sum(map(lshift, col, shifts)) for col in cols]


@dataclass
class AuditPair:
    secret_user: int
    observer: int
    independent: bool


@dataclass
class AuditReport:
    """Exhaustive-enumeration verdicts on a small instance."""

    inputs: int
    bijective: bool
    pairs: list
    roundtrip_checked: bool
    roundtrip_failures: int

    @property
    def all_independent(self) -> bool:
        return all(p.independent for p in self.pairs)

    @property
    def ok(self) -> bool:
        return (
            self.bijective
            and self.all_independent
            and (not self.roundtrip_checked or self.roundtrip_failures == 0)
        )


def brute_force_audit(target, max_inputs: int = AUDIT_INPUT_CAP) -> AuditReport:
    """Enumerate all p**N inputs and check the promised distributions.

    Checks (a) the input-to-shares map is a bijection, (b) for every
    ordered pair, the observer's share tuple is exactly independent of the
    secret user's message tuple, and (c), when given a full plan rather
    than a bare transfer map, that every input round-trips through decode.

    Raises:
        ShapeMismatchError: ``target`` is neither a Plan nor a TransferMap.
        ValueError: ``max_inputs`` is not an int (a bool is not one).
        TooLargeError: p**N exceeds ``max_inputs`` (itself capped at
            AUDIT_INPUT_CAP).
    """
    _require_type(target, Plan, TransferMap)
    if type(max_inputs) is not int:
        raise ValueError(f"max_inputs must be an int, got {max_inputs!r}")
    plan = target if isinstance(target, Plan) else None
    tm = target if plan is None else transfer_map(plan)
    p = tm.field.p
    n = len(tm.matrix)
    total = p ** tm.input_dim
    cap = min(max_inputs, AUDIT_INPUT_CAP)
    if total > cap:
        raise TooLargeError(f"{p}**{tm.input_dim} = {total} inputs exceeds cap {cap}")

    k_count = len(tm.rates)
    msg_offsets = tm.message_offsets
    node_lists = [sorted(tm.access.user_set(k)) for k in range(1, k_count + 1)]
    ordered_pairs = [
        (k, k2) for k in range(1, k_count + 1) for k2 in range(1, k_count + 1) if k != k2
    ]
    counts = {pair: {} for pair in ordered_pairs}

    seen = set()
    roundtrip_failures = 0
    matrix = tm.matrix
    for x in itertools.product(range(p), repeat=tm.input_dim):
        y = [sum(c * v for c, v in zip(row, x)) % p for row in matrix]
        seen.add(tuple(y))
        for pair in ordered_pairs:
            k, k2 = pair
            w = x[msg_offsets[k - 1] : msg_offsets[k - 1] + tm.rates[k - 1]]
            obs = tuple(y[nd - 1] for nd in node_lists[k2 - 1])
            key = (tuple(w), obs)
            counts[pair][key] = counts[pair].get(key, 0) + 1
        if plan is not None:
            for k, got in enumerate(decode_all(plan, y), start=1):
                w = x[msg_offsets[k - 1] : msg_offsets[k - 1] + tm.rates[k - 1]]
                if got.message != list(w):
                    roundtrip_failures += 1

    pair_reports = []
    for pair in ordered_pairs:
        k, _ = pair
        tally = counts[pair]
        w_values = {w for w, _ in tally}
        obs_values = {o for _, o in tally}
        independent = len(w_values) == p ** tm.rates[k - 1]
        if independent:
            for obs in obs_values:
                per_w = [tally.get((w, obs), 0) for w in w_values]
                if len(set(per_w)) != 1:
                    independent = False
                    break
        pair_reports.append(AuditPair(secret_user=pair[0], observer=pair[1], independent=independent))

    return AuditReport(
        inputs=total,
        bijective=len(seen) == total,
        pairs=pair_reports,
        roundtrip_checked=plan is not None,
        roundtrip_failures=roundtrip_failures,
    )
