"""Scheme planning: from an access structure and integer rate tuple to a
full set of encoding constants.

A finished :class:`Plan` fixes, for every user k:

* a padded length R'_k >= R_k (the message plus enough fresh randomness
  that the padded tuple exhausts all N nodes),
* a reserved node block (disjoint across users, inside A_k),
* a permutation of evaluation exponents pi_k, giving user k the points
  gamma^{pi_k(1)}, ..., gamma^{pi_k(|A_k|)},
* nonzero share scalings alpha_{k,n} for each node n in A_k.

Correctness of the whole scheme reduces to one condition: the N x N
matrix V built from the permuted null-space bases of the users'
tail-coefficient matrices, with each row scaled by its alpha, must be
nonsingular.  Only :func:`plan_decomposition` writes V, for ``dmuss demo``
and the tests, each user's basis by the elimination the construction
names: ``linalg.null_space(field, linalg.build_B(field, R'_k, |A_k|))``.

A plan checks that condition on an operator that needs no null basis.
User k's polynomial has degree |A_k| - 1, its low R'_k coefficients are
its message and free pads, and its value at gamma^{pi_k(i)} is minus the
i-th node's scaled share; so the map from the N shares to every user's
(message, free pads) stacks each user's low inverse-Vandermonde rows,
scaled by -alpha: :attr:`Plan.decode_rows`, written in closed form by
:func:`_lagrange_rows`, one table per distinct set size, straight into
packed rows (:class:`~dmuss.linalg.Packed`).  That matrix is H^-1 V^T,
where H_k = -P_k^T G_k maps user k's low coefficients to its R'_k rows
of V^T Y (P_k its basis rows, G_k[i][d] = gamma_{k,i}^d).  Every H_k is
invertible: a polynomial of degree < R'_k that agrees at |A_k| distinct
points with one spanned by x^R'_k..x^(|A_k|-1) is 0.  So
det(decode_rows) != 0 exactly when det V != 0, and the load's
determinant, encoding, the transfer map and the privacy and entropy
checks all read decode_rows' packed ints.

Only inside :func:`make_plan`, before the reserved nodes' scalings zeta
are chosen, is its transpose split as ``diag(zeta) @ C + D``: C holds
the reserved nodes' rows unscaled and D the other rows, written packed
node by node from the same tables (:func:`_zeta_split`), so each of
:func:`choose_zeta`'s draws is N big-int multiply-adds and one
determinant.  C is block-diagonal up to row permutation, hence
nonsingular by construction, which makes det(diag(zeta) @ C + D) a
multilinear polynomial in zeta whose leading coefficient det(C) is
nonzero -- so suitable all-nonzero scalings zeta always exist over
GF(p), p >= 3, and a deterministic sweep can find one when random
sampling runs out of luck.  The split is V's own split times H^-T, so
every determinant :func:`choose_zeta` takes is V's times the same
zeta-free factor prod_k det H_k^-1, and zeta is the one V's split would
give.

The permutation needs no elimination either: any R'_k rows of a null
basis are independent (:func:`choose_permutation`), so the one
elimination left in :func:`make_plan` is :func:`choose_zeta`'s determinant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg
from .access import (
    AccessStructure,
    _fractions,
    augment_quotas,
    in_capacity_region,
    pairwise_bound,
    validate_quotas,
)
from .errors import (
    BadShapeError,
    BadSymbolError,
    FieldTooSmallError,
    NotInRegionError,
    PlanningFailedError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .gf import Field, _inverses, _powers
from .linalg import Matrix, Packed, _pack, _width
from .sdr import SdrAssignment, find_sdr, validate_sdr

RANDOM_TRIALS_PER_ROW = 64  # scaling-search budget is 64 * N draws


@dataclass(frozen=True)
class Plan:
    """Every constant needed to encode and decode one scheme instance."""

    field: Field
    access: AccessStructure
    rates: tuple  # ints, one per user
    quotas: tuple  # padded lengths, summing to N
    reserved: SdrAssignment
    perms: tuple  # perms[k-1][i-1] = pi_k(i), 1-indexed exponent slots
    alphas: tuple  # alphas[k-1][n] = nonzero scaling for node n in A_k

    @property
    def K(self) -> int:
        return self.access.K

    @property
    def N(self) -> int:
        return self.access.N

    @property
    def unknown_count(self) -> int:
        """Length of an encode's solution, every user's tail then the N
        shares; equal to the sum of the access-set sizes."""
        return sum(len(s) for s in self.access.sets)

    @cached_property
    def decode_rows(self) -> Packed:
        """The N x N map from the shares to every user's (message, free pads).

        Row (k, d), for d < R'_k and in user order, holds
        -alpha_{k,n} L[d][pi_k(i)] at the i-th node n of the sorted A_k,
        with L the :func:`_lagrange_rows` table of |A_k| (one per distinct
        set size, see :func:`_lagrange_tables`), and 0 off A_k.  It equals
        H^-1 V^T (see the module docstring), so it is nonsingular exactly
        when V is.  Built on first use and kept off the value fields, as a
        :class:`~dmuss.linalg.Packed` whose
        nonzero entries are written straight into the packed row ints,
        unreduced below p**2, with no N x N list and no
        :func:`~dmuss.linalg.pack` pass; it compares and prints as its
        reduced rows.  The load's determinant check, every
        :func:`~dmuss.codec.encode_with_pads`,
        :func:`~dmuss.codec.transfer_map` and the privacy and entropy
        checks share it and read those ints; so callers must not mutate
        it.

        Raises:
            SingularMatrixError: some user's exponents are not a
                permutation of 1..|A_k| (see :func:`_check_exponents`).
            FieldTooSmallError: some |A_k| exceeds p - 1.
            BadShapeError: some R'_k is not in 0..|A_k|.
            BadSymbolError: some scaling is not an int, or some node of
                A_k has none.
        """
        field, acc, quotas, perms = self.field, self.access, self.quotas, self.perms
        p = field.p
        tables = _lagrange_tables(field, acc, quotas)
        n_rows = sum(quota for quota, _ in zip(quotas, perms))
        w = _width(p, n_rows)
        ints = []
        for k, (quota, perm, scale) in enumerate(zip(quotas, perms, self.alphas), start=1):
            nodes = acc.sorted_set(k)
            _check_exponents(k, perm, len(nodes))
            try:
                entries = [((n - 1) * w, e - 1, -scale[n] % p) for n, e in zip(nodes, perm)]
                for lag in tables[len(nodes)][:quota]:
                    ints.append(sum(a * lag[e] << s for s, e, a in entries))  # fields below p**2
            except (TypeError, KeyError) as exc:  # a scaling that is not an int, or none
                raise BadSymbolError(f"user {k}: every node needs an int scaling: {exc!r}") from exc
        return Packed(p, acc.N, ints)

    @cached_property
    def _decode_det(self) -> int:
        """det :attr:`decode_rows`, zero exactly when det V is, computed on
        first use and kept off the value fields.  :func:`plan_from_parameters`
        computes it to accept a plan, so a loaded plan's later checks
        (:func:`~dmuss.verify.check_privacy`, :func:`~dmuss.verify.check_entropy`)
        read it without another N x N elimination."""
        return linalg.det(self.field, self.decode_rows)


def choose_permutation(sorted_set: list, zblock: Sequence[int]) -> tuple:
    """Deterministic exponent permutation for one user.

    The reserved positions, in ascending order, take exponents 1..R'_k
    (R'_k = len(zblock)), and the other positions take R'_k+1..|A_k| in
    ascending order.  Exponent j selects row j of the user's null basis
    (of :func:`~dmuss.linalg.build_B`), and the reserved rows must be
    independent.  Any R'_k rows are: the tail matrix generates a
    generalised Reed-Solomon code, whose dual is MDS, so no elimination
    looks for them.  Returns pi as a tuple with pi[i-1] = pi(i).
    """
    reserved = {sorted_set.index(n) for n in zblock}
    order = sorted(range(len(sorted_set)), key=lambda i: (i not in reserved, i))
    pi = [0] * len(order)
    for exponent, i in enumerate(order, 1):
        pi[i] = exponent
    return tuple(pi)


def _null_basis(field: Field, quota: int, size: int) -> Matrix:
    """A user's R'_k tail null-basis vectors: the null space of its tail
    matrix (:func:`~dmuss.linalg.build_B`), or the identity if R'_k = |A_k|."""
    tail = [] if quota == size else linalg.build_B(field, quota, size)
    return linalg.null_space(field, tail, cols=size)


def _lagrange_rows(field: Field, size: int, count: int) -> Matrix:
    """The low ``count`` rows of the inverse Vandermonde on gamma^1..gamma^n.

    With n = ``size`` and x_e = gamma^e, entry [d][e-1] is L_n[d][e], the
    x^d coefficient of the Lagrange basis polynomial
    l_e = omega / ((x - x_e) omega'(x_e)), omega = prod_e (x - x_e): so
    row d of the result times the values of a polynomial of degree < n at
    x_1..x_n is its x^d coefficient (Macon and Spitzbart, "Inverses of
    Vandermonde matrices", Amer. Math. Monthly 1958).  The low
    coefficients of the quotient q = omega / (x - x_e) follow from
    omega = (x - x_e) q: q_0 = -omega_0 / x_e, q_d = (q_{d-1} - omega_d) / x_e.

    The points are a geometric progression, so omega and omega' need no
    product expansion.  With c_t = gamma^t - 1 (nonzero for t < p - 1)
    and P_t = c_1 ... c_t:

    * omega'(x_e) = prod_{j != e} (x_e - x_j)
      = (-1)^(n-e) gamma^(e(e-1)/2 + e(n-e)) P_{e-1} P_{n-e};
    * omega_d = (-1)^(n-d) gamma^(k(k+1)/2) [n, d]_gamma with k = n - d,
      by Gauss's q-binomial theorem, and the Gaussian binomial
      [n, d] = c_n c_{n-1} ... c_{n-d+1} / P_d.

    The n slopes and the P_d are inverted together with one ``pow``:
    O(n * count) multiplications, the size of the result, and no
    elimination.

    Raises:
        BadShapeError: unless 0 <= count <= size.
        FieldTooSmallError: size exceeds p-1, so the points collide.
    """
    _check_quota(count, size)
    if size > field.p - 1:
        raise FieldTooSmallError(f"{size} evaluation points need p-1 >= {size}, got p={field.p}")
    p, g, n = field.p, field.gamma, size
    x = _powers(g, n + 1, p)  # x[e] = gamma^e
    inv_x = _powers(pow(g, -1, p), n + 1, p)  # gamma^-e
    prefix = [1]  # P_t, t < n
    for t in range(1, n):
        prefix.append(prefix[-1] * (x[t] - 1) % p)
    slopes, lift = [], 1
    for e in range(1, n + 1):
        lift = lift * x[n - e] % p  # the exponent grows by n - e
        s = lift * prefix[e - 1] % p * prefix[n - e] % p
        slopes.append(s if (n - e) % 2 == 0 else p - s)
    inverses = _inverses(slopes + prefix[:count], p)
    inv_slopes, inv_prefix = inverses[:n], inverses[n:]
    omega, lift, top = [], pow(g, n * (n + 1) // 2 % (p - 1), p), 1
    for d in range(count):
        w = lift * top % p * inv_prefix[d] % p
        omega.append(w if (n - d) % 2 == 0 else -w % p)
        lift = lift * inv_x[n - d] % p  # k(k+1)/2 falls by k
        top = top * (x[n - d] - 1) % p
    table, q = [], [0] * n
    for w in omega:
        q = [(qe - w) * ix % p for qe, ix in zip(q, inv_x[1:])]
        table.append([qe * s % p for qe, s in zip(q, inv_slopes)])
    return table


def _check_quota(count: int, size: int) -> None:
    if not 0 <= count <= size:
        raise BadShapeError(f"need 0 <= R'_k <= |A_k|, got {count} and {size}")


def _check_exponents(k: int, perm: Sequence[int], size: int) -> None:
    """SingularMatrixError unless user k's exponents are a permutation of
    1..size: a repeat repeats a point, and the natural-order tables
    (:func:`_lagrange_rows`, decode's Vandermonde) hold no other."""
    if sorted(perm) != list(range(1, size + 1)):
        raise SingularMatrixError(f"user {k}: exponents {list(perm)} are not a permutation of 1..{size}")


def _lagrange_tables(field: Field, acc: AccessStructure, quotas: Sequence[int]) -> dict:
    """One :func:`_lagrange_rows` table per distinct set size, keyed by
    the size and built to the largest R'_k among its users: a table's
    rows are prefixes of a longer one's, so user k reads the first R'_k.

    Raises:
        BadShapeError: some R'_k is not in 0..|A_k|.
        FieldTooSmallError: some |A_k| exceeds p - 1.
    """
    counts: dict = {}
    for nodes, quota in zip(acc.sets, quotas):
        size = len(nodes)
        _check_quota(quota, size)
        counts[size] = max(counts.get(size, 0), quota)
    return {size: _lagrange_rows(field, size, count) for size, count in counts.items()}


def _zeta_split(
    field: Field, acc: AccessStructure, quotas: Sequence[int], reserved: SdrAssignment, perms: Sequence
) -> tuple[Packed, Packed]:
    """:func:`make_plan`'s split (C, D') of the transposed decode rows
    with unit scalings, packed node by node: row n of C holds the entries
    of the user whose reserved block holds n, and row n of D' those of
    every other user reading n.

    User k's entries in row n are one contiguous run, -L[d][pi_k(i)] at
    column (k, d) for d < R'_k, with n the i-th node of the sorted A_k
    and L the table of |A_k|: one packed column of the table, cut to
    R'_k fields and shifted to user k's offset.  So the rows cost one
    big-int operation per (user, node) pair, with no N x N list.
    """
    p, n_total = field.p, acc.N
    w = _width(p, n_total)
    columns = {
        size: [_pack([-row[e] for row in table], w, p) for e in range(size)]
        for size, table in _lagrange_tables(field, acc, quotas).items()
    }
    c, d = [0] * n_total, [0] * n_total
    shift = 0
    for k, (quota, perm) in enumerate(zip(quotas, perms), start=1):
        nodes, block = acc.sorted_set(k), reserved.block(k)
        packed_cols, mask = columns[len(nodes)], (1 << quota * w) - 1
        for n, e in zip(nodes, perm):
            run = (packed_cols[e - 1] & mask) << shift
            if n in block:
                c[n - 1] += run
            else:
                d[n - 1] += run
        shift += quota * w
    return Packed(p, n_total, c), Packed(p, n_total, d)


def choose_zeta(field: Field, c: Matrix, d: Matrix, seed: int = 0) -> list:
    """All-nonzero row scalings with det(diag(zeta) @ c + d) != 0.

    c and d are :func:`make_plan`'s split of the transposed decode rows
    (see the module docstring), which it passes packed (a
    :class:`~dmuss.linalg.Packed` each); list matrices are packed here,
    once.

    Phase one samples each coordinate uniformly from the nonzero elements
    with a seeded generator, up to 64 * N full draws.  A draw's rows are
    zeta_n * c_n + d_n, one big-int multiply-add per packed row, left
    unreduced below p**2, and one :func:`~dmuss.linalg.det` reads them.
    Phase two walks the coordinates left to right on the same packed
    rows: with earlier rows frozen and later rows taken straight from c,
    the determinant is linear in the current coordinate with slope equal
    to the previous partial determinant, so at most one value is
    forbidden and the smallest admissible nonzero value is taken.  The
    sweep can only dead-end over GF(2), where "nonzero" leaves no
    alternative; that surfaces as PlanningFailedError.

    Raises:
        ShapeMismatchError: c and d are not both n x n.
        PlanningFailedError: the sweep dead-ended (GF(2) only), or c is
            singular.
    """
    p = field.p
    c, d = linalg.packed(field, c), linalg.packed(field, d)
    n = len(c)
    if not c.cols == len(d) == d.cols == n:
        raise ShapeMismatchError(f"need two n x n matrices, got {n} x {c.cols} and {len(d)} x {d.cols}")
    if n == 0:
        return []
    cs, ds = c.ints, d.ints
    rng = random.Random(seed)
    for _ in range(RANDOM_TRIALS_PER_ROW * n):
        zeta = [rng.randrange(1, p) for _ in range(n)]
        if linalg.det(field, Packed(p, n, [z * cv + dv for z, cv, dv in zip(zeta, cs, ds)])) != 0:
            return zeta
    kappa = linalg.det(field, c)
    if kappa == 0:
        raise PlanningFailedError("reserved-row matrix is singular; invalid block selection")
    work = list(cs)
    zeta = []
    for i in range(n):
        work[i] = ds[i]
        delta = linalg.det(field, Packed(p, n, work[:]))
        # det as a function of this coordinate v is v * kappa + delta
        forbidden = -delta * pow(kappa, -1, p) % p
        v = next((cand for cand in range(1, p) if cand != forbidden), None)
        if v is None:
            raise PlanningFailedError(
                "no nonzero scaling keeps the correctness matrix invertible"
            )
        work[i] = v * cs[i] + ds[i]
        kappa = (v * kappa + delta) % p
        zeta.append(v)
    if kappa == 0:
        raise AssertionError("sweep ended on a singular matrix; linearity bookkeeping broken")
    return zeta


def _check_field_size(field: Field, acc: AccessStructure) -> None:
    largest = max(len(s) for s in acc.sets)
    if field.p - 1 < largest:
        raise FieldTooSmallError(
            f"access set of size {largest} needs p-1 >= {largest}, got p={field.p}"
        )


def make_plan(field: Field, acc: AccessStructure, rates: Sequence[int], seed: int = 0) -> Plan:
    """Build a complete plan for an integral in-region rate tuple.

    Raises:
        ValueError: not K rates, or one is not a finite number.
        NotInRegionError: rates are fractional or outside the region.
        FieldTooSmallError: some access set needs more evaluation points
            than GF(p) has nonzero elements.
        PlanningFailedError: the scaling search dead-ended (GF(2) only).
    """
    _fractions(acc, rates)
    _check_field_size(field, acc)
    quotas = augment_quotas(acc, rates)
    reserved = find_sdr(acc, quotas)
    perms = tuple(
        choose_permutation(acc.sorted_set(k), reserved.sorted_block(k)) for k in range(1, acc.K + 1)
    )
    zeta = choose_zeta(field, *_zeta_split(field, acc, quotas, reserved, perms), seed)
    alphas = []
    for k in range(1, acc.K + 1):
        block = reserved.block(k)
        alphas.append({n: zeta[n - 1] if n in block else 1 for n in acc.sorted_set(k)})
    return Plan(
        field=field,
        access=acc,
        rates=tuple(int(r) for r in rates),
        quotas=quotas,
        reserved=reserved,
        perms=perms,
        alphas=tuple(alphas),
    )


def plan_decomposition(plan: Plan) -> Matrix:
    """A finished plan's N x N correctness matrix V: in user k's R'_k
    columns, the row of the i-th node n of A_k holds alpha_{k,n} times
    entry pi_k(i) of each :func:`_null_basis` vector.  BadSymbolError if
    some node of A_k has no scaling."""
    field, acc, p = plan.field, plan.access, plan.field.p
    v = linalg.zeros(acc.N, acc.N)
    off = 0
    for k, (quota, perm, scale) in enumerate(zip(plan.quotas, plan.perms, plan.alphas), start=1):
        vectors = _null_basis(field, quota, len(perm))
        try:
            for n, e in zip(acc.sorted_set(k), perm):
                a = scale[n]
                v[n - 1][off : off + quota] = [a * vec[e - 1] % p for vec in vectors]
        except KeyError as exc:
            raise BadSymbolError(f"user {k}: every node needs an int scaling: {exc!r}") from exc
        off += quota
    return v


def _certified(
    acc: AccessStructure, rates: Sequence, quotas: Sequence, reserved: SdrAssignment
) -> bool:
    """True when the plan's constants prove themselves in the region.

    The rates must be ints (not bools) >= 0 within the K pairwise bounds,
    the quotas ints >= the rates summing to N, and the reserved blocks
    disjoint, inside their access sets and of sizes R'_k.  Such blocks
    are a saturating unit flow for R' (Hall's theorem), so R' meets every
    cutset bound, and so does R <= R': the region check and the quota
    invariants hold with no :class:`~dmuss.access._CutsetFlow`.  False
    only means this shortcut does not apply, malformed containers
    included: the ordered checks then name the fault.
    """
    k_count = acc.K
    try:
        if len(rates) != k_count or len(quotas) != k_count:
            return False
        if any(type(r) is not int or r < 0 for r in rates):
            return False
        if any(type(q) is not int or q < r for q, r in zip(quotas, rates)) or sum(quotas) != acc.N:
            return False
        if k_count >= 2 and any(r > pairwise_bound(acc, k) for k, r in enumerate(rates, 1)):
            return False
        return validate_sdr(acc, quotas, reserved)
    except (TypeError, AttributeError):
        return False


def plan_from_parameters(
    field: Field,
    acc: AccessStructure,
    rates: Sequence[int],
    quotas: Sequence[int],
    reserved: SdrAssignment,
    perms: Sequence,
    alphas: Sequence,
) -> Plan:
    """Assemble and validate a plan from externally supplied constants.

    Used for deserialization and for reproducing published worked
    examples.  All structural invariants are rechecked, and the
    correctness matrix V must come out invertible.  That is checked on
    :attr:`Plan.decode_rows` = H^-1 V^T, whose determinant is det V over
    prod_k det H_k, nonzero for every user (see the module docstring):
    one N x N elimination, which the plan keeps for its later checks.

    The region and the quotas are first read off the plan's own
    certificate (:func:`_certified`): int rates within the pairwise
    bounds, int quotas at least the rates and summing to N, and reserved
    blocks that :func:`~dmuss.sdr.validate_sdr` accepts.  Only when that
    fails do :func:`~dmuss.access.in_capacity_region` and
    :func:`~dmuss.access.validate_quotas` run, in the order below, so
    every error keeps its type and message.

    Raises:
        NotInRegionError: the rates leave the capacity region.
        BadSymbolError: a scaling is not an int (not a bool) in [1, p).
        ValueError: the other constants are inconsistent (a scaling of 0
            among them).
        SingularMatrixError: the correctness matrix is singular.
    """
    if not _certified(acc, rates, quotas, reserved):
        report = in_capacity_region(acc, rates)
        if not report.ok:
            raise NotInRegionError(report.describe())
        if any(int(r) != Fraction(r) for r in rates):
            raise NotInRegionError("plans carry integral rates only")
        if not validate_quotas(acc, rates, quotas):
            raise ValueError("padded lengths fail the augmentation invariants")
        if not validate_sdr(acc, quotas, reserved):
            raise ValueError("reserved blocks are not a valid distinct-representative pick")
    _check_field_size(field, acc)
    if len(perms) != acc.K or len(alphas) != acc.K:
        raise ValueError(f"need {acc.K} permutations and scaling maps, got {len(perms)} and {len(alphas)}")
    for k in range(1, acc.K + 1):
        size = len(acc.user_set(k))
        if sorted(perms[k - 1]) != list(range(1, size + 1)):
            raise ValueError(f"user {k}: not a permutation of 1..{size}")
        per_user = alphas[k - 1]
        if set(per_user) != acc.user_set(k) or 0 in per_user.values():
            raise ValueError(f"user {k}: scalings must cover the access set and be nonzero")
        for n, a in per_user.items():
            if type(a) is not int or not 1 <= a < field.p:
                raise BadSymbolError(f"user {k}, node {n}: scaling {a!r} is not in 1..{field.p - 1}")
    plan = Plan(
        field=field,
        access=acc,
        rates=tuple(int(r) for r in rates),
        quotas=tuple(int(r) for r in quotas),
        reserved=reserved,
        perms=tuple(tuple(p_) for p_ in perms),
        alphas=tuple(dict(a) for a in alphas),
    )
    if plan._decode_det == 0:
        raise SingularMatrixError("supplied constants give a singular correctness matrix")
    return plan
