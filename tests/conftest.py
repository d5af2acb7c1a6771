"""Shared fixtures, fuzz-instance generators, acceptance reporting."""

import dataclasses
import importlib.util
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest

from dmuss import AccessStructure, Field, codec, linalg
from dmuss.access import in_capacity_region, validate_quotas
from dmuss.codec import _check_message_shape, _check_pad_shape, _check_symbols
from dmuss.demo import demo_encode, demo_messages, demo_plan
from dmuss.errors import (
    BadSymbolError,
    NoSdrError,
    NotInRegionError,
    ShapeMismatchError,
    SingularMatrixError,
)
from dmuss.planner import Plan, _check_field_size, plan_decomposition
from dmuss.sdr import DeficiencyCertificate, SdrAssignment, validate_sdr
from dmuss.verify import CorrectnessReport, PairPrivacy

# (number, name, passed) triples filled in by the acceptance suite; echoed
# after the run so each criterion's verdict is one visible line
ACCEPTANCE_RESULTS = []


def record_acceptance(num: int, name: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((num, name, passed))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, name, passed in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num} ({name}): {verdict}")


def compress_nodes(sets):
    """Relabel node ids so the union is exactly 1..N (no gaps)."""
    union = sorted(set().union(*sets))
    remap = {n: i + 1 for i, n in enumerate(union)}
    return [frozenset(remap[n] for n in s) for s in sets]


def random_access(rng: random.Random, min_users=1, max_users=5, max_nodes=10, max_set_size=None):
    """A random access structure; node labels are compressed to 1..N."""
    k = rng.randint(min_users, max_users)
    pool = rng.randint(1, max_nodes)
    sets = []
    for _ in range(k):
        cap = min(pool, max_set_size) if max_set_size else pool
        size = rng.randint(1, cap)
        sets.append(frozenset(rng.sample(range(1, pool + 1), size)))
    return AccessStructure.of(compress_nodes(sets))


def random_rates_in_region(rng: random.Random, acc: AccessStructure, stop_prob=0.2):
    """Random walk inside the region: bump random users while feasible."""
    rates = [0] * acc.K
    while True:
        candidates = []
        for k in range(acc.K):
            rates[k] += 1
            if in_capacity_region(acc, rates).ok:
                candidates.append(k)
            rates[k] -= 1
        if not candidates or rng.random() < stop_prob:
            return tuple(rates)
        rates[rng.choice(candidates)] += 1


def spy(monkeypatch, module, name, record):
    """Wrap ``module.name`` so that each call appends ``record(*args)`` to
    the returned list; keyword arguments pass through unrecorded."""
    calls = []
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def dmuss_caches() -> dict:
    """Every per-process cache in the loaded dmuss modules, by its
    ``module.name``: the functions that carry ``cache_clear``."""
    found = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "dmuss" or mod_name.startswith("dmuss.")):
            continue
        for name, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)) and value.__module__ == mod_name:
                found[f"{mod_name}.{name}"] = value
    return found


@pytest.fixture(autouse=True)
def cold_dmuss_caches():
    """Each test starts with every dmuss cache empty, so a test that
    counts builds or cache misses does not depend on the tests before it."""
    for cache in dmuss_caches().values():
        cache.cache_clear()


# --- primality and pairwise bounds: slow references -----------------------------

SLOW_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def slow_is_prime(n: int) -> bool:
    """Miller-Rabin with all 13 witnesses 2..41 whatever the size of n,
    after trial division by the same primes; proven for n below
    3317044064679887385961981, and no int check."""
    if n < 2:
        return False
    for small in SLOW_MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in SLOW_MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def slow_pairwise_bound(acc: AccessStructure, k: int) -> int:
    """min over other users j of |A_k \\ A_j|, one frozenset difference each."""
    mine = acc.user_set(k)
    return min(len(mine - acc.user_set(j)) for j in range(1, acc.K + 1) if j != k)


# --- reserved blocks: the per-clone matcher, slow reference for find_sdr ---------
# Clone (k, j) for j = 1..R'_k, matched in (user, copy) order by a recursive
# augmenting search; it builds sum R'_k clones and recurses once per hop.

def slow_find_sdr(acc: AccessStructure, quotas: Sequence[int]) -> SdrAssignment:
    """Pick disjoint node blocks within each A_k, with |block k| = R'_k.

    Raises:
        NoSdrError: no such blocks exist; carries a
            :class:`DeficiencyCertificate` naming a clone set D with
            |union of access sets| < |D|.
    """
    if len(quotas) != acc.K:
        raise ValueError(f"expected {acc.K} block sizes, got {len(quotas)}")
    if any(r < 0 or int(r) != r for r in quotas):
        raise ValueError("block sizes must be nonnegative integers")

    clones = [(k, j) for k in range(1, acc.K + 1) for j in range(1, quotas[k - 1] + 1)]
    neighbours = {k: acc.sorted_set(k) for k in range(1, acc.K + 1)}
    owner: dict[int, tuple] = {}  # node -> clone currently holding it

    def extend(clone, visited: set) -> bool:
        k = clone[0]
        # free nodes first, then displaceable ones, each group ascending
        order = sorted(neighbours[k], key=lambda n: (n in owner, n))
        for n in order:
            if n in visited:
                continue
            visited.add(n)
            held_by = owner.get(n)
            if held_by is None or extend(held_by, visited):
                owner[n] = clone
                return True
        return False

    for clone in clones:
        visited: set = set()
        if not extend(clone, visited):
            deficient = [clone] + sorted(owner[n] for n in visited)
            cert = DeficiencyCertificate(
                clones=tuple(sorted(deficient)),
                nodes=tuple(sorted(visited | set(neighbours[clone[0]]))),
            )
            raise NoSdrError(f"no distinct representatives: {cert.describe()}", cert)

    blocks = [set() for _ in range(acc.K)]
    for n, (k, _) in owner.items():
        blocks[k - 1].add(n)
    return SdrAssignment(blocks=tuple(frozenset(b) for b in blocks))


# --- elimination: the slow references for linalg and the permutation choice ----


def copy_matrix(a):
    return [row[:] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(field, a, b):
    """a @ b over GF(p)."""
    p = field.p
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def mat_vec(field, a, v):
    """a @ v over GF(p), with every row as long as v."""
    assert all(len(row) == len(v) for row in a)
    p = field.p
    return [sum(x * y for x, y in zip(row, v)) % p for row in a]


def slow_rref(field, a):
    """Gauss-Jordan reduction: each pivot clears its column above and
    below as soon as it is found."""
    p = field.p
    r = copy_matrix(a)
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    lead = 0
    for col in range(cols):
        piv = next((i for i in range(lead, rows) if r[i][col]), None)
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        inv = pow(r[lead][col], p - 2, p)
        r[lead] = [x * inv % p for x in r[lead]]
        lead_row = r[lead]
        for i in range(rows):
            if i != lead and r[i][col]:
                f = r[i][col]
                r[i] = [(x - f * y) % p for x, y in zip(r[i], lead_row)]
        pivots.append(col)
        lead += 1
        if lead == rows:
            break
    return r, pivots


def slow_solve(field, a, b):
    """The square system a @ x = b read off the last m columns of
    :func:`slow_rref` of [a | b], with b a length-n vector (m = 1, read
    back as a vector) or an n x m block whose columns are right-hand sides."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeMismatchError("coefficient matrix must be square")
    if len(b) != n:
        raise ShapeMismatchError(f"right-hand side has {len(b)} rows, expected {n}")
    block = n > 0 and isinstance(b[0], list)
    rhs = b if block else [[x] for x in b]
    if any(len(row) != len(rhs[0]) for row in rhs):
        raise ShapeMismatchError("right-hand side rows differ in length")
    r, pivots = slow_rref(field, [row + cols for row, cols in zip(a, rhs)])
    if pivots != list(range(n)):
        raise SingularMatrixError("system is singular")
    return [row[n:] for row in r] if block else [row[n] for row in r]


def slow_det(field, a):
    """Determinant by its own forward elimination with swap-sign
    tracking, stopping at the first column without a pivot."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeMismatchError("determinant needs a square matrix")
    p = field.p
    m = copy_matrix(a)
    result = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result % p
        pivot = m[col][col]
        result = result * pivot % p
        inv = pow(pivot, p - 2, p)
        base = m[col]
        for i in range(col + 1, n):
            f = m[i][col]
            if f:
                f = f * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], base)]
    return result


def slow_echelon(field, a, rhs=()):
    """The packed forward elimination with row swaps that the active-list
    loop of ``linalg._echelon`` replaced: the rows below the last pivot
    stay in place, the column's entries are reduced into a list first,
    and the pivot row is swapped up to the lead position (one sign flip
    per swap).  Same return contract as ``linalg._echelon``."""
    p = field.p
    m = linalg.packed(field, a)
    rows, cols = len(m), m.cols
    w = linalg._width(p, rows)
    mask = (1 << w) - 1
    r = list(m.ints)
    if rhs:
        r = [x | linalg._pack(row, w, p) << cols * w for x, row in zip(r, rhs)]
    reduce = linalg._reducer(p, w, cols + (len(rhs[0]) if rhs else 0))
    pivots, inverses = [], []
    d = 1
    lead = 0
    for col in range(cols):
        column = [(x & mask) % p for x in r[lead:]]
        piv = next((i for i, f in enumerate(column) if f), None)
        if piv is None:
            r[lead:] = [x >> w for x in r[lead:]]
            continue
        if piv:
            r[lead], r[lead + piv] = r[lead + piv], r[lead]
            column[0], column[piv] = column[piv], column[0]
            d = -d
        pivot = column[0]
        d = d * pivot % p
        inv = pow(pivot, -1, p)
        minus = p - inv
        top = r[lead] = reduce(r[lead])
        r[lead + 1 :] = [
            (x + f * minus % p * top if f else x) >> w for x, f in zip(r[lead + 1 :], column[1:])
        ]
        pivots.append(col)
        inverses.append(inv)
        lead += 1
        if lead == rows:
            break
    return r[:lead], pivots, inverses, d


def slow_tail_basis(field, quota, set_size):
    """The tail null basis by elimination: ``null_space`` of the tail
    matrix ``build_B``, or the identity when that matrix has no rows."""
    if 0 <= quota == set_size:
        return linalg.null_space(field, [], cols=set_size)
    return linalg.null_space(field, linalg.build_B(field, quota, set_size))


def slow_plan_from_parameters(field, acc, rates, quotas, reserved, perms, alphas) -> Plan:
    """``plan_from_parameters`` with every check on every load, in order:
    the region by ``in_capacity_region`` and the quotas by
    ``validate_quotas`` (a cutset flow each), then the reserved blocks,
    the field size, the permutations and scalings, and det V."""
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
    if slow_det(field, plan_decomposition(plan)) == 0:
        raise SingularMatrixError("supplied constants give a singular correctness matrix")
    return plan


def points(plan, k) -> list:
    """User k's evaluation points gamma^pi_k(i), aligned with its sorted
    access set."""
    g, p = plan.field.gamma, plan.field.p
    return [pow(g, e, p) for e in plan.perms[k - 1]]


def basis_rows(plan) -> list:
    """User k's |A_k| x R'_k permuted null-basis rows at index k-1, aligned
    with its sorted access set: row i is entry pi_k(i) of every basis
    vector, read off user k's columns of ``plan_decomposition`` at unit
    scalings."""
    ones = tuple(dict.fromkeys(scales, 1) for scales in plan.alphas)
    v = plan_decomposition(dataclasses.replace(plan, alphas=ones))
    rows, off = [], 0
    for k, quota in enumerate(plan.quotas, start=1):
        rows.append([v[n - 1][off : off + quota] for n in plan.access.sorted_set(k)])
        off += quota
    return rows


def slow_choose_permutation(field, vectors, sorted_set, zblock):
    """The exponent permutation with the reserved rows of the null basis
    ``vectors`` picked greedily: row j joins when it raises the rank of
    the rows picked so far."""
    size = len(sorted_set)
    quota = len(vectors)
    if quota == 0:
        return tuple(range(1, size + 1))
    rows = transpose(vectors)  # size x quota; row j <-> exponent j+1
    selected = []
    picked_rows = []
    for j in range(size):
        if len(selected) == quota:
            break
        trial = picked_rows + [rows[j]]
        if linalg.rank(field, trial) == len(trial):
            selected.append(j + 1)
            picked_rows.append(rows[j])
    if len(selected) != quota:
        raise SingularMatrixError("null basis lost rank; field data inconsistent")
    zpositions = sorted(sorted_set.index(n) + 1 for n in zblock)
    rest_rows = [j for j in range(1, size + 1) if j not in set(selected)]
    rest_positions = [i for i in range(1, size + 1) if i not in set(zpositions)]
    pi = [0] * size
    for pos, row in zip(zpositions, selected):
        pi[pos - 1] = row
    for pos, row in zip(rest_positions, rest_rows):
        pi[pos - 1] = row
    return tuple(pi)


# --- the lifted encoding system: the slow reference for codec ------------------


@dataclass(frozen=True)
class SystemLayout:
    """Index map for the stacked unknown vector (user tails, then shares)."""

    tail_offsets: tuple  # per user
    tail_lengths: tuple  # per user: |A_k| - R'_k
    share_offset: int
    size: int


def system_layout(plan) -> SystemLayout:
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


def rhs_vector(plan, msgs: Sequence, pads_free: Sequence) -> list:
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
        for g in points(plan, k):
            acc_val = 0
            power = 1
            for coeff in known:
                acc_val = (acc_val + coeff * power) % p
                power = power * g % p
            s.append(-acc_val % p)
    return s


def slow_projection(plan, msgs: Sequence, pads_free: Sequence) -> list:
    """h = P_k^T s_k for every user k, stacked in user order, with s the
    :func:`rhs_vector` and P_k user k's :func:`basis_rows`: the
    right-hand side of V^T Y = h."""
    s = rhs_vector(plan, msgs, pads_free)
    p = plan.field.p
    h, pos = [], 0
    for rows in basis_rows(plan):
        block = s[pos : pos + len(rows)]
        pos += len(rows)
        h.extend(sum(c * v for c, v in zip(col, block)) % p for col in zip(*rows))
    return h


def system_matrix(plan) -> linalg.Matrix:
    """The M x M lifted system, M = sum |A_k|: one row per (user, node of
    A_k) stating g_k(gamma_{k,i}) = -alpha_{k,n} Y_n, with the tail
    coefficients and the shares as unknowns and ``rhs_vector`` as the
    right-hand side."""
    layout = system_layout(plan)
    p = plan.field.p
    a = linalg.zeros(layout.size, layout.size)
    row = 0
    for k in range(1, plan.K + 1):
        nodes = plan.access.sorted_set(k)
        gammas = points(plan, k)
        quota = plan.quotas[k - 1]
        t_off = layout.tail_offsets[k - 1]
        for i in range(len(nodes)):
            g = gammas[i]
            # unknown tail coefficients of this user's polynomial
            power = pow(g, quota, p)
            for t in range(layout.tail_lengths[k - 1]):
                a[row][t_off + t] = power
                power = power * g % p
            n = nodes[i]
            a[row][layout.share_offset + n - 1] = plan.alphas[k - 1][n]
            row += 1
    return a


def slow_decode_rows(plan) -> linalg.Matrix:
    """H^-1 V^T by :func:`slow_solve`, with column (k, d) of H the
    :func:`slow_projection` of user k's input e_d (its message, then its
    free pads) and V the plan's correctness matrix."""
    n = plan.N
    columns = []
    for k in range(1, plan.K + 1):
        for d in range(plan.quotas[k - 1]):
            msgs = [[0] * r for r in plan.rates]
            pads = [[0] * (q - r) for r, q in zip(plan.rates, plan.quotas)]
            r = plan.rates[k - 1]
            if d < r:
                msgs[k - 1][d] = 1
            else:
                pads[k - 1][d - r] = 1
            columns.append(slow_projection(plan, msgs, pads))
    h = transpose(columns) if n else []
    return slow_solve(plan.field, h, transpose(plan_decomposition(plan)))


def slow_decode(plan, k, shares) -> codec.DecodeResult:
    """User k's own Vandermonde on its points in the order of its sorted
    access set, built with ``pow`` and solved by :func:`slow_solve`
    against the scaled shares; ``shares`` is a length-N vector or a
    mapping node -> symbol."""
    p = plan.field.p
    nodes = plan.access.sorted_set(k)
    vals = [shares[n] for n in nodes] if isinstance(shares, dict) else [shares[n - 1] for n in nodes]
    vander = [[pow(g, d, p) for d in range(len(nodes))] for g in points(plan, k)]
    rhs = [-plan.alphas[k - 1][n] * y % p for n, y in zip(nodes, vals)]
    coeffs = slow_solve(plan.field, vander, rhs)
    r = plan.rates[k - 1]
    return codec.DecodeResult(message=coeffs[:r], pads=coeffs[r:])


def slow_scheme_decode(scheme, k, share_blocks) -> list:
    """User k's flat message from a scheme's per-block shares: the
    concatenation of :func:`codec.decode`'s message on every block,
    rate-0 blocks included."""
    codec._check_list(share_blocks, "share blocks")
    plans = scheme.block_plans(len(share_blocks), "expected {} share blocks, got {}")
    return [
        symbol
        for plan, shares in zip(plans, share_blocks)
        for symbol in codec.decode(plan, k, shares).message
    ]


# --- pairwise privacy and the column-by-column transfer map: slow references ------


def message_selector(tm, k) -> linalg.Matrix:
    """The R_k x N 0/1 rows picking user k's message out of T's input."""
    off = tm.message_offsets[k - 1]
    rows = []
    for t in range(tm.rates[k - 1]):
        row = [0] * tm.input_dim
        row[off + t] = 1
        rows.append(row)
    return rows


def slow_check_privacy(tm) -> list:
    """PairPrivacy list from two full eliminations per ordered pair:
    rank(O) and rank(O stacked on user k's message selector), with O the
    observer's rows of T."""
    pairs = []
    for k in range(1, len(tm.rates) + 1):
        selector = message_selector(tm, k)
        for k2 in range(1, len(tm.rates) + 1):
            if k2 == k:
                continue
            observed = [tm.matrix[n - 1] for n in tm.access.sorted_set(k2)]
            base = linalg.rank(tm.field, observed)
            joint = linalg.rank(tm.field, observed + selector)
            required = tm.rates[k - 1]
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
    return pairs


def slow_transfer_map(plan) -> linalg.Matrix:
    """T = V^T^-1 @ [h(e_1) .. h(e_N)], each h(e_j) the per-user
    projection P_k^T s_k of ``rhs_vector`` at input basis vector e_j, and
    V^T^-1 from :func:`slow_solve` against the identity."""
    n = plan.N
    inv = slow_solve(plan.field, transpose(plan_decomposition(plan)), linalg.identity(n))
    hs = []
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        msgs, pads = [], []
        pos = 0
        for r in plan.rates:
            msgs.append(unit[pos : pos + r])
            pos += r
        for r, quota in zip(plan.rates, plan.quotas):
            pads.append(unit[pos : pos + quota - r])
            pos += quota - r
        hs.append(slow_projection(plan, msgs, pads))
    return mat_mul(plan.field, inv, transpose(hs))


# --- the round-trip check that reads the encode's tails: slow reference ----------


def slow_check_correctness(plan, trials=100, seed=0) -> CorrectnessReport:
    """The round trips of ``check_correctness`` with the share identity
    read off the encode's own ``pads.tail``, which derives the tails by
    one more decode of every user: two ``decode_all`` a trial, not one.
    ``codec.encode`` and ``codec.decode_all`` are looked up on each call,
    so a test can inject a fault into both."""
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    rng = random.Random(seed)
    p = plan.field.p
    failures = 0
    first = None

    def note(msg):
        nonlocal failures, first
        failures += 1
        if first is None:
            first = msg

    for trial in range(trials):
        msgs = [[rng.randrange(p) for _ in range(r)] for r in plan.rates]
        res = codec.encode(plan, msgs, seed=rng.randrange(1 << 30))
        for k, got in enumerate(codec.decode_all(plan, res.shares), start=1):
            if got.message != msgs[k - 1]:
                note(f"trial {trial}: user {k} decoded {got.message} != {msgs[k - 1]}")
        for k in range(1, plan.K + 1):
            coeffs = (
                list(msgs[k - 1]) + list(res.pads.free[k - 1]) + list(res.pads.tail[k - 1])
            )
            for g, n in zip(points(plan, k), plan.access.sorted_set(k)):
                val = 0
                for c in reversed(coeffs):
                    val = (val * g + c) % p
                if val != -plan.alphas[k - 1][n] * res.shares[n - 1] % p:
                    note(f"trial {trial}: user {k} node {n}: share identity broken")
    return CorrectnessReport(trials=trials, failures=failures, first_failure=first)


@pytest.fixture(scope="session")
def ref_plan():
    return demo_plan()


@pytest.fixture(scope="session")
def ref_encoded(ref_plan):
    return demo_encode(ref_plan)


@pytest.fixture(scope="session")
def ref_messages():
    return demo_messages()


@pytest.fixture(scope="session")
def field11():
    return Field(11, gamma=8)


def load_bench_gen(monkeypatch):
    """``bench/gen.py``, which makes the benchmark's inputs without dmuss."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module
