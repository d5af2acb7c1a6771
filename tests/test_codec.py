"""Encoding system assembly, retrieval, transfer map, rate mixing.

The reference-instance expectations here (right-hand side, solved
unknowns, shares, per-user recoveries) are the frozen regression values
of the worked example; structural tests recompute expectations
independently from the defining polynomial identity.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    message_selector,
    points,
    random_access,
    random_rates_in_region,
    rhs_vector,
    slow_decode,
    slow_decode_rows,
    slow_det,
    slow_rref,
    slow_scheme_decode,
    slow_solve,
    slow_transfer_map,
    spy,
    system_layout,
    system_matrix,
)
from dmuss import codec, linalg
from dmuss.access import AccessStructure, in_capacity_region
from dmuss.codec import (
    EncodeResult,
    MemoryShare,
    PadSet,
    decode,
    decode_all,
    encode,
    encode_with_pads,
    memory_share,
    transfer_map,
)
from dmuss.errors import (
    BadShapeError,
    BadSymbolError,
    DmussError,
    FieldTooSmallError,
    IncompatiblePlansError,
    ShapeMismatchError,
    SingularMatrixError,
)
from dmuss.gf import Field
from dmuss.planner import make_plan, plan_decomposition
from dmuss.verify import check_entropy, check_privacy

# frozen regression values for the reference instance
REF_RHS = [-v % 11 for v in [1, 1, 1, 1, 5, 1, 6, 4, 4, 4, 4, 4, 3, 5, 7, 10, 10]]
REF_SOLUTION = [5, 2, 7, 2, 4, 9, 7, 6, 5, 5, 5, 8, 7, 3, 2, 2, 9]
REF_SHARES = [5, 5, 8, 7, 3, 2, 2, 9]
REF_DECODED = {1: [1], 2: [2, 6], 3: [4, 0], 4: [3, 5, 7]}
REF_PADS = {1: [5, 2, 7], 2: [2, 4], 3: [9, 7], 4: [6, 5]}


def chain_plan(p=11, seed=0):
    """Small instance with a free pad: rates (1, 1) pad to (2, 1)."""
    f = Field(p)
    acc = AccessStructure.of([[1, 2], [2, 3]])
    return make_plan(f, acc, (1, 1), seed=seed)


# --- system assembly -----------------------------------------------------------


def test_layout_reference(ref_plan):
    layout = system_layout(ref_plan)
    assert layout.tail_lengths == (3, 2, 2, 2)
    assert layout.tail_offsets == (0, 3, 5, 7)
    assert layout.share_offset == 9
    assert layout.size == 17


def test_system_matrix_structure(ref_plan):
    a = system_matrix(ref_plan)
    layout = system_layout(ref_plan)
    row = 0
    for k in range(1, 5):
        nodes = ref_plan.access.sorted_set(k)
        gammas = points(ref_plan, k)
        quota = ref_plan.quotas[k - 1]
        for i, n in enumerate(nodes):
            expect = [0] * layout.size
            for t in range(layout.tail_lengths[k - 1]):
                expect[layout.tail_offsets[k - 1] + t] = pow(gammas[i], quota + t, 11)
            expect[layout.share_offset + n - 1] = ref_plan.alphas[k - 1][n]
            assert a[row] == expect
            row += 1
    assert row == 17


def test_rhs_reference_frozen(ref_plan, ref_messages):
    s = rhs_vector(ref_plan, ref_messages, [[] for _ in range(4)])
    assert s == REF_RHS


def test_rhs_includes_free_pads():
    plan = chain_plan()
    w, o = [3], [4]
    s = rhs_vector(plan, [w, [2]], [o, []])
    # independent recomputation straight from the defining polynomial
    for i, g in enumerate(points(plan, 1)):
        want = -(w[0] + o[0] * g) % 11
        assert s[i] == want
    for i, g in enumerate(points(plan, 2)):
        assert s[2 + i] == -2 % 11


def test_rhs_zero_length_user_contributes_zero_rows():
    f = Field(11)
    acc = AccessStructure.of([[1, 2], [1, 2]])
    plan = make_plan(f, acc, (0, 0), seed=1)
    assert plan.quotas == (2, 0)
    s = rhs_vector(plan, [[], []], [[3, 4], []])
    assert s[2:] == [0, 0]  # the empty polynomial evaluates to zero


def test_shape_validation(ref_plan):
    with pytest.raises(ShapeMismatchError, match="expected 4 user messages, got 3"):
        encode_with_pads(ref_plan, [[1], [2, 6], [4, 0]], [[]] * 4)
    with pytest.raises(ShapeMismatchError, match="user 1: message length 2 != rate 1"):
        encode_with_pads(ref_plan, [[1, 1], [2, 6], [4, 0], [3, 5, 7]], [[]] * 4)
    with pytest.raises(ShapeMismatchError, match="user 1: pad block length 1 != 0"):
        encode_with_pads(ref_plan, [[1], [2, 6], [4, 0], [3, 5, 7]], [[1]] * 4)
    # a container that is not a list (nor a mapping, for shares) is a shape error, not a TypeError
    plain, msgs = MemoryShare(((ref_plan, 1),)), [[1], [2, 6], [4, 0], [3, 5, 7]]
    for call in (
        lambda: plain.decode(1, None),
        lambda: plain.decode(1, 5),
        lambda: plain.encode_blocks(None),
        lambda: plain.split_messages(None),
        lambda: decode(ref_plan, 1, None),
        lambda: encode(ref_plan, None),
        lambda: decode_all(ref_plan, 5),
        lambda: encode_with_pads(ref_plan, msgs, None),
        # one user's block that is not a list, inside a list of the right length
        lambda: encode(ref_plan, [None, [2, 6], [4, 0], [3, 5, 7]]),
        lambda: encode_with_pads(ref_plan, msgs, [None, [], [], []]),
        lambda: plain.split_messages([None, [2, 6], [4, 0], [3, 5, 7]]),
    ):
        with pytest.raises(ShapeMismatchError, match="must be a list"):
            call()


@pytest.mark.parametrize("bad", [11, 13, -1, True, 1.0])
def test_symbols_outside_the_field_are_rejected(ref_plan, ref_encoded, bad):
    # 13 and -1 would otherwise be reduced mod 11 and decode as 2 and 10
    msgs = [[bad], [2, 6], [4, 0], [3, 5, 7]]
    with pytest.raises(BadSymbolError):
        encode(ref_plan, msgs)
    assert issubclass(BadSymbolError, DmussError)
    with pytest.raises(BadSymbolError):
        encode_with_pads(chain_plan(), [[1], [2]], [[bad], []])
    shares = list(ref_encoded.shares)
    shares[0] = bad  # node 1 is read by user 1
    with pytest.raises(BadSymbolError):
        decode(ref_plan, 1, shares)
    with pytest.raises(BadSymbolError):
        decode(ref_plan, 1, dict(enumerate(shares, start=1)))


# --- encode ----------------------------------------------------------------------


def test_encode_reference_frozen(ref_plan, ref_messages, ref_encoded):
    assert ref_encoded.solution == REF_SOLUTION
    assert ref_encoded.shares == REF_SHARES
    assert ref_encoded.pads.free == [[], [], [], []]
    assert ref_encoded.pads.tail == [REF_PADS[k] for k in range(1, 5)]


def test_encode_solves_only_for_the_shares(monkeypatch, ref_plan, ref_messages):
    # one N x N solve per encode; the tails' decode of every user waits
    # for the first read
    solves = spy(monkeypatch, linalg, "solve", lambda field, a, s: len(a))
    decodes = spy(monkeypatch, codec, "decode_all", lambda plan, shares: len(shares))
    tails = [REF_PADS[k] for k in range(1, 5)]
    for first in ("tail", "solution"):
        res = encode_with_pads(ref_plan, ref_messages, [[] for _ in range(4)])
        assert solves == [ref_plan.N] and decodes == []
        if first == "tail":
            assert res.pads.tail == tails
        else:
            assert res.solution == REF_SOLUTION
        assert decodes == [ref_plan.N]
        assert res.pads.tail == tails and res.solution == REF_SOLUTION
        assert decodes == [ref_plan.N]  # later reads derive nothing
        solves.clear()
        decodes.clear()
    encode(ref_plan, ref_messages, seed=3)
    assert solves == [ref_plan.N] and decodes == []
    res = encode_with_pads(ref_plan, ref_messages, [[] for _ in range(4)])
    res.shares[0] = (res.shares[0] + 1) % 11
    assert res.pads.tail == tails  # derived from the encode's shares, not the caller's list


def test_encode_result_equality_covers_the_tails(ref_plan):
    # the same shares and free pads under another plan's scalings meet
    # other tails, so the results differ only there
    other = make_plan(ref_plan.field, ref_plan.access, ref_plan.rates, seed=5)
    free = [[] for _ in range(4)]
    ours = EncodeResult(shares=list(REF_SHARES), pads=PadSet(free, ref_plan, list(REF_SHARES)))
    theirs = EncodeResult(shares=list(REF_SHARES), pads=PadSet(free, other, list(REF_SHARES)))
    assert ours.shares == theirs.shares and ours.pads.free == theirs.pads.free
    assert ours.pads.tail != theirs.pads.tail
    assert ours != theirs and ours.pads != theirs.pads
    twin = EncodeResult(shares=list(REF_SHARES), pads=PadSet(free, ref_plan, list(REF_SHARES)))
    assert ours == twin and repr(ours) == repr(twin)
    assert f"tail={[REF_PADS[k] for k in range(1, 5)]!r}" in repr(ours)


def test_encode_zero_everything_gives_zero_shares():
    f = Field(11)
    acc = AccessStructure.of([[1, 2, 3]])
    plan = make_plan(f, acc, (1,), seed=0)
    res = encode_with_pads(plan, [[0]], [[0, 0]])
    assert res.shares == [0, 0, 0]
    assert res.solution == [0, 0, 0]


def test_encode_seed_reproducible():
    plan = chain_plan()
    a = encode(plan, [[5], [6]], seed=99)
    b = encode(plan, [[5], [6]], seed=99)
    assert a.shares == b.shares and a.pads.free == b.pads.free
    c = encode(plan, [[5], [6]], seed=100)
    assert a.pads.free != c.pads.free or a.shares != c.shares


def test_encode_solution_satisfies_defining_identity_fuzz():
    rng = random.Random(41)
    for _ in range(20):
        acc = random_access(rng, max_users=4, max_nodes=7)
        rates = random_rates_in_region(rng, acc)
        plan = make_plan(Field(11), acc, rates, seed=rng.randrange(10**6))
        msgs = [[rng.randrange(11) for _ in range(r)] for r in rates]
        res = encode(plan, msgs, seed=rng.randrange(10**6))
        for k in range(1, acc.K + 1):
            coeffs = msgs[k - 1] + res.pads.free[k - 1] + res.pads.tail[k - 1]
            for g, n in zip(points(plan, k), plan.access.sorted_set(k)):
                val = sum(c * pow(g, r, 11) for r, c in enumerate(coeffs)) % 11
                assert val == -plan.alphas[k - 1][n] * res.shares[n - 1] % 11


def test_encode_linear_in_inputs():
    plan = chain_plan(p=13)
    p = 13
    rng = random.Random(5)
    for _ in range(10):
        w1, w2 = [rng.randrange(p)], [rng.randrange(p)]
        o1 = [rng.randrange(p)]
        v1, v2 = [rng.randrange(p)], [rng.randrange(p)]
        q1 = [rng.randrange(p)]
        ya = encode_with_pads(plan, [w1, w2], [o1, []]).shares
        yb = encode_with_pads(plan, [v1, v2], [q1, []]).shares
        summed = encode_with_pads(
            plan,
            [[(w1[0] + v1[0]) % p], [(w2[0] + v2[0]) % p]],
            [[(o1[0] + q1[0]) % p], []],
        ).shares
        assert summed == [(a + b) % p for a, b in zip(ya, yb)]


def test_encode_matches_lifted_system_fuzz():
    # the N x N solve must give the lifted M x M system's unique solution
    rng = random.Random(43)
    with_pads = big_field = 0
    for _ in range(200):
        acc = random_access(rng, max_users=5, max_nodes=8)
        rates = random_rates_in_region(rng, acc)
        p = rng.choice([11, 13, 17, 65537])
        plan = make_plan(Field(p), acc, rates, seed=rng.randrange(10**6))
        msgs = [[rng.randrange(p) for _ in range(r)] for r in rates]
        pads = [[rng.randrange(p) for _ in range(q - r)] for r, q in zip(rates, plan.quotas)]
        res = encode_with_pads(plan, msgs, pads)
        want = linalg.solve(plan.field, system_matrix(plan), rhs_vector(plan, msgs, pads))
        layout = system_layout(plan)
        assert res.solution == want
        assert len(want) == plan.unknown_count
        assert res.shares == want[layout.share_offset :]
        assert res.pads.tail == [
            want[off : off + length]
            for off, length in zip(layout.tail_offsets, layout.tail_lengths)
        ]
        with_pads += plan.quotas != plan.rates
        big_field += p == 65537
    assert with_pads >= 50 and big_field >= 30


# --- decode ----------------------------------------------------------------------


def test_decode_reference_all_users(ref_plan, ref_encoded):
    for k in range(1, 5):
        got = decode(ref_plan, k, ref_encoded.shares)
        assert got.message == REF_DECODED[k]
        assert got.pads == REF_PADS[k]


def test_decode_from_restricted_mapping(ref_plan, ref_encoded):
    restricted = {n: ref_encoded.shares[n - 1] for n in [1, 3, 4, 7]}
    got = decode(ref_plan, 2, restricted)
    assert got.message == [2, 6]
    with pytest.raises(ShapeMismatchError):
        decode(ref_plan, 2, {1: 0, 3: 0})
    with pytest.raises(ShapeMismatchError):
        decode(ref_plan, 2, [0] * 7)


@pytest.mark.parametrize("k", [0, 5, -1, True])
def test_decode_rejects_user_outside_one_to_k(ref_plan, ref_encoded, k):
    # 0 and -1 used to index from the end (0 decoded user 4), True decoded user 1
    with pytest.raises(ShapeMismatchError):
        decode(ref_plan, k, ref_encoded.shares)
    ms = memory_share(ref_plan, ref_plan, 1, 1)
    with pytest.raises(ShapeMismatchError):
        ms.decode(k, [ref_encoded.shares])


def test_corrupted_share_changes_some_decode(ref_plan, ref_encoded):
    for n in range(1, 9):
        tampered = list(ref_encoded.shares)
        tampered[n - 1] = (tampered[n - 1] + 1) % 11
        changed = False
        for k in range(1, 5):
            if n not in ref_plan.access.user_set(k):
                continue
            before = decode(ref_plan, k, ref_encoded.shares)
            after = decode(ref_plan, k, tampered)
            if (before.message, before.pads) != (after.message, after.pads):
                changed = True
        assert changed, f"corrupting node {n} went unnoticed"


# --- transfer map ----------------------------------------------------------------


def test_transfer_map_matches_encode_fuzz():
    rng = random.Random(42)
    for _ in range(10):
        acc = random_access(rng, max_users=4, max_nodes=7)
        rates = random_rates_in_region(rng, acc)
        plan = make_plan(Field(11), acc, rates, seed=rng.randrange(10**6))
        tm = transfer_map(plan)
        assert tm.input_dim == plan.N == len(tm.matrix)
        for _ in range(5):
            x = [rng.randrange(11) for _ in range(tm.input_dim)]
            msgs = [x[off : off + r] for off, r in zip(tm.message_offsets, plan.rates)]
            pads = [
                x[off : off + q - r] for off, r, q in zip(tm.pad_offsets, plan.rates, plan.quotas)
            ]
            shares = encode_with_pads(plan, msgs, pads).shares
            assert linalg.mat_vec(tm.field, tm.matrix, x) == shares


def test_decode_rows_match_slow_reference_fuzz():
    # the closed-form rows equal H^-1 V^T by elimination, and user k's
    # rows equal the low rows of its own Vandermonde's inverse times
    # -alpha on A_k, 0 elsewhere
    rng = random.Random(45)
    seen = Counter()
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13, 65537, 2**31 - 1])
        acc = random_access(rng, max_users=5, max_nodes=8, max_set_size=p - 1)
        plan = make_plan(Field(p), acc, random_rates_in_region(rng, acc), seed=rng.randrange(10**6))
        rows = plan.decode_rows
        assert rows == slow_decode_rows(plan)
        off = 0
        for k in range(1, plan.K + 1):
            nodes, quota = acc.sorted_set(k), plan.quotas[k - 1]
            g = points(plan, k)
            inv = linalg.inverse(plan.field, [[pow(x, d, p) for d in range(len(g))] for x in g])
            for d in range(quota):
                want = [0] * plan.N
                for i, n in enumerate(nodes):
                    want[n - 1] = -plan.alphas[k - 1][n] * inv[d][i] % p
                assert rows[off + d] == want, (plan, k, d)
            off += quota
            seen["empty"] += quota == 0
            seen["full"] += quota == len(nodes)
        seen["single user"] += plan.K == 1
        seen[p] += 1
    assert seen["empty"] >= 100 and seen["full"] >= 100 and seen["single user"] >= 10
    assert all(seen[p] >= 15 for p in (3, 5, 7, 11, 13, 65537, 2**31 - 1)), seen


def test_decode_all_matches_slow_decode_fuzz():
    # one Vandermonde solve per set size gives every user's per-user
    # solve, from share vectors and from share maps
    rng = random.Random(46)
    shared = distinct = maps = 0
    for _ in range(150):
        p = rng.choice([5, 11, 13, 65537])
        acc = random_access(rng, max_users=6, max_nodes=9, max_set_size=p - 1)
        plan = make_plan(Field(p), acc, random_rates_in_region(rng, acc), seed=rng.randrange(10**6))
        for _ in range(3):
            shares = [rng.randrange(p) for _ in range(plan.N)]
            if rng.random() < 0.5:
                shares = {n: y for n, y in enumerate(shares, start=1)}
                maps += 1
            want = [slow_decode(plan, k, shares) for k in range(1, plan.K + 1)]
            assert decode_all(plan, shares) == want
            assert [decode(plan, k, shares) for k in range(1, plan.K + 1)] == want
        sizes = [len(s) for s in acc.sets]
        shared += len(set(sizes)) < len(sizes)
        distinct += len(set(sizes)) > 1
    assert shared >= 50 and distinct >= 50 and maps >= 150


def test_decode_all_solves_once_per_set_size(monkeypatch, ref_plan, ref_encoded):
    solves = spy(monkeypatch, linalg, "solve", lambda f, a, b: (len(a), isinstance(b[0], list) and len(b[0])))
    got = decode_all(ref_plan, ref_encoded.shares)
    assert [g.message for g in got] == [REF_DECODED[k] for k in range(1, 5)]
    assert [g.pads for g in got] == [REF_PADS[k] for k in range(1, 5)]
    assert solves == [(4, 3), (5, False)]  # users 1-3 share four points; user 4 alone: a vector
    with pytest.raises(ShapeMismatchError):
        decode_all(ref_plan, {1: 0, 3: 0})
    with pytest.raises(BadSymbolError):
        decode_all(ref_plan, [11] + ref_encoded.shares[1:])


def test_malformed_plans_raise_from_every_reader(ref_plan):
    # exponents that are not a permutation of 1..|A_k| repeat a point, and
    # |A_k| > p - 1 points collide, and a scaling that is not an int, or
    # none at all, cannot be written into the packed rows: the decode rows
    # refuse all four, and so does everything that reads them
    twice = dataclasses.replace(ref_plan, perms=((1, 1, 2, 3),) + ref_plan.perms[1:])
    small = dataclasses.replace(ref_plan, field=Field(3))  # sets of 4 and 5 points
    floaty = dataclasses.replace(ref_plan, alphas=({**ref_plan.alphas[0], 1: 2.0},) + ref_plan.alphas[1:])
    missing = dataclasses.replace(ref_plan, alphas=({6: 1, 7: 1, 8: 1},) + ref_plan.alphas[1:])  # no node 1
    readers = [
        lambda plan: plan.decode_rows,
        lambda plan: encode(plan, [[0] * r for r in plan.rates], seed=1),
        transfer_map,
        check_privacy,
        check_entropy,
    ]
    cases = [
        (twice, SingularMatrixError, readers),
        (small, FieldTooSmallError, readers),
        (floaty, BadSymbolError, readers),
        (missing, BadSymbolError, readers + [lambda plan: decode(plan, 1, REF_SHARES), plan_decomposition]),
    ]
    for plan, error, reads in cases:
        for read in reads:
            with pytest.raises(error):
                read(plan)
    # users 1-3 share one table of four points, built to R'_k = 2: user
    # 1's own R'_k is still checked
    with pytest.raises(BadShapeError):
        dataclasses.replace(ref_plan, quotas=(-1,) + ref_plan.quotas[1:]).decode_rows
    with pytest.raises(SingularMatrixError):
        decode(twice, 1, REF_SHARES)
    with pytest.raises(SingularMatrixError):
        decode_all(small, [0] * 8)


def test_transfer_map_matches_column_oracle_fuzz():
    # the solve of D T = P against the decode rows must equal V^T's
    # inverse times the column-by-column projections, bit for bit
    rng = random.Random(44)
    with_pads = small_field = 0
    for _ in range(200):
        acc = random_access(rng, max_users=5, max_nodes=9)
        rates = random_rates_in_region(rng, acc)
        p = rng.choice([11, 13, 17, 65537])
        plan = make_plan(Field(p), acc, rates, seed=rng.randrange(10**6))
        assert transfer_map(plan).matrix == slow_transfer_map(plan)
        with_pads += plan.quotas != plan.rates
        small_field += p < 65537
    assert with_pads >= 50 and small_field >= 100


def test_transfer_map_is_one_solve_against_the_input_permutation(monkeypatch):
    # encode solves D Y = x with D the decode rows; the transfer map is
    # that solve with the 0/1 input permutation, N columns, and reduces
    # nothing else
    plan = make_plan(Field(13), AccessStructure.of([[1, 2, 3], [2, 3, 4], [1, 4, 5]]), (1, 1, 1))
    assert plan.quotas != plan.rates
    solves = spy(monkeypatch, linalg, "solve", lambda f, a, b: (a, b))
    rrefs = spy(monkeypatch, linalg, "rref", lambda f, a: len(a))
    tm = transfer_map(plan)
    [(a, b)] = solves
    assert a is plan.decode_rows
    assert sorted(b) == sorted(linalg.identity(plan.N)) and b != linalg.identity(plan.N)
    assert rrefs == []
    assert tm.matrix == slow_transfer_map(plan)


def test_transfer_map_refuses_rates_outside_the_quotas():
    # rates (4, 1, 1) on quotas (3, 2, 1) used to give message offsets
    # [0, 4, 5] and pad offsets [6, 5, 6], and a rate of True passed as 1;
    # the map now refuses them as check_privacy does, with its error
    plan = make_plan(Field(11), AccessStructure.of([[1, 2, 3], [3, 4, 5], [1, 5, 6]]), [1, 1, 1], seed=1)
    assert plan.quotas == (3, 2, 1)
    for rates in ((4, 1, 1), (True, 1, 1)):
        broken = dataclasses.replace(plan, rates=rates)
        with pytest.raises(ShapeMismatchError) as got:
            transfer_map(broken)
        with pytest.raises(ShapeMismatchError) as want:
            check_privacy(broken)
        assert str(got.value) == str(want.value) == f"user 1: rate {rates[0]!r} is not an int in 0..R'_k = 3"
    assert transfer_map(dataclasses.replace(plan, rates=(3, 0, 0))).message_offsets == [0, 3, 3]


def test_transfer_map_reference(ref_plan, ref_messages, ref_encoded):
    tm = transfer_map(ref_plan)
    x = [c for m in ref_messages for c in m]  # rates are tight: no pads
    assert linalg.mat_vec(tm.field, tm.matrix, x) == ref_encoded.shares
    assert linalg.mat_vec(tm.field, tm.matrix, [0] * 8) == [0] * 8


def test_transfer_map_selectors(ref_plan):
    tm = transfer_map(ref_plan)
    assert tm.message_offsets == [0, 1, 3, 5]
    assert tm.pad_offsets == [8, 8, 8, 8]
    sel = message_selector(tm, 4)
    assert len(sel) == 3
    assert sel[0][5] == 1 and sum(sel[0]) == 1


def test_user_and_node_indices_outside_the_range_raise(ref_plan):
    # 0 used to read user K's data, K + 1 a bare IndexError, True user
    # 1's, 1.0 a bare TypeError
    for k in (0, -1, 5, True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match="no user"):
            ref_plan.reserved.block(k)
        with pytest.raises(ValueError, match="no user"):
            ref_plan.reserved.sorted_block(k)


# --- rate mixing ------------------------------------------------------------------


def test_memory_share_rates_and_lengths(ref_plan):
    zero = make_plan(ref_plan.field, ref_plan.access, (0, 0, 0, 0), seed=3)
    ms = memory_share(ref_plan, zero, 1, 2)
    assert ms.rates() == (Fraction(1, 2), Fraction(1), Fraction(1), Fraction(3, 2))
    assert ms.message_lengths() == (1, 2, 2, 3)
    assert list(ms.block_plans(2)) == [ref_plan, zero]


def test_memory_share_round_trip(ref_plan, ref_messages):
    zero = make_plan(ref_plan.field, ref_plan.access, (0, 0, 0, 0), seed=3)
    ms = memory_share(ref_plan, zero, 1, 2)
    flat = [list(m) for m in ref_messages]
    results = ms.encode(flat, seed=17)
    assert len(results) == 2
    share_blocks = [r.shares for r in results]
    for k in range(1, 5):
        assert ms.decode(k, share_blocks) == flat[k - 1]


def test_memory_share_degenerate_weights(ref_plan):
    zero = make_plan(ref_plan.field, ref_plan.access, (0, 0, 0, 0), seed=3)
    all_a = memory_share(ref_plan, zero, 2, 2)
    assert all_a.rates() == (1, 2, 2, 3)
    all_b = memory_share(ref_plan, zero, 0, 2)
    assert all_b.rates() == (0, 0, 0, 0)
    assert all_b.message_lengths() == (0, 0, 0, 0)


def test_memory_share_rejects_mismatches(ref_plan):
    other_field = make_plan(Field(13), ref_plan.access, (1, 2, 2, 3), seed=0)
    with pytest.raises(IncompatiblePlansError):
        memory_share(ref_plan, other_field, 1, 2)
    other_acc = make_plan(
        ref_plan.field, AccessStructure.of([[1, 2], [2, 3]]), (1, 1), seed=0
    )
    with pytest.raises(IncompatiblePlansError):
        memory_share(ref_plan, other_acc, 1, 2)
    zero = make_plan(ref_plan.field, ref_plan.access, (0, 0, 0, 0), seed=3)
    with pytest.raises(IncompatiblePlansError):
        memory_share(ref_plan, zero, 3, 2)
    with pytest.raises(IncompatiblePlansError):
        memory_share(ref_plan, zero, 0, 0)
    # a missing plan was a bare AttributeError
    for plan_a, plan_b in ((ref_plan, None), (None, ref_plan)):
        with pytest.raises(IncompatiblePlansError):
            memory_share(plan_a, plan_b, 1, 2)


def test_memory_share_message_validation(ref_plan):
    zero = make_plan(ref_plan.field, ref_plan.access, (0, 0, 0, 0), seed=3)
    ms = memory_share(ref_plan, zero, 1, 2)
    with pytest.raises(ShapeMismatchError):
        ms.encode([[1], [2, 6], [4, 0]], seed=0)
    with pytest.raises(ShapeMismatchError):
        ms.encode([[1, 1], [2, 6], [4, 0], [3, 5, 7]], seed=0)
    with pytest.raises(ShapeMismatchError):
        ms.decode(1, [[0] * 8])
    # a plan alone repeats for any positive block count
    plain = MemoryShare(((ref_plan, 1),))
    assert list(plain.block_plans(3)) == [ref_plan] * 3
    with pytest.raises(ShapeMismatchError):
        plain.decode(1, [])


def raised(call):
    """(type, message) of what ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # any type: the caller compares it with the reference's
        return type(exc), str(exc)
    return None


def test_scheme_decode_matches_slow_scheme_decode_fuzz():
    # a block that gives user k rate 0 is checked and not interpolated;
    # the message is still every block's decode, concatenated
    rng = random.Random(48)
    mixes = plain_with_zero = zero_blocks = 0
    for _ in range(120):
        p = rng.choice([5, 11, 13, 65537])
        acc = random_access(rng, max_users=5, max_nodes=8, max_set_size=p - 1)
        rates = list(random_rates_in_region(rng, acc))
        if rng.random() < 0.5:
            rates[rng.randrange(acc.K)] = 0  # the region is closed downwards
        plan_a = make_plan(Field(p), acc, rates, seed=rng.randrange(10**6))
        if rng.random() < 0.5:
            rates_b = [0] * acc.K if rng.random() < 0.5 else random_rates_in_region(rng, acc)
            plan_b = make_plan(Field(p), acc, rates_b, seed=rng.randrange(10**6))
            count = rng.randint(1, 4)
            scheme = memory_share(plan_a, plan_b, rng.randint(0, count), count)
            mixes += 1
        else:
            scheme, count = MemoryShare(((plan_a, 1),)), rng.randint(1, 3)
            plain_with_zero += 0 in rates
        blocks = []
        for _ in range(count):
            shares = [rng.randrange(p) for _ in range(acc.N)]
            blocks.append(dict(enumerate(shares, start=1)) if rng.random() < 0.5 else shares)
        plans = list(scheme.block_plans(count))
        for k in range(1, acc.K + 1):
            assert scheme.decode(k, blocks) == slow_scheme_decode(scheme, k, blocks)
            zero_blocks += sum(plan.rates[k - 1] == 0 for plan in plans)
    assert mixes >= 40 and plain_with_zero >= 20 and zero_blocks >= 200


def test_scheme_decode_interpolates_only_blocks_with_a_message(monkeypatch, ref_plan, ref_messages):
    zero = make_plan(ref_plan.field, ref_plan.access, (0, 0, 0, 0), seed=3)
    user_1_zero = make_plan(ref_plan.field, ref_plan.access, (0, 2, 2, 3), seed=5)
    mix = memory_share(ref_plan, zero, 1, 3)
    blocks = [r.shares for r in mix.encode([list(m) for m in ref_messages], seed=9)]
    solves = spy(monkeypatch, linalg, "solve", lambda *args: None)
    for k in range(1, 5):
        solves.clear()
        assert mix.decode(k, blocks) == ref_messages[k - 1]
        assert len(solves) == 1  # the ref_plan block; the two zero-plan blocks hold nothing
    plain = MemoryShare(((user_1_zero, 1),))
    solves.clear()
    assert plain.decode(1, blocks) == [] and solves == []
    assert len(plain.decode(2, blocks)) == 6 and len(solves) == 3
    # decode and decode_all still interpolate a rate-0 user: they return its pads
    solves.clear()
    got = decode(zero, 1, blocks[1])
    assert got.message == [] and len(got.pads) == 4 and len(solves) == 1


def test_rate_zero_block_raises_as_its_decode_does(ref_plan, ref_encoded):
    # user 1 reads nodes 1, 6, 7, 8, and has rate 0 in the last block of each scheme
    zero = make_plan(ref_plan.field, ref_plan.access, (0, 0, 0, 0), seed=3)
    user_1_zero = make_plan(ref_plan.field, ref_plan.access, (0, 2, 2, 3), seed=5)
    good = list(ref_encoded.shares)
    bad_blocks = [
        {n: y for n, y in enumerate(good, start=1) if n != 6},  # lacks a node of A_1
        good[:5] + [11] + good[6:],  # a symbol >= p on node 6
        good[:5] + [True] + good[6:],  # a bool on node 6
        dict(enumerate(good[:5] + [-1] + good[6:], start=1)),
        good[:7],  # a vector of the wrong length
        None,  # not a list or mapping
        5,
        "x",
        {1, 6, 7, 8},
    ]
    for scheme in (memory_share(ref_plan, zero, 1, 2), MemoryShare(((user_1_zero, 1),))):
        assert list(scheme.block_plans(2))[-1].rates[0] == 0
        for bad in bad_blocks:
            blocks = [good, bad]
            want = raised(lambda: slow_scheme_decode(scheme, 1, blocks))
            assert want is not None and issubclass(want[0], DmussError), bad
            assert raised(lambda: scheme.decode(1, blocks)) == want, bad
    # k is checked before any rate is read: 0 does not reach user K's rate 0
    user_4_zero = make_plan(ref_plan.field, ref_plan.access, (1, 2, 2, 0), seed=5)
    for scheme in (memory_share(user_4_zero, zero, 1, 2), MemoryShare(((user_4_zero, 1),))):
        for k in (0, -1, 5, True, 1.0, None):
            want = raised(lambda: slow_scheme_decode(scheme, k, [good, good]))
            assert want[0] is ShapeMismatchError
            assert raised(lambda: scheme.decode(k, [good, good])) == want


# --- the whole pipeline at benchmark-like sizes against the slow elimination -----


def sized_instance(rng, n, sizes):
    """Access sets of the given sizes covering 1..n, and in-region rates
    from a random node-to-reader assignment capped by the pairwise bounds
    min over j of |A_k - A_j|."""
    while True:
        sets = [frozenset(rng.sample(range(1, n + 1), size)) for size in sizes]
        if len(frozenset().union(*sets)) == n:
            break
    counts = [0] * len(sets)
    for node in range(1, n + 1):
        counts[rng.choice([k for k, s in enumerate(sets) if node in s])] += 1
    bounds = [min(len(a - b) for b in sets if b is not a) for a in sets]
    acc = AccessStructure.of([sorted(s) for s in sets])
    rates = tuple(min(c, b) for c, b in zip(counts, bounds))
    assert in_capacity_region(acc, rates).ok
    return acc, rates


def pipeline(field, acc, rates, seed):
    plan = make_plan(field, acc, rates, seed=seed)
    rng = random.Random(seed)
    msgs = [[rng.randrange(field.p) for _ in range(r)] for r in rates]
    enc = encode(plan, msgs, seed=seed)
    enc.solution  # derives the tails here, under this run's elimination
    decoded = [decode(plan, k, enc.shares) for k in range(1, plan.K + 1)]
    assert [d.message for d in decoded] == msgs
    return plan, enc, decoded, transfer_map(plan).matrix


@pytest.mark.parametrize(
    "p,n,sizes",
    [
        (65537, 64, [25 + (15 * i) // 11 for i in range(12)]),  # K = 12, sets of 25..40
        (2**31 - 1, 48, [24] * 6),
    ],
)
def test_pipeline_at_benchmark_sizes_matches_slow_elimination(monkeypatch, p, n, sizes):
    field = Field(p)
    acc, rates = sized_instance(random.Random(p), n, sizes)
    fast = pipeline(field, acc, rates, seed=5)
    monkeypatch.setattr(linalg, "rref", slow_rref)
    monkeypatch.setattr(linalg, "solve", slow_solve)
    monkeypatch.setattr(linalg, "rank", lambda f, a: len(slow_rref(f, a)[1]))
    monkeypatch.setattr(linalg, "det", slow_det)
    assert pipeline(field, acc, rates, seed=5) == fast
