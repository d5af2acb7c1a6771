"""Encoding system assembly, retrieval, transfer map, rate mixing.

The reference-instance expectations here (right-hand side, solved
unknowns, shares, per-user recoveries) are the frozen regression values
of the worked example; structural tests recompute expectations
independently from the defining polynomial identity.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_access, random_rates_in_region
from dmuss.access import AccessStructure
from dmuss.codec import (
    decode,
    encode,
    encode_with_pads,
    memory_share,
    rhs_vector,
    split_transfer_input,
    system_layout,
    system_matrix,
    transfer_map,
)
from dmuss.errors import BadSymbolError, DmussError, IncompatiblePlansError, ShapeMismatchError
from dmuss.gf import Field
from dmuss.planner import make_plan

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
        gammas = ref_plan.gammas(k)
        quota = ref_plan.quotas[k - 1]
        for i, n in enumerate(nodes):
            expect = [0] * layout.size
            for t in range(layout.tail_lengths[k - 1]):
                expect[layout.tail_offsets[k - 1] + t] = pow(gammas[i], quota + t, 11)
            expect[layout.share_offset + n - 1] = ref_plan.alpha(k, n)
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
    for i, g in enumerate(plan.gammas(1)):
        want = -(w[0] + o[0] * g) % 11
        assert s[i] == want
    for i, g in enumerate(plan.gammas(2)):
        assert s[2 + i] == -2 % 11


def test_rhs_zero_length_user_contributes_zero_rows():
    f = Field(11)
    acc = AccessStructure.of([[1, 2], [1, 2]])
    plan = make_plan(f, acc, (0, 0), seed=1)
    assert plan.quotas == (2, 0)
    s = rhs_vector(plan, [[], []], [[3, 4], []])
    assert s[2:] == [0, 0]  # the empty polynomial evaluates to zero


def test_shape_validation(ref_plan):
    with pytest.raises(ShapeMismatchError):
        rhs_vector(ref_plan, [[1], [2, 6], [4, 0]], [[]] * 4)
    with pytest.raises(ShapeMismatchError):
        rhs_vector(ref_plan, [[1, 1], [2, 6], [4, 0], [3, 5, 7]], [[]] * 4)
    with pytest.raises(ShapeMismatchError):
        rhs_vector(ref_plan, [[1], [2, 6], [4, 0], [3, 5, 7]], [[1]] * 4)


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
            for g, n in zip(plan.gammas(k), plan.access.sorted_set(k)):
                val = sum(c * pow(g, r, 11) for r, c in enumerate(coeffs)) % 11
                assert val == -plan.alpha(k, n) * res.shares[n - 1] % 11


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
            msgs, pads = split_transfer_input(tm, x)
            assert tm.apply(x) == encode_with_pads(plan, msgs, pads).shares


def test_transfer_map_reference(ref_plan, ref_messages, ref_encoded):
    tm = transfer_map(ref_plan)
    x = [c for m in ref_messages for c in m]  # rates are tight: no pads
    assert tm.apply(x) == ref_encoded.shares
    assert tm.apply([0] * 8) == [0] * 8


def test_transfer_map_selectors(ref_plan):
    tm = transfer_map(ref_plan)
    assert tm.message_offsets == [0, 1, 3, 5]
    assert tm.pad_offsets == [8, 8, 8, 8]
    sel = tm.message_selector(4)
    assert len(sel) == 3
    assert sel[0][5] == 1 and sum(sel[0]) == 1


# --- rate mixing ------------------------------------------------------------------


def test_memory_share_rates_and_lengths(ref_plan):
    zero = make_plan(ref_plan.field, ref_plan.access, (0, 0, 0, 0), seed=3)
    ms = memory_share(ref_plan, zero, 1, 2)
    assert ms.rates() == (Fraction(1, 2), Fraction(1), Fraction(1), Fraction(3, 2))
    assert ms.message_lengths() == (1, 2, 2, 3)
    assert len(ms.block_plans) == 2


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


def test_memory_share_message_validation(ref_plan):
    zero = make_plan(ref_plan.field, ref_plan.access, (0, 0, 0, 0), seed=3)
    ms = memory_share(ref_plan, zero, 1, 2)
    with pytest.raises(ShapeMismatchError):
        ms.encode([[1], [2, 6], [4, 0]], seed=0)
    with pytest.raises(ShapeMismatchError):
        ms.encode([[1, 1], [2, 6], [4, 0], [3, 5, 7]], seed=0)
    with pytest.raises(ShapeMismatchError):
        ms.decode(1, [[0] * 8])
