"""Capacity region: constraint generation, membership, augmentation.

Membership verdicts, violation witnesses and augmented quotas are
cross-checked against test-local oracles that work straight from the
definition with sets and itertools (every user group is enumerated), and
the reference instance's full inequality list is frozen.
"""

import dataclasses
import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import compress_nodes, random_access, random_rates_in_region, slow_pairwise_bound, spy
from dmuss.access import (
    AccessStructure,
    _CutsetFlow,
    augment_quotas,
    capacity_constraints,
    enumerate_integer_region,
    in_capacity_region,
    pairwise_bound,
    validate_quotas,
)
from dmuss.errors import NotInRegionError, SingleUserError, TooLargeError, TooManyUsersError
from dmuss.gf import Field
from dmuss.planner import make_plan, plan_from_parameters

REF_SETS = [[1, 6, 7, 8], [1, 3, 4, 7], [1, 2, 3, 8], [2, 4, 5, 6, 7]]

# frozen: the four per-user bounds and all multi-user cutsets of the
# reference instance
REF_PAIRWISE = {(1,): 2, (2,): 2, (3,): 2, (4,): 3}
REF_CUTSETS_MULTI = {
    (1, 2): 6,
    (1, 3): 6,
    (1, 4): 7,
    (2, 3): 6,
    (2, 4): 7,
    (3, 4): 8,
    (1, 2, 3): 7,
    (1, 2, 4): 8,
    (1, 3, 4): 8,
    (2, 3, 4): 8,
    (1, 2, 3, 4): 8,
}
REF_CUTSETS_SINGLE = {(1,): 4, (2,): 4, (3,): 4, (4,): 5}


def ref_access():
    return AccessStructure.of(REF_SETS)


def slow_excesses(sets, rates):
    """{group: sum of its rates - |union of its sets|} over every nonempty
    group of 0-indexed users."""
    sets = [set(s) for s in sets]
    rates = [Fraction(r) for r in rates]
    out = {}
    for size in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            union = set().union(*(sets[i] for i in combo))
            out[combo] = sum(rates[i] for i in combo) - len(union)
    return out


def slow_in_region(sets, rates):
    """Definition-level oracle: pairwise set differences and all unions."""
    sets = [set(s) for s in sets]
    k = len(sets)
    rates = [Fraction(r) for r in rates]
    if k >= 2:
        for i in range(k):
            bound = min(len(sets[i] - sets[j]) for j in range(k) if j != i)
            if rates[i] > bound:
                return False
    return all(e <= 0 for e in slow_excesses(sets, rates).values())


def slow_greedy_quotas(sets, rates):
    """Quota augmentation as first specified: repeatedly raise the first
    user whose +1 keeps every cutset bound, until the total is N."""
    quotas = list(rates)
    n = len(set().union(*sets))
    while sum(quotas) < n:
        for k in range(len(quotas)):
            quotas[k] += 1
            if all(e <= 0 for e in slow_excesses(sets, quotas).values()):
                break
            quotas[k] -= 1
        else:
            raise AssertionError("greedy stuck below N")
    return tuple(quotas)


# --- structure validation --------------------------------------------------------


def test_access_structure_validation():
    acc = ref_access()
    assert acc.K == 4 and acc.N == 8
    # N is the union's size, derived once and kept off the fields
    assert "N" not in {f.name for f in dataclasses.fields(acc)} and "N" not in repr(acc)
    assert acc.N == len(frozenset().union(*acc.sets))
    assert acc == AccessStructure.of(REF_SETS) and hash(acc) == hash(AccessStructure.of(REF_SETS))
    assert acc.sorted_set(4) == [2, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        AccessStructure.of([])
    with pytest.raises(ValueError):
        AccessStructure.of([[1], []])
    with pytest.raises(ValueError):
        AccessStructure.of([[1, 3]])  # node 2 uncovered
    with pytest.raises(ValueError):
        AccessStructure.of([[0, 1]])
    # None, or sets that are not iterables, raised TypeError
    for bad in (None, 5, [None], [1, 2]):
        with pytest.raises(ValueError, match="iterables of node ids"):
            AccessStructure.of(bad)


def test_user_index_out_of_range():
    # True used to read user 1's set, 1.0 raised a bare TypeError
    acc = ref_access()
    for k in (0, -1, 5, True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match="no user"):
            acc.user_set(k)
        with pytest.raises(ValueError, match="no user"):
            acc.sorted_set(k)
        with pytest.raises(ValueError, match="no user"):
            pairwise_bound(acc, k)


def test_union_size_refuses_users_that_are_not_users():
    # union_size indexed the masks unchecked: [0] counted user 4's set,
    # [-1] user 3's, [True] user 1's, and [5] escaped as an IndexError
    acc = ref_access()
    for k in (0, -1, 5, True, False, 1.0, None):
        with pytest.raises(ValueError, match=f"^no user {k!r}: users are 1..4$"):
            acc.union_size([k])
        with pytest.raises(ValueError, match="no user"):
            acc.union_size([1, 2, k])
    assert acc.union_size([]) == 0 and acc.union_size([1, 2]) == 6 and acc.union_size(range(1, 5)) == 8


def test_access_structure_node_ids_are_ints():
    # a float or bool id would reach the planner, a str id the sort
    for bad in (1.0, True, "1"):
        with pytest.raises(ValueError, match="node ids"):
            AccessStructure.of([[bad, 2], [2, 3]])


# --- constraint generation --------------------------------------------------------


def test_reference_constraints_frozen():
    cons = capacity_constraints(ref_access())
    pairwise = {c.users: c.bound for c in cons if c.kind == "pairwise"}
    cutsets = {c.users: c.bound for c in cons if c.kind == "cutset"}
    assert pairwise == REF_PAIRWISE
    multi = {u: b for u, b in cutsets.items() if len(u) >= 2}
    assert multi == REF_CUTSETS_MULTI
    single = {u: b for u, b in cutsets.items() if len(u) == 1}
    assert single == REF_CUTSETS_SINGLE
    # the defining list: 4 pairwise + 11 multi-user cutsets
    assert len(pairwise) + len(multi) == 15
    assert len(cons) == 19


def test_constraint_strings():
    cons = capacity_constraints(ref_access())
    texts = [str(c) for c in cons]
    assert "R4 <= 3 (pairwise)" in texts
    assert "R1 + R2 + R3 + R4 <= 8 (cutset)" in texts


def test_pairwise_bound_frozen():
    acc = ref_access()
    assert [pairwise_bound(acc, k) for k in range(1, 5)] == [2, 2, 2, 3]
    twin = AccessStructure.of([[1, 2], [1, 2]])
    assert pairwise_bound(twin, 1) == 0
    single = AccessStructure.of([[1, 2]])
    with pytest.raises(SingleUserError):
        pairwise_bound(single, 1)


def test_pairwise_bounds_and_unions_match_slow_references_fuzz():
    # node masks against frozenset differences and unions
    rng = random.Random(241)
    for _ in range(300):
        acc = random_access(rng, min_users=2, max_users=8, max_nodes=40)
        for k in range(1, acc.K + 1):
            assert pairwise_bound(acc, k) == slow_pairwise_bound(acc, k), (acc, k)
        users = rng.sample(range(1, acc.K + 1), rng.randint(0, acc.K))
        assert acc.union_size(users) == len(frozenset().union(*(acc.user_set(k) for k in users)))


def wide_instance(rng, users, nodes):
    """Each node in each access set with probability 1/2, and rates from a
    random node-to-reader assignment capped at the pairwise bounds."""
    sets = [set() for _ in range(users)]
    assigned = [0] * users
    for n in range(1, nodes + 1):
        readers = [k for k in range(users) if rng.random() < 0.5] or [rng.randrange(users)]
        for k in readers:
            sets[k].add(n)
        assigned[rng.choice(readers)] += 1
    acc = AccessStructure.of(sets)
    return acc, [min(a, pairwise_bound(acc, k + 1)) for k, a in enumerate(assigned)]


def test_too_many_users():
    # listing every inequality is exponential in K and stays capped ...
    with pytest.raises(TooManyUsersError):
        capacity_constraints(AccessStructure.of([[1]] * 21))
    # ... but checking and planning are not: K = 40, N = 60 in well under 1 s
    acc, rates = wide_instance(random.Random(40), 40, 60)
    start = time.perf_counter()
    report = in_capacity_region(acc, rates)
    plan = make_plan(Field(65537), acc, rates, seed=0)
    assert time.perf_counter() - start < 1.0
    assert report.ok and report.checked == 40 + 2**40 - 1
    assert sum(plan.quotas) == acc.N

    # rates with a denominator of about 10^9, inside and outside the region
    scale = Fraction(10**9 + 7, 10**9 + 9)
    bounds = [pairwise_bound(acc, k) for k in range(1, 41)]
    start = time.perf_counter()
    inside = in_capacity_region(acc, [r * scale for r in rates])
    outside = in_capacity_region(acc, [b * scale for b in bounds])
    assert time.perf_counter() - start < 1.0
    assert inside.ok
    assert not outside.ok and outside.violation.kind == "cutset"
    assert outside.violation_lhs > outside.violation.bound
    assert outside.violation.bound == acc.union_size(outside.violation.users)


def test_scaled_flow_search_count(monkeypatch):
    """Counting the minimum-cut search, a plain depth-first flow takes
    31,859 searches on the first demand and 7,735 on the second at unit
    10^6; capacity scaling keeps the count within 4 K log2(unit), whatever
    the unit."""
    acc = AccessStructure.of([[1, 3], [1, 2, 3, 4], [1, 2, 3], [4]])
    searches = spy(monkeypatch, _CutsetFlow, "_search", lambda *args: None)
    for first, cut in ((1999973, (1, 2, 3, 4)), (999973, ())):  # 4.80 and 3.80 of 4 nodes
        demand = (first, 1140014, 1068651, 597004)  # in millionths
        for unit in (10**6, 10**9, 10**12):
            searches.clear()
            flow = _CutsetFlow(acc, [d * (unit // 10**6) for d in demand], unit)
            assert flow.min_cut_users() == cut
            assert len(searches) <= 4 * acc.K * unit.bit_length()


# --- membership ---------------------------------------------------------------------


def test_reference_membership():
    acc = ref_access()
    assert in_capacity_region(acc, (1, 2, 2, 3)).ok
    assert in_capacity_region(acc, (0, 0, 0, 0)).ok
    assert in_capacity_region(acc, (Fraction(1, 2), 1, 1, Fraction(3, 2))).ok

    report = in_capacity_region(acc, (3, 0, 0, 0))
    assert not report.ok
    assert report.violation.kind == "pairwise" and report.violation.users == (1,)
    assert report.violation.bound == 2 and report.violation_lhs == 3

    report = in_capacity_region(acc, (2, 2, 2, 3))
    assert not report.ok
    assert report.violation.kind == "cutset"
    assert report.violation.users == (1, 2, 3, 4)
    assert report.violation.bound == 8 and report.violation_lhs == 9


def test_membership_input_validation():
    acc = ref_access()
    with pytest.raises(ValueError):
        in_capacity_region(acc, (1, 2, 2))
    # a rate tuple with no length raised TypeError from len
    for bad in (None, 4):
        with pytest.raises(ValueError, match="must be a sequence"):
            in_capacity_region(acc, bad)
        with pytest.raises(ValueError, match="must be a sequence"):
            augment_quotas(acc, bad)
    with pytest.raises(ValueError):
        in_capacity_region(acc, (-1, 0, 0, 0))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            in_capacity_region(acc, (bad, 0, 0, 0))


def test_rates_that_are_not_finite_numbers_raise_value_error():
    # None used to raise TypeError everywhere and inf OverflowError in
    # augment_quotas; Fraction read '1', '1/2' and True as rates
    acc = AccessStructure.of([[1, 2], [2, 3]])
    plan = make_plan(Field(11), acc, (1, 1))
    params = (plan.quotas, plan.reserved, plan.perms, plan.alphas)
    for bad in (None, float("inf"), float("nan"), [1], "1", "1/2", True, False):
        with pytest.raises(ValueError, match="finite numbers"):
            in_capacity_region(acc, (bad, 1))
        with pytest.raises(ValueError, match="finite numbers"):
            in_capacity_region(acc, (1, bad))
        with pytest.raises(ValueError, match="finite numbers"):
            augment_quotas(acc, (bad, 1))
        with pytest.raises(ValueError, match="finite numbers"):
            validate_quotas(acc, (bad, 1), (2, 1))
        with pytest.raises(ValueError, match="finite numbers"):
            make_plan(Field(11), acc, (bad, 1))
        with pytest.raises(ValueError, match="finite numbers"):
            plan_from_parameters(Field(11), acc, (bad, 1), *params)
    # ints, Fractions and finite floats stay rates
    assert in_capacity_region(acc, (1, Fraction(1, 2))).ok
    assert in_capacity_region(acc, (0.5, 1.0)).ok
    assert augment_quotas(acc, (1, 1.0)) == (2, 1)


def test_single_user_region_vacuous_pairwise():
    acc = AccessStructure.of([[1, 2, 3]])
    report = in_capacity_region(acc, (3,))
    assert report.ok and report.pairwise_vacuous
    assert not in_capacity_region(acc, (4,)).ok


def test_membership_agrees_with_slow_oracle_fuzz():
    rng = random.Random(11)
    for _ in range(150):
        acc = random_access(rng, max_users=5, max_nodes=8)
        tup = tuple(rng.randint(0, 4) for _ in range(acc.K))
        assert in_capacity_region(acc, tup).ok == slow_in_region(acc.sets, tup)
        frac = tuple(Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(acc.K))
        assert in_capacity_region(acc, frac).ok == slow_in_region(acc.sets, frac)


def test_violation_witness_fuzz():
    """Past the pairwise bounds, the report names the cutset of the
    inclusion-minimal group with the largest excess, which is unique.

    Random instances whose pairwise bounds already imply every cutset are
    the common case, so instances are drawn until the tuple of pairwise
    bounds breaks a cutset, and rates are drawn just below those bounds.
    """
    rng = random.Random(14)
    witnesses = ties = 0
    while witnesses < 60:
        k = rng.randint(4, 6)
        pool = rng.randint(k, 9)
        sets = [[n for n in range(1, pool + 1) if rng.random() < 0.45] or [1] for _ in range(k)]
        acc = AccessStructure.of(compress_nodes(sets))
        caps = [pairwise_bound(acc, u) for u in range(1, k + 1)]
        if slow_in_region(acc.sets, caps):
            continue
        for _ in range(8):
            rates = tuple(max(0, c - Fraction(rng.randint(0, 1), rng.randint(1, 3))) for c in caps)
            report = in_capacity_region(acc, rates)
            excesses = slow_excesses(acc.sets, rates)
            top = max(excesses.values())
            assert report.ok == (top <= 0)
            if report.ok:
                continue
            best = [set(g) for g, e in excesses.items() if e == top]
            minimal = [g for g in best if not any(h < g for h in best)]
            assert len(minimal) == 1
            witness = report.violation
            assert witness.kind == "cutset"
            assert {u - 1 for u in witness.users} == minimal[0]
            assert witness.bound == acc.union_size(witness.users)
            assert report.violation_lhs == sum(rates[u - 1] for u in witness.users)
            assert report.violation_lhs - witness.bound == top
            witnesses += 1
            ties += len(best) > 1
    assert ties >= 10  # groups tying for the largest excess occurred


def test_region_downward_closed_fuzz():
    rng = random.Random(12)
    for _ in range(40):
        acc = random_access(rng, max_users=4, max_nodes=8)
        rates = random_rates_in_region(rng, acc)
        assert in_capacity_region(acc, rates).ok
        lower = tuple(max(0, r - rng.randint(0, 2)) for r in rates)
        assert in_capacity_region(acc, lower).ok


# --- augmentation --------------------------------------------------------------------


def test_augment_reference_already_tight():
    assert augment_quotas(ref_access(), (1, 2, 2, 3)) == (1, 2, 2, 3)


def test_augment_greedy_small_cases():
    chain = AccessStructure.of([[1, 2], [2, 3]])
    assert augment_quotas(chain, (1, 1)) == (2, 1)
    twin = AccessStructure.of([[1, 2], [1, 2]])
    assert augment_quotas(twin, (0, 0)) == (2, 0)
    single = AccessStructure.of([[1, 2, 3]])
    assert augment_quotas(single, (1,)) == (3,)


def test_augment_zero_rates_reference():
    quotas = augment_quotas(ref_access(), (0, 0, 0, 0))
    assert sum(quotas) == 8
    assert validate_quotas(ref_access(), (0, 0, 0, 0), quotas)


def test_augment_result_is_valid_and_canonical_fuzz():
    rng = random.Random(13)
    for _ in range(80):
        acc = random_access(rng, max_users=5, max_nodes=9)
        rates = random_rates_in_region(rng, acc)
        quotas = augment_quotas(acc, rates)
        assert validate_quotas(acc, rates, quotas)
        # greedy determinism: same inputs, same output
        assert augment_quotas(acc, rates) == quotas
        assert quotas == slow_greedy_quotas(acc.sets, rates)
        zeros = (0,) * acc.K
        assert augment_quotas(acc, zeros) == slow_greedy_quotas(acc.sets, zeros)


def test_augment_rejects_bad_input():
    acc = ref_access()
    with pytest.raises(NotInRegionError):
        augment_quotas(acc, (3, 0, 0, 0))
    with pytest.raises(NotInRegionError):
        augment_quotas(acc, (Fraction(1, 2), 1, 1, Fraction(3, 2)))


def test_validate_quotas_negatives():
    acc = ref_access()
    assert not validate_quotas(acc, (1, 2, 2, 3), (1, 2, 2, 2))  # sum != N
    assert not validate_quotas(acc, (1, 2, 2, 3), (0, 2, 2, 4))  # drops below rates
    assert not validate_quotas(acc, (0, 0, 0, 0), (4, 2, 2, 0))  # {1,2,3} cutset broken
    assert validate_quotas(acc, (1, 2, 2, 3), (1, 2, 2, 3))
    for bad in (None, "a", 1.0, True):
        assert not validate_quotas(acc, (1, 2, 2, 3), (bad, 2, 2, 3))


# --- enumeration ---------------------------------------------------------------------


def test_enumerate_tiny_instances():
    assert enumerate_integer_region(AccessStructure.of([[1, 2]])) == [(0,), (1,), (2,)]
    two = enumerate_integer_region(AccessStructure.of([[1], [2]]))
    assert two == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_reference():
    out = enumerate_integer_region(ref_access())
    assert (1, 2, 2, 3) in out
    assert (2, 2, 2, 3) not in out
    assert out == sorted(out)  # lexicographic
    assert all(in_capacity_region(ref_access(), t).ok for t in out)


def test_enumerate_matches_product_filter():
    acc = AccessStructure.of([[1, 2], [2, 3], [3, 4]])
    out = enumerate_integer_region(acc)
    brute = [
        t
        for t in itertools.product(range(acc.N + 1), repeat=acc.K)
        if slow_in_region(acc.sets, t)
    ]
    assert out == brute


def test_enumerate_size_caps():
    with pytest.raises(TooLargeError):
        enumerate_integer_region(AccessStructure.of([[1]] * 7))
    wide = AccessStructure.of([list(range(1, 14))])
    with pytest.raises(TooLargeError):
        enumerate_integer_region(wide)
