"""Distinct-representative selection and its failure certificates."""

import itertools
import random
import tracemalloc

import pytest

from conftest import random_access, random_rates_in_region, slow_find_sdr
from dmuss.access import AccessStructure, augment_quotas
from dmuss.errors import NoSdrError
from dmuss.sdr import SdrAssignment, find_sdr, validate_sdr

REF_SETS = [[1, 6, 7, 8], [1, 3, 4, 7], [1, 2, 3, 8], [2, 4, 5, 6, 7]]


def blocks(*node_lists):
    return SdrAssignment(blocks=tuple(frozenset(b) for b in node_lists))


def test_reference_instance():
    acc = AccessStructure.of(REF_SETS)
    quotas = (1, 2, 2, 3)
    got = find_sdr(acc, quotas)
    assert validate_sdr(acc, quotas, got)
    # the published pick for this instance is also valid
    assert validate_sdr(acc, quotas, blocks([8], [3, 4], [1, 2], [5, 6, 7]))


def test_identical_pair_prefers_untouched_nodes():
    acc = AccessStructure.of([[1, 2], [1, 2]])
    got = find_sdr(acc, (1, 1))
    assert got.block(1) == {1} and got.block(2) == {2}


def test_single_user_takes_everything():
    acc = AccessStructure.of([[1, 2, 3]])
    got = find_sdr(acc, (3,))
    assert got.block(1) == {1, 2, 3}


def test_zero_sizes_allowed():
    acc = AccessStructure.of([[1, 2], [1, 2]])
    got = find_sdr(acc, (2, 0))
    assert got.block(1) == {1, 2} and got.block(2) == frozenset()


def test_augmenting_path_is_needed_sometimes():
    # user 2 can only use node 1, forcing user 1 off it
    acc = AccessStructure.of([[1, 2], [1]])
    got = find_sdr(acc, (1, 1))
    assert got.block(1) == {2} and got.block(2) == {1}


def test_no_sdr_identical_singletons():
    acc = AccessStructure.of([[1], [1], [2]])
    with pytest.raises(NoSdrError) as info:
        find_sdr(acc, (1, 1, 1))
    cert = info.value.certificate
    assert cert.node_count < cert.clone_count
    assert set(cert.nodes) == {1}
    users = {k for k, _ in cert.clones}
    assert users == {1, 2}


def test_no_sdr_oversized_demand():
    acc = AccessStructure.of(REF_SETS)
    with pytest.raises(NoSdrError) as info:
        find_sdr(acc, (2, 2, 2, 3))  # sums to 9 > 8 nodes
    cert = info.value.certificate
    assert cert.node_count < cert.clone_count


def test_certificate_neighbourhood_is_exact():
    acc = AccessStructure.of([[1, 2], [1, 2], [1, 2], [3]])
    with pytest.raises(NoSdrError) as info:
        find_sdr(acc, (1, 1, 1, 1))
    cert = info.value.certificate
    union = set()
    for k, _ in cert.clones:
        union |= acc.user_set(k)
    assert set(cert.nodes) == union
    assert cert.node_count < cert.clone_count


def test_validator_negatives():
    acc = AccessStructure.of(REF_SETS)
    quotas = (1, 2, 2, 3)
    assert not validate_sdr(acc, quotas, blocks([8], [3, 4], [1, 3], [5, 6, 7]))  # overlap
    assert not validate_sdr(acc, quotas, blocks([8], [3], [1, 2], [5, 6, 7]))  # wrong size
    assert not validate_sdr(acc, quotas, blocks([5], [3, 4], [1, 2], [2, 6, 7]))  # outside set
    assert not validate_sdr(acc, (1, 2), blocks([8], [3, 4]))  # wrong arity


def test_found_blocks_partition_all_nodes_when_lengths_sum_to_n():
    rng = random.Random(21)
    for _ in range(60):
        acc = random_access(rng, max_users=6, max_nodes=12)
        rates = random_rates_in_region(rng, acc)
        quotas = augment_quotas(acc, rates)
        got = find_sdr(acc, quotas)
        assert validate_sdr(acc, quotas, got)
        covered = set().union(*got.blocks)
        assert covered == set(range(1, acc.N + 1))


def test_deterministic_output():
    rng = random.Random(22)
    for _ in range(20):
        acc = random_access(rng, max_users=5, max_nodes=10)
        quotas = augment_quotas(acc, random_rates_in_region(rng, acc))
        assert find_sdr(acc, quotas) == find_sdr(acc, quotas)


def test_input_validation():
    acc = AccessStructure.of([[1, 2], [1, 2]])
    with pytest.raises(ValueError):
        find_sdr(acc, (1,))
    with pytest.raises(ValueError, match="must be a sequence"):
        find_sdr(acc, None)  # was a TypeError from len
    for bad in (-1, 1.0, "1", None):
        with pytest.raises(ValueError):
            find_sdr(acc, (bad, 1))


def minimal_worst_groups(acc, quotas):
    """The inclusion-minimal user groups with the largest excess
    ``sum R' - |union of A|``, by enumerating every group."""
    excess = {}
    for size in range(1, acc.K + 1):
        for group in itertools.combinations(range(1, acc.K + 1), size):
            excess[group] = sum(quotas[k - 1] for k in group) - acc.union_size(group)
    top = max(excess.values())
    best = [set(g) for g, e in excess.items() if e == top]
    return [g for g in best if not any(h < g for h in best)]


def test_matches_per_clone_matcher_fuzz():
    """The blocks equal the per-clone matcher's on augmented and on
    arbitrary quotas, and both fail on the same quotas.  A failure names
    the minimal group with the largest excess, as copies 1..min(R'_k,
    |union| + 1) of each member."""
    rng = random.Random(23)
    failures = 0
    for i in range(5000):
        acc = random_access(rng, max_users=8, max_nodes=16)
        if i % 2:
            quotas = augment_quotas(acc, random_rates_in_region(rng, acc, stop_prob=0.3))
        else:
            quotas = tuple(rng.randint(0, len(acc.user_set(k))) for k in range(1, acc.K + 1))
        try:
            want = slow_find_sdr(acc, quotas)
        except NoSdrError:
            want = None
        try:
            got = find_sdr(acc, quotas)
        except NoSdrError as exc:
            got = None
            failures += 1
            cert = exc.certificate
            users = sorted({k for k, _ in cert.clones})
            assert minimal_worst_groups(acc, quotas) == [set(users)]
            assert set(cert.nodes) == set().union(*(acc.user_set(k) for k in users))
            cap = cert.node_count + 1
            assert cert.clones == tuple(
                (k, j) for k in users for j in range(1, min(quotas[k - 1], cap) + 1)
            )
            assert cert.clone_count > cert.node_count
        assert got == want
    assert failures > 500


def test_long_augmenting_path():
    # the last user reads only node 1, so its pick moves every chain user
    # one node up: a 1500-hop path, deeper than the default recursion limit
    n = 1500
    acc = AccessStructure.of([[i, i + 1] for i in range(1, n)] + [[1]])
    got = find_sdr(acc, (1,) * n)
    assert got.blocks == tuple(frozenset({i + 1}) for i in range(1, n)) + (frozenset({1}),)


def test_cost_does_not_grow_with_quotas():
    acc = AccessStructure.of([[1, 2], [2, 3]])
    tracemalloc.start()
    try:
        with pytest.raises(NoSdrError) as info:
            find_sdr(acc, (10**9, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    cert = info.value.certificate
    assert cert.clones == ((1, 1), (1, 2), (1, 3)) and cert.nodes == (1, 2)
