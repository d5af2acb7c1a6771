"""The per-process caches of a field's and a set size's constants: keyed
by value with the argument types kept apart, bounded by a module
constant, and shared read-only by every plan that reads them."""

import inspect
import random

import pytest

from conftest import dmuss_caches, random_access, random_rates_in_region, spy
from dmuss import cli, gf, planner, verify
from dmuss.codec import encode, transfer_map
from dmuss.errors import BadShapeError, NotPrimeError
from dmuss.files import plan_from_dict, plan_to_dict
from dmuss.gf import Field
from dmuss.planner import make_plan
from dmuss.verify import check_correctness

BOUNDS = {
    "dmuss.gf._prime_factors": gf._MODULUS_CACHE_SIZE,
    "dmuss.gf._smallest_generator": gf._MODULUS_CACHE_SIZE,
    "dmuss.planner._lagrange_rows": planner._TABLE_CACHE_SIZE,
    "dmuss.verify._vandermonde_columns": verify._COLUMN_CACHE_SIZE,
}


def test_every_cache_is_bounded_by_a_module_constant():
    # a cache of a function with arguments holds at most its module's
    # constant, keyed by value and type; the parser takes no argument,
    # so its cache holds one entry
    caches = dmuss_caches()
    assert set(caches) == set(BOUNDS) | {"dmuss.cli.build_parser"}
    assert not inspect.signature(cli.build_parser.__wrapped__).parameters
    for name, bound in BOUNDS.items():
        assert type(bound) is int and 0 < bound < 1024, name
        assert caches[name].cache_parameters() == {"maxsize": bound, "typed": True}, name


def test_cached_keys_keep_types_apart():
    # a cached int key never answers for a bool or a float of equal
    # value: those still meet the checks that refuse them
    f = Field(11)
    assert planner._lagrange_rows(f, 3, 1) == planner._lagrange_rows.__wrapped__(f, 3, 1)
    for count in (True, 1.0):
        with pytest.raises(BadShapeError):
            planner._lagrange_rows(f, 3, count)
    assert Field(2).gamma == 1
    for p in (True, 2.0):
        with pytest.raises(NotPrimeError):
            Field(p)
    assert gf._smallest_generator.cache_info().currsize == 2  # 11 and 2 only


def test_a_field_proof_is_derived_once_per_modulus():
    # a load's Field(p, gamma) after the first of its modulus factors
    # nothing, and the generator search runs once per modulus
    for misses, p in enumerate((65537, 2**31 - 1), start=1):
        first = Field(p)
        again = Field(p, gamma=first.gamma)
        assert again == first and again._unit_factors is first._unit_factors
        assert first._unit_factors == gf._prime_factors.__wrapped__(p - 1)
        assert gf._prime_factors.cache_info().misses == misses
        assert gf._smallest_generator.cache_info().misses == misses


def test_cached_constants_stay_as_built_after_every_reader(monkeypatch):
    # make_plan, a load, encode, the transfer map and a round trip read
    # the shared tables and columns; none may change them
    caches = [planner._lagrange_rows, verify._vandermonde_columns]
    keys = [
        spy(monkeypatch, planner, "_lagrange_rows", lambda *key: key),
        spy(monkeypatch, verify, "_vandermonde_columns", lambda *key: key),
    ]
    rng = random.Random(311)
    seen = [set(), set()]
    for p in (65537, 2**31 - 1):
        for _ in range(6):
            for recorded in keys:
                recorded.clear()
            acc = random_access(rng, min_users=2, max_users=6, max_nodes=14)
            plan = make_plan(Field(p), acc, random_rates_in_region(rng, acc), seed=rng.randrange(100))
            loaded = plan_from_dict(plan_to_dict(plan))
            encode(loaded, [[rng.randrange(p) for _ in range(r)] for r in plan.rates], seed=1)
            transfer_map(loaded)
            assert check_correctness(loaded, trials=2, seed=3).ok
            for cache, recorded, all_keys in zip(caches, keys, seen):
                for key in set(recorded):
                    misses = cache.cache_info().misses
                    kept = cache(*key)
                    assert cache.cache_info().misses == misses, key  # the shared copy
                    assert kept == cache.__wrapped__(*key), key
                all_keys.update(recorded)
    assert len(seen[0]) >= 12 and len(seen[1]) >= 6
