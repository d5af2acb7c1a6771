"""Shared fixtures, fuzz-instance generators, acceptance reporting."""

import random

import pytest

from dmuss import AccessStructure, Field
from dmuss.access import in_capacity_region
from dmuss.demo import demo_encode, demo_messages, demo_plan

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
