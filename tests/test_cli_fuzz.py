"""Mutation fuzzing of the CLI's input files.

The demo's instance, plan, message and share documents are mutated
structurally: a key is deleted, a list item is deleted or duplicated, or
a value is swapped for an odd one (null, a boolean, -1, 0, a float, a
string, nested lists, 10^30, strong pseudoprimes).  Each mutated file
is written and every subcommand that reads it runs through
:func:`dmuss.cli.main`.  Whatever the file says, the CLI must answer
with exit code 0, 1 or 2 and never let an exception escape.

The instance is small and cheap to check, so every one-step mutation of
it is tried; the other documents, and multi-step mutations, are drawn
from a seeded generator.  The mix file (the demo plan and the zero plan
at 1:2) gets its own run: every one-step mutation of its top-level keys,
then seeded random mutations anywhere in it.
"""

import copy
import random

from dmuss import demo
from dmuss.cli import main
from dmuss.codec import memory_share
from dmuss.files import messages_to_dict, mix_to_dict, plan_to_dict, save_json, shares_to_dict
from dmuss.planner import make_plan

# strong pseudoprimes to the prime bases <= 41 and <= 37
PSEUDOPRIMES = (1287836182261 * 2575672364521, 399165290221 * 798330580441)
ODD_VALUES = (None, True, False, -1, 0, 1.5, "7", [[1, 2], [3]], [], 10**30, *PSEUDOPRIMES)
RANDOM_TRIALS = 700
MIX_RANDOM_TRIALS = 400


def base_documents() -> dict:
    plan = demo.demo_plan()
    return {
        "instance": {
            "format": "dmuss.instance/1",
            "p": plan.field.p,
            "access": [plan.access.sorted_set(k) for k in range(1, plan.K + 1)],
            "rates": list(plan.rates),
            "seed": 3,
        },
        "plan": plan_to_dict(plan),
        "messages": messages_to_dict(plan.field.p, [demo.demo_messages()]),
        "shares": shares_to_dict(plan.field.p, list(range(1, plan.N + 1)), [demo.demo_encode().shares]),
    }


def slots(doc) -> list:
    """Every (holder, key) pair inside doc, dict keys and list indices, in
    a fixed order."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            out.append((node, key))
            stack.append(node[key])
    return out


def apply(holder, key, action, value=None) -> None:
    if action == "delete":
        del holder[key]
    elif action == "duplicate":
        holder.insert(key, copy.deepcopy(holder[key]))
    else:
        holder[key] = copy.deepcopy(value)


def one_step_mutations(doc):
    """Every document one deletion or one odd-value swap away from doc."""
    for i in range(len(slots(doc))):
        for action, value in [("delete", None)] + [("replace", v) for v in ODD_VALUES]:
            out = copy.deepcopy(doc)
            apply(*slots(out)[i], action, value)
            yield out


def random_mutation(rng: random.Random, doc):
    """doc after one to three mutations at random slots."""
    out = copy.deepcopy(doc)
    for _ in range(rng.choice([1, 1, 2, 3])):
        if not slots(out):
            break
        holder, key = rng.choice(slots(out))
        action = rng.choice(["delete", "duplicate", "replace", "replace"])
        if action == "duplicate" and not isinstance(holder, list):
            action = "replace"
        apply(holder, key, action, rng.choice(ODD_VALUES))
    return out


def test_cli_survives_mutated_files(tmp_path, capsys):
    bases = base_documents()
    paths = {name: str(tmp_path / f"{name}.json") for name in bases}
    for name, doc in bases.items():
        save_json(paths[name], doc)
    commands = {
        "instance": [
            ["check", paths["instance"]],
            ["plan", paths["instance"]],
            # mixes to the demo's rates (1, 2, 2, 3) at weight 1/2, through
            # a corner no plan can have
            ["plan", paths["instance"], "--corner-a=-1,2,2,3", "--corner-b=3,2,2,3"],
        ],
        "plan": [
            ["encode", paths["plan"], paths["messages"], "--seed", "1"],
            ["decode", paths["plan"], paths["shares"], "--user", "2"],
            ["verify", paths["plan"], "--trials", "2"],
        ],
        "messages": [["encode", paths["plan"], paths["messages"], "--seed", "1"]],
        "shares": [["decode", paths["plan"], paths["shares"], "--user", "4"]],
    }
    rng = random.Random(20211)
    cases = [("instance", doc) for doc in one_step_mutations(bases["instance"])]
    for _ in range(RANDOM_TRIALS):
        name = rng.choice(sorted(bases))
        cases.append((name, random_mutation(rng, bases[name])))
    assert len(cases) >= 1000
    codes = {0: 0, 1: 0, 2: 0}
    for name, doc in cases:
        save_json(paths[name], doc)
        for argv in commands[name]:
            code = main(argv)
            assert code in codes, (argv, doc, code)
            codes[code] += 1
        capsys.readouterr()
        save_json(paths[name], bases[name])
    # the mutations reach every outcome: accepted, refused, malformed
    assert all(codes.values()), codes


def test_cli_survives_mutated_mix_files(tmp_path, capsys):
    plan = demo.demo_plan()
    zero = make_plan(plan.field, plan.access, (0, 0, 0, 0), seed=1)
    mix = memory_share(plan, zero, 1, 2)
    base = mix_to_dict(mix)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("mix", "messages", "shares")}
    blocks = [demo.demo_messages(), [[] for _ in range(plan.K)]]
    save_json(paths["messages"], messages_to_dict(plan.field.p, blocks))
    share_blocks = [res.shares for res in mix.encode(demo.demo_messages(), seed=3)]
    save_json(paths["shares"], shares_to_dict(plan.field.p, list(range(1, plan.N + 1)), share_blocks))
    commands = [
        ["encode", paths["mix"], paths["messages"], "--seed", "1"],
        ["decode", paths["mix"], paths["shares"], "--user", "2"],
        ["verify", paths["mix"], "--trials", "2"],
    ]
    cases = []
    for key in base:
        for action, value in [("delete", None)] + [("replace", v) for v in ODD_VALUES]:
            doc = copy.deepcopy(base)
            apply(doc, key, action, value)
            cases.append(doc)
    rng = random.Random(20220)
    cases += [random_mutation(rng, base) for _ in range(MIX_RANDOM_TRIALS)]
    for doc in cases:
        save_json(paths["mix"], doc)
        for argv in commands:
            code = main(argv)
            assert code in (0, 1, 2), (argv, doc, code)
        capsys.readouterr()
