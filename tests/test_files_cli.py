"""JSON artifact formats and the command-line front end.

CLI tests call :func:`dmuss.cli.main` in-process with explicit argv and
assert on exit codes (0 success, 1 domain refusal, 2 usage/format) and on
the emitted files, so the full plan -> encode -> decode -> verify chain
runs exactly as a shell user would drive it.
"""

import dataclasses
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import dmuss_caches, load_bench_gen, spy
from dmuss import access, cli, demo, files, linalg, verify
from dmuss.access import AccessStructure
from dmuss.cli import main
from dmuss.codec import MemoryShare, memory_share
from dmuss.errors import (
    IncompatiblePlansError,
    NotInRegionError,
    NotPrimeError,
    ShapeMismatchError,
    SingularMatrixError,
)
from dmuss.files import (
    FileFormatError,
    instance_from_dict,
    instance_to_dict,
    json_text,
    load_any_plan,
    load_json,
    messages_from_dict,
    messages_to_dict,
    mix_from_dict,
    mix_to_dict,
    plan_from_dict,
    plan_to_dict,
    save_json,
    shares_from_dict,
    shares_to_dict,
)
from dmuss.gf import Field
from dmuss.planner import make_plan

REF_INSTANCE = {
    "format": "dmuss.instance/1",
    "p": 11,
    "access": [[1, 6, 7, 8], [1, 3, 4, 7], [1, 2, 3, 8], [2, 4, 5, 6, 7]],
    "rates": [1, 2, 2, 3],
}

# the singular-correctness-matrix example: structurally fine, domain-invalid
SINGULAR_PLAN = {
    "format": "dmuss.plan/1",
    "p": 3,
    "gamma": 2,
    "access": [[1, 2], [1, 2]],
    "rates": [0, 0],
    "quotas": [1, 1],
    "reserved": [[1], [2]],
    "perms": [[1, 2], [1, 2]],
    "alphas": [[[1, 1], [2, 1]], [[1, 1], [2, 1]]],
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    save_json(str(path), doc)
    return str(path)


# --- serialization ---------------------------------------------------------------


def test_instance_round_trip():
    f = Field(11)
    acc = AccessStructure.of([[1, 2], [2, 3]])
    doc = instance_to_dict(f, acc, [Fraction(1, 2), Fraction(1)], seed=9)
    assert doc["rates"] == ["1/2", 1]
    field, acc2, rates, seed = instance_from_dict(doc)
    assert field.p == 11 and acc2 == acc and seed == 9
    assert rates == [Fraction(1, 2), Fraction(1)]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(format="dmuss.instance/2"),
        lambda d: d.pop("rates"),
        lambda d: d.update(rates=[1, "x"]),
        lambda d: d.update(rates=[1, True]),
        lambda d: d.update(rates=[1]),
        lambda d: d.update(rates=[-1, 1]),
        lambda d: d.update(access=[[1, 2], "nope"]),
        lambda d: d.update(access=[[1, 2], [2, 2.5]]),
        lambda d: d.update(k=3),
        lambda d: d.update(n=7),
        lambda d: d.update(seed="tomorrow"),
        lambda d: d.update(access=[[1, 2], [2, 4]]),  # node 3 never covered
    ],
)
def test_instance_rejects_malformed(mutate):
    doc = {
        "format": "dmuss.instance/1",
        "p": 11,
        "access": [[1, 2], [2, 3]],
        "rates": [1, 1],
    }
    mutate(doc)
    with pytest.raises(FileFormatError):
        instance_from_dict(doc)


def test_instance_composite_modulus_is_domain_error():
    doc = {"format": "dmuss.instance/1", "p": 10, "access": [[1, 2]], "rates": [1]}
    with pytest.raises(NotPrimeError):
        instance_from_dict(doc)


def test_plan_round_trip_reference():
    plan = demo.demo_plan()
    doc = plan_to_dict(plan)
    again = plan_from_dict(doc)
    assert plan_to_dict(again) == doc
    assert demo.demo_encode(again).shares == demo.demo_encode(plan).shares


def test_plan_round_trip_fresh():
    plan = make_plan(Field(13), AccessStructure.of([[1, 2, 3], [3, 4]]), (1, 1), seed=4)
    again = plan_from_dict(plan_to_dict(plan))
    assert again == plan


def test_plan_doc_survives_disk(tmp_path):
    doc = plan_to_dict(demo.demo_plan())
    path = write_doc(tmp_path, "plan.json", doc)
    assert load_json(path) == doc


def test_save_json_writes_json_dumps_bytes_in_one_write(tmp_path, monkeypatch):
    # plan, mix and share files come out byte for byte as json.dump wrote
    # them token by token, now in one write per file
    plan = demo.demo_plan()
    plan_b = make_plan(plan.field, plan.access, (0, 0, 0, 0), seed=1)
    ms = memory_share(plan, plan_b, 1, 2)
    results = ms.encode([[1], [2, 6], [4, 0], [3, 5, 7]], seed=7)
    pads = [{"free": r.pads.free, "tail": r.pads.tail} for r in results]
    docs = {
        "plan": plan_to_dict(plan),
        "mix": mix_to_dict(ms),
        "shares": shares_to_dict(11, list(range(1, plan.N + 1)), [r.shares for r in results], pads),
    }
    writes = []
    real_open = open

    class Counted:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            writes.append(len(text))
            return self.fh.write(text)

        def __enter__(self):
            self.fh.__enter__()
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    monkeypatch.setattr(files, "open", lambda *a, **kw: Counted(real_open(*a, **kw)), raising=False)
    for name, doc in docs.items():
        writes.clear()
        path = tmp_path / f"{name}.json"
        save_json(str(path), doc)
        assert len(writes) == 1, name
        with real_open(tmp_path / f"{name}.ref.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / f"{name}.ref.json").read_bytes(), name



class Count(int):
    """An int subclass: the standard encoder writes it through int.__repr__."""


class Name(str):
    """A str subclass."""


# quotes, backslashes, control characters, non-ASCII and a lone surrogate
AWKWARD_CHARS = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", "\ud800", "a", " "]
FLOATS = [0.0, -0.0, 1.5, -2e-300, 1e300, float("inf"), float("-inf"), float("nan")]


def random_json_value(rng, depth=0):
    """A seeded nested value of every kind json.dumps takes: ints around
    0 and past 2**64, bools, None, floats, awkward strings, empty and
    nested lists, tuples and dicts, and dicts with non-str keys."""

    def text(length):
        return "".join(rng.choice(AWKWARD_CHARS) for _ in range(rng.randrange(length)))

    leaves = [
        lambda: rng.randint(-5, 5),
        lambda: rng.choice([-1, 1]) * rng.randrange(2**64, 2**80),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice(FLOATS),
        lambda: text(6),
        lambda: Count(rng.randrange(100)),
        lambda: Name("k"),
    ]
    if depth >= 4 or rng.random() < 0.3:
        return rng.choice(leaves)()
    width = rng.randrange(5)
    kind = rng.randrange(6)
    if kind == 0:  # a flat int list, the writer's joined case
        return [rng.randint(-(2**70), 2**70) for _ in range(width)]
    if kind in (1, 2):
        items = [random_json_value(rng, depth + 1) for _ in range(width)]
        return items if kind == 1 else tuple(items)
    if kind in (3, 4):
        return {text(4): random_json_value(rng, depth + 1) for _ in range(width)}
    keys = [rng.randrange(9), 1.5, True, False, None, "s", Name("n")]
    return {rng.choice(keys): random_json_value(rng, depth + 1) for _ in range(width)}


def test_json_text_equals_json_dumps_fuzz():
    rng = random.Random(26)
    for _ in range(3000):
        doc = random_json_value(rng)
        assert json_text(doc) == json.dumps(doc, indent=2), doc
    edges = [[], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [1, True], [1, None], [Count(1), 2]]
    edges += [{1: 2}, {"a": 1, 2: 3}, [1.0], "\u00e9\"", Name("x"), 2**100, -(2**64), None, False]
    for doc in edges:
        assert json_text(doc) == json.dumps(doc, indent=2), doc


def test_json_text_writes_every_cli_document(tmp_path, monkeypatch, capsys):
    # every document the CLI writes, to stdout or a file, as the standard encoder writes it
    inst = write_doc(tmp_path, "inst.json", REF_INSTANCE)
    half = write_doc(tmp_path, "half.json", dict(REF_INSTANCE, rates=["1/2", 1, 1, "3/2"]))
    plan_path, mix_path = str(tmp_path / "plan.json"), str(tmp_path / "mix.json")
    msgs = write_doc(tmp_path, "msgs.json", messages_to_dict(11, [demo.demo_messages()]))
    mix_msgs = messages_to_dict(11, [demo.demo_messages(), [[]] * 4])
    mix_msgs = write_doc(tmp_path, "mix-msgs.json", mix_msgs)
    shares, mix_shares = str(tmp_path / "shares.json"), str(tmp_path / "mix-shares.json")
    docs = []

    def recorded(doc):
        docs.append(doc)
        return json_text(doc)

    monkeypatch.setattr(cli, "json_text", recorded)
    monkeypatch.setattr(files, "json_text", recorded)
    commands = [
        ["plan", inst],
        ["plan", inst, "--out", plan_path],
        ["plan", half],
        ["plan", half, "--out", mix_path],
        ["encode", plan_path, msgs, "--audit", "--seed", "7"],
        ["encode", plan_path, msgs, "--audit", "--seed", "7", "--out", shares],
        ["encode", mix_path, mix_msgs, "--audit", "--out", mix_shares],
        ["decode", plan_path, shares, "--user", "4"],
        ["decode", mix_path, mix_shares, "--user", "2", "--out", str(tmp_path / "m.json")],
        ["verify", plan_path, "--trials", "2"],
        ["verify", plan_path, "--privacy", "--entropy"],
        ["verify", mix_path, "--trials", "2"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    formats = {doc.get("format") for doc in docs}
    assert formats >= {"dmuss.plan/1", "dmuss.plan-mix/1", "dmuss.shares/1", "dmuss.user-message/1"}
    assert any("pads" in doc for doc in docs) and any("mixed_rates" in doc for doc in docs)
    assert sum("ok" in doc for doc in docs) == 3
    for doc in docs:
        assert json_text(doc) == json.dumps(doc, indent=2)

def test_plan_zero_alpha_is_format_error():
    doc = plan_to_dict(demo.demo_plan())
    doc["alphas"][0][0] = [1, 0]
    with pytest.raises(FileFormatError):
        plan_from_dict(doc)


def test_plan_bad_permutation_is_format_error():
    doc = plan_to_dict(demo.demo_plan())
    doc["perms"][0] = [1, 1, 2, 3]
    with pytest.raises(FileFormatError):
        plan_from_dict(doc)


@pytest.mark.parametrize(
    "key, user, repeat",
    [
        ("access", 0, 8), ("access", 3, 2), ("reserved", 1, 3), ("reserved", 0, 8),
        ("alphas", 0, [1, 5]), ("alphas", 3, [7, 1]),
    ],
)
def test_plan_repeated_node_is_format_error(tmp_path, capsys, key, user, repeat):
    # a set written as a list names each node once: a repeat used to
    # collapse silently (and a repeated alpha's later value won)
    doc = plan_to_dict(demo.demo_plan())
    doc[key][user].append(repeat)
    with pytest.raises(FileFormatError, match="more than once"):
        plan_from_dict(doc)
    path = write_doc(tmp_path, "plan.json", doc)
    assert main(["verify", path]) == 2
    assert "more than once" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "plan"])
def test_instance_repeated_node_is_format_error(tmp_path, capsys, command):
    # [[1, 1, 2], [2, 3]] used to load as {1, 2} and {2, 3}: check and plan
    # answered for another instance than the file states
    doc = {"format": "dmuss.instance/1", "p": 11, "access": [[1, 1, 2], [2, 3]], "rates": [1, 1]}
    with pytest.raises(FileFormatError, match="more than once"):
        instance_from_dict(doc)
    assert main([command, write_doc(tmp_path, "inst.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "access set lists a node more than once" in captured.err


def test_plan_to_dict_never_repeats_a_node():
    small = make_plan(Field(13), AccessStructure.of([[1, 2, 3], [3, 4]]), (1, 1), seed=4)
    for plan in (demo.demo_plan(), small):
        doc = plan_to_dict(plan)
        lists = doc["access"] + doc["reserved"] + [[n for n, _ in pairs] for pairs in doc["alphas"]]
        assert all(len(set(nodes)) == len(nodes) for nodes in lists)
        assert plan_from_dict(doc) == plan


def test_cli_verify_pair_dicts_are_the_report_fields(tmp_path, capsys):
    plan = demo.demo_plan()
    path = write_doc(tmp_path, "plan.json", plan_to_dict(plan))
    assert main(["verify", path, "--privacy"]) == 0
    pairs = json.loads(capsys.readouterr().out)["privacy"]["pairs"]
    assert pairs == [dataclasses.asdict(pair) for pair in verify.check_privacy(plan).pairs]
    names = [f.name for f in dataclasses.fields(verify.PairPrivacy)]
    assert all(list(pair) == names for pair in pairs)  # the keys in field order


def test_plan_singular_constants_is_domain_error():
    with pytest.raises(SingularMatrixError):
        plan_from_dict(SINGULAR_PLAN)


def test_plan_out_of_region_is_domain_error():
    doc = plan_to_dict(demo.demo_plan())
    doc["rates"] = [4, 2, 2, 3]
    with pytest.raises(NotInRegionError):
        plan_from_dict(doc)


def test_mix_round_trip():
    plan_a = demo.demo_plan()
    plan_b = make_plan(plan_a.field, plan_a.access, (0, 0, 0, 0), seed=1)
    ms = memory_share(plan_a, plan_b, 1, 2)
    doc = mix_to_dict(ms)
    again = mix_from_dict(doc)
    assert again.rates() == ms.rates()
    assert again.layers == ((plan_a, 1), (plan_b, 1)) and again.blocks_total == 2
    assert load_any_plan(json.loads(json.dumps(doc))) == ms
    # a bool count used to be accepted, and then its own plan file was refused
    for a, b in ((True, 2), (1, True), (False, True)):
        with pytest.raises(IncompatiblePlansError):
            memory_share(plan_a, plan_b, a, b)


def test_load_any_plan_dispatch():
    # either file loads as a scheme: a plan file as its one layer
    plan_doc = plan_to_dict(demo.demo_plan())
    assert load_any_plan(plan_doc) == MemoryShare(((demo.demo_plan(), 1),))
    plan_b = make_plan(Field(11), demo.demo_access(), (0, 0, 0, 0), seed=1)
    mix_doc = mix_to_dict(memory_share(demo.demo_plan(), plan_b, 1, 2))
    assert load_any_plan(mix_doc).layers == ((demo.demo_plan(), 1), (plan_b, 1))


def test_shares_round_trip():
    doc = shares_to_dict(11, [1, 3, 4, 7], [[5, 8, 7, 2]])
    p, blocks = shares_from_dict(doc)
    assert p == 11
    assert blocks == [{1: 5, 3: 8, 4: 7, 7: 2}]
    with pytest.raises(FileFormatError):
        shares_from_dict(shares_to_dict(11, [1, 2], [[5]]))
    with pytest.raises(FileFormatError):
        shares_from_dict(shares_to_dict(11, [1, 2], []))


def test_messages_round_trip():
    doc = messages_to_dict(11, [[[1], [2, 6]], [[0], []]])
    p, blocks = messages_from_dict(doc)
    assert p == 11 and blocks == [[[1], [2, 6]], [[0], []]]
    with pytest.raises(FileFormatError):
        messages_from_dict(messages_to_dict(11, []))
    bad = messages_to_dict(11, [[[1]]])
    bad["blocks"][0][0] = "xyz"
    with pytest.raises(FileFormatError):
        messages_from_dict(bad)


def test_load_json_rejects_invalid_text(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_json(str(path))


# --- CLI: region check -------------------------------------------------------------


def test_cli_check_in_region(tmp_path, capsys):
    inst = write_doc(tmp_path, "inst.json", REF_INSTANCE)
    assert main(["check", inst]) == 0
    assert "in region" in capsys.readouterr().out


def test_cli_check_violation(tmp_path, capsys):
    doc = dict(REF_INSTANCE, rates=[3, 2, 2, 3])
    inst = write_doc(tmp_path, "inst.json", doc)
    assert main(["check", inst]) == 1
    assert "outside region" in capsys.readouterr().out


def test_cli_pseudoprime_modulus_exits_1(tmp_path, capsys):
    # 1287836182261 * 2575672364521 passes Miller-Rabin for every base <= 41;
    # 399165290221 * 798330580441 passes every base <= 37
    for p, reason in ((3317044064679887385961981, "too large"), (318665857834031151167461, "not prime")):
        inst = write_doc(tmp_path, "inst.json", dict(REF_INSTANCE, p=p))
        for command in ("check", "plan"):
            assert main([command, inst]) == 1
            captured = capsys.readouterr()
            assert reason in captured.err and captured.out == ""


def test_cli_negative_rate_exits_2(tmp_path, capsys):
    inst = write_doc(tmp_path, "inst.json", dict(REF_INSTANCE, rates=[-1, 1, 1, 1]))
    for command in ("check", "plan"):
        assert main([command, inst]) == 2
        assert "rates must be nonnegative" in capsys.readouterr().err


# --- CLI: the full file chain -------------------------------------------------------


def test_cli_plan_encode_decode_verify_chain(tmp_path, capsys):
    inst = write_doc(tmp_path, "inst.json", REF_INSTANCE)
    plan_path = str(tmp_path / "plan.json")
    assert main(["plan", inst, "--out", plan_path, "--seed", "0"]) == 0

    msgs = [[1], [2, 6], [4, 0], [3, 5, 7]]
    msg_path = write_doc(tmp_path, "msgs.json", messages_to_dict(11, [msgs]))
    shares_path = str(tmp_path / "shares.json")
    assert main(["encode", plan_path, msg_path, "--out", shares_path, "--seed", "5"]) == 0

    for k, want in enumerate(msgs, start=1):
        out_path = str(tmp_path / f"user{k}.json")
        assert main(["decode", plan_path, shares_path, "--user", str(k), "--out", out_path]) == 0
        got = load_json(out_path)
        assert got["user"] == k and got["symbols"] == want

    assert main(["verify", plan_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert report["privacy"]["all_private"]
    assert report["entropy"]["full"]
    assert report["roundtrip"]["failures"] == 0


def test_cli_encode_is_deterministic_per_seed(tmp_path):
    inst = write_doc(tmp_path, "inst.json", REF_INSTANCE)
    plan_path = str(tmp_path / "plan.json")
    main(["plan", inst, "--out", plan_path])
    msg_path = write_doc(
        tmp_path, "msgs.json", messages_to_dict(11, [[[1], [2, 6], [4, 0], [3, 5, 7]]])
    )
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["encode", plan_path, msg_path, "--out", a, "--seed", "7"])
    main(["encode", plan_path, msg_path, "--out", b, "--seed", "7"])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cli_decode_from_restricted_shares(tmp_path, capsys):
    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(demo.demo_plan()))
    enc = demo.demo_encode()
    # only user 2's nodes are published
    nodes = [1, 3, 4, 7]
    doc = shares_to_dict(11, nodes, [[enc.shares[n - 1] for n in nodes]])
    shares_path = write_doc(tmp_path, "shares.json", doc)
    assert main(["decode", plan_path, shares_path, "--user", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["symbols"] == [2, 6]
    # user 1 needs nodes the file does not carry: an input error
    assert main(["decode", plan_path, shares_path, "--user", "1"]) == 2
    assert "[6, 8]" in capsys.readouterr().err


def test_cli_demo_regression(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "shares Y_1..Y_8: [5, 5, 8, 7, 3, 2, 2, 9]" in out
    assert "user 1 decodes [1]" in out
    assert "user 4 decodes [3, 5, 7]" in out
    assert "determinant:" in out
    # the demo is the one output that prints the tail matrices, the null
    # bases and V: all of it, byte for byte
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "25ce00d937b28537255cc3a0270a6846c0b3f0830816522f69c9ceba6c8ecd70"


# --- CLI: fractional rates ----------------------------------------------------------


def test_cli_corner_mix_chain(tmp_path, capsys):
    doc = dict(REF_INSTANCE, rates=["1/2", 1, 1, "3/2"])
    inst = write_doc(tmp_path, "inst.json", doc)
    mix_path = str(tmp_path / "mix.json")
    assert (
        main(
            [
                "plan", inst,
                "--corner-a", "1,2,2,3",
                "--corner-b", "0,0,0,0",
                "--out", mix_path,
            ]
        )
        == 0
    )
    mix_doc = load_json(mix_path)
    assert mix_doc["format"] == "dmuss.plan-mix/1"
    assert (mix_doc["blocks_a"], mix_doc["blocks_total"]) == (1, 2)

    blocks = [[[5], [1, 2], [3, 4], [6, 7, 8]], [[], [], [], []]]
    msg_path = write_doc(tmp_path, "msgs.json", messages_to_dict(11, blocks))
    shares_path = str(tmp_path / "shares.json")
    assert main(["encode", mix_path, msg_path, "--out", shares_path, "--seed", "3"]) == 0
    assert len(load_json(shares_path)["blocks"]) == 2

    assert main(["decode", mix_path, shares_path, "--user", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["symbols"] == [6, 7, 8]

    assert main(["verify", mix_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert report["mixed_rates"] == ["1/2", "1", "1", "3/2"]
    assert report["plan_a"]["privacy"]["all_private"]
    assert report["plan_b"]["entropy"]["full"]


def test_cli_fractional_rates_without_corners_scales(tmp_path, capsys):
    doc = {
        "format": "dmuss.instance/1",
        "p": 11,
        "access": [[1, 2], [2, 3]],
        "rates": ["1/2", "1/2"],
    }
    inst = write_doc(tmp_path, "inst.json", doc)
    mix_path = str(tmp_path / "mix.json")
    assert main(["plan", inst, "--out", mix_path]) == 0
    mix_doc = load_json(mix_path)
    assert mix_doc["format"] == "dmuss.plan-mix/1"
    assert (mix_doc["blocks_a"], mix_doc["blocks_total"]) == (1, 2)
    assert mix_doc["plan_a"]["rates"] == [1, 1]
    assert mix_doc["plan_b"]["rates"] == [0, 0]

    ms = mix_from_dict(mix_doc)
    assert ms.rates() == (Fraction(1, 2), Fraction(1, 2))

    blocks = [[[9], [4]], [[], []]]
    msg_path = write_doc(tmp_path, "msgs.json", messages_to_dict(11, blocks))
    shares_path = str(tmp_path / "shares.json")
    assert main(["encode", mix_path, msg_path, "--out", shares_path]) == 0
    assert main(["decode", mix_path, shares_path, "--user", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["symbols"] == [9]


def test_cli_corner_and_automatic_mix_notes_and_files(tmp_path, capsys):
    # rates (1/2, 1, 1, 3/2) on the README instance: the corner mix of
    # (1, 2, 2, 3) and 0 at weight 1/2, and the automatic mix of the
    # doubled tuple with the zero plan, plan the same corners
    inst = write_doc(tmp_path, "inst.json", dict(REF_INSTANCE, rates=["1/2", 1, 1, "3/2"]))
    corner_path, auto_path = str(tmp_path / "corner.json"), str(tmp_path / "auto.json")
    corners = ["--corner-a", "1,2,2,3", "--corner-b", "0,0,0,0"]
    assert main(["plan", inst, *corners, "--out", corner_path]) == 0
    corner = capsys.readouterr()
    assert main(["plan", inst, "--out", auto_path]) == 0
    auto = capsys.readouterr()
    assert (corner.out, auto.out) == ("", "")
    assert corner.err == (
        "mixed plan: 1/2 blocks at [1, 2, 2, 3], rest at [0, 0, 0, 0]; node storage 2 symbols\n"
    )
    assert auto.err == "mixed plan: scaled corner [1, 2, 2, 3] on 1 of 2 blocks (zero-rate elsewhere)\n"
    msgs = [[1], [2, 3], [4, 5], [6, 7, 8]]
    for path in (corner_path, auto_path):
        doc = load_json(path)
        ms = mix_from_dict(doc)
        assert mix_to_dict(ms) == doc
        assert ms.rates() == (Fraction(1, 2), 1, 1, Fraction(3, 2))
        share_blocks = [res.shares for res in ms.encode(msgs, seed=4)]
        assert [ms.decode(k, share_blocks) for k in range(1, 5)] == msgs
    assert load_json(corner_path) == load_json(auto_path)


def test_cli_fractional_rates_outside_scaled_region(tmp_path, capsys):
    doc = {
        "format": "dmuss.instance/1",
        "p": 11,
        "access": [[1, 2], [2, 3]],
        "rates": [1, "1/2"],
    }
    inst = write_doc(tmp_path, "inst.json", doc)
    # doubling gives (2, 1): user 1 exceeds its pairwise bound of 1
    assert main(["plan", inst]) == 1
    assert capsys.readouterr().err == (
        "error: scaled tuple ['2', '1'] leaves the region (R1 <= 1 (pairwise));"
        " supply --corner-a/--corner-b instead\n"
    )
    # the region is named before a field too small for a set of three
    # points; an in-region tuple then reports the field
    small = {"format": "dmuss.instance/1", "p": 3, "access": [[1, 2, 3], [3, 4, 5]]}
    for rates, err in (
        ([3, "1/2"], "scaled tuple ['6', '1'] leaves the region (R1 <= 2 (pairwise)); supply --corner-a/--corner-b instead"),
        ([1, "1/2"], "access set of size 3 needs p-1 >= 3, got p=3"),
    ):
        assert main(["plan", write_doc(tmp_path, "small.json", dict(small, rates=rates))]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")


def test_cli_fractional_plan_checks_the_region_once(tmp_path, monkeypatch, capsys):
    # a scaled tuple inside the region is checked by make_plan alone
    gen = load_bench_gen(monkeypatch)
    half = next(inst for inst in gen.provision_ladder(7) if inst.kind == "half")
    inst = write_doc(tmp_path, "inst.json", half.instance_doc())
    regions = spy(monkeypatch, access, "_region", lambda acc, rates: list(rates))
    assert main(["plan", inst, "--out", str(tmp_path / "mix.json")]) == 0
    assert len(regions) == 2  # the scaled corner's plan, then the zero plan's
    assert regions[1] == [0] * half.k and "scaled corner" in capsys.readouterr().err


def test_cli_corner_argument_errors(tmp_path, capsys):
    doc = dict(REF_INSTANCE, rates=["1/2", 1, 1, "3/2"])
    inst = write_doc(tmp_path, "inst.json", doc)
    assert main(["plan", inst, "--corner-a", "1,2,2,3"]) == 2
    assert main(["plan", inst, "--corner-a", "1,2,2", "--corner-b", "0,0,0,0"]) == 2
    assert main(["plan", inst, "--corner-a", "1,x,2,3", "--corner-b", "0,0,0,0"]) == 2
    # structurally fine corners that cannot mix to the requested rates
    assert main(["plan", inst, "--corner-a", "1,2,2,3", "--corner-b", "1,0,0,0"]) == 1
    capsys.readouterr()


def test_cli_negative_corner_exits_2(tmp_path, capsys):
    # these corners mix to the rates at weight 1/2, so only the negative
    # entry stands between them and planning
    doc = dict(REF_INSTANCE, rates=["1/2", 1, 1, "3/2"])
    inst = write_doc(tmp_path, "inst.json", doc)
    for a, b in (("2,1,1,2", "-1,1,1,1"), ("-1,1,1,1", "2,1,1,2")):
        assert main(["plan", inst, f"--corner-a={a}", f"--corner-b={b}"]) == 2
        captured = capsys.readouterr()
        assert "rates must be nonnegative" in captured.err and captured.out == ""


# --- CLI: failure modes -------------------------------------------------------------


def test_cli_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_cli_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[[[", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    capsys.readouterr()


def _set(*path_and_value):
    """A mutation of a plan document: the entry at ``path`` set to ``value``."""
    *path, last, value = path_and_value

    def mutate(doc):
        for key in path:
            doc = doc[key]
        doc[last] = value

    return mutate


# the demo plan file broken in each way a JSON plan can be: the load
# refuses every one, before any command reads the plan
PLAN_MUTATIONS = {
    "repeated exponent": _set("perms", 0, [1, 1, 2, 3]),
    "exponent out of range": _set("perms", 0, [1, 2, 3, 5]),
    "field too small": lambda doc: doc.update(p=3, gamma=2),
    "scaling missing": lambda doc: doc["alphas"][0].pop(0),
    "scaling extra": lambda doc: doc["alphas"][0].append([2, 1]),
    "scaling zero": _set("alphas", 0, 0, [1, 0]),
    "scaling float": _set("alphas", 0, 0, [1, 2.0]),
    "scaling bool": _set("alphas", 0, 0, [1, True]),
    "rate above quota": _set("rates", 0, 2),
    "rate bool": _set("rates", 0, True),
    "rate negative": _set("rates", 1, -1),
    "quota negative": _set("quotas", 0, -1),
    "quota above set size": _set("quotas", 0, 5),
    "quotas short of N": lambda doc: doc.update(rates=[1, 2, 2, 2], quotas=[1, 2, 2, 2]),
    "one permutation short": lambda doc: doc["perms"].pop(),
    "one scaling map extra": lambda doc: doc["alphas"].append(doc["alphas"][0]),
    "one rate short": lambda doc: doc["rates"].pop(),
}

# (exit code, stderr) of each of encode, decode and verify on each
# mutated file, as they were while the plan's readers re-checked its
# constants
MUTATED_PLAN_OUTCOMES = {
    'repeated exponent': (2, 'error: user 1: not a permutation of 1..4\n'),
    'exponent out of range': (2, 'error: user 1: not a permutation of 1..4\n'),
    'field too small': (1, 'error: access set of size 5 needs p-1 >= 5, got p=3\n'),
    'scaling missing': (2, 'error: user 1: scalings must cover the access set and be nonzero\n'),
    'scaling extra': (2, 'error: user 1: scalings must cover the access set and be nonzero\n'),
    'scaling zero': (2, 'error: user 1: scalings must cover the access set and be nonzero\n'),
    'scaling float': (2, 'error: bad alpha entry [1, 2.0]\n'),
    'scaling bool': (2, 'error: bad alpha entry [1, True]\n'),
    'rate above quota': (1, 'error: outside region: R1 + R2 + R3 + R4 <= 8 (cutset) violated with value 9\n'),
    'rate bool': (2, 'error: rates must be a list of integers\n'),
    'rate negative': (2, 'error: rates must be nonnegative\n'),
    'quota negative': (2, 'error: padded lengths fail the augmentation invariants\n'),
    'quota above set size': (2, 'error: padded lengths fail the augmentation invariants\n'),
    'quotas short of N': (2, 'error: padded lengths fail the augmentation invariants\n'),
    'one permutation short': (2, 'error: per-user lists disagree with the number of access sets\n'),
    'one scaling map extra': (2, 'error: per-user lists disagree with the number of access sets\n'),
    'one rate short': (2, 'error: per-user lists disagree with the number of access sets\n'),
}


def test_cli_refuses_mutated_plan_files_with_pinned_bytes(tmp_path, capsys):
    # a plan checks its constants once, as it is built: moving the checks
    # there left each command's exit code, stdout and stderr as they were
    msgs = write_doc(tmp_path, "msgs.json", messages_to_dict(11, [demo.demo_messages()]))
    shares = write_doc(tmp_path, "shares.json", shares_to_dict(11, list(range(1, 9)), [demo.demo_encode().shares]))
    assert PLAN_MUTATIONS.keys() == MUTATED_PLAN_OUTCOMES.keys()
    for what, mutate in PLAN_MUTATIONS.items():
        doc = plan_to_dict(demo.demo_plan())
        mutate(doc)
        plan = write_doc(tmp_path, "plan.json", doc)
        for argv in (
            ["encode", plan, msgs, "--seed", "1"],
            ["decode", plan, shares, "--user", "1"],
            ["verify", plan, "--trials", "2"],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.err, captured.out) == (*MUTATED_PLAN_OUTCOMES[what], ""), (what, argv[0])


def test_cli_tampered_plan_exit_codes(tmp_path, capsys):
    doc = plan_to_dict(demo.demo_plan())
    doc["alphas"][0][0] = [1, 0]
    bad_path = write_doc(tmp_path, "bad.json", doc)
    assert main(["verify", bad_path]) == 2  # structural nonsense

    singular_path = write_doc(tmp_path, "singular.json", SINGULAR_PLAN)
    assert main(["verify", singular_path]) == 1  # valid file, impossible maths
    capsys.readouterr()
    good_path = write_doc(tmp_path, "good.json", plan_to_dict(demo.demo_plan()))
    for trials in ("0", "-3"):
        assert main(["verify", good_path, "--roundtrip", "--trials", trials]) == 2
        assert "--trials must be at least 1" in capsys.readouterr().err


def test_cli_singular_plan_fails_every_command(tmp_path, capsys):
    # every command that reads a plan keeps the load's determinant check:
    # decode and encode refuse a singular plan as verify does, even where
    # the user's own equations could still be solved
    plan_path = write_doc(tmp_path, "singular.json", SINGULAR_PLAN)
    shares_path = write_doc(tmp_path, "shares.json", shares_to_dict(3, [1, 2], [[0, 0]]))
    msgs_path = write_doc(tmp_path, "msgs.json", messages_to_dict(3, [[[], []]]))
    for argv in (["decode", plan_path, shares_path, "--user", "1"], ["encode", plan_path, msgs_path]):
        assert main(argv) == 1, argv
        assert "supplied constants give a singular correctness matrix" in capsys.readouterr().err


def test_cli_elimination_budget(tmp_path, monkeypatch, capsys):
    # linalg._echelon runs per command on the demo files: the load's
    # determinant, plus the solves of what each command itself reads
    # (plan: zeta's first draw; encode: one solve; decode: none, it reads
    # the decode rows; one round trip: an encode and one Vandermonde per
    # set size, 4 and 5)
    inst_path = write_doc(tmp_path, "inst.json", REF_INSTANCE)
    msgs_path = write_doc(tmp_path, "msgs.json", messages_to_dict(11, [demo.demo_messages()]))
    plan_path, shares_path = str(tmp_path / "plan.json"), str(tmp_path / "shares.json")
    budget = [
        (["check", inst_path], 0),
        (["plan", inst_path, "--out", plan_path], 1),
        (["encode", plan_path, msgs_path, "--out", shares_path], 2),
        (["decode", plan_path, shares_path, "--user", "1"], 1),
        (["verify", plan_path, "--trials", "1"], 4),
        (["verify", plan_path, "--privacy", "--entropy"], 1),
    ]
    # a mix's load runs two determinants, and decode none, however many
    # of its blocks give the user a nonzero rate
    msgs = demo.demo_messages()
    mixes = [  # corner b, rates, block b's messages, users to decode
        ("0,0,0,0", ["1/2", 1, 1, "3/2"], [[], [], [], []], (1, 2, 4)),
        ("1,0,0,0", [1, 1, 1, "3/2"], [[4], [], [], []], (1, 2, 4)),
    ]
    for i, (corner_b, rates, second, users) in enumerate(mixes):
        mix_inst = write_doc(tmp_path, f"mix{i}-inst.json", dict(REF_INSTANCE, rates=rates))
        mix_msgs = write_doc(tmp_path, f"mix{i}-msgs.json", messages_to_dict(11, [msgs, second]))
        mix_path, mix_shares = str(tmp_path / f"mix{i}.json"), str(tmp_path / f"mix{i}-shares.json")
        corners = ["--corner-a", "1,2,2,3", "--corner-b", corner_b]
        budget += [
            (["plan", mix_inst, *corners, "--out", mix_path], 2),  # zeta's first draw per plan
            (["encode", mix_path, mix_msgs, "--out", mix_shares], 4),  # two loads, two solves
        ]
        budget += [(["decode", mix_path, mix_shares, "--user", str(user)], 2) for user in users]
    calls = spy(monkeypatch, linalg, "_echelon", lambda *args: None)
    for argv, eliminations in budget:
        calls.clear()
        assert main(argv) == 0, argv
        assert len(calls) == eliminations, argv
    capsys.readouterr()


def test_cli_chain_reads_the_same_from_warm_caches(tmp_path, capsys):
    # the demo-file chain of test_cli_elimination_budget (check, plan,
    # encode, decode and verify on the plain plan and both mixes) run
    # twice in one process from cold caches: the second pass rebuilds no
    # cached constant and prints and writes the same bytes (each encode
    # is given a pad seed, which that test leaves to the system)
    inst_path = write_doc(tmp_path, "inst.json", REF_INSTANCE)
    msgs_path = write_doc(tmp_path, "msgs.json", messages_to_dict(11, [demo.demo_messages()]))
    plan_path, shares_path = str(tmp_path / "plan.json"), str(tmp_path / "shares.json")
    chain = [
        ["check", inst_path],
        ["plan", inst_path, "--out", plan_path],
        ["encode", plan_path, msgs_path, "--out", shares_path, "--seed", "5"],
        ["decode", plan_path, shares_path, "--user", "1"],
        ["verify", plan_path, "--trials", "1"],
        ["verify", plan_path, "--privacy", "--entropy"],
    ]
    msgs = demo.demo_messages()
    mixes = [
        ("0,0,0,0", ["1/2", 1, 1, "3/2"], [[], [], [], []], (1, 2, 4)),
        ("1,0,0,0", [1, 1, 1, "3/2"], [[4], [], [], []], (1, 2, 4)),
    ]
    for i, (corner_b, rates, second, users) in enumerate(mixes):
        mix_inst = write_doc(tmp_path, f"mix{i}-inst.json", dict(REF_INSTANCE, rates=rates))
        mix_msgs = write_doc(tmp_path, f"mix{i}-msgs.json", messages_to_dict(11, [msgs, second]))
        mix_path, mix_shares = str(tmp_path / f"mix{i}.json"), str(tmp_path / f"mix{i}-shares.json")
        corners = ["--corner-a", "1,2,2,3", "--corner-b", corner_b]
        chain += [
            ["plan", mix_inst, *corners, "--out", mix_path],
            ["encode", mix_path, mix_msgs, "--out", mix_shares, "--seed", "5"],
        ]
        chain += [["decode", mix_path, mix_shares, "--user", str(user)] for user in users]
    caches = dmuss_caches()
    capsys.readouterr()

    def run_chain():
        outputs = []
        for argv in chain:
            code = main(argv)
            out, err = capsys.readouterr()
            outputs.append((argv, code, out, err))
        files = {path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())}
        return outputs, files, {name: cache.cache_info().misses for name, cache in caches.items()}

    cold, cold_files, cold_misses = run_chain()
    warm, warm_files, warm_misses = run_chain()
    assert all(code == 0 for _, code, _, _ in cold)
    assert warm == cold and warm_files == cold_files
    assert warm_misses == cold_misses
    built = ("gf._prime_factors", "gf._smallest_generator", "planner._lagrange_rows", "verify._vandermonde_columns")
    for name in built:
        assert cold_misses[f"dmuss.{name}"] > 0, name


def test_cli_modulus_mismatch(tmp_path, capsys):
    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(demo.demo_plan()))
    msg_path = write_doc(
        tmp_path, "msgs.json", messages_to_dict(13, [[[1], [2, 6], [4, 0], [3, 5, 7]]])
    )
    assert main(["encode", plan_path, msg_path]) == 2
    capsys.readouterr()


def test_cli_files_that_do_not_fit_the_plan(tmp_path, capsys):
    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(demo.demo_plan()))
    three_users = messages_to_dict(11, [[[1], [2, 6], [4, 0]]])
    assert main(["encode", plan_path, write_doc(tmp_path, "m3.json", three_users)]) == 2
    assert "expected 4 user messages, got 3" in capsys.readouterr().err
    short = messages_to_dict(11, [[[1], [2], [4, 0], [3, 5, 7]]])
    assert main(["encode", plan_path, write_doc(tmp_path, "short.json", short)]) == 2
    assert "user 2: message length 1 != rate 2" in capsys.readouterr().err
    # node 1 listed twice, the second copy with another symbol, must not
    # silently overwrite the first
    shares = demo.demo_encode().shares
    repeated = shares_to_dict(11, list(range(1, 9)) + [1], [shares + [(shares[0] + 1) % 11]])
    with pytest.raises(FileFormatError):
        shares_from_dict(repeated)
    assert main(["decode", plan_path, write_doc(tmp_path, "rep.json", repeated), "--user", "1"]) == 2
    assert "node more than once" in capsys.readouterr().err

    inst = write_doc(tmp_path, "inst.json", dict(REF_INSTANCE, rates=["1/2", 1, 1, "3/2"]))
    mix_path = str(tmp_path / "mix.json")
    corners = ["--corner-a", "1,2,2,3", "--corner-b", "0,0,0,0"]
    assert main(["plan", inst, *corners, "--out", mix_path]) == 0
    one_block = shares_to_dict(11, list(range(1, 9)), [[0] * 8])
    shares_path = write_doc(tmp_path, "shares.json", one_block)
    assert main(["decode", mix_path, shares_path, "--user", "1"]) == 2
    assert "expected 2 share blocks, got 1" in capsys.readouterr().err


def test_cli_block_count_rule(tmp_path, capsys):
    # a plain plan file takes any number of blocks, each under its plan;
    # a mix takes exactly blocks_total, on encode and on decode
    plan = demo.demo_plan()
    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(plan))
    blocks = [
        demo.demo_messages(),
        [[2], [3, 4], [5, 6], [7, 8, 9]],
        [[10], [0, 1], [1, 1], [0, 0, 0]],
    ]
    msg_path = write_doc(tmp_path, "msgs.json", messages_to_dict(11, blocks))
    shares_path = str(tmp_path / "shares.json")
    assert main(["encode", plan_path, msg_path, "--seed", "5", "--out", shares_path]) == 0
    share_blocks = load_json(shares_path)["blocks"]
    assert len(share_blocks) == 3
    for k in range(1, 5):
        assert main(["decode", plan_path, shares_path, "--user", str(k)]) == 0
        symbols = json.loads(capsys.readouterr().out)["symbols"]
        assert symbols == [s for block in blocks for s in block[k - 1]]

    zero = make_plan(plan.field, plan.access, (0, 0, 0, 0), seed=3)
    mix_path = write_doc(tmp_path, "mix.json", mix_to_dict(memory_share(plan, zero, 1, 2)))
    empty = [[], [], [], []]
    for count in (1, 3):
        msgs = messages_to_dict(11, [demo.demo_messages()] + [empty] * (count - 1))
        assert main(["encode", mix_path, write_doc(tmp_path, "m.json", msgs)]) == 2
        assert f"needs exactly 2 message blocks, got {count}" in capsys.readouterr().err
        shares = shares_to_dict(11, list(range(1, 9)), share_blocks[:count])
        assert main(["decode", mix_path, write_doc(tmp_path, "s.json", shares), "--user", "1"]) == 2
        assert f"expected 2 share blocks, got {count}" in capsys.readouterr().err


def test_block_count_is_checked_before_any_block_plan(tmp_path, capsys):
    # blocks_total comes from the plan file: a count check that first
    # listed one plan per block would allocate 8 bytes a block (8 MB
    # here, gigabytes at counts a file can just as easily carry)
    plan = demo.demo_plan()
    zero = make_plan(plan.field, plan.access, (0, 0, 0, 0), seed=3)
    ms = memory_share(plan, zero, 1, 10**6)
    mix_path = write_doc(tmp_path, "mix.json", mix_to_dict(ms))
    msg_path = write_doc(tmp_path, "msgs.json", messages_to_dict(11, [demo.demo_messages()]))
    shares = shares_to_dict(11, list(range(1, 9)), [demo.demo_encode().shares])
    shares_path = write_doc(tmp_path, "shares.json", shares)
    wrong = [[1, 1], [2, 6], [4, 0], [3, 5, 7]]
    tracemalloc.start()
    try:
        assert main(["encode", mix_path, msg_path]) == 2
        cli_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ShapeMismatchError):
            ms.encode(wrong, seed=0)
        encode_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["decode", mix_path, shares_path, "--user", "1"]) == 2
        decode_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "needs exactly 1000000 message blocks, got 1" in err
    assert "expected 1000000 share blocks, got 1" in err
    assert max(cli_peak, encode_peak, decode_peak) < 10**6, (cli_peak, encode_peak, decode_peak)


def test_mix_counts_outside_their_range_are_format_errors(tmp_path, capsys):
    # a mix file's blocks_a outside 0..blocks_total, or a blocks_total
    # below 1, exited 1 naming counts the file never wrote (5 and 3 gave
    # "(5, -2)"); the file's own two values are named, and the library
    # call names them too
    plan = demo.demo_plan()
    zero = make_plan(plan.field, plan.access, (0, 0, 0, 0), seed=3)
    doc = mix_to_dict(memory_share(plan, zero, 1, 2))
    shares_path = write_doc(tmp_path, "shares.json", shares_to_dict(11, list(range(1, 9)), [[0] * 8] * 2))
    msg_path = write_doc(tmp_path, "msgs.json", messages_to_dict(11, [demo.demo_messages()]))
    for a, total in ((5, 3), (-1, 2), (3, 2), (0, 0), (1, 0), (0, -1)):
        mix_path = write_doc(tmp_path, "mix.json", dict(doc, blocks_a=a, blocks_total=total))
        for argv in (
            ["decode", mix_path, shares_path, "--user", "1"],
            ["encode", mix_path, msg_path],
            ["verify", mix_path, "--entropy"],
        ):
            assert main(argv) == 2, (a, total, argv)
            err = capsys.readouterr().err
            assert f"error: blocks_a={a} and blocks_total={total}: " in err, (a, total, argv)
        with pytest.raises(IncompatiblePlansError, match=f"got blocks_a={a}, blocks_total={total}$"):
            memory_share(plan, zero, a, total)


@pytest.mark.parametrize("bad", [11, 13, -1, True])
def test_symbols_outside_the_field_are_format_errors(tmp_path, capsys, bad):
    msgs = messages_to_dict(11, [[[bad], [2, 6], [4, 0], [3, 5, 7]]])
    with pytest.raises(FileFormatError):
        messages_from_dict(msgs)
    shares = shares_to_dict(11, list(range(1, 9)), [[bad] + demo.demo_encode().shares[1:]])
    with pytest.raises(FileFormatError):
        shares_from_dict(shares)

    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(demo.demo_plan()))
    assert main(["encode", plan_path, write_doc(tmp_path, "msgs.json", msgs)]) == 2
    shares_path = write_doc(tmp_path, "shares.json", shares)
    assert main(["decode", plan_path, shares_path, "--user", "1"]) == 2
    assert "[0, 11)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,bad", [("alpha", 12), ("alpha", -1), ("alpha", 11), ("gamma", 19), ("gamma", -3)]
)
def test_plan_constants_outside_the_field_are_format_errors(tmp_path, capsys, key, bad):
    # a scaling or gamma outside GF(11) must not load reduced mod 11
    doc = plan_to_dict(demo.demo_plan())
    if key == "alpha":
        doc["alphas"][0][0] = [1, bad]
    else:
        doc["gamma"] = bad
    with pytest.raises(FileFormatError):
        plan_from_dict(doc)
    plan_path = write_doc(tmp_path, "plan.json", doc)
    msgs = messages_to_dict(11, [demo.demo_messages()])
    shares = shares_to_dict(11, list(range(1, 9)), [demo.demo_encode().shares])
    assert main(["verify", plan_path]) == 2
    assert main(["encode", plan_path, write_doc(tmp_path, "msgs.json", msgs)]) == 2
    assert main(["decode", plan_path, write_doc(tmp_path, "shares.json", shares), "--user", "1"]) == 2
    assert str(bad) in capsys.readouterr().err


def test_cli_booleans_are_not_integers(tmp_path, capsys):
    # JSON true must not load as node, rate, count or scaling 1
    def with_true(doc, *path):
        doc = json.loads(json.dumps(doc))
        *keys, last = path
        holder = doc
        for key in keys:
            holder = holder[key]
        holder[last] = True
        return doc

    plan_doc = plan_to_dict(demo.demo_plan())
    plan_path = write_doc(tmp_path, "plan.json", plan_doc)
    enc = demo.demo_encode()
    shares_doc = shares_to_dict(11, list(range(1, 9)), [enc.shares])
    shares_path = write_doc(tmp_path, "shares.json", shares_doc)
    assert main(["decode", plan_path, shares_path, "--user", "1"]) == 0
    capsys.readouterr()

    for bad in (with_true(REF_INSTANCE, "access", 0, 0), with_true(dict(REF_INSTANCE, seed=3), "seed")):
        assert main(["check", write_doc(tmp_path, "inst.json", bad)]) == 2
    mix_doc = mix_to_dict(memory_share(demo.demo_plan(), demo.demo_plan(), 1, 1))
    bad_plans = [
        with_true(plan_doc, "access", 0, 0),
        with_true(plan_doc, "rates", 0),
        with_true(plan_doc, "quotas", 0),
        with_true(plan_doc, "reserved", 0, 0),
        with_true(plan_doc, "perms", 0, 0),
        with_true(plan_doc, "alphas", 0, 0, 0),
        with_true(mix_doc, "blocks_a"),
    ]
    for bad in bad_plans:
        bad_path = write_doc(tmp_path, "bad-plan.json", bad)
        assert main(["decode", bad_path, shares_path, "--user", "1"]) == 2
    bad_shares = write_doc(tmp_path, "bad-shares.json", with_true(shares_doc, "nodes", 0))
    assert main(["decode", plan_path, bad_shares, "--user", "1"]) == 2
    assert "integers" in capsys.readouterr().err


def test_cli_user_out_of_range(tmp_path, capsys):
    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(demo.demo_plan()))
    enc = demo.demo_encode()
    shares_path = write_doc(
        tmp_path, "shares.json", shares_to_dict(11, list(range(1, 9)), [enc.shares])
    )
    assert main(["decode", plan_path, shares_path, "--user", "5"]) == 2
    assert main(["decode", plan_path, shares_path, "--user", "0"]) == 2
    capsys.readouterr()


def test_cli_verify_selected_checks_only(tmp_path, capsys):
    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(demo.demo_plan()))
    assert main(["verify", plan_path, "--entropy"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"entropy", "ok"}


def test_cli_verify_builds_transfer_map_only_for_brute_force(tmp_path, capsys, monkeypatch):
    """Default verify reads privacy and entropy off the plan's decode rows: no
    transfer map, no null space, no N x N rank, and one N x N determinant,
    the one that loading the plan file takes.  Only --brute-force builds T."""
    plan = demo.demo_plan()
    n = plan.N
    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(plan))
    built = spy(monkeypatch, verify, "transfer_map", lambda plan: 1)
    kernels = spy(monkeypatch, linalg, "null_space", lambda *args: 1)
    dets = spy(monkeypatch, linalg, "det", lambda f, a: len(a) == n)
    ranks = spy(monkeypatch, linalg, "rank", lambda f, a: len(a) == n and len(a[0]) == n)
    assert main(["verify", plan_path, "--trials", "3"]) == 0
    assert main(["verify", plan_path, "--privacy", "--entropy"]) == 0
    assert built == [] and kernels == [] and not any(ranks)
    assert dets.count(True) == 2  # one load per run
    micro = {"format": "dmuss.instance/1", "p": 3, "access": [[1, 2], [2, 3]], "rates": [1, 1]}
    micro_plan = str(tmp_path / "micro.json")
    assert main(["plan", write_doc(tmp_path, "micro-inst.json", micro), "--out", micro_plan]) == 0
    assert main(["verify", micro_plan, "--brute-force"]) == 0
    assert built == [1]
    capsys.readouterr()


def test_cli_brute_force_caps_large_instances(tmp_path, capsys):
    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(demo.demo_plan()))
    assert main(["verify", plan_path, "--brute-force"]) == 1
    assert "exceeds cap" in capsys.readouterr().err


def test_cli_brute_force_on_micro_instance(tmp_path, capsys):
    doc = {
        "format": "dmuss.instance/1",
        "p": 3,
        "access": [[1, 2], [2, 3]],
        "rates": [1, 1],
    }
    inst = write_doc(tmp_path, "inst.json", doc)
    plan_path = str(tmp_path / "plan.json")
    assert main(["plan", inst, "--out", plan_path]) == 0
    capsys.readouterr()
    assert main(["verify", plan_path, "--brute-force"]) == 0
    # the whole report, its keys in order: stdout is json.dumps's text
    report = {
        "brute_force": {
            "inputs": 27,
            "bijective": True,
            "all_independent": True,
            "roundtrip_failures": 0,
            "pairs": [
                {"secret_user": 1, "observer": 2, "independent": True},
                {"secret_user": 2, "observer": 1, "independent": True},
            ],
        },
        "ok": True,
    }
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


def test_cli_verify_one_user_privacy_and_entropy_stdout(tmp_path, capsys):
    # one user has nothing to hide from: the privacy report is vacuous,
    # with no pairs, and the whole stdout is pinned byte for byte
    doc = {"format": "dmuss.instance/1", "p": 5, "access": [[1, 2, 3]], "rates": [2]}
    inst = write_doc(tmp_path, "inst.json", doc)
    plan_path = str(tmp_path / "plan.json")
    assert main(["plan", inst, "--out", plan_path]) == 0
    capsys.readouterr()
    assert main(["verify", plan_path, "--privacy", "--entropy"]) == 0
    assert capsys.readouterr().out == (
        "{\n"
        '  "privacy": {\n'
        '    "all_private": true,\n'
        '    "vacuous": true,\n'
        '    "pairs": []\n'
        "  },\n"
        '  "entropy": {\n'
        '    "rank": 3,\n'
        '    "nodes": 3,\n'
        '    "full": true\n'
        "  },\n"
        '  "ok": true\n'
        "}\n"
    )
