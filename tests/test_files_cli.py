"""JSON artifact formats and the command-line front end.

CLI tests call :func:`dmuss.cli.main` in-process with explicit argv and
assert on exit codes (0 success, 1 domain refusal, 2 usage/format) and on
the emitted files, so the full plan -> encode -> decode -> verify chain
runs exactly as a shell user would drive it.
"""

import json
from fractions import Fraction

import pytest

from dmuss import demo
from dmuss.access import AccessStructure
from dmuss.cli import main
from dmuss.codec import MemoryShare, memory_share
from dmuss.errors import NotInRegionError, NotPrimeError, SingularMatrixError
from dmuss.files import (
    FileFormatError,
    instance_from_dict,
    instance_to_dict,
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
    assert again.blocks_a == 1 and again.blocks_total == 2


def test_load_any_plan_dispatch():
    plan_doc = plan_to_dict(demo.demo_plan())
    assert not isinstance(load_any_plan(plan_doc), MemoryShare)
    plan_b = make_plan(Field(11), demo.demo_access(), (0, 0, 0, 0), seed=1)
    mix_doc = mix_to_dict(memory_share(demo.demo_plan(), plan_b, 1, 2))
    assert isinstance(load_any_plan(mix_doc), MemoryShare)


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
    # user 1 needs nodes the file does not carry
    assert main(["decode", plan_path, shares_path, "--user", "1"]) == 1


def test_cli_demo_regression(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "shares Y_1..Y_8: [5, 5, 8, 7, 3, 2, 2, 9]" in out
    assert "user 1 decodes [1]" in out
    assert "user 4 decodes [3, 5, 7]" in out
    assert "determinant:" in out


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
    assert "corner" in capsys.readouterr().err


def test_cli_corner_argument_errors(tmp_path, capsys):
    doc = dict(REF_INSTANCE, rates=["1/2", 1, 1, "3/2"])
    inst = write_doc(tmp_path, "inst.json", doc)
    assert main(["plan", inst, "--corner-a", "1,2,2,3"]) == 2
    assert main(["plan", inst, "--corner-a", "1,2,2", "--corner-b", "0,0,0,0"]) == 2
    assert main(["plan", inst, "--corner-a", "1,x,2,3", "--corner-b", "0,0,0,0"]) == 2
    # structurally fine corners that cannot mix to the requested rates
    assert main(["plan", inst, "--corner-a", "1,2,2,3", "--corner-b", "1,0,0,0"]) == 1
    capsys.readouterr()


# --- CLI: failure modes -------------------------------------------------------------


def test_cli_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_cli_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[[[", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    capsys.readouterr()


def test_cli_tampered_plan_exit_codes(tmp_path, capsys):
    doc = plan_to_dict(demo.demo_plan())
    doc["alphas"][0][0] = [1, 0]
    bad_path = write_doc(tmp_path, "bad.json", doc)
    assert main(["verify", bad_path]) == 2  # structural nonsense

    singular_path = write_doc(tmp_path, "singular.json", SINGULAR_PLAN)
    assert main(["verify", singular_path]) == 1  # valid file, impossible maths
    capsys.readouterr()


def test_cli_modulus_mismatch(tmp_path, capsys):
    plan_path = write_doc(tmp_path, "plan.json", plan_to_dict(demo.demo_plan()))
    msg_path = write_doc(
        tmp_path, "msgs.json", messages_to_dict(13, [[[1], [2, 6], [4, 0], [3, 5, 7]]])
    )
    assert main(["encode", plan_path, msg_path]) == 2
    capsys.readouterr()


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
    assert main(["verify", plan_path, "--brute-force"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["brute_force"]["inputs"] == 27
    assert report["brute_force"]["bijective"]
