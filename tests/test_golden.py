"""Golden outputs: the CLI's bytes on a few seeded ladder instances.

Each rung of one draw of the benchmark's provisioning ladder
(``bench/gen.py``) at seeds 1 and 2 runs through ``check``, ``plan``,
``encode --seed 7 --audit``, every user's ``decode``, ``verify --trials 3``
and ``verify --privacy --entropy``, in-process.  Each command's exit code,
stdout, stderr and output file are hashed with SHA-256 and compared with
the digests below, so a change that should leave plans, zeta, shares and
reports alone shows here if it does not.  After an intended change of
output, print the new table with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from conftest import load_bench_gen
from dmuss.cli import main

SEEDS = (1, 2)

GOLDEN = {
    (1, 0, 'check'): 'c58a5990f19cfed46bd6fa4d0b4197c2a867cee50136dc1ee8a3d9b80d046442',
    (1, 0, 'plan'): '2c9caa486bceb9406c02f2c5275fa4f562cb9c1c56b6e6b26a00b2bb2d09901f',
    (1, 0, 'encode'): 'e9492aca15f68f327fd8669e2b6b5fab99ee1bb63d83c8a6c5f7cee380c7e491',
    (1, 0, 'decode'): '41a1701a2634f295755195e429aad5773c29303a0c5e56101e381a416b69a96f',
    (1, 0, 'verify'): 'c4ea7303ac78656cb16ead5c0345cd0586c7678e45ebee8d265104b91d1026ac',
    (1, 0, 'privacy'): 'c3bd41701b03e814f3fc4b3d8b48e1749835ae757c527dbf5cb44f12088213b2',
    (1, 1, 'check'): '4f2fef6569b80863c644a1cc78a7d9c792ec3741a49ef881053b644c9fa15710',
    (1, 1, 'plan'): '66ae334fbc448e92f0c695f1281b62be7d3c62c3d29cb097ea51716ef2d68113',
    (1, 1, 'encode'): '982953537e287e4ab5857a1276e341d31e0118628ed38912acac8085fe53c60d',
    (1, 1, 'decode'): '30f7bf2e69a20ef06afbb2bd99938ff771ad9623584ed1b73d416b329eeb2207',
    (1, 1, 'verify'): '83ae7ac7878fef63b5d8a51dbdc495f4f10f38df6941cb794e187f8432d5f6d5',
    (1, 1, 'privacy'): 'fcbe7780542821085b1056e157fa5dc34c916980e6233e9fd2ee892497a98999',
    (1, 2, 'check'): '414de2b5ebf67f3df2c79fd31e603a52bbaa120ef3fb2761f452986a3db4c4a8',
    (1, 2, 'plan'): '2b21be2ca1332c9aba19ac7f656f53a7d28c25899256d4b334c66f10bbe92ab3',
    (1, 3, 'check'): 'c58a5990f19cfed46bd6fa4d0b4197c2a867cee50136dc1ee8a3d9b80d046442',
    (1, 3, 'plan'): '5168bd2bc252ae391d457163d83e621b5142b6f61f9c3a9c29dcae744f1aa56c',
    (1, 3, 'encode'): 'afe0750ac5268d8554c85f21f7f3dfe517d281cd36ed8cce6c6e1a30a4f5633c',
    (1, 3, 'decode'): '2ca7c5dac8ddfdb3b171b28313ba673e0f9f38037f981ab293bed9d4b2b19c14',
    (1, 3, 'verify'): '6f8484b0787a4abdaee17f9eb140e685fb66f660ee957dba9028f6f651c475c8',
    (1, 3, 'privacy'): 'a455bcfa67f0c0a92cf1768b129db6a49356da87388a5f81ef599d8e98e46c3c',
    (1, 4, 'check'): 'c6772343f3c5a10f75aa1922f1ce6b29b2c82098af96b96fdd36c23804b8bf02',
    (1, 4, 'plan'): '744eba9e3f682731c4395efb368c7dfc29efe7589512ac6f7bc4ad4b01b9a26d',
    (1, 4, 'encode'): '87b8d76ef0cdb744812aac4c92fa799ba0742b779b68b0f6fd844b1b2fa860bd',
    (1, 4, 'decode'): '26e96b7e26fd1a66a1dd3fe0dc57271b5248f24a3bd412ba4bc69ec94aac4c68',
    (1, 4, 'verify'): 'bc1778e3a706b055b6498e4aa9ef73a1fc73d8d2c50dee7038e2e14aad529cdf',
    (1, 4, 'privacy'): 'e433b8c889b1fe853288a0cbe6ebb63c8a75dfea3d33c3d025ab0344ed556cd8',
    (1, 5, 'check'): '4a539b0680a62db50ac6ea3d99cca34a515587cc35906c7a41be9edb446310bd',
    (1, 5, 'plan'): '6112b83e57d56db6670d97eabac76016d99775d5767fb187aa69c1ef7ca40305',
    (1, 6, 'check'): 'bf4408aece17d029f6ee9f589007ed83abea6f2c0759835ae15ea614eca66a2e',
    (1, 6, 'plan'): 'e76ac09bc9428d987c0b71826d47453eb295c88d1c4d5bdb89128611dddc83b9',
    (1, 6, 'encode'): 'f99c48c4d835536795e6e72f005aaaf7a365d387cc248c3aa32e17f74675b3ca',
    (1, 6, 'decode'): '29ff5f570d1cf156e41d8fb28e08e1c9521e16f0bc4ebc3e4b31a150d6a9e375',
    (1, 6, 'verify'): '28f2de6b48bc2b67c4d24535efe1fcc9437f300f1fc54e0cb000b19cc4e7175b',
    (1, 6, 'privacy'): '861c64ddd1a293924537963b68b06833b8eff2a25178dfbce9846bb3c433342d',
    (1, 7, 'check'): 'c58a5990f19cfed46bd6fa4d0b4197c2a867cee50136dc1ee8a3d9b80d046442',
    (1, 7, 'plan'): 'c551b9416e309e39b8444624e9963f96e2b4e33e7d66dd35d722bfe5bde7c967',
    (1, 7, 'encode'): '74f82abe1ad9ec0f6a30e6831d508c217892324030210d37449bbac0489fe569',
    (1, 7, 'decode'): 'fa4fe764e4cf46d178024aa238743972749f03551d94cd3452d83f0abaf7d256',
    (1, 7, 'verify'): 'b783c909e64efe8dc9d9575cf48298a5c063dce9ce8aa06ec70eed83daa28730',
    (1, 7, 'privacy'): '49cf19267703b5126fcc116b4fc60773b25e5383412a020c72122521e64aea0e',
    (1, 8, 'check'): '4f2fef6569b80863c644a1cc78a7d9c792ec3741a49ef881053b644c9fa15710',
    (1, 8, 'plan'): 'cacc4ec577d95148b0d387af9b73813d98bf5bbc7a60837728a1699c48b51b0d',
    (1, 8, 'encode'): 'b1289978fc04e0468cd78940b29e39d0d94224dde7e917e1891da898076177a6',
    (1, 8, 'decode'): 'd85cf9761ef10845f7bee73ee18caa7cf545029ad463ba2242fb0165bbca32e5',
    (1, 8, 'verify'): '2a1b201ac69fec1748d448c9a6300066f7c38fa010a8dff7bc92b7830042ff37',
    (1, 8, 'privacy'): '577b6ec704c9eb40f6c1e806869a766f11f13998632dc528c00c118ba3561701',
    (2, 0, 'check'): 'c58a5990f19cfed46bd6fa4d0b4197c2a867cee50136dc1ee8a3d9b80d046442',
    (2, 0, 'plan'): 'c4cedbcec753bc087398f8a36565ec5ac76182eb29954396c7ee1595c7b5d8c3',
    (2, 0, 'encode'): '0b3a2cbd21f09039e9efa046b76de4fbda8a4a5228b14b754a3692756c78c9a4',
    (2, 0, 'decode'): '8766fe1c84b7a2a783b223166c32bcb1255355140427fc80acdaf1d9bb748d17',
    (2, 0, 'verify'): 'a5f5c8578311ede11b4f622754edb09ccd855641e8cba1909084e080f3b64090',
    (2, 0, 'privacy'): '4297504e9aca90dfe2b3386c4fae5ce12ea6abc9feabdc75115907fa7f990061',
    (2, 1, 'check'): '4f2fef6569b80863c644a1cc78a7d9c792ec3741a49ef881053b644c9fa15710',
    (2, 1, 'plan'): '4741fcfdd90ef492d3b32b8ba9c7b72239e4dde298b633c70684ba85f812267b',
    (2, 1, 'encode'): '89feb8acecabd0d97cd806f52c7118d26559f6531cde97df64c56caa1fcc8787',
    (2, 1, 'decode'): '44af675bbb9ac60c19ff9fa4f9d4fb9f96c18fc59bba0998fb50380fb3095a7b',
    (2, 1, 'verify'): 'cb065fa238b97ed549229d4af6ccff4ea7174140c1488ca7e8bd1f372b264105',
    (2, 1, 'privacy'): '983ce1a23982ed732851a8684d437d3706e18b8fc97a85b699b316daa6d6c592',
    (2, 2, 'check'): 'b033710eaf66a40c246266dd397bcbba509d023950b4419875a7bc1e73093971',
    (2, 2, 'plan'): '07c6e9ba2b37204aa2f690dd363a1cc663f9db27b51d83542abd9e878285ca8a',
    (2, 3, 'check'): 'c58a5990f19cfed46bd6fa4d0b4197c2a867cee50136dc1ee8a3d9b80d046442',
    (2, 3, 'plan'): 'b1f5c2885a9e10a9f015133d3ee784d0376a55f371f152c2b31c17a157f0a757',
    (2, 3, 'encode'): 'fd3cb8d13906ed7c3ea38eb782ab718b33ec202688b877d46f877c9c20e563f3',
    (2, 3, 'decode'): 'e3ba70e7b68faff05e21ea46a1f228105862c56ee3dc11da98173822f23e2d52',
    (2, 3, 'verify'): '5146d5a7742b70515d52038d2ac6a87e3829d62b52c5a41b2ac6a7fa8c5e8958',
    (2, 3, 'privacy'): 'dd0f95500e1842176a94bd4a2fc8d4c4c88e49324ca3c65fb2aa36ebf486bbc6',
    (2, 4, 'check'): 'c6772343f3c5a10f75aa1922f1ce6b29b2c82098af96b96fdd36c23804b8bf02',
    (2, 4, 'plan'): '2d8f7439ed0d7ffd53c09fa23f3fdc5e4f211ac87f244a4a8ab8cc6dedab60a8',
    (2, 4, 'encode'): '028fa344d7a96e44a212957eb2bea18429b6dee81f3995ce201247d8c600a64d',
    (2, 4, 'decode'): '9dc0b2c21f02951b4582a528ee06a4453caff37445270ef9901ccf2d9063a051',
    (2, 4, 'verify'): '43115cc3d5e67ce7e745b2c14bb7166596fe560cb8d458ff8fe72fec0f51baec',
    (2, 4, 'privacy'): 'a3d19d4c7863e3bd0ae8156eb6adfdeb61a22a0b80c9ef710663cfc0dafc2ac2',
    (2, 5, 'check'): '5c80e01aacac4823cd4ad00d265f5ed6517dbcf6e27f391dddb921ba842c5737',
    (2, 5, 'plan'): 'e2c5d482598a2471bcc8dede51f2cc7b6b0605a8ed81818414934707867e436d',
    (2, 6, 'check'): 'bf4408aece17d029f6ee9f589007ed83abea6f2c0759835ae15ea614eca66a2e',
    (2, 6, 'plan'): '37e837a861fa036c2ca71d72c47e2fd584fa3c623c23f4167ae3e818d3e6d21f',
    (2, 6, 'encode'): '175dd7263612d872c63fffef309c6d5fcf52a57d7614bab9075650aa375fd60c',
    (2, 6, 'decode'): '4f6f0ca95c9bc82503915ceb5742c8e23893f2d3e5d419da3ecfa9e522456d01',
    (2, 6, 'verify'): 'a7782e981473fa0aadd4547a7a572d8c3811f219cc4fc34acd87c64b41bacb3a',
    (2, 6, 'privacy'): '596f51277699a369293ff1542a08814e3142b2450e65d1d719a332c6718e3b99',
    (2, 7, 'check'): 'c58a5990f19cfed46bd6fa4d0b4197c2a867cee50136dc1ee8a3d9b80d046442',
    (2, 7, 'plan'): 'f126ea430ead14602f91c2751ddc00addd710322f88b45a7da38b7a9e31c6dd5',
    (2, 7, 'encode'): 'e164c3e325132924c42d1753962bc0d7477451f76eaa2d133a59c6f4e8db359a',
    (2, 7, 'decode'): '8a4aeb3a87a768c4ade496f2ce2ef112b04424991134c9f76f1de2cd0f75bb9c',
    (2, 7, 'verify'): 'fcc8aec5cd44b2ed9d591384161dc13ee0b773e0ce698b4eb0bd149907bef11b',
    (2, 7, 'privacy'): '4b7f7475fefb9a099eec29b997fff6b7a10b00327a20000b79fd315dbf3345d9',
    (2, 8, 'check'): '4f2fef6569b80863c644a1cc78a7d9c792ec3741a49ef881053b644c9fa15710',
    (2, 8, 'plan'): '735dc7ccb04d25053bc7e27b2d78a2f25ee95ccd53b68f31976e794227231abf',
    (2, 8, 'encode'): '13015c3103d8d5bd18e44d92ad3109d8f5b789d166b3bf0d8dba7626685a4624',
    (2, 8, 'decode'): '4644451acefb1962f7df30d09570124088397cdf52de7d6c367eae935610a13b',
    (2, 8, 'verify'): '11f484537abcc148073bebe30c3c90ca6b60e9b7329425696c3a12d5bda0383f',
    (2, 8, 'privacy'): '7d17f6b062d12ddd0041219f9f71338c7963dfb1466a0c415dad4a590fc3eafe',
}


def run(argv, tmp, out=None):
    """One CLI call's exit code, stdout and stderr, with the scratch
    directory's path replaced so the bytes do not depend on it, followed
    by the bytes of its output file ``out``, which stays for the next
    commands."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    data = out.read_bytes() if out is not None and out.exists() else b""
    text = f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}\n".replace(str(tmp), "<tmp>")
    return text.encode() + data


def ladder_digests(gen, tmp) -> dict:
    """SHA-256 of each command's outputs, keyed by (seed, rung, command)."""
    digests = {}
    for seed in SEEDS:
        for rung, inst in enumerate(gen.provision_ladder(seed, draws=1)):
            src, msgs = tmp / "instance.json", tmp / "messages.json"
            plan, shares = tmp / "plan.json", tmp / "shares.json"
            for stale in (plan, shares):
                stale.unlink(missing_ok=True)
            src.write_text(json.dumps(inst.instance_doc()))
            msgs.write_text(json.dumps(inst.messages_doc()))
            outputs = {
                "check": run(["check", str(src)], tmp),
                "plan": run(["plan", str(src), "--out", str(plan)], tmp, plan),
            }
            if inst.kind != "out":
                outputs["encode"] = run(
                    ["encode", str(plan), str(msgs), "--seed", "7", "--audit", "--out", str(shares)], tmp, shares
                )
                outputs["decode"] = b"".join(
                    run(["decode", str(plan), str(shares), "--user", str(k)], tmp) for k in range(1, inst.k + 1)
                )
                outputs["verify"] = run(["verify", str(plan), "--trials", "3"], tmp)
                outputs["privacy"] = run(["verify", str(plan), "--privacy", "--entropy"], tmp)
            for command, data in outputs.items():
                digests[seed, rung, command] = hashlib.sha256(data).hexdigest()
    return digests


def test_cli_outputs_match_golden_digests(monkeypatch, tmp_path):
    got = ladder_digests(load_bench_gen(monkeypatch), tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    changed = [key for key in GOLDEN if got[key] != GOLDEN[key]]
    assert not changed, f"outputs changed for (seed, rung, command): {changed}"


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        table = ladder_digests(load_bench_gen(mp), Path(tmp))
    sys.stdout.write("".join(f"    {key}: {value!r},\n" for key, value in table.items()))
