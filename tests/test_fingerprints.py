"""Frozen fingerprints of seeded protocol runs and ``verify`` payloads.

Each protocol case hashes the per-round CSV trace followed by the canonical
JSON of the run's stats.  The hashes were recorded from the per-round
reference implementation; any rewrite of the round simulation must
reproduce them bit for bit, so a change that moves the random stream cannot
pass by staying within the statistical tolerances of ``test_qkd.py``.  Seed
1 runs 20 000 rounds so the runs cross internal block boundaries.

Each verify case hashes the payload of ``verify --suite all`` with floats
rounded to 9 significant digits and magnitudes below 1e-9 set to 0, so that
reordered floating-point arithmetic keeps the hash while any change to the
random stream or to a checked value moves it.
"""

import hashlib
import io
import json
import numbers

import pytest

from qtesters import cli, qkd
from qtesters.qkd import (
    EveStrategy,
    default_extended_config,
    default_lm05_config,
    run_extended,
    run_lm05,
)

ROUNDS = {0: 1000, 1: 20_000}

FROZEN = {
    "lm05-none-fixed-zero-0": "4c7d5a593454d8a9ab0bf2c0c7c7965a9494480b088e775c744662ab3b41a753",
    "lm05-none-fixed-zero-1": "7d82d19087519c6150ceee831fd1aabb429883a18b601ec61baf4d96be8bc694",
    "lm05-none-random-input-0": "4c7d5a593454d8a9ab0bf2c0c7c7965a9494480b088e775c744662ab3b41a753",
    "lm05-none-random-input-1": "7d82d19087519c6150ceee831fd1aabb429883a18b601ec61baf4d96be8bc694",
    "lm05-qmm-equivalent-tester-fixed-zero-0": "8695fa25119833f57ae803f143667ffb8ff0c4bdd515152c0046ff036b493f33",
    "lm05-qmm-equivalent-tester-fixed-zero-1": "baee84116e101d602fb61d5e696e67dcfac6c99f0b42e9ffc88f322c3ee4363d",
    "lm05-qmm-equivalent-tester-random-input-0": "8b6c5b1bb5235c9613bf6611d2dd5abc418a68484115ac0757928a0ec30df76a",
    "lm05-qmm-equivalent-tester-random-input-1": "cbd440c7d01b911c20dd5a6aa2a8370faee00ce80710d24b9cf27fa6e975c746",
    "lm05-intercept-resend-fixed-zero-0": "d7a6d24e55b61ab9ce8db0ba0c1f3891f659319f84ae4d786fc2026a528cbcfe",
    "lm05-intercept-resend-fixed-zero-1": "6224fba21a761eb35bc700233071a511f9b29aa03cb64df07edf84ff8d98e36b",
    "lm05-intercept-resend-random-input-0": "d7a6d24e55b61ab9ce8db0ba0c1f3891f659319f84ae4d786fc2026a528cbcfe",
    "lm05-intercept-resend-random-input-1": "6224fba21a761eb35bc700233071a511f9b29aa03cb64df07edf84ff8d98e36b",
    "ext2-none-fixed-0": "fd870ae9da6fa2deeb5e682d61d0f449f7e98adf9fc572c6fc1a79714c69c62f",
    "ext2-none-fixed-1": "c91a49f4864ed537f088ef093fe32fa8d5f6e86f37cf7c32a4b3ec73921dc607",
    "ext2-none-uniform-0": "fd870ae9da6fa2deeb5e682d61d0f449f7e98adf9fc572c6fc1a79714c69c62f",
    "ext2-none-uniform-1": "c91a49f4864ed537f088ef093fe32fa8d5f6e86f37cf7c32a4b3ec73921dc607",
    "ext2-qmm-equivalent-tester-fixed-0": "1c31e51daf6fcd6a2f31a9bbf968c18edbf00b8ae4623e38da81ffc794ccaa7c",
    "ext2-qmm-equivalent-tester-fixed-1": "73f11b233ee74b5e086e26def15b3494a9afb7804381fbd70e24608fac875628",
    "ext2-qmm-equivalent-tester-uniform-0": "b4bf3ddec95c3e25140fa8e968e8d30c6da7295648c46b880497d1a45253e452",
    "ext2-qmm-equivalent-tester-uniform-1": "ef8606661d22ae89442ab3ab8f8c2b0d6720cf2e765b678fec14eab5f867956b",
    "ext2-intercept-resend-fixed-0": "d5af7125e5f508080d8dc5f5efd5c5327dd1b6d1eea599fa5dd47561f4e1d2c1",
    "ext2-intercept-resend-fixed-1": "01e0aab63e7d94c92aebc931fb9bb43c601f226db1eccd575884ad81ea35ceb1",
    "ext2-intercept-resend-uniform-0": "26fb5ae1c6deb467bbde2070aba7895640cf94f9489be82ea552bb26e29a7368",
    "ext2-intercept-resend-uniform-1": "817df7274ce0000c21a25fabd4a6356527bef82b94f70ea9e61ee3c5c42bf81e",
    "ext4-none-fixed-0": "3f69a227bc57ae60ad2067d61fc75123657e4e7949da73e9e518ff20451f2713",
    "ext4-none-fixed-1": "c8c4bc58d16ea38cb558fc600e180449fca16e17c1ac98c5118be96e666966c9",
    "ext4-none-uniform-0": "3f69a227bc57ae60ad2067d61fc75123657e4e7949da73e9e518ff20451f2713",
    "ext4-none-uniform-1": "c8c4bc58d16ea38cb558fc600e180449fca16e17c1ac98c5118be96e666966c9",
    "ext4-qmm-equivalent-tester-fixed-0": "293a78c0f81b6d1bb519ce7504ef407def9a8ccf502a52e46e2113123636f195",
    "ext4-qmm-equivalent-tester-fixed-1": "8a26b8a0ae52048d8c3d38baef56852b67371dcc5d19ccde3f3c5c933b591860",
    "ext4-qmm-equivalent-tester-uniform-0": "2ba57b71e93f1cf81f6be68a170648b65ddb163d5c7d14971f2ee4a7871ce6a5",
    "ext4-qmm-equivalent-tester-uniform-1": "c272456b4770f5951e1a5d1d9f43d30b10bddeca66e446406d4289db406b9949",
    "ext4-intercept-resend-fixed-0": "f1d05e5053e7f42fec334874510c3826f35a0805a6860b0487210b7997bf513b",
    "ext4-intercept-resend-fixed-1": "30d0a74bbd343dc60fe4d3029bdffbeff96a6dc655c11f06ddae876ba5681070",
    "ext4-intercept-resend-uniform-0": "6734acad74a7d8a5a6c1d7f75ee5f2b5de9947deff7e79643693b069ebdac1bc",
    "ext4-intercept-resend-uniform-1": "a3c7e789eeadc65f7d7bf647886ae7ebc580f68303231415f9d4d7a349c3f42d",
}


def _cases():
    for protocol, policies in (("lm05", qkd.RESEND_POLICIES), ("ext2", qkd.SET_POLICIES),
                               ("ext4", qkd.SET_POLICIES)):
        for kind in qkd.EVE_KINDS:
            for policy in policies:
                for seed in ROUNDS:
                    yield protocol, kind, policy, seed


def _fingerprint(protocol, kind, policy, seed):
    rounds = ROUNDS[seed]
    if protocol == "lm05":
        eve = EveStrategy(kind=kind, resend_policy=policy)
        cfg = default_lm05_config(rounds=rounds, control_fraction=0.3, eve=eve, seed=seed)
        run = run_lm05
    else:
        eve = EveStrategy(kind=kind, set_policy=policy)
        cfg = default_extended_config(D=int(protocol[3:]), rounds=rounds, eve=eve, seed=seed)
        run = run_extended
    buf = io.StringIO()
    stats = run(cfg, trace=buf)
    h = hashlib.sha256(buf.getvalue().encode())
    h.update(json.dumps(stats.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def test_cases_cover_every_frozen_hash():
    assert sorted("-".join(map(str, c)) for c in _cases()) == sorted(FROZEN)


@pytest.mark.parametrize("protocol,kind,policy,seed", list(_cases()))
def test_seeded_run_matches_frozen_hash(protocol, kind, policy, seed):
    key = f"{protocol}-{kind}-{policy}-{seed}"
    assert _fingerprint(protocol, kind, policy, seed) == FROZEN[key]


VERIFY_FROZEN = {
    0: "e08e92d391a863cebd14b8757bd04317e341dbc47d0524b58131f354cf1ef524",
    1: "7dc979d33dd9ecb000d4e390a2b7ed72c54728b995edc1c84d2ffe8d4e916d17",
}


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    x = float(obj)
    return 0.0 if abs(x) < 1e-9 else float(f"{x:.9g}")


@pytest.mark.parametrize("seed", sorted(VERIFY_FROZEN))
def test_verify_payload_matches_frozen_hash(capsys, seed):
    code = cli.main(["verify", "--suite", "all", "--seed", str(seed), "--json-only"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["status"] == "pass"
    digest = hashlib.sha256(json.dumps(_canonical(report["payload"]), sort_keys=True).encode())
    assert digest.hexdigest() == VERIFY_FROZEN[seed]
