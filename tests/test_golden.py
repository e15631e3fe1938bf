"""Byte-identity of the CLI's output.

Each digest is the first 12 hex digits of the sha256 of one command's
stdout, recorded before a refactor of the report path.  A refactor that
keeps every output keeps every digest; a change that alters an output on
purpose records the new digest and says why.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

import gimel
from gimel.cli import main

DATA = Path(gimel.__file__).parent / "data"

# Rolfsen-table diagrams as listed by the Knot Atlas, and two mirrors.
PD_CODES = {
    "3_1": "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]",
    "4_1": "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]",
    "5_1": "PD[X[1,6,2,7],X[3,8,4,9],X[5,10,6,1],X[7,2,8,3],X[9,4,10,5]]",
    "5_2": "PD[X[1,4,2,5],X[3,8,4,9],X[5,10,6,1],X[9,6,10,7],X[7,2,8,3]]",
    "6_1": "PD[X[1,4,2,5],X[7,10,8,11],X[3,9,4,8],X[9,3,10,2],X[5,12,6,1],"
    "X[11,6,12,7]]",
    "7_1": "PD[X[1,8,2,9],X[3,10,4,11],X[5,12,6,13],X[7,14,8,1],X[9,2,10,3],"
    "X[11,4,12,5],X[13,6,14,7]]",
    "m3_1": "PD[X[4,2,5,1],X[6,4,1,3],X[2,6,3,5]]",
    "m5_2": "PD[X[4,2,5,1],X[8,4,9,3],X[10,6,1,5],X[6,10,7,9],X[2,8,3,7]]",
}

COMPUTE = {
    "p2m37_n3": "db7372d66323",
    "p2m37_n4": "9157b50e7505",
    "p2m37_n5": "c988a0593080",
    "p2m37_n6": "7d8305192ede",
    "p2m37_n7": "288d5d24175a",
    "p2m37_n8": "1acecf435bd6",
    "s3_p754": "371a3e6ae0f7",
    "s3_p976": "f5e675cd605a",
    "unknot_n2": "a1d08f0beb45",
    "unknot_n3": "4cda098bcd87",
    "unknot_n4": "bee187ca09ea",
    "unknot_n5": "69d7c840904c",
    "unknot_n6": "04aad803fa5b",
    "3_1": "fa1de9e279c8",
    "4_1": "3c5aa6e59830",
    "5_1": "208451a142b3",
    "5_2": "79d58f774f65",
    "6_1": "1690e0a2a5b5",
    "7_1": "72c6cf2bf0cd",
    "m3_1": "300b6e807e3f",
    "m5_2": "04113327deee",
}

DECOMPOSE = {
    "p2m37_n3": "93bc805ba240",
    "p2m37_n4": "e2842c85f981",
    "p2m37_n5": "164c404c9979",
    "p2m37_n6": "fac4b5887859",
    "p2m37_n7": "83626c30aa1a",
    "p2m37_n8": "7d75fe94b01e",
    "s3_p754": "188941b8bd2b",
    "s3_p976": "c3851c5dab09",
    "unknot_n2": "0203309bf22b",
    "unknot_n3": "ddf68a428019",
    "unknot_n4": "c9ba14a018c8",
    "unknot_n5": "72dbf1f1c548",
    "unknot_n6": "b1042b17ad19",
}


def _digest(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    return hashlib.sha256(res.stdout.encode()).hexdigest()[:12]


def _input_args(name):
    if name in PD_CODES:
        return ["--pd", PD_CODES[name]]
    return ["--fixture", str(DATA / f"{name}.json")]


def test_golden_inputs_are_every_bundled_fixture():
    fixtures = sorted(p.stem for p in DATA.glob("*.json"))
    assert sorted(DECOMPOSE) == fixtures
    assert sorted(COMPUTE) == sorted(fixtures + list(PD_CODES))


@pytest.mark.parametrize("name", sorted(COMPUTE))
def test_compute_output_is_unchanged(name):
    assert _digest(["compute", *_input_args(name)]) == COMPUTE[name]


@pytest.mark.parametrize("name", sorted(DECOMPOSE))
def test_decompose_output_is_unchanged(name):
    assert _digest(["decompose", *_input_args(name)]) == DECOMPOSE[name]
