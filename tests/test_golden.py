"""Byte-identity of the machine reports.

A change to the scalar representation, the evaluation order or the
report layout that alters one byte of these outputs fails here. Only a
deliberate change of the report format updates the digests."""

import hashlib

import pytest

from homstruct.cli import main
from homstruct.corpus import DATA_DIR

CORPUS_SHA256 = "f642f3c52a56b6d48ae0644c0a307ba0343abe778f9acf5bfec0fce90d907f0a"

# fixture -> (exit code, sha256 of `check --format machine --no-oracle`)
CHECK_SHA256 = {
    "bool2dim.json": (0, "3dca96297193bd40b0feb418e1fcbf27f5f9941dda77d86db809e71fe2fb4ea6"),
    "coalg2dim.json": (0, "434d40628f8ca8a278ba776465ebe365f366b4cc983fd0aadc3f3f91931c11ec"),
    "counital2dim.json": (0, "faa956870df78ce382ff469ee049684bd67672547bb8d96a5afda39290fd3220"),
    "dim1.json": (0, "7212a375ceecae9beba38b427f59b8b5b7b12ed941b601d8dd970c02b17cf983"),
    "dual2dim.json": (0, "0bf02948b8d36fb6d44d23cdc9ea9dca86a74ac88fb96126c8b32e33eaad6e81"),
    "ex1.json": (1, "5717f7290d6f954e89ca0c3ad49d548a91972ff633c63cf9f42412c578ed5005"),
    "ex2.json": (1, "6e0a89b11a975664b544c01a396b5db2f2cad025abe1ce9db4adbae439b1c8a7"),
    "hom3dim_ab.json": (0, "44f43e2cbbb080c8810bd89665d9342633e3010229bed0521dc9fdb69d8da245"),
    "kx3.json": (0, "4b16931550646e3455191c6c0cee7f27f4eba1260d4cc6d0765886ba2b217209"),
    "kx3_twist2.json": (0, "24ca8c900789d37264231f1efcb18aea3af28c28ba20e15b19a6a045f6c72d1c"),
    "leibniz2dim.json": (0, "c6d5d733961af7a9bfc0d22f760c718d96aefe1f59751724c1a7c3cad768e746"),
    "mat2.json": (0, "ebdbbc4a5fa13edd8226019b30fa2c8d7b9725ec8e5de4e6e58f307ee5153353"),
    "mat2_twist_conj.json": (0, "057e03f5755ac9a3fee6090349b6a3173eac7db3c20d70285f475d2a4dd2c0d0"),
    "trivdialg3dim.json": (0, "aaedc73ce48357e2e035163905f74a25b1187cfb11fb813ca94e8fc23d741484"),
    "trivial2dim.json": (0, "0a14932c8121223aac8d54cfaa07c130336a24e52d735d8007c0ec86aa8a6f8e"),
    "twohom2dim.json": (1, "cbc24f637da91e97ea0ec8439273b028e32815c81b88099a741527153f3b6168"),
    "unital2dim.json": (0, "f6dd23cbdaded9850f5681bd0c23f2b41fcdbc238038f3c70ca2b90cff127455"),
    "ut2.json": (0, "5ecf71d382ef8c1d3ab87918158e1d210764a81a76c684e6a96e4801d7622cd0"),
    "z2group.json": (0, "03d8114a088b2c429d010255eb798d96f9ccb5f53c68bab18f8759ea090cf84e"),
    "z2group_twist_sign.json": (0, "19a084762956c823e2423989d713f05930442fee2f6c849b5bf44c308dff2da4"),
}


def _run(argv, capsys):
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
def test_corpus_machine_report(seed, capsys):
    argv = ["corpus", "--format", "machine", "--oracle-samples", "5",
            "--seed", str(seed)]
    assert _run(argv, capsys) == (0, CORPUS_SHA256)


def test_every_fixture_is_pinned():
    assert sorted(CHECK_SHA256) == sorted(
        p.name for p in DATA_DIR.glob("*.json") if p.name != "expected.json")


@pytest.mark.parametrize("name", sorted(CHECK_SHA256))
def test_check_machine_report(name, capsys):
    argv = ["check", "--format", "machine", "--no-oracle", str(DATA_DIR / name)]
    assert _run(argv, capsys) == CHECK_SHA256[name]
