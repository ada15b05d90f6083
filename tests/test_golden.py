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


# `construct` argv -> (exit code, sha256 of stdout, sha256 of stderr): one
# run per construction verb on corpus fixtures, printing the documents,
# then one refusal per error class. AFFINE is an affine document written
# by the test (the corpus holds none).
CONSTRUCT_ARGV = {
    "assemble": ["assemble", "bool2dim.json", "dual2dim.json",
                 "--kind", "2-bialgebras-B1B2"],
    "assemble-b1": ["assemble", "bool2dim.json", "dual2dim.json",
                    "--kind", "2-assoc-bialgebra-B1"],
    "assemble-22": ["assemble", "bool2dim.json", "dual2dim.json",
                    "--kind", "2-2-bialgebra"],
    "bracket": ["bracket", "trivdialg3dim.json", "--variant", "aligned"],
    "cop": ["cop", "coalg2dim.json"],
    "dialg-from-diff": ["dialg-from-diff", "ut2.json"],
    "hlsda-from-affine": ["hlsda-from-affine", "AFFINE"],
    "k1": ["k1", "kx3.json"],
    "k2": ["k2", "unital2dim.json", "--allow-ineligible"],
    "leibniz-from-diff": ["leibniz-from-diff", "ut2.json"],
    "op": ["op", "hom3dim_ab.json"],
    "tensor": ["tensor", "unital2dim.json", "z2group.json"],
    "trivial-dialg": ["trivial-dialg", "hom3dim_ab.json"],
    "twist": ["twist", "kx3.json", "--alpha", "morphisms/kx3_scale.json",
              "--kind", "algebra"],
    "refuse-input-count": ["assemble", "unital2dim.json"],
    "refuse-not-eligible": ["k2", "unital2dim.json"],
    "refuse-rejected": ["twist", "ut2.json", "--alpha",
                        "morphisms/kx3_scale.json"],
}

EMPTY = hashlib.sha256(b"").hexdigest()

CONSTRUCT_SHA256 = {
    "assemble": (0, "2965d44a2d507371349c55f304b98366c10b32a6060961189620d866ec2d93f6", EMPTY),
    "assemble-22": (0, "9f63b218f722ce9f8731b9cfbc79a17f176dab097c4658a187a26018752ab164", EMPTY),
    "assemble-b1": (0, "9d2387b41a56998038847ed4381bd4e0ec8f8be88f87e08cfa3db98460251de8", EMPTY),
    "bracket": (0, "8dc7f5f4ae613c7c08115f1a7746357762601549911d46c095e92625d2f95dca", EMPTY),
    "cop": (0, "7db9c1668a97e51166f47d2808c66fda857859f6efa2163a746620be5051ea4f", EMPTY),
    "dialg-from-diff": (0, "416c4ed922244fc1eff1f5ce03b1888fcbde2d803ce658d470b55956700349f3", EMPTY),
    "hlsda-from-affine": (0, "0e8187543b039dcd3c35c9f6652a1acd88d82b8b4356f1743a743ba0b35f59ac", EMPTY),
    "k1": (0, "9efa749f6fe3bb8727d03391da37cf1d46ff757eea160821ec5a3054819bf666", EMPTY),
    "k2": (0, "b6358fe4d68d71cae75a63f78a8c89be876792f236efe9f4269677ac8195c0b7", EMPTY),
    "leibniz-from-diff": (0, "78c065d1e7973b6527ef7c996702b6c248e5ec2ee9bd53ce1b288390a4856e6f", EMPTY),
    "op": (0, "0852e28520fa3bd5c063244ea0f93bd88c8cb35ace9bc40cec4dbda3f3254426", EMPTY),
    "refuse-input-count": (2, EMPTY, "662819a6af723110bdb8dc6df719d07189c3a73b4537beced699a5b026fe1445"),
    "refuse-not-eligible": (1, EMPTY, "774e4627248bfc34f28a3daf946ac80e98e94286ee3a66be44272afbf55d9f63"),
    "refuse-rejected": (1, EMPTY, "9ead8ed7448079d75866a5f20557cf5ac72135c75127e166c0b8ddb5acc23ace"),
    "tensor": (0, "bf362638753131f74cc2cb1b953e06e5af76ca8364ef1592a80177ce5239e9e7", EMPTY),
    "trivial-dialg": (0, "ddfb1fa355b8ca0e822c17155453c9476d69e96c09000d06c1ba72485df8e995", EMPTY),
    "twist": (0, "4c4c2568768791270d33aff5ac27b65a1aebaf94056417425e10de55dcb261cf", EMPTY),
}


@pytest.fixture
def affine_doc(tmp_path):
    from homstruct.constructions import (affine_from_hlsda,
                                         dialgebra_from_differential)
    from homstruct.corpus import load_fixture
    from homstruct.documents import save_path, structure_to_document
    from homstruct.structures import HLSDA

    d = dialgebra_from_differential(load_fixture("ut2.json"))
    path = tmp_path / "affine.json"
    save_path(path, structure_to_document(
        affine_from_hlsda(HLSDA(d.left, d.right, d.alpha)), name="affine"))
    return str(path)


def test_every_construct_verb_is_pinned():
    from homstruct.cli import CONSTRUCT_VERBS
    assert {argv[0] for argv in CONSTRUCT_ARGV.values()} == set(CONSTRUCT_VERBS)
    assert sorted(CONSTRUCT_SHA256) == sorted(CONSTRUCT_ARGV)


@pytest.mark.parametrize("name", sorted(CONSTRUCT_ARGV))
def test_construct_output(name, affine_doc, capsys):
    verb, *rest = CONSTRUCT_ARGV[name]
    argv = ["construct", verb] + [
        affine_doc if a == "AFFINE" else
        str(DATA_DIR / a) if a.endswith(".json") else a for a in rest]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == CONSTRUCT_SHA256[name]
