"""Pinned ``crmostow analyze`` reports.

Every ``crmostow/1`` report is meant to stay byte-identical across changes
that do not change an answer.  This file holds the sha256 of the stdout of
``crmostow analyze --catalog NAME [--params P] --seed 11`` for the five
fixed catalog entries and the 44 ``grassmann_pair`` grid entries up to
sl(6), and of ``crmostow analyze SPEC --seed 11`` for Cayley-conjugated
copies of the fixed entries and of ``grassmann_pair`` (1,2,3,1), whose
dense bases exercise the exact layer's general case; a change that alters a
report fails here, and its new digests go in with the reason the report
changed.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from crmostow import catalog
from crmostow.cli import EXIT_OK, _matrix_to_json, main, subalgebra_spec_from_entry
from test_metamorphic import _cayley_transform

REPORT_SHA256 = {
    "so_n_symmetric": "214041e5773941e2b69f919e89c6ded1c78a4ecabd07cf38fee28634125cbdde",
    "su22_f12": "1d6a7f5d86499b40995b2a639a9ad7429695f6e56f7563162f6e6eb3e326bf62",
    "su23_f12": "361b9e76a4f69d3a3a6b07474c56ce7a8c8d7a653ea81f8448255451f39f5d3f",
    "su23_f13": "3164e905f8812d0b998d82ad52af4564e51f7ddb724d117d91d78114444893a6",
    "upper_triangular_horocycle": "d85004907a6af9ca63924eddfb678a29c512ec05cfe60c107aba4ce3af4072ab",
    "grassmann_pair 1,2,2,0": "4adba3e7fa3f039efbe39772ceac56bb7b8b907359d2c5b01e695a038680b390",
    "grassmann_pair 1,2,2,1": "c999aaa26f768e668a253c283a6164eb5a5c1c442f22fc6ebfb4d0e8e0a0f5fa",
    "grassmann_pair 1,2,3,0": "73b8c2fb42c3fa7648570273486479d4d937bc8f7cf07269e1ac1bec7e9687c0",
    "grassmann_pair 1,2,3,1": "80a8231da5e804f687bfa56d0547fd88a478ac98e63fb6508712ea3a1f765161",
    "grassmann_pair 1,3,3,0": "8180e8494c67dcfe6c2a1d53d74c6ec4b218fbabc6def9a518ae6ee98db54fd5",
    "grassmann_pair 1,3,3,1": "ab88381535b01ffdee5d883581768232cc7ec662ad6f2b23e14e4db951e60923",
    "grassmann_pair 2,3,3,1": "ccaa4e55772f6c965813607e98fb3b63c3a7e4f63b7f96201ed157063fd2ec65",
    "grassmann_pair 2,3,3,2": "a8775f62e0673c34c248c9fbc0986e661701547544c0fb76651f4ad02cc6b441",
    "grassmann_pair 1,2,4,0": "31b8059b0f3a0072373c024f057dce3bfb651ad2e2be202879e4d4f6283efacd",
    "grassmann_pair 1,2,4,1": "1d7970ea6f6231e3b81c01aacb1ca29155ea807b9e5e67e49236ce7c0bb1c2d2",
    "grassmann_pair 1,3,4,0": "b83abcdb30a7727cc83fd4136bc5c7dc5a28904af5f0fe26c9ae13020f5a59d0",
    "grassmann_pair 1,3,4,1": "1243fb12135f5676651446082674d9db4fc75e1f6d54db45d0651f5a63c17e45",
    "grassmann_pair 1,4,4,0": "ffe5c0811ec3e62b2a72dcdcd9d6716e76c1bbe64b47658bdf93179596b55f79",
    "grassmann_pair 1,4,4,1": "2dd1d31b0697e4e33014b5247e3c826347ee37e7403494d541cf753f433e80f2",
    "grassmann_pair 2,3,4,0": "dc04c3eb8cc6e6d9c92e97d28eff6d272709e348c9e78373999c4d74cafe1cc7",
    "grassmann_pair 2,3,4,1": "33e9f6d625f920263d9b4d431c17e6c66d470f6153613fa112f0c70cbd9a0278",
    "grassmann_pair 2,3,4,2": "72ca0d1245c8bde01b3a63cb3a10424d7b522385eeb4a021ffe73c89487a9fee",
    "grassmann_pair 2,4,4,1": "2dac1a21350b3db594f77b3560f4984b810c66af85fac0ea8c8050790d78a690",
    "grassmann_pair 2,4,4,2": "c0f4975a9a12f66a73358a662798c0c3233cd8164debb08901e2977061876829",
    "grassmann_pair 3,4,4,2": "ff14d5524a2b631b8ea6cf3d51a98be0388c2cb42896aaa54fe664c8f876cc2d",
    "grassmann_pair 3,4,4,3": "5ac3ca56ea53b1be75c26e95d85c46e0ad71674660b623dd39d9a01b41e7b9f6",
    "grassmann_pair 1,2,5,0": "84c65474eaf5430088490299a1b9f10cea1a09cd1ee943a22b9c2ed7be9c96ce",
    "grassmann_pair 1,2,5,1": "e524f866acc9b83b30a80664f6f2762e6dd867daef1411bf45200a1c998d90d0",
    "grassmann_pair 1,3,5,0": "993655d0b16aba11460966c79853b732f0802778a7478990c640f94483a4b1c0",
    "grassmann_pair 1,3,5,1": "4436f1760f0b978acbd583fc6a0ef7a2b6943d75faaf1af5c0f22e1c875994e5",
    "grassmann_pair 1,4,5,0": "21ef2c217c6f3f2f44bb99ebdc8575b84a9baa4560be8104388816cd2670601e",
    "grassmann_pair 1,4,5,1": "0688586a582d34332928028fa513c0e05361040b5c12e595fcbd8777728e5109",
    "grassmann_pair 1,5,5,0": "ac844964a3cf39582258791536ee35074b0a07b476859075d712f9b02354e90d",
    "grassmann_pair 1,5,5,1": "fed3e42806e559148910e2b10aca6037db9728814cf96b197b14d696f5d78915",
    "grassmann_pair 2,3,5,0": "d21230f06d0b668f7ae3541a0380ae4e040088b6065f52d6b5ffccd2e1d583f5",
    "grassmann_pair 2,3,5,1": "1057639c36e6295f138e0d9b9549d2eac5bfa93816fb96816d9baaf879595bb3",
    "grassmann_pair 2,3,5,2": "89e805a42a2872b96350df03d104cc4fd0ab3b3051ad925813e677c845373c14",
    "grassmann_pair 2,4,5,0": "667834210734e8b80a1668959c068d65e383167a1fa1a57228c6eb7e11f16940",
    "grassmann_pair 2,4,5,1": "6394900dd0ab11518028337800e5f77f888c535ae682ac5eb1e05c26fb36c3a5",
    "grassmann_pair 2,4,5,2": "78b34b02b60a5f7599072d7e70690b8c5c31dc89782dd627619501993ab74cd9",
    "grassmann_pair 2,5,5,1": "63494aee02fb1434a8dd13ac5da72b532943c12a574ba54f82cd800ecf819b00",
    "grassmann_pair 2,5,5,2": "c037292ddebc574cc3c7676c548aabf6970f8646552c45481f11b405c7aa30b0",
    "grassmann_pair 3,4,5,1": "68c7a1b2dbabc0c2b2858dad3eac7bac78a506acc5358cce15b511f2d4e2f894",
    "grassmann_pair 3,4,5,2": "10cc817392b76cebcd5902aab8ad9aba32a407de540e4fac766c50cadc2ec2b4",
    "grassmann_pair 3,4,5,3": "b452c703a3be30b3dacc9ea0cef4c98911009c52dcfa4e3b073a1e44f1c68f3d",
    "grassmann_pair 3,5,5,2": "d7abf7d1b96747123eee49b97af6d96059126f08af0e82b8179f89cbb03d8ea9",
    "grassmann_pair 3,5,5,3": "400952e32fab43a1572d18f5741bee997cdeb4585109b525efde5139e1af908b",
    "grassmann_pair 4,5,5,3": "7ed380be1ed32b31330958cda1bbc7e48adf65e1c1218d2994d006baf504a6d9",
    "grassmann_pair 4,5,5,4": "15475f1690c359c7fbcc123ca9256d65bc38c49961214dfa7d886f29d1540abb",
}


def _argv(label):
    name, _, params = label.partition(" ")
    if not params:
        return ["analyze", "--catalog", name, "--seed", "11"]
    p, q, n, k = map(int, params.split(","))
    spec = json.dumps({"p": p, "q": q, "n": n, "k": k})
    return ["analyze", "--catalog", name, "--params", spec, "--seed", "11"]


def test_pins_every_fixed_entry_and_the_grid():
    fixed = {name for name in catalog.entry_names() if name != "grassmann_pair"}
    grid = {
        "grassmann_pair {p},{q},{n},{k}".format(**params)
        for params in catalog.grassmann_parameter_grid(6)
    }
    assert set(REPORT_SHA256) == fixed | grid


@pytest.mark.parametrize("label", sorted(REPORT_SHA256))
def test_analyze_report_bytes(label, capsys):
    code = main(_argv(label))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[label]


# One fixed Cayley transform (I - S)(I + S)^-1 per entry, S drawn from the
# cycle below by test_metamorphic._cayley_transform.
CAYLEY_VALUES = ((1, 2), (-1, 3), (2, 3), (1, 1), (-2, 3))

CAYLEY_REPORT_SHA256 = {
    "so_n_symmetric": "476a95b132e72bf8edfcc076c6a09fe6e2cab5834563c92743e75b693059f33f",
    "su22_f12": "51deea61e8068de1d99a7f47b8742c3ca9d76e1b8cbdba5394dbb0222875f33f",
    "su23_f12": "fa0cd6ba7299439ebf02fc3346264e5fadf20f0554202be69fa672a735d17d33",
    "su23_f13": "bf058823b41fb285f30fed19019e9de1d6fe1b94afea64e269564d8660d70d70",
    "upper_triangular_horocycle": "f31719c5b6066affc46f6884b7af29e9d1ac4e4a163b35a84a2043fb8a4b7dd4",
    "grassmann_pair 1,2,3,1": "d352cbb78dc827fd72b2ac8525129c2b9c22b89a0b5715a023e56873c839b5e5",
}


def _cayley_spec(label) -> dict:
    name, _, params = label.partition(" ")
    if params:
        params = dict(zip("pqnk", map(int, params.split(","))))
    entry = catalog.build(name, params or None)
    values = itertools.cycle([Fraction(k, d) for k, d in CAYLEY_VALUES])
    g = _cayley_transform(entry.ambient.blocks, lambda: next(values))
    spec = subalgebra_spec_from_entry(entry)
    spec["basis"] = [_matrix_to_json(g @ b @ g.star()) for b in entry.subalgebra.basis()]
    return spec


@pytest.mark.parametrize("label", sorted(CAYLEY_REPORT_SHA256))
def test_cayley_conjugated_report_bytes(label, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_cayley_spec(label)))
    code = main(["analyze", str(path), "--seed", "11"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CAYLEY_REPORT_SHA256[label]
