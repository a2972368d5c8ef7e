"""Byte-exact CLI records and certificates for search, verify and sample.

Each case runs ``main`` in-process and compares stdout, byte for byte,
with a file under ``tests/golden/``.  The files pin the bit layout of
packed colorings (rows of one, two and three 64-bit words), the attempt
index at which each sampler first verifies, and the certificate text, so
any change to graph building or to the clique engine that alters a
record fails here.
"""

from pathlib import Path

import pytest

from gaussian_ramsey.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: name -> (argv, exit status)
CASES = {
    "search-binomial-n5-33": (
        "search --n 5 --ell 3 --k 3 --sampler binomial --p 0.5 --max-attempts 1000 --seed 55", 0),
    "search-geometric-n5-33": (
        "search --n 5 --ell 3 --k 3 --sampler geometric --d 400 --p 0.5 --max-attempts 1000 --seed 101", 0),
    "search-binomial-n11-44": (
        "search --n 11 --ell 4 --k 4 --sampler binomial --p 0.5 --max-attempts 1000 --seed 2", 0),
    "search-geometric-n12-44": (
        "search --n 12 --ell 4 --k 4 --sampler geometric --d 64 --p 0.5 --max-attempts 1000 --seed 3", 0),
    "search-binomial-n18-44": (
        "search --n 18 --ell 4 --k 4 --sampler binomial --p 0.5 --max-attempts 300 --seed 1", 1),
    "search-geometric-n18-44": (
        "search --n 18 --ell 4 --k 4 --sampler geometric --d 64 --p 0.5 --max-attempts 300 --seed 1", 1),
    "sample-n20": ("sample --n 20 --d 64 --p 0.4 --seed 3", 0),
    "sample-n130": ("sample --n 130 --d 16 --p 0.25 --seed 9", 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_bytes(name, capsys):
    argv, status = CASES[name]
    assert main(argv.split()) == status
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_verify_record_bytes(tmp_path, monkeypatch, capsys):
    cert = (GOLDEN / "search-geometric-n12-44.txt").read_text(encoding="utf-8").split("\n", 1)[1]
    (tmp_path / "cert.txt").write_text(cert, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--in", "cert.txt"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-n12-44.txt").read_text(encoding="utf-8")
