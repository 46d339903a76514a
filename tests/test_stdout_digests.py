"""Stdout of the shipping commands, pinned to sha256 prefixes.

stdout is a pure function of the inputs, so a change of representation
inside the ring (which terms a value keeps, when it is reduced) must leave
every byte of it alone.  `search` and `verify` print the one shared full
search (the `search_result` fixture), as the run-record tests in
test_cli.py do.
"""

import hashlib
from dataclasses import replace

import pytest

from fricke_orbits.cli import main

DIGESTS = {
    ("search", "--threads", "1"): "c15178ed460a",
    ("search", "--threads", "1", "--format", "json"): "d12f1c4cea68",
    ("search", "--threads", "1", "--format", "csv"): "7b0184ff23b5",
    ("verify", "--threads", "1"): "9a58a7d7063b",
    ("cosine", "--n", "3", "--max-den", "30"): "f075c4551559",
    ("cosine", "--n", "4", "--dens", "60"): "6040f8665295",
    ("cosine", "--n", "5", "--dens", "60"): "074990236b1b",
    ("cosine", "--n", "6", "--dens", "60"): "0f2b615c1014",
    ("cayley", "--ry", "1/3", "--rz", "1/5"): "63ad2cae4b4b",
    ("bt", "--name", "s_delta", "--theta", "1/5,2/5,1/5,2/5"): "811e496cd034",
    ("theta", "--orbit", "31", "--max-den", "12"): "b2229676084e",
    ("theta", "--orbit", "1", "--max-den", "12"): "6a136e7b4486",
}

# sha256 prefix of the stdout of `graph 1` .. `graph 45`, concatenated
GRAPH_DIGESTS = {"dot": "51f738cbad08", "json": "6c4cdc0be9ab"}


def _stdout(capsys, argv) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_command_stdout_digest(monkeypatch, capsys, search_result, argv):
    monkeypatch.setattr("fricke_orbits.cli.full_search",
                        lambda threads, eps: replace(search_result, threads=threads))
    assert hashlib.sha256(_stdout(capsys, argv)).hexdigest()[:12] == DIGESTS[argv]


@pytest.mark.parametrize("fmt", sorted(GRAPH_DIGESTS))
def test_graph_stdout_digest(capsys, fmt):
    h = hashlib.sha256()
    for n in range(1, 46):
        h.update(_stdout(capsys, ("graph", str(n), "--format", fmt)))
    assert h.hexdigest()[:12] == GRAPH_DIGESTS[fmt]
