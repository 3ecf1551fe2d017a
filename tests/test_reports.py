"""Pinned report bytes: the sha256 of stdout for a fixed set of CLI
invocations, run in-process through `lpcodes.cli.main`.

The first twelve digests were recorded at commit 6a054f4, before the
change that made the radius and label routines take the HNF they are
given.  The next four (two `--no-dedupe` searches, 4-D to volume 14 and
`--t-max 3`) were recorded at commit a480d3d, before the change that
analyzes each congruence orbit of covering passes once.  The two
`analyze` JSON digests were recorded at commit ca3c881, before the
change that moved the hit record and CSV rows from search.py into
cli.py.  A refactor that should leave every report byte-identical must
leave these digests unchanged; a change that alters a report on purpose
re-records the digest and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from lpcodes.cli import main

PINNED = [
    (
        "search --dim 4 --p 2 --max-volume 11",
        "9b7679fe829bfb19840618d62c9905d307cf8a02624495bb7c19b0911b4a2ee5",
    ),
    (
        "search --dim 2 --p 4 --max-volume 600",
        "0afc23292b8a850bb9a8f4c61a167275b56bc592fb07393128e4e41b13db1461",
    ),
    (
        "search --dim 2 --p 2 --max-volume 241",
        "f22349311d080c1e5cbb6b7b437bc398cd6253bb9a1a0a068ed4eddb8b0bd609",
    ),
    (
        "search --dim 2 --p 2 --max-volume 241 --t-max 0",
        "e39759f1d9442767326106e4a8ee62f8ce247e9d128bfbdd20bcaea6d475b140",
    ),
    (
        "search --dim 2 --p 2 --max-volume 241 --format csv",
        "6f8c23a2c13b3c65ceafc9bfc21d0c8fb2fcbc5c061c10fe9f4fda233405f8fb",
    ),
    (
        "search --dim 2 --p 1 --min-volume 21 --max-volume 34 --t-max 1000000000",
        "4da7b370b3b4f5675fca69bfdf6b06db7d97c7e8abdc3173c94adef6e29294a1",
    ),
    (
        "search --dim 3 --p 3 --max-volume 10 --t-max 1000000000",
        "40de4dca72de6e2c84e3695a7c516f8cbff17ac8ce178f4e30393ca9f5b86fb5",
    ),
    (
        "tables --which table1",
        "55e7ef5193b4cfe239a9aa7df9badbc699370f8faf1ab3ad1261547bb521b110",
    ),
    (
        "tables --which table2",
        "c3a432c6fcb2472b97c7a3a286121c6a16640cb6ed90b9ab8b9f78ce86a0229f",
    ),
    (
        "analyze --dim 2 --p 2 --basis [[5,11],[13,1]] --format csv",
        "76009f0a99c7c46fa66a1b99286de0bc3e776aa00a5d4eef0a91daaa122f22f0",
    ),
    (
        "family --kind A --r 24 --p 17 --verify",
        "0a39dfe556f95bea11e2baec1d9e01da94fb41d74bbf8365b81fc412faefc61a",
    ),
    (
        "bounds --dim 3 --p 2 --theta-min 1.4635",
        "6fc9114a538691aaee30e276acd1c77e7cbaabab1bc05943aeb6a22215b283ec",
    ),
    (
        "search --dim 2 --p 2 --max-volume 60 --no-dedupe",
        "d95df9196edd2598ead6401590f6c5d0f31df300cb7d96e7ec8b32870eabe5cb",
    ),
    (
        "search --dim 3 --p 2 --max-volume 40 --no-dedupe",
        "0b50742b97526ebb1cde973f43cd3abf21d8f8561a0e5551bf4494a12ff17eb5",
    ),
    (
        "search --dim 4 --p 2 --max-volume 14",
        "eeca082561d69824834b8568eead4094bdd94095d5a132529c60aefc1315e893",
    ),
    (
        "search --dim 2 --p 2 --max-volume 60 --t-max 3",
        "b5e0fd76f494b87e97f3ddc54a52ce0be28e0a75837137b3070ea07fa50a9516",
    ),
    (
        "analyze --dim 2 --p 2 --basis [[5,11],[13,1]]",
        "d5cf5fb994b260c54bb15383995112f93f57e19e8e8d3fd5bf0f6dcb1b4a7a0f",
    ),
    (
        "analyze --dim 3 --p 2 --basis 1,0,3;0,1,8;0,0,21",
        "cc8c1bb65a87a0ec85416312f1d7bd3d8433da2c994be8847679ab8de05b6bc3",
    ),
]


@pytest.mark.parametrize("command,digest", PINNED, ids=[c for c, _ in PINNED])
def test_report_bytes_are_pinned(command, digest, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
