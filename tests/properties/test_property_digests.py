"""Golden digests: every workload under the design shapes the snapshot
goldens do not cover stays bit-identical.

``golden_digests.json`` holds one SHA-256 of the canonical snapshot (all
stats included) per workload x shape in ``DIGEST_SHAPES``: modulo and
off pipelining on DMA, modulo on a cache, modulo on a port-starved cache
(8 lanes, one port), and perfect memory.  A
legitimate modeling change regenerates them with
``PYTHONPATH=src python -m tests.properties._golden digests``, which
prints the keys that moved.
"""

import pytest

from tests.properties._golden import (
    DIGEST_KEYS,
    DIGEST_PATH,
    canonical,
    digest,
    load_digests,
)

DIGESTS = load_digests()


def test_digest_file_covers_every_key():
    assert sorted(DIGESTS) == sorted(DIGEST_KEYS)
    with open(DIGEST_PATH, "rb") as fh:
        assert fh.read() == canonical(DIGESTS) + b"\n"


@pytest.mark.parametrize("key", DIGEST_KEYS)
def test_run_matches_golden_digest(key):
    assert digest(key) == DIGESTS.get(key), (
        f"{key}: simulation stats diverged from the golden digest")
