"""The benchmark workloads' outputs, pinned by `tools/digests.py`.

Each row's digest is the sha256 of the `repr` of every result of a fixed
recipe (see the script).  A change meant to keep outputs byte-identical
keeps all four; one that moves an output regenerates the pins and says so.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "digests", Path(__file__).resolve().parent.parent / "tools" / "digests.py")
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)

# Captured when the quotient was first weighed from exact units.
_PINNED = {
    "regular-d5":
        "336276d28aa81dfec20b39435cb2fa60685978c67aa5885eeb72d71437c7a887",
    "model-path-d5":
        "a333a1f300163d801a602d0b3d17a9649ab1a1b745f3c0404d8c9ed2171d2107",
    "induced-gnp":
        "53480c15ff45f0bd2ffc53ef32426a3b0d32e907553170aff849908a5040c67c",
    "gnp-d5":
        "d1c607e89cd46ecdb92b8ac02150bb61021ced6586c267761a52e46e5872dba1",
}


def test_every_row_is_pinned():
    assert set(_PINNED) == set(digests.ROWS)


@pytest.mark.parametrize("row", list(_PINNED))
def test_workload_outputs_match_their_digest(row):
    assert digests.digest(row) == _PINNED[row]
