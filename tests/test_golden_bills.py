"""Golden charged bills: the paper's metric pinned as absolute values.

Every other bill test compares one backend or path against another at
the same commit; a change that shifted the simulated bill everywhere at
once would pass them all. This suite compares exact ``IOStats`` counters
and per-extent splits against ``tests/golden/bills.json``, which only
``tests/golden/make_bills.py`` rewrites.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_MAKE_BILLS = pathlib.Path(__file__).resolve().parent / "golden" / "make_bills.py"
_spec = importlib.util.spec_from_file_location("golden_make_bills", _MAKE_BILLS)
make_bills = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_bills)

GOLDEN = json.loads(make_bills.GOLDEN_PATH.read_text(encoding="utf-8"))
CASES = list(make_bills.cases())


def test_golden_file_covers_every_case():
    pinned = {(section, key) for section, rows in GOLDEN.items() for key in rows}
    assert pinned == {(section, key) for section, key, _thunk in CASES}


@pytest.mark.parametrize(
    "section,key,thunk", CASES, ids=[f"{s}:{k}" for s, k, _t in CASES]
)
def test_bill_matches_golden(section, key, thunk):
    assert thunk() == GOLDEN[section][key]
