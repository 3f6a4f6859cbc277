"""Known answers for the seed derivation every artifact hangs off.

`mix_seed` seeds trees, folds, splits and synthetic ids, so these values
must never move; a change here changes every matrix, model and metric.
"""
from __future__ import annotations

import pytest

from malfam.util import fnv1a64, mix_seed


@pytest.mark.parametrize("parts, expected", [
    ((), 0xCBF29CE484222325),  # the FNV-1a 64-bit offset basis
    (("a", "b"), 12340099932563210358),
    (("opc_push|mov|call|ret",), 18054593293260357323),
])
def test_fnv1a64_known_answers(parts, expected):
    assert fnv1a64(parts) == expected


@pytest.mark.parametrize("parts, expected", [
    ((0, "tree", 0), 1739763238303745823),
    ((301, "split"), 12076984782215588135),
    ((7, "select", "section_size"), 4248739699944100361),
    (("Ramnit", 3, "fold"), 5730269071692707374),
])
def test_mix_seed_known_answers(parts, expected):
    assert mix_seed(*parts) == expected


def test_mix_seed_reads_ints_and_their_strings_alike():
    assert mix_seed(5, "tree", 1) == mix_seed("5", "tree", "1")
