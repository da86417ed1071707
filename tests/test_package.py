"""Tests for the package's public surface: ``qcrb_kit.__all__``."""

import qcrb_kit


def test_every_exported_name_resolves_and_none_repeats():
    names = qcrb_kit.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(qcrb_kit, n)] == []
    namespace = {}
    exec("from qcrb_kit import *", namespace)
    assert set(names) <= set(namespace)
