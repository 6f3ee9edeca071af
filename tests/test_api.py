"""The public namespace: every name in pav.__all__ resolves, once."""

import pav


def test_all_names_resolve_once():
    assert len(pav.__all__) == len(set(pav.__all__))
    missing = [name for name in pav.__all__ if not hasattr(pav, name)]
    assert missing == []
