"""The package's export list names only live, distinct objects."""

import hopf_flow


def test_every_exported_name_resolves_once():
    names = hopf_flow.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(hopf_flow, n)]
    assert missing == []
