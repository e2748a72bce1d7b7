"""The package's public names."""

import twostrain


def test_no_two_public_names_share_an_object():
    # one name per function or class: an alias would hide behind its twin
    by_object = {}
    for name in twostrain.__all__:
        by_object.setdefault(id(getattr(twostrain, name)), []).append(name)
    assert [names for names in by_object.values() if len(names) > 1] == []
