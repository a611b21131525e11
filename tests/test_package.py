import hadwalk


def test_all_names_resolve_once():
    # a deleted name left in __all__ would otherwise fail only `import *`
    assert len(set(hadwalk.__all__)) == len(hadwalk.__all__)
    assert [name for name in hadwalk.__all__ if not hasattr(hadwalk, name)] == []
