import semroi


def test_export_list_resolves_sorted_and_unique():
    names = semroi.__all__
    assert all(hasattr(semroi, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)
