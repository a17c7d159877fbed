from divisorlab.parallel import ordered_map


def test_ordered_map_preserves_order():
    tasks = list(range(50))
    assert ordered_map(lambda t: t * t, tasks, threads=1) == [t * t for t in tasks]
    assert ordered_map(lambda t: t * t, tasks, threads=8) == [t * t for t in tasks]


def test_ordered_map_single_task():
    assert ordered_map(str, [7], threads=8) == ["7"]

