import bohmctx


def test_public_names_resolve_and_none_repeats():
    assert len(set(bohmctx.__all__)) == len(bohmctx.__all__)
    for name in bohmctx.__all__:
        getattr(bohmctx, name)  # AttributeError if the name is stale
