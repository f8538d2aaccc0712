import axmaxwell


def test_every_exported_name_resolves():
    for name in axmaxwell.__all__:
        assert getattr(axmaxwell, name) is not None, name
