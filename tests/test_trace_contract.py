"""The benchmark tracer in perfbench/ wraps functions of the package by name;
installing it fails when a refactor unbinds one of them."""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    tracer = layers.Tracer("t")
    try:
        tracer.install()
        assert layers.count_wrappers() > 0
    finally:
        tracer.uninstall()
    assert layers.count_wrappers() == 0
