"""The package namespace: ``cogsim.__all__`` names what it exports."""

import inspect

import cogsim


def test_every_exported_name_resolves_once():
    assert len(cogsim.__all__) == len(set(cogsim.__all__))
    for name in cogsim.__all__:
        assert hasattr(cogsim, name), name


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(cogsim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(cogsim.__all__) == public
