"""Keeps the generated API index in sync with the package."""

import pathlib

from repro.tools import MODULES, generate_api_doc


def test_api_doc_up_to_date():
    committed = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"
    assert committed.read_text() == generate_api_doc(), (
        "docs/API.md is stale; regenerate with `python -m repro.tools`"
    )


def test_every_module_importable_with_all():
    import importlib

    for name in MODULES:
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), (name, symbol)
