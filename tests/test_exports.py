"""Package exports: every ``__all__`` entry names something the package holds."""

from __future__ import annotations

import pytest

import kgtyper
import kgtyper.embeddings


@pytest.mark.parametrize("module", [kgtyper, kgtyper.embeddings], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)  # fails on a stale entry
    assert set(module.__all__) <= namespace.keys()
