"""The package's public surface."""

import codedmem


def test_every_exported_name_resolves():
    assert [name for name in codedmem.__all__ if not hasattr(codedmem, name)] == []
