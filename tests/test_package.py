"""The package's public surface."""

import types

import codedmem
from codedmem import coding, gf256


def test_every_exported_name_resolves():
    assert [name for name in codedmem.__all__ if not hasattr(codedmem, name)] == []


def test_the_codec_holds_no_numpy():
    # a split is bytes end to end; numpy serves RNG, placement and analysis only
    for module in (gf256, coding):
        held = [v for v in vars(module).values() if isinstance(v, types.ModuleType)]
        assert "numpy" not in {m.__name__.split(".")[0] for m in held}, module.__name__
