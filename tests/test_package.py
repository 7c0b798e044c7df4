"""The package's public surface."""

import ast
import inspect
import types

import codedmem
from codedmem import coding, gf256, manager


def test_every_exported_name_resolves():
    assert [name for name in codedmem.__all__ if not hasattr(codedmem, name)] == []


def numpy_names(module):
    """The names under which a module holds numpy or one of its submodules."""
    return {
        name
        for name, value in vars(module).items()
        if isinstance(value, types.ModuleType) and value.__name__.split(".")[0] == "numpy"
    }


def test_numpy_stays_inside_the_gf_kernel():
    # a split is bytes end to end; numpy serves RNG, placement and analysis,
    # and in the codec only the word-wide xor of `gf256.apply_matrix`, which
    # took over from one int conversion per term once those were measured as
    # the largest share of an encode
    assert not numpy_names(coding)
    tree = ast.parse(inspect.getsource(gf256))
    kernel = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "apply_matrix"
    )
    inside = {id(node) for node in ast.walk(kernel)}
    aliases = numpy_names(gf256)
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in aliases]
    assert all(id(node) in inside for node in uses)


def test_the_codec_returns_bytes_payloads():
    codec = coding.make_codec(coding.CodecParams(k=4, r=3, delta=1), page_size=4000)
    page = bytes(range(256)) * 15 + bytes(160)
    splits = list(enumerate(coding.codeword(codec, page)))
    corrupted = [(0, bytes(len(splits[0][1])))] + splits[1:]
    payloads = [
        *coding.encode(codec, [data for _, data in splits[:4]]),
        *coding.codeword(codec, page),
        # parity among the first k, so both decodes rebuild data rows
        coding.decode(codec, splits[3:]),
        coding._verified_decode(codec, splits[2:]),
        coding.correct_corruption(codec, corrupted, 1)[0],
    ]
    assert all(type(p) is bytes for p in payloads)
    assert payloads[-1] == payloads[-2] == payloads[-3] == page


def test_the_manager_decodes_through_public_codec_names():
    # every decode then goes through a name a tracer can wrap, such as
    # `coding.decode` or `coding.correct_corruption`
    tree = ast.parse(inspect.getsource(manager))
    private = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "coding"
        and node.attr.startswith("_")
    ]
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "coding"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == imported == []
