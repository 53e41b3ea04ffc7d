"""Mutated PGM and model files fail with ValueError subclasses only.

Each example takes a valid file and flips, truncates and inserts bytes
in it.  Whatever the result, ``read_pgm`` and ``load_model`` either read
it or raise ``PgmError`` / ``ModelFileError``; any other exception, such
as a MemoryError from a header that asks for a huge array, fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchprior import (
    ImageBuffer,
    ModelFileError,
    PgmError,
    load_model,
    read_pgm,
    save_model,
    write_pgm,
)

from test_gmm import random_gmm

MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
), min_size=1, max_size=4)

SEEDED = settings(max_examples=150, derandomize=True, database=None)


def mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, where, *rest in mutations:
        if kind == "flip" and buf:
            buf[where % len(buf)] ^= 1 << rest[0]
        elif kind == "truncate":
            del buf[where % (len(buf) + 1):]
        elif kind == "insert":
            at = where % (len(buf) + 1)
            buf[at:at] = rest[0]
    return bytes(buf)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("originals")
    rng = np.random.default_rng(0)
    write_pgm(ImageBuffer(np.round(rng.uniform(0.0, 255.0, (5, 6)))), root / "p5.pgm")
    save_model(random_gmm(rng, 2, 3), root / "m.gmmp")
    return {
        "p5": (root / "p5.pgm").read_bytes(),
        "p2": b"P2\n# comment\n3 2\n255\n0 10 20\n30 40 255\n",
        "gmmp": (root / "m.gmmp").read_bytes(),
    }


def check_reader(reader, error, path, data):
    path.write_bytes(data)
    try:
        reader(path)
    except error:
        pass


@pytest.mark.parametrize("kind", ["p5", "p2"])
@SEEDED
@given(mutations=MUTATIONS)
def test_mutated_pgm_raises_pgm_error_only(originals, tmp_path_factory, kind, mutations):
    path = tmp_path_factory.getbasetemp() / f"mutated-{kind}.pgm"
    check_reader(read_pgm, PgmError, path, mutate(originals[kind], mutations))


@SEEDED
@given(mutations=MUTATIONS)
def test_mutated_model_raises_model_file_error_only(originals, tmp_path_factory, mutations):
    path = tmp_path_factory.getbasetemp() / "mutated.gmmp"
    check_reader(load_model, ModelFileError, path, mutate(originals["gmmp"], mutations))
