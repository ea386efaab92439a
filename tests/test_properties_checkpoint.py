"""Property-based tests (hypothesis) for the flat session-checkpoint container.

The guarantees :class:`repro.serve.SessionCheckpointStore` leans on:

* **byte-exact round trip** — whatever the keys, dtypes, shapes (0-d,
  empty) and strides of the arrays and however the JSON metadata nests,
  ``unpack_checkpoint(pack_checkpoint(arrays, meta))`` returns every
  array with the same dtype, shape and C-order bytes, and equal meta;
* **frozen** — the packed buffer does not alias the arrays it was built
  from;
* **every damaged buffer is rejected** — truncating anywhere or flipping
  any one bit raises :class:`CheckpointCorrupt`, never returns arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import CheckpointCorrupt, pack_checkpoint, unpack_checkpoint

SETTINGS = dict(max_examples=60, deadline=None)

DTYPES = (np.float32, np.float64, np.int64, np.uint8)


@st.composite
def arrays(draw):
    dtype = draw(st.sampled_from(DTYPES))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    layout = draw(st.sampled_from(("contiguous", "strided", "transposed")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "strided" and shape:
        shape = (2 * shape[0],) + shape[1:]
    values = np.asarray(rng.normal(size=shape) * 100).astype(dtype)
    if layout == "strided" and shape:
        return values[::2]
    if layout == "transposed":
        return values.T
    return values


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
metas = st.dictionaries(st.text(), json_values, max_size=5)
named_arrays = st.dictionaries(st.text(min_size=1), arrays(), max_size=6)


class TestContainerRoundTrip:
    @given(named=named_arrays, meta=metas)
    @settings(**SETTINGS)
    def test_save_load_is_byte_identical(self, named, meta):
        loaded, loaded_meta = unpack_checkpoint(pack_checkpoint(named, meta))
        assert loaded_meta == meta
        assert list(loaded) == sorted(named)
        for key, source in named.items():
            out = loaded[key]
            assert out.dtype == source.dtype
            assert out.shape == source.shape
            assert out.tobytes() == source.tobytes()
            assert not out.flags.writeable

    @given(named=named_arrays)
    @settings(**SETTINGS)
    def test_packed_buffer_is_frozen(self, named):
        expected = {key: arr.tobytes() for key, arr in named.items()}
        blob = pack_checkpoint(named, {})
        for arr in named.values():
            if arr.size:
                arr[...] = arr + 1
        loaded, _ = unpack_checkpoint(blob)
        assert {k: v.tobytes() for k, v in loaded.items()} == expected

    def test_undescribable_dtypes_are_refused(self):
        with pytest.raises(ValueError):
            pack_checkpoint({"o": np.array([object()])}, {})
        with pytest.raises(ValueError):
            pack_checkpoint(
                {"s": np.zeros(2, dtype=[("a", "<f8"), ("b", "<i4")])}, {}
            )


class TestContainerDamage:
    @given(named=named_arrays, meta=metas, data=st.data())
    @settings(**SETTINGS)
    def test_any_truncation_or_bit_flip_is_rejected(self, named, meta, data):
        blob = pack_checkpoint(named, meta)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        with pytest.raises(CheckpointCorrupt):
            unpack_checkpoint(blob[:cut])
        at = data.draw(st.integers(0, len(blob) - 1), label="flip at")
        bit = data.draw(st.integers(0, 7), label="bit")
        flipped = bytearray(blob)
        flipped[at] ^= 1 << bit
        with pytest.raises(CheckpointCorrupt):
            unpack_checkpoint(bytes(flipped))
        with pytest.raises(CheckpointCorrupt):
            unpack_checkpoint(blob + b"\0")
