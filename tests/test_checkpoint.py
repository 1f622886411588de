"""Checkpoint container: round trips, determinism, corruption handling."""

import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Checkpoint, load_checkpoint
from sgcap.captioner import CaptionerConfig, CaptionerParams
from sgcap.checkpoint import (
    KINDS,
    MAGIC,
    atomic_write_bytes,
    load_captioner,
    load_vse,
    save_captioner,
    save_checkpoint,
    save_vse,
)
from sgcap.features import SPECIALS, FileFormatError, Vocabulary
from sgcap.vse import VseConfig, VseParams

VOCAB = Vocabulary(list(SPECIALS) + ["a", "red", "cube"])


def tiny_captioner(seed=0):
    config = CaptionerConfig(vocab_size=len(VOCAB), d_model=4, embed_dim=4,
                             heads=2, spatial_dim=5, max_len=6)
    return CaptionerParams.init(config, np.random.default_rng(seed))


def tiny_vse(seed=0):
    config = VseConfig(vocab_size=len(VOCAB), spatial_dim=5, embed_dim=4,
                       hidden_dim=4, space_dim=3)
    return VseParams.init(config, np.random.default_rng(seed))


# The array manifest, in order: each parameter dataclass's fields, dotted.
CAPTIONER_MANIFEST = [
    "encoder.spatial_proj.weight", "encoder.spatial_proj.bias",
    "encoder.rel_proj.weight", "encoder.rel_proj.bias",
    "encoder.spatial_path.att.w_q", "encoder.spatial_path.att.w_k", "encoder.spatial_path.att.w_v",
    "encoder.spatial_path.aoa.w_q_info", "encoder.spatial_path.aoa.w_v_info", "encoder.spatial_path.aoa.b_info",
    "encoder.spatial_path.aoa.w_q_gate", "encoder.spatial_path.aoa.w_v_gate", "encoder.spatial_path.aoa.b_gate",
    "encoder.spatial_path.ln_gain", "encoder.spatial_path.ln_bias",
    "encoder.rel_path.att.w_q", "encoder.rel_path.att.w_k", "encoder.rel_path.att.w_v",
    "encoder.rel_path.aoa.w_q_info", "encoder.rel_path.aoa.w_v_info", "encoder.rel_path.aoa.b_info",
    "encoder.rel_path.aoa.w_q_gate", "encoder.rel_path.aoa.w_v_gate", "encoder.rel_path.aoa.b_gate",
    "encoder.rel_path.ln_gain", "encoder.rel_path.ln_bias",
    "decoder.embedding.weight",
    "decoder.lstm.w_i", "decoder.lstm.w_f", "decoder.lstm.w_o", "decoder.lstm.w_c",
    "decoder.lstm.b_i", "decoder.lstm.b_f", "decoder.lstm.b_o", "decoder.lstm.b_c",
    "decoder.init_h.weight", "decoder.init_h.bias", "decoder.init_m.weight", "decoder.init_m.bias",
    "decoder.spatial_att.w_q", "decoder.spatial_att.w_k", "decoder.spatial_att.w_v",
    "decoder.spatial_aoa.w_q_info", "decoder.spatial_aoa.w_v_info", "decoder.spatial_aoa.b_info",
    "decoder.spatial_aoa.w_q_gate", "decoder.spatial_aoa.w_v_gate", "decoder.spatial_aoa.b_gate",
    "decoder.rel_att.w_q", "decoder.rel_att.w_k", "decoder.rel_att.w_v",
    "decoder.rel_aoa.w_q_info", "decoder.rel_aoa.w_v_info", "decoder.rel_aoa.b_info",
    "decoder.rel_aoa.w_q_gate", "decoder.rel_aoa.w_v_gate", "decoder.rel_aoa.b_gate",
    "decoder.out_proj.weight",
]
VSE_MANIFEST = [
    "image_proj.weight", "image_proj.bias", "embedding.weight",
    "lstm.w_i", "lstm.w_f", "lstm.w_o", "lstm.w_c", "lstm.b_i", "lstm.b_f", "lstm.b_o", "lstm.b_c",
    "caption_proj.weight", "caption_proj.bias",
]


def poke(path, name, flat_index, value):
    """Overwrite one float64 of parameter ``name`` in a saved checkpoint:
    ``save_checkpoint`` itself refuses to write NaN or inf."""
    raw = bytearray(path.read_bytes())
    head_len = struct.unpack_from("<Q", raw, len(MAGIC) + 4)[0]
    offset = len(MAGIC) + 12 + head_len
    for entry, shape in json.loads(raw[len(MAGIC) + 12:offset])["manifest"]:
        if entry == name:
            break
        offset += 8 * math.prod(shape)
    struct.pack_into("<d", raw, offset + 8 * flat_index, value)
    path.write_bytes(bytes(raw))


class TestRoundTrip:
    def test_captioner_bit_identical(self, tmp_path):
        params = tiny_captioner()
        path = tmp_path / "model.sgck"
        save_captioner(path, params, VOCAB, seed=42)
        loaded, vocab, seed = load_captioner(path)
        assert seed == 42
        assert vocab.tokens == VOCAB.tokens
        assert loaded.config == params.config
        want = params.param_arrays()
        got = loaded.param_arrays()
        assert list(got) == list(want)  # manifest order preserved
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_vse_bit_identical(self, tmp_path):
        params = tiny_vse()
        path = tmp_path / "vse.sgck"
        save_vse(path, params, VOCAB, seed=7)
        loaded, vocab, seed = load_vse(path)
        assert seed == 7
        assert vocab.tokens == VOCAB.tokens
        assert loaded.config == params.config
        for name, arr in params.param_arrays().items():
            assert loaded.param_arrays()[name].tobytes() == arr.tobytes()

    def test_save_twice_is_byte_identical(self, tmp_path):
        params = tiny_captioner()
        a, b = tmp_path / "a.sgck", tmp_path / "b.sgck"
        save_captioner(a, params, VOCAB, seed=1)
        save_captioner(b, params, VOCAB, seed=1)
        assert a.read_bytes() == b.read_bytes()

    def test_double_round_trip_stable(self, tmp_path):
        params = tiny_vse(3)
        a, b = tmp_path / "a.sgck", tmp_path / "b.sgck"
        save_vse(a, params, VOCAB, seed=0)
        loaded, vocab, seed = load_vse(a)
        save_vse(b, loaded, vocab, seed)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        path = tmp_path / "m.sgck"
        save_captioner(path, tiny_captioner(), VOCAB, seed=0)
        ck = load_checkpoint(path)
        name = next(iter(ck.arrays))
        ck.arrays[name][...] = 0.0  # must not raise (frombuffer is read-only)

    def test_generic_container_preserves_metadata(self, tmp_path):
        path = tmp_path / "g.sgck"
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        save_checkpoint(path, "vse", {"embed_dim": 4}, arrays, 9, VOCAB.tokens)
        ck = load_checkpoint(path)
        assert isinstance(ck, Checkpoint)
        assert ck.kind == "vse"
        assert ck.config == {"embed_dim": 4}
        assert ck.seed == 9
        assert ck.vocab_tokens == VOCAB.tokens
        np.testing.assert_array_equal(ck.arrays["w"], arrays["w"])


class TestManifestLayout:
    """The checkpoint layout is the named-parameter order; it must not move."""

    @pytest.mark.parametrize("build,manifest", [(tiny_captioner, CAPTIONER_MANIFEST), (tiny_vse, VSE_MANIFEST)],
                             ids=["captioner", "vse"])
    def test_names_in_order(self, build, manifest):
        params = build()
        assert [n for n, _ in params.named_params()] == manifest
        assert list(params.param_arrays()) == manifest
        assert params.weights() == tuple(t for _, t in params.named_params())


class TestErrors:
    def test_unknown_kind_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            save_checkpoint(tmp_path / "x.sgck", "resnet", {}, {}, 0, VOCAB.tokens)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.sgck"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(FileFormatError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.sgck"
        save_captioner(path, tiny_captioner(), VOCAB, seed=0)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.sgck"
        save_captioner(path, tiny_captioner(), VOCAB, seed=0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FileFormatError, match="payload|trailing"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "x.sgck"
        save_captioner(path, tiny_captioner(), VOCAB, seed=0)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FileFormatError, match="trailing"):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "x.sgck"
        save_captioner(path, tiny_captioner(), VOCAB, seed=0)
        raw = bytearray(path.read_bytes())
        raw[16] = ord("!")  # first header byte: breaks the JSON object
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="header"):
            load_checkpoint(path)

    def test_kind_mismatch_on_typed_load(self, tmp_path):
        path = tmp_path / "x.sgck"
        save_vse(path, tiny_vse(), VOCAB, seed=0)
        with pytest.raises(FileFormatError, match="captioner"):
            load_captioner(path)
        path2 = tmp_path / "y.sgck"
        save_captioner(path2, tiny_captioner(), VOCAB, seed=0)
        with pytest.raises(FileFormatError, match="vse"):
            load_vse(path2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.sgck")


def write_with_header(path, header, payload=b""):
    """A checkpoint file with the given header (an object, or raw bytes) and payload."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<IQ", 1, len(head)) + head + payload)


def tiny_captioner_header(**fields):
    params = tiny_captioner()
    header = {
        "kind": "captioner", "config": params.config.to_dict(), "seed": 0,
        "vocab": VOCAB.tokens,
        "manifest": [[n, list(a.shape)] for n, a in params.param_arrays().items()],
    }
    header.update(fields)
    return header, b"".join(a.astype("<f8").tobytes() for a in params.param_arrays().values())


class TestLoadBuildsNoThrowawayModel:
    def test_captioner_arrays_equal_saved(self, tmp_path):
        params = tiny_captioner(5)
        save_captioner(tmp_path / "c.sgck", params, VOCAB, seed=0)
        loaded, _, _ = load_captioner(tmp_path / "c.sgck")
        got = loaded.param_arrays()
        assert list(got) == list(params.param_arrays())
        for name, arr in params.param_arrays().items():
            assert np.array_equal(got[name], arr), name

    def test_vse_arrays_equal_saved(self, tmp_path):
        params = tiny_vse(5)
        save_vse(tmp_path / "v.sgck", params, VOCAB, seed=0)
        loaded, _, _ = load_vse(tmp_path / "v.sgck")
        for name, arr in params.param_arrays().items():
            assert np.array_equal(loaded.param_arrays()[name], arr), name

    def test_missing_array_raises(self, tmp_path):
        params = tiny_captioner()
        arrays = params.param_arrays()
        arrays.pop("decoder.out_proj.weight")
        save_checkpoint(tmp_path / "c.sgck", "captioner", params.config.to_dict(), arrays, 0, VOCAB.tokens)
        with pytest.raises(FileFormatError, match="manifest mismatch"):
            load_captioner(tmp_path / "c.sgck")

    def test_shape_that_does_not_fit_the_config_raises(self, tmp_path):
        params = tiny_captioner()
        config = dataclasses.replace(params.config, d_model=6, heads=3)
        save_checkpoint(tmp_path / "c.sgck", "captioner", config.to_dict(), params.param_arrays(), 0,
                        VOCAB.tokens)
        with pytest.raises(FileFormatError, match="shape"):
            load_captioner(tmp_path / "c.sgck")


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_captioner_array_named(self, tmp_path, bad):
        params = tiny_captioner()
        arrays = params.param_arrays()
        save_checkpoint(tmp_path / "c.sgck", "captioner", params.config.to_dict(), arrays, 0, VOCAB.tokens)
        poke(tmp_path / "c.sgck", "decoder.out_proj.weight",
             np.ravel_multi_index((1, 2), arrays["decoder.out_proj.weight"].shape), bad)
        for loader in (load_checkpoint, load_captioner):
            with pytest.raises(FileFormatError, match="'decoder.out_proj.weight' holds NaN or inf"):
                loader(tmp_path / "c.sgck")

    def test_vse_array_named(self, tmp_path):
        params = tiny_vse()
        arrays = params.param_arrays()
        name = list(arrays)[-1]
        save_checkpoint(tmp_path / "v.sgck", "vse", params.config.to_dict(), arrays, 0, VOCAB.tokens)
        poke(tmp_path / "v.sgck", name, 0, np.nan)
        with pytest.raises(FileFormatError, match=name):
            load_vse(tmp_path / "v.sgck")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_with_the_loaders_message(self, tmp_path, bad):
        params = tiny_captioner()
        params.decoder.out_proj.weight.data[1, 2] = bad
        with pytest.raises(ValueError, match="'decoder.out_proj.weight' holds NaN or inf"):
            save_captioner(tmp_path / "c.sgck", params, VOCAB, 0)
        assert not (tmp_path / "c.sgck").exists()


class TestHeaderValidation:
    @pytest.mark.parametrize("field,value", [
        ("kind", ["captioner"]), ("config", [1]), ("seed", "0"), ("seed", True), ("seed", 1.5),
        ("vocab", "abc"), ("vocab", [1, 2]), ("manifest", 5), ("manifest", [["w", [-1]]]),
        ("manifest", [["w", [2]], ["w", [2]]]), ("manifest", [["w", [2.0]]]), ("manifest", [[1, [2]]]),
    ])
    def test_bad_field_type_is_a_file_format_error(self, tmp_path, field, value):
        header, payload = tiny_captioner_header(**{field: value})
        write_with_header(tmp_path / "x.sgck", header, payload)
        with pytest.raises(FileFormatError, match="header"):
            load_checkpoint(tmp_path / "x.sgck")

    @pytest.mark.parametrize("header", [[], 5, "captioner", None])
    def test_header_that_is_not_an_object(self, tmp_path, header):
        write_with_header(tmp_path / "x.sgck", header)
        with pytest.raises(FileFormatError, match="JSON object"):
            load_checkpoint(tmp_path / "x.sgck")

    @pytest.mark.parametrize("config", [
        {"bogus": 1}, {}, {"vocab_size": 7, "d_model": "4"}, {"vocab_size": 7, "heads": 0},
        {"vocab_size": 7, "d_model": 4, "embed_dim": 4, "heads": 2, "spatial_dim": 5, "max_len": -1},
    ])
    def test_config_that_fits_no_model_is_a_file_format_error(self, tmp_path, config):
        header, payload = tiny_captioner_header(config=config)
        write_with_header(tmp_path / "x.sgck", header, payload)
        assert load_checkpoint(tmp_path / "x.sgck").config == config  # the container is sound
        with pytest.raises(FileFormatError):
            load_captioner(tmp_path / "x.sgck")

    def test_vocabulary_without_specials_is_a_file_format_error(self, tmp_path):
        header, payload = tiny_captioner_header(vocab=["a"])
        write_with_header(tmp_path / "x.sgck", header, payload)
        with pytest.raises(FileFormatError, match="vocabulary"):
            load_captioner(tmp_path / "x.sgck")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
SMALL = st.integers(-1, 9) | JSON
FUZZ_HEADERS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(KINDS) | JSON,
    "config": st.fixed_dictionaries({}, optional={
        name: SMALL for name in ("vocab_size", "d_model", "embed_dim", "heads", "spatial_dim",
                                 "max_len", "hidden_dim", "space_dim", "margin", "triplet_mode")
    }) | JSON,
    "seed": SMALL,
    "vocab": st.just(VOCAB.tokens) | st.lists(st.text(max_size=3), max_size=5) | JSON,
    "manifest": st.lists(st.tuples(st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=2))
                         .map(list), max_size=3) | JSON,
}) | JSON


def loads_or_rejects(path, loader) -> None:
    """The loader returns a result or raises FileFormatError, nothing else."""
    try:
        loader(path)
    except FileFormatError:
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzz:
    @given(raw=st.binary(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes(self, fuzz_dir, raw):
        (fuzz_dir / "raw.sgck").write_bytes(raw)
        loads_or_rejects(fuzz_dir / "raw.sgck", load_checkpoint)

    @given(raw=st.binary(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_any_header_bytes(self, fuzz_dir, raw):
        write_with_header(fuzz_dir / "head.sgck", raw)
        loads_or_rejects(fuzz_dir / "head.sgck", load_checkpoint)

    @given(header=FUZZ_HEADERS, payload=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_json_header(self, fuzz_dir, header, payload):
        path = fuzz_dir / "json.sgck"
        write_with_header(path, header, payload)
        for loader in (load_checkpoint, load_captioner, load_vse):
            loads_or_rejects(path, loader)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_captioner_file(self, fuzz_dir, data):
        header, payload = tiny_captioner_header()
        raw = bytearray(MAGIC + struct.pack("<IQ", 1, len(json.dumps(header)))
                        + json.dumps(header).encode("utf-8") + payload)
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, len(raw)))
        (fuzz_dir / "bad.sgck").write_bytes(bytes(raw[:cut]))
        loads_or_rejects(fuzz_dir / "bad.sgck", load_captioner)


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
        assert (tmp_path / "out.bin").read_bytes() == b"payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_magic_is_first_bytes(self, tmp_path):
        path = tmp_path / "m.sgck"
        save_captioner(path, tiny_captioner(), VOCAB, seed=0)
        assert path.read_bytes()[:4] == MAGIC
