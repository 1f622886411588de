"""Vocabulary, word vectors, triplets, binary feature files, datasets."""

import gc
import json
import string
import warnings
from pathlib import Path, PurePath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    embed_triplet,
    ref_load_dataset,
    ref_load_word_vectors,
    ref_relationship_matrix_lstm,
    ref_read_jsonl,
    ref_tokenize,
    ref_tokenize_regex,
)
from sgcap import nn
from sgcap.autodiff import Tape
from sgcap.captioner import CaptionerConfig
from sgcap.features import (
    BOS,
    EOS,
    MAX_TRIPLETS,
    PAD,
    TRIPLET_MODES,
    UNK,
    Dataset,
    _RECORD_FIELDS,
    FeatureBundle,
    FileFormatError,
    ImageRecord,
    RelationshipTriplet,
    Vocabulary,
    WordVectorTable,
    build_relationship_matrix,
    build_vocabulary,
    coverage_stats,
    load_dataset,
    load_sgaf,
    load_word_vectors,
    make_triplet_lstm,
    read_jsonl,
    select_top_triplets,
    tokenize,
    vocabulary_of_tokens,
    write_sgaf,
)


class TestTokenize:
    def test_lowercase_punct_whitespace(self):
        assert tokenize("A man, riding; a RED horse!") == ["a", "man", "riding", "a", "red", "horse"]

    def test_empty(self):
        assert tokenize("   ") == []

    # separators str.split() splits on (\x1c-\x1f, \x85, U+3000), letters whose
    # lowercase changes length (İ, ß), and punctuation outside ASCII, which stays
    @given(st.text(st.one_of(
        st.characters(),
        st.sampled_from(list("\x1c\x1d\x1e\x1f\x85\u3000\u0130\u00df\u201c\u2014\u00bf\uff01.,;'\"!?-")),
    )))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_on_any_text(self, text):
        assert tokenize(text) == ref_tokenize(text)

    @pytest.mark.parametrize("text", ["\u212a", "\u212aELVIN.", "\u0130stanbul!", "Stra\u00dfe,", "...", "A.B c"])
    def test_letters_whose_lowercase_changes_script(self, text):
        # the Kelvin sign lowers to ASCII k; dotted I and sharp s stay non-ASCII
        assert tokenize(text) == ref_tokenize_regex(text)

    @given(st.one_of(
        st.text(st.characters(max_codepoint=127)),
        st.text(st.sampled_from(list(string.punctuation + " \t"))),
        st.text(st.one_of(st.characters(), st.sampled_from(list("\u212a\u0130\u00df.,!? \x1c\x85")))),
    ))
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_equals_regex_form_on_ascii_punctuation_and_other_text(self, text):
        assert tokenize(text) == ref_tokenize_regex(text)


class TestVocabulary:
    def test_special_ids_pinned(self):
        v = build_vocabulary(["a b c"], min_count=1)
        assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)
        assert v.id_to_token(0) == "<pad>"
        assert v.id_to_token(1) == "<bos>"
        assert v.id_to_token(2) == "<eos>"
        assert v.id_to_token(3) == "<unk>"

    def test_threshold_boundary(self):
        # a word seen 4 times is dropped; seen 5 times it is kept
        caps = ["four four four four", "five five five five five"]
        v = build_vocabulary(caps, min_count=5)
        assert "five" in v
        assert "four" not in v
        assert v.token_to_id("four") == UNK

    def test_order_count_desc_then_lexicographic(self):
        v = build_vocabulary(["b b c c a", "a"], min_count=1)
        # a and b and c each occur twice; ties sort lexicographically
        assert v.tokens[4:] == ["a", "b", "c"]

    def test_deterministic_across_input_order(self):
        caps = ["red circle above square", "blue square beside circle"]
        v1 = build_vocabulary(caps, min_count=1)
        v2 = build_vocabulary(list(reversed(caps)), min_count=1)
        assert v1.tokens == v2.tokens

    @pytest.mark.parametrize("min_count", [1, 2])
    def test_token_form_equals_string_form(self, min_count):
        caps = ["A red cube.", "a RED sphere", "the cube, the sphere!", ""]
        tokens = [tokenize(c) for c in caps]
        v = vocabulary_of_tokens(tokens, min_count)
        assert v.tokens == build_vocabulary(caps, min_count).tokens and v.min_count == min_count
        assert [v.encode_tokens(t) for t in tokens] == [v.encode_caption(c) for c in caps]

    def test_token_form_refuses_min_count_below_1(self):
        with pytest.raises(ValueError, match="min_count"):
            vocabulary_of_tokens([["a"]], 0)

    def test_encode_decode_round_trip(self):
        v = build_vocabulary(["a red circle above the square"], min_count=1)
        text = "a red circle above the square"
        ids = v.encode_caption(text)
        assert ids[0] == BOS and ids[-1] == EOS
        assert v.decode_tokens(ids) == text

    def test_oov_encodes_to_unk(self):
        v = build_vocabulary(["known words only"], min_count=1)
        ids = v.encode_caption("known zebra")
        assert ids == [BOS, v.token_to_id("known"), UNK, EOS]

    def test_decode_stops_at_eos_and_skips_pad(self):
        v = build_vocabulary(["x y"], min_count=1)
        x = v.token_to_id("x")
        y = v.token_to_id("y")
        assert v.decode_tokens([PAD, BOS, x, EOS, y]) == "x"

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocabulary(["some words here some"], min_count=1)
        p = tmp_path / "vocab.json"
        v.save(p)
        v2 = Vocabulary.load(p)
        assert v2.tokens == v.tokens
        assert v2.min_count == v.min_count

    def test_min_count_validated(self):
        with pytest.raises(ValueError):
            build_vocabulary(["a"], min_count=0)

    @given(st.lists(st.sampled_from(["cat", "dog", "sat", "mat", "the"]), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, words):
        text = " ".join(words)
        v = build_vocabulary([text], min_count=1)
        assert v.decode_tokens(v.encode_caption(text)) == text


class TestWordVectors:
    def _write(self, tmp_path, lines):
        p = tmp_path / "wv.txt"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_load_and_lookup(self, tmp_path):
        vec = " ".join(str(i / 100) for i in range(300))
        p = self._write(tmp_path, [f"horse {vec}"])
        table = load_word_vectors(p)
        assert "horse" in table
        np.testing.assert_allclose(table.get("horse"), np.arange(300) / 100)

    def test_oov_is_zero_vector(self, tmp_path):
        vec = " ".join(["0.5"] * 300)
        table = load_word_vectors(self._write(tmp_path, [f"a {vec}"]))
        np.testing.assert_array_equal(table.get("zebra"), np.zeros(300))

    def test_wrong_width_names_line(self, tmp_path):
        good = "ok " + " ".join(["0.1"] * 300)
        bad = "bad 0.1 0.2"
        p = self._write(tmp_path, [good, bad])
        with pytest.raises(FileFormatError, match=r":2:"):
            load_word_vectors(p)

    def test_non_numeric_names_line(self, tmp_path):
        bad = "bad " + " ".join(["x"] * 300)
        p = self._write(tmp_path, [bad])
        with pytest.raises(FileFormatError, match=r":1:"):
            load_word_vectors(p)


GOOD_VALUES = " ".join(["0.25"] * 300)

# one formatting per value, chosen at random: the bulk parse must read
# each exactly as float() does
FORMATS = (repr, "{:.6f}".format, "{:.17e}".format, "{:.3E}".format, "{:g}".format)
SEPARATORS = (" ", "\t", "   ", " \t ")


@st.composite
def word_vector_files(draw):
    """Bytes of a valid word-vector file with varied formatting."""
    words = draw(st.lists(st.sampled_from(["a", "horse", "on", "façade", "x1"]), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # short formats round the largest floats up to inf, hence the bound
    specials = draw(st.lists(st.floats(-1e300, 1e300), max_size=6))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for word in words:
        values = rng.normal(0.0, 10.0 ** rng.integers(-8, 8), size=300)
        values[rng.integers(0, 300, size=len(specials))] = specials
        values[rng.integers(0, 300)] = -0.0
        seps = rng.integers(0, len(SEPARATORS), size=300)
        forms = rng.integers(0, len(FORMATS), size=300)
        line = draw(st.sampled_from(["", " ", "\t"])) + word + "".join(
            SEPARATORS[s] + FORMATS[f](float(v)) for s, f, v in zip(seps, forms, values)
        ) + draw(st.sampled_from(["", " ", "  \t"]))
        lines.extend([""] * draw(st.integers(0, 2)) + [line])
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return text.encode("utf-8")


def _bad_file(tmp_path, bad: bytes, at: int) -> Path:
    """Good lines, a blank line, and ``bad`` as line ``at`` (1-based)."""
    good = [b"w%d %s" % (i, GOOD_VALUES.encode()) for i in range(5)]
    good[1] = b""
    lines = good[:at - 1] + [bad] + good[at - 1:]
    p = tmp_path / "wv.txt"
    p.write_bytes(b"\n".join(lines) + b"\n")
    return p


def _values(*head) -> bytes:
    return " ".join(list(head) + ["0.5"] * (300 - len(head))).encode()


class TestWordVectorParser:
    """The bulk parse against the per-value float() reference."""

    @given(raw=word_vector_files())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_reference(self, tmp_path_factory, raw):
        p = tmp_path_factory.mktemp("wv") / "wv.txt"
        p.write_bytes(raw)
        got, want = load_word_vectors(p), ref_load_word_vectors(p)
        assert len(got) == len(want)
        for word, vec in want._vectors.items():
            assert word in got
            row = got.get(word)
            assert row.dtype == np.float64
            assert row.tobytes() == vec.tobytes(), word  # also tells -0.0 from 0.0

    def test_repeated_word_keeps_last_vector(self, tmp_path):
        p = tmp_path / "wv.txt"
        p.write_text(f"a {GOOD_VALUES}\nb {GOOD_VALUES}\na " + " ".join(["-1.5"] * 300) + "\n")
        table = load_word_vectors(p)
        assert len(table) == 2
        np.testing.assert_array_equal(table.get("a"), np.full(300, -1.5))
        np.testing.assert_array_equal(table.get("b"), np.full(300, 0.25))

    @pytest.mark.parametrize("text", ["", "\n\n", "  \t\n\r\n"])
    def test_blank_file_is_an_empty_table(self, tmp_path, text):
        p = tmp_path / "wv.txt"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(load_word_vectors(p)) == 0

    @pytest.mark.parametrize("at", [1, 3, 6])
    @pytest.mark.parametrize("bad, message", [
        pytest.param(b"lonely", "expected word \\+ 300 values, got 1 fields", id="word-only"),
        pytest.param(b"lonely   ", "expected word \\+ 300 values, got 1 fields", id="word-and-spaces"),
        pytest.param(b"w " + b" ".join([b"0.5"] * 299), "expected word \\+ 300 values, got 300 fields",
                     id="299-values"),
        pytest.param(b"w " + b" ".join([b"0.5"] * 301), "expected word \\+ 300 values, got 302 fields",
                     id="301-values"),
        pytest.param(b"w " + _values() + b" #c", "non-numeric value", id="hash-comment"),
        pytest.param(b"w " + _values("x"), "non-numeric value", id="letter"),
        pytest.param(b"w " + _values("0.1", "1_000"), "non-numeric value", id="underscore"),
        pytest.param(b"w " + _values("\u0661"), "non-numeric value", id="arabic-digit"),
        pytest.param(b"w " + _values("0.1\r0.2"), "non-numeric value", id="lone-cr"),
        pytest.param(b"w " + _values("nan"), "non-finite value", id="nan"),
        pytest.param(b"w " + _values("0.5", "-inf"), "non-finite value", id="-inf"),
        pytest.param(b"w " + _values("1e999"), "non-finite value", id="overflow"),
        pytest.param(b"w\xff " + _values(), "not UTF-8", id="not-utf8"),
    ])
    def test_bad_line_is_named(self, tmp_path, bad, at, message):
        p = _bad_file(tmp_path, bad, at)
        with pytest.raises(FileFormatError, match=f"wv.txt:{at}: {message}"):
            load_word_vectors(p)

    def test_every_line_short_names_the_first(self, tmp_path):
        p = tmp_path / "wv.txt"
        p.write_text("\n".join(f"w{i} " + " ".join(["0.5"] * 299) for i in range(3)) + "\n")
        with pytest.raises(FileFormatError, match="wv.txt:1: expected word \\+ 300 values, got 300"):
            load_word_vectors(p)

    def test_first_of_two_bad_lines_is_named(self, tmp_path):
        p = tmp_path / "wv.txt"
        p.write_bytes(b"\n".join([b"a " + _values(), b"b " + _values("inf"), b"c 0.5"]) + b"\n")
        with pytest.raises(FileFormatError, match="wv.txt:2: non-finite value"):
            load_word_vectors(p)


class TestSgafFormat:
    def test_round_trip_exact_for_float32(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(6, 5)).astype(np.float32)
        p = tmp_path / "feat.sgaf"
        write_sgaf(p, m)
        back = load_sgaf(p)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, m.astype(np.float64))

    def test_bad_magic_names_file(self, tmp_path):
        p = tmp_path / "junk.sgaf"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FileFormatError, match="junk.sgaf"):
            load_sgaf(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.sgaf"
        write_sgaf(p, np.ones((2, 3), dtype=np.float32))
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FileFormatError, match="short.sgaf"):
            load_sgaf(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_file(self, tmp_path, bad):
        m = np.ones((3, 4), dtype=np.float32)
        m[2, 1] = bad
        p = tmp_path / "nan.sgaf"
        write_sgaf(p, m)
        with pytest.raises(FileFormatError, match="nan.sgaf: feature matrix holds NaN or inf"):
            load_sgaf(p)

    @pytest.mark.parametrize("shape", [(0, 64), (3, 0)])
    def test_empty_matrix_names_file(self, tmp_path, shape):
        p = tmp_path / "empty.sgaf"
        write_sgaf(p, np.zeros(shape, dtype=np.float32))
        with pytest.raises(FileFormatError, match=f"empty.sgaf: empty {shape[0]}x{shape[1]} feature matrix"):
            load_sgaf(p)

    def test_wrong_version(self, tmp_path):
        import struct

        p = tmp_path / "v9.sgaf"
        p.write_bytes(b"SGAF" + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(FileFormatError, match="version"):
            load_sgaf(p)


class TestTripletSelection:
    def test_top_k_by_confidence_desc(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 1, size=30)
        triplets = [RelationshipTriplet(f"s{i}", "p", f"o{i}", s) for i, s in enumerate(scores)]
        top = select_top_triplets(triplets, 20)
        assert len(top) == 20
        expected = sorted(scores, reverse=True)[:20]
        np.testing.assert_allclose([t.score for t in top], expected)

    def test_stable_tie_break_keeps_input_order(self):
        triplets = [
            RelationshipTriplet("a", "p", "x", 0.5),
            RelationshipTriplet("b", "p", "x", 0.9),
            RelationshipTriplet("c", "p", "x", 0.5),
        ]
        top = select_top_triplets(triplets, 3)
        assert [t.subject for t in top] == ["b", "a", "c"]

    def test_fewer_than_k_returns_all(self):
        triplets = [RelationshipTriplet("a", "p", "b", 0.1)]
        assert select_top_triplets(triplets, 20) == triplets


def _toy_table(words, seed=0):
    rng = np.random.default_rng(seed)
    return WordVectorTable({w: rng.normal(size=300) for w in words})


class TestTripletEmbedding:
    def test_mean_is_exact_average(self):
        table = _toy_table(["man", "riding", "horse"])
        t = RelationshipTriplet("man", "riding", "horse", 1.0)
        got = embed_triplet(t, table, "mean")
        expected = (table.get("man") + table.get("riding") + table.get("horse")) / 3.0
        np.testing.assert_array_equal(got, expected)

    def test_all_oov_mean_is_zero(self):
        table = _toy_table(["other"])
        t = RelationshipTriplet("x", "y", "z", 1.0)
        np.testing.assert_array_equal(embed_triplet(t, table, "mean"), np.zeros(300))

    def test_lstm_mode_deterministic_and_shaped(self):
        table = _toy_table(["man", "riding", "horse"])
        t = RelationshipTriplet("man", "riding", "horse", 1.0)
        a = embed_triplet(t, table, "lstm")
        b = embed_triplet(t, table, "lstm")
        assert a.shape == (300,)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, embed_triplet(t, table, "mean"))

    def test_lstm_mode_order_sensitive(self):
        table = _toy_table(["man", "riding", "horse"])
        params = make_triplet_lstm(0)
        a = embed_triplet(RelationshipTriplet("man", "riding", "horse", 1.0), table, "lstm", params)
        b = embed_triplet(RelationshipTriplet("horse", "riding", "man", 1.0), table, "lstm", params)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["mean", "lstm"])
    def test_word_looked_up_by_its_tokens(self, mode):
        # a word not in the table as written gets the mean vector of its
        # tokenize tokens that are; every other word keeps its own vector
        table = _toy_table(["box", "on", "traffic", "light"])
        exact = WordVectorTable({
            "box": table.get("box"), "on": table.get("on"),
            "traffic light": (table.get("traffic") + table.get("light")) / 2,
        })
        got = embed_triplet(RelationshipTriplet("Box", "on", "box.", 1.0), table, mode)
        want = embed_triplet(RelationshipTriplet("box", "on", "box", 1.0), exact, mode)
        np.testing.assert_array_equal(got, want)
        got = embed_triplet(RelationshipTriplet("traffic light", "on", "Box", 1.0), table, mode)
        want = embed_triplet(RelationshipTriplet("traffic light", "on", "box", 1.0), exact, mode)
        np.testing.assert_array_equal(got, want)
        assert np.any(got != embed_triplet(RelationshipTriplet("x", "on", "box", 1.0), table, mode))

    def test_unknown_mode(self):
        table = _toy_table(["a"])
        with pytest.raises(ValueError):
            embed_triplet(RelationshipTriplet("a", "a", "a", 1.0), table, "max")


class TestTripletModes:
    def test_one_list_of_modes(self):
        assert TRIPLET_MODES == ("mean", "lstm")
        for mode in TRIPLET_MODES:
            assert CaptionerConfig(vocab_size=9, triplet_mode=mode).triplet_mode == mode

    @pytest.mark.parametrize("make", [
        lambda: CaptionerConfig(vocab_size=9, triplet_mode="bogus"),
        lambda: embed_triplet(RelationshipTriplet("a", "a", "a", 1.0), _toy_table(["a"]), "bogus"),
    ], ids=["config", "embed_triplet"])
    def test_unknown_mode_names_the_allowed_ones(self, make):
        with pytest.raises(ValueError, match="'bogus'; expected one of mean, lstm"):
            make()


class TestTripletAggregator:
    def test_matrix_draws_the_aggregator_at_most_once(self, monkeypatch):
        words = ["man", "riding", "horse", "dog"]
        table = _toy_table(words)
        triplets = [RelationshipTriplet(words[i % 4], words[(i + 1) % 4], words[(i + 2) % 4], 1.0 - i / 40)
                    for i in range(MAX_TRIPLETS)]
        fresh = nn.LstmParams.init(np.random.default_rng(0), 300, 300)
        draws = []
        init = nn.LstmParams.init

        def counting_init(*args, **kwargs):
            draws.append(args)
            return init(*args, **kwargs)

        monkeypatch.setattr(nn.LstmParams, "init", counting_init)
        m, mask = build_relationship_matrix(triplets, table, mode="lstm")
        assert len(draws) <= 1 and mask.all()
        want, _ = build_relationship_matrix(triplets, table, mode="lstm", lstm_params=fresh)
        np.testing.assert_array_equal(m, want)
        m, _ = build_relationship_matrix(triplets, table, mode="mean")
        for row, t in zip(m, select_top_triplets(triplets)):
            vs = [table.get(w) for w in t.words()]
            np.testing.assert_array_equal(row, (vs[0] + vs[1] + vs[2]) / 3.0)


class TestRelationshipMatrix:
    def test_shape_and_mask(self):
        table = _toy_table(["man", "riding", "horse"])
        triplets = [RelationshipTriplet("man", "riding", "horse", 0.9)] * 3
        m, mask = build_relationship_matrix(triplets, table)
        assert m.shape == (MAX_TRIPLETS, 300)
        assert mask.shape == (MAX_TRIPLETS,)
        assert mask[:3].all() and not mask[3:].any()

    def test_row_zero_iff_mask_false(self):
        table = _toy_table(["man", "riding", "horse"])
        triplets = [RelationshipTriplet("man", "riding", "horse", 0.9)]
        m, mask = build_relationship_matrix(triplets, table)
        row_is_zero = ~m.any(axis=1)
        np.testing.assert_array_equal(row_is_zero, ~mask)

    def test_rows_in_confidence_order(self):
        table = _toy_table(["a", "b", "p"])
        triplets = [
            RelationshipTriplet("a", "p", "b", 0.2),
            RelationshipTriplet("b", "p", "a", 0.8),
        ]
        m, _ = build_relationship_matrix(triplets, table)
        np.testing.assert_array_equal(m[0], embed_triplet(triplets[1], table))
        np.testing.assert_array_equal(m[1], embed_triplet(triplets[0], table))


class TestFeatureBundle:
    def test_validates_relationship_shape(self):
        with pytest.raises(ValueError):
            FeatureBundle("x", np.zeros((3, 8)), np.zeros((5, 300)), np.zeros(5, dtype=bool))

    def test_accepts_valid(self):
        b = FeatureBundle("x", np.zeros((3, 8)), np.zeros((20, 300)), np.zeros(20, dtype=bool))
        assert b.spatial.shape == (3, 8)


class TestDataset:
    def _write_dataset(self, tmp_path, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
        return p

    def test_load_and_split(self, tmp_path):
        lines = [
            {
                "id": "img0",
                "split": "train",
                "captions": ["a man riding a horse"],
                "triplets": [{"s": "man", "p": "riding", "o": "horse", "score": 0.9}],
                "feature_file": "feats/img0.sgaf",
            },
            {
                "id": "img1",
                "split": "val",
                "captions": ["a dog"],
                "triplets": [],
                "feature_file": "feats/img1.sgaf",
            },
        ]
        p = self._write_dataset(tmp_path, lines)
        ds = load_dataset(p)
        assert len(ds) == 2
        assert [r.image_id for r in ds.split("train")] == ["img0"]
        assert ds.records[0].feature_file == tmp_path / "feats/img0.sgaf"
        assert ds.records[0].triplets[0].predicate == "riding"

    def test_absolute_feature_file_kept(self, tmp_path):
        absolute = tmp_path / "elsewhere" / "f.sgaf"
        p = self._write_dataset(tmp_path, [{**GOOD_RECORD, "feature_file": str(absolute)}])
        assert load_dataset(p).records[0].feature_file == absolute

    def test_repeated_id_names_both_lines(self, tmp_path):
        p = self._write_dataset(tmp_path, [GOOD_RECORD, {**GOOD_RECORD, "id": "y"}, GOOD_RECORD])
        with pytest.raises(FileFormatError, match=r":3: duplicate id 'x' \(first on line 1\)"):
            load_dataset(p)

    def test_missing_key_names_line(self, tmp_path):
        p = self._write_dataset(tmp_path, [{"id": "x", "split": "train"}])
        with pytest.raises(FileFormatError, match=r":1:"):
            load_dataset(p)

    def test_bad_split_rejected(self, tmp_path):
        p = self._write_dataset(
            tmp_path,
            [{"id": "x", "split": "dev", "captions": [], "triplets": [], "feature_file": "f"}],
        )
        with pytest.raises(FileFormatError, match="split"):
            load_dataset(p)

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "x"\n')
        with pytest.raises(FileFormatError, match=r":1:"):
            load_dataset(p)


    @pytest.mark.parametrize("field,value", [
        ("triplets", 5),
        ("triplets", [1]),
        ("triplets", [{"p": "on", "o": "mat", "score": 0.5}]),
        ("triplets", [{"s": "cat", "p": "on", "o": "mat", "score": "high"}]),
        ("feature_file", 3),
        ("captions", "a b"),
    ])
    def test_mistyped_field_names_line(self, tmp_path, field, value):
        p = self._write_dataset(tmp_path, [GOOD_RECORD, {**GOOD_RECORD, field: value}])
        with pytest.raises(FileFormatError, match=rf":2: {field} must be"):
            load_dataset(p)

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_triplet_score_names_line(self, tmp_path, score):
        # json.loads reads each of these as a number: nan, inf, -inf, inf and an int no float holds
        bad = json.dumps({**GOOD_RECORD, "id": "y"}).replace('"score": 0.5', f'"score": {score}')
        p = self._write_dataset(tmp_path, [GOOD_RECORD])
        p.write_text(p.read_text() + bad + "\n")
        with pytest.raises(FileFormatError, match=r":2: triplets must be .*finite number"):
            load_dataset(p)

    def test_record_that_is_not_an_object_names_line(self, tmp_path):
        p = self._write_dataset(tmp_path, ["id split captions triplets feature_file"])
        with pytest.raises(FileFormatError, match=r":1: record is not a JSON object"):
            load_dataset(p)

    def test_undecodable_line_names_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_bytes(json.dumps(GOOD_RECORD).encode() + b"\n" + b'{"id": "\xff"}\n')
        with pytest.raises(FileFormatError, match=r":2: not UTF-8"):
            load_dataset(p)


GOOD_RECORD = {
    "id": "x", "split": "train", "captions": ["a cat on a mat"],
    "triplets": [{"s": "cat", "p": "on", "o": "mat", "score": 0.5}], "feature_file": "f.sgaf",
}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
FUZZ_TRIPLETS = st.lists(st.fixed_dictionaries({}, optional={
    k: st.text(max_size=3) | JSON for k in ("s", "p", "o")} | {"score": st.floats() | JSON}) | JSON,
    max_size=2)
FUZZ_RECORDS = st.fixed_dictionaries({}, optional={
    "id": JSON,
    "split": st.sampled_from(["train", "val", "test"]) | JSON,
    "captions": st.lists(st.text(max_size=6), max_size=2) | JSON,
    "triplets": FUZZ_TRIPLETS | JSON,
    "feature_file": st.text(max_size=6) | JSON,
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
    def test_sgaf_any_bytes(self, fuzz_dir, raw):
        (fuzz_dir / "raw.sgaf").write_bytes(raw)
        loads_or_rejects(fuzz_dir / "raw.sgaf", load_sgaf)

    @given(version=st.integers(0, 2), rows=st.integers(0, 4) | st.integers(0, 2**32 - 1),
           cols=st.integers(0, 4) | st.integers(0, 2**32 - 1), payload=st.binary(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_sgaf_any_shape_and_payload(self, fuzz_dir, version, rows, cols, payload):
        import struct

        path = fuzz_dir / "shape.sgaf"
        path.write_bytes(b"SGAF" + struct.pack("<III", version, rows, cols) + payload)
        loads_or_rejects(path, load_sgaf)

    @given(raw=st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_word_vectors_any_bytes(self, fuzz_dir, raw):
        (fuzz_dir / "raw.txt").write_bytes(raw)
        loads_or_rejects(fuzz_dir / "raw.txt", load_word_vectors)

    @given(at=st.integers(0, 2 * 301 * 5), raw=st.binary(min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_word_vectors_with_bytes_spliced_in(self, fuzz_dir, at, raw):
        text = f"a {GOOD_VALUES}\nb {GOOD_VALUES}\n".encode()
        (fuzz_dir / "spliced.txt").write_bytes(text[:at] + raw + text[at:])
        loads_or_rejects(fuzz_dir / "spliced.txt", load_word_vectors)

    @given(raw=st.binary(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_dataset_any_bytes(self, fuzz_dir, raw):
        (fuzz_dir / "raw.jsonl").write_bytes(raw)
        loads_or_rejects(fuzz_dir / "raw.jsonl", load_dataset)

    @given(records=st.lists(FUZZ_RECORDS, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_dataset_any_json_records(self, fuzz_dir, records):
        path = fuzz_dir / "records.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        loads_or_rejects(path, load_dataset)


class TestCoverageStats:
    def test_three_image_hand_count(self):
        # independent hand count:
        # img0 (train): triplet words man,riding,horse; captions contain man,horse -> 2/3
        # img1 (train): triplet words dog,on,mat; captions contain all three -> 3/3
        # img2 (val):   triplet words cat,under,table; caption contains cat only -> 1/3
        recs = [
            ImageRecord(
                "img0", "train", ["a man and a horse"],
                [RelationshipTriplet("man", "riding", "horse", 1.0)], "f0",
            ),
            ImageRecord(
                "img1", "train", ["the dog sat on the mat"],
                [RelationshipTriplet("dog", "on", "mat", 1.0)], "f1",
            ),
            ImageRecord(
                "img2", "val", ["a cat sleeping"],
                [RelationshipTriplet("cat", "under", "table", 1.0)], "f2",
            ),
        ]
        stats = coverage_stats(Dataset(recs))
        assert stats["train"] == {"total": 6, "covered": 5, "rate": 5 / 6}
        assert stats["val"] == {"total": 3, "covered": 1, "rate": 1 / 3}
        assert stats["test"] == {"total": 0, "covered": 0, "rate": 0.0}

    def test_case_insensitive_match(self):
        recs = [
            ImageRecord(
                "i", "train", ["A Man"], [RelationshipTriplet("man", "p", "q", 1.0)], "f",
            )
        ]
        stats = coverage_stats(Dataset(recs))
        assert stats["train"]["covered"] == 1

    def test_punctuated_triplet_word_matches(self):
        recs = [
            ImageRecord(
                "i", "train", ["A man in a t-shirt."],
                [RelationshipTriplet("Man", "in", "t-shirt", 1.0)], "f",
            )
        ]
        stats = coverage_stats(Dataset(recs))
        assert stats["train"] == {"total": 3, "covered": 3, "rate": 1.0}

    def test_multi_word_triplet_word_matches(self):
        recs = [
            ImageRecord(
                "i", "train", ["A traffic light on a pole."],
                [RelationshipTriplet("traffic light", "on", "pole", 1.0),
                 RelationshipTriplet("traffic sign", "on", "", 1.0)], "f",
            )
        ]
        stats = coverage_stats(Dataset(recs))
        assert stats["train"] == {"total": 6, "covered": 4, "rate": 4 / 6}


def record_fields(rec) -> list:
    """Each field of a record as repr (NaN scores and -0.0 compare by it)
    and the type of its feature path."""
    return [repr(getattr(rec, f)) for f in ("image_id", "split", "captions", "triplets", "feature_file")] + [
        type(rec.feature_file)]


def load_outcome(loader, path):
    """The records' fields, or the message of the FileFormatError raised."""
    try:
        return [record_fields(r) for r in loader(path).records]
    except FileFormatError as exc:
        return f"FileFormatError: {exc}"


def live_paths() -> int:
    return sum(isinstance(o, PurePath) for o in gc.get_objects())


class TestLazyFeatureFile:
    def _write(self, path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    @pytest.mark.parametrize("name", [  # an absolute name is kept as is
        "f.sgaf", "feats/img0.sgaf", "../up/f.sgaf", "./f.sgaf", "", ".", "a//b", "/abs/f.sgaf",
    ])
    def test_records_equal_reference_loader(self, tmp_path, name):
        path = self._write(tmp_path / "data.jsonl", [
            {**GOOD_RECORD, "id": 7, "feature_file": name},
            {**GOOD_RECORD, "id": "y", "split": "val", "triplets": [], "feature_file": name + "x"},
        ])
        got = load_outcome(load_dataset, path)
        assert got == load_outcome(ref_load_dataset, path)
        assert got == load_outcome(load_dataset, str(path))

    def test_toy_dataset_equals_reference_loader(self, tmp_path):
        from sgcap.toydata import make_toy_data

        info = make_toy_data(12, 27, 3, tmp_path)
        assert load_outcome(load_dataset, info["dataset"]) == load_outcome(ref_load_dataset, info["dataset"])

    @given(records=st.lists(FUZZ_RECORDS, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_records_equal_reference_loader(self, fuzz_dir, records):
        path = self._write(fuzz_dir / "lazy.jsonl", records)
        assert load_outcome(load_dataset, path) == load_outcome(ref_load_dataset, path)

    @given(raw=st.binary(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_bytes_equal_reference_loader(self, fuzz_dir, raw):
        path = fuzz_dir / "lazy.jsonl"
        path.write_bytes(raw)
        assert load_outcome(load_dataset, path) == load_outcome(ref_load_dataset, path)

    def test_load_builds_no_path_until_a_feature_file_is_read(self, tmp_path):
        path = str(self._write(tmp_path / "data.jsonl", [
            {**GOOD_RECORD, "id": f"img{i}", "feature_file": f"features/img{i}.sgaf"} for i in range(100)
        ]))
        before = live_paths()
        ds = load_dataset(path)
        loaded = live_paths()
        assert len(ds) == 100 and loaded - before == 1  # the dataset's directory, shared
        first = ds.records[37].feature_file
        assert live_paths() == loaded + 1
        assert ds.records[37].feature_file is first and live_paths() == loaded + 1
        assert first == tmp_path / "features/img37.sgaf"

    def test_hand_built_and_assigned_names_are_kept(self, tmp_path):
        rec = ImageRecord("i", "train", [], [], "f0")
        assert rec.feature_file == "f0"
        rec = ImageRecord("i", "train", [], [], "f0", base=tmp_path)
        assert rec.feature_file == tmp_path / "f0"
        rec = ImageRecord("i", "train", [], [], "f0", base=tmp_path)
        rec.feature_file = "g"
        assert rec.feature_file == "g"
        assert ImageRecord("i", "train", [], [], "f0", base=tmp_path) == ImageRecord(
            "i", "train", [], [], tmp_path / "f0")


def _with_json_whitespace(line):
    return st.tuples(st.text(" \t\r", max_size=2), st.text(" \t\r", max_size=2)).map(
        lambda ws: ws[0] + line + ws[1])


GOOD_RECORDS = st.fixed_dictionaries({
    "id": st.sampled_from(["a", "b", 1, 1.0, True, None]) | st.text(max_size=3),
    "split": st.sampled_from(["train", "val", "test"]),
    "captions": st.lists(st.text(max_size=6), max_size=2),
    "triplets": st.lists(st.fixed_dictionaries({
        "s": st.text(max_size=3), "p": st.text(max_size=3), "o": st.text(max_size=3),
        "score": st.floats(-2, 2) | st.integers(-2, 2)}), max_size=2),
    "feature_file": st.text(max_size=6),
})
RECORD_LINES = st.tuples(GOOD_RECORDS, st.booleans()).map(lambda r: json.dumps(r[0], ensure_ascii=r[1]))
MISSING_KEY_LINES = st.tuples(GOOD_RECORDS, st.sampled_from(["id", *_RECORD_FIELDS])).map(
    lambda r: json.dumps({k: v for k, v in r[0].items() if k != r[1]}))
BAD_FIELD_LINES = st.tuples(GOOD_RECORDS, st.sampled_from(["id", *_RECORD_FIELDS]), JSON).map(
    lambda r: json.dumps({**r[0], r[1]: r[2]}))  # JSON draws NaN and the infinities as literals
BLANK_LINES = st.text(" \t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000", max_size=3)  # str.strip empties
# lines json.loads reads as one object each, and blank lines
ACCEPTED_LINES = st.one_of(RECORD_LINES, RECORD_LINES.flatmap(_with_json_whitespace), BLANK_LINES)
# one JSON line each: a record, maybe with leading and trailing JSON whitespace, a BOM, other
# whitespace, text after it, a second object, nesting as deep as C's recursion limit or deeper
JSON_LINES = st.one_of(
    RECORD_LINES, MISSING_KEY_LINES, BAD_FIELD_LINES,
    ACCEPTED_LINES,
    st.tuples(st.sampled_from(["\ufeff", "\x0b", "\xa0", "\x0c", "\u3000"]), RECORD_LINES,
              st.booleans()).map(lambda t: t[1] + t[0] if t[2] else t[0] + t[1]),
    st.tuples(RECORD_LINES, st.sampled_from(["x", "}", "]", ",", "//", "\x00", " 1", "{}"])).map("".join),
    st.tuples(RECORD_LINES, st.sampled_from(["", " ", "\t"]), RECORD_LINES).map("".join),
    st.tuples(GOOD_RECORDS, st.sampled_from(["NaN", "Infinity", "-Infinity", "-NaN", "nan", "1e400"]),
              st.sampled_from(["id", "score"])).map(
        lambda r: json.dumps({**r[0], "id": "\x00"}).replace('"\\u0000"', r[1]) if r[2] == "id"
        else json.dumps({**r[0], "triplets": [{"s": "a", "p": "b", "o": "c", "score": 0.5}]})
        .replace('"score": 0.5', f'"score": {r[1]}')),
    st.tuples(GOOD_RECORDS, st.sampled_from([1, 40, 100_000]), st.booleans()).map(
        lambda r: json.dumps({**r[0], "id": "\x00"}).replace(
            '"\\u0000"', "[" * r[1] + "]" * (r[1] if r[2] else 0))),
    st.sampled_from(["[]", "[1]", "3", '"x"', "null", "{", "{}", '{"id": 1', "", "\r"]),
    RECORD_LINES.flatmap(lambda line: st.integers(0, len(line)).map(lambda k: line[:k])),
)


def read_outcome(read, path):
    """repr of what a reader yields under the dataset's fields (NaN and -0.0
    compare by it), or the message of the FileFormatError raised."""
    try:
        return repr(list(read(path, _RECORD_FIELDS)))
    except FileFormatError as exc:
        return f"FileFormatError: {exc}"


class TestJsonLinesReaders:
    """read_jsonl and load_dataset against the form that ran json.loads per line."""

    @given(lines=st.lists(ACCEPTED_LINES, max_size=3), line=JSON_LINES, at=st.integers(0, 3),
           end=st.sampled_from(["\n", "\r\n", ""]))
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_drawn_lines_equal_per_line_json_loads(self, fuzz_dir, lines, line, at, end):
        lines.insert(at, line)
        path = fuzz_dir / "lines.jsonl"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass") + end.encode())
        ref = read_outcome(lambda p, f: [(str(o["id"]), o) for o in ref_read_jsonl(p, f)], path)
        assert read_outcome(read_jsonl, path) == ref
        assert load_outcome(load_dataset, path) == load_outcome(ref_load_dataset, path)

    def test_missing_key_comes_before_a_failing_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"split": "dev", "captions": 1, "id": 1, "triplets": []}) + "\n")
        with pytest.raises(FileFormatError, match=r":1: missing key 'feature_file'$"):
            load_dataset(path)
        path.write_text(json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "id"} | {"split": 1}) + "\n")
        with pytest.raises(FileFormatError, match=r":1: missing key 'id'$"):
            load_dataset(path)

    def test_well_formed_lines_never_reach_json_loads(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        path.write_text(" " + json.dumps(GOOD_RECORD) + "\t\r\n\n" + json.dumps({**GOOD_RECORD, "id": 2}))
        monkeypatch.setattr(json, "loads", None)
        assert [r.image_id for r in load_dataset(path).records] == ["x", "2"]


class TestBatchedTripletRows:
    WORDS = ["man", "riding", "horse", "dog", "on", "mat"]

    @pytest.mark.parametrize("n", [0, 1, 20, 23])
    def test_lstm_rows_equal_one_run_per_triplet(self, n):
        # repeated triplets and words, an unknown word, a word found by its tokens
        rng = np.random.default_rng(n)
        table = _toy_table(self.WORDS)
        words = self.WORDS + ["zebra", "Man.", "horse dog"]
        triplets = [RelationshipTriplet(*(words[j] for j in rng.integers(0, len(words), 3)), float(rng.random()))
                    for _ in range(n)]
        if n > 2:
            triplets[1:3] = triplets[:2]
        params = make_triplet_lstm(0)
        with Tape() as tape:
            m, mask = build_relationship_matrix(triplets, table, mode="lstm", lstm_params=params)
        assert len(tape) == 0
        np.testing.assert_array_equal(m, ref_relationship_matrix_lstm(triplets, table, params))
        assert mask.sum() == min(n, MAX_TRIPLETS) and mask[:min(n, MAX_TRIPLETS)].all()
        for row, t in zip(m, select_top_triplets(triplets)):
            np.testing.assert_array_equal(row, embed_triplet(t, table, "lstm", params))
