"""Data plumbing: vocabulary, word vectors, relationship triplets, datasets.

File formats handled here:

* word vectors: text, one entry per line, ``word v1 ... v300``;
* spatial / relationship feature matrices: binary, little-endian, magic
  ``SGAF``, u32 version (1), u32 rows, u32 cols, then rows*cols float32
  values in row-major order;
* datasets: JSON lines, one image per line with keys ``id``, ``split``
  (train / val / test), ``captions``, ``triplets`` (each with ``s``,
  ``p``, ``o``, ``score``) and ``feature_file`` (path, relative paths
  resolved against the dataset file's directory).

Arrays here are plain numpy (float64 once loaded); they are wrapped into
graph tensors at encode time.
"""

from __future__ import annotations

import functools
import json
import re
import string
import struct
import sys
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

import numpy as np

from . import nn
from .autodiff import constant, lstm_sequences, no_grad
from .ioutil import atomic_write_bytes, atomic_write_text

__all__ = [
    "PAD", "BOS", "EOS", "UNK",
    "SPECIALS",
    "WORD_VECTOR_DIM",
    "MAX_TRIPLETS",
    "TRIPLET_MODES",
    "FileFormatError",
    "tokenize",
    "Vocabulary",
    "build_vocabulary",
    "WordVectorTable",
    "load_word_vectors",
    "text_lines",
    "write_sgaf",
    "load_sgaf",
    "RelationshipTriplet",
    "select_top_triplets",
    "check_triplet_mode",
    "make_triplet_lstm",
    "build_relationship_matrix",
    "FeatureBundle",
    "ImageRecord",
    "Dataset",
    "read_jsonl",
    "load_dataset",
    "coverage_stats",
]

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")
WORD_VECTOR_DIM = 300
MAX_TRIPLETS = 20
TRIPLET_MODES = ("mean", "lstm")  # how a triplet's three word vectors become one row

_SGAF_MAGIC = b"SGAF"
_SGAF_VERSION = 1

_PUNCT = re.compile(f"[{re.escape(string.punctuation)}]")


class FileFormatError(ValueError):
    """A file failed structural validation (bad magic, width, field)."""


def tokenize(text: str) -> list[str]:
    """Lowercase, strip ASCII punctuation, split on whitespace."""
    return _PUNCT.sub("", text.lower()).split()


class Vocabulary:
    """Token <-> id mapping with fixed special ids 0..3.

    Non-special tokens are ordered by corpus count (descending), ties
    broken lexicographically, so the same corpus always yields the same
    mapping.
    """

    def __init__(self, tokens: Sequence[str], min_count: int = 1):
        head = list(tokens[:len(SPECIALS)])
        if head != list(SPECIALS):
            raise ValueError(f"vocabulary must start with {list(SPECIALS)}, got {head}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self._tokens = list(tokens)
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        self.min_count = int(min_count)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def token_to_id(self, token: str) -> int:
        return self._ids.get(token, UNK)

    def id_to_token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise IndexError(f"token id {token_id} outside vocabulary of {len(self._tokens)}")
        return self._tokens[token_id]

    def encode_caption(self, text: str) -> list[int]:
        """BOS, token ids (UNK for out-of-vocabulary), EOS."""
        return [BOS] + [self.token_to_id(t) for t in tokenize(text)] + [EOS]

    def decode_tokens(self, token_ids: Iterable[int]) -> str:
        """Words joined by spaces; PAD/BOS skipped, EOS terminates."""
        words = []
        for tid in token_ids:
            tid = int(tid)
            if tid == EOS:
                break
            if tid in (PAD, BOS):
                continue
            words.append(self.id_to_token(tid))
        return " ".join(words)

    def save(self, path) -> None:
        atomic_write_text(
            path,
            json.dumps({"min_count": self.min_count, "tokens": self._tokens}, indent=0) + "\n",
        )

    @classmethod
    def load(cls, path) -> "Vocabulary":
        obj = json.loads(Path(path).read_text())
        return cls(obj["tokens"], obj["min_count"])


def build_vocabulary(captions: Iterable[str], min_count: int = 5) -> Vocabulary:
    """Count tokens over the corpus; keep those seen at least min_count times."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: dict[str, int] = {}
    for text in captions:
        for tok in tokenize(text):
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(list(SPECIALS) + kept, min_count)


class WordVectorTable:
    """word -> fixed 300-d vector; a word with no table token maps to zero."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        for w, v in vectors.items():
            if v.shape != (WORD_VECTOR_DIM,):
                raise FileFormatError(
                    f"vector for {w!r} has length {v.shape[0]}, expected {WORD_VECTOR_DIM}"
                )
        self._vectors = {w: np.asarray(v, dtype=np.float64) for w, v in vectors.items()}

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def get(self, word: str) -> np.ndarray:
        """Vector for the word as written, else the mean vector of its ``tokenize``
        tokens in the table ("Box." -> "box"); zeros when none is."""
        v = self._vectors.get(word)
        if v is not None:
            return v.copy()
        found = [self._vectors[t] for t in tokenize(word) if t in self._vectors]
        return np.mean(found, axis=0) if found else np.zeros(WORD_VECTOR_DIM)


def load_word_vectors(path) -> WordVectorTable:
    """Parse a text word-vector file: per non-blank line a word, then
    WORD_VECTOR_DIM finite ASCII decimal floats, separated by whitespace.

    One ``np.loadtxt`` pass parses every line's numbers into one matrix,
    and the table holds its rows. A bad line is a ``FileFormatError``
    naming it; a repeated word keeps its last vector.
    """
    path = Path(path)
    words: list[str] = []

    def numbers():
        for _, word, rest in _word_vector_lines(path):
            words.append(word)
            yield rest

    rows = numbers()
    first = next(rows, None)
    if first is None:
        return WordVectorTable({})
    try:
        matrix = _parse_vectors(chain([first], rows))
        ok = matrix.shape == (len(words), WORD_VECTOR_DIM) and np.isfinite(matrix).all()
    except ValueError:  # also the FileFormatError of a line on its way in
        ok = False
    if not ok:
        _raise_first_bad_line(path)
    return WordVectorTable(dict(zip(words, matrix)))


def _parse_vectors(lines: Iterable[str]) -> np.ndarray:
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def _word_vector_lines(path: Path) -> Iterator[tuple[int, str, str]]:
    """(line number, word, rest of the line) per non-blank line; a line
    with a word alone is rejected here, since loadtxt would skip it."""
    for lineno, line in text_lines(path):
        parts = line.split(None, 1)
        if len(parts) == 2:
            yield lineno, parts[0], parts[1]
        elif parts:
            raise _width_error(path, lineno, 1)


def _width_error(path: Path, lineno: int, fields: int) -> FileFormatError:
    return FileFormatError(
        f"{path}:{lineno}: expected word + {WORD_VECTOR_DIM} values, got {fields} fields"
    )


def _raise_first_bad_line(path: Path) -> NoReturn:
    """Parse the file again one line at a time and name the first line the
    bulk parse rejected (its row numbers do not map back to lines)."""
    for lineno, _, rest in _word_vector_lines(path):
        try:
            row = _parse_vectors([rest])
        except ValueError as exc:
            detail = str(exc).split(" at row ")[0]
            raise FileFormatError(f"{path}:{lineno}: non-numeric value ({detail})") from None
        if row.shape != (1, WORD_VECTOR_DIM):
            raise _width_error(path, lineno, row.size + 1)
        if not np.isfinite(row).all():
            raise FileFormatError(f"{path}:{lineno}: non-finite value")
    raise FileFormatError(f"{path}: lines parse one by one but not as one table")


def text_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) of a UTF-8 text file; a line that does not
    decode is a FileFormatError naming it."""
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FileFormatError(f"{path}:{lineno}: not UTF-8 text ({exc})") from None
            yield lineno, line


def write_sgaf(path, matrix: np.ndarray) -> None:
    """Write a matrix in the binary feature format (float32 payload)."""
    m = np.asarray(matrix, dtype=np.float32)
    if m.ndim != 2:
        raise FileFormatError(f"feature matrix must be 2-d, got shape {tuple(m.shape)}")
    header = _SGAF_MAGIC + struct.pack("<III", _SGAF_VERSION, m.shape[0], m.shape[1])
    atomic_write_bytes(path, header + np.ascontiguousarray(m, dtype="<f4").tobytes())


def load_sgaf(path) -> np.ndarray:
    """Read a binary feature matrix, widened to float64; an empty one, or
    one holding NaN or inf, is a ``FileFormatError`` naming the file."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != _SGAF_MAGIC:
        raise FileFormatError(f"{path}: bad magic (not a feature matrix file)")
    version, rows, cols = struct.unpack("<III", raw[4:16])
    if version != _SGAF_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    if rows == 0 or cols == 0:
        raise FileFormatError(f"{path}: empty {rows}x{cols} feature matrix")
    expected = 16 + rows * cols * 4
    if len(raw) != expected:
        raise FileFormatError(f"{path}: payload size {len(raw) - 16} != {rows}x{cols} float32")
    data = np.frombuffer(raw, dtype="<f4", offset=16).reshape(rows, cols)
    if not np.isfinite(data).all():
        raise FileFormatError(f"{path}: feature matrix holds NaN or inf")
    return data.astype(np.float64)


@dataclass(frozen=True)
class RelationshipTriplet:
    """One detected relationship: subject, predicate, object, confidence."""

    subject: str
    predicate: str
    object_: str
    score: float

    def words(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object_)


def select_top_triplets(
    triplets: Sequence[RelationshipTriplet], k: int = MAX_TRIPLETS
) -> list[RelationshipTriplet]:
    """k highest-confidence triplets, descending; ties keep input order."""
    order = sorted(range(len(triplets)), key=lambda i: (-triplets[i].score, i))
    return [triplets[i] for i in order[:k]]


def check_triplet_mode(mode: str) -> str:
    """``mode`` if it is one of TRIPLET_MODES, else a ValueError naming them."""
    if mode not in TRIPLET_MODES:
        raise ValueError(f"unknown triplet aggregation mode {mode!r}; "
                         f"expected one of {', '.join(TRIPLET_MODES)}")
    return mode


@functools.cache
def make_triplet_lstm(seed: int = 0) -> nn.LstmParams:
    """Fixed, seeded 300-d LSTM used by the ``lstm`` aggregation mode.

    Features are extracted before training, so this aggregator is never
    trained; a deterministic seed keeps extraction reproducible. It is
    drawn once per seed and process, and shared by every caller.
    """
    return nn.LstmParams.init(np.random.default_rng(seed), WORD_VECTOR_DIM, WORD_VECTOR_DIM)


def _embed_triplets(
    triplets: Sequence[RelationshipTriplet],
    table: WordVectorTable,
    mode: str,
    lstm_params: Optional[nn.LstmParams],
) -> np.ndarray:
    """(len(triplets), 300): a 300-d row per triplet.

    mean: (v_s + v_p + v_o) / 3.  lstm: final hidden state of a 300-d
    LSTM run over the three word vectors in subject, predicate, object
    order. Words are looked up as ``WordVectorTable.get`` does. In lstm
    mode the triplets run as the rows of one untaped ``lstm_sequences``
    call, whose rows equal one LSTM run per triplet.
    """
    words = np.array([[table.get(w) for w in t.words()] for t in triplets])  # (n, 3, 300)
    if check_triplet_mode(mode) == "mean":
        return (words[:, 0] + words[:, 1] + words[:, 2]) / 3.0
    params = lstm_params if lstm_params is not None else make_triplet_lstm()
    with no_grad():
        return lstm_sequences(constant(words.reshape(-1, WORD_VECTOR_DIM)),
                              np.arange(words.shape[0] * 3).reshape(-1, 3), params.weights()).data


def build_relationship_matrix(
    triplets: Sequence[RelationshipTriplet],
    table: WordVectorTable,
    k: int = MAX_TRIPLETS,
    mode: str = "mean",
    lstm_params: Optional[nn.LstmParams] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(k, 300) matrix plus a row-validity mask.

    Rows hold the top-k triplet embeddings in confidence order; missing
    rows are zero with mask False.
    """
    chosen = select_top_triplets(triplets, k)
    matrix = np.zeros((k, WORD_VECTOR_DIM))
    mask = np.zeros(k, dtype=bool)
    if chosen:
        matrix[:len(chosen)] = _embed_triplets(chosen, table, mode, lstm_params)
        mask[:len(chosen)] = True
    return matrix, mask


@dataclass
class FeatureBundle:
    """Everything the encoder needs for one image."""

    image_id: str
    spatial: np.ndarray        # (N_s, D_s)
    relationships: np.ndarray  # (MAX_TRIPLETS, 300)
    rel_mask: np.ndarray       # (MAX_TRIPLETS,) bool

    def __post_init__(self):
        self.spatial = np.asarray(self.spatial, dtype=np.float64)
        self.relationships = np.asarray(self.relationships, dtype=np.float64)
        self.rel_mask = np.asarray(self.rel_mask, dtype=bool)
        if self.spatial.ndim != 2:
            raise ValueError(f"spatial features must be 2-d, got shape {self.spatial.shape}")
        if self.relationships.shape != (MAX_TRIPLETS, WORD_VECTOR_DIM):
            raise ValueError(
                f"relationship matrix must be ({MAX_TRIPLETS}, {WORD_VECTOR_DIM}), "
                f"got {self.relationships.shape}"
            )
        if self.rel_mask.shape != (MAX_TRIPLETS,):
            raise ValueError(f"relationship mask must have length {MAX_TRIPLETS}")


@dataclass
class ImageRecord:
    """One image of a dataset.

    With a ``base``, ``feature_file`` is joined to it the first time it
    is read (an absolute name replaces the base, as ``Path`` joining
    does), so ``load_dataset``, which passes the dataset's directory,
    builds no ``Path`` per record. Without one, or once assigned, it is
    kept as given.
    """

    image_id: str
    split: str
    captions: list[str]
    triplets: list[RelationshipTriplet]
    feature_file: Path
    base: Optional[Path] = field(default=None, repr=False, compare=False)


def _feature_file(rec: ImageRecord) -> Path:
    if rec.base is not None:
        rec._feature_file, rec.base = rec.base / rec._feature_file, None
    return rec._feature_file


def _set_feature_file(rec: ImageRecord, value) -> None:
    rec._feature_file, rec.base = value, None  # the generated __init__ sets base after this


ImageRecord.feature_file = property(_feature_file, _set_feature_file)


@dataclass
class Dataset:
    records: list[ImageRecord] = field(default_factory=list)

    def split(self, name: str) -> list[ImageRecord]:
        return [r for r in self.records if r.split == name]

    def __len__(self) -> int:
        return len(self.records)


_VALID_SPLITS = ("train", "val", "test")


def _all_strings(xs) -> bool:
    return all(map(isinstance, xs, repeat(str)))


_FLOAT_MAX = sys.float_info.max


def _is_triplet(t) -> bool:
    # json.loads also yields NaN, the infinities and integers no float
    # holds; the range test is false for each
    return (isinstance(t, dict) and _all_strings(t.get(k) for k in ("s", "p", "o"))
            and type(t.get("score")) in (int, float) and -_FLOAT_MAX <= t["score"] <= _FLOAT_MAX)


# record field -> (test of its value, what the test asks for); "id" may be any value
_RECORD_FIELDS = {
    "split": (lambda x: x in _VALID_SPLITS, f"one of {_VALID_SPLITS}"),
    "captions": (lambda x: isinstance(x, list) and _all_strings(x), "a list of strings"),
    "triplets": (lambda x: isinstance(x, list) and all(_is_triplet(t) for t in x),
                 'a list of {"s", "p", "o": string, "score": finite number} objects'),
    "feature_file": (lambda x: isinstance(x, str), "a string"),
}


def read_jsonl(path, fields: dict) -> Iterator[tuple[str, dict]]:
    """(id, object) for the objects of a JSON-lines file, one per
    non-blank line.

    Each must hold an "id", unique after ``str()`` (the id yielded), plus
    every key of ``fields`` (key -> (test of its value, what the test asks
    for)) with a value that passes its test. Anything else is a
    ``FileFormatError`` naming the line.
    """
    path = Path(path)
    keys = ("id", *fields)
    first_line: dict[str, int] = {}  # id -> line it first appeared on
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, huge number, nesting too deep
            raise FileFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise FileFormatError(f"{path}:{lineno}: record is not a JSON object")
        for key in keys:
            if key not in obj:
                raise FileFormatError(f"{path}:{lineno}: missing key {key!r}")
        for key, (valid, what) in fields.items():
            if not valid(obj[key]):
                raise FileFormatError(f"{path}:{lineno}: {key} must be {what}")
        ident = str(obj["id"])
        if ident in first_line:
            raise FileFormatError(
                f"{path}:{lineno}: duplicate id {ident!r} (first on line {first_line[ident]})"
            )
        first_line[ident] = lineno
        yield ident, obj


def load_dataset(path) -> Dataset:
    """Parse a JSON-lines dataset; feature paths resolve against its
    directory when a record's ``feature_file`` is first read.

    Image ids must be unique: a repeated one is a ``FileFormatError``.
    """
    path = Path(path)
    base = path.parent
    records = []
    for ident, obj in read_jsonl(path, _RECORD_FIELDS):
        triplets = [
            RelationshipTriplet(t["s"], t["p"], t["o"], float(t["score"]))
            for t in obj["triplets"]
        ]
        records.append(ImageRecord(ident, obj["split"], obj["captions"], triplets, obj["feature_file"], base))
    return Dataset(records)


def load_bundle(
    record: ImageRecord,
    table: WordVectorTable,
    mode: str = "mean",
    lstm_params: Optional[nn.LstmParams] = None,
) -> FeatureBundle:
    """Assemble one image's features from disk plus its triplets."""
    spatial = load_sgaf(record.feature_file)
    rel, mask = build_relationship_matrix(record.triplets, table, MAX_TRIPLETS, mode, lstm_params)
    return FeatureBundle(record.image_id, spatial, rel, mask)


def coverage_stats(dataset: Dataset) -> dict:
    """How often triplet words actually occur in their image's captions.

    Per split: ``total`` counts every (triplet, slot) word instance,
    ``covered`` those whose ``tokenize`` tokens (at least one) all
    appear among the image's caption tokens, ``rate`` their ratio (0
    when the split has no triplet words).
    """
    out = {}
    for split in _VALID_SPLITS:
        total = 0
        covered = 0
        for rec in dataset.records:
            if rec.split != split:
                continue
            caption_tokens = set()
            for c in rec.captions:
                caption_tokens.update(tokenize(c))
            for t in rec.triplets:
                for w in t.words():
                    total += 1
                    parts = tokenize(w)
                    if parts and caption_tokens.issuperset(parts):
                        covered += 1
        out[split] = {
            "total": total,
            "covered": covered,
            "rate": (covered / total) if total else 0.0,
        }
    return out
