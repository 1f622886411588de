"""Binary checkpoint container for captioner and ranking-network weights.

Layout: 4-byte magic, u32 version, u64 header length, UTF-8 JSON header,
then every parameter as little-endian float64 in manifest order. The
header records the model kind, its config, the RNG seed, the vocabulary
tokens, and a (name, shape) manifest describing the payload.
"""

import json
import math
import os
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .captioner import CaptionerConfig, CaptionerParams
from .features import FileFormatError, Vocabulary
from .ioutil import atomic_write_bytes
from .vse import VseConfig, VseParams

MAGIC = b"SGCK"
VERSION = 1
KINDS = ("captioner", "vse")

_HEAD = struct.Struct("<IQ")  # version, header byte length


def save_checkpoint(path, kind, config, arrays, seed, vocab_tokens) -> None:
    """Serialize a named-array map with its config snapshot, atomically.

    An array holding NaN or inf is refused, as the loader refuses it.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown checkpoint kind {kind!r}, expected one of {KINDS}")
    manifest = []
    chunks = []
    for name, arr in arrays.items():
        a = np.asarray(arr, dtype=np.float64)
        if not np.isfinite(a).all():
            raise ValueError(f"{path}: parameter {name!r} holds NaN or inf")
        manifest.append([name, list(a.shape)])
        chunks.append(np.ascontiguousarray(a, dtype="<f8").tobytes())
    header = {
        "kind": kind,
        "config": config,
        "seed": int(seed),
        "vocab": list(vocab_tokens),
        "manifest": manifest,
    }
    # canonical key order keeps identical states byte-identical on disk
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = b"".join([MAGIC, _HEAD.pack(VERSION, len(head)), head, *chunks])
    atomic_write_bytes(path, blob)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_manifest(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], list)
        and all(_is_int(n) and n >= 0 for n in e[1]) for e in x
    ) and len({e[0] for e in x}) == len(x)


# header field -> (test of its value, what the test asks for)
_HEADER_FIELDS = {
    "kind": (lambda x: x in KINDS, f"one of {KINDS}"),
    "config": (lambda x: isinstance(x, dict), "an object"),
    "seed": (_is_int, "an integer"),
    "vocab": (lambda x: isinstance(x, list) and all(isinstance(t, str) for t in x), "a list of strings"),
    "manifest": (_is_manifest, "a list of distinct [name, [extent, ...]] pairs"),
}


def _read_header(fh, path) -> dict:
    """Check the layout up to the end of the payload and return the header,
    leaving ``fh`` at the first payload byte; nothing of the payload is read."""
    size = os.fstat(fh.fileno()).st_size
    base = len(MAGIC) + _HEAD.size
    start = fh.read(base)
    if len(start) < base or start[: len(MAGIC)] != MAGIC:
        raise FileFormatError(f"{path}: bad magic (not a checkpoint file)")
    version, head_len = _HEAD.unpack_from(start, len(MAGIC))
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported checkpoint version {version}")
    if size < base + head_len:
        raise FileFormatError(f"{path}: truncated header")
    try:
        header = json.loads(fh.read(head_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, nesting too deep
        raise FileFormatError(f"{path}: corrupt header ({exc})") from None
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: header is not a JSON object")
    for key, (valid, what) in _HEADER_FIELDS.items():
        if key not in header:
            raise FileFormatError(f"{path}: header missing field {key!r}")
        if not valid(header[key]):
            raise FileFormatError(f"{path}: header field {key!r} is not {what}")
    offset = base + head_len
    for name, shape in header["manifest"]:
        offset += 8 * math.prod(shape)
        if offset > size:
            raise FileFormatError(f"{path}: payload too short for parameter {name!r} {tuple(shape)}")
    if offset != size:
        raise FileFormatError(f"{path}: {size - offset} trailing bytes after payload")
    return header


def _read_payload(fh, path, manifest, arrays) -> None:
    """Read each manifest entry straight into its (C-contiguous float64) array."""
    for (name, _), arr in zip(manifest, arrays):
        if fh.readinto(arr) != arr.nbytes:
            raise FileFormatError(f"{path}: payload too short for parameter {name!r}")
        if sys.byteorder == "big":
            arr.byteswap(inplace=True)
        if not np.isfinite(arr).all():
            raise FileFormatError(f"{path}: parameter {name!r} holds NaN or inf")


class _Unfilled:
    """Stands in for the initialiser's generator: zero weights, no random
    draw, for a model whose every array is then read from the file."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


def _load_model(path, kind: str, config_cls, params_cls):
    path = Path(path)
    with path.open("rb") as fh:
        header = _read_header(fh, path)
        if header["kind"] != kind:
            raise FileFormatError(f"{path}: expected a {kind} checkpoint, found {header['kind']!r}")
        manifest = header["manifest"]
        try:
            params = params_cls.init(config_cls(**header["config"]), _Unfilled())
            slots = params.params_for(dict(manifest))
            vocab = Vocabulary(header["vocab"])
        except (TypeError, ValueError) as exc:  # the config or the arrays do not fit the model
            raise FileFormatError(f"{path}: {exc}") from None
        _read_payload(fh, path, manifest, [slots[name].data for name, _ in manifest])
    return params, vocab, header["seed"]


def save_captioner(path, params: CaptionerParams, vocab: Vocabulary, seed: int) -> None:
    save_checkpoint(
        path, "captioner", asdict(params.config), params.param_arrays(), seed,
        vocab.tokens,
    )


def load_captioner(path) -> tuple[CaptionerParams, Vocabulary, int]:
    return _load_model(path, "captioner", CaptionerConfig, CaptionerParams)


def save_vse(path, params: VseParams, vocab: Vocabulary, seed: int) -> None:
    save_checkpoint(
        path, "vse", asdict(params.config), params.param_arrays(), seed, vocab.tokens
    )


def load_vse(path) -> tuple[VseParams, Vocabulary, int]:
    return _load_model(path, "vse", VseConfig, VseParams)
