"""Binary checkpoint container for captioner and ranking-network weights.

Layout: 4-byte magic, u32 version, u64 header length, UTF-8 JSON header,
then every parameter as little-endian float64 in manifest order. The
header records the model kind, its config, the RNG seed, the vocabulary
tokens, and a (name, shape) manifest describing the payload.
"""

import json
import struct
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Checkpoint:
    """Decoded checkpoint contents, independent of the model classes."""

    kind: str
    config: dict
    seed: int
    vocab_tokens: list[str]
    arrays: dict[str, np.ndarray]


def save_checkpoint(path, kind, config, arrays, seed, vocab_tokens) -> None:
    """Serialize a named-array map with its config snapshot, atomically."""
    if kind not in KINDS:
        raise ValueError(f"unknown checkpoint kind {kind!r}, expected one of {KINDS}")
    manifest = []
    chunks = []
    for name, arr in arrays.items():
        a = np.asarray(arr, dtype=np.float64)
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


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    raw = path.read_bytes()
    base = len(MAGIC) + _HEAD.size
    if len(raw) < base or raw[: len(MAGIC)] != MAGIC:
        raise FileFormatError(f"{path}: bad magic (not a checkpoint file)")
    version, head_len = _HEAD.unpack_from(raw, len(MAGIC))
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported checkpoint version {version}")
    if len(raw) < base + head_len:
        raise FileFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[base:base + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: corrupt header ({exc})") from None
    for key in ("kind", "config", "seed", "vocab", "manifest"):
        if key not in header:
            raise FileFormatError(f"{path}: header missing field {key!r}")
    if header["kind"] not in KINDS:
        raise FileFormatError(f"{path}: unknown model kind {header['kind']!r}")
    arrays: dict[str, np.ndarray] = {}
    offset = base + head_len
    for name, shape in header["manifest"]:
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        if offset + nbytes > len(raw):
            raise FileFormatError(
                f"{path}: payload too short for parameter {name!r} {shape}"
            )
        flat = np.frombuffer(raw, dtype="<f8", count=nbytes // 8, offset=offset)
        arrays[name] = flat.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise FileFormatError(f"{path}: {len(raw) - offset} trailing bytes after payload")
    return Checkpoint(
        kind=header["kind"],
        config=dict(header["config"]),
        seed=int(header["seed"]),
        vocab_tokens=[str(t) for t in header["vocab"]],
        arrays=arrays,
    )


def save_captioner(path, params: CaptionerParams, vocab: Vocabulary, seed: int) -> None:
    save_checkpoint(
        path, "captioner", params.config.to_dict(), params.param_arrays(), seed,
        vocab.tokens,
    )


def load_captioner(path) -> tuple[CaptionerParams, Vocabulary, int]:
    ck = load_checkpoint(path)
    if ck.kind != "captioner":
        raise FileFormatError(f"{path}: expected a captioner checkpoint, found {ck.kind!r}")
    config = CaptionerConfig.from_dict(ck.config)
    params = CaptionerParams.init(config, np.random.default_rng(0))
    params.load_arrays(ck.arrays)
    return params, Vocabulary(ck.vocab_tokens), ck.seed


def save_vse(path, params: VseParams, vocab: Vocabulary, seed: int) -> None:
    save_checkpoint(
        path, "vse", params.config.to_dict(), params.param_arrays(), seed, vocab.tokens
    )


def load_vse(path) -> tuple[VseParams, Vocabulary, int]:
    ck = load_checkpoint(path)
    if ck.kind != "vse":
        raise FileFormatError(f"{path}: expected a vse checkpoint, found {ck.kind!r}")
    config = VseConfig.from_dict(ck.config)
    params = VseParams.init(config, np.random.default_rng(0))
    params.load_arrays(ck.arrays)
    return params, Vocabulary(ck.vocab_tokens), ck.seed
