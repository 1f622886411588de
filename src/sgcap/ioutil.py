"""File writers shared by every artifact: atomic whole files and run logs."""

import json
import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path, data: bytes) -> None:
    """Write through a sibling temp file and rename into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def run_log(path):
    """A training run's per-epoch log writer: empties ``path`` (None: no log)
    now, then appends each record it is given as one JSON line."""
    if path is None:
        return lambda record: None
    Path(path).write_bytes(b"")

    def write(record: dict) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    return write
