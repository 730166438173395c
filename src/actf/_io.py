"""Atomic file writes: temp file in the target directory, then rename."""

import os


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    # Created as open() creates a file, mode 0o666 less the umask, which the
    # rename keeps; a unique name and O_EXCL stand in for mkstemp's forced 0o600.
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())
