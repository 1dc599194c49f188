"""The one write path of a campaign archive.

A write is a frame: a header line ``<name> <size>`` and then ``size`` bytes
of data, where ``name`` is a path relative to the archive root. ``apply``
carries out frames in order: it appends to ``records/evals.jsonl`` and
``tuner.log``, which it keeps open, and creates any other name (an
``instances/<id>.inst``) whole. A campaign sends its frames to this module
running as a child process:

    python -I -S archivewriter.py ROOT LOCK_FD    (frames on stdin until EOF)

The writer runs in a session of its own, out of reach of a Ctrl-C at the
terminal, and drains its input, so every frame the campaign sent is applied
even if the campaign dies. It holds the archive lock, inherited as LOCK_FD,
until its last write, and closes it before its stdout. It stops at its
first failed write, prints the reason to stderr and exits 1. It imports
only modules that the interpreter loads at start-up anyway, so it starts as
fast as a bare interpreter.
"""

from __future__ import annotations

import io
import os
import sys

LOGS = ("records/evals.jsonl", "tuner.log")


def frame(name: str, data: bytes) -> bytes:
    return b"%s %d\n" % (name.encode(), len(data)) + data


def apply(root: str, stream: io.BufferedIOBase) -> None:
    """Apply the frames of ``stream`` in order until EOF.

    A torn last frame, from a sender that died while writing it, is
    dropped. An ``OSError`` stops the loop; the frames before it are applied.
    """
    logs: dict[str, io.BufferedWriter] = {}
    try:
        while True:
            header = stream.readline()
            if not header.endswith(b"\n"):
                return
            name, _, size_text = header.decode().rpartition(" ")
            size = int(size_text)
            data = stream.read(size)
            if len(data) < size:
                return
            if name in LOGS:
                fh = logs.get(name)
                if fh is None:
                    fh = logs[name] = open(os.path.join(root, name), "ab")
                fh.write(data)
                fh.flush()  # each record is in the file before the next frame is read
            else:
                with open(os.path.join(root, name), "wb") as inst:
                    inst.write(data)
    finally:
        for fh in logs.values():
            fh.close()


def main() -> int:
    try:
        apply(sys.argv[1], sys.stdin.buffer)
    except OSError as exc:
        sys.stderr.write(f"cannot write {exc.filename}: {exc.strerror}\n")
        return 1
    finally:
        os.close(int(sys.argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
