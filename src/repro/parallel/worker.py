"""A warm replica worker: one long-lived subprocess that runs replica jobs.

::

    python -m repro.parallel.worker

The service's pool backend (:class:`repro.service.manager.WorkerPoolBackend`)
starts one of these per worker slot and keeps it for the life of the
service, so the per-process stream cache of :mod:`repro.parallel.jobs`
stays warm across requests.  Parent and worker speak length-prefixed
pickles over the worker's standard streams: each frame is an 8-byte
big-endian length and that many bytes of pickle.

* **Request** (parent -> stdin): one :class:`~repro.parallel.jobs.ReplicaJob`.
* **Reply** (stdout -> parent): ``(True, RunResult)``, or ``(False, error)``
  when the replica raised.  An exception that survives a pickle round trip
  is sent as itself, so the parent's retry policy classifies it exactly as
  an in-process failure; for one that does not, ``error`` is its ``repr``,
  which :func:`reply_outcome` raises as a :class:`ReplicaError`.

The worker exits when its stdin reaches end of file, which is how the
parent shuts it down -- and what happens if the parent dies.  The reply
pipe is a private duplicate of file descriptor 1; fd 1 and ``sys.stdout``
are then pointed at stderr, so a stray print (from Python or from native
code) cannot corrupt the framing.  ``SIGINT`` is ignored: a Ctrl-C in the
terminal reaches the parent, which stops its workers in order.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
from typing import Any, BinaryIO, Union

from repro.parallel.jobs import execute_replica_job

#: The length prefix of every frame.
HEADER = struct.Struct(">Q")


class ReplicaError(RuntimeError):
    """A replica raised an exception that could not cross the process
    boundary as itself; the message is that exception's ``repr``."""


def encode_frame(payload: Any) -> bytes:
    """``payload`` pickled behind its length prefix."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return HEADER.pack(len(body)) + body


def _portable(error: Exception) -> Union[Exception, str]:
    """``error`` itself when it survives a pickle round trip, else its
    ``repr``."""
    try:
        pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return repr(error)
    return error


def answer(request: bytes) -> bytes:
    """The reply frame for one request body."""
    try:
        reply = (True, execute_replica_job(pickle.loads(request)))
    except Exception as error:
        reply = (False, _portable(error))
    return encode_frame(reply)


def reply_outcome(body: bytes) -> Any:
    """The result a reply body carries; raises the error it carries."""
    ok, payload = pickle.loads(body)
    if ok:
        return payload
    if isinstance(payload, str):
        raise ReplicaError(payload)
    raise payload


def serve(requests: BinaryIO, replies: BinaryIO) -> None:
    """Answer request frames until ``requests`` ends."""
    while True:
        header = requests.read(HEADER.size)
        if len(header) < HEADER.size:
            return
        (size,) = HEADER.unpack(header)
        body = requests.read(size)
        if len(body) < size:
            return
        replies.write(answer(body))
        replies.flush()


def main() -> int:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    try:
        serve(sys.stdin.buffer, replies)
    except BrokenPipeError:
        pass  # the parent is gone; nobody is left to answer
    return 0


if __name__ == "__main__":
    sys.exit(main())
