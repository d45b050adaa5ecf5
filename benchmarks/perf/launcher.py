"""Run ``repro serve`` with its layers wrapped for the traced pass.

Usage::

    python benchmarks/perf/launcher.py --spans OUT -- serve --socket S ...

Installs timing wrappers at the attributes the serve path looks up —
``repro.serve.protocol.encode_frame``/``decode_frame`` (reached through
``read_frame``/``write_frame``), ``Dispatcher.submit``,
``Journal.append``/``commit`` and ``Dispatcher.recover`` — then calls
``repro.cli.main`` with the arguments after ``--``, so the traced
server is the same program and topology as the untraced
``python -m repro serve``.  Spans are written to ``OUT`` when the server
exits and whenever the process receives SIGUSR1 (the harness asks for
them before it SIGKILLs a journaled server).
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from spans import SpanRecorder  # noqa: E402


def _tid_of_message(message: object) -> object:
    return message.get("tid") if isinstance(message, dict) else None


def _journal_req(args: tuple, _result: object) -> object:
    # Journal.append(self, kind, data, ...): submit records carry the
    # task, completion records its tid.
    data = args[2] if len(args) > 2 else None
    if not isinstance(data, dict):
        return None
    task = data.get("task")
    return task.get("tid") if isinstance(task, dict) else data.get("tid")


def install(rec: SpanRecorder) -> None:
    import repro.serve.protocol as protocol
    from repro.serve.dispatcher import Dispatcher
    from repro.serve.journal import Journal

    rec.wrap(protocol, "decode_frame", "protocol.decode", req=lambda a, r: _tid_of_message(r))
    rec.wrap(protocol, "encode_frame", "protocol.encode", req=lambda a, r: _tid_of_message(a[0]))
    rec.wrap(Dispatcher, "submit", "dispatcher.submit", req=lambda a, r: getattr(a[1], "tid", None))
    rec.wrap(Journal, "append", "journal.append", req=_journal_req)
    rec.wrap(Journal, "commit", "journal.commit", parent="journal.append")
    rec.wrap(Dispatcher, "recover", "journal.recover")


def main(argv: list[str]) -> int:
    if "--" not in argv or argv[:1] != ["--spans"] or len(argv) < 3:
        print("usage: launcher.py --spans OUT -- serve ARGS...", file=sys.stderr)
        return 2
    out = argv[1]
    serve_argv = argv[argv.index("--") + 1 :]
    rec = SpanRecorder()
    install(rec)

    def dump(*_signal: object) -> None:
        tmp = out + ".tmp"
        rec.dump(tmp)
        os.replace(tmp, out)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as cli_main

    code = cli_main(serve_argv)
    dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
