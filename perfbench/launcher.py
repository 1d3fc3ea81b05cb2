"""Run one TIP server for the benchmark, in its own process.

    python3 perfbench/launcher.py --db FILE [--traced]

Starts :class:`repro.server.server.TipServer` on a free local port with
the settings ``python -m repro serve --db FILE`` uses (4 WAL readers,
observability and the flight recorder on), prints ``port N`` and then
answers one-line commands on standard input:

``usage``       print ``{"cpu_s": ..., "peak_rss_mb": ...}`` for this process
``peak reset``  start the peak resident memory afresh
``trace on``    start recording spans (``--traced`` only)
``trace off P`` stop recording and write the spans to file ``P``
``quit``        stop the server and exit

With ``--traced`` the launcher first wraps the server-side layer entry
points with :class:`tracer.Tracer` spans; without it nothing is wrapped.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def install_server_spans(tracer) -> None:
    """Wrap the public entry points of every layer on the server path."""
    from repro.client.connection import TipCursor
    from repro.plan import kernels, planner, shapes
    from repro.server import protocol
    from repro.server.pool import ConnectionPool
    from repro.server.server import _SessionHandler
    from repro.tsql import compiled

    tracer.wrap(protocol, "load_frame", "server.frame_decode")
    tracer.wrap(protocol, "load_value", "server.param_decode")
    tracer.wrap(protocol, "dump_frame", "server.frame_encode")
    tracer.wrap(protocol, "dump_row", "server.row_encode")
    # The frame handler itself: the server layer's own dispatch work is
    # this span's self time.
    tracer.wrap(_SessionHandler, "_dispatch", "server.dispatch")
    tracer.wrap_context(ConnectionPool, "read", "pool.checkout", "pool.checkin")
    tracer.wrap_context(ConnectionPool, "write", "pool.checkout", "pool.checkin")
    tracer.wrap(ConnectionPool, "after_write_commit", "pool.wal")
    tracer.wrap(compiled, "compile_statement", "tsql.compile")
    tracer.wrap(compiled, "compile_normalized", "tsql.compile")
    tracer.wrap(shapes, "match", "plan.shape_match")
    tracer.wrap(planner, "maybe_execute_kernel", "plan.planner")
    tracer.wrap(kernels, "execute_join", "plan.kernel")
    tracer.wrap(kernels, "execute_coalesce", "plan.kernel")
    install_engine_spans(tracer, TipCursor)


def install_engine_spans(tracer, cursor_class) -> None:
    """The SQLite step: statement execution and row fetches."""
    for attribute in ("execute", "execute_fetchall", "executemany"):
        tracer.wrap(cursor_class, attribute, "engine.execute")
    for attribute in ("fetchall", "fetchone", "fetchmany"):
        tracer.wrap(cursor_class, attribute, "engine.fetch")


def main(argv) -> int:
    traced = "--traced" in argv
    try:
        database = argv[argv.index("--db") + 1]
    except (ValueError, IndexError):
        print("usage: launcher.py --db FILE [--traced]", file=sys.stderr)
        return 2
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        install_server_spans(tracer)
    from common import peak_rss_mb, reset_peak_rss
    from repro.server.server import TipServer

    server = TipServer(database, readers=4).start()
    try:
        print(f"port {server.address[1]}", flush=True)
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command[0] == "usage":
                print(json.dumps({"cpu_s": time.process_time(),
                                  "peak_rss_mb": peak_rss_mb()}), flush=True)
            elif command[:2] == ["peak", "reset"]:
                reset_peak_rss()
                print("ok", flush=True)
            elif command[:2] == ["trace", "on"] and tracer is not None:
                tracer.start()
                print("ok", flush=True)
            elif command[:2] == ["trace", "off"] and tracer is not None:
                tracer.stop()
                print(f"spans {tracer.dump(command[2])}", flush=True)
            elif command[0] == "quit":
                break
            else:
                print(f"error unknown command {line.strip()!r}", flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
