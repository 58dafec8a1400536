"""Benchmark-owned serving entry point.

Builds the server exactly as ``repro serve --listen`` does — ``load_artifact``,
``HistoryStore.from_dataset``, ``build_backend`` and ``NetServer``, all with
default options — but accepts an artifact whose catalog is larger than the
corpus (the CLI rejects that).  Prints one JSON ready line with the bound
port, then serves until its standard input closes or it gets SIGTERM, and
drains, closes the backend (replicas exit and flush their spans) and exits.

    python3 perfbench/server.py ARTIFACT --replicas N [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import build_corpus, import_program  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact")
    parser.add_argument("--replicas", type=int, default=0)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    import_program()

    tracer = None
    if args.trace_dir:
        from layers import install_serving
        from tracing import Tracer
        tracer = Tracer(Path(args.trace_dir))
        install_serving(tracer)

    from repro.serve import HistoryStore, NetServer, build_backend, load_artifact

    artifact = load_artifact(args.artifact)
    history = HistoryStore.from_dataset(build_corpus())
    backend = build_backend(artifact, history, replicas=args.replicas)
    try:
        server = NetServer(backend)
        host, port = server.start_background()
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_: server.drain())
            # The parent holds our stdin open; EOF means it is done or gone.
            threading.Thread(target=lambda: (sys.stdin.read(), server.drain()),
                             daemon=True).start()
            print(json.dumps({"ready": True, "host": host, "port": port,
                              "users": len(history.users),
                              "num_items": artifact.num_items}), flush=True)
            server.wait()
        finally:
            server.stop()
    finally:
        backend.close()
        if tracer is not None:
            tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
