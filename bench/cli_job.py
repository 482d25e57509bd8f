"""One tannakit CLI command with span tracing, in a fresh process.

    python3 bench/cli_job.py SPANS.json -- [tannakit arguments]

Behaves like the `tannakit` console script (same arguments, output and exit
code) and writes the spans of the run to SPANS.json when it ends.
"""

import sys
import time

START = time.monotonic()
import tannakit.cli as cli                            # noqa: E402
STARTUP = time.monotonic() - START

from tracing import Tracer, install, install_cli     # noqa: E402


def main(argv):
    spans_path = argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: cli_job.py SPANS.json -- ARGS...")
    tracer = Tracer()
    install(tracer)
    install_cli(tracer, cli)
    try:
        return cli.main(argv[3:])
    finally:
        tracer.dump(spans_path, extra={"startup_s": STARTUP,
                                       "covered_s": STARTUP + tracer.root_time()})


if __name__ == "__main__":
    sys.exit(main(sys.argv))
